//! Graph file input and output.
//!
//! GraphCT ships graph data-file input and output as part of the
//! toolkit.  Both readers reject malformed input with
//! [`std::io::ErrorKind::InvalidData`] rather than panicking:
//!
//! * [`text`] — whitespace-separated edge lists (`u v [w]` per line).
//! * [`binary`] — a compact little-endian binary CSR dump.

pub mod binary;
pub mod text;

pub use binary::{read_csr_binary, write_csr_binary};
pub use text::{read_edge_list, write_edge_list};
