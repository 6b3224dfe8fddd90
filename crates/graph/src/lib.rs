//! Graph substrate: CSR storage, generators, and graph operations.
//!
//! GraphCT (the paper's baseline framework) stores one efficient read-only
//! graph representation in main memory and serves it to every analysis
//! kernel.  This crate is that representation plus everything needed to
//! produce the paper's workloads:
//!
//! * [`Csr`] — compressed sparse row storage of an undirected simple
//!   graph with sorted rows, built in parallel from an [`EdgeList`].
//! * [`gen`] — graph generators: RMAT (the paper's workload, Chakrabarti
//!   et al. with Graph500 parameters), Erdős–Rényi, and deterministic
//!   families for tests.
//! * [`ops`] — the rank-space degree-ordered DAG and the degree order that
//!   triangle counting runs on.
//! * [`validate`] — Graph500-style BFS tree validation and component
//!   label validation.
//!
//! # Example
//!
//! ```
//! use xmt_graph::builder::build_undirected;
//! use xmt_graph::gen::rmat::{rmat_edges, RmatParams};
//!
//! // The paper's workload, miniaturized: an undirected scale-free RMAT
//! // graph with self loops and duplicates removed, sorted adjacency.
//! let params = RmatParams::graph500(8); // 256 vertices, ~16 edges each
//! let g = build_undirected(&rmat_edges(&params, 42));
//!
//! assert_eq!(g.num_vertices(), 256);
//! // Skewed degrees: the hub dwarfs the mean.
//! let mean = g.num_arcs() as f64 / g.num_vertices() as f64;
//! assert!(g.max_degree() as f64 > 3.0 * mean);
//! // Adjacency queries:
//! let hub = (0..256).max_by_key(|&v| g.degree(v)).unwrap();
//! for &n in g.neighbors(hub) {
//!     assert!(g.has_arc(n, hub), "undirected arcs are symmetric");
//! }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod builder;
pub mod csr;
pub mod edge_list;
pub mod gen;
pub mod ops;
pub mod validate;

pub use csr::Csr;
pub use edge_list::EdgeList;
pub use ops::dag::IntersectStrategy;

/// Vertex identifier. The XMT is a 64-bit word machine and GraphCT uses
/// 64-bit vertex ids; we do the same.
pub type VertexId = u64;

/// Sentinel "no vertex" value (used for BFS parents, etc.).
pub const NO_VERTEX: VertexId = u64::MAX;

/// Beamer's top-down → bottom-up ratio for direction-optimizing BFS:
/// switch to bottom-up when `frontier_edges * BEAMER_ALPHA >
/// unexplored_edges`.  GAP's default.  GraphCT's BFS and the BSP
/// runtime's `Delivery::Auto` both read it, so the two engines flip
/// direction on the same levels.
pub const BEAMER_ALPHA: f64 = 15.0;

/// Beamer's bottom-up → top-down ratio: switch back to top-down when the
/// frontier holds fewer than `n / BEAMER_BETA` vertices.  GAP's default,
/// shared the same way as [`BEAMER_ALPHA`].
pub const BEAMER_BETA: f64 = 18.0;

/// FNV-1a over 64-bit words: the hash the byte-pinning tests fold edge
/// lists and CSR arrays with.
#[cfg(test)]
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x100_0000_01b3)
    })
}
