//! Umbrella crate for the reproduction of *"Investigating Graph
//! Algorithms in the BSP Model on the Cray XMT"* (Ediger & Bader,
//! IPDPSW 2013).
//!
//! Re-exports the workspace crates under one roof so the examples and
//! cross-crate integration tests have a single dependency:
//!
//! * [`par`] — XMT-style parallel runtime (substrate);
//! * [`graph`] — CSR graphs, RMAT generator, I/O (substrate);
//! * [`sim`] — discrete-event Threadstorm simulator (substrate);
//! * [`model`] — analytic XMT performance model (substrate);
//! * [`graphct`] — shared-memory baseline kernels;
//! * [`bsp`] — the vertex-centric BSP framework (the paper's
//!   contribution);
//! * [`stinger`] — STINGER-lite streaming graphs with incremental
//!   analytics (the paper's refs 12 and 13 context).
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub use graphct;
pub use stinger_lite as stinger;
pub use xmt_bsp as bsp;
pub use xmt_graph as graph;
pub use xmt_model as model;
pub use xmt_par as par;
pub use xmt_sim as sim;
