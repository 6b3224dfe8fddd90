//! STINGER-lite: a dynamic (streaming) graph with incremental analytics.
//!
//! The paper's context (§II) puts GraphCT alongside the XMT's streaming
//! work: "massive streaming data analytics: a case study with clustering
//! coefficients" \[12\] and "tracking structure of streaming social
//! networks" \[13\], both built on the STINGER dynamic-graph structure.
//! This crate is a compact shared-memory analogue:
//!
//! * [`DynGraph`] — an undirected dynamic graph with per-vertex sorted
//!   adjacency, edge insertion/deletion, parallel batch updates, and
//!   CSR import/export;
//! * [`StreamingAnalytics`] — the one maintainer: owns the graph and
//!   keeps its CC labels and triangle counts in lockstep under batched
//!   updates (what the service layer registers as a streaming graph);
//! * [`TriangleTracker`] — the per-vertex triangle tallies it feeds
//!   (the \[12\] algorithm: the delta for edge `{u,v}` is
//!   `|N(u) ∩ N(v)|`);
//! * [`ComponentTracker`] — the min-id union-find it feeds, with a
//!   pending counter for deletions that need the recompute fallback (as
//!   in \[13\], deletions are the hard case).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod analytics;
pub mod components;
pub mod dyngraph;
pub mod triangles;

pub use analytics::{BatchOutcome, EdgeOp, OutOfRange, StreamingAnalytics};
pub use components::ComponentTracker;
pub use dyngraph::DynGraph;
pub use triangles::TriangleTracker;
