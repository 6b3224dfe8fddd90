//! GraphCT-style shared-memory graph kernels — the paper's baseline.
//!
//! GraphCT is the open-source multithreaded graph toolkit the paper uses
//! as its hand-tuned shared-memory reference.  This crate re-implements
//! the three kernels the paper measures, in the same algorithmic style
//! (loop-level parallelism, atomic fetch-and-add, immediate visibility of
//! updates), plus PageRank:
//!
//! * [`components`] — Shiloach-Vishkin-style connected components with
//!   in-iteration label propagation (§III);
//! * [`mod@bfs`] — level-synchronous breadth-first search with a shared
//!   frontier queue (§IV);
//! * [`triangles`] — triangle counting and clustering coefficients by
//!   sorted-adjacency intersection (§V);
//! * [`mod@pagerank`] — pull-based PageRank, a served kernel.
//!
//! The three measured kernels each have two entry points: the plain
//! zero-option form ([`connected_components`], [`bfs()`],
//! [`count_triangles`]) and a `*_with` form taking a [`Ctx`] — which
//! executor the loops run on, an optional [`xmt_model::Recorder`] for
//! exact per-iteration operation counts (the analytic machine model
//! turns those into Cray XMT time predictions), and an optional
//! wall-clock [`xmt_trace::TraceSink`].
//!
//! # Example
//!
//! ```
//! use xmt_graph::builder::build_undirected;
//! use xmt_graph::gen::structured::bridged_cliques;
//!
//! // Two 5-cliques joined by a bridge.
//! let g = build_undirected(&bridged_cliques(5));
//!
//! let labels = graphct::connected_components(&g);
//! assert!(labels.iter().all(|&l| l == 0), "one component");
//!
//! let bfs = graphct::bfs(&g, 0);
//! assert_eq!(bfs.dist[9], 3, "across the bridge");
//!
//! let (cc, triangles) = graphct::clustering_coefficients(&g);
//! assert_eq!(triangles, 2 * 10, "two K5s");
//! assert!(cc[0] > 0.9, "clique members are tightly clustered");
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod bfs;
pub mod components;
pub mod pagerank;
pub mod triangles;

pub use bfs::{bfs, bfs_with, BfsResult};
pub use components::{
    connected_components, connected_components_jacobi, connected_components_with,
};
pub use pagerank::pagerank;
pub use triangles::{
    clustering_coefficients, count_triangles, count_triangles_dag, count_triangles_idorder,
    count_triangles_with, triangles_per_vertex, TcScratch,
};
pub use xmt_graph::IntersectStrategy;

use xmt_model::Recorder;
use xmt_par::Executor;
use xmt_trace::TraceSink;

/// How a `*_with` kernel call runs: where its parallel loops execute and
/// what it reports on the side.  `Ctx::default()` is the plain form's
/// behaviour — fixed executor, nothing recorded, nothing traced.
#[derive(Default)]
pub struct Ctx<'a> {
    /// Where and how the parallel loops run.  `Executor::fixed()` (the
    /// default) is the loop shape the cost model charges for; the native
    /// engine passes a guided executor, optionally on a pinned pool.
    pub exec: Executor,
    /// Model recorder charged with exact per-phase operation counts.
    pub rec: Option<&'a mut Recorder>,
    /// Wall-clock trace sink, one record per level / sweep.  A no-op
    /// when the `trace` feature is off.
    pub sink: Option<&'a mut TraceSink>,
}

impl<'a> Ctx<'a> {
    /// Default context on `exec`.
    pub fn on(exec: Executor) -> Self {
        Ctx {
            exec,
            ..Ctx::default()
        }
    }

    /// Default context charging operation counts to `rec`.
    pub fn recording(rec: &'a mut Recorder) -> Self {
        Ctx {
            rec: Some(rec),
            ..Ctx::default()
        }
    }

    /// Default context appending trace records to `sink`.
    pub fn tracing(sink: &'a mut TraceSink) -> Self {
        Ctx {
            sink: Some(sink),
            ..Ctx::default()
        }
    }
}
