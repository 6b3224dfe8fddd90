//! Experiment harness: every table and figure of the reproduction.
//!
//! Every artifact in [`artifacts::ARTIFACTS`] follows the same recipe:
//! generate the paper's workload (an undirected scale-free RMAT graph),
//! run an algorithm pair (BSP and GraphCT-style shared memory) with
//! instrumentation, and map the recorded operation counts through the
//! calibrated XMT model to get time-at-P series.  The `repro` binary
//! runs them; see DESIGN.md §5 for the experiment index.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod alloc_count;
pub mod args;
pub mod artifacts;
pub mod output;
pub mod run;
pub mod sim_validate;
pub mod workload;

pub use args::HarnessConfig;
pub use output::Output;
pub use workload::{build_paper_graph, pick_bfs_source};

/// Paper reference numbers (128-processor Cray XMT, RMAT scale 24).
pub mod paper {
    /// Table I: BSP connected components, seconds.
    pub const CC_BSP_SECONDS: f64 = 5.40;
    /// Table I: GraphCT connected components, seconds.
    pub const CC_GRAPHCT_SECONDS: f64 = 1.31;
    /// Table I: BSP breadth-first search, seconds.
    pub const BFS_BSP_SECONDS: f64 = 3.12;
    /// Table I: GraphCT breadth-first search, seconds.
    pub const BFS_GRAPHCT_SECONDS: f64 = 0.310;
    /// Table I: BSP triangle counting, seconds.
    pub const TC_BSP_SECONDS: f64 = 444.0;
    /// Table I: GraphCT triangle counting, seconds.
    pub const TC_GRAPHCT_SECONDS: f64 = 47.4;
    /// §III: BSP connected components supersteps to converge.
    pub const CC_BSP_SUPERSTEPS: u64 = 13;
    /// §III: GraphCT connected components iterations.
    pub const CC_GRAPHCT_ITERATIONS: u64 = 6;
    /// §V: BSP candidate messages (possible triangles), scale 24.
    pub const TC_CANDIDATE_MESSAGES: f64 = 5.5e9;
    /// §V: actual triangles found, scale 24.
    pub const TC_TRIANGLES: f64 = 30.9e6;
    /// §V: BSP-to-shared-memory write ratio.
    pub const TC_WRITE_RATIO: f64 = 181.0;
}
