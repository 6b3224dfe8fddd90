//! A vertex-centric bulk synchronous parallel (BSP) graph framework —
//! the paper's primary contribution, re-built as a Rust library.
//!
//! The paper implements Pregel-style BSP *inside GraphCT on the Cray
//! XMT*, so that the shared-memory baseline and the BSP implementation
//! differ only in programming model.  This crate is that framework:
//!
//! * a [`VertexProgram`] trait — per-vertex `compute` over incoming
//!   messages, with `send_to` / `send_to_neighbors`, `vote_to_halt`, and
//!   aggregators (Pregel §3 semantics: a computation is a sequence of
//!   supersteps; messages sent in superstep *s* are received in *s + 1*;
//!   a vertex halts until a message reactivates it);
//! * a superstep [`runtime`] with two ways in: [`run_bsp`] runs a program
//!   to quiescence, and [`run`] is the one full-control form — its
//!   [`RunOptions`] carry the config, an optional model recorder, a
//!   checkpoint to resume from, a stop hook, a trace sink, a reusable
//!   [`SuperstepFrame`] and the [`xmt_par::Executor`] the loops run on
//!   (all optional; the default is `run_bsp`'s behaviour), and an
//!   interrupted run returns the [`ResumePoint`] that continues it;
//! * two message [`transport`] strategies — per-worker outboxes
//!   partitioned by destination and merged at the superstep boundary,
//!   and the naive single shared queue whose fetch-and-add cursor is the
//!   hotspot the paper warns about in §VII;
//! * the paper's three algorithms ([`algorithms::components`] = Alg. 1,
//!   [`algorithms::bfs`] = Alg. 2, [`algorithms::triangles`] = Alg. 3)
//!   plus a PageRank extension program;
//! * full instrumentation: per-superstep active counts, message counts
//!   and operation counts recorded for the XMT performance model.
//!
//! # Example: a minimum-label flood (connected components)
//!
//! ```
//! use xmt_bsp::{run_bsp, BspConfig, Combiner, Context, VertexProgram};
//! use xmt_bsp::program::MinCombiner;
//! use xmt_graph::builder::build_undirected;
//! use xmt_graph::gen::structured::ring;
//!
//! struct MinFlood;
//!
//! impl VertexProgram for MinFlood {
//!     type State = u64;
//!     type Message = u64;
//!
//!     fn init(&self, v: u64) -> u64 { v }
//!
//!     fn compute(&self, ctx: &mut Context<'_, u64>, label: &mut u64, msgs: &[u64]) {
//!         let better = msgs.iter().copied().min().filter(|&m| m < *label);
//!         if let Some(m) = better { *label = m; }
//!         if ctx.superstep() == 0 || better.is_some() {
//!             let l = *label;
//!             ctx.send_to_neighbors(l);          // arrives next superstep
//!         }
//!         ctx.vote_to_halt();                     // sleep until messaged
//!     }
//!
//!     fn combiner(&self) -> Option<&dyn Combiner<u64>> { Some(&MinCombiner) }
//! }
//!
//! let g = build_undirected(&ring(12));
//! let r = run_bsp(&g, &MinFlood, BspConfig::default(), None);
//! assert!(r.states.iter().all(|&l| l == 0));     // one component
//! assert!(r.supersteps >= 6);                    // min-label floods hop by hop
//!
//! // The full-control form: cut the same run after 3 supersteps, then
//! // continue it from the checkpoint to the same answer.
//! use xmt_bsp::{run, RunOptions};
//! let config = BspConfig { max_supersteps: 3, ..BspConfig::default() };
//! let cut = run(&g, &MinFlood, RunOptions { config, ..Default::default() }).unwrap();
//! let checkpoint = cut.resume.expect("interrupted by the limit");
//! let from = Some((cut.result.states, checkpoint));
//! let rest = run(&g, &MinFlood, RunOptions { from, ..Default::default() }).unwrap();
//! assert_eq!(rest.result.states, r.states);
//! assert_eq!(rest.result.supersteps, r.supersteps);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod algorithms;
pub mod inbox;
pub mod program;
pub mod runtime;
pub mod transport;

pub use inbox::Inbox;
pub use program::{Combiner, Context, VertexProgram};
pub use runtime::{
    run, run_bsp, ActiveSetStrategy, BspConfig, BspResult, Delivery, ResumeError, ResumePoint,
    RunOptions, SlicedRun, StopHook, SuperstepFrame,
};
pub use transport::Transport;
pub use xmt_trace::{JobTrace, SuperstepTrace, TraceSink};
