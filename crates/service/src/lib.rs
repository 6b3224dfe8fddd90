//! A long-running graph-analytics service over the BSP runtime.
//!
//! The distributed-graph-processing literature the paper draws on
//! (Pregel and its successors) treats graph analytics as a *service*:
//! load a graph once, then answer many queries against it.  This crate
//! is that deployment shape for this repo's engines — a graph
//! **registry** (named [`Csr`](xmt_graph::Csr) entries under a memory
//! budget with LRU eviction), a **bounded job scheduler** (fixed worker
//! pool, priority/FIFO queue, admission control, deadlines, cooperative
//! cancellation that reuses the BSP checkpoint machinery), and a
//! newline-delimited JSON **wire protocol** served over plain TCP with
//! no external dependencies.
//!
//! Interrupted work is never lost: cancelling or timing out a BSP job
//! cuts it at a superstep boundary into a [`StoredCheckpoint`], and a
//! `resume` request continues it exactly where it stopped.  Superstep
//! frames belong to the scheduler's workers, not to jobs: a busy worker
//! keeps the frame of its last BSP run in a [`FrameSlot`], so its next
//! queued job of the same program and vertex count starts on warm
//! buffers, and an idle worker holds none.
//!
//! Graphs registered with `dynamic: true` additionally accept `update`
//! batches (edge inserts/deletes) while analytics jobs run: each job is
//! admitted against an immutable epoch snapshot (see [`streaming`]), and
//! the `incremental` engine answers `cc`/`triangles` straight from the
//! stinger-maintained state without recomputing.
//!
//! Layering:
//!
//! ```text
//! bin/serve, bin/client
//!        │
//!   server (TCP framing)  ←  protocol (wire ⇄ Request/Content)
//!        │
//!    Service  =  GraphRegistry + Scheduler
//!                                  │
//!                               engine  →  xmt_bsp::run / graphct::*_with
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod client;
pub mod engine;
pub mod error;
pub mod job;
pub mod protocol;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod stats;
pub mod streaming;

/// The service's lock ranks, outermost first: a thread may take a lock
/// only while everything it holds ranks strictly lower (`parking_lot`
/// stand-in, checked at every `lock()` in debug builds).  The nestings
/// that occur are `state → inner` (`update` re-costs its batch under
/// the graph's lock) and `queue → jobs → series` (admission registers
/// the job; completion records its latency).  Every other mutex in the
/// workspace is a leaf (`Mutex::new`): nothing is taken under it.
mod rank {
    pub(crate) const STATE: u32 = 10;
    pub(crate) const INNER: u32 = 20;
    pub(crate) const QUEUE: u32 = 30;
    pub(crate) const JOBS: u32 = 40;
    pub(crate) const SERIES: u32 = 50;
}

pub use client::Client;
pub use engine::{execute, ExecVerdict, FrameSlot};
pub use error::ServiceError;
pub use job::{Algorithm, Engine, JobGraph, JobId, JobOutput, JobSpec, JobState, StoredCheckpoint};
pub use protocol::{parse_request, GraphSpec, Request};
pub use registry::{GraphEntryInfo, GraphRegistry, RegistryStats};
pub use scheduler::{JobSnapshot, Scheduler, SchedulerConfig, SchedulerStats};
pub use server::{Server, Service, ServiceConfig};
pub use stats::{LatencyBook, LatencyHistogram, LatencySummary};
pub use streaming::{edge_ops, UpdateOutcome};
