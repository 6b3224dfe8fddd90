//! XMT-style shared-memory parallel runtime.
//!
//! The Cray XMT tolerates memory latency with massive hardware
//! multithreading and exposes loop-level parallelism plus a small set of
//! synchronization primitives: atomic `int_fetch_add`, and full/empty bits
//! on every memory word (`readfe`, `writeef`, `readff`).  This crate
//! provides the software equivalents of the first two, used by both the
//! shared-memory (GraphCT-style) and BSP implementations in this
//! workspace, so that the two programming models run on an identical
//! substrate — exactly the experimental setup of the paper.  (Full/empty
//! bits are modelled where the machine is, in `xmt-sim`; no kernel here
//! needs them.)
//!
//! Provided primitives:
//!
//! * [`Pool`] — a caller-runs fork-join pool: the thread that starts a
//!   loop works on it as worker 0 and persistent helpers join while it
//!   lasts; a pool that is already busy runs a second loop on its caller
//!   alone.  [`global`] returns the process-wide instance.
//! * [`parallel_for`] / [`parallel_for_chunked`] — dynamically chunked
//!   loop parallelism over an index range (the XMT compiler's `#pragma mta
//!   assert parallel` analogue).
//! * [`Executor`] — a pool + schedule handle ([`Schedule::Fixed`] static
//!   chunks, or [`Schedule::Guided`] decaying chunks for skewed work)
//!   that the BSP runtime and GraphCT kernels are parameterized over.
//! * [`mod@reduce`] and [`scan`] — parallel reductions and prefix sums.
//! * [`atomic`] — the atomic minimum of label-update kernels, a one-shot
//!   claim, and an atomic view of a `u64` slice.
//! * [`DisjointSlice`] — one `&mut [T]` the tasks of a loop share, each
//!   writing only the parts it owns.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // A self-scheduled parallel loop with an atomic reduction — the
//! // canonical XMT kernel shape.
//! let data: Vec<u64> = (0..10_000).collect();
//! let sum = AtomicU64::new(0);
//! xmt_par::parallel_for(0, data.len(), |i| {
//!     if data[i] % 3 == 0 {
//!         sum.fetch_add(data[i], Ordering::Relaxed);
//!     }
//! });
//! let expect: u64 = (0..10_000).filter(|x| x % 3 == 0).sum();
//! assert_eq!(sum.load(Ordering::Relaxed), expect);
//!
//! // Or as a proper reduction without the shared counter:
//! let sum2 = xmt_par::reduce::sum_u64(0, data.len(), |i| {
//!     if data[i] % 3 == 0 { data[i] } else { 0 }
//! });
//! assert_eq!(sum2, expect);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod atomic;
pub mod disjoint;
pub mod exec;
pub mod pfor;
pub mod pool;
pub mod reduce;
pub mod scan;
pub mod scratch;

pub use disjoint::DisjointSlice;
pub use exec::{Executor, Schedule};
pub use pfor::{parallel_for, parallel_for_chunked};
pub use pool::{global, Pool};
pub use reduce::reduce;
pub use scan::{exclusive_prefix_sum, exclusive_prefix_sum_seq};
pub use scratch::{CachePadded, MarkScratch, WorkerScratch};

/// Number of workers in the global pool.
pub fn num_threads() -> usize {
    global().num_workers()
}
