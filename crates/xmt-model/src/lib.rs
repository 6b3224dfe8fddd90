//! Analytic Cray XMT performance model and phase instrumentation.
//!
//! The reproduction strategy (see DESIGN.md §3): algorithms in `graphct`
//! and `xmt-bsp` execute *for real* on the host and record exact
//! per-iteration operation counts ([`PhaseCounts`] in a [`Recorder`]);
//! this crate maps those counts to execution time on a simulated XMT at
//! any processor count.  The mapping's constants are calibrated against
//! the discrete-event simulator in `xmt-sim`.
//!
//! For a phase with `n` parallel items, `w_alu` ALU operations, `w_mem`
//! memory references, `h` operations on the single most contended word,
//! and `B` barriers, the predicted time at `P` processors with `S`
//! streams each is
//!
//! ```text
//! k        = min(n, P·S)                    concurrency
//! f_mem    = w_mem / (w_alu + w_mem)
//! rate_1   = 1 / (1 + f_mem·(λ − 1))        one stream, instr/cycle
//! rate_all = min(P·ipc_alu, k·rate_1)
//! T        = max((w_alu + w_mem)/rate_all, h·c_hot) + B·(c_b0 + c_b1·P)
//! ```
//!
//! which captures the three phenomena the paper's figures hinge on:
//! saturation requires ≈λ streams of parallelism per processor (flat
//! scaling for small frontiers), hotspot fetch-and-adds serialize, and
//! barriers charge per superstep.
//!
//! # Example
//!
//! ```
//! use xmt_model::{ModelParams, PhaseCounts};
//!
//! let model = ModelParams::default(); // the PNNL XMT, calibrated
//!
//! // A memory-rich phase with a million-way parallelism...
//! let mut big = PhaseCounts::with_items(1_000_000);
//! big.reads = 4_000_000;
//! // ...scales linearly from 8 to 128 processors:
//! let speedup = big.predict_seconds(&model, 8) / big.predict_seconds(&model, 128);
//! assert!((speedup - 16.0).abs() < 0.5);
//!
//! // The same traffic with only 64-way parallelism is flat:
//! let mut small = PhaseCounts::with_items(64);
//! small.reads = 4_000_000;
//! let speedup = small.predict_seconds(&model, 8) / small.predict_seconds(&model, 128);
//! assert!(speedup < 1.05);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod cluster;
pub mod exchange;
pub mod params;
pub mod phase;
pub mod record;
pub mod series;

pub use cluster::{predict_cluster_seconds, ClusterParams};
pub use exchange::{charge_pull_exchange, charge_pull_gather, charge_push_exchange, ExchangeKind};
pub use params::ModelParams;
pub use phase::PhaseCounts;
pub use record::{PhaseRecord, Recorder};
pub use series::{predict_record_seconds, predict_total_seconds, scaling_series, StepTime};
