//! A discrete-event simulator of a Cray XMT Threadstorm machine.
//!
//! The paper's platform cannot be bought: the Cray XMT at PNNL had 128
//! Threadstorm processors at 500 MHz, 128 hardware streams per processor,
//! and a 1 TiB globally hashed shared memory with full/empty bits on
//! every word.  This crate reproduces the *mechanics* that drive the
//! paper's scalability results:
//!
//! * each processor issues at most **one instruction per cycle**, chosen
//!   round-robin from streams that are ready;
//! * memory operations have a long fixed latency, tolerated only when
//!   enough other streams have work (the machine needs ≈ latency-many
//!   active streams per processor to saturate);
//! * all requests to the **same word** are serialized at the memory
//!   (hotspotting — the reason a single fetch-and-add message queue does
//!   not scale, §VII of the paper);
//! * **full/empty bits** make `readfe`/`writeef` spin in hardware until
//!   the tag is in the required state;
//! * `int_fetch_add` is performed at the memory controller.
//!
//! Programs are [`Tasklet`]s — small op-stream state machines — scheduled
//! onto hardware [`machine::Machine`] streams.  The [`kernels`] module
//! contains the micro-benchmarks used to calibrate the analytic model in
//! the `xmt-model` crate ([`calibrate()`]).
//!
//! # Example
//!
//! ```
//! use xmt_sim::{Machine, MachineConfig, Op};
//! use xmt_sim::op::OpList;
//!
//! let mut m = Machine::new(MachineConfig::tiny());
//! // 16 streams each add 1 to the same word: an intentional hotspot.
//! m.spawn_n(16, |_| Box::new(OpList::new(vec![Op::FetchAdd(64, 1)])));
//! let stats = m.run(100_000);
//! assert!(!stats.hit_cycle_limit);
//! assert_eq!(m.memory().peek(64), 16);
//! // Serialization at the word: at least hotspot_interval cycles apart.
//! assert!(stats.cycles >= 16 * MachineConfig::tiny().hotspot_interval);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod calibrate;
pub mod config;
pub mod kernels;
pub mod machine;
pub mod memory;
pub mod op;
pub mod stats;

pub use calibrate::{calibrate, CalibratedConstants};
pub use config::MachineConfig;
pub use machine::Machine;
pub use op::{Op, Tasklet};
pub use stats::RunStats;
