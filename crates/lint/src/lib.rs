//! A dependency-free static-analysis pass for this workspace's
//! concurrency discipline.
//!
//! The paper's argument rests on fine-grained synchronization done
//! right (GraphCT's `int_fetch_add` and full/empty bits vs. BSP's
//! barriers), and the reproduction carries the same hazard surface:
//! `unsafe` scatter loops, `Ordering::Relaxed` counters, and a
//! long-lived service's locks.  This crate makes the discipline around those
//! sites machine-checked instead of reviewer-checked:
//!
//! * [`lexer`] — a hand-rolled line-oriented Rust lexer (comments,
//!   strings, raw strings, char literals/lifetimes);
//! * [`model`] — per-file structure: test spans, function spans, and
//!   the `lint:allow(<rule>): <reason>` escape hatch;
//! * [`rules`] — the per-file rules plus workspace-rule metadata;
//! * [`workspace`] — whole-workspace lock facts: declared locks and
//!   condvars, `lint:order` chains, and per-function events (locks
//!   acquired, guards held, condvar waits, calls);
//! * [`callgraph`] — the cross-crate call graph, transitive held-lock
//!   propagation, the global lock-order graph, and its rules
//!   (`lock-order-cycle`, `wait-while-holding`, `guard-across-call`,
//!   `lock-order-undeclared`);
//! * [`engine`] — the workspace walker and summary.
//!
//! Run it as `cargo run -p xmt-lint --release`; it exits nonzero when
//! any error-severity finding survives suppression.  See DESIGN.md
//! ("Static analysis & concurrency discipline" and "Inter-procedural
//! lock-order analysis") for each rule's rationale.

pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod workspace;
