//! Superstep-boundary checkpoints: what an interrupted run persists,
//! what a resumed run validates before touching it, and the conversions
//! between a [`ResumePoint`] and the loop's live state.

use std::sync::atomic::{AtomicU64, Ordering};

use xmt_graph::VertexId;
use xmt_par::Executor;

use super::frame::SuperstepFrame;
use super::BspResult;
use crate::inbox::Inbox;
use crate::program::VertexProgram;

/// A superstep-boundary checkpoint (Pregel §3.3: "fault tolerance is
/// achieved through checkpointing ... at the beginning of a superstep").
///
/// Captures everything besides the vertex states needed to continue a
/// computation: the superstep number, halt flags, in-flight messages and
/// the previous aggregates.  Pair it with the run's `states` and pass
/// both as [`RunOptions::from`](super::RunOptions::from).
#[derive(Clone, Debug, PartialEq)]
pub struct ResumePoint<M> {
    /// The superstep the resumed run will execute next.
    pub superstep: u64,
    /// Halt flag per vertex.
    pub halted: Vec<bool>,
    /// Messages awaiting delivery in that superstep.
    pub pending: Vec<(VertexId, M)>,
    /// Aggregator totals of the superstep before the checkpoint.
    pub prev_aggregates: (u64, f64),
}

/// A running computation's persisted state: the vertex states plus the
/// runtime checkpoint.
pub type Snapshot<P> = (
    Vec<<P as VertexProgram>::State>,
    ResumePoint<<P as VertexProgram>::Message>,
);

/// A bounded slice of a BSP computation: the partial result plus, if the
/// superstep limit (or a stop hook) interrupted it, the checkpoint to
/// continue from.
#[derive(Clone, Debug)]
pub struct SlicedRun<S, M> {
    /// The (possibly partial) run outcome.
    pub result: BspResult<S>,
    /// Set iff the run was interrupted (superstep limit or stop hook)
    /// before quiescence.
    pub resume: Option<ResumePoint<M>>,
}

/// A cooperative stop signal polled at superstep boundaries, the hook a
/// job scheduler threads into a run for cancellation and deadlines.
///
/// The runtime calls it between supersteps (never inside `compute`);
/// once it returns `true` the run is cut at the next *push* boundary —
/// a boundary whose in-flight messages are materialized, which is what a
/// [`ResumePoint`] persists — and the partial result plus checkpoint are
/// returned exactly as if `max_supersteps` had interrupted the run.  At
/// most one extra superstep executes after the signal (a superstep that
/// was about to gather in pull mode runs, with pull disabled for its
/// successor, so the cut lands on a checkpointable boundary).
pub type StopHook<'a> = &'a (dyn Fn() -> bool + Sync);

/// Why a checkpoint was rejected by [`run`](super::run) before any
/// superstep ran.
///
/// A service worker resuming an untrusted or mismatched checkpoint gets
/// a typed error to fail the one job with, instead of a panic that would
/// take down the worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// `states.len()` does not match the graph's vertex count — the
    /// checkpoint is from a different graph.
    StateLengthMismatch {
        /// Vertices in the graph being resumed on.
        expected: u64,
        /// Length of the supplied state vector.
        found: u64,
    },
    /// `halted.len()` does not match the graph's vertex count.
    HaltedLengthMismatch {
        /// Vertices in the graph being resumed on.
        expected: u64,
        /// Length of the checkpoint's halt-flag vector.
        found: u64,
    },
    /// The checkpoint claims superstep 0, which checkpoints can never
    /// hold (they are cut *after* at least one superstep ran).
    SuperstepZero,
    /// A pending message addresses a vertex outside the graph.
    PendingOutOfRange {
        /// The offending destination.
        destination: VertexId,
        /// Vertices in the graph being resumed on.
        num_vertices: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::StateLengthMismatch { expected, found } => write!(
                f,
                "checkpoint from a different graph: {found} states for {expected} vertices"
            ),
            ResumeError::HaltedLengthMismatch { expected, found } => write!(
                f,
                "checkpoint from a different graph: {found} halt flags for {expected} vertices"
            ),
            ResumeError::SuperstepZero => {
                write!(f, "checkpoints start after superstep 0")
            }
            ResumeError::PendingOutOfRange {
                destination,
                num_vertices,
            } => write!(
                f,
                "pending message to vertex {destination} outside graph of {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Check that a checkpoint fits a graph of `n` vertices.
pub(super) fn validate<S, M>(
    n: usize,
    states: &[S],
    resume: &ResumePoint<M>,
) -> Result<(), ResumeError> {
    if states.len() != n {
        return Err(ResumeError::StateLengthMismatch {
            expected: n as u64,
            found: states.len() as u64,
        });
    }
    if resume.halted.len() != n {
        return Err(ResumeError::HaltedLengthMismatch {
            expected: n as u64,
            found: resume.halted.len() as u64,
        });
    }
    if resume.superstep < 1 {
        return Err(ResumeError::SuperstepZero);
    }
    if let Some(&(dst, _)) = resume.pending.iter().find(|&&(dst, _)| dst >= n as u64) {
        return Err(ResumeError::PendingOutOfRange {
            destination: dst,
            num_vertices: n as u64,
        });
    }
    Ok(())
}

/// Turn a [`validate`]d checkpoint back into the loop's live state: the
/// in-flight messages regrouped into the frame's live inbox, and
/// `(states, halt flags, previous aggregates)` returned.
pub(super) fn restore<P: VertexProgram>(
    program: &P,
    exec: &Executor,
    frame: &mut SuperstepFrame<P::State, P::Message>,
    (states, mut resume): Snapshot<P>,
) -> (Vec<P::State>, Vec<AtomicU64>, (u64, f64)) {
    // One deposit through the prepared collector: `pending` is ascending
    // by destination and in delivery order within one, and the rebuild
    // keeps deposit order, so the resumed superstep sees exactly what the
    // uninterrupted one would have.
    frame.collector.reset();
    frame.collector.deposit_from(0, 0, &mut resume.pending);
    super::exchange::regroup(
        program,
        &mut frame.inbox,
        exec,
        &frame.collector.collected(),
        &frame.bucket_cursors,
    );
    let halted = resume
        .halted
        .iter()
        .map(|&h| AtomicU64::new(h as u64))
        .collect();
    (states, halted, resume.prev_aggregates)
}

/// Cut a checkpoint at the boundary before `superstep`: the halt flags
/// and the live inbox's in-flight messages, materialized.
pub(super) fn cut<M: Copy + Send + Sync>(
    superstep: u64,
    halted: &[AtomicU64],
    inbox: &Inbox<M>,
    prev_aggregates: (u64, f64),
) -> ResumePoint<M> {
    ResumePoint {
        superstep,
        halted: halted
            .iter()
            // Relaxed: all stores preceded the final superstep's join.
            .map(|h| h.load(Ordering::Relaxed) == 1)
            .collect(),
        pending: inbox.snapshot(),
        prev_aggregates,
    }
}
