//! Superstep-boundary checkpoints: what an interrupted run persists,
//! what a resumed run validates before touching it, and the conversions
//! between a [`ResumePoint`] and the loop's live state.

use std::sync::atomic::{AtomicU64, Ordering};

use xmt_graph::VertexId;
use xmt_par::Executor;

use super::exchange::settle;
use super::frame::SuperstepFrame;
use super::{BspResult, Run};
use crate::inbox::Gathered;
use crate::program::VertexProgram;

/// A superstep-boundary checkpoint (Pregel §3.3: "fault tolerance is
/// achieved through checkpointing ... at the beginning of a superstep").
///
/// Captures everything besides the vertex states needed to continue a
/// computation: the superstep number, halt flags, in-flight messages,
/// the previous aggregates and whether those messages were gathered.
/// Every superstep boundary can be cut, whichever way its inbox was
/// built.  Pair it with the run's `states` and pass both as
/// [`RunOptions::from`](super::RunOptions::from).
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
    /// Set when the next superstep pulls: `pending` is the inbox the
    /// boundary gathered, and this is what the gather read.  The resumed
    /// superstep then scans, computes, charges and records as a pull
    /// one, and `Delivery::Auto` keeps its direction hysteresis.
    pub gathered: Option<Gathered>,
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
/// The runtime calls it once at each superstep boundary after the first
/// superstep (never inside `compute`); once it returns `true` the run is
/// cut at that boundary, whatever the next superstep's delivery, and the
/// partial result plus checkpoint are returned exactly as if
/// `max_supersteps` had interrupted the run.
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

/// Turn a [`validate`]d checkpoint of `states` back into the loop's live
/// state: the in-flight messages regrouped into the frame's live inbox
/// (before a bottom-up pull superstep, beside the settled bitmap its scan
/// reads), and the halt flags returned.
pub(super) fn restore<P: VertexProgram>(
    program: &P,
    exec: &Executor,
    frame: &mut SuperstepFrame<P::State, P::Message>,
    states: &[P::State],
    resume: &mut ResumePoint<P::Message>,
) -> Vec<AtomicU64> {
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
    // Only a pulling program is gathered: a settled-aware one bottom-up.
    if resume.gathered.is_some() && program.supports_bottom_up() {
        let settled = |v| program.is_settled(&states[v]);
        settle(exec, states.len(), &mut frame.dense_visited, settled);
    }
    let halted = resume.halted.iter();
    halted.map(|&h| AtomicU64::new(h as u64)).collect()
}

impl<P: VertexProgram> Run<'_, P> {
    /// Cut a checkpoint at the boundary before the superstep about to
    /// run: the halt flags and the live inbox's in-flight messages,
    /// materialized, and the gather that built that inbox if it pulls.
    pub(super) fn cut(&self) -> ResumePoint<P::Message> {
        ResumePoint {
            superstep: self.s,
            halted: self
                .halted
                .iter()
                // Relaxed: all stores preceded the final superstep's join.
                .map(|h| h.load(Ordering::Relaxed) == 1)
                .collect(),
            pending: self.frame.inbox.snapshot(),
            prev_aggregates: self.prev_agg,
            gathered: self.pulling,
        }
    }
}
