//! Job execution: one spec in, one verdict out.
//!
//! The BSP engine runs the sliced runtime on the guided executor,
//! charging no cost model, and threads the scheduler's stop hook into
//! it, so cancellation and deadlines cut the run at a superstep boundary
//! and hand back a [`StoredCheckpoint`] instead of losing the work.  The
//! GraphCT engine serves the same kernels from the shared-memory
//! baseline — faster per job, but uninterruptible once started (no
//! superstep boundaries to cut at).

use std::sync::Arc;

use xmt_bsp::algorithms::bfs::BfsProgram;
use xmt_bsp::algorithms::components::CcProgram;
use xmt_bsp::algorithms::pagerank::PagerankProgram;
use xmt_bsp::algorithms::triangles::TcProgram;
use xmt_bsp::program::VertexProgram;
use xmt_bsp::runtime::Snapshot;
use xmt_bsp::{run, RunOptions, SlicedRun, StopHook, SuperstepFrame};
use xmt_graph::Csr;
use xmt_par::Executor;
use xmt_trace::TraceSink;

use crate::error::ServiceError;
use crate::job::{Algorithm, Engine, JobOutput, JobSpec, StoredCheckpoint, StoredFrame};

/// How a job run ended.
#[derive(Debug)]
// One verdict exists per run and the scheduler destructures it on
// receipt — it is never stored in bulk — so the variant-size spread
// (the warmed frame's buffer handles) is not worth an indirection.
#[expect(clippy::large_enum_variant, reason = "one per run, never stored")]
pub enum ExecVerdict {
    /// Ran to quiescence.
    Completed {
        /// The algorithm's output.
        output: JobOutput,
        /// Supersteps executed (0 for the GraphCT engine).
        supersteps: u64,
    },
    /// Interrupted (stop hook or superstep limit); resumable.
    Interrupted {
        /// Partial states + runtime checkpoint.
        checkpoint: StoredCheckpoint,
        /// The run's warmed superstep frame; a resume that hands it back
        /// continues without re-paying the warm-up allocations.
        frame: StoredFrame,
        /// Supersteps executed before the cut.
        supersteps: u64,
    },
}

/// Run `spec` on `graph`, optionally continuing `from` a checkpoint,
/// polling `stop` at superstep boundaries.  Per-superstep trace records
/// accumulate in `sink` (a no-op unless the `trace` feature is on).
///
/// `frame` optionally carries the warmed [`StoredFrame`] of the
/// interrupted run being resumed; a mismatched or absent frame just
/// means the run warms a fresh one (results are identical either way).
pub fn execute(
    spec: &JobSpec,
    graph: &Arc<Csr>,
    from: Option<StoredCheckpoint>,
    frame: Option<StoredFrame>,
    stop: StopHook<'_>,
    sink: &mut TraceSink,
) -> Result<ExecVerdict, ServiceError> {
    match spec.engine {
        Engine::Bsp => execute_bsp(spec, graph, from, frame, stop, sink),
        Engine::GraphCt => execute_graphct(spec, graph, from, sink),
        // Incremental jobs are answered at admission (the registry
        // captures the stinger-maintained state under the graph lock)
        // and short-circuited by the scheduler before reaching here.
        Engine::Incremental => Err(ServiceError::Internal {
            message: "incremental jobs are answered at admission; nothing to execute".to_string(),
        }),
    }
}

fn execute_bsp(
    spec: &JobSpec,
    graph: &Arc<Csr>,
    from: Option<StoredCheckpoint>,
    frame: Option<StoredFrame>,
    stop: StopHook<'_>,
    sink: &mut TraceSink,
) -> Result<ExecVerdict, ServiceError> {
    match spec.algorithm {
        Algorithm::Cc => {
            let from = match from {
                None => None,
                Some(StoredCheckpoint::Cc(states, resume)) => Some((states, resume)),
                Some(other) => return Err(checkpoint_mismatch(spec.algorithm, &other)),
            };
            let mut frame = match frame {
                Some(StoredFrame::Cc(f)) => f,
                _ => SuperstepFrame::new(),
            };
            let run = run_sliced(graph, &CcProgram, spec, from, stop, sink, &mut frame)?;
            Ok(verdict(
                run,
                JobOutput::Labels,
                StoredCheckpoint::Cc,
                StoredFrame::Cc(frame),
            ))
        }
        Algorithm::Bfs => {
            let from = match from {
                None => None,
                Some(StoredCheckpoint::Bfs(states, resume)) => Some((states, resume)),
                Some(other) => return Err(checkpoint_mismatch(spec.algorithm, &other)),
            };
            let program = BfsProgram {
                source: spec.source,
            };
            let mut frame = match frame {
                Some(StoredFrame::Bfs(f)) => f,
                _ => SuperstepFrame::new(),
            };
            let run = run_sliced(graph, &program, spec, from, stop, sink, &mut frame)?;
            Ok(verdict(
                run,
                |states| JobOutput::Bfs {
                    dist: states.iter().map(|s| s.dist).collect(),
                    parent: states.iter().map(|s| s.parent).collect(),
                },
                StoredCheckpoint::Bfs,
                StoredFrame::Bfs(frame),
            ))
        }
        Algorithm::Pagerank => {
            let from = match from {
                None => None,
                Some(StoredCheckpoint::Pagerank(states, resume)) => Some((states, resume)),
                Some(other) => return Err(checkpoint_mismatch(spec.algorithm, &other)),
            };
            let program = PagerankProgram {
                damping: spec.damping,
                tolerance: spec.tolerance,
            };
            let mut frame = match frame {
                Some(StoredFrame::Pagerank(f)) => f,
                _ => SuperstepFrame::new(),
            };
            let run = run_sliced(graph, &program, spec, from, stop, sink, &mut frame)?;
            Ok(verdict(
                run,
                JobOutput::Ranks,
                StoredCheckpoint::Pagerank,
                StoredFrame::Pagerank(frame),
            ))
        }
        Algorithm::Triangles => {
            let from = match from {
                None => None,
                Some(StoredCheckpoint::Triangles(states, resume)) => Some((states, resume)),
                Some(other) => return Err(checkpoint_mismatch(spec.algorithm, &other)),
            };
            let mut frame = match frame {
                Some(StoredFrame::Triangles(f)) => f,
                _ => SuperstepFrame::new(),
            };
            let run = run_sliced(graph, &TcProgram, spec, from, stop, sink, &mut frame)?;
            Ok(verdict(
                run,
                // Per-vertex confirmed-triangle tallies sum to the
                // global count (each triangle lands at its
                // lowest-ordered corner exactly once).
                |states| JobOutput::Triangles(states.iter().sum()),
                StoredCheckpoint::Triangles,
                StoredFrame::Triangles(frame),
            ))
        }
    }
}

fn run_sliced<P: VertexProgram>(
    graph: &Csr,
    program: &P,
    spec: &JobSpec,
    from: Option<Snapshot<P>>,
    stop: StopHook<'_>,
    sink: &mut TraceSink,
    frame: &mut SuperstepFrame<P::State, P::Message>,
) -> Result<SlicedRun<P::State, P::Message>, ServiceError> {
    let opts = RunOptions {
        config: spec.config,
        rec: None,
        from,
        stop: Some(stop),
        sink: Some(sink),
        frame: Some(frame),
        // Guided scheduling: decaying chunks back-fill RMAT hub skew.  The
        // fixed schedule is the loop shape the XMT cost model charges
        // for, which no job over the wire does, and on host time guided
        // is level with it or ahead (EXPERIMENTS.md, "Host-time knob
        // ablation").
        exec: Executor::guided(),
    };
    run(graph, program, opts).map_err(|e| ServiceError::Internal {
        message: e.to_string(),
    })
}

fn verdict<S, M>(
    run: SlicedRun<S, M>,
    output: impl FnOnce(Vec<S>) -> JobOutput,
    checkpoint: impl FnOnce(Vec<S>, xmt_bsp::ResumePoint<M>) -> StoredCheckpoint,
    frame: StoredFrame,
) -> ExecVerdict {
    let supersteps = run.result.supersteps;
    match run.resume {
        None => ExecVerdict::Completed {
            output: output(run.result.states),
            supersteps,
        },
        Some(resume) => ExecVerdict::Interrupted {
            checkpoint: checkpoint(run.result.states, resume),
            frame,
            supersteps,
        },
    }
}

fn checkpoint_mismatch(expected: Algorithm, found: &StoredCheckpoint) -> ServiceError {
    ServiceError::Internal {
        message: format!(
            "checkpoint algorithm mismatch: job is {}, checkpoint is {}",
            expected.name(),
            found.algorithm().name()
        ),
    }
}

fn execute_graphct(
    spec: &JobSpec,
    graph: &Arc<Csr>,
    from: Option<StoredCheckpoint>,
    sink: &mut TraceSink,
) -> Result<ExecVerdict, ServiceError> {
    if from.is_some() {
        return Err(ServiceError::Internal {
            message: "the graphct engine has no superstep boundaries and cannot resume \
                      a checkpoint; resubmit on the bsp engine"
                .to_string(),
        });
    }
    let output = match spec.algorithm {
        Algorithm::Cc => JobOutput::Labels(graphct::connected_components_with(
            graph,
            &mut graphct::Ctx::tracing(sink),
        )),
        Algorithm::Bfs => {
            let r = graphct::bfs_with(graph, spec.source, &mut graphct::Ctx::tracing(sink));
            JobOutput::Bfs {
                dist: r.dist,
                parent: r.parent,
            }
        }
        // Pagerank has no traced GraphCT variant (its per-iteration
        // profile is flat by construction); the job runs untraced.
        Algorithm::Pagerank => JobOutput::Ranks(graphct::pagerank(
            graph,
            graphct::pagerank::PagerankOptions {
                damping: spec.damping,
                tolerance: spec.tolerance,
                max_iterations: spec.config.max_supersteps as usize,
            },
        )),
        // One-shot kernel (no per-level structure to trace).  Honors the
        // job's intersection strategy (DAG-ordered sweep).
        Algorithm::Triangles => JobOutput::Triangles(graphct::count_triangles_with(
            graph,
            spec.intersect,
            &mut graphct::Ctx::default(),
        )),
    };
    Ok(ExecVerdict::Completed {
        output,
        supersteps: 0,
    })
}
