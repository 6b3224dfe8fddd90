//! Job execution: one spec in, one verdict out.
//!
//! The BSP engine runs the sliced runtime on the guided executor,
//! charging no cost model, and threads the scheduler's stop hook into
//! it, so cancellation and deadlines cut the run at a superstep boundary
//! and hand back a [`StoredCheckpoint`] instead of losing the work.  Every
//! BSP program goes through one generic path, which borrows its
//! [`SuperstepFrame`] from the calling worker's [`FrameSlot`], so a busy
//! worker's next job of the same shape starts on warm buffers.  The
//! GraphCT engine serves the same kernels from the shared-memory
//! baseline — faster per job, but uninterruptible once started (no
//! superstep boundaries to cut at).

use std::any::Any;
use std::sync::Arc;

use xmt_bsp::algorithms::bfs::BfsProgram;
use xmt_bsp::algorithms::components::CcProgram;
use xmt_bsp::algorithms::pagerank::PagerankProgram;
use xmt_bsp::algorithms::triangles::TcProgram;
use xmt_bsp::program::VertexProgram;
use xmt_bsp::runtime::Snapshot;
use xmt_bsp::{run, RunOptions, StopHook, SuperstepFrame};
use xmt_graph::Csr;
use xmt_par::Executor;
use xmt_trace::TraceSink;

use crate::error::ServiceError;
use crate::job::{Algorithm, Engine, JobOutput, JobSpec, StoredCheckpoint};

/// How a job run ended.
#[derive(Debug)]
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
        /// Supersteps executed before the cut.
        supersteps: u64,
    },
}

/// One scheduler worker's warmed [`SuperstepFrame`] and the vertex count
/// it was shaped for, type-erased so the worker can hold whichever
/// program's frame it ran last.  A BSP run takes the frame if its
/// program's `(State, Message)` types and its graph's vertex count match,
/// and drops it otherwise; it puts its frame back only when the run
/// returns, so a run that panics leaves the slot empty.  A worker that
/// finds the scheduler's queue empty drops its frame.
pub type FrameSlot = Option<(u64, Box<dyn Any + Send>)>;

/// Run `spec` on `graph`, optionally continuing `from` a checkpoint,
/// polling `stop` at superstep boundaries.  Per-superstep trace records
/// accumulate in `sink` (a no-op unless the `trace` feature is on).
///
/// A BSP run borrows its frame from `slot` and leaves it there for the
/// next call; `None` leaves the frame to the runtime, which keeps a
/// bounded set of spare frames for runs that bring none.
pub fn execute(
    spec: &JobSpec,
    graph: &Arc<Csr>,
    from: Option<StoredCheckpoint>,
    slot: Option<&mut FrameSlot>,
    stop: StopHook<'_>,
    sink: &mut TraceSink,
) -> Result<ExecVerdict, ServiceError> {
    fits_tc_ids(spec, graph.num_vertices())?;
    match spec.engine {
        Engine::Bsp => {
            let job = BspJob {
                spec,
                graph,
                from,
                slot,
                stop,
                sink,
            };
            match spec.algorithm {
                Algorithm::Cc => job.run_program(&CcProgram, JobOutput::Labels),
                Algorithm::Bfs => job.run_program(
                    &BfsProgram {
                        source: spec.source,
                    },
                    |states| JobOutput::Bfs {
                        dist: states.iter().map(|s| s.dist).collect(),
                        parent: states.iter().map(|s| s.parent).collect(),
                    },
                ),
                Algorithm::Pagerank => job.run_program(
                    &PagerankProgram {
                        damping: spec.damping,
                        tolerance: spec.tolerance,
                    },
                    JobOutput::Ranks,
                ),
                // Per-vertex confirmed-triangle tallies sum to the global
                // count (each triangle lands at its lowest-ordered corner
                // exactly once).
                Algorithm::Triangles => job.run_program(&TcProgram, |states| {
                    JobOutput::Triangles(states.iter().sum())
                }),
            }
        }
        Engine::GraphCt => execute_graphct(spec, graph, from, sink),
        // Incremental jobs are answered at admission (the registry
        // captures the stinger-maintained state under the graph lock)
        // and short-circuited by the scheduler before reaching here.
        Engine::Incremental => Err(ServiceError::Internal {
            message: "incremental jobs are answered at admission; nothing to execute".to_string(),
        }),
    }
}

/// Refuse a triangle job on a graph of `n` vertices past 32-bit ids
/// before any work starts: BSP candidates carry vertex ids in 32 bits
/// and GraphCT's rank DAG carries degree ranks in 32 bits.
fn fits_tc_ids(spec: &JobSpec, n: u64) -> Result<(), ServiceError> {
    if spec.algorithm != Algorithm::Triangles || n <= TcProgram::MAX_VERTICES {
        return Ok(());
    }
    Err(ServiceError::BadRequest {
        message: format!(
            "triangle counting carries vertex ids in 32 bits on every engine; the graph has \
             {n} vertices (at most {})",
            TcProgram::MAX_VERTICES
        ),
    })
}

/// [`execute`]'s arguments on the BSP engine, minus the program.
struct BspJob<'a> {
    spec: &'a JobSpec,
    graph: &'a Csr,
    from: Option<StoredCheckpoint>,
    slot: Option<&'a mut FrameSlot>,
    stop: StopHook<'a>,
    sink: &'a mut TraceSink,
}

impl BspJob<'_> {
    /// Run `program` and map its final states through `output`.
    fn run_program<P>(
        self,
        program: &P,
        output: impl FnOnce(Vec<P::State>) -> JobOutput,
    ) -> Result<ExecVerdict, ServiceError>
    where
        P: VertexProgram,
        P::State: 'static,
        P::Message: 'static,
    {
        let algorithm = self.spec.algorithm;
        // The tag first: it names the algorithm, which the snapshot's
        // type alone would not if two programs shared `(State, Message)`
        // types (none do today); the downcast then checks the type.
        let from = match self.from {
            None => None,
            Some(cp) => {
                let tagged = (cp.algorithm == algorithm).then_some(cp.snapshot);
                let Some(Ok(snapshot)) = tagged.map(|s| s.downcast::<Snapshot<P>>()) else {
                    return Err(ServiceError::Internal {
                        message: format!(
                            "checkpoint algorithm mismatch: job is {}, checkpoint is {}",
                            algorithm.name(),
                            cp.algorithm.name()
                        ),
                    });
                };
                Some(*snapshot)
            }
        };
        let n = self.graph.num_vertices();
        let mut slot = self.slot;
        // Without a slot the runtime picks the frame (a spare one it
        // kept from an earlier run, or a fresh one).
        let mut frame = slot.as_deref_mut().map(|slot| {
            slot.take()
                .filter(|(held_n, _)| *held_n == n)
                .and_then(|(_, held)| held.downcast::<SuperstepFrame<P::State, P::Message>>().ok())
                .map_or_else(SuperstepFrame::new, |frame| *frame)
        });
        let opts = RunOptions {
            config: self.spec.config,
            rec: None,
            from,
            stop: Some(self.stop),
            sink: Some(self.sink),
            frame: frame.as_mut(),
            // Guided scheduling: decaying chunks back-fill RMAT hub skew.
            // The fixed schedule is the loop shape the XMT cost model
            // charges for, which no job over the wire does, and on host
            // time guided is level with it or ahead (EXPERIMENTS.md,
            // "Host-time knob ablation").
            exec: Executor::guided(),
        };
        let run = run(self.graph, program, opts).map_err(|e| ServiceError::Internal {
            message: e.to_string(),
        })?;
        if let (Some(slot), Some(frame)) = (slot, frame) {
            *slot = Some((n, Box::new(frame)));
        }
        let supersteps = run.result.supersteps;
        Ok(match run.resume {
            None => ExecVerdict::Completed {
                output: output(run.result.states),
                supersteps,
            },
            Some(resume) => ExecVerdict::Interrupted {
                checkpoint: StoredCheckpoint {
                    algorithm,
                    superstep: resume.superstep,
                    snapshot: Box::new((run.result.states, resume)),
                },
                supersteps,
            },
        })
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

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use xmt_bsp::algorithms::bfs::BfsState;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{clique, path};
    use xmt_graph::VertexId;

    use super::*;

    #[test]
    fn graphct_triangle_jobs_on_one_graph_share_its_rank_dag() {
        // The registry hands every job on a static graph the same CSR, so
        // the DAG the first triangle job builds serves the next; a new
        // epoch's snapshot is a new CSR and builds its own.
        let reg = crate::registry::GraphRegistry::new(0);
        reg.register("s", build_undirected(&clique(5))).unwrap();
        reg.register_dynamic("d", build_undirected(&clique(5)))
            .unwrap();
        let tc = JobSpec {
            engine: Engine::GraphCt,
            ..spec(Algorithm::Triangles)
        };
        let job = |name: &str, want: u64| {
            let admitted = reg.admit(name, Algorithm::Triangles, Engine::GraphCt);
            let csr = admitted.unwrap().csr.unwrap();
            let verdict = execute(&tc, &csr, None, None, &|| false, &mut TraceSink::new());
            let Ok(ExecVerdict::Completed { output, .. }) = verdict else {
                panic!("{verdict:?}");
            };
            assert_eq!(output, JobOutput::Triangles(want));
            csr
        };
        let (first, second) = (job("s", 10), job("s", 10));
        assert!(std::ptr::eq(first.rank_dag(), second.rank_dag()));
        let (old, same) = (job("d", 10), job("d", 10));
        assert!(std::ptr::eq(old.rank_dag(), same.rank_dag()));
        reg.update("d", &[], &[(0, 1)]).unwrap();
        let new = job("d", 7);
        assert!(!std::ptr::eq(old.rank_dag(), new.rank_dag()));
        assert_eq!(*new.rank_dag(), xmt_graph::ops::RankDag::new(&new));
    }

    fn spec(algorithm: Algorithm) -> JobSpec {
        JobSpec {
            algorithm,
            engine: Engine::Bsp,
            graph: "p".to_string(),
            source: 0,
            damping: 0.85,
            tolerance: 1e-7,
            intersect: xmt_graph::IntersectStrategy::Hash,
            config: xmt_bsp::BspConfig::default(),
            priority: 0,
            deadline_ms: None,
        }
    }

    #[test]
    fn the_slot_holds_the_last_runs_frame_and_its_vertex_count() {
        let mut slot: FrameSlot = None;
        let held = |slot: &FrameSlot| {
            let (n, frame) = slot.as_ref().expect("a finished run left no frame");
            let cc = frame.is::<SuperstepFrame<u64, VertexId>>();
            let bfs = frame.is::<SuperstepFrame<BfsState, (u64, VertexId)>>();
            let tc = frame.is::<SuperstepFrame<u64, u32>>();
            (*n, cc, bfs, tc)
        };
        for (n, algorithm, expect) in [
            (64, Algorithm::Cc, (64, true, false, false)),
            (64, Algorithm::Bfs, (64, false, true, false)),
            (65, Algorithm::Triangles, (65, false, false, true)),
            (65, Algorithm::Cc, (65, true, false, false)),
        ] {
            let g = Arc::new(build_undirected(&path(n)));
            execute(
                &spec(algorithm),
                &g,
                None,
                Some(&mut slot),
                &|| false,
                &mut TraceSink::new(),
            )
            .unwrap();
            assert_eq!(held(&slot), expect, "after {algorithm:?} on {n} vertices");
        }
    }

    #[test]
    fn a_panicking_run_leaves_the_slot_empty() {
        let g = Arc::new(build_undirected(&path(64)));
        let mut slot: FrameSlot = None;
        let cc = spec(Algorithm::Cc);
        execute(
            &cc,
            &g,
            None,
            Some(&mut slot),
            &|| false,
            &mut TraceSink::new(),
        )
        .unwrap();
        assert!(slot.is_some());
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let hook = || -> bool { panic!("stop hook failure") };
            execute(&cc, &g, None, Some(&mut slot), &hook, &mut TraceSink::new())
        }));
        assert!(panicked.is_err(), "the hook did not panic");
        assert!(slot.is_none(), "a panicked run's frame went back");
    }

    #[test]
    fn a_checkpoint_resumes_only_the_algorithm_that_left_it() {
        let g = Arc::new(build_undirected(&path(64)));
        let cut = |algorithm| match execute(
            &spec(algorithm),
            &g,
            None,
            None,
            &|| true,
            &mut TraceSink::new(),
        ) {
            Ok(ExecVerdict::Interrupted { checkpoint, .. }) => checkpoint,
            other => panic!("{algorithm:?} was not cut: {other:?}"),
        };
        let tc = spec(Algorithm::Triangles);
        let refused = |checkpoint| match execute(
            &tc,
            &g,
            Some(checkpoint),
            None,
            &|| false,
            &mut TraceSink::new(),
        ) {
            Err(ServiceError::Internal { message }) => {
                assert!(
                    message.contains("job is triangles, checkpoint is cc"),
                    "{message}"
                );
            }
            other => panic!("expected a mismatch, got {other:?}"),
        };
        // CC's checkpoint, on a triangle job.
        refused(cut(Algorithm::Cc));
        // A triangle snapshot tagged as CC's: its type fits the job, so
        // only the tag refuses it.
        let mut retagged = cut(Algorithm::Triangles);
        assert!(retagged.snapshot.is::<Snapshot<TcProgram>>());
        retagged.algorithm = Algorithm::Cc;
        refused(retagged);
        let cc = spec(Algorithm::Cc);
        let resumed = execute(
            &cc,
            &g,
            Some(cut(Algorithm::Cc)),
            None,
            &|| false,
            &mut TraceSink::new(),
        );
        match resumed {
            Ok(ExecVerdict::Completed {
                output: JobOutput::Labels(labels),
                ..
            }) => assert!(labels.iter().all(|&l| l == 0)),
            other => panic!("resume did not complete: {other:?}"),
        }
    }

    #[test]
    fn triangle_ids_past_32_bits_are_a_bad_request() {
        assert_eq!(TcProgram::MAX_VERTICES - 1, u64::from(u32::MAX));
        for engine in [Engine::Bsp, Engine::GraphCt] {
            let tc = JobSpec {
                engine,
                ..spec(Algorithm::Triangles)
            };
            assert!(fits_tc_ids(&tc, TcProgram::MAX_VERTICES).is_ok());
            let err = fits_tc_ids(&tc, TcProgram::MAX_VERTICES + 1).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{engine:?}");
            assert!(err.to_string().contains("4294967297 vertices"), "{err}");
            assert!(!err.to_string().contains("graphct"), "{err}");
            let cc = JobSpec {
                engine,
                ..spec(Algorithm::Cc)
            };
            assert!(fits_tc_ids(&cc, TcProgram::MAX_VERTICES + 1).is_ok());
        }
    }
}
