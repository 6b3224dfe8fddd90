//! A panic inside `compute` unwinds out of `run` on the calling thread —
//! whichever pool worker hit it — and leaves the pool usable: the next
//! run on the same pool, with a fresh frame, reaches the reference
//! answer.  (The frame the failed run borrowed is not reused; the
//! service drops it with the job.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use xmt_bsp::algorithms::components::CcProgram;
use xmt_bsp::program::{Combiner, Context, VertexProgram};
use xmt_bsp::{run, RunOptions, SuperstepFrame};
use xmt_graph::builder::build_undirected;
use xmt_graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_graph::validate::reference_components;
use xmt_graph::VertexId;
use xmt_par::{Executor, Pool};

/// Algorithm 1, except that `victim` panics in superstep 1.
struct PanickingCc {
    victim: VertexId,
}

impl VertexProgram for PanickingCc {
    type State = VertexId;
    type Message = VertexId;

    fn init(&self, v: VertexId) -> VertexId {
        CcProgram.init(v)
    }

    fn compute(&self, ctx: &mut Context<'_, VertexId>, label: &mut VertexId, msgs: &[VertexId]) {
        if ctx.superstep() == 1 && ctx.vertex() == self.victim {
            panic!("injected compute failure on vertex {}", self.victim);
        }
        CcProgram.compute(ctx, label, msgs)
    }

    fn combiner(&self) -> Option<&dyn Combiner<VertexId>> {
        CcProgram.combiner()
    }
}

#[test]
fn compute_panic_unwinds_and_the_pool_runs_the_next_job() {
    let g = build_undirected(&rmat_edges(&RmatParams::graph500(10), 5));
    let reference = reference_components(&g);
    // Vertices with neighbours receive labels, so they compute in
    // superstep 1; one near each end of the id range lands the panic in
    // an early and in a late chunk.
    let connected: Vec<VertexId> = (0..g.num_vertices()).filter(|&v| g.degree(v) > 0).collect();
    let victims = [connected[0], connected[connected.len() - 1]];
    for workers in [2, 4] {
        let pool = Arc::new(Pool::new(workers));
        for exec in [
            Executor::fixed_on(Arc::clone(&pool)),
            Executor::guided_on(Arc::clone(&pool)),
        ] {
            for victim in victims {
                let failed = catch_unwind(AssertUnwindSafe(|| {
                    run(
                        &g,
                        &PanickingCc { victim },
                        RunOptions {
                            exec: exec.clone(),
                            ..Default::default()
                        },
                    )
                }));
                assert!(failed.is_err(), "{workers} workers, victim {victim}");

                let mut frame = SuperstepFrame::new();
                let ok = run(
                    &g,
                    &CcProgram,
                    RunOptions {
                        exec: exec.clone(),
                        frame: Some(&mut frame),
                        ..Default::default()
                    },
                )
                .expect("cc after a contained panic");
                assert_eq!(ok.result.states, reference, "{workers} workers");
            }
        }
    }
}
