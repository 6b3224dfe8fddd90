//! Property tests for superstep checkpointing: sliced runs must compose
//! to the uninterrupted result for any graph, any slice boundary and
//! every delivery (a cut before a pull superstep included), and panics
//! inside vertex programs must not poison the runtime.

use proptest::prelude::*;

use std::fmt::Debug;

use xmt_bsp_repro::bsp::algorithms::bfs::BfsProgram;
use xmt_bsp_repro::bsp::algorithms::components::CcProgram;
use xmt_bsp_repro::bsp::algorithms::pagerank::PagerankProgram;
use xmt_bsp_repro::bsp::algorithms::triangles::TcProgram;
use xmt_bsp_repro::bsp::runtime::{run, run_bsp, BspConfig, Delivery, RunOptions, SuperstepFrame};
use xmt_bsp_repro::bsp::{Context, VertexProgram};
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::{Csr, EdgeList};

fn arb_graph(max_n: u64, max_m: usize) -> impl Strategy<Value = EdgeList> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 1..max_m).prop_map(move |edges| EdgeList {
            num_vertices: n,
            edges,
        })
    })
}

/// The default config under each delivery: the limit then also cuts
/// boundaries before pull supersteps.
fn configs() -> [BspConfig; 3] {
    [Delivery::Push, Delivery::Pull, Delivery::Auto].map(|delivery| BspConfig {
        delivery,
        ..BspConfig::default()
    })
}

/// Run `prog` on `g` under `config` cut after `cut` supersteps, resume it
/// from the checkpoint, and require the same final states, superstep
/// count and stitched per-superstep stats as one uninterrupted run.  The
/// resume runs on a fresh frame, so it gets only what the checkpoint
/// holds: a run given no frame would take the spare one the first slice
/// left, scratch state included.
fn slices_compose<P>(g: &Csr, prog: &P, config: BspConfig, cut: u64)
where
    P: VertexProgram,
    P::State: PartialEq + Debug,
{
    let whole = run_bsp(g, prog, config, None);
    let first = run(
        g,
        prog,
        RunOptions {
            config: BspConfig {
                max_supersteps: cut,
                ..config
            },
            ..Default::default()
        },
    )
    .unwrap();
    let Some(ckpt) = first.resume else {
        // Finished before the cut.
        assert_eq!(first.result.states, whole.states);
        return;
    };
    let from = Some((first.result.states, ckpt));
    let second = run(
        g,
        prog,
        RunOptions {
            config,
            from,
            frame: Some(&mut SuperstepFrame::new()),
            ..Default::default()
        },
    )
    .expect("valid checkpoint");
    assert!(second.resume.is_none());
    assert_eq!(second.result.supersteps, whole.supersteps);
    assert_eq!(second.result.states, whole.states);
    let stats = [first.result.superstep_stats, second.result.superstep_stats].concat();
    assert_eq!(stats, whole.superstep_stats, "{config:?}, cut after {cut}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cc_slices_compose_for_any_boundary(el in arb_graph(40, 120), cut in 1u64..8) {
        // The integer-state programs the service resumes after a cut.
        let g = build_undirected(&el);
        for config in configs() {
            slices_compose(&g, &CcProgram, config, cut);
            slices_compose(&g, &BfsProgram { source: 0 }, config, cut);
            slices_compose(&g, &TcProgram, config, cut);
        }
    }

    #[test]
    fn pagerank_slices_compose(el in arb_graph(30, 90), cut in 1u64..48) {
        // The f64 L1-change aggregate decides when PageRank stops, so a
        // checkpoint that lost it would change the superstep count.
        // Ranks are positive, so `==` on them is bit identity.
        let g = build_undirected(&el);
        for config in configs() {
            slices_compose(&g, &PagerankProgram::default(), config, cut);
        }
    }
}

/// A vertex program that panics at a chosen vertex must surface the
/// panic to the caller without wedging the worker pool.
#[test]
fn panicking_program_propagates_and_pool_survives() {
    struct Bomb;
    impl VertexProgram for Bomb {
        type State = ();
        type Message = u64;
        fn init(&self, _v: u64) {}
        fn compute(&self, ctx: &mut Context<'_, u64>, _s: &mut (), _m: &[u64]) {
            if ctx.vertex() == 3 {
                panic!("boom at vertex 3");
            }
            ctx.vote_to_halt();
        }
    }
    let g = build_undirected(&xmt_bsp_repro::graph::gen::structured::path(8));
    let res = std::panic::catch_unwind(|| run_bsp(&g, &Bomb, BspConfig::default(), None));
    assert!(res.is_err(), "panic must propagate");

    // The global pool must still work afterwards.
    let labels = xmt_bsp_repro::graphct::connected_components(&g);
    assert!(labels.iter().all(|&l| l == 0));
}
