use std::sync::atomic::Ordering;

use super::*;
use crate::program::{Combiner, Context, MinCombiner};
use xmt_graph::builder::build_undirected;
use xmt_graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_graph::gen::structured::{path, star};
use xmt_graph::VertexId;

/// Flood the minimum vertex id: a miniature connected-components
/// program used to exercise the engine.
struct MinFlood;

impl VertexProgram for MinFlood {
    type State = u64;
    type Message = u64;

    fn init(&self, v: VertexId) -> u64 {
        v
    }

    fn compute(&self, ctx: &mut Context<'_, u64>, state: &mut u64, msgs: &[u64]) {
        let mut improved = ctx.superstep() == 0;
        for &m in msgs {
            if m < *state {
                *state = m;
                improved = true;
            }
        }
        if improved {
            let s = *state;
            ctx.send_to_neighbors(s);
        }
        ctx.vote_to_halt();
    }

    fn combiner(&self) -> Option<&dyn Combiner<u64>> {
        Some(&MinCombiner)
    }
}

/// The default config cut after `max_supersteps` supersteps.
fn limit(max_supersteps: u64) -> BspConfig {
    BspConfig {
        max_supersteps,
        ..Default::default()
    }
}

/// A pull-capable min-flood without a settled predicate: Auto uses
/// the density rule (pull at half the vertices) for it.
struct PullFlood;
impl VertexProgram for PullFlood {
    type State = u64;
    type Message = u64;
    fn init(&self, v: VertexId) -> u64 {
        v
    }
    fn compute(&self, ctx: &mut Context<'_, u64>, state: &mut u64, msgs: &[u64]) {
        let mut improved = ctx.superstep() == 0;
        for &m in msgs {
            if m < *state {
                *state = m;
                improved = true;
            }
        }
        if improved {
            let s = *state;
            ctx.send_to_neighbors(s);
        }
        ctx.vote_to_halt();
    }
    fn combiner(&self) -> Option<&dyn Combiner<u64>> {
        Some(&MinCombiner)
    }
    fn pull_from(&self, _g: &Csr, _u: VertexId, state: &u64) -> Option<u64> {
        Some(*state)
    }
    fn supports_pull(&self) -> bool {
        true
    }
}

#[test]
fn min_flood_converges_on_path() {
    let g = build_undirected(&path(10));
    let r = run_bsp(&g, &MinFlood, BspConfig::default(), None);
    assert!(!r.hit_superstep_limit);
    assert!(r.states.iter().all(|&s| s == 0));
    // Label 0 travels one hop per superstep: at least 9 supersteps.
    assert!(r.supersteps >= 9, "supersteps={}", r.supersteps);
}

#[test]
fn superstep_zero_activates_everyone() {
    let g = build_undirected(&star(6));
    let r = run_bsp(&g, &MinFlood, BspConfig::default(), None);
    assert_eq!(r.superstep_stats[0].active, 6);
}

#[test]
fn quiescence_has_no_pending_messages() {
    let g = build_undirected(&star(6));
    let r = run_bsp(&g, &MinFlood, BspConfig::default(), None);
    assert_eq!(r.superstep_stats.last().unwrap().messages_sent, 0);
}

#[test]
fn single_queue_transport_gives_identical_results() {
    let g = build_undirected(&path(20));
    let a = run_bsp(&g, &MinFlood, BspConfig::default(), None);
    let b = run_bsp(
        &g,
        &MinFlood,
        BspConfig {
            transport: Transport::SingleQueue,
            ..Default::default()
        },
        None,
    );
    assert_eq!(a.states, b.states);
    assert_eq!(a.supersteps, b.supersteps);
    // Nothing is combined or dropped on the way out: on a push boundary
    // what compute produced is what crosses, under either transport.
    for s in a.superstep_stats.iter().chain(&b.superstep_stats) {
        assert_eq!(s.messages_sent, s.messages_generated);
    }
}

#[test]
fn pull_delivery_gives_identical_results() {
    for delivery in [Delivery::Pull, Delivery::Auto] {
        let g = build_undirected(&path(20));
        let push = run_bsp(&g, &PullFlood, BspConfig::default(), None);
        let pull = run_bsp(
            &g,
            &PullFlood,
            BspConfig {
                delivery,
                ..Default::default()
            },
            None,
        );
        assert_eq!(push.states, pull.states, "{delivery:?}");
        assert!(!pull.hit_superstep_limit, "{delivery:?}");
    }
}

#[test]
fn forced_pull_marks_supersteps_and_probes() {
    let g = build_undirected(&path(10));
    let r = run_bsp(
        &g,
        &PullFlood,
        BspConfig {
            delivery: Delivery::Pull,
            ..Default::default()
        },
        None,
    );
    // Superstep 0 always pushes (there is nothing to pull from yet);
    // superstep 0 generated traffic, so superstep 1 pulls.
    assert!(!r.superstep_stats[0].pulled);
    assert_eq!(r.superstep_stats[0].messages_sent, 0); // discarded for pull
    assert_eq!(r.superstep_stats[0].messages_generated, 2 * (10 - 1));
    assert!(r.superstep_stats[1].pulled);
    // A pull superstep over a path probes each non-isolated vertex's
    // neighbors: sum of degrees = 2 * edges.
    assert_eq!(r.superstep_stats[1].pull_probes, 2 * (10 - 1));
    // Push supersteps never probe.
    assert_eq!(r.superstep_stats[0].pull_probes, 0);
}

#[test]
fn pull_ignores_programs_without_support() {
    // MinFlood has a combiner but no pull rule: Delivery::Pull must
    // silently stay in push mode and still converge.
    let g = build_undirected(&path(12));
    let push = run_bsp(&g, &MinFlood, BspConfig::default(), None);
    let pull = run_bsp(
        &g,
        &MinFlood,
        BspConfig {
            delivery: Delivery::Pull,
            ..Default::default()
        },
        None,
    );
    assert_eq!(push.states, pull.states);
    assert!(pull.superstep_stats.iter().all(|s| !s.pulled));
}

#[test]
fn auto_delivery_pulls_dense_supersteps_and_pushes_sparse_ones() {
    // A min-flood over a path wakes one vertex fewer every superstep:
    // the early boundaries see more than half the vertices active next
    // and hand over to pull, the late ones push.  Both must agree with
    // static push on the answer.
    let g = build_undirected(&path(50));
    let push = run_bsp(&g, &PullFlood, BspConfig::default(), None);
    assert!(push.superstep_stats.iter().all(|s| !s.pulled));
    let auto = run_bsp(
        &g,
        &PullFlood,
        BspConfig {
            delivery: Delivery::Auto,
            ..Default::default()
        },
        None,
    );
    let pulled: Vec<bool> = auto.superstep_stats.iter().map(|s| s.pulled).collect();
    assert!(pulled[1], "superstep 0 wakes everyone: superstep 1 pulls");
    let first_push = 1 + pulled[1..].iter().position(|&p| !p).expect("thins out");
    assert!(
        pulled[first_push..].iter().all(|&p| !p),
        "a frontier that only shrinks never goes back to pull: {pulled:?}"
    );
    assert_eq!(auto.states, push.states);
    assert!(auto.states.iter().all(|&s| s == 0));
}

#[test]
fn pull_composes_with_worklist_and_either_transport() {
    let g = build_undirected(&path(30));
    let reference = run_bsp(&g, &PullFlood, BspConfig::default(), None);
    for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
        for delivery in [Delivery::Push, Delivery::Pull, Delivery::Auto] {
            let r = run_bsp(
                &g,
                &PullFlood,
                BspConfig {
                    transport,
                    active_set: ActiveSetStrategy::Worklist,
                    delivery,
                    ..Default::default()
                },
                None,
            );
            assert_eq!(r.states, reference.states, "{transport:?} {delivery:?}");
        }
    }
}

#[test]
fn worklist_strategy_gives_identical_results() {
    let g = build_undirected(&path(20));
    let a = run_bsp(&g, &MinFlood, BspConfig::default(), None);
    let b = run_bsp(
        &g,
        &MinFlood,
        BspConfig {
            active_set: ActiveSetStrategy::Worklist,
            ..Default::default()
        },
        None,
    );
    assert_eq!(a.states, b.states);
    assert_eq!(a.supersteps, b.supersteps);
}

#[test]
fn worklist_includes_awake_vertices_without_messages() {
    /// Vertex 0 stays awake (no messages) for 3 supersteps, counting
    /// its own activations; everyone else halts immediately.
    struct StayAwake;
    impl VertexProgram for StayAwake {
        type State = u64;
        type Message = u64;
        fn init(&self, _: VertexId) -> u64 {
            0
        }
        fn compute(&self, ctx: &mut Context<'_, u64>, runs: &mut u64, _: &[u64]) {
            *runs += 1;
            if ctx.vertex() == 0 && ctx.superstep() < 3 {
                ctx.stay_active();
            } else {
                ctx.vote_to_halt();
            }
        }
    }
    for strategy in [ActiveSetStrategy::DenseScan, ActiveSetStrategy::Worklist] {
        let g = build_undirected(&path(5));
        let r = run_bsp(
            &g,
            &StayAwake,
            BspConfig {
                active_set: strategy,
                ..Default::default()
            },
            None,
        );
        assert_eq!(r.states[0], 4, "{strategy:?}");
        assert!(r.states[1..].iter().all(|&x| x == 1), "{strategy:?}");
    }
}

#[test]
fn superstep_limit_stops_runaway_programs() {
    /// Sends to itself forever.
    struct Pinger;
    impl VertexProgram for Pinger {
        type State = ();
        type Message = u64;
        fn init(&self, _: VertexId) {}
        fn compute(&self, ctx: &mut Context<'_, u64>, _: &mut (), _: &[u64]) {
            let v = ctx.vertex();
            ctx.send_to(v, 1);
            ctx.vote_to_halt(); // reactivated by its own message
        }
    }
    let g = build_undirected(&path(3));
    let r = run_bsp(&g, &Pinger, limit(5), None);
    assert!(r.hit_superstep_limit);
    assert_eq!(r.supersteps, 5);
}

#[test]
fn instrumentation_labels_every_superstep() {
    let g = build_undirected(&path(8));
    let mut rec = Recorder::new();
    let r = run_bsp(&g, &MinFlood, BspConfig::default(), Some(&mut rec));
    assert_eq!(rec.steps("superstep"), r.supersteps);
    assert_eq!(rec.steps("exchange"), r.supersteps);
    // One scan per superstep plus the final empty-scan.
    assert_eq!(rec.steps("scan"), r.supersteps + 1);
    assert_eq!(rec.steps("init"), 1);
}

#[test]
fn sliced_runs_compose_to_the_uninterrupted_result() {
    let g = build_undirected(&path(40));
    let whole = run_bsp(&g, &MinFlood, BspConfig::default(), None);
    assert!(!whole.hit_superstep_limit);

    // Interrupt after 5 supersteps, then resume to completion.
    let first = run(
        &g,
        &MinFlood,
        RunOptions {
            config: limit(5),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(first.result.hit_superstep_limit);
    let ckpt = first
        .resume
        .expect("interrupted run must yield a checkpoint");
    assert_eq!(ckpt.superstep, 5);
    let second = run(
        &g,
        &MinFlood,
        RunOptions {
            from: Some((first.result.states, ckpt)),
            ..Default::default()
        },
    )
    .expect("valid checkpoint");
    assert!(second.resume.is_none());
    assert_eq!(second.result.states, whole.states);
    assert_eq!(second.result.supersteps, whole.supersteps);
}

#[test]
fn many_small_slices_also_compose() {
    let g = build_undirected(&path(30));
    let whole = run_bsp(&g, &MinFlood, BspConfig::default(), None);

    let mut cap = 2u64;
    let mut slice = run(
        &g,
        &MinFlood,
        RunOptions {
            config: limit(cap),
            ..Default::default()
        },
    )
    .unwrap();
    while let Some(ckpt) = slice.resume.take() {
        cap += 3;
        slice = run(
            &g,
            &MinFlood,
            RunOptions {
                config: limit(cap),
                from: Some((slice.result.states, ckpt)),
                ..Default::default()
            },
        )
        .expect("valid checkpoint");
    }
    assert_eq!(slice.result.states, whole.states);
    assert_eq!(slice.result.supersteps, whole.supersteps);
}

#[test]
fn resume_works_under_the_worklist_strategy() {
    let g = build_undirected(&path(30));
    let cfg = BspConfig {
        active_set: ActiveSetStrategy::Worklist,
        ..Default::default()
    };
    let whole = run_bsp(&g, &MinFlood, cfg, None);
    let first = run(
        &g,
        &MinFlood,
        RunOptions {
            config: BspConfig {
                max_supersteps: 4,
                ..cfg
            },
            ..Default::default()
        },
    )
    .unwrap();
    let ckpt = first.resume.expect("checkpoint");
    let second = run(
        &g,
        &MinFlood,
        RunOptions {
            config: cfg,
            from: Some((first.result.states, ckpt)),
            ..Default::default()
        },
    )
    .expect("checkpoint");
    assert_eq!(second.result.states, whole.states);
}

#[test]
fn checkpoint_contents_are_sensible() {
    let g = build_undirected(&star(10));
    let first = run(
        &g,
        &MinFlood,
        RunOptions {
            config: limit(1),
            ..Default::default()
        },
    )
    .unwrap();
    let ckpt = first.resume.unwrap();
    assert_eq!(ckpt.superstep, 1);
    assert_eq!(ckpt.halted.len(), 10);
    // Superstep 0 broadcast: messages are pending for superstep 1.
    assert!(!ckpt.pending.is_empty());
    assert!(
        ckpt.halted.iter().all(|&h| h),
        "MinFlood always votes to halt"
    );
}

#[test]
fn bad_checkpoints_are_rejected_not_panicked() {
    let g = build_undirected(&path(10));
    let first = run(
        &g,
        &MinFlood,
        RunOptions {
            config: limit(2),
            ..Default::default()
        },
    )
    .unwrap();
    let ckpt = first.resume.unwrap();
    let states = first.result.states;

    // Wrong state length.
    let err = run(
        &g,
        &MinFlood,
        RunOptions {
            from: Some((states[..5].to_vec(), ckpt.clone())),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(
        err,
        ResumeError::StateLengthMismatch {
            expected: 10,
            found: 5
        }
    );

    // Wrong halt-flag length.
    let mut bad = ckpt.clone();
    bad.halted.push(false);
    let err = run(
        &g,
        &MinFlood,
        RunOptions {
            from: Some((states.clone(), bad)),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(
        err,
        ResumeError::HaltedLengthMismatch {
            expected: 10,
            found: 11
        }
    );

    // Superstep 0 is never a checkpoint boundary.
    let mut bad = ckpt.clone();
    bad.superstep = 0;
    let err = run(
        &g,
        &MinFlood,
        RunOptions {
            from: Some((states.clone(), bad)),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err, ResumeError::SuperstepZero);

    // Pending message out of range.
    let mut bad = ckpt.clone();
    bad.pending.push((99, 0));
    let err = run(
        &g,
        &MinFlood,
        RunOptions {
            from: Some((states.clone(), bad)),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(
        err,
        ResumeError::PendingOutOfRange {
            destination: 99,
            num_vertices: 10
        }
    );

    // The untouched checkpoint still resumes fine afterwards.
    let done = run(
        &g,
        &MinFlood,
        RunOptions {
            from: Some((states, ckpt)),
            ..Default::default()
        },
    )
    .expect("valid checkpoint");
    assert!(done.result.states.iter().all(|&s| s == 0));
}

#[test]
fn stop_hook_cuts_a_run_with_a_resumable_checkpoint() {
    use std::sync::atomic::AtomicBool;
    let g = build_undirected(&path(40));
    let whole = run_bsp(&g, &MinFlood, BspConfig::default(), None);

    // Trip the hook after 3 boundary checks.
    let polls = AtomicU64::new(0);
    let hook = || polls.fetch_add(1, Ordering::Relaxed) >= 3;
    let first = run(
        &g,
        &MinFlood,
        RunOptions {
            stop: Some(&hook),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(first.result.stopped_early);
    assert!(!first.result.hit_superstep_limit);
    assert!(first.result.supersteps < whole.supersteps);
    let ckpt = first.resume.expect("stopped run must yield a checkpoint");

    let second = run(
        &g,
        &MinFlood,
        RunOptions {
            from: Some((first.result.states, ckpt)),
            ..Default::default()
        },
    )
    .expect("valid checkpoint");
    assert!(!second.result.stopped_early);
    assert_eq!(second.result.states, whole.states);
    assert_eq!(second.result.supersteps, whole.supersteps);

    // A hook that never fires changes nothing.
    let never = AtomicBool::new(false);
    let quiet = run(
        &g,
        &MinFlood,
        RunOptions {
            stop: Some(&|| never.load(Ordering::Relaxed)),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(quiet.resume.is_none());
    assert_eq!(quiet.result.states, whole.states);
}

#[test]
fn aggregates_sum_across_workers() {
    /// Every vertex adds its id to the aggregator in superstep 0.
    struct AggSum;
    impl VertexProgram for AggSum {
        type State = ();
        type Message = u64;
        fn init(&self, _: VertexId) {}
        fn compute(&self, ctx: &mut Context<'_, u64>, _: &mut (), _: &[u64]) {
            let v = ctx.vertex();
            ctx.aggregate_u64(v);
            ctx.aggregate_f64(1.0);
            ctx.vote_to_halt();
        }
    }
    let g = build_undirected(&path(100));
    let r = run_bsp(&g, &AggSum, BspConfig::default(), None);
    assert_eq!(r.aggregates.len(), 1);
    assert_eq!(r.aggregates[0].0, (0..100u64).sum::<u64>());
    assert!((r.aggregates[0].1 - 100.0).abs() < 1e-9);
}

#[cfg(feature = "trace")]
#[test]
fn trace_sink_mirrors_superstep_stats() {
    let mut sink = xmt_trace::TraceSink::new();
    let g = build_undirected(&path(20));
    let run = run(
        &g,
        &MinFlood,
        RunOptions {
            sink: Some(&mut sink),
            ..Default::default()
        },
    )
    .unwrap();
    let trace = sink.finish();
    assert_eq!(trace.len(), run.result.superstep_stats.len());
    for (t, s) in trace.iter().zip(&run.result.superstep_stats) {
        assert_eq!(t.active, s.active);
        assert_eq!(t.messages_sent, s.messages_sent);
        assert_eq!(t.messages_generated, s.messages_generated);
        assert_eq!(t.messages_delivered, s.messages_delivered);
        assert_eq!(t.pulled, s.pulled);
        assert_eq!(t.pull_probes, s.pull_probes);
        // MinFlood ships single 16-byte `(dst, label)` pairs.
        assert_eq!(t.bytes_deposited, 16 * t.messages_generated);
        // Phase laps never exceed the superstep span they tile.
        assert!(t.scan_ns + t.compute_ns + t.exchange_ns <= t.total_ns.max(1));
    }
    // Supersteps number 0..k in order; MinFlood's vertices all vote
    // to halt every superstep.
    for (i, t) in trace.iter().enumerate() {
        assert_eq!(t.superstep, i as u64);
        assert_eq!(t.halt_votes, t.active);
    }
}

#[cfg(feature = "trace")]
#[test]
fn trace_counts_the_bytes_of_pairs_and_runs() {
    // Triangles on K6, ranked by id: seeds and confirmations ship as
    // 8-byte `(bucket-local dst, u32)` pairs; vertex v forwards its v
    // seeds to each of its 5 - v higher neighbours as one run, so the
    // candidates are 10 runs of 8-byte headers carrying 20 four-byte
    // payloads.
    use crate::algorithms::triangles::TcProgram;
    let g = build_undirected(&xmt_graph::gen::structured::clique(6));
    let mut sink = xmt_trace::TraceSink::new();
    let opts = RunOptions {
        sink: Some(&mut sink),
        ..Default::default()
    };
    let r = run(&g, &TcProgram, opts).unwrap().result;
    assert_eq!(r.states.iter().sum::<u64>(), 20);
    let bytes: Vec<u64> = sink.finish().iter().map(|t| t.bytes_deposited).collect();
    assert_eq!(bytes, vec![15 * 8, 10 * 8 + 20 * 4, 20 * 8, 0]);
}

#[cfg(feature = "trace")]
#[test]
fn trace_series_is_contiguous_across_a_stop_cut() {
    let g = build_undirected(&path(40));
    let polls = AtomicU64::new(0);
    let hook = || polls.fetch_add(1, Ordering::Relaxed) >= 3;
    let mut first_sink = xmt_trace::TraceSink::new();
    let first = run(
        &g,
        &MinFlood,
        RunOptions {
            stop: Some(&hook),
            sink: Some(&mut first_sink),
            ..Default::default()
        },
    )
    .unwrap();
    let ckpt = first.resume.expect("stopped run must yield a checkpoint");
    let first_trace = first_sink.finish();
    assert_eq!(first_trace.len() as u64, first.result.supersteps);

    let mut second_sink = xmt_trace::TraceSink::new();
    let second = run(
        &g,
        &MinFlood,
        RunOptions {
            from: Some((first.result.states, ckpt)),
            sink: Some(&mut second_sink),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(second.resume.is_none());
    let second_trace = second_sink.finish();
    // Absolute superstep numbering: the resumed run picks up exactly
    // where the cut left off, with no gap and no overlap.
    let last_before = first_trace.last().unwrap().superstep;
    let first_after = second_trace.first().unwrap().superstep;
    assert_eq!(first_after, last_before + 1);
    let all: Vec<u64> = first_trace
        .iter()
        .chain(&second_trace)
        .map(|t| t.superstep)
        .collect();
    assert_eq!(all, (0..all.len() as u64).collect::<Vec<_>>());
}

#[test]
fn untraced_runs_record_nothing() {
    // Without a sink: equivalent runs, no records — in every feature
    // configuration.
    let g = build_undirected(&path(10));
    let mut sink = xmt_trace::TraceSink::new();
    let a = run(
        &g,
        &MinFlood,
        RunOptions {
            sink: Some(&mut sink),
            ..Default::default()
        },
    )
    .unwrap();
    let b = run(&g, &MinFlood, RunOptions::default()).unwrap();
    assert_eq!(a.result.states, b.result.states);
    assert_eq!(
        sink.len() as u64,
        if xmt_trace::ENABLED {
            a.result.supersteps
        } else {
            0
        }
    );
}

#[test]
fn auto_estimator_counts_distinct_destinations_not_messages() {
    // Regression for the density-estimate bug: on a star, superstep 1
    // has every leaf sending its (now minimal) label to the hub — 63
    // shipped messages but exactly ONE distinct destination.  The old
    // estimator (`shipped.min(n)`) read that as a 98%-dense frontier
    // and flipped superstep 2 into pull mode; the fixed one counts
    // claimed destinations and keeps pushing.
    let g = build_undirected(&star(64));
    let r = run_bsp(
        &g,
        &PullFlood,
        BspConfig {
            delivery: Delivery::Auto,
            ..Default::default()
        },
        None,
    );
    // Superstep 0 activates all 64 vertices, so superstep 1 is
    // genuinely dense and pulls.
    assert!(r.superstep_stats[1].pulled, "superstep 1 should pull");
    // Superstep 2's real frontier is the hub alone: must push.
    assert!(
        !r.superstep_stats[2].pulled,
        "hub-only frontier misread as dense: the estimator counted \
         messages, not destinations"
    );
    assert!(r.superstep_stats.iter().skip(2).all(|s| !s.pulled));
    assert!(r.states.iter().all(|&s| s == 0));

    // Same run under the worklist strategy (which shares the claim
    // machinery) must agree.
    let wl = run_bsp(
        &g,
        &PullFlood,
        BspConfig {
            delivery: Delivery::Auto,
            active_set: ActiveSetStrategy::Worklist,
            ..Default::default()
        },
        None,
    );
    assert_eq!(wl.states, r.states);
    let pulled: Vec<bool> = r.superstep_stats.iter().map(|s| s.pulled).collect();
    let wl_pulled: Vec<bool> = wl.superstep_stats.iter().map(|s| s.pulled).collect();
    assert_eq!(pulled, wl_pulled);
}

/// Cut `program` under `config` at every boundary before a pull
/// superstep, once by the stop hook and once by the superstep limit,
/// resume, and require the stitched run to be the uninterrupted one:
/// states, per-superstep stats, aggregates and model charges.  Returns
/// the boundaries cut.
fn assert_cuts_before_pulls_resume_exactly<P>(g: &Csr, program: &P, config: BspConfig) -> Vec<u64>
where
    P: VertexProgram,
    P::State: PartialEq + std::fmt::Debug,
{
    let mut whole_rec = Recorder::new();
    let whole = run_bsp(g, program, config, Some(&mut whole_rec));
    let stats = &whole.superstep_stats;
    let pulls: Vec<u64> = (0..whole.supersteps)
        .filter(|&s| stats[s as usize].pulled)
        .collect();
    for &at in &pulls {
        for by_hook in [true, false] {
            let tag = format!(
                "{config:?}, cut at {at} by the {}",
                ["limit", "hook"][by_hook as usize]
            );
            // The hook is polled once at each boundary from the first on.
            let polls = AtomicU64::new(0);
            let hook = || polls.fetch_add(1, Ordering::Relaxed) + 1 >= at;
            let mut rec = Recorder::new();
            let first = run(
                g,
                program,
                RunOptions {
                    config: BspConfig {
                        max_supersteps: if by_hook { config.max_supersteps } else { at },
                        ..config
                    },
                    rec: Some(&mut rec),
                    stop: by_hook.then_some(&hook as StopHook<'_>),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(first.result.stopped_early, by_hook, "{tag}");
            let ckpt = first.resume.expect("a cut run yields a checkpoint");
            assert_eq!(ckpt.superstep, at, "{tag}");
            let probes = ckpt.gathered.map(|g| g.probes);
            assert_eq!(probes, Some(stats[at as usize].pull_probes), "{tag}");
            // On a fresh frame: the checkpoint alone carries the cut.
            let mut rest_rec = Recorder::new();
            let rest = run(
                g,
                program,
                RunOptions {
                    config,
                    rec: Some(&mut rest_rec),
                    from: Some((first.result.states, ckpt)),
                    frame: Some(&mut SuperstepFrame::new()),
                    ..Default::default()
                },
            )
            .unwrap()
            .result;
            assert_eq!(rest.states, whole.states, "{tag}");
            assert_eq!(rest.supersteps, whole.supersteps, "{tag}");
            let stitched = [first.result.superstep_stats, rest.superstep_stats].concat();
            assert_eq!(&stitched, stats, "{tag}");
            let aggregates = [first.result.aggregates, rest.aggregates].concat();
            assert_eq!(aggregates, whole.aggregates, "{tag}");
            // Both slices scan the cut boundary; the second scan is the
            // one the uninterrupted run charged.
            rec.records.pop();
            rec.records.extend(rest_rec.records);
            assert_eq!(rec, whole_rec, "{tag}: model charges");
        }
    }
    pulls
}

#[test]
fn stop_hook_and_limit_cut_before_pull_supersteps_and_resume_exactly() {
    let path = build_undirected(&path(30));
    let rmat = build_undirected(&rmat_edges(&RmatParams::graph500(8), 7));
    let hub = (0..rmat.num_vertices())
        .max_by_key(|&v| rmat.degree(v))
        .unwrap();
    let bfs = crate::algorithms::bfs::BfsProgram { source: hub };
    for active_set in [ActiveSetStrategy::DenseScan, ActiveSetStrategy::Worklist] {
        for delivery in [Delivery::Pull, Delivery::Auto] {
            let config = BspConfig {
                delivery,
                active_set,
                ..Default::default()
            };
            // Auto pulls the min-flood by its density rule: more than
            // half the path is awake in its first supersteps.
            let cut = assert_cuts_before_pulls_resume_exactly(&path, &PullFlood, config);
            assert!(!cut.is_empty(), "{config:?}: the min-flood never pulls");
            // BFS gathers bottom-up (the resumed scan reads the settled
            // bitmap), and under Auto a cut between two pull supersteps
            // must keep Beamer's hysteresis.
            let cut = assert_cuts_before_pulls_resume_exactly(&rmat, &bfs, config);
            let consecutive = cut.windows(2).any(|w| w[1] == w[0] + 1);
            assert!(
                consecutive,
                "{config:?}: BFS never pulls twice in a row: {cut:?}"
            );
        }
    }
}

/// A pull-capable program that breaks the broadcast contract: beside
/// its broadcast it sends one message to vertex 0 with `send_to`.
struct BroadcastAndSendTo;

impl VertexProgram for BroadcastAndSendTo {
    type State = u64;
    type Message = u64;
    fn init(&self, v: VertexId) -> u64 {
        v
    }
    fn compute(&self, ctx: &mut Context<'_, u64>, state: &mut u64, msgs: &[u64]) {
        *state = msgs.iter().fold(*state, |a, &m| a.min(m));
        if ctx.superstep() == 0 {
            ctx.send_to_neighbors(*state);
            ctx.send_to(0, *state);
        }
        ctx.vote_to_halt();
    }
    fn combiner(&self) -> Option<&dyn Combiner<u64>> {
        Some(&MinCombiner)
    }
    fn pull_from(&self, _g: &Csr, _u: VertexId, state: &u64) -> Option<u64> {
        Some(*state)
    }
    fn supports_pull(&self) -> bool {
        true
    }
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "BroadcastAndSendTo: send_to on a superstep that records")]
fn a_send_to_from_a_recording_program_fails_a_debug_assertion() {
    let g = build_undirected(&path(10));
    run_bsp(&g, &BroadcastAndSendTo, BspConfig::default(), None);
}

#[test]
fn a_program_breaking_the_broadcast_contract_still_runs_where_nothing_records() {
    // The transports and active sets that never record broadcasts take
    // every send as it comes.
    let g = build_undirected(&path(10));
    let runs = [Transport::SingleQueue, Transport::PerThreadOutbox].map(|transport| {
        let config = BspConfig {
            transport,
            active_set: if transport == Transport::SingleQueue {
                ActiveSetStrategy::DenseScan
            } else {
                ActiveSetStrategy::Worklist
            },
            ..BspConfig::default()
        };
        run_bsp(&g, &BroadcastAndSendTo, config, None)
    });
    for r in &runs {
        assert_eq!(r.superstep_stats[0].messages_sent, g.num_arcs() + 10);
        // Vertex 1 hears from 0 and 2; vertex 0 from every vertex.
        assert_eq!(r.states[..3], [0, 0, 1]);
    }
    assert_eq!(runs[0].states, runs[1].states);
}
