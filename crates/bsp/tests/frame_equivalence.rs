//! Frame reuse is an allocation strategy, not a semantic one: a single
//! [`SuperstepFrame`] reused across many runs must produce bit-identical
//! results to the throwaway-frame entry point for every configuration.
//!
//! The matrix covers transport × delivery × active-set for connected
//! components (the pull-capable program) and BFS, comparing states,
//! superstep counts, per-superstep stats, aggregates, and the model
//! recorder's charge stream.  A separate case cuts a run with a stop
//! hook (the scheduler's deadline path), checkpoints, and resumes *with
//! the same frame*, requiring the stitched run to match an
//! uninterrupted one.
//!
//! The PageRank cases pin the exchange's ordering guarantee (DESIGN.md
//! §17) on the one program whose results can show a fold order: PageRank
//! must come out bit-identical on explicit pools of 1, 2, 4 and 8
//! workers under both schedules, across a checkpoint cut, and on a graph
//! whose compute chunks deposit more than once.
//!
//! The triangle cases cover the one uncombined program — every message
//! reaches `compute`, so its per-vertex counts and per-superstep message
//! totals show a lost, doubled or misrouted deposit directly — over
//! pools × schedules × transports × active sets and a cut + resume, and
//! on a frame whose mark arrays a run between two counts left marked.
//!
//! The broadcast cases pin the two ways a neighbor broadcast reaches its
//! receivers (DESIGN.md §17, "Broadcasts"): CC and BFS under the default
//! transport, which records broadcasts once per sender and gathers the
//! dense supersteps at the receivers, must match the single queue, which
//! ships one pair per arc, state for state and stat for stat on every
//! pool and schedule, and runs cut right after a gathered superstep must
//! resume to the uninterrupted result (PageRank's ranks bit for bit).
//!
//! The mixed-send cases pin the order rule for runs: a program that
//! sends to the same destinations both with `send_to` and with
//! `send_all_to`, and hashes what it receives in arrival order, must come
//! out identical on every pool, schedule and transport, and across a cut.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xmt_bsp::algorithms::bfs::BfsProgram;
use xmt_bsp::algorithms::components::CcProgram;
use xmt_bsp::algorithms::pagerank::PagerankProgram;
use xmt_bsp::algorithms::triangles::TcProgram;
use xmt_bsp::program::{Context, VertexProgram};
use xmt_bsp::{run, ActiveSetStrategy, BspConfig, Delivery, RunOptions, SuperstepFrame, Transport};
use xmt_graph::builder::build_undirected;
use xmt_graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_graph::validate::{reference_components, reference_triangles};
use xmt_graph::Csr;
use xmt_model::Recorder;
use xmt_par::{Executor, Pool};

const TRANSPORTS: [Transport; 2] = [Transport::PerThreadOutbox, Transport::SingleQueue];
const DELIVERIES: [Delivery; 3] = [Delivery::Push, Delivery::Pull, Delivery::Auto];
const ACTIVE_SETS: [ActiveSetStrategy; 2] =
    [ActiveSetStrategy::DenseScan, ActiveSetStrategy::Worklist];

fn test_graph() -> Csr {
    let params = RmatParams {
        edge_factor: 8,
        ..RmatParams::graph500(8)
    };
    build_undirected(&rmat_edges(&params, 7))
}

/// Run `program` fresh (throwaway frame) and with the shared `frame`,
/// and require every observable output to match.
fn assert_equivalent<P>(
    g: &Csr,
    program: &P,
    config: BspConfig,
    frame: &mut SuperstepFrame<P::State, P::Message>,
) where
    P: VertexProgram,
    P::State: PartialEq + std::fmt::Debug,
{
    let mut fresh_rec = Recorder::new();
    let fresh = run(
        g,
        program,
        RunOptions {
            config,
            rec: Some(&mut fresh_rec),
            ..Default::default()
        },
    )
    .expect("fresh run");
    let mut framed_rec = Recorder::new();
    let framed = run(
        g,
        program,
        RunOptions {
            config,
            rec: Some(&mut framed_rec),
            frame: Some(frame),
            ..Default::default()
        },
    )
    .expect("framed run");

    let tag = format!("{config:?}");
    assert_eq!(fresh.result.states, framed.result.states, "states: {tag}");
    assert_eq!(
        fresh.result.supersteps, framed.result.supersteps,
        "supersteps: {tag}"
    );
    assert_eq!(
        fresh.result.superstep_stats, framed.result.superstep_stats,
        "stats: {tag}"
    );
    assert_eq!(
        fresh.result.aggregates, framed.result.aggregates,
        "aggregates: {tag}"
    );
    assert_eq!(fresh_rec, framed_rec, "recorder charges: {tag}");
}

#[test]
fn cc_matches_fresh_across_the_whole_config_matrix() {
    let g = test_graph();
    // One frame survives all 12 configurations: `prepare` must reshape
    // whatever the previous config left behind.
    let mut frame = SuperstepFrame::new();
    for transport in TRANSPORTS {
        for delivery in DELIVERIES {
            for active_set in ACTIVE_SETS {
                let config = BspConfig {
                    transport,
                    delivery,
                    active_set,
                    ..BspConfig::default()
                };
                assert_equivalent(&g, &CcProgram, config, &mut frame);
            }
        }
    }
}

#[test]
fn bfs_matches_fresh_across_transports_and_deliveries() {
    let g = test_graph();
    let source = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
    let program = BfsProgram { source };
    let mut frame = SuperstepFrame::new();
    // `Auto` here is the Beamer alpha/beta rule: BFS is bottom-up
    // capable, so the frame's dense visited bitmap is exercised too.
    for transport in TRANSPORTS {
        for delivery in DELIVERIES {
            let config = BspConfig {
                transport,
                delivery,
                ..BspConfig::default()
            };
            assert_equivalent(&g, &program, config, &mut frame);
        }
    }
}

/// Run `program` on the sim executor (fixed chunks) and on the native
/// executor (guided chunks) and require equivalent results.
///
/// States, supersteps and aggregates must always match: CC and BFS
/// messages fold through a min-combiner, so delivery order — the only
/// thing the schedule changes — cannot affect what compute sees.  Exact
/// per-superstep stats are asserted under push only; pull/auto runs make
/// probe-order-dependent delivery decisions that legitimately wobble
/// across schedules.
fn assert_sim_native_equivalent<P>(g: &Csr, program: &P, config: BspConfig)
where
    P: VertexProgram,
    P::State: PartialEq + std::fmt::Debug,
{
    let mut sim_frame = SuperstepFrame::new();
    let sim = run(
        g,
        program,
        RunOptions {
            config,
            frame: Some(&mut sim_frame),
            ..Default::default()
        },
    )
    .expect("sim run");
    let mut native_frame = SuperstepFrame::new();
    let native = run(
        g,
        program,
        RunOptions {
            config,
            frame: Some(&mut native_frame),
            exec: Executor::guided(),
            ..Default::default()
        },
    )
    .expect("native run");

    let tag = format!("{config:?}");
    assert_eq!(sim.result.states, native.result.states, "states: {tag}");
    assert_eq!(
        sim.result.supersteps, native.result.supersteps,
        "supersteps: {tag}"
    );
    assert_eq!(
        sim.result.aggregates, native.result.aggregates,
        "aggregates: {tag}"
    );
    if config.delivery == Delivery::Push {
        assert_eq!(
            sim.result.superstep_stats, native.result.superstep_stats,
            "stats: {tag}"
        );
    }
}

#[test]
fn cc_native_matches_sim_across_the_whole_config_matrix() {
    let g = test_graph();
    for transport in TRANSPORTS {
        for delivery in DELIVERIES {
            for active_set in ACTIVE_SETS {
                let config = BspConfig {
                    transport,
                    delivery,
                    active_set,
                    ..BspConfig::default()
                };
                assert_sim_native_equivalent(&g, &CcProgram, config);
            }
        }
    }
}

#[test]
fn bfs_native_matches_sim_across_transports_and_deliveries() {
    let g = test_graph();
    let source = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
    let program = BfsProgram { source };
    for transport in TRANSPORTS {
        for delivery in DELIVERIES {
            let config = BspConfig {
                transport,
                delivery,
                ..BspConfig::default()
            };
            assert_sim_native_equivalent(&g, &program, config);
        }
    }
}

#[test]
fn interrupted_resume_with_the_same_frame_matches_uninterrupted() {
    let g = test_graph();
    for transport in TRANSPORTS {
        for delivery in DELIVERIES {
            let config = BspConfig {
                transport,
                delivery,
                ..BspConfig::default()
            };
            let full = run(
                &g,
                &CcProgram,
                RunOptions {
                    config,
                    ..Default::default()
                },
            )
            .expect("uninterrupted run");

            // Cut after a few boundary polls (the scheduler's deadline
            // path), then resume from the checkpoint with the SAME
            // frame the interrupted slice used.
            let mut frame = SuperstepFrame::new();
            let polls = AtomicU64::new(0);
            let hook = || polls.fetch_add(1, Ordering::Relaxed) >= 2;
            let part1 = run(
                &g,
                &CcProgram,
                RunOptions {
                    config,
                    stop: Some(&hook),
                    frame: Some(&mut frame),
                    ..Default::default()
                },
            )
            .expect("interrupted slice");
            assert!(
                part1.result.stopped_early,
                "hook did not cut the run ({transport:?}/{delivery:?})"
            );
            let resume = part1.resume.expect("stopped run must yield a checkpoint");
            let part2 = run(
                &g,
                &CcProgram,
                RunOptions {
                    config,
                    from: Some((part1.result.states, resume)),
                    frame: Some(&mut frame),
                    ..Default::default()
                },
            )
            .expect("resumed slice");

            let tag = format!("{transport:?}/{delivery:?}");
            assert_eq!(full.result.states, part2.result.states, "states: {tag}");
            assert_eq!(
                full.result.supersteps, part2.result.supersteps,
                "supersteps: {tag}"
            );
            // The interrupted and resumed stat streams stitch into the
            // uninterrupted one (the resumed run re-executes from the
            // checkpoint superstep, contributing the remaining entries).
            // Exact only under pure push: a stop request forces the cut
            // boundary (and the first resumed superstep) to push mode so
            // the checkpoint can materialize in-flight messages, so
            // pull-capable runs legitimately differ in per-superstep
            // delivery stats around the cut while converging to the
            // same states in the same number of supersteps.
            let stitched: Vec<_> = part1
                .result
                .superstep_stats
                .iter()
                .chain(part2.result.superstep_stats.iter())
                .copied()
                .collect();
            assert_eq!(
                full.result.superstep_stats.len(),
                stitched.len(),
                "stat stream length: {tag}"
            );
            if delivery == Delivery::Push {
                assert_eq!(full.result.superstep_stats, stitched, "stats: {tag}");
            }
        }
    }
}

/// Everything a PageRank run can show of its `f64` arithmetic, as bits:
/// ranks, superstep count, per-superstep stats and aggregates.
type PagerankBits = (
    Vec<u64>,
    u64,
    Vec<xmt_bsp::runtime::SuperstepStats>,
    Vec<(u64, u64)>,
);

fn pagerank_bits(g: &Csr, config: BspConfig, exec: Executor) -> PagerankBits {
    let opts = RunOptions {
        config,
        exec,
        ..Default::default()
    };
    let r = run(g, &PagerankProgram::default(), opts)
        .expect("fresh run")
        .result;
    assert!(!r.hit_superstep_limit, "PageRank did not converge");
    (
        r.states.iter().map(|x| x.to_bits()).collect(),
        r.supersteps,
        r.superstep_stats,
        r.aggregates
            .iter()
            .map(|&(u, f)| (u, f.to_bits()))
            .collect(),
    )
}

/// A graph with enough vertices that every pool below splits a superstep
/// into several chunks per worker.
fn pagerank_graph() -> Csr {
    build_undirected(&rmat_edges(&RmatParams::graph500(10), 3))
}

/// PageRank on `g` is bit-identical to a one-worker fixed run on explicit
/// pools of 1, 2, 4 and 8 workers (8 oversubscribes any CI host this runs
/// on), under both schedules and each of `transports`.
fn assert_pagerank_bit_identical_across_pools(g: &Csr, transports: &[Transport]) {
    let reference = pagerank_bits(
        g,
        BspConfig::default(),
        Executor::fixed_on(Arc::new(Pool::new(1))),
    );
    for workers in [1, 2, 4, 8] {
        let pool = Arc::new(Pool::new(workers));
        for &transport in transports {
            let config = BspConfig {
                transport,
                ..BspConfig::default()
            };
            for exec in [
                Executor::fixed_on(Arc::clone(&pool)),
                Executor::guided_on(Arc::clone(&pool)),
            ] {
                let tag = format!("{workers} workers, {transport:?}, {:?}", exec.schedule());
                let got = pagerank_bits(g, config, exec);
                assert_eq!(reference.1, got.1, "supersteps: {tag}");
                assert_eq!(reference.3, got.3, "aggregates: {tag}");
                assert_eq!(reference.2, got.2, "stats: {tag}");
                assert_eq!(reference.0, got.0, "ranks: {tag}");
            }
        }
    }
}

#[test]
fn pagerank_is_bit_identical_across_pools_schedules_and_queue_transports() {
    assert_pagerank_bit_identical_across_pools(
        &pagerank_graph(),
        &[Transport::PerThreadOutbox, Transport::SingleQueue],
    );
}

#[test]
fn pagerank_cut_and_resumed_is_bit_identical_to_uninterrupted() {
    let g = pagerank_graph();
    let program = PagerankProgram::default();
    let pool = Arc::new(Pool::new(4));
    for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
        let config = BspConfig {
            transport,
            ..BspConfig::default()
        };
        let full = pagerank_bits(&g, config, Executor::guided_on(Arc::clone(&pool)));
        // Cut at the superstep limit, mid-convergence, and resume on the
        // other schedule.
        let cut = run(
            &g,
            &program,
            RunOptions {
                config: BspConfig {
                    max_supersteps: 7,
                    ..config
                },
                exec: Executor::fixed_on(Arc::clone(&pool)),
                ..Default::default()
            },
        )
        .expect("first slice");
        let checkpoint = cut.resume.expect("cut by the limit");
        let rest = run(
            &g,
            &program,
            RunOptions {
                config,
                from: Some((cut.result.states, checkpoint)),
                exec: Executor::guided_on(Arc::clone(&pool)),
                ..Default::default()
            },
        )
        .expect("resumed slice")
        .result;
        let ranks: Vec<u64> = rest.states.iter().map(|x| x.to_bits()).collect();
        let aggregates: Vec<(u64, u64)> = cut
            .result
            .aggregates
            .iter()
            .chain(&rest.aggregates)
            .map(|&(u, f)| (u, f.to_bits()))
            .collect();
        assert_eq!(full.1, rest.supersteps, "supersteps: {transport:?}");
        assert_eq!(full.3, aggregates, "aggregates: {transport:?}");
        assert_eq!(full.0, ranks, "ranks: {transport:?}");
    }
}

#[test]
fn pagerank_is_bit_identical_when_chunks_deposit_more_than_once() {
    let g = build_undirected(&rmat_edges(&RmatParams::graph500(12), 3));
    // The premise: a guided loop's first claim on two workers is a
    // quarter of the vertices (half on one), and that chunk sends more
    // than the runtime's deposit high-water mark of 2^14 messages, so it
    // leaves in several deposits — while the one-worker fixed reference
    // run's chunks of n / 16 vertices mostly leave in one.
    let first_claim: u64 = (0..g.num_vertices() / 4).map(|v| g.degree(v)).sum();
    assert!(first_claim > 1 << 14, "first claim sends {first_claim}");
    assert_pagerank_bit_identical_across_pools(&g, &[Transport::PerThreadOutbox]);
}

/// What a broadcast program's run shows: its states, superstep count
/// and per-superstep stats.
fn broadcast_outcome<P: VertexProgram>(
    g: &Csr,
    program: &P,
    transport: Transport,
    exec: Executor,
) -> (Vec<P::State>, u64, Vec<xmt_bsp::runtime::SuperstepStats>) {
    let config = BspConfig {
        transport,
        ..BspConfig::default()
    };
    let opts = RunOptions {
        config,
        exec,
        ..Default::default()
    };
    let r = run(g, program, opts).expect("fresh run").result;
    assert!(!r.hit_superstep_limit);
    (r.states, r.supersteps, r.superstep_stats)
}

/// `program` on `g` matches a one-worker single-queue run — which
/// expands every broadcast at the sender — on pools of 1, 2, 4 and 8
/// workers under both schedules and both transports: the default
/// transport records broadcasts once per sender and gathers the dense
/// supersteps at the receivers, expanding only the sparse ones.
fn assert_broadcasts_match_the_expanded_run<P>(g: &Csr, program: &P)
where
    P: VertexProgram,
    P::State: PartialEq + std::fmt::Debug,
{
    let one = Arc::new(Pool::new(1));
    let reference = broadcast_outcome(g, program, Transport::SingleQueue, Executor::fixed_on(one));
    // The premise: both delivery paths run — a superstep that
    // broadcasts over every arc (gathered), and one that broadcasts over
    // a small fraction of them (expanded).
    let sent: Vec<u64> = reference.2.iter().map(|st| st.messages_sent).collect();
    assert!(sent.iter().any(|&m| m >= g.num_arcs() / 2), "{sent:?}");
    assert!(
        sent.iter().any(|&m| m > 0 && 16 * m < g.num_arcs()),
        "{sent:?}"
    );
    for workers in [1, 2, 4, 8] {
        let pool = Arc::new(Pool::new(workers));
        for transport in TRANSPORTS {
            for exec in [
                Executor::fixed_on(Arc::clone(&pool)),
                Executor::guided_on(Arc::clone(&pool)),
            ] {
                let tag = format!("{workers} workers, {transport:?}, {:?}", exec.schedule());
                let got = broadcast_outcome(g, program, transport, exec);
                assert_eq!(reference.1, got.1, "supersteps: {tag}");
                assert_eq!(reference.2, got.2, "stats: {tag}");
                assert_eq!(reference.0, got.0, "states: {tag}");
            }
        }
    }
}

#[test]
fn broadcasts_of_cc_and_bfs_match_the_expanded_run_across_pools_schedules_and_transports() {
    let g = pagerank_graph();
    assert_broadcasts_match_the_expanded_run(&g, &CcProgram);
    let source = (0..g.num_vertices())
        .max_by_key(|&v| g.degree(v))
        .expect("vertices");
    assert_broadcasts_match_the_expanded_run(&g, &BfsProgram { source });
}

/// Cut `program` at the superstep limit after each of its first
/// `cuts` supersteps, resume on the same frame, and require the
/// stitched run to equal the uninterrupted one by `outcome`.
fn assert_cut_after_each_early_superstep_resumes_exactly<P, O>(
    g: &Csr,
    program: &P,
    cuts: u64,
    outcome: impl Fn(&xmt_bsp::BspResult<P::State>) -> O,
) where
    P: VertexProgram,
    O: PartialEq + std::fmt::Debug,
{
    let pool = Arc::new(Pool::new(4));
    let full = run(
        g,
        program,
        RunOptions {
            exec: Executor::guided_on(Arc::clone(&pool)),
            ..Default::default()
        },
    )
    .expect("uninterrupted run")
    .result;
    let mut frame = SuperstepFrame::new();
    for at in 1..=cuts {
        let cut = run(
            g,
            program,
            RunOptions {
                config: BspConfig {
                    max_supersteps: at,
                    ..BspConfig::default()
                },
                frame: Some(&mut frame),
                exec: Executor::fixed_on(Arc::clone(&pool)),
                ..Default::default()
            },
        )
        .expect("first slice");
        let checkpoint = cut.resume.expect("cut by the limit");
        let rest = run(
            g,
            program,
            RunOptions {
                from: Some((cut.result.states, checkpoint)),
                frame: Some(&mut frame),
                exec: Executor::guided_on(Arc::clone(&pool)),
                ..Default::default()
            },
        )
        .expect("resumed slice")
        .result;
        let stats: Vec<_> = cut
            .result
            .superstep_stats
            .iter()
            .chain(&rest.superstep_stats)
            .copied()
            .collect();
        assert_eq!(full.supersteps, rest.supersteps, "cut after {at}");
        assert_eq!(full.superstep_stats, stats, "cut after {at}");
        assert_eq!(outcome(&full), outcome(&rest), "cut after {at}");
    }
}

#[test]
fn broadcasts_cut_right_after_a_gathered_superstep_resume_exactly() {
    let g = pagerank_graph();
    // Superstep 0 of CC and PageRank broadcasts over every arc, so it is
    // gathered, and the first cut falls right after it.
    let r = run(&g, &CcProgram, RunOptions::default())
        .expect("run")
        .result;
    assert_eq!(r.superstep_stats[0].messages_generated, g.num_arcs());
    assert_cut_after_each_early_superstep_resumes_exactly(&g, &CcProgram, 3, |r| r.states.clone());
    let source = (0..g.num_vertices())
        .max_by_key(|&v| g.degree(v))
        .expect("vertices");
    assert_cut_after_each_early_superstep_resumes_exactly(&g, &BfsProgram { source }, 3, |r| {
        r.states.clone()
    });
    assert_cut_after_each_early_superstep_resumes_exactly(
        &g,
        &PagerankProgram::default(),
        3,
        |r| {
            let ranks = r.states.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let aggregates = r.aggregates.last().map(|&(u, f)| (u, f.to_bits()));
            (ranks, aggregates)
        },
    );
}

/// What an uncombined run shows — a triangle run's per-vertex counts, a
/// mixed-send run's hashes —, its superstep count and the messages each
/// superstep sent.
fn outcome(r: &xmt_bsp::BspResult<u64>) -> (Vec<u64>, u64, Vec<u64>) {
    let sent = r.superstep_stats.iter().map(|s| s.messages_sent).collect();
    (r.states.clone(), r.supersteps, sent)
}

#[test]
fn triangles_match_one_worker_across_pools_schedules_transports_and_active_sets() {
    let g = pagerank_graph();
    let one_worker = RunOptions {
        exec: Executor::fixed_on(Arc::new(Pool::new(1))),
        ..Default::default()
    };
    let reference = outcome(&run(&g, &TcProgram, one_worker).expect("fresh run").result);
    assert_eq!(reference.0.iter().sum::<u64>(), reference_triangles(&g));
    assert_eq!(reference.1, 4);
    // One frame per pool survives every schedule, transport and active
    // set, so its mark arrays and deposit tables are reshaped and reused.
    for workers in [1, 2, 4, 8] {
        let pool = Arc::new(Pool::new(workers));
        let mut frame = SuperstepFrame::new();
        for transport in TRANSPORTS {
            for active_set in ACTIVE_SETS {
                for exec in [
                    Executor::fixed_on(Arc::clone(&pool)),
                    Executor::guided_on(Arc::clone(&pool)),
                ] {
                    let tag = format!(
                        "{workers} workers, {transport:?}, {active_set:?}, {:?}",
                        exec.schedule()
                    );
                    let opts = RunOptions {
                        config: BspConfig {
                            transport,
                            active_set,
                            ..BspConfig::default()
                        },
                        frame: Some(&mut frame),
                        exec,
                        ..Default::default()
                    };
                    let got = run(&g, &TcProgram, opts).expect("framed run").result;
                    assert_eq!(reference, outcome(&got), "{tag}");
                }
            }
        }
    }
}

#[test]
fn triangles_cut_at_the_superstep_limit_and_resumed_on_the_same_frame_match() {
    let g = pagerank_graph();
    let reference = outcome(
        &run(&g, &TcProgram, RunOptions::default())
            .expect("fresh run")
            .result,
    );
    let pool = Arc::new(Pool::new(4));
    for transport in TRANSPORTS {
        let config = BspConfig {
            transport,
            ..BspConfig::default()
        };
        // Cut with the candidates in flight — the largest inbox of the
        // run travels through the checkpoint.
        let mut frame = SuperstepFrame::new();
        let cut = run(
            &g,
            &TcProgram,
            RunOptions {
                config: BspConfig {
                    max_supersteps: 2,
                    ..config
                },
                frame: Some(&mut frame),
                exec: Executor::guided_on(Arc::clone(&pool)),
                ..Default::default()
            },
        )
        .expect("first slice");
        let checkpoint = cut.resume.expect("cut by the limit");
        let rest = run(
            &g,
            &TcProgram,
            RunOptions {
                config,
                from: Some((cut.result.states, checkpoint)),
                frame: Some(&mut frame),
                exec: Executor::fixed_on(Arc::clone(&pool)),
                ..Default::default()
            },
        )
        .expect("resumed slice")
        .result;
        let sent: Vec<u64> = cut
            .result
            .superstep_stats
            .iter()
            .chain(&rest.superstep_stats)
            .map(|s| s.messages_sent)
            .collect();
        assert_eq!(
            reference,
            (rest.states, rest.supersteps, sent),
            "{transport:?}"
        );
    }
}

/// Algorithm 1 on the triangle program's frame type (`u32` labels) that
/// marks each vertex's neighbours in superstep 0 and never unmarks them:
/// a run that leaves a window of marks open, as one that unwinds between
/// `mark` and `unmark` does.
struct CcLeavingMarks;

impl VertexProgram for CcLeavingMarks {
    type State = u64;
    type Message = u32;

    fn init(&self, v: u64) -> u64 {
        v
    }

    fn compute(&self, ctx: &mut Context<'_, u32>, label: &mut u64, msgs: &[u32]) {
        let first = ctx.superstep() == 0;
        if first {
            let nbrs = ctx.neighbors();
            ctx.marks().mark(nbrs);
        }
        let best = msgs.iter().map(|&m| u64::from(m)).min().unwrap_or(*label);
        if first || best < *label {
            *label = best.min(*label);
            for &n in ctx.neighbors() {
                ctx.send_to(n, *label as u32);
            }
        }
        ctx.vote_to_halt();
    }
}

#[test]
fn triangles_match_on_a_frame_a_cc_run_left_marks_in() {
    let g = pagerank_graph();
    for workers in [1, 2, 4] {
        let pool = Arc::new(Pool::new(workers));
        let exec = Executor::guided_on(Arc::clone(&pool));
        let mut frame = SuperstepFrame::new();
        let count = |frame: &mut SuperstepFrame<u64, u32>| {
            let opts = RunOptions {
                frame: Some(frame),
                exec: exec.clone(),
                ..Default::default()
            };
            let r = run(&g, &TcProgram, opts).expect("framed run").result;
            r.states.iter().sum::<u64>()
        };
        let first = count(&mut frame);
        assert_eq!(first, reference_triangles(&g), "{workers} workers");
        let opts = RunOptions {
            frame: Some(&mut frame),
            exec: exec.clone(),
            ..Default::default()
        };
        let cc = run(&g, &CcLeavingMarks, opts).expect("cc run").result;
        assert_eq!(cc.states, reference_components(&g), "{workers} workers");
        assert_eq!(count(&mut frame), first, "{workers} workers");
    }
}

/// Sends to each neighbour a mix of single messages and runs (empty ones
/// among them), all derived from its state; the state is an FNV-style
/// hash of every message received, in arrival order.  Uncombined, so
/// any change in the order a destination receives its messages shows.
struct MixedSends;

impl VertexProgram for MixedSends {
    type State = u64;
    type Message = u32;

    fn init(&self, v: u64) -> u64 {
        v.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn compute(&self, ctx: &mut Context<'_, u32>, h: &mut u64, msgs: &[u32]) {
        for &m in msgs {
            *h = (*h ^ u64::from(m)).wrapping_mul(0x100_0000_01b3);
        }
        let (v, s) = (ctx.vertex(), ctx.superstep());
        if s >= 4 {
            ctx.vote_to_halt();
            return;
        }
        let words: [u32; 8] = std::array::from_fn(|i| (*h >> (4 * i)) as u32);
        for &n in ctx.neighbors() {
            if (n + s) % 2 == 0 {
                ctx.send_to(n, *h as u32);
            }
            ctx.send_all_to(n, &words[..((v + n + s) % 9) as usize]);
            if (v ^ n) % 3 == 0 {
                ctx.send_to(n, s as u32);
            }
        }
    }
}

#[test]
fn mixed_sends_match_one_worker_across_pools_schedules_and_transports() {
    let g = pagerank_graph();
    let one_worker = RunOptions {
        exec: Executor::fixed_on(Arc::new(Pool::new(1))),
        ..Default::default()
    };
    let reference = outcome(&run(&g, &MixedSends, one_worker).expect("fresh run").result);
    assert_eq!(reference.1, 5);
    // The premise: a guided first claim on two workers, a quarter of the
    // vertices, sends past the deposit high-water mark of 2^14 messages
    // in superstep 0, so it leaves in several deposits.
    let first_claim: u64 = (0..g.num_vertices() / 4)
        .flat_map(|v| {
            let sends =
                move |&n: &u64| u64::from(n % 2 == 0) + (v + n) % 9 + u64::from((v ^ n) % 3 == 0);
            g.neighbors(v).iter().map(sends)
        })
        .sum();
    assert!(first_claim > 1 << 14, "first claim sends {first_claim}");
    for workers in [1, 2, 4, 8] {
        let pool = Arc::new(Pool::new(workers));
        let mut frame = SuperstepFrame::new();
        for transport in TRANSPORTS {
            for exec in [
                Executor::fixed_on(Arc::clone(&pool)),
                Executor::guided_on(Arc::clone(&pool)),
            ] {
                let tag = format!("{workers} workers, {transport:?}, {:?}", exec.schedule());
                let opts = RunOptions {
                    config: BspConfig {
                        transport,
                        ..BspConfig::default()
                    },
                    frame: Some(&mut frame),
                    exec,
                    ..Default::default()
                };
                let got = run(&g, &MixedSends, opts).expect("framed run").result;
                assert_eq!(reference, outcome(&got), "{tag}");
            }
        }
    }
}

#[test]
fn mixed_sends_cut_and_resumed_match_uninterrupted() {
    let g = pagerank_graph();
    let reference = outcome(
        &run(&g, &MixedSends, RunOptions::default())
            .expect("fresh run")
            .result,
    );
    let pool = Arc::new(Pool::new(4));
    for transport in TRANSPORTS {
        let config = BspConfig {
            transport,
            ..BspConfig::default()
        };
        for cut_at in [1, 2, 3] {
            let mut frame = SuperstepFrame::new();
            let cut = run(
                &g,
                &MixedSends,
                RunOptions {
                    config: BspConfig {
                        max_supersteps: cut_at,
                        ..config
                    },
                    frame: Some(&mut frame),
                    exec: Executor::guided_on(Arc::clone(&pool)),
                    ..Default::default()
                },
            )
            .expect("first slice");
            let checkpoint = cut.resume.expect("cut by the limit");
            let rest = run(
                &g,
                &MixedSends,
                RunOptions {
                    config,
                    from: Some((cut.result.states, checkpoint)),
                    frame: Some(&mut frame),
                    exec: Executor::fixed_on(Arc::clone(&pool)),
                    ..Default::default()
                },
            )
            .expect("resumed slice")
            .result;
            let sent: Vec<u64> = cut
                .result
                .superstep_stats
                .iter()
                .chain(&rest.superstep_stats)
                .map(|s| s.messages_sent)
                .collect();
            assert_eq!(
                reference,
                (rest.states, rest.supersteps, sent),
                "{transport:?}, cut at {cut_at}"
            );
        }
    }
}
