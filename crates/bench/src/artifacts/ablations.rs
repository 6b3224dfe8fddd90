//! Ablations: each varies one knob of the BSP runtime or of GraphCT on
//! the paper graph and reports model time at the largest processor count.

use std::time::Instant;

use graphct::{IntersectStrategy, TcScratch};
use serde::Content;
use xmt_bsp::algorithms::bfs::{BfsProgram, BfsState};
use xmt_bsp::algorithms::components::{bsp_connected_components, CcProgram};
use xmt_bsp::algorithms::pagerank::{bsp_pagerank_with_config, PagerankProgram};
use xmt_bsp::program::{VertexProgram, WithoutCombiner};
use xmt_bsp::runtime::{run_bsp, BspConfig, BspResult, Delivery, SuperstepStats};
use xmt_bsp::{ActiveSetStrategy, Transport};
use xmt_graph::ops::dag::RankDag;
use xmt_graph::Csr;
use xmt_model::{ModelParams, Recorder};
use xmt_par::Executor;

use super::graph;
use crate::output::{field, fmt_secs, rec, say};
use crate::run::{bsp_step_seconds, run_bfs, run_cc, total_seconds};
use crate::{pick_bfs_source, HarnessConfig, Output};

/// The superstep exchange itself: message transport (per-worker
/// outboxes vs the single fetch-and-add queue) crossed with delivery
/// (push vs pull vs the adaptive auto policy), for CC, BFS and PageRank,
/// in model time.  A pulled superstep ships nothing (`messages_sent` <
/// `messages_generated`), which is where the delivery rows differ.  The
/// two `push` rows are the paper's §VII remark in numbers
/// ("serialization around a single atomic fetch-and-add is possible,
/// inhibiting scalability"): every message of the single queue goes
/// through one hot word, so its time flattens at the hotspot floor while
/// the outboxes keep scaling.
pub(super) fn exchange(cfg: &HarnessConfig) -> Output {
    const ALGORITHMS: [&str; 3] = ["Connected Components", "Breadth-first Search", "PageRank"];
    let (g, model, pmax) = (graph(cfg), cfg.model(), cfg.max_procs());
    let source = pick_bfs_source(&g);
    let mut rows = Vec::new();
    for (transport, t) in [
        ("outbox", Transport::PerThreadOutbox),
        ("single-queue", Transport::SingleQueue),
    ] {
        for (delivery, d) in [
            ("push", Delivery::Push),
            ("pull", Delivery::Pull),
            ("auto", Delivery::Auto),
        ] {
            let config = BspConfig {
                transport: t,
                delivery: d,
                ..Default::default()
            };
            let cc = run_cc(&g, config);
            let bfs = run_bfs(&g, source, config);
            let mut pr_rec = Recorder::new();
            let pr = bsp_pagerank_with_config(
                &g,
                PagerankProgram::default(),
                500,
                config,
                Some(&mut pr_rec),
            );
            assert!(!pr.hit_superstep_limit, "PageRank did not converge");
            let runs: [(&[SuperstepStats], &Recorder, u64); 3] = [
                (&cc.bsp.superstep_stats, &cc.bsp_rec, cc.bsp.supersteps),
                (&bfs.bsp.superstep_stats, &bfs.bsp_rec, bfs.bsp.supersteps),
                (&pr.superstep_stats, &pr_rec, pr.supersteps),
            ];
            for (algorithm, (stats, rec, supersteps)) in ALGORITHMS.into_iter().zip(runs) {
                let generated: u64 = stats.iter().map(|s| s.messages_generated).sum();
                let sent: u64 = stats.iter().map(|s| s.messages_sent).sum();
                let pulled = stats.iter().filter(|s| s.pulled).count() as u64;
                for &procs in &cfg.procs {
                    rows.push(rec! {
                        algorithm: algorithm,
                        transport: transport,
                        delivery: delivery,
                        procs: procs,
                        seconds: total_seconds(rec, &model, procs),
                        messages_generated: generated,
                        messages_sent: sent,
                        pulled_supersteps: pulled,
                        supersteps: supersteps,
                    });
                }
            }
        }
    }
    let mut out = Output::titled(&format!(
        "ABLATION — exchange transport x delivery, RMAT scale {}: predicted seconds",
        cfg.scale
    ));
    for algorithm in ALGORITHMS {
        say!(out, "\n[{algorithm}]");
        let mine = || {
            rows.iter()
                .filter(|r| field(r, "algorithm") == Some(&Content::Str(algorithm.into())))
        };
        out.pivot(mine(), &["transport", "delivery"], "procs", "seconds");
        out.records(mine().filter(|r| field(r, "procs") == Some(&Content::U64(pmax as u64))));
    }
    out.json("ablation_exchange", &rows);
    out
}

/// The paper's §VI convergence argument: "Since messages in the BSP
/// model cannot arrive until the next superstep, vertices ... are
/// processing on stale data.  ... the number of iterations required
/// until convergence is at least a factor of two larger than in the
/// shared memory model."  Three connected-components variants:
/// Gauss-Seidel (GraphCT's in-place label propagation), Jacobi (the same
/// sweep double-buffered, so it reads only the previous sweep's labels)
/// and BSP (Algorithm 1).
pub(super) fn labelprop(cfg: &HarnessConfig) -> Output {
    let (g, model, pmax) = (graph(cfg), cfg.model(), cfg.max_procs());
    let mut gs_rec = Recorder::new();
    let gs = graphct::connected_components_with(&g, &mut graphct::Ctx::recording(&mut gs_rec));
    let mut j_rec = Recorder::new();
    let jacobi = graphct::connected_components_jacobi(&g, Some(&mut j_rec));
    assert_eq!(gs, jacobi, "variants must agree");
    let mut bsp_rec = Recorder::new();
    let bsp = bsp_connected_components(&g, Some(&mut bsp_rec));
    assert_eq!(gs, bsp.states, "variants must agree");

    let variants = [
        ("Gauss-Seidel (GraphCT)", gs_rec.steps("iteration"), &gs_rec),
        ("Jacobi (stale reads)", j_rec.steps("iteration"), &j_rec),
        ("BSP (Algorithm 1)", bsp.supersteps, &bsp_rec),
    ];
    let rows = variants.map(|(variant, iterations, rec)| {
        let seconds = total_seconds(rec, &model, pmax);
        rec! { variant: variant, iterations: iterations, seconds_at_max_procs: seconds }
    });
    let mut out = Output::titled(&format!(
        "ABLATION — in-iteration label propagation (§VI), RMAT scale {}",
        cfg.scale
    ));
    out.records(&rows);
    let [jacobi, bsp] = [1, 2].map(|i| variants[i].1 as f64 / variants[0].1 as f64);
    say!(
        out,
        "\nstaleness factor: Jacobi needs {jacobi:.1}x the sweeps of Gauss-Seidel; \
         BSP needs {bsp:.1}x (paper: >= 2x)"
    );
    out.json("ablation_labelprop", &rows[..]);
    out
}

/// One BSP run of `prog`: its result, delivered messages and model time at `pmax`.
fn run_delivered<P: VertexProgram>(
    g: &Csr,
    prog: &P,
    model: &ModelParams,
    pmax: usize,
) -> (BspResult<P::State>, u64, f64) {
    let mut rec = Recorder::new();
    let r = run_bsp(g, prog, BspConfig::default(), Some(&mut rec));
    let delivered = r.superstep_stats.iter().map(|s| s.messages_delivered).sum();
    (r, delivered, total_seconds(&rec, model, pmax))
}

/// Pregel's message combiner (Pregel §3.2) on and off: with a min
/// combiner each vertex's inbox collapses to one message before
/// `compute` runs; without it every raw message is delivered.
/// (`results/ablation_combiner_sender.json` is the dated output of a
/// second table printed while the runtime could also fold at the
/// sender; EXPERIMENTS.md says what it did and did not measure.)
pub(super) fn combiner(cfg: &HarnessConfig) -> Output {
    let (g, model, pmax) = (graph(cfg), cfg.model(), cfg.max_procs());
    let source = pick_bfs_source(&g);
    let (cc, cc_raw) = (CcProgram, WithoutCombiner(CcProgram));
    let (bfs, bfs_raw) = (
        BfsProgram { source },
        WithoutCombiner(BfsProgram { source }),
    );
    let (cc, cc_raw) = (
        run_delivered(&g, &cc, &model, pmax),
        run_delivered(&g, &cc_raw, &model, pmax),
    );
    assert_eq!(
        cc.0.states, cc_raw.0.states,
        "combiner must not change results"
    );
    let (bfs, bfs_raw) = (
        run_delivered(&g, &bfs, &model, pmax),
        run_delivered(&g, &bfs_raw, &model, pmax),
    );
    let dist = |r: &BspResult<BfsState>| r.states.iter().map(|s| s.dist).collect::<Vec<_>>();
    assert_eq!(
        dist(&bfs.0),
        dist(&bfs_raw.0),
        "combiner must not change results"
    );
    let pairs = [
        ("Connected Components", (cc.1, cc.2), (cc_raw.1, cc_raw.2)),
        (
            "Breadth-first Search",
            (bfs.1, bfs.2),
            (bfs_raw.1, bfs_raw.2),
        ),
    ];
    let mut rows = Vec::new();
    for (algorithm, with, without) in pairs {
        for (combiner, (delivered, seconds)) in [(true, with), (false, without)] {
            rows.push(rec! {
                algorithm: algorithm,
                combiner: combiner,
                delivered_messages: delivered,
                seconds_at_max_procs: seconds,
            });
        }
    }
    let mut out = Output::titled(&format!(
        "ABLATION — message combiner, RMAT scale {}",
        cfg.scale
    ));
    out.records(&rows);
    say!(out);
    for (algorithm, (d, s), (d_raw, s_raw)) in pairs {
        let messages = d_raw as f64 / d.max(1) as f64;
        say!(
            out,
            "{algorithm}: combiner cuts delivered messages {messages:.1}x and time {:.2}x",
            s_raw / s
        );
    }
    out.json("ablation_combiner", &rows);
    out
}

/// The active-set strategy: the O(V)-per-superstep dense scan (the
/// straightforward XMT port, responsible for the paper's "two orders of
/// magnitude" early/late-superstep overhead in BFS) vs a compacted
/// worklist whose cost tracks the active set.
pub(super) fn activeset(cfg: &HarnessConfig) -> Output {
    let (g, model, pmax) = (graph(cfg), cfg.model(), cfg.max_procs());
    let source = pick_bfs_source(&g);
    let (mut rows, mut totals) = (Vec::new(), Vec::new());
    for (strategy, active_set) in [
        ("dense-scan", ActiveSetStrategy::DenseScan),
        ("worklist", ActiveSetStrategy::Worklist),
    ] {
        let config = BspConfig {
            active_set,
            ..Default::default()
        };
        let bfs = run_bfs(&g, source, config);
        let stats = &bfs.bsp.superstep_stats;
        for (superstep, seconds) in bsp_step_seconds(&bfs.bsp_rec, &model, pmax) {
            rows.push(rec! {
                strategy: strategy,
                superstep: superstep,
                active: stats.get(superstep as usize).map_or(0, |s| s.active),
                seconds_at_max_procs: seconds,
            });
        }
        totals.push(total_seconds(&bfs.bsp_rec, &model, pmax));
    }
    let mut out = Output::titled(&format!(
        "ABLATION — BSP active-set strategy (BFS per-superstep time at P={pmax}), RMAT scale {}",
        cfg.scale
    ));
    out.pivot(
        &rows,
        &["superstep", "active"],
        "strategy",
        "seconds_at_max_procs",
    );
    let (dense, work) = (totals[0], totals[1]);
    say!(
        out,
        "\ntotals: dense-scan {} vs worklist {} ({:.2}x). The scan itself shrinks to O(active), \
         but the inbox grouping stays O(V) in both strategies, so the end-to-end gap is bounded \
         by the scan's share of each superstep (largest when the frontier is tiny).",
        fmt_secs(dense),
        fmt_secs(work),
        dense / work
    );
    out.json("ablation_activeset", &rows);
    out
}

/// Timed repetitions per intersection row (best-of, to shed warm-up noise).
const REPS: usize = 3;

/// The triangle-counting hot path (the paper's §VI: "the exact
/// mechanisms of performing the neighbor intersection can be varied —
/// see ref 12") on both executors: `merge`, the paper-faithful id-order
/// merge walk; `dag+hash`, the middle-vertex sweep over the rank-space
/// degree-ordered DAG probing a mark array of one byte per vertex,
/// timed on a prebuilt view.  (Retired strategies keep their dated rows
/// in EXPERIMENTS.md.)  Every row is agreement-asserted against the merge
/// baseline before timing, on the simulator-faithful (`fixed`) and
/// native (`guided`) executors both.
pub(super) fn intersect(cfg: &HarnessConfig) -> Output {
    let (g, model, pmax) = (graph(cfg), cfg.model(), cfg.max_procs());
    let want = graphct::count_triangles_idorder(&g, &mut graphct::Ctx::default());
    let t = Instant::now();
    let dag = RankDag::new(&g);
    let dag_build = fmt_secs(t.elapsed().as_secs_f64());
    let strategies = [("merge", None), ("dag+hash", Some(IntersectStrategy::Hash))];
    let (mut rows, mut verdicts) = (Vec::new(), Vec::new());
    for (engine, exec) in [
        ("sim-host", Executor::fixed()),
        ("native", Executor::guided()),
    ] {
        let (mut scratch, mut merge_host) = (TcScratch::new(), f64::INFINITY);
        for (strategy, dag_strategy) in strategies {
            // One instrumented pass for the model counts, then `REPS`
            // timed ones; every pass must agree with the merge walk.
            let mut count = |rec: Option<&mut Recorder>| {
                let mut ctx = graphct::Ctx {
                    exec: exec.clone(),
                    rec,
                    ..Default::default()
                };
                let n = match dag_strategy {
                    Some(s) => graphct::count_triangles_dag(&dag, s, &mut ctx, &mut scratch),
                    None => graphct::count_triangles_idorder(&g, &mut ctx),
                };
                assert_eq!(n, want, "{strategy}: strategies must agree");
            };
            let mut rec = Recorder::new();
            count(Some(&mut rec));
            let mut host = f64::INFINITY;
            for _ in 0..REPS {
                let t = Instant::now();
                count(None);
                host = host.min(t.elapsed().as_secs_f64());
            }
            if dag_strategy.is_none() {
                merge_host = host;
            }
            let speedup = merge_host / host.max(1e-12);
            rows.push(rec! {
                strategy: strategy,
                engine: engine,
                adjacency_reads: rec.total().reads,
                seconds_at_max_procs: total_seconds(&rec, &model, pmax),
                host_seconds: host,
                speedup_vs_merge: speedup,
            });
            if strategy == "dag+hash" {
                verdicts.push((engine, speedup));
            }
        }
    }
    let mut out = Output::titled(&format!(
        "ABLATION — triangle intersection strategy × engine, RMAT scale {} ({want} triangles; \
         rank-DAG build {dag_build}, not in the dag+hash rows)",
        cfg.scale
    ));
    out.records(&rows);
    say!(out);
    for (engine, speedup) in verdicts {
        let verdict = if speedup >= 2.0 { "meets" } else { "BELOW" };
        say!(
            out,
            "{engine}: dag+hash is {speedup:.2}x the merge-walk baseline — \
             {verdict} the >=2x target"
        );
    }
    out.json("ablation_intersect", &rows);
    out
}

/// BFS delivery direction: static push, static pull and the Beamer
/// alpha/beta `Auto`.  The point of direction optimization is the apex
/// superstep: a push there ships one message per frontier edge, while a
/// bottom-up pull gathers with early exit and ships nothing.
pub(super) fn direction(cfg: &HarnessConfig) -> Output {
    let (g, model, pmax) = (graph(cfg), cfg.model(), cfg.max_procs());
    let source = pick_bfs_source(&g);
    let (mut rows, mut summary, mut apexes, mut reference) =
        (Vec::new(), Vec::new(), Vec::new(), None);
    for (config, delivery) in [
        ("static-push", Delivery::Push),
        ("static-pull", Delivery::Pull),
        ("beamer-auto", Delivery::Auto),
    ] {
        // `run_bfs` cross-checks the distances against GraphCT's BFS; on
        // top of that, every config must agree with the first.
        let bsp = BspConfig {
            delivery,
            ..Default::default()
        };
        let bfs = run_bfs(&g, source, bsp);
        let dist: Vec<u64> = bfs.bsp.states.iter().map(|s| s.dist).collect();
        match &reference {
            None => reference = Some(dist),
            Some(reference) => assert_eq!(
                reference, &dist,
                "{config} distances diverge from static-push"
            ),
        }
        let stats = &bfs.bsp.superstep_stats;
        rows.extend(stats.iter().enumerate().map(|(superstep, s)| {
            rec! {
                config: config,
                superstep: superstep as u64,
                active: s.active,
                messages_sent: s.messages_sent,
                pulled: s.pulled,
                pull_probes: s.pull_probes,
            }
        }));
        let apex_messages = stats.iter().map(|s| s.messages_sent).max().unwrap_or(0);
        summary.push(rec! {
            config: config,
            supersteps: bfs.bsp.supersteps,
            total_messages: stats.iter().map(|s| s.messages_sent).sum::<u64>(),
            apex_messages: apex_messages,
            total_probes: stats.iter().map(|s| s.pull_probes).sum::<u64>(),
            predicted_seconds_at_max_procs: total_seconds(&bfs.bsp_rec, &model, pmax),
        });
        apexes.push(apex_messages);
    }
    let mut out = Output::titled(&format!(
        "ABLATION — BFS delivery direction (messages shipped per superstep), RMAT scale {}",
        cfg.scale
    ));
    out.pivot(&rows, &["superstep"], "config", "messages_sent");
    say!(out);
    out.records(&summary);
    let (push, auto) = (apexes[0], apexes[2]);
    let ratio = push as f64 / auto.max(1) as f64;
    say!(
        out,
        "\napex message volume: static-push ships {push}, beamer-auto ships {auto} \
         ({ratio:.0}x less): the alpha rule flips the apex supersteps bottom-up, so the heavy \
         frontier is gathered with early exit instead of shipped."
    );
    assert!(
        ratio >= 10.0,
        "expected >=10x apex message reduction, got {ratio:.1}x"
    );
    out.json("ablation_direction", &rec! { rows: rows, summary: summary });
    out
}
