//! The paper's own results: Table I, Fig. 1–4 and the related-work
//! platform comparison of §III–IV.

use serde::Content;
use xmt_bsp::runtime::{BspConfig, Delivery};
use xmt_model::{predict_cluster_seconds, ClusterParams};

use super::{graph, step_panels};
use crate::output::{fmt_secs, rec, say};
use crate::run::{run_bfs, run_cc, run_tc, total_seconds, BfsRun};
use crate::{paper, pick_bfs_source, HarnessConfig, Output};

/// BSP BFS from the paper's source, and again under Beamer
/// `Delivery::Auto` (the extra series of Fig. 2 and 3).
fn bfs_push_and_auto(cfg: &HarnessConfig) -> (u64, BfsRun, BfsRun) {
    let g = graph(cfg);
    let source = pick_bfs_source(&g);
    let auto = BspConfig {
        delivery: Delivery::Auto,
        ..Default::default()
    };
    (
        source,
        run_bfs(&g, source, BspConfig::default()),
        run_bfs(&g, source, auto),
    )
}

/// **Table I**: execution times of connected components, breadth-first
/// search and triangle counting on the simulated 128-processor Cray XMT,
/// BSP vs GraphCT, with the BSP:GraphCT ratio.
pub(super) fn table1(cfg: &HarnessConfig) -> Output {
    let (g, model, procs) = (graph(cfg), cfg.model(), cfg.max_procs());
    let cc = run_cc(&g, BspConfig::default());
    let bfs = run_bfs(&g, pick_bfs_source(&g), BspConfig::default());
    let tc = run_tc(&g, BspConfig::default());
    let mut out = Output::titled(&format!(
        "TABLE I — execution times on a simulated {procs}-processor Cray XMT"
    ));
    say!(
        out,
        "(RMAT scale {}, {} edges; paper columns: scale 24, 268M edges)",
        cfg.scale,
        g.num_edges()
    );
    say!(
        out,
        "CC: BSP {} supersteps, GraphCT {} iterations (paper: {} vs {})",
        cc.bsp.supersteps,
        cc.ct_rec.steps("iteration"),
        paper::CC_BSP_SUPERSTEPS,
        paper::CC_GRAPHCT_ITERATIONS
    );
    say!(
        out,
        "TC: {} triangles from {} candidate messages (paper: {:.1e} from {:.1e})",
        tc.triangles,
        tc.bsp.superstep_stats[1].messages_sent,
        paper::TC_TRIANGLES,
        paper::TC_CANDIDATE_MESSAGES
    );
    let runs = [
        ("Connected Components", &cc.bsp_rec, &cc.ct_rec),
        ("Breadth-first Search", &bfs.bsp_rec, &bfs.ct_rec),
        ("Triangle Counting", &tc.bsp_rec, &tc.ct_rec),
    ];
    let paper = [
        (paper::CC_BSP_SECONDS, paper::CC_GRAPHCT_SECONDS),
        (paper::BFS_BSP_SECONDS, paper::BFS_GRAPHCT_SECONDS),
        (paper::TC_BSP_SECONDS, paper::TC_GRAPHCT_SECONDS),
    ];
    let mut rows = Vec::new();
    for ((algorithm, bsp, ct), (pb, pc)) in runs.into_iter().zip(paper) {
        let (b, c) = (
            total_seconds(bsp, &model, procs),
            total_seconds(ct, &model, procs),
        );
        rows.push(rec! {
            algorithm: algorithm,
            bsp_seconds: b,
            graphct_seconds: c,
            ratio: b / c,
            paper_bsp_seconds: pb,
            paper_graphct_seconds: pc,
            paper_ratio: pb / pc,
        });
    }
    out.records(&rows);

    // Secondary §V claim: the write blowup of BSP triangle counting.
    let (bsp_writes, ct_writes) = (tc.bsp_rec.total().writes, tc.ct_rec.total().writes);
    say!(
        out,
        "\nTC writes: BSP {bsp_writes} vs shared-memory {ct_writes} -> {:.0}x (paper: {:.0}x)",
        bsp_writes as f64 / ct_writes.max(1) as f64,
        paper::TC_WRITE_RATIO,
    );
    let host = [cc.host_secs, bfs.host_secs, tc.host_secs].map(|(b, c)| format!("{b:.2}/{c:.2}s"));
    let [cc_host, bfs_host, tc_host] = host;
    say!(
        out,
        "host wall-clock (BSP/GraphCT): CC {cc_host}  BFS {bfs_host}  TC {tc_host}"
    );
    let table = rec! {
        scale: cfg.scale,
        edge_factor: cfg.edge_factor,
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        procs: procs,
        rows: rows,
    };
    out.json("table1", &table);
    out
}

/// **Figure 1**: connected-components time by superstep (BSP) and by
/// iteration (GraphCT), one series per processor count.
///
/// The paper's reading: BSP needs ~13 supersteps with the first few
/// touching almost the whole graph (linear scaling) and a long cheap
/// tail that stops scaling; GraphCT needs ~6 iterations of near-constant
/// cost, all scaling linearly.
pub(super) fn fig1(cfg: &HarnessConfig) -> Output {
    let (model, pmax) = (cfg.model(), cfg.max_procs());
    let cc = run_cc(&graph(cfg), BspConfig::default());
    let mut out =
        Output::titled("FIGURE 1 — connected components time (s) per superstep/iteration");
    say!(
        out,
        "(RMAT scale {}; BSP converged in {} supersteps, GraphCT in {} iterations; \
         paper: {} vs {})",
        cfg.scale,
        cc.bsp.supersteps,
        cc.ct_rec.steps("iteration"),
        paper::CC_BSP_SUPERSTEPS,
        paper::CC_GRAPHCT_ITERATIONS,
    );
    let panels = [
        ("BSP", &cc.bsp_rec, None),
        ("GraphCT", &cc.ct_rec, Some("iteration")),
    ];
    let points = step_panels(&mut out, cfg, "step", &panels, |_| true);
    say!(
        out,
        "\ntotals at P={pmax}: BSP {}, GraphCT {} (paper at 128P: {:.2}s vs {:.2}s)",
        fmt_secs(total_seconds(&cc.bsp_rec, &model, pmax)),
        fmt_secs(total_seconds(&cc.ct_rec, &model, pmax)),
        paper::CC_BSP_SECONDS,
        paper::CC_GRAPHCT_SECONDS,
    );
    out.json("fig1", &points);
    out
}

/// **Figure 2**: size of the BFS frontier (GraphCT) vs the number of
/// messages generated (BSP) at every level.
///
/// The paper's reading: BSP generates one message per edge incident on
/// the frontier; after the frontier apex that is an order of magnitude
/// more than the true frontier, declining exponentially.  A second BSP
/// series under Beamer `Delivery::Auto` shows what direction
/// optimization removes: the apex supersteps flip bottom-up and ship
/// nothing.
pub(super) fn fig2(cfg: &HarnessConfig) -> Output {
    let (source, bfs, auto) = bfs_push_and_auto(cfg);
    let stats = |run: &BfsRun, level| {
        run.bsp
            .superstep_stats
            .get(level)
            .copied()
            .unwrap_or_default()
    };
    let (mut rows, mut sent) = (Vec::new(), Vec::new());
    for (level, &frontier) in bfs.ct.frontier_sizes.iter().enumerate() {
        let (push, pull) = (stats(&bfs, level), stats(&auto, level));
        let ratio = push.messages_sent as f64 / frontier.max(1) as f64;
        rows.push(rec! {
            level: level as u64,
            graphct_frontier: frontier,
            bsp_messages: push.messages_sent,
            ratio: ratio,
            beamer_messages: pull.messages_sent,
            beamer_pulled: pull.pulled,
        });
        sent.push((frontier, push.messages_sent, pull.messages_sent, ratio));
    }
    let mut out =
        Output::titled("FIGURE 2 — BFS frontier size vs BSP messages generated, by level");
    say!(
        out,
        "(RMAT scale {}, source {source}; messages = edges incident on the frontier)",
        cfg.scale
    );
    out.records(&rows);

    // The paper's claims, checked mechanically:
    let apex = sent.iter().map(|s| s.0).max().unwrap_or(0);
    let apex_level = sent.iter().position(|s| s.0 == apex).unwrap_or(0);
    let blowup = sent[apex_level..].iter().fold(0.0, |a: f64, s| a.max(s.3));
    say!(
        out,
        "\nfrontier apex at level {apex_level} ({apex} vertices); \
         max message blowup from the apex on: {blowup:.1}x (paper: ~10x)"
    );
    let declines = sent
        .windows(2)
        .skip(apex_level + 1)
        .all(|w| w[1].1 <= w[0].1);
    let declines = if declines { "yes" } else { "no" };
    say!(
        out,
        "messages decline monotonically after the apex: {declines}"
    );
    let push: u64 = sent.iter().map(|s| s.1).sum();
    let auto: u64 = sent.iter().map(|s| s.2).sum();
    say!(
        out,
        "beamer-auto ships {auto} messages total vs {push} under static push ({:.0}x less): \
         the apex supersteps run bottom-up and ship nothing",
        push as f64 / auto.max(1) as f64
    );
    out.json("fig2", &rows);
    out
}

/// **Figure 3**: scalability of BFS levels (the paper plots levels 3–8)
/// — time vs processor count, BSP vs GraphCT.
///
/// The paper's reading: mid-traversal levels (the frontier apex) scale
/// linearly in both models; early and late levels are flat because the
/// frontier is too small to occupy the machine; the BSP message queue's
/// extra contention trims its scaling at high processor counts.  A
/// third panel runs BSP under Beamer `Delivery::Auto`, where the apex
/// levels are gathered bottom-up instead of shipped.
pub(super) fn fig3(cfg: &HarnessConfig) -> Output {
    let (model, pmax) = (cfg.model(), cfg.max_procs());
    let (source, bfs, auto) = bfs_push_and_auto(cfg);
    // Levels 3..=8 where they exist; every level on small graphs.
    let n = bfs.ct.frontier_sizes.len() as u64;
    let levels = if n > 3 { 3..n.min(9) } else { 0..n };
    let mut out = Output::titled("FIGURE 3 — BFS per-level time (s) vs processor count");
    say!(
        out,
        "(RMAT scale {}, source {source}, levels {:?}; paper: levels 3-8 of a scale-24 graph)",
        cfg.scale,
        levels.clone().collect::<Vec<_>>()
    );
    let panels = [
        ("BSP", &bfs.bsp_rec, None),
        ("BSP-beamer", &auto.bsp_rec, None),
        ("GraphCT", &bfs.ct_rec, Some("level")),
    ];
    let points = step_panels(&mut out, cfg, "level", &panels, |l| levels.contains(&l));
    let [bsp, beamer, ct] = panels.map(|(_, rec, _)| fmt_secs(total_seconds(rec, &model, pmax)));
    say!(
        out,
        "\ntotals at P={pmax}: BSP {bsp}, BSP-beamer {beamer}, GraphCT {ct} \
         (paper at 128P: {} vs {})",
        fmt_secs(paper::BFS_BSP_SECONDS),
        fmt_secs(paper::BFS_GRAPHCT_SECONDS),
    );
    out.json("fig3", &points);
    out
}

/// Superstep-1 candidate volume the program would emit under the old
/// raw-id total order: each vertex crosses its received wedge seeds
/// (lower-id neighbors) with its higher-id neighbors.
fn id_order_candidates(g: &xmt_graph::Csr) -> u64 {
    (0..g.num_vertices())
        .map(|v| {
            let nbrs = g.neighbors(v);
            let below = nbrs.partition_point(|&m| m < v) as u64;
            let above = nbrs.len() as u64 - nbrs.partition_point(|&m| m <= v) as u64;
            below * above
        })
        .sum()
}

/// **Figure 4**: triangle-counting time vs processor count, BSP and
/// GraphCT.
///
/// The paper's reading: both scale linearly to 128 processors; BSP is
/// ~9.4× slower because it must emit every *possible* triangle as a
/// message (5.5 G candidates vs 30.9 M triangles — 181× the writes).
/// Two optimized series ride along: the BSP program prunes candidates by
/// *degree rank* instead of raw ids (the candidate drop reported below),
/// and a third column tracks the degree-ordered DAG + adaptive
/// intersection GraphCT kernel against the paper-faithful merge walk.
/// The default scale is lower than the other figures because the
/// candidate volume grows superlinearly with scale.
pub(super) fn fig4(cfg: &HarnessConfig) -> Output {
    let (g, model) = (graph(cfg), cfg.model());
    let tc = run_tc(&g, BspConfig::default());
    let (candidates, id_candidates) = (
        tc.bsp.superstep_stats[1].messages_sent,
        id_order_candidates(&g),
    );
    let mut out = Output::titled("FIGURE 4 — triangle counting time (s) vs processor count");
    say!(
        out,
        "(RMAT scale {}: {} triangles, {candidates} candidate messages; \
         paper scale 24: {:.1e} triangles, {:.1e} candidates)",
        cfg.scale,
        tc.triangles,
        paper::TC_TRIANGLES,
        paper::TC_CANDIDATE_MESSAGES
    );
    let (mut rows, mut series): (Vec<Content>, Vec<[f64; 3]>) = (Vec::new(), Vec::new());
    for &procs in &cfg.procs {
        let [b, c, f] =
            [&tc.bsp_rec, &tc.ct_rec, &tc.fast_rec].map(|r| total_seconds(r, &model, procs));
        rows.push(rec! {
            procs: procs,
            bsp_seconds: b,
            graphct_seconds: c,
            dag_hash_seconds: f,
            ratio: b / c,
        });
        series.push([b, c, f]);
    }
    out.records(&rows);

    // Scaling check: both series should be near-linear.
    let (p0, p1) = (cfg.procs[0], cfg.max_procs());
    let ([b0, c0, _], [b1, c1, f1]) = (series[0], series[series.len() - 1]);
    say!(
        out,
        "\nspeedup {p0}→{p1} procs: BSP {:.1}x, GraphCT {:.1}x (ideal {:.0}x)",
        b0 / b1,
        c0 / c1,
        p1 as f64 / p0 as f64
    );
    let (bsp_writes, ct_writes) = (tc.bsp_rec.total().writes, tc.ct_rec.total().writes);
    say!(
        out,
        "write blowup: BSP {bsp_writes} vs shared {ct_writes} -> {:.0}x (paper {:.0}x); \
         slowdown at P={p1}: {:.1}x (paper 9.4x)",
        bsp_writes as f64 / ct_writes.max(1) as f64,
        paper::TC_WRITE_RATIO,
        b1 / c1
    );
    say!(
        out,
        "degree-rank candidate pruning: {candidates} candidates vs {id_candidates} under raw-id \
         order -> {:.2}x reduction on the wire",
        id_candidates as f64 / candidates.max(1) as f64
    );
    let (fast, base) = (tc.fast_host_secs, tc.host_secs.1);
    say!(
        out,
        "optimized GraphCT kernel (dag+auto): {} vs {} baseline host time -> {:.2}x; \
         model time at P={p1}: {} vs {}",
        fmt_secs(fast),
        fmt_secs(base),
        base / fast.max(1e-12),
        fmt_secs(f1),
        fmt_secs(c1),
    );
    out.json("fig4", &rows);
    out
}

/// The paper's related-work context: the same BSP computation costed on
/// the simulated Cray XMT, a Giraph-style 6-node cluster (§III) and a
/// Trinity-style 14-node cluster (§IV), from one set of recorded counts.
///
/// A large shared-memory machine runs vertex-centric BSP with superstep
/// costs proportional to actual work, while commodity clusters pay a
/// fixed coordination latency every superstep and ship every message
/// over the wire — so small supersteps cost milliseconds on the XMT and
/// a quarter-second on Hadoop-era clusters.
pub(super) fn related_work(cfg: &HarnessConfig) -> Output {
    let (g, model, pmax) = (graph(cfg), cfg.model(), cfg.max_procs());
    let cc = run_cc(&g, BspConfig::default());
    let bfs = run_bfs(&g, pick_bfs_source(&g), BspConfig::default());
    let giraph = ClusterParams::giraph_six_nodes();
    let trinity = ClusterParams::trinity_fourteen_nodes();
    let (mut rows, mut seconds) = (Vec::new(), Vec::new());
    // CC: 1-word messages; BFS: 2-word messages (dist, parent).
    let runs = [
        ("Connected Components", &cc.bsp_rec, 1),
        ("Breadth-first Search", &bfs.bsp_rec, 2),
    ];
    for (algorithm, rec, words) in runs {
        for (platform, secs) in [
            (
                format!("Cray XMT (simulated, {pmax}P)"),
                total_seconds(rec, &model, pmax),
            ),
            (
                "Giraph-style 6-node cluster (model)".into(),
                predict_cluster_seconds(rec, &giraph, words),
            ),
            (
                "Trinity-style 14-node cluster (model)".into(),
                predict_cluster_seconds(rec, &trinity, words),
            ),
        ] {
            rows.push(rec! { algorithm: algorithm, platform: platform, seconds: secs });
            seconds.push(secs);
        }
    }
    let mut out = Output::titled(&format!(
        "RELATED WORK — one BSP computation, three platforms (RMAT scale {})",
        cfg.scale
    ));
    out.records(&rows);
    say!(
        out,
        "\nthe coordination floor: {} supersteps x ~{:.2}s/superstep of cluster latency dwarfs \
         the XMT's barrier cost — CC is {:.0}x slower on the modeled Giraph cluster",
        cc.bsp.supersteps,
        giraph.superstep_latency * 3.0,
        seconds[1] / seconds[0]
    );
    say!(
        out,
        "(paper context: Giraph CC ~4s on Wikipedia/6 nodes vs GraphCT 1.31s at scale 24; \
         Trinity BFS ~400s at scale ~29/14 machines vs GraphCT 0.31s at scale 24)"
    );
    out.json("related_work", &rows);
    out
}
