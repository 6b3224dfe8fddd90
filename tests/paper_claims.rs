//! End-to-end checks of the paper's qualitative claims on a miniature
//! version of the paper's workload (RMAT, undirected, scale-free).
//! These are the same assertions EXPERIMENTS.md reports at full harness
//! scale, pinned here at test scale so regressions are caught by
//! `cargo test`.

use xmt_bsp_repro::bsp::algorithms as bsp_alg;
use xmt_bsp_repro::bsp::runtime::BspConfig;
use xmt_bsp_repro::bsp::Transport;
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_bsp_repro::graph::Csr;
use xmt_bsp_repro::graphct;
use xmt_bsp_repro::model::{predict_total_seconds, ModelParams, Recorder};

fn paper_graph(scale: u32) -> Csr {
    build_undirected(&rmat_edges(&RmatParams::graph500(scale), 1))
}

fn low_degree_source(g: &Csr) -> u64 {
    let labels = graphct::connected_components(g);
    let big = xmt_bsp_repro::graph::validate::largest_component(&labels).unwrap();
    (0..g.num_vertices())
        .filter(|&v| labels[v as usize] == big && g.degree(v) > 0)
        .min_by_key(|&v| (g.degree(v), v))
        .unwrap()
}

/// §III / Table I: BSP CC needs at least 2x the shared-memory
/// iterations, and is slower but within an order of magnitude.
#[test]
fn cc_claims_hold() {
    let g = paper_graph(12);
    let model = ModelParams::default();

    let mut bsp_rec = Recorder::new();
    let bsp = bsp_alg::components::bsp_connected_components(&g, Some(&mut bsp_rec));
    let mut ct_rec = Recorder::new();
    let labels = graphct::connected_components_with(&g, &mut graphct::Ctx::recording(&mut ct_rec));
    assert_eq!(bsp.states, labels);

    let bsp_steps = bsp.supersteps;
    let ct_iters = ct_rec.steps("iteration");
    assert!(
        bsp_steps as f64 >= 1.5 * ct_iters as f64,
        "BSP {bsp_steps} supersteps vs shared {ct_iters} iterations"
    );

    let t_bsp = predict_total_seconds(&bsp_rec, &model, 128);
    let t_ct = predict_total_seconds(&ct_rec, &model, 128);
    let ratio = t_bsp / t_ct;
    assert!(
        (1.5..20.0).contains(&ratio),
        "CC ratio {ratio} out of the paper's band (paper: 4.1)"
    );
}

/// §IV / Fig. 2: BSP BFS messages = edges incident on the frontier, far
/// exceeding the frontier after the apex; both models produce identical
/// BFS trees; BSP is slower.
#[test]
fn bfs_claims_hold() {
    let g = paper_graph(12);
    let model = ModelParams::default();
    let source = low_degree_source(&g);

    let mut bsp_rec = Recorder::new();
    let out = bsp_alg::bfs::bsp_bfs(&g, source, Some(&mut bsp_rec));
    let mut ct_rec = Recorder::new();
    let ct = graphct::bfs_with(&g, source, &mut graphct::Ctx::recording(&mut ct_rec));
    assert_eq!(out.dist(), ct.dist);

    // Messages at superstep s == degree sum of level-s frontier.
    for (s, stat) in out.result.superstep_stats.iter().enumerate() {
        let deg_sum: u64 = (0..g.num_vertices())
            .filter(|&v| ct.dist[v as usize] == s as u64)
            .map(|v| g.degree(v))
            .sum();
        assert_eq!(stat.messages_sent, deg_sum, "superstep {s}");
    }

    // Around the apex, messages exceed the next frontier by a lot.
    let apex = ct
        .frontier_sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &f)| f)
        .unwrap()
        .0;
    let msgs = out.result.superstep_stats[apex].messages_sent;
    let next_frontier = ct.frontier_sizes.get(apex + 1).copied().unwrap_or(1);
    assert!(
        msgs > 3 * next_frontier,
        "apex messages {msgs} vs next frontier {next_frontier}"
    );

    let ratio =
        predict_total_seconds(&bsp_rec, &model, 128) / predict_total_seconds(&ct_rec, &model, 128);
    assert!(
        (1.0..40.0).contains(&ratio),
        "BFS ratio {ratio} out of band (paper: 10.1)"
    );
}

/// §V / Fig. 4: candidate messages dwarf confirmed triangles; the BSP
/// write volume is a large multiple of the shared-memory one; the
/// slowdown stays within an order of magnitude anyway.
#[test]
fn tc_claims_hold() {
    let g = paper_graph(11);
    let model = ModelParams::default();

    let mut bsp_rec = Recorder::new();
    let bsp = bsp_alg::triangles::bsp_count_triangles_with_config(
        &g,
        BspConfig::default(),
        Some(&mut bsp_rec),
    );
    let bsp_count = bsp_alg::triangles::total_triangles(&bsp);
    // Paper-faithful merge baseline (the optimized DAG kernel would
    // deflate the write side of the blowup claim being reproduced).
    let mut ct_rec = Recorder::new();
    let ct_count = graphct::count_triangles_idorder(&g, &mut graphct::Ctx::recording(&mut ct_rec));
    assert_eq!(bsp_count, ct_count);

    // The paper's claim is about the raw-id total order: every wedge
    // rooted at its lowest-id corner becomes a candidate message.  The
    // program now prunes by degree rank, so reconstruct the raw-id
    // volume analytically and assert the claim there, then check the
    // pruning made the wire strictly cheaper without erasing the gap.
    let id_candidates: u64 = (0..g.num_vertices())
        .map(|v| {
            let nbrs = g.neighbors(v);
            let below = nbrs.partition_point(|&m| m < v) as u64;
            let above = nbrs.len() as u64 - below;
            below * above
        })
        .sum();
    assert!(
        id_candidates > 5 * ct_count.max(1),
        "raw-id candidates {id_candidates} vs triangles {ct_count}"
    );
    let candidates = bsp.superstep_stats[1].messages_sent;
    assert!(
        candidates < id_candidates,
        "degree-rank pruning must beat raw-id order ({candidates} vs {id_candidates})"
    );
    assert!(
        candidates > 2 * ct_count.max(1),
        "even pruned, candidates dwarf triangles ({candidates} vs {ct_count})"
    );

    let bsp_writes: u64 = bsp_rec.records.iter().map(|r| r.counts.writes).sum();
    let ct_writes: u64 = ct_rec.records.iter().map(|r| r.counts.writes).sum();
    assert!(
        bsp_writes > 10 * ct_writes,
        "write blowup {bsp_writes}/{ct_writes} (paper: 181x)"
    );

    let ratio =
        predict_total_seconds(&bsp_rec, &model, 128) / predict_total_seconds(&ct_rec, &model, 128);
    assert!(
        (2.0..30.0).contains(&ratio),
        "TC ratio {ratio} out of band (paper: 9.4)"
    );
}

/// §VII: the single-fetch-and-add message queue inhibits scalability —
/// with it, 8→128 processors buys almost nothing; with per-worker
/// outboxes the same program keeps scaling.
#[test]
fn single_queue_inhibits_scalability() {
    let g = paper_graph(12);
    let model = ModelParams::default();

    let speedup = |transport: Transport| {
        let mut rec = Recorder::new();
        let cfg = BspConfig {
            transport,
            ..Default::default()
        };
        let r = bsp_alg::components::bsp_connected_components_with_config(&g, cfg, Some(&mut rec));
        assert!(!r.hit_superstep_limit);
        predict_total_seconds(&rec, &model, 8) / predict_total_seconds(&rec, &model, 128)
    };

    let outbox = speedup(Transport::PerThreadOutbox);
    let queue = speedup(Transport::SingleQueue);
    assert!(
        outbox > 2.0 * queue,
        "outbox speedup {outbox} vs single-queue {queue}"
    );
    assert!(queue < 2.0, "single queue should be nearly flat: {queue}");
}

/// Figure 1's per-iteration profile: the shared-memory algorithm does
/// near-constant work per iteration, while BSP supersteps shrink as the
/// active set collapses.
#[test]
fn fig1_profiles_hold() {
    let g = paper_graph(12);
    let mut bsp_rec = Recorder::new();
    let bsp = bsp_alg::components::bsp_connected_components(&g, Some(&mut bsp_rec));
    let mut ct_rec = Recorder::new();
    graphct::connected_components_with(&g, &mut graphct::Ctx::recording(&mut ct_rec));

    // GraphCT: every iteration reads all edges — flat profile.
    let ct_reads: Vec<u64> = ct_rec
        .with_label("iteration")
        .map(|r| r.counts.reads)
        .collect();
    let lo = *ct_reads.iter().min().unwrap() as f64;
    let hi = *ct_reads.iter().max().unwrap() as f64;
    assert!(
        hi / lo < 3.0,
        "shared-memory profile not flat: {ct_reads:?}"
    );

    // BSP: message volume collapses from the first to the last superstep.
    let first = bsp.superstep_stats.first().unwrap().messages_sent;
    let last_active = bsp.superstep_stats[bsp.superstep_stats.len() - 2].messages_sent;
    assert!(last_active * 4 < first, "{first} -> {last_active}");
}
