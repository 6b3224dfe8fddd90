//! A Graph500-style BFS benchmark (the paper's §IV motivates BFS with
//! the Graph500 [21]): generate an RMAT graph, run BFS from a set of
//! pseudo-random sources in *both* programming models, validate every
//! tree, and report traversed-edges-per-second — host wall-clock and
//! simulated 128-processor XMT.
//!
//! ```text
//! cargo run --release --example graph500_bfs
//! ```

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use xmt_bsp_repro::bsp::algorithms::bfs::bsp_bfs;
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_bsp_repro::graph::validate::validate_bfs;
use xmt_bsp_repro::graphct;
use xmt_bsp_repro::model::{predict_total_seconds, ModelParams, Recorder};

const SCALE: u32 = 13;
const NUM_SOURCES: usize = 8;

fn main() {
    let g = build_undirected(&rmat_edges(&RmatParams::graph500(SCALE), 2));
    println!(
        "graph500: scale {SCALE} => {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Pseudo-random sources with nonzero degree (Graph500 rule).
    let mut rng = ChaCha8Rng::seed_from_u64(500);
    let mut sources = Vec::new();
    while sources.len() < NUM_SOURCES {
        let v = rng.gen_range(0..g.num_vertices());
        if g.degree(v) > 0 && !sources.contains(&v) {
            sources.push(v);
        }
    }

    let model = ModelParams::default();
    let mut host_teps = (0.0f64, 0.0f64);
    let mut sim_teps = (0.0f64, 0.0f64);

    for (i, &s) in sources.iter().enumerate() {
        // Shared-memory BFS.
        let mut ct_rec = Recorder::new();
        let t0 = Instant::now();
        let ct = graphct::bfs_with(&g, s, &mut graphct::Ctx::recording(&mut ct_rec));
        let ct_host = t0.elapsed().as_secs_f64();
        validate_bfs(&g, s, &ct.dist, &ct.parent).expect("invalid shared-memory BFS tree");

        // BSP BFS.
        let mut bsp_rec = Recorder::new();
        let t0 = Instant::now();
        let out = bsp_bfs(&g, s, Some(&mut bsp_rec));
        let bsp_host = t0.elapsed().as_secs_f64();
        validate_bfs(&g, s, &out.dist(), &out.parent()).expect("invalid BSP BFS tree");
        assert_eq!(out.dist(), ct.dist, "models disagree from source {s}");

        // Traversed edges: arcs incident on reached vertices / 2.
        let traversed: u64 = (0..g.num_vertices())
            .filter(|&v| ct.dist[v as usize] != u64::MAX)
            .map(|v| g.degree(v))
            .sum::<u64>()
            / 2;

        let ct_sim = predict_total_seconds(&ct_rec, &model, 128);
        let bsp_sim = predict_total_seconds(&bsp_rec, &model, 128);
        println!(
            "source {i}: vertex {s:>6} reached {:>6} levels={:<2} | host GTEPS ct {:.3} bsp {:.3} | sim-XMT GTEPS ct {:.3} bsp {:.3}",
            ct.dist.iter().filter(|&&d| d != u64::MAX).count(),
            ct.frontier_sizes.len(),
            traversed as f64 / ct_host / 1e9,
            traversed as f64 / bsp_host / 1e9,
            traversed as f64 / ct_sim / 1e9,
            traversed as f64 / bsp_sim / 1e9,
        );
        host_teps.0 += traversed as f64 / ct_host;
        host_teps.1 += traversed as f64 / bsp_host;
        sim_teps.0 += traversed as f64 / ct_sim;
        sim_teps.1 += traversed as f64 / bsp_sim;
    }

    let n = NUM_SOURCES as f64;
    println!();
    println!(
        "mean GTEPS  (host):          GraphCT {:.3} | BSP {:.3}",
        host_teps.0 / n / 1e9,
        host_teps.1 / n / 1e9
    );
    println!(
        "mean GTEPS  (simulated XMT): GraphCT {:.3} | BSP {:.3}",
        sim_teps.0 / n / 1e9,
        sim_teps.1 / n / 1e9
    );
    println!("all {NUM_SOURCES} BFS trees validated (Graph500 rules)");
}
