//! A Graph500-style BFS benchmark over both programming models: RMAT
//! generation (kernel 0), CSR construction (kernel 1), then BFS from 16
//! pseudo-random sources (kernel 2) with full tree validation and TEPS
//! reporting — host wall-clock and simulated-XMT at the largest
//! processor count.  (The paper motivates BFS with Graph500 \[21\] and
//! notes that the fastest entries run it in bulk synchronous fashion.)
//!
//! ```text
//! cargo run --release -p xmt-bench --bin graph500 [-- --scale N --seed N]
//! ```

use std::time::Instant;

use serde::Serialize;

use xmt_bench::output::fmt_secs;
use xmt_bench::run::total_seconds;
use xmt_bench::{build_paper_graph, write_json, HarnessConfig, Table};
use xmt_bsp::algorithms::bfs::bsp_bfs;
use xmt_model::Recorder;

const NUM_SOURCES: usize = 16;

#[derive(Serialize)]
struct Graph500Row {
    source: u64,
    reached: u64,
    levels: usize,
    traversed_edges: u64,
    graphct_host_teps: f64,
    bsp_host_teps: f64,
    graphct_sim_teps: f64,
    bsp_sim_teps: f64,
}

fn main() {
    let cfg = HarnessConfig::from_args(16);
    let model = cfg.model();
    let pmax = cfg.max_procs();

    eprintln!("graph500: kernel 0+1, RMAT scale {} ...", cfg.scale);
    let t0 = Instant::now();
    let g = build_paper_graph(&cfg);
    let construction = t0.elapsed().as_secs_f64();
    eprintln!(
        "graph: {} vertices, {} edges, built in {:.2}s",
        g.num_vertices(),
        g.num_edges(),
        construction
    );

    // Pseudo-random non-isolated sources, deterministic in the seed.
    let mut sources = Vec::new();
    let mut x = cfg.seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    while sources.len() < NUM_SOURCES {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let v = x.wrapping_mul(0x2545f4914f6cdd1d) % g.num_vertices();
        if g.degree(v) > 0 && !sources.contains(&v) {
            sources.push(v);
        }
    }

    let mut rows = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        let mut ct_rec = Recorder::new();
        let t = Instant::now();
        let ct = graphct::bfs_with(&g, s, &mut graphct::Ctx::recording(&mut ct_rec));
        let ct_host = t.elapsed().as_secs_f64();
        xmt_graph::validate::validate_bfs(&g, s, &ct.dist, &ct.parent)
            .unwrap_or_else(|e| panic!("source {s}: invalid shared-memory tree: {e}"));

        let mut bsp_rec = Recorder::new();
        let t = Instant::now();
        let out = bsp_bfs(&g, s, Some(&mut bsp_rec));
        let bsp_host = t.elapsed().as_secs_f64();
        xmt_graph::validate::validate_bfs(&g, s, &out.dist(), &out.parent())
            .unwrap_or_else(|e| panic!("source {s}: invalid BSP tree: {e}"));
        assert_eq!(out.dist(), ct.dist, "models disagree from source {s}");

        let reached = ct.dist.iter().filter(|&&d| d != u64::MAX).count() as u64;
        let traversed: u64 = (0..g.num_vertices())
            .filter(|&v| ct.dist[v as usize] != u64::MAX)
            .map(|v| g.degree(v))
            .sum::<u64>()
            / 2;
        let ct_sim = total_seconds(&ct_rec, &model, pmax);
        let bsp_sim = total_seconds(&bsp_rec, &model, pmax);
        eprintln!(
            "  bfs {i:>2}: source {s:>8}, {} levels, {reached} reached",
            ct.frontier_sizes.len()
        );
        rows.push(Graph500Row {
            source: s,
            reached,
            levels: ct.frontier_sizes.len(),
            traversed_edges: traversed,
            graphct_host_teps: traversed as f64 / ct_host,
            bsp_host_teps: traversed as f64 / bsp_host,
            graphct_sim_teps: traversed as f64 / ct_sim,
            bsp_sim_teps: traversed as f64 / bsp_sim,
        });
    }

    println!();
    println!(
        "GRAPH500-STYLE BFS — scale {}, {} sources, simulated {pmax}-processor XMT",
        cfg.scale, NUM_SOURCES
    );
    let mut t = Table::new(&[
        "source",
        "levels",
        "reached",
        "GTEPS ct(host)",
        "GTEPS bsp(host)",
        "GTEPS ct(sim)",
        "GTEPS bsp(sim)",
    ]);
    for r in &rows {
        t.row(&[
            r.source.to_string(),
            r.levels.to_string(),
            r.reached.to_string(),
            format!("{:.3}", r.graphct_host_teps / 1e9),
            format!("{:.3}", r.bsp_host_teps / 1e9),
            format!("{:.3}", r.graphct_sim_teps / 1e9),
            format!("{:.3}", r.bsp_sim_teps / 1e9),
        ]);
    }
    t.print();

    // Graph500 reports the harmonic mean of TEPS.
    let hmean = |f: &dyn Fn(&Graph500Row) -> f64| {
        rows.len() as f64 / rows.iter().map(|r| 1.0 / f(r)).sum::<f64>()
    };
    println!();
    println!(
        "harmonic-mean GTEPS: GraphCT host {:.3} | BSP host {:.3} | GraphCT sim-XMT {:.3} | BSP sim-XMT {:.3}",
        hmean(&|r| r.graphct_host_teps) / 1e9,
        hmean(&|r| r.bsp_host_teps) / 1e9,
        hmean(&|r| r.graphct_sim_teps) / 1e9,
        hmean(&|r| r.bsp_sim_teps) / 1e9,
    );
    println!(
        "construction: {} | all {} trees validated",
        fmt_secs(construction),
        NUM_SOURCES
    );

    if let Some(dir) = &cfg.out_dir {
        write_json(dir, "graph500", &rows).expect("write results");
    }
}
