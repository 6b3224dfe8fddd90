//! Ablation of the paper's §VII remark: message transport via a single
//! shared fetch-and-add queue vs per-worker outboxes, and the Pregel
//! combiner on vs off.
//!
//! "Without native support for message features such as enqueueing and
//! dequeueing, serialization around a single atomic fetch-and-add is
//! possible, inhibiting scalability."  This binary quantifies that: the
//! single queue puts every message through one hot word, so its time
//! flattens at the hotspot floor while the outbox design keeps scaling.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin ablation_queue [-- --scale N]
//! ```

use serde::Serialize;

use xmt_bench::output::fmt_secs;
use xmt_bench::run::{run_bfs, run_cc, total_seconds};
use xmt_bench::{build_paper_graph, pick_bfs_source, write_json, HarnessConfig, Table};
use xmt_bsp::runtime::BspConfig;
use xmt_bsp::Transport;

#[derive(Serialize)]
struct AblationRow {
    algorithm: String,
    transport: String,
    procs: usize,
    seconds: f64,
}

fn main() {
    let cfg = HarnessConfig::from_args(16);
    let model = cfg.model();

    eprintln!("ablation_queue: building RMAT scale {} ...", cfg.scale);
    let g = build_paper_graph(&cfg);
    let source = pick_bfs_source(&g);

    let transports = [
        ("outbox", Transport::PerThreadOutbox),
        ("single-queue", Transport::SingleQueue),
    ];

    let mut rows = Vec::new();
    for (tname, transport) in transports {
        let config = BspConfig {
            transport,
            ..Default::default()
        };
        eprintln!("running CC + BFS with {tname} transport ...");
        let cc = run_cc(&g, config);
        let bfs = run_bfs(&g, source, config);
        for &p in &cfg.procs {
            rows.push(AblationRow {
                algorithm: "Connected Components".into(),
                transport: tname.into(),
                procs: p,
                seconds: total_seconds(&cc.bsp_rec, &model, p),
            });
            rows.push(AblationRow {
                algorithm: "Breadth-first Search".into(),
                transport: tname.into(),
                procs: p,
                seconds: total_seconds(&bfs.bsp_rec, &model, p),
            });
        }
    }

    println!();
    println!("ABLATION — BSP message transport (§VII): predicted seconds");
    for alg in ["Connected Components", "Breadth-first Search"] {
        println!("\n[{alg}]");
        let mut header: Vec<String> = vec!["transport".into()];
        header.extend(cfg.procs.iter().map(|p| format!("P={p}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&header_refs);
        for (tname, _) in transports {
            let mut row = vec![tname.to_string()];
            for &p in &cfg.procs {
                let secs = rows
                    .iter()
                    .find(|r| r.algorithm == alg && r.transport == tname && r.procs == p)
                    .map(|r| r.seconds)
                    .unwrap();
                row.push(fmt_secs(secs));
            }
            t.row(&row);
        }
        t.print();
        // Scaling factor from the smallest to the largest machine.
        let p_lo = cfg.procs[0];
        let p_hi = cfg.max_procs();
        for (tname, _) in transports {
            let find = |p: usize| {
                rows.iter()
                    .find(|r| r.algorithm == alg && r.transport == tname && r.procs == p)
                    .map(|r| r.seconds)
                    .unwrap()
            };
            println!(
                "  {tname}: {:.1}x speedup {}→{} procs",
                find(p_lo) / find(p_hi),
                p_lo,
                p_hi
            );
        }
    }

    if let Some(dir) = &cfg.out_dir {
        write_json(dir, "ablation_queue", &rows).expect("write results");
    }
}
