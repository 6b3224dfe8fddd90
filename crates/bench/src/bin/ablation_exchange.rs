//! Ablation of the superstep exchange itself: message transport
//! (per-worker outboxes vs the single fetch-and-add queue) crossed with
//! delivery mode (push vs pull vs the adaptive auto policy), for the
//! paper's three algorithm families, in model time.  A pulled superstep
//! ships nothing (`messages_sent` < `messages_generated`), which is
//! where the delivery rows differ.  The two `push` rows are the paper's
//! §VII remark in numbers ("serialization around a single atomic
//! fetch-and-add is possible, inhibiting scalability"): every message of
//! the single queue goes through one hot word, so its time flattens at
//! the hotspot floor while the outboxes keep scaling.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin ablation_exchange [-- --scale N --out DIR]
//! ```

use serde::Serialize;

use xmt_bench::output::fmt_secs;
use xmt_bench::run::{run_bfs, run_cc, total_seconds};
use xmt_bench::{build_paper_graph, pick_bfs_source, write_json, HarnessConfig, Table};
use xmt_bsp::algorithms::pagerank::{bsp_pagerank_with_config, PagerankProgram};
use xmt_bsp::runtime::{BspConfig, Delivery, SuperstepStats};
use xmt_bsp::Transport;
use xmt_model::Recorder;

#[derive(Serialize)]
struct ExchangeRow {
    algorithm: String,
    transport: String,
    delivery: String,
    procs: usize,
    seconds: f64,
    messages_generated: u64,
    messages_sent: u64,
    pulled_supersteps: u64,
    supersteps: u64,
}

const TRANSPORTS: [(&str, Transport); 2] = [
    ("outbox", Transport::PerThreadOutbox),
    ("single-queue", Transport::SingleQueue),
];

const DELIVERIES: [(&str, Delivery); 3] = [
    ("push", Delivery::Push),
    ("pull", Delivery::Pull),
    ("auto", Delivery::Auto),
];

fn tally(stats: &[SuperstepStats]) -> (u64, u64, u64) {
    let generated = stats.iter().map(|s| s.messages_generated).sum();
    let sent = stats.iter().map(|s| s.messages_sent).sum();
    let pulled = stats.iter().filter(|s| s.pulled).count() as u64;
    (generated, sent, pulled)
}

fn main() {
    let cfg = HarnessConfig::from_args(16);
    let model = cfg.model();

    eprintln!("ablation_exchange: building RMAT scale {} ...", cfg.scale);
    let g = build_paper_graph(&cfg);
    let source = pick_bfs_source(&g);

    let mut rows: Vec<ExchangeRow> = Vec::new();
    for (tname, transport) in TRANSPORTS {
        for (dname, delivery) in DELIVERIES {
            let config = BspConfig {
                transport,
                delivery,
                ..Default::default()
            };
            eprintln!("running CC + BFS + PageRank with {tname}/{dname} ...");

            let cc = run_cc(&g, config);
            let (generated, sent, pulled) = tally(&cc.bsp.superstep_stats);
            for &p in &cfg.procs {
                rows.push(ExchangeRow {
                    algorithm: "Connected Components".into(),
                    transport: tname.into(),
                    delivery: dname.into(),
                    procs: p,
                    seconds: total_seconds(&cc.bsp_rec, &model, p),
                    messages_generated: generated,
                    messages_sent: sent,
                    pulled_supersteps: pulled,
                    supersteps: cc.bsp.supersteps,
                });
            }

            let bfs = run_bfs(&g, source, config);
            let (generated, sent, pulled) = tally(&bfs.bsp.superstep_stats);
            for &p in &cfg.procs {
                rows.push(ExchangeRow {
                    algorithm: "Breadth-first Search".into(),
                    transport: tname.into(),
                    delivery: dname.into(),
                    procs: p,
                    seconds: total_seconds(&bfs.bsp_rec, &model, p),
                    messages_generated: generated,
                    messages_sent: sent,
                    pulled_supersteps: pulled,
                    supersteps: bfs.bsp.supersteps,
                });
            }

            let mut pr_rec = Recorder::new();
            let pr = bsp_pagerank_with_config(
                &g,
                PagerankProgram::default(),
                500,
                config,
                Some(&mut pr_rec),
            );
            assert!(!pr.hit_superstep_limit, "PageRank did not converge");
            let (generated, sent, pulled) = tally(&pr.superstep_stats);
            for &p in &cfg.procs {
                rows.push(ExchangeRow {
                    algorithm: "PageRank".into(),
                    transport: tname.into(),
                    delivery: dname.into(),
                    procs: p,
                    seconds: total_seconds(&pr_rec, &model, p),
                    messages_generated: generated,
                    messages_sent: sent,
                    pulled_supersteps: pulled,
                    supersteps: pr.supersteps,
                });
            }
        }
    }

    let pmax = cfg.max_procs();
    let find = |alg: &str, t: &str, d: &str, p: usize| -> &ExchangeRow {
        rows.iter()
            .find(|r| r.algorithm == alg && r.transport == t && r.delivery == d && r.procs == p)
            .unwrap()
    };

    println!();
    println!(
        "ABLATION — exchange transport x delivery, RMAT scale {}: predicted seconds",
        cfg.scale
    );
    for alg in ["Connected Components", "Breadth-first Search", "PageRank"] {
        println!("\n[{alg}]");
        let mut header: Vec<String> = vec!["transport/delivery".into()];
        header.extend(cfg.procs.iter().map(|p| format!("P={p}")));
        header.push("sent msgs".into());
        header.push("pulled".into());
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&header_refs);
        for (tname, _) in TRANSPORTS {
            for (dname, _) in DELIVERIES {
                let mut row = vec![format!("{tname}/{dname}")];
                for &p in &cfg.procs {
                    row.push(fmt_secs(find(alg, tname, dname, p).seconds));
                }
                let r = find(alg, tname, dname, pmax);
                row.push(r.messages_sent.to_string());
                row.push(format!("{}/{}", r.pulled_supersteps, r.supersteps));
                t.row(&row);
            }
        }
        t.print();
    }

    if let Some(dir) = &cfg.out_dir {
        write_json(dir, "ablation_exchange", &rows).expect("write results");
    }
}
