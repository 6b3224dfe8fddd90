//! Ablation of Pregel's message combiner (Pregel §3.2): with a min
//! combiner, each vertex's inbox collapses to one message before
//! `compute` runs; without it every raw message is delivered.
//!
//! (`results/ablation_combiner_sender.json` is the dated output of a
//! second table this binary printed while the runtime could also fold at
//! the sender; EXPERIMENTS.md says what it did and did not measure.)
//!
//! ```text
//! cargo run --release -p xmt-bench --bin ablation_combiner [-- --scale N]
//! ```

use serde::Serialize;

use xmt_bench::output::fmt_secs;
use xmt_bench::run::total_seconds;
use xmt_bench::{build_paper_graph, pick_bfs_source, write_json, HarnessConfig, Table};
use xmt_bsp::algorithms::bfs::BfsProgram;
use xmt_bsp::algorithms::components::CcProgram;
use xmt_bsp::program::WithoutCombiner;
use xmt_bsp::runtime::{run_bsp, BspConfig};
use xmt_model::Recorder;

#[derive(Serialize)]
struct CombinerRow {
    algorithm: String,
    combiner: bool,
    delivered_messages: u64,
    seconds_at_max_procs: f64,
}

fn main() {
    let cfg = HarnessConfig::from_args(16);
    let model = cfg.model();
    let pmax = cfg.max_procs();

    eprintln!("ablation_combiner: building RMAT scale {} ...", cfg.scale);
    let g = build_paper_graph(&cfg);
    let source = pick_bfs_source(&g);

    let mut rows = Vec::new();

    // Connected components, with and without the min combiner.
    eprintln!("running connected components ...");
    let mut with_rec = Recorder::new();
    let with = run_bsp(&g, &CcProgram, BspConfig::default(), Some(&mut with_rec));
    let mut without_rec = Recorder::new();
    let without = run_bsp(
        &g,
        &WithoutCombiner(CcProgram),
        BspConfig::default(),
        Some(&mut without_rec),
    );
    assert_eq!(
        with.states, without.states,
        "combiner must not change results"
    );
    for (rec, r, comb) in [(&with_rec, &with, true), (&without_rec, &without, false)] {
        rows.push(CombinerRow {
            algorithm: "Connected Components".into(),
            combiner: comb,
            delivered_messages: r.superstep_stats.iter().map(|s| s.messages_delivered).sum(),
            seconds_at_max_procs: total_seconds(rec, &model, pmax),
        });
    }

    // BFS, with and without.
    eprintln!("running breadth-first search ...");
    let prog = BfsProgram { source };
    let mut with_rec = Recorder::new();
    let with = run_bsp(&g, &prog, BspConfig::default(), Some(&mut with_rec));
    let mut without_rec = Recorder::new();
    let without = run_bsp(
        &g,
        &WithoutCombiner(BfsProgram { source }),
        BspConfig::default(),
        Some(&mut without_rec),
    );
    let d_with: Vec<u64> = with.states.iter().map(|s| s.dist).collect();
    let d_without: Vec<u64> = without.states.iter().map(|s| s.dist).collect();
    assert_eq!(d_with, d_without, "combiner must not change results");
    for (rec, r, comb) in [(&with_rec, &with, true), (&without_rec, &without, false)] {
        rows.push(CombinerRow {
            algorithm: "Breadth-first Search".into(),
            combiner: comb,
            delivered_messages: r.superstep_stats.iter().map(|s| s.messages_delivered).sum(),
            seconds_at_max_procs: total_seconds(rec, &model, pmax),
        });
    }

    println!();
    println!("ABLATION — message combiner, RMAT scale {}", cfg.scale);
    let mut t = Table::new(&[
        "algorithm",
        "combiner",
        "delivered msgs",
        &format!("time @ P={pmax}"),
    ]);
    for r in &rows {
        t.row(&[
            r.algorithm.clone(),
            if r.combiner {
                "min".into()
            } else {
                "none".into()
            },
            r.delivered_messages.to_string(),
            fmt_secs(r.seconds_at_max_procs),
        ]);
    }
    t.print();
    println!();
    for pair in rows.chunks(2) {
        println!(
            "{}: combiner cuts delivered messages {:.1}x and time {:.2}x",
            pair[0].algorithm,
            pair[1].delivered_messages as f64 / pair[0].delivered_messages.max(1) as f64,
            pair[1].seconds_at_max_procs / pair[0].seconds_at_max_procs,
        );
    }

    if let Some(dir) = &cfg.out_dir {
        write_json(dir, "ablation_combiner", &rows).expect("write results");
    }
}
