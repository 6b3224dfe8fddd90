//! Ablation of BFS delivery direction: static push, static pull and the
//! Beamer alpha/beta `Auto`.  The point of direction
//! optimization is the apex superstep: a push there ships one message
//! per frontier edge, while a bottom-up pull gathers with early exit
//! and ships nothing.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin ablation_direction [-- --scale N]
//! ```

use serde::Serialize;

use xmt_bench::output::fmt_secs;
use xmt_bench::run::{run_bfs, total_seconds};
use xmt_bench::{build_paper_graph, pick_bfs_source, write_json, HarnessConfig, Table};
use xmt_bsp::runtime::{BspConfig, Delivery};

#[derive(Serialize)]
struct DirectionRow {
    config: String,
    superstep: u64,
    active: u64,
    messages_sent: u64,
    pulled: bool,
    pull_probes: u64,
}

#[derive(Serialize)]
struct DirectionSummary {
    config: String,
    supersteps: u64,
    total_messages: u64,
    apex_messages: u64,
    total_probes: u64,
    predicted_seconds_at_max_procs: f64,
}

#[derive(Serialize)]
struct DirectionOut {
    rows: Vec<DirectionRow>,
    summary: Vec<DirectionSummary>,
}

fn main() {
    let cfg = HarnessConfig::from_args(14);
    let model = cfg.model();
    let pmax = cfg.max_procs();

    eprintln!("ablation_direction: building RMAT scale {} ...", cfg.scale);
    let g = build_paper_graph(&cfg);
    let source = pick_bfs_source(&g);

    let configs: [(&str, BspConfig); 3] = [
        (
            "static-push",
            BspConfig {
                delivery: Delivery::Push,
                ..Default::default()
            },
        ),
        (
            "static-pull",
            BspConfig {
                delivery: Delivery::Pull,
                ..Default::default()
            },
        ),
        (
            "beamer-auto",
            BspConfig {
                delivery: Delivery::Auto,
                ..Default::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    let mut summary = Vec::new();
    let mut reference_dist: Option<Vec<u64>> = None;
    for (name, config) in configs {
        eprintln!("running BFS with {name} delivery ...");
        // `run_bfs` already cross-checks the distances against graphct's
        // shared-memory BFS; on top of that, every config must agree
        // with the first.
        let bfs = run_bfs(&g, source, config);
        let dist: Vec<u64> = bfs.bsp.states.iter().map(|s| s.dist).collect();
        match &reference_dist {
            None => reference_dist = Some(dist),
            Some(reference) => {
                assert_eq!(
                    reference, &dist,
                    "{name} distances diverge from static-push"
                );
            }
        }

        let mut total_messages = 0u64;
        let mut apex_messages = 0u64;
        let mut total_probes = 0u64;
        for (step, s) in bfs.bsp.superstep_stats.iter().enumerate() {
            total_messages += s.messages_sent;
            apex_messages = apex_messages.max(s.messages_sent);
            total_probes += s.pull_probes;
            rows.push(DirectionRow {
                config: name.into(),
                superstep: step as u64,
                active: s.active,
                messages_sent: s.messages_sent,
                pulled: s.pulled,
                pull_probes: s.pull_probes,
            });
        }
        summary.push(DirectionSummary {
            config: name.into(),
            supersteps: bfs.bsp.supersteps,
            total_messages,
            apex_messages,
            total_probes,
            predicted_seconds_at_max_procs: total_seconds(&bfs.bsp_rec, &model, pmax),
        });
    }

    println!();
    println!(
        "ABLATION — BFS delivery direction (messages shipped per superstep), RMAT scale {}",
        cfg.scale
    );
    let names: Vec<&str> = summary.iter().map(|s| s.config.as_str()).collect();
    let mut header = vec!["superstep"];
    header.extend(names.iter().copied());
    let mut t = Table::new(&header);
    let max_step = rows.iter().map(|r| r.superstep).max().unwrap_or(0);
    for step in 0..=max_step {
        let mut cells = vec![step.to_string()];
        for name in &names {
            let cell = rows
                .iter()
                .find(|r| r.config == *name && r.superstep == step)
                .map(|r| {
                    if r.pulled {
                        format!("pull ({} probes)", r.pull_probes)
                    } else {
                        format!("{} msgs", r.messages_sent)
                    }
                })
                .unwrap_or_else(|| "-".into());
            cells.push(cell);
        }
        t.row(&cells);
    }
    t.print();

    println!();
    let mut s = Table::new(&[
        "config",
        "supersteps",
        "total msgs",
        "apex msgs",
        "probes",
        "predicted",
    ]);
    for row in &summary {
        s.row(&[
            row.config.clone(),
            row.supersteps.to_string(),
            row.total_messages.to_string(),
            row.apex_messages.to_string(),
            row.total_probes.to_string(),
            fmt_secs(row.predicted_seconds_at_max_procs),
        ]);
    }
    s.print();

    let push_apex = summary[0].apex_messages;
    let beamer_apex = summary[2].apex_messages.max(1);
    let ratio = push_apex as f64 / beamer_apex as f64;
    println!();
    println!(
        "apex message volume: static-push ships {push_apex}, beamer-auto ships {} ({ratio:.0}x \
less): the alpha rule flips the apex supersteps bottom-up, so the heavy frontier is gathered \
with early exit instead of shipped.",
        summary[2].apex_messages
    );
    assert!(
        ratio >= 10.0,
        "expected >=10x apex message reduction, got {ratio:.1}x"
    );

    if let Some(dir) = &cfg.out_dir {
        write_json(dir, "ablation_direction", &DirectionOut { rows, summary })
            .expect("write results");
    }
}
