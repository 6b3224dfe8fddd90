//! Ablation of the triangle-counting hot path (the paper's §VI: "the
//! exact mechanisms of performing the neighbor intersection can be
//! varied — see ref 12"), on both execution engines:
//!
//! * `merge` — the paper-faithful id-order merge walk (baseline);
//! * `dag+hash` — degree-ordered DAG sweep with epoch-stamped
//!   mark-array probing (`tc.c`);
//! * `dag+auto` — DAG sweep with the per-pair adaptive strategy.
//!
//! (The id-order `binsearch` and `hash` cells were measured in PR 10 —
//! 0.99× and 3.05× — and retired; EXPERIMENTS.md keeps the rows.)
//!
//! Every row is agreement-asserted against the merge baseline
//! before timing, on the simulator-faithful (`fixed`) and native
//! (`guided`) executors both.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin ablation_intersect [-- --scale N]
//! ```

use std::time::Instant;

use serde::Serialize;

use graphct::{IntersectStrategy, TcScratch};
use xmt_bench::output::fmt_secs;
use xmt_bench::run::total_seconds;
use xmt_bench::{build_paper_graph, write_json, HarnessConfig, Table};
use xmt_graph::ops::dag::dag_view;
use xmt_graph::Csr;
use xmt_model::Recorder;
use xmt_par::Executor;

/// Timed repetitions per configuration (best-of to shed warmup noise).
const REPS: usize = 3;

#[derive(Serialize)]
struct IntersectRow {
    strategy: String,
    engine: String,
    adjacency_reads: u64,
    seconds_at_max_procs: f64,
    host_seconds: f64,
    speedup_vs_merge: f64,
}

/// One row under one executor: an instrumented pass (model counts +
/// agreement check) and `REPS` timed passes.  `dag` carries the DAG view
/// and the strategy sweeping it; `None` is the id-order merge baseline.
fn measure(
    label: &str,
    g: &Csr,
    dag: Option<(&Csr, IntersectStrategy)>,
    exec: &Executor,
    scratch: &mut TcScratch,
    want: u64,
) -> (Recorder, f64) {
    let run = |rec: Option<&mut Recorder>, scratch: &mut TcScratch| {
        let mut ctx = graphct::Ctx {
            exec: exec.clone(),
            rec,
            ..Default::default()
        };
        match dag {
            Some((dag, strategy)) => graphct::count_triangles_dag(dag, strategy, &mut ctx, scratch),
            None => graphct::count_triangles_idorder(g, &mut ctx),
        }
    };
    let mut rec = Recorder::new();
    let count = run(Some(&mut rec), scratch);
    assert_eq!(count, want, "{label}: strategies must agree");
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        let count = run(None, scratch);
        best = best.min(t.elapsed().as_secs_f64());
        assert_eq!(count, want, "{label}: strategies must agree");
    }
    (rec, best)
}

fn main() {
    let cfg = HarnessConfig::from_args(16);
    let model = cfg.model();
    let pmax = cfg.max_procs();

    eprintln!("ablation_intersect: building RMAT scale {} ...", cfg.scale);
    let g = build_paper_graph(&cfg);

    eprintln!("reference count (merge walk) ...");
    let want = graphct::count_triangles_idorder(&g, &mut graphct::Ctx::default());

    let t = Instant::now();
    let dag = dag_view(&g);
    let dag_build = t.elapsed().as_secs_f64();

    // (row label, DAG strategy — `None` is the id-order merge baseline)
    let strategies: [(&str, Option<IntersectStrategy>); 3] = [
        ("merge", None),
        ("dag+hash", Some(IntersectStrategy::Hash)),
        ("dag+auto", Some(IntersectStrategy::Auto)),
    ];

    let mut rows = Vec::new();
    for (engine, exec) in [
        ("sim-host", Executor::fixed()),
        ("native", Executor::guided()),
    ] {
        let mut scratch = TcScratch::new();
        let mut merge_host = f64::INFINITY;
        for (name, strategy) in strategies {
            eprintln!("{engine}: {name} ...");
            let (rec, host) = measure(
                name,
                &g,
                strategy.map(|s| (&dag, s)),
                &exec,
                &mut scratch,
                want,
            );
            if name == "merge" {
                merge_host = host;
            }
            rows.push(IntersectRow {
                strategy: name.to_string(),
                engine: engine.to_string(),
                adjacency_reads: rec.total().reads,
                seconds_at_max_procs: total_seconds(&rec, &model, pmax),
                host_seconds: host,
                speedup_vs_merge: merge_host / host.max(1e-12),
            });
        }
    }

    println!();
    println!(
        "ABLATION — triangle intersection strategy × engine, RMAT scale {} ({want} triangles; \
         dag_view build {} — amortized across repeated counts)",
        cfg.scale,
        fmt_secs(dag_build)
    );
    let mut t = Table::new(&[
        "strategy",
        "engine",
        "adjacency reads",
        &format!("XMT time @ P={pmax}"),
        "host time",
        "speedup vs merge",
    ]);
    for r in &rows {
        t.row(&[
            r.strategy.clone(),
            r.engine.clone(),
            r.adjacency_reads.to_string(),
            fmt_secs(r.seconds_at_max_procs),
            fmt_secs(r.host_seconds),
            format!("{:.2}x", r.speedup_vs_merge),
        ]);
    }
    t.print();

    println!();
    for engine in ["sim-host", "native"] {
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.engine == engine && r.strategy == name)
                .expect("row exists")
        };
        let speedup = get("dag+hash").speedup_vs_merge;
        println!(
            "{engine}: dag+hash is {speedup:.2}x the merge-walk baseline{}",
            if speedup >= 2.0 {
                " — meets the >=2x target"
            } else {
                " — BELOW the >=2x target"
            }
        );
    }

    if let Some(dir) = &cfg.out_dir {
        write_json(dir, "ablation_intersect", &rows).expect("write results");
    }
}
