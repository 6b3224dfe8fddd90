//! Regenerate the Fig. 1/Fig. 2 per-iteration series from a **live
//! service run**: submit CC and BFS jobs through the in-process
//! [`Service`], pull each job's superstep trace back out of the
//! scheduler, and dump the wall-clock series as CSV.
//!
//! Where `fig1`/`fig2` *predict* per-superstep cost with the analytic
//! machine model, this binary *measures* it — the trace layer records
//! scan/compute/exchange wall-clock per superstep while the job runs
//! under the scheduler exactly as a wire submission would.  The two
//! views should agree on shape: a few expensive near-whole-graph
//! supersteps followed by a long cheap tail for BSP CC, near-constant
//! iterations for GraphCT CC, and frontier-shaped levels for BFS.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin fig_service [-- --scale N --out DIR]
//! ```
//!
//! With `--out DIR` writes `fig1_service.csv` (CC, both engines) and
//! `fig2_service.csv` (BFS, both engines) with one row per superstep:
//! `label,superstep,seconds,active,messages_sent,...`.

use std::time::Duration;

use xmt_bench::{build_paper_graph, pick_bfs_source, write_csv, HarnessConfig, Table};
use xmt_bsp::BspConfig;
use xmt_service::{Algorithm, Engine, JobSpec, JobState, Service, ServiceConfig};
use xmt_trace::JobTrace;

fn main() {
    let cfg = HarnessConfig::from_args(12);
    if !xmt_trace::ENABLED {
        eprintln!(
            "fig_service: built without the `trace` feature; traces will be empty. \
             Rebuild with default features (the service enables tracing by default)."
        );
    }

    eprintln!("fig_service: building RMAT scale {} ...", cfg.scale);
    let graph = build_paper_graph(&cfg);
    let source = pick_bfs_source(&graph);

    let service = Service::new(ServiceConfig {
        workers: 1, // serialize jobs so traces never contend for the pool
        queue_capacity: 16,
        memory_budget_bytes: 0,
    });
    service
        .registry()
        .register("rmat", graph)
        .expect("register graph");

    let spec = |algorithm: Algorithm, engine: Engine| JobSpec {
        algorithm,
        engine,
        graph: "rmat".to_string(),
        source,
        damping: 0.85,
        tolerance: 1e-7,
        intersect: xmt_graph::IntersectStrategy::Auto,
        config: BspConfig::default(),
        priority: 0,
        deadline_ms: None,
    };

    let mut fig1 = Vec::new(); // CC per-iteration series (paper Fig. 1)
    let mut fig2 = Vec::new(); // BFS per-level series (paper Fig. 2)
    for (algorithm, engine) in [
        (Algorithm::Cc, Engine::Bsp),
        (Algorithm::Cc, Engine::GraphCt),
        (Algorithm::Bfs, Engine::Bsp),
        (Algorithm::Bfs, Engine::GraphCt),
    ] {
        let trace = run_traced(&service, spec(algorithm, engine));
        eprintln!(
            "  {}: {} steps, {:.3}s traced",
            trace.label,
            trace.supersteps.len(),
            trace.total_seconds()
        );
        match algorithm {
            Algorithm::Cc => fig1.push(trace),
            _ => fig2.push(trace),
        }
    }

    println!();
    println!("FIGURE 1 (service) — CC wall-clock seconds per superstep/iteration");
    print_series(&fig1);
    println!();
    println!("FIGURE 2 (service) — BFS wall-clock seconds per superstep/level");
    print_series(&fig2);

    if let Some(dir) = &cfg.out_dir {
        let rows = |traces: &[JobTrace]| -> Vec<String> {
            traces.iter().flat_map(|t| t.csv_rows()).collect()
        };
        write_csv(dir, "fig1_service", JobTrace::CSV_HEADER, &rows(&fig1))
            .expect("write fig1_service.csv");
        write_csv(dir, "fig2_service", JobTrace::CSV_HEADER, &rows(&fig2))
            .expect("write fig2_service.csv");
    }

    service.shutdown();
}

fn run_traced(service: &Service, spec: JobSpec) -> JobTrace {
    let graph = service.registry().get(&spec.graph).expect("graph");
    let id = service.scheduler().submit(spec, graph).expect("submit");
    let (snap, timed_out) = service
        .scheduler()
        .wait_terminal(id, Duration::from_secs(3600))
        .expect("wait");
    assert!(!timed_out, "job {id} never finished");
    assert_eq!(
        snap.state,
        JobState::Completed,
        "job {id} failed: {:?}",
        snap.error
    );
    service.scheduler().trace(id).expect("trace")
}

fn print_series(traces: &[JobTrace]) {
    let mut t = Table::new(&["label", "step", "seconds", "active", "messages"]);
    for trace in traces {
        for s in &trace.supersteps {
            t.row(&[
                trace.label.clone(),
                s.superstep.to_string(),
                format!("{:.3e}", s.total_ns as f64 / 1e9),
                s.active.to_string(),
                s.messages_sent.to_string(),
            ]);
        }
    }
    t.print();
    for trace in traces {
        println!(
            "{}: {} steps, {:.3}s total",
            trace.label,
            trace.supersteps.len(),
            trace.total_seconds()
        );
    }
}
