//! Beyond the paper's figures: the Fig. 1/2 series measured through the
//! live service, a Graph500-style BFS and the model's calibration.

use std::time::{Duration, Instant};

use serde::Serialize;
use xmt_bsp::algorithms::bfs::bsp_bfs;
use xmt_graph::validate::validate_bfs;
use xmt_model::{ModelParams, PhaseCounts, Recorder};
use xmt_service::{parse_request, JobState, Request, Service, ServiceConfig};
use xmt_sim::{kernels, MachineConfig};
use xmt_trace::JobTrace;

use super::graph;
use crate::output::{rec, say};
use crate::run::total_seconds;
use crate::{pick_bfs_source, HarnessConfig, Output};

/// The Fig. 1/Fig. 2 per-iteration series from a **live service run**:
/// CC and BFS jobs on both engines go through the in-process
/// [`Service`] exactly as wire submissions would, and each job's
/// superstep trace comes back out of the scheduler.  Where `fig1`/`fig2`
/// *predict* per-superstep cost with the machine model, this *measures*
/// it; the two views should agree on shape.  Writes `fig1_service.csv`
/// (CC) and `fig2_service.csv` (BFS), one row per superstep.  Built
/// without the `trace` feature, the traces are empty.
#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "an artifact aborts when the service refuses its own jobs"
)]
pub(super) fn fig_service(cfg: &HarnessConfig) -> Output {
    let graph = graph(cfg);
    let source = pick_bfs_source(&graph);
    // One worker serializes the jobs, so traces never contend for the pool.
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        memory_budget_bytes: 0,
    });
    service
        .registry()
        .register("rmat", (*graph).clone())
        .expect("register graph");

    let mut out = Output::default();
    let titles = [
        "FIGURE 1 (service) — CC wall-clock seconds per superstep/iteration",
        "FIGURE 2 (service) — BFS wall-clock seconds per superstep/level",
    ];
    for ((algorithm, file), title) in [("cc", "fig1_service"), ("bfs", "fig2_service")]
        .into_iter()
        .zip(titles)
    {
        say!(out, "{title}");
        let mut csv = format!("{}\n", JobTrace::CSV_HEADER);
        for engine in ["bsp", "graphct"] {
            // The spec a wire `submit` of this job carries.
            let submit = rec! {
                op: "submit",
                algorithm: algorithm,
                engine: engine,
                graph: "rmat",
                source: source,
            };
            let Ok(Request::Submit { spec }) = parse_request(&submit) else {
                panic!("{algorithm}/{engine}: not a valid submit request");
            };
            let scheduler = service.scheduler();
            let registered = service.registry().get("rmat").expect("graph");
            let id = scheduler.submit(spec, registered).expect("submit");
            let (snap, timed_out) = scheduler
                .wait_terminal(id, Duration::from_secs(3600))
                .expect("wait");
            assert!(!timed_out, "job {id} never finished");
            assert_eq!(
                snap.state,
                JobState::Completed,
                "job {id} failed: {:?}",
                snap.error
            );
            let trace = scheduler.trace(id).expect("trace");
            let (steps, secs) = (trace.supersteps.len(), trace.total_seconds());
            say!(out, "{}: {steps} steps, {secs:.3}s total", trace.label);
            csv.extend(trace.csv_rows().into_iter().map(|row| row + "\n"));
        }
        out.files.push((format!("{file}.csv"), csv));
        say!(out);
    }
    service.shutdown();
    out
}

/// Sources per Graph500 run, fewer only on graphs with fewer non-isolated vertices.
const NUM_SOURCES: usize = 16;

/// A Graph500-style BFS over both programming models: BFS from 16
/// pseudo-random non-isolated sources with full tree validation and TEPS
/// reporting — host wall-clock and simulated XMT at the largest
/// processor count.  (The paper motivates BFS with Graph500 \[21\] and
/// notes that the fastest entries run it in bulk synchronous fashion.)
#[expect(clippy::panic, reason = "an invalid BFS tree aborts the artifact")]
pub(super) fn graph500(cfg: &HarnessConfig) -> Output {
    let (g, model, pmax) = (graph(cfg), cfg.model(), cfg.max_procs());
    // Pseudo-random non-isolated sources, deterministic in the seed.
    let live = (0..g.num_vertices()).filter(|&v| g.degree(v) > 0).count();
    let mut sources = Vec::new();
    let mut x = cfg.seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    while sources.len() < NUM_SOURCES.min(live) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let v = x.wrapping_mul(0x2545f4914f6cdd1d) % g.num_vertices();
        if g.degree(v) > 0 && !sources.contains(&v) {
            sources.push(v);
        }
    }

    let mut out = Output::titled(&format!(
        "GRAPH500-STYLE BFS — scale {}, {} sources, simulated {pmax}-processor XMT",
        cfg.scale,
        sources.len()
    ));
    let (mut rows, mut teps) = (Vec::new(), Vec::new());
    for &source in &sources {
        let mut ct_rec = Recorder::new();
        let clock = Instant::now();
        let ct = graphct::bfs_with(&g, source, &mut graphct::Ctx::recording(&mut ct_rec));
        let ct_host = clock.elapsed().as_secs_f64();
        validate_bfs(&g, source, &ct.dist, &ct.parent)
            .unwrap_or_else(|e| panic!("source {source}: invalid shared-memory tree: {e}"));
        let mut bsp_rec = Recorder::new();
        let clock = Instant::now();
        let bsp = bsp_bfs(&g, source, Some(&mut bsp_rec));
        let bsp_host = clock.elapsed().as_secs_f64();
        validate_bfs(&g, source, &bsp.dist(), &bsp.parent())
            .unwrap_or_else(|e| panic!("source {source}: invalid BSP tree: {e}"));
        assert_eq!(bsp.dist(), ct.dist, "models disagree from source {source}");

        let reached = ct.dist.iter().filter(|&&d| d != u64::MAX).count() as u64;
        let traversed: u64 = (0..g.num_vertices())
            .filter(|&v| ct.dist[v as usize] != u64::MAX)
            .map(|v| g.degree(v))
            .sum::<u64>()
            / 2;
        let levels = ct.frontier_sizes.len();
        let per_sec = [
            ct_host,
            bsp_host,
            total_seconds(&ct_rec, &model, pmax),
            total_seconds(&bsp_rec, &model, pmax),
        ]
        .map(|secs| traversed as f64 / secs);
        rows.push(rec! {
            source: source,
            reached: reached,
            levels: levels,
            traversed_edges: traversed,
            graphct_host_teps: per_sec[0],
            bsp_host_teps: per_sec[1],
            graphct_sim_teps: per_sec[2],
            bsp_sim_teps: per_sec[3],
        });
        teps.push(per_sec);
    }
    out.records(&rows);
    // Graph500 reports the harmonic mean of TEPS.
    let hmean = |i: usize| teps.len() as f64 / teps.iter().map(|r| 1.0 / r[i]).sum::<f64>() / 1e9;
    say!(
        out,
        "\nharmonic-mean GTEPS: GraphCT host {:.3} | BSP host {:.3} | \
         GraphCT sim-XMT {:.3} | BSP sim-XMT {:.3}",
        hmean(0),
        hmean(1),
        hmean(2),
        hmean(3),
    );
    say!(out, "all {} trees validated", sources.len());
    out.json("graph500", &rows);
    out
}

/// Derive the analytic-model constants from the discrete-event
/// Threadstorm simulator and validate the model against it: the
/// calibrated constants, then model-predicted vs simulated cycles for
/// self-scheduled parallel loops of several shapes (memory-bound,
/// compute-bound, low-parallelism).  Ignores `--scale`.
pub(super) fn calibrate(_cfg: &HarnessConfig) -> Output {
    let machine = MachineConfig::default();
    // The constants of `machine`, on the 16-stream processors the
    // validation loops run on.
    let model = ModelParams {
        streams_per_proc: 16,
        ..ModelParams::from_calibration(&machine)
    };
    let mut out = Output::titled(&format!(
        "calibrated constants (machine: {} procs x {} streams @ {} MHz):",
        machine.processors,
        machine.streams_per_proc,
        machine.clock_hz / 1e6
    ));
    out.records([&model.to_content()]);
    let pinned = ModelParams::default();
    say!(out, "\npinned defaults used by the harness:");
    out.records([&pinned.to_content()]);

    // Validation: self-scheduled loops on small machines, sim vs model.
    let (mut rows, mut worst) = (Vec::new(), 0.0f64);
    for procs in [1usize, 2, 4, 8] {
        let sim_cfg = MachineConfig {
            processors: procs,
            streams_per_proc: 16,
            ..machine
        };
        let shapes = [
            ("memory-bound", 4000, 1, 4),
            ("compute-bound", 4000, 16, 1),
            ("low-parallelism", 64, 2, 2),
        ];
        for (kernel, items, alu, loads) in shapes {
            let stats = kernels::parallel_loop(&sim_cfg, items, alu, loads);
            assert!(!stats.hit_cycle_limit, "kernel did not finish");
            let mut counts = PhaseCounts::with_items(items as u64);
            counts.alu_ops = items as u64 * alu as u64;
            counts.reads = (items * loads) as u64;
            // Claim fetch-adds: one per chunk, as the kernel issues them.
            let chunk = (items / (sim_cfg.total_streams() * 4)).clamp(1, 256) as u64;
            counts.hotspot_ops = (items as u64).div_ceil(chunk) + sim_cfg.total_streams() as u64;
            let (sim_cycles, model_cycles) = (stats.cycles, counts.predict_cycles(&model, procs));
            let error_pct = (model_cycles - sim_cycles as f64) / sim_cycles as f64 * 100.0;
            worst = worst.max(error_pct.abs());
            rows.push(rec! {
                kernel: kernel,
                procs: procs,
                sim_cycles: sim_cycles,
                model_cycles: model_cycles,
                error_pct: error_pct,
            });
        }
    }
    say!(
        out,
        "\nmodel-vs-simulator validation (self-scheduled parallel loops):"
    );
    out.records(&rows);
    say!(out, "\nworst-case |error|: {worst:.0}%");
    out.json("calibration", &rows);
    out
}
