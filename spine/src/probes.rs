//! The layer probes: every per-layer metric, measured from outside by
//! timing calls into public functions on small pinned inputs.
//!
//! Every traced run executes the same probes whatever its workload, so
//! each per-layer metric means the same thing in every result and none
//! is a placeholder: the BSP phase split is read from the sink handed
//! to `execute`, the service stages are replayed in process on the
//! lines of the service mix, and a short closed loop and a short update
//! stream against a private loopback server give the queue, run,
//! apply and snapshot figures the server itself reports.  How a
//! workload's own time divides over the layers is in its spans
//! (`share.*_pct` and `out/<workload>.trace.json`).
//!
//! Counts (supersteps, messages, edges, bytes, cycles) repeat exactly
//! for a seed; times are medians of a few repetitions.

use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Content;
use stinger_lite::StreamingAnalytics;
use xmt_bench::run::{run_bfs, run_cc, run_tc, total_seconds};
use xmt_graph::Csr;
use xmt_par::Executor;
use xmt_service::client::{field, field_u64};
use xmt_service::protocol::{ok, output_content};
use xmt_service::{
    edge_ops, parse_request, Algorithm, Engine, GraphRegistry, JobOutput, Request, Service,
};
use xmt_trace::SuperstepTrace;

use crate::batch::{run_to_completion, spec, spec_of};
use crate::checks::Tally;
use crate::closed::{self, closed_loop, in_process_answers};
use crate::inputs::{
    batch_slices, build_graph, giant_sources, job_mix, register_line, submit_line, update_line,
    update_ring, ALGORITHMS, MIX_BLOCK_LEN,
};
use crate::report::{metric, Metric};
use crate::stats::{median, percentile, sort};
use crate::stream::writer_loop;
use crate::wire::{applied_batches, decode, output_of, run_job, Conn, Live, SERVER};

/// Layers the benchmark's spans are charged to, in report order;
/// `bench` is the root span's self time.
pub const SPAN_LAYERS: [&str; 9] = [
    "bench",
    "service.client",
    "service.server",
    "service.scheduler",
    "service.engine",
    "service.registry",
    "stinger",
    "bsp",
    "graphct",
];

/// Scale of the kernel probe graph (and of the model-cycle checks).
const KERNEL_SCALE: u32 = 13;
/// Scale of the dynamic probe graph; the static one is
/// `service-closed`'s own graph.
const DYNAMIC_SCALE: u32 = 12;
const DYNAMIC: &str = "p12d";
/// Timed repetitions of each kernel call.
const KERNEL_REPS: usize = 3;
/// Jobs of the probe's closed loop, per connection: two blocks of the
/// mix.  The in-process stage replays use the first block.
const LOOP_JOBS: usize = 2 * MIX_BLOCK_LEN;
/// Batches of the probe's update stream.
const STREAM_BATCHES: u64 = 192;
/// Processor count the model predictions are quoted at (Table I).
const MODEL_PROCS: usize = 128;

/// First argument of the child this binary re-runs itself as, with
/// `XMT_PAR_THREADS=1`, for the one-thread side of the speed-up.
pub const SERIAL_CHILD_FLAG: &str = "--serial-child";

const KERNELS: [&str; 4] = ["cc", "bfs", "pagerank", "tc"];

fn med(samples: &[f64]) -> f64 {
    median(samples).expect("a probe took at least one sample")
}

/// Median seconds of `KERNEL_REPS` runs of `call`.
fn timed<T>(mut call: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(KERNEL_REPS);
    let mut last = None;
    for _ in 0..KERNEL_REPS {
        let t = Instant::now();
        last = Some(call());
        times.push(t.elapsed().as_secs_f64());
    }
    (med(&times), last.expect("KERNEL_REPS is at least one"))
}

/// Median microseconds of `call` over `items`.
fn replay_us<I>(items: impl IntoIterator<Item = I>, mut call: impl FnMut(I)) -> f64 {
    let times: Vec<f64> = items
        .into_iter()
        .map(|item| {
            let t = Instant::now();
            call(item);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    med(&times)
}

/// The native-engine call times of the four kernels on the probe graph,
/// one per line: what the serial child prints and the parent measures
/// for itself.
fn native_kernel_seconds(graph: &Arc<Csr>, source: u64) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (slot, algorithm) in out.iter_mut().zip(ALGORITHMS) {
        let job = spec(algorithm, "native", source);
        *slot = timed(|| run_to_completion(&job, graph).expect("native kernel")).0;
    }
    out
}

/// Entry point of the one-thread child: print the four times.
pub fn serial_child() -> ExitCode {
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let graph = Arc::new(build_graph(KERNEL_SCALE).csr);
    let source = giant_sources(&graph, seed, 1)[0];
    for s in native_kernel_seconds(&graph, source) {
        println!("{s:e}");
    }
    ExitCode::SUCCESS
}

/// Run this binary again with a one-worker pool and read its times.
fn serial_kernel_seconds(seed: u64) -> Result<[f64; 4], String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([SERIAL_CHILD_FLAG, &seed.to_string()])
        .env("XMT_PAR_THREADS", "1")
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("serial child exited with {}", out.status));
    }
    let times: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.trim().parse().ok())
        .collect();
    times
        .try_into()
        .map_err(|_| "serial child printed no four times".to_string())
}

struct PhaseSplit {
    call_s: f64,
    scan_s: f64,
    compute_s: f64,
    exchange_s: f64,
    /// The call minus the three phases: frame warm-up, inbox rebuild,
    /// barriers, output conversion.
    other_s: f64,
    records: Vec<SuperstepTrace>,
}

/// One kernel on the native engine with the sink read: the median call
/// time and phase sums over the repetitions, and the last run's records
/// for the exact counts.
fn phase_split(graph: &Arc<Csr>, algorithm: &str, source: u64) -> PhaseSplit {
    let job = spec(algorithm, "native", source);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for _ in 0..KERNEL_REPS {
        let t = Instant::now();
        let (_, _, recs) = run_to_completion(&job, graph).expect("native kernel");
        let call_s = t.elapsed().as_secs_f64();
        let sum = |f: fn(&SuperstepTrace) -> u64| recs.iter().map(f).sum::<u64>() as f64 / 1e9;
        let (scan, compute, exchange) = (
            sum(|r| r.scan_ns),
            sum(|r| r.compute_ns),
            sum(|r| r.exchange_ns),
        );
        rows.push([
            call_s,
            scan,
            compute,
            exchange,
            call_s - scan - compute - exchange,
        ]);
        records = recs;
    }
    let column = |i: usize| med(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    PhaseSplit {
        call_s: column(0),
        scan_s: column(1),
        compute_s: column(2),
        exchange_s: column(3),
        other_s: column(4),
        records,
    }
}

/// `graph`, `par`, `bsp`, `graphct`, `paper`, `xmt-model`, `xmt-sim`.
fn kernel_probes(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>) {
    let builds: Vec<_> = (0..KERNEL_REPS)
        .map(|_| build_graph(KERNEL_SCALE))
        .collect();
    out.push(metric(
        "graph.rmat_gen_s",
        med(&builds.iter().map(|b| b.gen_s).collect::<Vec<_>>()),
        "s",
    ));
    out.push(metric(
        "graph.csr_build_s",
        med(&builds.iter().map(|b| b.build_s).collect::<Vec<_>>()),
        "s",
    ));
    let graph = Arc::new(
        builds
            .into_iter()
            .next()
            .expect("KERNEL_REPS is at least one")
            .csr,
    );
    out.push(metric("graph.edges", graph.num_edges() as f64, "count"));
    out.push(metric(
        "graph.bytes_per_edge",
        graph.memory_bytes() as f64 / graph.num_edges() as f64,
        "B",
    ));
    let source = giant_sources(&graph, seed, 1)[0];

    let exec = Executor::guided();
    let width = 2 * exec.workers();
    out.push(metric(
        "par.dispatch_us",
        replay_us(0..2000, |_| {
            exec.pfor(0, width, |i| {
                std::hint::black_box(i);
            })
        }),
        "us",
    ));

    let serial = serial_kernel_seconds(seed);
    if let Err(e) = &serial {
        tally.record(Err(format!("one-thread child: {e}")));
    }
    let mut native_s = [0.0; 4];
    for (k, (kernel, algorithm)) in KERNELS.iter().zip(ALGORITHMS).enumerate() {
        let split = phase_split(&graph, algorithm, source);
        native_s[k] = split.call_s;
        out.push(metric(format!("bsp.{kernel}.scan_s"), split.scan_s, "s"));
        out.push(metric(
            format!("bsp.{kernel}.compute_s"),
            split.compute_s,
            "s",
        ));
        out.push(metric(
            format!("bsp.{kernel}.exchange_s"),
            split.exchange_s,
            "s",
        ));
        out.push(metric(format!("bsp.{kernel}.other_s"), split.other_s, "s"));
        let count = |f: fn(&SuperstepTrace) -> u64| split.records.iter().map(f).sum::<u64>() as f64;
        out.push(metric(
            format!("bsp.{kernel}.supersteps"),
            split.records.len() as f64,
            "count",
        ));
        out.push(metric(
            format!("bsp.{kernel}.messages_sent"),
            count(|r| r.messages_sent),
            "count",
        ));
        out.push(metric(
            format!("bsp.{kernel}.messages_delivered"),
            count(|r| r.messages_delivered),
            "count",
        ));
        if *kernel == "bfs" {
            out.push(metric(
                "bsp.bfs.pulled_supersteps",
                count(|r| u64::from(r.pulled)),
                "count",
            ));
        }
        if *kernel == "tc" {
            // The candidate wave is the largest superstep of the run:
            // one message per wedge that may close into a triangle.
            let wave = split
                .records
                .iter()
                .map(|r| r.messages_sent)
                .max()
                .unwrap_or(0);
            out.push(metric("bsp.tc.candidates", wave as f64, "count"));
        }
        let fixed = spec(algorithm, "bsp", source);
        let fixed_s = timed(|| run_to_completion(&fixed, &graph).expect("bsp kernel")).0;
        out.push(metric(
            format!("par.{kernel}.fixed_over_guided"),
            fixed_s / split.call_s,
            "ratio",
        ));
        let one = serial.as_ref().map_or(split.call_s, |s| s[k]);
        out.push(metric(
            format!("par.{kernel}.speedup_1_to_n"),
            one / split.call_s,
            "ratio",
        ));
    }

    let mut graphct_s = [0.0; 4];
    for (k, algorithm) in ALGORITHMS.iter().enumerate() {
        let job = spec(algorithm, "graphct", source);
        let (seconds, (output, _, records)) =
            timed(|| run_to_completion(&job, &graph).expect("graphct kernel"));
        graphct_s[k] = seconds;
        match (*algorithm, output) {
            ("cc", _) => out.push(metric(
                "graphct.cc.iterations",
                records.len() as f64,
                "count",
            )),
            ("bfs", _) => {
                out.push(metric("graphct.bfs.levels", records.len() as f64, "count"));
                out.push(metric(
                    "graphct.bfs.edges_per_s",
                    graph.num_edges() as f64 / seconds,
                    "1/s",
                ));
            }
            ("triangles", JobOutput::Triangles(count)) => {
                out.push(metric("graphct.tc.triangles", count as f64, "count"));
                out.push(metric(
                    "graphct.tc.edges_per_s",
                    graph.num_edges() as f64 / seconds,
                    "1/s",
                ));
            }
            _ => {}
        }
    }
    // Paper Table I: 4.1 (CC), 10.1 (BFS), 9.4 (TC) on the XMT; here
    // host time of BSP-native over GraphCT on the same graph.
    for (name, k) in [("cc", 0), ("bfs", 1), ("tc", 3)] {
        out.push(metric(
            format!("paper.ratio_{name}"),
            native_s[k] / graphct_s[k],
            "ratio",
        ));
    }

    // Model cycles through the harness the paper tables use, with the
    // configuration a wire job with no overrides gets.  `run_*` assert
    // BSP = GraphCT on the way.
    let config = spec("cc", "bsp", 0).config;
    let model = xmt_model::ModelParams::default();
    let us = |rec: xmt_model::Recorder| total_seconds(&rec, &model, MODEL_PROCS) * 1e6;
    out.push(metric(
        "xmt-model.cc.pred_us_128p",
        us(run_cc(&graph, config).bsp_rec),
        "us",
    ));
    out.push(metric(
        "xmt-model.bfs.pred_us_128p",
        us(run_bfs(&graph, source, config).bsp_rec),
        "us",
    ));
    out.push(metric(
        "xmt-model.tc.pred_us_128p",
        us(run_tc(&graph, config).bsp_rec),
        "us",
    ));

    let t = Instant::now();
    let hot = xmt_sim::kernels::hotspot_fetch_add(&xmt_sim::MachineConfig::default(), 256, 64, 1);
    let host_s = t.elapsed().as_secs_f64();
    out.push(metric(
        "xmt-sim.hotspot_cycles",
        hot.cycles as f64,
        "cycles",
    ));
    out.push(metric(
        "xmt-sim.cycles_per_host_s",
        hot.cycles as f64 / host_s,
        "1/s",
    ));
}

/// Poll `stats` on a connection of its own until told to stop; returns
/// the deepest queue and the most live snapshot epochs seen.
fn sample_stats(addr: &str, stop: &AtomicBool) -> (u64, u64) {
    let mut conn = Conn::open(addr);
    let (mut depth, mut epochs) = (0, 0);
    // SeqCst: a plain stop flag; nothing is published through it.
    while !stop.load(Ordering::SeqCst) {
        if let Ok(tree) = conn.call(r#"{"op":"stats"}"#) {
            if let Some(stats) = field(&tree, "stats") {
                depth = depth.max(field_u64(stats, "queue_depth").unwrap_or(0));
                let live =
                    field(stats, "registry").and_then(|r| field_u64(r, "snapshot_epochs_live"));
                epochs = epochs.max(live.unwrap_or(0));
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    (depth, epochs)
}

/// `service.*` and `stinger`.
fn service_probes(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>) {
    let graph = Arc::new(build_graph(closed::SCALE).csr);
    let sources = giant_sources(&graph, seed, closed::SOURCES);
    let mixes: Vec<_> = (0..closed::CONNECTIONS as u64)
        .map(|c| job_mix(seed * 2 + c, &sources, LOOP_JOBS / MIX_BLOCK_LEN))
        .collect();
    let mix = &mixes[0][..MIX_BLOCK_LEN];
    let answers = in_process_answers(&graph, &mixes.concat(), tally);
    let lines: Vec<String> = mix.iter().map(|j| j.submit_line(closed::GRAPH)).collect();
    let dynamic_base = build_graph(DYNAMIC_SCALE).csr;
    let ring = update_ring(&dynamic_base, DYNAMIC_SCALE, seed);
    let update_lines: Vec<String> = (0..ring.len() as u64)
        .map(|b| update_line(DYNAMIC, &ring, b))
        .collect();

    // Stages replayed in process, on the lines and answers of the mix.
    let parse = |line: &String| {
        let tree: Content = serde_json::from_str(line).expect("benchmark wrote valid JSON");
        std::hint::black_box(parse_request(&tree).expect("benchmark wrote a valid request"));
    };
    let parse_us = replay_us(&lines, parse);
    out.push(metric("service.protocol.parse_us", parse_us, "us"));
    out.push(metric(
        "service.protocol.update_parse_us",
        replay_us(&update_lines, parse),
        "us",
    ));
    let answer =
        |job: &crate::inputs::MixJob| &answers[&(job.algorithm, job.engine_name(), job.source)];
    let mut result_lines = Vec::with_capacity(mix.len());
    let encode_us = replay_us(mix, |job| {
        let tree = ok()
            .put("job_id", Content::U64(1))
            .put("timed_out", Content::Bool(false))
            .put("supersteps", Content::U64(1))
            .put("result", output_content(answer(job)))
            .done();
        result_lines.push(serde_json::to_string(&tree).expect("a result tree serializes"));
    });
    out.push(metric("service.protocol.encode_us", encode_us, "us"));
    let decode_us = replay_us(&result_lines, |line| {
        std::hint::black_box(
            decode(line)
                .and_then(|tree| output_of(&tree))
                .expect("own result line decodes"),
        );
    });
    out.push(metric("service.client.decode_us", decode_us, "us"));
    let run_ms = replay_us(&lines, |line| {
        std::hint::black_box(run_to_completion(&spec_of(line), &graph).expect("mix job runs"));
    }) / 1e3;
    out.push(metric("service.engine.run_ms", run_ms, "ms"));

    // The registry and the scheduler, in process, on a private service.
    let service = Service::new(SERVER);
    let registry: &GraphRegistry = service.registry();
    registry
        .register(closed::GRAPH, (*graph).clone())
        .expect("register static probe graph");
    registry
        .register_dynamic(DYNAMIC, dynamic_base.clone())
        .expect("register dynamic probe graph");
    out.push(metric(
        "service.registry.bytes",
        registry.used_bytes() as f64,
        "B",
    ));
    out.push(metric(
        "service.registry.admit_us",
        replay_us(0..1000, |_| {
            std::hint::black_box(
                registry
                    .admit(closed::GRAPH, Algorithm::Cc, Engine::Native)
                    .expect("admit"),
            );
        }),
        "us",
    ));
    out.push(metric(
        "service.registry.incremental_admit_us",
        replay_us(0..200, |_| {
            std::hint::black_box(
                registry
                    .admit(DYNAMIC, Algorithm::Cc, Engine::Incremental)
                    .expect("admit"),
            );
        }),
        "us",
    ));
    let mut update_us = Vec::new();
    let mut snapshot_ms = Vec::new();
    for batch in 0..ring.len() as u64 {
        let (insert, delete) = batch_slices(&ring, batch);
        let t = Instant::now();
        let applied = registry.update(DYNAMIC, insert, delete);
        update_us.push(t.elapsed().as_secs_f64() * 1e6);
        tally.record(
            applied
                .map(|_| ())
                .map_err(|e| format!("in-process update {batch}: {e}")),
        );
        // The first native admit after an update builds the snapshot.
        let t = Instant::now();
        std::hint::black_box(
            registry
                .admit(DYNAMIC, Algorithm::Cc, Engine::Native)
                .expect("admit"),
        );
        snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push(metric("service.registry.update_us", med(&update_us), "us"));
    out.push(metric(
        "service.registry.snapshot_ms",
        med(&snapshot_ms),
        "ms",
    ));
    let submits: Vec<Request> = lines
        .iter()
        .filter(|l| l.contains(r#""algorithm":"cc""#) && l.contains("graphct"))
        .map(|l| {
            parse_request(&serde_json::from_str(l).expect("valid JSON")).expect("valid request")
        })
        .collect();
    let submit_us = replay_us(&submits, |request| {
        // A full queue would refuse the submit; wait the jobs out.
        let accepted = service.handle(request).expect("in-process submit");
        std::hint::black_box(accepted);
        while service.scheduler().stats().queue_depth >= SERVER.queue_capacity / 2 {
            std::thread::yield_now();
        }
    });
    out.push(metric("service.scheduler.submit_us", submit_us, "us"));
    service.shutdown();

    // The store alone: the same batches applied in process.
    let mut analytics = StreamingAnalytics::from_csr(&dynamic_base);
    let t = Instant::now();
    let mut applied_ops = 0u64;
    for batch in 0..ring.len() as u64 {
        let (insert, delete) = batch_slices(&ring, batch);
        let done = analytics
            .apply_batch(&edge_ops(insert, delete))
            .expect("ring edges are in range");
        applied_ops += done.inserted + done.deleted;
    }
    out.push(metric(
        "stinger.edge_ops_per_s_inproc",
        applied_ops as f64 / t.elapsed().as_secs_f64(),
        "1/s",
    ));
    out.push(metric(
        "stinger.bytes_after",
        analytics.memory_bytes() as f64,
        "B",
    ));

    // A private loopback server: ping, a short closed loop with the
    // server's own queue and run times, and a short update stream.
    let live = Live::start();
    let mut conn = Conn::open(&live.addr);
    conn.call(&register_line(closed::GRAPH, closed::SCALE, false))
        .expect("register static probe graph");
    conn.call(&register_line(DYNAMIC, DYNAMIC_SCALE, true))
        .expect("register dynamic probe graph");
    let ping_us = replay_us(0..500, |_| {
        conn.call(r#"{"op":"ping"}"#).expect("ping");
    });
    out.push(metric("service.server.ping_rtt_us", ping_us, "us"));

    let (stop, reading) = (AtomicBool::new(false), AtomicBool::new(true));
    let origin = Instant::now();
    let (loops, written, (depth_max, epochs_max)) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_stats(&live.addr, &stop));
        let loops: Vec<_> = mixes
            .iter()
            .map(|mix| {
                let (addr, answers) = (&live.addr, &answers);
                scope.spawn(move || {
                    closed_loop(addr, mix, answers, Some(origin), |next| next >= LOOP_JOBS)
                })
            })
            .collect();
        let loops: Vec<_> = loops
            .into_iter()
            .map(|h| h.join().expect("probe client"))
            .collect();
        // The stream runs beside a reader that recomputes CC, so
        // snapshots are taken and epochs stay live while batches land.
        let reader = scope.spawn(|| {
            let mut conn = Conn::open(&live.addr);
            while reading.load(Ordering::SeqCst) {
                let _ = run_job(&mut conn, &submit_line(DYNAMIC, "cc", Some("native"), 0));
            }
        });
        let written = writer_loop(
            &live.addr,
            DYNAMIC,
            &ring,
            0,
            Duration::ZERO,
            None,
            |done| done >= STREAM_BATCHES,
        );
        reading.store(false, Ordering::SeqCst);
        reader.join().expect("probe reader");
        stop.store(true, Ordering::SeqCst);
        (loops, written, sampler.join().expect("stats sampler"))
    });
    let mut job_ms = Vec::new();
    let (mut queue_ms, mut running_ms, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for outcome in loops {
        job_ms.extend(outcome.jobs.iter().map(|(_, s)| s * 1e3));
        queue_ms.extend(outcome.stages.iter().map(|s| s.0 as f64));
        running_ms.extend(outcome.stages.iter().map(|s| s.1 as f64));
        bytes.extend(outcome.result_bytes.iter().map(|b| *b as f64));
        tally.absorb(outcome.tally);
    }
    tally.absorb(written.tally);
    sort(&mut job_ms);
    let job_p50_ms = percentile(&job_ms, 0.5);
    // `status` reports whole milliseconds: medians of these two move in
    // steps of one.
    let (queue_wait_ms, loop_run_ms) = (med(&queue_ms), med(&running_ms));
    out.push(metric("service.protocol.result_bytes", med(&bytes), "B"));
    out.push(metric(
        "service.scheduler.queue_wait_ms",
        queue_wait_ms,
        "ms",
    ));
    out.push(metric("service.scheduler.run_ms", loop_run_ms, "ms"));
    out.push(metric(
        "service.scheduler.queue_depth_max",
        depth_max as f64,
        "count",
    ));
    out.push(metric(
        "service.registry.snapshot_epochs_live_max",
        epochs_max as f64,
        "count",
    ));
    out.push(metric("service.server.job_p50_ms", job_p50_ms, "ms"));
    let stages_ms = (parse_us + submit_us + encode_us + decode_us + 2.0 * ping_us) / 1e3
        + queue_wait_ms
        + loop_run_ms;
    out.push(metric(
        "service.server.unattributed_ms",
        job_p50_ms - stages_ms,
        "ms",
    ));
    let apply_us: Vec<f64> = applied_batches(&mut conn, DYNAMIC)
        .iter()
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    out.push(metric("stinger.apply_us", med(&apply_us), "us"));
    let rejected = conn
        .call(r#"{"op":"stats"}"#)
        .ok()
        .and_then(|tree| field_u64(field(&tree, "stats")?, "rejected"));
    out.push(metric(
        "service.scheduler.rejected",
        rejected.unwrap_or(0) as f64,
        "count",
    ));
    drop(conn);
    live.stop();
}

/// Run every probe; the metrics come back in a fixed order.
pub fn run(seed: u64, tally: &mut Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    let t = Instant::now();
    kernel_probes(seed, tally, &mut out);
    eprintln!(
        "spine: kernel probes took {:.1} s",
        t.elapsed().as_secs_f64()
    );
    let t = Instant::now();
    service_probes(seed, tally, &mut out);
    eprintln!(
        "spine: service probes took {:.1} s",
        t.elapsed().as_secs_f64()
    );
    out
}
