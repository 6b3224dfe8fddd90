//! `spine`: the repo's one benchmark.
//!
//! ```text
//! spine --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! spine --compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! One process runs one workload: set up (three times, the median is
//! `setup_s`), verify every distinct job once, measure for `--seconds`,
//! check the end state, and print the result as the last line of
//! standard output.  With `--trace 0` the result holds the end-to-end
//! metrics, taken with the benchmark's spans off.  With `--trace 1` the
//! same inputs are replayed for half the time — a quarter with a span
//! around every call into a layer, an eighth plain on either side of it
//! — and the layer probes run; the result holds the per-layer metrics
//! and the spans go to `spine/out/<workload>.trace.json`.  See `spine/README.md`
//! for every name.

mod batch;
mod checks;
mod closed;
mod compare;
mod inputs;
mod probes;
mod report;
mod spans;
mod stats;
mod stream;
mod wire;

use std::process::ExitCode;
use std::time::Instant;

use serde::Content;

use checks::Tally;
use report::{map, metric, text, Metric};
use spans::Span;

pub const WORKLOADS: [&str; 4] = [
    "bsp-batch",
    "graphct-batch",
    "service-closed",
    "stream-mixed",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What one measured phase yields, in the terms every workload shares.
#[derive(Default)]
pub struct Phase {
    /// Client-visible seconds per job, by kernel (order of
    /// [`inputs::ALGORITHMS`]).
    pub kernel_s: [Vec<f64>; 4],
    /// Latency of the workload's closed-loop operation, ms.
    pub op_ms: Vec<f64>,
    /// Completed operations, the numerator of `ops_per_s`.
    pub ops: u64,
    /// Seconds the operations were measured over.
    pub wall_s: f64,
    pub tally: Tally,
    /// Rep and job counts for the report.
    pub counts: Vec<(String, u64)>,
}

/// One workload, set up.
pub trait Workload {
    /// Compute the expected answers, verify every distinct job once in
    /// full, and run the untimed warm-up pass.
    fn prepare(&mut self, tally: &mut Tally);
    /// Run the workload for `seconds`; record spans on the time line
    /// starting at `origin` when there is one.
    fn measure(&mut self, seconds: f64, origin: Option<Instant>) -> (Phase, Vec<Span>);
    /// Check the state the measured phases left behind.
    fn end_checks(&mut self, tally: &mut Tally);
    /// Stop whatever set-up started.
    fn teardown(self: Box<Self>);
}

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "bsp-batch" => Box::new(batch::Batch::setup(&batch::BSP, seed)),
        "graphct-batch" => Box::new(batch::Batch::setup(&batch::GRAPHCT, seed)),
        "service-closed" => Box::new(closed::Closed::setup(seed)),
        "stream-mixed" => Box::new(stream::Stream::setup(seed)),
        other => unreachable!("workload `{other}` was validated"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: spine --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         spine --compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(parsed)
}

fn median_of(name: &str, samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or_else(|| panic!("the run took no sample of {name}"))
}

/// The end-to-end metrics of a plain phase.  Every workload reports
/// every one; `spine/README.md` says what each means where.
fn end_to_end(phase: &Phase, setup_s: &[f64], warm_rss_mb: f64) -> (Vec<Metric>, Content) {
    let mut metrics = vec![metric("setup_s", median_of("setup_s", setup_s), "s")];
    let mut samples = vec![("setup_s", Content::U64(setup_s.len() as u64))];
    for (name, series) in ["cc_s", "bfs_s", "pagerank_s", "tc_s"]
        .into_iter()
        .zip(&phase.kernel_s)
    {
        metrics.push(metric(name, median_of(name, series), "s"));
        samples.push((name, Content::U64(series.len() as u64)));
    }
    let mut op_ms = phase.op_ms.clone();
    stats::sort(&mut op_ms);
    assert!(!op_ms.is_empty(), "the run completed no operation");
    let tail = stats::supported_percentile(op_ms.len(), 0.9);
    metrics.push(metric("ops_per_s", phase.ops as f64 / phase.wall_s, "1/s"));
    metrics.push(metric("op_p50_ms", stats::percentile(&op_ms, 0.5), "ms"));
    metrics.push(metric("op_p90_ms", stats::percentile(&op_ms, tail), "ms"));
    metrics.push(metric("peak_rss_mb", warm_rss_mb, "MB"));
    samples.push(("op_ms", Content::U64(op_ms.len() as u64)));
    samples.push(("op_p90_ms_percentile", Content::F64(tail)));
    let deciles = (1..=9).map(|d| Content::F64(stats::percentile(&op_ms, d as f64 / 10.0)));
    samples.push(("op_ms_deciles", Content::Seq(deciles.collect())));
    (metrics, map(samples))
}

/// Share of the traced phase's span time each layer kept as self time,
/// in percent of all self time (so concurrent jobs each count and the
/// shares sum to 100); `share.bench_pct` is the root span's own: time
/// no job span covers (loop overhead, output checks).
fn layer_shares(spans: &[Span]) -> Vec<Metric> {
    let totals = spans::layer_self_ns(spans);
    let root_ns = totals.iter().map(|(_, ns)| *ns).sum::<u64>().max(1) as f64;
    probes::SPAN_LAYERS
        .iter()
        .map(|layer| {
            let ns = totals
                .iter()
                .find(|(l, _)| l == layer)
                .map_or(0, |(_, ns)| *ns);
            metric(
                format!("share.{layer}_pct"),
                100.0 * ns as f64 / root_ns,
                "%",
            )
        })
        .collect()
}

fn counts_content(counts: &[(String, u64)]) -> Content {
    Content::Map(
        counts
            .iter()
            .map(|(k, v)| (k.clone(), Content::U64(*v)))
            .collect(),
    )
}

fn run(args: &Args) -> ExitCode {
    let name = args.workload.as_str();
    eprintln!(
        "spine: {name} seed {} for {} s, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = workload.take() {
            previous.teardown();
        }
        let t = Instant::now();
        workload = Some(setup(name, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS is at least one");
    eprintln!("spine: set up {SETUPS} times: {setup_s:.3?} s");
    workload.prepare(&mut tally);
    eprintln!(
        "spine: prepared ({} checks, {} failed)",
        tally.attempted, tally.failed
    );
    // Peak resident set once every job has run once: graphs, registry,
    // warmed frames and pools.  Taken here, not at exit, because the
    // scheduler keeps every finished job's record (and, on a dynamic
    // graph, its snapshot), so the peak at exit grows with the number
    // of jobs a run completes — a faster program would read as a
    // regression.  The report carries the exit figure beside it.
    let warm_rss_mb = report::peak_rss_mb();

    let (metrics, mut report) = if args.trace {
        // Plain, traced, plain: the service workloads slow down as the
        // scheduler's job table grows, and a plain half on either side
        // of the traced phase cancels that drift out of the overhead.
        let (mut plain, _) = workload.measure(args.seconds / 8.0, None);
        let (traced, spans) = workload.measure(args.seconds / 4.0, Some(Instant::now()));
        let (after, _) = workload.measure(args.seconds / 8.0, None);
        workload.end_checks(&mut tally);
        workload.teardown();
        plain.ops += after.ops;
        plain.wall_s += after.wall_s;
        plain.tally.absorb(after.tally);
        plain.counts.extend(after.counts);
        let headline = |p: &Phase| p.ops as f64 / p.wall_s;
        let mut metrics = probes::run(args.seed, &mut tally);
        metrics.push(metric(
            "trace.overhead_pct",
            100.0 * (headline(&plain) - headline(&traced)) / headline(&plain),
            "%",
        ));
        metrics.push(metric("trace.spans", spans.len() as f64, "count"));
        metrics.extend(layer_shares(&spans));
        let report = vec![
            ("plain_counts", counts_content(&plain.counts)),
            ("traced_counts", counts_content(&traced.counts)),
            ("spans", spans::to_content(&spans)),
        ];
        tally.absorb(plain.tally);
        tally.absorb(traced.tally);
        (metrics, report)
    } else {
        let (phase, _) = workload.measure(args.seconds, None);
        workload.end_checks(&mut tally);
        workload.teardown();
        let (metrics, samples) = end_to_end(&phase, &setup_s, warm_rss_mb);
        let report = vec![
            ("counts", counts_content(&phase.counts)),
            ("samples", samples),
        ];
        tally.absorb(phase.tally);
        (metrics, report)
    };

    let correct = tally.failed == 0;
    let mut tree = vec![
        ("workload", text(name)),
        ("seconds", Content::F64(args.seconds)),
        ("trace", Content::Bool(args.trace)),
        ("provenance", report::provenance(args.seed)),
        ("correct", Content::Bool(correct)),
        ("attempted", Content::U64(tally.attempted)),
        ("failed", Content::U64(tally.failed)),
        (
            "failures",
            Content::Seq(tally.messages.iter().map(text).collect()),
        ),
        ("metrics", report::metrics_content(&metrics)),
        ("rss_at_exit_mb", Content::F64(report::peak_rss_mb())),
    ];
    tree.append(&mut report);
    let file = if args.trace {
        format!("{name}.trace.json")
    } else {
        format!("{name}.json")
    };
    report::write_report(&file, &map(tree));
    for m in &metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "spine: {} of {} operations failed",
            tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(probes::SERIAL_CHILD_FLAG) {
        return probes::serial_child();
    }
    if args.first().map(String::as_str) == Some("--compare") {
        return compare::main(&args[1..]);
    }
    match parse_args(&args) {
        Ok(parsed) => run(&parsed),
        Err(message) => {
            eprintln!("spine: {message}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&strs(&[
            "--workload",
            "stream-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("stream-mixed", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&strs(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strs(&["--workload", "bsp-batch", "--trace", "2"])).is_err());
        assert!(parse_args(&strs(&["--workload", "bsp-batch", "--seconds", "0"])).is_err());
        assert!(parse_args(&strs(&["--workload", "bsp-batch", "--bogus"])).is_err());
        assert!(parse_args(&strs(&["--seed"])).is_err());
    }
}
