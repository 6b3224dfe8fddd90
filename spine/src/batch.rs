//! `bsp-batch` and `graphct-batch`: the four kernels called in process
//! through `xmt_service::execute`, no server.
//!
//! The two workloads run the same calls on the other programming
//! model, so a change to the BSP runtime moves one and a change to the
//! CSR or the `par` loops moves both.  Job specs come from wire lines,
//! so each job runs with exactly the configuration a service job with
//! no overrides gets, and each call warms its own superstep frame, as
//! every service job does.

use std::sync::Arc;
use std::time::Instant;

use xmt_graph::Csr;
use xmt_service::{execute, parse_request, ExecVerdict, JobOutput, JobSpec, Request};
use xmt_trace::{SuperstepTrace, TraceSink};

use crate::checks::{same_answer, Expected, Tally};
use crate::inputs::{build_graph, giant_sources, kernel_index, submit_line, ALGORITHMS};
use crate::spans::{Span, Tracer};
use crate::{Phase, Workload};

/// Which engine a batch workload calls, and on what.
pub struct Shape {
    pub engine: &'static str,
    /// Scale of the graph CC, BFS and PageRank run on.
    pub scale: u32,
    /// Scale of the triangle-counting graph.  BSP triangle counting
    /// ships one message per candidate wedge (13 M at scale 14, 92 M and
    /// ~12 s a call at 16), so `bsp-batch` counts on a smaller graph;
    /// `graphct-batch` uses one graph for all four kernels.
    pub tc_scale: u32,
    /// BFS sources per round.  A GraphCT BFS takes 13 ms and its time
    /// depends more on the source than a BSP one's, so that round
    /// averages over twice as many.
    pub sources: usize,
}

pub const BSP: Shape = Shape {
    engine: "native",
    scale: 15,
    tc_scale: 13,
    sources: 8,
};
pub const GRAPHCT: Shape = Shape {
    engine: "graphct",
    scale: 17,
    tc_scale: 17,
    sources: 16,
};

/// CC calls per round; with the BFS sources, one PageRank and one
/// triangle count a round is 12 (BSP) or 20 (GraphCT) jobs.  The round
/// is the workload's operation: `ops_per_s` counts rounds and
/// `op_p50_ms` is the median time in calls of one round.
const CC_PER_ROUND: usize = 2;

/// The spec a `submit` line with no overrides parses to.
pub fn spec_of(line: &str) -> JobSpec {
    let tree = serde_json::from_str(line).expect("benchmark wrote valid JSON");
    match parse_request(&tree) {
        Ok(Request::Submit { spec }) => spec,
        other => panic!("not a submit line: {other:?}"),
    }
}

/// The spec of an in-process job, worded as a wire line with no
/// overrides (the graph name is not looked at in process).
pub fn spec(algorithm: &str, engine: &str, source: u64) -> JobSpec {
    spec_of(&submit_line("g", algorithm, Some(engine), source))
}

/// Call `execute` to completion and hand back the output, the
/// superstep count and the program's own per-superstep records.
pub fn run_to_completion(
    spec: &JobSpec,
    graph: &Arc<Csr>,
) -> Result<(JobOutput, u64, Vec<SuperstepTrace>), String> {
    let mut sink = TraceSink::new();
    match execute(spec, graph, None, None, &|| false, &mut sink) {
        Ok(ExecVerdict::Completed { output, supersteps }) => {
            Ok((output, supersteps, sink.finish()))
        }
        Ok(ExecVerdict::Interrupted { supersteps, .. }) => {
            Err(format!("interrupted after {supersteps} supersteps"))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Lay the program's per-superstep records out under the span of the
/// call that produced them: one `superstep` span per record with its
/// scan, compute and exchange phases as children, so the superstep's
/// self time is what the three leave over (inbox rebuild, barriers).
/// A call that left no records (GraphCT PageRank and triangles) gets
/// one `kernel` child covering it.
pub fn lay_out_supersteps(
    tracer: &mut Tracer,
    call: usize,
    layer: &'static str,
    records: &[SuperstepTrace],
) {
    if !tracer.enabled() {
        return;
    }
    if records.is_empty() {
        tracer.cover(call, "kernel", layer);
        return;
    }
    let mut offset = 0;
    for r in records {
        let before = offset;
        offset = tracer.children(call, before, &[("superstep", layer, r.total_ns)]);
        let step = tracer.last();
        tracer.children(
            step,
            0,
            &[
                ("scan", layer, r.scan_ns),
                ("compute", layer, r.compute_ns),
                ("exchange", layer, r.exchange_ns),
            ],
        );
    }
}

struct Job {
    kernel: usize,
    spec: JobSpec,
    on_tc_graph: bool,
    /// The output the preparation pass verified in full; measured calls
    /// must give the same answer.
    verified: Option<JobOutput>,
}

pub struct Batch {
    shape: &'static Shape,
    seed: u64,
    graph: Arc<Csr>,
    tc_graph: Arc<Csr>,
    round: Vec<Job>,
    next_job: u64,
}

impl Batch {
    pub fn setup(shape: &'static Shape, seed: u64) -> Batch {
        let graph = Arc::new(build_graph(shape.scale).csr);
        let tc_graph = if shape.tc_scale == shape.scale {
            Arc::clone(&graph)
        } else {
            Arc::new(build_graph(shape.tc_scale).csr)
        };
        Batch {
            shape,
            seed,
            graph,
            tc_graph,
            round: Vec::new(),
            next_job: 0,
        }
    }

    fn graph_of(&self, job: &Job) -> &Arc<Csr> {
        if job.on_tc_graph {
            &self.tc_graph
        } else {
            &self.graph
        }
    }

    fn span_layer(&self) -> &'static str {
        if self.shape.engine == "graphct" {
            "graphct"
        } else {
            "bsp"
        }
    }
}

impl Workload for Batch {
    /// Build the round, verify every distinct job in full once (which
    /// is also the untimed warm-up pass), and keep the verified outputs.
    fn prepare(&mut self, tally: &mut Tally) {
        let engine = self.shape.engine;
        let mut round = Vec::new();
        let job = |algorithm: &str, source: u64| Job {
            kernel: kernel_index(algorithm),
            spec: spec(algorithm, engine, source),
            on_tc_graph: algorithm == "triangles",
            verified: None,
        };
        for _ in 0..CC_PER_ROUND {
            round.push(job("cc", 0));
        }
        for source in giant_sources(&self.graph, self.seed, self.shape.sources) {
            round.push(job("bfs", source));
        }
        round.push(job("pagerank", 0));
        round.push(job("triangles", 0));

        // The triangle count to agree with comes from the other
        // programming model where that is affordable (BSP = GraphCT on
        // the small graph), and from GraphCT's merge intersection — a
        // different kernel path — on the large one.
        let other = if engine == "graphct" {
            spec_of(
                r#"{"op":"submit","algorithm":"triangles","engine":"graphct","graph":"g","intersect":"merge"}"#,
            )
        } else {
            spec("triangles", "graphct", 0)
        };
        let triangles = match run_to_completion(&other, &self.tc_graph) {
            Ok((JobOutput::Triangles(count), ..)) => count,
            other => panic!("reference triangle count failed: {other:?}"),
        };
        let expected = Expected::new(&self.graph, triangles);
        for job in &mut round {
            let graph = if job.on_tc_graph {
                &self.tc_graph
            } else {
                &self.graph
            };
            let outcome = run_to_completion(&job.spec, graph).and_then(|(output, ..)| {
                expected.check(graph, engine, job.spec.source, &output)?;
                job.verified = Some(output);
                Ok(())
            });
            tally.record(outcome);
        }
        self.round = round;
    }

    fn measure(&mut self, seconds: f64, origin: Option<Instant>) -> (Phase, Vec<Span>) {
        let mut phase = Phase::default();
        let mut tracer = origin.map_or_else(Tracer::off, Tracer::on);
        let layer = self.span_layer();
        let root = tracer.begin("measure", "bench", None, 0);
        let started = Instant::now();
        let mut rounds = 0u64;
        let mut next_job = self.next_job;
        while started.elapsed().as_secs_f64() < seconds {
            // Seconds and calls of this round, by kernel.
            let mut spent = [(0.0f64, 0u32); 4];
            for job in &self.round {
                let graph = self.graph_of(job);
                next_job += 1;
                let call = tracer.begin("execute", "service.engine", Some(root), next_job);
                let t = Instant::now();
                let outcome = run_to_completion(&job.spec, graph);
                let call_s = t.elapsed().as_secs_f64();
                tracer.end(call);
                spent[job.kernel].0 += call_s;
                spent[job.kernel].1 += 1;
                phase.tally.record(outcome.and_then(|(output, _, records)| {
                    lay_out_supersteps(&mut tracer, call, layer, &records);
                    let verified = job.verified.as_ref().expect("prepare ran");
                    if same_answer(&output, verified) {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} on {}: answer differs from the verified one",
                            ALGORITHMS[job.kernel], self.shape.engine
                        ))
                    }
                }));
            }
            // One sample per kernel and round: the mean of the kernel's
            // calls in it.  BFS time depends on the source (6 or 7
            // levels), and a median over the calls of all sources flips
            // between the two clusters from seed to seed.
            for (series, (seconds, calls)) in phase.kernel_s.iter_mut().zip(spent) {
                series.push(seconds / f64::from(calls));
            }
            let round_s: f64 = spent.iter().map(|(seconds, _)| seconds).sum();
            phase.op_ms.push(round_s * 1e3);
            phase.wall_s += round_s;
            phase.ops += 1;
            rounds += 1;
        }
        tracer.end(root);
        self.next_job = next_job;
        phase.counts.push(("rounds".to_string(), rounds));
        phase
            .counts
            .push(("jobs_per_round".to_string(), self.round.len() as u64));
        (phase, tracer.into_spans())
    }

    fn end_checks(&mut self, _tally: &mut Tally) {}

    fn teardown(self: Box<Self>) {}
}
