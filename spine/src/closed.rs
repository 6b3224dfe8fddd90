//! `service-closed`: a closed loop of small jobs over loopback TCP.
//!
//! The graph is small (scale 12: kernels take a few ms, result arrays
//! hold 4096 elements), so the protocol, scheduler, registry and server
//! layers dominate — the mirror image of the batch workloads.  Two
//! connections each keep four jobs in flight (submit ahead, then wait
//! for the oldest), so eight jobs contend for two workers and queue
//! wait is real.  Closed, not open: a caller of this service waits for
//! its answer before it asks again.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use xmt_graph::Csr;
use xmt_service::client::{field, field_u64};
use xmt_service::JobOutput;

use crate::batch::{run_to_completion, spec, spec_of};
use crate::checks::{same_answer, Expected, Tally};
use crate::inputs::{build_graph, giant_sources, job_mix, kernel_index, register_line, MixJob};
use crate::spans::{merge_under, Span, Tracer};
use crate::wire::{decode, listed_edges, output_of, result_line, status, Conn, Live};
use crate::{Phase, Workload};

pub const SCALE: u32 = 12;
pub const GRAPH: &str = "g12";
pub const CONNECTIONS: usize = 2;
pub const IN_FLIGHT: usize = 4;
/// BFS sources the mix draws from.
pub const SOURCES: usize = 8;
/// Untimed jobs before a measured phase, per connection (five blocks).
const WARM_UP_JOBS: usize = 150;
/// Blocks of the mix generated per connection and phase; a phase that
/// outlasts them wraps around.
const MIX_BLOCKS: usize = 64;

/// The in-process answer to a mix job, keyed the way the job is worded.
pub type Answers = HashMap<(&'static str, &'static str, u64), JobOutput>;

/// Compute (and verify in full) the in-process `execute` answer to
/// every distinct job of `mix` on `graph`.
pub fn in_process_answers<'a>(
    graph: &Arc<Csr>,
    mix: impl IntoIterator<Item = &'a MixJob>,
    tally: &mut Tally,
) -> Answers {
    let triangles = match run_to_completion(&spec("triangles", "graphct", 0), graph) {
        Ok((JobOutput::Triangles(count), ..)) => count,
        other => panic!("reference triangle count failed: {other:?}"),
    };
    let expected = Expected::new(graph, triangles);
    let mut answers = Answers::new();
    for job in mix {
        let key = (job.algorithm, job.engine_name(), job.source);
        if answers.contains_key(&key) {
            continue;
        }
        match run_to_completion(&spec_of(&job.submit_line(GRAPH)), graph) {
            Ok((output, ..)) => {
                tally.record(expected.check(graph, key.1, job.source, &output));
                answers.insert(key, output);
            }
            Err(e) => tally.record(Err(format!("in-process {key:?}: {e}"))),
        }
    }
    answers
}

/// What one connection's loop hands back.
#[derive(Default)]
pub struct LoopOutcome {
    /// `(kernel index, submit sent → result parsed, seconds)`.
    pub jobs: Vec<(usize, f64)>,
    pub tally: Tally,
    pub spans: Vec<Span>,
    /// `(queued_ms, running_ms)` per job from `status` (traced only).
    pub stages: Vec<(u64, u64)>,
    /// Bytes of each result line.
    pub result_bytes: Vec<usize>,
}

/// One connection's closed loop: keep [`IN_FLIGHT`] jobs submitted,
/// wait for the oldest, check its answer, submit the next.  Runs until
/// `stop` says so (checked before each submit), then drains.
pub fn closed_loop(
    addr: &str,
    mix: &[MixJob],
    answers: &Answers,
    origin: Option<Instant>,
    mut stop: impl FnMut(usize) -> bool,
) -> LoopOutcome {
    let mut conn = Conn::open(addr);
    let mut out = LoopOutcome::default();
    let mut tracer = origin.map_or_else(Tracer::off, Tracer::on);
    // (mix index, job id, sent, job span, ns from sent to submit acknowledged)
    let mut in_flight: VecDeque<(usize, u64, Instant, usize, u64)> = VecDeque::new();
    let mut next = 0usize;
    loop {
        while in_flight.len() < IN_FLIGHT && !stop(next) {
            let job = &mix[next % mix.len()];
            let line = job.submit_line(GRAPH);
            let span = tracer.begin("job", "service.client", None, 0);
            let sent = Instant::now();
            conn.send(&line);
            let accepted = decode(&conn.recv());
            let acked_ns = sent.elapsed().as_nanos() as u64;
            out.tally.attempted += 1;
            match accepted.as_ref().map(|tree| field_u64(tree, "job_id")) {
                Ok(Some(id)) => in_flight.push_back((next, id, sent, span, acked_ns)),
                Ok(None) => out.tally.fail("submit returned no job_id".to_string()),
                Err(e) => out.tally.fail(format!("submit refused: {e}")),
            }
            next += 1;
        }
        let Some((index, id, sent, span, acked_ns)) = in_flight.pop_front() else {
            break;
        };
        let job = &mix[index % mix.len()];
        conn.send(&result_line(id));
        let raw = conn.recv();
        let received_ns = sent.elapsed().as_nanos() as u64;
        let output = decode(&raw).and_then(|tree| output_of(&tree));
        let latency = sent.elapsed();
        tracer.end(span);
        out.result_bytes.push(raw.len());
        out.jobs
            .push((kernel_index(job.algorithm), latency.as_secs_f64()));
        let key = (job.algorithm, job.engine_name(), job.source);
        match output {
            Ok(output) if same_answer(&output, &answers[&key]) => {}
            Ok(_) => out.tally.fail(format!(
                "{key:?}: service answer differs from in-process execute"
            )),
            Err(e) => out.tally.fail(format!("{key:?}: {e}")),
        }
        if tracer.enabled() {
            // The server's own account of the job: queue wait, then run
            // (whole milliseconds).  What is left before the result line
            // arrived is delivery: encode, socket, and the time the job
            // sat finished while this client waited on an older one.
            let (queued_ms, running_ms) =
                status(&mut conn, id).map_or((0, 0), |s| (s.queued_ms, s.running_ms));
            out.stages.push((queued_ms, running_ms));
            tracer.set_job(span, id);
            let at = tracer.children(
                span,
                0,
                &[
                    ("submit", "service.server", acked_ns),
                    ("queue_wait", "service.scheduler", queued_ms * 1_000_000),
                    ("run", "service.engine", running_ms * 1_000_000),
                ],
            );
            let at = at.min(received_ns);
            let decode_ns = tracer.duration_ns(span).saturating_sub(received_ns);
            tracer.children(
                span,
                at,
                &[
                    ("deliver", "service.server", received_ns - at),
                    ("decode", "service.client", decode_ns),
                ],
            );
        }
    }
    out.spans = tracer.into_spans();
    out
}

pub struct Closed {
    live: Option<Live>,
    seed: u64,
    mixes: Vec<Vec<MixJob>>,
    answers: Answers,
}

impl Closed {
    /// Start the server and register the graph over the wire.
    pub fn setup(seed: u64) -> Closed {
        Closed {
            live: Some(Live::with_graph(&register_line(GRAPH, SCALE, false))),
            seed,
            mixes: Vec::new(),
            answers: Answers::new(),
        }
    }

    fn addr(&self) -> &str {
        &self.live.as_ref().expect("server is up").addr
    }
}

impl Workload for Closed {
    fn prepare(&mut self, tally: &mut Tally) {
        let graph = Arc::new(build_graph(SCALE).csr);
        // The server built its graph from the same recipe; its edge
        // count must match the local copy the answers are checked on.
        let listed = listed_edges(&mut Conn::open(self.addr()));
        tally.record(if listed == Some(graph.num_edges()) {
            Ok(())
        } else {
            Err(format!(
                "server lists {listed:?} edges, local graph has {}",
                graph.num_edges()
            ))
        });
        let sources = giant_sources(&graph, self.seed, SOURCES);
        self.mixes = (0..CONNECTIONS as u64)
            .map(|c| job_mix(self.seed * CONNECTIONS as u64 + c, &sources, MIX_BLOCKS))
            .collect();
        self.answers = in_process_answers(&graph, self.mixes.iter().flatten(), tally);

        let warm = self.run_loops(None, |_| move |next| next >= WARM_UP_JOBS);
        for outcome in warm {
            tally.absorb(outcome.tally);
        }
    }

    fn measure(&mut self, seconds: f64, origin: Option<Instant>) -> (Phase, Vec<Span>) {
        let mut root = origin.map_or_else(Tracer::off, Tracer::on);
        let root_id = root.begin("measure", "bench", None, 0);
        let started = Instant::now();
        let outcomes = self.run_loops(origin, |_| {
            move |_| started.elapsed().as_secs_f64() >= seconds
        });
        let wall_s = started.elapsed().as_secs_f64();
        root.end(root_id);

        let mut phase = Phase {
            wall_s,
            ..Phase::default()
        };
        let mut span_lists = Vec::new();
        for outcome in outcomes {
            for (kernel, latency_s) in outcome.jobs {
                phase.kernel_s[kernel].push(latency_s);
                phase.op_ms.push(latency_s * 1e3);
                phase.ops += 1;
            }
            phase.tally.absorb(outcome.tally);
            span_lists.push(outcome.spans);
        }
        phase.counts.push(("jobs".to_string(), phase.ops));
        phase
            .counts
            .push(("connections".to_string(), CONNECTIONS as u64));
        phase
            .counts
            .push(("in_flight_per_connection".to_string(), IN_FLIGHT as u64));
        (phase, merge_under(root.into_spans(), span_lists))
    }

    fn end_checks(&mut self, tally: &mut Tally) {
        // Nothing may have been refused by admission control: eight jobs
        // in flight never fill a queue of 32.
        let rejected = Conn::open(self.addr())
            .call(r#"{"op":"stats"}"#)
            .ok()
            .and_then(|tree| field_u64(field(&tree, "stats")?, "rejected"));
        tally.record(if rejected == Some(0) {
            Ok(())
        } else {
            Err(format!(
                "scheduler reports {rejected:?} rejected jobs, expected 0"
            ))
        });
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(live) = self.live.take() {
            live.stop();
        }
    }
}

impl Closed {
    /// Run one closed loop per connection, each on its own thread and
    /// mix, until its stop rule fires.
    fn run_loops<S>(&self, origin: Option<Instant>, stop: impl Fn(usize) -> S) -> Vec<LoopOutcome>
    where
        S: FnMut(usize) -> bool + Send,
    {
        let addr = self.addr();
        let answers = &self.answers;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .mixes
                .iter()
                .enumerate()
                .map(|(c, mix)| {
                    let stop = stop(c);
                    scope.spawn(move || closed_loop(addr, mix, answers, origin, stop))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }
}
