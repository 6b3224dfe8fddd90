//! `stream-mixed`: writes beside reads on one dynamic graph.
//!
//! A writer connection runs a closed loop of `update` batches; ten
//! times a second it follows its update with an `incremental` CC read
//! that must reflect it, and times update sent → read received.  A
//! reader connection runs recompute jobs on the `native` engine (each
//! forces a snapshot of the newest epoch) in rotation with
//! `incremental` triangle counts, until the writer ends.  `stinger` and
//! `service.registry` carry this workload: a faster apply that makes
//! snapshots dearer shows as one metric up and one down.
//!
//! A batch inserts one slice of the update ring and deletes the slice
//! inserted two batches earlier, so the graph stays at its base size
//! plus two slices however long the run measures.  (A stream that only
//! grew the graph would make every cost depend on the run length.)
//!
//! The server lives for one **episode** of at most [`EPISODE_S`]
//! seconds of measurement, then a fresh one is set up.  The scheduler
//! keeps every finished job's record and the snapshot it ran on, about
//! 65 MB/s here; reads after every batch retained 390 MB/s, and near
//! 1.1 GB of retained snapshots glibc's heap stops recycling and every
//! incremental admission takes 18 ms instead of 4 (measured in process:
//! batch 300 at scale 14, batch 1500 at scale 12).  Where in a run that
//! cliff fell differed from run to run and moved the median update →
//! visible latency between 8 and 20 ms.  Paced reads and short episodes
//! keep a server under 0.4 GB; the report's `rss_at_exit_mb` still
//! shows what a run retained.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xmt_graph::builder::build_undirected;
use xmt_graph::validate::validate_components;
use xmt_graph::{Csr, EdgeList};
use xmt_service::client::{field, field_u64};
use xmt_service::JobOutput;

use crate::batch::{run_to_completion, spec};
use crate::checks::Tally;
use crate::inputs::{
    batch_slices, build_graph, giant_sources, kernel_index, register_line, submit_line,
    update_line, update_ring, SLICE_EDGES,
};
use crate::spans::{merge_under, Span, Tracer};
use crate::wire::{applied_batches, lay_out_run, listed_edges, run_job, serve, status, Conn, Live};
use crate::{Phase, Workload};

pub const SCALE: u32 = 14;
pub const GRAPH: &str = "d14";
/// Untimed batches (and one reader rotation) on a fresh server.
const WARM_UP_BATCHES: u64 = 8;
/// Longest measurement one server sees before it is replaced.
pub const EPISODE_S: f64 = 5.0;
/// Index of BFS in [`ALGORITHMS`].
const BFS: usize = 1;
/// BFS sources the reader cycles through; `bfs_s` averages over them.
const SOURCES: usize = 8;
/// How often the writer follows an update with a timed incremental read.
pub const READ_EVERY: Duration = Duration::from_millis(100);

/// The reader's rotation: which kernel each slot reports under, and the
/// engine that serves it.  CC, BFS and PageRank recompute on a fresh
/// snapshot; the triangle count comes from the maintained state.
const ROTATION: [(&str, &str); 4] = [
    ("cc", "native"),
    ("triangles", "incremental"),
    ("bfs", "native"),
    ("pagerank", "native"),
];

/// What the writer's loop hands back.
#[derive(Default)]
pub struct WriterOutcome {
    /// Update sent → incremental read at ≥ its epoch received, ms, of
    /// the updates that were followed by a read.
    pub visible_ms: Vec<f64>,
    /// Accepted inserts + deletes.
    pub edge_ops: u64,
    /// Sum of the timed intervals (update, and the read where there
    /// was one): the writer's clock stops while it verifies.
    pub busy_s: f64,
    pub batches: u64,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

/// Batches between two fetches of the server's applied-batch records in
/// a traced run; the server keeps the last 1024.
const APPLY_FETCH_EVERY: usize = 512;

/// Give each `update` span of `pending` an `apply` child of the length
/// the server recorded for the epoch the update created, centred in the
/// span (the server reports a duration, not when it started).
fn lay_out_applies(
    conn: &mut Conn,
    tracer: &mut Tracer,
    graph: &str,
    pending: &mut Vec<(usize, u64)>,
) {
    let applied = applied_batches(conn, graph);
    for (span, epoch) in pending.drain(..) {
        if let Some(&(_, apply_ns)) = applied.iter().find(|(e, _)| *e == epoch) {
            let slack = tracer.duration_ns(span).saturating_sub(apply_ns);
            tracer.children(span, slack / 2, &[("apply", "stinger", apply_ns)]);
        }
    }
}

/// The writer's closed loop on `graph`: batch `first_batch`, then the
/// next, until `stop` (checked before each batch).  Each iteration
/// sends one update; when `read_every` has passed since the last read
/// it then reads CC on the `incremental` engine and records update
/// sent → read received.  The read's epoch (from `status`, outside the
/// timed interval) must be at least the update's.
pub fn writer_loop(
    addr: &str,
    graph: &str,
    ring: &[Vec<(u64, u64)>],
    first_batch: u64,
    read_every: Duration,
    origin: Option<Instant>,
    mut stop: impl FnMut(u64) -> bool,
) -> WriterOutcome {
    let mut conn = Conn::open(addr);
    let mut out = WriterOutcome::default();
    let mut tracer = origin.map_or_else(Tracer::off, Tracer::on);
    let read = submit_line(graph, "cc", Some("incremental"), 0);
    // From the third batch on the lines repeat with the ring's period;
    // format each once, not 3 KB per batch in the loop.
    let period = ring.len() as u64;
    let lines: Vec<String> = (2..2 + period)
        .map(|b| update_line(graph, ring, b))
        .collect();
    let mut pending_applies = Vec::new();
    let mut next_read = Instant::now();
    while !stop(out.batches) {
        let batch = first_batch + out.batches;
        let first_lines;
        let line = if batch < 2 {
            first_lines = update_line(graph, ring, batch);
            &first_lines
        } else {
            &lines[((batch - 2) % period) as usize]
        };
        let (planned_in, planned_out) = batch_slices(ring, batch);
        let planned = (planned_in.len() as u64, planned_out.len() as u64);
        let reads = Instant::now() >= next_read;
        out.tally.attempted += 1;
        let span = tracer.begin("update_visible", "service.client", None, batch + 1);
        let sent = Instant::now();
        let update = tracer.begin("update", "service.registry", Some(span), batch + 1);
        let applied = conn.call(line);
        tracer.end(update);
        let served = reads.then(|| serve(&mut conn, &mut tracer, Some(span), batch + 1, &read));
        let busy = sent.elapsed();
        tracer.end(span);
        out.busy_s += busy.as_secs_f64();
        out.batches += 1;

        let update_epoch = match applied.as_ref().map(|tree| field(tree, "update")) {
            Ok(Some(u)) => {
                let (inserted, deleted) = (field_u64(u, "inserted"), field_u64(u, "deleted"));
                if (inserted, deleted) == (Some(planned.0), Some(planned.1)) {
                    out.edge_ops += planned.0 + planned.1;
                } else {
                    out.tally.fail(format!(
                        "batch {batch}: accepted +{inserted:?}/-{deleted:?}, planned +{}/-{}",
                        planned.0, planned.1
                    ));
                }
                field_u64(u, "epoch")
            }
            _ => {
                out.tally
                    .fail(format!("batch {batch} refused: {applied:?}"));
                None
            }
        };
        if let Some(served) = served {
            out.visible_ms.push(busy.as_secs_f64() * 1e3);
            next_read += read_every.max(Duration::from_nanos(1));
            if next_read < Instant::now() {
                next_read = Instant::now();
            }
            out.tally.attempted += 1;
            let read_status = served.id.and_then(|id| status(&mut conn, id));
            match (&served.output, update_epoch, &read_status) {
                (Ok(JobOutput::Labels(_)), Some(wrote), Some(saw)) if saw.epoch >= wrote => {}
                (Ok(_), wrote, saw) => out.tally.fail(format!(
                    "batch {batch}: read at epoch {:?} does not reflect the update at {wrote:?}",
                    saw.as_ref().map(|s| s.epoch)
                )),
                (Err(e), ..) => out
                    .tally
                    .fail(format!("batch {batch}: incremental read: {e}")),
            }
            if let Some(s) = &read_status {
                lay_out_run(&mut tracer, served.wait_span, s, "stinger");
            }
        }
        if tracer.enabled() {
            pending_applies.extend(update_epoch.map(|epoch| (update, epoch)));
            if pending_applies.len() >= APPLY_FETCH_EVERY {
                lay_out_applies(&mut conn, &mut tracer, graph, &mut pending_applies);
            }
        }
    }
    if tracer.enabled() {
        lay_out_applies(&mut conn, &mut tracer, graph, &mut pending_applies);
    }
    out.spans = tracer.into_spans();
    out
}

/// The reader's closed loop: one job after the other through
/// [`ROTATION`] while `keep_going(jobs done)`.  Returns `(kernel index,
/// latency seconds)` per job, the tally and the spans.
fn reader_loop(
    addr: &str,
    sources: &[u64],
    n: usize,
    first_job: u64,
    origin: Option<Instant>,
    mut keep_going: impl FnMut(usize) -> bool,
) -> (Vec<(usize, f64)>, Tally, Vec<Span>) {
    let mut conn = Conn::open(addr);
    let mut tracer = origin.map_or_else(Tracer::off, Tracer::on);
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    while keep_going(samples.len()) {
        let (algorithm, engine) = ROTATION[samples.len() % ROTATION.len()];
        let source = sources[(samples.len() / ROTATION.len()) % sources.len()];
        let t = Instant::now();
        let served = serve(
            &mut conn,
            &mut tracer,
            None,
            (1 << 32) + first_job + samples.len() as u64,
            &submit_line(GRAPH, algorithm, Some(engine), source),
        );
        let latency = t.elapsed().as_secs_f64();
        if tracer.enabled() {
            if let Some(s) = served.id.and_then(|id| status(&mut conn, id)) {
                let run_layer = if engine == "native" { "bsp" } else { "stinger" };
                lay_out_run(&mut tracer, served.wait_span, &s, run_layer);
            }
        }
        samples.push((kernel_index(algorithm), latency));
        // The snapshot this job ran on is gone by now; check the shape
        // here and the values on the end state.
        tally.record(match served.output {
            Ok(JobOutput::Labels(v)) if v.len() == n => Ok(()),
            Ok(JobOutput::Bfs { dist, .. }) if dist.len() == n && dist[source as usize] == 0 => {
                Ok(())
            }
            Ok(JobOutput::Ranks(v)) if v.len() == n => Ok(()),
            Ok(JobOutput::Triangles(_)) => Ok(()),
            Ok(_) => Err(format!(
                "{algorithm} on {engine}: result of the wrong shape"
            )),
            Err(e) => Err(format!("{algorithm} on {engine}: {e}")),
        });
    }
    (samples, tally, tracer.into_spans())
}

pub struct Stream {
    live: Option<Live>,
    seed: u64,
    base: Option<Csr>,
    ring: Vec<Vec<(u64, u64)>>,
    /// BFS sources the reader cycles through.
    sources: Vec<u64>,
    /// Batches the graph has seen since registration.
    batches: u64,
    next_job: u64,
    /// Whether a measured episode has run on the current server.
    measured: bool,
}

impl Stream {
    /// Start the server and register the dynamic graph over the wire.
    pub fn setup(seed: u64) -> Stream {
        Stream {
            live: Some(Live::with_graph(&register_line(GRAPH, SCALE, true))),
            seed,
            base: None,
            ring: Vec::new(),
            sources: Vec::new(),
            batches: 0,
            next_job: 0,
            measured: false,
        }
    }

    /// Untimed batches, each followed by a read, then one reader
    /// rotation on a fresh server — one after the other, so the jobs and
    /// snapshots a warmed server holds are the same on every run.
    fn warm_up(&mut self, tally: &mut Tally) {
        let written = writer_loop(
            self.addr(),
            GRAPH,
            &self.ring,
            self.batches,
            Duration::ZERO,
            None,
            |done| done >= WARM_UP_BATCHES,
        );
        self.batches += written.batches;
        tally.absorb(written.tally);
        let n = self.base.as_ref().expect("prepare ran").num_vertices() as usize;
        let (jobs, read_tally, _) =
            reader_loop(self.addr(), &self.sources, n, self.next_job, None, |done| {
                done < ROTATION.len()
            });
        self.next_job += jobs.len() as u64;
        tally.absorb(read_tally);
    }

    /// Stop the server and set a fresh one up the same way, warmed.
    fn replace_server(&mut self, tally: &mut Tally) {
        if let Some(live) = self.live.take() {
            live.stop();
        }
        self.live = Some(Live::with_graph(&register_line(GRAPH, SCALE, true)));
        self.batches = 0;
        self.measured = false;
        self.warm_up(tally);
    }

    fn addr(&self) -> &str {
        &self.live.as_ref().expect("server is up").addr
    }

    /// Writer and reader side by side; the reader stops when the writer
    /// has, and runs at least one full rotation.  Returns the writer's
    /// outcome and the reader's `(kernel index, latency seconds)`
    /// samples, tally and spans.
    fn run(
        &mut self,
        origin: Option<Instant>,
        stop: impl FnMut(u64) -> bool + Send,
    ) -> (WriterOutcome, Vec<(usize, f64)>, Tally, Vec<Span>) {
        let addr = self.addr();
        let writer_done = AtomicBool::new(false);
        let (first_batch, sources, first_job) = (self.batches, &self.sources[..], self.next_job);
        let n = self.base.as_ref().expect("prepare ran").num_vertices() as usize;
        let (written, read) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let out = writer_loop(
                    addr,
                    GRAPH,
                    &self.ring,
                    first_batch,
                    READ_EVERY,
                    origin,
                    stop,
                );
                // SeqCst: the reader must see the flag no later than its
                // next check; nothing else is published through it.
                writer_done.store(true, Ordering::SeqCst);
                out
            });
            let reader = scope.spawn(|| {
                reader_loop(addr, sources, n, first_job, origin, |slot| {
                    !writer_done.load(Ordering::SeqCst) || slot < ROTATION.len()
                })
            });
            (
                writer.join().expect("writer thread"),
                reader.join().expect("reader thread"),
            )
        });
        self.batches += written.batches;
        self.next_job += read.0.len() as u64;
        (written, read.0, read.1, read.2)
    }

    /// The graph the server must hold now: the base plus the slices of
    /// the last two batches.
    fn expected_graph(&self) -> Csr {
        let base = self.base.as_ref().expect("prepare ran");
        let mut edges = EdgeList::new(base.num_vertices());
        for (u, neighbors) in base.iter_vertices() {
            for &v in neighbors.iter().filter(|&&v| u < v) {
                edges.push(u, v);
            }
        }
        for back in 1..=self.batches.min(2) {
            let slice = &self.ring[((self.batches - back) % self.ring.len() as u64) as usize];
            for &(u, v) in slice {
                edges.push(u, v);
            }
        }
        build_undirected(&edges)
    }
}

impl Workload for Stream {
    fn prepare(&mut self, tally: &mut Tally) {
        let base = build_graph(SCALE).csr;
        self.ring = update_ring(&base, SCALE, self.seed);
        self.sources = giant_sources(&base, self.seed, SOURCES);
        self.base = Some(base);
        self.warm_up(tally);
    }

    fn measure(&mut self, seconds: f64, origin: Option<Instant>) -> (Phase, Vec<Span>) {
        let mut root = origin.map_or_else(Tracer::off, Tracer::on);
        let root_id = root.begin("measure", "bench", None, 0);
        let mut phase = Phase::default();
        let mut span_lists = Vec::new();
        let (mut batches, mut reader_jobs, mut episodes) = (0, 0, 0);
        let mut bfs_s = Vec::new();
        let mut remaining = seconds;
        while remaining > 0.0 {
            // A server that has been measured on is replaced (untimed:
            // the writer's and the reader's clocks are not running).
            if self.measured {
                self.replace_server(&mut phase.tally);
            }
            self.measured = true;
            let episode = remaining.min(EPISODE_S);
            remaining -= episode;
            let started = Instant::now();
            let (written, samples, read_tally, read_spans) =
                self.run(origin, move |_| started.elapsed().as_secs_f64() >= episode);
            phase.ops += written.edge_ops;
            phase.wall_s += written.busy_s;
            phase.op_ms.extend(written.visible_ms);
            for (kernel, latency_s) in &samples {
                phase.kernel_s[*kernel].push(*latency_s);
            }
            bfs_s.extend(samples.iter().filter(|(k, _)| *k == BFS).map(|(_, s)| *s));
            phase.tally.absorb(written.tally);
            phase.tally.absorb(read_tally);
            span_lists.extend([written.spans, read_spans]);
            batches += written.batches;
            reader_jobs += samples.len() as u64;
            episodes += 1;
        }
        root.end(root_id);
        // BFS time depends on the source; one sample per pass over the
        // sources (their mean), so the median does not flip between
        // the clusters of near and far sources from seed to seed.
        let passes: Vec<f64> = bfs_s
            .chunks_exact(SOURCES)
            .map(|pass| pass.iter().sum::<f64>() / SOURCES as f64)
            .collect();
        if !passes.is_empty() {
            phase.kernel_s[BFS] = passes;
        }
        phase.counts.push(("episodes".to_string(), episodes));
        phase.counts.push(("batches".to_string(), batches));
        phase.counts.push(("edge_ops".to_string(), phase.ops));
        phase
            .counts
            .push(("visible_reads".to_string(), phase.op_ms.len() as u64));
        phase.counts.push(("reader_jobs".to_string(), reader_jobs));
        (phase, merge_under(root.into_spans(), span_lists))
    }

    /// The end state: the maintained answers equal a recompute on the
    /// final snapshot and validate against the graph the plan leads to,
    /// and the registry's totals equal the planned totals exactly.
    fn end_checks(&mut self, tally: &mut Tally) {
        let expected = Arc::new(self.expected_graph());
        let mut conn = Conn::open(self.addr());
        let mut wire = |algorithm: &str, engine: &str| {
            run_job(&mut conn, &submit_line(GRAPH, algorithm, Some(engine), 0))
        };

        let incremental = wire("cc", "incremental");
        let recomputed = wire("cc", "native");
        tally.record(match (&incremental, &recomputed) {
            (Ok(JobOutput::Labels(inc)), Ok(JobOutput::Labels(full))) if inc == full => {
                validate_components(&expected, inc).map_err(|e| format!("end-state labels: {e}"))
            }
            _ => {
                Err("end state: incremental CC labels differ from the native recompute".to_string())
            }
        });
        let local = run_to_completion(&spec("triangles", "graphct", 0), &expected);
        let counts = [
            wire("triangles", "incremental"),
            wire("triangles", "graphct"),
            local.map(|(o, ..)| o),
        ];
        tally.record(match &counts {
            [Ok(JobOutput::Triangles(a)), Ok(JobOutput::Triangles(b)), Ok(JobOutput::Triangles(c))]
                if a == b && b == c =>
            {
                Ok(())
            }
            other => Err(format!("end state: triangle counts disagree: {other:?}")),
        });

        let planned_deleted: u64 = (0..self.batches)
            .map(|b| batch_slices(&self.ring, b).1.len() as u64)
            .sum();
        let planned = [
            ("batches_applied", self.batches),
            ("edges_inserted", self.batches * SLICE_EDGES as u64),
            ("edges_deleted", planned_deleted),
        ];
        let stats = conn.call(r#"{"op":"stats"}"#);
        let registry = stats
            .as_ref()
            .ok()
            .and_then(|tree| field(field(tree, "stats")?, "registry"));
        for (name, want) in planned {
            let got = registry.and_then(|r| field_u64(r, name));
            tally.record(if got == Some(want) {
                Ok(())
            } else {
                Err(format!("stats {name}: {got:?}, planned {want}"))
            });
        }
        let listed = listed_edges(&mut conn);
        tally.record(if listed == Some(expected.num_edges()) {
            Ok(())
        } else {
            Err(format!(
                "server lists {listed:?} edges, the plan leads to {}",
                expected.num_edges()
            ))
        });
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(live) = self.live.take() {
            live.stop();
        }
    }
}
