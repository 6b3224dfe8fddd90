//! The superstep engine.
//!
//! Each superstep (paper §II): (1) active vertices receive the messages
//! sent in the previous superstep, (2) compute locally, (3) send
//! messages to be received in the next superstep.  Messages can only
//! cross superstep boundaries, which is what makes the model
//! deadlock-free.  A vertex that votes to halt stays inactive until a
//! message reactivates it; the computation terminates when every vertex
//! is halted and no messages are in flight.
//!
//! [`run`] is the loop: per superstep it calls phase A (`scan`: find the
//! active vertices), phase B (`compute`: run the program over them) and
//! phase C (`exchange`: decide the next superstep's delivery in
//! `direction`, group the messages into the next inbox), each a method
//! on one per-run state struct with its own model charging.
//! `checkpoint` turns the loop's state into a [`ResumePoint`] and back;
//! `frame` is the scratch all phases reuse.

use std::sync::atomic::AtomicU64;

use serde::{Deserialize, Serialize};

use xmt_graph::Csr;
use xmt_model::Recorder;
use xmt_par::Executor;

use crate::program::VertexProgram;
use crate::transport::Transport;

mod checkpoint;
mod compute;
mod direction;
mod exchange;
mod frame;
mod scan;

pub use checkpoint::{ResumeError, ResumePoint, SlicedRun, Snapshot, StopHook};
pub use direction::Delivery;
pub use frame::SuperstepFrame;
pub use scan::ActiveSetStrategy;

use direction::Policy;

/// Runtime configuration: the four things two callers set differently.
/// What `Delivery::Auto` switches on is not among them — its thresholds
/// are the constants in `runtime/direction.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BspConfig {
    /// Message transport strategy.
    pub transport: Transport,
    /// Active-set strategy.
    pub active_set: ActiveSetStrategy,
    /// Message delivery mode (push, pull, or per-superstep auto).
    pub delivery: Delivery,
    /// Hard stop after this many supersteps (guards non-converging
    /// programs).
    pub max_supersteps: u64,
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            transport: Transport::PerThreadOutbox,
            active_set: ActiveSetStrategy::DenseScan,
            delivery: Delivery::Push,
            max_supersteps: 10_000,
        }
    }
}

/// Per-superstep observations (the raw material of Figs. 1 and 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuperstepStats {
    /// Vertices that executed `compute` this superstep.
    pub active: u64,
    /// Messages that crossed the superstep boundary (zero when the next
    /// superstep pulled instead).
    pub messages_sent: u64,
    /// Messages produced by `compute`.  Equals `messages_sent` unless the
    /// next superstep pulled and they were discarded.
    pub messages_generated: u64,
    /// Messages delivered to `compute` (post-combiner).
    pub messages_delivered: u64,
    /// Whether this superstep's inputs were gathered (pull mode) rather
    /// than received from shipped messages.
    pub pulled: bool,
    /// Neighbor states probed by pull-mode gathers this superstep.
    pub pull_probes: u64,
}

/// The outcome of a BSP run.
#[derive(Clone, Debug)]
pub struct BspResult<S> {
    /// Final per-vertex states.
    pub states: Vec<S>,
    /// Number of supersteps executed.
    pub supersteps: u64,
    /// Per-superstep observations.
    pub superstep_stats: Vec<SuperstepStats>,
    /// Per-superstep aggregator totals `(u64 sum, f64 sum)`.
    pub aggregates: Vec<(u64, f64)>,
    /// True when `max_supersteps` stopped the run before quiescence.
    pub hit_superstep_limit: bool,
    /// True when a [`StopHook`] cut the run before quiescence (the
    /// cancellation/deadline path of a job scheduler).
    pub stopped_early: bool,
}

/// Everything [`run`] takes besides the graph and the program.
/// `RunOptions::default()` is a fresh, untraced, uninstrumented run to
/// quiescence on the fixed executor; set only what differs and take
/// `..Default::default()` for the rest.
pub struct RunOptions<'a, P: VertexProgram> {
    /// Transport, active-set, delivery and limit knobs.
    pub config: BspConfig,
    /// Model recorder charged with every phase's operation counts.
    pub rec: Option<&'a mut Recorder>,
    /// Continue from this checkpoint (validated, never asserted) instead
    /// of starting at superstep 0.
    pub from: Option<Snapshot<P>>,
    /// Cut the run at the first checkpointable boundary after this
    /// returns `true`.
    pub stop: Option<StopHook<'a>>,
    /// Wall-clock trace sink: each completed superstep appends one
    /// [`xmt_trace::SuperstepTrace`] (phase timings, message counters,
    /// active-set size, halt votes, allocations).  Records carry
    /// *absolute* superstep numbers, so the series of a checkpoint/resume
    /// chain is contiguous.  With the `trace` feature off (or `None`) no
    /// clocks are read and no records are built.
    pub sink: Option<&'a mut xmt_trace::TraceSink>,
    /// Caller-owned scratch recycled across supersteps *and* runs; `None`
    /// uses a throwaway frame.  Results are identical either way — only
    /// the allocation behavior differs.
    pub frame: Option<&'a mut SuperstepFrame<P::State, P::Message>>,
    /// Where and how the parallel loops run.  `Executor::fixed()` (the
    /// default) is static chunks on the global pool, the loop shape the
    /// cost model charges for; the service passes a guided executor.
    /// Programs, transports, frames, checkpoints and traces are
    /// identical across executors, and the exchange delivers in source
    /// order whatever the schedule, so results agree
    /// superstep-for-superstep — bit for bit where DESIGN.md §17 says
    /// the order holds, and for any exact combiner elsewhere.
    pub exec: Executor,
}

impl<P: VertexProgram> Default for RunOptions<'_, P> {
    fn default() -> Self {
        RunOptions {
            config: BspConfig::default(),
            rec: None,
            from: None,
            stop: None,
            sink: None,
            frame: None,
            exec: Executor::fixed(),
        }
    }
}

/// Run `program` over `graph` to quiescence (or `config.max_supersteps`)
/// — the convenience form of [`run`] for a fresh run, which cannot fail.
pub fn run_bsp<P: VertexProgram>(
    graph: &Csr,
    program: &P,
    config: BspConfig,
    rec: Option<&mut Recorder>,
) -> BspResult<P::State> {
    let opts = RunOptions {
        config,
        rec,
        ..RunOptions::default()
    };
    // No checkpoint, so nothing `run` could reject.
    run_validated(graph, program, opts).result
}

/// The one full-control entry point: run until quiescence, the superstep
/// limit, or `opts.stop` returning `true` at a superstep boundary,
/// optionally starting from a checkpoint.
///
/// An interrupted run — by limit or hook — carries a [`ResumePoint`]
/// that continues it exactly (sliced runs compose to the uninterrupted
/// result); [`BspResult::stopped_early`] distinguishes a hook cut from
/// [`BspResult::hit_superstep_limit`].  The only error is a checkpoint
/// that does not fit `graph`.
pub fn run<P: VertexProgram>(
    graph: &Csr,
    program: &P,
    opts: RunOptions<'_, P>,
) -> Result<SlicedRun<P::State, P::Message>, ResumeError> {
    if let Some((states, resume)) = &opts.from {
        checkpoint::validate(graph.num_vertices() as usize, states, resume)?;
    }
    Ok(run_validated(graph, program, opts))
}

/// [`run`] once `opts.from`, if any, is known to fit `graph`.
fn run_validated<P: VertexProgram>(
    graph: &Csr,
    program: &P,
    opts: RunOptions<'_, P>,
) -> SlicedRun<P::State, P::Message> {
    let RunOptions {
        config,
        mut rec,
        from,
        stop,
        mut sink,
        frame,
        exec,
    } = opts;
    let mut throwaway = None;
    let frame = frame.unwrap_or_else(|| throwaway.insert(frame::take_spare()));
    // `ENABLED` is a const: when the feature is off this is `false`, the
    // compiler strips every `if tracing` block below, and the loop is
    // bit-identical to the untraced build.
    let tracing = xmt_trace::ENABLED && sink.is_some();
    let n = graph.num_vertices() as usize;
    let workers = exec.workers();
    let policy = Policy::new(
        &config,
        program.supports_pull() && program.combiner().is_some(),
        program.supports_bottom_up(),
    );
    let worklist = config.active_set == ActiveSetStrategy::Worklist;
    // The generation-tag claim machinery serves two consumers: the
    // worklist active set, and Auto's next-frontier estimate (distinct
    // claimed destinations — NOT the shipped message count, which
    // overcounts hubs that receive many combined messages).
    let track_next = worklist || policy.estimates();
    // Neighbor broadcasts of a program under the broadcast contract are
    // recorded once per sender wherever the exchange can deliver them
    // without per-arc pairs: the default transport, with no claim pass
    // reading the destinations (DESIGN.md §17, "Broadcasts").
    let record =
        policy.supports_pull && config.transport == Transport::PerThreadOutbox && !track_next;
    frame.prepare(n, workers, config.transport, record);

    let resumed_at = from.as_ref().map(|(_, resume)| resume.superstep);
    let (states, halted, prev_agg) = match from {
        None => {
            let states = compute::init_states(n, program, &exec, rec.as_deref_mut());
            let halted: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            frame.inbox.reset_empty(n);
            (states, halted, (0u64, 0.0f64))
        }
        Some(from) => checkpoint::restore(program, &exec, frame, from),
    };

    // Beamer's alpha rule compares the frontier's edges against the
    // still-unexplored edges; settled transitions observed in compute
    // keep the explored total exact, seeded here so a resumed run (or a
    // program whose `init` settles vertices) starts from truth.
    let explored_edges: u64 = if policy.beamer {
        states
            .iter()
            .enumerate()
            .filter(|(_, st)| program.is_settled(st))
            .map(|(v, _)| graph.degree(v as u64))
            .sum()
    } else {
        0
    };
    let mut run = Run {
        graph,
        program,
        config,
        exec: &exec,
        n,
        tracing,
        worklist,
        track_next,
        record,
        policy,
        stop,
        resumed_at,
        frame,
        rec,
        states,
        halted,
        // One generation tag per vertex for exactly-once insertion into
        // the compacted next-superstep active list.
        gen: if track_next {
            (0..n).map(|_| AtomicU64::new(u64::MAX)).collect()
        } else {
            Vec::new()
        },
        prev_agg,
        s: resumed_at.unwrap_or(0),
        pulling: false,
        explored_edges,
    };

    // Reserve the series up front so steady-state pushes stay in
    // capacity (capped: a pathological `max_supersteps` must not reserve
    // gigabytes for a run that quiesces in ten).
    let series_cap = config.max_supersteps.min(16_384) as usize;
    let mut superstep_stats = Vec::with_capacity(series_cap);
    let mut aggregates = Vec::with_capacity(series_cap);
    let mut hit_limit = false;
    let mut stopped = false;

    loop {
        // Read before the stopwatches start, so the system call stays out
        // of the phase laps.
        let faults_at = if tracing {
            xmt_trace::minor_faults()
        } else {
            0
        };
        // Two stopwatches when tracing: one spanning the superstep, one
        // lapped at each phase boundary.  `None` (rather than a stopped
        // watch) when not tracing, so untraced runs read no clocks even
        // in trace-enabled builds.
        let mut step_watch = tracing.then(xmt_trace::Stopwatch::start);
        let mut phase_watch = step_watch;
        // Allocation window: everything from here through the end of the
        // exchange phase is covered; the trace record built after the
        // window is excluded so tracing does not observe its own
        // allocations.
        let allocs_at = if tracing { xmt_trace::alloc_count() } else { 0 };
        run.frame.collector.reset();

        // ---- Phase A: find active vertices -------------------------------
        run.scan();
        let scan_ns = phase_watch.as_mut().map_or(0, xmt_trace::Stopwatch::lap_ns);
        run.charge_scan();
        if run.frame.active.is_empty() {
            break;
        }
        if run.s >= config.max_supersteps {
            hit_limit = true;
            break;
        }
        // Stop hook: cut the run here, but only on a boundary that makes
        // a valid checkpoint.  Superstep 0 must run first (a "superstep
        // 0" checkpoint is no checkpoint at all — resuming it is just a
        // fresh run, and `ResumePoint`s start at 1).  And a pull
        // boundary has no materialized in-flight messages to persist
        // (the superstep about to run would re-derive them from neighbor
        // state); on one, the superstep runs with pull disabled for its
        // successor (see `Policy::pull_candidate`), so the next boundary
        // is cuttable.
        if run.s > 0 && !run.pulling && stop.is_some_and(|f| f()) {
            stopped = true;
            break;
        }

        // ---- Phase B: compute ---------------------------------------------
        let computed = run.compute();
        let compute_ns = phase_watch.as_mut().map_or(0, xmt_trace::Stopwatch::lap_ns);

        // ---- Phase C: exchange --------------------------------------------
        let exchanged = run.exchange(&computed);
        let exchange_ns = phase_watch.as_mut().map_or(0, xmt_trace::Stopwatch::lap_ns);
        // End of the allocation and fault windows: the superstep's real
        // work is done; what follows is trace/series bookkeeping.
        let (step_allocs, step_faults) = if tracing {
            (
                xmt_trace::alloc_count().saturating_sub(allocs_at),
                xmt_trace::minor_faults().saturating_sub(faults_at),
            )
        } else {
            (0, 0)
        };

        run.charge_compute(&computed, exchanged.messages_sent);
        run.charge_exchange(computed.shipped, &exchanged);

        let active = run.frame.active.len() as u64;
        aggregates.push(computed.aggregate);
        run.prev_agg = computed.aggregate;
        superstep_stats.push(SuperstepStats {
            active,
            messages_sent: exchanged.messages_sent,
            messages_generated: computed.shipped,
            messages_delivered: computed.delivered,
            pulled: run.pulling,
            pull_probes: computed.probes,
        });
        if let (true, Some(sk)) = (tracing, sink.as_deref_mut()) {
            sk.record(xmt_trace::SuperstepTrace {
                superstep: run.s,
                active,
                messages_sent: exchanged.messages_sent,
                messages_generated: computed.shipped,
                messages_delivered: computed.delivered,
                halt_votes: computed.halt_votes,
                pulled: run.pulling,
                pull_probes: computed.probes,
                // From the lane lengths, while the lanes still hold the
                // superstep's deposits, plus the pairs the broadcasts
                // that never reached a lane stand for.
                bytes_deposited: run.frame.collector.bytes_deposited()
                    + exchanged.unlaned_arcs * crate::transport::pair_bytes::<P::Message>(),
                allocs: step_allocs,
                minor_faults: step_faults,
                scan_ns,
                compute_ns,
                exchange_ns,
                total_ns: step_watch.as_mut().map_or(0, xmt_trace::Stopwatch::lap_ns),
            });
        }
        // Double-buffer flip: the freshly rebuilt spare becomes the live
        // inbox; the old live inbox is rebuilt in place next superstep.
        let frame = &mut *run.frame;
        std::mem::swap(&mut frame.inbox, &mut frame.spare);
        run.pulling = exchanged.pull_next;
        run.s += 1;
    }

    // A cut boundary must have materialized in-flight messages: the
    // stop gate refuses pull boundaries and `pull_candidate` refuses to
    // enter pull mode once the hook fires (or within one superstep of
    // the limit), so an interrupted run can never be about to gather.
    debug_assert!(
        !((hit_limit || stopped) && run.pulling),
        "checkpoint cut on a pull boundary"
    );
    let resume = (hit_limit || stopped)
        .then(|| checkpoint::cut(run.s, &run.halted, &run.frame.inbox, run.prev_agg));

    let sliced = SlicedRun {
        result: BspResult {
            supersteps: run.s,
            states: run.states,
            superstep_stats,
            aggregates,
            hit_superstep_limit: hit_limit,
            stopped_early: stopped,
        },
        resume,
    };
    if let Some(frame) = throwaway {
        frame::keep_spare(frame);
    }
    sliced
}

/// One run's state across supersteps.  The phases are methods on it:
/// [`scan`](Self::scan) (A), [`compute`](Self::compute) (B) and
/// [`exchange`](Self::exchange) (C), each with its model charging.
struct Run<'a, P: VertexProgram> {
    // ---- fixed for the run ----
    graph: &'a Csr,
    program: &'a P,
    config: BspConfig,
    exec: &'a Executor,
    n: usize,
    tracing: bool,
    worklist: bool,
    /// Compute and exchange claim next-superstep vertices by generation
    /// tag (worklist active set and/or `Auto`'s frontier estimate).
    track_next: bool,
    /// `send_to_neighbors` records into the frame's broadcasts instead
    /// of queueing pairs.
    record: bool,
    policy: Policy,
    stop: Option<StopHook<'a>>,
    /// The superstep a resumed run starts at: its active set is scanned
    /// densely even under the worklist strategy.
    resumed_at: Option<u64>,
    // ---- evolving ----
    frame: &'a mut SuperstepFrame<P::State, P::Message>,
    rec: Option<&'a mut Recorder>,
    states: Vec<P::State>,
    halted: Vec<AtomicU64>,
    gen: Vec<AtomicU64>,
    prev_agg: (u64, f64),
    /// The superstep about to run (absolute).
    s: u64,
    /// Superstep `s` gathers instead of receiving shipped messages.
    pulling: bool,
    /// Edges of settled vertices (Beamer's alpha rule).
    explored_edges: u64,
}

#[cfg(test)]
mod tests;
