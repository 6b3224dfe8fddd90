//! Phase B: run `compute` on every active vertex, delivering its inputs
//! from the inbox (push) or by gathering over neighbor state (pull).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use xmt_graph::{Csr, VertexId};
use xmt_model::{PhaseCounts, Recorder};
use xmt_par::pfor::default_chunk;
use xmt_par::Executor;

use super::exchange::combine;
use super::frame::{bit, SuperstepFrame};
use super::Run;
use crate::program::{Context, VertexProgram};

/// Messages a worker's outbox may hold before the chunk deposits them:
/// pairs plus run payloads, so 256 KiB of 16-byte `(dst, msg)` pairs, or
/// 64 KiB of 4-byte run payloads (and their headers) for triangle
/// candidates.  The partition should read the outbox from cache (2 MiB
/// of L2 here), and every deposit is one more row of the lane's deposit
/// table for the receiving side to walk.  Picked by measurement on pairs
/// (EXPERIMENTS.md, "Triangle counting at message cost"; DESIGN.md §17
/// says why order holds, however a chunk's deposits split).
pub(super) const DEPOSIT_HIGH_WATER: usize = 1 << 14;

/// Superstep "-1": every vertex's initial state, charged as `init`.
pub(super) fn init_states<P: VertexProgram>(
    n: usize,
    program: &P,
    exec: &Executor,
    rec: Option<&mut Recorder>,
) -> Vec<P::State> {
    let mut states: Vec<P::State> = Vec::with_capacity(n);
    let base = states.as_mut_ptr() as usize;
    exec.pfor(0, n, |v| {
        // SAFETY: each index written once; capacity reserved.
        unsafe { (base as *mut P::State).add(v).write(program.init(v as u64)) };
    });
    // SAFETY: the loop above wrote all `n` reserved slots.
    unsafe { states.set_len(n) };
    if let Some(r) = rec {
        let mut c = PhaseCounts::with_items(n as u64);
        c.writes = n as u64;
        c.charge_loop_overhead(default_chunk(n, 1) as u64);
        c.barriers = 1;
        r.push("init", 0, c, n as u64);
    }
    states
}

/// What one compute phase observed, read after its join.
#[derive(Clone, Copy, Debug)]
pub(super) struct Computed {
    /// Messages `compute` produced: what crosses the boundary unless the
    /// next superstep pulls.  Recorded broadcasts count one per arc.
    pub shipped: u64,
    /// The part of `shipped` recorded as broadcasts rather than
    /// deposited: the broadcasting senders' degrees.
    pub recorded: u64,
    /// Messages handed to `compute`.
    pub delivered: u64,
    /// Neighbor states probed by pull-mode gathers.
    pub probes: u64,
    /// Probes that produced a message.
    pub hits: u64,
    /// Program-charged extra reads / ALU ops.
    pub extra_reads: u64,
    pub extra_alu: u64,
    /// Vertices that voted to halt (counted only when tracing).
    pub halt_votes: u64,
    /// This superstep's aggregator totals.
    pub aggregate: (u64, f64),
}

impl<P: VertexProgram> Run<'_, P> {
    /// Run `compute` over the frame's `active` list; sends land in the
    /// frame's collector, stayed-awake claims in `next_active`.
    pub(super) fn compute(&mut self) -> Computed {
        let (graph, program, n, s) = (self.graph, self.program, self.n, self.s);
        let (tracing, track_next, prev_agg) = (self.tracing, self.track_next, self.prev_agg);
        let (bottom_up, beamer) = (self.policy.bottom_up, self.policy.beamer);
        let record = self.record;
        let SuperstepFrame {
            collector,
            broadcasts,
            inbox,
            snapshot: snapshot_buf,
            dense_visited,
            active,
            next_active,
            agg_f64,
            outbox: outbox_scratch,
            awake: awake_scratch,
            marks: marks_scratch,
            ..
        } = &mut *self.frame;
        // The aggregator's integer half is exact in any order; the float
        // half is written per active position and summed after the join
        // in that order, so neither depends on chunk boundaries.
        let agg_u64 = AtomicU64::new(0);
        agg_f64.clear();
        agg_f64.resize(active.len(), 0.0);
        let agg_f64_base = agg_f64.as_mut_ptr() as usize;
        let delivered = AtomicU64::new(0);
        let pull_probes = AtomicU64::new(0);
        let pull_hits = AtomicU64::new(0);
        let settled_deg = AtomicU64::new(0);
        let extra_reads = AtomicU64::new(0);
        let extra_alu = AtomicU64::new(0);
        let halt_votes = AtomicU64::new(0);
        let recorded = AtomicU64::new(0);
        if record {
            broadcasts.reset(n);
        }
        let sink = record.then(|| broadcasts.sink());
        // The stayed-awake claims accumulate into the frame's buffer, moved
        // behind a stack mutex for the parallel region and restored after
        // it (the mutex itself is a stack value — no allocation).
        let next_active_parts: Mutex<Vec<VertexId>> = Mutex::new(std::mem::take(next_active));
        // Pull supersteps gather from the states as of the *end of the
        // previous superstep*; snapshot them (into the frame's retained
        // buffer) so concurrent writes during this superstep cannot leak
        // in (BSP read semantics).
        let snapshot: Option<&[P::State]> = if self.pulling {
            snapshot_buf.clone_from(&self.states);
            Some(snapshot_buf.as_slice())
        } else {
            None
        };
        let states_base = self.states.as_mut_ptr() as usize;
        {
            let active_ref: &[VertexId] = active;
            // The settled bitmap scan built, on bottom-up supersteps.
            let visited_ref: Option<&[u64]> = bottom_up.then_some(dense_visited.as_slice());
            let inbox_ref = &*inbox;
            let halted_ref = &self.halted;
            let gen = &self.gen;
            let collector_ref = &*collector;
            let outbox_ref = &*outbox_scratch;
            let awake_ref = &*awake_scratch;
            let marks_ref = &*marks_scratch;
            let sink_ref = sink.as_ref();
            let exec = self.exec;
            let chunk = default_chunk(active_ref.len(), exec.workers());
            exec.pfor_chunked(0, active_ref.len(), chunk, |worker, range| {
                // SAFETY: at most one live thread per worker id (the
                // pfor_chunked contract under both schedules), so the
                // slots below are private to this invocation.
                let outbox = unsafe { outbox_ref.get(worker) };
                // SAFETY: same single-thread-per-worker-id contract.
                let local_awake = unsafe { awake_ref.get(worker) };
                // SAFETY: same single-thread-per-worker-id contract.
                let marks = unsafe { marks_ref.get(worker) };
                let chunk_start = range.start;
                let mut local_agg = 0u64;
                let mut local_delivered = 0u64;
                let mut local_probes = (0u64, 0u64);
                let mut local_settled_deg = 0u64;
                let mut local_extra = (0u64, 0u64);
                let mut local_halts = 0u64;
                let mut local_recorded = 0u64;
                for i in range {
                    let v = active_ref[i];
                    // Pull mode: gather from the neighbors' snapshotted
                    // states; push mode: read the inbox.
                    let gathered = snapshot.and_then(|snap| {
                        gather(program, graph, v, snap, visited_ref, &mut local_probes)
                    });
                    let msgs: &[P::Message] = if snapshot.is_some() {
                        gathered.as_slice()
                    } else {
                        inbox_ref.messages(v)
                    };
                    local_delivered += msgs.len() as u64;
                    let mut ctx = Context {
                        graph,
                        superstep: s,
                        vertex: v,
                        outbox: &mut *outbox,
                        broadcasts: sink_ref,
                        broadcast_arcs: 0,
                        program: std::any::type_name::<P>(),
                        marks: &mut *marks,
                        halt: false,
                        agg_u64: 0,
                        agg_f64: 0.0,
                        prev_agg_u64: prev_agg.0,
                        prev_agg_f64: prev_agg.1,
                        num_vertices: n as u64,
                        extra_reads: 0,
                        extra_alu: 0,
                    };
                    // SAFETY: active vertices are distinct, so state
                    // writes are disjoint across iterations.
                    let state = unsafe { &mut *(states_base as *mut P::State).add(v as usize) };
                    let was_settled = beamer && program.is_settled(state);
                    program.compute(&mut ctx, state, msgs);
                    // A vertex settling this superstep moves its edges
                    // from "unexplored" to "explored" for the alpha rule.
                    if beamer && !was_settled && program.is_settled(state) {
                        local_settled_deg += graph.degree(v);
                    }
                    // Relaxed: each active vertex's flag is written once
                    // (active set is distinct) and read only after join.
                    halted_ref[v as usize].store(ctx.halt as u64, Ordering::Relaxed);
                    // `tracing` is loop-invariant and const-false in
                    // feature-off builds: the accumulation is stripped.
                    if tracing {
                        local_halts += u64::from(ctx.halt);
                    }
                    // Worklist/estimator: a vertex that stayed awake is
                    // active next superstep regardless of messages;
                    // claim its slot.
                    if track_next
                        && !ctx.halt
                        // Relaxed: the tag elects one claimer per
                        // generation; the list is read after the join.
                        && gen[v as usize].swap(s + 1, Ordering::Relaxed) != s + 1
                    {
                        local_awake.push(v);
                    }
                    local_agg = local_agg.wrapping_add(ctx.agg_u64);
                    // SAFETY: position `i` belongs to this chunk alone and
                    // lies inside the `active.len()` slots sized above.
                    unsafe { (agg_f64_base as *mut f64).add(i).write(ctx.agg_f64) };
                    local_extra.0 += ctx.extra_reads;
                    local_extra.1 += ctx.extra_alu;
                    local_recorded += ctx.broadcast_arcs;
                    // Deposit while the sends are still in cache; the
                    // chunk's later deposits follow in this same lane.
                    if outbox.messages() >= DEPOSIT_HIGH_WATER {
                        collector_ref.deposit(worker, chunk_start, outbox);
                    }
                }
                // Relaxed (all six below): pure accumulators whose totals
                // are read only after the parallel_for join.
                agg_u64.fetch_add(local_agg, Ordering::Relaxed);
                extra_reads.fetch_add(local_extra.0, Ordering::Relaxed); // Relaxed: stats, read post-join
                extra_alu.fetch_add(local_extra.1, Ordering::Relaxed); // Relaxed: stats, read post-join
                delivered.fetch_add(local_delivered, Ordering::Relaxed); // Relaxed: stats, read post-join
                recorded.fetch_add(local_recorded, Ordering::Relaxed); // Relaxed: read post-join
                if local_probes.0 > 0 {
                    // Relaxed: stats counters, read only post-join.
                    pull_probes.fetch_add(local_probes.0, Ordering::Relaxed);
                    pull_hits.fetch_add(local_probes.1, Ordering::Relaxed); // Relaxed: stats, post-join
                }
                if local_settled_deg > 0 {
                    // Relaxed: estimator input, read only post-join.
                    settled_deg.fetch_add(local_settled_deg, Ordering::Relaxed);
                }
                if tracing {
                    // Relaxed: trace counter, read only post-join.
                    halt_votes.fetch_add(local_halts, Ordering::Relaxed);
                }
                // Drains the scratch, leaving its capacity warm for the
                // worker's next chunk (and the next superstep).
                collector_ref.deposit(worker, chunk_start, outbox);
                if !local_awake.is_empty() {
                    next_active_parts.lock().extend(local_awake.drain(..));
                }
            });
        }
        *next_active = next_active_parts.into_inner();
        let aggregate = (
            agg_u64.load(Ordering::Relaxed), // Relaxed: post-join read
            agg_f64.iter().fold(0.0, |acc, &x| acc + x),
        );
        // Settled transitions keep Beamer's explored-edge total exact.
        // Relaxed loads (here and below): the compute parallel_for joined
        // above, so every worker's accumulation happens-before these reads.
        self.explored_edges += settled_deg.load(Ordering::Relaxed);
        let recorded = recorded.load(Ordering::Relaxed); // Relaxed: post-join read
        Computed {
            shipped: collector.total() + recorded,
            recorded,
            delivered: delivered.load(Ordering::Relaxed), // Relaxed: post-join read
            probes: pull_probes.load(Ordering::Relaxed),  // Relaxed: post-join read
            hits: pull_hits.load(Ordering::Relaxed),      // Relaxed: post-join read
            extra_reads: extra_reads.load(Ordering::Relaxed), // Relaxed: post-join read
            extra_alu: extra_alu.load(Ordering::Relaxed), // Relaxed: post-join read
            halt_votes: halt_votes.load(Ordering::Relaxed), // Relaxed: post-join read
            aggregate,
        }
    }

    /// Charge the compute phase to the model recorder.  Called once the
    /// exchange has decided how many messages cross the boundary.
    pub(super) fn charge_compute(&mut self, done: &Computed, messages_sent: u64) {
        let Some(r) = self.rec.as_deref_mut() else {
            return;
        };
        let a = self.frame.active.len() as u64;
        // Parallelism is the active set (+ the message fan-out): state
        // read+write and halt write per active vertex; one neighbor-id
        // read and one ALU op per produced message.  Push supersteps
        // read the delivered words from the inbox; pull supersteps charge
        // the gather probes instead.
        let mut c = PhaseCounts::with_items(a.max(done.shipped).max(1));
        c.reads = 2 * a + done.shipped + done.extra_reads;
        c.writes = 2 * a;
        c.alu_ops = a + done.shipped + done.extra_alu;
        if self.pulling {
            xmt_model::charge_pull_gather(&mut c, done.probes, done.hits, msg_words::<P>());
        } else {
            c.reads += done.delivered * msg_words::<P>();
        }
        c.charge_loop_overhead(default_chunk(self.frame.active.len(), 1) as u64);
        r.push("superstep", self.s, c, messages_sent);
    }
}

/// The pull-mode input of `v`: `pull_from` over its neighbors' states as
/// of the previous boundary (`snap`), counting `(probes, hits)`.
///
/// With a settled bitmap (`visited`, bottom-up supersteps) a settled
/// vertex has nothing to gain and skips the gather; an unsettled one
/// probes only settled neighbors and stops at the *first* offer — the
/// settled-predicate contract says any one offer is as good as the full
/// fold.  Without one, every offer is folded through the combiner.
#[inline]
fn gather<P: VertexProgram>(
    program: &P,
    graph: &Csr,
    v: VertexId,
    snap: &[P::State],
    visited: Option<&[u64]>,
    probes: &mut (u64, u64),
) -> Option<P::Message> {
    match visited {
        Some(bits) if bit(bits, v) => None,
        Some(bits) => {
            for &u in graph.neighbors(v) {
                probes.0 += 1;
                if bit(bits, u) {
                    if let Some(m) = program.pull_from(graph, u, &snap[u as usize]) {
                        probes.1 += 1;
                        return Some(m);
                    }
                }
            }
            None
        }
        None => {
            // Pull mode is gated on `supports_pull`, which requires a
            // combiner; without one there is nothing to fold with.
            program.combiner()?;
            let mut gathered = None;
            for &u in graph.neighbors(v) {
                probes.0 += 1;
                if let Some(m) = program.pull_from(graph, u, &snap[u as usize]) {
                    probes.1 += 1;
                    gathered = Some(match gathered {
                        None => m,
                        Some(acc) => combine(program, acc, m),
                    });
                }
            }
            gathered
        }
    }
}

/// 64-bit words per message of program `P`.
pub(super) fn msg_words<P: VertexProgram>() -> u64 {
    (std::mem::size_of::<P::Message>() as u64)
        .div_ceil(8)
        .max(1)
}
