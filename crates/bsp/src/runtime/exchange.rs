//! Phase C: decide the next superstep's delivery, claim its active set,
//! and group the collected messages — or gather the recorded
//! broadcasts — into the spare inbox.

use std::sync::atomic::Ordering;

use parking_lot::Mutex;

use xmt_graph::{Csr, VertexId};
use xmt_model::PhaseCounts;
use xmt_par::pfor::default_chunk;
use xmt_par::{Executor, WorkerScratch};

use super::compute::{msg_words, Computed, DEPOSIT_HIGH_WATER};
use super::direction::Frontier;
use super::frame::SuperstepFrame;
use super::{Delivery, Run};
use crate::inbox::Inbox;
use crate::program::VertexProgram;
use crate::transport::{charge_exchange, Broadcasts, Collected, MessageCollector, Outbox};

/// Recorded broadcasts are gathered at the receivers when they stand for
/// at least `1 / GATHER_DIVISOR` of the graph's arcs, and expanded into
/// the lanes below that.  A gather reads every row of the graph once
/// whatever the traffic; an expansion writes, partitions and folds one
/// pair per arc.  Picked by measurement (EXPERIMENTS.md, "Broadcasts
/// once per sender").
const GATHER_DIVISOR: u64 = 3;

/// What one exchange phase decided.
#[derive(Clone, Copy, Debug)]
pub(super) struct Exchanged {
    /// The next superstep gathers instead of receiving.
    pub pull_next: bool,
    /// Messages that actually cross the boundary: none when the next
    /// superstep gathers instead.
    pub messages_sent: u64,
    /// The destination claim pass ran (charged as atomics).
    pub claims_ran: bool,
    /// Recorded broadcast arcs that never reached a lane: gathered at
    /// the receivers, or dropped for a pull superstep.
    pub unlaned_arcs: u64,
}

impl<P: VertexProgram> Run<'_, P> {
    /// Rebuild the frame's spare inbox from the collector (or empty it,
    /// when the next superstep pulls); the live/spare swap is the
    /// caller's.
    pub(super) fn exchange(&mut self, computed: &Computed) -> Exchanged {
        let (graph, n, s) = (self.graph, self.n, self.s);
        let (shipped, recorded) = (computed.shipped, computed.recorded);
        let stop = self.stop;
        let pull_candidate = self
            .policy
            .pull_candidate(s, shipped, || stop.is_some_and(|f| f()));
        // The destination claim pass: one generation-tagged claim per
        // distinct message destination, merged with the stayed-awake
        // claims from compute.  O(messages), never O(V).  It runs when
        // the worklist needs the next active list (skipped when a
        // static-pull superstep will ignore it anyway) or when Auto
        // needs the density estimate — which must count *distinct*
        // destinations, not shipped messages: a hub receiving thousands
        // of combined messages is still one awake vertex.  Runs with
        // either consumer never record broadcasts, so every message is
        // in the lanes.
        let need_estimate = self.policy.estimates() && pull_candidate;
        let claims_ran = need_estimate
            || (self.worklist && !(pull_candidate && self.config.delivery == Delivery::Pull));
        debug_assert!(
            !(claims_ran && recorded > 0),
            "claims over recorded broadcasts"
        );
        let SuperstepFrame {
            collector,
            broadcasts,
            spare,
            next_active,
            outbox: outbox_scratch,
            awake: awake_scratch,
            bucket_cursors,
            ..
        } = &mut *self.frame;
        if claims_ran {
            // Borrow the collected messages in place (the storage stays
            // with the collector for next superstep's reuse).
            let collected = collector.collected();
            let next_active_parts = Mutex::new(std::mem::take(next_active));
            let collected_ref = &collected;
            let awake_ref = &*awake_scratch;
            let gen = &self.gen;
            self.exec
                .pfor_chunked(0, collected_ref.num_batches(), 1, |worker, range| {
                    // SAFETY: at most one live thread per worker id, so
                    // the awake slot is private to this invocation.
                    let local = unsafe { awake_ref.get(worker) };
                    let mut claim = |dst: VertexId| {
                        // Relaxed: generation tag elects one claimer;
                        // the list itself is read only after the join.
                        if gen[dst as usize].swap(s + 1, Ordering::Relaxed) != s + 1 {
                            local.push(dst);
                        }
                    };
                    for b in range {
                        let batch = collected_ref.batch(b);
                        let at = |i: u32| (batch.base + i as usize) as VertexId;
                        for &(i, _) in batch.pairs {
                            claim(at(i));
                        }
                        // One claim per run header.
                        for &(i, _) in batch.runs {
                            claim(at(i));
                        }
                    }
                    if !local.is_empty() {
                        next_active_parts.lock().extend(local.drain(..));
                    }
                });
            *next_active = next_active_parts.into_inner();
        }
        let next = Frontier {
            // Exactly the vertices that will run compute next superstep:
            // distinct message destinations ∪ stayed-awake claimers.
            est_active: next_active.len() as u64,
            frontier_edges: if need_estimate && self.policy.beamer && !self.pulling {
                next_active.iter().map(|&v| graph.degree(v)).sum()
            } else {
                0
            },
            unexplored_edges: graph.num_arcs().saturating_sub(self.explored_edges),
            num_vertices: n as u64,
        };
        let pull_next = self.policy.pull_next(pull_candidate, self.pulling, &next);

        let mut unlaned_arcs = 0;
        if pull_next {
            // The pushed messages (and recorded broadcasts) are
            // discarded: the next superstep re-derives them (and
            // possibly more, harmlessly) from neighbor state.  The
            // worklist is likewise bypassed — the pull superstep
            // re-derives its own active set.
            next_active.clear();
            spare.reset_empty(n);
            unlaned_arcs = recorded;
        } else {
            if !self.worklist {
                // The claims fed the density estimate only; the next
                // active set is rebuilt densely.
                next_active.clear();
            }
            // Dense broadcasts are gathered; sparse ones, and any that
            // share the superstep with deposits (only a program breaking
            // the broadcast contract makes both), travel as pairs.
            let dense = recorded.saturating_mul(GATHER_DIVISOR) >= graph.num_arcs();
            let filled = (recorded > 0 && dense && collector.total() == 0)
                .then(|| broadcasts.filled())
                .flatten();
            if let Some(sent) = filled {
                let program = self.program;
                spare.gather(self.exec, graph, &sent, recorded, |a, b| {
                    combine(program, a, b)
                });
                unlaned_arcs = recorded;
            } else {
                if recorded > 0 {
                    expand(
                        self.exec,
                        graph,
                        broadcasts,
                        recorded,
                        collector,
                        outbox_scratch,
                    );
                }
                regroup(
                    self.program,
                    spare,
                    self.exec,
                    &collector.collected(),
                    bucket_cursors,
                );
            }
        }
        Exchanged {
            pull_next,
            messages_sent: if pull_next { 0 } else { shipped },
            claims_ran,
            unlaned_arcs,
        }
    }

    /// Charge the exchange phase to the model recorder.
    pub(super) fn charge_exchange(&mut self, shipped: u64, done: &Exchanged) {
        let Some(r) = self.rec.as_deref_mut() else {
            return;
        };
        let n = self.n as u64;
        let a = self.frame.active.len() as u64;
        let sent = done.messages_sent;
        // Grouping messages into the next inbox is a vertex-wide
        // operation (counts, prefix sum, scatter) whose parallelism is
        // V / messages, NOT the active set.  When the next superstep
        // pulls, the boundary only pays the state snapshot.
        let mut e = PhaseCounts::with_items(n.max(sent).max(1));
        if done.pull_next {
            let state_words = (std::mem::size_of::<P::State>() as u64).div_ceil(8).max(1);
            xmt_model::charge_pull_exchange(&mut e, n, state_words);
            if done.claims_ran {
                // Generation-tag claims feeding the estimator (the
                // shipped messages were claimed before discarding).
                e.atomics += shipped + a;
            }
        } else {
            charge_exchange(&mut e, self.config.transport, sent, msg_words::<P>(), n);
            if done.claims_ran {
                // Generation-tag claims for the next active list
                // and/or the density estimate.
                e.atomics += sent + a;
            }
        }
        e.charge_loop_overhead(default_chunk(self.n, 1) as u64);
        r.push("exchange", self.s, e, sent);
    }
}

/// Group `collected` into `inbox` the way `program` receives: folded
/// with its combiner, or grouped in delivery order without one.
pub(super) fn regroup<P: VertexProgram>(
    program: &P,
    inbox: &mut Inbox<P::Message>,
    exec: &Executor,
    collected: &Collected<'_, P::Message>,
    cursors: &WorkerScratch<Vec<u64>>,
) {
    if program.combiner().is_some() {
        inbox.fold(exec, collected, |a, b| combine(program, a, b));
    } else {
        inbox.group(exec, collected, cursors);
    }
}

/// `program`'s combiner on `(a, b)` (`b` alone without one).  Every fold
/// calls this once per message, monomorphised per program, where
/// `combiner()` inlines to a constant reference: the combine is a direct
/// call, not a trait-object dispatch.
#[inline(always)]
pub(super) fn combine<P: VertexProgram>(program: &P, a: P::Message, b: P::Message) -> P::Message {
    program.combiner().map_or(b, |c| c.combine(a, b))
}

/// Expand `arcs` recorded broadcast arcs into the collector's lanes:
/// each sender's message to every neighbor, senders ascending.  A task
/// deposits the senders of its words at the first vertex they cover, so
/// the lanes hold what a `DenseScan` compute of the same senders would
/// have deposited, in the same order.  Fewer arcs than one outbox holds
/// before it deposits are expanded on the calling thread, into the first
/// lane: waking the pool would cost more than they do.
fn expand<M: Copy + Send + Sync>(
    exec: &Executor,
    graph: &Csr,
    sent: &Broadcasts<M>,
    arcs: u64,
    collector: &MessageCollector<M>,
    outboxes: &WorkerScratch<Outbox<M>>,
) {
    let words = sent.sender_words();
    let task = |worker: usize, range: std::ops::Range<usize>| {
        // SAFETY: at most one live thread per worker id (the
        // `pfor_chunked` contract, or the calling thread alone), so
        // the outbox slot is private to this invocation.
        let outbox = unsafe { outboxes.get(worker) };
        let position = range.start * 64;
        for w in range {
            let mut bits = sent.sender_word(w);
            while bits != 0 {
                let u = (w * 64) as VertexId + VertexId::from(bits.trailing_zeros());
                bits &= bits - 1;
                if let Some(msg) = sent.sent(u) {
                    outbox
                        .pairs
                        .extend(graph.neighbors(u).iter().map(|&v| (v, msg)));
                }
                if outbox.messages() >= DEPOSIT_HIGH_WATER {
                    collector.deposit(worker, position, outbox);
                }
            }
        }
        collector.deposit(worker, position, outbox);
    };
    if arcs < DEPOSIT_HIGH_WATER as u64 {
        task(0, 0..words);
    } else {
        exec.pfor_chunked(0, words, default_chunk(words, exec.workers()), task);
    }
}
