//! Phase C: decide the next superstep's delivery, claim its active set,
//! and group the collected messages into the spare inbox.

use std::sync::atomic::Ordering;

use parking_lot::Mutex;

use xmt_graph::VertexId;
use xmt_model::PhaseCounts;
use xmt_par::pfor::default_chunk;

use super::compute::msg_words;
use super::direction::Frontier;
use super::frame::SuperstepFrame;
use super::{Delivery, Run};
use crate::program::VertexProgram;
use crate::transport::charge_exchange;

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
}

impl<P: VertexProgram> Run<'_, P> {
    /// Rebuild the frame's spare inbox from the collector (or empty it,
    /// when the next superstep pulls); the live/spare swap is the
    /// caller's.
    pub(super) fn exchange(&mut self, shipped: u64) -> Exchanged {
        let (graph, n, s) = (self.graph, self.n, self.s);
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
        // of combined messages is still one awake vertex.
        let need_estimate = self.policy.estimates() && pull_candidate;
        let claims_ran = need_estimate
            || (self.worklist && !(pull_candidate && self.config.delivery == Delivery::Pull));
        let SuperstepFrame {
            collector,
            spare,
            next_active,
            awake: awake_scratch,
            bucket_cursors,
            ..
        } = &mut *self.frame;
        // Borrow the collected messages in place (the storage stays with
        // the collector for next superstep's reuse).
        let collected = collector.collected();
        if claims_ran {
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
                        for &(dst, _) in batch.pairs {
                            claim(dst);
                        }
                        // One claim per run header.
                        for &(i, _) in batch.runs {
                            claim((batch.base + i as usize) as VertexId);
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

        if pull_next {
            // The pushed messages are discarded: the next superstep
            // re-derives them (and possibly more, harmlessly) from
            // neighbor state.  The worklist is likewise bypassed — the
            // pull superstep re-derives its own active set.
            next_active.clear();
            spare.reset_empty(n);
        } else {
            if !self.worklist {
                // The claims fed the density estimate only; the next
                // active set is rebuilt densely.
                next_active.clear();
            }
            spare.rebuild(
                self.exec,
                &collected,
                self.program.combiner(),
                bucket_cursors,
            );
        }
        Exchanged {
            pull_next,
            messages_sent: if pull_next { 0 } else { shipped },
            claims_ran,
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
