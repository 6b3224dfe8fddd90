//! Phase A: find the vertices that run `compute` this superstep.

use std::sync::atomic::Ordering;

use serde::{Deserialize, Serialize};

use xmt_model::PhaseCounts;
use xmt_par::pfor::default_chunk;

use super::frame::SuperstepFrame;
use super::Run;
use crate::inbox::bit;
use crate::program::VertexProgram;

/// How the runtime finds the active vertices each superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActiveSetStrategy {
    /// Scan the whole vertex array testing halt flags and inbox counts —
    /// the straightforward XMT port.  Costs O(V) *every* superstep, which
    /// is exactly the early/late-superstep overhead the paper observes
    /// (two orders of magnitude on nearly-empty frontiers).
    DenseScan,
    /// Build a compacted worklist from message destinations; the O(V)
    /// scan is replaced by work proportional to the active set.  An
    /// ablation of the design choice above (host results identical; the
    /// performance model charges the reduced traffic).
    Worklist,
}

impl<P: VertexProgram> Run<'_, P> {
    /// Fill the frame's `active` list for superstep `s`.
    pub(super) fn scan(&mut self) {
        let (graph, n) = (self.graph, self.n);
        let halted = &self.halted;
        let SuperstepFrame {
            active,
            next_active,
            inbox,
            dense_visited,
            ..
        } = &mut *self.frame;
        if self.pulling.is_some() {
            // Pull superstep: any vertex with a neighbor may gather a
            // message (a superset of push's receivers — safe per the
            // `pull_from` contract) except, bottom-up, a settled one (by
            // the bitmap the exchange built for its gather); plus the
            // already-awake, settled or not.
            let settled = self.policy.bottom_up.then_some(dense_visited.as_slice());
            active.clear();
            active.extend((0..n as u64).filter(|&v| {
                // Relaxed: halt flags were stored before the previous
                // superstep's pool join, which happens-before this scan.
                let awake = halted[v as usize].load(Ordering::Relaxed) == 0;
                awake || (graph.degree(v) > 0 && !settled.is_some_and(|bits| bit(bits, v)))
            }));
        } else if self.s == 0 {
            active.clear();
            active.extend(0..n as u64);
        } else if self.worklist && self.resumed_at != Some(self.s) {
            // The list built during the previous superstep becomes
            // current; its buffer becomes the next build target.
            std::mem::swap(active, next_active);
            next_active.clear();
        } else {
            // Dense filter: the default strategy, and the first superstep
            // after a resume (the worklist is rebuilt incrementally from
            // here on).
            active.clear();
            active.extend((0..n as u64).filter(|&v| {
                // Relaxed: flags precede the last superstep's join.
                inbox.has_messages(v) || halted[v as usize].load(Ordering::Relaxed) == 0
            }));
        }
    }

    /// Charge the scan just performed to the model recorder.
    pub(super) fn charge_scan(&mut self) {
        let Some(r) = self.rec.as_deref_mut() else {
            return;
        };
        let n = self.n as u64;
        let active = self.frame.active.len() as u64;
        let mut c = if self.pulling.is_some() {
            // Pull supersteps scan degrees + halt flags densely no
            // matter the strategy; bottom-up ones additionally read
            // every state for the settled bitmap and write its words.
            let bottom_up = self.policy.bottom_up;
            let mut c = PhaseCounts::with_items(n);
            c.reads = if bottom_up { 3 * n } else { 2 * n };
            c.writes = if bottom_up { n.div_ceil(64) } else { 0 };
            c.alu_ops = n;
            c
        } else {
            match self.config.active_set {
                ActiveSetStrategy::DenseScan => {
                    // Test halt flag + inbox offsets for every vertex.
                    let mut c = PhaseCounts::with_items(n);
                    c.reads = 3 * n;
                    c.alu_ops = n;
                    c
                }
                ActiveSetStrategy::Worklist => {
                    // The list was built incrementally (charged in the
                    // previous exchange); here it is only read.
                    let mut c = PhaseCounts::with_items(active.max(1));
                    c.reads = active;
                    c.alu_ops = active;
                    c
                }
            }
        };
        c.charge_loop_overhead(default_chunk(self.n, 1) as u64);
        c.barriers = 1;
        r.push("scan", self.s, c, active);
    }
}
