//! Per-vertex message inboxes for one superstep.
//!
//! Messages collected during superstep *s* are grouped by destination
//! into a CSR-shaped structure readable in superstep *s + 1*: `offsets`
//! indexes `data` by vertex.  When a combiner is configured the group is
//! folded to a single message at delivery time, so compute sees at most
//! one message per vertex.
//!
//! Inboxes are double-buffer friendly: [`Inbox::rebuild`] /
//! [`Inbox::reset_empty`] reshape an existing inbox in place, reusing
//! its `offsets`/`data`/scratch capacity, so the superstep loop can keep
//! two inboxes (live + spare) and swap them instead of allocating a
//! fresh one per superstep.  `rebuild` takes the collector's borrowed
//! [`Collected`] view and picks the grouping pass from its shape, so the
//! flat-vs-bucketed distinction stops here.

use std::sync::atomic::Ordering;

use xmt_graph::VertexId;
use xmt_par::atomic::as_atomic_u64;
use xmt_par::{exclusive_prefix_sum, Executor, WorkerScratch};

use crate::program::Combiner;
use crate::transport::Collected;

/// Messages grouped by destination vertex.
pub struct Inbox<M> {
    offsets: Vec<u64>,
    data: Vec<M>,
    /// Scatter cursors for the flat rebuild, retained so the
    /// per-superstep copy of `offsets` reuses capacity.
    cursors: Vec<u64>,
    /// Per-bucket base offsets for the bucketed rebuild, retained across
    /// rebuilds.
    bucket_base: Vec<u64>,
    combined: bool,
}

impl<M: Copy + Send + Sync> Inbox<M> {
    /// An inbox shell with no storage at all (zero vertices, zero
    /// capacity); reshape it with [`rebuild`](Self::rebuild) or
    /// [`reset_empty`](Self::reset_empty).
    pub fn new() -> Self {
        Inbox {
            offsets: Vec::new(),
            data: Vec::new(),
            cursors: Vec::new(),
            bucket_base: Vec::new(),
            combined: false,
        }
    }

    /// An inbox with no messages for `n` vertices.
    pub fn empty(n: usize) -> Self {
        let mut inbox = Self::new();
        inbox.reset_empty(n);
        inbox
    }

    /// Reshape in place to an empty inbox over `n` vertices, retaining
    /// all capacity.
    pub fn reset_empty(&mut self, n: usize) {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        self.data.clear();
        self.combined = false;
    }

    /// Message-storage slots currently allocated (a rebuild
    /// reallocates only when a superstep's traffic exceeds this).
    pub fn message_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Grow message storage to hold at least `cap` messages.  The frame
    /// equalizes its double-buffered pair with this at run start: the
    /// two inboxes serve alternating supersteps, so their high-water
    /// marks diverge, and a run ending role-swapped would otherwise
    /// land its peak superstep on the smaller buffer mid-run.
    pub fn reserve_messages(&mut self, cap: usize) {
        self.data.reserve(cap.saturating_sub(self.data.len()));
    }

    /// Regroup `collected` by destination in place over `n` vertices.
    ///
    /// Counts, offsets, scatter cursors and data all reuse this inbox's
    /// retained buffers, so a steady-state rebuild allocates nothing
    /// once the buffers have grown to their high-water mark.  If
    /// `combiner` is given, each vertex's group is folded to one
    /// message.  `cursor_scratch` (one slot per `exec` worker) is the
    /// bucketed pass's per-worker cursor buffer; the flat pass ignores
    /// it.
    pub fn rebuild(
        &mut self,
        exec: &Executor,
        n: usize,
        collected: &Collected<'_, M>,
        combiner: Option<&dyn Combiner<M>>,
        cursor_scratch: &WorkerScratch<Vec<u64>>,
    ) {
        self.combined = false;
        match *collected {
            Collected::Flat(batches) => self.rebuild_flat(exec, n, batches),
            Collected::Bucketed { stride, per_worker } => {
                self.rebuild_bucketed(exec, n, stride, per_worker, cursor_scratch)
            }
        }
        if let Some(c) = combiner {
            self.combine_in_place(exec, c);
        }
    }

    /// Group per-slot batches whose pairs may target any vertex: one
    /// uncontended atomic per message to count, one to claim a slot.
    fn rebuild_flat(&mut self, exec: &Executor, n: usize, batches: &[Vec<(VertexId, M)>]) {
        // Count messages per destination (counts become the offsets
        // after the prefix sum).
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        {
            let acounts = as_atomic_u64(&mut self.offsets);
            exec.pfor(0, batches.len(), |b| {
                for &(dst, _) in &batches[b] {
                    // Relaxed: pure occupancy count; totals are read
                    // only after the parallel_for join barrier.
                    acounts[dst as usize].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let total = exclusive_prefix_sum(&mut self.offsets) as usize;

        // Scatter.
        self.cursors.clone_from(&self.offsets);
        self.data.clear();
        self.data.reserve(total);
        {
            let acursors = as_atomic_u64(&mut self.cursors);
            let base = self.data.as_mut_ptr() as usize;
            exec.pfor(0, batches.len(), |b| {
                for &(dst, msg) in &batches[b] {
                    // Relaxed: the fetch_add only reserves a unique slot
                    // index; the scattered data is published by the join.
                    let slot = acursors[dst as usize].fetch_add(1, Ordering::Relaxed) as usize;
                    // SAFETY: slots are unique via fetch-add; capacity is
                    // at least `total` via the reserve above.
                    unsafe { (base as *mut M).add(slot).write(msg) };
                }
            });
            // SAFETY: all `total` slots were written exactly once.
            unsafe { self.data.set_len(total) };
        }
    }

    /// Group radix-partitioned batches *without atomics*.
    ///
    /// `per_worker[w][b]` holds worker `w`'s sends whose destinations lie
    /// in bucket `b`'s vertex range `[b·stride, (b+1)·stride)` (the shape
    /// produced by the bucketed transport).  Because every destination in
    /// bucket `b` is owned by exactly one parallel task, that task can
    /// count, prefix-sum, and scatter its contiguous `offsets`/`data`
    /// regions with plain reads and writes — no `fetch_add` per message,
    /// unlike the flat pass.
    ///
    /// `cursor_scratch` provides each worker's per-bucket cursor buffer
    /// and must be sized for `exec`'s worker count; a retained scratch
    /// (the `SuperstepFrame` holds one) makes the steady-state rebuild
    /// allocation-free.
    fn rebuild_bucketed(
        &mut self,
        exec: &Executor,
        n: usize,
        stride: u64,
        per_worker: &[Vec<Vec<(VertexId, M)>>],
        cursor_scratch: &WorkerScratch<Vec<u64>>,
    ) {
        let num_buckets = per_worker.first().map_or(0, |w| w.len());
        debug_assert!(per_worker.iter().all(|w| w.len() == num_buckets));
        debug_assert!(stride.max(1) * num_buckets.max(1) as u64 >= n as u64);

        // Per-bucket totals -> each bucket's base offset into `data`.
        // Sequential: one addition per (worker, bucket) pair.
        self.bucket_base.clear();
        self.bucket_base.resize(num_buckets + 1, 0);
        for w in per_worker {
            for (b, batch) in w.iter().enumerate() {
                self.bucket_base[b + 1] += batch.len() as u64;
            }
        }
        for b in 0..num_buckets {
            self.bucket_base[b + 1] += self.bucket_base[b];
        }
        let total = self.bucket_base[num_buckets] as usize;

        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        self.data.clear();
        self.data.reserve(total);
        {
            let offsets_base = self.offsets.as_mut_ptr() as usize;
            let data_base = self.data.as_mut_ptr() as usize;
            let bucket_base = &self.bucket_base;
            // Chunk size 1: each claim processes one bucket, and the
            // worker id keys the cursor scratch (one live thread per id).
            exec.pfor_chunked(0, num_buckets, 1, |worker, range| {
                for b in range {
                    let lo = (b as u64 * stride).min(n as u64) as usize;
                    let hi = ((b as u64 + 1) * stride).min(n as u64) as usize;
                    if lo >= hi {
                        debug_assert_eq!(bucket_base[b], bucket_base[b + 1]);
                        continue;
                    }
                    // Count this bucket's messages per destination.
                    // SAFETY: parallel_for_chunked runs at most one
                    // thread per worker id, so this slot is private.
                    let cursors = unsafe { cursor_scratch.get(worker) };
                    cursors.clear();
                    cursors.resize(hi - lo, 0);
                    for w in per_worker {
                        for &(dst, _) in &w[b] {
                            debug_assert!((lo..hi).contains(&(dst as usize)));
                            cursors[dst as usize - lo] += 1;
                        }
                    }
                    // Local exclusive prefix starting at the bucket's base;
                    // publish each destination's offset.
                    let mut acc = bucket_base[b];
                    for (i, c) in cursors.iter_mut().enumerate() {
                        let count = *c;
                        *c = acc;
                        // SAFETY: bucket vertex ranges `[lo, hi)` are
                        // disjoint, so these offset writes are too.
                        unsafe { (offsets_base as *mut u64).add(lo + i).write(acc) };
                        acc += count;
                    }
                    debug_assert_eq!(acc, bucket_base[b + 1]);
                    // Scatter into this bucket's private region of `data`.
                    for w in per_worker {
                        for &(dst, msg) in &w[b] {
                            let cursor = &mut cursors[dst as usize - lo];
                            // SAFETY: `cursors` hold unique slots within the
                            // bucket's private `[bucket_base[b],
                            // bucket_base[b+1])` region of `data`.
                            unsafe { (data_base as *mut M).add(*cursor as usize).write(msg) };
                            *cursor += 1;
                        }
                    }
                }
            });
            // SAFETY: the buckets' disjoint regions cover all `total`
            // slots and each was written exactly once.
            unsafe { self.data.set_len(total) };
        }
        self.offsets[n] = total as u64;
        // Vertices beyond the last non-empty bucket range were never
        // visited; their offsets must close the CSR (empty groups).
        let covered = ((num_buckets as u64) * stride).min(n as u64) as usize;
        self.offsets[covered..n].fill(total as u64);
    }

    /// Fold each vertex's group to one message (kept at the group head).
    fn combine_in_place(&mut self, exec: &Executor, combiner: &dyn Combiner<M>) {
        let n = self.num_vertices();
        let offsets = &self.offsets;
        let base = self.data.as_mut_ptr() as usize;
        exec.pfor(0, n, |v| {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            if hi - lo >= 2 {
                // SAFETY: per-vertex ranges are disjoint.
                unsafe {
                    let slice = std::slice::from_raw_parts_mut((base as *mut M).add(lo), hi - lo);
                    let mut acc = slice[0];
                    for &m in &slice[1..] {
                        acc = combiner.combine(acc, m);
                    }
                    slice[0] = acc;
                }
            }
        });
        // Mark groups as length ≤ 1 logically via `combined` accessor.
        self.combined = true;
    }

    /// Messages for vertex `v` (post-combining view).
    pub fn messages(&self, v: VertexId) -> &[M] {
        let v = v as usize;
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        if self.combined && hi > lo {
            &self.data[lo..lo + 1]
        } else {
            &self.data[lo..hi]
        }
    }

    /// Raw (pre-combining) message count for `v` — what was *sent* to it.
    pub fn raw_count(&self, v: VertexId) -> u64 {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Does `v` have any messages waiting?
    pub fn has_messages(&self, v: VertexId) -> bool {
        self.raw_count(v) > 0
    }

    /// Total messages stored (pre-combining).
    pub fn total_messages(&self) -> u64 {
        self.data.len() as u64
    }

    /// Number of vertices this inbox covers.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Messages awaiting delivery in each destination bucket of width
    /// `stride` (bucket `b` covers vertices `[b·stride, (b+1)·stride)`),
    /// read off the CSR offsets in O(buckets).  The post-combining
    /// counterpart of [`Collected::bucket_counts`]: together they give
    /// sent/combined/delivered per bucket for trace reporting.
    pub fn bucket_counts(&self, stride: u64) -> Vec<u64> {
        let n = self.num_vertices() as u64;
        if stride == 0 || n == 0 {
            return Vec::new();
        }
        let buckets = n.div_ceil(stride) as usize;
        (0..buckets)
            .map(|b| {
                let lo = b as u64 * stride;
                let hi = (lo + stride).min(n);
                self.offsets[hi as usize] - self.offsets[lo as usize]
            })
            .collect()
    }

    /// Snapshot all pending deliveries as `(destination, message)` pairs
    /// (post-combining view).  Rebuilding an inbox from this snapshot
    /// delivers the same messages — the basis of superstep checkpoints.
    pub fn snapshot(&self) -> Vec<(VertexId, M)> {
        // Exact capacity from the counts already on hand: one entry per
        // non-empty group when combined, one per stored message otherwise.
        let cap = if self.combined {
            (0..self.num_vertices())
                .filter(|&v| self.offsets[v + 1] > self.offsets[v])
                .count()
        } else {
            self.data.len()
        };
        let mut out = Vec::with_capacity(cap);
        for v in 0..self.num_vertices() as u64 {
            for &m in self.messages(v) {
                out.push((v, m));
            }
        }
        debug_assert_eq!(out.len(), cap);
        out
    }
}

impl<M: Copy + Send + Sync> Default for Inbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Inbox<M> {
    /// Whether groups have been folded by a combiner.
    pub fn is_combined(&self) -> bool {
        self.combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::MinCombiner;
    use crate::transport::{MessageCollector, Transport};

    /// The production path in miniature: deposit `batches[w]` as worker
    /// `w`, then regroup the collector's view into `inbox` (pass
    /// `Inbox::new()` for a fresh one).
    fn deliver(
        mut inbox: Inbox<u64>,
        transport: Transport,
        n: usize,
        batches: &[Vec<(u64, u64)>],
        combiner: Option<&dyn Combiner<u64>>,
    ) -> Inbox<u64> {
        let mut mc = MessageCollector::new(transport, batches.len(), n, combiner.is_some());
        for (w, batch) in batches.iter().enumerate() {
            mc.deposit_from(w, &mut batch.clone(), combiner);
        }
        let exec = Executor::fixed();
        let scratch = WorkerScratch::new(exec.workers());
        inbox.rebuild(&exec, n, &mc.collected(), combiner, &scratch);
        inbox
    }

    fn sorted(ib: &Inbox<u64>, v: u64) -> Vec<u64> {
        let mut m = ib.messages(v).to_vec();
        m.sort_unstable();
        m
    }

    #[test]
    fn empty_inbox_has_no_messages() {
        let ib: Inbox<u64> = Inbox::empty(5);
        assert_eq!(ib.total_messages(), 0);
        for v in 0..5 {
            assert!(!ib.has_messages(v));
            assert!(ib.messages(v).is_empty());
        }
    }

    #[test]
    fn build_groups_by_destination() {
        let batches = vec![vec![(1u64, 10u64), (3, 30)], vec![(1, 11), (0, 1)], vec![]];
        let ib = deliver(Inbox::new(), Transport::PerThreadOutbox, 4, &batches, None);
        assert_eq!(ib.total_messages(), 4);
        assert_eq!(ib.messages(0), &[1]);
        assert_eq!(sorted(&ib, 1), vec![10, 11]);
        assert!(ib.messages(2).is_empty());
        assert_eq!(ib.messages(3), &[30]);
    }

    #[test]
    fn combiner_folds_groups_to_one() {
        let batches = vec![vec![(0u64, 9u64), (0, 3), (0, 7), (1, 5)]];
        let ib = deliver(
            Inbox::new(),
            Transport::PerThreadOutbox,
            2,
            &batches,
            Some(&MinCombiner),
        );
        assert!(ib.is_combined());
        assert_eq!(ib.messages(0), &[3]);
        assert_eq!(ib.messages(1), &[5]);
        // Raw counts still reflect what was sent (for Fig. 2).
        assert_eq!(ib.raw_count(0), 3);
        assert_eq!(ib.total_messages(), 4);
    }

    #[test]
    fn bucketed_build_matches_flat_build() {
        // 10 vertices, 2 workers -> stride 5.  The same sends through
        // every transport must group identically.
        let n = 10usize;
        let sends = vec![
            vec![(1u64, 10u64), (7, 70), (1, 11), (4, 40)],
            vec![(5, 50), (9, 90), (1, 12)],
        ];
        let a = deliver(Inbox::new(), Transport::PerThreadOutbox, n, &sends, None);
        for transport in [Transport::Bucketed, Transport::SingleQueue] {
            let b = deliver(Inbox::new(), transport, n, &sends, None);
            assert_eq!(a.total_messages(), b.total_messages());
            for v in 0..n as u64 {
                assert_eq!(sorted(&a, v), sorted(&b, v), "{transport:?} vertex {v}");
            }
        }
    }

    #[test]
    fn bucketed_build_combines_at_the_receiver() {
        // Two workers both target vertex 2 — sender-side combining keeps
        // one copy per worker; the receiver fold collapses them.
        let sends = vec![vec![(2u64, 9u64), (5, 55)], vec![(2, 3)]];
        let ib = deliver(
            Inbox::new(),
            Transport::Bucketed,
            6,
            &sends,
            Some(&MinCombiner),
        );
        assert!(ib.is_combined());
        assert_eq!(ib.messages(2), &[3]);
        assert_eq!(ib.messages(5), &[55]);
        assert_eq!(ib.raw_count(2), 2);
    }

    #[test]
    fn bucketed_build_handles_partial_final_bucket() {
        // n = 7 over 3 workers -> stride 3, buckets [0,3) [3,6) [6,7):
        // the last bucket is a stub and vertex 6 still resolves correctly.
        let sends = vec![vec![(0u64, 1u64), (3, 2), (6, 3)], vec![], vec![]];
        let ib = deliver(Inbox::new(), Transport::Bucketed, 7, &sends, None);
        assert_eq!(ib.total_messages(), 3);
        assert_eq!(ib.messages(0), &[1]);
        assert_eq!(ib.messages(3), &[2]);
        assert_eq!(ib.messages(6), &[3]);
        assert!(!ib.has_messages(5));
    }

    #[test]
    fn large_scatter_is_complete() {
        let n = 1000usize;
        let mut batches = Vec::new();
        for b in 0..8 {
            let mut v = Vec::new();
            for i in 0..5000u64 {
                v.push((((i * 7 + b) % n as u64), i));
            }
            batches.push(v);
        }
        let ib = deliver(Inbox::new(), Transport::PerThreadOutbox, n, &batches, None);
        assert_eq!(ib.total_messages(), 8 * 5000);
        let sum: u64 = (0..n as u64).map(|v| ib.raw_count(v)).sum();
        assert_eq!(sum, 8 * 5000);
    }

    #[test]
    fn bucket_counts_tile_the_inbox() {
        // n = 7, stride 3: buckets [0,3) [3,6) [6,7).
        let batches = vec![vec![(0u64, 1u64), (1, 2), (4, 3), (6, 4), (6, 5)]];
        let ib = deliver(Inbox::new(), Transport::PerThreadOutbox, 7, &batches, None);
        assert_eq!(ib.bucket_counts(3), vec![2, 1, 2]);
        assert_eq!(ib.bucket_counts(3).iter().sum::<u64>(), ib.total_messages());
        // Stride covering everything is one bucket; stride 0 is empty.
        assert_eq!(ib.bucket_counts(100), vec![5]);
        assert!(ib.bucket_counts(0).is_empty());
        assert!(Inbox::<u64>::empty(0).bucket_counts(3).is_empty());
    }

    #[test]
    fn rebuild_reuses_and_matches_fresh_build() {
        // One inbox rebuilt through a sequence of shapes must agree with
        // a fresh build at every step (combined, uncombined, empty), on
        // the flat and the bucketed pass alike.
        let rounds: Vec<Vec<Vec<(u64, u64)>>> = vec![
            vec![vec![(0, 5), (3, 1), (0, 2)], vec![(2, 7)]],
            vec![vec![]],
            vec![vec![(3, 3), (3, 4), (1, 9), (2, 2), (0, 1)]],
        ];
        for transport in [Transport::PerThreadOutbox, Transport::Bucketed] {
            let mut reused: Inbox<u64> = Inbox::new();
            for batches in &rounds {
                for combiner in [None, Some(&MinCombiner as &dyn Combiner<u64>)] {
                    reused = deliver(reused, transport, 4, batches, combiner);
                    let fresh = deliver(Inbox::new(), transport, 4, batches, combiner);
                    assert_eq!(reused.is_combined(), fresh.is_combined());
                    assert_eq!(reused.total_messages(), fresh.total_messages());
                    for v in 0..4u64 {
                        assert_eq!(sorted(&reused, v), sorted(&fresh, v), "vertex {v}");
                    }
                }
            }
            // Shrinking to empty and regrowing works too.
            reused.reset_empty(4);
            assert_eq!(reused.total_messages(), 0);
            assert!(!reused.is_combined());
        }
    }

    #[test]
    fn snapshot_capacity_is_exact() {
        let batches = vec![vec![(0u64, 9u64), (0, 3), (2, 7)]];
        let plain = deliver(Inbox::new(), Transport::PerThreadOutbox, 3, &batches, None);
        let snap = plain.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.capacity(), 3);
        let combined = deliver(
            Inbox::new(),
            Transport::PerThreadOutbox,
            3,
            &batches,
            Some(&MinCombiner),
        );
        let snap = combined.snapshot();
        assert_eq!(snap.len(), 2); // two non-empty groups
        assert_eq!(snap.capacity(), 2);
    }
}
