//! Per-vertex message inboxes for one superstep.
//!
//! Messages collected during superstep *s* are grouped by destination
//! into a structure readable in superstep *s + 1*.  Which structure
//! depends on the program:
//!
//! * with a combiner, a dense array of one slot per vertex plus a
//!   presence bitmap — every message is folded straight into its
//!   destination's slot, so there is no offsets array, prefix sum,
//!   scatter or second fold pass, and [`Inbox::messages`] hands back the
//!   one slot;
//! * without one, CSR-shaped groups: `offsets` indexes `data` by vertex.
//!
//! Either way [`Inbox::rebuild`] gives every destination bucket of the
//! collector's [`Collected`] view to exactly one task, which walks the
//! bucket's deposits in ascending chunk position with plain loads and
//! stores: first every deposit's single `(dst, msg)` pairs, then every
//! deposit's runs (a run is counted by adding its length and scattered
//! with one slice copy).  A destination therefore receives (and a
//! combiner folds) its pairs and then its runs, each in the order the
//! active list produced them — ascending source order under
//! `DenseScan` — whatever the worker count, schedule or deposit split
//! (DESIGN.md §17).
//!
//! Neighbor broadcasts recorded once per sender reach a combined inbox
//! a second way, without being shipped: the gather has every
//! vertex fold the messages of its neighbors that broadcast, in
//! ascending neighbor order — the order the first way delivers them in
//! under `DenseScan`, since CSR rows are strictly ascending (DESIGN.md
//! §17, "Broadcasts").
//!
//! Inboxes are double-buffer friendly: [`Inbox::rebuild`] /
//! [`Inbox::reset_empty`] reshape an existing inbox in place, reusing
//! its storage, so the superstep loop can keep two inboxes (live +
//! spare) and swap them instead of allocating a fresh one per superstep.

use std::mem::MaybeUninit;

use xmt_graph::{Csr, VertexId};
use xmt_par::pfor::default_chunk;
use xmt_par::{DisjointSlice, Executor, WorkerScratch};

use crate::program::Combiner;
use crate::transport::{capacity_bytes, Collected, Filled};

/// How an inbox currently holds its messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// No messages for any vertex.
    Empty,
    /// One folded message per vertex whose `present` bit is set.
    Slots,
    /// CSR groups: `data[offsets[v]..offsets[v + 1]]`.
    Groups,
}

/// Messages grouped by destination vertex.
pub struct Inbox<M> {
    num_vertices: usize,
    shape: Shape,
    /// Messages received (pre-combining).
    total: u64,
    /// `Slots`: vertex `v`'s folded message, initialized iff bit `v` of
    /// `present` is set.
    slots: Vec<MaybeUninit<M>>,
    present: Vec<u64>,
    /// `Groups`: the CSR.
    offsets: Vec<u64>,
    data: Vec<M>,
    /// Per-bucket base offsets into `data`, retained across rebuilds.
    bucket_base: Vec<u64>,
}

impl<M: Copy + Send + Sync> Inbox<M> {
    /// An inbox shell with no storage at all (zero vertices, zero
    /// capacity); reshape it with [`rebuild`](Self::rebuild) or
    /// [`reset_empty`](Self::reset_empty).
    pub fn new() -> Self {
        Inbox {
            num_vertices: 0,
            shape: Shape::Empty,
            total: 0,
            slots: Vec::new(),
            present: Vec::new(),
            offsets: Vec::new(),
            data: Vec::new(),
            bucket_base: Vec::new(),
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
        self.num_vertices = n;
        self.shape = Shape::Empty;
        self.total = 0;
    }

    /// Message-storage slots currently allocated for uncombined groups
    /// (a rebuild reallocates only when a superstep's traffic exceeds
    /// this; combined inboxes hold one slot per vertex and never grow).
    pub fn message_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Grow group storage to hold at least `cap` messages.  The frame
    /// equalizes its double-buffered pair with this at run start: the
    /// two inboxes serve alternating supersteps, so their high-water
    /// marks diverge, and a run ending role-swapped would otherwise
    /// land its peak superstep on the smaller buffer mid-run.
    pub fn reserve_messages(&mut self, cap: usize) {
        self.data.reserve(cap.saturating_sub(self.data.len()));
    }

    /// Regroup `collected` by destination in place.
    ///
    /// Every buffer is retained, so a steady-state rebuild allocates
    /// nothing once the buffers have grown to their high-water mark.  If
    /// `combiner` is given, each vertex's messages are folded to one, in
    /// delivery order: the pairs of every deposit in chunk order, then
    /// the runs of every deposit in chunk order.  That order is a
    /// function of the active list alone, never of where a chunk's
    /// deposits split.  `cursor_scratch` (one slot per `exec` worker) is
    /// the uncombined pass's per-worker cursor buffer.
    ///
    /// # Panics
    /// If a collected destination lies outside the collector's vertex
    /// count.
    pub fn rebuild(
        &mut self,
        exec: &Executor,
        collected: &Collected<'_, M>,
        combiner: Option<&dyn Combiner<M>>,
        cursor_scratch: &WorkerScratch<Vec<u64>>,
    ) {
        match combiner {
            Some(c) => self.fold(exec, collected, |a, b| c.combine(a, b)),
            None => self.group(exec, collected, cursor_scratch),
        }
    }

    /// Take the shape of `collected`: its vertex count and message total.
    fn count(&mut self, collected: &Collected<'_, M>) {
        self.num_vertices = collected.num_vertices();
        self.total = (0..collected.num_batches())
            .map(|i| collected.batch(i).messages() as u64)
            .sum();
    }

    /// [`rebuild`](Self::rebuild) with a combiner: fold every message
    /// into its destination's slot with `combine`, which the runtime
    /// passes as the program's own, so the call per message is direct.
    /// Each bucket is owned by one task, so the slot and presence-word
    /// updates are plain read-modify-writes.
    pub(crate) fn fold<F>(&mut self, exec: &Executor, collected: &Collected<'_, M>, combine: F)
    where
        F: Fn(M, M) -> M + Sync,
    {
        self.count(collected);
        let n = self.num_vertices;
        self.shape = Shape::Slots;
        self.slots.resize_with(n, MaybeUninit::uninit);
        self.present.clear();
        self.present.resize(n.div_ceil(64), 0);
        let slots = DisjointSlice::new(&mut self.slots);
        let present = DisjointSlice::new(&mut self.present);
        // Chunk size 1: each claim processes one bucket.
        exec.pfor_chunked(0, collected.num_buckets(), 1, |_, range| {
            for b in range {
                let owned = collected.bucket_range(b);
                if owned.is_empty() {
                    continue;
                }
                let lo = owned.start;
                // SAFETY: non-empty bucket vertex ranges are disjoint and start on
                // multiples of 64 (the collector keeps the bucket shift
                // ≥ 6), so neither the slots nor the presence words of two
                // buckets overlap; both ranges end at or before `n`.
                let (slots, present) = unsafe {
                    (
                        slots.range(owned.clone()),
                        present.range(lo / 64..owned.end.div_ceil(64)),
                    )
                };
                let mut fold = |i: usize, msg: M| {
                    let (word, bit) = (&mut present[i / 64], 1u64 << (i % 64));
                    if *word & bit == 0 {
                        *word |= bit;
                        slots[i].write(msg);
                    } else {
                        // SAFETY: the bit says this slot was written
                        // earlier in this rebuild.
                        let acc = unsafe { slots[i].assume_init() };
                        slots[i].write(combine(acc, msg));
                    }
                };
                // Pairs first, then runs, each in chunk order (the rule
                // `rebuild` states).
                for deposit in collected.bucket_deposits(b) {
                    for &(i, msg) in deposit.pairs {
                        fold(i as usize, msg);
                    }
                }
                if collected.bucket_has_runs(b) {
                    for deposit in collected.bucket_deposits(b) {
                        for (i, run) in deposit.runs() {
                            for &msg in run {
                                fold(i, msg);
                            }
                        }
                    }
                }
            }
        });
    }

    /// Deliver recorded broadcasts over `graph` (which must be the graph
    /// they were recorded on, `arcs` the arcs they stand for) without
    /// shipping them: every vertex folds, with `combine`, the messages of
    /// its neighbors that broadcast, in ascending neighbor order,
    /// straight into its slot.  Receiving tasks own whole 64-vertex
    /// presence words, so every write is a plain store.
    ///
    /// After a row's first sender the fold runs without a branch on the
    /// sender bits: it combines every neighbor's slot ([`Filled`] gives
    /// each one a message) and keeps the result only where the bit is
    /// set, since on a mid-density superstep those bits are what a
    /// branch predictor cannot learn.
    ///
    /// The result equals [`fold`](Self::fold) over the same broadcasts
    /// expanded in ascending sender order, bit for bit: on a simple
    /// undirected graph each destination receives one message per
    /// neighbor that broadcast, and both ways fold them by ascending
    /// sender.
    pub(crate) fn gather<F>(
        &mut self,
        exec: &Executor,
        graph: &Csr,
        sent: &Filled<'_, M>,
        arcs: u64,
        combine: F,
    ) where
        F: Fn(M, M) -> M + Sync,
    {
        let n = graph.num_vertices() as usize;
        self.num_vertices = n;
        self.total = arcs;
        self.shape = Shape::Slots;
        self.slots.resize_with(n, MaybeUninit::uninit);
        self.present.clear();
        self.present.resize(n.div_ceil(64), 0);
        let words = self.present.len();
        let slots = DisjointSlice::new(&mut self.slots);
        let present = DisjointSlice::new(&mut self.present);
        let chunk = default_chunk(words, exec.workers());
        exec.pfor_chunked(0, words, chunk, |_, range| {
            let (lo, hi) = (range.start * 64, (range.end * 64).min(n));
            // SAFETY: tasks own disjoint ranges of presence words and the
            // vertices those words cover, all inside `0..n`.
            let (slots, present) = unsafe { (slots.range(lo..hi), present.range(range)) };
            for v in lo..hi {
                let row = graph.neighbors(v as VertexId);
                let Some(first) = row.iter().position(|&u| sent.is_sender(u)) else {
                    continue;
                };
                let mut acc = sent.msgs[row[first] as usize];
                for &u in &row[first + 1..] {
                    let folded = combine(acc, sent.msgs[u as usize]);
                    acc = if sent.is_sender(u) { folded } else { acc };
                }
                let i = v - lo;
                slots[i].write(acc);
                present[i / 64] |= 1 << (i % 64);
            }
        });
    }

    /// Group uncombined messages into the CSR *without atomics*: every
    /// destination in bucket `b` is owned by exactly one parallel task,
    /// which counts, prefix-sums, and scatters its contiguous
    /// `offsets`/`data` regions with plain reads and writes, keeping each
    /// destination's messages in deposit order.
    ///
    /// `cursor_scratch` provides each worker's per-bucket cursor buffer
    /// and must be sized for `exec`'s worker count; a retained scratch
    /// (the `SuperstepFrame` holds one) makes the steady-state rebuild
    /// allocation-free.
    pub(crate) fn group(
        &mut self,
        exec: &Executor,
        collected: &Collected<'_, M>,
        cursor_scratch: &WorkerScratch<Vec<u64>>,
    ) {
        self.count(collected);
        let n = self.num_vertices;
        let num_buckets = collected.num_buckets();
        self.shape = Shape::Groups;

        // Per-bucket totals -> each bucket's base offset into `data`.
        // Sequential: one addition per (lane, bucket) pair.
        self.bucket_base.clear();
        self.bucket_base.resize(num_buckets + 1, 0);
        for i in 0..collected.num_batches() {
            self.bucket_base[i % num_buckets + 1] += collected.batch(i).messages() as u64;
        }
        for b in 0..num_buckets {
            self.bucket_base[b + 1] += self.bucket_base[b];
        }
        let total = self.bucket_base[num_buckets] as usize;

        self.offsets.clear();
        self.offsets.resize(n + 1, total as u64);
        self.data.clear();
        self.data.reserve(total);
        let offsets = DisjointSlice::new(&mut self.offsets);
        let data = DisjointSlice::new(self.data.spare_capacity_mut());
        let bucket_base = &self.bucket_base;
        // Chunk size 1: each claim processes one bucket, and the worker
        // id keys the cursor scratch (one live thread per id).
        exec.pfor_chunked(0, num_buckets, 1, |worker, range| {
            for b in range {
                let owned = collected.bucket_range(b);
                if owned.is_empty() {
                    continue;
                }
                let (base, end) = (bucket_base[b] as usize, bucket_base[b + 1] as usize);
                // SAFETY: bucket vertex ranges are disjoint and inside
                // `0..n`; `data` regions `[bucket_base[b], bucket_base[b+1])`
                // are disjoint and inside the `total` slots reserved above.
                let (offsets, data) = unsafe { (offsets.range(owned), data.range(base..end)) };
                // Count this bucket's messages per destination.
                // SAFETY: parallel_for_chunked runs at most one thread
                // per worker id, so this slot is private.
                let cursors = unsafe { cursor_scratch.get(worker) };
                cursors.clear();
                cursors.resize(offsets.len(), 0);
                let has_runs = collected.bucket_has_runs(b);
                for deposit in collected.bucket_deposits(b) {
                    for &(i, _) in deposit.pairs {
                        cursors[i as usize] += 1;
                    }
                }
                if has_runs {
                    for deposit in collected.bucket_deposits(b) {
                        for &(i, len) in deposit.runs {
                            cursors[i as usize] += u64::from(len);
                        }
                    }
                }
                // Local exclusive prefix; publish each destination's
                // offset (bucket base + local cursor).
                let mut acc = 0u64;
                for (c, offset) in cursors.iter_mut().zip(offsets.iter_mut()) {
                    let count = *c;
                    *c = acc;
                    *offset = base as u64 + acc;
                    acc += count;
                }
                debug_assert_eq!(acc as usize, data.len());
                // Scatter into this bucket's private region of `data`,
                // pairs first, then runs, each in chunk order; every one
                // of its slots is written exactly once.
                for deposit in collected.bucket_deposits(b) {
                    for &(i, msg) in deposit.pairs {
                        let cursor = &mut cursors[i as usize];
                        data[*cursor as usize].write(msg);
                        *cursor += 1;
                    }
                }
                if has_runs {
                    for deposit in collected.bucket_deposits(b) {
                        for (i, run) in deposit.runs() {
                            let cursor = &mut cursors[i];
                            let at = *cursor as usize;
                            data[at..at + run.len()].write_copy_of_slice(run);
                            *cursor += run.len() as u64;
                        }
                    }
                }
            }
        });
        // SAFETY: the buckets' disjoint regions cover all `total` slots
        // and each was written exactly once.
        unsafe { self.data.set_len(total) };
    }

    /// Messages for vertex `v` (post-combining view).
    pub fn messages(&self, v: VertexId) -> &[M] {
        let v = v as usize;
        match self.shape {
            Shape::Empty => &[],
            Shape::Slots if self.present[v / 64] >> (v % 64) & 1 == 1 => {
                // SAFETY: the presence bit is set only after the slot
                // was written.
                std::slice::from_ref(unsafe { self.slots[v].assume_init_ref() })
            }
            Shape::Slots => &[],
            Shape::Groups => &self.data[self.offsets[v] as usize..self.offsets[v + 1] as usize],
        }
    }

    /// Does `v` have any messages waiting?
    pub fn has_messages(&self, v: VertexId) -> bool {
        !self.messages(v).is_empty()
    }

    /// Total messages received (pre-combining).
    pub fn total_messages(&self) -> u64 {
        self.total
    }

    /// Number of vertices this inbox covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Bytes of buffer capacity held.
    pub(crate) fn capacity_bytes(&self) -> usize {
        capacity_bytes(&self.slots)
            + capacity_bytes(&self.present)
            + capacity_bytes(&self.offsets)
            + capacity_bytes(&self.data)
            + capacity_bytes(&self.bucket_base)
    }

    /// Snapshot all pending deliveries as `(destination, message)` pairs
    /// (post-combining view), ascending by destination and in delivery
    /// order within one.  Rebuilding an inbox from this snapshot delivers
    /// the same messages in the same order — the basis of superstep
    /// checkpoints.
    pub fn snapshot(&self) -> Vec<(VertexId, M)> {
        // Exact capacity from the counts already on hand: one entry per
        // set presence bit when combined, one per stored message otherwise.
        let cap = match self.shape {
            Shape::Empty => 0,
            Shape::Slots => self.present.iter().map(|w| w.count_ones() as usize).sum(),
            Shape::Groups => self.data.len(),
        };
        let mut out = Vec::with_capacity(cap);
        for v in 0..self.num_vertices as u64 {
            out.extend(self.messages(v).iter().map(|&m| (v, m)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{MinCombiner, SumCombiner};
    use crate::transport::{MessageCollector, Outbox, Transport};

    const TRANSPORTS: [Transport; 2] = [Transport::PerThreadOutbox, Transport::SingleQueue];

    /// The production path in miniature: deposit `batches[w]` as worker
    /// `w` for the chunk at position `w`, then regroup the collector's
    /// view into `inbox` (pass `Inbox::new()` for a fresh one).
    fn deliver<M: Copy + Send + Sync>(
        mut inbox: Inbox<M>,
        transport: Transport,
        n: usize,
        batches: &[Vec<(u64, M)>],
        combiner: Option<&dyn Combiner<M>>,
    ) -> Inbox<M> {
        let mut mc = MessageCollector::new(transport, batches.len(), n);
        for (w, batch) in batches.iter().enumerate() {
            mc.deposit_from(w, w, &mut batch.clone());
        }
        let exec = Executor::fixed();
        let scratch = WorkerScratch::new(exec.workers());
        inbox.rebuild(&exec, &mc.collected(), combiner, &scratch);
        inbox
    }

    /// One send of a test outbox: a single message or a run.
    #[derive(Clone)]
    enum Sent {
        One(u64, u64),
        Run(u64, Vec<u64>),
    }

    /// Queue `sends` into one outbox, in order.
    fn outbox(sends: &[Sent]) -> Outbox<u64> {
        let mut outbox = Outbox::default();
        for send in sends {
            match send {
                Sent::One(dst, m) => outbox.pairs.push((*dst, *m)),
                Sent::Run(dst, msgs) => outbox.push_run(*dst, msgs),
            }
        }
        outbox
    }

    /// Deposit each `(worker, chunk start, sends)` as one outbox, in the
    /// order given, and regroup into a fresh inbox.
    fn deliver_sends(
        transport: Transport,
        n: usize,
        workers: usize,
        deposits: &[(usize, usize, Vec<Sent>)],
        combiner: Option<&dyn Combiner<u64>>,
    ) -> Inbox<u64> {
        let mut mc = MessageCollector::new(transport, workers, n);
        for (worker, start, sends) in deposits {
            mc.deposit(*worker, *start, &mut outbox(sends));
        }
        let exec = Executor::fixed();
        let scratch = WorkerScratch::new(exec.workers());
        let mut inbox = Inbox::new();
        inbox.rebuild(&exec, &mc.collected(), combiner, &scratch);
        inbox
    }

    /// Folds in decimal digits: the result spells out the order it saw.
    struct Digits;

    impl Combiner<u64> for Digits {
        fn combine(&self, a: u64, b: u64) -> u64 {
            a.wrapping_mul(10).wrapping_add(b)
        }
    }

    #[test]
    fn pairs_arrive_before_runs_each_in_source_order() {
        use Sent::{One, Run};
        // Chunks 0, 8 and 16 of the active list, deposited out of order
        // by two workers; every send goes to vertex 5.
        let deposits = vec![
            (1, 8, vec![One(5, 4), Run(5, vec![6])]),
            (0, 0, vec![Run(5, vec![1, 2]), One(5, 3)]),
            (0, 16, vec![Run(5, vec![7]), Run(5, vec![])]),
        ];
        for transport in TRANSPORTS {
            let ib = deliver_sends(transport, 100, 2, &deposits, None);
            assert_eq!(ib.total_messages(), 6, "{transport:?}");
            assert_eq!(ib.messages(5), &[3, 4, 1, 2, 6, 7], "{transport:?}");
            let ib = deliver_sends(transport, 100, 2, &deposits, Some(&Digits));
            assert_eq!(ib.messages(5), &[341_267], "{transport:?}");
        }
    }

    #[test]
    fn one_deposit_and_a_split_one_give_the_same_inbox() {
        use Sent::{One, Run};
        // Every chunk's sends, mixed singles and runs to shared
        // destinations across all eight buckets of a 1000-vertex inbox.
        let n = 1000u64;
        let chunk_sends = |c: u64| -> Vec<Sent> {
            (0..40u64)
                .map(|i| {
                    let dst = (c * 37 + i * 101) % n % 12 * 83;
                    if (c + i).is_multiple_of(3) {
                        One(dst, c * 100 + i)
                    } else {
                        Run(dst, (0..(c + i) % 5).map(|k| c * 100 + i + k).collect())
                    }
                })
                .collect()
        };
        let chunks: Vec<(usize, usize, Vec<Sent>)> = (0..6)
            .map(|c| (c as usize % 2, c as usize * 32, chunk_sends(c)))
            .collect();
        // The same sends, each chunk leaving in pieces of 1, 7 and 13
        // sends, as a chunk past the deposit high-water mark does.
        let split = |piece: usize| -> Vec<(usize, usize, Vec<Sent>)> {
            let pieces = chunks.iter().flat_map(|(w, start, sends)| {
                sends.chunks(piece).map(move |p| (*w, *start, p.to_vec()))
            });
            pieces.collect()
        };
        for transport in TRANSPORTS {
            for combiner in [None, Some(&Digits as &dyn Combiner<u64>)] {
                let whole = deliver_sends(transport, n as usize, 2, &chunks, combiner);
                assert!(whole.total_messages() > 100);
                for piece in [1, 7, 13] {
                    let parts = deliver_sends(transport, n as usize, 2, &split(piece), combiner);
                    let tag = format!("{transport:?}, pieces of {piece}");
                    assert_eq!(parts.total_messages(), whole.total_messages(), "{tag}");
                    assert_eq!(parts.snapshot(), whole.snapshot(), "{tag}");
                }
            }
        }
    }

    #[test]
    fn gathering_and_expanding_broadcasts_build_the_same_inbox() {
        use crate::transport::Broadcasts;
        use xmt_graph::builder::build_undirected;
        use xmt_graph::gen::er::gnm;
        // Sparse random graphs, so many vertices are isolated, and
        // sender sets from none to all; `Digits` spells out the order
        // each destination folds its messages in.
        for (n, m, seed) in [(1000, 600, 1), (1000, 3000, 2), (130, 200, 3), (64, 0, 4)] {
            let g = build_undirected(&gnm(n, m, seed));
            assert!((0..n).any(|v| g.degree(v) == 0), "no isolated vertex");
            for every in [1, 2, 3, 7, n] {
                let senders: Vec<u64> = (0..n).filter(|v| (v * 31 + seed) % every == 0).collect();
                let msg = |u: u64| u % 9 + 1;
                let mut sent = Broadcasts::new();
                sent.reset(n as usize);
                {
                    let sink = sent.sink();
                    for &u in &senders {
                        // SAFETY: one record per sender, on this thread.
                        assert!(unsafe { sink.record(u, msg(u)) });
                        assert!(!unsafe { sink.record(u, 0) }, "a second broadcast");
                    }
                }
                let arcs: u64 = senders.iter().map(|&u| g.degree(u)).sum();
                let exec = Executor::fixed();
                let mut gathered = Inbox::new();
                match sent.filled() {
                    Some(filled) => {
                        gathered.gather(&exec, &g, &filled, arcs, |a, b| Digits.combine(a, b))
                    }
                    None => gathered.reset_empty(n as usize),
                }
                // Expanded the way the exchange does it: senders ascending.
                let mut pairs: Vec<(u64, u64)> = senders
                    .iter()
                    .flat_map(|&u| g.neighbors(u).iter().map(move |&v| (v, msg(u))))
                    .collect();
                let mut mc = MessageCollector::new(Transport::PerThreadOutbox, 2, n as usize);
                mc.deposit_from(0, 0, &mut pairs);
                let mut expanded = Inbox::new();
                expanded.fold(&exec, &mc.collected(), |a, b| Digits.combine(a, b));
                let tag = format!("n {n}, m {m}, every {every}th vertex sends");
                assert_eq!(gathered.total_messages(), arcs, "{tag}");
                assert_eq!(expanded.total_messages(), arcs, "{tag}");
                assert_eq!(gathered.snapshot(), expanded.snapshot(), "{tag}");
                for v in 0..n {
                    assert_eq!(gathered.has_messages(v), expanded.has_messages(v), "{tag}");
                }
            }
        }
    }

    #[test]
    fn empty_inbox_has_no_messages() {
        let ib: Inbox<u64> = Inbox::empty(5);
        assert_eq!(ib.total_messages(), 0);
        assert_eq!(ib.num_vertices(), 5);
        for v in 0..5 {
            assert!(!ib.has_messages(v));
            assert!(ib.messages(v).is_empty());
        }
        assert!(ib.snapshot().is_empty());
    }

    #[test]
    fn build_groups_by_destination_in_deposit_order() {
        let batches = vec![vec![(1u64, 10u64), (3, 30)], vec![(1, 11), (0, 1)], vec![]];
        for transport in TRANSPORTS {
            let ib = deliver(Inbox::new(), transport, 4, &batches, None);
            assert_ne!(ib.shape, Shape::Slots);
            assert_eq!(ib.total_messages(), 4);
            assert_eq!(ib.messages(0), &[1]);
            assert_eq!(ib.messages(1), &[10, 11], "{transport:?}");
            assert!(ib.messages(2).is_empty());
            assert_eq!(ib.messages(3), &[30]);
        }
    }

    #[test]
    fn combiner_folds_into_one_slot() {
        let batches = vec![vec![(0u64, 9u64), (0, 3), (0, 7), (1, 5)], vec![(0, 4)]];
        for transport in TRANSPORTS {
            let ib = deliver(Inbox::new(), transport, 3, &batches, Some(&MinCombiner));
            assert_eq!(ib.shape, Shape::Slots);
            assert_eq!(ib.messages(0), &[3]);
            assert_eq!(ib.messages(1), &[5]);
            assert!(!ib.has_messages(2));
            // The total still counts what was received.
            assert_eq!(ib.total_messages(), 5);
        }
    }

    #[test]
    fn float_fold_is_the_sequential_fold_in_deposit_order() {
        // Three addends whose sum depends on association; several
        // destinations spread over every bucket of a 1000-vertex inbox.
        let parts = [1e16, 1.0, -1e16, 3.0, 1e-3];
        let sequential = parts
            .iter()
            .fold(0.0, |acc, &x| SumCombiner.combine(acc, x));
        assert_ne!(sequential, parts.iter().rev().sum::<f64>());
        let n = 1000usize;
        let batches: Vec<Vec<(u64, f64)>> = parts
            .iter()
            .map(|&x| (0..n as u64).step_by(37).map(|v| (v, x)).collect())
            .collect();
        for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
            let ib = deliver(Inbox::new(), transport, n, &batches, Some(&SumCombiner));
            for v in (0..n as u64).step_by(37) {
                let got = ib.messages(v)[0];
                assert_eq!(got.to_bits(), sequential.to_bits(), "{transport:?} {v}");
            }
        }
    }

    #[test]
    fn every_transport_builds_the_same_inbox() {
        let n = 1000usize;
        let sends = vec![
            vec![(1u64, 10u64), (700, 70), (1, 11), (400, 40)],
            vec![(512, 50), (999, 90), (1, 12)],
        ];
        let a = deliver(Inbox::new(), Transport::PerThreadOutbox, n, &sends, None);
        let b = deliver(Inbox::new(), Transport::SingleQueue, n, &sends, None);
        assert_eq!(a.total_messages(), b.total_messages());
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn partial_final_bucket_and_unaligned_vertex_counts() {
        // n = 130 over 3 workers: shift 6 (the floor), buckets [0,64)
        // [64,128) [128,130) — the last one a stub whose presence word is
        // partial.
        let sends = vec![
            vec![(0u64, 1u64), (64, 2), (129, 3)],
            vec![(129, 4)],
            vec![],
        ];
        for combiner in [None, Some(&MinCombiner as &dyn Combiner<u64>)] {
            let ib = deliver(
                Inbox::new(),
                Transport::PerThreadOutbox,
                130,
                &sends,
                combiner,
            );
            assert_eq!(ib.total_messages(), 4);
            assert_eq!(ib.messages(0), &[1]);
            assert_eq!(ib.messages(64), &[2]);
            assert_eq!(ib.messages(129)[0], 3);
            assert!(!ib.has_messages(128));
        }
    }

    #[test]
    fn large_scatter_is_complete() {
        let n = 10_000usize;
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
        let sum: usize = (0..n as u64).map(|v| ib.messages(v).len()).sum();
        assert_eq!(sum, 8 * 5000);
    }

    #[test]
    #[should_panic]
    fn out_of_range_destination_is_a_panic_not_a_wild_write() {
        // 100 vertices round up to a 128-wide bucket; vertex 100 slips
        // past the partition and must be stopped at the slot write.
        let sends = vec![vec![(100u64, 1u64)]];
        deliver(
            Inbox::new(),
            Transport::SingleQueue,
            100,
            &sends,
            Some(&MinCombiner),
        );
    }

    #[test]
    fn rebuild_reuses_and_matches_fresh_build() {
        // One inbox rebuilt through a sequence of shapes must agree with
        // a fresh build at every step (combined, uncombined, empty).
        let rounds: Vec<Vec<Vec<(u64, u64)>>> = vec![
            vec![vec![(0, 5), (3, 1), (0, 2)], vec![(2, 7)]],
            vec![vec![]],
            vec![vec![(3, 3), (3, 4), (1, 9), (2, 2), (0, 1)]],
        ];
        for transport in TRANSPORTS {
            let mut reused: Inbox<u64> = Inbox::new();
            for batches in &rounds {
                for combiner in [None, Some(&MinCombiner as &dyn Combiner<u64>)] {
                    reused = deliver(reused, transport, 4, batches, combiner);
                    let fresh = deliver(Inbox::new(), transport, 4, batches, combiner);
                    assert_eq!(reused.shape, fresh.shape);
                    assert_eq!(reused.total_messages(), fresh.total_messages());
                    assert_eq!(reused.snapshot(), fresh.snapshot());
                }
            }
            // Shrinking to empty and regrowing works too.
            reused.reset_empty(4);
            assert_eq!(reused.total_messages(), 0);
            assert_eq!(reused.shape, Shape::Empty);
            assert!(!reused.has_messages(3));
        }
    }

    #[test]
    fn snapshot_capacity_is_exact() {
        let batches = vec![vec![(0u64, 9u64), (0, 3), (2, 7)]];
        let plain = deliver(Inbox::new(), Transport::PerThreadOutbox, 3, &batches, None);
        let snap = plain.snapshot();
        assert_eq!(snap, vec![(0, 9), (0, 3), (2, 7)]);
        assert_eq!(snap.capacity(), 3);
        let combined = deliver(
            Inbox::new(),
            Transport::PerThreadOutbox,
            3,
            &batches,
            Some(&MinCombiner),
        );
        let snap = combined.snapshot();
        assert_eq!(snap, vec![(0, 3), (2, 7)]);
        assert_eq!(snap.capacity(), 2);
    }
}
