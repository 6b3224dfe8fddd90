//! Message transport strategies.
//!
//! §VII of the paper: "Without native support for message features such
//! as enqueueing and dequeueing, serialization around a single atomic
//! fetch-and-add is possible, inhibiting scalability."  We implement
//! three designs and let the experiment harness compare them
//! (`ablation_queue`, `ablation_exchange`).  The *model* charges differ
//! per transport (`xmt_model::exchange`); on the host all three share
//! one data path and differ only in how it is shaped:
//!
//! * [`Transport::PerThreadOutbox`] (the default) — every worker owns a
//!   lane of bucket buffers; a compute chunk's sends are
//!   radix-partitioned by destination range into the lane as they are
//!   deposited, in buckets of at most 2^16 vertices;
//! * [`Transport::SingleQueue`] — the XMT-naive port: one lane with one
//!   bucket behind one lock that every deposit takes (every message
//!   charges the hotspot in the performance model), and therefore one
//!   receiving task;
//! * [`Transport::Bucketed`] — the all-to-all the model charges: one
//!   bucket per worker, plus *sender-side combining*: when the program
//!   has a combiner, each worker folds messages to the same destination
//!   inside its bucket as they are deposited, so combined programs ship
//!   O(active vertices) messages across the boundary instead of
//!   O(edges).
//!
//! Every deposit records the position of its chunk in the active list; a
//! chunk may leave in several deposits, all at that position.
//! The receiving side ([`Inbox::rebuild`](crate::Inbox::rebuild)) gives
//! each bucket to exactly one task, which walks that bucket's deposits
//! in ascending chunk position with plain loads and stores.  The active
//! list is ascending under `DenseScan`, so each destination receives its
//! messages in ascending source order whatever the worker count or
//! schedule; DESIGN.md §17 states where that guarantee holds.
//!
//! A collector's storage is persistent: [`MessageCollector::reset`]
//! clears the lanes while retaining their capacity, so a collector held
//! in a `SuperstepFrame` deposits into warm buffers every superstep
//! instead of reallocating them (the steady-state zero-allocation
//! contract of the runtime).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use xmt_graph::VertexId;
use xmt_model::{charge_push_exchange, ExchangeKind, PhaseCounts};
use xmt_par::WorkerScratch;

use crate::program::Combiner;

/// How sent messages travel from `compute` to the next superstep's inbox.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Transport {
    /// Each worker deposits into its own lane of destination buckets;
    /// the lanes meet at the superstep boundary. No shared hot word.
    PerThreadOutbox,
    /// All workers append to one shared queue through a single
    /// fetch-and-add cursor — the XMT-naive port. Functionally identical,
    /// but every message charges the hotspot in the performance model.
    SingleQueue,
    /// One destination bucket per worker (the model's all-to-all), with
    /// sender-side combining when the program has a combiner.
    Bucketed,
}

/// log2 of the most vertices a destination bucket of the default
/// transport covers (2^16).  Two costs pull against each other: the slot
/// range one receiving task folds into (512 KiB of 8-byte slots) should
/// stay cache-resident while its deposits stream past, and every bucket
/// is one more write stream for the partition at the sending side.
/// Picked by measurement (EXPERIMENTS.md, "Source-ordered exchange").
const BUCKET_SHIFT: u32 = 16;

/// Buckets per worker the default transport aims for on graphs too small
/// to fill that many full-width ones: receiving tasks claim
/// whole buckets, and RMAT's low ids draw most of the traffic, so one
/// bucket per worker would leave the others idle behind the first.
const BUCKETS_PER_WORKER: usize = 4;

/// The `(shift, buckets)` shape of a transport over `n` vertices: bucket
/// `b` covers vertices `[b << shift, (b + 1) << shift)`.  `shift` is
/// never below 6, so bucket boundaries fall on the 64-vertex words of an
/// inbox's presence bitmap and no two receiving tasks share one.
fn bucket_shape(transport: Transport, workers: usize, n: usize) -> (u32, usize) {
    // Smallest shift at which `buckets` buckets cover `n` vertices.
    let covering = |buckets: usize| {
        let stride = n.div_ceil(buckets.max(1)).max(1);
        stride.next_power_of_two().trailing_zeros().max(6)
    };
    match transport {
        Transport::SingleQueue => (covering(1), 1),
        Transport::Bucketed => (covering(workers), workers),
        Transport::PerThreadOutbox => {
            let shift = covering(workers * BUCKETS_PER_WORKER).min(BUCKET_SHIFT);
            (shift, n.div_ceil(1 << shift).max(1))
        }
    }
}

/// One depositor's storage: a buffer per destination bucket, and one row
/// per deposit recording where in the active list the depositing chunk
/// started and where each bucket buffer ended after it.
struct Lane<M> {
    buckets: Vec<Vec<(VertexId, M)>>,
    /// Chunk position of deposit `r`.
    starts: Vec<u64>,
    /// `ends[r * buckets.len() + b]` = `buckets[b].len()` after deposit `r`.
    ends: Vec<usize>,
}

impl<M> Lane<M> {
    fn new(buckets: usize) -> Self {
        Lane {
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            starts: Vec::new(),
            ends: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.starts.clear();
        self.ends.clear();
    }

    /// What deposit `row` put into bucket `b`.
    fn deposit(&self, row: usize, b: usize) -> &[(VertexId, M)] {
        let width = self.buckets.len();
        let lo = if row == 0 {
            0
        } else {
            self.ends[(row - 1) * width + b]
        };
        &self.buckets[b][lo..self.ends[row * width + b]]
    }
}

/// A borrowed, allocation-free view of a collector's deposited messages:
/// per lane and destination bucket, with every deposit listed in
/// ascending chunk position.  Obtained via
/// [`MessageCollector::collected`]; the storage stays with the collector
/// for the next superstep's reuse.
pub struct Collected<'a, M> {
    num_vertices: usize,
    shift: u32,
    buckets: usize,
    lanes: &'a [Lane<M>],
    /// `(chunk position, lane, row)`, ascending.
    order: &'a [(u64, u32, u32)],
}

impl<'a, M> Collected<'a, M> {
    /// The vertex count the collector was shaped for.
    pub(crate) fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of destination buckets.
    pub(crate) fn num_buckets(&self) -> usize {
        self.buckets
    }

    /// The vertex range bucket `b` covers (empty past the last vertex).
    pub(crate) fn bucket_range(&self, b: usize) -> std::ops::Range<usize> {
        let n = self.num_vertices;
        (b << self.shift).min(n)..((b + 1) << self.shift).min(n)
    }

    /// Bucket `b`'s messages as one `(dst, msg)` slice per deposit, in
    /// ascending chunk position — the order its one receiving task folds
    /// them in.
    pub(crate) fn bucket_deposits(
        &self,
        b: usize,
    ) -> impl Iterator<Item = &'a [(VertexId, M)]> + '_ {
        self.order
            .iter()
            .map(move |&(_, lane, row)| self.lanes[lane as usize].deposit(row as usize, b))
    }

    /// Number of addressable batches (lane × bucket), in no particular
    /// order — for passes that only need to see every message once.
    pub(crate) fn num_batches(&self) -> usize {
        self.lanes.len() * self.buckets
    }

    /// Batch `i` in `0..num_batches()` as a `(dst, msg)` slice.
    pub(crate) fn batch(&self, i: usize) -> &'a [(VertexId, M)] {
        self.lanes[i / self.buckets].buckets[i % self.buckets].as_slice()
    }
}

/// Collects outgoing messages during one superstep's compute phase.
///
/// Storage is worker-private where the transport allows it: the lanes
/// are [`WorkerScratch`] slots (one live depositor per worker id — the
/// `parallel_for_chunked` contract), so deposits take no lock and the
/// buffers persist across [`reset`](Self::reset) for
/// superstep-to-superstep reuse.  Only the single-queue transport keeps
/// its one lane behind a `Mutex`, which is the point of that transport.
pub struct MessageCollector<M> {
    transport: Transport,
    workers: usize,
    num_vertices: usize,
    combining: bool,
    shift: u32,
    buckets: usize,
    /// One private lane per worker (all but single-queue mode).
    lanes: WorkerScratch<Lane<M>>,
    /// The one shared lane (single-queue mode).  A leaf lock in the
    /// workspace lock-order graph: held only for a deposit, never across
    /// another acquisition or a foreign call.
    queue: Mutex<Lane<M>>,
    /// Sender-side combining index: per worker, per bucket, destination →
    /// position in the bucket buffer (bucketed mode with a combiner).
    index: WorkerScratch<Vec<HashMap<VertexId, u32>>>,
    /// Every deposit of the superstep, sorted by [`collected`](Self::collected).
    order: Vec<(u64, u32, u32)>,
    /// Messages that will cross the superstep boundary (post sender-side
    /// combining), maintained with one relaxed add per deposit so
    /// [`total`](Self::total) never takes a lock.
    shipped: AtomicU64,
    /// Messages produced by `compute` (pre sender-side combining).
    generated: AtomicU64,
}

impl<M: Copy + Send> MessageCollector<M> {
    /// A collector for `workers` workers over `num_vertices` vertices.
    ///
    /// `combining` enables the sender-side combining index; it only has
    /// an effect for [`Transport::Bucketed`] (the other transports always
    /// ship raw messages and combine at the receiver).
    pub fn new(transport: Transport, workers: usize, num_vertices: usize, combining: bool) -> Self {
        let workers = workers.max(1);
        let (shift, buckets) = bucket_shape(transport, workers, num_vertices);
        let single_queue = transport == Transport::SingleQueue;
        let bucketed_combining = combining && transport == Transport::Bucketed;
        MessageCollector {
            transport,
            workers,
            num_vertices,
            combining,
            shift,
            buckets,
            // WorkerScratch always holds ≥ 1 slot; the unused shape keeps
            // bucket-less (heap-free) lanes.
            lanes: WorkerScratch::with(if single_queue { 1 } else { workers }, || {
                Lane::new(if single_queue { 0 } else { buckets })
            }),
            queue: Mutex::new(Lane::new(if single_queue { buckets } else { 0 })),
            index: WorkerScratch::with(if bucketed_combining { workers } else { 1 }, || {
                if bucketed_combining {
                    (0..buckets).map(|_| HashMap::new()).collect()
                } else {
                    Vec::new()
                }
            }),
            order: Vec::new(),
            shipped: AtomicU64::new(0),
            generated: AtomicU64::new(0),
        }
    }

    /// The transport in use.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// The worker count this collector was shaped for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The vertex count this collector was shaped for.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Whether the sender-side combining index was requested.
    pub fn is_combining(&self) -> bool {
        self.combining
    }

    /// Whether deposits are combined at the sender: the bucketed
    /// transport with the index requested.  Each deposit is combined on
    /// its own, so what ships depends on how the active list is chunked
    /// and on nothing else.
    pub fn combines_at_sender(&self) -> bool {
        self.combining && self.transport == Transport::Bucketed
    }

    /// Clear all deposited messages, retaining every buffer's capacity.
    ///
    /// After a reset the collector behaves like a fresh
    /// [`new`](Self::new) with the same shape, but deposits hit warm
    /// buffers — the superstep loop calls this instead of rebuilding.
    pub fn reset(&mut self) {
        for lane in self.lanes.iter_mut() {
            lane.clear();
        }
        self.queue.get_mut().clear();
        // Relaxed (both): `&mut self` excludes all depositors; the next
        // parallel region's pool handoff publishes the zeroes.
        self.shipped.store(0, Ordering::Relaxed);
        self.generated.store(0, Ordering::Relaxed); // Relaxed: as above.
    }

    /// Deposit sends of the compute chunk that starts at position
    /// `chunk_start` of the active list — all of them, or the next part
    /// when the chunk deposits as it goes — draining `batch` but leaving
    /// its capacity with the caller for reuse.
    ///
    /// The batch is radix-partitioned by destination range into the
    /// worker's private lane; in single-queue mode all workers funnel
    /// through one lock into one lane — on the simulated machine every
    /// message would individually pay the shared cursor, which the model
    /// charges via [`charge_exchange`].  In bucketed mode duplicates are
    /// folded through `combiner` on the way in when one is supplied.
    ///
    /// Worker-private storage relies on the `parallel_for_chunked`
    /// contract: at most one live thread per worker id.
    ///
    /// # Panics
    /// Here or in [`Inbox::rebuild`](crate::Inbox::rebuild), if a
    /// destination lies outside the collector's vertex count.
    pub fn deposit_from(
        &self,
        worker: usize,
        chunk_start: usize,
        batch: &mut Vec<(VertexId, M)>,
        combiner: Option<&dyn Combiner<M>>,
    ) {
        if batch.is_empty() {
            return;
        }
        let raw = batch.len() as u64;
        let mut queue_guard;
        let lane = if self.transport == Transport::SingleQueue {
            queue_guard = self.queue.lock();
            &mut *queue_guard
        } else {
            // SAFETY: one live depositor per worker id (see above).
            unsafe { self.lanes.get(worker) }
        };
        let shift = self.shift;
        let shipped = match combiner {
            Some(c) if self.combines_at_sender() => {
                // SAFETY: same single-depositor contract.
                let index = unsafe { self.index.get(worker) };
                // Combining stops at the chunk: what ships is then a
                // function of the chunk, not of which worker claimed it.
                // HashMap::clear retains capacity: re-inserts up to the
                // high-water mark do not allocate.
                index.iter_mut().for_each(HashMap::clear);
                let mut inserted = 0u64;
                for &(dst, msg) in batch.iter() {
                    let b = (dst >> shift) as usize;
                    let bucket = &mut lane.buckets[b];
                    match index[b].entry(dst) {
                        Entry::Occupied(e) => {
                            let at = *e.get() as usize;
                            bucket[at].1 = c.combine(bucket[at].1, msg);
                        }
                        Entry::Vacant(e) => {
                            e.insert(bucket.len() as u32);
                            bucket.push((dst, msg));
                            inserted += 1;
                        }
                    }
                }
                inserted
            }
            _ => {
                for &(dst, msg) in batch.iter() {
                    lane.buckets[(dst >> shift) as usize].push((dst, msg));
                }
                raw
            }
        };
        lane.starts.push(chunk_start as u64);
        lane.ends.extend(lane.buckets.iter().map(Vec::len));
        batch.clear();
        // Relaxed (both): monotonic counters; the runtime reads totals
        // only after the compute parallel_for joins, so every deposit
        // happens-before the read without counter-side ordering.
        self.generated.fetch_add(raw, Ordering::Relaxed);
        self.shipped.fetch_add(shipped, Ordering::Relaxed); // Relaxed: see above
    }

    /// Messages that will cross the superstep boundary so far (post
    /// sender-side combining).  Lock-free: reads one relaxed counter.
    pub fn total(&self) -> u64 {
        // Relaxed: exact only once all depositors have joined (the
        // runtime calls this after the compute barrier); mid-superstep
        // readers get a monotonic snapshot.
        self.shipped.load(Ordering::Relaxed)
    }

    /// Messages produced by `compute` so far (pre sender-side combining).
    /// Equals [`total`](Self::total) unless bucketed combining folded
    /// some away.
    pub fn total_generated(&self) -> u64 {
        // Relaxed: same contract as `total` — read after the barrier.
        self.generated.load(Ordering::Relaxed)
    }

    /// Borrow the deposited messages without moving them out, with the
    /// superstep's deposits put in ascending chunk position; the storage
    /// stays warm for the next [`reset`](Self::reset) + deposit cycle.
    /// `&mut self` proves no depositor is live.
    pub fn collected(&mut self) -> Collected<'_, M> {
        let lanes: &[Lane<M>] = match self.transport {
            Transport::SingleQueue => std::slice::from_ref(self.queue.get_mut()),
            _ => self.lanes.as_slice(),
        };
        self.order.clear();
        for (l, lane) in lanes.iter().enumerate() {
            let rows = lane.starts.iter().enumerate();
            self.order
                .extend(rows.map(|(row, &start)| (start, l as u32, row as u32)));
        }
        // Workers claim chunks in ascending position, so each lane's rows
        // are already sorted and this only merges the lanes.  In place,
        // no allocation.  A chunk that passes the deposit high-water mark
        // leaves in several deposits at its one position: one worker made
        // them all, into one lane, so ordering equal positions by lane,
        // then row, keeps them in the order they were made.
        self.order.sort_unstable();
        Collected {
            num_vertices: self.num_vertices,
            shift: self.shift,
            buckets: self.buckets,
            lanes,
            order: &self.order,
        }
    }

    /// Messages bound for each destination bucket, summed across workers
    /// (post sender-side combining); empty unless the transport is
    /// [`Transport::Bucketed`].  Trace reporting only — allocates its
    /// result.
    pub fn bucket_counts(&mut self) -> Vec<u64> {
        if self.transport != Transport::Bucketed {
            return Vec::new();
        }
        let mut counts = vec![0u64; self.buckets];
        for lane in self.lanes.iter_mut() {
            for (b, bucket) in lane.buckets.iter().enumerate() {
                counts[b] += bucket.len() as u64;
            }
        }
        counts
    }
}

/// Charge the model for moving `messages` messages of `msg_words` words
/// each through this transport and grouping them into an inbox over `n`
/// vertices.  Thin adapter from [`Transport`] onto the model's
/// [`charge_push_exchange`] — see `xmt_model::exchange` for the cost
/// formulas.
pub fn charge_exchange(
    c: &mut PhaseCounts,
    transport: Transport,
    messages: u64,
    msg_words: u64,
    n: u64,
) {
    let kind = match transport {
        Transport::PerThreadOutbox => ExchangeKind::PerThreadOutbox,
        Transport::SingleQueue => ExchangeKind::SharedQueue,
        Transport::Bucketed => ExchangeKind::BucketedAllToAll,
    };
    charge_push_exchange(c, kind, messages, msg_words, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::MinCombiner;

    /// The collected view, batch by batch.
    fn batches(mc: &mut MessageCollector<u64>) -> Vec<Vec<(VertexId, u64)>> {
        let view = mc.collected();
        (0..view.num_batches())
            .map(|i| view.batch(i).to_vec())
            .collect()
    }

    /// Bucket `b` of the collected view, deposit by deposit.
    fn deposits(mc: &mut MessageCollector<u64>, b: usize) -> Vec<Vec<(VertexId, u64)>> {
        let view = mc.collected();
        let deposits = view.bucket_deposits(b).map(<[_]>::to_vec);
        deposits.filter(|d| !d.is_empty()).collect()
    }

    #[test]
    fn default_shape_is_cache_sized_buckets_with_several_per_worker() {
        // Large graphs: full-width buckets, however many workers.
        assert_eq!(
            bucket_shape(Transport::PerThreadOutbox, 2, 1 << 22),
            (16, 64)
        );
        assert_eq!(
            bucket_shape(Transport::PerThreadOutbox, 8, 1 << 24),
            (16, 256)
        );
        // Small graphs: narrower, so each worker still owns several.
        assert_eq!(
            bucket_shape(Transport::PerThreadOutbox, 2, 1 << 15),
            (12, 8)
        );
        assert_eq!(bucket_shape(Transport::PerThreadOutbox, 2, 1 << 12), (9, 8));
        // Never narrower than a presence-bitmap word; never zero buckets.
        assert_eq!(bucket_shape(Transport::PerThreadOutbox, 8, 100), (6, 2));
        assert_eq!(bucket_shape(Transport::PerThreadOutbox, 2, 0), (6, 1));
        // The queue is one bucket; the all-to-all one bucket per worker.
        assert_eq!(bucket_shape(Transport::SingleQueue, 8, 1000), (10, 1));
        assert_eq!(bucket_shape(Transport::Bucketed, 2, 1000), (9, 2));
        assert_eq!(bucket_shape(Transport::Bucketed, 3, 10), (6, 3));
    }

    #[test]
    fn outbox_mode_keeps_lanes_separate() {
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::PerThreadOutbox, 3, 10, false);
        mc.deposit_from(0, 0, &mut vec![(1, 10)], None);
        mc.deposit_from(2, 4, &mut vec![(2, 20), (3, 30)], None);
        assert_eq!(mc.total(), 3);
        let batches = batches(&mut mc);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 1);
        assert_eq!(batches[1].len(), 0);
        assert_eq!(batches[2].len(), 2);
    }

    #[test]
    fn queue_mode_funnels_everything() {
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::SingleQueue, 8, 10, false);
        mc.deposit_from(0, 0, &mut vec![(1, 10)], None);
        mc.deposit_from(5, 3, &mut vec![(2, 20)], None);
        let batches = batches(&mut mc);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2);
    }

    #[test]
    fn empty_deposits_are_free() {
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::PerThreadOutbox, 2, 10, false);
        mc.deposit_from(1, 0, &mut vec![], None);
        assert_eq!(mc.total(), 0);
        assert_eq!(mc.total_generated(), 0);
        assert_eq!(mc.collected().bucket_deposits(0).count(), 0);
    }

    #[test]
    fn deposits_partition_by_destination_range() {
        // 1000 vertices over 2 workers: shift 9, bucket 0 = [0,512),
        // bucket 1 = [512,1000).
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::Bucketed, 2, 1000, false);
        mc.deposit_from(0, 0, &mut vec![(1, 10), (700, 70), (400, 40)], None);
        mc.deposit_from(1, 8, &mut vec![(512, 50)], None);
        assert_eq!(mc.total(), 4);
        assert_eq!(mc.bucket_counts(), vec![2, 2]);
        let view = mc.collected();
        assert_eq!(view.num_buckets(), 2);
        assert_eq!(view.bucket_range(0), 0..512);
        assert_eq!(view.bucket_range(1), 512..1000);
        assert_eq!(deposits(&mut mc, 0), vec![vec![(1, 10), (400, 40)]]);
        assert_eq!(deposits(&mut mc, 1), vec![vec![(700, 70)], vec![(512, 50)]]);
    }

    #[test]
    fn deposits_are_walked_in_chunk_order_not_arrival_order() {
        // Worker 1 claimed the earlier chunks but deposits between worker
        // 0's, its second chunk in two parts; the single queue sees the
        // same arrivals through its lock.
        for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
            let mut mc: MessageCollector<u64> = MessageCollector::new(transport, 2, 100, false);
            mc.deposit_from(0, 32, &mut vec![(7, 3), (70, 30)], None);
            mc.deposit_from(1, 0, &mut vec![(7, 1)], None);
            mc.deposit_from(1, 16, &mut vec![(7, 2)], None);
            mc.deposit_from(0, 48, &mut vec![(7, 4)], None);
            mc.deposit_from(1, 16, &mut vec![(7, 22)], None);
            let bucket_of_7: Vec<_> = deposits(&mut mc, 0)
                .into_iter()
                .flatten()
                .filter(|&(dst, _)| dst == 7)
                .map(|(_, m)| m)
                .collect();
            assert_eq!(bucket_of_7, vec![1, 2, 22, 3, 4], "{transport:?}");
        }
    }

    #[test]
    fn sender_side_combining_folds_within_a_chunk() {
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::Bucketed, 2, 1000, true);
        // The first chunk sends twice to vertex 3 and once to vertex 800;
        // the same worker's next chunk and the other worker's chunk also
        // target vertex 3 — those duplicates survive (combining is per
        // chunk) for the receiver to fold.
        mc.deposit_from(
            0,
            0,
            &mut vec![(3, 9), (3, 4), (800, 1)],
            Some(&MinCombiner),
        );
        mc.deposit_from(0, 8, &mut vec![(3, 6)], Some(&MinCombiner));
        mc.deposit_from(1, 4, &mut vec![(3, 2)], Some(&MinCombiner));
        assert_eq!(mc.total_generated(), 5);
        assert_eq!(mc.total(), 4);
        assert_eq!(
            batches(&mut mc),
            vec![vec![(3, 4), (3, 6)], vec![(800, 1)], vec![(3, 2)], vec![]]
        );
    }

    #[test]
    fn total_is_lock_free_and_matches_contents() {
        // `total` must agree with the drained contents for every
        // transport (it is maintained incrementally, not by locking).
        for transport in [
            Transport::PerThreadOutbox,
            Transport::SingleQueue,
            Transport::Bucketed,
        ] {
            let mut mc: MessageCollector<u64> = MessageCollector::new(transport, 4, 100, false);
            for w in 0..4 {
                let mut batch = (0..25).map(|i| ((i * 4 + w as u64) % 100, i)).collect();
                mc.deposit_from(w, w * 25, &mut batch, None);
            }
            let claimed = mc.total();
            let stored: usize = batches(&mut mc).iter().map(|b| b.len()).sum();
            assert_eq!(claimed, stored as u64, "{transport:?}");
        }
    }

    #[test]
    fn deposit_from_drains_but_keeps_capacity() {
        let mc: MessageCollector<u64> = MessageCollector::new(Transport::Bucketed, 2, 10, true);
        let mut outbox: Vec<(VertexId, u64)> = Vec::with_capacity(64);
        outbox.extend([(1, 10), (7, 70), (1, 3)]);
        let cap = outbox.capacity();
        mc.deposit_from(0, 0, &mut outbox, Some(&MinCombiner));
        assert!(outbox.is_empty());
        assert_eq!(outbox.capacity(), cap);
        assert_eq!(mc.total_generated(), 3);
        assert_eq!(mc.total(), 2); // (1, min(10,3)) and (7, 70)
    }

    #[test]
    fn reset_clears_contents_and_keeps_shape() {
        for transport in [
            Transport::PerThreadOutbox,
            Transport::SingleQueue,
            Transport::Bucketed,
        ] {
            let mut mc: MessageCollector<u64> = MessageCollector::new(transport, 2, 10, true);
            mc.deposit_from(0, 0, &mut vec![(1, 10), (7, 70)], Some(&MinCombiner));
            mc.deposit_from(1, 2, &mut vec![(3, 30)], Some(&MinCombiner));
            assert_eq!(mc.total(), 3, "{transport:?}");
            mc.reset();
            assert_eq!(mc.total(), 0, "{transport:?}");
            assert_eq!(mc.total_generated(), 0, "{transport:?}");
            assert_eq!(mc.collected().bucket_deposits(0).count(), 0);
            // A fresh deposit after reset behaves like the first one —
            // including re-engaging the (cleared) combining index.
            mc.deposit_from(0, 0, &mut vec![(1, 4), (1, 2)], Some(&MinCombiner));
            let shipped = mc.total();
            match transport {
                Transport::Bucketed => assert_eq!(shipped, 1, "combined after reset"),
                _ => assert_eq!(shipped, 2),
            }
            let stored: usize = batches(&mut mc).iter().map(|b| b.len()).sum();
            assert_eq!(shipped, stored as u64, "{transport:?}");
        }
    }

    #[test]
    fn single_queue_charges_the_hotspot() {
        let mut a = PhaseCounts::default();
        let mut b = PhaseCounts::default();
        charge_exchange(&mut a, Transport::PerThreadOutbox, 1000, 1, 100);
        charge_exchange(&mut b, Transport::SingleQueue, 1000, 1, 100);
        assert_eq!(a.hotspot_ops, 0);
        assert_eq!(b.hotspot_ops, 1000);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.barriers, 2);
    }

    #[test]
    fn bucketed_transport_charges_no_atomics() {
        let mut outbox = PhaseCounts::default();
        let mut bucketed = PhaseCounts::default();
        charge_exchange(&mut outbox, Transport::PerThreadOutbox, 1000, 1, 100);
        charge_exchange(&mut bucketed, Transport::Bucketed, 1000, 1, 100);
        assert_eq!(outbox.atomics, 1000);
        assert_eq!(bucketed.atomics, 0);
        assert_eq!(bucketed.hotspot_ops, 0);
        assert_eq!(bucketed.barriers, 2);
    }

    #[test]
    fn bucket_counts_are_a_bucketed_trace_only() {
        for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
            let mut mc: MessageCollector<u64> = MessageCollector::new(transport, 2, 1000, false);
            mc.deposit_from(0, 0, &mut vec![(0, 1), (900, 2)], None);
            assert!(mc.bucket_counts().is_empty(), "{transport:?}");
        }
    }

    #[test]
    fn wider_messages_cost_more_traffic() {
        let mut one = PhaseCounts::default();
        let mut two = PhaseCounts::default();
        charge_exchange(&mut one, Transport::PerThreadOutbox, 1000, 1, 100);
        charge_exchange(&mut two, Transport::PerThreadOutbox, 1000, 2, 100);
        assert!(two.writes > one.writes);
        assert!(two.reads > one.reads);
        assert_eq!(two.atomics, one.atomics); // one count per message either way
    }
}
