//! Message transport strategies.
//!
//! §VII of the paper: "Without native support for message features such
//! as enqueueing and dequeueing, serialization around a single atomic
//! fetch-and-add is possible, inhibiting scalability."  We implement
//! three designs and let the experiment harness compare them
//! (`ablation_queue`, `ablation_exchange`):
//!
//! * [`Transport::SingleQueue`] — the XMT-naive port: one shared queue
//!   behind a single fetch-and-add cursor (every message charges the
//!   hotspot in the performance model);
//! * [`Transport::PerThreadOutbox`] — per-worker outboxes merged at the
//!   superstep boundary; no hot word, but grouping the merged outboxes
//!   by destination still costs one uncontended atomic per message;
//! * [`Transport::Bucketed`] — per-worker outboxes that are additionally
//!   radix-partitioned by destination range into one bucket per worker.
//!   The exchange becomes an all-to-all: bucket *b* of every worker
//!   holds only destinations in `[b·stride, (b+1)·stride)`, so worker
//!   *b* can count, prefix-sum, and scatter its contiguous inbox slice
//!   with plain (non-atomic) operations.  Bucketing also enables
//!   *sender-side combining*: when the program has a combiner, each
//!   worker folds messages to the same destination inside its bucket as
//!   they are deposited, so combined programs ship O(active vertices)
//!   messages across the boundary instead of O(edges).
//!
//! A collector's storage is persistent: [`MessageCollector::reset`]
//! clears the slots while retaining their capacity, so a collector held
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
    /// Each worker appends to its own outbox; outboxes are merged at the
    /// superstep boundary. No shared hot word.
    PerThreadOutbox,
    /// All workers append to one shared queue through a single
    /// fetch-and-add cursor — the XMT-naive port. Functionally identical,
    /// but every message charges the hotspot in the performance model.
    SingleQueue,
    /// Per-worker outboxes radix-partitioned by destination range; the
    /// exchange is an atomic-free all-to-all, and sender-side combining
    /// kicks in when the program has a combiner.
    Bucketed,
}

/// Map a destination vertex to its bucket for a given stride.
#[inline]
fn bucket_of(dst: VertexId, stride: u64) -> usize {
    (dst / stride) as usize
}

/// The bucket stride covering `n` vertices with `buckets` buckets.
pub fn bucket_stride(n: usize, buckets: usize) -> u64 {
    (n as u64).div_ceil(buckets.max(1) as u64).max(1)
}

/// A borrowed, allocation-free view of a collector's deposited messages,
/// shaped by transport.  Obtained via [`MessageCollector::collected`];
/// the storage stays with the collector for the next superstep's reuse.
pub enum Collected<'a, M> {
    /// Per-slot batches (outbox or queue transport).
    Flat(&'a [Vec<(VertexId, M)>]),
    /// `per_worker[w][b]` = worker `w`'s sends into destination bucket `b`.
    Bucketed {
        /// Vertex-range width of each bucket.
        stride: u64,
        /// Outer index worker, inner index bucket.
        per_worker: &'a [Vec<Vec<(VertexId, M)>>],
    },
}

impl<'a, M> Collected<'a, M> {
    /// One flat batch (the single queue; a checkpoint's pending
    /// messages).
    pub fn one_batch(batch: &'a Vec<(VertexId, M)>) -> Self {
        Collected::Flat(std::slice::from_ref(batch))
    }

    /// Number of addressable batches (flat slots, or worker × bucket).
    pub fn num_batches(&self) -> usize {
        match self {
            Collected::Flat(batches) => batches.len(),
            Collected::Bucketed { per_worker, .. } => {
                per_worker.len() * per_worker.first().map_or(0, Vec::len)
            }
        }
    }

    /// Batch `i` in `0..num_batches()` as a `(dst, msg)` slice.
    pub fn batch(&self, i: usize) -> &'a [(VertexId, M)] {
        match self {
            Collected::Flat(batches) => batches[i].as_slice(),
            Collected::Bucketed { per_worker, .. } => {
                let inner = per_worker.first().map_or(1, Vec::len).max(1);
                per_worker[i / inner][i % inner].as_slice()
            }
        }
    }

    /// Messages bound for each destination bucket, summed across workers
    /// (post sender-side combining); empty for flat transports.  Trace
    /// reporting only — allocates its result.
    pub fn bucket_counts(&self) -> Vec<u64> {
        match self {
            Collected::Flat(_) => Vec::new(),
            Collected::Bucketed { per_worker, .. } => {
                let buckets = per_worker.first().map_or(0, Vec::len);
                let mut counts = vec![0u64; buckets];
                for worker in *per_worker {
                    for (b, batch) in worker.iter().enumerate() {
                        counts[b] += batch.len() as u64;
                    }
                }
                counts
            }
        }
    }
}

/// Collects outgoing messages during one superstep's compute phase.
///
/// Storage is worker-private where the transport allows it: the outbox
/// and bucketed slots are [`WorkerScratch`] slots (one live depositor
/// per worker id — the `parallel_for_chunked` contract), so deposits
/// take no lock and the buffers persist across [`reset`](Self::reset)
/// for superstep-to-superstep reuse.  Only the single-queue transport
/// keeps a `Mutex`, which is the point of that transport.
pub struct MessageCollector<M> {
    transport: Transport,
    workers: usize,
    num_vertices: usize,
    combining: bool,
    /// One private slot per worker (outbox mode).
    slots: WorkerScratch<Vec<(VertexId, M)>>,
    /// The one shared queue (single-queue mode).  A leaf lock in the
    /// workspace lock-order graph: held only for a push/drain, never
    /// across another acquisition or a foreign call.
    queue: Mutex<Vec<(VertexId, M)>>,
    /// `buckets[w][b]` = worker `w`'s sends into destination range `b`
    /// (bucketed mode).
    buckets: WorkerScratch<Vec<Vec<(VertexId, M)>>>,
    /// Sender-side combining index: per worker, per bucket, destination →
    /// position in the bucket vec (bucketed mode with a combiner).
    index: WorkerScratch<Vec<HashMap<VertexId, u32>>>,
    stride: u64,
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
    /// an effect for [`Transport::Bucketed`] (the flat transports always
    /// ship raw messages and combine at the receiver).
    pub fn new(transport: Transport, workers: usize, num_vertices: usize, combining: bool) -> Self {
        let workers = workers.max(1);
        let (slots, buckets) = match transport {
            Transport::PerThreadOutbox => (workers, 0),
            Transport::SingleQueue => (0, 0),
            Transport::Bucketed => (0, workers),
        };
        let stride = bucket_stride(num_vertices, workers);
        let bucketed_combining = combining && transport == Transport::Bucketed;
        MessageCollector {
            transport,
            workers,
            num_vertices,
            combining,
            // WorkerScratch always holds ≥ 1 slot; unused shapes keep one
            // empty (heap-free) slot.
            slots: WorkerScratch::new(slots.max(1)),
            queue: Mutex::new(Vec::new()),
            buckets: WorkerScratch::with(buckets.max(1), || {
                if buckets > 0 {
                    (0..workers).map(|_| Vec::new()).collect()
                } else {
                    Vec::new()
                }
            }),
            index: WorkerScratch::with(buckets.max(1), || {
                if bucketed_combining {
                    (0..workers).map(|_| HashMap::new()).collect()
                } else {
                    Vec::new()
                }
            }),
            stride,
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

    /// Clear all deposited messages, retaining every buffer's capacity.
    ///
    /// After a reset the collector behaves like a fresh
    /// [`new`](Self::new) with the same shape, but deposits hit warm
    /// buffers — the superstep loop calls this instead of rebuilding.
    pub fn reset(&mut self) {
        for slot in self.slots.iter_mut() {
            slot.clear();
        }
        self.queue.get_mut().clear();
        for worker in self.buckets.iter_mut() {
            for bucket in worker {
                bucket.clear();
            }
        }
        for worker in self.index.iter_mut() {
            for map in worker {
                // HashMap::clear retains capacity: re-inserts up to the
                // high-water mark do not allocate.
                map.clear();
            }
        }
        // Relaxed (both): `&mut self` excludes all depositors; the next
        // parallel region's pool handoff publishes the zeroes.
        self.shipped.store(0, Ordering::Relaxed);
        self.generated.store(0, Ordering::Relaxed); // Relaxed: as above.
    }

    /// Deposit a worker's chunk-local sends, draining `batch` but
    /// leaving its capacity with the caller for reuse.
    ///
    /// In outbox mode this appends to the worker's private slot; in
    /// single-queue mode all workers funnel through one lock — on the
    /// simulated machine every message would individually pay the shared
    /// cursor, which the model charges via [`charge_exchange`].  In
    /// bucketed mode the batch is radix-partitioned by destination range
    /// into the worker's private buckets, folding duplicates through
    /// `combiner` on the way in when one is supplied.
    ///
    /// Worker-private storage relies on the `parallel_for_chunked`
    /// contract: at most one live thread per worker id.
    pub fn deposit_from(
        &self,
        worker: usize,
        batch: &mut Vec<(VertexId, M)>,
        combiner: Option<&dyn Combiner<M>>,
    ) {
        if batch.is_empty() {
            return;
        }
        let raw = batch.len() as u64;
        let shipped = match self.transport {
            Transport::PerThreadOutbox => {
                // SAFETY: one live depositor per worker id (see above).
                unsafe { self.slots.get(worker) }.append(batch);
                raw
            }
            Transport::SingleQueue => {
                self.queue.lock().append(batch);
                raw
            }
            Transport::Bucketed => {
                // SAFETY: one live depositor per worker id (see above).
                let buckets = unsafe { self.buckets.get(worker) };
                match combiner {
                    Some(c) if self.combining => {
                        // SAFETY: same single-depositor contract.
                        let index = unsafe { self.index.get(worker) };
                        let mut inserted = 0u64;
                        for (dst, msg) in batch.drain(..) {
                            let b = bucket_of(dst, self.stride);
                            match index[b].entry(dst) {
                                Entry::Occupied(e) => {
                                    let at = *e.get() as usize;
                                    let old = buckets[b][at].1;
                                    buckets[b][at].1 = c.combine(old, msg);
                                }
                                Entry::Vacant(e) => {
                                    e.insert(buckets[b].len() as u32);
                                    buckets[b].push((dst, msg));
                                    inserted += 1;
                                }
                            }
                        }
                        inserted
                    }
                    _ => {
                        for (dst, msg) in batch.drain(..) {
                            buckets[bucket_of(dst, self.stride)].push((dst, msg));
                        }
                        raw
                    }
                }
            }
        };
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

    /// Borrow the deposited messages in transport shape without moving
    /// them out; the storage stays warm for the next
    /// [`reset`](Self::reset) + deposit cycle.  `&mut self` proves no
    /// depositor is live.
    pub fn collected(&mut self) -> Collected<'_, M> {
        match self.transport {
            Transport::PerThreadOutbox => Collected::Flat(self.slots.as_slice()),
            Transport::SingleQueue => Collected::one_batch(self.queue.get_mut()),
            Transport::Bucketed => Collected::Bucketed {
                stride: self.stride,
                per_worker: self.buckets.as_slice(),
            },
        }
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

    #[test]
    fn outbox_mode_keeps_slots_separate() {
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::PerThreadOutbox, 3, 10, false);
        mc.deposit_from(0, &mut vec![(1, 10)], None);
        mc.deposit_from(2, &mut vec![(2, 20), (3, 30)], None);
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
        mc.deposit_from(0, &mut vec![(1, 10)], None);
        mc.deposit_from(5, &mut vec![(2, 20)], None);
        let batches = batches(&mut mc);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2);
    }

    #[test]
    fn empty_deposits_are_free() {
        let mc: MessageCollector<u64> =
            MessageCollector::new(Transport::PerThreadOutbox, 2, 10, false);
        mc.deposit_from(1, &mut vec![], None);
        assert_eq!(mc.total(), 0);
        assert_eq!(mc.total_generated(), 0);
    }

    #[test]
    fn bucketed_mode_partitions_by_destination_range() {
        // 10 vertices over 2 workers: stride 5, bucket 0 = [0,5), 1 = [5,10).
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::Bucketed, 2, 10, false);
        mc.deposit_from(0, &mut vec![(1, 10), (7, 70), (4, 40)], None);
        mc.deposit_from(1, &mut vec![(5, 50)], None);
        assert_eq!(mc.total(), 4);
        match mc.collected() {
            Collected::Bucketed { stride, per_worker } => {
                assert_eq!(stride, 5);
                assert_eq!(per_worker.len(), 2);
                assert_eq!(per_worker[0][0], vec![(1, 10), (4, 40)]);
                assert_eq!(per_worker[0][1], vec![(7, 70)]);
                assert!(per_worker[1][0].is_empty());
                assert_eq!(per_worker[1][1], vec![(5, 50)]);
            }
            Collected::Flat(_) => panic!("bucketed collector must stay bucketed"),
        }
    }

    #[test]
    fn sender_side_combining_folds_within_worker() {
        let mut mc: MessageCollector<u64> = MessageCollector::new(Transport::Bucketed, 2, 10, true);
        // Worker 0 sends three messages to vertex 3 (across two chunks)
        // and one to vertex 8; worker 1 also targets vertex 3 — that
        // duplicate survives (combining is per sender) for the receiver
        // to fold.
        mc.deposit_from(0, &mut vec![(3, 9), (3, 4), (8, 1)], Some(&MinCombiner));
        mc.deposit_from(0, &mut vec![(3, 6)], Some(&MinCombiner));
        mc.deposit_from(1, &mut vec![(3, 2)], Some(&MinCombiner));
        assert_eq!(mc.total_generated(), 5);
        assert_eq!(mc.total(), 3); // (w0,3)=min(9,4,6)=4, (w0,8)=1, (w1,3)=2
        match mc.collected() {
            Collected::Bucketed { per_worker, .. } => {
                assert_eq!(per_worker[0][0], vec![(3, 4)]);
                assert_eq!(per_worker[0][1], vec![(8, 1)]);
                assert_eq!(per_worker[1][0], vec![(3, 2)]);
            }
            Collected::Flat(_) => panic!("bucketed collector must stay bucketed"),
        }
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
                mc.deposit_from(w, &mut batch, None);
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
        mc.deposit_from(0, &mut outbox, Some(&MinCombiner));
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
            mc.deposit_from(0, &mut vec![(1, 10), (7, 70)], Some(&MinCombiner));
            mc.deposit_from(1, &mut vec![(3, 30)], Some(&MinCombiner));
            assert_eq!(mc.total(), 3, "{transport:?}");
            mc.reset();
            assert_eq!(mc.total(), 0, "{transport:?}");
            assert_eq!(mc.total_generated(), 0, "{transport:?}");
            // A fresh deposit after reset behaves like the first one —
            // including re-engaging the (cleared) combining index.
            mc.deposit_from(0, &mut vec![(1, 4), (1, 2)], Some(&MinCombiner));
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
    fn bucket_counts_sum_across_workers() {
        let collected: Collected<u64> = Collected::Bucketed {
            stride: 3,
            per_worker: &[
                vec![vec![(0, 1), (2, 2)], vec![(3, 3)]],
                vec![vec![], vec![(4, 4), (5, 5)]],
            ],
        };
        assert_eq!(collected.bucket_counts(), vec![2, 3]);
        let flat: Collected<u64> = Collected::Flat(&[vec![(0, 1)]]);
        assert!(flat.bucket_counts().is_empty());
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
