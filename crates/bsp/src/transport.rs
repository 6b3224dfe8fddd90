//! Message transport strategies.
//!
//! §VII of the paper: "Without native support for message features such
//! as enqueueing and dequeueing, serialization around a single atomic
//! fetch-and-add is possible, inhibiting scalability."  We implement
//! the design that avoids that and the one the paper warns against, and
//! let the experiment harness compare them (`ablation_exchange`, the
//! `knobs` bench group).  The *model* charges
//! differ per transport (`xmt_model::exchange`); on the host both share
//! one data path and differ only in how it is shaped:
//!
//! * [`Transport::PerThreadOutbox`] (the default) — every worker owns a
//!   lane of bucket buffers; a compute chunk's sends are
//!   radix-partitioned by destination range into the lane as they are
//!   deposited, in buckets of at most 2^16 vertices — an atomic-free
//!   all-to-all;
//! * [`Transport::SingleQueue`] — the XMT-naive port: one lane with one
//!   bucket behind one lock that every deposit takes (every message
//!   charges the hotspot in the performance model), and therefore one
//!   receiving task.  1.3–1.8× the default's host time on the four
//!   kernels (EXPERIMENTS.md, "Host-time knob ablation"), kept as the
//!   paper-faithful baseline, lock and all.
//!
//! Messages are never combined at the sender: a combiner folds at the
//! receiving side only, so what ships is what `compute` produced.
//!
//! Every bucket holds two streams.  Single sends travel as
//! `(bucket-local dst, msg)` pairs — a 32-bit destination, so a 4-byte
//! message makes an 8-byte pair; a run of sends to one destination
//! ([`Context::send_all_to`](crate::Context::send_all_to)) travels as a
//! `(bucket-local dst, len)` header plus its payloads back to back, so
//! the destination ships once per run instead of once per message.
//! Singles keep their pairs: as runs of one they would cost a header
//! each and a second indirection (DESIGN.md §17).
//!
//! Every deposit records the position of its chunk in the active list; a
//! chunk may leave in several deposits, all at that position.
//! The receiving side ([`Inbox::rebuild`](crate::Inbox::rebuild)) gives
//! each bucket to exactly one task, which walks that bucket's deposits
//! in ascending chunk position with plain loads and stores — all the
//! deposits' pairs first, then all their runs.  The active list is
//! ascending under `DenseScan`, so each destination receives its pairs,
//! then its runs, each in ascending source order whatever the worker
//! count, schedule or deposit split; DESIGN.md §17 states where that
//! guarantee holds.
//!
//! A collector's storage is persistent: [`MessageCollector::reset`]
//! clears the lanes while retaining their capacity, so a collector held
//! in a `SuperstepFrame` deposits into warm buffers every superstep
//! instead of reallocating them (the steady-state zero-allocation
//! contract of the runtime).
//!
//! Neighbor broadcasts of a program whose every message is one
//! ([`VertexProgram::supports_pull`](crate::VertexProgram::supports_pull)
//! with a combiner) need not travel per arc: under the default
//! transport and active set they are recorded once per sender in a
//! `Broadcasts` record, and the exchange either gathers them at the receivers
//! or expands them into the lanes (DESIGN.md §17, "Broadcasts").

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use xmt_graph::VertexId;
use xmt_model::{charge_push_exchange, ExchangeKind, PhaseCounts};
use xmt_par::{CachePadded, DisjointSlice, WorkerScratch};

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
        Transport::PerThreadOutbox => {
            let shift = covering(workers * BUCKETS_PER_WORKER).min(BUCKET_SHIFT);
            (shift, n.div_ceil(1 << shift).max(1))
        }
    }
}

/// Messages on their way: single sends as `(dst, msg)` pairs, and runs
/// of sends to one destination
/// ([`Context::send_all_to`](crate::Context::send_all_to)) as `(dst, len)`
/// headers with their payloads back to back, so a run costs one header
/// and its payloads instead of a destination per message.  `D` is a
/// pair's or run header's destination: a vertex id in a worker's
/// [`Outbox`], an offset from the bucket's first vertex in a lane's
/// [`Bucket`].
pub(crate) struct Streams<D, M> {
    pub(crate) pairs: Vec<(D, M)>,
    /// `(dst, len)`: the next `len` entries of `payloads` go to `dst`.
    pub(crate) runs: Vec<(D, u32)>,
    pub(crate) payloads: Vec<M>,
}

/// One worker's sends of the current compute chunk, before they are
/// deposited.
pub(crate) type Outbox<M> = Streams<VertexId, M>;

/// One destination bucket of a lane; pair and run destinations count
/// from the bucket's first vertex.
type Bucket<M> = Streams<u32, M>;

impl<D, M> Streams<D, M> {
    /// Messages held: one per pair and one per payload.
    pub(crate) fn messages(&self) -> usize {
        self.pairs.len() + self.payloads.len()
    }

    fn clear(&mut self) {
        self.pairs.clear();
        self.runs.clear();
        self.payloads.clear();
    }

    fn ends(&self) -> Ends {
        Ends {
            pairs: self.pairs.len(),
            runs: self.runs.len(),
            payloads: self.payloads.len(),
        }
    }
}

impl<M: Copy> Outbox<M> {
    /// Queue `msgs` for `dst`; an empty run queues nothing.
    pub(crate) fn push_run(&mut self, dst: VertexId, msgs: &[M]) {
        for run in msgs.chunks(u32::MAX as usize) {
            self.runs.push((dst, run.len() as u32));
            self.payloads.extend_from_slice(run);
        }
    }
}

impl<D, M> Streams<D, M> {
    /// Bytes of buffer capacity held.
    pub(crate) fn capacity_bytes(&self) -> usize {
        capacity_bytes(&self.pairs) + capacity_bytes(&self.runs) + capacity_bytes(&self.payloads)
    }
}

/// Bytes of buffer capacity `v` holds.
pub(crate) fn capacity_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl<D, M> Default for Streams<D, M> {
    fn default() -> Self {
        Streams {
            pairs: Vec::new(),
            runs: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

/// A bucket's three stream lengths after one deposit.
#[derive(Clone, Copy, Default)]
struct Ends {
    pairs: usize,
    runs: usize,
    payloads: usize,
}

/// One depositor's storage: a [`Bucket`] per destination range, and one
/// row per deposit recording where in the active list the depositing
/// chunk started and where each bucket's streams ended after it.
struct Lane<M> {
    buckets: Vec<Bucket<M>>,
    /// Chunk position of deposit `r`.
    starts: Vec<u64>,
    /// `ends[r * buckets.len() + b]` = bucket `b`'s lengths after deposit `r`.
    ends: Vec<Ends>,
}

impl<M> Lane<M> {
    fn new(buckets: usize) -> Self {
        Lane {
            buckets: (0..buckets).map(|_| Bucket::default()).collect(),
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

    fn capacity_bytes(&self) -> usize {
        let buckets = self
            .buckets
            .iter()
            .map(Bucket::capacity_bytes)
            .sum::<usize>();
        buckets + capacity_bytes(&self.starts) + capacity_bytes(&self.ends)
    }

    /// What deposit `row` put into bucket `b`, whose first vertex is `base`.
    fn deposit(&self, row: usize, b: usize, base: usize) -> Batch<'_, M> {
        let width = self.buckets.len();
        let lo = if row == 0 {
            Ends::default()
        } else {
            self.ends[(row - 1) * width + b]
        };
        let hi = self.ends[row * width + b];
        let bucket = &self.buckets[b];
        Batch {
            base,
            pairs: &bucket.pairs[lo.pairs..hi.pairs],
            runs: &bucket.runs[lo.runs..hi.runs],
            payloads: &bucket.payloads[lo.payloads..hi.payloads],
        }
    }

    /// Everything bucket `b` holds, whose first vertex is `base`.
    fn whole(&self, b: usize, base: usize) -> Batch<'_, M> {
        let bucket = &self.buckets[b];
        Batch {
            base,
            pairs: &bucket.pairs,
            runs: &bucket.runs,
            payloads: &bucket.payloads,
        }
    }
}

/// Messages to one destination bucket — one deposit's, or a whole lane
/// bucket's: the pairs, and the runs with their payloads.
pub(crate) struct Batch<'a, M> {
    /// The bucket's first vertex: pair and run destinations count from it.
    pub(crate) base: usize,
    /// `(dst - base, msg)` per pair.
    pub(crate) pairs: &'a [(u32, M)],
    /// `(dst - base, len)` per run.
    pub(crate) runs: &'a [(u32, u32)],
    /// The runs' payloads, back to back.
    pub(crate) payloads: &'a [M],
}

impl<'a, M> Batch<'a, M> {
    /// Messages in the batch: one per pair and one per payload.
    pub(crate) fn messages(&self) -> usize {
        self.pairs.len() + self.payloads.len()
    }

    /// Each run as `(dst - base, payloads)`, in deposit order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (usize, &'a [M])> + 'a {
        let mut rest = self.payloads;
        self.runs.iter().map(move |&(local, len)| {
            let (run, tail) = rest.split_at(len as usize);
            rest = tail;
            (local as usize, run)
        })
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
    lanes: &'a [CachePadded<Lane<M>>],
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

    /// Bucket `b`'s messages as one [`Batch`] per deposit, in ascending
    /// chunk position — the order its one receiving task walks them in,
    /// first for the pairs, then for the runs.
    pub(crate) fn bucket_deposits(&self, b: usize) -> impl Iterator<Item = Batch<'a, M>> + '_ {
        let (lanes, base) = (self.lanes, b << self.shift);
        self.order
            .iter()
            .map(move |&(_, lane, row)| lanes[lane as usize].deposit(row as usize, b, base))
    }

    /// Whether any deposit put a run into bucket `b`: a bucket without
    /// runs skips the run walk.
    pub(crate) fn bucket_has_runs(&self, b: usize) -> bool {
        self.lanes
            .iter()
            .any(|lane| !lane.buckets[b].runs.is_empty())
    }

    /// Number of addressable batches (lane × bucket), in no particular
    /// order — for passes that only need to see every message once.
    pub(crate) fn num_batches(&self) -> usize {
        self.lanes.len() * self.buckets
    }

    /// Batch `i` in `0..num_batches()`: all one lane put into one bucket.
    pub(crate) fn batch(&self, i: usize) -> Batch<'a, M> {
        let b = i % self.buckets;
        self.lanes[i / self.buckets].whole(b, b << self.shift)
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
    shift: u32,
    buckets: usize,
    /// One private lane per worker (all but single-queue mode).
    lanes: WorkerScratch<Lane<M>>,
    /// The one shared lane (single-queue mode), padded like the private
    /// ones so [`Collected`] sees one slice type.  A leaf lock
    /// (`Mutex::new`): held only for a deposit, never across another.
    queue: Mutex<CachePadded<Lane<M>>>,
    /// Every deposit of the superstep, sorted by [`collected`](Self::collected).
    order: Vec<(u64, u32, u32)>,
    /// Messages deposited so far, maintained with one relaxed add per
    /// deposit so [`total`](Self::total) never takes a lock.
    shipped: AtomicU64,
}

impl<M: Copy + Send> MessageCollector<M> {
    /// A collector for `workers` workers over `num_vertices` vertices.
    pub fn new(transport: Transport, workers: usize, num_vertices: usize) -> Self {
        let workers = workers.max(1);
        let (shift, buckets) = bucket_shape(transport, workers, num_vertices);
        let single_queue = transport == Transport::SingleQueue;
        let queue_buckets = if single_queue { buckets } else { 0 };
        MessageCollector {
            transport,
            workers,
            num_vertices,
            shift,
            buckets,
            // WorkerScratch always holds ≥ 1 slot; the unused shape keeps
            // bucket-less (heap-free) lanes.
            lanes: WorkerScratch::with(if single_queue { 1 } else { workers }, || {
                Lane::new(if single_queue { 0 } else { buckets })
            }),
            queue: Mutex::new(CachePadded::new(Lane::new(queue_buckets))),
            order: Vec::new(),
            shipped: AtomicU64::new(0),
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
        // Relaxed: `&mut self` excludes all depositors; the next
        // parallel region's pool handoff publishes the zero.
        self.shipped.store(0, Ordering::Relaxed);
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
    /// charges via [`charge_exchange`].
    ///
    /// Worker-private storage relies on the `parallel_for_chunked`
    /// contract: at most one live thread per worker id.
    ///
    /// # Panics
    /// Here or in [`Inbox::rebuild`](crate::Inbox::rebuild), if a
    /// destination lies outside the collector's vertex count.
    pub fn deposit_from(&self, worker: usize, chunk_start: usize, batch: &mut Vec<(VertexId, M)>) {
        self.deposit_parts(worker, chunk_start, batch, &[], &[]);
        batch.clear();
    }

    /// [`deposit_from`](Self::deposit_from) for a compute outbox: its
    /// pairs into each bucket's pair stream, its runs into the run
    /// stream.
    pub(crate) fn deposit(&self, worker: usize, chunk_start: usize, outbox: &mut Outbox<M>) {
        let Outbox {
            pairs,
            runs,
            payloads,
        } = &*outbox;
        self.deposit_parts(worker, chunk_start, pairs, runs, payloads);
        outbox.clear();
    }

    fn deposit_parts(
        &self,
        worker: usize,
        chunk_start: usize,
        pairs: &[(VertexId, M)],
        runs: &[(VertexId, u32)],
        payloads: &[M],
    ) {
        if pairs.is_empty() && runs.is_empty() {
            return;
        }
        let mut queue_guard;
        let lane = if self.transport == Transport::SingleQueue {
            queue_guard = self.queue.lock();
            &mut **queue_guard
        } else {
            // SAFETY: one live depositor per worker id (see above).
            unsafe { self.lanes.get(worker) }
        };
        let shift = self.shift;
        // Where a destination's offset into its bucket takes 32 bits:
        // anywhere but a single queue over more than 2^32 vertices.
        let narrow = shift <= 32;
        let local = |dst: VertexId| {
            let b = (dst >> shift) as usize;
            let local = dst - ((b as u64) << shift);
            assert!(
                narrow || local <= u64::from(u32::MAX),
                "destination {dst} lies 2^32 or more into its bucket"
            );
            (b, local as u32)
        };
        for &(dst, msg) in pairs {
            let (b, local) = local(dst);
            lane.buckets[b].pairs.push((local, msg));
        }
        let mut rest = payloads;
        for &(dst, len) in runs {
            let (run, tail) = rest.split_at(len as usize);
            rest = tail;
            let (b, local) = local(dst);
            let bucket = &mut lane.buckets[b];
            bucket.runs.push((local, len));
            bucket.payloads.extend_from_slice(run);
        }
        lane.starts.push(chunk_start as u64);
        lane.ends.extend(lane.buckets.iter().map(Bucket::ends));
        let deposited = (pairs.len() + payloads.len()) as u64;
        // Relaxed: monotonic counter; the runtime reads the total only
        // after the compute parallel_for joins, so every deposit
        // happens-before the read without counter-side ordering.
        self.shipped.fetch_add(deposited, Ordering::Relaxed);
    }

    /// Messages deposited so far — what crosses the superstep boundary
    /// unless the next superstep pulls.  Lock-free: reads one relaxed
    /// counter.
    pub fn total(&self) -> u64 {
        // Relaxed: exact only once all depositors have joined (the
        // runtime calls this after the compute barrier); mid-superstep
        // readers get a monotonic snapshot.
        self.shipped.load(Ordering::Relaxed)
    }

    /// Bytes of buffer capacity the collector and its lanes hold.
    pub(crate) fn capacity_bytes(&mut self) -> usize {
        let lanes = lanes_of(self.transport, &mut self.lanes, &mut self.queue);
        let lanes = lanes
            .iter()
            .map(|lane| lane.capacity_bytes())
            .sum::<usize>();
        lanes + capacity_bytes(&self.order)
    }

    /// Bytes the superstep's deposits occupy in the lanes: pairs, run
    /// headers and payloads (the deposit tables not included).
    pub(crate) fn bytes_deposited(&mut self) -> u64 {
        let bucket_bytes = |b: &Bucket<M>| {
            std::mem::size_of_val(b.pairs.as_slice())
                + std::mem::size_of_val(b.runs.as_slice())
                + std::mem::size_of_val(b.payloads.as_slice())
        };
        let lanes = lanes_of(self.transport, &mut self.lanes, &mut self.queue);
        let lane_bytes =
            |lane: &CachePadded<Lane<M>>| lane.buckets.iter().map(bucket_bytes).sum::<usize>();
        lanes.iter().map(lane_bytes).sum::<usize>() as u64
    }

    /// Borrow the deposited messages without moving them out, with the
    /// superstep's deposits put in ascending chunk position; the storage
    /// stays warm for the next [`reset`](Self::reset) + deposit cycle.
    /// `&mut self` proves no depositor is live.
    pub fn collected(&mut self) -> Collected<'_, M> {
        let lanes = lanes_of(self.transport, &mut self.lanes, &mut self.queue);
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
}

/// The lanes a collector deposited into: the private ones, or the one
/// shared lane in single-queue mode.
fn lanes_of<'a, M>(
    transport: Transport,
    lanes: &'a mut WorkerScratch<Lane<M>>,
    queue: &'a mut Mutex<CachePadded<Lane<M>>>,
) -> &'a [CachePadded<Lane<M>>] {
    match transport {
        Transport::SingleQueue => std::slice::from_ref(queue.get_mut()),
        Transport::PerThreadOutbox => lanes.as_slice(),
    }
}

/// One superstep's neighbor broadcasts, recorded once per sender: a
/// message slot and a sender bit per vertex.  A broadcast costs one slot
/// write and one bit, however many neighbors it reaches; the exchange
/// reads the record after the compute join.
pub(crate) struct Broadcasts<M> {
    /// Vertex `u`'s broadcast, initialized iff bit `u` of `senders` is set.
    msgs: Vec<MaybeUninit<M>>,
    senders: Vec<AtomicU64>,
}

impl<M: Copy> Broadcasts<M> {
    pub(crate) fn new() -> Self {
        Broadcasts {
            msgs: Vec::new(),
            senders: Vec::new(),
        }
    }

    /// Size for `n` vertices with no sender, retaining capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        self.msgs.resize_with(n, MaybeUninit::uninit);
        self.senders.clear();
        self.senders
            .resize_with(n.div_ceil(64), || AtomicU64::new(0));
    }

    /// Bytes of buffer capacity held.
    pub(crate) fn capacity_bytes(&self) -> usize {
        capacity_bytes(&self.msgs) + capacity_bytes(&self.senders)
    }

    /// The compute phase's handle: records broadcasts until dropped.
    pub(crate) fn sink(&mut self) -> BroadcastSink<'_, M> {
        BroadcastSink {
            msgs: DisjointSlice::new(&mut self.msgs),
            senders: &self.senders,
        }
    }

    /// The message `u` broadcast this superstep, if it did.
    #[inline]
    pub(crate) fn sent(&self, u: VertexId) -> Option<M> {
        // SAFETY: a set bit means the slot was written (`record` writes
        // the slot in the same compute call that sets the bit, both
        // before the join).
        self.is_sender(u).then(|| unsafe { self.sent_unchecked(u) })
    }

    /// Whether `u` broadcast this superstep.
    #[inline]
    pub(crate) fn is_sender(&self, u: VertexId) -> bool {
        // Relaxed: the bits were set before the compute join.
        self.senders[(u >> 6) as usize].load(Ordering::Relaxed) >> (u & 63) & 1 == 1
    }

    /// The message in `u`'s slot, with no test of its sender bit.
    ///
    /// # Safety
    /// `u` broadcast this superstep, or [`fill`](Self::fill) ran after
    /// the record's last reset.
    #[inline]
    pub(crate) unsafe fn sent_unchecked(&self, u: VertexId) -> M {
        // SAFETY: the slot was written by `record` or `fill` (the
        // caller's contract).
        unsafe { self.msgs[u as usize].assume_init() }
    }

    /// Give every non-sender's slot a copy of the first sender's message
    /// (nothing without a sender).  A reader may then load any vertex's
    /// slot with [`sent_unchecked`](Self::sent_unchecked) and keep or
    /// drop it by its sender bit without a branch on the bit.
    pub(crate) fn fill(&mut self) {
        let senders = self.senders.iter().map(|w| w.load(Ordering::Relaxed)); // Relaxed: after the join
        let Some((w, word)) = senders.enumerate().find(|&(_, word)| word != 0) else {
            return;
        };
        // SAFETY: bit `u` is set, so slot `u` was written.
        let first = unsafe { self.msgs[w * 64 + word.trailing_zeros() as usize].assume_init() };
        for (w, word) in self.senders.iter().enumerate() {
            // Relaxed: read after the compute join.
            let mut gaps = !word.load(Ordering::Relaxed);
            while gaps != 0 {
                let u = w * 64 + gaps.trailing_zeros() as usize;
                gaps &= gaps - 1;
                match self.msgs.get_mut(u) {
                    Some(slot) => *slot = MaybeUninit::new(first),
                    // The last word's bits past the last vertex.
                    None => break,
                }
            }
        }
    }

    /// The senders of 64-vertex word `w`, one bit each.
    #[inline]
    pub(crate) fn sender_word(&self, w: usize) -> u64 {
        // Relaxed: read after the compute join, as in `sent`.
        self.senders[w].load(Ordering::Relaxed)
    }

    /// Number of 64-vertex sender words.
    pub(crate) fn sender_words(&self) -> usize {
        self.senders.len()
    }
}

/// What `compute` records broadcasts through: the slots as a
/// [`DisjointSlice`] (each vertex's compute writes its own) and the
/// sender bits, set with relaxed `fetch_or` because two compute chunks
/// may share a 64-vertex word.
pub(crate) struct BroadcastSink<'a, M> {
    msgs: DisjointSlice<'a, MaybeUninit<M>>,
    senders: &'a [AtomicU64],
}

impl<M> BroadcastSink<'_, M> {
    /// Record `msg` as `v`'s broadcast; `false`, recording nothing, if
    /// `v` already broadcast this superstep.
    ///
    /// # Safety
    /// `v` must be below the vertex count the record was reset for, and
    /// only the compute call of `v` may record for `v`.
    #[inline]
    pub(crate) unsafe fn record(&self, v: VertexId, msg: M) -> bool {
        let (word, bit) = (&self.senders[(v >> 6) as usize], 1u64 << (v & 63));
        // Relaxed: only `v`'s compute call touches bit `v`, and every
        // reader runs after the compute join.
        if word.load(Ordering::Relaxed) & bit != 0 {
            return false;
        }
        // SAFETY: slot `v` is in bounds and reached by `v`'s compute call
        // alone (the caller's contract); `write` checks the bound again
        // in debug builds.
        unsafe { self.msgs.write(v as usize, MaybeUninit::new(msg)) };
        // Relaxed: as above; other bits of the word belong to other
        // vertices, hence the read-modify-write.
        word.fetch_or(bit, Ordering::Relaxed);
        true
    }
}

/// Bytes one `(bucket-local dst, msg)` pair of a lane occupies.
pub(crate) fn pair_bytes<M>() -> u64 {
    std::mem::size_of::<(u32, M)>() as u64
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
    };
    charge_push_exchange(c, kind, messages, msg_words, n);
}

#[cfg(test)]
impl<M> MessageCollector<M> {
    /// The byte range each private lane's slot occupies, for layout tests.
    pub(crate) fn lane_spans(&mut self) -> Vec<std::ops::Range<usize>> {
        let size = std::mem::size_of::<Lane<M>>();
        let addr = |lane: &CachePadded<Lane<M>>| &**lane as *const Lane<M> as usize;
        let lanes = self.lanes.as_slice().iter();
        lanes.map(|lane| addr(lane)..addr(lane) + size).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch's pairs with their destinations as vertex ids.
    fn pairs(batch: &Batch<'_, u64>) -> Vec<(VertexId, u64)> {
        let at = |i: u32| (batch.base + i as usize) as VertexId;
        batch.pairs.iter().map(|&(i, m)| (at(i), m)).collect()
    }

    /// The collected view's pairs, batch by batch.
    fn batches(mc: &mut MessageCollector<u64>) -> Vec<Vec<(VertexId, u64)>> {
        let view = mc.collected();
        (0..view.num_batches())
            .map(|i| pairs(&view.batch(i)))
            .collect()
    }

    /// Bucket `b`'s pairs in the collected view, deposit by deposit.
    fn deposits(mc: &mut MessageCollector<u64>, b: usize) -> Vec<Vec<(VertexId, u64)>> {
        let view = mc.collected();
        let deposits = view.bucket_deposits(b).map(|d| pairs(&d));
        deposits.filter(|d| !d.is_empty()).collect()
    }

    /// Bucket `b`'s runs in the collected view as `(dst, payloads)`,
    /// deposit by deposit.
    fn runs(mc: &mut MessageCollector<u64>, b: usize) -> Vec<Vec<(VertexId, Vec<u64>)>> {
        let view = mc.collected();
        let runs = view.bucket_deposits(b).map(|d| {
            let run = |(i, run): (usize, &[u64])| ((d.base + i) as VertexId, run.to_vec());
            d.runs().map(run).collect::<Vec<_>>()
        });
        runs.filter(|d| !d.is_empty()).collect()
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
        // The queue is one bucket.
        assert_eq!(bucket_shape(Transport::SingleQueue, 8, 1000), (10, 1));
    }

    #[test]
    fn outbox_mode_keeps_lanes_separate() {
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::PerThreadOutbox, 3, 10);
        mc.deposit_from(0, 0, &mut vec![(1, 10)]);
        mc.deposit_from(2, 4, &mut vec![(2, 20), (3, 30)]);
        assert_eq!(mc.total(), 3);
        let batches = batches(&mut mc);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 1);
        assert_eq!(batches[1].len(), 0);
        assert_eq!(batches[2].len(), 2);
    }

    #[test]
    fn queue_mode_funnels_everything() {
        let mut mc: MessageCollector<u64> = MessageCollector::new(Transport::SingleQueue, 8, 10);
        mc.deposit_from(0, 0, &mut vec![(1, 10)]);
        mc.deposit_from(5, 3, &mut vec![(2, 20)]);
        let batches = batches(&mut mc);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2);
    }

    #[test]
    fn empty_deposits_are_free() {
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::PerThreadOutbox, 2, 10);
        mc.deposit_from(1, 0, &mut vec![]);
        assert_eq!(mc.total(), 0);
        assert_eq!(mc.collected().bucket_deposits(0).count(), 0);
    }

    #[test]
    fn deposits_partition_by_destination_range() {
        // 1000 vertices over 2 workers: shift 7, eight buckets of 128
        // vertices, the last one cut at 1000.
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::PerThreadOutbox, 2, 1000);
        mc.deposit_from(0, 0, &mut vec![(1, 10), (700, 70), (100, 40)]);
        mc.deposit_from(1, 8, &mut vec![(640, 50)]);
        assert_eq!(mc.total(), 4);
        let view = mc.collected();
        assert_eq!(view.num_buckets(), 8);
        assert_eq!(view.bucket_range(0), 0..128);
        assert_eq!(view.bucket_range(7), 896..1000);
        assert_eq!(deposits(&mut mc, 0), vec![vec![(1, 10), (100, 40)]]);
        assert_eq!(deposits(&mut mc, 5), vec![vec![(700, 70)], vec![(640, 50)]]);
    }

    #[test]
    fn deposits_are_walked_in_chunk_order_not_arrival_order() {
        // Worker 1 claimed the earlier chunks but deposits between worker
        // 0's, its second chunk in two parts; the single queue sees the
        // same arrivals through its lock.
        for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
            let mut mc: MessageCollector<u64> = MessageCollector::new(transport, 2, 100);
            mc.deposit_from(0, 32, &mut vec![(7, 3), (70, 30)]);
            mc.deposit_from(1, 0, &mut vec![(7, 1)]);
            mc.deposit_from(1, 16, &mut vec![(7, 2)]);
            mc.deposit_from(0, 48, &mut vec![(7, 4)]);
            mc.deposit_from(1, 16, &mut vec![(7, 22)]);
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
    fn an_empty_run_ships_nothing() {
        for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
            let mut mc: MessageCollector<u64> = MessageCollector::new(transport, 2, 10);
            let mut outbox = Outbox::default();
            outbox.push_run(3, &[]);
            assert_eq!(outbox.runs.len(), 0, "{transport:?}");
            mc.deposit(0, 0, &mut outbox);
            assert_eq!(mc.total(), 0, "{transport:?}");
            assert_eq!(mc.bytes_deposited(), 0, "{transport:?}");
            assert_eq!(mc.collected().bucket_deposits(0).count(), 0);
        }
    }

    #[test]
    fn runs_travel_with_bucket_local_headers_beside_the_pairs() {
        // 1000 vertices over 2 workers: eight buckets of 128 vertices.
        let mut mc: MessageCollector<u64> =
            MessageCollector::new(Transport::PerThreadOutbox, 2, 1000);
        let mut outbox = Outbox::default();
        outbox.pairs.push((700, 70));
        outbox.push_run(700, &[1, 2, 3]);
        outbox.push_run(5, &[9]);
        mc.deposit(1, 4, &mut outbox);
        assert_eq!(outbox.messages(), 0, "the deposit drains the outbox");
        assert_eq!(mc.total(), 5);
        // One 16-byte pair (a 4-byte destination padded to the 8-byte
        // message), two 8-byte headers, four 8-byte payloads.
        assert_eq!(mc.bytes_deposited(), 16 + 2 * 8 + 4 * 8);
        let view = mc.collected();
        let lane_1_bucket_5 = view.batch(8 + 5);
        assert_eq!(lane_1_bucket_5.base, 640);
        assert_eq!(lane_1_bucket_5.runs, &[(60, 3)]);
        assert_eq!(lane_1_bucket_5.messages(), 4);
        assert!(!view.bucket_has_runs(1));
        assert!(view.bucket_has_runs(5));
        assert_eq!(deposits(&mut mc, 5), vec![vec![(700, 70)]]);
        assert_eq!(runs(&mut mc, 5), vec![vec![(700, vec![1, 2, 3])]]);
        assert_eq!(runs(&mut mc, 0), vec![vec![(5, vec![9])]]);
    }

    #[test]
    fn runs_are_walked_in_chunk_order_like_pairs() {
        for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
            let mut mc: MessageCollector<u64> = MessageCollector::new(transport, 2, 100);
            let deposit = |mc: &MessageCollector<u64>, worker, start, run: &[u64]| {
                let mut outbox = Outbox::default();
                outbox.push_run(7, run);
                mc.deposit(worker, start, &mut outbox);
            };
            deposit(&mc, 0, 32, &[3]);
            deposit(&mc, 1, 0, &[1, 1]);
            deposit(&mc, 1, 16, &[2]);
            let got: Vec<_> = runs(&mut mc, 0).into_iter().flatten().collect();
            let want = vec![(7, vec![1, 1]), (7, vec![2]), (7, vec![3])];
            assert_eq!(got, want, "{transport:?}");
        }
    }

    #[test]
    fn total_is_lock_free_and_matches_contents() {
        // `total` is the deposited count, and agrees with the collected
        // contents, for both transports (it is maintained incrementally,
        // not by locking).
        for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
            let mut mc: MessageCollector<u64> = MessageCollector::new(transport, 4, 100);
            for w in 0..4 {
                let mut batch = (0..25).map(|i| ((i * 4 + w as u64) % 100, i)).collect();
                mc.deposit_from(w, w * 25, &mut batch);
            }
            assert_eq!(mc.total(), 100, "{transport:?}");
            let stored: usize = batches(&mut mc).iter().map(|b| b.len()).sum();
            assert_eq!(stored, 100, "{transport:?}");
        }
    }

    #[test]
    fn deposit_from_drains_but_keeps_capacity() {
        let mc: MessageCollector<u64> = MessageCollector::new(Transport::PerThreadOutbox, 2, 10);
        let mut outbox: Vec<(VertexId, u64)> = Vec::with_capacity(64);
        outbox.extend([(1, 10), (7, 70), (1, 3)]);
        let cap = outbox.capacity();
        mc.deposit_from(0, 0, &mut outbox);
        assert!(outbox.is_empty());
        assert_eq!(outbox.capacity(), cap);
        // Duplicate destinations ship as they are: combiners fold at the
        // receiver.
        assert_eq!(mc.total(), 3);
    }

    #[test]
    fn reset_clears_contents_and_keeps_shape() {
        for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
            let mut mc: MessageCollector<u64> = MessageCollector::new(transport, 2, 10);
            mc.deposit_from(0, 0, &mut vec![(1, 10), (7, 70)]);
            mc.deposit_from(1, 2, &mut vec![(3, 30)]);
            assert_eq!(mc.total(), 3, "{transport:?}");
            mc.reset();
            assert_eq!(mc.total(), 0, "{transport:?}");
            assert_eq!(mc.collected().bucket_deposits(0).count(), 0);
            // A fresh deposit after reset behaves like the first one.
            mc.deposit_from(0, 0, &mut vec![(1, 4), (1, 2)]);
            assert_eq!(mc.total(), 2, "{transport:?}");
            let stored: usize = batches(&mut mc).iter().map(|b| b.len()).sum();
            assert_eq!(stored, 2, "{transport:?}");
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
        assert_eq!(a.atomics, 1000);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.barriers, 2);
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
