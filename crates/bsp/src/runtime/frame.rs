//! Reusable storage for the superstep loop, and the spare frames kept
//! for runs that bring none.

use std::any::Any;

use parking_lot::Mutex;

use xmt_graph::VertexId;
use xmt_par::{MarkScratch, WorkerScratch};

use crate::inbox::Inbox;
use crate::transport::{capacity_bytes, Broadcasts, MessageCollector, Outbox, Transport};

/// The most buffer capacity, in bytes, that [`SPARE_FRAMES`] keeps in
/// all: room for a triangle count's frame on the benchmark's scale-13
/// graph (85–100 MB of capacity, its lanes grown to whichever share of
/// the candidates each worker happened to deposit) beside the 1–10 MB of
/// each broadcast program's frame at scale 15, with room to spare for
/// that growth.  A frame that does not fit is dropped, as every frame
/// was before.
const SPARE_FRAME_BYTES: usize = 256 << 20;

/// Frames of finished runs that were given none
/// ([`RunOptions::frame`](super::RunOptions::frame) `None`), at most one
/// per `(State, Message)` type, for the next such run to start on.  A
/// fresh frame's large buffers come from the allocator page by page and
/// fault in as they fill; whether a run instead reuses pages an earlier
/// run freed depended on what that earlier run allocated (EXPERIMENTS.md,
/// "Broadcasts once per sender").  A leaf lock, held only to take or
/// put back a frame.
static SPARE_FRAMES: Mutex<Vec<(usize, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());

/// A spare frame of this type, or a fresh one.
pub(super) fn take_spare<S, M>() -> SuperstepFrame<S, M>
where
    S: Send + Sync + 'static,
    M: Copy + Send + Sync + 'static,
{
    let found = {
        let mut spare = SPARE_FRAMES.lock();
        let at = spare
            .iter()
            .position(|(_, f)| f.is::<SuperstepFrame<S, M>>());
        at.map(|i| spare.swap_remove(i).1)
    };
    match found.map(|f| f.downcast::<SuperstepFrame<S, M>>()) {
        Some(Ok(frame)) => *frame,
        _ => SuperstepFrame::new(),
    }
}

/// Keep `frame` for the next run that brings none, if no frame of its
/// type is kept already and it fits the byte budget; drop it otherwise.
pub(super) fn keep_spare<S, M>(mut frame: SuperstepFrame<S, M>)
where
    S: Send + Sync + 'static,
    M: Copy + Send + Sync + 'static,
{
    let bytes = frame.capacity_bytes();
    let mut spare = SPARE_FRAMES.lock();
    let held: usize = spare.iter().map(|&(b, _)| b).sum();
    let kept = spare.iter().any(|(_, f)| f.is::<SuperstepFrame<S, M>>());
    if !kept && held + bytes <= SPARE_FRAME_BYTES {
        spare.push((bytes, Box::new(frame)));
    }
}

/// Reusable storage for the superstep loop: the message collector, the
/// double-buffered inbox pair, the pull-mode state snapshot, the active
/// lists and the per-worker scratch pools all live here and are cleared
/// (capacity retained) between supersteps — and between runs — instead
/// of reallocated.
///
/// One-shot callers never see a frame ([`run`](super::run) makes a
/// throwaway one when [`RunOptions::frame`](super::RunOptions::frame) is
/// `None`); a caller that runs many computations — a benchmark loop, a
/// job scheduler resuming checkpoint slices — holds a frame and passes
/// it in so every run after the first deposits into warm buffers.  In
/// the steady state (superstep ≥ 1 with traffic at its high-water mark)
/// a superstep performs **zero** heap allocations;
/// `crates/bench/tests/zero_alloc.rs` enforces this with a counting
/// allocator.
///
/// The frame is pure scratch: it never carries messages or results
/// across runs (checkpoint state travels in
/// [`ResumePoint`](super::ResumePoint)), so reusing one frame across
/// unrelated graphs, programs of the same type, or configs is always
/// correct — `prepare` reshapes whatever mismatches.
pub struct SuperstepFrame<S, M> {
    /// Worker count the scratch pools are shaped for.
    workers: usize,
    /// Persistent transport storage, `reset()` each superstep.
    pub(super) collector: MessageCollector<M>,
    /// Neighbor broadcasts recorded once per sender (runs that record
    /// them only; sized at run start, its sender bits cleared each
    /// superstep).
    pub(super) broadcasts: Broadcasts<M>,
    /// The live inbox: messages delivered to the current superstep.
    pub(super) inbox: Inbox<M>,
    /// The spare inbox: Phase C rebuilds it in place from the collected
    /// messages, then swaps it with `inbox` at the boundary.
    pub(super) spare: Inbox<M>,
    /// Retained pull-snapshot target (`clone_from` instead of `clone`).
    pub(super) snapshot: Vec<S>,
    /// Settled-vertex bitmap for bottom-up pull supersteps (one bit per
    /// vertex), rebuilt from the states at the start of each bottom-up
    /// superstep; capacity retained across supersteps and runs.
    pub(super) dense_visited: Vec<u64>,
    /// The current superstep's active list.
    pub(super) active: Vec<VertexId>,
    /// The next superstep's active list (worklist strategy); swaps with
    /// `active` at the boundary.
    pub(super) next_active: Vec<VertexId>,
    /// Each active vertex's `f64` aggregate contribution, by position in
    /// `active`: summed in that order after the compute join, so the
    /// total does not depend on how the list was chunked.
    pub(super) agg_f64: Vec<f64>,
    /// Per-worker outbox scratch for the compute phase.
    pub(super) outbox: WorkerScratch<Outbox<M>>,
    /// Per-worker awake-list scratch (worklist strategy).
    pub(super) awake: WorkerScratch<Vec<VertexId>>,
    /// Per-worker bucket-cursor scratch for the uncombined inbox rebuild.
    pub(super) bucket_cursors: WorkerScratch<Vec<u64>>,
    /// Per-worker mark array over the run's vertices, lent to `compute`
    /// through [`Context::marks`](crate::program::Context::marks).
    pub(super) marks: WorkerScratch<MarkScratch>,
}

impl<S, M: Copy + Send + Sync> SuperstepFrame<S, M> {
    /// A fresh frame; buffers grow on first use and are then recycled.
    pub fn new() -> Self {
        SuperstepFrame {
            workers: 1,
            collector: MessageCollector::new(Transport::PerThreadOutbox, 1, 0),
            broadcasts: Broadcasts::new(),
            inbox: Inbox::new(),
            spare: Inbox::new(),
            snapshot: Vec::new(),
            dense_visited: Vec::new(),
            active: Vec::new(),
            next_active: Vec::new(),
            agg_f64: Vec::new(),
            outbox: WorkerScratch::new(1),
            awake: WorkerScratch::new(1),
            bucket_cursors: WorkerScratch::new(1),
            marks: WorkerScratch::new(1),
        }
    }

    /// Reshape for a run over `n` vertices with `workers` workers that
    /// records broadcasts or not; a frame whose shape already matches
    /// keeps all warm storage.
    pub(super) fn prepare(&mut self, n: usize, workers: usize, transport: Transport, record: bool) {
        let workers = workers.max(1);
        if self.collector.transport() != transport
            || self.collector.workers() != workers
            || self.collector.num_vertices() != n
        {
            self.collector = MessageCollector::new(transport, workers, n);
        }
        if self.workers != workers {
            self.workers = workers;
            self.outbox = WorkerScratch::new(workers);
            self.awake = WorkerScratch::new(workers);
            self.bucket_cursors = WorkerScratch::new(workers);
            self.marks = WorkerScratch::new(workers);
        }
        // Pages of a mark array no program marks are never touched; a
        // window a failed run left open is cleared here.
        for marks in self.marks.iter_mut() {
            marks.ensure(n);
        }
        // The live/spare inboxes serve alternating supersteps, so each
        // buffer's high-water mark tracks only its own parity class; a
        // run with an odd superstep count leaves the pair role-swapped,
        // and the next run's peak superstep would land on the smaller
        // buffer — one mid-run growth realloc.  Equalize here, at run
        // start, so steady state stays allocation-free either way.
        let cap = self
            .inbox
            .message_capacity()
            .max(self.spare.message_capacity());
        self.inbox.reserve_messages(cap);
        self.spare.reserve_messages(cap);
        // A run that records nothing leaves the record unallocated.
        if record {
            self.broadcasts.reset(n);
        }
        // Scratch content never survives into a run's results; only
        // capacity is carried over.
        self.active.clear();
        self.next_active.clear();
    }

    /// Bytes of buffer capacity the frame holds.
    fn capacity_bytes(&mut self) -> usize {
        let mut bytes = self.collector.capacity_bytes()
            + self.broadcasts.capacity_bytes()
            + self.inbox.capacity_bytes()
            + self.spare.capacity_bytes()
            + capacity_bytes(&self.snapshot)
            + capacity_bytes(&self.dense_visited)
            + capacity_bytes(&self.active)
            + capacity_bytes(&self.next_active)
            + capacity_bytes(&self.agg_f64);
        bytes += self
            .outbox
            .iter_mut()
            .map(|o| o.capacity_bytes())
            .sum::<usize>();
        bytes += self
            .awake
            .iter_mut()
            .map(|a| capacity_bytes(a))
            .sum::<usize>();
        bytes += self
            .bucket_cursors
            .iter_mut()
            .map(|c| capacity_bytes(c))
            .sum::<usize>();
        // A mark array holds a byte per vertex of the largest graph it
        // was ensured for, `active`'s capacity at least that graph's
        // vertex count.
        bytes + self.workers * self.active.capacity()
    }
}

impl<S, M: Copy + Send + Sync> Default for SuperstepFrame<S, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S, M> std::fmt::Debug for SuperstepFrame<S, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperstepFrame")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// Whether vertex `v`'s bit is set in a one-bit-per-vertex bitmap (the
/// frame's `dense_visited`).
pub(super) fn bit(bits: &[u64], v: VertexId) -> bool {
    bits[(v >> 6) as usize] >> (v & 63) & 1 == 1
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use super::*;

    /// The byte range each slot of `scratch` occupies.
    fn spans<T>(scratch: &mut WorkerScratch<T>) -> Vec<Range<usize>> {
        let addr = |slot: &T| slot as *const T as usize;
        let slots = scratch.as_slice().iter();
        slots
            .map(|s| addr(s)..addr(s) + std::mem::size_of::<T>())
            .collect()
    }

    #[test]
    fn per_worker_slots_sit_on_disjoint_cache_lines() {
        for workers in [2, 4] {
            let mut frame: SuperstepFrame<u64, u64> = SuperstepFrame::new();
            frame.prepare(1000, workers, Transport::PerThreadOutbox, true);
            let mut all = spans(&mut frame.outbox);
            all.extend(spans(&mut frame.awake));
            all.extend(spans(&mut frame.bucket_cursors));
            all.extend(spans(&mut frame.marks));
            all.extend(frame.collector.lane_spans());
            assert_eq!(all.len(), 5 * workers);
            let lines: Vec<_> = all
                .iter()
                .map(|s| s.start / 64..=(s.end - 1) / 64)
                .collect();
            for (i, a) in lines.iter().enumerate() {
                for b in &lines[i + 1..] {
                    assert!(
                        a.end() < b.start() || b.end() < a.start(),
                        "{workers} workers: lines {a:?} and {b:?} overlap"
                    );
                }
            }
        }
    }
}
