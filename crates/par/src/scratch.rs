//! Per-worker scratch storage recycled across parallel loops.
//!
//! The BSP superstep loop hands each worker a private outbox and
//! awake-list every superstep.  Allocating those inside the loop body
//! puts malloc traffic on the hot path; [`WorkerScratch`] keeps one slot
//! per worker id alive across supersteps so the buffers only ever grow
//! to their high-water mark and are then reused.
//!
//! The soundness contract mirrors [`parallel_for_chunked`]'s worker-id
//! guarantee: within one parallel region — one `parallel_for*` call — at
//! most one thread runs under any given worker id.  The calling thread
//! is worker 0; helper `k` of the pool is the only thread that ever runs
//! as worker `k`, and it joins at most one region at a time; a region
//! that finds the pool busy, or is too small to fork, runs wholly on its
//! caller as worker 0.  [`WorkerScratch::get`] leans on exactly that to
//! give each worker `&mut` access to its own slot through a shared
//! reference.  A region is the unit: a loop nested in a loop body (or
//! started by another thread) is a region of its own whose worker 0 is a
//! different thread, so a scratch must not be shared between a region
//! and one nested in it or running beside it.
//!
//! [`MarkScratch`], an epoch-stamped mark array over vertex ids, is the
//! slot type both engines put in such a pool.
//!
//! [`parallel_for_chunked`]: crate::pfor::parallel_for_chunked

use std::cell::UnsafeCell;
use std::fmt;

/// One recyclable scratch value per worker id.
///
/// Obtain per-worker `&mut` access inside a parallel region with the
/// unsafe [`get`](Self::get) (one thread per worker id), and whole-pool
/// access between regions with the safe [`as_mut_slice`](Self::as_mut_slice).
pub struct WorkerScratch<T> {
    slots: Vec<UnsafeCell<T>>,
}

// SAFETY: `WorkerScratch` hands out `&mut T` only through `get`, whose
// contract (one live caller per worker id, callers use distinct ids)
// makes the slots disjoint across threads, and through `&mut self`
// methods, which exclude all `get` callers by Rust's borrow rules.
unsafe impl<T: Send> Sync for WorkerScratch<T> {}

impl<T: Default> WorkerScratch<T> {
    /// `workers` default-initialized slots (at least one).
    pub fn new(workers: usize) -> Self {
        WorkerScratch {
            slots: (0..workers.max(1)).map(|_| UnsafeCell::default()).collect(),
        }
    }
}

impl<T> WorkerScratch<T> {
    /// `workers` slots built by `init` (at least one).
    pub fn with(workers: usize, init: impl FnMut() -> T) -> Self {
        let mut init = init;
        WorkerScratch {
            slots: (0..workers.max(1))
                .map(|_| UnsafeCell::new(init()))
                .collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots (never true: `new`/`with` allocate ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Worker `worker`'s private slot.
    ///
    /// # Safety
    /// Within the region where the returned borrow is alive, no other
    /// call to `get` with the same `worker` id may be made (in the body
    /// of one `parallel_for_chunked` call this holds because a region
    /// runs at most one thread per worker id), and no `&mut self` method
    /// may be called concurrently.
    #[expect(clippy::mut_from_ref, reason = "the `# Safety` contract")]
    // SAFETY: the `# Safety` contract above — disjoint `worker` ids and
    // no concurrent `&mut self` — makes the UnsafeCell access unique.
    pub unsafe fn get(&self, worker: usize) -> &mut T {
        debug_assert!(worker < self.slots.len());
        &mut *self.slots[worker].get()
    }

    /// All slots, exclusively (between parallel regions).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: `&mut self` excludes every `get` borrow, so the
        // UnsafeCell contents are uniquely reachable here.
        unsafe {
            std::slice::from_raw_parts_mut(self.slots.as_mut_ptr() as *mut T, self.slots.len())
        }
    }

    /// All slots, shared and read-only (between parallel regions).
    ///
    /// Takes `&mut self` so the borrow checker proves no `get` borrow is
    /// alive, then downgrades.
    pub fn as_slice(&mut self) -> &[T] {
        self.as_mut_slice()
    }

    /// Iterate all slots mutably (between parallel regions).
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.as_mut_slice().iter_mut()
    }
}

impl<T> fmt::Debug for WorkerScratch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerScratch")
            .field("workers", &self.slots.len())
            .finish()
    }
}

/// One worker's epoch-stamped mark array over vertex ids.
///
/// `stamps[w] == epoch` means `w` is marked in the current window;
/// opening the next window bumps `epoch`, which unmarks everything in
/// O(1) — the trick that replaces the `tc.c` exemplar's per-pair clear
/// pass.
#[derive(Default)]
pub struct MarkScratch {
    stamps: Vec<u32>,
    epoch: u32,
}

impl MarkScratch {
    /// Cover ids `0..n` (no-op once sized); call it outside parallel
    /// regions.  A grown array comes zeroed from the allocator, so pages
    /// no mark ever lands on are never touched.
    pub fn ensure(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps = vec![0; n];
            self.epoch = 0;
        }
    }

    /// Open a fresh window with every id of `list` marked in it and
    /// return its stamp.  On `u32` wrap the array is cleared once —
    /// amortized O(1) over four billion windows.  Panics on an id outside
    /// the range [`ensure`](Self::ensure) covered.
    #[inline]
    pub fn mark(&mut self, list: &[u64]) -> u32 {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        for &x in list {
            self.stamps[x as usize] = self.epoch;
        }
        self.epoch
    }

    /// Whether `x` was marked in the window `epoch` names.
    #[inline]
    pub fn is_marked(&self, x: u64, epoch: u32) -> bool {
        self.stamps[x as usize] == epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfor::parallel_for_chunked;

    #[test]
    fn slots_are_private_per_worker() {
        let workers = crate::num_threads();
        let scratch: WorkerScratch<Vec<u64>> = WorkerScratch::new(workers);
        parallel_for_chunked(0, 10_000, 16, |worker, range| {
            // SAFETY: one region, so at most one thread per worker id.
            let slot = unsafe { scratch.get(worker) };
            for i in range {
                slot.push(i as u64);
            }
        });
        let mut scratch = scratch;
        let total: usize = scratch.iter_mut().map(|s| s.len()).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn capacity_survives_reuse() {
        let scratch: WorkerScratch<Vec<u64>> = WorkerScratch::new(4);
        // SAFETY: single-threaded test; no concurrent `get`.
        let slot = unsafe { scratch.get(2) };
        slot.extend(0..1000);
        let cap = slot.capacity();
        slot.clear();
        assert!(cap >= 1000);
        // SAFETY: as above.
        assert_eq!(unsafe { scratch.get(2) }.capacity(), cap);
    }

    #[test]
    fn at_least_one_slot() {
        let s: WorkerScratch<u64> = WorkerScratch::new(0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn epoch_wrap_resets_marks() {
        let mut ms = MarkScratch::default();
        ms.ensure(4);
        ms.epoch = u32::MAX - 1;
        let e1 = ms.mark(&[2]);
        assert_eq!(e1, u32::MAX);
        assert!(ms.is_marked(2, e1));
        // Wrap: the array is cleared so stale stamps can never collide.
        let e2 = ms.mark(&[]);
        assert_eq!(e2, 1);
        assert!(ms.stamps.iter().all(|&s| s == 0));
    }

    #[test]
    fn with_builds_each_slot() {
        let mut k = 0u64;
        let mut s: WorkerScratch<u64> = WorkerScratch::with(3, || {
            k += 1;
            k * 10
        });
        assert_eq!(s.as_slice(), &[10, 20, 30]);
        s.as_mut_slice()[1] = 7;
        assert_eq!(s.as_slice(), &[10, 7, 30]);
    }
}
