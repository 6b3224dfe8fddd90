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
//! Each slot is a [`CachePadded`] — 64-byte aligned, rounded up to whole
//! lines — so no cache line holds bytes of two slots.  The XMT has no
//! data caches and never needed this.  A commodity core does: packed
//! back to back, two slots shared a line or not by where the allocator
//! put them, each outbox `len` write was then a coherence miss for the
//! neighbour, and a BSP run fell into a fast or a slow mode by chance
//! (EXPERIMENTS.md, "Per-worker scratch on its own cache line").
//!
//! [`MarkScratch`], a mark array of one byte per vertex id, is the slot
//! type both engines put in such a pool.
//!
//! [`parallel_for_chunked`]: crate::pfor::parallel_for_chunked

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A value aligned to, and padded out to, whole 64-byte cache lines, so
/// no other value shares a line with it.
#[derive(Default, Debug)]
#[repr(align(64))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Pad `value`.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// One recyclable scratch value per worker id, each on its own lines.
///
/// Obtain per-worker `&mut` access inside a parallel region with the
/// unsafe [`get`](Self::get) (one thread per worker id), and whole-pool
/// access between regions with the safe [`as_mut_slice`](Self::as_mut_slice).
pub struct WorkerScratch<T> {
    slots: Vec<UnsafeCell<CachePadded<T>>>,
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
                .map(|_| UnsafeCell::new(CachePadded::new(init())))
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
        &mut (*self.slots[worker].get()).0
    }

    /// All slots, exclusively (between parallel regions).
    pub fn as_mut_slice(&mut self) -> &mut [CachePadded<T>] {
        // SAFETY: `UnsafeCell` is `repr(transparent)`, and `&mut self`
        // excludes every `get` borrow, so the contents are unique here.
        unsafe { std::slice::from_raw_parts_mut(self.slots.as_mut_ptr().cast(), self.slots.len()) }
    }

    /// All slots, shared and read-only (between parallel regions).
    ///
    /// Takes `&mut self` so the borrow checker proves no `get` borrow is
    /// alive, then downgrades.
    pub fn as_slice(&mut self) -> &[CachePadded<T>] {
        self.as_mut_slice()
    }

    /// Iterate all slots mutably (between parallel regions).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|slot| &mut slot.get_mut().0)
    }
}

impl<T> fmt::Debug for WorkerScratch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerScratch")
            .field("workers", &self.slots.len())
            .finish()
    }
}

/// One worker's mark array over vertex ids, one byte per vertex, all
/// zero between windows: [`mark`](Self::mark) opens a window on a list
/// and [`unmark`](Self::unmark) clears the same list (the `tc.c`
/// exemplar's unmark pass).  A window left open, by a caller that
/// unwound in it, is recorded, and [`ensure`](Self::ensure) clears it.
#[derive(Default)]
pub struct MarkScratch {
    marks: Vec<u8>,
    open: bool,
}

impl MarkScratch {
    /// Cover ids `0..n` and close any window left open; call it outside
    /// parallel regions.  A grown array comes zeroed from the allocator,
    /// so pages no mark ever lands on are never touched.
    pub fn ensure(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks = vec![0; n];
        } else if self.open {
            self.marks.fill(0);
        }
        self.open = false;
    }

    /// Open a window with every id of `list` (`u32` or `u64`) marked.
    /// Panics on an id outside the range [`ensure`](Self::ensure) covered.
    #[inline]
    pub fn mark<I: Copy + Into<u64>>(&mut self, list: &[I]) {
        self.open = true;
        for &x in list {
            self.marks[x.into() as usize] = 1;
        }
    }

    /// Whether `x` is marked in the open window.
    #[inline]
    pub fn contains(&self, x: u64) -> bool {
        self.marks[x as usize] != 0
    }

    /// Close the window opened on `list`.
    #[inline]
    pub fn unmark<I: Copy + Into<u64>>(&mut self, list: &[I]) {
        for &x in list {
            self.marks[x.into() as usize] = 0;
        }
        self.open = false;
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
    fn unmark_leaves_every_byte_zero() {
        let mut ms = MarkScratch::default();
        ms.ensure(16);
        let (short, wide) = ([3u32, 7, 3, 15, 7], [0u64, 9, 9, 2]);
        ms.mark(&short);
        assert!([3, 7, 15].iter().all(|&x| ms.contains(x)));
        assert!(!ms.contains(4));
        ms.unmark(&short);
        ms.mark(&wide);
        assert!(ms.contains(9) && !ms.contains(3));
        ms.unmark(&wide);
        assert!(ms.marks.iter().all(|&b| b == 0));
        assert!(!ms.open);
    }

    #[test]
    fn a_window_left_open_is_closed_by_ensure() {
        let mut ms = MarkScratch::default();
        ms.ensure(8);
        ms.mark(&[1u32, 5]);
        ms.ensure(8);
        assert!(ms.marks.iter().all(|&b| b == 0) && !ms.open);
        ms.mark(&[2u64]);
        ms.ensure(32);
        assert_eq!(ms.marks.len(), 32);
        assert!(ms.marks.iter().all(|&b| b == 0) && !ms.open);
    }

    #[test]
    fn with_builds_each_slot() {
        let mut k = 0u64;
        let mut s: WorkerScratch<u64> = WorkerScratch::with(3, || {
            k += 1;
            k * 10
        });
        let values =
            |s: &mut WorkerScratch<u64>| s.as_slice().iter().map(|v| **v).collect::<Vec<_>>();
        assert_eq!(values(&mut s), [10, 20, 30]);
        *s.as_mut_slice()[1] = 7;
        assert_eq!(values(&mut s), [10, 7, 30]);
        assert_eq!(s.iter_mut().map(|v| *v).sum::<u64>(), 47);
    }

    /// Slot layout for `[u8; N]` slots over 1–8 workers: no 64-byte line
    /// holds bytes of two slots, and the pool takes at most one rounded-up
    /// line run per slot.
    fn check_layout<const N: usize>() {
        for workers in 1..=8 {
            let mut s = WorkerScratch::with(workers, || [0u8; N]);
            let slots = s.as_slice();
            let lines: Vec<(usize, usize)> = slots
                .iter()
                .map(|slot| {
                    let addr = &**slot as *const [u8; N] as usize;
                    (addr / 64, (addr + N - 1) / 64)
                })
                .collect();
            for (i, a) in lines.iter().enumerate() {
                for b in &lines[i + 1..] {
                    assert!(
                        a.1 < b.0 || b.1 < a.0,
                        "N={N} workers={workers}: {a:?} {b:?}"
                    );
                }
            }
            let span = (lines[workers - 1].1 + 1 - lines[0].0) * 64;
            let bound = workers * N.div_ceil(64) * 64;
            assert!(
                std::mem::size_of_val(slots) <= bound,
                "N={N} workers={workers}"
            );
            assert!(span <= bound, "N={N} workers={workers}: {span} > {bound}");
        }
    }

    #[test]
    fn slots_never_share_a_cache_line() {
        check_layout::<1>();
        check_layout::<24>();
        check_layout::<48>();
        check_layout::<65>();
        check_layout::<72>();
        check_layout::<128>();
    }
}
