//! A counting global allocator for the allocation-regression gate.
//!
//! The zero-allocation claim ("steady-state supersteps perform no heap
//! allocation") is only falsifiable with a counter *under* the
//! allocator, not a profiler over it.  [`CountingAlloc`] wraps the
//! system allocator and bumps one process-global counter on every
//! `alloc`/`alloc_zeroed`/`realloc`; [`total`] reads it.  The type is
//! always compiled so the `zero_alloc` gate test can name it, but the
//! `#[global_allocator]` attribute itself lives in that root behind the
//! `alloc-count` feature — the regular benches keep the stock allocator.
//!
//! [`register`] hands [`total`] to `xmt_trace::set_alloc_counter` so
//! the BSP runtime reports allocs-per-superstep in its trace records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static TOTAL: AtomicU64 = AtomicU64::new(0);
static TRAP: AtomicBool = AtomicBool::new(false);

/// Arm a one-shot diagnostic: the next counted acquisition prints its
/// backtrace to stderr (and disarms itself, so the capture's own
/// allocations pass silently).  For locating the source of a gate
/// failure; no cost while disarmed.
pub fn trap_next() {
    TRAP.store(true, Ordering::SeqCst);
}

fn maybe_trap() {
    if TRAP.swap(false, Ordering::SeqCst) {
        eprintln!(
            "alloc_count: trapped acquisition at:\n{}",
            std::backtrace::Backtrace::force_capture()
        );
    }
}

/// System-allocator wrapper counting every acquisition (frees are not
/// counted: a steady-state superstep performs neither, and acquisition
/// is what regresses when a buffer stops being reused).
pub struct CountingAlloc;

// SAFETY: every operation delegates verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter bump does not touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: counts, then forwards the caller's contract to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: monotonic counter; readers diff snapshots taken on
        // their own thread around code they themselves executed.
        TOTAL.fetch_add(1, Ordering::Relaxed);
        maybe_trap();
        // SAFETY: the caller upholds the `GlobalAlloc` contract for
        // `layout`, which is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: counts, then forwards the caller's contract to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // Relaxed: monotonic counter, as above.
        TOTAL.fetch_add(1, Ordering::Relaxed);
        maybe_trap();
        // SAFETY: contract forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: counts, then forwards the caller's contract to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Relaxed: monotonic counter, as above.  A realloc is an
        // acquisition: growth a reused buffer would have avoided.
        TOTAL.fetch_add(1, Ordering::Relaxed);
        maybe_trap();
        // SAFETY: `ptr`/`layout`/`new_size` come from the caller under
        // the `GlobalAlloc` contract and are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: uncounted passthrough; the contract forwards to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every acquisition
        // above delegates there) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap acquisitions (alloc + alloc_zeroed + realloc) since process
/// start.  Always 0 unless [`CountingAlloc`] is installed as the
/// `#[global_allocator]`.
pub fn total() -> u64 {
    // Relaxed: snapshot of a monotonic counter.
    TOTAL.load(Ordering::Relaxed)
}

/// Register [`total`] as the process allocation counter so traced
/// superstep records carry an allocs-per-superstep column.
pub fn register() {
    xmt_trace::set_alloc_counter(total);
}
