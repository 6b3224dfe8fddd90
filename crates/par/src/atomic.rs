//! `int_fetch_add`-style atomic helpers.
//!
//! GraphCT's XMT kernels lean on two machine primitives: `int_fetch_add`
//! (a combining atomic add at the memory controller) and unconditional
//! atomic writes whose visibility is immediate to all streams.  The label
//! update in Shiloach-Vishkin additionally needs an atomic *minimum*,
//! which on the XMT is expressed with full/empty bits; here we provide it
//! as a CAS loop.

use std::sync::atomic::{AtomicU64, Ordering};

/// Reinterpret an exclusively borrowed `u64` slice as atomics.
///
/// `AtomicU64` has the same size and alignment as `u64`; exclusivity of the
/// input borrow guarantees no non-atomic access races with the returned
/// view.
pub fn as_atomic_u64(data: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: `AtomicU64` is `repr(transparent)` over `u64` (same size
    // and alignment), and the exclusive input borrow outlives the
    // returned shared view, so no non-atomic access can race it.
    unsafe { &*(data as *mut [u64] as *const [AtomicU64]) }
}

/// `int_fetch_add` on a shared counter; returns the previous value.
#[inline]
pub fn fetch_add(counter: &AtomicU64, delta: u64) -> u64 {
    // Relaxed: models XMT int_fetch_add — callers rely only on the
    // RMW's atomicity; results are published by the pool's join barrier.
    counter.fetch_add(delta, Ordering::Relaxed)
}

/// Atomically set `cell = min(cell, value)`.
///
/// Returns `true` when `value` became the new minimum (i.e. the cell
/// changed).  This is the inner operation of the component-label update.
#[inline]
pub fn fetch_min(cell: &AtomicU64, value: u64) -> bool {
    // Relaxed: the label cell is the only data involved (no payload is
    // published through it); kernels read it back after a pool barrier.
    let prev = cell.fetch_min(value, Ordering::Relaxed);
    value < prev
}

/// Atomically set `cell = max(cell, value)`; returns `true` on change.
#[inline]
pub fn fetch_max(cell: &AtomicU64, value: u64) -> bool {
    // Relaxed: same shape as `fetch_min` — RMW atomicity on a single
    // cell, with cross-thread publication left to the pool barrier.
    let prev = cell.fetch_max(value, Ordering::Relaxed);
    value > prev
}

/// Compare-and-swap claim: set `cell` from `empty` to `value` exactly once.
///
/// Returns `true` for the winning claimer.  Used by BFS to mark a vertex
/// discovered (the shared-memory algorithm "only places one copy of each
/// vertex" on the frontier — this is how).
#[inline]
pub fn claim(cell: &AtomicU64, empty: u64, value: u64) -> bool {
    // Relaxed (both orderings): the CAS decides a single winner on one
    // cell; no other memory is released through the claim, and losers
    // read nothing.  Frontier contents are published by the barrier.
    cell.compare_exchange(empty, value, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfor::parallel_for;

    #[test]
    fn fetch_add_is_exact_under_contention() {
        let c = AtomicU64::new(0);
        parallel_for(0, 100_000, |_| {
            fetch_add(&c, 1);
        });
        assert_eq!(c.load(Ordering::Relaxed), 100_000);
    }

    #[test]
    fn fetch_min_converges_to_global_min() {
        let c = AtomicU64::new(u64::MAX);
        parallel_for(0, 10_000, |i| {
            fetch_min(&c, (i as u64 * 2654435761) % 99_991 + 17);
        });
        let expect = (0..10_000u64)
            .map(|i| (i * 2654435761) % 99_991 + 17)
            .min()
            .unwrap();
        assert_eq!(c.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn fetch_min_reports_change() {
        let c = AtomicU64::new(10);
        assert!(fetch_min(&c, 5));
        assert!(!fetch_min(&c, 7));
        assert!(!fetch_min(&c, 5));
        assert_eq!(c.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn fetch_max_reports_change() {
        let c = AtomicU64::new(10);
        assert!(fetch_max(&c, 15));
        assert!(!fetch_max(&c, 7));
        assert_eq!(c.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn claim_admits_exactly_one_winner() {
        let cell = AtomicU64::new(u64::MAX);
        let winners = AtomicU64::new(0);
        parallel_for(0, 1000, |i| {
            if claim(&cell, u64::MAX, i as u64) {
                winners.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
        assert!(cell.load(Ordering::Relaxed) < 1000);
    }

    #[test]
    fn atomic_views_alias_the_slice() {
        let mut data = vec![0u64; 64];
        {
            let view = as_atomic_u64(&mut data);
            parallel_for(0, 64, |i| {
                view[i].store(i as u64 + 1, Ordering::Relaxed);
            });
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }
}
