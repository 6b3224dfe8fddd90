//! The atomic operations GraphCT's XMT kernels use on shared words.
//!
//! The label update in Shiloach-Vishkin needs an atomic *minimum*, which
//! on the XMT is expressed with full/empty bits; here it is a hardware
//! `fetch_min`.  BFS marks a vertex discovered with a one-shot
//! compare-and-swap claim, and the triangle kernel counts through an
//! atomic view of a plain `u64` slice.

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
