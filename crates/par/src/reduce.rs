//! Parallel reductions.
//!
//! Each worker folds its dynamically claimed chunks into a private
//! accumulator; the per-worker results are merged at the end.  This is the
//! software analogue of the XMT compiler's reduction recognition (which
//! would otherwise fall back to a fetch-and-add hotspot).

use parking_lot::Mutex;

use crate::pfor::{default_chunk, parallel_for_chunked_on};
use crate::pool::global;

/// Generic parallel fold over `start..end`.
///
/// `identity` produces a fresh accumulator, `fold` consumes one index, and
/// `merge` combines two accumulators.  `merge` must be associative;
/// chunk-to-worker assignment is nondeterministic, so for exact results
/// with floating point prefer [`reduce_commutative`] semantics (`merge`
/// commutative) or integer accumulators.
pub fn reduce<T, Id, Fold, Merge>(
    start: usize,
    end: usize,
    identity: Id,
    fold: Fold,
    merge: Merge,
) -> T
where
    T: Send,
    Id: Fn() -> T + Sync,
    Fold: Fn(T, usize) -> T + Sync,
    Merge: Fn(T, T) -> T + Sync,
{
    if start >= end {
        return identity();
    }
    let pool = global();
    let partials: Mutex<Vec<T>> = Mutex::new(Vec::with_capacity(pool.num_workers()));
    let chunk = default_chunk(end - start, pool.num_workers());
    // Worker-local accumulators, one per claimed chunk sequence, are kept
    // in a scratch slot guarded by a mutex only at chunk granularity; the
    // hot path is the per-index fold.
    parallel_for_chunked_on(pool, start, end, chunk, |_, range| {
        let mut acc = identity();
        for i in range {
            acc = fold(acc, i);
        }
        partials.lock().push(acc);
    });
    let mut parts = partials.into_inner();
    let mut acc = identity();
    while let Some(p) = parts.pop() {
        acc = merge(acc, p);
    }
    acc
}

/// Parallel reduction where `merge` is commutative and associative.
///
/// Currently an alias for [`reduce`]; kept separate so call sites document
/// their algebraic requirement.
pub fn reduce_commutative<T, Id, Fold, Merge>(
    start: usize,
    end: usize,
    identity: Id,
    fold: Fold,
    merge: Merge,
) -> T
where
    T: Send,
    Id: Fn() -> T + Sync,
    Fold: Fn(T, usize) -> T + Sync,
    Merge: Fn(T, T) -> T + Sync,
{
    reduce(start, end, identity, fold, merge)
}

/// Sum `f(i)` for `i` in `start..end`.
pub fn sum_u64<F>(start: usize, end: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    reduce_commutative(start, end, || 0u64, |acc, i| acc + f(i), |a, b| a + b)
}

/// Count indices for which `pred` holds.
pub fn count<F>(start: usize, end: usize, pred: F) -> usize
where
    F: Fn(usize) -> bool + Sync,
{
    sum_u64(start, end, |i| pred(i) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_closed_form() {
        let n = 100_000usize;
        let s = sum_u64(0, n, |i| i as u64);
        assert_eq!(s, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn empty_range_yields_identity() {
        assert_eq!(sum_u64(10, 10, |_| 1), 0);
    }

    #[test]
    fn count_counts() {
        assert_eq!(count(0, 1000, |i| i % 3 == 0), 334);
    }
}
