//! Parallel reductions.
//!
//! Each dynamically claimed chunk is folded into a private accumulator;
//! the per-chunk results are merged in index order at the end.  This is the
//! software analogue of the XMT compiler's reduction recognition (which
//! would otherwise fall back to a fetch-and-add hotspot).

use parking_lot::Mutex;

use crate::pfor::{default_chunk, parallel_for_chunked_on};
use crate::pool::global;

/// Generic parallel fold over `start..end`.
///
/// `identity` produces a fresh accumulator, `fold` consumes one index, and
/// `merge` combines two accumulators; `merge` must be associative.  Each
/// chunk folds its indices in order and the chunk results are merged in
/// index order, whichever worker finished first.  Chunk boundaries follow
/// the pool size, so at a fixed pool size a floating-point fold returns
/// the same bits on every call; across pool sizes it may not.
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
    let chunk = default_chunk(end - start, pool.num_workers());
    let partials = Mutex::new(Vec::with_capacity((end - start).div_ceil(chunk)));
    // The mutex is taken once per chunk; the hot path is the per-index
    // fold.  Each partial is tagged with its chunk's first index.
    parallel_for_chunked_on(pool, start, end, chunk, |_, range| {
        let lo = range.start;
        let mut acc = identity();
        for i in range {
            acc = fold(acc, i);
        }
        partials.lock().push((lo, acc));
    });
    let mut parts = partials.into_inner();
    parts.sort_unstable_by_key(|&(lo, _)| lo);
    parts
        .into_iter()
        .fold(identity(), |acc, (_, p)| merge(acc, p))
}

/// Sum `f(i)` for `i` in `start..end`.
pub fn sum_u64<F>(start: usize, end: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    reduce(start, end, || 0u64, |acc, i| acc + f(i), |a, b| a + b)
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
    fn float_sum_has_the_same_bits_on_every_call() {
        // Mixed magnitudes make the f64 sum depend on its merge order.
        let xs: Vec<f64> = (0..100_000u64)
            .map(|i| (i % 7) as f64 * 10f64.powi((i % 13) as i32 - 6) / (i + 1) as f64)
            .collect();
        let sum = || reduce(0, xs.len(), || 0.0f64, |acc, i| acc + xs[i], |a, b| a + b);
        let first = sum().to_bits();
        for _ in 0..49 {
            assert_eq!(sum().to_bits(), first);
        }
    }
}
