//! Dynamically chunked parallel loops.
//!
//! The XMT compiler turns `for (i = 0; i < n; i++)` loops into
//! self-scheduled parallel loops where hardware streams grab iterations
//! from a shared trip counter.  We reproduce that with an atomic cursor:
//! each worker repeatedly claims a chunk of the index range with
//! `fetch_add` and executes the body for every index in the chunk.  This
//! gives the same dynamic load balance the paper relies on for skewed
//! degree distributions.
//!
//! The cursor is also what makes the pool's contract enough: the calling
//! thread claims chunks as worker 0 from the first instruction, helpers
//! claim from the same cursor if and when they join, and whoever is
//! there drains the range — a loop is complete when its caller finds the
//! cursor past the end and the helpers that joined have left, however
//! many that was.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool::{global, Pool};

/// Pick a chunk size that amortizes the `fetch_add` while still giving
/// each worker many chunks for load balance on skewed work.
pub fn default_chunk(n: usize, workers: usize) -> usize {
    let target = n / (workers.max(1) * 16);
    target.clamp(1, 4096)
}

/// Parallel `for i in start..end { body(i) }` on the global pool.
pub fn parallel_for<F>(start: usize, end: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_on(global(), start, end, body)
}

/// Parallel loop handing each worker whole chunks: `body(worker, lo..hi)`.
///
/// Useful when the body wants to keep per-chunk scratch state or when
/// per-index closure dispatch would dominate.
pub fn parallel_for_chunked<F>(start: usize, end: usize, chunk: usize, body: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    parallel_for_chunked_on(global(), start, end, chunk, body)
}

/// [`parallel_for`] on an explicit pool.
pub fn parallel_for_on<F>(pool: &Pool, start: usize, end: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if start >= end {
        return;
    }
    let n = end - start;
    let chunk = default_chunk(n, pool.num_workers());
    parallel_for_chunked_on(pool, start, end, chunk, |_, range| {
        for i in range {
            body(i);
        }
    });
}

/// [`parallel_for_chunked`] on an explicit pool.
pub fn parallel_for_chunked_on<F>(pool: &Pool, start: usize, end: usize, chunk: usize, body: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    if start >= end {
        return;
    }
    let chunk = chunk.max(1);
    let n = end - start;
    // One chunk: nothing to share, skip the pool.
    if n <= chunk {
        body(0, start..end);
        return;
    }
    let cursor = AtomicUsize::new(start);
    pool.run(|worker| loop {
        // Relaxed: the cursor only partitions the index range — each
        // claim is an independent RMW and the chunks carry no payload;
        // results written by `body` are published by the pool's join.
        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
        if lo >= end {
            break;
        }
        let hi = (lo + chunk).min(end);
        body(worker, lo..hi);
    });
}

/// Guided-schedule parallel loop on an explicit pool: workers claim
/// chunks whose size decays with the remaining work.
///
/// Early claims hand out large chunks (low cursor contention), late
/// claims shrink toward `min_chunk` so stragglers on skewed work (RMAT
/// hub vertices) can be back-filled by idle workers.  This is the
/// classic OpenMP `schedule(guided)` shape: each claim takes
/// `remaining / (2 * workers)`, floored at `min_chunk`.
pub fn parallel_for_guided_on<F>(pool: &Pool, start: usize, end: usize, min_chunk: usize, body: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    if start >= end {
        return;
    }
    let min_chunk = min_chunk.max(1);
    let n = end - start;
    // One chunk: nothing to share, skip the pool.
    if n <= min_chunk {
        body(0, start..end);
        return;
    }
    let workers = pool.num_workers();
    let cursor = AtomicUsize::new(start);
    pool.run(|worker| {
        // Relaxed everywhere on the cursor: it only partitions the
        // index range — each successful CAS claims a disjoint chunk and
        // results written by `body` are published by the pool's join.
        let mut lo = cursor.load(Ordering::Relaxed);
        while lo < end {
            let remaining = end - lo;
            let chunk = (remaining / (2 * workers)).max(min_chunk);
            let hi = lo.saturating_add(chunk).min(end);
            // Relaxed (see above): the CAS carries no payload.
            match cursor.compare_exchange_weak(lo, hi, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    body(worker, lo..hi);
                    // Relaxed (see above): re-read the shared cursor.
                    lo = cursor.load(Ordering::Relaxed);
                }
                Err(cur) => lo = cur,
            }
        }
    });
}

/// Fill `out[i] = f(i)` in parallel.
pub fn parallel_fill<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let base = out.as_mut_ptr() as usize;
    let len = out.len();
    parallel_for(0, len, move |i| {
        // SAFETY: each index is claimed exactly once, so writes are
        // disjoint; `out` is exclusively borrowed for the duration.
        unsafe {
            let p = (base as *mut T).add(i);
            p.write(f(i));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(0, n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn respects_range_offsets() {
        let total = AtomicU64::new(0);
        parallel_for(100, 200, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        let expect: u64 = (100..200u64).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn empty_and_reversed_ranges_are_noops() {
        parallel_for(5, 5, |_| panic!("must not run"));
        parallel_for(9, 3, |_| panic!("must not run"));
    }

    #[test]
    fn chunked_ranges_partition_the_space() {
        let n = 5000;
        let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_chunked(0, n, 7, |_, r| {
            for i in r {
                seen[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(seen.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn guided_ranges_partition_the_space() {
        let n = 5000;
        let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_guided_on(global(), 0, n, 4, |_, r| {
            for i in r {
                seen[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(seen.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn guided_respects_offsets_and_empty_ranges() {
        let total = AtomicU64::new(0);
        parallel_for_guided_on(global(), 100, 200, 1, |_, r| {
            for i in r {
                total.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        let expect: u64 = (100..200u64).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
        parallel_for_guided_on(global(), 5, 5, 1, |_, _| panic!("must not run"));
        parallel_for_guided_on(global(), 9, 3, 1, |_, _| panic!("must not run"));
    }

    #[test]
    fn guided_worker_ids_stay_in_bounds() {
        let workers = global().num_workers() as u64;
        let max_seen = AtomicU64::new(0);
        parallel_for_guided_on(global(), 0, 10_000, 8, |worker, _| {
            max_seen.fetch_max(worker as u64, Ordering::Relaxed);
        });
        assert!(max_seen.load(Ordering::Relaxed) < workers.max(1));
    }

    #[test]
    fn parallel_fill_writes_every_slot() {
        let mut v = vec![0usize; 4321];
        parallel_fill(&mut v, |i| i * 2);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }

    #[test]
    fn default_chunk_is_sane() {
        assert_eq!(default_chunk(0, 8), 1);
        assert_eq!(default_chunk(10, 8), 1);
        assert!(default_chunk(1 << 30, 8) <= 4096);
    }
}
