//! The executor seam: one handle describing *where* and *how* parallel
//! loops run.
//!
//! There is one runtime per programming model and two ways to cut its
//! loops: fixed static chunking (what every model-charging run uses, so
//! the cost model sees the exact loop shapes the XMT compiler would
//! emit) and guided decaying-chunk scheduling (what the service's BSP
//! engine uses; decaying chunks back-fill skewed RMAT degree
//! distributions), either on the global pool or a caller-owned one.  An
//! [`Executor`] captures that choice as a value so the BSP runtime and
//! the GraphCT kernels can be parameterized over it instead of
//! hard-coding the global pool.  The choice between the two is settled
//! (ROADMAP.md, item 5): guided stays only because the benchmark calls
//! `Executor::guided()`, and goes when that caller moves off it.
//!
//! `Executor::fixed()` is byte-for-byte the behavior of the free
//! functions [`crate::parallel_for`] / [`crate::parallel_for_chunked`]:
//! same pool, same chunking, same claim order — existing callers that
//! migrate onto the seam observe no change.
//!
//! Under either schedule the thread that calls `pfor` is worker 0 of the
//! loop and the pool's helpers join it while chunks remain (see
//! [`crate::pool`]); [`Executor::workers`] is therefore the *most*
//! worker ids a loop can see, not a promise that all of them run.  Size
//! per-worker scratch by it, never wait inside a loop body for another
//! worker id to show up.

use std::ops::Range;
use std::sync::Arc;

use crate::pfor::{default_chunk, parallel_for_chunked_on, parallel_for_guided_on};
use crate::pool::{global, Pool};

/// How an [`Executor`] hands loop iterations to workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Static chunk size claimed with `fetch_add` — the XMT-compiler
    /// shape the simulator's cost model charges for.
    Fixed,
    /// Decaying chunk size (`remaining / (2 * workers)`, floored at the
    /// caller's chunk) — better tail behavior on skewed work.
    Guided,
}

/// A place (pool) plus a policy (schedule) for running parallel loops.
///
/// Cheap to clone; `pool: None` means the process-global pool, so the
/// default executors are `const`-free zero-setup values.
#[derive(Clone)]
pub struct Executor {
    pool: Option<Arc<Pool>>,
    schedule: Schedule,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("schedule", &self.schedule)
            .field("workers", &self.workers())
            .field("pinned_pool", &self.pool.is_some())
            .finish()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::fixed()
    }
}

impl Executor {
    /// Fixed-chunk scheduling on the global pool — identical behavior to
    /// the free [`crate::parallel_for`] family.
    pub fn fixed() -> Self {
        Executor {
            pool: None,
            schedule: Schedule::Fixed,
        }
    }

    /// Guided scheduling on the global pool — what the service's BSP
    /// engine runs on.
    pub fn guided() -> Self {
        Executor {
            pool: None,
            schedule: Schedule::Guided,
        }
    }

    /// Fixed-chunk scheduling on an explicit pool.
    pub fn fixed_on(pool: Arc<Pool>) -> Self {
        Executor {
            pool: Some(pool),
            schedule: Schedule::Fixed,
        }
    }

    /// Guided scheduling on an explicit pool.
    pub fn guided_on(pool: Arc<Pool>) -> Self {
        Executor {
            pool: Some(pool),
            schedule: Schedule::Guided,
        }
    }

    /// The schedule this executor applies to chunked loops.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The pool loops run on (the global pool unless pinned).
    pub fn pool(&self) -> &Pool {
        match &self.pool {
            Some(p) => p,
            None => global(),
        }
    }

    /// Number of workers in this executor's pool: loop bodies see worker
    /// ids in `0..workers()`.
    pub fn workers(&self) -> usize {
        self.pool().num_workers()
    }

    /// Parallel `for i in start..end { body(i) }` on this executor.
    ///
    /// Per-index loops use the default chunk under both schedules: the
    /// closure dispatch already dominates, and keeping the fixed shape
    /// here means `Executor::fixed()` matches [`crate::parallel_for`]
    /// exactly.
    pub fn pfor<F>(&self, start: usize, end: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if start >= end {
            return;
        }
        let chunk = default_chunk(end - start, self.workers());
        self.pfor_chunked(start, end, chunk, |_, range| {
            for i in range {
                body(i);
            }
        });
    }

    /// Chunked parallel loop `body(worker, lo..hi)` on this executor.
    ///
    /// Under [`Schedule::Fixed`] `chunk` is the static claim size; under
    /// [`Schedule::Guided`] it becomes the minimum chunk that the
    /// decaying claims are floored at.
    pub fn pfor_chunked<F>(&self, start: usize, end: usize, chunk: usize, body: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        match self.schedule {
            Schedule::Fixed => parallel_for_chunked_on(self.pool(), start, end, chunk, body),
            Schedule::Guided => parallel_for_guided_on(self.pool(), start, end, chunk, body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn check_covers(exec: &Executor) {
        let n = 4096;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        exec.pfor(0, n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

        let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        exec.pfor_chunked(0, n, 16, |_, r| {
            for i in r {
                seen[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(seen.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn all_executor_flavors_cover_the_range() {
        check_covers(&Executor::fixed());
        check_covers(&Executor::guided());
        let pool = Arc::new(Pool::new(2));
        check_covers(&Executor::fixed_on(Arc::clone(&pool)));
        check_covers(&Executor::guided_on(pool));
    }

    #[test]
    fn explicit_pool_sets_worker_count() {
        let pool = Arc::new(Pool::new(3));
        let exec = Executor::guided_on(pool);
        assert_eq!(exec.workers(), 3);
        assert_eq!(exec.schedule(), Schedule::Guided);
        assert_eq!(Executor::default().schedule(), Schedule::Fixed);
        assert_eq!(Executor::fixed().workers(), global().num_workers());
    }
}
