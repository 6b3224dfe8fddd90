//! A caller-runs fork-join pool.
//!
//! Every parallel construct in this crate funnels through [`Pool::run`].
//! A pool of `n` workers is the calling thread plus `n - 1` persistent
//! helper threads: `run(f)` publishes `f`, executes `f(0)` itself at
//! once, and helpers that notice the job while it is still open join in
//! as `f(1)` … `f(n - 1)`.  No thread is handed anything and the caller
//! never sleeps: a loop that drains before a helper wakes costs a few
//! atomic operations.
//!
//! The protocol lives in one state word, `epoch | helpers inside | open`:
//!
//! * **publish** — the caller takes the pool's `busy` flag, writes the
//!   job slot, and opens a new epoch with one `SeqCst` `fetch_add`;
//!   parked helpers are notified only if any are parked.
//! * **enter** — a helper that reads an open epoch it has not entered yet
//!   bumps the inside count with an `Acquire` CAS on that exact value, so
//!   it can enter only while the job is open, at most once per epoch, and
//!   sees the job slot the caller wrote before opening.
//! * **close** — when `f(0)` returns (or unwinds) the caller clears the
//!   open bit and waits, spinning then yielding, for the inside count to
//!   reach zero: only helpers that actually entered are waited for.  The
//!   closure may therefore borrow from the caller's stack.
//!
//! A `run` issued while another is in flight on the same pool — from a
//! second thread, or from a loop nested inside a loop body — finds `busy`
//! taken and runs alone on its caller as worker 0 of its own region.
//! Callers must therefore not rely on any worker other than 0 being
//! invoked; the self-scheduling loops in [`crate::pfor`] do not.
//!
//! A panic in `f(0)` unwinds through `run` after the job is closed and
//! every helper that entered has left; a panic in a helper is caught
//! there and re-raised on the caller at the same point.  Either way the
//! pool is left idle and usable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// State-word layout: bit 0 open, bit 1 shutdown, bits 2..18 the count
/// of helpers inside the open job, bits 18.. the epoch (46 bits: a
/// helper stalled between reading the word and its CAS would need 2^46
/// intervening jobs to be fooled by a wrapped epoch).
const OPEN: u64 = 1;
const SHUTDOWN: u64 = 1 << 1;
const INSIDE_ONE: u64 = 1 << 2;
const EPOCH_SHIFT: u32 = 18;
const EPOCH_ONE: u64 = 1 << EPOCH_SHIFT;
const INSIDE_MASK: u64 = (EPOCH_ONE - 1) & !(OPEN | SHUTDOWN);

/// Iterations a helper (waiting for a job) or a caller (waiting for the
/// helpers inside its closed job) spins before it parks or yields.
/// Picked by measurement, see EXPERIMENTS.md "Caller-runs fork-join".
const SPIN: u32 = 2000;

/// The job a `run` lends to the helpers; lives in the caller's frame.
struct Job<'a> {
    f: &'a (dyn Fn(usize) + Sync),
    /// Set by a helper whose `f(id)` panicked, read by the caller after
    /// every helper has left.
    panicked: AtomicBool,
}

struct Shared {
    state: AtomicU64,
    /// Held by the one `run` that owns the state word and the job slot.
    busy: AtomicBool,
    job: AtomicPtr<Job<'static>>,
    /// Helpers inside `park`'s critical section; lets `run` skip the
    /// lock and the notify when nobody is parked.
    parked: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// Block until shutdown or an open epoch other than `seen`; returns
    /// the state word that said so.
    fn await_job(&self, seen: u64) -> u64 {
        let ready = |s: u64| s & SHUTDOWN != 0 || (s & OPEN != 0 && s >> EPOCH_SHIFT != seen);
        loop {
            for _ in 0..SPIN {
                let s = self.state.load(Ordering::Acquire);
                if ready(s) {
                    return s;
                }
                std::hint::spin_loop();
            }
            // `parked` is raised before the state is re-read and `run`
            // reads it after opening the epoch, all SeqCst: either this
            // load sees the new epoch, or `run` sees `parked > 0` and
            // takes the lock, which it gets only once we are waiting.
            let mut guard = self.park.lock();
            self.parked.fetch_add(1, Ordering::SeqCst);
            let s = self.state.load(Ordering::SeqCst);
            if !ready(s) {
                self.wake.wait(&mut guard);
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
            if ready(s) {
                return s;
            }
        }
    }

    fn helper(&self, id: usize) {
        let mut seen = 0;
        loop {
            let s = self.await_job(seen);
            if s & SHUTDOWN != 0 {
                return;
            }
            // Enter only on the exact open word we read: a job closed or
            // replaced in the meantime changes the word and fails the CAS.
            let inside = s + INSIDE_ONE;
            if self
                .state
                .compare_exchange_weak(s, inside, Ordering::Acquire, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            seen = s >> EPOCH_SHIFT;
            // Relaxed: the slot was written before the SeqCst `fetch_add`
            // that opened this epoch, and the Acquire CAS above read from
            // that store's release sequence (every later write to the
            // word is an RMW).
            let job = self.job.load(Ordering::Relaxed);
            // SAFETY: the inside count we hold keeps the owning `run` in
            // `Closing::drop`, so its frame — the `Job` and the closure
            // it borrows — outlives this use; `job` is not touched after
            // the `fetch_sub` below.
            let job = unsafe { &*job };
            if catch_unwind(AssertUnwindSafe(|| (job.f)(id))).is_err() {
                // Relaxed: published by the Release `fetch_sub` below.
                job.panicked.store(true, Ordering::Relaxed);
            }
            self.state.fetch_sub(INSIDE_ONE, Ordering::Release);
        }
    }

    fn notify_parked(&self) {
        let _guard = self.park.lock();
        self.wake.notify_all();
    }
}

/// Closes the open job, waits for the helpers inside it and releases the
/// pool — on the normal path and when `f(0)` unwinds alike.
struct Closing<'a>(&'a Shared);

impl Drop for Closing<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        let mut s = shared.state.fetch_and(!OPEN, Ordering::AcqRel);
        let mut spins = 0;
        while s & INSIDE_MASK != 0 {
            if spins < SPIN {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            s = shared.state.load(Ordering::Acquire);
        }
        shared.busy.store(false, Ordering::Release);
    }
}

/// A fixed-size pool: the calling thread plus `n - 1` persistent helpers.
pub struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Create a pool with `n` workers (`n >= 1`): `n - 1` helper threads,
    /// the caller of [`run`](Self::run) being worker 0.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "pool needs at least one worker");
        assert!((n as u64) < INSIDE_MASK / INSIDE_ONE, "pool too large");
        let shared = Arc::new(Shared {
            state: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            job: AtomicPtr::new(std::ptr::null_mut()),
            parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
        });
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only under OS resource exhaustion; no caller could proceed"
        )]
        let helpers = (1..n)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xmt-par-{id}"))
                    .spawn(move || shared.helper(id))
                    .expect("failed to spawn pool helper")
            })
            .collect();
        Pool { shared, helpers }
    }

    /// Number of workers (helpers plus the caller).
    pub fn num_workers(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Run `f(0)` on the calling thread while idle helpers join in as
    /// `f(id)`, `id` in `1..num_workers()`; return once all have left.
    ///
    /// `f(0)` always runs, exactly once, on the caller.  Each other id
    /// runs at most once, on its helper, and only if that helper enters
    /// before `f(0)` returns — never when another `run` already occupies
    /// the pool.  Within one call at most one thread runs under any id.
    /// A panic in any `f(id)` is re-raised here after all have left.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let shared = &*self.shared;
        // Acquire pairs with the Release in `Closing::drop`: the previous
        // owner is done with the slot.  Finding the flag already set
        // leaves it set for its owner, and this job runs alone.
        if self.helpers.is_empty() || shared.busy.swap(true, Ordering::Acquire) {
            return f(0);
        }
        let job = Job {
            f: &f,
            panicked: AtomicBool::new(false),
        };
        let erased = (&job as *const Job<'_>).cast::<Job<'static>>().cast_mut();
        // Relaxed: published by the SeqCst `fetch_add` below.
        shared.job.store(erased, Ordering::Relaxed);
        let closing = Closing(shared);
        shared.state.fetch_add(EPOCH_ONE | OPEN, Ordering::SeqCst);
        if shared.parked.load(Ordering::SeqCst) > 0 {
            shared.notify_parked();
        }
        f(0);
        drop(closing);
        // Relaxed: `Closing::drop` acquired every helper's `fetch_sub`.
        if job.panicked.load(Ordering::Relaxed) {
            #[expect(
                clippy::panic,
                reason = "re-raises a helper's panic, as thread::join does"
            )]
            {
                panic!("a pool worker panicked during Pool::run");
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.state.fetch_or(SHUTDOWN, Ordering::SeqCst);
        self.shared.notify_parked();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool.
///
/// Size is `XMT_PAR_THREADS` if set, otherwise the number of available
/// hardware threads.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let n = std::env::var("XMT_PAR_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Pool::new(n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfor::parallel_for_on;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn worker_zero_always_runs_and_helpers_at_most_once_while_open() {
        let pool = Pool::new(4);
        for _ in 0..2000 {
            let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            let returned = AtomicBool::new(false);
            let late = AtomicBool::new(false);
            pool.run(|id| {
                if returned.load(Ordering::SeqCst) {
                    late.store(true, Ordering::SeqCst);
                }
                hits[id].fetch_add(1, Ordering::Relaxed);
            });
            returned.store(true, Ordering::SeqCst);
            assert_eq!(hits[0].load(Ordering::Relaxed), 1);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
            assert!(!late.load(Ordering::SeqCst));
        }
    }

    #[test]
    fn helpers_join_a_job_that_stays_open() {
        let pool = Pool::new(3);
        let entered = AtomicU64::new(0);
        pool.run(|_| {
            entered.fetch_add(1, Ordering::SeqCst);
            wait_until(|| entered.load(Ordering::SeqCst) == 3);
        });
    }

    #[test]
    fn run_can_borrow_stack_data() {
        let pool = Pool::new(3);
        let data = [1u64, 2, 3, 4, 5];
        let total = AtomicU64::new(0);
        pool.run(|id| {
            if id == 0 {
                total.fetch_add(data.iter().sum::<u64>(), Ordering::Relaxed);
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn pool_of_one_spawns_nothing_and_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.num_workers(), 1);
        assert!(pool.helpers.is_empty());
        let me = std::thread::current().id();
        let calls = AtomicU64::new(0);
        pool.run(|id| {
            assert_eq!(id, 0);
            assert_eq!(std::thread::current().id(), me);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_callers_each_cover_their_range() {
        for callers in 2..=4 {
            let pool = Pool::new(3);
            let start = Barrier::new(callers);
            std::thread::scope(|s| {
                for _ in 0..callers {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..50 {
                            let n = 3000;
                            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                            parallel_for_on(&pool, 0, n, |i| {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            });
                            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn nested_loops_complete() {
        let pool = Pool::new(3);
        let n = 64;
        let hits: Vec<AtomicU64> = (0..n * n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_on(&pool, 0, n, |i| {
            parallel_for_on(&pool, 0, n, |j| {
                hits[i * n + j].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn drop_joins_spinning_and_parked_helpers() {
        // Dropped at once: helpers are starting up or spinning.
        let pool = Pool::new(4);
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        assert_eq!(Arc::strong_count(&shared), 1);

        // Dropped once every helper has exhausted its spin budget.
        let pool = Pool::new(4);
        let shared = Arc::clone(&pool.shared);
        wait_until(|| shared.parked.load(Ordering::SeqCst) == 3);
        drop(pool);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    /// A job on a pool of 2 that stays open until its helper is inside
    /// and a second caller has run on the busy pool; then worker
    /// `panics_on` panics.
    fn panic_is_contained(panics_on: usize) {
        let pool = Pool::new(2);
        let inside = AtomicU64::new(0);
        let bystander_done = AtomicBool::new(false);
        let bystander_calls = AtomicU64::new(0);
        std::thread::scope(|s| {
            let victim = s.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    pool.run(|id| {
                        inside.fetch_add(1, Ordering::SeqCst);
                        wait_until(|| {
                            inside.load(Ordering::SeqCst) == 2
                                && bystander_done.load(Ordering::SeqCst)
                        });
                        if id == panics_on {
                            panic!("boom");
                        }
                    })
                }))
            });
            wait_until(|| inside.load(Ordering::SeqCst) >= 1);
            pool.run(|id| {
                assert_eq!(id, 0, "a busy pool runs the second job on its caller");
                bystander_calls.fetch_add(1, Ordering::SeqCst);
            });
            bystander_done.store(true, Ordering::SeqCst);
            assert!(victim.join().expect("caught above").is_err());
        });
        assert_eq!(bystander_calls.load(Ordering::SeqCst), 1);
        // The pool is idle again: a helper can enter the next job.
        let entered = AtomicU64::new(0);
        pool.run(|_| {
            entered.fetch_add(1, Ordering::SeqCst);
            wait_until(|| entered.load(Ordering::SeqCst) == 2);
        });
    }

    #[test]
    fn caller_panic_is_reraised_and_pool_survives() {
        panic_is_contained(0);
    }

    #[test]
    fn helper_panic_is_reraised_and_pool_survives() {
        panic_is_contained(1);
    }

    #[test]
    fn global_pool_exists() {
        assert!(global().num_workers() >= 1);
    }
}
