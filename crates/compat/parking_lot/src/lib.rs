//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! provides the small slice of the `parking_lot` API it actually uses
//! (`Mutex`, `Condvar`), implemented on `std::sync`.  Semantics match
//! what callers rely on: `lock()` returns a guard directly (poison is
//! swallowed — a poisoned mutex here means a worker panicked, and the
//! panic is re-raised by the pool anyway), and `Condvar::wait` takes the
//! guard by `&mut`.
//!
//! What it adds over the real crate, in builds with `debug_assertions`:
//! a lock-order check where locks are taken.  Every mutex is a leaf —
//! nothing may be locked while it is held — so each thread keeps the
//! ranks it holds (a leaf has the highest), `lock()` panics unless the
//! new rank is strictly above all of them, and a condvar wait panics if
//! the waiter holds anything but its own mutex.  Release builds carry
//! neither the rank nor the per-thread record.

use std::ops::{Deref, DerefMut};
use std::time::Duration;

/// A mutex whose `lock` returns the guard directly (no poison `Result`).
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u32,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u32,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

/// The ranks this thread holds, lowest first; a rank is recorded
/// before its lock is taken and erased when its guard drops.
#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;

    thread_local! {
        static HELD: Cell<([u32; 8], usize)> = const { Cell::new(([0; 8], 0)) };
    }

    #[track_caller]
    pub fn push(rank: u32) {
        let (mut ranks, n) = HELD.get();
        let held = &ranks[..n];
        assert!(
            held.iter().all(|&r| r < rank),
            "lock order: acquiring rank {rank} while holding {held:?}"
        );
        ranks[n] = rank;
        HELD.set((ranks, n + 1));
    }

    pub fn pop(rank: u32) {
        let (mut ranks, n) = HELD.get();
        if let Some(i) = ranks[..n].iter().rposition(|&r| r == rank) {
            ranks.copy_within(i + 1..n, i);
            HELD.set((ranks, n - 1));
        }
    }

    #[track_caller]
    pub fn assert_only(rank: u32) {
        let (ranks, n) = HELD.get();
        let held = &ranks[..n];
        assert!(
            held == [rank],
            "lock order: condvar wait while holding {held:?}"
        );
    }
}

impl<T> Mutex<T> {
    /// A new leaf mutex holding `value`: nothing may be locked under it.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            rank: u32::MAX,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::push(self.rank);
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            inner: Some(inner),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        held::pop(self.rank);
    }
}

/// Result of a timed condvar wait.
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Did the wait end because the timeout elapsed?
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable compatible with [`Mutex`]/[`MutexGuard`].
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Block until notified, releasing the guard's lock while waiting.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(debug_assertions)]
        held::assert_only(guard.rank);
        let inner = guard.inner.take().expect("guard already taken");
        let back = match self.0.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(back);
    }

    /// Block until notified or `timeout` elapses.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        #[cfg(debug_assertions)]
        held::assert_only(guard.rank);
        let inner = guard.inner.take().expect("guard already taken");
        let (back, res) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(back);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A mutex below the leaves.  Only these tests build one: the
    /// record's bookkeeping and the wait check need a thread that holds
    /// two locks, which leaves alone never allow.
    fn ranked<T>(rank: u32, value: T) -> Mutex<T> {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Mutex {
            #[cfg(debug_assertions)]
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, c) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                c.wait(&mut ready);
            }
        });
        {
            let (m, c) = &*pair;
            *m.lock() = true;
            c.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let c = Condvar::new();
        let mut g = m.lock();
        let r = c.wait_for(&mut g, Duration::from_millis(1));
        assert!(r.timed_out());
    }

    #[test]
    fn ascending_ranks_nest_and_drop_in_any_order() {
        let (a, b, c) = (ranked(1, ()), ranked(2, ()), Mutex::new(()));
        let (ga, gb, gc) = (a.lock(), b.lock(), c.lock());
        drop(gb);
        drop(ga);
        drop(gc);
        // Nothing is left behind: the lowest rank can be taken again,
        // and a wait holding only its own mutex is allowed.
        let mut ga = a.lock();
        Condvar::new().wait_for(&mut ga, Duration::from_millis(1));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_builds_carry_no_rank() {
        use std::mem::size_of;
        assert_eq!(size_of::<Mutex<u64>>(), size_of::<std::sync::Mutex<u64>>());
        // Not checked either: the same nesting panics in a debug build.
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let (_ga, _gb) = (a.lock(), b.lock());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order: acquiring rank 4294967295 while holding [4294967295]")]
    fn leaf_under_leaf_panics() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order: condvar wait while holding [1, 2]")]
    fn waiting_while_holding_a_second_lock_panics() {
        let (a, b) = (ranked(1, ()), ranked(2, ()));
        let _ga = a.lock();
        let mut gb = b.lock();
        Condvar::new().wait_for(&mut gb, Duration::from_millis(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_failed_acquisition_leaves_the_record_as_it_was() {
        let (a, b) = (ranked(1, ()), ranked(2, ()));
        let gb = b.lock();
        assert!(std::panic::catch_unwind(|| drop(a.lock())).is_err());
        drop(gb);
        drop(a.lock());
        drop(b.lock());
    }
}
