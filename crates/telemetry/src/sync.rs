//! Instrumented synchronization primitives.
//!
//! The paper finds `futex` to be the dominant syscall for every μSuite
//! service (Figs. 11–14) and identifies thread-contention (HITM) events
//! caused by pools of threads fighting over socket and queue locks
//! (Fig. 19). [`CountedMutex`] and [`CountedCondvar`] wrap
//! `parking_lot` primitives and tick [`OsOp::Futex`] at exactly the points
//! where a glibc-based service would enter the kernel: contended lock
//! acquisition, condvar wait, and condvar notify. Contended acquisitions
//! are additionally tallied as contention events — the userspace analog of
//! the paper's HITM (hit-Modified cache line) counts.

use crate::counters::{OsOp, OsOpCounters};
use musuite_check::atomic::{AtomicU64, Ordering};
use musuite_check::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Process-wide count of contended lock acquisitions — the userspace analog
/// of the paper's HITM (true sharing) counts in Fig. 19.
static CONTENTION_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Returns the process-wide contention (HITM-analog) event count.
pub fn contention_events() -> u64 {
    CONTENTION_EVENTS.load(Ordering::Relaxed)
}

/// Records a contention event observed outside a [`CountedMutex`] slow
/// path — e.g. a frame queued behind another thread's in-progress
/// connection flush, which is the same two-threads-one-cache-line fight a
/// lock held across the write syscall used to tally.
pub fn record_contention_event() {
    CONTENTION_EVENTS.fetch_add(1, Ordering::Relaxed);
}

/// Resets the process-wide contention event count (between bench runs).
pub fn reset_contention_events() {
    CONTENTION_EVENTS.store(0, Ordering::Relaxed);
}

/// A mutex that counts contended acquisitions as futex operations and
/// contention events.
///
/// # Examples
///
/// ```
/// use musuite_telemetry::sync::CountedMutex;
///
/// let m = CountedMutex::new(41);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 42);
/// ```
#[derive(Debug, Default)]
pub struct CountedMutex<T> {
    inner: Mutex<T>,
}

impl<T> CountedMutex<T> {
    /// Creates a mutex protecting `value`.
    pub fn new(value: T) -> Self {
        CountedMutex { inner: Mutex::new(value) }
    }

    /// Acquires the lock, counting a futex op and a contention event if the
    /// fast path fails.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(guard) = self.inner.try_lock() {
            return guard;
        }
        // Slow path: a real pthread mutex would issue FUTEX_WAIT here, and
        // the cache line bounce shows up as a HITM event in PEBS.
        OsOpCounters::global().incr(OsOp::Futex);
        CONTENTION_EVENTS.fetch_add(1, Ordering::Relaxed);
        self.inner.lock()
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.inner.try_lock()
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// A condition variable that counts waits and notifications as futex
/// operations.
#[derive(Debug, Default)]
pub struct CountedCondvar {
    inner: Condvar,
}

impl CountedCondvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks on the condition variable.
    ///
    /// Counted as **two** futex operations, matching glibc's
    /// `pthread_cond_wait`: a `FUTEX_WAIT` on the condvar plus the mutex
    /// reacquisition after wake (which enters the kernel whenever other
    /// woken waiters race for the same lock — the exact behaviour the
    /// paper blames for elevated low-load futex counts).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        OsOpCounters::global().add(OsOp::Futex, 2);
        self.inner.wait(guard);
    }

    /// Blocks with a timeout; returns `true` if the wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        OsOpCounters::global().add(OsOp::Futex, 2);
        self.inner.wait_for(guard, timeout)
    }

    /// Wakes one waiter (`FUTEX_WAKE`); returns `true` if a thread was woken.
    pub fn notify_one(&self) -> bool {
        OsOpCounters::global().incr(OsOp::Futex);
        self.inner.notify_one()
    }

    /// Wakes all waiters; returns the number of threads woken.
    pub fn notify_all(&self) -> usize {
        OsOpCounters::global().incr(OsOp::Futex);
        self.inner.notify_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::OsOpCounters;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_protects_value() {
        let m = Arc::new(CountedMutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = m.clone();
            handles.push(thread::spawn(move || {
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
    fn contention_is_counted() {
        let before = contention_events();
        let m = Arc::new(CountedMutex::new(()));
        let guard = m.lock();
        let m2 = m.clone();
        let h = thread::spawn(move || {
            let _g = m2.lock(); // must take the slow path
        });
        thread::sleep(Duration::from_millis(20));
        drop(guard);
        h.join().unwrap();
        assert!(contention_events() > before, "contended acquisition must be tallied");
    }

    #[test]
    fn uncontended_lock_is_not_a_futex_op() {
        let counters = OsOpCounters::global();
        let before = counters.get(OsOp::Futex);
        let m = CountedMutex::new(5u32);
        for _ in 0..100 {
            let _ = *m.lock();
        }
        // No other thread contends, so the fast path must never tick futex.
        // (Other tests may run concurrently, so allow unrelated increments
        // only when they are plausible; in this single-threaded section the
        // count from *this* mutex is zero, checked via a dedicated mutex.)
        let after = counters.get(OsOp::Futex);
        // The global counter may move due to parallel tests; we can only
        // assert it did not move by the 100 locks we would have charged.
        assert!(after.saturating_sub(before) < 100);
    }

    #[test]
    fn condvar_roundtrip() {
        let pair = Arc::new((CountedMutex::new(false), CountedCondvar::new()));
        let pair2 = pair.clone();
        let h = thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock();
            *ready = true;
            cvar.notify_one();
            drop(ready);
        });
        let (lock, cvar) = &*pair;
        let mut ready = lock.lock();
        while !*ready {
            cvar.wait(&mut ready);
        }
        drop(ready);
        h.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let lock = CountedMutex::new(());
        let cvar = CountedCondvar::new();
        let mut guard = lock.lock();
        let timed_out = cvar.wait_for(&mut guard, Duration::from_millis(5));
        assert!(timed_out);
    }

    #[test]
    fn into_inner_returns_value() {
        let m = CountedMutex::new(String::from("payload"));
        assert_eq!(m.into_inner(), "payload");
    }
}
