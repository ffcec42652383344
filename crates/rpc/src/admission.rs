//! Priority-aware admission control with a fixed or adaptive concurrency
//! limit.
//!
//! μSuite sheds load with one blunt instrument: a full dispatch queue.
//! That admits work the caller has already abandoned and drops `Critical`
//! and `Sheddable` traffic with equal probability. This module is the
//! finer-grained gate the overload experiments sweep:
//!
//! * **Concurrency limit** — an upper bound on requests concurrently
//!   admitted (queued or executing). Under
//!   [`AdmissionModel::Fixed`] it is pinned to the dispatch-queue
//!   capacity, reproducing the seed behavior through the new gate. Under
//!   [`AdmissionModel::Adaptive`] an AIMD controller moves it between 1
//!   and the capacity based on queue delay observed at dequeue — the
//!   signal the paper's Block-stage breakdown records.
//! * **Priority thresholds** — each [`Priority`] class may only use a
//!   fraction of the limit: `Critical` 100%, `Normal` 80%, `Sheddable`
//!   50%. As load rises the classes shed in reverse-priority order, so
//!   an overloaded mid-tier degrades its cheap traffic first and keeps
//!   serving the requests that matter.
//!
//! The gate itself is lock-free: an admit is one load of the limit plus
//! one CAS on the in-flight count, and a release is one `fetch_sub` from
//! the [`AdmissionPermit`] drop. There is nothing to park on, so the
//! limiter cannot deadlock — the model tests pin that down at limit 1,
//! the worst case.

use crate::config::AdmissionModel;
use musuite_check::atomic::{AtomicU64, AtomicUsize, Ordering};
use musuite_codec::Priority;
use std::sync::Arc;
use std::time::Duration;

/// Queue delay the adaptive controller steers toward: while the mean
/// delay over a sample window stays below this, the limit creeps up;
/// once dequeued work has aged past it, the limit is cut.
const TARGET_QUEUE_DELAY: Duration = Duration::from_millis(2);

/// Dequeue samples per AIMD adjustment window.
const SAMPLE_WINDOW: u64 = 32;

/// Multiplicative-decrease factor: the limit is cut to 3/4 on overload.
const DECREASE_NUM: usize = 3;
/// Denominator of the multiplicative-decrease factor.
const DECREASE_DEN: usize = 4;

/// The adaptive limit never drops below this floor, so `Critical`
/// traffic always has at least one admission slot.
const MIN_LIMIT: usize = 1;

fn class_threshold(limit: usize, priority: Priority) -> usize {
    match priority {
        Priority::Critical => limit,
        Priority::Normal => (limit * 4 / 5).max(MIN_LIMIT),
        Priority::Sheddable => (limit / 2).max(MIN_LIMIT),
    }
}

struct Inner {
    capacity: usize,
    adaptive: bool,
    limit: AtomicUsize,
    inflight: AtomicUsize,
    delay_sum_ns: AtomicU64,
    delay_samples: AtomicU64,
}

/// A direction the adaptive limiter moved, returned from
/// [`AdmissionControl::note_dequeue`] so the caller can tick telemetry
/// counters (the gate itself stays side-effect free and model-checkable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitChange {
    /// Additive increase: queue delay under target, limit grew by one.
    Raised,
    /// Multiplicative decrease: queue delay over target, limit was cut.
    Lowered,
}

/// The shared admission gate for one server.
///
/// Cloning is cheap; clones share the limit and in-flight count. One
/// instance is distributed to the server's network edges (which admit)
/// and workers (which feed back queue-delay samples).
///
/// # Examples
///
/// ```
/// use musuite_rpc::admission::AdmissionControl;
/// use musuite_rpc::config::AdmissionModel;
/// use musuite_rpc::Priority;
///
/// let gate = AdmissionControl::new(AdmissionModel::Fixed, 2);
/// let a = gate.try_admit(Priority::Critical).expect("slot free");
/// let b = gate.try_admit(Priority::Critical).expect("slot free");
/// assert!(gate.try_admit(Priority::Critical).is_none(), "limit reached");
/// drop(a);
/// drop(b);
/// assert!(gate.try_admit(Priority::Critical).is_some());
/// ```
#[derive(Clone)]
pub struct AdmissionControl {
    inner: Arc<Inner>,
}

impl AdmissionControl {
    /// Creates a gate with the given model and capacity. The limit starts
    /// at `capacity` under both models; only `Adaptive` moves it.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(model: AdmissionModel, capacity: usize) -> AdmissionControl {
        assert!(capacity > 0, "admission capacity must be positive");
        AdmissionControl {
            inner: Arc::new(Inner {
                capacity,
                adaptive: model == AdmissionModel::Adaptive,
                limit: AtomicUsize::new(capacity),
                inflight: AtomicUsize::new(0),
                delay_sum_ns: AtomicU64::new(0),
                delay_samples: AtomicU64::new(0),
            }),
        }
    }

    /// Attempts to admit one request of the given priority class.
    ///
    /// Returns a permit that holds one slot of the concurrency limit
    /// until dropped, or `None` when the class's threshold is reached
    /// (the caller sheds the request). Lock-free: one limit load plus a
    /// CAS loop on the in-flight count.
    pub fn try_admit(&self, priority: Priority) -> Option<AdmissionPermit> {
        let limit = self.inner.limit.load(Ordering::Relaxed);
        let threshold = class_threshold(limit, priority);
        let mut current = self.inner.inflight.load(Ordering::Relaxed);
        loop {
            if current >= threshold {
                return None;
            }
            match self.inner.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(AdmissionPermit { inner: Arc::clone(&self.inner) }),
                Err(observed) => current = observed,
            }
        }
    }

    /// Feeds one queue-delay observation (enqueue → dequeue age of a
    /// request a worker just claimed) to the adaptive controller.
    ///
    /// Every 32 samples (`SAMPLE_WINDOW`), one caller wins the window and
    /// compares the mean delay against 2 ms (`TARGET_QUEUE_DELAY`): under it,
    /// the limit grows by one (additive increase, capped at capacity);
    /// over it, the limit is cut to 3/4 (multiplicative decrease,
    /// floored at 1). Returns the direction the limit moved, if it did.
    /// A no-op under [`AdmissionModel::Fixed`]. Windows are approximate
    /// under contention — concurrent samples may land in either window —
    /// which is fine for a controller that only needs the trend.
    pub fn note_dequeue(&self, queue_delay: Duration) -> Option<LimitChange> {
        if !self.inner.adaptive {
            return None;
        }
        let delay_ns = queue_delay.as_nanos().min(u128::from(u64::MAX)) as u64;
        let sum = self.inner.delay_sum_ns.fetch_add(delay_ns, Ordering::Relaxed) + delay_ns;
        let samples = self.inner.delay_samples.fetch_add(1, Ordering::Relaxed) + 1;
        if samples < SAMPLE_WINDOW {
            return None;
        }
        // One adjuster wins the window; losers keep sampling into the next.
        if self
            .inner
            .delay_samples
            .compare_exchange(samples, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        self.inner.delay_sum_ns.store(0, Ordering::Relaxed);
        let mean_ns = sum / samples;
        let limit = self.inner.limit.load(Ordering::Relaxed);
        if Duration::from_nanos(mean_ns) > TARGET_QUEUE_DELAY {
            let next = (limit * DECREASE_NUM / DECREASE_DEN).max(MIN_LIMIT);
            if next < limit {
                self.inner.limit.store(next, Ordering::Relaxed);
                return Some(LimitChange::Lowered);
            }
        } else {
            let next = (limit + 1).min(self.inner.capacity);
            if next > limit {
                self.inner.limit.store(next, Ordering::Relaxed);
                return Some(LimitChange::Raised);
            }
        }
        None
    }

    /// Current concurrency limit.
    pub fn limit(&self) -> usize {
        self.inner.limit.load(Ordering::Relaxed)
    }

    /// Requests currently holding an admission slot.
    pub fn inflight(&self) -> usize {
        self.inner.inflight.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for AdmissionControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionControl")
            .field("limit", &self.limit())
            .field("inflight", &self.inflight())
            .field("capacity", &self.inner.capacity)
            .field("adaptive", &self.inner.adaptive)
            .finish()
    }
}

/// One slot of the concurrency limit, held by an admitted request for
/// its whole lifetime (queued, executing, responding) and returned on
/// drop — so release is exactly-once even on handler panic or abandoned
/// context drop.
pub struct AdmissionPermit {
    inner: Arc<Inner>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.inner.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_thresholds_shed_low_classes_first() {
        let gate = AdmissionControl::new(AdmissionModel::Fixed, 10);
        // Fill to the Sheddable threshold (50% of 10 = 5).
        let permits: Vec<_> =
            (0..5).map(|_| gate.try_admit(Priority::Critical).expect("below limit")).collect();
        assert!(gate.try_admit(Priority::Sheddable).is_none(), "sheddable sheds at 50%");
        assert!(gate.try_admit(Priority::Normal).is_some(), "normal admits to 80%");
        assert!(gate.try_admit(Priority::Critical).is_some(), "critical admits to 100%");
        drop(permits);
    }

    #[test]
    fn permits_release_on_drop() {
        let gate = AdmissionControl::new(AdmissionModel::Fixed, 1);
        let permit = gate.try_admit(Priority::Critical).expect("slot free");
        assert_eq!(gate.inflight(), 1);
        assert!(gate.try_admit(Priority::Critical).is_none());
        drop(permit);
        assert_eq!(gate.inflight(), 0);
        assert!(gate.try_admit(Priority::Critical).is_some());
    }

    #[test]
    fn fixed_model_ignores_delay_samples() {
        let gate = AdmissionControl::new(AdmissionModel::Fixed, 8);
        for _ in 0..100 {
            assert_eq!(gate.note_dequeue(Duration::from_secs(1)), None);
        }
        assert_eq!(gate.limit(), 8);
    }

    #[test]
    fn adaptive_limit_decreases_under_delay_and_recovers() {
        let gate = AdmissionControl::new(AdmissionModel::Adaptive, 16);
        // A window of badly aged dequeues cuts the limit multiplicatively.
        let mut changed = Vec::new();
        for _ in 0..SAMPLE_WINDOW {
            if let Some(change) = gate.note_dequeue(Duration::from_millis(50)) {
                changed.push(change);
            }
        }
        assert_eq!(changed, vec![LimitChange::Lowered]);
        assert_eq!(gate.limit(), 12, "16 * 3/4");
        // Windows of fast dequeues grow it back one step per window.
        for _ in 0..SAMPLE_WINDOW {
            gate.note_dequeue(Duration::from_micros(10));
        }
        assert_eq!(gate.limit(), 13);
    }

    #[test]
    fn adaptive_limit_floors_at_one_and_caps_at_capacity() {
        let gate = AdmissionControl::new(AdmissionModel::Adaptive, 2);
        for _ in 0..20 * SAMPLE_WINDOW {
            gate.note_dequeue(Duration::from_secs(1));
        }
        assert_eq!(gate.limit(), MIN_LIMIT, "decrease floors at 1");
        assert!(gate.try_admit(Priority::Critical).is_some(), "critical still admitted at floor");
        let gate = AdmissionControl::new(AdmissionModel::Adaptive, 2);
        for _ in 0..20 * SAMPLE_WINDOW {
            gate.note_dequeue(Duration::ZERO);
        }
        assert_eq!(gate.limit(), 2, "increase caps at capacity");
    }

    #[test]
    fn tiny_limits_keep_a_slot_for_every_class() {
        let gate = AdmissionControl::new(AdmissionModel::Fixed, 1);
        // Thresholds floor at 1: even at limit 1 an idle gate admits any
        // class, rather than rounding Sheddable's share down to zero.
        let permit = gate.try_admit(Priority::Sheddable).expect("floor keeps one slot");
        drop(permit);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        AdmissionControl::new(AdmissionModel::Fixed, 0);
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};

    /// The worst-case gate — limit 1 — must never deadlock: the slot a
    /// permit drop returns is visible to the next admit in every
    /// interleaving, so two contenders can never strand the gate with
    /// the slot lost. If release and admit could race the count into a
    /// stuck state, the final admit here would fail on some schedule.
    #[test]
    fn limit_one_slot_is_returned_under_every_schedule() {
        let report = Checker::new()
            .check(|| {
                let gate = AdmissionControl::new(AdmissionModel::Fixed, 1);
                let contender = {
                    let gate = gate.clone();
                    thread::spawn(move || match gate.try_admit(Priority::Critical) {
                        Some(permit) => {
                            drop(permit);
                            true
                        }
                        None => false,
                    })
                };
                let local = match gate.try_admit(Priority::Critical) {
                    Some(permit) => {
                        drop(permit);
                        true
                    }
                    None => false,
                };
                let remote = contender.join().unwrap();
                assert!(local || remote, "at least one contender must be admitted");
                assert_eq!(gate.inflight(), 0, "every permit must be returned");
                let reclaim = gate.try_admit(Priority::Critical);
                assert!(reclaim.is_some(), "the slot must be admittable again");
                drop(reclaim);
            })
            .expect("limit-1 gate must make progress in every schedule");
        assert!(report.iterations > 1, "exploration must try preempting schedules");
    }

    /// An expired entry racing two dequeuing workers is claimed exactly
    /// once: whichever worker pops it observes the expiry and accounts
    /// it; the other must see either the live entry or an empty queue —
    /// never the expired one again.
    #[test]
    fn expired_entry_claimed_exactly_once() {
        use crate::config::WaitMode;
        use crate::queue::DispatchQueue;

        let report = Checker::new()
            .check(|| {
                let q = DispatchQueue::<(u32, bool)>::new(4, WaitMode::Block);
                assert!(q.push((1, true)));
                assert!(q.push((2, false)));
                q.close();
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let q = q.clone();
                        thread::spawn(move || {
                            let mut expired_claims = 0u32;
                            let mut executed = 0u32;
                            while let Some((_, expired)) = q.pop() {
                                if expired {
                                    expired_claims += 1;
                                } else {
                                    executed += 1;
                                }
                            }
                            (expired_claims, executed)
                        })
                    })
                    .collect();
                let (expired, executed) = workers
                    .into_iter()
                    .map(|w| w.join().unwrap())
                    .fold((0, 0), |acc, got| (acc.0 + got.0, acc.1 + got.1));
                assert_eq!(expired, 1, "expired entry claimed exactly once");
                assert_eq!(executed, 1, "live entry executed exactly once");
            })
            .expect("expiry claim must be exactly-once in every schedule");
        assert!(report.iterations > 1, "exploration must try preempting schedules");
    }
}
