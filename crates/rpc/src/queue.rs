//! The producer–consumer dispatch queue between network and worker threads.
//!
//! This is the paper's "task queue": network pollers push requests,
//! workers pull them, and the hand-off is signalled on a condition
//! variable. The queue is where two of the characterized overheads arise
//! and are therefore measured here:
//!
//! * **Block** — how long a request sits queued before a worker claims it,
//! * **Active-Exe** — how long the claiming worker takes to start running
//!   after being notified (the wakeup latency that dominates the paper's
//!   tail breakdowns).
//!
//! Block-, poll-based and adaptive consumer waiting ([`WaitMode`]), the §VII
//! trade-off, are one rule with three spin budgets: yield while under the
//! budget, then park.

use crate::buf::flush_outbox;
use crate::config::WaitMode;
use musuite_check::sync::MutexGuard;
use musuite_telemetry::batching::FlushReason;
use musuite_telemetry::breakdown::{BreakdownRecorder, Stage};
use musuite_telemetry::clock::Clock;
use musuite_telemetry::counters::{OsOp, OsOpCounters};
use musuite_telemetry::sync::{CountedCondvar, CountedMutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Entry<T> {
    item: T,
    enqueued_at_ns: u64,
}

struct Shared<T> {
    queue: CountedMutex<QueueState<T>>,
    available: CountedCondvar,
}

struct QueueState<T> {
    entries: VecDeque<Entry<T>>,
    closed: bool,
    /// Consumers waiting on `available`, and how many of them a push has
    /// woken that have not run yet: a push wakes one only if one is left.
    parked: usize,
    woken: usize,
}

/// A bounded MPMC queue instrumented for dispatch-latency attribution.
///
/// # Examples
///
/// ```
/// use musuite_rpc::DispatchQueue;
/// use musuite_rpc::config::WaitMode;
///
/// let queue = DispatchQueue::new(16, WaitMode::Block);
/// assert!(queue.push(42u32));
/// assert_eq!(queue.pop(), Some(42));
/// queue.close();
/// assert_eq!(queue.pop(), None);
/// ```
pub struct DispatchQueue<T> {
    shared: Arc<Shared<T>>,
    capacity: usize,
    wait_mode: WaitMode,
    clock: Clock,
    breakdown: BreakdownRecorder,
}

impl<T> Clone for DispatchQueue<T> {
    fn clone(&self) -> Self {
        DispatchQueue {
            shared: self.shared.clone(),
            capacity: self.capacity,
            wait_mode: self.wait_mode,
            clock: self.clock,
            breakdown: self.breakdown.clone(),
        }
    }
}

impl<T> DispatchQueue<T> {
    /// Creates a queue holding at most `capacity` items whose consumers
    /// wait according to `wait_mode`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, wait_mode: WaitMode) -> DispatchQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        DispatchQueue {
            shared: Arc::new(Shared {
                queue: CountedMutex::new(QueueState {
                    entries: VecDeque::new(),
                    closed: false,
                    parked: 0,
                    woken: 0,
                }),
                available: CountedCondvar::new(),
            }),
            capacity,
            wait_mode,
            clock: Clock::new(),
            breakdown: BreakdownRecorder::new(),
        }
    }

    /// Attaches a shared breakdown recorder so Block/Active-Exe samples
    /// land in the server's telemetry.
    pub fn with_breakdown(mut self, breakdown: BreakdownRecorder) -> DispatchQueue<T> {
        self.breakdown = breakdown;
        self
    }

    /// The breakdown recorder receiving Block/Active-Exe samples.
    pub fn breakdown(&self) -> &BreakdownRecorder {
        &self.breakdown
    }

    /// Enqueues an item, returning `false` if the queue is full or closed
    /// (callers shed load with `Status::Unavailable`).
    pub fn push(&self, item: T) -> bool {
        self.try_push(item).is_ok()
    }

    /// Enqueues an item, handing it back if the queue is full or closed so
    /// the caller can respond to it (e.g. with `Status::Unavailable`).
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is closed or at capacity.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.shared.queue.lock();
        if state.closed || state.entries.len() >= self.capacity {
            return Err(item);
        }
        state.entries.push_back(Entry { item, enqueued_at_ns: self.clock.now_ns() });
        // A consumer that is busy, spinning, or woken already and about to
        // look costs no futex wake; one deciding to park does so under the
        // lock held here, so it sees the entry or is seen parked.
        let wake = state.parked > state.woken;
        state.woken += usize::from(wake);
        drop(state);
        if wake {
            self.shared.available.notify_one();
        }
        Ok(())
    }

    /// Dequeues an item, waiting until one is available: an empty look
    /// yields while it is within the [`WaitMode`]'s spin budget (none for
    /// `Block`, no end for `Poll`), and parks after it. Returns `None` once
    /// the queue is closed and drained. This is a batch of one.
    pub fn pop(&self) -> Option<T> {
        let mut slot = None;
        self.pop_batch_into(|item| slot = Some(item), 1, Duration::ZERO)?;
        slot
    }

    fn take_entry(&self, state: &mut QueueState<T>) -> Option<T> {
        let entry = state.entries.pop_front()?;
        let now = self.clock.now_ns();
        self.breakdown.record(Stage::Block, self.clock.delta(entry.enqueued_at_ns, now));
        Some(entry.item)
    }

    /// Dequeues up to `max_size` items in one wakeup, waiting (per
    /// [`WaitMode`]) for the *first* item exactly like [`DispatchQueue::pop`],
    /// then draining whatever else is ready. A partial batch waits up to
    /// `max_delay` for stragglers; `Duration::ZERO` means "never wait —
    /// flush what the queue had". Returns the batch in FIFO order together
    /// with the reason it closed, or `None` once the queue is closed and
    /// drained.
    ///
    /// This is the batched unit-of-work edge: one park/unpark (and one
    /// Block/Active-Exe attribution per member, recorded at dequeue) covers
    /// the whole batch instead of one futex round-trip per request. A
    /// batch of one (`max_size` 1) is exactly a [`DispatchQueue::pop`].
    /// The server's workers drain into a buffer each keeps for its
    /// lifetime; this form allocates the batch it returns.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub fn pop_batch(&self, max_size: usize, max_delay: Duration) -> Option<(Vec<T>, FlushReason)> {
        let mut batch = Vec::with_capacity(max_size.min(64));
        let reason = self.pop_batch_into(|item| batch.push(item), max_size, max_delay)?;
        Some((batch, reason))
    }

    /// The one dequeue loop, under [`DispatchQueue::pop`] and
    /// [`DispatchQueue::pop_batch`]: hands up to `max_size` items to `put`,
    /// in FIFO order, and says why the batch closed; `None` once the queue
    /// is closed and drained with nothing taken. The server's workers put
    /// into a buffer each keeps for the next batch.
    ///
    /// Each empty look is followed by the same steps: what this thread
    /// deferred is written once, with the queue unlocked, and the queue
    /// looked at again; then the thread yields while it is within the
    /// [`WaitMode`]'s spin budget and parks after it. Until the first
    /// member the park is untimed, and its wake-up is recorded as
    /// Active-Exe. Once the first member is in, the miss count and the
    /// write start afresh, and the wait is for stragglers: the park is
    /// timed to what is left of `max_delay`, and the batch closes once the
    /// queue is closed, the delay is zero, or the delay has passed.
    pub(crate) fn pop_batch_into(
        &self,
        mut put: impl FnMut(T),
        max_size: usize,
        max_delay: Duration,
    ) -> Option<FlushReason> {
        assert!(max_size > 0, "batch size must be at least one");
        let mut taken = 0;
        // When the wait for stragglers ends; set as the first member is in.
        let mut stragglers_until = None;
        let mut unflushed = true;
        let mut misses = 0u32;
        let mut state = self.shared.queue.lock();
        loop {
            while taken < max_size {
                let Some(item) = self.take_entry(&mut state) else { break };
                put(item);
                taken += 1;
            }
            if taken == max_size {
                return Some(FlushReason::SizeFull);
            }
            let timeout = if taken == 0 {
                if state.closed && !unflushed {
                    return None;
                }
                None
            } else {
                if state.closed || max_delay.is_zero() {
                    return Some(FlushReason::QueueDrained);
                }
                let now = Instant::now();
                let until = match stragglers_until {
                    Some(until) => until,
                    None => {
                        // The first member is in: the wait starts afresh.
                        (misses, unflushed) = (0, true);
                        *stragglers_until.insert(now + max_delay)
                    }
                };
                if now >= until {
                    return Some(FlushReason::DelayExpired);
                }
                Some(until - now)
            };
            if std::mem::take(&mut unflushed) {
                // Written before this thread waits, with the queue unlocked
                // so producers are not held up; then the queue is looked at
                // again.
                drop(state);
                flush_outbox();
                state = self.shared.queue.lock();
                continue;
            }
            misses = misses.saturating_add(1);
            if misses <= self.wait_mode.spin_budget() {
                drop(state);
                yield_now();
                state = self.shared.queue.lock();
                continue;
            }
            // Only a wait for the first member ends in an Active-Exe sample:
            // a straggler's worker is running a batch already.
            let waited_from = timeout.is_none().then(|| self.clock.now_ns());
            // A straggler's push wakes a timed park early; the timeout
            // bounds how long the partial batch can age.
            self.park(&mut state, timeout);
            // Active-Exe: we became runnable when the producer notified;
            // the gap until this line executes is the wakeup latency. The
            // producer-side timestamp travels via the queue entry itself,
            // so approximate with the wait-return edge: time from notify
            // (entry enqueued after waited_from) to now.
            if let (Some(waited_from), Some(front)) = (waited_from, state.entries.front()) {
                if front.enqueued_at_ns >= waited_from {
                    let now = self.clock.now_ns();
                    self.breakdown
                        .record(Stage::ActiveExe, self.clock.delta(front.enqueued_at_ns, now));
                }
            }
        }
    }

    /// Waits on `available`, counted as parked meanwhile. However the wait
    /// ends the consumer looks at the queue next, so it takes one wake-up
    /// off the books: its own, or one on its way to a consumer that will
    /// do the same.
    fn park(&self, state: &mut MutexGuard<'_, QueueState<T>>, timeout: Option<Duration>) {
        state.parked += 1;
        match timeout {
            Some(timeout) => drop(self.shared.available.wait_for(state, timeout)),
            None => self.shared.available.wait(state),
        }
        state.parked -= 1;
        state.woken = state.woken.saturating_sub(1);
    }

    /// Attempts to dequeue without waiting.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.shared.queue.lock();
        self.take_entry(&mut state)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().entries.len()
    }

    /// Returns `true` if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pushes fail, and pops return `None` once drained.
    pub fn close(&self) {
        {
            let mut state = self.shared.queue.lock();
            state.closed = true;
        }
        self.shared.available.notify_all();
    }

    /// Returns `true` once [`DispatchQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.shared.queue.lock().closed
    }
}

impl<T> std::fmt::Debug for DispatchQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchQueue")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("wait_mode", &self.wait_mode)
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// A spinning consumer's turn away from the queue, which is unlocked.
fn yield_now() {
    OsOpCounters::global().incr(OsOp::SchedYield);
    musuite_check::thread::yield_now();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let q = DispatchQueue::new(8, WaitMode::Block);
        for i in 0..5 {
            assert!(q.push(i));
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn capacity_sheds_load() {
        let q = DispatchQueue::new(2, WaitMode::Block);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3), "push beyond capacity must fail");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_unblocks_consumers() {
        let q = DispatchQueue::<u32>::new(8, WaitMode::Block);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn close_drains_before_none() {
        let q = DispatchQueue::new(8, WaitMode::Block);
        q.push(1);
        q.push(2);
        q.close();
        assert!(!q.push(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cross_thread_handoff_blocking() {
        let q = DispatchQueue::new(1024, WaitMode::Block);
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                for i in 0..1000u32 {
                    while !q.push(i) {
                        thread::yield_now();
                    }
                }
                q.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread_handoff_polling() {
        let q = DispatchQueue::new(1024, WaitMode::Poll);
        let q2 = q.clone();
        let consumer = thread::spawn(move || {
            let mut sum = 0u64;
            while let Some(v) = q2.pop() {
                sum += u64::from(v);
            }
            sum
        });
        for i in 0..100u32 {
            assert!(q.push(i));
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), (0..100u64).sum());
    }

    #[test]
    fn block_stage_is_recorded() {
        let q = DispatchQueue::new(8, WaitMode::Block);
        q.push(7);
        thread::sleep(Duration::from_millis(5));
        q.pop();
        let hist = q.breakdown().histogram(Stage::Block);
        assert_eq!(hist.count(), 1);
        assert!(hist.max() >= Duration::from_millis(4));
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = DispatchQueue::<u8>::new(4, WaitMode::Block);
        assert_eq!(q.try_pop(), None);
        q.push(9);
        assert_eq!(q.try_pop(), Some(9));
    }

    #[test]
    fn adaptive_handoff_and_close() {
        let q = DispatchQueue::new(1024, WaitMode::Adaptive);
        let q2 = q.clone();
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = q2.pop() {
                got.push(v);
            }
            got
        });
        // Fast burst (caught by the spin window) then an idle gap
        // (consumer parks) then more work (requires the futex wake).
        for i in 0..50u32 {
            assert!(q.push(i));
        }
        thread::sleep(Duration::from_millis(30));
        for i in 50..100u32 {
            assert!(q.push(i));
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn adaptive_close_unblocks_parked_consumer() {
        let q = DispatchQueue::<u8>::new(4, WaitMode::Adaptive);
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.pop());
        // Let the consumer exhaust its spin budget and park.
        thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn pop_batch_drains_backlog_up_to_size() {
        let q = DispatchQueue::new(64, WaitMode::Block);
        for i in 0..10 {
            assert!(q.push(i));
        }
        let (batch, reason) = q.pop_batch(4, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(reason, FlushReason::SizeFull);
        let (batch, reason) = q.pop_batch(32, Duration::ZERO).unwrap();
        assert_eq!(batch, (4..10).collect::<Vec<_>>());
        assert_eq!(reason, FlushReason::QueueDrained, "zero delay must not wait for stragglers");
    }

    #[test]
    fn pop_batch_of_one_behaves_like_pop() {
        let q = DispatchQueue::new(8, WaitMode::Block);
        q.push(5);
        let (batch, reason) = q.pop_batch(1, Duration::from_millis(50)).unwrap();
        assert_eq!(batch, vec![5]);
        assert_eq!(reason, FlushReason::SizeFull);
    }

    /// A batch whose first member was queued already parks only for a
    /// straggler, and that timed wake-up is not an Active-Exe sample: the
    /// worker was running a batch already.
    #[test]
    fn pop_batch_records_no_active_exe_for_a_straggler() {
        let q = DispatchQueue::new(8, WaitMode::Block);
        q.push(1);
        let q2 = q.clone();
        let producer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            assert!(q2.push(2));
        });
        // The push, not the timeout, ends the park.
        let (batch, reason) = q.pop_batch(2, Duration::from_secs(1)).unwrap();
        producer.join().unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(reason, FlushReason::SizeFull);
        assert_eq!(q.breakdown().histogram(Stage::ActiveExe).count(), 0);
    }

    const WAIT_MODES: [WaitMode; 3] = [WaitMode::Block, WaitMode::Poll, WaitMode::Adaptive];

    #[test]
    fn pop_batch_waits_for_stragglers_within_delay() {
        for wait_mode in WAIT_MODES {
            let q = DispatchQueue::new(64, wait_mode);
            q.push(1);
            let q2 = q.clone();
            let producer = thread::spawn(move || {
                thread::sleep(Duration::from_millis(10));
                assert!(q2.push(2));
                assert!(q2.push(3));
            });
            let (batch, reason) = q.pop_batch(3, Duration::from_millis(500)).unwrap();
            producer.join().unwrap();
            assert_eq!(batch, vec![1, 2, 3], "{wait_mode:?}");
            assert_eq!(reason, FlushReason::SizeFull, "{wait_mode:?}");
        }
    }

    #[test]
    fn pop_batch_flushes_partial_on_delay_expiry() {
        for wait_mode in WAIT_MODES {
            let q = DispatchQueue::new(64, wait_mode);
            q.push(9);
            let (batch, reason) = q.pop_batch(8, Duration::from_millis(5)).unwrap();
            assert_eq!(batch, vec![9], "{wait_mode:?}");
            assert_eq!(reason, FlushReason::DelayExpired, "{wait_mode:?}");
        }
    }

    #[test]
    fn pop_batch_close_flushes_partial() {
        let q = DispatchQueue::new(64, WaitMode::Block);
        q.push(1);
        q.push(2);
        let q2 = q.clone();
        let popper = thread::spawn(move || q2.pop_batch(8, Duration::from_secs(5)).unwrap());
        thread::sleep(Duration::from_millis(20));
        q.close();
        let (batch, reason) = popper.join().unwrap();
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(reason, FlushReason::QueueDrained);
        assert_eq!(q.pop_batch(8, Duration::ZERO), None, "closed and drained");
    }

    #[test]
    fn pop_batch_polling_mode_drains() {
        let q = DispatchQueue::new(64, WaitMode::Poll);
        for i in 0..6 {
            assert!(q.push(i));
        }
        let (batch, reason) = q.pop_batch(6, Duration::from_millis(5)).unwrap();
        assert_eq!(batch, (0..6).collect::<Vec<_>>());
        assert_eq!(reason, FlushReason::SizeFull);
        q.push(7);
        let (batch, reason) = q.pop_batch(4, Duration::from_millis(5)).unwrap();
        assert_eq!(batch, vec![7]);
        assert_eq!(reason, FlushReason::DelayExpired);
    }

    #[test]
    fn pop_batch_preserves_fifo_across_batches() {
        let q = DispatchQueue::new(1 << 12, WaitMode::Block);
        for i in 0..1000u32 {
            assert!(q.push(i));
        }
        q.close();
        let mut got = Vec::new();
        while let Some((batch, _)) = q.pop_batch(7, Duration::ZERO) {
            got.extend(batch);
        }
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn many_producers_many_consumers() {
        let q = DispatchQueue::new(1 << 14, WaitMode::Block);
        let mut producers = Vec::new();
        for p in 0..4 {
            let q = q.clone();
            producers.push(thread::spawn(move || {
                for i in 0..1000u32 {
                    while !q.push(p * 1000 + i) {
                        thread::yield_now();
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..4 {
            let q = q.clone();
            consumers.push(thread::spawn(move || {
                let mut count = 0u32;
                while q.pop().is_some() {
                    count += 1;
                }
                count
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 4000);
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};

    /// Shutdown must wake every parked worker: `close` sets the flag under
    /// the queue mutex and broadcasts, so no schedule may leave a consumer
    /// parked forever (the checker reports a lost wakeup if one exists).
    #[test]
    fn close_wakes_all_blocked_workers() {
        let report = Checker::new()
            .check(|| {
                let q = DispatchQueue::<u32>::new(4, WaitMode::Block);
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let q = q.clone();
                        thread::spawn(move || q.pop())
                    })
                    .collect();
                q.close();
                for worker in workers {
                    assert_eq!(worker.join().unwrap(), None);
                }
            })
            .expect("no interleaving may strand a parked worker");
        assert!(report.iterations > 1, "exploration must try preempting schedules");
    }

    /// A push racing the consumer's decision to park: the consumer gets the
    /// item in every schedule — woken if the push found it parked, without
    /// a wake-up if the push came first — and both orders are reached.
    #[test]
    fn push_racing_a_parking_consumer_never_loses_the_wakeup() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Schedules in which the push [woke nobody, woke the consumer].
        let outcomes = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let tally = outcomes.clone();
        Checker::new()
            .check(move || {
                let q = DispatchQueue::<u32>::new(4, WaitMode::Block);
                let consumer = {
                    let q = q.clone();
                    thread::spawn(move || q.pop())
                };
                q.try_push(7).unwrap();
                assert_eq!(consumer.join().unwrap(), Some(7));
                // A consumer that parked records how long its wake-up took.
                let woken = q.breakdown().histogram(Stage::ActiveExe).count() > 0;
                tally[usize::from(woken)].fetch_add(1, Ordering::Relaxed);
            })
            .expect("no schedule may leave the consumer parked beside a queued item");
        assert!(outcomes.iter().all(|n| n.load(Ordering::Relaxed) > 0), "both orders");
    }

    /// Two contending batch-poppers over three queued items: in every
    /// interleaving each item lands in exactly one batch, exactly once,
    /// and both workers terminate (close must wake a popper blocked on
    /// its first element, with any partial batch intact).
    #[test]
    fn contended_pop_batch_delivers_every_element_exactly_once() {
        Checker::new()
            .check(|| {
                let q = DispatchQueue::<u32>::new(8, WaitMode::Block);
                for i in 0..3 {
                    assert!(q.push(i));
                }
                q.close();
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let q = q.clone();
                        thread::spawn(move || {
                            let mut got = Vec::new();
                            while let Some((batch, _reason)) =
                                q.pop_batch(2, std::time::Duration::ZERO)
                            {
                                assert!(!batch.is_empty(), "flushed batches are never empty");
                                assert!(batch.len() <= 2, "batch must respect max_size");
                                got.extend(batch);
                            }
                            got
                        })
                    })
                    .collect();
                let mut all: Vec<u32> =
                    workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
                all.sort_unstable();
                assert_eq!(all, vec![0, 1, 2], "every element exactly once");
            })
            .expect("batched delivery must be exactly-once in every schedule");
    }

    /// Close must wake a batch-popper parked waiting for its *first*
    /// element, in every schedule — the batched analog of
    /// `close_wakes_all_blocked_workers`.
    #[test]
    fn close_wakes_batch_poppers() {
        Checker::new()
            .check(|| {
                let q = DispatchQueue::<u32>::new(4, WaitMode::Block);
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let q = q.clone();
                        thread::spawn(move || q.pop_batch(4, std::time::Duration::ZERO))
                    })
                    .collect();
                q.close();
                for worker in workers {
                    assert_eq!(worker.join().unwrap(), None);
                }
            })
            .expect("no interleaving may strand a parked batch-popper");
    }

    /// One item, two contending workers: in every interleaving exactly one
    /// worker receives it and the other drains to `None`.
    #[test]
    fn contended_pop_delivers_exactly_once() {
        Checker::new()
            .check(|| {
                let q = DispatchQueue::<u32>::new(4, WaitMode::Block);
                assert!(q.push(7));
                q.close();
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let q = q.clone();
                        thread::spawn(move || q.pop())
                    })
                    .collect();
                let got: Vec<Option<u32>> =
                    workers.into_iter().map(|w| w.join().unwrap()).collect();
                assert_eq!(
                    got.iter().flatten().count(),
                    1,
                    "item must be delivered exactly once, got {got:?}"
                );
                assert!(got.contains(&Some(7)));
            })
            .expect("delivery must be exactly-once in every schedule");
    }
}
