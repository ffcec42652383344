//! Fault-tolerant scatter–gather: hedging, retries, circuit breakers.
//!
//! [`FanoutGroup`] propagates a single slow or dead leaf straight into
//! every request — the exact failure mode that dominates end-to-end tails
//! once a service is a fan-out of microservices. [`ResilientFanout`]
//! wraps a group with the standard tail-tolerance toolkit:
//!
//! * **Hedged requests** — after a fixed delay a duplicate probe is
//!   issued to the slot's next target; the first response wins
//!   and the loser's late completion is discarded. The win is decided by
//!   one atomic claim per slot, model-checked under `musuite_check`.
//! * **Bounded retry with backoff** — a failed attempt re-routes to the
//!   slot's alternate targets (e.g. `ReplicaSet::read_replica` siblings)
//!   after a fixed backoff, at most `retries` times.
//! * **Per-leaf circuit breakers** — consecutive failures open the
//!   breaker; while open, attempts shed instantly with
//!   [`RpcError::CircuitOpen`] instead of burning a timeout; after a
//!   cooldown exactly one half-open probe decides whether to close it.
//!   Opening a breaker also schedules a background reconnect that swaps
//!   broken [`RpcClient`]s for fresh connections.
//! * **Partial-result gather** — per-slot failures stay per-slot (the
//!   [`FanoutResult`] keeps which leaf failed and why), so mid-tiers can
//!   degrade to best-effort answers instead of failing the request.
//!
//! With the default [`ResilientConfig`] every knob is off or inert and a
//! scatter behaves exactly like [`FanoutGroup::scatter`] plus breaker
//! accounting; the production fast path stays unchanged.
//!
//! [`RpcClient`]: crate::client::RpcClient

use crate::buf::Payload;
use crate::client::CallOptions;
use crate::error::RpcError;
use crate::fanout::{FanoutGroup, FanoutResult, Gather, ScatterState};
use crate::timer::{Fate, Timer};
use bytes::Bytes;
use musuite_check::atomic::{AtomicBool, AtomicUsize, Ordering};
use musuite_check::sync::Mutex;
use musuite_codec::Priority;
use musuite_telemetry::clock::Clock;
use musuite_telemetry::resilience::{ResilienceCounters, ResilienceEvent};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Per-leaf circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker.
    pub threshold: u32,
    /// How long an open breaker sheds before admitting a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig { threshold: 8, cooldown: Duration::from_millis(100) }
    }
}

/// When a hedge (duplicate) probe is fired for a still-pending attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HedgePolicy {
    /// Never hedge.
    Off,
    /// Hedge any attempt still pending after this fixed delay.
    After(Duration),
}

/// Tuning for [`ResilientFanout`]. The default is deliberately inert:
/// no attempt deadline, no hedging, no retries — only the breaker is
/// armed, with a threshold high enough that ordinary tests never trip it.
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// Deadline applied to each individual attempt (primary, hedge, or
    /// retry). `None` leaves attempts unbounded, as in a plain scatter.
    pub attempt_timeout: Option<Duration>,
    /// Hedging policy.
    pub hedge: HedgePolicy,
    /// Retries per slot after the primary attempt fails.
    pub retries: u32,
    /// Delay before each retry.
    pub backoff: Duration,
    /// Circuit-breaker tuning; `None` disables breakers entirely.
    pub breaker: Option<BreakerConfig>,
}

impl Default for ResilientConfig {
    fn default() -> ResilientConfig {
        ResilientConfig {
            attempt_timeout: None,
            hedge: HedgePolicy::Off,
            retries: 0,
            backoff: Duration::from_millis(1),
            breaker: Some(BreakerConfig::default()),
        }
    }
}

/// The breaker's admission decision for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Allow,
    /// Breaker was open, cooldown elapsed: this attempt is the single
    /// half-open probe.
    Probe,
    /// Breaker open (or a probe is already in flight): shed the attempt.
    Reject,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until_ns: u64 },
    HalfOpen,
}

struct BreakerInner {
    state: BreakerState,
    consecutive: u32,
}

/// Per-leaf circuit breaker: closed → open after `threshold` consecutive
/// failures → exactly one half-open probe after `cooldown` → closed on
/// probe success, reopened on probe failure.
///
/// Time is passed in explicitly (nanoseconds) so state transitions are
/// pure and model-checkable.
pub struct CircuitBreaker {
    inner: Mutex<BreakerInner>,
    threshold: u32,
    cooldown_ns: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            inner: Mutex::new(BreakerInner { state: BreakerState::Closed, consecutive: 0 }),
            threshold: config.threshold.max(1),
            cooldown_ns: config.cooldown.as_nanos() as u64,
        }
    }

    /// Admission decision for an attempt starting at `now_ns`. At most one
    /// caller per open period observes [`Admission::Probe`].
    pub fn admit(&self, now_ns: u64) -> Admission {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open { until_ns } if now_ns >= until_ns => {
                inner.state = BreakerState::HalfOpen;
                Admission::Probe
            }
            BreakerState::Open { .. } => Admission::Reject,
            BreakerState::HalfOpen => Admission::Reject,
        }
    }

    /// Records a successful attempt. Returns `true` if this success closed
    /// a non-closed breaker (the half-open probe succeeded, or a late
    /// response from before the breaker opened proved the leaf healthy).
    pub fn on_success(&self) -> bool {
        let mut inner = self.inner.lock();
        inner.consecutive = 0;
        let closed_now = inner.state != BreakerState::Closed;
        inner.state = BreakerState::Closed;
        closed_now
    }

    /// Records a failed attempt at `now_ns`. Returns `true` if this
    /// failure opened the breaker (threshold reached, or the half-open
    /// probe failed); failures against an already-open breaker do not
    /// extend the cooldown.
    pub fn on_failure(&self, now_ns: u64) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open { until_ns: now_ns + self.cooldown_ns };
                true
            }
            BreakerState::Open { .. } => false,
            BreakerState::Closed => {
                inner.consecutive += 1;
                if inner.consecutive >= self.threshold {
                    inner.consecutive = 0;
                    inner.state = BreakerState::Open { until_ns: now_ns + self.cooldown_ns };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether the breaker is currently shedding (open, cooldown pending).
    pub fn is_open(&self) -> bool {
        matches!(self.inner.lock().state, BreakerState::Open { .. } | BreakerState::HalfOpen)
    }
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CircuitBreaker")
            .field("state", &inner.state)
            .field("consecutive", &inner.consecutive)
            .finish()
    }
}

/// One slot of a resilient scatter: the primary leaf plus the alternates
/// that hedges and retries may be routed to (typically the other members
/// of the primary's replica set).
#[derive(Debug, Clone)]
pub struct LeafCall {
    /// Primary target leaf.
    pub leaf: usize,
    /// Method id sent to whichever target serves the slot.
    pub method: u32,
    /// Request payload (reference-counted; clones share the allocation).
    pub payload: Payload,
    /// Fail-over targets, tried in order by hedges and retries.
    pub alternates: Vec<usize>,
}

impl LeafCall {
    /// A call to `leaf` with no alternates: hedges and retries stay on
    /// the same leaf (a different pooled connection may serve them).
    pub fn new(leaf: usize, method: u32, payload: impl Into<Payload>) -> LeafCall {
        LeafCall { leaf, method, payload: payload.into(), alternates: Vec::new() }
    }

    /// Adds fail-over targets for hedges and retries.
    pub fn with_alternates(mut self, alternates: Vec<usize>) -> LeafCall {
        self.alternates = alternates;
        self
    }
}

/// Per-slot control block shared by the primary attempt, its hedge, its
/// retries, and the timer thread.
///
/// Invariants (model-checked below):
/// * `done` is claimed by `swap` — exactly one attempt delivers to the
///   gather, so the count-down merge sees each slot exactly once.
/// * `pending` counts live obligations (in-flight attempts + scheduled
///   hedge/retry tasks). Whoever drops it to zero without a prior claim
///   delivers the slot's last error, so the gather always completes.
struct SlotCtl {
    index: usize,
    method: u32,
    payload: Payload,
    /// The slot's rotation is the primary, then each alternate (none of
    /// them the primary, none twice), then round again.
    primary: usize,
    alternates: Vec<usize>,
    rotation: AtomicUsize,
    done: AtomicBool,
    pending: AtomicUsize,
    retries_left: AtomicUsize,
    last_error: Mutex<Option<RpcError>>,
    gather: Arc<dyn Gather>,
    /// Absolute end-to-end budget for this slot: every attempt (primary,
    /// hedge, retry) is bounded by what remains of it at launch time, so
    /// retries cannot extend the caller's deadline.
    deadline: Option<Instant>,
    /// Priority class every attempt carries on the wire.
    priority: Priority,
}

impl SlotCtl {
    /// Claims the right to deliver this slot's result; `true` exactly once.
    fn try_claim(&self) -> bool {
        !self.done.swap(true, Ordering::AcqRel)
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Number of distinct targets in the slot's rotation.
    fn target_count(&self) -> usize {
        1 + self.alternates.len()
    }

    /// Next target in the slot's rotation (primary, alternates, wrap).
    fn next_target(&self) -> usize {
        match self.rotation.fetch_add(1, Ordering::Relaxed) % self.target_count() {
            0 => self.primary,
            turn => self.alternates[turn - 1],
        }
    }

    /// Consumes one retry credit if any remain.
    fn take_retry(&self) -> bool {
        let mut current = self.retries_left.load(Ordering::Acquire);
        while current > 0 {
            match self.retries_left.compare_exchange(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
        false
    }

    /// Drops one obligation; the last one out delivers the stored error
    /// (unless a success already claimed the slot).
    fn release_pending(self: &Arc<Self>) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 && self.try_claim() {
            let error = self.last_error.lock().take().unwrap_or(RpcError::ShuttingDown);
            self.gather.arrive(self.index, Err(error));
        }
    }
}

enum TimerTask {
    Hedge { slot: Arc<SlotCtl> },
    Retry { slot: Arc<SlotCtl>, target: usize },
    Reconnect { leaf: usize },
}

/// A [`FanoutGroup`] wrapped with hedging, retry, circuit-breaker, and
/// background-reconnect machinery (see module docs).
///
/// Shutdown and drop **abort**: queued hedges and retries are cancelled
/// (each slot still delivers exactly once, with its last error) and every
/// leaf connection is closed, so in-flight attempts fail as transport
/// errors; nothing is waited for.
///
/// # Examples
///
/// See the crate's integration tests and `musuite-core`'s mid-tier, which
/// routes every scatter through this wrapper.
pub struct ResilientFanout {
    group: Arc<FanoutGroup>,
    config: ResilientConfig,
    breakers: Vec<CircuitBreaker>,
    counters: ResilienceCounters,
    timers: Timer<TimerTask>,
    clock: Clock,
}

impl ResilientFanout {
    /// Wraps `group` with the given resilience tuning.
    pub fn new(group: Arc<FanoutGroup>, config: ResilientConfig) -> Arc<ResilientFanout> {
        let breakers = match config.breaker {
            Some(breaker) => (0..group.len()).map(|_| CircuitBreaker::new(breaker)).collect(),
            None => Vec::new(),
        };
        Arc::new_cyclic(|owner: &Weak<ResilientFanout>| {
            let owner = owner.clone();
            let timers = Timer::new("musuite-resilient-timer", move |task, fate| {
                match (fate, owner.upgrade()) {
                    (Fate::Due, Some(rf)) => rf.run_task(task),
                    // Cancelled, or the owner is gone: a slot-bound task
                    // still owes its pending release — without it, a
                    // gather whose hedge/retry was queued never completes.
                    _ => match task {
                        TimerTask::Hedge { slot } | TimerTask::Retry { slot, .. } => {
                            slot.release_pending()
                        }
                        TimerTask::Reconnect { .. } => {}
                    },
                }
            });
            ResilientFanout {
                group,
                config,
                breakers,
                counters: ResilienceCounters::new(),
                timers,
                clock: Clock::new(),
            }
        })
    }

    /// The wrapped group.
    pub fn group(&self) -> &Arc<FanoutGroup> {
        &self.group
    }

    /// The active tuning.
    pub fn config(&self) -> &ResilientConfig {
        &self.config
    }

    /// This wrapper's event counters.
    pub fn counters(&self) -> &ResilienceCounters {
        &self.counters
    }

    /// Number of leaves in the wrapped group.
    pub fn len(&self) -> usize {
        self.group.len()
    }

    /// Returns `true` if the wrapped group has no leaves.
    pub fn is_empty(&self) -> bool {
        self.group.is_empty()
    }

    fn tick(&self, event: ResilienceEvent) {
        self.counters.incr(event);
    }

    fn admit(&self, leaf: usize) -> Admission {
        match self.breakers.get(leaf) {
            None => Admission::Allow,
            Some(breaker) => breaker.admit(self.clock.now_ns()),
        }
    }

    /// Scatters `calls` with the full resilience pipeline and runs
    /// `on_complete` when every slot has delivered (a winning response or
    /// its final error). Slot order in the result matches `calls` order.
    ///
    /// `opts.timeout` is the end-to-end bound (the caller's remaining
    /// budget) and `opts.priority` rides on every attempt's wire frame.
    /// Each attempt — primary, hedge, or retry — is clamped to whatever is
    /// left of the budget when it launches, so a retry after backoff
    /// departs with a *smaller* budget than the primary, and a slot whose
    /// budget is exhausted fails fast instead of issuing work nobody is
    /// waiting for.
    ///
    /// An empty call list completes immediately on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if any target index is out of bounds.
    pub fn scatter<F>(self: &Arc<Self>, calls: Vec<LeafCall>, opts: CallOptions, on_complete: F)
    where
        F: FnOnce(FanoutResult) + Send + 'static,
    {
        let CallOptions { timeout, priority } = opts;
        let deadline = timeout.map(|limit| Instant::now() + limit);
        if calls.is_empty() {
            on_complete(FanoutResult { replies: Vec::new(), elapsed_ns: 0 });
            return;
        }
        for call in &calls {
            assert!(call.leaf < self.group.len(), "leaf index {} out of bounds", call.leaf);
            for &alt in &call.alternates {
                assert!(alt < self.group.len(), "alternate index {alt} out of bounds");
            }
        }
        let gather: Arc<dyn Gather> = ScatterState::new(calls.len(), self.clock, on_complete);
        let hedge_delay = match self.config.hedge {
            HedgePolicy::Off => None,
            HedgePolicy::After(delay) => Some(delay),
        };
        for (index, call) in calls.into_iter().enumerate() {
            // The caller's list becomes the slot's, minus the primary and
            // repeats; the common slot without alternates owns no list.
            let mut alternates = call.alternates;
            let mut kept = 0;
            for i in 0..alternates.len() {
                let alt = alternates[i];
                if alt != call.leaf && !alternates[..kept].contains(&alt) {
                    alternates[kept] = alt;
                    kept += 1;
                }
            }
            alternates.truncate(kept);
            let slot = Arc::new(SlotCtl {
                index,
                method: call.method,
                payload: call.payload,
                primary: call.leaf,
                alternates,
                rotation: AtomicUsize::new(1),
                done: AtomicBool::new(false),
                pending: AtomicUsize::new(1 + usize::from(hedge_delay.is_some())),
                retries_left: AtomicUsize::new(self.config.retries as usize),
                last_error: Mutex::new(None),
                gather: gather.clone(),
                deadline,
                priority,
            });
            if let Some(delay) = hedge_delay {
                self.timers
                    .schedule(Instant::now() + delay, TimerTask::Hedge { slot: slot.clone() });
            }
            self.launch_attempt(&slot, slot.primary, false);
        }
    }

    /// Blocking variant of [`ResilientFanout::scatter`].
    pub fn scatter_wait(self: &Arc<Self>, calls: Vec<LeafCall>, opts: CallOptions) -> FanoutResult {
        let (tx, rx) = std::sync::mpsc::channel();
        self.scatter(calls, opts, move |result| {
            let _ = tx.send(result);
        });
        crate::buf::flush_outbox();
        // lint: allow(expect): every slot delivers exactly once, so the completion always runs
        rx.recv().expect("resilient scatter completion always runs")
    }

    /// Issues one attempt for `slot` against `target` (or the next
    /// breaker-admitted target in its rotation). Consumes one pending
    /// obligation on every path: transferred into the attempt's callback,
    /// or released through `finish_attempt` if nothing could be issued.
    fn launch_attempt(self: &Arc<Self>, slot: &Arc<SlotCtl>, target: usize, is_hedge: bool) {
        let mut target = target;
        let mut admitted = None;
        for _ in 0..slot.target_count() {
            match self.admit(target) {
                Admission::Allow => {
                    admitted = Some(target);
                    break;
                }
                Admission::Probe => {
                    self.tick(ResilienceEvent::BreakerProbe);
                    admitted = Some(target);
                    break;
                }
                Admission::Reject => target = slot.next_target(),
            }
        }
        let Some(target) = admitted else {
            // Every candidate shed: fail the attempt without charging any
            // breaker (they are already open).
            self.finish_attempt(slot, None, RpcError::CircuitOpen);
            return;
        };
        if self.group.live_count(target) == 0 {
            match self.group.reconnect(target) {
                Ok(replaced) => {
                    if replaced > 0 {
                        self.tick(ResilienceEvent::Reconnect);
                    }
                }
                Err(error) => {
                    self.finish_attempt(slot, Some(target), error);
                    return;
                }
            }
        }
        // Per-hop budget decay: the attempt is bounded by the tighter of
        // the configured attempt deadline and what remains of the slot's
        // end-to-end budget right now (a retry after backoff sees less
        // than the primary did).
        let remaining =
            slot.deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
        if remaining.is_some_and(|left| left.is_zero()) {
            // Budget exhausted before launch: fail without touching the
            // wire and without charging the target's breaker.
            self.finish_attempt(slot, None, RpcError::TimedOut);
            return;
        }
        let attempt_limit = match (self.config.attempt_timeout, remaining) {
            (Some(configured), Some(left)) => Some(configured.min(left)),
            (configured, left) => configured.or(left),
        };
        let this = self.clone();
        let slot_cb = slot.clone();
        let callback = move |result: Result<Bytes, RpcError>| {
            this.on_attempt_done(&slot_cb, target, is_hedge, result);
        };
        // Through the group's request path, so attempts from concurrent
        // scatters merge into one envelope when batching is enabled.
        let opts = CallOptions { timeout: attempt_limit, priority: slot.priority };
        self.group.issue(target, slot.method, slot.payload.clone(), opts, callback);
    }

    /// Runs on the response pick-up (or reaper) thread when one attempt
    /// completes.
    fn on_attempt_done(
        self: &Arc<Self>,
        slot: &Arc<SlotCtl>,
        target: usize,
        is_hedge: bool,
        result: Result<Bytes, RpcError>,
    ) {
        match result {
            Ok(bytes) => {
                if let Some(breaker) = self.breakers.get(target) {
                    if breaker.on_success() {
                        self.tick(ResilienceEvent::BreakerClosed);
                    }
                }
                if slot.try_claim() {
                    if is_hedge {
                        self.tick(ResilienceEvent::HedgeWon);
                    }
                    slot.gather.arrive(slot.index, Ok(bytes));
                }
                slot.release_pending();
            }
            Err(error) => self.finish_attempt(slot, Some(target), error),
        }
    }

    /// Accounts a failed attempt: charges the target's breaker, then either
    /// schedules a retry (transferring the obligation to the timer) or
    /// releases it — the last release delivers the error to the gather.
    fn finish_attempt(
        self: &Arc<Self>,
        slot: &Arc<SlotCtl>,
        target: Option<usize>,
        error: RpcError,
    ) {
        if let Some(target) = target {
            if let Some(breaker) = self.breakers.get(target) {
                if breaker.on_failure(self.clock.now_ns()) {
                    self.tick(ResilienceEvent::BreakerOpened);
                    // Try to heal the leaf in the background so the
                    // half-open probe has a fresh connection to use.
                    if let Some(breaker_cfg) = &self.config.breaker {
                        self.timers.schedule(
                            Instant::now() + breaker_cfg.cooldown,
                            TimerTask::Reconnect { leaf: target },
                        );
                    }
                }
            }
        }
        if slot.is_done() {
            slot.release_pending();
            return;
        }
        *slot.last_error.lock() = Some(error);
        if slot.take_retry() {
            self.tick(ResilienceEvent::Retry);
            let next = slot.next_target();
            self.timers.schedule(
                Instant::now() + self.config.backoff,
                TimerTask::Retry { slot: slot.clone(), target: next },
            );
        } else {
            slot.release_pending();
        }
    }

    /// One due hedge, retry or reconnect; runs on the timer thread.
    fn run_task(self: &Arc<Self>, task: TimerTask) {
        match task {
            // Another attempt already delivered: nothing left to launch.
            TimerTask::Hedge { slot } | TimerTask::Retry { slot, .. } if slot.is_done() => {
                slot.release_pending()
            }
            TimerTask::Hedge { slot } => {
                self.tick(ResilienceEvent::HedgeFired);
                let target = slot.next_target();
                self.launch_attempt(&slot, target, true);
            }
            TimerTask::Retry { slot, target } => self.launch_attempt(&slot, target, false),
            TimerTask::Reconnect { leaf } => {
                if let Ok(replaced) = self.group.reconnect(leaf) {
                    if replaced > 0 {
                        self.tick(ResilienceEvent::Reconnect);
                    }
                }
            }
        }
    }

    /// Cancels every queued hedge/retry task (settling them so in-flight
    /// gathers complete) and closes every leaf connection, so in-flight
    /// leaf calls fail fast as transport errors. Idempotent.
    pub fn shutdown(&self) {
        self.timers.shutdown();
        self.group.shutdown_all();
    }
}

impl Drop for ResilientFanout {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ResilientFanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientFanout")
            .field("leaves", &self.group.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::error::FailureKind;
    use crate::fault::{FaultPlan, FaultRule};
    use crate::server::Server;
    use crate::service::{RequestContext, Service};

    struct TaggedEcho(u8);
    impl Service for TaggedEcho {
        fn call(&self, ctx: RequestContext) {
            let mut reply = vec![self.0];
            reply.extend_from_slice(ctx.payload());
            ctx.respond_ok(reply);
        }
    }

    fn leaf_cluster(n: u8) -> (Vec<Server>, Arc<FanoutGroup>) {
        let servers: Vec<Server> = (0..n)
            .map(|i| Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(i))).unwrap())
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let group = Arc::new(FanoutGroup::connect(&addrs).unwrap());
        (servers, group)
    }

    #[test]
    fn default_config_matches_plain_scatter() {
        let (_servers, group) = leaf_cluster(3);
        let rf = ResilientFanout::new(group, ResilientConfig::default());
        let calls: Vec<_> = (0..3).map(|leaf| LeafCall::new(leaf, 1, vec![9u8])).collect();
        let result = rf.scatter_wait(calls, CallOptions::default());
        assert!(result.all_ok());
        for (leaf, reply) in result.successes().iter().enumerate() {
            assert_eq!(reply, &[leaf as u8, 9]);
        }
        assert_eq!(rf.counters().snapshot().total(), 0, "inert config ticks nothing");
    }

    #[test]
    fn empty_scatter_completes_immediately() {
        let (_servers, group) = leaf_cluster(1);
        let rf = ResilientFanout::new(group, ResilientConfig::default());
        let result = rf.scatter_wait(Vec::new(), CallOptions::default());
        assert!(result.replies.is_empty());
    }

    #[test]
    fn attempts_route_through_merge_batching() {
        use crate::config::BatchPolicy;
        let servers: Vec<Server> = (0..2)
            .map(|i| Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(i))).unwrap())
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let group = Arc::new(
            FanoutGroup::connect(&addrs)
                .unwrap()
                .with_batching(BatchPolicy::new(4, Duration::from_millis(10))),
        );
        let rf = ResilientFanout::new(group.clone(), ResilientConfig::default());
        let mut handles = Vec::new();
        for round in 0..4u8 {
            let rf = rf.clone();
            handles.push(std::thread::spawn(move || {
                let calls: Vec<_> =
                    (0..2).map(|leaf| LeafCall::new(leaf, 1, vec![round])).collect();
                let result = rf.scatter_wait(calls, CallOptions::default());
                assert!(result.all_ok());
                for (leaf, reply) in result.successes().iter().enumerate() {
                    assert_eq!(reply, &[leaf as u8, round]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = group.batch_stats().expect("batching is on");
        assert_eq!(stats.members(), 8, "every resilient attempt takes the merge path");
    }

    #[test]
    fn retry_fails_over_to_alternate_replica() {
        let (servers, group) = leaf_cluster(2);
        servers[0].shutdown();
        std::thread::sleep(Duration::from_millis(50));
        let config = ResilientConfig {
            retries: 2,
            backoff: Duration::from_millis(5),
            breaker: None,
            ..ResilientConfig::default()
        };
        let rf = ResilientFanout::new(group, config);
        let call = LeafCall::new(0, 1, vec![7u8]).with_alternates(vec![1]);
        let result = rf.scatter_wait(vec![call], CallOptions::default());
        assert!(result.all_ok(), "retry must fail over to the healthy replica: {result:?}");
        assert_eq!(result.successes()[0], [1u8, 7], "served by the alternate leaf");
        assert!(rf.counters().get(ResilienceEvent::Retry) >= 1);
    }

    #[test]
    fn exhausted_retries_deliver_the_last_error() {
        let (servers, group) = leaf_cluster(1);
        servers[0].shutdown();
        std::thread::sleep(Duration::from_millis(50));
        let config = ResilientConfig {
            retries: 1,
            backoff: Duration::from_millis(2),
            breaker: None,
            ..ResilientConfig::default()
        };
        let rf = ResilientFanout::new(group, config);
        let result = rf.scatter_wait(vec![LeafCall::new(0, 1, vec![1u8])], CallOptions::default());
        assert_eq!(result.err_count(), 1);
        assert_eq!(result.kind_of(0), Some(FailureKind::Transport));
        assert_eq!(rf.counters().get(ResilienceEvent::Retry), 1);
    }

    #[test]
    fn breaker_opens_then_sheds_with_circuit_open() {
        let (servers, group) = leaf_cluster(1);
        servers[0].shutdown();
        std::thread::sleep(Duration::from_millis(50));
        let config = ResilientConfig {
            breaker: Some(BreakerConfig { threshold: 2, cooldown: Duration::from_secs(30) }),
            ..ResilientConfig::default()
        };
        let rf = ResilientFanout::new(group, config);
        // First calls fail as transport errors and charge the breaker.
        for _ in 0..2 {
            let result =
                rf.scatter_wait(vec![LeafCall::new(0, 1, vec![1u8])], CallOptions::default());
            assert_eq!(result.err_count(), 1);
        }
        assert_eq!(rf.counters().get(ResilienceEvent::BreakerOpened), 1);
        // Now the breaker sheds instantly without touching the socket.
        let result = rf.scatter_wait(vec![LeafCall::new(0, 1, vec![1u8])], CallOptions::default());
        assert_eq!(result.kind_of(0), Some(FailureKind::ShedBreaker));
        assert!(matches!(result.replies[0], Err(RpcError::CircuitOpen)));
    }

    #[test]
    fn exhausted_budget_fails_fast_and_bounds_the_retry_ladder() {
        use std::net::TcpListener;
        // A "leaf" that accepts but never responds: every attempt can only
        // end by timeout, so an unbounded retry ladder would stall the
        // gather for retries × attempt-timeout.
        let stuck = TcpListener::bind("127.0.0.1:0").unwrap();
        let stuck_addr = stuck.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((stream, _)) = stuck.accept() {
                held.push(stream);
            }
        });
        let group = Arc::new(FanoutGroup::connect(&[stuck_addr]).unwrap());
        let config = ResilientConfig {
            retries: 3,
            backoff: Duration::from_millis(10),
            ..ResilientConfig::default()
        };
        let rf = ResilientFanout::new(group, config);
        let started = Instant::now();
        let opts = CallOptions {
            priority: Priority::Sheddable,
            ..CallOptions::within(Duration::from_millis(80))
        };
        let result = rf.scatter_wait(vec![LeafCall::new(0, 1, vec![1u8])], opts);
        assert_eq!(result.err_count(), 1);
        assert!(
            matches!(result.replies[0], Err(RpcError::TimedOut)),
            "got {:?}",
            result.replies[0]
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "an 80ms end-to-end budget must bound the whole retry ladder, took {:?}",
            started.elapsed()
        );
        drop(rf);
        drop(hold);
    }

    #[test]
    fn breaker_recovers_through_half_open_probe() {
        let (servers, _) = leaf_cluster(1);
        let addrs = [servers[0].local_addr()];
        // While armed, leaf 0 is dead: every send disconnects, reconnects
        // are refused. Disarming simulates the leaf coming back.
        let plan = FaultPlan::builder(23, 1).dead_leaf(0).build();
        let group =
            Arc::new(FanoutGroup::connect_with_plan_via(&addrs, 1, Some(&plan), None).unwrap());
        let config = ResilientConfig {
            breaker: Some(BreakerConfig { threshold: 1, cooldown: Duration::from_millis(30) }),
            ..ResilientConfig::default()
        };
        let rf = ResilientFanout::new(group, config);
        plan.arm();
        let result = rf.scatter_wait(vec![LeafCall::new(0, 1, vec![1u8])], CallOptions::default());
        assert_eq!(result.err_count(), 1);
        assert_eq!(rf.counters().get(ResilienceEvent::BreakerOpened), 1);
        // Shed while the cooldown is pending.
        let result = rf.scatter_wait(vec![LeafCall::new(0, 1, vec![1u8])], CallOptions::default());
        assert!(matches!(result.replies[0], Err(RpcError::CircuitOpen)), "{result:?}");
        // The leaf recovers; the half-open probe reconnects and closes.
        plan.disarm();
        std::thread::sleep(Duration::from_millis(60));
        let result = rf.scatter_wait(vec![LeafCall::new(0, 1, vec![2u8])], CallOptions::default());
        assert!(result.all_ok(), "half-open probe must recover: {result:?}");
        assert!(rf.counters().get(ResilienceEvent::BreakerProbe) >= 1);
        assert!(rf.counters().get(ResilienceEvent::BreakerClosed) >= 1);
        assert!(rf.counters().get(ResilienceEvent::Reconnect) >= 1);
    }

    #[test]
    fn hedge_wins_against_a_delayed_primary() {
        let (servers, _) = leaf_cluster(2);
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        // Leaf 0's sends are held back 300ms; leaf 1 is healthy.
        let plan = FaultPlan::builder(21, 2).slow_leaf(0, Duration::from_millis(300)).build();
        let group =
            Arc::new(FanoutGroup::connect_with_plan_via(&addrs, 1, Some(&plan), None).unwrap());
        let config = ResilientConfig {
            hedge: HedgePolicy::After(Duration::from_millis(20)),
            breaker: None,
            ..ResilientConfig::default()
        };
        let rf = ResilientFanout::new(group, config);
        plan.arm();
        let started = Instant::now();
        let call = LeafCall::new(0, 1, vec![3u8]).with_alternates(vec![1]);
        let result = rf.scatter_wait(vec![call], CallOptions::default());
        let elapsed = started.elapsed();
        assert!(result.all_ok(), "hedge must win: {result:?}");
        assert_eq!(result.successes()[0], [1u8, 3], "the hedge's replica answered");
        assert!(
            elapsed < Duration::from_millis(250),
            "hedged call must not wait out the delayed primary: {elapsed:?}"
        );
        assert_eq!(rf.counters().get(ResilienceEvent::HedgeFired), 1);
        assert_eq!(rf.counters().get(ResilienceEvent::HedgeWon), 1);
        // The delayed primary eventually completes; its late response is
        // discarded by the claim, never delivered twice.
        std::thread::sleep(Duration::from_millis(350));
    }

    #[test]
    fn corruption_is_retried_never_returned_as_data() {
        let (servers, _) = leaf_cluster(1);
        let addrs = [servers[0].local_addr()];
        // Every first-of-3 request frame is corrupted on the wire.
        let plan = FaultPlan::builder(22, 1)
            .rule(
                0,
                FaultRule {
                    kind: crate::fault::FaultKind::Corrupt,
                    from: 0,
                    until: 0,
                    every: 1,
                    probability: 1.0,
                },
            )
            .build();
        let group =
            Arc::new(FanoutGroup::connect_with_plan_via(&addrs, 1, Some(&plan), None).unwrap());
        let config = ResilientConfig {
            retries: 2,
            backoff: Duration::from_millis(10),
            attempt_timeout: Some(Duration::from_millis(250)),
            breaker: None,
            ..ResilientConfig::default()
        };
        let rf = ResilientFanout::new(group, config);
        plan.arm();
        let result = rf.scatter_wait(vec![LeafCall::new(0, 1, vec![0xAB])], CallOptions::default());
        assert!(result.all_ok(), "retry after checksum rejection must succeed: {result:?}");
        assert_eq!(result.successes()[0], [0u8, 0xAB], "data intact after retry");
        assert!(rf.counters().get(ResilienceEvent::Retry) >= 1);
        assert!(rf.counters().get(ResilienceEvent::Reconnect) >= 1, "broken conn was replaced");
    }

    #[test]
    fn shutdown_settles_pending_hedges() {
        let (_servers, group) = leaf_cluster(1);
        let config = ResilientConfig {
            hedge: HedgePolicy::After(Duration::from_secs(60)),
            breaker: None,
            ..ResilientConfig::default()
        };
        let rf = ResilientFanout::new(group, config);
        let result = rf.scatter_wait(vec![LeafCall::new(0, 1, vec![5u8])], CallOptions::default());
        assert!(result.all_ok());
        rf.shutdown();
        rf.shutdown();
        // With the leaf gone too, post-shutdown scatters fail fast (the
        // queued hedge settles instantly) instead of hanging on a timer.
        _servers[0].shutdown();
        let started = Instant::now();
        let result = rf.scatter_wait(vec![LeafCall::new(0, 1, vec![6u8])], CallOptions::default());
        assert_eq!(result.err_count(), 1);
        assert!(started.elapsed() < Duration::from_secs(5), "must not wait for the 60s hedge");
    }

    #[test]
    fn breaker_state_machine_unit() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_nanos(100),
        });
        assert_eq!(breaker.admit(0), Admission::Allow);
        assert!(!breaker.on_failure(0), "below threshold stays closed");
        assert!(breaker.on_failure(0), "threshold opens");
        assert!(breaker.is_open());
        assert_eq!(breaker.admit(50), Admission::Reject, "cooldown pending");
        assert!(!breaker.on_failure(60), "failures while open do not extend cooldown");
        assert_eq!(breaker.admit(100), Admission::Probe, "cooldown elapsed");
        assert_eq!(breaker.admit(100), Admission::Reject, "only one probe");
        assert!(breaker.on_success(), "probe success closes");
        assert!(!breaker.is_open());
        assert!(!breaker.on_success(), "already closed");
        // Re-open, then check that a failed probe reopens immediately.
        assert!(!breaker.on_failure(200), "consecutive count restarted after close");
        assert!(breaker.on_failure(300));
        assert_eq!(breaker.admit(400), Admission::Probe);
        assert!(breaker.on_failure(400), "failed probe reopens");
        assert_eq!(breaker.admit(450), Admission::Reject);
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let (_servers, group) = leaf_cluster(1);
        let rf = ResilientFanout::new(group, ResilientConfig::default());
        assert!(format!("{rf:?}").contains("ResilientFanout"));
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        assert!(format!("{breaker:?}").contains("Closed"));
        let call = LeafCall::new(0, 1, vec![1u8]).with_alternates(vec![2]);
        assert!(format!("{call:?}").contains("alternates"));
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};

    /// Two threads race `on_failure` against a threshold-2 breaker:
    /// exactly one observes the closed → open transition in every
    /// interleaving, so `BreakerOpened` is ticked exactly once.
    #[test]
    fn concurrent_failures_open_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
                    threshold: 2,
                    cooldown: Duration::from_secs(1),
                }));
                let b2 = breaker.clone();
                let racer = thread::spawn(move || b2.on_failure(0));
                let here = breaker.on_failure(0);
                let there = racer.join().unwrap();
                assert_eq!(
                    usize::from(here) + usize::from(there),
                    1,
                    "exactly one failure observes the open transition"
                );
                assert!(breaker.is_open());
            })
            .expect("breaker opening must be exactly-once in every schedule");
        assert!(report.iterations > 1);
    }

    /// Two threads race `admit` against an expired open breaker: exactly
    /// one wins the half-open probe, the other is rejected.
    #[test]
    fn expired_cooldown_admits_exactly_one_probe() {
        Checker::new()
            .check(|| {
                let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
                    threshold: 1,
                    cooldown: Duration::from_nanos(10),
                }));
                assert!(breaker.on_failure(0), "arm: breaker open");
                let b2 = breaker.clone();
                let racer = thread::spawn(move || b2.admit(100));
                let here = breaker.admit(100);
                let there = racer.join().unwrap();
                let probes = [here, there]
                    .iter()
                    .filter(|admission| **admission == Admission::Probe)
                    .count();
                assert_eq!(probes, 1, "exactly one half-open probe per open period");
                assert!(
                    [here, there].contains(&Admission::Reject),
                    "the loser is rejected while the probe is in flight"
                );
            })
            .expect("probe admission must be exactly-once in every schedule");
    }

    /// The hedge-vs-primary race over the real `SlotCtl` + `ScatterState`
    /// machinery: a winning response and a failing attempt resolve
    /// concurrently. In every interleaving the gather merges exactly once,
    /// a success is never displaced by the loser's error, and the loser's
    /// completion path never delivers twice.
    #[test]
    fn hedge_and_primary_claim_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let merged = Arc::new(AtomicUsize::new(0));
                let gather = ScatterState::new(1, Clock::new(), {
                    let merged = merged.clone();
                    move |result: FanoutResult| {
                        assert_eq!(result.replies.len(), 1);
                        assert!(
                            result.replies[0].is_ok(),
                            "a delivered success must never be displaced by the loser"
                        );
                        merged.fetch_add(1, Ordering::AcqRel);
                    }
                });
                let slot = Arc::new(SlotCtl {
                    index: 0,
                    method: 1,
                    payload: Payload::new(),
                    primary: 0,
                    alternates: vec![1],
                    rotation: AtomicUsize::new(1),
                    done: AtomicBool::new(false),
                    // Two obligations in flight: primary and hedge.
                    pending: AtomicUsize::new(2),
                    retries_left: AtomicUsize::new(0),
                    last_error: Mutex::new(None),
                    gather,
                    deadline: None,
                    priority: Priority::Normal,
                });
                // Winner: a successful attempt (primary or hedge — the
                // claim logic is identical).
                let winner = {
                    let slot = slot.clone();
                    thread::spawn(move || {
                        if slot.try_claim() {
                            slot.gather.arrive(slot.index, Ok(Bytes::from_static(b"win")));
                        }
                        slot.release_pending();
                    })
                };
                // Loser: a failing attempt with no retries left.
                *slot.last_error.lock() = Some(RpcError::TimedOut);
                slot.release_pending();
                winner.join().unwrap();
                assert_eq!(merged.load(Ordering::Acquire), 1, "gather merged exactly once");
                assert!(slot.is_done());
            })
            .expect("slot claim must be exactly-once in every schedule");
        assert!(report.iterations > 1, "both resolution orders must be explored");
    }
}
