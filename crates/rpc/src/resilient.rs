//! The tail-tolerance policy a [`FanoutGroup`] may carry: its tuning
//! ([`ResilientConfig`]) and the per-leaf circuit breaker. The scatter
//! path that applies them is [`crate::fanout`]'s, whose module docs
//! describe hedges, retries, breakers and reconnects.
//!
//! [`FanoutGroup`]: crate::fanout::FanoutGroup

use musuite_check::sync::Mutex;
use std::time::Duration;

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

/// A fan-out group's resilience policy
/// ([`FanoutGroup::with_resilience`]). The default is deliberately inert:
/// no attempt deadline, no hedging, no retries — only the breaker is
/// armed, with a threshold high enough that ordinary tests never trip it.
///
/// [`FanoutGroup::with_resilience`]: crate::fanout::FanoutGroup::with_resilience
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
pub(crate) enum Admission {
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
pub(crate) struct CircuitBreaker {
    inner: Mutex<BreakerInner>,
    threshold: u32,
    cooldown_ns: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub(crate) fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            inner: Mutex::new(BreakerInner { state: BreakerState::Closed, consecutive: 0 }),
            threshold: config.threshold.max(1),
            cooldown_ns: config.cooldown.as_nanos() as u64,
        }
    }

    /// Admission decision for an attempt starting at `now_ns`. At most one
    /// caller per open period observes [`Admission::Probe`].
    pub(crate) fn admit(&self, now_ns: u64) -> Admission {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open { until_ns } if now_ns >= until_ns => {
                inner.state = BreakerState::HalfOpen;
                Admission::Probe
            }
            BreakerState::Open { .. } | BreakerState::HalfOpen => Admission::Reject,
        }
    }

    /// Records a successful attempt. Returns `true` if this success closed
    /// a non-closed breaker (the half-open probe succeeded, or a late
    /// response from before the breaker opened proved the leaf healthy).
    pub(crate) fn on_success(&self) -> bool {
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
    pub(crate) fn on_failure(&self, now_ns: u64) -> bool {
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

    /// How long an open breaker sheds before admitting a probe.
    pub(crate) fn cooldown(&self) -> Duration {
        Duration::from_nanos(self.cooldown_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CallOptions;
    use crate::error::{FailureKind, RpcError};
    use crate::fanout::tests::{
        cluster_with, leaf_cluster, planned, scatter_calls_wait, stuck_leaf, Calls,
    };
    use crate::fanout::{FanoutGroup, FanoutResult, LeafCall};
    use crate::fault::{FaultPlan, FaultRule};
    use musuite_codec::Priority;
    use musuite_telemetry::resilience::ResilienceEvent;
    use std::time::Instant;

    /// The kind of slot 0's failure, if it failed.
    fn kind_of_first(result: &FanoutResult) -> Option<FailureKind> {
        result.replies[0].as_ref().err().map(RpcError::failure_kind)
    }

    /// Scatters `byte` to leaf 0 alone and waits for the merge.
    fn send_one(group: &FanoutGroup, byte: u8) -> FanoutResult {
        scatter_calls_wait(group, vec![(LeafCall::new(0, 1), vec![byte])], CallOptions::default())
    }

    #[test]
    fn retry_fails_over_to_alternate_replica() {
        let config = ResilientConfig {
            retries: 2,
            backoff: Duration::from_millis(5),
            breaker: None,
            ..ResilientConfig::default()
        };
        let (servers, group) = cluster_with(2, Some(config));
        servers[0].shutdown();
        std::thread::sleep(Duration::from_millis(50));
        let call = (LeafCall::new(0, 1).with_alternates(1..2), vec![7u8]);
        let result = scatter_calls_wait(&group, vec![call], CallOptions::default());
        assert!(result.all_ok(), "retry must fail over to the healthy replica: {result:?}");
        assert_eq!(result.successes()[0], [1u8, 7], "served by the alternate leaf");
        assert!(group.counters().get(ResilienceEvent::Retry) >= 1);
    }

    #[test]
    fn exhausted_retries_deliver_the_last_error() {
        let config = ResilientConfig {
            retries: 1,
            backoff: Duration::from_millis(2),
            breaker: None,
            ..ResilientConfig::default()
        };
        let (servers, group) = cluster_with(1, Some(config));
        servers[0].shutdown();
        std::thread::sleep(Duration::from_millis(50));
        let result = send_one(&group, 1);
        assert_eq!(kind_of_first(&result), Some(FailureKind::Transport));
        assert_eq!(group.counters().get(ResilienceEvent::Retry), 1);
    }

    #[test]
    fn breaker_opens_then_sheds_with_circuit_open() {
        let config = ResilientConfig {
            breaker: Some(BreakerConfig { threshold: 2, cooldown: Duration::from_secs(30) }),
            ..ResilientConfig::default()
        };
        let (servers, group) = cluster_with(1, Some(config));
        servers[0].shutdown();
        std::thread::sleep(Duration::from_millis(50));
        // First calls fail as transport errors and charge the breaker.
        for _ in 0..2 {
            assert_eq!(send_one(&group, 1).failures().count(), 1);
        }
        assert_eq!(group.counters().get(ResilienceEvent::BreakerOpened), 1);
        // Now the breaker sheds instantly without touching the socket.
        let result = send_one(&group, 1);
        assert_eq!(kind_of_first(&result), Some(FailureKind::ShedBreaker));
        assert!(matches!(result.replies[0], Err(RpcError::CircuitOpen)));
    }

    #[test]
    fn exhausted_budget_fails_fast_and_bounds_the_retry_ladder() {
        // A "leaf" that accepts but never responds: every attempt can only
        // end by timeout, so an unbounded retry ladder would stall the
        // gather for retries × attempt-timeout.
        let stuck_addr = stuck_leaf();
        let config = ResilientConfig {
            retries: 3,
            backoff: Duration::from_millis(10),
            ..ResilientConfig::default()
        };
        let group = FanoutGroup::connect(&[stuck_addr]).unwrap().with_resilience(config);
        let started = Instant::now();
        let opts = CallOptions {
            priority: Priority::Sheddable,
            ..CallOptions::within(Duration::from_millis(80))
        };
        let result = scatter_calls_wait(&group, vec![(LeafCall::new(0, 1), vec![1u8])], opts);
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
    }

    #[test]
    fn breaker_recovers_through_half_open_probe() {
        let (servers, _) = leaf_cluster(1);
        // While armed, leaf 0 is dead: every send disconnects, reconnects
        // are refused. Disarming simulates the leaf coming back.
        let plan = FaultPlan::builder(23, 1).dead_leaf(0).build();
        let config = ResilientConfig {
            breaker: Some(BreakerConfig { threshold: 1, cooldown: Duration::from_millis(30) }),
            ..ResilientConfig::default()
        };
        let group = planned(&servers, &plan, config);
        plan.arm();
        assert_eq!(send_one(&group, 1).failures().count(), 1);
        assert_eq!(group.counters().get(ResilienceEvent::BreakerOpened), 1);
        // Shed while the cooldown is pending.
        let result = send_one(&group, 1);
        assert!(matches!(result.replies[0], Err(RpcError::CircuitOpen)), "{result:?}");
        // The leaf recovers; the half-open probe reconnects and closes.
        plan.disarm();
        std::thread::sleep(Duration::from_millis(60));
        let result = send_one(&group, 2);
        assert!(result.all_ok(), "half-open probe must recover: {result:?}");
        assert!(group.counters().get(ResilienceEvent::BreakerProbe) >= 1);
        assert!(group.counters().get(ResilienceEvent::BreakerClosed) >= 1);
        assert!(group.counters().get(ResilienceEvent::Reconnect) >= 1);
    }

    #[test]
    fn hedge_wins_against_a_delayed_primary() {
        let (servers, _) = leaf_cluster(2);
        // Leaf 0's sends are held back 300ms; leaf 1 is healthy.
        let plan = FaultPlan::builder(21, 2).slow_leaf(0, Duration::from_millis(300)).build();
        let config = ResilientConfig {
            hedge: HedgePolicy::After(Duration::from_millis(20)),
            breaker: None,
            ..ResilientConfig::default()
        };
        let group = planned(&servers, &plan, config);
        plan.arm();
        let started = Instant::now();
        let call = (LeafCall::new(0, 1).with_alternates(1..2), vec![3u8]);
        let result = scatter_calls_wait(&group, vec![call], CallOptions::default());
        let elapsed = started.elapsed();
        assert!(result.all_ok(), "hedge must win: {result:?}");
        assert_eq!(result.successes()[0], [1u8, 3], "the hedge's replica answered");
        assert!(
            elapsed < Duration::from_millis(250),
            "hedged call must not wait out the delayed primary: {elapsed:?}"
        );
        assert_eq!(group.counters().get(ResilienceEvent::HedgeFired), 1);
        assert_eq!(group.counters().get(ResilienceEvent::HedgeWon), 1);
        // The delayed primary eventually completes; its late response is
        // discarded by the claim, never delivered twice.
        std::thread::sleep(Duration::from_millis(350));
    }

    /// A hedge that wins is counted before its answer completes the
    /// scatter: the completion runs inside that delivery, and reads the
    /// count through the group it holds.
    #[test]
    fn a_won_hedge_is_counted_before_the_completion_runs() {
        let (servers, _) = leaf_cluster(2);
        let plan = FaultPlan::builder(21, 2).slow_leaf(0, Duration::from_millis(300)).build();
        let config = ResilientConfig {
            hedge: HedgePolicy::After(Duration::from_millis(20)),
            breaker: None,
            ..ResilientConfig::default()
        };
        let group = std::sync::Arc::new(planned(&servers, &plan, config));
        plan.arm();
        let (tx, rx) = std::sync::mpsc::channel();
        let held = group.clone();
        let call = (LeafCall::new(0, 1).with_alternates(1..2), vec![3u8]);
        group.scatter_encoded(Calls(vec![call]), CallOptions::default(), move |result| {
            let won = held.counters().get(ResilienceEvent::HedgeWon);
            tx.send((result, won)).unwrap();
        });
        crate::buf::flush_outbox();
        let (result, won) =
            rx.recv_timeout(Duration::from_secs(10)).expect("the scatter completes");
        assert_eq!(result.successes()[0], [1u8, 3], "the hedge's replica answered");
        assert_eq!(won, 1, "the completion reads the won hedge");
    }

    #[test]
    fn corruption_is_retried_never_returned_as_data() {
        let (servers, _) = leaf_cluster(1);
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
        let config = ResilientConfig {
            retries: 2,
            backoff: Duration::from_millis(10),
            attempt_timeout: Some(Duration::from_millis(250)),
            breaker: None,
            ..ResilientConfig::default()
        };
        let group = planned(&servers, &plan, config);
        plan.arm();
        let result = send_one(&group, 0xAB);
        assert!(result.all_ok(), "retry after checksum rejection must succeed: {result:?}");
        assert_eq!(result.successes()[0], [0u8, 0xAB], "data intact after retry");
        assert!(group.counters().get(ResilienceEvent::Retry) >= 1);
        assert!(group.counters().get(ResilienceEvent::Reconnect) >= 1, "broken conn was replaced");
    }

    #[test]
    fn shutdown_settles_pending_hedges() {
        let config = ResilientConfig {
            hedge: HedgePolicy::After(Duration::from_secs(60)),
            breaker: None,
            ..ResilientConfig::default()
        };
        let (servers, group) = cluster_with(1, Some(config));
        assert!(send_one(&group, 5).all_ok());
        group.shutdown();
        group.shutdown();
        // With the leaf gone too, post-shutdown scatters fail fast (the
        // queued hedge settles instantly) instead of hanging on a timer.
        servers[0].shutdown();
        let started = Instant::now();
        assert_eq!(send_one(&group, 6).failures().count(), 1);
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
        assert_eq!(breaker.admit(50), Admission::Reject, "cooldown pending");
        assert!(!breaker.on_failure(60), "failures while open do not extend cooldown");
        assert_eq!(breaker.admit(100), Admission::Probe, "cooldown elapsed");
        assert_eq!(breaker.admit(100), Admission::Reject, "only one probe");
        assert!(breaker.on_success(), "probe success closes");
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
        let (_servers, group) = cluster_with(1, Some(ResilientConfig::default()));
        let debug = format!("{group:?}");
        assert!(debug.contains("FanoutGroup") && debug.contains("resilience"), "{debug}");
        let call = LeafCall::new(0, 1).with_alternates(2..3);
        assert!(format!("{call:?}").contains("alternates"));
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};
    use std::sync::Arc;

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
                assert_eq!(breaker.admit(0), Admission::Reject, "the breaker is open");
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
}
