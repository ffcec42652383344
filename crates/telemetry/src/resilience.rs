//! Counters for fault-tolerance events.
//!
//! A resilient fan-out (hedged requests, retries, per-leaf circuit
//! breakers, reconnects) ticks its own set of these at each decision point
//! so chaos experiments can report *how* a run survived — how many hedges
//! fired and won, how often a breaker opened — alongside the latency
//! distributions. Degraded responses are counted where they arrive, in
//! the response's own envelope, and injected faults in the fault plan's
//! log. The counter
//! machinery is [`crate::counters::EventCounters`]; this module
//! contributes the enum and its name table.

use crate::counters::{Event, EventCounters, EventSnapshot};
use std::fmt;

/// Fault-tolerance events tallied by the resilience layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum ResilienceEvent {
    /// A hedge timer expired and a duplicate probe was issued.
    HedgeFired,
    /// A hedge probe delivered the winning (first) response.
    HedgeWon,
    /// A failed attempt was retried against an alternate or the same leaf.
    Retry,
    /// A per-leaf circuit breaker transitioned closed → open.
    BreakerOpened,
    /// An open breaker admitted its single half-open probe.
    BreakerProbe,
    /// A half-open breaker transitioned back to closed.
    BreakerClosed,
    /// A broken leaf connection was re-established in the background.
    Reconnect,
}

impl Event<7> for ResilienceEvent {
    const ALL: [ResilienceEvent; 7] = [
        ResilienceEvent::HedgeFired,
        ResilienceEvent::HedgeWon,
        ResilienceEvent::Retry,
        ResilienceEvent::BreakerOpened,
        ResilienceEvent::BreakerProbe,
        ResilienceEvent::BreakerClosed,
        ResilienceEvent::Reconnect,
    ];

    fn name(self) -> &'static str {
        match self {
            ResilienceEvent::HedgeFired => "hedge_fired",
            ResilienceEvent::HedgeWon => "hedge_won",
            ResilienceEvent::Retry => "retry",
            ResilienceEvent::BreakerOpened => "breaker_opened",
            ResilienceEvent::BreakerProbe => "breaker_probe",
            ResilienceEvent::BreakerClosed => "breaker_closed",
            ResilienceEvent::Reconnect => "reconnect",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for ResilienceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The fault-tolerance counter set.
///
/// # Examples
///
/// ```
/// use musuite_telemetry::resilience::{ResilienceCounters, ResilienceEvent};
///
/// let counters = ResilienceCounters::new();
/// counters.incr(ResilienceEvent::HedgeFired);
/// counters.incr(ResilienceEvent::HedgeWon);
/// assert_eq!(counters.get(ResilienceEvent::HedgeFired), 1);
/// assert_eq!(counters.get(ResilienceEvent::Retry), 0);
/// ```
pub type ResilienceCounters = EventCounters<ResilienceEvent, 7>;

/// An immutable point-in-time copy of a [`ResilienceCounters`].
pub type ResilienceSnapshot = EventSnapshot<ResilienceEvent, 7>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_event_table_is_consistent() {
        crate::counters::assert_event_table::<ResilienceEvent, 7>();
    }
}
