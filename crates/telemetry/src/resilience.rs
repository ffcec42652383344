//! Process-wide counters for fault-tolerance events.
//!
//! The resilience layer (hedged requests, retries, per-leaf circuit
//! breakers, degraded merges) ticks these counters at each decision point
//! so chaos experiments can report *how* a run survived — how many hedges
//! fired and won, how often a breaker opened, how many responses were
//! served degraded — alongside the latency distributions. The counter
//! machinery is [`crate::counters::EventCounters`]; this module
//! contributes the enum and its name table.

use crate::counters::{Event, EventCounters, EventSnapshot};
use std::fmt;
use std::sync::OnceLock;

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
    /// A merge completed from a subset of shards (degraded response).
    DegradedResponse,
    /// The fault-injection shim injected one fault.
    FaultInjected,
}

impl Event<9> for ResilienceEvent {
    const ALL: [ResilienceEvent; 9] = [
        ResilienceEvent::HedgeFired,
        ResilienceEvent::HedgeWon,
        ResilienceEvent::Retry,
        ResilienceEvent::BreakerOpened,
        ResilienceEvent::BreakerProbe,
        ResilienceEvent::BreakerClosed,
        ResilienceEvent::Reconnect,
        ResilienceEvent::DegradedResponse,
        ResilienceEvent::FaultInjected,
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
            ResilienceEvent::DegradedResponse => "degraded_response",
            ResilienceEvent::FaultInjected => "fault_injected",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    fn global() -> &'static ResilienceCounters {
        static GLOBAL: OnceLock<ResilienceCounters> = OnceLock::new();
        GLOBAL.get_or_init(EventCounters::new)
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
pub type ResilienceCounters = EventCounters<ResilienceEvent, 9>;

/// An immutable point-in-time copy of a [`ResilienceCounters`].
pub type ResilienceSnapshot = EventSnapshot<ResilienceEvent, 9>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_event_table_is_consistent() {
        crate::counters::assert_event_table::<ResilienceEvent, 9>();
    }
}
