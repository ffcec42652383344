//! Counters for fault-tolerance events.
//!
//! A fan-out with a resilience policy (hedged requests, retries, per-leaf
//! circuit breakers, reconnects) ticks its own set of these at each
//! decision point, so chaos experiments can report *how* a run survived.
//! Degraded responses are counted in the response's own envelope, and
//! injected faults in the fault plan's log.

use crate::counters::{EventCounters, EventSnapshot};

crate::event_enum! {
    /// Fault-tolerance events tallied by the resilience layer.
    #[non_exhaustive]
    pub enum ResilienceEvent {
        /// A hedge timer expired and a duplicate probe was issued.
        HedgeFired = "hedge_fired",
        /// A hedge probe delivered the winning (first) response.
        HedgeWon = "hedge_won",
        /// A failed attempt was retried against an alternate or the same leaf.
        Retry = "retry",
        /// A per-leaf circuit breaker transitioned closed → open.
        BreakerOpened = "breaker_opened",
        /// An open breaker admitted its single half-open probe.
        BreakerProbe = "breaker_probe",
        /// A half-open breaker transitioned back to closed.
        BreakerClosed = "breaker_closed",
        /// A broken leaf connection was re-established in the background.
        Reconnect = "reconnect",
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
pub type ResilienceCounters = EventCounters<ResilienceEvent, { ResilienceEvent::COUNT }>;

/// An immutable point-in-time copy of a [`ResilienceCounters`].
pub type ResilienceSnapshot = EventSnapshot<ResilienceEvent, { ResilienceEvent::COUNT }>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_event_table_is_consistent() {
        crate::counters::assert_event_table::<ResilienceEvent, 7>();
    }
}
