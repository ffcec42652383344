//! Counters for overload-control events.
//!
//! A server's admission layer (priority-class shedding, deadline-budget
//! expiry, adaptive concurrency limiting) ticks its own set of these at
//! each decision point so overload experiments can report *why* requests
//! were refused — which priority class was shed, whether work died before
//! or after it reached the dispatch queue, and how often the adaptive
//! limiter moved — alongside the latency distributions. The counter machinery is
//! [`crate::counters::EventCounters`]; this module contributes the enum,
//! its name table and the shed/expired roll-ups.

use crate::counters::{Event, EventCounters, EventSnapshot};
use std::fmt;

/// Overload-control events tallied by the admission layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AdmissionEvent {
    /// A `Critical` request was refused at the admission gate.
    ShedCritical,
    /// A `Normal` request was refused at the admission gate.
    ShedNormal,
    /// A `Sheddable` request was refused at the admission gate.
    ShedSheddable,
    /// A request arrived with its deadline budget already exhausted and
    /// was refused before admission.
    ExpiredAtArrival,
    /// An admitted request expired while queued and was dropped at
    /// dequeue, before any worker time was spent on it.
    ExpiredInQueue,
    /// The adaptive limiter raised the concurrency limit (additive
    /// increase).
    LimitRaised,
    /// The adaptive limiter lowered the concurrency limit
    /// (multiplicative decrease).
    LimitLowered,
}

impl Event<7> for AdmissionEvent {
    const ALL: [AdmissionEvent; 7] = [
        AdmissionEvent::ShedCritical,
        AdmissionEvent::ShedNormal,
        AdmissionEvent::ShedSheddable,
        AdmissionEvent::ExpiredAtArrival,
        AdmissionEvent::ExpiredInQueue,
        AdmissionEvent::LimitRaised,
        AdmissionEvent::LimitLowered,
    ];

    fn name(self) -> &'static str {
        match self {
            AdmissionEvent::ShedCritical => "shed_critical",
            AdmissionEvent::ShedNormal => "shed_normal",
            AdmissionEvent::ShedSheddable => "shed_sheddable",
            AdmissionEvent::ExpiredAtArrival => "expired_at_arrival",
            AdmissionEvent::ExpiredInQueue => "expired_in_queue",
            AdmissionEvent::LimitRaised => "limit_raised",
            AdmissionEvent::LimitLowered => "limit_lowered",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for AdmissionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The overload-control counter set.
///
/// # Examples
///
/// ```
/// use musuite_telemetry::admission::{AdmissionCounters, AdmissionEvent};
///
/// let counters = AdmissionCounters::new();
/// counters.incr(AdmissionEvent::ShedSheddable);
/// counters.incr(AdmissionEvent::ExpiredInQueue);
/// assert_eq!(counters.get(AdmissionEvent::ShedSheddable), 1);
/// assert_eq!(counters.get(AdmissionEvent::ShedCritical), 0);
/// ```
pub type AdmissionCounters = EventCounters<AdmissionEvent, 7>;

/// An immutable point-in-time copy of an [`AdmissionCounters`].
pub type AdmissionSnapshot = EventSnapshot<AdmissionEvent, 7>;

impl AdmissionSnapshot {
    /// Total requests refused at the admission gate across all classes.
    pub fn shed_total(&self) -> u64 {
        self.get(AdmissionEvent::ShedCritical)
            + self.get(AdmissionEvent::ShedNormal)
            + self.get(AdmissionEvent::ShedSheddable)
    }

    /// Total requests dropped because their deadline budget ran out.
    pub fn expired_total(&self) -> u64 {
        self.get(AdmissionEvent::ExpiredAtArrival) + self.get(AdmissionEvent::ExpiredInQueue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_and_expired_roll_ups() {
        let c = AdmissionCounters::new();
        c.incr(AdmissionEvent::ShedSheddable);
        let s1 = c.snapshot();
        c.incr(AdmissionEvent::ShedSheddable);
        c.incr(AdmissionEvent::ExpiredInQueue);
        c.incr(AdmissionEvent::ExpiredAtArrival);
        c.incr(AdmissionEvent::LimitLowered);
        let d = c.snapshot().since(&s1);
        assert_eq!(d.shed_total(), 1);
        assert_eq!(d.expired_total(), 2);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn admission_event_table_is_consistent() {
        crate::counters::assert_event_table::<AdmissionEvent, 7>();
    }
}
