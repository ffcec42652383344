//! Per-server telemetry aggregation.

use musuite_codec::Priority;
use musuite_telemetry::batching::BatchStats;
use musuite_telemetry::breakdown::BreakdownRecorder;
use musuite_telemetry::counters::EventCounters;
use musuite_telemetry::histogram::LatencyHistogram;
use musuite_telemetry::netpoll::CoalesceStats;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

musuite_telemetry::event_enum! {
    /// What a server counts. Every arrival is a [`Request`](Self::Request)
    /// and then exactly one of executed, shed, expired or rejected.
    #[non_exhaustive]
    pub enum ServerEvent {
        /// A request arrived (each member of a batch frame counts).
        Request = "requests",
        /// A response (a value or a refusal) was sent.
        Response = "responses",
        /// A request reached `Service::call` or `Service::call_batch`.
        Executed = "executed",
        /// A request was refused because the dispatch queue was full.
        Rejected = "rejected",
        /// A `Critical` request was refused at the admission gate.
        ShedCritical = "shed_critical",
        /// A `Normal` request was refused at the admission gate.
        ShedNormal = "shed_normal",
        /// A `Sheddable` request was refused at the admission gate.
        ShedSheddable = "shed_sheddable",
        /// A request arrived with its deadline budget already spent.
        ExpiredAtArrival = "expired_at_arrival",
        /// An admitted request expired in the queue, before any worker ran it.
        ExpiredInQueue = "expired_in_queue",
        /// The adaptive limiter raised the concurrency limit.
        LimitRaised = "limit_raised",
        /// The adaptive limiter lowered the concurrency limit.
        LimitLowered = "limit_lowered",
        /// A connection was dropped by the idle-timeout reaper.
        IdleReaped = "idle_reaped",
    }
}

impl ServerEvent {
    /// The event that counts a refusal of `priority`'s class at the gate.
    pub fn shed(priority: Priority) -> ServerEvent {
        match priority {
            Priority::Critical => ServerEvent::ShedCritical,
            Priority::Normal => ServerEvent::ShedNormal,
            Priority::Sheddable => ServerEvent::ShedSheddable,
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: EventCounters<ServerEvent, { ServerEvent::COUNT }>,
    service_time: Mutex<LatencyHistogram>,
    coalesce: Arc<CoalesceStats>,
    batching: BatchStats,
}

/// Shared counters and latency recorders for one server.
///
/// Cloning is cheap; clones share storage. One instance is distributed to
/// the server's pollers, workers, and response handles.
///
/// # Examples
///
/// ```
/// use musuite_rpc::stats::{ServerEvent, ServerStats};
///
/// let stats = ServerStats::new();
/// stats.counters().incr(ServerEvent::Request);
/// assert_eq!(stats.requests(), 1);
/// assert_eq!(stats.accounting_gap(), 1, "arrived, not yet executed");
/// ```
#[derive(Clone, Default)]
pub struct ServerStats {
    inner: Arc<Inner>,
    breakdown: BreakdownRecorder,
}

impl ServerStats {
    /// Creates a zeroed stats bundle.
    pub fn new() -> ServerStats {
        ServerStats::default()
    }

    /// The server's event counters, which the request pipeline ticks.
    pub fn counters(&self) -> &EventCounters<ServerEvent, { ServerEvent::COUNT }> {
        &self.inner.counters
    }

    /// Counts a completed response with its server-side service time.
    pub fn record_response(&self, service_time: Duration) {
        self.inner.counters.incr(ServerEvent::Response);
        self.inner.service_time.lock().record(service_time);
    }

    /// Requests arrived so far.
    pub fn requests(&self) -> u64 {
        self.inner.counters.get(ServerEvent::Request)
    }

    /// Responses completed so far.
    pub fn responses(&self) -> u64 {
        self.inner.counters.get(ServerEvent::Response)
    }

    /// Requests handed to the service so far.
    pub fn executed(&self) -> u64 {
        self.inner.counters.get(ServerEvent::Executed)
    }

    /// Requests refused at a full dispatch queue so far.
    pub fn rejected(&self) -> u64 {
        self.inner.counters.get(ServerEvent::Rejected)
    }

    /// Requests dropped on an exhausted deadline budget so far.
    pub fn deadline_expired(&self) -> u64 {
        self.inner.counters.get(ServerEvent::ExpiredAtArrival)
            + self.inner.counters.get(ServerEvent::ExpiredInQueue)
    }

    /// Requests shed at the admission gate across all priority classes.
    pub fn shed_total(&self) -> u64 {
        Priority::ALL.into_iter().map(|p| self.inner.counters.get(ServerEvent::shed(p))).sum()
    }

    /// Arrivals not yet accounted for: requests − (executed + shed +
    /// expired + rejected). Zero once the server is quiet; anything else
    /// is a request lost (positive) or counted twice (negative).
    pub fn accounting_gap(&self) -> i64 {
        let accounted =
            self.executed() + self.shed_total() + self.deadline_expired() + self.rejected();
        self.requests() as i64 - accounted as i64
    }

    /// Write-coalescing counters shared by all of this server's connections.
    pub fn coalesce(&self) -> &Arc<CoalesceStats> {
        &self.inner.coalesce
    }

    /// Batch-occupancy and flush-reason counters for the dispatch path,
    /// populated when the server's `BatchPolicy` batches.
    pub fn batching(&self) -> &BatchStats {
        &self.inner.batching
    }

    /// Copy of the server-side service-time histogram.
    pub fn service_time(&self) -> LatencyHistogram {
        self.inner.service_time.lock().clone()
    }

    /// The stage-breakdown recorder shared with queue and I/O paths.
    pub fn breakdown(&self) -> &BreakdownRecorder {
        &self.breakdown
    }

    /// Clears all counters and histograms.
    pub fn reset(&self) {
        self.inner.counters.reset();
        self.inner.service_time.lock().reset();
        self.inner.coalesce.reset();
        self.inner.batching.reset();
        self.breakdown.reset();
    }
}

impl fmt::Debug for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.counters.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_telemetry::batching::FlushReason;
    use musuite_telemetry::counters::assert_event_table;

    #[test]
    fn counters_accumulate() {
        let s = ServerStats::new();
        let c = s.counters();
        c.add(ServerEvent::Request, 2);
        c.incr(ServerEvent::Executed);
        s.record_response(Duration::from_micros(5));
        c.incr(ServerEvent::Rejected);
        assert_eq!(s.requests(), 2);
        assert_eq!(s.responses(), 1);
        assert_eq!(s.executed(), 1);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.accounting_gap(), 0);
        assert_eq!(s.service_time().count(), 1);
    }

    #[test]
    fn shed_and_expired_roll_ups() {
        let s = ServerStats::new();
        let c = s.counters();
        c.incr(ServerEvent::ExpiredInQueue);
        c.incr(ServerEvent::ExpiredAtArrival);
        c.incr(ServerEvent::shed(Priority::Sheddable));
        c.incr(ServerEvent::shed(Priority::Sheddable));
        c.incr(ServerEvent::shed(Priority::Normal));
        c.incr(ServerEvent::LimitLowered);
        assert_eq!(s.deadline_expired(), 2);
        assert_eq!(c.get(ServerEvent::ShedSheddable), 2);
        assert_eq!(c.get(ServerEvent::ShedCritical), 0);
        assert_eq!(s.shed_total(), 3);
        assert_eq!(s.accounting_gap(), -5, "refusals with no arrival are counted twice");
    }

    #[test]
    fn clones_share_state() {
        let s = ServerStats::new();
        let clone = s.clone();
        clone.counters().incr(ServerEvent::Request);
        assert_eq!(s.requests(), 1);
    }

    #[test]
    fn reset_clears() {
        let s = ServerStats::new();
        s.counters().incr(ServerEvent::Request);
        s.record_response(Duration::from_micros(1));
        s.counters().incr(ServerEvent::ExpiredAtArrival);
        s.coalesce().incr(musuite_telemetry::netpoll::CoalesceEvent::Frame);
        s.batching().record_batch(4, FlushReason::SizeFull);
        s.reset();
        assert_eq!(s.counters().snapshot().total(), 0);
        assert_eq!(s.coalesce().frames(), 0);
        assert_eq!(s.batching().batches(), 0);
        assert_eq!((s.batching().members(), s.batching().max_occupancy()), (0, 0));
        assert!(s.service_time().is_empty());
    }

    #[test]
    fn server_event_table_is_consistent() {
        assert_event_table::<ServerEvent, { ServerEvent::COUNT }>();
    }
}
