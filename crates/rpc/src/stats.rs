//! Per-server telemetry aggregation.

use musuite_check::atomic::{AtomicU64, Ordering};
use musuite_codec::Priority;
use musuite_telemetry::admission::{AdmissionCounters, AdmissionEvent, AdmissionSnapshot};
use musuite_telemetry::batching::BatchStats;
use musuite_telemetry::breakdown::BreakdownRecorder;
use musuite_telemetry::histogram::LatencyHistogram;
use musuite_telemetry::netpoll::CoalesceStats;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

#[derive(Default)]
struct Inner {
    requests: AtomicU64,
    responses: AtomicU64,
    rejected: AtomicU64,
    admission: AdmissionCounters,
    idle_reaped: AtomicU64,
    service_time: Mutex<LatencyHistogram>,
    coalesce: CoalesceStats,
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
/// use musuite_rpc::ServerStats;
///
/// let stats = ServerStats::new();
/// stats.record_request();
/// assert_eq!(stats.requests(), 1);
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

    /// Counts an accepted request.
    pub fn record_request(&self) {
        self.inner.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a completed response with its server-side service time.
    pub fn record_response(&self, service_time: Duration) {
        self.inner.responses.fetch_add(1, Ordering::Relaxed);
        self.inner.service_time.lock().record(service_time);
    }

    /// Counts a request shed because the dispatch queue was full.
    pub fn record_rejected(&self) {
        self.inner.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one overload-control decision: a request refused at the
    /// admission gate, one dropped on an exhausted deadline budget (at
    /// arrival or at dispatch-queue dequeue, before any worker time was
    /// spent on it), or a move of the adaptive concurrency limit.
    pub fn record_admission(&self, event: AdmissionEvent) {
        self.inner.admission.incr(event);
    }

    /// Counts a connection dropped by the idle-timeout reaper.
    pub fn record_idle_reaped(&self) {
        self.inner.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests accepted so far.
    pub fn requests(&self) -> u64 {
        self.inner.requests.load(Ordering::Relaxed)
    }

    /// Responses completed so far.
    pub fn responses(&self) -> u64 {
        self.inner.responses.load(Ordering::Relaxed)
    }

    /// Requests shed so far.
    pub fn rejected(&self) -> u64 {
        self.inner.rejected.load(Ordering::Relaxed)
    }

    /// Requests dropped on an exhausted deadline budget so far.
    pub fn deadline_expired(&self) -> u64 {
        self.admission().expired_total()
    }

    /// Requests shed at the admission gate for `priority` so far.
    pub fn shed(&self, priority: Priority) -> u64 {
        self.inner.admission.get(shed_event(priority))
    }

    /// Requests shed at the admission gate across all priority classes.
    pub fn shed_total(&self) -> u64 {
        self.admission().shed_total()
    }

    /// Every overload-control event so far, by kind.
    pub fn admission(&self) -> AdmissionSnapshot {
        self.inner.admission.snapshot()
    }

    /// Connections reaped for idleness so far.
    pub fn idle_reaped(&self) -> u64 {
        self.inner.idle_reaped.load(Ordering::Relaxed)
    }

    /// Write-coalescing counters shared by all of this server's
    /// connections: frames queued vs. socket writes issued; the
    /// difference is `sendmsg` syscalls saved.
    pub fn coalesce(&self) -> &CoalesceStats {
        &self.inner.coalesce
    }

    /// Batch-occupancy and flush-reason counters for the dispatch path.
    /// Only populated when the server runs with a `BatchPolicy` that
    /// actually batches.
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
        self.inner.requests.store(0, Ordering::Relaxed);
        self.inner.responses.store(0, Ordering::Relaxed);
        self.inner.rejected.store(0, Ordering::Relaxed);
        self.inner.admission.reset();
        self.inner.idle_reaped.store(0, Ordering::Relaxed);
        self.inner.service_time.lock().reset();
        self.inner.coalesce.reset();
        self.inner.batching.reset();
        self.breakdown.reset();
    }
}

impl fmt::Debug for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerStats")
            .field("requests", &self.requests())
            .field("responses", &self.responses())
            .field("rejected", &self.rejected())
            .field("deadline_expired", &self.deadline_expired())
            .field("shed", &self.shed_total())
            .finish()
    }
}

/// The admission event that counts a refusal of `priority`'s class.
pub(crate) fn shed_event(priority: Priority) -> AdmissionEvent {
    match priority {
        Priority::Critical => AdmissionEvent::ShedCritical,
        Priority::Normal => AdmissionEvent::ShedNormal,
        Priority::Sheddable => AdmissionEvent::ShedSheddable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ServerStats::new();
        s.record_request();
        s.record_request();
        s.record_response(Duration::from_micros(5));
        s.record_rejected();
        s.record_idle_reaped();
        s.record_admission(AdmissionEvent::ExpiredInQueue);
        s.record_admission(AdmissionEvent::ShedSheddable);
        s.record_admission(AdmissionEvent::ShedSheddable);
        s.record_admission(AdmissionEvent::ShedNormal);
        s.record_admission(AdmissionEvent::LimitLowered);
        assert_eq!(s.requests(), 2);
        assert_eq!(s.responses(), 1);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.idle_reaped(), 1);
        assert_eq!(s.deadline_expired(), 1);
        assert_eq!(s.shed(Priority::Sheddable), 2);
        assert_eq!(s.shed(Priority::Normal), 1);
        assert_eq!(s.shed(Priority::Critical), 0);
        assert_eq!(s.shed_total(), 3);
        assert_eq!(s.admission().get(AdmissionEvent::LimitLowered), 1);
        assert_eq!(s.service_time().count(), 1);
    }

    #[test]
    fn clones_share_state() {
        let s = ServerStats::new();
        let clone = s.clone();
        clone.record_request();
        assert_eq!(s.requests(), 1);
    }

    #[test]
    fn reset_clears() {
        let s = ServerStats::new();
        s.record_request();
        s.record_response(Duration::from_micros(1));
        s.record_admission(AdmissionEvent::ExpiredAtArrival);
        s.record_admission(AdmissionEvent::ShedNormal);
        s.batching().record_batch(4, musuite_telemetry::batching::FlushReason::SizeFull);
        s.reset();
        assert_eq!(s.batching().batches(), 0);
        assert_eq!(s.requests(), 0);
        assert_eq!(s.responses(), 0);
        assert_eq!(s.deadline_expired(), 0);
        assert_eq!(s.admission().total(), 0);
        assert!(s.service_time().is_empty());
    }
}
