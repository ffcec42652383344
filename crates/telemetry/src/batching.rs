//! Batch-occupancy and flush-reason observability.
//!
//! When batches — not single requests — are the unit of work, two
//! questions decide whether a `BatchPolicy` configuration wins: *how
//! full* were the batches (occupancy amortizes per-wakeup and per-frame
//! overhead), and *why* did each batch close (a policy whose batches
//! always flush on the delay timer is adding latency without reaching
//! its size target). [`BatchStats`] answers both with the mean and largest
//! occupancy and one counter per [`FlushReason`], so the ablation tables
//! can explain a configuration instead of just ranking it.
//!
//! # Examples
//!
//! ```
//! use musuite_telemetry::batching::{BatchStats, FlushReason};
//!
//! let stats = BatchStats::new();
//! stats.record_batch(8, FlushReason::SizeFull);
//! stats.record_batch(3, FlushReason::DelayExpired);
//! assert_eq!(stats.batches(), 2);
//! assert_eq!(stats.members(), 11);
//! assert_eq!(stats.flushes(FlushReason::SizeFull), 1);
//! assert_eq!(stats.max_occupancy(), 8);
//! ```

use crate::counters::EventCounters;
use musuite_check::atomic::{AtomicU64, Ordering};

crate::event_enum! {
    /// Why a batch stopped accepting members and was handed to execution.
    pub enum FlushReason {
        /// The batch reached `BatchPolicy::max_size` members.
        SizeFull = "size-full",
        /// The batch's `max_delay` window elapsed before it filled.
        DelayExpired = "delay-expired",
        /// The source ran dry (queue empty with no delay budget left to
        /// wait, or closed during shutdown) and the partial batch flushed.
        QueueDrained = "queue-drained",
    }
}

/// Batch counters, shared by every worker that drains batches.
#[derive(Default)]
pub struct BatchStats {
    flushes: EventCounters<FlushReason, { FlushReason::COUNT }>,
    members: AtomicU64,
    max_occupancy: AtomicU64,
}

impl BatchStats {
    /// Creates a zeroed stats bundle.
    pub fn new() -> BatchStats {
        BatchStats::default()
    }

    /// Records one flushed batch of `occupancy` members closed for
    /// `reason`. Empty batches (spurious flushes) count toward the
    /// reason tally but not occupancy.
    pub fn record_batch(&self, occupancy: usize, reason: FlushReason) {
        self.flushes.incr(reason);
        self.members.fetch_add(occupancy as u64, Ordering::Relaxed);
        self.max_occupancy.fetch_max(occupancy as u64, Ordering::Relaxed);
    }

    /// Total batches flushed (including empty spurious flushes).
    pub fn batches(&self) -> u64 {
        self.flushes.snapshot().total()
    }

    /// Batches flushed for `reason`.
    pub fn flushes(&self, reason: FlushReason) -> u64 {
        self.flushes.get(reason)
    }

    /// Total members across all flushed batches.
    pub fn members(&self) -> u64 {
        self.members.load(Ordering::Relaxed)
    }

    /// Largest single batch observed.
    pub fn max_occupancy(&self) -> u64 {
        self.max_occupancy.load(Ordering::Relaxed)
    }

    /// Mean members per flushed batch, or 0.0 when nothing flushed.
    pub fn mean_occupancy(&self) -> f64 {
        match self.batches() {
            0 => 0.0,
            batches => self.members() as f64 / batches as f64,
        }
    }

    /// One-line report row: `batches=12 mean=7.3 max=8
    /// size-full=10 delay-expired=1 queue-drained=1`.
    pub fn summary_row(&self) -> String {
        let (mean, max) = (self.mean_occupancy(), self.max_occupancy());
        let mut row = format!("batches={} mean={mean:.1} max={max}", self.batches());
        for (reason, count) in self.flushes.snapshot().iter() {
            row.push_str(&format!(" {reason}={count}"));
        }
        row
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.flushes.reset();
        self.members.store(0, Ordering::Relaxed);
        self.max_occupancy.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Event;

    #[test]
    fn records_by_reason_and_occupancy() {
        let stats = BatchStats::new();
        stats.record_batch(8, FlushReason::SizeFull);
        stats.record_batch(8, FlushReason::SizeFull);
        stats.record_batch(3, FlushReason::DelayExpired);
        stats.record_batch(1, FlushReason::QueueDrained);
        assert_eq!(stats.batches(), 4);
        assert_eq!(stats.members(), 20);
        assert_eq!(stats.flushes(FlushReason::SizeFull), 2);
        assert_eq!(stats.flushes(FlushReason::DelayExpired), 1);
        assert_eq!(stats.flushes(FlushReason::QueueDrained), 1);
        assert_eq!(stats.max_occupancy(), 8);
        assert!((stats.mean_occupancy() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_flush_counts_reason_only() {
        let stats = BatchStats::new();
        stats.record_batch(0, FlushReason::QueueDrained);
        assert_eq!(stats.batches(), 1);
        assert_eq!(stats.members(), 0);
        assert_eq!(stats.mean_occupancy(), 0.0);
    }

    #[test]
    fn summary_row_names_every_reason() {
        let stats = BatchStats::new();
        stats.record_batch(2, FlushReason::DelayExpired);
        let row = stats.summary_row();
        for reason in FlushReason::ALL {
            assert!(row.contains(reason.name()), "{row} missing {}", reason.name());
        }
    }
}
