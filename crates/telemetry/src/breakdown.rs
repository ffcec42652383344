//! Per-request lifecycle breakdown (Figs. 15–18).
//!
//! The paper attributes mid-tier request latency to OS-level stages using
//! eBPF soft-irq and run-queue probes: `Hardirq`, `Net_tx`, `Net_rx`,
//! `Block`, `Sched`, `RCU`, `Active-Exe`, and `Net`. Userspace code can
//! observe the same request lifecycle at the points where those kernel
//! stages begin and end; [`Stage`] defines the mapping and
//! [`BreakdownRecorder`] aggregates one histogram per stage.
//!
//! Stage mapping (paper → ours):
//!
//! | Paper stage | Ours | Measured as |
//! |-------------|------|-------------|
//! | `Net_rx` | [`Stage::NetRx`] | socket read duration for a request frame |
//! | `Net_tx` | [`Stage::NetTx`] | socket write duration for a response frame |
//! | `Block` | [`Stage::Block`] | time a request waits in the dispatch queue before a worker claims it |
//! | `Sched` | [`Stage::Sched`] | kernel-reported run-queue delay attributed per request (schedstat delta) |
//! | `Active-Exe` | [`Stage::ActiveExe`] | notify→first-instruction wakeup latency of the claiming worker / response thread |
//! | `Net` | [`Stage::Net`] | net mid-tier latency: end-to-end minus leaf service time |
//! | — | [`Stage::LeafFanout`] | async fan-out issue time (extension) |
//! | — | [`Stage::Merge`] | response-merge time on the last response thread (extension) |
//!
//! `Hardirq` and `RCU` are not observable from userspace; the paper reports
//! both as negligible relative to `Active-Exe`, so their omission does not
//! change the figures' story. This substitution is documented in DESIGN.md.

use crate::histogram::LatencyHistogram;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Request-lifecycle stages used to decompose mid-tier latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Stage {
    /// Socket receive path for an incoming request (paper: `Net_rx`).
    NetRx,
    /// Socket transmit path for an outgoing response (paper: `Net_tx`).
    NetTx,
    /// Dispatch-queue residency before a worker claims the request
    /// (paper: `Block` soft-irq, the thread-blocked transition).
    Block,
    /// Scheduler run-queue delay attributed to the request (paper: `Sched`).
    Sched,
    /// Notify→running wakeup latency of the thread that continues the
    /// request (paper: `Active-Exe` — the dominant tail contributor).
    ActiveExe,
    /// Net mid-tier latency: end-to-end time minus leaf service time
    /// (paper: `Net`).
    Net,
    /// Time spent issuing asynchronous RPCs to all leaves (extension).
    LeafFanout,
    /// Time spent merging leaf responses on the last response thread
    /// (extension).
    Merge,
}

/// All stages in display order (paper figures' x-axis order first).
pub const ALL_STAGES: [Stage; 8] = [
    Stage::NetRx,
    Stage::NetTx,
    Stage::Block,
    Stage::Sched,
    Stage::ActiveExe,
    Stage::Net,
    Stage::LeafFanout,
    Stage::Merge,
];

impl Stage {
    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::NetRx => "Net_rx",
            Stage::NetTx => "Net_tx",
            Stage::Block => "Block",
            Stage::Sched => "Sched",
            Stage::ActiveExe => "Active-Exe",
            Stage::Net => "Net",
            Stage::LeafFanout => "Fanout",
            Stage::Merge => "Merge",
        }
    }

    fn index(&self) -> usize {
        ALL_STAGES.iter().position(|s| s == self).expect("stage present in ALL_STAGES")
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Aggregates one latency histogram per [`Stage`].
///
/// Cloning is cheap and clones share storage, so one recorder can be handed
/// to every thread pool in a server.
///
/// # Examples
///
/// ```
/// use musuite_telemetry::breakdown::{BreakdownRecorder, Stage};
/// use std::time::Duration;
///
/// let recorder = BreakdownRecorder::new();
/// recorder.record(Stage::ActiveExe, Duration::from_micros(17));
/// assert_eq!(recorder.histogram(Stage::ActiveExe).count(), 1);
/// ```
#[derive(Clone, Default)]
pub struct BreakdownRecorder {
    histograms: Arc<[Mutex<LatencyHistogram>; ALL_STAGES.len()]>,
}

impl BreakdownRecorder {
    /// Creates a recorder with empty histograms for every stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a latency sample for `stage`.
    pub fn record(&self, stage: Stage, value: Duration) {
        self.histograms[stage.index()].lock().record(value);
    }

    /// Records a raw-nanosecond sample for `stage`.
    pub fn record_ns(&self, stage: Stage, value_ns: u64) {
        self.histograms[stage.index()].lock().record_ns(value_ns);
    }

    /// Copy of the histogram for `stage`.
    pub fn histogram(&self, stage: Stage) -> LatencyHistogram {
        self.histograms[stage.index()].lock().clone()
    }

    /// Clears every stage histogram.
    pub fn reset(&self) {
        for h in self.histograms.iter() {
            h.lock().reset();
        }
    }
}

impl fmt::Debug for BreakdownRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("BreakdownRecorder");
        for stage in ALL_STAGES {
            s.field(stage.label(), &self.histogram(stage).count());
        }
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_stage() {
        let r = BreakdownRecorder::new();
        r.record(Stage::NetRx, Duration::from_micros(5));
        r.record(Stage::NetRx, Duration::from_micros(7));
        r.record(Stage::Block, Duration::from_micros(100));
        assert_eq!(r.histogram(Stage::NetRx).count(), 2);
        assert_eq!(r.histogram(Stage::Block).count(), 1);
        assert_eq!(r.histogram(Stage::Sched).count(), 0);
    }

    #[test]
    fn clones_share_storage() {
        let r = BreakdownRecorder::new();
        let clone = r.clone();
        clone.record(Stage::Merge, Duration::from_micros(3));
        assert_eq!(r.histogram(Stage::Merge).count(), 1);
    }

    #[test]
    fn reset_clears_all_stages() {
        let r = BreakdownRecorder::new();
        for stage in ALL_STAGES {
            r.record(stage, Duration::from_micros(1));
        }
        r.reset();
        for stage in ALL_STAGES {
            assert!(r.histogram(stage).is_empty());
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Stage::ActiveExe.label(), "Active-Exe");
        assert_eq!(Stage::NetRx.to_string(), "Net_rx");
    }
}
