//! Userspace observability substrate for μSuite-rs.
//!
//! The original μSuite characterization (IISWC 2018) relied on kernel-side
//! tooling — eBPF's `syscount`, `runqlat`, `hardirqs`/`softirqs`,
//! `tcpretrans`, and Linux `perf` — to attribute mid-tier microservice
//! latency to OS and network effects. This crate rebuilds the *measurement
//! methodology* in userspace so the whole suite is self-contained:
//!
//! * [`counters`] — process-wide counts of the operations that issue the
//!   syscalls the paper tallies (futex, sendmsg, recvmsg, epoll_pwait, …).
//! * [`histogram`] — log-bucketed latency histograms with percentile
//!   queries, the building block for every latency distribution reported.
//! * [`sync`] — instrumented mutex/condvar wrappers that count futex-class
//!   operations.
//! * [`breakdown`] — a per-request lifecycle recorder that attributes time
//!   to the stages of Figs. 15–18 (NetRx, Block, Sched, ActiveExe, NetTx,
//!   Net); the dispatch queue records notify→wake latency as ActiveExe.
//! * [`netpoll`] — shared-reactor sweep statistics (frames and sweeps,
//!   parks vs. yields between empty sweeps) and write-coalescing counters,
//!   folded into the [`counters`] OS-op table.
//! * [`procstat`] — `/proc` sampling for context switches (Fig. 19) and
//!   kernel-reported run-queue delay (`schedstat`).
//! * [`report`] — plain-text table rendering used by the bench harness.
//!
//! # Examples
//!
//! ```
//! use musuite_telemetry::histogram::LatencyHistogram;
//! use std::time::Duration;
//!
//! let mut h = LatencyHistogram::new();
//! for us in [120_u64, 95, 430, 88, 2100] {
//!     h.record(Duration::from_micros(us));
//! }
//! assert!(h.quantile(0.5) >= Duration::from_micros(88));
//! assert_eq!(h.count(), 5);
//! ```

pub mod admission;
pub mod batching;
pub mod breakdown;
pub mod clock;
pub mod counters;
pub mod histogram;
pub mod netpoll;
pub mod procstat;
pub mod report;
pub mod resilience;
pub mod summary;
pub mod sync;

pub use admission::{AdmissionCounters, AdmissionEvent};
pub use batching::{BatchStats, FlushReason};
pub use breakdown::{BreakdownRecorder, Stage};
pub use clock::Clock;
pub use counters::{OsOp, OsOpCounters};
pub use histogram::LatencyHistogram;
pub use netpoll::{CoalesceStats, ReactorStats};
pub use procstat::{ContextSwitches, SchedStat, TcpStats};
pub use resilience::{ResilienceCounters, ResilienceEvent};
pub use summary::DistributionSummary;
pub use sync::{CountedCondvar, CountedMutex};
