//! Network-reactor observability: sweep statistics and write coalescing.
//!
//! The paper's mid-tier (Fig. 8) drives all connections from a *fixed* set
//! of network poller threads, and its OS-lens figures (11–14) attribute
//! syscall traffic to that edge. When the RPC layer runs in
//! `SharedPollers` mode, each reactor thread repeatedly *sweeps* its
//! connection set; the counters here record how productive those sweeps
//! are (frames drained, sweeps made) and how the reactor waited between
//! empty sweeps (parks vs. yields), folding each wait into the
//! process-wide [`OsOp`] table so the syscall-profile analogs stay honest.
//!
//! [`CoalesceStats`] measures the response write-coalescing optimization:
//! when several frames are queued for one connection while a flush is in
//! progress, they leave in a single buffered write. `frames - flushes` is
//! the number of `sendmsg`-class syscalls saved.
//!
//! # Examples
//!
//! ```
//! use musuite_telemetry::netpoll::{CoalesceStats, ReactorStats};
//!
//! let reactor = ReactorStats::new();
//! reactor.record_sweep(3);
//! reactor.record_sweep(0);
//! reactor.record_park();
//! assert_eq!(reactor.sweeps(), 2);
//! assert_eq!(reactor.frames(), 3);
//!
//! let coalesce = CoalesceStats::new();
//! coalesce.record_frame();
//! coalesce.record_frame();
//! coalesce.record_flush();
//! assert_eq!(coalesce.saved(), 1);
//! ```

use crate::counters::{OsOp, OsOpCounters};
use musuite_check::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct ReactorInner {
    sweeps: AtomicU64,
    frames: AtomicU64,
    parks: AtomicU64,
    yields: AtomicU64,
    registered: AtomicU64,
    closed: AtomicU64,
}

/// Shared counters for one reactor (poller pool). Cloning is cheap; clones
/// share storage, so one handle is distributed to every sweep thread.
#[derive(Clone, Default)]
pub struct ReactorStats {
    inner: Arc<ReactorInner>,
}

impl ReactorStats {
    /// Creates a zeroed stats bundle.
    pub fn new() -> ReactorStats {
        ReactorStats::default()
    }

    /// Records one pass over a shard's connection set that drained
    /// `frames_drained` complete frames.
    pub fn record_sweep(&self, frames_drained: u64) {
        self.inner.sweeps.fetch_add(1, Ordering::Relaxed);
        self.inner.frames.fetch_add(frames_drained, Ordering::Relaxed);
    }

    /// Records a timed park between empty sweeps (block-based waiting).
    /// Counted as an `epoll_pwait`-class operation: it is the reactor's
    /// stand-in for blocking in the kernel until a socket turns readable.
    pub fn record_park(&self) {
        self.inner.parks.fetch_add(1, Ordering::Relaxed);
        OsOpCounters::global().incr(OsOp::EpollPwait);
    }

    /// Records a CPU-yield between empty sweeps (poll-based waiting).
    pub fn record_yield(&self) {
        self.inner.yields.fetch_add(1, Ordering::Relaxed);
        OsOpCounters::global().incr(OsOp::SchedYield);
    }

    /// Records a connection adopted by a sweep thread.
    pub fn record_registered(&self) {
        self.inner.registered.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection closed and removed from its sweep set.
    pub fn record_closed(&self) {
        self.inner.closed.fetch_add(1, Ordering::Relaxed);
        OsOpCounters::global().incr(OsOp::Close);
    }

    /// Sweeps completed so far.
    pub fn sweeps(&self) -> u64 {
        self.inner.sweeps.load(Ordering::Relaxed)
    }

    /// Complete frames drained across all sweeps.
    pub fn frames(&self) -> u64 {
        self.inner.frames.load(Ordering::Relaxed)
    }

    /// Timed parks taken between empty sweeps.
    pub fn parks(&self) -> u64 {
        self.inner.parks.load(Ordering::Relaxed)
    }

    /// CPU yields taken between empty sweeps.
    pub fn yields(&self) -> u64 {
        self.inner.yields.load(Ordering::Relaxed)
    }

    /// Connections adopted over the reactor's lifetime.
    pub fn registered(&self) -> u64 {
        self.inner.registered.load(Ordering::Relaxed)
    }

    /// Connections closed over the reactor's lifetime.
    pub fn closed(&self) -> u64 {
        self.inner.closed.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for ReactorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorStats")
            .field("sweeps", &self.sweeps())
            .field("frames", &self.frames())
            .field("parks", &self.parks())
            .field("yields", &self.yields())
            .field("registered", &self.registered())
            .field("closed", &self.closed())
            .finish()
    }
}

#[derive(Default)]
struct CoalesceInner {
    frames: AtomicU64,
    flushes: AtomicU64,
}

/// Counters for write coalescing on one endpoint's connections.
///
/// Every frame handed to a connection writer is recorded with
/// [`record_frame`](CoalesceStats::record_frame); every actual socket
/// write with [`record_flush`](CoalesceStats::record_flush). When a frame
/// piggybacks on an in-progress flush the flush count does not grow, so
/// [`saved`](CoalesceStats::saved) is exactly the number of `sendmsg`-class
/// syscalls the coalescing avoided.
#[derive(Clone, Default)]
pub struct CoalesceStats {
    inner: Arc<CoalesceInner>,
}

impl CoalesceStats {
    /// Creates a zeroed stats bundle.
    pub fn new() -> CoalesceStats {
        CoalesceStats::default()
    }

    /// Records a frame queued for transmission.
    pub fn record_frame(&self) {
        self.inner.frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an actual socket write (one or more frames leaving in one
    /// syscall). Ticks the global `sendmsg` counter: this is the only
    /// place coalesced writers touch the wire.
    pub fn record_flush(&self) {
        self.inner.flushes.fetch_add(1, Ordering::Relaxed);
        OsOpCounters::global().incr(OsOp::SendMsg);
    }

    /// Frames queued so far.
    pub fn frames(&self) -> u64 {
        self.inner.frames.load(Ordering::Relaxed)
    }

    /// Socket writes issued so far.
    pub fn flushes(&self) -> u64 {
        self.inner.flushes.load(Ordering::Relaxed)
    }

    /// Syscalls saved by coalescing: frames that left the process without
    /// their own write.
    pub fn saved(&self) -> u64 {
        self.frames().saturating_sub(self.flushes())
    }

    /// Clears both counters.
    pub fn reset(&self) {
        self.inner.frames.store(0, Ordering::Relaxed);
        self.inner.flushes.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for CoalesceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoalesceStats")
            .field("frames", &self.frames())
            .field("flushes", &self.flushes())
            .field("saved", &self.saved())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_counters_accumulate() {
        let s = ReactorStats::new();
        s.record_sweep(4);
        s.record_sweep(0);
        s.record_sweep(2);
        assert_eq!(s.sweeps(), 3);
        assert_eq!(s.frames(), 6);
    }

    #[test]
    fn park_and_yield_fold_into_os_table() {
        let before = OsOpCounters::global().snapshot();
        let s = ReactorStats::new();
        s.record_park();
        s.record_yield();
        let after = OsOpCounters::global().snapshot();
        let delta = after.since(&before);
        assert!(delta.get(OsOp::EpollPwait) >= 1);
        assert!(delta.get(OsOp::SchedYield) >= 1);
        assert_eq!(s.parks(), 1);
        assert_eq!(s.yields(), 1);
    }

    #[test]
    fn registration_lifecycle_counts() {
        let s = ReactorStats::new();
        s.record_registered();
        s.record_registered();
        s.record_closed();
        assert_eq!(s.registered(), 2);
        assert_eq!(s.closed(), 1);
    }

    #[test]
    fn coalesce_saved_is_frames_minus_flushes() {
        let c = CoalesceStats::new();
        for _ in 0..5 {
            c.record_frame();
        }
        c.record_flush();
        c.record_flush();
        assert_eq!(c.frames(), 5);
        assert_eq!(c.flushes(), 2);
        assert_eq!(c.saved(), 3);
        c.reset();
        assert_eq!(c.saved(), 0);
    }

    #[test]
    fn empty_reactor_has_zero_yield() {
        let s = ReactorStats::new();
        assert_eq!((s.sweeps(), s.frames(), s.parks(), s.yields()), (0, 0, 0, 0));
    }

    #[test]
    fn clones_share_state() {
        let s = ReactorStats::new();
        s.clone().record_sweep(1);
        assert_eq!(s.sweeps(), 1);
        let c = CoalesceStats::new();
        c.clone().record_frame();
        assert_eq!(c.frames(), 1);
    }
}
