//! Network-reactor observability: sweep statistics and write coalescing.
//!
//! The paper's mid-tier (Fig. 8) drives all connections from a *fixed* set
//! of network poller threads, and its OS-lens figures (11–14) attribute
//! syscall traffic to that edge. In `SharedPollers` mode each reactor
//! thread repeatedly *sweeps* its connection set; [`ReactorStats`] records
//! how productive those sweeps are and how the reactor waited between
//! empty sweeps (parks vs. yields). [`CoalesceStats`] measures response
//! write coalescing: frames queued while a flush is in progress leave in
//! that one write, so `frames - flushes` is the `sendmsg`-class syscalls
//! saved. A park, yield, close and flush each also count as their
//! [`OsOp`](crate::counters::OsOp) in the process-wide table.
//!
//! ```
//! use musuite_telemetry::netpoll::{CoalesceEvent, CoalesceStats, ReactorStats};
//!
//! let reactor = ReactorStats::new();
//! reactor.record_sweep(3);
//! reactor.record_sweep(0);
//! assert_eq!((reactor.sweeps(), reactor.frames()), (2, 3));
//!
//! let coalesce = CoalesceStats::new();
//! coalesce.add(CoalesceEvent::Frame, 2);
//! coalesce.incr(CoalesceEvent::Flush);
//! assert_eq!(coalesce.saved(), 1);
//! ```

use crate::counters::EventCounters;

crate::event_enum! {
    /// What one reactor (poller pool) counts.
    pub enum ReactorEvent {
        /// A pass over a shard's connection set.
        Sweep = "sweeps",
        /// A complete frame drained by a sweep.
        Frame = "frames",
        /// A timed park between empty sweeps (block-based waiting): the
        /// reactor's stand-in for blocking in the kernel until a socket
        /// turns readable.
        Park = "parks" => EpollPwait,
        /// A CPU yield between empty sweeps (poll-based waiting).
        Yield = "yields" => SchedYield,
        /// A connection adopted by a sweep thread.
        Registered = "registered",
        /// A connection closed and removed from its sweep set.
        Closed = "closed" => Close,
    }
}

crate::event_enum! {
    /// What write coalescing on one endpoint's connections counts.
    pub enum CoalesceEvent {
        /// A frame queued for transmission.
        Frame = "frames",
        /// An actual socket write: one or more frames leaving in one
        /// syscall, the only place coalesced writers touch the wire.
        Flush = "flushes" => SendMsg,
    }
}

/// Counters for one reactor; the reactor shares one set with every sweep
/// thread.
pub type ReactorStats = EventCounters<ReactorEvent, { ReactorEvent::COUNT }>;

impl ReactorStats {
    /// Records one pass over a shard's connection set that drained
    /// `frames_drained` complete frames.
    pub fn record_sweep(&self, frames_drained: u64) {
        self.incr(ReactorEvent::Sweep);
        self.add(ReactorEvent::Frame, frames_drained);
    }

    /// Sweeps completed so far.
    pub fn sweeps(&self) -> u64 {
        self.get(ReactorEvent::Sweep)
    }

    /// Complete frames drained across all sweeps.
    pub fn frames(&self) -> u64 {
        self.get(ReactorEvent::Frame)
    }

    /// Timed parks taken between empty sweeps.
    pub fn parks(&self) -> u64 {
        self.get(ReactorEvent::Park)
    }
}

/// Counters for write coalescing on one endpoint's connections. A frame
/// that piggybacks on an in-progress flush does not grow the flush count,
/// so [`saved`](CoalesceStats::saved) is exactly the `sendmsg`-class
/// syscalls the coalescing avoided.
pub type CoalesceStats = EventCounters<CoalesceEvent, { CoalesceEvent::COUNT }>;

impl CoalesceStats {
    /// Frames queued so far.
    pub fn frames(&self) -> u64 {
        self.get(CoalesceEvent::Frame)
    }

    /// Socket writes issued so far.
    pub fn flushes(&self) -> u64 {
        self.get(CoalesceEvent::Flush)
    }

    /// Syscalls saved by coalescing: frames that left the process without
    /// their own write.
    pub fn saved(&self) -> u64 {
        self.frames().saturating_sub(self.flushes())
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
    fn registration_lifecycle_counts() {
        let s = ReactorStats::new();
        s.incr(ReactorEvent::Registered);
        s.incr(ReactorEvent::Registered);
        s.incr(ReactorEvent::Closed);
        assert_eq!(s.get(ReactorEvent::Registered), 2);
        assert_eq!(s.get(ReactorEvent::Closed), 1);
    }

    #[test]
    fn coalesce_saved_is_frames_minus_flushes() {
        let c = CoalesceStats::new();
        c.add(CoalesceEvent::Frame, 5);
        c.incr(CoalesceEvent::Flush);
        c.incr(CoalesceEvent::Flush);
        assert_eq!(c.frames(), 5);
        assert_eq!(c.flushes(), 2);
        assert_eq!(c.saved(), 3);
        c.reset();
        assert_eq!(c.saved(), 0);
    }
}
