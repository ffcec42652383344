//! Process-wide counters for OS-operation classes.
//!
//! Figs. 11–14 of the paper count *system call invocations per QPS* for
//! each service using eBPF's `syscount`. We cannot attach kernel probes, so
//! the suite instead instruments the exact userspace operations that issue
//! those syscalls: condition-variable waits/notifies and contended lock
//! acquisitions issue `futex`, socket sends issue `sendmsg`, socket
//! receives issue `recvmsg`, readiness blocking issues `epoll_pwait`,
//! thread spawns issue `clone`, and so on. The RPC framework and the
//! instrumented sync primitives tick these counters at those call sites.

use musuite_check::atomic::{AtomicU64, Ordering};
use std::fmt;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// An enum whose variants index a flat array of counters: the one thing
/// [`OsOp`], [`AdmissionEvent`](crate::admission::AdmissionEvent) and
/// [`ResilienceEvent`](crate::resilience::ResilienceEvent) have in common.
/// `N` is the variant count.
pub trait Event<const N: usize>: Copy + 'static {
    /// Every variant, in display order.
    const ALL: [Self; N];

    /// Short stable name used in reports.
    fn name(self) -> &'static str;

    /// This variant's slot in the counter array: unique and below `N`.
    fn index(self) -> usize;
}

/// Classes of OS operations tallied by the suite, mirroring the syscalls
/// the paper's `syscount` histograms report (Figs. 11–14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum OsOp {
    /// `futex` — condvar wait/notify and contended mutex acquisition.
    Futex,
    /// `sendmsg` — message transmitted on a socket.
    SendMsg,
    /// `recvmsg` — message received from a socket.
    RecvMsg,
    /// `epoll_pwait` — blocking wait for socket readiness.
    EpollPwait,
    /// `read` — raw reads (framing headers).
    Read,
    /// `write` — raw writes (framing headers).
    Write,
    /// `clone` — thread creation.
    Clone,
    /// `mmap` — large buffer allocation.
    Mmap,
    /// `munmap` — large buffer release.
    Munmap,
    /// `close` — socket teardown.
    Close,
    /// `openat` — connection establishment (socket/accept).
    OpenAt,
    /// `sched_yield` — explicit yields in poll-mode loops.
    SchedYield,
}

impl OsOp {
    /// The syscall name this operation class corresponds to.
    pub fn syscall_name(&self) -> &'static str {
        match self {
            OsOp::Futex => "futex",
            OsOp::SendMsg => "sendmsg",
            OsOp::RecvMsg => "recvmsg",
            OsOp::EpollPwait => "epoll_pwait",
            OsOp::Read => "read",
            OsOp::Write => "write",
            OsOp::Clone => "clone",
            OsOp::Mmap => "mmap",
            OsOp::Munmap => "munmap",
            OsOp::Close => "close",
            OsOp::OpenAt => "openat",
            OsOp::SchedYield => "sched_yield",
        }
    }
}

impl Event<12> for OsOp {
    /// Display order matches the paper's x-axes.
    const ALL: [OsOp; 12] = [
        OsOp::OpenAt,
        OsOp::SendMsg,
        OsOp::EpollPwait,
        OsOp::Write,
        OsOp::Read,
        OsOp::RecvMsg,
        OsOp::Close,
        OsOp::Futex,
        OsOp::Clone,
        OsOp::Mmap,
        OsOp::Munmap,
        OsOp::SchedYield,
    ];

    fn name(self) -> &'static str {
        self.syscall_name()
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for OsOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.syscall_name())
    }
}

/// The OS-operation counter set ticked by the RPC framework and the
/// instrumented sync primitives.
pub type OsOpCounters = EventCounters<OsOp, 12>;

impl OsOpCounters {
    /// The process-wide set: the only global counter set, since the
    /// syscall profile it stands in for is the process's own.
    pub fn global() -> &'static OsOpCounters {
        static GLOBAL: OnceLock<OsOpCounters> = OnceLock::new();
        GLOBAL.get_or_init(EventCounters::new)
    }
}

/// An immutable point-in-time copy of an [`OsOpCounters`].
pub type CounterSnapshot = EventSnapshot<OsOp, 12>;

/// A set of per-variant relaxed atomic counters indexed by an [`Event`]
/// enum, owned by whatever it counts for (a server, a fan-out). The one
/// process-wide instance is [`OsOpCounters::global`].
///
/// # Examples
///
/// ```
/// use musuite_telemetry::counters::{OsOp, OsOpCounters};
///
/// let counters = OsOpCounters::new();
/// counters.incr(OsOp::Futex);
/// counters.add(OsOp::SendMsg, 3);
/// assert_eq!(counters.get(OsOp::Futex), 1);
/// assert_eq!(counters.get(OsOp::SendMsg), 3);
/// ```
pub struct EventCounters<E, const N: usize> {
    counts: [AtomicU64; N],
    _event: PhantomData<E>,
}

impl<E: Event<N>, const N: usize> Default for EventCounters<E, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Event<N>, const N: usize> EventCounters<E, N> {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        EventCounters { counts: std::array::from_fn(|_| AtomicU64::new(0)), _event: PhantomData }
    }

    /// Increments the counter for `event` by one.
    #[inline]
    pub fn incr(&self, event: E) {
        self.add(event, 1);
    }

    /// Increments the counter for `event` by `n`.
    #[inline]
    pub fn add(&self, event: E, n: u64) {
        self.counts[event.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current count for `event`.
    pub fn get(&self, event: E) -> u64 {
        self.counts[event.index()].load(Ordering::Relaxed)
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> EventSnapshot<E, N> {
        EventSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            _event: PhantomData,
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for counter in &self.counts {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

impl<E: Event<N>, const N: usize> fmt::Debug for EventCounters<E, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.snapshot().iter().map(|(e, count)| (e.name(), count))).finish()
    }
}

/// An immutable point-in-time copy of an [`EventCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSnapshot<E, const N: usize> {
    counts: [u64; N],
    _event: PhantomData<E>,
}

impl<E: Event<N>, const N: usize> EventSnapshot<E, N> {
    /// Count for `event` at snapshot time.
    pub fn get(&self, event: E) -> u64 {
        self.counts[event.index()]
    }

    /// Per-event difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &Self) -> Self {
        EventSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
            _event: PhantomData,
        }
    }

    /// Iterates over `(event, count)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (E, u64)> + '_ {
        E::ALL.into_iter().map(move |event| (event, self.get(event)))
    }

    /// Total of all counters.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Test helper shared by the three event enums: names are unique and
/// non-empty, and `index` is a bijection onto `0..N`.
#[cfg(test)]
pub(crate) fn assert_event_table<E: Event<N> + fmt::Display, const N: usize>() {
    let mut names: Vec<_> = E::ALL.iter().map(|e| e.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), N, "names must be unique");
    let mut slots: Vec<_> = E::ALL.iter().map(|e| e.index()).collect();
    slots.sort_unstable();
    assert_eq!(slots, (0..N).collect::<Vec<_>>(), "indices must cover 0..N exactly once");
    for event in E::ALL {
        assert_eq!(format!("{event}"), event.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_add_snapshot_diff_and_reset() {
        let c = OsOpCounters::new();
        assert_eq!(c.get(OsOp::Futex), 0);
        c.incr(OsOp::Futex);
        c.incr(OsOp::Futex);
        c.add(OsOp::SendMsg, 5);
        assert_eq!(c.get(OsOp::Futex), 2);
        assert_eq!(c.get(OsOp::RecvMsg), 0);
        let s1 = c.snapshot();
        c.add(OsOp::SendMsg, 7);
        c.incr(OsOp::Close);
        let d = c.snapshot().since(&s1);
        assert_eq!(d.get(OsOp::SendMsg), 7);
        assert_eq!(d.get(OsOp::Close), 1);
        assert_eq!(d.get(OsOp::Futex), 0);
        assert_eq!(d.total(), 8);
        assert_eq!(d.iter().map(|(_, n)| n).sum::<u64>(), 8);
        assert_eq!(d.iter().next(), Some((OsOp::OpenAt, 0)), "iteration follows display order");
        c.reset();
        assert_eq!(c.snapshot().total(), 0);
    }

    #[test]
    fn os_op_table_is_consistent() {
        assert_event_table::<OsOp, 12>();
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let c = std::sync::Arc::new(OsOpCounters::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.incr(OsOp::Futex);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(OsOp::Futex), 80_000);
    }

    #[test]
    fn global_is_singleton() {
        let a = OsOpCounters::global() as *const _;
        let b = OsOpCounters::global() as *const _;
        assert_eq!(a, b);
    }
}
