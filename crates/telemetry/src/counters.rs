//! The one counter machinery: every count the suite keeps — a server's
//! requests and refusals, a reactor's sweeps, a fan-out's hedges, the
//! OS-op table — is an [`EventCounters`] over an enum declared with
//! [`event_enum!`](crate::event_enum).
//!
//! Figs. 11–14 of the paper count *system call invocations per QPS* with
//! eBPF's `syscount`. The suite instead counts, in [`OsOpCounters::global`],
//! the userspace operations that issue those syscalls: condvar waits and
//! notifies and contended locks issue `futex`, socket sends `sendmsg`,
//! receives `recvmsg`, readiness blocking `epoll_pwait`, thread spawns
//! `clone`, and so on.

use musuite_check::atomic::{AtomicU64, Ordering};
use std::fmt;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// An enum whose `N` variants index a flat array of counters. Declare one
/// with [`event_enum!`](crate::event_enum), which writes this impl.
pub trait Event<const N: usize>: Copy + fmt::Display + 'static {
    /// Every variant, in declaration (= display) order.
    const ALL: [Self; N];
    /// Short stable name used in reports.
    fn name(self) -> &'static str;
    /// This variant's slot in the counter array: its position in `ALL`.
    fn index(self) -> usize;
    /// The [`OsOp`] this event stands for, if any: each count of the event
    /// is also one of that operation in [`OsOpCounters::global`].
    fn os_op(self) -> Option<OsOp>;
}

/// Declares an [`Event`] enum: the enum (deriving `Debug`, `Copy`, `Eq`,
/// `Ord` and `Hash`), its variant count as `COUNT`, the [`Event`] impl and
/// a `Display` that writes the name. Each variant names its report label
/// and, after `=>`, the [`OsOp`] it also counts as.
///
/// ```
/// use musuite_telemetry::counters::{EventCounters, OsOp, OsOpCounters};
///
/// musuite_telemetry::event_enum! {
///     /// What a toy cache counts.
///     pub enum CacheEvent {
///         /// A lookup that found its key.
///         Hit = "hit",
///         /// A lookup that went to the socket.
///         Miss = "miss" => RecvMsg,
///     }
/// }
///
/// let counters = EventCounters::<CacheEvent, { CacheEvent::COUNT }>::new();
/// let before = OsOpCounters::global().get(OsOp::RecvMsg);
/// counters.incr(CacheEvent::Miss);
/// assert_eq!(counters.get(CacheEvent::Miss), 1);
/// assert!(OsOpCounters::global().get(OsOp::RecvMsg) > before);
/// assert_eq!(format!("{counters:?}"), r#"{"hit": 0, "miss": 1}"#);
/// ```
#[macro_export]
macro_rules! event_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $label:literal $(=> $op:ident)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Number of variants: the `N` of this event's counter set.
            pub const COUNT: usize = [$($label),+].len();
        }

        impl $crate::counters::Event<{ $name::COUNT }> for $name {
            const ALL: [$name; $name::COUNT] = [$($name::$variant),+];

            fn name(self) -> &'static str {
                match self { $( $name::$variant => $label, )+ }
            }
            fn index(self) -> usize {
                self as usize
            }
            fn os_op(self) -> Option<$crate::counters::OsOp> {
                match self { $( $name::$variant => $crate::event_enum!(@os_op $($op)?), )+ }
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str($crate::counters::Event::name(*self))
            }
        }
    };
    (@os_op) => { None };
    (@os_op $op:ident) => { Some($crate::counters::OsOp::$op) };
}

event_enum! {
    /// Classes of OS operations tallied by the suite, mirroring the
    /// syscalls the paper's `syscount` histograms report (Figs. 11–14), in
    /// the order of the paper's x-axes.
    #[non_exhaustive]
    pub enum OsOp {
        /// `openat` — connection establishment (socket/accept).
        OpenAt = "openat",
        /// `sendmsg` — message transmitted on a socket.
        SendMsg = "sendmsg",
        /// `epoll_pwait` — blocking wait for socket readiness.
        EpollPwait = "epoll_pwait",
        /// `write` — raw writes (framing headers).
        Write = "write",
        /// `read` — raw reads (framing headers).
        Read = "read",
        /// `recvmsg` — message received from a socket.
        RecvMsg = "recvmsg",
        /// `close` — socket teardown.
        Close = "close",
        /// `futex` — condvar wait/notify and contended mutex acquisition.
        Futex = "futex",
        /// `clone` — thread creation.
        Clone = "clone",
        /// `mmap` — large buffer allocation.
        Mmap = "mmap",
        /// `munmap` — large buffer release.
        Munmap = "munmap",
        /// `sched_yield` — explicit yields in poll-mode loops.
        SchedYield = "sched_yield",
    }
}

/// The OS-operation counter set.
pub type OsOpCounters = EventCounters<OsOp, { OsOp::COUNT }>;

impl OsOpCounters {
    /// The process-wide set: the only global counter set, since the
    /// syscall profile it stands in for is the process's own.
    pub fn global() -> &'static OsOpCounters {
        static GLOBAL: OnceLock<OsOpCounters> = OnceLock::new();
        GLOBAL.get_or_init(EventCounters::new)
    }
}

/// An immutable point-in-time copy of an [`OsOpCounters`].
pub type CounterSnapshot = EventSnapshot<OsOp, { OsOp::COUNT }>;

/// A set of per-variant relaxed atomic counters indexed by an [`Event`]
/// enum, owned by whatever it counts for (a server, a reactor, a fan-out;
/// an `Arc` shares it between threads). The one process-wide instance is
/// [`OsOpCounters::global`].
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

    /// Increments the counter for `event` by `n`, and the process-wide
    /// count of the [`OsOp`] it stands for, if any, by as much.
    #[inline]
    pub fn add(&self, event: E, n: u64) {
        self.counts[event.index()].fetch_add(n, Ordering::Relaxed);
        if let Some(op) = event.os_op() {
            OsOpCounters::global().add(op, n);
        }
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

/// Panics unless `E`'s names are unique and non-empty, and each variant's
/// `index` is its position in `ALL`. [`event_enum!`](crate::event_enum)
/// guarantees the latter; a test calls this once per enum for the former.
pub fn assert_event_table<E: Event<N>, const N: usize>() {
    let mut names: Vec<_> = E::ALL.iter().map(|e| e.name()).filter(|n| !n.is_empty()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), N, "names must be unique and non-empty");
    assert!(E::ALL.iter().enumerate().all(|(slot, e)| e.index() == slot));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::FlushReason;
    use crate::netpoll::{CoalesceEvent, CoalesceStats, ReactorEvent, ReactorStats};
    use crate::resilience::ResilienceEvent;
    use std::sync::Arc;

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
        assert_eq!(s1.since(&c.snapshot()).total(), 0, "since saturates at zero");
        let debug = format!("{c:?}");
        assert!(debug.starts_with("{\"openat\": 0, \"sendmsg\": 12,"), "{debug}");
        c.reset();
        assert_eq!(c.snapshot().total(), 0);
    }

    #[test]
    fn os_op_table_is_consistent() {
        assert_event_table::<OsOp, 12>();
    }

    #[test]
    fn batching_and_netpoll_event_tables_are_consistent() {
        assert_event_table::<FlushReason, { FlushReason::COUNT }>();
        assert_event_table::<ReactorEvent, { ReactorEvent::COUNT }>();
        assert_event_table::<CoalesceEvent, { CoalesceEvent::COUNT }>();
    }

    /// The four events that stand for an OS operation, each ticked once
    /// through its own counter set. The table is process-wide and other
    /// tests tick it too, hence `>=`.
    #[test]
    fn every_os_op_fold_ticks_the_global_table() {
        let reactor = ReactorStats::new();
        let coalesce = CoalesceStats::new();
        let folds: [(&dyn Fn(), OsOp); 4] = [
            (&|| reactor.incr(ReactorEvent::Park), OsOp::EpollPwait),
            (&|| reactor.incr(ReactorEvent::Yield), OsOp::SchedYield),
            (&|| reactor.incr(ReactorEvent::Closed), OsOp::Close),
            (&|| coalesce.incr(CoalesceEvent::Flush), OsOp::SendMsg),
        ];
        for (tick, op) in folds {
            let before = OsOpCounters::global().snapshot();
            tick();
            assert!(OsOpCounters::global().snapshot().since(&before).get(op) >= 1, "{op}");
        }
        let declared: Vec<_> = ReactorEvent::ALL
            .iter()
            .filter_map(|e| e.os_op().map(|op| (e.name(), op)))
            .chain(CoalesceEvent::ALL.iter().filter_map(|e| e.os_op().map(|op| (e.name(), op))))
            .collect();
        assert_eq!(
            declared,
            [
                ("parks", OsOp::EpollPwait),
                ("yields", OsOp::SchedYield),
                ("closed", OsOp::Close),
                ("flushes", OsOp::SendMsg),
            ],
            "exactly these events fold into the OS-op table"
        );
        assert!(OsOp::ALL.iter().all(|e| e.os_op().is_none()));
        assert!(ResilienceEvent::ALL.iter().all(|e| e.os_op().is_none()));
        assert!(FlushReason::ALL.iter().all(|e| e.os_op().is_none()));
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let c = Arc::new(OsOpCounters::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr(OsOp::Futex);
                    }
                })
            })
            .collect();
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
