//! Scatter–gather fan-out to leaf microservers with count-down merge, and
//! the tail-tolerance policy a group may carry.
//!
//! The mid-tier "must manage fan-out of a single incoming query to many
//! leaf microservers" (paper §I). [`FanoutGroup`] holds one asynchronous
//! client per leaf; a scatter issues all leaf requests and arranges for
//! the completion closure to run on the thread that receives the **last**
//! leaf response. All earlier response threads do negligible work — stash
//! the payload, decrement a counter — exactly the paper's design ("we do
//! not explicitly dispatch responses, as all but the last response thread
//! do negligible work").
//!
//! Every attempt's request is written by the scatter's [`ScatterPlan`],
//! straight into the pending buffer of the leaf connection it goes out
//! on: a typed plan encodes it, and a caller's list of payloads copies
//! it there, from a reference-counted [`Bytes`] that siblings may share.
//! Replies come back as [`Bytes`] slices of each client
//! connection's receive buffer, so neither direction holds payload bytes
//! in a buffer of their own inside the process. The plan reads a slot's reply once, on the thread that
//! claims the slot, so the gather holds typed replies and a losing
//! hedge's reply is dropped unread.
//!
//! A group from `connect*` is bare: each slot is one attempt. A group
//! given a [`ResilientConfig`] ([`FanoutGroup::with_resilience`]) runs the
//! tail-tolerance toolkit on the same scatter path, so that one slow or
//! dead leaf does not reach every request:
//!
//! * **Hedges** — after a fixed delay a duplicate attempt goes to the
//!   slot's next target; the first answer wins, by one atomic claim per
//!   slot (model-checked under `musuite_check`).
//! * **Bounded retry with backoff** — an attempt that ends without an
//!   answer (transport, timeout, shed, expired) is re-sent to the slot's
//!   next target (e.g. a `ReplicaSet::read_replica` sibling), at most
//!   `retries` times. A leaf's own refusal ([`FailureKind::Remote`]) is the
//!   slot's answer: not retried, and a success for the leaf's breaker.
//! * **Per-leaf circuit breakers** — consecutive failures open the
//!   breaker, which then sheds attempts at once with
//!   [`RpcError::CircuitOpen`]; after a cooldown one half-open probe
//!   decides whether it closes. Opening schedules a reconnect of the leaf,
//!   and an attempt to a leaf with no live connection reconnects it first.
//!
//! Failures stay per slot (the [`FanoutResult`] keeps which leaf failed
//! and why), so mid-tiers can degrade to best-effort answers. Each slot's
//! claim, pending count, retry credits and rotation live in the scatter's
//! one slot array. An attempt boxes nothing: its in-flight entry, and the
//! timer entry of a queued hedge or retry, hold the scatter's state
//! (type-erased) and name its slot. One timer per group, started by its
//! first task, serves hedges, retries and reconnects.

use crate::client::{CallOptions, Pending, RpcClient};
use crate::config::BatchPolicy;
use crate::error::{FailureKind, RpcError};
use crate::fault::FaultPlan;
use crate::reactor::Reactor;
use crate::resilient::{Admission, CircuitBreaker, HedgePolicy, ResilientConfig};
use crate::timer::{Fate, Timer};
use bytes::{Bytes, BytesMut};
use musuite_check::atomic::{AtomicBool, AtomicUsize, Ordering};
use musuite_check::sync::{Mutex, RwLock};
use musuite_codec::Priority;
use musuite_telemetry::clock::Clock;
use musuite_telemetry::resilience::{ResilienceCounters, ResilienceEvent};
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The gathered outcome of one scatter: per-leaf results in request order
/// plus the wall-clock time the fan-out took (used to attribute leaf time
/// vs. mid-tier time in the `Net` stage). `R` is what the scatter's plan
/// reads a reply as: the reply's bytes for a scatter of payloads.
#[derive(Debug)]
pub struct FanoutResult<R = Bytes> {
    /// One entry per scattered request, in the order they were passed.
    /// Successful byte replies are zero-copy slices of the leaf
    /// connection's read buffer.
    pub replies: Vec<Result<R, RpcError>>,
    /// Nanoseconds from scatter to last response.
    pub elapsed_ns: u64,
}

impl<R> FanoutResult<R> {
    /// Returns the successful replies, dropping failures.
    pub fn successes(self) -> Vec<R> {
        self.replies.into_iter().filter_map(Result::ok).collect()
    }

    /// Returns `true` if every leaf replied successfully.
    pub fn all_ok(&self) -> bool {
        self.replies.iter().all(Result::is_ok)
    }

    /// Iterates over the failed slots as `(slot index, error)` pairs, in
    /// request order — the per-leaf detail `successes` drops, needed by
    /// degradation policy ("which shard is missing?") and chaos assertions
    /// ("did that leaf time out or disconnect?").
    pub fn failures(&self) -> impl Iterator<Item = (usize, &RpcError)> {
        self.replies
            .iter()
            .enumerate()
            .filter_map(|(slot, reply)| reply.as_ref().err().map(|e| (slot, e)))
    }
}

/// What one attempt of a slot came back with, before the plan reads it.
type Reply = Result<Bytes, RpcError>;

// The last arrival turns the gathered `Vec<Option<Result<R, _>>>` into the
// result's `Vec<Result<R, _>>` in place, which takes no allocator call
// when the two are laid out alike. `RpcError` leaves a niche, so they are
// for `Bytes` and for the services' leaf responses.
const _: () = assert!(std::mem::size_of::<Option<Reply>>() == std::mem::size_of::<Reply>());

/// What a scatter owns and reads in place: its calls, how every attempt
/// writes a slot's request, and how a slot's reply is read.
///
/// The scatter takes the calls once, when it starts. Each attempt —
/// primary, hedge or retry — then writes what
/// [`encode`](ScatterPlan::encode) appends, straight into the pending
/// buffer of the connection it goes out on: the plan is the one place a
/// slot's request is held. A mid-tier's plan encodes each leaf's request
/// from the state it owns; a caller's `(leaf, method, payload)` list is a
/// plan that copies the slot's payload.
pub trait ScatterPlan: Send + Sync + 'static {
    /// What a slot's reply is read as.
    type Reply: Send + 'static;

    /// The scatter's calls in slot order: each slot's primary target,
    /// method and alternates. The requests stay with the plan.
    fn calls(&mut self) -> impl ExactSizeIterator<Item = LeafCall> + '_;

    /// Appends `slot`'s request to `buf`.
    fn encode(&self, slot: usize, buf: &mut BytesMut);

    /// Reads the reply that claimed a slot, once, on the thread it arrived
    /// on. An error is the slot's answer, as a leaf's refusal is: it is
    /// not retried.
    ///
    /// # Errors
    ///
    /// Whatever error the slot's answer should be, typically a decode
    /// failure.
    fn decode(&self, reply: Bytes) -> Result<Self::Reply, RpcError>;
}

/// A caller's `(leaf index, method, payload)` triples, each slot's request
/// its payload, gathered as bytes. Every attempt copies the payload's bytes
/// from a clone of it: a reference count for [`Bytes`], a copy of the
/// vector for a `Vec<u8>`.
impl<P> ScatterPlan for Vec<(usize, u32, P)>
where
    P: Into<Bytes> + Clone + Send + Sync + 'static,
{
    type Reply = Bytes;

    fn calls(&mut self) -> impl ExactSizeIterator<Item = LeafCall> + '_ {
        self.iter().map(|&(leaf, method, _)| LeafCall::new(leaf, method))
    }

    fn encode(&self, slot: usize, buf: &mut BytesMut) {
        let payload: Bytes = self[slot].2.clone().into();
        buf.extend_from_slice(&payload);
    }

    fn decode(&self, reply: Bytes) -> Result<Bytes, RpcError> {
        Ok(reply)
    }
}

/// A run of consecutive leaves on a ring of `width`: `start`, `start + 1`,
/// and so on, `len` of them, wrapping from `width - 1` to 0. A replica set
/// is one (`ReplicaSet::write_set`), and so is every fail-over list a
/// scatter takes: a span names its leaves without a list on the heap. The
/// default span is empty.
///
/// # Examples
///
/// ```
/// use musuite_rpc::RingSpan;
///
/// let span = RingSpan::new(3, 3, 4);
/// assert_eq!(span.iter().collect::<Vec<_>>(), [3, 0, 1]);
/// assert!(span.contains(0) && !span.contains(2));
/// assert_eq!(RingSpan::from(1..3).iter().collect::<Vec<_>>(), [1, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingSpan {
    start: usize,
    len: usize,
    width: usize,
}

impl RingSpan {
    /// The `len` leaves from `start` on a ring of `width`; every empty span
    /// is the default one.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `width`, or if a non-empty span starts
    /// outside the ring.
    pub fn new(start: usize, len: usize, width: usize) -> RingSpan {
        assert!(len <= width, "a span of {len} does not fit a ring of {width}");
        if len == 0 {
            return RingSpan::default();
        }
        assert!(start < width, "span start {start} is off a ring of {width}");
        RingSpan { start, len, width }
    }

    /// Number of leaves in the span.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the span names no leaf.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `leaf` is in the span.
    pub fn contains(&self, leaf: usize) -> bool {
        self.position(leaf).is_some()
    }

    /// The span's leaves in ring order, from its start.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = usize> {
        let RingSpan { start, len, width } = *self;
        (0..len).map(move |i| (start + i) % width)
    }

    /// Where `leaf` falls in the span, counted from its start.
    fn position(&self, leaf: usize) -> Option<usize> {
        let offset = (leaf < self.width).then(|| (leaf + self.width - self.start) % self.width);
        offset.filter(|&offset| offset < self.len)
    }

    /// The `n`th leaf of the span in ring order with `skip` left out.
    fn nth_skipping(&self, skip: usize, n: usize) -> usize {
        let n = match self.position(skip) {
            Some(at) if at <= n => n + 1,
            _ => n,
        };
        (self.start + n) % self.width
    }
}

/// The leaves of a range that does not wrap, `range.start..range.end`.
impl From<std::ops::Range<usize>> for RingSpan {
    fn from(range: std::ops::Range<usize>) -> RingSpan {
        RingSpan::new(range.start, range.len(), range.end)
    }
}

/// Where one slot of a scatter goes: the primary leaf plus the alternates
/// that hedges and retries may be routed to (typically the primary's
/// replica set). The slot's request is its plan's to write
/// ([`ScatterPlan::encode`]).
#[derive(Debug, Clone, Copy)]
pub struct LeafCall {
    /// Primary target leaf.
    pub leaf: usize,
    /// Method id sent to whichever target serves the slot.
    pub method: u32,
    /// Fail-over targets for hedges and retries: the span's leaves in ring
    /// order, the primary left out if the span holds it.
    pub alternates: RingSpan,
}

impl LeafCall {
    /// A call to `leaf` with no alternates: hedges and retries stay on
    /// the same leaf (a different pooled connection may serve them).
    pub fn new(leaf: usize, method: u32) -> LeafCall {
        LeafCall { leaf, method, alternates: RingSpan::default() }
    }

    /// Adds fail-over targets for hedges and retries: a [`RingSpan`], such
    /// as the primary's replica set, or a range of leaves.
    pub fn with_alternates(mut self, alternates: impl Into<RingSpan>) -> LeafCall {
        self.alternates = alternates.into();
        self
    }
}

/// One slot's attempt state, in its scatter's slot array. Invariants
/// (model-checked below):
/// * `claimed` is taken by `swap` — exactly one attempt delivers, so the
///   count-down merge sees each slot exactly once.
/// * `pending` counts live obligations (in-flight attempts plus queued
///   hedge and retry tasks). Whoever drops it to zero without a prior
///   claim delivers the slot's last error, so the gather always completes.
#[derive(Default)]
struct Slot {
    method: u32,
    /// The slot's rotation is the primary, then each leaf of `alternates`
    /// other than the primary, in ring order, then round again.
    primary: usize,
    alternates: RingSpan,
    rotation: AtomicUsize,
    claimed: AtomicBool,
    pending: AtomicUsize,
    /// The error of the slot's latest failed attempt, and the retry
    /// credits it has left.
    failed: Mutex<(Option<RpcError>, usize)>,
}

impl Slot {
    /// The slot for `call` in a group of `leaves`, owing `pending`
    /// obligations and holding `retries` credits.
    fn new(call: LeafCall, leaves: usize, pending: usize, retries: usize) -> Slot {
        let LeafCall { leaf, method, alternates } = call;
        assert!(leaf < leaves, "leaf index {leaf} out of bounds");
        assert!(alternates.iter().all(|alt| alt < leaves), "alternate index out of bounds");
        Slot {
            method,
            primary: leaf,
            alternates,
            rotation: AtomicUsize::new(1),
            claimed: AtomicBool::new(false),
            pending: AtomicUsize::new(pending),
            failed: Mutex::new((None, retries)),
        }
    }

    fn is_done(&self) -> bool {
        self.claimed.load(Ordering::Acquire)
    }

    /// How many targets the rotation holds besides the primary.
    fn alternate_count(&self) -> usize {
        self.alternates.len() - usize::from(self.alternates.contains(self.primary))
    }

    /// Next target in the slot's rotation (primary, alternates, wrap).
    fn next_target(&self) -> usize {
        match self.rotation.fetch_add(1, Ordering::Relaxed) % (1 + self.alternate_count()) {
            0 => self.primary,
            turn => self.alternates.nth_skipping(self.primary, turn - 1),
        }
    }
}

/// How many slots a scatter holds in its own allocation; a wider one boxes
/// its slot array. Every benchmark workload scatters to one or two leaves.
/// Each inline slot a narrower scatter leaves vacant is a `Slot` (104
/// bytes) of the state's allocation: two slots add one to a scatter of
/// one, where four would add two to a two-leaf Set Algebra request, some
/// 13 % of its bytes on `setalgebra_terms`.
const INLINE_SLOTS: usize = 2;

/// A scatter's slot array: the first `len` of `inline` up to
/// [`INLINE_SLOTS`] wide, all of `boxed` above it. The other field stays
/// vacant (an empty box allocates nothing).
struct Slots {
    inline: [Slot; INLINE_SLOTS],
    boxed: Box<[Slot]>,
    len: usize,
}

impl Slots {
    fn new(slots: impl ExactSizeIterator<Item = Slot>) -> Slots {
        let len = slots.len();
        if len > INLINE_SLOTS {
            return Slots { inline: Default::default(), boxed: slots.collect(), len };
        }
        let mut slots = slots.fuse();
        let inline = std::array::from_fn(|_| slots.next().unwrap_or_default());
        Slots { inline, boxed: Box::default(), len }
    }
}

impl std::ops::Deref for Slots {
    type Target = [Slot];

    fn deref(&self) -> &[Slot] {
        match self.len {
            len if len > INLINE_SLOTS => &self.boxed,
            len => &self.inline[..len],
        }
    }
}

/// One scatter's state: its group's core, its slot array, its plan and the
/// count-down gather. One allocation holds the count, the replies' header,
/// the completion, the plan, the budget every attempt shares and, up to
/// [`INLINE_SLOTS`] wide, the slots; the replies are an allocation of
/// their own (the merge takes them), and so are the slots of a wider
/// scatter. The last arrival runs the merge.
struct ScatterState<P: ScatterPlan, F> {
    core: Arc<Core>,
    slots: Slots,
    remaining: AtomicUsize,
    gathered: Mutex<Gathered<P::Reply, F>>,
    started_at_ns: u64,
    /// Every attempt — primary, hedge or retry — is bounded by what is
    /// left of this when it launches, so retries cannot extend the
    /// caller's deadline.
    deadline: Option<Instant>,
    /// Priority class every attempt carries on the wire.
    priority: Priority,
    plan: P,
}

struct Gathered<R, F> {
    replies: Vec<Option<Result<R, RpcError>>>,
    on_complete: Option<F>,
}

/// A scatter without its types: what its attempts' in-flight entries and
/// its queued hedges and retries hold.
trait Scatter: Send + Sync {
    /// An attempt of `slot` to `target` came back with `reply`.
    fn attempt_done(self: Arc<Self>, slot: usize, target: usize, hedge: bool, reply: Reply);

    /// A queued attempt of `slot` reached the timer's handler: a retry
    /// against `target`, or a hedge (`None`), which takes the slot's next
    /// target when it fires.
    fn attempt_due(self: Arc<Self>, slot: usize, target: Option<usize>, fate: Fate);
}

/// One attempt's in-flight entry: the scatter it serves, the slot, the
/// target it went to, and whether it is a hedge.
pub(crate) struct Attempt {
    scatter: Arc<dyn Scatter>,
    slot: usize,
    target: usize,
    hedge: bool,
}

impl Attempt {
    /// Hands the attempt's reply to its scatter.
    pub(crate) fn done(self, reply: Reply) {
        self.scatter.attempt_done(self.slot, self.target, self.hedge, reply);
    }
}

impl<P, F> ScatterState<P, F>
where
    P: ScatterPlan,
    F: FnOnce(FanoutResult<P::Reply>) + Send + 'static,
{
    fn new(
        core: Arc<Core>,
        slots: Slots,
        opts: CallOptions,
        plan: P,
        on_complete: F,
    ) -> Arc<ScatterState<P, F>> {
        Arc::new(ScatterState {
            remaining: AtomicUsize::new(slots.len()),
            gathered: Mutex::new(Gathered {
                replies: (0..slots.len()).map(|_| None).collect(),
                on_complete: Some(on_complete),
            }),
            slots,
            started_at_ns: core.clock.now_ns(),
            core,
            deadline: opts.timeout.map(|limit| Instant::now() + limit),
            priority: opts.priority,
            plan,
        })
    }

    /// Delivers `slot`'s answer; the last delivery runs the completion.
    fn arrive(&self, slot: usize, answer: Result<P::Reply, RpcError>) {
        let prev = self.gathered.lock().replies[slot].replace(answer);
        assert!(prev.is_none(), "fan-out slot {slot} completed twice");
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last response: merge here, on the response pick-up thread.
            let (replies, callback) = {
                let mut gathered = self.gathered.lock();
                (std::mem::take(&mut gathered.replies), gathered.on_complete.take())
            };
            if let Some(callback) = callback {
                let replies = replies
                    .into_iter()
                    .map(|slot| slot.expect("all slots filled at count-down zero")) // lint: allow(expect): model-checked invariant
                    .collect();
                let elapsed_ns = self.core.clock.now_ns().saturating_sub(self.started_at_ns);
                callback(FanoutResult { replies, elapsed_ns });
            }
        }
    }

    /// Delivers `reply`, read by the plan, as `slot`'s answer if no other
    /// attempt has claimed the slot. A `hedge` that claims it is counted
    /// as won before the answer arrives, so the completion sees the count.
    fn deliver(&self, slot: usize, reply: Reply, hedge: bool) {
        if self.slots[slot].claimed.swap(true, Ordering::AcqRel) {
            return;
        }
        if hedge {
            self.core.counters.incr(ResilienceEvent::HedgeWon);
        }
        self.arrive(slot, reply.and_then(|payload| self.plan.decode(payload)));
    }

    /// Drops one of `slot`'s obligations; the last one out delivers the
    /// slot's last error, unless an answer already claimed the slot.
    fn release(&self, slot: usize) {
        let this = &self.slots[slot];
        if this.pending.fetch_sub(1, Ordering::AcqRel) == 1 && !this.is_done() {
            let error = this.failed.lock().0.take();
            self.deliver(slot, Err(error.unwrap_or(RpcError::ShuttingDown)), false);
        }
    }

    /// Records a failed attempt's error and releases its obligation.
    fn fail(&self, slot: usize, error: RpcError) {
        self.slots[slot].failed.lock().0 = Some(error);
        self.release(slot);
    }

    /// Issues one attempt for `slot` against `target`, or the next target
    /// in the slot's rotation that the breakers admit. Consumes one of the
    /// slot's obligations on every path: into the attempt's in-flight
    /// entry, or released if nothing could be issued.
    fn launch(self: &Arc<Self>, slot: usize, target: usize, hedge: bool) {
        let core = &self.core;
        if core.is_shut() {
            return self.fail(slot, RpcError::ShuttingDown);
        }
        let this = &self.slots[slot];
        let mut candidates =
            std::iter::once(target).chain(std::iter::repeat_with(|| this.next_target()));
        let Some(target) =
            candidates.by_ref().take(1 + this.alternate_count()).find(|&t| core.admit(t))
        else {
            // Every candidate shed: fail without charging any breaker
            // (they are already open).
            return self.finish_attempt(slot, None, RpcError::CircuitOpen);
        };
        if core.resilience.is_some() && core.leaves[target].live_count() == 0 {
            if let Err(error) = core.reconnect(target) {
                return self.finish_attempt(slot, Some(target), error);
            }
        }
        // Per-hop budget decay: the attempt is bounded by the tighter of
        // the configured attempt deadline and what remains of the slot's
        // end-to-end budget right now (a retry after backoff sees less
        // than the primary did).
        let remaining =
            self.deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
        if remaining.is_some_and(|left| left.is_zero()) {
            // Budget exhausted before launch: fail without touching the
            // wire and without charging the target's breaker.
            return self.finish_attempt(slot, None, RpcError::TimedOut);
        }
        let timeout = match (core.resilience.and_then(|config| config.attempt_timeout), remaining) {
            (Some(configured), Some(left)) => Some(configured.min(left)),
            (configured, left) => configured.or(left),
        };
        let done = Pending::Attempt(Attempt { scatter: self.clone(), slot, target, hedge });
        let body = |buf: &mut BytesMut| self.plan.encode(slot, buf);
        let opts = CallOptions { timeout, priority: self.priority };
        match core.leaves[target].pick() {
            Some(conn) => conn.call_async_inner(this.method, body, opts, done),
            None => done.complete(Err(RpcError::ShuttingDown)),
        }
    }

    /// Accounts an attempt that ended without an answer: charges the
    /// target's breaker, then either schedules a retry (the obligation
    /// passes to the timer) or releases the obligation — the last release
    /// delivers the slot's error.
    fn finish_attempt(self: &Arc<Self>, slot: usize, target: Option<usize>, error: RpcError) {
        let core = &self.core;
        if let Some(leaf) = target {
            let now_ns = core.clock.now_ns();
            if let Some(breaker) = core.breakers.get(leaf).filter(|b| b.on_failure(now_ns)) {
                core.counters.incr(ResilienceEvent::BreakerOpened);
                // Heal the leaf in the background so the half-open probe
                // has a fresh connection to use.
                let due = Instant::now() + breaker.cooldown();
                core.timer.schedule(due, Task::Reconnect(core.clone(), leaf));
            }
        }
        let this = &self.slots[slot];
        let retry = {
            let mut failed = this.failed.lock();
            failed.0 = Some(error);
            let retry = failed.1 > 0 && !this.is_done();
            failed.1 -= usize::from(retry);
            retry
        };
        if !retry {
            return self.release(slot);
        }
        core.counters.incr(ResilienceEvent::Retry);
        let backoff = core.resilience.map_or(Duration::ZERO, |config| config.backoff);
        self.schedule_attempt(slot, Some(this.next_target()), Instant::now() + backoff);
    }

    /// Queues an attempt of `slot` for `at` on the group's timer (see
    /// [`Scatter::attempt_due`]). A cancelled one, or one whose slot has
    /// been answered, releases its obligation.
    fn schedule_attempt(self: &Arc<Self>, slot: usize, target: Option<usize>, at: Instant) {
        self.core.timer.schedule(at, Task::Attempt(self.clone(), slot, target));
    }
}

impl<P, F> Scatter for ScatterState<P, F>
where
    P: ScatterPlan,
    F: FnOnce(FanoutResult<P::Reply>) + Send + 'static,
{
    /// Runs on the response pick-up (or reaper) thread.
    fn attempt_done(self: Arc<Self>, slot: usize, target: usize, hedge: bool, reply: Reply) {
        match reply {
            Err(error) if error.failure_kind() != FailureKind::Remote => {
                self.finish_attempt(slot, Some(target), error)
            }
            // The leaf answered: with a value, or with a refusal another
            // attempt would only repeat. Either is the slot's answer.
            answer => {
                let core = &self.core;
                if core.breakers.get(target).is_some_and(CircuitBreaker::on_success) {
                    core.counters.incr(ResilienceEvent::BreakerClosed);
                }
                self.deliver(slot, answer, hedge);
                self.release(slot);
            }
        }
    }

    fn attempt_due(self: Arc<Self>, slot: usize, target: Option<usize>, fate: Fate) {
        match fate {
            Fate::Due if !self.slots[slot].is_done() => {
                if target.is_none() {
                    self.core.counters.incr(ResilienceEvent::HedgeFired);
                }
                let leaf = target.unwrap_or_else(|| self.slots[slot].next_target());
                self.launch(slot, leaf, target.is_none());
            }
            _ => self.release(slot),
        }
    }
}
/// The connections to one leaf: a small pool used round-robin, mirroring
/// the paper's "one TCP connection to a given destination per thread"
/// (one connection per response pick-up thread here). The pool is behind
/// a read–write lock so broken connections can be swapped for fresh ones
/// while pickers proceed under read locks; dropping the group empties it.
struct LeafConns {
    conns: RwLock<Vec<Arc<RpcClient>>>,
    next: AtomicUsize,
}

impl LeafConns {
    /// Round-robin pick that prefers a live connection: the first open one
    /// from the rotation point, else the rotation pick, so the call fails
    /// fast with [`RpcError::ConnectionClosed`]. `None` once dropped.
    fn pick(&self) -> Option<Arc<RpcClient>> {
        let conns = self.conns.read();
        let len = conns.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        let mut rotated = (0..len).map(|offset| &conns[(start + offset) % len]);
        let first = rotated.next()?;
        let live = std::iter::once(first).chain(rotated).find(|conn| !conn.is_closed());
        Some(live.unwrap_or(first).clone())
    }

    fn live_count(&self) -> usize {
        self.conns.read().iter().filter(|conn| !conn.is_closed()).count()
    }
}

/// An entry on the group's one timer.
enum Task {
    /// Replaces a leaf's broken connections after its breaker opened.
    Reconnect(Arc<Core>, usize),
    /// A hedge or retry of one slot of a scatter, and the retry's target
    /// (see [`Scatter::attempt_due`]).
    Attempt(Arc<dyn Scatter>, usize, Option<usize>),
}

impl Task {
    fn run(self, fate: Fate) {
        match (self, fate) {
            (Task::Reconnect(core, leaf), Fate::Due) => {
                let _ = core.reconnect(leaf);
            }
            (Task::Attempt(scatter, slot, target), fate) => scatter.attempt_due(slot, target, fate),
            // A cancelled reconnect needs nothing: the group is shutting
            // down.
            (Task::Reconnect(..), Fate::Cancelled) => {}
        }
    }
}

/// What a group's handle, its attempt callbacks and its timer tasks share.
struct Core {
    leaves: Vec<LeafConns>,
    clock: Clock,
    /// `None` for a bare group: no breaker, hedge, retry or reconnect.
    resilience: Option<ResilientConfig>,
    breakers: Vec<CircuitBreaker>,
    counters: ResilienceCounters,
    shut: AtomicBool,
    timer: Timer<Task>,
}

impl Core {
    /// A bare group's core over `leaves`.
    fn new(leaves: Vec<LeafConns>) -> Core {
        Core {
            leaves,
            clock: Clock::new(),
            resilience: None,
            breakers: Vec::new(),
            counters: ResilienceCounters::new(),
            shut: AtomicBool::new(false),
            timer: Timer::new("musuite-fanout-timer", Task::run),
        }
    }

    fn is_shut(&self) -> bool {
        self.shut.load(Ordering::Acquire)
    }

    /// How long a slot waits before its hedge, if the policy hedges.
    fn hedge_delay(&self) -> Option<Duration> {
        match self.resilience.map(|config| config.hedge) {
            Some(HedgePolicy::After(delay)) => Some(delay),
            _ => None,
        }
    }

    /// Whether `leaf`'s breaker, if any, lets an attempt through.
    fn admit(&self, leaf: usize) -> bool {
        let admission = self.breakers.get(leaf).map(|breaker| breaker.admit(self.clock.now_ns()));
        if admission == Some(Admission::Probe) {
            self.counters.incr(ResilienceEvent::BreakerProbe);
        }
        admission != Some(Admission::Reject)
    }

    /// Replaces every closed connection in `leaf`'s pool with a fresh one
    /// ([`RpcClient::reconnect`]: same fault-plan view, so a dead leaf
    /// refuses it, and same reactor) and returns how many it replaced.
    /// Refuses after shutdown.
    fn reconnect(&self, leaf: usize) -> Result<usize, RpcError> {
        let pool = &self.leaves[leaf];
        let mut conns = pool.conns.write();
        if self.is_shut() {
            return Err(RpcError::ShuttingDown);
        }
        let mut replaced = 0;
        for conn in conns.iter_mut().filter(|conn| conn.is_closed()) {
            *conn = Arc::new(conn.reconnect()?);
            replaced += 1;
        }
        if replaced > 0 {
            self.counters.incr(ResilienceEvent::Reconnect);
        }
        Ok(replaced)
    }

    fn shutdown(&self) {
        self.shut.store(true, Ordering::Release);
        self.timer.shutdown();
        for leaf in &self.leaves {
            leaf.conns.read().iter().for_each(|conn| conn.shutdown());
        }
    }
}

/// A set of asynchronous clients, one connection pool per leaf
/// microserver, and the policy its scatters run (see the module docs).
///
/// With a shared [`Reactor`] attached
/// ([`FanoutGroup::connect_with_plan_via`]), every leaf connection —
/// including later reconnects — registers with the reactor instead of
/// spawning a response pick-up thread, so the client-side network thread
/// count is the reactor's fixed poller count regardless of fan-out width.
///
/// Shutdown and drop **abort**, and mean the same: later attempts fail
/// fast with [`RpcError::ShuttingDown`] and nothing reconnects; queued
/// hedges and retries are cancelled, each slot still delivering once;
/// and calls on the wire fail with [`RpcError::ConnectionClosed`] as their
/// connections close.
/// In-flight attempts and timer tasks hold the group's shared core, never
/// this handle, so dropping the handle aborts even with calls in flight.
pub struct FanoutGroup {
    core: Arc<Core>,
}

impl FanoutGroup {
    /// Connects one connection to every leaf address, in order.
    ///
    /// # Errors
    ///
    /// Returns the first connection error encountered.
    pub fn connect<A: ToSocketAddrs>(addrs: &[A]) -> Result<FanoutGroup, RpcError> {
        Self::connect_with_plan_via(addrs, 1, None, None)
    }

    /// The general connect: `conns_per_leaf` connections to every leaf
    /// (each extra connection spreads leaf responses, and the merge work
    /// done on the last one, across pick-up threads); optionally a
    /// fault-injection plan, whose per-leaf view every connection to leaf
    /// `i` carries; optionally a shared [`Reactor`] that picks up every
    /// leaf connection's responses instead of per-connection threads.
    /// Reconnects inherit the plan and the reactor.
    ///
    /// # Errors
    ///
    /// Returns the first connection error encountered.
    ///
    /// # Panics
    ///
    /// Panics if `conns_per_leaf` is zero or the plan covers fewer leaves
    /// than `addrs`.
    pub fn connect_with_plan_via<A: ToSocketAddrs>(
        addrs: &[A],
        conns_per_leaf: usize,
        plan: Option<&Arc<FaultPlan>>,
        reactor: Option<&Arc<Reactor>>,
    ) -> Result<FanoutGroup, RpcError> {
        assert!(conns_per_leaf > 0, "need at least one connection per leaf");
        let mut leaves = Vec::with_capacity(addrs.len());
        for (leaf, addr) in addrs.iter().enumerate() {
            let faults = plan.map(|plan| plan.client_faults(leaf));
            let mut conns = Vec::with_capacity(conns_per_leaf);
            for _ in 0..conns_per_leaf {
                conns.push(Arc::new(RpcClient::connect_with(addr, faults.clone(), reactor)?));
            }
            leaves.push(LeafConns { conns: RwLock::new(conns), next: AtomicUsize::new(0) });
        }
        Ok(FanoutGroup { core: Arc::new(Core::new(leaves)) })
    }

    /// Returns the group unchanged; `policy` is ignored. Per hop, a
    /// scatter's sub-calls are already batched by each leaf connection's
    /// write coalescing and by the leaf server's `pop_batch`, at no cost
    /// per call. A client-side merge buffer that parked them cost 45 %
    /// more allocations per request on `recommend_batched` (EXPERIMENTS.md,
    /// "Every mechanism pays rent"), so there is none; the method stays so
    /// that existing callers compile.
    pub fn with_batching(self, _policy: BatchPolicy) -> FanoutGroup {
        self
    }

    /// Gives the group a resilience policy: attempt deadlines, hedges,
    /// retries with backoff, per-leaf circuit breakers, and a reconnect
    /// before an attempt to a leaf with no live connection. A group from
    /// `connect*` runs none of these.
    ///
    /// # Panics
    ///
    /// Panics if a scatter through this group is still in flight.
    pub fn with_resilience(mut self, config: ResilientConfig) -> FanoutGroup {
        let leaves = self.len();
        let core = self.core_mut();
        core.breakers = match config.breaker {
            Some(breaker) => (0..leaves).map(|_| CircuitBreaker::new(breaker)).collect(),
            None => Vec::new(),
        };
        core.resilience = Some(config);
        self
    }

    fn core_mut(&mut self) -> &mut Core {
        // lint: allow(expect): only a scatter in flight shares the core
        Arc::get_mut(&mut self.core).expect("configure a fan-out group before scattering")
    }

    /// The group's hedge, retry, breaker and reconnect counters.
    pub fn counters(&self) -> &ResilienceCounters {
        &self.core.counters
    }

    /// Number of leaves in the group.
    pub fn len(&self) -> usize {
        self.core.leaves.len()
    }

    /// Returns `true` if the group has no leaves.
    pub fn is_empty(&self) -> bool {
        self.core.leaves.is_empty()
    }

    /// Aborts the group (see the type's docs); the handle stays usable,
    /// and every scatter through it fails fast. Idempotent.
    pub fn shutdown(&self) {
        self.core.shutdown();
    }

    /// Scatters `requests` — `(leaf index, method, payload)` triples — and
    /// runs `on_complete` on the response thread that receives the final
    /// reply. The request list is the scatter's plan: to scatter it under
    /// [`CallOptions`], hand it to [`FanoutGroup::scatter_encoded`].
    ///
    /// An empty request list completes immediately on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if any leaf index is out of bounds.
    pub fn scatter<P, F>(&self, requests: Vec<(usize, u32, P)>, on_complete: F)
    where
        P: Into<Bytes> + Clone + Send + Sync + 'static,
        F: FnOnce(FanoutResult) + Send + 'static,
    {
        self.scatter_encoded(requests, CallOptions::default(), on_complete);
    }

    /// The one scatter: issues every call of `plan` under the group's
    /// policy and runs `on_complete`, on the thread that delivers last,
    /// when every slot has delivered an answer or its final error. Slot
    /// order in the result matches the order of the plan's calls.
    ///
    /// The scatter owns the plan and reads it in place (see
    /// [`ScatterPlan`]): every attempt encodes its slot's request straight
    /// into the pending buffer of the connection it goes out on, and the
    /// reply that claims a slot is read by the plan on the thread it
    /// arrived on, so the result holds the plan's typed replies.
    ///
    /// `opts.timeout` is the end-to-end bound (the caller's remaining
    /// budget) and `opts.priority` rides on every attempt's frame. Each
    /// attempt is clamped to what is left of the budget when it launches,
    /// so a retry departs with a *smaller* budget than the primary, and a
    /// leaf that has not answered in time fails its slot with
    /// [`RpcError::TimedOut`] instead of stalling the merge.
    ///
    /// A plan without calls completes immediately on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if any target index is out of bounds.
    pub fn scatter_encoded<P, F>(&self, mut plan: P, opts: CallOptions, on_complete: F)
    where
        P: ScatterPlan,
        F: FnOnce(FanoutResult<P::Reply>) + Send + 'static,
    {
        let core = &self.core;
        let (leaves, hedge) = (core.leaves.len(), core.hedge_delay());
        let pending = 1 + usize::from(hedge.is_some());
        let retries = core.resilience.map_or(0, |config| config.retries as usize);
        let slots = Slots::new(plan.calls().map(|call| Slot::new(call, leaves, pending, retries)));
        if slots.is_empty() {
            on_complete(FanoutResult { replies: Vec::new(), elapsed_ns: 0 });
            return;
        }
        let state = ScatterState::new(core.clone(), slots, opts, plan, on_complete);
        for slot in 0..state.slots.len() {
            if let Some(delay) = hedge {
                state.schedule_attempt(slot, None, Instant::now() + delay);
            }
            state.launch(slot, state.slots[slot].primary, false);
        }
    }

    /// Scatters and blocks the calling thread until the merge completes —
    /// convenience for tests and synchronous front-ends.
    pub fn scatter_wait<P>(&self, requests: Vec<(usize, u32, P)>) -> FanoutResult
    where
        P: Into<Bytes> + Clone + Send + Sync + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        self.scatter(requests, move |result| {
            let _ = tx.send(result);
        });
        crate::buf::flush_outbox();
        // lint: allow(expect): every slot delivers exactly once, so the completion always runs
        rx.recv().expect("scatter completion always runs")
    }
}

impl Drop for FanoutGroup {
    /// Shuts the group down, then drops its connections here, and with the
    /// last of them a reactor only they held: their threads are joined on
    /// this thread, never on one of their own, where a late callback could
    /// release the core's last reference.
    fn drop(&mut self) {
        self.core.shutdown();
        for leaf in &self.core.leaves {
            let conns = std::mem::take(&mut *leaf.conns.write());
            drop(conns);
        }
    }
}

impl std::fmt::Debug for FanoutGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutGroup")
            .field("leaves", &self.len())
            .field("resilience", &self.core.resilience)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::server::Server;
    use crate::service::{RequestContext, Service};
    use std::net::SocketAddr;

    /// Replies with its configured id plus the request payload.
    pub(crate) struct TaggedEcho(pub(crate) u8);
    impl Service for TaggedEcho {
        fn call(&self, ctx: RequestContext) {
            let mut reply = vec![self.0];
            reply.extend_from_slice(ctx.payload());
            ctx.respond_ok(reply);
        }
    }

    /// `n` echo leaves and a bare group connected to them.
    pub(crate) fn leaf_cluster(n: u8) -> (Vec<Server>, FanoutGroup) {
        let servers: Vec<Server> = (0..n)
            .map(|i| Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(i))).unwrap())
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let group = FanoutGroup::connect(&addrs).unwrap();
        (servers, group)
    }

    /// `n` echo leaves and a group connected to them, given `config`.
    pub(crate) fn cluster_with(
        n: u8,
        config: Option<ResilientConfig>,
    ) -> (Vec<Server>, FanoutGroup) {
        let (servers, group) = leaf_cluster(n);
        match config {
            Some(config) => (servers, group.with_resilience(config)),
            None => (servers, group),
        }
    }

    /// A scatter of byte requests whose slots may fail over: each slot's
    /// call, and its request.
    pub(crate) struct Calls(pub(crate) Vec<(LeafCall, Vec<u8>)>);

    impl ScatterPlan for Calls {
        type Reply = Bytes;

        fn calls(&mut self) -> impl ExactSizeIterator<Item = LeafCall> + '_ {
            self.0.iter().map(|&(call, _)| call)
        }

        fn encode(&self, slot: usize, buf: &mut BytesMut) {
            buf.extend_from_slice(&self.0[slot].1);
        }

        fn decode(&self, reply: Bytes) -> Result<Bytes, RpcError> {
            Ok(reply)
        }
    }

    /// Scatters `calls` under `opts` and waits for the merge.
    pub(crate) fn scatter_calls_wait(
        group: &FanoutGroup,
        calls: Vec<(LeafCall, Vec<u8>)>,
        opts: CallOptions,
    ) -> FanoutResult {
        let (tx, rx) = std::sync::mpsc::channel();
        group.scatter_encoded(Calls(calls), opts, move |result| tx.send(result).unwrap());
        crate::buf::flush_outbox();
        rx.recv_timeout(Duration::from_secs(10)).expect("the scatter completes")
    }

    /// A group connected to `servers` through `plan`, under `config`.
    pub(crate) fn planned(
        servers: &[Server],
        plan: &Arc<FaultPlan>,
        config: ResilientConfig,
    ) -> FanoutGroup {
        let addrs: Vec<_> = servers.iter().map(Server::local_addr).collect();
        let group = FanoutGroup::connect_with_plan_via(&addrs, 1, Some(plan), None).unwrap();
        group.with_resilience(config)
    }

    /// A connection to `leaf`, as the next attempt would pick it.
    fn conn(group: &FanoutGroup, leaf: usize) -> Arc<RpcClient> {
        group.core.leaves[leaf].pick().unwrap()
    }

    /// The address of a listener that accepts connections, holds them and
    /// never answers.
    pub(crate) fn stuck_leaf() -> SocketAddr {
        let stuck = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = stuck.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((stream, _)) = stuck.accept() {
                held.push(stream);
            }
        });
        addr
    }

    /// A bare group and one under the default resilience policy gather
    /// alike, and the inert policy ticks nothing.
    #[test]
    fn scatter_gathers_in_request_order() {
        for config in [None, Some(ResilientConfig::default())] {
            let (_servers, group) = cluster_with(4, config);
            let requests: Vec<_> = (0..4).map(|leaf| (leaf, 1u32, vec![9u8])).collect();
            let result = group.scatter_wait(requests);
            assert!(result.all_ok());
            assert!(result.elapsed_ns > 0);
            for (leaf, reply) in result.successes().iter().enumerate() {
                assert_eq!(reply, &[leaf as u8, 9]);
            }
            assert_eq!(group.counters().snapshot().total(), 0, "inert policy ticks nothing");
        }
    }

    #[test]
    fn empty_scatter_completes_immediately() {
        let (_servers, group) = leaf_cluster(1);
        let result = group.scatter_wait(Vec::<(usize, u32, Vec<u8>)>::new());
        assert!(result.replies.is_empty());
        assert_eq!(result.elapsed_ns, 0);
    }

    #[test]
    fn repeated_requests_to_same_leaf() {
        let (_servers, group) = leaf_cluster(2);
        let requests = vec![(1usize, 1u32, vec![1]), (1, 1, vec![2]), (0, 1, vec![3])];
        let result = group.scatter_wait(requests);
        let replies = result.successes();
        assert_eq!(replies[0], [1, 1]);
        assert_eq!(replies[1], [1, 2]);
        assert_eq!(replies[2], [0, 3]);
    }

    #[test]
    fn dead_leaf_fails_that_slot_only() {
        let (servers, group) = leaf_cluster(3);
        // Kill leaf 1.
        servers[1].shutdown();
        std::thread::sleep(Duration::from_millis(50));
        let requests: Vec<_> = (0..3).map(|leaf| (leaf, 1u32, vec![5u8])).collect();
        let result = group.scatter_wait(requests);
        assert!(result.replies[0].is_ok());
        assert!(result.replies[1].is_err());
        assert!(result.replies[2].is_ok());
        assert!(!result.all_ok());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_leaf_panics() {
        let (_servers, group) = leaf_cluster(1);
        group.scatter_wait(vec![(5, 1, Vec::new())]);
    }

    #[test]
    fn pooled_connections_round_trip_and_rotate() {
        let (servers, _) = leaf_cluster(2);
        let addrs: Vec<_> = servers.iter().map(Server::local_addr).collect();
        let group = FanoutGroup::connect_with_plan_via(&addrs, 3, None, None).unwrap();
        assert_eq!(group.len(), 2);
        // Repeated picks must rotate through distinct connections.
        let picks: Vec<_> = (0..4).map(|_| Arc::as_ptr(&conn(&group, 0))).collect();
        assert_ne!(picks[0], picks[1]);
        assert_ne!(picks[1], picks[2]);
        assert_eq!(picks[0], picks[3], "pool of 3 wraps after 3 picks");
        for round in 0..10u8 {
            let result = group.scatter_wait(vec![(0, 1, vec![round]), (1, 1, vec![round])]);
            assert!(result.all_ok());
        }
        // Each leaf saw its 10 requests spread over 3 connections.
        assert_eq!(servers[0].stats().requests(), 10);
    }

    #[test]
    fn many_concurrent_scatters() {
        let (_servers, group) = leaf_cluster(4);
        let group = Arc::new(group);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let group = group.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..20u8 {
                    let requests: Vec<_> = (0..4).map(|leaf| (leaf, 1u32, vec![round])).collect();
                    let result = group.scatter_wait(requests);
                    assert!(result.all_ok());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn per_leaf_failure_accessors_distinguish_modes() {
        let result = FanoutResult {
            replies: vec![
                Ok(Bytes::from_static(b"fine")),
                Err(RpcError::TimedOut),
                Err(RpcError::ConnectionClosed),
                Err(RpcError::remote(musuite_codec::Status::AppError)),
            ],
            elapsed_ns: 1,
        };
        assert!(!result.all_ok());
        let failures: Vec<_> = result.failures().collect();
        assert!(
            matches!(
                failures[..],
                [
                    (1, RpcError::TimedOut),
                    (2, RpcError::ConnectionClosed),
                    (3, RpcError::Remote { .. })
                ]
            ),
            "each failure keeps which leaf and why: {failures:?}"
        );
        assert_eq!(result.successes(), [Bytes::from_static(b"fine")]);
    }

    #[test]
    fn broken_connection_is_skipped_then_reconnected() {
        let server = Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(7))).unwrap();
        let group =
            FanoutGroup::connect_with_plan_via(&[server.local_addr()], 2, None, None).unwrap();
        let leaf = &group.core.leaves[0];
        assert_eq!(leaf.live_count(), 2);
        // Break one connection; picks must route around it.
        conn(&group, 0).shutdown();
        assert_eq!(leaf.live_count(), 1);
        for round in 0..4u8 {
            let result = group.scatter_wait(vec![(0usize, 1u32, vec![round])]);
            assert!(result.all_ok(), "live connection must be preferred");
        }
        assert_eq!(group.core.reconnect(0).unwrap(), 1, "one closed connection replaced");
        assert_eq!(leaf.live_count(), 2);
        assert_eq!(group.core.reconnect(0).unwrap(), 0, "reconnect is idempotent");
    }

    #[test]
    fn reactor_backed_group_scatters_and_reconnects() {
        use crate::reactor::{Reactor, ReactorConfig};
        use musuite_telemetry::netpoll::ReactorEvent;
        let (servers, _) = leaf_cluster(3);
        let addrs: Vec<_> = servers.iter().map(Server::local_addr).collect();
        let reactor =
            Arc::new(Reactor::start(ReactorConfig { pollers: 2, ..ReactorConfig::default() }));
        let group = FanoutGroup::connect_with_plan_via(&addrs, 2, None, Some(&reactor)).unwrap();
        // Registrations are adopted on the sweepers' next pass; poll
        // rather than racing the adoption.
        let adopted = |want: u64| {
            let deadline = Instant::now() + Duration::from_secs(2);
            let registered = || reactor.stats().get(ReactorEvent::Registered);
            while registered() < want {
                assert!(
                    Instant::now() < deadline,
                    "only {} of {want} leaf conns adopted",
                    registered()
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        adopted(6);
        for round in 0..5u8 {
            let requests: Vec<_> = (0..3).map(|leaf| (leaf, 1u32, vec![round])).collect();
            let result = group.scatter_wait(requests);
            assert!(result.all_ok());
        }
        // Break one connection; the replacement must register with the
        // same reactor and keep the fan-out healthy.
        conn(&group, 0).shutdown();
        assert_eq!(group.core.reconnect(0).unwrap(), 1);
        adopted(7); // the replacement registers with the same reactor
        let result = group.scatter_wait(vec![(0usize, 1u32, vec![9u8])]);
        assert!(result.all_ok());
    }

    #[test]
    fn scatter_encoded_forwards_budget_and_priority_to_every_leaf() {
        // Each leaf reports the budget and priority it observed on the wire.
        struct Probe;
        impl Service for Probe {
            fn call(&self, ctx: RequestContext) {
                let mut reply = ctx.remaining_budget().to_le_bytes().to_vec();
                reply.push(ctx.priority() as u8);
                ctx.respond_ok(reply);
            }
        }
        let servers: Vec<Server> = (0..3)
            .map(|_| Server::spawn(ServerConfig::default(), Arc::new(Probe)).unwrap())
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let group = FanoutGroup::connect(&addrs).unwrap();
        let requests: Vec<_> = (0..3).map(|leaf| (leaf, 1u32, vec![0u8])).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let opts = CallOptions {
            priority: Priority::Critical,
            ..CallOptions::within(Duration::from_millis(200))
        };
        group.scatter_encoded(requests, opts, move |result| tx.send(result).unwrap());
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(result.all_ok());
        for reply in result.successes() {
            let budget = u32::from_le_bytes(reply[..4].try_into().unwrap());
            assert!(
                budget > 0 && budget <= 200_000,
                "leaf must see a decayed, nonzero budget, got {budget}µs"
            );
            assert_eq!(reply[4], Priority::Critical as u8);
        }
    }

    /// After `shutdown` (idempotent) a scatter fails fast with a typed
    /// error and opens no connection, also under a resilience policy,
    /// which reconnects a leaf with no live connection before an attempt.
    #[test]
    fn shutdown_is_not_undone_by_the_next_scatter() {
        for config in [None, Some(ResilientConfig { retries: 2, ..Default::default() })] {
            let (servers, group) = cluster_with(2, config);
            group.shutdown();
            group.shutdown();
            let result = group.scatter_wait(vec![(0usize, 1u32, vec![1]), (1, 1, vec![2])]);
            for reply in &result.replies {
                assert!(matches!(reply, Err(RpcError::ShuttingDown)), "got {reply:?}");
            }
            assert_eq!(group.core.leaves[0].live_count(), 0, "nothing reconnected");
            assert_eq!(group.counters().get(ResilienceEvent::Reconnect), 0);
            assert_eq!(servers[0].stats().requests() + servers[1].stats().requests(), 0);
        }
    }

    /// Dropping a resilient group aborts a call in flight to a leaf that
    /// never answers, even with no deadline: the call's callback holds the
    /// group's core, not the handle the caller dropped. Under a retry
    /// policy, and under an hour-long hedge, whose queued hedge the drop
    /// cancels: either way the slot delivers one typed error, once.
    #[test]
    fn dropping_a_resilient_group_aborts_a_call_in_flight() {
        use std::sync::mpsc::RecvTimeoutError;
        let hour = Duration::from_secs(3600);
        for config in [
            ResilientConfig { retries: 1, ..ResilientConfig::default() },
            ResilientConfig { hedge: HedgePolicy::After(hour), ..ResilientConfig::default() },
        ] {
            let group = FanoutGroup::connect(&[stuck_leaf()]).unwrap().with_resilience(config);
            let (tx, rx) = std::sync::mpsc::channel();
            group.scatter(vec![(0usize, 1u32, vec![1u8])], move |result| tx.send(result).unwrap());
            crate::buf::flush_outbox();
            assert_eq!(conn(&group, 0).inflight_len(), 1, "the call is in flight");
            drop(group);
            let result = rx.recv_timeout(Duration::from_secs(3)).expect("the drop aborts the call");
            let error = result.replies[0].as_ref().unwrap_err();
            assert_eq!(error.failure_kind(), FailureKind::Transport, "{config:?}: got {error:?}");
            let closed = rx.recv_timeout(Duration::from_secs(3));
            assert!(
                matches!(closed, Err(RecvTimeoutError::Disconnected)),
                "{config:?}: the callback ran once and was dropped"
            );
        }
    }

    /// A slot's fail-over span may wrap the ring and hold the primary
    /// anywhere in it: the rotation is the primary, then the span's other
    /// leaves in ring order from its start, then round again. That is the
    /// order a list of the span's leaves gave.
    #[test]
    fn a_wrapping_span_rotates_primary_then_ring_order() {
        let span = RingSpan::new(3, 3, 4);
        assert_eq!(span.iter().collect::<Vec<_>>(), [3, 0, 1]);
        let slot = Slot::new(LeafCall::new(0, 1).with_alternates(span), 4, 1, 0);
        // The primary goes out first, by name; the rotation continues from
        // the turn after it.
        let turns: Vec<usize> = (0..6).map(|_| slot.next_target()).collect();
        assert_eq!(turns, [3, 1, 0, 3, 1, 0]);
        // A primary outside its span rotates through the whole span.
        let slot = Slot::new(LeafCall::new(2, 1).with_alternates(span), 4, 1, 0);
        let turns: Vec<usize> = (0..4).map(|_| slot.next_target()).collect();
        assert_eq!(turns, [3, 0, 1, 2]);
        // No span: every turn is the primary.
        let slot = Slot::new(LeafCall::new(1, 1), 4, 1, 0);
        assert_eq!((0..3).map(|_| slot.next_target()).collect::<Vec<_>>(), [1, 1, 1]);
    }

    #[test]
    fn ring_spans_name_their_leaves() {
        assert!(RingSpan::default().is_empty());
        assert_eq!(RingSpan::from(2..2), RingSpan::default());
        assert_eq!(RingSpan::new(9, 0, 4), RingSpan::default());
        assert!(!RingSpan::new(9, 0, 4).contains(1));
        let range = RingSpan::from(1..4);
        assert_eq!(range.iter().collect::<Vec<_>>(), [1, 2, 3]);
        assert!(!range.contains(0) && range.contains(3) && !range.contains(4));
        let whole = RingSpan::new(2, 4, 4);
        assert_eq!(whole.iter().collect::<Vec<_>>(), [2, 3, 0, 1]);
        assert_eq!((0..3).map(|n| whole.nth_skipping(0, n)).collect::<Vec<_>>(), [2, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "alternate index out of bounds")]
    fn out_of_bounds_alternate_panics() {
        let (_servers, group) = leaf_cluster(2);
        let call = LeafCall::new(0, 1).with_alternates(1..3);
        scatter_calls_wait(&group, vec![(call, vec![1u8])], CallOptions::default());
    }

    #[test]
    fn scatter_timeout_fails_only_the_stuck_leaf() {
        // Leaf 0 is healthy; "leaf" 1 accepts but never responds.
        let server = Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(0))).unwrap();
        let stuck = stuck_leaf();
        let group = FanoutGroup::connect(&[server.local_addr(), stuck]).unwrap();
        let requests = vec![(0usize, 1u32, vec![1u8]), (1, 1, vec![2u8])];
        let (tx, rx) = std::sync::mpsc::channel();
        let opts = CallOptions::within(Duration::from_millis(200));
        group.scatter_encoded(requests, opts, move |result| tx.send(result).unwrap());
        let result = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(result.replies[0].is_ok(), "healthy leaf replied");
        assert!(
            matches!(result.replies[1], Err(RpcError::TimedOut)),
            "stuck leaf timed out: {:?}",
            result.replies[1]
        );
    }
}

#[cfg(all(test, musuite_check))]
pub(crate) mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};

    /// A scatter of payloads, in a group with no leaves and no policy,
    /// over `slots` fresh slots, each owing `pending`.
    fn gather<F>(
        slots: usize,
        pending: usize,
        on_complete: F,
    ) -> Arc<ScatterState<Vec<(usize, u32, Bytes)>, F>>
    where
        F: FnOnce(FanoutResult) + Send + 'static,
    {
        let slots = (0..slots).map(|leaf| Slot::new(LeafCall::new(leaf, 1), 2, pending, 0));
        let core = Arc::new(Core::new(Vec::new()));
        // The core outlives the run: dropping it stops its timer, which
        // takes a lock, and a run that trips an assertion ends unwinding.
        std::mem::forget(core.clone());
        ScatterState::new(core, Slots::new(slots), CallOptions::default(), Vec::new(), on_complete)
    }

    /// The in-flight entry of an attempt to leaf 0 that serves the one
    /// slot of a fresh scatter, whose merge `on_complete` is.
    pub(crate) fn one_slot_attempt(
        on_complete: impl FnOnce(FanoutResult) + Send + 'static,
    ) -> Pending {
        let scatter = gather(1, 1, on_complete);
        Pending::Attempt(Attempt { scatter, slot: 0, target: 0, hedge: false })
    }

    /// A bounded scatter's gather race: a leaf response and the reaper's
    /// `TimedOut` arrive concurrently on different slots. In every
    /// interleaving the merge runs exactly once — on whichever arrival is
    /// last — and observes both slots filled.
    #[test]
    fn concurrent_arrivals_merge_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let merged = Arc::new(AtomicUsize::new(0));
                let state = gather(2, 1, {
                    let merged = merged.clone();
                    move |result: FanoutResult| {
                        assert_eq!(result.replies.len(), 2);
                        assert!(result.replies[0].is_ok(), "leaf reply lost in merge");
                        assert!(
                            matches!(result.replies[1], Err(RpcError::TimedOut)),
                            "reaped slot lost in merge"
                        );
                        merged.fetch_add(1, Ordering::AcqRel);
                    }
                });
                let state2 = state.clone();
                let responder =
                    thread::spawn(move || state2.arrive(0, Ok(Bytes::from_static(b"leaf"))));
                state.arrive(1, Err(RpcError::TimedOut));
                responder.join().unwrap();
                assert_eq!(merged.load(Ordering::Acquire), 1, "merge must run exactly once");
            })
            .expect("gather must merge exactly once in every schedule");
        assert!(report.iterations > 1, "both arrival orders must be explored");
    }

    /// The hedge-vs-primary race over the real slot array and gather: a
    /// winning response and a failing attempt resolve concurrently. In
    /// every interleaving the gather merges exactly once, a success is
    /// never displaced by the loser's error, and the loser's completion
    /// path never delivers twice.
    #[test]
    fn hedge_and_primary_claim_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let merged = Arc::new(AtomicUsize::new(0));
                // Two obligations in flight: primary and hedge.
                let state = gather(1, 2, {
                    let merged = merged.clone();
                    move |result: FanoutResult| {
                        assert_eq!(result.replies.len(), 1);
                        assert!(
                            result.replies[0].is_ok(),
                            "a delivered success must never be displaced by the loser"
                        );
                        merged.fetch_add(1, Ordering::AcqRel);
                    }
                });
                // Winner: a successful attempt (primary or hedge — the
                // claim logic is identical).
                let winner = {
                    let state = state.clone();
                    thread::spawn(move || {
                        state.deliver(0, Ok(Bytes::from_static(b"win")), false);
                        state.release(0);
                    })
                };
                // Loser: a failing attempt with no retries left.
                state.fail(0, RpcError::TimedOut);
                winner.join().unwrap();
                assert_eq!(merged.load(Ordering::Acquire), 1, "gather merged exactly once");
                assert!(state.slots[0].is_done());
            })
            .expect("slot claim must be exactly-once in every schedule");
        assert!(report.iterations > 1, "both resolution orders must be explored");
    }

    /// Seeded buggy fixture: completing a slot behind a check-then-act
    /// instead of the in-flight table's exactly-once claim. The default
    /// (preemption-free) schedule passes; only a preempting schedule makes
    /// both threads see the slot vacant and double-fill it. The checker
    /// must find that schedule, trip the double-fill assertion, and hand
    /// back a seed that replays the identical interleaving.
    #[test]
    fn double_arrival_is_caught_with_replayable_seed() {
        fn buggy() -> impl Fn() + Send + Sync + 'static {
            || {
                let state = gather(2, 1, |_: FanoutResult| {});
                let state2 = state.clone();
                // BUG (both threads): vacancy check and arrival are two
                // separate critical sections, so both can pass the check.
                let responder = thread::spawn(move || {
                    if state2.gathered.lock().replies[0].is_none() {
                        state2.arrive(0, Ok(Bytes::new()));
                    }
                });
                if state.gathered.lock().replies[0].is_none() {
                    state.arrive(0, Err(RpcError::TimedOut));
                }
                responder.join().unwrap();
            }
        }
        let failure =
            Checker::new().check(buggy()).expect_err("the double-arrival schedule must be found");
        assert!(failure.message.contains("completed twice"), "got: {}", failure.message);
        assert!(!failure.seed.is_empty(), "failure must carry a replayable seed");
        let replay =
            Checker::new().replay(&failure.seed, buggy()).expect_err("seed must replay the bug");
        assert_eq!(replay.trace, failure.trace, "replay must reproduce the interleaving");
    }
}
