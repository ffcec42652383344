//! Scatter–gather fan-out to leaf microservers with count-down merge.
//!
//! The mid-tier "must manage fan-out of a single incoming query to many
//! leaf microservers" (paper §I). [`FanoutGroup`] holds one asynchronous
//! client per leaf; [`FanoutGroup::scatter`] issues all leaf requests and
//! arranges for the completion closure to run on the thread that receives
//! the **last** leaf response. All earlier response threads do negligible
//! work — stash the payload, decrement a counter — exactly the paper's
//! design ("we do not explicitly dispatch responses, as all but the last
//! response thread do negligible work").
//!
//! Requests are [`Body`]s: a typed scatter's encoder writes each leaf's
//! request straight into that leaf connection's pending buffer, and a
//! [`Payload`] caller's bytes are copied there from reference-counted
//! segments that siblings may share. Replies come back as [`Bytes`]
//! slices of each client connection's receive buffer, so neither
//! direction holds payload bytes in a buffer of their own inside the
//! process.

use crate::buf::{Body, Payload};
use crate::client::{BatchCall, CallOptions, Callback, RpcClient};
use crate::config::BatchPolicy;
use crate::error::{FailureKind, RpcError};
use crate::fault::{ClientFaults, FaultPlan};
use crate::reactor::Reactor;
use crate::timer::{Fate, Timer};
use bytes::{Bytes, BytesMut};
use musuite_check::atomic::{AtomicUsize, Ordering};
use musuite_check::sync::{Mutex, RwLock};
use musuite_codec::Priority;
use musuite_telemetry::batching::{BatchStats, FlushReason};
use musuite_telemetry::clock::Clock;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Instant;

/// The gathered outcome of one scatter: per-leaf results in request order
/// plus the wall-clock time the fan-out took (used to attribute leaf time
/// vs. mid-tier time in the `Net` stage).
#[derive(Debug)]
pub struct FanoutResult {
    /// One entry per scattered request, in the order they were passed.
    /// Successful replies are zero-copy slices of the leaf connection's
    /// read buffer.
    pub replies: Vec<Result<Bytes, RpcError>>,
    /// Nanoseconds from scatter to last response.
    pub elapsed_ns: u64,
}

impl FanoutResult {
    /// Returns the payloads of successful replies, dropping failures.
    pub fn successes(self) -> Vec<Bytes> {
        self.replies.into_iter().filter_map(Result::ok).collect()
    }

    /// Returns `true` if every leaf replied successfully.
    pub fn all_ok(&self) -> bool {
        self.replies.iter().all(Result::is_ok)
    }

    /// Number of slots that replied successfully.
    pub fn ok_count(&self) -> usize {
        self.replies.iter().filter(|reply| reply.is_ok()).count()
    }

    /// Number of slots that failed.
    pub fn err_count(&self) -> usize {
        self.replies.len() - self.ok_count()
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

    /// Failure classification for `slot` (`None` if it succeeded).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn kind_of(&self, slot: usize) -> Option<FailureKind> {
        self.replies[slot].as_ref().err().map(RpcError::failure_kind)
    }
}

/// What one slot of a scatter came back with.
type Reply = Result<Bytes, RpcError>;

// The last arrival turns the gathered `Vec<Option<Reply>>` into the
// result's `Vec<Reply>` in place; that needs the two to be laid out alike.
const _: () = assert!(std::mem::size_of::<Option<Reply>>() == std::mem::size_of::<Reply>());

/// A [`ScatterState`] minus its completion's and encoder's types, for
/// holders that outlive the `scatter` call that knew them (the resilient
/// wrapper's control blocks).
pub(crate) trait Gather: Send + Sync {
    /// Delivers `slot`'s reply; the last delivery runs the completion.
    fn arrive(&self, slot: usize, result: Reply);

    /// Appends `slot`'s request, as the scatter's encoder writes it, to
    /// `buf`: the pending buffer of the connection an attempt goes out on.
    fn encode(&self, slot: usize, buf: &mut BytesMut);
}

/// Count-down gather shared by [`FanoutGroup`] and the resilient wrapper:
/// each slot's arrival stashes its result; the last arrival runs the merge.
/// One allocation holds the count, the replies' header, the completion and
/// the encoder of the scatter's requests (a no-op for a scatter of
/// payloads).
pub(crate) struct ScatterState<F, E> {
    remaining: AtomicUsize,
    gathered: Mutex<Gathered<F>>,
    started_at_ns: u64,
    clock: Clock,
    encoder: E,
}

struct Gathered<F> {
    replies: Vec<Option<Reply>>,
    on_complete: Option<F>,
}

impl<F, E> ScatterState<F, E>
where
    F: FnOnce(FanoutResult) + Send,
    E: Fn(usize, &mut BytesMut) + Send + Sync,
{
    pub(crate) fn new(
        slots: usize,
        clock: Clock,
        encoder: E,
        on_complete: F,
    ) -> Arc<ScatterState<F, E>> {
        Arc::new(ScatterState {
            remaining: AtomicUsize::new(slots),
            gathered: Mutex::new(Gathered {
                replies: (0..slots).map(|_| None).collect(),
                on_complete: Some(on_complete),
            }),
            started_at_ns: clock.now_ns(),
            clock,
            encoder,
        })
    }
}

impl<F, E> Gather for ScatterState<F, E>
where
    F: FnOnce(FanoutResult) + Send,
    E: Fn(usize, &mut BytesMut) + Send + Sync,
{
    fn encode(&self, slot: usize, buf: &mut BytesMut) {
        (self.encoder)(slot, buf);
    }

    fn arrive(&self, slot: usize, result: Reply) {
        let prev = self.gathered.lock().replies[slot].replace(result);
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
                let elapsed_ns = self.clock.now_ns().saturating_sub(self.started_at_ns);
                callback(FanoutResult { replies, elapsed_ns });
            }
        }
    }
}

/// The encoder of a scatter whose requests are all in its calls' payloads.
pub(crate) fn encode_nothing(_slot: usize, _buf: &mut BytesMut) {}

/// The connections to one leaf: a small pool used round-robin, mirroring
/// the paper's "one TCP connection to a given destination per thread"
/// (one connection per response pick-up thread here). The pool is behind
/// a read–write lock so broken connections can be swapped for fresh ones
/// ([`FanoutGroup::reconnect`]) while pickers proceed under read locks.
struct LeafConns {
    addr: SocketAddr,
    conns: RwLock<Vec<Arc<RpcClient>>>,
    next: AtomicUsize,
    faults: Option<ClientFaults>,
}

impl LeafConns {
    /// Round-robin pick that prefers a live connection: starting from the
    /// rotation point, the first non-closed connection wins; if the whole
    /// pool is broken the rotation pick is returned anyway so the call
    /// fails fast with [`RpcError::ConnectionClosed`].
    fn pick(&self) -> Arc<RpcClient> {
        let conns = self.conns.read();
        let len = conns.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for offset in 0..len {
            let conn = &conns[(start + offset) % len];
            if !conn.is_closed() {
                return conn.clone();
            }
        }
        conns[start % len].clone()
    }
}

/// One leaf sub-call parked in a merge buffer awaiting flush.
struct BufferedCall {
    method: u32,
    payload: Payload,
    deadline: Option<Instant>,
    priority: Priority,
    done: Callback,
}

impl BufferedCall {
    /// The options this call leaves with at `now`: what parking has left
    /// of its budget, and its class.
    fn opts_at(&self, now: Instant) -> CallOptions {
        CallOptions {
            timeout: self.deadline.map(|deadline| deadline - now),
            priority: self.priority,
        }
    }
}

/// One leaf's merge buffer: the parked calls plus when the first of them
/// arrived (the batch's delay clock).
#[derive(Default)]
struct MergeBuffer {
    calls: Vec<BufferedCall>,
    opened_at: Option<Instant>,
}

/// Client-side merge batching: same-leaf sub-calls from *concurrent*
/// scatters park here briefly and leave as one multi-request envelope —
/// the mid-tier analogue of the server's dequeue-side `pop_batch`.
struct MergeState {
    policy: BatchPolicy,
    buffers: Vec<Mutex<MergeBuffer>>,
    stats: BatchStats,
}

impl MergeState {
    /// Empties `leaf`'s buffer if its delay window has closed at `now`
    /// (it may have been flushed full and reopened since the timer entry
    /// that brought us here was queued; that opening has its own entry).
    fn take_due(&self, leaf: usize, now: Instant) -> Vec<BufferedCall> {
        let mut buffer = self.buffers[leaf].lock();
        match buffer.opened_at {
            Some(opened) if now >= opened + self.policy.max_delay() => {
                buffer.opened_at = None;
                std::mem::take(&mut buffer.calls)
            }
            _ => Vec::new(),
        }
    }

    /// Completes every call parked for `leaf` with
    /// [`RpcError::ConnectionClosed`] instead of sending it.
    fn abort(&self, leaf: usize) {
        let calls = {
            let mut buffer = self.buffers[leaf].lock();
            buffer.opened_at = None;
            std::mem::take(&mut buffer.calls)
        };
        for call in calls {
            (call.done)(Err(RpcError::ConnectionClosed));
        }
    }

    /// Sends a flushed buffer to its leaf. Members whose deadline already
    /// passed while parked are dropped *from the batch* and completed with
    /// [`RpcError::TimedOut`] here — a merged envelope never outlives its
    /// tightest member budget. A lone survivor takes the plain request
    /// path; two or more leave as one batch envelope.
    fn flush(&self, leaves: &[LeafConns], leaf: usize, calls: Vec<BufferedCall>, r: FlushReason) {
        let now = Instant::now();
        let mut live = Vec::with_capacity(calls.len());
        for call in calls {
            if call.deadline.is_some_and(|deadline| deadline <= now) {
                (call.done)(Err(RpcError::TimedOut));
                continue;
            }
            live.push(call);
        }
        self.stats.record_batch(live.len(), r);
        if live.is_empty() {
            return;
        }
        let client = leaves[leaf].pick();
        if live.len() == 1 {
            // lint: allow(expect): emptiness is checked immediately above
            let call = live.pop().expect("one live member");
            let opts = call.opts_at(now);
            client.call_async_inner(call.method, call.payload, opts, call.done);
            return;
        }
        let batch = live
            .into_iter()
            .map(|call| {
                let opts = call.opts_at(now);
                BatchCall::new(call.method, call.payload, opts, call.done)
            })
            .collect();
        client.call_batch_async(batch);
    }
}

/// A set of asynchronous clients, one connection pool per leaf
/// microserver.
///
/// With a shared [`Reactor`] attached
/// ([`FanoutGroup::connect_with_plan_via`]), every leaf connection —
/// including later reconnects — registers with the reactor instead of
/// spawning a response pick-up thread, so the client-side network thread
/// count is the reactor's fixed poller count regardless of fan-out width.
///
/// Drop **aborts**: sub-calls parked in a merge buffer complete exactly
/// once with [`RpcError::ConnectionClosed`] without being sent, and calls
/// already on the wire fail the same way as their connections close.
pub struct FanoutGroup {
    leaves: Arc<Vec<LeafConns>>,
    clock: Clock,
    reactor: Option<Arc<Reactor>>,
    merge: Option<Merge>,
}

/// Merge batching when it is on: the buffers, and the timer whose entries
/// (one leaf index per buffer opening) close their delay windows.
struct Merge {
    state: Arc<MergeState>,
    flusher: Timer<usize>,
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
            let addr = conns[0].peer_addr();
            leaves.push(LeafConns {
                addr,
                conns: RwLock::new(conns),
                next: AtomicUsize::new(0),
                faults,
            });
        }
        Ok(FanoutGroup {
            leaves: Arc::new(leaves),
            clock: Clock::new(),
            reactor: reactor.cloned(),
            merge: None,
        })
    }

    /// Enables client-side merge batching: leaf sub-calls issued through
    /// this group park in a per-leaf buffer and leave as **one**
    /// multi-request envelope when the buffer reaches `policy.max_size()`
    /// members or the oldest member has waited `policy.max_delay()`.
    /// Sub-calls from *concurrent* scatters that target the same leaf
    /// merge into the same envelope.
    ///
    /// A parked call holds its payload in a [`Payload`] of its own: a
    /// typed encoder writes into an owned buffer when the call is parked
    /// (see [`Body::into_payload`]).
    ///
    /// Members keep their individual deadlines and priorities; a member
    /// whose deadline expires while parked is completed with
    /// [`RpcError::TimedOut`] and dropped from the envelope, never the
    /// other way around. An off policy (`BatchPolicy::off()`) leaves the
    /// group on the direct per-call path.
    pub fn with_batching(mut self, policy: BatchPolicy) -> FanoutGroup {
        if !policy.is_on() {
            self.merge = None;
            return self;
        }
        let state = Arc::new(MergeState {
            policy,
            buffers: (0..self.leaves.len()).map(|_| Mutex::new(MergeBuffer::default())).collect(),
            stats: BatchStats::default(),
        });
        let flusher = Timer::new("musuite-merge-flusher", {
            let (state, leaves) = (state.clone(), self.leaves.clone());
            move |leaf, fate| {
                // Cancelled entries need nothing here: the group is being
                // dropped, and its drop aborts every buffer.
                if fate == Fate::Due {
                    let calls = state.take_due(leaf, Instant::now());
                    if !calls.is_empty() {
                        state.flush(&leaves, leaf, calls, FlushReason::DelayExpired);
                    }
                }
            }
        });
        self.merge = Some(Merge { state, flusher });
        self
    }

    /// Merge-batching occupancy and flush-reason counters, when batching
    /// is enabled ([`FanoutGroup::with_batching`]).
    pub fn batch_stats(&self) -> Option<&BatchStats> {
        self.merge.as_ref().map(|merge| &merge.state.stats)
    }

    /// Number of leaves in the group.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Returns `true` if the group has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// A client for leaf `index` (round-robin over its pool, preferring a
    /// live connection).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn client(&self, index: usize) -> Arc<RpcClient> {
        self.leaves[index].pick()
    }

    /// Number of non-closed connections in leaf `index`'s pool.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn live_count(&self, index: usize) -> usize {
        self.leaves[index].conns.read().iter().filter(|conn| !conn.is_closed()).count()
    }

    /// Replaces every closed connection in leaf `index`'s pool with a
    /// fresh one (carrying the same fault-plan view, so a refused
    /// reconnect to a dead leaf surfaces as an error). Returns how many
    /// connections were replaced.
    ///
    /// # Errors
    ///
    /// Returns the first reconnection error; connections already replaced
    /// stay replaced.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn reconnect(&self, index: usize) -> Result<usize, RpcError> {
        let leaf = &self.leaves[index];
        let mut conns = leaf.conns.write();
        let mut replaced = 0;
        for slot in conns.iter_mut() {
            if slot.is_closed() {
                *slot = Arc::new(RpcClient::connect_with(
                    leaf.addr,
                    leaf.faults.clone(),
                    self.reactor.as_ref(),
                )?);
                replaced += 1;
            }
        }
        Ok(replaced)
    }

    /// Shuts down every connection to every leaf; in-flight calls fail
    /// fast with [`RpcError::ConnectionClosed`]. Idempotent.
    pub fn shutdown_all(&self) {
        for leaf in self.leaves.iter() {
            for conn in leaf.conns.read().iter() {
                conn.shutdown();
            }
        }
    }

    /// Scatters `requests` — `(leaf index, method, payload)` triples — and
    /// runs `on_complete` on the response thread that receives the final
    /// reply.
    ///
    /// An empty request list completes immediately on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if any leaf index is out of bounds.
    pub fn scatter<P, F>(&self, requests: Vec<(usize, u32, P)>, on_complete: F)
    where
        P: Into<Payload>,
        F: FnOnce(FanoutResult) + Send + 'static,
    {
        self.scatter_opts(requests, CallOptions::default(), on_complete);
    }

    /// The general scatter: every leaf request is issued under `opts`. A
    /// leaf request that has not completed within `opts.timeout` fails its
    /// slot with [`RpcError::TimedOut`] instead of stalling the merge
    /// forever — the mid-tier's defense against a wedged leaf. This is
    /// also the budget-forwarding hop: callers pass the *remaining* budget
    /// of the inbound request (already net of time spent upstream), and
    /// each leaf frame departs carrying what is left of it at write time.
    ///
    /// # Panics
    ///
    /// Panics if any leaf index is out of bounds.
    pub fn scatter_opts<P, F>(
        &self,
        requests: Vec<(usize, u32, P)>,
        opts: CallOptions,
        on_complete: F,
    ) where
        P: Into<Payload>,
        F: FnOnce(FanoutResult) + Send + 'static,
    {
        if requests.is_empty() {
            on_complete(FanoutResult { replies: Vec::new(), elapsed_ns: 0 });
            return;
        }
        for (leaf, _, _) in &requests {
            assert!(*leaf < self.leaves.len(), "leaf index {leaf} out of bounds");
        }
        let state = ScatterState::new(requests.len(), self.clock, encode_nothing, on_complete);
        for (slot, (leaf, method, payload)) in requests.into_iter().enumerate() {
            let state = state.clone();
            let done = move |result| state.arrive(slot, result);
            self.issue(leaf, method, payload.into(), opts, done);
        }
    }

    /// Issues one leaf sub-call through the group's request path: the
    /// direct asynchronous call normally, or the merge buffer when
    /// batching is enabled ([`FanoutGroup::with_batching`]) — where it may
    /// coalesce with sub-calls from other concurrent scatters to the same
    /// leaf into one multi-request envelope. `opts.timeout` decays while
    /// the call is parked, exactly as it decays in a send queue. `body`
    /// writes the request into the chosen connection's pending buffer, or
    /// into a payload of its own if the call is parked.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of bounds.
    pub fn issue<F>(&self, leaf: usize, method: u32, body: impl Body, opts: CallOptions, done: F)
    where
        F: FnOnce(Result<Bytes, RpcError>) + Send + 'static,
    {
        let Some(Merge { state: merge, flusher }) = &self.merge else {
            self.leaves[leaf].pick().call_async_with(method, body, opts, done);
            return;
        };
        let now = Instant::now();
        let call = BufferedCall {
            method,
            payload: body.into_payload(),
            deadline: opts.timeout.map(|limit| now + limit),
            priority: opts.priority,
            done: Box::new(done),
        };
        let (full, opened) = {
            let mut buffer = merge.buffers[leaf].lock();
            buffer.calls.push(call);
            if buffer.calls.len() >= merge.policy.max_size() {
                buffer.opened_at = None;
                (Some(std::mem::take(&mut buffer.calls)), None)
            } else if merge.policy.max_delay().is_zero() {
                // No delay budget to wait for stragglers: whatever this
                // moment's contemporaries contributed leaves immediately.
                (Some(std::mem::take(&mut buffer.calls)), None)
            } else if buffer.opened_at.is_none() {
                buffer.opened_at = Some(now);
                (None, Some(now + merge.policy.max_delay()))
            } else {
                (None, None)
            }
        };
        if let Some(calls) = full {
            let reason = if calls.len() >= merge.policy.max_size() {
                FlushReason::SizeFull
            } else {
                FlushReason::QueueDrained
            };
            merge.flush(&self.leaves, leaf, calls, reason);
        } else if let Some(due) = opened {
            flusher.schedule(due, leaf);
        }
    }

    /// Scatters and blocks the calling thread until the merge completes —
    /// convenience for tests and synchronous front-ends.
    pub fn scatter_wait<P: Into<Payload>>(&self, requests: Vec<(usize, u32, P)>) -> FanoutResult {
        let (tx, rx) = std::sync::mpsc::channel();
        self.scatter(requests, move |result| {
            let _ = tx.send(result);
        });
        crate::buf::flush_outbox();
        // lint: allow(expect): completion closure runs on every path, even all-timeout
        rx.recv().expect("scatter completion always runs")
    }
}

impl Drop for FanoutGroup {
    /// Stops the delay flusher and aborts every parked sub-call, so no
    /// buffered callback is ever silently dropped with the group and none
    /// is sent on a connection that is about to close.
    fn drop(&mut self) {
        let Some(merge) = &self.merge else { return };
        merge.flusher.shutdown();
        for leaf in 0..merge.state.buffers.len() {
            merge.state.abort(leaf);
        }
    }
}

impl std::fmt::Debug for FanoutGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutGroup").field("leaves", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::server::Server;
    use crate::service::{RequestContext, Service};

    /// Replies with its configured id plus the request payload.
    struct TaggedEcho(u8);
    impl Service for TaggedEcho {
        fn call(&self, ctx: RequestContext) {
            let mut reply = vec![self.0];
            reply.extend_from_slice(ctx.payload());
            ctx.respond_ok(reply);
        }
    }

    fn leaf_cluster(n: u8) -> (Vec<Server>, FanoutGroup) {
        let servers: Vec<Server> = (0..n)
            .map(|i| Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(i))).unwrap())
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let group = FanoutGroup::connect(&addrs).unwrap();
        (servers, group)
    }

    #[test]
    fn scatter_gathers_in_request_order() {
        let (_servers, group) = leaf_cluster(4);
        let requests: Vec<_> = (0..4).map(|leaf| (leaf, 1u32, vec![9u8])).collect();
        let result = group.scatter_wait(requests);
        assert!(result.all_ok());
        assert!(result.elapsed_ns > 0);
        let replies = result.successes();
        for (leaf, reply) in replies.iter().enumerate() {
            assert_eq!(reply, &[leaf as u8, 9]);
        }
    }

    #[test]
    fn scatter_with_shared_prefix_payloads() {
        let (_servers, group) = leaf_cluster(3);
        let shared = Bytes::from(vec![7u8; 64]);
        let requests: Vec<_> = (0..3)
            .map(|leaf| (leaf, 1u32, Payload::with_suffix(shared.clone(), vec![leaf as u8])))
            .collect();
        let result = group.scatter_wait(requests);
        assert!(result.all_ok());
        for (leaf, reply) in result.successes().iter().enumerate() {
            // TaggedEcho prepends the leaf id, then echoes head + tail.
            assert_eq!(reply[0], leaf as u8);
            assert_eq!(&reply[1..65], &shared[..]);
            assert_eq!(reply[65], leaf as u8);
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
        std::thread::sleep(std::time::Duration::from_millis(50));
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
        let servers: Vec<Server> = (0..2)
            .map(|i| Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(i))).unwrap())
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let group = FanoutGroup::connect_with_plan_via(&addrs, 3, None, None).unwrap();
        assert_eq!(group.len(), 2);
        // Repeated picks must rotate through distinct connections.
        let a = Arc::as_ptr(&group.client(0));
        let b = Arc::as_ptr(&group.client(0));
        let c = Arc::as_ptr(&group.client(0));
        let d = Arc::as_ptr(&group.client(0));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, d, "pool of 3 wraps after 3 picks");
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
        assert_eq!(result.ok_count(), 1);
        assert_eq!(result.err_count(), 3);
        assert!(!result.all_ok());
        assert_eq!(result.kind_of(0), None);
        assert_eq!(result.kind_of(1), Some(FailureKind::Timeout));
        assert_eq!(result.kind_of(2), Some(FailureKind::Transport));
        assert_eq!(result.kind_of(3), Some(FailureKind::Remote));
        let failed: Vec<usize> = result.failures().map(|(slot, _)| slot).collect();
        assert_eq!(failed, vec![1, 2, 3]);
        assert!(
            result.failures().all(|(slot, e)| matches!(
                (slot, e),
                (1, RpcError::TimedOut)
                    | (2, RpcError::ConnectionClosed)
                    | (3, RpcError::Remote { .. })
            )),
            "each failure keeps which leaf and why"
        );
    }

    #[test]
    fn broken_connection_is_skipped_then_reconnected() {
        let server = Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(7))).unwrap();
        let group =
            FanoutGroup::connect_with_plan_via(&[server.local_addr()], 2, None, None).unwrap();
        assert_eq!(group.live_count(0), 2);
        // Break one connection; picks must route around it.
        group.client(0).shutdown();
        assert_eq!(group.live_count(0), 1);
        for round in 0..4u8 {
            let result = group.scatter_wait(vec![(0usize, 1u32, vec![round])]);
            assert!(result.all_ok(), "live connection must be preferred");
        }
        assert_eq!(group.reconnect(0).unwrap(), 1, "one closed connection replaced");
        assert_eq!(group.live_count(0), 2);
        assert_eq!(group.reconnect(0).unwrap(), 0, "reconnect is idempotent");
    }

    #[test]
    fn reactor_backed_group_scatters_and_reconnects() {
        use crate::reactor::{Reactor, ReactorConfig};
        let servers: Vec<Server> = (0..3)
            .map(|i| Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(i))).unwrap())
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
        let reactor =
            Arc::new(Reactor::start(ReactorConfig { pollers: 2, ..ReactorConfig::default() }));
        let group = FanoutGroup::connect_with_plan_via(&addrs, 2, None, Some(&reactor)).unwrap();
        // Registrations are adopted on the sweepers' next pass; poll
        // rather than racing the adoption.
        let adopted = |want: u64| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            while reactor.stats().registered() < want {
                assert!(
                    std::time::Instant::now() < deadline,
                    "only {} of {want} leaf conns adopted",
                    reactor.stats().registered()
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
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
        group.client(0).shutdown();
        assert_eq!(group.reconnect(0).unwrap(), 1);
        adopted(7); // the replacement registers with the same reactor
        let result = group.scatter_wait(vec![(0usize, 1u32, vec![9u8])]);
        assert!(result.all_ok());
    }

    #[test]
    fn scatter_opts_forwards_budget_and_priority_to_every_leaf() {
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
            ..CallOptions::within(std::time::Duration::from_millis(200))
        };
        group.scatter_opts(requests, opts, move |result| tx.send(result).unwrap());
        let result = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
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

    #[test]
    fn merged_scatters_coalesce_same_leaf_subcalls() {
        let (_servers, group) = leaf_cluster(2);
        let group = Arc::new(
            group.with_batching(BatchPolicy::new(4, std::time::Duration::from_millis(20))),
        );
        // Four concurrent scatters each hit both leaves; same-leaf
        // sub-calls coalesce inside the 20ms merge window.
        let mut handles = Vec::new();
        for round in 0..4u8 {
            let group = group.clone();
            handles.push(std::thread::spawn(move || {
                let requests = vec![(0usize, 1u32, vec![round]), (1, 1, vec![round])];
                let result = group.scatter_wait(requests);
                assert!(result.all_ok());
                for (leaf, reply) in result.successes().iter().enumerate() {
                    assert_eq!(reply, &[leaf as u8, round]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = group.batch_stats().expect("batching is on");
        assert_eq!(stats.members(), 8, "every sub-call goes through the merge path");
        assert!(
            stats.batches() < 8,
            "concurrent same-leaf sub-calls must coalesce, got {} batches",
            stats.batches()
        );
    }

    #[test]
    fn merge_delay_expiry_flushes_partial_batch() {
        let (_servers, group) = leaf_cluster(1);
        let group = group.with_batching(BatchPolicy::new(64, std::time::Duration::from_millis(5)));
        // A single sub-call can never fill a 64-wide batch; only the
        // delay flusher gets it onto the wire.
        let result = group.scatter_wait(vec![(0usize, 1u32, vec![7u8])]);
        assert!(result.all_ok());
        let stats = group.batch_stats().unwrap();
        assert_eq!(stats.flushes(musuite_telemetry::batching::FlushReason::DelayExpired), 1);
    }

    #[test]
    fn merge_off_policy_keeps_direct_path() {
        let (_servers, group) = leaf_cluster(1);
        let group = group.with_batching(BatchPolicy::off());
        assert!(group.batch_stats().is_none());
        let result = group.scatter_wait(vec![(0usize, 1u32, vec![1u8])]);
        assert!(result.all_ok());
    }

    #[test]
    fn merge_zero_delay_flushes_immediately() {
        let (_servers, group) = leaf_cluster(1);
        let group = group.with_batching(BatchPolicy::new(8, std::time::Duration::ZERO));
        for round in 0..3u8 {
            let result = group.scatter_wait(vec![(0usize, 1u32, vec![round])]);
            assert!(result.all_ok());
        }
        let stats = group.batch_stats().unwrap();
        assert_eq!(stats.members(), 3);
        assert_eq!(stats.batches(), 3, "zero delay means nothing waits for stragglers");
    }

    #[test]
    fn expired_member_dropped_from_merged_batch_not_batchmates() {
        let (_servers, group) = leaf_cluster(1);
        let group = Arc::new(
            group.with_batching(BatchPolicy::new(8, std::time::Duration::from_millis(40))),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        // A member whose budget is far smaller than the merge window
        // expires while parked; its batchmate must still be served.
        let expired_tx = tx.clone();
        let tight = CallOptions::within(std::time::Duration::from_millis(1));
        let payload = |byte: u8| Payload::from(vec![byte]);
        group.issue(0, 1, payload(1), tight, move |r| expired_tx.send(("expired", r)).unwrap());
        group.issue(0, 1, payload(2), CallOptions::default(), move |r| {
            tx.send(("healthy", r)).unwrap()
        });
        let mut outcomes = std::collections::HashMap::new();
        for _ in 0..2 {
            let (who, result) = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
            outcomes.insert(who, result);
        }
        assert!(
            matches!(outcomes["expired"], Err(RpcError::TimedOut)),
            "parked past its deadline: {:?}",
            outcomes["expired"]
        );
        assert_eq!(outcomes["healthy"].as_ref().unwrap()[..], [0u8, 2]);
    }

    #[test]
    fn dropping_group_completes_parked_subcalls() {
        let (servers, group) = leaf_cluster(1);
        let group = group.with_batching(BatchPolicy::new(64, std::time::Duration::from_secs(3600)));
        let (tx, rx) = std::sync::mpsc::channel();
        group.issue(0, 1, Payload::from(vec![9u8]), CallOptions::default(), move |r| {
            tx.send(r).unwrap()
        });
        // The hour-long merge window never elapses; dropping the group
        // aborts the parked call rather than stranding or sending it.
        drop(group);
        let result = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert!(matches!(result, Err(RpcError::ConnectionClosed)), "got {result:?}");
        assert!(rx.recv().is_err(), "the callback ran once and was dropped");
        assert_eq!(servers[0].stats().requests(), 0, "nothing was flushed onto the wire");
    }

    #[test]
    fn shutdown_all_fails_fast() {
        let (_servers, group) = leaf_cluster(2);
        group.shutdown_all();
        group.shutdown_all();
        let result = group.scatter_wait(vec![(0usize, 1u32, vec![1]), (1, 1, vec![2])]);
        assert_eq!(result.err_count(), 2);
        for (_, error) in result.failures() {
            assert_eq!(error.failure_kind(), FailureKind::Transport);
        }
    }

    #[test]
    fn scatter_timeout_fails_only_the_stuck_leaf() {
        use std::net::TcpListener;
        // Leaf 0 is healthy; "leaf" 1 accepts but never responds.
        let server = Server::spawn(ServerConfig::default(), Arc::new(TaggedEcho(0))).unwrap();
        let stuck = TcpListener::bind("127.0.0.1:0").unwrap();
        let stuck_addr = stuck.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((stream, _)) = stuck.accept() {
                held.push(stream);
            }
        });
        let group = FanoutGroup::connect(&[server.local_addr(), stuck_addr]).unwrap();
        let requests = vec![(0usize, 1u32, vec![1u8]), (1, 1, vec![2u8])];
        let (tx, rx) = std::sync::mpsc::channel();
        let opts = CallOptions::within(std::time::Duration::from_millis(200));
        group.scatter_opts(requests, opts, move |result| tx.send(result).unwrap());
        let result = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert!(result.replies[0].is_ok(), "healthy leaf replied");
        assert!(
            matches!(result.replies[1], Err(RpcError::TimedOut)),
            "stuck leaf timed out: {:?}",
            result.replies[1]
        );
        drop(group);
        drop(hold);
    }
}

#[cfg(all(test, musuite_check))]
mod model_tests {
    use super::*;
    use musuite_check::{thread, Checker};

    /// A bounded scatter's gather race: a leaf response and the reaper's
    /// `TimedOut` arrive concurrently on different slots. In every
    /// interleaving the merge runs exactly once — on whichever arrival is
    /// last — and observes both slots filled.
    #[test]
    fn concurrent_arrivals_merge_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let merged = Arc::new(AtomicUsize::new(0));
                let state = ScatterState::new(2, Clock::new(), encode_nothing, {
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

    /// The merge flusher's delay flush races the group's drop over one
    /// parked sub-call: the flusher takes the buffer to send it, or the
    /// drop takes it to abort it. In every interleaving the callback runs
    /// exactly once, and a second abort finds nothing left.
    #[test]
    fn flusher_vs_drop_completes_parked_call_exactly_once() {
        let report = Checker::new()
            .check(|| {
                let completed = Arc::new(AtomicUsize::new(0));
                let opened = Instant::now();
                let merge = Arc::new(MergeState {
                    policy: BatchPolicy::new(8, std::time::Duration::from_millis(1)),
                    buffers: vec![Mutex::new(MergeBuffer {
                        calls: vec![BufferedCall {
                            method: 1,
                            payload: Payload::new(),
                            deadline: None,
                            priority: Priority::Normal,
                            done: Box::new({
                                let completed = completed.clone();
                                move |_| {
                                    completed.fetch_add(1, Ordering::AcqRel);
                                }
                            }),
                        }],
                        opened_at: Some(opened),
                    })],
                    stats: BatchStats::default(),
                });
                let flusher = {
                    let merge = merge.clone();
                    thread::spawn(move || {
                        // Stands in for the send: the connection's own
                        // path completes a call once it has been handed over.
                        let due = opened + std::time::Duration::from_secs(1);
                        for call in merge.take_due(0, due) {
                            (call.done)(Ok(Bytes::new()));
                        }
                    })
                };
                merge.abort(0);
                flusher.join().unwrap();
                merge.abort(0);
                assert_eq!(completed.load(Ordering::Acquire), 1, "exactly one completion");
            })
            .expect("a parked call must complete exactly once in every schedule");
        assert!(report.iterations > 1, "both claim orders must be explored");
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
                let state =
                    ScatterState::new(2, Clock::new(), encode_nothing, |_: FanoutResult| {});
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
