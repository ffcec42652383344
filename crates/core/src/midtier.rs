//! Typed mid-tier microservice adapter: plan → scatter → merge.
//!
//! The mid-tier is the paper's object of study: "it acts as both an RPC
//! client and an RPC server, it must manage fan-out of a single incoming
//! query to many leaf microservers, and its computation typically takes
//! tens of microseconds" (§I). [`MidTierService`] implements the request
//! path of Fig. 8: a worker decodes the query, runs the handler's
//! [`plan`](MidTierHandler::plan) (e.g. an LSH lookup or SpookyHash route
//! computation), issues asynchronous RPCs to the planned leaves, and
//! returns to the pool. Each leaf-response pick-up thread decodes the
//! reply that answers its slot, there and once (a losing hedge's reply is
//! never decoded), and the **last** one runs only
//! [`merge`](MidTierHandler::merge) and completes the front-end RPC —
//! exactly the count-down design the paper describes. The `Merge` stage
//! (the benchmark's `midtier.merge_*` rows) therefore times the merge
//! alone, without decoding the leaves' replies.
//!
//! A [`Plan`] separates request state that is *common* to every targeted
//! leaf (an HDSearch query vector, a Recommend user vector) from the
//! per-leaf remainder. The scatter owns the plan, and every attempt on a
//! leaf — primary, hedge or retry — encodes `shared ++ leaf request`
//! straight into the pending buffer of the connection it goes out on: no
//! leaf request is held in a buffer of its own. The shared part is
//! therefore encoded once per leaf frame, where a buffer encoded once
//! would be copied into each: that costs more CPU, most with many leaves
//! and a large shared part (EXPERIMENTS.md, "Encoding leaf requests in
//! place").

use crate::error::ServiceError;
use crate::leaf::{decode_payload, respond};
use bytes::{Bytes, BytesMut};
use musuite_codec::{Decode, Encode};
use musuite_rpc::buf::flush_outbox;
use musuite_rpc::{
    CallOptions, FanoutGroup, InlineList, LeafCall, RequestContext, RingSpan, RpcError,
    ScatterPlan, Service,
};
use musuite_telemetry::breakdown::Stage;
use musuite_telemetry::clock::Clock;
use std::ops::Deref;
use std::sync::Arc;

/// A fan-out plan: request state shared by every targeted leaf, plus
/// `(leaf index, per-leaf request)` pairs.
///
/// On the wire each leaf receives `encode(shared) ++ encode(leaf)`; the
/// leaf's request type decodes the two in sequence (a tuple
/// `(Shared, PerLeaf)` or a struct with the shared fields first). Use
/// `S = ()` when the leaves share nothing — `()` encodes to zero bytes.
/// The scatter owns the plan and encodes both parts into each leaf frame
/// as it is written.
#[derive(Debug, Clone)]
pub struct Plan<S, L> {
    /// State sent to every targeted leaf, held once per fan-out and
    /// encoded into each leaf frame.
    pub shared: S,
    /// `(leaf index, per-leaf request suffix)` pairs, held in the plan up
    /// to [`INLINE_SLOTS`](musuite_rpc::INLINE_SLOTS) of them.
    pub targets: InlineList<(usize, L)>,
    /// The leaves every target's hedges and retries may fail over to;
    /// empty when none may.
    alternates: RingSpan,
}

impl<S, L> Plan<S, L> {
    /// A plan from shared state and explicit targets.
    pub fn new(shared: S, targets: impl IntoIterator<Item = (usize, L)>) -> Plan<S, L> {
        Plan { shared, targets: targets.into_iter().collect(), alternates: RingSpan::default() }
    }

    /// A plan targeting every one of `leaves` with the same per-leaf
    /// request (cloned; keep the heavy state in `shared` instead).
    pub fn broadcast(shared: S, leaf_request: L, leaves: usize) -> Plan<S, L>
    where
        L: Clone,
    {
        Plan::new(shared, (0..leaves).map(|leaf| (leaf, leaf_request.clone())))
    }

    /// Lets every target's retries and hedge probes fail over to the
    /// leaves of `alternates` (e.g. a key's replica set, or a range of
    /// leaves) instead of hammering the same failing leaf. A target tries
    /// itself first, then the span's other leaves in ring order
    /// ([`LeafCall::with_alternates`]).
    pub fn with_alternates(mut self, alternates: impl Into<RingSpan>) -> Plan<S, L> {
        self.alternates = alternates.into();
        self
    }

    /// The leaves the targets may fail over to (empty when none are set).
    pub fn alternates(&self) -> RingSpan {
        self.alternates
    }

    /// Number of targeted leaves.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if the plan targets no leaves.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// The leaves' replies as [`MidTierHandler::merge`] takes them: one per
/// target, in the plan's order, to read as a slice and then consume by
/// value. A scatter hands over the [`InlineList`] it gathered them in; a
/// `Vec` serves as well.
pub trait Replies<R>:
    IntoIterator<Item = Result<R, RpcError>> + Deref<Target = [Result<R, RpcError>]>
{
}

impl<R, T> Replies<R> for T where
    T: IntoIterator<Item = Result<R, RpcError>> + Deref<Target = [Result<R, RpcError>]>
{
}

/// Typed mid-tier logic: how to split a query across leaves and how to
/// merge their replies.
pub trait MidTierHandler: Send + Sync + 'static {
    /// The decoded front-end request type, read from the request's
    /// payload. A view type (a `Text`, `Bytes` or `Seq` field) holds
    /// slices of the payload until [`merge`](MidTierHandler::merge) has
    /// run, and no longer (DESIGN.md §5a).
    type Request: Decode + Send + 'static;
    /// The encoded front-end response type.
    type Response: Encode;
    /// Request state common to every targeted leaf: held once per
    /// fan-out, in the scatter that owns the plan, and encoded into each
    /// leaf frame as it is written. Use `()` when leaves share nothing.
    type SharedRequest: Encode + Send + Sync + 'static;
    /// The encoded per-leaf request suffix.
    type LeafRequest: Encode + Send + Sync + 'static;
    /// The decoded per-leaf response type, read from the reply's payload
    /// on the thread that claims it; a view type holds slices of the reply
    /// until the merge.
    type LeafResponse: Decode + Send + 'static;

    /// Computes which leaves to contact and with what payloads. This is
    /// the mid-tier's request-path compute (LSH lookup, hash routing,
    /// query forwarding).
    fn plan(
        &self,
        request: &Self::Request,
        leaves: usize,
    ) -> Plan<Self::SharedRequest, Self::LeafRequest>;

    /// Returns `true` if planning and issuing `request` costs more than a
    /// socket write (some 20 µs with the peer's wake-up): the serving
    /// thread then writes the frames it holds back for ready work before
    /// [`plan`](MidTierHandler::plan) starts. The default is `false`; see
    /// [`LeafHandler::runs_long`](crate::leaf::LeafHandler::runs_long).
    fn runs_long(&self, _request: &Self::Request) -> bool {
        false
    }

    /// Merges leaf replies into the final response. Individual leaves may
    /// have failed; handlers decide whether partial results are acceptable.
    /// The replies come in the plan's target order, as the scatter
    /// gathered them (held in its state up to
    /// [`INLINE_SLOTS`](musuite_rpc::INLINE_SLOTS) wide, so a merge of one
    /// or two replies receives no allocation); a merge may read them in
    /// place, then consume them.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] if a usable response cannot be assembled.
    fn merge(
        &self,
        request: Self::Request,
        replies: impl Replies<Self::LeafResponse>,
    ) -> Result<Self::Response, ServiceError>;
}

/// Adapts a [`MidTierHandler`] plus a [`FanoutGroup`] of leaf connections
/// to the untyped [`Service`] interface. All leaf traffic runs the
/// group's policy: a group given a resilience policy
/// ([`FanoutGroup::with_resilience`], as `Cluster::launch` does) hedges,
/// retries and breaks circuits for every service built on this adapter.
pub struct MidTierService<H> {
    handler: Arc<H>,
    fanout: Arc<FanoutGroup>,
    leaf_method: u32,
    clock: Clock,
}

impl<H: MidTierHandler> MidTierService<H> {
    /// Wires `handler` to a group of leaf connections. `leaf_method` is
    /// the method id used for every leaf RPC.
    pub fn new(handler: H, leaves: FanoutGroup, leaf_method: u32) -> MidTierService<H> {
        MidTierService {
            handler: Arc::new(handler),
            fanout: Arc::new(leaves),
            leaf_method,
            clock: Clock::new(),
        }
    }

    /// A reference to the wrapped handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// The fan-out group carrying all leaf traffic (counters, explicit
    /// shutdown).
    pub fn fanout(&self) -> &Arc<FanoutGroup> {
        &self.fanout
    }

    /// Number of connected leaves.
    pub fn leaf_count(&self) -> usize {
        self.fanout.len()
    }
}

impl<H: MidTierHandler> Service for MidTierService<H> {
    fn call(&self, mut ctx: RequestContext) {
        let request = match decode_payload::<H::Request>(ctx.take_payload()) {
            Ok(request) => request,
            Err(refusal) => return respond::<H::Response>(ctx, Err(refusal)),
        };
        if self.handler.runs_long(&request) {
            flush_outbox();
        }
        let fanout_start = self.clock.now_ns();
        let plan = LeafPlan::<H> {
            plan: self.handler.plan(&request, self.fanout.len()),
            method: self.leaf_method,
        };
        let handler = self.handler.clone();
        let stats_breakdown = ctx_breakdown(&ctx);
        let clock = self.clock;
        // Budget-forwarding hop: the leaf scatter inherits whatever
        // remains of the inbound request's wire budget (already net of
        // the time spent queued and planning here), and the request's
        // priority class rides along to every leaf.
        let opts = CallOptions {
            timeout: match ctx.remaining_budget() {
                0 => None,
                budget_us => Some(std::time::Duration::from_micros(u64::from(budget_us))),
            },
            priority: ctx.priority(),
        };
        // The worker thread issues the fan-out and returns to the pool;
        // the last response thread runs this closure.
        self.fanout.scatter_encoded(plan, opts, move |result| {
            // Fan-out stage = plan + issue + completion dispatch, excluding
            // the time spent waiting on the leaves themselves.
            let fanout_ns =
                clock.now_ns().saturating_sub(fanout_start).saturating_sub(result.elapsed_ns);
            stats_breakdown.record_ns(Stage::LeafFanout, fanout_ns);
            ctx.add_leaf_time_ns(result.elapsed_ns);
            let merge_start = clock.now_ns();
            let merged = handler.merge(request, result.replies);
            if merged.is_ok() {
                stats_breakdown.record_ns(Stage::Merge, clock.now_ns().saturating_sub(merge_start));
            }
            respond(ctx, merged);
        });
    }
}

/// A handler's plan as its scatter owns it: every attempt encodes
/// `shared ++ leaf request` in place.
struct LeafPlan<H: MidTierHandler> {
    plan: Plan<H::SharedRequest, H::LeafRequest>,
    method: u32,
}

impl<H: MidTierHandler> ScatterPlan for LeafPlan<H> {
    type Reply = H::LeafResponse;

    fn calls(&mut self) -> impl ExactSizeIterator<Item = LeafCall> + '_ {
        let (method, alternates) = (self.method, self.plan.alternates);
        self.plan
            .targets
            .iter()
            .map(move |&(leaf, _)| LeafCall::new(leaf, method).with_alternates(alternates))
    }

    fn encode(&self, slot: usize, buf: &mut BytesMut) {
        self.plan.shared.encode(buf);
        self.plan.targets[slot].1.encode(buf);
    }

    fn decode(&self, reply: Bytes) -> Result<H::LeafResponse, RpcError> {
        musuite_codec::from_payload(reply).map_err(RpcError::from)
    }
}

/// Borrows the breakdown recorder travelling with the request context.
fn ctx_breakdown(ctx: &RequestContext) -> musuite_telemetry::breakdown::BreakdownRecorder {
    ctx.breakdown().clone()
}

impl<H> std::fmt::Debug for MidTierService<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MidTierService")
            .field("leaves", &self.fanout.len())
            .field("leaf_method", &self.leaf_method)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::{LeafHandler, LeafService};
    use musuite_rpc::{RpcClient, Server, ServerConfig, Status};

    struct SquareLeaf;
    impl LeafHandler for SquareLeaf {
        type Request = u64;
        type Response = u64;
        fn handle(&self, request: u64) -> Result<u64, ServiceError> {
            Ok(request * request)
        }
    }

    /// Sends `request + leaf_index` to every leaf and sums the squares.
    struct SumSquares;
    impl MidTierHandler for SumSquares {
        type Request = u64;
        type Response = u64;
        type SharedRequest = ();
        type LeafRequest = u64;
        type LeafResponse = u64;
        fn plan(&self, request: &u64, leaves: usize) -> Plan<(), u64> {
            Plan::new((), (0..leaves).map(|leaf| (leaf, request + leaf as u64)))
        }
        fn merge(&self, _request: u64, replies: impl Replies<u64>) -> Result<u64, ServiceError> {
            let mut sum = 0u64;
            for reply in replies {
                sum += reply.map_err(|e| ServiceError::new(e.to_string()))?;
            }
            Ok(sum)
        }
    }

    fn three_tier() -> (Vec<Server>, Server) {
        let leaves: Vec<Server> = (0..3)
            .map(|_| {
                Server::spawn(ServerConfig::default(), Arc::new(LeafService::new(SquareLeaf)))
                    .unwrap()
            })
            .collect();
        let addrs: Vec<_> = leaves.iter().map(|s| s.local_addr()).collect();
        let group = FanoutGroup::connect(&addrs).unwrap();
        let midtier = Server::spawn(
            ServerConfig::default(),
            Arc::new(MidTierService::new(SumSquares, group, 1)),
        )
        .unwrap();
        (leaves, midtier)
    }

    #[test]
    fn full_three_tier_roundtrip() {
        let (_leaves, midtier) = three_tier();
        let client = RpcClient::connect(midtier.local_addr()).unwrap();
        let reply = client.call(1, musuite_codec::to_bytes(&10u64)).unwrap();
        let sum: u64 = musuite_codec::from_bytes(&reply).unwrap();
        assert_eq!(sum, 100 + 121 + 144); // 10² + 11² + 12²
    }

    #[test]
    fn leaf_failure_propagates_as_app_error() {
        let (leaves, midtier) = three_tier();
        leaves[2].shutdown();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let client = RpcClient::connect(midtier.local_addr()).unwrap();
        let err = client.call(1, musuite_codec::to_bytes(&1u64)).unwrap_err();
        assert!(matches!(err, RpcError::Remote { status: Status::AppError, .. }));
    }

    #[test]
    fn malformed_query_is_bad_request() {
        let (_leaves, midtier) = three_tier();
        let client = RpcClient::connect(midtier.local_addr()).unwrap();
        let err = client.call(1, vec![0x80]).unwrap_err();
        assert!(matches!(err, RpcError::Remote { status: Status::BadRequest, .. }));
    }

    #[test]
    fn concurrent_queries_through_midtier() {
        let (_leaves, midtier) = three_tier();
        let addr = midtier.local_addr();
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(move || {
                let client = RpcClient::connect(addr).unwrap();
                for q in 0..25u64 {
                    let reply = client.call(1, musuite_codec::to_bytes(&q)).unwrap();
                    let sum: u64 = musuite_codec::from_bytes(&reply).unwrap();
                    assert_eq!(sum, q * q + (q + 1) * (q + 1) + (q + 2) * (q + 2));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fanout_and_merge_stages_recorded() {
        let (_leaves, midtier) = three_tier();
        let client = RpcClient::connect(midtier.local_addr()).unwrap();
        for _ in 0..5 {
            client.call(1, musuite_codec::to_bytes(&2u64)).unwrap();
        }
        let breakdown = midtier.stats().breakdown();
        assert!(breakdown.histogram(Stage::LeafFanout).count() >= 4);
        assert!(breakdown.histogram(Stage::Merge).count() >= 4);
    }

    /// A handler whose heavy query vector rides in `SharedRequest`: the
    /// leaves decode `(Vec<f32>, u32)` — shared prefix then per-leaf
    /// suffix — exercising the encode-once wire split end to end.
    struct ScaleLeaf;
    impl LeafHandler for ScaleLeaf {
        type Request = (Vec<f32>, u32);
        type Response = f32;
        fn handle(&self, (vector, scale): (Vec<f32>, u32)) -> Result<f32, ServiceError> {
            Ok(vector.iter().sum::<f32>() * scale as f32)
        }
    }

    struct SharedVectorMid;
    impl MidTierHandler for SharedVectorMid {
        type Request = Vec<f32>;
        type Response = f32;
        type SharedRequest = Vec<f32>;
        type LeafRequest = u32;
        type LeafResponse = f32;
        fn plan(&self, request: &Vec<f32>, leaves: usize) -> Plan<Vec<f32>, u32> {
            Plan::new(request.clone(), (0..leaves).map(|leaf| (leaf, leaf as u32 + 1)))
        }
        fn merge(
            &self,
            _request: Vec<f32>,
            replies: impl Replies<f32>,
        ) -> Result<f32, ServiceError> {
            let mut sum = 0f32;
            for reply in replies {
                sum += reply.map_err(|e| ServiceError::new(e.to_string()))?;
            }
            Ok(sum)
        }
    }

    #[test]
    fn shared_request_state_reaches_every_leaf() {
        let leaves: Vec<Server> = (0..4)
            .map(|_| {
                Server::spawn(ServerConfig::default(), Arc::new(LeafService::new(ScaleLeaf)))
                    .unwrap()
            })
            .collect();
        let addrs: Vec<_> = leaves.iter().map(|s| s.local_addr()).collect();
        let group = FanoutGroup::connect(&addrs).unwrap();
        let midtier = Server::spawn(
            ServerConfig::default(),
            Arc::new(MidTierService::new(SharedVectorMid, group, 1)),
        )
        .unwrap();
        let client = RpcClient::connect(midtier.local_addr()).unwrap();
        let query = vec![1.0f32, 2.0, 3.0]; // sums to 6
        let reply = client.call(1, musuite_codec::to_bytes(&query)).unwrap();
        let total: f32 = musuite_codec::from_bytes(&reply).unwrap();
        // Scales 1+2+3+4 = 10 leaves-weightings of the shared vector sum.
        assert_eq!(total, 6.0 * 10.0);
    }

    /// Squares through the leaves; an odd query's plan runs long and says
    /// so, and waits for a word from the test before it plans.
    struct OddPlansLong {
        go: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        queued: std::sync::OnceLock<musuite_rpc::ServerStats>,
    }

    impl MidTierHandler for OddPlansLong {
        type Request = u64;
        type Response = u64;
        type SharedRequest = ();
        type LeafRequest = u64;
        type LeafResponse = u64;
        fn runs_long(&self, request: &u64) -> bool {
            request % 2 == 1
        }
        fn plan(&self, request: &u64, leaves: usize) -> Plan<(), u64> {
            if let Some(stats) = self.queued.get() {
                crate::leaf::tests::wait_admitted(stats, 2);
            }
            if request % 2 == 1 {
                let patience = 2 * crate::leaf::tests::PATIENCE;
                let _ = self.go.lock().unwrap().recv_timeout(patience);
            }
            Plan::broadcast((), *request, leaves)
        }
        fn merge(&self, request: u64, replies: impl Replies<u64>) -> Result<u64, ServiceError> {
            SumSquares.merge(request, replies)
        }
    }

    /// What a mid-tier worker holds before a plan is the leaf calls of the
    /// query before it: they go out before a plan that runs long, or that
    /// query's reply, which the long plan waits for, never comes.
    #[test]
    fn a_plan_that_runs_long_sends_the_leaf_calls_held_before_it() {
        use crate::leaf::tests::{next_reply, send_together};
        let leaf =
            Server::spawn(ServerConfig::default(), Arc::new(LeafService::new(SquareLeaf))).unwrap();
        let group = FanoutGroup::connect(&[leaf.local_addr()]).unwrap();
        let (go, wait) = std::sync::mpsc::channel();
        let handler =
            OddPlansLong { go: std::sync::Mutex::new(wait), queued: std::sync::OnceLock::new() };
        let service = Arc::new(MidTierService::new(handler, group, 1));
        let mut config = ServerConfig::default();
        config.workers(1);
        let midtier = Server::spawn(config, service.clone()).unwrap();
        let _ = service.handler().queued.set(midtier.stats().clone());
        let conn = send_together(&midtier, &[2u64, 3]);
        let mut buf = musuite_rpc::RecvBuf::default();
        assert_eq!(next_reply(&conn, &mut buf), 0);
        go.send(()).unwrap();
        assert_eq!(next_reply(&conn, &mut buf), 1);
    }

    #[test]
    fn plan_helpers() {
        let plan = Plan::broadcast(vec![1u8], 7u32, 3);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.targets[..], [(0, 7), (1, 7), (2, 7)]);
        let empty: Plan<(), u32> = Plan::new((), []);
        assert!(empty.is_empty());
    }
}
