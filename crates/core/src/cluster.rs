//! In-process cluster launcher: N leaves plus one mid-tier over real TCP.
//!
//! The paper runs "a distributed system of a load generator, a mid-tier
//! microservice, and a sharded leaf microservice" with "each microservice
//! on dedicated hardware" (§V). This launcher builds the same topology on
//! one host: every tier is a real socket server with its own thread pools;
//! only the network hop is loopback instead of 10 GbE (see DESIGN.md's
//! substitution notes).

use crate::error::ServiceError;
use crate::leaf::{LeafHandler, LeafService};
use crate::midtier::{MidTierHandler, MidTierService};
use bytes::BytesMut;
use musuite_codec::{Decode, Encode};
use musuite_rpc::{
    CallOptions, FanoutGroup, FaultPlan, Reactor, ResilientConfig, RpcClient, RpcError, Server,
    ServerConfig,
};
use std::marker::PhantomData;
use std::net::SocketAddr;
use std::sync::Arc;

/// The method id used for front-end→mid-tier queries.
pub const QUERY_METHOD: u32 = 1;
/// The method id used for mid-tier→leaf requests.
pub const LEAF_METHOD: u32 = 2;

/// Topology and threading configuration for [`Cluster::launch`].
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    leaves: usize,
    midtier: ServerConfig,
    leaf: ServerConfig,
    conns_per_leaf: usize,
    resilience: ResilientConfig,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl ClusterConfig {
    /// Creates a configuration with one leaf and default server settings.
    pub fn new() -> ClusterConfig {
        ClusterConfig { leaves: 1, ..Default::default() }
    }

    /// Sets the number of leaf microservers (consuming builder).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn leaves(mut self, count: usize) -> ClusterConfig {
        assert!(count > 0, "cluster needs at least one leaf");
        self.leaves = count;
        self
    }

    /// Overrides the mid-tier server configuration.
    pub fn midtier_config(mut self, config: ServerConfig) -> ClusterConfig {
        self.midtier = config;
        self
    }

    /// Overrides the leaf server configuration.
    pub fn leaf_config(mut self, config: ServerConfig) -> ClusterConfig {
        self.leaf = config;
        self
    }

    /// Sets how many mid-tier→leaf connections to open per leaf (each
    /// brings its own response pick-up thread). Default 1.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn conns_per_leaf(mut self, count: usize) -> ClusterConfig {
        assert!(count > 0, "need at least one connection per leaf");
        self.conns_per_leaf = count;
        self
    }

    /// Configured connections per leaf.
    pub fn conns_per_leaf_count(&self) -> usize {
        self.conns_per_leaf.max(1)
    }

    /// Configured leaf count.
    pub fn leaf_count(&self) -> usize {
        self.leaves.max(1)
    }

    /// Sets the mid-tier's resilience policy (hedged requests, retry
    /// failover, per-leaf circuit breakers). Default:
    /// [`ResilientConfig::default`] — breaker only, no hedging/retries.
    pub fn resilience(mut self, config: ResilientConfig) -> ClusterConfig {
        self.resilience = config;
        self
    }

    /// Configured resilience policy.
    pub fn resilience_config(&self) -> ResilientConfig {
        self.resilience
    }

    /// Attaches a deterministic fault-injection plan to the mid-tier→leaf
    /// connections. The plan must have been built for at least
    /// [`leaf_count`](ClusterConfig::leaf_count) leaves.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> ClusterConfig {
        self.fault_plan = Some(plan);
        self
    }
}

/// A running three-tier service: leaf servers and the mid-tier in front of
/// them. Dropping the cluster shuts everything down.
pub struct Cluster {
    leaves: Vec<Server>,
    midtier: Server,
    fanout: Arc<FanoutGroup>,
}

impl Cluster {
    /// Spawns `config.leaf_count()` leaf servers (handler built per leaf by
    /// `leaf_factory`), connects the mid-tier to all of them, and spawns
    /// the mid-tier server.
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to bind or any leaf connection
    /// fails.
    pub fn launch<M, L, F>(
        config: ClusterConfig,
        midtier: M,
        mut leaf_factory: F,
    ) -> Result<Cluster, RpcError>
    where
        M: MidTierHandler,
        L: LeafHandler,
        F: FnMut(usize) -> L,
    {
        let leaves: Result<Vec<Server>, RpcError> = (0..config.leaf_count())
            .map(|i| {
                Server::spawn(config.leaf.clone(), Arc::new(LeafService::new(leaf_factory(i))))
            })
            .collect();
        let leaves = leaves?;
        let addrs: Vec<SocketAddr> = leaves.iter().map(Server::local_addr).collect();
        // The mid-tier's network model governs both of its network edges:
        // under SharedPollers its leaf-client connections also share one
        // fixed reactor pool instead of spawning a pick-up thread each. Its
        // idle timeout does not: that reaps what the mid-tier accepted.
        let leaf_reactor =
            config.midtier.reactor_config().map(|pool| Arc::new(Reactor::start(pool)));
        let group = FanoutGroup::connect_with_plan_via(
            &addrs,
            config.conns_per_leaf_count(),
            config.fault_plan.as_ref(),
            leaf_reactor.as_ref(),
        )?
        .with_resilience(config.resilience);
        let service = MidTierService::new(midtier, group, LEAF_METHOD);
        let fanout = service.fanout().clone();
        let midtier = Server::spawn(config.midtier.clone(), Arc::new(service))?;
        Ok(Cluster { leaves, midtier, fanout })
    }

    /// The mid-tier's listening address (where front-ends connect).
    pub fn midtier_addr(&self) -> SocketAddr {
        self.midtier.local_addr()
    }

    /// The mid-tier server handle (stats, shutdown).
    pub fn midtier(&self) -> &Server {
        &self.midtier
    }

    /// The leaf server handles.
    pub fn leaf_servers(&self) -> &[Server] {
        &self.leaves
    }

    /// Connects a raw front-end client to the mid-tier.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection fails.
    pub fn raw_client(&self) -> Result<RpcClient, RpcError> {
        RpcClient::connect(self.midtier_addr())
    }

    /// Connects a typed front-end client to the mid-tier.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection fails.
    pub fn client<Req: Encode, Resp: Decode>(&self) -> Result<TypedClient<Req, Resp>, RpcError> {
        Ok(TypedClient::new(self.raw_client()?, QUERY_METHOD))
    }

    /// The fan-out group carrying mid-tier→leaf traffic (hedge / retry /
    /// breaker counters, fault-plan observability).
    pub fn fanout(&self) -> &FanoutGroup {
        &self.fanout
    }

    /// Shuts down the cluster: mid-tier first, then its leaf
    /// connections, then the leaves. Every tier **aborts** — in-flight
    /// calls complete with a typed error, none is waited for — and the
    /// order keeps that quick: stopping the mid-tier and its
    /// fan-out *before* the leaf servers makes any still-in-flight leaf
    /// call fail fast as `Disconnected` instead of stalling against a
    /// half-dead leaf until its deadline. Idempotent.
    pub fn shutdown(&self) {
        self.midtier.shutdown();
        self.fanout.shutdown();
        for leaf in &self.leaves {
            leaf.shutdown();
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("midtier_addr", &self.midtier_addr())
            .field("leaves", &self.leaves.len())
            .finish()
    }
}

/// A front-end client that encodes requests and decodes responses.
pub struct TypedClient<Req, Resp> {
    client: RpcClient,
    method: u32,
    _types: PhantomData<fn(Req) -> Resp>,
}

impl<Req: Encode, Resp: Decode> TypedClient<Req, Resp> {
    /// Wraps a raw client with typed encode/decode on `method`.
    pub fn new(client: RpcClient, method: u32) -> TypedClient<Req, Resp> {
        TypedClient { client, method, _types: PhantomData }
    }

    /// Issues a blocking typed call under `opts`: the timeout is carried
    /// on the wire as a deadline budget the whole three-tier pipeline
    /// inherits, and the priority tags the request for the server's
    /// admission gate.
    ///
    /// # Errors
    ///
    /// Returns transport errors from the client, remote handler errors
    /// (including rejections from overload control: shed or expired
    /// server-side), [`RpcError::TimedOut`] when the budget runs out, or
    /// [`RpcError::Decode`] if the response payload is malformed.
    pub fn call_typed(&self, request: &Req, opts: CallOptions) -> Result<Resp, RpcError> {
        let reply =
            self.client.call_opts(self.method, |buf: &mut BytesMut| request.encode(buf), opts)?;
        musuite_codec::from_payload::<Resp>(reply).map_err(RpcError::from)
    }

    /// Issues an asynchronous typed call under `opts`; the callback runs
    /// on the response pick-up thread.
    pub fn call_typed_async<F>(&self, request: &Req, opts: CallOptions, callback: F)
    where
        F: FnOnce(Result<Resp, RpcError>) + Send + 'static,
    {
        let encode = |buf: &mut BytesMut| request.encode(buf);
        self.client.call_async_opts(self.method, encode, opts, move |result| {
            callback(result.and_then(|bytes| {
                musuite_codec::from_payload::<Resp>(bytes).map_err(RpcError::from)
            }));
        });
    }

    /// The underlying raw client.
    pub fn raw(&self) -> &RpcClient {
        &self.client
    }
}

impl<Req, Resp> std::fmt::Debug for TypedClient<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedClient").field("method", &self.method).finish()
    }
}

/// A convenience alias so service crates can expose uniform error types.
pub type ServiceResult<T> = Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::midtier::Plan;
    use musuite_rpc::NetworkModel;

    struct AddLeaf(u64);
    impl LeafHandler for AddLeaf {
        type Request = u64;
        type Response = u64;
        fn handle(&self, request: u64) -> Result<u64, ServiceError> {
            Ok(request + self.0)
        }
    }

    struct MaxMid;
    impl MidTierHandler for MaxMid {
        type Request = u64;
        type Response = u64;
        type SharedRequest = u64;
        type LeafRequest = ();
        type LeafResponse = u64;
        fn plan(&self, request: &u64, leaves: usize) -> Plan<u64, ()> {
            Plan::broadcast(*request, (), leaves)
        }
        fn merge(
            &self,
            _request: u64,
            replies: Vec<Result<u64, RpcError>>,
        ) -> Result<u64, ServiceError> {
            replies
                .into_iter()
                .filter_map(Result::ok)
                .max()
                .ok_or_else(|| ServiceError::new("no leaf replied"))
        }
    }

    fn launch(leaves: usize) -> Cluster {
        Cluster::launch(ClusterConfig::new().leaves(leaves), MaxMid, |i| AddLeaf(i as u64 * 10))
            .unwrap()
    }

    #[test]
    fn per_leaf_factory_receives_index() {
        let cluster = launch(4);
        let client = cluster.client::<u64, u64>().unwrap();
        // max(q + 0, q + 10, q + 20, q + 30) = q + 30
        assert_eq!(client.call_typed(&7, CallOptions::default()).unwrap(), 37);
    }

    #[test]
    fn single_leaf_cluster() {
        let cluster = launch(1);
        let client = cluster.client::<u64, u64>().unwrap();
        assert_eq!(client.call_typed(&5, CallOptions::default()).unwrap(), 5);
    }

    #[test]
    fn typed_async_call() {
        let cluster = launch(2);
        let client = cluster.client::<u64, u64>().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        client.call_typed_async(&3, CallOptions::default(), move |result| {
            tx.send(result).unwrap();
        });
        let value = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(value, 13);
    }

    #[test]
    fn pooled_leaf_connections_work_end_to_end() {
        let config = ClusterConfig::new().leaves(2).conns_per_leaf(3);
        let cluster = Cluster::launch(config, MaxMid, |i| AddLeaf(i as u64 * 10)).unwrap();
        let client = cluster.client::<u64, u64>().unwrap();
        for q in 0..20u64 {
            assert_eq!(client.call_typed(&q, CallOptions::default()).unwrap(), q + 10);
        }
    }

    #[test]
    fn shared_poller_midtier_works_end_to_end() {
        let mut midtier = ServerConfig::default();
        midtier.network_model(NetworkModel::SharedPollers { pollers: 2 }).workers(2);
        let config = ClusterConfig::new().leaves(3).midtier_config(midtier);
        let cluster = Cluster::launch(config, MaxMid, |i| AddLeaf(i as u64 * 10)).unwrap();
        assert_eq!(cluster.midtier().network_threads(), 2);
        let client = cluster.client::<u64, u64>().unwrap();
        for q in 0..20u64 {
            assert_eq!(client.call_typed(&q, CallOptions::default()).unwrap(), q + 20);
        }
        cluster.shutdown();
    }

    /// The mid-tier's idle timeout reaps the connections it accepted, never
    /// the leaf connections it dialed, under either network model.
    #[test]
    fn midtier_idle_timeout_spares_its_own_leaf_connections() {
        use musuite_telemetry::resilience::ResilienceEvent;
        use std::time::Duration;
        for network in [NetworkModel::BlockingPerConn, NetworkModel::SharedPollers { pollers: 2 }] {
            let mut midtier = ServerConfig::default();
            midtier.network_model(network).idle_timeout(Duration::from_millis(50));
            let config = ClusterConfig::new().leaves(2).midtier_config(midtier);
            let cluster = Cluster::launch(config, MaxMid, |i| AddLeaf(i as u64 * 10)).unwrap();
            let client = cluster.client::<u64, u64>().unwrap();
            assert_eq!(client.call_typed(&1, CallOptions::default()).unwrap(), 11);
            std::thread::sleep(Duration::from_millis(300));
            let conns: Vec<usize> =
                cluster.leaf_servers().iter().map(Server::connection_count).collect();
            assert_eq!(conns, [1, 1], "leaf connections after an idle spell under {network:?}");
            // The front-end's connection was idle as long, and is gone; a
            // fresh one reaches the leaves over the connections kept.
            let client = cluster.client::<u64, u64>().unwrap();
            assert_eq!(client.call_typed(&2, CallOptions::default()).unwrap(), 12);
            let reconnects = cluster.fanout().counters().get(ResilienceEvent::Reconnect);
            assert_eq!(reconnects, 0, "reconnects under {network:?}");
        }
    }

    #[test]
    fn shutdown_is_idempotent() {
        let cluster = launch(2);
        cluster.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn stats_visible_through_handles() {
        let cluster = launch(2);
        let client = cluster.client::<u64, u64>().unwrap();
        for _ in 0..10 {
            client.call_typed(&1, CallOptions::default()).unwrap();
        }
        assert_eq!(cluster.midtier().stats().requests(), 10);
        let leaf_requests: u64 =
            cluster.leaf_servers().iter().map(|leaf| leaf.stats().requests()).sum();
        assert_eq!(leaf_requests, 20); // 10 queries x 2 leaves
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn zero_leaves_rejected() {
        let _ = ClusterConfig::new().leaves(0);
    }

    /// Adds like [`AddLeaf`], and refuses the query `0` as a bad request.
    struct RefusesZero(u64);
    impl LeafHandler for RefusesZero {
        type Request = u64;
        type Response = u64;
        fn handle(&self, request: u64) -> Result<u64, ServiceError> {
            match request {
                0 => Err(ServiceError::bad_request("unknown id")),
                _ => AddLeaf(self.0).handle(request),
            }
        }
    }

    /// A leaf that refuses a query has answered it: the refusal is the
    /// slot's result, it does not charge the leaf's breaker, and it is not
    /// retried.
    #[test]
    fn a_leaf_refusal_neither_opens_its_breaker_nor_is_retried() {
        use musuite_telemetry::resilience::ResilienceEvent;
        let threshold = ResilientConfig::default().breaker.map(|b| b.threshold).unwrap();
        let cluster =
            Cluster::launch(ClusterConfig::new().leaves(2), MaxMid, |i| RefusesZero(i as u64 * 10))
                .unwrap();
        let client = cluster.client::<u64, u64>().unwrap();
        for _ in 0..threshold {
            assert!(client.call_typed(&0, CallOptions::default()).is_err(), "every leaf refuses");
        }
        assert_eq!(client.call_typed(&5, CallOptions::default()).unwrap(), 15);
        assert_eq!(cluster.fanout().counters().get(ResilienceEvent::BreakerOpened), 0);

        let config = ClusterConfig::new()
            .leaves(2)
            .resilience(ResilientConfig { retries: 2, ..Default::default() });
        let cluster = Cluster::launch(config, MaxMid, |i| RefusesZero(i as u64 * 10)).unwrap();
        let client = cluster.client::<u64, u64>().unwrap();
        assert!(client.call_typed(&0, CallOptions::default()).is_err());
        assert_eq!(cluster.fanout().counters().get(ResilienceEvent::Retry), 0);
    }

    #[test]
    fn fault_plan_and_resilience_wire_through() {
        let plan = FaultPlan::builder(7, 2).dead_leaf(1).build();
        let config = ClusterConfig::new()
            .leaves(2)
            .resilience(ResilientConfig { retries: 1, ..Default::default() })
            .fault_plan(plan.clone());
        let cluster = Cluster::launch(config, MaxMid, |i| AddLeaf(i as u64 * 10)).unwrap();
        plan.arm();
        let client = cluster.client::<u64, u64>().unwrap();
        // Leaf 1 is dead under the plan; MaxMid keeps the survivors.
        assert_eq!(client.call_typed(&5, CallOptions::default()).unwrap(), 5);
        assert!(plan.injected() > 0, "the armed plan should have fired");
        use musuite_telemetry::resilience::ResilienceEvent;
        assert!(cluster.fanout().counters().get(ResilienceEvent::Retry) > 0);
        cluster.shutdown();
    }
}
