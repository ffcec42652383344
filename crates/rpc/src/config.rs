//! Server configuration: thread-pool sizes and execution-model knobs.
//!
//! The paper's §VII calls out three design trade-offs as open research
//! questions this suite should enable: block- vs poll-based waiting,
//! in-line vs dispatch-based request processing, and thread-pool sizing.
//! All three are first-class configuration here so the ablation bench can
//! sweep them.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How idle threads wait for new work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WaitMode {
    /// Park on a condition variable (futex), yielding the CPU — μSuite's
    /// default design, which conserves CPU but pays wakeup latency.
    #[default]
    Block,
    /// Spin with `yield_now`, trading CPU burn for lower hand-off latency.
    Poll,
    /// Spin briefly, then park — the dynamic block/poll trade-off the
    /// paper's §VII proposes ("future microservice monitoring systems
    /// could dynamically switch between block- and poll-based designs").
    /// At high load, work arrives during the spin window and the futex
    /// wakeup is skipped entirely; at low load, threads park and conserve
    /// CPU as in [`WaitMode::Block`].
    Adaptive,
}

impl WaitMode {
    /// The one wait rule, shared by the dispatch queue and the reactor's
    /// sweepers: the *n*-th empty look in a row yields while *n* is within
    /// this budget and parks after it. ~64 yields are a few microseconds —
    /// enough to catch back-to-back arrivals without burning CPU through
    /// idle periods. `Poll`'s budget is one a saturating count never passes.
    pub(crate) fn spin_budget(self) -> u32 {
        match self {
            WaitMode::Block => 0,
            WaitMode::Adaptive => 64,
            WaitMode::Poll => u32::MAX,
        }
    }
}

/// Where request handlers execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ExecutionModel {
    /// Network pollers enqueue requests onto the dispatch queue; workers
    /// execute handlers — μSuite's default design.
    #[default]
    Dispatch,
    /// Network pollers execute handlers in-line, skipping the queue and
    /// its thread hop (efficient at low load, queue-prone at high load).
    Inline,
}

/// How the network edge waits for bytes — the paper's Fig. 8 poller-pool
/// design vs. the thread-per-connection baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NetworkModel {
    /// One blocking reader thread per connection. Simple and latency-
    /// optimal at tiny connection counts, but thread count grows linearly
    /// with connections. Kept as the baseline arm of the ablation.
    #[default]
    BlockingPerConn,
    /// A fixed pool of `pollers` reactor threads multiplexes every
    /// registered non-blocking socket — the paper's mid-tier architecture,
    /// where a small poller set feeds the dispatch queue regardless of how
    /// many clients are connected.
    SharedPollers {
        /// Number of reactor sweep threads sharing the connection set.
        pollers: usize,
    },
}

/// How the server decides whether to admit an arriving request — the
/// overload-control axis of the ablation sweep.
///
/// Both models run the same priority-threshold admission gate (see the
/// `admission` module): `Critical` traffic may use the whole concurrency
/// limit, `Normal` is shed beyond 80% of it, `Sheddable` beyond 50%. The
/// models differ only in how the limit itself is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AdmissionModel {
    /// The concurrency limit is pinned to the dispatch-queue capacity —
    /// the suite's original fixed-bound shedding, re-expressed through
    /// the priority gate so low classes still shed first as it fills.
    #[default]
    Fixed,
    /// An AIMD controller moves the limit between 1 and the queue
    /// capacity based on observed queue delay at dequeue: additive
    /// increase while delay stays under target, multiplicative decrease
    /// when queued work starts aging past it.
    Adaptive,
}

/// How many requests a worker drains per wakeup, and how long a partial
/// batch may wait for stragglers — the throughput-vs-latency knob the
/// DeathStarBench RPC studies identify as dominant at microservice
/// message sizes. `off()` (the default) is `max_size` 1: every batch is a
/// single request, served by [`Service::call`](crate::Service::call).
/// Any `max_size > 1` makes *batches* the unit of work: one park/unpark
/// per batch at the dispatch queue, one multi-request frame per merged
/// fan-out, and one [`Service::call_batch`](crate::Service::call_batch)
/// per batch of two or more (a leaf runs its batch kernel there only if it
/// has one).
///
/// Deadline and priority bookkeeping always stays per *member*: a batch
/// never outlives its tightest budget, and expired members are dropped
/// from the batch rather than the batch from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPolicy {
    max_size: usize,
    max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::off()
    }
}

impl BatchPolicy {
    /// Batching disabled: every batch has exactly one member and nothing
    /// ever waits for stragglers. This is semantically identical to the
    /// pre-batching request path.
    pub fn off() -> BatchPolicy {
        BatchPolicy { max_size: 1, max_delay: Duration::ZERO }
    }

    /// A policy that closes batches at `max_size` members or after
    /// `max_delay` of waiting, whichever comes first. A zero `max_delay`
    /// means "drain what is ready, never wait" — batches still form under
    /// backlog but empty queues flush immediately.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub fn new(max_size: usize, max_delay: Duration) -> BatchPolicy {
        assert!(max_size > 0, "batch size must be at least one");
        BatchPolicy { max_size, max_delay }
    }

    /// Maximum members per batch.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Longest a partial batch waits for stragglers before flushing.
    pub fn max_delay(&self) -> Duration {
        self.max_delay
    }

    /// Whether this policy actually batches (`max_size > 1`).
    pub fn is_on(&self) -> bool {
        self.max_size > 1
    }
}

/// Configuration for a [`crate::Server`].
///
/// Constructed with a non-consuming builder:
///
/// ```
/// use musuite_rpc::{ServerConfig, WaitMode, ExecutionModel};
///
/// let mut config = ServerConfig::default();
/// config
///     .workers(8)
///     .wait_mode(WaitMode::Block)
///     .execution_model(ExecutionModel::Dispatch);
/// assert_eq!(config.worker_count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerConfig {
    addr: String,
    workers: usize,
    wait_mode: WaitMode,
    execution_model: ExecutionModel,
    queue_capacity: usize,
    #[serde(default)]
    network: NetworkModel,
    #[serde(default = "default_sweep_budget")]
    sweep_budget: usize,
    #[serde(default)]
    idle_timeout: Option<Duration>,
    #[serde(default)]
    admission: AdmissionModel,
    #[serde(default)]
    batch: BatchPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: default_workers(),
            wait_mode: WaitMode::default(),
            execution_model: ExecutionModel::default(),
            queue_capacity: 4096,
            network: NetworkModel::default(),
            sweep_budget: default_sweep_budget(),
            idle_timeout: None,
            admission: AdmissionModel::default(),
            batch: BatchPolicy::default(),
        }
    }
}

fn default_sweep_budget() -> usize {
    32
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 16)
}

impl ServerConfig {
    /// Creates a configuration with suite defaults (ephemeral port,
    /// CPU-count workers, blocking dispatch).
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Sets the bind address (default `127.0.0.1:0`, an ephemeral port).
    pub fn bind_addr(&mut self, addr: impl Into<String>) -> &mut ServerConfig {
        self.addr = addr.into();
        self
    }

    /// Sets the worker thread-pool size.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn workers(&mut self, count: usize) -> &mut ServerConfig {
        assert!(count > 0, "worker pool must have at least one thread");
        self.workers = count;
        self
    }

    /// Sets how idle workers wait for new work.
    pub fn wait_mode(&mut self, mode: WaitMode) -> &mut ServerConfig {
        self.wait_mode = mode;
        self
    }

    /// Sets whether handlers run on workers or in-line on pollers.
    pub fn execution_model(&mut self, model: ExecutionModel) -> &mut ServerConfig {
        self.execution_model = model;
        self
    }

    /// Sets the dispatch-queue capacity (requests beyond it are rejected
    /// with `Status::Unavailable`, providing load shedding at saturation).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn queue_capacity(&mut self, capacity: usize) -> &mut ServerConfig {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// Sets the network wait model (default [`NetworkModel::BlockingPerConn`]).
    ///
    /// # Panics
    ///
    /// Panics if `SharedPollers` is configured with zero pollers.
    pub fn network_model(&mut self, model: NetworkModel) -> &mut ServerConfig {
        if let NetworkModel::SharedPollers { pollers } = model {
            assert!(pollers > 0, "shared poller pool must have at least one thread");
        }
        self.network = model;
        self
    }

    /// Sets the per-connection frame budget for one reactor sweep — the
    /// fairness bound: a chatty connection yields to its shard's peers
    /// after draining this many complete frames (default 32). Only
    /// meaningful under [`NetworkModel::SharedPollers`].
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn sweep_budget(&mut self, budget: usize) -> &mut ServerConfig {
        assert!(budget > 0, "sweep budget must be positive");
        self.sweep_budget = budget;
        self
    }

    /// Enables idle-connection reaping: connections with no traffic for
    /// `timeout` are dropped and counted in `ServerStats::idle_reaped`.
    /// Off by default.
    pub fn idle_timeout(&mut self, timeout: Duration) -> &mut ServerConfig {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Sets the admission model (default [`AdmissionModel::Fixed`]).
    pub fn admission_model(&mut self, model: AdmissionModel) -> &mut ServerConfig {
        self.admission = model;
        self
    }

    /// Sets the dispatch batching policy (default [`BatchPolicy::off`]).
    /// With batching on, workers drain up to `max_size` queued requests
    /// per wakeup and hand them to the service as one batch.
    pub fn batch_policy(&mut self, policy: BatchPolicy) -> &mut ServerConfig {
        self.batch = policy;
        self
    }

    /// Configured bind address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Configured wait mode.
    pub fn wait_mode_value(&self) -> WaitMode {
        self.wait_mode
    }

    /// Configured execution model.
    pub fn execution_model_value(&self) -> ExecutionModel {
        self.execution_model
    }

    /// Configured queue capacity.
    pub fn queue_capacity_value(&self) -> usize {
        self.queue_capacity
    }

    /// Configured network wait model.
    pub fn network_model_value(&self) -> NetworkModel {
        self.network
    }

    /// Configured per-sweep frame budget.
    pub fn sweep_budget_value(&self) -> usize {
        self.sweep_budget
    }

    /// Configured idle-connection timeout (`None` = reaping disabled).
    pub fn idle_timeout_value(&self) -> Option<Duration> {
        self.idle_timeout
    }

    /// Configured admission model.
    pub fn admission_model_value(&self) -> AdmissionModel {
        self.admission
    }

    /// Configured dispatch batching policy.
    pub fn batch_policy_value(&self) -> BatchPolicy {
        self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.worker_count() >= 2);
        assert_eq!(c.wait_mode_value(), WaitMode::Block);
        assert_eq!(c.execution_model_value(), ExecutionModel::Dispatch);
        assert_eq!(c.addr(), "127.0.0.1:0");
        assert!(c.queue_capacity_value() > 0);
        assert_eq!(c.admission_model_value(), AdmissionModel::Fixed);
    }

    #[test]
    fn admission_model_round_trips() {
        let mut c = ServerConfig::new();
        c.admission_model(AdmissionModel::Adaptive);
        assert_eq!(c.admission_model_value(), AdmissionModel::Adaptive);
    }

    #[test]
    fn builder_chains() {
        let mut c = ServerConfig::new();
        c.workers(3)
            .wait_mode(WaitMode::Poll)
            .execution_model(ExecutionModel::Inline)
            .queue_capacity(10)
            .bind_addr("127.0.0.1:9999");
        assert_eq!(c.worker_count(), 3);
        assert_eq!(c.wait_mode_value(), WaitMode::Poll);
        assert_eq!(c.execution_model_value(), ExecutionModel::Inline);
        assert_eq!(c.queue_capacity_value(), 10);
        assert_eq!(c.addr(), "127.0.0.1:9999");
    }

    #[test]
    fn network_model_round_trips() {
        let mut c = ServerConfig::new();
        assert_eq!(c.network_model_value(), NetworkModel::BlockingPerConn);
        assert_eq!(c.idle_timeout_value(), None);
        c.network_model(NetworkModel::SharedPollers { pollers: 3 })
            .sweep_budget(8)
            .idle_timeout(Duration::from_secs(5));
        assert_eq!(c.network_model_value(), NetworkModel::SharedPollers { pollers: 3 });
        assert_eq!(c.sweep_budget_value(), 8);
        assert_eq!(c.idle_timeout_value(), Some(Duration::from_secs(5)));
    }

    #[test]
    fn batch_policy_round_trips() {
        let mut c = ServerConfig::new();
        assert_eq!(c.batch_policy_value(), BatchPolicy::off());
        assert!(!c.batch_policy_value().is_on());
        let policy = BatchPolicy::new(8, Duration::from_micros(50));
        c.batch_policy(policy);
        assert_eq!(c.batch_policy_value(), policy);
        assert!(policy.is_on());
        assert_eq!(policy.max_size(), 8);
        assert_eq!(policy.max_delay(), Duration::from_micros(50));
    }

    #[test]
    #[should_panic(expected = "batch size must be at least one")]
    fn zero_batch_size_rejected() {
        BatchPolicy::new(0, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_workers_rejected() {
        ServerConfig::new().workers(0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_pollers_rejected() {
        ServerConfig::new().network_model(NetworkModel::SharedPollers { pollers: 0 });
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        ServerConfig::new().queue_capacity(0);
    }
}
