//! End-to-end overload-control tests: wire-level deadline propagation
//! across a real three-tier pipeline (front-end client → mid-tier relay →
//! leaf server over TCP).
//!
//! The contract under test: each hop forwards only the budget *remaining*
//! at departure, so the observed budget strictly decreases front-end →
//! mid-tier → leaf, and a request whose budget ran out while queued is
//! dropped at dequeue without ever occupying a worker.

use musuite::rpc::{
    CallOptions, FanoutGroup, Priority, RequestContext, RpcClient, RpcError, Server, ServerConfig,
    Service, Status,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Leaf service that records the deadline budget and priority it observed
/// for every request it actually *executed*, then echoes the payload.
/// Requests dropped by overload control never appear in `executed`.
struct BudgetProbeLeaf {
    observed_budget: Arc<Mutex<Vec<u32>>>,
    observed_priority: Arc<Mutex<Vec<Priority>>>,
    executed: Arc<Mutex<Vec<Vec<u8>>>>,
    slow_payload_delay: Duration,
}

impl Service for BudgetProbeLeaf {
    fn call(&self, ctx: RequestContext) {
        self.observed_budget.lock().unwrap().push(ctx.remaining_budget());
        self.observed_priority.lock().unwrap().push(ctx.priority());
        let payload = ctx.payload().to_vec();
        self.executed.lock().unwrap().push(payload.clone());
        if payload == b"slow" {
            std::thread::sleep(self.slow_payload_delay);
        }
        ctx.respond_ok(payload);
    }
}

/// Mid-tier relay: records its own observed budget, optionally burns some
/// of it (emulating mid-tier compute), then forwards the request to the
/// leaf with whatever budget *remains* — the hop under test.
struct RelayMid {
    leaves: Arc<FanoutGroup>,
    observed_budget: Arc<Mutex<Vec<u32>>>,
    compute: Duration,
}

impl Service for RelayMid {
    fn call(&self, ctx: RequestContext) {
        self.observed_budget.lock().unwrap().push(ctx.remaining_budget());
        if !self.compute.is_zero() {
            std::thread::sleep(self.compute);
        }
        let opts = CallOptions {
            timeout: match ctx.remaining_budget() {
                0 => None,
                budget_us => Some(Duration::from_micros(u64::from(budget_us))),
            },
            priority: ctx.priority(),
        };
        let payload = ctx.payload().to_vec();
        self.leaves.scatter_encoded(vec![(0usize, 1u32, payload)], opts, move |result| {
            match result.replies.into_iter().next().expect("one scattered slot") {
                Ok(bytes) => ctx.respond_ok(bytes),
                // A timed-out or expired leaf call is a deadline failure as
                // far as the front-end is concerned; anything else is plain
                // unavailability.
                Err(
                    e @ (RpcError::TimedOut
                    | RpcError::Remote { status: Status::DeadlineExpired, .. }),
                ) => ctx.respond_err(Status::DeadlineExpired, e.to_string()),
                Err(e) => ctx.respond_err(Status::Unavailable, e.to_string()),
            }
        });
    }
}

// Field order is load-bearing: Rust drops fields in declaration order, and
// the safe teardown order is front-to-back (client, then mid-tier, then
// leaf) so in-flight leaf calls fail fast instead of stalling against a
// half-dead leaf — same contract as `Cluster` documents.
struct Tiers {
    client: RpcClient,
    _mid: Server,
    leaf: Server,
    leaf_budget: Arc<Mutex<Vec<u32>>>,
    leaf_priority: Arc<Mutex<Vec<Priority>>>,
    leaf_executed: Arc<Mutex<Vec<Vec<u8>>>>,
    mid_budget: Arc<Mutex<Vec<u32>>>,
}

fn launch_tiers(leaf_config: ServerConfig, mid_compute: Duration, slow_delay: Duration) -> Tiers {
    let leaf_budget = Arc::new(Mutex::new(Vec::new()));
    let leaf_priority = Arc::new(Mutex::new(Vec::new()));
    let leaf_executed = Arc::new(Mutex::new(Vec::new()));
    let leaf = Server::spawn(
        leaf_config,
        Arc::new(BudgetProbeLeaf {
            observed_budget: leaf_budget.clone(),
            observed_priority: leaf_priority.clone(),
            executed: leaf_executed.clone(),
            slow_payload_delay: slow_delay,
        }),
    )
    .unwrap();
    let group = Arc::new(FanoutGroup::connect(&[leaf.local_addr()]).unwrap());
    let mid_budget = Arc::new(Mutex::new(Vec::new()));
    let mid = Server::spawn(
        ServerConfig::default(),
        Arc::new(RelayMid {
            leaves: group,
            observed_budget: mid_budget.clone(),
            compute: mid_compute,
        }),
    )
    .unwrap();
    let client = RpcClient::connect(mid.local_addr()).unwrap();
    Tiers { leaf, _mid: mid, client, leaf_budget, leaf_priority, leaf_executed, mid_budget }
}

#[test]
fn deadline_budget_decays_at_every_hop() {
    let tiers =
        launch_tiers(ServerConfig::default(), Duration::from_millis(3), Duration::from_millis(60));
    const FRONT_END_TIMEOUT_US: u32 = 500_000;
    let reply = tiers
        .client
        .call_opts(
            1,
            b"q".to_vec(),
            CallOptions {
                priority: Priority::Critical,
                ..CallOptions::within(Duration::from_micros(u64::from(FRONT_END_TIMEOUT_US)))
            },
        )
        .unwrap();
    assert_eq!(reply, b"q".to_vec());

    let mid_budget = tiers.mid_budget.lock().unwrap()[0];
    let leaf_budget = tiers.leaf_budget.lock().unwrap()[0];
    // Strict decay: front-end timeout > mid-tier observed > leaf observed,
    // and nothing is ever zero for an in-deadline request.
    assert!(
        mid_budget > 0 && mid_budget <= FRONT_END_TIMEOUT_US,
        "mid-tier budget {mid_budget}µs must be within the front-end timeout"
    );
    assert!(leaf_budget > 0, "leaf saw an already-expired budget");
    assert!(
        leaf_budget < mid_budget,
        "budget must shrink across the mid-tier hop: leaf {leaf_budget}µs vs mid {mid_budget}µs"
    );
    // The mid-tier burned ~3 ms of budget before forwarding; the leaf must
    // have been charged for it (allowing scheduling jitter).
    assert!(
        mid_budget - leaf_budget >= 2_000,
        "mid-tier compute must come out of the leaf's budget: decayed {}µs",
        mid_budget - leaf_budget
    );
    // Priority rides the same hops.
    assert_eq!(tiers.leaf_priority.lock().unwrap()[0], Priority::Critical);
}

#[test]
fn requests_without_deadline_stay_unbounded_at_every_hop() {
    let tiers = launch_tiers(ServerConfig::default(), Duration::ZERO, Duration::from_millis(60));
    let reply = tiers.client.call(1, b"plain".to_vec()).unwrap();
    assert_eq!(reply, b"plain".to_vec());
    // 0 is the wire encoding for "no deadline"; it must survive both hops
    // rather than being mistaken for an expired budget.
    assert_eq!(tiers.mid_budget.lock().unwrap()[0], 0);
    assert_eq!(tiers.leaf_budget.lock().unwrap()[0], 0);
    assert_eq!(tiers.leaf_priority.lock().unwrap()[0], Priority::Normal);
}

#[test]
fn pre_expired_request_is_never_executed_at_the_leaf() {
    let mut leaf_config = ServerConfig::default();
    leaf_config.workers(1);
    let tiers = launch_tiers(leaf_config, Duration::ZERO, Duration::from_millis(60));

    // Occupy the leaf's only worker with a deadline-less slow request.
    let (tx, rx) = std::sync::mpsc::channel();
    tiers.client.call_async(1, b"slow".to_vec(), move |result| {
        let _ = tx.send(result.is_ok());
    });
    std::thread::sleep(Duration::from_millis(15));

    // This request's 10 ms budget expires while it queues at the leaf
    // behind the slow one: it must fail, and the leaf must never run it.
    let err = tiers
        .client
        .call_opts(1, b"doomed".to_vec(), CallOptions::within(Duration::from_millis(10)))
        .unwrap_err();
    assert!(
        matches!(
            err,
            RpcError::TimedOut | RpcError::Remote { status: Status::DeadlineExpired, .. }
        ),
        "expected timeout/expiry, got {err:?}"
    );

    assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "the slow request completes");
    // Give the leaf worker a moment to sweep the expired entry at dequeue.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tiers.leaf.stats().deadline_expired() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        tiers.leaf.stats().deadline_expired(),
        1,
        "the leaf must account the expired request"
    );
    let executed = tiers.leaf_executed.lock().unwrap().clone();
    assert_eq!(executed, vec![b"slow".to_vec()], "the expired request must never reach a worker");
}
