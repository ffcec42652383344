//! The per-layer cost ledger's `rpc.*` rows: each layer's public functions
//! timed from outside, single-threaded, with the workload's own request
//! sizes and the workload's server configuration. The `codec.*`, `leaf.*`
//! and `midtier.*` rows come from [`crate::reference`] and the replay.

use crate::alloc;
use crate::reference::block_median_ns;
use crate::stats::median_u64;
use crate::workload::Stack;
use bytes::Bytes;
use musuite_codec::Priority;
use musuite_rpc::{
    AdmissionControl, AdmissionModel, BatchPolicy, DispatchQueue, FanoutGroup, NetworkModel,
    Reactor, ReactorConfig, RequestContext, RpcClient, RpcError, Server, ServerConfig, Service,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

struct Echo;

impl Service for Echo {
    fn call(&self, ctx: RequestContext) {
        let bytes = ctx.payload().clone();
        ctx.respond_ok(bytes);
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct RpcLedger {
    pub queue_hop_ns: f64,
    pub queue_pop_batch8_ns: f64,
    pub admit_ns: f64,
    pub echo_rtt_ns: f64,
    pub echo_allocs: f64,
    pub fanout_scatter_ns: f64,
    pub fanout_scatter_batch8_ns: f64,
}

fn rpc_err(what: &str, e: RpcError) -> String {
    format!("{what}: {e}")
}

/// `iterations` is the number of timed operations per row (≥ 2 000 in a
/// full run). `request` and `leaf_request` are typical payloads of the
/// workload's front-end and leaf hops.
pub fn measure(
    stack: Stack,
    request: &Bytes,
    leaf_request: &Bytes,
    iterations: usize,
) -> Result<RpcLedger, String> {
    let config = stack.server_config();
    Ok(RpcLedger {
        queue_hop_ns: queue_hop_ns(&config, iterations, 1),
        queue_pop_batch8_ns: queue_hop_ns(&config, iterations / 4, 8),
        admit_ns: block_median_ns(iterations / 8, 64, {
            let gate = AdmissionControl::new(AdmissionModel::Fixed, config.queue_capacity_value());
            move |_| drop(black_box(gate.try_admit(Priority::Normal)))
        }),
        ..echo_and_fanout(&config, request, leaf_request, iterations)?
    })
}

/// Push → pop across two threads through a `DispatchQueue` in the
/// workload's wait mode. With `members > 1` the producer pushes a burst
/// and the consumer takes it with one `pop_batch`; the figure is per member.
fn queue_hop_ns(config: &ServerConfig, iterations: usize, members: usize) -> f64 {
    let queue: Arc<DispatchQueue<Instant>> =
        Arc::new(DispatchQueue::new(config.queue_capacity_value(), config.wait_mode_value()));
    let window = BatchPolicy::new(8, Duration::from_micros(50)).max_delay();
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    let consumer = {
        let queue = queue.clone();
        std::thread::spawn(move || loop {
            let pushed = if members == 1 {
                queue.pop()
            } else {
                queue.pop_batch(members, window).map(|(batch, _)| batch[0])
            };
            let Some(pushed) = pushed else { return };
            if done_tx.send(pushed.elapsed().as_nanos() as u64).is_err() {
                return;
            }
        })
    };
    let mut samples = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let first = Instant::now();
        for _ in 0..members {
            queue.push(first);
        }
        // Waiting for the hand-off before the next push makes every hop
        // find the consumer parked (or spinning), as an idle worker is.
        let Ok(ns) = done_rx.recv() else { break };
        samples.push(ns / members as u64);
    }
    queue.close();
    let _ = consumer.join();
    median_u64(&samples).unwrap_or(0.0)
}

fn echo_and_fanout(
    config: &ServerConfig,
    request: &Bytes,
    leaf_request: &Bytes,
    iterations: usize,
) -> Result<RpcLedger, String> {
    let spawn = || Server::spawn(config.clone(), Arc::new(Echo)).map_err(|e| rpc_err("echo", e));
    let mut ledger = RpcLedger::default();

    // Serial blocking calls to a 1-worker echo server: one full hop.
    let server = spawn()?;
    let client = RpcClient::connect(server.local_addr()).map_err(|e| rpc_err("connect", e))?;
    let call = |payload: &Bytes| client.call(1, payload.clone()).map_err(|e| rpc_err("echo", e));
    for _ in 0..iterations / 10 {
        call(request)?;
    }
    let allocs_before = alloc::allocations();
    let mut samples = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        black_box(call(request)?);
        samples.push(start.elapsed().as_nanos() as u64);
    }
    // Other threads of the process are idle here, so the count is the
    // echo path's (plus one `Vec` push per iteration, amortised away).
    ledger.echo_allocs = (alloc::allocations() - allocs_before) as f64 / iterations as f64;
    ledger.echo_rtt_ns = median_u64(&samples).unwrap_or(0.0);
    drop(client);
    server.shutdown();

    // Scatter to two echo leaves and gather, as the mid-tier does.
    let leaves = [spawn()?, spawn()?];
    let addrs: Vec<_> = leaves.iter().map(Server::local_addr).collect();
    let connect = || -> Result<FanoutGroup, String> {
        match config.network_model_value() {
            NetworkModel::BlockingPerConn => FanoutGroup::connect(&addrs),
            NetworkModel::SharedPollers { pollers } => {
                let reactor = Arc::new(Reactor::start(ReactorConfig {
                    pollers,
                    wait_mode: config.wait_mode_value(),
                    sweep_budget: config.sweep_budget_value(),
                    idle_timeout: config.idle_timeout_value(),
                }));
                FanoutGroup::connect_with_plan_via(&addrs, 1, None, Some(&reactor))
            }
        }
        .map_err(|e| rpc_err("fan-out connect", e))
    };
    let both = || vec![(0usize, 2u32, leaf_request.clone()), (1, 2, leaf_request.clone())];

    let group = connect()?;
    let mut samples = Vec::with_capacity(iterations);
    for i in 0..iterations + iterations / 10 {
        let start = Instant::now();
        let result = group.scatter_wait(both());
        if !result.all_ok() {
            return Err("fan-out echo failed".to_string());
        }
        if i >= iterations / 10 {
            samples.push(start.elapsed().as_nanos() as u64);
        }
    }
    ledger.fanout_scatter_ns = median_u64(&samples).unwrap_or(0.0);
    drop(group);

    // Eight concurrent scatters through a merging group: sub-calls to the
    // same leaf leave as one envelope. Per scatter.
    let group = connect()?.with_batching(BatchPolicy::new(8, Duration::from_micros(50)));
    let rounds = iterations / 8;
    let mut samples = Vec::with_capacity(rounds);
    for i in 0..rounds + rounds / 10 {
        let (tx, rx) = mpsc::channel();
        let failures = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        for _ in 0..8 {
            let (tx, failures) = (tx.clone(), failures.clone());
            group.scatter(both(), move |result| {
                if !result.all_ok() {
                    failures.fetch_add(1, Ordering::Relaxed);
                }
                let _ = tx.send(());
            });
        }
        for _ in 0..8 {
            rx.recv_timeout(Duration::from_secs(5))
                .map_err(|_| "merged fan-out echo timed out".to_string())?;
        }
        if failures.load(Ordering::Relaxed) > 0 {
            return Err("merged fan-out echo failed".to_string());
        }
        if i >= rounds / 10 {
            samples.push(start.elapsed().as_nanos() as u64 / 8);
        }
    }
    ledger.fanout_scatter_batch8_ns = median_u64(&samples).unwrap_or(0.0);
    drop(group);
    for leaf in &leaves {
        leaf.shutdown();
    }
    Ok(ledger)
}
