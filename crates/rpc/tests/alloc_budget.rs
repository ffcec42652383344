//! Allocator calls per operation on the RPC hop, steady state, as budgets:
//! a regression here is `sat_allocs_per_req` on every benchmark workload.
//! Own test binary, because the counter is the process's allocator.

// The one place the crate's no-unsafe rule bends: a counting global
// allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use bytes::Bytes;
use musuite_rpc::{
    BatchPolicy, CallOptions, FanoutGroup, Frame, LeafCall, NetworkModel, Reactor, ReactorConfig,
    RecvBuf, RequestContext, ResilientConfig, ResilientFanout, RpcClient, Server, ServerConfig,
    Service,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System`; the counter is a static relaxed
// atomic that never allocates, so the allocator cannot re-enter itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's; forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counter is process-wide: measured sections take turns.
static TURN: Mutex<()> = Mutex::new(());

const CALLS: u64 = 2_000;

/// Allocator calls per `op` over [`CALLS`] of them, after a warm-up that
/// sizes every reusable buffer. The test harness's own threads may add a
/// handful in total; budgets are compared with that much slack.
fn allocs_per_op(mut op: impl FnMut()) -> f64 {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for _ in 0..CALLS / 10 {
        op();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..CALLS {
        op();
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / CALLS as f64
}

const SLACK: f64 = 0.05;

struct Echo;

impl Service for Echo {
    fn call(&self, ctx: RequestContext) {
        let bytes = ctx.payload().clone();
        ctx.respond_ok(bytes);
    }
}

fn echo_server(network: NetworkModel) -> Server {
    let mut config = ServerConfig::default();
    config.network_model(network).workers(1);
    Server::spawn(config, Arc::new(Echo)).expect("spawn echo server")
}

/// A serial call is the caller's wake-up slot and nothing else: request and
/// response frames are slices of chunks their connections reuse.
fn assert_echo_budget(server: &Server, client: &RpcClient) {
    let payload = Bytes::from(vec![0xA5u8; 300]);
    let per_call = allocs_per_op(|| {
        assert_eq!(client.call(1, payload.clone()).expect("echo"), payload);
    });
    assert!(per_call <= 2.0 + SLACK, "{per_call} allocator calls per echo call, budget 2");
    assert_eq!(server.stats().shed_total() + server.stats().rejected(), 0);
}

#[test]
fn serial_echo_call_under_blocking_per_conn() {
    let server = echo_server(NetworkModel::BlockingPerConn);
    let client = RpcClient::connect(server.local_addr()).expect("connect");
    assert_echo_budget(&server, &client);
}

#[test]
fn serial_echo_call_under_shared_pollers() {
    let server = echo_server(NetworkModel::SharedPollers { pollers: 1 });
    let reactor =
        Arc::new(Reactor::start(ReactorConfig { pollers: 1, ..ReactorConfig::default() }));
    let client =
        RpcClient::connect_with(server.local_addr(), None, Some(&reactor)).expect("connect");
    assert_echo_budget(&server, &client);
}

/// A resilient scatter to two leaves and its gather. The budget, by owner:
/// the caller's `Vec<LeafCall>` (1); `scatter_wait`'s channel, its first
/// block and the blocked receiver's registration (3); the gather — one
/// `Arc` holding count, completion and the replies' header, plus the
/// replies themselves (2); per slot its control block and the boxed
/// in-flight callback (2 x 2). The leaves' side and every frame received
/// add nothing.
#[test]
fn two_leaf_resilient_scatter_wait() {
    let leaves =
        [echo_server(NetworkModel::BlockingPerConn), echo_server(NetworkModel::BlockingPerConn)];
    let addrs: Vec<_> = leaves.iter().map(Server::local_addr).collect();
    let group = Arc::new(FanoutGroup::connect(&addrs).expect("connect leaves"));
    let fanout = ResilientFanout::new(group, ResilientConfig::default());
    let payload = Bytes::from(vec![0x5Au8; 300]);
    let per_scatter = allocs_per_op(|| {
        let calls =
            vec![LeafCall::new(0, 1, payload.clone()), LeafCall::new(1, 1, payload.clone())];
        assert!(fanout.scatter_wait(calls, CallOptions::default()).all_ok());
    });
    assert!(per_scatter <= 10.0 + SLACK, "{per_scatter} allocator calls per scatter, budget 10");
}

const BURST: usize = 16;

/// Allocator calls per request of a [`BURST`] of echo requests sent in one
/// write to a one-worker server draining its queue under `batch`, each
/// burst answered in full before the next is sent.
fn echo_burst_allocs_per_request(batch: BatchPolicy) -> f64 {
    let mut config = ServerConfig::default();
    config.workers(1).batch_policy(batch);
    let server = Server::spawn(config, Arc::new(Echo)).expect("spawn echo server");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let wire: Vec<u8> = (0..BURST)
        .flat_map(|id| Frame::request(id as u64, 1, vec![0xA5u8; 300]).to_bytes())
        .collect();
    let mut buf = RecvBuf::default();
    let per_burst = allocs_per_op(|| {
        conn.write_all(&wire).expect("send burst");
        for _ in 0..BURST {
            buf.poll_frame(&mut &conn).expect("readable").expect("a reply");
        }
    });
    assert_eq!(server.stats().responses(), (CALLS + CALLS / 10) * BURST as u64);
    per_burst / BURST as f64
}

/// Each worker drains every batch into the one buffer it keeps, so a burst
/// costs the same allocator calls per request in batches of up to eight as
/// one request at a time.
#[test]
fn echo_burst_costs_the_same_batched_as_unbatched() {
    let unbatched = echo_burst_allocs_per_request(BatchPolicy::off());
    let batched = echo_burst_allocs_per_request(BatchPolicy::new(8, Duration::ZERO));
    assert!(
        (batched - unbatched).abs() <= SLACK,
        "{batched} allocator calls per request batched, {unbatched} unbatched"
    );
}
