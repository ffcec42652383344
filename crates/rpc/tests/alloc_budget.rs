//! Allocator calls per operation on the RPC hop, steady state, as budgets:
//! a regression here is `sat_allocs_per_req` on every benchmark workload.
//! Own test binary, because the counter is the process's allocator.

// The one place the crate's no-unsafe rule bends: a counting global
// allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use bytes::Bytes;
use musuite_rpc::{
    BatchPolicy, FanoutGroup, Frame, HedgePolicy, NetworkModel, Reactor, ReactorConfig, RecvBuf,
    RequestContext, ResilientConfig, RpcClient, Server, ServerConfig, Service,
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

/// Allocator calls per `scatter_wait` of 300-byte payloads to `width`
/// echo leaves through a group under `policy`.
fn scatter_wait_allocs(width: usize, policy: ResilientConfig) -> f64 {
    let leaves: Vec<Server> =
        (0..width).map(|_| echo_server(NetworkModel::BlockingPerConn)).collect();
    let addrs: Vec<_> = leaves.iter().map(Server::local_addr).collect();
    let group = FanoutGroup::connect(&addrs).expect("connect leaves").with_resilience(policy);
    let payload = Bytes::from(vec![0x5Au8; 300]);
    allocs_per_op(|| {
        let requests = (0..width).map(|leaf| (leaf, 1, payload.clone())).collect();
        assert!(group.scatter_wait(requests).all_ok());
    })
}

/// What a two-leaf scatter may cost, by owner: the caller's request `Vec`,
/// which the scatter keeps as its plan (1); `scatter_wait`'s channel, its
/// first block and the blocked receiver's registration (3); the scatter's
/// state — one `Arc` holding count, completion, plan, the slots and the
/// replies, which the last arrival moves out to the completion (1). An
/// attempt's in-flight entry names the scatter's slot and boxes nothing;
/// the leaves' side and every frame received add nothing. (It was 6 while
/// the replies were a list of their own.)
const TWO_LEAF_SCATTER: f64 = 5.0;

/// A scatter to two leaves under the default resilience policy (the one
/// `Cluster::launch` gives its group) and its gather.
#[test]
fn two_leaf_resilient_scatter_wait() {
    let per_scatter = scatter_wait_allocs(2, ResilientConfig::default());
    assert!(
        per_scatter <= TWO_LEAF_SCATTER + SLACK,
        "{per_scatter} allocator calls per scatter, budget {TWO_LEAF_SCATTER}"
    );
}

/// The same scatter with a hedge fired for every slot at once: a queued
/// hedge's timer entry and its attempt's in-flight entry name the slot
/// too, so hedging costs no allocator call.
#[test]
fn two_leaf_hedged_scatter_wait() {
    let hedged =
        ResilientConfig { hedge: HedgePolicy::After(Duration::ZERO), ..Default::default() };
    let per_scatter = scatter_wait_allocs(2, hedged);
    assert!(
        per_scatter <= TWO_LEAF_SCATTER + SLACK,
        "{per_scatter} allocator calls per hedged scatter, budget {TWO_LEAF_SCATTER}"
    );
}

/// A scatter wider than the slots its state holds boxes its slot array
/// and its replies: two allocator calls more than a two-leaf scatter, 7 in
/// all, as when only the slots were boxed and the replies were always a
/// list of their own. (A reply that is in before `scatter_wait` blocks
/// spares the receiver's registration, so a run may read a little under
/// the budget, never a whole call.)
#[test]
fn a_wide_scatter_boxes_its_slots() {
    let budget = TWO_LEAF_SCATTER + 2.0;
    let per_scatter = scatter_wait_allocs(3, ResilientConfig::default());
    assert!(
        per_scatter <= budget + SLACK && per_scatter > budget - 1.0 + SLACK,
        "{per_scatter} allocator calls per three-leaf scatter, budget {budget}"
    );
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
