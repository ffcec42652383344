//! Allocator calls per typed call, steady state: a `TypedClient` call costs
//! what a raw call of the same request, encoded beforehand, costs, because
//! the typed request is encoded straight into the connection's pending
//! buffer. Own test binary, because the counter is the process's allocator.

// The one place the crate's no-unsafe rule bends: a counting global
// allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use bytes::Bytes;
use musuite_codec::{from_payload, to_bytes};
use musuite_core::cluster::TypedClient;
use musuite_rpc::{CallOptions, RequestContext, RpcClient, Server, ServerConfig, Service};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// Both arms make the same call and decode the same reply; the raw arm's
/// request is encoded before the count starts. The typed arm encodes its
/// request in place, so it costs nothing more.
#[test]
fn a_typed_call_allocates_what_a_raw_call_of_its_encoded_request_does() {
    let mut config = ServerConfig::default();
    config.workers(1);
    let server = Server::spawn(config, Arc::new(Echo)).expect("spawn echo server");
    let client = RpcClient::connect(server.local_addr()).expect("connect");
    let typed = TypedClient::<Vec<u32>, Vec<u32>>::new(client, 1);
    let request: Vec<u32> = (0..64).collect();
    let opts = CallOptions::default();
    let typed_per_call = allocs_per_op(|| {
        assert_eq!(typed.call_typed(&request, opts).expect("typed echo"), request);
    });
    let encoded = Bytes::from(to_bytes(&request));
    let raw_per_call = allocs_per_op(|| {
        let reply = typed.raw().call_opts(1, encoded.clone(), opts).expect("raw echo");
        assert_eq!(from_payload::<Vec<u32>>(reply).expect("decode"), request);
    });
    assert!(
        (typed_per_call - raw_per_call).abs() <= SLACK,
        "a typed call makes {typed_per_call} allocator calls, a raw call of its encoded \
         request {raw_per_call}"
    );
}
