//! Allocator calls per request on Router's mid-tier, steady state, as
//! budgets: `plan` and `merge` allocate nothing. A get's one target and a
//! set's write set are held in the plan itself, and the merge reads the
//! replies where the scatter gathered them and passes a get's value
//! through. A regression here is `sat_allocs_per_req` on the `router_kv`
//! benchmark workload. Own test binary, because the counter is the
//! process's allocator.

// The one place the crate's no-unsafe rule bends: a counting global
// allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use musuite_codec::{from_bytes, to_bytes, Bytes, Text};
use musuite_core::midtier::MidTierHandler;
use musuite_router::{KvRequest, KvResponse, RouterMidTier};
use musuite_rpc::{InlineList, RpcError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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

/// The counter is process-wide: tests take turns, set-up included.
static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The test harness's own threads may add a handful of allocator calls in
/// total; budgets are compared with that much slack.
const SLACK: f64 = 0.05;

/// Replicas per key, as the benchmark places them: a set goes to two
/// leaves.
const REPLICAS: usize = 2;
const LEAVES: usize = 4;
const CALLS: usize = 1_024;

/// A request as the mid-tier reads it: key and value are views of a frame.
type KvView = KvRequest<Text, Bytes>;
/// A replica's reply as the scatter gathers it.
type Reply = Result<KvResponse<Bytes>, RpcError>;

/// Allocator calls per `op` over `inputs`, after a warm-up pass over
/// `warm_up`. Inputs are built before the count starts, so what a caller
/// hands in is not charged to `op`.
fn allocs_per_call<T>(warm_up: Vec<T>, inputs: Vec<T>, mut op: impl FnMut(T)) -> f64 {
    warm_up.into_iter().for_each(&mut op);
    let calls = inputs.len();
    let before = ALLOCS.load(Ordering::Relaxed);
    inputs.into_iter().for_each(&mut op);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / calls as f64
}

/// `count` requests as the mid-tier reads them off the wire: gets of keys
/// `key0`, `key1`, … when `get`, else sets of 128-byte values.
fn requests(count: usize, get: bool) -> Vec<KvView> {
    (0..count)
        .map(|i| {
            let key = format!("key{}", i % 64);
            let owned: KvRequest = match get {
                true => KvRequest::Get { key },
                false => KvRequest::Set { key, value: vec![i as u8; 128] },
            };
            from_bytes(&to_bytes(&owned)).expect("a request decodes as a view")
        })
        .collect()
}

fn assert_no_allocs(what: &str, per_call: f64) {
    assert!(per_call <= SLACK, "{per_call} allocator calls per {what}, budget 0");
}

/// A get's plan holds its one replica, and a set's its write set of two,
/// in place: no list of its own.
#[test]
fn plan_allocates_nothing() {
    let _turn = take_turn();
    let router = RouterMidTier::new(REPLICAS);
    for get in [true, false] {
        let per_plan = allocs_per_call(requests(64, get), requests(CALLS, get), |request| {
            let plan = router.plan(&request, LEAVES);
            assert_eq!(plan.len(), if get { 1 } else { REPLICAS });
            black_box(plan);
        });
        assert_no_allocs(if get { "get plan" } else { "set plan" }, per_plan);
    }
}

/// The merge reads the replies in place: a set counts its replicas'
/// acknowledgements, and a get hands its replica's value on uncopied.
#[test]
fn merge_allocates_nothing() {
    let _turn = take_turn();
    let router = RouterMidTier::new(REPLICAS);
    let value = Bytes::from(vec![7u8; 128]);
    let calls = |count: usize, get: bool| -> Vec<(KvView, InlineList<Reply>)> {
        let replies = || -> InlineList<Reply> {
            match get {
                true => [Ok(KvResponse::Value(Some(value.clone())))].into_iter().collect(),
                false => (0..REPLICAS).map(|_| Ok(KvResponse::Stored)).collect(),
            }
        };
        requests(count, get).into_iter().map(|request| (request, replies())).collect()
    };
    for get in [true, false] {
        let per_merge = allocs_per_call(calls(64, get), calls(CALLS, get), |(request, replies)| {
            black_box(router.merge(request, replies).expect("every replica answered"));
        });
        assert_no_allocs(if get { "get merge" } else { "set merge" }, per_merge);
    }
}
