//! Allocator calls per request on Set Algebra's mid-tier merge, steady
//! state, as budgets: the union of the leaves' posting lists allocates only
//! the list it hands back. A regression here is `sat_allocs_per_req` on
//! the `setalgebra_terms` benchmark workload. Own test binary, because the
//! counter is the process's allocator.

// The one place the crate's no-unsafe rule bends: a counting global
// allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use musuite_codec::{from_bytes, to_bytes, Seq};
use musuite_core::midtier::MidTierHandler;
use musuite_rpc::RpcError;
use musuite_setalgebra::protocol::{PostingList, TermQuery};
use musuite_setalgebra::SetAlgebraMidTier;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The test harness's own threads may add a handful of allocator calls in
/// total; budgets are compared with that much slack.
const SLACK: f64 = 0.05;

const QUERIES: usize = 64;
const CALLS: usize = 1_024;

/// A leaf's reply as the mid-tier reads it: its documents a view of the
/// frame.
type ReplyView = Result<PostingList<Seq<u32>>, RpcError>;

/// Allocator calls per `merge` of `width` replies, reply `leaf` to query
/// `q` holding `docs(q, leaf)`, after a warm-up pass that sizes the
/// per-thread scratch. The replies are decoded before the count starts, so
/// what the scatter hands in is not charged to the merge.
fn allocs_per_merge(width: usize, docs: impl Fn(usize, usize) -> Vec<u32>) -> f64 {
    let mid = SetAlgebraMidTier::new();
    let frames: Vec<Vec<Vec<u8>>> = (0..QUERIES)
        .map(|q| (0..width).map(|leaf| to_bytes(&PostingList { docs: docs(q, leaf) })).collect())
        .collect();
    let calls = |count: usize| -> Vec<Vec<ReplyView>> {
        (0..count)
            .map(|i| frames[i % QUERIES].iter().map(|f| Ok(from_bytes(f).unwrap())).collect())
            .collect()
    };
    let merge = |replies: Vec<ReplyView>| {
        black_box(mid.merge(TermQuery::default(), replies).expect("every shard answered"));
    };
    calls(QUERIES).into_iter().for_each(merge);
    let inputs = calls(CALLS);
    let before = ALLOCS.load(Ordering::Relaxed);
    inputs.into_iter().for_each(merge);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / CALLS as f64
}

/// The union of round-robin shards' posting lists is the merge's one
/// allocation, at two leaves (the benchmark's width) as at sixteen (the
/// paper's), and an empty union allocates nothing. Before the merge folded
/// its lists through scratch, an empty union cost 2 allocator calls (the
/// lists and their cursors), a union of two replies 4 (the heap and the
/// union besides) and one of sixteen 6 (the heap grows twice more).
#[test]
fn merge_allocates_only_its_union() {
    for width in [2, 16] {
        // Shard `leaf` holds the documents `leaf`, `leaf + width`, …
        let round_robin =
            |q: usize, leaf: usize| (0..20 + q % 7).map(|i| (i * width + leaf) as u32).collect();
        let per_merge = allocs_per_merge(width, round_robin);
        assert!(
            (per_merge - 1.0).abs() <= SLACK,
            "{per_merge} allocator calls per merge of {width} replies, budget 1"
        );
        let per_empty = allocs_per_merge(width, |_, _| Vec::new());
        assert!(
            per_empty <= SLACK,
            "{per_empty} allocator calls per empty union of {width} replies, budget 0"
        );
    }
}
