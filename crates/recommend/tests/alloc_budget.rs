//! Allocator calls per batch on Recommend's batched leaf, steady state: a
//! batch's allocations are a fixed count that does not grow with the shard
//! it searches. A regression here is `sat_allocs_per_req` and
//! `sat_alloc_bytes_per_req` on the `recommend_batched` benchmark workload.
//! Own test binary, because the counter is the process's allocator.

// The one place the crate's no-unsafe rule bends: a counting global
// allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use musuite_core::leaf::LeafHandler;
use musuite_data::ratings::{RatingsConfig, RatingsDataset};
use musuite_recommend::protocol::RatingQuery;
use musuite_recommend::{CsrMatrix, Nmf, NmfConfig, RecommendLeaf};
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

/// The counter is process-wide, and building a corpus allocates plenty:
/// tests take turns, set-up included.
static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The test harness's own threads may add a handful of allocator calls in
/// total; budgets are compared with that much slack.
const SLACK: f64 = 0.05;

const BATCH: usize = 8;
const BATCHES: usize = 256;
const NEIGHBORHOOD: usize = 20;

/// Allocator calls per `handle_batch` of [`BATCH`] on a leaf whose shard
/// holds the first `shard_users` users, after a warm-up that sizes the
/// per-thread scratch. The batches are built before the count starts.
fn allocs_per_batch(model: &Nmf, queries: &[(u32, u32)], shard_users: usize) -> f64 {
    let leaf = RecommendLeaf::new(model.clone(), (0..shard_users).collect(), NEIGHBORHOOD);
    let batches = |count: usize| -> Vec<Vec<RatingQuery>> {
        (0..count)
            .map(|batch| {
                (0..BATCH)
                    .map(|member| queries[(batch * BATCH + member) % queries.len()])
                    .map(|(user, item)| RatingQuery { user, item })
                    .collect()
            })
            .collect()
    };
    let (warm_up, measured) = (batches(BATCHES / 8), batches(BATCHES));
    for batch in warm_up {
        black_box(LeafHandler::handle_batch(&leaf, batch));
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for batch in measured {
        black_box(LeafHandler::handle_batch(&leaf, batch));
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / BATCHES as f64
}

/// Allocator calls per `handle_batch` of [`BATCH`] valid queries: the
/// results, which the votes fill in place (1). Queries are validated and
/// grouped by user in per-thread scratch, the sweep reads the distinct
/// users from the groups, every neighbourhood is scored and cut to its `k`
/// best in place, and each query votes over its region there. (It was 27
/// when every neighbourhood and every vote was a list of its own, and the
/// users were grouped in a map; 2 while the sweep took a list of the
/// distinct users.)
const PER_BATCH: f64 = 1.0;

/// Every neighbourhood is scored in per-thread scratch and cut to its
/// `k` best in place, so a 2 000-user shard costs the allocator what a
/// 500-user one does: [`PER_BATCH`] at both.
#[test]
fn batched_leaf_allocations_do_not_grow_with_the_shard() {
    let _turn = take_turn();
    let data = RatingsDataset::generate(&RatingsConfig {
        users: 2_000,
        items: 100,
        rank: 4,
        observations: 20_000,
        noise: 0.1,
        seed: 5,
    });
    let matrix = CsrMatrix::from_ratings(data.users(), data.items(), data.ratings());
    let model = Nmf::train(&matrix, &NmfConfig { rank: 8, iterations: 5, seed: 1 });
    let queries = data.sample_queries(BATCH * 16);
    let small = allocs_per_batch(&model, &queries, 500);
    let large = allocs_per_batch(&model, &queries, 2_000);
    assert!(
        (small - large).abs() <= SLACK,
        "{small} allocator calls per batch at 500 shard users, {large} at 2 000"
    );
    assert!(
        (small - PER_BATCH).abs() <= SLACK,
        "{small} allocator calls per batch, not {PER_BATCH}"
    );
}
