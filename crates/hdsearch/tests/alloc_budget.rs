//! Allocator calls per request on HDSearch's kernels, steady state, as
//! budgets: the mid-tier's LSH `plan` and k-NN `merge`, and the leaf's
//! `handle`. A
//! regression here is `sat_allocs_per_req` on the `hdsearch_knn` benchmark
//! workload. Own test binary, because the counter is the process's
//! allocator.

// The one place the crate's no-unsafe rule bends: a counting global
// allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use musuite_codec::{from_bytes, to_bytes, Bytes, Seq};
use musuite_core::leaf::LeafHandler;
use musuite_core::midtier::MidTierHandler;
use musuite_core::shard::RoundRobinMap;
use musuite_data::vectors::{VectorDataset, VectorDatasetConfig};
use musuite_hdsearch::protocol::{LeafSearchRequest, LeafSearchResponse, Neighbor, SearchQuery};
use musuite_hdsearch::{HdSearchLeaf, HdSearchMidTier, LshConfig};
use musuite_rpc::{RpcError, INLINE_SLOTS};
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

const LEAVES: usize = 4;
const QUERIES: usize = 64;
const CALLS: usize = 1_024;

/// Allocator calls per `op` over `inputs`, after a warm-up pass over
/// `warm_up` that sizes every per-thread scratch. Inputs are built before
/// the count starts, so what a caller hands in is not charged to `op`.
fn allocs_per_call<T>(warm_up: Vec<T>, inputs: Vec<T>, mut op: impl FnMut(T)) -> f64 {
    warm_up.into_iter().for_each(&mut op);
    let calls = inputs.len();
    let before = ALLOCS.load(Ordering::Relaxed);
    inputs.into_iter().for_each(&mut op);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / calls as f64
}

fn corpus() -> VectorDataset {
    VectorDataset::generate(&VectorDatasetConfig {
        points: 8_000,
        dim: 32,
        clusters: 40,
        spread: 0.05,
        seed: 7,
    })
}

fn midtier(corpus: &VectorDataset, leaves: usize) -> HdSearchMidTier {
    HdSearchMidTier::build(
        corpus.dim(),
        LshConfig::default(),
        corpus.vectors(),
        RoundRobinMap::new(leaves),
    )
}

/// Queries as the mid-tier reads them: each vector a view of its frame.
fn queries(corpus: &VectorDataset) -> Vec<SearchQuery<Seq<f32>>> {
    corpus
        .sample_queries(QUERIES, 0.02)
        .into_iter()
        .map(|vector| from_bytes(&to_bytes(&SearchQuery { vector, k: 10 })).unwrap())
        .collect()
}

/// `plan` owns, per call: one exactly-sized candidate list per targeted
/// leaf, and the target list of a plan with more targets than it holds in
/// place ([`INLINE_SLOTS`]), boxed once at its size. The query vector is
/// shared by reference count, and the LSH lookup and the per-leaf counts
/// run in per-thread scratch. At 16 leaves some plans target more than
/// twice as many leaves as are held in place, where a list grown by
/// pushing would reallocate.
#[test]
fn plan_allocates_one_list_per_targeted_leaf_plus_one() {
    let _turn = take_turn();
    let corpus = corpus();
    let queries = queries(&corpus);
    for (leaves, widest) in [(LEAVES, INLINE_SLOTS), (16, 2 * INLINE_SLOTS)] {
        let mid = midtier(&corpus, leaves);
        // CALLS cycles through the queries a whole number of times.
        let widths: Vec<usize> =
            queries.iter().map(|query| mid.plan(query, leaves).len()).collect();
        let targeted: usize = widths.iter().sum();
        let boxed = widths.iter().filter(|&&width| width > INLINE_SLOTS).count();
        assert!(boxed < QUERIES, "{leaves} leaves: some plans hold their targets in place");
        assert!(
            widths.iter().any(|&width| width > widest),
            "{leaves} leaves: some plan targets more than {widest} leaves"
        );
        let calls = |count: usize| (0..count).map(|i| &queries[i % QUERIES]).collect::<Vec<_>>();
        let per_plan = allocs_per_call(calls(QUERIES), calls(CALLS), |query| {
            black_box(mid.plan(query, leaves));
        });
        let budget = (leaves + 1) as f64;
        assert!(per_plan <= budget + SLACK, "{per_plan} allocator calls per plan, budget {budget}");
        // Exactly: one per targeted leaf, plus one per boxed target list.
        let exact = (targeted + boxed) as f64 / QUERIES as f64;
        assert!(
            (per_plan - exact).abs() <= SLACK,
            "{leaves} leaves: {per_plan} allocator calls per plan, not {exact}"
        );
    }
}

/// `handle` allocates only its response's neighbour list: candidates are
/// scored in per-thread scratch and the top `k` selected in place. So does
/// `handle_payload`, which reads the request where its frame holds it.
#[test]
fn leaf_handle_allocates_only_its_response() {
    let _turn = take_turn();
    let corpus = corpus();
    let mid = midtier(&corpus, LEAVES);
    let shard: Vec<Vec<f32>> = corpus.vectors().iter().step_by(LEAVES).cloned().collect();
    let leaf = HdSearchLeaf::new(shard, 0, RoundRobinMap::new(LEAVES));
    let requests: Vec<LeafSearchRequest> = queries(&corpus)
        .iter()
        .filter_map(|query| {
            let plan = mid.plan(query, LEAVES);
            let (_, (candidates, k)) = plan.targets.into_iter().find(|(leaf, _)| *leaf == 0)?;
            Some(LeafSearchRequest { vector: query.vector.to_vec(), candidates, k })
        })
        .collect();
    assert!(requests.len() > QUERIES / 2, "most queries reach leaf 0");
    let calls = |count: usize| (0..count).map(|i| requests[i % requests.len()].clone()).collect();
    let per_handle = allocs_per_call(calls(requests.len()), calls(CALLS), |request| {
        black_box(leaf.handle(request).expect("a valid query is answered"));
    });
    assert!(per_handle <= 1.0 + SLACK, "{per_handle} allocator calls per handle, budget 1");
    let frames: Vec<Bytes> = requests.iter().map(|r| Bytes::from(to_bytes(r))).collect();
    let calls = |count: usize| (0..count).map(|i| frames[i % frames.len()].clone()).collect();
    let per_payload = allocs_per_call(calls(frames.len()), calls(CALLS), |payload| {
        black_box(leaf.handle_payload(payload).expect("a valid query is answered"));
    });
    assert!(per_payload <= 1.0 + SLACK, "{per_payload} allocator calls per payload, budget 1");
}

/// A leaf's reply as the mid-tier reads it: its neighbours a view of the
/// frame.
type ReplyView = Result<LeafSearchResponse<Seq<Neighbor>>, RpcError>;

/// `merge` allocates only the answer it hands back: the replies are folded
/// into the global top `k` through per-thread scratch, at two leaves (the
/// benchmark's width) as at sixteen (the paper's). Before the merge folded
/// its lists through scratch it cost 4 allocator calls at either width:
/// the lists, the merge's cursors and heads, and the answer.
#[test]
fn merge_allocates_only_its_answer() {
    let _turn = take_turn();
    let corpus = corpus();
    let mid = midtier(&corpus, LEAVES);
    let queries = queries(&corpus);
    // Leaf `leaf`'s sorted reply of `k` = 10 neighbours to query `q`.
    let reply = |q: usize, leaf: usize| -> Vec<u8> {
        let neighbor =
            |i: usize| Neighbor { id: (i * 16 + leaf) as u64, distance: (q + i * leaf) as f32 };
        to_bytes(&LeafSearchResponse { neighbors: (0..10).map(neighbor).collect::<Vec<_>>() })
    };
    for width in [2, 16] {
        let frames: Vec<Vec<Vec<u8>>> =
            (0..QUERIES).map(|q| (0..width).map(|leaf| reply(q, leaf)).collect()).collect();
        let calls = |count: usize| -> Vec<(SearchQuery<Seq<f32>>, Vec<ReplyView>)> {
            (0..count)
                .map(|i| {
                    let replies = frames[i % QUERIES].iter().map(|f| Ok(from_bytes(f).unwrap()));
                    (queries[i % QUERIES].clone(), replies.collect())
                })
                .collect()
        };
        let per_merge = allocs_per_call(calls(QUERIES), calls(CALLS), |(query, replies)| {
            black_box(mid.merge(query, replies).expect("every leaf answered"));
        });
        assert!(
            (per_merge - 1.0).abs() <= SLACK,
            "{per_merge} allocator calls per merge of {width} replies, budget 1"
        );
    }
}
