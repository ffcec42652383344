//! Allocator calls per request on Set Algebra's mid-tier merge, steady
//! state, as budgets: the union of the leaves' posting lists allocates only
//! the list it hands back. A regression here is `sat_allocs_per_req` on
//! the `setalgebra_terms` benchmark workload. Beside it, the cold union's
//! scratch and the leaf's index build, whose cost is part of the
//! workload's `setup_s`. Own test binary, because the counter is the
//! process's allocator.

// The one place the crate's no-unsafe rule bends: a counting global
// allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use musuite_codec::{from_bytes, to_bytes, Seq};
use musuite_core::midtier::MidTierHandler;
use musuite_data::text::{CorpusConfig, DocId, TextCorpus};
use musuite_rpc::RpcError;
use musuite_setalgebra::protocol::{PostingList, TermQuery};
use musuite_setalgebra::union_merge::union_sorted;
use musuite_setalgebra::{InvertedIndex, SetAlgebraMidTier};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread, so that tests running side by
    /// side do not count each other's.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's last frees may come after its locals are gone.
    let _ = ALLOCS.try_with(|calls| calls.set(calls.get() + 1));
}

/// Allocator calls the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: pure delegation to `System`; the counter is a `const`-initialized
// thread-local `Cell` with no destructor, which never allocates, so the
// allocator cannot re-enter itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's; forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
    let before = allocs();
    inputs.into_iter().for_each(merge);
    (allocs() - before) as f64 / CALLS as f64
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

/// A response thread's first union sizes its scratch once per list, from
/// the list's length, rather than doubling its way up: two lists of 120
/// and 125 ids (`burst_budget`'s largest union, 245) cost the two scratch
/// buffers and the union itself. Growing by pushes, it took 14.
#[test]
fn a_cold_thread_s_first_union_reserves_its_scratch() {
    let lists =
        [(0..120).map(|i| 2 * i).collect::<Vec<u32>>(), (0..125).map(|i| 2 * i + 1).collect()];
    let calls = std::thread::spawn(move || {
        let before = allocs();
        let union = union_sorted(lists.iter().map(|list| list.iter().copied()));
        let calls = allocs() - before;
        assert_eq!(union.len(), 245);
        calls
    })
    .join()
    .expect("the union thread panicked");
    assert!(calls <= 3, "{calls} allocator calls for a cold thread's first union, budget 3");
}

/// The index lays every posting list of a shard out in one array, so its
/// build costs the array and the term table's growth, not a call per
/// posting: 2 000 documents and about 60 000 postings in at most 64 calls.
#[test]
fn an_index_build_allocates_per_shard_not_per_posting() {
    let corpus = TextCorpus::generate(&CorpusConfig {
        documents: 2_000,
        vocabulary: 5_000,
        doc_len: 40,
        ..Default::default()
    });
    let documents = corpus.documents();
    let postings: usize = documents.iter().map(Vec::len).sum();
    assert!((50_000..70_000).contains(&postings), "{postings} postings, want about 60 000");
    let doc_ids: Vec<DocId> = (0..documents.len() as DocId).collect();
    let stop_list = InvertedIndex::stop_list_for(documents, 20);
    let before = allocs();
    let index = InvertedIndex::build_with_stop_list(documents, &doc_ids, stop_list);
    let calls = allocs() - before;
    black_box(&index);
    assert!(calls <= 64, "{calls} allocator calls to index {postings} postings, budget 64");
}
