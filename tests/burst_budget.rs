//! A burst of sixteen requests through each of the four services, as
//! budgets: allocator calls per request, asserted to the hundredth, and the
//! leaves' socket writes, asserted as identities of the flush rule. A
//! regression here is `sat_allocs_per_req` or `sat_os_ops_per_req` on the
//! benchmark workload of the same service, found by `cargo test`. Own test
//! binary, because the counter is the process's allocator.
//!
//! Every server runs one worker that blocks when it waits (`WaitMode::Block`),
//! as the benchmark's do; Recommend also runs the benchmark's shared poller
//! and batches of eight.

// The one place the crate's no-unsafe rule bends: a counting global
// allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use musuite::core::cluster::{Cluster, ClusterConfig, QUERY_METHOD};
use musuite::core::leaf::LeafHandler;
use musuite::core::midtier::MidTierHandler;
use musuite::core::shard::RoundRobinMap;
use musuite::data::ratings::{RatingsConfig, RatingsDataset};
use musuite::data::text::{CorpusConfig, TextCorpus};
use musuite::data::vectors::{VectorDataset, VectorDatasetConfig};
use musuite::hdsearch::protocol::{LeafSearchRequest, SearchQuery};
use musuite::hdsearch::{HdSearchLeaf, HdSearchMidTier, HdSearchService, LshConfig};
use musuite::recommend::protocol::RatingQuery;
use musuite::recommend::{NmfConfig, RecommendService};
use musuite::router::{KvRequest, MemKvConfig, RouterService};
use musuite::rpc::{
    BatchPolicy, Frame, NetworkModel, RecvBuf, Server, ServerConfig, Status, WaitMode,
};
use musuite::setalgebra::protocol::TermQuery;
use musuite::setalgebra::SetAlgebraService;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

const BURST: usize = 16;
/// Bursts that size every reusable buffer before the count starts.
const WARM_UP: usize = 20;
/// Bursts counted.
const BURSTS: usize = 50;
const SLACK: f64 = 0.05;
const LEAVES: usize = 2;
const PATIENCE: Duration = Duration::from_secs(10);

fn server_config(network: NetworkModel, batch: Option<BatchPolicy>) -> ServerConfig {
    let mut config = ServerConfig::default();
    config.workers(1).wait_mode(WaitMode::Block).network_model(network);
    if let Some(batch) = batch {
        config.batch_policy(batch);
    }
    config
}

fn cluster_config(config: ServerConfig) -> ClusterConfig {
    ClusterConfig::new().leaves(LEAVES).midtier_config(config.clone()).leaf_config(config)
}

fn paper_default() -> ClusterConfig {
    cluster_config(server_config(NetworkModel::BlockingPerConn, None))
}

/// One write holding `requests` as query frames.
fn burst_wire<T: musuite::codec::Encode>(requests: &[T]) -> Vec<u8> {
    requests
        .iter()
        .enumerate()
        .flat_map(|(id, request)| {
            Frame::request(id as u64, QUERY_METHOD, musuite::codec::to_bytes(request)).to_bytes()
        })
        .collect()
}

/// Sends `wire`, a burst of [`BURST`] queries, to `cluster`'s mid-tier in
/// one write, [`WARM_UP`] + [`BURSTS`] times, each once the last is
/// answered; returns allocator calls per request over the counted bursts.
fn allocs_per_request(cluster: &Cluster, wire: &[u8]) -> f64 {
    let mut conn = TcpStream::connect(cluster.midtier_addr()).expect("connect");
    conn.set_read_timeout(Some(PATIENCE)).expect("timeout");
    let mut buf = RecvBuf::default();
    let mut round = |conn: &mut TcpStream| {
        conn.write_all(wire).expect("send burst");
        for _ in 0..BURST {
            let (reply, _) = buf.poll_frame(&mut &*conn).expect("readable").expect("a reply");
            assert_eq!(reply.header.status, Status::Ok, "{:?}", reply.payload);
        }
    };
    for _ in 0..WARM_UP {
        round(&mut conn);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..BURSTS {
        round(&mut conn);
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / (BURSTS * BURST) as f64
}

fn assert_allocs(service: &str, measured: f64, budget: f64) {
    assert!(
        (measured - budget).abs() <= SLACK,
        "{service}: {measured:.3} allocator calls per request in a burst, budget {budget:.2}"
    );
}

/// Writes the leaves made, summed, once `settled` holds or a second has
/// passed: a write is counted after the kernel has taken it, so the reply
/// it carried may be read first.
fn leaf_writes(leaves: &[Server], settled: impl Fn(u64) -> bool) -> u64 {
    let count = || leaves.iter().map(|leaf| leaf.stats().coalesce().flushes()).sum::<u64>();
    let deadline = Instant::now() + Duration::from_secs(1);
    while !settled(count()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    count()
}

#[test]
fn router_burst() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let service = RouterService::launch_with(paper_default(), 2, MemKvConfig::default())
        .expect("launch Router");
    // Half sets, half gets of what they set.
    let requests: Vec<KvRequest> = (0..BURST)
        .map(|i| {
            let key = format!("user{}", i / 2);
            match i % 2 {
                0 => KvRequest::Set { key, value: vec![i as u8; 128] },
                _ => KvRequest::Get { key },
            }
        })
        .collect();
    let measured = allocs_per_request(service.cluster(), &burst_wire(&requests));
    assert_allocs("router", measured, ROUTER_ALLOCS);
}

#[test]
fn hdsearch_burst() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let dataset = VectorDataset::generate(&VectorDatasetConfig {
        points: 20_000,
        dim: 64,
        seed: 7,
        ..Default::default()
    });
    let queries: Vec<SearchQuery> = dataset
        .sample_queries(BURST, 0.02)
        .into_iter()
        .map(|vector| SearchQuery { vector, k: 10 })
        .collect();
    // The leaf requests the mid-tier will send, and which of them run long.
    let id_map = RoundRobinMap::new(LEAVES);
    let mid = HdSearchMidTier::build(64, LshConfig::default(), dataset.vectors(), id_map);
    let leaf = HdSearchLeaf::new(Vec::new(), 0, id_map);
    let long_per_burst = queries
        .iter()
        .flat_map(|query| mid.plan(query, LEAVES).targets)
        .filter(|(_, (candidates, k))| {
            let request =
                LeafSearchRequest { vector: Vec::new(), candidates: candidates.clone(), k: *k };
            leaf.runs_long(&request)
        })
        .count() as u64;
    assert!(long_per_burst > 0, "the burst must hold leaf requests that run long");
    let service = HdSearchService::launch_with(paper_default(), dataset, LshConfig::default())
        .expect("launch HDSearch");
    let leaves = service.cluster().leaf_servers();
    let writes_before = leaf_writes(leaves, |_| true);
    let measured = allocs_per_request(service.cluster(), &burst_wire(&queries));
    assert_allocs("hdsearch", measured, HDSEARCH_ALLOCS);
    // Each reply of a request that runs long leaves in a write of its own:
    // the next such request writes what is held before it starts, and the
    // queue running dry writes the rest.
    let long = long_per_burst * (WARM_UP + BURSTS) as u64;
    let writes = leaf_writes(leaves, |writes| writes - writes_before >= long) - writes_before;
    assert!(writes >= long, "{writes} leaf writes for {long} leaf requests that run long");
}

#[test]
fn setalgebra_burst() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let corpus = TextCorpus::generate(&CorpusConfig {
        documents: 4_000,
        vocabulary: 2_000,
        doc_len: 80,
        seed: 7,
        ..Default::default()
    });
    let queries: Vec<TermQuery> =
        corpus.sample_queries(BURST).into_iter().map(|terms| TermQuery { terms }).collect();
    let service =
        SetAlgebraService::launch_with(paper_default(), &corpus, 100).expect("launch Set Algebra");
    let measured = allocs_per_request(service.cluster(), &burst_wire(&queries));
    assert_allocs("setalgebra", measured, SETALGEBRA_ALLOCS);
}

#[test]
fn recommend_burst() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let data = RatingsDataset::generate(&RatingsConfig {
        users: 1_000,
        items: 200,
        rank: 8,
        observations: 20_000,
        noise: 0.1,
        seed: 7,
    });
    let queries: Vec<RatingQuery> = data
        .sample_queries(BURST)
        .into_iter()
        .map(|(user, item)| RatingQuery { user, item })
        .collect();
    // A straggler window long enough that every batch fills, in a debug
    // build too: the count is then one of sixteen requests in two batches.
    let config = server_config(
        NetworkModel::SharedPollers { pollers: 1 },
        Some(BatchPolicy::new(8, Duration::from_millis(20))),
    );
    let service =
        RecommendService::launch_with(cluster_config(config), &data, NmfConfig::default(), 20)
            .expect("launch Recommend");
    let leaves = service.cluster().leaf_servers();
    let batches = || leaves.iter().map(|leaf| leaf.stats().batching().batches()).sum::<u64>();
    let measured = allocs_per_request(service.cluster(), &burst_wire(&queries));
    assert_allocs("recommend", measured, RECOMMEND_ALLOCS);
    // Every leaf batch runs long, so each writes what the one before it
    // left held: one write per batch, whatever the batches were.
    let batches = batches();
    assert_eq!(leaf_writes(leaves, |writes| writes >= batches), batches, "leaf writes, batches");
}

/// Allocator calls per request, as measured in release and debug builds.
const ROUTER_ALLOCS: f64 = 21.00;
const HDSEARCH_ALLOCS: f64 = 30.01;
const SETALGEBRA_ALLOCS: f64 = 30.26;
const RECOMMEND_ALLOCS: f64 = 21.63;
