//! A burst of sixteen requests through each of the four services, as
//! budgets: allocator calls per request, asserted to the hundredth, and the
//! leaves' socket writes, asserted as identities of the flush rule. A
//! regression here is `sat_allocs_per_req` or `sat_os_ops_per_req` on the
//! benchmark workload of the same service, found by `cargo test`. Own test
//! binary, because the counter is the process's allocator.
//!
//! Every server runs one worker that blocks when it waits (`WaitMode::Block`),
//! as the benchmark's do; Recommend also runs the benchmark's shared poller
//! and batches of eight, and so do the other three in `batched_bursts`.
//!
//! The ignored `report_allocation_sites` says where the calls come from,
//! and asserts them by layer, so that a budget that fails names its layer:
//! `cargo test -p musuite --test burst_budget -- --ignored --nocapture`
//! (a debug build, whose backtraces keep their frames).

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
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System`; the counter is a static relaxed
// atomic that never allocates. Noting a site allocates, but only once
// `SITES_ON` is set, and `note_site` does not re-enter itself on a thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if SITES_ON.load(Ordering::Relaxed) {
            note_site(layout.size());
        }
        // SAFETY: same contract as the caller's; forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if SITES_ON.load(Ordering::Relaxed) {
            note_site(new_size);
        }
        // SAFETY: same contract as the caller's; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Set while `report_allocation_sites` counts: every allocator call then
/// notes its site. Clear, the allocator reads it and does nothing more.
static SITES_ON: AtomicBool = AtomicBool::new(false);
/// Allocator calls and bytes by site and layer, while `SITES_ON` is set.
static SITES: Mutex<BTreeMap<SiteInLayer, (u64, u64)>> = Mutex::new(BTreeMap::new());
/// A call site (see [`call_site`]) and its layer (see [`layer`]).
type SiteInLayer = (String, &'static str);

thread_local! {
    /// This thread is noting a site: what that allocates is not noted.
    static NOTING: Cell<bool> = const { Cell::new(false) };
}

/// Charges one allocator call of `bytes` to the site and the layer the
/// backtrace names.
fn note_site(bytes: usize) {
    let _ = NOTING.try_with(|noting| {
        if noting.replace(true) {
            return;
        }
        let backtrace = std::backtrace::Backtrace::force_capture().to_string();
        let key = (call_site(&backtrace), layer(&backtrace));
        let mut sites = SITES.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let (calls, total) = sites.entry(key).or_default();
        *calls += 1;
        *total += bytes as u64;
        drop(sites);
        noting.set(false);
    });
}

/// The innermost frame of `backtrace` in the workspace's code, as
/// `function (crates/…/file.rs:line)`. The codec's helpers are skipped, so
/// a `to_bytes` is charged to its caller; frames in `std`, `alloc` and
/// vendored crates are never the site.
fn call_site(backtrace: &str) -> String {
    let mut function = "";
    for line in backtrace.lines().map(str::trim) {
        let Some(location) = line.strip_prefix("at ") else {
            function = line.split_once(": ").map_or(line, |(_, name)| name);
            continue;
        };
        let Some(at) = location.find("/crates/") else { continue };
        let path = &location[at + 1..];
        if path.starts_with("crates/codec/") {
            continue;
        }
        let path = path.rsplit_once(':').map_or(path, |(line, _column)| line);
        return format!("{function} ({path})");
    }
    "(no frame in the workspace)".to_owned()
}

/// The layers of a request's path, each with the source files under
/// `crates/` whose allocations it is charged: a file ending in a suffix
/// listed (or in a directory listed) belongs to that layer, the first
/// match winning. Decoding and encoding a service's messages is codec
/// work wherever its `protocol.rs` is.
const LAYERS: [(&str, &[&str]); 6] = [
    ("codec", &["codec/", "/protocol.rs", "core/src/degrade.rs"]),
    ("scatter (`fanout`)", &["rpc/src/fanout.rs"]),
    ("rpc hop", &["rpc/", "core/src/leaf.rs", "telemetry/"]),
    (
        "mid-tier plan/merge",
        &[
            "/midtier.rs",
            "core/src/replication.rs",
            "hdsearch/src/lsh.rs",
            "hdsearch/src/merge.rs",
            "setalgebra/src/union_merge.rs",
        ],
    ),
    (
        "leaf kernel",
        &[
            "/leaf.rs",
            "core/src/topk.rs",
            "hdsearch/src/distance.rs",
            "setalgebra/src/index.rs",
            "setalgebra/src/intersect.rs",
            "recommend/src/knn.rs",
            "recommend/src/sparse.rs",
        ],
    ),
    ("store", &["router/src/memkv.rs"]),
];
/// What no layer claims; the report requires it to read 0.
const OTHER: &str = "other";

/// The layer of the innermost frame of `backtrace` in the workspace's
/// code, the codec's included (see [`LAYERS`]).
fn layer(backtrace: &str) -> &'static str {
    let Some(path) =
        backtrace.lines().filter_map(|line| line.trim().strip_prefix("at ")).find_map(|location| {
            location.find("/crates/").map(|at| &location[at + "/crates/".len()..])
        })
    else {
        return OTHER;
    };
    let path = path.split(':').next().unwrap_or(path);
    LAYERS
        .iter()
        .find(|(_, files)| {
            files.iter().any(|file| {
                if file.ends_with('/') && !file.starts_with('/') {
                    path.starts_with(file)
                } else {
                    path.ends_with(file)
                }
            })
        })
        .map_or(OTHER, |(name, _)| name)
}

/// The counter is process-wide: measured sections take turns.
static TURN: Mutex<()> = Mutex::new(());

const BURST: usize = 16;
/// Bursts that size every reusable buffer before the count starts.
const WARM_UP: usize = 20;
/// Bursts counted.
const BURSTS: usize = 50;
/// Bursts counted, and their sites noted, by `report_allocation_sites`.
const REPORT_BURSTS: usize = 10;
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

/// The benchmark's Recommend config: one shared poller and batches of up
/// to eight, with a straggler window long enough that every batch fills,
/// in a debug build too.
fn batched() -> ClusterConfig {
    cluster_config(server_config(
        NetworkModel::SharedPollers { pollers: 1 },
        Some(BatchPolicy::new(8, Duration::from_millis(20))),
    ))
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

/// Set by `report_allocation_sites`: the counted bursts are
/// [`REPORT_BURSTS`], and note the site of every allocator call.
static REPORTING: AtomicBool = AtomicBool::new(false);

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
    let reporting = REPORTING.load(Ordering::Relaxed);
    let bursts = if reporting { REPORT_BURSTS } else { BURSTS };
    let before = ALLOCS.load(Ordering::Relaxed);
    SITES_ON.store(reporting, Ordering::Relaxed);
    for _ in 0..bursts {
        round(&mut conn);
    }
    SITES_ON.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / (bursts * BURST) as f64
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

/// Allocator calls per request of a Router burst: half sets, half gets of
/// what they set.
fn router_allocs(config: ClusterConfig) -> f64 {
    let service =
        RouterService::launch_with(config, 2, MemKvConfig::default()).expect("launch Router");
    let requests: Vec<KvRequest> = (0..BURST)
        .map(|i| {
            let key = format!("user{}", i / 2);
            match i % 2 {
                0 => KvRequest::Set { key, value: vec![i as u8; 128] },
                _ => KvRequest::Get { key },
            }
        })
        .collect();
    allocs_per_request(service.cluster(), &burst_wire(&requests))
}

#[test]
fn router_burst() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    assert_allocs("router", router_allocs(paper_default()), ROUTER_ALLOCS);
}

/// The HDSearch corpus and a burst of queries near it.
fn hdsearch_workload() -> (VectorDataset, Vec<SearchQuery>) {
    let dataset = VectorDataset::generate(&VectorDatasetConfig {
        points: 20_000,
        dim: 64,
        seed: 7,
        ..Default::default()
    });
    let queries = dataset
        .sample_queries(BURST, 0.02)
        .into_iter()
        .map(|vector| SearchQuery { vector, k: 10 })
        .collect();
    (dataset, queries)
}

/// Allocator calls per request of an HDSearch burst.
fn hdsearch_allocs(config: ClusterConfig) -> f64 {
    let (dataset, queries) = hdsearch_workload();
    let service = HdSearchService::launch_with(config, dataset, LshConfig::default())
        .expect("launch HDSearch");
    allocs_per_request(service.cluster(), &burst_wire(&queries))
}

#[test]
fn hdsearch_burst() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (dataset, queries) = hdsearch_workload();
    // The leaf requests the mid-tier will send, and which of them run long.
    let id_map = RoundRobinMap::new(LEAVES);
    let mid = HdSearchMidTier::build(64, LshConfig::default(), dataset.vectors(), id_map);
    let leaf = HdSearchLeaf::new(Vec::new(), 0, id_map);
    let long_per_burst = queries
        .iter()
        .flat_map(|query| {
            // The mid-tier plans a query as it reads it off the wire.
            let view = musuite::codec::from_bytes(&musuite::codec::to_bytes(query)).unwrap();
            mid.plan(&view, LEAVES).targets
        })
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

/// Allocator calls per request of a Set Algebra burst.
fn setalgebra_allocs(config: ClusterConfig) -> f64 {
    let corpus = TextCorpus::generate(&CorpusConfig {
        documents: 4_000,
        vocabulary: 2_000,
        doc_len: 80,
        seed: 7,
        ..Default::default()
    });
    let queries: Vec<TermQuery> =
        corpus.sample_queries(BURST).into_iter().map(|terms| TermQuery { terms }).collect();
    let service = SetAlgebraService::launch_with(config, &corpus, 100).expect("launch Set Algebra");
    allocs_per_request(service.cluster(), &burst_wire(&queries))
}

#[test]
fn setalgebra_burst() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    assert_allocs("setalgebra", setalgebra_allocs(paper_default()), SETALGEBRA_ALLOCS);
}

/// The Recommend service under `config` and a burst of queries for it.
fn recommend_workload(config: ClusterConfig) -> (RecommendService, Vec<RatingQuery>) {
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
    let service = RecommendService::launch_with(config, &data, NmfConfig::default(), 20)
        .expect("launch Recommend");
    (service, queries)
}

/// Allocator calls per request of a Recommend burst.
fn recommend_allocs(config: ClusterConfig) -> f64 {
    let (service, queries) = recommend_workload(config);
    allocs_per_request(service.cluster(), &burst_wire(&queries))
}

#[test]
fn recommend_burst() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (service, queries) = recommend_workload(batched());
    let leaves = service.cluster().leaf_servers();
    let batches = || leaves.iter().map(|leaf| leaf.stats().batching().batches()).sum::<u64>();
    let measured = allocs_per_request(service.cluster(), &burst_wire(&queries));
    assert_allocs("recommend", measured, RECOMMEND_ALLOCS);
    // Every leaf batch runs long, so each writes what the one before it
    // left held: one write per batch, whatever the batches were.
    let batches = batches();
    assert_eq!(leaf_writes(leaves, |writes| writes >= batches), batches, "leaf writes, batches");
}

/// The other three services under Recommend's config. Their leaves have no
/// batch kernel, so a batch member is served as a lone request is, at the
/// unbatched budget.
#[test]
fn batched_bursts() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for (service, allocs, _, budget) in &LAYERED_BURSTS[BATCHED..] {
        assert_allocs(service, allocs(), *budget);
    }
}

/// A burst this file pins: its name, the burst, its budget by layer and
/// its budget in all.
type LayeredBurst = (&'static str, fn() -> f64, [f64; LAYERS.len()], f64);

/// Where the batched bursts of the services without a batch kernel start
/// in [`LAYERED_BURSTS`].
const BATCHED: usize = 4;

/// The seven bursts: each service under its benchmark config, then the
/// three without a batch kernel under Recommend's, where they cost what
/// they cost unbatched, layer by layer.
const LAYERED_BURSTS: [LayeredBurst; 7] = [
    ("Router", || router_allocs(paper_default()), ROUTER_LAYERS, ROUTER_ALLOCS),
    ("HDSearch", || hdsearch_allocs(paper_default()), HDSEARCH_LAYERS, HDSEARCH_ALLOCS),
    ("Set Algebra", || setalgebra_allocs(paper_default()), SETALGEBRA_LAYERS, SETALGEBRA_ALLOCS),
    ("Recommend", || recommend_allocs(batched()), RECOMMEND_LAYERS, RECOMMEND_ALLOCS),
    ("Router, batched", || router_allocs(batched()), ROUTER_LAYERS, ROUTER_ALLOCS),
    ("HDSearch, batched", || hdsearch_allocs(batched()), HDSEARCH_LAYERS, HDSEARCH_ALLOCS),
    ("Set Algebra, batched", || setalgebra_allocs(batched()), SETALGEBRA_LAYERS, SETALGEBRA_ALLOCS),
];

/// Prints, for each of the seven bursts this file pins, allocator
/// calls and bytes per request by the site that made them (see
/// [`call_site`]), and by layer (see [`LAYERS`]); fails if a layer's
/// calls miss its budget, or if a call falls in no layer. Run it in a
/// debug build: a release build inlines the frames that name the sites.
#[test]
#[ignore = "a report: run with --ignored --nocapture, in a debug build"]
fn report_allocation_sites() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    REPORTING.store(true, Ordering::Relaxed);
    let mut misses = Vec::new();
    for (service, burst, budgets, _) in LAYERED_BURSTS {
        let (layers, unclaimed) = print_sites(service, burst);
        for ((name, _), (measured, budget)) in LAYERS.iter().zip(layers.into_iter().zip(budgets)) {
            if (measured - budget).abs() > SLACK {
                misses.push(format!("{service}: {name} {measured:.2} ≠ {budget:.2}"));
            }
        }
        if unclaimed > 0 {
            misses.push(format!("{service}: {unclaimed} allocator calls no layer claims"));
        }
    }
    REPORTING.store(false, Ordering::Relaxed);
    assert!(misses.is_empty(), "allocator calls per request by layer: {}", misses.join("; "));
}

/// The layer budgets are a split of the service budgets.
#[test]
fn layer_budgets_sum_to_the_service_budgets() {
    for (service, _, layers, total) in LAYERED_BURSTS {
        let sum: f64 = layers.iter().sum();
        assert!((sum - total).abs() <= SLACK, "{service}: layers sum to {sum:.2}, budget {total}");
    }
}

/// Runs one service's burst with its sites noted, and prints them as a
/// table, most calls first, then one subtotal row per layer (they sum to
/// the total). Returns each layer's calls per request, in the order of
/// [`LAYERS`], and the calls no layer claims.
fn print_sites(service: &str, burst: impl FnOnce() -> f64) -> ([f64; LAYERS.len()], u64) {
    SITES.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).clear();
    // What noting the sites allocates is counted here, not noted.
    let _ = burst();
    let sites = std::mem::take(&mut *SITES.lock().unwrap_or_else(|p| p.into_inner()));
    let requests = (REPORT_BURSTS * BURST) as f64;
    let per_request = |calls: u64, bytes: u64| (calls as f64 / requests, bytes as f64 / requests);
    let mut layers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    for ((site, layer), (calls, bytes)) in sites {
        let subtotal = layers.entry(layer).or_default();
        (subtotal.0, subtotal.1) = (subtotal.0 + calls, subtotal.1 + bytes);
        rows.push((site, calls, bytes));
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let calls: u64 = rows.iter().map(|row| row.1).sum();
    let bytes: u64 = rows.iter().map(|row| row.2).sum();
    let (total_calls, total_bytes) = per_request(calls, bytes);
    println!("\n{service}: {total_calls:.2} allocator calls, {total_bytes:.0} bytes per request");
    println!("| calls / req | bytes / req | site |\n|---|---|---|");
    for (site, calls, bytes) in rows {
        let (calls, bytes) = per_request(calls, bytes);
        println!("| {calls:.2} | {bytes:.0} | `{site}` |");
    }
    println!("\n| calls / req | bytes / req | layer |\n|---|---|---|");
    for name in LAYERS.iter().map(|(name, _)| *name).chain([OTHER]) {
        let (calls, bytes) = layers.get(name).copied().unwrap_or_default();
        let (calls, bytes) = per_request(calls, bytes);
        println!("| {calls:.2} | {bytes:.0} | {name} |");
    }
    println!("| {total_calls:.2} | {total_bytes:.0} | **total** |");
    let by_layer = LAYERS.map(|(name, _)| layers.get(name).map_or(0, |l| l.0) as f64 / requests);
    (by_layer, layers.get(OTHER).map_or(0, |other| other.0))
}

/// Allocator calls per request by layer, in the order of [`LAYERS`]: codec,
/// scatter, rpc hop, mid-tier plan/merge, leaf kernel, store. Each row sums
/// to the service's budget below.
const ROUTER_LAYERS: [f64; LAYERS.len()] = [0.0, 2.00, 0.0, 1.00, 0.0, 0.50];
const HDSEARCH_LAYERS: [f64; LAYERS.len()] = [0.0, 2.00, 0.0, 3.50, 1.50, 0.0];
const SETALGEBRA_LAYERS: [f64; LAYERS.len()] = [0.0, 2.00, 0.0, 1.375, 1.625, 0.0];
const RECOMMEND_LAYERS: [f64; LAYERS.len()] = [0.0, 2.00, 0.25, 1.00, 0.50, 0.0];

/// Allocator calls per request, as measured in release and debug builds,
/// batched or not.
const ROUTER_ALLOCS: f64 = 3.50;
const HDSEARCH_ALLOCS: f64 = 7.00;
const SETALGEBRA_ALLOCS: f64 = 5.00;
const RECOMMEND_ALLOCS: f64 = 3.75;
