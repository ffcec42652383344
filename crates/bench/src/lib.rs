//! Shared harness for the figure-regeneration benches.
//!
//! Each `benches/figNN_*.rs` target reproduces one exhibit of the paper's
//! evaluation (§VI). This library holds what they share: service
//! launchers with pre-generated query sets, environment-tunable scale
//! knobs, and the open-loop measurement wrapper.
//!
//! Environment knobs (all optional):
//!
//! * `MUSUITE_BENCH_SECS` — seconds of load per measurement point
//!   (default 2).
//! * `MUSUITE_BENCH_LOADS` — comma-separated offered loads in QPS
//!   (default `100,1000,10000`, the paper's three points).
//! * `MUSUITE_LEAVES` — leaf microservers per service (default 4, the
//!   paper's shard count for three of the four services).
//! * `MUSUITE_SCALE` — data-set scale multiplier (default 1).

use musuite_codec::to_bytes;
use musuite_data::kv::{KvWorkload, KvWorkloadConfig};
use musuite_data::ratings::{RatingsConfig, RatingsDataset};
use musuite_data::text::{CorpusConfig, TextCorpus};
use musuite_data::vectors::{VectorDataset, VectorDatasetConfig};
use musuite_hdsearch::protocol::SearchQuery;
use musuite_hdsearch::service::HdSearchService;
use musuite_loadgen::open_loop::{self, OpenLoopConfig, OpenLoopReport};
use musuite_loadgen::source::CyclingSource;
use musuite_recommend::protocol::RatingQuery;
use musuite_recommend::service::RecommendService;
use musuite_router::protocol::KvRequest;
use musuite_router::service::RouterService;
use musuite_rpc::{RpcClient, Server};
use musuite_setalgebra::protocol::TermQuery;
use musuite_setalgebra::service::SetAlgebraService;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The paper's front-end→mid-tier method id.
pub const QUERY_METHOD: u32 = musuite_core::cluster::QUERY_METHOD;

/// Scale knobs resolved from the environment.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    /// Seconds of offered load per measurement point.
    pub secs: f64,
    /// Offered loads in QPS (Fig. 10–19 x-axis).
    pub loads: Vec<f64>,
    /// Leaf servers per service.
    pub leaves: usize,
    /// Data-set scale multiplier.
    pub scale: usize,
}

impl Default for BenchEnv {
    fn default() -> Self {
        BenchEnv::from_env()
    }
}

impl BenchEnv {
    /// Reads the knobs from the environment, applying defaults.
    pub fn from_env() -> BenchEnv {
        let secs =
            std::env::var("MUSUITE_BENCH_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(2.0);
        let loads = std::env::var("MUSUITE_BENCH_LOADS")
            .ok()
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .filter(|v: &Vec<f64>| !v.is_empty())
            .unwrap_or_else(|| vec![100.0, 1_000.0, 10_000.0]);
        let leaves =
            std::env::var("MUSUITE_LEAVES").ok().and_then(|v| v.parse().ok()).unwrap_or(4).max(1);
        let scale =
            std::env::var("MUSUITE_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1).max(1);
        BenchEnv { secs, loads, leaves, scale }
    }

    /// The per-point measurement duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.secs)
    }
}

/// The four μSuite benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// Image similarity search (§III-A).
    HdSearch,
    /// Replicated KV protocol routing (§III-B).
    Router,
    /// Posting-list set algebra (§III-C).
    SetAlgebra,
    /// Rating recommendation (§III-D).
    Recommend,
}

/// All services in the paper's presentation order.
pub const ALL_SERVICES: [ServiceKind; 4] =
    [ServiceKind::HdSearch, ServiceKind::Router, ServiceKind::SetAlgebra, ServiceKind::Recommend];

impl ServiceKind {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceKind::HdSearch => "HDSearch",
            ServiceKind::Router => "Router",
            ServiceKind::SetAlgebra => "Set Algebra",
            ServiceKind::Recommend => "Recommend",
        }
    }
}

/// A launched service plus its pre-generated query set.
pub struct Deployment {
    kind: ServiceKind,
    inner: DeploymentInner,
    queries: Vec<Vec<u8>>,
}

enum DeploymentInner {
    HdSearch(HdSearchService),
    Router(RouterService),
    SetAlgebra(SetAlgebraService),
    Recommend(RecommendService),
}

impl Deployment {
    /// Launches `kind` at the environment's scale and prepares its query
    /// set (pre-encoded payloads, cycled during load).
    ///
    /// # Panics
    ///
    /// Panics if the cluster fails to start (benches have no meaningful
    /// recovery).
    pub fn launch(kind: ServiceKind, env: &BenchEnv) -> Deployment {
        match kind {
            ServiceKind::HdSearch => {
                let dataset = VectorDataset::generate(&VectorDatasetConfig {
                    points: 5_000 * env.scale,
                    dim: 64,
                    ..Default::default()
                });
                let queries = dataset
                    .sample_queries(512, 0.02)
                    .into_iter()
                    .map(|vector| to_bytes(&SearchQuery { vector, k: 10 }))
                    .collect();
                let service = HdSearchService::launch(dataset, env.leaves, Default::default())
                    .expect("launch HDSearch");
                Deployment { kind, inner: DeploymentInner::HdSearch(service), queries }
            }
            ServiceKind::Router => {
                // The paper runs Router on 16-way sharded leaves.
                let leaves = (env.leaves * 4).max(4);
                let service = RouterService::launch(leaves, 3).expect("launch Router");
                let mut workload = KvWorkload::new(KvWorkloadConfig {
                    keys: 10_000 * env.scale,
                    value_len: 128,
                    ..Default::default()
                });
                // Preload a slice of the key space so gets hit.
                let client = service.client().expect("router client");
                for rank in 0..2_000 * env.scale {
                    client.set(&KvWorkload::key_for_rank(rank), vec![0u8; 128]).expect("preload");
                }
                let queries = workload
                    .take_ops(1_024)
                    .into_iter()
                    .map(|op| {
                        let request: KvRequest = match op {
                            musuite_data::kv::KvOp::Get { key } => KvRequest::Get { key },
                            musuite_data::kv::KvOp::Set { key, value } => {
                                KvRequest::Set { key, value }
                            }
                        };
                        to_bytes(&request)
                    })
                    .collect();
                Deployment { kind, inner: DeploymentInner::Router(service), queries }
            }
            ServiceKind::SetAlgebra => {
                let corpus = TextCorpus::generate(&CorpusConfig {
                    documents: 10_000 * env.scale,
                    vocabulary: 10_000,
                    doc_len: 80,
                    ..Default::default()
                });
                let queries = corpus
                    .sample_queries(1_024)
                    .into_iter()
                    .map(|terms| to_bytes(&TermQuery { terms }))
                    .collect();
                let service = SetAlgebraService::launch(&corpus, env.leaves, 100)
                    .expect("launch Set Algebra");
                Deployment { kind, inner: DeploymentInner::SetAlgebra(service), queries }
            }
            ServiceKind::Recommend => {
                let data = RatingsDataset::generate(&RatingsConfig {
                    users: 500 * env.scale,
                    items: 400,
                    rank: 8,
                    observations: 10_000 * env.scale,
                    noise: 0.1,
                    seed: 42,
                });
                let queries = data
                    .sample_queries(1_000)
                    .into_iter()
                    .map(|(user, item)| to_bytes(&RatingQuery { user, item }))
                    .collect();
                let service = RecommendService::launch(&data, env.leaves, Default::default())
                    .expect("launch Recommend");
                Deployment { kind, inner: DeploymentInner::Recommend(service), queries }
            }
        }
    }

    /// Which benchmark this is.
    pub fn kind(&self) -> ServiceKind {
        self.kind
    }

    /// The mid-tier address.
    pub fn addr(&self) -> SocketAddr {
        match &self.inner {
            DeploymentInner::HdSearch(s) => s.addr(),
            DeploymentInner::Router(s) => s.addr(),
            DeploymentInner::SetAlgebra(s) => s.addr(),
            DeploymentInner::Recommend(s) => s.addr(),
        }
    }

    /// The mid-tier server handle (stats and breakdown live here).
    pub fn midtier(&self) -> &Server {
        match &self.inner {
            DeploymentInner::HdSearch(s) => s.cluster().midtier(),
            DeploymentInner::Router(s) => s.cluster().midtier(),
            DeploymentInner::SetAlgebra(s) => s.cluster().midtier(),
            DeploymentInner::Recommend(s) => s.cluster().midtier(),
        }
    }

    /// A fresh cycling source over the pre-encoded query set.
    pub fn source(&self) -> CyclingSource {
        CyclingSource::new(QUERY_METHOD, self.queries.clone())
    }

    /// Shuts the deployment down.
    pub fn shutdown(&self) {
        match &self.inner {
            DeploymentInner::HdSearch(s) => s.shutdown(),
            DeploymentInner::Router(s) => s.shutdown(),
            DeploymentInner::SetAlgebra(s) => s.shutdown(),
            DeploymentInner::Recommend(s) => s.shutdown(),
        }
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("kind", &self.kind.name())
            .field("addr", &self.addr())
            .field("queries", &self.queries.len())
            .finish()
    }
}

/// Runs open-loop Poisson load at `qps` against a deployment and returns
/// the report (the paper's §V measurement mode).
///
/// # Panics
///
/// Panics if the load connection cannot be established.
pub fn offer_load(deployment: &Deployment, qps: f64, duration: Duration) -> OpenLoopReport {
    let client = Arc::new(RpcClient::connect(deployment.addr()).expect("connect load client"));
    let mut source = deployment.source();
    open_loop::run(OpenLoopConfig::poisson(qps, duration, 42), client, &mut source)
}

/// Formats a QPS number the way the paper labels loads.
pub fn load_label(qps: f64) -> String {
    if qps >= 1_000.0 {
        format!("{}K", qps / 1_000.0)
    } else {
        format!("{qps}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let env = BenchEnv::from_env();
        assert!(env.secs > 0.0);
        assert!(!env.loads.is_empty());
        assert!(env.leaves >= 1);
    }

    #[test]
    fn load_labels() {
        assert_eq!(load_label(100.0), "100");
        assert_eq!(load_label(1_000.0), "1K");
        assert_eq!(load_label(10_000.0), "10K");
    }

    #[test]
    fn hdsearch_deployment_serves_its_query_set() {
        let env = BenchEnv { secs: 0.2, loads: vec![200.0], leaves: 2, scale: 1 };
        let deployment = Deployment::launch(ServiceKind::HdSearch, &env);
        let report = offer_load(&deployment, 200.0, Duration::from_millis(200));
        assert!(report.completed > 0);
        assert_eq!(report.errors, 0);
        deployment.shutdown();
    }
}
