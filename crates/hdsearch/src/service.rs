//! One-call HDSearch cluster launcher and typed front-end client.

use crate::leaf::HdSearchLeaf;
use crate::lsh::LshConfig;
use crate::midtier::HdSearchMidTier;
use crate::protocol::{Neighbor, SearchQuery};
use musuite_core::cluster::{Cluster, ClusterConfig, TypedClient};
use musuite_core::degrade::Degraded;
use musuite_core::shard::RoundRobinMap;
use musuite_data::vectors::VectorDataset;
use musuite_rpc::{CallOptions, RpcError};
use std::net::SocketAddr;

/// A running HDSearch deployment: vector shards behind an LSH mid-tier.
pub struct HdSearchService {
    cluster: Cluster,
}

impl HdSearchService {
    /// Shards `dataset` round-robin over `leaves` leaf servers, builds the
    /// mid-tier LSH index over the full corpus, and launches everything.
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to start.
    pub fn launch(
        dataset: VectorDataset,
        leaves: usize,
        lsh: LshConfig,
    ) -> Result<HdSearchService, RpcError> {
        Self::launch_with(ClusterConfig::new().leaves(leaves), dataset, lsh)
    }

    /// Launches with full cluster configuration control.
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to start.
    pub fn launch_with(
        config: ClusterConfig,
        dataset: VectorDataset,
        lsh: LshConfig,
    ) -> Result<HdSearchService, RpcError> {
        Self::launch_with_corpus_config(config, dataset.into_vectors(), lsh)
    }

    /// Launches from a raw corpus of feature vectors (e.g. ones produced
    /// by the front-end extractor rather than a synthetic data set).
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to start.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty or vectors disagree in dimension.
    pub fn launch_with_corpus(
        corpus: Vec<Vec<f32>>,
        leaves: usize,
        lsh: LshConfig,
    ) -> Result<HdSearchService, RpcError> {
        Self::launch_with_corpus_config(ClusterConfig::new().leaves(leaves), corpus, lsh)
    }

    fn launch_with_corpus_config(
        config: ClusterConfig,
        corpus: Vec<Vec<f32>>,
        lsh: LshConfig,
    ) -> Result<HdSearchService, RpcError> {
        assert!(!corpus.is_empty(), "corpus must not be empty");
        let leaves = config.leaf_count();
        let id_map = RoundRobinMap::new(leaves);
        let dim = corpus[0].len();
        let midtier = HdSearchMidTier::build(dim, lsh, &corpus, id_map);
        // Build each leaf's shard: local index i holds global id i*leaves+leaf.
        let mut shards: Vec<Vec<Vec<f32>>> = vec![Vec::new(); leaves];
        for (global, vector) in corpus.into_iter().enumerate() {
            shards[id_map.leaf_of(global as u64)].push(vector);
        }
        let mut shard_slots: Vec<Option<Vec<Vec<f32>>>> = shards.into_iter().map(Some).collect();
        let cluster = Cluster::launch(config, midtier, move |leaf| {
            // Cluster invokes the factory once per leaf index, in order.
            let shard = shard_slots[leaf].take().expect("each shard consumed once");
            HdSearchLeaf::new(shard, leaf, id_map)
        })?;
        Ok(HdSearchService { cluster })
    }

    /// The mid-tier address front-ends connect to.
    pub fn addr(&self) -> SocketAddr {
        self.cluster.midtier_addr()
    }

    /// The underlying cluster (stats, shutdown).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Connects a typed client.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection fails.
    pub fn client(&self) -> Result<HdSearchClient, RpcError> {
        Ok(HdSearchClient { inner: self.cluster.client()? })
    }

    /// Shuts the deployment down. Idempotent.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

impl std::fmt::Debug for HdSearchService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HdSearchService").field("addr", &self.addr()).finish()
    }
}

/// A typed front-end client for image-similarity queries.
pub struct HdSearchClient {
    inner: TypedClient<SearchQuery, Degraded<Vec<Neighbor>>>,
}

impl HdSearchClient {
    /// Finds the `k` nearest neighbours of `vector`, dropping the
    /// degradation envelope (use
    /// [`search_with_status`](HdSearchClient::search_with_status) to see
    /// whether shards were missing).
    ///
    /// # Errors
    ///
    /// Returns transport errors or a whole-fleet leaf failure.
    pub fn search(&self, vector: &[f32], k: u32) -> Result<Vec<Neighbor>, RpcError> {
        Ok(self.search_with_status(vector, k)?.value)
    }

    /// Finds the `k` nearest neighbours along with the shard accounting:
    /// a degraded response is a best-effort top-k assembled from the
    /// shards that answered.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a whole-fleet leaf failure.
    pub fn search_with_status(
        &self,
        vector: &[f32],
        k: u32,
    ) -> Result<Degraded<Vec<Neighbor>>, RpcError> {
        self.inner.call_typed(&SearchQuery { vector: vector.to_vec(), k }, CallOptions::default())
    }

    /// The underlying typed client (for async use in load generators).
    pub fn typed(&self) -> &TypedClient<SearchQuery, Degraded<Vec<Neighbor>>> {
        &self.inner
    }
}

impl std::fmt::Debug for HdSearchClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HdSearchClient").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::{brute_force_knn, recall_at_k};
    use musuite_data::vectors::VectorDatasetConfig;

    fn dataset() -> VectorDataset {
        VectorDataset::generate(&VectorDatasetConfig {
            points: 1_200,
            dim: 24,
            clusters: 12,
            spread: 0.05,
            seed: 21,
        })
    }

    #[test]
    fn end_to_end_search_finds_planted_neighbor() {
        let ds = dataset();
        let queries = ds.sample_queries(10, 0.005);
        let corpus = ds.vectors().to_vec();
        let service = HdSearchService::launch(ds, 4, LshConfig::default()).unwrap();
        let client = service.client().unwrap();
        for q in &queries {
            let got = client.search(q, 5).unwrap();
            assert!(!got.is_empty(), "a near-duplicate query must match");
            assert!(got.windows(2).all(|w| w[0].distance <= w[1].distance), "sorted output");
            // Verify the distances are honest: recompute on the client.
            for n in &got {
                let expected = crate::distance::euclidean_sq(q, &corpus[n.id as usize]);
                assert!((n.distance - expected).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn end_to_end_recall_meets_paper_bar() {
        let ds = dataset();
        let queries = ds.sample_queries(50, 0.005);
        let corpus = ds.vectors().to_vec();
        let service = HdSearchService::launch(ds, 4, LshConfig::default()).unwrap();
        let client = service.client().unwrap();
        let mut nn_hits = 0usize;
        for q in &queries {
            let got = client.search(q, 10).unwrap();
            let truth = brute_force_knn(&corpus, q, 1);
            if recall_at_k(&truth, &got) == 1.0 {
                nn_hits += 1;
            }
        }
        assert!(
            nn_hits * 100 >= 93 * queries.len(),
            "1-NN recall must be >= 93 % (paper's bar): {nn_hits}/{}",
            queries.len()
        );
    }

    #[test]
    fn single_leaf_deployment_works() {
        let ds = dataset();
        let query = ds.vectors()[5].clone();
        let service = HdSearchService::launch(ds, 1, LshConfig::default()).unwrap();
        let client = service.client().unwrap();
        let got = client.search(&query, 1).unwrap();
        assert_eq!(got[0].id, 5, "exact corpus point must match itself");
        assert_eq!(got[0].distance, 0.0);
    }

    #[test]
    fn hostile_query_vectors_are_refused_with_a_typed_error_and_kill_no_thread() {
        use musuite_rpc::{ServerConfig, Status};
        use std::time::Duration;
        let ds = dataset();
        let query = ds.vectors()[3].clone();
        let mut one_worker = ServerConfig::default();
        one_worker.workers(1);
        let config = ClusterConfig::new()
            .leaves(1)
            .midtier_config(one_worker.clone())
            .leaf_config(one_worker);
        let service = HdSearchService::launch_with(config, ds, LshConfig::default()).unwrap();
        let client = service.client().unwrap();
        let call = |vector: Vec<f32>| {
            let opts = CallOptions::within(Duration::from_secs(5));
            client.typed().call_typed(&SearchQuery { vector, k: 3 }, opts)
        };
        let mut nan = query.clone();
        nan[7] = f32::NAN;
        for hostile in [nan, query[..query.len() - 1].to_vec()] {
            match call(hostile) {
                Err(RpcError::Remote { status: Status::BadRequest, .. }) => {}
                other => panic!("a hostile vector must be a BadRequest, got {other:?}"),
            }
        }
        let leaf_requests: u64 =
            service.cluster().leaf_servers().iter().map(|leaf| leaf.stats().requests()).sum();
        assert_eq!(leaf_requests, 0, "refused before any leaf is contacted");
        // Finite but far out: LSH bins saturate and every distance
        // overflows. Such a query is valid and is answered.
        for coordinate in [3e38f32, -3e38] {
            let answer = call(vec![coordinate; query.len()]);
            assert!(answer.is_ok(), "a huge finite vector must be answered, got {answer:?}");
        }
        // Both tiers' only workers are still alive.
        let answer = call(query).expect("a valid query right after is answered");
        assert_eq!(answer.value[0].id, 3);
    }

    #[test]
    fn k_zero_returns_empty() {
        let ds = dataset();
        let query = ds.vectors()[0].clone();
        let service = HdSearchService::launch(ds, 2, LshConfig::default()).unwrap();
        let client = service.client().unwrap();
        assert!(client.search(&query, 0).unwrap().is_empty());
    }
}
