//! One-call Recommend cluster launcher and typed front-end client.

use crate::leaf::RecommendLeaf;
use crate::midtier::RecommendMidTier;
use crate::nmf::{Nmf, NmfConfig};
use crate::protocol::RatingQuery;
use crate::sparse::CsrMatrix;
use musuite_core::cluster::{Cluster, ClusterConfig, TypedClient};
use musuite_core::degrade::Degraded;
use musuite_data::ratings::RatingsDataset;
use musuite_rpc::{CallOptions, RpcError};
use std::net::SocketAddr;

/// How many shard neighbours vote on each prediction.
pub const DEFAULT_NEIGHBORHOOD: usize = 10;

/// A running Recommend deployment: CF leaves behind an averaging mid-tier.
pub struct RecommendService {
    cluster: Cluster,
    model_rmse: f32,
}

impl RecommendService {
    /// Trains NMF offline on `data` (the paper's "sparse matrix composition
    /// and matrix factorization offline" step), shards users round-robin
    /// over `leaves`, and launches the service.
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to start.
    pub fn launch(
        data: &RatingsDataset,
        leaves: usize,
        nmf: NmfConfig,
    ) -> Result<RecommendService, RpcError> {
        Self::launch_with(ClusterConfig::new().leaves(leaves), data, nmf, DEFAULT_NEIGHBORHOOD)
    }

    /// Launches with full cluster configuration control.
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to start.
    pub fn launch_with(
        config: ClusterConfig,
        data: &RatingsDataset,
        nmf: NmfConfig,
        neighborhood: usize,
    ) -> Result<RecommendService, RpcError> {
        let leaves = config.leaf_count();
        let matrix = CsrMatrix::from_ratings(data.users(), data.items(), data.ratings());
        let model = Nmf::train(&matrix, &nmf);
        let model_rmse = model.rmse(&matrix);
        let cluster = Cluster::launch(config, RecommendMidTier::new(), move |leaf| {
            let shard_users: Vec<usize> =
                (0..data.users()).filter(|user| user % leaves == leaf).collect();
            RecommendLeaf::new(model.clone(), shard_users, neighborhood)
        })?;
        Ok(RecommendService { cluster, model_rmse })
    }

    /// The mid-tier address front-ends connect to.
    pub fn addr(&self) -> SocketAddr {
        self.cluster.midtier_addr()
    }

    /// The underlying cluster (stats, shutdown).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Training-set RMSE of the offline NMF model (diagnostics).
    pub fn model_rmse(&self) -> f32 {
        self.model_rmse
    }

    /// Connects a typed client.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection fails.
    pub fn client(&self) -> Result<RecommendClient, RpcError> {
        Ok(RecommendClient { inner: self.cluster.client()? })
    }

    /// Shuts the deployment down. Idempotent.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

impl std::fmt::Debug for RecommendService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecommendService")
            .field("addr", &self.addr())
            .field("model_rmse", &self.model_rmse)
            .finish()
    }
}

/// A typed rating-prediction client.
pub struct RecommendClient {
    inner: TypedClient<RatingQuery, Degraded<f32>>,
}

impl RecommendClient {
    /// Predicts `user`'s rating of `item`, in `[1, 5]`, dropping the
    /// degradation envelope (use
    /// [`predict_with_status`](RecommendClient::predict_with_status) to
    /// see whether shards were missing).
    ///
    /// # Errors
    ///
    /// Returns transport errors, unknown-id errors, or a whole-fleet
    /// failure.
    pub fn predict(&self, user: u32, item: u32) -> Result<f32, RpcError> {
        Ok(self.predict_with_status(user, item)?.value)
    }

    /// Predicts a rating along with the shard accounting: a degraded
    /// estimate averages only the shards that answered.
    ///
    /// # Errors
    ///
    /// Returns transport errors, unknown-id errors, or a whole-fleet
    /// failure.
    pub fn predict_with_status(&self, user: u32, item: u32) -> Result<Degraded<f32>, RpcError> {
        self.inner.call_typed(&RatingQuery { user, item }, CallOptions::default())
    }

    /// The underlying typed client (for async use in load generators).
    pub fn typed(&self) -> &TypedClient<RatingQuery, Degraded<f32>> {
        &self.inner
    }
}

impl std::fmt::Debug for RecommendClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecommendClient").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_data::ratings::RatingsConfig;

    fn dataset() -> RatingsDataset {
        RatingsDataset::generate(&RatingsConfig {
            users: 80,
            items: 60,
            rank: 4,
            observations: 2_000,
            noise: 0.05,
            seed: 31,
        })
    }

    #[test]
    fn end_to_end_prediction_quality() {
        let data = dataset();
        let service = RecommendService::launch(&data, 4, NmfConfig::default()).unwrap();
        assert!(service.model_rmse() < 0.5, "offline model fit: {}", service.model_rmse());
        let client = service.client().unwrap();
        let queries = data.sample_queries(60);
        let mse: f32 = queries
            .iter()
            .map(|&(user, item)| {
                let predicted = client.predict(user, item).unwrap();
                assert!((1.0..=5.0).contains(&predicted));
                let truth = data.planted_value(user as usize, item as usize);
                (predicted - truth) * (predicted - truth)
            })
            .sum::<f32>()
            / queries.len() as f32;
        assert!(mse < 1.0, "end-to-end MSE: {mse}");
    }

    #[test]
    fn unknown_ids_rejected() {
        let data = dataset();
        let service = RecommendService::launch(&data, 2, NmfConfig::default()).unwrap();
        let client = service.client().unwrap();
        assert!(client.predict(10_000, 0).is_err());
        assert!(client.predict(0, 10_000).is_err());
    }

    #[test]
    fn shard_count_changes_prediction_little() {
        let data = dataset();
        let one = RecommendService::launch(&data, 1, NmfConfig::default()).unwrap();
        let four = RecommendService::launch(&data, 4, NmfConfig::default()).unwrap();
        let c1 = one.client().unwrap();
        let c4 = four.client().unwrap();
        for &(user, item) in data.sample_queries(20).iter() {
            let a = c1.predict(user, item).unwrap();
            let b = c4.predict(user, item).unwrap();
            // Different shardings see different neighbourhoods; estimates
            // must stay within one rating point of each other.
            assert!((a - b).abs() < 1.0, "sharding instability: {a} vs {b}");
        }
    }
}
