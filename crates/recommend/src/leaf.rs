//! The Recommend leaf: collaborative filtering over a user shard.
//!
//! "Leaves perform collaborative filtering by first performing sparse
//! matrix composition and matrix factorization offline. During run-time,
//! they perform collaborative filtering on their corresponding matrix V's
//! shard using the allknn neighbourhood approach to predict movie ratings"
//! (paper §III-D). The offline product is the trained [`Nmf`]; at query
//! time the leaf finds the query user's nearest neighbours *within its
//! user shard* and returns their similarity-weighted rating for the item.

use crate::knn::{best_first, for_each_nearest_users, k_nearest_users, weighted_rating};
use crate::nmf::Nmf;
use crate::protocol::{LeafRating, RatingQuery};
use musuite_core::error::ServiceError;
use musuite_core::leaf::LeafHandler;
use musuite_core::topk::top_k_by;
use std::cell::RefCell;

thread_local! {
    /// The calling thread's batch of queries as `(user, position)` pairs,
    /// sorted so that a user's queries sit together, reused by every
    /// [`RecommendLeaf::predict_batch`] on it (16 B per query).
    static BY_USER: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// A leaf predicting ratings from its shard's user neighbourhood.
#[derive(Debug)]
pub struct RecommendLeaf {
    model: Nmf,
    shard_users: Vec<usize>,
    neighborhood: usize,
}

impl RecommendLeaf {
    /// Creates a leaf serving `shard_users` (indices into the model's user
    /// matrix) with `neighborhood`-sized kNN voting.
    ///
    /// # Panics
    ///
    /// Panics if `neighborhood` is zero or a shard user is out of range.
    pub fn new(model: Nmf, shard_users: Vec<usize>, neighborhood: usize) -> RecommendLeaf {
        assert!(neighborhood > 0, "neighbourhood size must be positive");
        let users = model.user_matrix().len();
        assert!(shard_users.iter().all(|&u| u < users), "shard users must exist in the model");
        RecommendLeaf { model, shard_users, neighborhood }
    }

    /// Number of users on this shard.
    pub fn shard_len(&self) -> usize {
        self.shard_users.len()
    }

    /// Recommends the `n` items this shard's neighbourhood predicts the
    /// user would rate highest — the extension the paper sketches ("this
    /// algorithm can also be further extended to recommend items which
    /// were not rated by the user"). Returns `(item, predicted rating)`
    /// pairs, best first.
    pub fn recommend_top_n(&self, user: usize, n: usize) -> Vec<(u32, f32)> {
        let items = self.model.item_matrix().first().map_or(0, Vec::len);
        let query_factors = self.model.user_factors(user);
        let neighbors = k_nearest_users(
            self.model.user_matrix(),
            query_factors,
            Some(user),
            &self.shard_users,
            self.neighborhood,
        );
        let mut scored: Vec<(u32, f32)> = (0..items)
            .map(|item| (item as u32, self.vote(user, item, &neighbors).rating))
            .collect();
        let kept = top_k_by(&mut scored, n, best_first).len();
        scored.truncate(kept);
        scored
    }

    /// Predicts `user`'s rating of `item` from this shard's neighbourhood.
    pub fn predict(&self, user: usize, item: usize) -> LeafRating {
        let neighbors = k_nearest_users(
            self.model.user_matrix(),
            self.model.user_factors(user),
            Some(user),
            &self.shard_users,
            self.neighborhood,
        );
        self.vote(user, item, &neighbors)
    }

    /// Answers a whole batch of queries with **one pass over the shard's
    /// factor matrix**: the batch's distinct valid query users share one
    /// [`for_each_nearest_users`] sweep (a user appearing in several
    /// queries gets one neighbourhood, not one per query), then each query
    /// votes over its user's neighbourhood, where the sweep's scratch holds
    /// it, exactly as [`RecommendLeaf::predict`] does — bit-identical
    /// ratings. A query naming an unknown user or item is refused alone,
    /// in its place, with the error [`LeafHandler::handle`] gives it.
    pub fn predict_batch(&self, queries: &[RatingQuery]) -> Vec<Result<LeafRating, ServiceError>> {
        // Taken, not borrowed: a vote runs inside the sweep.
        let mut by_user = BY_USER.take();
        by_user.clear();
        let mut ratings: Vec<Result<LeafRating, ServiceError>> = queries
            .iter()
            .enumerate()
            .map(|(position, query)| {
                self.validate(query)?;
                by_user.push((query.user as usize, position));
                Ok(LeafRating { rating: 0.0, neighbors: 0 })
            })
            .collect();
        by_user.sort_unstable();
        let same_user = |a: &(usize, usize), b: &(usize, usize)| a.0 == b.0;
        let mut users: Vec<(&[f32], Option<usize>)> = Vec::with_capacity(by_user.len());
        users.extend(
            by_user
                .chunk_by(same_user)
                .map(|run| (self.model.user_factors(run[0].0), Some(run[0].0))),
        );
        let mut runs = by_user.chunk_by(same_user);
        for_each_nearest_users(
            self.model.user_matrix(),
            &users,
            &self.shard_users,
            self.neighborhood,
            |neighbors| {
                for &(user, position) in runs.next().expect("one run per distinct user") {
                    let item = queries[position].item as usize;
                    ratings[position] = Ok(self.vote(user, item, neighbors));
                }
            },
        );
        BY_USER.set(by_user);
        ratings
    }

    /// `user`'s rating of `item`, weighted by `neighbors`' similarity; with
    /// no usable neighbourhood on this shard, the model's own
    /// reconstruction with zero voting weight.
    fn vote(&self, user: usize, item: usize, neighbors: &[(usize, f32)]) -> LeafRating {
        let votes = neighbors
            .iter()
            .map(|&(neighbor, similarity)| (similarity, self.model.predict(neighbor, item)));
        match weighted_rating(votes) {
            Some(rating) => {
                LeafRating { rating: rating.clamp(1.0, 5.0), neighbors: neighbors.len() as u32 }
            }
            None => {
                LeafRating { rating: self.model.predict(user, item).clamp(1.0, 5.0), neighbors: 0 }
            }
        }
    }

    /// `Ok` if `request` names a user and item the model knows.
    fn validate(&self, request: &RatingQuery) -> Result<(), ServiceError> {
        let users = self.model.user_matrix().len();
        let items = self.model.item_matrix().first().map_or(0, Vec::len);
        if request.user as usize >= users {
            return Err(ServiceError::bad_request(format!("unknown user {}", request.user)));
        }
        if request.item as usize >= items {
            return Err(ServiceError::bad_request(format!("unknown item {}", request.item)));
        }
        Ok(())
    }
}

impl LeafHandler for RecommendLeaf {
    type Request = RatingQuery;
    type Response = LeafRating;

    fn handle(&self, request: RatingQuery) -> Result<LeafRating, ServiceError> {
        self.validate(&request)?;
        Ok(self.predict(request.user as usize, request.item as usize))
    }

    /// One neighbourhood search over the shard takes 22–46 µs, more than a
    /// write's 20 µs for every request (EXPERIMENTS.md, "Which handlers run
    /// long").
    fn runs_long(&self, _request: &RatingQuery) -> bool {
        true
    }

    const BATCH_KERNEL: bool = true;

    fn handle_batch(&self, requests: Vec<RatingQuery>) -> Vec<Result<LeafRating, ServiceError>> {
        self.predict_batch(&requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmf::NmfConfig;
    use crate::sparse::CsrMatrix;
    use musuite_data::ratings::{RatingsConfig, RatingsDataset};

    fn trained() -> (RatingsDataset, Nmf) {
        let data = RatingsDataset::generate(&RatingsConfig {
            users: 60,
            items: 40,
            rank: 4,
            observations: 1_500,
            noise: 0.05,
            seed: 23,
        });
        let v = CsrMatrix::from_ratings(data.users(), data.items(), data.ratings());
        let model = Nmf::train(&v, &NmfConfig { rank: 6, iterations: 60, seed: 1 });
        (data, model)
    }

    #[test]
    fn predictions_stay_in_rating_range() {
        let (data, model) = trained();
        let leaf = RecommendLeaf::new(model, (0..30).collect(), 8);
        assert_eq!(leaf.shard_len(), 30);
        for &(user, item) in data.sample_queries(50).iter() {
            let prediction = leaf.predict(user as usize, item as usize);
            assert!((1.0..=5.0).contains(&prediction.rating));
            assert!(prediction.neighbors <= 8);
        }
    }

    #[test]
    fn neighborhood_prediction_tracks_planted_truth() {
        let (data, model) = trained();
        let leaf = RecommendLeaf::new(model, (0..60).collect(), 10);
        let queries = data.sample_queries(100);
        let mse: f32 = queries
            .iter()
            .map(|&(user, item)| {
                let predicted = leaf.predict(user as usize, item as usize).rating;
                let truth = data.planted_value(user as usize, item as usize);
                (predicted - truth) * (predicted - truth)
            })
            .sum::<f32>()
            / queries.len() as f32;
        assert!(mse < 1.0, "neighbourhood prediction must beat blind guessing: {mse}");
    }

    #[test]
    fn handler_validates_ids() {
        let (_, model) = trained();
        let leaf = RecommendLeaf::new(model, (0..10).collect(), 4);
        assert!(leaf.handle(RatingQuery { user: 9999, item: 0 }).is_err());
        assert!(leaf.handle(RatingQuery { user: 0, item: 9999 }).is_err());
        assert!(leaf.handle(RatingQuery { user: 0, item: 0 }).is_ok());
    }

    #[test]
    fn top_n_recommendations_are_ranked_and_consistent() {
        let (data, model) = trained();
        let leaf = RecommendLeaf::new(model, (0..60).collect(), 10);
        let top = leaf.recommend_top_n(5, 10);
        assert_eq!(top.len(), 10);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1), "ranked best-first");
        // Every recommendation's score equals the point prediction.
        for &(item, rating) in &top {
            let point = leaf.predict(5, item as usize);
            assert!((point.rating - rating).abs() < 1e-5);
        }
        // The top recommendation beats the planted average comfortably
        // for at least some user (sanity on ranking signal).
        let _ = data;
        assert!(top[0].1 >= 3.0, "top pick should be a liked item: {}", top[0].1);
    }

    #[test]
    fn top_n_truncates_to_item_count() {
        let (_, model) = trained();
        let leaf = RecommendLeaf::new(model, (0..20).collect(), 4);
        let all = leaf.recommend_top_n(0, 10_000);
        assert_eq!(all.len(), 40, "cannot recommend more items than exist");
        assert!(leaf.recommend_top_n(0, 0).is_empty());
    }

    #[test]
    fn batched_predictions_match_sequential() {
        let (data, model) = trained();
        let leaf = RecommendLeaf::new(model, (0..30).collect(), 8);
        // Repeat a user across queries so the shared-neighbourhood path
        // is exercised alongside distinct users.
        let mut queries: Vec<RatingQuery> = data
            .sample_queries(20)
            .iter()
            .map(|&(user, item)| RatingQuery { user, item })
            .collect();
        queries.push(queries[0]);
        queries.push(RatingQuery { user: queries[0].user, item: queries[1].item });
        let batched = leaf.predict_batch(&queries);
        for (query, batch) in queries.iter().zip(&batched) {
            let batch = batch.as_ref().unwrap();
            let sequential = leaf.predict(query.user as usize, query.item as usize);
            assert_eq!(batch.rating.to_bits(), sequential.rating.to_bits(), "bit-identical");
            assert_eq!(batch.neighbors, sequential.neighbors);
        }
    }

    #[test]
    fn batched_handler_isolates_invalid_member() {
        let (_, model) = trained();
        let leaf = RecommendLeaf::new(model, (0..10).collect(), 4);
        let results = LeafHandler::handle_batch(
            &leaf,
            vec![
                RatingQuery { user: 0, item: 0 },
                RatingQuery { user: 9999, item: 0 },
                RatingQuery { user: 1, item: 9999 },
                RatingQuery { user: 2, item: 3 },
            ],
        );
        assert!(results[0].is_ok());
        assert!(results[1].as_ref().unwrap_err().message().contains("unknown user"));
        assert!(results[2].as_ref().unwrap_err().message().contains("unknown item"));
        assert_eq!(
            results[3].as_ref().unwrap().rating.to_bits(),
            leaf.predict(2, 3).rating.to_bits()
        );
    }

    #[test]
    fn query_user_outside_shard_still_served() {
        let (_, model) = trained();
        // Shard holds users 0..10; user 50 queries against their factors.
        let leaf = RecommendLeaf::new(model, (0..10).collect(), 4);
        let prediction = leaf.predict(50, 3);
        assert!((1.0..=5.0).contains(&prediction.rating));
        assert!(prediction.neighbors > 0, "neighbours come from the shard");
    }
}
