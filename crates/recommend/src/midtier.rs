//! The Recommend mid-tier: forward the query, average leaf ratings.
//!
//! "Recommend uses the mid-tier microservice primarily as a forwarding
//! service … item ratings returned by the leaves are then averaged and
//! sent back to the client" (paper §III-D). The average here is weighted
//! by each shard's neighbour count so empty shards do not dilute the
//! estimate; an unweighted variant is what the paper literally states and
//! the weighting reduces to it when shards are balanced.

use crate::protocol::{LeafRating, RatingQuery};
use musuite_core::degrade::Degraded;
use musuite_core::error::ServiceError;
use musuite_core::midtier::{MidTierHandler, Plan, Replies};

/// The forwarding-and-averaging mid-tier microservice.
#[derive(Debug, Default)]
pub struct RecommendMidTier;

impl RecommendMidTier {
    /// Creates the mid-tier handler.
    pub fn new() -> RecommendMidTier {
        RecommendMidTier
    }
}

impl MidTierHandler for RecommendMidTier {
    type Request = RatingQuery;
    type Response = Degraded<f32>;
    // The user/item pair goes to every shard verbatim: encode it once and
    // share the buffer across the fan-out.
    type SharedRequest = RatingQuery;
    type LeafRequest = ();
    type LeafResponse = LeafRating;

    fn plan(&self, request: &RatingQuery, leaves: usize) -> Plan<RatingQuery, ()> {
        Plan::broadcast(*request, (), leaves)
    }

    fn merge(
        &self,
        request: RatingQuery,
        replies: impl Replies<LeafRating>,
    ) -> Result<Degraded<f32>, ServiceError> {
        let total = replies.len();
        let mut weighted_sum = 0.0f32;
        let mut total_weight = 0.0f32;
        let mut fallback_sum = 0.0f32;
        let mut fallback_count = 0u32;
        let mut ok = 0usize;
        for reply in replies.into_iter().flatten() {
            ok += 1;
            if reply.neighbors > 0 {
                weighted_sum += reply.rating * reply.neighbors as f32;
                total_weight += reply.neighbors as f32;
            } else {
                fallback_sum += reply.rating;
                fallback_count += 1;
            }
        }
        let envelope = |rating: f32| Degraded::partial(rating, ok as u32, total as u32);
        if total_weight > 0.0 {
            Ok(envelope(weighted_sum / total_weight))
        } else if fallback_count > 0 {
            Ok(envelope(fallback_sum / fallback_count as f32))
        } else if ok > 0 {
            Err(ServiceError::new(format!(
                "no shard produced a rating for user {} item {}",
                request.user, request.item
            )))
        } else {
            Err(ServiceError::unavailable("all leaves failed"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_rpc::RpcError;

    fn query() -> RatingQuery {
        RatingQuery { user: 1, item: 2 }
    }

    #[test]
    fn plan_broadcasts() {
        let mid = RecommendMidTier::new();
        let plan = mid.plan(&query(), 3);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.shared, query(), "the query is the shared state");
        let leaves: Vec<usize> = plan.targets.iter().map(|(leaf, ())| *leaf).collect();
        assert_eq!(leaves, vec![0, 1, 2]);
    }

    #[test]
    fn merge_weights_by_neighbor_count() {
        let mid = RecommendMidTier::new();
        let merged = mid
            .merge(
                query(),
                vec![
                    Ok(LeafRating { rating: 5.0, neighbors: 3 }),
                    Ok(LeafRating { rating: 1.0, neighbors: 1 }),
                ],
            )
            .unwrap();
        assert!((merged.value - 4.0).abs() < 1e-6); // (5·3 + 1·1) / 4
        assert!(!merged.degraded);
    }

    #[test]
    fn zero_neighbor_shards_used_only_as_fallback() {
        let mid = RecommendMidTier::new();
        let merged = mid
            .merge(
                query(),
                vec![
                    Ok(LeafRating { rating: 2.0, neighbors: 0 }),
                    Ok(LeafRating { rating: 4.0, neighbors: 5 }),
                ],
            )
            .unwrap();
        assert!((merged.value - 4.0).abs() < 1e-6, "voting shard outweighs fallback");
        let all_fallback = mid
            .merge(
                query(),
                vec![
                    Ok(LeafRating { rating: 2.0, neighbors: 0 }),
                    Ok(LeafRating { rating: 4.0, neighbors: 0 }),
                ],
            )
            .unwrap();
        assert!((all_fallback.value - 3.0).abs() < 1e-6);
    }

    #[test]
    fn merge_tolerates_partial_failure() {
        let mid = RecommendMidTier::new();
        let merged = mid
            .merge(
                query(),
                vec![Err(RpcError::TimedOut), Ok(LeafRating { rating: 3.5, neighbors: 2 })],
            )
            .unwrap();
        assert!((merged.value - 3.5).abs() < 1e-6);
        assert!(merged.degraded, "a lost shard must be reported");
        assert_eq!((merged.shards_ok, merged.shards_total), (1, 2));
    }

    #[test]
    fn merge_fails_when_all_leaves_fail() {
        let mid = RecommendMidTier::new();
        assert!(mid
            .merge(query(), vec![Err(RpcError::TimedOut), Err(RpcError::ConnectionClosed)])
            .is_err());
    }
}
