//! The HDSearch mid-tier: LSH lookup, candidate routing, k-NN merge.
//!
//! Request path (paper Fig. 3): (1) LSH lookup over the in-memory tables,
//! (2) map candidate point ids to the leaves holding them, (3) fan out one
//! RPC per leaf carrying its candidate list. Response path: merge the
//! leaves' distance-sorted lists into the final k-NN.

use crate::lsh::{LshConfig, LshIndex};
use crate::merge::merge_top_k;
use crate::protocol::{check_query, LeafSearchResponse, Neighbor, SearchQuery};
use musuite_core::degrade::Degraded;
use musuite_core::error::ServiceError;
use musuite_core::midtier::{MidTierHandler, Plan};
use musuite_core::shard::RoundRobinMap;
use musuite_rpc::RpcError;

/// The LSH-routing mid-tier microservice.
#[derive(Debug)]
pub struct HdSearchMidTier {
    index: LshIndex,
    id_map: RoundRobinMap,
}

impl HdSearchMidTier {
    /// Builds the mid-tier LSH tables over the full corpus. `id_map`
    /// describes how global ids map onto leaves (must match the sharding
    /// used to build the leaves).
    pub fn build(
        dim: usize,
        config: LshConfig,
        corpus: &[Vec<f32>],
        id_map: RoundRobinMap,
    ) -> HdSearchMidTier {
        let ids: Vec<u64> = (0..corpus.len() as u64).collect();
        HdSearchMidTier { index: LshIndex::build(dim, config, corpus, &ids), id_map }
    }

    /// The underlying LSH index (diagnostics).
    pub fn index(&self) -> &LshIndex {
        &self.index
    }
}

impl MidTierHandler for HdSearchMidTier {
    type Request = SearchQuery;
    type Response = Degraded<Vec<Neighbor>>;
    // The query vector — often the largest part of a leaf request by far —
    // is shared state: it is serialized once per fan-out and every leaf
    // payload references that single buffer. The per-leaf suffix carries
    // only that leaf's candidate list and `k`. On the wire each leaf still
    // sees `vector ++ candidates ++ k`, i.e. a `LeafSearchRequest`.
    type SharedRequest = Vec<f32>;
    type LeafRequest = (Vec<u64>, u32);
    type LeafResponse = LeafSearchResponse;

    fn plan(&self, request: &SearchQuery, leaves: usize) -> Plan<Vec<f32>, (Vec<u64>, u32)> {
        // A vector that cannot be searched reaches no leaf (whose breaker
        // its refusal would charge); `merge` answers it.
        if check_query(&request.vector, self.index.dim()).is_err() {
            return Plan::new(Vec::new(), Vec::new());
        }
        // 1. LSH lookup (the mid-tier's own compute).
        let candidates = self.index.candidates(&request.vector);
        // 2. Route each candidate to the leaf holding its vector.
        let mut per_leaf: Vec<Vec<u64>> = vec![Vec::new(); leaves];
        for id in candidates {
            let leaf = self.id_map.leaf_of(id);
            if leaf < leaves {
                per_leaf[leaf].push(self.id_map.local_index(id));
            }
        }
        // 3. One RPC per leaf that has candidates.
        let targets = per_leaf
            .into_iter()
            .enumerate()
            .filter(|(_, candidates)| !candidates.is_empty())
            .map(|(leaf, candidates)| (leaf, (candidates, request.k)))
            .collect();
        Plan::new(request.vector.clone(), targets)
    }

    fn merge(
        &self,
        request: SearchQuery,
        replies: Vec<Result<LeafSearchResponse, RpcError>>,
    ) -> Result<Degraded<Vec<Neighbor>>, ServiceError> {
        if replies.is_empty() {
            check_query(&request.vector, self.index.dim())?;
        }
        let total = replies.len();
        let mut lists = Vec::with_capacity(total);
        for reply in replies.into_iter().flatten() {
            lists.push(reply.neighbors);
        }
        let ok = lists.len();
        // Partial results are acceptable (k-NN quality degrades gracefully)
        // unless every contacted leaf failed.
        if ok == 0 && total > 0 {
            return Err(ServiceError::unavailable("all leaves failed"));
        }
        let response =
            Degraded::partial(merge_top_k(lists, request.k as usize), ok as u32, total as u32);
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_data::vectors::{VectorDataset, VectorDatasetConfig};

    fn corpus() -> VectorDataset {
        VectorDataset::generate(&VectorDatasetConfig {
            points: 1_000,
            dim: 16,
            clusters: 10,
            spread: 0.05,
            seed: 11,
        })
    }

    fn midtier(ds: &VectorDataset, leaves: usize) -> HdSearchMidTier {
        HdSearchMidTier::build(
            ds.dim(),
            LshConfig::default(),
            ds.vectors(),
            RoundRobinMap::new(leaves),
        )
    }

    #[test]
    fn plan_routes_candidates_to_owning_leaves() {
        let ds = corpus();
        let mid = midtier(&ds, 4);
        let query = SearchQuery { vector: ds.vectors()[0].clone(), k: 5 };
        let plan = mid.plan(&query, 4);
        assert!(!plan.is_empty(), "an indexed point must produce candidates");
        assert_eq!(plan.shared, query.vector, "query vector is the shared state");
        for (leaf, (candidates, k)) in &plan.targets {
            assert!(*leaf < 4);
            assert!(!candidates.is_empty());
            assert_eq!(*k, 5);
            // Every candidate routed to leaf L must belong to leaf L.
            for &local in candidates {
                let global = RoundRobinMap::new(4).global_id(*leaf, local);
                assert_eq!(RoundRobinMap::new(4).leaf_of(global), *leaf);
            }
        }
    }

    #[test]
    fn merge_combines_and_truncates() {
        let ds = corpus();
        let mid = midtier(&ds, 2);
        let replies = vec![
            Ok(LeafSearchResponse {
                neighbors: vec![
                    Neighbor { id: 0, distance: 0.1 },
                    Neighbor { id: 2, distance: 0.3 },
                ],
            }),
            Ok(LeafSearchResponse { neighbors: vec![Neighbor { id: 1, distance: 0.2 }] }),
        ];
        let query = SearchQuery { vector: ds.vectors()[0].clone(), k: 2 };
        let merged = mid.merge(query, replies).unwrap();
        assert!(!merged.degraded, "all shards answered");
        assert_eq!(merged.value.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn merge_tolerates_partial_failure() {
        let ds = corpus();
        let mid = midtier(&ds, 2);
        let replies = vec![
            Ok(LeafSearchResponse { neighbors: vec![Neighbor { id: 4, distance: 0.5 }] }),
            Err(RpcError::TimedOut),
        ];
        let query = SearchQuery { vector: ds.vectors()[0].clone(), k: 3 };
        let merged = mid.merge(query, replies).unwrap();
        assert!(merged.degraded, "a lost shard must be reported");
        assert_eq!((merged.shards_ok, merged.shards_total), (1, 2));
        assert_eq!(merged.value.len(), 1);
    }

    #[test]
    fn merge_fails_when_all_leaves_fail() {
        let ds = corpus();
        let mid = midtier(&ds, 2);
        let replies = vec![Err(RpcError::TimedOut), Err(RpcError::ConnectionClosed)];
        let query = SearchQuery { vector: ds.vectors()[0].clone(), k: 3 };
        assert!(mid.merge(query, replies).is_err());
    }
}
