//! The HDSearch mid-tier: LSH lookup, candidate routing, k-NN merge.
//!
//! Request path (paper Fig. 3): (1) LSH lookup over the in-memory tables,
//! (2) map candidate point ids to the leaves holding them, (3) fan out one
//! RPC per leaf carrying its candidate list. Response path: merge the
//! leaves' distance-sorted lists into the final k-NN.

use crate::lsh::{LshConfig, LshIndex};
use crate::merge::merge_top_k;
use crate::protocol::{check_query, LeafSearchResponse, Neighbor, SearchQuery};
use musuite_codec::Seq;
use musuite_core::degrade::Degraded;
use musuite_core::error::ServiceError;
use musuite_core::midtier::{MidTierHandler, Plan, Replies};
use musuite_core::shard::RoundRobinMap;
use musuite_rpc::InlineList;
use std::cell::RefCell;

thread_local! {
    /// The calling worker's copy of the checked query vector (`dim`
    /// floats, which the frame holds unaligned), its candidate list (at
    /// most 8 B per indexed point; a few KB at the benchmark's scale) and
    /// its map from a leaf to the candidates it holds, then to its target
    /// (one word per leaf), reused by every `plan` on it.
    static SCRATCH: RefCell<(Vec<f32>, Vec<u64>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// A query as the mid-tier reads it: the vector is a view of the frame.
type QueryView = SearchQuery<Seq<f32>>;

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
    type Request = QueryView;
    type Response = Degraded<Vec<Neighbor>>;
    // The query vector — often the largest part of a leaf request by far —
    // is shared state: the plan holds the frame's view of it by reference
    // count and encodes it into every leaf frame. The per-leaf suffix
    // carries only that leaf's candidate list and `k`. On the wire each
    // leaf sees `vector ++ candidates ++ k`, i.e. a `LeafSearchRequest`.
    type SharedRequest = Seq<f32>;
    type LeafRequest = (Vec<u64>, u32);
    // Leaf replies are merged from views of their frames.
    type LeafResponse = LeafSearchResponse<Seq<Neighbor>>;

    fn plan(&self, request: &QueryView, leaves: usize) -> Plan<Seq<f32>, (Vec<u64>, u32)> {
        // A vector that cannot be searched reaches no leaf (whose breaker
        // its refusal would charge); `merge` answers it.
        if check_query(request.vector.iter(), self.index.dim()).is_err() {
            return Plan::new(Seq::default(), []);
        }
        SCRATCH.with_borrow_mut(|(query, candidates, slots)| {
            // 1. LSH lookup (the mid-tier's own compute).
            request.vector.copy_into(query);
            self.index.candidates_into(query, candidates);
            // 2. Count each leaf's candidates, then give every leaf that has
            // some one list of exactly that size; `slots` then maps a leaf
            // to its target. The target list is held in the plan or, wider
            // than that, boxed once at its size.
            slots.clear();
            slots.resize(leaves, 0);
            for &id in candidates.iter() {
                if let Some(count) = slots.get_mut(self.id_map.leaf_of(id)) {
                    *count += 1;
                }
            }
            let mut plan = Plan::new(request.vector.clone(), []);
            plan.targets = InlineList::with_capacity(slots.iter().filter(|&&n| n > 0).count());
            for (leaf, slot) in slots.iter_mut().enumerate() {
                if *slot > 0 {
                    plan.targets.push((leaf, (Vec::with_capacity(*slot), request.k)));
                    *slot = plan.targets.len() - 1;
                }
            }
            // 3. Route each candidate to the leaf holding its vector, in
            // first-seen order: one RPC per leaf that has candidates.
            for &id in candidates.iter() {
                let leaf = self.id_map.leaf_of(id);
                if leaf < leaves {
                    let (_, (list, _)) = &mut plan.targets[slots[leaf]];
                    list.push(self.id_map.local_index(id));
                }
            }
            plan
        })
    }

    /// An LSH lookup and the routing of its candidates take 15–36 µs on
    /// the `hdsearch_knn` stream, 25–29 µs in the median: past a write's
    /// 20 µs for nine queries in ten, and unknown until the lookup has run.
    fn runs_long(&self, _request: &QueryView) -> bool {
        true
    }

    fn merge(
        &self,
        request: QueryView,
        replies: impl Replies<LeafSearchResponse<Seq<Neighbor>>>,
    ) -> Result<Degraded<Vec<Neighbor>>, ServiceError> {
        if replies.is_empty() {
            check_query(request.vector.iter(), self.index.dim())?;
        }
        let total = replies.len();
        let ok = replies.iter().filter(|reply| reply.is_ok()).count();
        // Partial results are acceptable (k-NN quality degrades gracefully)
        // unless every contacted leaf failed.
        if ok == 0 && total > 0 {
            return Err(ServiceError::unavailable("all leaves failed"));
        }
        let lists = replies.into_iter().flatten().map(|reply| reply.neighbors);
        Ok(Degraded::partial(merge_top_k(lists, request.k as usize), ok as u32, total as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::{from_bytes, to_bytes, Decode, Encode};
    use musuite_data::vectors::{VectorDataset, VectorDatasetConfig};
    use musuite_rpc::RpcError;

    /// `owned` as the mid-tier reads it off the wire.
    fn view<T: Decode>(owned: &impl Encode) -> T {
        from_bytes(&to_bytes(owned)).unwrap()
    }

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
        let plan = mid.plan(&view(&query), 4);
        assert!(!plan.is_empty(), "an indexed point must produce candidates");
        assert_eq!(plan.shared.to_vec(), query.vector, "query vector is the shared state");
        for (leaf, (candidates, k)) in plan.targets.iter() {
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
            Ok(view(&LeafSearchResponse {
                neighbors: vec![
                    Neighbor { id: 0, distance: 0.1 },
                    Neighbor { id: 2, distance: 0.3 },
                ],
            })),
            Ok(view(&LeafSearchResponse { neighbors: vec![Neighbor { id: 1, distance: 0.2 }] })),
        ];
        let query = SearchQuery { vector: ds.vectors()[0].clone(), k: 2 };
        let merged = mid.merge(view(&query), replies).unwrap();
        assert!(!merged.degraded, "all shards answered");
        assert_eq!(merged.value.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn merge_tolerates_partial_failure() {
        let ds = corpus();
        let mid = midtier(&ds, 2);
        let replies = vec![
            Ok(view(&LeafSearchResponse { neighbors: vec![Neighbor { id: 4, distance: 0.5 }] })),
            Err(RpcError::TimedOut),
        ];
        let query = SearchQuery { vector: ds.vectors()[0].clone(), k: 3 };
        let merged = mid.merge(view(&query), replies).unwrap();
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
        assert!(mid.merge(view(&query), replies).is_err());
    }
}
