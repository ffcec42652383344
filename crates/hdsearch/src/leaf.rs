//! The HDSearch leaf: exact distance computation over candidate lists.
//!
//! "Leaf microservers compare query feature vectors against point lists
//! sent by the mid-tier. We use the Euclidean distance metric" (paper
//! §III-A). The leaf owns one shard of the feature vectors; the mid-tier
//! sends local candidate indices, the leaf scores them and returns the
//! top-k with ids translated back to global space.

use crate::distance::euclidean_sq;
use crate::protocol::{check_query, LeafSearchRequest, LeafSearchResponse, Neighbor};
use musuite_core::error::ServiceError;
use musuite_core::leaf::LeafHandler;
use musuite_core::shard::RoundRobinMap;

/// A leaf holding one shard of feature vectors.
#[derive(Debug)]
pub struct HdSearchLeaf {
    vectors: Vec<Vec<f32>>,
    leaf_index: usize,
    id_map: RoundRobinMap,
    dim: usize,
}

impl HdSearchLeaf {
    /// Creates a leaf owning `vectors`, which are the round-robin shard
    /// `leaf_index` of a corpus distributed over `id_map.shards()` leaves.
    ///
    /// # Panics
    ///
    /// Panics if vectors disagree in dimensionality.
    pub fn new(vectors: Vec<Vec<f32>>, leaf_index: usize, id_map: RoundRobinMap) -> HdSearchLeaf {
        let dim = vectors.first().map_or(0, Vec::len);
        assert!(
            vectors.iter().all(|v| v.len() == dim),
            "all shard vectors must share dimensionality"
        );
        HdSearchLeaf { vectors, leaf_index, id_map, dim }
    }

    /// Number of vectors on this shard.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Returns `true` if the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Scores `candidates` (local indices) against `query`, returning the
    /// top-`k` as globally-identified, distance-sorted neighbours.
    pub fn search(&self, query: &[f32], candidates: &[u64], k: usize) -> Vec<Neighbor> {
        let mut scored: Vec<Neighbor> = candidates
            .iter()
            .filter_map(|&local| {
                let vector = self.vectors.get(local as usize)?;
                Some(Neighbor {
                    id: self.id_map.global_id(self.leaf_index, local),
                    distance: euclidean_sq(query, vector),
                })
            })
            .collect();
        sort_top_k(&mut scored, k);
        scored
    }

    /// Answers a whole batch of searches in **one sweep over the shard's
    /// candidate vectors**: candidate lists are inverted into a
    /// vector→queries map, so each distinct feature vector is fetched
    /// once and scored against every query in the batch that references
    /// it. Per query, the result is bit-identical to
    /// [`HdSearchLeaf::search`] — the same `(query, vector)` distances
    /// are computed, and the `(distance, global id)` sort key orders
    /// equal elements identically regardless of scoring order.
    pub fn search_batch(&self, queries: &[LeafSearchRequest]) -> Vec<Vec<Neighbor>> {
        let mut wanted: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
        for (slot, request) in queries.iter().enumerate() {
            for &local in &request.candidates {
                wanted.entry(local).or_default().push(slot);
            }
        }
        let mut scored: Vec<Vec<Neighbor>> = (0..queries.len()).map(|_| Vec::new()).collect();
        for (&local, queriers) in &wanted {
            let Some(vector) = self.vectors.get(local as usize) else { continue };
            let id = self.id_map.global_id(self.leaf_index, local);
            for &slot in queriers {
                scored[slot]
                    .push(Neighbor { id, distance: euclidean_sq(&queries[slot].vector, vector) });
            }
        }
        for (request, neighbors) in queries.iter().zip(&mut scored) {
            sort_top_k(neighbors, request.k as usize);
        }
        scored
    }

    /// Refuses a query vector of the wrong dimension (an empty shard has
    /// none and takes any) or with a non-finite coordinate.
    fn check(&self, request: &LeafSearchRequest) -> Result<(), ServiceError> {
        let dim = if self.vectors.is_empty() { request.vector.len() } else { self.dim };
        check_query(&request.vector, dim)
    }
}

/// Distance-then-id sort plus truncation — the unique total order both
/// the sequential and the batched path rank neighbours by.
fn sort_top_k(scored: &mut Vec<Neighbor>, k: usize) {
    scored.sort_by(|a, b| {
        // lint: allow(expect): `check` admits finite queries only, so no distance is NaN
        (a.distance, a.id).partial_cmp(&(b.distance, b.id)).expect("distances are finite")
    });
    scored.truncate(k);
}

impl LeafHandler for HdSearchLeaf {
    type Request = LeafSearchRequest;
    type Response = LeafSearchResponse;

    fn handle(&self, request: LeafSearchRequest) -> Result<LeafSearchResponse, ServiceError> {
        self.check(&request)?;
        Ok(LeafSearchResponse {
            neighbors: self.search(&request.vector, &request.candidates, request.k as usize),
        })
    }

    fn handle_batch(
        &self,
        requests: Vec<LeafSearchRequest>,
    ) -> Vec<Result<LeafSearchResponse, ServiceError>> {
        // Validate members individually — a bad query vector errors out
        // alone while its batchmates share one scoring sweep.
        let mut results: Vec<Result<LeafSearchResponse, ServiceError>> =
            Vec::with_capacity(requests.len());
        let mut valid = Vec::with_capacity(requests.len());
        let mut valid_slots = Vec::with_capacity(requests.len());
        for (slot, request) in requests.into_iter().enumerate() {
            match self.check(&request) {
                Ok(()) => {
                    results.push(Ok(LeafSearchResponse { neighbors: Vec::new() }));
                    valid_slots.push(slot);
                    valid.push(request);
                }
                Err(error) => results.push(Err(error)),
            }
        }
        for (slot, neighbors) in valid_slots.into_iter().zip(self.search_batch(&valid)) {
            results[slot] = Ok(LeafSearchResponse { neighbors });
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> HdSearchLeaf {
        // Shard 1 of 2: local index i corresponds to global id i * 2 + 1.
        let vectors = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 3.0]];
        HdSearchLeaf::new(vectors, 1, RoundRobinMap::new(2))
    }

    #[test]
    fn scores_and_sorts_candidates() {
        let leaf = leaf();
        let result = leaf.search(&[0.0, 0.0], &[0, 1, 2, 3], 4);
        let ids: Vec<u64> = result.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 5, 7], "global ids in distance order");
        let distances: Vec<f32> = result.iter().map(|n| n.distance).collect();
        assert_eq!(distances, vec![0.0, 1.0, 4.0, 18.0]);
    }

    #[test]
    fn respects_k() {
        let leaf = leaf();
        assert_eq!(leaf.search(&[0.0, 0.0], &[0, 1, 2, 3], 2).len(), 2);
        assert_eq!(leaf.search(&[0.0, 0.0], &[0, 1], 10).len(), 2);
    }

    #[test]
    fn ignores_out_of_range_candidates() {
        let leaf = leaf();
        let result = leaf.search(&[0.0, 0.0], &[0, 999], 10);
        assert_eq!(result.len(), 1, "candidate 999 does not exist on this shard");
    }

    #[test]
    fn handler_validates_dimension() {
        let leaf = leaf();
        let err = leaf
            .handle(LeafSearchRequest { vector: vec![0.0; 5], candidates: vec![0], k: 1 })
            .unwrap_err();
        assert!(err.message().contains("dimension"));
        let err = leaf
            .handle(LeafSearchRequest { vector: vec![f32::NAN, 0.0], candidates: vec![0], k: 1 })
            .unwrap_err();
        assert!(err.message().contains("non-finite"));
    }

    #[test]
    fn handler_happy_path() {
        let leaf = leaf();
        let response = leaf
            .handle(LeafSearchRequest { vector: vec![1.0, 0.0], candidates: vec![0, 1, 2], k: 1 })
            .unwrap();
        assert_eq!(response.neighbors.len(), 1);
        assert_eq!(response.neighbors[0].id, 3); // local 1 → global 3
        assert_eq!(response.neighbors[0].distance, 0.0);
    }

    #[test]
    fn empty_candidates_yield_empty_response() {
        let leaf = leaf();
        assert!(leaf.search(&[0.0, 0.0], &[], 5).is_empty());
    }

    #[test]
    fn batched_search_matches_sequential() {
        let leaf = leaf();
        let requests = vec![
            LeafSearchRequest { vector: vec![0.0, 0.0], candidates: vec![0, 1, 2, 3], k: 3 },
            LeafSearchRequest { vector: vec![1.0, 0.0], candidates: vec![3, 0, 999], k: 2 },
            LeafSearchRequest { vector: vec![0.0, 2.0], candidates: vec![2, 2, 1], k: 4 },
            LeafSearchRequest { vector: vec![3.0, 3.0], candidates: vec![], k: 1 },
        ];
        let batched = leaf.search_batch(&requests);
        for (request, batch) in requests.iter().zip(&batched) {
            let sequential =
                leaf.search(&request.vector, &request.candidates, request.k as usize);
            assert_eq!(batch, &sequential);
        }
    }

    #[test]
    fn batched_handler_isolates_invalid_member() {
        let leaf = leaf();
        let results = LeafHandler::handle_batch(
            &leaf,
            vec![
                LeafSearchRequest { vector: vec![0.0, 0.0], candidates: vec![0, 1], k: 2 },
                LeafSearchRequest { vector: vec![0.0; 5], candidates: vec![0], k: 1 },
                LeafSearchRequest { vector: vec![1.0, 0.0], candidates: vec![1], k: 1 },
                LeafSearchRequest { vector: vec![f32::INFINITY, 0.0], candidates: vec![0], k: 1 },
            ],
        );
        assert_eq!(results[0].as_ref().unwrap().neighbors.len(), 2);
        assert!(results[1].as_ref().unwrap_err().message().contains("dimension"));
        assert_eq!(results[2].as_ref().unwrap().neighbors[0].id, 3);
        assert!(results[3].as_ref().unwrap_err().message().contains("non-finite"));
    }
}
