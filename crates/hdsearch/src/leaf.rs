//! The HDSearch leaf: exact distance computation over candidate lists.
//!
//! "Leaf microservers compare query feature vectors against point lists
//! sent by the mid-tier. We use the Euclidean distance metric" (paper
//! §III-A). The leaf owns one shard of the feature vectors; the mid-tier
//! sends local candidate indices, the leaf scores them and returns the
//! top-k with ids translated back to global space.

use crate::distance::euclidean_sq;
use crate::merge::nearest_first;
use crate::protocol::{check_query, LeafSearchRequest, LeafSearchResponse, Neighbor};
use musuite_codec::{Bytes, Seq};
use musuite_core::error::ServiceError;
use musuite_core::leaf::{decode_payload, LeafHandler};
use musuite_core::shard::RoundRobinMap;
use musuite_core::topk::top_k_by;
use musuite_rpc::buf::flush_outbox;
use std::cell::RefCell;

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
    /// top-`k` as globally-identified, distance-sorted neighbours. Scores
    /// go to the calling thread's scratch; the result is the one
    /// allocation, of at most `k` neighbours.
    pub fn search(
        &self,
        query: &[f32],
        candidates: impl IntoIterator<Item = u64>,
        k: usize,
    ) -> Vec<Neighbor> {
        SCORED.with_borrow_mut(|scored| {
            scored.clear();
            scored.extend(candidates.into_iter().filter_map(|local| {
                let vector = self.vectors.get(local as usize)?;
                Some(Neighbor {
                    id: self.id_map.global_id(self.leaf_index, local),
                    distance: euclidean_sq(query, vector),
                })
            }));
            let top = top_k_by(scored, k, nearest_first).to_vec();
            // A list longer than the shard repeats candidates: let its
            // storage go rather than keep it for the worker's lifetime.
            if scored.len() > self.vectors.len() {
                *scored = Vec::new();
            }
            top
        })
    }

    /// Refuses a query vector of the wrong dimension (an empty shard has
    /// none and takes any) or with a non-finite coordinate.
    fn check(&self, vector: impl ExactSizeIterator<Item = f32>) -> Result<(), ServiceError> {
        let dim = if self.vectors.is_empty() { vector.len() } else { self.dim };
        check_query(vector, dim)
    }
}

thread_local! {
    /// The calling thread's scored candidates, reused by every
    /// [`HdSearchLeaf::search`] on it (under 32 B per shard vector).
    static SCORED: RefCell<Vec<Neighbor>> = const { RefCell::new(Vec::new()) };
    /// The calling thread's copy of a query vector read from a frame, which
    /// holds its floats unaligned (`dim` floats once checked).
    static QUERY: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A search costs about 1.2 µs plus 0.13–0.14 µs per candidate, request
/// decode and response encode included, so it crosses a write's 20 µs at
/// 130–145 candidates. The `hdsearch_knn` stream splits well either side:
/// about a third of its leaf requests carry under 64 candidates, more than
/// half 256 or more (EXPERIMENTS.md, "Which handlers run long").
fn runs_long(candidates: usize) -> bool {
    candidates >= 128
}

impl LeafHandler for HdSearchLeaf {
    type Request = LeafSearchRequest;
    type Response = LeafSearchResponse;

    fn handle(&self, request: LeafSearchRequest) -> Result<LeafSearchResponse, ServiceError> {
        self.check(request.vector.iter().copied())?;
        let candidates = request.candidates.iter().copied();
        Ok(LeafSearchResponse {
            neighbors: self.search(&request.vector, candidates, request.k as usize),
        })
    }

    fn runs_long(&self, request: &LeafSearchRequest) -> bool {
        runs_long(request.candidates.len())
    }

    /// Reads the candidates in place and copies the checked query vector
    /// into the thread's scratch.
    fn handle_payload(&self, payload: Bytes) -> Result<LeafSearchResponse, ServiceError> {
        let request: LeafSearchRequest<Seq<f32>, Seq<u64>> = decode_payload(payload)?;
        if runs_long(request.candidates.len()) {
            flush_outbox();
        }
        self.check(request.vector.iter())?;
        QUERY.with_borrow_mut(|query| {
            request.vector.copy_into(query);
            let candidates = request.candidates.iter();
            Ok(LeafSearchResponse { neighbors: self.search(query, candidates, request.k as usize) })
        })
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
        let result = leaf.search(&[0.0, 0.0], [0, 1, 2, 3], 4);
        let ids: Vec<u64> = result.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 5, 7], "global ids in distance order");
        let distances: Vec<f32> = result.iter().map(|n| n.distance).collect();
        assert_eq!(distances, vec![0.0, 1.0, 4.0, 18.0]);
    }

    #[test]
    fn respects_k() {
        let leaf = leaf();
        assert_eq!(leaf.search(&[0.0, 0.0], [0, 1, 2, 3], 2).len(), 2);
        assert_eq!(leaf.search(&[0.0, 0.0], [0, 1], 10).len(), 2);
    }

    #[test]
    fn ignores_out_of_range_candidates() {
        let leaf = leaf();
        let result = leaf.search(&[0.0, 0.0], [0, 999], 10);
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
        assert!(leaf.search(&[0.0, 0.0], [], 5).is_empty());
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

    /// `search` as it was before the bounded selector, kept verbatim as
    /// the oracle the golden test compares against.
    fn oracle_search(
        leaf: &HdSearchLeaf,
        query: &[f32],
        candidates: &[u64],
        k: usize,
    ) -> Vec<Neighbor> {
        let mut scored: Vec<Neighbor> = candidates
            .iter()
            .filter_map(|&local| {
                let vector = leaf.vectors.get(local as usize)?;
                Some(Neighbor {
                    id: leaf.id_map.global_id(leaf.leaf_index, local),
                    distance: euclidean_sq(query, vector),
                })
            })
            .collect();
        scored.sort_by(|a, b| {
            (a.distance, a.id).partial_cmp(&(b.distance, b.id)).expect("distances are finite")
        });
        scored.truncate(k);
        scored
    }

    fn bits(neighbors: &[Neighbor]) -> Vec<(u64, u32)> {
        neighbors.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    }

    /// Seeded candidate lists with repeats and out-of-range ids, over `k`
    /// from 0 past the list length, on a clustered shard and on a small
    /// integer grid (where distinct ids tie on distance): `search` and
    /// `handle_batch` return the oracle's neighbours bit for bit.
    #[test]
    fn golden_search_matches_the_oracle() {
        use musuite_data::vectors::{VectorDataset, VectorDatasetConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ds = VectorDataset::generate(&VectorDatasetConfig {
            points: 3_000,
            dim: 16,
            clusters: 10,
            spread: 0.05,
            seed: 3,
        });
        let clustered: Vec<Vec<f32>> = ds.vectors().iter().skip(1).step_by(3).cloned().collect();
        let grid: Vec<Vec<f32>> = (0..300)
            .map(|i| vec![(i % 3) as f32, (i / 3 % 3) as f32, (i / 9 % 2) as f32])
            .collect();
        let mut rng = StdRng::seed_from_u64(17);
        for shard in [clustered, grid] {
            let dim = shard[0].len();
            let leaf = HdSearchLeaf::new(shard, 1, RoundRobinMap::new(3));
            let mut requests = Vec::new();
            for _ in 0..40 {
                let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..2.0)).collect();
                let len = rng.gen_range(0..400);
                let candidates: Vec<u64> =
                    (0..len).map(|_| rng.gen_range(0..leaf.len() as u64 + 50)).collect();
                for k in [0, 1, 10, len / 2, len, len + 5, usize::MAX] {
                    let expected = bits(&oracle_search(&leaf, &query, &candidates, k));
                    let got = leaf.search(&query, candidates.iter().copied(), k);
                    assert_eq!(bits(&got), expected);
                    let k = u32::try_from(k).unwrap_or(u32::MAX);
                    requests.push(LeafSearchRequest {
                        vector: query.clone(),
                        candidates: candidates.clone(),
                        k,
                    });
                }
            }
            for (request, batch) in
                requests.iter().zip(LeafHandler::handle_batch(&leaf, requests.clone()))
            {
                let expected =
                    oracle_search(&leaf, &request.vector, &request.candidates, request.k as usize);
                assert_eq!(bits(&batch.unwrap().neighbors), bits(&expected));
                // The same request read in place from its frame.
                let payload = Bytes::from(musuite_codec::to_bytes(request));
                let in_place = leaf.handle_payload(payload).unwrap();
                assert_eq!(bits(&in_place.neighbors), bits(&expected));
            }
        }
    }

    /// A finite query far from the shard scores `+inf` against every
    /// vector; the neighbours still rank, by id.
    #[test]
    fn overflowing_distances_rank_by_id() {
        let leaf = leaf();
        let result = leaf.search(&[3e38, -3e38], [3, 0, 2, 1], 3);
        assert_eq!(result.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert!(result.iter().all(|n| n.distance == f32::INFINITY));
    }
}
