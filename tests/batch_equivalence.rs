//! Property tests pinning the batching tentpole's core invariant: for
//! every service leaf, handling a batch is **observably identical** to
//! handling the same requests one at a time, in order — bit-identical
//! responses (f32 payloads compared by bit pattern), identical errors,
//! identical store side effects. The batched kernels may reorder *work*
//! (one LSH walk, one matrix sweep, shared driving terms, grouped shard
//! lookups) but never *results*.

use musuite::core::leaf::LeafHandler;
use musuite::core::shard::RoundRobinMap;
use musuite::data::ratings::{RatingsConfig, RatingsDataset};
use musuite::hdsearch::leaf::HdSearchLeaf;
use musuite::hdsearch::protocol::LeafSearchRequest;
use musuite::recommend::leaf::RecommendLeaf;
use musuite::recommend::nmf::{Nmf, NmfConfig};
use musuite::recommend::protocol::RatingQuery;
use musuite::recommend::CsrMatrix;
use musuite::router::leaf::RouterLeaf;
use musuite::router::protocol::{KvRequest, KvResponse};
use musuite::setalgebra::leaf::SetAlgebraLeaf;
use musuite::setalgebra::protocol::TermQuery;
use proptest::prelude::*;
use std::sync::OnceLock;

// ---------------------------------------------------------------- hdsearch

fn hdsearch_requests() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<LeafSearchRequest>)> {
    let dim = 4usize;
    let finite = -10.0f32..10.0f32;
    let vector = proptest::collection::vec(finite, dim);
    let vectors = proptest::collection::vec(vector.clone(), 1..16);
    let request = (vector, proptest::collection::vec(0u64..20, 0..12), 0u32..6)
        .prop_map(|(query, candidates, k)| LeafSearchRequest { vector: query, candidates, k });
    (vectors, proptest::collection::vec(request, 0..8))
}

proptest! {
    #[test]
    fn hdsearch_batch_is_bit_identical_to_sequential(case in hdsearch_requests()) {
        let (vectors, requests) = case;
        let leaf = HdSearchLeaf::new(vectors, 1, RoundRobinMap::new(2));
        let batched = LeafHandler::handle_batch(&leaf, requests.clone());
        prop_assert_eq!(batched.len(), requests.len());
        for (request, batch) in requests.into_iter().zip(batched) {
            let sequential = leaf.handle(request).expect("in-dimension queries succeed");
            let batch = batch.expect("valid batch member succeeds");
            let bits = |r: &musuite::hdsearch::protocol::LeafSearchResponse| {
                r.neighbors.iter().map(|n| (n.id, n.distance.to_bits())).collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(&batch), bits(&sequential));
        }
    }
}

// --------------------------------------------------------------- recommend

/// One NMF model for every proptest case — training is deterministic and
/// costs far more than the predictions under test.
fn recommend_leaf() -> &'static RecommendLeaf {
    static LEAF: OnceLock<RecommendLeaf> = OnceLock::new();
    LEAF.get_or_init(|| {
        let data = RatingsDataset::generate(&RatingsConfig {
            users: 40,
            items: 30,
            rank: 4,
            observations: 900,
            noise: 0.05,
            seed: 23,
        });
        let v = CsrMatrix::from_ratings(data.users(), data.items(), data.ratings());
        let model = Nmf::train(&v, &NmfConfig { rank: 5, iterations: 40, seed: 1 });
        RecommendLeaf::new(model, (0..40).collect(), 8)
    })
}

proptest! {
    #[test]
    fn recommend_batch_is_bit_identical_to_sequential(
        // Past-the-end users/items probe the invalid-member path.
        queries in proptest::collection::vec((0u32..45, 0u32..35), 0..10),
    ) {
        let leaf = recommend_leaf();
        let requests: Vec<RatingQuery> =
            queries.iter().map(|&(user, item)| RatingQuery { user, item }).collect();
        let batched = LeafHandler::handle_batch(leaf, requests.clone());
        prop_assert_eq!(batched.len(), requests.len());
        for (request, batch) in requests.into_iter().zip(batched) {
            match (leaf.handle(request), batch) {
                (Ok(sequential), Ok(batch)) => {
                    prop_assert_eq!(batch.rating.to_bits(), sequential.rating.to_bits());
                    prop_assert_eq!(batch.neighbors, sequential.neighbors);
                }
                (Err(sequential), Err(batch)) => {
                    prop_assert_eq!(batch.message(), sequential.message());
                }
                (sequential, batch) => {
                    prop_assert!(false, "verdicts diverge: {sequential:?} vs {batch:?}");
                }
            }
        }
    }
}

// -------------------------------------------------------------- setalgebra

fn setalgebra_case() -> impl Strategy<Value = (Vec<Vec<u32>>, usize, Vec<TermQuery>)> {
    let doc = proptest::collection::btree_set(0u32..40, 1..12)
        .prop_map(|terms| terms.into_iter().collect::<Vec<u32>>());
    let docs = proptest::collection::vec(doc, 1..30);
    // Queries reach past the vocabulary so absent terms occur.
    let query = proptest::collection::vec(0u32..50, 0..5).prop_map(|terms| TermQuery { terms });
    (docs, 0usize..4, proptest::collection::vec(query, 0..10))
}

proptest! {
    #[test]
    fn setalgebra_batch_matches_sequential(case in setalgebra_case()) {
        let (docs, stop_top, queries) = case;
        let doc_ids: Vec<u32> = (0..docs.len() as u32).collect();
        let leaf = SetAlgebraLeaf::build(&docs, &doc_ids, stop_top);
        let batched = LeafHandler::handle_batch(&leaf, queries.clone());
        prop_assert_eq!(batched.len(), queries.len());
        for (query, batch) in queries.into_iter().zip(batched) {
            let sequential = leaf.handle(query).expect("intersection is total");
            prop_assert_eq!(batch.expect("batch member is total").docs, sequential.docs);
        }
    }
}

// ------------------------------------------------------------------ router

fn kv_request() -> impl Strategy<Value = KvRequest> {
    (0u8..7, 0u8..8, proptest::collection::vec(any::<u8>(), 0..8)).prop_map(|(op, i, value)| {
        let key = format!("k{i}");
        match op {
            0..=2 => KvRequest::Get { key },
            3 | 4 => KvRequest::Set { key, value },
            5 => KvRequest::Delete { key },
            // A TTL far beyond the test's runtime: exercises the SetEx
            // arm without making equivalence depend on wall-clock expiry.
            _ => KvRequest::SetEx { key, value, ttl_ms: 600_000 },
        }
    })
}

proptest! {
    #[test]
    fn router_batch_matches_sequential_including_side_effects(
        seed in proptest::collection::vec((0u8..8, proptest::collection::vec(any::<u8>(), 0..8)), 0..6),
        requests in proptest::collection::vec(kv_request(), 0..16),
    ) {
        let batched_leaf = RouterLeaf::default();
        let sequential_leaf = RouterLeaf::default();
        for (i, value) in &seed {
            batched_leaf.store().set(&format!("k{i}"), value.clone());
            sequential_leaf.store().set(&format!("k{i}"), value.clone());
        }
        let batch = LeafHandler::handle_batch(&batched_leaf, requests.clone());
        prop_assert_eq!(batch.len(), requests.len());
        for (request, result) in requests.into_iter().zip(batch) {
            let sequential = sequential_leaf.handle(request).expect("kv ops are total");
            prop_assert_eq!(result.expect("batch member is total"), sequential);
        }
        // The stores the two paths leave behind agree key for key.
        for i in 0..8u8 {
            let key = format!("k{i}");
            prop_assert_eq!(
                batched_leaf.store().get(&key),
                sequential_leaf.store().get(&key),
                "{}", key
            );
        }
    }

    /// A batch of pure reads is answered in request order: the Router
    /// leaf has no batch kernel, so the default `handle_batch` runs
    /// `handle` once per request, in order.
    #[test]
    fn router_get_run_preserves_request_order(
        keys in proptest::collection::vec(0u8..8, 1..12),
    ) {
        let leaf = RouterLeaf::default();
        for i in 0..8u8 {
            leaf.store().set(&format!("k{i}"), vec![i]);
        }
        let requests: Vec<KvRequest> =
            keys.iter().map(|i| KvRequest::Get { key: format!("k{i}") }).collect();
        let results = LeafHandler::handle_batch(&leaf, requests);
        for (i, result) in keys.into_iter().zip(results) {
            prop_assert_eq!(result.expect("get is total"), KvResponse::Value(Some(vec![i])));
        }
    }
}
