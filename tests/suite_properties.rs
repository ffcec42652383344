//! Property-based tests on the suite's core data structures and
//! algorithms.

use musuite::hdsearch::merge::merge_top_k;
use musuite::hdsearch::protocol::Neighbor;
use musuite::router::memkv::{MemKv, MemKvConfig};
use musuite::router::spooky::SpookyHasher;
use musuite::setalgebra::compress::{intersect_compressed, CompressedPostings};
use musuite::setalgebra::intersect::{
    intersect_galloping, intersect_linear, intersect_many, intersect_skipping,
};
use musuite::setalgebra::skiplist::SkipList;
use musuite::setalgebra::union_merge::union_sorted;
use musuite::telemetry::histogram::LatencyHistogram;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn sorted_set(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0..max, 0..len)
        .prop_map(|set| set.into_iter().collect::<Vec<u32>>())
}

proptest! {
    #[test]
    fn skiplist_behaves_like_btreeset(values in proptest::collection::vec(0u32..10_000, 0..400)) {
        let mut model = BTreeSet::new();
        let mut list = SkipList::new();
        for &v in &values {
            prop_assert_eq!(list.insert(v), model.insert(v));
        }
        prop_assert_eq!(list.len(), model.len());
        prop_assert_eq!(list.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        // Seek agrees with the model's range lookup.
        for probe in values.iter().take(50) {
            let expected = model.range(probe..).next().copied();
            prop_assert_eq!(list.cursor().seek(*probe), expected);
        }
    }

    #[test]
    fn intersections_agree_with_btreeset(a in sorted_set(500, 200), b in sorted_set(500, 200)) {
        let set_a: BTreeSet<u32> = a.iter().copied().collect();
        let set_b: BTreeSet<u32> = b.iter().copied().collect();
        let expected: Vec<u32> = set_a.intersection(&set_b).copied().collect();
        prop_assert_eq!(intersect_linear(&a, &b), expected.clone());
        prop_assert_eq!(intersect_galloping(&a, &b), expected.clone());
        let b_skip: SkipList = b.iter().copied().collect();
        let mut skipped = a.clone();
        intersect_skipping(&mut skipped, &b_skip);
        prop_assert_eq!(skipped, expected.clone());
        let b_compressed = CompressedPostings::from_sorted(&b).unwrap();
        prop_assert_eq!(intersect_compressed(&a, &b_compressed), expected.clone());
        prop_assert_eq!(intersect_many(&[&a, &b]), expected);
    }

    #[test]
    fn compressed_postings_roundtrip(docs in sorted_set(100_000, 300)) {
        let compressed = CompressedPostings::from_sorted(&docs).unwrap();
        prop_assert_eq!(compressed.to_vec(), docs.clone());
        prop_assert_eq!(compressed.len(), docs.len());
        // Delta-varint never exceeds 5 bytes per u32 id.
        prop_assert!(compressed.compressed_bytes() <= docs.len() * 5);
    }

    #[test]
    fn kdtree_knn_is_exact(points in proptest::collection::vec(
        proptest::collection::vec(-100.0f32..100.0, 3), 1..120), k in 1usize..8
    ) {
        let tree = musuite::hdsearch::kdtree::KdTree::build(points.clone());
        let query = points[0].iter().map(|x| x + 0.5).collect::<Vec<f32>>();
        let (tree_nn, visited) = tree.knn(&query, k);
        let truth = musuite::hdsearch::ground_truth::brute_force_knn(&points, &query, k);
        prop_assert_eq!(
            tree_nn.iter().map(|n| n.id).collect::<Vec<_>>(),
            truth.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        prop_assert!(visited <= points.len());
    }

    #[test]
    fn union_agrees_with_btreeset(lists in proptest::collection::vec(sorted_set(300, 100), 0..6)) {
        let mut expected = BTreeSet::new();
        for list in &lists {
            expected.extend(list.iter().copied());
        }
        prop_assert_eq!(union_sorted(lists), expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn intersect_is_subset_and_commutative(a in sorted_set(200, 100), b in sorted_set(200, 100)) {
        let ab = intersect_linear(&a, &b);
        let ba = intersect_linear(&b, &a);
        prop_assert_eq!(&ab, &ba);
        for v in &ab {
            prop_assert!(a.binary_search(v).is_ok());
            prop_assert!(b.binary_search(v).is_ok());
        }
    }

    #[test]
    fn histogram_quantiles_track_exact(values in proptest::collection::vec(1u64..1_000_000_000, 1..500)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record_ns(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            let index = (((q * values.len() as f64).ceil() as usize).max(1) - 1).min(values.len() - 1);
            let exact = sorted[index] as f64;
            let approx = h.quantile(q).as_nanos() as f64;
            // Log-bucketing promises ~1.6 % relative error.
            prop_assert!((approx - exact).abs() <= exact * 0.04 + 1.0,
                "q={} exact={} approx={}", q, exact, approx);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min().as_nanos() as u64, sorted[0]);
        prop_assert_eq!(h.max().as_nanos() as u64, *sorted.last().unwrap());
    }

    #[test]
    fn knn_merge_equals_global_sort(lists in proptest::collection::vec(
        proptest::collection::vec((0u64..1000, 0u32..10_000), 0..40), 0..5), k in 0usize..30
    ) {
        let lists: Vec<Vec<Neighbor>> = lists
            .into_iter()
            .map(|list| {
                let mut neighbors: Vec<Neighbor> = list
                    .into_iter()
                    .map(|(id, d)| Neighbor { id, distance: d as f32 })
                    .collect();
                neighbors.sort_by(|a, b| (a.distance, a.id).partial_cmp(&(b.distance, b.id)).unwrap());
                neighbors
            })
            .collect();
        let mut all: Vec<Neighbor> = lists.iter().flatten().copied().collect();
        all.sort_by(|a, b| (a.distance, a.id).partial_cmp(&(b.distance, b.id)).unwrap());
        all.truncate(k);
        prop_assert_eq!(merge_top_k(lists, k), all);
    }

    #[test]
    fn spooky_hash_is_pure_and_length_sensitive(message in proptest::collection::vec(any::<u8>(), 0..512)) {
        let hasher = SpookyHasher::new(1, 2);
        prop_assert_eq!(hasher.hash128(&message), hasher.hash128(&message));
        let mut extended = message.clone();
        extended.push(0);
        prop_assert_ne!(hasher.hash128(&message), hasher.hash128(&extended));
    }

    #[test]
    fn memkv_models_a_map_when_unbounded(ops in proptest::collection::vec(
        (0u8..3, 0u8..16, any::<u8>()), 0..200)
    ) {
        let store = MemKv::new(MemKvConfig { capacity_bytes: 64 << 20, shards: 4, default_ttl: None });
        let mut model: std::collections::HashMap<String, Vec<u8>> = std::collections::HashMap::new();
        for (op, key_id, value) in ops {
            let key = format!("key{key_id}");
            match op {
                0 => {
                    let expected = model.insert(key.clone(), vec![value]);
                    prop_assert_eq!(store.set(&key, vec![value]), expected);
                }
                1 => prop_assert_eq!(store.get(&key), model.get(&key).cloned()),
                _ => prop_assert_eq!(store.delete(&key), model.remove(&key).is_some()),
            }
        }
        prop_assert_eq!(store.len(), model.len());
    }

    #[test]
    fn replica_reads_always_hit_write_set(leaves in 1usize..20, replicas in 1usize..4, hash: u64, choice: u64) {
        prop_assume!(replicas <= leaves);
        let rs = musuite::core::replication::ReplicaSet::new(leaves, replicas);
        let writes = rs.write_set(hash);
        prop_assert_eq!(writes.len(), replicas);
        prop_assert!(writes.contains(&rs.read_replica(hash, choice)));
    }

    #[test]
    fn round_robin_map_is_a_bijection(ids in proptest::collection::vec(any::<u32>(), 0..100), shards in 1usize..9) {
        let map = musuite::core::shard::RoundRobinMap::new(shards);
        for &id in &ids {
            let id = u64::from(id);
            let leaf = map.leaf_of(id);
            prop_assert!(leaf < shards);
            prop_assert_eq!(map.global_id(leaf, map.local_index(id)), id);
        }
    }
}
