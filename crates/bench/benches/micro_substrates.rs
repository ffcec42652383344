//! Criterion micro-benchmarks of the algorithmic substrates: the
//! per-component costs that compose into the mid-tier's "tens of
//! microseconds" of compute (paper §I).
#![allow(missing_docs)] // criterion_group! expands to undocumented items

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use musuite_codec::{from_bytes, to_bytes};
use musuite_data::text::{CorpusConfig, TextCorpus};
use musuite_data::vectors::{VectorDataset, VectorDatasetConfig};
use musuite_hdsearch::distance::euclidean_sq;
use musuite_hdsearch::lsh::{LshConfig, LshIndex};
use musuite_hdsearch::protocol::SearchQuery;
use musuite_recommend::nmf::{Nmf, NmfConfig};
use musuite_recommend::sparse::CsrMatrix;
use musuite_router::spooky::SpookyHasher;
use musuite_setalgebra::intersect::{intersect_linear, intersect_skipping};
use musuite_setalgebra::skiplist::SkipList;
use musuite_telemetry::histogram::LatencyHistogram;
use std::hint::black_box;
use std::time::Duration;

fn bench_spooky(c: &mut Criterion) {
    let hasher = SpookyHasher::new(0, 0);
    let short_key = b"user00001234";
    let long_value = vec![0xABu8; 4096];
    let mut group = c.benchmark_group("spookyhash");
    group.bench_function("short_key_12B", |b| {
        b.iter(|| black_box(hasher.hash64(black_box(short_key))))
    });
    group.bench_function("long_value_4KiB", |b| {
        b.iter(|| black_box(hasher.hash128(black_box(&long_value))))
    });
    group.finish();
}

fn bench_distance(c: &mut Criterion) {
    let a: Vec<f32> = (0..128).map(|i| (i as f32).sin()).collect();
    let b_vec: Vec<f32> = (0..128).map(|i| (i as f32).cos()).collect();
    c.bench_function("euclidean_sq_128d", |b| {
        b.iter(|| black_box(euclidean_sq(black_box(&a), black_box(&b_vec))))
    });
}

fn bench_lsh(c: &mut Criterion) {
    let dataset = VectorDataset::generate(&VectorDatasetConfig {
        points: 10_000,
        dim: 64,
        ..Default::default()
    });
    let index = LshIndex::build(
        64,
        LshConfig::default(),
        dataset.vectors(),
        &(0..dataset.len() as u64).collect::<Vec<_>>(),
    );
    let query = dataset.sample_queries(1, 0.02).remove(0);
    c.bench_function("lsh_candidates_10k_corpus", |b| {
        b.iter(|| black_box(index.candidates(black_box(&query))))
    });
}

fn bench_intersection(c: &mut Criterion) {
    // The Zipf-shaped case: one short and one long posting list.
    let short_list: Vec<u32> = (0..200u32).map(|i| i * 37).collect();
    let long_list: Vec<u32> = (0..50_000u32).collect();
    let long_skip: SkipList = long_list.iter().copied().collect();
    let mut group = c.benchmark_group("posting_intersection");
    group.bench_function("linear_merge_200x50k", |b| {
        b.iter(|| black_box(intersect_linear(black_box(&short_list), black_box(&long_list))))
    });
    group.bench_function("skip_seek_200x50k", |b| {
        b.iter(|| {
            let mut driving = black_box(&short_list).clone();
            intersect_skipping(&mut driving, black_box(&long_skip));
            black_box(driving)
        })
    });
    group.finish();
}

fn bench_index_search(c: &mut Criterion) {
    let corpus = TextCorpus::generate(&CorpusConfig {
        documents: 10_000,
        vocabulary: 5_000,
        doc_len: 80,
        ..Default::default()
    });
    let index = musuite_setalgebra::index::InvertedIndex::build(
        corpus.documents(),
        &(0..corpus.len() as u32).collect::<Vec<_>>(),
        20,
    );
    let queries = corpus.sample_queries(64);
    let mut next = 0usize;
    c.bench_function("inverted_index_search_10k_docs", |b| {
        b.iter(|| {
            let query = &queries[next % queries.len()];
            next += 1;
            black_box(index.search(black_box(query).iter().copied()))
        })
    });
}

fn bench_nmf(c: &mut Criterion) {
    let data = musuite_data::ratings::RatingsDataset::generate(&Default::default());
    let matrix = CsrMatrix::from_ratings(data.users(), data.items(), data.ratings());
    c.bench_function("nmf_train_10k_ratings_5_iters", |b| {
        b.iter(|| {
            black_box(Nmf::train(
                black_box(&matrix),
                &NmfConfig { rank: 8, iterations: 5, seed: 1 },
            ))
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram_record", |b| {
        let mut histogram = LatencyHistogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.record_ns(black_box(v >> 40));
        })
    });
    c.bench_function("histogram_quantile", |b| {
        let mut histogram = LatencyHistogram::new();
        for i in 1..100_000u64 {
            histogram.record_ns(i * 13 % 1_000_000);
        }
        b.iter(|| black_box(histogram.quantile(black_box(0.99))))
    });
}

fn bench_codec(c: &mut Criterion) {
    let query = SearchQuery { vector: vec![0.5f32; 128], k: 10 };
    let bytes = to_bytes(&query);
    let mut group = c.benchmark_group("codec");
    group.bench_function("encode_search_query_128d", |b| {
        b.iter_batched(|| query.clone(), |q| black_box(to_bytes(&q)), BatchSize::SmallInput)
    });
    group.bench_function("decode_search_query_128d", |b| {
        b.iter(|| black_box(from_bytes::<SearchQuery>(black_box(&bytes)).unwrap()))
    });
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(700))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_spooky, bench_distance, bench_lsh, bench_intersection,
              bench_index_search, bench_nmf, bench_histogram, bench_codec
}
criterion_main!(benches);
