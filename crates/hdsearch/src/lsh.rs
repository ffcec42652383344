//! Locality-Sensitive Hashing with p-stable projections and multiprobe.
//!
//! The paper's mid-tier "uses LSH, an indexing algorithm that optimally
//! reduces the search space within precise error bounds", extended from
//! FLANN, with "multiple hash tables, and … multiple entries in each hash
//! table, to optimize the performance vs. error trade-off" (§III-A).
//!
//! This implementation follows the classic Datar–Indyk p-stable scheme:
//! each table hashes a vector through `hashes_per_table` random Gaussian
//! projections quantized at width `bucket_width`; the per-projection bins
//! are combined into one table key. Multiprobe additionally visits the
//! buckets obtained by perturbing each projection's bin by ±1, trading
//! extra candidates for recall without more tables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Tuning parameters for [`LshIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct LshConfig {
    /// Number of independent hash tables (more tables → higher recall).
    pub tables: usize,
    /// Concatenated projections per table (more → fewer false positives).
    pub hashes_per_table: usize,
    /// Quantization width of each projection (larger → bigger buckets).
    pub bucket_width: f32,
    /// Probes per table: 1 = exact bucket only; `1 + 2 * hashes_per_table`
    /// visits all ±1 single-coordinate perturbations.
    pub probes: usize,
    /// RNG seed for the projection directions.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        LshConfig { tables: 8, hashes_per_table: 8, bucket_width: 4.0, probes: 9, seed: 42 }
    }
}

struct Projection {
    direction: Vec<f32>,
    offset: f32,
}

struct HashTable {
    projections: Vec<Projection>,
    buckets: HashMap<u64, Vec<u64>>,
}

impl HashTable {
    fn bins(&self, vector: &[f32], width: f32) -> Vec<i32> {
        self.projections
            .iter()
            .map(|p| {
                let value = crate::distance::dot(vector, &p.direction) + p.offset;
                (value / width).floor() as i32
            })
            .collect()
    }
}

/// Combines per-projection bins into one bucket key (FNV-1a over the i32s).
fn key_of(bins: &[i32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &bin in bins {
        for byte in bin.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    hash
}

/// A multi-table, multiprobe LSH index mapping vectors to point ids.
///
/// The index stores only ids — HDSearch's mid-tier "does not store feature
/// vectors directly" (paper §III-A); ids indirectly reference vectors
/// sharded across the leaves.
pub struct LshIndex {
    config: LshConfig,
    dim: usize,
    tables: Vec<HashTable>,
    len: usize,
}

impl LshIndex {
    /// Creates an empty index for `dim`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or the config has zero tables/hashes/width.
    pub fn new(dim: usize, config: LshConfig) -> LshIndex {
        assert!(dim > 0, "dimensionality must be positive");
        assert!(config.tables > 0, "need at least one table");
        assert!(config.hashes_per_table > 0, "need at least one hash per table");
        assert!(config.bucket_width > 0.0, "bucket width must be positive");
        assert!(config.probes > 0, "need at least one probe");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let tables = (0..config.tables)
            .map(|_| HashTable {
                projections: (0..config.hashes_per_table)
                    .map(|_| Projection {
                        direction: (0..dim).map(|_| gaussian(&mut rng)).collect(),
                        offset: rng.gen_range(0.0..config.bucket_width),
                    })
                    .collect(),
                buckets: HashMap::new(),
            })
            .collect();
        LshIndex { config, dim, tables, len: 0 }
    }

    /// Builds an index over `vectors`, with point `i` stored under id
    /// `ids[i]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or any vector has the wrong dimension.
    pub fn build(dim: usize, config: LshConfig, vectors: &[Vec<f32>], ids: &[u64]) -> LshIndex {
        assert_eq!(vectors.len(), ids.len(), "one id per vector");
        let mut index = LshIndex::new(dim, config);
        for (vector, &id) in vectors.iter().zip(ids) {
            index.insert(vector, id);
        }
        index
    }

    /// Inserts one vector under `id`.
    ///
    /// # Panics
    ///
    /// Panics if the vector's dimension is wrong.
    pub fn insert(&mut self, vector: &[f32], id: u64) {
        assert_eq!(vector.len(), self.dim, "vector dimensionality mismatch");
        let width = self.config.bucket_width;
        for table in &mut self.tables {
            let bins = table.bins(vector, width);
            table.buckets.entry(key_of(&bins)).or_default().push(id);
        }
        self.len += 1;
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured parameters.
    pub fn config(&self) -> &LshConfig {
        &self.config
    }

    /// The dimension of the indexed vectors, which a query must share.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up near-neighbour candidates for `query`, deduplicated and in
    /// first-seen order.
    ///
    /// # Panics
    ///
    /// Panics if the query's dimension is wrong.
    pub fn candidates(&self, query: &[f32]) -> Vec<u64> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let width = self.config.bucket_width;
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for table in &self.tables {
            let bins = table.bins(query, width);
            let mut probe_keys = Vec::with_capacity(self.config.probes);
            probe_keys.push(key_of(&bins));
            // Multiprobe: ±1 perturbations of each coordinate, nearest
            // perturbations first, until the probe budget is spent.
            'probing: for delta in [1i32, -1] {
                for position in 0..bins.len() {
                    if probe_keys.len() >= self.config.probes {
                        break 'probing;
                    }
                    let mut perturbed = bins.clone();
                    perturbed[position] += delta;
                    probe_keys.push(key_of(&perturbed));
                }
            }
            for key in probe_keys {
                if let Some(bucket) = table.buckets.get(&key) {
                    for &id in bucket {
                        if seen.insert(id) {
                            out.push(id);
                        }
                    }
                }
            }
        }
        out
    }

    /// Total buckets across tables (diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.tables.iter().map(|t| t.buckets.len()).sum()
    }
}

impl std::fmt::Debug for LshIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LshIndex")
            .field("points", &self.len)
            .field("dim", &self.dim)
            .field("tables", &self.tables.len())
            .field("buckets", &self.bucket_count())
            .finish()
    }
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_data::vectors::{VectorDataset, VectorDatasetConfig};

    fn dataset() -> VectorDataset {
        VectorDataset::generate(&VectorDatasetConfig {
            points: 2_000,
            dim: 32,
            clusters: 20,
            spread: 0.05,
            seed: 5,
        })
    }

    fn build_index(ds: &VectorDataset) -> LshIndex {
        let ids: Vec<u64> = (0..ds.len() as u64).collect();
        LshIndex::build(ds.dim(), LshConfig::default(), ds.vectors(), &ids)
    }

    #[test]
    fn indexes_all_points() {
        let ds = dataset();
        let index = build_index(&ds);
        assert_eq!(index.len(), 2_000);
        assert!(!index.is_empty());
        assert!(index.bucket_count() > 1, "points must spread over buckets");
    }

    #[test]
    fn exact_point_is_its_own_candidate() {
        let ds = dataset();
        let index = build_index(&ds);
        for (i, v) in ds.vectors().iter().take(50).enumerate() {
            let candidates = index.candidates(v);
            assert!(
                candidates.contains(&(i as u64)),
                "indexed point {i} must be found in its own bucket"
            );
        }
    }

    #[test]
    fn candidates_are_deduplicated() {
        let ds = dataset();
        let index = build_index(&ds);
        let candidates = index.candidates(&ds.vectors()[0]);
        let mut unique = candidates.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), candidates.len());
    }

    #[test]
    fn candidate_recall_of_true_nn_is_high() {
        let ds = dataset();
        let index = build_index(&ds);
        let queries = ds.sample_queries(100, 0.01);
        let mut hits = 0;
        for q in &queries {
            // True nearest neighbour by brute force.
            let nn = ds
                .vectors()
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    crate::distance::euclidean_sq(q, a)
                        .partial_cmp(&crate::distance::euclidean_sq(q, b))
                        .unwrap()
                })
                .unwrap()
                .0 as u64;
            if index.candidates(q).contains(&nn) {
                hits += 1;
            }
        }
        assert!(hits >= 93, "paper's accuracy bar is 93 %, got {hits}/100");
    }

    #[test]
    fn candidates_prune_the_search_space() {
        let ds = dataset();
        let index = build_index(&ds);
        let queries = ds.sample_queries(20, 0.01);
        let mean: f64 =
            queries.iter().map(|q| index.candidates(q).len() as f64).sum::<f64>() / 20.0;
        assert!(
            mean < 2_000.0 * 0.6,
            "candidate set must be much smaller than the corpus, got {mean}"
        );
        assert!(mean > 0.0);
    }

    #[test]
    fn more_probes_never_reduce_candidates() {
        let ds = dataset();
        let ids: Vec<u64> = (0..ds.len() as u64).collect();
        let narrow = LshIndex::build(
            ds.dim(),
            LshConfig { probes: 1, ..Default::default() },
            ds.vectors(),
            &ids,
        );
        let wide = LshIndex::build(
            ds.dim(),
            LshConfig { probes: 17, ..Default::default() },
            ds.vectors(),
            &ids,
        );
        for q in ds.sample_queries(20, 0.05) {
            assert!(wide.candidates(&q).len() >= narrow.candidates(&q).len());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = dataset();
        let a = build_index(&ds);
        let b = build_index(&ds);
        let q = &ds.vectors()[7];
        assert_eq!(a.candidates(q), b.candidates(q));
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dim_query_panics() {
        let index = LshIndex::new(8, LshConfig::default());
        index.candidates(&[0.0; 4]);
    }
}
