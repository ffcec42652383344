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
use std::cell::RefCell;
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

/// A lookup's working memory, one per thread and reused by every lookup it
/// makes: the bins of the table being probed, and one stamp per ordinal
/// that equals `generation` once the lookup in progress has reported it.
struct Scratch {
    bins: Vec<i32>,
    seen: Vec<u32>,
    generation: u32,
}

impl Scratch {
    /// Sizes the scratch for an index and opens a new generation.
    fn begin(&mut self, hashes: usize, ordinals: usize) -> u32 {
        self.bins.resize(hashes, 0);
        if self.seen.len() < ordinals {
            self.seen.resize(ordinals, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamps written 2^32 lookups ago would read as this lookup's.
            self.seen.fill(0);
            self.generation = 1;
        }
        self.generation
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> =
        const { RefCell::new(Scratch { bins: Vec::new(), seen: Vec::new(), generation: 0 }) };
}

/// A multi-table, multiprobe LSH index mapping vectors to point ids.
///
/// The index stores only ids — HDSearch's mid-tier "does not store feature
/// vectors directly" (paper §III-A); ids indirectly reference vectors
/// sharded across the leaves.
///
/// Layout: the projections of all tables are the rows of one row-major
/// matrix (table `t`, hash `h` is row `t * hashes_per_table + h`), and a
/// bucket holds dense `u32` ordinals — one per distinct id, numbered in
/// first-insertion order — so a lookup deduplicates with a flat stamp
/// array instead of a hash set. A lookup allocates nothing but its output:
/// it works in per-thread scratch of 4 B per distinct indexed id.
pub struct LshIndex {
    config: LshConfig,
    dim: usize,
    /// `tables * hashes_per_table` projection directions of `dim` each.
    directions: Vec<f32>,
    /// One quantization offset per direction.
    offsets: Vec<f32>,
    /// Per table: bucket key → ordinals of the points hashed there.
    buckets: Vec<HashMap<u64, Vec<u32>>>,
    /// Ordinal → id.
    ids: Vec<u64>,
    /// Id → ordinal: an id inserted twice keeps one ordinal, so a lookup
    /// reports it once.
    ordinals: HashMap<u64, u32>,
    /// Insertions, an id inserted twice counting twice.
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
        let rows = config.tables * config.hashes_per_table;
        let mut directions = Vec::with_capacity(rows * dim);
        let mut offsets = Vec::with_capacity(rows);
        // Per row: its direction, then its offset — the draw order that
        // fixes the index for a seed.
        for _ in 0..rows {
            directions.extend((0..dim).map(|_| gaussian(&mut rng)));
            offsets.push(rng.gen_range(0.0..config.bucket_width));
        }
        let buckets = (0..config.tables).map(|_| HashMap::new()).collect();
        LshIndex {
            config,
            dim,
            directions,
            offsets,
            buckets,
            ids: Vec::new(),
            ordinals: HashMap::new(),
            len: 0,
        }
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

    /// Writes `vector`'s bin under each projection of `table` into `bins`.
    fn bins_into(&self, table: usize, vector: &[f32], bins: &mut [i32]) {
        let width = self.config.bucket_width;
        let first = table * self.config.hashes_per_table;
        for (row, bin) in (first..).zip(bins) {
            let direction = &self.directions[row * self.dim..(row + 1) * self.dim];
            let value = crate::distance::dot(vector, direction) + self.offsets[row];
            *bin = (value / width).floor() as i32;
        }
    }

    /// Inserts one vector under `id`.
    ///
    /// # Panics
    ///
    /// Panics if the vector's dimension is wrong, or on the 2^32-th
    /// distinct id.
    pub fn insert(&mut self, vector: &[f32], id: u64) {
        assert_eq!(vector.len(), self.dim, "vector dimensionality mismatch");
        let next = self.ids.len();
        let ordinal = *self.ordinals.entry(id).or_insert_with(|| {
            assert!(next < u32::MAX as usize, "an index holds fewer than 2^32 distinct ids");
            self.ids.push(id);
            next as u32
        });
        let mut bins = vec![0; self.config.hashes_per_table];
        for table in 0..self.buckets.len() {
            self.bins_into(table, vector, &mut bins);
            self.buckets[table].entry(key_of(&bins)).or_default().push(ordinal);
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
        let mut out = Vec::new();
        self.candidates_into(query, &mut out);
        out
    }

    /// As [`candidates`](LshIndex::candidates), into `out` (cleared first),
    /// so that a caller who reuses `out` makes the lookup allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the query's dimension is wrong.
    pub fn candidates_into(&self, query: &[f32], out: &mut Vec<u64>) {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        out.clear();
        SCRATCH.with_borrow_mut(|scratch| {
            let generation = scratch.begin(self.config.hashes_per_table, self.ids.len());
            let Scratch { bins, seen, .. } = scratch;
            for (table, buckets) in self.buckets.iter().enumerate() {
                self.bins_into(table, query, bins);
                let mut visit = |bins: &[i32]| {
                    let Some(bucket) = buckets.get(&key_of(bins)) else { return };
                    for &ordinal in bucket {
                        let stamp = &mut seen[ordinal as usize];
                        if *stamp != generation {
                            *stamp = generation;
                            out.push(self.ids[ordinal as usize]);
                        }
                    }
                };
                visit(bins);
                // Multiprobe: ±1 perturbations of each coordinate, nearest
                // perturbations first, until the probe budget is spent. One
                // bin is perturbed in place and restored; a bin the cast
                // saturated at `i32::MAX`/`MIN` wraps rather than overflows.
                let mut probes = 1;
                'probing: for delta in [1i32, -1] {
                    for position in 0..bins.len() {
                        if probes >= self.config.probes {
                            break 'probing;
                        }
                        let bin = bins[position];
                        bins[position] = bin.wrapping_add(delta);
                        visit(bins);
                        bins[position] = bin;
                        probes += 1;
                    }
                }
            }
        });
    }

    /// Total buckets across tables (diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.buckets.iter().map(HashMap::len).sum()
    }
}

impl std::fmt::Debug for LshIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LshIndex")
            .field("points", &self.len)
            .field("dim", &self.dim)
            .field("tables", &self.buckets.len())
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

    /// A finite query far out saturates its bins at `i32::MAX`/`MIN`; the
    /// multiprobe perturbation of such a bin must wrap, not overflow.
    #[test]
    fn saturated_bins_are_probed_without_overflow() {
        let ds = dataset();
        let ids: Vec<u64> = (0..ds.len() as u64).collect();
        let full_probe = LshConfig { probes: 17, ..Default::default() };
        for config in [LshConfig::default(), full_probe] {
            let index = LshIndex::build(ds.dim(), config, ds.vectors(), &ids);
            for coordinate in [3e38f32, -3e38] {
                // All coordinates far out, or one. Each projection of the
                // latter is a single huge product, never NaN, so every bin
                // saturates.
                let mut one_far = vec![0.0; ds.dim()];
                one_far[0] = coordinate;
                for query in [vec![coordinate; ds.dim()], one_far] {
                    let candidates = index.candidates(&query);
                    let mut unique = candidates.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    assert_eq!(unique.len(), candidates.len());
                }
            }
        }
    }

    #[test]
    fn candidates_into_clears_and_refills() {
        let ds = dataset();
        let index = build_index(&ds);
        let mut out = vec![u64::MAX; 3];
        for q in ds.sample_queries(5, 0.02) {
            index.candidates_into(&q, &mut out);
            assert_eq!(out, index.candidates(&q));
        }
    }

    /// The index as it was before its flat layout, kept verbatim as the
    /// oracle the golden tests compare against.
    mod oracle {
        use super::super::{gaussian, key_of, LshConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

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

        pub struct OracleIndex {
            config: LshConfig,
            dim: usize,
            tables: Vec<HashTable>,
        }

        impl OracleIndex {
            pub fn build(
                dim: usize,
                config: LshConfig,
                vectors: &[Vec<f32>],
                ids: &[u64],
            ) -> OracleIndex {
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
                let mut index = OracleIndex { config, dim, tables };
                for (vector, &id) in vectors.iter().zip(ids) {
                    index.insert(vector, id);
                }
                index
            }

            fn insert(&mut self, vector: &[f32], id: u64) {
                assert_eq!(vector.len(), self.dim, "vector dimensionality mismatch");
                let width = self.config.bucket_width;
                for table in &mut self.tables {
                    let bins = table.bins(vector, width);
                    table.buckets.entry(key_of(&bins)).or_default().push(id);
                }
            }

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
        }
    }

    /// Same candidates in the same order as the oracle, over probe budgets
    /// and table shapes, for corpus points and noisy queries alike.
    #[test]
    fn golden_candidates_match_the_oracle() {
        let ds = dataset();
        let ids: Vec<u64> = (0..ds.len() as u64).collect();
        let mut queries = ds.sample_queries(100, 0.05);
        queries.extend(ds.vectors().iter().step_by(97).cloned());
        for config in [
            LshConfig::default(),
            LshConfig { probes: 1, ..Default::default() },
            LshConfig { probes: 17, ..Default::default() },
            LshConfig { probes: 40, ..Default::default() },
            LshConfig { tables: 3, hashes_per_table: 5, bucket_width: 1.5, probes: 6, seed: 9 },
        ] {
            let index = LshIndex::build(ds.dim(), config.clone(), ds.vectors(), &ids);
            let oracle = oracle::OracleIndex::build(ds.dim(), config.clone(), ds.vectors(), &ids);
            for q in &queries {
                assert_eq!(index.candidates(q), oracle.candidates(q), "{config:?}");
            }
        }
    }

    /// Ids given more than once (to several vectors, and one vector twice)
    /// are reported once, at their first sighting, as the oracle does.
    #[test]
    fn golden_candidates_match_the_oracle_with_repeated_ids() {
        let ds = dataset();
        let mut vectors = ds.vectors().to_vec();
        vectors.push(vectors[0].clone());
        let ids: Vec<u64> =
            (0..vectors.len() as u64).map(|i| if i == 2_000 { 0 } else { i % 700 * 3 }).collect();
        let index = LshIndex::build(ds.dim(), LshConfig::default(), &vectors, &ids);
        let oracle = oracle::OracleIndex::build(ds.dim(), LshConfig::default(), &vectors, &ids);
        assert_eq!(index.len(), 2_001, "every insertion counts");
        for q in ds.sample_queries(100, 0.05).iter().chain(&vectors[..50]) {
            assert_eq!(index.candidates(q), oracle.candidates(q));
        }
    }
}
