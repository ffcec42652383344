//! User neighbourhoods in factor space (the allknn substitute).
//!
//! "We use a neighbourhood algorithm, allknn, which relies on similarity
//! measures such as cosine … to generate ratings for movies in a user's
//! neighbourhood" (paper §III-D). Users are compared by the cosine of
//! their NMF factor rows; a leaf's neighbourhood search runs over its
//! shard of users only, which is exactly how the paper shards V.

use musuite_core::topk::top_k_by;
use std::cell::RefCell;
use std::cmp::Ordering;

/// The similarity measures the paper's allknn supports ("cosine, Pearson,
/// Euclidean, etc.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Similarity {
    /// Cosine of the angle between factor rows (scale-invariant).
    #[default]
    Cosine,
    /// Pearson correlation (mean-centred cosine; shift- and
    /// scale-invariant).
    Pearson,
    /// Negative Euclidean distance mapped to `(0, 1]` via `1 / (1 + d)`.
    Euclidean,
}

impl Similarity {
    /// Evaluates the measure; higher is always more similar.
    pub fn eval(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Similarity::Cosine => cosine(a, b),
            Similarity::Pearson => pearson(a, b),
            Similarity::Euclidean => {
                let d: f32 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt();
                1.0 / (1.0 + d)
            }
        }
    }
}

/// Pearson correlation between two equal-length vectors (0 for constant
/// vectors).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "factor ranks must match");
    if a.is_empty() {
        return 0.0;
    }
    let n = a.len() as f32;
    let mean_a: f32 = a.iter().sum::<f32>() / n;
    let mean_b: f32 = b.iter().sum::<f32>() / n;
    let centered_a: Vec<f32> = a.iter().map(|x| x - mean_a).collect();
    let centered_b: Vec<f32> = b.iter().map(|x| x - mean_b).collect();
    cosine(&centered_a, &centered_b)
}

/// Cosine similarity between two factor rows (0 for zero vectors).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "factor ranks must match");
    let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = na.sqrt() * nb.sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (dot / denom).clamp(-1.0, 1.0)
    }
}

/// Similarity descending, then index ascending: the one order every
/// Recommend ranking uses. `+0.0` and `-0.0` tie (cosines can be either)
/// and fall to the index; a NaN ranks after every number, never panics.
pub fn best_first<I: Ord>(a: &(I, f32), b: &(I, f32)) -> Ordering {
    match b.1.partial_cmp(&a.1) {
        Some(order) => order,
        None => a.1.is_nan().cmp(&b.1.is_nan()),
    }
    .then(a.0.cmp(&b.0))
}

/// Finds the `k` most cosine-similar users to `query` among `candidates`
/// (indices into `factors`), excluding an exact self-match by index.
///
/// Returns `(user index, similarity)` pairs, most similar first. A batch
/// of one for [`for_each_nearest_users`].
pub fn k_nearest_users(
    factors: &[Vec<f32>],
    query: &[f32],
    query_index: Option<usize>,
    candidates: &[usize],
    k: usize,
) -> Vec<(usize, f32)> {
    let mut nearest = Vec::new();
    for_each_nearest_users(
        factors,
        std::iter::once((query, query_index)),
        candidates,
        k,
        |neighbors| {
            nearest = neighbors.to_vec();
        },
    );
    nearest
}

/// Working memory of [`for_each_nearest_users`], one per thread and reused
/// by every call on it: one region of `candidates.len()` scores per query
/// (at most 16 B × queries × candidates), and how much of each is filled.
#[derive(Default)]
struct Scratch {
    scored: Vec<(usize, f32)>,
    filled: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> =
        const { RefCell::new(Scratch { scored: Vec::new(), filled: Vec::new() }) };
}

/// Finds the `k` nearest users for a whole batch of queries in **one
/// pass over the candidate factor rows**: each candidate's row is
/// fetched once and its cosine against every query accumulated before
/// moving on — the batched leaf's matrix–vector sweep. Scores go to
/// per-thread scratch, each query's region is cut to its `k` best under
/// [`best_first`] in place, and `each` is handed the regions in query
/// order: the search allocates nothing of its own.
///
/// Queries are `(factor row, excluded self index)` pairs as in the
/// single-query form, read anew for every candidate row: an iterator over
/// them, such as one over a batch's runs of queries by user, needs no list
/// of its own.
pub fn for_each_nearest_users<'q>(
    factors: &[Vec<f32>],
    queries: impl Iterator<Item = (&'q [f32], Option<usize>)> + Clone,
    candidates: &[usize],
    k: usize,
    mut each: impl FnMut(&[(usize, f32)]),
) {
    let (region, count) = (candidates.len(), queries.clone().count());
    // Taken, not borrowed: `each` runs in between.
    let Scratch { mut scored, mut filled } = SCRATCH.take();
    // Every entry read below is written first: grow, never clear.
    if scored.len() < count * region {
        scored.resize(count * region, (0, 0.0));
    }
    filled.clear();
    filled.resize(count, 0);
    for &candidate in candidates {
        let row = &factors[candidate];
        for (slot, (query, query_index)) in queries.clone().enumerate() {
            if Some(candidate) == query_index {
                continue;
            }
            scored[slot * region + filled[slot]] = (candidate, cosine(query, row));
            filled[slot] += 1;
        }
    }
    for (slot, &len) in filled.iter().enumerate() {
        let start = slot * region;
        each(top_k_by(&mut scored[start..start + len], k, best_first));
    }
    SCRATCH.set(Scratch { scored, filled });
}

/// [`for_each_nearest_users`], each query's neighbours copied out.
pub fn k_nearest_users_batch(
    factors: &[Vec<f32>],
    queries: &[(&[f32], Option<usize>)],
    candidates: &[usize],
    k: usize,
) -> Vec<Vec<(usize, f32)>> {
    let mut nearest = Vec::with_capacity(queries.len());
    for_each_nearest_users(factors, queries.iter().copied(), candidates, k, |neighbors| {
        nearest.push(neighbors.to_vec());
    });
    nearest
}

/// Similarity-weighted average of neighbour predictions.
///
/// `votes` are `(similarity, prediction)` pairs, one per neighbour: the
/// rating the neighbour implies, weighted by its (non-negative-clamped)
/// similarity, summed in the order given. Returns `None` when no
/// neighbour carries positive weight.
pub fn weighted_rating(votes: impl IntoIterator<Item = (f32, f32)>) -> Option<f32> {
    let mut numerator = 0.0f32;
    let mut denominator = 0.0f32;
    for (similarity, prediction) in votes {
        let weight = similarity.max(0.0);
        numerator += weight * prediction;
        denominator += weight;
    }
    if denominator <= 0.0 {
        None
    } else {
        Some(numerator / denominator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factors() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.0], // 0: axis x
            vec![0.9, 0.1], // 1: near x
            vec![0.0, 1.0], // 2: axis y
            vec![0.1, 0.9], // 3: near y
            vec![0.7, 0.7], // 4: diagonal
        ]
    }

    #[test]
    fn nearest_users_are_geometrically_sensible() {
        let f = factors();
        let all: Vec<usize> = (0..f.len()).collect();
        let nn = k_nearest_users(&f, &f[0], Some(0), &all, 2);
        assert_eq!(nn[0].0, 1, "the near-x user is most similar to x");
        assert!(nn[0].1 > nn[1].1);
    }

    #[test]
    fn self_is_excluded() {
        let f = factors();
        let all: Vec<usize> = (0..f.len()).collect();
        let nn = k_nearest_users(&f, &f[2], Some(2), &all, 10);
        assert_eq!(nn.len(), 4);
        assert!(nn.iter().all(|(u, _)| *u != 2));
    }

    #[test]
    fn candidate_restriction_respected() {
        let f = factors();
        let nn = k_nearest_users(&f, &f[0], None, &[2, 3], 5);
        assert_eq!(nn.len(), 2);
        assert!(nn.iter().all(|(u, _)| *u == 2 || *u == 3));
    }

    #[test]
    fn empty_candidates_yield_empty() {
        let f = factors();
        assert!(k_nearest_users(&f, &f[0], None, &[], 3).is_empty());
    }

    #[test]
    fn batched_knn_matches_sequential() {
        let f = factors();
        let all: Vec<usize> = (0..f.len()).collect();
        let queries: Vec<(&[f32], Option<usize>)> =
            vec![(&f[0], Some(0)), (&f[2], None), (&f[4], Some(4)), (&f[1], Some(1))];
        let batched = k_nearest_users_batch(&f, &queries, &all, 3);
        for (&(query, query_index), batch) in queries.iter().zip(&batched) {
            assert_eq!(batch, &k_nearest_users(&f, query, query_index, &all, 3));
        }
        assert!(k_nearest_users_batch(&f, &[], &all, 3).is_empty());
    }

    /// `k_nearest_users` as it was before the bounded selector, kept
    /// verbatim as the oracle the golden tests compare against.
    fn oracle_k_nearest_users(
        factors: &[Vec<f32>],
        query: &[f32],
        query_index: Option<usize>,
        candidates: &[usize],
        k: usize,
    ) -> Vec<(usize, f32)> {
        let mut scored: Vec<(usize, f32)> = candidates
            .iter()
            .filter(|&&candidate| Some(candidate) != query_index)
            .map(|&candidate| (candidate, cosine(query, &factors[candidate])))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("similarities are finite").then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }

    fn bits(neighbors: &[(usize, f32)]) -> Vec<(usize, u32)> {
        neighbors.iter().map(|&(user, similarity)| (user, similarity.to_bits())).collect()
    }

    /// Rows 0–2: the query row 0 scores `-0.0` against row 1 and `+0.0`
    /// against row 2, a tie the index breaks.
    fn signed_zero_rows() -> Vec<Vec<f32>> {
        vec![vec![1e-20, 1e3, 0.0], vec![-1e-20, 0.0, 1e3], vec![0.0, 0.0, 1e3]]
    }

    #[test]
    fn signed_zero_similarities_tie_and_fall_to_the_index() {
        let f = signed_zero_rows();
        assert_eq!(cosine(&f[0], &f[1]).to_bits(), (-0.0f32).to_bits());
        assert_eq!(cosine(&f[0], &f[2]).to_bits(), 0.0f32.to_bits());
        let nn = k_nearest_users(&f, &f[0], Some(0), &[2, 1], 2);
        assert_eq!(nn.iter().map(|&(user, _)| user).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(bits(&nn), bits(&oracle_k_nearest_users(&f, &f[0], Some(0), &[2, 1], 2)));
    }

    /// Seeded factor rows — mixed signs, duplicated rows (distinct users
    /// tying exactly), signed zeros — against candidate lists with repeats,
    /// over `k` from 0 past the list length, one query at a time and in
    /// batches that repeat a user: every result equals the oracle's, bit
    /// for bit.
    #[test]
    fn golden_neighbours_match_the_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let mut f = signed_zero_rows();
        f.extend((0..400).map(|_| (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect()));
        for copy in 0..40 {
            f.push(f[3 + copy * 5].clone());
        }
        let users = f.len();
        for _ in 0..30 {
            let len = rng.gen_range(0..users + 40);
            let candidates: Vec<usize> = (0..len).map(|_| rng.gen_range(0..users)).collect();
            let query_users: Vec<usize> = (0..4).map(|_| rng.gen_range(0..users)).collect();
            let mut queries: Vec<(&[f32], Option<usize>)> =
                query_users.iter().map(|&user| (f[user].as_slice(), Some(user))).collect();
            queries.push(queries[0]);
            queries.push((&f[query_users[1]], None));
            for k in [0, 1, 20, len / 2, len, len + 5, usize::MAX] {
                let batched = k_nearest_users_batch(&f, &queries, &candidates, k);
                for (&(query, query_index), batch) in queries.iter().zip(&batched) {
                    let expected =
                        bits(&oracle_k_nearest_users(&f, query, query_index, &candidates, k));
                    assert_eq!(bits(batch), expected);
                    assert_eq!(
                        bits(&k_nearest_users(&f, query, query_index, &candidates, k)),
                        expected
                    );
                }
            }
        }
    }

    /// A NaN factor row scores NaN against everyone: it ranks after every
    /// number, two NaNs tie and fall to the index, and nothing panics.
    #[test]
    fn nan_factor_row_ranks_last_and_never_panics() {
        let mut f = factors();
        f.push(vec![f32::NAN, 0.5]);
        f.push(vec![f32::NAN, f32::NAN]);
        let all: Vec<usize> = (0..f.len()).collect();
        let nn = k_nearest_users(&f, &f[0], Some(0), &all, 10);
        let order: Vec<usize> = nn.iter().map(|&(user, _)| user).collect();
        assert_eq!(order, vec![1, 4, 3, 2, 5, 6]);
        assert!(nn[4].1.is_nan() && nn[5].1.is_nan());
        assert_eq!(k_nearest_users(&f, &f[0], Some(0), &all, 1)[0].0, 1);
        // The NaN row as the query: every similarity NaN, index order.
        let nn = k_nearest_users(&f, &f[5], Some(5), &all, 3);
        assert_eq!(nn.iter().map(|&(user, _)| user).collect::<Vec<_>>(), vec![0, 1, 2]);
        let batched = k_nearest_users_batch(&f, &[(&f[5], Some(5)), (&f[0], None)], &all, 10);
        assert_eq!(batched[0].len(), 6);
        assert_eq!(batched[1][0].0, 0, "self-similarity 1 ranks first");
        assert_eq!(best_first(&(0, f32::NAN), &(1, -1.0)), Ordering::Greater);
        assert_eq!(best_first(&(1, 0.0), &(0, -0.0)), Ordering::Greater);
    }

    #[test]
    fn weighted_rating_averages_by_similarity() {
        let rating = weighted_rating([(1.0, 4.0), (0.5, 1.0)]).unwrap();
        assert!((rating - 3.0).abs() < 1e-6); // (1·4 + 0.5·1) / 1.5
    }

    #[test]
    fn negative_similarities_carry_no_weight() {
        let rating = weighted_rating([(-0.9, 1.0), (0.3, 5.0)]).unwrap();
        assert!((rating - 5.0).abs() < 1e-6);
        assert_eq!(weighted_rating([(-1.0, 3.0)]), None);
        assert_eq!(weighted_rating([]), None);
    }

    #[test]
    fn pearson_is_shift_invariant() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let shifted: Vec<f32> = a.iter().map(|x| x + 100.0).collect();
        assert!((pearson(&a, &shifted) - 1.0).abs() < 1e-4);
        let reversed = [4.0f32, 3.0, 2.0, 1.0];
        assert!((pearson(&a, &reversed) + 1.0).abs() < 1e-4);
        // Constant vectors have no variance: correlation defined as 0.
        assert_eq!(pearson(&[5.0, 5.0], &[1.0, 2.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn similarity_measures_rank_identical_vectors_highest() {
        let target = [0.3f32, 0.7, 0.1];
        let same = target;
        let close = [0.31f32, 0.69, 0.12];
        let far = [0.9f32, 0.05, 0.9];
        for measure in [Similarity::Cosine, Similarity::Pearson, Similarity::Euclidean] {
            let s_same = measure.eval(&target, &same);
            let s_close = measure.eval(&target, &close);
            let s_far = measure.eval(&target, &far);
            assert!(s_same >= s_close, "{measure:?}");
            assert!(s_close > s_far, "{measure:?}: {s_close} vs {s_far}");
        }
    }

    #[test]
    fn euclidean_similarity_is_bounded() {
        let s = Similarity::Euclidean;
        assert_eq!(s.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
        assert!(s.eval(&[0.0; 2], &[100.0; 2]) > 0.0);
        assert!(s.eval(&[0.0; 2], &[100.0; 2]) < 0.01);
    }

    #[test]
    fn cosine_bounds() {
        let f = factors();
        for a in &f {
            for b in &f {
                let c = cosine(a, b);
                assert!((-1.0..=1.0).contains(&c));
            }
            assert!((cosine(a, a) - 1.0).abs() < 1e-6);
        }
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }
}
