//! Exact order statistics over raw samples.
//!
//! The suite's `LatencyHistogram` is log-bucketed (2–6 % coarse), which is
//! wider than the bounds this benchmark gates on, so every percentile the
//! benchmark reports from its own samples is exact.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle pair for even lengths). Sorts
/// the slice in place. `None` when empty or when a value is NaN.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 { values[mid] } else { (values[mid - 1] + values[mid]) / 2.0 })
}

/// Median of integer samples, as `f64`.
pub fn median_u64(values: &[u64]) -> Option<f64> {
    let mut as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    median(&mut as_f64)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method) — the rule the acceptance check
/// for this benchmark uses. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let n = sorted.len();
    let cut = |i: usize| {
        // j = i * (n + 1) / 4, clamped to [1, n - 1]; delta is the remainder.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median; `None` when undefined.
pub fn iqr_ratio(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(&mut values.to_vec())?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), Some(50));
        assert_eq!(percentile_sorted(&sorted, 0.90), Some(90));
        assert_eq!(percentile_sorted(&sorted, 0.99), Some(99));
        assert_eq!(percentile_sorted(&sorted, 0.999), Some(100));
        assert_eq!(percentile_sorted(&sorted, 0.0), Some(1));
        assert_eq!(percentile_sorted(&sorted, 1.0), Some(100));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn percentile_of_small_samples() {
        assert_eq!(percentile_sorted(&[7], 0.99), Some(7));
        assert_eq!(percentile_sorted(&[1, 2, 3], 0.5), Some(2));
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.5), Some(2));
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.51), Some(3));
    }

    #[test]
    fn median_odd_even_and_degenerate() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [1.0, f64::NAN]), None);
        assert_eq!(median_u64(&[10, 30, 20]), Some(20.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_ratio_is_share_of_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_ratio(&values).unwrap() - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(iqr_ratio(&[0.0, 0.0, 0.0]), None);
    }
}
