//! Posting-list intersection algorithms.
//!
//! The leaf "intersects two sets L1 and L2 using a linear merge by
//! scanning both lists in parallel, requiring O(|L1|+|L2|) time" (paper
//! §III-C) — [`intersect_linear`]. The skip pointers the corpus stores
//! exist "to speed up list intersections"; [`intersect_skipping`] uses
//! them, seeking in the longer list instead of scanning, which wins when
//! list lengths are very different (the Zipf-shaped case). The ablation
//! bench compares both.

use crate::skiplist::SkipList;

/// Intersects two sorted slices by linear merge — the paper's leaf
/// algorithm (the "merge" step of merge sort).
///
/// # Examples
///
/// ```
/// use musuite_setalgebra::intersect::intersect_linear;
///
/// assert_eq!(intersect_linear(&[1, 3, 5, 7], &[3, 4, 5, 6]), vec![3, 5]);
/// ```
pub fn intersect_linear(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Intersects many sorted slices, shortest-first so the running result
/// stays as small as possible.
pub fn intersect_many(lists: &[&[u32]]) -> Vec<u32> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].to_vec(),
        _ => {
            let mut order: Vec<&[u32]> = lists.to_vec();
            order.sort_by_key(|list| list.len());
            let mut result = intersect_linear(order[0], order[1]);
            for list in &order[2..] {
                if result.is_empty() {
                    break;
                }
                result = intersect_linear(&result, list);
            }
            result
        }
    }
}

/// Intersects two sorted slices with galloping (exponential) search in
/// the longer list — `O(|a| log |b|)` like the skip-list seek, but over a
/// flat array (better constants, no pointer chasing). The classic choice
/// when `|a| ≪ |b|`.
pub fn intersect_galloping(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(short.len());
    let mut low = 0usize;
    for &value in short {
        if low >= long.len() {
            break;
        }
        // Gallop: double the step until long[high] >= value (or the end),
        // then binary-search the inclusive bracket.
        let mut step = 1usize;
        let mut high = low + 1;
        while high < long.len() && long[high] < value {
            high += step;
            step *= 2;
        }
        let end = (high + 1).min(long.len());
        match long[low..end].binary_search(&value) {
            Ok(offset) => {
                out.push(value);
                low += offset + 1;
            }
            Err(offset) => {
                low += offset;
            }
        }
    }
    out
}

/// Intersects a sorted list (the shorter, driving list) with a skip list
/// in place, by seeking — expected `O(|a| log |b|)`, beating the linear
/// merge when `|a| ≪ |b|`. `a` keeps the values `b` holds, and its
/// storage: nothing is allocated.
pub fn intersect_skipping(a: &mut Vec<u32>, b: &SkipList) {
    let mut cursor = b.cursor();
    let mut past_end = false;
    a.retain(|&value| {
        if past_end {
            return false;
        }
        match cursor.seek(value) {
            Some(found) => found == value,
            None => {
                past_end = true;
                false
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_basic_cases() {
        assert_eq!(intersect_linear(&[], &[]), Vec::<u32>::new());
        assert_eq!(intersect_linear(&[1, 2], &[]), Vec::<u32>::new());
        assert_eq!(intersect_linear(&[1, 2, 3], &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(intersect_linear(&[1, 3], &[2, 4]), Vec::<u32>::new());
    }

    #[test]
    fn many_orders_by_size_and_short_circuits() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).step_by(2).collect();
        let c: Vec<u32> = (0..100).step_by(3).collect();
        let result = intersect_many(&[&a, &b, &c]);
        let expected: Vec<u32> = (0..100).filter(|v| v % 6 == 0).collect();
        assert_eq!(result, expected);
        // Disjoint early exit.
        assert_eq!(intersect_many(&[&[1, 2], &[3, 4], &a]), Vec::<u32>::new());
        // Degenerate arities.
        assert_eq!(intersect_many(&[]), Vec::<u32>::new());
        assert_eq!(intersect_many(&[&a]), a);
    }

    #[test]
    fn skipping_equals_linear() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let mut a: Vec<u32> =
                (0..rng.gen_range(0..200)).map(|_| rng.gen_range(0..1000)).collect();
            a.sort_unstable();
            a.dedup();
            let mut b_vec: Vec<u32> =
                (0..rng.gen_range(0..2000)).map(|_| rng.gen_range(0..1000)).collect();
            b_vec.sort_unstable();
            b_vec.dedup();
            let b_skip: SkipList = b_vec.iter().copied().collect();
            let expected = intersect_linear(&a, &b_vec);
            intersect_skipping(&mut a, &b_skip);
            assert_eq!(a, expected);
        }
    }

    #[test]
    fn galloping_equals_linear() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..50 {
            let mut a: Vec<u32> =
                (0..rng.gen_range(0..100)).map(|_| rng.gen_range(0..2000)).collect();
            a.sort_unstable();
            a.dedup();
            let mut b: Vec<u32> =
                (0..rng.gen_range(0..2000)).map(|_| rng.gen_range(0..2000)).collect();
            b.sort_unstable();
            b.dedup();
            assert_eq!(intersect_galloping(&a, &b), intersect_linear(&a, &b));
            // Symmetric dispatch: argument order must not matter.
            assert_eq!(intersect_galloping(&b, &a), intersect_linear(&a, &b));
        }
    }

    #[test]
    fn galloping_edge_cases() {
        assert_eq!(intersect_galloping(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(intersect_galloping(&[5], &[5]), vec![5]);
        assert_eq!(intersect_galloping(&[u32::MAX], &[0, u32::MAX]), vec![u32::MAX]);
        let long: Vec<u32> = (0..10_000).collect();
        assert_eq!(intersect_galloping(&[9_999], &long), vec![9_999]);
    }

    #[test]
    fn skipping_empty_inputs() {
        let mut a = vec![1, 2, 3];
        intersect_skipping(&mut a, &SkipList::new());
        assert_eq!(a, Vec::<u32>::new());
        let mut a = Vec::new();
        intersect_skipping(&mut a, &(0..10u32).collect());
        assert_eq!(a, Vec::<u32>::new());
    }
}
