//! Bounded top-`k` selection: the one ranking step every k-NN kernel ends
//! with.
//!
//! A leaf scores every candidate it was sent but returns only `k` of them
//! (HDSearch's nearest vectors, Recommend's most similar users). Sorting
//! all `n` scores to keep `k` costs `O(n log n)`; selecting the `k`-th
//! element first (`select_nth_unstable_by`, `O(n)` on average) and sorting
//! only the survivors costs `O(n + k log k)`, in place and without an
//! allocation.
//!
//! Under a **total** order — one in which two elements compare `Equal`
//! only if they are interchangeable — the result is exactly the first `k`
//! elements of a full sort, so callers swap one for the other and keep
//! bit-identical outputs. Each caller supplies that order (distance then
//! id, similarity then index) and owns its NaN policy.

use std::cmp::Ordering;

/// Reorders `items` so that its first `min(k, items.len())` elements are
/// the least under `order`, in ascending order, and returns that prefix.
/// The order of the elements after it is unspecified.
///
/// # Examples
///
/// ```
/// use musuite_core::topk::top_k_by;
///
/// let mut scores = [5, 1, 4, 2, 3];
/// assert_eq!(top_k_by(&mut scores, 2, Ord::cmp), &[1, 2]);
/// assert_eq!(top_k_by(&mut scores, 9, Ord::cmp), &[1, 2, 3, 4, 5]);
/// assert!(top_k_by(&mut scores, 0, Ord::cmp).is_empty());
/// ```
pub fn top_k_by<T>(
    items: &mut [T],
    k: usize,
    mut order: impl FnMut(&T, &T) -> Ordering,
) -> &mut [T] {
    let kept = k.min(items.len());
    if kept == 0 {
        return &mut items[..0];
    }
    if kept < items.len() {
        items.select_nth_unstable_by(kept - 1, &mut order);
    }
    let top = &mut items[..kept];
    top.sort_unstable_by(order);
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_the_least_k_sorted() {
        let mut items = vec![9, 3, 7, 1, 8, 2];
        assert_eq!(top_k_by(&mut items, 3, Ord::cmp), &[1, 2, 3]);
        let mut descending = vec![9, 3, 7, 1, 8, 2];
        assert_eq!(top_k_by(&mut descending, 2, |a: &i32, b| b.cmp(a)), &[9, 8]);
    }

    #[test]
    fn k_zero_and_k_past_the_end() {
        let mut empty: [u8; 0] = [];
        assert!(top_k_by(&mut empty, 3, Ord::cmp).is_empty());
        let mut items = [2, 1];
        assert!(top_k_by(&mut items, 0, Ord::cmp).is_empty());
        assert_eq!(top_k_by(&mut items, usize::MAX, Ord::cmp), &[1, 2]);
    }

    proptest! {
        /// Under a total order the selection is the sorted prefix.
        #[test]
        fn equals_the_prefix_of_a_full_sort(
            items in proptest::collection::vec((0u8..16, any::<u16>()), 0..64),
            k in 0usize..80,
        ) {
            let mut sorted = items.clone();
            sorted.sort();
            sorted.truncate(k);
            let mut selected = items;
            prop_assert_eq!(top_k_by(&mut selected, k, Ord::cmp).to_vec(), sorted);
        }
    }
}
