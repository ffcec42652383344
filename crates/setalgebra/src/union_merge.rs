//! k-way sorted union — the mid-tier's merge of per-shard intersections.
//!
//! "The mid-tier merges intersected posting lists received from all leaves
//! via set union operations" (paper §III-C). Shards partition the document
//! space, so inputs are disjoint in production; the union nonetheless
//! deduplicates to stay a correct set operation for arbitrary inputs.

/// Unions sorted `u32` lists, owned or read from the leaves' frames, into
/// one sorted, deduplicated list.
///
/// # Examples
///
/// ```
/// use musuite_setalgebra::union_merge::union_sorted;
///
/// let merged = union_sorted(vec![vec![1, 5], vec![2, 5, 9]]);
/// assert_eq!(merged, vec![1, 2, 5, 9]);
/// ```
pub fn union_sorted<L>(lists: Vec<L>) -> Vec<u32>
where
    L: IntoIterator<Item = u32>,
    L::IntoIter: ExactSizeIterator,
{
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    let mut iters: Vec<L::IntoIter> = lists.into_iter().map(IntoIterator::into_iter).collect();
    let total: usize = iters.iter().map(ExactSizeIterator::len).sum();
    for (i, iter) in iters.iter_mut().enumerate() {
        if let Some(v) = iter.next() {
            heap.push(Reverse((v, i)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((value, i))) = heap.pop() {
        if out.last() != Some(&value) {
            out.push(value);
        }
        if let Some(next) = iters[i].next() {
            heap.push(Reverse((next, i)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_disjoint_shards() {
        // Round-robin sharded doc ids, as the service produces.
        let merged = union_sorted(vec![vec![0, 4, 8], vec![1, 5], vec![2, 6], vec![3, 7]]);
        assert_eq!(merged, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn deduplicates_overlap() {
        assert_eq!(union_sorted(vec![vec![1, 2, 3], vec![2, 3, 4]]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(union_sorted(Vec::<Vec<u32>>::new()), Vec::<u32>::new());
        assert_eq!(union_sorted(vec![Vec::new(), Vec::new()]), Vec::<u32>::new());
        assert_eq!(union_sorted(vec![vec![7]]), vec![7]);
    }

    #[test]
    fn equals_btreeset_union() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let mut truth = std::collections::BTreeSet::new();
            let mut lists = Vec::new();
            for _ in 0..rng.gen_range(0..6) {
                let mut list: Vec<u32> =
                    (0..rng.gen_range(0..100)).map(|_| rng.gen_range(0..500)).collect();
                list.sort_unstable();
                list.dedup();
                truth.extend(list.iter().copied());
                lists.push(list);
            }
            assert_eq!(union_sorted(lists), truth.into_iter().collect::<Vec<_>>());
        }
    }
}
