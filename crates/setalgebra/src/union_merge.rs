//! k-way sorted union — the mid-tier's merge of per-shard intersections.
//!
//! "The mid-tier merges intersected posting lists received from all leaves
//! via set union operations" (paper §III-C). Shards partition the document
//! space, so inputs are disjoint in production; the union nonetheless
//! deduplicates to stay a correct set operation for arbitrary inputs.

use musuite_codec::MAX_FRAME_LEN;
use std::cell::RefCell;
use std::mem::size_of;

thread_local! {
    /// The calling thread's running union and the buffer the next list is
    /// merged into, reused by every [`union_sorted`] on it (one that
    /// outgrows a frame is let go).
    static SCRATCH: RefCell<(Vec<u32>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Unions sorted `u32` lists, owned or read from the leaves' frames, into
/// one sorted, deduplicated list.
///
/// The lists are folded in one at a time, each merged with the union so
/// far through the calling thread's scratch: the union is the one
/// allocation, at its exact length (none if it is empty). Scratch that is
/// too short grows once per list, to the union so far plus the list's
/// length as its iterator's lower size hint gives it.
///
/// # Examples
///
/// ```
/// use musuite_setalgebra::union_merge::union_sorted;
///
/// let merged = union_sorted(vec![vec![1, 5], vec![2, 5, 9]]);
/// assert_eq!(merged, vec![1, 2, 5, 9]);
/// ```
pub fn union_sorted<L>(lists: impl IntoIterator<Item = L>) -> Vec<u32>
where
    L: IntoIterator<Item = u32>,
{
    // Taken, not borrowed: the lists' iterators run in between.
    let (mut union, mut next) = SCRATCH.take();
    union.clear();
    for list in lists {
        let list = list.into_iter();
        next.clear();
        next.reserve(union.len() + list.size_hint().0);
        let mut kept = union.iter().copied().peekable();
        let mut list = list.peekable();
        loop {
            let least = match (kept.peek(), list.peek()) {
                (Some(a), Some(b)) if b < a => list.next(),
                (Some(_), _) => kept.next(),
                (None, _) => list.next(),
            };
            let Some(least) = least else { break };
            if next.last() != Some(&least) {
                next.push(least);
            }
        }
        std::mem::swap(&mut union, &mut next);
    }
    let merged = union.to_vec();
    let fits = |buffer: &Vec<u32>| buffer.capacity() * size_of::<u32>() <= MAX_FRAME_LEN;
    if fits(&union) && fits(&next) {
        SCRATCH.set((union, next));
    }
    merged
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
