//! k-NN merge of distance-sorted leaf result lists.
//!
//! "Each leaf calculates distances and returns a distance-sorted list. The
//! mid-tier then merges these responses and returns the k-NN across all
//! shards" (paper §III-A). The merge is the "merge" step of merge sort,
//! applied to one list after another, with an early exit after `k`
//! outputs.

use crate::protocol::Neighbor;
use musuite_codec::MAX_FRAME_LEN;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::mem::size_of;

/// Distance, then global id: the one order neighbours rank by, in a leaf's
/// list and in the merge. A NaN distance, which a reply's bytes can carry
/// whatever its sign, ranks after every number; a finite query's squared
/// distances are never NaN nor `-0.0`, so on them this agrees with `<`
/// (an overflowing one is `+inf`).
pub fn nearest_first(a: &Neighbor, b: &Neighbor) -> Ordering {
    a.distance
        .is_nan()
        .cmp(&b.distance.is_nan())
        .then(a.distance.total_cmp(&b.distance))
        .then(a.id.cmp(&b.id))
}

thread_local! {
    /// The calling thread's running answer and the buffer the next list is
    /// merged into, reused by every [`merge_top_k`] on it (at most `k`
    /// neighbours each; one that outgrows a frame is let go).
    static SCRATCH: RefCell<(Vec<Neighbor>, Vec<Neighbor>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Merges sorted neighbour lists into the global top-`k`.
///
/// Input lists must each be sorted by [`nearest_first`] (leaves guarantee
/// this), owned or read from the leaves' frames; the output is sorted the
/// same way, so ties break by id, and on a tie of both the earlier list's
/// neighbour comes first. The lists are folded in one at a time through
/// the calling thread's scratch, which keeps no more than `k`: the answer
/// is the one allocation, at its exact length (none if it is empty).
///
/// # Examples
///
/// ```
/// use musuite_hdsearch::merge::merge_top_k;
/// use musuite_hdsearch::protocol::Neighbor;
///
/// let a = vec![Neighbor { id: 1, distance: 0.1 }, Neighbor { id: 2, distance: 0.9 }];
/// let b = vec![Neighbor { id: 3, distance: 0.5 }];
/// let merged = merge_top_k(vec![a, b], 2);
/// assert_eq!(merged.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 3]);
/// ```
pub fn merge_top_k<L>(lists: impl IntoIterator<Item = L>, k: usize) -> Vec<Neighbor>
where
    L: IntoIterator<Item = Neighbor>,
{
    // Taken, not borrowed: the lists' iterators run in between.
    let (mut answer, mut next) = SCRATCH.take();
    answer.clear();
    for list in lists {
        next.clear();
        let mut kept = answer.iter().copied().peekable();
        let mut list = list.into_iter().peekable();
        while next.len() < k {
            let nearest = match (kept.peek(), list.peek()) {
                (Some(a), Some(b)) if nearest_first(b, a).is_lt() => list.next(),
                (Some(_), _) => kept.next(),
                (None, _) => list.next(),
            };
            let Some(nearest) = nearest else { break };
            next.push(nearest);
        }
        std::mem::swap(&mut answer, &mut next);
    }
    let merged = answer.to_vec();
    // `k` comes off the wire: an answer longer than a frame is not kept.
    let fits = |buffer: &Vec<Neighbor>| buffer.capacity() * size_of::<Neighbor>() <= MAX_FRAME_LEN;
    if fits(&answer) && fits(&next) {
        SCRATCH.set((answer, next));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u64, distance: f32) -> Neighbor {
        Neighbor { id, distance }
    }

    #[test]
    fn merges_across_lists_in_distance_order() {
        let merged = merge_top_k(
            vec![vec![n(1, 0.1), n(4, 0.7)], vec![n(2, 0.2), n(5, 0.8)], vec![n(3, 0.3)]],
            5,
        );
        assert_eq!(merged.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn stops_at_k() {
        let merged = merge_top_k(vec![vec![n(1, 0.1), n(2, 0.2), n(3, 0.3)]], 2);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn short_lists_yield_fewer_than_k() {
        let merged = merge_top_k(vec![vec![n(1, 0.5)], vec![]], 10);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn empty_input() {
        assert!(merge_top_k(Vec::<Vec<Neighbor>>::new(), 5).is_empty());
        assert!(merge_top_k(vec![vec![], vec![]], 5).is_empty());
        assert!(merge_top_k(vec![vec![n(1, 0.0)]], 0).is_empty());
    }

    #[test]
    fn huge_k_returns_every_neighbour_without_reserving_k() {
        let merged = merge_top_k(vec![vec![n(1, 0.1), n(2, 0.4)], vec![n(3, 0.2)]], usize::MAX);
        assert_eq!(merged.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 3, 2]);
    }

    #[test]
    fn ties_break_by_id_for_determinism() {
        let merged = merge_top_k(vec![vec![n(9, 0.5)], vec![n(3, 0.5)]], 2);
        assert_eq!(merged.iter().map(|x| x.id).collect::<Vec<_>>(), vec![3, 9]);
    }

    #[test]
    fn a_nan_distance_ranks_after_every_number() {
        let nan = n(5, f32::NAN);
        let merged = merge_top_k(vec![vec![nan], vec![n(1, 0.1), n(2, 0.2)]], 2);
        assert_eq!(merged.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 2]);
        let negative = n(6, -f32::NAN);
        let merged = merge_top_k(vec![vec![negative], vec![n(1, f32::INFINITY)], vec![nan]], 3);
        assert_eq!(merged.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 6, 5]);
    }

    #[test]
    fn equals_sort_of_concatenation() {
        // Property: merging sorted shards == sorting the concatenation.
        let mut lists = Vec::new();
        let mut all = Vec::new();
        for shard in 0..4u64 {
            let mut list: Vec<Neighbor> =
                (0..25).map(|i| n(shard * 100 + i, ((i * 7 + shard * 3) % 50) as f32)).collect();
            list.sort_by(|a, b| (a.distance, a.id).partial_cmp(&(b.distance, b.id)).unwrap());
            all.extend_from_slice(&list);
            lists.push(list);
        }
        all.sort_by(|a, b| (a.distance, a.id).partial_cmp(&(b.distance, b.id)).unwrap());
        let merged = merge_top_k(lists, 30);
        assert_eq!(merged, all[..30].to_vec());
    }
}
