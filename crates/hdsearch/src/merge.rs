//! k-NN merge of distance-sorted leaf result lists.
//!
//! "Each leaf calculates distances and returns a distance-sorted list. The
//! mid-tier then merges these responses and returns the k-NN across all
//! shards" (paper §III-A). The merge is the k-way "merge" step of merge
//! sort with an early exit after `k` outputs.

use crate::protocol::Neighbor;

/// Merges distance-sorted neighbour lists into the global top-`k`.
///
/// Input lists must each be sorted by ascending distance (leaves guarantee
/// this), owned or read from the leaves' frames; the output is sorted by ascending distance with ties broken by
/// id for determinism.
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
pub fn merge_top_k<L>(lists: Vec<L>, k: usize) -> Vec<Neighbor>
where
    L: IntoIterator<Item = Neighbor>,
    L::IntoIter: ExactSizeIterator,
{
    // Cursor-based k-way merge; list counts are small (leaf fan-out), so a
    // linear scan over cursors beats a binary heap's constant factor.
    let mut heads: Vec<Option<Neighbor>> = Vec::with_capacity(lists.len());
    let mut iters: Vec<L::IntoIter> = lists.into_iter().map(IntoIterator::into_iter).collect();
    // `k` comes off the wire: reserve for what the lists can yield.
    let available: usize = iters.iter().map(ExactSizeIterator::len).sum();
    for iter in &mut iters {
        heads.push(iter.next());
    }
    let mut out = Vec::with_capacity(k.min(available));
    while out.len() < k {
        let mut best: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(candidate) = head {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let current = heads[b].expect("best cursor has a head");
                        (candidate.distance, candidate.id) < (current.distance, current.id)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        match best {
            Some(i) => {
                out.push(heads[i].take().expect("selected head present"));
                heads[i] = iters[i].next();
            }
            None => break, // all lists exhausted
        }
    }
    out
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
