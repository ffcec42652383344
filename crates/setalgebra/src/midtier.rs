//! The Set Algebra mid-tier: broadcast terms, union shard results.
//!
//! "The mid-tier forwards client queries of search terms to the leaves,
//! which return intersected posting lists … it then merges intersected
//! posting lists received from all leaves via set union operations" (paper
//! §III-C). The mid-tier's own compute is the k-way union — small, like
//! all μSuite mid-tier work, which is what makes OS overheads dominant.

use crate::protocol::{PostingList, TermQuery};
use crate::union_merge::union_sorted;
use musuite_codec::Seq;
use musuite_core::degrade::Degraded;
use musuite_core::error::ServiceError;
use musuite_core::midtier::{MidTierHandler, Plan, Replies};
use musuite_data::text::{DocId, TermId};

/// The broadcast-and-union mid-tier microservice.
#[derive(Debug, Default)]
pub struct SetAlgebraMidTier;

impl SetAlgebraMidTier {
    /// Creates the mid-tier handler.
    pub fn new() -> SetAlgebraMidTier {
        SetAlgebraMidTier
    }
}

/// A query as the mid-tier reads it: the terms are a view of the frame.
type QueryView = TermQuery<Seq<TermId>>;

impl MidTierHandler for SetAlgebraMidTier {
    type Request = QueryView;
    type Response = Degraded<PostingList>;
    // Every shard receives the identical term list, so the query is shared
    // state: the plan holds the frame's view of it by reference count.
    type SharedRequest = QueryView;
    type LeafRequest = ();
    // Shard results are unioned from views of their frames.
    type LeafResponse = PostingList<Seq<DocId>>;

    fn plan(&self, request: &QueryView, leaves: usize) -> Plan<QueryView, ()> {
        Plan::broadcast(request.clone(), (), leaves)
    }

    fn merge(
        &self,
        _request: QueryView,
        replies: impl Replies<PostingList<Seq<DocId>>>,
    ) -> Result<Degraded<PostingList>, ServiceError> {
        // Document retrieval must not *silently* drop a shard: a missing
        // shard means missing documents. A quorum of surviving shards may
        // still answer, but only inside an explicitly degraded envelope;
        // below a majority the result is too incomplete to be useful.
        let total = replies.len();
        let ok = replies.iter().filter(|reply| reply.is_ok()).count();
        if ok * 2 <= total {
            return Err(ServiceError::unavailable(format!(
                "only {ok}/{total} shards answered: no quorum"
            )));
        }
        let docs = union_sorted(replies.into_iter().flatten().map(|reply| reply.docs));
        Ok(Degraded::partial(PostingList { docs }, ok as u32, total as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musuite_codec::{from_bytes, to_bytes, Decode, Encode};
    use musuite_rpc::RpcError;

    /// `owned` as the mid-tier reads it off the wire.
    fn view<T: Decode>(owned: &impl Encode) -> T {
        from_bytes(&to_bytes(owned)).unwrap()
    }

    #[test]
    fn plan_broadcasts_to_all_leaves() {
        let mid = SetAlgebraMidTier::new();
        let plan = mid.plan(&view(&TermQuery { terms: vec![1u32, 2] }), 4);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.shared.terms.to_vec(), [1, 2], "term list is the shared state");
        let leaves: Vec<usize> = plan.targets.iter().map(|(leaf, ())| *leaf).collect();
        assert_eq!(leaves, vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_unions_shard_results() {
        let mid = SetAlgebraMidTier::new();
        let merged = mid
            .merge(
                TermQuery::default(),
                vec![
                    Ok(view(&PostingList { docs: vec![0u32, 4] })),
                    Ok(view(&PostingList { docs: vec![1u32, 5] })),
                    Ok(view(&PostingList { docs: vec![2u32] })),
                ],
            )
            .unwrap();
        assert!(!merged.degraded);
        assert_eq!(merged.value.docs, vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn merge_with_quorum_degrades_explicitly() {
        let mid = SetAlgebraMidTier::new();
        let merged = mid
            .merge(
                TermQuery::default(),
                vec![
                    Ok(view(&PostingList { docs: vec![1u32] })),
                    Ok(view(&PostingList { docs: vec![2u32] })),
                    Err(RpcError::TimedOut),
                ],
            )
            .unwrap();
        assert!(merged.degraded, "a lost shard must be reported");
        assert_eq!((merged.shards_ok, merged.shards_total), (2, 3));
        assert_eq!(merged.value.docs, vec![1, 2]);
    }

    #[test]
    fn merge_fails_below_quorum() {
        let mid = SetAlgebraMidTier::new();
        let result = mid.merge(
            TermQuery::default(),
            vec![Ok(view(&PostingList { docs: vec![1u32] })), Err(RpcError::TimedOut)],
        );
        assert!(result.is_err(), "half the shards is not a quorum");
    }
}
