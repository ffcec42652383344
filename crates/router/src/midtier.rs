//! The Router mid-tier: SpookyHash routing with replica fan-out.
//!
//! Request path (paper §III-B): parse the client request, compute the
//! route with SpookyHash, and forward — `set`s to the whole replication
//! pool (the same data resides on several leaves), `get`s to one randomly
//! chosen replica (spreading read load). The response path merges acks:
//! a `set` succeeds when every reachable replica stored it; a `get`
//! returns the replica's value.

use crate::protocol::{KvRequest, KvResponse};
use crate::spooky::SpookyHasher;
use musuite_check::atomic::{AtomicU64, Ordering};
use musuite_codec::{Bytes, Text};
use musuite_core::error::ServiceError;
use musuite_core::midtier::{MidTierHandler, Plan};
use musuite_core::replication::ReplicaSet;
use musuite_rpc::RpcError;

/// The routing mid-tier microservice.
#[derive(Debug)]
pub struct RouterMidTier {
    hasher: SpookyHasher,
    replicas: usize,
    read_choice: AtomicU64,
}

impl RouterMidTier {
    /// Creates a router placing `replicas` copies of each key.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize) -> RouterMidTier {
        assert!(replicas > 0, "replica count must be positive");
        RouterMidTier { hasher: SpookyHasher::new(0, 0), replicas, read_choice: AtomicU64::new(0) }
    }

    /// Number of replicas per key.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    fn replica_set(&self, leaves: usize) -> ReplicaSet {
        ReplicaSet::new(leaves, self.replicas.min(leaves))
    }
}

/// A request as the mid-tier reads it: key and value are views of the
/// frame it arrived in.
type KvView = KvRequest<Text, Bytes>;

impl MidTierHandler for RouterMidTier {
    type Request = KvView;
    // A get's value passes through from the replica's reply, uncopied.
    type Response = KvResponse<Bytes>;
    // Every replica receives the identical request (key + value bytes), so
    // the whole request is shared state: the plan holds it by reference
    // count and encodes it into each replica's frame.
    type SharedRequest = KvView;
    type LeafRequest = ();
    type LeafResponse = KvResponse<Bytes>;

    fn plan(&self, request: &KvView, leaves: usize) -> Plan<KvView, ()> {
        let replica_set = self.replica_set(leaves);
        let hash = self.hasher.hash64(request.key().as_bytes());
        match request {
            KvRequest::Get { .. } => {
                let choice = self.read_choice.fetch_add(1, Ordering::Relaxed);
                let primary = replica_set.read_replica(hash, choice);
                // The same data lives on every member of the write set, so
                // retries and hedge probes for a read may fail over to the
                // other replicas instead of re-hitting a dead one.
                let alternates: Vec<usize> =
                    replica_set.write_set(hash).into_iter().filter(|&l| l != primary).collect();
                Plan::new(request.clone(), vec![(primary, ())]).with_alternates(vec![alternates])
            }
            KvRequest::Set { .. } | KvRequest::Delete { .. } | KvRequest::SetEx { .. } => {
                let targets =
                    replica_set.write_set(hash).into_iter().map(|leaf| (leaf, ())).collect();
                Plan::new(request.clone(), targets)
            }
        }
    }

    fn merge(
        &self,
        request: KvView,
        replies: Vec<Result<KvResponse<Bytes>, RpcError>>,
    ) -> Result<KvResponse<Bytes>, ServiceError> {
        match request {
            KvRequest::Get { key } => match replies.into_iter().next() {
                Some(Ok(response)) => Ok(response),
                Some(Err(e)) => {
                    Err(ServiceError::unavailable(format!("replica for '{key}' failed: {e}")))
                }
                None => Err(ServiceError::new("get produced no replica request")),
            },
            KvRequest::Set { key, .. } | KvRequest::SetEx { key, .. } => {
                let total = replies.len();
                let stored =
                    replies.iter().filter(|reply| matches!(reply, Ok(KvResponse::Stored))).count();
                // Majority write: tolerate a minority of dead replicas while
                // keeping reads (which hit a random replica) mostly coherent.
                if stored * 2 > total {
                    Ok(KvResponse::Stored)
                } else {
                    Err(ServiceError::unavailable(format!(
                        "set '{key}' stored on {stored}/{total} replicas"
                    )))
                }
            }
            KvRequest::Delete { key } => {
                let mut existed_any = false;
                let mut ok = 0usize;
                let total = replies.len();
                for reply in replies {
                    if let Ok(KvResponse::Deleted(existed)) = reply {
                        ok += 1;
                        existed_any |= existed;
                    }
                }
                if ok * 2 > total {
                    Ok(KvResponse::Deleted(existed_any))
                } else {
                    Err(ServiceError::unavailable(format!(
                        "delete '{key}' acknowledged by {ok}/{total} replicas"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(key: &'static str) -> KvView {
        KvRequest::Get { key: key.into() }
    }

    fn set(key: &'static str) -> KvView {
        KvRequest::Set { key: key.into(), value: Bytes::from_static(&[1]) }
    }

    #[test]
    fn gets_route_to_single_replica() {
        let router = RouterMidTier::new(3);
        let plan = router.plan(&get("k"), 16);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn sets_route_to_all_replicas() {
        let router = RouterMidTier::new(3);
        let plan = router.plan(&set("k"), 16);
        assert_eq!(plan.len(), 3);
        let mut leaves: Vec<usize> = plan.targets.iter().map(|(leaf, _)| *leaf).collect();
        leaves.sort_unstable();
        leaves.dedup();
        assert_eq!(leaves.len(), 3, "replicas must be distinct leaves");
    }

    #[test]
    fn reads_rotate_across_replicas_of_one_key() {
        let router = RouterMidTier::new(3);
        let set_plan: Vec<usize> =
            router.plan(&set("hot"), 16).targets.into_iter().map(|(l, _)| l).collect();
        let mut read_leaves: Vec<usize> =
            (0..30).map(|_| router.plan(&get("hot"), 16).targets[0].0).collect();
        read_leaves.sort_unstable();
        read_leaves.dedup();
        assert_eq!(read_leaves.len(), 3, "reads must balance across all replicas");
        for leaf in read_leaves {
            assert!(set_plan.contains(&leaf), "reads must hit leaves holding the key");
        }
    }

    #[test]
    fn replicas_clamped_to_leaf_count() {
        let router = RouterMidTier::new(3);
        let plan = router.plan(&set("k"), 2);
        assert_eq!(plan.len(), 2, "2 leaves can hold at most 2 replicas");
    }

    #[test]
    fn merge_set_requires_majority() {
        let router = RouterMidTier::new(3);
        let ok = || Ok(KvResponse::Stored);
        let err = || Err(RpcError::ConnectionClosed);
        assert!(router.merge(set("k"), vec![ok(), ok(), err()]).is_ok());
        assert!(router.merge(set("k"), vec![ok(), err(), err()]).is_err());
    }

    #[test]
    fn merge_get_passes_value_through() {
        let router = RouterMidTier::new(3);
        let value = || Some(Bytes::from_static(&[9]));
        let merged = router.merge(get("k"), vec![Ok(KvResponse::Value(value()))]).unwrap();
        assert_eq!(merged, KvResponse::Value(value()));
        assert!(router.merge(get("k"), vec![Err(RpcError::TimedOut)]).is_err());
    }

    #[test]
    fn merge_delete_ors_existence() {
        let router = RouterMidTier::new(3);
        let merged = router
            .merge(
                KvRequest::Delete { key: "k".into() },
                vec![
                    Ok(KvResponse::Deleted(false)),
                    Ok(KvResponse::Deleted(true)),
                    Ok(KvResponse::Deleted(false)),
                ],
            )
            .unwrap();
        assert_eq!(merged, KvResponse::Deleted(true));
    }

    #[test]
    fn same_key_same_replica_set() {
        let router = RouterMidTier::new(3);
        let a: Vec<usize> =
            router.plan(&set("stable"), 8).targets.into_iter().map(|(l, _)| l).collect();
        let b: Vec<usize> =
            router.plan(&set("stable"), 8).targets.into_iter().map(|(l, _)| l).collect();
        assert_eq!(a, b, "placement must be deterministic per key");
    }
}
