//! The Router leaf: an RPC wrapper around a [`MemKv`] store.
//!
//! "The leaf microserver uses gRPC to build a communication wrapper around
//! a memcached server process … it rewrites received queries to suitably
//! query its local memcached server" (paper §III-B). Here the wrapper and
//! the store live in one process; the request rewrite is the typed
//! decode → store-call → typed encode path.

use crate::memkv::{MemKv, MemKvConfig};
use crate::protocol::{KvRequest, KvResponse};
use musuite_codec::{Bytes, Text};
use musuite_core::error::ServiceError;
use musuite_core::leaf::{decode_payload, LeafHandler};
use std::sync::Arc;

/// A key-value leaf microservice.
#[derive(Debug, Clone)]
pub struct RouterLeaf {
    store: Arc<MemKv>,
}

impl Default for RouterLeaf {
    fn default() -> Self {
        Self::new(MemKvConfig::default())
    }
}

impl RouterLeaf {
    /// Creates a leaf with a fresh store.
    pub fn new(config: MemKvConfig) -> RouterLeaf {
        RouterLeaf { store: Arc::new(MemKv::new(config)) }
    }

    /// The underlying store (shared with clones of this leaf).
    pub fn store(&self) -> &Arc<MemKv> {
        &self.store
    }

    /// Runs one request against the store, in whichever form it came: key
    /// and value are read as bytes, and the store copies what it keeps (a
    /// stored key's value is written over its old one, so a set of a view
    /// copies out of the frame once, into the entry).
    fn apply<K: AsRef<[u8]>, V: AsRef<[u8]>>(&self, request: KvRequest<K, V>) -> KvResponse {
        match request {
            KvRequest::Get { key } => KvResponse::Value(self.store.get(&key)),
            KvRequest::Set { key, value } => {
                self.store.set(&key, value);
                KvResponse::Stored
            }
            KvRequest::Delete { key } => KvResponse::Deleted(self.store.delete(&key)),
            KvRequest::SetEx { key, value, ttl_ms } => {
                let ttl = std::time::Duration::from_millis(ttl_ms);
                self.store.set_with_ttl(&key, value, Some(ttl));
                KvResponse::Stored
            }
        }
    }
}

impl LeafHandler for RouterLeaf {
    type Request = KvRequest;
    type Response = KvResponse;

    fn handle(&self, request: KvRequest) -> Result<KvResponse, ServiceError> {
        Ok(self.apply(request))
    }

    /// Reads the key and value as views of the frame.
    fn handle_payload(&self, payload: Bytes) -> Result<KvResponse, ServiceError> {
        Ok(self.apply(decode_payload::<KvRequest<Text, Bytes>>(payload)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_delete_through_handler() {
        let leaf = RouterLeaf::default();
        assert_eq!(
            leaf.handle(KvRequest::Set { key: "k".into(), value: vec![7] }).unwrap(),
            KvResponse::Stored
        );
        assert_eq!(
            leaf.handle(KvRequest::Get { key: "k".into() }).unwrap(),
            KvResponse::Value(Some(vec![7]))
        );
        assert_eq!(
            leaf.handle(KvRequest::Delete { key: "k".into() }).unwrap(),
            KvResponse::Deleted(true)
        );
        assert_eq!(
            leaf.handle(KvRequest::Get { key: "k".into() }).unwrap(),
            KvResponse::Value(None)
        );
    }

    #[test]
    fn batched_requests_match_sequential() {
        let batched_leaf = RouterLeaf::default();
        let sequential_leaf = RouterLeaf::default();
        let requests = vec![
            KvRequest::Set { key: "a".into(), value: vec![1] },
            KvRequest::Get { key: "a".into() },
            KvRequest::Get { key: "missing".into() },
            KvRequest::Set { key: "a".into(), value: vec![2] }, // overwrite mid-batch
            KvRequest::Get { key: "a".into() },                 // must see the overwrite
            KvRequest::Get { key: "b".into() },
            KvRequest::Delete { key: "a".into() },
            KvRequest::Get { key: "a".into() }, // must see the delete
        ];
        let batch = LeafHandler::handle_batch(&batched_leaf, requests.clone());
        assert_eq!(batch.len(), requests.len());
        for (request, result) in requests.into_iter().zip(batch) {
            assert_eq!(result.unwrap(), sequential_leaf.handle(request).unwrap());
        }
    }

    #[test]
    fn get_run_is_served_by_one_grouped_lookup() {
        let leaf = RouterLeaf::new(MemKvConfig { shards: 1, ..MemKvConfig::default() });
        leaf.store().set("x", vec![9]);
        let results = LeafHandler::handle_batch(
            &leaf,
            vec![
                KvRequest::Get { key: "x".into() },
                KvRequest::Get { key: "y".into() },
                KvRequest::Get { key: "x".into() },
            ],
        );
        assert_eq!(results[0].as_ref().unwrap(), &KvResponse::Value(Some(vec![9])));
        assert_eq!(results[1].as_ref().unwrap(), &KvResponse::Value(None));
        assert_eq!(results[2].as_ref().unwrap(), &KvResponse::Value(Some(vec![9])));
        assert_eq!(leaf.store().hits(), 2);
        assert_eq!(leaf.store().misses(), 1);
    }

    /// A set then a get, both as the wire brings them: the get reads the
    /// value the set wrote, a first time and over an older value.
    #[test]
    fn a_set_read_from_the_frame_is_what_a_get_returns() {
        let leaf = RouterLeaf::default();
        let payload = |request: &KvRequest| Bytes::from(musuite_codec::to_bytes(request));
        let get = payload(&KvRequest::Get { key: "k".into() });
        for value in [vec![1u8; 128], vec![2u8; 128], vec![3u8; 16], vec![4u8; 256]] {
            let set = payload(&KvRequest::Set { key: "k".into(), value: value.clone() });
            assert_eq!(leaf.handle_payload(set).unwrap(), KvResponse::Stored);
            assert_eq!(leaf.handle_payload(get.clone()).unwrap(), KvResponse::Value(Some(value)));
        }
        assert_eq!(leaf.store().len(), 1);
    }

    #[test]
    fn clones_share_one_store() {
        let leaf = RouterLeaf::default();
        let clone = leaf.clone();
        leaf.handle(KvRequest::Set { key: "shared".into(), value: vec![1] }).unwrap();
        assert_eq!(
            clone.handle(KvRequest::Get { key: "shared".into() }).unwrap(),
            KvResponse::Value(Some(vec![1]))
        );
    }
}
