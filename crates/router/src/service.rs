//! One-call Router cluster launcher and typed front-end client.

use crate::leaf::RouterLeaf;
use crate::memkv::MemKvConfig;
use crate::midtier::RouterMidTier;
use crate::protocol::{KvRequest, KvResponse};
use musuite_core::cluster::{Cluster, ClusterConfig, TypedClient};
use musuite_rpc::{CallOptions, RpcError};
use std::net::SocketAddr;

/// A running Router deployment: replicated KV leaves behind a routing
/// mid-tier.
///
/// # Examples
///
/// ```
/// use musuite_router::service::RouterService;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = RouterService::launch(4, 3)?;
/// let client = service.client()?;
/// client.set("k", b"v".to_vec())?;
/// assert_eq!(client.get("k")?, Some(b"v".to_vec()));
/// # Ok(())
/// # }
/// ```
pub struct RouterService {
    cluster: Cluster,
}

impl RouterService {
    /// Launches `leaves` KV leaves with `replicas` copies per key (the
    /// paper evaluates 16 leaves with three replicas).
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to start.
    pub fn launch(leaves: usize, replicas: usize) -> Result<RouterService, RpcError> {
        Self::launch_with(ClusterConfig::new().leaves(leaves), replicas, MemKvConfig::default())
    }

    /// Launches with full control over cluster and store configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if any server fails to start.
    pub fn launch_with(
        config: ClusterConfig,
        replicas: usize,
        store_config: MemKvConfig,
    ) -> Result<RouterService, RpcError> {
        let cluster = Cluster::launch(config, RouterMidTier::new(replicas), |_leaf| {
            RouterLeaf::new(store_config.clone())
        })?;
        Ok(RouterService { cluster })
    }

    /// The mid-tier address front-ends connect to.
    pub fn addr(&self) -> SocketAddr {
        self.cluster.midtier_addr()
    }

    /// The underlying cluster (stats, shutdown).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Connects a typed client.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection fails.
    pub fn client(&self) -> Result<RouterClient, RpcError> {
        Ok(RouterClient { inner: self.cluster.client()? })
    }

    /// Shuts the deployment down. Idempotent.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

impl std::fmt::Debug for RouterService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterService").field("addr", &self.addr()).finish()
    }
}

/// A typed memcached-protocol client speaking through the router.
pub struct RouterClient {
    inner: TypedClient<KvRequest, KvResponse>,
}

impl RouterClient {
    fn call(&self, request: &KvRequest) -> Result<KvResponse, RpcError> {
        self.inner.call_typed(request, CallOptions::default())
    }

    /// Reads a key.
    ///
    /// # Errors
    ///
    /// Returns transport or replica-failure errors.
    pub fn get(&self, key: &str) -> Result<Option<Vec<u8>>, RpcError> {
        match self.call(&KvRequest::Get { key: key.to_string() })? {
            KvResponse::Value(value) => Ok(value),
            other => Err(unexpected(other)),
        }
    }

    /// Writes a key-value pair to the replication pool.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a replica-majority failure.
    pub fn set(&self, key: &str, value: Vec<u8>) -> Result<(), RpcError> {
        match self.call(&KvRequest::Set { key: key.to_string(), value })? {
            KvResponse::Stored => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Writes a key-value pair that expires after `ttl`.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a replica-majority failure.
    pub fn set_ex(
        &self,
        key: &str,
        value: Vec<u8>,
        ttl: std::time::Duration,
    ) -> Result<(), RpcError> {
        let request =
            KvRequest::SetEx { key: key.to_string(), value, ttl_ms: ttl.as_millis() as u64 };
        match self.call(&request)? {
            KvResponse::Stored => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Deletes a key from all replicas; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a replica-majority failure.
    pub fn delete(&self, key: &str) -> Result<bool, RpcError> {
        match self.call(&KvRequest::Delete { key: key.to_string() })? {
            KvResponse::Deleted(existed) => Ok(existed),
            other => Err(unexpected(other)),
        }
    }

    /// The underlying typed client (for async use in load generators).
    pub fn typed(&self) -> &TypedClient<KvRequest, KvResponse> {
        &self.inner
    }
}

impl std::fmt::Debug for RouterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterClient").finish()
    }
}

fn unexpected(response: KvResponse) -> RpcError {
    RpcError::Remote {
        status: musuite_rpc::Status::AppError,
        detail: format!("unexpected response variant: {response:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_get_set_delete() {
        let service = RouterService::launch(4, 3).unwrap();
        let client = service.client().unwrap();
        assert_eq!(client.get("absent").unwrap(), None);
        client.set("k1", b"v1".to_vec()).unwrap();
        assert_eq!(client.get("k1").unwrap(), Some(b"v1".to_vec()));
        assert!(client.delete("k1").unwrap());
        assert_eq!(client.get("k1").unwrap(), None);
        assert!(!client.delete("k1").unwrap());
    }

    #[test]
    fn replication_makes_reads_survive_reading_any_replica() {
        let service = RouterService::launch(4, 3).unwrap();
        let client = service.client().unwrap();
        client.set("replicated", b"data".to_vec()).unwrap();
        // Reads rotate across replicas; with 3 copies all 30 must hit.
        for _ in 0..30 {
            assert_eq!(client.get("replicated").unwrap(), Some(b"data".to_vec()));
        }
    }

    #[test]
    fn data_lands_on_exactly_replica_count_leaves() {
        let service = RouterService::launch(8, 3).unwrap();
        let client = service.client().unwrap();
        for i in 0..50 {
            client.set(&format!("key{i}"), vec![0u8; 8]).unwrap();
        }
        let total_entries: u64 =
            service.cluster().leaf_servers().iter().map(|leaf| leaf.stats().requests()).sum();
        assert_eq!(total_entries, 150, "50 sets x 3 replicas = 150 leaf requests");
    }

    #[test]
    fn survives_minority_replica_failure() {
        let service = RouterService::launch(4, 3).unwrap();
        let client = service.client().unwrap();
        client.set("durable", b"x".to_vec()).unwrap();
        // Kill one leaf: majority writes and rotating reads keep working —
        // some gets may hit the dead replica and error, but ≥ 2/3 succeed.
        service.cluster().leaf_servers()[0].shutdown();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut set_ok = 0;
        for i in 0..30 {
            if client.set(&format!("after-failure-{i}"), vec![1]).is_ok() {
                set_ok += 1;
            }
        }
        assert!(set_ok >= 20, "majority writes must survive one dead replica: {set_ok}/30");
    }

    #[test]
    fn ttl_sets_expire_on_every_replica() {
        let service = RouterService::launch(4, 3).unwrap();
        let client = service.client().unwrap();
        client
            .set_ex("ephemeral", b"soon gone".to_vec(), std::time::Duration::from_millis(40))
            .unwrap();
        assert_eq!(client.get("ephemeral").unwrap(), Some(b"soon gone".to_vec()));
        std::thread::sleep(std::time::Duration::from_millis(80));
        // Reads rotate replicas; all must agree the key expired.
        for _ in 0..9 {
            assert_eq!(client.get("ephemeral").unwrap(), None);
        }
    }

    #[test]
    fn many_keys_roundtrip_through_hashing() {
        let service = RouterService::launch(8, 2).unwrap();
        let client = service.client().unwrap();
        for i in 0..200u32 {
            client.set(&format!("bulk{i}"), i.to_le_bytes().to_vec()).unwrap();
        }
        for i in 0..200u32 {
            assert_eq!(
                client.get(&format!("bulk{i}")).unwrap(),
                Some(i.to_le_bytes().to_vec()),
                "key bulk{i} lost in routing"
            );
        }
    }
}
