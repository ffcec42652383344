//! Three-tier microservice framework for μSuite-rs.
//!
//! Every μSuite benchmark shares one structure (paper Fig. 1): a front-end
//! issues queries to a **mid-tier** microserver, which fans each query out
//! to N **leaf** microservers, merges their intermediate responses, and
//! returns a final response. This crate captures that structure once so
//! the four services implement only their domain logic:
//!
//! * [`leaf::LeafHandler`] — typed request→response compute at a leaf,
//! * [`midtier::MidTierHandler`] — typed fan-out planning and merge logic,
//! * [`cluster::Cluster`] — launches leaves and a mid-tier wired together
//!   over real TCP on ephemeral ports,
//! * [`shard`] / [`replication`] — data-placement policies shared by the
//!   services (uniform sharding; replica sets for `Router`),
//! * [`topk`] — the bounded top-`k` selector the k-NN leaves rank with.
//!
//! # Examples
//!
//! A complete counting service in a few lines:
//!
//! ```
//! use musuite_core::cluster::{Cluster, ClusterConfig};
//! use musuite_core::leaf::LeafHandler;
//! use musuite_core::midtier::{MidTierHandler, Plan, Replies};
//! use musuite_core::error::ServiceError;
//!
//! /// Each leaf returns the number of bytes it was sent.
//! struct CountLeaf;
//! impl LeafHandler for CountLeaf {
//!     type Request = Vec<u8>;
//!     type Response = u64;
//!     fn handle(&self, request: Vec<u8>) -> Result<u64, ServiceError> {
//!         Ok(request.len() as u64)
//!     }
//! }
//!
//! /// The mid-tier broadcasts the query and sums leaf counts. The query
//! /// bytes are the *shared* request state: held once per fan-out, and
//! /// encoded into every leaf's frame as it is written. The merge takes
//! /// the replies where the scatter gathered them.
//! struct SumMidTier;
//! impl MidTierHandler for SumMidTier {
//!     type Request = Vec<u8>;
//!     type Response = u64;
//!     type SharedRequest = Vec<u8>;
//!     type LeafRequest = ();
//!     type LeafResponse = u64;
//!     fn plan(&self, request: &Vec<u8>, leaves: usize) -> Plan<Vec<u8>, ()> {
//!         Plan::broadcast(request.clone(), (), leaves)
//!     }
//!     fn merge(
//!         &self,
//!         _request: Vec<u8>,
//!         replies: impl Replies<u64>,
//!     ) -> Result<u64, ServiceError> {
//!         Ok(replies.into_iter().filter_map(Result::ok).sum())
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = Cluster::launch(
//!     ClusterConfig::default().leaves(3),
//!     SumMidTier,
//!     |_leaf_index| CountLeaf,
//! )?;
//! let client = cluster.client()?;
//! let total: u64 = client.call_typed(&vec![1u8, 2, 3], Default::default())?;
//! assert_eq!(total, 9); // 3 leaves x 3 bytes
//! # Ok(())
//! # }
//! ```

pub mod cluster;
pub mod degrade;
pub mod error;
pub mod leaf;
pub mod midtier;
pub mod replication;
pub mod shard;
pub mod topk;

pub use cluster::{Cluster, ClusterConfig, TypedClient};
pub use degrade::Degraded;
pub use error::ServiceError;
pub use leaf::LeafHandler;
pub use midtier::{MidTierHandler, Plan, Replies};
