//! Replica-set placement for fault-tolerant key-value routing.
//!
//! `Router` "forwards sets to a fixed number of leaves (i.e., a replication
//! pool; three replicas in our experiments), allowing the same data to
//! reside on several leaves. The mid-tier randomly picks a leaf replica to
//! service get requests, balancing load across leaves" (paper §III-B).
//! [`ReplicaSet`] encodes that placement: writes go to `replicas`
//! consecutive leaves on a ring starting at the key's home shard; reads go
//! to one member chosen by the caller's random value.

use crate::shard::shard_for_hash;
use musuite_rpc::RingSpan;

/// Placement policy mapping key hashes to replica groups on a leaf ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSet {
    leaves: usize,
    replicas: usize,
}

impl ReplicaSet {
    /// Creates a policy over `leaves` nodes with `replicas` copies per key.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero, `replicas` is zero, or
    /// `replicas > leaves`.
    pub fn new(leaves: usize, replicas: usize) -> ReplicaSet {
        assert!(leaves > 0, "leaf count must be positive");
        assert!(replicas > 0, "replica count must be positive");
        assert!(replicas <= leaves, "cannot place {replicas} replicas on {leaves} leaves");
        ReplicaSet { leaves, replicas }
    }

    /// Number of leaves on the ring.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Copies stored per key.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The key's home shard (first replica).
    pub fn home(&self, key_hash: u64) -> usize {
        shard_for_hash(key_hash, self.leaves)
    }

    /// Leaves that must receive a `set` for this key: `replicas`
    /// consecutive ring positions starting at the home shard. A read may
    /// fail over to any of them.
    pub fn write_set(&self, key_hash: u64) -> RingSpan {
        RingSpan::new(self.home(key_hash), self.replicas, self.leaves)
    }

    /// The leaf chosen to serve a `get`, selected by `choice` (a random
    /// value from the caller — kept external so tests are deterministic).
    pub fn read_replica(&self, key_hash: u64, choice: u64) -> usize {
        let home = self.home(key_hash);
        let offset = (choice % self.replicas as u64) as usize;
        (home + offset) % self.leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_set_size_and_uniqueness() {
        let rs = ReplicaSet::new(16, 3);
        for key in 0..1000u64 {
            let hash = key.wrapping_mul(0x9E3779B97F4A7C15);
            let set: Vec<usize> = rs.write_set(hash).iter().collect();
            assert_eq!(set.len(), 3);
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "replicas must be distinct leaves");
            assert!(set.iter().all(|&leaf| leaf < 16));
        }
    }

    #[test]
    fn read_replica_is_always_a_write_replica() {
        let rs = ReplicaSet::new(8, 3);
        for key in 0..500u64 {
            let hash = key.wrapping_mul(0xD1B54A32D192ED03);
            let writes = rs.write_set(hash);
            for choice in 0..10u64 {
                let read = rs.read_replica(hash, choice);
                assert!(writes.contains(read), "get must be served by a leaf holding the key");
            }
        }
    }

    #[test]
    fn reads_spread_across_replicas() {
        let rs = ReplicaSet::new(8, 3);
        let hash = 0xABCDEF;
        let mut seen: Vec<usize> = (0..100u64).map(|c| rs.read_replica(hash, c)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3, "all three replicas must serve reads");
    }

    #[test]
    fn ring_wraps_at_the_end() {
        let rs = ReplicaSet::new(4, 3);
        // Find a hash homing to the last shard.
        let hash = (0..)
            .map(|k: u64| k.wrapping_mul(0x2545F4914F6CDD1D))
            .find(|&h| rs.home(h) == 3)
            .unwrap();
        assert_eq!(rs.write_set(hash).iter().collect::<Vec<_>>(), vec![3, 0, 1]);
    }

    #[test]
    fn single_replica_reads_home() {
        let rs = ReplicaSet::new(4, 1);
        for choice in 0..8 {
            assert_eq!(rs.read_replica(100, choice), rs.home(100));
        }
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_replicas_panics() {
        ReplicaSet::new(2, 3);
    }
}
