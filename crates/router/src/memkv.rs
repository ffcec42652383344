//! The memcached substitute: a sharded in-memory key-value store with LRU
//! eviction and optional TTL expiry.
//!
//! Each leaf microserver wraps one [`MemKv`] instance the way the paper's
//! leaf wraps "a memcached server process". The store is sharded
//! internally so concurrent worker threads do not serialize on one lock,
//! tracks approximate memory use, and evicts least-recently-used entries
//! when a configured byte budget is exceeded — the semantics that matter
//! for a cache-backed OLDI service.

use musuite_check::atomic::{AtomicU64, Ordering};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Configuration for [`MemKv::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemKvConfig {
    /// Approximate byte budget across all shards.
    pub capacity_bytes: usize,
    /// Number of internal lock shards.
    pub shards: usize,
    /// Default entry time-to-live (`None` = no expiry).
    pub default_ttl: Option<Duration>,
}

impl Default for MemKvConfig {
    fn default() -> Self {
        MemKvConfig { capacity_bytes: 256 << 20, shards: 16, default_ttl: None }
    }
}

struct Entry {
    value: Vec<u8>,
    last_used: u64,
    expires_at: Option<Instant>,
}

impl Entry {
    fn is_live(&self) -> bool {
        self.expires_at.is_none_or(|at| Instant::now() < at)
    }
}

struct Shard {
    map: HashMap<Box<[u8]>, Entry>,
    bytes: usize,
}

impl Shard {
    /// What an entry holds: its key, its value's whole buffer (an
    /// overwrite with a shorter value keeps the longer one's), and a fixed
    /// per-entry overhead estimate.
    fn entry_cost(key: &[u8], value: &Vec<u8>) -> usize {
        key.len() + value.capacity() + 64
    }

    /// Evicts least-recently-used entries until the shard fits its budget.
    fn evict_to(&mut self, budget: usize, evictions: &AtomicU64) {
        while self.bytes > budget && !self.map.is_empty() {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("non-empty map has a minimum");
            if let Some(entry) = self.map.remove(&victim) {
                self.bytes -= Self::entry_cost(&victim, &entry.value);
                evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A sharded, LRU-evicting, TTL-aware in-memory key-value store. Keys
/// and values are byte strings (a `&str`, a `Vec<u8>` or a decoded
/// [`Text`](musuite_codec::Text) or [`Bytes`](musuite_codec::Bytes) view
/// reads as its bytes); the store copies what it keeps. A set of a stored
/// key overwrites the entry in place: the key is stored once, and a value
/// that fits the entry's buffer is written into it.
///
/// # Examples
///
/// ```
/// use musuite_router::memkv::{MemKv, MemKvConfig};
///
/// let store = MemKv::new(MemKvConfig::default());
/// assert!(!store.set("k", b"v"), "a new key replaces nothing");
/// assert!(store.set("k", b"w".to_vec()), "the second set overwrites the first");
/// assert_eq!(store.get("k"), Some(b"w".to_vec()));
/// assert!(store.delete("k"));
/// assert_eq!(store.get("k"), None);
/// ```
pub struct MemKv {
    shards: Vec<Mutex<Shard>>,
    per_shard_budget: usize,
    default_ttl: Option<Duration>,
    clock_ticks: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl MemKv {
    /// Creates a store per `config`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity_bytes` is zero.
    pub fn new(config: MemKvConfig) -> MemKv {
        assert!(config.shards > 0, "shard count must be positive");
        assert!(config.capacity_bytes > 0, "capacity must be positive");
        MemKv {
            shards: (0..config.shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), bytes: 0 }))
                .collect(),
            per_shard_budget: (config.capacity_bytes / config.shards).max(1),
            default_ttl: config.default_ttl,
            clock_ticks: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &[u8]) -> &Mutex<Shard> {
        // FNV-1a over the key selects the lock shard.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1_0000_0000_01b3);
        }
        &self.shards[((u128::from(hash) * self.shards.len() as u128) >> 64) as usize]
    }

    fn tick(&self) -> u64 {
        self.clock_ticks.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a copy of `value` under `key` with the default TTL; returns
    /// whether it replaced a live (unexpired) entry.
    pub fn set(&self, key: &(impl AsRef<[u8]> + ?Sized), value: impl AsRef<[u8]>) -> bool {
        self.set_with_ttl(key, value, self.default_ttl)
    }

    /// [`MemKv::set`] with an explicit TTL. A stored key's entry is
    /// overwritten in place: its key is not stored again, and the value is
    /// written into the entry's buffer when it fits there.
    pub fn set_with_ttl(
        &self,
        key: &(impl AsRef<[u8]> + ?Sized),
        value: impl AsRef<[u8]>,
        ttl: Option<Duration>,
    ) -> bool {
        let (key, value) = (key.as_ref(), value.as_ref());
        let tick = self.tick();
        let expires_at = ttl.map(|t| Instant::now() + t);
        let mut guard = self.shard_of(key).lock();
        let shard = &mut *guard;
        let replaced = match shard.map.get_mut(key) {
            Some(entry) => {
                let live = entry.is_live();
                shard.bytes -= Shard::entry_cost(key, &entry.value);
                entry.value.clear();
                entry.value.reserve_exact(value.len());
                entry.value.extend_from_slice(value);
                (entry.last_used, entry.expires_at) = (tick, expires_at);
                shard.bytes += Shard::entry_cost(key, &entry.value);
                live
            }
            None => {
                let entry = Entry { value: value.to_vec(), last_used: tick, expires_at };
                shard.bytes += Shard::entry_cost(key, &entry.value);
                shard.map.insert(key.into(), entry);
                false
            }
        };
        shard.evict_to(self.per_shard_budget, &self.evictions);
        replaced
    }

    /// Reads the value for `key`, refreshing its LRU position. Expired
    /// entries read as misses and are removed.
    pub fn get(&self, key: &(impl AsRef<[u8]> + ?Sized)) -> Option<Vec<u8>> {
        let key = key.as_ref();
        let tick = self.tick();
        let mut shard = self.shard_of(key).lock();
        match shard.map.get_mut(key) {
            Some(entry) if entry.is_live() => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry.value.clone());
            }
            Some(_) => {
                if let Some(entry) = shard.map.remove(key) {
                    shard.bytes -= Shard::entry_cost(key, &entry.value);
                }
            }
            None => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Removes `key`, returning whether it was present (and unexpired).
    pub fn delete(&self, key: &(impl AsRef<[u8]> + ?Sized)) -> bool {
        let key = key.as_ref();
        let mut shard = self.shard_of(key).lock();
        match shard.map.remove(key) {
            Some(entry) => {
                shard.bytes -= Shard::entry_cost(key, &entry.value);
                entry.is_live()
            }
            None => false,
        }
    }

    /// Number of stored entries (including not-yet-collected expired ones).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Returns `true` if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes in use: each entry's key and value buffer, plus a fixed
    /// per-entry overhead estimate.
    pub fn bytes_used(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses served.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU policy.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for MemKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemKv")
            .field("len", &self.len())
            .field("bytes_used", &self.bytes_used())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(capacity: usize) -> MemKv {
        MemKv::new(MemKvConfig { capacity_bytes: capacity, shards: 1, default_ttl: None })
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let store = small(1 << 20);
        assert!(!store.set("a", vec![1]));
        assert!(store.set("a", vec![2]));
        assert_eq!(store.get("a"), Some(vec![2]));
        assert!(store.delete("a"));
        assert!(!store.delete("a"));
        assert_eq!(store.get("a"), None);
    }

    #[test]
    fn hit_miss_accounting() {
        let store = small(1 << 20);
        store.set("k", vec![0]);
        store.get("k");
        store.get("k");
        store.get("absent");
        assert_eq!(store.hits(), 2);
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn lru_evicts_coldest_first() {
        // Budget fits ~3 entries of cost (1 + 8 + 64) = 73 bytes.
        let store = small(73 * 3);
        store.set("a", vec![0u8; 8]);
        store.set("b", vec![0u8; 8]);
        store.set("c", vec![0u8; 8]);
        store.get("a"); // warm "a"
        store.set("d", vec![0u8; 8]); // must evict "b" (coldest)
        assert!(store.get("b").is_none(), "cold entry must be evicted");
        assert!(store.get("a").is_some(), "warm entry must survive");
        assert!(store.get("d").is_some());
        assert!(store.evictions() >= 1);
    }

    #[test]
    fn capacity_is_respected() {
        let store = small(2_000);
        for i in 0..200 {
            store.set(&format!("key{i}"), vec![0u8; 32]);
        }
        assert!(store.bytes_used() <= 2_000);
        assert!(store.len() < 200);
        assert!(store.evictions() > 0);
    }

    #[test]
    fn ttl_expiry() {
        let store = MemKv::new(MemKvConfig {
            capacity_bytes: 1 << 20,
            shards: 1,
            default_ttl: Some(Duration::from_millis(20)),
        });
        store.set("k", vec![1]);
        assert_eq!(store.get("k"), Some(vec![1]));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(store.get("k"), None, "expired entry must read as miss");
        assert!(store.is_empty(), "the read that found it expired removed it");
        assert!(!store.delete("k"), "expired entry deletes as absent");
    }

    #[test]
    fn explicit_ttl_overrides_default() {
        let store = small(1 << 20);
        store.set_with_ttl("k", vec![1], Some(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(store.get("k"), None);
    }

    /// An overwrite charges the buffer the entry keeps: a longer value's
    /// own, and after a shorter one, the longer buffer it was written into.
    #[test]
    fn overwrites_charge_what_the_entry_holds() {
        let store = small(1 << 20);
        store.set("k", [1u8; 8]);
        assert_eq!(store.bytes_used(), 1 + 8 + 64);
        assert!(store.set("k", [2u8; 32]), "a longer value replaces the entry");
        assert_eq!(store.bytes_used(), 1 + 32 + 64);
        assert!(store.set("k", [3u8; 4]), "a shorter value replaces the entry");
        assert_eq!(store.bytes_used(), 1 + 32 + 64, "the 32-byte buffer is still held");
        assert_eq!(store.get("k"), Some(vec![3u8; 4]));
        assert!(store.set("k", [4u8; 16]), "a value that fits is written in place");
        assert_eq!(store.bytes_used(), 1 + 32 + 64);
        assert_eq!(store.get("k"), Some(vec![4u8; 16]));
        assert!(store.delete("k"));
        assert_eq!(store.bytes_used(), 0);
    }

    /// A set of an expired key replaces no live entry, and the entry it
    /// rewrites lives again.
    #[test]
    fn an_expired_entry_is_not_replaced_live() {
        let store = small(1 << 20);
        store.set_with_ttl("k", [1u8], Some(Duration::from_millis(10)));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!store.set("k", [2u8]));
        assert_eq!(store.get("k"), Some(vec![2u8]), "the rewritten entry has no TTL");
    }

    #[test]
    fn overwrite_does_not_leak_bytes() {
        let store = small(1 << 20);
        for _ in 0..100 {
            store.set("same", vec![0u8; 100]);
        }
        assert_eq!(store.len(), 1);
        assert!(store.bytes_used() < 400);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let store = std::sync::Arc::new(MemKv::new(MemKvConfig {
            capacity_bytes: 64 << 20,
            shards: 8,
            default_ttl: None,
        }));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let key = format!("t{t}-k{i}");
                    store.set(&key, i.to_le_bytes());
                    assert_eq!(store.get(&key), Some(i.to_le_bytes().to_vec()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 4000);
    }
}
