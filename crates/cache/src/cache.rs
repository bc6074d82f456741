//! Sharded LRU plan cache.
//!
//! The serving-path store that lets the cold combinatorial search run
//! once per query equivalence class instead of once per request. Entries
//! are keyed by [`QueryFingerprint`] and hold the
//! winning plan's join trees in canonical coordinates plus its total cost
//! and the producing method — everything a driver needs to rehydrate, re-validate,
//! and serve a plan without searching.
//!
//! # Concurrency
//!
//! The key space is split across `shards` independent LRU maps, each
//! behind its own `Mutex` — concurrent lookups with different fingerprint
//! digests almost never contend. Hit/miss/insert/eviction counters are
//! process-wide atomics, maintained outside the shard locks.
//!
//! # Capacity
//!
//! Both an entry count and an approximate byte budget are enforced,
//! per-shard (total capacity divided evenly). Inserting past either limit
//! evicts least-recently-used entries; an entry larger than a whole
//! shard's byte budget is refused outright (counted as an eviction).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::fingerprint::QueryFingerprint;

/// One segment of a cached plan: a join tree as its leaf order in
/// canonical coordinates and its shape. It carries no cost: a hit
/// re-prices the trees under the live catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSegment {
    /// The component tree's leaves from left to right (for an outer
    /// linear tree, its join order), as canonical relation indices.
    pub canon_order: Vec<u32>,
    /// The tree's post-order join list over leaf positions (see
    /// `ljqo_plan::BushyTree::shape`). It names no relation, so it needs
    /// no canonicalisation.
    pub shape: Vec<(u32, u32)>,
}

/// A cached optimization result, in canonical coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// Plan segments (one per join-graph component), in the assembly
    /// order the cold path chose.
    pub segments: Vec<CachedSegment>,
    /// Total plan cost at solve time (cross products included).
    pub total_cost: f64,
    /// Short name of the method that produced the plan (e.g. `"IAI"`).
    pub producer: &'static str,
}

impl CachedPlan {
    /// Approximate heap + inline footprint in bytes, for the byte budget.
    fn approx_bytes(&self, key: &QueryFingerprint) -> usize {
        let segs: usize = self
            .segments
            .iter()
            .map(|s| {
                std::mem::size_of::<CachedSegment>() + s.canon_order.len() * 4 + s.shape.len() * 8
            })
            .sum();
        std::mem::size_of::<Node>() + segs + key.encoding_words() * 8
    }
}

/// Configuration for [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheConfig {
    /// Maximum resident entries across all shards (at least 1).
    pub max_entries: usize,
    /// Approximate maximum resident bytes across all shards.
    pub max_bytes: usize,
    /// Number of independent LRU shards (at least 1).
    pub shards: usize,
}

impl Default for PlanCacheConfig {
    /// 1024 entries, 8 MiB, 8 shards.
    fn default() -> Self {
        PlanCacheConfig {
            max_entries: 1024,
            max_bytes: 8 << 20,
            shards: 8,
        }
    }
}

impl PlanCacheConfig {
    /// A config with the given entry capacity and defaults otherwise.
    pub fn with_entries(max_entries: usize) -> Self {
        PlanCacheConfig {
            max_entries,
            ..Self::default()
        }
    }
}

/// Point-in-time counter snapshot, for stats endpoints and JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (including replacements).
    pub inserts: u64,
    /// Entries evicted by capacity pressure (including refused inserts).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently resident.
    pub bytes: usize,
}

/// Index of the null slot (empty list / no link).
const NIL: usize = usize::MAX;

/// Slab node of one shard's intrusive LRU list.
struct Node {
    key: QueryFingerprint,
    plan: CachedPlan,
    bytes: usize,
    /// Toward most-recently-used.
    prev: usize,
    /// Toward least-recently-used.
    next: usize,
}

/// One shard: hash map + slab-backed LRU list.
struct Shard {
    map: HashMap<QueryFingerprint, usize>,
    slots: Vec<Option<Node>>,
    free: Vec<usize>,
    /// Most-recently-used slot, or [`NIL`].
    head: usize,
    /// Least-recently-used slot, or [`NIL`].
    tail: usize,
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn node(&self, i: usize) -> &Node {
        self.slots[i].as_ref().expect("linked slot is occupied")
    }

    fn node_mut(&mut self, i: usize) -> &mut Node {
        self.slots[i].as_mut().expect("linked slot is occupied")
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            nx => self.node_mut(nx).prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(i);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn remove_slot(&mut self, i: usize) -> Node {
        self.unlink(i);
        let node = self.slots[i].take().expect("removed slot was occupied");
        self.free.push(i);
        self.bytes -= node.bytes;
        node
    }

    /// Evict the least-recently-used entry; returns false on empty.
    fn evict_lru(&mut self) -> bool {
        if self.tail == NIL {
            return false;
        }
        let node = self.remove_slot(self.tail);
        self.map.remove(&node.key);
        true
    }
}

/// Sharded LRU cache from [`QueryFingerprint`] to [`CachedPlan`].
///
/// All methods take `&self`; the cache is meant to be shared across
/// serving threads (e.g. behind an `Arc` or borrowed by scoped threads).
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    entries_per_shard: usize,
    bytes_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.len())
            .field("stats", &s)
            .finish()
    }
}

impl PlanCache {
    /// Create a cache with the given capacity split evenly across shards.
    pub fn new(config: PlanCacheConfig) -> Self {
        let shards = config.shards.max(1);
        let entries = config.max_entries.max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            entries_per_shard: entries.div_ceil(shards),
            bytes_per_shard: config.max_bytes.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: &QueryFingerprint) -> &Mutex<Shard> {
        // High bits of the digest: the low bits also steer the HashMap
        // within the shard, so reusing them would correlate bucket and
        // shard choice.
        let i = (key.digest() >> 32) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Look up `key`, promoting the entry to most-recently-used.
    pub fn get(&self, key: &QueryFingerprint) -> Option<CachedPlan> {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
        match shard.map.get(key).copied() {
            Some(slot) => {
                shard.unlink(slot);
                shard.push_front(slot);
                let plan = shard.node(slot).plan.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) the entry for `key`, evicting LRU entries as
    /// needed to respect the shard's entry and byte budgets. An entry too
    /// large for the whole byte budget is refused (counted as one insert
    /// and one eviction).
    pub fn insert(&self, key: QueryFingerprint, plan: CachedPlan) {
        let bytes = plan.approx_bytes(&key);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if bytes > self.bytes_per_shard {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut evicted = 0u64;
        {
            let mut shard = self.shard_for(&key).lock().expect("cache shard poisoned");
            if let Some(slot) = shard.map.get(&key).copied() {
                let node = shard.remove_slot(slot);
                shard.map.remove(&node.key);
            }
            while shard.map.len() + 1 > self.entries_per_shard
                || shard.bytes + bytes > self.bytes_per_shard
            {
                if !shard.evict_lru() {
                    break;
                }
                evicted += 1;
            }
            let slot = match shard.free.pop() {
                Some(i) => i,
                None => {
                    shard.slots.push(None);
                    shard.slots.len() - 1
                }
            };
            shard.slots[slot] = Some(Node {
                key: key.clone(),
                plan,
                bytes,
                prev: NIL,
                next: NIL,
            });
            shard.bytes += bytes;
            shard.push_front(slot);
            shard.map.insert(key, slot);
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Remove the entry for `key`, if present. Returns whether an entry
    /// was removed. Used by drivers to drop entries that failed validity
    /// re-check against the live catalog.
    pub fn invalidate(&self, key: &QueryFingerprint) -> bool {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
        match shard.map.remove(key) {
            Some(slot) => {
                shard.remove_slot(slot);
                drop(shard);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            *shard = Shard::new();
        }
    }

    /// Number of resident entries (sums shard sizes; a racy snapshot
    /// under concurrent mutation).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0usize, 0usize);
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            entries += shard.map.len();
            bytes += shard.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{fingerprint, FingerprintConfig};
    use ljqo_catalog::{Query, QueryBuilder};

    fn query(card: u64) -> Query {
        QueryBuilder::new()
            .relation("a", card)
            .relation("b", card + 17)
            .join("a", "b", 0.01)
            .build()
            .unwrap()
    }

    /// Distinct fingerprints at a fine bucketing (factor ~1.15 apart is
    /// always beyond one bucket width at 64 buckets per decade).
    fn keys(n: usize) -> Vec<QueryFingerprint> {
        let cfg = FingerprintConfig {
            buckets_per_decade: 64,
        };
        (0..n)
            .map(|i| {
                let card = (1000.0 * 1.2f64.powi(i as i32)) as u64;
                fingerprint(&query(card), &cfg).fingerprint().clone()
            })
            .collect()
    }

    fn plan(cost: f64) -> CachedPlan {
        CachedPlan {
            segments: vec![CachedSegment {
                canon_order: vec![0, 1],
                shape: vec![(0, 1)],
            }],
            total_cost: cost,
            producer: "II",
        }
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = PlanCache::new(PlanCacheConfig::default());
        let k = keys(1).pop().unwrap();
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), plan(42.0));
        let got = cache.get(&k).expect("inserted entry is resident");
        assert_eq!(got.total_cost, 42.0);
        assert_eq!(got.producer, "II");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(s.entries, 1);
        assert!(s.bytes > 0);
    }

    #[test]
    fn replacement_keeps_one_entry() {
        let cache = PlanCache::new(PlanCacheConfig::default());
        let k = keys(1).pop().unwrap();
        cache.insert(k.clone(), plan(1.0));
        cache.insert(k.clone(), plan(2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&k).unwrap().total_cost, 2.0);
    }

    #[test]
    fn entry_capacity_evicts_least_recently_used() {
        let cache = PlanCache::new(PlanCacheConfig {
            max_entries: 3,
            max_bytes: 1 << 20,
            shards: 1,
        });
        let ks = keys(4);
        for (i, k) in ks.iter().take(3).enumerate() {
            cache.insert(k.clone(), plan(i as f64));
        }
        // Touch k0 so k1 becomes the LRU victim.
        assert!(cache.get(&ks[0]).is_some());
        cache.insert(ks[3].clone(), plan(3.0));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&ks[0]).is_some());
        assert!(cache.get(&ks[1]).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&ks[2]).is_some());
        assert!(cache.get(&ks[3]).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_capacity_is_enforced() {
        let ks = keys(6);
        let one = plan(1.0).approx_bytes(&ks[0]);
        let cache = PlanCache::new(PlanCacheConfig {
            max_entries: 100,
            max_bytes: one * 2,
            shards: 1,
        });
        for k in &ks {
            cache.insert(k.clone(), plan(1.0));
        }
        let s = cache.stats();
        assert!(s.entries <= 2, "{} entries resident", s.entries);
        assert!(s.bytes <= one * 2 + one, "{} bytes resident", s.bytes);
        assert!(s.evictions >= 4);
    }

    #[test]
    fn oversized_entry_is_refused() {
        let cache = PlanCache::new(PlanCacheConfig {
            max_entries: 10,
            max_bytes: 8,
            shards: 1,
        });
        let k = keys(1).pop().unwrap();
        cache.insert(k.clone(), plan(1.0));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidate_removes_the_entry() {
        let cache = PlanCache::new(PlanCacheConfig::default());
        let k = keys(1).pop().unwrap();
        cache.insert(k.clone(), plan(1.0));
        assert!(cache.invalidate(&k));
        assert!(!cache.invalidate(&k));
        assert!(cache.get(&k).is_none());
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = PlanCache::new(PlanCacheConfig::default());
        for k in keys(16) {
            cache.insert(k, plan(1.0));
        }
        assert_eq!(cache.len(), 16);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
    }

    /// Mixed-operation hammer across scoped threads. Enrolled in the CI
    /// ThreadSanitizer job (test filter: `hammer`); also asserts counter
    /// and occupancy invariants after the dust settles.
    #[test]
    fn concurrent_hammer_preserves_invariants() {
        let config = PlanCacheConfig {
            max_entries: 16,
            max_bytes: 1 << 14,
            shards: 4,
        };
        let cache = PlanCache::new(config);
        let ks = keys(24);
        let threads = 8usize;
        let ops_per_thread = 400u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let ks = &ks;
                scope.spawn(move || {
                    // Thread-local splitmix stream; no shared RNG state.
                    let mut state = 0x9e37_79b9u64.wrapping_mul(t as u64 + 1);
                    let mut next = || {
                        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut z = state;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        z ^ (z >> 31)
                    };
                    for _ in 0..ops_per_thread {
                        let k = &ks[(next() % ks.len() as u64) as usize];
                        match next() % 4 {
                            0 | 1 => {
                                if let Some(p) = cache.get(k) {
                                    assert!(p.total_cost.is_finite());
                                }
                            }
                            2 => cache.insert(k.clone(), plan((next() % 1000) as f64)),
                            _ => {
                                cache.invalidate(k);
                            }
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        let total_ops = threads as u64 * ops_per_thread;
        assert!(s.hits + s.misses <= total_ops);
        assert!(s.entries <= 16);
        assert!(s.bytes <= 1 << 14);
        // Every resident entry is still retrievable and well-formed.
        for k in &ks {
            if let Some(p) = cache.get(k) {
                assert_eq!(p.segments.len(), 1);
            }
        }
    }
}
