//! Client-side cache of segment-tree nodes.
//!
//! Tree nodes are *versioned and immutable*: a `NodeKey` names the node
//! created by exactly one write, and nothing ever changes the bytes stored
//! under it ("data is never overwritten", paper §III-A). A cached node can
//! therefore never go stale — there is no invalidation protocol, no
//! timestamps, no leases; the only policy decision is capacity. That is the
//! whole reason BlobSeer's metadata can be cached this aggressively, and it
//! is why the cache lives on the client side of the DHT rather than on the
//! metadata providers: every hit removes a client-to-provider round trip.
//!
//! The implementation is a sharded second-chance cache: the key hash picks
//! a shard, each shard is an independently locked array of slots, and a
//! demand hit sets the slot's reference bit. A node enters unreferenced —
//! demand fill and write pre-warm alike — so only a node that a reader came
//! back for has earned a second chance. To make room, an insert
//! draws slots from the shard's seeded generator: a referenced slot loses
//! its bit and is skipped, the first unreferenced one drawn is evicted.
//!
//! Second chance is what keeps the hot set resident: the upper tree levels
//! every descent passes through, and a pinned version read over and over,
//! are hit again before two draws can land on them. Random order is what
//! makes the cache useful to a scan larger than itself. A MapReduce input
//! scan repeats, and evicting in the order slots were filled throws out
//! exactly the node the scan needs next, so every lap misses everything
//! below the top levels. Random victims break
//! that link: a scan 1.25x the cache keeps most of its tree from one lap to
//! the next. The generator's seed is a constant per shard, so a sequence of
//! calls evicts the same keys on every run. A hit is one hash lookup and one
//! flag-byte store; the flags sit in a dense array beside the slots, so a
//! probe reads one byte instead of a whole slot.

use crate::metadata::{NodeKey, TreeNode};
use kvstore::{fast_hash, shard_index, FastMap};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independently locked shards. A power of two so the shard index
/// is a mask of the key hash.
const SHARDS: usize = 16;

/// Seed of shard 0's victim generator; shard `i` mixes `i` into the high
/// half.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slot flag: a demand hit touched the slot since a probe last cleared it.
const REFERENCED: u8 = 1;

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetadataCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the DHT.
    pub misses: u64,
    /// Nodes inserted (both demand fills and write-path pre-warming).
    pub insertions: u64,
    /// Nodes evicted to make room.
    pub evictions: u64,
    /// Nodes currently resident.
    pub entries: u64,
}

struct Slot {
    key: NodeKey,
    node: TreeNode,
}

struct Shard {
    /// Key -> index into `slots`.
    index: FastMap<NodeKey, usize>,
    slots: Vec<Slot>,
    /// The `REFERENCED` bit of `slots[i]`, kept in step with
    /// `slots` so that an eviction probe reads one dense byte array.
    flags: Vec<u8>,
    /// Xorshift state drawing the slots an eviction examines (never zero).
    rng: u64,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize, seed: u64) -> Self {
        Shard {
            index: FastMap::with_capacity_and_hasher(capacity, Default::default()),
            slots: Vec::with_capacity(capacity),
            flags: Vec::with_capacity(capacity),
            rng: seed | 1,
            capacity,
        }
    }

    /// Look a node up and mark it referenced.
    fn get(&mut self, key: &NodeKey) -> Option<TreeNode> {
        let at = *self.index.get(key)?;
        self.flags[at] = REFERENCED;
        Some(self.slots[at].node.clone())
    }

    /// Insert or refresh a node; it enters unreferenced. Returns whether an
    /// existing entry was evicted to make room.
    fn insert(&mut self, key: NodeKey, node: TreeNode) -> bool {
        if let Some(&at) = self.index.get(&key) {
            // Immutable nodes make a re-insert a no-op value-wise. The
            // reference bit stays as it is (an insert is no hit).
            self.slots[at].node = node;
            return false;
        }
        if self.slots.len() < self.capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(Slot { key, node });
            self.flags.push(0);
            return false;
        }
        let (at, _) = self.victim();
        let slot = &mut self.slots[at];
        self.index.remove(&slot.key);
        self.index.insert(key, at);
        *slot = Slot { key, node };
        self.flags[at] = 0;
        true
    }

    /// Choose the slot of a full shard to evict: draw slots at random,
    /// clearing the bit of each referenced one (its second chance), until an
    /// unreferenced slot comes up. Returns it with the number of slots
    /// examined, at most `capacity + 1`: every probe evicts or clears a bit.
    fn victim(&mut self) -> (usize, usize) {
        let mut examined = 0;
        loop {
            examined += 1;
            let at = self.draw();
            if self.flags[at] & REFERENCED == 0 {
                return (at, examined);
            }
            self.flags[at] &= !REFERENCED;
        }
    }

    /// A uniform slot index from the shard's xorshift64 generator.
    fn draw(&mut self) -> usize {
        self.rng = simcluster::xorshift64(self.rng);
        ((u128::from(self.rng) * self.slots.len() as u128) >> 64) as usize
    }

    /// Drop a node, handing its slot back. The last slot (and its flags)
    /// moves into the gap, so the array stays dense.
    fn remove(&mut self, key: &NodeKey) -> bool {
        let Some(at) = self.index.remove(key) else {
            return false;
        };
        self.slots.swap_remove(at);
        self.flags.swap_remove(at);
        if let Some(moved) = self.slots.get(at) {
            self.index.insert(moved.key, at);
        }
        true
    }
}

/// A sharded, capacity-bounded cache of `NodeKey -> TreeNode`.
pub struct MetadataCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl MetadataCache {
    /// Create a cache holding at most `capacity` nodes (rounded up so every
    /// shard holds at least one).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        MetadataCache {
            shards: (0..SHARDS)
                .map(|i| Mutex::new(Shard::new(per_shard, SEED ^ ((i as u64) << 32))))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &NodeKey) -> &Mutex<Shard> {
        &self.shards[shard_index(fast_hash(key), SHARDS)]
    }

    /// Look a node up, counting the hit or miss.
    pub fn get(&self, key: &NodeKey) -> Option<TreeNode> {
        let found = self.shard_of(key).lock().get(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Insert (or refresh) a node.
    pub fn insert(&self, key: NodeKey, node: TreeNode) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if self.shard_of(&key).lock().insert(key, node) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop one node (garbage collection retired it). Like [`Self::clear`],
    /// not an eviction: no capacity decision was made. Returns whether the
    /// node was resident.
    pub fn remove(&self, key: &NodeKey) -> bool {
        self.shard_of(key).lock().remove(key)
    }

    /// Drop every resident node, keeping the counters. This models a cold
    /// client (a reader on a node that never saw the writes), so the dropped
    /// entries do not count as evictions — no capacity decision was made.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.index.clear();
            shard.slots.clear();
            shard.flags.clear();
        }
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> MetadataCacheStats {
        MetadataCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().slots.len() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BlobId, ProviderId, Version};

    fn key(v: u64, o: u64) -> NodeKey {
        NodeKey {
            blob: BlobId(1),
            version: Version(v),
            offset: o,
            span: 1,
        }
    }

    fn leaf(page: u64) -> TreeNode {
        TreeNode::Leaf {
            page,
            providers: vec![ProviderId(page as u32)],
        }
    }

    /// Every node of eight versions of one blob's 1 024-page tree.
    fn one_blobs_tree_keys() -> Vec<NodeKey> {
        let mut keys = Vec::new();
        for version in 1..=8 {
            let mut span = 1;
            while span <= 1024 {
                for offset in (0..1024).step_by(span as usize) {
                    keys.push(NodeKey {
                        blob: BlobId(3),
                        version: Version(version),
                        offset,
                        span,
                    });
                }
                span *= 2;
            }
        }
        keys
    }

    /// No shard of `shards` holds more than twice its share of `hashes`.
    fn assert_spread(hashes: impl Iterator<Item = u64>, shards: usize) {
        let mut counts = vec![0usize; shards];
        let mut n = 0;
        for h in hashes {
            counts[shard_index(h, shards)] += 1;
            n += 1;
        }
        let mean = n / shards;
        assert!(counts.iter().all(|&c| c <= 2 * mean), "{counts:?}");
    }

    #[test]
    fn one_blobs_keys_spread_over_every_shard() {
        let keys = one_blobs_tree_keys();
        // The cache shards hash the key itself; a `MemStore`'s 64 shards
        // hash key bytes, here both the version records' and the page keys'.
        assert_spread(keys.iter().map(fast_hash), SHARDS);
        let records = (1..=4096).map(|v| NodeKey {
            version: Version(v),
            ..keys[0]
        });
        assert_spread(records.map(|k| fast_hash(k.record_key().as_bytes())), 64);
        let pages = (keys.iter()).map(|k| crate::provider::page_key(k.blob, k.version, k.offset));
        assert_spread(pages.map(|p| fast_hash(p.as_slice())), 64);
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = MetadataCache::new(8);
        assert!(cache.get(&key(1, 0)).is_none());
        cache.insert(key(1, 0), leaf(0));
        assert_eq!(cache.get(&key(1, 0)), Some(leaf(0)));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn capacity_is_bounded_and_eviction_counted() {
        let cache = MetadataCache::new(32);
        for i in 0..1000 {
            cache.insert(key(1, i), leaf(i));
        }
        let stats = cache.stats();
        // Each of the 16 shards holds at most ceil(32/16) = 2 slots.
        assert!(
            stats.entries <= 32,
            "entries {} exceed capacity",
            stats.entries
        );
        assert_eq!(stats.insertions, 1000);
        assert_eq!(stats.evictions, 1000 - stats.entries);
    }

    /// A demand read as the store makes it: a hit, or a miss and a fill.
    /// Returns whether it hit.
    fn read(cache: &MetadataCache, k: NodeKey) -> bool {
        let hit = cache.get(&k).is_some();
        if !hit {
            cache.insert(k, leaf(k.offset));
        }
        hit
    }

    /// Every resident key, shard by shard in slot order.
    fn resident(cache: &MetadataCache) -> Vec<NodeKey> {
        (cache.shards.iter())
            .flat_map(|s| {
                s.lock()
                    .slots
                    .iter()
                    .map(|slot| slot.key)
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn a_cyclic_scan_larger_than_the_cache_keeps_most_of_it() {
        // A scan that repeats over 1.25x the cache. Evicting in fill order
        // (a clock sweeping its ring) always throws out the key the scan
        // comes back to next, so laps after the first hit about never;
        // random victims keep most of the loop resident.
        let capacity = 1024;
        let cache = MetadataCache::new(capacity);
        let keys: Vec<NodeKey> = (0..capacity as u64 * 5 / 4).map(|i| key(1, i)).collect();
        for &k in &keys {
            read(&cache, k);
        }
        let before = cache.stats();
        for _ in 1..4 {
            for &k in &keys {
                read(&cache, k);
            }
        }
        let after = cache.stats();
        let hits = after.hits - before.hits;
        let lookups = hits + after.misses - before.misses;
        assert!(
            hits * 2 >= lookups,
            "laps 2-4 hit {hits} of {lookups} lookups"
        );
    }

    #[test]
    fn a_hot_set_survives_a_scan_four_times_the_cache() {
        // A hot quarter of the cache, two hot keys read after every step
        // of a one-pass scan over 4x the cache. The reference bit keeps the
        // hot set resident: a hot key is read again long before two probes
        // land on it. A clock sweep passes this too; evicting at random with
        // no reference bit does not (a hot key then goes as readily as a
        // scan key, and about one read in eight misses).
        let capacity = 1024u64;
        let cache = MetadataCache::new(capacity as usize);
        let hot: Vec<NodeKey> = (0..capacity / 4).map(|i| key(1, i)).collect();
        for &k in &hot {
            read(&cache, k);
        }
        let (mut hot_reads, mut hot_hits) = (0u64, 0u64);
        let mut next = hot.iter().cycle();
        for i in 0..capacity * 4 {
            read(&cache, key(2, i));
            for &k in next.by_ref().take(2) {
                hot_reads += 1;
                hot_hits += u64::from(read(&cache, k));
            }
        }
        let resident: std::collections::HashSet<NodeKey> = resident(&cache).into_iter().collect();
        let present = hot.iter().filter(|k| resident.contains(k)).count();
        assert!(
            hot_hits * 100 >= hot_reads * 95,
            "hot reads hit {hot_hits} of {hot_reads}"
        );
        assert!(
            present * 100 >= hot.len() * 95,
            "{present} hot keys resident"
        );
    }

    #[test]
    fn the_same_calls_evict_the_same_keys() {
        let (a, b) = (MetadataCache::new(64), MetadataCache::new(64));
        for i in 0..2000 {
            let k = key(1, i * 7 % 300);
            assert_eq!(read(&a, k), read(&b, k), "call {i}");
            if i % 5 == 0 {
                a.insert(key(2, i), leaf(i));
                b.insert(key(2, i), leaf(i));
            }
        }
        assert!(a.stats().evictions > 0);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(resident(&a), resident(&b));
    }

    #[test]
    fn an_insert_into_a_fully_referenced_shard_examines_at_most_capacity_plus_one() {
        for capacity in [1u64, 2, 7, 64] {
            let mut shard = Shard::new(capacity as usize, SEED);
            for round in 0..50 {
                // Fill or refresh, then reference every slot.
                for i in 0..capacity {
                    shard.insert(key(round, i), leaf(i));
                    assert!(shard.get(&key(round, i)).is_some());
                }
                assert!(shard.flags.iter().all(|&f| f & REFERENCED != 0));
                // Every probe clears a bit or evicts, so the first slot
                // drawn twice is the victim.
                let (at, examined) = shard.victim();
                assert!(examined <= capacity as usize + 1, "{examined} probes");
                assert_eq!(shard.flags[at] & REFERENCED, 0);
                // Evict everything, so the next round fills afresh.
                for i in 0..capacity {
                    shard.remove(&key(round, i));
                }
            }
        }
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = MetadataCache::new(8);
        cache.insert(key(1, 0), leaf(0));
        cache.insert(key(1, 1), leaf(1));
        assert!(cache.get(&key(1, 0)).is_some());
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.evictions, 0, "a clear is not an eviction");
        assert!(cache.get(&key(1, 0)).is_none());
        // The cache keeps working after a clear.
        cache.insert(key(1, 2), leaf(2));
        assert!(cache.get(&key(1, 2)).is_some());
    }

    #[test]
    fn remove_frees_the_slot_and_keeps_the_ring_consistent() {
        let cache = MetadataCache::new(8);
        cache.insert(key(1, 0), leaf(0));
        assert!(cache.remove(&key(1, 0)));
        assert!(!cache.remove(&key(1, 0)));
        assert!(cache.get(&key(1, 0)).is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().evictions, 0, "a removal is not an eviction");

        // One full shard: the last slot moves into the gap with its flags
        // and stays findable, and the freed slot is reused before anyone is
        // evicted.
        let mut shard = Shard::new(3, SEED);
        for i in 0..3 {
            shard.insert(key(1, i), leaf(i));
        }
        assert!(shard.get(&key(1, 2)).is_some());
        assert!(shard.remove(&key(1, 0)));
        assert_eq!(shard.flags, [REFERENCED, 0]);
        assert!(shard.get(&key(1, 1)).is_some() && shard.get(&key(1, 2)).is_some());
        assert!(!shard.insert(key(1, 3), leaf(3)));
        assert!(shard.insert(key(1, 4), leaf(4)), "full again");
        assert_eq!(shard.flags.len(), shard.slots.len());
        for (at, slot) in shard.slots.iter().enumerate() {
            assert_eq!(shard.index[&slot.key], at);
        }
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let cache = MetadataCache::new(8);
        cache.insert(key(1, 0), leaf(0));
        cache.insert(key(1, 0), leaf(0));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(MetadataCache::new(64));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..500 {
                        let k = key(t, i % 50);
                        cache.insert(k, leaf(i % 50));
                        let _ = cache.get(&k);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.insertions, 8 * 500);
        assert!(stats.entries <= 64);
    }
}
