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
//! The implementation is a sharded clock (second-chance) cache: the key hash
//! picks a shard, each shard is an independently locked ring of slots, and
//! eviction sweeps the ring clearing reference bits until it finds a slot
//! that was not touched since the last sweep. Clock keeps the hot upper
//! levels of the tree resident like LRU would, without having to reorder a
//! list on every hit — a hit is one hash lookup and one relaxed bit store.

use crate::metadata::{NodeKey, TreeNode};
use kvstore::{fast_hash, shard_index, FastMap};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independently locked shards. A power of two so the shard index
/// is a mask of the key hash.
const SHARDS: usize = 16;

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
    /// Read-ahead nodes that a later demand lookup actually used.
    pub prefetch_hits: u64,
    /// Read-ahead nodes evicted before any demand lookup touched them —
    /// speculation that cost a fetch and bought nothing.
    pub prefetch_wasted: u64,
}

struct Slot {
    key: NodeKey,
    node: TreeNode,
    referenced: bool,
    /// Inserted by read-ahead and not yet touched by a demand lookup. The
    /// first demand hit clears the flag (a prefetch hit); eviction while the
    /// flag is still set means the prefetch was wasted.
    prefetched: bool,
}

struct Shard {
    /// Key -> index into `slots`.
    index: FastMap<NodeKey, usize>,
    slots: Vec<Slot>,
    /// Clock hand: next slot the eviction sweep examines.
    hand: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            index: FastMap::with_capacity_and_hasher(capacity, Default::default()),
            slots: Vec::with_capacity(capacity),
            hand: 0,
            capacity,
        }
    }

    /// Look a node up. The second return flags a first demand hit on a
    /// prefetched slot (the prefetch paid off).
    fn get(&mut self, key: &NodeKey) -> Option<(TreeNode, bool)> {
        let slot = *self.index.get(key)?;
        let slot = &mut self.slots[slot];
        slot.referenced = true;
        let first_demand_hit = slot.prefetched;
        slot.prefetched = false;
        Some((slot.node.clone(), first_demand_hit))
    }

    /// Insert or refresh a node. Returns `(evicted, wasted)`: whether an
    /// existing entry was evicted to make room, and whether that entry was a
    /// never-demanded prefetch.
    fn insert(&mut self, key: NodeKey, node: TreeNode, prefetched: bool) -> (bool, bool) {
        if let Some(&slot) = self.index.get(&key) {
            // Immutable nodes make a re-insert a no-op value-wise, but the
            // write may be pre-warming a slot that demand-filling put there
            // first; refresh the reference bit either way. A resident demand
            // entry never regresses to prefetched.
            self.slots[slot].referenced = true;
            self.slots[slot].node = node;
            self.slots[slot].prefetched &= prefetched;
            return (false, false);
        }
        if self.slots.len() < self.capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(Slot {
                key,
                node,
                referenced: true,
                prefetched,
            });
            return (false, false);
        }
        // Clock sweep: give every referenced slot a second chance.
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.referenced {
                slot.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
                continue;
            }
            let wasted = slot.prefetched;
            self.index.remove(&slot.key);
            self.index.insert(key, self.hand);
            *slot = Slot {
                key,
                node,
                referenced: true,
                prefetched,
            };
            self.hand = (self.hand + 1) % self.capacity;
            return (true, wasted);
        }
    }

    /// Drop a node, handing its slot back. The last slot moves into the gap,
    /// so the ring stays dense.
    fn remove(&mut self, key: &NodeKey) -> bool {
        let Some(at) = self.index.remove(key) else {
            return false;
        };
        self.slots.swap_remove(at);
        if let Some(moved) = self.slots.get(at) {
            self.index.insert(moved.key, at);
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
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
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
}

impl MetadataCache {
    /// Create a cache holding at most `capacity` nodes (rounded up so every
    /// shard holds at least one).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        MetadataCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &NodeKey) -> &Mutex<Shard> {
        &self.shards[shard_index(fast_hash(key), SHARDS)]
    }

    /// Look a node up, counting the hit or miss (and the prefetch hit when
    /// this is the first demand touch of a read-ahead fill).
    pub fn get(&self, key: &NodeKey) -> Option<TreeNode> {
        let found = self.shard_of(key).lock().get(key);
        match found {
            Some((node, first_demand_hit)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if first_demand_hit {
                    self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(node)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) a node.
    pub fn insert(&self, key: NodeKey, node: TreeNode) {
        self.insert_with_origin(key, node, false);
    }

    /// Insert a node fetched by read-ahead: it counts as wasted if evicted
    /// before any demand lookup touches it.
    pub fn insert_prefetched(&self, key: NodeKey, node: TreeNode) {
        self.insert_with_origin(key, node, true);
    }

    fn insert_with_origin(&self, key: NodeKey, node: TreeNode, prefetched: bool) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
        let (evicted, wasted) = self.shard_of(&key).lock().insert(key, node, prefetched);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        if wasted {
            self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
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
    /// entries count neither as evictions nor as wasted prefetches — no
    /// capacity decision was made.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.index.clear();
            shard.slots.clear();
            shard.hand = 0;
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
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
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
        // hash key bytes, here both the node keys' and the page keys'.
        assert_spread(keys.iter().map(fast_hash), SHARDS);
        assert_spread(keys.iter().map(|k| fast_hash(k.dht_key().as_bytes())), 64);
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

    #[test]
    fn clock_sweep_evicts_unreferenced_slots_first() {
        // A single-shard-sized cache would be flaky to target through the
        // hash, so drive one shard directly.
        let mut shard = Shard::new(2);
        shard.insert(key(1, 0), leaf(0), false);
        shard.insert(key(1, 1), leaf(1), false);
        // The first over-capacity insert sweeps both reference bits clear,
        // evicts slot 0 and leaves slot 1's bit cleared.
        shard.insert(key(1, 2), leaf(2), false);
        assert!(shard.get(&key(1, 2)).is_some());
        assert!(shard.get(&key(1, 0)).is_none());
        assert_eq!(shard.slots.len(), 2);
        // Touch node 2 (done by the gets above) and insert again: node 1,
        // whose bit is still clear, goes; the referenced node 2 survives.
        shard.insert(key(1, 3), leaf(3), false);
        assert!(shard.get(&key(1, 2)).is_some());
        assert!(shard.get(&key(1, 1)).is_none());
    }

    #[test]
    fn prefetch_hits_and_waste_are_tracked() {
        let cache = MetadataCache::new(8);
        // A prefetched node's first demand touch is a prefetch hit; later
        // touches are plain hits.
        cache.insert_prefetched(key(1, 0), leaf(0));
        assert_eq!(cache.get(&key(1, 0)), Some(leaf(0)));
        assert_eq!(cache.get(&key(1, 0)), Some(leaf(0)));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.prefetch_hits, 1);
        assert_eq!(stats.prefetch_wasted, 0);
        // A demand re-insert of a prefetched entry clears the flag.
        cache.insert_prefetched(key(1, 1), leaf(1));
        cache.insert(key(1, 1), leaf(1));
        assert_eq!(cache.get(&key(1, 1)), Some(leaf(1)));
        assert_eq!(cache.stats().prefetch_hits, 1);
    }

    #[test]
    fn evicting_an_untouched_prefetch_counts_as_waste() {
        // Drive one shard directly so eviction order is deterministic.
        let mut shard = Shard::new(1);
        let (_, wasted) = shard.insert(key(1, 0), leaf(0), true);
        assert!(!wasted);
        // Over-capacity insert: the sweep clears the reference bit first,
        // then evicts the never-demanded prefetch.
        let (evicted, wasted) = shard.insert(key(1, 1), leaf(1), false);
        assert!(evicted && wasted, "untouched prefetch must count as waste");
        // A demanded prefetch does not count as waste when later evicted.
        let mut shard = Shard::new(1);
        shard.insert(key(1, 2), leaf(2), true);
        assert!(shard.get(&key(1, 2)).is_some());
        let (evicted, wasted) = shard.insert(key(1, 3), leaf(3), false);
        assert!(evicted && !wasted);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = MetadataCache::new(8);
        cache.insert(key(1, 0), leaf(0));
        cache.insert_prefetched(key(1, 1), leaf(1));
        assert!(cache.get(&key(1, 0)).is_some());
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.evictions, 0, "a clear is not an eviction");
        assert_eq!(stats.prefetch_wasted, 0, "a clear is not waste");
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

        // One full shard: the last slot moves into the gap and stays
        // findable, and the freed slot is reused before anyone is evicted.
        let mut shard = Shard::new(3);
        for i in 0..3 {
            shard.insert(key(1, i), leaf(i), false);
        }
        assert!(shard.remove(&key(1, 0)));
        assert!(shard.get(&key(1, 1)).is_some() && shard.get(&key(1, 2)).is_some());
        assert!(!shard.insert(key(1, 3), leaf(3), false).0);
        assert!(shard.insert(key(1, 4), leaf(4), false).0, "full again");
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
