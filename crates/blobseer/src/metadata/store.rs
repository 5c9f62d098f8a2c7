//! Typed wrapper around the metadata DHT.

use crate::error::{BlobResult, BlobSeerError};
use crate::metadata::cache::{MetadataCache, MetadataCacheStats};
use crate::metadata::{NodeKey, Slot, TreeNode};
use crate::types::InlineKey;
use bytes::Bytes;
use dht::{Dht, DhtConfig, DhtError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing metadata traffic (useful for the metadata-overhead
/// ablation and for sanity checks in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetadataStats {
    /// Tree nodes written.
    pub nodes_written: u64,
    /// Tree nodes requested by readers (cache hits included): what the same
    /// traffic would cost in DHT `get`s with neither batching nor caching.
    pub nodes_read: u64,
    /// Batched publications ([`MetadataStore::put_nodes`] calls): one per
    /// committed version on the write path, regardless of tree size.
    pub batch_flushes: u64,
    /// Batched resolutions ([`MetadataStore::get_nodes`] calls): one per
    /// tree level on the lookup path, regardless of frontier width, down to
    /// the first full node of a path, whose page map, if it has one,
    /// answers its pages; then one for the leaves under a full node without
    /// a map.
    pub batch_lookups: u64,
    /// Client-to-metadata-node round trips performed by the underlying DHT
    /// (reads and writes combined).
    pub dht_round_trips: u64,
    /// The write-side subset of `dht_round_trips` — the like-for-like figure
    /// to compare against one-put-per-node publication.
    pub dht_write_round_trips: u64,
    /// The read-side subset of `dht_round_trips` — the like-for-like figure
    /// to compare against one-get-per-node lookups (`nodes_read`).
    pub dht_read_round_trips: u64,
    /// Node lookups answered by the client-side immutable-node cache.
    pub cache_hits: u64,
    /// Node lookups that fell through the cache to the DHT.
    pub cache_misses: u64,
}

/// The metadata store: segment-tree nodes in a DHT of metadata providers,
/// fronted by a client-side cache of the (immutable) nodes. Nodes never change
/// once published, so the cache needs no invalidation; the write path
/// pre-warms it when flushing a version's node batch.
pub struct MetadataStore {
    dht: Arc<Dht>,
    cache: MetadataCache,
    nodes_written: AtomicU64,
    nodes_read: AtomicU64,
    batch_flushes: AtomicU64,
    batch_lookups: AtomicU64,
}

impl MetadataStore {
    /// Create a store with a fresh standalone DHT of `nodes` nodes and a
    /// node cache of up to `cache_capacity` tree nodes (a deployment builds
    /// its DHT over its machines and uses [`MetadataStore::with_dht`]).
    pub fn new(nodes: usize, replication: usize, cache_capacity: usize) -> Self {
        let dht = Dht::new(DhtConfig {
            nodes,
            replication,
            virtual_nodes: 64,
        });
        Self::with_dht(Arc::new(dht), cache_capacity)
    }

    /// Wrap an existing DHT behind a fresh (cold) node cache: a second client
    /// of the same metadata providers, and how tests inject failures from
    /// outside.
    pub fn with_dht(dht: Arc<Dht>, cache_capacity: usize) -> Self {
        MetadataStore {
            dht,
            cache: MetadataCache::new(cache_capacity),
            nodes_written: AtomicU64::new(0),
            nodes_read: AtomicU64::new(0),
            batch_flushes: AtomicU64::new(0),
            batch_lookups: AtomicU64::new(0),
        }
    }

    /// Drop every cached node (counters survive). Benchmarks use this to
    /// model a cold reader: a client on a node that never saw the writes
    /// starts with an empty cache even though the process shares one store.
    pub fn drop_cached_nodes(&self) {
        self.cache.clear();
    }

    /// Access the underlying DHT (failure injection in tests).
    pub fn dht(&self) -> &Arc<Dht> {
        &self.dht
    }

    /// Persist a tree node.
    pub fn put_node(&self, key: NodeKey, node: &TreeNode) -> BlobResult<()> {
        self.nodes_written.fetch_add(1, Ordering::Relaxed);
        self.dht
            .put(key.dht_key().as_bytes(), Bytes::from(node.encode()))?;
        self.cache.insert(key, node.clone());
        Ok(())
    }

    /// Persist a batch of tree nodes in one DHT pass: keys are grouped by
    /// responsible metadata provider, so each provider is contacted once per
    /// batch instead of once per node. The write path publishes a whole
    /// version's segment-tree delta through a single call.
    pub fn put_nodes(&self, nodes: &[(NodeKey, TreeNode)]) -> BlobResult<()> {
        if nodes.is_empty() {
            return Ok(());
        }
        self.nodes_written
            .fetch_add(nodes.len() as u64, Ordering::Relaxed);
        self.batch_flushes.fetch_add(1, Ordering::Relaxed);
        let entries: Vec<(InlineKey, Bytes)> = nodes
            .iter()
            .map(|(key, node)| (key.dht_key(), Bytes::from(node.encode())))
            .collect();
        self.dht.put_many(&entries)?;
        // Pre-warm the cache with the freshly published tree: the writer (and
        // every reader behind the same client) reads its own version back for
        // free, which covers the common produce-then-consume pattern.
        for (key, node) in nodes {
            self.cache.insert(*key, node.clone());
        }
        Ok(())
    }

    /// Fetch a tree node. A missing node is an error at this layer: callers
    /// pass `None` keys for holes, so a dangling key means corruption or a
    /// dead metadata provider quorum.
    pub fn get_node(&self, key: NodeKey) -> BlobResult<TreeNode> {
        self.nodes_read.fetch_add(1, Ordering::Relaxed);
        if let Some(node) = self.cache.get(&key) {
            return Ok(node);
        }
        let raw = (self.dht.get_many(&[key.dht_key()])?.pop().flatten())
            .ok_or_else(|| Self::missing(&key))?;
        let node = Self::decode_node(key, &raw)?;
        self.cache.insert(key, node.clone());
        Ok(node)
    }

    /// Resolve a batch of tree nodes in one DHT pass: cache hits are peeled
    /// off first, then the misses are grouped by responsible metadata
    /// provider through [`Dht::get_many`], so each provider is contacted once
    /// per batch instead of once per node. The frontier-batched tree descent
    /// ([`crate::metadata::segment_tree::lookup_range`]) resolves one whole
    /// tree level, or the leaves under full nodes, through a single call.
    ///
    /// Returns the nodes in request order. Any node that no live replica
    /// holds fails the whole batch, matching [`MetadataStore::get_node`]'s
    /// contract that a dangling key is corruption, not a hole.
    pub fn get_nodes(&self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        self.nodes_read
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.batch_lookups.fetch_add(1, Ordering::Relaxed);
        let mut out: Vec<Option<TreeNode>> = keys.iter().map(|key| self.cache.get(key)).collect();
        let missing: Vec<usize> = (0..keys.len()).filter(|&i| out[i].is_none()).collect();
        if !missing.is_empty() {
            let dht_keys: Vec<InlineKey> = missing.iter().map(|&i| keys[i].dht_key()).collect();
            let fetched = self.dht.get_many(&dht_keys)?;
            for (&i, raw) in missing.iter().zip(fetched) {
                let raw = raw.ok_or_else(|| Self::missing(&keys[i]))?;
                let node = Self::decode_node(keys[i], &raw)?;
                self.cache.insert(keys[i], node.clone());
                out[i] = Some(node);
            }
        }
        keys.iter()
            .zip(out)
            .map(|(key, node)| node.ok_or_else(|| Self::missing(key)))
            .collect()
    }

    /// Resolve the node each slot is read under, in one
    /// [`MetadataStore::get_nodes`] batch. An implied slot's anchor must be
    /// full, and mapped for an implied leaf: any other node stored there
    /// would answer for pages it does not describe, so it is corrupt like a
    /// node of the wrong kind.
    pub fn get_slots(&self, slots: &[Slot]) -> BlobResult<Vec<TreeNode>> {
        let keys: Vec<NodeKey> = slots.iter().map(|slot| slot.stored).collect();
        let nodes = self.get_nodes(&keys)?;
        for (slot, node) in slots.iter().zip(&nodes) {
            check_slot(slot, node)?;
        }
        Ok(nodes)
    }

    fn missing(key: &NodeKey) -> BlobSeerError {
        BlobSeerError::Metadata(DhtError::NotFound {
            key: format!("{key:?}"),
        })
    }

    /// Decode a fetched node. A node of the wrong kind for its key
    /// ([`TreeNode::fits`]) is corrupt too: a full node at a single page
    /// would loop a descent, and a leaf of another page, or an inner node
    /// at a page or with misplaced children, would drop or move pages.
    fn decode_node(key: NodeKey, raw: &[u8]) -> BlobResult<TreeNode> {
        let node = TreeNode::decode(raw).filter(|n| n.fits(key));
        node.ok_or_else(|| {
            BlobSeerError::Metadata(DhtError::NotFound {
                key: format!("undecodable or misplaced metadata node {key:?}"),
            })
        })
    }

    /// Remove one tree node: a batch of one over
    /// [`MetadataStore::remove_nodes`].
    pub fn remove_node(&self, key: NodeKey) -> BlobResult<bool> {
        Ok(self.remove_nodes(&[key])? == 1)
    }

    /// Remove a batch of tree nodes (the sweep of a retention pass or a
    /// delete), from the cache as well as the DHT: a swept node must stop
    /// resolving here and give its cache slot back. The DHT side is one
    /// [`Dht::remove_many`], so each metadata provider gets one message.
    /// Returns how many nodes some replica still held.
    pub fn remove_nodes(&self, keys: &[NodeKey]) -> BlobResult<usize> {
        for key in keys {
            self.cache.remove(key);
        }
        let dht_keys: Vec<InlineKey> = keys.iter().map(NodeKey::dht_key).collect();
        let removed = self.dht.remove_many(&dht_keys)?;
        Ok(removed.into_iter().filter(|r| *r).count())
    }

    /// Effectiveness counters of the node cache (resident entries,
    /// insertions, evictions) beyond the hit/miss figures in
    /// [`MetadataStore::stats`].
    pub fn cache_stats(&self) -> MetadataCacheStats {
        self.cache.stats()
    }

    /// Traffic counters.
    pub fn stats(&self) -> MetadataStats {
        let cache = self.cache.stats();
        MetadataStats {
            nodes_written: self.nodes_written.load(Ordering::Relaxed),
            nodes_read: self.nodes_read.load(Ordering::Relaxed),
            batch_flushes: self.batch_flushes.load(Ordering::Relaxed),
            batch_lookups: self.batch_lookups.load(Ordering::Relaxed),
            dht_round_trips: self.dht.round_trips(),
            dht_write_round_trips: self.dht.write_round_trips(),
            dht_read_round_trips: self.dht.read_round_trips(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        }
    }
}

/// Check that `node`, stored under `slot.stored`, can answer for
/// `slot.at`: an implied slot needs a full anchor, and an implied leaf a
/// mapped one (the leaves under a full node without a map are stored, and
/// named as themselves).
pub(crate) fn check_slot(slot: &Slot, node: &TreeNode) -> BlobResult<()> {
    let answers = match node {
        TreeNode::Full { map } => slot.at.span > 1 || map.is_some(),
        _ => false,
    };
    if slot.implied() && !answers {
        return Err(BlobSeerError::Metadata(DhtError::NotFound {
            key: format!("anchor {:?} cannot answer for {:?}", slot.stored, slot.at),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::PageMap;
    use crate::types::{BlobId, ProviderId, Version};

    fn key(v: u64, o: u64, s: u64) -> NodeKey {
        NodeKey {
            blob: BlobId(1),
            version: Version(v),
            offset: o,
            span: s,
        }
    }

    #[test]
    fn put_get_roundtrip_and_stats() {
        let store = MetadataStore::new(3, 2, 64);
        let leaf = TreeNode::Leaf {
            page: 5,
            providers: vec![ProviderId(2)],
        };
        store.put_node(key(1, 5, 1), &leaf).unwrap();
        let got = store.get_node(key(1, 5, 1)).unwrap();
        assert_eq!(got, leaf);
        let stats = store.stats();
        assert_eq!(stats.nodes_written, 1);
        assert_eq!(stats.nodes_read, 1);
    }

    #[test]
    fn put_nodes_batch_matches_single_puts_with_fewer_round_trips() {
        let batched = MetadataStore::new(3, 2, 64);
        let single = MetadataStore::new(3, 2, 64);
        let nodes: Vec<(NodeKey, TreeNode)> = (0..16)
            .map(|i| {
                (
                    key(1, i, 1),
                    TreeNode::Leaf {
                        page: i,
                        providers: vec![ProviderId(i as u32)],
                    },
                )
            })
            .collect();
        batched.put_nodes(&nodes).unwrap();
        for (k, n) in &nodes {
            single.put_node(*k, n).unwrap();
        }
        // The batch contacted each of the 3 metadata providers at most once,
        // while single puts paid one round trip per node-replica.
        let b = batched.stats();
        let s = single.stats();
        assert_eq!(b.nodes_written, 16);
        assert_eq!(b.batch_flushes, 1);
        assert!(b.dht_round_trips <= 3);
        assert_eq!(s.dht_round_trips, 32);
        // And both DHTs hold identical contents.
        batched.drop_cached_nodes();
        single.drop_cached_nodes();
        for (k, n) in &nodes {
            assert_eq!(&batched.get_node(*k).unwrap(), n);
            assert_eq!(&single.get_node(*k).unwrap(), n);
        }
        // Empty batches are free.
        batched.put_nodes(&[]).unwrap();
        assert_eq!(batched.stats().batch_flushes, 1);
    }

    #[test]
    fn missing_node_is_an_error() {
        let store = MetadataStore::new(2, 1, 64);
        let named = "NodeKey { blob: BlobId(1), version: Version(9), offset: 0, span: 1 }";
        for err in [
            store.get_node(key(9, 0, 1)).unwrap_err(),
            store.get_nodes(&[key(9, 0, 1)]).unwrap_err(),
        ] {
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    /// Store `raw` under `at` in the DHT, behind the cache, and read it back
    /// through both fetch paths.
    fn fetch_raw(at: NodeKey, raw: Vec<u8>) -> [BlobResult<TreeNode>; 2] {
        let store = MetadataStore::new(2, 1, 64);
        store
            .dht()
            .put(at.dht_key().as_bytes(), raw.into())
            .unwrap();
        [
            store.get_node(at),
            store.get_nodes(&[at]).map(|mut nodes| nodes.remove(0)),
        ]
    }

    #[test]
    fn decode_rejects_a_malformed_page_map() {
        let map = |stride: u8, providers: u32| {
            let mut raw = vec![3, stride];
            for p in 0..providers {
                raw.extend_from_slice(&p.to_le_bytes());
            }
            raw
        };
        for got in fetch_raw(key(1, 0, 4), map(2, 8)) {
            assert!(
                matches!(got, Ok(TreeNode::Full { map: Some(_) })),
                "{got:?}"
            );
        }
        for (at, raw, why) in [
            (key(1, 0, 4), map(2, 6), "three pages' providers for four"),
            (key(1, 0, 4), map(1, 8), "eight pages' providers for four"),
            (key(1, 0, 4), map(0, 0), "a stride of 0"),
            (key(1, 0, 4), map(0, 4), "a stride of 0"),
            (key(1, 3, 1), map(1, 1), "a map at a one-page key"),
        ] {
            for got in fetch_raw(at, raw.clone()) {
                assert!(
                    matches!(got, Err(BlobSeerError::Metadata(_))),
                    "{why}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn an_implied_node_needs_a_full_anchor_and_an_implied_leaf_a_map() {
        let store = MetadataStore::new(2, 1, 64);
        let anchor = key(1, 0, 4);
        let under = |at| Slot { at, stored: anchor };
        let mapped = TreeNode::Full {
            map: PageMap::of_pages([[ProviderId(1)].as_slice(); 4]),
        };
        let unmapped = TreeNode::Full { map: None };
        let inner = TreeNode::Inner {
            left: None,
            right: None,
        };
        for (node, half, leaf) in [
            (mapped, true, true),
            (unmapped, true, false),
            (inner, false, false),
        ] {
            store.put_node(anchor, &node).unwrap();
            for (at, ok) in [(key(1, 2, 2), half), (key(1, 3, 1), leaf)] {
                let got = store.get_slots(&[under(at)]);
                assert_eq!(got.is_ok(), ok, "{node:?} at {at:?}: {got:?}");
            }
            // Read as itself, every kind answers.
            assert!(store.get_slots(&[Slot::exact(anchor)]).is_ok());
        }
    }

    #[test]
    fn remove_node() {
        // The put pre-warms the cache, so this only passes if the removal
        // reaches the cache as well as the DHT.
        let store = MetadataStore::new(2, 1, 64);
        let n = TreeNode::Inner {
            left: None,
            right: None,
        };
        store.put_node(key(1, 0, 2), &n).unwrap();
        assert_eq!(store.cache_stats().entries, 1);
        assert!(store.remove_node(key(1, 0, 2)).unwrap());
        assert!(store.get_node(key(1, 0, 2)).is_err());
        assert_eq!(store.cache_stats().entries, 0);
        assert!(!store.remove_node(key(1, 0, 2)).unwrap());
    }

    #[test]
    fn get_nodes_matches_per_node_gets_with_fewer_round_trips() {
        let store = MetadataStore::new(4, 2, 64);
        let nodes: Vec<(NodeKey, TreeNode)> = (0..32)
            .map(|i| {
                (
                    key(1, i, 1),
                    TreeNode::Leaf {
                        page: i,
                        providers: vec![ProviderId(i as u32)],
                    },
                )
            })
            .collect();
        store.put_nodes(&nodes).unwrap();
        // Forget the publication's pre-warm so the batch goes to the DHT.
        store.drop_cached_nodes();
        let keys: Vec<NodeKey> = nodes.iter().map(|(k, _)| *k).collect();

        let before = store.stats();
        let got = store.get_nodes(&keys).unwrap();
        let after = store.stats();
        for ((_, expected), node) in nodes.iter().zip(&got) {
            assert_eq!(node, expected);
        }
        // One batch resolves 32 nodes by contacting each of the 4 metadata
        // providers at most once; per-node gets would pay 32 round trips.
        assert_eq!(after.nodes_read - before.nodes_read, 32);
        assert_eq!(after.batch_lookups - before.batch_lookups, 1);
        let read_rts = after.dht_read_round_trips - before.dht_read_round_trips;
        assert!((1..=4).contains(&read_rts), "{read_rts} round trips");
        // Empty batches are free.
        assert!(store.get_nodes(&[]).unwrap().is_empty());
        assert_eq!(store.stats().batch_lookups, after.batch_lookups);
    }

    #[test]
    fn get_nodes_fails_on_a_dangling_key() {
        let store = MetadataStore::new(3, 1, 64);
        store
            .put_node(
                key(1, 0, 1),
                &TreeNode::Leaf {
                    page: 0,
                    providers: vec![],
                },
            )
            .unwrap();
        assert!(store.get_nodes(&[key(1, 0, 1), key(9, 9, 1)]).is_err());
    }

    #[test]
    fn node_cache_prewarms_from_batch_publication() {
        let store = MetadataStore::new(3, 2, 256);
        let nodes: Vec<(NodeKey, TreeNode)> = (0..16)
            .map(|i| {
                (
                    key(1, i, 1),
                    TreeNode::Leaf {
                        page: i,
                        providers: vec![ProviderId(7)],
                    },
                )
            })
            .collect();
        store.put_nodes(&nodes).unwrap();
        let read_rts_after_publish = store.stats().dht_read_round_trips;

        // Reading the freshly published nodes back costs zero DHT reads.
        let keys: Vec<NodeKey> = nodes.iter().map(|(k, _)| *k).collect();
        let got = store.get_nodes(&keys).unwrap();
        assert_eq!(got.len(), 16);
        for k in &keys {
            store.get_node(*k).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.dht_read_round_trips, read_rts_after_publish);
        assert_eq!(stats.cache_hits, 32);
        assert_eq!(stats.cache_misses, 0);
    }

    #[test]
    fn node_cache_fills_on_demand_and_serves_across_dht_failures() {
        // Two stores over the same DHT: the publication pre-warms only the
        // writer's cache, the reader fills its own on first access.
        let writer = MetadataStore::new(4, 1, 64);
        let reader = MetadataStore::with_dht(Arc::clone(writer.dht()), 64);
        let leaf = TreeNode::Leaf {
            page: 3,
            providers: vec![ProviderId(1)],
        };
        writer.put_node(key(1, 3, 1), &leaf).unwrap();
        assert_eq!(reader.get_node(key(1, 3, 1)).unwrap(), leaf);
        assert_eq!(reader.stats().cache_misses, 1);
        // With replication 1 a dead replica would make the node unreadable —
        // unless the cache already holds it (immutable, so still correct).
        for id in writer.dht().node_ids() {
            writer.dht().kill(id).unwrap();
        }
        assert_eq!(reader.get_node(key(1, 3, 1)).unwrap(), leaf);
        assert_eq!(reader.stats().cache_hits, 1);
        // A third client that never saw the node has nothing to fall back on.
        let cold = MetadataStore::with_dht(Arc::clone(writer.dht()), 64);
        assert!(cold.get_node(key(1, 3, 1)).is_err());
    }

    #[test]
    fn metadata_survives_one_dht_node_failure() {
        let store = MetadataStore::new(4, 2, 64);
        let leaf = TreeNode::Leaf {
            page: 0,
            providers: vec![ProviderId(0)],
        };
        store.put_node(key(1, 0, 1), &leaf).unwrap();
        // Kill one of the replicas of that key.
        let replicas = store.dht().replicas_for(key(1, 0, 1).dht_key().as_bytes());
        store.dht().kill(replicas[0]).unwrap();
        store.drop_cached_nodes();
        assert_eq!(store.get_node(key(1, 0, 1)).unwrap(), leaf);
    }
}
