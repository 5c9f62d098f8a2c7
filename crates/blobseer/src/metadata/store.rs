//! Typed wrapper around the metadata DHT: a version's tree nodes are one
//! record.
//!
//! Every node a write creates is stored in one DHT entry, its version's
//! *record*, keyed by `(blob, version)` ([`NodeKey::record_key`]). A record
//! lists its nodes in `(offset, span)` order, each as its two coordinates
//! and the length of its [`TreeNode::encode`] bytes (LEB128 varints), then
//! those bytes. A one-page append into a 1 024-page blob copies a path of
//! about ten nodes and publishes them as one entry per replica.
//!
//! The tree above does not see records: nodes are still named, read and
//! cached one [`NodeKey`] at a time. A read fetches each distinct record its
//! cache misses fall in once, and caches the nodes of it that lie under a
//! node it asked for, the subtree a descent reads next; a node that does
//! not fit its coordinates makes its whole record corrupt. Removal is
//! node-exact: a sweep rewrites each record it touches without the nodes it
//! removes, so a live node never goes with a dead one's record, and removes
//! a record once it holds none.

use crate::error::{BlobResult, BlobSeerError};
use crate::metadata::cache::{MetadataCache, MetadataCacheStats};
use crate::metadata::{NodeKey, Slot, TreeNode, RECORD_KEY_TAG};
use crate::types::{put_varint, take_varint, BlobId, InlineKey, Version};
use bytes::Bytes;
use dht::{Dht, DhtError};
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

/// The metadata store: segment-tree nodes in version records on a DHT of
/// metadata providers, fronted by a client-side cache of the (immutable)
/// nodes. Nodes never change once published, so the cache needs no
/// invalidation; the write path pre-warms it when it publishes a version.
pub struct MetadataStore {
    dht: Arc<Dht>,
    cache: MetadataCache,
    nodes_written: AtomicU64,
    nodes_read: AtomicU64,
    batch_flushes: AtomicU64,
    batch_lookups: AtomicU64,
}

impl MetadataStore {
    /// Wrap a DHT behind a fresh (cold) node cache of up to
    /// `cache_capacity` tree nodes. A deployment builds its DHT over its
    /// machines; a second store over the same DHT is a second client of
    /// the same metadata providers.
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

    /// Publish tree nodes as one record per version among them, in one
    /// [`Dht::put_many`], so each metadata provider is contacted once per
    /// batch. A record holds exactly the nodes of its version given here,
    /// each once: a version is published once, in one call, as the write
    /// path publishes a whole version's segment-tree delta. A second call
    /// for a version replaces its record, dropping the first call's nodes.
    pub fn put_nodes(&self, nodes: &[(NodeKey, TreeNode)]) -> BlobResult<()> {
        if nodes.is_empty() {
            return Ok(());
        }
        self.nodes_written
            .fetch_add(nodes.len() as u64, Ordering::Relaxed);
        self.batch_flushes.fetch_add(1, Ordering::Relaxed);
        let mut sorted: Vec<&(NodeKey, TreeNode)> = nodes.iter().collect();
        sorted.sort_unstable_by_key(|(key, _)| *key);
        debug_assert!(
            sorted.windows(2).all(|w| w[0].0 != w[1].0),
            "a version lists each of its nodes once"
        );
        let mut scratch = Vec::new();
        let records: Vec<(InlineKey, Bytes)> = sorted
            .chunk_by(|(a, _), (b, _)| same_record(a, b))
            .map(|version| {
                let mut record = Vec::new();
                for (key, node) in version {
                    scratch.clear();
                    node.encode_into(&mut scratch);
                    push_entry(&mut record, key, &scratch);
                }
                (version[0].0.record_key(), Bytes::from(record))
            })
            .collect();
        self.dht.put_many(&records)?;
        // Pre-warm the cache with the freshly published tree: the writer (and
        // every reader behind the same client) reads its own version back for
        // free, which covers the common produce-then-consume pattern.
        for (key, node) in sorted {
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
        let mut out = [None];
        self.fetch(&[key], &mut out)?;
        let [node] = out;
        node.ok_or_else(|| missing(&key))
    }

    /// Resolve a batch of tree nodes in one DHT pass: cache hits are peeled
    /// off first, then each distinct record the misses are stored in is
    /// fetched once through [`Dht::get_many`], which contacts each
    /// responsible metadata provider once per batch. The frontier-batched
    /// tree descent ([`crate::metadata::segment_tree::lookup_range`])
    /// resolves one whole tree level, or the leaves under full nodes,
    /// through a single call.
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
        self.fetch(keys, &mut out)?;
        keys.iter()
            .zip(out)
            .map(|(key, node)| node.ok_or_else(|| missing(key)))
            .collect()
    }

    /// Fill the empty slots of `out` from the DHT: the records their keys
    /// are stored in, each fetched once, in one [`Dht::get_many`]. A fetched
    /// node enters the cache when it lies under a key asked for from its
    /// record: the version's nodes there are that key's subtree, which a
    /// descent reads next, while the ones above it are the version's path
    /// to its root, which later versions may have replaced. The leaves a
    /// full node without a map keeps below it are the exception: there is
    /// one per page, and a descent asks for the few it reads, so only those
    /// enter. Both lists are in key order, so each asked key finds the first
    /// node at or after its offset by binary search and looks no further
    /// than its own span.
    ///
    /// A record with a node that does not decode, or does not fit its
    /// coordinates ([`TreeNode::fits`]), is corrupt as a whole: a full node
    /// at a single page would loop a descent, and a leaf of another page, or
    /// an inner node at a page or with misplaced children, would drop or
    /// move pages. It fails the call, named by a key asked for in it. A key
    /// whose record no live replica holds, or lacks it, stays empty.
    fn fetch(&self, keys: &[NodeKey], out: &mut [Option<TreeNode>]) -> BlobResult<()> {
        // The misses in key order, so that a record's are adjacent.
        let mut missed: Vec<NodeKey> = (keys.iter().zip(out.iter()))
            .filter(|(_, node)| node.is_none())
            .map(|(key, _)| *key)
            .collect();
        if missed.is_empty() {
            return Ok(());
        }
        missed.sort_unstable();
        missed.dedup();
        let versions: Vec<&[NodeKey]> = missed.chunk_by(same_record).collect();
        let record_keys: Vec<InlineKey> = versions.iter().map(|v| v[0].record_key()).collect();
        let fetched = self.dht.get_many(&record_keys)?;
        // The nodes asked for, in key order.
        let mut found: Vec<(NodeKey, TreeNode)> = Vec::new();
        for (asked, raw) in versions.iter().zip(fetched) {
            let Some(raw) = raw else {
                continue;
            };
            let nodes = decode_record(asked[0], &raw).ok_or_else(|| corrupt(&asked[0]))?;
            let mapless: Vec<&NodeKey> = (nodes.iter())
                .filter(|(_, node)| matches!(node, TreeNode::Full { map: None }))
                .map(|(key, _)| key)
                .collect();
            let kept_below = |key: &NodeKey| {
                key.span == 1
                    && (mapless.iter())
                        .any(|f| f.offset <= key.offset && key.offset < f.offset + f.span)
            };
            let mut under = vec![false; nodes.len()];
            for a in *asked {
                let end = a.offset + a.span;
                let from = nodes.partition_point(|(key, _)| key.offset < a.offset);
                let span = nodes[from..].iter().take_while(|(key, _)| key.offset < end);
                for (at, (key, _)) in span.enumerate() {
                    under[from + at] |=
                        key == a || (key.offset + key.span <= end && !kept_below(key));
                }
            }
            for ((key, node), under) in nodes.into_iter().zip(under) {
                if asked.binary_search(&key).is_ok() {
                    found.push((key, node.clone()));
                }
                if under {
                    self.cache.insert(key, node);
                }
            }
        }
        for (key, slot) in keys.iter().zip(out.iter_mut()) {
            if slot.is_none() {
                let at = found.binary_search_by_key(key, |(k, _)| *k);
                *slot = at.ok().map(|at| found[at].1.clone());
            }
        }
        Ok(())
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

    /// Remove tree nodes one by one (a sweep's: the nodes only retired
    /// versions reached, a deleted blob's, a failed write's), from the cache
    /// as well as the DHT: a swept node must stop resolving here and give
    /// its cache slot back.
    /// Each record holding some of them is read, all in one
    /// [`Dht::get_many`], then written back without them, all in one
    /// [`Dht::put_many`], or, once it holds none, removed, in one
    /// [`Dht::remove_many`]. Returns how many of the nodes a record held.
    pub fn remove_nodes(&self, keys: &[NodeKey]) -> BlobResult<usize> {
        for key in keys {
            self.cache.remove(key);
        }
        let mut keys = keys.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let versions: Vec<&[NodeKey]> = keys.chunk_by(same_record).collect();
        let record_keys: Vec<InlineKey> = versions.iter().map(|v| v[0].record_key()).collect();
        let fetched = self.dht.get_many(&record_keys)?;
        let (mut rewrites, mut emptied, mut removed) = (Vec::new(), Vec::new(), 0);
        for ((version, record_key), raw) in versions.iter().zip(record_keys).zip(fetched) {
            let Some(entries) = raw.as_deref().and_then(|raw| entries(version[0], raw)) else {
                continue;
            };
            let kept: Vec<&(NodeKey, &[u8])> = (entries.iter())
                .filter(|(at, _)| version.binary_search(at).is_err())
                .collect();
            removed += entries.len() - kept.len();
            if kept.is_empty() {
                emptied.push(record_key);
            } else if kept.len() < entries.len() {
                let mut record = Vec::new();
                for (at, node) in kept {
                    push_entry(&mut record, at, node);
                }
                rewrites.push((record_key, Bytes::from(record)));
            }
        }
        self.dht.put_many(&rewrites)?;
        self.dht.remove_many(&emptied)?;
        Ok(removed)
    }

    /// Every node the DHT's records hold, read from one live copy of each
    /// record, in key order. Administrative, like [`Dht::key_copies`]:
    /// invariant checks compare it with the nodes surviving versions reach.
    /// A record that does not decode fails the listing.
    pub fn stored_nodes(&self) -> BlobResult<Vec<NodeKey>> {
        let record_keys: Vec<Vec<u8>> = self.dht.key_copies().into_keys().collect();
        let fetched = self.dht.get_many(&record_keys)?;
        let mut nodes = Vec::new();
        for (record_key, raw) in record_keys.iter().zip(fetched) {
            let Some(raw) = raw else {
                continue;
            };
            let listed = version_key(record_key)
                .and_then(|of| entries(of, &raw))
                .ok_or_else(|| {
                    BlobSeerError::Metadata(DhtError::NotFound {
                        key: format!("undecodable record {}", record_key.escape_ascii()),
                    })
                })?;
            nodes.extend(listed.into_iter().map(|(at, _)| at));
        }
        nodes.sort_unstable();
        Ok(nodes)
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

fn missing(key: &NodeKey) -> BlobSeerError {
    BlobSeerError::Metadata(DhtError::NotFound {
        key: format!("{key:?}"),
    })
}

fn corrupt(key: &NodeKey) -> BlobSeerError {
    BlobSeerError::Metadata(DhtError::NotFound {
        key: format!("undecodable or misplaced metadata node in the record of {key:?}"),
    })
}

/// Whether two nodes are stored in one record: the same blob and version.
fn same_record(a: &NodeKey, b: &NodeKey) -> bool {
    (a.blob, a.version) == (b.blob, b.version)
}

/// The version a record's DHT key names, as a key of that version with no
/// coordinates; `None` for a key that is no record's.
fn version_key(record_key: &[u8]) -> Option<NodeKey> {
    let (&tag, mut rest) = record_key.split_first()?;
    let blob = BlobId(take_varint(&mut rest)?);
    let version = Version(take_varint(&mut rest)?);
    (tag == RECORD_KEY_TAG && rest.is_empty()).then_some(NodeKey {
        blob,
        version,
        offset: 0,
        span: 0,
    })
}

/// Append one record entry: the node's offset, span and encoded length as
/// varints, then its encoding.
fn push_entry(record: &mut Vec<u8>, at: &NodeKey, node: &[u8]) {
    for field in [at.offset, at.span, node.len() as u64] {
        put_varint(field, |byte| record.push(byte));
    }
    record.extend_from_slice(node);
}

/// The entries of the record of `of`'s version: each node's key and its
/// encoding, in key order. `None` when the bytes do not parse, or an entry
/// repeats or goes back.
fn entries(of: NodeKey, raw: &[u8]) -> Option<Vec<(NodeKey, &[u8])>> {
    let mut rest = raw;
    let mut out: Vec<(NodeKey, &[u8])> = Vec::new();
    while !rest.is_empty() {
        let at = NodeKey {
            offset: take_varint(&mut rest)?,
            span: take_varint(&mut rest)?,
            ..of
        };
        let len = usize::try_from(take_varint(&mut rest)?).ok()?;
        if rest.len() < len || out.last().is_some_and(|(last, _)| *last >= at) {
            return None;
        }
        let (node, tail) = rest.split_at(len);
        out.push((at, node));
        rest = tail;
    }
    Some(out)
}

/// Decode the record of `of`'s version: every node, each checked to fit its
/// key. `None` if any does not.
fn decode_record(of: NodeKey, raw: &[u8]) -> Option<Vec<(NodeKey, TreeNode)>> {
    entries(of, raw)?
        .into_iter()
        .map(|(key, bytes)| {
            let node = TreeNode::decode(bytes).filter(|node| node.fits(key))?;
            Some((key, node))
        })
        .collect()
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
pub(crate) mod tests {
    use super::*;
    use crate::metadata::PageMap;
    use crate::types::ProviderId;
    use dht::StorageNode;
    use simcluster::NodeId;

    /// A store over a standalone DHT of `nodes` fresh nodes.
    pub(crate) fn standalone(nodes: usize, replication: usize, cache: usize) -> MetadataStore {
        let (store, _) = with_handles(nodes, replication, cache);
        store
    }

    /// A store over a standalone DHT of `nodes` fresh machines, and their
    /// handles: a test kills a member through its handle (node `i` has id
    /// `i`).
    fn with_handles(
        nodes: usize,
        replication: usize,
        cache: usize,
    ) -> (MetadataStore, Vec<Arc<StorageNode>>) {
        let hosts: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let fleet = StorageNode::fleet(&hosts);
        let dht = Dht::with_nodes(fleet.clone(), replication);
        (MetadataStore::with_dht(Arc::new(dht), cache), fleet)
    }

    /// Store `raw` in the DHT as the encoding of the node at `at`, in its
    /// version's record beside the nodes already there, behind the cache:
    /// how a test plants a corrupt or misplaced node.
    pub(crate) fn put_raw(store: &MetadataStore, at: NodeKey, raw: &[u8]) {
        let record_key = at.record_key();
        let dht = store.dht();
        let old = dht.get_many(&[record_key]).unwrap().pop().flatten();
        let old = old.unwrap_or_default();
        let mut listed = entries(at, &old).unwrap();
        match listed.binary_search_by_key(&at, |(k, _)| *k) {
            Ok(i) => listed[i].1 = raw,
            Err(i) => listed.insert(i, (at, raw)),
        }
        let mut record = Vec::new();
        for (k, node) in &listed {
            push_entry(&mut record, k, node);
        }
        dht.put(record_key.as_bytes(), record.into()).unwrap();
    }

    /// Plant `node` at `at` as [`put_raw`] does, and in the cache, which
    /// serves it unchecked: how a test models a writer that published a
    /// wrong node beside good ones.
    pub(crate) fn plant(store: &MetadataStore, at: NodeKey, node: &TreeNode) {
        put_raw(store, at, &node.encode());
        store.cache.insert(at, node.clone());
    }

    fn key(v: u64, o: u64, s: u64) -> NodeKey {
        NodeKey {
            blob: BlobId(1),
            version: Version(v),
            offset: o,
            span: s,
        }
    }

    fn leaf(v: u64, page: u64) -> (NodeKey, TreeNode) {
        (
            key(v, page, 1),
            TreeNode::Leaf {
                page,
                providers: vec![ProviderId(page as u32)],
            },
        )
    }

    #[test]
    fn put_get_roundtrip_and_stats() {
        let store = standalone(3, 2, 64);
        let (at, node) = leaf(1, 5);
        store.put_nodes(&[(at, node.clone())]).unwrap();
        let got = store.get_node(at).unwrap();
        assert_eq!(got, node);
        let stats = store.stats();
        assert_eq!(stats.nodes_written, 1);
        assert_eq!(stats.nodes_read, 1);
    }

    #[test]
    fn put_nodes_batch_matches_single_puts_with_fewer_round_trips() {
        let batched = standalone(3, 2, 64);
        let single = standalone(3, 2, 64);
        // One version's 16 leaves in one call: one record on its two
        // replicas, two write round trips.
        let nodes: Vec<(NodeKey, TreeNode)> = (0..16).map(|i| leaf(1, i)).collect();
        batched.put_nodes(&nodes).unwrap();
        // The same leaves one call each, each of its own version: a record
        // each, on two replicas each.
        let alone: Vec<(NodeKey, TreeNode)> = (0..16).map(|i| leaf(i + 1, i)).collect();
        for node in &alone {
            single.put_nodes(std::slice::from_ref(node)).unwrap();
        }
        let b = batched.stats();
        let s = single.stats();
        assert_eq!(b.nodes_written, 16);
        assert_eq!(b.batch_flushes, 1);
        assert_eq!(b.dht_round_trips, 2);
        assert_eq!(batched.dht().stats().total_entries, 2);
        assert_eq!(s.dht_round_trips, 32);
        assert_eq!(single.dht().stats().total_entries, 32);
        // Both read every node back, cold.
        batched.drop_cached_nodes();
        single.drop_cached_nodes();
        for (store, nodes) in [(&batched, &nodes), (&single, &alone)] {
            for (k, n) in nodes {
                assert_eq!(&store.get_node(*k).unwrap(), n);
            }
        }
        // Empty batches are free.
        batched.put_nodes(&[]).unwrap();
        assert_eq!(batched.stats().batch_flushes, 1);
    }

    #[test]
    fn missing_node_is_an_error() {
        let store = standalone(2, 1, 64);
        let named = "NodeKey { blob: BlobId(1), version: Version(9), offset: 0, span: 1 }";
        for err in [
            store.get_node(key(9, 0, 1)).unwrap_err(),
            store.get_nodes(&[key(9, 0, 1)]).unwrap_err(),
        ] {
            assert!(err.to_string().contains(named), "{err}");
        }
        // A record that lacks the node is no better than none.
        store.put_nodes(&[leaf(9, 1)]).unwrap();
        store.drop_cached_nodes();
        assert!(store.get_node(key(9, 0, 1)).is_err());
    }

    /// Store `raw` under `at` in the DHT, behind the cache, and read it back
    /// through both fetch paths.
    fn fetch_raw(at: NodeKey, raw: Vec<u8>) -> [BlobResult<TreeNode>; 2] {
        let store = standalone(2, 1, 64);
        put_raw(&store, at, &raw);
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
    fn a_node_that_does_not_fit_makes_its_whole_record_corrupt() {
        let store = standalone(2, 1, 64);
        store.put_nodes(&[leaf(1, 0), leaf(1, 1)]).unwrap();
        // A full node at a single page, beside two good leaves.
        put_raw(&store, key(1, 2, 1), &TreeNode::Full { map: None }.encode());
        store.drop_cached_nodes();
        for got in [
            store.get_node(key(1, 0, 1)),
            store
                .get_nodes(&[key(1, 1, 1)])
                .map(|mut nodes| nodes.remove(0)),
        ] {
            assert!(matches!(got, Err(BlobSeerError::Metadata(_))), "{got:?}");
        }
        assert_eq!(store.cache_stats().entries, 0, "nothing of it is cached");
        // Bytes that do not parse as entries, or list one twice, are corrupt
        // too.
        let mut twice = Vec::new();
        for _ in 0..2 {
            push_entry(&mut twice, &key(2, 0, 1), &leaf(2, 0).1.encode());
        }
        for raw in [twice, vec![0, 1, 9]] {
            let record_key = key(2, 0, 1).record_key();
            store.dht().put(record_key.as_bytes(), raw.into()).unwrap();
            assert!(store.get_node(key(2, 0, 1)).is_err());
        }
    }

    #[test]
    fn an_implied_node_needs_a_full_anchor_and_an_implied_leaf_a_map() {
        let store = standalone(2, 1, 64);
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
            store.put_nodes(&[(anchor, node.clone())]).unwrap();
            for (at, ok) in [(key(1, 2, 2), half), (key(1, 3, 1), leaf)] {
                let got = store.get_slots(&[under(at)]);
                assert_eq!(got.is_ok(), ok, "{node:?} at {at:?}: {got:?}");
            }
            // Read as itself, every kind answers.
            assert!(store.get_slots(&[Slot::exact(anchor)]).is_ok());
        }
    }

    #[test]
    fn remove_nodes_rewrites_the_record_and_reaches_the_cache() {
        // The put pre-warms the cache, so this only passes if the removal
        // reaches the cache as well as the DHT.
        let store = standalone(2, 1, 64);
        let inner = TreeNode::Inner {
            left: None,
            right: None,
        };
        let (at, page) = leaf(1, 0);
        store
            .put_nodes(&[(key(1, 0, 2), inner), (at, page.clone())])
            .unwrap();
        assert_eq!(store.cache_stats().entries, 2);
        assert_eq!(store.remove_nodes(&[key(1, 0, 2)]).unwrap(), 1);
        assert!(store.get_node(key(1, 0, 2)).is_err());
        assert_eq!(store.cache_stats().entries, 1);
        // The record is written back without it: the leaf still resolves,
        // cold.
        store.drop_cached_nodes();
        assert_eq!(store.get_node(at).unwrap(), page);
        assert_eq!(store.dht().stats().total_entries, 1);
        assert_eq!(store.remove_nodes(&[key(1, 0, 2)]).unwrap(), 0);
        // Its last node gone, the record goes.
        assert_eq!(store.remove_nodes(&[at]).unwrap(), 1);
        assert_eq!(store.dht().stats().total_entries, 0);
        assert_eq!(store.cache_stats().entries, 0);
    }

    #[test]
    fn get_nodes_matches_per_node_gets_with_fewer_round_trips() {
        let store = standalone(4, 2, 64);
        let nodes: Vec<(NodeKey, TreeNode)> = (0..32).map(|i| leaf(1, i)).collect();
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
        // One batch resolves 32 nodes of one version with one get of its
        // record; per-node gets would pay 32 round trips.
        assert_eq!(after.nodes_read - before.nodes_read, 32);
        assert_eq!(after.batch_lookups - before.batch_lookups, 1);
        assert_eq!(after.dht_read_round_trips - before.dht_read_round_trips, 1);
        // Empty batches are free.
        assert!(store.get_nodes(&[]).unwrap().is_empty());
        assert_eq!(store.stats().batch_lookups, after.batch_lookups);
    }

    #[test]
    fn a_fetched_record_caches_what_lies_under_the_nodes_asked_for() {
        let store = standalone(2, 1, 64);
        let inner = || TreeNode::Inner {
            left: None,
            right: None,
        };
        // A version's path from the root (0, 8) down to pages 0 and 1, and
        // a full node without a map over pages 4 to 7, which keeps its
        // leaves below it.
        let (top, mapless) = (key(1, 0, 8), key(1, 4, 4));
        let mut nodes: Vec<(NodeKey, TreeNode)> = (0..2).chain(4..8).map(|i| leaf(1, i)).collect();
        nodes.extend([(top, inner()), (key(1, 0, 2), inner())]);
        nodes.push((mapless, TreeNode::Full { map: None }));
        store.put_nodes(&nodes).unwrap();
        // A leaf has nothing under it: the rest of its record stays out.
        store.drop_cached_nodes();
        store.get_node(key(1, 1, 1)).unwrap();
        assert_eq!(store.cache_stats().entries, 1);
        // The top brings its path, which a descent reads next, with no
        // further get, and the full node, but not the full node's leaves.
        store.drop_cached_nodes();
        store.get_node(top).unwrap();
        assert_eq!(store.cache_stats().entries, 5);
        let reads = store.stats().dht_read_round_trips;
        store.get_nodes(&[key(1, 0, 1), mapless]).unwrap();
        assert_eq!(store.stats().dht_read_round_trips, reads);
        // A descent asks for the leaves it reads under the full node: one
        // more get, and only they enter.
        store.get_nodes(&[key(1, 5, 1), key(1, 6, 1)]).unwrap();
        assert_eq!(store.stats().dht_read_round_trips, reads + 1);
        assert_eq!(store.cache_stats().entries, 7);
    }

    #[test]
    fn get_nodes_fails_on_a_dangling_key() {
        let store = standalone(3, 1, 64);
        store.put_nodes(&[leaf(1, 0)]).unwrap();
        assert!(store.get_nodes(&[key(1, 0, 1), key(9, 9, 1)]).is_err());
    }

    #[test]
    fn node_cache_prewarms_from_batch_publication() {
        let store = standalone(3, 2, 256);
        let nodes: Vec<(NodeKey, TreeNode)> = (0..16).map(|i| leaf(1, i)).collect();
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
        let (writer, nodes) = with_handles(4, 1, 64);
        let reader = MetadataStore::with_dht(Arc::clone(writer.dht()), 64);
        let (at, page) = leaf(1, 3);
        writer.put_nodes(&[(at, page.clone())]).unwrap();
        assert_eq!(reader.get_node(at).unwrap(), page);
        assert_eq!(reader.stats().cache_misses, 1);
        // With replication 1 a dead replica would make the node unreadable —
        // unless the cache already holds it (immutable, so still correct).
        nodes.iter().for_each(|node| node.kill());
        assert_eq!(reader.get_node(at).unwrap(), page);
        assert_eq!(reader.stats().cache_hits, 1);
        // A third client that never saw the node has nothing to fall back on.
        let cold = MetadataStore::with_dht(Arc::clone(writer.dht()), 64);
        assert!(cold.get_node(at).is_err());
    }

    #[test]
    fn metadata_survives_one_dht_node_failure() {
        let (store, nodes) = with_handles(4, 2, 64);
        let (at, page) = leaf(1, 0);
        store.put_nodes(&[(at, page.clone())]).unwrap();
        // Kill one of the replicas of its record.
        let replicas = store.dht().replicas_for(at.record_key().as_bytes());
        nodes[replicas[0].0 as usize].kill();
        store.drop_cached_nodes();
        assert_eq!(store.get_node(at).unwrap(), page);
    }
}
