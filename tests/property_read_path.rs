//! Read-path correctness: the frontier-batched BFS `lookup_range` must be
//! byte-identical to the retained node-at-a-time reference walk on arbitrary
//! trees, the immutable-node metadata cache must never change what a reader
//! sees (only how fast it sees it), and per-page replica failover must
//! survive the per-provider batched page fetch.

use blobseer::metadata::segment_tree::{build_version, lookup_range, lookup_range_walk, PrevTree};
use blobseer::metadata::store::MetadataStore;
use blobseer::metadata::{Slot, TreeNode};
use blobseer::types::next_power_of_two;
use blobseer::{BlobId, BlobSeer, BlobSeerConfig, BlobSeerError, ProviderId, Version};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Build the tree version sequence described by `writes` (one inner vec of
/// `(page, provider)` pairs per version) and return each version's root and
/// span. Page indices are taken modulo a growing span so trees both overwrite
/// and grow; duplicate pages within one write collapse (last provider wins).
fn build_tree_sequence(
    store: &MetadataStore,
    blob: BlobId,
    writes: &[Vec<(u64, u32)>],
) -> Vec<(blobseer::metadata::NodeKey, u64)> {
    let mut prev = PrevTree::empty();
    let mut roots = Vec::new();
    for (v, write) in writes.iter().enumerate() {
        let version = Version(v as u64 + 1);
        // Grow the span with the version index so early versions are small
        // trees and later ones force wrapper extension of the previous root.
        let span = next_power_of_two(prev.span.max(v as u64 + 1));
        let mut pages: BTreeMap<u64, Vec<ProviderId>> = BTreeMap::new();
        for &(page, provider) in write {
            pages.insert(page % span, vec![ProviderId(provider)]);
        }
        if pages.is_empty() {
            pages.insert(0, vec![ProviderId(0)]);
        }
        let root = build_version(store, blob, version, prev, span, &pages).unwrap();
        roots.push((root, span));
        prev = PrevTree {
            root: Some(root),
            span,
        };
    }
    roots
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched BFS descent and the node-at-a-time walk return identical
    /// `PageMeta` vectors for every version of a random tree and every query
    /// range, holes and beyond-span pages included — on a cold cache (every
    /// node from the DHT) and on the writer's warm one.
    #[test]
    fn batched_lookup_is_byte_identical_to_the_reference_walk(
        writes in prop::collection::vec(
            prop::collection::vec((0u64..16, 0u32..8), 1..6),
            1..8,
        ),
        queries in prop::collection::vec((0u64..20, 0u64..20), 1..8),
    ) {
        // The publications pre-warm the writer's cache (sized so that no
        // shard evicts); a second client of the same DHT starts every
        // descent cold.
        let warm = MetadataStore::new(3, 2, 4096);
        let roots = build_tree_sequence(&warm, BlobId(1), &writes);
        let cold = MetadataStore::with_dht(warm.dht().clone(), 256);
        let warm_misses = warm.stats().cache_misses;

        for &(root, span) in &roots {
            for &(a, b) in &queries {
                let (first, last) = (a.min(b), a.max(b));
                cold.drop_cached_nodes();
                let walk = lookup_range_walk(&cold, Some(root), span, first, last).unwrap();
                cold.drop_cached_nodes();
                let bfs_cold = lookup_range(&cold, Some(root), span, first, last).unwrap();
                let bfs_warm = lookup_range(&warm, Some(root), span, first, last).unwrap();
                prop_assert_eq!(&walk, &bfs_cold);
                prop_assert_eq!(&walk, &bfs_warm);
                prop_assert_eq!(walk.len() as u64, last - first + 1);
            }
        }
        // The warm lookups hit the cache, never the DHT (whose round-trip
        // counter the two stores share, so count the warm store's misses).
        prop_assert_eq!(warm.stats().cache_misses, warm_misses);
    }

    /// Random contiguous writes over several versions — page-aligned powers
    /// of two, unaligned runs and sparse page sets, growing the tree and
    /// overwriting it, each page on 1 to 3 providers and sometimes one page
    /// a replica short — make a node `Full` exactly when every page under it
    /// resolves to a leaf of its own version, store only the top of such a
    /// subtree, give it a page map exactly when its pages have one replica
    /// count, and the batched descent, which answers pages from a map, also
    /// under an anchor, and jumps from a payload-less full node to its
    /// leaves, agrees with the node-at-a-time walk for every version and
    /// range, on a cold and a warm cache, counting each node it reads as one
    /// cache hit or miss.
    #[test]
    fn full_nodes_are_exactly_the_own_version_subtrees_and_the_jump_matches_the_walk(
        writes in prop::collection::vec(
            (0u8..3, 0u64..48, 1u64..24, any::<u64>(), 0usize..6),
            1..7,
        ),
        queries in prop::collection::vec((0u64..72, 0u64..72), 1..6),
    ) {
        let warm = MetadataStore::new(3, 2, 4096);
        let cold = MetadataStore::with_dht(warm.dht().clone(), 256);
        let blob = BlobId(2);
        let mut prev = PrevTree::empty();
        let mut roots = Vec::new();
        for (v, &(kind, start, len, mask, replicas)) in writes.iter().enumerate() {
            let pages: Vec<u64> = match kind {
                // A power-of-two run at a multiple of its length.
                0 => {
                    let size = 1u64 << (len % 5);
                    let at = start / size * size;
                    (at..at + size).collect()
                }
                1 => (start..start + len).collect(),
                // A sparse set inside the run; its first page always stays.
                _ => (start..start + len)
                    .filter(|p| *p == start || mask >> ((p - start) % 64) & 1 == 1)
                    .collect(),
            };
            // 1 to 3 replicas a page; from 3 on, one page is a replica short,
            // as a fail-over can leave it.
            let count = 1 + replicas % 3;
            let short = (replicas >= 3).then(|| pages[mask as usize % pages.len()]);
            let written: BTreeMap<u64, Vec<ProviderId>> = pages
                .iter()
                .map(|&p| {
                    let n = if Some(p) == short { count.max(2) - 1 } else { count };
                    (p, (0..n as u64).map(|i| ProviderId(((p + i) % 5) as u32)).collect())
                })
                .collect();
            let span = next_power_of_two(prev.span.max(pages[pages.len() - 1] + 1));
            let root = build_version(&warm, blob, Version(v as u64 + 1), prev, span, &written)
                .unwrap();
            roots.push((root, span));
            prev = PrevTree { root: Some(root), span };
        }

        for &(root, span) in &roots {
            full_nodes_are_own_version_subtrees(&cold, Some(Slot::exact(root)), span, root.version, false)?;
            for &(a, b) in &queries {
                let (first, last) = (a.min(b), a.max(b));
                cold.drop_cached_nodes();
                let walk = lookup_range_walk(&cold, Some(root), span, first, last).unwrap();
                cold.drop_cached_nodes();
                for store in [&cold, &warm] {
                    // Every node a lookup reads is one cache hit or miss.
                    let before = store.stats();
                    let bfs = lookup_range(store, Some(root), span, first, last).unwrap();
                    let after = store.stats();
                    prop_assert_eq!(&walk, &bfs);
                    prop_assert_eq!(
                        (after.cache_hits - before.cache_hits)
                            + (after.cache_misses - before.cache_misses),
                        after.nodes_read - before.nodes_read
                    );
                }
            }
        }
    }
}

/// Check, under the node at `slot` covering `span` pages in the tree of
/// `version`, whose parent there is full when `parent_full` says so, that a
/// node is `Full` exactly when every page under it resolves to a leaf of its
/// own version, that only the top of a full subtree is stored (with its
/// leaves when it has no map), and that a top `version` built carries a page
/// map exactly when its pages have one replica count. Return the version and
/// replica count each page under it resolves to (`None` for a hole).
fn full_nodes_are_own_version_subtrees(
    store: &MetadataStore,
    slot: Option<Slot>,
    span: u64,
    version: Version,
    parent_full: bool,
) -> Result<Vec<Option<(Version, usize)>>, TestCaseError> {
    let Some(slot) = slot else {
        return Ok(vec![None; span as usize]);
    };
    let key = slot.at;
    prop_assert_eq!(key.span, span);
    if slot.implied() {
        prop_assert!(store.get_node(key).is_err(), "implied {:?} is stored", key);
    } else {
        prop_assert!(
            !parent_full || span == 1,
            "{:?} is stored below a full node",
            key
        );
    }
    let node = store.get_slots(&[slot]).unwrap().remove(0);
    match &node {
        TreeNode::Leaf { providers, .. } => return Ok(vec![Some((key.version, providers.len()))]),
        TreeNode::Full { map: Some(map) } if span == 1 => {
            let replicas = map.page((key.offset - slot.stored.offset) as usize).len();
            return Ok(vec![Some((key.version, replicas))]);
        }
        _ => {}
    }
    let full = matches!(node, TreeNode::Full { .. });
    let mut pages = Vec::with_capacity(span as usize);
    for child in node.children(slot) {
        pages.extend(full_nodes_are_own_version_subtrees(
            store,
            child,
            span / 2,
            version,
            full,
        )?);
    }
    let own = pages
        .iter()
        .all(|p| p.is_some_and(|(v, _)| v == key.version));
    prop_assert!(full == own, "{:?} full: {}", key, own);
    // A shared node was checked in the tree of the version that built it.
    if key.version == version && !slot.implied() {
        let one_count = pages.windows(2).all(|w| w[0] == w[1]);
        let mapped = matches!(node, TreeNode::Full { map: Some(_) });
        prop_assert!(
            mapped == (own && one_count),
            "{:?} mapped: {}, one replica count: {}",
            key,
            mapped,
            one_count
        );
    }
    Ok(pages)
}

/// Reading an old version after many later overwrites returns the old bytes
/// (immutable snapshots) and is served from the metadata cache.
#[test]
fn old_versions_read_identically_through_the_cache() {
    let sys = BlobSeer::new(
        BlobSeerConfig::for_tests()
            .with_providers(6)
            .with_page_size(32),
    );
    let client = sys.client();
    let blob = client.create(Some(32)).unwrap();
    let original: Vec<u8> = (0..32 * 8).map(|i| (i % 247) as u8).collect();
    let v1 = client.write(blob, 0, &original).unwrap();

    // Ten generations of partial overwrites on top.
    for g in 0..10u64 {
        let patch = vec![0xF0 | g as u8; 64];
        client.write(blob, (g % 4) * 64, &patch).unwrap();
    }

    let before = sys.metadata().stats();
    let got = client.read(blob, v1, 0, original.len() as u64).unwrap();
    assert_eq!(got, original, "v1 must read exactly as written");
    let after = sys.metadata().stats();
    assert!(
        after.cache_hits > before.cache_hits,
        "the v1 tree descent should be answered from the cache"
    );
    assert_eq!(
        after.dht_read_round_trips, before.dht_read_round_trips,
        "a fully cached descent performs no DHT reads"
    );

    // The same read on a cold cache pays the DHT for its descent and agrees
    // byte for byte, so the cache changes cost, not content.
    sys.metadata().drop_cached_nodes();
    assert_eq!(
        client.read(blob, v1, 0, original.len() as u64).unwrap(),
        got
    );
    let cold = sys.metadata().stats();
    assert!(cold.dht_read_round_trips > after.dht_read_round_trips);
    assert_eq!(
        cold.cache_misses - after.cache_misses,
        cold.nodes_read - after.nodes_read,
        "every node of the cold descent came from the DHT"
    );
}

/// A scan that repeats over a tree 1.25x the metadata cache keeps most of
/// the tree from one lap to the next (eviction order is not scan order), and
/// what the cache keeps reads exactly what a cold descent reads. The tree is
/// written one page per version, so no inner node is full and every descent
/// visits every level.
#[test]
fn a_repeated_scan_larger_than_the_cache_keeps_most_of_its_tree() {
    let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_metadata_cache_capacity(256));
    let client = sys.client();
    let blob = client.create(None).unwrap();
    let page = sys.config().default_page_size;
    // 160 pages: 321 tree nodes under a 256-page span.
    let data: Vec<u8> = (0..160 * page).map(|i| (i * 7 % 253) as u8).collect();
    let mut v = Version(0);
    for offset in (0..data.len()).step_by(page as usize) {
        v = client
            .write(blob, offset as u64, &data[offset..offset + page as usize])
            .unwrap();
    }
    let block = 4 * page;
    let lap = || -> u64 {
        let before = sys.metadata().stats().cache_misses;
        for offset in (0..data.len() as u64).step_by(block as usize) {
            let got = client.read(blob, v, offset, block).unwrap();
            assert_eq!(got, data[offset as usize..(offset + block) as usize]);
        }
        sys.metadata().stats().cache_misses - before
    };
    // The first lap starts cold: the write's pre-warm did not fit anyway.
    sys.metadata().drop_cached_nodes();
    let first = lap();
    let second = lap();
    assert!(first >= 321, "a cold lap misses every node once: {first}");
    assert!(
        second * 10 <= first * 6,
        "the second lap missed {second} nodes, the first {first}"
    );
    // Every block the warm cache served reads the same from a cold one.
    for offset in (0..data.len() as u64).step_by(block as usize) {
        let warm = client.read(blob, v, offset, block).unwrap();
        sys.metadata().drop_cached_nodes();
        assert_eq!(warm, client.read(blob, v, offset, block).unwrap());
    }
}

/// The same scan over the same 160 pages written at once, then with pages 0
/// and 128 rewritten one at a time: the last version links the first's two
/// mapped full subtrees, (0, 128) and (128, 32), as the anchors of every
/// half beside the rewritten pages, and the descent answers their pages
/// from the maps, so a lap reads 19 distinct nodes (the root, the 14 inner
/// nodes above the rewritten pages, their two leaves and the two anchors),
/// far fewer than the cache's 256 slots.
#[test]
fn a_repeated_scan_of_one_write_misses_each_node_once_then_almost_never() {
    let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_metadata_cache_capacity(256));
    let client = sys.client();
    let blob = client.create(None).unwrap();
    let page = sys.config().default_page_size;
    let data: Vec<u8> = (0..160 * page).map(|i| (i * 7 % 253) as u8).collect();
    client.write(blob, 0, &data).unwrap();
    for at in [0, 128 * page] {
        let at = at as usize;
        client
            .write(blob, at as u64, &data[at..at + page as usize])
            .unwrap();
    }
    let v = client.latest_version(blob).unwrap().version;
    let block = 4 * page;
    let lap = || -> (u64, u64) {
        let before = sys.metadata().stats();
        for offset in (0..data.len() as u64).step_by(block as usize) {
            let got = client.read(blob, v, offset, block).unwrap();
            assert_eq!(got, data[offset as usize..(offset + block) as usize]);
        }
        let after = sys.metadata().stats();
        (
            after.cache_misses - before.cache_misses,
            after.nodes_read - before.nodes_read,
        )
    };
    sys.metadata().drop_cached_nodes();
    // A block reads the inner nodes down to where its pages leave a
    // rewritten page's path (1 to 6), then the anchor there; the two blocks
    // at the rewritten pages read seven inner nodes, then the two-page one
    // over the rewritten page and an anchor, then its leaf and an anchor.
    // The 32 blocks left of page 128 read 130 nodes, the 8 right of it 50.
    let first = lap();
    assert_eq!(first, (19, 130 + 50));
    // Every node stayed in the cache: the second lap misses none.
    let second = lap();
    assert_eq!(second, (0, first.1));
}

/// The same scan over the same 160 pages written at once: each block is
/// answered by the page map of the full (0, 128) or (128, 32) subtree's
/// root, so a lap reads five distinct nodes (those two and the three inner
/// nodes above them) and the second lap none from the DHT.
#[test]
fn a_repeated_scan_of_one_write_reads_its_mapped_roots_only() {
    let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_metadata_cache_capacity(256));
    let client = sys.client();
    let blob = client.create(None).unwrap();
    let page = sys.config().default_page_size;
    let data: Vec<u8> = (0..160 * page).map(|i| (i * 7 % 253) as u8).collect();
    let v = client.write(blob, 0, &data).unwrap();
    let block = 4 * page;
    let lap = || -> (u64, u64) {
        let before = sys.metadata().stats();
        for offset in (0..data.len() as u64).step_by(block as usize) {
            let got = client.read(blob, v, offset, block).unwrap();
            assert_eq!(got, data[offset as usize..(offset + block) as usize]);
        }
        let after = sys.metadata().stats();
        (
            after.cache_misses - before.cache_misses,
            after.nodes_read - before.nodes_read,
        )
    };
    sys.metadata().drop_cached_nodes();
    // 32 blocks under (0, 128) read the root and that node; 8 blocks under
    // (128, 32) read the root, (128, 128), (128, 64) and (128, 32).
    let first = lap();
    assert_eq!(first, (5, 32 * 2 + 8 * 4));
    let second = lap();
    assert_eq!(second, (0, first.1));
}

/// Killing the primary replica of every page must not break a multi-page
/// read batched per first replica: failover happens per page, after the
/// refused batches come back.
#[test]
fn parallel_page_fetch_fails_over_dead_replicas() {
    let sys = BlobSeer::new(
        BlobSeerConfig::for_tests()
            .with_providers(8)
            .with_page_replication(2)
            .with_page_size(64),
    );
    let client = sys.client();
    let blob = client.create(Some(64)).unwrap();
    let data: Vec<u8> = (0..64 * 16).map(|i| (i * 13 % 251) as u8).collect();
    let v = client.write(blob, 0, &data).unwrap();

    // Kill the preferred replica of every page.
    for loc in client.locate(blob, v, 0, data.len() as u64).unwrap() {
        sys.kill(loc.providers[0]).unwrap();
    }
    assert_eq!(
        client.read(blob, v, 0, data.len() as u64).unwrap(),
        data,
        "parallel fetch must fail over to surviving replicas"
    );

    // Kill everything: the read surfaces a clean per-page error.
    for p in sys.provider_manager().providers() {
        sys.kill(p.id()).unwrap();
    }
    assert!(matches!(
        client.read(blob, v, 0, data.len() as u64),
        Err(BlobSeerError::PageUnavailable { .. })
    ));
}
