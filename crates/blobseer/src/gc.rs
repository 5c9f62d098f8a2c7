//! Reclamation: one mark-and-sweep for retired snapshots and deleted blobs.
//!
//! BlobSeer never overwrites data — every write publishes a new snapshot and
//! old snapshots stay readable — so reclaiming space is the system's own
//! job. Two clients hand versions to the one sweep here:
//!
//! * **retention** — a keep-last-K policy on the version manager retires old
//!   snapshots ([`crate::VersionManager::retire_expired`], pinned snapshots
//!   exempt), which bounds a rewrite loop's footprint;
//! * **delete** — [`crate::BlobSeerClient::delete_all`] takes a deleted
//!   blob's whole chain ([`crate::VersionManager::delete_blob`]) with nothing
//!   surviving, so a MapReduce job's scratch (`_shuffle-*`, `_temporary-*`)
//!   is freed when the job deletes it. A pin guards a version against
//!   retention, not against deletion: the pins go with the blob.
//!
//! Both arrive as a [`Reclaim`] read under one hold of the blob's shard lock,
//! and both hold the deployment's sweep lock from that read to the end of the
//! sweep, so a retention pass and a delete never interleave on a blob.
//!
//! Correctness leans on three structural facts of the path-copied segment
//! tree, stated for *tree nodes*, stored or implied: a full subtree is
//! stored as its top, the *anchor*, and the nodes below it are implied by
//! the anchor's key ([`crate::metadata::Slot`]):
//!
//! * a node sits at its own coordinates: a tree holds at most one node per
//!   `(offset, span)`, and a node key carries the coordinates it sits at,
//!   whether the node is stored under it or implied under its anchor;
//! * version `v`'s tree is its predecessor's with a path copied: every node
//!   of it is either created by `v` (`key.version == v`) or in `v - 1`'s
//!   tree (an aborted version aliases its predecessor's tree outright);
//! * so the versions whose tree holds a node `X` form an interval
//!   `[X.version, e]`: `X` is created once and, once replaced, never comes
//!   back. The versions that hold some node under an anchor `A`, `A`'s own
//!   included, are a union of such intervals that all start at
//!   `A.version`, so an interval too.
//!
//! The mark phase walks each dead version `d`'s tree top down. A node `X`
//! of it is live exactly when some surviving version's tree holds it, and by
//! the interval fact two checks decide that: is there a survivor in
//! `[X.version, d)` (one comparison), and does the nearest survivor above
//! `d` hold `X` at `X`'s coordinates? The walk carries that survivor's node
//! at the same coordinates as a *shadow*, reading it along with `X`. A live
//! node is pruned with its whole subtree; everything else the walk reaches
//! is dead — whichever version created it. So a node that outlived its own
//! version because a survivor shared it is reclaimed when its last version
//! goes, and the walk stays within where the dead and surviving trees
//! differ. It reads one tree level per [`MetadataStore::get_nodes`] call,
//! across every blob of the sweep at once, and a node implied under an
//! anchor is read under the anchor.
//!
//! A dead stored node is removed, except an anchor, which answers for every
//! node implied under it: it stays while any survivor holds one of them.
//! A live implied node the walk meets keeps its anchor; otherwise, since no
//! survivor below `d` holds a node of the anchor's version (the dead node
//! would be live), the interval fact leaves one survivor to ask, the nearest
//! above, whose tree is searched along the nodes newer than the anchor. A
//! dead node with no shadow, or whose shadow is a full node (all of its
//! own, newer version), has only dead nodes below it, so such a dead full
//! node gives up its pages at once, from its map or its stored leaves. Page images are stored under the version whose write created
//! them, which is exactly the owning leaf's version, stored or implied, so a
//! dead leaf takes its page replicas with it: no surviving tree can resolve
//! that page to the same image except through the (now unreachable) leaf.
//! Nothing is removed that was never stored.
//!
//! The sweep phase pays one exchange per destination, like every other
//! exchange: the pages' holder records leave the registry in one pass, and
//! each provider gets one `DeleteMany`. The metadata goes node by node from
//! its version records ([`crate::metadata::store`]): each record the dead
//! nodes are in is read and rewritten without them, or removed once it
//! holds none (one `GetMany`, then one `PutMany` and one `RemoveMany` per
//! metadata provider), so a live node never leaves with a dead one's
//! record. A read racing a delete may fail with an error (a node or page it
//! needs is gone), but it never returns wrong bytes: keys are never reused,
//! so whatever it does resolve is the snapshot it asked for.

use crate::client::BlobSeer;
use crate::error::{BlobResult, BlobSeerError};
use crate::metadata::store::{check_slot, MetadataStore};
use crate::metadata::{NodeKey, Slot, TreeNode};
use crate::provider::page_key;
use crate::types::{BlobId, ProviderId, Version};
use crate::version_manager::Reclaim;
use dht::DhtError;
use kvstore::{FastMap, FastSet};
use serde::Serialize;
use simcluster::NodeId;
use std::collections::BTreeMap;
use wire::{Direction, MSG_OVERHEAD};

/// What one garbage-collection cycle (or one delete) reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct GcReport {
    /// Snapshots retired by the retention policy, or taken with a deleted
    /// blob.
    pub versions_retired: u64,
    /// Segment-tree nodes removed from the metadata DHT.
    pub nodes_removed: u64,
    /// Distinct page images deleted from the providers.
    pub pages_deleted: u64,
    /// Page replicas deleted (>= `pages_deleted` under replication).
    pub page_replicas_deleted: u64,
}

impl GcReport {
    /// Fold another cycle's (or another blob's) counts into this report.
    pub fn absorb(&mut self, other: &GcReport) {
        self.versions_retired += other.versions_retired;
        self.nodes_removed += other.nodes_removed;
        self.pages_deleted += other.pages_deleted;
        self.page_replicas_deleted += other.page_replicas_deleted;
    }
}

/// Reclaim the metadata nodes and page images that only the `dead` versions
/// of each [`Reclaim`] referenced, in one mark phase and one sweep, charging
/// the sweep's exchanges as sent from `src`.
///
/// Each `surviving` must be its blob's *complete* remaining chain: a
/// surviving version left out could have nodes it shares with a dead version
/// swept from under it.
pub(crate) fn collect(sys: &BlobSeer, src: NodeId, reclaims: &[Reclaim]) -> BlobResult<GcReport> {
    // One walk per dead root, shadowed by the nearest survivor above its
    // version and bounded by the nearest one below (chains are oldest
    // first). A root shared by several dead versions (aliases of an aborted
    // write) is walked once: by the interval fact, liveness does not depend
    // on which dead version reached a node.
    let mut queued: FastSet<NodeKey> = FastSet::default();
    let mut frontier: Vec<Walk> = Vec::new();
    for reclaim in reclaims {
        for dead in &reclaim.dead {
            let Some(root) = dead.root else {
                continue;
            };
            let survivors = &reclaim.surviving;
            let below = survivors.iter().rev().find(|s| s.version < dead.version);
            let above = survivors.iter().find(|s| s.version > dead.version);
            if queued.insert(root) {
                frontier.push(Walk {
                    node: Slot::exact(root),
                    shadow: above.and_then(|s| s.root).map(Slot::exact),
                    below: below.map(|s| s.version),
                });
            }
        }
    }

    let store = sys.metadata();
    let mut pages: FastMap<NodeKey, Vec<ProviderId>> = FastMap::default();
    let mut nodes = Vec::new();
    // Anchors some dead node was read under, and those a live one needs.
    let mut anchors: FastSet<NodeKey> = FastSet::default();
    let mut held: FastSet<NodeKey> = FastSet::default();
    while !frontier.is_empty() {
        let mut keys: Vec<NodeKey> = Vec::new();
        let mut listed: FastSet<NodeKey> = FastSet::default();
        for walk in &frontier {
            for slot in std::iter::once(walk.node).chain(walk.shadow) {
                if listed.insert(slot.stored) {
                    keys.push(slot.stored);
                }
            }
        }
        let read: FastMap<NodeKey, TreeNode> =
            keys.iter().copied().zip(store.get_nodes(&keys)?).collect();
        let node_at = |slot: &Slot| {
            let node = read.get(&slot.stored).ok_or_else(|| {
                BlobSeerError::Metadata(DhtError::NotFound {
                    key: format!("{:?}", slot.stored),
                })
            })?;
            check_slot(slot, node)?;
            Ok::<_, BlobSeerError>(node)
        };
        let mut next = Vec::new();
        for walk in frontier.drain(..) {
            let at = walk.node.at;
            // Live in the nearest survivor below, which holds it by the
            // interval fact (the survivor lies in [created, dead version)),
            // or in the nearest survivor above.
            if walk.below.is_some_and(|below| below >= at.version)
                || walk.shadow.is_some_and(|shadow| shadow.at == at)
            {
                if walk.node.implied() {
                    held.insert(walk.node.stored);
                }
                continue;
            }
            if let Some(shadow) = walk.shadow.filter(|s| s.at.span > at.span) {
                // The survivor's tree is wider: step its shadow down one
                // level towards the node's coordinates first.
                let [left, right] = node_at(&shadow)?.children(shadow);
                let step = if at.offset < shadow.at.offset + shadow.at.span / 2 {
                    left
                } else {
                    right
                };
                next.push(Walk {
                    shadow: step,
                    ..walk
                });
                continue;
            }
            // Dead: no surviving tree holds it. Its children are dead or
            // live on their own account.
            let node = node_at(&walk.node)?;
            match node {
                TreeNode::Leaf { page, providers } => {
                    if !providers.is_empty() {
                        pages.insert(at.leaf(*page), providers.clone());
                    }
                    nodes.push(at);
                    continue;
                }
                TreeNode::Inner { .. } => nodes.push(at),
                TreeNode::Full { map } => {
                    let anchor = walk.node.stored;
                    anchors.insert(anchor);
                    // Nothing below is live without a shadow, or under a
                    // full one, which holds only its own, newer version.
                    let shadow_full = match walk.shadow {
                        Some(shadow) => matches!(node_at(&shadow)?, TreeNode::Full { .. }),
                        None => true,
                    };
                    if at.span == 1 || shadow_full {
                        // A leaf implied under a mapped anchor, or a node
                        // with nothing live below it: its pages go, from the
                        // map or through the stored leaves.
                        for page in at.offset..at.offset + at.span {
                            let leaf = at.leaf(page);
                            match map {
                                Some(map) => {
                                    let index = (page - anchor.offset) as usize;
                                    pages.insert(leaf, map.page(index).to_vec());
                                }
                                None if queued.insert(leaf) => next.push(Walk {
                                    node: Slot::exact(leaf),
                                    ..walk
                                }),
                                None => {}
                            }
                        }
                        continue;
                    }
                }
            }
            let shadows = match walk.shadow {
                Some(s) => node_at(&s)?.children(s),
                None => [None, None],
            };
            for (child, shadow) in node.children(walk.node).into_iter().zip(shadows) {
                if let Some(child) = child.filter(|c| queued.insert(c.at)) {
                    next.push(Walk {
                        node: child,
                        shadow,
                        below: walk.below,
                    });
                }
            }
        }
        frontier = next;
    }
    // An anchor goes once no survivor reads a node under it. No survivor
    // below a dead node under it holds one, so the nearest survivor at or
    // above its version decides.
    for anchor in anchors {
        if held.contains(&anchor) {
            continue;
        }
        let reclaim = reclaims.iter().find(|r| r.blob == anchor.blob);
        let survivor = reclaim
            .and_then(|r| r.surviving.iter().find(|s| s.version >= anchor.version))
            .and_then(|s| s.root);
        let needed = match survivor {
            Some(root) => reads_under(store, root, anchor)?,
            None => false,
        };
        if !needed {
            nodes.push(anchor);
        }
    }
    let pages = pages
        .into_iter()
        .map(|(leaf, providers)| (page_key(leaf.blob, leaf.version, leaf.offset), providers))
        .collect();
    let mut report = sweep(sys, src, pages, &nodes)?;
    report.versions_retired = reclaims.iter().map(|r| r.dead.len() as u64).sum();
    Ok(report)
}

/// Whether the tree under `root` holds a node that is read under `anchor`:
/// the anchor's own node, a node of its version above it (whose subtree
/// holds it), or one implied under it. Only the inner nodes newer than the
/// anchor that overlap it are read, one level per batch; an older node, or
/// a full one of another version, holds nothing under it.
fn reads_under(store: &MetadataStore, root: NodeKey, anchor: NodeKey) -> BlobResult<bool> {
    let inside = |at: NodeKey| {
        at.offset < anchor.offset + anchor.span && anchor.offset < at.offset + at.span
    };
    let mut frontier = vec![Slot::exact(root)];
    while !frontier.is_empty() {
        let mut read = Vec::new();
        for slot in frontier.drain(..) {
            let at = slot.at;
            if at.version == anchor.version {
                if at.span >= anchor.span || slot.stored == anchor {
                    return Ok(true);
                }
            } else if at.version > anchor.version && at.span > 1 && !slot.implied() {
                read.push(slot);
            }
        }
        for (slot, node) in read.iter().zip(store.get_slots(&read)?) {
            if let TreeNode::Inner { .. } = node {
                let children = node.children(*slot).into_iter().flatten();
                frontier.extend(children.filter(|c| inside(c.at)));
            }
        }
    }
    Ok(false)
}

/// One step of the mark phase's walk down a dead tree.
struct Walk {
    /// A node of the dead tree.
    node: Slot,
    /// The nearest surviving version above's node at `node`'s coordinates,
    /// or an ancestor of that position while its tree is wider; `None` where
    /// that tree has nothing there.
    shadow: Option<Slot>,
    /// The nearest surviving version below the dead one.
    below: Option<Version>,
}

/// Sweep what a failed write stored under its own `version`: the pages it
/// pushed (`written`) and, when its tree was published (`root`), the nodes
/// of that tree created at its version, its whole record. Versions are never reissued, so no other writer holds
/// these keys, and no published tree references them.
pub(crate) fn sweep_failed_write(
    sys: &BlobSeer,
    src: NodeId,
    blob: BlobId,
    version: Version,
    root: Option<NodeKey>,
    written: &BTreeMap<u64, Vec<ProviderId>>,
) -> BlobResult<GcReport> {
    let pages = written
        .iter()
        .map(|(&page, replicas)| (page_key(blob, version, page), replicas.clone()))
        .collect();
    let nodes = created_at(sys.metadata(), root, version)?;
    sweep(sys, src, pages, &nodes)
}

/// The stored nodes of `root`'s tree created at `version`, every node of its
/// record: a connected subtree under the root, read one level per
/// [`MetadataStore::get_nodes`] call (the first fetches the record, when the
/// publication's pre-warm is gone). The leaves under a full node without a
/// map are known from its key; nothing else under a full node is stored.
fn created_at(
    store: &MetadataStore,
    root: Option<NodeKey>,
    version: Version,
) -> BlobResult<Vec<NodeKey>> {
    let mut created = Vec::new();
    let mut frontier: Vec<NodeKey> = root.filter(|r| r.version == version).into_iter().collect();
    while !frontier.is_empty() {
        let nodes = store.get_nodes(&frontier)?;
        let mut next = Vec::new();
        for (key, node) in frontier.drain(..).zip(nodes) {
            match node {
                TreeNode::Inner { left, right } => next.extend(
                    left.into_iter()
                        .chain(right)
                        .filter(|c| c.version == version),
                ),
                TreeNode::Full { map: None } => {
                    created.extend((key.offset..key.offset + key.span).map(|page| key.leaf(page)))
                }
                _ => {}
            }
            created.push(key);
        }
        frontier = next;
    }
    Ok(created)
}

/// Delete page images (each with the replicas its leaf recorded) and tree
/// nodes, one exchange per destination.
///
/// The pages' holder records leave the registry first, in one pass: repair
/// may have rebuilt replicas beyond the recorded ones, so the announced
/// holders are swept too, and once withdrawn no repair pass can copy a page
/// that is on its way out. Then every provider holding any of the pages gets
/// one `DeleteMany`, charged as one write exchange; a downed provider is
/// skipped — its lingering replica is unreadable anyway and the page key is
/// never reused (versions are never reissued). Last, the nodes go in one
/// [`MetadataStore::remove_nodes`].
fn sweep(
    sys: &BlobSeer,
    src: NodeId,
    pages: Vec<(Vec<u8>, Vec<ProviderId>)>,
    nodes: &[NodeKey],
) -> BlobResult<GcReport> {
    let mut report = GcReport::default();
    let pm = sys.provider_manager();
    let keys: Vec<&[u8]> = pages.iter().map(|(key, _)| key.as_slice()).collect();
    let mut per_provider: BTreeMap<ProviderId, Vec<usize>> = BTreeMap::new();
    for (i, ((_, recorded), announced)) in pages.iter().zip(pm.withdraw_pages(&keys)).enumerate() {
        let mut targets = recorded.clone();
        for pid in announced {
            if !targets.contains(&pid) {
                targets.push(pid);
            }
        }
        for pid in targets {
            per_provider.entry(pid).or_default().push(i);
        }
    }
    let mut deleted = vec![false; pages.len()];
    for (pid, indices) in per_provider {
        let Some(provider) = pm.provider(pid) else {
            continue;
        };
        let batch: Vec<&[u8]> = indices.iter().map(|&i| keys[i]).collect();
        let request: u64 = batch.iter().map(|key| key.len() as u64).sum();
        let held = provider.delete_many(&batch);
        sys.charge_provider(
            src,
            provider.node(),
            Direction::Write,
            request + MSG_OVERHEAD,
            MSG_OVERHEAD,
        );
        match held {
            Ok(slots) => {
                for (&i, held) in indices.iter().zip(slots) {
                    if held {
                        report.page_replicas_deleted += 1;
                        deleted[i] = true;
                    }
                }
            }
            Err(_) => pm.health().note_down(pid.into()),
        }
    }
    report.pages_deleted = deleted.into_iter().filter(|d| *d).count() as u64;
    report.nodes_removed = sys.metadata().remove_nodes(nodes)? as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::{collect, sweep_failed_write};
    use crate::metadata::segment_tree::{build_version, lookup_range, PrevTree};
    use crate::metadata::{NodeKey, Slot};
    use crate::version_manager::{Reclaim, VersionInfo};
    use crate::{BlobId, BlobSeer, BlobSeerConfig, ProviderId, Version};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    /// The nodes the metadata DHT's records hold.
    fn held(sys: &Arc<BlobSeer>) -> BTreeSet<NodeKey> {
        sys.metadata().stored_nodes().unwrap().into_iter().collect()
    }

    /// The stored nodes the trees under `roots` read.
    fn reached(sys: &Arc<BlobSeer>, roots: &[NodeKey]) -> BTreeSet<NodeKey> {
        let mut keys = BTreeSet::new();
        let mut frontier: Vec<Slot> = roots.iter().copied().map(Slot::exact).collect();
        while let Some(slot) = frontier.pop() {
            keys.insert(slot.stored);
            let node = sys.metadata().get_slots(&[slot]).unwrap().remove(0);
            frontier.extend(node.children(slot).into_iter().flatten());
        }
        keys
    }

    /// Pages `pages` of one write, on provider 0, with `short` on a second
    /// replica too: a full subtree over it has no map and keeps its leaves.
    fn pages(pages: std::ops::Range<u64>, short: Option<u64>) -> BTreeMap<u64, Vec<ProviderId>> {
        let replicas = |p| {
            if Some(p) == short {
                vec![ProviderId(0), ProviderId(1)]
            } else {
                vec![ProviderId(0)]
            }
        };
        pages.map(|p| (p, replicas(p))).collect()
    }

    #[test]
    fn an_anchor_a_pruned_survivor_subtree_reads_under_outlives_its_version() {
        // A 32-page block, then:
        // v2 rewrites pages 0..4 and page 20, linking v1's root as the
        //    anchor of every half beside them, (16, 16)'s included;
        // v3 rewrites pages 4..16 and shares v2's (16, 16) as it is.
        // Retiring v1, then v2, leaves v3 reading pages 16..32 but 20
        // through v1's root, which only v2's shared node links: the walk of
        // v2 prunes that node as live, so the survivor's tree must be asked.
        for short in [None, Some(9)] {
            let sys = BlobSeer::new(BlobSeerConfig::for_tests());
            let store = sys.metadata();
            let src = sys.client().node();
            let blob = BlobId(1);
            let info = |v, root: NodeKey| VersionInfo {
                version: Version(v),
                root: Some(root),
                size: 32 * 16,
            };
            let prev = |root| PrevTree {
                root: Some(root),
                span: 32,
            };
            let root1 = build_version(
                store,
                blob,
                Version(1),
                PrevTree::empty(),
                32,
                &pages(0..32, short),
            )
            .unwrap();
            let mut w2 = pages(0..4, None);
            w2.insert(20, vec![ProviderId(1)]);
            let root2 = build_version(store, blob, Version(2), prev(root1), 32, &w2).unwrap();
            let root3 = build_version(
                store,
                blob,
                Version(3),
                prev(root2),
                32,
                &pages(4..16, None),
            )
            .unwrap();
            let expected = lookup_range(store, Some(root3), 32, 0, 31).unwrap();

            let reclaim = |dead: Vec<VersionInfo>, surviving: Vec<VersionInfo>| Reclaim {
                blob,
                dead,
                surviving,
            };
            let retire_v1 = reclaim(vec![info(1, root1)], vec![info(2, root2), info(3, root3)]);
            collect(&sys, src, &[retire_v1]).unwrap();
            assert_eq!(
                held(&sys),
                reached(&sys, &[root2, root3]),
                "short {short:?}"
            );
            assert!(held(&sys).contains(&root1));

            let before = held(&sys);
            let retire_v2 = reclaim(vec![info(2, root2)], vec![info(3, root3)]);
            let report = collect(&sys, src, &[retire_v2]).unwrap();
            assert_eq!(held(&sys), reached(&sys, &[root3]), "short {short:?}");
            assert_eq!(
                report.nodes_removed as usize,
                before.len() - held(&sys).len()
            );
            assert!(held(&sys).contains(&root1));
            store.drop_cached_nodes();
            assert_eq!(
                lookup_range(store, Some(root3), 32, 0, 31).unwrap(),
                expected
            );

            // A write that fails after publishing its tree takes back the
            // nodes it stored, and only those.
            let before = held(&sys);
            let mut w4 = pages(0..8, Some(3));
            w4.extend(pages(24..32, None));
            let root4 = build_version(store, blob, Version(4), prev(root3), 32, &w4).unwrap();
            assert_eq!(held(&sys).len(), before.len() + 1 + 8 + 1 + 1 + 1 + 1);
            let swept =
                sweep_failed_write(&sys, src, blob, Version(4), Some(root4), &BTreeMap::new())
                    .unwrap();
            assert_eq!(held(&sys), before);
            assert_eq!(swept.nodes_removed, 13);

            // Deleting the blob takes the rest.
            let delete = reclaim(vec![info(3, root3)], Vec::new());
            collect(&sys, src, &[delete]).unwrap();
            assert!(held(&sys).is_empty(), "short {short:?}");
        }
    }

    #[test]
    fn retired_nodes_leave_the_warm_cache_with_the_dht() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_gc_keep_last(1));
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        // v1 and v2 each rewrite all 8 pages: nothing of v1 survives v2.
        let v1 = client.write(blob, 0, &[1u8; 16 * 8]).unwrap();
        client.write(blob, 0, &[2u8; 16 * 8]).unwrap();
        let store = sys.metadata();
        // Every node v1 stored, read back from the cache the two
        // publications pre-warmed: a write of every page stores its full
        // root alone, with the page map.
        let root = sys.version_manager().get_version(blob, v1).unwrap().root;
        let mut created: Vec<NodeKey> = Vec::new();
        let mut frontier: Vec<Slot> = root.into_iter().map(Slot::exact).collect();
        while let Some(slot) = frontier.pop() {
            let children = store.get_slots(&[slot]).unwrap()[0].children(slot);
            frontier.extend(children.into_iter().flatten());
            if !created.contains(&slot.stored) {
                created.push(slot.stored);
            }
        }
        let resident = store.cache_stats().entries;

        let report = sys.collect_garbage().unwrap();
        assert_eq!(report.nodes_removed, 1);
        assert_eq!(created.len(), 1);
        for key in created {
            assert!(store.get_node(key).is_err(), "{key:?} still resolves");
        }
        assert_eq!(store.cache_stats().entries, resident - 1);
    }
}
