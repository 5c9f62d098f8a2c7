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
//! tree:
//!
//! * a node sits at its own coordinates: a tree holds at most one node per
//!   `(offset, span)`, and a node key carries the coordinates it sits at;
//! * version `v`'s tree is its predecessor's with a path copied: every node
//!   of it is either created by `v` (`key.version == v`) or in `v - 1`'s
//!   tree (an aborted version aliases its predecessor's tree outright);
//! * so the versions whose tree holds a node `X` form an interval
//!   `[X.version, e]`: `X` is created once and, once replaced, never comes
//!   back.
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
//! across every blob of the sweep at once. Page images are stored under the
//! version whose write created them, which is exactly the owning leaf's
//! version, so a reclaimed leaf takes its page replicas with it: no
//! surviving tree can resolve that page to the same image except through the
//! (now unreachable) leaf.
//!
//! The sweep phase pays one exchange per destination, like every other
//! exchange: the pages' holder records leave the registry in one pass, each
//! provider gets one `DeleteMany`, and each metadata provider one
//! `RemoveMany`. A read racing a delete may fail with an error (a node or
//! page it needs is gone), but it never returns wrong bytes: keys are never
//! reused, so whatever it does resolve is the snapshot it asked for.

use crate::client::BlobSeer;
use crate::error::{BlobResult, BlobSeerError};
use crate::metadata::store::MetadataStore;
use crate::metadata::{NodeKey, TreeNode};
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
    /// DHT tombstones dropped after the node removals.
    pub tombstones_compacted: u64,
}

impl GcReport {
    /// Fold another cycle's (or another blob's) counts into this report.
    pub fn absorb(&mut self, other: &GcReport) {
        self.versions_retired += other.versions_retired;
        self.nodes_removed += other.nodes_removed;
        self.pages_deleted += other.pages_deleted;
        self.page_replicas_deleted += other.page_replicas_deleted;
        self.tombstones_compacted += other.tombstones_compacted;
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
                    node: root,
                    shadow: above.and_then(|s| s.root),
                    below: below.map(|s| s.version),
                });
            }
        }
    }

    let store = sys.metadata();
    let mut pages = Vec::new();
    let mut nodes = Vec::new();
    while !frontier.is_empty() {
        let mut keys: Vec<NodeKey> = Vec::new();
        let mut listed: FastSet<NodeKey> = FastSet::default();
        for walk in &frontier {
            for key in std::iter::once(walk.node).chain(walk.shadow) {
                if listed.insert(key) {
                    keys.push(key);
                }
            }
        }
        let read: FastMap<NodeKey, TreeNode> =
            keys.iter().copied().zip(store.get_nodes(&keys)?).collect();
        let node_at = |key: &NodeKey| {
            read.get(key).ok_or_else(|| {
                BlobSeerError::Metadata(DhtError::NotFound {
                    key: format!("{key:?}"),
                })
            })
        };
        let mut next = Vec::new();
        for walk in frontier.drain(..) {
            // Live in the nearest survivor below, which holds it by the
            // interval fact: the survivor lies in [created, dead version).
            if walk.below.is_some_and(|below| below >= walk.node.version) {
                continue;
            }
            if let Some(shadow) = walk.shadow {
                if shadow == walk.node {
                    // Live in the nearest survivor above.
                    continue;
                }
                if shadow.span > walk.node.span {
                    // The survivor's tree is wider: step its shadow down one
                    // level towards the node's coordinates first.
                    let [left, right] = node_at(&shadow)?.children(shadow);
                    let step = if walk.node.offset < shadow.offset + shadow.span / 2 {
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
            }
            // Dead: no surviving tree holds it. Its children are dead or
            // live on their own account.
            match node_at(&walk.node)? {
                TreeNode::Leaf { page, providers } => {
                    if !providers.is_empty() {
                        let key = page_key(walk.node.blob, walk.node.version, *page);
                        pages.push((key, providers.clone()));
                    }
                }
                node => {
                    let shadows = match walk.shadow {
                        Some(s) => node_at(&s)?.children(s),
                        None => [None, None],
                    };
                    for (child, shadow) in node.children(walk.node).into_iter().zip(shadows) {
                        if let Some(child) = child.filter(|c| queued.insert(*c)) {
                            next.push(Walk {
                                node: child,
                                shadow,
                                below: walk.below,
                            });
                        }
                    }
                }
            }
            nodes.push(walk.node);
        }
        frontier = next;
    }
    let mut report = sweep(sys, src, pages, &nodes)?;
    report.versions_retired = reclaims.iter().map(|r| r.dead.len() as u64).sum();
    Ok(report)
}

/// One step of the mark phase's walk down a dead tree.
struct Walk {
    /// A node of the dead tree.
    node: NodeKey,
    /// The nearest surviving version above's node at `node`'s coordinates,
    /// or an ancestor of that position while its tree is wider; `None` where
    /// that tree has nothing there.
    shadow: Option<NodeKey>,
    /// The nearest surviving version below the dead one.
    below: Option<Version>,
}

/// Sweep what a failed write stored under its own `version`: the pages it
/// pushed (`written`) and, when its tree was published (`root`), the nodes
/// of that tree created at its version. Versions are never reissued, so no
/// other writer holds these keys, and no published tree references them.
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

/// The nodes of `root`'s tree created at `version`: a connected subtree
/// under the root, read one level per [`MetadataStore::get_nodes`] call.
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
            let children = node.children(key).into_iter().flatten();
            next.extend(children.filter(|c| c.version == version));
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
            Err(_) => pm.health().note_down(pid),
        }
    }
    report.pages_deleted = deleted.into_iter().filter(|d| *d).count() as u64;
    report.nodes_removed = sys.metadata().remove_nodes(nodes)? as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use crate::metadata::NodeKey;
    use crate::{BlobSeer, BlobSeerConfig};

    #[test]
    fn retired_nodes_leave_the_warm_cache_with_the_dht() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_gc_keep_last(1));
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        // v1 and v2 each rewrite all 8 pages: nothing of v1 survives v2.
        let v1 = client.write(blob, 0, &[1u8; 16 * 8]).unwrap();
        client.write(blob, 0, &[2u8; 16 * 8]).unwrap();
        let store = sys.metadata();
        // Every node v1 created, read back from the cache the two
        // publications pre-warmed.
        let root = sys.version_manager().get_version(blob, v1).unwrap().root;
        let mut created: Vec<NodeKey> = Vec::new();
        let mut frontier: Vec<NodeKey> = root.into_iter().collect();
        while let Some(key) = frontier.pop() {
            let children = store.get_node(key).unwrap().children(key);
            frontier.extend(children.into_iter().flatten());
            created.push(key);
        }
        let resident = store.cache_stats().entries;

        let report = sys.collect_garbage().unwrap();
        assert_eq!(report.nodes_removed, 15);
        assert_eq!(created.len(), 15);
        for key in created {
            assert!(store.get_node(key).is_err(), "{key:?} still resolves");
        }
        assert_eq!(store.cache_stats().entries, resident - 15);
    }
}
