//! Snapshot garbage collection: mark-and-sweep reclamation of retired
//! versions.
//!
//! BlobSeer never overwrites data — every write publishes a new snapshot and
//! old snapshots stay readable. Under a workload that rewrites the same
//! blobs in a loop (a MapReduce job chain re-running over the same files)
//! the history grows without bound: metadata tree nodes accumulate in the
//! DHT and superseded page images accumulate on the providers. This module
//! bounds that footprint. A keep-last-K retention policy on the version
//! manager retires old snapshots ([`crate::VersionManager::retire_expired`],
//! pinned snapshots exempt), and the sweep here reclaims everything only the
//! retired snapshots referenced.
//!
//! Correctness leans on two structural facts of the path-copied segment
//! tree:
//!
//! * the nodes *created* by version `d` carry `key.version == d` and form a
//!   connected subtree containing `d`'s root — everything else reachable
//!   from that root is shared with older versions;
//! * a parent's version is never older than its children's, so a descent
//!   can prune below any node older than the oldest retired version:
//!   nothing created by a retired version can appear underneath.
//!
//! The sweep deletes exactly `candidates - live`: nodes created by retired
//! versions, minus those still reachable from a surviving tree (subtree
//! sharing — or a root aliased by an aborted write — keeps them alive).
//! Page images are stored under the version whose write created them, which
//! is exactly the owning leaf's version, so a reclaimed leaf takes its page
//! replicas with it: no surviving tree can resolve that page to the same
//! image except through the (now unreachable) leaf.

use crate::error::BlobResult;
use crate::metadata::store::MetadataStore;
use crate::metadata::{NodeKey, TreeNode};
use crate::provider::page_key;
use crate::provider_manager::ProviderManager;
use crate::types::BlobId;
use crate::version_manager::VersionInfo;
use serde::Serialize;
use std::collections::{BTreeSet, HashMap, HashSet};

/// What one garbage-collection cycle reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct GcReport {
    /// Snapshots retired by the retention policy.
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

/// Reclaim the metadata nodes and page images that only the retired
/// snapshots of `blob` referenced.
///
/// `dead` is what [`crate::VersionManager::retire_expired`] returned;
/// `surviving` is the blob's remaining published history. The caller must
/// pass the *complete* surviving history: any surviving version left out
/// could have nodes it shares with a retired version swept from under it.
pub fn collect_blob_garbage(
    store: &MetadataStore,
    providers: &ProviderManager,
    blob: BlobId,
    dead: &[VersionInfo],
    surviving: &[VersionInfo],
) -> BlobResult<GcReport> {
    let mut report = GcReport {
        versions_retired: dead.len() as u64,
        ..GcReport::default()
    };
    let dead_set: BTreeSet<u64> = dead.iter().map(|v| v.version.0).collect();
    let Some(&min_dead) = dead_set.first() else {
        return Ok(report);
    };

    // Mark phase 1 — candidates: every node created by a retired version,
    // found by descending from the retired roots through retired-version
    // nodes only (an older child is shared, not a candidate). A retired
    // root can itself be an alias of an older version (aborted write); it
    // only seeds the walk when some retired version created it.
    let mut candidates: HashMap<NodeKey, TreeNode> = HashMap::new();
    let mut queued: HashSet<NodeKey> = HashSet::new();
    let mut frontier: Vec<NodeKey> = Vec::new();
    for info in dead {
        if let Some(root) = info.root {
            if dead_set.contains(&root.version.0) && queued.insert(root) {
                frontier.push(root);
            }
        }
    }
    while !frontier.is_empty() {
        let nodes = store.get_nodes(&frontier)?;
        let mut next = Vec::new();
        for (key, node) in frontier.drain(..).zip(nodes) {
            if let TreeNode::Inner { left, right } = &node {
                for child in [left, right].into_iter().flatten() {
                    if dead_set.contains(&child.version.0) && queued.insert(*child) {
                        next.push(*child);
                    }
                }
            }
            candidates.insert(key, node);
        }
        frontier = next;
    }

    // Mark phase 2 — live: candidates still reachable from a surviving
    // tree. The descent prunes below anything older than the oldest retired
    // version; whole trees older than that are skipped outright.
    let mut live: HashSet<NodeKey> = HashSet::new();
    let mut visited: HashSet<NodeKey> = HashSet::new();
    let mut frontier: Vec<NodeKey> = surviving
        .iter()
        .filter_map(|info| info.root)
        .filter(|root| root.version.0 >= min_dead && visited.insert(*root))
        .collect();
    while !frontier.is_empty() {
        let nodes = store.get_nodes(&frontier)?;
        let mut next = Vec::new();
        for (key, node) in frontier.drain(..).zip(nodes) {
            if dead_set.contains(&key.version.0) {
                live.insert(key);
            }
            if let TreeNode::Inner { left, right } = &node {
                for child in [left, right].into_iter().flatten() {
                    if child.version.0 >= min_dead && visited.insert(*child) {
                        next.push(*child);
                    }
                }
            }
        }
        frontier = next;
    }

    // Sweep: delete page replicas of unreachable leaves, then the nodes
    // themselves. A downed provider is skipped — its lingering replica is
    // unreadable anyway and the page image key is never reused (versions are
    // never reissued), so this stays safe without coordination.
    for (key, node) in &candidates {
        if live.contains(key) {
            continue;
        }
        if let TreeNode::Leaf {
            page,
            providers: replicas,
        } = node
        {
            if !replicas.is_empty() {
                let pkey = page_key(blob, key.version, *page);
                // The leaf records where the write put the copies; repair
                // may since have rebuilt replicas elsewhere, so sweep the
                // announced holders too and drop the page from the registry
                // (otherwise repair would resurrect the deleted image).
                let mut targets: Vec<_> = replicas.clone();
                for pid in providers.holders(&pkey) {
                    if !targets.contains(&pid) {
                        targets.push(pid);
                    }
                }
                let mut deleted_any = false;
                for pid in &targets {
                    if let Some(provider) = providers.provider(*pid) {
                        if let Ok(true) = provider.delete_page(&pkey) {
                            report.page_replicas_deleted += 1;
                            deleted_any = true;
                        }
                    }
                }
                providers.withdraw_page(&pkey);
                if deleted_any {
                    report.pages_deleted += 1;
                }
            }
        }
        if store.remove_node(*key)? {
            report.nodes_removed += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use crate::metadata::{NodeKey, TreeNode};
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
            if let TreeNode::Inner { left, right } = store.get_node(key).unwrap() {
                frontier.extend([left, right].into_iter().flatten());
            }
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
