//! Build (write path) and lookup (read path) of the versioned segment tree.
//!
//! The tree for a version covers `span` pages, where `span` is the number of
//! pages of the blob at that version rounded up to a power of two. Writing a
//! range of pages creates new leaves for exactly those pages and new inner
//! nodes on the paths from them to the root; every other subtree is *shared*
//! with the previous version by storing the previous node's key in the new
//! parent. This is what makes BlobSeer's snapshots cheap and is the mechanism
//! behind "data is never overwritten: each write or append operation
//! generates a new version of the blob" (paper §III-A).

use crate::error::{BlobResult, BlobSeerError};
use crate::metadata::store::MetadataStore;
use crate::metadata::{NodeKey, PageMap, TreeNode};
use crate::types::{BlobId, ProviderId, Version};
use kvstore::FastMap;
use std::collections::BTreeMap;

/// Description of a previously published tree that a new version builds upon.
#[derive(Debug, Clone, Copy)]
pub struct PrevTree {
    /// Root of the previous version's tree (`None` when the blob was empty).
    pub root: Option<NodeKey>,
    /// Span (in pages, power of two) of the previous tree; 0 when empty.
    pub span: u64,
}

impl PrevTree {
    /// The tree of an empty blob.
    pub fn empty() -> Self {
        PrevTree {
            root: None,
            span: 0,
        }
    }
}

/// A write-side buffer over the metadata store: the nodes of the version
/// under construction are collected locally and published to the DHT as one
/// batch ([`MetadataStore::put_nodes`]) when the build completes, instead of
/// one `put` per node. Reads during the build consult the buffer first (the
/// wrapper nodes pre-extending a grown tree are written and re-read within
/// the same build), then fall through to the store.
struct NodeBatch<'a> {
    store: &'a MetadataStore,
    pending: FastMap<NodeKey, TreeNode>,
}

impl<'a> NodeBatch<'a> {
    fn new(store: &'a MetadataStore) -> Self {
        NodeBatch {
            store,
            pending: FastMap::default(),
        }
    }

    fn put(&mut self, key: NodeKey, node: TreeNode) {
        // Overwrites collapse in the buffer (a grown tree's wrapper node and
        // its final root share coordinates), so the flushed batch is also
        // strictly smaller than the put-per-node stream was.
        self.pending.insert(key, node);
    }

    fn get(&self, key: NodeKey) -> BlobResult<TreeNode> {
        match self.pending.get(&key) {
            Some(node) => Ok(node.clone()),
            None => self.store.get_node(key),
        }
    }

    /// Publish the batch, all or nothing: a publication that failed part
    /// way (some node reached no replica) takes back what it did store, so a
    /// failed build leaves no node behind.
    fn flush(self) -> BlobResult<()> {
        let nodes: Vec<(NodeKey, TreeNode)> = self.pending.into_iter().collect();
        let published = self.store.put_nodes(&nodes);
        if published.is_err() {
            let keys: Vec<NodeKey> = nodes.iter().map(|(key, _)| *key).collect();
            let _ = self.store.remove_nodes(&keys);
        }
        published
    }
}

/// Build the segment tree for `version` of `blob`.
///
/// * `prev` — the previous version's tree (for subtree sharing).
/// * `new_span` — span in pages of the new tree (power of two, large enough
///   to cover the blob's new size).
/// * `written` — for every page index modified by this write, the ordered
///   list of providers holding its replicas.
///
/// The new nodes are published to the metadata DHT as a single batch when
/// the tree is complete; until then nothing of the version is visible.
///
/// Returns the key of the new root, or [`BlobSeerError::InvalidArgument`]
/// if `written` is empty (a write always touches at least one page), if
/// `new_span` is not a power of two, if a written page lies outside it, or
/// if it is smaller than `prev.span` (a tree never shrinks).
pub fn build_version(
    store: &MetadataStore,
    blob: BlobId,
    version: Version,
    prev: PrevTree,
    new_span: u64,
    written: &BTreeMap<u64, Vec<ProviderId>>,
) -> BlobResult<NodeKey> {
    let invalid = |msg: &str| BlobSeerError::InvalidArgument(msg.into());
    let (Some(&wfirst), Some(&wlast)) = (written.keys().next(), written.keys().next_back()) else {
        return Err(invalid("a write must touch at least one page"));
    };
    if !new_span.is_power_of_two() {
        return Err(invalid("tree span must be a power of two"));
    }
    if wlast >= new_span {
        return Err(invalid("written pages must fit in the new tree span"));
    }
    if prev.span > new_span {
        return Err(invalid("a tree never shrinks"));
    }

    // When the blob grows, pre-extend the previous tree to the new span by
    // wrapping its root in inner nodes whose right halves are holes. The
    // recursion below can then always find "the previous node covering the
    // same (offset, span)" by simple structural descent, even for subtrees
    // that the write does not touch. Wrapper nodes carry the new version; if
    // the recursion later creates a node at the same coordinates it simply
    // overwrites the wrapper, which at that point is no longer referenced.
    let mut batch = NodeBatch::new(store);
    let mut prev = prev;
    if prev.root.is_some() {
        while prev.span < new_span {
            let span = prev.span * 2;
            let key = NodeKey {
                blob,
                version,
                offset: 0,
                span,
            };
            batch.put(
                key,
                TreeNode::Inner {
                    left: prev.root,
                    right: None,
                },
            );
            prev = PrevTree {
                root: Some(key),
                span,
            };
        }
    }

    let ctx = BuildCtx {
        blob,
        version,
        prev,
        wfirst,
        wlast,
        written,
    };
    let (root, full) = build_node(&ctx, &mut batch, 0, new_span, None, false)?;
    let root = root.ok_or_else(|| invalid("the root must overlap the written range"))?;
    if full {
        map_full_node(&ctx, &mut batch, root);
    }
    batch.flush()?;
    Ok(root)
}

struct BuildCtx<'a> {
    blob: BlobId,
    version: Version,
    prev: PrevTree,
    wfirst: u64,
    wlast: u64,
    written: &'a BTreeMap<u64, Vec<ProviderId>>,
}

/// Recursive path-copying build. `prev_here` is the previous version's node
/// covering exactly `(offset, span)`, when known from the parent, and
/// `prev_full` says the parent was [`TreeNode::Full`], which makes
/// `prev_here` full too (or a leaf) without reading it.
///
/// Returns the node now at `(offset, span)` and whether this build wrote
/// every page under it. Such a node is stored as [`TreeNode::Full`]: a
/// written leaf is full, an inner node is full when this call built both of
/// its children and both are full, and a shared subtree or a growth wrapper
/// never is. A node that is not full gives its full inner children their
/// page maps ([`map_full_node`]); the caller does so for a full root.
fn build_node(
    ctx: &BuildCtx<'_>,
    batch: &mut NodeBatch<'_>,
    offset: u64,
    span: u64,
    prev_here: Option<NodeKey>,
    prev_full: bool,
) -> BlobResult<(Option<NodeKey>, bool)> {
    // When the new tree is taller than the previous one, the previous root
    // reappears as the node covering (0, prev.span) somewhere down the left
    // spine; graft it in when we reach that position.
    let prev_here = if prev_here.is_none() && offset == 0 && span == ctx.prev.span {
        ctx.prev.root
    } else {
        prev_here
    };

    let overlaps = ctx.wfirst < offset + span && ctx.wlast >= offset;
    if !overlaps {
        // Untouched subtree: share the previous node (or keep the hole).
        return Ok((prev_here, false));
    }

    if span == 1 {
        // This page is inside the written range; `written` may still not
        // contain it if the caller wrote a sparse set, in which case the page
        // keeps its previous contents (or stays a hole).
        return match ctx.written.get(&offset) {
            Some(providers) => {
                let key = NodeKey {
                    blob: ctx.blob,
                    version: ctx.version,
                    offset,
                    span: 1,
                };
                batch.put(
                    key,
                    TreeNode::Leaf {
                        page: offset,
                        providers: providers.clone(),
                    },
                );
                Ok((Some(key), true))
            }
            None => Ok((prev_here, false)),
        };
    }

    let half = span / 2;
    let ([prev_left, prev_right], prev_full) = match prev_here {
        Some(pk) if prev_full => (pk.halves().map(Some), true),
        Some(pk) => {
            let node = batch.get(pk)?;
            (node.children(pk), matches!(node, TreeNode::Full { .. }))
        }
        None => ([None, None], false),
    };

    let (left, left_full) = build_node(ctx, batch, offset, half, prev_left, prev_full)?;
    let (right, right_full) = build_node(ctx, batch, offset + half, half, prev_right, prev_full)?;

    let key = NodeKey {
        blob: ctx.blob,
        version: ctx.version,
        offset,
        span,
    };
    let full = left_full && right_full;
    let node = if full {
        TreeNode::Full { map: None }
    } else {
        for (child, child_full) in [(left, left_full), (right, right_full)] {
            if let (Some(child), true) = (child, child_full) {
                map_full_node(ctx, batch, child);
            }
        }
        TreeNode::Inner { left, right }
    };
    batch.put(key, node);
    Ok((Some(key), full))
}

/// Store the topmost node of a full subtree this build wrote with the page
/// map of every page under it, taken from `written`. A full leaf stays a
/// leaf, and a node over pages with unequal replica counts stays
/// payload-less.
fn map_full_node(ctx: &BuildCtx<'_>, batch: &mut NodeBatch<'_>, key: NodeKey) {
    if key.span < 2 {
        return;
    }
    let pages = ctx.written.range(key.offset..key.offset + key.span);
    if let Some(map) = PageMap::of_pages(pages.map(|(_, providers)| providers.as_slice())) {
        batch.put(key, TreeNode::Full { map: Some(map) });
    }
}

/// Location metadata for one page, as resolved by [`lookup_range`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMeta {
    /// Page index within the blob.
    pub page: u64,
    /// The version whose write created this page image. Pages are stored on
    /// providers under `(blob, created, page)`, so readers need this to build
    /// the storage key. `None` for holes.
    pub created: Option<Version>,
    /// Providers holding replicas of the page, in preference order. Empty for
    /// holes (never-written regions, which read as zeroes).
    pub providers: Vec<ProviderId>,
}

/// Resolve the location of every page in `[first_page, last_page]` under the
/// tree rooted at `root` (with span `span`). Pages falling in holes are
/// reported with an empty provider list; the client materialises them as
/// zeroes.
///
/// The descent is breadth-first and *frontier-batched*: every node of one
/// tree level that overlaps the requested range is resolved through a single
/// [`MetadataStore::get_nodes`] call (one `Dht::get_many` pass contacting
/// each responsible metadata provider once). At a [`TreeNode::Full`] node the
/// descent skips the levels below: a node with a [`PageMap`] answers the
/// requested pages under it itself, and under a payload-less one (a full
/// subtree a later version shares, or one whose pages have unequal replica
/// counts) the leaves of the requested pages are known from its key, so they
/// join the next batch directly. A range lookup therefore costs one batch
/// per level down to the first full node on each path, plus one for the
/// leaves under a payload-less one, instead of one round trip per visited
/// node — the read-side counterpart of the batched write publication.
pub fn lookup_range(
    store: &MetadataStore,
    root: Option<NodeKey>,
    span: u64,
    first_page: u64,
    last_page: u64,
) -> BlobResult<Vec<PageMeta>> {
    check_page_range(first_page, last_page)?;
    let mut out = Vec::with_capacity((last_page - first_page + 1) as usize);
    let covered_span = span.max(1);

    // Frontier of unresolved nodes overlapping the requested range: (key,
    // offset, span). Holes never enter it — they expand to zero pages
    // immediately.
    let mut frontier: Vec<(NodeKey, u64, u64)> = Vec::new();
    match root {
        Some(key) if overlaps(0, covered_span, first_page, last_page) => {
            frontier.push((key, 0, covered_span))
        }
        Some(_) => {}
        None => emit_holes(0, covered_span, first_page, last_page, &mut out),
    }
    while !frontier.is_empty() {
        let keys: Vec<NodeKey> = frontier.iter().map(|&(key, _, _)| key).collect();
        let nodes = store.get_nodes(&keys)?;
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for (&(key, offset, span), node) in frontier.iter().zip(nodes) {
            match node {
                TreeNode::Leaf { page, providers } => {
                    if page >= first_page && page <= last_page {
                        let created = if providers.is_empty() {
                            None
                        } else {
                            Some(key.version)
                        };
                        out.push(PageMeta {
                            page,
                            created,
                            providers,
                        });
                    }
                }
                TreeNode::Full { map: Some(map) } => {
                    // The map answers every requested page under the node;
                    // nothing below it is fetched.
                    let lo = offset.max(first_page);
                    let hi = (offset + span - 1).min(last_page);
                    for page in lo..=hi {
                        out.push(PageMeta {
                            page,
                            created: Some(key.version),
                            providers: map.page((page - offset) as usize).to_vec(),
                        });
                    }
                }
                TreeNode::Full { map: None } => {
                    // Every page under a full node is a leaf of its version:
                    // jump to the leaves of the requested pages. A missing
                    // one fails the batch like any missing child.
                    let lo = offset.max(first_page);
                    let hi = (offset + span - 1).min(last_page);
                    for page in lo..=hi {
                        let leaf = NodeKey {
                            offset: page,
                            span: 1,
                            ..key
                        };
                        next.push((leaf, page, 1));
                    }
                }
                TreeNode::Inner { left, right } => {
                    let half = span / 2;
                    for (child, child_offset) in [(left, offset), (right, offset + half)] {
                        if !overlaps(child_offset, half, first_page, last_page) {
                            continue;
                        }
                        match child {
                            Some(key) => next.push((key, child_offset, half)),
                            None => emit_holes(child_offset, half, first_page, last_page, &mut out),
                        }
                    }
                }
            }
        }
        frontier = next;
    }

    // Pages requested beyond the tree span (possible when the caller rounds
    // generously) are holes too.
    for p in first_page.max(covered_span)..=last_page {
        out.push(PageMeta {
            page: p,
            created: None,
            providers: Vec::new(),
        });
    }
    out.sort_by_key(|m| m.page);
    Ok(out)
}

/// A lookup names a non-empty, inclusive page range.
fn check_page_range(first_page: u64, last_page: u64) -> BlobResult<()> {
    if first_page > last_page {
        return Err(BlobSeerError::InvalidArgument(format!(
            "empty page range {first_page}..={last_page}"
        )));
    }
    Ok(())
}

/// Does the node covering `[offset, offset + span)` overlap the requested
/// inclusive page interval `[first, last]`?
fn overlaps(offset: u64, span: u64, first: u64, last: u64) -> bool {
    first < offset + span && last >= offset
}

/// Report every page of `[offset, offset + span)` that falls inside the
/// requested interval as a hole.
fn emit_holes(offset: u64, span: u64, first: u64, last: u64, out: &mut Vec<PageMeta>) {
    let lo = first.max(offset);
    let hi = last.min(offset + span - 1);
    for p in lo..=hi {
        out.push(PageMeta {
            page: p,
            created: None,
            providers: Vec::new(),
        });
    }
}

/// The retained node-at-a-time reference walk: semantically identical to
/// [`lookup_range`] but resolving every tree node with an individual
/// [`MetadataStore::get_node`] call (one DHT round trip each), through every
/// level of a full subtree as well (its children are derived, then read).
/// Kept as the differential-testing oracle for the batched descent and as
/// the "before" measurement for the read-batching experiments.
pub fn lookup_range_walk(
    store: &MetadataStore,
    root: Option<NodeKey>,
    span: u64,
    first_page: u64,
    last_page: u64,
) -> BlobResult<Vec<PageMeta>> {
    check_page_range(first_page, last_page)?;
    let mut out = Vec::with_capacity((last_page - first_page + 1) as usize);
    let covered_span = span.max(1);
    collect(
        store,
        root,
        0,
        covered_span,
        first_page,
        last_page,
        &mut out,
    )?;
    for p in first_page.max(covered_span)..=last_page {
        out.push(PageMeta {
            page: p,
            created: None,
            providers: Vec::new(),
        });
    }
    out.sort_by_key(|m| m.page);
    Ok(out)
}

fn collect(
    store: &MetadataStore,
    node: Option<NodeKey>,
    offset: u64,
    span: u64,
    first: u64,
    last: u64,
    out: &mut Vec<PageMeta>,
) -> BlobResult<()> {
    // No overlap with the requested page interval.
    if last < offset || first >= offset + span {
        return Ok(());
    }
    match node {
        None => {
            let lo = first.max(offset);
            let hi = last.min(offset + span - 1);
            for p in lo..=hi {
                out.push(PageMeta {
                    page: p,
                    created: None,
                    providers: Vec::new(),
                });
            }
        }
        Some(key) => match store.get_node(key)? {
            TreeNode::Leaf { page, providers } => {
                if page >= first && page <= last {
                    let created = if providers.is_empty() {
                        None
                    } else {
                        Some(key.version)
                    };
                    out.push(PageMeta {
                        page,
                        created,
                        providers,
                    });
                }
            }
            node => {
                let [left, right] = node.children(key);
                let half = span / 2;
                collect(store, left, offset, half, first, last, out)?;
                collect(store, right, offset + half, half, first, last, out)?;
            }
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::next_power_of_two;

    fn store() -> MetadataStore {
        MetadataStore::new(3, 1, 256)
    }

    fn providers(ids: &[u32]) -> Vec<ProviderId> {
        ids.iter().map(|i| ProviderId(*i)).collect()
    }

    fn written(pages: &[(u64, &[u32])]) -> BTreeMap<u64, Vec<ProviderId>> {
        pages.iter().map(|(p, ids)| (*p, providers(ids))).collect()
    }

    /// One write of pages `0..pages` on two providers each, but for the last
    /// page, which a fail-over left one replica short: the tree is full, and
    /// its root carries no map, so a read jumps from the root to the leaves.
    fn one_write_a_replica_short(pages: u64) -> BTreeMap<u64, Vec<ProviderId>> {
        (0..pages)
            .map(|p| {
                let ids = [p as u32, p as u32 + 1];
                let replicas = if p + 1 < pages { &ids[..] } else { &ids[..1] };
                (p, providers(replicas))
            })
            .collect()
    }

    /// One write of pages `0..pages`, one provider each: the root is full
    /// and carries the page map.
    fn one_write(pages: u64) -> BTreeMap<u64, Vec<ProviderId>> {
        (0..pages).map(|p| (p, providers(&[p as u32]))).collect()
    }

    /// Brute-force reference model: page index -> providers, per version.
    fn check_matches(
        store: &MetadataStore,
        root: NodeKey,
        span: u64,
        expected: &BTreeMap<u64, Vec<ProviderId>>,
        num_pages: u64,
    ) {
        let got = lookup_range(store, Some(root), span, 0, num_pages.saturating_sub(1)).unwrap();
        assert_eq!(got.len() as u64, num_pages);
        for meta in got {
            let exp = expected.get(&meta.page).cloned().unwrap_or_default();
            assert_eq!(meta.providers, exp, "page {} providers mismatch", meta.page);
        }
    }

    #[test]
    fn single_page_blob() {
        let s = store();
        let w = written(&[(0, &[1, 2])]);
        let root = build_version(&s, BlobId(0), Version(1), PrevTree::empty(), 1, &w).unwrap();
        let got = lookup_range(&s, Some(root), 1, 0, 0).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].page, 0);
        assert_eq!(got[0].providers, providers(&[1, 2]));
        assert_eq!(got[0].created, Some(Version(1)));
    }

    #[test]
    fn full_write_then_partial_overwrite_shares_subtrees() {
        let s = store();
        // v1: pages 0..8 all written to provider 0.
        let w1: BTreeMap<_, _> = (0..8).map(|p| (p, providers(&[0]))).collect();
        let root1 = build_version(&s, BlobId(1), Version(1), PrevTree::empty(), 8, &w1).unwrap();
        let after_v1 = s.stats().nodes_written;
        // 8 leaves + 7 inner nodes, published as one batch.
        assert_eq!(after_v1, 15);
        assert_eq!(s.stats().batch_flushes, 1);

        // v2: overwrite pages 2..4 with provider 1.
        let w2 = written(&[(2, &[1]), (3, &[1])]);
        let prev = PrevTree {
            root: Some(root1),
            span: 8,
        };
        let root2 = build_version(&s, BlobId(1), Version(2), prev, 8, &w2).unwrap();
        let v2_new_nodes = s.stats().nodes_written - after_v1;
        // Only 2 leaves + the path to the root (inner nodes covering spans
        // 2, 4, 8) are new: 5 nodes. Everything else is shared.
        assert_eq!(
            v2_new_nodes, 5,
            "path copying should create only the changed path"
        );

        // Both versions read correctly.
        let mut expected1: BTreeMap<u64, Vec<ProviderId>> =
            (0..8).map(|p| (p, providers(&[0]))).collect();
        check_matches(&s, root1, 8, &expected1, 8);
        expected1.insert(2, providers(&[1]));
        expected1.insert(3, providers(&[1]));
        check_matches(&s, root2, 8, &expected1, 8);
    }

    #[test]
    fn append_grows_the_tree_and_shares_the_old_root() {
        let s = store();
        // v1: 4 pages.
        let w1: BTreeMap<_, _> = (0..4).map(|p| (p, providers(&[0]))).collect();
        let root1 = build_version(&s, BlobId(2), Version(1), PrevTree::empty(), 4, &w1).unwrap();
        let after_v1 = s.stats().nodes_written;

        // v2: append 4 more pages; span grows 4 -> 8.
        let w2: BTreeMap<_, _> = (4..8).map(|p| (p, providers(&[1]))).collect();
        let prev = PrevTree {
            root: Some(root1),
            span: 4,
        };
        let root2 = build_version(&s, BlobId(2), Version(2), prev, 8, &w2).unwrap();
        let v2_new = s.stats().nodes_written - after_v1;
        // New metadata records: 4 leaves for pages 4..8, inner nodes covering
        // (4,2), (6,2), (4,4), and the new root (0,8) = 8 records. The
        // wrapper that temporarily extended the old root to span 8 shares the
        // root's coordinates and collapses with it inside the write batch
        // before anything reaches the DHT. The old subtree (0,4) is shared
        // untouched.
        assert_eq!(v2_new, 8);

        let expected1: BTreeMap<_, _> = (0..4).map(|p| (p, providers(&[0]))).collect();
        check_matches(&s, root1, 4, &expected1, 4);
        let mut expected2 = expected1;
        for p in 4..8 {
            expected2.insert(p, providers(&[1]));
        }
        check_matches(&s, root2, 8, &expected2, 8);
    }

    #[test]
    fn sparse_write_leaves_holes() {
        let s = store();
        // First write lands at pages 5..7 of an empty blob: pages 0..5 are holes.
        let w = written(&[(5, &[3]), (6, &[3])]);
        let span = next_power_of_two(7);
        let root = build_version(&s, BlobId(3), Version(1), PrevTree::empty(), span, &w).unwrap();
        let got = lookup_range(&s, Some(root), span, 0, 6).unwrap();
        assert_eq!(got.len(), 7);
        for meta in got {
            if meta.page == 5 || meta.page == 6 {
                assert_eq!(meta.providers, providers(&[3]));
                assert_eq!(meta.created, Some(Version(1)));
            } else {
                assert!(
                    meta.providers.is_empty(),
                    "page {} should be a hole",
                    meta.page
                );
                assert_eq!(meta.created, None);
            }
        }
    }

    #[test]
    fn lookup_subrange_only_returns_requested_pages() {
        let s = store();
        let w: BTreeMap<_, _> = (0..16).map(|p| (p, providers(&[p as u32]))).collect();
        let root = build_version(&s, BlobId(4), Version(1), PrevTree::empty(), 16, &w).unwrap();
        let got = lookup_range(&s, Some(root), 16, 5, 9).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].page, 5);
        assert_eq!(got[4].page, 9);
        for meta in got {
            assert_eq!(meta.providers, providers(&[meta.page as u32]));
        }
    }

    #[test]
    fn empty_tree_lookup_is_all_holes() {
        let s = store();
        let got = lookup_range(&s, None, 0, 0, 3).unwrap();
        assert_eq!(got.len(), 4);
        assert!(got
            .iter()
            .all(|m| m.providers.is_empty() && m.created.is_none()));
    }

    #[test]
    fn created_version_tracks_the_writing_version_across_snapshots() {
        let s = store();
        // v1 writes pages 0..4; v2 rewrites page 2 only.
        let w1: BTreeMap<_, _> = (0..4).map(|p| (p, providers(&[0]))).collect();
        let root1 = build_version(&s, BlobId(6), Version(1), PrevTree::empty(), 4, &w1).unwrap();
        let w2 = written(&[(2, &[1])]);
        let prev = PrevTree {
            root: Some(root1),
            span: 4,
        };
        let root2 = build_version(&s, BlobId(6), Version(2), prev, 4, &w2).unwrap();
        let got = lookup_range(&s, Some(root2), 4, 0, 3).unwrap();
        assert_eq!(
            got[0].created,
            Some(Version(1)),
            "page 0 still carries the v1 image"
        );
        assert_eq!(
            got[2].created,
            Some(Version(2)),
            "page 2 was replaced by v2"
        );
        assert_eq!(got[3].created, Some(Version(1)));
    }

    #[test]
    fn many_versions_remain_readable() {
        let s = store();
        let blob = BlobId(9);
        let span = 8u64;
        let mut roots = Vec::new();
        let mut model: Vec<BTreeMap<u64, Vec<ProviderId>>> = Vec::new();
        let mut prev = PrevTree::empty();
        let mut current: BTreeMap<u64, Vec<ProviderId>> = BTreeMap::new();
        // 10 successive single-page writes, each a new version.
        for v in 1..=10u64 {
            let page = (v * 3) % 8;
            let w = written(&[(page, &[v as u32])]);
            let root = build_version(&s, blob, Version(v), prev, span, &w).unwrap();
            current.insert(page, providers(&[v as u32]));
            roots.push(root);
            model.push(current.clone());
            prev = PrevTree {
                root: Some(root),
                span,
            };
        }
        // Every historical version still reads exactly as it was.
        for (i, root) in roots.iter().enumerate() {
            check_matches(&s, *root, span, &model[i], 8);
        }
    }

    /// Build `pages` pages under a `pages`-page span one page per version:
    /// the last tree has the shape of a one-write tree, but every inner node
    /// shares a child with an older version, so none is full.
    fn one_page_per_version(s: &MetadataStore, blob: BlobId, pages: u64) -> NodeKey {
        let mut prev = PrevTree::empty();
        for page in 0..pages {
            let w = written(&[(page, &[page as u32])]);
            let root = build_version(s, blob, Version(page + 1), prev, pages, &w).unwrap();
            prev = PrevTree {
                root: Some(root),
                span: pages,
            };
        }
        prev.root.unwrap()
    }

    #[test]
    fn batched_lookup_matches_the_walk_and_pays_one_round_trip_per_level() {
        let writer = store();
        let root = one_page_per_version(&writer, BlobId(11), 32);
        // A second client of the same DHT, cold for each descent: the
        // writer's publish pre-warm would answer both from its cache.
        let s = MetadataStore::with_dht(writer.dht().clone(), 256);

        let walk_before = s.stats();
        let walked = lookup_range_walk(&s, Some(root), 32, 0, 31).unwrap();
        let walk_after = s.stats();
        s.drop_cached_nodes();
        let batched = lookup_range(&s, Some(root), 32, 0, 31).unwrap();
        let batch_after = s.stats();

        assert_eq!(walked, batched, "BFS descent must match the reference walk");
        // The walk pays one DHT get per visited node (63 for a full 32-page
        // tree); the BFS descent pays at most providers-per-level × depth.
        let walk_rts = walk_after.dht_read_round_trips - walk_before.dht_read_round_trips;
        let batch_rts = batch_after.dht_read_round_trips - walk_after.dht_read_round_trips;
        assert_eq!(walk_rts, 63);
        assert!(
            batch_rts <= 6 * 3,
            "BFS should cost at most depth x providers round trips, got {batch_rts}"
        );
        assert_eq!(
            batch_after.batch_lookups - walk_after.batch_lookups,
            6,
            "one get_nodes call per tree level"
        );
        // And the reduction clears the 60% bar by a wide margin.
        assert!((batch_rts as f64) < 0.4 * walk_rts as f64);
    }

    #[test]
    fn a_cold_read_of_one_write_jumps_from_the_full_root_to_the_leaves() {
        let writer = store();
        let w = one_write_a_replica_short(32);
        let root =
            build_version(&writer, BlobId(11), Version(1), PrevTree::empty(), 32, &w).unwrap();
        assert_eq!(writer.get_node(root).unwrap(), TreeNode::Full { map: None });
        let s = MetadataStore::with_dht(writer.dht().clone(), 256);

        let walked = lookup_range_walk(&s, Some(root), 32, 0, 31).unwrap();
        // The walk still reads every stored node, full ones included.
        assert_eq!(s.stats().nodes_read, 63);
        s.drop_cached_nodes();
        let before = s.stats();
        let batched = lookup_range(&s, Some(root), 32, 0, 31).unwrap();
        let after = s.stats();
        assert_eq!(walked, batched);
        // The root, then its 32 leaves in one batch.
        assert_eq!(after.nodes_read - before.nodes_read, 33);
        assert_eq!(after.batch_lookups - before.batch_lookups, 2);
        assert!(after.dht_read_round_trips - before.dht_read_round_trips <= 1 + 3);
    }

    #[test]
    fn a_cold_read_of_one_write_resolves_its_pages_at_the_mapped_root() {
        let writer = store();
        let w = one_write(32);
        let root =
            build_version(&writer, BlobId(11), Version(1), PrevTree::empty(), 32, &w).unwrap();
        let map = PageMap::of_pages(w.values().map(Vec::as_slice));
        assert_eq!(writer.get_node(root).unwrap(), TreeNode::Full { map });
        // Every full node below the root is stored, and stores nothing.
        for half in root.halves() {
            assert_eq!(writer.get_node(half).unwrap(), TreeNode::Full { map: None });
        }
        let s = MetadataStore::with_dht(writer.dht().clone(), 256);

        let walked = lookup_range_walk(&s, Some(root), 32, 0, 31).unwrap();
        // The walk still reads every stored node.
        assert_eq!(s.stats().nodes_read, 63);
        s.drop_cached_nodes();
        let before = s.stats();
        let batched = lookup_range(&s, Some(root), 32, 0, 31).unwrap();
        let after = s.stats();
        assert_eq!(walked, batched);
        // The root alone, in one batch and one round trip.
        assert_eq!(after.nodes_read - before.nodes_read, 1);
        assert_eq!(after.cache_misses - before.cache_misses, 1);
        assert_eq!(after.batch_lookups - before.batch_lookups, 1);
        assert_eq!(after.dht_read_round_trips - before.dht_read_round_trips, 1);
        // Warm, a sub-range is one cache hit.
        let got = lookup_range(&s, Some(root), 32, 5, 9).unwrap();
        assert_eq!(got[..], walked[5..10]);
        let warm = s.stats();
        assert_eq!(warm.nodes_read - after.nodes_read, 1);
        assert_eq!(warm.cache_hits - after.cache_hits, 1);
        assert_eq!(warm.dht_read_round_trips, after.dht_read_round_trips);
    }

    #[test]
    fn only_the_topmost_full_node_of_a_write_carries_a_map() {
        let s = store();
        let blob = BlobId(22);
        let key = |v, offset, span| NodeKey {
            blob,
            version: Version(v),
            offset,
            span,
        };
        let map_of = |k: NodeKey| match s.get_node(k).unwrap() {
            TreeNode::Full { map } => map,
            node => panic!("{k:?} is not full: {node:?}"),
        };
        // v1 fills an 8-page tree: the root is mapped, the full nodes below
        // it are not.
        let root1 =
            build_version(&s, blob, Version(1), PrevTree::empty(), 8, &one_write(8)).unwrap();
        assert!(map_of(root1).is_some());
        for k in [key(1, 0, 4), key(1, 4, 4), key(1, 2, 2)] {
            assert_eq!(map_of(k), None);
        }
        // v2 appends pages 8..12: its full subtree (8, 4) hangs below an
        // inner node, and the growth shares v1's mapped root as it is.
        let w2 = written(&[(8, &[1]), (9, &[2]), (10, &[3]), (11, &[4])]);
        let prev = PrevTree {
            root: Some(root1),
            span: 8,
        };
        let root2 = build_version(&s, blob, Version(2), prev, 16, &w2).unwrap();
        assert_eq!(
            s.get_node(root2).unwrap(),
            TreeNode::Inner {
                left: Some(root1),
                right: Some(key(2, 8, 8))
            }
        );
        assert!(map_of(key(2, 8, 4)).is_some());
        assert_eq!(map_of(key(2, 8, 2)), None);
        // v3 rewrites pages 0..4, one of them on a second replica: the full
        // (0, 4) has no map, nor does anything below it.
        let w3 = written(&[(0, &[5]), (1, &[5, 6]), (2, &[5]), (3, &[5])]);
        let prev = PrevTree {
            root: Some(root2),
            span: 16,
        };
        build_version(&s, blob, Version(3), prev, 16, &w3).unwrap();
        for k in [key(3, 0, 4), key(3, 0, 2), key(3, 2, 2)] {
            assert_eq!(map_of(k), None);
        }
    }

    #[test]
    fn a_missing_leaf_under_a_full_node_fails_the_read() {
        let writer = store();
        let w = one_write_a_replica_short(32);
        let blob = BlobId(19);
        let root = build_version(&writer, blob, Version(1), PrevTree::empty(), 32, &w).unwrap();
        let leaf = NodeKey {
            blob,
            version: Version(1),
            offset: 13,
            span: 1,
        };
        assert!(writer.remove_node(leaf).unwrap());
        for (first, last) in [(0, 31), (13, 13), (8, 15), (10, 13)] {
            writer.drop_cached_nodes();
            let got = lookup_range(&writer, Some(root), 32, first, last);
            assert!(
                matches!(got, Err(BlobSeerError::Metadata(_))),
                "[{first}, {last}]: {got:?}"
            );
            writer.drop_cached_nodes();
            assert!(lookup_range_walk(&writer, Some(root), 32, first, last).is_err());
        }
        // Ranges that do not reach the missing leaf still resolve.
        writer.drop_cached_nodes();
        assert_eq!(
            lookup_range(&writer, Some(root), 32, 0, 12).unwrap().len(),
            13
        );
    }

    #[test]
    fn a_mapped_root_answers_its_pages_without_reading_its_leaves() {
        let writer = store();
        let w = one_write(32);
        let blob = BlobId(19);
        let root = build_version(&writer, blob, Version(1), PrevTree::empty(), 32, &w).unwrap();
        let leaf = NodeKey {
            blob,
            version: Version(1),
            offset: 13,
            span: 1,
        };
        assert!(writer.remove_node(leaf).unwrap());
        for (first, last) in [(0, 31), (13, 13), (8, 15), (10, 13)] {
            writer.drop_cached_nodes();
            let got = lookup_range(&writer, Some(root), 32, first, last);
            assert_eq!(got.unwrap().len() as u64, last - first + 1);
            // The walk, which reads every stored node, still misses it.
            writer.drop_cached_nodes();
            assert!(lookup_range_walk(&writer, Some(root), 32, first, last).is_err());
        }
    }

    #[test]
    fn a_full_node_stored_at_a_leaf_is_corrupt_not_a_loop() {
        let s = store();
        let w = one_write_a_replica_short(4);
        let blob = BlobId(20);
        let root = build_version(&s, blob, Version(1), PrevTree::empty(), 4, &w).unwrap();
        let leaf = NodeKey {
            blob,
            version: Version(1),
            offset: 2,
            span: 1,
        };
        s.dht()
            .put(
                leaf.dht_key().as_bytes(),
                TreeNode::Full { map: None }.encode().into(),
            )
            .unwrap();
        s.drop_cached_nodes();
        assert!(lookup_range(&s, Some(root), 4, 0, 3).is_err());
        assert!(s.get_node(leaf).is_err());
    }

    #[test]
    fn a_stored_node_of_the_wrong_kind_fails_every_lookup() {
        // Pages 0..4 written one per version: page 2's leaf is (v3, 2, 1).
        let leaf = |page| NodeKey {
            blob: BlobId(23),
            version: Version(page + 1),
            offset: page,
            span: 1,
        };
        let wrong = [
            // Would drop page 2.
            TreeNode::Inner {
                left: None,
                right: None,
            },
            // Would report page 3 twice and page 2 never.
            TreeNode::Leaf {
                page: 3,
                providers: providers(&[3]),
            },
        ];
        for node in wrong {
            let s = store();
            let root = one_page_per_version(&s, BlobId(23), 4);
            s.dht()
                .put(leaf(2).dht_key().as_bytes(), node.encode().into())
                .unwrap();
            s.drop_cached_nodes();
            let lookups = [
                lookup_range(&s, Some(root), 4, 0, 3),
                lookup_range_walk(&s, Some(root), 4, 0, 3),
            ];
            for got in lookups {
                assert!(
                    matches!(got, Err(BlobSeerError::Metadata(_))),
                    "{node:?}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn batched_lookup_handles_holes_and_subranges_like_the_walk() {
        let s = store();
        // Sparse tree: pages 9, 10 and 20 written inside a 32-page span.
        let w = written(&[(9, &[1]), (10, &[2]), (20, &[3])]);
        let root = build_version(&s, BlobId(12), Version(1), PrevTree::empty(), 32, &w).unwrap();
        for (first, last) in [(0u64, 31u64), (9, 10), (11, 19), (0, 8), (20, 40), (35, 40)] {
            let walked = lookup_range_walk(&s, Some(root), 32, first, last).unwrap();
            let batched = lookup_range(&s, Some(root), 32, first, last).unwrap();
            assert_eq!(walked, batched, "range [{first}, {last}] diverged");
            assert_eq!(batched.len() as u64, last - first + 1);
        }
        // Empty tree: both report pure holes.
        assert_eq!(
            lookup_range_walk(&s, None, 0, 2, 5).unwrap(),
            lookup_range(&s, None, 0, 2, 5).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn empty_write_is_rejected() {
        let s = store();
        let w = BTreeMap::new();
        build_version(&s, BlobId(0), Version(1), PrevTree::empty(), 4, &w).unwrap();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_span_is_rejected() {
        let s = store();
        let w = written(&[(0, &[1])]);
        build_version(&s, BlobId(0), Version(1), PrevTree::empty(), 6, &w).unwrap();
    }

    #[test]
    fn out_of_span_and_shrinking_builds_are_errors() {
        let s = store();
        let build = |v, prev, span, w: &BTreeMap<u64, Vec<ProviderId>>| {
            build_version(&s, BlobId(0), Version(v), prev, span, w)
        };
        let invalid = |r: BlobResult<NodeKey>| matches!(r, Err(BlobSeerError::InvalidArgument(_)));
        assert!(invalid(build(
            1,
            PrevTree::empty(),
            4,
            &written(&[(4, &[1])])
        )));
        let w = written(&[(0, &[1])]);
        let root = build(1, PrevTree::empty(), 8, &w).unwrap();
        let prev = PrevTree {
            root: Some(root),
            span: 8,
        };
        assert!(invalid(build(2, prev, 4, &w)));
        assert_eq!(
            s.stats().nodes_written,
            4,
            "a refused build publishes nothing"
        );
    }

    #[test]
    fn an_empty_page_range_is_an_error_not_a_panic() {
        let s = store();
        let root = build_version(
            &s,
            BlobId(0),
            Version(1),
            PrevTree::empty(),
            4,
            &written(&[(0, &[1])]),
        )
        .unwrap();
        let invalid =
            |r: BlobResult<Vec<PageMeta>>| matches!(r, Err(BlobSeerError::InvalidArgument(_)));
        assert!(invalid(lookup_range(&s, Some(root), 4, 3, 2)));
        assert!(invalid(lookup_range_walk(&s, Some(root), 4, 3, 2)));
    }
}
