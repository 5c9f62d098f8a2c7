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
use crate::metadata::store::{check_slot, MetadataStore};
use crate::metadata::{NodeKey, PageMap, Slot, TreeNode};
use crate::types::{BlobId, ProviderId, Version};
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

/// Build the segment tree for `version` of `blob`.
///
/// * `prev` — the previous version's tree (for subtree sharing).
/// * `new_span` — span in pages of the new tree (power of two, large enough
///   to cover the blob's new size).
/// * `written` — for every page index modified by this write, the ordered
///   list of providers holding its replicas.
///
/// Of each subtree whose every page this write covers, only the top is
/// stored ([`TreeNode::Full`]), with the leaves below it when it has no page
/// map; the nodes between are implied. A subtree shared with `prev` is linked
/// by its key, or, where `prev` only implies it, by its anchor. The new nodes
/// are published to the metadata DHT as the version's one record
/// ([`MetadataStore::put_nodes`]) when the tree is complete; until then
/// nothing of the version is visible.
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
    let Some(&wlast) = written.keys().next_back() else {
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

    let ctx = BuildCtx {
        store,
        blob,
        version,
        prev,
        written,
    };
    let mut nodes = Vec::new();
    let root = build_node(&ctx, &mut nodes, 0, new_span, None, None)?;
    let root = root.ok_or_else(|| invalid("the root must overlap the written range"))?;
    // All or nothing: a publication that failed part way takes back what it
    // did store, so a failed build leaves no record behind.
    let published = store.put_nodes(&nodes);
    if published.is_err() {
        let keys: Vec<NodeKey> = nodes.iter().map(|(key, _)| *key).collect();
        let _ = store.remove_nodes(&keys);
    }
    published.map(|()| root)
}

struct BuildCtx<'a> {
    store: &'a MetadataStore,
    blob: BlobId,
    version: Version,
    prev: PrevTree,
    written: &'a BTreeMap<u64, Vec<ProviderId>>,
}

impl BuildCtx<'_> {
    /// How many pages of `[offset, offset + span)` this write covers.
    fn written_in(&self, offset: u64, span: u64) -> u64 {
        self.written.range(offset..offset + span).count() as u64
    }

    fn key(&self, offset: u64, span: u64) -> NodeKey {
        NodeKey {
            blob: self.blob,
            version: self.version,
            offset,
            span,
        }
    }

    /// The previous tree grown to `span`: its root under wrapper nodes of
    /// this version whose right halves are holes, stored into `nodes`. Only
    /// a grown tree's left spine the write does not reach needs them.
    fn wrap(&self, nodes: &mut Vec<(NodeKey, TreeNode)>, span: u64) -> Option<NodeKey> {
        let mut root = self.prev.root;
        let mut wrapped = self.prev.span;
        while wrapped < span {
            wrapped *= 2;
            let key = self.key(0, wrapped);
            nodes.push((
                key,
                TreeNode::Inner {
                    left: root,
                    right: None,
                },
            ));
            root = Some(key);
        }
        root
    }
}

/// Recursive path-copying build of the node at `(offset, span)`, into
/// `nodes`. `prev` is the previous version's node there, when known from
/// the parent, and `prev_node` the node stored under `prev.stored` when the
/// parent already read it (the anchor of an implied node).
///
/// Returns the parent's entry for the position: the key of the node this
/// build stored there, or the previous tree's entry for an untouched
/// subtree (the node's key, or its anchor's), or `None` for a hole. Where
/// the write covers every page, the node is the top of a full subtree and
/// nothing below it is built ([`store_full`]).
fn build_node(
    ctx: &BuildCtx<'_>,
    nodes: &mut Vec<(NodeKey, TreeNode)>,
    offset: u64,
    span: u64,
    prev: Option<Slot>,
    prev_node: Option<&TreeNode>,
) -> BlobResult<Option<NodeKey>> {
    // When the new tree is taller than the previous one, the previous root
    // reappears as the node covering (0, prev.span) down the left spine,
    // wrapped in holes above it.
    let grown = prev.is_none() && offset == 0 && ctx.prev.root.is_some() && span >= ctx.prev.span;
    let written = ctx.written_in(offset, span);
    if written == 0 {
        // Untouched subtree: share the previous node (or keep the hole).
        return Ok(if grown {
            ctx.wrap(nodes, span)
        } else {
            prev.map(|slot| slot.stored)
        });
    }
    if written == span {
        let key = ctx.key(offset, span);
        store_full(ctx, nodes, key);
        return Ok(Some(key));
    }
    let prev = match prev {
        None if grown && span == ctx.prev.span => ctx.prev.root.map(Slot::exact),
        prev => prev,
    };
    let prev_node = match (prev, prev_node) {
        (Some(_), Some(node)) => Some(node.clone()),
        (Some(slot), None) => {
            let node = ctx.store.get_node(slot.stored)?;
            check_slot(&slot, &node)?;
            Some(node)
        }
        (None, _) => None,
    };
    // Above the previous root, the left half is found by the grown-tree rule
    // one level down, and the right half is a hole.
    let prev_children = match (prev, &prev_node) {
        (Some(slot), Some(node)) => node.children(slot),
        _ => [None, None],
    };
    let key = ctx.key(offset, span);
    let mut entries = [None, None];
    for ((entry, child), half) in entries.iter_mut().zip(prev_children).zip(key.halves()) {
        // A node implied under the same anchor is read under the node in
        // hand.
        let same = child.zip(prev).is_some_and(|(c, p)| c.stored == p.stored);
        let known = prev_node.as_ref().filter(|_| same);
        *entry = build_node(ctx, nodes, half.offset, half.span, child, known)?;
    }
    let [left, right] = entries;
    nodes.push((key, TreeNode::Inner { left, right }));
    Ok(Some(key))
}

/// Store the top of a full subtree this build wrote: a written leaf, or a
/// full node with the page map of every page under it, taken from
/// `written`. Over pages with unequal replica counts the node has no map,
/// and the leaves below it are stored instead. The nodes between are
/// implied.
fn store_full(ctx: &BuildCtx<'_>, nodes: &mut Vec<(NodeKey, TreeNode)>, key: NodeKey) {
    let pages = ctx.written.range(key.offset..key.offset + key.span);
    if key.span > 1 {
        let map = PageMap::of_pages(pages.clone().map(|(_, providers)| providers.as_slice()));
        let mapped = map.is_some();
        nodes.push((key, TreeNode::Full { map }));
        if mapped {
            return;
        }
    }
    nodes.extend(pages.map(|(&page, providers)| {
        (
            key.leaf(page),
            TreeNode::Leaf {
                page,
                providers: providers.clone(),
            },
        )
    }));
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
/// [`MetadataStore::get_slots`] call (one `Dht::get_many` pass contacting
/// each responsible metadata provider once). At a [`TreeNode::Full`] node,
/// stored or implied under an anchor, the descent skips the levels below: a
/// node with a [`PageMap`] answers the requested pages under it itself, and
/// under one without (its pages have unequal replica counts) the leaves of
/// the requested pages are known from its key, so they join the next batch
/// directly. A range lookup therefore costs one batch per level down to the
/// first full node on each path, plus one for the leaves under a full node
/// without a map, instead of one round trip per visited node — the
/// read-side counterpart of the batched write publication.
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

    // Frontier of unresolved nodes overlapping the requested range. Holes
    // never enter it — they expand to zero pages immediately.
    let mut frontier: Vec<Slot> = Vec::new();
    match root {
        Some(key) if overlaps(0, covered_span, first_page, last_page) => {
            frontier.push(Slot::exact(key))
        }
        Some(_) => {}
        None => emit_holes(0, covered_span, first_page, last_page, &mut out),
    }
    while !frontier.is_empty() {
        let nodes = store.get_slots(&frontier)?;
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for (slot, node) in frontier.iter().zip(nodes) {
            let at = slot.at;
            let pages = at.offset.max(first_page)..=(at.offset + at.span - 1).min(last_page);
            match node {
                TreeNode::Leaf { page, providers } => {
                    if page >= first_page && page <= last_page {
                        let created = if providers.is_empty() {
                            None
                        } else {
                            Some(at.version)
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
                    for page in pages {
                        out.push(PageMeta {
                            page,
                            created: Some(at.version),
                            providers: map.page((page - slot.stored.offset) as usize).to_vec(),
                        });
                    }
                }
                TreeNode::Full { map: None } => {
                    // Every page under a full node is a leaf of its version:
                    // jump to the leaves of the requested pages. A missing
                    // one fails the batch like any missing child.
                    next.extend(pages.map(|page| Slot::exact(at.leaf(page))));
                }
                TreeNode::Inner { .. } => {
                    for (child, half) in node.children(*slot).into_iter().zip(at.halves()) {
                        if !overlaps(half.offset, half.span, first_page, last_page) {
                            continue;
                        }
                        match child {
                            Some(child) => next.push(child),
                            None => {
                                emit_holes(half.offset, half.span, first_page, last_page, &mut out)
                            }
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
/// [`MetadataStore::get_slots`] call (one DHT round trip each), through every
/// level of a full subtree as well: each implied node is read under its
/// anchor, and its children derived. Kept as the differential-testing oracle
/// for the batched descent and as the "before" measurement for the
/// read-batching experiments.
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
    let root = root.map(Slot::exact);
    collect(
        store,
        root,
        (0, covered_span),
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
    slot: Option<Slot>,
    (offset, span): (u64, u64),
    first: u64,
    last: u64,
    out: &mut Vec<PageMeta>,
) -> BlobResult<()> {
    // No overlap with the requested page interval.
    if last < offset || first >= offset + span {
        return Ok(());
    }
    let Some(slot) = slot else {
        emit_holes(offset, span, first, last, out);
        return Ok(());
    };
    let node = store.get_slots(&[slot])?.remove(0);
    match node {
        TreeNode::Leaf { page, providers } => {
            if page >= first && page <= last {
                let created = if providers.is_empty() {
                    None
                } else {
                    Some(slot.at.version)
                };
                out.push(PageMeta {
                    page,
                    created,
                    providers,
                });
            }
        }
        TreeNode::Full { map: Some(map) } if span == 1 => {
            // An implied leaf: the anchor's map is its only record.
            out.push(PageMeta {
                page: offset,
                created: Some(slot.at.version),
                providers: map.page((offset - slot.stored.offset) as usize).to_vec(),
            });
        }
        node => {
            for (child, half) in node.children(slot).into_iter().zip(slot.at.halves()) {
                collect(store, child, (half.offset, half.span), first, last, out)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::store::tests::put_raw;
    use crate::types::next_power_of_two;

    fn store() -> MetadataStore {
        crate::metadata::store::tests::standalone(3, 1, 256)
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
        // The full root alone, with the page map, published as one batch.
        assert_eq!(after_v1, 1);
        assert_eq!(s.stats().batch_flushes, 1);

        // v2: overwrite pages 2..4 with provider 1.
        let w2 = written(&[(2, &[1]), (3, &[1])]);
        let prev = PrevTree {
            root: Some(root1),
            span: 8,
        };
        let root2 = build_version(&s, BlobId(1), Version(2), prev, 8, &w2).unwrap();
        let v2_new_nodes = s.stats().nodes_written - after_v1;
        // Only the top of the written pages' full subtree, (2, 2), and the
        // inner nodes on the path to the root covering spans 4 and 8 are
        // new: 3 nodes. Everything else is shared, by anchor: v1 stored only
        // its root.
        assert_eq!(
            v2_new_nodes, 3,
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
        // New metadata records: the full (4, 4) with the map of pages 4..8,
        // and the new root (0, 8) = 2 records. The old root is shared at
        // (0, 4) untouched; the tree grew by one level, which the new root
        // covers, so no wrapper is stored.
        assert_eq!(v2_new, 2);

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
        // The walk reads each of the 63 nodes of a full 32-page tree alone,
        // but pays a DHT get only at the first node of each of the 32
        // versions: that get's record brings the version's whole path. The
        // BFS descent pays at most providers-per-level for each of its 6
        // levels, and fewer where a level's misses fall in fewer records:
        // 1, 1, 2, 4, 8 and 16 of them.
        let walk_rts = walk_after.dht_read_round_trips - walk_before.dht_read_round_trips;
        let batch_rts = batch_after.dht_read_round_trips - walk_after.dht_read_round_trips;
        assert_eq!(walk_after.nodes_read - walk_before.nodes_read, 63);
        assert_eq!(walk_rts, 32);
        // At most 1 + 1 + 2 + 3 + 3 + 3 = 13 over 3 providers; placement is
        // deterministic, and puts this tree's records at 11.
        assert_eq!(batch_rts, 11, "BFS should cost at most depth x providers");
        assert_eq!(
            batch_after.batch_lookups - walk_after.batch_lookups,
            6,
            "one get_nodes call per tree level"
        );
        // And the reduction clears the 60% bar against per-node gets by a
        // wide margin.
        assert!((batch_rts as f64) < 0.4 * 63.0);
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
        // The walk reads one node per tree node: the root for each node
        // implied under it, then the 32 stored leaves.
        assert_eq!(s.stats().nodes_read, 63);
        s.drop_cached_nodes();
        let before = s.stats();
        let batched = lookup_range(&s, Some(root), 32, 0, 31).unwrap();
        let after = s.stats();
        assert_eq!(walked, batched);
        // The root, then its 32 leaves in one batch. The root's record holds
        // the leaves too, but a full node's leaves enter the cache only when
        // asked for, so each level pays one get of the record.
        assert_eq!(after.nodes_read - before.nodes_read, 33);
        assert_eq!(after.batch_lookups - before.batch_lookups, 2);
        assert_eq!(after.cache_hits - before.cache_hits, 0);
        assert_eq!(after.dht_read_round_trips - before.dht_read_round_trips, 2);
    }

    #[test]
    fn a_cold_read_of_one_write_resolves_its_pages_at_the_mapped_root() {
        let writer = store();
        let w = one_write(32);
        let root =
            build_version(&writer, BlobId(11), Version(1), PrevTree::empty(), 32, &w).unwrap();
        let map = PageMap::of_pages(w.values().map(Vec::as_slice));
        assert_eq!(writer.get_node(root).unwrap(), TreeNode::Full { map });
        // Nothing below the root is stored.
        assert_eq!(writer.stats().nodes_written, 1);
        for half in root.halves() {
            assert!(writer.get_node(half).is_err());
        }
        let s = MetadataStore::with_dht(writer.dht().clone(), 256);

        let walked = lookup_range_walk(&s, Some(root), 32, 0, 31).unwrap();
        // The walk reads one node per tree node, the root for each one
        // implied under it.
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
        let stored = |k: NodeKey| s.get_node(k).is_ok();
        // v1 fills an 8-page tree: the root is mapped, and the full nodes
        // and leaves below it are implied, never stored.
        let root1 =
            build_version(&s, blob, Version(1), PrevTree::empty(), 8, &one_write(8)).unwrap();
        assert!(map_of(root1).is_some());
        for k in [key(1, 0, 4), key(1, 4, 4), key(1, 2, 2), key(1, 5, 1)] {
            assert!(!stored(k), "{k:?}");
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
        assert!(!stored(key(2, 8, 2)));
        // v3 rewrites pages 0..4, one of them on a second replica: the full
        // (0, 4) has no map and keeps its leaves, and the nodes between are
        // implied. The untouched half (4, 4) is v1's, linked by its anchor.
        let w3 = written(&[(0, &[5]), (1, &[5, 6]), (2, &[5]), (3, &[5])]);
        let prev = PrevTree {
            root: Some(root2),
            span: 16,
        };
        build_version(&s, blob, Version(3), prev, 16, &w3).unwrap();
        assert_eq!(map_of(key(3, 0, 4)), None);
        for k in [key(3, 0, 2), key(3, 2, 2)] {
            assert!(!stored(k), "{k:?}");
        }
        for page in 0..4 {
            assert!(stored(key(3, page, 1)));
        }
        assert_eq!(
            s.get_node(key(3, 0, 8)).unwrap(),
            TreeNode::Inner {
                left: Some(key(3, 0, 4)),
                right: Some(root1)
            }
        );
    }

    #[test]
    fn a_full_block_write_stores_its_top_and_the_path_above_it() {
        // 32 aligned pages into an empty blob: the mapped root alone.
        let s = store();
        let blob = BlobId(24);
        build_version(&s, blob, Version(1), PrevTree::empty(), 32, &one_write(32)).unwrap();
        assert_eq!(s.stats().nodes_written, 1);

        // 128 aligned pages into an 8 192-page blob: the block's top and the
        // six inner nodes above it.
        let s = store();
        let span = 8192;
        let root1 = build_version(
            &s,
            blob,
            Version(1),
            PrevTree::empty(),
            span,
            &one_write(span),
        )
        .unwrap();
        assert_eq!(s.stats().nodes_written, 1);
        let block: BTreeMap<u64, Vec<ProviderId>> =
            (1024..1152).map(|p| (p, providers(&[7]))).collect();
        let prev = PrevTree {
            root: Some(root1),
            span,
        };
        let root2 = build_version(&s, blob, Version(2), prev, span, &block).unwrap();
        assert_eq!(s.stats().nodes_written - 1, 7);

        // A one-page overwrite inside that block: its leaf and the 13 inner
        // nodes above it, every untouched half linked by one of the two
        // anchors.
        let before = s.stats().nodes_written;
        let prev = PrevTree {
            root: Some(root2),
            span,
        };
        let root3 =
            build_version(&s, blob, Version(3), prev, span, &written(&[(1100, &[9])])).unwrap();
        assert_eq!(s.stats().nodes_written - before, 14);

        // Each version reads back as written, cold.
        let cold = MetadataStore::with_dht(s.dht().clone(), 4096);
        for (root, v) in [(root1, 1), (root2, 2), (root3, 3)] {
            let got = lookup_range(&cold, Some(root), span, 1000, 1200).unwrap();
            for meta in got {
                let expected = match meta.page {
                    1100 if v == 3 => (3, vec![ProviderId(9)]),
                    1024..=1151 if v >= 2 => (2, vec![ProviderId(7)]),
                    p => (1, vec![ProviderId(p as u32)]),
                };
                assert_eq!(
                    (meta.created, meta.providers),
                    (Some(Version(expected.0)), expected.1),
                    "v{v} page {}",
                    meta.page
                );
            }
        }
    }

    #[test]
    fn an_anchor_that_does_not_contain_its_half_fails_every_lookup() {
        // v1 fills 32 pages (a mapped root), v2 rewrites page 5: v2's root
        // links v1's root as the anchor of its right half (16, 16).
        let blob = BlobId(25);
        let key = |v, offset, span| NodeKey {
            blob,
            version: Version(v),
            offset,
            span,
        };
        let mapped = |span: u64| TreeNode::Full {
            map: PageMap::of_pages((0..span).map(|_| [ProviderId(1)].as_slice())),
        };
        let cases = [
            ("misaligned", key(1, 8, 32), mapped(32)),
            ("narrower", key(1, 16, 8), mapped(8)),
            ("newer", key(3, 0, 32), mapped(32)),
            (
                "not full",
                key(1, 0, 32),
                TreeNode::Inner {
                    left: None,
                    right: None,
                },
            ),
        ];
        for (why, anchor, node) in cases {
            let s = store();
            let root1 =
                build_version(&s, blob, Version(1), PrevTree::empty(), 32, &one_write(32)).unwrap();
            let prev = PrevTree {
                root: Some(root1),
                span: 32,
            };
            let root2 =
                build_version(&s, blob, Version(2), prev, 32, &written(&[(5, &[2])])).unwrap();
            let TreeNode::Inner { left, right } = s.get_node(root2).unwrap() else {
                panic!("v2's root is inner");
            };
            assert_eq!(right, Some(root1));
            put_raw(&s, anchor, &node.encode());
            let relinked = TreeNode::Inner {
                left,
                right: Some(anchor),
            };
            put_raw(&s, root2, &relinked.encode());
            for (first, last) in [(0, 31), (16, 31), (20, 20)] {
                s.drop_cached_nodes();
                let got = lookup_range(&s, Some(root2), 32, first, last);
                assert!(
                    matches!(got, Err(BlobSeerError::Metadata(_))),
                    "{why} [{first}, {last}]: {got:?}"
                );
                s.drop_cached_nodes();
                let got = lookup_range_walk(&s, Some(root2), 32, first, last);
                assert!(
                    matches!(got, Err(BlobSeerError::Metadata(_))),
                    "{why}: {got:?}"
                );
            }
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
        assert_eq!(writer.remove_nodes(&[leaf]).unwrap(), 1);
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
        // The leaf was never stored: the map is its only record.
        assert_eq!(writer.remove_nodes(&[leaf]).unwrap(), 0);
        for (first, last) in [(0, 31), (13, 13), (8, 15), (10, 13)] {
            writer.drop_cached_nodes();
            let got = lookup_range(&writer, Some(root), 32, first, last).unwrap();
            assert_eq!(got.len() as u64, last - first + 1);
            // The walk reads the leaf under the root too.
            writer.drop_cached_nodes();
            let walked = lookup_range_walk(&writer, Some(root), 32, first, last).unwrap();
            assert_eq!(walked, got);
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
        put_raw(&s, leaf, &TreeNode::Full { map: None }.encode());
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
            put_raw(&s, leaf(2), &node.encode());
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
