//! Versioned, DHT-backed metadata: the distributed segment tree.
//!
//! BlobSeer keeps "the information concerning the location of the pages for
//! each blob version [...] in a Distributed HashTable, managed by several
//! metadata providers" (paper §III-A). The data structure stored in that DHT
//! is a *segment tree per blob version*, organised so that consecutive
//! versions share the subtrees they have in common — writing a range creates
//! only the leaves for the written pages plus the inner nodes on the paths
//! from those leaves to the new root (path copying, as in any persistent
//! balanced structure). Old versions therefore remain readable forever at no
//! extra space cost beyond the nodes that actually changed.
//!
//! * [`NodeKey`] names a tree node: `(blob, version-created, offset, span)` in
//!   page units. A node is not a DHT entry of its own: every node a version
//!   creates is stored in that version's *record*, one DHT entry keyed by
//!   `(blob, version)` ([`NodeKey::record_key`]), so a write publishes one
//!   entry per replica however many nodes its path copies.
//! * [`TreeNode`] is the stored payload, one of three kinds:
//!   - an inner node holding the keys of its two children (either may be
//!     absent, representing a hole of zeroes). A child is the node at the
//!     half's coordinates, or an *anchor*: the stored top of an older full
//!     subtree that contains the half, wider than it;
//!   - a *full* node, the top of a subtree whose every page its own version
//!     wrote. It is the only node of that subtree stored above the leaves:
//!     the nodes below it are *implied* by its key and never stored
//!     ([`TreeNode::children`]). It carries a [`PageMap`], the providers of
//!     every page under it, so a read resolves those pages at it and no leaf
//!     below it is stored either; only when its pages' replica counts differ
//!     does it store nothing and keep its leaves;
//!   - a leaf holding the replica providers of one page.
//! * [`Slot`] is a node as a walk meets it: its own key, and the key it is
//!   read under, which is the anchor's for an implied node.
//! * [`store::MetadataStore`] maps nodes to records in the DHT and caches
//!   them node by node.
//! * [`segment_tree`] holds the build (write path) and lookup (read path)
//!   algorithms.

pub mod cache;
pub mod segment_tree;
pub mod store;

use crate::types::{BlobId, InlineKey, ProviderId, Version};
use std::sync::Arc;

/// The tag byte of a version record's DHT key (page keys carry another).
pub(crate) const RECORD_KEY_TAG: u8 = b'm';

/// Identity of one segment-tree node. Ordered by blob, version, offset and
/// span, so a version's nodes sort together, in their record's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeKey {
    /// Blob the node belongs to.
    pub blob: BlobId,
    /// Version that *created* this node (shared subtrees keep the version of
    /// the write that created them).
    pub version: Version,
    /// First page covered by the node.
    pub offset: u64,
    /// Number of pages covered (a power of two; 1 for leaves).
    pub span: u64,
}

impl NodeKey {
    /// The DHT key of the record this node is stored in, its version's: a
    /// tag byte and the varints of blob and version, built on the stack.
    /// Every node the version created shares it.
    pub fn record_key(&self) -> InlineKey {
        InlineKey::new(RECORD_KEY_TAG, &[self.blob.0, self.version.0])
    }

    /// The same version's leaf of `page`, one of this node's pages.
    pub fn leaf(&self, page: u64) -> NodeKey {
        NodeKey {
            offset: page,
            span: 1,
            ..*self
        }
    }

    /// The same version's keys of the two halves of this node's pages, left
    /// then right.
    pub fn halves(&self) -> [NodeKey; 2] {
        let span = self.span / 2;
        let left = NodeKey { span, ..*self };
        let right = NodeKey {
            offset: self.offset + span,
            ..left
        };
        [left, right]
    }
}

/// A tree node as a walk meets it: `at` is the node's own key, the version
/// that created it and the coordinates it sits at, and `stored` is the key it
/// is read under. The two are equal for a stored node. A node inside a full
/// subtree, below its top, is *implied*: never stored, it is read under the
/// top, its *anchor*, whose coordinates contain its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// The node's own key.
    pub at: NodeKey,
    /// The key of the stored node that answers for it.
    pub stored: NodeKey,
}

impl Slot {
    /// A stored node at its own coordinates.
    pub fn exact(key: NodeKey) -> Slot {
        Slot {
            at: key,
            stored: key,
        }
    }

    /// The node a parent's child entry `child` names at `half`, the
    /// coordinates of the parent's half: `child` itself, or, when `child` is
    /// an anchor wider than the half, the node it implies there.
    fn of_child(child: NodeKey, half: NodeKey) -> Slot {
        Slot {
            at: NodeKey {
                offset: half.offset,
                span: half.span,
                ..child
            },
            stored: child,
        }
    }

    /// Whether the node is implied under an anchor rather than stored.
    pub fn implied(&self) -> bool {
        self.at != self.stored
    }
}

/// Payload of a segment-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeNode {
    /// An inner node covering `span` pages, split into two halves. A `None`
    /// child means that half has never been written (reads return zeroes).
    /// A child is the node at the half's coordinates, or an anchor: the
    /// stored top of an older version's full subtree that contains the half,
    /// and under which the half's node is implied.
    Inner {
        left: Option<NodeKey>,
        right: Option<NodeKey>,
    },
    /// The top of a subtree whose every page the version in its key wrote:
    /// every node below it is full too, or a leaf, and implied by its key.
    /// A write stores only this top. With a map, the providers of every page
    /// under it when those pages all have the same number of replicas, it is
    /// all that is stored of the subtree; without one it costs one tag byte
    /// in the DHT and no payload in memory, and the leaves below it are
    /// stored.
    Full { map: Option<PageMap> },
    /// A leaf describing one page: the providers holding its replicas, in
    /// preference order. An empty provider list also denotes a hole.
    Leaf {
        page: u64,
        providers: Vec<ProviderId>,
    },
}

impl TreeNode {
    /// The two children, left then right, of the node at `slot`, this node
    /// being the one stored under `slot.stored`: the stored entries of an
    /// [`TreeNode::Inner`], each placed at its half, and for a
    /// [`TreeNode::Full`] the nodes implied at the halves, read under the
    /// same anchor, except the leaves below a node without a map, which are
    /// stored. A leaf has none, nor has a leaf implied under a mapped node.
    pub fn children(&self, slot: Slot) -> [Option<Slot>; 2] {
        if slot.at.span < 2 {
            return [None, None];
        }
        let [left_half, right_half] = slot.at.halves();
        match self {
            TreeNode::Inner { left, right } => [
                left.map(|c| Slot::of_child(c, left_half)),
                right.map(|c| Slot::of_child(c, right_half)),
            ],
            TreeNode::Full { map } => [left_half, right_half].map(|half| {
                Some(if half.span == 1 && map.is_none() {
                    Slot::exact(half)
                } else {
                    Slot {
                        at: half,
                        stored: slot.stored,
                    }
                })
            }),
            TreeNode::Leaf { .. } => [None, None],
        }
    }

    /// Serialize to a compact binary representation for the DHT.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(80);
        self.encode_into(&mut out);
        out
    }

    /// Append [`TreeNode::encode`]'s bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            TreeNode::Inner { left, right } => {
                out.push(0u8);
                encode_opt_key(out, left);
                encode_opt_key(out, right);
            }
            TreeNode::Full { map: None } => out.push(2u8),
            TreeNode::Full { map: Some(map) } => {
                out.push(3u8);
                out.push(map.stride);
                for p in map.providers.iter() {
                    out.extend_from_slice(&p.0.to_le_bytes());
                }
            }
            TreeNode::Leaf { page, providers } => {
                out.push(1u8);
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&(providers.len() as u32).to_le_bytes());
                for p in providers {
                    out.extend_from_slice(&p.0.to_le_bytes());
                }
            }
        }
    }

    /// Decode a node previously produced by [`TreeNode::encode`]. Returns
    /// `None` when the bytes are malformed.
    pub fn decode(data: &[u8]) -> Option<TreeNode> {
        let (&tag, rest) = data.split_first()?;
        match tag {
            0 => {
                let (left, rest) = decode_opt_key(rest)?;
                let (right, rest) = decode_opt_key(rest)?;
                if !rest.is_empty() {
                    return None;
                }
                Some(TreeNode::Inner { left, right })
            }
            1 => {
                if rest.len() < 12 {
                    return None;
                }
                let page = u64::from_le_bytes(rest[0..8].try_into().ok()?);
                let count = u32::from_le_bytes(rest[8..12].try_into().ok()?) as usize;
                let rest = &rest[12..];
                if rest.len() != count * 4 {
                    return None;
                }
                Some(TreeNode::Leaf {
                    page,
                    providers: decode_providers(rest).collect(),
                })
            }
            2 if rest.is_empty() => Some(TreeNode::Full { map: None }),
            3 => {
                let (&stride, rest) = rest.split_first()?;
                if rest.len() % 4 != 0 {
                    return None;
                }
                let providers = decode_providers(rest).collect();
                Some(TreeNode::Full {
                    map: Some(PageMap { providers, stride }),
                })
            }
            _ => None,
        }
    }

    /// Whether this node can be the one stored under `key`: a one-page key
    /// holds the leaf of its own page; a wider key holds an inner node whose
    /// present children are of the same blob and no newer version and each
    /// sit at its half or are an anchor that contains it (an aligned,
    /// power-of-two span no narrower than the half), or a full node whose
    /// map, if any, lists `stride` providers for each of its pages. A node of
    /// the wrong kind would make a descent drop, move or repeat pages, or
    /// loop at a leaf.
    pub fn fits(&self, key: NodeKey) -> bool {
        match self {
            TreeNode::Leaf { page, .. } => key.span == 1 && *page == key.offset,
            _ if key.span < 2 => false,
            TreeNode::Inner { left, right } => {
                let at = |child: &Option<NodeKey>, half: NodeKey| {
                    child.is_none_or(|c| {
                        c.blob == key.blob
                            && c.version <= key.version
                            && c.span.is_power_of_two()
                            && c.span >= half.span
                            && half.offset & !(c.span - 1) == c.offset
                    })
                };
                let [left_half, right_half] = key.halves();
                at(left, left_half) && at(right, right_half)
            }
            TreeNode::Full { map: None } => true,
            TreeNode::Full { map: Some(map) } => {
                map.stride > 0 && map.providers.len() as u64 == key.span * map.stride as u64
            }
        }
    }
}

/// The replica providers of every page under a full node, `stride` per page
/// in page order, in one shared list: a cache hit clones the `Arc`, not the
/// list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMap {
    providers: Arc<[ProviderId]>,
    stride: u8,
}

impl PageMap {
    /// The map of consecutive pages from their provider lists, in page
    /// order; `None` unless every list has the same length, between 1 and
    /// 255 (a fail-over can leave one page a replica short).
    pub fn of_pages<'a>(pages: impl IntoIterator<Item = &'a [ProviderId]>) -> Option<PageMap> {
        let mut pages = pages.into_iter().peekable();
        let stride = u8::try_from(pages.peek()?.len()).ok().filter(|&s| s > 0)?;
        let mut providers = Vec::new();
        for list in pages {
            if list.len() != stride as usize {
                return None;
            }
            providers.extend_from_slice(list);
        }
        Some(PageMap {
            providers: providers.into(),
            stride,
        })
    }

    /// The providers of the `index`-th page under the node, in preference
    /// order.
    pub fn page(&self, index: usize) -> &[ProviderId] {
        let stride = self.stride as usize;
        &self.providers[index * stride..][..stride]
    }
}

fn decode_providers(data: &[u8]) -> impl Iterator<Item = ProviderId> + '_ {
    data.chunks_exact(4)
        .map(|c| ProviderId(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
}

fn encode_opt_key(out: &mut Vec<u8>, key: &Option<NodeKey>) {
    match key {
        Some(k) => {
            out.push(1u8);
            out.extend_from_slice(&k.blob.0.to_le_bytes());
            out.extend_from_slice(&k.version.0.to_le_bytes());
            out.extend_from_slice(&k.offset.to_le_bytes());
            out.extend_from_slice(&k.span.to_le_bytes());
        }
        None => out.push(0u8),
    }
}

fn decode_opt_key(data: &[u8]) -> Option<(Option<NodeKey>, &[u8])> {
    let (&tag, rest) = data.split_first()?;
    match tag {
        0 => Some((None, rest)),
        1 => {
            if rest.len() < 32 {
                return None;
            }
            let blob = BlobId(u64::from_le_bytes(rest[0..8].try_into().ok()?));
            let version = Version(u64::from_le_bytes(rest[8..16].try_into().ok()?));
            let offset = u64::from_le_bytes(rest[16..24].try_into().ok()?);
            let span = u64::from_le_bytes(rest[24..32].try_into().ok()?);
            Some((
                Some(NodeKey {
                    blob,
                    version,
                    offset,
                    span,
                }),
                &rest[32..],
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u64, o: u64, s: u64) -> NodeKey {
        NodeKey {
            blob: BlobId(7),
            version: Version(v),
            offset: o,
            span: s,
        }
    }

    fn providers(ids: &[u32]) -> Vec<ProviderId> {
        ids.iter().map(|&i| ProviderId(i)).collect()
    }

    #[test]
    fn record_key_is_unique_per_version() {
        // Every node of a version shares its record; versions do not.
        assert_eq!(key(1, 0, 4).record_key(), key(1, 2, 2).record_key());
        assert_ne!(key(1, 0, 4).record_key(), key(2, 0, 4).record_key());
        let other_blob = NodeKey {
            blob: BlobId(8),
            ..key(1, 0, 4)
        };
        assert_ne!(key(1, 0, 4).record_key(), other_blob.record_key());
        // Fields that would concatenate alike as digits stay apart as
        // varints: blob 7 at version 23 is not blob 72 at version 3.
        let (a, b) = (
            key(23, 0, 1),
            NodeKey {
                blob: BlobId(72),
                ..key(3, 0, 1)
            },
        );
        assert_ne!(a.record_key(), b.record_key());
        // A tag and one byte per small field; large fields take more.
        assert_eq!(key(3, 8, 4).record_key().as_bytes(), b"m\x07\x03");
        assert_eq!(key(300, 0, 1).record_key().as_bytes(), b"m\x07\xac\x02");
    }

    #[test]
    fn virtual_nodes_balance_binary_node_keys() {
        // The records of 100 k versions, 100 blobs of 1 000, placed the way
        // the metadata DHT places them: every node still gets its share.
        let mut ring = dht::HashRing::new(128);
        for i in 0..8 {
            ring.add_node(dht::DhtNodeId(i));
        }
        let mut counts = std::collections::HashMap::new();
        for blob in 1..=100 {
            for v in 1..=1000 {
                let at = NodeKey {
                    blob: BlobId(blob),
                    ..key(v, 0, 1)
                };
                let owner = ring.primary(at.record_key().as_bytes()).unwrap();
                *counts.entry(owner).or_insert(0usize) += 1;
            }
        }
        let min = counts.values().min().copied().unwrap_or(0);
        let max = counts.values().max().copied().unwrap_or(0);
        assert_eq!(counts.len(), 8, "every node should own some keys");
        assert!(
            (max as f64) < (min as f64) * 3.0,
            "virtual nodes should balance load: min={min}, max={max}"
        );
    }

    #[test]
    fn inner_node_roundtrip() {
        let cases = vec![
            TreeNode::Inner {
                left: Some(key(1, 0, 2)),
                right: Some(key(2, 2, 2)),
            },
            TreeNode::Inner {
                left: None,
                right: Some(key(5, 4, 4)),
            },
            TreeNode::Inner {
                left: Some(key(9, 0, 1)),
                right: None,
            },
            TreeNode::Inner {
                left: None,
                right: None,
            },
        ];
        for node in cases {
            let decoded = TreeNode::decode(&node.encode()).unwrap();
            assert_eq!(decoded, node);
        }
    }

    #[test]
    fn leaf_node_roundtrip() {
        let cases = vec![
            TreeNode::Leaf {
                page: 0,
                providers: vec![],
            },
            TreeNode::Leaf {
                page: 42,
                providers: vec![ProviderId(3)],
            },
            TreeNode::Leaf {
                page: 7,
                providers: vec![ProviderId(0), ProviderId(5), ProviderId(9)],
            },
        ];
        for node in cases {
            let decoded = TreeNode::decode(&node.encode()).unwrap();
            assert_eq!(decoded, node);
        }
    }

    #[test]
    fn a_full_node_is_one_tag_byte_and_no_bigger_in_memory() {
        let full = TreeNode::Full { map: None };
        assert_eq!(full.encode(), vec![2]);
        assert_eq!(TreeNode::decode(&[2]), Some(full));
        assert_eq!(TreeNode::decode(&[2, 0]), None, "trailing bytes");
        // The kind takes a niche of `Inner`'s option tags, and its optional
        // map is a shared list and a byte: every cached node stays the size
        // of two child keys.
        assert_eq!(std::mem::size_of::<TreeNode>(), 80);
    }

    #[test]
    fn a_page_map_roundtrips_and_shares_its_list() {
        let lists = [
            providers(&[1, 2]),
            providers(&[3, 4]),
            providers(&[5, 6]),
            providers(&[7, 8]),
        ];
        let map = PageMap::of_pages(lists.iter().map(Vec::as_slice)).unwrap();
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(map.page(i), list.as_slice());
        }
        let node = TreeNode::Full { map: Some(map) };
        let bytes = node.encode();
        assert_eq!(bytes.len(), 2 + 8 * 4, "tag, stride, then the providers");
        assert_eq!(&bytes[..2], &[3, 2]);
        assert_eq!(TreeNode::decode(&bytes), Some(node.clone()));
        assert!(TreeNode::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(TreeNode::decode(&[3]).is_none(), "no stride");
        // A clone, as a cache hit makes, shares the list.
        let (TreeNode::Full { map: Some(a) }, TreeNode::Full { map: Some(b) }) =
            (&node, &node.clone())
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&a.providers, &b.providers));
    }

    #[test]
    fn a_page_map_needs_one_replica_count_between_1_and_255() {
        let of = |lists: &[Vec<ProviderId>]| PageMap::of_pages(lists.iter().map(Vec::as_slice));
        assert!(of(&[providers(&[1]), providers(&[2])]).is_some());
        // A fail-over left the second page one replica short.
        assert!(of(&[providers(&[1, 2]), providers(&[3])]).is_none());
        assert!(of(&[providers(&[]), providers(&[])]).is_none());
        assert!(of(&[]).is_none());
        let wide: Vec<u32> = (0..256).collect();
        assert!(of(&[providers(&wide)]).is_none());
        assert!(of(&[providers(&wide[..255])]).is_some());
    }

    #[test]
    fn a_node_fits_only_a_key_of_its_kind() {
        let leaf = |page| TreeNode::Leaf {
            page,
            providers: providers(&[1]),
        };
        let full = TreeNode::Full { map: None };
        let inner = |left, right| TreeNode::Inner { left, right };
        assert!(leaf(5).fits(key(3, 5, 1)));
        assert!(!leaf(6).fits(key(3, 5, 1)), "a leaf of another page");
        assert!(!leaf(4).fits(key(3, 4, 2)), "a leaf above a page");
        assert!(!full.fits(key(3, 5, 1)));
        assert!(!inner(None, None).fits(key(3, 5, 1)));
        assert!(full.fits(key(3, 4, 2)));
        // A page map's length and stride are checked through decoding, in
        // `store::tests`.
        // An inner node's children: its halves, no newer than itself.
        assert!(inner(None, None).fits(key(3, 4, 4)));
        assert!(inner(Some(key(1, 4, 2)), Some(key(3, 6, 2))).fits(key(3, 4, 4)));
        assert!(!inner(Some(key(4, 4, 2)), None).fits(key(3, 4, 4)), "newer");
        assert!(!inner(Some(key(1, 6, 2)), None).fits(key(3, 4, 4)), "moved");
        assert!(!inner(None, Some(key(1, 6, 1))).fits(key(3, 4, 4)), "span");
        let other_blob = NodeKey {
            blob: BlobId(8),
            ..key(1, 4, 2)
        };
        assert!(!inner(Some(other_blob), None).fits(key(3, 4, 4)));
        // An anchor: an older full node whose aligned span contains the
        // half, however much wider than the half, or than the node itself.
        assert!(inner(Some(key(1, 0, 8)), Some(key(2, 0, 8))).fits(key(3, 4, 4)));
        assert!(inner(Some(key(1, 4, 4)), Some(key(1, 0, 64))).fits(key(3, 4, 4)));
        assert!(!inner(Some(key(4, 0, 8)), None).fits(key(3, 4, 4)), "newer");
        assert!(
            !inner(Some(key(1, 2, 8)), None).fits(key(3, 4, 4)),
            "misaligned"
        );
        assert!(
            !inner(Some(key(1, 8, 8)), None).fits(key(3, 4, 4)),
            "elsewhere"
        );
        assert!(
            !inner(None, Some(key(1, 0, 6))).fits(key(3, 4, 4)),
            "not a power of two"
        );
        assert!(
            !inner(Some(key(1, 0, 4)), None).fits(key(3, 8, 8)),
            "the other half"
        );
        let other_anchor = NodeKey {
            blob: BlobId(8),
            ..key(1, 0, 8)
        };
        assert!(!inner(Some(other_anchor), None).fits(key(3, 4, 4)));
    }

    #[test]
    fn a_full_node_derives_its_children_from_its_key() {
        let exact = |k| Some(Slot::exact(k));
        let under = |at, anchor| Some(Slot { at, stored: anchor });
        let mapped = TreeNode::Full {
            map: PageMap::of_pages([[ProviderId(1)].as_slice(); 8]),
        };
        // The halves of a mapped full node are implied, down to the leaves,
        // and read under the node itself.
        let top = Slot::exact(key(4, 8, 8));
        assert_eq!(
            mapped.children(top),
            [
                under(key(4, 8, 4), top.stored),
                under(key(4, 12, 4), top.stored)
            ]
        );
        let low = Slot {
            at: key(4, 14, 2),
            stored: top.stored,
        };
        assert_eq!(
            mapped.children(low),
            [
                under(key(4, 14, 1), top.stored),
                under(key(4, 15, 1), top.stored)
            ]
        );
        // Without a map, the nodes above the leaves are implied and the
        // leaves are stored.
        let full = TreeNode::Full { map: None };
        assert_eq!(
            full.children(top),
            [
                under(key(4, 8, 4), top.stored),
                under(key(4, 12, 4), top.stored)
            ]
        );
        assert_eq!(
            full.children(low),
            [exact(key(4, 14, 1)), exact(key(4, 15, 1))]
        );
        // An inner node's entries: a node at the half, or an anchor that
        // implies the half's node.
        let inner = TreeNode::Inner {
            left: Some(key(1, 0, 32)),
            right: Some(key(2, 4, 4)),
        };
        let slot = Slot::exact(key(3, 0, 8));
        assert_eq!(
            inner.children(slot),
            [under(key(1, 0, 4), key(1, 0, 32)), exact(key(2, 4, 4))]
        );
        assert!(inner.children(slot)[0].unwrap().implied());
        assert!(!inner.children(slot)[1].unwrap().implied());
        let holes = TreeNode::Inner {
            left: None,
            right: None,
        };
        assert_eq!(holes.children(slot), [None, None]);
        let leaf = TreeNode::Leaf {
            page: 5,
            providers: vec![ProviderId(1)],
        };
        assert_eq!(leaf.children(Slot::exact(key(3, 5, 1))), [None, None]);
    }

    #[test]
    fn malformed_data_is_rejected() {
        assert!(TreeNode::decode(&[]).is_none());
        assert!(TreeNode::decode(&[9]).is_none());
        assert!(TreeNode::decode(&[1, 0, 0]).is_none());
        // Truncated inner node.
        let good = TreeNode::Inner {
            left: Some(key(1, 0, 2)),
            right: None,
        }
        .encode();
        assert!(TreeNode::decode(&good[..good.len() - 1]).is_none());
        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0);
        assert!(TreeNode::decode(&padded).is_none());
        // Leaf with inconsistent provider count.
        let mut leaf = TreeNode::Leaf {
            page: 1,
            providers: vec![ProviderId(1)],
        }
        .encode();
        leaf.truncate(leaf.len() - 2);
        assert!(TreeNode::decode(&leaf).is_none());
    }
}
