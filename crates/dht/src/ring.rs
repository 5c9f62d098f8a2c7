//! Consistent hashing ring with virtual nodes.
//!
//! Keys and node replicas are hashed onto a 64-bit circle; a key is owned by
//! the first node replica found walking clockwise from the key's position.
//! Virtual nodes (many ring positions per physical node) smooth out the load
//! distribution, and `successors` walks further around the circle to find the
//! `n` *distinct* physical nodes that hold a key's replicas — the standard
//! Dynamo/Chord construction.
//!
//! The circle is a sorted vector of positions, rebuilt only when a node
//! joins or leaves. A lookup is one binary search and a short walk from
//! there; positions are [`kvstore::fast_hash`]es, so placement is the same
//! in every process.

use crate::node::DhtNodeId;
use kvstore::fast_hash;

/// A key's position on the circle.
fn hash_key(key: &[u8]) -> u64 {
    fast_hash(key)
}

/// The position of virtual node `replica` of `node`. The constant keeps
/// vnode positions apart from key positions in pathological cases.
fn hash_vnode(node: DhtNodeId, replica: usize) -> u64 {
    fast_hash(&(node.0, replica as u64, 0x9E37_79B9_7F4A_7C15u64))
}

/// The consistent-hashing ring.
#[derive(Debug, Clone)]
pub struct HashRing {
    virtual_nodes: usize,
    /// (position on the circle, physical node), sorted by position, one
    /// entry per position.
    ring: Vec<(u64, DhtNodeId)>,
}

impl HashRing {
    /// Create an empty ring; each node added will occupy `virtual_nodes`
    /// positions.
    pub fn new(virtual_nodes: usize) -> Self {
        assert!(
            virtual_nodes >= 1,
            "at least one virtual node per node is required"
        );
        HashRing {
            virtual_nodes,
            ring: Vec::new(),
        }
    }

    /// Number of physical nodes on the ring.
    pub fn len(&self) -> usize {
        // Each physical node occupies exactly `virtual_nodes` positions, but
        // hash collisions could in principle merge two; count distinct ids.
        let mut ids: Vec<DhtNodeId> = self.ring.iter().map(|&(_, id)| id).collect();
        ids.sort();
        ids.dedup();
        ids.len()
    }

    /// True when the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Add a physical node (idempotent). Two nodes hashing to one position
    /// leave it to the smaller id, so the ring does not depend on the order
    /// nodes joined in.
    pub fn add_node(&mut self, node: DhtNodeId) {
        self.ring
            .extend((0..self.virtual_nodes).map(|r| (hash_vnode(node, r), node)));
        self.ring.sort_unstable();
        self.ring.dedup_by_key(|&mut (position, _)| position);
    }

    /// Remove a physical node (idempotent).
    pub fn remove_node(&mut self, node: DhtNodeId) {
        self.ring.retain(|&(_, id)| id != node);
    }

    /// The primary owner of `key`, or `None` if the ring is empty.
    pub fn primary(&self, key: &[u8]) -> Option<DhtNodeId> {
        self.successors(key, 1).into_iter().next()
    }

    /// The first `n` *distinct* physical nodes encountered walking clockwise
    /// from the key's position. Returns fewer than `n` if the ring has fewer
    /// distinct nodes.
    pub fn successors(&self, key: &[u8], n: usize) -> Vec<DhtNodeId> {
        if self.ring.is_empty() || n == 0 {
            return Vec::new();
        }
        let start = hash_key(key);
        let (before, after) = self
            .ring
            .split_at(self.ring.partition_point(|&(position, _)| position < start));
        let mut out: Vec<DhtNodeId> = Vec::with_capacity(n);
        // Walk from `start` to the end of the circle, then wrap around.
        for &(_, node) in after.iter().chain(before) {
            if !out.contains(&node) {
                out.push(node);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    /// The ring as it was before it became a sorted vector: a `BTreeMap`
    /// from position to node, walked with `range(start..)` then
    /// `range(..start)`. The oracle for `successors`.
    fn btree_successors(
        nodes: &[DhtNodeId],
        vnodes: usize,
        key: &[u8],
        n: usize,
    ) -> Vec<DhtNodeId> {
        let mut ring = BTreeMap::new();
        for &node in nodes {
            for r in 0..vnodes {
                ring.entry(hash_vnode(node, r)).or_insert(node);
            }
        }
        let start = hash_key(key);
        let mut out = Vec::new();
        for (_, node) in ring.range(start..).chain(ring.range(..start)) {
            if out.len() < n && !out.contains(node) {
                out.push(*node);
            }
        }
        out
    }

    #[test]
    fn successors_match_the_ordered_map_walk() {
        let nodes: Vec<DhtNodeId> = (0..7).map(DhtNodeId).collect();
        let mut ring = HashRing::new(16);
        for &node in &nodes {
            ring.add_node(node);
        }
        for i in 0..2000u32 {
            let key = i.to_le_bytes();
            for n in [1, 2, 3, 7, 9] {
                assert_eq!(
                    ring.successors(&key, n),
                    btree_successors(&nodes, 16, &key, n),
                    "key {i}, n {n}"
                );
            }
        }
    }

    #[test]
    fn successors_do_not_depend_on_the_order_nodes_joined_in() {
        let mut forward = HashRing::new(32);
        let mut backward = HashRing::new(32);
        let mut churned = HashRing::new(32);
        for i in 0..6 {
            forward.add_node(DhtNodeId(i));
            backward.add_node(DhtNodeId(5 - i));
            churned.add_node(DhtNodeId((i * 5) % 6));
        }
        // A node that leaves and rejoins lands where it was.
        churned.remove_node(DhtNodeId(3));
        churned.add_node(DhtNodeId(3));
        for i in 0..1000u32 {
            let key = format!("k{i}");
            let want = forward.successors(key.as_bytes(), 3);
            assert_eq!(backward.successors(key.as_bytes(), 3), want);
            assert_eq!(churned.successors(key.as_bytes(), 3), want);
        }
    }

    #[test]
    fn empty_ring_has_no_owners() {
        let ring = HashRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.primary(b"key"), None);
        assert!(ring.successors(b"key", 3).is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let mut ring = HashRing::new(8);
        ring.add_node(DhtNodeId(0));
        assert_eq!(ring.len(), 1);
        for i in 0..100 {
            assert_eq!(
                ring.primary(format!("key-{i}").as_bytes()),
                Some(DhtNodeId(0))
            );
        }
    }

    #[test]
    fn successors_are_distinct_physical_nodes() {
        let mut ring = HashRing::new(32);
        for i in 0..5 {
            ring.add_node(DhtNodeId(i));
        }
        for i in 0..50 {
            let succ = ring.successors(format!("k{i}").as_bytes(), 3);
            assert_eq!(succ.len(), 3);
            let unique: std::collections::HashSet<_> = succ.iter().collect();
            assert_eq!(unique.len(), 3);
        }
        // Asking for more replicas than nodes returns all nodes.
        assert_eq!(ring.successors(b"x", 10).len(), 5);
    }

    #[test]
    fn lookups_are_stable() {
        let mut ring = HashRing::new(16);
        for i in 0..4 {
            ring.add_node(DhtNodeId(i));
        }
        let first: Vec<_> = (0..100)
            .map(|i| ring.primary(format!("k{i}").as_bytes()))
            .collect();
        let second: Vec<_> = (0..100)
            .map(|i| ring.primary(format!("k{i}").as_bytes()))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn removing_a_node_only_moves_its_keys() {
        let mut ring = HashRing::new(64);
        for i in 0..6 {
            ring.add_node(DhtNodeId(i));
        }
        let keys: Vec<String> = (0..500).map(|i| format!("key-{i}")).collect();
        let before: HashMap<&String, DhtNodeId> = keys
            .iter()
            .map(|k| (k, ring.primary(k.as_bytes()).unwrap()))
            .collect();
        ring.remove_node(DhtNodeId(2));
        let mut moved = 0;
        for k in &keys {
            let after = ring.primary(k.as_bytes()).unwrap();
            if before[k] != after {
                moved += 1;
                // A key only moves if its previous owner was the removed node.
                assert_eq!(
                    before[k],
                    DhtNodeId(2),
                    "key {k} moved although its owner survived"
                );
            }
            assert_ne!(after, DhtNodeId(2), "removed node still owns key {k}");
        }
        assert!(
            moved > 0,
            "some keys should have been owned by the removed node"
        );
    }

    #[test]
    fn adding_nodes_is_idempotent() {
        let mut ring = HashRing::new(8);
        ring.add_node(DhtNodeId(7));
        ring.add_node(DhtNodeId(7));
        assert_eq!(ring.len(), 1);
        ring.remove_node(DhtNodeId(7));
        assert!(ring.is_empty());
        ring.remove_node(DhtNodeId(7)); // removing twice is fine
        assert!(ring.is_empty());
    }

    #[test]
    fn virtual_nodes_balance_load() {
        let mut ring = HashRing::new(128);
        for i in 0..8 {
            ring.add_node(DhtNodeId(i));
        }
        let mut counts: HashMap<DhtNodeId, usize> = HashMap::new();
        for i in 0..4000 {
            let owner = ring.primary(format!("object-{i}").as_bytes()).unwrap();
            *counts.entry(owner).or_insert(0) += 1;
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
    #[should_panic(expected = "at least one virtual node")]
    fn zero_virtual_nodes_rejected() {
        let _ = HashRing::new(0);
    }
}
