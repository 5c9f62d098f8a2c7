//! HDFS's rack-aware replica placement policy.
//!
//! The paper contrasts BlobSeer's load-balancing page distribution with HDFS's
//! policy: "the first replica of a chunk is always written locally; for fault
//! tolerance, the second replica is stored on a datanode in the same rack as
//! the first replica, and the third copy is sent to a datanode belonging to a
//! different rack (randomly chosen)" (§IV-B). This module implements exactly
//! that policy (plus a uniform-random fallback used when the cluster is too
//! small to satisfy a constraint), so the baseline reproduces the write
//! hot-spot behaviour the paper measures. A datanode is a machine's
//! [`StorageNode`]: the policy skips machines that fail a heartbeat
//! ([`StorageNode::ping`]) and finds the writer's own by its host.

use dht::{DhtNodeId, StorageNode};
use parking_lot::Mutex;
use simcluster::topology::ClusterTopology;
use simcluster::NodeId;
use std::sync::Arc;

/// Deterministic xorshift generator so that experiment runs are reproducible.
#[derive(Debug)]
pub struct DeterministicRng {
    state: Mutex<u64>,
}

impl DeterministicRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        DeterministicRng {
            state: Mutex::new(seed.max(1)),
        }
    }

    /// Next pseudo-random value.
    pub fn next(&self) -> u64 {
        let mut s = self.state.lock();
        *s = simcluster::xorshift64(*s);
        *s
    }

    /// A pseudo-random index below `bound` (bound must be non-zero).
    pub fn below(&self, bound: usize) -> usize {
        (self.next() as usize) % bound
    }
}

/// The replica placement engine used by the namenode.
pub struct PlacementPolicy {
    topology: ClusterTopology,
    rng: DeterministicRng,
}

impl PlacementPolicy {
    /// Create a policy over the given topology.
    pub fn new(topology: &ClusterTopology, seed: u64) -> Self {
        PlacementPolicy {
            topology: topology.clone(),
            rng: DeterministicRng::new(seed),
        }
    }

    /// Choose `replication` datanodes for a chunk written by a client on
    /// `writer_node`:
    ///
    /// 1. a datanode co-located with the writer (or, failing that, the first
    ///    live datanode),
    /// 2. a different datanode in the same rack,
    /// 3. a datanode in a different rack, chosen at random,
    /// 4. further replicas: random live datanodes not yet chosen.
    pub fn choose(
        &self,
        datanodes: &[Arc<StorageNode>],
        replication: usize,
        writer_node: NodeId,
    ) -> Vec<DhtNodeId> {
        let live: Vec<&Arc<StorageNode>> = datanodes.iter().filter(|d| d.ping()).collect();
        if live.is_empty() {
            return Vec::new();
        }
        let replication = replication.min(live.len());
        let writer_rack = self.topology.rack_of(writer_node);
        let mut chosen: Vec<DhtNodeId> = Vec::with_capacity(replication);

        // First replica: local to the writer if possible.
        let local = live.iter().find(|d| d.host() == writer_node);
        match local {
            Some(d) => chosen.push(d.id()),
            None => {
                // No datanode on the writer's machine: HDFS picks a random
                // one; stay deterministic by using the seeded RNG.
                let idx = self.rng.below(live.len());
                chosen.push(live[idx].id());
            }
        }

        // Second replica: same rack as the writer, different datanode.
        if replication >= 2 {
            let same_rack: Vec<&&Arc<StorageNode>> = live
                .iter()
                .filter(|d| {
                    !chosen.contains(&d.id()) && self.topology.rack_of(d.host()) == writer_rack
                })
                .collect();
            if let Some(d) = pick(&self.rng, &same_rack) {
                chosen.push(d.id());
            }
        }

        // Third replica: a different rack, randomly chosen.
        if replication >= 3 && chosen.len() < replication {
            let other_rack: Vec<&&Arc<StorageNode>> = live
                .iter()
                .filter(|d| {
                    !chosen.contains(&d.id()) && self.topology.rack_of(d.host()) != writer_rack
                })
                .collect();
            if let Some(d) = pick(&self.rng, &other_rack) {
                chosen.push(d.id());
            }
        }

        // Fill any remaining slots with random live datanodes.
        while chosen.len() < replication {
            let remaining: Vec<&&Arc<StorageNode>> =
                live.iter().filter(|d| !chosen.contains(&d.id())).collect();
            match pick(&self.rng, &remaining) {
                Some(d) => chosen.push(d.id()),
                None => break,
            }
        }
        chosen
    }

    /// Order replica holders by proximity to a reader (closest first) — HDFS
    /// clients read from the nearest replica.
    pub fn order_by_proximity(
        &self,
        reader: NodeId,
        mut nodes: Vec<(DhtNodeId, NodeId)>,
    ) -> Vec<DhtNodeId> {
        nodes.sort_by_key(|(_, n)| self.topology.proximity(reader, *n));
        nodes.into_iter().map(|(d, _)| d).collect()
    }
}

fn pick<'a>(
    rng: &DeterministicRng,
    candidates: &[&'a &Arc<StorageNode>],
) -> Option<&'a Arc<StorageNode>> {
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.below(candidates.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 racks x 4 nodes, one datanode per node.
    fn setup() -> (ClusterTopology, Vec<Arc<StorageNode>>) {
        let topo = ClusterTopology::builder()
            .sites(1)
            .racks_per_site(2)
            .nodes_per_rack(4)
            .build();
        let hosts: Vec<NodeId> = topo.all_nodes().collect();
        let datanodes = StorageNode::fleet(&hosts);
        (topo, datanodes)
    }

    #[test]
    fn first_replica_is_local() {
        let (topo, datanodes) = setup();
        let policy = PlacementPolicy::new(&topo, 42);
        for writer in 0..8u32 {
            let replicas = policy.choose(&datanodes, 3, NodeId(writer));
            assert_eq!(replicas.len(), 3);
            assert_eq!(
                replicas[0],
                DhtNodeId(writer.into()),
                "first replica must be local"
            );
        }
    }

    #[test]
    fn second_replica_same_rack_third_other_rack() {
        let (topo, datanodes) = setup();
        let policy = PlacementPolicy::new(&topo, 7);
        let writer = NodeId(1); // rack 0 holds nodes 0..4
        for _ in 0..20 {
            let replicas = policy.choose(&datanodes, 3, writer);
            let rack_of = |d: DhtNodeId| topo.rack_of(datanodes[d.0 as usize].host());
            assert_eq!(rack_of(replicas[0]), topo.rack_of(writer));
            assert_eq!(
                rack_of(replicas[1]),
                topo.rack_of(writer),
                "second replica stays in rack"
            );
            assert_ne!(
                rack_of(replicas[2]),
                topo.rack_of(writer),
                "third replica leaves the rack"
            );
            // All replicas distinct.
            let unique: std::collections::HashSet<_> = replicas.iter().collect();
            assert_eq!(unique.len(), 3);
        }
    }

    /// The replica lists one seed draws for a fixed sequence of writers,
    /// pinned: the paper-scale HDFS sweeps replay this policy, so a change
    /// to how it filters or draws would move their figures. The last two
    /// writers come after node 2 dies, so writer 2's first replica is a
    /// seeded draw.
    #[test]
    fn one_seed_draws_pinned_replica_lists() {
        let (topo, datanodes) = setup();
        let policy = PlacementPolicy::new(&topo, 2010);
        let lists = |writers: &[u32]| -> Vec<Vec<_>> {
            writers
                .iter()
                .map(|w| {
                    let chosen = policy.choose(&datanodes, 3, NodeId(*w));
                    chosen.iter().map(|d| d.0).collect()
                })
                .collect()
        };
        let healthy = lists(&[0, 5, 3, 7, 1, 6]);
        datanodes[2].kill();
        let degraded = lists(&[2, 4]);
        let pinned_healthy = vec![
            vec![0, 3, 7],
            vec![5, 6, 3],
            vec![3, 0, 5],
            vec![7, 4, 3],
            vec![1, 0, 6],
            vec![6, 4, 3],
        ];
        assert_eq!(healthy, pinned_healthy);
        assert_eq!(degraded, vec![vec![5, 1, 4], vec![4, 6, 0]]);
    }

    #[test]
    fn replication_capped_by_live_datanodes() {
        let (topo, datanodes) = setup();
        let policy = PlacementPolicy::new(&topo, 3);
        let replicas = policy.choose(&datanodes[..2], 5, NodeId(0));
        assert_eq!(replicas.len(), 2);
    }

    #[test]
    fn dead_datanodes_are_skipped() {
        let (topo, datanodes) = setup();
        let policy = PlacementPolicy::new(&topo, 11);
        datanodes[0].kill();
        let replicas = policy.choose(&datanodes, 3, NodeId(0));
        assert!(
            !replicas.contains(&DhtNodeId(0)),
            "dead local datanode must be skipped"
        );
        assert_eq!(replicas.len(), 3);
    }

    #[test]
    fn no_live_datanodes_returns_empty() {
        let (topo, datanodes) = setup();
        for d in &datanodes {
            d.kill();
        }
        let policy = PlacementPolicy::new(&topo, 1);
        assert!(policy.choose(&datanodes, 3, NodeId(0)).is_empty());
    }

    #[test]
    fn reads_prefer_the_closest_replica() {
        let (topo, datanodes) = setup();
        let policy = PlacementPolicy::new(&topo, 5);
        let holders: Vec<(DhtNodeId, NodeId)> = vec![
            (DhtNodeId(7), NodeId(7)),
            (DhtNodeId(0), NodeId(0)),
            (DhtNodeId(2), NodeId(2)),
        ];
        // Reader on node 0: its own datanode first, then same-rack node 2,
        // then remote-rack node 7.
        let ordered = policy.order_by_proximity(NodeId(0), holders);
        assert_eq!(ordered, vec![DhtNodeId(0), DhtNodeId(2), DhtNodeId(7)]);
        let _ = datanodes;
    }

    #[test]
    fn deterministic_rng_is_reproducible() {
        let a = DeterministicRng::new(99);
        let b = DeterministicRng::new(99);
        let seq_a: Vec<u64> = (0..10).map(|_| a.next()).collect();
        let seq_b: Vec<u64> = (0..10).map(|_| b.next()).collect();
        assert_eq!(seq_a, seq_b);
        // below() respects its bound.
        for _ in 0..100 {
            assert!(a.below(7) < 7);
        }
    }
}
