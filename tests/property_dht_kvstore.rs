//! Property-based tests for the DHT: it must behave exactly like an
//! in-memory map under arbitrary operation sequences, and its batch
//! operations like loops of the single-key ones. The binary keys BlobSeer
//! stores under must name what they encode and nothing else.

use blobseer::metadata::NodeKey;
use blobseer::provider::page_key;
use blobseer::types::InlineKey;
use blobseer::{BlobId, Version};
use bytes::Bytes;
use dht::{Dht, DhtNodeId, StorageNode};
use proptest::prelude::*;
use simcluster::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Numbers at the varint edges (one byte, two bytes, the widest) and
/// anywhere between.
fn field_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..3,
        126u64..130,
        16_380u64..16_390,
        Just(u64::MAX),
        Just(u64::MAX - 1),
        any::<u64>(),
    ]
}

fn node_key(fields: [u64; 4]) -> NodeKey {
    NodeKey {
        blob: BlobId(fields[0]),
        version: Version(fields[1]),
        offset: fields[2],
        span: fields[3],
    }
}

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
    /// Kill the live node at this index (modulo the live count).
    Kill(usize),
    Join,
    Repair,
}

/// A standalone DHT over `nodes` fresh machines, and their handles: a test
/// kills a member through its handle (node `i` has id `i`).
fn fleet(nodes: usize, replication: usize) -> (Dht, Vec<Arc<StorageNode>>) {
    let hosts: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
    let fleet = StorageNode::fleet(&hosts);
    (Dht::with_nodes(fleet.clone(), replication), fleet)
}

/// Keys come from a narrow band so deletes meet stored keys; the checks
/// still read all 256 one-byte keys.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..32, prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Op::Put(k, v)),
        (0u8..32, prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Op::Put(k, v)),
        (0u8..32).prop_map(Op::Delete),
        (0usize..16).prop_map(Op::Kill),
        Just(Op::Join),
        Just(Op::Repair),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Record keys are injective over their versions (every node of a
    /// version shares its record), page keys over their tuples; the two
    /// never equal each other, and both fit their bounds.
    #[test]
    fn binary_keys_are_injective_disjoint_and_bounded(
        tuples in prop::collection::vec(
            (field_strategy(), field_strategy(), field_strategy(), field_strategy()),
            1..200,
        ),
    ) {
        let mut records: HashMap<Vec<u8>, [u64; 2]> = HashMap::new();
        let mut pages: HashMap<Vec<u8>, [u64; 3]> = HashMap::new();
        for (a, b, c, d) in tuples {
            let record = node_key([a, b, c, d]).record_key();
            prop_assert!(record.as_bytes().len() <= InlineKey::CAPACITY);
            prop_assert_eq!(record, node_key([a, b, d, c]).record_key());
            if let Some(seen) = records.insert(record.as_bytes().to_vec(), [a, b]) {
                prop_assert_eq!(seen, [a, b]);
            }
            let page = page_key(BlobId(a), Version(b), c);
            prop_assert!(page.len() <= 1 + 3 * 10);
            if let Some(seen) = pages.insert(page, [a, b, c]) {
                prop_assert_eq!(seen, [a, b, c]);
            }
        }
        let record_keys: HashSet<&Vec<u8>> = records.keys().collect();
        prop_assert!(pages.keys().all(|page| !record_keys.contains(page)));
    }

    /// The DHT agrees with a plain HashMap after every step of any sequence
    /// of puts, deletes, kills, joins and repairs. Kills stop at R + 1 live
    /// nodes and are each followed by a repair, so every key keeps a live
    /// copy; a removed key must stay removed through later joins and
    /// repairs.
    #[test]
    fn dht_matches_hashmap_model(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let replication = 3;
        let (dht, mut nodes) = fleet(5, replication);
        let mut live = dht.node_ids();
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        let keys: Vec<[u8; 1]> = (0u8..=255).map(|k| [k]).collect();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    dht.put(&[*k], Bytes::from(v.clone())).unwrap();
                    model.insert(*k, v.clone());
                }
                Op::Delete(k) => {
                    dht.remove(&[*k]).unwrap();
                    model.remove(k);
                }
                Op::Kill(pick) => {
                    if live.len() > replication + 1 {
                        nodes[live.remove(pick % live.len()).0 as usize].kill();
                        dht.repair();
                    }
                }
                Op::Join => {
                    let id = DhtNodeId(nodes.len() as u64);
                    nodes.push(Arc::new(StorageNode::new(id, NodeId(0))));
                    live.push(dht.join(Arc::clone(&nodes[id.0 as usize])));
                }
                Op::Repair => {
                    dht.repair();
                }
            }
            let got = dht.get_many(&keys).unwrap();
            for (k, value) in (0u8..=255).zip(got) {
                prop_assert_eq!((k, value.map(|v| v.to_vec())), (k, model.get(&k).cloned()));
            }
        }
    }

    /// Batch `put_many`/`get_many` are observationally equivalent to loops of
    /// the single-key operations: same stored values, same missing keys —
    /// only the round-trip count differs. Up to two nodes of one key's
    /// replica set, picked at random, are dead: either from before the
    /// writes (their groups are refused whole and fail over, a key that
    /// lost both walking two ranks past its replica set) or only for the
    /// reads (replication covers it, and a missing key walks to the end of
    /// the ring).
    #[test]
    fn dht_batch_ops_match_single_op_loops(
        entries in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 0..32)),
            1..80,
        ),
        extra_keys in prop::collection::vec(any::<u8>(), 0..20),
        // (how many die, a key, the rank of its first victim, the gap to
        // the second)
        dead in (0usize..3, any::<u8>(), 0usize..3, 1usize..3),
        dead_before_writes in any::<bool>(),
    ) {
        let (dead_count, dead_key, dead_rank, dead_gap) = dead;
        let (batched, batched_nodes) = fleet(5, 3);
        let (single, single_nodes) = fleet(5, 3);
        // Both rings place keys alike, so the victims are the same ids.
        let replicas = batched.replicas_for(&[dead_key]);
        let victims: Vec<DhtNodeId> = [dead_rank, (dead_rank + dead_gap) % 3]
            .iter()
            .take(dead_count)
            .map(|&rank| replicas[rank])
            .collect();
        let kill = |nodes: &[Arc<StorageNode>]| {
            victims.iter().for_each(|id| nodes[id.0 as usize].kill());
        };
        let batch: Vec<(Vec<u8>, Bytes)> = entries
            .iter()
            .map(|(k, v)| (vec![*k], Bytes::from(v.clone())))
            .collect();
        if dead_before_writes {
            kill(&batched_nodes);
            kill(&single_nodes);
        }
        batched.put_many(&batch).unwrap();
        for (k, v) in &batch {
            single.put(k, v.clone()).unwrap();
        }
        if !dead_before_writes {
            kill(&batched_nodes);
            kill(&single_nodes);
        }
        prop_assert_eq!(batched.stats().total_entries, single.stats().total_entries);
        // Compare on every written key (duplicates included: later entries
        // win in both worlds) plus keys that may never have been written.
        let mut keys: Vec<Vec<u8>> = batch.iter().map(|(k, _)| k.clone()).collect();
        keys.extend(extra_keys.iter().map(|k| vec![*k]));
        let got = batched.get_many(&keys).unwrap();
        prop_assert_eq!(got.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            match single.get(k) {
                Ok(v) => {
                    prop_assert_eq!(got[i].clone().expect("batched get missing a key"), v.clone());
                    prop_assert_eq!(batched.get(k).unwrap(), v);
                }
                Err(_) => prop_assert!(got[i].is_none()),
            }
        }
    }

}
