//! Property-based tests for the DHT: it must behave exactly like an
//! in-memory map under arbitrary operation sequences, and its batch
//! operations like loops of the single-key ones. The binary keys BlobSeer
//! stores under must name what they encode and nothing else.

use blobseer::metadata::NodeKey;
use blobseer::provider::page_key;
use blobseer::types::InlineKey;
use blobseer::{BlobId, Version};
use bytes::Bytes;
use dht::{Dht, DhtConfig};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

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

    /// Node keys and page keys are injective over their tuples, never equal
    /// each other, and fit their bounds.
    #[test]
    fn binary_keys_are_injective_disjoint_and_bounded(
        tuples in prop::collection::vec(
            (field_strategy(), field_strategy(), field_strategy(), field_strategy()),
            1..200,
        ),
    ) {
        let mut nodes: HashMap<Vec<u8>, [u64; 4]> = HashMap::new();
        let mut pages: HashMap<Vec<u8>, [u64; 3]> = HashMap::new();
        for (a, b, c, d) in tuples {
            let node = node_key([a, b, c, d]).dht_key();
            prop_assert!(node.as_bytes().len() <= InlineKey::CAPACITY);
            if let Some(seen) = nodes.insert(node.as_bytes().to_vec(), [a, b, c, d]) {
                prop_assert_eq!(seen, [a, b, c, d]);
            }
            let page = page_key(BlobId(a), Version(b), c);
            prop_assert!(page.len() <= 1 + 3 * 10);
            if let Some(seen) = pages.insert(page, [a, b, c]) {
                prop_assert_eq!(seen, [a, b, c]);
            }
        }
        let node_keys: HashSet<&Vec<u8>> = nodes.keys().collect();
        prop_assert!(pages.keys().all(|page| !node_keys.contains(page)));
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
        let dht = Dht::new(DhtConfig { nodes: 5, replication, virtual_nodes: 32 });
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
                        dht.kill(live.remove(pick % live.len())).unwrap();
                        dht.repair();
                    }
                }
                Op::Join => live.push(dht.join()),
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
    /// only the round-trip count differs. One node, picked at random, is
    /// dead: either from before the writes (its groups are refused whole and
    /// fail over) or only for the reads (replication covers it).
    #[test]
    fn dht_batch_ops_match_single_op_loops(
        entries in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 0..32)),
            1..80,
        ),
        extra_keys in prop::collection::vec(any::<u8>(), 0..20),
        dead_node in 0usize..6,
        dead_before_writes in any::<bool>(),
    ) {
        let batched = Dht::new(DhtConfig { nodes: 5, replication: 3, virtual_nodes: 32 });
        let single = Dht::new(DhtConfig { nodes: 5, replication: 3, virtual_nodes: 32 });
        let kill = |dht: &Dht| {
            // 5 means nobody dies.
            if let Some(id) = dht.node_ids().get(dead_node) {
                dht.kill(*id).unwrap();
            }
        };
        let batch: Vec<(Vec<u8>, Bytes)> = entries
            .iter()
            .map(|(k, v)| (vec![*k], Bytes::from(v.clone())))
            .collect();
        if dead_before_writes {
            kill(&batched);
            kill(&single);
        }
        batched.put_many(&batch).unwrap();
        for (k, v) in &batch {
            single.put(k, v.clone()).unwrap();
        }
        if !dead_before_writes {
            kill(&batched);
            kill(&single);
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
