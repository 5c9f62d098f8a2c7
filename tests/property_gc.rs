//! Property-based tests of reclamation. Safety: under random interleavings
//! of writes, appends, pins, unpins and GC cycles, no byte of any
//! *surviving* snapshot is ever lost — keep-last-K retention may only take
//! versions that fell out of the window and were not pinned, and everything
//! else must keep reading exactly as the in-memory model says it did when
//! published. Liveness: with deletes in the mix, storage holds exactly what
//! the surviving snapshots reach — no page, tree node or holder record
//! outlives the last version that references it. A full subtree is stored
//! as its top alone, the anchor that later versions link to: an anchor lives
//! exactly as long as some survivor reads a node under it, and no node it
//! implies is ever stored.

use blobseer::metadata::{NodeKey, Slot as TreeSlot, TreeNode};
use blobseer::provider::page_key;
use blobseer::{BlobId, BlobSeer, BlobSeerConfig, Version, WriteIntent};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// A reference model of a sparse, growing byte array.
fn apply_to_model(model: &mut Vec<u8>, offset: usize, data: &[u8]) {
    if offset + data.len() > model.len() {
        model.resize(offset + data.len(), 0);
    }
    model[offset..offset + data.len()].copy_from_slice(data);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gc_never_reclaims_a_surviving_snapshot(
        page_size in 16u64..200,
        keep in 1usize..4,
        ops in prop::collection::vec(
            (
                0usize..1_000,                            // write offset
                prop::collection::vec(any::<u8>(), 1..300), // payload
                0u8..4,                                   // 0: write, 1: append, 2: pin latest, 3: unpin oldest pin
            ),
            1..14,
        ),
    ) {
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_page_size(page_size)
                .with_gc_keep_last(keep),
        );
        let client = sys.client();
        let blob = client.create(None).unwrap();

        let mut model: Vec<u8> = Vec::new();
        // Version -> content at publication, for every version GC has not yet
        // been allowed to take. v0 is the empty blob.
        let mut alive: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        alive.insert(0, Vec::new());
        let mut retired: Vec<u64> = Vec::new();
        let mut pinned: Vec<u64> = Vec::new();

        for (offset, data, action) in &ops {
            match action {
                2 => {
                    let latest = client.latest_version(blob).unwrap().version;
                    sys.pin_snapshot(blob, latest).unwrap();
                    if !pinned.contains(&latest.0) {
                        pinned.push(latest.0);
                    }
                }
                3 => {
                    // An unpinned version becomes fair game for the next GC
                    // cycle below; the cutoff rule there picks it up.
                    if let Some(v) = pinned.first().copied() {
                        prop_assert!(sys.unpin_snapshot(blob, Version(v)).unwrap());
                        pinned.remove(0);
                    }
                }
                _ => {
                    let version = if *action == 1 {
                        let v = client.append(blob, data).unwrap();
                        let at = model.len();
                        apply_to_model(&mut model, at, data);
                        v
                    } else {
                        let v = client.write(blob, *offset as u64, data).unwrap();
                        apply_to_model(&mut model, *offset, data);
                        v
                    };
                    alive.insert(version.0, model.clone());
                }
            }

            // A GC cycle after every operation: the retention cutoff is the
            // keep-th-newest *still published* version (surviving pins
            // included), and everything older retires unless pinned.
            let report = sys.collect_garbage().unwrap();
            let visible: Vec<u64> = alive.keys().copied().collect();
            if visible.len() > keep {
                let cutoff = visible[visible.len() - keep];
                let expect_retired: Vec<u64> = visible
                    .iter()
                    .copied()
                    .filter(|v| *v < cutoff && !pinned.contains(v))
                    .collect();
                prop_assert_eq!(report.versions_retired as usize, expect_retired.len());
                for v in expect_retired {
                    alive.remove(&v);
                    retired.push(v);
                }
            } else {
                prop_assert_eq!(report.versions_retired, 0);
            }

            // Every surviving snapshot — pinned or in-window — reads exactly
            // as the model recorded it at publication.
            for (v, expected) in &alive {
                if expected.is_empty() {
                    prop_assert_eq!(client.version_info(blob, Version(*v)).unwrap().size, 0);
                    continue;
                }
                let got = client.read(blob, Version(*v), 0, expected.len() as u64).unwrap();
                prop_assert!(
                    got[..] == expected[..],
                    "version {} diverged after GC (keep={}, pinned={:?})",
                    v, keep, pinned
                );
            }
            // Retired snapshots are gone for good.
            for v in &retired {
                prop_assert!(client.version_info(blob, Version(*v)).is_err());
            }
        }

        // The latest version always matches the final model.
        let size = client.size(blob).unwrap();
        prop_assert_eq!(size, model.len() as u64);
        if size > 0 {
            prop_assert_eq!(client.read_latest(blob, 0, size).unwrap().to_vec(), model);
        }
    }
}

/// The keys of every stored tree node and the storage keys of every page
/// that some published version of a live blob reaches. The walk visits tree
/// nodes by their coordinates: a node implied under an anchor reaches the
/// anchor, and an implied leaf its page, but never a key of its own, which
/// must not be stored.
fn reachable(sys: &Arc<BlobSeer>) -> (BTreeSet<NodeKey>, BTreeSet<Vec<u8>>) {
    let (mut nodes, mut pages) = (BTreeSet::new(), BTreeSet::new());
    let mut seen: HashSet<NodeKey> = HashSet::new();
    let vm = sys.version_manager();
    for blob in vm.blob_ids() {
        for info in vm.published_versions(blob).unwrap() {
            let mut frontier: Vec<TreeSlot> = info.root.into_iter().map(TreeSlot::exact).collect();
            while let Some(slot) = frontier.pop() {
                if !seen.insert(slot.at) {
                    continue;
                }
                nodes.insert(slot.stored);
                let node = sys.metadata().get_slots(&[slot]).unwrap().remove(0);
                let page = page_key(slot.at.blob, slot.at.version, slot.at.offset);
                match &node {
                    TreeNode::Leaf { providers, .. } if !providers.is_empty() => {
                        pages.insert(page);
                    }
                    TreeNode::Full { .. } if slot.at.span == 1 => {
                        pages.insert(page);
                    }
                    _ => frontier.extend(node.children(slot).into_iter().flatten()),
                }
            }
        }
    }
    (nodes, pages)
}

/// Storage holds exactly what the surviving snapshots reach: the providers'
/// pages are the reachable pages (once each: no page replication), the DHT's
/// version records hold every reachable node and nothing else, each record
/// at the replication factor, and every holder record names a stored page.
/// Nodes are compared one by one, as the records list them: a dead node left
/// in a live record shows.
fn storage_is_exactly_reachable(sys: &Arc<BlobSeer>) -> Result<(), TestCaseError> {
    let (nodes, pages) = reachable(sys);
    let mut stored: Vec<Vec<u8>> = sys
        .provider_manager()
        .providers()
        .iter()
        .flat_map(|p| p.page_keys())
        .collect();
    stored.sort();
    prop_assert_eq!(&stored, &pages.iter().cloned().collect::<Vec<_>>());
    let held = stored_nodes(sys);
    prop_assert_eq!(&held, &nodes);
    let copies = sys.metadata().dht().key_copies();
    let replication = sys.config().metadata_replication;
    prop_assert!(copies.values().all(|&n| n == replication));
    for key in sys.provider_manager().announced_keys() {
        prop_assert!(pages.contains(&key), "a holder record outlived its page");
    }
    Ok(())
}

/// One blob of the reclamation property: its id, its current content, and
/// the content of every version retention has not taken.
struct Slot {
    blob: BlobId,
    model: Vec<u8>,
    alive: BTreeMap<u64, Vec<u8>>,
}

impl Slot {
    fn fresh(sys: &Arc<BlobSeer>) -> Slot {
        let blob = sys.client().create(None).unwrap();
        Slot {
            blob,
            model: Vec::new(),
            alive: BTreeMap::from([(0, Vec::new())]),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn storage_holds_exactly_what_surviving_snapshots_reach(
        page_size in 16u64..96,
        keep in 1usize..4,
        ops in prop::collection::vec(
            (
                0usize..3,                                // blob slot
                0usize..400,                              // write offset
                prop::collection::vec(any::<u8>(), 1..200), // payload
                0u8..7, // 0: write, 1: append, 2: pin latest, 3: GC, 4: delete the slot's blob, 5: delete_all, 6: write
            ),
            1..20,
        ),
    ) {
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_page_size(page_size)
                .with_gc_keep_last(keep),
        );
        let client = sys.client();
        let mut slots: Vec<Slot> = (0..3).map(|_| Slot::fresh(&sys)).collect();

        for (slot, offset, data, action) in &ops {
            match action {
                2 => {
                    let s = &slots[*slot];
                    let latest = client.latest_version(s.blob).unwrap().version;
                    sys.pin_snapshot(s.blob, latest).unwrap();
                }
                3 => {
                    sys.collect_garbage().unwrap();
                    // Retention took what fell out of the window and was not
                    // pinned; the model follows the version manager.
                    for s in &mut slots {
                        let published: BTreeSet<u64> = client
                            .versions(s.blob)
                            .unwrap()
                            .iter()
                            .map(|i| i.version.0)
                            .collect();
                        let latest = *s.alive.keys().next_back().unwrap();
                        prop_assert!(published.contains(&latest));
                        s.alive.retain(|v, _| published.contains(v));
                    }
                }
                4 => {
                    client.delete(slots[*slot].blob).unwrap();
                    slots[*slot] = Slot::fresh(&sys);
                }
                5 => {
                    let blobs: Vec<BlobId> = slots.iter().map(|s| s.blob).collect();
                    client.delete_all(&blobs).unwrap();
                    slots = (0..3).map(|_| Slot::fresh(&sys)).collect();
                }
                _ => {
                    let s = &mut slots[*slot];
                    let version = if *action == 1 {
                        let at = s.model.len();
                        apply_to_model(&mut s.model, at, data);
                        client.append(s.blob, data).unwrap()
                    } else {
                        apply_to_model(&mut s.model, *offset, data);
                        client.write(s.blob, *offset as u64, data).unwrap()
                    };
                    s.alive.insert(version.0, s.model.clone());
                }
            }

            storage_is_exactly_reachable(&sys)?;
            for s in &slots {
                for (v, expected) in &s.alive {
                    let info = client.version_info(s.blob, Version(*v)).unwrap();
                    prop_assert_eq!(info.size, expected.len() as u64);
                    if !expected.is_empty() {
                        let got = client.read(s.blob, Version(*v), 0, info.size).unwrap();
                        prop_assert!(got[..] == expected[..], "version {} diverged", v);
                    }
                }
            }
        }

        // Deleting everything leaves nothing behind.
        let blobs: Vec<BlobId> = slots.iter().map(|s| s.blob).collect();
        client.delete_all(&blobs).unwrap();
        storage_is_exactly_reachable(&sys)?;
        prop_assert_eq!(sys.metadata().dht().stats().total_entries, 0);
        prop_assert_eq!(sys.provider_manager().announced_pages(), 0);
    }
}

/// The nodes the metadata DHT's records hold, each once.
fn stored_nodes(sys: &Arc<BlobSeer>) -> BTreeSet<NodeKey> {
    sys.metadata().stored_nodes().unwrap().into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full-block writes, one-page overwrites inside them, aborted writes,
    /// retention and deletes, on 16-byte pages and 8-page blocks: after every
    /// step each survivor reads back its model and the DHT's records hold
    /// exactly the stored nodes the survivors reach (so none they only
    /// imply), and a GC's `nodes_removed` is the number of nodes that left
    /// them.
    #[test]
    fn anchors_live_exactly_as_long_as_a_survivor_reads_under_them(
        keep in 1usize..4,
        ops in prop::collection::vec(
            (
                0usize..2,   // blob slot
                0u64..32,    // page (a block is the page's 8-page block)
                any::<u8>(), // fill byte
                0u8..9, // 0-1: block write, 2: 2- or 4-page aligned run, 3-4: one page, 5: aborted write, 6: GC, 7: pin latest, 8: delete
            ),
            1..28,
        ),
    ) {
        const PAGE: u64 = 16;
        const BLOCK: u64 = 8 * PAGE;
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_page_size(PAGE)
                .with_gc_keep_last(keep),
        );
        let client = sys.client();
        let mut slots: Vec<Slot> = (0..2).map(|_| Slot::fresh(&sys)).collect();

        for (slot, page, byte, action) in &ops {
            let s = &mut slots[*slot];
            let write = |s: &mut Slot, offset: u64, len: u64| {
                let data = vec![*byte; len as usize];
                apply_to_model(&mut s.model, offset as usize, &data);
                let v = client.write(s.blob, offset, &data).unwrap();
                s.alive.insert(v.0, s.model.clone());
            };
            match action {
                0 | 1 => write(s, page / 8 * BLOCK, BLOCK),
                2 => {
                    let run = if byte % 2 == 0 { 2 } else { 4 };
                    write(s, page / run * run * PAGE, run * PAGE)
                }
                3 | 4 => write(s, page * PAGE, PAGE),
                5 => {
                    // An aborted write: its version aliases its predecessor.
                    // A write that finds no live machine aborts so before it
                    // stores anything (`client::tests::
                    // failed_write_aborts_its_ticket_so_later_writers_proceed`);
                    // here the machines stay up, as a dead one never returns.
                    let intent = WriteIntent::WriteAt {
                        offset: page * PAGE,
                        len: 16,
                    };
                    let vm = sys.version_manager();
                    let ticket = vm.reserve(s.blob, intent).unwrap();
                    vm.abort(&ticket).unwrap();
                }
                6 => {
                    let before = stored_nodes(&sys);
                    let report = sys.collect_garbage().unwrap();
                    let after = stored_nodes(&sys);
                    prop_assert!(after.is_subset(&before));
                    prop_assert_eq!(report.nodes_removed as usize, before.len() - after.len());
                    for s in &mut slots {
                        let published: BTreeSet<u64> = client
                            .versions(s.blob)
                            .unwrap()
                            .iter()
                            .map(|i| i.version.0)
                            .collect();
                        s.alive.retain(|v, _| published.contains(v));
                    }
                }
                7 => {
                    let latest = client.latest_version(s.blob).unwrap().version;
                    sys.pin_snapshot(s.blob, latest).unwrap();
                }
                _ => {
                    client.delete(s.blob).unwrap();
                    *s = Slot::fresh(&sys);
                }
            }

            // Exactly the stored keys survivors reach: none orphaned, and
            // no implied key, which no walk reaches as a stored one.
            storage_is_exactly_reachable(&sys)?;
            for s in &slots {
                for (v, expected) in &s.alive {
                    let info = client.version_info(s.blob, Version(*v)).unwrap();
                    prop_assert_eq!(info.size, expected.len() as u64);
                    if !expected.is_empty() {
                        let got = client.read(s.blob, Version(*v), 0, info.size).unwrap();
                        prop_assert!(got[..] == expected[..], "version {} diverged", v);
                    }
                }
            }
        }
    }
}
