//! Property-based tests of churn tolerance: random interleavings of writes,
//! reads, kills and joins on a `SimClock`, with the repair loop — never
//! `revive` — keeping the data durable.
//!
//! Two invariants must hold for every generated sequence:
//!
//! * **no committed version is ever lost** — every write/append that
//!   returned a version reads back byte-identical at the end, after all the
//!   churn has landed;
//! * **replication is eventually restored** — once the sequence quiesces, a
//!   repair pass on each tier reports nothing left under-replicated.
//!
//! The harness keeps kills survivable (a tier is never dropped below its
//! replication factor) and runs a repair pass after every kill, so failures
//! do not pile up faster than re-replication — the regime the paper's
//! replication argument assumes.

use blobseer::{BlobSeer, BlobSeerConfig, ProviderId, Version};
use proptest::prelude::*;
use simcluster::{ClusterTopology, NodeId, SimClock};
use std::sync::Arc;
use std::time::Duration;

/// A reference model of a sparse, growing byte array.
fn apply_to_model(model: &mut Vec<u8>, offset: usize, data: &[u8]) {
    if offset + data.len() > model.len() {
        model.resize(offset + data.len(), 0);
    }
    model[offset..offset + data.len()].copy_from_slice(data);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random write/read/kill/join sequences: committed versions stay
    /// readable and a final repair pass restores full replication.
    #[test]
    fn committed_versions_survive_random_churn(
        ops in prop::collection::vec(
            (0u8..6, 0usize..10_000, prop::collection::vec(any::<u8>(), 1..300)),
            1..14,
        ),
    ) {
        let providers = 6u32;
        let replication = 2usize;
        let clock = Arc::new(SimClock::new());
        let topo = ClusterTopology::flat(providers);
        let provider_nodes: Vec<NodeId> = topo.all_nodes().collect();
        let sys = BlobSeer::with_topology_and_clock(
            BlobSeerConfig::for_tests()
                .with_providers(providers as usize)
                .with_page_size(64)
                .with_page_replication(replication),
            &topo,
            &provider_nodes,
            Arc::clone(&clock) as Arc<dyn simcluster::Clock>,
        );
        let pm = sys.provider_manager();
        let dht = sys.metadata().dht();
        let client = sys.client();
        let blob = client.create(None).unwrap();

        let mut live_providers: Vec<ProviderId> = (0..providers).map(ProviderId).collect();
        let mut live_dht = dht.node_ids();
        let mut join_node = 0u32;
        let mut model: Vec<u8> = Vec::new();
        let mut snapshots: Vec<(Version, Vec<u8>)> = Vec::new();

        for (kind, pick, data) in &ops {
            clock.advance(Duration::from_millis(100));
            match kind {
                0 => {
                    let v = client.append(blob, data).unwrap();
                    let at = model.len();
                    apply_to_model(&mut model, at, data);
                    snapshots.push((v, model.clone()));
                }
                1 => {
                    let offset = pick % (model.len() + 1);
                    let v = client.write(blob, offset as u64, data).unwrap();
                    apply_to_model(&mut model, offset, data);
                    snapshots.push((v, model.clone()));
                }
                2 => {
                    // Kill a provider — only while the tier stays above its
                    // replication factor — and repair before anything else
                    // can die, so each page always keeps a live copy.
                    if live_providers.len() > replication {
                        let victim = live_providers.remove(pick % live_providers.len());
                        pm.kill(victim);
                        sys.repair();
                    }
                }
                3 => {
                    live_providers.push(pm.join_in_memory(topo.node(join_node % providers)));
                    join_node += 1;
                }
                4 => {
                    if live_dht.len() > dht.replication() {
                        let victim = live_dht.remove(pick % live_dht.len());
                        dht.kill(victim).unwrap();
                        sys.repair();
                    }
                }
                _ => {
                    live_dht.push(dht.join());
                }
            }
            // A mid-sequence read: some snapshot (when one exists) must be
            // readable right now, whatever just died.
            if let Some((version, expected)) = snapshots.get(pick % snapshots.len().max(1)) {
                if !expected.is_empty() {
                    let got = client.read(blob, *version, 0, expected.len() as u64).unwrap();
                    prop_assert_eq!(&got[..], &expected[..]);
                }
            }
        }

        // Quiesce: one repair pass per tier must find replication fully
        // restored with the members still alive.
        let (dht_report, provider_report) = sys.repair();
        prop_assert_eq!(provider_report.still_under_replicated, 0);
        prop_assert_eq!(dht_report.still_under_replicated, 0);

        // No committed version was lost: every snapshot reads back exactly
        // as it was published.
        for (version, expected) in &snapshots {
            if expected.is_empty() {
                continue;
            }
            let got = client.read(blob, *version, 0, expected.len() as u64).unwrap();
            prop_assert_eq!(got.to_vec(), expected.clone());
        }
    }
}
