//! Transport identity: the simulated wire changes what operations *cost*,
//! never what they *return*. Random write/append/read interleavings must be
//! byte-identical across `InProc` and `SimNet` deployments and a local
//! mirror — including reads of historical versions, so the ranged,
//! per-destination coalesced page fetch provably never reorders against the
//! writes it conflicts with (every version reads back as the snapshot it
//! committed).

use blobseer::{BlobSeer, BlobSeerClient, BlobSeerConfig};
use proptest::prelude::*;
use simcluster::netmodel::NetworkModel;
use simcluster::topology::ClusterTopology;
use simcluster::{Clock, NodeId, SimClock, SimDuration};
use std::sync::Arc;
use wire::{InProc, SimNet, Transport};

const PAGE: u64 = 32;

/// One step of the interleaving, offsets/lengths still unscaled.
#[derive(Debug, Clone)]
enum Op {
    Append { len: u64, fill: u8 },
    Write { at: u64, len: u64, fill: u8 },
    Read { at: u64, len: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..100, any::<u8>()).prop_map(|(len, fill)| Op::Append { len, fill }),
        (any::<u64>(), 1u64..100, any::<u8>()).prop_map(|(at, len, fill)| Op::Write {
            at,
            len,
            fill
        }),
        (any::<u64>(), 1u64..200).prop_map(|(at, len)| Op::Read { at, len }),
    ]
}

/// A deployment under test plus the blob the interleaving runs against.
struct Arm {
    sys: Arc<BlobSeer>,
    client: BlobSeerClient,
    blob: blobseer::BlobId,
    net: Option<Arc<SimNet>>,
}

fn deploy(simulate: bool) -> Arm {
    let topo = ClusterTopology::builder()
        .sites(2)
        .racks_per_site(2)
        .nodes_per_rack(2)
        .build();
    let net = Arc::new(SimNet::new(topo.clone(), NetworkModel::grid5000_like()));
    let transport: Arc<dyn Transport> = if simulate {
        Arc::clone(&net) as Arc<dyn Transport>
    } else {
        Arc::new(InProc::new())
    };
    let provider_nodes: Vec<NodeId> = topo.all_nodes().take(4).collect();
    let sys = BlobSeer::with_transport(
        BlobSeerConfig::for_tests()
            .with_providers(provider_nodes.len())
            .with_page_size(PAGE)
            .with_page_replication(2),
        &topo,
        &provider_nodes,
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        transport,
    );
    // The client runs on a node that hosts no provider, so every page moves.
    let client = sys.client_on(topo.node(5));
    let blob = client.create(Some(PAGE)).unwrap();
    Arm {
        sys,
        client,
        blob,
        net: simulate.then_some(net),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Drive the same interleaving through an in-process and a SimNet
    /// deployment against a local mirror. Every read, every historical
    /// version, and the final image must agree byte for byte everywhere.
    #[test]
    fn simnet_and_read_knobs_are_byte_identical_to_inproc(
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let arms = [deploy(false), deploy(true)];
        let mut mirror: Vec<u8> = Vec::new();
        // Every committed version's expected image, for the snapshot sweep.
        let mut snapshots: Vec<(blobseer::Version, Vec<u8>)> = Vec::new();

        for op in &ops {
            match *op {
                Op::Append { len, fill } => {
                    let data = vec![fill; len as usize];
                    let mut version = None;
                    for arm in &arms {
                        let v = arm.client.append(arm.blob, &data).unwrap();
                        prop_assert_eq!(*version.get_or_insert(v), v);
                    }
                    mirror.extend_from_slice(&data);
                    snapshots.push((version.unwrap(), mirror.clone()));
                }
                Op::Write { at, len, fill } => {
                    let at = at % (mirror.len() as u64 + 1);
                    let data = vec![fill; len as usize];
                    let mut version = None;
                    for arm in &arms {
                        let v = arm.client.write(arm.blob, at, &data).unwrap();
                        prop_assert_eq!(*version.get_or_insert(v), v);
                    }
                    let end = (at + len) as usize;
                    if end > mirror.len() {
                        mirror.resize(end, 0);
                    }
                    mirror[at as usize..end].copy_from_slice(&data);
                    snapshots.push((version.unwrap(), mirror.clone()));
                }
                Op::Read { at, len } => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let at = at % mirror.len() as u64;
                    let len = len.min(mirror.len() as u64 - at);
                    if len == 0 {
                        continue;
                    }
                    let expected = &mirror[at as usize..(at + len) as usize];
                    for arm in &arms {
                        let got = arm.client.read_latest(arm.blob, at, len).unwrap();
                        prop_assert_eq!(&got[..], expected);
                    }
                }
            }
        }

        // Snapshot isolation across the wire: every historical version still
        // reads back as the image it committed, on every arm. This is the
        // reordering witness — a coalesced batch that slipped around one of
        // its version's writes would surface here as a stale or torn page.
        for (version, image) in &snapshots {
            if image.is_empty() {
                continue;
            }
            for arm in &arms {
                let got = arm
                    .client
                    .read(arm.blob, *version, 0, image.len() as u64)
                    .unwrap();
                prop_assert_eq!(&got[..], &image[..]);
            }
        }

        // The simulated arms actually charged virtual time for the traffic
        // the writes moved, and the in-process arm stayed free.
        for arm in &arms {
            if snapshots.is_empty() {
                continue;
            }
            prop_assert!(arm.sys.provider_wire().messages() > 0);
            if let Some(net) = &arm.net {
                prop_assert!(net.makespan() > SimDuration::ZERO);
            }
        }
    }
}
