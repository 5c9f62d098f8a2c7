//! Integration tests across the full BSFS stack: BlobSeer providers, the
//! metadata DHT, the version manager, the namespace layer and the client
//! cache working together.

use blobseer::{BlobSeer, BlobSeerConfig, PlacementStrategy};
use bsfs::{Bsfs, BsfsConfig};
use simcluster::ClusterTopology;

fn deployment(providers: usize, page: u64) -> Bsfs {
    let storage = BlobSeer::new(
        BlobSeerConfig::default()
            .with_providers(providers)
            .with_page_size(page)
            .with_page_replication(2),
    );
    Bsfs::new(storage, BsfsConfig::default().with_block_size(page))
}

#[test]
fn many_files_many_clients_roundtrip() {
    let fs = deployment(8, 4096);
    std::thread::scope(|scope| {
        for t in 0..8u8 {
            let fs = fs.clone();
            scope.spawn(move || {
                for f in 0..5 {
                    let path = format!("/load/client-{t}/file-{f}");
                    let payload: Vec<u8> = (0..20_000)
                        .map(|i| ((i + t as usize + f) % 251) as u8)
                        .collect();
                    fs.write_file(&path, &payload).unwrap();
                    assert_eq!(fs.read_file(&path).unwrap().to_vec(), payload);
                }
            });
        }
    });
    assert_eq!(fs.namespace().file_count(), 40);
    // Every file survives a full namespace listing walk.
    let dirs = fs.list("/load").unwrap();
    assert_eq!(dirs.len(), 8);
    for d in dirs {
        assert_eq!(fs.list(&d).unwrap().len(), 5);
    }
}

#[test]
fn data_survives_killing_a_replicas_worth_of_providers() {
    let fs = deployment(6, 2048);
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 256) as u8).collect();
    fs.write_file("/resilient", &payload).unwrap();

    // Kill one machine: page replication factor 2 must cover for it.
    fs.storage().kill(blobseer::ProviderId(0)).unwrap();
    assert_eq!(fs.read_file("/resilient").unwrap().to_vec(), payload);

    // New writes keep working with the remaining providers.
    fs.write_file("/after-failure", &payload[..5000]).unwrap();
    assert_eq!(fs.read_file("/after-failure").unwrap().len(), 5000);
}

#[test]
fn metadata_survives_killing_a_metadata_provider() {
    let fs = deployment(4, 1024);
    let payload = vec![7u8; 50_000];
    fs.write_file("/meta-resilient", &payload).unwrap();
    // Kill one machine, and with it its DHT node; metadata replication
    // covers it. A cold cache reads the tree back from the survivors.
    fs.storage().kill(blobseer::ProviderId(0)).unwrap();
    fs.storage().metadata().drop_cached_nodes();
    assert_eq!(fs.read_file("/meta-resilient").unwrap().to_vec(), payload);
}

#[test]
fn placement_strategies_affect_page_distribution_but_not_contents() {
    let payload: Vec<u8> = (0..65_536u32).map(|i| (i * 31 % 256) as u8).collect();
    for strategy in [
        PlacementStrategy::LoadBalanced,
        PlacementStrategy::LocalFirst,
        PlacementStrategy::Random,
    ] {
        let topo = ClusterTopology::builder()
            .sites(1)
            .racks_per_site(2)
            .nodes_per_rack(4)
            .build();
        let nodes: Vec<_> = topo.all_nodes().collect();
        let storage = BlobSeer::with_topology(
            BlobSeerConfig::default()
                .with_providers(8)
                .with_page_size(4096)
                .with_placement(strategy),
            &topo,
            &nodes,
        );
        let fs = Bsfs::new(storage, BsfsConfig::default().with_block_size(4096));
        fs.write_file("/strategy-test", &payload).unwrap();
        assert_eq!(
            fs.read_file("/strategy-test").unwrap().to_vec(),
            payload,
            "{strategy:?}"
        );
        let load = fs.storage().provider_manager().allocation_load();
        match strategy {
            PlacementStrategy::LoadBalanced => {
                assert_eq!(load.len(), 8, "load balancing uses every provider")
            }
            PlacementStrategy::LocalFirst => {
                assert_eq!(
                    load.len(),
                    1,
                    "local-first concentrates on the writer's node"
                )
            }
            PlacementStrategy::Random => assert!(load.len() > 1),
        }
    }
}

#[test]
fn snapshot_isolation_under_concurrent_appends() {
    let storage = BlobSeer::new(
        BlobSeerConfig::default()
            .with_providers(8)
            .with_page_size(1024),
    );
    let client = storage.client();
    let blob = client.create(None).unwrap();
    let v1 = client.append(blob, &vec![1u8; 10_000]).unwrap();

    std::thread::scope(|scope| {
        for t in 0..4 {
            let writer = storage.client_on(storage.topology().node(t));
            scope.spawn(move || {
                for _ in 0..10 {
                    writer.append(blob, &vec![9u8; 1024]).unwrap();
                }
            });
        }
        let reader = storage.client_on(storage.topology().node(5));
        scope.spawn(move || {
            for _ in 0..20 {
                let snapshot = reader.read(blob, v1, 0, 10_000).unwrap();
                assert!(snapshot.iter().all(|b| *b == 1), "v1 must never change");
            }
        });
    });
    let latest = client.latest_version(blob).unwrap();
    assert_eq!(latest.size, 10_000 + 4 * 10 * 1024);
    assert_eq!(latest.version.0, 41);
}
