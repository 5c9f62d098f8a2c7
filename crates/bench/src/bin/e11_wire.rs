//! E11 — charging the wire: the same workloads as E1/F1/E6, but with every
//! cross-node exchange routed through a [`wire::SimNet`] over a
//! grid5000-like topology, so round trips cost simulated latency and shared
//! rack/site links carry bandwidth contention.
//!
//! Three phases, each reporting the SimNet makespan (virtual time; nothing
//! here sleeps):
//!
//! * **E1-style reads** — 16 clients, driven round-robin from one thread
//!   so the SimNet ledger sees a deterministic exchange order (reads post
//!   one ranged, coalesced message per destination provider from the
//!   calling thread). A second run repeats the arm to pin determinism, and
//!   an `InProc` run pins output identity.
//! * **F1-style appends** — the write path over the same wire.
//! * **E6 sort** — the full MapReduce stack (BSFS storage + jobtracker
//!   control plane via [`JobTracker::with_transport`]) over SimNet, with a
//!   rack-local vs rack-oblivious placement ablation.
//!
//! `BENCH_E11.json` records the arms for CI, which asserts: the repeated
//! read arm reproduces its makespan exactly, and the SimNet output is
//! byte-identical to InProc.

use blobseer::{BlobSeer, BlobSeerConfig, PlacementStrategy};
use bsfs::{Bsfs, BsfsConfig};
use mapreduce::fs::BsfsFs;
use mapreduce::jobtracker::JobTracker;
use mapreduce::DistFs;
use simcluster::netmodel::NetworkModel;
use simcluster::topology::ClusterTopology;
use simcluster::{Clock, NodeId, SimClock};
use std::sync::Arc;
use wire::{InProc, SimNet, Transport};

const PAGE: u64 = 16 * 1024;
const SMALL: u64 = 2 * 1024;
const SCAN_PAGES: u64 = 8;
const PROVIDERS: usize = 6;
const CLIENTS: usize = 16;

/// The 3-site, 2-racks-per-site, 4-nodes-per-rack topology every phase runs
/// on: small enough to sweep, deep enough that rack and site links differ.
fn wire_topology() -> ClusterTopology {
    ClusterTopology::builder()
        .sites(3)
        .racks_per_site(2)
        .nodes_per_rack(4)
        .build()
}

/// FNV-1a over every byte a read returned: the cross-transport identity
/// witness.
fn fnv(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[derive(serde::Serialize)]
struct ReadArm {
    label: String,
    transport: &'static str,
    makespan_us: u64,
    exchanges: u64,
    bytes_on_wire: u64,
    checksum: u64,
}

/// One E1 arm: fresh deployment, seed the blobs, reset the wire, then drive
/// the read sweep single-threaded and account only the sweep's traffic.
fn run_read_arm(label: &str, rounds: usize, blob_pages: u64, simulate: bool) -> ReadArm {
    let topo = wire_topology();
    let clock = Arc::new(SimClock::new());
    let net = Arc::new(SimNet::new(topo.clone(), NetworkModel::grid5000_like()));
    let transport: Arc<dyn Transport> = if simulate {
        Arc::clone(&net) as Arc<dyn Transport>
    } else {
        Arc::new(InProc::new())
    };
    let provider_nodes: Vec<NodeId> = topo.all_nodes().take(PROVIDERS).collect();
    let sys = BlobSeer::with_transport(
        BlobSeerConfig::default()
            .with_providers(PROVIDERS)
            .with_page_size(PAGE)
            .with_page_replication(1),
        &topo,
        &provider_nodes,
        Arc::clone(&clock) as Arc<dyn Clock>,
        transport,
    );

    // Clients live on the nodes that do not host providers, so every page
    // fetch crosses the wire.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| sys.client_on(topo.node((PROVIDERS + i) as u32)))
        .collect();
    let mut blobs = Vec::with_capacity(CLIENTS);
    for (i, client) in clients.iter().enumerate() {
        let blob = client.create(Some(PAGE)).unwrap();
        let buf: Vec<u8> = (0..blob_pages * PAGE)
            .map(|j| ((i as u64 * 31 + j) % 251) as u8)
            .collect();
        client.write(blob, 0, &buf).unwrap();
        blobs.push(blob);
    }

    // Account the sweep only: drop the seeding from ledger and counters.
    net.reset();
    let prov0 = sys.provider_wire().snapshot();
    let dht0 = sys.metadata().dht().wire_counters().snapshot();

    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..rounds {
        for (i, client) in clients.iter().enumerate() {
            // One aligned multi-page scan: whole pages, one batch per
            // provider.
            let start = ((round as u64 * 3 + i as u64) % (blob_pages - SCAN_PAGES)) * PAGE;
            let data = client
                .read_latest(blobs[i], start, SCAN_PAGES * PAGE)
                .unwrap();
            checksum = fnv(checksum, &data);
            // Four small unaligned reads, each straddling a page boundary:
            // ranged, so 2 KiB cross the wire, not 32 KiB of pages.
            for k in 0..4u64 {
                let p = (round as u64 * 7 + i as u64 * 5 + k * 3) % (blob_pages - 1);
                let offset = p * PAGE + PAGE - SMALL / 2;
                let data = client.read_latest(blobs[i], offset, SMALL).unwrap();
                checksum = fnv(checksum, &data);
            }
        }
    }

    let wire_bytes = sys
        .provider_wire()
        .snapshot()
        .since(&prov0)
        .merged(&sys.metadata().dht().wire_counters().snapshot().since(&dht0));
    println!("  {}", bench::wire_report(label, &wire_bytes));
    ReadArm {
        label: label.to_string(),
        transport: if simulate { "simnet" } else { "inproc" },
        makespan_us: net.makespan().as_micros(),
        exchanges: net.exchanges(),
        bytes_on_wire: wire_bytes.bytes_on_wire,
        checksum,
    }
}

#[derive(serde::Serialize)]
struct AppendArm {
    appends: u64,
    makespan_us: u64,
    exchanges: u64,
    bytes_on_wire: u64,
}

/// F1-style appends over the wire: 16 clients, round-robin, one page each
/// per round.
fn run_append_arm(rounds: usize) -> AppendArm {
    let topo = wire_topology();
    let clock = Arc::new(SimClock::new());
    let net = Arc::new(SimNet::new(topo.clone(), NetworkModel::grid5000_like()));
    let provider_nodes: Vec<NodeId> = topo.all_nodes().take(PROVIDERS).collect();
    let sys = BlobSeer::with_transport(
        BlobSeerConfig::default()
            .with_providers(PROVIDERS)
            .with_page_size(PAGE)
            .with_page_replication(1),
        &topo,
        &provider_nodes,
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&net) as Arc<dyn Transport>,
    );
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| sys.client_on(topo.node((PROVIDERS + i) as u32)))
        .collect();
    let blobs: Vec<_> = clients
        .iter()
        .map(|c| c.create(Some(PAGE)).unwrap())
        .collect();
    let mut appends = 0u64;
    for round in 0..rounds {
        for (i, client) in clients.iter().enumerate() {
            let fill = ((round * 17 + i * 3) % 251) as u8;
            client.append(blobs[i], &vec![fill; PAGE as usize]).unwrap();
            appends += 1;
        }
    }
    let bytes = sys
        .provider_wire()
        .snapshot()
        .merged(&sys.metadata().dht().wire_counters().snapshot());
    AppendArm {
        appends,
        makespan_us: net.makespan().as_micros(),
        exchanges: net.exchanges(),
        bytes_on_wire: bytes.bytes_on_wire,
    }
}

#[derive(serde::Serialize)]
struct SortArm {
    label: String,
    placement: &'static str,
    makespan_us: u64,
    exchanges: u64,
    control_messages: u64,
    shuffle_wire_bytes: u64,
    /// What the job itself put on the storage wire (provider + DHT
    /// messages, from submit to completion).
    storage_wire_messages: u64,
    storage_wire_bytes: u64,
    output_records: u64,
}

/// E6-style sort with the whole stack on the wire: BSFS pages and metadata
/// through SimNet, and the jobtracker's claim/report control plane charged
/// via [`JobTracker::with_transport`].
fn run_sort_arm(lines: usize, reducers: usize, placement: PlacementStrategy) -> (SortArm, Vec<u8>) {
    let (label, name) = match placement {
        PlacementStrategy::LocalFirst => ("rack-local", "local_first"),
        PlacementStrategy::Random => ("rack-oblivious", "random"),
        PlacementStrategy::LoadBalanced => ("load-balanced", "load_balanced"),
    };
    let block = 8 * 1024u64;
    let topo = wire_topology();
    let clock = Arc::new(SimClock::new());
    let net = Arc::new(SimNet::new(topo.clone(), NetworkModel::grid5000_like()));
    let nodes: Vec<NodeId> = topo.all_nodes().collect();
    let storage = BlobSeer::with_transport(
        BlobSeerConfig::default()
            .with_providers(nodes.len())
            .with_page_size(block)
            .with_page_replication(1)
            .with_placement(placement),
        &topo,
        &nodes,
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&net) as Arc<dyn Transport>,
    );
    let fs = BsfsFs::new(Bsfs::new(
        storage,
        BsfsConfig::default().with_block_size(block),
    ));

    let mut generator = workloads::TextGenerator::new(2026);
    fs.write_file("/input/unsorted.txt", generator.sentences(lines).as_bytes())
        .unwrap();
    let job = workloads::distributed_sort_job(
        &fs,
        vec!["/input/unsorted.txt".into()],
        "/sort-out",
        reducers,
        4 * 1024,
    )
    .expect("sampling the sort input");
    let jt = JobTracker::new(&topo)
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .with_transport(Arc::clone(&net) as Arc<dyn Transport>, topo.node(0));
    let sys = fs.inner().storage();
    let storage_wire = || {
        let dht = sys.metadata().dht().wire_counters().snapshot();
        sys.provider_wire().snapshot().merged(&dht)
    };
    let wire_before = storage_wire();
    let result = jt.run(&fs, &job).unwrap();
    let storage_wire = storage_wire().since(&wire_before);

    let mut output = Vec::new();
    let mut previous: Option<String> = None;
    for part in &result.output_files {
        let content = fs.read_file(part).unwrap();
        for line in String::from_utf8_lossy(&content).lines() {
            if let Some(prev) = &previous {
                assert!(prev.as_str() <= line, "{name}: output must stay sorted");
            }
            previous = Some(line.to_string());
        }
        output.extend_from_slice(&content);
    }
    let control = jt.control_counters().expect("transport attached");
    (
        SortArm {
            label: label.to_string(),
            placement: name,
            makespan_us: net.makespan().as_micros(),
            exchanges: net.exchanges(),
            control_messages: control.messages(),
            shuffle_wire_bytes: result.shuffle.wire_snapshot().bytes_on_wire,
            storage_wire_messages: storage_wire.messages,
            storage_wire_bytes: storage_wire.bytes_on_wire,
            output_records: result.output_records,
        },
        output,
    )
}

fn main() {
    let smoke = bench::smoke_mode();
    let (rounds, blob_pages, lines, reducers) = if smoke {
        (2usize, 16u64, 400usize, 2usize)
    } else {
        (6, 64, 8_000, 4)
    };

    println!(
        "== E11: the wire ({CLIENTS} clients x {rounds} rounds, {PROVIDERS} providers, \
         {blob_pages} pages/blob x {PAGE} B pages, grid5000-like 3x2x4 topology) =="
    );
    println!();

    // -- Phase A: E1-style reads ------------------------------------------
    let reads = run_read_arm("ranged, coalesced", rounds, blob_pages, true);
    let repeat = run_read_arm("ranged, coalesced", rounds, blob_pages, true);
    let inproc = run_read_arm("inproc oracle", rounds, blob_pages, false);

    println!(
        "E1-style reads over SimNet: makespan {} us, {} exchanges, {} bytes on wire",
        reads.makespan_us, reads.exchanges, reads.bytes_on_wire
    );
    assert!(reads.makespan_us > 0, "reads must cost simulated time");

    // Identity: the transport changes costs, never bytes.
    let identical = inproc.checksum == reads.checksum && repeat.checksum == reads.checksum;
    assert!(identical, "SimNet returned different bytes than InProc");
    // Determinism: an identical arm reproduces the ledger exactly.
    let deterministic = reads.makespan_us == repeat.makespan_us
        && reads.exchanges == repeat.exchanges
        && reads.bytes_on_wire == repeat.bytes_on_wire;
    assert!(deterministic, "repeated arm diverged from its twin");
    assert_eq!(inproc.makespan_us, 0, "InProc must charge nothing");
    println!();

    // -- Phase B: F1-style appends -----------------------------------------
    let appends = run_append_arm(rounds);
    assert!(appends.makespan_us > 0, "appends must cost simulated time");
    println!(
        "F1-style appends over SimNet: {} appends, makespan {} us, {} exchanges, \
         {} bytes on wire",
        appends.appends, appends.makespan_us, appends.exchanges, appends.bytes_on_wire
    );
    println!();

    // -- Phase C: E6 sort, placement ablation ------------------------------
    let (local, local_out) = run_sort_arm(lines, reducers, PlacementStrategy::LocalFirst);
    let (random, random_out) = run_sort_arm(lines, reducers, PlacementStrategy::Random);
    assert_eq!(
        local_out, random_out,
        "placement must not change the sorted output"
    );
    println!("E6 sort over SimNet (storage + control plane on the wire):");
    for arm in [&local, &random] {
        println!(
            "  {:>14}: makespan {:>9} us, {:>6} exchanges ({} control messages), \
             shuffle wire bytes {}, storage wire {} bytes in {} messages",
            arm.label,
            arm.makespan_us,
            arm.exchanges,
            arm.control_messages,
            arm.shuffle_wire_bytes,
            arm.storage_wire_bytes,
            arm.storage_wire_messages,
        );
    }
    println!();

    #[derive(serde::Serialize)]
    struct Snapshot {
        experiment: &'static str,
        smoke: bool,
        rounds: usize,
        clients: usize,
        providers: usize,
        page_bytes: u64,
        read_arms: Vec<ReadArm>,
        makespan_repeat_us: u64,
        deterministic: bool,
        identical: bool,
        appends: AppendArm,
        sort_arms: Vec<SortArm>,
    }
    bench::emit_bench_json(
        "E11",
        &Snapshot {
            experiment: "E11",
            smoke,
            rounds,
            clients: CLIENTS,
            providers: PROVIDERS,
            page_bytes: PAGE,
            makespan_repeat_us: repeat.makespan_us,
            deterministic,
            identical,
            read_arms: vec![reads, inproc],
            appends,
            sort_arms: vec![local, random],
        },
    );
}
