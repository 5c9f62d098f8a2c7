//! F1 — future-work experiment (paper §V): concurrent appends to a *shared*
//! file, "enabling the MapReduce workers to write the reduce output to the
//! same file, instead of creating several output files". BlobSeer already
//! supports this; the experiment measures N clients appending concurrently to
//! one blob versus each writing its own blob, and checks no append is lost.
//!
//! The client sweep deliberately ends at 80 (a 10x jump over the mid-range
//! points): providers and DHT nodes own no thread and page I/O concurrency
//! is bounded by the miniexec pool, so the system-thread census must stay
//! flat across the whole sweep — asserted below.
//!
//! `BENCH_SMOKE=1` shrinks everything to a does-it-run configuration (CI).

use blobseer::{BlobSeer, BlobSeerConfig};
use std::time::Instant;

#[derive(serde::Serialize)]
struct F1Record {
    clients: usize,
    shared_mibps: f64,
    separate_mibps: f64,
    census_peak: usize,
}

fn deployment() -> std::sync::Arc<BlobSeer> {
    BlobSeer::new(
        BlobSeerConfig::default()
            .with_providers(8)
            .with_page_size(64 * 1024),
    )
}

fn main() {
    let smoke = bench::smoke_mode();
    let block = 64 * 1024u64;
    let (client_counts, appends_per_client): (&[usize], usize) = if smoke {
        (&[2, 20], 8)
    } else {
        (&[2, 4, 8, 80], 64)
    };
    // Start the executor pool first: its workers live for the whole
    // process, so they belong in every point's peak.
    miniexec::block_on(|| {});
    println!("== F1: concurrent appends to one shared blob vs one blob per client ==");
    println!();
    println!(
        "{:<10} {:>22} {:>26} {:>14}",
        "clients", "shared blob (MiB/s)", "per-client blobs (MiB/s)", "census peak"
    );
    let mut records = Vec::new();
    for &clients in client_counts {
        let total_bytes = (clients * appends_per_client) as u64 * block;

        // Shared blob: everyone appends to the same blob.
        let shared_sys = deployment();
        let client0 = shared_sys.client();
        let blob = client0.create(Some(block)).unwrap();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let client = shared_sys.client_on(shared_sys.topology().node((c % 8) as u32));
                s.spawn(move || {
                    let payload = vec![c as u8; block as usize];
                    for _ in 0..appends_per_client {
                        client.append(blob, &payload).unwrap();
                    }
                });
            }
        });
        let shared_secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            client0.size(blob).unwrap(),
            total_bytes,
            "no append may be lost"
        );
        let shared_report = bench::write_path_report(&shared_sys);
        drop(client0);
        drop(shared_sys);

        // Separate blobs: the current Hadoop-style one-output-per-reducer.
        let separate_sys = deployment();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let client = separate_sys.client_on(separate_sys.topology().node((c % 8) as u32));
                s.spawn(move || {
                    let blob = client.create(Some(block)).unwrap();
                    let payload = vec![c as u8; block as usize];
                    for _ in 0..appends_per_client {
                        client.append(blob, &payload).unwrap();
                    }
                });
            }
        });
        let separate_secs = t0.elapsed().as_secs_f64();
        drop(separate_sys);

        let census_peak = miniexec::census::peak();
        let mib = total_bytes as f64 / (1024.0 * 1024.0);
        println!(
            "{:<10} {:>22.1} {:>26.1} {:>14}",
            clients,
            mib / shared_secs,
            mib / separate_secs,
            census_peak,
        );
        println!("    shared-blob {shared_report}");
        records.push(F1Record {
            clients,
            shared_mibps: mib / shared_secs,
            separate_mibps: mib / separate_secs,
            census_peak,
        });
    }

    // The system's thread high-water mark is set by the (fixed) pool, not by
    // how many clients pile on or how many deployments come and go, so every
    // later, larger point must report the first point's peak.
    let first = records.first().expect("sweep is non-empty");
    let last = records.last().expect("sweep is non-empty");
    assert_eq!(
        first.census_peak,
        last.census_peak,
        "system thread census must stay flat as clients scale ({}x)",
        last.clients / first.clients,
    );
    println!();
    println!(
        "census: {} system threads at {} clients and at {} clients (flat)",
        last.census_peak, first.clients, last.clients,
    );

    #[derive(serde::Serialize)]
    struct Snapshot {
        experiment: &'static str,
        smoke: bool,
        appends_per_client: usize,
        block_bytes: u64,
        sweep: Vec<F1Record>,
    }
    bench::emit_bench_json(
        "F1",
        &Snapshot {
            experiment: "F1",
            smoke,
            appends_per_client,
            block_bytes: block,
            sweep: records,
        },
    );
}
