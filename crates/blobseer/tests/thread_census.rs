//! System thread count is a function of the executor pool, not of the
//! deployment or of client concurrency. Page providers and DHT nodes serve
//! each call on the caller's thread, so deploying them starts no thread, and
//! scaling concurrent readers 16x must not move the process-wide
//! thread-census peak.
//!
//! The census (`miniexec::census`) is process-global, so this file holds
//! exactly one test — its own integration binary, its own process — to keep
//! the counts deterministic.

use blobseer::{BlobSeer, BlobSeerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// E1-style workload: `clients` concurrent readers each scan the whole blob
/// in page-sized requests. Client threads are plain test threads and are not
/// census-registered; only system threads (executor workers) count.
fn concurrent_scan(sys: &Arc<BlobSeer>, blob: blobseer::BlobId, len: u64, clients: usize) {
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = sys.client_on(sys.topology().node((c % 8) as u32));
            scope.spawn(move || {
                let step = 64u64;
                let mut off = 0;
                while off < len {
                    let n = step.min(len - off);
                    let bytes = client.read_latest(blob, off, n).unwrap();
                    assert_eq!(bytes.len() as u64, n);
                    off += n;
                }
            });
        }
    });
}

#[test]
fn census_peak_is_flat_from_4_to_64_clients() {
    // Bring the pool up first: each worker registers from its own thread.
    miniexec::block_on(|| ());
    let workers = miniexec::worker_count();
    let deadline = Instant::now() + Duration::from_secs(5);
    while miniexec::census::spawned() < workers && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let pool = miniexec::census::spawned();
    assert_eq!(pool, workers, "the pool registers one thread per worker");

    let mut config = BlobSeerConfig::for_tests()
        .with_providers(8)
        .with_page_replication(2);
    config.metadata_providers = 8;
    let sys = BlobSeer::new(config);
    let client = sys.client();
    let blob = client.create(Some(64)).unwrap();
    let data: Vec<u8> = (0..64 * 32).map(|i| (i % 239) as u8).collect();
    client.write(blob, 0, &data).unwrap();
    let len = data.len() as u64;

    concurrent_scan(&sys, blob, len, 4);
    assert_eq!(
        miniexec::census::spawned(),
        pool,
        "8 providers and 8 DHT nodes, written and read, started no thread"
    );
    let peak_lo = miniexec::census::peak();

    concurrent_scan(&sys, blob, len, 64);
    let peak_hi = miniexec::census::peak();

    assert_eq!(
        peak_lo, peak_hi,
        "16x more concurrent clients must not spawn more system threads"
    );
    assert_eq!(peak_hi, workers, "the pool is every system thread");
}
