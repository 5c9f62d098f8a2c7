//! E8 — the storage-tier optimization bundle, measured end to end: sequential
//! metadata read-ahead (fewer DHT round trips on sequential scans) and
//! snapshot GC (bounded footprint under a rewrite loop).
//!
//! Unlike E1–E7, which compare BSFS against HDFS, this experiment compares
//! BSFS against itself with each optimization off and on, and *asserts* the
//! headline numbers instead of just printing them. CI runs it with
//! `BENCH_SMOKE=1` as the storage-tier regression gate.

use blobseer::{BlobSeer, BlobSeerConfig};
use workloads::microbench::{prepare_shared_file, read_shared_file, MicrobenchConfig};

#[derive(serde::Serialize)]
struct GcSection {
    rounds: usize,
    metadata_entries_flat: usize,
    provider_pages_flat: usize,
    metadata_entries_unbounded: usize,
    provider_pages_unbounded: usize,
    versions_retired: u64,
    nodes_removed: u64,
    pages_deleted: u64,
}

/// One read-ahead window's row: the measured read phase's metadata
/// counters (`kind: count`, deterministic up to the cache race between
/// clients) and its throughput (`kind: wall`, machine-dependent).
#[derive(serde::Serialize)]
struct ReadPathRecord {
    label: String,
    aggregate_mibps: f64,
    /// Pages the clients read. A block written at once is answered by its
    /// full subtree's root, which maps every page under it, so `nodes_read`
    /// falls well below it.
    pages_read: u64,
    nodes_read: u64,
    dht_read_round_trips: u64,
    cache_hits: u64,
    cache_misses: u64,
    prefetched_nodes: u64,
    prefetch_hits: u64,
    prefetch_wasted: u64,
}

#[derive(serde::Serialize)]
struct Snapshot {
    experiment: &'static str,
    smoke: bool,
    read_path: Vec<ReadPathRecord>,
    gc: GcSection,
}

/// Clients scan non-overlapping parts of one shared file (real threads and
/// bytes through BSFS), once without read-ahead and once with a window of
/// one whole block. Each 256 KiB block stripes over 32 BlobSeer pages, so
/// every block read is a multi-page lookup, and with the window the next
/// block's subtree rides the current descent's batches.
fn read_path(smoke: bool) -> Vec<ReadPathRecord> {
    // At least two blocks per client even in smoke mode: a client's second
    // block is what its own first descent prefetched, whatever the other
    // clients do. With one block each, whether any prefetch is used depends
    // on which client runs first.
    let (clients, bytes_per_client) = if smoke { (2, 512 * 1024) } else { (4, 2 << 20) };
    let block_size = 256 * 1024u64;
    let page_size = block_size / 32;
    let config = MicrobenchConfig {
        clients,
        bytes_per_client,
        record_size: 4096,
    };
    let records: Vec<ReadPathRecord> = [0usize, 32]
        .into_iter()
        .map(|window| {
            let fs = bench::small_bsfs_full(4, block_size, page_size, window);
            prepare_shared_file(&fs, &config).expect("prepare read workload");
            let storage = fs.inner().storage();
            // The readers model clients on nodes that never saw the writes:
            // the measured phase starts with a cold node cache.
            storage.metadata().drop_cached_nodes();
            let before = storage.metadata().stats();
            let bytes_before = storage.stats().bytes_read;
            let bench = read_shared_file(&fs, &config).expect("run read workload");
            let now = storage.metadata().stats();
            let bytes_read = storage.stats().bytes_read - bytes_before;
            let record = ReadPathRecord {
                label: format!("read-ahead {window}"),
                aggregate_mibps: bench.aggregate_bps() / (1024.0 * 1024.0),
                pages_read: bytes_read.div_ceil(page_size),
                nodes_read: now.nodes_read - before.nodes_read,
                dht_read_round_trips: now.dht_read_round_trips - before.dht_read_round_trips,
                cache_hits: now.cache_hits - before.cache_hits,
                cache_misses: now.cache_misses - before.cache_misses,
                prefetched_nodes: now.prefetched_nodes - before.prefetched_nodes,
                prefetch_hits: now.prefetch_hits - before.prefetch_hits,
                prefetch_wasted: now.prefetch_wasted - before.prefetch_wasted,
            };
            println!(
                "{:>13}: {:>8.1} MiB/s aggregate | {} pages, {} nodes requested, {} DHT read \
                 round trips | cache: {} hits, {} misses | read-ahead: {} prefetched, {} hits, \
                 {} wasted",
                record.label,
                record.aggregate_mibps,
                record.pages_read,
                record.nodes_read,
                record.dht_read_round_trips,
                record.cache_hits,
                record.cache_misses,
                record.prefetched_nodes,
                record.prefetch_hits,
                record.prefetch_wasted,
            );
            record
        })
        .collect();
    for record in &records {
        assert_eq!(
            record.cache_hits + record.cache_misses,
            record.nodes_read,
            "{}: every demanded node is one cache hit or miss, and a \
             speculative probe is neither",
            record.label,
        );
    }
    let (fixed, readahead) = (&records[0], &records[1]);
    assert!(
        readahead.prefetch_hits > 0,
        "sequential scans must hit the read-ahead window"
    );
    assert!(
        readahead.dht_read_round_trips <= fixed.dht_read_round_trips,
        "read-ahead must not add metadata round trips to a sequential scan \
         ({} vs {})",
        readahead.dht_read_round_trips,
        fixed.dht_read_round_trips,
    );
    println!(
        "read-ahead: {} -> {} demand round trips, {} prefetch hits",
        fixed.dht_read_round_trips, readahead.dht_read_round_trips, readahead.prefetch_hits
    );
    println!();
    records
}

fn gc_section(smoke: bool) -> GcSection {
    let rounds = if smoke { 8 } else { 16 };
    let footprint = |sys: &std::sync::Arc<BlobSeer>| -> (usize, usize) {
        let entries = sys.metadata().dht().stats().total_entries;
        let pages = sys
            .provider_manager()
            .providers()
            .iter()
            .map(|p| p.stats().pages)
            .sum::<usize>();
        (entries, pages)
    };
    let mut flat = (0, 0);
    let mut unbounded = (0, 0);
    let mut totals = blobseer::GcReport::default();
    for keep in [None, Some(2)] {
        let mut config = BlobSeerConfig::default()
            .with_providers(4)
            .with_page_size(1024);
        if let Some(keep) = keep {
            config = config.with_gc_keep_last(keep);
        }
        let sys = BlobSeer::new(config);
        let client = sys.client();
        let blob = client.create(Some(1024)).unwrap();
        let mut steady: Option<(usize, usize)> = None;
        for round in 0..rounds {
            let data = vec![b'a' + (round % 26) as u8; 16 * 1024];
            client.write(blob, 0, &data).unwrap();
            totals.absorb(&sys.collect_garbage().unwrap());
            if keep.is_some() && round >= rounds / 2 {
                let now = footprint(&sys);
                match steady {
                    None => steady = Some(now),
                    Some(expected) => assert_eq!(
                        now, expected,
                        "with retention the rewrite-loop footprint must be flat"
                    ),
                }
            }
        }
        if keep.is_some() {
            flat = footprint(&sys);
        } else {
            unbounded = footprint(&sys);
        }
    }
    assert!(
        totals.versions_retired > 0 && totals.nodes_removed > 0 && totals.pages_deleted > 0,
        "GC must reclaim the dead versions of the rewrite loop"
    );
    assert!(
        flat.0 < unbounded.0 && flat.1 < unbounded.1,
        "retention must beat the unbounded history on both footprint axes"
    );
    println!(
        "gc: flat at {} metadata entries / {} pages (unbounded history: {} / {}); \
         retired {} versions",
        flat.0, flat.1, unbounded.0, unbounded.1, totals.versions_retired
    );
    GcSection {
        rounds,
        metadata_entries_flat: flat.0,
        provider_pages_flat: flat.1,
        metadata_entries_unbounded: unbounded.0,
        provider_pages_unbounded: unbounded.1,
        versions_retired: totals.versions_retired,
        nodes_removed: totals.nodes_removed,
        pages_deleted: totals.pages_deleted,
    }
}

fn main() {
    let smoke = bench::smoke_mode();

    println!("== E8: storage-tier optimizations (BSFS vs itself) ==");
    println!();
    println!("-- sequential metadata read-ahead --");
    let read_path = read_path(smoke);
    println!("-- snapshot GC (rewrite loop) --");
    let gc = gc_section(smoke);
    println!();
    println!("all storage-tier assertions held");

    bench::emit_bench_json(
        "E8",
        &Snapshot {
            experiment: "E8",
            smoke,
            read_path,
            gc,
        },
    );
}
