//! E8 — the storage tier, measured end to end: the metadata written per
//! block by the scan's load, the metadata read path of a cold sequential
//! scan (tree nodes and DHT round trips per page read) and snapshot GC
//! (bounded footprint under a rewrite loop).
//!
//! Unlike E1–E7, which compare BSFS against HDFS, this experiment measures
//! BSFS against itself, and *asserts* the headline numbers instead of just
//! printing them. CI runs it with `BENCH_SMOKE=1` as the storage-tier
//! regression gate.

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

/// The read path's row: the measured read phase's metadata counters
/// (`kind: count`, deterministic up to the cache race between clients) and
/// its throughput (`kind: wall`, machine-dependent).
#[derive(serde::Serialize)]
struct ReadPathRecord {
    label: String,
    /// Wall-clock throughput of the first scan in the process: it pays
    /// warm-up costs a later scan would not, so it is no steady-state figure.
    aggregate_mibps: f64,
    /// Pages the clients read. A block written at once is answered by its
    /// full subtree's root, which maps every page under it, so `nodes_read`
    /// falls well below it.
    pages_read: u64,
    nodes_read: u64,
    dht_read_round_trips: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// The scan's load: the file written one full 32-page block per write
/// (`kind: count`, deterministic). Only the top of a block's full subtree is
/// stored, with the inner nodes on its path up to the root, so a block
/// write publishes at most `1 + height_above_block` nodes; those nodes are
/// one version record, so a block write sends one metadata write message
/// per replica; and its pages go out as one `UploadMany` per provider, so a
/// block write sends at most one page-write message per machine.
#[derive(serde::Serialize)]
struct LoadRecord {
    block_writes: u64,
    nodes_written: u64,
    nodes_per_block_write: f64,
    /// Tree levels above a block in the loaded file's tree.
    height_above_block: u32,
    /// Provider write messages (page uploads) per block write.
    provider_write_messages_per_block_write: f64,
    /// Metadata DHT write messages per block write.
    dht_write_messages_per_block_write: f64,
    /// The deployment's metadata replication factor: the most DHT write
    /// messages one record costs.
    metadata_replication: usize,
}

#[derive(serde::Serialize)]
struct Snapshot {
    experiment: &'static str,
    smoke: bool,
    load: LoadRecord,
    read_path: Vec<ReadPathRecord>,
    gc: GcSection,
}

/// Clients scan non-overlapping parts of one shared file (real threads and
/// bytes through BSFS) on a cold node cache. Each 256 KiB block stripes over
/// 32 BlobSeer pages, so every block read is a multi-page lookup.
fn read_path(smoke: bool) -> (LoadRecord, Vec<ReadPathRecord>) {
    let (clients, bytes_per_client) = if smoke { (2, 512 * 1024) } else { (4, 2 << 20) };
    let block_size = 256 * 1024u64;
    let page_size = block_size / 32;
    let config = MicrobenchConfig {
        clients,
        bytes_per_client,
        record_size: 4096,
    };
    let machines = 4;
    let fs = bench::small_bsfs_full(machines, block_size, page_size);
    let storage = fs.inner().storage();
    let (nodes_before, writes_before, uploads_before, dht_writes_before) = (
        storage.metadata().stats().nodes_written,
        storage.stats().write_ops,
        storage.provider_wire().snapshot().write_messages,
        storage.metadata().stats().dht_write_round_trips,
    );
    prepare_shared_file(&fs, &config).expect("prepare read workload");
    let file_pages = clients as u64 * bytes_per_client / page_size;
    let block_writes = storage.stats().write_ops - writes_before;
    let nodes_written = storage.metadata().stats().nodes_written - nodes_before;
    let uploads = storage.provider_wire().snapshot().write_messages - uploads_before;
    let dht_writes = storage.metadata().stats().dht_write_round_trips - dht_writes_before;
    let load = LoadRecord {
        block_writes,
        nodes_written,
        nodes_per_block_write: nodes_written as f64 / block_writes as f64,
        height_above_block: (file_pages.next_power_of_two() / 32).ilog2(),
        provider_write_messages_per_block_write: uploads as f64 / block_writes as f64,
        dht_write_messages_per_block_write: dht_writes as f64 / block_writes as f64,
        metadata_replication: storage.config().metadata_replication,
    };
    println!(
        "load: {} block writes published {} metadata nodes, {:.2} per write \
         ({} tree levels above a block), and sent {:.2} page-write and {:.2} \
         metadata-write messages per write ({} metadata replicas)",
        load.block_writes,
        load.nodes_written,
        load.nodes_per_block_write,
        load.height_above_block,
        load.provider_write_messages_per_block_write,
        load.dht_write_messages_per_block_write,
        load.metadata_replication
    );
    assert_eq!(block_writes * block_size, file_pages * page_size);
    assert!(
        load.nodes_per_block_write <= 1.0 + load.height_above_block as f64,
        "a block write stores its full subtree's top and the path above it"
    );
    assert!(
        load.provider_write_messages_per_block_write <= machines as f64,
        "a block write sends each provider its pages as one batch"
    );
    assert!(
        load.dht_write_messages_per_block_write <= load.metadata_replication as f64,
        "a block write publishes its nodes as one record per replica"
    );
    // The readers model clients on nodes that never saw the writes: the
    // measured phase starts with a cold node cache.
    storage.metadata().drop_cached_nodes();
    let before = storage.metadata().stats();
    let bytes_before = storage.stats().bytes_read;
    let bench = read_shared_file(&fs, &config).expect("run read workload");
    let now = storage.metadata().stats();
    let bytes_read = storage.stats().bytes_read - bytes_before;
    let record = ReadPathRecord {
        label: "cold scan".to_string(),
        aggregate_mibps: bench.aggregate_bps() / (1024.0 * 1024.0),
        pages_read: bytes_read.div_ceil(page_size),
        nodes_read: now.nodes_read - before.nodes_read,
        dht_read_round_trips: now.dht_read_round_trips - before.dht_read_round_trips,
        cache_hits: now.cache_hits - before.cache_hits,
        cache_misses: now.cache_misses - before.cache_misses,
    };
    println!(
        "{}: {:.1} MiB/s aggregate | {} pages, {} nodes requested, {} DHT read round trips \
         | cache: {} hits, {} misses",
        record.label,
        record.aggregate_mibps,
        record.pages_read,
        record.nodes_read,
        record.dht_read_round_trips,
        record.cache_hits,
        record.cache_misses,
    );
    assert_eq!(
        record.cache_hits + record.cache_misses,
        record.nodes_read,
        "every node read is one cache hit or miss"
    );
    println!();
    (load, vec![record])
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

    println!("== E8: storage tier (BSFS vs itself) ==");
    println!();
    println!("-- cold sequential scan: metadata read path --");
    let (load, read_path) = read_path(smoke);
    println!("-- snapshot GC (rewrite loop) --");
    let gc = gc_section(smoke);
    println!();
    println!("all storage-tier assertions held");

    bench::emit_bench_json(
        "E8",
        &Snapshot {
            experiment: "E8",
            smoke,
            load,
            read_path,
            gc,
        },
    );
}
