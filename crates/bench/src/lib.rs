//! Shared harness code for the experiment binaries.
//!
//! Every table/figure of the paper's evaluation (and the ablations) is
//! regenerated by a binary under `src/bin/`; this library holds the pieces
//! they share: deployment builders for both storage systems on a common
//! topology, sweep runners, and table formatting.

use blobseer::{BlobSeer, BlobSeerConfig};
use bsfs::{Bsfs, BsfsConfig};
use hdfs_sim::{Hdfs, HdfsConfig};
use mapreduce::fs::{BsfsFs, DistFs, HdfsFs};
use mapreduce::jobtracker::{JobResult, JobTracker};
use mapreduce::Job;
use serde::Serialize;
use simcluster::metrics::{comparison_table, CompletionRecord, ThroughputSeries};
use simcluster::topology::ClusterTopology;
use simcluster::NodeId;
use workloads::microbench::AccessPattern;
use workloads::simscale::{run_pattern, SimScaleConfig, StorageSystem};

/// The client counts swept by the paper-scale experiments (the paper sweeps
/// 1 to 250 concurrent clients on 270 nodes).
pub const PAPER_CLIENT_COUNTS: &[usize] = &[1, 25, 50, 100, 150, 200, 250];

/// Is `BENCH_SMOKE` set to a non-empty, non-`"0"` value? CI sets it to
/// shrink the experiment binaries to tiny does-it-run configurations; all
/// binaries must agree on the parsing, so it lives here.
pub fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The client counts a paper-scale sweep should run: tiny under smoke mode,
/// the paper's 1–250 otherwise.
pub fn sweep_client_counts(smoke: bool) -> &'static [usize] {
    if smoke {
        &[1, 2]
    } else {
        PAPER_CLIENT_COUNTS
    }
}

/// Build a laptop-scale BSFS deployment (real threads, real bytes) over a
/// flat topology of `nodes` nodes with the given block size.
pub fn small_bsfs(nodes: u32, block_size: u64) -> BsfsFs {
    small_bsfs_full(nodes, block_size, block_size)
}

/// [`small_bsfs`] with an explicit BlobSeer page size (blocks stripe over
/// `block_size / page_size` pages).
pub fn small_bsfs_full(nodes: u32, block_size: u64, page_size: u64) -> BsfsFs {
    let topo = ClusterTopology::flat(nodes);
    let provider_nodes: Vec<NodeId> = topo.all_nodes().collect();
    let storage = BlobSeer::with_topology(
        BlobSeerConfig::default()
            .with_providers(nodes as usize)
            .with_page_size(page_size)
            .with_page_replication(1),
        &topo,
        &provider_nodes,
    );
    BsfsFs::new(Bsfs::new(
        storage,
        BsfsConfig::default()
            .with_block_size(block_size)
            .with_page_size(page_size),
    ))
}

/// Write a machine-readable snapshot of an experiment's results to
/// `BENCH_<name>.json` in the current directory, so CI and the EXPERIMENTS.md
/// re-record can consume the numbers without scraping stdout. Returns the
/// path written.
pub fn emit_bench_json(name: &str, payload: &impl Serialize) -> std::path::PathBuf {
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    let json = serde_json::to_string(payload).expect("bench payload serialises");
    std::fs::write(&path, json.as_bytes()).expect("write bench json snapshot");
    println!("bench-json: wrote {}", path.display());
    path
}

/// One-line report of write-path instrumentation for a BlobSeer deployment:
/// version-manager lock/condvar contention and metadata DHT round trips per
/// committed version. The "vs per-node puts" figure is what the same write
/// traffic would have cost before batched publication (one put per tree node
/// and replica).
pub fn write_path_report(storage: &BlobSeer) -> String {
    let vm = storage.version_manager();
    let contention = vm.contention_stats();
    let meta = storage.metadata().stats();
    let commits = vm.commit_count().max(1);
    let unbatched = meta.nodes_written * storage.metadata().dht().replication() as u64;
    format!(
        "vm[shards={}]: {} lock acquisitions ({} contended), {} cond waits, {} notifies | \
         dht: {} write round trips ({:.1}/commit, {} batch flushes; {} with per-node puts), \
         {} total incl. reads",
        vm.shard_count(),
        contention.lock_acquisitions,
        contention.contended_acquisitions,
        contention.cond_waits,
        contention.notifies,
        meta.dht_write_round_trips,
        meta.dht_write_round_trips as f64 / commits as f64,
        meta.batch_flushes,
        unbatched,
        meta.dht_round_trips,
    )
}

/// Build a laptop-scale HDFS deployment matching [`small_bsfs`].
pub fn small_hdfs(nodes: u32, chunk_size: u64) -> HdfsFs {
    let topo = ClusterTopology::flat(nodes);
    let dn_nodes: Vec<NodeId> = topo.all_nodes().collect();
    HdfsFs::new(Hdfs::with_topology(
        HdfsConfig {
            chunk_size,
            datanodes: nodes as usize,
            replication: 1,
            seed: 7,
        },
        &topo,
        &dn_nodes,
    ))
}

/// One record of a paper-scale sweep, serialisable for EXPERIMENTS.md.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRecord {
    /// Experiment id ("E1", "E2", ...).
    pub experiment: String,
    /// Storage system ("BSFS"/"HDFS" or a placement-strategy label).
    pub system: String,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Aggregate throughput in MiB/s.
    pub aggregate_mibps: f64,
    /// Mean per-client throughput in MiB/s.
    pub per_client_mibps: f64,
}

/// Run one access pattern for both systems over the paper client-count sweep
/// and return (BSFS series, HDFS series, records).
pub fn paper_sweep(
    experiment: &str,
    pattern: AccessPattern,
    client_counts: &[usize],
) -> (ThroughputSeries, ThroughputSeries, Vec<SweepRecord>) {
    let mut bsfs_series = ThroughputSeries::new("BSFS");
    let mut hdfs_series = ThroughputSeries::new("HDFS");
    let mut records = Vec::new();
    for &clients in client_counts {
        let config = SimScaleConfig::paper(clients);
        for system in [StorageSystem::Bsfs, StorageSystem::Hdfs] {
            let (aggregate, per_client) = run_pattern(system, pattern, &config);
            let series = match system {
                StorageSystem::Bsfs => &mut bsfs_series,
                StorageSystem::Hdfs => &mut hdfs_series,
            };
            series.push_raw(clients, aggregate, per_client);
            records.push(SweepRecord {
                experiment: experiment.to_string(),
                system: system.name().to_string(),
                clients,
                aggregate_mibps: aggregate / (1024.0 * 1024.0),
                per_client_mibps: per_client / (1024.0 * 1024.0),
            });
        }
    }
    (bsfs_series, hdfs_series, records)
}

/// Print a paper-scale sweep as a side-by-side comparison table plus the JSON
/// records consumed by EXPERIMENTS.md.
pub fn print_sweep(
    experiment: &str,
    title: &str,
    bsfs: &ThroughputSeries,
    hdfs: &ThroughputSeries,
    records: &[SweepRecord],
) {
    println!("== {experiment}: {title} ==");
    println!("(paper-scale simulation: 270 co-located nodes, 1 GiB/client, 64 MiB blocks striped into 16 MiB pages, replication 1)");
    println!();
    print!("{}", comparison_table(bsfs, hdfs));
    println!();
    println!(
        "JSON: {}",
        serde_json::to_string(records).expect("records serialise")
    );
    println!();
}

/// One-line report of a [`wire::CountersSnapshot`] — the message/byte ledger
/// every transport boundary (DHT, provider, shuffle, control plane) meters
/// through. Used by the wire experiments so all boundaries print the same
/// shape.
pub fn wire_report(label: &str, w: &wire::CountersSnapshot) -> String {
    format!(
        "{label}: {} msgs ({} read / {} write), {} bytes sent + {} received = {} on wire",
        w.messages,
        w.read_messages,
        w.write_messages,
        w.bytes_sent,
        w.bytes_received,
        w.bytes_on_wire,
    )
}

/// One-line report of a job's storage-materialized shuffle: spill volume,
/// combiner reduction, and the segment fetches/round trips the reducers paid
/// against the storage layer. This is the per-job counterpart of
/// [`write_path_report`] — deterministic, counter-based numbers an
/// experiment section can record.
pub fn shuffle_report(result: &JobResult) -> String {
    let s = &result.shuffle;
    let combine = if s.combine_input_records > 0 {
        format!(
            "combine {} -> {} records (-{:.1}%), ",
            s.combine_input_records,
            s.combine_output_records,
            100.0 * (1.0 - s.combine_output_records as f64 / s.combine_input_records as f64)
        )
    } else {
        String::new()
    };
    let speculation = if result.speculation.launched > 0 {
        let sp = &result.speculation;
        format!(
            " | speculation: {} launched, {} won, {} wasted attempts ({:.1}s wasted)",
            sp.launched,
            sp.wins,
            sp.wasted_attempts,
            sp.wasted_micros as f64 / 1e6,
        )
    } else {
        String::new()
    };
    format!(
        "shuffle[{} {} x {}]: {} records spilled in {} bytes, {}{} segments fetched \
         over {} positioned reads ({} bytes), {} merge runs{}",
        result.fs_name,
        result.map_tasks,
        result.reduce_tasks,
        s.spill_records,
        s.spill_bytes,
        combine,
        s.segments_fetched,
        s.shuffle_read_round_trips,
        s.shuffle_read_bytes,
        s.merge_runs,
        speculation,
    )
}

/// Run a MapReduce job on a given backend and convert the result into a
/// completion record.
pub fn run_job_on(
    fs: &dyn DistFs,
    topo: &ClusterTopology,
    job: &Job,
) -> (JobResult, CompletionRecord) {
    let tracker = JobTracker::new(topo);
    let result = tracker.run(fs, job).expect("job should succeed");
    let record = CompletionRecord {
        system: result.fs_name.clone(),
        application: result.job_name.clone(),
        map_tasks: result.map_tasks,
        reduce_tasks: result.reduce_tasks,
        completion_secs: result.completion_secs(),
    };
    (result, record)
}

/// A flat topology shared by the application experiments (8 nodes).
pub fn app_topology() -> ClusterTopology {
    ClusterTopology::flat(8)
}

/// Build the two application-experiment backends over [`app_topology`].
pub fn app_backends(block_size: u64) -> (BsfsFs, HdfsFs) {
    let topo = app_topology();
    let nodes: Vec<NodeId> = topo.all_nodes().collect();
    let storage = BlobSeer::with_topology(
        BlobSeerConfig::default()
            .with_providers(nodes.len())
            .with_page_size(block_size)
            .with_page_replication(1),
        &topo,
        &nodes,
    );
    let bsfs = BsfsFs::new(Bsfs::new(
        storage,
        BsfsConfig::default().with_block_size(block_size),
    ));
    let hdfs = HdfsFs::new(Hdfs::with_topology(
        HdfsConfig {
            chunk_size: block_size,
            datanodes: nodes.len(),
            replication: 1,
            seed: 7,
        },
        &topo,
        &nodes,
    ));
    (bsfs, hdfs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_deployments_are_usable() {
        let bsfs = small_bsfs(4, 1 << 20);
        let hdfs = small_hdfs(4, 1 << 20);
        bsfs.write_file("/x", b"data").unwrap();
        hdfs.write_file("/x", b"data").unwrap();
        assert_eq!(bsfs.read_file("/x").unwrap(), hdfs.read_file("/x").unwrap());
    }

    #[test]
    fn paper_sweep_produces_both_series() {
        // Use tiny client counts so the test stays fast; the sweep machinery
        // is identical to what the binaries run.
        let (bsfs, hdfs, records) = paper_sweep("E3", AccessPattern::WriteDistinctFiles, &[1, 2]);
        assert_eq!(bsfs.points.len(), 2);
        assert_eq!(hdfs.points.len(), 2);
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.aggregate_mibps > 0.0));
    }

    #[test]
    fn shuffle_report_surfaces_job_counters() {
        let (bsfs, _) = app_backends(64 * 1024);
        bsfs.write_file("/in/w.txt", b"a b a\nb a b\na a b\n")
            .unwrap();
        let job = workloads::word_count_job_combining(vec!["/in/w.txt".into()], "/out", 2, 8);
        let (result, _) = run_job_on(&bsfs, &app_topology(), &job);
        let report = shuffle_report(&result);
        assert!(report.contains("BSFS"));
        assert!(report.contains("combine"), "combiner stats in: {report}");
        assert!(result.shuffle.segments_fetched > 0);
    }

    #[test]
    fn wire_report_formats_the_ledger() {
        let c = wire::Counters::new();
        c.record(wire::Direction::Read, 16, 4096);
        let line = wire_report("dht", &c.snapshot());
        assert!(line.starts_with("dht: 1 msgs (1 read / 0 write)"), "{line}");
        assert!(line.contains("4112 on wire"), "{line}");
    }

    #[test]
    fn app_backends_run_a_job() {
        let (bsfs, _hdfs) = app_backends(1 << 20);
        bsfs.write_file("/in/data.txt", b"needle in a haystack\nnothing here\n")
            .unwrap();
        let job =
            workloads::distributed_grep_job(vec!["/in/data.txt".into()], "/out", "needle", 1 << 20);
        let (result, record) = run_job_on(&bsfs, &app_topology(), &job);
        assert_eq!(result.map_tasks, 1);
        assert_eq!(record.application, "distributed-grep");
        assert_eq!(record.system, "BSFS");
    }
}
