//! The three microbenchmark access patterns of the paper's §IV-B, executed
//! for real against a storage backend (threads moving actual bytes).
//!
//! "The microbenchmarks are tests that directly access the storage layer, by
//! using the file system interface it provides":
//!
//! * clients concurrently **reading from different files** (map phase over
//!   per-task inputs),
//! * clients concurrently **reading non-overlapping parts of the same huge
//!   file** (map phase over one shared input),
//! * clients concurrently **writing to different files** (reduce phase
//!   writing per-task outputs).
//!
//! These real-mode runs are used for correctness checks and the real-bytes
//! sections of the experiment binaries; the paper-scale (270 nodes, 1 GiB per client)
//! numbers come from [`crate::simscale`], which replays the same placement
//! decisions through the flow-level network model.

use mapreduce::fs::DistFs;
use mapreduce::MrResult;
use std::sync::Arc;
use std::time::Instant;

/// Which access pattern a microbenchmark run exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Each client reads its own file (E1).
    ReadDistinctFiles,
    /// All clients read disjoint parts of one shared file (E2).
    ReadSharedFile,
    /// Each client writes its own file (E3).
    WriteDistinctFiles,
}

/// Parameters of a microbenchmark run.
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchConfig {
    /// Number of concurrent clients (threads).
    pub clients: usize,
    /// Bytes processed per client.
    pub bytes_per_client: u64,
    /// Size of each individual read/write request issued by a client
    /// (MapReduce applications use small records; the paper cites 4 KB).
    pub record_size: u64,
}

impl MicrobenchConfig {
    /// A laptop-scale configuration: a handful of clients, a few hundred KiB
    /// each, 4 KiB records.
    pub fn small(clients: usize) -> Self {
        MicrobenchConfig {
            clients,
            bytes_per_client: 256 * 1024,
            record_size: 4096,
        }
    }
}

/// Result of a microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicrobenchReport {
    /// The pattern that was executed.
    pub pattern: AccessPattern,
    /// Number of clients.
    pub clients: usize,
    /// Total bytes moved by all clients.
    pub total_bytes: u64,
    /// Wall-clock seconds for the whole run (slowest client).
    pub elapsed_secs: f64,
    /// Per-client throughput in bytes/second.
    pub per_client_bps: Vec<f64>,
}

impl MicrobenchReport {
    /// Aggregate throughput in bytes per second.
    pub fn aggregate_bps(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.total_bytes as f64 / self.elapsed_secs
        }
    }

    /// Mean per-client throughput in bytes per second.
    pub fn mean_client_bps(&self) -> f64 {
        if self.per_client_bps.is_empty() {
            0.0
        } else {
            self.per_client_bps.iter().sum::<f64>() / self.per_client_bps.len() as f64
        }
    }
}

/// Path of the file used by client `i` in the distinct-file patterns.
pub fn client_file(i: usize) -> String {
    format!("/microbench/client-{i:04}")
}

/// Path of the shared file used by the shared-read pattern.
pub const SHARED_FILE: &str = "/microbench/shared-huge-file";

/// Pre-create the per-client input files for [`AccessPattern::ReadDistinctFiles`].
pub fn prepare_distinct_files(fs: &dyn DistFs, config: &MicrobenchConfig) -> MrResult<()> {
    for i in 0..config.clients {
        write_file_in_records(
            fs,
            &client_file(i),
            config.bytes_per_client,
            config.record_size,
        )?;
    }
    Ok(())
}

/// Pre-create the shared input file for [`AccessPattern::ReadSharedFile`].
pub fn prepare_shared_file(fs: &dyn DistFs, config: &MicrobenchConfig) -> MrResult<()> {
    let total = config.bytes_per_client * config.clients as u64;
    write_file_in_records(fs, SHARED_FILE, total, config.record_size.max(64 * 1024))
}

fn write_file_in_records(
    fs: &dyn DistFs,
    path: &str,
    total: u64,
    record_size: u64,
) -> MrResult<()> {
    let mut writer = fs.create(path)?;
    let record = vec![0x5Au8; record_size as usize];
    let mut written = 0u64;
    while written < total {
        let n = record_size.min(total - written) as usize;
        writer.write(&record[..n])?;
        written += n as u64;
    }
    writer.close()
}

/// Run the "concurrent reads from different files" pattern (E1). The input
/// files must have been created with [`prepare_distinct_files`].
pub fn read_distinct_files(
    fs: &dyn DistFs,
    config: &MicrobenchConfig,
) -> MrResult<MicrobenchReport> {
    run_clients(
        fs,
        config,
        AccessPattern::ReadDistinctFiles,
        |fs, client, cfg| {
            let path = client_file(client);
            let mut reader = fs.open(&path)?;
            let size = reader.len()?;
            let mut offset = 0u64;
            let mut bytes = 0u64;
            while offset < size {
                let n = cfg.record_size.min(size - offset);
                let data = reader.read_at(offset, n)?;
                bytes += data.len() as u64;
                offset += n;
            }
            Ok(bytes)
        },
    )
}

/// Run the "concurrent reads of non-overlapping parts of the same huge file"
/// pattern (E2). The shared file must have been created with
/// [`prepare_shared_file`].
pub fn read_shared_file(fs: &dyn DistFs, config: &MicrobenchConfig) -> MrResult<MicrobenchReport> {
    run_clients(
        fs,
        config,
        AccessPattern::ReadSharedFile,
        |fs, client, cfg| {
            let mut reader = fs.open(SHARED_FILE)?;
            let start = client as u64 * cfg.bytes_per_client;
            let end = start + cfg.bytes_per_client;
            let mut offset = start;
            let mut bytes = 0u64;
            while offset < end {
                let n = cfg.record_size.min(end - offset);
                let data = reader.read_at(offset, n)?;
                bytes += data.len() as u64;
                offset += n;
            }
            Ok(bytes)
        },
    )
}

/// Run the "concurrent writes to different files" pattern (E3).
pub fn write_distinct_files(
    fs: &dyn DistFs,
    config: &MicrobenchConfig,
) -> MrResult<MicrobenchReport> {
    run_clients(
        fs,
        config,
        AccessPattern::WriteDistinctFiles,
        |fs, client, cfg| {
            let path = format!("/microbench/output-{client:04}");
            if fs.exists(&path) {
                fs.delete(&path, false)?;
            }
            let mut writer = fs.create(&path)?;
            let record = vec![0xA5u8; cfg.record_size as usize];
            let mut written = 0u64;
            while written < cfg.bytes_per_client {
                let n = cfg.record_size.min(cfg.bytes_per_client - written) as usize;
                writer.write(&record[..n])?;
                written += n as u64;
            }
            writer.close()?;
            Ok(written)
        },
    )
}

/// Spawn one thread per client running `body`, measure wall-clock time, and
/// assemble the report. Each client's I/O originates from a distinct cluster
/// node (round-robin over the topology), mirroring the paper's deployment of
/// one client per machine.
fn run_clients<F>(
    fs: &dyn DistFs,
    config: &MicrobenchConfig,
    pattern: AccessPattern,
    body: F,
) -> MrResult<MicrobenchReport>
where
    F: Fn(&dyn DistFs, usize, &MicrobenchConfig) -> MrResult<u64> + Send + Sync,
{
    assert!(config.clients > 0, "at least one client is required");
    assert!(config.record_size > 0, "record size must be non-zero");
    let body = Arc::new(body);
    let start = Instant::now();
    let results: Vec<MrResult<(u64, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|client| {
                let body = Arc::clone(&body);
                let cfg = *config;
                // Each client runs "on" its own node so that placement
                // policies see distinct writers/readers.
                let local_fs = fs.on_node(pick_node(fs, client));
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let bytes = body(&*local_fs, client, &cfg)?;
                    Ok((bytes, t0.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_secs = start.elapsed().as_secs_f64();

    let mut total_bytes = 0u64;
    let mut per_client_bps = Vec::with_capacity(config.clients);
    for r in results {
        let (bytes, secs) = r?;
        total_bytes += bytes;
        per_client_bps.push(if secs > 0.0 { bytes as f64 / secs } else { 0.0 });
    }
    Ok(MicrobenchReport {
        pattern,
        clients: config.clients,
        total_bytes,
        elapsed_secs,
        per_client_bps,
    })
}

/// Round-robin a client index onto a node of the backend's topology. The
/// trait does not expose the topology, so clients are mapped onto a fixed
/// number of logical nodes; backends with fewer nodes wrap around (NodeId is
/// validated by `on_node` implementations through their own topology).
fn pick_node(fs: &dyn DistFs, client: usize) -> simcluster::NodeId {
    // The adapters' `on_node` panics on out-of-range ids, so probe downwards
    // from a generous guess. In practice deployments in this repo have at
    // least 4 nodes.
    let _ = fs;
    simcluster::NodeId((client % 4) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer::{BlobSeer, BlobSeerConfig};
    use bsfs::{Bsfs, BsfsConfig};
    use hdfs_sim::{Hdfs, HdfsConfig};
    use mapreduce::fs::{BsfsFs, HdfsFs};

    fn bsfs_fs() -> BsfsFs {
        let storage = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_providers(4)
                .with_page_size(8 * 1024),
        );
        BsfsFs::new(Bsfs::new(
            storage,
            BsfsConfig::for_tests().with_block_size(8 * 1024),
        ))
    }

    fn hdfs_fs() -> HdfsFs {
        HdfsFs::new(Hdfs::new(
            HdfsConfig::for_tests()
                .with_chunk_size(8 * 1024)
                .with_datanodes(4),
        ))
    }

    fn tiny_config(clients: usize) -> MicrobenchConfig {
        MicrobenchConfig {
            clients,
            bytes_per_client: 64 * 1024,
            record_size: 4096,
        }
    }

    #[test]
    fn write_distinct_files_moves_all_bytes_on_both_backends() {
        for fs in [&bsfs_fs() as &dyn DistFs, &hdfs_fs() as &dyn DistFs] {
            let config = tiny_config(4);
            let report = write_distinct_files(fs, &config).unwrap();
            assert_eq!(report.pattern, AccessPattern::WriteDistinctFiles);
            assert_eq!(report.clients, 4);
            assert_eq!(report.total_bytes, 4 * 64 * 1024);
            assert!(report.aggregate_bps() > 0.0);
            assert_eq!(report.per_client_bps.len(), 4);
            assert!(report.mean_client_bps() > 0.0);
            // The output files really exist and have the right size.
            for i in 0..4 {
                assert_eq!(
                    fs.len(&format!("/microbench/output-{i:04}")).unwrap(),
                    64 * 1024
                );
            }
        }
    }

    #[test]
    fn read_distinct_files_reads_back_every_byte() {
        for fs in [&bsfs_fs() as &dyn DistFs, &hdfs_fs() as &dyn DistFs] {
            let config = tiny_config(3);
            prepare_distinct_files(fs, &config).unwrap();
            let report = read_distinct_files(fs, &config).unwrap();
            assert_eq!(report.total_bytes, 3 * 64 * 1024);
            assert_eq!(report.pattern, AccessPattern::ReadDistinctFiles);
        }
    }

    #[test]
    fn read_shared_file_covers_disjoint_ranges() {
        for fs in [&bsfs_fs() as &dyn DistFs, &hdfs_fs() as &dyn DistFs] {
            let config = tiny_config(4);
            prepare_shared_file(fs, &config).unwrap();
            assert_eq!(fs.len(SHARED_FILE).unwrap(), 4 * 64 * 1024);
            let report = read_shared_file(fs, &config).unwrap();
            assert_eq!(report.total_bytes, 4 * 64 * 1024);
        }
    }

    #[test]
    fn single_client_run_works() {
        let fs = bsfs_fs();
        let config = tiny_config(1);
        prepare_distinct_files(&fs, &config).unwrap();
        let report = read_distinct_files(&fs, &config).unwrap();
        assert_eq!(report.clients, 1);
        assert_eq!(report.per_client_bps.len(), 1);
    }

    #[test]
    fn rerunning_the_write_benchmark_overwrites_previous_outputs() {
        let fs = bsfs_fs();
        let config = tiny_config(2);
        write_distinct_files(&fs, &config).unwrap();
        // Second run must not fail on already-existing output files.
        let report = write_distinct_files(&fs, &config).unwrap();
        assert_eq!(report.total_bytes, 2 * 64 * 1024);
    }
}
