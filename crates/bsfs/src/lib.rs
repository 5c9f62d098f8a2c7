//! # bsfs — the BlobSeer File System
//!
//! BSFS is the paper's contribution: "In order to enable BlobSeer to be used
//! as a file system within the Hadoop framework, we added an additional layer
//! on top of the BlobSeer service, layer that we called the BlobSeer File
//! System - BSFS" (§III-B). It consists of:
//!
//! * a **centralized namespace manager** ([`namespace::NamespaceManager`])
//!   mapping a hierarchical file namespace onto BlobSeer blobs — the same
//!   namespace tree ([`simcluster::fs::Namespace`]) the HDFS baseline keeps;
//! * **client-side caching** — a stream of small sequential reads is served
//!   from one prefetched whole block ([`BsfsReader`]), writes are buffered
//!   and committed one block at a time ([`simcluster::fs::WriteBuffer`]) —
//!   so that the 4 KB-record access pattern of MapReduce applications does
//!   not translate into millions of tiny storage operations; any other read
//!   ([`BsfsReader::read_at`]) names its range and moves exactly those bytes;
//! * a **data-layout exposure** primitive ([`Bsfs::locate`]) so the MapReduce
//!   scheduler can ship computation to the nodes holding the data.
//!
//! The API mirrors what the Hadoop `FileSystem` abstraction needs: create,
//! sequential write, positioned read, list, rename, delete, and locality
//! queries.
//!
//! ```
//! use blobseer::{BlobSeer, BlobSeerConfig};
//! use bsfs::{Bsfs, BsfsConfig};
//!
//! let storage = BlobSeer::new(BlobSeerConfig::for_tests());
//! let fs = Bsfs::new(storage, BsfsConfig::for_tests());
//!
//! let mut w = fs.create("/data/input.txt").unwrap();
//! w.write(b"one record\n").unwrap();
//! w.write(b"another record\n").unwrap();
//! w.close().unwrap();
//!
//! assert_eq!(fs.len("/data/input.txt").unwrap(), 26);
//! let mut r = fs.open("/data/input.txt").unwrap();
//! assert_eq!(&r.read_at(0, 10).unwrap()[..], b"one record");
//! ```

mod cache;
pub mod error;
pub mod namespace;

pub use error::{FsError, FsResult};
pub use namespace::{FileEntry, NamespaceManager, PathStatus};

use blobseer::{BlobId, BlobSeer, BlobSeerClient, ByteRange};
use bytes::Bytes;
use cache::StreamBlock;
use simcluster::fs::{normalize, NamespaceError, WriteBuffer};
use simcluster::NodeId;
use std::sync::Arc;

/// Configuration of the BSFS layer.
#[derive(Debug, Clone)]
pub struct BsfsConfig {
    /// Block size a record stream is prefetched in and the write/commit
    /// unit (Hadoop-style 64 MiB by default).
    pub block_size: u64,
    /// BlobSeer page size backing each file's blob. `None` (the default)
    /// makes one BSFS block one BlobSeer page; setting it smaller stripes
    /// every block over `block_size / page_size` pages — and therefore over
    /// that many providers — which is the configuration the paper evaluates
    /// ("the page is the data-management unit" and is chosen smaller than
    /// the Hadoop chunk). Must divide `block_size` when set.
    pub page_size: Option<u64>,
}

impl Default for BsfsConfig {
    fn default() -> Self {
        BsfsConfig {
            block_size: 64 * 1024 * 1024,
            page_size: None,
        }
    }
}

impl BsfsConfig {
    /// A configuration sized for unit tests (small blocks).
    pub fn for_tests() -> Self {
        BsfsConfig {
            block_size: 256,
            page_size: None,
        }
    }

    /// Builder-style override of the block size.
    pub fn with_block_size(mut self, block_size: u64) -> Self {
        self.block_size = block_size;
        self
    }

    /// Builder-style override of the blob page size (page striping).
    pub fn with_page_size(mut self, page_size: u64) -> Self {
        self.page_size = Some(page_size);
        self
    }

    /// The page size blobs are created with.
    pub fn effective_page_size(&self) -> u64 {
        self.page_size.unwrap_or(self.block_size)
    }
}

/// Block-level location of part of a file, for locality-aware scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLocation {
    /// Byte range of the file covered by this entry.
    pub range: ByteRange,
    /// Cluster nodes holding a copy of that range, in preference order.
    pub nodes: Vec<NodeId>,
}

/// The BSFS file-system client.
///
/// Cloning is cheap; all clones share the same namespace manager and BlobSeer
/// deployment. A clone can be attached to a different cluster node with
/// [`Bsfs::on_node`], which matters for placement strategies that favour
/// locality.
#[derive(Clone)]
pub struct Bsfs {
    storage: Arc<BlobSeer>,
    client: BlobSeerClient,
    namespace: Arc<NamespaceManager>,
    config: BsfsConfig,
}

impl Bsfs {
    /// Create a BSFS instance over a BlobSeer deployment.
    pub fn new(storage: Arc<BlobSeer>, config: BsfsConfig) -> Self {
        assert!(config.block_size > 0, "block size must be non-zero");
        if let Some(page_size) = config.page_size {
            assert!(page_size > 0, "page size must be non-zero");
            assert!(
                config.block_size.is_multiple_of(page_size),
                "the page size ({page_size}) must divide the block size ({})",
                config.block_size
            );
        }
        let client = storage.client();
        Bsfs {
            storage,
            client,
            namespace: Arc::new(NamespaceManager::new()),
            config,
        }
    }

    /// A handle whose operations originate from the given cluster node.
    pub fn on_node(&self, node: NodeId) -> Self {
        let mut clone = self.clone();
        clone.client = self.storage.client_on(node);
        clone
    }

    /// The BlobSeer deployment underneath.
    pub fn storage(&self) -> &Arc<BlobSeer> {
        &self.storage
    }

    /// The namespace manager (tests, tooling).
    pub fn namespace(&self) -> &Arc<NamespaceManager> {
        &self.namespace
    }

    /// This instance's configuration.
    pub fn config(&self) -> &BsfsConfig {
        &self.config
    }

    /// Create a file and return a writer. Missing ancestor directories are
    /// created implicitly (like Hadoop's `FileSystem.create`).
    pub fn create(&self, path: &str) -> FsResult<BsfsWriter> {
        // An invalid path fails before a blob is made.
        let normalized = normalize(path)?;
        let blob = self
            .client
            .create(Some(self.config.effective_page_size()))?;
        if let Err(e) = self.namespace.create_file(&normalized, FileEntry { blob }) {
            // Nothing refers to the blob: free it before reporting.
            self.client.delete(blob)?;
            return Err(e.into());
        }
        Ok(BsfsWriter {
            client: self.client.clone(),
            blob,
            buffer: WriteBuffer::new(self.config.block_size),
            closed: false,
            path: normalized,
        })
    }

    /// Open a file for reading.
    pub fn open(&self, path: &str) -> FsResult<BsfsReader> {
        let normalized = normalize(path)?;
        let entry = self.namespace.lookup(&normalized)?;
        Ok(BsfsReader {
            client: self.client.clone(),
            blob: entry.blob,
            stream: StreamBlock::new(self.config.block_size),
            path: normalized,
            position: 0,
            run: 0,
            run_end: 0,
        })
    }

    /// Length of a file in bytes.
    pub fn len(&self, path: &str) -> FsResult<u64> {
        let entry = self.namespace.lookup(path)?;
        Ok(self.client.size(entry.blob)?)
    }

    /// True when the namespace is completely empty (no files).
    pub fn is_empty(&self) -> bool {
        self.namespace.file_count() == 0
    }

    /// Does the path exist (file or directory)?
    pub fn exists(&self, path: &str) -> bool {
        self.namespace.exists(path)
    }

    /// Create a directory and its ancestors.
    pub fn mkdirs(&self, path: &str) -> FsResult<()> {
        Ok(self.namespace.mkdirs(path)?)
    }

    /// List the children of a directory.
    pub fn list(&self, path: &str) -> FsResult<Vec<String>> {
        Ok(self.namespace.list(path)?)
    }

    /// Delete a file or, with `recursive`, a directory tree, and free the
    /// storage behind it: every blob the delete removed from the namespace
    /// goes to one [`BlobSeerClient::delete_all`], so a directory of any
    /// size costs one sweep — one delete batch per provider and one removal
    /// batch per metadata provider — before this returns.
    pub fn delete(&self, path: &str, recursive: bool) -> FsResult<()> {
        let removed = match self.namespace.status(path)? {
            PathStatus::File(_) => vec![self.namespace.remove_file(path)?],
            PathStatus::Directory => self.namespace.remove_dir(path, recursive)?,
            PathStatus::Missing => {
                return Err(NamespaceError::FileNotFound(path.to_string()).into())
            }
        };
        let blobs: Vec<BlobId> = removed.iter().map(|entry| entry.blob).collect();
        Ok(self.client.delete_all(&blobs)?)
    }

    /// Rename a file or directory.
    pub fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        Ok(self.namespace.rename(from, to)?)
    }

    /// Expose the data layout of a byte range of a file: which cluster nodes
    /// hold each block. This is the primitive the MapReduce jobtracker uses
    /// for locality-aware task placement (paper §III-B).
    pub fn locate(&self, path: &str, offset: u64, len: u64) -> FsResult<Vec<BlockLocation>> {
        let entry = self.namespace.lookup(path)?;
        let locations = self.client.locate_latest(entry.blob, offset, len)?;
        Ok(locations
            .into_iter()
            .map(|l| BlockLocation {
                range: l.range,
                nodes: l.nodes,
            })
            .collect())
    }

    /// Convenience: write an entire file in one call.
    pub fn write_file(&self, path: &str, data: &[u8]) -> FsResult<()> {
        let mut w = self.create(path)?;
        w.write(data)?;
        w.close()
    }

    /// Lock/condvar contention of the underlying version manager, summed
    /// over its shards (passthrough for benchmarks and tooling).
    pub fn version_manager_contention(&self) -> blobseer::ShardStats {
        self.storage.version_manager().contention_stats()
    }

    /// Metadata traffic counters of the underlying BlobSeer deployment,
    /// including DHT round trips and batch flushes (passthrough).
    pub fn metadata_stats(&self) -> blobseer::MetadataStats {
        self.storage.metadata().stats()
    }

    /// Convenience: read an entire file in one call.
    pub fn read_file(&self, path: &str) -> FsResult<Bytes> {
        let size = self.len(path)?;
        if size == 0 {
            return Ok(Bytes::new());
        }
        let mut r = self.open(path)?;
        r.read_at(0, size)
    }
}

/// Sequential writer for one file. Writes are buffered into whole blocks and
/// committed to BlobSeer as appends; `close` flushes the tail and must be
/// called (dropping an unclosed writer loses the buffered tail, mirroring
/// Hadoop semantics where an unclosed file has undefined visible length).
pub struct BsfsWriter {
    client: BlobSeerClient,
    blob: BlobId,
    buffer: WriteBuffer,
    closed: bool,
    path: String,
}

impl BsfsWriter {
    /// The path this writer writes to.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The blob backing the file (tests, tooling).
    pub fn blob(&self) -> BlobId {
        self.blob
    }

    /// Append `data` to the file.
    pub fn write(&mut self, data: &[u8]) -> FsResult<()> {
        if self.closed {
            return Err(FsError::WriterClosed);
        }
        if data.is_empty() {
            return Ok(());
        }
        self.buffer.push(data, |block| {
            self.client.append(self.blob, &block).map(drop)
        })?;
        Ok(())
    }

    /// Bytes accepted so far (buffered or committed).
    pub fn bytes_written(&self) -> u64 {
        self.buffer.total_bytes()
    }

    /// Flush the partial tail block and mark the writer closed.
    pub fn close(&mut self) -> FsResult<()> {
        if self.closed {
            return Ok(());
        }
        if let Some(tail) = self.buffer.flush() {
            self.client.append(self.blob, &tail)?;
        }
        self.closed = true;
        Ok(())
    }
}

/// How many sub-block reads in a row, each starting where the one before
/// ended, a [`BsfsReader`] serves exactly before it takes them for a stream
/// of small records. Two is what fetching a header and then the body it
/// points to looks like; a third is a scan.
const EXACT_READS_BEFORE_STREAM: u32 = 2;

/// Reader for one file. A read moves exactly the bytes it names, until the
/// reads form a stream of small records: from then on the reader prefetches
/// the whole block a record lies in, holds it, and serves the records that
/// follow from it.
pub struct BsfsReader {
    client: BlobSeerClient,
    blob: BlobId,
    stream: StreamBlock,
    path: String,
    position: u64,
    /// Sub-block reads in a row that each started where the one before ended
    /// (the first of them included), and where the last one ended.
    run: u32,
    run_end: u64,
}

impl BsfsReader {
    /// The path this reader reads from.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Current length of the file.
    pub fn len(&self) -> FsResult<u64> {
        Ok(self.client.size(self.blob)?)
    }

    /// True when the file currently holds no bytes.
    pub fn is_empty(&self) -> FsResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Read `len` bytes at an explicit offset: exactly the bytes
    /// `[offset, offset + len)`, with one ranged blob read — a caller that
    /// names its range has said all it wants. The exception is the access
    /// pattern the paper's cache is for, a stream of small records: once
    /// more than [`EXACT_READS_BEFORE_STREAM`] reads shorter than a block
    /// have each continued the one before, reads are served from the held
    /// block, prefetched whole, until one breaks the run.
    pub fn read_at(&mut self, offset: u64, len: u64) -> FsResult<Bytes> {
        let size = self.len()?;
        // `checked_add`: a huge offset must surface as `OutOfBounds`, not
        // wrap past the bounds check in release builds.
        let requested_end = offset.checked_add(len);
        if requested_end.is_none_or(|end| end > size) {
            return Err(FsError::OutOfBounds {
                path: self.path.clone(),
                requested_end: requested_end.unwrap_or(u64::MAX),
                size,
            });
        }
        if len == 0 {
            return Ok(Bytes::new());
        }
        let block_size = self.stream.block_size();
        self.run = if len >= block_size {
            0
        } else if self.run > 0 && offset == self.run_end {
            self.run.saturating_add(1)
        } else {
            1
        };
        self.run_end = offset + len;
        if self.run <= EXACT_READS_BEFORE_STREAM {
            return Ok(self.client.read_latest(self.blob, offset, len)?);
        }
        let (client, blob) = (&self.client, self.blob);
        self.stream
            .read(offset, len, size, |block, block_len| {
                client.read_latest(blob, block * block_size, block_len)
            })
            .map_err(FsError::from)
    }

    /// Sequential read from the current position; advances the position.
    pub fn read(&mut self, len: u64) -> FsResult<Bytes> {
        let size = self.len()?;
        let remaining = size.saturating_sub(self.position);
        let n = len.min(remaining);
        let data = self.read_at(self.position, n)?;
        self.position += data.len() as u64;
        Ok(data)
    }

    /// Move the sequential-read position.
    pub fn seek(&mut self, position: u64) {
        self.position = position;
    }

    /// Current sequential-read position.
    pub fn position(&self) -> u64 {
        self.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer::BlobSeerConfig;

    fn fs() -> Bsfs {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(256));
        Bsfs::new(storage, BsfsConfig::for_tests())
    }

    #[test]
    fn write_then_read_whole_file() {
        let fs = fs();
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        fs.write_file("/dir/file.bin", &data).unwrap();
        assert_eq!(fs.len("/dir/file.bin").unwrap(), 1000);
        assert_eq!(fs.read_file("/dir/file.bin").unwrap().to_vec(), data);
        assert!(fs.exists("/dir"));
        assert!(fs.exists("/dir/file.bin"));
        assert!(!fs.is_empty());
    }

    #[test]
    fn small_record_writes_are_batched_into_blocks() {
        let fs = fs();
        let mut w = fs.create("/records").unwrap();
        // 100 records of 11 bytes with a 256-byte block: the writer should
        // commit ceil(1100/256) = 5 appends (4 full blocks + the flushed
        // tail), not 100.
        for i in 0..100u32 {
            w.write(format!("rec{i:06}#\n").as_bytes()).unwrap();
        }
        w.close().unwrap();
        assert_eq!(fs.len("/records").unwrap(), 1100);
        let versions = fs.storage().version_manager().latest(w.blob()).unwrap();
        assert_eq!(
            versions.version.0, 5,
            "expected 5 block appends, got {}",
            versions.version.0
        );
    }

    #[test]
    fn sequential_small_reads_prefetch_blocks() {
        let fs = fs();
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 256) as u8).collect();
        fs.write_file("/input", &data).unwrap();
        let mut r = fs.open("/input").unwrap();
        let before = fs.storage().stats();
        let mut assembled = Vec::new();
        loop {
            let chunk = r.read(32).unwrap();
            if chunk.is_empty() {
                break;
            }
            assembled.extend_from_slice(&chunk);
        }
        assert_eq!(assembled, data);
        let after = fs.storage().stats();
        // Two exact records, then 2048/256 = 8 whole blocks: 10 blob reads,
        // not 64 small ones.
        assert_eq!(after.read_ops - before.read_ops, 2 + 8);
        assert_eq!(after.bytes_read - before.bytes_read, 64 + 2048);
    }

    #[test]
    fn positioned_read_moves_only_the_bytes_it_asked_for() {
        let fs = fs();
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/input", &data).unwrap();
        let mut r = fs.open("/input").unwrap();
        let before = fs.storage().stats();
        // The last byte of block 0 (blocks are 256 bytes).
        assert_eq!(&r.read_at(255, 1).unwrap()[..], &data[255..256]);
        let after = fs.storage().stats();
        assert_eq!(after.bytes_read - before.bytes_read, 1);
        assert_eq!(after.read_ops - before.read_ops, 1);
        // A read spanning three blocks is still one exact blob read.
        assert_eq!(&r.read_at(200, 400).unwrap()[..], &data[200..600]);
        let last = fs.storage().stats();
        assert_eq!(last.bytes_read - after.bytes_read, 400);
        assert_eq!(last.read_ops - after.read_ops, 1);
        // A header and then the body right behind it: two reads, both exact.
        let mut r = fs.open("/input").unwrap();
        r.read_at(0, 16).unwrap();
        r.read_at(16, 100).unwrap();
        let body = fs.storage().stats();
        assert_eq!(body.bytes_read - last.bytes_read, 116);
        assert_eq!(body.read_ops - last.read_ops, 2, "no block loaded");
    }

    #[test]
    fn a_run_of_small_sequential_positioned_reads_becomes_a_stream() {
        let fs = fs();
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/input", &data).unwrap();
        let mut r = fs.open("/input").unwrap();
        let before = fs.storage().stats();
        // 32-byte records over four 256-byte blocks: the first two are exact
        // reads, the third makes it a stream and loads block 0, and from
        // there one blob read per block serves eight records.
        for at in (0..1024).step_by(32) {
            let got = r.read_at(at, 32).unwrap();
            assert_eq!(&got[..], &data[at as usize..at as usize + 32]);
        }
        let scanned = fs.storage().stats();
        assert_eq!(scanned.read_ops - before.read_ops, 2 + 4);
        assert_eq!(scanned.bytes_read - before.bytes_read, 64 + 1024);
        // A read elsewhere breaks the run: exact again, no block loaded.
        assert_eq!(&r.read_at(512, 8).unwrap()[..], &data[512..520]);
        let jumped = fs.storage().stats();
        assert_eq!(jumped.bytes_read - scanned.bytes_read, 8);
        assert_eq!(jumped.read_ops - scanned.read_ops, 1);
        // So does a read of a block or more, however sequential.
        r.read_at(0, 256).unwrap();
        r.read_at(256, 256).unwrap();
        r.read_at(512, 256).unwrap();
        let blocks = fs.storage().stats();
        assert_eq!(blocks.read_ops - jumped.read_ops, 3);
        assert_eq!(blocks.bytes_read - jumped.bytes_read, 768);
    }

    #[test]
    fn read_at_random_offsets() {
        let fs = fs();
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 256) as u8).collect();
        fs.write_file("/random", &data).unwrap();
        let mut r = fs.open("/random").unwrap();
        for &(off, len) in &[(0u64, 10u64), (2990, 10), (250, 20), (1023, 2), (0, 3000)] {
            let got = r.read_at(off, len).unwrap();
            assert_eq!(
                got.to_vec(),
                data[off as usize..(off + len) as usize].to_vec()
            );
        }
        assert!(matches!(
            r.read_at(2995, 10),
            Err(FsError::OutOfBounds { .. })
        ));
        // Regression: offsets near u64::MAX must not wrap past the check.
        assert!(matches!(
            r.read_at(u64::MAX - 1, 2),
            Err(FsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.read_at(u64::MAX - 1, 4),
            Err(FsError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn reader_seek_and_position() {
        let fs = fs();
        fs.write_file("/seek", b"0123456789").unwrap();
        let mut r = fs.open("/seek").unwrap();
        r.seek(5);
        assert_eq!(r.position(), 5);
        assert_eq!(&r.read(3).unwrap()[..], b"567");
        assert_eq!(r.position(), 8);
        assert_eq!(&r.read(100).unwrap()[..], b"89");
        assert!(r.read(10).unwrap().is_empty());
        assert!(!r.is_empty().unwrap());
    }

    #[test]
    fn open_missing_file_fails() {
        let fs = fs();
        assert!(matches!(
            fs.open("/nope"),
            Err(FsError::Namespace(NamespaceError::FileNotFound(_)))
        ));
        assert!(matches!(
            fs.len("/nope"),
            Err(FsError::Namespace(NamespaceError::FileNotFound(_)))
        ));
        assert!(matches!(
            fs.read_file("/nope"),
            Err(FsError::Namespace(NamespaceError::FileNotFound(_)))
        ));
        assert!(matches!(
            fs.delete("/nope", false),
            Err(FsError::Namespace(NamespaceError::FileNotFound(_)))
        ));
    }

    #[test]
    fn create_existing_file_fails() {
        let fs = fs();
        fs.write_file("/dup", b"x").unwrap();
        let blobs = fs.storage().version_manager().blob_ids();
        assert!(matches!(
            fs.create("/dup"),
            Err(FsError::Namespace(NamespaceError::AlreadyExists(_)))
        ));
        // The blob the failed create made is freed, not leaked.
        assert_eq!(fs.storage().version_manager().blob_ids(), blobs);
    }

    #[test]
    fn writer_close_is_idempotent_and_write_after_close_fails() {
        let fs = fs();
        let mut w = fs.create("/f").unwrap();
        w.write(b"abc").unwrap();
        w.close().unwrap();
        w.close().unwrap();
        assert!(matches!(w.write(b"more"), Err(FsError::WriterClosed)));
        assert_eq!(w.bytes_written(), 3);
        assert_eq!(fs.len("/f").unwrap(), 3);
    }

    #[test]
    fn empty_file_reads_empty() {
        let fs = fs();
        let mut w = fs.create("/empty").unwrap();
        w.close().unwrap();
        assert_eq!(fs.len("/empty").unwrap(), 0);
        assert!(fs.read_file("/empty").unwrap().is_empty());
        let mut r = fs.open("/empty").unwrap();
        assert!(r.is_empty().unwrap());
        assert!(r.read(10).unwrap().is_empty());
    }

    #[test]
    fn delete_file_and_directory_tree() {
        let fs = fs();
        fs.write_file("/out/part-0", b"a").unwrap();
        fs.write_file("/out/part-1", b"b").unwrap();
        fs.write_file("/keep/other", b"c").unwrap();
        fs.delete("/out/part-0", false).unwrap();
        assert!(!fs.exists("/out/part-0"));
        fs.delete("/out", true).unwrap();
        assert!(!fs.exists("/out"));
        assert!(fs.exists("/keep/other"));
        // The blobs backing deleted files are gone from BlobSeer too.
        assert_eq!(fs.storage().version_manager().blob_ids().len(), 1);
    }

    #[test]
    fn a_directory_delete_is_one_sweep_with_one_batch_per_destination() {
        let fs = fs();
        let storage = fs.storage();
        let footprint = || {
            let pages: usize = storage
                .provider_manager()
                .providers()
                .iter()
                .map(|p| p.stats().pages)
                .sum();
            (
                storage.metadata().dht().stats().total_entries,
                pages,
                storage.provider_manager().announced_pages(),
                storage.version_manager().blob_ids().len(),
            )
        };
        fs.write_file("/keep/x", &[5u8; 700]).unwrap();
        let kept = footprint();
        // Ten files of four 256-byte blocks: four versions each, trees three
        // levels deep.
        for i in 0..10u8 {
            fs.write_file(&format!("/scratch/part-{i}"), &[i; 1024])
                .unwrap();
        }
        // A cold mark phase: every tree level is a real `get_many`.
        storage.metadata().drop_cached_nodes();
        let dht = storage.metadata().dht();
        let (dht_before, pages_before) = (
            dht.wire_counters().snapshot(),
            storage.provider_wire().snapshot(),
        );
        let lookups_before = storage.metadata().stats().batch_lookups;

        fs.delete("/scratch", true).unwrap();

        let metadata_providers = storage.config().metadata_providers as u64;
        let dht_spent = dht.wire_counters().snapshot().since(&dht_before);
        let levels = storage.metadata().stats().batch_lookups - lookups_before;
        assert_eq!(levels, 3, "one read per tree level, across all ten blobs");
        assert!(dht_spent.read_messages <= levels * metadata_providers);
        assert!(
            dht_spent.write_messages <= metadata_providers,
            "one RemoveMany per metadata provider: {dht_spent:?}"
        );
        let page_spent = storage.provider_wire().snapshot().since(&pages_before);
        assert_eq!(page_spent.read_messages, 0);
        assert!(
            page_spent.write_messages <= storage.config().providers as u64,
            "one DeleteMany per provider: {page_spent:?}"
        );
        assert_eq!(footprint(), kept, "the directory's storage is freed");
        assert_eq!(&fs.read_file("/keep/x").unwrap()[..], &[5u8; 700][..]);
    }

    #[test]
    fn rename_keeps_contents() {
        let fs = fs();
        fs.write_file("/tmp/part", b"payload").unwrap();
        fs.mkdirs("/final").unwrap();
        fs.rename("/tmp/part", "/final/part").unwrap();
        assert_eq!(&fs.read_file("/final/part").unwrap()[..], b"payload");
        assert!(!fs.exists("/tmp/part"));
    }

    #[test]
    fn list_directory_contents() {
        let fs = fs();
        fs.write_file("/job/input/a", b"1").unwrap();
        fs.write_file("/job/input/b", b"2").unwrap();
        fs.mkdirs("/job/output").unwrap();
        let listing = fs.list("/job").unwrap();
        assert_eq!(listing, vec!["/job/input", "/job/output"]);
        assert_eq!(fs.list("/job/input").unwrap().len(), 2);
    }

    #[test]
    fn locate_reports_block_nodes() {
        let fs = fs();
        let data = vec![9u8; 1024]; // 4 blocks of 256
        fs.write_file("/located", &data).unwrap();
        let locations = fs.locate("/located", 0, 1024).unwrap();
        assert_eq!(locations.len(), 4);
        for loc in &locations {
            assert_eq!(loc.range.len, 256);
            assert!(!loc.nodes.is_empty());
        }
        // With load-balanced placement the blocks spread over several nodes.
        let unique: std::collections::HashSet<_> = locations.iter().map(|l| l.nodes[0]).collect();
        assert!(unique.len() > 1, "blocks should not all be on one node");
        // A sub-range only reports its blocks.
        let partial = fs.locate("/located", 300, 10).unwrap();
        assert_eq!(partial.len(), 1);
    }

    #[test]
    fn concurrent_writers_to_different_files() {
        let storage = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_providers(8)
                .with_page_size(1024),
        );
        let fs = Bsfs::new(storage, BsfsConfig::for_tests().with_block_size(1024));
        let handles: Vec<_> = (0..8u8)
            .map(|t| {
                let fs = fs.clone();
                std::thread::spawn(move || {
                    let path = format!("/out/part-{t}");
                    let mut w = fs.create(&path).unwrap();
                    for _ in 0..64 {
                        w.write(&[t; 64]).unwrap();
                    }
                    w.close().unwrap();
                    path
                })
            })
            .collect();
        for h in handles {
            let path = h.join().unwrap();
            let data = fs.read_file(&path).unwrap();
            assert_eq!(data.len(), 64 * 64);
        }
        assert_eq!(fs.namespace().file_count(), 8);
    }

    #[test]
    fn instrumentation_passthrough_reports_write_traffic() {
        let fs = fs();
        fs.write_file("/f", &[1u8; 1024]).unwrap();
        let meta = fs.metadata_stats();
        assert!(meta.nodes_written > 0);
        assert!(meta.batch_flushes > 0);
        assert!(meta.dht_round_trips > 0);
        let vm = fs.version_manager_contention();
        assert!(vm.lock_acquisitions > 0);
    }

    #[test]
    fn page_striped_blocks_spread_over_providers() {
        // One 256-byte block striped into 8 pages of 32 bytes: a block read
        // is a genuine multi-page read and its pages land on many providers.
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(4));
        let fs = Bsfs::new(
            storage,
            BsfsConfig::for_tests()
                .with_block_size(256)
                .with_page_size(32),
        );
        let data: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/striped", &data).unwrap();
        assert_eq!(fs.read_file("/striped").unwrap().to_vec(), data);
        let locations = fs.locate("/striped", 0, 512).unwrap();
        assert_eq!(locations.len(), 16, "one location per 32-byte page");
        let unique: std::collections::HashSet<_> = locations.iter().map(|l| l.nodes[0]).collect();
        assert!(unique.len() > 1, "pages should spread over providers");
    }

    #[test]
    #[should_panic(expected = "must divide the block size")]
    fn page_size_not_dividing_block_size_is_rejected() {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests());
        let _ = Bsfs::new(
            storage,
            BsfsConfig::for_tests()
                .with_block_size(256)
                .with_page_size(48),
        );
    }

    #[test]
    fn on_node_changes_the_io_origin() {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(4));
        let fs = Bsfs::new(storage, BsfsConfig::for_tests());
        let node3 = fs.storage().topology().node(3);
        let fs3 = fs.on_node(node3);
        fs3.write_file("/from-node-3", b"x").unwrap();
        // Both handles share the namespace.
        assert!(fs.exists("/from-node-3"));
    }
}
