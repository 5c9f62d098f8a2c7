//! # hdfs-sim — the HDFS-like baseline file system
//!
//! The paper measures BSFS against the Hadoop Distributed File System. This
//! crate reproduces the HDFS design points the comparison depends on
//! (§II-C and §IV-B of the paper):
//!
//! * a single **namenode** holding the namespace and chunk locations
//!   ([`namenode::Namenode`]) — its namespace is the tree BSFS keeps too
//!   ([`simcluster::fs::Namespace`]);
//! * **datanodes** storing fixed-size chunks (64 MiB by default): the
//!   deployment's machines, one [`dht::StorageNode`] each (the node type a
//!   BlobSeer deployment runs on), so a chunk replica is a page in its
//!   machine's page store, written, read and deleted through
//!   [`dht::StorageNode::serve_pages`];
//! * **write-once semantics** — a file is created, written by one client,
//!   closed, and from then on can only be read;
//! * the **rack-aware replica placement policy** — first replica local to the
//!   writer, second in the same rack, third in another rack
//!   ([`placement::PlacementPolicy`]) — which is precisely the behaviour the
//!   paper credits for HDFS's inferior write throughput under concurrency;
//! * clients read from the **closest replica**.
//!
//! The public API mirrors the `bsfs` crate so that the MapReduce framework
//! can swap one for the other, exactly as the paper swaps HDFS for BSFS under
//! an unchanged Hadoop.
//!
//! ```
//! use hdfs_sim::{Hdfs, HdfsConfig};
//!
//! let fs = Hdfs::new(HdfsConfig::for_tests());
//! let mut w = fs.create("/logs/part-0").unwrap();
//! w.write(b"line one\n").unwrap();
//! w.close().unwrap();
//! assert_eq!(&fs.read_file("/logs/part-0").unwrap()[..], b"line one\n");
//! ```

pub mod error;
pub mod namenode;
pub mod placement;

pub use error::{HdfsError, HdfsResult};
pub use namenode::{ChunkId, ChunkInfo, ChunkLocation, FileMeta, FileState, Namenode};
pub use placement::PlacementPolicy;

use bytes::Bytes;
use dht::{DhtNodeId, StorageNode};
use kvstore::PageStore;
use simcluster::fs::{normalize, Block, NamespaceError, PathStatus, WriteBuffer};
use simcluster::topology::ClusterTopology;
use simcluster::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of an HDFS deployment.
#[derive(Debug, Clone)]
pub struct HdfsConfig {
    /// Chunk ("block") size in bytes; Hadoop's default is 64 MiB.
    pub chunk_size: u64,
    /// Number of datanodes when deploying on a flat topology.
    pub datanodes: usize,
    /// Replication factor for every chunk.
    pub replication: usize,
    /// Seed for the placement policy's deterministic randomness.
    pub seed: u64,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            chunk_size: 64 * 1024 * 1024,
            datanodes: 8,
            replication: 3,
            seed: 1,
        }
    }
}

impl HdfsConfig {
    /// A configuration sized for unit tests.
    pub fn for_tests() -> Self {
        HdfsConfig {
            chunk_size: 256,
            datanodes: 4,
            replication: 2,
            seed: 42,
        }
    }

    /// Builder-style override of the chunk size.
    pub fn with_chunk_size(mut self, chunk_size: u64) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Builder-style override of the replication factor.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Builder-style override of the datanode count.
    pub fn with_datanodes(mut self, datanodes: usize) -> Self {
        self.datanodes = datanodes;
        self
    }
}

/// The HDFS client / deployment handle. Clones share the namenode and the
/// datanodes; [`Hdfs::on_node`] rebinds the client to another cluster node,
/// which changes where the local-first placement puts first replicas and
/// which replica reads prefer.
#[derive(Clone)]
pub struct Hdfs {
    namenode: Arc<Namenode>,
    topology: ClusterTopology,
    node: NodeId,
}

impl Hdfs {
    /// Deploy on a flat topology with one datanode per node.
    pub fn new(config: HdfsConfig) -> Self {
        let topology = ClusterTopology::flat(config.datanodes as u32);
        let nodes: Vec<NodeId> = topology.all_nodes().collect();
        Self::with_topology(config, &topology, &nodes)
    }

    /// Deploy datanodes on specific nodes of an existing topology: one
    /// storage node per listed node, machine `i` on `datanode_nodes[i]`.
    pub fn with_topology(
        config: HdfsConfig,
        topology: &ClusterTopology,
        datanode_nodes: &[NodeId],
    ) -> Self {
        assert!(
            !datanode_nodes.is_empty(),
            "at least one datanode node is required"
        );
        let namenode = Arc::new(Namenode::new(
            topology,
            StorageNode::fleet(datanode_nodes),
            config.chunk_size,
            config.replication,
            config.seed,
        ));
        Hdfs {
            namenode,
            topology: topology.clone(),
            node: topology.node(0),
        }
    }

    /// A handle whose operations originate from the given cluster node.
    pub fn on_node(&self, node: NodeId) -> Self {
        let mut clone = self.clone();
        clone.node = node;
        clone
    }

    /// The namenode (tests, failure injection).
    pub fn namenode(&self) -> &Arc<Namenode> {
        &self.namenode
    }

    /// The cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Create a file and return its writer (write-once: the file becomes
    /// readable only after the writer is closed).
    pub fn create(&self, path: &str) -> HdfsResult<HdfsWriter> {
        let normalized = self.namenode.create_file(path)?;
        Ok(HdfsWriter {
            namenode: Arc::clone(&self.namenode),
            path: normalized,
            node: self.node,
            buffer: WriteBuffer::new(self.namenode.chunk_size()),
            closed: false,
        })
    }

    /// Open a closed file for reads.
    pub fn open(&self, path: &str) -> HdfsResult<HdfsReader> {
        let meta = self.namenode.get_file(path)?;
        Ok(HdfsReader {
            namenode: Arc::clone(&self.namenode),
            meta,
            path: normalize(path)?,
            node: self.node,
            position: 0,
        })
    }

    /// Length of a closed file.
    pub fn len(&self, path: &str) -> HdfsResult<u64> {
        self.namenode.file_size(path)
    }

    /// True when the namespace holds no files.
    pub fn is_empty(&self) -> bool {
        self.namenode.namespace().file_count() == 0
    }

    /// Does the path exist?
    pub fn exists(&self, path: &str) -> bool {
        self.namenode.namespace().exists(path)
    }

    /// Create a directory and its ancestors.
    pub fn mkdirs(&self, path: &str) -> HdfsResult<()> {
        Ok(self.namenode.namespace().mkdirs(path)?)
    }

    /// List the children of a directory.
    pub fn list(&self, path: &str) -> HdfsResult<Vec<String>> {
        Ok(self.namenode.namespace().list(path)?)
    }

    /// Delete a file or (recursively) a directory, releasing chunk
    /// replicas: one page batch to each machine holding any of them.
    pub fn delete(&self, path: &str, recursive: bool) -> HdfsResult<()> {
        let namespace = self.namenode.namespace();
        let removed = match namespace.status(path)? {
            PathStatus::File(_) => vec![namespace.remove_file(path)?],
            PathStatus::Directory => namespace.remove_dir(path, recursive)?,
            PathStatus::Missing => {
                return Err(NamespaceError::FileNotFound(path.to_string()).into())
            }
        };
        let mut by_machine: BTreeMap<DhtNodeId, Vec<Vec<u8>>> = BTreeMap::new();
        for chunk in removed.into_iter().flat_map(|file| file.chunks) {
            for replica in chunk.replicas {
                by_machine
                    .entry(replica)
                    .or_default()
                    .push(chunk.id.storage_key());
            }
        }
        for (id, keys) in by_machine {
            if let Some(dn) = self.namenode.datanode(id) {
                // A dead machine refuses the batch; its disk keeps the chunks.
                let _ = dn.serve_pages(|pages| {
                    for key in &keys {
                        let _ = pages.delete(key);
                    }
                });
            }
        }
        Ok(())
    }

    /// Rename a file or directory.
    pub fn rename(&self, from: &str, to: &str) -> HdfsResult<()> {
        Ok(self.namenode.namespace().rename(from, to)?)
    }

    /// Locality query (chunk piece -> nodes), for the MapReduce scheduler.
    pub fn locate(&self, path: &str, offset: u64, len: u64) -> HdfsResult<Vec<ChunkLocation>> {
        self.namenode.locate(path, offset, len)
    }

    /// Convenience: write an entire file in one call.
    pub fn write_file(&self, path: &str, data: &[u8]) -> HdfsResult<()> {
        let mut w = self.create(path)?;
        w.write(data)?;
        w.close()
    }

    /// Convenience: read an entire file in one call.
    pub fn read_file(&self, path: &str) -> HdfsResult<Bytes> {
        let size = self.len(path)?;
        if size == 0 {
            return Ok(Bytes::new());
        }
        let mut r = self.open(path)?;
        r.read_at(0, size)
    }
}

/// Sequential writer for one file. Data is buffered into whole chunks; each
/// full chunk is allocated by the namenode and pushed to every replica
/// datanode (the "pipeline"). `close` flushes the last partial chunk and
/// seals the file.
pub struct HdfsWriter {
    namenode: Arc<Namenode>,
    path: String,
    node: NodeId,
    buffer: WriteBuffer,
    closed: bool,
}

impl HdfsWriter {
    /// The path this writer writes to.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Append data to the file.
    pub fn write(&mut self, data: &[u8]) -> HdfsResult<()> {
        if self.closed {
            return Err(HdfsError::WriterClosed);
        }
        let (namenode, path, node) = (&self.namenode, &self.path, self.node);
        self.buffer.push(data, |chunk| {
            let data = match chunk {
                Block::Borrowed(chunk) => Bytes::copy_from_slice(chunk),
                Block::Buffered(chunk) => Bytes::from(std::mem::take(chunk)),
            };
            commit_chunk(namenode, path, node, data)
        })
    }

    /// Flush the final partial chunk and seal the file.
    pub fn close(&mut self) -> HdfsResult<()> {
        if self.closed {
            return Ok(());
        }
        if let Some(tail) = self.buffer.flush() {
            commit_chunk(&self.namenode, &self.path, self.node, Bytes::from(tail))?;
        }
        self.namenode.complete_file(&self.path)?;
        self.closed = true;
        Ok(())
    }
}

/// Allocate one chunk of `path` and push `data` to every replica datanode;
/// a machine that refuses the page batch does not count as a replica.
fn commit_chunk(namenode: &Namenode, path: &str, node: NodeId, data: Bytes) -> HdfsResult<()> {
    let info = namenode.allocate_chunk(path, data.len() as u64, node)?;
    let key = info.id.storage_key();
    let mut stored = 0;
    for replica in &info.replicas {
        if let Some(dn) = namenode.datanode(*replica) {
            if let Ok(Ok(())) = dn.serve_pages(|pages| pages.put(&key, data.clone())) {
                stored += 1;
            }
        }
    }
    if stored == 0 {
        return Err(HdfsError::NoDatanodes);
    }
    Ok(())
}

/// Reader for a closed file. Reads fetch whole chunks from the closest live
/// replica.
pub struct HdfsReader {
    namenode: Arc<Namenode>,
    meta: FileMeta,
    path: String,
    node: NodeId,
    position: u64,
}

impl HdfsReader {
    /// The path this reader reads from.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Size of the file.
    pub fn len(&self) -> u64 {
        self.meta.size()
    }

    /// True when the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read `len` bytes at `offset`.
    pub fn read_at(&mut self, offset: u64, len: u64) -> HdfsResult<Bytes> {
        let size = self.len();
        // `checked_add`: a huge offset must surface as `OutOfBounds`, not
        // wrap past the bounds check in release builds.
        let requested_end = offset.checked_add(len);
        let Some(end) = requested_end.filter(|&end| end <= size) else {
            return Err(HdfsError::OutOfBounds {
                path: self.path.clone(),
                requested_end: requested_end.unwrap_or(u64::MAX),
                size,
            });
        };
        if len == 0 {
            return Ok(Bytes::new());
        }
        let mut out = Vec::with_capacity(len as usize);
        let mut chunk_start = 0u64;
        for (idx, chunk) in self.meta.chunks.iter().enumerate() {
            let chunk_end = chunk_start + chunk.size;
            if chunk_end > offset && chunk_start < end {
                let data = self.fetch_chunk(idx, chunk)?;
                let from = (offset.max(chunk_start) - chunk_start) as usize;
                let to = (end.min(chunk_end) - chunk_start) as usize;
                out.extend_from_slice(&data[from..to]);
            }
            chunk_start = chunk_end;
        }
        Ok(Bytes::from(out))
    }

    fn fetch_chunk(&self, idx: usize, chunk: &ChunkInfo) -> HdfsResult<Bytes> {
        // Prefer the replica closest to this reader, as HDFS does.
        let holders: Vec<(DhtNodeId, NodeId)> = chunk
            .replicas
            .iter()
            .filter_map(|d| self.namenode.datanode(*d).map(|dn| (*d, dn.host())))
            .collect();
        let ordered = self
            .namenode
            .placement()
            .order_by_proximity(self.node, holders);
        // A dead machine refuses the read: ask the next closest.
        let key = chunk.id.storage_key();
        for replica in ordered {
            if let Some(dn) = self.namenode.datanode(replica) {
                if let Ok(Ok(Some(data))) = dn.serve_pages(|pages| pages.get(&key)) {
                    return Ok(data);
                }
            }
        }
        Err(HdfsError::ChunkUnavailable {
            path: self.path.clone(),
            chunk_index: idx,
        })
    }

    /// Sequential read from the current position.
    pub fn read(&mut self, len: u64) -> HdfsResult<Bytes> {
        let remaining = self.len().saturating_sub(self.position);
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

    fn fs() -> Hdfs {
        Hdfs::new(HdfsConfig::for_tests())
    }

    #[test]
    fn write_close_read_roundtrip() {
        let fs = fs();
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        fs.write_file("/d/file", &data).unwrap();
        assert_eq!(fs.len("/d/file").unwrap(), 1000);
        assert_eq!(fs.read_file("/d/file").unwrap().to_vec(), data);
        // 1000 bytes over 256-byte chunks = 4 chunks.
        assert_eq!(fs.namenode().get_file("/d/file").unwrap().chunks.len(), 4);
    }

    #[test]
    fn small_writes_fill_whole_chunks_in_order() {
        let fs = fs();
        let data: Vec<u8> = (0..700u32).map(|i| (i % 253) as u8).collect();
        let mut w = fs.create("/records").unwrap();
        for record in data.chunks(100) {
            w.write(record).unwrap();
        }
        w.close().unwrap();
        let meta = fs.namenode().get_file("/records").unwrap();
        let sizes: Vec<u64> = meta.chunks.iter().map(|c| c.size).collect();
        assert_eq!(sizes, [256, 256, 188]);
        assert_eq!(fs.read_file("/records").unwrap().to_vec(), data);
    }

    #[test]
    fn file_is_unreadable_until_closed_and_immutable_after() {
        let fs = fs();
        let mut w = fs.create("/wip").unwrap();
        w.write(b"partial").unwrap();
        assert!(matches!(
            fs.open("/wip"),
            Err(HdfsError::WrongFileState { .. })
        ));
        assert!(matches!(
            fs.len("/wip"),
            Err(HdfsError::WrongFileState { .. })
        ));
        w.close().unwrap();
        assert_eq!(&fs.read_file("/wip").unwrap()[..], b"partial");
        // Write-once: writing after close fails, re-creating fails.
        assert!(matches!(w.write(b"more"), Err(HdfsError::WriterClosed)));
        assert!(matches!(
            fs.create("/wip"),
            Err(HdfsError::Namespace(NamespaceError::AlreadyExists(_)))
        ));
        // Closing twice is harmless.
        w.close().unwrap();
    }

    #[test]
    fn positioned_and_sequential_reads() {
        let fs = fs();
        let data: Vec<u8> = (0..700u32).map(|i| (i % 256) as u8).collect();
        fs.write_file("/seq", &data).unwrap();
        let mut r = fs.open("/seq").unwrap();
        assert_eq!(
            r.read_at(250, 20).unwrap().to_vec(),
            data[250..270].to_vec()
        );
        assert_eq!(r.read_at(0, 700).unwrap().to_vec(), data);
        assert!(matches!(
            r.read_at(695, 10),
            Err(HdfsError::OutOfBounds { .. })
        ));
        r.seek(690);
        assert_eq!(r.read(100).unwrap().len(), 10);
        assert!(r.read(10).unwrap().is_empty());
        assert_eq!(r.position(), 700);
        assert!(!r.is_empty());
    }

    #[test]
    fn huge_offset_read_is_rejected_not_wrapped() {
        // Regression: `offset + len` was unchecked, so a read at offset
        // u64::MAX - 1 wrapped past the bounds check in release builds (and
        // panicked in debug builds).
        let fs = fs();
        fs.write_file("/f", b"payload!").unwrap();
        let mut r = fs.open("/f").unwrap();
        for len in [2u64, 4, 1 << 40] {
            assert!(
                matches!(
                    r.read_at(u64::MAX - 1, len),
                    Err(HdfsError::OutOfBounds { .. })
                ),
                "offset u64::MAX - 1, len {len} must be out of bounds"
            );
        }
        // Saturating locate on the same offsets just reports nothing.
        assert!(fs.locate("/f", u64::MAX - 1, 4).unwrap().is_empty());
    }

    #[test]
    fn empty_file() {
        let fs = fs();
        let mut w = fs.create("/empty").unwrap();
        w.close().unwrap();
        assert_eq!(fs.len("/empty").unwrap(), 0);
        assert!(fs.read_file("/empty").unwrap().is_empty());
        assert!(fs.open("/empty").unwrap().is_empty());
    }

    #[test]
    fn replicas_are_placed_local_first() {
        let topo = ClusterTopology::builder()
            .sites(1)
            .racks_per_site(2)
            .nodes_per_rack(2)
            .build();
        let nodes: Vec<NodeId> = topo.all_nodes().collect();
        let fs = Hdfs::with_topology(HdfsConfig::for_tests().with_replication(3), &topo, &nodes);
        let writer_node = topo.node(1);
        let fs_on_1 = fs.on_node(writer_node);
        fs_on_1.write_file("/local", &[1u8; 600]).unwrap();
        let meta = fs.namenode().get_file("/local").unwrap();
        for chunk in &meta.chunks {
            let first = fs.namenode().datanode(chunk.replicas[0]).unwrap();
            assert_eq!(
                first.host(),
                writer_node,
                "first replica must be on the writer's node"
            );
        }
        // The writer's datanode therefore stores every chunk — the hot-spot
        // behaviour the paper describes.
        let dn1 = fs.namenode().datanode(DhtNodeId(1)).unwrap();
        assert_eq!(dn1.page_store().len(), meta.chunks.len());
    }

    #[test]
    fn reads_survive_replica_failure() {
        let fs = Hdfs::new(HdfsConfig::for_tests().with_replication(2));
        let data = vec![5u8; 512];
        fs.write_file("/replicated", &data).unwrap();
        // Kill the first replica of every chunk.
        let meta = fs.namenode().get_file("/replicated").unwrap();
        for chunk in &meta.chunks {
            fs.namenode().datanode(chunk.replicas[0]).unwrap().kill();
        }
        assert_eq!(fs.read_file("/replicated").unwrap().to_vec(), data);
    }

    #[test]
    fn read_fails_when_all_replicas_are_dead() {
        let fs = Hdfs::new(HdfsConfig::for_tests().with_replication(2));
        fs.write_file("/doomed", &[1u8; 100]).unwrap();
        for dn in fs.namenode().datanodes() {
            dn.kill();
        }
        assert!(matches!(
            fs.read_file("/doomed"),
            Err(HdfsError::ChunkUnavailable { .. })
        ));
    }

    #[test]
    fn write_fails_without_datanodes() {
        let fs = fs();
        for dn in fs.namenode().datanodes() {
            dn.kill();
        }
        let mut w = fs.create("/nowhere").unwrap();
        assert!(matches!(w.write(&[0u8; 300]), Err(HdfsError::NoDatanodes)));
    }

    #[test]
    fn namespace_operations() {
        let fs = fs();
        fs.write_file("/in/a", b"1").unwrap();
        fs.write_file("/in/b", b"2").unwrap();
        fs.mkdirs("/out").unwrap();
        assert_eq!(fs.list("/in").unwrap().len(), 2);
        assert_eq!(fs.list("/").unwrap(), vec!["/in", "/out"]);
        fs.rename("/in/a", "/out/a").unwrap();
        assert!(fs.exists("/out/a"));
        fs.delete("/out/a", false).unwrap();
        assert!(!fs.exists("/out/a"));
        fs.delete("/in", true).unwrap();
        assert!(!fs.exists("/in/b"));
        assert!(fs.is_empty() != fs.exists("/in/b"));
    }

    #[test]
    fn delete_releases_datanode_space() {
        let fs = fs();
        fs.write_file("/payload", &[9u8; 1024]).unwrap();
        let before: u64 = fs
            .namenode()
            .datanodes()
            .iter()
            .map(|d| d.page_store().data_bytes())
            .sum();
        assert!(before >= 1024);
        fs.delete("/payload", false).unwrap();
        let after: u64 = fs
            .namenode()
            .datanodes()
            .iter()
            .map(|d| d.page_store().data_bytes())
            .sum();
        assert_eq!(after, 0);
    }

    /// A machine stores a chunk's replica as one page under the chunk's
    /// key, serves it back, and drops it with the file.
    #[test]
    fn chunk_storage_roundtrip() {
        let fs = Hdfs::new(HdfsConfig::for_tests().with_replication(1));
        let writer = fs.topology().node(3);
        fs.on_node(writer)
            .write_file("/one", b"chunk data")
            .unwrap();
        let chunk = fs.namenode().get_file("/one").unwrap().chunks[0].clone();
        assert_eq!(chunk.replicas, [DhtNodeId(3)]);
        let dn = fs.namenode().datanode(DhtNodeId(3)).unwrap();
        assert_eq!(dn.host(), writer);
        assert_eq!(dn.batches_handled(), 1, "a chunk write is one batch");
        let (key, other) = (chunk.id.storage_key(), ChunkId(chunk.id.0 + 1));
        let held = dn.serve_pages(|pages| pages.get(&key)).unwrap().unwrap();
        assert_eq!(held, Some(Bytes::from_static(b"chunk data")));
        let missing = dn.serve_pages(|pages| pages.get(&other.storage_key()));
        assert_eq!(missing.unwrap().unwrap(), None);
        assert_eq!(dn.page_store().len(), 1);
        assert_eq!(dn.page_store().data_bytes(), 10);
        assert_eq!(&fs.read_file("/one").unwrap()[..], b"chunk data");
        assert_eq!(dn.batches_handled(), 4, "a chunk read is one batch");
        fs.delete("/one", false).unwrap();
        assert_eq!(dn.page_store().len(), 0);
        assert!(!dn.serve_pages(|pages| pages.delete(&key)).unwrap().unwrap());
    }

    /// A killed machine refuses chunk writes, reads and deletes; a refused
    /// delete leaves the chunk in its store.
    #[test]
    fn dead_datanode_refuses_io() {
        let fs = Hdfs::new(HdfsConfig::for_tests().with_replication(1));
        fs.write_file("/x", b"x").unwrap();
        let chunk = fs.namenode().get_file("/x").unwrap().chunks[0].clone();
        let dn = fs.namenode().datanode(chunk.replicas[0]).unwrap();
        dn.kill();
        assert!(!dn.ping());
        let key = ChunkId(chunk.id.0 + 1).storage_key();
        let put = dn.serve_pages(|pages| pages.put(&key, Bytes::from_static(b"y")));
        assert!(put.is_err(), "a dead machine refuses a chunk write");
        assert!(matches!(
            fs.read_file("/x"),
            Err(HdfsError::ChunkUnavailable { .. })
        ));
        fs.delete("/x", false).unwrap();
        // A refused delete changed nothing: the chunk stays on its disk.
        assert_eq!(dn.page_store().len(), 1);
    }

    /// Deleting a many-chunk file sends each machine holding a replica
    /// exactly one page batch, whatever the chunk and replica counts.
    #[test]
    fn a_delete_sends_each_holding_machine_one_page_batch() {
        let fs = fs();
        fs.write_file("/multi", &[7u8; 2048]).unwrap();
        let chunks = fs.namenode().get_file("/multi").unwrap().chunks;
        assert_eq!((chunks.len(), chunks[0].replicas.len()), (8, 2));
        let holders: std::collections::BTreeSet<DhtNodeId> =
            chunks.iter().flat_map(|c| c.replicas.clone()).collect();
        assert!(holders.len() > 1);
        let datanodes = fs.namenode().datanodes();
        let before: Vec<u64> = datanodes.iter().map(|d| d.batches_handled()).collect();
        fs.delete("/multi", false).unwrap();
        for (dn, before) in datanodes.iter().zip(before) {
            let expected = u64::from(holders.contains(&dn.id()));
            assert_eq!(dn.batches_handled() - before, expected, "{:?}", dn.id());
            assert!(dn.page_store().is_empty());
        }
    }

    #[test]
    fn locate_matches_chunk_layout() {
        let fs = fs();
        fs.write_file("/loc", &[3u8; 600]).unwrap();
        let locations = fs.locate("/loc", 0, 600).unwrap();
        assert_eq!(locations.len(), 3);
        assert_eq!(locations[0].len, 256);
        assert_eq!(locations[2].len, 88);
        assert!(locations.iter().all(|l| l.nodes.len() == 2));
    }

    #[test]
    fn concurrent_writers_to_different_files() {
        let fs = Hdfs::new(HdfsConfig::for_tests().with_datanodes(8));
        let handles: Vec<_> = (0..8u8)
            .map(|t| {
                let fs = fs.on_node(fs.topology().node(t as u32));
                std::thread::spawn(move || {
                    let path = format!("/out/part-{t}");
                    let mut w = fs.create(&path).unwrap();
                    for _ in 0..16 {
                        w.write(&[t; 64]).unwrap();
                    }
                    w.close().unwrap();
                    (path, fs)
                })
            })
            .collect();
        for h in handles {
            let (path, fs) = h.join().unwrap();
            assert_eq!(fs.read_file(&path).unwrap().len(), 16 * 64);
        }
        assert_eq!(fs.namenode().namespace().file_count(), 8);
    }
}
