//! The namenode: namespace, chunk allocation and data location.
//!
//! "HDFS uses the same design concepts as GFS: servers called datanodes are
//! responsible for storing data, while the namenode takes care of the file
//! system namespace and the data location. [...] HDFS does not support
//! concurrent writes to the same file; moreover, once a file is created,
//! written and closed, the data cannot be overwritten or appended to"
//! (paper §II-C). The namenode below enforces exactly those semantics:
//!
//! * files go through a two-state lifecycle — *under construction* (a single
//!   writer appends chunks) and *closed* (immutable, readable);
//! * every chunk allocation picks replicas through the rack-aware
//!   [`crate::placement::PlacementPolicy`];
//! * the namenode answers locality queries (`locate`) so the MapReduce
//!   scheduler can place tasks near the data.
//!
//! The datanodes are the deployment's machines, one [`StorageNode`] each: a
//! chunk replica is a page in a machine's page store, named by the
//! machine's [`DhtNodeId`].
//!
//! The namespace itself is the tree BSFS keeps too
//! ([`simcluster::fs::Namespace`]), here over [`FileMeta`]; the namenode adds
//! only what is HDFS's own.

use crate::error::{HdfsError, HdfsResult};
use crate::placement::PlacementPolicy;
use dht::{DhtNodeId, StorageNode};
use simcluster::fs::{normalize, Namespace};
use simcluster::topology::ClusterTopology;
use simcluster::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A globally unique chunk identifier, assigned by the namenode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u64);

impl ChunkId {
    /// The key under which a replica of the chunk is kept in a datanode's
    /// page store.
    pub fn storage_key(&self) -> Vec<u8> {
        format!("chunk-{}", self.0).into_bytes()
    }
}

/// Lifecycle state of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileState {
    /// Created but not yet closed; a single writer is appending chunks.
    UnderConstruction,
    /// Closed; immutable and readable.
    Closed,
}

/// Metadata of one chunk of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Globally unique chunk id.
    pub id: ChunkId,
    /// Number of bytes in the chunk (the last chunk of a file may be short).
    pub size: u64,
    /// Datanodes holding replicas, in pipeline order.
    pub replicas: Vec<DhtNodeId>,
}

/// Metadata of one file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Lifecycle state.
    pub state: FileState,
    /// Chunks in file order.
    pub chunks: Vec<ChunkInfo>,
}

impl FileMeta {
    /// Total size of the file in bytes.
    pub fn size(&self) -> u64 {
        self.chunks.iter().map(|c| c.size).sum()
    }
}

/// Location of a contiguous piece of a file, for locality queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLocation {
    /// Offset of this piece within the file.
    pub offset: u64,
    /// Length of this piece.
    pub len: u64,
    /// Cluster nodes holding replicas of the piece, in placement order.
    pub nodes: Vec<NodeId>,
}

/// The centralized namenode.
pub struct Namenode {
    chunk_size: u64,
    replication: usize,
    namespace: Namespace<FileMeta>,
    datanodes: Vec<Arc<StorageNode>>,
    placement: PlacementPolicy,
    next_chunk: AtomicU64,
}

impl Namenode {
    /// Create a namenode over the given datanodes (machine `i` has id `i`).
    pub fn new(
        topology: &ClusterTopology,
        datanodes: Vec<Arc<StorageNode>>,
        chunk_size: u64,
        replication: usize,
        seed: u64,
    ) -> Self {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        assert!(replication >= 1, "replication must be at least 1");
        assert!(!datanodes.is_empty(), "at least one datanode is required");
        Namenode {
            chunk_size,
            replication,
            namespace: Namespace::new(),
            datanodes,
            placement: PlacementPolicy::new(topology, seed),
            next_chunk: AtomicU64::new(0),
        }
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// All datanodes (tests, failure injection).
    pub fn datanodes(&self) -> &[Arc<StorageNode>] {
        &self.datanodes
    }

    /// A datanode by id.
    pub fn datanode(&self, id: DhtNodeId) -> Option<&Arc<StorageNode>> {
        self.datanodes.get(id.0 as usize)
    }

    /// The placement policy (used by readers to order replicas by proximity).
    pub fn placement(&self) -> &PlacementPolicy {
        &self.placement
    }

    /// The namespace: paths, directories and every file's metadata.
    pub fn namespace(&self) -> &Namespace<FileMeta> {
        &self.namespace
    }

    /// Register a new file in the under-construction state. Missing
    /// ancestor directories are created implicitly (Hadoop's `create`
    /// behaviour). Returns the normalised path.
    pub fn create_file(&self, path: &str) -> HdfsResult<String> {
        let file = FileMeta {
            state: FileState::UnderConstruction,
            chunks: Vec::new(),
        };
        Ok(self.namespace.create_file(path, file)?)
    }

    /// Allocate a chunk of `size` bytes for a file under construction,
    /// choosing replica datanodes for a writer running on `writer_node`.
    pub fn allocate_chunk(
        &self,
        path: &str,
        size: u64,
        writer_node: NodeId,
    ) -> HdfsResult<ChunkInfo> {
        let replicas = self
            .placement
            .choose(&self.datanodes, self.replication, writer_node);
        if replicas.is_empty() {
            return Err(HdfsError::NoDatanodes);
        }
        self.namespace.update_file(path, |meta| {
            under_construction(path, meta)?;
            let id = ChunkId(self.next_chunk.fetch_add(1, Ordering::Relaxed));
            let info = ChunkInfo { id, size, replicas };
            meta.chunks.push(info.clone());
            Ok(info)
        })
    }

    /// Close a file, making it immutable and readable.
    pub fn complete_file(&self, path: &str) -> HdfsResult<()> {
        self.namespace.update_file(path, |meta| {
            under_construction(path, meta)?;
            meta.state = FileState::Closed;
            Ok(())
        })
    }

    /// Metadata of a closed file (readers use this).
    pub fn get_file(&self, path: &str) -> HdfsResult<FileMeta> {
        let meta = self.namespace.lookup(path)?;
        if meta.state != FileState::Closed {
            return Err(HdfsError::WrongFileState {
                path: normalize(path)?,
                expected: "closed",
            });
        }
        Ok(meta)
    }

    /// Size of a closed file.
    pub fn file_size(&self, path: &str) -> HdfsResult<u64> {
        Ok(self.get_file(path)?.size())
    }

    /// Locality query: which cluster nodes hold each chunk overlapping
    /// `[offset, offset+len)` of a closed file.
    pub fn locate(&self, path: &str, offset: u64, len: u64) -> HdfsResult<Vec<ChunkLocation>> {
        let meta = self.get_file(path)?;
        let mut out = Vec::new();
        let mut chunk_start = 0u64;
        let end = offset.saturating_add(len);
        for chunk in &meta.chunks {
            let chunk_end = chunk_start + chunk.size;
            if chunk_end > offset && chunk_start < end {
                let piece_start = chunk_start.max(offset);
                let piece_end = chunk_end.min(end);
                let nodes = chunk
                    .replicas
                    .iter()
                    .filter_map(|d| self.datanode(*d).map(|dn| dn.host()))
                    .collect();
                out.push(ChunkLocation {
                    offset: piece_start,
                    len: piece_end - piece_start,
                    nodes,
                });
            }
            chunk_start = chunk_end;
        }
        Ok(out)
    }
}

/// HDFS files are write-once: chunks are added, and the file closed, only
/// while it is under construction.
fn under_construction(path: &str, meta: &FileMeta) -> HdfsResult<()> {
    if meta.state != FileState::UnderConstruction {
        return Err(HdfsError::WrongFileState {
            path: path.to_string(),
            expected: "under construction",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::fs::NamespaceError;

    fn namenode() -> Namenode {
        let topo = ClusterTopology::builder()
            .sites(1)
            .racks_per_site(2)
            .nodes_per_rack(2)
            .build();
        let hosts: Vec<NodeId> = topo.all_nodes().collect();
        Namenode::new(&topo, StorageNode::fleet(&hosts), 128, 2, 17)
    }

    #[test]
    fn file_lifecycle_create_allocate_complete_read() {
        let nn = namenode();
        nn.create_file("/data/file").unwrap();
        // Cannot read a file under construction.
        assert!(matches!(
            nn.get_file("/data/file"),
            Err(HdfsError::WrongFileState { .. })
        ));
        let c1 = nn.allocate_chunk("/data/file", 128, NodeId(0)).unwrap();
        let c2 = nn.allocate_chunk("/data/file", 60, NodeId(0)).unwrap();
        assert_ne!(c1.id, c2.id);
        assert_eq!(c1.replicas.len(), 2);
        nn.complete_file("/data/file").unwrap();
        let meta = nn.get_file("/data/file").unwrap();
        assert_eq!(meta.size(), 188);
        assert_eq!(meta.chunks.len(), 2);
        assert_eq!(nn.file_size("/data/file").unwrap(), 188);
        // Write-once: no more chunks, no second close.
        assert!(matches!(
            nn.allocate_chunk("/data/file", 10, NodeId(0)),
            Err(HdfsError::WrongFileState { .. })
        ));
        assert!(matches!(
            nn.complete_file("/data/file"),
            Err(HdfsError::WrongFileState { .. })
        ));
    }

    #[test]
    fn duplicate_create_and_missing_files() {
        let nn = namenode();
        nn.create_file("/f").unwrap();
        assert!(matches!(
            nn.create_file("/f"),
            Err(HdfsError::Namespace(NamespaceError::AlreadyExists(_)))
        ));
        assert!(matches!(
            nn.get_file("/ghost"),
            Err(HdfsError::Namespace(NamespaceError::FileNotFound(_)))
        ));
        assert!(matches!(
            nn.allocate_chunk("/ghost", 1, NodeId(0)),
            Err(HdfsError::Namespace(NamespaceError::FileNotFound(_)))
        ));
        assert!(matches!(
            nn.namespace().remove_file("/ghost"),
            Err(NamespaceError::FileNotFound(_))
        ));
    }

    #[test]
    fn delete_and_rename() {
        let nn = namenode();
        nn.create_file("/tmp/out").unwrap();
        nn.allocate_chunk("/tmp/out", 50, NodeId(1)).unwrap();
        nn.complete_file("/tmp/out").unwrap();
        nn.namespace().mkdirs("/final").unwrap();
        nn.namespace().rename("/tmp/out", "/final/out").unwrap();
        assert!(!nn.namespace().exists("/tmp/out"));
        assert_eq!(nn.file_size("/final/out").unwrap(), 50);
        let removed = nn.namespace().remove_file("/final/out").unwrap();
        assert_eq!(removed.chunks.len(), 1);
        // Directory deletion collects chunks of all files below it.
        nn.create_file("/job/o1").unwrap();
        nn.allocate_chunk("/job/o1", 10, NodeId(0)).unwrap();
        nn.create_file("/job/sub/o2").unwrap();
        nn.allocate_chunk("/job/sub/o2", 10, NodeId(0)).unwrap();
        assert!(matches!(
            nn.namespace().remove_dir("/job", false),
            Err(NamespaceError::DirectoryNotEmpty(_))
        ));
        let removed = nn.namespace().remove_dir("/job", true).unwrap();
        assert_eq!(removed.iter().map(|f| f.chunks.len()).sum::<usize>(), 2);
        assert!(!nn.namespace().exists("/job"));
    }

    #[test]
    fn locate_reports_chunk_pieces() {
        let nn = namenode();
        nn.create_file("/big").unwrap();
        nn.allocate_chunk("/big", 128, NodeId(0)).unwrap();
        nn.allocate_chunk("/big", 128, NodeId(0)).unwrap();
        nn.allocate_chunk("/big", 44, NodeId(0)).unwrap();
        nn.complete_file("/big").unwrap();
        let all = nn.locate("/big", 0, 300).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].offset, 0);
        assert_eq!(all[0].len, 128);
        assert_eq!(all[2].len, 44);
        assert!(all.iter().all(|l| !l.nodes.is_empty()));
        // A sub-range crossing one boundary returns two clamped pieces.
        let partial = nn.locate("/big", 100, 60).unwrap();
        assert_eq!(partial.len(), 2);
        assert_eq!(partial[0].offset, 100);
        assert_eq!(partial[0].len, 28);
        assert_eq!(partial[1].offset, 128);
        assert_eq!(partial[1].len, 32);
    }

    #[test]
    fn huge_offset_locate_saturates_instead_of_wrapping() {
        // Regression: `offset + len` was unchecked: it wrapped in release
        // builds and panicked in debug builds.
        let nn = namenode();
        nn.create_file("/big").unwrap();
        nn.allocate_chunk("/big", 128, NodeId(0)).unwrap();
        nn.allocate_chunk("/big", 44, NodeId(0)).unwrap();
        nn.complete_file("/big").unwrap();
        assert!(nn.locate("/big", u64::MAX - 1, 4).unwrap().is_empty());
        let tail = nn.locate("/big", 150, u64::MAX).unwrap();
        assert_eq!((tail.len(), tail[0].offset, tail[0].len), (1, 150, 22));
    }

    #[test]
    fn first_replica_is_local_to_the_writer() {
        let nn = namenode();
        let chunk = nn
            .create_file("/local")
            .and_then(|_| nn.allocate_chunk("/local", 10, NodeId(3)))
            .unwrap();
        let first = nn.datanode(chunk.replicas[0]).unwrap();
        assert_eq!(first.host(), NodeId(3));
    }

    #[test]
    fn chunk_ids_have_distinct_keys() {
        assert_ne!(ChunkId(1).storage_key(), ChunkId(2).storage_key());
    }
}
