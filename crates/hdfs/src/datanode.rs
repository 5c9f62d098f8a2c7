//! Datanodes: the chunk servers of the HDFS baseline.
//!
//! "Servers called datanodes are responsible for storing data, while the
//! namenode takes care of the file system namespace and the data location"
//! (paper §II-C). A datanode stores whole chunks in its own
//! [`kvstore::MemStore`], reports how much it holds, and can be killed for
//! fault-tolerance experiments.

use bytes::Bytes;
use kvstore::{MemStore, PageStore};
use simcluster::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Identity of a datanode within a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatanodeId(pub u32);

/// A globally unique chunk identifier, assigned by the namenode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u64);

impl ChunkId {
    /// The storage key under which the chunk is kept on a datanode.
    pub fn storage_key(&self) -> Vec<u8> {
        format!("chunk-{}", self.0).into_bytes()
    }
}

/// Traffic counters for one datanode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatanodeStats {
    /// Chunks currently stored.
    pub chunks: usize,
    /// Bytes currently stored.
    pub stored_bytes: u64,
    /// Chunks received since start.
    pub writes: u64,
    /// Chunks served since start.
    pub reads: u64,
}

/// One chunk server.
pub struct Datanode {
    id: DatanodeId,
    node: NodeId,
    store: MemStore,
    alive: AtomicBool,
    writes: AtomicU64,
    reads: AtomicU64,
}

impl Datanode {
    /// Create a datanode backed by an in-memory store.
    pub fn in_memory(id: DatanodeId, node: NodeId) -> Self {
        Datanode {
            id,
            node,
            store: MemStore::new(),
            alive: AtomicBool::new(true),
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// This datanode's id.
    pub fn id(&self) -> DatanodeId {
        self.id
    }

    /// The cluster node this datanode runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Is the datanode serving requests?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Simulate a crash. The datanode stays dead; its store keeps the
    /// chunks it held, which [`Datanode::stats`] still counts.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Store a chunk. Returns false when the datanode is down.
    pub fn put_chunk(&self, chunk: ChunkId, data: Bytes) -> bool {
        if !self.is_alive() {
            return false;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.store.put(&chunk.storage_key(), data).is_ok()
    }

    /// Fetch a chunk. Returns `None` when the datanode is down or does not
    /// hold the chunk.
    pub fn get_chunk(&self, chunk: ChunkId) -> Option<Bytes> {
        if !self.is_alive() {
            return None;
        }
        match self.store.get(&chunk.storage_key()) {
            Ok(Some(data)) => {
                self.reads.fetch_add(1, Ordering::Relaxed);
                Some(data)
            }
            _ => None,
        }
    }

    /// Drop a chunk (file deletion).
    pub fn delete_chunk(&self, chunk: ChunkId) -> bool {
        if !self.is_alive() {
            return false;
        }
        self.store.delete(&chunk.storage_key()).unwrap_or(false)
    }

    /// Current counters.
    pub fn stats(&self) -> DatanodeStats {
        DatanodeStats {
            chunks: self.store.len(),
            stored_bytes: self.store.data_bytes(),
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_storage_roundtrip() {
        let dn = Datanode::in_memory(DatanodeId(0), NodeId(3));
        assert_eq!(dn.id(), DatanodeId(0));
        assert_eq!(dn.node(), NodeId(3));
        assert!(dn.put_chunk(ChunkId(1), Bytes::from_static(b"chunk data")));
        assert_eq!(
            dn.get_chunk(ChunkId(1)).unwrap(),
            Bytes::from_static(b"chunk data")
        );
        assert!(dn.get_chunk(ChunkId(2)).is_none());
        let stats = dn.stats();
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.stored_bytes, 10);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
        assert!(dn.delete_chunk(ChunkId(1)));
        assert!(!dn.delete_chunk(ChunkId(1)));
        assert_eq!(dn.stats().chunks, 0);
    }

    #[test]
    fn dead_datanode_refuses_io() {
        let dn = Datanode::in_memory(DatanodeId(1), NodeId(0));
        dn.put_chunk(ChunkId(9), Bytes::from_static(b"x"));
        dn.kill();
        assert!(!dn.is_alive());
        assert!(!dn.put_chunk(ChunkId(10), Bytes::from_static(b"y")));
        assert!(dn.get_chunk(ChunkId(9)).is_none());
        assert!(!dn.delete_chunk(ChunkId(9)));
        // A refused delete changed nothing: the chunk stays on its disk.
        assert_eq!(dn.stats().chunks, 1);
    }

    #[test]
    fn chunk_ids_have_distinct_keys() {
        assert_ne!(ChunkId(1).storage_key(), ChunkId(2).storage_key());
    }
}
