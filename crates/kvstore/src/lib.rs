//! # kvstore — page storage for BlobSeer providers
//!
//! BlobSeer providers persist their pages through a BerkeleyDB layer (paper
//! §III-A: "offers persistency through a BerkleyDB layer"). This crate is the
//! from-scratch substitute, a small, dependency-free key-value store behind
//! the [`PageStore`] trait:
//!
//! * [`MemStore`] — a sharded in-memory map, the page store of every
//!   `dht::StorageNode` (a BlobSeer provider or an HDFS datanode);
//! * [`hash`] — [`FastHasher`], the one hasher of the storage path, and its
//!   [`FastMap`]/[`FastSet`] collections, shared with the DHT and the
//!   metadata layer.
//!
//! No deployment keeps pages on disk: the process is the cluster, and no
//! scenario restarts a provider. A durable back-end returns together with a
//! crash-recovery scenario that exercises it.
//!
//! ```
//! use kvstore::{MemStore, PageStore};
//! use bytes::Bytes;
//!
//! let store = MemStore::new();
//! store.put(b"blob-1/page-0", Bytes::from_static(b"hello")).unwrap();
//! assert_eq!(store.get(b"blob-1/page-0").unwrap().unwrap(), Bytes::from_static(b"hello"));
//! assert_eq!(store.len(), 1);
//! ```

mod error;
pub mod hash;
mod memstore;

pub use error::{KvError, KvResult};
pub use hash::{fast_hash, shard_index, FastHasher, FastMap, FastSet};
pub use memstore::MemStore;

use bytes::Bytes;

/// Object-safe interface of a page store.
///
/// Keys are arbitrary byte strings (BlobSeer's page keys are a tag byte and
/// the LEB128 varints of blob, version and page); values are page contents. All operations must be safe to call
/// concurrently from many threads.
pub trait PageStore: Send + Sync {
    /// Store `value` under `key`, replacing any previous value.
    fn put(&self, key: &[u8], value: Bytes) -> KvResult<()>;

    /// Fetch the value stored under `key`, or `None` if absent.
    fn get(&self, key: &[u8]) -> KvResult<Option<Bytes>>;

    /// Remove `key`. Removing an absent key is not an error; the return value
    /// says whether a value was actually removed.
    fn delete(&self, key: &[u8]) -> KvResult<bool>;

    /// Does the store currently hold a value for `key`?
    fn contains(&self, key: &[u8]) -> KvResult<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Number of live keys.
    fn len(&self) -> usize;

    /// True when the store holds no live keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of live value bytes (used for provider load accounting).
    fn data_bytes(&self) -> u64;

    /// A snapshot of every live key (invariant checks and maintenance).
    fn keys(&self) -> Vec<Vec<u8>>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    // Test the default methods through the trait object, to make sure
    // object-safety holds too.
    fn exercise(store: &dyn PageStore) {
        assert!(store.is_empty());
        store.put(b"k", Bytes::from_static(b"v")).unwrap();
        assert!(store.contains(b"k").unwrap());
        assert!(!store.contains(b"missing").unwrap());
        assert!(!store.is_empty());
        assert_eq!(store.data_bytes(), 1);
        assert!(store.delete(b"k").unwrap());
        assert!(!store.delete(b"k").unwrap());
        assert!(store.is_empty());
    }

    #[test]
    fn memstore_satisfies_trait_contract() {
        exercise(&MemStore::new());
    }
}
