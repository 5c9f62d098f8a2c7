//! Sharded in-memory page store.
//!
//! Providers under heavy concurrency (hundreds of clients pushing pages) need
//! the store itself to not become a serialization point. The map is therefore
//! split into a fixed number of shards, each behind its own `RwLock`; a key's
//! shard is chosen by hashing, so independent keys almost never contend.

use crate::error::KvResult;
use crate::hash::{fast_hash, shard_index, FastMap};
use crate::PageStore;
use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independent shards. A power of two so that the modulo is a mask.
const SHARDS: usize = 64;

/// In-memory, thread-safe key-value store.
pub struct MemStore {
    shards: Vec<RwLock<FastMap<Vec<u8>, Bytes>>>,
    data_bytes: AtomicU64,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    /// Create an empty store.
    pub fn new() -> Self {
        MemStore {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            data_bytes: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        shard_index(fast_hash(key), SHARDS)
    }

    /// Remove every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.data_bytes.store(0, Ordering::Relaxed);
    }
}

impl PageStore for MemStore {
    fn put(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        let shard = &self.shards[self.shard_of(key)];
        let mut guard = shard.write();
        let new_len = value.len() as u64;
        // The key is copied only when it is new.
        let old = match guard.get_mut(key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => guard.insert(key.to_vec(), value),
        };
        match old {
            Some(old) => {
                // Replacing: adjust by the delta.
                let old_len = old.len() as u64;
                if new_len >= old_len {
                    self.data_bytes
                        .fetch_add(new_len - old_len, Ordering::Relaxed);
                } else {
                    self.data_bytes
                        .fetch_sub(old_len - new_len, Ordering::Relaxed);
                }
            }
            None => {
                self.data_bytes.fetch_add(new_len, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> KvResult<Option<Bytes>> {
        let shard = &self.shards[self.shard_of(key)];
        Ok(shard.read().get(key).cloned())
    }

    fn delete(&self, key: &[u8]) -> KvResult<bool> {
        let shard = &self.shards[self.shard_of(key)];
        match shard.write().remove(key) {
            Some(old) => {
                self.data_bytes
                    .fetch_sub(old.len() as u64, Ordering::Relaxed);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn data_bytes(&self) -> u64 {
        self.data_bytes.load(Ordering::Relaxed)
    }

    /// The snapshot is not atomic across shards.
    fn keys(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().keys().cloned());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_delete_roundtrip() {
        let s = MemStore::new();
        assert!(s.get(b"a").unwrap().is_none());
        s.put(b"a", Bytes::from_static(b"alpha")).unwrap();
        s.put(b"b", Bytes::from_static(b"beta")).unwrap();
        assert_eq!(s.get(b"a").unwrap().unwrap(), Bytes::from_static(b"alpha"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.data_bytes(), 9);
        assert!(s.delete(b"a").unwrap());
        assert!(s.get(b"a").unwrap().is_none());
        assert_eq!(s.len(), 1);
        assert_eq!(s.data_bytes(), 4);
    }

    #[test]
    fn overwrite_adjusts_byte_accounting() {
        let s = MemStore::new();
        s.put(b"k", Bytes::from_static(b"1234567890")).unwrap();
        assert_eq!(s.data_bytes(), 10);
        s.put(b"k", Bytes::from_static(b"abc")).unwrap();
        assert_eq!(s.data_bytes(), 3);
        s.put(b"k", Bytes::from_static(b"abcdef")).unwrap();
        assert_eq!(s.data_bytes(), 6);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn keys_and_clear() {
        let s = MemStore::new();
        for i in 0..100u32 {
            s.put(format!("key-{i}").as_bytes(), Bytes::from(vec![0u8; 8]))
                .unwrap();
        }
        assert_eq!(s.keys().len(), 100);
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.data_bytes(), 0);
    }

    #[test]
    fn concurrent_writers_on_distinct_keys() {
        let s = Arc::new(MemStore::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let key = format!("t{t}-k{i}");
                        s.put(key.as_bytes(), Bytes::from(vec![t as u8; 16]))
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.len(), 8 * 500);
        assert_eq!(s.data_bytes(), 8 * 500 * 16);
    }

    #[test]
    fn concurrent_readers_and_writers_on_same_key() {
        let s = Arc::new(MemStore::new());
        s.put(b"hot", Bytes::from_static(b"initial")).unwrap();
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        s.put(b"hot", Bytes::from(format!("value-{t}-{i}")))
                            .unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        // The value must always be present and intact.
                        let v = s.get(b"hot").unwrap().unwrap();
                        assert!(!v.is_empty());
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        assert_eq!(s.len(), 1);
    }
}
