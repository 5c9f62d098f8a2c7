//! Data providers: the nodes that store pages.
//!
//! "The providers store the pages, as assigned by the provider manager"
//! (paper §III-A). A provider owns a [`MemStore`], knows which cluster node
//! it runs on (for locality-aware scheduling and the network model), counts
//! its traffic, and can be killed/revived for fault-tolerance experiments.
//!
//! A call is a call: every method checks the liveness flag, serves on the
//! caller's thread and returns. The only lock taken is the page store's
//! own, held for the store operation alone, so it is the innermost lock.
//! `kill` flips the flag every operation checks, so an operation that starts
//! after `kill` returns is refused.
//!
//! A dead provider *refuses* data operations rather than silently absorbing
//! them — callers discover the death as an error, the way a broken socket
//! would surface it. [`Provider::ping`] is the cheap liveness probe the
//! failure detector, the repair pass and placement use.

use crate::error::{BlobResult, BlobSeerError};
use crate::types::{BlobId, InlineKey, ProviderId, Version};
use bytes::Bytes;
use kvstore::{MemStore, PageStore};
use simcluster::replica::Member;
use simcluster::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The tag byte of a page's storage key (tree-node keys carry another).
const PAGE_KEY_TAG: u8 = b'p';

/// Build the storage key under which a page is kept on a provider: a tag
/// byte and the varints of blob, version and page (an [`InlineKey`]).
///
/// Pages are immutable once written (BlobSeer never overwrites data), so the
/// key embeds the version that created the page.
pub fn page_key(blob: BlobId, version: Version, page_index: u64) -> Vec<u8> {
    InlineKey::new(PAGE_KEY_TAG, &[blob.0, version.0, page_index])
        .as_bytes()
        .to_vec()
}

/// Traffic and storage counters for one provider.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProviderStats {
    /// Number of pages currently stored.
    pub pages: usize,
    /// Bytes currently stored.
    pub stored_bytes: u64,
    /// Total pages written since start (monotonic).
    pub writes: u64,
    /// Total pages served since start (monotonic).
    pub reads: u64,
    /// Total bytes written since start (monotonic).
    pub bytes_written: u64,
    /// Total bytes served since start (monotonic).
    pub bytes_read: u64,
}

/// One page fetch inside a coalesced [`Provider::download_many`] batch.
#[derive(Debug, Clone)]
pub struct PageRequest {
    /// Storage key of the page.
    pub key: Vec<u8>,
    /// First byte wanted within the stored page.
    pub offset: u64,
    /// Bytes wanted from `offset`; `None` means "through the end".
    pub len: Option<u64>,
}

/// One data provider, shaped like a blob wire protocol: `Upload` /
/// `Download(key, offset, len)` / `Query` / `Delete`, plus the coalesced
/// `DownloadMany` and `DeleteMany` batches and the control probes.
pub struct Provider {
    id: ProviderId,
    node: NodeId,
    store: MemStore,
    alive: AtomicBool,
    writes: AtomicU64,
    reads: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl Provider {
    /// Create a provider backed by an in-memory store.
    pub fn in_memory(id: ProviderId, node: NodeId) -> Self {
        Provider {
            id,
            node,
            store: MemStore::new(),
            alive: AtomicBool::new(true),
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        }
    }

    /// This provider's id.
    pub fn id(&self) -> ProviderId {
        self.id
    }

    /// The cluster node this provider runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Liveness probe: `true` when the provider is serving. Reads the flag
    /// every data operation checks, so it agrees with the last `kill` or
    /// `revive` that returned.
    pub fn ping(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Simulate a crash. The underlying store keeps its data so that a
    /// revive models a restart from persistent storage. Operations that
    /// start after this returns observe the dead state.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Bring the provider back online.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    /// Refuse the operation when the provider is down.
    fn serving(&self) -> BlobResult<()> {
        if self.ping() {
            Ok(())
        } else {
            Err(BlobSeerError::Storage(kvstore::KvError::Closed))
        }
    }

    /// Store a page (the wire protocol's `Upload`). Fails if the provider is
    /// down.
    pub fn put_page(&self, key: &[u8], data: Bytes) -> BlobResult<()> {
        self.serving()?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.store.put(key, data)?;
        Ok(())
    }

    /// Fetch a whole page (`Download` with `offset 0, len None`). Returns
    /// `Ok(None)` when the provider is up but does not hold the page, and an
    /// error when the provider is down.
    pub fn get_page(&self, key: &[u8]) -> BlobResult<Option<Bytes>> {
        self.download_page(key, 0, None)
    }

    /// Ranged streaming read (`Download(key, offset, len)`): serve only
    /// `[offset, offset + len)` of the stored page, clamped to what is
    /// stored; `len: None` means "through the end". Returns `Ok(None)` for a
    /// page the provider does not hold.
    pub fn download_page(
        &self,
        key: &[u8],
        offset: u64,
        len: Option<u64>,
    ) -> BlobResult<Option<Bytes>> {
        self.serving()?;
        self.download(key, offset, len)
    }

    /// Several ranged downloads folded into one call — the coalesced shape:
    /// one wire exchange per destination per flush. One liveness check
    /// covers the batch; returns one slot per request, in order, `None`
    /// where the page is missing.
    pub fn download_many(&self, requests: Vec<PageRequest>) -> BlobResult<Vec<Option<Bytes>>> {
        self.serving()?;
        requests
            .iter()
            .map(|r| self.download(&r.key, r.offset, r.len))
            .collect()
    }

    /// Serve one window of a stored page, liveness already checked.
    fn download(&self, key: &[u8], offset: u64, len: Option<u64>) -> BlobResult<Option<Bytes>> {
        let Some(page) = self.store.get(key)? else {
            return Ok(None);
        };
        // Clamp the requested window to what is stored: the caller knows the
        // page's valid length and pads/truncates; the provider only ever
        // ships bytes it holds.
        let start = usize::try_from(offset)
            .unwrap_or(usize::MAX)
            .min(page.len());
        let end = match len {
            Some(l) => start
                .saturating_add(usize::try_from(l).unwrap_or(usize::MAX))
                .min(page.len()),
            None => page.len(),
        };
        let piece = page.slice(start..end);
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(piece.len() as u64, Ordering::Relaxed);
        Ok(Some(piece))
    }

    /// `Query(key)`: the stored length of a page without moving its bytes.
    /// Does not count as served traffic.
    pub fn query_page(&self, key: &[u8]) -> BlobResult<Option<u64>> {
        self.serving()?;
        Ok(self.store.get(key)?.map(|p| p.len() as u64))
    }

    /// Delete one page: a batch of one over [`Provider::delete_many`].
    pub fn delete_page(&self, key: &[u8]) -> BlobResult<bool> {
        Ok(self.delete_many(&[key])?.contains(&true))
    }

    /// `Delete` for a batch of pages — the one call a sweep sends each
    /// provider. One liveness check covers the batch; returns one slot per
    /// key, in order, `true` where the page was held.
    pub fn delete_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> BlobResult<Vec<bool>> {
        self.serving()?;
        keys.iter()
            .map(|key| Ok(self.store.delete(key.as_ref())?))
            .collect()
    }

    /// Every page key this provider stores, dead or alive (administrative,
    /// like [`Provider::stats`]: invariant checks compare it with what the
    /// metadata still references).
    pub fn page_keys(&self) -> Vec<Vec<u8>> {
        self.store.keys()
    }

    /// Current counters.
    pub fn stats(&self) -> ProviderStats {
        ProviderStats {
            pages: self.store.len(),
            stored_bytes: self.store.data_bytes(),
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

/// A provider as the repair loop sees it: the listing is its page keys,
/// the copy reads are one `DownloadMany`, the writes one `Upload` per page.
impl Member for Provider {
    type Id = ProviderId;
    type Value = Bytes;

    fn id(&self) -> ProviderId {
        self.id
    }

    fn ping(&self) -> bool {
        Provider::ping(self)
    }

    fn keys(&self) -> Vec<Vec<u8>> {
        self.page_keys()
    }

    fn read(&self, keys: &[&[u8]]) -> Option<Vec<Option<Bytes>>> {
        let requests = keys
            .iter()
            .map(|key| PageRequest {
                key: key.to_vec(),
                offset: 0,
                len: None,
            })
            .collect();
        self.download_many(requests).ok()
    }

    fn write(&self, entries: &[(&[u8], Bytes)]) -> usize {
        entries
            .iter()
            .take_while(|(key, page)| self.put_page(key, page.clone()).is_ok())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_key_is_unique_per_blob_version_page() {
        let a = page_key(BlobId(1), Version(2), 3);
        let b = page_key(BlobId(1), Version(2), 4);
        let c = page_key(BlobId(1), Version(3), 3);
        let d = page_key(BlobId(2), Version(2), 3);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, b"p\x01\x02\x03");
        assert_eq!(
            page_key(BlobId(1), Version(128), 0),
            b"p\x01\x80\x01\x00",
            "a varint takes a byte per seven bits"
        );
    }

    #[test]
    fn put_get_delete_and_stats() {
        let p = Provider::in_memory(ProviderId(0), NodeId(0));
        assert_eq!(p.id(), ProviderId(0));
        assert_eq!(p.node(), NodeId(0));
        let key = page_key(BlobId(0), Version(1), 0);
        p.put_page(&key, Bytes::from(vec![7u8; 100])).unwrap();
        let got = p.get_page(&key).unwrap().unwrap();
        assert_eq!(got.len(), 100);
        assert!(p.get_page(b"missing").unwrap().is_none());

        let s = p.stats();
        assert_eq!(s.pages, 1);
        assert_eq!(s.stored_bytes, 100);
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 100);

        assert!(p.delete_page(&key).unwrap());
        assert_eq!(p.stats().pages, 0);
    }

    #[test]
    fn delete_many_answers_every_key_in_order() {
        let p = Provider::in_memory(ProviderId(0), NodeId(0));
        let k0 = page_key(BlobId(0), Version(1), 0);
        let k1 = page_key(BlobId(0), Version(1), 1);
        p.put_page(&k0, Bytes::from(vec![1u8; 8])).unwrap();
        p.put_page(&k1, Bytes::from(vec![2u8; 8])).unwrap();
        assert_eq!(p.page_keys().len(), 2);
        let missing = b"missing".to_vec();
        assert_eq!(
            p.delete_many(&[k1.clone(), missing, k0.clone()]).unwrap(),
            vec![true, false, true]
        );
        assert_eq!(p.stats().pages, 0);
        assert_eq!(p.stats().stored_bytes, 0);
        p.kill();
        assert!(p.delete_many(&[k0]).is_err(), "a dead provider refuses");
    }

    #[test]
    fn ranged_download_serves_only_the_window() {
        let p = Provider::in_memory(ProviderId(0), NodeId(0));
        let key = page_key(BlobId(0), Version(1), 0);
        let data: Vec<u8> = (0..100u8).collect();
        p.put_page(&key, Bytes::from(data.clone())).unwrap();

        let mid = p.download_page(&key, 10, Some(20)).unwrap().unwrap();
        assert_eq!(&mid[..], &data[10..30]);
        let tail = p.download_page(&key, 90, None).unwrap().unwrap();
        assert_eq!(&tail[..], &data[90..]);
        // Windows past the stored length clamp to empty rather than erroring.
        let beyond = p.download_page(&key, 200, Some(10)).unwrap().unwrap();
        assert!(beyond.is_empty());
        assert!(p.download_page(b"missing", 0, Some(4)).unwrap().is_none());

        // Only the served bytes count, not the page size.
        assert_eq!(p.stats().bytes_read, 20 + 10); // the clamped window served 0
        assert_eq!(p.stats().reads, 3);
    }

    #[test]
    fn download_many_answers_every_request_in_order() {
        let p = Provider::in_memory(ProviderId(0), NodeId(0));
        let k0 = page_key(BlobId(0), Version(1), 0);
        let k1 = page_key(BlobId(0), Version(1), 1);
        p.put_page(&k0, Bytes::from(vec![1u8; 50])).unwrap();
        p.put_page(&k1, Bytes::from(vec![2u8; 50])).unwrap();
        let got = p
            .download_many(vec![
                PageRequest {
                    key: k0.clone(),
                    offset: 0,
                    len: Some(8),
                },
                PageRequest {
                    key: b"missing".to_vec(),
                    offset: 0,
                    len: None,
                },
                PageRequest {
                    key: k1.clone(),
                    offset: 40,
                    len: None,
                },
            ])
            .unwrap();
        assert_eq!(got[0].as_ref().unwrap().len(), 8);
        assert!(got[1].is_none());
        assert_eq!(got[2].as_ref().unwrap(), &Bytes::from(vec![2u8; 10]));
        p.kill();
        assert!(p
            .download_many(vec![PageRequest {
                key: k0,
                offset: 0,
                len: None,
            }])
            .is_err());
    }

    #[test]
    fn query_reports_stored_length_without_serving_bytes() {
        let p = Provider::in_memory(ProviderId(0), NodeId(0));
        let key = page_key(BlobId(0), Version(1), 0);
        p.put_page(&key, Bytes::from(vec![9u8; 64])).unwrap();
        assert_eq!(p.query_page(&key).unwrap(), Some(64));
        assert_eq!(p.query_page(b"missing").unwrap(), None);
        assert_eq!(p.stats().reads, 0);
        assert_eq!(p.stats().bytes_read, 0);
        p.kill();
        assert!(p.query_page(&key).is_err());
    }

    #[test]
    fn dead_provider_rejects_all_operations() {
        let p = Provider::in_memory(ProviderId(0), NodeId(0));
        let key = page_key(BlobId(0), Version(1), 0);
        p.put_page(&key, Bytes::from_static(b"data")).unwrap();
        p.kill();
        assert!(!p.ping());
        assert!(p.put_page(&key, Bytes::from_static(b"x")).is_err());
        assert!(p.get_page(&key).is_err());
        assert!(p.delete_page(&key).is_err());
        p.revive();
        assert_eq!(
            p.get_page(&key).unwrap().unwrap(),
            Bytes::from_static(b"data")
        );
    }

    #[test]
    fn ping_tracks_kill_and_revive() {
        let p = Provider::in_memory(ProviderId(0), NodeId(0));
        assert!(p.ping());
        p.kill();
        assert!(!p.ping());
        p.revive();
        assert!(p.ping());
    }

    #[test]
    fn missing_page_read_does_not_count_as_served() {
        let p = Provider::in_memory(ProviderId(0), NodeId(0));
        let _ = p.get_page(b"nope").unwrap();
        assert_eq!(p.stats().reads, 0);
    }
}
