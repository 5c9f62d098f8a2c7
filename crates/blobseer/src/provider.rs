//! Data providers: the page protocol of a machine.
//!
//! "The providers store the pages, as assigned by the provider manager"
//! (paper §III-A). A provider is the page role of one machine's
//! [`StorageNode`]: it serves the node's page store, knows which cluster
//! node the machine is (for locality-aware scheduling and the network
//! model) and counts its page traffic. The liveness flag is the machine's,
//! so a killed machine refuses its pages and its metadata together.
//!
//! A call is a call: every operation is one batch on the machine, served on
//! the caller's thread. The only lock taken is the page store's own, held
//! for the store operation alone, so it is the innermost lock. An operation
//! that starts after the machine's `kill` returns is refused.
//!
//! A dead provider *refuses* data operations rather than silently absorbing
//! them — callers discover the death as an error, the way a broken socket
//! would surface it. [`Provider::ping`] is the cheap liveness probe the
//! failure detector, the repair pass and placement use.

use crate::error::{BlobResult, BlobSeerError};
use crate::types::{BlobId, InlineKey, ProviderId, Version};
use bytes::Bytes;
use dht::{DhtNodeId, StorageNode};
use kvstore::{MemStore, PageStore};
use simcluster::replica::Member;
use simcluster::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// One data provider, shaped like a blob wire protocol of three batches —
/// `UploadMany`, `DownloadMany` of `(key, offset, len)` windows and
/// `DeleteMany` — plus the control probe, over its machine's page store.
pub struct Provider {
    machine: Arc<StorageNode>,
    writes: AtomicU64,
    reads: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl Provider {
    /// The page role of `machine`: provider `i` serves machine `i`.
    pub fn new(machine: Arc<StorageNode>) -> Self {
        Provider {
            machine,
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        }
    }

    /// This provider's id: its machine's.
    pub fn id(&self) -> ProviderId {
        self.machine.id().into()
    }

    /// The cluster node this provider's machine is.
    pub fn node(&self) -> NodeId {
        self.machine.host()
    }

    /// The machine whose pages this provider serves (and whose metadata
    /// map the DHT places). Crate-private: a deployment changes its
    /// machines only through [`crate::BlobSeer::kill`] and
    /// [`crate::BlobSeer::join`].
    pub(crate) fn machine(&self) -> &Arc<StorageNode> {
        &self.machine
    }

    /// Liveness probe: `true` when the machine is serving. Reads the flag
    /// every data operation checks, so it agrees with the last `kill` that
    /// returned.
    pub fn ping(&self) -> bool {
        self.machine.ping()
    }

    /// Run one batch on the machine's page store; refused when it is down.
    fn serve<T>(&self, batch: impl FnOnce(&MemStore) -> BlobResult<T>) -> BlobResult<T> {
        self.machine
            .serve_pages(batch)
            .unwrap_or_else(|dht::NodeDown| Err(BlobSeerError::Storage(kvstore::KvError::Closed)))
    }

    /// Store one page: a batch of one over [`Provider::upload_many`].
    pub fn put_page(&self, key: &[u8], data: Bytes) -> BlobResult<()> {
        self.upload_many(&[(key, data)])
    }

    /// `Upload` for a batch of pages — the one call a write's push sends
    /// each provider. One liveness check covers the batch: a dead provider
    /// refuses it whole and stores nothing.
    pub fn upload_many<K: AsRef<[u8]>>(&self, pages: &[(K, Bytes)]) -> BlobResult<()> {
        self.serve(|store| {
            for (key, page) in pages {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.bytes_written
                    .fetch_add(page.len() as u64, Ordering::Relaxed);
                store.put(key.as_ref(), page.clone())?;
            }
            Ok(())
        })
    }

    /// Several ranged downloads folded into one call — the coalesced shape:
    /// one wire exchange per destination per flush. One liveness check
    /// covers the batch; returns one slot per request, in order, `None`
    /// where the page is missing.
    pub fn download_many(&self, requests: Vec<PageRequest>) -> BlobResult<Vec<Option<Bytes>>> {
        self.serve(|store| {
            let mut served = Vec::with_capacity(requests.len());
            for PageRequest { key, offset, len } in &requests {
                let Some(page) = store.get(key)? else {
                    served.push(None);
                    continue;
                };
                // Clamp the requested window to what is stored: the caller
                // knows the page's valid length and pads/truncates; the
                // provider only ever ships bytes it holds.
                let start = usize::try_from(*offset)
                    .unwrap_or(usize::MAX)
                    .min(page.len());
                let end = match len {
                    Some(l) => start
                        .saturating_add(usize::try_from(*l).unwrap_or(usize::MAX))
                        .min(page.len()),
                    None => page.len(),
                };
                self.reads.fetch_add(1, Ordering::Relaxed);
                self.bytes_read
                    .fetch_add((end - start) as u64, Ordering::Relaxed);
                served.push(Some(page.slice(start..end)));
            }
            Ok(served)
        })
    }

    /// Delete one page: a batch of one over [`Provider::delete_many`].
    pub fn delete_page(&self, key: &[u8]) -> BlobResult<bool> {
        Ok(self.delete_many(&[key])?.contains(&true))
    }

    /// `Delete` for a batch of pages — the one call a sweep sends each
    /// provider. One liveness check covers the batch; returns one slot per
    /// key, in order, `true` where the page was held.
    pub fn delete_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> BlobResult<Vec<bool>> {
        self.serve(|store| {
            keys.iter()
                .map(|key| Ok(store.delete(key.as_ref())?))
                .collect()
        })
    }

    /// Every page key this provider stores, dead or alive (administrative,
    /// like [`Provider::stats`]: invariant checks compare it with what the
    /// metadata still references).
    pub fn page_keys(&self) -> Vec<Vec<u8>> {
        self.machine.page_store().keys()
    }

    /// Current counters: pages only (the machine's metadata counts in
    /// [`dht::DhtStats`]).
    pub fn stats(&self) -> ProviderStats {
        let store = self.machine.page_store();
        ProviderStats {
            pages: store.len(),
            stored_bytes: store.data_bytes(),
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

/// A provider as the repair loop sees it: a member named by its machine
/// (so the page tier shares the DHT's detector), whose listing is its page
/// keys, copy reads one `DownloadMany` and writes one `UploadMany`.
impl Member for Provider {
    type Id = DhtNodeId;
    type Value = Bytes;

    fn id(&self) -> DhtNodeId {
        self.machine.id()
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
        self.upload_many(entries).map_or(0, |()| entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> Provider {
        Provider::new(Arc::new(StorageNode::new(DhtNodeId(0), NodeId(0))))
    }

    /// One window of one page: a `DownloadMany` of one request.
    fn fetch(p: &Provider, key: &[u8], offset: u64, len: Option<u64>) -> BlobResult<Option<Bytes>> {
        let request = PageRequest {
            key: key.to_vec(),
            offset,
            len,
        };
        Ok(p.download_many(vec![request])?.pop().flatten())
    }

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
        let p = provider();
        assert_eq!(p.id(), ProviderId(0));
        assert_eq!(p.node(), NodeId(0));
        let key = page_key(BlobId(0), Version(1), 0);
        p.put_page(&key, Bytes::from(vec![7u8; 100])).unwrap();
        let got = fetch(&p, &key, 0, None).unwrap().unwrap();
        assert_eq!(got.len(), 100);
        assert!(fetch(&p, b"missing", 0, None).unwrap().is_none());

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
        let p = provider();
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
        p.machine().kill();
        assert!(p.delete_many(&[k0]).is_err(), "a dead provider refuses");
    }

    #[test]
    fn ranged_download_serves_only_the_window() {
        let p = provider();
        let key = page_key(BlobId(0), Version(1), 0);
        let data: Vec<u8> = (0..100u8).collect();
        p.put_page(&key, Bytes::from(data.clone())).unwrap();

        let mid = fetch(&p, &key, 10, Some(20)).unwrap().unwrap();
        assert_eq!(&mid[..], &data[10..30]);
        let tail = fetch(&p, &key, 90, None).unwrap().unwrap();
        assert_eq!(&tail[..], &data[90..]);
        // Windows past the stored length clamp to empty rather than erroring.
        let beyond = fetch(&p, &key, 200, Some(10)).unwrap().unwrap();
        assert!(beyond.is_empty());
        assert!(fetch(&p, b"missing", 0, Some(4)).unwrap().is_none());

        // Only the served bytes count, not the page size.
        assert_eq!(p.stats().bytes_read, 20 + 10); // the clamped window served 0
        assert_eq!(p.stats().reads, 3);
    }

    #[test]
    fn download_many_answers_every_request_in_order() {
        let p = provider();
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
        p.machine().kill();
        assert!(p
            .download_many(vec![PageRequest {
                key: k0,
                offset: 0,
                len: None,
            }])
            .is_err());
    }

    #[test]
    fn upload_many_stores_a_batch_or_refuses_it_whole() {
        let p = provider();
        let pages: Vec<(Vec<u8>, Bytes)> = (0..3u64)
            .map(|i| {
                let key = page_key(BlobId(0), Version(1), i);
                (key, Bytes::from(vec![i as u8; 10 + i as usize]))
            })
            .collect();
        p.upload_many(&pages).unwrap();
        for (key, page) in &pages {
            assert_eq!(fetch(&p, key, 0, None).unwrap().as_ref(), Some(page));
        }
        // Counted as three `put_page` calls would have been.
        let s = p.stats();
        assert_eq!((s.pages, s.stored_bytes), (3, 33));
        assert_eq!((s.writes, s.bytes_written), (3, 33));

        p.machine().kill();
        let more = [(page_key(BlobId(0), Version(2), 0), Bytes::from_static(b"x"))];
        assert!(p.upload_many(&more).is_err(), "a dead provider refuses");
        p.machine().revive();
        let s = p.stats();
        assert_eq!(
            (s.pages, s.writes, s.bytes_written),
            (3, 3, 33),
            "and stores nothing"
        );
        assert!(fetch(&p, &more[0].0, 0, None).unwrap().is_none());
    }

    #[test]
    fn dead_provider_rejects_all_operations() {
        let p = provider();
        let key = page_key(BlobId(0), Version(1), 0);
        p.put_page(&key, Bytes::from_static(b"data")).unwrap();
        p.machine().kill();
        assert!(!p.ping());
        assert!(p.put_page(&key, Bytes::from_static(b"x")).is_err());
        assert!(fetch(&p, &key, 0, None).is_err());
        assert!(p.delete_page(&key).is_err());
        // The machine is down for its metadata role as well.
        assert_eq!(p.machine().get(b"m"), Err(dht::NodeDown));
        p.machine().revive();
        assert_eq!(
            fetch(&p, &key, 0, None).unwrap().unwrap(),
            Bytes::from_static(b"data")
        );
    }

    #[test]
    fn ping_tracks_kill_and_revive() {
        let p = provider();
        assert!(p.ping());
        p.machine().kill();
        assert!(!p.ping());
        p.machine().revive();
        assert!(p.ping());
    }

    #[test]
    fn missing_page_read_does_not_count_as_served() {
        let p = provider();
        let _ = fetch(&p, b"nope", 0, None).unwrap();
        assert_eq!(p.stats().reads, 0);
    }
}
