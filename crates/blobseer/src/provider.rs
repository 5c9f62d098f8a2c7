//! Data providers: the nodes that store pages.
//!
//! "The providers store the pages, as assigned by the provider manager"
//! (paper §III-A). A provider wraps a [`PageStore`] backend (in-memory or the
//! durable log-structured store), knows which cluster node it runs on (for
//! locality-aware scheduling and the network model), counts its traffic, and
//! can be killed/revived for fault-tolerance experiments.
//!
//! The store, liveness flag and counters live single-threaded inside a
//! message-loop actor; the `Provider` the rest of the system holds is a thin
//! handle enqueueing commands on the mailbox. Mailbox FIFO preserves the
//! kill-then-put ordering callers rely on.
//!
//! A dead provider *refuses* data operations rather than silently absorbing
//! them — callers discover the death as an error, the way a broken socket
//! would surface it. [`Provider::ping`] is the cheap liveness probe the
//! failure detector and the repair pass use.

use crate::error::{BlobResult, BlobSeerError};
use crate::types::{BlobId, ProviderId, Version};
use bytes::Bytes;
use kvstore::{MemStore, PageStore};
use miniexec::{actor, oneshot};
use simcluster::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Build the storage key under which a page is kept on a provider.
///
/// Pages are immutable once written (BlobSeer never overwrites data), so the
/// key embeds the version that created the page.
pub fn page_key(blob: BlobId, version: Version, page_index: u64) -> Vec<u8> {
    format!("{}/{}/page-{}", blob, version, page_index).into_bytes()
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

/// Commands understood by the provider actor, shaped like a blob wire
/// protocol: `Upload` / `Download(key, offset, len)` / `Query` / `Delete`,
/// plus the coalesced `DownloadMany` batch and the control probes.
enum ProviderMsg {
    Upload {
        key: Vec<u8>,
        data: Bytes,
        reply: oneshot::Sender<BlobResult<()>>,
    },
    /// Ranged streaming read: serve `[offset, offset + len)` of the stored
    /// page (clamped to what is stored; `len: None` means "through the
    /// end"). A whole-page fetch is `offset 0, len None`.
    Download {
        key: Vec<u8>,
        offset: u64,
        len: Option<u64>,
        reply: oneshot::Sender<BlobResult<Option<Bytes>>>,
    },
    /// Several downloads folded into one mailbox message (one wire exchange
    /// when a transport is charged in front of the mailbox).
    DownloadMany {
        requests: Vec<PageRequest>,
        reply: oneshot::Sender<BlobResult<Vec<Option<Bytes>>>>,
    },
    /// Existence/size probe: the stored length of the page, without moving
    /// its bytes. Does not count as served traffic.
    Query {
        key: Vec<u8>,
        reply: oneshot::Sender<BlobResult<Option<u64>>>,
    },
    Delete {
        key: Vec<u8>,
        reply: oneshot::Sender<BlobResult<bool>>,
    },
    /// Liveness probe: answers through the mailbox, so it observes any
    /// kill/revive enqueued before it. Does not count as served traffic.
    Ping(oneshot::Sender<bool>),
    Stats(oneshot::Sender<ProviderStats>),
    Kill(oneshot::Sender<()>),
    Revive(oneshot::Sender<()>),
}

/// The actor's single-threaded state: plain fields, no shared locks.
struct ProviderState {
    store: Arc<dyn PageStore>,
    alive: bool,
    alive_mirror: Arc<AtomicBool>,
    writes: u64,
    reads: u64,
    bytes_written: u64,
    bytes_read: u64,
}

impl ProviderState {
    fn handle(&mut self, msg: ProviderMsg) {
        match msg {
            ProviderMsg::Upload { key, data, reply } => {
                let _ = reply.send(self.put(&key, data));
            }
            ProviderMsg::Download {
                key,
                offset,
                len,
                reply,
            } => {
                let _ = reply.send(self.download(&key, offset, len));
            }
            ProviderMsg::DownloadMany { requests, reply } => {
                let _ = reply.send(self.download_many(&requests));
            }
            ProviderMsg::Query { key, reply } => {
                let _ = reply.send(self.query(&key));
            }
            ProviderMsg::Delete { key, reply } => {
                let _ = reply.send(self.delete(&key));
            }
            ProviderMsg::Ping(reply) => {
                let _ = reply.send(self.alive);
            }
            ProviderMsg::Stats(reply) => {
                let _ = reply.send(ProviderStats {
                    pages: self.store.len(),
                    stored_bytes: self.store.data_bytes(),
                    writes: self.writes,
                    reads: self.reads,
                    bytes_written: self.bytes_written,
                    bytes_read: self.bytes_read,
                });
            }
            ProviderMsg::Kill(done) => {
                self.alive = false;
                self.alive_mirror.store(false, Ordering::Release);
                let _ = done.send(());
            }
            ProviderMsg::Revive(done) => {
                self.alive = true;
                self.alive_mirror.store(true, Ordering::Release);
                let _ = done.send(());
            }
        }
    }

    fn put(&mut self, key: &[u8], data: Bytes) -> BlobResult<()> {
        if !self.alive {
            return Err(BlobSeerError::Storage(kvstore::KvError::Closed));
        }
        self.writes += 1;
        self.bytes_written += data.len() as u64;
        self.store.put(key, data)?;
        Ok(())
    }

    fn download(&mut self, key: &[u8], offset: u64, len: Option<u64>) -> BlobResult<Option<Bytes>> {
        if !self.alive {
            return Err(BlobSeerError::Storage(kvstore::KvError::Closed));
        }
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
        self.reads += 1;
        self.bytes_read += piece.len() as u64;
        Ok(Some(piece))
    }

    fn download_many(&mut self, requests: &[PageRequest]) -> BlobResult<Vec<Option<Bytes>>> {
        // One liveness check covers the batch; per-entry misses are `None`.
        if !self.alive {
            return Err(BlobSeerError::Storage(kvstore::KvError::Closed));
        }
        requests
            .iter()
            .map(|r| self.download(&r.key, r.offset, r.len))
            .collect()
    }

    fn query(&mut self, key: &[u8]) -> BlobResult<Option<u64>> {
        if !self.alive {
            return Err(BlobSeerError::Storage(kvstore::KvError::Closed));
        }
        Ok(self.store.get(key)?.map(|p| p.len() as u64))
    }

    fn delete(&mut self, key: &[u8]) -> BlobResult<bool> {
        if !self.alive {
            return Err(BlobSeerError::Storage(kvstore::KvError::Closed));
        }
        Ok(self.store.delete(key)?)
    }
}

/// One data provider.
pub struct Provider {
    id: ProviderId,
    node: NodeId,
    handle: actor::Handle<ProviderMsg>,
    alive: Arc<AtomicBool>,
}

/// A dead actor means the reply channel is dropped; surface that the same
/// way a dead provider surfaces: the component is not serving.
fn actor_gone<T>(_: oneshot::Canceled) -> BlobResult<T> {
    Err(BlobSeerError::Storage(kvstore::KvError::Closed))
}

/// A `DownloadMany` already posted to a provider's mailbox.
#[must_use = "the download is in flight; wait for its reply"]
pub struct PendingDownloads(oneshot::Receiver<BlobResult<Vec<Option<Bytes>>>>);

impl PendingDownloads {
    /// Block for the provider's reply; a provider whose actor is gone reads
    /// as not serving, like a dead one.
    pub fn wait(self) -> BlobResult<Vec<Option<Bytes>>> {
        self.0.recv().unwrap_or_else(actor_gone)
    }
}

impl Provider {
    /// Create a provider backed by an in-memory store.
    pub fn in_memory(id: ProviderId, node: NodeId) -> Self {
        Self::with_store(id, node, Arc::new(MemStore::new()))
    }

    /// Create a provider backed by an arbitrary page store (e.g. a
    /// [`kvstore::LogStore`] for durability).
    pub fn with_store(id: ProviderId, node: NodeId, store: Arc<dyn PageStore>) -> Self {
        let alive = Arc::new(AtomicBool::new(true));
        let state = ProviderState {
            store,
            alive: true,
            alive_mirror: Arc::clone(&alive),
            writes: 0,
            reads: 0,
            bytes_written: 0,
            bytes_read: 0,
        };
        let handle = actor::spawn(&format!("provider-{}", id.0), state, ProviderState::handle);
        Provider {
            id,
            node,
            handle,
            alive,
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

    /// Is the provider serving requests? (Lock-free mirror read; the
    /// authoritative flag lives with the state and gates every operation.)
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Liveness probe through the mailbox: `true` when the provider is
    /// serving. This is the authoritative check the failure detector and the
    /// repair pass use; unlike [`Provider::is_alive`] it is serialized with
    /// every kill/revive that was enqueued before it.
    pub fn ping(&self) -> bool {
        self.handle.call(ProviderMsg::Ping).unwrap_or(false)
    }

    /// Simulate a crash. The underlying store keeps its data so that a
    /// revive models a restart from persistent storage. Serialized through
    /// the mailbox, so operations enqueued after the kill observe the dead
    /// state.
    pub fn kill(&self) {
        let _ = self.handle.call(ProviderMsg::Kill);
    }

    /// Bring the provider back online.
    pub fn revive(&self) {
        let _ = self.handle.call(ProviderMsg::Revive);
    }

    /// Store a page (the wire protocol's `Upload`). Fails if the provider is
    /// down.
    pub fn put_page(&self, key: &[u8], data: Bytes) -> BlobResult<()> {
        self.handle
            .call(|reply| ProviderMsg::Upload {
                key: key.to_vec(),
                data,
                reply,
            })
            .unwrap_or_else(actor_gone)
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
        self.handle
            .call(|reply| ProviderMsg::Download {
                key: key.to_vec(),
                offset,
                len,
                reply,
            })
            .unwrap_or_else(actor_gone)
    }

    /// Several ranged downloads folded into one mailbox message — the
    /// coalesced shape: one wire exchange per destination per flush. Returns
    /// one slot per request, in order.
    pub fn download_many(&self, requests: Vec<PageRequest>) -> BlobResult<Vec<Option<Bytes>>> {
        self.post_download_many(requests).wait()
    }

    /// [`Provider::download_many`] without the wait: the message is in the
    /// mailbox when this returns, so a reader posts to every provider of a
    /// read and then collects, and the providers serve it side by side.
    pub fn post_download_many(&self, requests: Vec<PageRequest>) -> PendingDownloads {
        PendingDownloads(
            self.handle
                .request(|reply| ProviderMsg::DownloadMany { requests, reply }),
        )
    }

    /// `Query(key)`: the stored length of a page without moving its bytes.
    pub fn query_page(&self, key: &[u8]) -> BlobResult<Option<u64>> {
        self.handle
            .call(|reply| ProviderMsg::Query {
                key: key.to_vec(),
                reply,
            })
            .unwrap_or_else(actor_gone)
    }

    /// Delete a page (used by version garbage collection).
    pub fn delete_page(&self, key: &[u8]) -> BlobResult<bool> {
        self.handle
            .call(|reply| ProviderMsg::Delete {
                key: key.to_vec(),
                reply,
            })
            .unwrap_or_else(actor_gone)
    }

    /// Current counters.
    pub fn stats(&self) -> ProviderStats {
        self.handle.call(ProviderMsg::Stats).unwrap_or_default()
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
        assert_eq!(String::from_utf8(a).unwrap(), "blob-1/v2/page-3");
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
        assert!(!p.is_alive());
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

    #[test]
    fn dropping_an_actor_provider_mid_traffic_never_hangs_a_caller() {
        // Four writers hammer the actor while the main thread drops its
        // handle. Every in-flight call must come back — stored or refused —
        // and the joins below must not hang. (The executor-level guarantees
        // behind this — mailbox drain on last-handle drop, reply-waiter
        // cancellation on actor death — are tested in `miniexec` itself.)
        let provider = Arc::new(Provider::in_memory(ProviderId(7), NodeId(0)));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let p = Arc::clone(&provider);
                std::thread::spawn(move || {
                    let mut stored = 0u64;
                    for i in 0..200u64 {
                        let key = page_key(BlobId(w), Version(1), i);
                        if p.put_page(&key, Bytes::from_static(b"payload")).is_ok() {
                            stored += 1;
                        }
                    }
                    stored
                })
            })
            .collect();
        drop(provider);
        let stored: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        // The writers' own Arc clones kept the actor alive, so their traffic
        // all landed; the point is that the racing drop broke nothing.
        assert_eq!(stored, 4 * 200);
    }
}
