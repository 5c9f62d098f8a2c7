//! One storage node per machine.
//!
//! BlobSeer's metadata providers and data providers are two roles of one
//! deployment (paper §III-A). Here they are two stores of one server: a
//! [`StorageNode`] keeps the metadata map whose keys the DHT ring places
//! ([`crate::Dht`]) and the page store whose pages the provider manager
//! places (served through `blobseer::Provider`). One liveness flag and one
//! batch counter sit in front of both, so a kill takes out a machine's
//! metadata and its pages together.
//!
//! A call is a call: every method serves on the caller's thread and
//! returns. Each store takes only its own lock, for the store work itself,
//! never across a call into another component, so it is always the
//! innermost lock. Kill-then-put ordering holds: a batch that starts after
//! `kill` returns observes the dead state.
//!
//! **Failure model.** A dead node *refuses* data operations on both
//! stores — they return [`NodeDown`], exactly what a remote peer would
//! observe as a connection error. Callers are expected to discover death
//! this way (or via [`StorageNode::ping`] heartbeats) rather than trust any
//! shared flag. The administrative surface (`len`, `keys`, `data_bytes`,
//! `page_store`) keeps working while dead: it models reading the node's
//! persistent state, which is how tests and the footprint counters inspect
//! a crashed node.

use bytes::Bytes;
use kvstore::{FastMap, MemStore};
use parking_lot::Mutex;
use simcluster::replica::Member;
use simcluster::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of a storage node: its rank on the DHT ring, and (in a
/// BlobSeer deployment) the id of the provider that serves its pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DhtNodeId(pub u64);

/// A data operation reached a node that is not serving (crashed). The
/// caller should fail over to another replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDown;

/// Result of a data operation against one node.
pub type NodeResult<T> = Result<T, NodeDown>;

/// The metadata map, behind its one lock.
#[derive(Default)]
struct Metadata {
    data: FastMap<Vec<u8>, Bytes>,
    /// Bytes of values stored.
    data_bytes: u64,
}

impl Metadata {
    /// Take a replaced or removed value out of the stored-bytes count.
    fn forget(&mut self, old: Option<Bytes>) {
        if let Some(old) = old {
            self.data_bytes -= old.len() as u64;
        }
    }
}

/// One machine's storage server: a metadata map and a page store behind
/// one liveness flag, killable for failure-injection experiments. The data
/// plane is batch-shaped: one call carries every key (or entry) the caller
/// has for this node, so one exchange charged on the wire is one served
/// batch here. A single-key operation is a batch of one. A metadata batch
/// borrows its keys: the node copies a key only to store it under a key it
/// does not hold yet.
pub struct StorageNode {
    id: DhtNodeId,
    host: NodeId,
    alive: AtomicBool,
    /// Data-plane batches handled on either store, served or refused.
    batches: AtomicU64,
    metadata: Mutex<Metadata>,
    pages: MemStore,
}

impl StorageNode {
    /// Create a live, empty node on cluster node `host`.
    pub fn new(id: DhtNodeId, host: NodeId) -> Self {
        StorageNode {
            id,
            host,
            alive: AtomicBool::new(true),
            batches: AtomicU64::new(0),
            metadata: Mutex::new(Metadata::default()),
            pages: MemStore::new(),
        }
    }

    /// One fresh node per host, node `i` on `hosts[i]`: a deployment's
    /// machines.
    pub fn fleet(hosts: &[NodeId]) -> Vec<Arc<StorageNode>> {
        hosts
            .iter()
            .enumerate()
            .map(|(i, host)| Arc::new(StorageNode::new(DhtNodeId(i as u64), *host)))
            .collect()
    }

    /// This node's id.
    pub fn id(&self) -> DhtNodeId {
        self.id
    }

    /// The cluster node this machine is: where its exchanges are charged.
    pub fn host(&self) -> NodeId {
        self.host
    }

    /// Run one data-plane batch: counted as handled, refused whole when the
    /// node is dead (one liveness check covers the batch).
    fn serve<T>(&self, batch: impl FnOnce() -> T) -> NodeResult<T> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if self.ping() {
            Ok(batch())
        } else {
            Err(NodeDown)
        }
    }

    /// Run one batch against the page store: the page tier's data plane.
    /// Counted and refused like a metadata batch.
    pub fn serve_pages<T>(&self, batch: impl FnOnce(&MemStore) -> T) -> NodeResult<T> {
        self.serve(|| batch(&self.pages))
    }

    /// The page store (administrative: counts and listings; works while
    /// dead).
    pub fn page_store(&self) -> &MemStore {
        &self.pages
    }

    /// Store one batch of metadata entries (each replaces any existing
    /// value for its key). A dead node refuses the whole batch.
    pub fn put_many<K: AsRef<[u8]>>(&self, entries: &[(K, Bytes)]) -> NodeResult<()> {
        self.serve(|| {
            let mut map = self.metadata.lock();
            for (key, value) in entries {
                let key = key.as_ref();
                map.data_bytes += value.len() as u64;
                let old = match map.data.get_mut(key) {
                    Some(slot) => Some(std::mem::replace(slot, value.clone())),
                    None => map.data.insert(key.to_vec(), value.clone()),
                };
                map.forget(old);
            }
        })
    }

    /// Read one batch of metadata keys; the reply holds one slot per key,
    /// in order. A dead node refuses the whole batch (it does *not* answer
    /// "missing": the caller must fail over, not conclude absence).
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> NodeResult<Vec<Option<Bytes>>> {
        self.serve(|| {
            let map = self.metadata.lock();
            keys.iter()
                .map(|k| map.data.get(k.as_ref()).cloned())
                .collect()
        })
    }

    /// Remove a batch of metadata keys; the reply holds one slot per key,
    /// in order, `true` where a value was present. Refused when dead.
    pub fn remove_each<K: AsRef<[u8]>>(&self, keys: &[K]) -> NodeResult<Vec<bool>> {
        self.serve(|| {
            let mut map = self.metadata.lock();
            keys.iter()
                .map(|key| {
                    let old = map.data.remove(key.as_ref());
                    let present = old.is_some();
                    map.forget(old);
                    present
                })
                .collect()
        })
    }

    /// Remove a batch of metadata keys; returns how many were present.
    /// Refused when dead.
    pub fn remove_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> NodeResult<usize> {
        Ok(self.remove_each(keys)?.into_iter().filter(|r| *r).count())
    }

    /// Store a metadata value (replaces any existing value for the key). A
    /// dead node refuses the write.
    pub fn put(&self, key: &[u8], value: Bytes) -> NodeResult<()> {
        self.put_many(&[(key, value)])
    }

    /// Fetch a metadata value. A dead node refuses the read.
    pub fn get(&self, key: &[u8]) -> NodeResult<Option<Bytes>> {
        let slots = self.get_many(&[key])?;
        Ok(slots.into_iter().next().flatten())
    }

    /// Remove a metadata value; returns whether one was present. Refused
    /// when dead.
    pub fn remove(&self, key: &[u8]) -> NodeResult<bool> {
        Ok(self.remove_each(&[key])?.contains(&true))
    }

    /// Data-plane batches this node has handled on either store (served or
    /// refused) since it was created.
    pub fn batches_handled(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Heartbeat probe: true iff the node is serving. Reads the same flag
    /// every data operation checks, so it agrees with the last `kill` or
    /// `revive` that returned.
    pub fn ping(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Number of metadata keys stored (administrative; works while dead).
    pub fn len(&self) -> usize {
        self.metadata.lock().data.len()
    }

    /// True when the node stores no metadata.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of metadata values stored.
    pub fn data_bytes(&self) -> u64 {
        self.metadata.lock().data_bytes
    }

    /// Every metadata key stored (administrative: used by repair; works
    /// while dead, modelling a read of persistent state).
    pub fn keys(&self) -> Vec<Vec<u8>> {
        self.metadata.lock().data.keys().cloned().collect()
    }

    /// Simulate a crash of the machine: both stores stop serving but keep
    /// their data. Every batch that starts after this returns observes the
    /// dead state.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Bring the node back: a flag flip for failure-injection tests on a
    /// bare node. No deployment revives a machine.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }
}

/// A storage node as the metadata tier's repair loop sees it: the listing
/// is administrative, the copy reads and writes are data-plane batches.
impl Member for StorageNode {
    type Id = DhtNodeId;
    type Value = Bytes;

    fn id(&self) -> DhtNodeId {
        self.id
    }

    fn ping(&self) -> bool {
        StorageNode::ping(self)
    }

    fn keys(&self) -> Vec<Vec<u8>> {
        StorageNode::keys(self)
    }

    fn read(&self, keys: &[&[u8]]) -> Option<Vec<Option<Bytes>>> {
        self.get_many(keys).ok()
    }

    fn write(&self, entries: &[(&[u8], Bytes)]) -> usize {
        self.put_many(entries).map_or(0, |()| entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::PageStore;

    fn node(id: u64) -> StorageNode {
        StorageNode::new(DhtNodeId(id), NodeId(0))
    }

    #[test]
    fn put_get_remove() {
        let n = node(1);
        assert_eq!(n.id(), DhtNodeId(1));
        assert!(n.is_empty());
        n.put(b"a", Bytes::from_static(b"1")).unwrap();
        n.put(b"b", Bytes::from_static(b"22")).unwrap();
        assert_eq!(n.len(), 2);
        assert_eq!(n.data_bytes(), 3);
        assert_eq!(n.get(b"a").unwrap().unwrap(), Bytes::from_static(b"1"));
        assert!(n.remove(b"a").unwrap());
        assert!(!n.remove(b"a").unwrap());
        assert_eq!(n.data_bytes(), 2);
    }

    #[test]
    fn a_batch_is_one_handled_message_and_is_refused_whole_when_dead() {
        let n = node(1);
        let entries: Vec<(Vec<u8>, Bytes)> = (0..10u8)
            .map(|i| (vec![i], Bytes::from(vec![i; 3])))
            .collect();
        let keys: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i]).collect();
        n.put_many(&entries).unwrap();
        let got = n.get_many(&keys).unwrap();
        assert_eq!(got.len(), 12);
        assert_eq!(got[3].as_ref().unwrap(), &Bytes::from(vec![3u8; 3]));
        assert!(got[10].is_none() && got[11].is_none());
        assert_eq!(n.data_bytes(), 30);
        assert_eq!(n.remove_many(&keys[5..]), Ok(5));
        assert_eq!(n.data_bytes(), 15);
        assert_eq!(n.batches_handled(), 3);
        n.kill();
        assert_eq!(n.get_many(&keys), Err(NodeDown));
        assert_eq!(n.remove_many(&keys), Err(NodeDown));
        assert_eq!(n.len(), 5, "a refused batch changes nothing");
        assert_eq!(n.batches_handled(), 5, "refused batches were still handled");
    }

    #[test]
    fn a_kill_refuses_the_metadata_and_the_pages_together() {
        let n = node(4);
        n.put(b"m", Bytes::from_static(b"tree-node")).unwrap();
        n.serve_pages(|pages| pages.put(b"p", Bytes::from_static(b"page")))
            .unwrap()
            .unwrap();
        assert_eq!(n.batches_handled(), 2, "one counter for both stores");
        n.kill();
        assert_eq!(n.get(b"m"), Err(NodeDown));
        assert!(n.serve_pages(|pages| pages.get(b"p")).is_err());
        assert_eq!(n.batches_handled(), 4);
        // Each store's disk still holds its own data, counted apart.
        assert_eq!((n.len(), n.data_bytes()), (1, 9));
        assert_eq!(n.page_store().len(), 1);
        assert_eq!(n.page_store().data_bytes(), 4);
    }

    #[test]
    fn overwrite_updates_byte_count() {
        let n = node(1);
        n.put(b"k", Bytes::from_static(b"0123456789")).unwrap();
        n.put(b"k", Bytes::from_static(b"xy")).unwrap();
        assert_eq!(n.data_bytes(), 2);
        n.put(b"k", Bytes::from_static(b"0123")).unwrap();
        assert_eq!(n.data_bytes(), 4);
    }

    #[test]
    fn kill_and_revive_preserve_data() {
        let n = node(1);
        n.put(b"k", Bytes::from_static(b"v")).unwrap();
        assert!(n.ping());
        n.kill();
        assert!(!n.ping());
        // Data survives the "crash" (models durable storage).
        n.revive();
        assert!(n.ping());
        assert_eq!(n.get(b"k").unwrap().unwrap(), Bytes::from_static(b"v"));
    }

    #[test]
    fn dead_node_refuses_data_ops_but_serves_admin_ops() {
        let n = node(2);
        n.put(b"k", Bytes::from_static(b"v")).unwrap();
        n.kill();
        // Data plane: refused, like a connection error to a crashed peer.
        assert_eq!(n.put(b"k2", Bytes::from_static(b"w")), Err(NodeDown));
        assert_eq!(n.get(b"k"), Err(NodeDown));
        assert_eq!(n.remove(b"k"), Err(NodeDown));
        assert!(!n.ping());
        // Administrative plane: the persistent state stays inspectable.
        assert_eq!(n.len(), 1);
        assert_eq!(n.keys().len(), 1);
        assert_eq!(n.data_bytes(), 1);
    }

    #[test]
    fn ping_reports_liveness_transitions() {
        let n = node(3);
        assert!(n.ping());
        n.kill();
        assert!(!n.ping());
        n.revive();
        assert!(n.ping());
    }

    #[test]
    fn keys_snapshot() {
        let n = node(1);
        for i in 0..10u8 {
            n.put(&[i], Bytes::from(vec![i; 4])).unwrap();
        }
        let mut keys = n.keys();
        keys.sort();
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[3], vec![3u8]);
    }
}
