//! A single metadata provider node.
//!
//! Each node owns a key-value map plus a liveness flag. The `Dht` front-end
//! decides *which* nodes a key lives on; the node itself only stores and
//! serves.
//!
//! A call is a call: every method takes the node's one lock, serves on the
//! caller's thread and returns. The lock is held only for the map work
//! itself, never across a call into another component, so it is always the
//! innermost lock. Kill-then-put ordering is lock order: a `put` that starts
//! after `kill` returns observes the dead state.
//!
//! **Failure model.** A dead node *refuses* data operations — `put`, `get`
//! and `remove` return [`NodeDown`], exactly what a remote peer would
//! observe as a connection error. Callers are expected to discover death
//! this way (or via [`DhtNode::ping`] heartbeats) rather than trust any
//! shared flag. The administrative surface (`len`, `keys`, `data_bytes`)
//! keeps working while dead: it models reading the node's persistent state,
//! which is how tests and the footprint counters inspect a crashed node.

use bytes::Bytes;
use kvstore::FastMap;
use parking_lot::Mutex;
use simcluster::replica::Member;

/// Identity of a DHT node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DhtNodeId(pub u64);

/// A data operation reached a node that is not serving (crashed). The
/// caller should fail over to another replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDown;

/// Result of a data operation against one node.
pub type NodeResult<T> = Result<T, NodeDown>;

/// Everything a node knows, behind its one lock.
struct NodeState {
    data: FastMap<Vec<u8>, Bytes>,
    alive: bool,
    /// Bytes of values stored.
    data_bytes: u64,
    /// Data-plane batches handled, served or refused.
    batches: u64,
}

impl NodeState {
    /// Run one data-plane batch: counted as handled, refused whole when the
    /// node is dead (one liveness check covers the batch).
    fn serve<T>(&mut self, batch: impl FnOnce(&mut Self) -> T) -> NodeResult<T> {
        self.batches += 1;
        if self.alive {
            Ok(batch(self))
        } else {
            Err(NodeDown)
        }
    }

    /// Take a replaced or removed value out of the stored-bytes count.
    fn forget(&mut self, old: Option<Bytes>) {
        if let Some(old) = old {
            self.data_bytes -= old.len() as u64;
        }
    }
}

/// One metadata provider: stores key-value pairs and can be killed/revived
/// for failure-injection experiments. The data plane is batch-shaped: one
/// call carries every key (or entry) the caller has for this node, so one
/// exchange charged on the wire is one served batch here. A single-key
/// operation is a batch of one. A batch borrows its keys: the node copies a
/// key only to store it under a key it does not hold yet.
pub struct DhtNode {
    id: DhtNodeId,
    state: Mutex<NodeState>,
}

impl DhtNode {
    /// Create a live, empty node.
    pub fn new(id: DhtNodeId) -> Self {
        DhtNode {
            id,
            state: Mutex::new(NodeState {
                data: FastMap::default(),
                alive: true,
                data_bytes: 0,
                batches: 0,
            }),
        }
    }

    /// This node's id.
    pub fn id(&self) -> DhtNodeId {
        self.id
    }

    /// Store one batch of entries (each replaces any existing value for its
    /// key). A dead node refuses the whole batch.
    pub fn put_many<K: AsRef<[u8]>>(&self, entries: &[(K, Bytes)]) -> NodeResult<()> {
        self.state.lock().serve(|state| {
            for (key, value) in entries {
                let key = key.as_ref();
                state.data_bytes += value.len() as u64;
                let old = match state.data.get_mut(key) {
                    Some(slot) => Some(std::mem::replace(slot, value.clone())),
                    None => state.data.insert(key.to_vec(), value.clone()),
                };
                state.forget(old);
            }
        })
    }

    /// Read one batch of keys; the reply holds one slot per key, in order.
    /// A dead node refuses the whole batch (it does *not* answer "missing":
    /// the caller must fail over, not conclude absence).
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> NodeResult<Vec<Option<Bytes>>> {
        self.state.lock().serve(|state| {
            keys.iter()
                .map(|k| state.data.get(k.as_ref()).cloned())
                .collect()
        })
    }

    /// Remove a batch of keys; the reply holds one slot per key, in order,
    /// `true` where a value was present. Refused when dead.
    pub fn remove_each<K: AsRef<[u8]>>(&self, keys: &[K]) -> NodeResult<Vec<bool>> {
        self.state.lock().serve(|state| {
            keys.iter()
                .map(|key| {
                    let old = state.data.remove(key.as_ref());
                    let present = old.is_some();
                    state.forget(old);
                    present
                })
                .collect()
        })
    }

    /// Remove a batch of keys; returns how many were present. Refused when
    /// dead.
    pub fn remove_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> NodeResult<usize> {
        Ok(self.remove_each(keys)?.into_iter().filter(|r| *r).count())
    }

    /// Store a value (replaces any existing value for the key). A dead node
    /// refuses the write.
    pub fn put(&self, key: &[u8], value: Bytes) -> NodeResult<()> {
        self.put_many(&[(key, value)])
    }

    /// Fetch a value. A dead node refuses the read.
    pub fn get(&self, key: &[u8]) -> NodeResult<Option<Bytes>> {
        let slots = self.get_many(&[key])?;
        Ok(slots.into_iter().next().flatten())
    }

    /// Remove a value; returns whether one was present. Refused when dead.
    pub fn remove(&self, key: &[u8]) -> NodeResult<bool> {
        Ok(self.remove_each(&[key])?.contains(&true))
    }

    /// Data-plane batches this node has handled (served or refused) since
    /// it was created.
    pub fn batches_handled(&self) -> u64 {
        self.state.lock().batches
    }

    /// Heartbeat probe: true iff the node is serving. Reads the same flag
    /// every data operation checks, so it agrees with the last `kill` or
    /// `revive` that returned.
    pub fn ping(&self) -> bool {
        self.state.lock().alive
    }

    /// Number of keys stored (administrative; works while dead).
    pub fn len(&self) -> usize {
        self.state.lock().data.len()
    }

    /// True when the node stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of values stored.
    pub fn data_bytes(&self) -> u64 {
        self.state.lock().data_bytes
    }

    /// Every key stored (administrative: used by repair; works while dead,
    /// modelling a read of persistent state).
    pub fn keys(&self) -> Vec<Vec<u8>> {
        self.state.lock().data.keys().cloned().collect()
    }

    /// Simulate a crash: the node stops serving but keeps its data (so a
    /// revive models a restart from persistent storage). Every operation
    /// that starts after this returns observes the dead state.
    pub fn kill(&self) {
        self.state.lock().alive = false;
    }

    /// Bring the node back: a flag flip for failure-injection tests on a
    /// bare node. A [`crate::Dht`] never revives its members.
    pub fn revive(&self) {
        self.state.lock().alive = true;
    }
}

/// A DHT node as the repair loop sees it: the listing is administrative,
/// the copy reads and writes are data-plane batches.
impl Member for DhtNode {
    type Id = DhtNodeId;
    type Value = Bytes;

    fn id(&self) -> DhtNodeId {
        self.id
    }

    fn ping(&self) -> bool {
        DhtNode::ping(self)
    }

    fn keys(&self) -> Vec<Vec<u8>> {
        DhtNode::keys(self)
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

    #[test]
    fn put_get_remove() {
        let n = DhtNode::new(DhtNodeId(1));
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
        let n = DhtNode::new(DhtNodeId(1));
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
    fn overwrite_updates_byte_count() {
        let n = DhtNode::new(DhtNodeId(1));
        n.put(b"k", Bytes::from_static(b"0123456789")).unwrap();
        n.put(b"k", Bytes::from_static(b"xy")).unwrap();
        assert_eq!(n.data_bytes(), 2);
        n.put(b"k", Bytes::from_static(b"0123")).unwrap();
        assert_eq!(n.data_bytes(), 4);
    }

    #[test]
    fn kill_and_revive_preserve_data() {
        let n = DhtNode::new(DhtNodeId(1));
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
        let n = DhtNode::new(DhtNodeId(2));
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
        let n = DhtNode::new(DhtNodeId(3));
        assert!(n.ping());
        n.kill();
        assert!(!n.ping());
        n.revive();
        assert!(n.ping());
    }

    #[test]
    fn keys_snapshot() {
        let n = DhtNode::new(DhtNodeId(1));
        for i in 0..10u8 {
            n.put(&[i], Bytes::from(vec![i; 4])).unwrap();
        }
        let mut keys = n.keys();
        keys.sort();
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[3], vec![3u8]);
    }
}
