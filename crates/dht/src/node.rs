//! A single metadata provider node.
//!
//! Each node owns a key-value map plus a liveness flag. The `Dht` front-end
//! decides *which* nodes a key lives on; the node itself only stores and
//! serves.
//!
//! The map lives single-threaded inside a message-loop actor
//! ([`miniexec::actor`]); the `DhtNode` the rest of the system holds is a
//! thin handle that enqueues commands and waits for replies. No shared
//! locks, and mailbox FIFO gives kill-then-put ordering: a `put` enqueued
//! after a `kill` observes the dead state.
//!
//! **Failure model.** A dead node *refuses* data operations — `put`, `get`
//! and `remove` return [`NodeDown`], exactly what a remote peer would
//! observe as a connection error. Callers are expected to discover death
//! this way (or via [`DhtNode::ping`] heartbeats) rather than trust any
//! shared flag. The administrative surface (`len`, `entries`, `data_bytes`)
//! keeps working while dead: it models reading the node's persistent state,
//! which is how a revive restores from "disk" and how tests inspect a
//! crashed node. The only shared state is a read-only mirror of the
//! liveness flag ([`DhtNode::is_alive`]) kept as a cheap *hint* for
//! replica-ordering and stats; correctness never depends on it being fresh.

use bytes::Bytes;
use miniexec::{actor, oneshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of a DHT node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DhtNodeId(pub u64);

/// A data operation reached a node that is not serving (crashed, or its
/// actor is gone). The caller should fail over to another replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDown;

/// Result of a data operation against one node.
pub type NodeResult<T> = Result<T, NodeDown>;

/// Commands understood by the node actor. The data plane is batch-shaped:
/// one message carries every key (or entry) the sender has for this node,
/// so one exchange charged on the wire is one mailbox message here. A
/// single-key operation is a batch of one.
enum NodeMsg {
    PutMany {
        entries: Vec<(Vec<u8>, Bytes)>,
        reply: oneshot::Sender<NodeResult<()>>,
    },
    GetMany {
        keys: Vec<Vec<u8>>,
        reply: oneshot::Sender<NodeResult<Vec<Option<Bytes>>>>,
    },
    /// Replies with how many of the keys were present.
    RemoveMany {
        keys: Vec<Vec<u8>>,
        reply: oneshot::Sender<NodeResult<usize>>,
    },
    /// Heartbeat probe: replies `true` iff the node is serving. A crashed
    /// node still answers (the actor thread is the simulation substrate,
    /// not the simulated process) but answers `false`; an actor whose
    /// mailbox is gone never answers — both count as a missed heartbeat.
    Ping(oneshot::Sender<bool>),
    Len(oneshot::Sender<usize>),
    Entries(oneshot::Sender<Vec<(Vec<u8>, Bytes)>>),
    Kill(oneshot::Sender<()>),
    Revive(oneshot::Sender<()>),
}

/// The actor's single-threaded state: plain fields, no locks.
struct NodeState {
    data: HashMap<Vec<u8>, Bytes>,
    alive: bool,
    /// Mirrors shared with the handle so hot-path reads stay lock-free.
    alive_mirror: Arc<AtomicBool>,
    bytes_mirror: Arc<AtomicU64>,
    batches_mirror: Arc<AtomicU64>,
}

impl NodeState {
    fn handle(&mut self, msg: NodeMsg) {
        match msg {
            NodeMsg::PutMany { entries, reply } => {
                let _ = reply.send(self.serve(|state| {
                    for (key, value) in entries {
                        state
                            .bytes_mirror
                            .fetch_add(value.len() as u64, Ordering::Relaxed);
                        let old = state.data.insert(key, value);
                        state.forget(old);
                    }
                }));
            }
            NodeMsg::GetMany { keys, reply } => {
                let _ = reply.send(
                    self.serve(|state| keys.iter().map(|k| state.data.get(k).cloned()).collect()),
                );
            }
            NodeMsg::RemoveMany { keys, reply } => {
                let _ = reply.send(self.serve(|state| {
                    let mut removed = 0;
                    for key in &keys {
                        let old = state.data.remove(key);
                        removed += usize::from(old.is_some());
                        state.forget(old);
                    }
                    removed
                }));
            }
            NodeMsg::Ping(reply) => {
                let _ = reply.send(self.alive);
            }
            NodeMsg::Len(reply) => {
                let _ = reply.send(self.data.len());
            }
            NodeMsg::Entries(reply) => {
                let entries = self
                    .data
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                let _ = reply.send(entries);
            }
            NodeMsg::Kill(done) => {
                self.alive = false;
                self.alive_mirror.store(false, Ordering::Release);
                let _ = done.send(());
            }
            NodeMsg::Revive(done) => {
                self.alive = true;
                self.alive_mirror.store(true, Ordering::Release);
                let _ = done.send(());
            }
        }
    }

    /// Run one data-plane batch: counted as handled, refused whole when the
    /// node is dead (one liveness check covers the batch).
    fn serve<T>(&mut self, batch: impl FnOnce(&mut Self) -> T) -> NodeResult<T> {
        self.batches_mirror.fetch_add(1, Ordering::Relaxed);
        if self.alive {
            Ok(batch(self))
        } else {
            Err(NodeDown)
        }
    }

    /// Take a replaced or removed value out of the stored-bytes mirror.
    fn forget(&mut self, old: Option<Bytes>) {
        if let Some(old) = old {
            self.bytes_mirror
                .fetch_sub(old.len() as u64, Ordering::Relaxed);
        }
    }
}

/// A batch already posted to a node's mailbox: the node works on it while
/// the caller posts to other nodes, and [`Pending::wait`] collects the
/// reply. A node whose actor is gone (reply dropped) reads as [`NodeDown`].
#[must_use = "the batch is in flight; wait for its reply"]
pub struct Pending<T>(oneshot::Receiver<NodeResult<T>>);

impl<T> Pending<T> {
    /// Block for the node's reply.
    pub fn wait(self) -> NodeResult<T> {
        self.0.recv().unwrap_or(Err(NodeDown))
    }
}

/// One metadata provider: stores key-value pairs and can be killed/revived
/// for failure-injection experiments.
pub struct DhtNode {
    id: DhtNodeId,
    inner: actor::Handle<NodeMsg>,
    alive: Arc<AtomicBool>,
    data_bytes: Arc<AtomicU64>,
    batches: Arc<AtomicU64>,
}

impl DhtNode {
    /// Create a live, empty node.
    pub fn new(id: DhtNodeId) -> Self {
        let alive = Arc::new(AtomicBool::new(true));
        let data_bytes = Arc::new(AtomicU64::new(0));
        let batches = Arc::new(AtomicU64::new(0));
        let state = NodeState {
            data: HashMap::new(),
            alive: true,
            alive_mirror: Arc::clone(&alive),
            bytes_mirror: Arc::clone(&data_bytes),
            batches_mirror: Arc::clone(&batches),
        };
        let inner = actor::spawn(&format!("dht-node-{}", id.0), state, NodeState::handle);
        DhtNode {
            id,
            inner,
            alive,
            data_bytes,
            batches,
        }
    }

    /// This node's id.
    pub fn id(&self) -> DhtNodeId {
        self.id
    }

    /// Post one batch of writes (each replaces any existing value for its
    /// key). A dead node refuses the whole batch.
    pub fn post_put_many(&self, entries: Vec<(Vec<u8>, Bytes)>) -> Pending<()> {
        Pending(
            self.inner
                .request(|reply| NodeMsg::PutMany { entries, reply }),
        )
    }

    /// Post one batch of reads; the reply holds one slot per key, in order.
    /// A dead node refuses the whole batch (it does *not* answer "missing":
    /// the caller must fail over, not conclude absence).
    pub fn post_get_many(&self, keys: Vec<Vec<u8>>) -> Pending<Vec<Option<Bytes>>> {
        Pending(self.inner.request(|reply| NodeMsg::GetMany { keys, reply }))
    }

    /// [`DhtNode::post_put_many`], then wait for the reply.
    pub fn put_many(&self, entries: Vec<(Vec<u8>, Bytes)>) -> NodeResult<()> {
        self.post_put_many(entries).wait()
    }

    /// [`DhtNode::post_get_many`], then wait for the reply.
    pub fn get_many(&self, keys: Vec<Vec<u8>>) -> NodeResult<Vec<Option<Bytes>>> {
        self.post_get_many(keys).wait()
    }

    /// Remove a batch of keys in one message; returns how many were present.
    /// Refused when dead.
    pub fn remove_many(&self, keys: Vec<Vec<u8>>) -> NodeResult<usize> {
        self.inner
            .call(|reply| NodeMsg::RemoveMany { keys, reply })
            .unwrap_or(Err(NodeDown))
    }

    /// Store a value (replaces any existing value for the key). A dead node
    /// refuses the write.
    pub fn put(&self, key: &[u8], value: Bytes) -> NodeResult<()> {
        self.put_many(vec![(key.to_vec(), value)])
    }

    /// Fetch a value. A dead node refuses the read.
    pub fn get(&self, key: &[u8]) -> NodeResult<Option<Bytes>> {
        let slots = self.get_many(vec![key.to_vec()])?;
        Ok(slots.into_iter().next().flatten())
    }

    /// Remove a value; returns whether one was present. Refused when dead.
    pub fn remove(&self, key: &[u8]) -> NodeResult<bool> {
        Ok(self.remove_many(vec![key.to_vec()])? == 1)
    }

    /// Data-plane batches this node has handled (served or refused) since
    /// it was created.
    pub fn batches_handled(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Heartbeat probe: true iff the node answered and is serving.
    pub fn ping(&self) -> bool {
        self.inner.call(NodeMsg::Ping).unwrap_or(false)
    }

    /// Number of keys stored (administrative; works while dead).
    pub fn len(&self) -> usize {
        self.inner.call(NodeMsg::Len).unwrap_or(0)
    }

    /// True when the node stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of values stored.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of all entries (administrative: used by rebalancing, repair
    /// and revive; works while dead, modelling a read of persistent state).
    pub fn entries(&self) -> Vec<(Vec<u8>, Bytes)> {
        self.inner.call(NodeMsg::Entries).unwrap_or_default()
    }

    /// Last-known liveness, from the shared mirror. A cheap *hint* used to
    /// order replica attempts and compute stats; the data path discovers
    /// actual death by an operation returning [`NodeDown`].
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Simulate a crash: the node stops serving but keeps its data (so a
    /// revive models a restart from persistent storage). Serialized through
    /// the mailbox, so a `put` enqueued after the kill observes the dead
    /// state.
    pub fn kill(&self) {
        let _ = self.inner.call(NodeMsg::Kill);
    }

    /// Bring the node back.
    pub fn revive(&self) {
        let _ = self.inner.call(NodeMsg::Revive);
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
        // Posted first, collected later: the reply waits in the channel.
        let put = n.post_put_many(entries);
        let got = n.post_get_many(keys.clone());
        put.wait().unwrap();
        let got = got.wait().unwrap();
        assert_eq!(got.len(), 12);
        assert_eq!(got[3].as_ref().unwrap(), &Bytes::from(vec![3u8; 3]));
        assert!(got[10].is_none() && got[11].is_none());
        assert_eq!(n.data_bytes(), 30);
        assert_eq!(n.remove_many(keys[5..].to_vec()), Ok(5));
        assert_eq!(n.data_bytes(), 15);
        assert_eq!(n.batches_handled(), 3);
        n.kill();
        assert_eq!(n.post_get_many(keys.clone()).wait(), Err(NodeDown));
        assert_eq!(n.remove_many(keys), Err(NodeDown));
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
        assert!(n.is_alive());
        n.kill();
        assert!(!n.is_alive());
        // Data survives the "crash" (models durable storage).
        n.revive();
        assert!(n.is_alive());
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
        assert_eq!(n.entries().len(), 1);
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
    fn entries_snapshot() {
        let n = DhtNode::new(DhtNodeId(1));
        for i in 0..10u8 {
            n.put(&[i], Bytes::from(vec![i; 4])).unwrap();
        }
        let mut entries = n.entries();
        entries.sort();
        assert_eq!(entries.len(), 10);
        assert_eq!(entries[3].0, vec![3u8]);
    }

    #[test]
    fn dropping_the_node_shuts_the_actor_down_without_hanging() {
        let n = DhtNode::new(DhtNodeId(9));
        n.put(b"k", Bytes::from_static(b"v")).unwrap();
        drop(n); // handle drop disconnects the mailbox; the loop exits
    }
}
