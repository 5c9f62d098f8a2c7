//! # dht — the metadata providers' distributed hash table
//!
//! BlobSeer keeps the information about which provider stores each page of
//! each blob version "in a Distributed HashTable, managed by several metadata
//! providers" (paper §III-A). This crate implements that substrate:
//!
//! * [`ring::HashRing`] — consistent hashing with virtual nodes, so that keys
//!   spread evenly and adding/removing a metadata provider only moves a small
//!   fraction of the keys;
//! * [`node::StorageNode`] — one machine's storage server: the metadata
//!   map this crate places and the page store the page tier places, behind
//!   one liveness flag for failure injection, served on the caller's
//!   thread;
//! * [`Dht`] — the client view: replicated `put`/`get`/`remove` across the
//!   ring, fail-over on dead replicas, node join and kill, and the
//!   churn-tolerance layer: an active re-replication pass ([`Dht::repair`],
//!   the shared [`simcluster::replica`] loop) whose probe is the heartbeat
//!   round of the tier's failure detector, and which restores the
//!   replication factor after unannounced deaths. A join runs the same pass
//!   before it returns, so a joined node holds its share at once.
//!
//! A standalone DHT ([`Dht::new`]) builds its own nodes. A BlobSeer
//! deployment builds its ring over its machines instead
//! ([`Dht::with_nodes`]): each [`StorageNode`] is both a ring member and its
//! machine's page store, which the page tier places and serves, so killing
//! a node takes out the machine's metadata and its pages together.
//!
//! The DHT is *in-process*: nodes are objects, not sockets. This is
//! deliberate — the paper's experiments never stress the metadata network
//! path (metadata records are tiny compared to 64 MB data blocks); what
//! matters is the concurrency behaviour (many clients publishing segment-tree
//! nodes at once) and the decentralised failure model, both of which are
//! preserved.
//!
//! ## Failure model
//!
//! A dead node *refuses* operations rather than being skipped by fiat: the
//! front-end attempts a replica and discovers the death when the attempt
//! returns [`node::NodeDown`], exactly as a remote client discovers a crashed
//! peer by a failed RPC. Writes walk clockwise past refused replicas until
//! the replication factor is met (or at least one copy lands); reads fail
//! over the same way. The [`simcluster::detector::FailureDetector`] attached
//! via [`Dht::health`] turns missed heartbeats (repair's probes) and refused
//! operations into suspicion on a deterministic clock, and [`Dht::repair`]
//! re-replicates every under-replicated key onto its first live successors
//! — so churn (kills and joins) converges back to full replication.
//!
//! A killed node stays dead: nothing brings a member of a [`Dht`] back, and
//! a join places its keys before it returns. So between operations every
//! live copy of a key sits on the key's first `replication` live
//! successors: writes fail over to exactly those, a kill only shrinks the
//! set of holders, and a join's placement pass moves copies onto the new
//! node and drops the ones it displaced. A remove that reaches those
//! successors therefore reaches every live copy, and no marker of a removed
//! key is kept.
//!
//! ```
//! use dht::{Dht, DhtConfig};
//! use bytes::Bytes;
//!
//! let dht = Dht::new(DhtConfig { nodes: 4, replication: 2, ..Default::default() });
//! dht.put(b"blob-1/v3/root", Bytes::from_static(b"tree-node")).unwrap();
//! assert_eq!(dht.get(b"blob-1/v3/root").unwrap(), Bytes::from_static(b"tree-node"));
//! ```

pub mod node;
pub mod ring;

pub use node::{DhtNodeId, NodeDown, NodeResult, StorageNode};
pub use ring::HashRing;

use bytes::Bytes;
use kvstore::{FastMap, FastSet};
use parking_lot::RwLock;
use simcluster::replica::{Inventory, Placement, RepairReport, ReplicaHealth};
use simcluster::topology::NodeId;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use wire::{Direction, Transport, MSG_OVERHEAD};

/// Errors surfaced by DHT operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhtError {
    /// No replica holding the key could be reached (all dead or none had it).
    NotFound { key: String },
    /// Fewer live nodes than the replication factor; the operation could not
    /// reach its durability target.
    NotEnoughReplicas { wanted: usize, available: usize },
    /// The DHT has no nodes at all.
    Empty,
    /// The referenced node id does not exist.
    UnknownNode(DhtNodeId),
}

impl fmt::Display for DhtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DhtError::NotFound { key } => write!(f, "key not found in DHT: {key}"),
            DhtError::NotEnoughReplicas { wanted, available } => {
                write!(
                    f,
                    "not enough live replicas: wanted {wanted}, available {available}"
                )
            }
            DhtError::Empty => write!(f, "the DHT has no nodes"),
            DhtError::UnknownNode(id) => write!(f, "unknown DHT node {id:?}"),
        }
    }
}

impl std::error::Error for DhtError {}

/// Result alias for DHT operations.
pub type DhtResult<T> = Result<T, DhtError>;

/// Configuration of a [`Dht`].
#[derive(Debug, Clone)]
pub struct DhtConfig {
    /// Number of metadata provider nodes to create initially.
    pub nodes: usize,
    /// Number of replicas kept for every key (1 = no redundancy).
    pub replication: usize,
    /// Virtual nodes per physical node on the hash ring.
    pub virtual_nodes: usize,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            nodes: 4,
            replication: 2,
            virtual_nodes: 64,
        }
    }
}

/// Aggregate statistics over the DHT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DhtStats {
    /// Number of nodes (live and dead).
    pub nodes: usize,
    /// Number of live nodes.
    pub live_nodes: usize,
    /// Total key replicas stored across all nodes, dead ones included: a
    /// killed node's disk keeps the copies it held when it died.
    pub total_entries: usize,
    /// Total bytes stored across all nodes (counting replication, dead
    /// nodes included).
    pub total_bytes: u64,
    /// Keys still below the replication factor after the most recent
    /// [`Dht::repair`] pass (0 until a repair has run).
    pub under_replicated: usize,
    /// Repair passes completed.
    pub repair_runs: u64,
    /// Replica copies created by repair passes (cumulative).
    pub repaired_entries: u64,
    /// Node failures discovered by the heartbeat detector (0 when no
    /// detector is attached). In a BlobSeer deployment the detector is the
    /// machines' one detector, which the page tier feeds too.
    pub failures_detected: u64,
    /// Nodes the detector currently suspects dead.
    pub suspected_nodes: usize,
    /// Data-plane batches the nodes have handled (served or refused),
    /// summed over every member, page-store batches included (a
    /// [`StorageNode`] counts both stores' batches on one counter). Over
    /// metadata traffic alone one charged client exchange is one batch,
    /// so client traffic advances this in step with [`Dht::round_trips`];
    /// the placement passes ([`Dht::repair`], and the one each
    /// [`Dht::join`] runs) add uncharged batches of their own.
    pub node_batches: u64,
}

struct DhtInner {
    ring: HashRing,
    nodes: FastMap<DhtNodeId, Arc<StorageNode>>,
    replication: usize,
    virtual_nodes: usize,
}

/// The transport attachment for a [`Dht`]: which wire its exchanges are
/// charged on. An exchange goes to its node's [`StorageNode::host`].
struct DhtWire {
    transport: Arc<dyn Transport>,
    /// Fallback source node for exchanges issued from threads that did not
    /// pin one via [`wire::source_guard`].
    home: NodeId,
}

/// The exchanges of one batch round (see [`Dht::round`]): each is recorded
/// as it is served and charged on the wire as part of one
/// [`wire::Round`], closed when this drops.
struct BatchRound<'a> {
    dht: &'a Dht,
    wire: Option<(Arc<dyn Transport>, wire::Round)>,
}

impl BatchRound<'_> {
    fn charge(&mut self, node: &StorageNode, dir: Direction, bytes_out: u64, bytes_in: u64) {
        self.dht.counters.record(dir, bytes_out, bytes_in);
        if let Some((transport, round)) = self.wire.as_mut() {
            transport.exchange_in(round, node.host(), dir, bytes_out, bytes_in);
        }
    }
}

impl Drop for BatchRound<'_> {
    fn drop(&mut self) {
        if let Some((transport, round)) = &self.wire {
            transport.end_round(round);
        }
    }
}

/// The distributed hash table used by BlobSeer's metadata layer.
///
/// All methods are safe to call from many threads concurrently; the ring is
/// only write-locked by [`Dht::join`] and [`Dht::repair`], never by data
/// operations.
///
/// Members join and die; none comes back. A `Dht` hands out no node
/// handle, and a deployment that holds its machines' nodes never revives
/// one ([`StorageNode::revive`] is a flag flip for tests on bare nodes): a
/// kill is final, and the node's copies stay on its disk (counted by
/// [`DhtStats::total_entries`] and [`Dht::key_copies`]) but never serve
/// again.
///
/// Besides per-key `put`/`get`, the DHT offers [`Dht::put_many`] and
/// [`Dht::get_many`] batch operations that group keys by responsible node
/// under a single ring read-lock pass, contacting each node once — one
/// "round trip" — instead of once per key. The [`Dht::round_trips`] counter
/// tracks node contacts across all operations, which is what the bench
/// harness uses to report metadata round trips per committed version.
///
/// **One charged exchange is one served batch.** A node group travels as a
/// single batch call to its node, and a batch operation visits its nodes one
/// after another in node-id order, charging each exchange as it is served.
/// The groups of one round (a put's or remove's groups, one rank of a
/// get's) are sent together: an attached wire charges them as one
/// [`wire::Round`], so a lookup level costs its slowest node's exchange,
/// not one exchange per node in turn.
pub struct Dht {
    inner: RwLock<DhtInner>,
    /// The failure detector slot and repair counters. The detector is
    /// optional: a bare DHT (unit tests, benches that do not exercise
    /// churn) runs without one.
    health: ReplicaHealth<DhtNodeId>,
    /// Client-to-node exchanges performed (one per node contacted, for both
    /// single-key and batch operations), with bytes per direction. Repair and
    /// heartbeat traffic is control-plane and intentionally *not* counted
    /// here. The legacy `round_trips` accessors read from this set.
    counters: wire::Counters,
    /// When attached, every client-to-node exchange is also charged on this
    /// transport (simulated latency + bandwidth). `None` keeps the historic
    /// free-wire behavior.
    wire: RwLock<Option<DhtWire>>,
}

impl Dht {
    /// Build a DHT over `config.nodes` fresh nodes, node `i` on cluster
    /// node `i`.
    pub fn new(config: DhtConfig) -> Self {
        let hosts: Vec<NodeId> = (0..config.nodes as u32).map(NodeId).collect();
        Self::with_nodes(
            StorageNode::fleet(&hosts),
            config.replication,
            config.virtual_nodes,
        )
    }

    /// Build a DHT whose ring is exactly `nodes`: the machines of a
    /// deployment, whose page stores another tier places.
    pub fn with_nodes(
        nodes: Vec<Arc<StorageNode>>,
        replication: usize,
        virtual_nodes: usize,
    ) -> Self {
        assert!(replication >= 1, "replication factor must be at least 1");
        let mut inner = DhtInner {
            ring: HashRing::new(virtual_nodes),
            nodes: FastMap::default(),
            replication,
            virtual_nodes,
        };
        inner.ring.add_nodes(nodes.iter().map(|node| node.id()));
        inner
            .nodes
            .extend(nodes.into_iter().map(|node| (node.id(), node)));
        Dht {
            inner: RwLock::new(inner),
            health: ReplicaHealth::default(),
            counters: wire::Counters::new(),
            wire: RwLock::new(None),
        }
    }

    /// Number of client-to-node exchanges performed so far (reads and
    /// writes). Batch operations contact each responsible node once
    /// regardless of how many of the batch keys it holds, so this counter is
    /// what shrinks when callers batch.
    pub fn round_trips(&self) -> u64 {
        self.counters.messages()
    }

    /// The write-side subset of [`Dht::round_trips`] (put/put_many/remove):
    /// the like-for-like figure to compare against one-put-per-key traffic.
    pub fn write_round_trips(&self) -> u64 {
        self.counters.write_messages()
    }

    /// The read-side subset of [`Dht::round_trips`] (get/get_many): the
    /// like-for-like figure to compare against one-get-per-key traffic.
    pub fn read_round_trips(&self) -> u64 {
        self.counters.read_messages()
    }

    /// The full wire accounting for this DHT's client-to-node traffic
    /// (messages and bytes per direction, in the shared schema).
    pub fn wire_counters(&self) -> &wire::Counters {
        &self.counters
    }

    /// Charge every future client-to-node exchange on `transport`, to the
    /// node's [`StorageNode::host`]. Exchanges issued from a thread without
    /// a [`wire::source_guard`] are charged as coming from `home`.
    pub fn attach_wire(&self, transport: Arc<dyn Transport>, home: NodeId) {
        *self.wire.write() = Some(DhtWire { transport, home });
    }

    /// Record one exchange with `node` and, when a wire is attached, charge
    /// its simulated cost.
    fn charge(&self, node: &StorageNode, dir: Direction, bytes_out: u64, bytes_in: u64) {
        self.counters.record(dir, bytes_out, bytes_in);
        if let Some(w) = self.wire.read().as_ref() {
            let src = wire::current_source().unwrap_or(w.home);
            w.transport
                .exchange(src, node.host(), dir, bytes_out, bytes_in);
        }
    }

    /// Open one round of a batch operation: its node groups go out
    /// together, so an attached wire charges the round its slowest
    /// exchange rather than their sum.
    fn round(&self) -> BatchRound<'_> {
        let wire = self.wire.read().as_ref().map(|w| {
            let src = wire::current_source().unwrap_or(w.home);
            (Arc::clone(&w.transport), wire::Round::new(src))
        });
        BatchRound { dht: self, wire }
    }

    fn charge_read(&self, node: &StorageNode, bytes_out: u64, bytes_in: u64) {
        self.charge(node, Direction::Read, bytes_out, bytes_in);
    }

    fn charge_write(&self, node: &StorageNode, bytes_out: u64, bytes_in: u64) {
        self.charge(node, Direction::Write, bytes_out, bytes_in);
    }

    /// The replication factor this DHT was configured with.
    pub fn replication(&self) -> usize {
        self.inner.read().replication
    }

    /// Ids of all member nodes, sorted.
    pub fn node_ids(&self) -> Vec<DhtNodeId> {
        let mut ids: Vec<DhtNodeId> = self.inner.read().nodes.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Attempt one replica write; false when the node refused (dead).
    fn try_put_on(&self, inner: &DhtInner, id: DhtNodeId, key: &[u8], value: &Bytes) -> bool {
        let node = &inner.nodes[&id];
        self.charge_write(
            node,
            key.len() as u64 + value.len() as u64 + MSG_OVERHEAD,
            MSG_OVERHEAD,
        );
        match node.put(key, value.clone()) {
            Ok(()) => true,
            Err(NodeDown) => {
                self.health.note_down(id);
                false
            }
        }
    }

    /// Store `value` under `key`: a batch of one over [`Dht::put_many`]. The
    /// key's replicas are tried in node-id order; one that refuses (dead) is
    /// made up for clockwise past the replica set, until `replication`
    /// copies are stored or the ring is exhausted: the copies land on the
    /// key's first `replication` live successors. Reports
    /// [`DhtError::NotEnoughReplicas`] only when *no* node accepted.
    pub fn put(&self, key: &[u8], value: Bytes) -> DhtResult<()> {
        self.put_many(&[(key, value)])
    }

    /// Fetch the value for `key`: a batch of one over [`Dht::get_many`]. The
    /// replicas are asked in ring order, failing over past dead nodes; if
    /// any refused, the walk continues past the replica set, where a write
    /// that met that death failed over to. A miss is final: every live copy
    /// sits on the successors the walk asked.
    pub fn get(&self, key: &[u8]) -> DhtResult<Bytes> {
        match self.get_many(&[key])?.pop().flatten() {
            Some(v) => Ok(v),
            None => Err(DhtError::NotFound {
                key: key.escape_ascii().to_string(),
            }),
        }
    }

    /// Remove `key` from every replica that holds it: a batch of one over
    /// [`Dht::remove_many`]. Returns true if at least one replica removed a
    /// value.
    pub fn remove(&self, key: &[u8]) -> DhtResult<bool> {
        Ok(self.remove_many(&[key])?.contains(&true))
    }

    /// Remove a batch of keys from every replica that holds them, grouping
    /// keys by responsible node under a single ring read-lock pass: each node
    /// involved is sent one `RemoveMany` carrying every key it is a replica
    /// for, in node-id order. Returns one slot per key, in order: `true`
    /// where at least one replica removed a value.
    ///
    /// Every live copy of a key sits on its first `replication` live
    /// successors (see the crate doc), so a key whose replicas all answered
    /// has no live copy left. A key whose replica refused (dead) may
    /// have a copy that a write made up for past the replica set, so it is
    /// chased through every successor past its replica set — again one batch
    /// per node. The dead replica keeps its copy on disk, but a killed node
    /// never serves again. A batch with every replica alive, the
    /// healthy-cluster case, sends nothing past the replica sets.
    pub fn remove_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> DhtResult<Vec<bool>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let inner = self.inner.read();
        if inner.nodes.is_empty() {
            return Err(DhtError::Empty);
        }
        let mut per_node: BTreeMap<DhtNodeId, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            for id in inner.ring.successors(key.as_ref(), inner.replication) {
                per_node.entry(id).or_default().push(i);
            }
        }
        let mut removed = vec![false; keys.len()];
        let refused = self.remove_groups(&inner, keys, &per_node, &mut removed);

        let mut chase: BTreeMap<DhtNodeId, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate().filter(|(i, _)| refused[*i]) {
            for id in inner
                .ring
                .successors(key.as_ref(), inner.nodes.len())
                .into_iter()
                .skip(inner.replication)
            {
                chase.entry(id).or_default().push(i);
            }
        }
        self.remove_groups(&inner, keys, &chase, &mut removed);
        Ok(removed)
    }

    /// Send each node its group of `keys` as one charged `RemoveMany`, in
    /// node-id order, marking what was removed. Returns which keys met a
    /// refusal.
    fn remove_groups<K: AsRef<[u8]>>(
        &self,
        inner: &DhtInner,
        keys: &[K],
        groups: &BTreeMap<DhtNodeId, Vec<usize>>,
        removed: &mut [bool],
    ) -> Vec<bool> {
        let mut refused = vec![false; keys.len()];
        let mut round = self.round();
        for (id, indices) in groups {
            let group: Vec<&[u8]> = indices.iter().map(|&i| keys[i].as_ref()).collect();
            let req_bytes: u64 = group.iter().map(|k| k.len() as u64).sum();
            let node = &inner.nodes[id];
            round.charge(
                node,
                Direction::Write,
                req_bytes + MSG_OVERHEAD,
                MSG_OVERHEAD,
            );
            match node.remove_each(&group) {
                Ok(slots) => {
                    for (&i, r) in indices.iter().zip(slots) {
                        removed[i] |= r;
                    }
                }
                Err(NodeDown) => {
                    self.health.note_down(*id);
                    indices.iter().for_each(|&i| refused[i] = true);
                }
            }
        }
        refused
    }

    /// Store a batch of key-value pairs, grouping keys by responsible node
    /// under a single ring read-lock pass: each node involved is contacted
    /// once, carrying every entry it is responsible for.
    ///
    /// Equivalent to calling [`Dht::put`] for every entry (later entries win
    /// for duplicate keys), but with one round trip per *node* instead of one
    /// per key-replica. A node dying mid-batch only affects the entries it
    /// was responsible for: those fail over individually past the dead
    /// replica until the replication factor is met. Reports
    /// [`DhtError::NotEnoughReplicas`] if some entry could not be stored on
    /// at least one node; entries that could be stored are stored even then.
    /// Either way each stored entry sits on its first `replication` live
    /// successors, the set a remove or a read reaches.
    ///
    /// Keys are borrowed (`impl AsRef<[u8]>`), so callers holding slices or
    /// owned buffers alike can batch without cloning.
    pub fn put_many<K: AsRef<[u8]>>(&self, entries: &[(K, Bytes)]) -> DhtResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let inner = self.inner.read();
        if inner.nodes.is_empty() {
            return Err(DhtError::Empty);
        }
        // Group entry indices by the node responsible for them. BTreeMap so
        // batch groups are visited in deterministic (node-id) order.
        let mut per_node: BTreeMap<DhtNodeId, Vec<usize>> = BTreeMap::new();
        for (i, (key, _)) in entries.iter().enumerate() {
            for id in inner.ring.successors(key.as_ref(), inner.replication) {
                per_node.entry(id).or_default().push(i);
            }
        }
        // One batch per node, carrying every entry of its group, served in
        // node-id order. The bytes cross the wire even if the node turns out
        // to be dead.
        let mut stored = vec![0usize; entries.len()];
        let mut round = self.round();
        for (id, indices) in &per_node {
            let group: Vec<(&[u8], Bytes)> = indices
                .iter()
                .map(|&i| (entries[i].0.as_ref(), entries[i].1.clone()))
                .collect();
            let group_bytes: u64 = group
                .iter()
                .map(|(k, v)| k.len() as u64 + v.len() as u64)
                .sum();
            let node = &inner.nodes[id];
            round.charge(
                node,
                Direction::Write,
                group_bytes + MSG_OVERHEAD,
                MSG_OVERHEAD,
            );
            match node.put_many(&group) {
                Ok(()) => indices.iter().for_each(|&i| stored[i] += 1),
                // The node refused the whole group; leave its entries for
                // the per-entry fail-over pass below.
                Err(NodeDown) => self.health.note_down(*id),
            }
        }
        drop(round);
        // Entries short of the replication factor (their group's node was
        // dead when the batch reached it) fail over individually, clockwise
        // past the replica set.
        for (i, count) in stored.iter_mut().enumerate() {
            if *count >= inner.replication {
                continue;
            }
            let (key, value) = &entries[i];
            for id in inner
                .ring
                .successors(key.as_ref(), inner.nodes.len())
                .into_iter()
                .skip(inner.replication)
            {
                if self.try_put_on(&inner, id, key.as_ref(), value) {
                    *count += 1;
                    if *count >= inner.replication {
                        break;
                    }
                }
            }
        }
        if stored.contains(&0) {
            return Err(DhtError::NotEnoughReplicas {
                wanted: inner.replication,
                available: 0,
            });
        }
        Ok(())
    }

    /// Fetch a batch of keys, grouping them by responsible node under a
    /// single ring read-lock pass. Keys are first asked of their primary
    /// replicas (one round trip per distinct node), then the still-missing
    /// ones fail over rank by rank across the remaining replicas — the same
    /// fail-over order as [`Dht::get`], batched. Keys whose replica answered
    /// with a refusal (died mid-batch) finally fail over individually past
    /// the replica set.
    ///
    /// Returns one `Option<Bytes>` per requested key, in order; `None` where
    /// no live replica held the key (where [`Dht::get`] would report
    /// [`DhtError::NotFound`]). A `None` is final: the walk asked every live
    /// node a copy can sit on.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> DhtResult<Vec<Option<Bytes>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let inner = self.inner.read();
        if inner.nodes.is_empty() {
            return Err(DhtError::Empty);
        }
        let replica_lists: Vec<Vec<DhtNodeId>> = keys
            .iter()
            .map(|k| inner.ring.successors(k.as_ref(), inner.replication))
            .collect();
        let mut out: Vec<Option<Bytes>> = vec![None; keys.len()];
        let mut saw_down = vec![false; keys.len()];
        let mut down_nodes: FastSet<DhtNodeId> = FastSet::default();
        for rank in 0..inner.replication {
            let mut per_node: BTreeMap<DhtNodeId, Vec<usize>> = BTreeMap::new();
            for (i, replicas) in replica_lists.iter().enumerate() {
                if out[i].is_some() {
                    continue;
                }
                if let Some(id) = replicas.get(rank) {
                    if down_nodes.contains(id) {
                        // Known-dead from an earlier rank of this batch:
                        // skip the doomed exchange, remember to fail over.
                        saw_down[i] = true;
                    } else {
                        per_node.entry(*id).or_default().push(i);
                    }
                }
            }
            // One batch per node: the request carries the group's keys, the
            // response whatever values the node held. Nodes are asked in
            // node-id order, each exchange charged as it is served, and the
            // rank's batches as one round.
            let mut round = self.round();
            for (id, indices) in &per_node {
                let group: Vec<&[u8]> = indices.iter().map(|&i| keys[i].as_ref()).collect();
                let req_bytes: u64 = group.iter().map(|k| k.len() as u64).sum();
                let mut resp_bytes = 0u64;
                let node = &inner.nodes[id];
                match node.get_many(&group) {
                    Ok(values) => {
                        for (&i, v) in indices.iter().zip(values) {
                            resp_bytes += v.as_ref().map_or(0, |b| b.len() as u64);
                            out[i] = v;
                        }
                    }
                    Err(NodeDown) => {
                        down_nodes.insert(*id);
                        indices.iter().for_each(|&i| saw_down[i] = true);
                        self.health.note_down(*id);
                    }
                }
                round.charge(
                    node,
                    Direction::Read,
                    req_bytes + MSG_OVERHEAD,
                    resp_bytes + MSG_OVERHEAD,
                );
            }
        }
        // Keys that saw a refusal may have failed over past the replica set
        // at write time; chase them clockwise, individually.
        for (i, missing) in out.iter_mut().enumerate() {
            if missing.is_some() || !saw_down[i] {
                continue;
            }
            for id in inner
                .ring
                .successors(keys[i].as_ref(), inner.nodes.len())
                .into_iter()
                .skip(replica_lists[i].len())
            {
                let node = &inner.nodes[&id];
                let resp = node.get(keys[i].as_ref());
                let resp_bytes = match &resp {
                    Ok(Some(v)) => v.len() as u64,
                    _ => 0,
                };
                self.charge_read(
                    node,
                    keys[i].as_ref().len() as u64 + MSG_OVERHEAD,
                    resp_bytes + MSG_OVERHEAD,
                );
                if let Ok(Some(v)) = resp {
                    *missing = Some(v);
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Does any live replica hold `key`?
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_ok()
    }

    /// Add `node` to the ring and return its id once it holds its share of
    /// the keys: the join runs the placement pass of [`Dht::repair`] under
    /// the membership lock, copying each key the new node is now a first
    /// live successor of onto it and dropping the copy it displaced. Its
    /// report counts in [`Dht::health`]'s counters like a repair's.
    ///
    /// A BlobSeer deployment's ring is its machines: only
    /// `BlobSeer::join` calls this on it, with a machine it also gives a
    /// provider (CI's "One membership path" step checks the callers).
    ///
    /// # Panics
    /// When a member already has the node's id.
    pub fn join(&self, node: Arc<StorageNode>) -> DhtNodeId {
        let mut inner = self.inner.write();
        let id = node.id();
        assert!(!inner.nodes.contains_key(&id), "{id:?} is already a member");
        inner.ring.add_node(id);
        inner.nodes.insert(id, node);
        self.health.register(id);
        self.place(&inner);
        id
    }

    /// Crash a node (failure injection). Nothing else is told: the front-end
    /// discovers the death when operations are refused, the detector when
    /// heartbeats go unanswered. The node stays dead. A BlobSeer deployment
    /// kills whole machines through `BlobSeer::kill` and never calls this.
    pub fn kill(&self, id: DhtNodeId) -> DhtResult<()> {
        let inner = self.inner.read();
        match inner.nodes.get(&id) {
            Some(n) => {
                n.kill();
                Ok(())
            }
            None => Err(DhtError::UnknownNode(id)),
        }
    }

    /// The failure detector slot and repair counters of this tier. Attach
    /// a detector with `health().attach(..)`; joins register with it, and
    /// repair probes and refused data operations feed it.
    pub fn health(&self) -> &ReplicaHealth<DhtNodeId> {
        &self.health
    }

    /// One active re-replication pass (the shared [`simcluster::replica`]
    /// loop): probe every node, list each live node's keys once, and keep
    /// each key on its first `replication` *live* successors — copying from
    /// a surviving replica and dropping misplaced strays once the factor is
    /// met. This is how replication recovers from unannounced deaths.
    ///
    /// Takes the membership write lock for the duration of the pass, so it
    /// serializes with data operations.
    pub fn repair(&self) -> RepairReport {
        self.place(&self.inner.write())
    }

    /// The placement pass behind [`Dht::repair`] and [`Dht::join`], run
    /// under the caller's membership write lock.
    fn place(&self, inner: &DhtInner) -> RepairReport {
        let mut ids: Vec<DhtNodeId> = inner.nodes.keys().copied().collect();
        ids.sort();
        let members: Vec<&StorageNode> = ids.iter().map(|id| &*inner.nodes[id]).collect();
        let plan = |live: &[DhtNodeId], inventory: Inventory<DhtNodeId>| {
            inventory
                .into_iter()
                .map(|(key, holders)| {
                    let targets = inner
                        .ring
                        .successors(&key, inner.nodes.len())
                        .into_iter()
                        .filter(|id| live.contains(id))
                        .take(inner.replication)
                        .collect();
                    Placement::new(key, holders, targets)
                })
                .collect()
        };
        let (mut report, plans) = self.health.repair(&members, inner.replication, plan);
        // Misplaced live copies of a key whose targets are full are pure
        // overhead now, and would serve stale data if the key is later
        // overwritten.
        let mut strays: BTreeMap<DhtNodeId, Vec<&[u8]>> = BTreeMap::new();
        for plan in plans.iter().filter(|p| p.is_full()) {
            for id in plan.holders.iter().filter(|h| !plan.targets.contains(h)) {
                strays.entry(*id).or_default().push(&plan.key);
            }
        }
        for (id, keys) in strays {
            report.strays_removed += inner.nodes[&id].remove_many(&keys).unwrap_or(0);
        }
        report
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DhtStats {
        let inner = self.inner.read();
        let mut s = DhtStats {
            nodes: inner.nodes.len(),
            under_replicated: self.health.still_short() as usize,
            repair_runs: self.health.runs(),
            repaired_entries: self.health.copies(),
            ..Default::default()
        };
        for node in inner.nodes.values() {
            if node.ping() {
                s.live_nodes += 1;
            }
            s.total_entries += node.len();
            s.total_bytes += node.data_bytes();
            s.node_batches += node.batches_handled();
        }
        if let Some(det) = self.health.detector() {
            s.failures_detected = det.failures_detected();
            s.suspected_nodes = det.suspects().len();
        }
        s
    }

    /// The nodes that would hold `key` (for tests and load inspection).
    pub fn replicas_for(&self, key: &[u8]) -> Vec<DhtNodeId> {
        let inner = self.inner.read();
        inner.ring.successors(key, inner.replication)
    }

    /// Per-node entry counts, for load-balance inspection.
    pub fn load_per_node(&self) -> HashMap<DhtNodeId, usize> {
        let inner = self.inner.read();
        inner.nodes.iter().map(|(id, n)| (*id, n.len())).collect()
    }

    /// The number of virtual nodes per physical node on the ring.
    pub fn virtual_nodes(&self) -> usize {
        self.inner.read().virtual_nodes
    }

    /// Every key any node — live or dead — holds, with its number of copies.
    /// Administrative, like [`Dht::stats`]: it reads the nodes' persistent
    /// state, so invariant checks can compare the DHT's contents against
    /// what the metadata still references.
    ///
    /// A question about *persistent* state — a dead node's disk still holds
    /// copies — so it uses the administrative keys() listing rather than
    /// data-plane gets (which dead nodes refuse).
    pub fn key_copies(&self) -> HashMap<Vec<u8>, usize> {
        let inner = self.inner.read();
        let mut held: HashMap<Vec<u8>, usize> = HashMap::new();
        for node in inner.nodes.values() {
            for k in node.keys() {
                *held.entry(k).or_default() += 1;
            }
        }
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh node with the next free id, for a join.
    fn newcomer(dht: &Dht) -> Arc<StorageNode> {
        let id = DhtNodeId(dht.node_ids().len() as u64);
        Arc::new(StorageNode::new(id, NodeId(0)))
    }
    use simcluster::clock::{Clock, SimClock};
    use simcluster::detector::{FailureDetector, SUSPICION_TIMEOUT};
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;

    #[test]
    fn put_get_remove_roundtrip() {
        let dht = Dht::new(DhtConfig::default());
        dht.put(b"k1", Bytes::from_static(b"v1")).unwrap();
        assert_eq!(dht.get(b"k1").unwrap(), Bytes::from_static(b"v1"));
        assert!(dht.contains(b"k1"));
        assert!(dht.remove(b"k1").unwrap());
        assert!(!dht.contains(b"k1"));
        assert!(matches!(dht.get(b"k1"), Err(DhtError::NotFound { .. })));
        // A binary key is named readably, byte for byte.
        let err = dht.get(b"m\x01\xff").unwrap_err();
        assert_eq!(err.to_string(), r"key not found in DHT: m\x01\xff");
    }

    #[test]
    fn replication_places_copies_on_distinct_nodes() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 3,
            ..Default::default()
        });
        dht.put(b"key", Bytes::from_static(b"value")).unwrap();
        let replicas = dht.replicas_for(b"key");
        assert_eq!(replicas.len(), 3);
        let unique: std::collections::HashSet<_> = replicas.iter().collect();
        assert_eq!(unique.len(), 3, "replicas must be on distinct nodes");
        // Exactly the replica nodes hold the key.
        let load = dht.load_per_node();
        let holders: usize = load.values().sum();
        assert_eq!(holders, 3);
    }

    #[test]
    fn survives_killing_one_replica() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 3,
            ..Default::default()
        });
        dht.put(b"key", Bytes::from_static(b"value")).unwrap();
        let replicas = dht.replicas_for(b"key");
        dht.kill(replicas[0]).unwrap();
        assert_eq!(dht.get(b"key").unwrap(), Bytes::from_static(b"value"));
    }

    #[test]
    fn writes_fail_over_past_dead_replicas() {
        let dht = Dht::new(DhtConfig {
            nodes: 3,
            replication: 2,
            ..Default::default()
        });
        dht.put(b"key", Bytes::from_static(b"value")).unwrap();
        for id in dht.replicas_for(b"key") {
            dht.kill(id).unwrap();
        }
        // Both stored copies are on dead nodes: unreadable for now.
        assert!(matches!(dht.get(b"key"), Err(DhtError::NotFound { .. })));
        // A new write walks past the dead replica set and lands on the one
        // surviving node instead of erroring.
        dht.put(b"key", Bytes::from_static(b"value2")).unwrap();
        assert_eq!(dht.get(b"key").unwrap(), Bytes::from_static(b"value2"));
    }

    #[test]
    fn a_key_removed_while_its_primary_is_dead_does_not_come_back() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 3,
            ..Default::default()
        });
        let primary = dht.replicas_for(b"key")[0];
        dht.kill(primary).unwrap();
        // Two replicas take the write, and the first successor past the
        // replica set takes the copy the dead primary could not.
        dht.put(b"key", Bytes::from_static(b"value")).unwrap();
        assert_eq!(dht.remove(b"key"), Ok(true));
        assert!(matches!(dht.get(b"key"), Err(DhtError::NotFound { .. })));
        assert_eq!(dht.get_many(&[b"key"]).unwrap(), vec![None]);
    }

    #[test]
    fn remove_many_sends_each_node_one_charged_batch() {
        let dht = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            ..Default::default()
        });
        let entries: Vec<(Vec<u8>, Bytes)> = (0..200u32)
            .map(|i| (format!("k{i}").into_bytes(), Bytes::from(format!("v{i}"))))
            .collect();
        let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        dht.put_many(&entries).unwrap();
        let batches = |dht: &Dht| -> BTreeMap<DhtNodeId, u64> {
            let inner = dht.inner.read();
            inner
                .nodes
                .iter()
                .map(|(id, n)| (*id, n.batches_handled()))
                .collect()
        };
        let involved: HashSet<DhtNodeId> = keys.iter().flat_map(|k| dht.replicas_for(k)).collect();
        let (writes, before) = (dht.write_round_trips(), batches(&dht));

        assert!(dht.remove_many(&keys).unwrap().into_iter().all(|r| r));
        assert_eq!(dht.write_round_trips() - writes, involved.len() as u64);
        for (id, n) in batches(&dht) {
            let expected = u64::from(involved.contains(&id));
            assert_eq!(n - before[&id], expected, "node {id:?}");
        }
        assert_eq!(dht.stats().total_entries, 0);
        // Removing again finds nothing, still one batch per node.
        assert!(dht.remove_many(&keys).unwrap().into_iter().all(|r| !r));
        assert_eq!(dht.write_round_trips() - writes, 2 * involved.len() as u64);
        assert!(dht.remove_many::<&[u8]>(&[]).unwrap().is_empty());
    }

    #[test]
    fn a_dead_primary_does_not_bring_a_batch_removed_key_back() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 3,
            ..Default::default()
        });
        let entries: Vec<(Vec<u8>, Bytes)> = (0..40u32)
            .map(|i| (format!("k{i}").into_bytes(), Bytes::from(format!("v{i}"))))
            .collect();
        let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        let victim = dht.replicas_for(&keys[0])[0];
        // The first half lands while the victim lives, so it keeps stale
        // copies through its death; the second half lands while it is dead,
        // so those copies fail over past the replica set.
        dht.put_many(&entries[..20]).unwrap();
        dht.kill(victim).unwrap();
        dht.put_many(&entries[20..]).unwrap();

        assert!(dht.remove_many(&keys).unwrap().into_iter().all(|r| r));
        assert!(dht.get_many(&keys).unwrap().iter().all(Option::is_none));
        // Only the dead victim's disk still holds copies (of the first
        // half); a repair pass lists live nodes only, so none comes back.
        let on_victim = dht.load_per_node()[&victim];
        assert!(on_victim > 0);
        assert_eq!(dht.stats().total_entries, on_victim);
        let report = dht.repair();
        assert_eq!((report.scanned, report.copied), (0, 0));
        assert!(dht.get_many(&keys).unwrap().iter().all(Option::is_none));
    }

    #[test]
    fn fails_when_every_node_is_dead() {
        let dht = Dht::new(DhtConfig {
            nodes: 3,
            replication: 2,
            ..Default::default()
        });
        dht.put(b"key", Bytes::from_static(b"value")).unwrap();
        for id in dht.node_ids() {
            dht.kill(id).unwrap();
        }
        assert!(matches!(dht.get(b"key"), Err(DhtError::NotFound { .. })));
        let err = dht.put(b"key", Bytes::from_static(b"value2"));
        assert!(matches!(err, Err(DhtError::NotEnoughReplicas { .. })));
    }

    #[test]
    fn keys_spread_over_nodes() {
        let dht = Dht::new(DhtConfig {
            nodes: 8,
            replication: 1,
            virtual_nodes: 128,
        });
        for i in 0..2000u32 {
            dht.put(format!("page-{i}").as_bytes(), Bytes::from_static(b"x"))
                .unwrap();
        }
        let load = dht.load_per_node();
        let min = load.values().min().copied().unwrap();
        let max = load.values().max().copied().unwrap();
        // With 128 vnodes the imbalance should be modest.
        assert!(min > 0, "every node should hold at least one key");
        assert!(
            (max as f64) < (min as f64) * 4.0,
            "load imbalance too high: min={min}, max={max}"
        );
    }

    #[test]
    fn unknown_node_operations_error() {
        let dht = Dht::new(DhtConfig::default());
        let bogus = DhtNodeId(9999);
        assert!(matches!(dht.kill(bogus), Err(DhtError::UnknownNode(_))));
    }

    #[test]
    fn error_display() {
        assert!(DhtError::NotFound { key: "abc".into() }
            .to_string()
            .contains("abc"));
        assert!(DhtError::NotEnoughReplicas {
            wanted: 3,
            available: 1
        }
        .to_string()
        .contains('3'));
        assert!(DhtError::Empty.to_string().contains("no nodes"));
    }

    #[test]
    fn keys_removed_while_a_replica_was_dead_do_not_resurrect() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 3,
            ..Default::default()
        });
        dht.put(b"key", Bytes::from_static(b"value")).unwrap();
        let replicas = dht.replicas_for(b"key");
        dht.kill(replicas[0]).unwrap();
        // Removed while the primary is down: the live replicas drop it, and
        // the dead primary's copy stays on its disk.
        assert!(dht.remove(b"key").unwrap());
        assert_eq!(dht.key_copies()[&b"key".to_vec()], 1);
        // Neither a repair nor a join lists a dead node, so nothing copies
        // the value back.
        dht.repair();
        dht.join(newcomer(&dht));
        assert!(
            matches!(dht.get(b"key"), Err(DhtError::NotFound { .. })),
            "deleted key resurrected from the dead replica"
        );
        // A re-put after the removal is readable.
        dht.put(b"key", Bytes::from_static(b"again")).unwrap();
        assert_eq!(dht.get(b"key").unwrap(), Bytes::from_static(b"again"));
    }

    #[test]
    fn put_many_and_get_many_roundtrip() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 2,
            ..Default::default()
        });
        let entries: Vec<(Vec<u8>, Bytes)> = (0..50u32)
            .map(|i| (format!("k{i}").into_bytes(), Bytes::from(format!("v{i}"))))
            .collect();
        dht.put_many(&entries).unwrap();
        for (k, v) in &entries {
            assert_eq!(&dht.get(k).unwrap(), v);
        }
        let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        let got = dht.get_many(&keys).unwrap();
        assert_eq!(got.len(), keys.len());
        for (i, v) in got.iter().enumerate() {
            assert_eq!(v.as_ref().unwrap(), &entries[i].1);
        }
        // A missing key comes back as None, matching get()'s NotFound.
        assert_eq!(dht.get_many(&[b"missing".to_vec()]).unwrap(), vec![None]);
        // Empty batches are no-ops. Keys are generic over AsRef<[u8]>, so
        // empty slices need an explicit key type.
        dht.put_many::<&[u8]>(&[]).unwrap();
        assert!(dht.get_many::<&[u8]>(&[]).unwrap().is_empty());
    }

    #[test]
    fn batch_ops_use_fewer_round_trips_than_single_ops() {
        let single = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            ..Default::default()
        });
        let batched = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            ..Default::default()
        });
        let entries: Vec<(Vec<u8>, Bytes)> = (0..100u32)
            .map(|i| (format!("k{i}").into_bytes(), Bytes::from_static(b"v")))
            .collect();
        for (k, v) in &entries {
            single.put(k, v.clone()).unwrap();
        }
        batched.put_many(&entries).unwrap();
        // Single puts: one round trip per key-replica (100 * 2). The batch
        // contacts each of the 4 nodes at most once.
        assert_eq!(single.round_trips(), 200);
        assert!(batched.round_trips() <= 4);

        let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        let before = batched.round_trips();
        let got = batched.get_many(&keys).unwrap();
        assert!(got.iter().all(|v| v.is_some()));
        // All keys resolve at their primaries: at most one contact per node.
        assert!(batched.round_trips() - before <= 4);
    }

    #[test]
    fn read_and_write_round_trips_are_counted_separately() {
        let dht = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            ..Default::default()
        });
        dht.put(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(dht.write_round_trips(), 2);
        assert_eq!(dht.read_round_trips(), 0);
        dht.get(b"k").unwrap();
        assert_eq!(dht.read_round_trips(), 1);
        let keys: Vec<Vec<u8>> = vec![b"k".to_vec()];
        dht.get_many(&keys).unwrap();
        assert_eq!(dht.read_round_trips(), 2);
        assert_eq!(
            dht.round_trips(),
            dht.read_round_trips() + dht.write_round_trips()
        );
    }

    #[test]
    fn attached_wire_charges_simulated_time_and_bytes() {
        use simcluster::netmodel::NetworkModel;
        use simcluster::topology::ClusterTopology;
        let topo = ClusterTopology::flat(4);
        let net = Arc::new(wire::SimNet::new(
            topo.clone(),
            NetworkModel::grid5000_like(),
        ));
        let dht = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            ..Default::default()
        });
        dht.attach_wire(net.clone(), topo.node(0));
        dht.put(b"key", Bytes::from_static(b"value")).unwrap();
        dht.get(b"key").unwrap();
        assert!(net.makespan() > simcluster::time::SimDuration::ZERO);
        assert_eq!(net.exchanges(), dht.round_trips());
        let snap = dht.wire_counters().snapshot();
        assert_eq!(snap.messages, dht.round_trips());
        // Two replica puts carry key+value+overhead each; the get's response
        // carries the value back.
        assert!(snap.bytes_sent >= 2 * (3 + 5 + MSG_OVERHEAD));
        assert!(snap.bytes_received >= 5);
    }

    #[test]
    fn put_many_with_every_node_dead_reports_shortfall() {
        let dht = Dht::new(DhtConfig {
            nodes: 3,
            replication: 2,
            ..Default::default()
        });
        for id in dht.node_ids() {
            dht.kill(id).unwrap();
        }
        let entries = vec![(b"k".to_vec(), Bytes::from_static(b"v"))];
        assert!(matches!(
            dht.put_many(&entries),
            Err(DhtError::NotEnoughReplicas { .. })
        ));
    }

    #[test]
    fn get_many_fails_over_dead_primaries() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 3,
            ..Default::default()
        });
        let entries: Vec<(Vec<u8>, Bytes)> = (0..60u32)
            .map(|i| (format!("k{i}").into_bytes(), Bytes::from(format!("v{i}"))))
            .collect();
        dht.put_many(&entries).unwrap();
        dht.kill(dht.node_ids()[0]).unwrap();
        let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        let got = dht.get_many(&keys).unwrap();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(v.as_ref().unwrap(), &entries[i].1, "key {i} lost");
        }
    }

    #[test]
    fn a_batch_costs_each_node_one_message_per_charged_round_trip() {
        let dht = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            ..Default::default()
        });
        let entries: Vec<(Vec<u8>, Bytes)> = (0..200u32)
            .map(|i| (format!("k{i}").into_bytes(), Bytes::from(format!("v{i}"))))
            .collect();
        let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();

        dht.put_many(&entries).unwrap();
        let written = dht.write_round_trips();
        assert!((1..=4).contains(&written));
        assert_eq!(dht.stats().node_batches, written);

        assert!(dht.get_many(&keys).unwrap().iter().all(Option::is_some));
        let read = dht.read_round_trips();
        assert!((1..=4).contains(&read));
        assert_eq!(dht.stats().node_batches, written + read);
    }

    /// A transport that crashes a DHT node the first time an exchange is
    /// charged. A batch operation charges each node group as it serves it,
    /// in node-id order, so this lands the death after the first group and
    /// before the victim's.
    struct KillOnNextCharge {
        victim: Arc<StorageNode>,
        armed: std::sync::atomic::AtomicBool,
    }

    impl Transport for KillOnNextCharge {
        fn exchange(
            &self,
            _src: NodeId,
            _dst: NodeId,
            _dir: Direction,
            _bytes_out: u64,
            _bytes_in: u64,
        ) -> simcluster::time::SimDuration {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.victim.kill();
            }
            simcluster::time::SimDuration::ZERO
        }

        fn name(&self) -> &'static str {
            "kill-on-next-charge"
        }
    }

    #[test]
    fn batches_survive_a_node_dying_between_two_groups() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 2,
            ..Default::default()
        });
        // The highest id: its group is served last, after the kill.
        let victim = dht.node_ids()[4];
        let killer = Arc::new(KillOnNextCharge {
            victim: Arc::clone(&dht.inner.read().nodes[&victim]),
            armed: std::sync::atomic::AtomicBool::new(true),
        });
        dht.attach_wire(killer.clone(), NodeId(0));
        let entries: Vec<(Vec<u8>, Bytes)> = (0..80u32)
            .map(|i| (format!("k{i}").into_bytes(), Bytes::from(format!("v{i}"))))
            .collect();
        let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        let all_read = |dht: &Dht| {
            let got = dht.get_many(&keys).unwrap();
            got.iter()
                .zip(&entries)
                .all(|(g, (_, v))| g.as_ref() == Some(v))
        };
        let victims_group = keys
            .iter()
            .filter(|k| dht.replicas_for(k).contains(&victim))
            .count();
        assert!(victims_group > 0);

        // Write: the victim dies after the first group is served. Its own
        // group is refused whole, and only its entries fail over, one
        // single-key put each, past the replica set.
        dht.put_many(&entries).unwrap();
        assert!(!killer.armed.load(Ordering::SeqCst), "the kill fired");
        assert_eq!(dht.stats().live_nodes, 4);
        assert_eq!(
            dht.load_per_node()[&victim],
            0,
            "a dead node accepts nothing"
        );
        assert_eq!(dht.stats().total_entries, entries.len() * 2);
        assert_eq!(dht.write_round_trips(), 5 + victims_group as u64);
        for (key, _) in &entries {
            let replicas = dht.replicas_for(key);
            if !replicas.contains(&victim) {
                for id in replicas {
                    let node = &dht.inner.read().nodes[&id];
                    assert!(node.get(key).unwrap().is_some(), "a served group stays put");
                }
            }
        }
        // Read with the victim dead before the batch: its keys fail over.
        assert!(all_read(&dht));

        // Read with the victim dying between two groups: its group is
        // refused and its keys are asked of their next replica; nothing is
        // lost. The victim accepted nothing while dead, so flipping its
        // node's flag back brings no stale copy with it.
        killer.victim.revive();
        killer.armed.store(true, Ordering::SeqCst);
        assert!(all_read(&dht));
        assert!(!killer.armed.load(Ordering::SeqCst), "the kill fired");
        assert_eq!(dht.stats().live_nodes, 4);

        // Write with the victim dead before the batch: its group is refused
        // whole and every entry fails over to `replication` live nodes.
        let fresh: Vec<(Vec<u8>, Bytes)> = (0..80u32)
            .map(|i| (format!("n{i}").into_bytes(), Bytes::from(format!("w{i}"))))
            .collect();
        let before = dht.load_per_node();
        dht.put_many(&fresh).unwrap();
        let after = dht.load_per_node();
        assert_eq!(
            after[&victim], before[&victim],
            "a dead node accepts nothing"
        );
        let landed: usize = after.values().sum::<usize>() - before.values().sum::<usize>();
        assert_eq!(landed, fresh.len() * 2);
        for (k, v) in &fresh {
            assert_eq!(&dht.get(k).unwrap(), v);
        }

        // And repair finds both batches at `replication` live copies
        // without the victim.
        assert_eq!(dht.repair().still_under_replicated, 0);
        let live_copies: usize = dht
            .load_per_node()
            .iter()
            .filter(|(id, _)| **id != victim)
            .map(|(_, n)| n)
            .sum();
        assert_eq!(live_copies, (entries.len() + fresh.len()) * 2);
    }

    #[test]
    fn put_many_fails_over_when_a_replica_dies_mid_batch() {
        // The batch is grouped per node and groups are visited in node-id
        // order; killing a node *without telling the front-end* means its
        // group is still attempted and refused — the mid-batch death path —
        // and the affected entries must fail over instead of erroring the
        // whole batch.
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 2,
            ..Default::default()
        });
        let victim = dht.node_ids()[4];
        dht.kill(victim).unwrap();
        let entries: Vec<(Vec<u8>, Bytes)> = (0..80u32)
            .map(|i| (format!("k{i}").into_bytes(), Bytes::from(format!("v{i}"))))
            .collect();
        dht.put_many(&entries).unwrap();
        // Every entry is readable and fully replicated on live nodes: the
        // dead node's share failed over clockwise.
        for (k, v) in &entries {
            assert_eq!(&dht.get(k).unwrap(), v);
        }
        let stats = dht.stats();
        assert_eq!(
            stats.total_entries,
            entries.len() * 2,
            "entries on dead replicas must fail over to the factor"
        );
        let load = dht.load_per_node();
        assert_eq!(load[&victim], 0, "the dead node accepted nothing");
    }

    #[test]
    fn reads_chase_writes_that_failed_over_past_the_replica_set() {
        let dht = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            ..Default::default()
        });
        // Kill the whole primary replica set, then write: the copy lands
        // clockwise past the dead replicas.
        for id in dht.replicas_for(b"key") {
            dht.kill(id).unwrap();
        }
        dht.put(b"key", Bytes::from_static(b"survivor")).unwrap();
        assert_eq!(dht.get(b"key").unwrap(), Bytes::from_static(b"survivor"));
        let got = dht.get_many(&[b"key".to_vec()]).unwrap();
        assert_eq!(got[0].as_ref().unwrap(), &Bytes::from_static(b"survivor"));
    }

    #[test]
    fn repair_restores_replication_after_an_unannounced_death() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 2,
            ..Default::default()
        });
        for i in 0..100u32 {
            dht.put(
                format!("key-{i}").as_bytes(),
                Bytes::from(format!("value-{i}")),
            )
            .unwrap();
        }
        // Kill a loaded node. It stays dead; repair must discover the
        // death (by probing) and re-replicate from the surviving copies.
        let victim = *dht
            .load_per_node()
            .iter()
            .max_by_key(|(_, n)| **n)
            .unwrap()
            .0;
        dht.kill(victim).unwrap();
        let report = dht.repair();
        assert_eq!(report.dead, 1);
        assert!(report.under_replicated > 0, "the kill shed replicas");
        assert!(report.copied > 0, "repair created copies");
        assert_eq!(report.still_under_replicated, 0);
        let stats = dht.stats();
        assert!(stats.repaired_entries > 0);
        assert_eq!(stats.repair_runs, 1);
        assert_eq!(stats.under_replicated, 0);
        // The proof of re-replication: kill one of the nodes repair copied
        // to — every key must still be readable somewhere.
        let second = *dht
            .load_per_node()
            .iter()
            .filter(|(id, _)| **id != victim)
            .max_by_key(|(_, n)| **n)
            .unwrap()
            .0;
        dht.kill(second).unwrap();
        for i in 0..100u32 {
            assert_eq!(
                dht.get(format!("key-{i}").as_bytes()).unwrap(),
                Bytes::from(format!("value-{i}")),
                "key-{i} lost after a second failure: repair did not restore the factor"
            );
        }
    }

    #[test]
    fn repair_is_idempotent_on_a_healthy_ring() {
        let dht = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            ..Default::default()
        });
        for i in 0..50u32 {
            dht.put(format!("k{i}").as_bytes(), Bytes::from_static(b"v"))
                .unwrap();
        }
        let first = dht.repair();
        assert_eq!(first.under_replicated, 0);
        assert_eq!(first.copied, 0);
        assert_eq!(first.strays_removed, 0);
        assert_eq!(first.scanned, 50);
    }

    /// The repair pass a join runs populates the joined node before the
    /// join returns, so the next repair has nothing to do.
    #[test]
    fn repair_populates_joined_nodes() {
        let dht = Dht::new(DhtConfig {
            nodes: 3,
            replication: 2,
            ..Default::default()
        });
        let keys: Vec<Vec<u8>> = (0..200u32).map(|i| format!("k{i}").into_bytes()).collect();
        for (i, key) in keys.iter().enumerate() {
            dht.put(key, Bytes::from(format!("v{i}"))).unwrap();
        }
        let newcomer = dht.join(newcomer(&dht));
        let load = dht.load_per_node();
        assert!(load[&newcomer] > 0, "the joined node holds keys at once");
        assert_eq!(dht.stats().total_entries, 200 * 2, "displaced copies went");
        assert!(
            dht.health().copies() > 0,
            "the join's pass counts as a repair's"
        );
        // Every key sits on exactly its replica set, so a remove reaches
        // every copy and the next repair has nothing to do.
        for key in &keys {
            for id in dht.replicas_for(key) {
                let node = &dht.inner.read().nodes[&id];
                assert!(node.get(key).unwrap().is_some());
            }
        }
        assert!(dht
            .remove_many(&keys[..100])
            .unwrap()
            .into_iter()
            .all(|r| r));
        let report = dht.repair();
        assert_eq!((report.copied, report.strays_removed), (0, 0));
        assert_eq!(report.scanned, 100);
        for (i, key) in keys.iter().enumerate().skip(100) {
            assert_eq!(dht.get(key).unwrap(), Bytes::from(format!("v{i}")));
        }
        assert!(dht
            .get_many(&keys[..100])
            .unwrap()
            .iter()
            .all(Option::is_none));
    }

    /// A DHT with a detector on `clock`.
    fn detected(clock: &Arc<SimClock>, nodes: usize) -> Dht {
        let dht = Dht::new(DhtConfig {
            nodes,
            replication: 2,
            ..Default::default()
        });
        dht.health().attach(Arc::new(FailureDetector::with_members(
            Arc::clone(clock) as Arc<dyn Clock>,
            dht.node_ids(),
        )));
        dht
    }

    #[test]
    fn heartbeats_discover_deaths_on_the_sim_clock() {
        let clock = Arc::new(SimClock::new());
        let dht = detected(&clock, 4);
        let victim = dht.node_ids()[0];
        dht.kill(victim).unwrap();
        // Within the suspicion window: the miss is tolerated.
        clock.advance(SUSPICION_TIMEOUT / 3);
        assert_eq!(dht.repair().dead, 1);
        assert_eq!(dht.stats().failures_detected, 0);
        // Past the window: the next failed probe turns into suspicion.
        clock.advance(SUSPICION_TIMEOUT);
        dht.repair();
        let stats = dht.stats();
        assert_eq!(stats.failures_detected, 1);
        assert_eq!(stats.suspected_nodes, 1);
        assert!(dht.health().detector().unwrap().is_suspect(victim));
    }

    #[test]
    fn refused_operations_feed_the_detector() {
        let clock = Arc::new(SimClock::new());
        let dht = detected(&clock, 3);
        let victim = dht.replicas_for(b"key")[0];
        dht.kill(victim).unwrap();
        clock.advance(SUSPICION_TIMEOUT);
        // No heartbeat round ran; the refused write itself is the evidence.
        dht.put(b"key", Bytes::from_static(b"v")).unwrap();
        assert!(dht.health().detector().unwrap().is_suspect(victim));
    }

    #[test]
    fn concurrent_clients_publish_metadata() {
        let dht = std::sync::Arc::new(Dht::new(DhtConfig {
            nodes: 6,
            replication: 2,
            virtual_nodes: 64,
        }));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let dht = std::sync::Arc::clone(&dht);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        let key = format!("blob-{t}/v{i}/node");
                        dht.put(key.as_bytes(), Bytes::from(vec![t as u8; 32]))
                            .unwrap();
                        assert_eq!(dht.get(key.as_bytes()).unwrap()[0], t as u8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = dht.stats();
        assert_eq!(stats.total_entries, 8 * 250 * 2);
    }
}
