//! # dht — the metadata providers' distributed hash table
//!
//! BlobSeer keeps the information about which provider stores each page of
//! each blob version "in a Distributed HashTable, managed by several metadata
//! providers" (paper §III-A). This crate implements that substrate:
//!
//! * [`ring::HashRing`] — consistent hashing with virtual nodes, so that keys
//!   spread evenly and adding/removing a metadata provider only moves a small
//!   fraction of the keys;
//! * [`node::DhtNode`] — one metadata provider: a key-value store plus a
//!   liveness flag for failure injection, served on the caller's thread;
//! * [`Dht`] — the client view: replicated `put`/`get`/`remove` across the
//!   ring, fail-over on dead replicas, node join/leave, and the
//!   churn-tolerance layer: an active re-replication pass ([`Dht::repair`],
//!   the shared [`simcluster::replica`] loop) whose probe is the heartbeat
//!   round of the tier's failure detector, and which restores the
//!   replication factor after unannounced deaths and moves keys onto joined
//!   nodes.
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
//! — so churn (kills and joins without any explicit `revive`) converges
//! back to full replication.
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

pub use node::{DhtNode, DhtNodeId, NodeDown, NodeResult};
pub use ring::HashRing;

use bytes::Bytes;
use kvstore::{FastMap, FastSet};
use parking_lot::{Mutex, RwLock};
use simcluster::replica::{Inventory, Placement, RepairReport, ReplicaHealth};
use simcluster::topology::NodeId;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Total key replicas stored across all nodes.
    pub total_entries: usize,
    /// Total bytes stored across all nodes (counting replication).
    pub total_bytes: u64,
    /// Keys still below the replication factor after the most recent
    /// [`Dht::repair`] pass (0 until a repair has run).
    pub under_replicated: usize,
    /// Repair passes completed.
    pub repair_runs: u64,
    /// Replica copies created by repair passes (cumulative).
    pub repaired_entries: u64,
    /// Node failures discovered by the heartbeat detector (0 when no
    /// detector is attached).
    pub failures_detected: u64,
    /// Nodes the detector currently suspects dead.
    pub suspected_nodes: usize,
    /// Data-plane batches the nodes have handled (served or refused),
    /// summed over current members. One charged client exchange is one
    /// batch, so client traffic advances this in step with
    /// [`Dht::round_trips`]; the reconciliation passes (revive, repair) add
    /// uncharged batches of their own.
    pub node_batches: u64,
}

/// Client-side retry policy for data operations.
///
/// Under churn an operation can catch the ring at its worst moment — every
/// replica of a key dead, with the repair loop about to restore them. Rather
/// than surfacing that transient as a hard error, the front-end retries the
/// whole operation (which re-runs the replica fail-over walk) up to
/// `attempts` times, sleeping an exponentially growing backoff between
/// tries. The default is a single attempt: no retries, no behaviour change
/// for deployments that do not opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per operation (1 = fail fast).
    pub attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub backoff: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: std::time::Duration::from_millis(0),
        }
    }
}

struct DhtInner {
    ring: HashRing,
    nodes: FastMap<DhtNodeId, Arc<DhtNode>>,
    next_id: u64,
    replication: usize,
    virtual_nodes: usize,
}

/// Keys removed while one of their replicas was dead cannot be told apart
/// from sole-surviving copies when that replica revives — without a marker
/// the deleted value would silently resurrect. This set records removed keys
/// so [`Dht::revive`] and [`Dht::repair`] can drop them; a re-`put` clears
/// the marker.
#[derive(Default)]
struct Tombstones {
    keys: Mutex<FastSet<Vec<u8>>>,
}

impl Tombstones {
    fn bury(&self, key: &[u8]) {
        self.keys.lock().insert(key.to_vec());
    }

    fn unbury(&self, key: &[u8]) {
        self.keys.lock().remove(key);
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.keys.lock().contains(key)
    }
}

/// The transport attachment for a [`Dht`]: where each metadata provider
/// lives in the cluster and which wire its exchanges are charged on.
struct DhtWire {
    transport: Arc<dyn Transport>,
    /// Cluster placement of the metadata providers: DHT node `i` lives on
    /// `placement[i % placement.len()]`.
    placement: Vec<NodeId>,
    /// Fallback source node for exchanges issued from threads that did not
    /// pin one via [`wire::source_guard`].
    home: NodeId,
}

impl DhtWire {
    fn destination(&self, id: DhtNodeId) -> NodeId {
        self.placement[id.0 as usize % self.placement.len()]
    }
}

/// The distributed hash table used by BlobSeer's metadata layer.
///
/// All methods are safe to call from many threads concurrently; the ring is
/// only write-locked by membership changes (join/leave/revive/repair),
/// never by data operations.
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
pub struct Dht {
    inner: RwLock<DhtInner>,
    tombstones: Tombstones,
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
    /// Client-side retry policy for data operations.
    retry: Mutex<RetryPolicy>,
    /// Operation retries performed under the policy.
    retries: AtomicU64,
}

impl Dht {
    /// Build a DHT with `config.nodes` initial nodes.
    pub fn new(config: DhtConfig) -> Self {
        assert!(
            config.replication >= 1,
            "replication factor must be at least 1"
        );
        let mut inner = DhtInner {
            ring: HashRing::new(config.virtual_nodes),
            nodes: FastMap::default(),
            next_id: 0,
            replication: config.replication,
            virtual_nodes: config.virtual_nodes,
        };
        for _ in 0..config.nodes {
            let id = DhtNodeId(inner.next_id);
            inner.next_id += 1;
            inner.ring.add_node(id);
            inner.nodes.insert(id, Arc::new(DhtNode::new(id)));
        }
        Dht {
            inner: RwLock::new(inner),
            tombstones: Tombstones::default(),
            health: ReplicaHealth::default(),
            counters: wire::Counters::new(),
            wire: RwLock::new(None),
            retry: Mutex::new(RetryPolicy::default()),
            retries: AtomicU64::new(0),
        }
    }

    /// Set the client-side retry policy for data operations.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        assert!(policy.attempts >= 1, "at least one attempt is required");
        *self.retry.lock() = policy;
    }

    /// The current retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.lock()
    }

    /// Operation retries performed so far under the policy.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Run `op` under the retry policy: transient outcomes (no replica
    /// reachable, key unreadable) are retried with exponential backoff,
    /// giving concurrent recovery — a revive, a repair pass — a window to
    /// land; structural errors ([`DhtError::Empty`],
    /// [`DhtError::UnknownNode`]) fail immediately.
    fn with_retry<T>(&self, mut op: impl FnMut() -> DhtResult<T>) -> DhtResult<T> {
        let policy = self.retry_policy();
        let mut backoff = policy.backoff;
        let mut result = op();
        for _ in 1..policy.attempts {
            if matches!(
                result,
                Ok(_) | Err(DhtError::Empty | DhtError::UnknownNode(_))
            ) {
                break;
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            result = op();
        }
        result
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

    /// Charge every future client-to-node exchange on `transport`, placing
    /// metadata provider `i` on cluster node `placement[i % len]`. Exchanges
    /// issued from a thread without a [`wire::source_guard`] are charged as
    /// coming from `home`.
    pub fn attach_wire(&self, transport: Arc<dyn Transport>, placement: Vec<NodeId>, home: NodeId) {
        assert!(
            !placement.is_empty(),
            "placement must name at least one node"
        );
        *self.wire.write() = Some(DhtWire {
            transport,
            placement,
            home,
        });
    }

    /// Record one exchange with node `id` and, when a wire is attached,
    /// charge its simulated cost.
    fn charge(&self, id: DhtNodeId, dir: Direction, bytes_out: u64, bytes_in: u64) {
        self.counters.record(dir, bytes_out, bytes_in);
        if let Some(w) = self.wire.read().as_ref() {
            let src = wire::current_source().unwrap_or(w.home);
            w.transport
                .exchange(src, w.destination(id), dir, bytes_out, bytes_in);
        }
    }

    fn charge_read(&self, id: DhtNodeId, bytes_out: u64, bytes_in: u64) {
        self.charge(id, Direction::Read, bytes_out, bytes_in);
    }

    fn charge_write(&self, id: DhtNodeId, bytes_out: u64, bytes_in: u64) {
        self.charge(id, Direction::Write, bytes_out, bytes_in);
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
            id,
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
    /// copies are stored or the ring is exhausted. The repair pass later
    /// moves copies back to the proper successors. Reports
    /// [`DhtError::NotEnoughReplicas`] only when *no* node accepted.
    ///
    /// Retries under the [`RetryPolicy`] when no node accepts.
    pub fn put(&self, key: &[u8], value: Bytes) -> DhtResult<()> {
        self.put_many(&[(key, value)])
    }

    /// Fetch the value for `key`: a batch of one over [`Dht::get_many`]. The
    /// replicas are asked in ring order, failing over past dead nodes; if
    /// any refused, the walk continues past the replica set, because a
    /// write racing that death may have failed over clockwise. A miss with
    /// every replica answering is authoritative; a miss after a refusal is
    /// retried under the [`RetryPolicy`].
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
    /// A key whose replica refused (dead) may still be held there, and a
    /// write that met that death made up for it past the replica set. Such
    /// a key gets a tombstone, which stops the dead copy from resurrecting
    /// the value at revive or repair time, and is chased through every
    /// successor past its replica set — again one batch per node. A batch
    /// with every replica alive, the healthy-cluster case, leaves no
    /// tombstone and sends nothing past the replica sets.
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
            self.tombstones.bury(key.as_ref());
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
        for (id, indices) in groups {
            let group: Vec<&[u8]> = indices.iter().map(|&i| keys[i].as_ref()).collect();
            let req_bytes: u64 = group.iter().map(|k| k.len() as u64).sum();
            self.charge_write(*id, req_bytes + MSG_OVERHEAD, MSG_OVERHEAD);
            match inner.nodes[id].remove_each(&group) {
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
    ///
    /// Retries under the [`RetryPolicy`]: a retried batch re-puts every
    /// entry, which is idempotent (later writes of the same key win).
    ///
    /// Keys are borrowed (`impl AsRef<[u8]>`), so callers holding slices or
    /// owned buffers alike can batch without cloning.
    pub fn put_many<K: AsRef<[u8]>>(&self, entries: &[(K, Bytes)]) -> DhtResult<()> {
        self.with_retry(|| self.put_many_once(entries))
    }

    fn put_many_once<K: AsRef<[u8]>>(&self, entries: &[(K, Bytes)]) -> DhtResult<()> {
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
            // Unbury before storing: if a remove races this put, its
            // tombstone lands after ours is cleared and wins — "remove
            // happened last" is a legal outcome of the race, resurrecting
            // deleted data is not.
            self.tombstones.unbury(key.as_ref());
            for id in inner.ring.successors(key.as_ref(), inner.replication) {
                per_node.entry(id).or_default().push(i);
            }
        }
        // One batch per node, carrying every entry of its group, served in
        // node-id order. The bytes cross the wire even if the node turns out
        // to be dead.
        let mut stored = vec![0usize; entries.len()];
        for (id, indices) in &per_node {
            let group: Vec<(&[u8], Bytes)> = indices
                .iter()
                .map(|&i| (entries[i].0.as_ref(), entries[i].1.clone()))
                .collect();
            let group_bytes: u64 = group
                .iter()
                .map(|(k, v)| k.len() as u64 + v.len() as u64)
                .sum();
            self.charge_write(*id, group_bytes + MSG_OVERHEAD, MSG_OVERHEAD);
            match inner.nodes[id].put_many(&group) {
                Ok(()) => indices.iter().for_each(|&i| stored[i] += 1),
                // The node refused the whole group; leave its entries for
                // the per-entry fail-over pass below.
                Err(NodeDown) => self.health.note_down(*id),
            }
        }
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
    /// [`DhtError::NotFound`]).
    ///
    /// Retries under the [`RetryPolicy`] — but only while some key came
    /// back `None` *after* a dead-node refusal, i.e. the key may be held by
    /// a dead replica awaiting repair. A miss with every replica answering
    /// is authoritative and never retried.
    pub fn get_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> DhtResult<Vec<Option<Bytes>>> {
        let policy = self.retry_policy();
        let mut backoff = policy.backoff;
        let mut attempt = 0;
        loop {
            let (out, transient_miss) = self.get_many_once(keys)?;
            attempt += 1;
            if !transient_miss || attempt >= policy.attempts {
                return Ok(out);
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
        }
    }

    /// One batched lookup pass. The second return value reports whether any
    /// requested key is still missing after a refused exchange — the
    /// transient the retry wrapper waits out.
    fn get_many_once<K: AsRef<[u8]>>(&self, keys: &[K]) -> DhtResult<(Vec<Option<Bytes>>, bool)> {
        if keys.is_empty() {
            return Ok((Vec::new(), false));
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
            // node-id order, each exchange charged as it is served.
            for (id, indices) in &per_node {
                let group: Vec<&[u8]> = indices.iter().map(|&i| keys[i].as_ref()).collect();
                let req_bytes: u64 = group.iter().map(|k| k.len() as u64).sum();
                let mut resp_bytes = 0u64;
                match inner.nodes[id].get_many(&group) {
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
                self.charge_read(*id, req_bytes + MSG_OVERHEAD, resp_bytes + MSG_OVERHEAD);
            }
        }
        // Keys that saw a refusal may have failed over past the replica set
        // at write time; chase them clockwise, individually.
        let mut transient_miss = false;
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
                let resp = inner.nodes[&id].get(keys[i].as_ref());
                let resp_bytes = match &resp {
                    Ok(Some(v)) => v.len() as u64,
                    _ => 0,
                };
                self.charge_read(
                    id,
                    keys[i].as_ref().len() as u64 + MSG_OVERHEAD,
                    resp_bytes + MSG_OVERHEAD,
                );
                if let Ok(Some(v)) = resp {
                    *missing = Some(v);
                    break;
                }
            }
            transient_miss |= missing.is_none();
        }
        Ok((out, transient_miss))
    }

    /// Does any live replica hold `key`?
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_ok()
    }

    /// Add a new node to the ring and return its id. The next
    /// [`Dht::repair`] pass moves its share of the keys onto it.
    pub fn join(&self) -> DhtNodeId {
        let mut inner = self.inner.write();
        let id = DhtNodeId(inner.next_id);
        inner.next_id += 1;
        inner.ring.add_node(id);
        inner.nodes.insert(id, Arc::new(DhtNode::new(id)));
        self.health.register(id);
        id
    }

    /// Remove a node from the ring. Its keys remain on other replicas; the
    /// next [`Dht::repair`] pass restores the replication factor.
    pub fn leave(&self, id: DhtNodeId) -> DhtResult<()> {
        let mut inner = self.inner.write();
        if inner.nodes.remove(&id).is_none() {
            return Err(DhtError::UnknownNode(id));
        }
        inner.ring.remove_node(id);
        self.health.forget(id);
        Ok(())
    }

    /// Crash a node (failure injection). Nothing else is told: the front-end
    /// discovers the death when operations are refused, the detector when
    /// heartbeats go unanswered.
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

    /// Revive a previously killed node, reconciling its contents.
    ///
    /// Everything the node stored before the failure is suspect: while it was
    /// dead it missed overwrites, and any repair pass skipped it both as a
    /// source and as a destination. Without reconciliation a revived node
    /// that comes first in ring order serves its stale pre-failure values
    /// ahead of the fresh replicas. So, for every key the node holds:
    ///
    /// * if the node is still one of the key's replicas, the value is
    ///   refreshed from another live replica (when one holds the key);
    /// * if ring membership changed and the node is no longer a replica, the
    ///   entry is purged — unless no live replica holds the key, in which
    ///   case this may be the only surviving copy and it is kept for a later
    ///   [`Dht::repair`] to re-place;
    /// * keys removed while the node was dead carry a tombstone and are
    ///   dropped rather than resurrected.
    ///
    /// The staleness refresh is the one reconciliation a pure placement scan
    /// cannot infer; the placement side (copy to missing successors, drop
    /// strays) is what [`Dht::repair`] does continuously, and churn without
    /// explicit revives is handled entirely by the repair loop.
    pub fn revive(&self, id: DhtNodeId) -> DhtResult<()> {
        // Write-lock the ring like every other membership change: data ops
        // must not observe (or overwrite) the node mid-reconciliation — a
        // concurrent put landing between our peer read and our refresh write
        // would be clobbered with the stale value we just fetched. The node
        // is marked alive first (a dead node refuses the reconciliation
        // writes), but no client can reach it until the lock is released.
        let inner = self.inner.write();
        let node = match inner.nodes.get(&id) {
            Some(n) => n,
            None => return Err(DhtError::UnknownNode(id)),
        };
        node.revive();
        // A key removed while this node was dead must not resurrect.
        let (mut drop_keys, keys): (Vec<Vec<u8>>, Vec<Vec<u8>>) = node
            .keys()
            .into_iter()
            .partition(|key| self.tombstones.contains(key));
        let targets: Vec<Vec<DhtNodeId>> = keys
            .iter()
            .map(|key| inner.ring.successors(key, inner.replication))
            .collect();
        // The freshest copy among each key's other replicas, asked rank by
        // rank with one batch per peer.
        let mut fresh: Vec<Option<Bytes>> = vec![None; keys.len()];
        for rank in 0..inner.replication {
            let mut per_peer: BTreeMap<DhtNodeId, Vec<usize>> = BTreeMap::new();
            for (i, replicas) in targets.iter().enumerate() {
                match replicas.get(rank) {
                    Some(peer) if *peer != id && fresh[i].is_none() => {
                        per_peer.entry(*peer).or_default().push(i)
                    }
                    _ => {}
                }
            }
            for (peer, indices) in per_peer {
                let group: Vec<&[u8]> = indices.iter().map(|&i| keys[i].as_slice()).collect();
                if let Ok(values) = inner.nodes[&peer].get_many(&group) {
                    for (i, value) in indices.into_iter().zip(values) {
                        fresh[i] = value;
                    }
                }
            }
        }
        let mut refresh = Vec::new();
        for ((key, replicas), value) in keys.into_iter().zip(&targets).zip(fresh) {
            match value {
                Some(value) if replicas.contains(&id) => refresh.push((key, value)),
                Some(_) => drop_keys.push(key),
                None => {}
            }
        }
        let _ = node.put_many(&refresh);
        let _ = node.remove_many(&drop_keys);
        self.health.observe(id, true);
        Ok(())
    }

    /// The failure detector slot and repair counters of this tier. Attach
    /// a detector with `health().enable_failure_detection(.., node_ids())`;
    /// joins and leaves keep its membership in sync, and repair probes and
    /// refused data operations feed it.
    pub fn health(&self) -> &ReplicaHealth<DhtNodeId> {
        &self.health
    }

    /// One active re-replication pass (the shared [`simcluster::replica`]
    /// loop): probe every node, list each live node's keys once, and keep
    /// each key on its first `replication` *live* successors — copying from
    /// a surviving replica, dropping misplaced strays once the factor is
    /// met, and enforcing tombstones. This is how replication recovers from
    /// unannounced deaths (no [`Dht::revive`] needed) and how joined nodes
    /// receive their share of existing keys.
    ///
    /// Takes the membership write lock for the duration of the pass, so it
    /// serializes with data operations.
    pub fn repair(&self) -> RepairReport {
        let inner = self.inner.write();
        let mut ids: Vec<DhtNodeId> = inner.nodes.keys().copied().collect();
        ids.sort();
        let members: Vec<&DhtNode> = ids.iter().map(|id| &*inner.nodes[id]).collect();
        // A removed key is not kept: its lingering live copies are dropped.
        let mut buried: BTreeMap<DhtNodeId, Vec<Vec<u8>>> = BTreeMap::new();
        let plan = |live: &[DhtNodeId], inventory: Inventory<DhtNodeId>| {
            let mut plans = Vec::new();
            for (key, holders) in inventory {
                if self.tombstones.contains(&key) {
                    for id in holders {
                        buried.entry(id).or_default().push(key.clone());
                    }
                    continue;
                }
                let targets = inner
                    .ring
                    .successors(&key, inner.nodes.len())
                    .into_iter()
                    .filter(|id| live.contains(id))
                    .take(inner.replication)
                    .collect();
                plans.push(Placement::new(key, holders, targets));
            }
            plans
        };
        let (mut report, plans) = self.health.repair(&members, inner.replication, plan);
        for (id, keys) in buried {
            report.tombstones_enforced += inner.nodes[&id].remove_many(&keys).unwrap_or(0);
        }
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

    /// Number of tombstones currently retained (keys removed while one of
    /// their replicas was dead, kept so the value cannot resurrect).
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.keys.lock().len()
    }

    /// Drop every tombstone whose key no node — live or dead — still holds a
    /// copy of. Once the last lingering replica of a removed key is gone
    /// there is nothing left to resurrect, so the marker is pure memory
    /// overhead; a bulk delete (version garbage collection) would otherwise
    /// grow the tombstone set without bound. Returns the number dropped.
    pub fn compact_tombstones(&self) -> usize {
        let inner = self.inner.read();
        let held = Self::copies_held(&inner);
        let mut keys = self.tombstones.keys.lock();
        let before = keys.len();
        keys.retain(|key| held.contains_key(key));
        before - keys.len()
    }

    /// Every key any node — live or dead — holds, with its number of copies.
    /// Administrative, like [`Dht::stats`]: it reads the nodes' persistent
    /// state, so invariant checks can compare the DHT's contents against
    /// what the metadata still references.
    pub fn key_copies(&self) -> HashMap<Vec<u8>, usize> {
        Self::copies_held(&self.inner.read())
    }

    /// A question about *persistent* state — a dead node's disk still holds
    /// copies — so it uses the administrative keys() listing rather than
    /// data-plane gets (which dead nodes refuse).
    fn copies_held(inner: &DhtInner) -> HashMap<Vec<u8>, usize> {
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
    use simcluster::clock::{Clock, SimClock};
    use simcluster::detector::SUSPICION_TIMEOUT;
    use std::collections::HashSet;
    use std::time::Duration;

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
        dht.revive(replicas[0]).unwrap();
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
        assert_eq!(dht.tombstone_count(), 0, "a healthy batch buries nothing");
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
        assert!(dht.tombstone_count() > 0, "the refused keys are buried");
        // The victim comes back holding its stale copies: the tombstones
        // drop them instead of letting them resurrect.
        dht.revive(victim).unwrap();
        assert!(dht.get_many(&keys).unwrap().iter().all(Option::is_none));
        assert_eq!(dht.stats().total_entries, 0);
        assert!(dht.compact_tombstones() > 0);
        assert_eq!(dht.tombstone_count(), 0);
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
    fn leave_and_repair_restore_replication() {
        let dht = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            ..Default::default()
        });
        for i in 0..100u32 {
            dht.put(format!("key-{i}").as_bytes(), Bytes::from(vec![1u8; 10]))
                .unwrap();
        }
        let victim = dht.node_ids()[0];
        dht.leave(victim).unwrap();
        dht.repair();
        for i in 0..100u32 {
            assert!(dht.contains(format!("key-{i}").as_bytes()));
        }
        // Every key is now on exactly `replication` live nodes.
        let stats = dht.stats();
        assert_eq!(stats.total_entries, 100 * 2);
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
        assert!(matches!(dht.revive(bogus), Err(DhtError::UnknownNode(_))));
        assert!(matches!(dht.leave(bogus), Err(DhtError::UnknownNode(_))));
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
    fn revived_node_serves_fresh_values_not_stale_ones() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 3,
            ..Default::default()
        });
        dht.put(b"key", Bytes::from_static(b"old")).unwrap();
        let replicas = dht.replicas_for(b"key");
        dht.kill(replicas[0]).unwrap();
        // Overwrite while the primary is down: only the live replicas see it.
        dht.put(b"key", Bytes::from_static(b"new")).unwrap();
        dht.repair();
        dht.revive(replicas[0]).unwrap();
        // Pre-fix the revived primary, first in ring order, answered with its
        // stale pre-failure value.
        assert_eq!(dht.get(b"key").unwrap(), Bytes::from_static(b"new"));
        // And the primary itself was refreshed, not bypassed.
        let stats = dht.stats();
        assert_eq!(stats.live_nodes, 5);
    }

    #[test]
    fn revive_purges_keys_the_node_no_longer_owns() {
        let dht = Dht::new(DhtConfig {
            nodes: 4,
            replication: 2,
            virtual_nodes: 64,
        });
        for i in 0..200u32 {
            dht.put(
                format!("key-{i}").as_bytes(),
                Bytes::from(format!("value-{i}")),
            )
            .unwrap();
        }
        let victim = dht.node_ids()[0];
        dht.kill(victim).unwrap();
        // Ring membership changes while the node is dead.
        dht.join();
        dht.join();
        dht.repair();
        dht.revive(victim).unwrap();
        // Every key is still readable with the right value...
        for i in 0..200u32 {
            assert_eq!(
                dht.get(format!("key-{i}").as_bytes()).unwrap(),
                Bytes::from(format!("value-{i}"))
            );
        }
        // ...and the revived node only holds keys it is (still) a replica
        // for: stale entries for re-homed keys were purged.
        let inner = dht.inner.read();
        let node = &inner.nodes[&victim];
        for key in node.keys() {
            assert!(
                inner
                    .ring
                    .successors(&key, inner.replication)
                    .contains(&victim),
                "revived node kept a key it no longer owns: {:?}",
                String::from_utf8_lossy(&key)
            );
        }
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
        // Removed while the primary is down: only live replicas drop it.
        assert!(dht.remove(b"key").unwrap());
        dht.revive(replicas[0]).unwrap();
        assert!(
            matches!(dht.get(b"key"), Err(DhtError::NotFound { .. })),
            "deleted key resurrected through the revived replica"
        );
        // A re-put after the removal clears the tombstone.
        dht.put(b"key", Bytes::from_static(b"again")).unwrap();
        dht.kill(replicas[0]).unwrap();
        dht.revive(replicas[0]).unwrap();
        assert_eq!(dht.get(b"key").unwrap(), Bytes::from_static(b"again"));
    }

    #[test]
    fn tombstone_compaction_keeps_only_markers_with_lingering_copies() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 3,
            ..Default::default()
        });
        dht.put(b"key", Bytes::from_static(b"value")).unwrap();
        let replicas = dht.replicas_for(b"key");
        dht.kill(replicas[0]).unwrap();
        assert!(dht.remove(b"key").unwrap());
        assert_eq!(dht.tombstone_count(), 1);
        // The dead replica still holds a copy: the marker must survive
        // compaction or the value would resurrect at revive time.
        assert_eq!(dht.compact_tombstones(), 0);
        assert_eq!(dht.tombstone_count(), 1);
        // Revive drops the lingering copy (guided by the tombstone); with no
        // copy left anywhere the marker is dead weight and compacts away.
        dht.revive(replicas[0]).unwrap();
        assert_eq!(dht.compact_tombstones(), 1);
        assert_eq!(dht.tombstone_count(), 0);
        assert!(matches!(dht.get(b"key"), Err(DhtError::NotFound { .. })));
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
        dht.attach_wire(net.clone(), topo.all_nodes().collect(), topo.node(0));
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
        victim: Arc<DhtNode>,
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
        dht.attach_wire(killer.clone(), vec![NodeId(0)], NodeId(0));
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
        // lost.
        dht.revive(victim).unwrap();
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
        // Kill a loaded node. Nobody calls revive; repair must discover the
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

    #[test]
    fn repair_populates_joined_nodes() {
        let dht = Dht::new(DhtConfig {
            nodes: 3,
            replication: 2,
            ..Default::default()
        });
        for i in 0..200u32 {
            dht.put(format!("k{i}").as_bytes(), Bytes::from(format!("v{i}")))
                .unwrap();
        }
        let newcomer = dht.join();
        let report = dht.repair();
        assert!(
            report.copied > 0,
            "the joined node takes over successor slots, so keys must move"
        );
        assert!(report.strays_removed > 0, "old holders shed moved keys");
        let load = dht.load_per_node();
        assert!(load[&newcomer] > 0, "joined node received keys via repair");
        for i in 0..200u32 {
            assert_eq!(
                dht.get(format!("k{i}").as_bytes()).unwrap(),
                Bytes::from(format!("v{i}"))
            );
        }
        // Exactly replication copies of every key remain.
        assert_eq!(dht.stats().total_entries, 200 * 2);
    }

    #[test]
    fn repair_enforces_tombstones_on_live_strays() {
        let dht = Dht::new(DhtConfig {
            nodes: 5,
            replication: 3,
            ..Default::default()
        });
        dht.put(b"key", Bytes::from_static(b"value")).unwrap();
        let replicas = dht.replicas_for(b"key");
        dht.kill(replicas[0]).unwrap();
        assert!(dht.remove(b"key").unwrap());
        // Bring the dead holder back WITHOUT revive's reconciliation by
        // reviving the raw node handle: repair must drop the lingering copy.
        {
            let inner = dht.inner.read();
            inner.nodes[&replicas[0]].revive();
        }
        let report = dht.repair();
        assert!(report.tombstones_enforced > 0);
        assert!(matches!(dht.get(b"key"), Err(DhtError::NotFound { .. })));
    }

    /// A DHT with a detector on `clock`.
    fn detected(clock: &Arc<SimClock>, nodes: usize) -> Dht {
        let dht = Dht::new(DhtConfig {
            nodes,
            replication: 2,
            ..Default::default()
        });
        dht.health()
            .enable_failure_detection(Arc::clone(clock) as Arc<dyn Clock>, dht.node_ids());
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
        // Recovery clears the suspicion.
        dht.revive(victim).unwrap();
        assert_eq!(dht.repair().dead, 0);
        assert_eq!(dht.stats().suspected_nodes, 0);
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
    fn retry_policy_bounds_attempts_and_counts_retries() {
        let dht = Dht::new(DhtConfig {
            nodes: 3,
            replication: 2,
            ..Default::default()
        });
        dht.set_retry_policy(RetryPolicy {
            attempts: 3,
            backoff: Duration::from_micros(100),
        });
        dht.put(b"key", Bytes::from_static(b"v")).unwrap();
        assert_eq!(dht.retries(), 0, "successful ops never retry");
        // An authoritative miss (all replicas alive, none holds the key) is
        // final: no retries burned on it.
        assert!(dht.get(b"absent").is_err());
        assert!(dht.get_many(&[b"absent".to_vec()]).unwrap()[0].is_none());
        assert_eq!(dht.retries(), 0);
        // With every node dead the transient paths retry to exhaustion.
        for id in dht.node_ids() {
            dht.kill(id).unwrap();
        }
        assert!(matches!(
            dht.put(b"key", Bytes::from_static(b"v2")),
            Err(DhtError::NotEnoughReplicas { .. })
        ));
        assert_eq!(dht.retries(), 2);
        assert!(matches!(dht.get(b"key"), Err(DhtError::NotFound { .. })));
        assert_eq!(dht.retries(), 4);
        assert!(dht.get_many(&[b"key".to_vec()]).unwrap()[0].is_none());
        assert_eq!(dht.retries(), 6);
        let entries = vec![(b"key".to_vec(), Bytes::from_static(b"v3"))];
        assert!(dht.put_many(&entries).is_err());
        assert_eq!(dht.retries(), 8);
    }

    #[test]
    fn retried_reads_succeed_once_the_replica_recovers() {
        let dht = Arc::new(Dht::new(DhtConfig {
            nodes: 3,
            replication: 2,
            ..Default::default()
        }));
        dht.set_retry_policy(RetryPolicy {
            attempts: 50,
            backoff: Duration::from_millis(2),
        });
        dht.put(b"key", Bytes::from_static(b"survives")).unwrap();
        for id in dht.node_ids() {
            dht.kill(id).unwrap();
        }
        // Recovery lands while the reader is mid-backoff.
        let reviver = {
            let dht = Arc::clone(&dht);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                for id in dht.node_ids() {
                    dht.revive(id).unwrap();
                }
            })
        };
        assert_eq!(dht.get(b"key").unwrap(), Bytes::from_static(b"survives"));
        assert!(
            dht.retries() > 0,
            "the read must have waited out the outage"
        );
        reviver.join().unwrap();
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
