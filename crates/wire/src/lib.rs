//! # wire — the transport boundary between components
//!
//! Every inter-component call in this codebase used to be a plain in-process
//! method call: round trips were *counted* but cost nothing, so none of the
//! paper's cluster-scale effects (rack distance, shared-link contention,
//! congestion stragglers) were measurable. This crate makes the boundary
//! explicit:
//!
//! * [`Counters`] — one shared schema for message/byte accounting at every
//!   boundary (client↔DHT node, client↔provider, jobtracker↔tasktracker),
//!   replacing the scattered per-component `round_trips` atomics. Tracks
//!   `bytes_on_wire` per direction so reports and BENCH json files all speak
//!   the same language.
//! * [`Transport`] — the charge point. One call per message exchange
//!   (request out, response back) between two cluster nodes.
//! * [`InProc`] — today's behavior: zero cost, pure accounting. The
//!   differential oracle: results under `InProc` and [`SimNet`] must be
//!   byte-identical; only simulated time differs.
//! * [`SimNet`] — routes every exchange through [`ClusterTopology`] +
//!   [`NetworkModel`], charging per-hop latency and shared-link bandwidth on
//!   a deterministic virtual timeline. No wall-clock sleeps, ever: the
//!   charge is pure ledger arithmetic on [`SimTime`], and the resulting
//!   makespan is read back with [`SimNet::makespan`].
//!
//! ## Cost model
//!
//! `SimNet` keeps a per-source-node ready time (a node issues its next
//! request only after its previous exchange completed) and a per-link
//! busy-until ledger (a link serves one exchange's bytes at a time — the
//! serialization models shared-link bandwidth: concurrent transfers through
//! the same rack uplink queue behind each other). An exchange from `src` to
//! `dst` starts at the max of the source's ready time and the availability
//! of every link on the request and response paths, occupies those links for
//! `bytes/bottleneck_bw`, and completes after two proximity latencies
//! (request + response). Makespan is the completion time of the last
//! exchange.
//!
//! A [`Round`] is the exception to "one after another": exchanges a source
//! sends together and awaits together (the DHT's node batches of one lookup
//! level) all start no earlier than the source's ready time when the round
//! began, and the source is ready again when the last of them completes.
//! They still queue on the links they share.
//!
//! Determinism: the ledger is order-sensitive (as a real shared network is),
//! so a benchmark that wants a reproducible makespan must issue its
//! exchanges in a deterministic order — drive clients round-robin from one
//! thread. Each storage operation issues its exchanges (and rounds) one
//! after another on its caller's thread, so that is enough.
//!
//! ## Source propagation
//!
//! Deeply nested layers (the DHT front-end) do not carry a "which node is
//! calling" parameter through every signature. [`source_guard`] pins the
//! calling node on the current thread; [`current_source`] reads it back at
//! the charge point. The guard does not cross threads — work handed to
//! another thread must charge with an explicit source.

use parking_lot::Mutex;
use serde::Serialize;
use simcluster::netmodel::{LinkId, NetworkModel};
use simcluster::time::{transfer_time, SimDuration, SimTime};
use simcluster::topology::{ClusterTopology, NodeId};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Whether an exchange is read-shaped (small request, payload response) or
/// write-shaped (payload request, small response). Used only to bucket the
/// message counters; byte accounting is explicit per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// A query: the payload flows back to the caller.
    Read,
    /// A mutation: the payload flows to the callee.
    Write,
}

/// Fixed per-message framing overhead (header, key framing, status) added by
/// charge sites on top of the payload bytes, so that a zero-byte control
/// message still moves something.
pub const MSG_OVERHEAD: u64 = 16;

/// The shared message/byte accounting schema for one component boundary.
///
/// All counters are monotonic and lock-free; `messages` is always the sum of
/// `read_messages` and `write_messages`. One message = one node contact (a
/// batch folded into a single exchange counts once — this is the counter
/// that shrinks when callers coalesce).
#[derive(Debug, Default)]
pub struct Counters {
    messages: AtomicU64,
    read_messages: AtomicU64,
    write_messages: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

impl Counters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one exchange: `bytes_out` left the caller, `bytes_in` came
    /// back.
    pub fn record(&self, dir: Direction, bytes_out: u64, bytes_in: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        match dir {
            Direction::Read => self.read_messages.fetch_add(1, Ordering::Relaxed),
            Direction::Write => self.write_messages.fetch_add(1, Ordering::Relaxed),
        };
        self.bytes_sent.fetch_add(bytes_out, Ordering::Relaxed);
        self.bytes_received.fetch_add(bytes_in, Ordering::Relaxed);
    }

    /// Total exchanges (node contacts) recorded.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// The read-shaped subset of [`Counters::messages`].
    pub fn read_messages(&self) -> u64 {
        self.read_messages.load(Ordering::Relaxed)
    }

    /// The write-shaped subset of [`Counters::messages`].
    pub fn write_messages(&self) -> u64 {
        self.write_messages.load(Ordering::Relaxed)
    }

    /// Bytes sent caller-to-callee (requests).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes received callee-to-caller (responses).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Total bytes moved in either direction.
    pub fn bytes_on_wire(&self) -> u64 {
        self.bytes_sent() + self.bytes_received()
    }

    /// A consistent-enough copy for reporting (individual fields are read
    /// relaxed; use when traffic is quiesced for exact figures).
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            messages: self.messages(),
            read_messages: self.read_messages(),
            write_messages: self.write_messages(),
            bytes_sent: self.bytes_sent(),
            bytes_received: self.bytes_received(),
            bytes_on_wire: self.bytes_on_wire(),
        }
    }
}

/// A point-in-time copy of [`Counters`]: the one schema every report and
/// BENCH json uses for wire traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CountersSnapshot {
    /// Total exchanges (node contacts).
    pub messages: u64,
    /// Read-shaped exchanges.
    pub read_messages: u64,
    /// Write-shaped exchanges.
    pub write_messages: u64,
    /// Bytes sent caller-to-callee.
    pub bytes_sent: u64,
    /// Bytes received callee-to-caller.
    pub bytes_received: u64,
    /// Sum of both directions.
    pub bytes_on_wire: u64,
}

impl CountersSnapshot {
    /// Sum two snapshots (aggregate several boundaries into one figure).
    pub fn merged(&self, other: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            messages: self.messages + other.messages,
            read_messages: self.read_messages + other.read_messages,
            write_messages: self.write_messages + other.write_messages,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
            bytes_on_wire: self.bytes_on_wire + other.bytes_on_wire,
        }
    }

    /// The traffic recorded since `earlier` (fields saturate at zero).
    pub fn since(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            messages: self.messages.saturating_sub(earlier.messages),
            read_messages: self.read_messages.saturating_sub(earlier.read_messages),
            write_messages: self.write_messages.saturating_sub(earlier.write_messages),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            bytes_on_wire: self.bytes_on_wire.saturating_sub(earlier.bytes_on_wire),
        }
    }
}

/// The charge point between two components on different cluster nodes.
///
/// One call = one message exchange: a request of `bytes_out` bytes from
/// `src` to `dst` and a response of `bytes_in` bytes back. Implementations
/// return the simulated duration of the exchange; they never sleep.
pub trait Transport: Send + Sync {
    /// Charge one request/response exchange and return its simulated cost.
    fn exchange(
        &self,
        src: NodeId,
        dst: NodeId,
        dir: Direction,
        bytes_out: u64,
        bytes_in: u64,
    ) -> SimDuration;

    /// Charge one exchange of `round`: sent with the round's other
    /// exchanges, its reply awaited with theirs. The default charges it
    /// like a lone [`Transport::exchange`], one after another.
    fn exchange_in(
        &self,
        round: &mut Round,
        dst: NodeId,
        dir: Direction,
        bytes_out: u64,
        bytes_in: u64,
    ) -> SimDuration {
        self.exchange(round.src, dst, dir, bytes_out, bytes_in)
    }

    /// Close `round`: its source issues nothing further until the round's
    /// last reply is in.
    fn end_round(&self, _round: &Round) {}

    /// Human-readable transport name for reports.
    fn name(&self) -> &'static str;
}

/// Exchanges one source sends together and whose replies it awaits
/// together: one request to each of several nodes, like a lookup level's
/// node batches. Charge each with [`Transport::exchange_in`] as it is
/// served, then close the round with [`Transport::end_round`].
#[derive(Debug)]
pub struct Round {
    src: NodeId,
    /// When the round's requests left (its source's ready time at the
    /// first exchange).
    issued: Option<SimTime>,
    /// When the round's last reply arrived.
    done: SimTime,
}

impl Round {
    /// An empty round from `src`.
    pub fn new(src: NodeId) -> Self {
        Round {
            src,
            issued: None,
            done: SimTime::ZERO,
        }
    }
}

/// The zero-cost transport: every exchange completes instantly. This is the
/// pre-wire behavior and the differential oracle — a workload must produce
/// byte-identical results under `InProc` and [`SimNet`].
#[derive(Debug, Default)]
pub struct InProc;

impl InProc {
    /// A zero-cost transport.
    pub fn new() -> Self {
        InProc
    }
}

impl Transport for InProc {
    fn exchange(
        &self,
        _src: NodeId,
        _dst: NodeId,
        _dir: Direction,
        _bytes_out: u64,
        _bytes_in: u64,
    ) -> SimDuration {
        SimDuration::ZERO
    }

    fn name(&self) -> &'static str {
        "inproc"
    }
}

/// Ledger state of the simulated network: when each source node and each
/// link becomes free again, plus the completion time of the last exchange.
#[derive(Debug, Default)]
struct SimNetState {
    node_ready: HashMap<u32, SimTime>,
    link_free: HashMap<LinkId, SimTime>,
    makespan: SimTime,
    exchanges: u64,
}

/// The charged transport: every exchange is routed through the topology's
/// link path and pays proximity latency plus serialized bandwidth on every
/// shared link (see the crate docs for the cost model). Purely virtual time
/// — no thread ever sleeps.
pub struct SimNet {
    topology: ClusterTopology,
    model: NetworkModel,
    state: Mutex<SimNetState>,
}

impl SimNet {
    /// A charged transport over the given topology and hardware model.
    pub fn new(topology: ClusterTopology, model: NetworkModel) -> Self {
        SimNet {
            topology,
            model,
            state: Mutex::new(SimNetState::default()),
        }
    }

    /// Completion time of the last exchange on the virtual timeline — the
    /// simulated makespan of everything charged so far.
    pub fn makespan(&self) -> SimDuration {
        let s = self.state.lock();
        s.makespan.duration_since(SimTime::ZERO)
    }

    /// Number of exchanges charged.
    pub fn exchanges(&self) -> u64 {
        self.state.lock().exchanges
    }

    /// Reset the virtual timeline (start a new measured phase on the same
    /// deployment).
    pub fn reset(&self) {
        *self.state.lock() = SimNetState::default();
    }

    /// The topology this transport routes over.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The hardware model this transport charges with.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }
}

impl Transport for SimNet {
    /// A lone exchange is a round of one.
    fn exchange(
        &self,
        src: NodeId,
        dst: NodeId,
        dir: Direction,
        bytes_out: u64,
        bytes_in: u64,
    ) -> SimDuration {
        let mut round = Round::new(src);
        let took = self.exchange_in(&mut round, dst, dir, bytes_out, bytes_in);
        self.end_round(&round);
        took
    }

    /// Every exchange of a round may start when the round's first did: the
    /// source waits for none of them before sending the next, only for all
    /// of them at [`Transport::end_round`]. Shared links still serve their
    /// bytes one exchange at a time.
    fn exchange_in(
        &self,
        round: &mut Round,
        dst: NodeId,
        _dir: Direction,
        bytes_out: u64,
        bytes_in: u64,
    ) -> SimDuration {
        let src = round.src;
        let latency = self.model.latency(self.topology.proximity(src, dst));
        let out_path = self.model.path(&self.topology, src, dst);
        let in_path = self.model.path(&self.topology, dst, src);
        let xfer = transfer_time(bytes_out, self.model.path_capacity(&out_path))
            + transfer_time(bytes_in, self.model.path_capacity(&in_path));

        let mut s = self.state.lock();
        let ready = s.node_ready.get(&src.0).copied().unwrap_or(SimTime::ZERO);
        let mut start = *round.issued.get_or_insert(ready);
        for link in out_path.iter().chain(in_path.iter()) {
            if let Some(&free) = s.link_free.get(link) {
                start = start.max(free);
            }
        }
        // The links serve this exchange's bytes back to back; the two
        // proximity latencies (request out, response back) are propagation
        // delay and do not occupy the links.
        let busy_until = start + xfer;
        for link in out_path.into_iter().chain(in_path) {
            s.link_free.insert(link, busy_until);
        }
        let end = busy_until + latency + latency;
        round.done = round.done.max(end);
        s.makespan = s.makespan.max(end);
        s.exchanges += 1;
        end.duration_since(start)
    }

    fn end_round(&self, round: &Round) {
        let mut s = self.state.lock();
        let ready = s.node_ready.entry(round.src.0).or_insert(SimTime::ZERO);
        *ready = (*ready).max(round.done);
    }

    fn name(&self) -> &'static str {
        "simnet"
    }
}

thread_local! {
    static SOURCE: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Pins `node` as the calling source for transport charges made from this
/// thread while the guard lives (restores the previous source on drop).
pub struct SourceGuard {
    prev: Option<u32>,
}

/// Pin the calling cluster node for charges made on this thread. Nested
/// guards stack; the guard must not be sent across threads (it is not
/// `Send`), and pool workers spawned while it is held do *not* inherit it.
pub fn source_guard(node: NodeId) -> SourceGuard {
    let prev = SOURCE.with(|s| s.replace(Some(node.0)));
    SourceGuard { prev }
}

/// The source node pinned on this thread, if any.
pub fn current_source() -> Option<NodeId> {
    SOURCE.with(|s| s.get()).map(NodeId)
}

impl Drop for SourceGuard {
    fn drop(&mut self) {
        SOURCE.with(|s| s.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rack_topo() -> ClusterTopology {
        ClusterTopology::builder()
            .sites(1)
            .racks_per_site(2)
            .nodes_per_rack(2)
            .build()
    }

    #[test]
    fn counters_bucket_by_direction_and_sum_bytes() {
        let c = Counters::new();
        c.record(Direction::Read, 10, 100);
        c.record(Direction::Write, 200, 5);
        c.record(Direction::Read, 1, 2);
        assert_eq!(c.messages(), 3);
        assert_eq!(c.read_messages(), 2);
        assert_eq!(c.write_messages(), 1);
        assert_eq!(c.bytes_sent(), 211);
        assert_eq!(c.bytes_received(), 107);
        assert_eq!(c.bytes_on_wire(), 318);
        let snap = c.snapshot();
        assert_eq!(snap.messages, 3);
        assert_eq!(snap.bytes_on_wire, 318);
    }

    #[test]
    fn snapshot_merge_and_since() {
        let a = CountersSnapshot {
            messages: 3,
            read_messages: 2,
            write_messages: 1,
            bytes_sent: 10,
            bytes_received: 20,
            bytes_on_wire: 30,
        };
        let b = a.merged(&a);
        assert_eq!(b.messages, 6);
        assert_eq!(b.bytes_on_wire, 60);
        let d = b.since(&a);
        assert_eq!(d, a);
        // `since` an unrelated larger snapshot saturates, never wraps.
        assert_eq!(a.since(&b).messages, 0);
    }

    #[test]
    fn inproc_is_free() {
        let t = InProc::new();
        let topo = two_rack_topo();
        let d = t.exchange(
            topo.node(0),
            topo.node(1),
            Direction::Read,
            1 << 20,
            1 << 20,
        );
        assert_eq!(d, SimDuration::ZERO);
        assert_eq!(t.name(), "inproc");
    }

    #[test]
    fn simnet_charges_latency_and_bandwidth() {
        let topo = two_rack_topo();
        let net = SimNet::new(topo.clone(), NetworkModel::grid5000_like());
        assert_eq!(net.makespan(), SimDuration::ZERO);
        let d = net.exchange(topo.node(0), topo.node(1), Direction::Read, 0, 1 << 20);
        // 1 MiB over a ~117 MiB/s NIC plus two rack latencies: > 8 ms.
        assert!(d.as_secs_f64() > 0.008, "charged {d}");
        assert_eq!(net.makespan(), d);
        assert_eq!(net.exchanges(), 1);
    }

    #[test]
    fn farther_destinations_cost_more() {
        let topo = ClusterTopology::builder()
            .sites(2)
            .racks_per_site(2)
            .nodes_per_rack(2)
            .build();
        let bytes = 4 << 20;
        let cost_at = |dst: u32| {
            let net = SimNet::new(topo.clone(), NetworkModel::grid5000_like());
            net.exchange(topo.node(0), topo.node(dst), Direction::Read, 64, bytes)
        };
        let same_rack = cost_at(1);
        let same_site = cost_at(2);
        let remote = cost_at(4);
        assert!(same_rack <= same_site);
        assert!(same_site < remote, "{same_site} vs {remote}");
    }

    #[test]
    fn shared_links_serialize_concurrent_exchanges() {
        // Two different sources hitting the same destination share its
        // ingress NIC: the second exchange queues behind the first, so the
        // makespan exceeds either exchange in isolation.
        let topo = ClusterTopology::flat(3);
        let net = SimNet::new(topo.clone(), NetworkModel::grid5000_like());
        let alone = {
            let solo = SimNet::new(topo.clone(), NetworkModel::grid5000_like());
            solo.exchange(topo.node(0), topo.node(2), Direction::Write, 8 << 20, 16);
            solo.makespan()
        };
        net.exchange(topo.node(0), topo.node(2), Direction::Write, 8 << 20, 16);
        net.exchange(topo.node(1), topo.node(2), Direction::Write, 8 << 20, 16);
        assert!(
            net.makespan().as_micros() > (alone.as_micros() * 3) / 2,
            "contended {} vs isolated {}",
            net.makespan(),
            alone
        );
    }

    #[test]
    fn a_source_pipelines_after_its_previous_exchange() {
        // One source issuing two exchanges to different destinations: the
        // second starts after the first completed (a client thread blocks on
        // its reply), so the makespan is at least the sum of transfer times.
        let topo = ClusterTopology::flat(4);
        let net = SimNet::new(topo.clone(), NetworkModel::grid5000_like());
        let d1 = net.exchange(topo.node(0), topo.node(1), Direction::Write, 4 << 20, 16);
        let d2 = net.exchange(topo.node(0), topo.node(2), Direction::Write, 4 << 20, 16);
        assert!(net.makespan().as_micros() >= d1.as_micros() + d2.as_micros() - 1);
    }

    #[test]
    fn a_round_waits_for_its_slowest_exchange_not_their_sum() {
        // One source asks three nodes at once, then one more alone: the
        // round ends with its slowest reply, and the lone exchange starts
        // only after it.
        let topo = two_rack_topo();
        let ask = |net: &SimNet, round: Option<&mut Round>| match round {
            Some(round) => (1..4)
                .map(|d| net.exchange_in(round, topo.node(d), Direction::Read, 64, 4096))
                .max()
                .unwrap(),
            None => (1..4)
                .map(|d| net.exchange(topo.node(0), topo.node(d), Direction::Read, 64, 4096))
                .fold(SimDuration::ZERO, |a, b| a + b),
        };
        let serial = SimNet::new(topo.clone(), NetworkModel::grid5000_like());
        let sum = ask(&serial, None);
        assert_eq!(serial.makespan(), sum);

        let net = SimNet::new(topo.clone(), NetworkModel::grid5000_like());
        let mut round = Round::new(topo.node(0));
        let slowest = ask(&net, Some(&mut round));
        net.end_round(&round);
        let round_end = net.makespan();
        assert!(round_end >= slowest);
        assert!(
            round_end < sum,
            "round {round_end} vs one after another {sum}"
        );
        let lone = net.exchange(topo.node(0), topo.node(1), Direction::Read, 64, 4096);
        assert_eq!(net.makespan(), round_end + lone);
    }

    #[test]
    fn reset_clears_the_timeline() {
        let topo = ClusterTopology::flat(2);
        let net = SimNet::new(topo.clone(), NetworkModel::grid5000_like());
        net.exchange(topo.node(0), topo.node(1), Direction::Read, 64, 1 << 20);
        assert!(net.makespan() > SimDuration::ZERO);
        net.reset();
        assert_eq!(net.makespan(), SimDuration::ZERO);
        assert_eq!(net.exchanges(), 0);
    }

    #[test]
    fn source_guard_nests_and_restores() {
        let topo = ClusterTopology::flat(3);
        assert_eq!(current_source(), None);
        {
            let _a = source_guard(topo.node(1));
            assert_eq!(current_source(), Some(topo.node(1)));
            {
                let _b = source_guard(topo.node(2));
                assert_eq!(current_source(), Some(topo.node(2)));
            }
            assert_eq!(current_source(), Some(topo.node(1)));
        }
        assert_eq!(current_source(), None);
    }

    #[test]
    fn identical_exchange_sequences_are_deterministic() {
        let topo = ClusterTopology::grid5000_270();
        let model = NetworkModel::grid5000_like();
        let run = || {
            let net = SimNet::new(topo.clone(), model.clone());
            for i in 0..200u32 {
                let src = topo.node(i % 30);
                let dst = topo.node((i * 7 + 3) % 270);
                net.exchange(src, dst, Direction::Read, 64, u64::from(i) * 1024);
            }
            net.makespan()
        };
        assert_eq!(run(), run());
    }
}
