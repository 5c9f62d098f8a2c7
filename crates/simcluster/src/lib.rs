//! # simcluster — a Grid'5000 stand-in
//!
//! The paper evaluates BSFS and HDFS on the Grid'5000 experimental testbed:
//! 270 physical nodes spread over racks and sites, with up to 250 concurrent
//! clients each moving about 1 GB of data. We obviously cannot requisition a
//! grid from a test suite, so this crate provides the pieces needed to run the
//! *same experiments* at the *same scale* on a single machine:
//!
//! * [`topology`] — a declarative description of nodes, racks and sites with a
//!   convenience builder for Grid'5000-like deployments,
//! * [`time`] — a virtual clock ([`time::SimTime`], [`time::SimDuration`])
//!   with microsecond resolution,
//! * [`clock`] — injectable clocks for *thread-based* components: the
//!   [`clock::Clock`] trait with a production [`clock::WallClock`] and a
//!   manually advanced [`clock::SimClock`] whose sleeps are virtual (used by
//!   the MapReduce straggler/speculation tests),
//! * [`netmodel`] — per-link bandwidth/latency parameters and path
//!   computation between any two nodes,
//! * [`flowsim`] — a deterministic flow-level network simulator using
//!   progressive-filling max-min fair bandwidth sharing; client processes are
//!   sequences of transfers and compute phases, and the simulator reports
//!   per-process completion times and aggregate throughput,
//! * [`failure`] — churn schedules ([`failure::ChurnSchedule`]) interleaving
//!   kill and join events at chosen virtual times or a configurable rate,
//! * [`detector`] — a timeout/suspicion heartbeat failure detector driven on
//!   any [`clock::Clock`], so components discover dead peers rather than
//!   being told,
//! * [`replica`] — the one repair loop of every replicated tier: probe,
//!   list, plan, copy, settle ([`replica::ReplicaHealth::repair`]),
//! * [`metrics`] — small helpers to aggregate throughput series,
//! * [`fs`] — the file-system layer's shared mechanisms: the namespace tree
//!   ([`fs::Namespace`], generic over what a file is) and the block
//!   [`fs::WriteBuffer`], used alike by BSFS and the HDFS baseline.
//!
//! The storage systems themselves (`blobseer`, `hdfs-sim`, `bsfs`) are real
//! implementations that move real bytes; this crate's simulator is only
//! consulted when an experiment wants *paper-scale* numbers: the experiment harness asks the
//! storage system where each block would be placed (using its real placement
//! logic) and feeds the resulting transfers into [`flowsim::FlowSimulator`].
//!
//! ## Quick example
//!
//! ```
//! use simcluster::topology::ClusterTopology;
//! use simcluster::netmodel::NetworkModel;
//! use simcluster::flowsim::{ClientProcess, FlowSimulator, Step};
//!
//! // 2 sites x 2 racks x 4 nodes = 16 nodes.
//! let topo = ClusterTopology::builder()
//!     .sites(2)
//!     .racks_per_site(2)
//!     .nodes_per_rack(4)
//!     .build();
//! let net = NetworkModel::grid5000_like();
//! let mut sim = FlowSimulator::new(&topo, net);
//!
//! // One client on node 0 pushes 64 MiB to node 5.
//! let p = ClientProcess::new(topo.node(0))
//!     .then(Step::transfer(topo.node(0), topo.node(5), 64 << 20));
//! let report = sim.run(vec![p]);
//! assert!(report.makespan().as_secs_f64() > 0.0);
//! ```

pub mod clock;
pub mod detector;
pub mod failure;
pub mod flowsim;
pub mod fs;
pub mod metrics;
pub mod netmodel;
pub mod replica;
pub mod time;
pub mod topology;

pub use clock::{Clock, SimClock, WallClock};
pub use detector::{FailureDetector, SUSPICION_TIMEOUT};
pub use failure::{ChurnEvent, ChurnEventKind, ChurnSchedule};
pub use flowsim::{ClientProcess, FlowSimulator, SimReport, Step};
pub use netmodel::NetworkModel;
pub use time::{SimDuration, SimTime};
pub use topology::{ClusterTopology, NodeId, RackId, SiteId};

/// One step of the xorshift64 generator (shifts 13, 7, 17): the seeded
/// stream behind every reproducible draw of the storage and experiment code
/// (placement, cache eviction slots, churn schedules). Zero maps to zero,
/// so a stream must start from a non-zero seed.
#[inline]
pub fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
