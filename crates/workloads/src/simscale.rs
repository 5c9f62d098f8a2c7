//! Paper-scale experiments: the §IV-B microbenchmarks replayed at the size of
//! the Grid'5000 deployment (270 nodes, up to 250 concurrent clients, ~1 GiB
//! per client) through the flow-level network simulator.
//!
//! The *placement decisions* come from the real storage code paths — the
//! BlobSeer provider manager's load-balanced allocation and the HDFS
//! namenode's rack-aware, local-first policy — and only the data movement is
//! modelled (who sends how many bytes to whom, over which links, with which
//! contention). That is exactly the substitution documented in DESIGN.md: the
//! paper's comparative results are driven by placement-induced contention,
//! which the max-min-fair flow model reproduces, not by packet-level effects.
//!
//! Three experiment builders mirror the three microbenchmarks:
//!
//! * [`sim_write_distinct`] — E3, concurrent writes to different files;
//! * [`sim_read_distinct`] — E1, concurrent reads from different files
//!   (pre-loaded by other nodes);
//! * [`sim_read_shared`]   — E2, concurrent reads of disjoint parts of one
//!   huge file (pre-loaded by a single loader node).

use blobseer::{PlacementStrategy, ProviderManager, StorageNode};
use hdfs_sim::PlacementPolicy;
use simcluster::flowsim::{ClientProcess, Flow, FlowSimulator, SimReport, Step};
use simcluster::netmodel::NetworkModel;
use simcluster::topology::ClusterTopology;
use simcluster::NodeId;

/// Which storage system's placement logic drives the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageSystem {
    /// BSFS over BlobSeer: pages distributed over all providers by the
    /// load-balancing provider manager.
    Bsfs,
    /// HDFS: chunks placed local-first with rack-aware replicas.
    Hdfs,
}

impl StorageSystem {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            StorageSystem::Bsfs => "BSFS",
            StorageSystem::Hdfs => "HDFS",
        }
    }
}

/// Parameters of a paper-scale run.
///
/// As in the paper's deployment, the cluster is split between **storage
/// nodes** (which host the BlobSeer providers / HDFS datanodes) and **client
/// nodes** (which run the benchmark processes). Keeping the two roles on
/// separate machines is what exposes the placement difference the paper
/// measures: an HDFS client that is not itself a datanode gets its whole file
/// placed on one (randomly chosen) datanode, while BlobSeer stripes every
/// file over all providers.
#[derive(Debug, Clone)]
pub struct SimScaleConfig {
    /// Cluster topology (defaults to the 270-node Grid'5000 shape).
    pub topology: ClusterTopology,
    /// Network parameters.
    pub network: NetworkModel,
    /// How many of the topology's nodes host storage daemons; the first
    /// `storage_nodes` node ids are storage, the rest run clients.
    pub storage_nodes: usize,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Bytes processed per client (1 GiB in the paper).
    pub bytes_per_client: u64,
    /// Block/chunk/page size (64 MiB in the paper).
    pub block_size: u64,
    /// Replication factor applied by both systems (1 isolates the placement
    /// effect, matching the throughput-oriented microbenchmarks).
    pub replication: usize,
    /// How many pages a BlobSeer block is striped into. BlobSeer's page is
    /// its data-management unit and is configured smaller than the Hadoop
    /// block, so a 64 MiB block is written to — and later read from — several
    /// providers in parallel. HDFS always moves whole chunks.
    pub pages_per_block: usize,
}

impl SimScaleConfig {
    /// The paper's setup: a 270-node Grid'5000 cluster reservation (single
    /// site, 18 racks of 15 nodes behind non-blocking GbE switching) in the
    /// standard co-located Hadoop layout (every node hosts a storage daemon
    /// and can run a client), 64 MiB blocks, 1 GiB per client, replication 1,
    /// and the requested number of concurrent clients.
    pub fn paper(clients: usize) -> Self {
        let topology = ClusterTopology::builder()
            .sites(1)
            .racks_per_site(18)
            .nodes_per_rack(15)
            .build();
        let storage_nodes = topology.num_nodes();
        SimScaleConfig {
            topology,
            network: NetworkModel::grid5000_like(),
            storage_nodes,
            clients,
            bytes_per_client: 1 << 30,
            block_size: 64 << 20,
            replication: 1,
            pages_per_block: 4,
        }
    }

    /// A small co-located configuration for unit tests (16 nodes, 4 MiB per
    /// client).
    pub fn small(clients: usize) -> Self {
        SimScaleConfig {
            topology: ClusterTopology::builder()
                .sites(1)
                .racks_per_site(4)
                .nodes_per_rack(4)
                .build(),
            network: NetworkModel::grid5000_like(),
            storage_nodes: 16,
            clients,
            bytes_per_client: 4 << 20,
            block_size: 1 << 20,
            replication: 1,
            pages_per_block: 4,
        }
    }

    /// A co-located deployment (every node runs both a storage daemon and a
    /// client), the standard Hadoop layout. Used by the A1 placement ablation,
    /// where "write the first copy locally" only means something if the writer
    /// actually hosts a storage daemon.
    pub fn paper_colocated(clients: usize) -> Self {
        Self::paper(clients)
    }

    #[doc(hidden)]
    pub fn paper_colocated_multisite(clients: usize) -> Self {
        let topology = ClusterTopology::grid5000_270();
        let storage_nodes = topology.num_nodes();
        SimScaleConfig {
            topology,
            network: NetworkModel::grid5000_like(),
            storage_nodes,
            clients,
            bytes_per_client: 1 << 30,
            block_size: 64 << 20,
            replication: 1,
            pages_per_block: 4,
        }
    }

    /// A small co-located configuration for unit tests.
    pub fn small_colocated(clients: usize) -> Self {
        let mut config = Self::small(clients);
        config.storage_nodes = config.topology.num_nodes();
        config
    }

    /// Number of blocks each client moves.
    pub fn blocks_per_client(&self) -> u64 {
        self.bytes_per_client.div_ceil(self.block_size)
    }

    /// The nodes hosting providers / datanodes.
    pub fn storage_node_ids(&self) -> Vec<NodeId> {
        (0..self.storage_nodes as u32)
            .map(|i| self.topology.node(i))
            .collect()
    }

    /// The node client `i` runs on. In a split deployment clients are spread
    /// one per non-storage node (wrapping around when there are more clients
    /// than client nodes); in a co-located deployment they are spread over
    /// all nodes.
    pub fn client_node(&self, i: usize) -> NodeId {
        let client_nodes = self.topology.num_nodes() - self.storage_nodes;
        if client_nodes == 0 {
            // Co-located: stride by a constant coprime with typical cluster
            // sizes so that any prefix of clients is spread over racks and
            // sites instead of filling the first rack (which is how real
            // multi-site reservations hand out nodes).
            let n = self.topology.num_nodes();
            self.topology.node(((i * 53) % n) as u32)
        } else {
            self.topology
                .node((self.storage_nodes + i % client_nodes) as u32)
        }
    }

    /// The node that pre-loaded item `i` (a whole file in E1, one block of
    /// the shared file in E2) during the ingestion phase that precedes the
    /// measurement. The scatter is a deterministic hash: real load phases do
    /// not carefully round-robin their tasks, so some nodes end up holding
    /// the data of several files — the collisions that hurt HDFS's
    /// whole-chunk reads under concurrency.
    pub fn loader_node(&self, i: usize) -> NodeId {
        // splitmix64 finalizer: a well-mixed deterministic hash of the index.
        let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let hashed = z ^ (z >> 31);
        let client_nodes = self.topology.num_nodes() - self.storage_nodes;
        if client_nodes == 0 {
            self.topology
                .node((hashed % self.topology.num_nodes() as u64) as u32)
        } else {
            self.topology
                .node((self.storage_nodes as u64 + hashed % client_nodes as u64) as u32)
        }
    }
}

/// Back-compatible helper used by tests: client `i`'s node under `config`.
pub fn client_node(topology: &ClusterTopology, i: usize) -> NodeId {
    topology.node((i % topology.num_nodes()) as u32)
}

/// Back-compatible helper used by tests: loader node for file `i`.
pub fn loader_node(topology: &ClusterTopology, i: usize) -> NodeId {
    topology.node(((i * 7 + 13) % topology.num_nodes()) as u32)
}

/// Layout of one block: the parallel transfers that move it, each entry being
/// `(replica nodes, bytes)`. A BSFS block is striped into `pages_per_block`
/// pages living on distinct providers; an HDFS block is one whole-chunk
/// transfer (replicated as a unit).
type BlockLayout = Vec<(Vec<NodeId>, u64)>;

/// Per client, per block: the block's layout.
type Placements = Vec<Vec<BlockLayout>>;

/// Fisher-Yates shuffle driven by a seeded xorshift generator, so experiment
/// placements are reproducible run to run.
fn deterministic_shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed.max(1);
    let mut next = || {
        state = simcluster::xorshift64(state);
        state
    };
    for i in (1..items.len()).rev() {
        let j = (next() as usize) % (i + 1);
        items.swap(i, j);
    }
}

/// Compute placements using the real placement logic of the selected system,
/// as if client `i`'s blocks were written from `writer_nodes[i]`. Blocks are
/// allocated round-robin across clients to mimic interleaved concurrent
/// writers.
fn compute_placements(
    system: StorageSystem,
    config: &SimScaleConfig,
    writer_nodes: &[NodeId],
) -> Placements {
    let topo = &config.topology;
    let blocks = config.blocks_per_client();
    let mut placements: Placements = vec![vec![Vec::new(); blocks as usize]; writer_nodes.len()];

    let storage_nodes = config.storage_node_ids();
    match system {
        StorageSystem::Bsfs => {
            let manager = ProviderManager::new(
                topo,
                &StorageNode::fleet(&storage_nodes),
                PlacementStrategy::LoadBalanced,
            );
            let pages = config.pages_per_block.max(1) as u64;
            let page_bytes = config.block_size / pages;
            // Allocation requests reach the provider manager in whatever
            // order the concurrent producer tasks happened to issue them, not
            // neatly file-by-file. Replay them in a deterministic shuffled
            // order so the page->provider assignment reflects that
            // interleaving; the load-balanced strategy keeps the global
            // distribution even regardless of order, but a block-sequential
            // replay would create artificial provider "sets" that lock-step
            // readers then hit in unison.
            let mut requests: Vec<(usize, u64, u64)> = Vec::new();
            for block in 0..blocks {
                for client in 0..writer_nodes.len() {
                    for page in 0..pages {
                        requests.push((client, block, page));
                    }
                }
            }
            deterministic_shuffle(&mut requests, 0x5EED_2010);
            for placement in placements.iter_mut() {
                for block in placement.iter_mut() {
                    *block = vec![(Vec::new(), page_bytes); pages as usize];
                }
            }
            for (client, block, page) in requests {
                let allocation = manager.allocate(1, config.replication, writer_nodes[client]);
                let nodes: Vec<NodeId> = allocation[0]
                    .iter()
                    .filter_map(|p| manager.node_of(*p))
                    .collect();
                placements[client][block as usize][page as usize] = (nodes, page_bytes);
            }
        }
        StorageSystem::Hdfs => {
            let datanodes = StorageNode::fleet(&storage_nodes);
            let policy = PlacementPolicy::new(topo, 2010);
            for block in 0..blocks {
                for (client, writer) in writer_nodes.iter().enumerate() {
                    let chosen = policy.choose(&datanodes, config.replication, *writer);
                    let nodes: Vec<NodeId> = chosen
                        .iter()
                        .map(|d| datanodes[d.0 as usize].host())
                        .collect();
                    placements[client][block as usize] = vec![(nodes, config.block_size)];
                }
            }
        }
    }
    placements
}

/// The replica of `replicas` closest to `reader` (HDFS clients read from the
/// nearest replica; BSFS readers fetch from the page's providers, preferring
/// a close one when the page is replicated).
fn closest_replica(topology: &ClusterTopology, reader: NodeId, replicas: &[NodeId]) -> NodeId {
    *replicas
        .iter()
        .min_by_key(|n| topology.proximity(reader, **n))
        .expect("every block has at least one replica")
}

/// E3 — concurrent writes to different files. Each client streams its blocks
/// to the replicas chosen by the system's placement policy.
pub fn sim_write_distinct(system: StorageSystem, config: &SimScaleConfig) -> SimReport {
    let writer_nodes: Vec<NodeId> = (0..config.clients).map(|i| config.client_node(i)).collect();
    let placements = compute_placements(system, config, &writer_nodes);
    // Durability differs by design: an HDFS datanode writes each chunk to its
    // local file system synchronously in the write path, whereas BlobSeer
    // providers absorb pages in memory and persist them asynchronously
    // (through the BerkeleyDB layer), so only HDFS pays the disk on the
    // critical path. This, combined with the local-first placement, is what
    // bounds an HDFS writer at local-disk speed while a BSFS writer streams
    // at NIC speed across many providers.
    let durable = matches!(system, StorageSystem::Hdfs);
    run_write_processes(config, &writer_nodes, &placements, durable)
}

/// A1 ablation — the write pattern driven by an arbitrary BlobSeer placement
/// strategy (load-balanced, local-first, random), so the effect of the
/// placement policy can be isolated from everything else.
pub fn sim_write_with_strategy(strategy: PlacementStrategy, config: &SimScaleConfig) -> SimReport {
    let topo = &config.topology;
    let writer_nodes: Vec<NodeId> = (0..config.clients).map(|i| config.client_node(i)).collect();
    let storage_nodes = config.storage_node_ids();
    let manager = ProviderManager::new(topo, &StorageNode::fleet(&storage_nodes), strategy);
    let blocks = config.blocks_per_client();
    let pages = config.pages_per_block.max(1) as u64;
    let page_bytes = config.block_size / pages;
    let mut placements: Placements = vec![vec![Vec::new(); blocks as usize]; writer_nodes.len()];
    for block in 0..blocks {
        for (client, writer) in writer_nodes.iter().enumerate() {
            let allocation = manager.allocate(pages, config.replication, *writer);
            placements[client][block as usize] = allocation
                .iter()
                .map(|replicas| {
                    let nodes = replicas
                        .iter()
                        .filter_map(|p| manager.node_of(*p))
                        .collect();
                    (nodes, page_bytes)
                })
                .collect();
        }
    }
    // The ablation isolates the durable-write path: every copy must reach its
    // provider's disk, which is what makes the local-first concentration
    // expensive.
    run_write_processes(config, &writer_nodes, &placements, true)
}

/// Build and run the writer processes for a precomputed placement: one step
/// per block, whose parallel flows push every stripe to every one of its
/// replicas.
fn run_write_processes(
    config: &SimScaleConfig,
    writer_nodes: &[NodeId],
    placements: &Placements,
    durable: bool,
) -> SimReport {
    let processes: Vec<ClientProcess> = (0..writer_nodes.len())
        .map(|i| {
            let me = writer_nodes[i];
            let steps = placements[i].iter().map(|layout| {
                Step::parallel(
                    layout
                        .iter()
                        .flat_map(|(replicas, bytes)| {
                            replicas.iter().map(move |r| {
                                if durable {
                                    Flow::write_to_storage(me, *r, *bytes)
                                } else {
                                    Flow::new(me, *r, *bytes)
                                }
                            })
                        })
                        .collect(),
                )
            });
            ClientProcess::new(me)
                .labelled(format!("writer-{i}"))
                .then_all(steps)
        })
        .collect();
    FlowSimulator::new(&config.topology, config.network.clone()).run(processes)
}

/// Reader process for one client over a sequence of block layouts: one step
/// per block, fetching each stripe in parallel from its closest replica.
fn reader_process(
    config: &SimScaleConfig,
    me: NodeId,
    label: String,
    blocks: &[BlockLayout],
) -> ClientProcess {
    let steps = blocks.iter().map(|layout| {
        Step::parallel(
            layout
                .iter()
                .map(|(replicas, bytes)| {
                    let source = closest_replica(&config.topology, me, replicas);
                    // Reads are served from the storage nodes' page cache in
                    // the paper's regime, so only the network path is modelled.
                    Flow::new(source, me, *bytes)
                })
                .collect(),
        )
    });
    ClientProcess::new(me).labelled(label).then_all(steps)
}

/// E1 — concurrent reads from different files. Client `i` reads back a file
/// that was pre-loaded from `loader_node(i)`, block by block, each block's
/// stripes fetched in parallel from the closest replicas.
pub fn sim_read_distinct(system: StorageSystem, config: &SimScaleConfig) -> SimReport {
    // Each client reads a file produced earlier by some other node's task
    // (the measured case; a reader co-located with its file would just hit
    // its local page cache and measure nothing interesting).
    let loader_nodes: Vec<NodeId> = (0..config.clients)
        .map(|i| {
            let loader = config.loader_node(i);
            if loader == config.client_node(i) {
                config.loader_node(i + config.clients)
            } else {
                loader
            }
        })
        .collect();
    let placements = compute_placements(system, config, &loader_nodes);

    let processes: Vec<ClientProcess> = (0..config.clients)
        .map(|i| {
            let me = config.client_node(i);
            reader_process(config, me, format!("reader-{i}"), &placements[i])
        })
        .collect();

    FlowSimulator::new(&config.topology, config.network.clone()).run(processes)
}

/// E2 — concurrent reads of non-overlapping parts of one huge file. The file
/// (clients × bytes_per_client) was pre-loaded by a single loader client,
/// which is exactly what concentrates HDFS's placement choices while BlobSeer
/// still stripes it over every provider.
pub fn sim_read_shared(system: StorageSystem, config: &SimScaleConfig) -> SimReport {
    // The huge shared input was produced by an earlier distributed job (e.g.
    // a random-text-writer run): block `c` was written by a task on
    // `loader_node(c)`. Under HDFS's local-first policy each block therefore
    // sits wherever its producing task happened to run; BlobSeer stripes the
    // same blocks evenly over all providers regardless of the producers.
    let total_blocks = (config.blocks_per_client() * config.clients as u64) as usize;
    let block_writers: Vec<NodeId> = (0..total_blocks).map(|c| config.loader_node(c)).collect();
    let one_block_config = SimScaleConfig {
        bytes_per_client: config.block_size,
        ..config.clone()
    };
    let per_block = compute_placements(system, &one_block_config, &block_writers);
    let file_blocks: Vec<BlockLayout> = per_block
        .into_iter()
        .map(|mut blocks| blocks.remove(0))
        .collect();

    let blocks_per_client = config.blocks_per_client() as usize;
    let processes: Vec<ClientProcess> = (0..config.clients)
        .map(|i| {
            let me = config.client_node(i);
            let start = i * blocks_per_client;
            reader_process(
                config,
                me,
                format!("shared-reader-{i}"),
                &file_blocks[start..start + blocks_per_client],
            )
        })
        .collect();

    FlowSimulator::new(&config.topology, config.network.clone()).run(processes)
}

/// Run one microbenchmark pattern for one system at one client count and
/// return `(aggregate bytes/s, mean per-client bytes/s)` — the two numbers
/// the paper's figures plot.
pub fn run_pattern(
    system: StorageSystem,
    pattern: crate::microbench::AccessPattern,
    config: &SimScaleConfig,
) -> (f64, f64) {
    let report = match pattern {
        crate::microbench::AccessPattern::ReadDistinctFiles => sim_read_distinct(system, config),
        crate::microbench::AccessPattern::ReadSharedFile => sim_read_shared(system, config),
        crate::microbench::AccessPattern::WriteDistinctFiles => sim_write_distinct(system, config),
    };
    (
        report.aggregate_throughput(),
        report.mean_client_throughput(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench::AccessPattern;

    #[test]
    fn write_distinct_bsfs_outperforms_hdfs() {
        let config = SimScaleConfig::small(8);
        let bsfs = sim_write_distinct(StorageSystem::Bsfs, &config);
        let hdfs = sim_write_distinct(StorageSystem::Hdfs, &config);
        assert_eq!(bsfs.total_bytes(), hdfs.total_bytes());
        assert!(
            bsfs.aggregate_throughput() > hdfs.aggregate_throughput(),
            "BSFS ({:.1} MB/s) should beat HDFS ({:.1} MB/s) on concurrent writes",
            bsfs.aggregate_throughput() / 1e6,
            hdfs.aggregate_throughput() / 1e6
        );
    }

    #[test]
    fn read_shared_bsfs_scales_much_better_than_hdfs() {
        let config = SimScaleConfig::small(12);
        let bsfs = sim_read_shared(StorageSystem::Bsfs, &config);
        let hdfs = sim_read_shared(StorageSystem::Hdfs, &config);
        // The single-loader file leaves HDFS with whole-chunk placements
        // (and their collisions) while BlobSeer stripes pages evenly; BSFS
        // must come out ahead. The gap widens with scale; at this toy size we
        // only assert a clear ordering.
        assert!(
            bsfs.aggregate_throughput() > 1.05 * hdfs.aggregate_throughput(),
            "BSFS {:.1} MB/s vs HDFS {:.1} MB/s",
            bsfs.aggregate_throughput() / 1e6,
            hdfs.aggregate_throughput() / 1e6
        );
    }

    #[test]
    fn read_distinct_bsfs_at_least_matches_hdfs() {
        let config = SimScaleConfig::small(8);
        let bsfs = sim_read_distinct(StorageSystem::Bsfs, &config);
        let hdfs = sim_read_distinct(StorageSystem::Hdfs, &config);
        assert!(bsfs.aggregate_throughput() >= 0.95 * hdfs.aggregate_throughput());
    }

    #[test]
    fn bsfs_per_client_throughput_stays_roughly_flat_with_more_clients() {
        let few = SimScaleConfig::small(2);
        let many = SimScaleConfig::small(12);
        let t_few = sim_write_distinct(StorageSystem::Bsfs, &few).mean_client_throughput();
        let t_many = sim_write_distinct(StorageSystem::Bsfs, &many).mean_client_throughput();
        assert!(
            t_many > 0.5 * t_few,
            "per-client throughput collapsed: {t_few:.0} -> {t_many:.0}"
        );
    }

    #[test]
    fn all_bytes_are_accounted_for() {
        let config = SimScaleConfig::small(4);
        // Writes move block_size * blocks * replication bytes per client.
        let report = sim_write_distinct(StorageSystem::Bsfs, &config);
        let expected =
            config.blocks_per_client() * config.block_size * config.replication as u64 * 4;
        assert_eq!(report.total_bytes(), expected);
        // Reads move exactly bytes_per_client per client (single copy).
        let report = sim_read_distinct(StorageSystem::Hdfs, &config);
        assert_eq!(report.total_bytes(), config.bytes_per_client * 4);
    }

    #[test]
    fn run_pattern_dispatches_all_three() {
        let config = SimScaleConfig::small(3);
        for pattern in [
            AccessPattern::ReadDistinctFiles,
            AccessPattern::ReadSharedFile,
            AccessPattern::WriteDistinctFiles,
        ] {
            let (agg, per_client) = run_pattern(StorageSystem::Bsfs, pattern, &config);
            assert!(agg > 0.0);
            assert!(per_client > 0.0);
            assert!(agg >= per_client);
        }
    }

    #[test]
    fn helper_node_mappings_are_deterministic_and_in_range() {
        let topo = ClusterTopology::flat(10);
        for i in 0..50 {
            assert!(client_node(&topo, i).0 < 10);
            assert!(loader_node(&topo, i).0 < 10);
            assert_eq!(client_node(&topo, i), client_node(&topo, i));
        }
        // Clients wrap around the node count.
        assert_eq!(client_node(&topo, 0), client_node(&topo, 10));
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn load_balanced_placement_beats_local_first_for_writes() {
        let config = SimScaleConfig::small_colocated(8);
        let balanced = sim_write_with_strategy(PlacementStrategy::LoadBalanced, &config);
        let local = sim_write_with_strategy(PlacementStrategy::LocalFirst, &config);
        assert!(
            balanced.aggregate_throughput() > local.aggregate_throughput(),
            "load-balanced {:.1} MB/s should beat local-first {:.1} MB/s",
            balanced.aggregate_throughput() / 1e6,
            local.aggregate_throughput() / 1e6
        );
    }

    #[test]
    fn random_placement_does_not_beat_load_balancing() {
        // Random placement spreads load but without the least-loaded feedback
        // it cannot do better than the balanced policy; depending on the
        // replication factor it can even lose to local-first (whose first
        // copy avoids the network entirely), so no ordering against
        // local-first is asserted here.
        let config = SimScaleConfig::small_colocated(8);
        let balanced = sim_write_with_strategy(PlacementStrategy::LoadBalanced, &config);
        let random = sim_write_with_strategy(PlacementStrategy::Random, &config);
        assert!(random.aggregate_throughput() > 0.0);
        assert!(random.aggregate_throughput() <= balanced.aggregate_throughput() * 1.05);
    }
}
