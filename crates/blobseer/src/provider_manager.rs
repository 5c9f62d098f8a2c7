//! The provider manager: decides which providers store which pages.
//!
//! "The providers store the pages, as assigned by the provider manager; the
//! distribution of pages to providers aims at achieving load-balancing"
//! (paper §III-A). The evaluation section credits exactly this load-balancing
//! allocation for BSFS's throughput advantage over HDFS, whose policy always
//! writes the first replica locally. To make that comparison (and the A1
//! ablation) possible, the manager supports several interchangeable
//! strategies.
//!
//! Beyond placement, the manager keeps the page tier's view of the
//! machines under churn: a write's push *announces* every page replica it
//! stored, in one registry pass; the machines' failure detector
//! ([`ProviderManager::health`]) turns refused probes into suspicion; and
//! [`ProviderManager::repair`] (the shared [`simcluster::replica`] loop)
//! actively re-replicates announced pages whose live copy count fell below
//! the replication factor — so a machine crash costs redundancy only until
//! the next repair pass.
//! A dead machine never comes back; kills and joins go through
//! [`crate::BlobSeer::kill`] and [`crate::BlobSeer::join`].

use crate::provider::Provider;
use crate::types::ProviderId;
use dht::{DhtNodeId, StorageNode};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use simcluster::replica::{Inventory, Placement, RepairReport, ReplicaHealth};
use simcluster::topology::{ClusterTopology, Proximity};
use simcluster::NodeId;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// How the provider manager spreads pages over providers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// BlobSeer's strategy: pick the provider with the fewest allocated
    /// pages, breaking ties round-robin. Spreads load evenly over the whole
    /// deployment regardless of where the writer runs.
    LoadBalanced,
    /// The HDFS-style strategy used as the ablation baseline: the first
    /// replica goes to a provider co-located with the writing client (or the
    /// closest one), the second to a provider in the same rack, further
    /// replicas to providers outside the rack.
    LocalFirst,
    /// Uniformly random placement (a second ablation point: load-balancing
    /// without the least-loaded feedback loop).
    Random,
}

/// A registry of providers plus the placement logic.
pub struct ProviderManager {
    providers: RwLock<Vec<Arc<Provider>>>,
    topology: ClusterTopology,
    strategy: PlacementStrategy,
    /// Pages allocated to each provider so far (allocation-time accounting,
    /// maintained even before the data lands, so that concurrent writers
    /// spread out immediately).
    allocated: Mutex<HashMap<ProviderId, u64>>,
    /// Round-robin cursor used to break ties deterministically.
    cursor: Mutex<usize>,
    /// Deterministic pseudo-random state for [`PlacementStrategy::Random`].
    rng_state: Mutex<u64>,
    /// Which providers hold a replica of each announced page. Ordered map so
    /// repair scans keys deterministically. Entries survive a holder's
    /// death; repair counts only the holders that are live and list the
    /// page.
    announcements: Mutex<BTreeMap<Vec<u8>, Vec<ProviderId>>>,
    /// The optional failure detector over the machines, and the repair
    /// counters.
    health: ReplicaHealth<DhtNodeId>,
}

impl ProviderManager {
    /// Create a manager over the page roles of `machines`.
    ///
    /// # Panics
    /// When `machines` is empty or machine `i` does not have id `i` (a
    /// provider is found by its id's position).
    pub fn new(
        topology: &ClusterTopology,
        machines: &[Arc<StorageNode>],
        strategy: PlacementStrategy,
    ) -> Self {
        assert!(!machines.is_empty(), "at least one provider is required");
        for (i, machine) in machines.iter().enumerate() {
            assert_eq!(
                machine.id(),
                DhtNodeId(i as u64),
                "machine {i} has another id"
            );
        }
        let providers = machines
            .iter()
            .map(|m| Arc::new(Provider::new(Arc::clone(m))))
            .collect();
        ProviderManager {
            providers: RwLock::new(providers),
            topology: topology.clone(),
            strategy,
            allocated: Mutex::new(HashMap::new()),
            cursor: Mutex::new(0),
            rng_state: Mutex::new(0x1234_5678_9ABC_DEF0),
            announcements: Mutex::new(BTreeMap::new()),
            health: ReplicaHealth::default(),
        }
    }

    /// Add a fresh machine on cluster node `host`, with the next provider
    /// id, and serve its pages: the page half of [`crate::BlobSeer::join`].
    /// The new provider starts empty; the next repair pass and future
    /// allocations pull it into service.
    pub(crate) fn add(&self, host: NodeId) -> Arc<StorageNode> {
        let mut providers = self.providers.write();
        let machine = Arc::new(StorageNode::new(DhtNodeId(providers.len() as u64), host));
        let provider = Provider::new(Arc::clone(&machine));
        self.health.register(machine.id());
        providers.push(Arc::new(provider));
        machine
    }

    /// Number of providers (live and dead).
    pub fn len(&self) -> usize {
        self.providers.read().len()
    }

    /// True when no providers exist (never the case after construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a provider by id.
    pub fn provider(&self, id: ProviderId) -> Option<Arc<Provider>> {
        self.providers.read().get(id.0 as usize).cloned()
    }

    /// All providers.
    pub fn providers(&self) -> Vec<Arc<Provider>> {
        self.providers.read().clone()
    }

    /// The cluster node a provider runs on (used by the locality primitive).
    pub fn node_of(&self, id: ProviderId) -> Option<NodeId> {
        self.provider(id).map(|p| p.node())
    }

    /// Allocate storage for `pages` consecutive pages written by a client on
    /// `client_node`, with `replication` copies each. Returns, for each page,
    /// the ordered list of providers that should receive a copy (first entry
    /// is the primary).
    ///
    /// Only live providers are considered. Fails (empty result) if no live
    /// provider exists; callers translate that into
    /// [`crate::BlobSeerError::NoProviders`].
    pub fn allocate(
        &self,
        pages: u64,
        replication: usize,
        client_node: NodeId,
    ) -> Vec<Vec<ProviderId>> {
        let providers = self.providers.read();
        let live: Vec<&Arc<Provider>> = providers.iter().filter(|p| p.ping()).collect();
        if live.is_empty() {
            return Vec::new();
        }
        let replication = replication.min(live.len());

        let mut result = Vec::with_capacity(pages as usize);
        let mut allocated = self.allocated.lock();
        for _ in 0..pages {
            let chosen = match self.strategy {
                PlacementStrategy::LoadBalanced => {
                    self.pick_load_balanced(&live, replication, &allocated)
                }
                PlacementStrategy::LocalFirst => {
                    self.pick_local_first(&live, replication, client_node, &allocated)
                }
                PlacementStrategy::Random => self.pick_random(&live, replication),
            };
            for id in &chosen {
                *allocated.entry(*id).or_insert(0) += 1;
            }
            result.push(chosen);
        }
        result
    }

    /// Least-loaded selection with a round-robin tiebreak.
    fn pick_load_balanced(
        &self,
        live: &[&Arc<Provider>],
        replication: usize,
        allocated: &HashMap<ProviderId, u64>,
    ) -> Vec<ProviderId> {
        let mut cursor = self.cursor.lock();
        // Sort candidates by (allocated pages, distance from cursor) so that
        // equally-loaded providers are used in rotation.
        let n = live.len();
        let start = *cursor % n;
        let mut candidates: Vec<(u64, usize, ProviderId)> = live
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let load = allocated.get(&p.id()).copied().unwrap_or(0);
                let rotation = (i + n - start) % n;
                (load, rotation, p.id())
            })
            .collect();
        candidates.sort();
        *cursor = (*cursor + 1) % n;
        candidates
            .into_iter()
            .take(replication)
            .map(|(_, _, id)| id)
            .collect()
    }

    /// HDFS-style: closest provider to the writer first, then same rack, then
    /// outside the rack.
    fn pick_local_first(
        &self,
        live: &[&Arc<Provider>],
        replication: usize,
        client_node: NodeId,
        allocated: &HashMap<ProviderId, u64>,
    ) -> Vec<ProviderId> {
        // Rank by proximity class, then by load within a class so that a rack
        // does not funnel everything to one provider.
        let mut candidates: Vec<(Proximity, u64, ProviderId)> = live
            .iter()
            .map(|p| {
                let prox = self.topology.proximity(client_node, p.node());
                let load = allocated.get(&p.id()).copied().unwrap_or(0);
                (prox, load, p.id())
            })
            .collect();
        candidates.sort();

        let mut chosen: Vec<ProviderId> = Vec::with_capacity(replication);
        // First replica: the closest provider (local if one exists).
        if let Some((_, _, id)) = candidates.first() {
            chosen.push(*id);
        }
        // Second replica: same rack as the writer but a different provider.
        if replication >= 2 {
            if let Some((_, _, id)) = candidates
                .iter()
                .find(|(prox, _, id)| !chosen.contains(id) && *prox <= Proximity::SameRack)
            {
                chosen.push(*id);
            }
        }
        // Remaining replicas: prefer providers outside the writer's rack.
        while chosen.len() < replication {
            let next = candidates
                .iter()
                .find(|(prox, _, id)| !chosen.contains(id) && *prox > Proximity::SameRack)
                .or_else(|| candidates.iter().find(|(_, _, id)| !chosen.contains(id)));
            match next {
                Some((_, _, id)) => chosen.push(*id),
                None => break,
            }
        }
        chosen
    }

    /// Uniformly random selection without replacement (xorshift, seeded
    /// deterministically so experiments are reproducible).
    fn pick_random(&self, live: &[&Arc<Provider>], replication: usize) -> Vec<ProviderId> {
        let mut state = self.rng_state.lock();
        let mut pool: Vec<ProviderId> = live.iter().map(|p| p.id()).collect();
        let mut chosen = Vec::with_capacity(replication);
        for _ in 0..replication.min(pool.len()) {
            *state = simcluster::xorshift64(*state);
            let idx = (*state as usize) % pool.len();
            chosen.push(pool.swap_remove(idx));
        }
        chosen
    }

    /// Allocation-time load per provider (pages assigned so far).
    pub fn allocation_load(&self) -> HashMap<ProviderId, u64> {
        self.allocated.lock().clone()
    }

    // ---- page announcements -------------------------------------------------

    /// Record, in one registry pass, the providers holding a replica of
    /// each page: a write's push announces its `(key, holders)` pairs (a
    /// page with no holder is skipped). Repair uses the registry to find
    /// under-replicated pages and surviving copies, and readers use it to
    /// fail over past the providers recorded in the metadata.
    pub fn announce<'a>(&self, copies: impl IntoIterator<Item = (Vec<u8>, &'a [ProviderId])>) {
        let mut ann = self.announcements.lock();
        for (key, stored) in copies.into_iter().filter(|(_, stored)| !stored.is_empty()) {
            let holders = ann.entry(key).or_default();
            for holder in stored {
                if !holders.contains(holder) {
                    holders.push(*holder);
                }
            }
        }
    }

    /// Drop a batch of pages from the registry in one pass, returning each
    /// page's announced holders (empty where none was announced). A sweep
    /// withdraws before it deletes: from then on a repair pass cannot copy
    /// a page that is on its way out onto a provider the sweep never visits.
    pub fn withdraw_pages<K: AsRef<[u8]>>(&self, keys: &[K]) -> Vec<Vec<ProviderId>> {
        let mut ann = self.announcements.lock();
        keys.iter()
            .map(|key| ann.remove(key.as_ref()).unwrap_or_default())
            .collect()
    }

    /// Every announced page key, in key order (invariant checks).
    pub fn announced_keys(&self) -> Vec<Vec<u8>> {
        self.announcements.lock().keys().cloned().collect()
    }

    /// The announced holders of `key`, primary-first in announcement order.
    pub fn holders(&self, key: &[u8]) -> Vec<ProviderId> {
        self.announcements
            .lock()
            .get(key)
            .cloned()
            .unwrap_or_default()
    }

    /// Number of pages currently announced.
    pub fn announced_pages(&self) -> usize {
        self.announcements.lock().len()
    }

    // ---- failure detection and repair --------------------------------------

    /// The failure detector slot and repair counters of this tier. The
    /// detector is keyed by machine: a deployment attaches the one its DHT
    /// feeds too. Joins keep its membership in sync, and repair probes and
    /// refused data operations (`note_down`) feed it.
    pub fn health(&self) -> &ReplicaHealth<DhtNodeId> {
        &self.health
    }

    /// One active re-replication pass over the announced pages (the shared
    /// [`simcluster::replica`] loop). Probes every provider and lists each
    /// live one's page keys once; a page's holders are the providers that
    /// are announced, live and list it. A page with fewer than
    /// `replication` holders is read once from a holder and copied to the
    /// least-announced live non-holders until the factor is restored (or
    /// the live set is exhausted). New copies are announced, so a second
    /// pass over a healthy set reads and copies nothing.
    ///
    /// Holds the registry lock for the pass: a sweep withdraws a page
    /// before deleting it, so repair never copies a page on its way out.
    pub fn repair(&self, replication: usize) -> RepairReport {
        let providers = self.providers.read();
        let members: Vec<&Provider> = providers.iter().map(|p| &**p).collect();
        let mut ann = self.announcements.lock();
        // The loop names members by machine; announcements name providers.
        let plan = |live: &[DhtNodeId], inventory: Inventory<DhtNodeId>| {
            // Announcement load per machine, so repair copies spread the
            // way the allocator spreads fresh writes.
            let mut load: HashMap<DhtNodeId, usize> = HashMap::new();
            for h in ann.values().flatten() {
                *load.entry((*h).into()).or_insert(0) += 1;
            }
            let mut plans = Vec::with_capacity(ann.len());
            for (key, announced) in ann.iter() {
                let announced: Vec<DhtNodeId> = announced.iter().map(|&h| h.into()).collect();
                let listed = inventory.get(key).map_or(&[][..], Vec::as_slice);
                let holders: Vec<DhtNodeId> = announced
                    .iter()
                    .copied()
                    .filter(|h| listed.contains(h))
                    .collect();
                let mut targets = holders.clone();
                if !holders.is_empty() && holders.len() < replication {
                    let mut candidates: Vec<(usize, DhtNodeId)> = live
                        .iter()
                        .filter(|id| !announced.contains(id))
                        .map(|id| (load.get(id).copied().unwrap_or(0), *id))
                        .collect();
                    candidates.sort();
                    for (_, id) in candidates.into_iter().take(replication - holders.len()) {
                        *load.entry(id).or_insert(0) += 1;
                        targets.push(id);
                    }
                }
                plans.push(Placement::new(key.clone(), holders, targets));
            }
            plans
        };
        let (report, plans) = self.health.repair(&members, replication, plan);
        for plan in plans.iter().filter(|p| !p.copied.is_empty()) {
            if let Some(holders) = ann.get_mut(&plan.key) {
                holders.extend(plan.copied.iter().map(|&m| ProviderId::from(m)));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> ClusterTopology {
        // 2 racks of 4 nodes.
        ClusterTopology::builder()
            .sites(1)
            .racks_per_site(2)
            .nodes_per_rack(4)
            .build()
    }

    /// A manager over one fresh machine per node of `t`.
    fn over(t: &ClusterTopology, strategy: PlacementStrategy) -> ProviderManager {
        let hosts: Vec<NodeId> = t.all_nodes().collect();
        ProviderManager::new(t, &StorageNode::fleet(&hosts), strategy)
    }

    #[test]
    #[should_panic(expected = "machine 0 has another id")]
    fn machines_out_of_id_order_are_rejected() {
        let t = ClusterTopology::flat(2);
        let machines = vec![
            Arc::new(StorageNode::new(DhtNodeId(1), t.node(0))),
            Arc::new(StorageNode::new(DhtNodeId(0), t.node(1))),
        ];
        ProviderManager::new(&t, &machines, PlacementStrategy::LoadBalanced);
    }

    fn manager(strategy: PlacementStrategy) -> ProviderManager {
        over(&topo(), strategy)
    }

    /// Crash provider `id`'s machine.
    fn kill(m: &ProviderManager, id: u32) {
        m.provider(ProviderId(id)).unwrap().machine().kill();
    }

    #[test]
    fn load_balanced_spreads_pages_evenly() {
        let m = manager(PlacementStrategy::LoadBalanced);
        // One client writes 80 pages: each of the 8 providers should get 10.
        let placement = m.allocate(80, 1, NodeId(0));
        assert_eq!(placement.len(), 80);
        let load = m.allocation_load();
        assert_eq!(load.len(), 8);
        for (_, count) in load {
            assert_eq!(
                count, 10,
                "load-balanced placement should be perfectly even"
            );
        }
    }

    #[test]
    fn load_balanced_spreads_across_concurrent_writers() {
        let m = manager(PlacementStrategy::LoadBalanced);
        // Interleave allocations from different client nodes.
        for client in 0..4u32 {
            m.allocate(20, 1, NodeId(client));
        }
        let load = m.allocation_load();
        let min = load.values().min().copied().unwrap();
        let max = load.values().max().copied().unwrap();
        assert!(
            max - min <= 1,
            "imbalance should be at most one page, got min={min} max={max}"
        );
    }

    #[test]
    fn local_first_places_first_replica_on_writer_node() {
        let m = manager(PlacementStrategy::LocalFirst);
        let placement = m.allocate(10, 3, NodeId(2));
        for replicas in &placement {
            assert_eq!(replicas.len(), 3);
            // First replica is the provider on the writer's node.
            assert_eq!(m.node_of(replicas[0]).unwrap(), NodeId(2));
            // Second replica is in the same rack (nodes 0-3 are rack 0).
            let second_node = m.node_of(replicas[1]).unwrap();
            assert!(
                second_node.0 < 4,
                "second replica should stay in the writer's rack"
            );
            assert_ne!(replicas[0], replicas[1]);
            // Third replica is outside the rack.
            let third_node = m.node_of(replicas[2]).unwrap();
            assert!(
                third_node.0 >= 4,
                "third replica should leave the writer's rack"
            );
        }
    }

    #[test]
    fn local_first_concentrates_load_on_writer_nodes() {
        // This is the behaviour the paper blames for HDFS's poor write
        // scalability: every writer's pages land on its own node.
        let m = manager(PlacementStrategy::LocalFirst);
        m.allocate(50, 1, NodeId(1));
        let load = m.allocation_load();
        assert_eq!(
            load.len(),
            1,
            "all pages should go to the single local provider"
        );
        let (only_id, count) = load.iter().next().unwrap();
        assert_eq!(m.node_of(*only_id).unwrap(), NodeId(1));
        assert_eq!(*count, 50);
    }

    #[test]
    fn random_placement_uses_many_providers() {
        let m = manager(PlacementStrategy::Random);
        m.allocate(200, 1, NodeId(0));
        let load = m.allocation_load();
        assert!(
            load.len() >= 6,
            "random placement should touch most providers"
        );
        // Deterministic: a second manager produces the same placement.
        let m2 = manager(PlacementStrategy::Random);
        let p2 = m2.allocate(5, 2, NodeId(0));
        let m3 = manager(PlacementStrategy::Random);
        let p3 = m3.allocate(5, 2, NodeId(0));
        assert_eq!(p2, p3);
    }

    #[test]
    fn replication_never_repeats_a_provider_for_one_page() {
        for strategy in [
            PlacementStrategy::LoadBalanced,
            PlacementStrategy::LocalFirst,
            PlacementStrategy::Random,
        ] {
            let m = manager(strategy);
            let placement = m.allocate(30, 3, NodeId(5));
            for replicas in placement {
                let unique: std::collections::HashSet<_> = replicas.iter().collect();
                assert_eq!(
                    unique.len(),
                    replicas.len(),
                    "strategy {strategy:?} repeated a provider"
                );
            }
        }
    }

    #[test]
    fn dead_providers_are_skipped() {
        let m = manager(PlacementStrategy::LoadBalanced);
        // Kill half the providers.
        for i in 0..4 {
            kill(&m, i);
        }
        let placement = m.allocate(40, 2, NodeId(0));
        for replicas in &placement {
            for id in replicas {
                assert!(id.0 >= 4, "dead provider {id:?} was allocated");
            }
        }
        // Flip their machines back and confirm they participate again.
        for i in 0..4 {
            m.provider(ProviderId(i)).unwrap().machine().revive();
        }
        // The revived four, least loaded, take the next 80 pages evenly.
        m.allocate(80, 1, NodeId(0));
        let load = m.allocation_load();
        assert_eq!(load.len(), 8);
        assert!((0..4).all(|i| load[&ProviderId(i)] == 20), "{load:?}");
    }

    #[test]
    fn no_live_providers_returns_empty() {
        let m = manager(PlacementStrategy::LoadBalanced);
        for i in 0..8 {
            kill(&m, i);
        }
        assert!(m.allocate(5, 1, NodeId(0)).is_empty());
    }

    #[test]
    fn replication_is_capped_at_live_provider_count() {
        let m = over(&ClusterTopology::flat(2), PlacementStrategy::LoadBalanced);
        let placement = m.allocate(3, 5, NodeId(0));
        for replicas in placement {
            assert_eq!(replicas.len(), 2);
        }
    }

    #[test]
    fn provider_lookup_and_registry() {
        let m = manager(PlacementStrategy::LoadBalanced);
        assert_eq!(m.len(), 8);
        assert!(!m.is_empty());
        assert!(m.provider(ProviderId(0)).is_some());
        assert!(m.provider(ProviderId(99)).is_none());
        assert_eq!(m.providers().len(), 8);
    }

    #[test]
    fn announcements_track_holders_and_withdrawals() {
        let m = manager(PlacementStrategy::LoadBalanced);
        m.announce([(b"k".to_vec(), &[ProviderId(1), ProviderId(2)][..])]);
        m.announce([(b"k".to_vec(), &[ProviderId(1)][..])]); // duplicate is a no-op
        m.announce([(b"none".to_vec(), &[][..])]); // no holder: not announced
        assert_eq!(m.holders(b"k"), vec![ProviderId(1), ProviderId(2)]);
        assert_eq!(m.announced_pages(), 1);
        assert_eq!(
            m.withdraw_pages(&[&b"k"[..], b"none"]),
            vec![vec![ProviderId(1), ProviderId(2)], vec![]]
        );
        assert!(m.holders(b"k").is_empty());
        assert_eq!(m.announced_pages(), 0);
    }

    /// Store one page on `replicas`, announcing each copy.
    fn seed_page(m: &ProviderManager, key: &[u8], replicas: &[u32]) {
        let holders: Vec<ProviderId> = replicas.iter().map(|&r| ProviderId(r)).collect();
        for pid in &holders {
            let p = m.provider(*pid).unwrap();
            p.put_page(key, bytes::Bytes::from_static(b"page-data"))
                .unwrap();
        }
        m.announce([(key.to_vec(), &holders[..])]);
    }

    #[test]
    fn repair_restores_replication_after_a_provider_death() {
        let m = manager(PlacementStrategy::LoadBalanced);
        seed_page(&m, b"blob-1/v1/page-0", &[0, 1]);
        kill(&m, 0);

        let report = m.repair(2);
        assert_eq!(report.dead, 1);
        assert_eq!(report.under_replicated, 1);
        assert_eq!(report.copied, 1);
        assert_eq!(report.still_under_replicated, 0);
        assert_eq!(m.health().still_short(), 0);
        assert_eq!(m.health().runs(), 1);
        assert_eq!(m.health().copies(), 1);

        // The new holder is announced and actually serves the page.
        let holders = m.holders(b"blob-1/v1/page-0");
        assert_eq!(
            holders.len(),
            3,
            "dead holder stays announced, new one added"
        );
        let fresh = holders
            .iter()
            .find(|h| **h != ProviderId(0) && **h != ProviderId(1))
            .unwrap();
        let request = crate::provider::PageRequest {
            key: b"blob-1/v1/page-0".to_vec(),
            offset: 0,
            len: None,
        };
        let page = m.provider(*fresh).unwrap().download_many(vec![request]);
        assert_eq!(
            page.unwrap(),
            vec![Some(bytes::Bytes::from_static(b"page-data"))]
        );

        // A second pass over the (now healthy) set is a no-op.
        let again = m.repair(2);
        assert_eq!(again.under_replicated, 0);
        assert_eq!(again.copied, 0);
    }

    #[test]
    fn repair_reports_pages_with_no_surviving_copy() {
        let m = manager(PlacementStrategy::LoadBalanced);
        seed_page(&m, b"gone", &[0, 1]);
        kill(&m, 0);
        kill(&m, 1);
        let report = m.repair(2);
        assert_eq!(report.under_replicated, 1);
        assert_eq!(report.copied, 0);
        assert_eq!(report.still_under_replicated, 1);
    }

    #[test]
    fn joined_provider_takes_repair_copies() {
        let m = over(&ClusterTopology::flat(2), PlacementStrategy::LoadBalanced);
        seed_page(&m, b"k", &[0, 1]);
        kill(&m, 1);
        // Without the join, replication 2 cannot be restored (1 live node).
        let machine = m.add(NodeId(0));
        assert_eq!(machine.id(), DhtNodeId(2));
        let report = m.repair(2);
        assert_eq!(report.copied, 1);
        assert!(m.holders(b"k").contains(&ProviderId(2)));
    }

    #[test]
    fn heartbeats_feed_the_detector() {
        use simcluster::clock::SimClock;
        use simcluster::{Clock, FailureDetector, SUSPICION_TIMEOUT};

        let m = manager(PlacementStrategy::LoadBalanced);
        let clock = Arc::new(SimClock::new());
        m.health().attach(Arc::new(FailureDetector::with_members(
            Arc::clone(&clock) as Arc<dyn Clock>,
            (0..8).map(DhtNodeId),
        )));
        let det = m.health().detector().unwrap();
        assert_eq!(det.member_count(), 8);
        let machine = DhtNodeId(3);

        kill(&m, 3);
        assert_eq!(m.repair(2).dead, 1);
        assert!(!det.is_suspect(machine), "before the timeout: tolerated");
        clock.advance(SUSPICION_TIMEOUT);
        m.repair(2);
        assert!(det.is_suspect(machine));
        assert_eq!(det.failures_detected(), 1);

        m.provider(ProviderId(3)).unwrap().machine().revive();
        m.repair(2);
        assert!(!det.is_suspect(machine));
        assert_eq!(det.recoveries_observed(), 1);
    }

    /// Every provider's (reads, bytes read).
    fn reads(m: &ProviderManager) -> Vec<(u64, u64)> {
        m.providers()
            .iter()
            .map(|p| (p.stats().reads, p.stats().bytes_read))
            .collect()
    }

    #[test]
    fn repair_reads_only_the_copies_it_makes() {
        let m = manager(PlacementStrategy::LoadBalanced);
        for i in 0..16u32 {
            seed_page(&m, format!("page-{i}").as_bytes(), &[i % 8, (i + 1) % 8]);
        }
        // A healthy R = 2 deployment: the pass moves no page byte.
        let before = reads(&m);
        let healthy = m.repair(2);
        assert_eq!((healthy.under_replicated, healthy.copied), (0, 0));
        assert_eq!(reads(&m), before, "a healthy pass reads nothing");

        // One holder dies: each of its 4 pages is read once, from its one
        // surviving holder.
        kill(&m, 3);
        let report = m.repair(2);
        assert_eq!((report.under_replicated, report.copied), (4, 4));
        let after = reads(&m);
        let read: u64 = after.iter().zip(&before).map(|(a, b)| a.0 - b.0).sum();
        let bytes: u64 = after.iter().zip(&before).map(|(a, b)| a.1 - b.1).sum();
        assert_eq!(read, 4);
        assert_eq!(bytes, 4 * b"page-data".len() as u64);
    }

    #[test]
    fn too_few_live_providers_leave_pages_short() {
        let m = over(&ClusterTopology::flat(2), PlacementStrategy::LoadBalanced);
        seed_page(&m, b"k", &[0, 1]);
        kill(&m, 1);
        let report = m.repair(2);
        assert_eq!(report.under_replicated, 1);
        assert_eq!(report.still_under_replicated, 1, "one live copy of two");
        assert_eq!(m.health().still_short(), 1);
    }
}
