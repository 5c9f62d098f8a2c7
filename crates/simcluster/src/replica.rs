//! One repair loop for every replicated tier.
//!
//! A tier keeping `R` copies of each key on its members (the metadata DHT's
//! nodes, the page providers) restores its factor after unannounced deaths
//! in five steps, run by [`ReplicaHealth::repair`]:
//!
//! 1. **Probe** each member once, in id order, feeding the tier's
//!    [`FailureDetector`]; the members that answer are the live set.
//! 2. **Inventory**: each live member lists its keys once. No value moves.
//! 3. **Plan**: the tier says which keys it keeps and where each belongs.
//! 4. **Copy** each key a target lacks: one read of its first holder (one
//!    batch per source), one write batch per destination. A destination
//!    that refuses leaves its keys short.
//! 5. **Settle**: every key with fewer than `R` copies on its targets
//!    counts as still short; the tier then acts on the returned placements
//!    (drops strays, announces copies), which moves no target copy.
//!
//! A tier supplies its members ([`Member`]) and its placement rule, so a
//! pass moves exactly the values it copies: over a healthy tier, none.
//!
//! Tiers whose members share machines name them by machine and share one
//! detector: a dead machine is one detected failure however many tiers
//! probe it.

use crate::detector::FailureDetector;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One member of a replicated tier, as the repair loop sees it.
pub trait Member {
    /// The member's identity.
    type Id: Copy + Ord + Hash;
    /// What a copy holds.
    type Value: Clone;
    /// This member's id.
    fn id(&self) -> Self::Id;
    /// Liveness probe: true when the member serves.
    fn ping(&self) -> bool;
    /// Every key the member stores (no values).
    fn keys(&self) -> Vec<Vec<u8>>;
    /// Read a batch of keys, one slot per key; `None` when refused.
    fn read(&self, keys: &[&[u8]]) -> Option<Vec<Option<Self::Value>>>;
    /// Store a batch in order, stopping at the first refusal; returns how
    /// many entries were stored.
    fn write(&self, entries: &[(&[u8], Self::Value)]) -> usize;
}

/// Where one key belongs in a pass, and where the pass copied it.
#[derive(Debug)]
pub struct Placement<I> {
    /// The key.
    pub key: Vec<u8>,
    /// Live members that listed the key; the first is the copy source.
    pub holders: Vec<I>,
    /// The members the key belongs on.
    pub targets: Vec<I>,
    /// Targets the copy step stored the key on.
    pub copied: Vec<I>,
}

impl<I: Copy + Eq> Placement<I> {
    /// A key held by `holders` that belongs on `targets`.
    pub fn new(key: Vec<u8>, holders: Vec<I>, targets: Vec<I>) -> Self {
        Placement {
            key,
            holders,
            targets,
            copied: Vec::new(),
        }
    }

    /// Copies on the targets: held before the pass or copied by it.
    pub fn on_targets(&self) -> usize {
        let held = |t: &&I| self.holders.contains(t) || self.copied.contains(t);
        self.targets.iter().filter(held).count()
    }

    /// True when every target holds the key.
    pub fn is_full(&self) -> bool {
        self.on_targets() == self.targets.len()
    }
}

/// Each listed key's live holders, in id order.
pub type Inventory<I> = BTreeMap<Vec<u8>, Vec<I>>;

/// What one repair pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Members probed.
    pub probed: usize,
    /// Members that failed the probe.
    pub dead: usize,
    /// Keys the tier keeps.
    pub scanned: usize,
    /// Keys with fewer than `R` copies on their targets before the copy.
    pub under_replicated: usize,
    /// Copies stored.
    pub copied: usize,
    /// Copies dropped from members they do not belong on.
    pub strays_removed: usize,
    /// Keys still below `R` when the pass ended (too few live members, or
    /// no live copy to read).
    pub still_under_replicated: usize,
}

/// A tier's failure detector slot and repair counters.
pub struct ReplicaHealth<I: Copy + Eq + Hash> {
    detector: Mutex<Option<Arc<FailureDetector<I>>>>,
    runs: AtomicU64,
    copies: AtomicU64,
    still_short: AtomicU64,
}

impl<I: Copy + Ord + Hash> Default for ReplicaHealth<I> {
    fn default() -> Self {
        ReplicaHealth {
            detector: Mutex::new(None),
            runs: AtomicU64::new(0),
            copies: AtomicU64::new(0),
            still_short: AtomicU64::new(0),
        }
    }
}

impl<I: Copy + Ord + Hash> ReplicaHealth<I> {
    /// Feed `detector`: probes and refused data operations then report to
    /// it. Tiers on the same machines may share one.
    pub fn attach(&self, detector: Arc<FailureDetector<I>>) {
        *self.detector.lock() = Some(detector);
    }

    /// The attached failure detector, if any.
    pub fn detector(&self) -> Option<Arc<FailureDetector<I>>> {
        self.detector.lock().clone()
    }

    /// Track a member that joined.
    pub fn register(&self, id: I) {
        self.detector().inspect(|d| d.register(id));
    }

    /// Report a probe's outcome for `id`.
    pub fn observe(&self, id: I, ok: bool) {
        self.detector().inspect(|d| d.observe(id, ok));
    }

    /// Report a refused data operation: evidence of death, like a missed
    /// heartbeat.
    pub fn note_down(&self, id: I) {
        self.observe(id, false);
    }

    /// Repair passes completed.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Copies stored by repair passes (cumulative).
    pub fn copies(&self) -> u64 {
        self.copies.load(Ordering::Relaxed)
    }

    /// Keys still below the factor after the last pass (0 before one).
    pub fn still_short(&self) -> u64 {
        self.still_short.load(Ordering::Relaxed)
    }

    /// One repair pass over `members` (in id order), keeping `replication`
    /// copies of each key `plan` keeps. `plan` gets the live ids and the
    /// inventory, and returns the kept keys' placements; they come back
    /// with what the pass copied.
    pub fn repair<M: Member<Id = I>>(
        &self,
        members: &[&M],
        replication: usize,
        plan: impl FnOnce(&[I], Inventory<I>) -> Vec<Placement<I>>,
    ) -> (RepairReport, Vec<Placement<I>>) {
        let live: Vec<&M> = members
            .iter()
            .copied()
            .filter(|m| {
                let ok = m.ping();
                self.observe(m.id(), ok);
                ok
            })
            .collect();
        let mut report = RepairReport {
            probed: members.len(),
            ..Default::default()
        };
        report.dead = members.len() - live.len();
        let mut inventory = Inventory::new();
        for member in &live {
            for key in member.keys() {
                inventory.entry(key).or_default().push(member.id());
            }
        }
        let live_ids: Vec<I> = live.iter().map(|m| m.id()).collect();
        let mut plans = plan(&live_ids, inventory);
        let short = |plans: &[Placement<I>]| {
            plans
                .iter()
                .filter(|p| p.on_targets() < replication)
                .count()
        };
        report.scanned = plans.len();
        report.under_replicated = short(&plans);
        report.copied = copy(&live, &mut plans);
        report.still_under_replicated = short(&plans);
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.copies
            .fetch_add(report.copied as u64, Ordering::Relaxed);
        self.still_short
            .store(report.still_under_replicated as u64, Ordering::Relaxed);
        (report, plans)
    }
}

/// Step 4: read each key a target lacks once from its first holder (one
/// batch per source) and store it on those targets (one batch per
/// destination), recording where it landed. Returns the copies stored.
fn copy<M: Member>(live: &[&M], plans: &mut [Placement<M::Id>]) -> usize {
    let by_id: BTreeMap<M::Id, &M> = live.iter().map(|m| (m.id(), *m)).collect();
    let mut sources: BTreeMap<M::Id, Vec<usize>> = BTreeMap::new();
    for (i, plan) in plans.iter().enumerate().filter(|(_, p)| !p.is_full()) {
        if let Some(source) = plan.holders.first() {
            sources.entry(*source).or_default().push(i);
        }
    }
    let mut writes: BTreeMap<M::Id, Vec<(usize, M::Value)>> = BTreeMap::new();
    for (source, indices) in sources {
        let keys: Vec<&[u8]> = indices.iter().map(|&i| plans[i].key.as_slice()).collect();
        let values = by_id[&source].read(&keys).unwrap_or_default();
        for (i, value) in indices.into_iter().zip(values) {
            let (plan, Some(value)) = (&plans[i], value) else {
                continue;
            };
            for target in plan.targets.iter().filter(|t| !plan.holders.contains(t)) {
                writes.entry(*target).or_default().push((i, value.clone()));
            }
        }
    }
    let mut copied = 0;
    for (target, batch) in writes {
        let entries: Vec<(&[u8], M::Value)> = batch
            .iter()
            .map(|(i, v)| (plans[*i].key.as_slice(), v.clone()))
            .collect();
        let stored = by_id[&target].write(&entries);
        batch[..stored]
            .iter()
            .for_each(|(i, _)| plans[*i].copied.push(target));
        copied += stored;
    }
    copied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use std::time::Duration;

    /// An in-memory member that counts the values it reads.
    struct Node {
        id: u32,
        alive: bool,
        data: Mutex<BTreeMap<Vec<u8>, u64>>,
        reads: Cell<usize>,
    }

    impl Node {
        fn new(id: u32, keys: &[&[u8]]) -> Self {
            Node {
                id,
                alive: true,
                data: Mutex::new(keys.iter().map(|k| (k.to_vec(), 7)).collect()),
                reads: Cell::new(0),
            }
        }
    }

    impl Member for Node {
        type Id = u32;
        type Value = u64;
        fn id(&self) -> u32 {
            self.id
        }
        fn ping(&self) -> bool {
            self.alive
        }
        fn keys(&self) -> Vec<Vec<u8>> {
            self.data.lock().keys().cloned().collect()
        }
        fn read(&self, keys: &[&[u8]]) -> Option<Vec<Option<u64>>> {
            self.reads.set(self.reads.get() + keys.len());
            let data = self.data.lock();
            Some(keys.iter().map(|k| data.get(*k).copied()).collect())
        }
        fn write(&self, entries: &[(&[u8], u64)]) -> usize {
            let mut data = self.data.lock();
            entries.iter().for_each(|(k, v)| {
                data.insert(k.to_vec(), *v);
            });
            entries.len()
        }
    }

    /// Every listed key belongs on the lowest `r` live ids.
    fn lowest(r: usize) -> impl FnOnce(&[u32], Inventory<u32>) -> Vec<Placement<u32>> {
        move |live, inventory| {
            let targets: Vec<u32> = live.iter().copied().take(r).collect();
            inventory
                .into_iter()
                .map(|(key, holders)| Placement::new(key, holders, targets.clone()))
                .collect()
        }
    }

    #[test]
    fn a_pass_reads_one_copy_per_short_key_and_none_when_healthy() {
        let mut nodes = [
            Node::new(0, &[b"a", b"b"]),
            Node::new(1, &[b"a", b"b", b"c"]),
            Node::new(2, &[b"c"]),
        ];
        nodes[0].alive = false;
        let health: ReplicaHealth<u32> = ReplicaHealth::default();
        let clock = Arc::new(SimClock::new());
        health.attach(Arc::new(FailureDetector::with_members(clock.clone(), 0..3)));
        clock.advance(Duration::from_secs(1));
        let members: Vec<&Node> = nodes.iter().collect();

        let (report, plans) = health.repair(&members, 2, lowest(2));
        assert!(plans.iter().all(Placement::is_full));
        assert_eq!((report.probed, report.dead, report.scanned), (3, 1, 3));
        // a and b sit on 1 only; c on both targets.
        assert_eq!(report.under_replicated, 2);
        assert_eq!(report.copied, 2);
        assert_eq!(report.still_under_replicated, 0);
        assert_eq!(nodes[1].reads.get(), 2, "one read per short key");
        assert_eq!(nodes[2].reads.get(), 0);
        let on_2: BTreeSet<Vec<u8>> = nodes[2].keys().into_iter().collect();
        assert_eq!(on_2.len(), 3);
        assert!(health.detector().unwrap().is_suspect(0));

        let (again, _) = health.repair(&members, 2, lowest(2));
        assert_eq!((again.under_replicated, again.copied), (0, 0));
        assert_eq!(
            nodes[1].reads.get() + nodes[2].reads.get(),
            2,
            "a healthy pass reads nothing"
        );
        assert_eq!(
            (health.runs(), health.copies(), health.still_short()),
            (2, 2, 0)
        );
    }

    #[test]
    fn too_few_live_members_count_against_the_factor() {
        let nodes = [Node::new(0, &[b"a"])];
        let health: ReplicaHealth<u32> = ReplicaHealth::default();
        let (report, _) = health.repair(&[&nodes[0]], 2, lowest(2));
        assert_eq!(report.under_replicated, 1);
        assert_eq!(report.still_under_replicated, 1);
        assert_eq!(health.still_short(), 1);
        assert_eq!(nodes[0].reads.get(), 0, "a full placement copies nothing");
    }
}
