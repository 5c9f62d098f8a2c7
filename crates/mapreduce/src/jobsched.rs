//! Multi-tenant job scheduling policies: who gets the next free slot, who is
//! admitted next, and who is owed capacity.
//!
//! The jobtracker runs many jobs concurrently over one shared pool of
//! map/reduce slots (the per-node slot counts of its tasktrackers). Every
//! time a slot is free, the configured [`JobScheduler`] is asked which
//! admitted job should receive it, given each job's current demand and
//! holdings (a [`JobView`] per job); when an admission slot frees up, it is
//! asked which *queued* job to activate next (a [`QueuedView`] per queued
//! job). The three policies mirror Hadoop's scheduler lineage:
//!
//! * [`FifoScheduler`] — strict submission order, Hadoop's original default.
//!   One heavy early job monopolises the cluster; later tenants wait.
//! * [`FairScheduler`] — per-tenant weighted fair sharing: each tenant with
//!   demand is entitled to `total × weight / Σ weights` slots, and the
//!   tenant furthest below its entitlement gets the next slot. Tenants that
//!   are *owed* slots (holding less than their entitlement while the pool is
//!   exhausted) are reported by [`JobScheduler::starved`], which the
//!   jobtracker answers by preempting speculative clones first — duplicate
//!   work is sacrificed before anyone's primary attempts wait.
//! * [`CapacityScheduler`] — hard per-tenant slot caps: FIFO order among
//!   jobs whose tenant is under its cap, Hadoop's capacity-scheduler queue
//!   guarantee turned into a ceiling.
//!
//! Admission control is separate from slot scheduling: a [`TenantQuota`]
//! bounds how many jobs a tenant may have queued and running and how much
//! BSFS/HDFS namespace and storage space its completed jobs may have
//! consumed (checked at submit against the [`TenantUsage`] ledger).

use std::collections::BTreeMap;

/// Which slot pool a grant is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// Map-task slots.
    Map,
    /// Reduce-task slots.
    Reduce,
}

/// What the scheduler sees about one admitted job when arbitrating a slot.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Process-wide submission sequence number (FIFO order).
    pub seq: u64,
    /// The tenant the job belongs to.
    pub tenant: String,
    /// Claimable work items of the arbitrated kind the job has *right now*
    /// (pending tasks — not speculation).
    pub demand: usize,
    /// Slots of the arbitrated kind the job currently holds.
    pub held: usize,
    /// Of those, slots currently executing speculative clones (the first
    /// thing preemption reclaims).
    pub speculative: usize,
}

/// What the scheduler sees about one queued (not yet admitted) job.
#[derive(Debug, Clone)]
pub struct QueuedView {
    /// Process-wide submission sequence number.
    pub seq: u64,
    /// The tenant the job belongs to.
    pub tenant: String,
    /// Jobs of the same tenant currently running.
    pub running_of_tenant: usize,
}

/// Policy deciding how the shared slot pool and the admission queue are
/// divided among concurrently running jobs and tenants.
pub trait JobScheduler: Send + Sync {
    /// Short policy name for reports ("fifo", "fair", "capacity").
    fn name(&self) -> &'static str;

    /// Which job should receive a free slot of `kind`? Returns an index
    /// into `jobs`, or `None` when no job should get one. Only jobs with
    /// `demand > 0` may be picked; `total` is the pool's capacity of that
    /// kind (for entitlement math).
    fn pick(&self, kind: SlotKind, total: usize, jobs: &[JobView]) -> Option<usize>;

    /// Which queued job should be activated next once an admission slot is
    /// free? Returns an index into `queued` (entries already filtered to
    /// those whose tenant is under its running-jobs quota). The default is
    /// submission order.
    fn pick_next(&self, queued: &[QueuedView]) -> Option<usize> {
        queued
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| q.seq)
            .map(|(i, _)| i)
    }

    /// Tenants currently *owed* slots of `kind`: they have unmet demand and
    /// hold less than their entitlement. The jobtracker preempts running
    /// speculative clones to free slots for them. Policies without an
    /// entitlement notion (FIFO, capacity) starve no one by definition.
    fn starved(&self, kind: SlotKind, total: usize, jobs: &[JobView]) -> Vec<String> {
        let _ = (kind, total, jobs);
        Vec::new()
    }
}

/// Strict submission order: the earliest-submitted job with demand gets
/// every free slot (Hadoop's original scheduler).
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl JobScheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn pick(&self, _kind: SlotKind, _total: usize, jobs: &[JobView]) -> Option<usize> {
        jobs.iter()
            .enumerate()
            .filter(|(_, j)| j.demand > 0)
            .min_by_key(|(_, j)| j.seq)
            .map(|(i, _)| i)
    }
}

/// Per-tenant weighted fair sharing (Hadoop's fair scheduler, tenant-level):
/// among tenants with unmet demand, each is entitled to
/// `total × weight / Σ weights`, and the next slot goes to the tenant
/// furthest below its entitlement (ties to the oldest job). Within a
/// tenant, jobs run in submission order.
#[derive(Debug, Clone, Default)]
pub struct FairScheduler {
    weights: BTreeMap<String, f64>,
}

impl FairScheduler {
    /// A fair scheduler where every tenant has weight 1.
    pub fn new() -> Self {
        FairScheduler::default()
    }

    /// Builder-style per-tenant weight override (default 1.0; values are
    /// clamped to `[1e-9, 1e9]`, a NaN to the bottom, so every share stays a
    /// finite number).
    pub fn with_weight(mut self, tenant: &str, weight: f64) -> Self {
        let weight = if weight.is_nan() {
            1e-9
        } else {
            weight.clamp(1e-9, 1e9)
        };
        self.weights.insert(tenant.to_string(), weight);
        self
    }

    fn weight(&self, tenant: &str) -> f64 {
        self.weights.get(tenant).copied().unwrap_or(1.0)
    }

    /// Per-tenant (entitled, held, min seq among demanding jobs) over the
    /// tenants that currently have demand.
    fn shares<'a>(
        &self,
        total: usize,
        jobs: &'a [JobView],
    ) -> BTreeMap<&'a str, (f64, usize, u64)> {
        let mut tenants: BTreeMap<&str, (f64, usize, u64)> = BTreeMap::new();
        for j in jobs.iter().filter(|j| j.demand > 0) {
            let entry = tenants.entry(&j.tenant).or_insert((0.0, 0, u64::MAX));
            entry.2 = entry.2.min(j.seq);
        }
        if tenants.is_empty() {
            return tenants;
        }
        let sum_w: f64 = tenants.keys().map(|t| self.weight(t)).sum();
        for (tenant, entry) in tenants.iter_mut() {
            entry.0 = total as f64 * self.weight(tenant) / sum_w;
        }
        // Held slots count whether or not the holding job still has demand:
        // a tenant's share is consumed by everything it is running.
        for j in jobs {
            if let Some(entry) = tenants.get_mut(j.tenant.as_str()) {
                entry.1 += j.held;
            }
        }
        tenants
    }
}

impl JobScheduler for FairScheduler {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn pick(&self, _kind: SlotKind, total: usize, jobs: &[JobView]) -> Option<usize> {
        let shares = self.shares(total, jobs);
        // The demanding tenant with the largest deficit (entitled − held);
        // ties break toward the tenant with the oldest demanding job, which
        // keeps the choice deterministic.
        let (winner, _) = shares.iter().max_by(|(_, a), (_, b)| {
            let da = a.0 - a.1 as f64;
            let db = b.0 - b.1 as f64;
            da.total_cmp(&db).then(b.2.cmp(&a.2)) // older job (smaller seq) wins ties
        })?;
        jobs.iter()
            .enumerate()
            .filter(|(_, j)| j.demand > 0 && j.tenant == *winner)
            .min_by_key(|(_, j)| j.seq)
            .map(|(i, _)| i)
    }

    fn pick_next(&self, queued: &[QueuedView]) -> Option<usize> {
        // Activate the queued job of the tenant with the least weighted
        // running load, so a flood of submissions from one tenant cannot
        // monopolise the admission slots; ties in submission order.
        queued
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let la = a.running_of_tenant as f64 / self.weight(&a.tenant);
                let lb = b.running_of_tenant as f64 / self.weight(&b.tenant);
                la.total_cmp(&lb).then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i)
    }

    fn starved(&self, _kind: SlotKind, total: usize, jobs: &[JobView]) -> Vec<String> {
        self.shares(total, jobs)
            .iter()
            .filter(|(_, (entitled, held, _))| (*held as f64) < entitled.floor())
            .map(|(tenant, _)| tenant.to_string())
            .collect()
    }
}

/// Hard per-tenant slot ceilings: FIFO among jobs whose tenant is under its
/// cap of the arbitrated kind, and never a grant beyond the cap — capacity
/// guarantees by exclusion rather than redistribution.
#[derive(Debug, Clone)]
pub struct CapacityScheduler {
    caps: BTreeMap<String, SlotCaps>,
    default_caps: SlotCaps,
}

/// Per-tenant slot ceilings used by [`CapacityScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotCaps {
    /// Maximum concurrently-held map slots.
    pub map: usize,
    /// Maximum concurrently-held reduce slots.
    pub reduce: usize,
}

impl SlotCaps {
    /// Unlimited caps.
    pub fn unlimited() -> Self {
        SlotCaps {
            map: usize::MAX,
            reduce: usize::MAX,
        }
    }

    fn of(&self, kind: SlotKind) -> usize {
        match kind {
            SlotKind::Map => self.map,
            SlotKind::Reduce => self.reduce,
        }
    }
}

impl Default for CapacityScheduler {
    fn default() -> Self {
        CapacityScheduler {
            caps: BTreeMap::new(),
            default_caps: SlotCaps::unlimited(),
        }
    }
}

impl CapacityScheduler {
    /// A capacity scheduler with no caps (behaves like FIFO until caps are
    /// added).
    pub fn new() -> Self {
        CapacityScheduler::default()
    }

    /// Builder-style per-tenant cap.
    pub fn with_cap(mut self, tenant: &str, caps: SlotCaps) -> Self {
        self.caps.insert(tenant.to_string(), caps);
        self
    }

    /// Builder-style cap applied to tenants without an explicit entry.
    pub fn with_default_cap(mut self, caps: SlotCaps) -> Self {
        self.default_caps = caps;
        self
    }

    fn cap(&self, tenant: &str, kind: SlotKind) -> usize {
        self.caps
            .get(tenant)
            .copied()
            .unwrap_or(self.default_caps)
            .of(kind)
    }
}

impl JobScheduler for CapacityScheduler {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn pick(&self, kind: SlotKind, _total: usize, jobs: &[JobView]) -> Option<usize> {
        // Per-tenant held counts of this kind.
        let mut held: BTreeMap<&str, usize> = BTreeMap::new();
        for j in jobs {
            *held.entry(&j.tenant).or_insert(0) += j.held;
        }
        jobs.iter()
            .enumerate()
            .filter(|(_, j)| j.demand > 0 && held[j.tenant.as_str()] < self.cap(&j.tenant, kind))
            .min_by_key(|(_, j)| j.seq)
            .map(|(i, _)| i)
    }
}

/// Per-tenant admission quotas, checked when a job is submitted (queue
/// depth, namespace and storage budgets) and when it is activated (running
/// jobs). The default is unlimited everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum jobs the tenant may have waiting in the admission queue.
    pub max_queued_jobs: usize,
    /// Maximum jobs of the tenant running concurrently.
    pub max_running_jobs: usize,
    /// Budget of BSFS/HDFS namespace entries (output files) the tenant's
    /// completed jobs may have created; once consumed, submits are refused.
    pub max_namespace_entries: u64,
    /// Budget of storage bytes (provider space) the tenant's completed jobs
    /// may have written; once consumed, submits are refused.
    pub max_storage_bytes: u64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_queued_jobs: usize::MAX,
            max_running_jobs: usize::MAX,
            max_namespace_entries: u64::MAX,
            max_storage_bytes: u64::MAX,
        }
    }
}

impl TenantQuota {
    /// Unlimited quotas (the default).
    pub fn unlimited() -> Self {
        TenantQuota::default()
    }

    /// Builder-style queue-depth bound.
    pub fn with_max_queued(mut self, n: usize) -> Self {
        self.max_queued_jobs = n;
        self
    }

    /// Builder-style concurrent-running bound.
    pub fn with_max_running(mut self, n: usize) -> Self {
        self.max_running_jobs = n;
        self
    }

    /// Builder-style namespace-entry budget.
    pub fn with_max_namespace_entries(mut self, n: u64) -> Self {
        self.max_namespace_entries = n;
        self
    }

    /// Builder-style storage-byte budget.
    pub fn with_max_storage_bytes(mut self, n: u64) -> Self {
        self.max_storage_bytes = n;
        self
    }
}

/// What a tenant's completed jobs have consumed so far — the ledger the
/// namespace/storage budgets of [`TenantQuota`] are checked against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Output files created (namespace entries).
    pub namespace_entries: u64,
    /// Output bytes written (provider space).
    pub storage_bytes: u64,
    /// Jobs completed successfully.
    pub jobs_completed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seq: u64, tenant: &str, demand: usize, held: usize) -> JobView {
        JobView {
            seq,
            tenant: tenant.to_string(),
            demand,
            held,
            speculative: 0,
        }
    }

    #[test]
    fn fifo_picks_the_oldest_demanding_job() {
        let s = FifoScheduler;
        let jobs = vec![
            job(3, "a", 5, 0),
            job(1, "b", 0, 2), // no demand: ineligible despite lowest seq
            job(2, "c", 1, 0),
        ];
        assert_eq!(s.pick(SlotKind::Map, 8, &jobs), Some(2));
        assert_eq!(s.pick(SlotKind::Map, 8, &[job(1, "a", 0, 0)]), None);
        assert!(s.starved(SlotKind::Map, 8, &jobs).is_empty());
    }

    #[test]
    fn fair_fills_the_largest_deficit_first() {
        let s = FairScheduler::new();
        // Equal weights over 8 slots, both demanding: each entitled to 4.
        // "heavy" holds 5, "light" holds 1 -> light's deficit is larger.
        let jobs = vec![job(1, "heavy", 10, 5), job(2, "light", 10, 1)];
        assert_eq!(s.pick(SlotKind::Map, 8, &jobs), Some(1));
        // Once light reaches its entitlement the grant flips back.
        let jobs = vec![job(1, "heavy", 10, 3), job(2, "light", 10, 4)];
        assert_eq!(s.pick(SlotKind::Map, 8, &jobs), Some(0));
    }

    #[test]
    fn fair_weights_skew_the_entitlement() {
        let s = FairScheduler::new().with_weight("gold", 3.0);
        // 8 slots, weights 3:1 -> gold entitled to 6, bronze to 2.
        let jobs = vec![job(1, "gold", 10, 4), job(2, "bronze", 10, 2)];
        // gold deficit 2, bronze deficit 0.
        assert_eq!(s.pick(SlotKind::Map, 8, &jobs), Some(0));
    }

    #[test]
    fn fair_picks_a_job_whatever_the_weights() {
        for weight in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX, 0.0] {
            let s = FairScheduler::new()
                .with_weight("a", weight)
                .with_weight("b", f64::INFINITY);
            let jobs = vec![job(1, "a", 10, 0), job(2, "b", 10, 3)];
            assert!(s.pick(SlotKind::Map, 8, &jobs).is_some(), "weight {weight}");
            let queued: Vec<QueuedView> = [(1, "a", 2), (2, "b", 0)]
                .into_iter()
                .map(|(seq, tenant, running_of_tenant)| QueuedView {
                    seq,
                    tenant: tenant.into(),
                    running_of_tenant,
                })
                .collect();
            assert!(s.pick_next(&queued).is_some(), "weight {weight}");
        }
    }

    #[test]
    fn fair_counts_held_slots_of_non_demanding_jobs() {
        let s = FairScheduler::new();
        // Tenant a's second job holds 4 slots with no demand left; its first
        // job demands more. a's held total (4) is at its entitlement, so b
        // gets the slot even though a's demanding job holds nothing.
        let jobs = vec![job(1, "a", 3, 0), job(2, "a", 0, 4), job(3, "b", 3, 2)];
        assert_eq!(s.pick(SlotKind::Map, 8, &jobs), Some(2));
    }

    #[test]
    fn fair_reports_starved_tenants() {
        let s = FairScheduler::new();
        // 8 slots, both demanding, entitled 4 each: light holds 1 (< 4) and
        // is starved; heavy holds 7 (>= 4) and is not.
        let jobs = vec![job(1, "heavy", 10, 7), job(2, "light", 10, 1)];
        assert_eq!(s.starved(SlotKind::Map, 8, &jobs), vec!["light"]);
        // No demand, no starvation.
        let jobs = vec![job(1, "heavy", 10, 8), job(2, "light", 0, 0)];
        assert!(s.starved(SlotKind::Map, 8, &jobs).is_empty());
    }

    #[test]
    fn fair_activation_balances_running_jobs_per_tenant() {
        let s = FairScheduler::new();
        let queued = vec![
            QueuedView {
                seq: 1,
                tenant: "flooder".into(),
                running_of_tenant: 3,
            },
            QueuedView {
                seq: 9,
                tenant: "light".into(),
                running_of_tenant: 0,
            },
        ];
        // The light tenant activates first despite its later submission.
        assert_eq!(s.pick_next(&queued), Some(1));
        // FIFO's default activation is submission order.
        assert_eq!(FifoScheduler.pick_next(&queued), Some(0));
    }

    #[test]
    fn capacity_enforces_hard_caps_in_fifo_order() {
        let s = CapacityScheduler::new().with_cap("capped", SlotCaps { map: 2, reduce: 1 });
        // capped is at its map cap: the younger uncapped job wins.
        let jobs = vec![job(1, "capped", 10, 2), job(2, "free", 1, 5)];
        assert_eq!(s.pick(SlotKind::Map, 8, &jobs), Some(1));
        // Under the cap, FIFO order applies.
        let jobs = vec![job(1, "capped", 10, 1), job(2, "free", 1, 0)];
        assert_eq!(s.pick(SlotKind::Map, 8, &jobs), Some(0));
        // The reduce cap is separate (held counts are per-kind views).
        let jobs = vec![job(1, "capped", 10, 1)];
        assert_eq!(s.pick(SlotKind::Reduce, 4, &jobs), None);
        // Everyone capped and at cap: no grant at all.
        let s = s.with_default_cap(SlotCaps { map: 0, reduce: 0 });
        let jobs = vec![job(2, "free", 1, 0)];
        assert_eq!(s.pick(SlotKind::Map, 8, &jobs), None);
    }

    #[test]
    fn quota_builders_and_defaults() {
        let q = TenantQuota::default();
        assert_eq!(q.max_queued_jobs, usize::MAX);
        let q = TenantQuota::unlimited()
            .with_max_queued(2)
            .with_max_running(1)
            .with_max_namespace_entries(100)
            .with_max_storage_bytes(1 << 20);
        assert_eq!(q.max_queued_jobs, 2);
        assert_eq!(q.max_running_jobs, 1);
        assert_eq!(q.max_namespace_entries, 100);
        assert_eq!(q.max_storage_bytes, 1 << 20);
    }
}
