//! The jobtracker: job orchestration over the tasktrackers.
//!
//! The jobtracker is the "single master" of the Hadoop architecture the paper
//! describes (§II-A): it splits the input, hands map tasks to tasktrackers
//! (preferring trackers whose node holds the split's data), re-executes
//! failed tasks, schedules the reduce tasks and reports job-level counters.
//! A tasktracker slot is a counted *token* per (node, kind), not a thread:
//! each running job has one dispatcher — the thread that called
//! [`JobTracker::run`], or [`JobTracker::submit`]'s driver — which pairs free
//! tokens with runnable attempts and submits **one attempt as one task** to
//! the shared `miniexec` worker pool. It waits for events (an attempt ended,
//! a token came back) and for nothing else, so the pool's width bounds
//! parallelism only: any job finishes on a single worker.
//!
//! ## Multi-tenant job scheduling
//!
//! The jobtracker runs many jobs at once. [`JobTracker::submit`] enqueues a
//! job and returns a [`JobHandle`]; [`JobTracker::run`] is the
//! submit-and-wait shim. Admission is controlled per tenant by
//! [`TenantQuota`]s (queue depth, running jobs, namespace/storage budgets
//! checked against the usage ledger at submit), and the order queued jobs
//! activate in is the configured [`JobScheduler`]'s choice. Once running,
//! every job's dispatcher competes for one shared pool of per-node map and
//! reduce slot tokens: before each acquire it publishes its job's exact
//! demand and asks the scheduler for a grant; when the attempt ends the
//! token goes back to the pool. FIFO, weighted fair-share, and hard-cap
//! capacity policies live in [`crate::jobsched`]. Speculative clones only
//! ever run on tokens no job has real demand for, and when the fair
//! scheduler reports a tenant starved of its entitlement while the pool is
//! exhausted, running clones are preempted (aborted mid-task via their
//! progress callback) — duplicate work is sacrificed first, exactly like
//! Hadoop's fair-scheduler preemption.
//!
//! Intermediate data flows through the storage layer ([`crate::shuffle`]):
//! map tasks spill sorted, partition-bucketed files under a per-execution
//! scratch namespace (`<output>/_shuffle-<tag>/`, see
//! [`shuffle::JobScratch`] — scoped so concurrent jobs, or one tenant
//! resubmitting the same config, can never clobber each other's
//! intermediates), and reduce tasks pull their partition's segment from
//! every committed map file with one exact positioned read each, located by
//! the spill index the map's commit published — starting as soon as
//! individual map outputs commit, not behind a global map barrier. All task
//! output (spills and `part-*` files alike) goes through the
//! write-to-`_temporary`-then-rename commit protocol, so retried attempts
//! never leave partial or duplicate files. The original collect-everything-
//! in-RAM shuffle survives as [`JobTracker::run_inmem`], the sequential
//! differential-testing oracle.
//!
//! ## Stragglers and speculative execution
//!
//! Per-task bookkeeping is the [`TaskBook`] attempt state machine: a task
//! may have several concurrent attempts (retries, and — when the job
//! configures a [`SpeculationPolicy`](crate::scheduler::SpeculationPolicy) —
//! speculative clones of stragglers, launched on *idle* slot tokens of a
//! different node than the incumbent attempt's). Whichever attempt finishes
//! first commits by renaming its `_temporary` scratch into the final path
//! *while holding the phase lock*, so exactly one attempt ever wins; the
//! loser's scratch is deleted and none of its counters (input records,
//! locality, shuffle round trips) are merged into the [`JobResult`] — only
//! the [`SpeculationCounters`] record the waste. All timing goes through an
//! injectable [`Clock`] ([`WallClock`] by default), so straggler scenarios
//! are tested deterministically on a [`simcluster::clock::SimClock`] without
//! wall-clock sleeps.

use crate::error::{MrError, MrResult};
use crate::fs::DistFs;
use crate::job::Job;
use crate::jobsched::{
    FifoScheduler, JobScheduler, JobView, QueuedView, SlotKind, TenantQuota, TenantUsage,
};
use crate::scheduler::{classify, pick_map_task, Locality, LocalityCounters, SpeculationPolicy};
use crate::shuffle::{self, IndexEntry, JobScratch, MapOutputBuffer};
use crate::split::{compute_splits, InputSplit};
use crate::tasktracker::{
    group_by_key, map_split, run_map_task, run_reduce_task, write_output_file, FailureVerdict,
    MapTaskOutput, OutputFile, SpeculationCounters, TaskAttemptId, TaskBook, TaskTracker,
};
use parking_lot::{Condvar, Mutex};
use simcluster::clock::{Clock, Parker, WallClock};
use simcluster::topology::ClusterTopology;
use simcluster::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use wire::{Direction, Transport, MSG_OVERHEAD};

/// Counters of the storage-materialized shuffle, the analogue of Hadoop's
/// spilled-records / shuffle-bytes job counters. All zero for map-only jobs
/// and for [`JobTracker::run_inmem`] (which moves no intermediate bytes
/// through storage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleCounters {
    /// Bytes of spill files written by map tasks: their records' payload —
    /// the index travels with the commit, not in the file.
    pub spill_bytes: u64,
    /// Intermediate records written to spill files (post-combine).
    pub spill_records: u64,
    /// Records fed into the combiner at spill time (0 without a combiner).
    pub combine_input_records: u64,
    /// Records the combiner emitted.
    pub combine_output_records: u64,
    /// Map-output segments pulled by reduce tasks (one per map x reduce pair
    /// per successful attempt).
    pub segments_fetched: u64,
    /// Non-empty sorted runs fed to the reducers' k-way merges.
    pub merge_runs: u64,
    /// Positioned reads issued by segment fetches: one per non-empty
    /// segment, none for an empty one.
    pub shuffle_read_round_trips: u64,
    /// Bytes moved by segment fetches.
    pub shuffle_read_bytes: u64,
}

impl ShuffleCounters {
    /// Project the shuffle's data-plane traffic onto the shared
    /// [`wire::CountersSnapshot`] schema used by every other boundary in
    /// the stack: each positioned segment read is one read message whose
    /// request is framing-only and whose response carries the fetched
    /// bytes. Spill writes are local to the map node and move nothing over
    /// this wire.
    pub fn wire_snapshot(&self) -> wire::CountersSnapshot {
        let sent = self.shuffle_read_round_trips * MSG_OVERHEAD;
        let received = self.shuffle_read_bytes + self.shuffle_read_round_trips * MSG_OVERHEAD;
        wire::CountersSnapshot {
            messages: self.shuffle_read_round_trips,
            read_messages: self.shuffle_read_round_trips,
            write_messages: 0,
            bytes_sent: sent,
            bytes_received: received,
            bytes_on_wire: sent + received,
        }
    }
}

/// Job-level counters and outcome, the analogue of Hadoop's job report.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Name of the job.
    pub job_name: String,
    /// Name of the storage backend the job ran over ("BSFS" / "HDFS").
    pub fs_name: String,
    /// Number of map tasks executed.
    pub map_tasks: usize,
    /// Number of reduce tasks executed.
    pub reduce_tasks: usize,
    /// Map-task locality breakdown (winning attempts only).
    pub locality: LocalityCounters,
    /// Task attempts that failed and were retried.
    pub task_retries: usize,
    /// Input records consumed by the map phase (winning attempts only —
    /// losing speculative attempts re-read the same splits, but their
    /// counters are discarded with their output).
    pub input_records: u64,
    /// Records produced by the reduce phase (or the map phase for map-only
    /// jobs).
    pub output_records: u64,
    /// Bytes read from the storage layer by map tasks.
    pub input_bytes: u64,
    /// Bytes written to the storage layer by output tasks.
    pub output_bytes: u64,
    /// Counters of the storage-materialized shuffle.
    pub shuffle: ShuffleCounters,
    /// Speculative-execution outcome (launches, wins, wasted work), summed
    /// over both phases. All zero when the job sets no speculation policy.
    pub speculation: SpeculationCounters,
    /// Duration of the job on the jobtracker's [`Clock`]: wall-clock time in
    /// production, virtual time under a `SimClock`. Measured from activation
    /// to the commit of the last task — queueing delay behind other jobs is
    /// not included (measure it around [`JobTracker::submit`]).
    pub elapsed: Duration,
    /// Paths of the `part-*` output files.
    pub output_files: Vec<String>,
}

impl JobResult {
    /// Completion time in seconds (the metric the paper reports for the
    /// application experiments).
    pub fn completion_secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

/// The framework master. Cheap to clone: clones share the tasktrackers, the
/// clock, the control wire, and the whole multi-tenant engine (admission
/// queue, slot pool, quotas, ledger), so a clone moved into a driver thread
/// still schedules against the same cluster.
#[derive(Clone)]
pub struct JobTracker {
    topology: ClusterTopology,
    trackers: Vec<TaskTracker>,
    clock: Arc<dyn Clock>,
    control: Option<Arc<ControlWire>>,
    engine: Arc<Engine>,
}

/// What a control message is on the wire: a claim reads, a report writes.
const CLAIM: Direction = Direction::Read;
const REPORT: Direction = Direction::Write;

/// The jobtracker <-> tasktracker control channel. When a transport is
/// attached ([`JobTracker::with_transport`]), every task claim and every
/// attempt-outcome report is charged as one small framed exchange between
/// the slot's node and the jobtracker's home node — the heartbeat-carried
/// RPCs of the Hadoop protocol. Control messages carry bookkeeping, not
/// data, so both directions are framing-only.
struct ControlWire {
    transport: Arc<dyn Transport>,
    counters: wire::Counters,
    jt_node: NodeId,
}

impl ControlWire {
    /// One control round trip between a slot token's node and the master: a
    /// claim (request out, assignment back) is a read, an attempt-outcome
    /// report (status out, ack back) a write.
    fn charge(&self, direction: Direction, tracker: NodeId) {
        self.counters.record(direction, MSG_OVERHEAD, MSG_OVERHEAD);
        self.transport
            .exchange(tracker, self.jt_node, direction, MSG_OVERHEAD, MSG_OVERHEAD);
    }
}

/// Per-job accounting the scheduler arbitrates over: how many slot tokens
/// of each kind the job wants right now, holds, and is burning on
/// speculative clones. Demand is written by the job's dispatcher alone (under
/// its phase lock, so it is exact at every grant); all of it is read under
/// the pool lock when building [`JobView`]s.
struct JobAccount {
    seq: u64,
    tenant: String,
    /// Where the job's dispatcher parks between events, and the clock it
    /// parks through (clones of one jobtracker may run on different clocks).
    parker: Parker,
    clock: Arc<dyn Clock>,
    /// Per [`SlotKind`] (`kind as usize`): claimable work, tokens held, and
    /// of those the ones running speculative clones.
    demand: [AtomicUsize; 2],
    held: [AtomicUsize; 2],
    spec: [AtomicUsize; 2],
    /// Outstanding preemption requests against this job's speculative
    /// clones; consumed by a clone at its next progress checkpoint.
    preempt: AtomicUsize,
}

impl JobAccount {
    fn new(seq: u64, tenant: &str, clock: Arc<dyn Clock>) -> Self {
        JobAccount {
            seq,
            tenant: tenant.to_string(),
            parker: Parker::new(),
            clock,
            demand: Default::default(),
            held: Default::default(),
            spec: Default::default(),
            preempt: AtomicUsize::new(0),
        }
    }

    fn spec_total(&self) -> usize {
        self.spec.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Wake the job's dispatcher: something it may act on has changed.
    fn wake(&self) {
        self.clock.unpark(&self.parker);
    }

    /// Consume one pending preemption request, if any. Called by
    /// speculative attempts at their progress checkpoints; returning `true`
    /// means "abort now, your slot is owed to a starved tenant".
    fn take_preempt(&self) -> bool {
        self.preempt
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
    }

    fn view(&self, kind: SlotKind) -> JobView {
        JobView {
            seq: self.seq,
            tenant: self.tenant.clone(),
            demand: self.demand[kind as usize].load(Ordering::Relaxed),
            held: self.held[kind as usize].load(Ordering::Relaxed),
            speculative: self.spec[kind as usize].load(Ordering::Relaxed),
        }
    }
}

/// The shared slot pool: a slot is a counted token per (node, kind) — free
/// counts sized from the tasktrackers — plus the accounts of every running
/// job. Every change to it is an event some dispatcher may be waiting for,
/// so every change wakes the jobs it can matter to.
struct SlotPool {
    /// Free tokens per node and their sum at rest, per [`SlotKind`]
    /// (`kind as usize`).
    free: [HashMap<NodeId, usize>; 2],
    total: [usize; 2],
    jobs: Vec<Arc<JobAccount>>,
}

impl SlotPool {
    fn new(trackers: &[TaskTracker]) -> Self {
        let mut free: [HashMap<NodeId, usize>; 2] = Default::default();
        for t in trackers {
            *free[SlotKind::Map as usize].entry(t.node).or_insert(0) += t.map_slots;
            *free[SlotKind::Reduce as usize].entry(t.node).or_insert(0) += t.reduce_slots;
        }
        let total = [0, 1].map(|kind| free[kind].values().sum());
        SlotPool {
            free,
            total,
            jobs: Vec::new(),
        }
    }

    fn views(&self, kind: SlotKind) -> Vec<JobView> {
        self.jobs.iter().map(|a| a.view(kind)).collect()
    }

    /// Wake every registered job's dispatcher, except job `but`'s own.
    fn wake(&self, but: Option<u64>) {
        for job in self.jobs.iter().filter(|j| Some(j.seq) != but) {
            job.wake();
        }
    }

    /// A token of `kind` is free on `node` and no running job has real
    /// demand of that kind: a speculative clone may take it.
    fn idle(&self, node: NodeId, kind: SlotKind) -> bool {
        self.free[kind as usize]
            .get(&node)
            .is_some_and(|free| *free > 0)
            && !self
                .jobs
                .iter()
                .any(|j| j.demand[kind as usize].load(Ordering::Relaxed) > 0)
    }

    /// Hand one free `kind` token on `node` to `account` (false if the node
    /// has none). The other jobs' shares just changed: wake them.
    fn take(&mut self, account: &JobAccount, node: NodeId, kind: SlotKind) -> bool {
        match self.free[kind as usize].get_mut(&node) {
            Some(free) if *free > 0 => *free -= 1,
            _ => return false,
        }
        account.held[kind as usize].fetch_add(1, Ordering::Relaxed);
        self.wake(Some(account.seq));
        true
    }
}

/// The admission queue: jobs waiting to be activated and jobs currently
/// running, as `(seq, tenant)` pairs.
#[derive(Default)]
struct Admission {
    queued: Vec<(u64, String)>,
    running: Vec<(u64, String)>,
}

impl Admission {
    fn running_of(&self, tenant: &str) -> usize {
        self.running.iter().filter(|(_, t)| t == tenant).count()
    }
}

/// Default bound on concurrently running jobs
/// ([`JobTracker::with_max_concurrent_jobs`] overrides it).
const DEFAULT_MAX_CONCURRENT_JOBS: usize = 4;

/// The multi-tenant engine every [`JobTracker`] clone shares: the pluggable
/// scheduler, per-tenant quotas and the usage ledger, the admission queue,
/// and the slot-token pool.
struct Engine {
    scheduler: Mutex<Arc<dyn JobScheduler>>,
    quotas: Mutex<HashMap<String, TenantQuota>>,
    ledger: Mutex<HashMap<String, TenantUsage>>,
    admission: Mutex<Admission>,
    admission_cv: Condvar,
    pool: Mutex<SlotPool>,
    max_active: AtomicUsize,
    seq: AtomicU64,
    /// Serializes the exists-then-mkdirs check of job preparation, so two
    /// concurrent jobs with the same output directory race to exactly one
    /// winner (the loser gets `OutputExists`), never to a shared directory.
    prepare_lock: Mutex<()>,
}

impl Engine {
    fn new(trackers: &[TaskTracker]) -> Self {
        Engine {
            scheduler: Mutex::new(Arc::new(FifoScheduler)),
            quotas: Mutex::new(HashMap::new()),
            ledger: Mutex::new(HashMap::new()),
            admission: Mutex::new(Admission::default()),
            admission_cv: Condvar::new(),
            pool: Mutex::new(SlotPool::new(trackers)),
            max_active: AtomicUsize::new(DEFAULT_MAX_CONCURRENT_JOBS),
            seq: AtomicU64::new(0),
            prepare_lock: Mutex::new(()),
        }
    }

    fn quota_of(&self, tenant: &str) -> TenantQuota {
        self.quotas.lock().get(tenant).copied().unwrap_or_default()
    }

    fn usage_of(&self, tenant: &str) -> TenantUsage {
        self.ledger.lock().get(tenant).copied().unwrap_or_default()
    }

    /// Admission-quota check and queue insertion. Returns the job's
    /// submission sequence number (also its scratch-namespace tag).
    fn enqueue(&self, tenant: &str) -> MrResult<u64> {
        let quota = self.quota_of(tenant);
        let usage = self.usage_of(tenant);
        if usage.namespace_entries >= quota.max_namespace_entries {
            return Err(MrError::QuotaExceeded {
                tenant: tenant.to_string(),
                reason: format!(
                    "namespace budget exhausted ({} of {} entries used)",
                    usage.namespace_entries, quota.max_namespace_entries
                ),
            });
        }
        if usage.storage_bytes >= quota.max_storage_bytes {
            return Err(MrError::QuotaExceeded {
                tenant: tenant.to_string(),
                reason: format!(
                    "storage budget exhausted ({} of {} bytes used)",
                    usage.storage_bytes, quota.max_storage_bytes
                ),
            });
        }
        let mut adm = self.admission.lock();
        let queued = adm.queued.iter().filter(|(_, t)| t == tenant).count();
        if queued >= quota.max_queued_jobs {
            return Err(MrError::QuotaExceeded {
                tenant: tenant.to_string(),
                reason: format!(
                    "admission queue full ({queued} jobs queued, limit {})",
                    quota.max_queued_jobs
                ),
            });
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        adm.queued.push((seq, tenant.to_string()));
        self.admission_cv.notify_all();
        Ok(seq)
    }

    /// Remove a queued job that will never run (driver-thread spawn failed).
    fn abandon(&self, seq: u64) {
        let mut adm = self.admission.lock();
        adm.queued.retain(|(s, _)| *s != seq);
        self.admission_cv.notify_all();
    }

    /// Block until the scheduler activates this job: a running-jobs slot is
    /// free and [`JobScheduler::pick_next`] chooses it among the queued jobs
    /// whose tenant is under its running-jobs quota.
    fn await_activation(&self, seq: u64, tenant: &str) {
        let scheduler = self.scheduler.lock().clone();
        let mut adm = self.admission.lock();
        loop {
            if adm.running.len() < self.max_active.load(Ordering::Relaxed) {
                let quotas = self.quotas.lock();
                let eligible: Vec<QueuedView> = adm
                    .queued
                    .iter()
                    .filter_map(|(s, t)| {
                        let quota = quotas.get(t).copied().unwrap_or_default();
                        let running = adm.running_of(t);
                        (running < quota.max_running_jobs).then(|| QueuedView {
                            seq: *s,
                            tenant: t.clone(),
                            running_of_tenant: running,
                        })
                    })
                    .collect();
                drop(quotas);
                if let Some(i) = scheduler.pick_next(&eligible) {
                    if eligible[i].seq == seq {
                        adm.queued.retain(|(s, _)| *s != seq);
                        adm.running.push((seq, tenant.to_string()));
                        // Wake the other waiters: more activation slots may
                        // remain, and their eligibility just changed.
                        self.admission_cv.notify_all();
                        return;
                    }
                }
            }
            self.admission_cv.wait(&mut adm);
        }
    }

    /// Register the activated job's account with the slot pool.
    fn register(&self, seq: u64, tenant: &str, clock: Arc<dyn Clock>) -> Arc<JobAccount> {
        let account = Arc::new(JobAccount::new(seq, tenant, clock));
        self.pool.lock().jobs.push(account.clone());
        account
    }

    /// Tear down a finished job: deregister its account (its share of the
    /// pool is the other jobs' now — wake them), settle the tenant's ledger
    /// with what the job actually produced, free its running-jobs slot and
    /// wake the admission queue.
    fn finish(&self, account: &JobAccount, result: Option<&JobResult>) {
        {
            let mut pool = self.pool.lock();
            pool.jobs.retain(|j| j.seq != account.seq);
            pool.wake(None);
        }
        if let Some(r) = result {
            let mut ledger = self.ledger.lock();
            let usage = ledger.entry(account.tenant.clone()).or_default();
            usage.namespace_entries += r.output_files.len() as u64;
            usage.storage_bytes += r.output_bytes;
            usage.jobs_completed += 1;
        }
        let mut adm = self.admission.lock();
        adm.running.retain(|(s, _)| *s != account.seq);
        self.admission_cv.notify_all();
    }

    /// Publish `account`'s exact demand of `kind`. A drop hands scheduler
    /// share (and maybe the idle tier) to the other jobs, so it wakes them.
    fn publish_demand(&self, account: &JobAccount, kind: SlotKind, demand: usize) {
        if account.demand[kind as usize].swap(demand, Ordering::Relaxed) > demand {
            self.pool.lock().wake(Some(account.seq));
        }
    }

    /// Try to take a token of `kind` on `node` for regular (non-speculative)
    /// work: the token must be free and the scheduler must pick this job.
    /// On a miss with the pool fully exhausted, a starved tenant files a
    /// preemption request against some job's speculative clones.
    fn try_acquire(&self, account: &JobAccount, node: NodeId, kind: SlotKind) -> bool {
        let scheduler = self.scheduler.lock().clone();
        let mut pool = self.pool.lock();
        let views = pool.views(kind);
        let total = pool.total[kind as usize];
        let picked = scheduler
            .pick(kind, total, &views)
            .is_some_and(|i| pool.jobs[i].seq == account.seq);
        if picked && pool.take(account, node, kind) {
            return true;
        }
        let total_free: usize = pool.free[kind as usize].values().sum();
        if total_free == 0 {
            let starved = scheduler.starved(kind, total, &views);
            if starved.contains(&account.tenant) {
                // Preempt duplicate work first: ask any job running more
                // speculative clones than it has pending preemptions to give
                // one back at its next progress checkpoint.
                if let Some(victim) = pool.jobs.iter().find(|j| {
                    j.seq != account.seq && j.spec_total() > j.preempt.load(Ordering::Relaxed)
                }) {
                    victim.preempt.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        false
    }

    /// Try to take a token of `kind` on `node` for a speculative clone.
    /// Granted only when *no* running job has real demand of that kind —
    /// clones soak up genuinely idle capacity and never displace primary
    /// attempts (which also means no tenant can be starved at grant time).
    fn try_acquire_idle(&self, account: &JobAccount, node: NodeId, kind: SlotKind) -> bool {
        let mut pool = self.pool.lock();
        let granted = pool.idle(node, kind) && pool.take(account, node, kind);
        if granted {
            account.spec[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
        granted
    }

    /// Would [`Engine::try_acquire_idle`] succeed right now? Read-only: the
    /// dispatcher arms its straggler deadline only for tokens a clone could
    /// actually take.
    fn has_idle(&self, node: NodeId, kind: SlotKind) -> bool {
        self.pool.lock().idle(node, kind)
    }

    /// Return a token to the pool (`speculative`: it was an idle-tier grant)
    /// and wake every dispatcher: the owner has an attempt outcome to act
    /// on, the others a free token to ask for.
    fn release(&self, account: &JobAccount, node: NodeId, kind: SlotKind, speculative: bool) {
        let mut pool = self.pool.lock();
        if let Some(free) = pool.free[kind as usize].get_mut(&node) {
            *free += 1;
        }
        account.held[kind as usize].fetch_sub(1, Ordering::Relaxed);
        if speculative {
            account.spec[kind as usize].fetch_sub(1, Ordering::Relaxed);
        }
        pool.wake(None);
    }
}

/// Handle to a job submitted with [`JobTracker::submit`]: join it with
/// [`JobHandle::wait`].
pub struct JobHandle {
    seq: u64,
    rx: mpsc::Receiver<MrResult<JobResult>>,
}

impl JobHandle {
    /// The job's submission sequence number (its position in FIFO order,
    /// and the tag of its scratch namespace).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Block until the job finishes and return its report.
    pub fn wait(self) -> MrResult<JobResult> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(MrError::Storage(
                "job driver thread exited without reporting a result".into(),
            ))
        })
    }
}

/// A committed map spill the reducers fetch from, with the index its
/// winning attempt published: where each partition's segment lies in the
/// file, so a fetch is one exact read.
#[derive(Debug, Clone)]
struct FetchSource {
    map_id: usize,
    index: Vec<IndexEntry>,
}

impl FetchSource {
    /// Where `partition`'s segment lies in the spill: an error, not a panic,
    /// when the published index has no such partition.
    fn entry(&self, partition: usize) -> MrResult<IndexEntry> {
        self.index.get(partition).copied().ok_or_else(|| {
            MrError::Storage(format!(
                "the spill of map {} indexes {} partitions, not partition {partition}",
                self.map_id,
                self.index.len()
            ))
        })
    }
}

/// Shared map-phase state guarded by one mutex.
#[derive(Default)]
struct MapPhase {
    /// The attempt state machine: pending/running/committed tasks.
    book: TaskBook,
    /// Per-task counters of the *winning* attempt, filled as tasks commit
    /// (the data lives in the spill files).
    results: Vec<Option<MapTaskOutput>>,
    failure: Option<MrError>,
    locality: LocalityCounters,
    /// Output bytes written directly by map tasks (map-only jobs).
    map_output_bytes: u64,
    map_output_records: u64,
    output_files: Vec<String>,
    /// Clock reading when the last task committed (map-only jobs).
    finished_at: Option<Duration>,
    /// The reducers' fetch plan: committed spills in commit order. Grows
    /// monotonically; reducers consume it as a queue and never see an entry
    /// retracted.
    sources: Vec<FetchSource>,
}

/// Shared reduce-phase state.
#[derive(Default)]
struct ReducePhase {
    book: TaskBook,
    failure: Option<MrError>,
    /// Granted attempts between fetch steps: each holds its slot token and
    /// what it has fetched so far, but no thread. The dispatcher resubmits
    /// one when the fetch plan has sources it has not seen.
    parked: Vec<ReduceAttempt>,
    output_bytes: u64,
    output_records: u64,
    output_files: Vec<String>,
    segments_fetched: u64,
    merge_runs: u64,
    read_round_trips: u64,
    read_bytes: u64,
    /// Clock reading when the last partition committed.
    finished_at: Option<Duration>,
}

/// A granted reduce attempt and its fetch progress. It takes its token at
/// grant, so fetching overlaps the map phase, but occupies a pool worker only
/// for a step at a time ([`JobRun::reduce_step`]).
struct ReduceAttempt {
    id: TaskAttemptId,
    node: NodeId,
    speculative: bool,
    fetch: FetchProgress,
}

impl ReduceAttempt {
    fn new(id: TaskAttemptId, node: NodeId, speculative: bool) -> Self {
        ReduceAttempt {
            id,
            node,
            speculative,
            fetch: FetchProgress::default(),
        }
    }
}

#[derive(Default)]
struct FetchProgress {
    /// The partition's segment of every source fetched so far, by map id,
    /// encoded as fetched — one per entry of the fetch plan consumed: the
    /// attempt's last step merges them in place.
    segments: Vec<(usize, shuffle::Segment)>,
    round_trips: u64,
    bytes: u64,
}

/// What the dispatcher needs of a phase to hand out its slot tokens; the
/// grant logic itself ([`Dispatch::grant`]) is the same for both.
trait Phase {
    /// A unit of granted work, ready to run as one pool task.
    type Work;
    const KIND: SlotKind;
    /// Phase name in task ids ("map" / "reduce").
    const NAME: &'static str;
    fn book(&mut self) -> &mut TaskBook;
    fn failure(&mut self) -> &mut Option<MrError>;
    /// Regular work claimable right now: pending tasks — speculation is not
    /// demand, it only uses tokens nobody wants. Must be exact: a job that
    /// advertises demand it cannot claim hoards scheduler grants other jobs
    /// are waiting for.
    fn demand(&self) -> usize;
    /// Claim regular work for a token on `node`.
    fn claim(&mut self, at: &Dispatch, node: NodeId, now: Duration) -> Option<Self::Work>;
    /// Wrap the speculative clone `id` the book just started on `node`.
    fn clone_work(&self, at: &Dispatch, node: NodeId, id: TaskAttemptId) -> Self::Work;

    /// Route a failed attempt through the book and surface a fatal verdict
    /// as the phase failure. Shared by task errors and rename-commit errors.
    fn attempt_failed(
        &mut self,
        id: TaskAttemptId,
        err: &MrError,
        max_attempts: usize,
        now: Duration,
    ) {
        if let FailureVerdict::Fatal(attempts) = self.book().record_failure(id, now, max_attempts) {
            self.failure().get_or_insert_with(|| MrError::TaskFailed {
                task: format!("{}-{}", Self::NAME, id.task),
                attempts,
                last_error: err.to_string(),
            });
        }
    }
}

impl Phase for MapPhase {
    type Work = MapAttempt;
    const KIND: SlotKind = SlotKind::Map;
    const NAME: &'static str = "map";

    fn book(&mut self) -> &mut TaskBook {
        &mut self.book
    }

    fn failure(&mut self) -> &mut Option<MrError> {
        &mut self.failure
    }

    fn demand(&self) -> usize {
        self.book.pending().len()
    }

    fn claim(&mut self, at: &Dispatch, node: NodeId, now: Duration) -> Option<MapAttempt> {
        let (pos, locality) = pick_map_task(at.topology, node, self.book.pending(), at.splits)?;
        Some(MapAttempt {
            id: self.book.claim_pending(pos, node, now),
            locality,
            speculative: false,
        })
    }

    fn clone_work(&self, at: &Dispatch, node: NodeId, id: TaskAttemptId) -> MapAttempt {
        MapAttempt {
            id,
            locality: classify(at.topology, node, &at.splits[id.task]),
            speculative: true,
        }
    }
}

impl Phase for ReducePhase {
    type Work = ReduceAttempt;
    const KIND: SlotKind = SlotKind::Reduce;
    const NAME: &'static str = "reduce";

    fn book(&mut self) -> &mut TaskBook {
        &mut self.book
    }

    fn failure(&mut self) -> &mut Option<MrError> {
        &mut self.failure
    }

    fn demand(&self) -> usize {
        self.book.pending().len()
    }

    fn claim(&mut self, _at: &Dispatch, node: NodeId, now: Duration) -> Option<ReduceAttempt> {
        let pos = self.book.pending().len().checked_sub(1)?;
        let id = self.book.claim_pending(pos, node, now);
        Some(ReduceAttempt::new(id, node, false))
    }

    fn clone_work(&self, _at: &Dispatch, node: NodeId, id: TaskAttemptId) -> ReduceAttempt {
        ReduceAttempt::new(id, node, true)
    }
}

/// One job's handle on the engine while it hands out slot tokens: who is
/// asking, for which trackers' tokens, placing which splits on which
/// topology, on which clock. Holds no thread and no lock, so grant decisions
/// are a function tests can call.
struct Dispatch<'a> {
    engine: &'a Engine,
    account: &'a JobAccount,
    trackers: &'a [TaskTracker],
    topology: &'a ClusterTopology,
    splits: &'a [InputSplit],
    speculation: Option<&'a dyn SpeculationPolicy>,
    clock: &'a dyn Clock,
}

impl Dispatch<'_> {
    /// Grant this job every `P::KIND` token it can get right now, one per
    /// node per sweep so work spreads over the cluster and each pick is made
    /// *for the token's node*. While the phase has real demand a token is
    /// asked of the scheduler ([`Engine::try_acquire`]) and pays for a
    /// pending task; with none, the idle tier ([`Engine::try_acquire_idle`])
    /// pays for a speculative clone of a qualifying straggler. Demand is published — under the caller's phase
    /// lock, so it is exact — before every acquire and after the last claim.
    ///
    /// Returns the granted work with the node whose token it holds, and lowers
    /// `deadline` to the earliest instant a straggler could qualify for a
    /// token that is idle now: the only thing the dispatcher cannot be woken
    /// for by an event.
    fn grant<P: Phase>(
        &self,
        phase: &mut P,
        deadline: &mut Option<Duration>,
    ) -> Vec<(NodeId, P::Work)> {
        let (engine, account, kind) = (self.engine, self.account, P::KIND);
        let mut granted = Vec::new();
        if phase.failure().is_some() {
            engine.publish_demand(account, kind, 0);
            return granted;
        }
        loop {
            let before = granted.len();
            for tracker in self.trackers {
                let node = tracker.node;
                let demand = phase.demand();
                engine.publish_demand(account, kind, demand);
                let now = self.clock.now();
                // `Some(work)`: a token was taken, for `work` if any.
                let mut taken = None;
                if demand > 0 {
                    if engine.try_acquire(account, node, kind) {
                        taken = Some(phase.claim(self, node, now));
                    }
                } else if let Some(policy) = self.speculation {
                    match phase.book().speculation_wait(node, now, policy) {
                        Some(Duration::ZERO) if engine.try_acquire_idle(account, node, kind) => {
                            let clone = phase.book().claim_speculative(node, now, policy);
                            taken = Some(clone.map(|id| phase.clone_work(self, node, id)));
                        }
                        Some(wait) if !wait.is_zero() && engine.has_idle(node, kind) => {
                            *deadline = Some(deadline.map_or(now + wait, |d| d.min(now + wait)));
                        }
                        _ => {}
                    }
                }
                match taken {
                    Some(Some(work)) => granted.push((node, work)),
                    Some(None) => engine.release(account, node, kind, demand == 0),
                    None => {}
                }
            }
            if granted.len() == before {
                break;
            }
        }
        engine.publish_demand(account, kind, phase.demand());
        granted
    }
}

impl JobTracker {
    /// Create a jobtracker over one tasktracker per node of the topology,
    /// with default slot counts and the production [`WallClock`].
    pub fn new(topology: &ClusterTopology) -> Self {
        let trackers: Vec<TaskTracker> = topology.all_nodes().map(TaskTracker::new).collect();
        let engine = Arc::new(Engine::new(&trackers));
        JobTracker {
            topology: topology.clone(),
            trackers,
            clock: Arc::new(WallClock::new()),
            control: None,
            engine,
        }
    }

    /// Create a jobtracker over an explicit set of tasktrackers.
    pub fn with_trackers(topology: &ClusterTopology, trackers: Vec<TaskTracker>) -> Self {
        assert!(!trackers.is_empty(), "at least one tasktracker is required");
        let engine = Arc::new(Engine::new(&trackers));
        JobTracker {
            topology: topology.clone(),
            trackers,
            clock: Arc::new(WallClock::new()),
            control: None,
            engine,
        }
    }

    /// Builder-style clock override: job timing (attempt runtimes, straggler
    /// detection, reported completion time) reads this clock. Tests inject a
    /// [`simcluster::clock::SimClock`] here.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Builder-style transport attachment for the control plane: once set,
    /// every task claim and outcome report between a tasktracker slot and
    /// the jobtracker is charged as one small framed exchange on
    /// `transport`, with the jobtracker homed at `jt_node`. With a
    /// [`wire::SimNet`] this puts the master on the simulated network, so
    /// its latency shows up in job makespans; control traffic is metered in
    /// [`JobTracker::control_counters`].
    pub fn with_transport(mut self, transport: Arc<dyn Transport>, jt_node: NodeId) -> Self {
        self.control = Some(Arc::new(ControlWire {
            transport,
            counters: wire::Counters::new(),
            jt_node,
        }));
        self
    }

    /// Builder-style scheduler override (FIFO by default). Shared by every
    /// clone of this jobtracker — set it before submitting jobs.
    pub fn with_scheduler(self, scheduler: Arc<dyn JobScheduler>) -> Self {
        *self.engine.scheduler.lock() = scheduler;
        self
    }

    /// Builder-style bound on concurrently *running* jobs (default 4);
    /// further admitted jobs wait in the queue. Clamped to at least 1.
    pub fn with_max_concurrent_jobs(self, n: usize) -> Self {
        self.engine.max_active.store(n.max(1), Ordering::Relaxed);
        self
    }

    /// Builder-style per-tenant admission quota (unlimited by default).
    pub fn with_tenant_quota(self, tenant: &str, quota: TenantQuota) -> Self {
        self.engine.quotas.lock().insert(tenant.to_string(), quota);
        self
    }

    /// The configured scheduler's name ("fifo" unless overridden).
    pub fn scheduler_name(&self) -> &'static str {
        self.engine.scheduler.lock().name()
    }

    /// What `tenant`'s completed jobs have consumed so far (the ledger the
    /// namespace/storage quota budgets are checked against).
    pub fn tenant_usage(&self, tenant: &str) -> TenantUsage {
        self.engine.usage_of(tenant)
    }

    /// Control-plane wire counters: claims are read exchanges, outcome
    /// reports are writes. `None` until [`JobTracker::with_transport`].
    pub fn control_counters(&self) -> Option<&wire::Counters> {
        self.control.as_deref().map(|c| &c.counters)
    }

    /// The tasktrackers this jobtracker drives.
    pub fn trackers(&self) -> &[TaskTracker] {
        &self.trackers
    }

    /// The cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// Validate the job's output location and expand its input into splits.
    /// The exists-then-create check runs under the engine's prepare lock, so
    /// two concurrent jobs racing for one output directory get exactly one
    /// winner.
    fn prepare(&self, fs: &dyn DistFs, job: &Job) -> MrResult<Vec<InputSplit>> {
        let config = &job.config;
        if config.output_dir.is_empty() {
            return Err(MrError::InvalidJob(
                "output directory must not be empty".into(),
            ));
        }
        {
            let _guard = self.engine.prepare_lock.lock();
            if fs.exists(&config.output_dir) {
                return Err(MrError::OutputExists(config.output_dir.clone()));
            }
            fs.mkdirs(&config.output_dir)?;
        }
        compute_splits(fs, &config.input, config.split_size)
    }

    /// Submit a job for asynchronous execution and return a [`JobHandle`].
    ///
    /// Admission quotas (queue depth, namespace/storage budgets) are checked
    /// synchronously — a refused job fails here with
    /// [`MrError::QuotaExceeded`], not at the handle. The job then waits in
    /// the admission queue until the scheduler activates it, runs on the
    /// shared slot pool alongside every other active job, and reports
    /// through the handle.
    pub fn submit(&self, fs: Arc<dyn DistFs>, job: Job) -> MrResult<JobHandle> {
        let tenant = job.config.tenant.clone();
        let seq = self.engine.enqueue(&tenant)?;
        let (tx, rx) = mpsc::sync_channel(1);
        let this = self.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("mr-driver-{seq}"))
            .spawn(move || {
                this.engine.await_activation(seq, &tenant);
                let account = this.engine.register(seq, &tenant, this.clock.clone());
                let result = this.drive(&*fs, &job, &account);
                this.engine.finish(&account, result.as_ref().ok());
                let _ = tx.send(result);
            });
        if spawned.is_err() {
            self.engine.abandon(seq);
            return Err(MrError::Storage(
                "failed to spawn the job driver thread".into(),
            ));
        }
        Ok(JobHandle { seq, rx })
    }

    /// Run a job over the given storage backend and return its report: the
    /// submit-and-wait shim over the multi-tenant engine. The calling thread
    /// is the driver — it queues through admission like any submitted job,
    /// then executes the job in place.
    pub fn run(&self, fs: &dyn DistFs, job: &Job) -> MrResult<JobResult> {
        let tenant = job.config.tenant.clone();
        let seq = self.engine.enqueue(&tenant)?;
        self.engine.await_activation(seq, &tenant);
        let account = self.engine.register(seq, &tenant, self.clock.clone());
        let result = self.drive(fs, job, &account);
        self.engine.finish(&account, result.as_ref().ok());
        result
    }

    /// Execute an activated job over the given storage backend.
    ///
    /// This is the storage-materialized data path: map outputs spill through
    /// `fs` into the job's scoped scratch namespace, reduce tasks pull
    /// segments with positioned reads as the spills commit, and every task
    /// output is rename-committed. The calling thread is the job's single
    /// dispatcher ([`JobRun::dispatch`]): it takes slot tokens from the
    /// shared pool, so concurrent jobs share the cluster under the configured
    /// scheduler, and runs each granted attempt as one pool task.
    fn drive(&self, fs: &dyn DistFs, job: &Job, account: &JobAccount) -> MrResult<JobResult> {
        let run = JobRun::start(self, fs, job, account)?;
        run.dispatch();
        run.finish()
    }

    /// Run a job with the original in-memory shuffle: map outputs are
    /// collected in RAM, regrouped behind a global barrier, and reduce output
    /// is written directly to its final path. Sequential and dead simple —
    /// this is the differential-testing oracle the storage-materialized
    /// [`JobTracker::run`] must agree with byte-for-byte, mirroring the
    /// `lookup_range_walk` pattern of the metadata read path.
    pub fn run_inmem(&self, fs: &dyn DistFs, job: &Job) -> MrResult<JobResult> {
        let start = self.clock.now();
        let config = &job.config;
        let splits = self.prepare(fs, job)?;
        let num_maps = splits.len();
        let map_only = config.num_reducers == 0;
        let partitions = if map_only { 1 } else { config.num_reducers };

        let mut locality = LocalityCounters::default();
        let mut input_records = 0u64;
        let mut input_bytes = 0u64;
        let mut output_records = 0u64;
        let mut output_bytes = 0u64;
        let mut output_files = Vec::new();
        let mut partition_data: Vec<Vec<(String, String)>> = vec![Vec::new(); partitions];

        for split in &splits {
            let mut out = run_map_task(fs, split, &*job.mapper, &*job.partitioner, partitions)?;
            // The oracle runs every task at the submitting node.
            locality.record(Locality::Remote);
            input_records += out.records_read;
            input_bytes += out.bytes_read;
            if map_only {
                let records = std::mem::take(&mut out.partitions[0]);
                let path = format!("{}/part-m-{:05}", config.output_dir, split.id);
                output_bytes += write_output_file(fs, &path, &records)?;
                output_records += records.len() as u64;
                output_files.push(path);
            } else {
                for (p, mut bucket) in out.partitions.into_iter().enumerate() {
                    // Same per-map transformation as the spill path, so the
                    // reduce inputs are identical record streams.
                    shuffle::sort_run(&mut bucket);
                    if let Some(combiner) = &config.combiner {
                        bucket = shuffle::combine_run(bucket, &**combiner)?.records;
                    }
                    partition_data[p].extend(bucket);
                }
            }
        }

        if !map_only {
            for (p, pairs) in partition_data.into_iter().enumerate() {
                let grouped = group_by_key(pairs);
                let records = run_reduce_task(&grouped, &*job.reducer)?;
                let path = format!("{}/part-r-{p:05}", config.output_dir);
                output_bytes += write_output_file(fs, &path, &records)?;
                output_records += records.len() as u64;
                output_files.push(path);
            }
        }

        output_files.sort();
        Ok(JobResult {
            job_name: config.name.clone(),
            fs_name: fs.name().to_string(),
            map_tasks: num_maps,
            reduce_tasks: if map_only { 0 } else { partitions },
            locality,
            task_retries: 0,
            input_records,
            output_records,
            input_bytes,
            output_bytes,
            shuffle: ShuffleCounters::default(),
            speculation: SpeculationCounters::default(),
            elapsed: self.clock.now().saturating_sub(start),
            output_files,
        })
    }
}

/// What a map token was granted for: a map attempt, and nothing else.
struct MapAttempt {
    id: TaskAttemptId,
    locality: Locality,
    speculative: bool,
}

/// How one reduce step ended, before commit arbitration.
enum ReduceOutcome {
    /// Every published source is fetched but not every map has committed
    /// yet: the attempt parks until the dispatcher has news for it.
    Parked,
    /// The job failed while this attempt was fetching or parked; abort
    /// quietly.
    JobFailed,
    /// A speculative clone consumed a preemption request at the
    /// post-fetch checkpoint and gave its slot back.
    Preempted,
    /// The attempt produced output in its scratch path.
    Done {
        bytes: u64,
        records: u64,
        merge_runs: u64,
    },
}

/// One activated job in flight: what its dispatcher and its attempts share.
struct JobRun<'a> {
    jt: &'a JobTracker,
    fs: &'a dyn DistFs,
    job: &'a Job,
    account: &'a JobAccount,
    /// Clock reading at activation.
    started: Duration,
    splits: Vec<InputSplit>,
    /// Reduce partitions (1 bucket for map-only jobs).
    partitions: usize,
    map_only: bool,
    /// Scratch dirs are tagged with the job's submission seq: concurrent
    /// jobs over one DistFs (even with identical configs) never share
    /// spill or attempt paths.
    scratch: JobScratch,
    map_state: Mutex<MapPhase>,
    reduce_state: Mutex<ReducePhase>,
}

impl<'a> JobRun<'a> {
    /// Validate and split the job, create its scratch namespace and the
    /// all-pending phase state.
    fn start(
        jt: &'a JobTracker,
        fs: &'a dyn DistFs,
        job: &'a Job,
        account: &'a JobAccount,
    ) -> MrResult<Self> {
        let started = jt.clock.now();
        let config = &job.config;
        let splits = jt.prepare(fs, job)?;
        let num_maps = splits.len();
        let map_only = config.num_reducers == 0;
        let partitions = if map_only { 1 } else { config.num_reducers };
        let scratch = JobScratch::scoped(&config.output_dir, account.seq);
        fs.mkdirs(scratch.temporary_dir())?;
        if !map_only {
            fs.mkdirs(scratch.shuffle_dir())?;
        }
        Ok(JobRun {
            jt,
            fs,
            job,
            account,
            started,
            splits,
            partitions,
            map_only,
            scratch,
            map_state: Mutex::new(MapPhase {
                book: TaskBook::new(num_maps),
                results: (0..num_maps).map(|_| None).collect(),
                ..Default::default()
            }),
            reduce_state: Mutex::new(ReducePhase {
                book: TaskBook::new(partitions),
                ..Default::default()
            }),
        })
    }

    /// An attempt ended: its token goes back to the pool.
    fn release(&self, node: NodeId, kind: SlotKind, speculative: bool) {
        (self.jt.engine).release(self.account, node, kind, speculative);
    }

    /// Every claim is one control round trip from the token's node to the
    /// master; every attempt outcome is one report.
    fn charge(&self, message: Direction, node: NodeId) {
        if let Some(wire) = self.jt.control.as_deref() {
            wire.charge(message, node);
        }
    }

    /// The job's single dispatcher, on the calling thread: grant what can be
    /// granted, submit **one attempt as one pool task**, park until an event.
    ///
    /// Events are all there is to wait for — an attempt committed, failed,
    /// lost or was preempted, a spill was published, any job returned a
    /// token or lowered its demand ([`SlotPool::wake`]), a reducer parked —
    /// plus one deadline, armed only while the job speculates and a token
    /// sits idle: the earliest instant a running attempt can qualify as a
    /// straggler. Both go through the one [`Clock::park`]. Attempts are
    /// scoped pool tasks, and none of them ever waits for another — a
    /// reducer short of map output parks as *state*, not as a thread — so
    /// the pool's size bounds parallelism only: the job finishes on a single
    /// worker.
    fn dispatch(&self) {
        let (jt, engine, account) = (self.jt, &*self.jt.engine, self.account);
        let dispatch = Dispatch {
            engine,
            account,
            trackers: &jt.trackers,
            topology: &jt.topology,
            splits: &self.splits,
            speculation: self.job.config.speculation.as_deref(),
            clock: &*jt.clock,
        };
        miniexec::scope(|scope| {
            loop {
                let mut deadline = None;
                // Map side first: what it publishes, the reduce side fetches.
                let (maps, sources, mut over) = {
                    let mut m = self.map_state.lock();
                    let maps = dispatch.grant(&mut *m, &mut deadline);
                    let over = m.failure.is_some() || (self.map_only && m.book.all_committed());
                    (maps, m.sources.len(), over)
                };
                for (node, attempt) in maps {
                    self.charge(CLAIM, node);
                    scope.spawn(move || self.run_map_attempt(node, attempt));
                }
                if !self.map_only && !over {
                    // Newly granted attempts, and parked ones the fetch plan
                    // has news for, each get a step.
                    let (new, mut steps) = {
                        let mut r = self.reduce_state.lock();
                        let new = dispatch.grant(&mut *r, &mut deadline);
                        over = r.failure.is_some() || r.book.all_committed();
                        let (resumed, parked): (Vec<_>, Vec<_>) = std::mem::take(&mut r.parked)
                            .into_iter()
                            .partition(|a| a.fetch.segments.len() < sources);
                        r.parked = parked;
                        (new, resumed)
                    };
                    for (node, attempt) in new {
                        self.charge(CLAIM, node);
                        steps.push(attempt);
                    }
                    for attempt in steps {
                        scope.spawn(move || self.reduce_step(attempt));
                    }
                }
                if over {
                    break;
                }
                jt.clock.park(&account.parker, deadline);
            }
            // Done or failed: stop advertising demand while the attempts
            // still in flight drain (the scope waits for them).
            engine.publish_demand(account, SlotKind::Map, 0);
            engine.publish_demand(account, SlotKind::Reduce, 0);
        });
        // Attempts still parked when the job went down never run again:
        // close their books and return their tokens.
        let parked = std::mem::take(&mut self.reduce_state.lock().parked);
        for attempt in parked {
            self.end_reduce_attempt(attempt, Ok(ReduceOutcome::JobFailed));
        }
    }

    /// One map attempt, start to finish: execute it, write its output to the
    /// attempt's scoped `_temporary` scratch, and rename-commit under the
    /// phase lock — first finished attempt wins, losers are discarded.
    /// Speculative clones run their map with a progress callback that both
    /// feeds the LATE estimator and honours preemption requests.
    fn run_map_attempt(&self, node: NodeId, attempt: MapAttempt) {
        let MapAttempt {
            id,
            locality,
            speculative,
        } = attempt;
        // A storage handle bound to the token's node, so the attempt's I/O
        // originates there.
        let fs = &*self.fs.on_node(node);
        let (job, scratch, account) = (self.job, &self.scratch, self.account);
        let (state, clock) = (&self.map_state, &*self.jt.clock);
        let max_attempts = job.config.max_task_attempts;
        let task = format!("map-{:05}", id.task);
        let attempt_scratch = scratch.attempt_path(&task, id.attempt);
        state.lock().book.record_started(id, clock.now());

        // Execute the attempt outside the lock, writing all output to the
        // scratch path. Progress milestones feed the book (the LATE
        // estimator reads them) and double as preemption checkpoints: a
        // speculative clone whose job owes a starved tenant a slot aborts
        // here, mid-task. Emits go to the attempt's map output buffer. A
        // finished attempt carries (bytes, records) of the part file for
        // map-only jobs, whose tasks commit straight to one, and its spill's
        // index otherwise.
        let mut buffer = MapOutputBuffer::new(self.partitions);
        let mapped = map_split(
            fs,
            &self.splits[id.task],
            &*job.mapper,
            &*job.partitioner,
            self.partitions,
            &mut |frac| {
                state.lock().book.report_progress(id, frac);
                !(speculative && account.take_preempt())
            },
            &mut |partition, key, value| buffer.push(partition, &key, &value),
        );
        let outcome = mapped.and_then(|(mut output, finished)| {
            if !finished {
                return Ok(None); // preempted mid-task
            }
            if self.map_only {
                let bytes = buffer.write_output_file(fs, &attempt_scratch)?;
                Ok(Some((output, (bytes, buffer.len() as u64), Vec::new())))
            } else {
                // Sort, combine and encode the buffer, and store the spill
                // image for the reducers to pull from.
                let spill = buffer.spill(job.config.combiner.as_deref())?;
                fs.write_file(&attempt_scratch, &spill.image)?;
                output.spilled_bytes = spill.image.len() as u64;
                output.spilled_records = spill.index.iter().map(|entry| entry.records).sum();
                output.combine_input_records = spill.combine_input_records;
                output.combine_output_records = spill.combine_output_records;
                Ok(Some((output, (0, 0), spill.index)))
            }
        });

        // Commit arbitration under the phase lock: the first attempt of a
        // task to get here renames its scratch into place and merges its
        // counters; any later attempt is pure waste. Holding the lock across
        // the rename is what makes "exactly one winner" a hard invariant
        // (and keeps a rename failure from being misread as a lost race);
        // it is cheap because `DistFs::rename` is a metadata-only namespace
        // operation in every backend — the data bytes were already written
        // to scratch outside the lock.
        // The attempt reports its outcome (success, failure, or preemption)
        // before the commit arbitration — charged outside the phase lock.
        self.charge(REPORT, node);
        let mut discard_scratch = true;
        {
            let mut s = state.lock();
            let failed = match outcome {
                Ok(None) => {
                    // Preempted: the clone's partial work is pure waste by
                    // construction; the incumbent attempt is untouched.
                    s.book.record_preempted(id, clock.now());
                    None
                }
                Ok(Some(_)) if s.book.is_committed(id.task) => {
                    s.book.record_lost(id, clock.now());
                    None
                }
                Ok(Some((output, (part_bytes, part_records), index))) => {
                    let final_path = if self.map_only {
                        format!("{}/part-m-{:05}", job.config.output_dir, id.task)
                    } else {
                        scratch.spill_path(id.task)
                    };
                    fs.rename(&attempt_scratch, &final_path).err().or_else(|| {
                        discard_scratch = false;
                        s.book.record_success(id, clock.now());
                        s.locality.record(locality);
                        if self.map_only {
                            s.output_files.push(final_path);
                            s.map_output_bytes += part_bytes;
                            s.map_output_records += part_records;
                        } else {
                            // Only the winner publishes: its spill and the
                            // index that locates every segment in it.
                            let map_id = id.task;
                            s.sources.push(FetchSource { map_id, index });
                        }
                        s.results[id.task] = Some(output);
                        if s.book.all_committed() {
                            s.finished_at = Some(clock.now());
                        }
                        None
                    })
                }
                Err(err) => Some(err),
            };
            if let Some(err) = failed {
                s.attempt_failed(id, &err, max_attempts, clock.now());
            }
        }
        if discard_scratch {
            // Clean the attempt's scratch (failed, lost, or preempted)
            // before retries.
            scratch.discard_attempt(fs, &task, id.attempt);
        }
        self.release(node, SlotKind::Map, speculative);
    }

    /// One step of a reduce attempt, a short pool task: pull the partition's
    /// segment from every map spill published since the attempt's last step,
    /// one exact read each at the offset its index gives; if every map task
    /// has now been fetched, stream the k-way merge of the encoded segments
    /// through the reducer into the part file and commit in the same task —
    /// otherwise park the attempt and tell the dispatcher. The source queue only
    /// grows, so speculative attempts of one partition consume it
    /// independently.
    fn reduce_step(&self, mut attempt: ReduceAttempt) {
        let fs = &*self.fs.on_node(attempt.node);
        let (id, partition, fetch) = (attempt.id, attempt.id.task, &mut attempt.fetch);
        let task = format!("reduce-{partition:05}");
        let attempt_scratch = self.scratch.attempt_path(&task, id.attempt);
        let outcome = (|| loop {
            let taken = fetch.segments.len();
            let (news, map_failed) = {
                let m = self.map_state.lock();
                (m.sources[taken..].to_vec(), m.failure.is_some())
            };
            if map_failed {
                return Ok(ReduceOutcome::JobFailed);
            }
            if !news.is_empty() {
                for source in news {
                    let path = self.scratch.spill_path(source.map_id);
                    let (segment, cost) =
                        shuffle::read_segment(fs, &path, source.entry(partition)?)?;
                    fetch.round_trips += cost.round_trips;
                    fetch.bytes += cost.bytes;
                    fetch.segments.push((source.map_id, segment));
                }
                continue; // more may have been published meanwhile
            }
            if fetch.segments.len() < self.splits.len() {
                return Ok(ReduceOutcome::Parked);
            }
            // Preemption checkpoint between the fetch and the expensive
            // merge+reduce+write: a speculative clone whose job owes a
            // starved tenant gives its slot back here.
            if attempt.speculative && self.account.take_preempt() {
                return Ok(ReduceOutcome::Preempted);
            }
            // Spills commit in any order: ordering the segments by map id
            // lets the k-way merge's tie-break reproduce the oracle's
            // (map id, emit order) sequence.
            fetch.segments.sort_by_key(|(map_id, _)| *map_id);
            let mut out = OutputFile::create(fs, &attempt_scratch)?;
            let segments = fetch.segments.iter().map(|(_, segment)| segment);
            let merge_runs = shuffle::reduce_segments(segments, &*self.job.reducer, &mut out)?;
            let records = out.records();
            return Ok(ReduceOutcome::Done {
                bytes: out.close()?,
                records,
                merge_runs,
            });
        })();
        if let Ok(ReduceOutcome::Parked) = outcome {
            self.reduce_state.lock().parked.push(attempt);
            // A source may have been published since the last look.
            self.account.wake();
        } else {
            self.end_reduce_attempt(attempt, outcome);
        }
    }

    /// Close a reduce attempt: report the outcome, rename-commit the part
    /// file under the phase lock — first finished attempt wins — or record
    /// why not, clean up, and return the token.
    fn end_reduce_attempt(&self, attempt: ReduceAttempt, outcome: MrResult<ReduceOutcome>) {
        let (fs, clock) = (&*self.fs.on_node(attempt.node), &*self.jt.clock);
        let (id, fetch) = (attempt.id, &attempt.fetch);
        let task = format!("reduce-{:05}", id.task);
        let max_attempts = self.job.config.max_task_attempts;
        // Report the attempt outcome to the master before arbitration.
        self.charge(REPORT, attempt.node);
        let mut discard_scratch = true;
        {
            let mut s = self.reduce_state.lock();
            let failed = match outcome {
                Ok(ReduceOutcome::Parked | ReduceOutcome::JobFailed) => {
                    // The job is going down. Close the attempt's
                    // bookkeeping so nothing stays `Running`.
                    s.book.record_abandoned(id);
                    None
                }
                Ok(ReduceOutcome::Preempted) => {
                    s.book.record_preempted(id, clock.now());
                    None
                }
                Ok(ReduceOutcome::Done { .. }) if s.book.is_committed(id.task) => {
                    s.book.record_lost(id, clock.now());
                    None
                }
                Ok(ReduceOutcome::Done {
                    bytes,
                    records,
                    merge_runs,
                }) => {
                    let final_path =
                        format!("{}/part-r-{:05}", self.job.config.output_dir, id.task);
                    let attempt_scratch = self.scratch.attempt_path(&task, id.attempt);
                    fs.rename(&attempt_scratch, &final_path).err().or_else(|| {
                        discard_scratch = false;
                        s.book.record_success(id, clock.now());
                        s.output_bytes += bytes;
                        s.output_records += records;
                        s.output_files.push(final_path);
                        s.segments_fetched += fetch.segments.len() as u64;
                        s.merge_runs += merge_runs;
                        s.read_round_trips += fetch.round_trips;
                        s.read_bytes += fetch.bytes;
                        if s.book.all_committed() {
                            s.finished_at = Some(clock.now());
                        }
                        None
                    })
                }
                Err(err) => Some(err),
            };
            if let Some(err) = failed {
                s.attempt_failed(id, &err, max_attempts, clock.now());
            }
        }
        if discard_scratch {
            self.scratch.discard_attempt(fs, &task, id.attempt);
        }
        self.release(attempt.node, SlotKind::Reduce, attempt.speculative);
    }

    /// Fold the settled phase state into the job report (or its failure)
    /// and clean the scratch namespace.
    fn finish(self) -> MrResult<JobResult> {
        let (fs, config, clock) = (self.fs, &self.job.config, &*self.jt.clock);
        // Failed jobs leave their committed part files for post-mortem (as
        // Hadoop does), but not the shuffle/scratch debris.
        self.scratch.cleanup(fs);
        let mut map_state = self.map_state.into_inner();
        let mut reduce_state = self.reduce_state.into_inner();
        if let Some(err) = map_state.failure.take().or(reduce_state.failure.take()) {
            return Err(err);
        }
        let mut shuffle = ShuffleCounters::default();
        let (mut input_records, mut input_bytes) = (0, 0);
        for o in map_state.results.iter().flatten() {
            input_records += o.records_read;
            input_bytes += o.bytes_read;
            shuffle.spill_bytes += o.spilled_bytes;
            shuffle.spill_records += o.spilled_records;
            shuffle.combine_input_records += o.combine_input_records;
            shuffle.combine_output_records += o.combine_output_records;
        }
        let mut speculation = map_state.book.speculation();
        let mut result = JobResult {
            job_name: config.name.clone(),
            fs_name: fs.name().to_string(),
            map_tasks: self.splits.len(),
            reduce_tasks: 0,
            locality: map_state.locality,
            task_retries: map_state.book.retries(),
            input_records,
            output_records: map_state.map_output_records,
            input_bytes,
            output_bytes: map_state.map_output_bytes,
            shuffle,
            speculation,
            elapsed: Duration::ZERO,
            output_files: map_state.output_files,
        };
        let mut finished_at = map_state.finished_at;
        if !self.map_only {
            result.shuffle.segments_fetched = reduce_state.segments_fetched;
            result.shuffle.merge_runs = reduce_state.merge_runs;
            result.shuffle.shuffle_read_round_trips = reduce_state.read_round_trips;
            result.shuffle.shuffle_read_bytes = reduce_state.read_bytes;
            speculation.merge(&reduce_state.book.speculation());
            result.speculation = speculation;
            result.reduce_tasks = self.partitions;
            result.task_retries += reduce_state.book.retries();
            result.output_records = reduce_state.output_records;
            result.output_bytes = reduce_state.output_bytes;
            result.output_files = reduce_state.output_files;
            finished_at = reduce_state.finished_at;
        }
        result.output_files.sort();
        result.elapsed = finished_at
            .unwrap_or_else(|| clock.now())
            .saturating_sub(self.started);
        Ok(result)
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::jobsched::FairScheduler;
    use crate::scheduler::SlowestFactorPolicy;
    use crate::split::SplitSource;

    fn clock() -> Arc<dyn Clock> {
        Arc::new(WallClock::new())
    }

    fn trackers(nodes: u32, map_slots: usize) -> Vec<TaskTracker> {
        (0..nodes)
            .map(|i| TaskTracker::new(NodeId(i)).with_slots(map_slots, 1))
            .collect()
    }

    fn engine(nodes: u32, map_slots: usize) -> Engine {
        Engine::new(&trackers(nodes, map_slots))
    }

    const MAP: usize = SlotKind::Map as usize;

    #[test]
    fn fifo_grants_the_oldest_demanding_job_and_denies_the_rest() {
        let e = engine(1, 2);
        let a = e.register(0, "acme", clock());
        let b = e.register(1, "blue", clock());
        a.demand[MAP].store(2, Ordering::Relaxed);
        b.demand[MAP].store(2, Ordering::Relaxed);
        let node = NodeId(0);
        assert!(!e.try_acquire(&b, node, SlotKind::Map), "fifo owes A first");
        assert!(e.try_acquire(&a, node, SlotKind::Map));
        assert!(e.try_acquire(&a, node, SlotKind::Map));
        assert_eq!(a.held[MAP].load(Ordering::Relaxed), 2);
        // Pool exhausted: nobody gets a token until A releases.
        assert!(!e.try_acquire(&a, node, SlotKind::Map));
        e.release(&a, node, SlotKind::Map, false);
        a.demand[MAP].store(0, Ordering::Relaxed);
        // With A's demand gone, the freed token flows to B.
        assert!(e.try_acquire(&b, node, SlotKind::Map));
        // A tracker on a node the pool was not sized from is caller input,
        // not a panic: nothing to take there, nothing lost by a release.
        assert!(!e.try_acquire(&b, NodeId(9), SlotKind::Map));
        assert!(!e.try_acquire_idle(&b, NodeId(9), SlotKind::Reduce));
        e.release(&b, NodeId(9), SlotKind::Map, false);
    }

    #[test]
    fn idle_tokens_require_zero_demand_everywhere() {
        let e = engine(1, 2);
        let a = e.register(0, "acme", clock());
        let b = e.register(1, "blue", clock());
        b.demand[MAP].store(1, Ordering::Relaxed);
        // B has real map demand, so no clone may take a map token.
        assert!(!e.has_idle(NodeId(0), SlotKind::Map));
        assert!(!e.try_acquire_idle(&a, NodeId(0), SlotKind::Map));
        // Reduce demand is zero everywhere: idle reduce tokens are fine.
        assert!(e.try_acquire_idle(&a, NodeId(0), SlotKind::Reduce));
        b.demand[MAP].store(0, Ordering::Relaxed);
        assert!(e.try_acquire_idle(&a, NodeId(0), SlotKind::Map));
    }

    #[test]
    fn starved_tenant_preempts_a_speculative_clone_and_inherits_the_slot() {
        let e = engine(1, 2);
        *e.scheduler.lock() = Arc::new(FairScheduler::new());
        let a = e.register(0, "acme", clock());
        let b = e.register(1, "blue", clock());
        let node = NodeId(0);
        // A soaks up the whole pool with speculative clones (no demand
        // anywhere, so idle tokens are granted).
        assert!(e.try_acquire_idle(&a, node, SlotKind::Map));
        assert!(e.try_acquire_idle(&a, node, SlotKind::Map));
        assert_eq!(a.spec[MAP].load(Ordering::Relaxed), 2);
        // B shows up with real demand: pool exhausted, fair share says B is
        // starved, so a preemption request lands on A's clones.
        b.demand[MAP].store(2, Ordering::Relaxed);
        assert!(!e.try_acquire(&b, node, SlotKind::Map));
        assert_eq!(a.preempt.load(Ordering::Relaxed), 1);
        // A clone consumes the request exactly once...
        assert!(a.take_preempt());
        assert!(!a.take_preempt());
        // ...and gives its token back; B now gets it.
        e.release(&a, node, SlotKind::Map, true);
        assert_eq!(a.spec[MAP].load(Ordering::Relaxed), 1);
        assert!(e.try_acquire(&b, node, SlotKind::Map));
    }

    /// A map phase of `n` tasks whose splits have no location.
    fn map_phase(n: usize) -> (MapPhase, Vec<InputSplit>) {
        let splits = (0..n)
            .map(|id| InputSplit {
                id,
                source: SplitSource::Synthetic {
                    index: id,
                    records: 1,
                },
                preferred_nodes: Vec::new(),
            })
            .collect();
        let phase = MapPhase {
            book: TaskBook::new(n),
            results: (0..n).map(|_| None).collect(),
            ..Default::default()
        };
        (phase, splits)
    }

    fn view(e: &Engine, account: &JobAccount) -> JobView {
        let views = e.pool.lock().views(SlotKind::Map);
        views.into_iter().find(|v| v.seq == account.seq).unwrap()
    }

    #[test]
    fn demand_is_exact_after_every_claim_and_clones_only_get_tokens_nobody_wants() {
        // One node, two map tokens, FIFO. No threads: grant decisions are a
        // function of the books and the pool.
        let trackers = trackers(1, 2);
        let e = Engine::new(&trackers);
        let topology = ClusterTopology::flat(1);
        let sim = Arc::new(simcluster::clock::SimClock::new());
        let policy = SlowestFactorPolicy {
            slowest_factor: 1.0,
            min_runtime: Duration::from_secs(5),
            min_completed: 0,
        };
        let a = e.register(0, "acme", sim.clone());
        let b = e.register(1, "blue", sim.clone());
        let (mut phase_a, splits_a) = map_phase(1);
        let (mut phase_b, splits_b) = map_phase(3);
        let dispatch = |account, splits, speculation| Dispatch {
            engine: &e,
            account,
            trackers: &trackers,
            topology: &topology,
            splits,
            speculation,
            clock: &*sim,
        };
        let (da, db) = (
            dispatch(&*a, &splits_a[..], Some(&policy as &dyn SpeculationPolicy)),
            dispatch(&*b, &splits_b[..], None),
        );
        let mut deadline = None;

        // A is older and has a pending map on the books: FIFO makes B wait
        // for it, however often B asks.
        e.publish_demand(&a, SlotKind::Map, phase_a.demand());
        assert!(
            db.grant(&mut phase_b, &mut deadline).is_empty(),
            "fifo owes A"
        );
        assert_eq!(view(&e, &b).demand, 3);

        // A's single claim: its advertised demand must drop to zero with it
        // (demand that outlives its claim blocks B and the idle tier).
        let granted = da.grant(&mut phase_a, &mut deadline);
        assert_eq!(granted.len(), 1);
        assert_eq!(view(&e, &a).demand, 0, "demand published after the claim");
        assert_eq!(view(&e, &a).held, 1);

        // So the next free token goes to B (one token left on the node).
        let granted_b = db.grant(&mut phase_b, &mut deadline);
        assert_eq!(granted_b.len(), 1);
        assert_eq!(view(&e, &b).demand, 2, "exact again after B's claim");

        // A's attempt straggles past the policy's floor. B still has real
        // demand, so A gets no clone — and arms no deadline for one — even
        // once a token is free: it goes to B's queued regular attempt.
        sim.advance(Duration::from_secs(60));
        let b0 = granted_b[0].1.id;
        phase_b.book.record_success(b0, sim.now());
        e.release(&b, NodeId(0), SlotKind::Map, false);
        deadline = None;
        assert!(da.grant(&mut phase_a, &mut deadline).is_empty());
        assert_eq!(deadline, None, "no idle token, no deadline");
        assert_eq!(view(&e, &a).speculative, 0);
        assert_eq!(db.grant(&mut phase_b, &mut deadline).len(), 1);

        // Same node as the straggler: never a clone target either way.
        assert_eq!(
            phase_a.book.speculation_wait(NodeId(0), sim.now(), &policy),
            None
        );
        assert_eq!(
            phase_a.book.speculation_wait(NodeId(1), sim.now(), &policy),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn a_token_returned_by_a_clone_goes_to_a_queued_regular_attempt_first() {
        // Two nodes, one map token each. A's only task straggles on node 0
        // and gets a clone on node 1 while nobody wants the token; then B
        // arrives with real demand.
        let trackers = trackers(2, 1);
        let e = Engine::new(&trackers);
        let topology = ClusterTopology::flat(2);
        let sim = Arc::new(simcluster::clock::SimClock::new());
        let policy = SlowestFactorPolicy {
            slowest_factor: 1.0,
            min_runtime: Duration::from_secs(5),
            min_completed: 0,
        };
        let a = e.register(0, "acme", sim.clone());
        let b = e.register(1, "blue", sim.clone());
        let (mut phase_a, splits_a) = map_phase(1);
        let (mut phase_b, splits_b) = map_phase(1);
        let da = Dispatch {
            engine: &e,
            account: &a,
            trackers: &trackers,
            topology: &topology,
            splits: &splits_a,
            speculation: Some(&policy),
            clock: &*sim,
        };
        let db = Dispatch {
            account: &b,
            splits: &splits_b,
            speculation: None,
            ..da
        };
        let mut deadline = None;
        assert_eq!(da.grant(&mut phase_a, &mut deadline).len(), 1);
        // Node 1's token is idle and the attempt can qualify by time alone:
        // that instant — one tick past the 5 s floor — is the deadline.
        assert_eq!(deadline, Some(Duration::from_micros(5_000_001)));
        sim.advance(deadline.unwrap());
        let clone = da.grant(&mut phase_a, &mut deadline);
        assert!(
            matches!(clone[..], [(node, MapAttempt { speculative: true, .. })] if node == NodeId(1))
        );
        assert_eq!(view(&e, &a).speculative, 1);

        // B wants a token; the pool is exhausted, FIFO starves nobody.
        assert!(db.grant(&mut phase_b, &mut deadline).is_empty());
        // The clone returns its token. A has no regular work, and with B's
        // demand on the books no second clone could take it: it is B's.
        e.release(&a, NodeId(1), SlotKind::Map, true);
        assert!(da.grant(&mut phase_a, &mut deadline).is_empty());
        let granted = db.grant(&mut phase_b, &mut deadline);
        assert!(
            matches!(granted[..], [(node, MapAttempt { speculative: false, .. })] if node == NodeId(1))
        );
    }

    #[test]
    fn enqueue_enforces_queue_and_budget_quotas() {
        let e = engine(1, 1);
        e.quotas
            .lock()
            .insert("acme".into(), TenantQuota::unlimited().with_max_queued(1));
        assert!(e.enqueue("acme").is_ok());
        assert!(matches!(
            e.enqueue("acme"),
            Err(MrError::QuotaExceeded { .. })
        ));
        // Other tenants are unaffected.
        assert!(e.enqueue("blue").is_ok());

        // Namespace and storage budgets are checked against the ledger.
        e.quotas.lock().insert(
            "carbon".into(),
            TenantQuota::unlimited().with_max_namespace_entries(4),
        );
        e.ledger.lock().insert(
            "carbon".into(),
            TenantUsage {
                namespace_entries: 4,
                storage_bytes: 0,
                jobs_completed: 2,
            },
        );
        assert!(matches!(
            e.enqueue("carbon"),
            Err(MrError::QuotaExceeded { .. })
        ));
    }

    #[test]
    fn finish_settles_the_ledger_and_frees_the_account() {
        let e = engine(1, 1);
        let seq = e.enqueue("acme").unwrap();
        e.await_activation(seq, "acme");
        let account = e.register(seq, "acme", clock());
        assert_eq!(e.pool.lock().jobs.len(), 1);
        let result = JobResult {
            job_name: "j".into(),
            fs_name: "BSFS".into(),
            map_tasks: 1,
            reduce_tasks: 1,
            locality: LocalityCounters::default(),
            task_retries: 0,
            input_records: 0,
            output_records: 5,
            input_bytes: 0,
            output_bytes: 123,
            shuffle: ShuffleCounters::default(),
            speculation: SpeculationCounters::default(),
            elapsed: Duration::from_secs(1),
            output_files: vec!["/out/part-r-00000".into(), "/out/part-r-00001".into()],
        };
        e.finish(&account, Some(&result));
        assert!(e.pool.lock().jobs.is_empty());
        assert!(e.admission.lock().running.is_empty());
        let usage = e.usage_of("acme");
        assert_eq!(usage.namespace_entries, 2);
        assert_eq!(usage.storage_bytes, 123);
        assert_eq!(usage.jobs_completed, 1);
    }
}

/// Whole jobs through the dispatcher: residency, the no-deadlock shape, and
/// that waiting is event-driven.
#[cfg(test)]
mod dispatch_tests {
    use super::*;
    use crate::fs::BsfsFs;
    use crate::job::{IdentityReducer, InputSpec, JobConfig, Mapper, RangePartitioner};
    use crate::tasktracker::AttemptState;
    use blobseer::{BlobSeer, BlobSeerConfig};
    use bsfs::{Bsfs, BsfsConfig};
    use std::collections::HashSet;

    /// A BSFS deployment over `nodes` nodes with 512-byte blocks, holding
    /// `/in/data` of `blocks` full blocks of distinct 16-byte lines.
    fn cluster(nodes: u32, blocks: usize) -> (ClusterTopology, BsfsFs) {
        let topo = ClusterTopology::flat(nodes);
        let provider_nodes: Vec<_> = topo.all_nodes().collect();
        let storage = BlobSeer::with_topology(
            BlobSeerConfig::for_tests()
                .with_providers(nodes as usize)
                .with_page_size(512),
            &topo,
            &provider_nodes,
        );
        let fs = BsfsFs::new(Bsfs::new(
            storage,
            BsfsConfig::for_tests().with_block_size(512),
        ));
        let text: String = (0..blocks * 32)
            .map(|i| format!("k{i:06} v{i:06}\n"))
            .collect();
        fs.write_file("/in/data", text.as_bytes()).unwrap();
        (topo, fs)
    }

    /// Emits every line under its first word: with an identity reducer, a
    /// (tiny) sort.
    struct KeyMapper;
    impl Mapper for KeyMapper {
        fn map(&self, _o: u64, line: &str, emit: &mut dyn FnMut(String, String)) -> MrResult<()> {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            emit(key.to_string(), value.to_string());
            Ok(())
        }
    }

    fn sort_job(out: &str, reducers: usize) -> Job {
        Job::new(
            JobConfig::new("sort", InputSpec::Files(vec!["/in".into()]), out)
                .with_split_size(512)
                .with_reducers(reducers),
            Arc::new(KeyMapper),
            Arc::new(IdentityReducer),
        )
    }

    fn assert_matches_oracle(jt: &JobTracker, fs: &BsfsFs, result: &JobResult, oracle: &Job) {
        let oracle = jt.run_inmem(fs, oracle).unwrap();
        assert_eq!(result.output_files.len(), oracle.output_files.len());
        for (d, o) in result.output_files.iter().zip(&oracle.output_files) {
            assert_eq!(fs.read_file(d).unwrap(), fs.read_file(o).unwrap(), "{d}");
        }
    }

    #[test]
    fn every_configured_token_hosts_an_attempt_and_picks_are_made_for_its_node() {
        // The default deployment: 8 trackers x (2 map + 1 reduce) tokens,
        // tasks >= tokens, one block per split, blocks spread over all nodes.
        let (topo, fs) = cluster(8, 32);
        let jt = JobTracker::new(&topo);
        let job = sort_job("/out", 8);
        let account = jt.engine.register(0, "default", jt.clock.clone());
        let run = JobRun::start(&jt, &fs, &job, &account).unwrap();
        assert_eq!(run.splits.len(), 32);
        run.dispatch();

        // The attempt records name the node whose token each attempt held:
        // every node must have hosted at least as many as it has tokens,
        // however few workers the pool has.
        for tracker in jt.trackers() {
            let hosted = |book: &TaskBook, tasks: usize| {
                (0..tasks)
                    .flat_map(|t| book.attempts(t).to_vec())
                    .filter(|a| a.node == tracker.node && a.state == AttemptState::Succeeded)
                    .count()
            };
            let maps = hosted(&run.map_state.lock().book, 32);
            let reduces = hosted(&run.reduce_state.lock().book, 8);
            assert!(
                maps >= tracker.map_slots && reduces >= tracker.reduce_slots,
                "{:?} ran {maps} maps / {reduces} reduces",
                tracker.node
            );
        }
        let nodes: HashSet<NodeId> = (0..32)
            .map(|t| run.map_state.lock().book.attempts(t)[0].node)
            .collect();
        assert_eq!(nodes.len(), 8, "map attempts ran on every node");

        let result = run.finish().unwrap();
        jt.engine.finish(&account, Some(&result));
        let locality = result.locality;
        assert_eq!(locality.total(), 32);
        assert!(
            locality.data_local * 10 >= locality.total() * 6,
            "each token picks its node's splits first: {locality:?}"
        );
        assert_matches_oracle(&jt, &fs, &result, &sort_job("/oracle", 8));
    }

    #[test]
    fn more_reducers_and_maps_than_pool_workers_cannot_deadlock() {
        // Every reduce token is granted up front and holds an attempt that
        // cannot finish before the maps do. Were a waiting reducer a thread,
        // `workers` of them would starve the maps forever; as parked state
        // they cost nothing, whatever MINIEXEC_WORKERS is.
        let workers = miniexec::worker_count();
        let nodes = (workers + 4) as u32;
        let (topo, fs) = cluster(nodes, workers * 3 + 5);
        let jt = JobTracker::new(&topo);
        let reducers = workers + 4;
        let result = jt.run(&fs, &sort_job("/out", reducers)).unwrap();
        assert!(result.map_tasks > workers && result.reduce_tasks > workers);
        assert_eq!(
            result.shuffle.segments_fetched,
            (result.map_tasks * result.reduce_tasks) as u64
        );
        assert_matches_oracle(&jt, &fs, &result, &sort_job("/oracle", reducers));
    }

    #[test]
    fn an_all_empty_partition_costs_no_reads_and_a_missing_one_is_an_error() {
        // Every key sorts below the boundary: partition 1's segments are all
        // empty, so its reducer finishes without a single positioned read.
        let (topo, fs) = cluster(4, 8);
        let jt = JobTracker::new(&topo);
        let job = |out| {
            let below = RangePartitioner::new(vec!["z".into()]);
            sort_job(out, 2).with_partitioner(Arc::new(below))
        };
        let result = jt.run(&fs, &job("/out")).unwrap();
        let (maps, s) = (result.map_tasks as u64, result.shuffle);
        assert_eq!(maps, 8);
        assert_eq!(s.segments_fetched, 2 * maps);
        assert_eq!(
            s.shuffle_read_round_trips, maps,
            "partition 0's only: {s:?}"
        );
        assert_eq!(s.merge_runs, maps);
        assert_eq!(s.shuffle_read_bytes, s.spill_bytes);
        assert_matches_oracle(&jt, &fs, &result, &job("/oracle"));

        // A partition the published index does not have is an error.
        let source = FetchSource {
            map_id: 3,
            index: vec![IndexEntry::default(); 2],
        };
        assert_eq!(source.entry(1).unwrap(), IndexEntry::default());
        assert!(matches!(source.entry(2), Err(MrError::Storage(_))));
    }

    #[test]
    fn a_zero_split_size_is_an_invalid_job_not_a_panic() {
        let (topo, fs) = cluster(2, 1);
        let jt = JobTracker::new(&topo);
        let job = |out| {
            let mut job = sort_job(out, 1);
            job.config = job.config.with_split_size(0);
            job
        };
        let invalid = |outcome: MrResult<JobResult>| matches!(outcome, Err(MrError::InvalidJob(_)));
        assert!(invalid(jt.run(&fs, &job("/out"))));
        assert!(invalid(jt.run_inmem(&fs, &job("/oracle"))));
    }

    /// A wall clock that counts how its one wait primitive is used.
    #[derive(Default)]
    struct CountingClock {
        wall: WallClock,
        parks: AtomicUsize,
        timed_parks: AtomicUsize,
    }

    impl Clock for CountingClock {
        fn now(&self) -> Duration {
            self.wall.now()
        }
        fn park(&self, parker: &Parker, deadline: Option<Duration>) {
            self.parks.fetch_add(1, Ordering::Relaxed);
            if deadline.is_some() {
                self.timed_parks.fetch_add(1, Ordering::Relaxed);
            }
            self.wall.park(parker, deadline);
        }
        fn unpark(&self, parker: &Parker) {
            self.wall.unpark(parker);
        }
    }

    #[test]
    fn without_speculation_the_dispatcher_only_ever_waits_for_events() {
        struct NoOp;
        impl Mapper for NoOp {
            fn map(&self, _o: u64, _l: &str, _e: &mut dyn FnMut(String, String)) -> MrResult<()> {
                Ok(())
            }
        }
        let (topo, fs) = cluster(4, 1);
        let clock = Arc::new(CountingClock::default());
        let jt = JobTracker::new(&topo).with_clock(clock.clone());
        let input = InputSpec::Synthetic {
            splits: 64,
            records_per_split: 1,
        };
        let job = Job::new(
            JobConfig::new("no-op", input, "/out").with_reducers(2),
            Arc::new(NoOp),
            Arc::new(IdentityReducer),
        );
        assert!(job.config.speculation.is_none());
        let result = jt.run(&fs, &job).unwrap();
        assert_eq!((result.map_tasks, result.reduce_tasks), (64, 2));
        // No deadline is ever armed, and the waits are bounded by the events
        // there are to wait for: a handful per attempt (its token coming
        // back, a reducer parking), not one per millisecond.
        assert_eq!(clock.timed_parks.load(Ordering::Relaxed), 0);
        let parks = clock.parks.load(Ordering::Relaxed);
        assert!(parks > 0 && parks <= 4 * (64 + 2), "{parks} parks");
    }
}
