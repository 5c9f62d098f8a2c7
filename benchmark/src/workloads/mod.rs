//! The four workloads and the loop that drives them.
//!
//! Every workload is a closed loop of [`CLIENTS`] client threads: a client
//! issues its next operation only when the previous one has returned, as a
//! MapReduce task does. A workload is a sequence of *passes*, each the same
//! fixed amount of work; the driver repeats passes until the measuring time
//! is used up, so the number of passes depends on the machine but the work
//! in a pass never does. Throughput is the median over passes; latency is
//! the median over all operations of all timed passes.
//!
//! The code in this directory calls only the public surface listed in the
//! README ("what `bsfs-bench` may call"). Everything that looks inside a
//! layer lives in `layers.rs` and `probes.rs` and is reached only through
//! an [`Observer`], which the traced binary supplies.

pub mod append_shared;
pub mod mr_jobs;
pub mod scan_distinct;
pub mod snapshot_mixed;

use crate::procstat;
use blobseer::{BlobSeer, BlobSeerConfig};
use mapreduce::{DistFs, Job};
use simcluster::topology::ClusterTopology;
use simcluster::NodeId;
use std::sync::Arc;
use std::time::Instant;

/// Client threads of every workload: one per core of the reference machine.
pub const CLIENTS: usize = 2;
/// Nodes of every deployment (one page provider each).
pub const NODES: usize = 8;
/// Untimed passes after set-up, before the first timed one.
pub const WARMUP_PASSES: usize = 2;
/// Timed passes made even if the measuring time is already used up.
pub const MIN_TIMED_PASSES: usize = 3;

pub const NAMES: [&str; 4] = [
    scan_distinct::NAME,
    append_shared::NAME,
    snapshot_mixed::NAME,
    mr_jobs::NAME,
];

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Drives data patterns and offsets, nothing else.
    pub seed: u64,
    /// How long the timed passes go on.
    pub seconds: f64,
    /// Shrink every size so all four workloads finish in seconds.
    pub smoke: bool,
}

/// A deployment a workload runs on, kept so the traced binary can read the
/// layers' counters and probe them after the timed passes.
#[derive(Clone)]
pub struct Deployment {
    pub storage: Arc<BlobSeer>,
    pub nodes: Vec<NodeId>,
    /// The BSFS instance on top, for workloads that go through files.
    pub bsfs: Option<bsfs::Bsfs>,
}

impl Deployment {
    /// [`NODES`] nodes on one rack, a page provider on each, pages of
    /// `page_size` bytes stored once. Everything else is the shipped default.
    pub fn new(page_size: u64) -> Deployment {
        let topology = ClusterTopology::flat(NODES as u32);
        let nodes: Vec<NodeId> = topology.all_nodes().collect();
        let storage = BlobSeer::with_topology(
            BlobSeerConfig::default()
                .with_providers(NODES)
                .with_page_size(page_size)
                .with_page_replication(1),
            &topology,
            &nodes,
        );
        Deployment {
            storage,
            nodes,
            bsfs: None,
        }
    }
}

/// The shapes of a workload's operations, for the layer probes.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// BlobSeer page size, bytes.
    pub page_size: u64,
    /// Bytes one client read asks the blob layer for.
    pub read_len: u64,
    /// Bytes one client write or append hands the blob layer.
    pub write_len: u64,
    /// BSFS block size, bytes (the page size where the workload has no files).
    pub block_size: u64,
}

/// Hooks the traced binary uses to see inside a run. The untraced binary
/// passes [`Untraced`], whose hooks do nothing.
pub trait Observer {
    /// Wrap the file system the workload is about to use.
    fn wrap_fs(&self, fs: Arc<dyn DistFs>) -> Arc<dyn DistFs> {
        fs
    }
    /// Wrap the user code of a job the workload is about to run.
    fn wrap_job(&self, job: Job) -> Job {
        job
    }
    /// Timed pass number `pass` (from 0) is about to begin on `deployment`.
    fn before_pass(&mut self, _pass: usize, _deployment: &Deployment) {}
    /// That pass has ended; its untimed check has not begun.
    fn after_pass(&mut self, _pass: usize, _deployment: &Deployment) {}
}

/// The observer of the untraced binary.
pub struct Untraced;
impl Observer for Untraced {}

/// Data a workload leaves in place for the layer probes to read.
#[derive(Debug, Clone)]
pub enum ProbeTarget {
    /// A BSFS file of the deployment.
    File(String),
    /// A blob, at the given version.
    Blob(blobseer::BlobId, blobseer::Version),
}

/// How a workload wants its deployments made.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-ups before the warm-up passes; the last one is kept.
    pub setups: usize,
    /// Tear down and set up again before every pass, warm-up passes too.
    /// For workloads whose passes leave data behind: nothing the system
    /// offers frees a deleted blob's pages, and a process that grows from
    /// pass to pass does not measure the same thing twice.
    pub fresh_deployment_per_pass: bool,
}

/// What a workload's passes add up to.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations issued, timed or not, verification reads included.
    pub attempted: u64,
    /// Operations that returned an error or data that failed its check.
    pub failed: u64,
    /// Latency of every primary operation of the timed passes, nanoseconds.
    pub op_ns: Vec<u64>,
    /// Latency of the other side's operations, for workloads with two sides.
    pub other_op_ns: Vec<u64>,
    /// User bytes moved by the timed passes.
    pub user_bytes: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.op_ns.extend(other.op_ns);
        self.other_op_ns.extend(other.other_op_ns);
        self.user_bytes += other.user_bytes;
    }

    /// Count one operation; `ok` is whether it succeeded and checked out.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A workload: set-up, passes of fixed work, checks.
pub trait Workload {
    fn shapes(&self) -> Shapes;
    /// How often to set up.
    fn plan(&self) -> Plan;
    /// Drop the current deployment, if any (untimed).
    fn teardown(&mut self);
    /// Deploy and load. Operations count into `tally`, latencies do not.
    fn setup(&mut self, observer: &dyn Observer, tally: &mut Tally);
    fn deployment(&self) -> &Deployment;
    /// One pass; returns its contribution to `throughput_mibps`, in MiB/s
    /// (see each workload). Latencies and bytes are recorded only when
    /// `timed`.
    fn pass(&mut self, observer: &dyn Observer, timed: bool, tally: &mut Tally) -> f64;
    /// Untimed check of what the pass just made, and any clearing up before
    /// the next one. Runs after the observer has seen the pass end, so its
    /// reads stay out of the layer counters.
    fn check_pass(&mut self, _tally: &mut Tally) {}
    /// Untimed end-of-run verification of everything the passes left behind.
    fn verify(&mut self, tally: &mut Tally);
    /// Where the layer probes may read data shaped like the workload's.
    fn probe_target(&self) -> Option<ProbeTarget>;
    /// Job reports of the timed passes, for workloads that run jobs.
    fn job_results(&self) -> &[mapreduce::JobResult] {
        &[]
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub tally: Tally,
    /// Deploy + load, one entry per set-up, seconds.
    pub setup_s: Vec<f64>,
    /// What each timed pass returned, MiB/s.
    pub passes: Vec<f64>,
    /// The heap in use when the first timed pass ended, MiB: after the same
    /// work on every run, however many passes the measuring time fits.
    pub heap_mib: f64,
    /// Resource usage summed over the timed passes (set-ups and checks
    /// between them left out).
    pub usage: procstat::Usage,
}

/// Run `workload` as the README describes: set-ups, warm-up passes, timed
/// passes for `params.seconds`, then the final verification. The workload
/// is left set up, so the caller can probe its last deployment.
pub fn drive(workload: &mut dyn Workload, params: &Params, observer: &mut dyn Observer) -> Outcome {
    fn set_up(
        workload: &mut dyn Workload,
        observer: &dyn Observer,
        tally: &mut Tally,
        setup_s: &mut Vec<f64>,
    ) {
        workload.teardown();
        let start = Instant::now();
        workload.setup(observer, tally);
        setup_s.push(start.elapsed().as_secs_f64());
    }

    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let plan = workload.plan();
    for _ in 0..plan.setups.max(1) {
        set_up(workload, &*observer, &mut tally, &mut setup_s);
    }
    for _ in 0..WARMUP_PASSES {
        if plan.fresh_deployment_per_pass {
            set_up(workload, &*observer, &mut tally, &mut setup_s);
        }
        workload.pass(observer, false, &mut tally);
        workload.check_pass(&mut tally);
    }
    let timed = Instant::now();
    let mut passes = Vec::new();
    let mut usage = procstat::Usage::default();
    let mut heap_mib = 0.0;
    while passes.len() < MIN_TIMED_PASSES || timed.elapsed().as_secs_f64() < params.seconds {
        if plan.fresh_deployment_per_pass {
            set_up(workload, &*observer, &mut tally, &mut setup_s);
        }
        observer.before_pass(passes.len(), workload.deployment());
        let before = procstat::usage();
        let sample = workload.pass(observer, true, &mut tally);
        usage = usage.plus(&procstat::usage().since(&before));
        if passes.is_empty() {
            heap_mib = procstat::heap_in_use_mib();
        }
        observer.after_pass(passes.len(), workload.deployment());
        passes.push(sample);
        workload.check_pass(&mut tally);
    }
    workload.verify(&mut tally);
    Outcome {
        tally,
        setup_s,
        passes,
        heap_mib,
        usage,
    }
}

/// Build a workload by name.
pub fn by_name(name: &str, params: &Params) -> Option<Box<dyn Workload>> {
    match name {
        scan_distinct::NAME => Some(Box::new(scan_distinct::ScanDistinct::new(params))),
        append_shared::NAME => Some(Box::new(append_shared::AppendShared::new(params))),
        snapshot_mixed::NAME => Some(Box::new(snapshot_mixed::SnapshotMixed::new(params))),
        mr_jobs::NAME => Some(Box::new(mr_jobs::MrJobs::new(params))),
        _ => None,
    }
}

/// Run `f(client)` on [`CLIENTS`] threads at once and return the results in
/// client order with the wall time of the whole group.
pub(crate) fn on_clients<T: Send>(f: impl Fn(usize) -> T + Sync) -> (Vec<T>, f64) {
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let f = &f;
                s.spawn(move || f(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    (results, start.elapsed().as_secs_f64())
}

pub(crate) const MIB: f64 = 1024.0 * 1024.0;
