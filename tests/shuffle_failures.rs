//! Shuffle-under-failure regression tests: the output-commit protocol and
//! the segment-fetch retry path, exercised with a fault-injecting [`DistFs`]
//! wrapper (writers killed mid-stream, positioned reads failed) and with a
//! genuinely dead BlobSeer provider under page replication.

use blobseer::{BlobSeer, BlobSeerConfig, ProviderId};
use bsfs::{Bsfs, BsfsConfig};
use bytes::Bytes;
use mapreduce::fs::{BlockHint, BsfsFs, DistFs, FileReader, FileWriter};
use mapreduce::job::Mapper;
use mapreduce::jobtracker::JobTracker;
use mapreduce::{MrError, MrResult, SlowestFactorPolicy};
use simcluster::clock::SimClock;
use simcluster::{ClusterTopology, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use workloads::{word_count_job, DelayRule, SlowFs};

// ---------------------------------------------------------------------------
// Fault-injecting DistFs wrapper
// ---------------------------------------------------------------------------

/// Shared fault schedule: fail `FileWriter::write` on matching paths
/// `write_failures` times (killing the writer mid-stream: half the data is
/// written, then an error), and fail `FileReader::read_at` on matching paths
/// `read_failures` times.
struct FaultPlan {
    write_path_contains: String,
    write_failures: AtomicUsize,
    read_path_contains: String,
    read_failures: AtomicUsize,
}

impl FaultPlan {
    fn writes(path_contains: &str, failures: usize) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            write_path_contains: path_contains.to_string(),
            write_failures: AtomicUsize::new(failures),
            read_path_contains: String::new(),
            read_failures: AtomicUsize::new(0),
        })
    }

    fn reads(path_contains: &str, failures: usize) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            write_path_contains: String::new(),
            write_failures: AtomicUsize::new(0),
            read_path_contains: path_contains.to_string(),
            read_failures: AtomicUsize::new(failures),
        })
    }

    fn take(counter: &AtomicUsize) -> bool {
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }
}

/// [`DistFs`] wrapper injecting the plan's failures into the handles it
/// vends. Everything else passes through unchanged, so jobs run over any
/// backend.
struct FaultFs {
    inner: Box<dyn DistFs>,
    plan: Arc<FaultPlan>,
}

impl FaultFs {
    fn new(inner: Box<dyn DistFs>, plan: Arc<FaultPlan>) -> FaultFs {
        FaultFs { inner, plan }
    }
}

struct FaultWriter {
    inner: Box<dyn FileWriter>,
    path: String,
    plan: Arc<FaultPlan>,
}

impl FileWriter for FaultWriter {
    fn write(&mut self, data: &[u8]) -> MrResult<()> {
        if !self.plan.write_path_contains.is_empty()
            && self.path.contains(&self.plan.write_path_contains)
            && FaultPlan::take(&self.plan.write_failures)
        {
            // Kill the writer mid-stream: part of the payload lands, then
            // the "process" dies.
            let _ = self.inner.write(&data[..data.len() / 2]);
            return Err(MrError::Storage(format!(
                "injected writer kill on {}",
                self.path
            )));
        }
        self.inner.write(data)
    }
    fn close(&mut self) -> MrResult<()> {
        self.inner.close()
    }
}

struct FaultReader {
    inner: Box<dyn FileReader>,
    path: String,
    plan: Arc<FaultPlan>,
}

impl FileReader for FaultReader {
    fn read_at(&mut self, offset: u64, len: u64) -> MrResult<Bytes> {
        if !self.plan.read_path_contains.is_empty()
            && self.path.contains(&self.plan.read_path_contains)
            && FaultPlan::take(&self.plan.read_failures)
        {
            return Err(MrError::Storage(format!(
                "injected read failure on {}",
                self.path
            )));
        }
        self.inner.read_at(offset, len)
    }
    fn len(&mut self) -> MrResult<u64> {
        self.inner.len()
    }
}

impl DistFs for FaultFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn create(&self, path: &str) -> MrResult<Box<dyn FileWriter>> {
        Ok(Box::new(FaultWriter {
            inner: self.inner.create(path)?,
            path: path.to_string(),
            plan: Arc::clone(&self.plan),
        }))
    }
    fn open(&self, path: &str) -> MrResult<Box<dyn FileReader>> {
        Ok(Box::new(FaultReader {
            inner: self.inner.open(path)?,
            path: path.to_string(),
            plan: Arc::clone(&self.plan),
        }))
    }
    fn len(&self, path: &str) -> MrResult<u64> {
        self.inner.len(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, path: &str) -> MrResult<Vec<String>> {
        self.inner.list(path)
    }
    fn mkdirs(&self, path: &str) -> MrResult<()> {
        self.inner.mkdirs(path)
    }
    fn delete(&self, path: &str, recursive: bool) -> MrResult<()> {
        self.inner.delete(path, recursive)
    }
    fn rename(&self, from: &str, to: &str) -> MrResult<()> {
        self.inner.rename(from, to)
    }
    fn locate(&self, path: &str, offset: u64, len: u64) -> MrResult<Vec<BlockHint>> {
        self.inner.locate(path, offset, len)
    }
    fn on_node(&self, node: NodeId) -> Box<dyn DistFs> {
        Box::new(FaultFs {
            inner: self.inner.on_node(node),
            plan: Arc::clone(&self.plan),
        })
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn bsfs_cluster(nodes: u32, replication: usize) -> (ClusterTopology, BsfsFs, Arc<BlobSeer>) {
    let topo = ClusterTopology::flat(nodes);
    let provider_nodes: Vec<_> = topo.all_nodes().collect();
    let storage = BlobSeer::with_topology(
        BlobSeerConfig::for_tests()
            .with_providers(nodes as usize)
            .with_page_size(512)
            .with_page_replication(replication),
        &topo,
        &provider_nodes,
    );
    let fs = BsfsFs::new(Bsfs::new(
        storage,
        BsfsConfig::for_tests().with_block_size(512),
    ));
    let storage = Arc::clone(fs.inner().storage());
    (topo, fs, storage)
}

fn input_text() -> String {
    let mut text = String::new();
    for i in 0..120 {
        text.push_str(&format!("word{} common word{} common\n", i % 7, i % 13));
    }
    text
}

/// Reference word counts of [`input_text`], via the in-memory oracle on a
/// clean deployment.
fn oracle_outputs(reducers: usize) -> Vec<Vec<u8>> {
    let (topo, fs, _) = bsfs_cluster(4, 1);
    fs.write_file("/in/data.txt", input_text().as_bytes())
        .unwrap();
    let job = word_count_job(vec!["/in/data.txt".into()], "/out", reducers, 512);
    let result = JobTracker::new(&topo).run_inmem(&fs, &job).unwrap();
    result
        .output_files
        .iter()
        .map(|f| fs.read_file(f).unwrap().to_vec())
        .collect()
}

fn run_faulted(plan: Arc<FaultPlan>, reducers: usize) -> (Vec<String>, Vec<Vec<u8>>, usize) {
    let (topo, fs, _) = bsfs_cluster(4, 1);
    let fs = FaultFs::new(Box::new(fs), plan);
    fs.write_file("/in/data.txt", input_text().as_bytes())
        .unwrap();
    let job = word_count_job(vec!["/in/data.txt".into()], "/out", reducers, 512);
    let result = JobTracker::new(&topo).run(&fs, &job).unwrap();
    let bytes = result
        .output_files
        .iter()
        .map(|f| fs.read_file(f).unwrap().to_vec())
        .collect();
    let mut listed = fs.list("/out").unwrap();
    listed.sort();
    assert_eq!(
        listed, result.output_files,
        "output dir must hold exactly the committed part files"
    );
    (result.output_files.clone(), bytes, result.task_retries)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn reduce_writer_killed_mid_stream_leaves_no_partial_or_duplicate_part() {
    // The first reduce attempt's output writer dies halfway through its
    // scratch file. The commit protocol (write to _temporary, rename into
    // place) must leave exactly one complete part file per partition.
    let (files, bytes, retries) = run_faulted(FaultPlan::writes("attempt-reduce", 1), 2);
    assert!(retries >= 1, "the killed attempt must be retried");
    assert_eq!(files.len(), 2);
    assert_eq!(bytes, oracle_outputs(2));
}

#[test]
fn map_spill_writer_killed_mid_stream_is_retried() {
    // Same protocol for shuffle spills: a map attempt's spill writer dies,
    // the retry commits a complete spill, reducers never see the partial.
    let (files, bytes, retries) = run_faulted(FaultPlan::writes("attempt-map", 1), 2);
    assert!(retries >= 1);
    assert_eq!(files.len(), 2);
    assert_eq!(bytes, oracle_outputs(2));
}

#[test]
fn failed_segment_fetches_are_retried_until_the_reduce_succeeds() {
    // Two positioned reads against committed spill files fail (a flaky
    // storage node during the fetch): the affected reduce attempts requeue
    // and the job still produces the oracle's bytes.
    let (files, bytes, retries) = run_faulted(FaultPlan::reads("/map-", 2), 3);
    assert!(retries >= 1, "failed fetches must surface as task retries");
    assert_eq!(files.len(), 3);
    assert_eq!(bytes, oracle_outputs(3));
}

/// Run word count with speculation enabled under a SimClock, with `rules`
/// injecting virtual straggler delays and `plan` injecting write kills.
/// Returns (result, part-file bytes, retries).
fn run_speculative_faulted(
    rules: Vec<DelayRule>,
    plan: Arc<FaultPlan>,
    reducers: usize,
) -> (mapreduce::JobResult, Vec<Vec<u8>>, usize) {
    let (topo, fs, _) = bsfs_cluster(4, 1);
    let clock = Arc::new(SimClock::new());
    let slow = SlowFs::new(Box::new(fs), clock.clone(), rules);
    let fs = FaultFs::new(Box::new(slow), plan);
    fs.write_file("/in/data.txt", input_text().as_bytes())
        .unwrap();
    let mut job = word_count_job(vec!["/in/data.txt".into()], "/out", reducers, 512);
    job.config.speculation = Some(Arc::new(SlowestFactorPolicy {
        slowest_factor: 2.0,
        min_runtime: Duration::from_secs(1),
        min_completed: 1,
    }));
    job.config.max_task_attempts = 6;
    let jt = JobTracker::new(&topo).with_clock(clock.clone());
    let result = clock.drive(Duration::from_secs(1), || jt.run(&fs, &job).unwrap());
    let bytes = result
        .output_files
        .iter()
        .map(|f| fs.read_file(f).unwrap().to_vec())
        .collect();
    let mut listed = fs.list("/out").unwrap();
    listed.sort();
    assert_eq!(
        listed, result.output_files,
        "output dir must hold exactly the committed part files"
    );
    assert!(
        !fs.exists("/out/_temporary") && !fs.exists("/out/_shuffle"),
        "no scratch may survive, including killed attempts' files"
    );
    let retries = result.task_retries;
    (result, bytes, retries)
}

#[test]
fn speculative_attempt_killed_mid_stream_never_corrupts_the_winner() {
    // Map task 0's first attempt straggles (10 virtual seconds), so a clone
    // (attempt 1) launches — and its spill writer is killed mid-stream.
    // Whichever attempt eventually commits, the killed clone must corrupt
    // nothing: the job completes with the oracle's exact bytes.
    let rules = vec![DelayRule::create(
        "attempt-map-00000-0",
        Duration::from_secs(10),
    )];
    let (result, bytes, retries) =
        run_speculative_faulted(rules, FaultPlan::writes("attempt-map-00000-1", 1), 2);
    assert!(
        result.speculation.launched >= 1,
        "the straggler must have been cloned: {:?}",
        result.speculation
    );
    assert!(retries >= 1, "the killed clone surfaces as a retry");
    assert_eq!(bytes, oracle_outputs(2));
}

#[test]
fn both_attempts_killed_retries_the_task_and_the_job_completes() {
    // The straggling original *and* its speculative clone both have their
    // spill writers killed: the task must requeue for a fresh attempt and
    // the job must still produce the oracle's bytes.
    let rules = vec![DelayRule::create(
        "attempt-map-00000-0",
        Duration::from_secs(10),
    )];
    let (result, bytes, retries) =
        run_speculative_faulted(rules, FaultPlan::writes("attempt-map-00000-", 2), 2);
    assert!(
        retries >= 2,
        "both killed attempts must be recorded: got {retries}"
    );
    assert!(result.speculation.launched >= 1);
    assert_eq!(bytes, oracle_outputs(2));
}

#[test]
fn shuffle_survives_a_dead_provider_node_with_replication() {
    // A provider node dies while the job runs (killed by the first map
    // record, i.e. before every spill write and segment fetch): with page
    // replication 2, spills write to the surviving replicas and segment
    // fetches fail over — the job must complete with the oracle's output.
    struct KillingMapper {
        storage: Arc<BlobSeer>,
        kills_left: AtomicUsize,
    }
    impl Mapper for KillingMapper {
        fn map(
            &self,
            _offset: u64,
            line: &str,
            emit: &mut dyn FnMut(String, String),
        ) -> MrResult<()> {
            if FaultPlan::take(&self.kills_left) {
                self.storage.kill(ProviderId(0)).unwrap();
            }
            for w in line.split_whitespace() {
                emit(w.to_string(), "1".to_string());
            }
            Ok(())
        }
    }

    let (topo, fs, storage) = bsfs_cluster(4, 2);
    fs.write_file("/in/data.txt", input_text().as_bytes())
        .unwrap();
    let job = mapreduce::Job::new(
        mapreduce::JobConfig::new(
            "wc-under-failure",
            mapreduce::InputSpec::Files(vec!["/in/data.txt".into()]),
            "/out",
        )
        .with_split_size(512)
        .with_reducers(2),
        Arc::new(KillingMapper {
            storage,
            kills_left: AtomicUsize::new(1),
        }),
        Arc::new(mapreduce::job::SumReducer),
    );
    let result = JobTracker::new(&topo).run(&fs, &job).unwrap();
    let bytes: Vec<Vec<u8>> = result
        .output_files
        .iter()
        .map(|f| fs.read_file(f).unwrap().to_vec())
        .collect();
    assert_eq!(bytes, oracle_outputs(2));
    assert_eq!(
        result.shuffle.segments_fetched,
        (result.map_tasks * result.reduce_tasks) as u64
    );
}
