//! What the byte-level data path owes the storage layer and the commit
//! protocol: a job reads exactly the bytes its tasks use (read amplification
//! 1 on the input side and on the fetch side), and a reduce attempt that
//! fails while streaming its merge — on a segment that does not hold what
//! its index promises, or in the user's reducer after output has already
//! gone to storage — commits nothing and leaves nothing behind.

use blobseer::{BlobSeer, BlobSeerConfig};
use bsfs::{Bsfs, BsfsConfig};
use bytes::Bytes;
use mapreduce::fs::{BlockHint, BsfsFs, DistFs, FileReader, FileWriter};
use mapreduce::job::{HashPartitioner, InputSpec, JobConfig, Reducer};
use mapreduce::jobtracker::JobTracker;
use mapreduce::split::compute_splits;
use mapreduce::tasktracker::run_map_task;
use mapreduce::{Job, MrError, MrResult};
use simcluster::{ClusterTopology, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use workloads::apps::SortMapper;
use workloads::distributed_sort_job;

fn bsfs(topo: &ClusterTopology, block: u64) -> BsfsFs {
    let nodes: Vec<_> = topo.all_nodes().collect();
    let storage = BlobSeer::with_topology(
        BlobSeerConfig::default()
            .with_providers(nodes.len())
            .with_page_size(block),
        topo,
        &nodes,
    );
    BsfsFs::new(Bsfs::new(
        storage,
        BsfsConfig::default().with_block_size(block),
    ))
}

/// Four splits' worth of 37-byte lines, so no split boundary falls on a
/// line boundary.
fn four_splits_of_text(split: u64) -> Vec<u8> {
    let mut text = Vec::new();
    for i in 0.. {
        if text.len() as u64 >= 4 * split {
            break;
        }
        text.extend_from_slice(format!("{:036}\n", (i * 7_919) % 10_007).as_bytes());
    }
    text.truncate(4 * split as usize);
    text
}

#[test]
fn a_sort_reads_exactly_the_bytes_its_tasks_use() {
    // Block = page = split, as in the benchmark's mr_jobs workload. The
    // tail chunk a split reads past its end is 4 096 bytes.
    const SPLIT: u64 = 8_192;
    const TAIL: u64 = 4_096;
    let topo = ClusterTopology::flat(4);
    let fs = bsfs(&topo, SPLIT);
    fs.write_file("/in/text", &four_splits_of_text(SPLIT))
        .unwrap();
    let bytes_read = || fs.inner().storage().stats().bytes_read;

    let job = distributed_sort_job(&fs, vec!["/in/text".into()], "/out", 4, SPLIT).unwrap();
    let before = bytes_read();
    let result = JobTracker::new(&topo).run(&fs, &job).unwrap();
    let moved = bytes_read() - before;
    assert_eq!((result.map_tasks, result.reduce_tasks), (4, 4));
    assert_eq!(result.task_retries, 0);

    // Input side: every split but the last reads one tail chunk, every
    // split but the first the byte before it.
    assert_eq!(result.input_bytes, 4 * SPLIT + 3 * TAIL + 3);
    // Fetch side: each reducer reads its own quarter of each spill and
    // nothing else — the index came with the commit, so every spilled byte
    // is fetched exactly once.
    let shuffle = &result.shuffle;
    assert_eq!(shuffle.shuffle_read_bytes, shuffle.spill_bytes);
    // Amplification is exactly 1: storage moved those bytes and no others.
    assert_eq!(moved, result.input_bytes + shuffle.shuffle_read_bytes);

    // One middle split's map task: its bytes, one tail chunk, one byte.
    let splits = compute_splits(&fs, &InputSpec::Files(vec!["/in/text".into()]), SPLIT).unwrap();
    let before = bytes_read();
    let out = run_map_task(&fs, &splits[1], &SortMapper, &HashPartitioner, 4).unwrap();
    assert_eq!(out.bytes_read, SPLIT + TAIL + 1);
    assert_eq!(bytes_read() - before, SPLIT + TAIL + 1);
}

// ---------------------------------------------------------------------------
// A DistFs wrapper that rewrites what positioned reads return, and counts
// the bytes reduce attempts write to their scratch files.
// ---------------------------------------------------------------------------

type Tamper = dyn Fn(&str, u64, Bytes) -> Bytes + Send + Sync;

struct Hooks {
    /// `(path, offset, what the read returned) -> what the caller sees`.
    tamper: Box<Tamper>,
    reduce_scratch_bytes: AtomicU64,
}

struct HookedFs {
    inner: Box<dyn DistFs>,
    hooks: Arc<Hooks>,
}

impl HookedFs {
    fn new(
        inner: BsfsFs,
        tamper: impl Fn(&str, u64, Bytes) -> Bytes + Send + Sync + 'static,
    ) -> Self {
        HookedFs {
            inner: Box::new(inner),
            hooks: Arc::new(Hooks {
                tamper: Box::new(tamper),
                reduce_scratch_bytes: AtomicU64::new(0),
            }),
        }
    }
}

struct HookedReader(Box<dyn FileReader>, String, Arc<Hooks>);

impl FileReader for HookedReader {
    fn read_at(&mut self, offset: u64, len: u64) -> MrResult<Bytes> {
        let data = self.0.read_at(offset, len)?;
        Ok((self.2.tamper)(&self.1, offset, data))
    }
    fn len(&mut self) -> MrResult<u64> {
        self.0.len()
    }
}

struct HookedWriter(Box<dyn FileWriter>, bool, Arc<Hooks>);

impl FileWriter for HookedWriter {
    fn write(&mut self, data: &[u8]) -> MrResult<()> {
        self.0.write(data)?;
        if self.1 {
            let written = &self.2.reduce_scratch_bytes;
            written.fetch_add(data.len() as u64, Ordering::SeqCst);
        }
        Ok(())
    }
    fn close(&mut self) -> MrResult<()> {
        self.0.close()
    }
}

impl DistFs for HookedFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn create(&self, path: &str) -> MrResult<Box<dyn FileWriter>> {
        let reduce_scratch = path.contains("attempt-reduce");
        let hooks = Arc::clone(&self.hooks);
        Ok(Box::new(HookedWriter(
            self.inner.create(path)?,
            reduce_scratch,
            hooks,
        )))
    }
    fn open(&self, path: &str) -> MrResult<Box<dyn FileReader>> {
        let hooks = Arc::clone(&self.hooks);
        Ok(Box::new(HookedReader(
            self.inner.open(path)?,
            path.to_string(),
            hooks,
        )))
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
        Box::new(HookedFs {
            inner: self.inner.on_node(node),
            hooks: Arc::clone(&self.hooks),
        })
    }
}

/// A one-reducer sort of a few lines over `fs`, no retries: the reduce
/// attempt's error is the job's.
fn run_small_sort(fs: &HookedFs) -> MrResult<mapreduce::JobResult> {
    fs.write_file("/in/text", b"delta\nalpha\ncharlie\nbravo\n")?;
    let mut job = distributed_sort_job(fs, vec!["/in/text".into()], "/out", 1, 12)?;
    job.config = job.config.with_max_attempts(1);
    JobTracker::new(&ClusterTopology::flat(2)).run(fs, &job)
}

/// The job failed in its reduce task with a storage error, and its output
/// directory holds no part file, no scratch and no shuffle data.
fn assert_reduce_failed_and_committed_nothing(
    fs: &HookedFs,
    outcome: MrResult<mapreduce::JobResult>,
) {
    match outcome {
        Err(MrError::TaskFailed {
            task, last_error, ..
        }) => {
            assert_eq!(task, "reduce-0");
            assert!(last_error.starts_with("storage error: "), "{last_error}");
        }
        other => panic!("expected the reduce task to fail, got {other:?}"),
    }
    assert_eq!(fs.list("/out").unwrap(), Vec::<String>::new());
}

/// Rewrite every segment payload read from a spill (a spill read is nothing
/// else: the index the record counts come from is never read from storage).
fn on_spill_payloads(
    change: impl Fn(Bytes) -> Bytes + Send + Sync,
) -> impl Fn(&str, u64, Bytes) -> Bytes + Send + Sync {
    move |path, _, data| {
        if path.contains("/map-") {
            change(data)
        } else {
            data
        }
    }
}

/// Bytes of the first encoded record of a payload, length prefixes included.
fn first_record_len(payload: &[u8]) -> usize {
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let key = u32_at(0);
    8 + key + u32_at(4 + key)
}

#[test]
fn a_segment_with_fewer_records_than_its_index_promises_fails_the_attempt() {
    let topo = ClusterTopology::flat(2);
    let drop_one = on_spill_payloads(|data| data.slice(first_record_len(&data)..));
    let fs = HookedFs::new(bsfs(&topo, 256), drop_one);
    let outcome = run_small_sort(&fs);
    assert_reduce_failed_and_committed_nothing(&fs, outcome);
}

#[test]
fn a_segment_with_more_records_than_its_index_promises_fails_the_attempt() {
    let topo = ClusterTopology::flat(2);
    let append_one = on_spill_payloads(|data| {
        let extra: &[u8] = b"\x04\0\0\0zulu\0\0\0\0";
        Bytes::from([&data[..], extra].concat())
    });
    let fs = HookedFs::new(bsfs(&topo, 256), append_one);
    let outcome = run_small_sort(&fs);
    assert_reduce_failed_and_committed_nothing(&fs, outcome);
}

#[test]
fn a_payload_truncated_mid_record_fails_the_attempt() {
    let topo = ClusterTopology::flat(2);
    let cut_three = on_spill_payloads(|data| data.slice(..data.len() - 3));
    let fs = HookedFs::new(bsfs(&topo, 256), cut_three);
    let outcome = run_small_sort(&fs);
    assert_reduce_failed_and_committed_nothing(&fs, outcome);
}

#[test]
fn unhooked_small_sort_succeeds() {
    // The control for the three tests above: the same job, reads untouched.
    let topo = ClusterTopology::flat(2);
    let fs = HookedFs::new(bsfs(&topo, 256), |_, _, data| data);
    let result = run_small_sort(&fs).unwrap();
    assert_eq!(
        &fs.read_file(&result.output_files[0]).unwrap()[..],
        b"alpha\nbravo\ncharlie\ndelta\n"
    );
}

/// Emits a 64 KiB value per key and fails on the key `fail_at`.
struct FailsLate {
    fail_at: String,
}

impl Reducer for FailsLate {
    fn reduce(
        &self,
        key: &str,
        _values: &[String],
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        if key == self.fail_at {
            return Err(MrError::Storage("the reducer gave up".into()));
        }
        emit(key.to_string(), "v".repeat(64 * 1024));
        Ok(())
    }
}

#[test]
fn a_reducer_failing_after_the_first_flush_leaves_no_part_file_and_no_scratch() {
    let topo = ClusterTopology::flat(2);
    let fs = HookedFs::new(bsfs(&topo, 4_096), |_, _, data| data);
    let lines: String = (0..40).map(|i| format!("key-{i:02}\n")).collect();
    fs.write_file("/in/keys", lines.as_bytes()).unwrap();
    let config = JobConfig::new("late", InputSpec::Files(vec!["/in/keys".into()]), "/out")
        .with_split_size(100)
        .with_max_attempts(1);
    let fail_at = "key-30".to_string();
    let job = Job::new(
        config,
        Arc::new(SortMapper),
        Arc::new(FailsLate { fail_at }),
    );
    let outcome = JobTracker::new(&topo).run(&fs, &job);
    // 30 keys x 64 KiB were formatted before the failure: more than one
    // 1 MiB piece had already gone to the attempt's scratch file.
    let flushed = fs.hooks.reduce_scratch_bytes.load(Ordering::SeqCst);
    assert!(flushed >= 1 << 20, "only {flushed} bytes reached storage");
    assert_reduce_failed_and_committed_nothing(&fs, outcome);
}
