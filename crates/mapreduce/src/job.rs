//! Job definitions: mappers, reducers and job configuration.
//!
//! The programming model follows the paper's description of MapReduce (§II-A):
//! "the user of the MapReduce library expresses the computation as two
//! functions: map, that processes a key-value pair to generate a set of
//! intermediate key-value pairs, and reduce, that merges all intermediate
//! values associated with the same intermediate key." Input records are text
//! lines keyed by their byte offset (Hadoop's `TextInputFormat`), which is
//! what both applications in the paper's evaluation consume.

use crate::error::MrResult;
use crate::scheduler::SpeculationPolicy;
use std::fmt;
use std::sync::Arc;

/// A user-supplied map function.
pub trait Mapper: Send + Sync {
    /// Process one input record. `offset` is the byte offset of the line in
    /// its file (the "key" of Hadoop's text input format); `line` is the line
    /// without its trailing newline. Emitted pairs go to the shuffle.
    fn map(&self, offset: u64, line: &str, emit: &mut dyn FnMut(String, String)) -> MrResult<()>;

    /// Like [`Mapper::map`], but also told which input file the record came
    /// from (`""` for synthetic splits). The framework always calls this
    /// entry point; the default implementation ignores the path and delegates
    /// to [`Mapper::map`]. Multi-input jobs (e.g. the equi-join) override it
    /// to tag records by their source — the Rust stand-in for Hadoop's
    /// per-split `InputFormat` context.
    fn map_with_source(
        &self,
        path: &str,
        offset: u64,
        line: &str,
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        let _ = path;
        self.map(offset, line, emit)
    }
}

/// A user-supplied reduce function.
pub trait Reducer: Send + Sync {
    /// Merge all values of one intermediate key. Emitted pairs are written to
    /// the task's output file.
    fn reduce(
        &self,
        key: &str,
        values: &[String],
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()>;
}

/// A reducer that forwards every (key, value) pair unchanged.
pub struct IdentityReducer;

impl Reducer for IdentityReducer {
    fn reduce(
        &self,
        key: &str,
        values: &[String],
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        for v in values {
            emit(key.to_string(), v.clone());
        }
        Ok(())
    }
}

/// A reducer that sums integer values per key (the word-count/grep reducer).
pub struct SumReducer;

impl Reducer for SumReducer {
    fn reduce(
        &self,
        key: &str,
        values: &[String],
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        let total: u64 = values.iter().filter_map(|v| v.parse::<u64>().ok()).sum();
        emit(key.to_string(), total.to_string());
        Ok(())
    }
}

/// Decides which reduce partition an intermediate key belongs to. The
/// partitioner must be a pure function of `(key, num_partitions)`: both the
/// storage-backed shuffle and the in-memory oracle rely on every map task
/// agreeing on the mapping.
pub trait Partitioner: Send + Sync {
    /// Partition index in `0..num_partitions` for `key`.
    fn partition(&self, key: &str, num_partitions: usize) -> usize;
}

/// Hadoop's default `HashPartitioner`: hash the key, modulo the reducer
/// count.
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, key: &str, num_partitions: usize) -> usize {
        crate::tasktracker::partition_for(key, num_partitions)
    }
}

/// TeraSort-style range partitioner: `boundaries` is a sorted list of split
/// points; keys below the first boundary go to partition 0, keys in
/// `[boundaries[i-1], boundaries[i])` to partition `i`, and keys at or above
/// the last boundary to the last partition. With boundaries sampled from the
/// input, concatenating the reduce outputs in partition order yields a
/// globally sorted result.
pub struct RangePartitioner {
    boundaries: Vec<String>,
}

impl RangePartitioner {
    /// Build a partitioner from split points (sorted and deduplicated here).
    pub fn new(mut boundaries: Vec<String>) -> Self {
        boundaries.sort();
        boundaries.dedup();
        RangePartitioner { boundaries }
    }

    /// The split points, sorted ascending.
    pub fn boundaries(&self) -> &[String] {
        &self.boundaries
    }
}

impl Partitioner for RangePartitioner {
    fn partition(&self, key: &str, num_partitions: usize) -> usize {
        if num_partitions <= 1 {
            return 0;
        }
        let rank = self.boundaries.partition_point(|b| b.as_str() <= key);
        rank.min(num_partitions - 1)
    }
}

/// Where a job's input records come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputSpec {
    /// Read text records from these files (directories are expanded).
    Files(Vec<String>),
    /// Generate `splits` synthetic splits of `records_per_split` empty
    /// records each. Used by generator jobs such as Random Text Writer, which
    /// have no input data (the Hadoop original uses the same trick).
    Synthetic {
        splits: usize,
        records_per_split: u64,
    },
}

/// Configuration of one MapReduce job.
#[derive(Clone)]
pub struct JobConfig {
    /// Human-readable job name (used in reports).
    pub name: String,
    /// The tenant the job is accounted to: fair-share weights, capacity
    /// caps, and admission quotas are all keyed by this string. Every job
    /// belongs to `"default"` unless overridden.
    pub tenant: String,
    /// Input description.
    pub input: InputSpec,
    /// Directory the output `part-*` files are written to. Must not exist.
    pub output_dir: String,
    /// Number of reduce tasks. Zero makes the job map-only: each map task
    /// writes its own `part-m-*` file directly, as Hadoop does.
    pub num_reducers: usize,
    /// Split size in bytes for file inputs (Hadoop uses the chunk size).
    pub split_size: u64,
    /// How many times a failed task is retried before the job fails.
    pub max_task_attempts: usize,
    /// Optional combiner, run over each map task's sorted partition buckets
    /// at spill time (Hadoop's mini-reduce). Cuts the bytes the shuffle moves
    /// through the storage layer for aggregation-shaped jobs; must be
    /// semantically safe to apply zero or more times (associative and
    /// commutative, like a sum).
    pub combiner: Option<Arc<dyn Reducer>>,
    /// Optional straggler-speculation policy. When set, idle worker slots
    /// may clone a slow task's sole running attempt onto another node; the
    /// first attempt to commit wins and the loser's work is discarded
    /// (Hadoop's speculative execution). `None` disables speculation.
    pub speculation: Option<Arc<dyn SpeculationPolicy>>,
}

impl fmt::Debug for JobConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobConfig")
            .field("name", &self.name)
            .field("tenant", &self.tenant)
            .field("input", &self.input)
            .field("output_dir", &self.output_dir)
            .field("num_reducers", &self.num_reducers)
            .field("split_size", &self.split_size)
            .field("max_task_attempts", &self.max_task_attempts)
            .field("combiner", &self.combiner.is_some())
            .field("speculation", &self.speculation.is_some())
            .finish()
    }
}

impl JobConfig {
    /// A configuration with sensible defaults for the given name, input and
    /// output.
    pub fn new(name: impl Into<String>, input: InputSpec, output_dir: impl Into<String>) -> Self {
        JobConfig {
            name: name.into(),
            tenant: "default".into(),
            input,
            output_dir: output_dir.into(),
            num_reducers: 1,
            split_size: 64 * 1024 * 1024,
            max_task_attempts: 4,
            combiner: None,
            speculation: None,
        }
    }

    /// Builder-style tenant assignment (multi-tenant scheduling and quotas
    /// are keyed by tenant).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Builder-style override of the reducer count.
    pub fn with_reducers(mut self, n: usize) -> Self {
        self.num_reducers = n;
        self
    }

    /// Builder-style override of the split size.
    pub fn with_split_size(mut self, split_size: u64) -> Self {
        self.split_size = split_size;
        self
    }

    /// Builder-style override of the retry limit.
    pub fn with_max_attempts(mut self, attempts: usize) -> Self {
        self.max_task_attempts = attempts.max(1);
        self
    }

    /// Builder-style combiner (run at spill time in each map task).
    pub fn with_combiner(mut self, combiner: Arc<dyn Reducer>) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// Builder-style speculation policy (straggler cloning by idle slots).
    pub fn with_speculation(mut self, policy: Arc<dyn SpeculationPolicy>) -> Self {
        self.speculation = Some(policy);
        self
    }
}

/// A runnable job: configuration plus user code.
pub struct Job {
    /// Job configuration.
    pub config: JobConfig,
    /// The map function.
    pub mapper: Arc<dyn Mapper>,
    /// The reduce function (ignored for map-only jobs).
    pub reducer: Arc<dyn Reducer>,
    /// How intermediate keys are assigned to reduce partitions.
    pub partitioner: Arc<dyn Partitioner>,
}

impl Job {
    /// Build a job from its parts (hash partitioning, Hadoop's default).
    pub fn new(config: JobConfig, mapper: Arc<dyn Mapper>, reducer: Arc<dyn Reducer>) -> Self {
        Job {
            config,
            mapper,
            reducer,
            partitioner: Arc::new(HashPartitioner),
        }
    }

    /// Build a map-only job (no reduce phase).
    pub fn map_only(config: JobConfig, mapper: Arc<dyn Mapper>) -> Self {
        let config = JobConfig {
            num_reducers: 0,
            ..config
        };
        Job {
            config,
            mapper,
            reducer: Arc::new(IdentityReducer),
            partitioner: Arc::new(HashPartitioner),
        }
    }

    /// Builder-style override of the partitioner (e.g. the sort job's
    /// [`RangePartitioner`]).
    pub fn with_partitioner(mut self, partitioner: Arc<dyn Partitioner>) -> Self {
        self.partitioner = partitioner;
        self
    }
}

/// Format an emitted pair onto the end of `out` the way Hadoop's
/// `TextOutputFormat` does: `key<TAB>value`, with the tab omitted when the
/// value is empty.
pub fn format_output_record(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(key);
    if !value.is_empty() {
        out.push(b'\t');
        out.extend_from_slice(value);
    }
    out.push(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    struct UpperMapper;
    impl Mapper for UpperMapper {
        fn map(
            &self,
            offset: u64,
            line: &str,
            emit: &mut dyn FnMut(String, String),
        ) -> MrResult<()> {
            emit(line.to_uppercase(), offset.to_string());
            Ok(())
        }
    }

    #[test]
    fn mapper_trait_objects_work() {
        let m: Arc<dyn Mapper> = Arc::new(UpperMapper);
        let mut out = Vec::new();
        m.map(7, "hello", &mut |k, v| out.push((k, v))).unwrap();
        assert_eq!(out, vec![("HELLO".to_string(), "7".to_string())]);
    }

    #[test]
    fn identity_reducer_passes_through() {
        let r = IdentityReducer;
        let mut out = Vec::new();
        r.reduce("k", &["a".into(), "b".into()], &mut |k, v| out.push((k, v)))
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].1, "b");
    }

    #[test]
    fn sum_reducer_adds_counts() {
        let r = SumReducer;
        let mut out = Vec::new();
        r.reduce(
            "word",
            &["1".into(), "2".into(), "bad".into(), "4".into()],
            &mut |k, v| out.push((k, v)),
        )
        .unwrap();
        assert_eq!(out, vec![("word".to_string(), "7".to_string())]);
    }

    #[test]
    fn job_config_builders() {
        let c = JobConfig::new("grep", InputSpec::Files(vec!["/in".into()]), "/out")
            .with_reducers(4)
            .with_split_size(1024)
            .with_max_attempts(0);
        assert_eq!(c.num_reducers, 4);
        assert_eq!(c.split_size, 1024);
        assert_eq!(
            c.max_task_attempts, 1,
            "attempts are clamped to at least one"
        );
        assert_eq!(c.name, "grep");
        assert_eq!(c.tenant, "default", "jobs belong to 'default' by default");
        let c = c.with_tenant("acme");
        assert_eq!(c.tenant, "acme");
        assert!(format!("{c:?}").contains("acme"));
    }

    #[test]
    fn map_only_forces_zero_reducers() {
        let c = JobConfig::new(
            "writer",
            InputSpec::Synthetic {
                splits: 3,
                records_per_split: 10,
            },
            "/out",
        )
        .with_reducers(5);
        let job = Job::map_only(c, Arc::new(UpperMapper));
        assert_eq!(job.config.num_reducers, 0);
    }

    #[test]
    fn output_record_formatting() {
        let mut out = Vec::new();
        format_output_record(&mut out, b"k", b"v");
        format_output_record(&mut out, b"only-key", b"");
        assert_eq!(out, b"k\tv\nonly-key\n");
    }

    #[test]
    fn map_with_source_defaults_to_map() {
        let m = UpperMapper;
        let mut out = Vec::new();
        m.map_with_source("/in/file", 3, "abc", &mut |k, v| out.push((k, v)))
            .unwrap();
        assert_eq!(out, vec![("ABC".to_string(), "3".to_string())]);
    }

    #[test]
    fn range_partitioner_buckets_by_boundary() {
        // Deliberately unsorted with a duplicate: new() normalizes.
        let p = RangePartitioner::new(vec!["m".into(), "g".into(), "g".into()]);
        assert_eq!(p.boundaries(), &["g".to_string(), "m".to_string()]);
        assert_eq!(p.partition("a", 3), 0);
        assert_eq!(p.partition("g", 3), 1, "boundary key goes right");
        assert_eq!(p.partition("h", 3), 1);
        assert_eq!(p.partition("m", 3), 2);
        assert_eq!(p.partition("z", 3), 2);
        // More boundaries than partitions: clamped to the last partition.
        assert_eq!(p.partition("z", 2), 1);
        assert_eq!(p.partition("z", 1), 0);
    }

    #[test]
    fn range_partitioner_with_no_boundaries_sends_everything_to_partition_0() {
        // Sampling an empty input yields no split points: every key must
        // land in partition 0 regardless of the reducer count, and the
        // remaining reducers simply produce empty part files.
        let p = RangePartitioner::new(Vec::new());
        assert!(p.boundaries().is_empty());
        for key in ["", "a", "zzz", "\u{10FFFF}"] {
            for n in [1, 2, 5] {
                assert_eq!(p.partition(key, n), 0, "key {key:?} with {n} partitions");
            }
        }
    }

    #[test]
    fn range_partitioner_with_all_duplicate_keys_collapses_to_one_boundary() {
        // An input where every record has the same key samples to a single
        // distinct boundary: keys below it go left, the key itself and
        // everything above goes right — still a valid total order.
        let p = RangePartitioner::new(vec!["k".into(); 100]);
        assert_eq!(p.boundaries(), &["k".to_string()]);
        assert_eq!(p.partition("a", 4), 0);
        assert_eq!(p.partition("k", 4), 1);
        assert_eq!(p.partition("z", 4), 1, "partitions 2..4 stay empty");
    }

    #[test]
    fn range_partitioner_with_fewer_distinct_keys_than_reducers() {
        // 2 distinct boundaries, 6 reducers: only partitions 0..=2 can ever
        // receive keys; the mapping must stay in range and order-preserving.
        let p = RangePartitioner::new(vec!["g".into(), "g".into(), "m".into()]);
        let keys = ["a", "g", "h", "m", "z"];
        let parts: Vec<usize> = keys.iter().map(|k| p.partition(k, 6)).collect();
        assert_eq!(parts, vec![0, 1, 1, 2, 2]);
        assert!(parts.iter().all(|&p| p < 6));
        // Order preservation: partition index is monotone in the key.
        assert!(parts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_string_keys_sort_before_any_boundary() {
        let p = RangePartitioner::new(vec!["a".into()]);
        assert_eq!(p.partition("", 2), 0);
        assert_eq!(p.partition("a", 2), 1);
    }

    #[test]
    fn speculation_builder_and_debug() {
        use crate::scheduler::SlowestFactorPolicy;
        let c = JobConfig::new("wc", InputSpec::Files(vec!["/in".into()]), "/out");
        assert!(c.speculation.is_none(), "speculation is off by default");
        assert!(format!("{c:?}").contains("speculation: false"));
        let c = c.with_speculation(Arc::new(SlowestFactorPolicy::default()));
        assert!(c.speculation.is_some());
        assert!(format!("{c:?}").contains("speculation: true"));
    }

    #[test]
    fn hash_partitioner_matches_partition_for() {
        let p = HashPartitioner;
        for key in ["a", "bb", "ccc"] {
            assert_eq!(
                p.partition(key, 5),
                crate::tasktracker::partition_for(key, 5)
            );
        }
    }

    #[test]
    fn combiner_builder_and_debug() {
        let c = JobConfig::new("wc", InputSpec::Files(vec!["/in".into()]), "/out");
        assert!(c.combiner.is_none());
        assert!(format!("{c:?}").contains("combiner: false"));
        let c = c.with_combiner(Arc::new(SumReducer));
        assert!(c.combiner.is_some());
        assert!(format!("{c:?}").contains("combiner: true"));
    }

    #[test]
    fn partitioner_override() {
        let config = JobConfig::new("sort", InputSpec::Files(vec!["/in".into()]), "/out");
        let job = Job::new(config, Arc::new(UpperMapper), Arc::new(IdentityReducer))
            .with_partitioner(Arc::new(RangePartitioner::new(vec!["k".into()])));
        assert_eq!(job.partitioner.partition("a", 2), 0);
        assert_eq!(job.partitioner.partition("x", 2), 1);
    }
}
