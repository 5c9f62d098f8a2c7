//! # mapreduce — a Hadoop-style MapReduce framework over pluggable storage
//!
//! The paper evaluates its storage layer by running it *under an unchanged
//! Hadoop*: "we substituted the original data storage layer of Hadoop [...]
//! with our BlobSeer-based file system" (§IV). This crate is the Rust stand-in
//! for that framework, faithful to the architecture the paper describes
//! (§II-A):
//!
//! * a single master **jobtracker** ([`jobtracker::JobTracker`]) that splits
//!   the input, assigns tasks and re-executes failed ones;
//! * **tasktrackers**, one per node with a configurable number of slots
//!   ([`tasktracker::TaskTracker`]), executed as real threads;
//! * the **map / shuffle / reduce** execution model with text-line records,
//!   pluggable partitioning (hash by default, range for sort jobs), optional
//!   spill-time combiners and sorted reduce keys — with intermediate data
//!   **materialized through the storage layer** ([`shuffle`]): map tasks
//!   spill sorted partition-bucketed files, reduce tasks pull segments with
//!   positioned reads as the spills commit, and all task output is
//!   rename-committed (the in-memory shuffle survives as
//!   [`jobtracker::JobTracker::run_inmem`], the differential-testing oracle);
//! * **locality-aware scheduling** ([`scheduler`]) driven by the storage
//!   layer's data-layout queries;
//! * a pluggable storage abstraction ([`fs::DistFs`]) with adapters for both
//!   BSFS and the HDFS baseline, so experiments can swap the storage layer
//!   and nothing else — exactly the paper's methodology.
//!
//! ```
//! use std::sync::Arc;
//! use blobseer::{BlobSeer, BlobSeerConfig};
//! use bsfs::{Bsfs, BsfsConfig};
//! use mapreduce::fs::{BsfsFs, DistFs};
//! use mapreduce::job::{InputSpec, Job, JobConfig, Mapper, SumReducer};
//! use mapreduce::jobtracker::JobTracker;
//! use mapreduce::MrResult;
//!
//! struct WordCount;
//! impl Mapper for WordCount {
//!     fn map(&self, _o: u64, line: &str, emit: &mut dyn FnMut(String, String)) -> MrResult<()> {
//!         for w in line.split_whitespace() { emit(w.to_string(), "1".to_string()); }
//!         Ok(())
//!     }
//! }
//!
//! let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(256));
//! let fs = BsfsFs::new(Bsfs::new(storage, BsfsConfig::for_tests()));
//! fs.write_file("/in/text", b"to be or not to be\n").unwrap();
//!
//! let job = Job::new(
//!     JobConfig::new("wordcount", InputSpec::Files(vec!["/in".into()]), "/out")
//!         .with_split_size(256),
//!     Arc::new(WordCount),
//!     Arc::new(SumReducer),
//! );
//! let tracker = JobTracker::new(fs.inner().storage().topology());
//! let result = tracker.run(&fs, &job).unwrap();
//! assert_eq!(result.map_tasks, 1);
//! assert!(fs.read_file(&result.output_files[0]).unwrap().starts_with(b"be\t2"));
//! ```

pub mod error;
pub mod fs;
pub mod job;
pub mod jobsched;
pub mod jobtracker;
pub mod scheduler;
pub mod shuffle;
pub mod split;
pub mod tasktracker;

/// For task bodies — mappers, reducers, [`fs::DistFs`] wrappers — that wait
/// without using the CPU (a straggler's sleep on a virtual clock): the wait
/// then costs the executor pool their attempt runs on no worker.
pub use miniexec::blocking;

pub use error::{MrError, MrResult};
pub use fs::{BlockHint, BsfsFs, DistFs, FileReader, FileWriter, HdfsFs};
pub use job::{
    HashPartitioner, IdentityReducer, InputSpec, Job, JobConfig, Mapper, Partitioner,
    RangePartitioner, Reducer,
};
pub use jobsched::{
    CapacityScheduler, FairScheduler, FifoScheduler, JobScheduler, SlotCaps, SlotKind, TenantQuota,
    TenantUsage,
};
pub use jobtracker::{JobHandle, JobResult, JobTracker, ShuffleCounters};
pub use scheduler::{
    AttemptView, LatePolicy, Locality, LocalityCounters, RuntimeHistory, SlowestFactorPolicy,
    SpeculationPolicy,
};
pub use split::{InputSplit, SplitSource};
pub use tasktracker::{
    AttemptRecord, AttemptState, FailureVerdict, SpeculationCounters, TaskAttemptId, TaskBook,
    TaskTracker,
};

#[cfg(test)]
mod tests {
    use super::fs::{BsfsFs, DistFs, HdfsFs};
    use super::job::{InputSpec, Job, JobConfig, Mapper, Reducer, SumReducer};
    use super::jobtracker::JobTracker;
    use super::*;
    use blobseer::{BlobSeer, BlobSeerConfig};
    use bsfs::{Bsfs, BsfsConfig};
    use hdfs_sim::{Hdfs, HdfsConfig};
    use simcluster::topology::ClusterTopology;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn bsfs_cluster(nodes: u32) -> (ClusterTopology, BsfsFs) {
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
        (topo, fs)
    }

    fn hdfs_cluster(nodes: u32) -> (ClusterTopology, HdfsFs) {
        let topo = ClusterTopology::flat(nodes);
        let dn_nodes: Vec<_> = topo.all_nodes().collect();
        let fs = HdfsFs::new(Hdfs::with_topology(
            HdfsConfig::for_tests().with_chunk_size(512),
            &topo,
            &dn_nodes,
        ));
        (topo, fs)
    }

    struct WordCountMapper;
    impl Mapper for WordCountMapper {
        fn map(
            &self,
            _offset: u64,
            line: &str,
            emit: &mut dyn FnMut(String, String),
        ) -> MrResult<()> {
            for w in line.split_whitespace() {
                emit(w.to_string(), "1".to_string());
            }
            Ok(())
        }
    }

    struct GrepMapper {
        pattern: String,
    }
    impl Mapper for GrepMapper {
        fn map(
            &self,
            _offset: u64,
            line: &str,
            emit: &mut dyn FnMut(String, String),
        ) -> MrResult<()> {
            if line.contains(&self.pattern) {
                emit(self.pattern.clone(), "1".to_string());
            }
            Ok(())
        }
    }

    fn wordcount_input() -> &'static str {
        "the quick brown fox\njumps over the lazy dog\nthe dog barks\n"
    }

    fn run_wordcount(topo: &ClusterTopology, fs: &dyn DistFs) -> (JobResult, Vec<(String, u64)>) {
        fs.write_file("/in/words.txt", wordcount_input().as_bytes())
            .unwrap();
        let job = Job::new(
            JobConfig::new("wordcount", InputSpec::Files(vec!["/in".into()]), "/out")
                .with_split_size(20)
                .with_reducers(3),
            Arc::new(WordCountMapper),
            Arc::new(SumReducer),
        );
        let jt = JobTracker::new(topo);
        let result = jt.run(fs, &job).unwrap();
        // Collect and parse all output records.
        let mut counts = Vec::new();
        for part in &result.output_files {
            let content = fs.read_file(part).unwrap();
            for line in String::from_utf8_lossy(&content).lines() {
                let mut it = line.split('\t');
                let word = it.next().unwrap().to_string();
                let count: u64 = it.next().unwrap().parse().unwrap();
                counts.push((word, count));
            }
        }
        counts.sort();
        (result, counts)
    }

    fn expected_wordcount() -> Vec<(String, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for w in wordcount_input().split_whitespace() {
            *map.entry(w.to_string()).or_insert(0u64) += 1;
        }
        map.into_iter().collect()
    }

    #[test]
    fn wordcount_on_bsfs_matches_reference() {
        let (topo, fs) = bsfs_cluster(4);
        let (result, counts) = run_wordcount(&topo, &fs);
        assert_eq!(counts, expected_wordcount());
        assert!(
            result.map_tasks >= 2,
            "a 56-byte file with 20-byte splits needs several maps"
        );
        assert_eq!(result.reduce_tasks, 3);
        assert_eq!(result.input_records, 3);
        assert!(result.output_records >= 8);
        assert_eq!(result.fs_name, "BSFS");
        assert!(result.completion_secs() > 0.0);
    }

    #[test]
    fn wordcount_on_hdfs_matches_reference() {
        let (topo, fs) = hdfs_cluster(4);
        let (result, counts) = run_wordcount(&topo, &fs);
        assert_eq!(counts, expected_wordcount());
        assert_eq!(result.fs_name, "HDFS");
    }

    #[test]
    fn control_wire_charges_claims_and_reports_over_simnet() {
        let (topo, fs) = bsfs_cluster(4);
        fs.write_file("/in/words.txt", wordcount_input().as_bytes())
            .unwrap();
        let job = Job::new(
            JobConfig::new("wordcount", InputSpec::Files(vec!["/in".into()]), "/out")
                .with_split_size(20)
                .with_reducers(3),
            Arc::new(WordCountMapper),
            Arc::new(SumReducer),
        );
        let net = Arc::new(wire::SimNet::new(
            topo.clone(),
            simcluster::netmodel::NetworkModel::grid5000_like(),
        ));
        let jt_node = topo.all_nodes().next().unwrap();
        let jt = JobTracker::new(&topo)
            .with_transport(Arc::clone(&net) as Arc<dyn wire::Transport>, jt_node);
        let result = jt.run(&fs, &job).unwrap();
        let control = jt.control_counters().expect("transport attached");
        // Every winning attempt is at least one claim (read) plus one
        // outcome report (write); retries and losers only add more.
        let tasks = (result.map_tasks + result.reduce_tasks) as u64;
        assert!(
            control.read_messages() >= tasks,
            "claims {} < tasks {tasks}",
            control.read_messages()
        );
        assert!(
            control.write_messages() >= tasks,
            "reports {} < tasks {tasks}",
            control.write_messages()
        );
        // The storage layer here runs in-process, so the SimNet carries
        // only the control plane: its exchange count must equal the
        // control counters, and the master's latency shows up as time.
        assert_eq!(net.exchanges(), control.messages());
        assert!(net.makespan() > simcluster::time::SimDuration::ZERO);
        // The shuffle counters project onto the same wire schema.
        let snap = result.shuffle.wire_snapshot();
        assert_eq!(snap.read_messages, result.shuffle.shuffle_read_round_trips);
        assert_eq!(snap.write_messages, 0);
        assert!(snap.bytes_received >= result.shuffle.shuffle_read_bytes);
        assert_eq!(snap.bytes_on_wire, snap.bytes_sent + snap.bytes_received);
    }

    #[test]
    fn both_backends_produce_identical_results() {
        let (topo_b, fs_b) = bsfs_cluster(4);
        let (topo_h, fs_h) = hdfs_cluster(4);
        let (_, counts_b) = run_wordcount(&topo_b, &fs_b);
        let (_, counts_h) = run_wordcount(&topo_h, &fs_h);
        assert_eq!(
            counts_b, counts_h,
            "the framework must behave identically over both backends"
        );
    }

    #[test]
    fn repeated_runs_produce_byte_identical_output() {
        // Slot dispatch is single-path (scoped tasks on the miniexec pool);
        // what remains worth holding is that concurrent slot scheduling
        // never leaks into job output: two runs of the same job must produce
        // byte-identical partition files.
        let run = || {
            let (topo, fs) = bsfs_cluster(4);
            fs.write_file("/in/words.txt", wordcount_input().as_bytes())
                .unwrap();
            let job = Job::new(
                JobConfig::new("wordcount", InputSpec::Files(vec!["/in".into()]), "/out")
                    .with_split_size(20)
                    .with_reducers(3),
                Arc::new(WordCountMapper),
                Arc::new(SumReducer),
            );
            let jt = JobTracker::new(&topo);
            let result = jt.run(&fs, &job).unwrap();
            let mut parts: Vec<(String, Vec<u8>)> = result
                .output_files
                .iter()
                .map(|p| (p.clone(), fs.read_file(p).unwrap().to_vec()))
                .collect();
            parts.sort();
            (result.output_records, parts)
        };
        let (records_a, parts_a) = run();
        let (records_b, parts_b) = run();
        assert_eq!(records_a, records_b);
        assert_eq!(
            parts_a, parts_b,
            "slot scheduling must not change job output"
        );
    }

    #[test]
    fn grep_counts_matching_lines() {
        let (topo, fs) = bsfs_cluster(4);
        let mut text = String::new();
        for i in 0..200 {
            if i % 7 == 0 {
                text.push_str(&format!("line {i} contains the needle pattern\n"));
            } else {
                text.push_str(&format!("line {i} is ordinary hay\n"));
            }
        }
        fs.write_file("/in/haystack.txt", text.as_bytes()).unwrap();
        let job = Job::new(
            JobConfig::new(
                "grep",
                InputSpec::Files(vec!["/in/haystack.txt".into()]),
                "/grep-out",
            )
            .with_split_size(512)
            .with_reducers(1),
            Arc::new(GrepMapper {
                pattern: "needle".into(),
            }),
            Arc::new(SumReducer),
        );
        let jt = JobTracker::new(&topo);
        let result = jt.run(&fs, &job).unwrap();
        let out = fs.read_file(&result.output_files[0]).unwrap();
        let expected = (0..200).filter(|i| i % 7 == 0).count();
        assert_eq!(
            String::from_utf8_lossy(&out),
            format!("needle\t{expected}\n")
        );
        assert!(result.input_records >= 200);
    }

    #[test]
    fn map_only_job_writes_one_file_per_map() {
        let (topo, fs) = bsfs_cluster(3);
        struct Generator;
        impl Mapper for Generator {
            fn map(
                &self,
                offset: u64,
                _line: &str,
                emit: &mut dyn FnMut(String, String),
            ) -> MrResult<()> {
                emit(format!("generated-record-{offset}"), String::new());
                Ok(())
            }
        }
        let job = Job::map_only(
            JobConfig::new(
                "generator",
                InputSpec::Synthetic {
                    splits: 5,
                    records_per_split: 10,
                },
                "/gen-out",
            ),
            Arc::new(Generator),
        );
        let jt = JobTracker::new(&topo);
        let result = jt.run(&fs, &job).unwrap();
        assert_eq!(result.map_tasks, 5);
        assert_eq!(result.reduce_tasks, 0);
        assert_eq!(result.output_files.len(), 5);
        assert_eq!(result.output_records, 50);
        assert!(result.output_bytes > 0);
        for part in &result.output_files {
            let content = fs.read_file(part).unwrap();
            assert_eq!(String::from_utf8_lossy(&content).lines().count(), 10);
        }
    }

    #[test]
    fn output_directory_must_not_exist() {
        let (topo, fs) = bsfs_cluster(2);
        fs.mkdirs("/out").unwrap();
        fs.write_file("/in/x", b"data\n").unwrap();
        let job = Job::new(
            JobConfig::new("clobber", InputSpec::Files(vec!["/in".into()]), "/out"),
            Arc::new(WordCountMapper),
            Arc::new(SumReducer),
        );
        let jt = JobTracker::new(&topo);
        assert!(matches!(jt.run(&fs, &job), Err(MrError::OutputExists(_))));
    }

    #[test]
    fn missing_input_fails_the_job() {
        let (topo, fs) = bsfs_cluster(2);
        let job = Job::new(
            JobConfig::new("ghost", InputSpec::Files(vec!["/nope".into()]), "/out"),
            Arc::new(WordCountMapper),
            Arc::new(SumReducer),
        );
        let jt = JobTracker::new(&topo);
        assert!(matches!(jt.run(&fs, &job), Err(MrError::InputNotFound(_))));
    }

    #[test]
    fn flaky_map_tasks_are_retried_and_the_job_succeeds() {
        let (topo, fs) = bsfs_cluster(2);
        fs.write_file("/in/data", b"alpha\nbeta\ngamma\n").unwrap();

        /// Fails the first two executions, then succeeds.
        struct FlakyMapper {
            failures_left: AtomicUsize,
        }
        impl Mapper for FlakyMapper {
            fn map(
                &self,
                _offset: u64,
                line: &str,
                emit: &mut dyn FnMut(String, String),
            ) -> MrResult<()> {
                if self
                    .failures_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
                {
                    return Err(MrError::Storage("transient failure".into()));
                }
                emit(line.to_string(), "1".to_string());
                Ok(())
            }
        }

        let job = Job::new(
            JobConfig::new("flaky", InputSpec::Files(vec!["/in/data".into()]), "/out")
                .with_reducers(1)
                .with_max_attempts(5),
            Arc::new(FlakyMapper {
                failures_left: AtomicUsize::new(2),
            }),
            Arc::new(SumReducer),
        );
        let jt = JobTracker::new(&topo);
        let result = jt.run(&fs, &job).unwrap();
        assert!(
            result.task_retries >= 1,
            "the flaky task must have been retried"
        );
        let out = fs.read_file(&result.output_files[0]).unwrap();
        assert_eq!(String::from_utf8_lossy(&out).lines().count(), 3);
        // Counters of the failed attempts must not leak into the report:
        // only the winning attempt's reads are merged.
        assert_eq!(result.input_records, 3);
        assert_eq!(result.speculation, SpeculationCounters::default());
    }

    #[test]
    fn permanently_failing_task_fails_the_job() {
        let (topo, fs) = bsfs_cluster(2);
        fs.write_file("/in/data", b"x\n").unwrap();
        struct AlwaysFails;
        impl Mapper for AlwaysFails {
            fn map(
                &self,
                _offset: u64,
                _line: &str,
                _emit: &mut dyn FnMut(String, String),
            ) -> MrResult<()> {
                Err(MrError::Storage("permanent".into()))
            }
        }
        let job = Job::new(
            JobConfig::new("doomed", InputSpec::Files(vec!["/in/data".into()]), "/out")
                .with_max_attempts(3),
            Arc::new(AlwaysFails),
            Arc::new(SumReducer),
        );
        let jt = JobTracker::new(&topo);
        match jt.run(&fs, &job) {
            Err(MrError::TaskFailed { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn failing_reducer_fails_the_job() {
        let (topo, fs) = bsfs_cluster(2);
        fs.write_file("/in/data", b"k\n").unwrap();
        struct BadReducer;
        impl Reducer for BadReducer {
            fn reduce(
                &self,
                _key: &str,
                _values: &[String],
                _emit: &mut dyn FnMut(String, String),
            ) -> MrResult<()> {
                Err(MrError::Storage("reduce broke".into()))
            }
        }
        let job = Job::new(
            JobConfig::new(
                "bad-reduce",
                InputSpec::Files(vec!["/in/data".into()]),
                "/out",
            )
            .with_max_attempts(2),
            Arc::new(WordCountMapper),
            Arc::new(BadReducer),
        );
        let jt = JobTracker::new(&topo);
        assert!(matches!(jt.run(&fs, &job), Err(MrError::TaskFailed { .. })));
    }

    #[test]
    fn locality_counters_cover_all_map_tasks() {
        let (topo, fs) = bsfs_cluster(6);
        // Write a file large enough for several splits.
        let data = vec![b'a'; 4096];
        let mut text = Vec::new();
        for chunk in data.chunks(63) {
            text.extend_from_slice(chunk);
            text.push(b'\n');
        }
        fs.write_file("/in/big", &text).unwrap();
        let job = Job::new(
            JobConfig::new("locality", InputSpec::Files(vec!["/in/big".into()]), "/out")
                .with_split_size(512)
                .with_reducers(1),
            Arc::new(WordCountMapper),
            Arc::new(SumReducer),
        );
        let jt = JobTracker::new(&topo);
        let result = jt.run(&fs, &job).unwrap();
        assert_eq!(result.locality.total(), result.map_tasks);
        // With one tasktracker per node and load-balanced placement, at least
        // some tasks should run data-local.
        assert!(
            result.locality.data_local > 0,
            "expected some data-local tasks, got {:?}",
            result.locality
        );
    }

    #[test]
    fn storage_shuffle_matches_inmem_oracle() {
        for use_hdfs in [false, true] {
            let topo = ClusterTopology::flat(4);
            let fs: Box<dyn DistFs> = if use_hdfs {
                let (_, fs) = hdfs_cluster(4);
                Box::new(fs)
            } else {
                let (_, fs) = bsfs_cluster(4);
                Box::new(fs)
            };
            fs.write_file("/in/words.txt", wordcount_input().as_bytes())
                .unwrap();
            let make_job = |out: &str| {
                Job::new(
                    JobConfig::new("wordcount", InputSpec::Files(vec!["/in".into()]), out)
                        .with_split_size(20)
                        .with_reducers(3),
                    Arc::new(WordCountMapper),
                    Arc::new(SumReducer),
                )
            };
            let jt = JobTracker::new(&topo);
            let dist = jt.run(&*fs, &make_job("/out-dist")).unwrap();
            let oracle = jt.run_inmem(&*fs, &make_job("/out-inmem")).unwrap();
            assert_eq!(dist.output_files.len(), oracle.output_files.len());
            for (d, o) in dist.output_files.iter().zip(&oracle.output_files) {
                assert_eq!(
                    d.strip_prefix("/out-dist"),
                    o.strip_prefix("/out-inmem"),
                    "part file names must match"
                );
                assert_eq!(
                    fs.read_file(d).unwrap(),
                    fs.read_file(o).unwrap(),
                    "{d} differs from the in-memory oracle (hdfs={use_hdfs})"
                );
            }
            assert_eq!(dist.output_records, oracle.output_records);
            assert_eq!(dist.output_bytes, oracle.output_bytes);
        }
    }

    #[test]
    fn shuffle_counters_are_nonzero_for_multi_reducer_jobs() {
        let (topo, fs) = bsfs_cluster(4);
        let (result, _) = run_wordcount(&topo, &fs);
        let s = result.shuffle;
        assert!(s.spill_records > 0, "map tasks must spill records: {s:?}");
        assert!(s.spill_bytes > 0);
        assert_eq!(
            s.segments_fetched,
            (result.map_tasks * result.reduce_tasks) as u64,
            "every reducer pulls one segment per map: {s:?}"
        );
        assert!(s.merge_runs > 0);
        assert_eq!(
            s.shuffle_read_round_trips, s.merge_runs,
            "one positioned read per non-empty segment, none for the index: {s:?}"
        );
        assert_eq!(s.shuffle_read_bytes, s.spill_bytes);
        // No combiner configured.
        assert_eq!(s.combine_input_records, 0);
        assert_eq!(s.combine_output_records, 0);
    }

    #[test]
    fn scratch_dirs_are_cleaned_when_the_job_fails() {
        let (topo, fs) = bsfs_cluster(2);
        fs.write_file("/in/data", b"k\n").unwrap();
        struct BadReducer;
        impl Reducer for BadReducer {
            fn reduce(
                &self,
                _key: &str,
                _values: &[String],
                _emit: &mut dyn FnMut(String, String),
            ) -> MrResult<()> {
                Err(MrError::Storage("reduce broke".into()))
            }
        }
        let job = Job::new(
            JobConfig::new("doomed", InputSpec::Files(vec!["/in/data".into()]), "/out")
                .with_max_attempts(2),
            Arc::new(WordCountMapper),
            Arc::new(BadReducer),
        );
        assert!(JobTracker::new(&topo).run(&fs, &job).is_err());
        assert!(
            !fs.exists("/out/_shuffle") && !fs.exists("/out/_temporary"),
            "failed jobs must not leak shuffle spills or attempt scratch"
        );
    }

    #[test]
    fn scratch_dirs_are_cleaned_after_success() {
        let (topo, fs) = bsfs_cluster(4);
        let (result, _) = run_wordcount(&topo, &fs);
        assert!(!fs.exists("/out/_shuffle"), "shuffle dir must be cleaned");
        assert!(!fs.exists("/out/_temporary"), "scratch dir must be cleaned");
        // The output dir holds exactly the part files.
        let mut listed = fs.list("/out").unwrap();
        listed.sort();
        assert_eq!(listed, result.output_files);
    }

    #[test]
    fn combiner_cuts_spilled_records_without_changing_output() {
        let (topo, fs) = bsfs_cluster(4);
        // Repetitive input so the combiner has something to collapse.
        let mut text = String::new();
        for _ in 0..50 {
            text.push_str("apple banana apple cherry apple banana\n");
        }
        fs.write_file("/in/fruit.txt", text.as_bytes()).unwrap();
        let make_job = |out: &str, combine: bool| {
            let mut config =
                JobConfig::new("wc", InputSpec::Files(vec!["/in/fruit.txt".into()]), out)
                    .with_split_size(256)
                    .with_reducers(2);
            if combine {
                config = config.with_combiner(Arc::new(SumReducer));
            }
            Job::new(config, Arc::new(WordCountMapper), Arc::new(SumReducer))
        };
        let jt = JobTracker::new(&topo);
        let plain = jt.run(&fs, &make_job("/out-plain", false)).unwrap();
        let combined = jt.run(&fs, &make_job("/out-combine", true)).unwrap();
        assert!(
            combined.shuffle.spill_records < plain.shuffle.spill_records,
            "combiner must cut spilled records: {} vs {}",
            combined.shuffle.spill_records,
            plain.shuffle.spill_records
        );
        assert!(combined.shuffle.spill_bytes < plain.shuffle.spill_bytes);
        assert!(combined.shuffle.combine_input_records > combined.shuffle.combine_output_records);
        for (a, b) in plain.output_files.iter().zip(&combined.output_files) {
            assert_eq!(fs.read_file(a).unwrap(), fs.read_file(b).unwrap());
        }
    }

    #[test]
    fn flaky_reduce_attempts_never_leave_partial_or_duplicate_output() {
        let (topo, fs) = bsfs_cluster(2);
        fs.write_file("/in/data", b"alpha\nbeta\ngamma\n").unwrap();
        /// Fails its first execution after emitting (the emitted pairs of the
        /// failed attempt must not leak into the committed part file).
        struct FlakyReducer {
            failures_left: AtomicUsize,
        }
        impl Reducer for FlakyReducer {
            fn reduce(
                &self,
                key: &str,
                _values: &[String],
                emit: &mut dyn FnMut(String, String),
            ) -> MrResult<()> {
                emit(key.to_string(), "1".to_string());
                if self
                    .failures_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
                {
                    return Err(MrError::Storage("transient reduce failure".into()));
                }
                Ok(())
            }
        }
        let job = Job::new(
            JobConfig::new("flaky-r", InputSpec::Files(vec!["/in/data".into()]), "/out")
                .with_reducers(1)
                .with_max_attempts(4),
            Arc::new(WordCountMapper),
            Arc::new(FlakyReducer {
                failures_left: AtomicUsize::new(1),
            }),
        );
        let result = JobTracker::new(&topo).run(&fs, &job).unwrap();
        assert!(result.task_retries >= 1);
        assert_eq!(result.output_files, vec!["/out/part-r-00000".to_string()]);
        let out = fs.read_file("/out/part-r-00000").unwrap();
        assert_eq!(
            String::from_utf8_lossy(&out).lines().count(),
            3,
            "retried attempt must produce exactly one complete part file"
        );
        let listed = fs.list("/out").unwrap();
        assert_eq!(listed, vec!["/out/part-r-00000".to_string()]);
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        // Mirror of the crate-level doctest.
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(256));
        let fs = BsfsFs::new(Bsfs::new(storage, BsfsConfig::for_tests()));
        fs.write_file("/in/text", b"to be or not to be\n").unwrap();
        let job = Job::new(
            JobConfig::new("wordcount", InputSpec::Files(vec!["/in".into()]), "/out")
                .with_split_size(256),
            Arc::new(WordCountMapper),
            Arc::new(SumReducer),
        );
        let tracker = JobTracker::new(fs.inner().storage().topology());
        let result = tracker.run(&fs, &job).unwrap();
        assert_eq!(result.map_tasks, 1);
        assert!(fs
            .read_file(&result.output_files[0])
            .unwrap()
            .starts_with(b"be\t2"));
    }
}
