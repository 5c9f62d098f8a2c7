//! `mr_jobs` — the paper's applications: a grep and a sort over one text
//! file kept in BSFS.
//!
//! A pass is one *round*: a distributed grep for a rare literal (one
//! reducer; it reads every input byte and emits almost nothing, so it is
//! bound by the input scan and by task scheduling, and the shuffle is nearly
//! idle), then a distributed sort (range partitioned by sampled boundaries;
//! every input byte is spilled by a map task, fetched by a reducer, merged
//! and written out again). Block and page are both one mebibyte, so a map
//! task's split is one page on one provider. Job time runs from building
//! the job (the sort's boundary sampling included) to `run` returning.
//! Every round runs on a deployment of its own (deleting a job's output
//! frees no pages), and its outputs are read back in full and compared with
//! references computed from the input, outside the timed part of the round.

use super::{Deployment, Observer, Params, Plan, ProbeTarget, Shapes, Tally, Workload, MIB};
use crate::pattern::{Fnv, Rng};
use crate::spans;
use bsfs::{Bsfs, BsfsConfig};
use mapreduce::{BsfsFs, DistFs, JobResult, JobTracker};
use simcluster::topology::ClusterTopology;
use std::sync::Arc;
use std::time::Instant;
use workloads::TextGenerator;

pub const NAME: &str = "mr_jobs";

/// Block, page and split size.
const BLOCK: u64 = 1024 * 1024;
const INPUT_BYTES: usize = 64 * 1024 * 1024;
const SMOKE_INPUT_BYTES: usize = 2 * 1024 * 1024;
const SORT_REDUCERS: usize = 4;
/// Words in the grep literal: with a vocabulary of some forty words, a
/// given three-word sequence occurs about once in six thousand lines.
const LITERAL_WORDS: usize = 3;
const INPUT_PATH: &str = "/input/text";
const GREP_OUT: &str = "/grep-out";
const SORT_OUT: &str = "/sort-out";

/// What the jobs must produce, computed straight from the input text.
struct Reference {
    lines: u64,
    sorted_hash: u64,
    grep_literal: String,
    grep_count: u64,
}

pub struct MrJobs {
    text: String,
    reference: Reference,
    deployment: Option<Deployment>,
    fs: Option<Arc<dyn DistFs>>,
    tracker: Option<JobTracker>,
    results: Vec<JobResult>,
    /// The reports of the latest round's grep and sort (`None` for a job
    /// that failed), until `check_pass` has looked at their outputs.
    unchecked: Option<(Option<JobResult>, Option<JobResult>)>,
}

impl MrJobs {
    pub fn new(params: &Params) -> Self {
        let bytes = if params.smoke {
            SMOKE_INPUT_BYTES
        } else {
            INPUT_BYTES
        };
        let mut text = TextGenerator::new(params.seed).text_of_at_least(bytes);
        // The generator's buffer doubles when the last sentence overshoots
        // it; whether it does depends on the seed, and `heap_mib` would show
        // it.
        text.shrink_to_fit();

        let mut rng = Rng::new(params.seed, 0);
        let grep_literal = (0..LITERAL_WORDS)
            .map(|_| {
                workloads::textgen::WORDS
                    [rng.below(workloads::textgen::WORDS.len() as u64) as usize]
            })
            .collect::<Vec<_>>()
            .join(" ");
        let mut lines: Vec<&str> = text.lines().collect();
        let grep_count = lines.iter().filter(|l| l.contains(&grep_literal)).count() as u64;
        lines.sort_unstable();
        let mut hash = Fnv::default();
        for line in &lines {
            hash.update(line.as_bytes());
            hash.update(b"\n");
        }
        let reference = Reference {
            lines: lines.len() as u64,
            sorted_hash: hash.0,
            grep_literal,
            grep_count,
        };
        MrJobs {
            text,
            reference,
            deployment: None,
            fs: None,
            tracker: None,
            results: Vec::new(),
            unchecked: None,
        }
    }

    /// Does the grep output say `literal<TAB>count` with the right count?
    /// (No output file at all is right when the literal never occurs.)
    fn grep_output_ok(&self, fs: &dyn DistFs, result: &JobResult) -> bool {
        let mut found = 0u64;
        for part in &result.output_files {
            let Ok(data) = fs.read_file(part) else {
                return false;
            };
            for line in String::from_utf8_lossy(&data).lines() {
                match line.split_once('\t') {
                    Some((k, v)) if k == self.reference.grep_literal => {
                        found += v.parse::<u64>().unwrap_or(u64::MAX);
                    }
                    _ => return false,
                }
            }
        }
        found == self.reference.grep_count
    }

    /// Do the sort's partitions, concatenated in order, hold the input's
    /// lines in sorted order? Reads the whole output.
    fn sort_output_ok(&self, fs: &dyn DistFs, result: &JobResult) -> bool {
        if result.output_records != self.reference.lines {
            return false;
        }
        let mut hash = Fnv::default();
        let mut lines = 0u64;
        for part in &result.output_files {
            let Ok(data) = fs.read_file(part) else {
                return false;
            };
            hash.update(&data);
            lines += data.iter().filter(|&&b| b == b'\n').count() as u64;
        }
        lines == self.reference.lines && hash.0 == self.reference.sorted_hash
    }
}

impl Workload for MrJobs {
    fn shapes(&self) -> Shapes {
        Shapes {
            page_size: BLOCK,
            read_len: BLOCK,
            write_len: BLOCK,
            block_size: BLOCK,
        }
    }

    fn plan(&self) -> Plan {
        Plan {
            setups: 1,
            fresh_deployment_per_pass: true,
        }
    }

    fn teardown(&mut self) {
        self.tracker = None;
        self.fs = None;
        self.deployment = None;
    }

    fn setup(&mut self, observer: &dyn Observer, tally: &mut Tally) {
        let mut deployment = Deployment::new(BLOCK);
        let bsfs = Bsfs::new(
            Arc::clone(&deployment.storage),
            BsfsConfig::default().with_block_size(BLOCK),
        );
        let fs = observer.wrap_fs(Arc::new(BsfsFs::new(bsfs.clone())));
        deployment.bsfs = Some(bsfs);
        // Streamed a block at a time, as a client copying a file in would.
        let loaded = fs.create(INPUT_PATH).and_then(|mut writer| {
            for block in self.text.as_bytes().chunks(BLOCK as usize) {
                writer.write(block)?;
            }
            writer.close()
        });
        tally.count(loaded.is_ok());
        self.tracker = Some(JobTracker::new(&ClusterTopology::flat(super::NODES as u32)));
        self.deployment = Some(deployment);
        self.fs = Some(fs);
    }

    fn deployment(&self) -> &Deployment {
        self.deployment.as_ref().expect("set up first")
    }

    fn pass(&mut self, observer: &dyn Observer, timed: bool, tally: &mut Tally) -> f64 {
        let fs = Arc::clone(self.fs.as_ref().expect("set up first"));
        let tracker = self.tracker.as_ref().expect("set up first");
        let input = vec![INPUT_PATH.to_string()];

        let start = Instant::now();
        let grep = {
            let span = spans::enter("mr.grep_job");
            span.make_ambient();
            let job = observer.wrap_job(workloads::distributed_grep_job(
                input.clone(),
                GREP_OUT,
                &self.reference.grep_literal,
                BLOCK,
            ));
            tracker.run(&*fs, &job)
        };
        let grep_ns = start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let sort = {
            let span = spans::enter("mr.sort_job");
            span.make_ambient();
            workloads::distributed_sort_job(&*fs, input, SORT_OUT, SORT_REDUCERS, BLOCK)
                .and_then(|job| tracker.run(&*fs, &observer.wrap_job(job)))
        };
        let sort_ns = start.elapsed().as_nanos() as u64;

        if timed {
            tally.op_ns.push(grep_ns + sort_ns);
            tally.other_op_ns.push(grep_ns);
            tally.user_bytes += 2 * self.text.len() as u64;
            self.results.extend(grep.iter().cloned());
            self.results.extend(sort.iter().cloned());
        }
        self.unchecked = Some((grep.ok(), sort.ok()));
        self.text.len() as f64 / MIB / (sort_ns as f64 / 1e9)
    }

    fn check_pass(&mut self, tally: &mut Tally) {
        let fs = Arc::clone(self.fs.as_ref().expect("set up first"));
        let (grep, sort) = self.unchecked.take().unwrap_or((None, None));
        tally.count(matches!(&grep, Some(r) if self.grep_output_ok(&*fs, r)));
        // Every pass runs on a deployment of its own, so every sort output
        // can be read back in full before the deployment goes.
        tally.count(matches!(&sort, Some(r) if self.sort_output_ok(&*fs, r)));
    }

    fn verify(&mut self, _tally: &mut Tally) {
        // Every pass checked its own outputs before its deployment went away.
    }

    fn probe_target(&self) -> Option<ProbeTarget> {
        Some(ProbeTarget::File(INPUT_PATH.to_string()))
    }

    fn job_results(&self) -> &[JobResult] {
        &self.results
    }
}
