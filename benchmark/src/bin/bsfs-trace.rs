//! `bsfs-trace` — the traced run: the same workloads as `bsfs-bench`, with
//! spans kept in memory on every other timed pass, the layers' own counters
//! read around every timed pass, and the layer probes afterwards. It prints
//! the per-layer metrics and a table that sets the layers against the
//! operation or job they serve, and writes a Chrome trace.
//!
//! End-to-end metrics never come from this binary.

use benchkit::report::Metric;
use benchkit::workloads::{self, Deployment, Observer};
use benchkit::{cli, layers, probes, report, spans, stats, tracedfs};
use mapreduce::job::{Mapper, Reducer};
use mapreduce::{DistFs, Job, MrResult};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds spent inside user map and reduce functions while spans are
/// on. A span per record would be millions of spans; two sums are enough.
#[derive(Default)]
struct UserCode {
    map_ns: AtomicU64,
    reduce_ns: AtomicU64,
}

struct TimedMapper {
    inner: Arc<dyn Mapper>,
    busy: Arc<UserCode>,
}

impl Mapper for TimedMapper {
    fn map(&self, offset: u64, line: &str, emit: &mut dyn FnMut(String, String)) -> MrResult<()> {
        self.map_with_source("", offset, line, emit)
    }

    fn map_with_source(
        &self,
        path: &str,
        offset: u64,
        line: &str,
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        if !spans::enabled() {
            return self.inner.map_with_source(path, offset, line, emit);
        }
        let start = Instant::now();
        let result = self.inner.map_with_source(path, offset, line, emit);
        // Relaxed: a statistic that publishes nothing else.
        self.busy
            .map_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

struct TimedReducer {
    inner: Arc<dyn Reducer>,
    busy: Arc<UserCode>,
}

impl Reducer for TimedReducer {
    fn reduce(
        &self,
        key: &str,
        values: &[String],
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        if !spans::enabled() {
            return self.inner.reduce(key, values, emit);
        }
        let start = Instant::now();
        let result = self.inner.reduce(key, values, emit);
        self.busy
            .reduce_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

/// The observer of the traced binary.
struct Tracer {
    user_code: Arc<UserCode>,
    fs: Arc<tracedfs::FsStats>,
    totals: layers::Totals,
    before: layers::Reading,
    fs_reads_before: u64,
    fs_reads_timed: u64,
    /// Which timed passes had spans on.
    traced: Vec<bool>,
}

impl Observer for Tracer {
    fn wrap_fs(&self, fs: Arc<dyn DistFs>) -> Arc<dyn DistFs> {
        Arc::new(tracedfs::TracedFs::new(fs, Arc::clone(&self.fs)))
    }

    fn wrap_job(&self, job: Job) -> Job {
        Job {
            mapper: Arc::new(TimedMapper {
                inner: job.mapper,
                busy: Arc::clone(&self.user_code),
            }),
            reducer: Arc::new(TimedReducer {
                inner: job.reducer,
                busy: Arc::clone(&self.user_code),
            }),
            ..job
        }
    }

    fn before_pass(&mut self, pass: usize, deployment: &Deployment) {
        self.before = layers::read(deployment);
        self.fs_reads_before = self.fs.reads();
        // Odd passes are traced, even ones are not: the two alternate, so
        // drift over the run falls on both alike.
        let on = pass % 2 == 1;
        self.traced.push(on);
        spans::set_enabled(on);
    }

    fn after_pass(&mut self, _pass: usize, deployment: &Deployment) {
        spans::set_enabled(false);
        self.totals.add(&self.before, &layers::read(deployment));
        self.fs_reads_timed += self.fs.reads() - self.fs_reads_before;
    }
}

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = cli::parse_run_args(args)?;
    let params = args.params();
    let mut workload = workloads::by_name(&args.workload, &params).expect("name was checked");
    let mut tracer = Tracer {
        user_code: Arc::default(),
        fs: Arc::default(),
        totals: layers::Totals::default(),
        before: layers::Reading::default(),
        fs_reads_before: 0,
        fs_reads_timed: 0,
        traced: Vec::new(),
    };
    let outcome = workloads::drive(&mut *workload, &params, &mut tracer);
    let (all_spans, dropped) = spans::drain();
    let by_name = spans::totals_by_name(&all_spans);

    // Counters first: the probes below would disturb them.
    let mut metrics = tracer.totals.metrics(tracer.fs_reads_timed);
    let dht_bytes_per_entry = ratio(
        tracer.totals.last.dht_bytes as f64,
        tracer.totals.last.dht_entries as f64,
    );
    let nodes_per_write = ratio(
        tracer.totals.nodes_written as f64,
        tracer.totals.writes as f64,
    );
    let probed = probes::run(
        workload.deployment(),
        workload.shapes(),
        workload.probe_target().as_ref(),
        dht_bytes_per_entry,
        nodes_per_write,
        args.seed,
        args.smoke,
    );
    metrics.extend(probed.metrics.iter().cloned());

    // The operation as the clients saw it, under load.
    let op_us: Vec<f64> = outcome
        .tally
        .op_ns
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    let op_p50_us = stats::median(&op_us).unwrap_or(0.0);
    let (tail_pct, tail_us) = [0.99, 0.95, 0.9, 0.75, 0.5]
        .iter()
        .find_map(|&p| stats::percentile(&op_us, p).ok().map(|v| (p * 100.0, v)))
        .unwrap_or((100.0, op_us.iter().copied().fold(0.0, f64::max)));
    let other_p50_us = stats::median_us(&outcome.tally.other_op_ns).unwrap_or(0.0);
    metrics.push(Metric::new("client.op_p50_us", op_p50_us, "us"));
    metrics.push(Metric::new("client.op_tail_us", tail_us, "us"));
    metrics.push(Metric::new("client.op_tail_percentile", tail_pct, "%"));
    metrics.push(Metric::new(
        "client.other_to_primary_ratio",
        ratio(other_p50_us, op_p50_us),
        "ratio",
    ));

    // What the process cost, over the timed passes.
    let ops = (outcome.tally.op_ns.len() + outcome.tally.other_op_ns.len()) as f64;
    let gib = outcome.tally.user_bytes as f64 / (1u64 << 30) as f64;
    metrics.push(Metric::new(
        "process.cpu_s_per_gib",
        ratio(outcome.usage.cpu_s(), gib),
        "s/GiB",
    ));
    metrics.push(Metric::new(
        "process.sys_cpu_share",
        ratio(outcome.usage.sys_s, outcome.usage.cpu_s()),
        "share",
    ));
    metrics.push(Metric::new(
        "process.ctx_switches_per_op",
        ratio(outcome.usage.ctx_switches as f64, ops),
        "count",
    ));
    metrics.push(Metric::new(
        "process.threads_peak",
        miniexec::census::peak() as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "miniexec.workers",
        miniexec::worker_count() as f64,
        "count",
    ));

    // Jobs: counters from their reports, busy time from the spans of the
    // traced rounds set against those rounds' job time.
    let jobs = workload.job_results();
    let maps: usize = jobs.iter().map(|j| j.map_tasks).sum();
    let reduces: usize = jobs.iter().map(|j| j.reduce_tasks).sum();
    metrics.push(Metric::new(
        "mr.task_retries",
        jobs.iter().map(|j| j.task_retries).sum::<usize>() as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "mr.local_task_share",
        ratio(
            jobs.iter().map(|j| j.locality.data_local).sum::<usize>() as f64,
            maps as f64,
        ),
        "share",
    ));
    metrics.push(Metric::new(
        "mr.spill_bytes_per_input_byte",
        ratio(
            jobs.iter().map(|j| j.shuffle.spill_bytes).sum::<u64>() as f64,
            jobs.iter().map(|j| j.input_bytes).sum::<u64>() as f64,
        ),
        "ratio",
    ));
    metrics.push(Metric::new(
        "mr.positioned_reads_per_reduce",
        ratio(
            jobs.iter()
                .map(|j| j.shuffle.shuffle_read_round_trips)
                .sum::<u64>() as f64,
            reduces as f64,
        ),
        "count",
    ));
    let span_s = |name: &str| by_name.get(name).map_or(0.0, |t| t.busy_ns as f64 / 1e9);
    let job_s = span_s("mr.grep_job") + span_s("mr.sort_job");
    let busy_s = |class: &str| tracer.fs.busy_s(class);
    let user_map_s = tracer.user_code.map_ns.load(Ordering::Relaxed) as f64 / 1e9;
    let user_reduce_s = tracer.user_code.reduce_ns.load(Ordering::Relaxed) as f64 / 1e9;
    // Map tasks read their input inside `bsfs.read_at`; in a job, nothing
    // else reads outside the shuffle directories.
    let mr_rows = [
        (
            "mr.input_read_busy_share",
            busy_s(tracedfs::READ_AT) * f64::from(job_s > 0.0),
        ),
        ("mr.spill_write_busy_share", busy_s(tracedfs::SPILL_WRITE)),
        ("mr.fetch_busy_share", busy_s(tracedfs::FETCH)),
        ("mr.output_write_busy_share", busy_s(tracedfs::OUTPUT_WRITE)),
        (
            "mr.fs_meta_busy_share",
            busy_s(tracedfs::FS_META) * f64::from(job_s > 0.0),
        ),
        ("mr.map_fn_busy_share", user_map_s),
        ("mr.reduce_fn_busy_share", user_reduce_s),
    ];
    for (name, seconds) in mr_rows {
        metrics.push(Metric::new(name, ratio(seconds, job_s), "share"));
    }

    // Tracing overhead: throughput of the traced passes against the others.
    let mibps_where = |traced: bool| -> Vec<f64> {
        outcome
            .passes
            .iter()
            .zip(&tracer.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(p, _)| *p)
            .collect()
    };
    let untraced_mibps = stats::median(&mibps_where(false)).unwrap_or(0.0);
    let traced_mibps = stats::median(&mibps_where(true)).unwrap_or(0.0);
    metrics.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (1.0 - ratio(traced_mibps, untraced_mibps)),
        "%",
    ));
    metrics.push(Metric::new("trace.spans", all_spans.len() as f64, "count"));
    metrics.push(Metric::new("trace.dropped_spans", dropped as f64, "count"));

    // The table: the layers set against the operation or job they serve.
    println!(
        "# layer table for {} (microseconds unless stated)",
        args.workload
    );
    let unattributed_share = if job_s > 0.0 {
        let slots = miniexec::worker_count() as f64;
        let slot_s = job_s * slots;
        println!("#   job time of the traced rounds      {job_s:12.3} s  x {slots} executor workers = {slot_s:.3} slot-s");
        let mut attributed = 0.0;
        for (name, seconds) in mr_rows {
            println!("#   {name:36} {seconds:12.3} s");
            attributed += seconds;
        }
        println!(
            "#   unattributed                         {:12.3} s",
            slot_s - attributed
        );
        ratio(slot_s - attributed, slot_s)
    } else {
        let writes = tracer.totals.writes > 0 && tracer.totals.reads == 0;
        let unloaded = if writes {
            probed.client_append_us
        } else if tracer.fs_reads_timed > 0 {
            probed.bsfs_read_at_us
        } else {
            probed.client_read_us
        };
        println!("#   operation under load, p50            {op_p50_us:12.1}");
        if writes {
            println!(
                "#   client.append, one caller            {:12.1}",
                probed.client_append_us
            );
            println!(
                "#     vm.reserve_commit                  {:12.1}",
                probed.vm_reserve_commit_us
            );
            println!(
                "#     provider.put_page x pages          {:12.1}",
                probed.provider_put_us_per_write
            );
            println!(
                "#     dht.put_many x nodes               {:12.1}",
                probed.dht_put_us_per_write
            );
            println!(
                "#     client self (the rest)             {:12.1}",
                probed.client_append_us
                    - probed.vm_reserve_commit_us
                    - probed.provider_put_us_per_write
                    - probed.dht_put_us_per_write
            );
        } else {
            if tracer.fs_reads_timed > 0 {
                println!(
                    "#   bsfs.read_at, one caller             {:12.1}",
                    probed.bsfs_read_at_us
                );
            }
            println!(
                "#   client.read, one caller              {:12.1}",
                probed.client_read_us
            );
            println!(
                "#     metadata.lookup_range              {:12.1}",
                probed.metadata_lookup_us
            );
            println!(
                "#     provider.download x pages          {:12.1}",
                probed.provider_download_us_per_read
            );
            println!(
                "#     client self (the rest)             {:12.1}",
                probed.client_read_us
                    - probed.metadata_lookup_us
                    - probed.provider_download_us_per_read
            );
        }
        println!(
            "#   unattributed (load minus one caller) {:12.1}",
            op_p50_us - unloaded
        );
        ratio(op_p50_us - unloaded, op_p50_us)
    };
    metrics.push(Metric::new(
        "trace.unattributed_share",
        unattributed_share,
        "share",
    ));
    for (name, t) in &by_name {
        println!(
            "#   span {name:24} n {:8}  busy {:10.3} s  self {:10.3} s",
            t.count,
            t.busy_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }

    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, spans::chrome_trace(&all_spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# chrome trace: {}", path.display());
    }
    let attempted = outcome.tally.attempted + probed.attempted;
    let failed = outcome.tally.failed + probed.failed;
    report::print(&args.workload, attempted, failed, &metrics);
    if let Some(dir) = &args.out_dir {
        let path = dir.join(format!("layers-{}.json", args.workload));
        let result = report::result_object(attempted, failed, &metrics);
        std::fs::write(&path, format!("{result}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("bsfs-trace: {msg}\nusage: bsfs-trace {}", cli::RUN_USAGE);
            ExitCode::from(2)
        }
    }
}
