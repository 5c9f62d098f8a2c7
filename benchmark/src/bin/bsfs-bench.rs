//! `bsfs-bench` — the untraced end-to-end runs, and `compare`.
//!
//! `bsfs-bench run --workload <name> [--seed n] [--seconds s] [--smoke]
//! [--out-dir dir]` runs one workload and prints its end-to-end metrics;
//! `bsfs-bench compare A B [--spec BENCHMARK.json]` sets two sets of runs
//! side by side (see `compare.rs`).

use benchkit::report::Metric;
use benchkit::workloads::{self, Untraced};
use benchkit::{cli, compare, report, stats};
use std::process::ExitCode;

fn run(args: &[String]) -> Result<bool, String> {
    let args = cli::parse_run_args(args)?;
    let params = args.params();
    let mut workload = workloads::by_name(&args.workload, &params).expect("name was checked");
    let outcome = workloads::drive(&mut *workload, &params, &mut Untraced);

    let metrics = [
        Metric::new(
            "throughput_mibps",
            stats::median(&outcome.passes).unwrap_or(0.0),
            "MiB/s",
        ),
        Metric::new(
            "op_p50_us",
            stats::median_us(&outcome.tally.op_ns).unwrap_or(0.0),
            "us",
        ),
        Metric::new("heap_mib", outcome.heap_mib, "MiB"),
        Metric::new(
            "setup_s",
            stats::median(&outcome.setup_s).unwrap_or(0.0),
            "s",
        ),
    ];
    println!(
        "# {} seed {}: {} timed passes, {} timed operations, {} set-ups, {} executor workers, {} cores",
        args.workload,
        args.seed,
        outcome.passes.len(),
        outcome.tally.op_ns.len(),
        outcome.setup_s.len(),
        miniexec::worker_count(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report::print(
        &args.workload,
        outcome.tally.attempted,
        outcome.tally.failed,
        &metrics,
    );
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.json", args.workload));
        let result = report::result_object(outcome.tally.attempted, outcome.tally.failed, &metrics);
        std::fs::write(&path, format!("{result}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome.tally.failed == 0 && outcome.tally.attempted > 0)
}

fn compare_sets(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = it.next().ok_or("--spec needs a file")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: bsfs-bench compare A B [--spec BENCHMARK.json]".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let spec = compare::parse_spec(&read(&spec_path)?).map_err(|e| format!("{spec_path}: {e}"))?;
    let a = compare::parse_set(&read(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
    let b = compare::parse_set(&read(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
    let rows = compare::compare(&spec, &a, &b);
    print!("{}", compare::render(&rows, &a, &b));
    Ok(a.failed == 0
        && b.failed == 0
        && rows
            .iter()
            .all(|r| r.verdict != compare::Verdict::Regressed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match argv.first().map(String::as_str) {
        Some("run") => run(&argv[1..]),
        Some("compare") => compare_sets(&argv[1..]),
        _ => Err(format!(
            "usage: bsfs-bench run {}\n       bsfs-bench compare A B [--spec BENCHMARK.json]",
            cli::RUN_USAGE
        )),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("bsfs-bench: {msg}");
            ExitCode::from(2)
        }
    }
}
