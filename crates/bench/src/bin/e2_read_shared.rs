//! E2 — microbenchmark: concurrent clients reading *non-overlapping parts of
//! the same huge file* (map phase over one shared input, paper §IV-B).
//!
//! Runs the paper-scale sweep for BSFS and HDFS and prints the throughput
//! series the paper plots (`kind: modelled`, flowsim output).

use workloads::microbench::AccessPattern;

fn main() {
    // BENCH_SMOKE=1 runs a tiny sweep (CI uses it as a does-it-run guard);
    // unset, empty, or "0" runs the full paper-scale sweep.
    let smoke = bench::smoke_mode();
    let client_counts = bench::sweep_client_counts(smoke);
    let (bsfs, hdfs, records) =
        bench::paper_sweep("E2", AccessPattern::ReadSharedFile, client_counts);
    bench::print_sweep(
        "E2",
        "concurrent reads of non-overlapping parts of one huge file",
        &bsfs,
        &hdfs,
        &records,
    );

    #[derive(serde::Serialize)]
    struct Snapshot {
        experiment: &'static str,
        smoke: bool,
        sweep: Vec<bench::SweepRecord>,
    }
    bench::emit_bench_json(
        "E2",
        &Snapshot {
            experiment: "E2",
            smoke,
            sweep: records,
        },
    );
}
