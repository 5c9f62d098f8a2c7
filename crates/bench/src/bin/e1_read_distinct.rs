//! E1 — microbenchmark: concurrent clients reading from *different files*
//! (the access pattern of a map phase over per-task input files, paper §IV-B).
//!
//! Runs the paper-scale sweep (1..250 clients on 270 simulated Grid'5000
//! nodes, 1 GiB per client) for BSFS and HDFS and prints the throughput
//! series the paper plots (`kind: modelled`, flowsim output). The real-data
//! read path is measured by the benchmark of record's `scan_distinct`.

use workloads::microbench::AccessPattern;

fn main() {
    // BENCH_SMOKE=1 runs a tiny sweep (CI uses it as a does-it-run guard);
    // unset, empty, or "0" runs the full paper-scale sweep.
    let smoke = bench::smoke_mode();
    let client_counts = bench::sweep_client_counts(smoke);
    let (bsfs, hdfs, records) =
        bench::paper_sweep("E1", AccessPattern::ReadDistinctFiles, client_counts);
    bench::print_sweep(
        "E1",
        "concurrent reads from different files",
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
        "E1",
        &Snapshot {
            experiment: "E1",
            smoke,
            sweep: records,
        },
    );
}
