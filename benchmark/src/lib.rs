//! The benchmark of record for this repository.
//!
//! Two binaries are built from this library: `bsfs-bench` measures the
//! end-to-end metrics with nothing of the benchmark's own in the way, and
//! `bsfs-trace` repeats the same workloads with spans, layer counters and
//! layer probes. `README.md` beside this package says what is measured and
//! why; `../BENCHMARK.json` is the contract the numbers are gated on.

pub mod cli;
pub mod compare;
pub mod json;
pub mod layers;
pub mod pattern;
pub mod probes;
pub mod procstat;
pub mod report;
pub mod spans;
pub mod stats;
pub mod tracedfs;
pub mod workloads;
