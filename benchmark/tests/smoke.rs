//! Runs both binaries at `--smoke` size on every workload and holds their
//! output to `BENCHMARK.json`: every metric the contract lists is printed
//! exactly once, by name, with its unit, and the last line is the result
//! object with exactly the keys the harness reads.

use benchkit::compare::{parse_spec, Spec};
use benchkit::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn spec() -> Spec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    parse_spec(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Run one binary on one workload; return its standard output.
fn run(binary: &str, leading: &[&str], workload: &str) -> String {
    let out = Command::new(binary)
        .args(leading)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.3",
            "--smoke",
        ])
        .output()
        .expect("the binary starts");
    assert!(
        out.status.success(),
        "{binary} {workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// Check one run's output against the metrics it must report.
fn check(output: &str, workload: &str, want: &[(String, String)]) {
    // `name workload value unit` lines, counted by name.
    let mut printed: BTreeMap<&str, (usize, &str)> = BTreeMap::new();
    for line in output.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if let [name, w, value, unit] = fields.as_slice() {
            if *w == workload && value.parse::<f64>().is_ok() {
                let entry = printed.entry(name).or_insert((0, unit));
                entry.0 += 1;
            }
        }
    }
    for (name, unit) in want {
        assert!(valid_name(name), "{name:?} is not a valid metric name");
        let (count, printed_unit) = printed
            .get(name.as_str())
            .unwrap_or_else(|| panic!("{workload}: {name} was not printed"));
        assert_eq!(*count, 1, "{workload}: {name} printed {count} times");
        assert_eq!(printed_unit, unit, "{workload}: unit of {name}");
    }
    assert_eq!(
        printed.len(),
        want.len(),
        "{workload}: printed {:?}",
        printed.keys().collect::<Vec<_>>()
    );

    // The last line: exactly the four keys, and exactly the wanted metrics.
    let last = output.lines().last().expect("some output");
    let result = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").unwrap().as_object().unwrap();
    let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let mut wanted: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    got.sort_unstable();
    wanted.sort_unstable();
    assert_eq!(got, wanted, "{workload}: metrics of the result object");
    for (name, m) in metrics {
        let members: Vec<&str> = m
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(members, ["value", "unit"], "{name}");
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
    }
}

#[test]
fn every_listed_metric_is_printed_once_per_workload() {
    let spec = spec();
    assert_eq!(spec.workloads, benchkit::workloads::NAMES);
    let end_to_end: Vec<(String, String)> = spec
        .end_to_end
        .iter()
        .map(|g| (g.name.clone(), g.unit.clone()))
        .collect();
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in &spec.workloads {
        let out = run(env!("CARGO_BIN_EXE_bsfs-bench"), &["run"], workload);
        check(&out, workload, &end_to_end);
        // Untraced runs must never be zero: the harness gates on ratios.
        let result = json::parse(out.lines().last().unwrap()).unwrap();
        for (name, m) in result.get("metrics").unwrap().as_object().unwrap() {
            assert!(
                m.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                "{workload}: {name} is zero"
            );
        }
        let out = run(env!("CARGO_BIN_EXE_bsfs-trace"), &[], workload);
        check(&out, workload, &spec.per_layer);
    }
}

/// The system is measured as shipped: nothing under `benchmark/` may name a
/// switch or oracle the roadmap wants deleted. (The names are assembled
/// here so that this file does not contain them either.)
#[test]
fn no_ablation_switch_is_named_anywhere_in_the_benchmark() {
    let banned: Vec<String> = [
        ["with_metadata", "_cache"],
        ["with_metadata", "_readahead"],
        ["with_ranged", "_reads"],
        ["with_coalesced", "_reads"],
        ["run_", "inmem"],
        ["lookup_range", "_walk"],
        ["MINIEXEC", "_WORKERS"],
    ]
    .iter()
    .map(|parts| parts.concat())
    .collect();
    let mut pending = vec![Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()];
    let mut files = 0;
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !matches!(name, "target" | "out") {
                    pending.push(path);
                }
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            files += 1;
            for word in &banned {
                assert!(!text.contains(word), "{} names {word}", path.display());
            }
        }
    }
    assert!(files > 10, "the scan found the benchmark's files");
}
