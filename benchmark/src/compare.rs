//! `bsfs-bench compare A B`: two sets of runs, one row per pairing of
//! end-to-end metric and workload, and a verdict for each.
//!
//! A set is a file of lines, one per run, as `run.sh --set` writes them:
//! `{"workload": "...", "seed": 1, "trace": 0, "result": {...}}` where
//! `result` is the object a run prints last. A is the base (the parent
//! commit, or the first of two sets of one commit); every ratio is B over A.
//!
//! Verdicts, in this order:
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `improved` — B wins at least nine tenths of the pairs (runs paired by
//!   position, ties counting for neither) and the medians differ by more
//!   than the distance between A's own quartiles;
//! * `unresolved` — neither, but A's or B's quartiles lie further apart
//!   than the bound, so "unchanged" cannot be told from a change;
//! * `unchanged` — none of the above.

use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// What `BENCHMARK.json` says, as far as the benchmark's own tools need it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Gate>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn string_field(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

/// Read `BENCHMARK.json`.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<&[Value], String> {
        field(&v, key)?
            .as_array()
            .ok_or_else(|| format!("{key:?} is not a list"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| string_field(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Gate {
                name: string_field(m, "name")?,
                unit: string_field(m, "unit")?,
                lower_is_better: match string_field(m, "better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("\"better\" is {other:?}")),
                },
                bound: field(m, "bound")?
                    .as_f64()
                    .ok_or("\"bound\" is not a number")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .map(|m| Ok((string_field(m, "name")?, string_field(m, "unit")?)))
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        workloads,
        end_to_end,
        per_layer,
    })
}

/// The untraced runs of one set: values per `(workload, metric)` in run
/// order, and the operations that failed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub runs: usize,
}

/// Read a set file. Lines of traced runs are skipped: end-to-end metrics
/// only ever come from untraced runs.
pub fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what: String| format!("line {}: {what}", n + 1);
        let v = json::parse(line).map_err(|e| err(e.to_string()))?;
        if field(&v, "trace").map_err(&err)?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = string_field(&v, "workload").map_err(&err)?;
        let result = field(&v, "result").map_err(&err)?;
        set.runs += 1;
        set.attempted += field(result, "attempted")
            .map_err(&err)?
            .as_f64()
            .unwrap_or(0.0) as u64;
        set.failed += field(result, "failed")
            .map_err(&err)?
            .as_f64()
            .unwrap_or(0.0) as u64;
        let metrics = field(result, "metrics")
            .map_err(&err)?
            .as_object()
            .ok_or_else(|| err("\"metrics\" is not an object".into()))?;
        for (name, m) in metrics {
            let value = field(m, "value")
                .map_err(&err)?
                .as_f64()
                .ok_or_else(|| err(format!("{name}: \"value\" is not a number")))?;
            set.values
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// The verdict on one pairing of metric and workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// First quartile, median, third quartile.
pub type Quartiles = (f64, f64, f64);

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub a: Quartiles,
    pub b: Quartiles,
    /// B's median over A's.
    pub ratio: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one pairing from its two samples.
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> Option<(Verdict, Quartiles, Quartiles)> {
    let qa = stats::quartiles(a)?;
    let qb = stats::quartiles(b)?;
    // How much worse B's median is than A's, as a share of A's.
    let worse_by = if gate.lower_is_better {
        (qb.1 - qa.1) / qa.1.abs()
    } else {
        (qa.1 - qb.1) / qa.1.abs()
    };
    let (mut wins, mut losses) = (0usize, 0usize);
    for (x, y) in a.iter().zip(b) {
        let b_better = if gate.lower_is_better { y < x } else { y > x };
        let a_better = if gate.lower_is_better { x < y } else { x > y };
        wins += usize::from(b_better);
        losses += usize::from(a_better);
    }
    let pairs = a.len().min(b.len());
    let won_nine_tenths = pairs > 0 && wins * 10 >= pairs * 9 && losses * 10 <= pairs;
    let spread = |q: Quartiles| (q.2 - q.0) / q.1.abs();
    let verdict = if worse_by > gate.bound {
        Verdict::Regressed
    } else if won_nine_tenths && (qb.1 - qa.1).abs() > qa.2 - qa.0 {
        Verdict::Improved
    } else if spread(qa) > gate.bound || spread(qb) > gate.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Some((verdict, qa, qb))
}

/// Compare two sets under a spec: one row per gated pairing both sets hold.
pub fn compare(spec: &Spec, a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for gate in &spec.end_to_end {
        for workload in &spec.workloads {
            let key = (workload.clone(), gate.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            if let Some((verdict, qa, qb)) = judge(gate, va, vb) {
                rows.push(Row {
                    metric: gate.name.clone(),
                    workload: workload.clone(),
                    a: qa,
                    b: qb,
                    ratio: qb.1 / qa.1,
                    bound: gate.bound,
                    verdict,
                });
            }
        }
    }
    rows
}

/// The comparison as a table.
pub fn render(rows: &[Row], a: &RunSet, b: &RunSet) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<15} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "metric", "workload", "A median", "A quartiles", "B median", "B quartiles", "B/A", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:<15} {:>12.4} {:>25} {:>12.4} {:>25} {:>8.4} {:>6.2}  {}",
            r.metric,
            r.workload,
            r.a.1,
            format!("[{:.4}, {:.4}]", r.a.0, r.a.2),
            r.b.1,
            format!("[{:.4}, {:.4}]", r.b.0, r.b.2),
            r.ratio,
            r.bound,
            r.verdict
        );
    }
    let _ = writeln!(
        out,
        "A: {} runs, {} of {} operations failed; B: {} runs, {} of {} operations failed",
        a.runs, a.failed, a.attempted, b.runs, b.failed, b.attempted
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(lower: bool) -> Gate {
        Gate {
            name: "m".into(),
            unit: "u".into(),
            lower_is_better: lower,
            bound: 0.1,
        }
    }

    fn around(centre: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| centre + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn verdicts() {
        let base = around(100.0, 0.2);
        // The same numbers again: unchanged.
        assert_eq!(
            judge(&gate(true), &base, &base).unwrap().0,
            Verdict::Unchanged
        );
        // Fifteen percent slower on a lower-is-better metric: regressed;
        // the same shift on a higher-is-better metric: improved.
        let up = around(115.0, 0.2);
        assert_eq!(
            judge(&gate(true), &base, &up).unwrap().0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&gate(false), &base, &up).unwrap().0,
            Verdict::Improved
        );
        // Five percent faster, every pair won, far beyond A's spread: improved.
        let down = around(95.0, 0.2);
        assert_eq!(
            judge(&gate(true), &base, &down).unwrap().0,
            Verdict::Improved
        );
        // Quartiles further apart than the bound: unresolved, not unchanged.
        let noisy = around(100.0, 5.0);
        assert_eq!(
            judge(&gate(true), &noisy, &noisy).unwrap().0,
            Verdict::Unresolved
        );
        // A shift within the bound that does not win nine pairs in ten.
        let mixed: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, v)| if i % 2 == 0 { v + 1.0 } else { v - 1.0 })
            .collect();
        assert_eq!(
            judge(&gate(true), &base, &mixed).unwrap().0,
            Verdict::Unchanged
        );
        assert!(judge(&gate(true), &[1.0], &[1.0]).is_none());
    }

    #[test]
    fn reads_a_spec_and_sets_and_pairs_them_up() {
        let spec = parse_spec(
            r#"{"command": ["x"], "paths": ["p"], "run_seconds": 1,
                "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
                "end_to_end": [{"name": "lat", "unit": "us", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "c", "unit": "count", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, ["w1", "w2"]);
        assert_eq!(spec.end_to_end[0].bound, 0.1);
        assert_eq!(spec.per_layer, [("c".to_string(), "count".to_string())]);

        let line = |w: &str, trace: u8, lat: f64| {
            format!(
                r#"{{"workload": "{w}", "seed": 1, "trace": {trace}, "result": {{"correct": true, "attempted": 10, "failed": 0, "metrics": {{"lat": {{"value": {lat}, "unit": "us"}}}}}}}}"#
            )
        };
        let a: String = (0..4)
            .map(|i| line("w1", 0, 100.0 + f64::from(i)) + "\n")
            .collect();
        let b: String = (0..4)
            .map(|i| line("w1", 0, 130.0 + f64::from(i)) + "\n")
            .collect::<String>()
            + &line("w1", 1, 5.0);
        let (a, b) = (parse_set(&a).unwrap(), parse_set(&b).unwrap());
        assert_eq!((a.runs, b.runs, b.attempted), (4, 4, 40));
        let rows = compare(&spec, &a, &b);
        assert_eq!(rows.len(), 1, "w2 is in neither set");
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!((rows[0].ratio - 131.5 / 101.5).abs() < 1e-12);
        assert!(render(&rows, &a, &b).contains("regressed"));
        assert!(parse_set("{\"workload\": 3}").is_err());
    }
}
