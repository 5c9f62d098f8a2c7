//! Small helpers for aggregating and printing experiment metrics.
//!
//! The paper reports aggregate/average throughput as a function of the number
//! of concurrent clients, and job completion times for the application-level
//! experiments. These helpers keep the formatting consistent across the
//! experiment binaries so that EXPERIMENTS.md tables can be regenerated by
//! copy-paste.

use serde::{Deserialize, Serialize};

/// One point of a throughput-vs-clients series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Number of concurrent clients in this configuration.
    pub clients: usize,
    /// Aggregate throughput over all clients, in MiB/s.
    pub aggregate_mibps: f64,
    /// Average per-client throughput, in MiB/s.
    pub per_client_mibps: f64,
}

/// A labelled throughput series (e.g. "BSFS" or "HDFS").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThroughputSeries {
    /// Label of the system that produced the series.
    pub system: String,
    /// Data points in increasing client count order.
    pub points: Vec<ThroughputPoint>,
}

impl ThroughputSeries {
    /// Create an empty series for `system`.
    pub fn new(system: impl Into<String>) -> Self {
        ThroughputSeries {
            system: system.into(),
            points: Vec::new(),
        }
    }

    /// Append a point computed from raw byte/second values.
    pub fn push_raw(&mut self, clients: usize, aggregate_bps: f64, per_client_bps: f64) {
        self.points.push(ThroughputPoint {
            clients,
            aggregate_mibps: aggregate_bps / (1024.0 * 1024.0),
            per_client_mibps: per_client_bps / (1024.0 * 1024.0),
        });
    }

    /// The point for a given client count, if present.
    pub fn at(&self, clients: usize) -> Option<&ThroughputPoint> {
        self.points.iter().find(|p| p.clients == clients)
    }

    /// Render the series as an aligned text table (one row per client count).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>8} {:>20} {:>20}\n",
            "system", "clients", "aggregate (MiB/s)", "per-client (MiB/s)"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:<10} {:>8} {:>20.1} {:>20.1}\n",
                self.system, p.clients, p.aggregate_mibps, p.per_client_mibps
            ));
        }
        out
    }
}

/// Render two series (the BSFS-vs-HDFS comparison the paper plots) side by
/// side, aligned on client counts taken from the first series.
pub fn comparison_table(a: &ThroughputSeries, b: &ThroughputSeries) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8} | {:>14} {:>14} | {:>14} {:>14} | {:>8}\n",
        "clients",
        format!("{} agg", a.system),
        format!("{} /cli", a.system),
        format!("{} agg", b.system),
        format!("{} /cli", b.system),
        "ratio"
    ));
    for pa in &a.points {
        if let Some(pb) = b.at(pa.clients) {
            let ratio = if pb.aggregate_mibps > 0.0 {
                pa.aggregate_mibps / pb.aggregate_mibps
            } else {
                f64::INFINITY
            };
            out.push_str(&format!(
                "{:>8} | {:>14.1} {:>14.1} | {:>14.1} {:>14.1} | {:>8.2}\n",
                pa.clients,
                pa.aggregate_mibps,
                pa.per_client_mibps,
                pb.aggregate_mibps,
                pb.per_client_mibps,
                ratio
            ));
        }
    }
    out
}

/// Completion-time record for an application-level experiment (E4/E5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompletionRecord {
    /// System under test ("BSFS" or "HDFS").
    pub system: String,
    /// Application name ("random-text-writer", "distributed-grep", ...).
    pub application: String,
    /// Number of map tasks executed.
    pub map_tasks: usize,
    /// Number of reduce tasks executed.
    pub reduce_tasks: usize,
    /// Job completion time in (virtual or real) seconds.
    pub completion_secs: f64,
}

/// Jain's fairness index over per-tenant allocations: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly even shares, `1/n` means one tenant got everything.
/// Empty or all-zero inputs count as perfectly fair (nothing was allocated
/// unevenly). The multi-tenant scheduling experiment (E12) reports this over
/// per-tenant mean job slowdowns.
pub fn jain_fairness_index(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// The `p`-th percentile (0..=100) of an unsorted sample, by
/// nearest-rank on a sorted copy (a NaN sample sorts last). Returns 0.0 for
/// an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Render completion records as an aligned table.
pub fn completion_table(records: &[CompletionRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<8} {:>10} {:>12} {:>18}\n",
        "application", "system", "maps", "reduces", "completion (s)"
    ));
    for r in records {
        out.push_str(&format!(
            "{:<24} {:<8} {:>10} {:>12} {:>18.2}\n",
            r.application, r.system, r.map_tasks, r.reduce_tasks, r.completion_secs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_ranges_from_even_to_concentrated() {
        assert!((jain_fairness_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything: index collapses to 1/n.
        assert!((jain_fairness_index(&[4.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Mild skew sits in between.
        let mid = jain_fairness_index(&[2.0, 1.0, 1.0]);
        assert!(mid > 0.25 && mid < 1.0, "got {mid}");
        // Degenerate inputs are "fair".
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert!((percentile(&xs, 50.0) - 51.0).abs() <= 1.0);
        assert!(percentile(&xs, 99.0) >= 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // A NaN sample sorts last instead of panicking.
        assert_eq!(percentile(&[3.0, f64::NAN, 1.0], 0.0), 1.0);
        assert!(percentile(&[3.0, f64::NAN, 1.0], 100.0).is_nan());
    }

    #[test]
    fn series_push_and_lookup() {
        let mut s = ThroughputSeries::new("BSFS");
        s.push_raw(10, 100.0 * 1024.0 * 1024.0, 10.0 * 1024.0 * 1024.0);
        s.push_raw(20, 150.0 * 1024.0 * 1024.0, 7.5 * 1024.0 * 1024.0);
        assert_eq!(s.points.len(), 2);
        let p = s.at(10).unwrap();
        assert!((p.aggregate_mibps - 100.0).abs() < 1e-9);
        assert!(s.at(99).is_none());
    }

    #[test]
    fn table_rendering_contains_all_rows() {
        let mut s = ThroughputSeries::new("HDFS");
        s.push_raw(1, 90.0 * 1024.0 * 1024.0, 90.0 * 1024.0 * 1024.0);
        s.push_raw(50, 1000.0 * 1024.0 * 1024.0, 20.0 * 1024.0 * 1024.0);
        let t = s.to_table();
        assert!(t.contains("HDFS"));
        assert_eq!(t.lines().count(), 3); // header + 2 rows
    }

    #[test]
    fn comparison_table_computes_ratio() {
        let mut a = ThroughputSeries::new("BSFS");
        let mut b = ThroughputSeries::new("HDFS");
        a.push_raw(10, 200.0 * 1024.0 * 1024.0, 20.0 * 1024.0 * 1024.0);
        b.push_raw(10, 100.0 * 1024.0 * 1024.0, 10.0 * 1024.0 * 1024.0);
        let t = comparison_table(&a, &b);
        assert!(
            t.contains("2.00"),
            "table should contain the 2.00 ratio:\n{t}"
        );
    }

    #[test]
    fn completion_table_renders() {
        let recs = vec![
            CompletionRecord {
                system: "BSFS".into(),
                application: "distributed-grep".into(),
                map_tasks: 160,
                reduce_tasks: 1,
                completion_secs: 123.4,
            },
            CompletionRecord {
                system: "HDFS".into(),
                application: "distributed-grep".into(),
                map_tasks: 160,
                reduce_tasks: 1,
                completion_secs: 170.9,
            },
        ];
        let t = completion_table(&recs);
        assert!(t.contains("distributed-grep"));
        assert!(t.contains("123.40"));
        assert_eq!(t.lines().count(), 3);
    }
}
