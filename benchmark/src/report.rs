//! How results leave the process: one `name workload value unit` line per
//! metric, then, as the last line, the JSON object the harness reads.

use crate::json::Value;

/// One named number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The object the harness reads from the last line of standard output.
pub fn result_object(attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    Value::object([
        ("correct", Value::Bool(failed == 0 && attempted > 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::object(metrics.iter().map(|m| {
                (
                    m.name,
                    Value::object([
                        ("value", Value::Num(m.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
}

/// Print every metric by name with its unit, then the result object.
pub fn print(workload: &str, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {} {}", m.name, workload, m.value, m.unit);
    }
    println!("{}", result_object(attempted, failed, metrics));
}
