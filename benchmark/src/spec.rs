//! `BENCHMARK.json`, the benchmark's definition: workloads, end-to-end
//! metrics with their regression bounds, and per-layer metrics. The file
//! is compiled in, so the binary and its definition cannot drift apart.

use serde::Value;

/// The repository's `BENCHMARK.json`, as built.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The compiled-in definition. Panics if it does not parse — the
    /// test suite checks it does.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let run_seconds = match doc.get("run_seconds") {
            Some(Value::UInt(n)) => *n,
            other => return Err(format!("run_seconds: expected an integer, got {other:?}")),
        };
        let workloads = array(&doc, "workloads")?
            .iter()
            .map(|w| {
                Ok(Workload {
                    name: string(w, "name")?,
                    why: string(w, "why")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            array(&doc, key)?
                .iter()
                .map(|m| {
                    let better = match string(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("better: {other:?} is not lower|higher")),
                    };
                    let bound = if bounded {
                        Some(number(m.get("bound")).ok_or("bound: expected a number")?)
                    } else {
                        None
                    };
                    Ok(Metric {
                        name: string(m, "name")?,
                        unit: string(m, "unit")?,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    pub fn workload_names(&self) -> Vec<&str> {
        self.workloads.iter().map(|w| w.name.as_str()).collect()
    }

    /// The metrics a run emits: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// A JSON number as `f64`, whichever integer or float form it took.
pub fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        other => Err(format!("{key}: expected a string, got {other:?}")),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Array(items)) => Ok(items),
        other => Err(format!("{key}: expected an array, got {other:?}")),
    }
}
