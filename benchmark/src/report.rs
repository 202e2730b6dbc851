//! What a run prints and keeps: one `workload metric value unit` line
//! per metric, a results file per workload, and the result line — the
//! last line of stdout — that scripts read.

use crate::spec::{self, Metric, Spec};
use crate::stats::Host;
use crate::workloads::Outcome;
use serde::Value;
use std::path::{Path, PathBuf};

/// Check that `outcome` carries exactly the metrics `spec` lists for
/// the mode, in spec order with their units. An empty metric set (a run
/// that measured nothing) passes through as a failed run.
pub fn ordered<'a>(
    spec: &'a Spec,
    trace: bool,
    outcome: &Outcome,
) -> Result<Vec<(&'a Metric, f64)>, String> {
    let wanted = spec.metrics(trace);
    if outcome.metrics.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity(wanted.len());
    for m in wanted {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| {
                format!(
                    "{}: metric {} was not measured",
                    outcome.workload.name(),
                    m.name
                )
            })?;
        if !value.is_finite() {
            return Err(format!(
                "{}: metric {} is {value}",
                outcome.workload.name(),
                m.name
            ));
        }
        out.push((m, value));
    }
    if let Some((extra, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !wanted.iter().any(|m| m.name == *n))
    {
        return Err(format!(
            "{}: metric {extra} is not in BENCHMARK.json",
            outcome.workload.name()
        ));
    }
    Ok(out)
}

/// The `{"correct", "attempted", "failed", "metrics"}` object.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("{name:?}:{{\"value\":{value},\"unit\":{unit:?}}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Write one workload's results file and return its path.
pub fn write_results(
    out: &Path,
    seed: u64,
    trace: bool,
    host: &Host,
    outcome: &Outcome,
    metrics: &[(&Metric, f64)],
) -> std::io::Result<PathBuf> {
    let dir = out.join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}.seed{seed}.trace{}.json",
        outcome.workload.name(),
        u8::from(trace)
    ));
    let metrics: Vec<(String, f64, String)> = metrics
        .iter()
        .map(|(m, v)| (m.name.clone(), *v, m.unit.clone()))
        .collect();
    let summaries: Vec<String> = outcome
        .summaries
        .iter()
        .map(|(name, s)| {
            format!(
                "{name:?}:{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                s.median, s.q1, s.q3, s.n
            )
        })
        .collect();
    let doc = format!(
        "{{\"workload\":{:?},\"seed\":{seed},\"trace\":{trace},\"digest\":{:?},\"host\":{},\"summaries\":{{{}}},\"result\":{}}}\n",
        outcome.workload.name(),
        outcome.digest.map(|d| format!("{d:016x}")).unwrap_or_default(),
        host.json(),
        summaries.join(","),
        result_json(outcome.correct, outcome.attempted, outcome.failed, &metrics),
    );
    std::fs::write(&path, doc)?;
    Ok(path)
}

/// One parsed results file, as `compare` reads it.
#[derive(Debug, Clone)]
pub struct Recorded {
    pub workload: String,
    pub correct: bool,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn read_results(path: &Path) -> Result<Recorded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let workload = match doc.get("workload") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err(bad("no workload")),
    };
    let result = doc.get("result").ok_or_else(|| bad("no result"))?;
    let metrics = match result.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), spec::number(m.get("value"))?)))
            .collect(),
        _ => return Err(bad("no metrics")),
    };
    Ok(Recorded {
        workload,
        correct: matches!(result.get("correct"), Some(Value::Bool(true))),
        failed: spec::number(result.get("failed")).unwrap_or(0.0) as u64,
        metrics,
    })
}
