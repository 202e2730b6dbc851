//! Child processes. Every measurement runs in fresh processes that
//! re-execute this binary (`benchmark child …`), so the peak resident set
//! (`VmHWM`), the process-global `StageCache` and the metrics registry
//! start clean in each.
//!
//! Protocol: the child prints [`READY`] on its own line when its set-up
//! is done and its first timed operation starts, then one JSON report
//! as its last line. The parent times set-up from spawn to `READY`.

use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const READY: &str = "ready";

/// What the parent saw of one child.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn to the `READY` line, in seconds.
    pub setup_s: Option<f64>,
    /// The child's last stdout line, parsed.
    pub report: Option<Value>,
    /// Exited 0 within its deadline and left a parseable report.
    pub ok: bool,
}

impl ChildRun {
    /// A numeric field of the report.
    pub fn num(&self, key: &str) -> Option<f64> {
        crate::spec::number(self.report.as_ref()?.get(key))
    }

    /// A list-of-numbers field of the report (empty if absent).
    pub fn nums(&self, key: &str) -> Vec<f64> {
        numbers(self.report.as_ref().and_then(|r| r.get(key)))
    }

    /// An object-of-number-lists field of the report (empty if absent).
    pub fn lists(&self, key: &str) -> Vec<(String, Vec<f64>)> {
        match self.report.as_ref().and_then(|r| r.get(key)) {
            Some(Value::Object(fields)) => fields
                .iter()
                .map(|(k, v)| (k.clone(), numbers(Some(v))))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// A string field of the report.
    pub fn text(&self, key: &str) -> Option<String> {
        match self.report.as_ref()?.get(key) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    match v {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|v| crate::spec::number(Some(v)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Run `benchmark child <args…>` to completion, killing it if it
/// outlives `timeout`. Always waits for the process to end.
pub fn run(args: &[String], timeout: Duration) -> ChildRun {
    let failed = || ChildRun {
        setup_s: None,
        report: None,
        ok: false,
    };
    let exe = std::env::current_exe().expect("the running benchmark binary has a path");
    let start = Instant::now();
    let spawned = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => {
            eprintln!("benchmark: cannot spawn child {args:?}: {e}");
            return failed();
        }
    };
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut ready = None;
        let mut last = None;
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line == READY {
                ready = Some(start.elapsed().as_secs_f64());
            } else if !line.trim().is_empty() {
                last = Some(line);
            }
        }
        let _ = tx.send((ready, last));
    });
    let received = match rx.recv_timeout(timeout) {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("benchmark: child {args:?} exceeded {timeout:?}; killing it");
            let _ = child.kill();
            None
        }
    };
    let status = child.wait();
    let received = received.or_else(|| rx.recv().ok());
    let _ = reader.join();
    let Some((setup_s, last)) = received else {
        return failed();
    };
    let report = last.and_then(|l| serde_json::from_str::<Value>(&l).ok());
    let exited_ok = matches!(status, Ok(s) if s.success());
    if !exited_ok {
        eprintln!("benchmark: child {args:?} failed: {status:?}");
    }
    ChildRun {
        setup_s,
        ok: exited_ok && report.is_some(),
        report,
    }
}

/// Child side: announce that set-up is done.
pub fn ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{READY}");
    let _ = out.flush();
}

/// Child side: emit the report as the last stdout line.
pub fn report(fields: Vec<(&str, Value)>) {
    let doc = Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let line = serde_json::to_string(&doc).expect("report serialization is infallible");
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// A JSON array of numbers.
pub fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}
