//! The benchmark's own checks: `BENCHMARK.json` is well-formed, a smoke
//! run of every workload emits exactly the metrics it lists and passes
//! its output checks, and the open-loop generator charges a stall to the
//! requests queued behind it.

use ddosbench::loadgen::{self, Req};
use ddosbench::spec::{Spec, BENCHMARK_JSON};
use ddosbench::workloads::Workload;
use serde::Value;
use std::collections::HashSet;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_parses_and_is_within_limits() {
    let spec = Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    assert!((1..=60).contains(&spec.run_seconds));
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    let mut names = HashSet::new();
    for w in &spec.workloads {
        assert!(is_name(&w.name), "workload name {:?}", w.name);
        assert!(names.insert(w.name.as_str()), "duplicate name {}", w.name);
        assert!(
            !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
    }
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(is_name(&m.name), "metric name {:?}", m.name);
        assert!(names.insert(m.name.as_str()), "duplicate name {}", m.name);
        assert!(is_unit(&m.unit), "unit {:?} of {}", m.unit, m.name);
    }
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is listed");
    assert_eq!(setup.unit, "s");
    assert_eq!(setup.better, ddosbench::spec::Better::Lower);
    assert!(
        spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    // The binary implements exactly the listed workloads.
    let listed: Vec<&str> = spec.workload_names();
    let implemented: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, implemented);
}

/// Run the benchmark binary; returns (exit ok, stdout).
fn run_benchmark(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Smoke runs of every workload, untraced and traced. End-to-end
/// metrics and per-layer times must never read 0. Another per-layer
/// metric (a share, a size, a count) reads 0 on a workload that does not
/// use its layer, but each must be non-zero on some workload, or it
/// measures nothing.
#[test]
fn smoke_runs_emit_exactly_the_listed_metrics_and_pass_their_checks() {
    let spec = Spec::load();
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = out.to_str().expect("utf-8 temp path");
    let mut layer_used: HashSet<String> = HashSet::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let (ok, stdout) = run_benchmark(&[
                "--workload",
                w.name(),
                "--smoke",
                "--trace",
                trace,
                "--out",
                out,
            ]);
            let last = stdout.lines().last().unwrap_or_default();
            assert!(ok, "{} trace={trace} failed:\n{stdout}", w.name());
            let result: Value = serde_json::from_str(last).expect("last line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{} trace={trace}: {last}",
                w.name()
            );
            assert_eq!(
                ddosbench::spec::number(result.get("failed")),
                Some(0.0),
                "{last}"
            );
            assert!(ddosbench::spec::number(result.get("attempted")).unwrap_or(0.0) >= 1.0);
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {last}");
            };
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let listed: Vec<&str> = spec
                .metrics(trace == "1")
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            assert_eq!(emitted, listed, "{} trace={trace}", w.name());
            for (name, m) in metrics {
                let unit = spec
                    .metrics(trace == "1")
                    .iter()
                    .find(|s| s.name == *name)
                    .map(|s| s.unit.as_str())
                    .expect("emitted metrics are listed");
                assert_eq!(m.get("unit"), Some(&Value::Str(unit.into())), "{name}");
                let value = ddosbench::spec::number(m.get("value")).expect("numeric value");
                if trace == "0" {
                    assert!(value > 0.0, "{} {name} = {value}", w.name());
                } else if ["s", "ms", "us"].contains(&unit) {
                    assert!(value != 0.0, "{} {name} = {value}", w.name());
                }
                if value != 0.0 {
                    layer_used.insert(name.clone());
                }
            }
        }
    }
    let unused: Vec<&str> = spec
        .per_layer
        .iter()
        .map(|m| m.name.as_str())
        .filter(|name| !layer_used.contains(*name))
        .collect();
    assert!(unused.is_empty(), "0 on every workload: {unused:?}");
}

#[test]
fn unknown_arguments_are_refused_without_a_result() {
    let (ok, stdout) = run_benchmark(&["--workload", "no_such_workload"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn run_length_is_fixed_by_benchmark_json() {
    let other = (Spec::load().run_seconds + 1).to_string();
    let (ok, stdout) = run_benchmark(&["--workload", "sweep_obs", "--seconds", &other]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}

/// A handler that answers at once, except `/stall`, which takes 50 ms.
fn stalling_server() -> (serve::Server, serve::ShutdownHandle) {
    let handler = |req: &serve::Request| {
        if req.path == "/stall" {
            std::thread::sleep(Duration::from_millis(50));
        }
        serve::Response::text(200, "ok\n")
    };
    let cfg = serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..serve::ServeConfig::default()
    };
    let server = serve::Server::bind(cfg, Arc::new(handler)).expect("bind test server");
    let shutdown = server.shutdown_handle();
    (server, shutdown)
}

#[test]
fn a_stall_raises_the_latency_of_later_requests() {
    let (server, shutdown) = stalling_server();
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run());
    // 200 req/s over two generators: generator 0 sends every even
    // request, 10 ms apart. Request 20 stalls for 50 ms, so generator 0
    // sends request 22 about 40 ms after it was due.
    let reqs: Vec<Req> = (0..100)
        .map(|i| Req::get(if i == 20 { "/stall" } else { "/fast" }))
        .collect();
    let rung = loadgen::open_loop(addr, &reqs, 200.0, Duration::from_millis(500), 2);
    shutdown.shutdown();
    assert!(join.join().expect("server thread").drained);

    assert_eq!(rung.samples.len(), 100);
    assert!(rung.samples.iter().all(|s| !s.failed()));
    let by_seq = |k: usize| {
        rung.samples
            .iter()
            .find(|s| s.seq == k)
            .expect("sample present")
    };
    let stalled = by_seq(20);
    assert!(
        stalled.latency_ms >= 50.0,
        "the stalled request itself: {stalled:?}"
    );
    let behind = by_seq(22);
    assert!(
        behind.late_ms >= 30.0,
        "request 22 was sent late: {behind:?}"
    );
    assert!(
        behind.latency_ms >= 30.0,
        "its latency counts the wait: {behind:?}"
    );
    // Timed from the send instead, request 22 would look fast.
    assert!(behind.latency_ms - behind.late_ms < 30.0, "{behind:?}");
    let before: Vec<f64> = rung
        .samples
        .iter()
        .filter(|s| s.seq < 20)
        .map(|s| s.latency_ms)
        .collect();
    assert!(ddosbench::stats::median(&before) < 30.0, "{before:?}");
}
