//! End-to-end CLI telemetry: `ddoscovery --telemetry out.json` must
//! emit a manifest with per-stage latency histograms, per-observatory
//! observation counts, pool utilization, and projection cache
//! counters — and keep stdout machine-readable. Runs the real binary
//! in a child process so the registry holds exactly one run.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

fn manifest_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ddoscovery-{tag}-{}.json", std::process::id()))
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::UInt(n) => *n,
        Value::Int(n) => *n as u64,
        other => panic!("expected integer, got {other:?}"),
    }
}

#[test]
fn telemetry_flag_emits_full_manifest() {
    let path = manifest_path("flag");
    let out = Command::new(env!("CARGO_BIN_EXE_ddoscovery"))
        .args(["trends", "--quick", "--workers", "2", "--telemetry"])
        .arg(&path)
        .env("DDOSCOVERY_LOG", "error")
        .output()
        .expect("spawn ddoscovery");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // stdout stays machine-readable: the trends table only.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("observatory"));
    assert!(!stdout.contains("telemetry"));

    // The summary table bypasses log levels; leveled [info] lines are
    // suppressed at DDOSCOVERY_LOG=error.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("== telemetry: quick run"));
    assert!(stderr.contains("pool.imbalance"));
    assert!(!stderr.contains("[info"));

    let text = std::fs::read_to_string(&path).expect("manifest file");
    std::fs::remove_file(&path).ok();
    let v: Value = serde_json::from_str(&text).expect("manifest parses");

    assert_eq!(uint(v.get("schema").unwrap()), 1);
    let run = v.get("run").unwrap();
    assert_eq!(run.get("scenario"), Some(&Value::Str("quick".into())));
    assert_eq!(uint(run.get("seed").unwrap()), 0xDD05_C0DE);
    assert_eq!(uint(run.get("workers").unwrap()), 2);
    assert!(matches!(run.get("config_hash"), Some(Value::UInt(_))));

    let metrics = v.get("metrics").unwrap();
    let counters = metrics.get("counters").unwrap();
    let histograms = metrics.get("histograms").unwrap();
    let gauges = metrics.get("gauges").unwrap();

    // Per-stage latency histograms, nested under the CLI's run span.
    for h in ["span.run", "span.run.generate", "span.run.observe", "span.run.project"] {
        let hist = histograms.get(h).unwrap_or_else(|| panic!("missing histogram {h}"));
        assert!(uint(hist.get("count").unwrap()) >= 1, "{h} recorded nothing");
        let bounds = match hist.get("bounds").unwrap() {
            Value::Array(b) => b.len(),
            other => panic!("bounds not an array: {other:?}"),
        };
        let buckets = match hist.get("buckets").unwrap() {
            Value::Array(b) => b.len(),
            other => panic!("buckets not an array: {other:?}"),
        };
        assert_eq!(buckets, bounds + 1, "{h} missing its overflow bucket");
    }
    // Worker-level instrumentation.
    assert!(histograms.get("observe.shard_ns").is_some());
    assert!(histograms.get("pool.worker_busy_ns").is_some());
    assert!(histograms.get("gen.attacks_per_week").is_some());

    // Per-observatory observation counts, all eleven series.
    for slug in [
        "orion", "ucsd", "netscout_dp", "akamai_dp", "ixp_dp", "hopscotch", "amppot",
        "netscout_ra", "akamai_ra", "ixp_ra", "newkid",
    ] {
        let c = counters
            .get(&format!("observe.count.{slug}"))
            .unwrap_or_else(|| panic!("missing observe.count.{slug}"));
        assert!(uint(c) > 0, "{slug} observed nothing");
    }

    // Pool utilization and generation tallies.
    assert!(uint(counters.get("pool.tasks").unwrap()) > 0);
    assert!(uint(counters.get("gen.attacks").unwrap()) > 1000);
    assert!(uint(counters.get("gen.rng_forks").unwrap()) > 0);
    let imbalance = match gauges.get("pool.imbalance") {
        Some(Value::Float(f)) => *f,
        other => panic!("pool.imbalance missing or not a float: {other:?}"),
    };
    assert!(imbalance >= 1.0, "imbalance ratio {imbalance} below 1");

    // Projection cache counters: trends computes weekly + normalized
    // once per main series; hit counters are registered (zero) even
    // when nothing re-read a projection, so diffs stay schema-stable.
    assert_eq!(uint(counters.get("project.weekly.computed").unwrap()), 10);
    assert_eq!(uint(counters.get("project.normalized.computed").unwrap()), 10);
    for kind in [
        "weekly",
        "normalized",
        "tuples",
        "baseline",
        "membership",
        "attack_rows",
    ] {
        assert!(
            counters.get(&format!("project.{kind}.hit")).is_some(),
            "project.{kind}.hit missing from manifest"
        );
    }
}

#[test]
fn telemetry_env_var_is_honored() {
    let path = manifest_path("env");
    let out = Command::new(env!("CARGO_BIN_EXE_ddoscovery"))
        .args(["trends", "--quick"])
        .env("DDOSCOVERY_TELEMETRY", &path)
        .env("DDOSCOVERY_WORKERS", "3")
        .output()
        .expect("spawn ddoscovery");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("env-var manifest file");
    std::fs::remove_file(&path).ok();
    let v: Value = serde_json::from_str(&text).unwrap();
    // The variable reaches the config, as `--workers 3` does.
    assert_eq!(uint(v.get("run").unwrap().get("workers").unwrap()), 3);
    assert!(v.get("metrics").unwrap().get("counters").unwrap().get("gen.attacks").is_some());
}

#[test]
fn malformed_env_var_is_a_usage_error_naming_it() {
    // The variable goes through the `--workers` parser, so `0` is
    // refused before any work starts, exactly like `--workers 0`.
    let out = Command::new(env!("CARGO_BIN_EXE_ddoscovery"))
        .args(["trends", "--quick"])
        .env("DDOSCOVERY_WORKERS", "0")
        .output()
        .expect("spawn ddoscovery");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no study output on a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DDOSCOVERY_WORKERS"), "stderr: {stderr}");
}
