//! End-to-end CLI flight recorder + run history: `--trace` must write
//! Chrome trace-event JSON with matched spans across distinct worker
//! lanes while leaving stdout byte-identical, and `ddoscovery runs
//! list|show|diff` must read the persistent store back — including the
//! `--gate` regression exit and graceful skipping of corrupt
//! manifests. Each scenario runs the real binary in child processes so
//! every registry and store observation covers exactly the runs it
//! created.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn sandbox(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddoscovery-cli-runs-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create sandbox");
    dir
}

fn ddoscovery(runs_dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ddoscovery"))
        .args(args)
        .arg("--runs-dir")
        .arg(runs_dir)
        .output()
        .expect("spawn ddoscovery")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Stems of the store directory, ordered by the store-wide sequence
/// suffix (`-NNNN`), i.e. in run order.
fn stems(runs_dir: &Path) -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(runs_dir)
        .expect("read store dir")
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_suffix(".json").map(str::to_string)
        })
        .collect();
    stems.sort_by_key(|s| s.rsplit('-').next().and_then(|n| n.parse::<u64>().ok()));
    stems
}

#[test]
fn trace_flag_writes_valid_chrome_json_and_leaves_stdout_untouched() {
    let dir = sandbox("trace");
    let runs_dir = dir.join("runs");
    let trace = dir.join("trace.json");
    let telemetry = dir.join("telemetry.json");

    let traced = ddoscovery(
        &runs_dir,
        &[
            "trends",
            "--quick",
            "--workers",
            "4",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--telemetry",
            telemetry.to_str().expect("utf8 path"),
        ],
    );
    assert!(traced.status.success(), "stderr: {}", stderr(&traced));

    // Side-channel invariant at the process level: the traced run's
    // stdout matches an untraced run of the identical config.
    let plain = ddoscovery(&runs_dir, &["trends", "--quick", "--workers", "4"]);
    assert!(plain.status.success());
    assert_eq!(
        stdout(&traced),
        stdout(&plain),
        "--trace changed the study's stdout"
    );

    // The trace document parses and its spans are well-formed: per
    // lane (tid), every E closes the innermost open B of the same name.
    let text = std::fs::read_to_string(&trace).expect("trace file");
    let doc: Value = serde_json::from_str(&text).expect("trace parses");
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("missing traceEvents array");
    };
    assert!(!events.is_empty(), "empty trace");
    let mut stacks: Vec<(u64, Vec<String>)> = Vec::new();
    let mut shard_lanes: Vec<u64> = Vec::new();
    let mut cache_names: Vec<String> = Vec::new();
    for ev in events {
        let Some(Value::Str(ph)) = ev.get("ph") else { panic!("event without ph") };
        let Some(Value::Str(name)) = ev.get("name") else { panic!("event without name") };
        let tid = match ev.get("tid") {
            Some(Value::UInt(t)) => *t,
            other => panic!("event tid missing or not uint: {other:?}"),
        };
        let stack = match stacks.iter_mut().find(|(lane, _)| *lane == tid) {
            Some((_, s)) => s,
            None => {
                stacks.push((tid, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        match ph.as_str() {
            "B" => {
                if name == "pool.shard" && !shard_lanes.contains(&tid) {
                    shard_lanes.push(tid);
                }
                stack.push(name.clone());
            }
            "E" => assert_eq!(stack.pop().as_deref(), Some(name.as_str()), "mismatched E"),
            "i" => {
                if name.starts_with("cache.") {
                    cache_names.push(name.clone());
                }
            }
            other => panic!("unknown phase {other}"),
        }
    }
    for (lane, stack) in &stacks {
        assert!(stack.is_empty(), "lane {lane} left spans open: {stack:?}");
    }
    assert!(
        shard_lanes.len() >= 2,
        "pool fan-out used {} lane(s), expected distinct worker lanes",
        shard_lanes.len()
    );
    assert!(
        cache_names.iter().any(|n| n.starts_with("cache.plan.")),
        "no stage-cache plan events in {cache_names:?}"
    );

    // Satellite: the projection stage's peak RSS lands in the manifest
    // gauges (procfs-backed, so assert presence only where it exists).
    let manifest: Value =
        serde_json::from_str(&std::fs::read_to_string(&telemetry).expect("manifest"))
            .expect("manifest parses");
    let gauges = manifest.get("metrics").and_then(|m| m.get("gauges")).expect("gauges");
    if cfg!(target_os = "linux") {
        match gauges.get("run.peak_rss.project") {
            Some(Value::Float(bytes)) => assert!(*bytes > 0.0, "project peak RSS not positive"),
            other => panic!("run.peak_rss.project missing or not a float: {other:?}"),
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_accumulates_runs_and_diff_gates_regressions() {
    let dir = sandbox("store");
    let runs_dir = dir.join("runs");
    let telemetry = dir.join("t.json");
    let telemetry = telemetry.to_str().expect("utf8 path");

    // Two identical runs and one with a different seed (the injected
    // regression: every deterministic counter moves with the seed).
    // Two workers, so the wall-clock gauges (`pool.imbalance`,
    // `run.peak_rss*`) move between the identical runs.
    for seed_args in [None, None, Some(["--seed", "99"])] {
        let mut args = vec!["trends", "--quick", "--workers", "2", "--telemetry", telemetry];
        if let Some(extra) = seed_args {
            args.extend(extra);
        }
        let out = ddoscovery(&runs_dir, &args);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
    }

    // Sequence numbering is store-wide: -0001/-0002 share the first
    // config's fingerprint, the reseeded -0003 gets its own stem.
    let stems = stems(&runs_dir);
    assert_eq!(stems.len(), 3, "store holds {stems:?}");
    assert_eq!(stems[0][16..], *"-0001");
    assert_eq!(stems[2][16..], *"-0003");
    let same: Vec<&String> = stems.iter().filter(|s| s[..16] == stems[0][..16]).collect();
    assert_eq!(same.len(), 2, "identical configs share a stem prefix: {stems:?}");
    let reseeded = stems
        .iter()
        .find(|s| s[..16] != stems[0][..16])
        .expect("reseeded run has its own fingerprint");

    // runs list: one row per run.
    let list = ddoscovery(&runs_dir, &["runs", "list"]);
    assert!(list.status.success());
    let table = stdout(&list);
    for stem in &stems {
        assert!(table.contains(stem.as_str()), "list missing {stem}:\n{table}");
    }

    // runs show: the stored manifest verbatim on stdout.
    let show = ddoscovery(&runs_dir, &["runs", "show", &stems[0]]);
    assert!(show.status.success());
    let shown: Value = serde_json::from_str(&stdout(&show)).expect("shown manifest parses");
    assert_eq!(
        shown.get("run").and_then(|r| r.get("scenario")),
        Some(&Value::Str("quick".into()))
    );

    // Identical configs: every counter matches, so a zero gate passes
    // (gauges and span histograms are report-only).
    let ok = ddoscovery(&runs_dir, &["runs", "diff", &stems[0], &stems[1], "--gate", "0"]);
    assert!(
        ok.status.success(),
        "same-config diff breached the gate: {}",
        stderr(&ok)
    );
    assert!(stdout(&ok).contains("== runs diff"), "no diff header:\n{}", stdout(&ok));

    // The injected regression: a reseeded run moves the deterministic
    // counters, so a tight gate must fail the process.
    let bad = ddoscovery(&runs_dir, &["runs", "diff", &stems[0], reseeded, "--gate", "0.01"]);
    assert_eq!(bad.status.code(), Some(1), "gate breach must exit 1");
    let err = stderr(&bad);
    assert!(err.contains("gate breach"), "no breach report:\n{err}");
    assert!(stdout(&bad).contains("!! seeds differ"), "missing seed warning");

    std::fs::remove_dir_all(&dir).ok();
}

/// The member `key` of a JSON object, for editing in place.
fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = v else {
        panic!("no object around `{key}`")
    };
    let field = fields.iter_mut().find(|(k, _)| k == key);
    &mut field.unwrap_or_else(|| panic!("no `{key}`")).1
}

/// A store written by an older build stays readable. That build wrote
/// `run.stages` in `plan`, `attacks`, `observations` order, the metric
/// maps as JSON objects, `"workers": null` for an unpinned pool and a
/// non-finite gauge as `null`. A manifest in that layout, planted next
/// to a fresh run's entry with the same counters, lists, shows and
/// diffs beside it under a zero gate.
#[test]
fn manifests_in_the_older_layout_stay_readable() {
    let dir = sandbox("layout");
    let runs_dir = dir.join("runs");
    let telemetry = dir.join("t.json");
    let telemetry = telemetry.to_str().expect("utf8 path");
    let fresh = ddoscovery(&runs_dir, &["trends", "--quick", "--telemetry", telemetry]);
    assert!(fresh.status.success(), "stderr: {}", stderr(&fresh));
    let fresh_stem = stems(&runs_dir).pop().expect("the fresh run is stored");

    let text = std::fs::read_to_string(telemetry).expect("read manifest");
    let mut doc: Value = serde_json::from_str(&text).expect("manifest parses");
    let run = member(&mut doc, "run");
    *member(run, "workers") = Value::Null;
    let stages = member(run, "stages");
    let older: Vec<(String, Value)> = ["plan", "attacks", "observations"]
        .into_iter()
        .map(|name| {
            let fingerprint = stages.get(name).cloned().expect("stage key");
            (name.to_string(), fingerprint)
        })
        .collect();
    *stages = Value::Object(older);
    let Value::Object(gauges) = member(member(&mut doc, "metrics"), "gauges") else {
        panic!("gauges are an object")
    };
    gauges.first_mut().expect("a quick run records gauges").1 = Value::Null;
    let planted_stem = format!("{}-0002", &fresh_stem[..16]);
    let planted = serde_json::to_string_pretty(&doc).expect("render");
    std::fs::write(runs_dir.join(format!("{planted_stem}.json")), &planted).expect("plant");

    let list = ddoscovery(&runs_dir, &["runs", "list"]);
    assert!(list.status.success(), "stderr: {}", stderr(&list));
    assert!(!stderr(&list).contains("skipping"), "{}", stderr(&list));
    let table = stdout(&list);
    for stem in [&fresh_stem, &planted_stem] {
        assert!(table.contains(stem), "list misses {stem}:\n{table}");
    }

    let show = ddoscovery(&runs_dir, &["runs", "show", &planted_stem]);
    assert!(show.status.success(), "stderr: {}", stderr(&show));
    assert!(stderr(&show).contains(&planted_stem), "{}", stderr(&show));
    let shown: Value = serde_json::from_str(&stdout(&show)).expect("shown manifest parses");
    let original: Value = serde_json::from_str(&text).expect("manifest parses");
    let stages = |v: &Value| v.get("run").and_then(|r| r.get("stages")).cloned();
    assert_eq!(stages(&shown), stages(&original), "stages read back");

    let diff = ddoscovery(
        &runs_dir,
        &["runs", "diff", &planted_stem, &fresh_stem, "--gate", "0"],
    );
    assert!(diff.status.success(), "stderr: {}", stderr(&diff));
    let report = stdout(&diff);
    assert!(
        report.contains(&format!("== runs diff: {planted_stem} -> {fresh_stem} ==")),
        "{report}"
    );
    assert!(!report.contains("stage "), "no stage key moved:\n{report}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_manifests_are_skipped_with_a_warning() {
    let dir = sandbox("corrupt");
    let runs_dir = dir.join("runs");
    std::fs::create_dir_all(&runs_dir).expect("create runs dir");
    std::fs::write(runs_dir.join("deadbeefdeadbeef-0001.json"), "{ not json").expect("write");

    let list = ddoscovery(&runs_dir, &["runs", "list"]);
    assert!(list.status.success(), "corrupt entry must not fail list");
    assert!(
        stderr(&list).contains("skipping corrupt run deadbeefdeadbeef-0001"),
        "no skip warning:\n{}",
        stderr(&list)
    );

    // diff against a corrupt run reports the load error and exits 1 —
    // never a panic.
    let diff = ddoscovery(
        &runs_dir,
        &["runs", "diff", "deadbeefdeadbeef-0001", "deadbeefdeadbeef-0001"],
    );
    assert_eq!(diff.status.code(), Some(1));
    assert!(!stderr(&diff).contains("panicked"), "diff panicked: {}", stderr(&diff));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_run_off_the_paper_record_needs_its_own_out_dir() {
    let dir = sandbox("out");
    let runs_dir = dir.join("runs");
    // Run in the sandbox, so a default `results/` would land there.
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ddoscovery"))
            .current_dir(&dir)
            .args(args)
            .arg("--runs-dir")
            .arg(&runs_dir)
            .output()
            .expect("spawn ddoscovery")
    };

    let refused = run(&["run", "--quick", "table2"]);
    assert_eq!(
        refused.status.code(),
        Some(2),
        "stderr: {}",
        stderr(&refused)
    );
    assert!(
        stderr(&refused).contains("--out"),
        "no --out hint:\n{}",
        stderr(&refused)
    );
    assert!(
        stdout(&refused).is_empty(),
        "the study ran before the refusal"
    );
    assert!(
        !dir.join("results").exists(),
        "a refused run created results/"
    );

    let out = dir.join("quick");
    let out_arg = out.to_str().expect("utf8 path");
    let ran = run(&["run", "--quick", "table2", "--out", out_arg]);
    assert!(ran.status.success(), "stderr: {}", stderr(&ran));
    assert!(out.join("table2_observatories.csv").is_file());
    assert!(
        !dir.join("results").exists(),
        "--out DIR still wrote results/"
    );

    std::fs::remove_dir_all(&dir).ok();
}
