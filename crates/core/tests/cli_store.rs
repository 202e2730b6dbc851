//! End-to-end acceptance for `--store` (ISSUE 8): a second CLI
//! invocation against a warm store recomputes nothing and prints
//! byte-identical stdout; with every cell corrupted it still exits 0
//! with identical output while counting the rejects; and the `store
//! list` / `store gc` subcommands inspect and bound the directory.
//! Each invocation is a real child process, so this exercises the
//! actual cross-process path the store exists for.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddoscovery-cli-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_cli(args: &[&str], store: &Path, telemetry: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ddoscovery"));
    cmd.args(args).arg("--store").arg(store).env("DDOSCOVERY_LOG", "error");
    if let Some(path) = telemetry {
        cmd.arg("--telemetry").arg(path);
    }
    cmd.output().expect("spawn ddoscovery")
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::UInt(n) => *n,
        Value::Int(n) => *n as u64,
        other => panic!("expected integer, got {other:?}"),
    }
}

fn counters(manifest: &Value) -> &Value {
    manifest.get("metrics").unwrap().get("counters").unwrap()
}

/// Sum a `stage.<stage>.<kind>` counter family from a telemetry
/// manifest; absent counters (never registered) read as zero.
fn stage_total(manifest: &Value, kind: &str) -> u64 {
    ["plan", "attacks", "observations"]
        .iter()
        .filter_map(|stage| counters(manifest).get(&format!("stage.{stage}.{kind}")))
        .map(uint)
        .sum()
}

fn read_manifest(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("manifest file");
    std::fs::remove_file(path).ok();
    serde_json::from_str(&text).expect("manifest parses")
}

fn cell_files(store: &Path) -> Vec<PathBuf> {
    let mut cells = Vec::new();
    for stage in ["plan", "attacks", "observations"] {
        let Ok(entries) = std::fs::read_dir(store.join(stage)) else { continue };
        for entry in entries.flatten() {
            if !entry.file_name().to_string_lossy().starts_with('.') {
                cells.push(entry.path());
            }
        }
    }
    cells.sort();
    cells
}

#[test]
fn warm_invocation_recomputes_nothing_and_matches_cold_stdout() {
    let store = scratch("warm");
    let trends = ["trends", "--quick", "--workers", "2"];

    let m1 = std::env::temp_dir().join(format!("ddoscovery-cli-store-m1-{}.json", std::process::id()));
    let cold = run_cli(&trends, &store, Some(&m1));
    assert!(cold.status.success(), "cold run failed: {}", String::from_utf8_lossy(&cold.stderr));
    let cold_manifest = read_manifest(&m1);
    // 14 stage outputs plus the 3 honeypot detections.
    assert!(stage_total(&cold_manifest, "computed") >= 17, "cold run computes every stage");
    assert!(stage_total(&cold_manifest, "disk_write") >= 17, "cold run persists every stage");
    assert_eq!(cell_files(&store).len(), 17, "one cell per stage output");

    // Second process: zero plan/attack/observation recomputation,
    // byte-identical stdout. Every final stream loads, so the
    // detections behind the honeypot streams stay unread, and so does
    // the attack cell: no observer pass runs, and `trends` reads no
    // attack row.
    let m2 = std::env::temp_dir().join(format!("ddoscovery-cli-store-m2-{}.json", std::process::id()));
    let warm = run_cli(&trends, &store, Some(&m2));
    assert!(warm.status.success(), "warm run failed: {}", String::from_utf8_lossy(&warm.stderr));
    assert_eq!(warm.stdout, cold.stdout, "warm stdout diverged from cold stdout");
    let warm_manifest = read_manifest(&m2);
    assert_eq!(stage_total(&warm_manifest, "computed"), 0, "warm run must recompute nothing");
    assert_eq!(
        stage_total(&warm_manifest, "disk_hit"),
        13,
        "warm run must load the 13 cells it reads"
    );
    assert_eq!(stage_total(&warm_manifest, "disk_reject"), 0);
    // Per stage: the plan cell and the 12 final observation cells
    // load, the attack cell is not read, and the plan is never rebuilt.
    for (name, want) in [
        ("stage.plan.disk_hit", 1),
        ("stage.attacks.disk_hit", 0),
        ("stage.observations.disk_hit", 12),
        ("stage.plan.computed", 0),
    ] {
        let got = counters(&warm_manifest).get(name).map(uint);
        assert_eq!(got, Some(want), "warm run: {name}");
    }

    // Corrupt every cell: the run degrades to a recompute, not a
    // failure — exit 0, identical bytes, every reject counted.
    for path in cell_files(&store) {
        let mut bytes = std::fs::read(&path).expect("read cell");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).expect("corrupt cell");
    }
    let m3 = std::env::temp_dir().join(format!("ddoscovery-cli-store-m3-{}.json", std::process::id()));
    let hurt = run_cli(&trends, &store, Some(&m3));
    assert!(hurt.status.success(), "corrupted store must not fail the run");
    assert_eq!(hurt.stdout, cold.stdout, "recovery stdout diverged from cold stdout");
    let hurt_manifest = read_manifest(&m3);
    assert_eq!(stage_total(&hurt_manifest, "disk_reject"), 17, "every corrupt cell rejects");
    assert_eq!(stage_total(&hurt_manifest, "computed"), stage_total(&cold_manifest, "computed"));

    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn store_subcommand_lists_and_collects_garbage() {
    let store = scratch("gc");
    let seeded = run_cli(&["trends", "--quick", "--workers", "2"], &store, None);
    assert!(seeded.status.success());

    let list = run_cli(&["store", "list"], &store, None);
    assert!(list.status.success(), "store list failed: {}", String::from_utf8_lossy(&list.stderr));
    let listing = String::from_utf8(list.stdout).unwrap();
    for stage in ["plan", "attacks", "observations"] {
        assert!(listing.contains(stage), "listing missing stage {stage}:\n{listing}");
    }
    assert!(listing.contains("total 17 cell(s)"), "listing missing totals:\n{listing}");

    // gc to zero bytes evicts everything; a fresh list reports empty.
    let gc = run_cli(&["store", "gc", "--max-bytes", "0"], &store, None);
    assert!(gc.status.success(), "store gc failed: {}", String::from_utf8_lossy(&gc.stderr));
    let report = String::from_utf8(gc.stdout).unwrap();
    assert!(report.contains("removed 17 cell(s)"), "gc report wrong:\n{report}");
    assert!(cell_files(&store).is_empty(), "gc left cells behind");

    let relist = run_cli(&["store", "list"], &store, None);
    assert!(relist.status.success());

    // gc without a bound is a usage error, not a silent wipe.
    let bare = run_cli(&["store", "gc"], &store, None);
    assert_eq!(bare.status.code(), Some(2), "gc without --max-bytes must be a usage error");

    let _ = std::fs::remove_dir_all(&store);
}
