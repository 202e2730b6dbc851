//! Persistent stage-store contract (DESIGN.md §11): a fresh process
//! (emulated by clearing the in-memory stage cache) loads every stage
//! from disk instead of recomputing it, loads are integrity-checked —
//! a truncated or bit-flipped cell is rejected, counted, recomputed,
//! and rewritten valid — and the output bytes are identical to a cold
//! run in every case. Corruption can cost time, never correctness.
//!
//! The `stage.*` counters live in the process-global `obs` registry,
//! so every test here serializes on one mutex, measures counter
//! *deltas*, and runs under a test-unique seed and store directory.

mod common;

use attackgen::{AttackId, ObservationColumns};
use common::{golden_cfg, output_fingerprint, spans_closed};
use ddoscovery::diskstore::CELL_HEADER_LEN;
use ddoscovery::stagecache::{Stage, StageCache};
use ddoscovery::{DiskStore, ObsId, StageFingerprints, StudyConfig, StudyRun};
use netmodel::Ipv4;
use obs::manifest::{fnv1a, Fnv};
use simcore::SimTime;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ddoscovery-diskstore-it-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small, fast config writing through a private store directory.
/// Seeds must be unique per test so no stage keys are shared.
fn tiny_cfg(seed: u64, dir: &Path) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.seed = seed;
    cfg.gen.timeline.dp_base_per_week = 20.0;
    cfg.gen.timeline.ra_base_per_week = 30.0;
    cfg.gen.random_campaign_count = 0;
    cfg.gen.campaign_rate_scale = 0.0;
    cfg.missing_data = false;
    cfg.workers = Some(2);
    cfg.stage_cache = Some(64);
    cfg.disk_store = Some(dir.display().to_string());
    cfg
}

/// Snapshot of the cumulative disk-tier and execution counters, summed
/// across the three stages: `[hit, miss, write, reject, computed]`.
fn snap() -> [u64; 5] {
    let total = |kind: &str| {
        ["plan", "attacks", "observations"]
            .iter()
            .map(|stage| obs::metrics::counter(&format!("stage.{stage}.{kind}")).get())
            .sum()
    };
    [
        total("disk_hit"),
        total("disk_miss"),
        total("disk_write"),
        total("disk_reject"),
        total("computed"),
    ]
}

fn delta(before: [u64; 5], after: [u64; 5]) -> [u64; 5] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Every cell file currently in the store, sorted for determinism.
fn cell_files(dir: &Path) -> Vec<PathBuf> {
    let mut cells = Vec::new();
    for stage in ["plan", "attacks", "observations"] {
        let Ok(entries) = fs::read_dir(dir.join(stage)) else { continue };
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with('.') {
                continue;
            }
            cells.push(entry.path());
        }
    }
    cells.sort();
    cells
}

/// A cold run computes and writes 17 cells: plan, attacks, 11
/// observation streams, the raw Netscout alert stream, and the three
/// honeypots' detections the carpet pass reads.
const CELLS_PER_RUN: u64 = 17;

/// A warm process loads 13 of them: every final stream hits, so the
/// detections behind the honeypot streams are never read, and no
/// observer pass runs, so neither is the attack cell.
const CELLS_LOADED_WARM: u64 = 13;

/// `GOLDEN_ATTACKS` of `tests/equivalence_golden.rs`: the wire bytes of
/// `golden_cfg`'s attack population.
const GOLDEN_ATTACKS: u64 = 0x2f34_2458_3560_9a00;

/// The headline guarantee: a second "process" (in-memory cache
/// cleared) serves every stage from disk — zero recomputation,
/// byte-identical output — while a same-process re-run prefers the
/// memory tier and leaves the disk untouched.
#[test]
fn warm_process_loads_every_stage_from_disk() {
    let _guard = serialize();
    let dir = scratch_dir("warm");
    let cfg = tiny_cfg(0xD15C_0001, &dir);

    let before = snap();
    let baseline = output_fingerprint(&StudyRun::execute(&cfg));
    let [hit, miss, write, reject, computed] = delta(before, snap());
    assert_eq!(computed, CELLS_PER_RUN, "cold run computes every stage");
    assert_eq!(write, CELLS_PER_RUN, "every fresh stage is persisted");
    assert_eq!(miss, CELLS_PER_RUN, "every cold load is a clean miss");
    assert_eq!((hit, reject), (0, 0));
    assert_eq!(cell_files(&dir).len() as u64, CELLS_PER_RUN);

    // Fresh process: the memory tier is empty, the disk tier is warm.
    StageCache::global().clear();
    let before = snap();
    let warm = output_fingerprint(&StudyRun::execute(&cfg));
    let [hit, _, write, reject, computed] = delta(before, snap());
    assert!(warm == baseline, "disk-served run diverged from the cold run");
    assert_eq!(computed, 0, "warm process must recompute nothing");
    assert_eq!(hit, CELLS_LOADED_WARM, "every stage must load from disk");
    assert_eq!((write, reject), (0, 0));

    // Same-process re-run: memory first, disk untouched.
    let before = snap();
    let hot = output_fingerprint(&StudyRun::execute(&cfg));
    let [hit, miss, write, reject, computed] = delta(before, snap());
    assert!(hot == baseline);
    assert_eq!(
        [hit, miss, write, reject, computed],
        [0, 0, 0, 0, 0],
        "a memory-warm run must not touch the disk tier at all"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// A warm process reads 13 cells and leaves the attack cell unread:
/// `stage.attacks.{disk_hit,computed}` stay 0 through the execute and
/// every projection, until the first `attacks()` call loads the cell,
/// once, and its rows are the pinned population.
#[test]
fn a_warm_process_loads_the_attack_rows_on_first_read() {
    let _guard = serialize();
    let dir = scratch_dir("lazy-attacks");
    let mut cfg = golden_cfg(64, 2);
    cfg.disk_store = Some(dir.display().to_string());
    let cold = output_fingerprint(&StudyRun::execute(&cfg));

    StageCache::global().clear();
    let attack_cell = || {
        ["disk_hit", "computed"]
            .map(|kind| obs::metrics::counter(&format!("stage.attacks.{kind}")).get())
    };
    let (before, cells) = (attack_cell(), snap());
    let run = StudyRun::execute(&cfg);
    assert!(output_fingerprint(&run) == cold, "the warm run diverged from the cold run");
    assert_eq!(
        delta(cells, snap()),
        [CELLS_LOADED_WARM, 0, 0, 0, 0],
        "hit, miss, write, reject, computed"
    );
    assert_eq!(attack_cell(), before, "the warm execute and its projections read no attack row");

    let rows = fnv1a(&run.attacks().to_wire_bytes());
    let loaded_once = [before[0] + 1, before[1]];
    assert_eq!(attack_cell(), loaded_once, "the first read loads the attack cell");
    assert_eq!(run.attack_rows().len(), run.attacks().len());
    assert_eq!(attack_cell(), loaded_once, "later reads reuse the loaded rows");
    assert_eq!(rows, GOLDEN_ATTACKS, "the loaded rows moved (got {rows:#018x})");

    let _ = fs::remove_dir_all(&dir);
}

/// The attack-row index the experiments join through needs the
/// generated ids to be a permutation of `0..n`: check it for a cold run
/// at 1 and 4 workers and for the warm run that loads that population
/// back from the store.
#[test]
fn attack_ids_are_a_permutation_cold_and_warm() {
    let _guard = serialize();
    let check = |run: &StudyRun, label: &str| {
        let rows = run.attack_rows();
        assert_eq!(rows.len(), run.attacks().len(), "{label}: index length");
        for (row, &id) in run.attacks().id.iter().enumerate() {
            assert_eq!(rows[id as usize] as usize, row, "{label}: id {id}");
        }
    };
    for workers in [1, 4] {
        let dir = scratch_dir(&format!("ids-w{workers}"));
        let mut cfg = tiny_cfg(0xD15C_0005, &dir);
        cfg.workers = Some(workers);
        // Cold: every stage computes; then a fresh process loads all
        // of them back from the store.
        for (label, computed) in [("cold", CELLS_PER_RUN), ("warm", 0)] {
            StageCache::global().clear();
            let before = snap();
            let run = StudyRun::execute(&cfg);
            let label = format!("{label}, {workers} workers");
            assert_eq!(delta(before, snap())[4], computed, "{label}: computed");
            check(&run, &label);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A miss recomputes only what missed: with one Netscout series' cell
/// gone, a fresh process loads the alert stream and splits that one
/// series out of it again; it observes nothing.
#[test]
fn a_lost_netscout_series_is_split_again_not_observed() {
    let _guard = serialize();
    let dir = scratch_dir("split");
    let cfg = tiny_cfg(0xD15C_0006, &dir);
    let streams = |run: &StudyRun| ObsId::ALL.map(|id| run.observations(id).to_wire_bytes());
    let cold = streams(&StudyRun::execute(&cfg));

    let key = StageFingerprints::of(&cfg).observation(ObsId::NetscoutDp);
    fs::remove_file(dir.join("observations").join(format!("{key:016x}")))
        .expect("the netscout_dp cell was written");
    StageCache::global().clear();
    let counts = || {
        [
            StageCache::global().stats(Stage::Observations).computed,
            spans_closed("merge"),
            spans_closed("observe"),
        ]
    };
    let before = counts();
    let warm = streams(&StudyRun::execute(&cfg));
    let after = counts();
    for (id, (warm, cold)) in ObsId::ALL.iter().zip(warm.iter().zip(&cold)) {
        assert!(warm == cold, "{} differs from the cold run", id.slug());
    }
    assert_eq!(
        std::array::from_fn::<u64, 3, _>(|i| after[i] - before[i]),
        [1, 1, 0],
        "stage.observations.computed, merge and observe spans"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// Detections are stored in carpet order under their own kind tag, at
/// the key the raw detections had. A store written by an older build
/// holds an `ObservationColumns` cell there: a new-gap run rejects that
/// cell once, observes its honeypot again, rewrites the cell, and
/// matches a cache-off run byte for byte; the next gap point loads the
/// rewritten cell and only merges.
#[test]
fn an_older_detections_cell_is_rejected_once_and_rewritten() {
    let _guard = serialize();
    let dir = scratch_dir("old-detections");
    let cfg = tiny_cfg(0xD15C_0007, &dir);
    let cold = StudyRun::execute(&cfg);
    let key = StageFingerprints::of(&cfg).detections[0];
    let older: &ObservationColumns = cold.observations(ObsId::HONEYPOTS[0]);
    DiskStore::open(dir.clone()).store(key, older);
    let streams = |run: &StudyRun| ObsId::ALL.map(|id| run.observations(id).to_wire_bytes());

    let mut point = cfg.clone();
    for (step, rejected) in [(1, 1), (2, 0)] {
        point.obs.carpet_gap_secs = cfg.obs.carpet_gap_secs + 600 * step;
        StageCache::global().clear();
        let before = snap();
        let warm = streams(&StudyRun::execute(&point));
        let [hit, miss, write, reject, computed] = delta(before, snap());
        // The rejected detections recompute with the three carpet
        // outputs of the new gap; everything else loads. Observing the
        // honeypot again reads the attack rows: the attack cell loads
        // in place of the rejected one.
        let recomputed = 3 + rejected;
        let attack_cell = rejected;
        assert_eq!(reject, rejected, "gap step {step}: rejects");
        assert_eq!((computed, write), (recomputed, recomputed), "gap step {step}");
        assert_eq!(
            (hit, miss),
            (CELLS_LOADED_WARM - rejected + attack_cell, 3),
            "gap step {step}"
        );

        let mut off = point.clone();
        off.stage_cache = Some(0);
        off.disk_store = None;
        assert!(warm == streams(&StudyRun::execute(&off)), "gap step {step}: diverged");
    }

    let _ = fs::remove_dir_all(&dir);
}

/// FNV-1a over every cell file of a cold `tiny_cfg(0xD15C_0008)` run:
/// each cell's store-relative path and bytes, length-prefixed, in path
/// order. Captured before the lane codecs moved into `netmodel::wire`;
/// a refactor of any cell codec must leave it unedited.
const GOLDEN_CELLS: u64 = 0x6eff_c760_1759_4b39;

/// The cell bytes themselves are pinned, not only their round trip:
/// a codec change that re-encodes a stage differently (even one that
/// still decodes its own output) breaks every store an older build
/// wrote.
#[test]
fn cold_cell_bytes_match_golden() {
    let _guard = serialize();
    let dir = scratch_dir("golden");
    let cfg = tiny_cfg(0xD15C_0008, &dir);
    StudyRun::execute(&cfg);
    let cells = cell_files(&dir);
    assert_eq!(cells.len() as u64, CELLS_PER_RUN);

    let mut h = Fnv::new();
    for path in &cells {
        let rel = path.strip_prefix(&dir).expect("cell under the store");
        let bytes = fs::read(path).expect("read cell");
        let rel = rel.to_string_lossy();
        h.write_u64(rel.len() as u64).write(rel.as_bytes());
        h.write_u64(bytes.len() as u64).write(&bytes);
    }
    let got = h.finish();
    assert_eq!(got, GOLDEN_CELLS, "cold cell bytes diverged from the golden (got {got:#018x})");

    let _ = fs::remove_dir_all(&dir);
}

/// Flip one payload byte in *every* stored cell: every load rejects,
/// the run recomputes everything, emits byte-identical output, and
/// rewrites every cell — so the next fresh process loads clean again.
#[test]
fn corrupted_cells_are_rejected_recomputed_and_rewritten() {
    let _guard = serialize();
    let dir = scratch_dir("flip");
    let cfg = tiny_cfg(0xD15C_0002, &dir);
    let baseline = output_fingerprint(&StudyRun::execute(&cfg));
    let cells = cell_files(&dir);
    assert_eq!(cells.len() as u64, CELLS_PER_RUN);

    for path in &cells {
        let mut bytes = fs::read(path).expect("read cell");
        assert!(bytes.len() > CELL_HEADER_LEN, "cell has a payload");
        let at = CELL_HEADER_LEN + (bytes.len() - CELL_HEADER_LEN) / 2;
        bytes[at] ^= 0x01;
        fs::write(path, bytes).expect("write corrupted cell");
    }

    StageCache::global().clear();
    let before = snap();
    let recovered = output_fingerprint(&StudyRun::execute(&cfg));
    let [hit, _, write, reject, computed] = delta(before, snap());
    assert!(recovered == baseline, "recovery run diverged from the cold run");
    assert_eq!(reject, CELLS_PER_RUN, "every corrupted cell must be rejected");
    assert_eq!(computed, CELLS_PER_RUN, "every stage must recompute");
    assert_eq!(write, CELLS_PER_RUN, "every rejected cell must be rewritten");
    assert_eq!(hit, 0);

    // The rewritten store is clean: a fresh process loads all 13
    // cells it reads.
    StageCache::global().clear();
    let before = snap();
    let reloaded = output_fingerprint(&StudyRun::execute(&cfg));
    let [hit, _, _, reject, computed] = delta(before, snap());
    assert!(reloaded == baseline);
    assert_eq!((computed, reject), (0, 0), "rewritten cells must load cleanly");
    assert_eq!(hit, CELLS_LOADED_WARM);

    let _ = fs::remove_dir_all(&dir);
}

/// Truncate the plan cell at every header boundary (and mid-payload):
/// each load rejects, the plan recomputes, the output stays identical,
/// and the rewritten cell is byte-for-byte the original — stage
/// serialization is deterministic, so recompute-and-rewrite converges.
#[test]
fn truncation_at_every_header_boundary_is_rejected() {
    let _guard = serialize();
    let dir = scratch_dir("trunc");
    let cfg = tiny_cfg(0xD15C_0003, &dir);
    let baseline = output_fingerprint(&StudyRun::execute(&cfg));

    let plan_cells = cell_files(&dir)
        .into_iter()
        .filter(|p| p.parent().and_then(|d| d.file_name()) == Some("plan".as_ref()))
        .collect::<Vec<_>>();
    let [plan_cell] = plan_cells.as_slice() else {
        panic!("expected exactly one plan cell, got {plan_cells:?}")
    };
    let original = fs::read(plan_cell).expect("read plan cell");
    assert!(original.len() > CELL_HEADER_LEN);

    // Header layout: magic 0..4, version 4..6, kind 6, length 7..15,
    // checksum 15..23, payload after. Cut at the start, inside and at
    // the end of every field, plus one mid-payload cut.
    let cuts = [0, 2, 4, 5, 6, 7, 11, 15, 19, CELL_HEADER_LEN, original.len() - 1];
    for cut in cuts {
        fs::write(plan_cell, &original[..cut]).expect("truncate cell");
        StageCache::global().clear();
        let before = snap();
        let out = output_fingerprint(&StudyRun::execute(&cfg));
        let [_, _, write, reject, computed] = delta(before, snap());
        assert!(out == baseline, "cut at {cut}: output diverged");
        assert_eq!(reject, 1, "cut at {cut}: the plan load must reject");
        assert_eq!(computed, 1, "cut at {cut}: only the plan recomputes");
        assert_eq!(write, 1, "cut at {cut}: the plan cell must be rewritten");
        let rewritten = fs::read(plan_cell).expect("read rewritten cell");
        assert_eq!(rewritten, original, "cut at {cut}: rewrite must converge");
    }

    let _ = fs::remove_dir_all(&dir);
}

/// Concurrent publishes of one cell inside one process — what two
/// identical sweeps against one `--store` do. Every writer gets its own
/// temporary sibling, so no writer truncates a file another has just
/// renamed into place or loses its own rename: every publish lands and
/// is counted, the cell loads intact, and no temporary is left behind.
#[test]
fn concurrent_same_key_publishes_all_land() {
    const THREADS: u64 = 8;
    const PUBLISHES: u64 = 20;
    let _guard = serialize();
    let dir = scratch_dir("same-key");
    let store = DiskStore::open(dir.clone());
    let mut cell = ObservationColumns::new();
    for i in 0..20_000u32 {
        cell.push_row(AttackId(u64::from(i)), SimTime(i64::from(i)), &[Ipv4(i)]);
    }
    let key = 0xD15C_0004;
    let writes = obs::metrics::counter("stage.observations.disk_write");
    let before = writes.get();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PUBLISHES {
                    store.store(key, &cell);
                }
            });
        }
    });
    assert_eq!(
        writes.get() - before,
        THREADS * PUBLISHES,
        "every publish must land and be counted"
    );
    let loaded = store.load::<ObservationColumns>(key).expect("the published cell loads");
    assert!(loaded.to_wire_bytes() == cell.to_wire_bytes(), "the published cell is intact");
    let leftovers: Vec<String> = fs::read_dir(dir.join("observations"))
        .expect("stage directory")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "temporaries left behind: {leftovers:?}");

    let _ = fs::remove_dir_all(&dir);
}
