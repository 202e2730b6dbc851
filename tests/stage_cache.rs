//! Cross-run stage-cache contract (DESIGN.md §7): sweeps and repeated
//! executions reuse exactly the stages whose fingerprinted inputs are
//! unchanged, eviction is bounded, and — the non-negotiable invariant —
//! cached output is byte-identical to recomputed output at any worker
//! count.
//!
//! The `stage.*` counters live in the process-global `obs` registry, so
//! every test here serializes on one mutex, measures counter *deltas*,
//! and runs under a test-unique seed (a seed change re-keys every
//! stage, so no entries are shared across tests).

mod common;

use common::output_fingerprint;
use ddoscovery::stagecache::{Stage, StageCache, StageStats};
use ddoscovery::sweep::sweep;
use ddoscovery::{ObsId, StudyConfig, StudyRun};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn snap() -> [StageStats; 3] {
    let cache = StageCache::global();
    [
        cache.stats(Stage::Plan),
        cache.stats(Stage::Attacks),
        cache.stats(Stage::Observations),
    ]
}

/// Per-stage counter movement between two snapshots.
fn delta(before: [StageStats; 3], after: [StageStats; 3]) -> [StageStats; 3] {
    std::array::from_fn(|i| StageStats {
        hit: after[i].hit - before[i].hit,
        computed: after[i].computed - before[i].computed,
        evicted: after[i].evicted - before[i].evicted,
    })
}

/// A small, fast base config under a caller-chosen seed. Seeds must be
/// unique per test (see module docs).
fn tiny_cfg(seed: u64) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.seed = seed;
    cfg.gen.timeline.dp_base_per_week = 20.0;
    cfg.gen.timeline.ra_base_per_week = 30.0;
    cfg.gen.random_campaign_count = 0;
    cfg.gen.campaign_rate_scale = 0.0;
    cfg.missing_data = false;
    cfg.workers = Some(2);
    cfg.stage_cache = Some(64);
    cfg
}

/// The headline reuse guarantee: an observation-parameter sweep of G
/// grid points performs exactly one plan build and one attack
/// generation — generation is skipped entirely at every warm point —
/// and a carpet-gap point reruns only the three carpet passes.
#[test]
fn observation_sweep_generates_attacks_exactly_once() {
    let _guard = serialize();
    let base = tiny_cfg(0xA11C_E001);
    // Prime the base study: concurrent cold points could each compute
    // the streams they share, so only a primed grid pins its counts.
    let before = snap();
    let _ = StudyRun::execute(&base);
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!((plan.computed, attacks.computed, observations.computed), (1, 1, 15));

    let before = snap();
    let report = sweep(
        &base,
        &[1800.0, 5400.0, 7200.0],
        &[ObsId::Hopscotch, ObsId::AmpPot],
        |cfg, v| cfg.obs.carpet_gap_secs = v as u32,
    )
    .expect("base config is valid");
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!(report.outcomes.len(), 6);
    assert!(report.skipped.is_empty());
    assert_eq!(plan.computed, 0, "a primed grid must never rebuild the plan");
    assert_eq!(attacks.computed, 0, "a primed grid must never regenerate attacks");
    // No point runs an observer pass, so none reads the attack rows.
    assert_eq!((plan.hit, attacks.hit), (3, 0));
    // Each point computes its three carpet outputs and hits the other
    // 12 outputs: 8 series, the raw alert stream and the 3 honeypots'
    // detections.
    assert_eq!(observations.computed, 3 * 3);
    assert_eq!(observations.hit, 3 * 12);

    // A cold sweep writing through a fresh disk store, under its own
    // seed: only the point that computes a shared stage writes its
    // cell, so the plan and attack cells are written exactly once
    // however the points race. The observation outputs the points
    // share are not coalesced, so a racing point may compute one again;
    // every compute still writes exactly one cell, and the store ends
    // with one cell per distinct output. (A waiting point may load the
    // cell the computing point has just written, so hit + computed is
    // not pinned here.)
    let dir = std::env::temp_dir().join(format!(
        "ddoscovery-stage-cache-write-through-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut base = tiny_cfg(0xA11C_E006);
    base.disk_store = Some(dir.display().to_string());
    let disk_writes = || {
        ["plan", "attacks", "observations"]
            .map(|stage| obs::metrics::counter(&format!("stage.{stage}.disk_write")).get())
    };
    let (before, writes_before) = (snap(), disk_writes());
    sweep(
        &base,
        &[1800.0, 5400.0, 7200.0],
        &[ObsId::Hopscotch, ObsId::AmpPot],
        |cfg, v| cfg.obs.carpet_gap_secs = v as u32,
    )
    .expect("base config is valid");
    let [plan, attacks, observations] = delta(before, snap());
    let writes_after = disk_writes();
    let [plan_writes, attack_writes, observation_writes]: [u64; 3] =
        std::array::from_fn(|i| writes_after[i] - writes_before[i]);
    assert_eq!((plan.computed, attacks.computed), (1, 1));
    assert_eq!(
        (plan_writes, attack_writes),
        (1, 1),
        "a shared stage is written through once, by the point that computed it"
    );
    assert_eq!(observation_writes, observations.computed);
    // 12 shared outputs plus 3 carpet outputs per point.
    let cells = std::fs::read_dir(dir.join("observations"))
        .expect("observation cells")
        .flatten()
        .filter(|e| !e.file_name().to_string_lossy().starts_with('.'))
        .count();
    assert_eq!(cells, 12 + 3 * 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A generation-side sweep reuses the plan at every grid point.
#[test]
fn generation_sweep_builds_plan_exactly_once() {
    let _guard = serialize();
    let base = tiny_cfg(0xA11C_E002);
    let before = snap();
    let report = sweep(&base, &[0.0, 0.3, 0.6], &[ObsId::AmpPot], |cfg, v| {
        cfg.gen.timeline.sav_reduction = v;
    })
    .expect("base config is valid");
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!(report.outcomes.len(), 3);
    assert_eq!(plan.computed, 1, "plan must be built exactly once across the grid");
    assert_eq!(plan.hit + plan.computed, 3);
    // Every point's generator inputs differ, so no attack reuse …
    assert_eq!(attacks.computed, 3);
    assert_eq!(attacks.hit, 0);
    // … and downstream observation outputs are all fresh too (12
    // streams and 3 detections each).
    assert_eq!(observations.computed, 3 * 15);
    assert_eq!(observations.hit, 0);
}

/// Changing any single classified field misses exactly the stages that
/// field feeds — and an unchanged re-run misses nothing.
#[test]
fn single_field_changes_invalidate_their_stage_only() {
    let _guard = serialize();
    let cfg = tiny_cfg(0xA11C_E003);

    let before = snap();
    let _ = StudyRun::execute(&cfg);
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!((plan.computed, attacks.computed, observations.computed), (1, 1, 15));

    // Identical config: every stage it reads is a hit. Every
    // observation output hits, so no observer pass runs and the attack
    // rows are not read (`attacks.hit` 0).
    let before = snap();
    let _ = StudyRun::execute(&cfg);
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!((plan.computed, attacks.computed, observations.computed), (0, 0, 0));
    assert_eq!((plan.hit, attacks.hit, observations.hit), (1, 0, 12));

    // A plan-class field (`net`) recomputes everything.
    let mut poked = cfg.clone();
    poked.net.reflector_pool_total += 1;
    let before = snap();
    let _ = StudyRun::execute(&poked);
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!((plan.computed, attacks.computed, observations.computed), (1, 1, 15));

    // An attacks-class field (`gen`) reuses the plan.
    let mut poked = cfg.clone();
    poked.gen.timeline.noise_sigma += 0.01;
    let before = snap();
    let _ = StudyRun::execute(&poked);
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!((plan.computed, plan.hit), (0, 1));
    assert_eq!((plan.computed, attacks.computed, observations.computed), (0, 1, 15));

    // An observation-class field (`obs`) reuses plan and attacks, and
    // the gap re-keys only the three carpet outputs: the 8 other series,
    // the alert stream and the 3 detections hit. The carpet merges read
    // the detections, not the attack rows.
    let mut poked = cfg.clone();
    poked.obs.carpet_gap_secs += 60;
    let before = snap();
    let _ = StudyRun::execute(&poked);
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!((plan.hit, attacks.hit, observations.hit), (1, 0, 12));
    assert_eq!((plan.computed, attacks.computed, observations.computed), (0, 0, 3));

    // Execution-class fields (`workers`, `stage_cache` bound) change no
    // fingerprint: full hit, byte-identical output.
    let mut poked = cfg.clone();
    poked.workers = Some(3);
    poked.stage_cache = Some(32);
    let before = snap();
    let _ = StudyRun::execute(&poked);
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!((plan.computed, attacks.computed, observations.computed), (0, 0, 0));
    assert_eq!((plan.hit, attacks.hit, observations.hit), (1, 0, 12));
}

/// A tiny bound evicts (one full run needs 17 entries) but never
/// corrupts: the re-run under the same tiny bound recomputes evicted
/// stages and reproduces the exact same bytes.
#[test]
fn tiny_bound_evicts_without_changing_output() {
    let _guard = serialize();
    let mut cfg = tiny_cfg(0xA11C_E004);
    cfg.workers = Some(1);
    cfg.stage_cache = Some(2);
    let before = snap();
    let a = output_fingerprint(&StudyRun::execute(&cfg));
    let [plan, attacks, observations] = delta(before, snap());
    assert_eq!((plan.computed, attacks.computed, observations.computed), (1, 1, 15));
    let evictions = plan.evicted + attacks.evicted + observations.evicted;
    assert!(
        evictions >= 15,
        "a 17-entry run at bound 2 must evict (saw {evictions})"
    );
    let b = output_fingerprint(&StudyRun::execute(&cfg));
    assert!(a == b, "post-eviction re-run diverged");
}

/// The non-negotiable invariant: cache on vs off, across worker counts,
/// is byte-for-byte identical — including warm runs served entirely
/// from cache.
#[test]
fn cache_on_off_and_worker_counts_are_byte_identical() {
    let _guard = serialize();
    let mut off = tiny_cfg(0xA11C_E005);
    off.stage_cache = Some(0);
    off.workers = Some(1);
    let baseline = output_fingerprint(&StudyRun::execute(&off));
    assert!(!baseline.is_empty());

    for workers in [1, 3] {
        let mut on = tiny_cfg(0xA11C_E005);
        on.workers = Some(workers);
        let cold = output_fingerprint(&StudyRun::execute(&on));
        assert!(
            cold == baseline,
            "cache-on output diverged from cache-off at {workers} workers"
        );
        let before = snap();
        let warm = output_fingerprint(&StudyRun::execute(&on));
        let [plan, attacks, observations] = delta(before, snap());
        assert!(warm == baseline, "warm output diverged at {workers} workers");
        assert_eq!(
            (plan.computed, attacks.computed, observations.computed),
            (0, 0, 0),
            "warm run must be served entirely from cache"
        );
    }

    // Cache off at a second worker count, for symmetry.
    off.workers = Some(3);
    assert!(output_fingerprint(&StudyRun::execute(&off)) == baseline);
}
