//! The telemetry layer's non-negotiable invariant: metrics, spans, and
//! manifests are a pure side channel. Study output must be
//! byte-identical at any worker count and with tracing armed or not.

use ddoscovery::{ObsId, StudyConfig, StudyRun};

/// Every projection the paper consumes, flattened to bytes: all eleven
/// weekly series (raw and normalized, NaN masks included via bit
/// patterns), all eleven target-tuple sets, and the §7.2 baseline
/// samples.
fn output_fingerprint(run: &StudyRun) -> Vec<u8> {
    let mut out = Vec::new();
    for id in ObsId::ALL {
        out.extend(id.slug().as_bytes());
        let weekly = run.weekly_series(id);
        out.extend(weekly.name.as_bytes());
        for v in &weekly.values {
            out.extend(v.to_bits().to_le_bytes());
        }
        for v in &run.normalized_series(id).values {
            out.extend(v.to_bits().to_le_bytes());
        }
        for &(day, ip) in run.target_tuples(id) {
            out.extend(day.to_le_bytes());
            out.extend(ip.0.to_le_bytes());
        }
    }
    for &(day, ip) in run.netscout_baseline_tuples() {
        out.extend(day.to_le_bytes());
        out.extend(ip.0.to_le_bytes());
    }
    for (day, ip) in run.akamai_tuples() {
        out.extend(day.to_le_bytes());
        out.extend(ip.0.to_le_bytes());
    }
    out
}

#[test]
fn output_is_byte_identical_across_worker_counts() {
    let mut cfg = StudyConfig::quick();
    cfg.workers = Some(1);
    // Bypass the stage cache: this test must compare actual
    // recomputations (cache-on/off equivalence has its own invariant
    // test in tests/stage_cache.rs).
    cfg.stage_cache = Some(0);

    let baseline = output_fingerprint(&StudyRun::execute(&cfg));
    assert!(!baseline.is_empty());

    for workers in [2, 5] {
        cfg.workers = Some(workers);
        let par = output_fingerprint(&StudyRun::execute(&cfg));
        assert!(par == baseline, "output diverged at {workers} workers");
    }
}

#[test]
fn output_is_byte_identical_with_tracing_armed() {
    // The flight recorder (obs::trace) extends the side-channel
    // contract: arming it must not perturb a single output byte, at
    // any worker count, and disarming must return to the same bytes.
    let mut cfg = StudyConfig::quick();
    cfg.workers = Some(1);
    cfg.stage_cache = Some(0);
    let baseline = output_fingerprint(&StudyRun::execute(&cfg));

    for workers in [1usize, 4, 8] {
        cfg.workers = Some(workers);
        obs::trace::enable(obs::trace::DEFAULT_LANE_CAPACITY);
        let traced = output_fingerprint(&StudyRun::execute(&cfg));
        let recorded: usize = obs::trace::snapshot().iter().map(|(_, evs)| evs.len()).sum();
        obs::trace::disable();
        obs::trace::clear();
        assert!(
            traced == baseline,
            "tracing changed study output at {workers} workers"
        );
        assert!(
            recorded > 0,
            "armed recorder captured nothing at {workers} workers"
        );
        let untraced = output_fingerprint(&StudyRun::execute(&cfg));
        assert!(
            untraced == baseline,
            "output diverged after disarming tracing at {workers} workers"
        );
    }
}

#[test]
fn run_populates_registry_counters() {
    // Executing a study must leave per-observatory counts and
    // generation tallies in the global registry (cumulative across the
    // process, so only lower bounds are asserted here; exact per-run
    // values are covered by the CLI manifest test in its own process).
    let mut cfg = StudyConfig::quick();
    // A stage-cache hit would (correctly) skip generation; this test is
    // about the generation-side counters, so force a real run.
    cfg.stage_cache = Some(0);
    let before = obs::metrics::counter("gen.attacks").get();
    let run = StudyRun::execute(&cfg);
    let after = obs::metrics::counter("gen.attacks").get();
    assert!(
        after >= before + run.attacks().len() as u64,
        "gen.attacks did not advance by the generated volume"
    );
    for id in ObsId::ALL {
        let c = obs::metrics::counter(&format!("observe.count.{}", id.slug()));
        assert!(
            c.get() >= run.observations(id).len() as u64,
            "observe.count.{} below this run's stream length",
            id.slug()
        );
    }
}

#[test]
fn projection_cache_hits_feed_the_registry() {
    let hits = obs::metrics::counter("project.weekly.hit");
    let run = StudyRun::execute(&StudyConfig::quick());
    let _ = run.weekly_series(ObsId::Ucsd);
    let before = hits.get();
    let _ = run.weekly_series(ObsId::Ucsd);
    let _ = run.weekly_series(ObsId::Ucsd);
    assert!(
        hits.get() >= before + 2,
        "memoized re-reads must count as registry cache hits"
    );
    // The per-run view stays in step: one compute, however many reads.
    assert_eq!(run.projection_stats().weekly_computed, 1);
}
