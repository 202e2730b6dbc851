//! 10M-attack scale smoke (DESIGN.md §9, `make scale`): the columnar
//! population must carry a tens-of-millions-attack study through
//! generate → observe → project in release mode on this container.
//!
//! `#[ignore]`d: the run takes on the order of a minute in release and
//! would dominate the tier-1 suite. Run it with
//! `cargo test --release --test scale_smoke -- --ignored`.

use ddoscovery::{ObsId, StudyConfig, StudyRun};

/// Approximate attack volume of `StudyConfig::paper()`.
const PAPER_VOLUME: f64 = 600_000.0;
const TARGET: f64 = 10_000_000.0;

#[test]
#[ignore = "10M-attack release-only smoke; run via `make scale`"]
fn ten_million_attack_pipeline_completes() {
    if cfg!(debug_assertions) {
        // Debug builds are ~20x slower; the smoke is a release gate.
        return;
    }

    let mut cfg = StudyConfig::paper();
    cfg.seed = 0x5CA1_AB1E;
    let scale = TARGET / PAPER_VOLUME;
    cfg.gen.timeline.dp_base_per_week *= scale;
    cfg.gen.timeline.ra_base_per_week *= scale;
    cfg.stage_cache = Some(0);
    cfg.missing_data = false;

    let run = StudyRun::execute(&cfg);

    let n = run.attacks.len();
    assert!(
        (8_000_000..16_000_000).contains(&n),
        "10M-scale config produced {n} attacks"
    );

    // The observe stage must have fed every observatory, and the
    // projections must come back non-degenerate from the same arena.
    for &id in &ObsId::ALL {
        let observed = run.observations(id).len();
        assert!(observed > 0, "{id:?} observed nothing at 10M scale");
        let series = run.weekly_series(id);
        assert!(
            series.values.iter().any(|&v| v > 0.0),
            "{id:?} weekly series is all-zero at 10M scale"
        );
        assert!(
            !run.target_tuples(id).is_empty(),
            "{id:?} produced no target tuples at 10M scale"
        );
    }

    // Per-stage peak-RSS accounting must have populated the manifest
    // gauges for every stage of this run.
    for stage in ["plan", "attacks", "observe"] {
        let bytes = obs::metrics::gauge(&format!("run.peak_rss.{stage}")).get();
        assert!(bytes > 0.0, "run.peak_rss.{stage} gauge not recorded");
    }
}
