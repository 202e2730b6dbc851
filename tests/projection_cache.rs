//! Memoization contract of the study projections: every experiment in
//! the suite reads the same handful of weekly / normalized / tuple
//! projections, the academic membership column and the attack-row
//! index, and the run must compute each of them at most once no matter
//! how many experiments (or repeat renders) consume them.

use ddoscovery::{run_all, ObsId, StudyConfig, StudyRun};

fn tiny_cfg() -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.gen.timeline.dp_base_per_week = 20.0;
    cfg.gen.timeline.ra_base_per_week = 30.0;
    cfg.gen.random_campaign_count = 2;
    cfg
}

#[test]
fn run_all_computes_each_projection_at_most_once() {
    let run = StudyRun::execute(&tiny_cfg());
    assert_eq!(run.projection_stats().weekly_computed, 0, "projections must be lazy");

    let first = run_all(&run);
    assert!(!first.is_empty());
    let stats = run.projection_stats();
    // Eleven series exist; run_all touches overlapping subsets from
    // many experiments, but each projection may be computed only once.
    assert!(
        stats.weekly_computed <= ObsId::ALL.len(),
        "weekly series recomputed: {} computations for {} series",
        stats.weekly_computed,
        ObsId::ALL.len()
    );
    assert!(
        stats.normalized_computed <= ObsId::ALL.len(),
        "normalized series recomputed: {}",
        stats.normalized_computed
    );
    assert!(
        stats.tuples_computed <= ObsId::ALL.len(),
        "target tuples recomputed: {}",
        stats.tuples_computed
    );
    assert!(
        stats.baseline_computed <= 1,
        "netscout baseline recomputed: {}",
        stats.baseline_computed
    );
    assert!(
        stats.membership_computed <= 1,
        "academic membership column recomputed: {}",
        stats.membership_computed
    );
    assert!(
        stats.attack_rows_computed <= 1,
        "attack-row index recomputed: {}",
        stats.attack_rows_computed
    );

    // A second full pass must be served entirely from the cache.
    let second = run_all(&run);
    assert_eq!(first.len(), second.len());
    assert_eq!(run.projection_stats(), stats, "second run_all recomputed projections");
}

#[test]
fn cached_projections_are_stable() {
    let run = StudyRun::execute(&tiny_cfg());
    for id in ObsId::ALL {
        let a = run.weekly_series(id).values.clone();
        let b = run.weekly_series(id).values.clone();
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // The memoized slices are the same allocation, not equal copies.
        assert!(std::ptr::eq(run.weekly_series(id), run.weekly_series(id)));
        assert!(std::ptr::eq(run.target_tuples(id), run.target_tuples(id)));
    }
    assert!(std::ptr::eq(
        run.netscout_baseline_tuples(),
        run.netscout_baseline_tuples()
    ));
    assert!(std::ptr::eq(
        run.academic_membership(),
        run.academic_membership()
    ));
    assert!(std::ptr::eq(run.attack_rows(), run.attack_rows()));
}
