//! Robustness / failure-injection tests: degenerate configurations and
//! hostile inputs must degrade gracefully, never panic, and keep the
//! analytics well-defined.

use analytics::{correlation_matrix, upset, Method, WeeklySeries};
use ddoscovery::{all_ids, run_experiment, ObsId, StudyConfig, StudyRun};

/// A configuration with (almost) no attacks: sparse observatories,
/// all-zero weeks, empty target sets.
fn starved_config() -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.seed = 777;
    cfg.gen.timeline.dp_base_per_week = 0.3;
    cfg.gen.timeline.ra_base_per_week = 0.3;
    cfg.gen.random_campaign_count = 0;
    cfg.gen.campaign_rate_scale = 0.0;
    cfg
}

#[test]
fn starved_study_runs_every_experiment() {
    let run = StudyRun::execute(&starved_config());
    assert!(run.attacks().len() < 2000, "starved run too big");
    for id in all_ids() {
        let r = run_experiment(&run, id)
            .unwrap_or_else(|| panic!("{id} missing from registry"));
        assert!(!r.body.is_empty(), "{id} empty body on starved data");
        for (_, csv) in &r.csv {
            assert!(csv.lines().next().is_some());
        }
    }
}

#[test]
fn starved_series_stay_finite_after_normalization() {
    let run = StudyRun::execute(&starved_config());
    for id in ObsId::MAIN_TEN {
        let s = run.normalized_series(id);
        for (w, v) in s.present() {
            assert!(
                v.is_finite() && v >= 0.0,
                "{} week {w}: {v}",
                id.name()
            );
        }
    }
}

#[test]
fn missing_data_mask_does_not_break_statistics() {
    let mut cfg = StudyConfig::quick();
    cfg.seed = 778;
    cfg.missing_data = true;
    let run = StudyRun::execute(&cfg);
    // ORION has a two-quarter hole; correlations must still compute
    // against every other series using pairwise-complete data.
    let series = run.all_ten_normalized();
    let m = correlation_matrix(&series, Method::Spearman);
    let orion_row = 0;
    for (j, other) in series.iter().enumerate().skip(1) {
        let c = m
            .get(orion_row, j)
            .unwrap_or_else(|| panic!("ORION vs {} missing", other.name));
        assert!(c.n > 150, "pairwise n too small: {}", c.n);
        assert!(c.rho.is_finite());
    }
    // Trend classification over the gap works too.
    let _ = run.normalized_series(ObsId::Orion).trend();
}

#[test]
fn all_nan_series_is_handled() {
    let s = WeeklySeries::new("void", vec![f64::NAN; 235]);
    assert!(s.linear_regression().is_none());
    assert_eq!(s.trend(), analytics::Trend::Steady);
    let e = s.ewma(12);
    assert!(e.values.iter().all(|v| v.is_nan()));
    // Normalization of an all-NaN series must not panic; the fallback
    // produces NaN values, which downstream statistics skip.
    let n = s.normalize_to_baseline();
    assert_eq!(n.len(), 235);
}

#[test]
fn upset_with_disjoint_and_duplicate_sets() {
    use netmodel::Ipv4;
    // Disjoint sets: every mask has one bit.
    let u = upset(&[
        ("a".into(), vec![(0, Ipv4(1))]),
        ("b".into(), vec![(0, Ipv4(2))]),
    ]);
    assert_eq!(u.at_least(0b11), 0);
    assert_eq!(u.total_distinct, 2);
    // A set listed against itself (duplicate content).
    let same = vec![(0, Ipv4(9)), (1, Ipv4(9))];
    let u = upset(&[("x".into(), same.clone()), ("y".into(), same)]);
    assert_eq!(u.at_least(0b11), 2);
    assert_eq!(u.exclusive.get(&0b01), None);
}

#[test]
fn extreme_seed_values_work() {
    for seed in [0u64, 1, u64::MAX] {
        let mut cfg = starved_config();
        cfg.seed = seed;
        let run = StudyRun::execute(&cfg);
        // Sanity rather than shape: the pipeline completes and counts
        // are consistent.
        for id in ObsId::MAIN_TEN {
            let total: f64 = run
                .weekly_series(id)
                .present()
                .map(|(_, v)| v)
                .sum();
            assert!(total as usize <= run.attacks().len() * 2);
        }
    }
}

#[test]
fn detector_tolerates_out_of_order_packets_within_interval() {
    // Corsaro processes packets roughly in order; small reordering
    // (within the expiry interval) must not panic or corrupt flows.
    use attackgen::PacketEvent;
    use netmodel::{Ipv4, Transport};
    use simcore::SimTime;
    use telescope::{RsdosConfig, RsdosDetector};
    let mut det = RsdosDetector::new(RsdosConfig::default());
    let mut times: Vec<i64> = (0..200).collect();
    // Swap adjacent pairs to create mild disorder.
    for i in (0..198).step_by(2) {
        times.swap(i, i + 1);
    }
    for t in times {
        det.ingest(&PacketEvent {
            time: SimTime(t),
            src: Ipv4(1),
            src_port: 80,
            dst: Ipv4(2),
            dst_port: 5,
            transport: Transport::Tcp,
            size_bytes: 60,
        });
    }
    let attacks = det.finish();
    assert_eq!(attacks.len(), 1);
    assert_eq!(attacks[0].packets, 200);
}

#[test]
fn experiments_are_pure() {
    // Running the same experiment twice on one run yields identical
    // output (no hidden mutation).
    let run = StudyRun::execute(&starved_config());
    for id in ["table1", "fig6", "fig7", "stats7"] {
        let a = run_experiment(&run, id).unwrap();
        let b = run_experiment(&run, id).unwrap();
        assert_eq!(a.body, b.body, "{id} not pure");
        assert_eq!(a.csv, b.csv);
    }
}
