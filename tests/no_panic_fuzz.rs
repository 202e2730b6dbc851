//! No-panic fuzz harness (DESIGN.md §6): randomized study configs and
//! adversarial numeric series must never panic anywhere in the public
//! surface.
//!
//! Two fronts:
//!
//! 1. **Configs** — randomized (sometimes deliberately invalid)
//!    `StudyConfig`s go through `validate` → `StudyRun::try_execute` →
//!    every projection. Invalid configs must come back as typed
//!    `Error::Config` values; valid ones must run to completion and
//!    produce bitwise-identical weekly series at different worker
//!    counts.
//! 2. **Series** — adversarial inputs (NaN, ±∞, empty, constant,
//!    extreme magnitudes) drive every public analytics entry point.
//!    The contract is "degrade, don't die": degenerate statistics are
//!    `None` or NaN, never a panic — and every call is deterministic
//!    (same input twice ⇒ bit-identical output).
//!
//! The harness runs entirely on the vendored `proptest` stand-in, so
//! case generation is deterministic per test name: failures reproduce
//! without a seed file.

use analytics::{
    average_ranks, best_lag, box_stats, concentration, correlation_matrix, median,
    monthly_profile, pearson, quarterly_correlations, relative_change_4y, seasonal_summary,
    share_series, spearman, trend_interval, upset, Heatmap, Method, WeeklySeries,
};
use ddoscovery::{Error, ObsId, StudyConfig, StudyRun};
use proptest::prelude::*;
use simcore::SimRng;

// ---------------------------------------------------------------- configs

/// Sampled knobs for a randomized (starved) study config. Ranges are
/// tiny so a full pipeline run costs milliseconds in debug builds, but
/// they cross every regime boundary the generator branches on: zero
/// rates, zero campaigns, masked vs complete data, 1..3 workers.
#[derive(Debug, Clone)]
struct FuzzKnobs {
    seed: u64,
    tail_as_count: usize,
    reflector_pool_total: u64,
    dp_base: f64,
    ra_base: f64,
    sav_reduction: f64,
    campaigns: usize,
    missing_data: bool,
}

fn config_from(k: &FuzzKnobs) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.seed = k.seed;
    cfg.net.tail_as_count = k.tail_as_count;
    cfg.net.reflector_pool_total = k.reflector_pool_total;
    cfg.gen.timeline.dp_base_per_week = k.dp_base;
    cfg.gen.timeline.ra_base_per_week = k.ra_base;
    cfg.gen.timeline.sav_reduction = k.sav_reduction;
    cfg.gen.random_campaign_count = k.campaigns;
    cfg.gen.campaign_rate_scale = if k.campaigns == 0 { 0.0 } else { 0.05 };
    cfg.missing_data = k.missing_data;
    cfg
}

/// Corrupt one field based on `field_selector`; returns the dotted
/// field path `validate` must name. Covers each `Error::Config` class:
/// non-finite, out-of-range, inverted window, zero count.
fn corrupt(cfg: &mut StudyConfig, field_selector: u8) -> &'static str {
    match field_selector % 8 {
        0 => {
            cfg.gen.timeline.dp_base_per_week = f64::NAN;
            "gen.timeline.dp_base_per_week"
        }
        1 => {
            cfg.gen.timeline.ra_base_per_week = -3.0;
            "gen.timeline.ra_base_per_week"
        }
        2 => {
            cfg.gen.timeline.sav_reduction = 1.5;
            "gen.timeline.sav_reduction"
        }
        3 => {
            cfg.gen.timeline.noise_sigma = f64::INFINITY;
            "gen.timeline.noise_sigma"
        }
        4 => {
            cfg.workers = Some(0);
            "workers"
        }
        5 => {
            cfg.net.tail_as_count = 0;
            "net.tail_as_count"
        }
        6 => {
            cfg.gen.shape.duration_min_secs = 100;
            cfg.gen.shape.duration_max_secs = 10;
            "gen.shape.duration_min_secs"
        }
        _ => {
            cfg.gen.shape.pps_min = f64::NEG_INFINITY;
            "gen.shape.pps_min"
        }
    }
}

proptest! {
    // 384 cases: one in four is a corrupted-config case, so ≥256
    // configs still execute the full pipeline.
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// ≥256 randomized configs through the full pipeline: valid ones
    /// execute and project without panicking, and the weekly series are
    /// bitwise identical across worker counts; corrupted ones come back
    /// as a typed config error naming the poisoned field.
    #[test]
    fn randomized_configs_never_panic(
        seed in any::<u64>(),
        tail_as_count in 1usize..6,
        reflector_pool_total in 1u64..3_000,
        dp_base in 0.0f64..0.8,
        ra_base in 0.0f64..0.8,
        sav_reduction in 0.0f64..=1.0,
        campaigns in 0usize..3,
        missing_data in proptest::bool::ANY,
        corrupt_case in any::<u8>(),
    ) {
        let knobs = FuzzKnobs {
            seed,
            tail_as_count,
            reflector_pool_total,
            dp_base,
            ra_base,
            sav_reduction,
            campaigns,
            missing_data,
        };
        let cfg = config_from(&knobs);

        // Every fourth case poisons one field instead of executing: the
        // error path is as much fuzz surface as the happy path.
        if corrupt_case % 4 == 0 {
            let mut bad = cfg.clone();
            let field = corrupt(&mut bad, corrupt_case / 4);
            match StudyRun::try_execute(&bad) {
                Ok(_) => panic!("corrupted field {field} accepted"),
                Err(e @ Error::Config { field: named, .. }) => {
                    prop_assert_eq!(named, field);
                    prop_assert_eq!(e.exit_code(), 2);
                }
                Err(other) => panic!("expected Config error, got {other}"),
            }
            return Ok(());
        }

        prop_assert!(cfg.validate().is_ok(), "fuzz base config must be valid");
        // Three executions of the same scenario that must agree bit for
        // bit: stage cache OFF at 1 worker, stage cache ON at 3 workers
        // (cold), and the same cached config again (warm — every stage
        // served from the cache). Worker count and cache state are
        // execution knobs; neither may leak into output.
        let mut one = cfg.clone();
        one.workers = Some(1);
        one.stage_cache = Some(0);
        let mut three = cfg.clone();
        three.workers = Some(3);
        three.stage_cache = Some(64);
        let a = StudyRun::try_execute(&one).expect("validated config must run");
        let b = StudyRun::try_execute(&three).expect("validated config must run");
        let c = StudyRun::try_execute(&three).expect("validated config must run");
        prop_assert_eq!(a.attacks.len(), b.attacks.len());
        prop_assert_eq!(a.attacks.len(), c.attacks.len());

        // Touch every projection (they must not panic on starved data)
        // and hold the worker-count-invariance contract bit for bit.
        for id in ObsId::ALL {
            let wa = a.weekly_series(id);
            let wb = b.weekly_series(id);
            prop_assert_eq!(wa.len(), wb.len());
            for (x, y) in wa.values.iter().zip(&wb.values) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} diverged", id.name());
            }
            let wc = c.weekly_series(id);
            for (x, y) in wa.values.iter().zip(&wc.values) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} cached diverged", id.name());
            }
            let na = a.normalized_series(id);
            let nb = b.normalized_series(id);
            for (x, y) in na.values.iter().zip(&nb.values) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} normalized diverged", id.name());
            }
            prop_assert_eq!(a.target_tuples(id), b.target_tuples(id));
            prop_assert_eq!(a.target_tuples(id), c.target_tuples(id));
            let _ = na.trend();
        }
        prop_assert_eq!(a.netscout_baseline_tuples(), b.netscout_baseline_tuples());
        prop_assert_eq!(a.netscout_baseline_tuples(), c.netscout_baseline_tuples());
        prop_assert_eq!(a.akamai_tuples(), b.akamai_tuples());
        prop_assert_eq!(a.akamai_tuples(), c.akamai_tuples());
    }
}

// ---------------------------------------------------------------- series

/// Adversarial f64 palette: index → value. Indices sampled as `u8`
/// cover the palette uniformly enough that short vectors still hit the
/// specials.
fn palette(idx: u8) -> f64 {
    match idx % 12 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => 1.0,
        6 => -1.0,
        7 => f64::MAX,
        8 => f64::MIN_POSITIVE,
        9 => -f64::MAX,
        10 => 1e-300,
        _ => 42.5,
    }
}

/// Assert two f64 slices are bitwise identical (NaN patterns included).
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length changed between calls");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}] not deterministic");
    }
}

/// Determinism check for statistic structs that may carry NaN fields
/// (derived `PartialEq` would call NaN ≠ NaN a divergence): two calls
/// must render identically.
fn assert_same_debug<T: std::fmt::Debug>(a: &T, b: &T, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what} not deterministic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Adversarial vectors through every vector-input analytics entry
    /// point: no panics, deterministic output.
    #[test]
    fn adversarial_vectors_never_panic(
        xs_idx in collection::vec(any::<u8>(), 0..64),
        ys_idx in collection::vec(any::<u8>(), 0..64),
    ) {
        let xs: Vec<f64> = xs_idx.iter().copied().map(palette).collect();
        let ys: Vec<f64> = ys_idx.iter().copied().map(palette).collect();

        let ranks = average_ranks(&xs);
        assert_bits_eq(&ranks, &average_ranks(&xs), "average_ranks");
        prop_assert_eq!(ranks.len(), xs.len());

        let m1 = median(&xs);
        let m2 = median(&xs);
        prop_assert_eq!(m1.to_bits(), m2.to_bits());

        assert_same_debug(&box_stats(&xs), &box_stats(&xs), "box_stats");
        assert_same_debug(&pearson(&xs, &ys), &pearson(&xs, &ys), "pearson");
        assert_same_debug(&spearman(&xs, &ys), &spearman(&xs, &ys), "spearman");
    }

    /// Adversarial weekly series through the series/seasonal/lag/
    /// heatmap/bootstrap surface: no panics, deterministic output,
    /// degenerate inputs yield None rather than garbage.
    #[test]
    fn adversarial_series_never_panic(
        a_idx in collection::vec(any::<u8>(), 0..60),
        b_idx in collection::vec(any::<u8>(), 0..60),
        span in 1usize..16,
    ) {
        let a = WeeklySeries::new("a", a_idx.iter().copied().map(palette).collect());
        let b = WeeklySeries::new("b", b_idx.iter().copied().map(palette).collect());

        let na = a.normalize_to_baseline();
        assert_bits_eq(&na.values, &a.normalize_to_baseline().values, "normalize");
        assert_bits_eq(&a.ewma(span).values, &a.ewma(span).values, "ewma");
        assert_bits_eq(&a.centered_ma(span).values, &a.centered_ma(span).values, "centered_ma");

        let reg = a.linear_regression();
        assert_same_debug(&reg, &a.linear_regression(), "linear_regression");
        if let Some(r) = &reg {
            let _ = relative_change_4y(r);
        }
        let _ = a.trend();

        let _ = monthly_profile(&a);
        let _ = seasonal_summary(&a);
        let _ = quarterly_correlations(&a, &b);
        let _ = best_lag(&a, &b, 8);
        let s1 = share_series(&a, &b);
        assert_bits_eq(&s1.values, &share_series(&a, &b).values, "share_series");

        let mut rng1 = SimRng::new(9).fork_named("fuzz-bootstrap");
        let mut rng2 = SimRng::new(9).fork_named("fuzz-bootstrap");
        assert_same_debug(
            &trend_interval(&a, 4, 20, &mut rng1),
            &trend_interval(&a, 4, 20, &mut rng2),
            "trend_interval",
        );

        let series = [a.clone(), b.clone()];
        let _ = correlation_matrix(&series, Method::Spearman);
        let _ = correlation_matrix(&series, Method::Pearson);
        let h = Heatmap::from_series(&series, 5.0);
        for row in 0..2 {
            for w in 0..a.len().max(b.len()) {
                let _ = h.get(row, w);
            }
        }
    }

    /// Count/set-shaped entry points under adversarial inputs.
    #[test]
    fn adversarial_counts_and_sets_never_panic(
        counts in collection::vec(any::<u16>(), 0..50),
        tuple_bits in collection::vec(any::<u8>(), 0..40),
    ) {
        let counts: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
        assert_same_debug(&concentration(&counts), &concentration(&counts), "concentration");

        // Small (day, ip) universe so sets collide, overlap, and empty.
        let tuples: Vec<analytics::TargetTuple> = tuple_bits
            .iter()
            .map(|&x| ((x % 5) as i64, netmodel::Ipv4((x % 7) as u32)))
            .collect();
        let (left, right) = tuples.split_at(tuples.len() / 2);
        let u = upset(&[("l".into(), left.to_vec()), ("r".into(), right.to_vec())]);
        prop_assert!(u.total_distinct <= tuples.len());
    }
}

/// Fixed extreme shapes that random sampling can miss: empty, single
/// element, all-NaN, all-constant, alternating ±∞.
#[test]
fn degenerate_fixed_inputs_never_panic() {
    let shapes: Vec<Vec<f64>> = vec![
        vec![],
        vec![f64::NAN],
        vec![f64::NAN; 30],
        vec![7.0; 30],
        (0..30)
            .map(|i| if i % 2 == 0 { f64::INFINITY } else { f64::NEG_INFINITY })
            .collect(),
    ];
    for values in &shapes {
        let s = WeeklySeries::new("edge", values.clone());
        let _ = s.normalize_to_baseline();
        let _ = s.ewma(12);
        let _ = s.centered_ma(6);
        let _ = s.linear_regression();
        let _ = s.trend();
        let _ = median(values);
        let _ = average_ranks(values);
        let _ = box_stats(values);
        let _ = pearson(values, values);
        let _ = spearman(values, values);
        let _ = monthly_profile(&s);
        let _ = seasonal_summary(&s);
        let _ = Heatmap::from_series(std::slice::from_ref(&s), 5.0);
    }
    // Degenerate statistics must be absent, not garbage.
    assert!(box_stats(&[]).is_none());
    assert!(concentration(&[]).is_none());
    assert!(WeeklySeries::new("nan", vec![f64::NAN; 10]).linear_regression().is_none());
    assert!(pearson(&[1.0], &[1.0]).is_none());
}
