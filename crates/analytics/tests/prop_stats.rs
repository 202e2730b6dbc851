//! Property-based tests for the statistical machinery.

use analytics::{
    best_lag, box_stats, confirmation_shares, correlation_matrix, ip_overlap_share,
    lagged_spearman, median, membership, new_vs_recurring, pearson, spearman, upset,
    weekly_overlap, weekly_target_counts, Correlation, LagResult, Method, TargetTuple,
    WeeklySeries,
};
use analytics::corr::average_ranks;
use netmodel::Ipv4;
use proptest::prelude::*;
use simcore::STUDY_WEEKS;
use std::collections::{BTreeMap, BTreeSet};

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6f64..1.0e6, len)
}

proptest! {
    /// Ranks are a permutation-with-ties of 1..=n: they sum to
    /// n(n+1)/2 and lie within [1, n].
    #[test]
    fn ranks_sum_invariant(values in finite_vec(1..60)) {
        let ranks = average_ranks(&values);
        let n = values.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        prop_assert!(ranks.iter().all(|&r| r >= 1.0 && r <= n));
    }

    /// Ranks preserve order: x[i] < x[j] implies rank[i] < rank[j].
    #[test]
    fn ranks_monotone(values in finite_vec(2..40)) {
        let ranks = average_ranks(&values);
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    prop_assert!(ranks[i] < ranks[j]);
                }
                if values[i] == values[j] {
                    prop_assert!((ranks[i] - ranks[j]).abs() < 1e-12);
                }
            }
        }
    }

    /// Correlations live in [-1, 1], are symmetric, and are exactly +1
    /// against a positively scaled copy.
    #[test]
    fn correlation_bounds_and_symmetry(xs in finite_vec(3..60), shift in -100.0f64..100.0) {
        let ys: Vec<f64> = xs.iter().rev().map(|x| x + shift).collect();
        for f in [pearson, spearman] {
            if let Some(c) = f(&xs, &ys) {
                prop_assert!((-1.0..=1.0).contains(&c.rho));
                prop_assert!((0.0..=1.0).contains(&c.p_value));
                let sym = f(&ys, &xs).unwrap();
                prop_assert!((c.rho - sym.rho).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn correlation_self_is_one(xs in finite_vec(3..60), scale in 0.1f64..100.0) {
        let ys: Vec<f64> = xs.iter().map(|x| x * scale + 3.0).collect();
        // Degenerate constant vectors are None; skip those.
        if let Some(c) = pearson(&xs, &ys) {
            prop_assert!((c.rho - 1.0).abs() < 1e-6, "rho {}", c.rho);
        }
        if let Some(c) = spearman(&xs, &ys) {
            prop_assert!((c.rho - 1.0).abs() < 1e-6);
        }
    }

    /// Spearman is invariant under any strictly monotone transform.
    #[test]
    fn spearman_monotone_invariant(xs in finite_vec(3..50)) {
        let ys: Vec<f64> = xs.iter().map(|x| x.atan()).collect();
        if let (Some(a), Some(b)) = (spearman(&xs, &xs), spearman(&xs, &ys)) {
            prop_assert!((a.rho - b.rho).abs() < 1e-9);
        }
    }

    /// Box stats are ordered: min <= q1 <= median <= q3 <= max, and the
    /// mean lies within [min, max].
    #[test]
    fn box_stats_ordered(values in finite_vec(1..60)) {
        let b = box_stats(&values).unwrap();
        prop_assert!(b.min <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median + 1e-9);
        prop_assert!(b.median <= b.q3 + 1e-9);
        prop_assert!(b.q3 <= b.max + 1e-9);
        prop_assert!(b.mean >= b.min - 1e-9 && b.mean <= b.max + 1e-9);
        prop_assert_eq!(b.n, values.len());
    }

    /// The median is order-insensitive and bounded by extremes.
    #[test]
    fn median_properties(mut values in finite_vec(1..60)) {
        let m1 = median(&values);
        values.reverse();
        let m2 = median(&values);
        prop_assert!((m1 - m2).abs() < 1e-12);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m1 >= lo && m1 <= hi);
    }

    /// Normalization: scaling the input leaves the normalized series
    /// unchanged (scale invariance of the §5 aggregation).
    #[test]
    fn normalization_scale_invariant(
        values in proptest::collection::vec(0.1f64..1e5, 20..120),
        scale in 0.001f64..1000.0,
    ) {
        let a = WeeklySeries::new("a", values.clone()).normalize_to_baseline();
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        let b = WeeklySeries::new("b", scaled).normalize_to_baseline();
        for (x, y) in a.values.iter().zip(&b.values) {
            prop_assert!((x - y).abs() < 1e-6 * x.abs().max(1.0));
        }
    }

    /// EWMA output stays within the running min/max envelope of its
    /// input (it is a convex combination).
    #[test]
    fn ewma_within_envelope(values in finite_vec(1..120), span in 1usize..30) {
        let s = WeeklySeries::new("x", values.clone()).ewma(span);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, &v) in values.iter().enumerate() {
            lo = lo.min(v);
            hi = hi.max(v);
            prop_assert!(s.values[i] >= lo - 1e-9 && s.values[i] <= hi + 1e-9);
        }
    }

    /// Regression of an exactly linear series recovers its parameters.
    #[test]
    fn regression_exact_on_lines(
        slope in -100.0f64..100.0,
        intercept in -1e4f64..1e4,
        n in 2usize..200,
    ) {
        let values: Vec<f64> = (0..n).map(|i| intercept + slope * i as f64).collect();
        let r = WeeklySeries::new("x", values).linear_regression().unwrap();
        prop_assert!((r.slope - slope).abs() < 1e-6 * slope.abs().max(1.0));
        prop_assert!((r.intercept - intercept).abs() < 1e-5 * intercept.abs().max(1.0));
    }
}

proptest! {
    /// UpSet invariants on arbitrary target sets: exclusive counts sum
    /// to the distinct total, each set size equals the sum of exclusive
    /// counts over masks containing it, and shares sum to 1.
    #[test]
    fn upset_conservation(
        raw in proptest::collection::vec(
            (0u8..4, 0i64..20, 0u32..50),
            0..200,
        ),
    ) {
        let mut sets: Vec<(String, Vec<(i64, Ipv4)>)> = (0..4)
            .map(|i| (format!("S{i}"), Vec::new()))
            .collect();
        for (set, day, ip) in raw {
            sets[set as usize].1.push((day, Ipv4(ip)));
        }
        let u = upset(&sets);
        let exclusive_total: usize = u.exclusive.values().sum();
        prop_assert_eq!(exclusive_total, u.total_distinct);
        for (i, &size) in u.set_sizes.iter().enumerate() {
            let by_mask: usize = u
                .exclusive
                .iter()
                .filter(|(m, _)| *m & (1 << i) != 0)
                .map(|(_, c)| c)
                .sum();
            prop_assert_eq!(size, by_mask);
        }
        if u.total_distinct > 0 {
            let share_sum: f64 = u.exclusive.keys().map(|&m| u.share(m)).sum();
            prop_assert!((share_sum - 1.0).abs() < 1e-9);
        }
    }

    /// Weekly target counts conserve the number of distinct in-window
    /// tuples.
    #[test]
    fn weekly_counts_conserve(
        tuples in proptest::collection::vec((0i64..1640, 0u32..1000), 0..300),
    ) {
        let tuples: Vec<(i64, Ipv4)> =
            tuples.into_iter().map(|(d, ip)| (d, Ipv4(ip))).collect();
        let counts = weekly_target_counts(&tuples);
        let distinct: std::collections::HashSet<_> = tuples.iter().collect();
        prop_assert_eq!(counts.iter().sum::<f64>() as usize, distinct.len());
    }
}

/// Up to four unsorted tuple sets with duplicates, plus an industry set,
/// over day and IP ranges small enough that sets collide often (and a
/// few days fall before the study window).
fn target_sets() -> impl Strategy<Value = (Vec<Vec<TargetTuple>>, Vec<TargetTuple>)> {
    let tuples = || {
        proptest::collection::vec(
            (-7i64..40, 0u32..12).prop_map(|(d, ip)| (d, Ipv4(ip))),
            0..60,
        )
    };
    (proptest::collection::vec(tuples(), 1..=4), tuples())
}

/// Brute-force oracle: the weekly counts of a distinct tuple set.
fn oracle_weekly(set: &BTreeSet<TargetTuple>) -> Vec<f64> {
    let mut out = vec![0.0; STUDY_WEEKS];
    for &(day, _) in set {
        let w = day.div_euclid(7);
        if (0..STUDY_WEEKS as i64).contains(&w) {
            out[w as usize] += 1.0;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted-merge set operations equal a `BTreeSet`/`BTreeMap`
    /// oracle on arbitrary unsorted input with duplicates.
    #[test]
    fn set_operations_match_btree_oracle((raw, industry) in target_sets()) {
        let sets: Vec<(String, Vec<TargetTuple>)> = raw
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("S{i}"), t.clone()))
            .collect();
        let distinct: Vec<BTreeSet<TargetTuple>> =
            raw.iter().map(|t| t.iter().copied().collect()).collect();
        let mut masks: BTreeMap<TargetTuple, u16> = BTreeMap::new();
        for (i, set) in distinct.iter().enumerate() {
            for &t in set {
                *masks.entry(t).or_insert(0) |= 1 << i;
            }
        }
        let slices: Vec<&[TargetTuple]> = raw.iter().map(Vec::as_slice).collect();
        let column = membership(&slices);
        prop_assert_eq!(&column, &masks.iter().map(|(&t, &m)| (t, m)).collect::<Vec<_>>());

        // upset
        let u = upset(&sets);
        let mut exclusive: BTreeMap<u16, usize> = BTreeMap::new();
        for &m in masks.values() {
            *exclusive.entry(m).or_insert(0) += 1;
        }
        let ips: BTreeSet<Ipv4> = masks.keys().map(|&(_, ip)| ip).collect();
        prop_assert_eq!(&u.exclusive, &exclusive);
        prop_assert_eq!(u.total_distinct, masks.len());
        prop_assert_eq!(u.distinct_ips, ips.len());
        prop_assert_eq!(u.set_sizes, distinct.iter().map(BTreeSet::len).collect::<Vec<_>>());

        // confirmation_shares
        let industry_set: BTreeSet<TargetTuple> = industry.iter().copied().collect();
        let mut by_mask: BTreeMap<u16, (usize, usize)> = BTreeMap::new();
        for (t, &m) in &masks {
            let e = by_mask.entry(m).or_insert((0, 0));
            e.0 += 1;
            e.1 += industry_set.contains(t) as usize;
        }
        let rows: Vec<(u16, usize, f64)> = by_mask
            .iter()
            .map(|(&m, &(total, confirmed))| (m, total, confirmed as f64 / total as f64))
            .collect();
        let industry_n = industry_set.len().max(1) as f64;
        let seen_by: Vec<f64> = distinct
            .iter()
            .map(|s| s.intersection(&industry_set).count() as f64 / industry_n)
            .collect();
        let union = industry_set.iter().filter(|t| masks.contains_key(t)).count() as f64 / industry_n;
        let c = confirmation_shares(&sets, &industry);
        prop_assert_eq!(c.rows, rows);
        prop_assert_eq!(c.industry_seen_by, seen_by);
        prop_assert_eq!(c.industry_seen_by_union, union);

        // weekly_overlap, against the first set and the industry set
        let o = weekly_overlap(&raw[0], &industry);
        let shared: BTreeSet<TargetTuple> =
            distinct[0].intersection(&industry_set).copied().collect();
        prop_assert_eq!(o.a, oracle_weekly(&distinct[0]));
        prop_assert_eq!(o.b, oracle_weekly(&industry_set));
        prop_assert_eq!(o.shared, oracle_weekly(&shared));

        // ip_overlap_share
        let ips_a: BTreeSet<Ipv4> = raw[0].iter().map(|&(_, ip)| ip).collect();
        let ips_b: BTreeSet<Ipv4> = industry.iter().map(|&(_, ip)| ip).collect();
        let smaller = ips_a.len().min(ips_b.len());
        let want = if smaller == 0 {
            0.0
        } else {
            ips_a.intersection(&ips_b).count() as f64 / smaller as f64
        };
        prop_assert_eq!(ip_overlap_share(&raw[0], &industry), want);

        // new_vs_recurring: (day, ip) order, first in-window sighting new
        let mut new_targets = vec![0.0; STUDY_WEEKS];
        let mut recurring = vec![0.0; STUDY_WEEKS];
        let mut seen: BTreeSet<Ipv4> = BTreeSet::new();
        for &(day, ip) in &industry_set {
            let w = day.div_euclid(7);
            if !(0..STUDY_WEEKS as i64).contains(&w) {
                continue;
            }
            if seen.insert(ip) {
                new_targets[w as usize] += 1.0;
            } else {
                recurring[w as usize] += 1.0;
            }
        }
        let nr = new_vs_recurring(&industry);
        prop_assert_eq!(nr.new_targets, new_targets);
        prop_assert_eq!(nr.recurring_targets, recurring);
        let last = nr.cdf.last().copied().unwrap_or(0.0);
        prop_assert!(seen.is_empty() && last == 0.0 || (last - 1.0).abs() < 1e-12);
    }
}

/// A series of up to 59 weeks built to stress rank and pair handling:
/// scattered NaNs, ties (a small set of repeated values), continuous
/// values, and one NaN run.
fn gappy_series() -> impl Strategy<Value = WeeklySeries> {
    (
        collection::vec((0u8..16, -1.0f64..1.0), 0..60),
        0usize..60,
        0usize..12,
    )
        .prop_map(|(cells, run_start, run_len)| {
            let values = cells
                .into_iter()
                .map(|(code, x)| match code {
                    0 => f64::NAN,
                    1..=7 => f64::from(code % 4),
                    _ => x,
                })
                .collect();
            let mut s = WeeklySeries::new("s", values);
            s.mask_range(run_start, run_start + run_len);
            s
        })
}

/// The comparable bits of a correlation.
fn bits(c: Option<Correlation>) -> Option<(u64, u64, usize)> {
    c.map(|c| (c.rho.to_bits(), c.p_value.to_bits(), c.n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `best_lag` ranks each series once, yet returns exactly the first
    /// maximum of the reference `lagged_spearman` over every lag.
    #[test]
    fn best_lag_matches_lagged_spearman(
        a in gappy_series(),
        b in gappy_series(),
        max_lag in 0i64..70,
    ) {
        let mut want: Option<LagResult> = None;
        for lag in -max_lag..=max_lag {
            if let Some(c) = lagged_spearman(&a, &b, lag) {
                if want.is_none_or(|w| c.rho > w.correlation.rho) {
                    want = Some(LagResult { lag, correlation: c });
                }
            }
        }
        let got = best_lag(&a, &b, max_lag);
        prop_assert_eq!(got.map(|r| r.lag), want.map(|r| r.lag));
        prop_assert_eq!(
            bits(got.map(|r| r.correlation)),
            bits(want.map(|r| r.correlation))
        );
    }

    /// Each off-diagonal matrix cell is the estimator of that ordered
    /// pair, bit for bit, though the matrix computes one per unordered
    /// pair.
    #[test]
    fn correlation_matrix_cells_match_their_pair(
        series in collection::vec(gappy_series(), 2..6),
    ) {
        for (method, f) in [
            (Method::Spearman, spearman as fn(&[f64], &[f64]) -> Option<Correlation>),
            (Method::Pearson, pearson),
        ] {
            let m = correlation_matrix(&series, method);
            for i in 0..series.len() {
                for j in (0..series.len()).filter(|&j| j != i) {
                    let want = f(&series[i].values, &series[j].values);
                    prop_assert_eq!(bits(m.get(i, j)), bits(want), "cell ({}, {})", i, j);
                }
            }
        }
    }
}
