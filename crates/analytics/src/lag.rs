//! Lead/lag structure and crossing detection.
//!
//! Two utilities the paper's narrative uses informally:
//!
//! * [`durable_crossing`] — the "latest crossing of the 50 % mark" of
//!   Fig. 5, generalized to any share series and threshold;
//! * [`lagged_spearman`] / [`best_lag`] — which observatory *leads*:
//!   §6.2 notes Hopscotch peaked early in 2020 "when AmpPot peaks
//!   declined"; lag analysis quantifies such phase offsets.

use crate::corr::{spearman, Correlation};
use crate::series::WeeklySeries;
use serde::{Deserialize, Serialize};

/// Find the first index from which the series stays strictly above
/// `threshold` for the rest of its (present) length — the paper's
/// "latest crossing" semantics. Returns `None` if the series never
/// durably crosses.
pub fn durable_crossing(values: &[f64], threshold: f64) -> Option<usize> {
    let mut candidate = None;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        if v > threshold {
            candidate.get_or_insert(i);
        } else {
            candidate = None;
        }
    }
    candidate
}

/// Share series a/(a+b) with NaN where either side is missing or the
/// denominator is zero.
pub fn share_series(a: &WeeklySeries, b: &WeeklySeries) -> WeeklySeries {
    let values = a
        .values
        .iter()
        .zip(&b.values)
        .map(|(&x, &y)| {
            if x.is_finite() && y.is_finite() && x + y > 0.0 {
                x / (x + y)
            } else {
                f64::NAN
            }
        })
        .collect();
    WeeklySeries::new(format!("{} share", a.name), values)
}

/// Spearman correlation of `a[t]` against `b[t + lag]` (positive lag ⇒
/// `a` leads `b` by `lag` weeks).
pub fn lagged_spearman(a: &WeeklySeries, b: &WeeklySeries, lag: i64) -> Option<Correlation> {
    let n = a.values.len().min(b.values.len());
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..n as i64 {
        let j = i + lag;
        if j < 0 || j >= n as i64 {
            continue;
        }
        xs.push(a.values[i as usize]);
        ys.push(b.values[j as usize]);
    }
    spearman(&xs, &ys)
}

/// The lag in `[-max_lag, +max_lag]` that maximizes the (significant)
/// lagged Spearman correlation, with that correlation. Positive lag ⇒
/// `a` leads `b`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LagResult {
    pub lag: i64,
    pub correlation: Correlation,
}

/// Equal to the first maximum of [`lagged_spearman`] over the lags,
/// bit for bit, but each series is sorted once: a lag window's ranks
/// come from walking that order and keeping the indices that form a
/// complete pair inside the window, and only the winning lag pays for
/// a p-value.
pub fn best_lag(a: &WeeklySeries, b: &WeeklySeries, max_lag: i64) -> Option<LagResult> {
    let n = a.values.len().min(b.values.len());
    let (a, b) = (&a.values[..n], &b.values[..n]);
    let sorted = |v: &[f64]| {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        order
    };
    let (order_a, order_b) = (sorted(a), sorted(b));
    // slot[i]: the position of the pair (a[i], b[i + lag]) among the
    // window's complete pairs, `usize::MAX` when either side is NaN.
    let mut slot = vec![usize::MAX; n];
    let mut walk = Vec::with_capacity(n);
    let (mut rx, mut ry) = (vec![0.0; n], vec![0.0; n]);
    let mut best: Option<(i64, f64, usize)> = None;
    for lag in -max_lag..=max_lag {
        // The window: a[i] pairs with b[i + lag] for i in [lo, hi).
        let lo = (-lag).clamp(0, n as i64);
        let hi = (n as i64 - lag).clamp(lo, n as i64);
        let mut pairs = 0;
        for i in lo..hi {
            let (i, j) = (i as usize, (i + lag) as usize);
            if a[i].is_nan() || b[j].is_nan() {
                slot[i] = usize::MAX;
            } else {
                slot[i] = pairs;
                pairs += 1;
            }
        }
        if pairs < 3 {
            continue;
        }
        // Does a[i] (and b[i + lag]) form a complete pair in the window?
        let paired = |i: i64| lo <= i && i < hi && slot[i as usize] != usize::MAX;
        walk.clear();
        walk.extend(order_a.iter().copied().filter(|&i| paired(i as i64)));
        crate::corr::rank_in_order(a, &walk, &mut rx, |i| slot[i]);
        walk.clear();
        walk.extend(order_b.iter().copied().filter(|&j| paired(j as i64 - lag)));
        crate::corr::rank_in_order(b, &walk, &mut ry, |j| slot[(j as i64 - lag) as usize]);
        let Some(rho) = crate::corr::rho(&rx[..pairs], &ry[..pairs]) else {
            continue;
        };
        if best.is_none_or(|(_, top, _)| rho > top) {
            best = Some((lag, rho, pairs));
        }
    }
    best.map(|(lag, rho, pairs)| LagResult {
        lag,
        correlation: Correlation::with_p_value(rho, pairs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str, v: Vec<f64>) -> WeeklySeries {
        WeeklySeries::new(name, v)
    }

    #[test]
    fn crossing_basics() {
        assert_eq!(durable_crossing(&[0.1, 0.6, 0.7, 0.8], 0.5), Some(1));
        // A later dip resets the candidate.
        assert_eq!(durable_crossing(&[0.6, 0.4, 0.7, 0.8], 0.5), Some(2));
        assert_eq!(durable_crossing(&[0.1, 0.2], 0.5), None);
        // Ends below threshold: never durable.
        assert_eq!(durable_crossing(&[0.9, 0.9, 0.1], 0.5), None);
        assert_eq!(durable_crossing(&[], 0.5), None);
    }

    #[test]
    fn crossing_skips_nan() {
        assert_eq!(
            durable_crossing(&[0.6, f64::NAN, 0.7], 0.5),
            Some(0),
            "NaN weeks should not reset the candidate"
        );
    }

    #[test]
    fn share_series_math() {
        let a = s("a", vec![1.0, 3.0, f64::NAN, 0.0]);
        let b = s("b", vec![1.0, 1.0, 1.0, 0.0]);
        let sh = share_series(&a, &b);
        assert_eq!(sh.values[0], 0.5);
        assert_eq!(sh.values[1], 0.75);
        assert!(sh.values[2].is_nan());
        assert!(sh.values[3].is_nan()); // zero denominator
    }

    #[test]
    fn lag_recovers_known_shift() {
        // b is a copy of a delayed by 5 weeks: a leads b by 5.
        let base: Vec<f64> = (0..120)
            .map(|i| (i as f64 * 0.3).sin() + 0.01 * i as f64)
            .collect();
        let a = s("a", base.clone());
        let mut delayed = vec![0.0; 5];
        delayed.extend_from_slice(&base[..115]);
        let b = s("b", delayed);
        let best = best_lag(&a, &b, 10).unwrap();
        assert_eq!(best.lag, 5, "a should lead b by 5 weeks");
        assert!(best.correlation.rho > 0.99);
    }

    #[test]
    fn lag_zero_for_aligned_series() {
        let base: Vec<f64> = (0..120).map(|i| (i as f64 * 0.25).sin()).collect();
        let a = s("a", base.clone());
        let b = s("b", base);
        let best = best_lag(&a, &b, 8).unwrap();
        assert_eq!(best.lag, 0);
        assert!((best.correlation.rho - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lagged_spearman_symmetry() {
        // corr(a[t], b[t+k]) == corr(b[t], a[t-k]).
        let x: Vec<f64> = (0..80).map(|i| ((i * 13 % 17) as f64).sin()).collect();
        let y: Vec<f64> = (0..80).map(|i| ((i * 7 % 23) as f64).cos()).collect();
        let a = s("a", x);
        let b = s("b", y);
        let fwd = lagged_spearman(&a, &b, 4).unwrap();
        let rev = lagged_spearman(&b, &a, -4).unwrap();
        assert!((fwd.rho - rev.rho).abs() < 1e-12);
    }

    #[test]
    fn lagged_spearman_short_series_none() {
        let a = s("a", vec![1.0, 2.0, 3.0]);
        let b = s("b", vec![1.0, 2.0, 3.0]);
        assert!(lagged_spearman(&a, &b, 2).is_none()); // 1 pair left
    }
}
