//! Block-bootstrap confidence intervals for trend statistics.
//!
//! The paper reports regression slopes without uncertainty. Weekly
//! attack counts are autocorrelated (campaigns, seasons), so a naive
//! i.i.d. bootstrap would understate variance; we resample contiguous
//! blocks of weeks (moving-block bootstrap) and refit the trend on each
//! replicate.

use crate::series::{linear_regression_range, relative_change_4y, WeeklySeries};
use simcore::SimRng;

/// A bootstrap interval for the 4-year relative change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendInterval {
    /// Point estimate: fitted relative change over 208 weeks.
    pub change_4y: f64,
    /// 2.5 % quantile of the bootstrap distribution.
    pub lo: f64,
    /// 97.5 % quantile.
    pub hi: f64,
    pub replicates: usize,
}

impl TrendInterval {
    /// Is the trend's sign unambiguous at the 95 % level?
    pub fn sign_significant(&self) -> bool {
        (self.lo > 0.0 && self.hi > 0.0) || (self.lo < 0.0 && self.hi < 0.0)
    }
}

/// Moving-block bootstrap of the 4-year relative change.
///
/// Blocks of `block_len` consecutive weeks are drawn with replacement
/// and concatenated to the original length; each replicate keeps the
/// week *indices* of the original series (the regression's x-axis) but
/// permutes block contents — the standard recipe for trend uncertainty
/// under serial dependence.
pub fn trend_interval(
    series: &WeeklySeries,
    block_len: usize,
    replicates: usize,
    rng: &mut SimRng,
) -> Option<TrendInterval> {
    let n = series.values.len();
    // A zero block length would never fill a replicate.
    if block_len == 0 || n < block_len.max(2) || replicates == 0 {
        return None;
    }
    let reg = series.linear_regression()?;
    let point = relative_change_4y(&reg)?;
    // Residual-based resampling: fit once, bootstrap the residual
    // blocks, re-add the fitted line. This keeps the trend identified
    // while resampling the noise structure.
    let fitted: Vec<f64> = (0..n).map(|i| reg.intercept + reg.slope * i as f64).collect();
    let residuals: Vec<f64> = series
        .values
        .iter()
        .zip(&fitted)
        .map(|(&v, &f)| if v.is_nan() { f64::NAN } else { v - f })
        .collect();
    let max_start = n - block_len;
    let mut changes = Vec::with_capacity(replicates);
    // One replicate buffer, refilled in place and fitted as a slice.
    let mut values = Vec::with_capacity(n);
    for _ in 0..replicates {
        values.clear();
        while values.len() < n {
            let start = rng.usize_below(max_start + 1);
            let at = values.len();
            let take = block_len.min(n - at);
            values.extend(
                residuals[start..start + take]
                    .iter()
                    .zip(&fitted[at..at + take])
                    .map(|(&r, &f)| if r.is_nan() { f64::NAN } else { f + r }),
            );
        }
        if let Some(c) = linear_regression_range(&values, 0, n)
            .as_ref()
            .and_then(relative_change_4y)
        {
            changes.push(c);
        }
    }
    if changes.is_empty() {
        return None;
    }
    changes.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        let pos = p * (changes.len() - 1) as f64;
        changes[pos.round() as usize]
    };
    Some(TrendInterval {
        change_4y: point,
        lo: q(0.025),
        hi: q(0.975),
        replicates: changes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_line(slope: f64, n: usize, noise: f64, seed: u64) -> WeeklySeries {
        let mut rng = SimRng::new(seed);
        let values: Vec<f64> = (0..n)
            .map(|i| 10.0 + slope * i as f64 + noise * (rng.f64() - 0.5))
            .collect();
        WeeklySeries::new("x", values)
    }

    #[test]
    fn interval_brackets_point_estimate() {
        let s = noisy_line(0.05, 235, 2.0, 1);
        let mut rng = SimRng::new(2);
        let iv = trend_interval(&s, 8, 400, &mut rng).unwrap();
        assert!(iv.lo <= iv.change_4y && iv.change_4y <= iv.hi, "{iv:?}");
        assert!(iv.replicates >= 390);
    }

    #[test]
    fn strong_trend_is_significant() {
        let s = noisy_line(0.05, 235, 1.0, 3);
        let mut rng = SimRng::new(4);
        let iv = trend_interval(&s, 8, 400, &mut rng).unwrap();
        assert!(iv.sign_significant(), "{iv:?}");
        assert!(iv.lo > 0.0);
    }

    #[test]
    fn pure_noise_is_not_significant() {
        let s = noisy_line(0.0, 235, 8.0, 5);
        let mut rng = SimRng::new(6);
        let iv = trend_interval(&s, 8, 400, &mut rng).unwrap();
        assert!(!iv.sign_significant(), "{iv:?}");
    }

    #[test]
    fn interval_widens_with_noise() {
        let mut rng = SimRng::new(7);
        let quiet = trend_interval(&noisy_line(0.02, 235, 0.5, 8), 8, 300, &mut rng).unwrap();
        let loud = trend_interval(&noisy_line(0.02, 235, 8.0, 8), 8, 300, &mut rng).unwrap();
        assert!(loud.hi - loud.lo > 2.0 * (quiet.hi - quiet.lo), "quiet {quiet:?} loud {loud:?}");
    }

    #[test]
    fn handles_nan_gaps() {
        let mut s = noisy_line(0.05, 235, 1.0, 9);
        s.mask_range(30, 55);
        let mut rng = SimRng::new(10);
        let iv = trend_interval(&s, 8, 200, &mut rng).unwrap();
        assert!(iv.change_4y.is_finite());
        assert!(iv.lo.is_finite() && iv.hi.is_finite());
    }

    #[test]
    fn degenerate_inputs_none() {
        let mut rng = SimRng::new(11);
        assert!(trend_interval(&WeeklySeries::new("x", vec![1.0]), 8, 100, &mut rng).is_none());
        let s = noisy_line(0.01, 100, 1.0, 12);
        assert!(trend_interval(&s, 8, 0, &mut rng).is_none());
        assert!(trend_interval(&s, 0, 100, &mut rng).is_none());
    }

    /// `table1_trends.csv` prints the interval to 4 decimals, so only
    /// exact bits catch last-bit drift in the replicate loop or the
    /// regression. Captured before either reused its buffers.
    #[test]
    fn interval_and_regression_bits_are_pinned() {
        let mut s = noisy_line(0.04, 235, 3.0, 21);
        s.mask_range(40, 66);
        let iv = trend_interval(&s, 8, 400, &mut SimRng::new(22)).unwrap();
        let full = s.linear_regression().unwrap();
        let window = s.regression_in(30, 180).unwrap();
        let got = [
            iv.change_4y.to_bits(),
            iv.lo.to_bits(),
            iv.hi.to_bits(),
            iv.replicates as u64,
            full.slope.to_bits(),
            full.intercept.to_bits(),
            full.r2.to_bits(),
            window.slope.to_bits(),
            window.intercept.to_bits(),
            window.r2.to_bits(),
        ];
        let pinned = [
            0x3feb_58f4_6758_1b28,
            0x3fe9_85cc_1c81_a296,
            0x3fec_fa7e_3c41_ba1f,
            400,
            0x3fa4_e224_4457_7ff7,
            0x4023_dab9_4999_1ff4,
            0x3fed_46ba_0bd7_0676,
            0x3fa5_58eb_9d59_028b,
            0x4023_970c_b30c_d6a0,
            0x3fe9_4ca7_258e_2f47,
        ];
        assert_eq!(got, pinned, "got {got:#018x?}");
    }

    #[test]
    fn deterministic_given_rng() {
        let s = noisy_line(0.03, 200, 2.0, 13);
        let a = trend_interval(&s, 8, 100, &mut SimRng::new(14)).unwrap();
        let b = trend_interval(&s, 8, 100, &mut SimRng::new(14)).unwrap();
        assert_eq!(a, b);
    }
}
