//! Weekly time series and the paper's aggregation pipeline (§5, §6):
//! normalization to the median of the first 15 weeks, exponentially
//! weighted moving averages with a 12-week span, and ordinary
//! least-squares trend lines with the ±5 %-in-4-years trend
//! classification of Table 1.
//!
//! Missing data (ORION 2019Q3–Q4, IXP January 2019) is represented as
//! `NaN` and skipped by every statistic, matching how the paper plots
//! gaps.

use serde::{Deserialize, Serialize};
use simcore::BASELINE_WEEKS;

/// A weekly-bucketed time series over the study window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeeklySeries {
    pub name: String,
    pub values: Vec<f64>,
}

impl WeeklySeries {
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        WeeklySeries {
            name: name.into(),
            values,
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Values that are present (non-NaN), with their week indices.
    pub fn present(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            .map(|(i, &v)| (i, v))
    }

    /// Mark a week range [lo, hi) as missing data.
    pub fn mask_range(&mut self, lo: usize, hi: usize) {
        let len = self.values.len();
        for v in &mut self.values[lo.min(len)..hi.min(len)] {
            *v = f64::NAN;
        }
    }

    /// Normalize to the median of the first `BASELINE_WEEKS` *observed*
    /// values (§5: "normalized values to the median attack count of the
    /// first 15 weeks"). When early weeks are masked out — a reporting
    /// gap or an injected outage — the baseline window slides past them
    /// to the first 15 weeks that actually carry data, rather than
    /// shrinking (which makes the median noisy) or treating gaps as
    /// zeros (which poisons it). A zero/absent baseline falls back to
    /// the median of the whole series so the result stays finite.
    pub fn normalize_to_baseline(&self) -> WeeklySeries {
        let baseline_values: Vec<f64> = self
            .present()
            .take(BASELINE_WEEKS)
            .map(|(_, v)| v)
            .collect();
        let mut base = median(&baseline_values);
        if base.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            let all: Vec<f64> = self.present().map(|(_, v)| v).collect();
            base = median(&all).max(1.0);
        }
        WeeklySeries {
            name: self.name.clone(),
            values: self.values.iter().map(|v| v / base).collect(),
        }
    }

    /// Exponentially weighted moving average with the given span
    /// (α = 2 / (span + 1), pandas-style). NaNs are carried through
    /// without contaminating the average.
    pub fn ewma(&self, span: usize) -> WeeklySeries {
        assert!(span >= 1);
        let alpha = 2.0 / (span as f64 + 1.0);
        let mut out = Vec::with_capacity(self.values.len());
        let mut state: Option<f64> = None;
        for &v in &self.values {
            if v.is_nan() {
                out.push(f64::NAN);
                continue;
            }
            let next = match state {
                None => v,
                Some(s) => s + alpha * (v - s),
            };
            state = Some(next);
            out.push(next);
        }
        WeeklySeries {
            name: format!("{} (EWMA)", self.name),
            values: out,
        }
    }

    /// Centered moving average over ±`half_window` weeks — symmetric,
    /// so unlike [`WeeklySeries::ewma`] it introduces no phase lag
    /// (used for crossing detection, where a lag would shift the
    /// crossing date). NaNs are skipped inside each window; windows
    /// with no present values stay NaN.
    pub fn centered_ma(&self, half_window: usize) -> WeeklySeries {
        let n = self.values.len();
        let values = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(half_window);
                let hi = (i + half_window + 1).min(n);
                let present: Vec<f64> = self.values[lo..hi]
                    .iter()
                    .copied()
                    .filter(|v| !v.is_nan())
                    .collect();
                if present.is_empty() {
                    f64::NAN
                } else {
                    present.iter().sum::<f64>() / present.len() as f64
                }
            })
            .collect();
        WeeklySeries {
            name: format!("{} (CMA)", self.name),
            values,
        }
    }

    /// OLS regression over (week index, value), skipping NaNs.
    /// Returns `None` with fewer than two present points.
    pub fn linear_regression(&self) -> Option<Regression> {
        linear_regression_range(&self.values, 0, self.values.len())
    }

    /// Regression restricted to weeks [lo, hi).
    pub fn regression_in(&self, lo: usize, hi: usize) -> Option<Regression> {
        linear_regression_range(&self.values, lo, hi)
    }

    /// Table-1 trend classification: relative change over four years
    /// (208 weeks) of the fitted line, against the fitted level at the
    /// window start. > +5 % ⇒ increasing, < −5 % ⇒ decreasing,
    /// otherwise steady. A non-positive fitted baseline makes the
    /// relative change undefined ([`relative_change_4y`] returns
    /// `None`) and classifies as steady rather than blowing the ratio
    /// up against an arbitrary epsilon.
    pub fn trend(&self) -> Trend {
        let change = self
            .linear_regression()
            .as_ref()
            .and_then(relative_change_4y);
        match change {
            Some(c) if c > 0.05 => Trend::Increasing,
            Some(c) if c < -0.05 => Trend::Decreasing,
            _ => Trend::Steady,
        }
    }
}

/// The Table-1 statistic: relative change of the fitted line over four
/// years (208 weeks), measured against the fitted level at the window
/// start. Returns `None` when the baseline (intercept) is non-positive
/// or not finite — dividing by an epsilon-clamped intercept inflated
/// the ratio to ~1e10 and misclassified the trend. Shared by
/// [`WeeklySeries::trend`], the bootstrap replicates, and the sweep
/// harness so all three agree on degenerate fits.
pub fn relative_change_4y(reg: &Regression) -> Option<f64> {
    if !(reg.intercept.is_finite() && reg.slope.is_finite()) || reg.intercept <= 0.0 {
        return None;
    }
    Some(reg.slope * 208.0 / reg.intercept)
}

/// Fitted line y = intercept + slope · week.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Regression {
    pub slope: f64,
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
    pub n: usize,
}

/// OLS over the present (week index, value) points of weeks [lo, hi)
/// of `values`, in three passes that allocate nothing. Each sum adds
/// its terms in week order from -0.0, `Sum`'s neutral element, so it
/// has the bits of the iterator sum of the same terms.
pub(crate) fn linear_regression_range(values: &[f64], lo: usize, hi: usize) -> Option<Regression> {
    let hi = hi.min(values.len());
    let lo = lo.min(hi);
    let pts = || {
        values[lo..hi]
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            .map(|(k, &y)| ((lo + k) as f64, y))
    };
    let (mut n, mut sum_x, mut sum_y) = (0usize, -0.0, -0.0);
    for (x, y) in pts() {
        n += 1;
        sum_x += x;
        sum_y += y;
    }
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = sum_x / nf;
    let mean_y = sum_y / nf;
    let (mut sxx, mut sxy, mut ss_tot) = (-0.0, -0.0, -0.0);
    for (x, y) in pts() {
        sxx += (x - mean_x).powi(2);
        sxy += (x - mean_x) * (y - mean_y);
        ss_tot += (y - mean_y).powi(2);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let mut ss_res = -0.0;
    for (x, y) in pts() {
        ss_res += (y - (intercept + slope * x)).powi(2);
    }
    let r2 = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
    Some(Regression {
        slope,
        intercept,
        r2,
        n,
    })
}

/// Table-1 trend symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trend {
    Increasing,
    Decreasing,
    Steady,
}

impl Trend {
    /// The glyph the paper's Table 1 uses.
    pub const fn symbol(self) -> &'static str {
        match self {
            Trend::Increasing => "▲",
            Trend::Decreasing => "▼",
            Trend::Steady => "◆",
        }
    }
}

/// Median of a value slice. Empty ⇒ NaN. NaNs sort to the high end
/// under IEEE total order, so a slice with stray NaNs still yields a
/// deterministic (if NaN-shifted) median instead of a sort panic —
/// callers that care should pre-filter.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn normalization_uses_first_15_weeks() {
        let mut values = vec![10.0; 15];
        values.extend(vec![20.0; 10]);
        let s = WeeklySeries::new("x", values).normalize_to_baseline();
        assert_eq!(s.values[0], 1.0);
        assert_eq!(s.values[20], 2.0);
    }

    #[test]
    fn normalization_skips_missing_baseline_weeks() {
        let mut values = vec![f64::NAN; 5];
        values.extend(vec![10.0; 10]);
        values.extend(vec![30.0; 10]);
        let s = WeeklySeries::new("x", values).normalize_to_baseline();
        assert_eq!(s.values[10], 1.0);
        assert_eq!(s.values[20], 3.0);
    }

    #[test]
    fn normalization_baseline_slides_past_masked_weeks() {
        // An outage masking 10 of the first 15 weeks must not shrink
        // the baseline window to 5 values: the window slides forward to
        // the first 15 *observed* weeks.
        let mut values = vec![10.0; 30];
        values.extend(vec![40.0; 10]);
        let mut s = WeeklySeries::new("x", values);
        s.mask_range(3, 13);
        let n = s.normalize_to_baseline();
        // Baseline = median of 15 observed 10.0s (weeks 0-2, 13-24).
        assert_eq!(n.values[0], 1.0);
        assert_eq!(n.values[35], 4.0);
        // Masked weeks stay masked, never zero.
        assert!(n.values[5].is_nan());
    }

    #[test]
    fn mask_range_gap_structure() {
        let mut a = WeeklySeries::new("a", vec![1.0; 10]);
        a.mask_range(2, 4);
        a.mask_range(7, 8);
        // Out-of-range bounds clamp to the series.
        a.mask_range(12, 20);
        let missing: Vec<usize> = (0..a.values.len())
            .filter(|&w| a.values[w].is_nan())
            .collect();
        assert_eq!(missing, vec![2, 3, 7]);
        assert_eq!(a.values.len(), 10);
        assert_eq!(a.present().count(), 7);
    }

    #[test]
    fn normalization_zero_baseline_fallback() {
        let mut values = vec![0.0; 15];
        values.extend(vec![10.0; 30]);
        let s = WeeklySeries::new("x", values).normalize_to_baseline();
        assert!(s.values.iter().all(|v| v.is_finite()));
        assert!(s.values[20] > 0.0);
    }

    #[test]
    fn ewma_converges_to_constant() {
        let s = WeeklySeries::new("x", vec![5.0; 50]).ewma(12);
        assert!((s.values[49] - 5.0).abs() < 1e-12);
        assert_eq!(s.values[0], 5.0);
    }

    #[test]
    fn ewma_smooths_spikes() {
        let mut values = vec![1.0; 30];
        values[15] = 100.0;
        let s = WeeklySeries::new("x", values.clone()).ewma(12);
        assert!(s.values[15] < 100.0 * 0.2);
        assert!(s.values[15] > 1.0);
    }

    #[test]
    fn centered_ma_no_phase_lag() {
        // A step function's midpoint stays at the step under a centered
        // average (an EWMA would shift it right).
        let mut values = vec![0.0; 40];
        for v in values.iter_mut().skip(20) {
            *v = 1.0;
        }
        let s = WeeklySeries::new("step", values).centered_ma(5);
        assert!(s.values[19] < 0.5);
        assert!(s.values[20] >= 0.5);
        // Flat regions are untouched.
        assert_eq!(s.values[5], 0.0);
        assert_eq!(s.values[35], 1.0);
    }

    #[test]
    fn centered_ma_handles_nan_and_edges() {
        let s = WeeklySeries::new("x", vec![f64::NAN, 2.0, 4.0]).centered_ma(1);
        assert_eq!(s.values[0], 2.0); // only the present neighbor
        assert_eq!(s.values[1], 3.0);
        assert_eq!(s.values[2], 3.0);
        let void = WeeklySeries::new("v", vec![f64::NAN; 5]).centered_ma(2);
        assert!(void.values.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn ewma_passes_nan_through() {
        let s = WeeklySeries::new("x", vec![1.0, f64::NAN, 3.0]).ewma(12);
        assert!(s.values[1].is_nan());
        assert!(s.values[2].is_finite());
    }

    #[test]
    fn regression_recovers_line() {
        let values: Vec<f64> = (0..100).map(|i| 2.0 + 0.5 * i as f64).collect();
        let reg = WeeklySeries::new("x", values).linear_regression().unwrap();
        assert!((reg.slope - 0.5).abs() < 1e-9);
        assert!((reg.intercept - 2.0).abs() < 1e-9);
        assert!((reg.r2 - 1.0).abs() < 1e-9);
        assert_eq!(reg.n, 100);
    }

    #[test]
    fn regression_skips_nans() {
        let mut values: Vec<f64> = (0..100).map(|i| 1.0 + 0.1 * i as f64).collect();
        for v in values.iter_mut().take(30).skip(10) {
            *v = f64::NAN;
        }
        let reg = WeeklySeries::new("x", values).linear_regression().unwrap();
        assert!((reg.slope - 0.1).abs() < 1e-9);
        assert_eq!(reg.n, 80);
    }

    #[test]
    fn regression_none_for_flat_x_or_empty() {
        assert!(WeeklySeries::new("x", vec![]).linear_regression().is_none());
        assert!(WeeklySeries::new("x", vec![1.0]).linear_regression().is_none());
        assert!(WeeklySeries::new("x", vec![f64::NAN, f64::NAN])
            .linear_regression()
            .is_none());
    }

    #[test]
    fn regression_in_subwindow() {
        let values: Vec<f64> = (0..100)
            .map(|i| if i < 50 { 1.0 } else { 1.0 + (i - 50) as f64 })
            .collect();
        let flat = WeeklySeries::new("x", values.clone())
            .regression_in(0, 50)
            .unwrap();
        assert!(flat.slope.abs() < 1e-9);
        let rising = WeeklySeries::new("x", values).regression_in(50, 100).unwrap();
        assert!((rising.slope - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trend_classification() {
        // Strong growth.
        let up: Vec<f64> = (0..235).map(|i| 1.0 + 0.01 * i as f64).collect();
        assert_eq!(WeeklySeries::new("x", up).trend(), Trend::Increasing);
        // Strong decline.
        let down: Vec<f64> = (0..235).map(|i| 10.0 - 0.02 * i as f64).collect();
        assert_eq!(WeeklySeries::new("x", down).trend(), Trend::Decreasing);
        // Flat within the ±5 % band.
        let flat: Vec<f64> = (0..235).map(|i| 100.0 + 0.001 * i as f64).collect();
        assert_eq!(WeeklySeries::new("x", flat).trend(), Trend::Steady);
    }

    #[test]
    fn trend_non_positive_intercept_is_steady() {
        // A rising line fitted through a negative start: the old
        // `intercept.max(1e-9)` clamp exploded the relative change to
        // ~1e10 and reported Increasing. Undefined baseline ⇒ Steady.
        let values: Vec<f64> = (0..235).map(|i| -10.0 + 0.02 * i as f64).collect();
        let s = WeeklySeries::new("x", values);
        let reg = s.linear_regression().unwrap();
        assert!(reg.intercept < 0.0);
        assert!(relative_change_4y(&reg).is_none());
        assert_eq!(s.trend(), Trend::Steady);
    }

    #[test]
    fn relative_change_4y_matches_trend_formula() {
        let values: Vec<f64> = (0..235).map(|i| 2.0 + 0.01 * i as f64).collect();
        let reg = WeeklySeries::new("x", values).linear_regression().unwrap();
        let c = relative_change_4y(&reg).unwrap();
        assert!((c - 0.01 * 208.0 / 2.0).abs() < 1e-9);
        // Zero intercept is as undefined as a negative one.
        let zero = Regression { slope: 1.0, intercept: 0.0, r2: 1.0, n: 10 };
        assert!(relative_change_4y(&zero).is_none());
        let inf = Regression { slope: 1.0, intercept: f64::INFINITY, r2: 1.0, n: 10 };
        assert!(relative_change_4y(&inf).is_none());
    }

    #[test]
    fn median_tolerates_stray_nan() {
        // NaNs sort last under total order: no panic, deterministic.
        let m = median(&[3.0, f64::NAN, 1.0]);
        assert_eq!(m, 3.0);
    }

    #[test]
    fn trend_symbols() {
        assert_eq!(Trend::Increasing.symbol(), "▲");
        assert_eq!(Trend::Decreasing.symbol(), "▼");
        assert_eq!(Trend::Steady.symbol(), "◆");
    }

    #[test]
    fn mask_range_sets_nan() {
        let mut s = WeeklySeries::new("x", vec![1.0; 10]);
        s.mask_range(2, 5);
        assert!(s.values[2].is_nan() && s.values[4].is_nan());
        assert!(s.values[1].is_finite() && s.values[5].is_finite());
        // Out-of-range masks are clipped, not panics.
        s.mask_range(8, 100);
        assert!(s.values[9].is_nan());
    }

    #[test]
    fn present_iterator() {
        let s = WeeklySeries::new("x", vec![1.0, f64::NAN, 3.0]);
        let p: Vec<(usize, f64)> = s.present().collect();
        assert_eq!(p, vec![(0, 1.0), (2, 3.0)]);
    }
}
