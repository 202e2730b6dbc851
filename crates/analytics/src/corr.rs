//! Correlation analysis (Fig. 6, Fig. 14, Appendix F).
//!
//! Spearman rank correlation (the paper's primary choice: "less
//! susceptible to outliers than Pearson"), Pearson as the cross-check,
//! both with two-tailed t-test p-values; correlation matrices over many
//! series with pairwise-complete observations; and the quarterly
//! pairwise box statistics of Appendix F.

use crate::series::WeeklySeries;
use crate::special::t_two_tailed_p;
use serde::{Deserialize, Serialize};

/// A correlation estimate with its significance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Correlation {
    pub rho: f64,
    pub p_value: f64,
    /// Number of pairwise-complete observations.
    pub n: usize,
}

impl Correlation {
    /// The paper greys out coefficients with p > 0.05.
    pub fn significant(&self) -> bool {
        self.p_value <= 0.05
    }

    /// The estimate `rho` over `n` pairs, with its two-tailed t-test
    /// p-value.
    pub(crate) fn with_p_value(rho: f64, n: usize) -> Correlation {
        let df = n as f64 - 2.0;
        let p_value = if rho.abs() >= 1.0 {
            0.0
        } else {
            let t = rho * (df / (1.0 - rho * rho)).sqrt();
            t_two_tailed_p(t, df)
        };
        Correlation { rho, p_value, n }
    }
}

/// Pearson product-moment correlation over pairwise-complete values.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<Correlation> {
    let (xs, ys) = complete_pairs(xs, ys);
    Some(Correlation::with_p_value(rho(&xs, &ys)?, xs.len()))
}

/// Spearman rank correlation: Pearson over average ranks.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<Correlation> {
    let (xs, ys) = complete_pairs(xs, ys);
    let rho = rho(&average_ranks(&xs), &average_ranks(&ys))?;
    Some(Correlation::with_p_value(rho, xs.len()))
}

/// The pairs where neither side is NaN, split into two columns.
fn complete_pairs(xs: &[f64], ys: &[f64]) -> (Vec<f64>, Vec<f64>) {
    xs.iter()
        .zip(ys)
        .filter(|(x, y)| !x.is_nan() && !y.is_nan())
        .unzip()
}

/// Pearson's r of two equal-length columns: `None` below three pairs
/// or when either column is constant. Swapping the columns gives the
/// same bits.
pub(crate) fn rho(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len();
    if n < 3 {
        return None;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
        sxy += (x - mx) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some((sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0))
}

/// Average (fractional) ranks with tie handling, 1-based.
///
/// Ordering is IEEE-754 total order (`f64::total_cmp`), so NaN input no
/// longer panics the sort: positive NaNs rank above `+inf`, negative
/// NaNs below `-inf`, and equal-bit NaNs tie with each other (NaN ≠ NaN
/// under `==`, so tie detection compares total order too). Correlation
/// callers pre-filter NaN pairs; direct callers get a deterministic
/// ranking of whatever they pass in.
pub fn average_ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    rank_in_order(values, &order, &mut ranks, |i| i);
    ranks
}

/// Average ranks of `values[order[k]]`, where `order` lists indices
/// ascending under total order: index `i` gets its rank in
/// `ranks[slot(i)]`, and each tied block gets its mean position.
pub(crate) fn rank_in_order(
    values: &[f64],
    order: &[usize],
    ranks: &mut [f64],
    slot: impl Fn(usize) -> usize,
) {
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len()
            && values[order[j + 1]].total_cmp(&values[order[i]]) == std::cmp::Ordering::Equal
        {
            j += 1;
        }
        // Tied block [i, j]: average rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[slot(k)] = avg;
        }
        i = j + 1;
    }
}

/// A full pairwise correlation matrix over named series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorrelationMatrix {
    pub names: Vec<String>,
    /// Row-major `names.len() × names.len()`; diagonal is rho = 1.
    pub cells: Vec<Option<Correlation>>,
}

impl CorrelationMatrix {
    pub fn get(&self, i: usize, j: usize) -> Option<Correlation> {
        self.cells[i * self.names.len() + j]
    }
}

/// Correlation method selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    Spearman,
    Pearson,
}

/// Compute the pairwise matrix over a set of series. Both estimators
/// are bit-symmetric, so each unordered pair is computed once.
pub fn correlation_matrix(series: &[WeeklySeries], method: Method) -> CorrelationMatrix {
    let n = series.len();
    let mut cells = vec![None; n * n];
    for i in 0..n {
        cells[i * n + i] = Some(Correlation {
            rho: 1.0,
            p_value: 0.0,
            n: series[i].present().count(),
        });
        for j in (i + 1)..n {
            let c = match method {
                Method::Spearman => spearman(&series[i].values, &series[j].values),
                Method::Pearson => pearson(&series[i].values, &series[j].values),
            };
            cells[i * n + j] = c;
            cells[j * n + i] = c;
        }
    }
    CorrelationMatrix {
        names: series.iter().map(|s| s.name.clone()).collect(),
        cells,
    }
}

/// Box statistics over a set of quarterly correlations (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub mean: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

/// Compute box statistics from raw values (NaNs dropped).
pub fn box_stats(values: &[f64]) -> Option<BoxStats> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        // Linear interpolation between closest ranks.
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    };
    Some(BoxStats {
        min: v[0],
        q1: q(0.25),
        median: q(0.5),
        mean: v.iter().sum::<f64>() / v.len() as f64,
        q3: q(0.75),
        max: v[v.len() - 1],
        n: v.len(),
    })
}

/// Per-quarter Spearman correlations between two weekly series:
/// the study's 18 quarters, each contributing one coefficient
/// (insufficient quarters yield NaN and are dropped by `box_stats`).
pub fn quarterly_correlations(a: &WeeklySeries, b: &WeeklySeries) -> Vec<f64> {
    let weeks = a.values.len().min(b.values.len());
    let mut out = Vec::new();
    // Quarter boundaries in week indices via the calendar.
    let mut q_start = 0usize;
    let mut current_q = simcore::SimTime::from_weeks(0).quarter_index();
    for w in 1..=weeks {
        let q = if w < weeks {
            simcore::SimTime::from_weeks(w as i64).quarter_index()
        } else {
            i64::MAX
        };
        if q != current_q {
            let xs = &a.values[q_start..w];
            let ys = &b.values[q_start..w];
            out.push(match spearman(xs, ys) {
                Some(c) => c.rho,
                None => f64::NAN,
            });
            q_start = w;
            current_q = q;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let c = pearson(&xs, &ys).unwrap();
        assert!((c.rho - 1.0).abs() < 1e-12);
        assert!(c.p_value < 1e-10);
    }

    #[test]
    fn pearson_anticorrelation() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -x).collect();
        let c = pearson(&xs, &ys).unwrap();
        assert!((c.rho + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        // Spearman sees through monotone nonlinearity; Pearson does not.
        let xs: Vec<f64> = (1..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp().min(1e300)).collect();
        let s = spearman(&xs, &ys).unwrap();
        assert!((s.rho - 1.0).abs() < 1e-12);
        let p = pearson(&xs, &ys).unwrap();
        assert!(p.rho < 0.9);
    }

    #[test]
    fn spearman_outlier_robustness() {
        // One huge outlier wrecks Pearson but barely moves Spearman —
        // the paper's §6.3 rationale.
        let mut xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| x + 0.1).collect();
        xs.push(0.0);
        ys.push(1e9);
        let s = spearman(&xs, &ys).unwrap();
        let p = pearson(&xs, &ys).unwrap();
        assert!(s.rho > 0.85, "spearman {}", s.rho);
        assert!(p.rho < 0.5, "pearson {}", p.rho);
    }

    #[test]
    fn nan_pairs_skipped() {
        let xs = vec![1.0, 2.0, f64::NAN, 4.0, 5.0, 6.0];
        let ys = vec![2.0, 4.0, 6.0, f64::NAN, 10.0, 12.0];
        let c = pearson(&xs, &ys).unwrap();
        assert_eq!(c.n, 4);
        assert!((c.rho - 1.0).abs() < 1e-12);
    }

    #[test]
    fn insufficient_data_is_none() {
        assert!(pearson(&[1.0, 2.0], &[1.0, 2.0]).is_none());
        assert!(spearman(&[1.0], &[1.0]).is_none());
        // Constant series: undefined correlation.
        assert!(pearson(&[1.0; 10], &(0..10).map(|i| i as f64).collect::<Vec<_>>()).is_none());
    }

    #[test]
    fn uncorrelated_noise_insignificant() {
        // Deterministic pseudo-noise via a simple LCG.
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let xs: Vec<f64> = (0..100).map(|_| next()).collect();
        let ys: Vec<f64> = (0..100).map(|_| next()).collect();
        let c = spearman(&xs, &ys).unwrap();
        assert!(c.rho.abs() < 0.25, "rho {}", c.rho);
        assert!(!c.significant() || c.rho.abs() < 0.25);
    }

    #[test]
    fn average_ranks_with_ties() {
        let r = average_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
        let r = average_ranks(&[5.0, 5.0, 5.0]);
        assert_eq!(r, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn average_ranks_nan_does_not_panic() {
        // Regression: `partial_cmp(..).unwrap()` aborted on any NaN in
        // this public API. Total order ranks NaN above +inf.
        let r = average_ranks(&[2.0, f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(r, vec![2.0, 4.0, 1.0, 3.0]);
        // Negative NaN ranks below -inf; identical NaNs tie.
        let neg_nan = -f64::NAN;
        let r = average_ranks(&[neg_nan, f64::NEG_INFINITY, neg_nan]);
        assert_eq!(r, vec![1.5, 3.0, 1.5]);
    }

    #[test]
    fn spearman_p_value_reference() {
        // Hand check: displacements d = [0,1,1,0,0,1,1,0,1,1], Σd² = 6,
        // ρ = 1 − 6·6 / (10·99) = 0.963636…
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let ys = vec![1.0, 3.0, 2.0, 4.0, 5.0, 7.0, 6.0, 8.0, 10.0, 9.0];
        let c = spearman(&xs, &ys).unwrap();
        assert!((c.rho - 0.963_636).abs() < 1e-4, "rho {}", c.rho);
        assert!(c.p_value < 1e-3);
        assert!(c.significant());
    }

    #[test]
    fn matrix_shape_and_diagonal() {
        let series = vec![
            WeeklySeries::new("a", (0..50).map(|i| i as f64).collect()),
            WeeklySeries::new("b", (0..50).map(|i| (50 - i) as f64).collect()),
            WeeklySeries::new("c", (0..50).map(|i| (i * i) as f64).collect()),
        ];
        let m = correlation_matrix(&series, Method::Spearman);
        assert_eq!(m.names.len(), 3);
        for i in 0..3 {
            assert!((m.get(i, i).unwrap().rho - 1.0).abs() < 1e-12);
        }
        assert!((m.get(0, 1).unwrap().rho + 1.0).abs() < 1e-12);
        assert!((m.get(0, 2).unwrap().rho - 1.0).abs() < 1e-12);
        // Symmetric.
        let ab = m.get(0, 1).unwrap().rho;
        let ba = m.get(1, 0).unwrap().rho;
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn box_stats_basics() {
        let b = box_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.mean, 3.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.n, 5);
    }

    #[test]
    fn box_stats_drops_nans_and_handles_empty() {
        let b = box_stats(&[f64::NAN, 1.0, 3.0]).unwrap();
        assert_eq!(b.n, 2);
        assert_eq!(b.median, 2.0);
        assert!(box_stats(&[f64::NAN]).is_none());
        assert!(box_stats(&[]).is_none());
    }

    #[test]
    fn quarterly_correlations_count() {
        // Full-length study series ⇒ 18 quarters (2019Q1..2023Q2).
        let a = WeeklySeries::new("a", (0..simcore::STUDY_WEEKS).map(|i| i as f64).collect());
        let b = WeeklySeries::new("b", (0..simcore::STUDY_WEEKS).map(|i| (i * 2) as f64).collect());
        let qs = quarterly_correlations(&a, &b);
        assert_eq!(qs.len(), 18);
        // Perfectly correlated in every quarter.
        assert!(qs.iter().all(|&r| (r - 1.0).abs() < 1e-9));
    }
}
