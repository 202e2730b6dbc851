//! Special mathematical functions needed for the correlation p-values
//! (Fig. 6): log-gamma, the regularized incomplete beta function, and
//! the Student-t two-tailed survival function.
//!
//! Implemented here (with reference-value tests against SciPy outputs)
//! rather than pulling a stats crate — the offline dependency set does
//! not include one, and these four functions are all the paper's
//! statistics require.

/// Natural log of the gamma function (Lanczos approximation, g = 7,
/// n = 9 coefficients). Accurate to ~1e-13 for x > 0.
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta function I_x(a, b) via the Lentz
/// continued-fraction expansion (Numerical Recipes §6.4).
pub fn betai(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "betai needs positive parameters");
    assert!((0.0..=1.0).contains(&x), "betai x out of range: {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front =
        ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for betai (modified Lentz method).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-15;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Two-tailed p-value of a Student-t statistic with `df` degrees of
/// freedom: P(|T| >= |t|).
pub fn t_two_tailed_p(t: f64, df: f64) -> f64 {
    assert!(df > 0.0);
    if !t.is_finite() {
        return 0.0;
    }
    betai(df / 2.0, 0.5, df / (df + t * t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n-1)!
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24f64.ln(), 1e-12);
        close(ln_gamma(11.0), 3_628_800f64.ln(), 1e-10);
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn betai_reference_values() {
        // SciPy: betainc(2, 3, 0.5) = 0.6875
        close(betai(2.0, 3.0, 0.5), 0.6875, 1e-10);
        // betainc(0.5, 0.5, 0.3) = 0.3690101196
        close(betai(0.5, 0.5, 0.3), 0.369_010_119_6, 1e-8);
        // betainc(5, 5, 0.5) = 0.5 (symmetry)
        close(betai(5.0, 5.0, 0.5), 0.5, 1e-12);
    }

    #[test]
    fn betai_boundaries() {
        assert_eq!(betai(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betai(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn betai_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..=20 {
            let x = i as f64 / 20.0;
            let v = betai(3.0, 2.0, x);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn t_pvalue_reference() {
        // SciPy: 2*t.sf(2.0, 10) = 0.07338803
        close(t_two_tailed_p(2.0, 10.0), 0.073_388_03, 1e-6);
        // 2*t.sf(0, df) = 1
        close(t_two_tailed_p(0.0, 5.0), 1.0, 1e-12);
        // Large |t| → p → 0
        assert!(t_two_tailed_p(50.0, 30.0) < 1e-10);
        // Symmetric in t.
        close(t_two_tailed_p(-2.0, 10.0), t_two_tailed_p(2.0, 10.0), 1e-12);
    }

    #[test]
    fn t_pvalue_large_df_approaches_normal() {
        // With df → ∞ the t distribution approaches N(0,1):
        // 2*(1 - Φ(1.96)) ≈ 0.05.
        close(t_two_tailed_p(1.96, 100_000.0), 0.05, 1e-3);
    }
}
