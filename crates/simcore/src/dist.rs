//! Statistical distributions used by the attack generator and the
//! observatory visibility models.
//!
//! Only the distributions the models actually need are implemented, each
//! with a straightforward, well-tested algorithm. All samplers draw from
//! [`crate::rng::SimRng`] so the whole simulation stays deterministic.

use crate::rng::SimRng;

/// Standard normal via the Marsaglia polar method.
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    loop {
        let u = 2.0 * rng.f64() - 1.0;
        let v = 2.0 * rng.f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Normal with the given mean and standard deviation.
pub fn normal(rng: &mut SimRng, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(std_dev >= 0.0);
    mean + std_dev * standard_normal(rng)
}

/// Log-normal: `exp(N(mu, sigma))`. `mu`/`sigma` parameterize the
/// underlying normal (natural-log scale).
pub fn log_normal(rng: &mut SimRng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Pareto (type I) with scale `x_min > 0` and shape `alpha > 0`.
/// Heavy-tailed; used for attack sizes and durations.
pub fn pareto(rng: &mut SimRng, x_min: f64, alpha: f64) -> f64 {
    debug_assert!(x_min > 0.0 && alpha > 0.0);
    x_min / (1.0 - rng.f64()).powf(1.0 / alpha)
}

/// Poisson-distributed count with mean `lambda`.
///
/// Knuth's multiplication method for small `lambda`; for large `lambda`
/// a normal approximation with continuity correction (the generator only
/// needs counts, not tail-exact probabilities, for `lambda` that large).
pub fn poisson(rng: &mut SimRng, lambda: f64) -> u64 {
    debug_assert!(lambda >= 0.0);
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = normal(rng, lambda, lambda.sqrt()) + 0.5;
        if x < 0.0 {
            0
        } else {
            x as u64
        }
    }
}

/// Binomial(n, p) count.
///
/// Exact Bernoulli summation for small `n`; inversion via Poisson/normal
/// approximations for large `n` (adequate for visibility sampling where
/// `n` is a packet count).
pub fn binomial(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if n <= 64 {
        (0..n).filter(|_| rng.chance(p)).count() as u64
    } else if mean < 30.0 && p < 0.05 {
        // Poisson limit; clamp to n.
        poisson(rng, mean).min(n)
    } else {
        // Normal approximation with continuity correction.
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let x = normal(rng, mean, sd) + 0.5;
        if x < 0.0 {
            0
        } else {
            (x as u64).min(n)
        }
    }
}

/// A Zipf (power-law rank) distribution over `n` ranks `0..n`, with
/// exponent `s > 0`. Rank 0 is the most probable. Sampling is by binary
/// search over the precomputed CDF — O(log n) per draw after O(n) setup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the distribution. Panics if `n == 0` or `s <= 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Sample a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        // partition_point returns the first index with cdf[i] >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of a rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank >= self.cdf.len() {
            return 0.0;
        }
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

/// Smoothstep easing on `[0, 1]`, clamped outside. Used for gradual
/// model transitions (e.g. SAV deployment ramping up over months).
pub fn smoothstep(t: f64) -> f64 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xD15EA5E)
    }

    fn mean_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let s: Vec<f64> = (0..100_000).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let (m, v) = mean_var(&s);
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.0).abs() < 0.15, "var {v}");
    }

    #[test]
    fn log_normal_positive_and_median() {
        let mut r = rng();
        let mut s: Vec<f64> = (0..50_001).map(|_| log_normal(&mut r, 1.0, 0.5)).collect();
        assert!(s.iter().all(|&x| x > 0.0));
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = s[s.len() / 2];
        // median of lognormal is exp(mu)
        assert!((median - 1f64.exp()).abs() < 0.1, "median {median}");
    }

    #[test]
    fn pareto_bounds_and_tail() {
        let mut r = rng();
        let s: Vec<f64> = (0..100_000).map(|_| pareto(&mut r, 2.0, 1.5)).collect();
        assert!(s.iter().all(|&x| x >= 2.0));
        // For alpha=1.5, P(X > 8) = (2/8)^1.5 = 0.125^... = (0.25)^1.5 = 0.125
        let tail = s.iter().filter(|&&x| x > 8.0).count() as f64 / s.len() as f64;
        assert!((tail - 0.125).abs() < 0.01, "tail {tail}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let mut r = rng();
        let s: Vec<f64> = (0..100_000).map(|_| poisson(&mut r, 3.5) as f64).collect();
        let (m, v) = mean_var(&s);
        assert!((m - 3.5).abs() < 0.05, "mean {m}");
        assert!((v - 3.5).abs() < 0.15, "var {v}");
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let mut r = rng();
        let s: Vec<f64> = (0..50_000).map(|_| poisson(&mut r, 400.0) as f64).collect();
        let (m, v) = mean_var(&s);
        assert!((m - 400.0).abs() < 0.5, "mean {m}");
        assert!((v - 400.0).abs() < 10.0, "var {v}");
    }

    #[test]
    fn binomial_edges() {
        let mut r = rng();
        assert_eq!(binomial(&mut r, 0, 0.5), 0);
        assert_eq!(binomial(&mut r, 10, 0.0), 0);
        assert_eq!(binomial(&mut r, 10, 1.0), 10);
    }

    #[test]
    fn binomial_small_n_moments() {
        let mut r = rng();
        let s: Vec<f64> = (0..100_000).map(|_| binomial(&mut r, 20, 0.3) as f64).collect();
        let (m, v) = mean_var(&s);
        assert!((m - 6.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.2).abs() < 0.15, "var {v}");
    }

    #[test]
    fn binomial_poisson_regime() {
        let mut r = rng();
        // n large, p tiny -> Poisson limit
        let s: Vec<f64> = (0..50_000)
            .map(|_| binomial(&mut r, 1_000_000, 5e-6) as f64)
            .collect();
        let (m, v) = mean_var(&s);
        assert!((m - 5.0).abs() < 0.1, "mean {m}");
        assert!((v - 5.0).abs() < 0.3, "var {v}");
    }

    #[test]
    fn binomial_normal_regime_bounded() {
        let mut r = rng();
        for _ in 0..10_000 {
            let x = binomial(&mut r, 1000, 0.5);
            assert!(x <= 1000);
        }
    }

    #[test]
    fn zipf_rank0_most_probable() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        // Zipf s=1: p(rank1)/p(rank2) = 2
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 1.2);
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(50), 0.0);
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 2.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_zero() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn smoothstep_shape() {
        assert_eq!(smoothstep(-1.0), 0.0);
        assert_eq!(smoothstep(0.0), 0.0);
        assert!((smoothstep(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(smoothstep(1.0), 1.0);
        assert_eq!(smoothstep(2.0), 1.0);
        assert!(smoothstep(0.25) < 0.25); // ease-in
        assert!(smoothstep(0.75) > 0.75); // ease-out
    }
}
