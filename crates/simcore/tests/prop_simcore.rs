//! Property-based tests for the RNG and distributions.

use proptest::prelude::*;
use simcore::dist::{binomial, log_normal, pareto, poisson, smoothstep, Zipf};
use simcore::time::{Date, SimTime, SECS_PER_DAY};
use simcore::SimRng;

proptest! {
    /// Determinism: the same seed always yields the same stream.
    #[test]
    fn rng_deterministic(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Fork independence: forking never advances the parent, and
    /// differently-tagged children disagree.
    #[test]
    fn rng_fork_isolated(seed in any::<u64>(), t1 in any::<u64>(), t2 in any::<u64>()) {
        prop_assume!(t1 != t2);
        let parent = SimRng::new(seed);
        let before = parent.clone();
        let mut c1 = parent.fork(t1);
        let mut c2 = parent.fork(t2);
        prop_assert_eq!(parent, before);
        let same = (0..16).filter(|_| c1.next_u64() == c2.next_u64()).count();
        prop_assert!(same < 2);
    }

    /// Bounded draws stay in bounds.
    #[test]
    fn rng_bounds(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert!(r.u64_below(n) < n);
            let f = r.f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    /// sample_indices yields k distinct in-range indices for any valid
    /// (n, k).
    #[test]
    fn sample_indices_valid(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..=1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut r = SimRng::new(seed);
        let s = r.sample_indices(n, k);
        prop_assert_eq!(s.len(), k);
        let set: std::collections::HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// Distribution supports: every sampler respects its support.
    #[test]
    fn distribution_supports(seed in any::<u64>()) {
        let mut r = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert!(pareto(&mut r, 3.0, 1.5) >= 3.0);
            prop_assert!(log_normal(&mut r, 0.0, 1.0) > 0.0);
        }
    }

    /// Binomial never exceeds n; Poisson(0) is 0.
    #[test]
    fn counting_distributions(seed in any::<u64>(), n in 0u64..10_000, p in 0.0f64..=1.0) {
        let mut r = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(binomial(&mut r, n, p) <= n);
        }
        prop_assert_eq!(poisson(&mut r, 0.0), 0);
    }

    /// Zipf samples stay in range and the PMF is a valid distribution.
    #[test]
    fn zipf_valid(seed in any::<u64>(), n in 1usize..500, s in 0.2f64..3.0) {
        let z = Zipf::new(n, s);
        let mut r = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(z.sample(&mut r) < n);
        }
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Monotone decreasing mass.
        for k in 1..n {
            prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    /// Smoothstep is monotone and clamped.
    #[test]
    fn smoothstep_monotone(a in -2.0f64..2.0, b in -2.0f64..2.0) {
        prop_assume!(a <= b);
        prop_assert!(smoothstep(a) <= smoothstep(b) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&smoothstep(a)));
    }

    /// Calendar round-trips for any day in a broad range.
    #[test]
    fn date_roundtrip(days in -100_000i64..100_000) {
        let d = Date::from_unix_days(days);
        prop_assert_eq!(d.to_unix_days(), days);
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!((1..=31).contains(&d.day));
    }

    /// Day and week indexing are consistent under second offsets.
    #[test]
    fn time_indexing_consistent(day in 0i64..1642, sec in 0i64..86_400) {
        let t = SimTime(day * SECS_PER_DAY + sec);
        prop_assert_eq!(t.day_index(), day);
        prop_assert_eq!(t.week_index(), day.div_euclid(7));
        prop_assert!(t.in_study());
    }
}
