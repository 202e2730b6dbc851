//! Seeded control-plane fault injection.
//!
//! A [`ChaosSchedule`] decides, from `(seed, site, unit)` alone, whether a
//! given unit of work fails and how many times. Because the decision is a
//! pure hash of *logical* identity — a pool shard index, a stage
//! fingerprint — and never of thread identity or timing, the same
//! schedule injects the same panics at the same places on every run and
//! for every worker count. Combined with the bounded retry in
//! [`crate::recover`], a site scheduled to fail fewer than
//! [`crate::recover::MAX_ATTEMPTS`] times recovers to the identical value
//! it would have produced with chaos off, which is what lets the
//! byte-identical-output invariant hold *under* injected faults.

use crate::rng::{fnv1a64, SimRng};
use std::sync::{Arc, OnceLock};

/// Deterministic schedule of injected control-plane failures.
///
/// `Copy` on purpose: `ExecPool` stays `Copy` with a schedule embedded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSchedule {
    /// Seed for the site/unit hash; independent of the study seed.
    pub seed: u64,
    /// Probability that a given `(site, unit)` is scheduled to fail.
    pub probability: f64,
    /// How many consecutive attempts fail at a scheduled site.
    /// `>= MAX_ATTEMPTS` makes the failure permanent.
    pub failures_per_site: u32,
}

fn injected_counter() -> &'static Arc<obs::metrics::Counter> {
    static C: OnceLock<Arc<obs::metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("fault.injected"))
}

impl ChaosSchedule {
    /// Number of failing attempts scheduled for this `(site, unit)`.
    pub fn failures_at(&self, site: &str, unit: u64) -> u32 {
        if self.probability <= 0.0 || self.failures_per_site == 0 {
            return 0;
        }
        let mut rng = SimRng::new(self.seed ^ fnv1a64(site.as_bytes())).fork(unit);
        if rng.chance(self.probability) {
            self.failures_per_site
        } else {
            0
        }
    }

    /// Panic iff this `(site, unit, attempt)` is scheduled to fail.
    ///
    /// Call this at the top of a recovery-wrapped computation; the panic
    /// message carries the site so the retry layer and test assertions
    /// can tell injected faults from organic ones.
    pub fn maybe_fail(&self, site: &str, unit: u64, attempt: u32) {
        if attempt < self.failures_at(site, unit) {
            injected_counter().inc();
            panic!("chaos: injected failure at {site}[{unit:#018x}] attempt {attempt}");
        }
    }
}

/// Registry of injection sites wired into production code paths.
///
/// Site labels feed both the `(seed, site, unit)` failure hash and the
/// `chaos.caught.*` / `chaos.recovered.*` trace instants, so they are
/// part of the reproducibility surface: renaming one silently reshuffles
/// which units fail under a given seed. Declaring them here keeps the
/// label set reviewable and lets tests assert coverage. (Tests may use
/// ad-hoc labels; production call sites should use these constants.)
pub mod sites {
    /// Attack-plan stage compute (`crates/core` pipeline).
    pub const STAGE_PLAN: &str = "stage.plan";
    /// Attack-materialization stage compute.
    pub const STAGE_ATTACKS: &str = "stage.attacks";
    /// One shard closure inside [`crate::pool::ExecPool`].
    pub const POOL_SHARD: &str = "pool.shard";
    /// One grid point of a parameter sweep (`crates/core::sweep`).
    pub const SWEEP_POINT: &str = "sweep.point";
    /// One HTTP request handled by the query service (`crates/serve`).
    /// Retry budget is 1 by design: an injected panic 500s exactly that
    /// request and the worker moves on.
    pub const HTTP_REQUEST: &str = "http.request";

    /// Every registered production site.
    pub const ALL: &[&str] = &[STAGE_PLAN, STAGE_ATTACKS, POOL_SHARD, SWEEP_POINT, HTTP_REQUEST];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover;

    const CS: ChaosSchedule = ChaosSchedule {
        seed: 0xC4A0,
        probability: 0.5,
        failures_per_site: 2,
    };

    #[test]
    fn schedule_is_deterministic_and_site_sensitive() {
        let mut hit = 0;
        for unit in 0..64 {
            let a = CS.failures_at("stage.plan", unit);
            assert_eq!(a, CS.failures_at("stage.plan", unit));
            assert!(a == 0 || a == 2);
            hit += u32::from(a > 0);
        }
        assert!((10..=54).contains(&hit), "p=0.5 should hit roughly half: {hit}");
        let other: u32 = (0..64).map(|u| CS.failures_at("pool.shard", u)).sum();
        assert_ne!(other, (0..64).map(|u| CS.failures_at("stage.plan", u)).sum::<u32>());
    }

    #[test]
    fn zero_probability_never_fires() {
        let cs = ChaosSchedule { probability: 0.0, ..CS };
        for unit in 0..256 {
            cs.maybe_fail("anywhere", unit, 0);
        }
    }

    #[test]
    fn transient_failures_recover_within_budget() {
        let cs = ChaosSchedule { probability: 1.0, ..CS };
        assert!(cs.failures_per_site < recover::MAX_ATTEMPTS);
        let v = recover::try_with_retry("pool.shard", |attempt| {
            cs.maybe_fail("pool.shard", 9, attempt);
            attempt
        });
        assert_eq!(v.map_err(|e| e.message), Ok(2), "fails twice then succeeds");
    }

    #[test]
    fn permanent_failures_exhaust_the_budget() {
        let cs = ChaosSchedule {
            probability: 1.0,
            failures_per_site: recover::MAX_ATTEMPTS,
            ..CS
        };
        assert!(cs.failures_per_site >= recover::MAX_ATTEMPTS);
        let err = recover::try_with_retry("stage.plan", |attempt| {
            cs.maybe_fail("stage.plan", 1, attempt);
        })
        .expect_err("must exhaust");
        assert!(err.message.contains("chaos: injected failure"), "{}", err.message);
    }

    #[test]
    fn site_registry_covers_production_labels() {
        assert!(sites::ALL.contains(&sites::HTTP_REQUEST));
        assert!(!sites::ALL.contains(&"anywhere"));
        // Distinct labels hash to distinct failure sets (otherwise two
        // registered sites would fail in lockstep under every seed).
        let cs = ChaosSchedule { probability: 0.5, ..CS };
        let sets: Vec<Vec<u32>> = sites::ALL
            .iter()
            .map(|s| (0..64).map(|u| cs.failures_at(s, u)).collect())
            .collect();
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                assert_ne!(sets[i], sets[j], "sites {i} and {j} fail in lockstep");
            }
        }
    }
}
