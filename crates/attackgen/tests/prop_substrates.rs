//! Property-based tests for the mechanistic substrates (SAV deployment,
//! booter market) and the trend timeline.

use attackgen::timeline::TimelineParams;
use attackgen::{BooterMarket, BooterMarketParams, SavModel, SavParams};
use netmodel::{InternetPlan, NetScale};
use proptest::prelude::*;
use simcore::{SimRng, SimTime, STUDY_WEEKS};
use std::sync::OnceLock;

fn plan() -> &'static InternetPlan {
    static PLAN: OnceLock<InternetPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let mut rng = SimRng::new(55);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SAV deployment is monotone for any parameterization, and the
    /// spoofable capacity mirrors it downward.
    #[test]
    fn sav_monotone_under_any_params(
        initial in 0.0f64..0.9,
        adoption in 0.0f64..1.0,
        resistance in 0.1f64..1.0,
        seed in any::<u64>(),
    ) {
        let params = SavParams {
            initial_deployment: initial,
            campaign_adoption: adoption,
            hoster_resistance: resistance,
            ..SavParams::default()
        };
        let model = SavModel::build(plan(), params, &SimRng::new(seed));
        let mut prev_enforcing = -1.0;
        let mut prev_capacity = 2.0;
        for w in (0..STUDY_WEEKS as i64).step_by(13) {
            let t = SimTime::from_weeks(w);
            let e = model.enforcing_fraction(t);
            let c = model.spoofable_capacity(t);
            prop_assert!((0.0..=1.0).contains(&e));
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(e >= prev_enforcing - 1e-12);
            prop_assert!(c <= prev_capacity + 1e-12);
            prev_enforcing = e;
            prev_capacity = c;
        }
    }

    /// The booter market conserves demand: capacity never exceeds the
    /// initial total, never goes negative, and stranded demand is
    /// eventually recaptured (late capacity near the original).
    #[test]
    fn booter_market_demand_conserved(
        population in 10usize..120,
        exponent in 0.6f64..2.0,
        migration in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let params = BooterMarketParams {
            population,
            popularity_exponent: exponent,
            customer_migration: migration,
            ..BooterMarketParams::default()
        };
        let market = BooterMarket::simulate(params, &SimRng::new(seed));
        let initial = market.capacity_at_week(0);
        for w in (0..STUDY_WEEKS as i64).step_by(7) {
            let c = market.capacity_at_week(w);
            prop_assert!(c >= 0.0);
            prop_assert!(c <= initial * 1.001, "week {w}: {c} > {initial}");
        }
        // Respawns at the default probability recapture almost all of
        // takedown #1's stranded demand before takedown #2 arrives
        // (~20 weeks later). The study *ends* 9 weeks after #2, so the
        // final week legitimately carries unrecovered stragglers —
        // assert the inter-takedown recovery instead.
        let before_second = market.capacity_at_week(market.takedown_weeks[1] - 1);
        prop_assert!(
            before_second > 0.85 * initial,
            "capacity {before_second} of {initial} before takedown #2"
        );
    }

    /// The timeline's weekly rates are positive, finite, and respond
    /// monotonically to their base parameters.
    #[test]
    fn timeline_rates_well_formed(
        dp_base in 10.0f64..5_000.0,
        ra_base in 10.0f64..5_000.0,
        week in 0i64..235,
    ) {
        let p = TimelineParams {
            dp_base_per_week: dp_base,
            ra_base_per_week: ra_base,
            ..TimelineParams::default()
        };
        let t = SimTime::from_weeks(week);
        for class in [
            attackgen::AttackClass::DirectPathSpoofed,
            attackgen::AttackClass::DirectPathNonSpoofed,
            attackgen::AttackClass::ReflectionAmplification,
        ] {
            let r = p.weekly_rate(class, t);
            prop_assert!(r.is_finite() && r > 0.0);
        }
        // Doubling the base doubles the rate (linearity in the base).
        let doubled = TimelineParams {
            ra_base_per_week: ra_base * 2.0,
            ..p.clone()
        };
        let a = p.weekly_rate(attackgen::AttackClass::ReflectionAmplification, t);
        let b = doubled.weekly_rate(attackgen::AttackClass::ReflectionAmplification, t);
        prop_assert!((b / a - 2.0).abs() < 1e-9);
    }

    /// Vector mixes are valid distributions at every instant.
    #[test]
    fn vector_mix_valid(week in 0i64..235) {
        let p = TimelineParams::default();
        let mix = p.vector_mix(SimTime::from_weeks(week));
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(mix.iter().all(|(_, w)| (0.0..=1.0).contains(w)));
    }
}
