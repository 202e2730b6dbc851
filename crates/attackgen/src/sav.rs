//! Per-AS source-address-validation (SAV) deployment and the Spoofer
//! measurement project (§2.3, §9).
//!
//! The macro timeline compresses the 2021–22 anti-spoofing push into a
//! single multiplier. This module provides the mechanistic substrate
//! underneath it: each AS either enforces SAV (its hosts cannot emit
//! spoofed packets) or does not, deployment spreads over time, and the
//! *spoofable capacity* of the Internet — the share of attack-origin
//! weight in non-enforcing networks — is what actually declines.
//!
//! On top sits a model of CAIDA's **Spoofer project** (§2.3: "relies on
//! users to download software … this volunteer crowdsourced approach
//! yields limited measurement coverage"): a crowdsourced client panel
//! tests a small, biased sample of networks each quarter and estimates
//! coverage — letting us study the estimation error the paper worries
//! about (§9 "Measurement of spoofing").

use netmodel::{AsKind, Asn, InternetPlan};
use serde::{Deserialize, Serialize};
use simcore::{Date, SimRng, SimTime};

/// Parameters of the deployment process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavParams {
    /// Fraction of ASes already enforcing SAV at study start (BCP 38 is
    /// decades old; many networks complied long ago).
    pub initial_deployment: f64,
    /// Fraction of the *remaining* non-enforcing ASes that deploy during
    /// the 2021–22 industry push.
    pub campaign_adoption: f64,
    /// Campaign window (matches §2.3's "concerted effort since 2021").
    pub campaign_start: Date,
    pub campaign_end: Date,
    /// Relative reluctance of hosters to deploy (filtering customer
    /// traffic is harder when customers are the traffic).
    pub hoster_resistance: f64,
}

impl Default for SavParams {
    fn default() -> Self {
        SavParams {
            initial_deployment: 0.42,
            campaign_adoption: 0.55,
            campaign_start: Date::new(2021, 2, 1),
            campaign_end: Date::new(2022, 12, 1),
            hoster_resistance: 0.5,
        }
    }
}

/// One AS's SAV state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SavState {
    pub asn: Asn,
    /// Weight of this AS as an attack *origin* (attacker infrastructure
    /// concentrates in hosters).
    pub origin_weight: f64,
    /// `None` ⇒ never deploys inside the study; `Some(t)` ⇒ enforcing
    /// from `t` on.
    pub enforces_from: Option<SimTime>,
}

impl SavState {
    pub fn enforcing_at(&self, t: SimTime) -> bool {
        self.enforces_from.map(|from| t >= from).unwrap_or(false)
    }
}

/// The deployment model over the whole AS population.
#[derive(Debug, Clone)]
pub struct SavModel {
    pub params: SavParams,
    states: Vec<SavState>,
    total_weight: f64,
}

impl SavModel {
    /// Build deterministic per-AS deployment from the plan.
    pub fn build(plan: &InternetPlan, params: SavParams, rng: &SimRng) -> Self {
        let mut rng = rng.fork_named("sav-deployment");
        let campaign_start = params.campaign_start.to_sim_time();
        let campaign_len =
            params.campaign_end.to_sim_time().0 - campaign_start.0;
        let mut states = Vec::new();
        for rec in plan.registry.iter() {
            if rec.kind == AsKind::Research {
                continue;
            }
            // Attack origin weight: hosters and ISPs house booter
            // infrastructure; weight loosely follows address space.
            let kind_factor = match rec.kind {
                AsKind::Hoster => 3.0,
                AsKind::Isp => 1.5,
                AsKind::Cdn => 0.3,
                AsKind::Business => 0.5,
                AsKind::Research => 0.0,
            };
            let origin_weight = kind_factor * (rec.address_count() as f64).sqrt();
            let initial_p = match rec.kind {
                AsKind::Hoster => params.initial_deployment * params.hoster_resistance,
                _ => params.initial_deployment,
            };
            let enforces_from = if rng.chance(initial_p) {
                Some(simcore::STUDY_START)
            } else {
                let adopt_p = match rec.kind {
                    AsKind::Hoster => params.campaign_adoption * params.hoster_resistance,
                    _ => params.campaign_adoption,
                };
                if rng.chance(adopt_p) {
                    // Adoption instant spread over the campaign window,
                    // front-weighted (early movers).
                    let frac = rng.f64().powf(0.8);
                    Some(campaign_start.plus_secs((frac * campaign_len as f64) as i64))
                } else {
                    None
                }
            };
            states.push(SavState {
                asn: rec.asn,
                origin_weight,
                enforces_from,
            });
        }
        let total_weight = states.iter().map(|s| s.origin_weight).sum();
        SavModel {
            params,
            states,
            total_weight,
        }
    }

    pub fn states(&self) -> &[SavState] {
        &self.states
    }

    /// Fraction of ASes enforcing SAV at `t` (unweighted — what an
    /// auditor counting networks would report).
    pub fn enforcing_fraction(&self, t: SimTime) -> f64 {
        let n = self.states.iter().filter(|s| s.enforcing_at(t)).count();
        n as f64 / self.states.len().max(1) as f64
    }

    /// Fraction of attack-origin *capacity* still able to spoof at `t`
    /// (weighted — what actually drives spoofed-attack volume).
    pub fn spoofable_capacity(&self, t: SimTime) -> f64 {
        let spoofable: f64 = self
            .states
            .iter()
            .filter(|s| !s.enforcing_at(t))
            .map(|s| s.origin_weight)
            .sum();
        spoofable / self.total_weight.max(1e-12)
    }

    /// The macro multiplier this substrate induces: spoofable capacity
    /// normalized to its value at study start. This is the mechanistic
    /// counterpart of `TimelineParams::sav_multiplier`; the
    /// `sav_substrate_matches_macro_curve` test asserts they agree.
    pub fn induced_multiplier(&self, t: SimTime) -> f64 {
        self.spoofable_capacity(t) / self.spoofable_capacity(simcore::STUDY_START)
    }
}

/// The crowdsourced Spoofer measurement panel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpooferPanel {
    /// Networks tested per quarter (the project's limited coverage).
    pub tests_per_quarter: usize,
    /// Sampling bias toward eyeball ISPs (volunteers run the client at
    /// home; hosters are almost never measured from inside).
    pub isp_bias: f64,
}

impl Default for SpooferPanel {
    fn default() -> Self {
        SpooferPanel {
            tests_per_quarter: 25,
            isp_bias: 3.0,
        }
    }
}

/// One quarter's crowdsourced estimate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpooferEstimate {
    pub quarter: i64,
    pub tested: usize,
    /// Estimated fraction of networks enforcing SAV.
    pub estimated_enforcing: f64,
    /// Ground truth over the same instant (for error analysis).
    pub true_enforcing: f64,
}

impl SpooferPanel {
    /// Run the panel across the study: each quarter, sample networks
    /// (ISP-biased) and test them.
    pub fn run(
        &self,
        model: &SavModel,
        plan: &InternetPlan,
        rng: &SimRng,
    ) -> Vec<SpooferEstimate> {
        let mut rng = rng.fork_named("spoofer-panel");
        // Sampling weights: ISPs over-represented.
        let weights: Vec<f64> = model
            .states()
            .iter()
            .map(|s| {
                let kind = plan.registry.get(s.asn).map(|r| r.kind);
                if kind == Some(AsKind::Isp) {
                    self.isp_bias
                } else {
                    1.0
                }
            })
            .collect();
        let mut out = Vec::new();
        for quarter in 0..18i64 {
            // Mid-quarter instant.
            let t = SimTime::from_weeks(quarter * 13 + 6);
            let mut enforcing = 0usize;
            for _ in 0..self.tests_per_quarter {
                let idx = rng.weighted_index(&weights);
                if model.states()[idx].enforcing_at(t) {
                    enforcing += 1;
                }
            }
            out.push(SpooferEstimate {
                quarter,
                tested: self.tests_per_quarter,
                estimated_enforcing: enforcing as f64 / self.tests_per_quarter as f64,
                true_enforcing: model.enforcing_fraction(t),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineParams;
    use netmodel::NetScale;

    fn model() -> (InternetPlan, SavModel) {
        let mut rng = SimRng::new(42);
        let plan = InternetPlan::build(&NetScale::default(), &mut rng);
        let model = SavModel::build(&plan, SavParams::default(), &SimRng::new(7));
        (plan, model)
    }

    fn t(y: i32, m: u8) -> SimTime {
        Date::new(y, m, 15).to_sim_time()
    }

    #[test]
    fn deployment_monotone_over_time() {
        let (_, m) = model();
        let mut prev = 0.0;
        for w in (0..simcore::STUDY_WEEKS as i64).step_by(4) {
            let f = m.enforcing_fraction(SimTime::from_weeks(w));
            assert!(f >= prev - 1e-12, "deployment regressed at week {w}");
            prev = f;
        }
    }

    #[test]
    fn campaign_window_shapes_adoption() {
        let (_, m) = model();
        let before = m.enforcing_fraction(t(2020, 6));
        let start = m.enforcing_fraction(t(2021, 2));
        let after = m.enforcing_fraction(t(2023, 3));
        assert!((before - start).abs() < 0.02, "no adoption before campaign");
        assert!(after > before + 0.2, "campaign should add >20pp coverage");
    }

    #[test]
    fn spoofable_capacity_declines() {
        let (_, m) = model();
        let early = m.spoofable_capacity(t(2019, 3));
        let late = m.spoofable_capacity(t(2023, 3));
        assert!(late < early);
        assert!(early <= 1.0 && late > 0.0);
    }

    #[test]
    fn hosters_lag_in_deployment() {
        let (plan, m) = model();
        let late = t(2023, 5);
        let frac_of_kind = |kind: AsKind| {
            let (n, e) = m
                .states()
                .iter()
                .filter(|s| plan.registry.get(s.asn).map(|r| r.kind) == Some(kind))
                .fold((0usize, 0usize), |(n, e), s| {
                    (n + 1, e + s.enforcing_at(late) as usize)
                });
            e as f64 / n.max(1) as f64
        };
        assert!(
            frac_of_kind(AsKind::Hoster) < frac_of_kind(AsKind::Isp),
            "hosters should lag ISPs"
        );
    }

    #[test]
    fn sav_substrate_matches_macro_curve() {
        // The mechanistic substrate reproduces the macro multiplier the
        // timeline uses, within ±0.12 across the study.
        let (_, m) = model();
        let macro_curve = TimelineParams::default();
        for w in (0..simcore::STUDY_WEEKS as i64).step_by(8) {
            let t = SimTime::from_weeks(w);
            let mech = m.induced_multiplier(t);
            let mac = macro_curve.sav_multiplier(t);
            assert!(
                (mech - mac).abs() < 0.12,
                "week {w}: mechanistic {mech:.3} vs macro {mac:.3}"
            );
        }
    }

    #[test]
    fn induced_multiplier_starts_at_one() {
        let (_, m) = model();
        assert!((m.induced_multiplier(simcore::STUDY_START) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spoofer_panel_tracks_truth_with_noise() {
        let (plan, m) = model();
        let panel = SpooferPanel::default();
        let estimates = panel.run(&m, &plan, &SimRng::new(3));
        assert_eq!(estimates.len(), 18);
        // The estimate tracks the trend but with sampling noise; the
        // mean absolute error over quarters stays moderate while
        // individual quarters can be way off (the paper's coverage
        // complaint).
        let mae: f64 = estimates
            .iter()
            .map(|e| (e.estimated_enforcing - e.true_enforcing).abs())
            .sum::<f64>()
            / estimates.len() as f64;
        assert!(mae < 0.20, "mae {mae}");
        // Trend: last-quarter estimate above first-quarter estimate.
        assert!(
            estimates.last().unwrap().estimated_enforcing
                > estimates.first().unwrap().estimated_enforcing
        );
    }

    #[test]
    fn spoofer_small_panel_is_noisy() {
        // §2.3: "limited measurement coverage" — a 6-test panel has
        // visibly larger error than a 200-test panel.
        let (plan, m) = model();
        let err = |tests: usize, seed: u64| {
            let panel = SpooferPanel {
                tests_per_quarter: tests,
                isp_bias: 3.0,
            };
            let est = panel.run(&m, &plan, &SimRng::new(seed));
            est.iter()
                .map(|e| (e.estimated_enforcing - e.true_enforcing).abs())
                .sum::<f64>()
                / est.len() as f64
        };
        let small: f64 = (0..5).map(|s| err(6, s)).sum::<f64>() / 5.0;
        let large: f64 = (0..5).map(|s| err(200, s)).sum::<f64>() / 5.0;
        assert!(small > large, "small-panel MAE {small} vs large {large}");
    }

    #[test]
    fn deterministic_build() {
        let mut rng = SimRng::new(42);
        let plan = InternetPlan::build(&NetScale::tiny(), &mut rng);
        let a = SavModel::build(&plan, SavParams::default(), &SimRng::new(9));
        let b = SavModel::build(&plan, SavParams::default(), &SimRng::new(9));
        assert_eq!(a.states(), b.states());
    }
}
