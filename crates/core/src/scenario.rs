//! Study configuration: one struct that pins down everything a run
//! needs, so a single seed reproduces the whole paper.
//!
//! Every field is classified by the pipeline **stage** it feeds —
//! `plan`, `attacks`, `observations`, projection, or execution-only —
//! and that classification drives the content-addressed stage cache
//! (DESIGN.md §7). The inventory lives in
//! [`crate::stagecache::FIELD_STAGES`] and is enforced by a unit test:
//! adding a field here without classifying it there fails the build's
//! test suite instead of silently poisoning the cache.

use crate::error::{Error, Result};
use crate::faults::{ChaosPlan, FaultPlan};
use attackgen::GenConfig;
use netmodel::NetScale;
use serde::{Deserialize, Serialize};

/// Observation-stage parameters: knobs that change what the
/// observatories report without touching the Internet plan or the
/// ground-truth attack stream. Sweeping one of these re-runs *only*
/// the observation stage — the stage cache serves the plan and the
/// attacks unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsParams {
    /// Honeypot carpet-reconstruction merge gap in seconds (Appendix
    /// I): same-prefix events closer than this collapse into one
    /// carpet-bombing attack.
    pub carpet_gap_secs: u32,
}

impl Default for ObsParams {
    fn default() -> Self {
        ObsParams { carpet_gap_secs: 3600 }
    }
}

/// Full configuration of a study run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Master seed; every stochastic component forks from it.
    pub seed: u64,
    pub net: NetScale,
    pub gen: GenConfig,
    /// Observation-stage parameters (honeypot carpet reconstruction).
    pub obs: ObsParams,
    /// Reproduce the paper's missing-data gaps (ORION 2019Q3–Q4, IXP
    /// January 2019, §6.1) by masking those weeks.
    pub missing_data: bool,
    /// Deterministic data-plane fault injection: per-source outage
    /// windows, honeypot sensor churn, flow sampling degradation.
    /// Empty (the default) is bit-for-bit identical to no fault plan.
    /// Stage class: observations — changing it re-keys only the
    /// observation stage.
    pub faults: FaultPlan,
    /// Deterministic control-plane fault injection (panicking pool
    /// shards and stage computes, recovered by bounded retry). `None`
    /// disables injection. Stage class: execution — output bytes are
    /// invariant to this knob as long as failures stay within the
    /// retry budget.
    pub chaos: Option<ChaosPlan>,
    /// Worker count for the execution pool. `None` runs on
    /// [`simcore::ExecPool::global`], one worker per available core.
    /// Results are identical for every setting — the pool merges
    /// shards in deterministic order.
    pub workers: Option<usize>,
    /// Stage-cache bound in entries. `None` means
    /// [`crate::stagecache::DEFAULT_BOUND`]; `Some(0)` disables
    /// cross-run caching for this config. Results are byte-identical
    /// either way — the cache stores exact stage outputs keyed by
    /// fingerprints of exactly their inputs.
    pub stage_cache: Option<usize>,
    /// Persistent stage-store directory (DESIGN.md §11). `Some(dir)`
    /// enables the disk tier there; `None`, an empty string or `off`
    /// runs without it. Results are byte-identical either way: loads
    /// are integrity-checked and a rejected cell falls back to
    /// recompute.
    pub disk_store: Option<String>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 0xDD05_C0DE,
            net: NetScale::default(),
            gen: GenConfig::default(),
            obs: ObsParams::default(),
            missing_data: true,
            faults: FaultPlan::default(),
            chaos: None,
            workers: None,
            stage_cache: None,
            disk_store: None,
        }
    }
}

/// `Ok` when `v` is finite, else a [`Error::Config`] naming `field`.
fn finite(field: &'static str, v: f64) -> Result<()> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(Error::config(field, format!("must be finite, got {v}")))
    }
}

/// Finite and `>= 0`.
fn non_negative(field: &'static str, v: f64) -> Result<()> {
    finite(field, v)?;
    if v >= 0.0 {
        Ok(())
    } else {
        Err(Error::config(field, format!("must be >= 0, got {v}")))
    }
}

/// Finite and `> 0`.
fn positive(field: &'static str, v: f64) -> Result<()> {
    finite(field, v)?;
    if v > 0.0 {
        Ok(())
    } else {
        Err(Error::config(field, format!("must be > 0, got {v}")))
    }
}

/// Finite and within `[0, 1]`. Shared with the fault-plan validation in
/// [`crate::faults`].
pub(crate) fn fraction(field: &'static str, v: f64) -> Result<()> {
    finite(field, v)?;
    if (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(Error::config(field, format!("must be within [0, 1], got {v}")))
    }
}

impl StudyConfig {
    /// The full paper-scale study (≈ 600k attacks over 4.5 years).
    pub fn paper() -> Self {
        StudyConfig::default()
    }

    /// A reduced study for tests and quick examples: ~1/8 of the attack
    /// volume, smaller tail AS population. Trends keep their shapes
    /// (the timeline is unchanged); only counting noise grows.
    pub fn quick() -> Self {
        let mut cfg = StudyConfig {
            net: NetScale::tiny(),
            ..StudyConfig::default()
        };
        cfg.gen.timeline.dp_base_per_week /= 8.0;
        cfg.gen.timeline.ra_base_per_week /= 8.0;
        cfg.gen.random_campaign_count = 8;
        cfg.gen.campaign_rate_scale = 1.0 / 8.0;
        cfg
    }

    /// Check every generator invariant. Returns the first violation as
    /// a typed [`Error::Config`] carrying the dotted path of the
    /// offending field. A config that passes runs the whole pipeline
    /// without panicking (enforced by `tests/no_panic_fuzz.rs`).
    pub fn validate(&self) -> Result<()> {
        // Execution knobs.
        if self.workers == Some(0) {
            return Err(Error::config("workers", "must be at least 1 when set"));
        }

        // Internet plan (stage: plan).
        let net = &self.net;
        if net.tail_as_count == 0 {
            return Err(Error::config("net.tail_as_count", "must be at least 1"));
        }
        if net.reflector_pool_total == 0 {
            return Err(Error::config("net.reflector_pool_total", "must be at least 1"));
        }
        fraction("net.netscout_customer_fraction", net.netscout_customer_fraction)?;
        fraction("net.ixp_member_fraction", net.ixp_member_fraction)?;
        fraction("net.akamai_protected_fraction", net.akamai_protected_fraction)?;
        positive("net.tail_weight_exponent", net.tail_weight_exponent)?;

        // Attack timeline (stage: attacks).
        let t = &self.gen.timeline;
        non_negative("gen.timeline.dp_base_per_week", t.dp_base_per_week)?;
        non_negative("gen.timeline.ra_base_per_week", t.ra_base_per_week)?;
        finite("gen.timeline.dp_growth_per_year", t.dp_growth_per_year)?;
        finite("gen.timeline.ra_growth_per_year", t.ra_growth_per_year)?;
        non_negative("gen.timeline.pandemic_peak_dp", t.pandemic_peak_dp)?;
        non_negative("gen.timeline.pandemic_peak_ra", t.pandemic_peak_ra)?;
        fraction("gen.timeline.sav_reduction", t.sav_reduction)?;
        fraction("gen.timeline.takedown_dip", t.takedown_dip)?;
        positive("gen.timeline.takedown_recovery_weeks", t.takedown_recovery_weeks)?;
        non_negative("gen.timeline.seasonal_amplitude", t.seasonal_amplitude)?;
        non_negative("gen.timeline.ra_2023_recovery", t.ra_2023_recovery)?;
        non_negative("gen.timeline.noise_sigma", t.noise_sigma)?;
        fraction("gen.timeline.dp_spoofed_fraction_start", t.dp_spoofed_fraction_start)?;
        fraction("gen.timeline.dp_spoofed_fraction_end", t.dp_spoofed_fraction_end)?;

        // Attack shapes (stage: attacks).
        let s = &self.gen.shape;
        positive("gen.shape.duration_median_secs", s.duration_median_secs)?;
        non_negative("gen.shape.duration_sigma", s.duration_sigma)?;
        if s.duration_min_secs == 0 {
            return Err(Error::config("gen.shape.duration_min_secs", "must be at least 1"));
        }
        if s.duration_min_secs > s.duration_max_secs {
            return Err(Error::config(
                "gen.shape.duration_min_secs",
                format!(
                    "window inverted: min {} > max {}",
                    s.duration_min_secs, s.duration_max_secs
                ),
            ));
        }
        positive("gen.shape.pps_min", s.pps_min)?;
        positive("gen.shape.pps_alpha", s.pps_alpha)?;
        positive("gen.shape.pps_max", s.pps_max)?;
        if s.pps_max < s.pps_min {
            return Err(Error::config(
                "gen.shape.pps_max",
                format!("window inverted: max {} < min {}", s.pps_max, s.pps_min),
            ));
        }
        positive("gen.shape.bytes_per_packet", s.bytes_per_packet)?;
        fraction("gen.shape.carpet_probability", s.carpet_probability)?;
        if s.carpet_min_targets == 0 {
            return Err(Error::config("gen.shape.carpet_min_targets", "must be at least 1"));
        }
        if s.carpet_min_targets > s.carpet_max_targets {
            return Err(Error::config(
                "gen.shape.carpet_min_targets",
                format!(
                    "window inverted: min {} > max {}",
                    s.carpet_min_targets, s.carpet_max_targets
                ),
            ));
        }
        positive("gen.shape.reflector_median", s.reflector_median)?;
        non_negative("gen.shape.reflector_sigma", s.reflector_sigma)?;
        fraction("gen.shape.multi_class_probability", s.multi_class_probability)?;
        fraction("gen.shape.partial_spoof_probability", s.partial_spoof_probability)?;
        fraction("gen.shape.partial_spoof_min", s.partial_spoof_min)?;
        fraction("gen.shape.partial_spoof_max", s.partial_spoof_max)?;
        if s.partial_spoof_min > s.partial_spoof_max {
            return Err(Error::config(
                "gen.shape.partial_spoof_min",
                format!(
                    "window inverted: min {} > max {}",
                    s.partial_spoof_min, s.partial_spoof_max
                ),
            ));
        }

        // Campaign layering (stage: attacks).
        non_negative("gen.campaign_rate_scale", self.gen.campaign_rate_scale)?;
        fraction("gen.akamai_dp_accept_start", self.gen.akamai_dp_accept_start)?;
        fraction("gen.akamai_dp_accept_end", self.gen.akamai_dp_accept_end)?;

        // Observation stage.
        if self.obs.carpet_gap_secs == 0 {
            return Err(Error::config("obs.carpet_gap_secs", "must be at least 1"));
        }

        // Fault injection (stage: observations / execution).
        self.faults.validate()?;
        if let Some(chaos) = &self.chaos {
            chaos.validate()?;
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller() {
        let q = StudyConfig::quick();
        let p = StudyConfig::paper();
        assert!(q.gen.timeline.dp_base_per_week < p.gen.timeline.dp_base_per_week);
        assert!(q.net.tail_as_count < p.net.tail_as_count);
        assert_eq!(q.seed, p.seed);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = StudyConfig::quick();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: StudyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(
            back.gen.timeline.ra_base_per_week,
            cfg.gen.timeline.ra_base_per_week
        );
        assert_eq!(back.obs.carpet_gap_secs, cfg.obs.carpet_gap_secs);
        assert_eq!(back.stage_cache, cfg.stage_cache);
        assert_eq!(back.disk_store, cfg.disk_store);
        assert_eq!(back.faults, cfg.faults);
        assert_eq!(back.chaos, cfg.chaos);
    }

    #[test]
    fn serde_roundtrips_a_populated_fault_plan() {
        let mut cfg = StudyConfig::quick();
        cfg.faults.outages.push(crate::faults::OutageSpec {
            source: "orion".into(),
            start_week: 3,
            end_week: 11,
        });
        cfg.faults.honeypot_churn =
            Some(crate::faults::ChurnSpec { decline_per_year: 0.2, offline_weekly: 0.1 });
        cfg.chaos = Some(ChaosPlan::recoverable(0.25, 99));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: StudyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, cfg.faults);
        assert_eq!(back.chaos, cfg.chaos);
    }

    #[test]
    fn presets_self_validate() {
        assert!(StudyConfig::paper().validate().is_ok());
        assert!(StudyConfig::quick().validate().is_ok());
    }

    /// Every corruption the fuzz harness applies must surface with the
    /// exact dotted field path it expects.
    #[test]
    fn validate_names_the_poisoned_field() {
        let cases: Vec<(&'static str, Box<dyn Fn(&mut StudyConfig)>)> = vec![
            ("workers", Box::new(|c| c.workers = Some(0))),
            ("net.tail_as_count", Box::new(|c| c.net.tail_as_count = 0)),
            (
                "net.ixp_member_fraction",
                Box::new(|c| c.net.ixp_member_fraction = -0.1),
            ),
            (
                "gen.timeline.dp_base_per_week",
                Box::new(|c| c.gen.timeline.dp_base_per_week = f64::NAN),
            ),
            (
                "gen.timeline.ra_base_per_week",
                Box::new(|c| c.gen.timeline.ra_base_per_week = -3.0),
            ),
            (
                "gen.timeline.sav_reduction",
                Box::new(|c| c.gen.timeline.sav_reduction = 1.5),
            ),
            (
                "gen.timeline.noise_sigma",
                Box::new(|c| c.gen.timeline.noise_sigma = f64::INFINITY),
            ),
            (
                "gen.shape.duration_min_secs",
                Box::new(|c| {
                    c.gen.shape.duration_min_secs = 100;
                    c.gen.shape.duration_max_secs = 10;
                }),
            ),
            (
                "gen.shape.pps_min",
                Box::new(|c| c.gen.shape.pps_min = f64::NEG_INFINITY),
            ),
            ("obs.carpet_gap_secs", Box::new(|c| c.obs.carpet_gap_secs = 0)),
            (
                "faults.outages",
                Box::new(|c| {
                    c.faults.outages.push(crate::faults::OutageSpec {
                        source: "atlantis".into(),
                        start_week: 0,
                        end_week: 4,
                    })
                }),
            ),
            (
                "faults.honeypot_churn.offline_weekly",
                Box::new(|c| {
                    c.faults.honeypot_churn = Some(crate::faults::ChurnSpec {
                        decline_per_year: 0.1,
                        offline_weekly: f64::NAN,
                    })
                }),
            ),
            (
                "chaos.probability",
                Box::new(|c| {
                    c.chaos = Some(ChaosPlan { probability: -0.5, failures_per_site: 1, seed: 0 })
                }),
            ),
        ];
        for (field, poison) in cases {
            let mut cfg = StudyConfig::quick();
            poison(&mut cfg);
            match cfg.validate() {
                Err(Error::Config { field: named, .. }) => {
                    assert_eq!(named, field, "wrong field named for {field}")
                }
                other => panic!("{field}: expected Config error, got {other:?}"),
            }
        }
    }
}
