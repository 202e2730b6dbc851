//! Study-level fault configuration: the [`FaultPlan`] (data plane) and
//! [`ChaosPlan`] (control plane) knobs on [`crate::StudyConfig`].
//!
//! A `FaultPlan` names faults by **source** — the eight observatory
//! platforms that produce raw observation streams — and is resolved into
//! the per-observatory [`simcore::ObsFaults`] the observe stage consults.
//! It is validated like every other knob and classified `observations`
//! in the stage-cache field inventory. Each observation stream's key
//! folds only its own source's [`FaultPlan::for_source`] slice, so a
//! change re-keys only the outputs of the sources whose slice changed;
//! cached plans and attack streams are always reused.
//!
//! A `ChaosPlan` seeds control-plane failure injection (panicking pool
//! shards and stage computes). It is classified `execution`: under the
//! bounded deterministic retry in `simcore::recover` it must never
//! change a single output byte, and the stage-cache inventory test
//! machine-checks that it does not re-key any stage.

use crate::error::{Error, Result};
use crate::pipeline::ObsId;
use serde::{Deserialize, Serialize};
use simcore::chaos::ChaosSchedule;
use simcore::faults::{FlowDegradation, ObsFaults, OutageWindow, SensorChurn};
use simcore::rng::fnv1a64;
use simcore::STUDY_WEEKS;

/// The raw observation sources a [`FaultPlan`] can name. The flow
/// platforms (`ixp`, `akamai`, `netscout`) each feed two `ObsId` streams
/// (DP and RA splits), so an outage on one source masks both.
pub const FAULT_SOURCES: [&str; 8] = [
    "ucsd", "orion", "hopscotch", "amppot", "newkid", "ixp", "akamai", "netscout",
];

const HONEYPOT_SOURCES: [&str; 3] = ["hopscotch", "amppot", "newkid"];
const FLOW_SOURCES: [&str; 3] = ["ixp", "akamai", "netscout"];

/// One per-source outage window, `[start_week, end_week)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageSpec {
    /// A source slug from [`FAULT_SOURCES`].
    pub source: String,
    pub start_week: u32,
    pub end_week: u32,
}

/// Honeypot sensor-fleet decline and weekly churn, applied to every
/// honeypot source (Hopscotch, AmpPot, NewKid).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Fraction of the fleet lost per study year (linear, clamped ≥ 0).
    pub decline_per_year: f64,
    /// Upper bound on the fraction of sensors offline in any week.
    pub offline_weekly: f64,
}

/// Deterministic data-plane fault injection for one study.
///
/// The default plan is empty and bit-for-bit invisible: no RNG is
/// consumed and no float path is taken anywhere in the observe stage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-source outage windows; the affected weekly series are masked
    /// as *missing* (NaN), never as zero counts.
    pub outages: Vec<OutageSpec>,
    /// Sensor-fleet decline/churn for the honeypot sources.
    pub honeypot_churn: Option<ChurnSpec>,
    /// Sampling degradation, applied to every flow source (IXP,
    /// Akamai, Netscout).
    pub flow_degradation: Option<FlowDegradation>,
    /// Seed for the fault-local draws (churn, sampling); independent of
    /// the study seed so the same gaps can be replayed across seeds.
    pub seed: u64,
}

impl FaultPlan {
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.honeypot_churn.is_none()
            && self.flow_degradation.is_none()
    }

    /// Check every fault invariant; called from `StudyConfig::validate`.
    pub fn validate(&self) -> Result<()> {
        for (i, o) in self.outages.iter().enumerate() {
            if !FAULT_SOURCES.contains(&o.source.as_str()) {
                return Err(Error::config(
                    "faults.outages",
                    format!(
                        "entry {i}: unknown source {:?} (expected one of {})",
                        o.source,
                        FAULT_SOURCES.join(", ")
                    ),
                ));
            }
            if o.start_week >= o.end_week {
                return Err(Error::config(
                    "faults.outages",
                    format!("entry {i}: window inverted: [{}, {})", o.start_week, o.end_week),
                ));
            }
            if o.end_week > STUDY_WEEKS as u32 {
                return Err(Error::config(
                    "faults.outages",
                    format!(
                        "entry {i}: end_week {} past the study ({STUDY_WEEKS} weeks)",
                        o.end_week
                    ),
                ));
            }
        }
        if let Some(c) = &self.honeypot_churn {
            crate::scenario::fraction("faults.honeypot_churn.decline_per_year", c.decline_per_year)?;
            crate::scenario::fraction("faults.honeypot_churn.offline_weekly", c.offline_weekly)?;
        }
        if let Some(d) = &self.flow_degradation {
            crate::scenario::fraction("faults.flow_degradation.drop_fraction", d.drop_fraction)?;
            if d.start_week >= STUDY_WEEKS as u32 {
                return Err(Error::config(
                    "faults.flow_degradation.start_week",
                    format!("must be before week {STUDY_WEEKS}, got {}", d.start_week),
                ));
            }
        }
        Ok(())
    }

    /// Resolve the faults one source consults while observing.
    pub fn for_source(&self, source: &str) -> ObsFaults {
        let outages = self
            .outages
            .iter()
            .filter(|o| o.source == source)
            .map(|o| OutageWindow { start_week: o.start_week, end_week: o.end_week })
            .collect();
        let churn = if HONEYPOT_SOURCES.contains(&source) {
            self.honeypot_churn.map(|c| SensorChurn {
                decline_per_year: c.decline_per_year,
                offline_weekly: c.offline_weekly,
                seed: self.seed ^ fnv1a64(source.as_bytes()),
            })
        } else {
            None
        };
        let degradation = if FLOW_SOURCES.contains(&source) {
            self.flow_degradation
        } else {
            None
        };
        ObsFaults { outages, churn, degradation }
    }

    /// The source slug whose outages mask `id`'s weekly series.
    pub fn source_of(id: ObsId) -> &'static str {
        match id {
            ObsId::Ucsd => "ucsd",
            ObsId::Orion => "orion",
            ObsId::Hopscotch => "hopscotch",
            ObsId::AmpPot => "amppot",
            ObsId::NewKid => "newkid",
            ObsId::IxpDp | ObsId::IxpRa => "ixp",
            ObsId::AkamaiDp | ObsId::AkamaiRa => "akamai",
            ObsId::NetscoutDp | ObsId::NetscoutRa => "netscout",
        }
    }

    /// Half-open week ranges masked out of `id`'s weekly series.
    pub fn outage_ranges(&self, id: ObsId) -> Vec<(usize, usize)> {
        let source = Self::source_of(id);
        self.outages
            .iter()
            .filter(|o| o.source == source)
            .map(|o| (o.start_week as usize, (o.end_week as usize).min(STUDY_WEEKS)))
            .collect()
    }

    /// Degraded (outage-masked) week indices per source, for the run
    /// manifest. Sources without outages are omitted; order follows
    /// [`FAULT_SOURCES`].
    pub fn degraded_weeks(&self) -> Vec<(String, Vec<u64>)> {
        FAULT_SOURCES
            .iter()
            .filter_map(|source| {
                let weeks = self.for_source(source).masked_weeks();
                (!weeks.is_empty()).then(|| (source.to_string(), weeks))
            })
            .collect()
    }
}

/// Deterministic control-plane fault injection for one study: panics
/// scheduled into pool shards and stage computes by a pure hash of
/// `(seed, site, unit)`. Output bytes are invariant to this knob.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Probability that a given work unit is scheduled to fail.
    pub probability: f64,
    /// Consecutive failing attempts per scheduled unit; values `>=`
    /// [`simcore::recover::MAX_ATTEMPTS`] make failures permanent.
    pub failures_per_site: u32,
    /// Schedule seed, independent of the study seed.
    pub seed: u64,
}

impl ChaosPlan {
    /// A recoverable schedule: every scheduled site fails
    /// `MAX_ATTEMPTS - 1` times and succeeds on the final attempt.
    pub fn recoverable(probability: f64, seed: u64) -> ChaosPlan {
        ChaosPlan {
            probability,
            failures_per_site: simcore::recover::MAX_ATTEMPTS - 1,
            seed,
        }
    }

    pub fn validate(&self) -> Result<()> {
        crate::scenario::fraction("chaos.probability", self.probability)?;
        Ok(())
    }

    pub fn schedule(&self) -> ChaosSchedule {
        ChaosSchedule {
            seed: self.seed,
            probability: self.probability,
            failures_per_site: self.failures_per_site,
        }
    }
}

/// Run `f` under the chaos schedule (if any) with bounded deterministic
/// retry, keyed by a stable `(site, unit)` identity such as a stage
/// fingerprint. With no schedule this is a direct call — no
/// unwind-capture frame, no behaviour change.
pub fn with_chaos<T>(
    chaos: Option<&ChaosSchedule>,
    site: &'static str,
    unit: u64,
    f: impl Fn() -> T,
) -> T {
    match chaos {
        None => f(),
        Some(cs) => simcore::recover::run_with_retry(site, |attempt| {
            cs.maybe_fail(site, unit, attempt);
            f()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            outages: vec![
                OutageSpec { source: "ucsd".into(), start_week: 5, end_week: 9 },
                OutageSpec { source: "ixp".into(), start_week: 100, end_week: 104 },
            ],
            honeypot_churn: Some(ChurnSpec { decline_per_year: 0.1, offline_weekly: 0.05 }),
            flow_degradation: Some(FlowDegradation { drop_fraction: 0.2, start_week: 120 }),
            seed: 7,
        }
    }

    #[test]
    fn resolution_routes_faults_to_the_right_sources() {
        let p = plan();
        let ucsd = p.for_source("ucsd");
        assert_eq!(ucsd.outages.len(), 1);
        assert!(ucsd.churn.is_none() && ucsd.degradation.is_none());
        let amppot = p.for_source("amppot");
        assert!(amppot.outages.is_empty());
        assert!(amppot.churn.is_some() && amppot.degradation.is_none());
        let ixp = p.for_source("ixp");
        assert_eq!(ixp.outages.len(), 1);
        assert!(ixp.churn.is_none() && ixp.degradation.is_some());
        // Churn seeds differ per source so fleets do not churn in
        // lockstep.
        let a = p.for_source("hopscotch").churn.expect("churn").seed;
        let b = p.for_source("newkid").churn.expect("churn").seed;
        assert_ne!(a, b);
    }

    #[test]
    fn outage_ranges_follow_the_stream_to_source_mapping() {
        let p = plan();
        assert_eq!(p.outage_ranges(ObsId::Ucsd), vec![(5, 9)]);
        assert_eq!(p.outage_ranges(ObsId::IxpDp), vec![(100, 104)]);
        assert_eq!(p.outage_ranges(ObsId::IxpRa), vec![(100, 104)]);
        assert!(p.outage_ranges(ObsId::Orion).is_empty());
        let degraded = p.degraded_weeks();
        assert_eq!(degraded.len(), 2);
        assert_eq!(degraded[0].0, "ucsd");
        assert_eq!(degraded[0].1, vec![5, 6, 7, 8]);
        assert_eq!(degraded[1].0, "ixp");
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = plan();
        p.outages[0].source = "nonesuch".into();
        assert!(p.validate().is_err());

        let mut p = plan();
        p.outages[1].end_week = p.outages[1].start_week;
        assert!(p.validate().is_err());

        let mut p = plan();
        p.outages[0].end_week = STUDY_WEEKS as u32 + 1;
        assert!(p.validate().is_err());

        let mut p = plan();
        p.honeypot_churn = Some(ChurnSpec { decline_per_year: 1.5, offline_weekly: 0.0 });
        assert!(p.validate().is_err());

        let mut p = plan();
        p.flow_degradation = Some(FlowDegradation { drop_fraction: 0.5, start_week: 9999 });
        assert!(p.validate().is_err());

        assert!(plan().validate().is_ok());
        assert!(FaultPlan::default().validate().is_ok());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn chaos_plan_validates_and_builds_a_schedule() {
        let c = ChaosPlan::recoverable(0.5, 9);
        assert!(c.validate().is_ok());
        assert!(c.schedule().failures_per_site < simcore::recover::MAX_ATTEMPTS);
        let bad = ChaosPlan { probability: 1.5, ..c };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn with_chaos_retries_to_the_same_value() {
        let cs = ChaosPlan::recoverable(1.0, 3).schedule();
        let plain = with_chaos(None, "stage.plan", 42, || 7 * 6);
        let chaotic = with_chaos(Some(&cs), "stage.plan", 42, || 7 * 6);
        assert_eq!(plain, chaotic);
    }
}
