//! Data-plane fault primitives: outage windows, sensor-fleet churn and
//! flow-sampling degradation.
//!
//! The real observatories behind the paper were never clean — telescopes
//! had dark weeks, honeypot fleets declined and churned over the
//! 4.5-year window, and flow platforms changed coverage. These types let
//! a study deterministically reproduce such gaps: each observatory
//! carries an [`ObsFaults`] (empty by default) that its `observe` path
//! consults.
//!
//! Determinism contract: an **empty** `ObsFaults` consumes *zero* RNG and
//! takes no float path, so attaching it is bit-for-bit invisible. When
//! faults are present, every stochastic decision forks a *dedicated*
//! stream (churn from its own seed, sampling drops from a per-attack
//! fork), so the main observation streams are structurally untouched and
//! the output stays byte-identical for any worker count.

use crate::rng::SimRng;
use crate::time::STUDY_WEEKS;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Weeks per year in the study calendar, for fleet-decline scaling.
const WEEKS_PER_YEAR: f64 = 365.25 / 7.0;

/// A half-open `[start_week, end_week)` window during which an
/// observatory records nothing at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    pub start_week: u32,
    pub end_week: u32,
}

impl OutageWindow {
    pub fn contains(&self, week: i64) -> bool {
        week >= i64::from(self.start_week) && week < i64::from(self.end_week)
    }
}

/// Honeypot sensor-fleet decay: a secular decline plus weekly churn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorChurn {
    /// Fraction of the fleet lost per year of study time (linear decay,
    /// clamped at zero).
    pub decline_per_year: f64,
    /// Upper bound on the fraction of surviving sensors offline in any
    /// given week; the actual fraction is drawn uniformly per week.
    pub offline_weekly: f64,
    /// Seed for the per-week churn draw, independent of the study seed.
    pub seed: u64,
}

impl SensorChurn {
    /// Fleet size at `week` given a nominal size of `sensors`.
    ///
    /// Per-week draws fork from `seed` by week index alone, so the value
    /// is identical no matter which worker evaluates it or how many
    /// attacks precede it.
    pub fn fleet_at(&self, sensors: u64, week: i64) -> u64 {
        let years = week.max(0) as f64 / WEEKS_PER_YEAR;
        let survival = (1.0 - self.decline_per_year * years).clamp(0.0, 1.0);
        let mut rng = SimRng::new(self.seed).fork(week.max(0) as u64);
        let offline = rng.f64_range(0.0, self.offline_weekly.clamp(0.0, 1.0));
        ((sensors as f64) * survival * (1.0 - offline)).floor() as u64
    }
}

/// Flow-platform sampling degradation: from `start_week` on, each
/// would-be observation is independently lost with `drop_fraction`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowDegradation {
    pub drop_fraction: f64,
    pub start_week: u32,
}

/// The resolved fault set one observatory consults while observing.
/// Serializable so the stage cache can key each observation stream by
/// exactly the slice its observer reads.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ObsFaults {
    pub outages: Vec<OutageWindow>,
    pub churn: Option<SensorChurn>,
    pub degradation: Option<FlowDegradation>,
}

struct Counters {
    outage_drops: Arc<obs::metrics::Counter>,
    sampling_drops: Arc<obs::metrics::Counter>,
}

fn counters() -> &'static Counters {
    static C: OnceLock<Counters> = OnceLock::new();
    C.get_or_init(|| Counters {
        outage_drops: obs::metrics::counter("fault.outage_drops"),
        sampling_drops: obs::metrics::counter("fault.sampling_drops"),
    })
}

impl ObsFaults {
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.churn.is_none() && self.degradation.is_none()
    }

    /// True when `week` falls inside an outage window. Counts the drop;
    /// call sites return `None` immediately, before forking any RNG.
    pub fn is_down(&self, week: i64) -> bool {
        if self.outages.iter().any(|w| w.contains(week)) {
            counters().outage_drops.inc();
            return true;
        }
        false
    }

    /// Effective sensor-fleet size at `week`. Identity when no churn is
    /// configured — the integer passes through untouched, so the
    /// downstream binomial draw is bit-identical to the fault-free path.
    pub fn fleet_at(&self, sensors: u64, week: i64) -> u64 {
        match &self.churn {
            None => sensors,
            Some(c) => c.fleet_at(sensors, week),
        }
    }

    /// True when sampling degradation swallows this observation.
    ///
    /// Draws from a dedicated `(attack, "fault-sampling")` fork of
    /// `root`, never from the observatory's own stream.
    pub fn drops_sample(&self, root: &SimRng, attack_tag: u64, week: i64) -> bool {
        let Some(d) = &self.degradation else {
            return false;
        };
        if week < i64::from(d.start_week) {
            return false;
        }
        let mut rng = root.fork(attack_tag).fork_named("fault-sampling");
        if rng.chance(d.drop_fraction) {
            counters().sampling_drops.inc();
            return true;
        }
        false
    }

    /// Week indices `< STUDY_WEEKS` masked out by outage windows, sorted
    /// and deduplicated; the degraded-weeks manifest section and the
    /// analytics missing-week masks both derive from this.
    pub fn masked_weeks(&self) -> Vec<u64> {
        let mut weeks: Vec<u64> = self
            .outages
            .iter()
            .flat_map(|w| u64::from(w.start_week)..u64::from(w.end_week.min(STUDY_WEEKS as u32)))
            .collect();
        weeks.sort_unstable();
        weeks.dedup();
        weeks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_faults_are_inert() {
        let f = ObsFaults::default();
        assert!(f.is_empty());
        assert!(!f.is_down(0));
        assert_eq!(f.fleet_at(1200, 100), 1200);
        let root = SimRng::new(7);
        assert!(!f.drops_sample(&root, 42, 100));
        assert!(f.masked_weeks().is_empty());
    }

    #[test]
    fn outage_windows_are_half_open() {
        let f = ObsFaults {
            outages: vec![OutageWindow { start_week: 10, end_week: 12 }],
            ..ObsFaults::default()
        };
        assert!(!f.is_down(9));
        assert!(f.is_down(10));
        assert!(f.is_down(11));
        assert!(!f.is_down(12));
        assert_eq!(f.masked_weeks(), vec![10, 11]);
    }

    #[test]
    fn fleet_declines_deterministically() {
        let churn = SensorChurn { decline_per_year: 0.1, offline_weekly: 0.05, seed: 3 };
        let early = churn.fleet_at(1000, 0);
        let late = churn.fleet_at(1000, 200);
        assert_eq!(early, churn.fleet_at(1000, 0), "per-week draw must be stable");
        assert!(late < early, "fleet must decline: {late} vs {early}");
        assert!(early <= 1000 && late > 500);
    }

    #[test]
    fn sampling_drops_are_per_attack_and_gated_by_start_week() {
        let f = ObsFaults {
            degradation: Some(FlowDegradation { drop_fraction: 0.5, start_week: 100 }),
            ..ObsFaults::default()
        };
        let root = SimRng::new(11);
        assert!(!f.drops_sample(&root, 1, 99), "before start_week nothing drops");
        let dropped = (0..200).filter(|&a| f.drops_sample(&root, a, 150)).count();
        assert!((40..=160).contains(&dropped), "roughly half drop: {dropped}");
        for a in 0..20 {
            assert_eq!(f.drops_sample(&root, a, 150), f.drops_sample(&root, a, 150));
        }
    }
}
