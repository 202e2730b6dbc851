//! The macro-level trend timeline: how attack intensity evolves over the
//! 4.5-year study.
//!
//! The paper *observes* these dynamics (§6); the generator *encodes* them
//! so the observatories can re-derive the figures:
//!
//! * secular growth of direct-path attacks (Fig. 2: four of five
//!   observatories trend upward),
//! * the 2020 pandemic surge in both classes (§6.3 "Pandemic"),
//! * the 2021–22 decline of spoofed reflection-amplification attacks
//!   attributed to the industry SAV push (§2.3, Netscout's −17 %),
//! * small dips after the law-enforcement takedowns of 2022-12-13 and
//!   2023-05-04 (Fig. 3, red dashed lines; §6.2 finds the footprint
//!   "indeterminate" — our dips are correspondingly small and
//!   short-lived),
//! * the 2023 renewed rise of RA attacks carried by *new* vectors
//!   (invisible to honeypots that do not emulate them — the mechanism we
//!   use to reproduce Hopscotch's flat 2023),
//! * mild first-half-of-year seasonality (§6.1: IXP and Netscout peaks
//!   fall in H1),
//! * protocol-mix drift (§7.3: AmpPot-favored CHARGEN vs
//!   Hopscotch-favored CLDAP until mid-2020).
//!
//! Everything is a pure function of time plus [`TimelineParams`], so
//! ablation benches can switch individual components off.

use crate::attack::AttackClass;
use netmodel::AmpVector;
use serde::{Deserialize, Serialize};
use simcore::dist::smoothstep;
use simcore::time::takedown_dates;
use simcore::{Date, SimTime};

/// Years (fractional, 365.25-day) since the study epoch for a civil date.
fn yr(y: i32, m: u8, d: u8) -> f64 {
    Date::new(y, m, d).to_sim_time().years_f64()
}

/// Tunable parameters of the trend timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineParams {
    /// Baseline direct-path attacks per week at t = 0.
    pub dp_base_per_week: f64,
    /// Baseline reflection-amplification attacks per week at t = 0.
    pub ra_base_per_week: f64,
    /// Exponential growth rate of DP attacks (per year).
    pub dp_growth_per_year: f64,
    /// Exponential growth rate of RA attacks (per year), before SAV and
    /// recovery effects.
    pub ra_growth_per_year: f64,
    /// Peak extra multiplier of the 2020 pandemic surge (0.8 ⇒ ×1.8).
    pub pandemic_peak_dp: f64,
    pub pandemic_peak_ra: f64,
    /// Total relative reduction of *spoofed* attack volume attributed to
    /// SAV deployment by end-2022 (0.4 ⇒ ×0.6 floor).
    pub sav_reduction: f64,
    /// Depth of the post-takedown dip (0.15 ⇒ ×0.85 right after).
    pub takedown_dip: f64,
    /// Exponential recovery time constant after a takedown, in weeks.
    pub takedown_recovery_weeks: f64,
    /// Amplitude of the annual seasonality (peaks in H1).
    pub seasonal_amplitude: f64,
    /// Extra RA growth through 2023 carried by emerging vectors.
    pub ra_2023_recovery: f64,
    /// Sigma of weekly multiplicative log-normal noise.
    pub noise_sigma: f64,
    /// Fraction of direct-path attacks that spoof sources, at t = 0.
    pub dp_spoofed_fraction_start: f64,
    /// Same fraction at the end of the study (SAV pressure).
    pub dp_spoofed_fraction_end: f64,
}

impl Default for TimelineParams {
    fn default() -> Self {
        TimelineParams {
            dp_base_per_week: 650.0,
            ra_base_per_week: 1030.0,
            dp_growth_per_year: 0.24,
            ra_growth_per_year: 0.02,
            pandemic_peak_dp: 0.65,
            pandemic_peak_ra: 0.85,
            sav_reduction: 0.38,
            takedown_dip: 0.16,
            takedown_recovery_weeks: 3.0,
            seasonal_amplitude: 0.13,
            ra_2023_recovery: 0.55,
            noise_sigma: 0.22,
            dp_spoofed_fraction_start: 0.58,
            dp_spoofed_fraction_end: 0.38,
        }
    }
}

impl TimelineParams {
    /// Annual seasonality factor; maximum around March (the paper's H1
    /// peaks), minimum around September.
    pub fn seasonality(&self, t: SimTime) -> f64 {
        let phase = t.years_f64().fract();
        1.0 + self.seasonal_amplitude * (std::f64::consts::TAU * (phase - 0.2)).cos()
    }

    /// Pandemic surge: ramps up over 2020Q2, plateaus, decays through
    /// 2021H1. Returns the *extra* fraction (0 outside the window).
    fn pandemic_shape(t: SimTime) -> f64 {
        let y = t.years_f64();
        let up = smoothstep((y - yr(2020, 3, 1)) / (yr(2020, 7, 1) - yr(2020, 3, 1)));
        let down = smoothstep((y - yr(2021, 1, 1)) / (yr(2021, 7, 1) - yr(2021, 1, 1)));
        up * (1.0 - down)
    }

    /// Pandemic multiplier for a class.
    pub fn pandemic(&self, class: AttackClass, t: SimTime) -> f64 {
        let peak = match class {
            AttackClass::ReflectionAmplification => self.pandemic_peak_ra,
            _ => self.pandemic_peak_dp,
        };
        1.0 + peak * Self::pandemic_shape(t)
    }

    /// SAV-deployment multiplier applied to *spoofed* volume: 1.0 until
    /// early 2021, declining to `1 - sav_reduction` by end-2022
    /// (the "concerted industry effort since 2021", §2.3).
    pub fn sav_multiplier(&self, t: SimTime) -> f64 {
        let y = t.years_f64();
        let progress = smoothstep((y - yr(2021, 2, 1)) / (yr(2022, 12, 1) - yr(2021, 2, 1)));
        1.0 - self.sav_reduction * progress
    }

    /// Post-takedown dip multiplier (applies mainly to booter-driven RA
    /// traffic; §6.2 finds the long-term impact insignificant, so the
    /// dip decays quickly).
    pub fn takedown_multiplier(&self, t: SimTime) -> f64 {
        let mut m = 1.0;
        for d in takedown_dates() {
            let dt_weeks = (t.0 - d.to_sim_time().0) as f64 / (7.0 * 86_400.0);
            if dt_weeks >= 0.0 {
                m *= 1.0 - self.takedown_dip * (-dt_weeks / self.takedown_recovery_weeks).exp();
            }
        }
        m
    }

    /// 2023 RA recovery multiplier (new vectors coming online).
    pub fn ra_recovery(&self, t: SimTime) -> f64 {
        let y = t.years_f64();
        1.0 + self.ra_2023_recovery
            * smoothstep((y - yr(2022, 11, 1)) / (yr(2023, 6, 1) - yr(2022, 11, 1)))
    }

    /// Expected attacks per week for a class at time `t` (without
    /// weekly noise — the generator multiplies noise in on top).
    pub fn weekly_rate(&self, class: AttackClass, t: SimTime) -> f64 {
        let years = t.years_f64();
        match class {
            AttackClass::DirectPathSpoofed => {
                // SAV pressure enters through the declining spoofed
                // fraction, not a second multiplier — the telescopes
                // still saw absolute RSDoS growth over the study
                // (Fig. 2(a,b)) because overall DP growth outpaced the
                // spoofing decline.
                self.dp_base_per_week
                    * self.dp_spoofed_fraction(t)
                    * (self.dp_growth_per_year * years).exp()
                    * self.pandemic(class, t)
                    * self.seasonality(t)
                    * self.takedown_multiplier(t).sqrt() // booters do some DP too
            }
            AttackClass::DirectPathNonSpoofed => {
                self.dp_base_per_week
                    * (1.0 - self.dp_spoofed_fraction(t))
                    * (self.dp_growth_per_year * years).exp()
                    * self.pandemic(class, t)
                    * self.seasonality(t)
            }
            AttackClass::ReflectionAmplification => {
                self.ra_base_per_week
                    * (self.ra_growth_per_year * years).exp()
                    * self.pandemic(class, t)
                    * self.seasonality(t)
                    * self.sav_multiplier(t)
                    * self.takedown_multiplier(t)
                    * self.ra_recovery(t)
            }
        }
    }

    /// Fraction of direct-path attacks using spoofed sources; declines
    /// linearly-in-smoothstep across the study under SAV pressure.
    pub fn dp_spoofed_fraction(&self, t: SimTime) -> f64 {
        let y = t.years_f64();
        let progress = smoothstep((y - yr(2020, 6, 1)) / (yr(2023, 1, 1) - yr(2020, 6, 1)));
        self.dp_spoofed_fraction_start
            + (self.dp_spoofed_fraction_end - self.dp_spoofed_fraction_start) * progress
    }

    /// Relative weight of each amplification vector at time `t`
    /// (unnormalized; the generator normalizes before sampling).
    ///
    /// Encodes the protocol-mix drift of §7.3 and the 2023 emerging-
    /// vector recovery:
    /// * CLDAP strong until mid-2020, then declining,
    /// * CHARGEN surging late-2020 through 2021,
    /// * NTP slowly declining (monlist remediation, §2.3),
    /// * DNS slowly growing,
    /// * WS-Discovery/SNMP near zero until late 2022, then rising.
    pub fn vector_weight(&self, v: AmpVector, t: SimTime) -> f64 {
        let y = t.years_f64();
        let base = v.reflector_pool_share();
        let modifier = match v {
            AmpVector::Cldap => {
                // ×2.2 early, declining to ×0.6 after mid-2020.
                2.2 - 1.6 * smoothstep((y - yr(2020, 4, 1)) / (yr(2020, 10, 1) - yr(2020, 4, 1)))
            }
            AmpVector::CharGen => {
                // surge from late 2020, fading through 2022.
                let up = smoothstep((y - yr(2020, 8, 1)) / (yr(2020, 12, 1) - yr(2020, 8, 1)));
                let down = smoothstep((y - yr(2021, 10, 1)) / (yr(2022, 6, 1) - yr(2021, 10, 1)));
                1.0 + 2.0 * up * (1.0 - down)
            }
            AmpVector::Ntp => 1.4 - 0.6 * smoothstep(y / 4.5),
            AmpVector::Dns => 0.9 + 0.4 * smoothstep(y / 4.5),
            AmpVector::WsDiscovery | AmpVector::Snmp => {
                // Emerging vectors carrying the 2023 recovery.
                0.05 + 4.0 * smoothstep((y - yr(2022, 10, 1)) / (yr(2023, 5, 1) - yr(2022, 10, 1)))
            }
            _ => 1.0,
        };
        base * modifier
    }

    /// Normalized vector mix at time `t`, one entry per
    /// [`AmpVector::ALL`] vector, in that order.
    pub fn vector_mix(&self, t: SimTime) -> [(AmpVector, f64); AmpVector::ALL.len()] {
        let raw = AmpVector::ALL.map(|v| (v, self.vector_weight(v, t)));
        let total: f64 = raw.iter().map(|(_, w)| w).sum();
        raw.map(|(v, w)| (v, w / total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(y: i32, m: u8, d: u8) -> SimTime {
        Date::new(y, m, d).to_sim_time()
    }

    fn p() -> TimelineParams {
        TimelineParams::default()
    }

    #[test]
    fn seasonality_peaks_in_h1() {
        let p = p();
        let march = p.seasonality(t(2019, 3, 15));
        let sept = p.seasonality(t(2019, 9, 15));
        assert!(march > 1.05, "march {march}");
        assert!(sept < 0.95, "sept {sept}");
    }

    #[test]
    fn pandemic_bump_timing() {
        let p = p();
        let cls = AttackClass::ReflectionAmplification;
        assert_eq!(p.pandemic(cls, t(2019, 6, 1)), 1.0);
        assert!(p.pandemic(cls, t(2020, 9, 1)) > 1.5);
        assert!((p.pandemic(cls, t(2022, 1, 1)) - 1.0).abs() < 0.05);
    }

    #[test]
    fn pandemic_hits_ra_harder() {
        let p = p();
        let mid = t(2020, 9, 1);
        assert!(
            p.pandemic(AttackClass::ReflectionAmplification, mid)
                > p.pandemic(AttackClass::DirectPathSpoofed, mid)
        );
    }

    #[test]
    fn sav_declines_then_floors() {
        let p = p();
        assert_eq!(p.sav_multiplier(t(2019, 6, 1)), 1.0);
        assert_eq!(p.sav_multiplier(t(2021, 1, 1)), 1.0);
        let mid = p.sav_multiplier(t(2021, 12, 1));
        assert!(mid < 1.0 && mid > 1.0 - p.sav_reduction);
        let floor = p.sav_multiplier(t(2023, 6, 1));
        assert!((floor - (1.0 - p.sav_reduction)).abs() < 1e-9);
    }

    #[test]
    fn takedown_dips_and_recovers() {
        let p = p();
        let before = p.takedown_multiplier(t(2022, 12, 12));
        let after = p.takedown_multiplier(t(2022, 12, 14));
        let later = p.takedown_multiplier(t(2023, 3, 1));
        assert_eq!(before, 1.0);
        assert!(after < 0.9, "after {after}");
        assert!(later > 0.97, "later {later}");
    }

    #[test]
    fn two_takedowns_compound_briefly() {
        let p = p();
        // Right after the second takedown only the second dip is deep;
        // the first has mostly decayed.
        let after_second = p.takedown_multiplier(t(2023, 5, 5));
        assert!(after_second < 0.9 && after_second > 0.7);
    }

    #[test]
    fn ra_rate_shape_matches_paper() {
        let p = p();
        let cls = AttackClass::ReflectionAmplification;
        let r2019 = p.weekly_rate(cls, t(2019, 3, 1));
        let r2020 = p.weekly_rate(cls, t(2020, 9, 15));
        let r2022 = p.weekly_rate(cls, t(2022, 9, 15));
        let r2023 = p.weekly_rate(cls, t(2023, 5, 20));
        // 2020 surge.
        assert!(r2020 > 1.4 * r2019, "2020 {r2020} vs 2019 {r2019}");
        // 2021-22 decline below the 2020 peak.
        assert!(r2022 < 0.75 * r2020, "2022 {r2022} vs 2020 {r2020}");
        // 2023 recovery above 2022.
        assert!(r2023 > 1.1 * r2022, "2023 {r2023} vs 2022 {r2022}");
    }

    #[test]
    fn dp_rate_grows_over_study() {
        let p = p();
        let total = |time| {
            p.weekly_rate(AttackClass::DirectPathSpoofed, time)
                + p.weekly_rate(AttackClass::DirectPathNonSpoofed, time)
        };
        assert!(total(t(2023, 5, 1)) > 1.5 * total(t(2019, 3, 1)));
    }

    #[test]
    fn ra_dominates_dp_early_then_flips() {
        // Figure 5: Netscout's RA/DP share crosses 50 % toward DP at
        // 2021Q2. The global rates should flip around then too.
        let p = p();
        let dp = |time| {
            p.weekly_rate(AttackClass::DirectPathSpoofed, time)
                + p.weekly_rate(AttackClass::DirectPathNonSpoofed, time)
        };
        let ra = |time| p.weekly_rate(AttackClass::ReflectionAmplification, time);
        assert!(ra(t(2019, 6, 1)) > dp(t(2019, 6, 1)), "RA should lead in 2019");
        assert!(dp(t(2022, 6, 1)) > ra(t(2022, 6, 1)), "DP should lead by 2022");
    }

    #[test]
    fn spoofed_fraction_declines() {
        let p = p();
        assert!((p.dp_spoofed_fraction(t(2019, 1, 15)) - 0.58).abs() < 0.01);
        assert!((p.dp_spoofed_fraction(t(2023, 6, 1)) - 0.38).abs() < 0.01);
        let a = p.dp_spoofed_fraction(t(2020, 1, 1));
        let b = p.dp_spoofed_fraction(t(2022, 1, 1));
        assert!(a > b);
    }

    #[test]
    fn vector_mix_normalized() {
        let p = p();
        for &date in &[t(2019, 2, 1), t(2021, 7, 1), t(2023, 4, 1)] {
            let mix = p.vector_mix(date);
            let total: f64 = mix.iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(mix.iter().all(|(_, w)| *w >= 0.0));
        }
    }

    #[test]
    fn cldap_declines_chargen_surges() {
        // §7.3: CLDAP-heavy until mid-2020, CHARGEN surge afterwards.
        let p = p();
        let cldap_early = p.vector_weight(AmpVector::Cldap, t(2019, 9, 1));
        let cldap_late = p.vector_weight(AmpVector::Cldap, t(2021, 3, 1));
        assert!(cldap_early > 2.0 * cldap_late);
        let chargen_early = p.vector_weight(AmpVector::CharGen, t(2020, 3, 1));
        let chargen_peak = p.vector_weight(AmpVector::CharGen, t(2021, 2, 1));
        assert!(chargen_peak > 2.0 * chargen_early);
    }

    #[test]
    fn emerging_vectors_rise_in_2023() {
        let p = p();
        let early = p.vector_weight(AmpVector::WsDiscovery, t(2021, 1, 1));
        let late = p.vector_weight(AmpVector::WsDiscovery, t(2023, 5, 1));
        assert!(late > 10.0 * early, "early {early} late {late}");
    }

    #[test]
    fn rates_always_positive() {
        let p = p();
        for w in 0..simcore::STUDY_WEEKS as i64 {
            let time = SimTime::from_weeks(w);
            for cls in [
                AttackClass::DirectPathSpoofed,
                AttackClass::DirectPathNonSpoofed,
                AttackClass::ReflectionAmplification,
            ] {
                assert!(p.weekly_rate(cls, time) > 0.0);
            }
        }
    }
}
