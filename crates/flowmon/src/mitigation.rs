//! Cross-observatory interference through mitigation (§5):
//! "observatories might interfere with each other's visibility. For
//! example, an observed but quickly mitigated randomly-spoofed
//! direct-path attack might not reflect packets into a network
//! telescope."
//!
//! This model captures that coupling: attacks on protected targets get
//! mitigated after a detection delay, truncating the *effective*
//! duration of the traffic that reaches passive observers. The
//! `interference` experiment quantifies how much telescope visibility
//! this removes.

use attackgen::AttackRef;
use netmodel::InternetPlan;
use serde::{Deserialize, Serialize};
use simcore::SimRng;

/// Mitigation-speed parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MitigationParams {
    /// Seconds from attack start until a DPS (Akamai-style, inline on
    /// the path) filters the traffic.
    pub dps_delay_secs: u32,
    /// Seconds until an alerting provider's customer (Netscout-style,
    /// operator in the loop) deploys filtering.
    pub alerting_delay_secs: u32,
    /// Probability that the mitigation actually suppresses backscatter
    /// (scrubbing answers nothing; blackholing still elicits ICMP from
    /// routers — partial suppression).
    pub suppression_probability: f64,
}

impl Default for MitigationParams {
    fn default() -> Self {
        MitigationParams {
            // Just under Corsaro's 60 s minimum flow duration: an
            // always-on DPS reacting inside the first minute removes
            // the attack from telescope view entirely.
            dps_delay_secs: 45,
            alerting_delay_secs: 900,
            suppression_probability: 0.8,
        }
    }
}

impl MitigationParams {
    /// The effective duration of an attack's un-mitigated traffic, as a
    /// passive observer would experience it under this mitigation
    /// landscape (the plan's protection scopes). Deterministic per
    /// attack (forked from the attack id).
    pub fn effective_duration_secs(
        &self,
        attack: AttackRef<'_>,
        plan: &InternetPlan,
        root: &SimRng,
    ) -> u32 {
        let target = attack.primary_target();
        let delay = if plan.akamai_protects(target) {
            Some(self.dps_delay_secs)
        } else if plan.netscout_customers.contains(&attack.target_asn) {
            Some(self.alerting_delay_secs)
        } else {
            None
        };
        match delay {
            Some(d) if d < attack.duration_secs => {
                let mut rng = root.fork(attack.id.0).fork_named("mitigation");
                if rng.chance(self.suppression_probability) {
                    d
                } else {
                    attack.duration_secs
                }
            }
            _ => attack.duration_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attackgen::attack::{AttackClass, AttackId, AttackVector};
    use netmodel::{Asn, Ipv4, NetScale};

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    fn rsdos(id: u64, targets: &[Ipv4], asn: Asn, duration: u32) -> AttackRef<'_> {
        AttackRef {
            id: AttackId(id),
            class: AttackClass::DirectPathSpoofed,
            vector: AttackVector::SynFlood,
            start: simcore::SimTime(1000),
            duration_secs: duration,
            targets,
            target_asn: asn,
            pps: 50_000.0,
            bps: 1e8,
            reflector_count: None,
            spoof_space_fraction: 1.0,
            campaign: None,
        }
    }

    #[test]
    fn unprotected_targets_untouched() {
        let plan = plan();
        let m = MitigationParams::default();
        let root = SimRng::new(1);
        let outsider = plan
            .registry
            .iter()
            .find(|r| {
                !plan.netscout_customers.contains(&r.asn)
                    && r.target_weight > 0.0
                    && r.prefixes.iter().all(|p| !plan.akamai_protects(p.base()))
            })
            .unwrap();
        let target = [outsider.prefixes[0].nth(1)];
        let a = rsdos(1, &target, outsider.asn, 3600);
        assert_eq!(m.effective_duration_secs(a, &plan, &root), 3600);
    }

    #[test]
    fn dps_truncates_fast() {
        let plan = plan();
        let m = MitigationParams {
            suppression_probability: 1.0,
            ..MitigationParams::default()
        };
        let root = SimRng::new(1);
        let target = [plan.akamai_prefix_list[0].nth(1)];
        let asn = plan.asn_of(target[0]).unwrap();
        let a = rsdos(1, &target, asn, 3600);
        assert_eq!(m.effective_duration_secs(a, &plan, &root), 45);
    }

    #[test]
    fn short_attacks_finish_before_mitigation() {
        let plan = plan();
        let m = MitigationParams {
            suppression_probability: 1.0,
            ..MitigationParams::default()
        };
        let root = SimRng::new(1);
        let target = [plan.akamai_prefix_list[0].nth(1)];
        let asn = plan.asn_of(target[0]).unwrap();
        let a = rsdos(1, &target, asn, 30); // finishes before the delay
        assert_eq!(m.effective_duration_secs(a, &plan, &root), 30);
    }

    #[test]
    fn suppression_probability_respected() {
        let plan = plan();
        let m = MitigationParams {
            suppression_probability: 0.5,
            ..MitigationParams::default()
        };
        let root = SimRng::new(2);
        let target = [plan.akamai_prefix_list[0].nth(1)];
        let asn = plan.asn_of(target[0]).unwrap();
        let truncated = (0..400)
            .filter(|&id| {
                m.effective_duration_secs(rsdos(id, &target, asn, 3600), &plan, &root) == 45
            })
            .count();
        assert!((140..=260).contains(&truncated), "truncated {truncated}/400");
    }

    #[test]
    fn deterministic_per_attack() {
        let plan = plan();
        let m = MitigationParams::default();
        let root = SimRng::new(3);
        let target = [plan.akamai_prefix_list[0].nth(1)];
        let asn = plan.asn_of(target[0]).unwrap();
        let a = rsdos(42, &target, asn, 3600);
        let first = m.effective_duration_secs(a, &plan, &root);
        for _ in 0..10 {
            assert_eq!(m.effective_duration_secs(a, &plan, &root), first);
        }
    }
}
