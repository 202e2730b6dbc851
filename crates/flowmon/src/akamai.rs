//! The Akamai Prolexic observatory model.
//!
//! Prolexic is a DDoS protection service that "detects and mitigates
//! attacks in traffic transiting its AS" (§5): customers own prefixes
//! that can be rerouted through the Prolexic AS. Visibility is therefore
//! scoped to the protected prefix set — which is why the paper's target
//! joins with Akamai are ≈ 100× smaller than with Netscout (§7.2), and
//! why Akamai's trends diverge from every other observatory (§6.3).

use attackgen::{AttackClass, AttackRef, ObservationColumns};
use netmodel::{InternetPlan, PrefixTable};
use serde::{Deserialize, Serialize};
use simcore::SimRng;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AkamaiConfig {
    /// Detection probability for attacks on protected prefixes (the DPS
    /// sits directly on the traffic path, so this is high).
    pub detection_probability: f64,
    /// Minimum bit rate to register as an attack event.
    pub min_bps: f64,
}

impl Default for AkamaiConfig {
    fn default() -> Self {
        AkamaiConfig {
            detection_probability: 0.95,
            min_bps: 1e7,
        }
    }
}

/// Event-level Akamai Prolexic.
#[derive(Debug, Clone)]
pub struct Akamai {
    pub cfg: AkamaiConfig,
    protected: PrefixTable<()>,
    /// Injected data-plane faults (outage windows, flow-sampling
    /// degradation). Empty by default and bit-for-bit inert when empty.
    pub faults: simcore::faults::ObsFaults,
}

impl Akamai {
    pub fn new(plan: &InternetPlan, cfg: AkamaiConfig) -> Self {
        Akamai {
            cfg,
            protected: plan.akamai_protected.clone(),
            faults: simcore::faults::ObsFaults::default(),
        }
    }

    pub fn with_defaults(plan: &InternetPlan) -> Self {
        Self::new(plan, AkamaiConfig::default())
    }

    /// Is the address inside the protected scope?
    pub fn protects(&self, ip: netmodel::Ipv4) -> bool {
        self.protected.lookup(ip).is_some()
    }

    /// Event-level observation into a columnar sink. On detection the
    /// observation row (targets clipped to protected space) is appended
    /// to `out` and the attack's class is returned so the caller can
    /// route the row into the RA or DP series.
    pub fn observe_into(
        &self,
        attack: AttackRef<'_>,
        root: &SimRng,
        out: &mut ObservationColumns,
    ) -> Option<AttackClass> {
        // Outage check first, before any RNG fork, so unaffected weeks
        // keep their exact detection streams.
        let week = attack.start.week_index();
        if self.faults.is_down(week) {
            return None;
        }
        // At least one target must be in protected space.
        if !attack.targets.iter().any(|&t| self.protects(t)) {
            return None;
        }
        if attack.bps < self.cfg.min_bps {
            return None;
        }
        let mut rng = root.fork(attack.id.0).fork_named("akamai-prolexic");
        if !rng.chance(self.cfg.detection_probability) {
            return None;
        }
        // Sampling degradation swallows the would-be detection from a
        // dedicated RNG fork, leaving the main draw stream untouched.
        if self.faults.drops_sample(root, attack.id.0, week) {
            return None;
        }
        out.begin_row(attack.id, attack.start);
        for &t in attack.targets {
            if self.protects(t) {
                out.push_target(t);
            }
        }
        out.commit_row();
        Some(attack.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attackgen::attack::{AttackId, AttackVector};
    use netmodel::{Asn, Ipv4, NetScale};
    use simcore::SimTime;

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    fn seen(ak: &Akamai, a: AttackRef<'_>, root: &SimRng) -> bool {
        let mut out = ObservationColumns::new();
        ak.observe_into(a, root, &mut out).is_some()
    }

    fn attack_on(targets: &[Ipv4], id: u64, class: AttackClass) -> AttackRef<'_> {
        AttackRef {
            id: AttackId(id),
            class,
            vector: AttackVector::SynFlood,
            start: SimTime(1000),
            duration_secs: 300,
            targets,
            target_asn: Asn(1),
            pps: 50_000.0,
            bps: 1.7e8,
            reflector_count: None,
            spoof_space_fraction: 0.0,
            campaign: None,
        }
    }

    #[test]
    fn protected_targets_usually_observed() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        let ip = [plan.akamai_prefix_list[0].nth(3)];
        let hits = (0..200)
            .filter(|&id| {
                let a = attack_on(&ip, id, AttackClass::DirectPathNonSpoofed);
                seen(&ak, a, &root)
            })
            .count();
        assert!(hits > 170, "seen {hits}");
    }

    #[test]
    fn unprotected_targets_invisible() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        // Find an address outside all protected prefixes.
        let outside = [plan
            .registry
            .iter()
            .flat_map(|r| r.prefixes.iter())
            .map(|p| p.nth(1))
            .find(|&ip| !ak.protects(ip))
            .unwrap()];
        for id in 0..100 {
            let a = attack_on(&outside, id, AttackClass::DirectPathNonSpoofed);
            assert!(!seen(&ak, a, &root));
        }
    }

    #[test]
    fn tiny_attacks_filtered() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        let ip = [plan.akamai_prefix_list[0].nth(3)];
        for id in 0..100 {
            let mut a = attack_on(&ip, id, AttackClass::DirectPathNonSpoofed);
            a.bps = 1e6;
            assert!(!seen(&ak, a, &root));
        }
    }

    #[test]
    fn carpet_observation_clipped_to_protected_space() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        let protected = plan.akamai_prefix_list[0].nth(3);
        let outside = plan
            .registry
            .iter()
            .flat_map(|r| r.prefixes.iter())
            .map(|p| p.nth(1))
            .find(|&ip| !ak.protects(ip))
            .unwrap();
        let carpet = [protected, outside];
        let mut found = false;
        for id in 0..50 {
            let a = attack_on(&carpet, id, AttackClass::ReflectionAmplification);
            let mut out = ObservationColumns::new();
            if let Some(class) = ak.observe_into(a, &root, &mut out) {
                assert!(class.is_reflection());
                assert_eq!(out.targets(0), [protected]);
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn split_series_by_class() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        let ip = [plan.akamai_prefix_list[0].nth(3)];
        let attacks: Vec<AttackRef> = (0..200)
            .map(|id| {
                attack_on(
                    &ip,
                    id,
                    if id % 2 == 0 {
                        AttackClass::ReflectionAmplification
                    } else {
                        AttackClass::DirectPathSpoofed
                    },
                )
            })
            .collect();
        // Route each detection by the class it reports.
        let (mut ra, mut dp) = (Vec::new(), Vec::new());
        for &a in &attacks {
            match ak.observe_into(a, &root, &mut ObservationColumns::new()) {
                Some(class) if class.is_reflection() => ra.push(a.id.0),
                Some(_) => dp.push(a.id.0),
                None => {}
            }
        }
        assert!(!ra.is_empty() && !dp.is_empty());
        assert!(ra.iter().all(|id| id % 2 == 0));
        assert!(dp.iter().all(|id| id % 2 == 1));
    }
}
