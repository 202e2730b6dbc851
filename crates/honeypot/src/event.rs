//! Event-level honeypot observatory: analytic visibility of reflection-
//! amplification attacks for the macro study.
//!
//! Physics: an attacker abusing `k` reflectors out of a per-vector pool
//! of size `P` selects each responding sensor independently with
//! probability ≈ `k / P`. A platform with `s` sensors is therefore
//! selected into an attack with probability `1 − (1 − k/P)^s`, and a
//! selected sensor receives a `1/k` share of the request load — which
//! then has to clear the platform's per-flow packet threshold (Table 2).

use crate::platform::HoneypotConfig;
use attackgen::{AttackClass, AttackRef, ObservationColumns};
use netmodel::{AmpVector, InternetPlan};
use simcore::dist::{binomial, poisson};
use simcore::faults::ObsFaults;
use simcore::SimRng;
use std::collections::BTreeMap;

/// An operating honeypot platform plus the reflector-pool context it
/// hides in.
#[derive(Debug, Clone)]
pub struct Honeypot {
    pub cfg: HoneypotConfig,
    pools: BTreeMap<AmpVector, u64>,
    /// Injected data-plane faults (outage windows, sensor-fleet
    /// decline/churn). Empty by default and bit-for-bit inert when
    /// empty: the sensor count passes through as the same integer.
    pub faults: ObsFaults,
}

impl Honeypot {
    pub fn new(cfg: HoneypotConfig, plan: &InternetPlan) -> Self {
        Honeypot {
            cfg,
            pools: plan.reflector_pools.clone(),
            faults: ObsFaults::default(),
        }
    }

    pub fn amppot(plan: &InternetPlan) -> Self {
        Self::new(HoneypotConfig::amppot(plan), plan)
    }

    pub fn hopscotch(plan: &InternetPlan) -> Self {
        Self::new(HoneypotConfig::hopscotch(plan), plan)
    }

    pub fn newkid(plan: &InternetPlan) -> Self {
        Self::new(HoneypotConfig::newkid(plan), plan)
    }

    /// Event-level observation of one attack, appended directly to a
    /// columnar sink; returns whether a row was emitted.
    ///
    /// RNG is forked from (attack id, platform name): deterministic, and
    /// independent across platforms — AmpPot and Hopscotch make separate
    /// reflector-selection draws for the same attack, which is what
    /// produces the partial (≈ 50 %) target overlap of Fig. 7.
    pub fn observe_into(
        &self,
        attack: AttackRef<'_>,
        root: &SimRng,
        out: &mut ObservationColumns,
    ) -> bool {
        // Outage check first, before any RNG fork, so unaffected weeks
        // keep their exact verdict streams.
        let week = attack.start.week_index();
        if self.faults.is_down(week) {
            return false;
        }
        if attack.class != AttackClass::ReflectionAmplification {
            return false;
        }
        let Some((vector, reflectors)) = attack.vector.amp_vector().zip(attack.reflector_count)
        else {
            return false;
        };
        if !self.cfg.supports(vector) {
            return false;
        }
        let Some(&pool) = self.pools.get(&vector) else {
            return false;
        };
        let k = reflectors as f64;
        let select_p = (self.cfg.selection_boost * k / pool as f64).min(1.0);
        let mut rng = root.fork(attack.id.0).fork_named(&self.cfg.name);
        // Sensor fleet at this week: the nominal count unless churn is
        // injected (identity pass-through keeps the binomial draw
        // bit-identical on the fault-free path).
        let sensors = self.faults.fleet_at(self.cfg.sensor_count() as u64, week);
        if sensors == 0 {
            return false;
        }
        // How many of our sensors did the attacker pick?
        let m = binomial(&mut rng, sensors, select_p);
        if m == 0 {
            return false;
        }
        // Per-sensor, per-victim expected request packets over the whole
        // attack (honeypots cap responses via safeguards, but *requests*
        // keep arriving and are what the detector counts).
        let width = attack.targets.len() as f64;
        // Booters re-fire short attacks back to back; a platform with a
        // long flow timeout (AmpPot: 60 min) accumulates those repeats
        // into one flow, multiplying the packets the threshold sees.
        let repetition = (self.cfg.timeout_secs as f64 / attack.duration_secs as f64)
            .clamp(1.0, 4.0);
        let per_sensor_victim =
            attack.pps / k * attack.duration_secs as f64 * repetition / width;
        // A victim is recorded if its flow at the busiest selected
        // sensor clears the packet threshold.
        let draws = m.min(3);
        out.begin_row(attack.id, attack.start);
        for &victim in attack.targets {
            let best = (0..draws)
                .map(|_| poisson(&mut rng, per_sensor_victim))
                .max()
                .unwrap_or(0);
            if best >= self.cfg.min_packets {
                out.push_target(victim);
            }
        }
        if out.pending_targets() == 0 {
            out.rollback_row();
            return false;
        }
        out.commit_row();
        true
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

    /// The observation of `a` in a fresh sink (empty when unseen).
    fn sink(hp: &Honeypot, a: AttackRef<'_>, root: &SimRng) -> ObservationColumns {
        let mut out = ObservationColumns::new();
        hp.observe_into(a, root, &mut out);
        out
    }

    fn seen(hp: &Honeypot, a: AttackRef<'_>, root: &SimRng) -> bool {
        hp.observe_into(a, root, &mut ObservationColumns::new())
    }

    /// Consecutive victims from 11.0.0.0: an attack of width `w` hits
    /// the first `w`.
    static VICTIMS: [Ipv4; 64] = {
        let mut ips = [Ipv4(0); 64];
        let mut i = 0;
        while i < ips.len() {
            ips[i] = Ipv4(0x0B00_0000 + i as u32);
            i += 1;
        }
        ips
    };

    fn ra(id: u64, vector: AmpVector, k: u32, pps: f64, width: u32) -> AttackRef<'static> {
        AttackRef {
            id: AttackId(id),
            class: AttackClass::ReflectionAmplification,
            vector: AttackVector::Amplification(vector),
            start: SimTime(50_000),
            duration_secs: 600,
            targets: &VICTIMS[..width as usize],
            target_asn: Asn(1),
            pps,
            bps: pps * 4000.0,
            reflector_count: Some(k),
            spoof_space_fraction: 0.0,
            campaign: None,
        }
    }

    #[test]
    fn heavy_attack_with_many_reflectors_usually_seen() {
        let plan = plan();
        let hp = Honeypot::hopscotch(&plan);
        let root = SimRng::new(1);
        let pool = plan.reflector_pools[&AmpVector::Dns] as f64;
        // Selection probability ≈ 1 - (1 - k/P)^65; pick k for ≈95 %.
        let k = (pool * 0.045) as u32;
        let hits = (0..200)
            .filter(|&id| seen(&hp, ra(id, AmpVector::Dns, k, 50_000.0, 1), &root))
            .count();
        assert!(hits > 170, "seen {hits}/200");
    }

    #[test]
    fn few_reflectors_rarely_selected() {
        let plan = plan();
        let hp = Honeypot::hopscotch(&plan);
        let root = SimRng::new(1);
        let hits = (0..200)
            .filter(|&id| seen(&hp, ra(id, AmpVector::Dns, 20, 50_000.0, 1), &root))
            .count();
        // 20 / 50k pool × 65 sensors ⇒ ~2.6 % selection.
        assert!(hits < 20, "seen {hits}/200");
    }

    #[test]
    fn unsupported_vector_invisible() {
        let plan = plan();
        let hops = Honeypot::hopscotch(&plan);
        let amppot = Honeypot::amppot(&plan);
        let root = SimRng::new(1);
        // CHARGEN: AmpPot yes, Hopscotch no (§7.3).
        let pool = plan.reflector_pools[&AmpVector::CharGen];
        let k = (pool / 10).max(100) as u32;
        let mut amppot_seen = 0;
        for id in 0..100 {
            let a = ra(id, AmpVector::CharGen, k, 100_000.0, 1);
            assert!(!seen(&hops, a, &root));
            amppot_seen += seen(&amppot, a, &root) as u32;
        }
        assert!(amppot_seen > 50, "amppot {amppot_seen}");
    }

    #[test]
    fn direct_path_invisible() {
        let plan = plan();
        let hp = Honeypot::amppot(&plan);
        let root = SimRng::new(1);
        let mut a = ra(1, AmpVector::Dns, 10_000, 100_000.0, 1);
        a.class = AttackClass::DirectPathSpoofed;
        a.reflector_count = None;
        a.spoof_space_fraction = 1.0;
        assert!(!seen(&hp, a, &root));
    }

    #[test]
    fn amppot_threshold_is_harder() {
        // Same low-rate attack: Hopscotch (≥5 pkts) catches it when
        // selected, AmpPot (≥100 pkts) rejects the flow even when
        // selected. A 1-hour duration keeps the repetition factor at 1
        // for both platforms, and a large k keeps selection ≈ certain
        // for both — isolating the packet-threshold difference.
        let plan = plan();
        let hops = Honeypot::hopscotch(&plan);
        let amppot = Honeypot::amppot(&plan);
        let root = SimRng::new(2);
        let pool = plan.reflector_pools[&AmpVector::Dns] as f64;
        let k = (pool * 0.05) as u32;
        let duration = 3600u32;
        let mut hops_seen = 0;
        let mut amppot_seen = 0;
        for id in 0..300 {
            // ~30 packets per selected sensor over the whole attack.
            let pps = k as f64 * 30.0 / duration as f64;
            let mut a = ra(id, AmpVector::Dns, k, pps, 1);
            a.duration_secs = duration;
            hops_seen += seen(&hops, a, &root) as u32;
            amppot_seen += seen(&amppot, a, &root) as u32;
        }
        assert!(hops_seen > 200, "hopscotch {hops_seen}");
        assert!(amppot_seen < hops_seen / 4, "amppot {amppot_seen} vs {hops_seen}");
    }

    #[test]
    fn platforms_draw_independently() {
        let plan = plan();
        let hops = Honeypot::hopscotch(&plan);
        let amppot = Honeypot::amppot(&plan);
        let root = SimRng::new(3);
        let pool = plan.reflector_pools[&AmpVector::Dns] as f64;
        let k = (pool * 0.02) as u32;
        let mut hops_only = 0;
        let mut amppot_only = 0;
        let mut both = 0;
        for id in 0..400 {
            let a = ra(id, AmpVector::Dns, k, 100_000.0, 1);
            let h = seen(&hops, a, &root);
            let m = seen(&amppot, a, &root);
            if h && m {
                both += 1;
            } else if h {
                hops_only += 1;
            } else if m {
                amppot_only += 1;
            }
        }
        // All three categories must occur (Fig. 7's partial overlap).
        assert!(both > 0 && hops_only > 0 && amppot_only > 0,
            "both {both}, hops {hops_only}, amppot {amppot_only}");
    }

    #[test]
    fn carpet_records_subset_of_targets() {
        let plan = plan();
        let hp = Honeypot::hopscotch(&plan);
        let root = SimRng::new(4);
        let pool = plan.reflector_pools[&AmpVector::Ssdp] as f64;
        let k = (pool * 0.05) as u32;
        // Wide, low-rate carpet: per-victim flow small, only some
        // victims cross the 5-packet bar.
        let width = 64;
        let pps = k as f64 * 6.0 * width as f64 / 600.0; // ~6 pkts/victim/sensor
        let mut partial = false;
        for id in 0..100 {
            let a = ra(id, AmpVector::Ssdp, k, pps, width);
            for o in sink(&hp, a, &root).iter() {
                assert!(o.targets.iter().all(|t| a.targets.contains(t)));
                if o.targets.len() < width as usize {
                    partial = true;
                }
            }
        }
        assert!(partial, "carpet observation should sometimes be partial");
    }

    #[test]
    fn churn_shrinks_the_fleet_and_outage_kills_it() {
        let plan = plan();
        let healthy = Honeypot::hopscotch(&plan);
        let mut declining = Honeypot::hopscotch(&plan);
        declining.faults.churn = Some(simcore::faults::SensorChurn {
            decline_per_year: 0.25,
            offline_weekly: 0.1,
            seed: 5,
        });
        let mut dark = Honeypot::hopscotch(&plan);
        let week = SimTime(50_000).week_index() as u32;
        dark.faults.outages.push(simcore::faults::OutageWindow {
            start_week: week,
            end_week: week + 1,
        });
        let root = SimRng::new(1);
        let pool = plan.reflector_pools[&AmpVector::Dns] as f64;
        // Moderate selection probability so a fleet shrunk to ~25%
        // after three years of decline clearly changes the hit count.
        let k = (pool * 0.02) as u32;
        let late_start = SimTime(3 * 365 * 86_400); // ~3 years in
        let count = |hp: &Honeypot, start: SimTime| {
            (0..300)
                .filter(|&id| {
                    let mut a = ra(id, AmpVector::Dns, k, 50_000.0, 1);
                    a.start = start;
                    seen(hp, a, &root)
                })
                .count()
        };
        let full = count(&healthy, late_start);
        let shrunk = count(&declining, late_start);
        assert!(
            shrunk * 2 < full,
            "a ~90% smaller fleet must see far less: {shrunk} vs {full}"
        );
        assert_eq!(count(&dark, SimTime(50_000)), 0, "outage week records nothing");
        assert_eq!(count(&dark, late_start), full, "outside the window: bit-identical");
    }

    #[test]
    fn observation_deterministic() {
        let plan = plan();
        let hp = Honeypot::amppot(&plan);
        let root = SimRng::new(5);
        let pool = plan.reflector_pools[&AmpVector::Ntp] as f64;
        let a = ra(42, AmpVector::Ntp, (pool * 0.05) as u32, 80_000.0, 1);
        let first = sink(&hp, a, &root);
        for _ in 0..10 {
            assert_eq!(sink(&hp, a, &root), first);
        }
    }
}
