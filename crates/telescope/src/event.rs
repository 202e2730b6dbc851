//! Event-level telescope observatory: the fast visibility model used for
//! the 4.5-year macro study.
//!
//! Applies the *same* Appendix-J thresholds as the packet-level
//! [`crate::corsaro::RsdosDetector`], but analytically: for each
//! ground-truth attack it computes the expected backscatter rate into
//! the darknet and samples the detector verdict, instead of materializing
//! millions of packets. The `corsaro_agrees_with_event_model` test in
//! this crate cross-validates the two paths.

use crate::corsaro::RsdosConfig;
use attackgen::packets::BACKSCATTER_RESPONSE_RATE;
use attackgen::{AttackClass, AttackRef, ObservationColumns};
use netmodel::{InternetPlan, TelescopePlan};
use simcore::dist::poisson;
use simcore::faults::ObsFaults;
use simcore::SimRng;

/// An operating network telescope.
#[derive(Debug, Clone)]
pub struct Telescope {
    pub spec: TelescopePlan,
    pub cfg: RsdosConfig,
    /// Fraction of attack packets the victim answers.
    pub response_rate: f64,
    /// Injected data-plane faults (outage windows). Empty by default
    /// and bit-for-bit inert when empty.
    pub faults: ObsFaults,
}

impl Telescope {
    /// The UCSD-NT instance (/9 + /10, ≈ 12M addresses).
    pub fn ucsd(plan: &InternetPlan) -> Self {
        Telescope {
            spec: plan.ucsd.clone(),
            cfg: RsdosConfig::default(),
            response_rate: BACKSCATTER_RESPONSE_RATE,
            faults: ObsFaults::default(),
        }
    }

    /// The Merit ORION instance (/13, ≈ 500k addresses).
    pub fn orion(plan: &InternetPlan) -> Self {
        Telescope {
            spec: plan.orion.clone(),
            cfg: RsdosConfig::default(),
            response_rate: BACKSCATTER_RESPONSE_RATE,
            faults: ObsFaults::default(),
        }
    }

    /// Darknet coverage of the IPv4 space.
    pub fn coverage(&self) -> f64 {
        self.spec.coverage()
    }

    /// Event-level observation of one attack, appended directly to a
    /// columnar sink. Returns whether a row was emitted; when the
    /// telescope sees nothing that clears the RSDoS thresholds the sink
    /// is left untouched.
    ///
    /// The verdict RNG is forked from (attack id, telescope name) so
    /// observations are deterministic and independent across
    /// observatories regardless of processing order.
    pub fn observe_into(
        &self,
        attack: AttackRef<'_>,
        root: &SimRng,
        out: &mut ObservationColumns,
    ) -> bool {
        // Outage check first, before any RNG fork: a dark telescope
        // records nothing, and the fault path must not perturb the
        // verdict streams of unaffected weeks.
        if self.faults.is_down(attack.start.week_index()) {
            return false;
        }
        if attack.class != AttackClass::DirectPathSpoofed {
            return false;
        }
        let f = attack.spoof_space_fraction;
        if f <= 0.0 {
            return false;
        }
        let mut rng = root.fork(attack.id.0).fork_named(&self.spec.name);
        // Is the darknet inside the attacker's spoof rotation range?
        if !rng.chance(f) {
            return false;
        }
        let density = (self.coverage() / f).min(1.0);
        let duration = attack.duration_secs as i64;
        if duration < self.cfg.min_duration_secs {
            return false;
        }
        out.begin_row(attack.id, attack.start);
        for &victim in attack.targets {
            // Backscatter rate from this victim into the darknet.
            let lambda = attack.pps_per_target() * self.response_rate * density;
            let total = poisson(&mut rng, lambda * attack.duration_secs as f64);
            if total < self.cfg.min_packets {
                continue;
            }
            // Peak sliding-window check: the max over the flow's windows
            // exceeds the threshold if any of a handful of sampled
            // windows does (windows overlap; a few draws approximate the
            // running maximum well).
            let windows = (duration / self.cfg.rate_slide_secs).clamp(1, 6);
            let window_mean = lambda * self.cfg.rate_window_secs as f64;
            let peak = (0..windows)
                .map(|_| poisson(&mut rng, window_mean))
                .max()
                .unwrap_or(0);
            if peak >= self.cfg.rate_threshold {
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
    use crate::corsaro::RsdosDetector;
    use attackgen::attack::{Attack, AttackId, AttackVector};
    use attackgen::packets::backscatter_packets;
    use netmodel::{Asn, Ipv4, NetScale};

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    /// The observation of `a` in a fresh sink (empty when unseen).
    fn sink(t: &Telescope, a: &Attack, root: &SimRng) -> ObservationColumns {
        let mut out = ObservationColumns::new();
        t.observe_into(a.view(), root, &mut out);
        out
    }

    fn seen(t: &Telescope, a: &Attack, root: &SimRng) -> bool {
        t.observe_into(a.view(), root, &mut ObservationColumns::new())
    }

    fn rsdos(id: u64, pps: f64, duration: u32, spoof: f64) -> Attack {
        Attack {
            id: AttackId(id),
            class: AttackClass::DirectPathSpoofed,
            vector: AttackVector::SynFlood,
            start: simcore::SimTime(10_000),
            duration_secs: duration,
            targets: vec![Ipv4::new(93, 184, 216, 34)],
            target_asn: Asn(1),
            pps,
            bps: pps * 3360.0,
            reflectors: None,
            spoof_space_fraction: spoof,
            campaign: None,
        }
    }

    #[test]
    fn big_attack_seen_by_both_telescopes() {
        let plan = plan();
        let (ucsd, orion) = (Telescope::ucsd(&plan), Telescope::orion(&plan));
        let root = SimRng::new(1);
        let a = rsdos(1, 500_000.0, 600, 1.0);
        assert!(seen(&ucsd, &a, &root));
        assert!(seen(&orion, &a, &root));
    }

    #[test]
    fn small_attack_seen_only_by_ucsd() {
        // §6.1 reason (i): UCSD is ~24x larger, so it detects attacks
        // ORION cannot.
        let plan = plan();
        let (ucsd, orion) = (Telescope::ucsd(&plan), Telescope::orion(&plan));
        let root = SimRng::new(1);
        // ~0.2 Mbps: above UCSD's 0.026 Mbps floor, below ORION's 0.6.
        let mut ucsd_hits = 0;
        let mut orion_hits = 0;
        for id in 0..100 {
            let a = rsdos(id, 400.0, 600, 1.0);
            ucsd_hits += seen(&ucsd, &a, &root) as u32;
            orion_hits += seen(&orion, &a, &root) as u32;
        }
        assert!(ucsd_hits > 90, "ucsd {ucsd_hits}");
        assert!(orion_hits < 10, "orion {orion_hits}");
    }

    #[test]
    fn tiny_attack_missed_by_both() {
        let plan = plan();
        let (ucsd, orion) = (Telescope::ucsd(&plan), Telescope::orion(&plan));
        let root = SimRng::new(1);
        for id in 0..50 {
            let a = rsdos(id, 50.0, 300, 1.0);
            assert!(!seen(&ucsd, &a, &root));
            assert!(!seen(&orion, &a, &root));
        }
    }

    #[test]
    fn non_rsdos_invisible() {
        let plan = plan();
        let ucsd = Telescope::ucsd(&plan);
        let root = SimRng::new(1);
        let mut a = rsdos(1, 500_000.0, 600, 1.0);
        a.class = AttackClass::DirectPathNonSpoofed;
        a.spoof_space_fraction = 0.0;
        assert!(!seen(&ucsd, &a, &root));
        a.class = AttackClass::ReflectionAmplification;
        assert!(!seen(&ucsd, &a, &root));
    }

    #[test]
    fn short_attack_rejected() {
        let plan = plan();
        let ucsd = Telescope::ucsd(&plan);
        let root = SimRng::new(1);
        let a = rsdos(1, 500_000.0, 45, 1.0); // under 60 s
        assert!(!seen(&ucsd, &a, &root));
    }

    #[test]
    fn partial_spoof_misses_sometimes() {
        let plan = plan();
        let ucsd = Telescope::ucsd(&plan);
        let root = SimRng::new(1);
        let hits = (0..300)
            .filter(|&id| seen(&ucsd, &rsdos(id, 500_000.0, 600, 0.4), &root))
            .count();
        // ~40% inclusion probability.
        assert!((80..=160).contains(&hits), "seen {hits}");
    }

    #[test]
    fn observation_deterministic() {
        let plan = plan();
        let ucsd = Telescope::ucsd(&plan);
        let root = SimRng::new(9);
        let a = rsdos(7, 2_000.0, 300, 0.7);
        let first = sink(&ucsd, &a, &root);
        for _ in 0..10 {
            assert_eq!(sink(&ucsd, &a, &root), first);
        }
    }

    #[test]
    fn telescopes_decorrelated_per_attack() {
        // The same attack must get *different* randomness at the two
        // telescopes (partial-spoof inclusion must not be lockstep).
        let plan = plan();
        let (ucsd, orion) = (Telescope::ucsd(&plan), Telescope::orion(&plan));
        let root = SimRng::new(9);
        let mut diverged = false;
        for id in 0..200 {
            let a = rsdos(id, 10_000_000.0, 600, 0.5);
            let u = seen(&ucsd, &a, &root);
            let o = seen(&orion, &a, &root);
            if u != o {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "inclusion draws should differ across telescopes");
    }

    #[test]
    fn corsaro_agrees_with_event_model() {
        // Cross-validate packet-level Corsaro against the event-level
        // verdict across a pps sweep: away from the threshold boundary
        // the two fidelities must agree.
        let plan = plan();
        let ucsd = Telescope::ucsd(&plan);
        let root = SimRng::new(31);
        let mut agreements = 0;
        let mut total = 0;
        for (i, &pps) in [100.0f64, 400.0, 1500.0, 6000.0, 25_000.0, 100_000.0]
            .iter()
            .enumerate()
        {
            for rep in 0..5 {
                let a = rsdos(1000 + (i * 5 + rep) as u64, pps, 600, 1.0);
                let event_verdict = seen(&ucsd, &a, &root);
                let mut pkt_rng = root.fork(a.id.0).fork_named("packets");
                let pkts = backscatter_packets(a.view(), &ucsd.spec, &mut pkt_rng);
                let mut det = RsdosDetector::new(RsdosConfig::default());
                for p in &pkts {
                    det.ingest(p);
                }
                let packet_verdict = !det.finish().is_empty();
                total += 1;
                if event_verdict == packet_verdict {
                    agreements += 1;
                }
            }
        }
        let rate = agreements as f64 / total as f64;
        assert!(rate >= 0.85, "agreement rate {rate}");
    }

    #[test]
    fn outage_blacks_out_exactly_its_window() {
        let plan = plan();
        let mut dark = Telescope::ucsd(&plan);
        let week = rsdos(1, 1.0, 1, 1.0).start.week_index() as u32;
        dark.faults.outages.push(simcore::faults::OutageWindow {
            start_week: week,
            end_week: week + 1,
        });
        let healthy = Telescope::ucsd(&plan);
        let root = SimRng::new(1);
        let a = rsdos(1, 500_000.0, 600, 1.0);
        assert!(seen(&healthy, &a, &root));
        assert!(!seen(&dark, &a, &root), "in-window attack must vanish");
        // An attack one week later is past the outage and must match
        // the healthy telescope bit-for-bit.
        let mut later = rsdos(2, 500_000.0, 600, 1.0);
        later.start = simcore::SimTime(later.start.0 + 7 * 86_400);
        assert_eq!(sink(&dark, &later, &root), sink(&healthy, &later, &root));
    }

    #[test]
    fn observe_into_filters_a_stream() {
        let plan = plan();
        let ucsd = Telescope::ucsd(&plan);
        let root = SimRng::new(2);
        let attacks = vec![
            rsdos(1, 500_000.0, 600, 1.0),
            rsdos(2, 10.0, 300, 1.0),
            rsdos(3, 500_000.0, 600, 1.0),
        ];
        let mut kept = ObservationColumns::new();
        for a in &attacks {
            ucsd.observe_into(a.view(), &root, &mut kept);
        }
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|o| o.attack_id.0 != 2));
    }
}
