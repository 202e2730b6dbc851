//! Detector validation walkthrough: drive the *packet-level* detectors
//! — Corsaro RSDoS (Appendix J), the honeypot flow detectors (Table 2)
//! and the IXP blackholing classifier — with synthesized packet streams
//! from hand-built attacks, and show how each platform's parameters
//! change the verdict.
//!
//! Run with: `cargo run --release --example detector_validation`

use attackgen::attack::{Attack, AttackClass, AttackId, AttackVector, ReflectorUse};
use attackgen::packets::{backscatter_packets, sensor_request_packets, victim_traffic_sample};
use flowmon::{classify_blackholed_traffic, IxpConfig};
use honeypot::{HoneypotConfig, HoneypotDetector};
use netmodel::{AmpVector, Asn, InternetPlan, Ipv4, NetScale};
use simcore::{SimRng, SimTime};
use telescope::{min_detectable_rate_mbps, RsdosConfig, RsdosDetector, Telescope};

fn rsdos(id: u64, pps: f64, duration_secs: u32) -> Attack {
    Attack {
        id: AttackId(id),
        class: AttackClass::DirectPathSpoofed,
        vector: AttackVector::SynFlood,
        start: SimTime(100_000),
        duration_secs,
        targets: vec![Ipv4::new(93, 184, 216, 34)],
        target_asn: Asn(64500),
        pps,
        bps: pps * 3360.0,
        reflectors: None,
        spoof_space_fraction: 1.0,
        campaign: None,
    }
}

fn ra(id: u64, vector: AmpVector, reflectors: u32, pps: f64) -> Attack {
    Attack {
        id: AttackId(id),
        class: AttackClass::ReflectionAmplification,
        vector: AttackVector::Amplification(vector),
        start: SimTime(200_000),
        duration_secs: 600,
        targets: vec![Ipv4::new(198, 51, 7, 7)],
        target_asn: Asn(64501),
        pps,
        bps: pps * vector.response_bytes() as f64 * 8.0,
        reflectors: Some(ReflectorUse {
            vector,
            reflector_count: reflectors,
        }),
        spoof_space_fraction: 0.0,
        campaign: None,
    }
}

fn main() {
    let mut rng = SimRng::new(7);
    let plan = InternetPlan::build(&NetScale::tiny(), &mut rng);
    let ucsd = Telescope::ucsd(&plan);
    let orion = Telescope::orion(&plan);
    let cfg = RsdosConfig::default();

    println!("== Telescope sensitivity (Section 5) ==");
    println!(
        "minimum detectable rate: UCSD-NT {:.3} Mbps, ORION {:.3} Mbps",
        min_detectable_rate_mbps(ucsd.coverage(), &cfg),
        min_detectable_rate_mbps(orion.coverage(), &cfg)
    );

    println!("\n== Corsaro RSDoS detector (Appendix J) over synthesized backscatter ==");
    println!("{:>12} {:>9}  {:>14} {:>14}", "attack pps", "duration", "UCSD verdict", "ORION verdict");
    for (i, &(pps, dur)) in [(500.0, 300u32), (2_000.0, 300), (8_000.0, 300), (50_000.0, 45), (50_000.0, 300)]
        .iter()
        .enumerate()
    {
        let attack = rsdos(i as u64, pps, dur);
        let verdict = |tele: &Telescope| -> &'static str {
            let mut prng = rng.fork(attack.id.0).fork_named(&tele.spec.name);
            let pkts = backscatter_packets(attack.view(), &tele.spec, &mut prng);
            let mut det = RsdosDetector::new(RsdosConfig::default());
            for p in &pkts {
                det.ingest(p);
            }
            if det.finish().is_empty() {
                "missed"
            } else {
                "DETECTED"
            }
        };
        println!(
            "{:>12} {:>8}s  {:>14} {:>14}",
            pps,
            dur,
            verdict(&ucsd),
            verdict(&orion)
        );
    }

    println!("\n== Honeypot flow detectors (Table 2) over synthesized reflector requests ==");
    let amppot_cfg = HoneypotConfig::amppot(&plan);
    let hops_cfg = HoneypotConfig::hopscotch(&plan);
    println!(
        "{:>10} {:>12} {:>10}  {:>14} {:>14}",
        "vector", "reflectors", "pps", "AmpPot", "Hopscotch"
    );
    for (i, &(vector, reflectors, pps)) in [
        (AmpVector::Dns, 500u32, 50_000.0),
        (AmpVector::Dns, 20_000, 2_000.0),  // spread too thin for AmpPot's 100-pkt bar
        (AmpVector::CharGen, 500, 50_000.0), // Hopscotch doesn't emulate CHARGEN
        (AmpVector::Cldap, 500, 50_000.0),   // AmpPot doesn't emulate CLDAP
    ]
    .iter()
    .enumerate()
    {
        let attack = ra(100 + i as u64, vector, reflectors, pps);
        let verdict = |cfg: &HoneypotConfig| -> &'static str {
            let sensor = cfg.sensors[0];
            let mut prng = rng.fork(attack.id.0).fork_named(&cfg.name);
            let pkts = sensor_request_packets(attack.view(), sensor, &mut prng);
            let mut det = HoneypotDetector::new(cfg.clone());
            for p in &pkts {
                det.ingest(p);
            }
            if det.finish().is_empty() {
                "missed"
            } else {
                "DETECTED"
            }
        };
        println!(
            "{:>10} {:>12} {:>10}  {:>14} {:>14}",
            vector.label(),
            reflectors,
            pps,
            verdict(&amppot_cfg),
            verdict(&hops_cfg)
        );
    }

    println!("\n== IXP blackholing classifier (Table 2) over victim-side traffic ==");
    // One-second attack slices so the full packet stream fits in memory
    // (the classifier's rate estimate needs the complete traffic of the
    // window, not a sample).
    let ixp_cfg = IxpConfig::default();
    println!("{:>24} {:>10}  classification", "attack", "bps");
    for (name, mut attack) in [
        ("NTP amp, 5 Gbps", ra(200, AmpVector::Ntp, 800, 1.5e6)),
        ("NTP amp, 0.3 Gbps", ra(201, AmpVector::Ntp, 800, 8.0e4)),
        ("SYN flood, 500 Mbps", rsdos(202, 1.5e5, 300)),
        ("SYN flood, 20 Mbps", rsdos(203, 6.0e3, 300)),
    ] {
        attack.duration_secs = 1;
        let mut prng = rng.fork(attack.id.0).fork_named("ixp");
        let pkts = victim_traffic_sample(attack.view(), usize::MAX, &mut prng);
        let verdict = classify_blackholed_traffic(&pkts, &ixp_cfg);
        println!("{:>24} {:>10.2e}  {:?}", name, attack.bps, verdict);
    }
}
