//! Cross-crate packet-fidelity tests: drive the packet-level detectors
//! with attacks produced by the real generator (not hand-built ones)
//! and check they agree with the event-level observatory models.

use attackgen::packets::{backscatter_packets, sensor_request_packets};
use attackgen::{
    AttackClass, AttackColumns, AttackGenerator, AttackId, GenConfig, ObservationColumns,
};
use honeypot::{merge_sensor_flows, HoneypotConfig, HoneypotDetector};
use netmodel::{InternetPlan, NetScale};
use simcore::SimRng;
use telescope::{RsdosConfig, RsdosDetector, Telescope};

fn plan_and_attacks() -> (InternetPlan, AttackColumns) {
    let mut rng = SimRng::new(2024);
    let plan = InternetPlan::build(&NetScale::tiny(), &mut rng);
    let mut cfg = GenConfig::default();
    cfg.timeline.dp_base_per_week = 15.0;
    cfg.timeline.ra_base_per_week = 25.0;
    cfg.random_campaign_count = 0;
    cfg.campaign_rate_scale = 0.0;
    let root = SimRng::new(7);
    let gen = AttackGenerator::new(&plan, cfg, &root);
    let mut cols = AttackColumns::new();
    // Two months of attacks are plenty for fidelity checks.
    for week in 0..9 {
        gen.generate_week(week, &mut cols);
    }
    (plan, cols)
}

#[test]
fn corsaro_agreement_on_generated_attacks() {
    let (plan, attacks) = plan_and_attacks();
    let tele = Telescope::ucsd(&plan);
    let root = SimRng::new(11);
    let mut agree = 0usize;
    let mut total = 0usize;
    for a in attacks
        .iter()
        .filter(|a| a.class == AttackClass::DirectPathSpoofed)
        .take(80)
    {
        let event = tele.observe_into(a, &root, &mut ObservationColumns::new());
        let mut prng = root.fork(a.id.0).fork_named("fidelity");
        let pkts = backscatter_packets(a, &tele.spec, &mut prng);
        let mut det = RsdosDetector::new(RsdosConfig::default());
        for p in &pkts {
            det.ingest(p);
        }
        let packet = !det.finish().is_empty();
        total += 1;
        agree += (event == packet) as usize;
    }
    assert!(total >= 40, "too few RSDoS attacks generated ({total})");
    let rate = agree as f64 / total as f64;
    assert!(rate >= 0.8, "agreement {rate:.2} over {total} attacks");
}

#[test]
fn honeypot_detector_sees_generated_reflection_attacks() {
    let (plan, attacks) = plan_and_attacks();
    let cfg = HoneypotConfig::hopscotch(&plan);
    let sensor = cfg.sensors[0];
    let root = SimRng::new(13);
    let mut detected = 0usize;
    let mut total = 0usize;
    let mut det = HoneypotDetector::new(cfg.clone());
    let mut packets = Vec::new();
    for a in attacks
        .iter()
        .filter(|a| {
            a.class == AttackClass::ReflectionAmplification
                && a.reflectors.map(|r| cfg.supports(r.vector)) == Some(true)
        })
        .take(60)
    {
        let mut prng = root.fork(a.id.0).fork_named("hp-fidelity");
        let pkts = sensor_request_packets(a, sensor, &mut prng);
        let refl = a.reflectors.unwrap();
        let expected = a.pps / refl.reflector_count.max(1) as f64 * a.duration_secs as f64
            / a.targets.len() as f64;
        // Count only comfortably-above-threshold attacks for the
        // detection-rate check (near-threshold ones are legitimately
        // coin flips).
        if expected > 3.0 * cfg.min_packets as f64 {
            total += 1;
            let mut one = HoneypotDetector::new(cfg.clone());
            for p in &pkts {
                one.ingest(p);
            }
            detected += (!one.finish().is_empty()) as usize;
        }
        packets.extend(pkts);
    }
    assert!(total >= 10, "too few qualifying RA attacks ({total})");
    assert!(
        detected as f64 >= 0.9 * total as f64,
        "detected {detected}/{total}"
    );
    // The merged stream across attacks still yields sane flows.
    packets.sort_by_key(|p| p.time);
    for p in &packets {
        det.ingest(p);
    }
    let flows = det.finish();
    let events = merge_sensor_flows(&flows, cfg.timeout_secs);
    assert!(!events.is_empty());
    for e in &events {
        assert!(e.first_seen <= e.last_seen);
        assert!(e.packets >= cfg.min_packets);
    }
}

#[test]
fn generated_carpet_attacks_reconstructable() {
    // The Appendix-I reconstruction groups a carpet attack's per-victim
    // observations back into one event.
    use honeypot::{carpet_prefix, reconstruct_carpet_columns};
    let (plan, attacks) = plan_and_attacks();
    let carpet = attacks
        .iter()
        .find(|a| a.is_carpet_bombing() && plan.routed_prefix_of(a.targets[0]).is_some());
    let Some(carpet) = carpet else {
        // Carpet probability is small; with a tiny sample it can miss.
        return;
    };
    // Fabricate per-victim observations as a honeypot would emit them.
    let mut per_victim = ObservationColumns::new();
    for (i, &t) in carpet.targets.iter().enumerate() {
        let id = AttackId(carpet.id.0 * 1000 + i as u64);
        per_victim.push_row(id, carpet.start.plus_secs(i as i64), &[t]);
    }
    let merged = reconstruct_carpet_columns(&plan, &per_victim, 3600);
    // All targets share one routed block (generator invariant), so they
    // collapse into a single event covering every victim.
    let prefixes: std::collections::HashSet<_> = carpet
        .targets
        .iter()
        .filter_map(|&t| carpet_prefix(&plan, t))
        .collect();
    if prefixes.len() == 1 {
        assert_eq!(merged.len(), 1, "carpet should merge into one event");
        assert_eq!(merged.targets(0).len(), carpet.targets.len());
    } else {
        assert!(merged.len() <= per_victim.len());
    }
}
