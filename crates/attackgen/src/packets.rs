//! Packet-level synthesis: turn an attack row ([`AttackRef`]) into the
//! concrete packet streams each observatory type would capture.
//!
//! This is the *packet-level fidelity* path (DESIGN.md §1): it exists so
//! the detector implementations (Corsaro RSDoS, honeypot flow
//! aggregation, IXP classification) can be exercised against realistic
//! input and cross-validated against the fast event-level visibility
//! models. Macro runs over the full 4.5 years use the event-level path;
//! generating every packet of every attack would be pointless work.

use crate::attack::{AttackClass, AttackVector};
use crate::columns::AttackRef;
use netmodel::{Ipv4, TelescopePlan, Transport};
use serde::{Deserialize, Serialize};
use simcore::dist::{binomial, poisson};
use simcore::{SimRng, SimTime};

/// One captured packet (the fields every detector in the workspace keys
/// on; payload is irrelevant to all of the paper's methodologies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketEvent {
    pub time: SimTime,
    pub src: Ipv4,
    pub src_port: u16,
    pub dst: Ipv4,
    pub dst_port: u16,
    pub transport: Transport,
    pub size_bytes: u32,
}

/// Fraction of direct-path attack packets the victim actually answers
/// (backscatter response rate): hosts under attack drop, rate-limit, or
/// get filtered.
pub const BACKSCATTER_RESPONSE_RATE: f64 = 0.8;

/// Derive a stable ephemeral source port for an attack (booters commonly
/// fix the spoofed source port per attack run).
pub fn attack_ephemeral_port(attack: AttackRef<'_>) -> u16 {
    49_152 + (attack.id.0 % 16_384) as u16
}

/// Safety cap on synthesized packets per attack. A Pareto-tail monster
/// (tens of Mpps for hours) would otherwise materialize billions of
/// events; any flow that large clears every detector threshold within
/// its first sliver, so truncating the synthesis is verdict-neutral.
pub const MAX_SYNTH_PACKETS: u64 = 2_000_000;

/// Synthesize the backscatter packets a telescope would capture from a
/// randomly-spoofed direct-path attack.
///
/// Physics (§5): the victim answers spoofed sources; a telescope
/// covering fraction `c` of the spoofed space receives ≈ `c` of all
/// responses. If the attacker rotates over only a fraction `f < 1` of
/// the space (§6.1 reasons (ii)/(iii)), the telescope is inside the
/// rotated range with probability `f`, and — if inside — receives a
/// correspondingly denser share `c / f`.
pub fn backscatter_packets(
    attack: AttackRef<'_>,
    telescope: &TelescopePlan,
    rng: &mut SimRng,
) -> Vec<PacketEvent> {
    if attack.class != AttackClass::DirectPathSpoofed {
        return Vec::new();
    }
    let f = attack.spoof_space_fraction;
    if f <= 0.0 || !rng.chance(f) {
        return Vec::new();
    }
    let density = (telescope.coverage() / f).min(1.0);
    let responses = attack.total_packets() * BACKSCATTER_RESPONSE_RATE;
    let n = binomial(rng, responses as u64, density).min(MAX_SYNTH_PACKETS);
    let (transport, src_port) = match attack.vector {
        AttackVector::SynFlood => (Transport::Tcp, 80u16), // SYN-ACK / RST from the service
        AttackVector::UdpFlood => (Transport::Icmp, 0),    // ICMP port unreachable
        _ => (Transport::Icmp, 0),                         // ICMP echo reply etc.
    };
    let victim = attack.primary_target();
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let t = attack
            .start
            .plus_secs(rng.u64_below(attack.duration_secs.max(1) as u64) as i64);
        // Uniform landing spot inside the darknet.
        let total: u64 = telescope.prefixes.iter().map(|p| p.size()).sum();
        let mut i = rng.u64_below(total);
        let mut dst = telescope.prefixes[0].base();
        for p in &telescope.prefixes {
            if i < p.size() {
                dst = p.nth(i);
                break;
            }
            i -= p.size();
        }
        out.push(PacketEvent {
            time: t,
            src: victim,
            src_port,
            dst,
            dst_port: attack_ephemeral_port(attack),
            transport,
            size_bytes: 60,
        });
    }
    out.sort_by_key(|p| p.time);
    out
}

/// Synthesize the amplification *requests* arriving at one honeypot
/// sensor that the attacker selected as a reflector.
///
/// Request rate per reflector ≈ aggregate attack pps / reflector count
/// (each request elicits roughly one amplified response packet; the
/// amplification is in bytes).
pub fn sensor_request_packets(
    attack: AttackRef<'_>,
    sensor: Ipv4,
    rng: &mut SimRng,
) -> Vec<PacketEvent> {
    let Some(refl) = attack.reflectors else {
        return Vec::new();
    };
    let per_sensor_pps = attack.pps / refl.reflector_count.max(1) as f64;
    let expected = per_sensor_pps * attack.duration_secs as f64;
    let n = poisson(rng, expected).min(MAX_SYNTH_PACKETS);
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let t = attack
            .start
            .plus_secs(rng.u64_below(attack.duration_secs.max(1) as u64) as i64);
        // For a carpet attack the spoofed source rotates over the
        // carpet's addresses.
        let src = attack.targets[rng.usize_below(attack.targets.len())];
        out.push(PacketEvent {
            time: t,
            src,
            src_port: attack_ephemeral_port(attack),
            dst: sensor,
            dst_port: refl.vector.src_port(),
            transport: Transport::Udp,
            size_bytes: 64,
        });
    }
    out.sort_by_key(|p| p.time);
    out
}

/// Synthesize a sample of the traffic arriving *at the victim*
/// (what an on-path flow monitor sees). Returns at most `max_packets`
/// packets, sampled uniformly over the attack.
pub fn victim_traffic_sample(
    attack: AttackRef<'_>,
    max_packets: usize,
    rng: &mut SimRng,
) -> Vec<PacketEvent> {
    let total = attack.total_packets();
    let n = (total as usize).min(max_packets);
    let victim = attack.primary_target();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t = attack
            .start
            .plus_secs(rng.u64_below(attack.duration_secs.max(1) as u64) as i64);
        let (src, src_port, transport) = match (attack.class, attack.vector.amp_vector()) {
            // Reflected responses: source port = the abused service.
            (_, Some(v)) => (Ipv4(rng.next_u32()), v.src_port(), Transport::Udp),
            // Spoofed direct path: random sources.
            (AttackClass::DirectPathSpoofed, None) => (
                Ipv4(rng.next_u32()),
                (1024 + rng.u64_below(60_000) as u16),
                attack.vector.transport(),
            ),
            // Non-spoofed: a bounded botnet population.
            _ => (
                Ipv4(0xC0_00_00_00 | rng.u64_below(50_000) as u32),
                (1024 + rng.u64_below(60_000) as u16),
                attack.vector.transport(),
            ),
        };
        let size = attack
            .vector
            .amp_vector()
            .map(|v| v.response_bytes())
            .unwrap_or(420);
        out.push(PacketEvent {
            time: t,
            src,
            src_port,
            dst: victim,
            dst_port: if attack.vector == AttackVector::HttpFlood { 443 } else { 80 },
            transport,
            size_bytes: size,
        });
    }
    out.sort_by_key(|p| p.time);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{Attack, AttackId, ReflectorUse};
    use netmodel::{AmpVector, Asn};

    fn telescope() -> TelescopePlan {
        TelescopePlan {
            name: "test-nt".into(),
            asn: Asn(1),
            prefixes: vec!["44.0.0.0/10".parse().unwrap()],
        }
    }

    fn rsdos_attack(pps: f64, duration: u32) -> Attack {
        Attack {
            id: AttackId(7),
            class: AttackClass::DirectPathSpoofed,
            vector: AttackVector::SynFlood,
            start: SimTime(1000),
            duration_secs: duration,
            targets: vec![Ipv4::new(93, 184, 216, 34)],
            target_asn: Asn(100),
            pps,
            bps: pps * 500.0 * 8.0,
            reflectors: None,
            spoof_space_fraction: 1.0,
            campaign: None,
        }
    }

    fn ra_attack() -> Attack {
        Attack {
            id: AttackId(8),
            class: AttackClass::ReflectionAmplification,
            vector: AttackVector::Amplification(AmpVector::Ntp),
            start: SimTime(5000),
            duration_secs: 600,
            targets: vec![Ipv4::new(203, 0, 4, 4)],
            target_asn: Asn(200),
            pps: 60_000.0,
            bps: 1e9,
            reflectors: Some(ReflectorUse {
                vector: AmpVector::Ntp,
                reflector_count: 600,
            }),
            spoof_space_fraction: 0.0,
            campaign: None,
        }
    }

    #[test]
    fn backscatter_count_matches_coverage() {
        let tele = telescope();
        let attack = rsdos_attack(100_000.0, 300);
        let mut rng = SimRng::new(1);
        let pkts = backscatter_packets(attack.view(), &tele, &mut rng);
        let expected = attack.total_packets()
            * BACKSCATTER_RESPONSE_RATE
            * tele.coverage();
        let got = pkts.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn backscatter_fields_sane() {
        let tele = telescope();
        let attack = rsdos_attack(50_000.0, 120);
        let mut rng = SimRng::new(2);
        let pkts = backscatter_packets(attack.view(), &tele, &mut rng);
        assert!(!pkts.is_empty());
        for p in &pkts {
            assert_eq!(p.src, attack.primary_target());
            assert!(tele.contains(p.dst), "{} not in darknet", p.dst);
            assert!(p.time >= attack.start && p.time < attack.end());
            assert_eq!(p.transport, Transport::Tcp);
        }
        // Sorted by time.
        for w in pkts.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn backscatter_only_for_spoofed_dp() {
        let tele = telescope();
        let mut rng = SimRng::new(3);
        let pkts = backscatter_packets(ra_attack().view(), &tele, &mut rng);
        assert!(pkts.is_empty());
        let mut nonspoofed = rsdos_attack(50_000.0, 120);
        nonspoofed.class = AttackClass::DirectPathNonSpoofed;
        nonspoofed.spoof_space_fraction = 0.0;
        assert!(backscatter_packets(nonspoofed.view(), &tele, &mut rng).is_empty());
    }

    #[test]
    fn partial_spoof_sometimes_misses_telescope() {
        let tele = telescope();
        let mut attack = rsdos_attack(100_000.0, 300);
        attack.spoof_space_fraction = 0.3;
        let mut rng = SimRng::new(4);
        let mut missed = 0;
        let mut hit_counts = Vec::new();
        for _ in 0..200 {
            let pkts = backscatter_packets(attack.view(), &tele, &mut rng);
            if pkts.is_empty() {
                missed += 1;
            } else {
                hit_counts.push(pkts.len() as f64);
            }
        }
        // ~70% of runs the telescope is outside the rotated range.
        assert!((100..=180).contains(&missed), "missed {missed}");
        // When hit, density is boosted by 1/f.
        let expected_hit = attack.total_packets() * BACKSCATTER_RESPONSE_RATE
            * tele.coverage()
            / 0.3;
        let mean_hit: f64 = hit_counts.iter().sum::<f64>() / hit_counts.len() as f64;
        assert!(
            (mean_hit - expected_hit).abs() < expected_hit * 0.15,
            "expected ≈{expected_hit}, got {mean_hit}"
        );
    }

    #[test]
    fn sensor_requests_rate_split_across_reflectors() {
        let attack = ra_attack();
        let sensor = Ipv4::new(9, 9, 9, 9);
        let mut rng = SimRng::new(5);
        let pkts = sensor_request_packets(attack.view(), sensor, &mut rng);
        // 60k pps / 600 reflectors * 600 s = 60000 expected.
        let expected = 60_000.0;
        let got = pkts.len() as f64;
        assert!((got - expected).abs() < expected * 0.1, "got {got}");
        for p in pkts.iter().take(50) {
            assert_eq!(p.dst, sensor);
            assert_eq!(p.dst_port, AmpVector::Ntp.src_port());
            assert_eq!(p.src, attack.primary_target());
            assert_eq!(p.transport, Transport::Udp);
        }
    }

    #[test]
    fn sensor_requests_empty_for_dp() {
        let mut rng = SimRng::new(6);
        let pkts = sensor_request_packets(
            rsdos_attack(10_000.0, 60).view(),
            Ipv4::new(9, 9, 9, 9),
            &mut rng,
        );
        assert!(pkts.is_empty());
    }

    #[test]
    fn carpet_requests_rotate_sources() {
        let mut attack = ra_attack();
        attack.targets = (0..16).map(|i| Ipv4::new(203, 0, 8, i)).collect();
        let mut rng = SimRng::new(7);
        let pkts = sensor_request_packets(attack.view(), Ipv4::new(9, 9, 9, 9), &mut rng);
        let distinct: std::collections::HashSet<Ipv4> = pkts.iter().map(|p| p.src).collect();
        assert!(distinct.len() > 8, "only {} distinct sources", distinct.len());
    }

    #[test]
    fn victim_sample_caps_and_targets() {
        let attack = ra_attack();
        let mut rng = SimRng::new(8);
        let pkts = victim_traffic_sample(attack.view(), 500, &mut rng);
        assert_eq!(pkts.len(), 500);
        for p in &pkts {
            assert_eq!(p.dst, attack.primary_target());
            assert_eq!(p.src_port, AmpVector::Ntp.src_port());
            assert_eq!(p.transport, Transport::Udp);
        }
    }

    #[test]
    fn victim_sample_spoofed_sources_diverse() {
        let attack = rsdos_attack(100_000.0, 300);
        let mut rng = SimRng::new(9);
        let pkts = victim_traffic_sample(attack.view(), 1000, &mut rng);
        let distinct: std::collections::HashSet<Ipv4> = pkts.iter().map(|p| p.src).collect();
        assert!(distinct.len() > 990, "spoofed sources should be ~unique");
    }

    #[test]
    fn ephemeral_port_stable_and_in_range() {
        let a = ra_attack();
        assert_eq!(attack_ephemeral_port(a.view()), attack_ephemeral_port(a.view()));
        assert!(attack_ephemeral_port(a.view()) >= 49_152);
    }
}
