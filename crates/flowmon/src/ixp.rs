//! The IXP-blackholing observatory (Kopp et al., PAM 2021 — ref [82] of
//! the paper).
//!
//! Vantage point: a large European IXP. Customers under attack announce
//! blackholes; the method classifies the traffic toward blackholed
//! prefixes using the Table-2 identifiers:
//!
//! * reflection-amplification: UDP with an amplification source port,
//!   ≥ 10 source IPs, > 1 Gbps;
//! * direct-path: TCP, ≥ 10 source IPs, > 100 Mbps.
//!
//! The paper stresses this is "a lower bound of direct-path attacks
//! passing this IXP and may depend on IXP customer actions" (§6.1) —
//! our model keeps both filters: the attack must traverse the IXP *and*
//! the customer must request blackholing.

use attackgen::{AttackClass, AttackRef, PacketEvent};
use netmodel::{AmpVector, Asn, InternetPlan, Transport};
use serde::{Deserialize, Serialize};
use simcore::SimRng;
use std::collections::{HashMap, HashSet};

/// What the classifier labeled a blackholed traffic aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IxpDetection {
    ReflectionAmplification,
    DirectPath,
}

/// Classifier thresholds (Table 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IxpConfig {
    /// Minimum distinct source IPs for either class.
    pub min_src_ips: u64,
    /// RA bit-rate floor (bits/second).
    pub ra_min_bps: f64,
    /// DP bit-rate floor (bits/second).
    pub dp_min_bps: f64,
    /// Probability that a given attack's traffic traverses this IXP at
    /// all (path diversity, §4: "some (or all) attack traffic may
    /// transit paths other than the IXP").
    pub path_probability: f64,
    /// Probability that the victim's network reacts with a blackhole
    /// announcement.
    pub blackhole_request_probability: f64,
}

impl Default for IxpConfig {
    fn default() -> Self {
        IxpConfig {
            min_src_ips: 10,
            ra_min_bps: 1e9,
            dp_min_bps: 1e8,
            path_probability: 0.9,
            blackhole_request_probability: 0.5,
        }
    }
}

/// The event-level IXP observatory.
#[derive(Debug, Clone)]
pub struct IxpBlackholing {
    pub cfg: IxpConfig,
    members: HashSet<Asn>,
    /// Injected data-plane faults (outage windows, flow-sampling
    /// degradation). Empty by default and bit-for-bit inert when empty.
    pub faults: simcore::faults::ObsFaults,
}

impl IxpBlackholing {
    pub fn new(plan: &InternetPlan, cfg: IxpConfig) -> Self {
        IxpBlackholing {
            cfg,
            members: plan.ixp_members.clone(),
            faults: simcore::faults::ObsFaults::default(),
        }
    }

    pub fn with_defaults(plan: &InternetPlan) -> Self {
        Self::new(plan, IxpConfig::default())
    }

    /// Event-level detection verdict for one attack row. The IXP's
    /// observation tuple is just the attack's (id, start, targets), so
    /// columnar callers append it to their own sink without cloning.
    pub fn observe_view(&self, attack: AttackRef<'_>, root: &SimRng) -> Option<IxpDetection> {
        // Outage check first, before any RNG fork, so unaffected weeks
        // keep their exact detection streams.
        let week = attack.start.week_index();
        if self.faults.is_down(week) {
            return None;
        }
        if !self.members.contains(&attack.target_asn) {
            return None;
        }
        // Sampling degradation swallows the would-be detection from a
        // dedicated RNG fork, leaving the main draw stream untouched.
        if self.faults.drops_sample(root, attack.id.0, week) {
            return None;
        }
        let mut rng = root.fork(attack.id.0).fork_named("ixp-blackholing");
        if !rng.chance(self.cfg.path_probability) {
            return None;
        }
        if !rng.chance(self.cfg.blackhole_request_probability) {
            return None;
        }
        // Distinct sources of the attack aggregate: reflectors for RA;
        // effectively unbounded for spoofed floods; botnet-sized for
        // non-spoofed.
        let (detection, src_ips, min_bps, transport_ok) = match attack.class {
            AttackClass::ReflectionAmplification => {
                let reflectors = attack.reflector_count?;
                (
                    IxpDetection::ReflectionAmplification,
                    reflectors as u64,
                    self.cfg.ra_min_bps,
                    true, // reflected responses are UDP from the service port
                )
            }
            AttackClass::DirectPathSpoofed => (
                IxpDetection::DirectPath,
                u64::MAX,
                self.cfg.dp_min_bps,
                attack.vector.transport() == Transport::Tcp,
            ),
            AttackClass::DirectPathNonSpoofed => (
                IxpDetection::DirectPath,
                50_000, // botnet population
                self.cfg.dp_min_bps,
                attack.vector.transport() == Transport::Tcp,
            ),
        };
        if !transport_ok || src_ips < self.cfg.min_src_ips || attack.bps <= min_bps {
            return None;
        }
        Some(detection)
    }
}

/// Packet-level classification of one blackholed traffic aggregate
/// (all packets toward one victim prefix during one blackhole episode).
///
/// Mirrors the Table-2 identifiers exactly; used to validate the
/// event-level model and in the detector-validation example.
pub fn classify_blackholed_traffic(packets: &[PacketEvent], cfg: &IxpConfig) -> Option<IxpDetection> {
    if packets.is_empty() {
        return None;
    }
    let amp_ports: HashSet<u16> = AmpVector::ALL.iter().map(|v| v.src_port()).collect();
    let t_min = packets.iter().map(|p| p.time.0).min().unwrap_or(0);
    let t_max = packets.iter().map(|p| p.time.0).max().unwrap_or(0);
    let span = (t_max - t_min).max(1) as f64;

    let mut udp_amp_srcs: HashMap<netmodel::Ipv4, ()> = HashMap::new();
    let mut tcp_srcs: HashMap<netmodel::Ipv4, ()> = HashMap::new();
    let mut udp_amp_bytes = 0u64;
    let mut tcp_bytes = 0u64;
    for p in packets {
        match p.transport {
            Transport::Udp if amp_ports.contains(&p.src_port) => {
                udp_amp_srcs.insert(p.src, ());
                udp_amp_bytes += p.size_bytes as u64;
            }
            Transport::Tcp => {
                tcp_srcs.insert(p.src, ());
                tcp_bytes += p.size_bytes as u64;
            }
            _ => {}
        }
    }
    let udp_bps = udp_amp_bytes as f64 * 8.0 / span;
    let tcp_bps = tcp_bytes as f64 * 8.0 / span;
    if udp_amp_srcs.len() as u64 >= cfg.min_src_ips && udp_bps > cfg.ra_min_bps {
        return Some(IxpDetection::ReflectionAmplification);
    }
    if tcp_srcs.len() as u64 >= cfg.min_src_ips && tcp_bps > cfg.dp_min_bps {
        return Some(IxpDetection::DirectPath);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use attackgen::attack::{AttackId, AttackVector};
    use netmodel::{Ipv4, NetScale};
    use simcore::SimTime;

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    fn member_asn(plan: &InternetPlan) -> Asn {
        *plan.ixp_members.iter().next().expect("no IXP members")
    }

    fn attack(plan: &InternetPlan, id: u64, class: AttackClass, bps: f64) -> AttackRef<'static> {
        let asn = member_asn(plan);
        let (vector, reflector_count) = match class {
            AttackClass::ReflectionAmplification => {
                (AttackVector::Amplification(AmpVector::Dns), Some(500))
            }
            _ => (AttackVector::SynFlood, None),
        };
        AttackRef {
            id: AttackId(id),
            class,
            vector,
            start: SimTime(1000),
            duration_secs: 300,
            targets: &[Ipv4(0x0A00_0001)], // 10.0.0.1
            target_asn: asn,
            pps: bps / 8.0 / 420.0,
            bps,
            reflector_count,
            spoof_space_fraction: if class == AttackClass::DirectPathSpoofed { 1.0 } else { 0.0 },
            campaign: None,
        }
    }

    #[test]
    fn big_attacks_on_members_sometimes_observed() {
        let plan = plan();
        let ixp = IxpBlackholing::with_defaults(&plan);
        let root = SimRng::new(1);
        let seen = (0..200)
            .filter(|&id| {
                let a = attack(&plan, id, AttackClass::DirectPathSpoofed, 5e8);
                ixp.observe_view(a, &root).is_some()
            })
            .count();
        // path(0.9) × blackhole(0.5) ≈ 45 %.
        assert!((55..=130).contains(&seen), "seen {seen}");
    }

    #[test]
    fn non_members_invisible() {
        let plan = plan();
        let ixp = IxpBlackholing::with_defaults(&plan);
        let root = SimRng::new(1);
        let non_member = plan
            .registry
            .iter()
            .find(|r| !plan.ixp_members.contains(&r.asn) && r.target_weight > 0.0)
            .unwrap()
            .asn;
        for id in 0..100 {
            let mut a = attack(&plan, id, AttackClass::DirectPathSpoofed, 5e8);
            a.target_asn = non_member;
            assert!(ixp.observe_view(a, &root).is_none());
        }
    }

    #[test]
    fn dp_threshold_100mbps() {
        let plan = plan();
        let ixp = IxpBlackholing::with_defaults(&plan);
        let root = SimRng::new(1);
        for id in 0..100 {
            let a = attack(&plan, id, AttackClass::DirectPathSpoofed, 5e7); // 50 Mbps
            assert!(ixp.observe_view(a, &root).is_none());
        }
    }

    #[test]
    fn ra_threshold_1gbps() {
        let plan = plan();
        let ixp = IxpBlackholing::with_defaults(&plan);
        let root = SimRng::new(1);
        let mut below = 0;
        let mut above = 0;
        for id in 0..200 {
            let weak = attack(&plan, id, AttackClass::ReflectionAmplification, 5e8);
            below += ixp.observe_view(weak, &root).is_some() as u32;
            let strong = attack(&plan, 1000 + id, AttackClass::ReflectionAmplification, 5e9);
            above += ixp.observe_view(strong, &root).is_some() as u32;
        }
        assert_eq!(below, 0);
        assert!(above > 40, "above {above}");
    }

    #[test]
    fn ra_needs_enough_reflectors() {
        let plan = plan();
        let ixp = IxpBlackholing::with_defaults(&plan);
        let root = SimRng::new(1);
        for id in 0..100 {
            let mut a = attack(&plan, id, AttackClass::ReflectionAmplification, 5e9);
            a.reflector_count = Some(5); // under the 10-source floor
            assert!(ixp.observe_view(a, &root).is_none());
        }
    }

    #[test]
    fn udp_direct_path_unclassified() {
        // The DP identifier is TCP-only (Table 2): a UDP flood that is
        // not reflection goes unlabeled.
        let plan = plan();
        let ixp = IxpBlackholing::with_defaults(&plan);
        let root = SimRng::new(1);
        for id in 0..100 {
            let mut a = attack(&plan, id, AttackClass::DirectPathSpoofed, 5e9);
            a.vector = AttackVector::UdpFlood;
            assert!(ixp.observe_view(a, &root).is_none());
        }
    }

    #[test]
    fn detection_class_matches_attack_class() {
        let plan = plan();
        let ixp = IxpBlackholing::with_defaults(&plan);
        let root = SimRng::new(1);
        let attacks: Vec<AttackRef> = (0..300)
            .map(|id| {
                if id % 2 == 0 {
                    attack(&plan, id, AttackClass::ReflectionAmplification, 5e9)
                } else {
                    attack(&plan, id, AttackClass::DirectPathNonSpoofed, 5e8)
                }
            })
            .collect();
        let (mut ra, mut dp) = (Vec::new(), Vec::new());
        for &a in &attacks {
            match ixp.observe_view(a, &root) {
                Some(IxpDetection::ReflectionAmplification) => ra.push(a.id.0),
                Some(IxpDetection::DirectPath) => dp.push(a.id.0),
                None => {}
            }
        }
        assert!(!ra.is_empty() && !dp.is_empty());
        for id in &ra {
            assert_eq!(id % 2, 0);
        }
        for id in &dp {
            assert_eq!(id % 2, 1);
        }
    }

    #[test]
    fn packet_classifier_ra() {
        let cfg = IxpConfig::default();
        // 2000 pps of 1500-byte DNS responses for 10 s = 24 Mbps... need
        // > 1 Gbps: 100k pps of 1500 B = 1.2 Gbps.
        let mut packets = Vec::new();
        for i in 0..200_000u32 {
            packets.push(PacketEvent {
                time: SimTime((i / 100_000) as i64),
                src: Ipv4(1000 + (i % 50)),
                src_port: AmpVector::Dns.src_port(),
                dst: Ipv4::new(10, 0, 0, 1),
                dst_port: 80,
                transport: Transport::Udp,
                size_bytes: 1500,
            });
        }
        assert_eq!(
            classify_blackholed_traffic(&packets, &cfg),
            Some(IxpDetection::ReflectionAmplification)
        );
    }

    #[test]
    fn packet_classifier_dp() {
        let cfg = IxpConfig::default();
        let mut packets = Vec::new();
        for i in 0..100_000u32 {
            packets.push(PacketEvent {
                time: SimTime((i / 50_000) as i64),
                src: Ipv4(i), // random spoofed
                src_port: 31_000,
                dst: Ipv4::new(10, 0, 0, 1),
                dst_port: 80,
                transport: Transport::Tcp,
                size_bytes: 500,
            });
        }
        assert_eq!(
            classify_blackholed_traffic(&packets, &cfg),
            Some(IxpDetection::DirectPath)
        );
    }

    #[test]
    fn packet_classifier_rejects_few_sources() {
        let cfg = IxpConfig::default();
        let packets: Vec<PacketEvent> = (0..100_000u32)
            .map(|i| PacketEvent {
                time: SimTime((i / 50_000) as i64),
                src: Ipv4(5), // single source
                src_port: 31_000,
                dst: Ipv4::new(10, 0, 0, 1),
                dst_port: 80,
                transport: Transport::Tcp,
                size_bytes: 1500,
            })
            .collect();
        assert_eq!(classify_blackholed_traffic(&packets, &cfg), None);
    }

    #[test]
    fn packet_classifier_empty() {
        assert_eq!(classify_blackholed_traffic(&[], &IxpConfig::default()), None);
    }
}
