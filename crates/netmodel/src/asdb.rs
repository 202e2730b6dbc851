//! The autonomous-system registry.
//!
//! The paper attributes DDoS targets to ASes (Table 4: OVH, Hetzner,
//! Amazon, … — "7 of our top 10 most targeted ASes belong to hosters",
//! §7.1). We model an AS population with the real, named heavy hitters
//! plus a synthetic tail, each AS carrying announced prefixes and an
//! attack-attractiveness weight that target selection draws against.

use crate::ip::{Ipv4, Prefix};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Coarse business classification, following the paper's labels in
/// Appendix H ("all are labeled as hosting ASes except Microsoft
/// (business), China Unicom (ISP), and Alibaba (business)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsKind {
    /// Hosting / cloud infrastructure — concentrates DDoS targets
    /// (game servers, VPNs, web services).
    Hoster,
    /// Eyeball / transit ISP.
    Isp,
    /// Enterprise / business network.
    Business,
    /// Content delivery network.
    Cdn,
    /// Academic / research network (telescopes live here).
    Research,
}

/// One AS with its announced address space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsRecord {
    pub asn: Asn,
    pub name: String,
    pub kind: AsKind,
    /// Announced (routed) prefixes.
    pub prefixes: Vec<Prefix>,
    /// Relative probability mass that an attack targets this AS.
    /// Hosters get heavy weights (§7.1: hosters attract multi-vector
    /// attacks because they sell DDoS-protection-as-a-service).
    pub target_weight: f64,
}

impl AsRecord {
    /// Total announced address count.
    pub fn address_count(&self) -> u64 {
        self.prefixes.iter().map(|p| p.size()).sum()
    }

    /// Does this AS announce the address?
    pub fn contains(&self, ip: Ipv4) -> bool {
        self.prefixes.iter().any(|p| p.contains(ip))
    }
}

/// Registry of all simulated ASes with an index by ASN.
#[derive(Debug, Clone, Default)]
pub struct AsRegistry {
    records: Vec<AsRecord>,
    by_asn: HashMap<Asn, usize>,
}

impl AsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an AS. Panics on duplicate ASN (a build-time configuration
    /// error).
    pub fn add(&mut self, record: AsRecord) {
        let asn = record.asn;
        assert!(
            !self.by_asn.contains_key(&asn),
            "duplicate {asn} in registry"
        );
        self.by_asn.insert(asn, self.records.len());
        self.records.push(record);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn get(&self, asn: Asn) -> Option<&AsRecord> {
        self.by_asn.get(&asn).map(|&i| &self.records[i])
    }

    pub fn by_index(&self, i: usize) -> &AsRecord {
        &self.records[i]
    }

    pub fn iter(&self) -> impl Iterator<Item = &AsRecord> {
        self.records.iter()
    }

    /// Target-selection weights, index-aligned with the registry order.
    pub fn target_weights(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.target_weight).collect()
    }
}

/// The named heavy-hitter ASes from Table 4 (plus China Telecom, which
/// §7.1 mentions from Jonker et al.), with the kinds from Appendix H.
/// `weight_share` is the approximate share of highly-visible targets the
/// paper reports; the plan builder scales these into absolute weights.
pub struct KnownAs {
    pub asn: u32,
    pub name: &'static str,
    pub kind: AsKind,
    pub weight_share: f64,
}

/// Table 4 of the paper: top-10 ASes by number of highly-visible
/// targets, with their observed shares, plus China Telecom/Unicom
/// context from §7.1.
pub const KNOWN_ASES: &[KnownAs] = &[
    KnownAs { asn: 16276, name: "OVH", kind: AsKind::Hoster, weight_share: 0.1880 },
    KnownAs { asn: 24940, name: "Hetzner", kind: AsKind::Hoster, weight_share: 0.0514 },
    KnownAs { asn: 16509, name: "Amazon", kind: AsKind::Hoster, weight_share: 0.0269 },
    KnownAs { asn: 8075, name: "Microsoft", kind: AsKind::Business, weight_share: 0.0204 },
    KnownAs { asn: 396982, name: "Google", kind: AsKind::Hoster, weight_share: 0.0189 },
    KnownAs { asn: 13335, name: "Cloudflare", kind: AsKind::Cdn, weight_share: 0.0159 },
    KnownAs { asn: 4837, name: "China Unicom", kind: AsKind::Isp, weight_share: 0.0158 },
    KnownAs { asn: 14061, name: "DigitalOcean", kind: AsKind::Hoster, weight_share: 0.0136 },
    KnownAs { asn: 14586, name: "Nuclearfallout", kind: AsKind::Hoster, weight_share: 0.0123 },
    KnownAs { asn: 37963, name: "Alibaba", kind: AsKind::Business, weight_share: 0.0121 },
    KnownAs { asn: 4134, name: "China Telecom", kind: AsKind::Isp, weight_share: 0.0080 },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(asn: u32, weight: f64) -> AsRecord {
        AsRecord {
            asn: Asn(asn),
            name: format!("AS{asn}"),
            kind: AsKind::Isp,
            prefixes: vec![format!("10.{}.0.0/16", asn % 256).parse().unwrap()],
            target_weight: weight,
        }
    }

    #[test]
    fn add_and_get() {
        let mut reg = AsRegistry::new();
        reg.add(rec(100, 1.0));
        reg.add(rec(200, 2.0));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(Asn(100)).unwrap().asn, Asn(100));
        assert!(reg.get(Asn(300)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_asn_panics() {
        let mut reg = AsRegistry::new();
        reg.add(rec(100, 1.0));
        reg.add(rec(100, 1.0));
    }

    #[test]
    fn weights_aligned() {
        let mut reg = AsRegistry::new();
        reg.add(rec(1, 0.5));
        reg.add(rec(2, 2.5));
        assert_eq!(reg.target_weights(), vec![0.5, 2.5]);
    }

    #[test]
    fn record_address_count_and_contains() {
        let r = AsRecord {
            asn: Asn(1),
            name: "x".into(),
            kind: AsKind::Hoster,
            prefixes: vec!["10.0.0.0/24".parse().unwrap(), "10.1.0.0/24".parse().unwrap()],
            target_weight: 1.0,
        };
        assert_eq!(r.address_count(), 512);
        assert!(r.contains("10.0.0.7".parse().unwrap()));
        assert!(r.contains("10.1.0.7".parse().unwrap()));
        assert!(!r.contains("10.2.0.7".parse().unwrap()));
    }

    #[test]
    fn known_ases_match_table4_order() {
        // Table 4's top three by share.
        assert_eq!(KNOWN_ASES[0].name, "OVH");
        assert_eq!(KNOWN_ASES[0].asn, 16276);
        assert_eq!(KNOWN_ASES[1].name, "Hetzner");
        assert_eq!(KNOWN_ASES[2].name, "Amazon");
        // Shares descend over the table-4 part.
        for w in KNOWN_ASES.windows(2).take(9) {
            assert!(w[0].weight_share >= w[1].weight_share);
        }
    }

    #[test]
    fn display_asn() {
        assert_eq!(Asn(16276).to_string(), "AS16276");
    }
}
