//! The Internet address plan: every piece of simulated address-space
//! geography the study needs, built deterministically from one RNG.
//!
//! The plan plays the role of the "ground truth Internet" that the
//! paper's observatories each see a slice of:
//!
//! * the AS population with announced prefixes and target weights,
//! * RIR allocation blocks and the BGP routed-prefix table (consumed by
//!   the Appendix-I carpet-bombing reconstruction),
//! * the two telescope darknets (UCSD-NT /9+/10 ≈ 12M addresses, ORION
//!   /13 ≈ 500k addresses, §5),
//! * honeypot sensor addresses (AmpPot ≈70 allocated / 30 responsive,
//!   Hopscotch 65, NewKid 1 — Table 2),
//! * industry coverage scopes (Akamai-protected prefixes, Netscout
//!   customer ASes, IXP member ASes),
//! * per-vector open-reflector pool sizes.

use crate::asdb::{AsKind, AsRecord, AsRegistry, Asn, KNOWN_ASES};
use crate::ip::{Ipv4, Prefix};
use crate::trie::PrefixTable;
use crate::vectors::AmpVector;
use serde::{Deserialize, Serialize};
use simcore::SimRng;
use std::collections::{BTreeMap, HashSet};

/// Regional Internet Registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rir {
    Arin,
    RipeNcc,
    Apnic,
    Lacnic,
    Afrinic,
}

/// One RIR allocation: a block delegated to an AS. Appendix I:
/// carpet-bombing aggregation "does not aggregate attacks that span
/// multiple IP address block allocations".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    pub rir: Rir,
    pub asn: Asn,
    pub block: Prefix,
}

/// Scale knobs for the synthetic Internet. Defaults are sized so a full
/// 4.5-year study runs in seconds while keeping the populations large
/// enough for the paper's overlap statistics to be meaningful.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetScale {
    /// Synthetic tail ASes in addition to the named heavy hitters.
    pub tail_as_count: usize,
    /// Total open reflectors across all vectors (the honeypot sensors
    /// hide inside these pools).
    pub reflector_pool_total: u64,
    /// Fraction of ASes whose traffic Netscout's customer base covers
    /// (Netscout: "more than 500 ISPs and 1500 enterprises", §5).
    pub netscout_customer_fraction: f64,
    /// Fraction of ASes peering at the modeled European IXP.
    pub ixp_member_fraction: f64,
    /// Fraction of AS prefixes protected by (reroutable through)
    /// Akamai Prolexic.
    pub akamai_protected_fraction: f64,
    /// Zipf exponent of the tail-AS target-weight distribution.
    pub tail_weight_exponent: f64,
}

impl Default for NetScale {
    fn default() -> Self {
        NetScale {
            tail_as_count: 400,
            reflector_pool_total: 1_500_000,
            netscout_customer_fraction: 0.30,
            ixp_member_fraction: 0.25,
            akamai_protected_fraction: 0.03,
            tail_weight_exponent: 1.1,
        }
    }
}

impl NetScale {
    /// A reduced plan for fast unit tests.
    pub fn tiny() -> Self {
        NetScale {
            tail_as_count: 40,
            reflector_pool_total: 100_000,
            ..NetScale::default()
        }
    }
}

/// Darknet specification of a telescope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelescopePlan {
    pub name: String,
    pub asn: Asn,
    pub prefixes: Vec<Prefix>,
}

impl TelescopePlan {
    /// Number of monitored (dark) addresses.
    pub fn address_count(&self) -> u64 {
        self.prefixes.iter().map(|p| p.size()).sum()
    }

    /// Fraction of the full IPv4 space this darknet covers — the
    /// probability that one uniformly randomly spoofed source elicits a
    /// backscatter packet into this telescope (§5).
    pub fn coverage(&self) -> f64 {
        self.address_count() as f64 / (1u64 << 32) as f64
    }

    pub fn contains(&self, ip: Ipv4) -> bool {
        self.prefixes.iter().any(|p| p.contains(ip))
    }
}

/// Honeypot sensor addresses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HoneypotPlan {
    /// AmpPot has ≈70 IPs allocated but responds from only ≈30 (§5).
    pub amppot_allocated: Vec<Ipv4>,
    pub amppot_responsive: usize,
    /// Hopscotch: 65 sensor IPs (Table 2).
    pub hopscotch: Vec<Ipv4>,
    /// NewKid: a single sensor in Brazil (Table 2).
    pub newkid: Vec<Ipv4>,
}

/// The complete simulated Internet.
#[derive(Debug, Clone)]
pub struct InternetPlan {
    pub registry: AsRegistry,
    /// BGP routed prefixes → origin AS.
    pub routed: PrefixTable<Asn>,
    /// RIR allocation blocks.
    pub allocations: PrefixTable<Allocation>,
    pub ucsd: TelescopePlan,
    pub orion: TelescopePlan,
    pub honeypots: HoneypotPlan,
    /// Prefixes that can be rerouted through Akamai Prolexic.
    pub akamai_protected: PrefixTable<()>,
    pub akamai_prefix_list: Vec<Prefix>,
    /// The subset of protected space advertised from the Prolexic ASN
    /// itself — the paper's §7.2 target join is scoped to "targets in
    /// the network prefix of Akamai", far narrower than the protected
    /// customer base.
    pub akamai_announced: PrefixTable<()>,
    pub akamai_announced_list: Vec<Prefix>,
    pub netscout_customers: HashSet<Asn>,
    pub ixp_members: HashSet<Asn>,
    /// Open-reflector pool size per amplification vector.
    pub reflector_pools: BTreeMap<AmpVector, u64>,
}

/// Sequential block allocator over public IPv4 space, skipping reserved
/// ranges.
struct BlockAllocator {
    cursor: u64,
    reserved: Vec<Prefix>,
}

impl BlockAllocator {
    fn new() -> Self {
        let reserved: Vec<Prefix> = [
            "0.0.0.0/8",
            "10.0.0.0/8",
            "100.64.0.0/10",
            "127.0.0.0/8",
            "169.254.0.0/16",
            "172.16.0.0/12",
            "192.0.0.0/24",
            "192.0.2.0/24",
            "192.88.99.0/24",
            "192.168.0.0/16",
            "198.18.0.0/15",
            "198.51.100.0/24",
            "203.0.113.0/24",
            "224.0.0.0/3",
        ]
        .iter()
        .map(|s| s.parse().expect("static reserved-prefix literal"))
        .collect();
        BlockAllocator {
            cursor: 1u64 << 24, // start at 1.0.0.0
            reserved,
        }
    }

    fn alloc(&mut self, len: u8) -> Prefix {
        let size = 1u64 << (32 - len);
        loop {
            // Align up to the prefix boundary.
            let base = self.cursor.div_ceil(size) * size;
            assert!(base + size <= (1u64 << 32), "IPv4 space exhausted");
            let candidate = Prefix::new(Ipv4(base as u32), len);
            if let Some(r) = self.reserved.iter().find(|r| r.overlaps(candidate)) {
                // Jump past the reserved block.
                self.cursor = r.base().0 as u64 + r.size();
                continue;
            }
            self.cursor = base + size;
            return candidate;
        }
    }
}

impl InternetPlan {
    /// Build the plan. Deterministic for a given `(scale, rng)` pair.
    pub fn build(scale: &NetScale, rng: &mut SimRng) -> Self {
        let mut alloc = BlockAllocator::new();
        let mut registry = AsRegistry::new();
        let mut routed = PrefixTable::new();
        let mut allocations = PrefixTable::new();
        let mut rng = rng.fork_named("internet-plan");

        // --- Telescopes (unused, unrouted space; weight 0). -------------
        let ucsd = TelescopePlan {
            name: "UCSD-NT".into(),
            asn: Asn(7377),
            prefixes: vec![alloc.alloc(9), alloc.alloc(10)],
        };
        let orion = TelescopePlan {
            name: "ORION".into(),
            asn: Asn(237),
            prefixes: vec![alloc.alloc(13)],
        };
        for (asn, name, tele) in [
            (Asn(7377), "UCSD/CAIDA", &ucsd),
            (Asn(237), "Merit", &orion),
        ] {
            registry.add(AsRecord {
                asn,
                name: name.into(),
                kind: AsKind::Research,
                prefixes: tele.prefixes.clone(),
                target_weight: 0.0,
            });
            for p in &tele.prefixes {
                allocations.insert(
                    *p,
                    Allocation {
                        rir: Rir::Arin,
                        asn,
                        block: *p,
                    },
                );
                // Telescope space is routed (it must attract backscatter)
                // but hosts nothing.
                routed.insert(*p, asn);
            }
        }

        // --- Known heavy hitters (Table 4). -----------------------------
        let known_rirs: &[(u32, Rir)] = &[
            (16276, Rir::RipeNcc),
            (24940, Rir::RipeNcc),
            (16509, Rir::Arin),
            (8075, Rir::Arin),
            (396982, Rir::Arin),
            (13335, Rir::Arin),
            (4837, Rir::Apnic),
            (14061, Rir::Arin),
            (14586, Rir::Arin),
            (37963, Rir::Apnic),
            (4134, Rir::Apnic),
        ];
        let known_weight_total: f64 = KNOWN_ASES.iter().map(|k| k.weight_share).sum();
        for known in KNOWN_ASES {
            let rir = known_rirs
                .iter()
                .find(|(a, _)| *a == known.asn)
                .map(|(_, r)| *r)
                .unwrap_or(Rir::Arin);
            // Hosters and ISPs get more / larger blocks.
            let (block_count, len_lo, len_hi) = match known.kind {
                AsKind::Hoster => (3usize, 12u8, 15u8),
                AsKind::Isp => (4, 11, 14),
                AsKind::Business => (2, 13, 16),
                AsKind::Cdn => (2, 14, 16),
                AsKind::Research => (1, 16, 16),
            };
            let mut prefixes = Vec::new();
            for _ in 0..block_count {
                let len = rng.u64_range(len_lo as u64, len_hi as u64) as u8;
                let block = alloc.alloc(len);
                prefixes.push(block);
                allocations.insert(
                    block,
                    Allocation {
                        rir,
                        asn: Asn(known.asn),
                        block,
                    },
                );
                announce(&mut routed, block, Asn(known.asn), &mut rng);
            }
            registry.add(AsRecord {
                asn: Asn(known.asn),
                name: known.name.into(),
                kind: known.kind,
                prefixes,
                target_weight: known.weight_share,
            });
        }

        // --- Synthetic tail. ---------------------------------------------
        const TAIL_RANK_OFFSET: usize = 6;
        let zipf = simcore::Zipf::new(
            scale.tail_as_count.max(1) + TAIL_RANK_OFFSET,
            scale.tail_weight_exponent,
        );
        let tail_weight_total = (1.0 - known_weight_total).max(0.1);
        // Zipf normalization over the offset ranks:
        let zipf_mass: f64 = (0..scale.tail_as_count)
            .map(|k| zipf.pmf(k + TAIL_RANK_OFFSET))
            .sum();
        for i in 0..scale.tail_as_count {
            let asn = Asn(50_000 + i as u32);
            let kind = match rng.weighted_index(&[0.45, 0.28, 0.22, 0.05]) {
                0 => AsKind::Isp,
                1 => AsKind::Hoster,
                2 => AsKind::Business,
                _ => AsKind::Cdn,
            };
            let rir = match rng.weighted_index(&[0.30, 0.32, 0.22, 0.10, 0.06]) {
                0 => Rir::Arin,
                1 => Rir::RipeNcc,
                2 => Rir::Apnic,
                3 => Rir::Lacnic,
                _ => Rir::Afrinic,
            };
            let (block_count, len_lo, len_hi) = match kind {
                AsKind::Isp => (rng.u64_range(1, 3) as usize, 13u8, 17u8),
                AsKind::Hoster => (rng.u64_range(1, 4) as usize, 15, 18),
                AsKind::Business => (1, 17, 21),
                AsKind::Cdn => (1, 16, 19),
                AsKind::Research => (1, 18, 20),
            };
            let mut prefixes = Vec::new();
            for _ in 0..block_count {
                let len = rng.u64_range(len_lo as u64, len_hi as u64) as u8;
                let block = alloc.alloc(len);
                prefixes.push(block);
                allocations.insert(block, Allocation { rir, asn, block });
                announce(&mut routed, block, asn, &mut rng);
            }
            // Weight: Zipf by rank (offset so no tail AS rivals the
            // named heavy hitters of Table 4), with hosters boosted
            // (hosters dominate Table 4).
            let kind_boost = match kind {
                AsKind::Hoster => 2.5,
                AsKind::Cdn => 1.2,
                AsKind::Isp => 1.0,
                AsKind::Business => 0.6,
                AsKind::Research => 0.0,
            };
            let weight = tail_weight_total * (zipf.pmf(i + TAIL_RANK_OFFSET) / zipf_mass) * kind_boost;
            registry.add(AsRecord {
                asn,
                name: format!("TailNet-{i}"),
                kind,
                prefixes,
                target_weight: weight,
            });
        }

        // --- Honeypot sensors: scattered across tail ASes. ---------------
        let honeypots = {
            let tail_asns: Vec<Asn> = registry
                .iter()
                .filter(|r| r.asn.0 >= 50_000)
                .map(|r| r.asn)
                .collect();
            let pick_sensor_ips = |count: usize, rng: &mut SimRng| -> Vec<Ipv4> {
                let mut out = Vec::with_capacity(count);
                let mut used = HashSet::new();
                while out.len() < count {
                    let asn = *rng.choose(&tail_asns);
                    let rec = registry
                        .get(asn)
                        .expect("tail ASN drawn from the registry itself");
                    let p = *rng.choose(&rec.prefixes);
                    let ip = p.nth(rng.u64_below(p.size()));
                    if used.insert(ip) {
                        out.push(ip);
                    }
                }
                out
            };
            let amppot_allocated = pick_sensor_ips(70, &mut rng);
            let hopscotch = pick_sensor_ips(65, &mut rng);
            let newkid = pick_sensor_ips(1, &mut rng);
            HoneypotPlan {
                amppot_allocated,
                amppot_responsive: 30,
                hopscotch,
                newkid,
            }
        };

        // --- Industry coverage scopes. ------------------------------------
        let mut akamai_protected = PrefixTable::new();
        let mut akamai_prefix_list = Vec::new();
        let mut akamai_announced = PrefixTable::new();
        let mut akamai_announced_list = Vec::new();
        let mut netscout_customers = HashSet::new();
        let mut ixp_members = HashSet::new();
        for rec in registry.iter() {
            if rec.kind == AsKind::Research {
                continue;
            }
            if rng.chance(scale.netscout_customer_fraction) {
                netscout_customers.insert(rec.asn);
            }
            // European IXP: RIPE-allocated ASes are much more likely
            // members.
            let rir = allocations
                .lookup(rec.prefixes[0].base())
                .map(|(_, a)| a.rir);
            let ixp_p = match rir {
                Some(Rir::RipeNcc) => scale.ixp_member_fraction * 2.5,
                _ => scale.ixp_member_fraction * 0.5,
            };
            if rng.chance(ixp_p) {
                ixp_members.insert(rec.asn);
            }
            // Akamai protects individual prefixes (customers "must own a
            // prefix that can be rerouted through the Prolexic AS", §6.3)
            // — skewed toward Business/Hoster customers.
            let ak_p = match rec.kind {
                AsKind::Business => scale.akamai_protected_fraction * 4.0,
                AsKind::Hoster => scale.akamai_protected_fraction * 1.5,
                _ => scale.akamai_protected_fraction * 0.5,
            };
            for p in &rec.prefixes {
                if rng.chance(ak_p) {
                    akamai_protected.insert(*p, ());
                    akamai_prefix_list.push(*p);
                    // A minority of protected blocks are permanently
                    // advertised from the Prolexic ASN (most customers
                    // reroute on demand): one narrow sub-prefix each.
                    if rng.chance(0.25) && p.len() <= 24 {
                        let sub_len = (p.len() + 3).min(28);
                        let subs: Vec<Prefix> = p.subnets(sub_len).collect();
                        let sub = subs[rng.usize_below(subs.len())];
                        akamai_announced.insert(sub, ());
                        akamai_announced_list.push(sub);
                    }
                }
            }
        }

        // --- Reflector pools. -----------------------------------------------
        let mut reflector_pools = BTreeMap::new();
        for v in AmpVector::ALL {
            let n = (scale.reflector_pool_total as f64 * v.reflector_pool_share()) as u64;
            reflector_pools.insert(v, n.max(1));
        }

        InternetPlan {
            registry,
            routed,
            allocations,
            ucsd,
            orion,
            honeypots,
            akamai_protected,
            akamai_prefix_list,
            akamai_announced,
            akamai_announced_list,
            netscout_customers,
            ixp_members,
            reflector_pools,
        }
    }

    /// Origin AS of an address via the routed table.
    pub fn asn_of(&self, ip: Ipv4) -> Option<Asn> {
        self.routed.lookup(ip).map(|(_, asn)| *asn)
    }

    /// Most specific routed prefix covering an address.
    pub fn routed_prefix_of(&self, ip: Ipv4) -> Option<Prefix> {
        self.routed.lookup(ip).map(|(p, _)| p)
    }

    /// RIR allocation covering an address.
    pub fn allocation_of(&self, ip: Ipv4) -> Option<Allocation> {
        self.allocations.lookup(ip).map(|(_, a)| *a)
    }

    /// Is the address inside Akamai-protected space?
    pub fn akamai_protects(&self, ip: Ipv4) -> bool {
        self.akamai_protected.lookup(ip).is_some()
    }

    /// Is the address inside the Prolexic-ASN announced prefixes (the
    /// §7.2 join scope)?
    pub fn akamai_announces(&self, ip: Ipv4) -> bool {
        self.akamai_announced.lookup(ip).is_some()
    }

    /// Draw a uniformly random address announced by the given AS.
    pub fn random_ip_in_asn(&self, asn: Asn, rng: &mut SimRng) -> Option<Ipv4> {
        let rec = self.registry.get(asn)?;
        if rec.prefixes.is_empty() {
            return None;
        }
        let total: u64 = rec.prefixes.iter().map(|p| p.size()).sum();
        let mut i = rng.u64_below(total);
        for p in &rec.prefixes {
            if i < p.size() {
                return Some(p.nth(i));
            }
            i -= p.size();
        }
        unreachable!("weights exhausted")
    }
}

/// Announce an allocation into the routed table, possibly deaggregated:
/// real BGP tables carry a mix of covering prefixes and more-specifics,
/// which is exactly what the Appendix-I longest-routed-prefix search must
/// navigate.
fn announce(routed: &mut PrefixTable<Asn>, block: Prefix, asn: Asn, rng: &mut SimRng) {
    routed.insert(block, asn);
    if block.len() >= 22 || !rng.chance(0.5) {
        return;
    }
    // Announce 2..=4 more-specific subnets one or two bits longer.
    let extra_bits = rng.u64_range(1, 2) as u8;
    let child_len = (block.len() + extra_bits).min(24);
    let children: Vec<Prefix> = block.subnets(child_len).collect();
    let k = rng.u64_range(2, 4.min(children.len() as u64)) as usize;
    for idx in rng.sample_indices(children.len(), k) {
        routed.insert(children[idx], asn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(1234);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    #[test]
    fn deterministic_build() {
        let mut r1 = SimRng::new(7);
        let mut r2 = SimRng::new(7);
        let p1 = InternetPlan::build(&NetScale::tiny(), &mut r1);
        let p2 = InternetPlan::build(&NetScale::tiny(), &mut r2);
        assert_eq!(p1.registry.len(), p2.registry.len());
        assert_eq!(p1.honeypots.amppot_allocated, p2.honeypots.amppot_allocated);
        assert_eq!(p1.akamai_prefix_list, p2.akamai_prefix_list);
    }

    #[test]
    fn telescope_sizes_match_paper() {
        let p = plan();
        // UCSD: /9 + /10 = 12.6M ≈ "12M IPs" (Table 2).
        assert_eq!(p.ucsd.address_count(), (1 << 23) + (1 << 22));
        // ORION: /13 = 524k ≈ "500k IPs".
        assert_eq!(p.orion.address_count(), 1 << 19);
        // UCSD is roughly 20x-24x larger (§6.1 says "roughly 20x").
        let ratio = p.ucsd.address_count() as f64 / p.orion.address_count() as f64;
        assert!((20.0..=28.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn telescope_space_disjoint() {
        let p = plan();
        for u in &p.ucsd.prefixes {
            for o in &p.orion.prefixes {
                assert!(!u.overlaps(*o));
            }
        }
    }

    #[test]
    fn honeypot_counts_match_table2() {
        let p = plan();
        assert_eq!(p.honeypots.amppot_allocated.len(), 70);
        assert_eq!(p.honeypots.amppot_responsive, 30);
        assert_eq!(p.honeypots.hopscotch.len(), 65);
        assert_eq!(p.honeypots.newkid.len(), 1);
    }

    #[test]
    fn honeypot_sensors_not_in_telescopes() {
        let p = plan();
        for ip in p
            .honeypots
            .amppot_allocated
            .iter()
            .chain(&p.honeypots.hopscotch)
            .chain(&p.honeypots.newkid)
        {
            assert!(
                !p.ucsd.contains(*ip) && !p.orion.contains(*ip),
                "{ip} inside a darknet"
            );
        }
    }

    #[test]
    fn known_ases_present() {
        let p = plan();
        for known in KNOWN_ASES {
            let rec = p.registry.get(Asn(known.asn)).unwrap();
            assert_eq!(rec.name, known.name);
            assert!(!rec.prefixes.is_empty());
        }
    }

    #[test]
    fn routed_lookup_maps_back_to_owner() {
        let p = plan();
        let mut rng = SimRng::new(5);
        for _ in 0..200 {
            let ovh = p.registry.get(Asn(16276)).unwrap();
            let pfx = *rng.choose(&ovh.prefixes);
            let ip = pfx.nth(rng.u64_below(pfx.size()));
            assert_eq!(p.asn_of(ip), Some(Asn(16276)));
        }
    }

    #[test]
    fn allocations_never_overlap() {
        let p = plan();
        let allocs: Vec<(Prefix, &Allocation)> = p.allocations.iter().collect();
        for w in allocs.windows(2) {
            assert!(
                !w[0].0.overlaps(w[1].0),
                "{} overlaps {}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn allocation_lookup_consistent_with_registry() {
        let p = plan();
        let mut rng = SimRng::new(9);
        for _ in 0..100 {
            let idx = rng.usize_below(p.registry.len());
            let rec = p.registry.by_index(idx);
            if rec.prefixes.is_empty() {
                continue;
            }
            let pfx = *rng.choose(&rec.prefixes);
            let a = p.allocation_of(pfx.base()).unwrap();
            assert_eq!(a.asn, rec.asn);
        }
    }

    #[test]
    fn weights_nonnegative_and_positive_total() {
        let p = plan();
        let weights = p.registry.target_weights();
        assert!(weights.iter().all(|&w| w >= 0.0));
        assert!(weights.iter().sum::<f64>() > 0.5);
        // Research ASes (telescopes) must never be targets.
        for rec in p.registry.iter() {
            if rec.kind == AsKind::Research {
                assert_eq!(rec.target_weight, 0.0);
            }
        }
    }

    #[test]
    fn ovh_has_the_heaviest_weight() {
        let p = plan();
        let ovh = p.registry.get(Asn(16276)).unwrap().target_weight;
        for rec in p.registry.iter() {
            if rec.asn != Asn(16276) {
                assert!(rec.target_weight <= ovh, "{} out-weighs OVH", rec.name);
            }
        }
    }

    #[test]
    fn coverage_scopes_populated() {
        let p = plan();
        assert!(!p.netscout_customers.is_empty());
        assert!(!p.ixp_members.is_empty());
        assert!(!p.akamai_prefix_list.is_empty());
        // Research ASes don't buy DDoS protection.
        assert!(!p.netscout_customers.contains(&Asn(7377)));
    }

    #[test]
    fn akamai_protection_lookup() {
        let p = plan();
        for pfx in &p.akamai_prefix_list {
            assert!(p.akamai_protects(pfx.base()));
        }
    }

    #[test]
    fn akamai_announced_is_narrow_subset_of_protected() {
        let p = plan();
        assert!(!p.akamai_announced_list.is_empty());
        let announced: u64 = p.akamai_announced_list.iter().map(|x| x.size()).sum();
        let protected: u64 = p.akamai_prefix_list.iter().map(|x| x.size()).sum();
        assert!(announced * 8 < protected, "announced {announced} vs protected {protected}");
        for sub in &p.akamai_announced_list {
            assert!(p.akamai_protects(sub.base()), "announced outside protected");
            assert!(p.akamai_announces(sub.base()));
        }
    }

    #[test]
    fn reflector_pools_cover_all_vectors() {
        let p = plan();
        for v in AmpVector::ALL {
            assert!(*p.reflector_pools.get(&v).unwrap() >= 1);
        }
        // DNS pool is the largest.
        let dns = p.reflector_pools[&AmpVector::Dns];
        assert!(p.reflector_pools.values().all(|&n| n <= dns));
    }

    #[test]
    fn random_ip_in_asn_stays_inside() {
        let p = plan();
        let mut rng = SimRng::new(77);
        let rec = p.registry.get(Asn(24940)).unwrap();
        for _ in 0..100 {
            let ip = p.random_ip_in_asn(Asn(24940), &mut rng).unwrap();
            assert!(rec.contains(ip));
        }
        assert!(p.random_ip_in_asn(Asn(99_999_999), &mut rng).is_none());
    }

    #[test]
    fn blocks_avoid_reserved_space() {
        let p = plan();
        let reserved: Vec<Prefix> = ["10.0.0.0/8", "127.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "224.0.0.0/3"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for (pfx, _) in p.allocations.iter() {
            for r in &reserved {
                assert!(!pfx.overlaps(*r), "{pfx} overlaps reserved {r}");
            }
        }
    }

    #[test]
    fn routed_prefixes_within_allocations() {
        let p = plan();
        for (pfx, asn) in p.routed.iter() {
            let alloc = p.allocation_of(pfx.base()).unwrap_or_else(|| {
                panic!("routed prefix {pfx} has no allocation");
            });
            assert_eq!(alloc.asn, *asn, "routed {pfx} origin mismatch");
            assert!(alloc.block.covers(pfx));
        }
    }
}
