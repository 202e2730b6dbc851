//! Property-based tests for prefix arithmetic and the LPM trie.

use netmodel::{Ipv4, Prefix, PrefixTable};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(Ipv4(addr), len))
}

proptest! {
    /// The base address is always inside its own prefix, as is the last.
    #[test]
    fn prefix_contains_its_bounds(p in arb_prefix()) {
        prop_assert!(p.contains(p.base()));
        prop_assert!(p.contains(p.last()));
    }

    /// Masking is idempotent: re-normalizing a prefix changes nothing.
    #[test]
    fn normalization_idempotent(p in arb_prefix()) {
        let again = Prefix::new(p.base(), p.len());
        prop_assert_eq!(p, again);
    }

    /// size == last - base + 1 for non-/0 prefixes.
    #[test]
    fn size_consistent(p in arb_prefix()) {
        prop_assume!(p.len() >= 1);
        prop_assert_eq!(p.size(), (p.last().0 - p.base().0) as u64 + 1);
    }

    /// Splitting partitions the parent exactly: the children are
    /// disjoint, both covered, and their sizes sum to the parent's.
    #[test]
    fn split_partitions(p in arb_prefix()) {
        prop_assume!(p.len() < 32);
        let (l, r) = p.split().unwrap();
        prop_assert!(p.covers(l) && p.covers(r));
        prop_assert!(!l.overlaps(r));
        prop_assert_eq!(l.size() + r.size(), p.size());
        prop_assert_eq!(l.parent().unwrap(), p);
        prop_assert_eq!(r.parent().unwrap(), p);
    }

    /// `covers` is equivalent to containing both endpoints.
    #[test]
    fn covers_iff_endpoints(a in arb_prefix(), b in arb_prefix()) {
        let covers = a.covers(b);
        let endpoints = a.contains(b.base()) && a.contains(b.last());
        prop_assert_eq!(covers, endpoints);
    }

    /// Overlap is symmetric and implied by any shared address.
    #[test]
    fn overlap_symmetric(a in arb_prefix(), b in arb_prefix()) {
        prop_assert_eq!(a.overlaps(b), b.overlaps(a));
        if a.overlaps(b) {
            // The longer (more specific) prefix's base is in the other.
            let longer = if a.len() >= b.len() { a } else { b };
            let shorter = if a.len() >= b.len() { b } else { a };
            prop_assert!(shorter.contains(longer.base()));
        }
    }

    /// Display/parse round-trip.
    #[test]
    fn prefix_display_roundtrip(p in arb_prefix()) {
        let parsed: Prefix = p.to_string().parse().unwrap();
        prop_assert_eq!(p, parsed);
    }
}

/// Reference implementation of LPM by linear scan.
fn lpm_linear(entries: &[(Prefix, u32)], ip: Ipv4) -> Option<(Prefix, &u32)> {
    entries
        .iter()
        .filter(|(p, _)| p.contains(ip))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, v))
}

proptest! {
    /// The trie agrees with a linear-scan longest-prefix match on
    /// arbitrary rule sets and probes.
    #[test]
    fn trie_matches_linear_reference(
        rules in proptest::collection::vec((any::<u32>(), 0u8..=32, any::<u32>()), 0..40),
        probes in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let mut table = PrefixTable::new();
        let mut entries: Vec<(Prefix, u32)> = Vec::new();
        for (addr, len, value) in rules {
            let p = Prefix::new(Ipv4(addr), len);
            // Later inserts replace earlier ones — mirror in reference.
            entries.retain(|(e, _)| *e != p);
            entries.push((p, value));
            table.insert(p, value);
        }
        prop_assert_eq!(table.len(), entries.len());
        for probe in probes {
            let ip = Ipv4(probe);
            let got = table.lookup(ip).map(|(p, v)| (p, *v));
            let expected = lpm_linear(&entries, ip).map(|(p, v)| (p, *v));
            prop_assert_eq!(got, expected, "probe {}", ip);
        }
    }

    /// `matches` returns prefixes sorted by length, all containing the
    /// probe, with the LPM winner last.
    #[test]
    fn matches_sorted_and_consistent(
        rules in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..30),
        probe in any::<u32>(),
    ) {
        let mut table = PrefixTable::new();
        for (i, (addr, len)) in rules.iter().enumerate() {
            table.insert(Prefix::new(Ipv4(*addr), *len), i);
        }
        let ip = Ipv4(probe);
        let chain = table.matches(ip);
        for w in chain.windows(2) {
            prop_assert!(w[0].0.len() < w[1].0.len());
        }
        for (p, _) in &chain {
            prop_assert!(p.contains(ip));
        }
        prop_assert_eq!(
            chain.last().map(|(p, v)| (*p, **v)),
            table.lookup(ip).map(|(p, v)| (p, *v))
        );
    }
}
