//! UpSet-style set intersection analysis of attack targets (Fig. 7).
//!
//! Targets are `(attack start day, target IP)` tuples (§7). The UpSet
//! decomposition reports, for every combination of observatories, the
//! number of targets seen by *exactly* that combination — the exclusive
//! intersections of the figure's top bar plot — alongside per-set totals
//! (the left bar plot).
//!
//! The sets are merged once into a sorted [`membership`] column (each
//! distinct tuple with the mask of sets holding it); the UpSet and
//! confirmation analyses are linear passes over it.

use netmodel::Ipv4;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A `(day index, target IP)` tuple.
pub type TargetTuple = (i64, Ipv4);

/// One distinct tuple and its membership mask (bit `i` set ⇔ member of
/// set `i`).
pub type Member = (TargetTuple, u16);

/// `items` as a sorted, duplicate-free slice: borrowed when it already
/// is one (every per-observatory projection is), otherwise a sorted and
/// deduplicated copy.
pub(crate) fn sorted_distinct<T: Ord + Copy>(items: &[T]) -> Cow<'_, [T]> {
    if items.windows(2).all(|w| w[0] < w[1]) {
        return Cow::Borrowed(items);
    }
    let mut owned = items.to_vec();
    owned.sort_unstable();
    owned.dedup();
    Cow::Owned(owned)
}

/// The distinct IP addresses of a tuple stream, ascending.
pub(crate) fn distinct_ips(tuples: impl Iterator<Item = TargetTuple>) -> Vec<Ipv4> {
    let mut ips: Vec<Ipv4> = tuples.map(|(_, ip)| ip).collect();
    ips.sort_unstable();
    ips.dedup();
    ips
}

/// Human-readable name of a membership mask over the sets `names`,
/// e.g. "UCSD+AmpPot".
pub fn mask_label(names: &[impl AsRef<str>], mask: u16) -> String {
    let parts: Vec<&str> = names
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, n)| n.as_ref())
        .collect();
    parts.join("+")
}

/// The membership column of up to 16 tuple sets: every distinct tuple
/// exactly once, ascending, with its membership mask. A k-way merge of
/// the sets, so inputs that are already sorted and duplicate-free cost
/// one linear pass; any other input is normalized first.
pub fn membership(sets: &[&[TargetTuple]]) -> Vec<Member> {
    assert!(sets.len() <= 16, "membership supports at most 16 sets");
    let sets: Vec<Cow<'_, [TargetTuple]>> = sets.iter().map(|s| sorted_distinct(s)).collect();
    let mut heads = vec![0usize; sets.len()];
    let mut column = Vec::with_capacity(sets.iter().map(|s| s.len()).max().unwrap_or(0));
    loop {
        let fronts = sets.iter().zip(&heads).filter_map(|(s, &h)| s.get(h));
        let Some(&next) = fronts.min() else {
            break;
        };
        let mut mask = 0u16;
        for (i, (set, head)) in sets.iter().zip(heads.iter_mut()).enumerate() {
            if set.get(*head) == Some(&next) {
                mask |= 1 << i;
                *head += 1;
            }
        }
        column.push((next, mask));
    }
    column
}

/// Result of an UpSet decomposition over up to 16 sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpsetAnalysis {
    pub names: Vec<String>,
    /// Distinct tuples per set (non-exclusive).
    pub set_sizes: Vec<usize>,
    /// Exclusive-intersection counts, keyed by membership bitmask
    /// (bit i set ⇔ member of set i). Masks with zero count are absent.
    pub exclusive: BTreeMap<u16, usize>,
    /// Distinct tuples across all sets.
    pub total_distinct: usize,
    /// Distinct IP addresses across all sets.
    pub distinct_ips: usize,
}

impl UpsetAnalysis {
    /// The UpSet decomposition of a [`membership`] column over the sets
    /// `names` (bit `i` of each mask ⇔ `names[i]`).
    pub fn of(names: Vec<String>, column: &[Member]) -> UpsetAnalysis {
        let mut per_mask = vec![0usize; 1 << names.len()];
        for &(_, mask) in column {
            per_mask[mask as usize] += 1;
        }
        let mut u = UpsetAnalysis {
            set_sizes: Vec::new(),
            exclusive: (0..per_mask.len())
                .filter(|&m| per_mask[m] > 0)
                .map(|m| (m as u16, per_mask[m]))
                .collect(),
            names,
            total_distinct: column.len(),
            distinct_ips: distinct_ips(column.iter().map(|&(t, _)| t)).len(),
        };
        u.set_sizes = (0..u.names.len()).map(|i| u.at_least(1 << i)).collect();
        u
    }

    /// Share of all distinct targets in the exclusive intersection.
    pub fn share(&self, mask: u16) -> f64 {
        if self.total_distinct == 0 {
            return 0.0;
        }
        *self.exclusive.get(&mask).unwrap_or(&0) as f64 / self.total_distinct as f64
    }

    /// Count of targets seen by *at least* the sets in `mask`
    /// (non-exclusive intersection): sum over supersets.
    pub fn at_least(&self, mask: u16) -> usize {
        self.exclusive
            .iter()
            .filter(|(m, _)| *m & mask == mask)
            .map(|(_, c)| c)
            .sum()
    }

    /// |A ∩ B| / |A| — the share of set `a`'s targets also seen by `b`.
    pub fn overlap_share(&self, a: usize, b: usize) -> f64 {
        if self.set_sizes[a] == 0 {
            return 0.0;
        }
        let both = self.at_least((1 << a) | (1 << b));
        both as f64 / self.set_sizes[a] as f64
    }

    /// The mask with every set included.
    pub fn full_mask(&self) -> u16 {
        (1u16 << self.names.len()) - 1
    }
}

/// Compute the UpSet decomposition. Tuples may be unsorted and contain
/// duplicates; they are deduplicated per set.
pub fn upset(sets: &[(String, Vec<TargetTuple>)]) -> UpsetAnalysis {
    let names = sets.iter().map(|(n, _)| n.clone()).collect();
    let slices: Vec<&[TargetTuple]> = sets.iter().map(|(_, t)| t.as_slice()).collect();
    UpsetAnalysis::of(names, &membership(&slices))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(day: i64, ip: u32) -> TargetTuple {
        (day, Ipv4(ip))
    }

    fn sets() -> Vec<(String, Vec<TargetTuple>)> {
        vec![
            ("A".into(), vec![t(1, 1), t(1, 2), t(1, 3)]),
            ("B".into(), vec![t(1, 2), t(1, 3), t(1, 4)]),
            ("C".into(), vec![t(1, 3), t(1, 5)]),
        ]
    }

    #[test]
    fn set_sizes_and_total() {
        let u = upset(&sets());
        assert_eq!(u.set_sizes, vec![3, 3, 2]);
        assert_eq!(u.total_distinct, 5);
        assert_eq!(u.distinct_ips, 5);
    }

    #[test]
    fn exclusive_masks() {
        let u = upset(&sets());
        // ip1: A only (mask 0b001), ip2: A+B (0b011), ip3: all (0b111),
        // ip4: B only (0b010), ip5: C only (0b100).
        assert_eq!(u.exclusive[&0b001], 1);
        assert_eq!(u.exclusive[&0b011], 1);
        assert_eq!(u.exclusive[&0b111], 1);
        assert_eq!(u.exclusive[&0b010], 1);
        assert_eq!(u.exclusive[&0b100], 1);
        assert_eq!(u.exclusive.values().sum::<usize>(), u.total_distinct);
    }

    #[test]
    fn at_least_sums_supersets() {
        let u = upset(&sets());
        // Seen by at least A and B: ip2 and ip3.
        assert_eq!(u.at_least(0b011), 2);
        // Seen by at least C: ip3, ip5.
        assert_eq!(u.at_least(0b100), 2);
        // All three: ip3 only.
        assert_eq!(u.at_least(u.full_mask()), 1);
    }

    #[test]
    fn overlap_share_directional() {
        let u = upset(&sets());
        // A's targets also in B: 2 of 3.
        assert!((u.overlap_share(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        // C's targets also in A: 1 of 2.
        assert!((u.overlap_share(2, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicates_deduplicated() {
        let u = upset(&[("A".into(), vec![t(1, 1), t(1, 1), t(1, 1)])]);
        assert_eq!(u.set_sizes, vec![1]);
        assert_eq!(u.total_distinct, 1);
    }

    #[test]
    fn same_ip_on_different_days_distinct_tuples() {
        let u = upset(&[("A".into(), vec![t(1, 9), t(2, 9)])]);
        assert_eq!(u.total_distinct, 2);
        assert_eq!(u.distinct_ips, 1);
    }

    #[test]
    fn shares_sum_to_one() {
        let u = upset(&sets());
        let sum: f64 = u.exclusive.keys().map(|&m| u.share(m)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mask_labels() {
        let u = upset(&sets());
        assert_eq!(mask_label(&u.names, 0b101), "A+C");
        assert_eq!(mask_label(&u.names, 0b111), "A+B+C");
        assert_eq!(mask_label(&u.names, 0), "");
    }

    #[test]
    fn empty_sets_ok() {
        let u = upset(&[("A".into(), vec![]), ("B".into(), vec![])]);
        assert_eq!(u.total_distinct, 0);
        assert_eq!(u.share(0b01), 0.0);
        assert_eq!(u.overlap_share(0, 1), 0.0);
    }
}
