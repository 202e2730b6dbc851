//! Target-overlap time series and industry confirmation joins
//! (Fig. 8, 9, 10, 13 and the §7 scalar statistics).
//!
//! Like [`crate::upset`], every join here is a merge of sorted,
//! duplicate-free slices; unsorted input is sorted once on entry.

use crate::upset::{distinct_ips, membership, sorted_distinct, Member, TargetTuple};
use netmodel::Ipv4;
use serde::{Deserialize, Serialize};
use simcore::STUDY_WEEKS;
use std::cmp::Ordering;
use std::collections::HashSet;

/// The elements common to two sorted, duplicate-free slices, by merge.
pub fn intersect_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(x);
                (i, j) = (i + 1, j + 1);
            }
        }
    }
    out
}

/// Weekly counts of distinct (day, IP) targets: tuples are daily-
/// distinct by construction; the weekly series sums days (§5: "time
/// series count daily tuples and sum them up to weekly totals").
pub fn weekly_target_counts(tuples: &[TargetTuple]) -> Vec<f64> {
    let mut out = vec![0.0; STUDY_WEEKS];
    for &(day, _) in sorted_distinct(tuples).iter() {
        let w = day.div_euclid(7);
        if (0..STUDY_WEEKS as i64).contains(&w) {
            out[w as usize] += 1.0;
        }
    }
    out
}

/// Fig. 10: two observatories' weekly target counts plus the weekly
/// count of targets they share.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlapSeries {
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub shared: Vec<f64>,
}

pub fn weekly_overlap(a: &[TargetTuple], b: &[TargetTuple]) -> OverlapSeries {
    let (a, b) = (sorted_distinct(a), sorted_distinct(b));
    OverlapSeries {
        a: weekly_target_counts(&a),
        b: weekly_target_counts(&b),
        shared: weekly_target_counts(&intersect_sorted(&a, &b)),
    }
}

/// Fig. 8: weekly decomposition of a target stream into *new* IPs
/// (never attacked before within the stream) and *recurring* ones, plus
/// the cumulative CDF of new-target arrivals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NewRecurring {
    pub new_targets: Vec<f64>,
    pub recurring_targets: Vec<f64>,
    /// Cumulative share of all distinct IPs first seen by each week.
    pub cdf: Vec<f64>,
}

pub fn new_vs_recurring(tuples: &[TargetTuple]) -> NewRecurring {
    // Process in (day, ip) order; track first appearance of each IP.
    let mut seen: HashSet<Ipv4> = HashSet::new();
    let mut new_targets = vec![0.0; STUDY_WEEKS];
    let mut recurring = vec![0.0; STUDY_WEEKS];
    for &(day, ip) in sorted_distinct(tuples).iter() {
        let w = day.div_euclid(7);
        if !(0..STUDY_WEEKS as i64).contains(&w) {
            continue;
        }
        if seen.insert(ip) {
            new_targets[w as usize] += 1.0;
        } else {
            recurring[w as usize] += 1.0;
        }
    }
    let total_new: f64 = new_targets.iter().sum();
    let mut acc = 0.0;
    let cdf = new_targets
        .iter()
        .map(|&n| {
            acc += n;
            if total_new > 0.0 {
                acc / total_new
            } else {
                0.0
            }
        })
        .collect();
    NewRecurring {
        new_targets,
        recurring_targets: recurring,
        cdf,
    }
}

/// Fig. 9 / Fig. 13: for each exclusive academic subset, the share of
/// its targets confirmed by an industry baseline set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfirmationShares {
    /// (subset mask over the academic sets, subset size, confirmed share).
    pub rows: Vec<(u16, usize, f64)>,
    /// Reverse view: share of the industry set seen by each academic
    /// observatory independently (§7.2 "how many targets inferred by
    /// Netscout were also observed by academia").
    pub industry_seen_by: Vec<f64>,
    /// Share of the industry set seen by the union of academic sets.
    pub industry_seen_by_union: f64,
}

/// Fig. 9 / 13 over raw sets: tuples may be unsorted and contain
/// duplicates. See [`ConfirmationShares::of`].
pub fn confirmation_shares(
    academic: &[(String, Vec<TargetTuple>)],
    industry: &[TargetTuple],
) -> ConfirmationShares {
    let slices: Vec<&[TargetTuple]> = academic.iter().map(|(_, t)| t.as_slice()).collect();
    ConfirmationShares::of(&membership(&slices), academic.len(), industry)
}

impl ConfirmationShares {
    /// The confirmation join of a [`membership`] column over `n_sets`
    /// academic sets against an industry set, in one merge pass.
    pub fn of(column: &[Member], n_sets: usize, industry: &[TargetTuple]) -> ConfirmationShares {
        // (targets, confirmed targets) per exclusive subset mask.
        let mut per_mask = vec![(0usize, 0usize); 1 << n_sets];
        for &(_, mask) in column {
            per_mask[mask as usize].0 += 1;
        }
        // Walk the industry set; the cursor into the column only moves
        // forward.
        let industry = sorted_distinct(industry);
        let mut i = 0;
        for &t in industry.iter() {
            while column.get(i).is_some_and(|&(c, _)| c < t) {
                i += 1;
            }
            if let Some(&(_, mask)) = column.get(i).filter(|&&(c, _)| c == t) {
                per_mask[mask as usize].1 += 1;
            }
        }
        // Share of the industry set confirmed by every set in `bits`
        // (mask 0 holds no targets, so `bits == 0` is the union).
        let industry_n = industry.len().max(1) as f64;
        let seen_by = |bits: usize| {
            let confirmed: usize = (0..per_mask.len())
                .filter(|&m| m & bits == bits)
                .map(|m| per_mask[m].1)
                .sum();
            confirmed as f64 / industry_n
        };
        let subsets = per_mask.iter().enumerate().filter(|(_, &(n, _))| n > 0);
        ConfirmationShares {
            rows: subsets
                .map(|(m, &(n, confirmed))| (m as u16, n, confirmed as f64 / n as f64))
                .collect(),
            industry_seen_by: (0..n_sets).map(|i| seen_by(1 << i)).collect(),
            industry_seen_by_union: seen_by(0),
        }
    }
}

/// Share of distinct *IP addresses* (not tuples) common to two streams,
/// relative to the smaller set — the Jonker-et-al.-style comparison of
/// §7.1 ("this overlap is lower, i.e., 1.18%–2.9% of the IP addresses").
pub fn ip_overlap_share(a: &[TargetTuple], b: &[TargetTuple]) -> f64 {
    let ips_a = distinct_ips(a.iter().copied());
    let ips_b = distinct_ips(b.iter().copied());
    let smaller = ips_a.len().min(ips_b.len());
    if smaller == 0 {
        return 0.0;
    }
    intersect_sorted(&ips_a, &ips_b).len() as f64 / smaller as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::Ipv4;

    fn t(day: i64, ip: u32) -> TargetTuple {
        (day, Ipv4(ip))
    }

    #[test]
    fn weekly_counts_dedupe_and_bucket() {
        let tuples = vec![t(0, 1), t(0, 1), t(6, 2), t(7, 3), t(-1, 4), t(999_999, 5)];
        let counts = weekly_target_counts(&tuples);
        assert_eq!(counts[0], 2.0);
        assert_eq!(counts[1], 1.0);
        assert_eq!(counts.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn overlap_series_shared_subset() {
        let a = vec![t(0, 1), t(0, 2), t(7, 3)];
        let b = vec![t(0, 2), t(7, 3), t(7, 4)];
        let o = weekly_overlap(&a, &b);
        assert_eq!(o.a[0], 2.0);
        assert_eq!(o.b[0], 1.0);
        assert_eq!(o.shared[0], 1.0);
        assert_eq!(o.shared[1], 1.0);
        // Shared never exceeds either side.
        for w in 0..STUDY_WEEKS {
            assert!(o.shared[w] <= o.a[w] && o.shared[w] <= o.b[w]);
        }
    }

    #[test]
    fn new_vs_recurring_split() {
        // ip1 attacked on day 0 and day 7: new then recurring.
        let tuples = vec![t(0, 1), t(7, 1), t(7, 2)];
        let nr = new_vs_recurring(&tuples);
        assert_eq!(nr.new_targets[0], 1.0);
        assert_eq!(nr.new_targets[1], 1.0);
        assert_eq!(nr.recurring_targets[1], 1.0);
        // CDF ends at 1.
        assert!((nr.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        // CDF is monotone.
        for w in nr.cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn new_vs_recurring_empty() {
        let nr = new_vs_recurring(&[]);
        assert!(nr.new_targets.iter().all(|&x| x == 0.0));
        assert!(nr.cdf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn confirmation_shares_exclusive_subsets() {
        let academic = vec![
            ("T".to_string(), vec![t(0, 1), t(0, 2)]),
            ("H".to_string(), vec![t(0, 2), t(0, 3)]),
        ];
        // Industry confirms ip2 (seen by both) and ip3 (H only).
        let industry = vec![t(0, 2), t(0, 3), t(0, 9)];
        let c = confirmation_shares(&academic, &industry);
        let row = |mask: u16| c.rows.iter().find(|(m, _, _)| *m == mask).unwrap();
        // T-only = {ip1}: 0 confirmed.
        assert_eq!(row(0b01).2, 0.0);
        // H-only = {ip3}: fully confirmed.
        assert_eq!(row(0b10).2, 1.0);
        // Both = {ip2}: fully confirmed.
        assert_eq!(row(0b11).2, 1.0);
        // Industry seen by T: 1/3; by H: 2/3; by union: 2/3.
        assert!((c.industry_seen_by[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.industry_seen_by[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.industry_seen_by_union - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_seen_targets_confirmed_when_industry_superset() {
        let academic = vec![("A".to_string(), vec![t(0, 1), t(1, 2)])];
        let industry = vec![t(0, 1), t(1, 2), t(2, 3)];
        let c = confirmation_shares(&academic, &industry);
        assert_eq!(c.rows.len(), 1);
        assert_eq!(c.rows[0].2, 1.0);
    }

    #[test]
    fn ip_overlap_uses_addresses_not_tuples() {
        // Same IP on different days still counts once.
        let a = vec![t(0, 1), t(5, 1), t(0, 2)];
        let b = vec![t(9, 1), t(9, 7)];
        // smaller set has 2 IPs {1,7}; intersection {1} ⇒ 0.5.
        assert!((ip_overlap_share(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(ip_overlap_share(&a, &[]), 0.0);
    }
}
