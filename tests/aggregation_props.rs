//! Property tests pinning the §5/§7 column projections of an
//! observation stream (`ObservationColumns`) against first-principles
//! recounts of the records pushed into it.
//!
//! Pinned contracts:
//!
//! * `weekly_counts` — always `STUDY_WEEKS` buckets; every in-study
//!   observation lands in exactly the bucket of its week index;
//!   out-of-range weeks (negative starts, past study end) are silently
//!   dropped, never a panic or an out-of-bounds write.
//! * `distinct_target_tuples` — sorted ascending, strictly deduplicated,
//!   and exactly the set of `(start day, target ip)` pairs.
//! * Row views (`get`, `iter`, `ObservedRef::target_tuples`) read back
//!   every pushed record, including negative starts and empty target
//!   lists.

use attackgen::{AttackId, ObservationColumns, ObservedRef};
use netmodel::Ipv4;
use proptest::prelude::*;
use simcore::{SimTime, STUDY_WEEKS};
use std::collections::BTreeSet;

/// Seconds spanning well past both study edges (the study is ~234
/// weeks; this covers ± several years outside it, including the exact
/// boundary instants the bucketing must get right).
const WILD_SECS: std::ops::Range<i64> = -200_000_000i64..400_000_000i64;

/// One column set holding `(start secs, target ips)` records in order.
fn columns(records: &[(i64, Vec<u32>)]) -> ObservationColumns {
    let mut cols = ObservationColumns::new();
    for (start, ips) in records {
        let ips: Vec<Ipv4> = ips.iter().map(|&i| Ipv4(i)).collect();
        cols.push_row(AttackId(start.unsigned_abs()), SimTime(*start), &ips);
    }
    cols
}

fn week(start_secs: i64) -> i64 {
    SimTime(start_secs).week_index()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bucketing: every observation is either counted in exactly its
    /// own week's bucket or dropped because it falls outside the study
    /// — nothing is double counted, nothing panics.
    #[test]
    fn weekly_counts_bucket_or_drop(
        starts in proptest::collection::vec(WILD_SECS, 0..40),
    ) {
        let records: Vec<(i64, Vec<u32>)> = starts.iter().map(|&s| (s, vec![1])).collect();
        let counts = columns(&records).weekly_counts();
        prop_assert_eq!(counts.len(), STUDY_WEEKS);

        let in_range = starts
            .iter()
            .filter(|&&s| (0..STUDY_WEEKS as i64).contains(&week(s)))
            .count();
        let total: f64 = counts.iter().sum();
        prop_assert_eq!(total as usize, in_range, "counts must equal in-study observations");

        // Per-bucket recount from first principles.
        for (w, &c) in counts.iter().enumerate() {
            let expect = starts.iter().filter(|&&s| week(s) == w as i64).count();
            prop_assert_eq!(c as usize, expect, "week {} miscounted", w);
        }
    }

    /// The exact boundary weeks: second 0 is week 0, the last second
    /// before the study end is the last week, one week past is dropped.
    #[test]
    fn weekly_counts_boundaries(off in 0i64..604_800) {
        let last_week_start = (STUDY_WEEKS as i64 - 1) * 604_800;
        let counts = columns(&[
            (off, vec![1]),                                   // inside week 0
            (-1 - off, vec![1]),                              // just before the study
            (last_week_start + off % 604_800, vec![1]),       // inside last week
            (STUDY_WEEKS as i64 * 604_800 + off, vec![1]),    // past the end
        ])
        .weekly_counts();
        prop_assert_eq!(counts[0], 1.0);
        prop_assert_eq!(counts[STUDY_WEEKS - 1], 1.0);
        let total: f64 = counts.iter().sum();
        prop_assert_eq!(total, 2.0, "out-of-study observations must be dropped");
    }

    /// Tuples: sorted, strictly deduplicated, and exactly the
    /// set-theoretic union of every observation's (day, ip) pairs.
    #[test]
    fn distinct_tuples_are_the_sorted_set(
        records in proptest::collection::vec(
            (WILD_SECS, proptest::collection::vec(0u32..50, 0..5)),
            0..30,
        ),
    ) {
        let tuples = columns(&records).distinct_target_tuples();

        // Strictly increasing ⇒ both sorted and deduplicated.
        for pair in tuples.windows(2) {
            prop_assert!(pair[0] < pair[1], "tuples not strictly sorted: {:?}", pair);
        }

        let expect: BTreeSet<(i64, Ipv4)> = records
            .iter()
            .flat_map(|(s, ips)| ips.iter().map(move |&ip| (SimTime(*s).day_index(), Ipv4(ip))))
            .collect();
        prop_assert_eq!(tuples.len(), expect.len());
        for (got, want) in tuples.iter().zip(expect.iter()) {
            prop_assert_eq!(got, want);
        }
    }

    /// Row views read back every pushed record — id, start, targets and
    /// the (day, ip) tuples — including negative starts, out-of-study
    /// weeks and empty target lists.
    #[test]
    fn row_views_read_back_every_record(
        records in proptest::collection::vec(
            (WILD_SECS, proptest::collection::vec(0u32..50, 0..5)),
            0..30,
        ),
    ) {
        let cols = columns(&records);
        prop_assert_eq!(cols.len(), records.len());
        prop_assert_eq!(cols.iter().len(), records.len());
        for (i, ((start, ips), row)) in records.iter().zip(cols.iter()).enumerate() {
            let targets: Vec<Ipv4> = ips.iter().map(|&ip| Ipv4(ip)).collect();
            prop_assert_eq!(row, cols.get(i));
            prop_assert_eq!(row.attack_id, AttackId(start.unsigned_abs()));
            prop_assert_eq!(row.start, SimTime(*start));
            prop_assert_eq!(row.targets, targets.as_slice());
            prop_assert_eq!(row.week(), week(*start));
        }
        let tuples: Vec<(i64, Ipv4)> = cols.iter().flat_map(ObservedRef::target_tuples).collect();
        let expect: Vec<(i64, Ipv4)> = records
            .iter()
            .flat_map(|(s, ips)| ips.iter().map(move |&ip| (SimTime(*s).day_index(), Ipv4(ip))))
            .collect();
        prop_assert_eq!(tuples, expect);
    }
}
