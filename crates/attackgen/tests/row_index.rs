//! The attack-row index (`AttackColumns::rows_by_id`): the inverse of
//! the id column for any permutation of `0..n`, and a loud failure,
//! naming the id, for anything else.

use attackgen::attack::{Attack, AttackClass, AttackId, AttackVector};
use attackgen::AttackColumns;
use netmodel::{Asn, Ipv4};
use proptest::prelude::*;
use simcore::{SimRng, SimTime};

/// One minimal attack row per id, in the given order.
fn columns(ids: &[u64]) -> AttackColumns {
    let attacks: Vec<Attack> = ids
        .iter()
        .map(|&id| Attack {
            id: AttackId(id),
            class: AttackClass::DirectPathSpoofed,
            vector: AttackVector::SynFlood,
            start: SimTime(id as i64),
            duration_secs: 60,
            targets: vec![Ipv4(id as u32)],
            target_asn: Asn(1),
            pps: 1.0,
            bps: 1.0,
            reflectors: None,
            spoof_space_fraction: 1.0,
            campaign: None,
        })
        .collect();
    AttackColumns::from_attacks(&attacks)
}

proptest! {
    /// For any shuffled permutation of `0..n`, `rows_by_id()[id]` is
    /// the row holding `id`.
    #[test]
    fn rows_by_id_inverts_any_permutation(n in 0usize..300, seed in any::<u64>()) {
        let mut ids: Vec<u64> = (0..n as u64).collect();
        SimRng::new(seed).shuffle(&mut ids);
        let cols = columns(&ids);
        let rows = cols.rows_by_id();
        prop_assert_eq!(rows.len(), n);
        for (row, &id) in ids.iter().enumerate() {
            prop_assert_eq!(rows[id as usize] as usize, row);
        }
    }
}

#[test]
#[should_panic(expected = "duplicate attack id 1 (rows 1 and 2)")]
fn rows_by_id_rejects_duplicates() {
    columns(&[0, 1, 1]).rows_by_id();
}

#[test]
#[should_panic(expected = "attack id 7 out of range 0..3")]
fn rows_by_id_rejects_sparse_ids() {
    columns(&[7, 1, 2]).rows_by_id();
}
