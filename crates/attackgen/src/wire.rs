//! Wire codecs for the columnar stage outputs (DESIGN.md §11).
//!
//! [`AttackColumns`] and [`ObservationColumns`] are the attack-stage
//! and observation-stage outputs the persistent stage store writes to
//! disk. Each column is one [`netmodel::wire`] lane (a row count, then
//! one fixed-width value per row), so the payload size is within a few
//! percent of the resident columnar footprint and decode is a straight
//! refill of each `Vec`.
//!
//! Decoding is fail-safe (bounds-checked `Err`, never a panic) and
//! finishes with structural checks — equal column lengths, monotone
//! target offsets closing exactly on the arena — so a decoded value
//! upholds every invariant the columnar accessors index by.

use crate::attack::{AttackClass, AttackVector};
use crate::columns::{AttackColumns, ObservationColumns};
use netmodel::wire::{
    amp_from_tag, amp_tag, get_u32s, get_u64s, get_u8s, put_u32s, put_u64s, put_u8s, to_bytes,
    Reader, WireResult, Writer,
};
use netmodel::{Asn, Ipv4};

/// Stable one-byte tag of an attack class.
pub fn class_tag(c: AttackClass) -> u8 {
    match c {
        AttackClass::DirectPathSpoofed => 0,
        AttackClass::DirectPathNonSpoofed => 1,
        AttackClass::ReflectionAmplification => 2,
    }
}

pub fn class_from_tag(tag: u8) -> WireResult<AttackClass> {
    Ok(match tag {
        0 => AttackClass::DirectPathSpoofed,
        1 => AttackClass::DirectPathNonSpoofed,
        2 => AttackClass::ReflectionAmplification,
        _ => return Err(format!("unknown AttackClass tag {tag}")),
    })
}

/// Attack vectors use tags 0–3 for the direct-path vectors and
/// `4 + amp_tag` for amplification, so every `(vector)` pair fits one
/// byte.
const VECTOR_AMP_BASE: u8 = 4;

fn vector_tag(v: AttackVector) -> u8 {
    match v {
        AttackVector::SynFlood => 0,
        AttackVector::UdpFlood => 1,
        AttackVector::IcmpFlood => 2,
        AttackVector::HttpFlood => 3,
        AttackVector::Amplification(a) => VECTOR_AMP_BASE + amp_tag(a),
    }
}

fn vector_from_tag(tag: u8) -> WireResult<AttackVector> {
    Ok(match tag {
        0 => AttackVector::SynFlood,
        1 => AttackVector::UdpFlood,
        2 => AttackVector::IcmpFlood,
        3 => AttackVector::HttpFlood,
        t => AttackVector::Amplification(amp_from_tag(t - VECTOR_AMP_BASE)?),
    })
}

/// Check a decoded `(rows, target_offsets, target_arena)` triple: the
/// offsets column must have exactly `rows + 1` monotone entries
/// starting at 0 and closing on the arena length — the invariant every
/// `targets(i)` slice indexes by.
fn check_offsets(rows: usize, offsets: &[u32], arena_len: usize) -> WireResult<()> {
    if offsets.len() != rows + 1 {
        return Err(format!("{} offsets for {rows} rows", offsets.len()));
    }
    if offsets[0] != 0 {
        return Err(format!("offsets start at {} instead of 0", offsets[0]));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("non-monotone target offsets".to_string());
    }
    if offsets[rows] as usize != arena_len {
        return Err(format!(
            "offsets close at {} but the arena holds {arena_len} targets",
            offsets[rows]
        ));
    }
    Ok(())
}

impl AttackColumns {
    /// Encode every column to the wire format (deterministic bytes).
    pub fn write_wire(&self, w: &mut Writer<'_>) {
        put_u32s(w, &self.id, |v| v);
        put_u8s(w, &self.class, class_tag);
        put_u8s(w, &self.vector, vector_tag);
        put_u32s(w, &self.start_secs, |v| v);
        put_u32s(w, &self.duration_secs, |v| v);
        put_u32s(w, &self.target_asn, |a| a.0);
        put_u64s(w, &self.pps, f64::to_bits);
        put_u64s(w, &self.bps, f64::to_bits);
        put_u32s(w, &self.reflector_count, |v| v);
        put_u64s(w, &self.spoof_space_fraction, f64::to_bits);
        put_u32s(w, &self.campaign, |v| v);
        put_u32s(w, &self.target_offsets, |v| v);
        put_u32s(w, &self.target_arena, |ip| ip.0);
    }

    /// The encoded columns in one buffer.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        to_bytes(|w| self.write_wire(w))
    }

    /// Decode a wire payload, restoring every columnar invariant or
    /// failing with `Err` (never a panic).
    pub fn from_wire_bytes(bytes: &[u8]) -> WireResult<AttackColumns> {
        let mut r = Reader::new(bytes);
        let id = get_u32s(&mut r, |v| v)?;
        let class = get_u8s(&mut r, class_from_tag)?;
        let vector = get_u8s(&mut r, vector_from_tag)?;
        let start_secs = get_u32s(&mut r, |v| v)?;
        let duration_secs = get_u32s(&mut r, |v| v)?;
        let target_asn = get_u32s(&mut r, Asn)?;
        let pps = get_u64s(&mut r, f64::from_bits)?;
        let bps = get_u64s(&mut r, f64::from_bits)?;
        let reflector_count = get_u32s(&mut r, |v| v)?;
        let spoof_space_fraction = get_u64s(&mut r, f64::from_bits)?;
        let campaign = get_u32s(&mut r, |v| v)?;
        let target_offsets = get_u32s(&mut r, |v| v)?;
        let target_arena = get_u32s(&mut r, Ipv4)?;
        r.finish()?;

        let rows = id.len();
        for (name, len) in [
            ("class", class.len()),
            ("vector", vector.len()),
            ("start_secs", start_secs.len()),
            ("duration_secs", duration_secs.len()),
            ("target_asn", target_asn.len()),
            ("pps", pps.len()),
            ("bps", bps.len()),
            ("reflector_count", reflector_count.len()),
            ("spoof_space_fraction", spoof_space_fraction.len()),
            ("campaign", campaign.len()),
        ] {
            if len != rows {
                return Err(format!("column {name} holds {len} rows, id holds {rows}"));
            }
        }
        check_offsets(rows, &target_offsets, target_arena.len())?;

        Ok(AttackColumns {
            id,
            class,
            vector,
            start_secs,
            duration_secs,
            target_asn,
            pps,
            bps,
            reflector_count,
            spoof_space_fraction,
            campaign,
            target_offsets,
            target_arena,
        })
    }
}

impl ObservationColumns {
    /// Encode every column to the wire format (deterministic bytes).
    pub fn write_wire(&self, w: &mut Writer<'_>) {
        put_u64s(w, &self.attack_id, |v| v);
        put_u64s(w, &self.start, |v| v as u64);
        put_u32s(w, &self.target_offsets, |v| v);
        put_u32s(w, &self.target_arena, |ip| ip.0);
    }

    /// The encoded columns in one buffer.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        to_bytes(|w| self.write_wire(w))
    }

    /// Decode a wire payload, restoring every columnar invariant or
    /// failing with `Err` (never a panic).
    pub fn from_wire_bytes(bytes: &[u8]) -> WireResult<ObservationColumns> {
        let mut r = Reader::new(bytes);
        let attack_id = get_u64s(&mut r, |v| v)?;
        let start = get_u64s(&mut r, |v| v as i64)?;
        let target_offsets = get_u32s(&mut r, |v| v)?;
        let target_arena = get_u32s(&mut r, Ipv4)?;
        r.finish()?;

        let rows = attack_id.len();
        if start.len() != rows {
            return Err(format!("column start holds {} rows, attack_id holds {rows}", start.len()));
        }
        check_offsets(rows, &target_offsets, target_arena.len())?;

        Ok(ObservationColumns { attack_id, start, target_offsets, target_arena })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackId;
    use crate::columns::AttackRef;
    use netmodel::AmpVector;
    use simcore::SimTime;

    fn sample_attacks() -> AttackColumns {
        let mut cols = AttackColumns::new();
        cols.push(AttackRef {
            id: AttackId(1),
            class: AttackClass::DirectPathSpoofed,
            vector: AttackVector::SynFlood,
            start: SimTime(1000),
            duration_secs: 60,
            targets: &[Ipv4(0x01020304)],
            target_asn: Asn(16276),
            pps: 1.5e6,
            bps: 9.9e9,
            reflector_count: None,
            spoof_space_fraction: 1.0,
            campaign: None,
        });
        cols.push(AttackRef {
            id: AttackId(2),
            class: AttackClass::ReflectionAmplification,
            vector: AttackVector::Amplification(AmpVector::Cldap),
            start: SimTime(5000),
            duration_secs: 600,
            targets: &[Ipv4(0x0A0B0C01), Ipv4(0x0A0B0C02), Ipv4(0x0A0B0C03)],
            target_asn: Asn(24940),
            pps: 3.0e5,
            bps: 2.2e9,
            reflector_count: Some(512),
            spoof_space_fraction: 0.0,
            campaign: Some(7),
        });
        cols
    }

    fn sample_observations() -> ObservationColumns {
        let mut obs = ObservationColumns::new();
        obs.push_row(AttackId(11), SimTime(123), &[Ipv4(1), Ipv4(2)]);
        obs.push_row(AttackId(12), SimTime(456), &[Ipv4(3)]);
        obs
    }

    #[test]
    fn attack_columns_round_trip_byte_identically() {
        let cols = sample_attacks();
        let bytes = cols.to_wire_bytes();
        let back = AttackColumns::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(back, cols);
        assert_eq!(back.to_wire_bytes(), bytes);
        // The decoded view surface works (offsets rebuilt correctly).
        assert_eq!(back.get(1).targets.len(), 3);
        assert_eq!(back.get(1).campaign, Some(7));
        assert_eq!(back.get(1).reflector_count, Some(512));
        assert_eq!(
            back.get(1).vector,
            AttackVector::Amplification(AmpVector::Cldap)
        );
    }

    #[test]
    fn empty_columns_round_trip() {
        let cols = AttackColumns::new();
        let back = AttackColumns::from_wire_bytes(&cols.to_wire_bytes()).expect("decode");
        assert_eq!(back, cols);
        let obs = ObservationColumns::new();
        let back = ObservationColumns::from_wire_bytes(&obs.to_wire_bytes()).expect("decode");
        assert_eq!(back, obs);
    }

    #[test]
    fn observation_columns_round_trip_byte_identically() {
        let obs = sample_observations();
        let bytes = obs.to_wire_bytes();
        let back = ObservationColumns::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(back, obs);
        assert_eq!(back.to_wire_bytes(), bytes);
    }

    #[test]
    fn decode_rejects_corruption_without_panicking() {
        let bytes = sample_attacks().to_wire_bytes();
        for cut in 0..bytes.len() {
            let _ = AttackColumns::from_wire_bytes(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let _ = AttackColumns::from_wire_bytes(&bad);
        }
        let bytes = sample_observations().to_wire_bytes();
        for cut in 0..bytes.len() {
            let _ = ObservationColumns::from_wire_bytes(&bytes[..cut]);
        }
    }

    #[test]
    fn decode_rejects_structural_lies() {
        // Mismatched column lengths: drop the last class tag.
        let cols = sample_attacks();
        let mut w = Writer::new();
        w.u64(cols.id.len() as u64);
        for &v in &cols.id {
            w.u32(v);
        }
        w.u64(1); // class column claims one row for two ids
        w.u8(0);
        let err = AttackColumns::from_wire_bytes(&w.into_bytes());
        assert!(err.is_err());

        // Offsets that do not close on the arena.
        let mut obs = sample_observations();
        obs.target_offsets[2] = 99;
        let err = ObservationColumns::from_wire_bytes(&obs.to_wire_bytes());
        assert!(err.is_err(), "offsets past the arena must be rejected");
    }

    #[test]
    fn vector_tags_cover_every_variant() {
        let mut all = vec![
            AttackVector::SynFlood,
            AttackVector::UdpFlood,
            AttackVector::IcmpFlood,
            AttackVector::HttpFlood,
        ];
        all.extend(AmpVector::ALL.iter().map(|&v| AttackVector::Amplification(v)));
        for v in all {
            assert_eq!(vector_from_tag(vector_tag(v)).unwrap(), v);
        }
        assert!(vector_from_tag(VECTOR_AMP_BASE + AmpVector::ALL.len() as u8).is_err());
        for c in [
            AttackClass::DirectPathSpoofed,
            AttackClass::DirectPathNonSpoofed,
            AttackClass::ReflectionAmplification,
        ] {
            assert_eq!(class_from_tag(class_tag(c)).unwrap(), c);
        }
        assert!(class_from_tag(3).is_err());
    }
}
