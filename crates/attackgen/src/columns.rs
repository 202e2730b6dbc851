//! Columnar (struct-of-arrays) storage for the attack population and
//! the observation streams.
//!
//! [`AttackColumns`] stores each attack field in its own parallel
//! column and keeps every row's targets in one shared arena indexed by
//! `(offset, len)` ranges, so at the 10 M+ scale the reproduction
//! targets
//!
//! * the population costs a flat ~59 bytes/attack, with no per-attack
//!   `Vec<Ipv4>` header or heap allocation for (usually) one address,
//! * generation shards concatenate column-wise with a single
//!   permutation sort, and
//! * the §5/§7 projections become branch-light linear scans over dense
//!   arrays.
//!
//! Rows have no owned form. [`AttackRef`] (and [`ObservedRef`] for
//! observations) is a borrowed view of one row: the generator pushes
//! views over a reused target buffer, fixtures push literals, and
//! observers and experiments read `a.pps`, `a.targets`, `a.end()` from
//! views of the columns without materializing anything.
//!
//! Narrow encodings (all asserted on entry, never silently truncated):
//! ids and start seconds fit `u32` (the study spans ~1.4 × 10⁸ s and
//! ids are densely rebased), `campaign: Option<u32>` uses `u32::MAX`
//! as the `None` sentinel, and `reflector_count: Option<u32>` uses
//! `u32::MAX` for `None`. A row records no reflector protocol: it is
//! always the attack vector's amplification protocol.

use crate::attack::{AttackClass, AttackId, AttackVector};
use netmodel::{Asn, Ipv4};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// Sentinel in the `campaign` column for "not part of a campaign".
const NO_CAMPAIGN: u32 = u32::MAX;
/// Sentinel in the `reflector_count` column for "no reflectors".
const NO_REFLECTORS: u32 = u32::MAX;

/// The ground-truth attack population in struct-of-arrays layout.
///
/// All columns have identical length; `target_offsets` has one extra
/// trailing entry so row `i`'s targets are
/// `target_arena[target_offsets[i]..target_offsets[i + 1]]`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttackColumns {
    pub id: Vec<u32>,
    pub class: Vec<AttackClass>,
    pub vector: Vec<AttackVector>,
    pub start_secs: Vec<u32>,
    pub duration_secs: Vec<u32>,
    pub target_asn: Vec<Asn>,
    pub pps: Vec<f64>,
    pub bps: Vec<f64>,
    /// `u32::MAX` ⇒ no reflectors (non-amplification vectors).
    pub reflector_count: Vec<u32>,
    pub spoof_space_fraction: Vec<f64>,
    /// `u32::MAX` ⇒ not a campaign attack.
    pub campaign: Vec<u32>,
    /// Row `i` owns `target_arena[target_offsets[i]..target_offsets[i+1]]`.
    /// Always `len() + 1` entries (a single `[0]` when empty).
    pub target_offsets: Vec<u32>,
    /// Shared target storage for every attack.
    pub target_arena: Vec<Ipv4>,
}

/// Ground-truth record of one DDoS attack, borrowing its targets: a
/// row of [`AttackColumns`], or one about to be pushed there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackRef<'a> {
    pub id: AttackId,
    pub class: AttackClass,
    pub vector: AttackVector,
    pub start: SimTime,
    pub duration_secs: u32,
    /// Attacked addresses. More than one ⇒ carpet bombing (the addresses
    /// share a routed prefix; Appendix I).
    pub targets: &'a [Ipv4],
    /// Origin AS of the targets.
    pub target_asn: Asn,
    /// Aggregate packet rate toward the target(s), packets/second.
    pub pps: f64,
    /// Aggregate bit rate toward the target(s), bits/second.
    pub bps: f64,
    /// For reflection attacks: the number of distinct reflectors
    /// abused. Their protocol is `vector.amp_vector()`.
    pub reflector_count: Option<u32>,
    /// For spoofed direct-path attacks: the fraction of the IPv4 space
    /// the attacker draws spoofed sources from (1.0 = fully random;
    /// § 6.1 reason (ii)/(iii): some attacks rotate through less than the
    /// full space or avoid known telescopes).
    pub spoof_space_fraction: f64,
    /// Index of the campaign that spawned this attack, if any.
    pub campaign: Option<u32>,
}

impl AttackRef<'_> {
    /// End instant (exclusive).
    pub fn end(&self) -> SimTime {
        self.start.plus_secs(self.duration_secs as i64)
    }

    /// Primary (first) target address.
    pub fn primary_target(&self) -> Ipv4 {
        self.targets[0]
    }

    /// Is this a carpet-bombing (multi-address) attack?
    pub fn is_carpet_bombing(&self) -> bool {
        self.targets.len() > 1
    }

    /// Packet rate per individual target address.
    pub fn pps_per_target(&self) -> f64 {
        self.pps / self.targets.len() as f64
    }

    /// Total packets sent toward the victim over the whole attack.
    pub fn total_packets(&self) -> f64 {
        self.pps * self.duration_secs as f64
    }
}

impl AttackColumns {
    pub fn new() -> AttackColumns {
        AttackColumns {
            target_offsets: vec![0],
            ..AttackColumns::default()
        }
    }

    pub fn len(&self) -> usize {
        self.id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Append one attack row, copying its targets into the arena, so
    /// the view may borrow a buffer the caller reuses for the next row.
    /// Panics if a field does not fit the columnar encoding (a negative
    /// or >u32 start, id ≥ u32::MAX, a sentinel value, a reflector count
    /// on a vector that reflects nothing) — those are generator bugs,
    /// not data.
    pub fn push(&mut self, a: AttackRef<'_>) {
        let id = u32::try_from(a.id.0).expect("attack id exceeds the u32 column");
        let start =
            u32::try_from(a.start.0).expect("attack start outside the u32-seconds column range");
        let reflector_count = match a.reflector_count {
            Some(k) => {
                assert!(
                    a.vector.amp_vector().is_some(),
                    "reflectors on a non-amplification vector"
                );
                assert_ne!(k, NO_REFLECTORS, "reflector count sentinel");
                k
            }
            None => NO_REFLECTORS,
        };
        let campaign = match a.campaign {
            Some(c) => {
                assert_ne!(c, NO_CAMPAIGN, "campaign index sentinel");
                c
            }
            None => NO_CAMPAIGN,
        };
        self.id.push(id);
        self.class.push(a.class);
        self.vector.push(a.vector);
        self.start_secs.push(start);
        self.duration_secs.push(a.duration_secs);
        self.target_asn.push(a.target_asn);
        self.pps.push(a.pps);
        self.bps.push(a.bps);
        self.reflector_count.push(reflector_count);
        self.spoof_space_fraction.push(a.spoof_space_fraction);
        self.campaign.push(campaign);
        self.target_arena.extend_from_slice(a.targets);
        let end = u32::try_from(self.target_arena.len()).expect("target arena exceeds u32 offsets");
        self.target_offsets.push(end);
    }

    /// Target slice of row `i`.
    pub fn targets(&self, i: usize) -> &[Ipv4] {
        &self.target_arena[self.target_offsets[i] as usize..self.target_offsets[i + 1] as usize]
    }

    /// Borrowed view of row `i`.
    pub fn get(&self, i: usize) -> AttackRef<'_> {
        let reflector_count = self.reflector_count[i];
        let campaign = self.campaign[i];
        AttackRef {
            id: AttackId(self.id[i] as u64),
            class: self.class[i],
            vector: self.vector[i],
            start: SimTime(self.start_secs[i] as i64),
            duration_secs: self.duration_secs[i],
            targets: self.targets(i),
            target_asn: self.target_asn[i],
            pps: self.pps[i],
            bps: self.bps[i],
            reflector_count: (reflector_count != NO_REFLECTORS).then_some(reflector_count),
            spoof_space_fraction: self.spoof_space_fraction[i],
            campaign: (campaign != NO_CAMPAIGN).then_some(campaign),
        }
    }

    /// Iterate all rows as borrowed views.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = AttackRef<'_>> + ExactSizeIterator + Clone + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Append rows `lo..hi` of `src`, rebasing ids by `id_base` —
    /// column-wise `memcpy`s plus one arena range copy.
    fn append_range_rebased(&mut self, src: &AttackColumns, lo: usize, hi: usize, id_base: u64) {
        if lo >= hi {
            return;
        }
        self.id.extend(src.id[lo..hi].iter().map(|&i| {
            u32::try_from(id_base + i as u64).expect("rebased attack id exceeds the u32 column")
        }));
        self.class.extend_from_slice(&src.class[lo..hi]);
        self.vector.extend_from_slice(&src.vector[lo..hi]);
        self.start_secs.extend_from_slice(&src.start_secs[lo..hi]);
        self.duration_secs.extend_from_slice(&src.duration_secs[lo..hi]);
        self.target_asn.extend_from_slice(&src.target_asn[lo..hi]);
        self.pps.extend_from_slice(&src.pps[lo..hi]);
        self.bps.extend_from_slice(&src.bps[lo..hi]);
        self.reflector_count.extend_from_slice(&src.reflector_count[lo..hi]);
        self.spoof_space_fraction
            .extend_from_slice(&src.spoof_space_fraction[lo..hi]);
        self.campaign.extend_from_slice(&src.campaign[lo..hi]);
        let (src_lo, src_hi) = (src.target_offsets[lo], src.target_offsets[hi]);
        let end = self.target_arena.len() as u64 + u64::from(src_hi - src_lo);
        assert!(end <= u64::from(u32::MAX), "target arena exceeds u32 offsets");
        let dst_base = self.target_arena.len() as u32;
        self.target_offsets.extend(
            src.target_offsets[lo + 1..=hi].iter().map(|&o| o - src_lo + dst_base),
        );
        self.target_arena
            .extend_from_slice(&src.target_arena[src_lo as usize..src_hi as usize]);
    }

    /// Copy one row of `src` (rebasing its id) onto the end of `self`.
    fn push_row_rebased(&mut self, src: &AttackColumns, i: usize, id_base: u64) {
        self.append_range_rebased(src, i, i + 1, id_base);
    }

    /// The inverse of the `id` column: `rows_by_id()[id]` is the row of
    /// attack `id`. Generated ids are a permutation of `0..len()`, so
    /// the index is a dense array. Panics, naming the id, on a
    /// duplicate or out-of-range id — in release builds too, since a
    /// silently wrong join would corrupt every experiment reading it.
    pub fn rows_by_id(&self) -> Vec<u32> {
        let n = self.len();
        let mut rows = vec![u32::MAX; n];
        for (row, &id) in self.id.iter().enumerate() {
            let slot = rows.get_mut(id as usize).unwrap_or_else(|| {
                panic!("attack id {id} out of range 0..{n}: ids must be a permutation")
            });
            assert!(
                *slot == u32::MAX,
                "duplicate attack id {id} (rows {} and {row}): ids must be a permutation",
                *slot
            );
            *slot = row as u32;
        }
        rows
    }

    /// Are the rows in canonical `(start, id)` order?
    pub fn is_sorted_by_start_id(&self) -> bool {
        let key =
            |i: usize| ((self.start_secs[i] as u64) << 32) | self.id[i] as u64;
        (1..self.len()).all(|i| key(i - 1) < key(i))
    }

    /// Merge a `(start, id)`-sorted shard with shard-local dense ids
    /// into `self`, rebasing ids by `id_base`. Rows starting at or
    /// after `spill_bound` (seconds — the first week of the *next*
    /// shard) are held back in `carry` instead of appended: a week's
    /// companion attacks can start up to 30 minutes into the following
    /// week (`AttackGenerator::maybe_companion`), so a shard's sorted
    /// tail may interleave with the next shard's head. The previous
    /// call's carry is spliced in at its correct `(start, id)`
    /// positions — carry ids are always smaller than this shard's
    /// rebased ids, so on a start tie the carry row wins. With
    /// `spill_bound: None` (final shard) everything drains. Feeding
    /// every shard through this in week order produces exactly the
    /// concat-then-`sort_by_start_id` population while only ever
    /// holding `self`, one shard, and a tiny carry — the merge that
    /// lets a 10M+ study peak near the population's own footprint.
    pub fn merge_sorted_shard(
        &mut self,
        shard: AttackColumns,
        id_base: u64,
        carry: &mut AttackColumns,
        spill_bound: Option<u32>,
    ) {
        debug_assert!(shard.is_sorted_by_start_id(), "shard not in (start, id) order");
        let split = match spill_bound {
            Some(b) => shard.start_secs.partition_point(|&s| s < b),
            None => shard.len(),
        };
        let old_carry = std::mem::replace(carry, AttackColumns::new());
        let mut lo = 0usize;
        for c in 0..old_carry.len() {
            // First shard row ordered after this carry row: shard rows
            // with an equal start have larger (rebased) ids.
            let s = old_carry.start_secs[c];
            let pos = lo + shard.start_secs[lo..split].partition_point(|&x| x < s);
            self.append_range_rebased(&shard, lo, pos, id_base);
            // Carry rows were rebased when they were held back.
            self.push_row_rebased(&old_carry, c, 0);
            lo = pos;
        }
        self.append_range_rebased(&shard, lo, split, id_base);
        for i in split..shard.len() {
            if let Some(b) = spill_bound {
                debug_assert!(
                    shard.start_secs[i] >= b,
                    "spill split must be a sorted suffix"
                );
            }
            carry.push_row_rebased(&shard, i, id_base);
        }
    }

    /// Sort rows by `(start, id)` — the population's canonical order.
    /// Ids are unique, so the packed `start << 32 | id` key makes an
    /// unstable sort deterministic. One `u32` permutation plus one
    /// column-sized scratch buffer at a time; never a row-wise struct
    /// sort.
    pub fn sort_by_start_id(&mut self) {
        let n = self.len();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_unstable_by_key(|&i| {
            ((self.start_secs[i as usize] as u64) << 32) | self.id[i as usize] as u64
        });
        if perm.windows(2).all(|w| w[0] < w[1]) {
            return; // already sorted — skip the gather entirely
        }
        gather(&mut self.id, &perm);
        gather(&mut self.class, &perm);
        gather(&mut self.vector, &perm);
        gather(&mut self.start_secs, &perm);
        gather(&mut self.duration_secs, &perm);
        gather(&mut self.target_asn, &perm);
        gather(&mut self.pps, &perm);
        gather(&mut self.bps, &perm);
        gather(&mut self.reflector_count, &perm);
        gather(&mut self.spoof_space_fraction, &perm);
        gather(&mut self.campaign, &perm);
        gather_targets(&mut self.target_offsets, &mut self.target_arena, &perm);
    }

    /// Drop the growth slack every column accumulated while being
    /// appended to (large buffers shrink in place via `mremap`; this
    /// never copies the population wholesale).
    pub fn shrink_to_fit(&mut self) {
        self.id.shrink_to_fit();
        self.class.shrink_to_fit();
        self.vector.shrink_to_fit();
        self.start_secs.shrink_to_fit();
        self.duration_secs.shrink_to_fit();
        self.target_asn.shrink_to_fit();
        self.pps.shrink_to_fit();
        self.bps.shrink_to_fit();
        self.reflector_count.shrink_to_fit();
        self.spoof_space_fraction.shrink_to_fit();
        self.campaign.shrink_to_fit();
        self.target_offsets.shrink_to_fit();
        self.target_arena.shrink_to_fit();
    }

    /// Heap bytes currently held by the columns (their capacities).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.id.capacity() * size_of::<u32>()
            + self.class.capacity() * size_of::<AttackClass>()
            + self.vector.capacity() * size_of::<AttackVector>()
            + self.start_secs.capacity() * size_of::<u32>()
            + self.duration_secs.capacity() * size_of::<u32>()
            + self.target_asn.capacity() * size_of::<Asn>()
            + self.pps.capacity() * size_of::<f64>()
            + self.bps.capacity() * size_of::<f64>()
            + self.reflector_count.capacity() * size_of::<u32>()
            + self.spoof_space_fraction.capacity() * size_of::<f64>()
            + self.campaign.capacity() * size_of::<u32>()
            + self.target_offsets.capacity() * size_of::<u32>()
            + self.target_arena.capacity() * size_of::<Ipv4>()
    }
}

/// One observatory's output stream in struct-of-arrays layout: what
/// one vantage point believes it saw, one row per inferred attack
/// (ground-truth id, first-seen instant, attributed targets), again
/// with a shared target arena. Observation counts track the attack
/// population (~0.8 rows/attack at default coverage), so keeping these
/// columnar is what lets the observe stage fit inside the generation
/// stage's high-water mark at 10 M+ attacks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationColumns {
    pub attack_id: Vec<u64>,
    pub start: Vec<i64>,
    /// Row `i` owns `target_arena[target_offsets[i]..target_offsets[i+1]]`.
    pub target_offsets: Vec<u32>,
    pub target_arena: Vec<Ipv4>,
}

impl Default for ObservationColumns {
    fn default() -> ObservationColumns {
        ObservationColumns::new()
    }
}

/// Borrowed view of one observation row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedRef<'a> {
    pub attack_id: AttackId,
    pub start: SimTime,
    pub targets: &'a [Ipv4],
}

impl<'a> ObservedRef<'a> {
    /// The (day, target) tuples this observation contributes (§7). The
    /// iterator borrows the arena, not the view, so
    /// `cols.iter().flat_map(ObservedRef::target_tuples)` compiles.
    pub fn target_tuples(self) -> impl Iterator<Item = (i64, Ipv4)> + 'a {
        let day = self.start.day_index();
        self.targets.iter().map(move |&ip| (day, ip))
    }

    /// Study week of the observation.
    pub fn week(&self) -> i64 {
        self.start.week_index()
    }
}

impl ObservationColumns {
    pub fn new() -> ObservationColumns {
        ObservationColumns {
            attack_id: Vec::new(),
            start: Vec::new(),
            target_offsets: vec![0],
            target_arena: Vec::new(),
        }
    }

    /// Empty columns with room for `rows` rows holding `targets`
    /// targets in all.
    pub fn with_capacity(rows: usize, targets: usize) -> ObservationColumns {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        ObservationColumns {
            attack_id: Vec::with_capacity(rows),
            start: Vec::with_capacity(rows),
            target_offsets: offsets,
            target_arena: Vec::with_capacity(targets),
        }
    }

    pub fn len(&self) -> usize {
        self.attack_id.len()
    }

    /// Drop every row, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.attack_id.clear();
        self.start.clear();
        self.target_offsets.truncate(1);
        self.target_arena.clear();
    }

    pub fn is_empty(&self) -> bool {
        self.attack_id.is_empty()
    }

    /// Append one complete observation row.
    pub fn push_row(&mut self, attack_id: AttackId, start: SimTime, targets: &[Ipv4]) {
        self.begin_row(attack_id, start);
        self.target_arena.extend_from_slice(targets);
        self.commit_row();
    }

    /// Start a row whose targets will be pushed incrementally with
    /// [`ObservationColumns::push_target`]; finish it with
    /// [`ObservationColumns::commit_row`] or abandon it with
    /// [`ObservationColumns::rollback_row`]. Lets subset observers
    /// (e.g. Akamai clipping to protected space) filter targets
    /// straight into the arena without a scratch `Vec`.
    pub fn begin_row(&mut self, attack_id: AttackId, start: SimTime) {
        self.attack_id.push(attack_id.0);
        self.start.push(start.0);
    }

    pub fn push_target(&mut self, ip: Ipv4) {
        self.target_arena.push(ip);
    }

    pub fn commit_row(&mut self) {
        let end = u32::try_from(self.target_arena.len())
            .expect("observation target arena exceeds u32 offsets");
        self.target_offsets.push(end);
    }

    /// Targets pushed since the last committed row — i.e. the size of
    /// the row currently being built.
    pub fn pending_targets(&self) -> usize {
        let last = *self.target_offsets.last().expect("offsets never empty");
        self.target_arena.len() - last as usize
    }

    /// Abandon the row opened by the last [`ObservationColumns::begin_row`].
    pub fn rollback_row(&mut self) {
        self.attack_id.pop();
        self.start.pop();
        let last = *self.target_offsets.last().expect("offsets never empty");
        self.target_arena.truncate(last as usize);
    }

    /// Target slice of row `i`.
    pub fn targets(&self, i: usize) -> &[Ipv4] {
        &self.target_arena[self.target_offsets[i] as usize..self.target_offsets[i + 1] as usize]
    }

    pub fn get(&self, i: usize) -> ObservedRef<'_> {
        ObservedRef {
            attack_id: AttackId(self.attack_id[i]),
            start: SimTime(self.start[i]),
            targets: self.targets(i),
        }
    }

    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = ObservedRef<'_>> + ExactSizeIterator + Clone + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Append another stream, consuming it (shard merge).
    pub fn append(&mut self, other: ObservationColumns) {
        let base = self.target_arena.len() as u64;
        assert!(
            base + other.target_arena.len() as u64 <= u32::MAX as u64,
            "observation target arena exceeds u32 offsets"
        );
        self.attack_id.extend_from_slice(&other.attack_id);
        self.start.extend_from_slice(&other.start);
        self.target_offsets
            .extend(other.target_offsets[1..].iter().map(|&o| o + base as u32));
        self.target_arena.extend_from_slice(&other.target_arena);
    }

    /// Count observed attacks per study week (the §5 aggregation) — a
    /// single branch-light pass over the dense start column.
    pub fn weekly_counts(&self) -> Vec<f64> {
        let mut out = vec![0.0; simcore::STUDY_WEEKS];
        for &start in &self.start {
            let w = SimTime(start).week_index();
            if (0..simcore::STUDY_WEEKS as i64).contains(&w) {
                out[w as usize] += 1.0;
            }
        }
        out
    }

    /// Distinct (day, target IP) tuples of the stream (§7) — one linear
    /// scan over the arena, then sort + dedup.
    pub fn distinct_target_tuples(&self) -> Vec<(i64, Ipv4)> {
        let mut tuples: Vec<(i64, Ipv4)> = Vec::with_capacity(self.target_arena.len());
        for i in 0..self.len() {
            let day = SimTime(self.start[i]).day_index();
            for &ip in self.targets(i) {
                tuples.push((day, ip));
            }
        }
        tuples.sort_unstable();
        tuples.dedup();
        tuples
    }

    /// Drop accumulated growth slack (see
    /// [`AttackColumns::shrink_to_fit`]).
    pub fn shrink_to_fit(&mut self) {
        self.attack_id.shrink_to_fit();
        self.start.shrink_to_fit();
        self.target_offsets.shrink_to_fit();
        self.target_arena.shrink_to_fit();
    }
}

/// Out-of-place permutation gather for one column: `col[k] = col[perm[k]]`.
fn gather<T: Copy>(col: &mut Vec<T>, perm: &[u32]) {
    let out: Vec<T> = perm.iter().map(|&i| col[i as usize]).collect();
    *col = out;
}

/// [`gather`] for a target arena: row `k` of the result owns the
/// targets row `perm[k]` owned, and the offsets are rebuilt to match.
fn gather_targets(offsets: &mut Vec<u32>, arena: &mut Vec<Ipv4>, perm: &[u32]) {
    let mut out = Vec::with_capacity(arena.len());
    let mut out_offsets = Vec::with_capacity(perm.len() + 1);
    out_offsets.push(0u32);
    for &i in perm {
        let i = i as usize;
        out.extend_from_slice(&arena[offsets[i] as usize..offsets[i + 1] as usize]);
        out_offsets.push(out.len() as u32);
    }
    *arena = out;
    *offsets = out_offsets;
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::AmpVector;

    fn sample_attacks() -> [AttackRef<'static>; 3] {
        [
            AttackRef {
                id: AttackId(0),
                class: AttackClass::DirectPathSpoofed,
                vector: AttackVector::SynFlood,
                start: SimTime(5_000),
                duration_secs: 600,
                targets: &[Ipv4(0x0A00_0001)],
                target_asn: Asn(65001),
                pps: 120_000.0,
                bps: 4.0e8,
                reflector_count: None,
                spoof_space_fraction: 0.85,
                campaign: None,
            },
            AttackRef {
                id: AttackId(1),
                class: AttackClass::ReflectionAmplification,
                vector: AttackVector::Amplification(AmpVector::Ntp),
                start: SimTime(1_000),
                duration_secs: 1_800,
                targets: &[Ipv4(0x0B00_0001), Ipv4(0x0B00_0002), Ipv4(0x0B00_0003)],
                target_asn: Asn(65002),
                pps: 50_000.0,
                bps: 4.0e9,
                reflector_count: Some(800),
                spoof_space_fraction: 1.0,
                campaign: Some(3),
            },
            AttackRef {
                id: AttackId(2),
                class: AttackClass::DirectPathNonSpoofed,
                vector: AttackVector::HttpFlood,
                start: SimTime(1_000),
                duration_secs: 60,
                targets: &[Ipv4(0x0C00_0001)],
                target_asn: Asn(65003),
                pps: 9_000.0,
                bps: 3.0e7,
                reflector_count: None,
                spoof_space_fraction: 0.0,
                campaign: None,
            },
        ]
    }

    /// Columns holding `attacks`, pushed in order.
    fn columns(attacks: &[AttackRef<'_>]) -> AttackColumns {
        let mut cols = AttackColumns::new();
        for &a in attacks {
            cols.push(a);
        }
        cols
    }

    /// Every row of `cols` as a view, for whole-population comparisons.
    fn rows(cols: &AttackColumns) -> Vec<AttackRef<'_>> {
        cols.iter().collect()
    }

    /// A two-address NTP carpet.
    fn ntp_carpet() -> AttackRef<'static> {
        AttackRef {
            id: AttackId(1),
            class: AttackClass::ReflectionAmplification,
            vector: AttackVector::Amplification(AmpVector::Ntp),
            start: SimTime(1000),
            duration_secs: 600,
            targets: &[Ipv4(0x0102_0304), Ipv4(0x0102_0305)],
            target_asn: Asn(16276),
            pps: 50_000.0,
            bps: 4e9,
            reflector_count: Some(800),
            spoof_space_fraction: 1.0,
            campaign: None,
        }
    }

    #[test]
    fn derived_quantities() {
        let a = ntp_carpet();
        assert_eq!(a.end(), SimTime(1600));
        assert_eq!(a.primary_target(), Ipv4::new(1, 2, 3, 4));
        assert!(a.is_carpet_bombing());
        assert_eq!(a.pps_per_target(), 25_000.0);
        assert_eq!(a.total_packets(), 30_000_000.0);
    }

    #[test]
    fn single_target_not_carpet() {
        let mut a = ntp_carpet();
        a.targets = &a.targets[..1];
        assert!(!a.is_carpet_bombing());
        assert_eq!(a.pps_per_target(), a.pps);
    }

    #[test]
    fn round_trips_attacks_exactly() {
        let attacks = sample_attacks();
        let cols = columns(&attacks);
        assert_eq!(cols.len(), 3);
        assert_eq!(rows(&cols), attacks);
        for (a, r) in attacks.iter().zip(cols.iter()) {
            assert_eq!(a.end(), r.end());
            assert_eq!(a.is_carpet_bombing(), r.is_carpet_bombing());
            assert_eq!(a.pps_per_target(), r.pps_per_target());
            assert_eq!(a.total_packets(), r.total_packets());
            assert_eq!(a.primary_target(), r.primary_target());
        }
    }

    #[test]
    fn arena_ranges_are_contiguous() {
        let cols = columns(&sample_attacks());
        assert_eq!(cols.target_offsets, vec![0, 1, 4, 5]);
        assert_eq!(cols.target_arena.len(), 5);
        assert_eq!(cols.targets(1).len(), 3);
    }

    #[test]
    fn sort_matches_struct_sort() {
        let mut attacks = sample_attacks();
        let mut cols = columns(&attacks);
        attacks.sort_by_key(|a| (a.start, a.id));
        cols.sort_by_start_id();
        assert_eq!(rows(&cols), attacks);
        // Idempotent (hits the already-sorted fast path).
        let before = cols.clone();
        cols.sort_by_start_id();
        assert_eq!(cols, before);
    }

    #[test]
    fn carry_merge_matches_concat_and_sort() {
        // Synthesize three "weeks" of 2000 s with rows spilling up to
        // 300 s past each boundary (like companion attacks), exactly
        // the shape `generate_study_on` feeds the merge. Every shard
        // has dense local ids in generation order.
        let template = sample_attacks()[0];
        // Row `id`'s one target, borrowed by every shard's row `id`.
        let ips: Vec<Ipv4> = (0..40).map(|id| Ipv4(0x0A00_0000 + id)).collect();
        let row = |id: u64, start: i64| AttackRef {
            id: AttackId(id),
            start: SimTime(start),
            targets: &ips[id as usize..=id as usize],
            ..template
        };
        let mut rng = 0x9E37_79B9u64;
        let mut next = move |m: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        let mut shard_rows = |week: i64, n: u64| -> Vec<AttackRef<'_>> {
            (0..n)
                .map(|i| {
                    // ~1 in 6 rows spills past the week boundary.
                    let off = next(2400) as i64;
                    row(i, week * 2000 + off.min(2000 - 1) + if off >= 2000 { 300 } else { 0 })
                })
                .collect()
        };
        let shards: Vec<Vec<AttackRef>> = (0..3).map(|w| shard_rows(w, 40)).collect();

        // Reference: concatenate with globally rebased ids, then sort.
        let mut reference = AttackColumns::new();
        let mut base = 0u64;
        for shard in &shards {
            for &a in shard {
                reference.push(AttackRef {
                    id: AttackId(base + a.id.0),
                    ..a
                });
            }
            base += shard.len() as u64;
        }
        reference.sort_by_start_id();

        // Streamed: sort each shard, merge with the boundary carry.
        let mut out = AttackColumns::new();
        let mut carry = AttackColumns::new();
        let mut assigned = 0u64;
        for (w, shard) in shards.iter().enumerate() {
            let mut cols = columns(shard);
            cols.sort_by_start_id();
            let bound = (w + 1 < shards.len()).then(|| (w as u32 + 1) * 2000);
            out.merge_sorted_shard(cols, assigned, &mut carry, bound);
            assigned += shard.len() as u64;
        }
        assert!(carry.is_empty(), "final shard must drain the carry");
        assert!(out.is_sorted_by_start_id());
        assert_eq!(out, reference);
    }

    #[test]
    fn carry_merge_handles_empty_and_single_shards() {
        let mut sorted = columns(&sample_attacks());
        sorted.sort_by_start_id();

        // One shard, no bound: plain append.
        let mut out = AttackColumns::new();
        let mut carry = AttackColumns::new();
        out.merge_sorted_shard(sorted.clone(), 0, &mut carry, None);
        assert!(carry.is_empty());
        assert_eq!(out, sorted);

        // An empty middle shard forwards the carry intact.
        let mut out = AttackColumns::new();
        let mut carry = AttackColumns::new();
        out.merge_sorted_shard(sorted.clone(), 0, &mut carry, Some(2_000));
        assert_eq!(carry.len(), 1, "the start=5000 row spills");
        out.merge_sorted_shard(AttackColumns::new(), 3, &mut carry, Some(10_000));
        assert!(carry.is_empty(), "carry rows below the bound drain");
        out.merge_sorted_shard(AttackColumns::new(), 3, &mut carry, None);
        assert_eq!(out, sorted);
    }

    #[test]
    fn iterator_contracts() {
        let cols = columns(&sample_attacks());
        assert_eq!(cols.iter().len(), 3);
        let ids: Vec<u64> = cols.iter().map(|a| a.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let rev: Vec<u64> = cols.iter().rev().map(|a| a.id.0).collect();
        assert_eq!(rev, vec![2, 1, 0]);
        let stepped: Vec<u64> = cols.iter().step_by(2).map(|a| a.id.0).collect();
        assert_eq!(stepped, vec![0, 2]);
    }

    #[test]
    fn serde_round_trip() {
        let cols = columns(&sample_attacks());
        let json = serde_json::to_string(&cols).expect("serialize");
        let back: AttackColumns = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, cols);

        let obs = observed(&[(7, -3, vec![1, 2])]);
        let json = serde_json::to_string(&obs).expect("serialize");
        let back: ObservationColumns = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, obs);
    }

    #[test]
    fn resident_bytes_tracks_columns() {
        let cols = columns(&sample_attacks());
        let b = cols.resident_bytes();
        use std::mem::size_of;
        let per_row = 4 * size_of::<u32>()          // id, start, duration, reflector_count
            + size_of::<AttackClass>()
            + size_of::<AttackVector>()
            + size_of::<Asn>()
            + 3 * size_of::<f64>()                  // pps, bps, spoof fraction
            + size_of::<u32>();                     // campaign
        let floor = 3 * per_row + 4 * size_of::<u32>() + 5 * size_of::<Ipv4>();
        // Capacities may exceed the floor, never undercut it.
        assert!(b >= floor, "resident {b} below the {floor} floor");
        assert!(AttackColumns::new().resident_bytes() >= 4);
    }

    /// One observation record as `(attack id, start secs, target ips)`.
    type Row = (u64, i64, Vec<u32>);

    fn observed(rows: &[Row]) -> ObservationColumns {
        let mut cols = ObservationColumns::new();
        for (id, start, ips) in rows {
            let ips: Vec<Ipv4> = ips.iter().map(|&i| Ipv4(i)).collect();
            cols.push_row(AttackId(*id), SimTime(*start), &ips);
        }
        cols
    }

    fn read_back(cols: &ObservationColumns) -> Vec<Row> {
        let ips = |o: ObservedRef<'_>| o.targets.iter().map(|ip| ip.0).collect();
        cols.iter()
            .map(|o| (o.attack_id.0, o.start.0, ips(o)))
            .collect()
    }

    /// A start tie, a pre-study start and an empty target list.
    fn sample_observed() -> Vec<Row> {
        vec![
            (11, 604_800 * 3 + 17, vec![9, 8]),
            (5, -50, vec![9]),
            (u64::MAX - 4, 604_800 * 3 + 17, vec![]),
        ]
    }

    #[test]
    fn observations_round_trip_and_project() {
        let cols = observed(&sample_observed());
        assert_eq!(read_back(&cols), sample_observed());
        let counts = cols.weekly_counts();
        assert_eq!(counts.len(), simcore::STUDY_WEEKS);
        assert_eq!(counts[3], 2.0);
        assert_eq!(counts.iter().sum::<f64>(), 2.0, "pre-study row dropped");
        assert_eq!(
            cols.distinct_target_tuples(),
            vec![(-1, Ipv4(9)), (21, Ipv4(8)), (21, Ipv4(9))]
        );
        let weeks: Vec<i64> = cols.iter().map(|o| o.week()).collect();
        assert_eq!(weeks, vec![3, -1, 3]);
        let tuples: Vec<(i64, Ipv4)> = cols.iter().flat_map(ObservedRef::target_tuples).collect();
        assert_eq!(tuples, vec![(21, Ipv4(9)), (21, Ipv4(8)), (-1, Ipv4(9))]);
    }

    #[test]
    fn observation_projections_bucket_and_dedupe() {
        let day = |d: i64| d * 86_400;
        let cols = observed(&[
            (0, day(0), vec![1]),
            (1, day(6), vec![1]),
            (2, day(7), vec![1]),
            (3, day(14), vec![1]),
            (4, day(-5), vec![1]),
        ]);
        assert_eq!(cols.weekly_counts()[..4], [2.0, 1.0, 1.0, 0.0]);
        assert_eq!(cols.weekly_counts().iter().sum::<f64>(), 4.0);

        let cols = observed(&[
            (0, day(1), vec![9, 9, 8]),
            (1, day(1), vec![9]),
            (2, day(2), vec![9]),
        ]);
        assert_eq!(
            cols.distinct_target_tuples(),
            vec![(1, Ipv4(8)), (1, Ipv4(9)), (2, Ipv4(9))]
        );
    }

    #[test]
    fn observation_row_building_and_rollback() {
        let mut cols = ObservationColumns::new();
        cols.begin_row(AttackId(1), SimTime(10));
        cols.push_target(Ipv4(1));
        cols.push_target(Ipv4(2));
        cols.commit_row();
        cols.begin_row(AttackId(2), SimTime(20));
        cols.push_target(Ipv4(3));
        cols.rollback_row();
        cols.push_row(AttackId(3), SimTime(30), &[Ipv4(4)]);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.targets(0), &[Ipv4(1), Ipv4(2)]);
        assert_eq!(cols.get(1).attack_id, AttackId(3));
        assert_eq!(cols.targets(1), &[Ipv4(4)]);
        assert_eq!(cols.target_arena.len(), 3, "rolled-back targets evicted");
        cols.clear();
        assert_eq!(cols, ObservationColumns::new());
        cols.push_row(AttackId(4), SimTime(40), &[Ipv4(5)]);
        assert_eq!(cols.targets(0), &[Ipv4(5)]);
    }

    #[test]
    fn observation_append_keeps_row_order() {
        let sample = sample_observed();
        let mut a = observed(&sample[..1]);
        a.append(observed(&sample[1..]));
        assert_eq!(read_back(&a), sample);
    }

    #[test]
    #[should_panic(expected = "reflectors on a non-amplification vector")]
    fn inconsistent_reflectors_rejected() {
        let mut a = sample_attacks()[0];
        a.reflector_count = Some(10);
        AttackColumns::new().push(a);
    }

    #[test]
    #[should_panic(expected = "start outside the u32-seconds column")]
    fn negative_start_rejected() {
        let mut a = sample_attacks()[0];
        a.start = SimTime(-1);
        AttackColumns::new().push(a);
    }

    #[test]
    fn amp_vector_without_reflectors_round_trips() {
        let mut a = sample_attacks()[1];
        a.reflector_count = None;
        let cols = columns(&[a]);
        assert_eq!(cols.get(0).reflector_count, None);
        assert_eq!(cols.get(0), a);
    }
}
