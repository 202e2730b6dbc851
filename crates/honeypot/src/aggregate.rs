//! Cross-sensor and carpet-bombing aggregation.
//!
//! Two algorithms from the paper:
//!
//! * **CCC cross-sensor aggregation** (§5): attacks seen at multiple
//!   sensors of one platform are merged into a single event —
//!   implemented over packet-level [`HoneypotFlow`]s.
//! * **Appendix-I carpet-bombing reconstruction**: per-victim events are
//!   aggregated under "the longest BGP-routed prefix (from /11 to /28)
//!   that covers the attack", *without* crossing RIR allocation
//!   boundaries — so an attack sweeping many allocations of one AS is
//!   (deliberately, as in the paper) recorded as many attacks.
//!
//! The carpet pass comes in two halves. [`Detections::new`] does what
//! no merge gap changes: it resolves each row's carpet prefix and puts
//! the rows in carpet order. [`Detections::merge`] is one linear walk
//! at a given gap. The pipeline stores a honeypot's detections in that
//! order, so a carpet-gap point resolves no prefix and sorts nothing.
//!
//! [`Detections::new`] resolves prefixes through a flat interval table
//! built from the plan, one binary search per row instead of two trie
//! walks, and orders the rows with one sort of packed integer keys.

use crate::detector::HoneypotFlow;
use attackgen::{AttackId, ObservationColumns};
use netmodel::wire::{get_u32s, get_u8s, put_u32s, put_u8s, to_bytes, Reader, WireResult, Writer};
use netmodel::{InternetPlan, Ipv4, Prefix};
use simcore::SimTime;
use std::collections::BTreeMap;

/// Prefix-length search range of the Appendix-I algorithm.
pub const CARPET_MIN_PREFIX: u8 = 11;
pub const CARPET_MAX_PREFIX: u8 = 28;

/// A cross-sensor event: one attack as reconstructed by a platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoneypotEvent {
    pub victim: Ipv4,
    pub first_seen: SimTime,
    pub last_seen: SimTime,
    pub packets: u64,
    pub sensor_count: usize,
}

/// Merge per-sensor flows into per-victim events: flows with the same
/// victim whose active periods are within `merge_gap_secs` of each other
/// become one event (the CCC processing shared across Hopscotch and
/// AmpPot, §5).
pub fn merge_sensor_flows(flows: &[HoneypotFlow], merge_gap_secs: i64) -> Vec<HoneypotEvent> {
    let mut by_victim: BTreeMap<Ipv4, Vec<&HoneypotFlow>> = BTreeMap::new();
    for f in flows {
        by_victim.entry(f.victim).or_default().push(f);
    }
    let mut out = Vec::new();
    for (victim, mut group) in by_victim {
        group.sort_by_key(|f| f.first_seen);
        let mut current: Option<(SimTime, SimTime, u64, Vec<Ipv4>)> = None;
        for f in group {
            match current.as_mut() {
                Some((_, last, packets, sensors)) if f.first_seen.0 <= last.0 + merge_gap_secs => {
                    *last = (*last).max(f.last_seen);
                    *packets += f.packets;
                    if !sensors.contains(&f.key.dst) {
                        sensors.push(f.key.dst);
                    }
                }
                _ => {
                    if let Some((first, last, packets, sensors)) = current.take() {
                        out.push(HoneypotEvent {
                            victim,
                            first_seen: first,
                            last_seen: last,
                            packets,
                            sensor_count: sensors.len(),
                        });
                    }
                    current = Some((f.first_seen, f.last_seen, f.packets, vec![f.key.dst]));
                }
            }
        }
        if let Some((first, last, packets, sensors)) = current {
            out.push(HoneypotEvent {
                victim,
                first_seen: first,
                last_seen: last,
                packets,
                sensor_count: sensors.len(),
            });
        }
    }
    out.sort_by_key(|e| (e.first_seen, e.victim));
    out
}

/// Find the longest BGP-routed prefix in [/11, /28] covering the
/// address, clipped so it never crosses the address's RIR allocation
/// block (Appendix I).
pub fn carpet_prefix(plan: &InternetPlan, ip: Ipv4) -> Option<Prefix> {
    let routed = plan.routed_prefix_of(ip)?;
    let alloc = plan.allocation_of(ip)?;
    let len = routed
        .len()
        .clamp(CARPET_MIN_PREFIX, CARPET_MAX_PREFIX)
        // Never wider than the allocation block.
        .max(alloc.block.len());
    Some(Prefix::new(ip, len))
}

/// [`carpet_prefix`] for every address, as a flat interval table. The
/// cuts are every start and every end of a routed prefix and of an
/// allocation, so all addresses of one interval lie in the same routed
/// prefixes and the same allocations, and [`carpet_prefix`] gives each
/// of them the same length: the one it gives the interval's first
/// address, kept in `lens` (0 for none).
struct CarpetTable {
    /// First address of each interval, ascending from 0.
    starts: Vec<u32>,
    lens: Vec<u8>,
}

impl CarpetTable {
    fn new(plan: &InternetPlan) -> CarpetTable {
        let routed = plan.routed.iter().map(|(p, _)| p);
        let allocated = plan.allocations.iter().map(|(p, _)| p);
        let mut cuts: Vec<u64> = routed
            .chain(allocated)
            .flat_map(|p| [u64::from(p.base().0), u64::from(p.last().0) + 1])
            .chain([0])
            .filter(|&cut| cut <= u64::from(u32::MAX))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let starts: Vec<u32> = cuts.into_iter().map(|cut| cut as u32).collect();
        let lens = starts
            .iter()
            .map(|&start| carpet_prefix(plan, Ipv4(start)).map_or(0, Prefix::len))
            .collect();
        CarpetTable { starts, lens }
    }

    /// The carpet prefix of `ip`, as [`carpet_prefix`] gives it.
    fn lookup(&self, ip: Ipv4) -> Option<Prefix> {
        let interval = self.starts.partition_point(|&start| start <= ip.0) - 1;
        let len = self.lens[interval];
        (len > 0).then(|| Prefix::new(ip, len))
    }
}

/// Appendix-I reconstruction over an observation stream: events whose
/// first targets share a carpet prefix ([`carpet_prefix`]: same routed
/// block, same allocation) merge while each starts within
/// `merge_gap_secs` of the latest event merged before it. Events whose
/// first target has no routed prefix stay singletons.
///
/// The two halves of [`Detections`]: the gap-free carpet order, then
/// the merge at `merge_gap_secs`. The pipeline stores the first half
/// and runs only the second per gap.
pub fn reconstruct_carpet_columns(
    plan: &InternetPlan,
    observed: &ObservationColumns,
    merge_gap_secs: i64,
) -> ObservationColumns {
    Detections::new(plan, observed).merge(merge_gap_secs)
}

/// A honeypot's detections in carpet order: the half of the
/// Appendix-I pass that no merge gap changes, computed once per
/// detections key, so a carpet-gap point runs only
/// [`Detections::merge`] over it.
///
/// `rows` holds the detections gathered into `(carpet prefix, start,
/// input index)` order. The two lanes are indexed by that position:
/// `joins[k]` says row `k` has a routed carpet prefix equal to row
/// `k - 1`'s, and `emit` lists every position in `(start, attack id,
/// position)` order, the order merged events are written in.
#[derive(Debug, Clone, PartialEq)]
pub struct Detections {
    rows: ObservationColumns,
    joins: Vec<bool>,
    emit: Vec<u32>,
}

impl Detections {
    /// Put `observed` in carpet order: resolve each row's carpet prefix
    /// (of its first target), sort by `(prefix, start, index)`, gather
    /// the rows, and derive both lanes.
    ///
    /// The sort is one sort of `u128` keys that pack, from high bits to
    /// low, the prefix (0 for none, else `base << 6 | len`, so none sorts
    /// first and prefixes by `(base, len)`), the row's rank in
    /// `(start, index)` order, and its index. `emit` is the input rows
    /// sorted by `(start, attack id, position)` and mapped to their
    /// positions. Pipeline rows arrive sorted by `(start, attack id)`,
    /// one per attack, so both the rank sort and the `emit` sort find
    /// their input already in order and take one pass there.
    pub fn new(plan: &InternetPlan, observed: &ObservationColumns) -> Detections {
        let n = observed.len();
        let (start, attack_id) = (&observed.start, &observed.attack_id);
        let table = CarpetTable::new(plan);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (start[i as usize], i));
        let mut rank = vec![0u32; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let mut keys: Vec<u128> = (0..n)
            .map(|i| {
                let prefix = table
                    .lookup(observed.targets(i)[0])
                    .map_or(0, |p| u64::from(p.base().0) << 6 | u64::from(p.len()));
                u128::from(prefix) << 64 | u128::from(rank[i]) << 32 | i as u128
            })
            .collect();
        keys.sort_unstable();

        let mut rows = ObservationColumns::with_capacity(n, observed.target_arena.len());
        let mut joins = Vec::with_capacity(n);
        // `rank` is spent: its buffer becomes each row's carpet position.
        let mut position = rank;
        for (k, &key) in keys.iter().enumerate() {
            let i = key as u32 as usize;
            let row = observed.get(i);
            rows.push_row(row.attack_id, row.start, row.targets);
            let prefix = key >> 64;
            joins.push(k > 0 && prefix != 0 && keys[k - 1] >> 64 == prefix);
            position[i] = k as u32;
        }
        order.sort_unstable_by_key(|&i| {
            let i = i as usize;
            (start[i], attack_id[i], position[i])
        });
        let emit = order.into_iter().map(|i| position[i as usize]).collect();
        Detections { rows, joins, emit }
    }

    /// Does row `k` open an event at `merge_gap_secs`? It does unless it
    /// joins its predecessor's prefix and starts within the gap of it.
    fn opens(&self, k: usize, merge_gap_secs: i64) -> bool {
        let starts = &self.rows.start;
        !(self.joins[k] && starts[k].saturating_sub(starts[k - 1]) <= merge_gap_secs)
    }

    /// The merge, the half of the Appendix-I pass that reads the gap:
    /// one walk of `emit`. Each row that opens an event writes its id,
    /// start and targets, then appends the targets of the rows after
    /// it that do not open an event, skipping targets the event already
    /// holds (first-seen order; the opening row's own targets are kept
    /// as they are). The output is sorted by `(start, attack id)`, ties
    /// in merge order.
    ///
    /// Its four columns are allocated once, for every row and every
    /// target of the detections, and never grow or shrink, so each gap
    /// point of one honeypot allocates the same block sizes
    /// (DESIGN.md §9).
    pub fn merge(&self, merge_gap_secs: i64) -> ObservationColumns {
        let rows = &self.rows;
        let n = rows.len();
        let mut out = ObservationColumns::with_capacity(n, rows.target_arena.len());
        for k in self.emit.iter().map(|&k| k as usize) {
            if !self.opens(k, merge_gap_secs) {
                continue;
            }
            out.begin_row(AttackId(rows.attack_id[k]), SimTime(rows.start[k]));
            let event = out.target_arena.len();
            out.target_arena.extend_from_slice(rows.targets(k));
            for j in (k + 1..n).take_while(|&j| !self.opens(j, merge_gap_secs)) {
                for &t in rows.targets(j) {
                    if !out.target_arena[event..].contains(&t) {
                        out.push_target(t);
                    }
                }
            }
            out.commit_row();
        }
        out
    }

    /// Encode to the stage-store wire format (DESIGN.md §11): the rows'
    /// observation columns, then the `joins` lane (one byte per row)
    /// and the `emit` lane. Deterministic bytes for identical input.
    pub fn write_wire(&self, w: &mut Writer<'_>) {
        w.nested(|w| self.rows.write_wire(w));
        put_u8s(w, &self.joins, u8::from);
        put_u32s(w, &self.emit, |k| k);
    }

    /// The encoded detections in one buffer.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        to_bytes(|w| self.write_wire(w))
    }

    /// Decode a wire payload; `Err` (never a panic) on truncated or
    /// corrupt input, on a lane whose length is not the row count, on
    /// a row 0 marked as joining, and on an `emit` that is not a
    /// permutation of the row positions.
    pub fn from_wire_bytes(bytes: &[u8]) -> WireResult<Detections> {
        let mut r = Reader::new(bytes);
        let rows = ObservationColumns::from_wire_bytes(r.bytes()?)?;
        let joins = get_u8s(&mut r, |b| match b {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("joins byte {b} is neither 0 nor 1")),
        })?;
        let emit = get_u32s(&mut r, |k| k)?;
        r.finish()?;
        let n = rows.len();
        if joins.len() != n || emit.len() != n {
            return Err(format!(
                "carpet lanes disagree: {n} rows, {} joins, {} emits",
                joins.len(),
                emit.len()
            ));
        }
        if joins.first() == Some(&true) {
            return Err("row 0 is marked as joining".to_string());
        }
        let mut seen = vec![false; n];
        for &k in &emit {
            match seen.get_mut(k as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => return Err(format!("emit is not a permutation of 0..{n}: {k}")),
            }
        }
        Ok(Detections { rows, joins, emit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{AttackMode, HpFlowKey};
    use netmodel::NetScale;
    use simcore::SimRng;

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    /// Per-victim observation rows `(id, target, start)`.
    fn observed(rows: &[(u64, Ipv4, i64)]) -> ObservationColumns {
        let mut cols = ObservationColumns::new();
        for &(id, ip, t) in rows {
            cols.push_row(AttackId(id), SimTime(t), &[ip]);
        }
        cols
    }

    /// `(id, start, targets)` of every row, in order.
    fn read_back(cols: &ObservationColumns) -> Vec<(u64, i64, Vec<Ipv4>)> {
        cols.iter()
            .map(|o| (o.attack_id.0, o.start.0, o.targets.to_vec()))
            .collect()
    }

    fn flow(victim: u32, sensor: u32, first: i64, last: i64, packets: u64) -> HoneypotFlow {
        HoneypotFlow {
            key: HpFlowKey {
                src: Ipv4(victim),
                src_port: 0,
                dst: Ipv4(sensor),
                dst_port: 53,
            },
            victim: Ipv4(victim),
            first_seen: SimTime(first),
            last_seen: SimTime(last),
            packets,
            ports: [53].into_iter().collect(),
            mode: AttackMode::MonoProtocol,
        }
    }

    #[test]
    fn concurrent_flows_merge_across_sensors() {
        let flows = vec![
            flow(1, 100, 0, 500, 50),
            flow(1, 101, 100, 600, 40),
            flow(1, 102, 200, 550, 30),
        ];
        let events = merge_sensor_flows(&flows, 900);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.packets, 120);
        assert_eq!(e.sensor_count, 3);
        assert_eq!(e.first_seen, SimTime(0));
        assert_eq!(e.last_seen, SimTime(600));
    }

    #[test]
    fn distant_flows_stay_separate() {
        let flows = vec![flow(1, 100, 0, 500, 50), flow(1, 100, 10_000, 10_500, 40)];
        let events = merge_sensor_flows(&flows, 900);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn different_victims_never_merge() {
        let flows = vec![flow(1, 100, 0, 500, 50), flow(2, 100, 0, 500, 40)];
        let events = merge_sensor_flows(&flows, 900);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn same_sensor_counted_once() {
        let flows = vec![flow(1, 100, 0, 100, 10), flow(1, 100, 150, 300, 10)];
        let events = merge_sensor_flows(&flows, 900);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].sensor_count, 1);
    }

    #[test]
    fn carpet_prefix_respects_bounds() {
        let plan = plan();
        // Any routed target address yields a prefix within [/11, /28]
        // that stays inside its allocation.
        let rec = plan.registry.get(netmodel::Asn(16276)).unwrap();
        let ip = rec.prefixes[0].nth(5);
        let p = carpet_prefix(&plan, ip).unwrap();
        assert!((CARPET_MIN_PREFIX..=CARPET_MAX_PREFIX).contains(&p.len()));
        let alloc = plan.allocation_of(ip).unwrap();
        assert!(alloc.block.covers(p), "carpet prefix crosses allocation");
        assert!(p.contains(ip));
    }

    #[test]
    fn carpet_prefix_none_for_unrouted() {
        let plan = plan();
        assert_eq!(carpet_prefix(&plan, Ipv4::new(223, 255, 255, 1)), None);
    }

    /// The carpet table answers as `carpet_prefix` does at the first
    /// and last address of every interval, at random addresses and at
    /// random routed addresses, over four tiny plans and the paper plan.
    #[test]
    fn carpet_table_matches_carpet_prefix() {
        let tiny = (0..4).map(|seed| (NetScale::tiny(), seed));
        for (scale, seed) in tiny.chain([(NetScale::default(), 4)]) {
            let plan = InternetPlan::build(&scale, &mut SimRng::new(seed));
            let table = CarpetTable::new(&plan);
            let check = |ip: Ipv4| assert_eq!(table.lookup(ip), carpet_prefix(&plan, ip), "{ip}");
            let lasts = table.starts[1..]
                .iter()
                .map(|&next| next - 1)
                .chain([u32::MAX]);
            for (&first, last) in table.starts.iter().zip(lasts) {
                check(Ipv4(first));
                check(Ipv4(last));
            }
            let routed: Vec<Prefix> = plan.routed.iter().map(|(p, _)| p).collect();
            let mut rng = SimRng::new(seed);
            for _ in 0..10_000 {
                check(Ipv4(rng.next_u32()));
                let p = *rng.choose(&routed);
                check(p.nth(rng.u64_below(p.size())));
            }
        }
    }

    #[test]
    fn reconstruction_merges_same_prefix_events() {
        let plan = plan();
        let rec = plan.registry.get(netmodel::Asn(16276)).unwrap();
        let base = rec.prefixes[0].base();
        let rows = observed(&[
            (1, Ipv4(base.0 + 1), 0),
            (2, Ipv4(base.0 + 2), 60),
            (3, Ipv4(base.0 + 3), 120),
        ]);
        let merged = reconstruct_carpet_columns(&plan, &rows, 600);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.targets(0).len(), 3);
    }

    #[test]
    fn reconstruction_respects_allocation_boundaries() {
        let plan = plan();
        // Two victims in different allocations (different ASes) at the
        // same time: never merged, even if close in address space.
        let a = plan.registry.get(netmodel::Asn(16276)).unwrap().prefixes[0].nth(0);
        let b = plan.registry.get(netmodel::Asn(24940)).unwrap().prefixes[0].nth(0);
        let merged = reconstruct_carpet_columns(&plan, &observed(&[(1, a, 0), (2, b, 30)]), 600);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn reconstruction_respects_time_gap() {
        let plan = plan();
        let rec = plan.registry.get(netmodel::Asn(16276)).unwrap();
        let base = rec.prefixes[0].base();
        let rows = observed(&[(1, Ipv4(base.0 + 1), 0), (2, Ipv4(base.0 + 2), 10_000)]);
        let merged = reconstruct_carpet_columns(&plan, &rows, 600);
        assert_eq!(merged.len(), 2);
    }

    /// Only joining rows are deduped: an event's opening row keeps its
    /// own repeated targets, a joining row adds each target the event
    /// lacks once, and a joining row whose targets the event already
    /// holds adds nothing.
    #[test]
    fn reconstruction_dedups_joining_rows_only() {
        let plan = plan();
        let base = plan.registry.get(netmodel::Asn(16276)).unwrap().prefixes[0].base();
        let (a, b) = (Ipv4(base.0 + 1), Ipv4(base.0 + 2));
        let mut rows = ObservationColumns::new();
        rows.push_row(AttackId(1), SimTime(0), &[a, a]);
        rows.push_row(AttackId(2), SimTime(60), &[b, b]);
        rows.push_row(AttackId(3), SimTime(120), &[b, a]);
        assert_eq!(
            read_back(&reconstruct_carpet_columns(&plan, &rows, 600)),
            vec![(1, 0, vec![a, a, b])]
        );
    }

    #[test]
    fn reconstruction_keeps_earliest_identity_and_unions_targets() {
        let plan = plan();
        let base = plan.registry.get(netmodel::Asn(16276)).unwrap().prefixes[0].base();
        let b = |off: u32| Ipv4(base.0 + off);
        let other = plan.registry.get(netmodel::Asn(24940)).unwrap().prefixes[0].nth(0);
        // Same-prefix chains, a tie on (prefix, start) to exercise sort
        // stability, a foreign allocation, a time-gapped straggler, and
        // a duplicate target to exercise the union.
        let rows = observed(&[
            (4, b(2), 60),
            (1, b(1), 0),
            (2, b(2), 60),
            (3, b(3), 120),
            (5, other, 30),
            (6, b(9), 50_000),
        ]);
        assert_eq!(
            read_back(&reconstruct_carpet_columns(&plan, &rows, 600)),
            vec![
                (1, 0, vec![b(1), b(2), b(3)]),
                (5, 30, vec![other]),
                (6, 50_000, vec![b(9)]),
            ]
        );
    }

    /// Detections with joining rows, an unrouted row, a foreign
    /// allocation and an `emit` that is not the identity.
    fn sample_detections(plan: &InternetPlan) -> Detections {
        let base = plan.registry.get(netmodel::Asn(16276)).unwrap().prefixes[0].base();
        let b = |off: u32| Ipv4(base.0 + off);
        let other = plan.registry.get(netmodel::Asn(24940)).unwrap().prefixes[0].nth(0);
        let rows = observed(&[
            (4, b(2), 60),
            (1, b(1), 0),
            (7, Ipv4::new(223, 255, 255, 1), 10),
            (5, other, 30),
            (3, b(3), 120),
        ]);
        let ordered = Detections::new(plan, &rows);
        assert!(ordered.joins.contains(&true));
        assert!(ordered.emit.windows(2).any(|w| w[0] > w[1]));
        ordered
    }

    #[test]
    fn detections_wire_round_trip() {
        let plan = plan();
        let ordered = sample_detections(&plan);
        let bytes = ordered.to_wire_bytes();
        let back = Detections::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(back, ordered);
        assert_eq!(back.to_wire_bytes(), bytes);
        assert_eq!(back.merge(600), ordered.merge(600));
        let empty = Detections::new(&plan, &ObservationColumns::new());
        assert_eq!(Detections::from_wire_bytes(&empty.to_wire_bytes()), Ok(empty));
        // Byte flips reject or decode, never panic.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = Detections::from_wire_bytes(&bad);
        }
    }

    /// Lanes that would make the merge panic or lie are rejected: an
    /// `emit` that is not a permutation, a lane whose length is not the
    /// row count, a joining row 0, a lane byte that is not a boolean,
    /// and every truncation.
    #[test]
    fn detections_decode_rejects_structural_lies() {
        let plan = plan();
        let ordered = sample_detections(&plan);
        let lies: [(&str, fn(&mut Detections)); 6] = [
            ("repeated emit", |d| d.emit[1] = d.emit[0]),
            ("emit out of range", |d| d.emit[0] = d.rows.len() as u32),
            ("short joins", |d| {
                d.joins.pop();
            }),
            ("short emit", |d| {
                d.emit.pop();
            }),
            ("long joins", |d| d.joins.push(false)),
            ("joining row 0", |d| d.joins[0] = true),
        ];
        for (what, lie) in lies {
            let mut bad = ordered.clone();
            lie(&mut bad);
            assert!(Detections::from_wire_bytes(&bad.to_wire_bytes()).is_err(), "{what}");
        }
        let mut bytes = ordered.to_wire_bytes();
        for cut in 0..bytes.len() {
            assert!(Detections::from_wire_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let joins_at = bytes.len() - 8 - 4 * ordered.emit.len() - ordered.joins.len();
        bytes[joins_at] = 2;
        assert!(Detections::from_wire_bytes(&bytes).is_err(), "joins byte 2");
    }
}
