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

use crate::detector::HoneypotFlow;
use attackgen::{AttackId, ObservationColumns};
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

/// Appendix-I reconstruction over an observation stream: events whose
/// first targets share a carpet prefix ([`carpet_prefix`]: same routed
/// block, same allocation) merge while each starts within
/// `merge_gap_secs` of the latest event merged before it. Events whose
/// first target has no routed prefix stay singletons.
///
/// Row indices are sorted by `(prefix, start, index)` and each prefix's
/// run is walked in that order. A merged event starts as its earliest
/// row (id, start and targets) and appends each later row's targets
/// that it does not hold yet, in first-seen order. The output is sorted
/// by `(start, attack id)`, ties kept in merge order.
pub fn reconstruct_carpet_columns(
    plan: &InternetPlan,
    observed: &ObservationColumns,
    merge_gap_secs: i64,
) -> ObservationColumns {
    let n = observed.len();
    let mut keyed: Vec<(Option<Prefix>, u32)> = (0..n as u32)
        .map(|i| {
            (
                carpet_prefix(plan, observed.targets(i as usize)[0]),
                i,
            )
        })
        .collect();
    keyed.sort_unstable_by_key(|&(p, i)| (p, observed.start[i as usize], i));

    let mut out = ObservationColumns::with_capacity(n);
    let mut i = 0;
    while i < keyed.len() {
        let (prefix, first) = keyed[i];
        let fi = first as usize;
        out.begin_row(
            AttackId(observed.attack_id[fi]),
            SimTime(observed.start[fi]),
        );
        let row_base = out.target_arena.len();
        for &t in observed.targets(fi) {
            out.push_target(t);
        }
        let mut last_start = observed.start[fi];
        let mut j = i + 1;
        while j < keyed.len() {
            let (p2, next) = keyed[j];
            let ni = next as usize;
            let mergeable = prefix.is_some()
                && p2 == prefix
                && observed.start[ni] - last_start <= merge_gap_secs;
            if !mergeable {
                break;
            }
            for &t in observed.targets(ni) {
                if !out.target_arena[row_base..].contains(&t) {
                    out.push_target(t);
                }
            }
            last_start = observed.start[ni];
            j += 1;
        }
        out.commit_row();
        i = j;
    }
    out.sort_by_start_id();
    out
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
}
