//! Property-based tests for the honeypot detector and aggregation
//! chain.

use attackgen::{AttackId, ObservationColumns, PacketEvent};
use honeypot::{
    carpet_prefix, merge_sensor_flows, reconstruct_carpet_columns, HoneypotConfig, HoneypotDetector,
};
use netmodel::{AmpVector, Asn, InternetPlan, Ipv4, NetScale, Transport};
use proptest::prelude::*;
use simcore::{SimRng, SimTime};

fn plan() -> InternetPlan {
    let mut rng = SimRng::new(100);
    InternetPlan::build(&NetScale::tiny(), &mut rng)
}

/// Three allocations of distinct ASes in the tiny plan.
const ASNS: [Asn; 3] = [Asn(16276), Asn(24940), Asn(16509)];

/// One observation row: `(attack id, start secs, targets)`.
type Row = (u64, i64, Vec<Ipv4>);

fn columns(rows: &[Row]) -> ObservationColumns {
    let mut cols = ObservationColumns::new();
    for (id, start, targets) in rows {
        cols.push_row(AttackId(*id), SimTime(*start), targets);
    }
    cols
}

fn read_back(cols: &ObservationColumns) -> Vec<Row> {
    cols.iter()
        .map(|o| (o.attack_id.0, o.start.0, o.targets.to_vec()))
        .collect()
}

/// Naive Appendix-I reference. Rows are taken in (carpet prefix of the
/// first target, start, input position) order; a row joins the event
/// before it when both share a routed carpet prefix and it starts at
/// most `gap` after the row before it. An event starts as its first
/// row and appends each joining row's targets that it does not hold
/// yet; events are listed by (start, id).
fn reference_carpet(plan: &InternetPlan, rows: &[Row], gap: i64) -> Vec<Row> {
    let prefix = |r: &Row| carpet_prefix(plan, r.2[0]);
    let mut order: Vec<&Row> = rows.iter().collect();
    order.sort_by_key(|r| (prefix(r), r.1)); // stable: input position breaks ties
    let mut events: Vec<Row> = Vec::new();
    for (k, r) in order.iter().enumerate() {
        let joins = k > 0
            && prefix(r).is_some()
            && prefix(order[k - 1]) == prefix(r)
            && r.1 - order[k - 1].1 <= gap;
        if !joins {
            events.push((*r).clone());
            continue;
        }
        let event = events.last_mut().expect("the first row opens an event");
        for t in &r.2 {
            if !event.2.contains(t) {
                event.2.push(*t);
            }
        }
    }
    events.sort_by_key(|e| (e.1, e.0));
    events
}

fn request(t: i64, victim: u32, sensor: Ipv4, port: u16, src_port: u16) -> PacketEvent {
    PacketEvent {
        time: SimTime(t),
        src: Ipv4(victim),
        src_port,
        dst: sensor,
        dst_port: port,
        transport: Transport::Udp,
        size_bytes: 64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Detected flows always satisfy the platform thresholds, and their
    /// packet totals never exceed what was ingested at sensors.
    #[test]
    fn flows_respect_thresholds(
        bursts in proptest::collection::vec(
            // (victim, sensor_idx, start, count, spacing)
            (1u32..40, 0usize..5, 0i64..50_000, 1u64..40, 1i64..30),
            1..20,
        ),
    ) {
        let plan = plan();
        let cfg = HoneypotConfig::hopscotch(&plan);
        let mut det = HoneypotDetector::new(cfg.clone());
        let mut events: Vec<PacketEvent> = Vec::new();
        for (victim, sensor_idx, start, count, spacing) in bursts {
            let sensor = cfg.sensors[sensor_idx];
            for k in 0..count {
                events.push(request(
                    start + k as i64 * spacing,
                    victim,
                    sensor,
                    AmpVector::Dns.src_port(),
                    55_555,
                ));
            }
        }
        events.sort_by_key(|p| p.time);
        let total_ingested = events.len() as u64;
        for e in &events {
            det.ingest(e);
        }
        let flows = det.finish();
        let mut flow_packets = 0;
        for f in &flows {
            prop_assert!(f.packets >= cfg.min_packets);
            prop_assert!(f.first_seen <= f.last_seen);
            flow_packets += f.packets;
        }
        prop_assert!(flow_packets <= total_ingested);
    }

    /// Cross-sensor merging conserves packets and never increases the
    /// event count.
    #[test]
    fn merge_conserves_packets(
        bursts in proptest::collection::vec(
            (1u32..10, 0usize..6, 0i64..20_000, 6u64..30),
            1..16,
        ),
        gap in 1i64..5_000,
    ) {
        let plan = plan();
        let cfg = HoneypotConfig::hopscotch(&plan);
        let mut det = HoneypotDetector::new(cfg.clone());
        let mut events: Vec<PacketEvent> = Vec::new();
        for (victim, sensor_idx, start, count) in bursts {
            let sensor = cfg.sensors[sensor_idx];
            for k in 0..count {
                events.push(request(start + k as i64, victim, sensor,
                    AmpVector::Dns.src_port(), 55_555));
            }
        }
        events.sort_by_key(|p| p.time);
        for e in &events {
            det.ingest(e);
        }
        let flows = det.finish();
        let flow_packets: u64 = flows.iter().map(|f| f.packets).sum();
        let merged = merge_sensor_flows(&flows, gap);
        prop_assert!(merged.len() <= flows.len());
        let merged_packets: u64 = merged.iter().map(|e| e.packets).sum();
        prop_assert_eq!(flow_packets, merged_packets);
        for e in &merged {
            prop_assert!(e.sensor_count >= 1);
            prop_assert!(e.first_seen <= e.last_seen);
        }
    }

    /// Reconstruction never loses targets, never increases event count,
    /// and every output target appeared in some input.
    #[test]
    fn reconstruction_conserves_targets(
        raw in proptest::collection::vec(
            // (as_pick, offset, start)
            (0usize..3, 0u32..64, 0i64..10_000),
            1..30,
        ),
        gap in 60i64..7_200,
    ) {
        let plan = plan();
        let rows: Vec<Row> = raw
            .iter()
            .enumerate()
            .map(|(i, &(as_pick, offset, start))| {
                let base = plan.registry.get(ASNS[as_pick]).unwrap().prefixes[0];
                (i as u64, start, vec![base.nth((offset as u64) % base.size())])
            })
            .collect();
        let observed = columns(&rows);
        let merged = reconstruct_carpet_columns(&plan, &observed, gap);
        prop_assert!(merged.len() <= observed.len());
        prop_assert!(!merged.is_empty());
        let in_targets: std::collections::HashSet<Ipv4> =
            observed.target_arena.iter().copied().collect();
        let out_targets: std::collections::HashSet<Ipv4> =
            merged.target_arena.iter().copied().collect();
        prop_assert_eq!(in_targets, out_targets);
    }

    /// The Appendix-I pass matches the naive reference row for row: ids,
    /// starts, target order and event order. Starts sit on a grid of
    /// `gap` steps jittered by -1, 0, +1 or half a gap, so draws hold
    /// start ties, chains longer than one gap, and neighbours exactly at,
    /// just inside and just past the merge window. Targets repeat within
    /// and across rows, and one pick of four is unrouted.
    #[test]
    fn reconstruction_matches_naive_reference(
        raw in proptest::collection::vec(
            // (allocation pick or 3 = unrouted, target offsets, grid step, jitter)
            (0usize..4, proptest::collection::vec(0u32..6, 1..4), 0i64..8, 0usize..4),
            1..24,
        ),
        gap in 2i64..3_600,
    ) {
        let plan = plan();
        let n = raw.len();
        let rows: Vec<Row> = raw
            .iter()
            .enumerate()
            .map(|(i, (pick, offsets, step, jitter))| {
                let ip = |off: u32| match ASNS.get(*pick) {
                    Some(&asn) => plan.registry.get(asn).unwrap().prefixes[0].nth(off as u64),
                    None => Ipv4::new(223, 255, 255, off as u8),
                };
                let start = step * gap + [-1, 0, 1, gap / 2][*jitter];
                // Ids run against input order, so a start tie is broken
                // by position, not by id.
                ((n - i) as u64, start, offsets.iter().map(|&o| ip(o)).collect())
            })
            .collect();
        let merged = reconstruct_carpet_columns(&plan, &columns(&rows), gap);
        prop_assert_eq!(read_back(&merged), reference_carpet(&plan, &rows, gap));
    }

    /// AmpPot's flow identifier includes the source port: streams that
    /// differ only in spoofed source port never share a flow.
    #[test]
    fn amppot_src_port_partitions(ports in proptest::collection::hash_set(1024u16..60_000, 2..6)) {
        let plan = plan();
        let cfg = HoneypotConfig::amppot(&plan);
        let sensor = cfg.sensors[0];
        let mut det = HoneypotDetector::new(cfg.clone());
        let ports: Vec<u16> = ports.into_iter().collect();
        // 120 packets per port — each port's flow clears the threshold.
        for (pi, &p) in ports.iter().enumerate() {
            for k in 0..120i64 {
                det.ingest(&request(pi as i64 * 10_000 + k, 7, sensor,
                    AmpVector::Ntp.src_port(), p));
            }
        }
        let flows = det.finish();
        prop_assert_eq!(flows.len(), ports.len());
        for f in &flows {
            prop_assert_eq!(f.packets, 120);
        }
    }
}
