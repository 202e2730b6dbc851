//! The Netscout Atlas observatory model.
//!
//! Netscout "receives anonymized DDoS attack statistics from more than
//! 500 ISPs and 1500 enterprises worldwide" (§5) and shared daily attack
//! counts split by type (RA / DP), with the DP counts further split into
//! spoofed and non-spoofed. For the target-overlap study (§7.2), the
//! comparison baseline was ≈ 28 % of all Netscout alerts, and alerts
//! below the product-defined "medium" severity are excluded.

use attackgen::wire::{class_from_tag, class_tag};
use attackgen::{AttackClass, AttackRef, ObservationColumns};
use netmodel::wire::{get_u8s, put_u8s, to_bytes, Reader, WireResult, Writer};
use netmodel::{Asn, InternetPlan};
use serde::{Deserialize, Serialize};
use simcore::SimRng;
use std::collections::HashSet;

/// Severity grades of Atlas alerts. Only `Medium` and above enter the
/// shared data (§7.2 caveat).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    Low,
    Medium,
    High,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetscoutConfig {
    /// Packet-rate floor of a `Medium` alert. Atlas grades severity on
    /// packet rate so reflection and direct-path attacks face the same
    /// bar — a bit-rate floor would systematically over-select RA
    /// (amplified responses carry far more bytes per packet).
    pub medium_pps: f64,
    /// Packet-rate floor of a `High` alert.
    pub high_pps: f64,
    /// Probability that an in-scope attack produces an alert at all
    /// (sensor placement inside the customer network).
    pub alert_probability: f64,
    /// Fraction of alerts entering the shared research baseline
    /// (§7.2: "approximately 28 % of all Netscout alerts").
    pub baseline_fraction: f64,
}

impl Default for NetscoutConfig {
    fn default() -> Self {
        NetscoutConfig {
            medium_pps: 5_000.0,
            high_pps: 100_000.0,
            alert_probability: 0.9,
            baseline_fraction: 0.28,
        }
    }
}

/// Event-level Netscout Atlas.
#[derive(Debug, Clone)]
pub struct Netscout {
    pub cfg: NetscoutConfig,
    customers: HashSet<Asn>,
    /// Injected data-plane faults (outage windows, flow-sampling
    /// degradation). Empty by default and bit-for-bit inert when empty.
    pub faults: simcore::faults::ObsFaults,
}

impl Netscout {
    pub fn new(plan: &InternetPlan, cfg: NetscoutConfig) -> Self {
        Netscout {
            cfg,
            customers: plan.netscout_customers.clone(),
            faults: simcore::faults::ObsFaults::default(),
        }
    }

    pub fn with_defaults(plan: &InternetPlan) -> Self {
        Self::new(plan, NetscoutConfig::default())
    }

    fn severity(&self, pps: f64) -> Option<Severity> {
        if pps >= self.cfg.high_pps {
            Some(Severity::High)
        } else if pps >= self.cfg.medium_pps {
            Some(Severity::Medium)
        } else {
            // Low alerts exist internally but are excluded from the
            // shared data — we drop them at the source like the paper's
            // baseline does.
            None
        }
    }

    /// Event-level alert verdict for one attack row. Returns the alert's
    /// classification when one fires; the observation itself is just the
    /// attack's (id, start, targets), which columnar callers append to
    /// their own sink.
    pub fn observe_view(&self, attack: AttackRef<'_>, root: &SimRng) -> Option<(AttackClass, Severity)> {
        // Outage check first, before any RNG fork, so unaffected weeks
        // keep their exact alert streams.
        let week = attack.start.week_index();
        if self.faults.is_down(week) {
            return None;
        }
        if !self.customers.contains(&attack.target_asn) {
            return None;
        }
        let mut rng = root.fork(attack.id.0).fork_named("netscout-atlas");
        if !rng.chance(self.cfg.alert_probability) {
            return None;
        }
        // Sampling degradation swallows the would-be alert from a
        // dedicated RNG fork, leaving the main draw stream untouched.
        if self.faults.drops_sample(root, attack.id.0, week) {
            return None;
        }
        // Atlas alerts are per victim: a carpet attack spreading its
        // rate over many addresses is graded by per-target rate — which
        // is exactly why carpet bombing evades per-IP thresholds
        // (§2.2 / Appendix I).
        let severity = self.severity(attack.pps_per_target())?;
        Some((attack.class, severity))
    }

    /// Per-alert draw deciding whether an alert lands in the shared
    /// research baseline. Deterministic in (root, attack id).
    pub fn baseline_keep(&self, attack_id: u64, root: &SimRng) -> bool {
        let mut rng = root.fork(attack_id).fork_named("netscout-baseline");
        rng.chance(self.cfg.baseline_fraction)
    }
}

/// Columnar alert stream: the observation columns plus per-alert class
/// and severity lanes, all indexed by the same row.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AlertColumns {
    pub obs: ObservationColumns,
    pub class: Vec<AttackClass>,
    pub severity: Vec<Severity>,
}

impl AlertColumns {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.class.len()
    }

    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// Append one alert row taking the observation tuple straight from
    /// the attack (Atlas alerts carry the attack's full target list).
    pub fn push(&mut self, attack: AttackRef<'_>, class: AttackClass, severity: Severity) {
        self.obs.begin_row(attack.id, attack.start);
        for &t in attack.targets {
            self.obs.push_target(t);
        }
        self.obs.commit_row();
        self.class.push(class);
        self.severity.push(severity);
    }

    /// The observations of one published series, in alert order: the
    /// reflection-amplification alerts, or all the others (DP).
    pub fn series(&self, reflection: bool) -> ObservationColumns {
        let mut out = ObservationColumns::new();
        for i in (0..self.len()).filter(|&i| self.class[i].is_reflection() == reflection) {
            let row = self.obs.get(i);
            out.push_row(row.attack_id, row.start, row.targets);
        }
        out
    }

    /// Consume `shard`, appending its rows after ours.
    pub fn append(&mut self, shard: AlertColumns) {
        self.obs.append(shard.obs);
        self.class.extend_from_slice(&shard.class);
        self.severity.extend_from_slice(&shard.severity);
    }

    /// Drop accumulated growth slack in every lane.
    pub fn shrink_to_fit(&mut self) {
        self.obs.shrink_to_fit();
        self.class.shrink_to_fit();
        self.severity.shrink_to_fit();
    }

    /// Encode to the stage-store wire format (DESIGN.md §11):
    /// observation columns followed by one-byte class and severity
    /// lanes. Deterministic bytes for identical streams.
    pub fn write_wire(&self, w: &mut Writer<'_>) {
        w.nested(|w| self.obs.write_wire(w));
        put_u8s(w, &self.class, class_tag);
        put_u8s(w, &self.severity, |s| match s {
            Severity::Low => 0,
            Severity::Medium => 1,
            Severity::High => 2,
        });
    }

    /// The encoded stream in one buffer.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        to_bytes(|w| self.write_wire(w))
    }

    /// Decode a wire payload; `Err` (never a panic) on truncated,
    /// corrupt, or row-count-inconsistent input.
    pub fn from_wire_bytes(bytes: &[u8]) -> WireResult<AlertColumns> {
        let mut r = Reader::new(bytes);
        let obs = ObservationColumns::from_wire_bytes(r.bytes()?)?;
        let class = get_u8s(&mut r, class_from_tag)?;
        let severity = get_u8s(&mut r, |t| match t {
            0 => Ok(Severity::Low),
            1 => Ok(Severity::Medium),
            2 => Ok(Severity::High),
            t => Err(format!("unknown Severity tag {t}")),
        })?;
        r.finish()?;
        if class.len() != obs.len() || severity.len() != obs.len() {
            return Err(format!(
                "alert lanes disagree: {} observations, {} classes, {} severities",
                obs.len(),
                class.len(),
                severity.len()
            ));
        }
        Ok(AlertColumns { obs, class, severity })
    }
}

/// Split alerts into the two published series (RA and DP
/// observations), keeping row order.
pub fn split_by_class_columns(alerts: &AlertColumns) -> (ObservationColumns, ObservationColumns) {
    (alerts.series(true), alerts.series(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use attackgen::attack::{AttackId, AttackVector};
    use netmodel::{Ipv4, NetScale};
    use simcore::SimTime;

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    /// The alert stream of `attacks`, built as the pipeline builds it.
    fn alert_stream(ns: &Netscout, attacks: &[AttackRef<'_>], root: &SimRng) -> AlertColumns {
        let mut out = AlertColumns::new();
        for &a in attacks {
            if let Some((class, severity)) = ns.observe_view(a, root) {
                out.push(a, class, severity);
            }
        }
        out
    }

    #[test]
    fn alert_columns_wire_round_trip() {
        let plan = plan();
        let root = SimRng::new(41);
        let netscout = Netscout::with_defaults(&plan);
        let attacks: Vec<AttackRef> = (0..400u64)
            .map(|id| attack(&plan, id, 50_000.0 + id as f64, AttackClass::DirectPathSpoofed))
            .collect();
        let cols = alert_stream(&netscout, &attacks, &root);
        assert!(!cols.is_empty(), "sample stream must produce alerts");
        let bytes = cols.to_wire_bytes();
        let back = AlertColumns::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(back, cols);
        assert_eq!(back.to_wire_bytes(), bytes);
        // Truncations and flips reject or decode, never panic.
        for cut in (0..bytes.len()).step_by(7) {
            let _ = AlertColumns::from_wire_bytes(&bytes[..cut]);
        }
        for i in (0..bytes.len()).step_by(13) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = AlertColumns::from_wire_bytes(&bad);
        }
    }

    fn attack(plan: &InternetPlan, id: u64, pps: f64, class: AttackClass) -> AttackRef<'static> {
        let asn = *plan.netscout_customers.iter().next().unwrap();
        AttackRef {
            id: AttackId(id),
            class,
            vector: AttackVector::SynFlood,
            start: SimTime(1000),
            duration_secs: 300,
            targets: &[Ipv4(0x0A00_0001)], // 10.0.0.1
            target_asn: asn,
            pps,
            bps: pps * 420.0 * 8.0,
            reflector_count: None,
            spoof_space_fraction: 0.0,
            campaign: None,
        }
    }

    #[test]
    fn medium_floor_enforced() {
        let plan = plan();
        let ns = Netscout::with_defaults(&plan);
        let root = SimRng::new(1);
        let low = attack(&plan, 1, 500.0, AttackClass::DirectPathNonSpoofed);
        let mut seen = 0;
        for id in 0..100 {
            let mut a = low;
            a.id = AttackId(id);
            seen += ns.observe_view(a, &root).is_some() as u32;
        }
        assert_eq!(seen, 0, "sub-medium attacks must be excluded");
    }

    #[test]
    fn severity_grades() {
        let plan = plan();
        let ns = Netscout::with_defaults(&plan);
        let root = SimRng::new(1);
        let mut found_medium = false;
        let mut found_high = false;
        for id in 0..100 {
            let medium = attack(&plan, id, 20_000.0, AttackClass::DirectPathNonSpoofed);
            if let Some((_, severity)) = ns.observe_view(medium, &root) {
                assert_eq!(severity, Severity::Medium);
                found_medium = true;
            }
            let high = attack(&plan, 1000 + id, 500_000.0, AttackClass::DirectPathNonSpoofed);
            if let Some((_, severity)) = ns.observe_view(high, &root) {
                assert_eq!(severity, Severity::High);
                found_high = true;
            }
        }
        assert!(found_medium && found_high);
    }

    #[test]
    fn non_customers_invisible() {
        let plan = plan();
        let ns = Netscout::with_defaults(&plan);
        let root = SimRng::new(1);
        let outsider = plan
            .registry
            .iter()
            .find(|r| !plan.netscout_customers.contains(&r.asn) && r.target_weight > 0.0)
            .unwrap()
            .asn;
        for id in 0..100 {
            let mut a = attack(&plan, id, 50_000.0, AttackClass::DirectPathNonSpoofed);
            a.target_asn = outsider;
            assert!(ns.observe_view(a, &root).is_none());
        }
    }

    #[test]
    fn alert_probability_applies() {
        let plan = plan();
        let ns = Netscout::with_defaults(&plan);
        let root = SimRng::new(1);
        let seen = (0..1000)
            .filter(|&id| {
                let a = attack(&plan, id, 50_000.0, AttackClass::DirectPathNonSpoofed);
                ns.observe_view(a, &root).is_some()
            })
            .count();
        assert!((850..=950).contains(&seen), "seen {seen}");
    }

    #[test]
    fn baseline_sample_fraction() {
        let plan = plan();
        let ns = Netscout::with_defaults(&plan);
        let root = SimRng::new(1);
        let attacks: Vec<AttackRef> = (0..2000)
            .map(|id| attack(&plan, id, 50_000.0, AttackClass::DirectPathNonSpoofed))
            .collect();
        let alerts = alert_stream(&ns, &attacks, &root);
        let baseline = || -> Vec<u64> {
            alerts
                .obs
                .iter()
                .map(|o| o.attack_id.0)
                .filter(|&id| ns.baseline_keep(id, &root))
                .collect()
        };
        let kept = baseline();
        let frac = kept.len() as f64 / alerts.len() as f64;
        assert!((frac - 0.28).abs() < 0.04, "baseline fraction {frac}");
        // Deterministic.
        assert_eq!(baseline(), kept);
    }

    #[test]
    fn outage_and_degradation_thin_the_alert_stream() {
        let plan = plan();
        let root = SimRng::new(1);
        let healthy = Netscout::with_defaults(&plan);
        let attacks: Vec<AttackRef> = (0..1000)
            .map(|id| attack(&plan, id, 50_000.0, AttackClass::DirectPathNonSpoofed))
            .collect();
        let full = alert_stream(&healthy, &attacks, &root);

        // An outage covering the attacks' week blacks everything out.
        let week = SimTime(1000).week_index() as u32;
        let mut dark = Netscout::with_defaults(&plan);
        dark.faults.outages.push(simcore::faults::OutageWindow {
            start_week: week,
            end_week: week + 1,
        });
        assert!(alert_stream(&dark, &attacks, &root).is_empty());

        // Sampling degradation drops roughly the configured fraction and
        // never resurrects an alert the healthy path dropped.
        let mut degraded = Netscout::with_defaults(&plan);
        degraded.faults.degradation = Some(simcore::faults::FlowDegradation {
            drop_fraction: 0.5,
            start_week: 0,
        });
        let thinned = alert_stream(&degraded, &attacks, &root);
        let frac = thinned.len() as f64 / full.len() as f64;
        assert!((0.4..=0.6).contains(&frac), "kept fraction {frac}");
        let full_ids: HashSet<u64> = full.obs.iter().map(|o| o.attack_id.0).collect();
        assert!(thinned.obs.iter().all(|o| full_ids.contains(&o.attack_id.0)));
    }

    #[test]
    fn class_splits() {
        let plan = plan();
        let ns = Netscout::with_defaults(&plan);
        let root = SimRng::new(1);
        let mut attacks = Vec::new();
        for id in 0..300 {
            let class = match id % 3 {
                0 => AttackClass::ReflectionAmplification,
                1 => AttackClass::DirectPathSpoofed,
                _ => AttackClass::DirectPathNonSpoofed,
            };
            attacks.push(attack(&plan, id, 50_000.0, class));
        }
        let alerts = alert_stream(&ns, &attacks, &root);
        let (ra, dp) = split_by_class_columns(&alerts);
        assert_eq!(ra.len() + dp.len(), alerts.len());
        assert!(ra.iter().all(|o| o.attack_id.0 % 3 == 0));
        assert!(dp.iter().all(|o| o.attack_id.0 % 3 != 0));
    }
}
