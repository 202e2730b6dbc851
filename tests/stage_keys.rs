//! Per-stream stage keys (DESIGN.md §7): each observation output is
//! keyed by exactly what it reads, and no more.
//!
//! * **Soundness.** Every leaf of the observation-class config fields
//!   (`obs` and `faults`, found by walking their serialized JSON, so a
//!   field added later is perturbed too) and one outage per fault
//!   source is perturbed in turn. A warm run of each perturbed config,
//!   over a cache primed with the base, must produce the same bytes as
//!   a cold run with the cache off, and every stream whose cold bytes
//!   differ from the base must have a new key.
//! * **Precision.** A carpet-gap change re-keys only the three carpet
//!   outputs, and an outage on one source re-keys only that source's
//!   outputs.
//! * **The served what-if route.** A carpet-gap sweep over a warm study
//!   reruns three carpet passes per point and nothing else.
//! * **Stability.** The 17 keys of `golden_cfg` are pinned, so a store
//!   written by an earlier build stays warm.
//!
//! The `stage.*` counters and the span histograms are process-global,
//! so every test here serializes on one mutex and measures deltas.

mod common;

use common::{golden_cfg, output_fingerprint, spans_closed};
use ddoscovery::faults::{OutageSpec, FAULT_SOURCES};
use ddoscovery::stagecache::{Stage, StageCache, FIELD_STAGES};
use ddoscovery::{FaultPlan, ObsId, StageFingerprints, StudyConfig, StudyRun, StudyService};
use serde_json::Value;
use serve::{Handler, Request};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every stage key of a config, by label: plan, attacks, the eleven
/// final streams (by slug), the raw alert stream and the three
/// detections.
fn keys(cfg: &StudyConfig) -> BTreeMap<String, u64> {
    let fp = StageFingerprints::of(cfg);
    let mut keys = BTreeMap::from([
        ("plan".to_string(), fp.plan),
        ("attacks".to_string(), fp.attacks),
        ("netscout_alerts".to_string(), fp.netscout_alerts),
    ]);
    keys.extend(ObsId::ALL.map(|id| (id.slug().to_string(), fp.observation(id))));
    for (id, key) in ObsId::HONEYPOTS.into_iter().zip(fp.detections) {
        keys.insert(format!("{}.detections", id.slug()), key);
    }
    keys
}

/// Labels of the keys that differ between two configs.
fn rekeyed(a: &StudyConfig, b: &StudyConfig) -> BTreeSet<String> {
    let (a, b) = (keys(a), keys(b));
    a.into_iter()
        .filter(|(label, key)| b[label] != *key)
        .map(|(label, _)| label)
        .collect()
}

/// The wire bytes of the eleven final streams and of the raw alert
/// stream, by the labels [`keys`] uses.
fn stream_bytes(run: &StudyRun) -> BTreeMap<String, Vec<u8>> {
    let mut bytes: BTreeMap<String, Vec<u8>> = ObsId::ALL
        .iter()
        .map(|&id| (id.slug().to_string(), run.observations(id).to_wire_bytes()))
        .collect();
    bytes.insert(
        "netscout_alerts".to_string(),
        run.netscout_alerts.to_wire_bytes(),
    );
    bytes
}

/// Perturbed copies of `value`, one per moved leaf, each labeled with
/// the leaf's JSON path and new value. A number moves a little (+1, so
/// a boundary read shows) and a lot (halved, or doubled up to 1 for a
/// fraction, so a threshold read shows); a boolean flips; a source slug
/// becomes the next slug; a `null` leaf cannot move and is skipped.
fn perturb_leaves(path: &str, value: &Value, out: &mut Vec<(String, Value)>) {
    let moved = match value {
        Value::Object(fields) => {
            for (i, (name, v)) in fields.iter().enumerate() {
                let mut inner = Vec::new();
                perturb_leaves(&format!("{path}.{name}"), v, &mut inner);
                for (p, nv) in inner {
                    let mut fields = fields.clone();
                    fields[i].1 = nv;
                    out.push((p, Value::Object(fields)));
                }
            }
            return;
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                let mut inner = Vec::new();
                perturb_leaves(&format!("{path}[{i}]"), v, &mut inner);
                for (p, nv) in inner {
                    let mut items = items.clone();
                    items[i] = nv;
                    out.push((p, Value::Array(items)));
                }
            }
            return;
        }
        Value::Null => vec![],
        Value::Bool(b) => vec![Value::Bool(!b)],
        Value::UInt(n) => vec![Value::UInt(n + 1), Value::UInt(n / 2)],
        Value::Int(n) => vec![Value::Int(n + 1), Value::Int(n / 2)],
        Value::Float(f) if *f == 0.0 => vec![Value::Float(0.5)],
        Value::Float(f) => vec![Value::Float(f / 2.0), Value::Float((f * 2.0).min(1.0))],
        Value::Str(s) => {
            let next = FAULT_SOURCES
                .iter()
                .position(|slug| slug == s)
                .map_or(format!("{s}-moved"), |i| {
                    FAULT_SOURCES[(i + 1) % FAULT_SOURCES.len()].to_string()
                });
            vec![Value::Str(next)]
        }
    };
    for v in moved {
        if v != *value {
            let label = format!(
                "{path} = {}",
                serde_json::to_string(&v).expect("leaf serializes")
            );
            out.push((label, v));
        }
    }
}

/// Every perturbation of `base` the soundness test runs, labeled.
fn perturbations(base: &StudyConfig) -> Vec<(String, StudyConfig)> {
    let value = serde_json::to_value(base).expect("config serializes");
    let Value::Object(fields) = &value else {
        panic!("StudyConfig must serialize to an object")
    };
    let mut out = Vec::new();
    for (field, _) in FIELD_STAGES
        .iter()
        .filter(|(_, stage)| *stage == "observations")
    {
        let i = fields
            .iter()
            .position(|(name, _)| name == field)
            .expect("a classified field is serialized");
        let mut moved = Vec::new();
        perturb_leaves(field, &fields[i].1, &mut moved);
        for (path, v) in moved {
            let mut fields = fields.clone();
            fields[i].1 = v;
            let cfg: StudyConfig =
                serde_json::from_value(&Value::Object(fields)).expect("perturbed config parses");
            out.push((path, cfg));
        }
    }
    for source in FAULT_SOURCES {
        let mut cfg = base.clone();
        cfg.faults.outages.push(OutageSpec {
            source: source.to_string(),
            start_week: 40,
            end_week: 60,
        });
        out.push((format!("outage on {source}"), cfg));
    }
    out
}

/// Soundness: a key that misses a read would let the warm run serve a
/// stale output, which the cold run (cache off) exposes; and a stream
/// whose bytes moved under an unchanged key would be served stale to
/// the next run.
#[test]
fn every_stream_whose_bytes_change_gets_a_new_key() {
    let _guard = serialize();
    let base = golden_cfg(ddoscovery::stagecache::DEFAULT_BOUND, 2);
    let base_run = StudyRun::execute(&base);
    let base_bytes = stream_bytes(&base_run);
    let base_keys = keys(&base);
    drop(base_run);

    let mut ran = 0;
    let mut moved_streams = 0;
    for (label, cfg) in perturbations(&base) {
        if cfg.validate().is_err() {
            continue;
        }
        ran += 1;
        // Prime (a memory hit after the first pass), then run warm.
        drop(StudyRun::execute(&base));
        let warm = StudyRun::execute(&cfg);
        let mut off = cfg.clone();
        off.stage_cache = Some(0);
        let cold = StudyRun::execute(&off);

        let (warm_bytes, cfg_keys) = (stream_bytes(&warm), keys(&cfg));
        for (stream, bytes) in stream_bytes(&cold) {
            assert!(
                warm_bytes[&stream] == bytes,
                "{label}: warm {stream} differs from the cold run (its key misses a read)"
            );
            if bytes != base_bytes[&stream] {
                moved_streams += 1;
                assert_ne!(
                    cfg_keys[&stream], base_keys[&stream],
                    "{label}: {stream} changed bytes but kept its key"
                );
            }
        }
        assert!(
            output_fingerprint(&warm) == output_fingerprint(&cold),
            "{label}: warm projections differ from the cold run"
        );
    }
    // The golden `obs` and `faults` have 12 leaves; 20 of their moves
    // pass validation. Plus one outage per source.
    assert!(ran >= 28, "only {ran} perturbations ran");
    assert!(
        moved_streams >= ran,
        "perturbations moved only {moved_streams} streams"
    );
}

/// Precision, pinned on the keys alone: a knob re-keys only the
/// outputs that read it.
#[test]
fn keys_move_only_for_the_streams_that_read_the_change() {
    let base = golden_cfg(ddoscovery::stagecache::DEFAULT_BOUND, 2);
    let set = |labels: &[&str]| {
        labels
            .iter()
            .map(|s| s.to_string())
            .collect::<BTreeSet<_>>()
    };

    let mut gap = base.clone();
    gap.obs.carpet_gap_secs += 1;
    assert_eq!(
        rekeyed(&base, &gap),
        set(&["hopscotch", "amppot", "newkid"])
    );

    for source in FAULT_SOURCES {
        let mut outage = base.clone();
        outage.faults.outages.push(OutageSpec {
            source: source.to_string(),
            start_week: 40,
            end_week: 60,
        });
        let mut want: BTreeSet<String> = ObsId::ALL
            .into_iter()
            .filter(|&id| FaultPlan::source_of(id) == source)
            .map(|id| id.slug().to_string())
            .collect();
        if ObsId::HONEYPOTS.iter().any(|id| id.slug() == source) {
            want.insert(format!("{source}.detections"));
        }
        if source == "netscout" {
            want.insert("netscout_alerts".to_string());
        }
        assert_eq!(rekeyed(&base, &outage), want, "outage on {source}");
    }

    // Churn (and the fault seed it draws from) feeds the honeypots
    // only; flow degradation feeds the flow platforms only.
    let honeypots = set(&[
        "hopscotch",
        "amppot",
        "newkid",
        "hopscotch.detections",
        "amppot.detections",
        "newkid.detections",
    ]);
    let mut seed = base.clone();
    seed.faults.seed += 1;
    assert_eq!(rekeyed(&base, &seed), honeypots);
    let mut churn = base.clone();
    churn.faults.honeypot_churn = None;
    assert_eq!(rekeyed(&base, &churn), honeypots);
    let mut degradation = base.clone();
    degradation.faults.flow_degradation = None;
    assert_eq!(
        rekeyed(&base, &degradation),
        set(&[
            "ixp_dp",
            "ixp_ra",
            "akamai_dp",
            "akamai_ra",
            "netscout_dp",
            "netscout_ra",
            "netscout_alerts",
        ])
    );
}

/// The user-facing what-if route: over a warm quick study, a two-point
/// carpet-gap sweep computes exactly the six carpet outputs, in one
/// `carpet` span each, and observes nothing.
#[test]
fn served_gap_sweep_reruns_only_the_carpet_passes() {
    let _guard = serialize();
    let mut cfg = StudyConfig::quick();
    cfg.workers = Some(2);
    let run = StudyRun::execute(&cfg);
    let service = StudyService::new(run, &cfg, "quick");

    let cache = StageCache::global();
    let counts = || {
        let [plan, attacks, observations] =
            [Stage::Plan, Stage::Attacks, Stage::Observations].map(|s| cache.stats(s).computed);
        [
            plan,
            attacks,
            observations,
            spans_closed("carpet"),
            spans_closed("observe"),
        ]
    };
    let before = counts();
    let resp = service.handle(&Request {
        method: "GET".to_string(),
        path: "/v1/sweep/carpet_gap_secs".to_string(),
        query: "values=1800,5400".to_string(),
        headers: Vec::new(),
    });
    let after = counts();
    assert_eq!(resp.status, 200);
    assert_eq!(
        std::array::from_fn::<u64, 5, _>(|i| after[i] - before[i]),
        [0, 0, 6, 6, 0],
        "stage.{{plan,attacks,observations}}.computed, carpet and observe spans"
    );
}

/// The 17 stage keys of `golden_cfg`. A store's cells are named by
/// these keys, so a store written by an earlier build stays warm only
/// while they hold; a change here orphans every cell under the old
/// value (and needs a deliberate re-pin).
const GOLDEN_KEYS: [(&str, u64); 17] = [
    ("akamai_dp", 0x012b_f673_89e6_f7f4),
    ("akamai_ra", 0x788a_b673_ccfa_0167),
    ("amppot", 0x1971_bd3e_bff8_f8cf),
    ("amppot.detections", 0x6f26_b747_3281_8246),
    ("attacks", 0xfdba_2cad_b607_9fa5),
    ("hopscotch", 0x12dd_7423_b508_9217),
    ("hopscotch.detections", 0x9f74_2dc0_7973_e2ba),
    ("ixp_dp", 0x6e71_0988_3678_0589),
    ("ixp_ra", 0x09b5_2988_8e3a_72b6),
    ("netscout_alerts", 0x79f7_95f8_fc0a_f8f7),
    ("netscout_dp", 0x8af9_dd50_b54d_e1ae),
    ("netscout_ra", 0x0fcf_2950_6f01_106d),
    ("newkid", 0x99de_5d3f_b5bf_f0a2),
    ("newkid.detections", 0xb571_c6f9_32f7_d2d8),
    ("orion", 0x584a_0fb4_7642_305b),
    ("plan", 0x3baa_6682_07a9_f203),
    ("ucsd", 0x410d_c3a8_f469_c2fa),
];

#[test]
fn golden_stage_keys_are_pinned() {
    let got = keys(&golden_cfg(ddoscovery::stagecache::DEFAULT_BOUND, 2));
    let want: BTreeMap<String, u64> = GOLDEN_KEYS
        .iter()
        .map(|&(label, key)| (label.to_string(), key))
        .collect();
    assert_eq!(got, want, "a stage key moved: stores written before it go cold");
}
