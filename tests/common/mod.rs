//! Helpers shared by the byte-identity suites (`mod common;`).

use ddoscovery::faults::{ChurnSpec, FaultPlan, OutageSpec};
use ddoscovery::{ObsId, StudyConfig, StudyRun};

/// Every projection the paper consumes, flattened to bytes (bitwise:
/// NaN masks compare exactly): each observatory's weekly and
/// normalized series and target tuples, the Netscout baseline sample,
/// and the Akamai retention tuples.
#[allow(dead_code)] // `experiments_golden` hashes experiment bytes instead
pub fn output_fingerprint(run: &StudyRun) -> Vec<u8> {
    let mut out = Vec::new();
    for id in ObsId::ALL {
        out.extend(id.slug().as_bytes());
        for v in &run.weekly_series(id).values {
            out.extend(v.to_bits().to_le_bytes());
        }
        for v in &run.normalized_series(id).values {
            out.extend(v.to_bits().to_le_bytes());
        }
        for &(day, ip) in run.target_tuples(id) {
            out.extend(day.to_le_bytes());
            out.extend(ip.0.to_le_bytes());
        }
    }
    for &(day, ip) in run.netscout_baseline_tuples() {
        out.extend(day.to_le_bytes());
        out.extend(ip.0.to_le_bytes());
    }
    for &(day, ip) in run.akamai_tuples() {
        out.extend(day.to_le_bytes());
        out.extend(ip.0.to_le_bytes());
    }
    out
}

/// Small fast config with every masking path live: paper missing-data
/// gaps on, plus a fault plan that exercises outages, honeypot churn
/// and flow degradation.
#[allow(dead_code)] // the golden suites and `disk_store` pin this config
pub fn golden_cfg(cache: usize, workers: usize) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.seed = 0x60_1DE2;
    cfg.gen.timeline.dp_base_per_week = 20.0;
    cfg.gen.timeline.ra_base_per_week = 30.0;
    cfg.gen.random_campaign_count = 1;
    cfg.missing_data = true;
    cfg.faults = FaultPlan {
        outages: vec![
            OutageSpec {
                source: "ucsd".into(),
                start_week: 5,
                end_week: 9,
            },
            OutageSpec {
                source: "ixp".into(),
                start_week: 100,
                end_week: 104,
            },
        ],
        honeypot_churn: Some(ChurnSpec {
            decline_per_year: 0.1,
            offline_weekly: 0.05,
        }),
        flow_degradation: Some(simcore::FlowDegradation {
            drop_fraction: 0.2,
            start_week: 120,
        }),
        seed: 7,
    };
    cfg.stage_cache = Some(cache);
    cfg.workers = Some(workers);
    cfg
}

/// Completed spans named `name` at any nesting depth, process-wide:
/// the count of every `span.…name` latency histogram.
#[allow(dead_code)] // only the stage-count suites count spans
pub fn spans_closed(name: &str) -> u64 {
    obs::metrics::global()
        .snapshot()
        .histograms
        .iter()
        .filter(|(path, _)| *path == &format!("span.{name}") || path.ends_with(&format!(".{name}")))
        .map(|(_, h)| h.count)
        .sum()
}
