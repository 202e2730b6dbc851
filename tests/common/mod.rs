//! Helpers shared by the byte-identity suites (`mod common;`).

use ddoscovery::{ObsId, StudyRun};

/// Every projection the paper consumes, flattened to bytes (bitwise:
/// NaN masks compare exactly): each observatory's weekly and
/// normalized series and target tuples, the Netscout baseline sample,
/// and the Akamai retention tuples.
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
