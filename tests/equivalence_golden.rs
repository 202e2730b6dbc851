//! Columnar-refactor equivalence gate (ISSUE 6): the SoA population
//! must produce byte-identical projections to the pre-refactor AoS
//! path. The `GOLDEN_*` constants below are FNV-1a hashes of the full
//! projection fingerprint (every weekly/normalized series bit pattern,
//! every target-tuple set, the Netscout baseline sample and the Akamai
//! retention tuples) captured on the last `Vec<Attack>` commit — the
//! frozen reference the columnar engine is checked against, across
//! worker counts × stage-cache on/off × a non-empty `FaultPlan`.

mod common;

use common::output_fingerprint;
use ddoscovery::faults::{ChurnSpec, DegradationSpec, FaultPlan, OutageSpec};
use ddoscovery::{StudyConfig, StudyRun};
use obs::manifest::fnv1a;

/// Small fast config with every masking path live: paper missing-data
/// gaps on, plus a fault plan that exercises outages, honeypot churn
/// and flow degradation.
fn golden_cfg(cache: usize, workers: usize) -> StudyConfig {
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
        flow_degradation: Some(DegradationSpec {
            drop_fraction: 0.2,
            start_week: 120,
        }),
        seed: 7,
    };
    cfg.stage_cache = Some(cache);
    cfg.workers = Some(workers);
    cfg
}

/// The frozen pre-refactor hash: identical for every (workers, cache)
/// combination by the worker-invariance contract, so one constant
/// covers the whole matrix.
const GOLDEN: u64 = 0xe5de_be41_dc18_4ec3;

#[test]
fn columnar_output_matches_frozen_aos_golden() {
    for workers in [1, 3] {
        for cache in [0, 64] {
            let run = StudyRun::execute(&golden_cfg(cache, workers));
            let got = fnv1a(&output_fingerprint(&run));
            assert_eq!(
                got, GOLDEN,
                "projection bytes diverged from the frozen AoS reference \
                 at workers={workers} cache={cache} (got {got:#018x})"
            );
        }
    }
}

/// Capture helper: prints the hash so a new golden can be pinned after
/// an *intentional* output change. `cargo test -q --test
/// equivalence_golden -- --ignored --nocapture`.
#[test]
#[ignore = "golden capture helper, not a gate"]
fn print_golden_hash() {
    let run = StudyRun::execute(&golden_cfg(0, 1));
    println!("GOLDEN = {:#018x}", fnv1a(&output_fingerprint(&run)));
}
