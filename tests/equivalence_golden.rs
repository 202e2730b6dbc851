//! Columnar-refactor equivalence gate (ISSUE 6): the SoA population
//! must produce byte-identical projections to the pre-refactor AoS
//! path. `GOLDEN` is the FNV-1a hash of the full projection
//! fingerprint (every weekly/normalized series bit pattern, every
//! target-tuple set, the Netscout baseline sample and the Akamai
//! retention tuples) captured on the last `Vec<Attack>` commit — the
//! frozen reference the columnar engine is checked against, across
//! worker counts × stage-cache on/off × a non-empty `FaultPlan`.
//! `GOLDEN_ATTACKS` pins the generated population itself across the
//! same matrix.

mod common;

use common::{golden_cfg, output_fingerprint};
use ddoscovery::StudyRun;
use obs::manifest::fnv1a;

/// The frozen pre-refactor hash: identical for every (workers, cache)
/// combination by the worker-invariance contract, so one constant
/// covers the whole matrix.
const GOLDEN: u64 = 0xe5de_be41_dc18_4ec3;

/// FNV-1a of the generated attack population's wire bytes (every
/// column of every row, in canonical order), so a change to how the
/// generator writes rows cannot move the ground truth unseen.
const GOLDEN_ATTACKS: u64 = 0x2f34_2458_3560_9a00;

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
            let got = fnv1a(&run.attacks().to_wire_bytes());
            assert_eq!(
                got,
                GOLDEN_ATTACKS,
                "attack population bytes diverged at workers={workers} \
                 cache={cache} (got {got:#018x}, {} rows)",
                run.attacks().len()
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
    println!(
        "GOLDEN_ATTACKS = {:#018x} ({} rows)",
        fnv1a(&run.attacks().to_wire_bytes()),
        run.attacks().len()
    );
}
