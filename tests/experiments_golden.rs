//! Experiment-output golden: every `run_all` artifact (id, title, body
//! and each CSV's name and bytes) hashed with FNV-1a under the
//! byte-identity suites' fault-plan config, at 1 and 4 workers. The
//! projection golden (`equivalence_golden.rs`) pins what experiments
//! read; this pins what they write, so a faster experiment that changes
//! a single rendered byte fails here.
//!
//! `GOLDEN` was first captured on commit
//! 02189c1cdbee7da01722d2da43e24caa4fda47f6, before the experiments
//! moved onto the sorted membership column and the attack-row index
//! (0x49f2_bd63_05ba_8866). It was re-pinned twice, each time for the
//! `lags` experiment alone:
//! - when its table started ordering rows by printed rho as numbers,
//!   not text: only that table's body moved;
//! - when it stopped reporting pairs whose best rho is <= 0 (every lag
//!   anti-correlated, so neither series leads): the -0.17 and -0.18
//!   rows left the table and `lags.csv`
//!   (0x4d13_d829_e51b_bfe6 -> 0x4cbe_8da5_1e81_97fd).

mod common;

use common::golden_cfg;
use ddoscovery::{run_all, run_experiment, ExperimentResult, StudyRun};
use obs::manifest::Fnv;

/// Fold every result into one hash; each field is length-prefixed so
/// bytes cannot migrate between fields unnoticed.
fn experiments_hash(results: &[ExperimentResult]) -> u64 {
    let mut h = Fnv::new();
    let field = |h: &mut Fnv, bytes: &[u8]| {
        h.write_u64(bytes.len() as u64).write(bytes);
    };
    for r in results {
        field(&mut h, r.id.as_bytes());
        field(&mut h, r.title.as_bytes());
        field(&mut h, r.body.as_bytes());
        h.write_u64(r.csv.len() as u64);
        for (name, csv) in &r.csv {
            field(&mut h, name.as_bytes());
            field(&mut h, csv.as_bytes());
        }
    }
    h.finish()
}

const GOLDEN: u64 = 0x4cbe_8da5_1e81_97fd;

#[test]
fn experiment_output_matches_golden() {
    for workers in [1, 4] {
        let run = StudyRun::execute(&golden_cfg(0, workers));
        let got = experiments_hash(&run_all(&run));
        assert_eq!(
            got, GOLDEN,
            "experiment output diverged from the golden at workers={workers} (got {got:#018x})"
        );
    }
}

/// The `lags` table lists only positively correlated pairs (a lead
/// needs rho > 0; this config once listed -0.18 and -0.17), strongest
/// printed rho first.
#[test]
fn lags_table_rho_never_increases() {
    let run = StudyRun::execute(&golden_cfg(0, 1));
    let lags = run_experiment(&run, "lags").expect("lags is registered");
    // Table rows follow the dashed rule under the header.
    let rows = lags
        .body
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1);
    let rho: Vec<f64> = rows
        .map(|row| {
            let cell = row.split_whitespace().last().expect("row has a rho cell");
            cell.parse()
                .unwrap_or_else(|_| panic!("rho cell {cell:?} in {row:?}"))
        })
        .collect();
    let table = &lags.body;
    assert!(rho.len() >= 2, "too few rows to check an order:\n{table}");
    assert!(
        rho.iter().all(|&r| r > 0.0),
        "a row with rho <= 0:\n{table}"
    );
    assert!(
        rho.windows(2).all(|w| w[0] >= w[1]),
        "rho column increases:\n{table}"
    );
}

/// Capture helper: prints the hash so a new golden can be pinned after
/// an *intentional* output change. `cargo test -q --test
/// experiments_golden -- --ignored --nocapture`.
#[test]
#[ignore = "golden capture helper, not a gate"]
fn print_experiments_golden() {
    let run = StudyRun::execute(&golden_cfg(0, 1));
    println!("GOLDEN = {:#018x}", experiments_hash(&run_all(&run)));
}
