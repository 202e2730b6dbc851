//! `benchmark compare PARENT.json... -- CHANGE.json...`: medians,
//! quartiles and a verdict per workload and metric, by the rule a
//! performance claim is held to.
//!
//! * **better** — the change wins at least 9 of 10 of the (parent,
//!   change) pairs, ties counting for neither, and the medians differ by
//!   more than the parent's own interquartile distance;
//! * **unresolved** — the parent's spread is wider than the metric's
//!   bound and not every change run beats every parent run;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound (`BENCHMARK.json`); this makes the command exit 1;
//!   `setup_s` is worse only when it also rises by more than
//!   [`SETUP_FLOOR_S`];
//! * **within bound** — otherwise.
//!
//! Per-layer metrics have no bound and are reported without a verdict.

use crate::report::{self, Recorded};
use crate::spec::{Better, Metric, Spec};
use crate::stats;
use std::path::PathBuf;

/// Absolute floor of a `setup_s` regression, in seconds. A set-up of a
/// few milliseconds (process start) moves by a quarter with exec and
/// page-cache jitter alone; a rise below this is within bound.
pub const SETUP_FLOOR_S: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `parent` for one metric (both non-empty).
pub fn verdict(metric: &Metric, bound: f64, parent: &[f64], change: &[f64]) -> Verdict {
    let improves = |c: f64, p: f64| match metric.better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let (mp, mc) = (stats::median(parent), stats::median(change));
    let [q1, _, q3] = stats::quartiles(parent);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| improves(c, p))
        .count();
    if pairs > 0 && wins * 10 >= 9 * pairs && (mc - mp).abs() > q3 - q1 {
        return Verdict::Better;
    }
    let worse_by = match metric.better {
        Better::Lower => mc - mp,
        Better::Higher => mp - mc,
    };
    if metric.name == "setup_s" && worse_by <= SETUP_FLOOR_S {
        return Verdict::WithinBound;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| improves(c, p)));
    if stats::spread(parent) > bound && !all_better {
        return Verdict::Unresolved;
    }
    if worse_by > bound * mp.abs() {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

fn values(runs: &[Recorded], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
        .collect()
}

fn describe(v: &[f64]) -> String {
    let [q1, _, q3] = stats::quartiles(v);
    format!(
        "{:.4} [{:.4}, {:.4}] n={}",
        stats::median(v),
        q1,
        q3,
        v.len()
    )
}

/// Run the comparison; returns the process exit code.
pub fn main(args: &[String], spec: &Spec) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: benchmark compare PARENT.json... -- CHANGE.json...");
        return 2;
    };
    let load = |paths: &[String]| -> Result<Vec<Recorded>, String> {
        paths
            .iter()
            .map(|p| report::read_results(&PathBuf::from(p)))
            .collect()
    };
    let (parent, change) = match (load(&args[..split]), load(&args[split + 1..])) {
        (Ok(p), Ok(c)) if !p.is_empty() && !c.is_empty() => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
        _ => {
            eprintln!("benchmark compare: both sides need at least one results file");
            return 2;
        }
    };
    let mut regressions = 0;
    for w in spec.workload_names() {
        let failed = |runs: &[Recorded]| -> u64 {
            runs.iter()
                .filter(|r| r.workload == w)
                .map(|r| r.failed)
                .sum()
        };
        let incorrect = change.iter().any(|r| r.workload == w && !r.correct);
        if incorrect || failed(&change) > failed(&parent) {
            println!(
                "{w} correctness: change has incorrect runs or more failures ({} vs {})",
                failed(&change),
                failed(&parent)
            );
            regressions += 1;
        }
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (p, c) = (
                values(&parent, w, &metric.name),
                values(&change, w, &metric.name),
            );
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let label = match metric.bound {
                Some(bound) => {
                    let v = verdict(metric, bound, &p, &c);
                    if v == Verdict::Worse {
                        regressions += 1;
                    }
                    format!("{} (bound {:.0}%)", v.label(), bound * 100.0)
                }
                None => "per-layer".to_string(),
            };
            println!(
                "{w} {} {}: parent {} | change {} -> {label}",
                metric.name,
                metric.unit,
                describe(&p),
                describe(&c)
            );
        }
    }
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> (Metric, f64) {
        (
            Metric {
                name: "op_p50_ms".into(),
                unit: "ms".into(),
                better: Better::Lower,
                bound: Some(bound),
            },
            bound,
        )
    }

    #[test]
    fn verdicts_follow_the_pair_rule_and_the_bound() {
        let (m, b) = lower(0.1);
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.2).collect();
        // Every pair won, medians 10% apart: better.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        assert_eq!(verdict(&m, b, &parent, &faster), Verdict::Better);
        // 20% slower: worse.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&m, b, &parent, &slower), Verdict::Worse);
        // 3% slower: within the 10% bound.
        let close: Vec<f64> = parent.iter().map(|v| v * 1.03).collect();
        assert_eq!(verdict(&m, b, &parent, &close), Verdict::WithinBound);
        // A parent spread wider than the bound leaves it unresolved.
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 10.0 * i as f64).collect();
        assert_eq!(verdict(&m, b, &noisy, &slower), Verdict::Unresolved);
    }

    #[test]
    fn setup_rises_below_the_floor_are_within_bound() {
        let m = Metric {
            name: "setup_s".into(),
            unit: "s".into(),
            better: Better::Lower,
            bound: Some(0.25),
        };
        // 1 ms → 1.4 ms is 40% worse, but only 0.4 ms.
        let (parent, change) = (vec![0.001; 10], vec![0.0014; 10]);
        assert_eq!(verdict(&m, 0.25, &parent, &change), Verdict::WithinBound);
        // 0.5 s → 0.7 s is 40% and 0.2 s worse.
        let (parent, change) = (vec![0.5; 10], vec![0.7; 10]);
        assert_eq!(verdict(&m, 0.25, &parent, &change), Verdict::Worse);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let m = Metric {
            name: "ops_per_s".into(),
            unit: "1/s".into(),
            better: Better::Higher,
            bound: Some(0.1),
        };
        let parent = vec![10.0; 10];
        assert_eq!(verdict(&m, 0.1, &parent, &[12.0; 10]), Verdict::Better);
        assert_eq!(verdict(&m, 0.1, &parent, &[8.0; 10]), Verdict::Worse);
    }
}
