//! Parameter sweeps: run the study across a grid of one generator
//! parameter and collect per-observatory outcomes — the harness behind
//! "what would the observatories have reported if X had been
//! different?" questions (SAV strength, takedown depth, growth rates).
//!
//! Grid points run concurrently on the shared execution pool (each
//! study is independent and internally deterministic); each point's
//! study fans out on a pool of the same `workers` width, and the
//! stateless pool is reentrant.
//!
//! Every mutated grid point is re-validated before execution: `apply`
//! is an arbitrary closure, so it can push a copy of the base config
//! outside its invariants (e.g. sweeping `sav_reduction` past 1.0).
//! Such points are skipped — recorded in [`SweepReport::skipped`] with
//! their typed error and warned about on stderr — instead of panicking
//! deep inside the generator and killing the whole grid. Runtime
//! failures (a grid point whose execution panics, including exhausted
//! chaos-injected faults) degrade the same way: the panic is caught at
//! the point boundary and becomes a skip entry, counted by the
//! `sweep.skipped` metric.

use crate::error::Error;
use crate::pipeline::{ObsId, StudyRun};
use crate::scenario::StudyConfig;
use analytics::Trend;
use serde::{Deserialize, Serialize};
use simcore::ExecPool;

/// Outcome of one sweep point for one observatory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// The swept parameter's value at this point.
    pub value: f64,
    pub observatory: String,
    pub observations: usize,
    pub trend: Trend,
    /// Fitted relative change over four years (the Table-1 statistic).
    /// NaN when the fit has no positive baseline to divide by (see
    /// [`analytics::relative_change_4y`]).
    pub change_4y: f64,
}

/// A grid point whose mutated config failed validation.
#[derive(Debug, Clone)]
pub struct SweepSkip {
    /// The swept parameter's value at the rejected point.
    pub value: f64,
    pub error: Error,
}

/// Outcomes of a full sweep: executed grid points in grid order, plus
/// the points skipped because `apply` produced an invalid config.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Per-(value, observatory) outcomes, ordered by grid value then
    /// by the caller's observatory order. Skipped values are absent.
    pub outcomes: Vec<SweepOutcome>,
    /// Grid points rejected by [`StudyConfig::validate`], in grid order.
    pub skipped: Vec<SweepSkip>,
}

/// Run the study once per parameter value and collect outcomes for the
/// requested observatories. `apply` mutates a copy of the base config
/// for each grid value.
///
/// Returns `Err` only when the *base* config is already invalid;
/// individual invalid grid points degrade into [`SweepReport::skipped`]
/// entries so one bad value cannot abort the rest of the grid.
pub fn sweep(
    base: &StudyConfig,
    values: &[f64],
    observatories: &[ObsId],
    apply: impl Fn(&mut StudyConfig, f64) + Sync,
) -> Result<SweepReport, Error> {
    base.validate()?;
    let pool = base.workers.map(ExecPool::new).unwrap_or_default();
    let results = pool.run_indexed(values.len(), |i| {
        let value = values[i];
        let mut cfg = base.clone();
        apply(&mut cfg, value);
        if let Err(error) = cfg.validate() {
            return Err(SweepSkip { value, error });
        }
        let run = match simcore::recover::capture(simcore::chaos::sites::SWEEP_POINT, || {
            StudyRun::execute(&cfg)
        }) {
            Ok(run) => run,
            Err(caught) => {
                return Err(SweepSkip {
                    value,
                    error: Error::analytics(format!("sweep point {value}"), caught.to_string()),
                })
            }
        };
        Ok(observatories
            .iter()
            .map(|&id| {
                let series = run.normalized_series(id);
                let change = series
                    .linear_regression()
                    .as_ref()
                    .and_then(analytics::relative_change_4y)
                    .unwrap_or(f64::NAN);
                SweepOutcome {
                    value,
                    observatory: id.name().to_string(),
                    observations: run.observations(id).len(),
                    trend: series.trend(),
                    change_4y: change,
                }
            })
            .collect::<Vec<SweepOutcome>>())
    });
    let mut report = SweepReport::default();
    for point in results {
        match point {
            Ok(outcomes) => report.outcomes.extend(outcomes),
            Err(skip) => {
                obs::metrics::counter("sweep.skipped").inc();
                obs::warn!(
                    "sweep: skipping grid value {}: {}",
                    skip.value,
                    skip.error
                );
                report.skipped.push(skip);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> StudyConfig {
        let mut cfg = StudyConfig::quick();
        cfg.gen.timeline.dp_base_per_week = 25.0;
        cfg.gen.timeline.ra_base_per_week = 40.0;
        cfg.gen.random_campaign_count = 0;
        cfg.gen.campaign_rate_scale = 0.0;
        cfg.missing_data = false;
        cfg
    }

    #[test]
    fn sweep_shape_and_order() {
        let values = [0.0, 0.4];
        let report = sweep(
            &tiny_base(),
            &values,
            &[ObsId::Hopscotch, ObsId::AmpPot],
            |cfg, v| cfg.gen.timeline.sav_reduction = v,
        )
        .unwrap();
        let out = &report.outcomes;
        assert!(report.skipped.is_empty());
        assert_eq!(out.len(), 4);
        // Ordered by grid value then observatory.
        assert_eq!(out[0].value, 0.0);
        assert_eq!(out[0].observatory, "Hopscotch");
        assert_eq!(out[3].value, 0.4);
        assert_eq!(out[3].observatory, "AmpPot");
    }

    #[test]
    fn sav_strength_flips_ra_trend() {
        // No SAV push ⇒ RA keeps its growth + recovery; a deep SAV push
        // drives the 4-year change down. The sweep must show the
        // monotone response.
        let values = [0.0, 0.6];
        let report = sweep(&tiny_base(), &values, &[ObsId::AmpPot], |cfg, v| {
            cfg.gen.timeline.sav_reduction = v;
        })
        .unwrap();
        let out = &report.outcomes;
        let change_at = |v: f64| {
            out.iter()
                .find(|o| o.value == v)
                .map(|o| o.change_4y)
                .unwrap()
        };
        assert!(
            change_at(0.0) > change_at(0.6) + 0.1,
            "no-SAV {:.2} vs deep-SAV {:.2}",
            change_at(0.0),
            change_at(0.6)
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let values = [0.2];
        let run_once = || {
            sweep(&tiny_base(), &values, &[ObsId::Ucsd], |cfg, v| {
                cfg.gen.timeline.sav_reduction = v;
            })
            .unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.outcomes[0].observations, b.outcomes[0].observations);
        assert_eq!(a.outcomes[0].change_4y, b.outcomes[0].change_4y);
    }

    #[test]
    fn invalid_grid_point_is_skipped_not_fatal() {
        // sav_reduction = 1.5 violates the [0, 1] invariant; the sweep
        // must keep the valid point and record the bad one.
        let values = [0.2, 1.5];
        let report = sweep(&tiny_base(), &values, &[ObsId::AmpPot], |cfg, v| {
            cfg.gen.timeline.sav_reduction = v;
        })
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].value, 0.2);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].value, 1.5);
        assert!(matches!(
            report.skipped[0].error,
            Error::Config { field: "gen.timeline.sav_reduction", .. }
        ));
    }

    #[test]
    fn runtime_panic_degrades_into_a_skip() {
        // A grid point whose execution dies (here: permanent injected
        // chaos, which exhausts every retry) must become a skip entry,
        // not kill the whole grid.
        use crate::faults::ChaosPlan;
        let values = [0.1, 0.3];
        let before = obs::metrics::counter("sweep.skipped").get();
        let report = sweep(&tiny_base(), &values, &[ObsId::AmpPot], |cfg, v| {
            cfg.gen.timeline.sav_reduction = v;
            if v == 0.3 {
                cfg.chaos = Some(ChaosPlan {
                    probability: 1.0,
                    failures_per_site: simcore::recover::MAX_ATTEMPTS,
                    seed: 7,
                });
            }
        })
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].value, 0.1);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].value, 0.3);
        assert!(
            report.skipped[0].error.to_string().contains("panic at"),
            "error should carry the captured panic: {}",
            report.skipped[0].error
        );
        assert!(obs::metrics::counter("sweep.skipped").get() > before);
    }

    #[test]
    fn invalid_base_is_an_error() {
        let mut base = tiny_base();
        base.gen.timeline.noise_sigma = f64::NAN;
        let err = sweep(&base, &[0.0], &[ObsId::Ucsd], |_, _| {}).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(matches!(
            err,
            Error::Config { field: "gen.timeline.noise_sigma", .. }
        ));
    }
}
