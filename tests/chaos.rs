//! Fault-injection acceptance suite (DESIGN.md §8): the degraded-mode
//! pipeline must stay deterministic and finite.
//!
//! * A fixed `FaultPlan` produces byte-identical output at any worker
//!   count and any stage-cache setting — including with recoverable
//!   control-plane chaos injected on top.
//! * An *empty* fault plan is bitwise inert: it consumes no randomness
//!   and touches no float path, so today's output reproduces exactly.
//! * An outage blacking out baseline weeks degrades into masked (NaN)
//!   weeks, never zero counts: normalization, trends, and correlations
//!   stay finite and the lost weeks are reported in the run manifest.
//!
//! Tests share the process-global metrics registry and stage cache, so
//! each runs under a test-unique seed and counter assertions measure
//! deltas.

mod common;

use common::output_fingerprint;
use ddoscovery::{ChaosPlan, FaultPlan, ObsId, OutageSpec, StudyConfig, StudyRun};

/// Silence the default panic printer for *injected* chaos panics (they
/// are caught and retried by design; the noise would drown real
/// failures). Anything else still reaches the previous hook.
fn quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("chaos:") {
                prev(info);
            }
        }));
    });
}

/// A small, fast study under a caller-chosen seed (unique per test).
fn tiny_cfg(seed: u64) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.seed = seed;
    cfg.gen.timeline.dp_base_per_week = 20.0;
    cfg.gen.timeline.ra_base_per_week = 30.0;
    cfg.gen.random_campaign_count = 0;
    cfg.gen.campaign_rate_scale = 0.0;
    cfg.missing_data = false;
    cfg
}

/// A representative fault plan touching all three data-plane fault
/// kinds: a telescope outage, honeypot fleet churn, flow degradation.
fn faulty_plan() -> FaultPlan {
    FaultPlan {
        outages: vec![
            OutageSpec {
                source: "ucsd".into(),
                start_week: 40,
                end_week: 55,
            },
            OutageSpec {
                source: "ixp".into(),
                start_week: 100,
                end_week: 110,
            },
        ],
        honeypot_churn: Some(ddoscovery::ChurnSpec {
            decline_per_year: 0.15,
            offline_weekly: 0.05,
        }),
        flow_degradation: Some(simcore::FlowDegradation {
            drop_fraction: 0.2,
            start_week: 120,
        }),
        seed: 0xFA17,
    }
}

/// The headline invariant: one fault plan, one seed ⇒ one output, no
/// matter how the work is scheduled or cached — even with recoverable
/// control-plane chaos injected into every stage and pool shard.
#[test]
fn faulted_output_is_invariant_across_workers_cache_and_chaos() {
    quiet_chaos_panics();
    let mut base = tiny_cfg(0xC4A0_5001);
    base.faults = faulty_plan();
    let reference = {
        let mut cfg = base.clone();
        cfg.workers = Some(1);
        cfg.stage_cache = Some(0);
        output_fingerprint(&StudyRun::execute(&cfg))
    };
    for workers in [1usize, 4, 8] {
        for cache in [0usize, 64] {
            for chaos in [None, Some(ChaosPlan::recoverable(0.3, 0xBAD))] {
                let mut cfg = base.clone();
                cfg.workers = Some(workers);
                cfg.stage_cache = Some(cache);
                cfg.chaos = chaos;
                let fp = output_fingerprint(&StudyRun::execute(&cfg));
                assert!(
                    fp == reference,
                    "output diverged at workers={workers} cache={cache} chaos={}",
                    chaos.is_some(),
                );
            }
        }
    }
    // The chaos runs above really did inject and recover faults.
    assert!(obs::metrics::counter("fault.injected").get() > 0);
    assert!(obs::metrics::counter("fault.recovered").get() > 0);
}

/// An empty fault plan is bitwise inert: even with a different fault
/// seed (which re-keys the observation stage fingerprint), the output
/// bytes are those of the default, fault-free study.
#[test]
fn empty_fault_plan_is_bitwise_inert() {
    let cfg = tiny_cfg(0xC4A0_5002);
    let baseline = output_fingerprint(&StudyRun::execute(&cfg));
    let mut reseeded = cfg.clone();
    reseeded.faults = FaultPlan {
        seed: 0xDEAD_BEEF,
        ..FaultPlan::default()
    };
    assert!(reseeded.faults.is_empty());
    assert!(
        output_fingerprint(&StudyRun::execute(&reseeded)) == baseline,
        "an empty fault plan must not perturb a single byte"
    );
}

/// An outage covering part of the 15-week normalization baseline must
/// degrade into masked weeks — the baseline slides to observed weeks,
/// every downstream statistic stays finite, and the manifest names the
/// lost weeks. Masked weeks are NaN, never zero counts.
#[test]
fn baseline_outage_degrades_gracefully() {
    let mut cfg = tiny_cfg(0xC4A0_5003);
    cfg.faults.outages.push(OutageSpec {
        source: "ucsd".into(),
        start_week: 5,
        end_week: 25,
    });
    let degraded_before = obs::metrics::counter("fault.degraded_weeks").get();
    let run = StudyRun::execute(&cfg);
    assert!(obs::metrics::counter("fault.degraded_weeks").get() >= degraded_before + 20);

    // The raw weekly series masks the outage as missing data.
    let weekly = run.weekly_series(ObsId::Ucsd);
    assert!(weekly.values[10].is_nan(), "outage weeks must be NaN");
    assert!(weekly.values[30].is_finite());
    assert_eq!(weekly.values.iter().filter(|v| v.is_nan()).count(), 20);

    // Normalization slides past the gap instead of dividing by a
    // poisoned baseline: present weeks stay finite and positive.
    let normalized = run.normalized_series(ObsId::Ucsd);
    let present: Vec<f64> = normalized
        .values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .collect();
    assert!(!present.is_empty());
    assert!(present.iter().all(|v| v.is_finite()));
    assert!(present.iter().any(|&v| v > 0.0));

    // Trend fitting and cross-observatory correlation operate on the
    // valid-week intersection and stay defined.
    assert!(normalized.linear_regression().is_some());
    let other = run.normalized_series(ObsId::Hopscotch);
    let corr = analytics::spearman(&normalized.values, &other.values)
        .expect("correlation over the valid-week intersection");
    assert!(corr.rho.is_finite());

    // The run manifest reports which weeks were degraded.
    let manifest = obs::manifest::RunManifest::capture(obs::manifest::RunInfo {
        scenario: "chaos-test".into(),
        seed: cfg.seed,
        workers: cfg.workers,
        config_hash: 0,
        stages: Default::default(),
        degraded_weeks: cfg.faults.degraded_weeks().into_iter().collect(),
    });
    let json = manifest.to_json();
    assert!(json.contains("\"degraded_weeks\""));
    assert!(json.contains("\"ucsd\""));
    let weeks = &manifest.run.degraded_weeks;
    assert_eq!(weeks.len(), 1);
    assert_eq!(weeks["ucsd"].len(), 20);
    assert!(manifest.summary_table().contains("degraded source"));
}

/// Permanent chaos (failures ≥ the retry budget) surfaces as the same
/// deterministic panic — lowest failing shard — for every worker count,
/// so even the *failure mode* is schedule-independent.
#[test]
fn permanent_chaos_fails_deterministically() {
    quiet_chaos_panics();
    let mut cfg = tiny_cfg(0xC4A0_5004);
    cfg.chaos = Some(ChaosPlan {
        probability: 1.0,
        failures_per_site: simcore::recover::MAX_ATTEMPTS,
        seed: 3,
    });
    let message_at = |workers: usize| {
        let mut cfg = cfg.clone();
        cfg.workers = Some(workers);
        match simcore::recover::capture("chaos-test", move || StudyRun::execute(&cfg)) {
            Ok(_) => panic!("permanent chaos must abort the run"),
            Err(caught) => caught.message,
        }
    };
    let serial = message_at(1);
    assert!(serial.contains("gave up after"), "message: {serial}");
    assert_eq!(serial, message_at(4), "failure must not depend on schedule");
}
