//! Scale probe: run the pipeline at a configurable attack volume and
//! report wall time, attacks/sec, and memory (process peak RSS plus
//! the resident bytes of the attack population itself). The
//! EXPERIMENTS.md bytes/attack numbers for the columnar refactor come
//! from this probe.
//!
//! ```text
//! # full generate → observe → project pipeline (peak-RSS baseline)
//! DDOS_SCALE_TARGET=10000000 cargo run --release --example scale_probe
//! # generation only (attacks/sec + population resident bytes)
//! DDOS_SCALE_STAGE=generate cargo run --release --example scale_probe
//! ```

use attackgen::AttackGenerator;
use ddoscovery::{ObsId, StudyConfig, StudyRun};
use netmodel::InternetPlan;
use simcore::{ExecPool, SimRng};

/// Approximate attack volume of `StudyConfig::paper()`, used to scale
/// the per-week base rates toward the requested target.
const PAPER_VOLUME: f64 = 600_000.0;

fn rss_mb() -> f64 {
    obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

fn config(target: f64) -> StudyConfig {
    let mut cfg = StudyConfig::paper();
    cfg.seed = 0x5CA1_AB1E;
    let scale = (target / PAPER_VOLUME).max(0.01);
    cfg.gen.timeline.dp_base_per_week *= scale;
    cfg.gen.timeline.ra_base_per_week *= scale;
    // One cold measured run: no cross-run reuse, no projection gaps.
    cfg.stage_cache = Some(0);
    cfg.missing_data = false;
    cfg
}

/// Generation only: attacks/sec of the generator plus the resident
/// size of the population itself (struct/column bytes + target arena).
fn probe_generate(cfg: &StudyConfig) {
    let root = SimRng::new(cfg.seed);
    let mut plan_rng = root.fork_named("plan");
    let plan = InternetPlan::build(&cfg.net, &mut plan_rng);
    let rss_plan = rss_mb();
    let watch = obs::Stopwatch::start();
    let attacks =
        AttackGenerator::new(&plan, cfg.gen.clone(), &root).generate_study_on(&ExecPool::global());
    let gen_secs = watch.elapsed_ns() as f64 / 1e9;
    let n = attacks.len();
    let resident = attacks.resident_bytes();
    let rss_gen = rss_mb();
    println!(
        "generate: {n} attacks in {gen_secs:.1}s ({:.0} attacks/s)",
        n as f64 / gen_secs.max(1e-9)
    );
    println!(
        "population resident: {:.0} MB ({:.1} bytes/attack analytic)",
        resident as f64 / (1024.0 * 1024.0),
        resident as f64 / n.max(1) as f64
    );
    println!(
        "generation peak: {rss_gen:.0} MB ({:.1} bytes/attack over the {rss_plan:.0} MB plan baseline)",
        (rss_gen - rss_plan) * 1024.0 * 1024.0 / n.max(1) as f64
    );
}

/// Full pipeline in one pass: generate → observe → every projection.
fn probe_pipeline(cfg: &StudyConfig) {
    let rss_start = rss_mb();
    let watch = obs::Stopwatch::start();
    let run = StudyRun::execute(cfg);
    let exec_secs = watch.elapsed_ns() as f64 / 1e9;
    let n = run.attacks.len();
    let observed: usize = ObsId::ALL.iter().map(|&id| run.observations(id).len()).sum();
    println!(
        "execute (generate+observe): {n} attacks in {exec_secs:.1}s ({:.0} attacks/s), {observed} observations",
        n as f64 / exec_secs.max(1e-9)
    );

    let watch = obs::Stopwatch::start();
    let mut cells = 0usize;
    for &id in &ObsId::ALL {
        cells += run.weekly_series(id).values.len();
        cells += run.target_tuples(id).len();
    }
    cells += run.netscout_baseline_tuples().len();
    cells += run.akamai_tuples().len();
    let proj_secs = watch.elapsed_ns() as f64 / 1e9;
    let rss_end = rss_mb();
    println!("project: {proj_secs:.2}s ({cells} cells)");
    for stage in ["plan", "attacks", "observe"] {
        let mb = obs::metrics::gauge(&format!("run.peak_rss.{stage}")).get() / (1024.0 * 1024.0);
        println!(
            "stage {stage}: peak RSS {mb:.0} MB ({:.1} bytes/attack)",
            (mb - rss_start) * 1024.0 * 1024.0 / n.max(1) as f64
        );
    }
    println!(
        "peak RSS: {rss_end:.0} MB — pipeline bytes/attack {:.1}",
        (rss_end - rss_start) * 1024.0 * 1024.0 / n.max(1) as f64
    );
}

fn main() {
    let target: f64 = std::env::var("DDOS_SCALE_TARGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000.0);
    let stage = std::env::var("DDOS_SCALE_STAGE").unwrap_or_else(|_| "pipeline".into());
    let cfg = config(target);
    println!("scale_probe: target ~{target:.0} attacks, stage {stage}");
    match stage.as_str() {
        "generate" => probe_generate(&cfg),
        _ => probe_pipeline(&cfg),
    }
}
