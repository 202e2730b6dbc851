//! The traced run (`--trace 1`): one iteration of a workload, taken
//! apart layer by layer, with the flight recorder armed.
//!
//! The benchmark measures the program from outside. It calls each
//! layer's public entry points one after another on one thread —
//! `InternetPlan::build`, `generate_study_on`, every observer's
//! `observe_into`/`observe_view` over all attack rows, carpet
//! reconstruction, the class split, the stage cache and store, the
//! projections, experiments, renderers and the service — each inside a
//! `bench.<layer>.<op>` span recorded by `obs::trace`. A layer's self
//! time is its spans' time minus their child spans' time; the program's
//! layers must cover at least 95% of the traced iteration's wall time.
//! The harness's own work (digests, the HTTP client) stays out of the
//! iteration or counts against that share.
//!
//! The decomposed iteration must produce the same output digest as the
//! program's own entry points (the reference run). After a warm-up it
//! runs untraced and traced in alternation, so the difference of their
//! medians is the tracing overhead.
//! Probes of the host copy bandwidth, the service's handlers and the
//! HTTP server under a rate ladder follow on the same study, so every
//! per-layer time is measured on every workload.

use crate::child;
use crate::loadgen::{self, Catalog, Req, ROUTES};
use crate::stats;
use crate::workloads::{self, Outcome, Params, Served, Workload};
use attackgen::{AttackColumns, AttackGenerator, ObservationColumns};
use ddoscovery::stagecache::{self, StageCache, StageFingerprints};
use ddoscovery::{DiskStore, ObsId, StudyConfig, StudyRun, StudyService};
use flowmon::{
    split_by_class_columns, Akamai, AlertColumns, IxpBlackholing, IxpDetection, Netscout,
};
use honeypot::{reconstruct_carpet_columns, Honeypot};
use netmodel::InternetPlan;
use obs::trace::{Event, Phase};
use serde::Value;
use simcore::{ExecPool, SimRng};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telescope::Telescope;

/// Name of the span around the traced iteration.
const ROOT: &str = "bench.iteration";

/// Ring capacity per trace lane; far above what one iteration records.
const LANE_CAPACITY: usize = 1 << 18;

/// (untraced, traced) iteration pairs behind `trace.overhead_pct`, the
/// difference of their medians.
const OVERHEAD_PAIRS: usize = 3;

/// Rates of the HTTP probe's ladder, in requests per second.
const LADDER: [u32; 5] = [250, 500, 1000, 2000, 4000];

/// Latency limit of the ladder's highest sustained rung.
const P99_LIMIT_MS: f64 = 20.0;

/// Every layer a `bench.<layer>.<op>` span can name, in report order.
/// The last, `bench`, is the harness itself; any other name counts as it.
const LAYERS: [&str; 15] = [
    "netmodel",
    "attackgen",
    "telescope",
    "honeypot",
    "flowmon",
    "stagecache",
    "diskstore",
    "pipeline",
    "project",
    "experiments",
    "render",
    "sweep",
    "service",
    "serve",
    "bench",
];

/// The eight source observatories and the span that runs each.
const OBSERVERS: [(&str, &str); 8] = [
    ("ucsd", "bench.telescope.ucsd"),
    ("orion", "bench.telescope.orion"),
    ("hopscotch", "bench.honeypot.hopscotch"),
    ("amppot", "bench.honeypot.amppot"),
    ("newkid", "bench.honeypot.newkid"),
    ("ixp", "bench.flowmon.ixp"),
    ("akamai", "bench.flowmon.akamai"),
    ("netscout", "bench.flowmon.netscout"),
];

/// Run `f` inside a span on this thread's trace lane (a no-op while the
/// recorder is disarmed).
fn span<T>(name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
    let _guard = obs::trace::Guard::new(name, None);
    f()
}

// ---------------------------------------------------------------------
// The pipeline, stage by stage
// ---------------------------------------------------------------------

/// Element size of a column, for bytes computed from lane widths.
fn width<T>(_: &[T]) -> u64 {
    std::mem::size_of::<T>() as u64
}

fn attack_bytes(a: &AttackColumns) -> u64 {
    let n = a.len() as u64;
    n * (width(&a.id)
        + width(&a.class)
        + width(&a.vector)
        + width(&a.start_secs)
        + width(&a.duration_secs)
        + width(&a.target_asn)
        + width(&a.pps)
        + width(&a.bps)
        + width(&a.reflector_count)
        + width(&a.spoof_space_fraction)
        + width(&a.campaign)
        + width(&a.target_offsets))
        + a.target_arena.len() as u64 * width(&a.target_arena)
}

fn observation_bytes(o: &ObservationColumns) -> u64 {
    o.len() as u64 * (width(&o.attack_id) + width(&o.start) + width(&o.target_offsets))
        + o.target_arena.len() as u64 * width(&o.target_arena)
}

/// What the observers did in one or more passes.
#[derive(Debug, Default, Clone)]
struct ObserveStats {
    /// Attacks generated (one generation pass per study).
    generated: u64,
    /// Attack rows each observer read, summed over passes.
    attacks: u64,
    /// Rows each observer kept (before carpet merge / class split).
    kept: [u64; 8],
    /// Bytes read and written, computed from lane widths.
    bytes: u64,
}

/// The observation stage's outputs.
struct Observed {
    streams: Vec<(ObsId, Arc<ObservationColumns>)>,
    alerts: Arc<AlertColumns>,
}

/// One plain observer over rows `0..n` into a fresh sink, in a span.
/// Generic, so each observer's per-row call is direct, as in the
/// program's own fan-out.
fn observe_rows(
    name: &'static str,
    n: usize,
    mut observe: impl FnMut(&mut ObservationColumns, usize),
) -> ObservationColumns {
    span(name, || {
        let mut out = ObservationColumns::new();
        for i in 0..n {
            observe(&mut out, i);
        }
        out
    })
}

/// Every observer over every attack row, then the ordered post-passes,
/// each in its own span.
fn observe(
    cfg: &StudyConfig,
    plan: &InternetPlan,
    attacks: &AttackColumns,
    stats: &mut ObserveStats,
) -> Observed {
    let obs_root = SimRng::new(cfg.seed).fork_named("observatories");
    let faults = |source: &str| cfg.faults.for_source(source);
    let n = attacks.len();
    let mut ucsd_t = Telescope::ucsd(plan);
    ucsd_t.faults = faults("ucsd");
    let ucsd = observe_rows("bench.telescope.ucsd", n, |out, i| {
        ucsd_t.observe_into(attacks.get(i), &obs_root, out);
    });
    let mut orion_t = Telescope::orion(plan);
    orion_t.faults = faults("orion");
    let orion = observe_rows("bench.telescope.orion", n, |out, i| {
        orion_t.observe_into(attacks.get(i), &obs_root, out);
    });
    let mut hop_h = Honeypot::hopscotch(plan);
    hop_h.faults = faults("hopscotch");
    let hop_raw = observe_rows("bench.honeypot.hopscotch", n, |out, i| {
        hop_h.observe_into(attacks.get(i), &obs_root, out);
    });
    let mut amp_h = Honeypot::amppot(plan);
    amp_h.faults = faults("amppot");
    let amp_raw = observe_rows("bench.honeypot.amppot", n, |out, i| {
        amp_h.observe_into(attacks.get(i), &obs_root, out);
    });
    let mut kid_h = Honeypot::newkid(plan);
    kid_h.faults = faults("newkid");
    let kid_raw = observe_rows("bench.honeypot.newkid", n, |out, i| {
        kid_h.observe_into(attacks.get(i), &obs_root, out);
    });
    let (ixp_ra, ixp_dp) = span("bench.flowmon.ixp", || {
        let mut ixp = IxpBlackholing::with_defaults(plan);
        ixp.faults = faults("ixp");
        let (mut ra, mut dp) = (ObservationColumns::new(), ObservationColumns::new());
        for i in 0..n {
            let a = attacks.get(i);
            match ixp.observe_view(a, &obs_root) {
                Some(IxpDetection::ReflectionAmplification) => {
                    ra.push_row(a.id, a.start, a.targets)
                }
                Some(IxpDetection::DirectPath) => dp.push_row(a.id, a.start, a.targets),
                None => {}
            }
        }
        (ra, dp)
    });
    let (ak_ra, ak_dp) = span("bench.flowmon.akamai", || {
        let mut akamai = Akamai::with_defaults(plan);
        akamai.faults = faults("akamai");
        let (mut ra, mut dp) = (ObservationColumns::new(), ObservationColumns::new());
        for i in 0..n {
            let a = attacks.get(i);
            let out = if a.class.is_reflection() {
                &mut ra
            } else {
                &mut dp
            };
            akamai.observe_into(a, &obs_root, out);
        }
        (ra, dp)
    });
    let alerts = span("bench.flowmon.netscout", || {
        let mut netscout = Netscout::with_defaults(plan);
        netscout.faults = faults("netscout");
        let mut out = AlertColumns::new();
        for i in 0..n {
            let a = attacks.get(i);
            if let Some((class, severity)) = netscout.observe_view(a, &obs_root) {
                out.push(a, class, severity);
            }
        }
        out
    });

    let outputs = [
        &ucsd,
        &orion,
        &hop_raw,
        &amp_raw,
        &kid_raw,
        &ixp_ra,
        &ixp_dp,
        &ak_ra,
        &ak_dp,
        &alerts.obs,
    ];
    let kept = [
        ucsd.len(),
        orion.len(),
        hop_raw.len(),
        amp_raw.len(),
        kid_raw.len(),
        ixp_ra.len() + ixp_dp.len(),
        ak_ra.len() + ak_dp.len(),
        alerts.len(),
    ];
    stats.attacks += n as u64;
    for (total, k) in stats.kept.iter_mut().zip(kept) {
        *total += k as u64;
    }
    stats.bytes += 8 * attack_bytes(attacks)
        + outputs.iter().map(|o| observation_bytes(o)).sum::<u64>()
        + alerts.len() as u64 * (width(&alerts.class) + width(&alerts.severity));

    let gap = i64::from(cfg.obs.carpet_gap_secs);
    let (hopscotch, amppot, newkid) = span("bench.honeypot.carpet", || {
        (
            reconstruct_carpet_columns(plan, &hop_raw, gap),
            reconstruct_carpet_columns(plan, &amp_raw, gap),
            reconstruct_carpet_columns(plan, &kid_raw, gap),
        )
    });
    let (ns_ra, ns_dp) = span("bench.flowmon.split", || split_by_class_columns(&alerts));
    let streams = [
        (ObsId::Orion, orion),
        (ObsId::Ucsd, ucsd),
        (ObsId::NetscoutDp, ns_dp),
        (ObsId::AkamaiDp, ak_dp),
        (ObsId::IxpDp, ixp_dp),
        (ObsId::Hopscotch, hopscotch),
        (ObsId::AmpPot, amppot),
        (ObsId::NetscoutRa, ns_ra),
        (ObsId::AkamaiRa, ak_ra),
        (ObsId::IxpRa, ixp_ra),
        (ObsId::NewKid, newkid),
    ];
    let mut alerts = alerts;
    alerts.shrink_to_fit();
    Observed {
        streams: streams
            .into_iter()
            .map(|(id, mut s)| {
                s.shrink_to_fit();
                (id, Arc::new(s))
            })
            .collect(),
        alerts: Arc::new(alerts),
    }
}

/// One study's stage outputs, computed layer by layer on this thread.
struct Stages {
    plan: Arc<InternetPlan>,
    attacks: Arc<AttackColumns>,
    observed: Observed,
}

fn stages(cfg: &StudyConfig, stats: &mut ObserveStats) -> Stages {
    let root = SimRng::new(cfg.seed);
    let plan = span("bench.netmodel.plan", || {
        Arc::new(InternetPlan::build(&cfg.net, &mut root.fork_named("plan")))
    });
    let attacks = span("bench.attackgen.generate", || {
        Arc::new(
            AttackGenerator::new(&plan, cfg.gen.clone(), &root)
                .generate_study_on(&ExecPool::serial()),
        )
    });
    stats.generated += attacks.len() as u64;
    let observed = observe(cfg, &plan, &attacks, stats);
    Stages {
        plan,
        attacks,
        observed,
    }
}

/// Hand stage outputs to the in-memory stage cache under `cfg`'s keys.
fn adopt(
    cfg: &StudyConfig,
    plan: &Arc<InternetPlan>,
    attacks: &Arc<AttackColumns>,
    observed: &Observed,
) {
    span("bench.stagecache.adopt", || {
        let (cache, bound, fp) = (
            StageCache::global(),
            stagecache::resolve_bound(cfg),
            StageFingerprints::of(cfg),
        );
        cache.adopt_plan(bound, fp.plan, Arc::clone(plan));
        cache.adopt_attacks(bound, fp.attacks, Arc::clone(attacks));
        adopt_observations(cfg, observed);
    })
}

fn adopt_observations(cfg: &StudyConfig, observed: &Observed) {
    let (cache, bound, fp) = (
        StageCache::global(),
        stagecache::resolve_bound(cfg),
        StageFingerprints::of(cfg),
    );
    for (id, stream) in &observed.streams {
        cache.adopt_observations(bound, fp.observation(*id), Arc::clone(stream));
    }
    cache.adopt_alerts(bound, fp.netscout_alerts, Arc::clone(&observed.alerts));
}

/// A `StudyRun` over the adopted stages (every lookup a memory hit).
fn assemble(cfg: &StudyConfig) -> Result<StudyRun, String> {
    span("bench.pipeline.assemble", || StudyRun::try_execute(cfg)).map_err(|e| e.to_string())
}

/// Every projection, one kind per span (each memoizes in the run).
pub(crate) fn project(run: &StudyRun) {
    span("bench.project.weekly", || {
        for id in ObsId::ALL {
            let _ = run.weekly_series(id);
        }
    });
    span("bench.project.normalized", || {
        for id in ObsId::ALL {
            let _ = run.normalized_series(id);
        }
    });
    span("bench.project.tuples", || {
        for id in ObsId::ALL {
            let _ = run.target_tuples(id);
        }
    });
    span("bench.project.baseline", || {
        let _ = run.netscout_baseline_tuples();
    });
    span("bench.project.akamai", || {
        let _ = run.akamai_tuples();
    });
}

fn store_all(store: &DiskStore, cfg: &StudyConfig, s: &Stages) {
    span("bench.diskstore.store", || {
        let fp = StageFingerprints::of(cfg);
        store.store_plan(fp.plan, &s.plan);
        store.store_attacks(fp.attacks, &s.attacks);
        for (id, stream) in &s.observed.streams {
            store.store_observations(fp.observation(*id), stream);
        }
        store.store_alerts(fp.netscout_alerts, &s.observed.alerts);
    })
}

fn load_all(store: &DiskStore, cfg: &StudyConfig) -> Result<Stages, String> {
    span("bench.diskstore.load", || {
        let fp = StageFingerprints::of(cfg);
        let missing = || format!("store {} is missing a cell", store.dir().display());
        let plan = store.load_plan(fp.plan).ok_or_else(missing)?;
        let attacks = store.load_attacks(fp.attacks).ok_or_else(missing)?;
        let streams = ObsId::ALL
            .iter()
            .map(|&id| {
                Ok((
                    id,
                    store
                        .load_observations(fp.observation(id))
                        .ok_or_else(missing)?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let alerts = store.load_alerts(fp.netscout_alerts).ok_or_else(missing)?;
        Ok(Stages {
            plan,
            attacks,
            observed: Observed { streams, alerts },
        })
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

// ---------------------------------------------------------------------
// Decomposed iterations
// ---------------------------------------------------------------------

/// What a decomposed iteration leaves behind.
#[derive(Debug, Default)]
struct Decomposed {
    digest: u64,
    /// Wall time of the iteration proper (the root span).
    wall_s: f64,
    observe: ObserveStats,
    written_bytes: u64,
    read_bytes: u64,
    /// Served responses that differ from a direct handler call.
    mismatches: u64,
}

/// `cfg` with the stage cache on, so adopted stages assemble into a run.
/// The bound is execution-only: no output byte depends on it.
fn cached(cfg: &StudyConfig) -> StudyConfig {
    let mut c = cfg.clone();
    c.stage_cache = Some(stagecache::DEFAULT_BOUND);
    c
}

fn decomposed(w: Workload, cfg: &StudyConfig, dir: &Path) -> Result<Decomposed, String> {
    StageCache::global().clear();
    let _ = std::fs::remove_dir_all(dir);
    let cfg = &cached(cfg);
    let mut d = Decomposed::default();
    let root = |d: &mut Decomposed, f: &mut dyn FnMut(&mut Decomposed) -> Result<(), String>| {
        let t = Instant::now();
        let r = span(ROOT, || f(d));
        d.wall_s = t.elapsed().as_secs_f64();
        r
    };
    match w {
        Workload::RunQuick => root(&mut d, &mut |d| {
            let s = stages(cfg, &mut d.observe);
            adopt(cfg, &s.plan, &s.attacks, &s.observed);
            drop(s);
            let run = assemble(cfg)?;
            project(&run);
            let results: Vec<_> = workloads::batch_experiments()
                .map(|id| {
                    span(format!("bench.experiments.{id}"), || {
                        ddoscovery::run_experiment(&run, id)
                    })
                    .ok_or_else(|| format!("experiment {id} is not registered"))
                })
                .collect::<Result<_, String>>()?;
            span("bench.render.csv_write", || {
                workloads::write_results(&results, &dir.join("results"))
            })?;
            d.digest = workloads::experiments_digest(&results);
            Ok(())
        })?,
        Workload::PopulationStore => root(&mut d, &mut |d| {
            let store = DiskStore::open(dir.join("store"));
            let s = stages(cfg, &mut d.observe);
            store_all(&store, cfg, &s);
            drop(s);
            d.written_bytes = dir_bytes(store.dir());
            let loaded = load_all(&store, cfg)?;
            d.read_bytes = d.written_bytes;
            adopt(cfg, &loaded.plan, &loaded.attacks, &loaded.observed);
            drop(loaded);
            let run = assemble(cfg)?;
            project(&run);
            span("bench.render.trends", || {
                drop(ddoscovery::render::trends_table(&run))
            });
            d.digest = workloads::projection_digest(&run);
            Ok(())
        })?,
        Workload::SweepObs => {
            // Set-up, outside the root: the base study into the cache,
            // assembled and projected, so that the assembly and projection
            // times are measured on this workload too.
            let s = stages(cfg, &mut d.observe);
            adopt(cfg, &s.plan, &s.attacks, &s.observed);
            drop(s);
            project(&assemble(cfg)?);
            root(&mut d, &mut |d| {
                let cache = StageCache::global();
                for gap in workloads::sweep_gaps(1) {
                    let mut point = cfg.clone();
                    point.obs.carpet_gap_secs = gap as u32;
                    let (bound, fp) = (
                        stagecache::resolve_bound(&point),
                        StageFingerprints::of(&point),
                    );
                    let (plan, attacks) = span("bench.stagecache.lookup", || {
                        (
                            cache.get_plan(bound, fp.plan),
                            cache.get_attacks(bound, fp.attacks),
                        )
                    });
                    let (Some(plan), Some(attacks)) = (plan, attacks) else {
                        return Err("sweep point missed the plan/attack cache".into());
                    };
                    let observed = observe(&point, &plan, &attacks, &mut d.observe);
                    span("bench.stagecache.adopt", || {
                        adopt_observations(&point, &observed)
                    });
                }
                let report = span("bench.sweep.outcomes", || {
                    workloads::sweep_iteration(cfg, 1)
                })?;
                d.digest = workloads::sweep_digest(&report);
                Ok(())
            })?
        }
        Workload::ServeOpen => {
            // Priming, outside the root: compute and store every stage.
            let store = DiskStore::open(dir.join("store"));
            let s = stages(cfg, &mut d.observe);
            store_all(&store, cfg, &s);
            adopt(cfg, &s.plan, &s.attacks, &s.observed);
            drop(s);
            let urls = Catalog {
                series: workloads::series_urls(),
                experiments: workloads::experiment_urls(&assemble(cfg)?),
                etags: Vec::new(),
            }
            .urls();
            StageCache::global().clear();
            d.written_bytes = dir_bytes(store.dir());
            // The serve child's set-up: warm boot, the service's pre-warm
            // (handler calls, without the client's sockets), bind and
            // drain. Requests over HTTP are the rate ladder's probe.
            root(&mut d, &mut |d| {
                let loaded = load_all(&store, cfg)?;
                d.read_bytes = d.written_bytes;
                adopt(cfg, &loaded.plan, &loaded.attacks, &loaded.observed);
                drop(loaded);
                let run = assemble(cfg)?;
                project(&run);
                let service = span("bench.service.new", || {
                    Arc::new(StudyService::new(run, cfg, "paper"))
                });
                d.mismatches = span("bench.service.prewarm", || {
                    use serve::Handler;
                    let ok = |url: &String| {
                        service.handle(&Req::get(url.clone()).parsed()).status == 200
                    };
                    urls.iter().filter(|url| !ok(url)).count() as u64
                });
                let served = span("bench.serve.bind", || Served::start(service))?;
                span("bench.serve.drain", || served.stop());
                Ok(())
            })?;
            // The output check, outside the iteration: a run over the
            // same adopted stages.
            let run = StudyRun::try_execute(cfg).map_err(|e| e.to_string())?;
            d.digest = workloads::projection_digest(&run);
        }
    }
    Ok(d)
}

// ---------------------------------------------------------------------
// Reference runs through the program's own entry points
// ---------------------------------------------------------------------

/// The workload's operation through its public entry points, untraced,
/// with the registry zeroed at its start. Returns `(digest, wall_s)`.
fn reference(w: Workload, cfg: &StudyConfig, dir: &Path) -> Result<(u64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    StageCache::global().clear();
    let err = |e: ddoscovery::Error| e.to_string();
    let mut with_store = cfg.clone();
    with_store.disk_store = Some(dir.join("store").display().to_string());
    let reset = || obs::metrics::global().reset();
    match w {
        Workload::RunQuick => {
            reset();
            let t = Instant::now();
            let digest = workloads::reproduction_job(cfg, &dir.join("results"))?;
            Ok((digest, t.elapsed().as_secs_f64()))
        }
        Workload::PopulationStore => {
            reset();
            let t = Instant::now();
            let a = StudyRun::try_execute(&with_store).map_err(err)?;
            project(&a);
            let digest_a = workloads::projection_digest(&a);
            drop(a);
            StageCache::global().clear();
            let b = StudyRun::try_execute(&with_store).map_err(err)?;
            project(&b);
            let digest = workloads::projection_digest(&b);
            if digest != digest_a {
                return Err("population: warm run differs from cold run".into());
            }
            Ok((digest, t.elapsed().as_secs_f64()))
        }
        Workload::SweepObs => {
            drop(StudyRun::try_execute(cfg).map_err(err)?);
            workloads::sweep_iteration(cfg, 0)?;
            reset();
            let t = Instant::now();
            let report = workloads::sweep_iteration(cfg, 1)?;
            Ok((workloads::sweep_digest(&report), t.elapsed().as_secs_f64()))
        }
        Workload::ServeOpen => {
            drop(StudyRun::try_execute(&with_store).map_err(err)?);
            StageCache::global().clear();
            reset();
            let t = Instant::now();
            let run = StudyRun::try_execute(&with_store).map_err(err)?;
            project(&run);
            Ok((
                workloads::projection_digest(&run),
                t.elapsed().as_secs_f64(),
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Self-time analysis
// ---------------------------------------------------------------------

/// Span times of one trace lane.
#[derive(Debug, Default, Clone, PartialEq)]
struct SpanTimes {
    /// Inclusive seconds per span name, over the whole lane.
    total: BTreeMap<String, f64>,
    /// Self seconds per span name, inside the root span only.
    self_by_name: BTreeMap<String, f64>,
    /// Self seconds per layer (`bench.<layer>.…`), inside the root only.
    self_by_layer: BTreeMap<String, f64>,
    /// Duration of the root span.
    root_s: f64,
}

impl SpanTimes {
    fn total(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }

    /// Share of the root's wall time spent in layers other than the
    /// harness itself.
    fn coverage(&self) -> f64 {
        let harness = self.self_by_layer.get("bench").copied().unwrap_or(0.0);
        if self.root_s > 0.0 {
            1.0 - harness / self.root_s
        } else {
            0.0
        }
    }
}

/// The program layer a `bench.<layer>.<op>` span belongs to; the root
/// span and any span naming no layer of [`LAYERS`] are the harness
/// (`bench`), whose time does not count toward coverage.
fn layer(name: &str) -> &str {
    match name.split('.').nth(1) {
        Some(l) if name != ROOT && LAYERS.contains(&l) => l,
        _ => "bench",
    }
}

/// Self time of every `bench.*` span on one lane: its duration minus
/// the time covered by its direct `bench.*` children. Spans the program
/// records itself count toward the bench span around them.
fn span_times(events: &[Event]) -> SpanTimes {
    let mut t = SpanTimes::default();
    // (name, start ns, child ns)
    let mut open: Vec<(&str, u64, u64)> = Vec::new();
    let mut in_root = 0usize;
    for ev in events.iter().filter(|e| e.name.starts_with("bench.")) {
        match ev.phase {
            Phase::Begin => {
                if ev.name == ROOT {
                    in_root += 1;
                }
                open.push((&ev.name, ev.ts_ns, 0));
            }
            Phase::End => {
                let Some((name, start, child)) = open.pop() else {
                    continue;
                };
                let dur = ev.ts_ns.saturating_sub(start);
                let secs = |ns: u64| ns as f64 / 1e9;
                *t.total.entry(name.to_string()).or_default() += secs(dur);
                if in_root > 0 {
                    let own = secs(dur.saturating_sub(child));
                    *t.self_by_name.entry(name.to_string()).or_default() += own;
                    *t.self_by_layer.entry(layer(name).to_string()).or_default() += own;
                }
                if name == ROOT {
                    in_root -= 1;
                    t.root_s += secs(dur);
                }
                if let Some(parent) = open.last_mut() {
                    parent.2 += dur;
                }
            }
            Phase::Instant => {}
        }
    }
    t
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

/// Direct handler calls per timed batch. A memo hit takes well under a
/// microsecond, close to the cost of reading the clock, so calls are
/// timed in batches rather than one by one.
const HANDLER_BATCH: usize = 50;

/// Median over `batches` batches of the mean wall time of a direct
/// handler call, in microseconds, after one call that fills the response
/// memo.
fn handler_us(service: &StudyService, req: &serve::Request, batches: usize) -> f64 {
    use serve::Handler;
    drop(service.handle(req));
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..HANDLER_BATCH {
                std::hint::black_box(service.handle(std::hint::black_box(req)));
            }
            t.elapsed().as_secs_f64() * 1e6 / HANDLER_BATCH as f64
        })
        .collect();
    stats::median(&times)
}

/// The service and HTTP server over the study in the stage cache:
/// direct handler calls per route, then the rate ladder.
fn serve_probe(cfg: &StudyConfig, seed: u64, smoke: bool, m: &mut Metrics) -> Result<u64, String> {
    let run = StudyRun::try_execute(cfg).map_err(|e| e.to_string())?;
    let experiments = workloads::experiment_urls(&run);
    let service = Arc::new(StudyService::new(run, cfg, "paper"));
    let trends = Req::get("/v1/trends");
    let tag = {
        use serve::Handler;
        let resp = service.handle(&trends.parsed());
        resp.headers
            .iter()
            .find(|(n, _)| n == "ETag")
            .map(|(_, v)| v.clone())
    };
    let routes = [
        trends.clone(),
        Req::get("/v1/series/ucsd?norm=1"),
        Req::get("/v1/experiments/fig2"),
        Req::get("/v1/manifest"),
        Req {
            target: "/v1/trends".into(),
            etag: tag,
        },
        Req::get("/healthz"),
    ];
    for (route, req) in ROUTES.iter().zip(&routes) {
        m.set(
            &format!("service.{route}.busy_us"),
            handler_us(&service, &req.parsed(), 40),
        );
    }

    let counter = |name: &str| obs::metrics::counter(name).get();
    let accepted = counter("http.accepted");
    let served = Served::start(service)?;
    let catalog = workloads::prewarm(served.addr, experiments)?;
    let reqs = loadgen::mix(seed, workloads::MIX_LEN, &catalog);
    let handler_ms: Vec<f64> = reqs
        .iter()
        .take(if smoke { 50 } else { 500 })
        .map(|r| handler_us(&served.service, &r.parsed(), 1) / 1e3)
        .collect();
    let mut mismatches = 0;
    let mut max_rate = 0.0;
    for rate in LADDER {
        let seconds = if smoke {
            0.25
        } else {
            (1000.0 / rate as f64).max(1.0)
        };
        let rung = loadgen::open_loop(
            served.addr,
            &reqs,
            rate as f64,
            Duration::from_secs_f64(seconds),
            workloads::GENERATORS,
        );
        mismatches += workloads::verify_bodies(&served.service, &reqs, &rung.samples);
        let lat = rung.latencies_ms();
        let late: Vec<f64> = rung.samples.iter().map(|s| s.late_ms).collect();
        let (p50, p99) = if lat.is_empty() {
            (0.0, 0.0)
        } else {
            (stats::percentile(&lat, 50.0), stats::percentile(&lat, 99.0))
        };
        m.set(&format!("loadgen.p50_ms.r{rate}"), p50);
        m.set(&format!("loadgen.p99_ms.r{rate}"), p99);
        m.set(
            &format!("loadgen.late_ms.p99.r{rate}"),
            if late.is_empty() {
                0.0
            } else {
                stats::percentile(&late, 99.0)
            },
        );
        m.set(
            &format!("loadgen.completed_ratio.r{rate}"),
            rung.completed_ratio(),
        );
        if !lat.is_empty() && p99 <= P99_LIMIT_MS && rung.completed_ratio() >= 0.95 {
            max_rate = rate as f64;
        }
        if rate == LADDER[0] {
            let connect: Vec<f64> = rung.samples.iter().map(|s| s.connect_ms).collect();
            m.set("serve.overhead_ms.p50", p50 - stats::median(&handler_ms));
            m.set(
                "serve.connect_ms.p50",
                if connect.is_empty() {
                    0.0
                } else {
                    stats::median(&connect)
                },
            );
        }
    }
    m.set("loadgen.max_rate_rps", max_rate);
    let drain = served.stop();
    if !drain.drained {
        mismatches += 1;
    }
    m.set(
        "serve.accepted",
        (counter("http.accepted") - accepted) as f64,
    );
    Ok(mismatches)
}

// ---------------------------------------------------------------------
// The traced child
// ---------------------------------------------------------------------

/// Per-layer metric values by name.
#[derive(Debug, Default)]
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// The traced run of one workload, in a child of its own.
pub fn measure(w: Workload, p: &Params) -> Outcome {
    let dir = p
        .out
        .join("work")
        .join(format!("trace-{}-{}", w.name(), std::process::id()));
    let trace_path = p
        .out
        .join(format!("{}.seed{}.trace.json", w.name(), p.seed));
    let args = vec![
        "trace".to_string(),
        p.seed.to_string(),
        if p.smoke { "1" } else { "0" }.to_string(),
        dir.display().to_string(),
        format!("{} {}", w.name(), trace_path.display()),
    ];
    let run = child::run(&args, Duration::from_secs(170));
    let _ = std::fs::remove_dir_all(&dir);
    let flag = |key: &str| {
        matches!(
            run.report.as_ref().and_then(|r| r.get(key)),
            Some(Value::Bool(true))
        )
    };
    let mismatches = run.num("mismatch").unwrap_or(0.0) as u64;
    let mut notes = Vec::new();
    if run.ok {
        if !flag("digests_agree") {
            notes.push(format!(
                "{}: the decomposed pipeline's digest differs from the program's",
                w.name()
            ));
        }
        if !flag("covered") {
            notes.push(format!(
                "{}: layers cover less than 95% of the traced wall time",
                w.name()
            ));
        }
        notes.extend(run.text("memcpy_note"));
        notes.push(format!(
            "{}: Chrome trace written to {}",
            w.name(),
            trace_path.display()
        ));
    }
    let metrics = match run.report.as_ref().and_then(|r| r.get("metrics")) {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), crate::spec::number(Some(v))?)))
            .collect(),
        _ => Vec::new(),
    };
    Outcome {
        workload: w,
        correct: run.ok && flag("digests_agree") && flag("covered") && mismatches == 0,
        attempted: 1,
        failed: u64::from(!run.ok) + mismatches,
        metrics,
        digest: run
            .text("digest")
            .and_then(|d| u64::from_str_radix(&d, 16).ok()),
        summaries: Vec::new(),
        notes,
    }
}

/// Entry point of `benchmark child trace SEED SMOKE DIR "WORKLOAD TRACE_PATH"`.
pub(crate) fn trace_child(seed: u64, smoke: bool, dir: &Path, arg: &str) -> Result<(), String> {
    let (name, trace_path) = arg
        .split_once(' ')
        .ok_or("trace: expected WORKLOAD TRACE_PATH")?;
    let w = Workload::parse(name).ok_or_else(|| format!("trace: unknown workload {name:?}"))?;
    let cfg = workloads::study_config(w, seed, smoke);
    child::ready();

    // 1. The reference: the program's own entry points, registry zeroed.
    let (ref_digest, ref_wall) = reference(w, &cfg, &dir.join("reference"))?;
    let registry = obs::metrics::global().snapshot();

    // 2. The decomposed iteration: a warm-up (the first one in a process
    //    also pays for faulting its memory in), then untraced and traced
    //    in alternation. The last traced one is the one analysed.
    let plain_dir = dir.join("plain");
    let mut digests_agree = decomposed(w, &cfg, &plain_dir)?.digest == ref_digest;
    let (mut plain_s, mut traced_s, mut mismatches) = (Vec::new(), Vec::new(), 0);
    let mut traced = Decomposed::default();
    for _ in 0..OVERHEAD_PAIRS {
        let plain = decomposed(w, &cfg, &plain_dir)?;
        obs::trace::clear();
        obs::trace::enable(LANE_CAPACITY);
        let t = decomposed(w, &cfg, &dir.join("traced"));
        obs::trace::disable();
        traced = t?;
        digests_agree &= plain.digest == ref_digest && traced.digest == ref_digest;
        mismatches += plain.mismatches + traced.mismatches;
        plain_s.push(plain.wall_s);
        traced_s.push(traced.wall_s);
    }
    let lane = obs::trace::current_lane().ok_or("trace: the main thread recorded nothing")?;
    let events = obs::trace::snapshot()
        .into_iter()
        .find(|(id, _)| *id == lane)
        .map(|(_, e)| e)
        .unwrap_or_default();
    let times = span_times(&events);
    obs::trace::export_to_file(trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
    obs::trace::clear();

    // 3. Probes on the same study.
    let host = stats::Host::detect();
    // Smoke runs are functional tests: they copy 64 MiB, not 4× the LLC.
    let array = if smoke {
        stats::memcpy_array_bytes(0)
    } else {
        stats::memcpy_array_bytes(host.llc_bytes)
    };
    let (memcpy, array_bytes) = stats::memcpy_gb_s(array);
    let mut m = Metrics::default();
    mismatches += serve_probe(&cached(&cfg), seed, smoke, &mut m)?;

    // Pipeline stages (inclusive span time over the traced iteration).
    m.set("netmodel.plan.busy_s", times.total("bench.netmodel.plan"));
    let generate = times.total("bench.attackgen.generate");
    m.set("attackgen.generate.busy_s", generate);
    let mut observe_s = 0.0;
    for (o, span_name) in OBSERVERS {
        let busy = times.total(span_name);
        observe_s += busy;
        m.set(&format!("observe.{o}.busy_s"), busy);
    }
    m.set(
        "honeypot.carpet.busy_s",
        times.total("bench.honeypot.carpet"),
    );
    m.set("flowmon.split.busy_s", times.total("bench.flowmon.split"));
    m.set(
        "pipeline.assemble.busy_s",
        times.total("bench.pipeline.assemble"),
    );
    for kind in ["weekly", "normalized", "tuples", "baseline", "akamai"] {
        m.set(
            &format!("project.{kind}.busy_s"),
            times.total(&format!("bench.project.{kind}")),
        );
    }
    m.set(
        "attackgen.attacks_per_s",
        traced.observe.generated as f64 / generate,
    );
    for (i, (o, _)) in OBSERVERS.iter().enumerate() {
        m.set(
            &format!("observe.{o}.kept_ratio"),
            traced.observe.kept[i] as f64 / traced.observe.attacks as f64,
        );
    }
    let lane_mb_s = traced.observe.bytes as f64 / 1e6 / observe_s;
    m.set("observe.lane_mb_s", lane_mb_s);
    m.set("observe.pct_of_memcpy", pct(lane_mb_s / 1e3, memcpy));
    m.set("host.memcpy_gb_s", memcpy);

    // Layer shares of the traced iteration.
    for l in LAYERS {
        m.set(
            &format!("self_pct.{l}"),
            pct(
                times.self_by_layer.get(l).copied().unwrap_or(0.0),
                times.root_s,
            ),
        );
    }
    m.set("trace.wall_s", times.root_s);
    m.set("trace.coverage_pct", 100.0 * times.coverage());
    let (plain_s, traced_s) = (stats::median(&plain_s), stats::median(&traced_s));
    m.set("trace.overhead_pct", pct(traced_s - plain_s, plain_s));

    // Registry counters of the reference run.
    let counter = |name: &str| registry.counters.get(name).copied().unwrap_or(0) as f64;
    let busy_ns = registry
        .histograms
        .get("pool.worker_busy_ns")
        .map(|h| h.sum)
        .unwrap_or(0) as f64;
    m.set("pool.tasks", counter("pool.tasks"));
    m.set(
        "pool.worker_busy_pct",
        pct(busy_ns / 1e9, ref_wall * host.nproc as f64),
    );
    m.set(
        "pool.imbalance",
        registry
            .gauges
            .get("pool.imbalance")
            .copied()
            .unwrap_or(0.0),
    );
    // Observation hits are left out: no workload repeats an observation
    // config, so they would read 0 everywhere; `reuse_ratio` counts them.
    let (mut hits, mut computed) = (0.0, 0.0);
    for stage in ["plan", "attacks", "observations"] {
        let (h, c) = (
            counter(&format!("stage.{stage}.hit")),
            counter(&format!("stage.{stage}.computed")),
        );
        if stage != "observations" {
            m.set(&format!("stagecache.{stage}.hit"), h);
        }
        m.set(&format!("stagecache.{stage}.computed"), c);
        hits += h;
        computed += c;
    }
    m.set(
        "stagecache.reuse_ratio",
        if hits + computed > 0.0 {
            hits / (hits + computed)
        } else {
            0.0
        },
    );

    // The persistent store, from the decomposed iteration's own IO.
    let (store_s, load_s) = (
        times.total("bench.diskstore.store"),
        times.total("bench.diskstore.load"),
    );
    let rate = |bytes: u64, s: f64| if s > 0.0 { bytes as f64 / 1e6 / s } else { 0.0 };
    m.set("diskstore.write_mb", traced.written_bytes as f64 / 1e6);
    m.set("diskstore.read_mb", traced.read_bytes as f64 / 1e6);
    m.set("diskstore.store_mb_s", rate(traced.written_bytes, store_s));
    let load_mb_s = rate(traced.read_bytes, load_s);
    m.set("diskstore.load_mb_s", load_mb_s);
    m.set("diskstore.load.pct_of_memcpy", pct(load_mb_s / 1e3, memcpy));

    for id in workloads::batch_experiments() {
        let own = times
            .self_by_name
            .get(&format!("bench.experiments.{id}"))
            .copied()
            .unwrap_or(0.0);
        m.set(&format!("experiments.{id}.pct"), pct(own, times.root_s));
    }

    let covered = times.coverage() >= 0.95;
    let _ = std::fs::remove_dir_all(dir);
    child::report(vec![
        ("digest", Value::Str(format!("{ref_digest:016x}"))),
        ("digests_agree", Value::Bool(digests_agree)),
        ("covered", Value::Bool(covered)),
        ("mismatch", Value::UInt(mismatches)),
        (
            "memcpy_note",
            Value::Str(format!(
                "host.memcpy_gb_s copied between two arrays of {} MB each (LLC {} MB)",
                array_bytes / 1_000_000,
                host.llc_bytes / 1_000_000
            )),
        ),
        (
            "metrics",
            Value::Object(m.0.into_iter().map(|(k, v)| (k, Value::Float(v))).collect()),
        ),
    ]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seconds: u64, phase: Phase, name: &'static str) -> Event {
        Event {
            ts_ns: seconds * 1_000_000_000,
            phase,
            name: Cow::Borrowed(name),
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_bench_children_only() {
        let events = vec![
            // Set-up outside the root: counted in totals, not in shares.
            ev(0, Phase::Begin, "bench.netmodel.plan"),
            ev(1, Phase::End, "bench.netmodel.plan"),
            ev(2, Phase::Begin, ROOT),
            ev(2, Phase::Begin, "bench.attackgen.generate"),
            // The program's own span counts toward the bench span around it.
            ev(3, Phase::Begin, "generate"),
            ev(4, Phase::End, "generate"),
            ev(5, Phase::End, "bench.attackgen.generate"),
            ev(5, Phase::Begin, "bench.project.tuples"),
            ev(6, Phase::Begin, "bench.project.akamai"),
            ev(7, Phase::End, "bench.project.akamai"),
            ev(8, Phase::End, "bench.project.tuples"),
            // A span naming no program layer is the harness's.
            ev(8, Phase::Begin, "bench.loadgen.rung"),
            ev(9, Phase::End, "bench.loadgen.rung"),
            ev(10, Phase::End, ROOT),
        ];
        let t = span_times(&events);
        assert_eq!(t.root_s, 8.0);
        assert_eq!(t.total("bench.netmodel.plan"), 1.0);
        assert!(!t.self_by_layer.contains_key("netmodel"));
        assert_eq!(t.self_by_layer["attackgen"], 3.0);
        assert_eq!(t.self_by_name["bench.project.tuples"], 2.0);
        assert_eq!(t.self_by_layer["project"], 3.0);
        // The root's own 1 s and the load generator's 1 s are the harness.
        assert!(!t.self_by_layer.contains_key("loadgen"));
        assert_eq!(t.self_by_layer["bench"], 2.0);
        assert!((t.coverage() - 0.75).abs() < 1e-12);
    }
}
