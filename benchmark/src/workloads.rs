//! The four workloads: their study configs, the child processes that
//! measure them, and the parent loop that turns child reports into the
//! end-to-end metrics.
//!
//! The benchmark drives the program from outside, through the public
//! entry points a user of each surface calls: `StudyRun::try_execute` +
//! `run_experiment` (the `ddoscovery run` job), the persistent stage store,
//! `sweep::sweep`, and the HTTP service. The seed is the benchmark's
//! argument; the program only ever sees the config built from it.

use crate::child::{self, ChildRun};
use crate::loadgen::{self, Catalog, Req};
use crate::stats::{self, Summary};
use ddoscovery::stagecache::StageCache;
use ddoscovery::{ExperimentResult, ObsId, StudyConfig, StudyRun, StudyService, SweepReport};
use obs::manifest::Fnv;
use serde::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The default seed, the paper study's own.
pub const DEFAULT_SEED: u64 = 0xDD05_C0DE;

/// Children per run. Each sets up once and then runs operations back to
/// back for its slice of the run; `setup_s` and `peak_rss_mb` are the
/// medians over the children. A sweep child's peak resident set varies
/// by a tenth with thread timing, so the median needs this many.
///
/// Operations repeat inside a child rather than one child per operation.
/// On a shared 2-vCPU virtual host, eight alternating runs of each design
/// spread `run_quick`'s median job time by 30% with a fresh process per
/// job and by 10% with jobs repeated in a child (`population_store`: 15%
/// and 8%); the program runs the same code either way.
const CHILDREN_PER_RUN: usize = 9;

/// Experiments the batch job leaves out. `detval` synthesizes packets
/// for ~240 sampled attacks whose sizes are heavy-tailed, so its time
/// and memory change several-fold from seed to seed (0.06 s and 25 MB
/// to 0.4 s and 120 MB at quick scale) and would swamp the job's spread.
const UNSTEADY_EXPERIMENTS: [&str; 1] = ["detval"];

/// Experiments the service workload serves (bodies and CSV artifacts).
const SERVED_EXPERIMENTS: [&str; 4] = ["table1", "fig2", "fig4", "fig5"];

/// Open-loop rate of the service workload's latency measurement.
pub(crate) const SERVE_RATE: f64 = 250.0;

/// Load generator threads = connections in flight at most.
pub(crate) const GENERATORS: usize = 2;

/// Length of the seeded mix the traced rate ladder sends (prime, so a
/// rung never replays it in lockstep with the generator threads).
pub(crate) const MIX_LEN: usize = 10_007;

/// Blocks of six requests, one per route, in the service workload's
/// request sequence; more than a child sends.
const TURNS: usize = 1_667;

/// Per-child deadline; a child past it is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Output digests pinned at [`DEFAULT_SEED`] (full-size configs): every
/// experiment result, the projection fingerprint, and the first timed
/// sweep report (iteration [`SWEEP_WARMUPS`]). Other seeds are checked
/// for agreement between iterations instead; `serve_open` checks every
/// body against a direct handler call.
const PINNED: [(Workload, u64); 3] = [
    (Workload::RunQuick, 0x13d1_5f8c_422c_7e67),
    (Workload::PopulationStore, 0x0c52_a549_fd46_8320),
    (Workload::SweepObs, 0x14bc_2e95_52b5_64cd),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RunQuick,
    PopulationStore,
    SweepObs,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RunQuick,
        Workload::PopulationStore,
        Workload::SweepObs,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RunQuick => "run_quick",
            Workload::PopulationStore => "population_store",
            Workload::SweepObs => "sweep_obs",
            Workload::ServeOpen => "serve_open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn pinned(self) -> Option<u64> {
        PINNED.iter().find(|(w, _)| *w == self).map(|&(_, d)| d)
    }
}

/// Length of a `--smoke` run, in seconds.
pub const SMOKE_SECONDS: f64 = 1.0;

/// How one benchmark invocation runs.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the run: `run_seconds` of `BENCHMARK.json`, or
    /// [`SMOKE_SECONDS`].
    pub seconds: f64,
    /// Quick-scale configs, one iteration, short rungs (for tests).
    pub smoke: bool,
    /// Scratch and result directory (inside the checkout).
    pub out: PathBuf,
}

/// The study config a workload runs, built from the seed. The batch
/// and sweep workloads use the quick preset (`--quick`, ~1/8 of the
/// paper's attack volume) so that one run holds enough operations for a
/// steady median; the store and service workloads use the paper's study.
///
/// No workload draws random burst campaigns: whether the seed's few
/// bursts include a carpet-bombing one changes the target-tuple work by
/// a quarter, so the work would depend on the seed. The scripted
/// campaigns, carpet bombing included, stay.
pub fn study_config(w: Workload, seed: u64, smoke: bool) -> StudyConfig {
    let quick = smoke || matches!(w, Workload::RunQuick | Workload::SweepObs);
    let mut cfg = if quick {
        StudyConfig::quick()
    } else {
        StudyConfig::paper()
    };
    cfg.seed = seed;
    cfg.gen.random_campaign_count = 0;
    cfg.disk_store = Some("off".into());
    cfg.stage_cache = Some(ddoscovery::stagecache::DEFAULT_BOUND);
    match w {
        // Every job computes every stage, as `ddoscovery run` does in a
        // fresh process.
        Workload::RunQuick => cfg.stage_cache = Some(0),
        Workload::PopulationStore => cfg.missing_data = false,
        Workload::SweepObs => cfg.stage_cache = Some(SWEEP_CACHE_BOUND),
        Workload::ServeOpen => {}
    }
    cfg
}

/// Stage-cache bound of the sweep workload: the plan, the attacks, and
/// one iteration's observation streams (four points × 12: eleven series
/// and the Netscout alert stream, none of which a later point reuses).
/// The cache then always holds the same set, the latest iteration, so
/// its memory does not depend on which pool thread inserted last.
const SWEEP_CACHE_BOUND: usize = 2 + 4 * 12;

/// Warm-up sweeps before timing: the first fills the cache, the second
/// already evicts as many entries as it inserts.
const SWEEP_WARMUPS: usize = 2;

/// The observation-side grid of sweep iteration `i`: four carpet gaps
/// no other iteration uses, so every point misses the observation cache.
pub fn sweep_gaps(i: usize) -> [f64; 4] {
    std::array::from_fn(|j| (1800 + 4 * i + j) as f64)
}

/// Run iteration `i` of the sweep workload.
pub fn sweep_iteration(base: &StudyConfig, i: usize) -> Result<SweepReport, String> {
    ddoscovery::sweep::sweep(base, &sweep_gaps(i), &ObsId::MAIN_TEN, |c, v| {
        c.obs.carpet_gap_secs = v as u32
    })
    .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Output digests (FNV-1a)
// ---------------------------------------------------------------------

/// Every experiment result: id, title, body, and each CSV artifact.
pub fn experiments_digest(results: &[ExperimentResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.write(r.id.as_bytes())
            .write(r.title.as_bytes())
            .write(r.body.as_bytes());
        for (name, csv) in &r.csv {
            h.write(name.as_bytes()).write(csv.as_bytes());
        }
    }
    h.finish()
}

/// Every projection the paper consumes, bitwise — the fingerprint of
/// `tests/equivalence_golden.rs`.
pub fn projection_digest(run: &StudyRun) -> u64 {
    let mut h = Fnv::new();
    let tuples = |h: &mut Fnv, t: &[(i64, netmodel::Ipv4)]| {
        for &(day, ip) in t {
            h.write(&day.to_le_bytes()).write(&ip.0.to_le_bytes());
        }
    };
    for id in ObsId::ALL {
        h.write(id.slug().as_bytes());
        for v in &run.weekly_series(id).values {
            h.write(&v.to_bits().to_le_bytes());
        }
        for v in &run.normalized_series(id).values {
            h.write(&v.to_bits().to_le_bytes());
        }
        tuples(&mut h, run.target_tuples(id));
    }
    tuples(&mut h, run.netscout_baseline_tuples());
    tuples(&mut h, run.akamai_tuples());
    h.finish()
}

pub fn sweep_digest(report: &SweepReport) -> u64 {
    let mut h = Fnv::new();
    for o in &report.outcomes {
        h.write_u64(o.value.to_bits())
            .write(o.observatory.as_bytes())
            .write_u64(o.observations as u64)
            .write(o.trend.symbol().as_bytes())
            .write_u64(o.change_4y.to_bits());
    }
    for s in &report.skipped {
        h.write_u64(s.value.to_bits());
    }
    h.finish()
}

fn hex(d: u64) -> Value {
    Value::Str(format!("{d:016x}"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Child roles
// ---------------------------------------------------------------------

/// Entry point of `benchmark child ROLE SEED SMOKE DIR [ARG]`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [role, seed, smoke, dir, rest @ ..] = args else {
        return Err(format!("child: bad arguments {args:?}"));
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("child: bad seed {seed:?}"))?;
    let smoke = smoke == "1";
    let dir = Path::new(dir);
    let arg = rest.first().map(String::as_str).unwrap_or("");
    match role.as_str() {
        "run_quick" => batch_child(seed, smoke, dir, parse_slice(arg)?),
        "population_store" => population_child(seed, smoke, dir, parse_slice(arg)?),
        "sweep_obs" => sweep_child(seed, smoke, parse_slice(arg)?),
        "serve_prime" => serve_prime_child(seed, smoke, dir),
        "serve_open" => serve_child(seed, smoke, dir, arg),
        "trace" => crate::traced::trace_child(seed, smoke, dir, arg),
        other => Err(format!("child: unknown role {other:?}")),
    }
}

fn io<T>(r: std::io::Result<T>, what: &Path) -> Result<T, String> {
    r.map_err(|e| format!("{}: {e}", what.display()))
}

/// The experiments the batch job runs, in registry order.
pub fn batch_experiments() -> impl Iterator<Item = &'static str> {
    ddoscovery::all_ids()
        .iter()
        .copied()
        .filter(|id| !UNSTEADY_EXPERIMENTS.contains(id))
}

/// What `ddoscovery run IDS...` does: execute, run the experiments,
/// print the bodies and write every CSV.
pub fn reproduction_job(cfg: &StudyConfig, out: &Path) -> Result<u64, String> {
    let run = StudyRun::try_execute(cfg).map_err(|e| e.to_string())?;
    let results = batch_experiments()
        .map(|id| {
            ddoscovery::run_experiment(&run, id)
                .ok_or_else(|| format!("experiment {id} is not registered"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    write_results(&results, out)?;
    Ok(experiments_digest(&results))
}

/// Render experiment results the way the CLI does: bodies to a
/// stdout-like file, CSV artifacts into `out`.
pub fn write_results(results: &[ExperimentResult], out: &Path) -> Result<(), String> {
    io(std::fs::create_dir_all(out), out)?;
    let mut stdout = String::new();
    for r in results {
        stdout.push_str(&format!("== [{}] {} ==\n{}\n", r.id, r.title, r.body));
        for (name, csv) in &r.csv {
            let path = out.join(name);
            io(std::fs::write(&path, csv), &path)?;
        }
    }
    let path = out.join("stdout.txt");
    io(std::fs::write(&path, stdout), &path)
}

fn parse_slice(slice_ms: &str) -> Result<Duration, String> {
    slice_ms
        .parse()
        .map(Duration::from_millis)
        .map_err(|_| format!("child: bad slice {slice_ms:?}"))
}

/// Operations a child ran back to back.
struct Repeated {
    ops_ms: Vec<f64>,
    /// Operations per second over the whole loop.
    rate: f64,
    /// Each operation's output digest.
    digests: Vec<u64>,
}

impl Repeated {
    /// Operations whose output differs from the first one's.
    fn differing(&self) -> u64 {
        self.digests
            .iter()
            .filter(|&&d| d != self.digests[0])
            .count() as u64
    }

    /// Emit the child report: times, rate, the first output digest,
    /// `extra` fields and the peak RSS.
    fn report(&self, extra: Vec<(&'static str, Value)>) {
        let mut fields = vec![
            ("ops_ms", child::floats(&self.ops_ms)),
            ("rate", Value::Float(self.rate)),
            ("digest", hex(self.digests[0])),
        ];
        fields.extend(extra);
        fields.push(("rss_mb", Value::Float(stats::peak_rss_mb())));
        child::report(fields);
    }
}

/// Run operations `op(0)`, `op(1)`, … back to back until `slice` has
/// passed (just one when `smoke`). `op` times itself, so digests and
/// bookkeeping stay out of the times, and returns its time and output
/// digest.
fn repeat(
    slice: Duration,
    smoke: bool,
    mut op: impl FnMut(usize) -> Result<(Duration, u64), String>,
) -> Result<Repeated, String> {
    let start = Instant::now();
    let (mut ops_ms, mut digests) = (Vec::new(), Vec::new());
    for i in 0.. {
        let (took, digest) = op(i)?;
        ops_ms.push(ms(took));
        digests.push(digest);
        if smoke || start.elapsed() >= slice {
            break;
        }
    }
    Ok(Repeated {
        rate: ops_ms.len() as f64 / start.elapsed().as_secs_f64(),
        ops_ms,
        digests,
    })
}

fn batch_child(seed: u64, smoke: bool, dir: &Path, slice: Duration) -> Result<(), String> {
    let cfg = study_config(Workload::RunQuick, seed, smoke);
    let out = dir.join("results");
    child::ready();
    let r = repeat(slice, smoke, |_| {
        let t = Instant::now();
        let digest = reproduction_job(&cfg, &out)?;
        Ok((t.elapsed(), digest))
    })?;
    r.report(vec![("mismatch", Value::UInt(r.differing()))]);
    Ok(())
}

fn population_child(seed: u64, smoke: bool, dir: &Path, slice: Duration) -> Result<(), String> {
    let base = study_config(Workload::PopulationStore, seed, smoke);
    child::ready();
    let mut cold_warm_differ = 0;
    let r = repeat(slice, smoke, |i| {
        // Each operation gets a fresh store and an empty memory cache.
        let mut cfg = base.clone();
        cfg.disk_store = Some(dir.join(format!("store-{i}")).display().to_string());
        StageCache::global().clear();
        // Phase A: cold execute, writing every stage to the store.
        let t = Instant::now();
        let a = StudyRun::try_execute(&cfg).map_err(|e| e.to_string())?;
        let phase_a = t.elapsed();
        crate::traced::project(&a);
        let digest_a = projection_digest(&a);
        drop(a);
        StageCache::global().clear();
        // Phase B: warm execute from the store, then every projection
        // and the trends table.
        let t = Instant::now();
        let b = StudyRun::try_execute(&cfg).map_err(|e| e.to_string())?;
        crate::traced::project(&b);
        std::hint::black_box(ddoscovery::render::trends_table(&b));
        let phase_b = t.elapsed();
        let digest_b = projection_digest(&b);
        cold_warm_differ += u64::from(digest_a != digest_b);
        Ok((phase_a + phase_b, digest_b))
    })?;
    r.report(vec![(
        "mismatch",
        Value::UInt(r.differing() + cold_warm_differ),
    )]);
    Ok(())
}

fn sweep_child(seed: u64, smoke: bool, slice: Duration) -> Result<(), String> {
    let base = study_config(Workload::SweepObs, seed, smoke);
    // Set-up: the base study into the memory cache, then the warm-ups.
    drop(StudyRun::try_execute(&base).map_err(|e| e.to_string())?);
    for i in 0..SWEEP_WARMUPS {
        sweep_iteration(&base, i)?;
    }
    child::ready();
    let mut skipped = 0;
    let r = repeat(slice, smoke, |i| {
        let t = Instant::now();
        let report = sweep_iteration(&base, SWEEP_WARMUPS + i)?;
        let took = t.elapsed();
        skipped += report.skipped.len() as u64;
        Ok((took, sweep_digest(&report)))
    })?;
    // Every iteration sweeps other values, so only the first one's
    // digest is checked (and pinned).
    r.report(vec![("failed", Value::UInt(skipped))]);
    Ok(())
}

/// Serve config with the store at `dir/store`.
fn serve_config(seed: u64, smoke: bool, dir: &Path) -> StudyConfig {
    let mut cfg = study_config(Workload::ServeOpen, seed, smoke);
    cfg.disk_store = Some(dir.join("store").display().to_string());
    cfg
}

/// Experiment URLs: each served experiment's body and CSV artifacts.
pub fn experiment_urls(run: &StudyRun) -> Vec<String> {
    let mut urls = Vec::new();
    for id in SERVED_EXPERIMENTS {
        urls.push(format!("/v1/experiments/{id}"));
        if let Some(r) = ddoscovery::run_experiment(run, id) {
            urls.extend(
                r.csv
                    .iter()
                    .map(|(name, _)| format!("/v1/experiments/{id}/{name}")),
            );
        }
    }
    urls
}

/// The priming process: a cold run that writes the store, the way a
/// first `ddoscovery serve --store` would.
fn serve_prime_child(seed: u64, smoke: bool, dir: &Path) -> Result<(), String> {
    let cfg = serve_config(seed, smoke, dir);
    child::ready();
    let run = StudyRun::try_execute(&cfg).map_err(|e| e.to_string())?;
    let urls = experiment_urls(&run);
    child::report(vec![("experiments", Value::Str(urls.join(" ")))]);
    Ok(())
}

/// A served study on an ephemeral port.
pub struct Served {
    pub service: Arc<StudyService>,
    pub addr: std::net::SocketAddr,
    shutdown: serve::ShutdownHandle,
    join: std::thread::JoinHandle<serve::DrainReport>,
}

impl Served {
    /// Bind `ServeConfig::default()` (on port 0) and start serving.
    pub fn start(service: Arc<StudyService>) -> Result<Served, String> {
        let cfg = serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..serve::ServeConfig::default()
        };
        let server = serve::Server::bind(cfg, service.clone()).map_err(|e| e.to_string())?;
        service.attach_shutdown(server.shutdown_handle());
        let (addr, shutdown) = (server.local_addr(), server.shutdown_handle());
        let join = std::thread::spawn(move || server.run());
        Ok(Served {
            service,
            addr,
            shutdown,
            join,
        })
    }

    /// Drain and join the server.
    pub fn stop(self) -> serve::DrainReport {
        self.shutdown.shutdown();
        self.join.join().expect("server thread")
    }
}

/// `/v1/series/<slug>` and `…?norm=1` for every series.
pub fn series_urls() -> Vec<String> {
    ObsId::ALL
        .iter()
        .flat_map(|id| {
            let url = format!("/v1/series/{}", id.slug());
            [format!("{url}?norm=1"), url]
        })
        .collect()
}

/// Request every URL once over HTTP (filling the response memo) and
/// collect the ETags revalidations need. Returns the catalog, or the
/// first URL that did not answer 200.
pub fn prewarm(addr: std::net::SocketAddr, experiments: Vec<String>) -> Result<Catalog, String> {
    let mut catalog = Catalog {
        series: series_urls(),
        experiments,
        etags: Vec::new(),
    };
    for url in catalog.urls() {
        match loadgen::fetch(addr, &Req::get(url.clone())) {
            Ok((reply, _)) if reply.status == 200 => {
                let revalidated = url == "/v1/trends" || url.starts_with("/v1/series/");
                if let (true, Some(tag)) = (revalidated, reply.etag) {
                    catalog.etags.push((url, tag));
                }
            }
            other => {
                return Err(format!(
                    "pre-warm {url}: {:?}",
                    other.map(|(r, _)| r.status)
                ))
            }
        }
    }
    Ok(catalog)
}

/// Check served samples against direct `Handler::handle` calls: same
/// status, same body bytes. Returns the number of mismatches.
pub fn verify_bodies(service: &StudyService, reqs: &[Req], samples: &[loadgen::Sample]) -> u64 {
    use serve::Handler;
    let mut expected: HashMap<usize, (u16, u64)> = HashMap::new();
    let mut mismatches = 0;
    for s in samples.iter().filter(|s| !s.failed()) {
        let (status, hash) = *expected.entry(s.req).or_insert_with(|| {
            let resp = service.handle(&reqs[s.req].parsed());
            (resp.status, obs::manifest::fnv1a(&resp.body))
        });
        if s.status != Some(status) || s.body_hash != hash {
            mismatches += 1;
        }
    }
    mismatches
}

fn serve_child(seed: u64, smoke: bool, dir: &Path, arg: &str) -> Result<(), String> {
    let (slice_ms, experiments) = arg.split_once(' ').unwrap_or((arg, ""));
    let slice = parse_slice(slice_ms)?;
    let experiments = experiments.split_whitespace().map(String::from).collect();
    let cfg = serve_config(seed, smoke, dir);
    // Set-up: warm boot from the store, bind, pre-warm every URL.
    let run = StudyRun::try_execute(&cfg).map_err(|e| e.to_string())?;
    let served = Served::start(Arc::new(StudyService::new(run, &cfg, "paper")))?;
    let catalog = prewarm(served.addr, experiments)?;
    let reqs = loadgen::in_turn(seed, TURNS, &catalog);
    child::ready();
    // Three quarters of the slice at the fixed rate. Then each route alone
    // in a closed loop for a sixth of the rest; the capacity is the
    // slowest route's, so that no route's cost is weighed against another's.
    let rung = loadgen::open_loop(
        served.addr,
        &reqs,
        SERVE_RATE,
        slice.mul_f64(0.75),
        GENERATORS,
    );
    let window = slice.mul_f64(0.25 / loadgen::ROUTES.len() as f64);
    let closed: Vec<(Vec<Req>, Vec<loadgen::Sample>, f64)> = loadgen::ROUTES
        .iter()
        .map(|&route| {
            let only: Vec<Req> = reqs
                .iter()
                .filter(|r| r.route() == route)
                .cloned()
                .collect();
            let (samples, elapsed) = loadgen::closed_loop(served.addr, &only, window, GENERATORS);
            let completed = samples.iter().filter(|s| !s.failed()).count();
            (only, samples, completed as f64 / elapsed)
        })
        .collect();
    let capacity = closed
        .iter()
        .map(|&(_, _, rate)| rate)
        .fold(f64::INFINITY, f64::min);
    let service = served.service.clone();
    let drain = served.stop();
    let mut mismatch = verify_bodies(&service, &reqs, &rung.samples);
    let mut samples = rung.samples.len();
    let mut failed = rung.samples.iter().filter(|s| s.failed()).count();
    for (only, closed, _) in &closed {
        mismatch += verify_bodies(&service, only, closed);
        samples += closed.len();
        failed += closed.iter().filter(|s| s.failed()).count();
    }
    let by_route = loadgen::ROUTES
        .iter()
        .map(|&route| {
            let ms: Vec<f64> = rung
                .samples
                .iter()
                .filter(|s| !s.failed() && reqs[s.req].route() == route)
                .map(|s| s.latency_ms)
                .collect();
            (route.to_string(), child::floats(&ms))
        })
        .collect();
    child::report(vec![
        ("routes_ms", Value::Object(by_route)),
        ("rate", Value::Float(capacity)),
        // Requests never sent count as attempted: they missed the limit.
        ("attempted", Value::UInt((samples + rung.missed) as u64)),
        (
            "failed",
            Value::UInt(failed as u64 + u64::from(!drain.drained)),
        ),
        ("mismatch", Value::UInt(mismatch)),
        ("rss_mb", Value::Float(stats::peak_rss_mb())),
    ]);
    Ok(())
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// A measured workload: the result line plus what the human output and
/// the results file show.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    pub digest: Option<u64>,
    /// Timing summaries behind the metrics, for the human output.
    pub summaries: Vec<(String, Summary)>,
    pub notes: Vec<String>,
}

/// Accumulates child runs into an [`Outcome`].
struct Tally {
    workload: Workload,
    attempted: u64,
    failed: u64,
    setups: Vec<f64>,
    ops_ms: Vec<f64>,
    /// The service's request latencies by route, in [`loadgen::ROUTES`]
    /// order (`serve_open` only; its operations are requests).
    routes: Vec<(String, Vec<f64>)>,
    rss: Vec<f64>,
    /// Operations per second, one value per child; for the service, the
    /// closed-loop capacity of its slowest route.
    rates: Vec<f64>,
    digests: Vec<u64>,
    mismatches: u64,
    notes: Vec<String>,
}

impl Tally {
    fn new(workload: Workload) -> Tally {
        Tally {
            workload,
            attempted: 0,
            failed: 0,
            setups: Vec::new(),
            ops_ms: Vec::new(),
            routes: Vec::new(),
            rss: Vec::new(),
            rates: Vec::new(),
            digests: Vec::new(),
            mismatches: 0,
            notes: Vec::new(),
        }
    }

    /// Fold in one measuring child.
    fn child(&mut self, run: &ChildRun) {
        if !run.ok {
            self.attempted += 1;
            self.failed += 1;
            return;
        }
        let ops = run.nums("ops_ms");
        self.attempted += run.num("attempted").unwrap_or(ops.len() as f64) as u64;
        self.failed += run.num("failed").unwrap_or(0.0) as u64;
        self.mismatches += run.num("mismatch").unwrap_or(0.0) as u64;
        self.setups.extend(run.setup_s);
        self.ops_ms.extend(ops);
        for (route, ms) in run.lists("routes_ms") {
            match self.routes.iter_mut().find(|(r, _)| *r == route) {
                Some((_, all)) => all.extend(ms),
                None => self.routes.push((route, ms)),
            }
        }
        self.rss.extend(run.num("rss_mb"));
        self.rates.extend(run.num("rate"));
        if let Some(d) = run
            .text("digest")
            .and_then(|d| u64::from_str_radix(&d, 16).ok())
        {
            self.digests.push(d);
        }
    }

    fn finish(mut self, params: &Params) -> Outcome {
        let w = self.workload;
        let digest = self.digests.first().copied();
        let mut correct = self.mismatches == 0 && self.failed == 0;
        if self.digests.iter().any(|&d| Some(d) != digest) {
            self.notes
                .push(format!("{}: digests disagree between iterations", w.name()));
            correct = false;
        }
        if self.mismatches > 0 {
            self.notes.push(format!(
                "{}: {} outputs differ from their reference",
                w.name(),
                self.mismatches
            ));
        }
        if let (false, true, Some(pin), Some(d)) = (
            params.smoke,
            params.seed == DEFAULT_SEED,
            w.pinned(),
            digest,
        ) {
            if pin != d {
                self.notes.push(format!(
                    "{}: digest {d:016x} != pinned {pin:016x}",
                    w.name()
                ));
                correct = false;
            }
        }
        self.routes.retain(|(_, ms)| !ms.is_empty());
        let no_ops = self.ops_ms.is_empty() && self.routes.is_empty();
        if no_ops
            || [&self.setups, &self.rss, &self.rates]
                .iter()
                .any(|v| v.is_empty())
        {
            self.notes
                .push(format!("{}: no successful measurement", w.name()));
            return Outcome {
                workload: w,
                correct: false,
                attempted: self.attempted.max(1),
                failed: self.failed.max(1),
                metrics: Vec::new(),
                digest,
                summaries: Vec::new(),
                notes: self.notes,
            };
        }
        // The operation time is the median operation; for the service, the
        // p50 latency of its slowest route, so that no route's latency is
        // weighed against another's.
        let (op_p50, ops) = if self.routes.is_empty() {
            (
                stats::median(&self.ops_ms),
                vec![("op_p50_ms".to_string(), &self.ops_ms)],
            )
        } else {
            (
                self.routes
                    .iter()
                    .map(|(_, ms)| stats::median(ms))
                    .fold(0.0, f64::max),
                self.routes
                    .iter()
                    .map(|(route, ms)| (format!("op_ms.{route}"), ms))
                    .collect(),
            )
        };
        let metrics = vec![
            ("setup_s".to_string(), stats::median(&self.setups)),
            ("op_p50_ms".to_string(), op_p50),
            ("ops_per_s".to_string(), stats::median(&self.rates)),
            ("peak_rss_mb".to_string(), stats::median(&self.rss)),
        ];
        let summaries = [("setup_s".to_string(), &self.setups)]
            .into_iter()
            .chain(ops)
            .chain([
                ("ops_per_s".to_string(), &self.rates),
                ("peak_rss_mb".to_string(), &self.rss),
            ])
            .map(|(name, v)| (name, Summary::of(v)))
            .collect();
        Outcome {
            workload: w,
            correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            digest,
            summaries,
            notes: self.notes,
        }
    }
}

fn child_args(role: &str, p: &Params, dir: &Path, arg: Option<String>) -> Vec<String> {
    let mut args = vec![
        role.to_string(),
        p.seed.to_string(),
        if p.smoke { "1" } else { "0" }.to_string(),
        dir.display().to_string(),
    ];
    args.extend(arg);
    args
}

/// A fresh scratch directory for one child.
fn scratch(p: &Params, w: Workload, i: usize) -> PathBuf {
    p.out
        .join("work")
        .join(format!("{}-{}-{i}", w.name(), std::process::id()))
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Measure one workload for `p.seconds` (untraced).
pub fn measure(w: Workload, p: &Params) -> Outcome {
    let mut tally = Tally::new(w);
    let slice_ms = (p.seconds * 1e3 / CHILDREN_PER_RUN as f64).round() as u64;
    match w {
        Workload::RunQuick | Workload::PopulationStore | Workload::SweepObs => {
            for i in 0..CHILDREN_PER_RUN {
                let dir = scratch(p, w, i);
                let arg = Some(slice_ms.to_string());
                tally.child(&child::run(
                    &child_args(w.name(), p, &dir, arg),
                    CHILD_TIMEOUT,
                ));
                remove(&dir);
                if p.smoke {
                    break;
                }
            }
        }
        Workload::ServeOpen => {
            let dir = scratch(p, w, 0);
            let prime = child::run(&child_args("serve_prime", p, &dir, None), CHILD_TIMEOUT);
            tally.attempted += 1;
            match prime.text("experiments") {
                Some(experiments) if prime.ok => {
                    for _ in 0..CHILDREN_PER_RUN {
                        let arg = Some(format!("{slice_ms} {experiments}"));
                        tally.child(&child::run(
                            &child_args(w.name(), p, &dir, arg),
                            CHILD_TIMEOUT,
                        ));
                        if p.smoke {
                            break;
                        }
                    }
                }
                _ => tally.failed += 1,
            }
            remove(&dir);
        }
    }
    tally.finish(p)
}
