//! The study pipeline: build the Internet, generate 4.5 years of
//! attacks, run every observatory, and expose the paper's two data
//! projections (weekly attack counts and daily target tuples).
//!
//! Execution is an explicit three-stage dataflow — `plan` → `attacks`
//! → `observations` — with every stage output owned by `Arc` and
//! resolved through `stagecache::Tiers`: the content-addressed
//! in-memory stage cache (DESIGN.md §7) over the optional disk store
//! (§11). The observation stage is a list of passes: ten observer
//! passes (a detector over the attack rows: UCSD, ORION, each
//! honeypot's gap-free detections, IXP and Akamai once per class, the
//! raw Netscout alerts), fanned out as (pass × attack shard) over the
//! pool, and five post-passes over their outputs (each honeypot's
//! carpet pass, the Netscout class split). Each of the fifteen outputs
//! has its own key, and a miss recomputes only that output. A sweep
//! that only moves an observation-side knob therefore re-runs only the
//! passes that read it (a carpet-gap sweep reruns only the honeypot
//! carpet passes), without rebuilding the plan or regenerating
//! attacks; a `gen` sweep reuses the plan at every grid point.
//!
//! The attack stage resolves on demand: `execute` looks up the
//! observation outputs first and resolves the attack rows only when an
//! observer pass must run; otherwise [`StudyRun::attacks`] resolves
//! them on first read, through the same function. Only the observer
//! passes, `detval` and five extensions read them, so a warm run, a
//! served study or a carpet-gap point never opens the attack cell.
//! Each observer pass reads only the rows of the classes its observer
//! records (a telescope the spoofed direct-path rows, a honeypot the
//! reflection rows, IXP and Akamai the rows of their class).
//!
//! A honeypot pass publishes its detections already in carpet order
//! ([`honeypot::Detections`], built under a `carpet.order` span), so
//! the carpet pass is one linear merge: a carpet-gap point resolves no
//! prefix and sorts nothing. The merge allocates its output once at its
//! final size, and it is not shrunk (DESIGN.md §9).

use crate::scenario::StudyConfig;
use crate::stagecache::{StageFingerprints, Tiers};
use analytics::{Member, TargetTuple, WeeklySeries};
use attackgen::{
    AttackClass, AttackColumns, AttackGenerator, AttackId, AttackRef, ObservationColumns,
};
use flowmon::{Akamai, AlertColumns, IxpBlackholing, Netscout};
use honeypot::{Detections, Honeypot};
use netmodel::InternetPlan;
use obs::metrics::Counter;
use serde::{Deserialize, Serialize};
use simcore::{Date, ExecPool, SimRng};
use std::sync::{Arc, OnceLock};
use telescope::Telescope;

/// The ten observatory series of Fig. 4, plus NewKid (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObsId {
    Orion,
    Ucsd,
    NetscoutDp,
    AkamaiDp,
    IxpDp,
    Hopscotch,
    AmpPot,
    NetscoutRa,
    AkamaiRa,
    IxpRa,
    NewKid,
}

impl ObsId {
    /// The ten main series, direct-path block first (Fig. 4 ordering).
    pub const MAIN_TEN: [ObsId; 10] = [
        ObsId::Orion,
        ObsId::Ucsd,
        ObsId::NetscoutDp,
        ObsId::AkamaiDp,
        ObsId::IxpDp,
        ObsId::Hopscotch,
        ObsId::AmpPot,
        ObsId::NetscoutRa,
        ObsId::AkamaiRa,
        ObsId::IxpRa,
    ];

    /// The four academic observatories of the §7 target analysis.
    pub const ACADEMIC: [ObsId; 4] = [ObsId::Orion, ObsId::Ucsd, ObsId::Hopscotch, ObsId::AmpPot];

    /// The honeypot series: each is the carpet pass over its
    /// honeypot's detections.
    pub const HONEYPOTS: [ObsId; 3] = [ObsId::Hopscotch, ObsId::AmpPot, ObsId::NewKid];

    /// Every series the pipeline maintains: the main ten plus NewKid.
    pub const ALL: [ObsId; 11] = [
        ObsId::Orion,
        ObsId::Ucsd,
        ObsId::NetscoutDp,
        ObsId::AkamaiDp,
        ObsId::IxpDp,
        ObsId::Hopscotch,
        ObsId::AmpPot,
        ObsId::NetscoutRa,
        ObsId::AkamaiRa,
        ObsId::IxpRa,
        ObsId::NewKid,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            ObsId::Orion => "ORION",
            ObsId::Ucsd => "UCSD",
            ObsId::NetscoutDp => "Netscout (DP)",
            ObsId::AkamaiDp => "Akamai (DP)",
            ObsId::IxpDp => "IXP (DP)",
            ObsId::Hopscotch => "Hopscotch",
            ObsId::AmpPot => "AmpPot",
            ObsId::NetscoutRa => "Netscout (RA)",
            ObsId::AkamaiRa => "Akamai (RA)",
            ObsId::IxpRa => "IXP (RA)",
            ObsId::NewKid => "NewKid",
        }
    }

    /// Machine-friendly identifier (metric names, CSV columns).
    pub const fn slug(self) -> &'static str {
        match self {
            ObsId::Orion => "orion",
            ObsId::Ucsd => "ucsd",
            ObsId::NetscoutDp => "netscout_dp",
            ObsId::AkamaiDp => "akamai_dp",
            ObsId::IxpDp => "ixp_dp",
            ObsId::Hopscotch => "hopscotch",
            ObsId::AmpPot => "amppot",
            ObsId::NetscoutRa => "netscout_ra",
            ObsId::AkamaiRa => "akamai_ra",
            ObsId::IxpRa => "ixp_ra",
            ObsId::NewKid => "newkid",
        }
    }

    /// Does this series observe direct-path attacks (vs RA)?
    pub const fn is_direct_path(self) -> bool {
        matches!(
            self,
            ObsId::Orion | ObsId::Ucsd | ObsId::NetscoutDp | ObsId::AkamaiDp | ObsId::IxpDp
        )
    }

    /// Position in [`ObsId::ALL`], which lists the variants in
    /// declaration order.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// Counts of projection computations performed so far (NOT lookups:
/// a memoized hit leaves these untouched). Exposed for the cache-hit
/// regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionStats {
    pub weekly_computed: usize,
    pub normalized_computed: usize,
    pub tuples_computed: usize,
    pub baseline_computed: usize,
    pub akamai_computed: usize,
    pub membership_computed: usize,
    pub attack_rows_computed: usize,
}

/// The counters of one projection kind: a per-run compute count
/// (backs [`StudyRun::projection_stats`], resets with each run) plus
/// the process-cumulative registry handles.
///
/// The registry handles are resolved once, here, so a memoized hit
/// costs a single relaxed atomic increment — not a `format!`
/// allocation plus a registry map probe per lookup, which dominated
/// the old `memo()` hot path.
struct KindCounters {
    run_computed: Counter,
    hit: Arc<Counter>,
    computed: Arc<Counter>,
}

impl KindCounters {
    fn new(kind: &str) -> KindCounters {
        KindCounters {
            run_computed: Counter::new(),
            hit: obs::metrics::counter(&format!("project.{kind}.hit")),
            computed: obs::metrics::counter(&format!("project.{kind}.computed")),
        }
    }
}

/// Lazily-computed per-observatory projections. Every slot is a
/// `OnceLock`, so concurrent readers (sweep threads, experiment
/// renderers) each compute a projection at most once per run.
///
/// Registering the [`KindCounters`] up front also guarantees every run
/// manifest carries the full `project.<kind>.{hit,computed}` picture,
/// zeros included.
struct ProjectionCache {
    weekly: [OnceLock<WeeklySeries>; 11],
    normalized: [OnceLock<WeeklySeries>; 11],
    tuples: [OnceLock<Vec<TargetTuple>>; 11],
    baseline: OnceLock<Vec<TargetTuple>>,
    akamai: OnceLock<Vec<TargetTuple>>,
    membership: OnceLock<Vec<Member>>,
    attack_rows: OnceLock<Vec<u32>>,
    weekly_counters: KindCounters,
    normalized_counters: KindCounters,
    tuples_counters: KindCounters,
    baseline_counters: KindCounters,
    akamai_counters: KindCounters,
    membership_counters: KindCounters,
    attack_rows_counters: KindCounters,
}

impl ProjectionCache {
    fn new() -> Self {
        ProjectionCache {
            weekly: std::array::from_fn(|_| OnceLock::new()),
            normalized: std::array::from_fn(|_| OnceLock::new()),
            tuples: std::array::from_fn(|_| OnceLock::new()),
            baseline: OnceLock::new(),
            akamai: OnceLock::new(),
            membership: OnceLock::new(),
            attack_rows: OnceLock::new(),
            weekly_counters: KindCounters::new("weekly"),
            normalized_counters: KindCounters::new("normalized"),
            tuples_counters: KindCounters::new("tuples"),
            baseline_counters: KindCounters::new("baseline"),
            akamai_counters: KindCounters::new("akamai"),
            membership_counters: KindCounters::new("membership"),
            attack_rows_counters: KindCounters::new("attack_rows"),
        }
    }
}

/// Memoized lookup with cache telemetry: a populated slot counts as a
/// `project.<kind>.hit`, a compute bumps both the per-run counter and
/// the registry's `project.<kind>.computed`.
fn memo<'a, T>(
    slot: &'a OnceLock<T>,
    counters: &KindCounters,
    compute: impl FnOnce() -> T,
) -> &'a T {
    if let Some(v) = slot.get() {
        counters.hit.inc();
        return v;
    }
    slot.get_or_init(|| {
        counters.run_computed.inc();
        counters.computed.inc();
        compute()
    })
}

/// An observer pass: one detector over the attack rows, producing one
/// stage output. IXP and Akamai run once per published class, over
/// that class's rows only: their verdict class is the attack class.
/// The honeypot and Netscout passes produce the inputs of the
/// post-passes (each honeypot's carpet pass, the Netscout class split).
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// The UCSD or ORION stream.
    Telescope(ObsId),
    /// The gap-free detections of honeypot `i` of [`ObsId::HONEYPOTS`].
    Honeypot(usize),
    /// The IXP stream of one class.
    Ixp(ObsId),
    /// The Akamai stream of one class.
    Akamai(ObsId),
    /// The raw Netscout alert stream.
    Netscout,
}

impl Pass {
    const ALL: [Pass; 10] = [
        Pass::Telescope(ObsId::Ucsd),
        Pass::Telescope(ObsId::Orion),
        Pass::Honeypot(0),
        Pass::Honeypot(1),
        Pass::Honeypot(2),
        Pass::Ixp(ObsId::IxpRa),
        Pass::Ixp(ObsId::IxpDp),
        Pass::Akamai(ObsId::AkamaiRa),
        Pass::Akamai(ObsId::AkamaiDp),
        Pass::Netscout,
    ];
}

/// One shard of a pass's output, already columnar.
enum ShardOut {
    Rows(ObservationColumns),
    Alerts(AlertColumns),
}

/// One shard of a plain observer pass over the rows `keep` selects.
/// Monomorphic, one instantiation per call site, so the per-attack
/// observe call is direct (and inlinable) instead of an opaque
/// `dyn Fn` vtable dispatch in the hottest loop of the fan-out. The
/// row filter reads the columns before any `AttackRef` is built, and
/// the observer appends detections straight into a columnar sink: no
/// per-observation `Vec<Ipv4>` ever exists.
fn observe_rows<R>(
    attacks: &AttackColumns,
    rows: std::ops::Range<usize>,
    keep: impl Fn(usize) -> bool,
    observe: impl Fn(AttackRef<'_>, &mut ObservationColumns) -> R,
) -> ShardOut {
    let mut out = ObservationColumns::new();
    for i in rows.filter(|&i| keep(i)) {
        observe(attacks.get(i), &mut out);
    }
    ShardOut::Rows(out)
}

/// Record the process peak RSS (`VmHWM`) after a pipeline stage: once
/// under `run.peak_rss.<stage>` for per-stage attribution and once
/// under the overall `run.peak_rss` gauge, both of which land in the
/// JSON manifest and the stderr summary table. A pure side channel —
/// no-op where procfs is unavailable. Public so the CLI can stamp the
/// projection stage (`"project"`), which runs outside `execute`.
pub fn record_peak_rss(stage: &str) {
    if let Some(bytes) = obs::peak_rss_bytes() {
        obs::metrics::gauge(&format!("run.peak_rss.{stage}")).set(bytes as f64);
        obs::metrics::gauge("run.peak_rss").set(bytes as f64);
    }
}

/// Stage 2 — attacks (inputs: plan + `config.gen` + seed), memory,
/// then disk, then generated on `pool` under the `stage.attacks` chaos
/// site. The one resolution path of the attack rows, for an observer
/// pass and for [`StudyRun::attacks`] alike.
fn resolve_attacks(
    config: &StudyConfig,
    tiers: &Tiers,
    pool: &ExecPool,
    plan: &InternetPlan,
) -> Arc<AttackColumns> {
    let key = StageFingerprints::of(config).attacks;
    let chaos = config.chaos.as_ref().map(|c| c.schedule());
    let attacks = tiers.get_or_compute(key, || {
        crate::faults::with_chaos(chaos.as_ref(), simcore::chaos::sites::STAGE_ATTACKS, key, || {
            AttackGenerator::new(plan, config.gen.clone(), &SimRng::new(config.seed))
                .generate_study_on(pool)
        })
    });
    record_peak_rss("attacks");
    attacks
}

/// A completed study run. The stage outputs (`plan`, the attack rows,
/// the observation streams) are `Arc`-owned: cache hits share one
/// allocation across runs, and the projections layer on top per run.
pub struct StudyRun {
    pub config: StudyConfig,
    /// Stage-1 output: the Internet plan.
    pub plan: Arc<InternetPlan>,
    /// Stage-2 output, the ground-truth attack rows: set when an
    /// observer pass ran, else on the first [`StudyRun::attacks`].
    attacks: OnceLock<Arc<AttackColumns>>,
    /// What resolving the attack stage reads: the tiers and the pool
    /// the run executed with.
    tiers: Tiers,
    pool: ExecPool,
    /// Stage-3 outputs: observation streams indexed by [`ObsId::index`].
    observations: [Arc<ObservationColumns>; 11],
    /// All Netscout alerts (needed for the §7.2 baseline sample).
    pub netscout_alerts: Arc<AlertColumns>,
    /// The Netscout instance of this plan, kept for the baseline
    /// sample (rebuilding it per projection call was the old
    /// `netscout_baseline_tuples` hot spot).
    netscout: Netscout,
    /// The observatory RNG root the run executed with.
    obs_root: SimRng,
    cache: ProjectionCache,
}

impl StudyRun {
    /// Execute the full pipeline. Deterministic in `config.seed`,
    /// regardless of worker count: uses `config.workers` if set, else
    /// the process-wide default pool.
    ///
    /// Panics on an invalid config; callers handling untrusted configs
    /// (CLI, sweeps, fuzzing) should use [`StudyRun::try_execute`].
    pub fn execute(config: &StudyConfig) -> StudyRun {
        Self::try_execute(config).expect("StudyConfig failed validation")
    }

    /// Validate, then execute. The only failure mode is a typed
    /// [`Error::Config`](crate::Error::Config) from
    /// [`StudyConfig::validate`]; a config that passes validation runs
    /// to completion without panicking.
    pub fn try_execute(config: &StudyConfig) -> crate::error::Result<StudyRun> {
        config.validate()?;
        let pool = config.workers.map(ExecPool::new).unwrap_or_default();
        Ok(Self::execute_on(config, &pool))
    }

    /// Execute the three-stage dataflow on `pool` (built from
    /// `config.workers`), against the stage tiers of `config`.
    ///
    /// Each stage output is looked up by its content fingerprint
    /// ([`StageFingerprints`]) in memory, then on disk, and computed
    /// (then written through) only on a miss (`Tiers`), so repeated
    /// runs and sweep grids share the stages whose inputs are
    /// unchanged. Cached and recomputed outputs are byte-identical
    /// because every stage is deterministic in its fingerprinted
    /// inputs: stochastic units fork their RNG from immutable data —
    /// week index for generation, (attack id, observatory name) for
    /// observation — and the pool merges shard results in deterministic
    /// order regardless of worker count. The observation stage is ten
    /// observer passes (one detector over the attack rows, into one
    /// output each) and five post-passes over their outputs (each
    /// honeypot's carpet pass, the Netscout class split); a post-pass
    /// reads its cached or fresh input, so a carpet-gap change or a
    /// lost Netscout series re-observes nothing.
    ///
    /// The attack stage resolves only when an observer pass must run:
    /// the observation outputs are looked up first, and when every one
    /// hits, the attack rows stay unread until
    /// [`StudyRun::attacks`] is first called. A warm `trends` run, a
    /// served study or a carpet-gap point never opens the attack cell.
    ///
    /// Stage spans (`plan`, `generate`, one `observe` around the
    /// observer passes that run, one `carpet.order` per honeypot whose
    /// detections are computed, one `carpet` or `merge` per post-pass
    /// that runs) nest under whatever span the caller holds and are
    /// only opened when the stage actually computes — a fully warm run
    /// emits no stage spans.
    fn execute_on(config: &StudyConfig, pool: &ExecPool) -> StudyRun {
        // Disk loads are integrity-checked and a rejected cell falls
        // back to recompute, so neither tier can change an output byte.
        let tiers = Tiers::of(config);
        let fp = StageFingerprints::of(config);
        let root = SimRng::new(config.seed);

        // Control-plane fault injection: attach the chaos schedule to
        // the pool (so every shard runs under bounded retry) and wrap
        // each stage compute, keyed by its content fingerprint — the
        // injection pattern is a pure function of the schedule and the
        // work's identity, never of worker count or cache state.
        let chaos = config.chaos.as_ref().map(|c| c.schedule());
        let pool = match chaos {
            Some(cs) => pool.with_chaos(cs),
            None => *pool,
        };

        // Stage 1 — plan (inputs: seed + config.net).
        let plan = tiers.get_or_compute(fp.plan, || {
            crate::faults::with_chaos(chaos.as_ref(), simcore::chaos::sites::STAGE_PLAN, fp.plan, || {
                let _s = obs::span!("plan");
                let mut plan_rng = root.fork_named("plan");
                InternetPlan::build(&config.net, &mut plan_rng)
            })
        });

        record_peak_rss("plan");

        let obs_root = root.fork_named("observatories");
        // Always rebuilt (cheap, per-plan): the §7.2 baseline
        // projection samples through the run's own Netscout instance.
        let mut netscout = Netscout::with_defaults(&plan);
        netscout.faults = config.faults.for_source("netscout");

        // Data-plane fault bookkeeping: surface the plan's outage mask
        // in the metrics registry (and therefore every run manifest).
        if !config.faults.is_empty() {
            let masked: u64 = config
                .faults
                .degraded_weeks()
                .iter()
                .map(|(_, weeks)| weeks.len() as u64)
                .sum();
            obs::metrics::counter("fault.degraded_weeks").add(masked);
        }

        // Stage 3 — observations (inputs: plan + attacks + each
        // source's fault slice; the carpet pass also reads config.obs):
        // ten observer passes over the attack rows, then five
        // post-passes over their outputs. Each of the fifteen outputs
        // resolves through the tiers under its own key, and a miss
        // computes only that output, from its input, which is looked
        // up the same way: a missed honeypot stream looks up its
        // detections, a missed Netscout stream the alert stream, and
        // only a pass that must run resolves the attack rows (stage 2).
        let mut streams: [Option<Arc<ObservationColumns>>; 11] =
            ObsId::ALL.map(|id| tiers.lookup(fp.observation(id)));
        let mut alerts = tiers.lookup(fp.netscout_alerts);
        let mut detections: [Option<Arc<Detections>>; 3] = std::array::from_fn(|i| {
            if streams[ObsId::HONEYPOTS[i].index()].is_none() {
                tiers.lookup(fp.detections[i])
            } else {
                None
            }
        });
        let passes: Vec<Pass> = Pass::ALL
            .into_iter()
            .filter(|&pass| match pass {
                Pass::Telescope(id) | Pass::Ixp(id) | Pass::Akamai(id) => {
                    streams[id.index()].is_none()
                }
                Pass::Honeypot(i) => {
                    streams[ObsId::HONEYPOTS[i].index()].is_none() && detections[i].is_none()
                }
                Pass::Netscout => alerts.is_none(),
            })
            .collect();

        let attacks = OnceLock::new();
        if !passes.is_empty() {
            let attacks: &AttackColumns =
                attacks.get_or_init(|| resolve_attacks(config, &tiers, &pool, &plan));
            let observe_span = obs::span!("observe");
            // Each observatory consults its slice of the fault plan
            // while observing (empty slices are bit-for-bit inert).
            let faults_for = |source: &str| config.faults.for_source(source);
            let mut ucsd = Telescope::ucsd(&plan);
            ucsd.faults = faults_for("ucsd");
            let mut orion = Telescope::orion(&plan);
            orion.faults = faults_for("orion");
            let mut hopscotch = Honeypot::hopscotch(&plan);
            hopscotch.faults = faults_for("hopscotch");
            let mut amppot = Honeypot::amppot(&plan);
            amppot.faults = faults_for("amppot");
            let mut newkid = Honeypot::newkid(&plan);
            newkid.faults = faults_for("newkid");
            let honeypots = [hopscotch, amppot, newkid];
            let mut ixp = IxpBlackholing::with_defaults(&plan);
            ixp.faults = faults_for("ixp");
            let mut akamai = Akamai::with_defaults(&plan);
            akamai.faults = faults_for("akamai");

            // Flatten (pass × attack shard) onto the pool, pass-major.
            // The fold consumes results in task order, so each pass's
            // output is the concatenation of its shards in attack-row
            // order, exactly a serial loop over every row, while each
            // shard's buffers free as soon as they are spliced in.
            let chunk = simcore::pool::shard_size(attacks.len(), pool.workers());
            let n_shards = attacks.len().div_ceil(chunk).max(1);
            let tasks: Vec<(usize, usize)> = (0..passes.len())
                .flat_map(|pass| (0..n_shards).map(move |shard| (pass, shard)))
                .collect();
            let shard_ns =
                obs::metrics::histogram("observe.shard_ns", &obs::metrics::LATENCY_NS);
            // Each pass reads only the rows of the classes its observer
            // records, so no view is built for a row it would reject.
            // Every observer checks its outage window and the class
            // before any RNG fork, so the filter moves no output byte.
            let classes = attacks.class.as_slice();
            let only = move |class: AttackClass| move |i: usize| classes[i] == class;
            let class_rows =
                move |id: ObsId| move |i: usize| classes[i].is_reflection() != id.is_direct_path();

            let mut outs: Vec<ObservationColumns> =
                passes.iter().map(|_| ObservationColumns::new()).collect();
            let mut alerts_raw = AlertColumns::new();
            pool.par_chunks_fold(&tasks, 1, |_, task| {
                let watch = obs::Stopwatch::start();
                let (pass, shard) = task[0];
                let rows = shard * chunk..((shard + 1) * chunk).min(attacks.len());
                let out = match passes[pass] {
                    Pass::Telescope(id) => {
                        let telescope = if id == ObsId::Ucsd { &ucsd } else { &orion };
                        let spoofed = only(AttackClass::DirectPathSpoofed);
                        observe_rows(attacks, rows, spoofed, |a, out| {
                            telescope.observe_into(a, &obs_root, out)
                        })
                    }
                    Pass::Honeypot(i) => {
                        let reflected = only(AttackClass::ReflectionAmplification);
                        observe_rows(attacks, rows, reflected, |a, out| {
                            honeypots[i].observe_into(a, &obs_root, out)
                        })
                    }
                    Pass::Ixp(id) => observe_rows(attacks, rows, class_rows(id), |a, out| {
                        if ixp.observe_view(a, &obs_root).is_some() {
                            out.push_row(a.id, a.start, a.targets);
                        }
                    }),
                    Pass::Akamai(id) => observe_rows(attacks, rows, class_rows(id), |a, out| {
                        akamai.observe_into(a, &obs_root, out)
                    }),
                    Pass::Netscout => {
                        let mut out = AlertColumns::new();
                        for a in rows.map(|i| attacks.get(i)) {
                            if let Some((class, severity)) = netscout.observe_view(a, &obs_root)
                            {
                                out.push(a, class, severity);
                            }
                        }
                        ShardOut::Alerts(out)
                    }
                };
                shard_ns.record(watch.elapsed_ns());
                out
            }, (), |(), idx, out| match out {
                ShardOut::Rows(v) => outs[tasks[idx].0].append(v),
                ShardOut::Alerts(v) => alerts_raw.append(v),
            });
            drop(observe_span);

            for (pass, mut out) in passes.into_iter().zip(outs) {
                match pass {
                    Pass::Telescope(id) | Pass::Ixp(id) | Pass::Akamai(id) => {
                        out.shrink_to_fit();
                        streams[id.index()] = Some(tiers.publish(fp.observation(id), out));
                    }
                    Pass::Honeypot(i) => {
                        // The gap-free half of the carpet pass, stored
                        // as the detections themselves.
                        let ordered = {
                            let _order_span = obs::span!("carpet.order");
                            Detections::new(&plan, &out)
                        };
                        detections[i] = Some(tiers.publish(fp.detections[i], ordered));
                    }
                    Pass::Netscout => {
                        alerts_raw.shrink_to_fit();
                        let raw = std::mem::take(&mut alerts_raw);
                        alerts = Some(tiers.publish(fp.netscout_alerts, raw));
                    }
                }
            }
        }

        // The post-passes. The CCC / Appendix-I carpet pass, the one
        // reader of the merge gap, merges concurrent same-prefix events
        // of each honeypot whose stream missed: one linear merge over
        // its cached or fresh detections, already in carpet order. Its
        // output is allocated once at its final size and not shrunk
        // (DESIGN.md §9).
        let gap = i64::from(config.obs.carpet_gap_secs);
        for (i, id) in ObsId::HONEYPOTS.into_iter().enumerate() {
            if let Some(ordered) = detections[i].take() {
                let _carpet_span = obs::span!("carpet");
                let merged = ordered.merge(gap);
                streams[id.index()] = Some(tiers.publish(fp.observation(id), merged));
            }
        }
        // The class split: each missed Netscout series is its class of
        // the alert stream.
        let netscout_alerts = alerts.expect("netscout alert stream resolved");
        for id in [ObsId::NetscoutRa, ObsId::NetscoutDp] {
            if streams[id.index()].is_none() {
                let _merge_span = obs::span!("merge");
                let mut series = netscout_alerts.series(!id.is_direct_path());
                series.shrink_to_fit();
                streams[id.index()] = Some(tiers.publish(fp.observation(id), series));
            }
        }

        record_peak_rss("observe");

        let observations = streams.map(|s| s.expect("every observation stream resolved"));

        // Per-observatory kept-observation counts: together with
        // `gen.attacks` these answer "what did each stage actually do"
        // in any run's manifest. Counted per run whether the stream was
        // observed or served from cache.
        for id in ObsId::ALL {
            obs::metrics::counter(&format!("observe.count.{}", id.slug()))
                .add(observations[id.index()].len() as u64);
        }

        StudyRun {
            config: config.clone(),
            plan,
            attacks,
            tiers,
            pool,
            observations,
            netscout_alerts,
            netscout,
            obs_root,
            cache: ProjectionCache::new(),
        }
    }

    /// Stage-2 output: the ground-truth attack stream, columnar (one
    /// shared target arena instead of a `Vec<Ipv4>` per attack). Read
    /// only by the observer passes, `detval` and five extensions, so a
    /// run whose observation outputs were all stored resolves it here,
    /// on the first call, through the same tiers as an observer pass.
    pub fn attacks(&self) -> &AttackColumns {
        self.attacks
            .get_or_init(|| resolve_attacks(&self.config, &self.tiers, &self.pool, &self.plan))
    }

    /// Observations of one observatory, columnar.
    pub fn observations(&self, id: ObsId) -> &ObservationColumns {
        &self.observations[id.index()]
    }

    /// Raw weekly attack counts (§5 aggregation), with the paper's
    /// missing-data gaps masked when configured. Memoized per series.
    pub fn weekly_series(&self, id: ObsId) -> &WeeklySeries {
        memo(&self.cache.weekly[id.index()], &self.cache.weekly_counters, || {
            let mut s = WeeklySeries::new(id.name(), self.observations(id).weekly_counts());
            if self.config.missing_data {
                match id {
                    ObsId::Orion => {
                        // ORION missing 2019Q3–Q4 (§6.1).
                        let lo = Date::new(2019, 7, 1).to_sim_time().week_index() as usize;
                        let hi = Date::new(2020, 1, 1).to_sim_time().week_index() as usize;
                        s.mask_range(lo, hi);
                    }
                    ObsId::IxpDp | ObsId::IxpRa => {
                        // IXP missing January 2019.
                        let hi = Date::new(2019, 2, 1).to_sim_time().week_index() as usize;
                        s.mask_range(0, hi);
                    }
                    _ => {}
                }
            }
            // Fault-plan outage windows are *missing data*, not zero
            // counts: mask them so normalization, EWMA, regression and
            // correlations skip the gap instead of being poisoned by
            // artificial zeros.
            for (lo, hi) in self.config.faults.outage_ranges(id) {
                s.mask_range(lo, hi);
            }
            s
        })
    }

    /// Normalized weekly series (median of the first 15 present weeks).
    /// Memoized per series.
    pub fn normalized_series(&self, id: ObsId) -> &WeeklySeries {
        memo(
            &self.cache.normalized[id.index()],
            &self.cache.normalized_counters,
            || self.weekly_series(id).normalize_to_baseline(),
        )
    }

    /// All ten main series, normalized, in Fig.-4 order.
    pub fn all_ten_normalized(&self) -> Vec<WeeklySeries> {
        ObsId::MAIN_TEN
            .iter()
            .map(|&id| self.normalized_series(id).clone())
            .collect()
    }

    /// Distinct (day, target IP) tuples of one observatory (§7).
    /// Memoized per series.
    pub fn target_tuples(&self, id: ObsId) -> &[TargetTuple] {
        let v: &Vec<TargetTuple> =
            memo(&self.cache.tuples[id.index()], &self.cache.tuples_counters, || {
                self.observations(id).distinct_target_tuples()
            });
        v
    }

    /// The §7 membership column: every distinct (day, IP) tuple of the
    /// academic observatories, ascending, with its mask over
    /// [`ObsId::ACADEMIC`]. Memoized; one merge of their tuple streams.
    pub fn academic_membership(&self) -> &[Member] {
        let v: &Vec<Member> =
            memo(&self.cache.membership, &self.cache.membership_counters, || {
                analytics::membership(&ObsId::ACADEMIC.map(|id| self.target_tuples(id)))
            });
        v
    }

    /// Row of every attack id in [`StudyRun::attacks`] (see
    /// [`AttackColumns::rows_by_id`], which panics unless the ids are a
    /// permutation of `0..n`). Memoized.
    pub fn attack_rows(&self) -> &[u32] {
        let v: &Vec<u32> =
            memo(&self.cache.attack_rows, &self.cache.attack_rows_counters, || {
                self.attacks().rows_by_id()
            });
        v
    }

    /// The ground-truth row an observation joins to (`None` outside
    /// the population).
    pub fn attack_row(&self, id: AttackId) -> Option<usize> {
        self.attack_rows().get(id.0 as usize).map(|&row| row as usize)
    }

    /// Target tuples of the Netscout §7.2 baseline sample (~28 % of
    /// alerts). Memoized; reuses the run's own `Netscout` instance and
    /// observatory RNG root, and borrows the sampled observations
    /// instead of cloning them.
    pub fn netscout_baseline_tuples(&self) -> &[TargetTuple] {
        let v: &Vec<TargetTuple> =
            memo(&self.cache.baseline, &self.cache.baseline_counters, || {
                let alerts = &self.netscout_alerts;
                let mut tuples: Vec<TargetTuple> = Vec::new();
                for i in 0..alerts.len() {
                    let row = alerts.obs.get(i);
                    if self.netscout.baseline_keep(row.attack_id.0, &self.obs_root) {
                        tuples.extend(row.target_tuples());
                    }
                }
                tuples.sort_unstable();
                tuples.dedup();
                tuples
            });
        v
    }

    /// Counts of projection computations so far (cache instrumentation).
    pub fn projection_stats(&self) -> ProjectionStats {
        ProjectionStats {
            weekly_computed: self.cache.weekly_counters.run_computed.get() as usize,
            normalized_computed: self.cache.normalized_counters.run_computed.get() as usize,
            tuples_computed: self.cache.tuples_counters.run_computed.get() as usize,
            baseline_computed: self.cache.baseline_counters.run_computed.get() as usize,
            akamai_computed: self.cache.akamai_counters.run_computed.get() as usize,
            membership_computed: self.cache.membership_counters.run_computed.get() as usize,
            attack_rows_computed: self.cache.attack_rows_counters.run_computed.get() as usize,
        }
    }

    /// Target tuples of the Akamai §7.2 join: both classes, restricted
    /// to "targets in the network prefix of Akamai" — the narrow set of
    /// prefixes advertised from the Prolexic ASN, not the full
    /// protected customer base (which is why the paper's Akamai joins
    /// are ≈100× smaller than Netscout's). Memoized: the sort/dedup
    /// runs once per run, repeat calls borrow.
    pub fn akamai_tuples(&self) -> &[TargetTuple] {
        let v: &Vec<TargetTuple> =
            memo(&self.cache.akamai, &self.cache.akamai_counters, || {
                let mut all = self.target_tuples(ObsId::AkamaiRa).to_vec();
                all.extend_from_slice(self.target_tuples(ObsId::AkamaiDp));
                all.retain(|&(_, ip)| self.plan.akamai_announces(ip));
                all.sort_unstable();
                all.dedup();
                all
            });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared quick run for all pipeline tests.
    pub(crate) fn quick_run() -> &'static StudyRun {
        static RUN: OnceLock<StudyRun> = OnceLock::new();
        RUN.get_or_init(|| StudyRun::execute(&StudyConfig::quick()))
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, id) in ObsId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i, "{}", id.name());
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = StudyRun::execute(&StudyConfig::quick());
        let b = quick_run();
        assert_eq!(a.attacks().len(), b.attacks().len());
        for id in ObsId::MAIN_TEN {
            assert_eq!(
                a.observations(id).len(),
                b.observations(id).len(),
                "{} diverged",
                id.name()
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_gauges_recorded() {
        let _ = quick_run();
        assert!(obs::metrics::gauge("run.peak_rss").get() > 0.0);
        for stage in ["plan", "attacks", "observe"] {
            let g = obs::metrics::gauge(&format!("run.peak_rss.{stage}"));
            assert!(g.get() > 0.0, "run.peak_rss.{stage} not recorded");
        }
    }

    #[test]
    fn every_observatory_sees_something() {
        let run = quick_run();
        for id in ObsId::MAIN_TEN {
            assert!(
                !run.observations(id).is_empty(),
                "{} saw nothing",
                id.name()
            );
        }
        assert!(!run.observations(ObsId::NewKid).is_empty());
    }

    #[test]
    fn telescopes_only_see_spoofed_dp() {
        let run = quick_run();
        let class_of = |id| run.attacks().class[run.attack_row(id).expect("observed id exists")];
        for id in [ObsId::Ucsd, ObsId::Orion] {
            for o in run.observations(id).iter() {
                assert_eq!(
                    class_of(o.attack_id),
                    attackgen::AttackClass::DirectPathSpoofed
                );
            }
        }
    }

    #[test]
    fn honeypots_only_see_ra() {
        let run = quick_run();
        let class_of = |id| run.attacks().class[run.attack_row(id).expect("observed id exists")];
        for id in [ObsId::Hopscotch, ObsId::AmpPot] {
            for o in run.observations(id).iter() {
                // Reconstructed events keep the id of their first
                // member; synthetic ids (u64::MAX range) never appear in
                // the event-level path.
                assert!(
                    class_of(o.attack_id).is_reflection(),
                    "{} saw a DP attack",
                    id.name()
                );
            }
        }
    }

    #[test]
    fn ucsd_sees_more_than_orion() {
        let run = quick_run();
        let ucsd = run.observations(ObsId::Ucsd).len();
        let orion = run.observations(ObsId::Orion).len();
        assert!(
            ucsd > 2 * orion,
            "UCSD {ucsd} should dwarf ORION {orion} (24× size)"
        );
    }

    #[test]
    fn weekly_series_lengths() {
        let run = quick_run();
        for id in ObsId::MAIN_TEN {
            assert_eq!(run.weekly_series(id).len(), simcore::STUDY_WEEKS);
        }
    }

    #[test]
    fn missing_data_masks_applied() {
        let run = quick_run();
        let orion = run.weekly_series(ObsId::Orion);
        let w = Date::new(2019, 9, 1).to_sim_time().week_index() as usize;
        assert!(orion.values[w].is_nan(), "ORION 2019Q3 should be masked");
        let ixp = run.weekly_series(ObsId::IxpDp);
        assert!(ixp.values[1].is_nan(), "IXP January 2019 should be masked");
        // UCSD has no gaps.
        assert!(run.weekly_series(ObsId::Ucsd).values[w].is_finite());
    }

    #[test]
    fn normalized_series_baseline_near_one() {
        let run = quick_run();
        let s = run.normalized_series(ObsId::Ucsd);
        let early: Vec<f64> = s.present().take(15).map(|(_, v)| v).collect();
        let m = analytics::median(&early);
        assert!((m - 1.0).abs() < 0.2, "baseline median {m}");
    }

    #[test]
    fn netscout_baseline_is_subset() {
        let run = quick_run();
        let baseline = run.netscout_baseline_tuples();
        let mut full = run.target_tuples(ObsId::NetscoutRa).to_vec();
        full.extend_from_slice(run.target_tuples(ObsId::NetscoutDp));
        let full: std::collections::HashSet<_> = full.into_iter().collect();
        assert!(!baseline.is_empty());
        assert!(baseline.len() < full.len());
        assert!(baseline.iter().all(|t| full.contains(t)));
    }

    #[test]
    fn target_tuples_deduplicated() {
        let run = quick_run();
        let tuples = run.target_tuples(ObsId::Hopscotch);
        let set: std::collections::HashSet<_> = tuples.iter().collect();
        assert_eq!(set.len(), tuples.len());
    }

    #[test]
    fn akamai_tuples_memoized() {
        let run = StudyRun::execute(&StudyConfig::quick());
        assert_eq!(run.projection_stats().akamai_computed, 0);
        let first = run.akamai_tuples();
        assert_eq!(run.projection_stats().akamai_computed, 1);
        let second = run.akamai_tuples();
        // Still one compute, and the repeat call borrows the same data.
        assert_eq!(run.projection_stats().akamai_computed, 1);
        assert!(std::ptr::eq(first.as_ptr(), second.as_ptr()));
        assert_eq!(first, second);
    }
}
