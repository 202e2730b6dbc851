//! Content-addressed cross-run stage cache (DESIGN.md §7).
//!
//! [`crate::StudyRun::try_execute`] runs an explicit three-stage
//! dataflow — `plan` → `attacks` → `observations` — and each stage
//! output is a pure function of a *subset* of the [`StudyConfig`] plus
//! the outputs of earlier stages. The observation stage has fifteen
//! outputs: ten from observer passes over the attack rows (UCSD,
//! ORION, each honeypot's gap-free detections, IXP and Akamai per
//! class, the raw Netscout alerts) and five from post-passes over
//! those (each honeypot's carpet pass, the two Netscout series). This
//! module keys each output by an FNV-1a fingerprint of exactly its
//! inputs and memoizes the outputs process-wide, so a parameter sweep
//! (or any repeated `try_execute`) recomputes only the outputs whose
//! inputs actually changed: an observation-side sweep skips plan
//! building and attack generation entirely, a carpet-gap sweep reruns
//! only the three honeypot carpet passes, and a `gen.timeline` sweep
//! reuses the Internet plan at every grid point.
//!
//! **Correctness invariant:** cached output is byte-identical to
//! recomputed output. That holds because (a) every stage is
//! deterministic in its fingerprinted inputs (the execution engine's
//! worker-invariance contract, DESIGN.md §4), and (b) the fingerprint
//! covers *all* inputs: the field inventory below assigns every
//! `StudyConfig` field to exactly one stage class, and a unit test
//! fails if a field is added without being classified — a new knob can
//! never silently alias two different scenarios onto one cache key.
//! The plan and attack classes fold whole serialized fields. The
//! observations class is keyed per stream, by the slice of it each
//! stream reads (see [`StageFingerprints`]); `tests/stage_keys.rs`
//! guards that finer split down to nested fields, by perturbing every
//! leaf of the class and requiring that each stream whose bytes change
//! gets a new key.
//!
//! The cache is bounded (LRU over filled entries, default
//! [`DEFAULT_BOUND`]), thread-safe, and coalescing: concurrent misses
//! on the same key block on one compute instead of duplicating it.
//! Its entry points are generic over [`StageOutput`], the trait the
//! four stage output types implement (stage, kind tag, wire codec).
//! Telemetry lands in the global `obs` registry as
//! `stage.<plan|attacks|observations>.{hit,computed,evicted}` and
//! therefore in every run manifest.
//!
//! `Tiers` puts this cache over the on-disk [`DiskStore`] for one
//! execution and holds the tier order — memory, then disk, then
//! compute, then write-through — in one place; the pipeline resolves
//! every stage output through it.

use crate::diskstore::DiskStore;
use crate::faults::FaultPlan;
use crate::pipeline::ObsId;
use crate::scenario::StudyConfig;
use attackgen::{AttackColumns, ObservationColumns};
use flowmon::AlertColumns;
use netmodel::InternetPlan;
use obs::manifest::Fnv;
use obs::metrics::Counter;
use serde::Value;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Default stage-cache bound, in entries. One full study run occupies
/// 17 entries (1 plan + 1 attack stream + 11 observation streams + the
/// Netscout alert stream + 3 honeypot detections), and each further
/// carpet-gap point adds 3 (its carpet outputs), so the default
/// comfortably covers a long gap sweep's working set.
pub const DEFAULT_BOUND: usize = 256;

/// The effective cache bound for a config: the config knob, else
/// [`DEFAULT_BOUND`]. `0` means "bypass the cache".
pub fn resolve_bound(config: &StudyConfig) -> usize {
    config.stage_cache.unwrap_or(DEFAULT_BOUND)
}

// ---------------------------------------------------------------------
// Field inventory: every top-level StudyConfig field, classified.
// ---------------------------------------------------------------------

/// The classification: `(serialized field name, stage class)`.
/// `plan`/`attacks`/`observations` fields enter the corresponding
/// fingerprints (and, transitively, every downstream one; an
/// `observations` field enters only the keys of the streams that read
/// it); `projection` fields only shape per-run projections computed
/// *after* the cached stages (weekly-gap masking); `execution` fields
/// cannot change any output byte (worker count, the cache bound
/// itself). Must list every top-level [`StudyConfig`] field exactly once —
/// `field_inventory_is_exhaustive` fails otherwise, which is the
/// guard against silent cache poisoning when a field is added. The
/// `observations` fields are not folded whole: [`StageFingerprints::of`]
/// keys each stream by its own slice of them, so a new field of this
/// class must also be keyed there (`field_inventory_is_exhaustive`
/// pins the class to `obs` and `faults`), and `tests/stage_keys.rs`
/// perturbs every nested leaf of the class.
pub const FIELD_STAGES: &[(&str, &str)] = &[
    ("seed", "plan"),
    ("net", "plan"),
    ("gen", "attacks"),
    ("obs", "observations"),
    ("faults", "observations"),
    ("missing_data", "projection"),
    ("workers", "execution"),
    ("stage_cache", "execution"),
    ("disk_store", "execution"),
    ("chaos", "execution"),
];

/// Fold the serialized values of every field in `class` into `h`, in
/// inventory order. Hashing the serialized JSON keeps the fingerprint
/// sensitive to every nested knob (a new field inside `NetScale` or
/// `GenConfig` changes its parent's serialization and therefore the
/// fingerprint) without any per-field bookkeeping below the top level.
fn fold_class(h: &mut Fnv, config_value: &Value, class: &str) {
    for (field, stage) in FIELD_STAGES {
        if *stage != class {
            continue;
        }
        let v = config_value.get(field).unwrap_or(&Value::Null);
        let json = serde_json::to_string(v).expect("Value serialization is infallible");
        h.write(field.as_bytes()).write(b"=").write(json.as_bytes()).write(b";");
    }
}

/// Per-stage scenario fingerprints of one [`StudyConfig`]. Each key
/// chains the key of the stage output it reads, so invalidation flows
/// down the dataflow: a `net` change re-keys everything, a `gen` change
/// re-keys attacks and every observation output but leaves the plan key
/// intact.
///
/// The observations class is keyed per stream, by exactly what each
/// stream reads. A *source key* folds the attacks key, a
/// [`FAULT_SOURCES`] slug and the serialized fault slice that source's
/// observer receives ([`FaultPlan::for_source`]). Every stream chains
/// its source's key, and only the three honeypot streams — the carpet
/// pass over their gap-free detections — also fold the serialized
/// `obs`. A carpet-gap change therefore re-keys three outputs, and an
/// outage on one source re-keys only that source's outputs.
///
/// [`FAULT_SOURCES`]: crate::faults::FAULT_SOURCES
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFingerprints {
    /// Key of the Internet plan: `seed` + `net`.
    pub plan: u64,
    /// Key of the ground-truth attack stream: plan key + `gen`.
    pub attacks: u64,
    /// Keys of the eleven final observation streams, indexed by
    /// [`ObsId::index`]: each chains its source key (a honeypot stream,
    /// its detections key) and its slug; a honeypot stream also folds
    /// `obs`.
    pub observations: [u64; 11],
    /// Key of the raw Netscout alert stream (the §7.2 baseline input):
    /// chains the `netscout` source key.
    pub netscout_alerts: u64,
    /// Keys of the gap-free honeypot detections the carpet pass reads,
    /// in [`ObsId::HONEYPOTS`] order: each chains its honeypot's source
    /// key, under a key domain of its own.
    pub detections: [u64; 3],
}

impl StageFingerprints {
    /// Compute every stage fingerprint of `config`.
    pub fn of(config: &StudyConfig) -> StageFingerprints {
        let value =
            serde_json::to_value(config).expect("StudyConfig serialization is infallible");

        let mut h = Fnv::new();
        h.write(b"stage.plan\0");
        fold_class(&mut h, &value, "plan");
        let plan = h.finish();

        let mut h = Fnv::new();
        h.write(b"stage.attacks\0").write_u64(plan);
        fold_class(&mut h, &value, "attacks");
        let attacks = h.finish();

        let source_key = |source: &str| {
            let faults = serde_json::to_string(&config.faults.for_source(source))
                .expect("ObsFaults serialization is infallible");
            let mut h = Fnv::new();
            h.write(b"stage.source\0").write_u64(attacks).write(source.as_bytes());
            h.write(b"\0").write(faults.as_bytes());
            h.finish()
        };
        // `reads` is what the stream's own pass reads beyond its
        // upstream output: the serialized `obs` for a carpet pass.
        let stream_key = |upstream: u64, slug: &str, reads: &str| {
            let mut h = Fnv::new();
            h.write(b"stage.observations\0").write_u64(upstream).write(slug.as_bytes());
            h.write(b"\0").write(reads.as_bytes());
            h.finish()
        };
        let detections = ObsId::HONEYPOTS.map(|id| {
            let mut h = Fnv::new();
            h.write(b"stage.detections\0").write_u64(source_key(id.slug()));
            h.finish()
        });
        let obs = serde_json::to_string(&config.obs).expect("ObsParams serialization is infallible");
        let mut observations = [0u64; 11];
        for id in ObsId::ALL {
            observations[id.index()] = match ObsId::HONEYPOTS.iter().position(|&h| h == id) {
                Some(i) => stream_key(detections[i], id.slug(), &obs),
                None => stream_key(source_key(FaultPlan::source_of(id)), id.slug(), ""),
            };
        }
        let netscout_alerts = stream_key(source_key("netscout"), "netscout_alerts", "");

        StageFingerprints {
            plan,
            attacks,
            observations,
            netscout_alerts,
            detections,
        }
    }

    /// The observation-stream key of one observatory.
    pub fn observation(&self, id: ObsId) -> u64 {
        self.observations[id.index()]
    }

    /// Manifest entries (`run.stages` in the telemetry JSON): the plan
    /// and attack keys verbatim plus one hash folding all observation
    /// keys.
    pub fn manifest_entries(&self) -> Vec<(String, u64)> {
        let mut h = Fnv::new();
        for fp in self.observations {
            h.write_u64(fp);
        }
        h.write_u64(self.netscout_alerts);
        vec![
            ("plan".to_string(), self.plan),
            ("attacks".to_string(), self.attacks),
            ("observations".to_string(), h.finish()),
        ]
    }
}

// ---------------------------------------------------------------------
// The cache proper.
// ---------------------------------------------------------------------

/// Which stage a cache entry (or counter) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Plan,
    Attacks,
    Observations,
}

impl Stage {
    pub(crate) const ALL: [Stage; 3] = [Stage::Plan, Stage::Attacks, Stage::Observations];

    pub const fn name(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::Attacks => "attacks",
            Stage::Observations => "observations",
        }
    }

    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// A stage output both tiers hold: the stage whose counters it moves,
/// a kind tag unique to the type, and the wire codec the disk tier
/// frames into cells. The observation streams and the Netscout alert
/// stream share the observations stage; their kind tags keep them
/// apart in the memory map and in cell headers, so a key collision
/// across kinds can never type-confuse a lookup or a load.
pub trait StageOutput: Send + Sync + Sized + 'static {
    const STAGE: Stage;
    /// Cell kind tag: header byte 6 on disk, half the memory map key.
    const KIND: u8;
    fn to_wire(&self) -> Vec<u8>;
    fn from_wire(bytes: &[u8]) -> Result<Self, String>;
}

macro_rules! stage_outputs {
    ($($ty:ty => $stage:ident, $kind:literal;)*) => {$(
        impl StageOutput for $ty {
            const STAGE: Stage = Stage::$stage;
            const KIND: u8 = $kind;
            fn to_wire(&self) -> Vec<u8> {
                self.to_wire_bytes()
            }
            fn from_wire(bytes: &[u8]) -> Result<Self, String> {
                <$ty>::from_wire_bytes(bytes)
            }
        }
    )*};
}

stage_outputs! {
    InternetPlan => Plan, 0;
    AttackColumns => Attacks, 1;
    ObservationColumns => Observations, 2;
    AlertColumns => Observations, 3;
}

/// Cache actions the flight recorder distinguishes.
#[derive(Debug, Clone, Copy)]
enum CacheEvent {
    Hit,
    Miss,
    Compute,
    Evict,
}

/// Static trace-event name for a cache action — the lookup hot path
/// must not allocate just because tracing is armed.
const fn cache_trace_name(stage: Stage, event: CacheEvent) -> &'static str {
    match (stage, event) {
        (Stage::Plan, CacheEvent::Hit) => "cache.plan.hit",
        (Stage::Plan, CacheEvent::Miss) => "cache.plan.miss",
        (Stage::Plan, CacheEvent::Compute) => "cache.plan.compute",
        (Stage::Plan, CacheEvent::Evict) => "cache.plan.evict",
        (Stage::Attacks, CacheEvent::Hit) => "cache.attacks.hit",
        (Stage::Attacks, CacheEvent::Miss) => "cache.attacks.miss",
        (Stage::Attacks, CacheEvent::Compute) => "cache.attacks.compute",
        (Stage::Attacks, CacheEvent::Evict) => "cache.attacks.evict",
        (Stage::Observations, CacheEvent::Hit) => "cache.observations.hit",
        (Stage::Observations, CacheEvent::Miss) => "cache.observations.miss",
        (Stage::Observations, CacheEvent::Compute) => "cache.observations.compute",
        (Stage::Observations, CacheEvent::Evict) => "cache.observations.evict",
    }
}

/// Mark a cache action on the flight recorder (no-op unless armed).
fn cache_trace(stage: Stage, event: CacheEvent, key: u64) {
    if obs::trace::enabled() {
        obs::trace::instant(cache_trace_name(stage, event), &[("key", key)]);
    }
}

/// A cached stage output, type-erased. The slot's map key carries the
/// output's [`StageOutput::KIND`], so a cell only ever holds that type.
type Erased = Arc<dyn Any + Send + Sync>;

/// Map key of a slot: (kind tag, stage fingerprint).
type SlotKey = (u8, u64);

fn typed<T: StageOutput>(value: &Erased) -> Arc<T> {
    Arc::clone(value)
        .downcast::<T>()
        .expect("a slot keyed by T::KIND holds a T")
}

/// One cache slot: the value cell plus its stage and LRU stamp. The
/// cell is shared out under `Arc` so a compute can run *outside* the
/// map lock while concurrent same-key callers block on the `OnceLock`
/// instead of duplicating the work.
struct Slot {
    cell: Arc<OnceLock<Erased>>,
    stage: Stage,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<SlotKey, Slot>,
    tick: u64,
}

/// Per-stage hit/computed/evicted counts, for tests and diagnostics.
/// `computed` counts stage *executions* (it advances even when the
/// cache is bypassed); `hit` counts lookups served from cache;
/// `evicted` counts entries dropped by the LRU bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    pub hit: u64,
    pub computed: u64,
    pub evicted: u64,
}

/// The bounded, thread-safe, in-process stage cache.
pub struct StageCache {
    inner: Mutex<Inner>,
    hit: [Arc<Counter>; 3],
    computed: [Arc<Counter>; 3],
    evicted: [Arc<Counter>; 3],
}

impl StageCache {
    fn new() -> StageCache {
        let handle = |kind: &str, stage: Stage| {
            obs::metrics::counter(&format!("stage.{}.{kind}", stage.name()))
        };
        StageCache {
            inner: Mutex::new(Inner::default()),
            hit: Stage::ALL.map(|s| handle("hit", s)),
            computed: Stage::ALL.map(|s| handle("computed", s)),
            evicted: Stage::ALL.map(|s| handle("evicted", s)),
        }
    }

    /// A cache with private (non-registry) counters: unit tests use
    /// this so concurrently-running tests cannot contaminate each
    /// other's counts through the shared global registry.
    #[cfg(test)]
    fn isolated() -> StageCache {
        let fresh = || Stage::ALL.map(|_| Arc::new(Counter::new()));
        StageCache {
            inner: Mutex::new(Inner::default()),
            hit: fresh(),
            computed: fresh(),
            evicted: fresh(),
        }
    }

    /// The process-wide cache every [`crate::StudyRun`] executes
    /// against.
    pub fn global() -> &'static StageCache {
        static GLOBAL: OnceLock<StageCache> = OnceLock::new();
        GLOBAL.get_or_init(StageCache::new)
    }

    /// Counter values of one stage (process-cumulative).
    pub fn stats(&self, stage: Stage) -> StageStats {
        let i = stage.index();
        StageStats {
            hit: self.hit[i].get(),
            computed: self.computed[i].get(),
            evicted: self.evicted[i].get(),
        }
    }

    /// Drop every entry (counters keep their cumulative values). For
    /// tests and memory-pressure escape hatches; correctness never
    /// depends on cache contents.
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Filled entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().map.values().filter(|s| s.cell.get().is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A poisoned lock is recovered, not propagated: the cache is a
    /// memoization side table and the `OnceLock` cells inside each
    /// slot stay individually consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The slot for `key` (created empty if absent), plus whether it
    /// was already filled at lookup time. Bumps the LRU stamp.
    fn slot<T: StageOutput>(&self, key: u64) -> (Arc<OnceLock<Erased>>, bool) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let slot = inner.map.entry((T::KIND, key)).or_insert_with(|| Slot {
            cell: Arc::new(OnceLock::new()),
            stage: T::STAGE,
            last_used: 0,
        });
        slot.last_used = tick;
        (Arc::clone(&slot.cell), slot.cell.get().is_some())
    }

    /// Evict least-recently-used *filled* entries (never `protect`,
    /// never in-flight empties) until at most `bound` remain.
    fn enforce_bound(&self, bound: usize, protect: SlotKey) {
        let mut inner = self.lock();
        loop {
            let filled = inner
                .map
                .values()
                .filter(|s| s.cell.get().is_some())
                .count();
            if filled <= bound {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter(|(k, s)| **k != protect && s.cell.get().is_some())
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, s)| (*k, s.stage));
            let Some((victim, stage)) = victim else { return };
            inner.map.remove(&victim);
            self.evicted[stage.index()].inc();
            cache_trace(stage, CacheEvent::Evict, victim.1);
        }
    }

    /// Core memoization: the cached output for `key`, else `compute()`d
    /// and cached. Concurrent misses on the same key coalesce onto one
    /// compute; the flag is true only for the caller that ran it (the
    /// one that owns any write-through). `bound == 0` bypasses the
    /// cache entirely (the compute still counts as a stage execution).
    pub(crate) fn get_or_compute<T: StageOutput>(
        &self,
        bound: usize,
        key: u64,
        compute: impl FnOnce() -> T,
    ) -> (Arc<T>, bool) {
        let stage = T::STAGE;
        let run = || {
            self.computed[stage.index()].inc();
            let _t = obs::trace::Guard::new(
                cache_trace_name(stage, CacheEvent::Compute),
                Some(("key", key)),
            );
            Arc::new(compute())
        };
        if bound == 0 {
            return (run(), true);
        }
        let (cell, filled) = self.slot::<T>(key);
        if filled {
            self.hit[stage.index()].inc();
            cache_trace(stage, CacheEvent::Hit, key);
            return (typed(cell.get().expect("filled slot has a value")), false);
        }
        let mut ran = false;
        let value = typed(cell.get_or_init(|| {
            ran = true;
            run() as Erased
        }));
        if ran {
            cache_trace(stage, CacheEvent::Miss, key);
            self.enforce_bound(bound, (T::KIND, key));
        } else {
            // A concurrent computer filled the cell while we waited:
            // served from cache as far as this caller is concerned.
            self.hit[stage.index()].inc();
            cache_trace(stage, CacheEvent::Hit, key);
        }
        (value, ran)
    }

    /// Lookup-only: the cached output for `key`, if present.
    pub(crate) fn get<T: StageOutput>(&self, bound: usize, key: u64) -> Option<Arc<T>> {
        if bound == 0 {
            return None;
        }
        let value = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            inner.map.get_mut(&(T::KIND, key)).and_then(|slot| {
                slot.last_used = tick;
                slot.cell.get().map(typed::<T>)
            })
        };
        let event = if value.is_some() {
            self.hit[T::STAGE.index()].inc();
            CacheEvent::Hit
        } else {
            CacheEvent::Miss
        };
        cache_trace(T::STAGE, event, key);
        value
    }

    /// Insert a freshly computed output under `key` and enforce the
    /// bound. Counts one stage execution.
    pub(crate) fn insert<T: StageOutput>(&self, bound: usize, key: u64, value: Arc<T>) {
        self.computed[T::STAGE.index()].inc();
        // The execution itself ran (and was traced) in the caller's
        // fan-out; mark the result entering the cache.
        cache_trace(T::STAGE, CacheEvent::Compute, key);
        self.adopt(bound, key, value);
    }

    /// Insert an output that was *loaded*, not computed — a disk-store
    /// hit entering the memory tier. Unlike [`StageCache::insert`]
    /// this does not advance `stage.<name>.computed` (that counter
    /// means stage executions; the disk tier counts its own
    /// `disk_hit`), and it emits no compute trace event. A racer may
    /// have filled the slot with (identical) content already; the first
    /// value wins.
    pub(crate) fn adopt<T: StageOutput>(&self, bound: usize, key: u64, value: Arc<T>) {
        if bound == 0 {
            return;
        }
        let (cell, _) = self.slot::<T>(key);
        let _ = cell.set(value);
        self.enforce_bound(bound, (T::KIND, key));
    }

    // Typed delegations kept for `benchmark/`, which drives the memory
    // tier directly; everything else goes through the generic methods.

    pub fn get_plan(&self, bound: usize, key: u64) -> Option<Arc<InternetPlan>> {
        self.get(bound, key)
    }

    pub fn get_attacks(&self, bound: usize, key: u64) -> Option<Arc<AttackColumns>> {
        self.get(bound, key)
    }

    pub fn adopt_plan(&self, bound: usize, key: u64, v: Arc<InternetPlan>) {
        self.adopt(bound, key, v)
    }

    pub fn adopt_attacks(&self, bound: usize, key: u64, v: Arc<AttackColumns>) {
        self.adopt(bound, key, v)
    }

    pub fn adopt_observations(&self, bound: usize, key: u64, v: Arc<ObservationColumns>) {
        self.adopt(bound, key, v)
    }

    pub fn adopt_alerts(&self, bound: usize, key: u64, v: Arc<AlertColumns>) {
        self.adopt(bound, key, v)
    }
}

// ---------------------------------------------------------------------
// The tier order.
// ---------------------------------------------------------------------

/// One execution's view of the two stage tiers: the process-wide
/// memory cache, bounded as its config says, over the config's disk
/// store, if any (DESIGN.md §11). The tier order lives here and
/// nowhere else: memory, then disk, then compute, then write-through.
pub(crate) struct Tiers {
    cache: &'static StageCache,
    bound: usize,
    disk: Option<DiskStore>,
}

impl Tiers {
    /// The tiers `config` resolves to ([`resolve_bound`],
    /// [`crate::diskstore::resolve`]).
    pub(crate) fn of(config: &StudyConfig) -> Tiers {
        Tiers {
            cache: StageCache::global(),
            bound: resolve_bound(config),
            disk: crate::diskstore::resolve(config),
        }
    }

    /// The output for `key` from memory, else from disk. A disk hit is
    /// adopted into memory and does not count as a compute.
    pub(crate) fn lookup<T: StageOutput>(&self, key: u64) -> Option<Arc<T>> {
        self.cache.get(self.bound, key).or_else(|| {
            let loaded = self.disk.as_ref()?.load::<T>(key)?;
            self.cache.adopt(self.bound, key, Arc::clone(&loaded));
            Some(loaded)
        })
    }

    /// Cache a freshly computed output (one stage execution) and write
    /// it through to disk.
    pub(crate) fn publish<T: StageOutput>(&self, key: u64, value: T) -> Arc<T> {
        let value = Arc::new(value);
        self.cache.insert(self.bound, key, Arc::clone(&value));
        self.write_through(key, value.as_ref());
        value
    }

    /// [`Tiers::lookup`], else the cache's coalesced compute. Only the
    /// thread that ran the compute writes through, so a burst of
    /// concurrent misses on one key writes its cell once.
    pub(crate) fn get_or_compute<T: StageOutput>(
        &self,
        key: u64,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(v) = self.lookup(key) {
            return v;
        }
        let (value, computed) = self.cache.get_or_compute(self.bound, key, compute);
        if computed {
            self.write_through(key, value.as_ref());
        }
        value
    }

    fn write_through<T: StageOutput>(&self, key: u64, value: &T) {
        if let Some(disk) = &self.disk {
            disk.store(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// THE guard against silent cache poisoning: every top-level
    /// `StudyConfig` field must be classified in `FIELD_STAGES`, and
    /// every classified field must exist. Adding a config field
    /// without deciding which stage it invalidates fails here.
    #[test]
    fn field_inventory_is_exhaustive() {
        let value = serde_json::to_value(&StudyConfig::default()).unwrap();
        let Value::Object(fields) = &value else {
            panic!("StudyConfig must serialize to an object")
        };
        let serialized: BTreeSet<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let classified: BTreeSet<&str> = FIELD_STAGES.iter().map(|(f, _)| *f).collect();
        assert_eq!(
            classified.len(),
            FIELD_STAGES.len(),
            "a field is classified twice in FIELD_STAGES"
        );
        let unclassified: Vec<&&str> = serialized.difference(&classified).collect();
        assert!(
            unclassified.is_empty(),
            "StudyConfig field(s) {unclassified:?} not classified in \
             stagecache::FIELD_STAGES — assign each to a stage class \
             (plan/attacks/observations/projection/execution) or the \
             stage cache will serve stale results when they change"
        );
        let phantom: Vec<&&str> = classified.difference(&serialized).collect();
        assert!(
            phantom.is_empty(),
            "FIELD_STAGES classifies field(s) {phantom:?} that StudyConfig no longer has"
        );
        let per_stream: Vec<&str> = FIELD_STAGES
            .iter()
            .filter(|(_, stage)| *stage == "observations")
            .map(|(f, _)| *f)
            .collect();
        assert_eq!(
            per_stream,
            ["obs", "faults"],
            "StageFingerprints::of keys the observations class per stream: \
             key a new field there, by the streams that read it"
        );
        let classes = ["plan", "attacks", "observations", "projection", "execution"];
        for (_, stage) in FIELD_STAGES {
            assert!(classes.contains(stage), "unknown stage class {stage:?}");
        }
    }

    /// Invalidation flows down the dataflow and never up.
    #[test]
    fn fingerprints_track_their_stage_inputs() {
        let base = StageFingerprints::of(&StudyConfig::quick());

        // seed / net → everything changes.
        let mut cfg = StudyConfig::quick();
        cfg.seed ^= 1;
        let fp = StageFingerprints::of(&cfg);
        assert_ne!(fp.plan, base.plan);
        assert_ne!(fp.attacks, base.attacks);
        assert_ne!(fp.observations, base.observations);

        let mut cfg = StudyConfig::quick();
        cfg.net.tail_as_count += 1;
        let fp = StageFingerprints::of(&cfg);
        assert_ne!(fp.plan, base.plan);
        assert_ne!(fp.attacks, base.attacks);

        // gen → plan key survives, attacks + observations re-key.
        let mut cfg = StudyConfig::quick();
        cfg.gen.timeline.sav_reduction += 0.01;
        let fp = StageFingerprints::of(&cfg);
        assert_eq!(fp.plan, base.plan);
        assert_ne!(fp.attacks, base.attacks);
        assert_ne!(fp.observations, base.observations);
        assert_ne!(fp.netscout_alerts, base.netscout_alerts);

        // obs → only the observation streams re-key.
        let mut cfg = StudyConfig::quick();
        cfg.obs.carpet_gap_secs += 1;
        let fp = StageFingerprints::of(&cfg);
        assert_eq!(fp.plan, base.plan);
        assert_eq!(fp.attacks, base.attacks);
        assert_ne!(fp.observations, base.observations);

        // faults → only the observation streams re-key (a fault plan
        // changes what the observatories record, never the plan or the
        // ground-truth attacks).
        let mut cfg = StudyConfig::quick();
        cfg.faults.outages.push(crate::faults::OutageSpec {
            source: "ucsd".into(),
            start_week: 0,
            end_week: 4,
        });
        let fp = StageFingerprints::of(&cfg);
        assert_eq!(fp.plan, base.plan);
        assert_eq!(fp.attacks, base.attacks);
        assert_ne!(fp.observations, base.observations);

        // projection / execution knobs → no stage re-keys at all.
        // `chaos` is machine-checked here: control-plane fault
        // injection must never change an output byte.
        for poison in [
            (|c: &mut StudyConfig| c.missing_data = !c.missing_data) as fn(&mut StudyConfig),
            |c| c.workers = Some(7),
            |c| c.stage_cache = Some(3),
            |c| c.disk_store = Some("/tmp/elsewhere".into()),
            |c| c.chaos = Some(crate::faults::ChaosPlan::recoverable(0.5, 1)),
        ] {
            let mut cfg = StudyConfig::quick();
            poison(&mut cfg);
            assert_eq!(StageFingerprints::of(&cfg), base);
        }
    }

    #[test]
    fn observation_keys_differ_per_stream() {
        let fp = StageFingerprints::of(&StudyConfig::quick());
        let mut seen = BTreeSet::new();
        for key in fp.observations {
            assert!(seen.insert(key), "two observation streams share a key");
        }
        assert!(seen.insert(fp.netscout_alerts));
        for key in fp.detections {
            assert!(seen.insert(key), "a detections key collides with another output");
        }
        assert!(!seen.contains(&fp.plan) && !seen.contains(&fp.attacks));
        assert_ne!(fp.plan, fp.attacks);
    }

    #[test]
    fn manifest_entries_name_all_three_stages() {
        let fp = StageFingerprints::of(&StudyConfig::quick());
        let entries = fp.manifest_entries();
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["plan", "attacks", "observations"]);
        assert_eq!(entries[0].1, fp.plan);
        assert_eq!(entries[1].1, fp.attacks);
    }

    #[test]
    fn bound_resolution_prefers_the_config_knob() {
        let mut cfg = StudyConfig::quick();
        cfg.stage_cache = Some(5);
        assert_eq!(resolve_bound(&cfg), 5);
        cfg.stage_cache = Some(0);
        assert_eq!(resolve_bound(&cfg), 0);
        cfg.stage_cache = None;
        assert_eq!(resolve_bound(&cfg), DEFAULT_BOUND);
    }

    /// A private cache exercising coalescing, LRU eviction, and the
    /// bypass bound (independent of the global one, so this test is
    /// immune to other tests' traffic).
    #[test]
    fn cache_hits_evicts_and_bypasses() {
        let cache = StageCache::isolated();
        let make = |n: u64| -> Arc<ObservationColumns> { Arc::new(ObservationColumns::with_capacity(n as usize)) };

        let get = |bound, key| cache.get::<ObservationColumns>(bound, key);

        // Miss then hit.
        assert!(get(4, 1).is_none());
        cache.insert(4, 1, make(1));
        let got = get(4, 1).expect("hit after insert");
        assert_eq!(got.capacity(), 1);
        assert_eq!(cache.len(), 1);

        // LRU eviction at a tiny bound: key 1 is oldest once 2 and 3
        // land and 2 gets re-touched.
        cache.insert(2, 2, make(2));
        let _ = get(2, 2);
        cache.insert(2, 3, make(3));
        assert_eq!(cache.len(), 2);
        assert!(get(2, 1).is_none(), "LRU entry must be evicted");
        assert!(get(2, 2).is_some());
        assert!(get(2, 3).is_some());
        assert_eq!(cache.stats(Stage::Observations).evicted, 1);

        // bound == 0 bypasses entirely.
        cache.insert(0, 9, make(9));
        assert!(get(0, 9).is_none());
        assert!(get(4, 9).is_none());

        // The kind tag is part of the key: an alert lookup never sees
        // an observation stream stored under the same fingerprint.
        assert!(cache.get::<AlertColumns>(2, 3).is_none());

        // get_or_compute: second call is a hit, compute runs once.
        let mut runs = 0;
        for round in 0..3 {
            let (plan_like, computed) = cache.get_or_compute(4, 77, || {
                runs += 1;
                AttackColumns::new()
            });
            assert_eq!(plan_like.len(), 0);
            assert_eq!(computed, round == 0, "only the computing call reports it");
        }
        assert_eq!(runs, 1, "compute must run exactly once");
        assert_eq!(cache.stats(Stage::Attacks).computed, 1);
        assert_eq!(cache.stats(Stage::Attacks).hit, 2);

        cache.clear();
        assert!(cache.is_empty());
    }

    /// Adoption (disk-tier loads entering the memory tier) fills the
    /// slot without counting a stage execution — `computed` means "the
    /// stage actually ran", and a disk load is exactly the absence of
    /// that.
    #[test]
    fn adopt_fills_without_counting_a_compute() {
        let cache = StageCache::isolated();
        cache.adopt_attacks(4, 5, Arc::new(AttackColumns::new()));
        assert!(cache.get_attacks(4, 5).is_some());
        let stats = cache.stats(Stage::Attacks);
        assert_eq!(stats.computed, 0, "adopt must not count as a compute");
        assert_eq!(stats.hit, 1, "the lookup after adopt is a hit");
        cache.adopt_plan(4, 6, Arc::new(InternetPlan::build(
            &netmodel::NetScale::tiny(),
            &mut simcore::rng::SimRng::new(1),
        )));
        assert!(cache.get_plan(4, 6).is_some());
        assert_eq!(cache.stats(Stage::Plan).computed, 0);
        // bound 0 bypasses adoption like every other cache path.
        cache.adopt_attacks(0, 7, Arc::new(AttackColumns::new()));
        assert!(cache.get_attacks(4, 7).is_none());
    }

    /// Concurrent same-key misses coalesce onto one compute.
    #[test]
    fn concurrent_misses_coalesce() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = StageCache::isolated();
        let (runs, computers) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (cache, runs, computers) = (&cache, &runs, &computers);
                scope.spawn(move || {
                    let (v, computed) = cache.get_or_compute(16, 42, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        AttackColumns::new()
                    });
                    assert_eq!(v.len(), 0);
                    if computed {
                        computers.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(computers.load(Ordering::SeqCst), 1, "one caller owns the write-through");
        let stats = cache.stats(Stage::Attacks);
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.hit, 7);
    }

    /// Eviction churn racing a coalesced miss at the tightest bound:
    /// while thread A's compute for key 7 is in flight (its cell empty,
    /// therefore eviction-proof) thread B inserts two other keys
    /// through bound 1, forcing LRU evictions, and thread C coalesces
    /// onto A's cell. Nobody deadlocks, both A and C observe the same
    /// computed value, and the counters add up.
    #[test]
    fn concurrent_eviction_races_coalesced_miss() {
        use std::sync::Barrier;
        let cache = StageCache::isolated();
        let make = |n: usize| -> Arc<ObservationColumns> { Arc::new(ObservationColumns::with_capacity(n)) };
        // Rendezvous 1: A's compute has started; B may churn, C may
        // coalesce. Rendezvous 2: B's churn is done; A may finish.
        let in_flight = Barrier::new(3);
        let churned = Barrier::new(2);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                cache.get_or_compute(1, 7, || {
                    in_flight.wait();
                    churned.wait();
                    AttackColumns::new()
                })
            });
            let c = scope.spawn(|| {
                in_flight.wait();
                cache.get_or_compute::<AttackColumns>(1, 7, || {
                    panic!("C must coalesce onto A's compute, not re-run it")
                })
            });
            in_flight.wait();
            cache.insert(1, 100, make(1));
            cache.insert(1, 101, make(2));
            churned.wait();
            let a = a.join().expect("A must not deadlock or die").0;
            let c = c.join().expect("C must not deadlock or die").0;
            assert_eq!(a.len(), 0);
            assert_eq!(c.len(), 0);
        });
        // B's churn at bound 1 evicted at least one filled entry while
        // A's empty cell survived; A computed once, C hit.
        let attacks = cache.stats(Stage::Attacks);
        assert_eq!(attacks.computed, 1);
        assert_eq!(attacks.hit, 1);
        let observations = cache.stats(Stage::Observations);
        assert_eq!(observations.computed, 2);
        assert!(observations.evicted >= 1, "bound 1 churn must evict");
        // The cache stays usable afterwards: key 7 is now filled.
        let (again, _) =
            cache.get_or_compute::<AttackColumns>(4, 7, || panic!("must be served from cache"));
        assert_eq!(again.len(), 0);
    }

    /// A compute that panics must not wedge concurrent waiters on the
    /// same cell: every coalesced caller either computes or errors, and
    /// the cell recovers — a later compute can still fill it.
    #[test]
    fn panicked_compute_does_not_wedge_waiters() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = StageCache::isolated();
        let attempts = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (cache, attempts) = (&cache, &attempts);
                scope.spawn(move || {
                    let got = simcore::recover::capture("stagecache-test", || {
                        cache.get_or_compute::<AttackColumns>(8, 55, || {
                            attempts.fetch_add(1, Ordering::SeqCst);
                            panic!("injected compute failure")
                        })
                    });
                    let err = got.err().expect("every caller must error, not wedge");
                    assert!(err.message.contains("injected compute failure"));
                });
            }
        });
        assert!(
            attempts.load(Ordering::SeqCst) >= 1,
            "at least one caller must have attempted the compute"
        );
        // The cell recovered: a healthy compute fills it and later
        // lookups hit.
        let (v, _) = cache.get_or_compute(8, 55, AttackColumns::new);
        assert_eq!(v.len(), 0);
        let (again, _) =
            cache.get_or_compute::<AttackColumns>(8, 55, || panic!("must be a cache hit now"));
        assert_eq!(again.len(), 0);
    }
}
