//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms behind relaxed atomics.
//!
//! Handles are `Arc`s handed out by a [`Registry`]; the same name
//! always resolves to the same instrument, so concurrent increments
//! from pool workers land on one atomic and sum exactly. Hot paths
//! fetch a handle once (outside the loop) and pay one relaxed atomic
//! op per event afterwards. Snapshots iterate a `BTreeMap`, so the
//! serialized registry is deterministically ordered regardless of
//! registration order races.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins floating-point gauge (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// A fixed-bucket histogram over `u64` samples (nanoseconds, counts…).
///
/// Bucket `i` holds samples `v` with `bounds[i-1] < v <= bounds[i]`
/// (bucket 0: `v <= bounds[0]`); one extra overflow bucket catches
/// everything above the top bound. Placement is a pure function of the
/// value and the bounds — exact-edge samples always land in the bucket
/// whose upper bound they equal, which the bucket-boundary tests pin
/// down.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub fn new(bounds: &[u64]) -> Histogram {
        let mut b = bounds.to_vec();
        b.sort_unstable();
        b.dedup();
        let buckets = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: b,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Upper bucket bounds (exclusive of the overflow bucket).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket sample counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Latency buckets in nanoseconds: 1µs … 2min, roughly 1-2-5 spaced.
pub const LATENCY_NS: [u64; 14] = [
    1_000,
    10_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    25_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
    15_000_000_000,
    60_000_000_000,
    120_000_000_000,
];

/// Count buckets for per-unit event tallies (attacks per week, shard
/// sizes): 0, then roughly 1-2-5 spaced up to 100k.
pub const COUNTS: [u64; 14] = [
    0, 1, 2, 5, 10, 25, 50, 100, 250, 1_000, 5_000, 10_000, 50_000, 100_000,
];

/// Read-only copy of one histogram, for manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds` (overflow last).
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

/// Read-only copy of a whole registry, deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A registry of named instruments. The process-wide default is
/// [`global`]; tests that assert exact counts build their own with
/// [`Registry::new`] so parallel test threads cannot interfere.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Acquire the instrument table. A poisoned mutex (a panic while a
    /// holder had the lock) is recovered rather than propagated —
    /// telemetry is a side channel and must never take the study down
    /// with it; the atomics inside each instrument stay consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, Instruments> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.lock();
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created with `bounds` on first use.
    /// Later callers get the existing instrument; bounds are fixed at
    /// creation.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut inner = self.lock();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A deterministic copy of every instrument's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: v.bounds().to_vec(),
                            buckets: v.bucket_counts(),
                            count: v.count(),
                            sum: v.sum(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Current counter values only, deterministically ordered — a
    /// lighter read than [`Registry::snapshot`] for callers that don't
    /// need gauges or histogram buckets (the flight recorder attaches
    /// this to span-end trace events).
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let inner = self.lock();
        inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Zero every instrument (names and bounds survive). Used by the
    /// CLI between runs so one manifest describes one run.
    pub fn reset(&self) {
        let inner = self.lock();
        inner.counters.values().for_each(|c| c.reset());
        inner.gauges.values().for_each(|g| g.reset());
        inner.histograms.values().for_each(|h| h.reset());
    }
}

/// The process-wide default registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand: a counter in the [`global`] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Shorthand: a gauge in the [`global`] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Shorthand: a histogram in the [`global`] registry.
pub fn histogram(name: &str, bounds: &[u64]) -> Arc<Histogram> {
    global().histogram(name, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_deterministic() {
        let h = Histogram::new(&[10, 20, 30]);
        // Zero and everything at-or-below the first bound → bucket 0.
        h.record(0);
        h.record(10);
        // Exactly one past an edge → next bucket.
        h.record(11);
        h.record(20);
        // Top bound lands inside, one past it overflows.
        h.record(30);
        h.record(31);
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 2]);
        assert_eq!(h.count(), 7);
        // `fetch_add` wraps on overflow; the u64::MAX sample wraps the sum.
        assert_eq!(h.sum(), 102u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn bounds_are_sorted_and_deduped() {
        let h = Histogram::new(&[30, 10, 20, 10]);
        assert_eq!(h.bounds(), &[10, 20, 30]);
        assert_eq!(h.bucket_counts().len(), 4);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let reg = Registry::new();
        let c = reg.counter("test.concurrent");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        // Same name resolves to the same instrument.
        assert_eq!(reg.counter("test.concurrent").get(), 80_000);
    }

    #[test]
    fn snapshot_is_ordered_and_reset_zeroes() {
        let reg = Registry::new();
        reg.counter("b").add(2);
        reg.counter("a").add(1);
        reg.gauge("g").set(1.5);
        reg.histogram("h", &[1, 2]).record(2);
        let snap = reg.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(snap.gauges["g"], 1.5);
        assert_eq!(snap.histograms["h"].buckets, vec![0, 1, 0]);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 0);
        assert_eq!(snap.histograms["h"].count, 0);
        // Instruments survive a reset.
        assert_eq!(snap.counters.len(), 2);
    }
}
