//! The flight recorder: per-thread bounded ring buffers of timestamped
//! trace events, exported as Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`).
//!
//! Like everything in `obs`, tracing is a **pure side channel**: it is
//! off by default, recording never feeds back into simulation state,
//! and study output is byte-identical with tracing on or off (enforced
//! by `crates/core/tests/telemetry.rs`). The recorder is built for the
//! hot paths it instruments:
//!
//! * every thread records into its own lane (ring buffer) — no shared
//!   lock on the event path beyond the lane's own uncontended mutex;
//! * lanes are bounded: when a lane is full the **oldest** event is
//!   dropped and the global `trace.dropped` counter advances, so a
//!   pathological run degrades to a truncated timeline, never to
//!   unbounded memory;
//! * worker threads are short-lived (`ExecPool` spawns per call); a
//!   retiring thread hands its buffer to the global collector and
//!   returns its lane id to a free list, so the exported timeline shows
//!   one stable lane per *concurrent* worker instead of one per spawned
//!   thread.
//!
//! Event vocabulary (what the pipeline emits when tracing is armed):
//! span begin/end (`obs::span!` paths, with a counter snapshot attached
//! to every span end), `pool.shard` begin/end per executed shard,
//! `pool.reorder_wait` intervals when the ordered fold blocks on an
//! out-of-order shard, `cache.<stage>.{hit,miss,compute,evict}` stage
//! cache events, and `chaos.{caught,recovered}.<site>` retry markers.
//! Emission helpers live here; the Chrome JSON schema (`traceEvents`,
//! phase codes) never leaves this file — repo lint rule 6.

use crate::metrics;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-lane ring capacity, in events.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

/// Event phase, mirroring the Chrome trace-event phases we emit:
/// duration begin/end pairs and thread-scoped instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Begin,
    End,
    Instant,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

/// One recorded event. Names are `Cow` so the static-named hot paths
/// (pool shards) never allocate; args are `(name, value)` pairs that
/// land in the Chrome `args` object.
#[derive(Debug, Clone)]
pub struct Event {
    /// Nanoseconds since the trace epoch (armed at [`enable`]).
    pub ts_ns: u64,
    pub phase: Phase,
    pub name: Cow<'static, str>,
    pub args: Vec<(Cow<'static, str>, u64)>,
}

// ---------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------

/// Armed flag: all emission helpers are no-ops while this is false.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Per-lane ring capacity (set by [`enable`]).
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_LANE_CAPACITY);
/// Events dropped by ring overflow, process-cumulative.
static DROPPED: AtomicU64 = AtomicU64::new(0);

struct Shared {
    /// Live lanes: `(lane id, buffer)` of threads currently recording.
    live: Vec<(u64, Arc<Mutex<VecDeque<Event>>>)>,
    /// Buffers of retired (exited) threads, in retirement order.
    retired: Vec<(u64, VecDeque<Event>)>,
    /// Lane ids returned by retired threads, reused LIFO so the export
    /// shows one lane per concurrent worker.
    free_lanes: Vec<u64>,
    next_lane: u64,
}

fn shared() -> &'static Mutex<Shared> {
    static SHARED: OnceLock<Mutex<Shared>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Mutex::new(Shared {
            live: Vec::new(),
            retired: Vec::new(),
            free_lanes: Vec::new(),
            // Lane 0 is reserved for the thread that arms tracing
            // (usually the main thread), purely for readability.
            next_lane: 0,
        })
    })
}

fn lock_shared() -> std::sync::MutexGuard<'static, Shared> {
    shared().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Pre-resolved `trace.dropped` registry counter (also registered at
/// [`enable`] time so manifests carry the zero).
fn dropped_counter() -> &'static Arc<metrics::Counter> {
    static C: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| metrics::counter("trace.dropped"))
}

/// Trace epoch: timestamps count from the first [`enable`] call.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Is the flight recorder armed?
#[inline]
pub fn enabled() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm the recorder with the given per-lane ring capacity (clamped to
/// ≥ 8). Registers the `trace.dropped` counter so every manifest
/// carries it, zeros included. Events recorded before `enable` are
/// kept — re-arming does not clear history; use [`clear`] for that.
pub fn enable(capacity_per_lane: usize) {
    CAPACITY.store(capacity_per_lane.max(8), Ordering::Relaxed);
    let _ = epoch();
    let _ = dropped_counter();
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm the recorder. Buffered events survive until [`clear`].
pub fn disable() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Drop every buffered event (live lanes and retired buffers) and
/// reset the local dropped tally. Lane ids stay allocated.
pub fn clear() {
    let mut s = lock_shared();
    for (_, buf) in &s.live {
        buf.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).clear();
    }
    s.retired.clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Events dropped by ring overflow since the last [`clear`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Per-thread lanes
// ---------------------------------------------------------------------

/// Thread-local lane handle; retires the buffer on thread exit.
struct LaneHandle {
    lane: u64,
    buf: Arc<Mutex<VecDeque<Event>>>,
}

impl Drop for LaneHandle {
    fn drop(&mut self) {
        // Shared lock first, as `snapshot` takes it: a snapshot then
        // sees the events either still live or already retired, never
        // in flight between the two.
        let mut s = lock_shared();
        let events = std::mem::take(
            &mut *self.buf.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        s.live.retain(|(lane, _)| *lane != self.lane);
        if !events.is_empty() {
            s.retired.push((self.lane, events));
        }
        s.free_lanes.push(self.lane);
    }
}

thread_local! {
    static LANE: RefCell<Option<LaneHandle>> = const { RefCell::new(None) };
}

/// Append one event to the current thread's lane, dropping the oldest
/// event (and counting it) when the ring is full.
fn push(event: Event) {
    LANE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let handle = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(VecDeque::new()));
            let mut s = lock_shared();
            let lane = s.free_lanes.pop().unwrap_or_else(|| {
                let id = s.next_lane;
                s.next_lane += 1;
                id
            });
            s.live.push((lane, Arc::clone(&buf)));
            LaneHandle { lane, buf }
        });
        let cap = CAPACITY.load(Ordering::Relaxed);
        let mut buf = handle
            .buf
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if buf.len() >= cap {
            buf.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
            dropped_counter().inc();
        }
        buf.push_back(event);
    });
}

// ---------------------------------------------------------------------
// Emission API
// ---------------------------------------------------------------------

/// Record a span/interval begin on this thread's lane.
pub fn begin(name: impl Into<Cow<'static, str>>) {
    if !enabled() {
        return;
    }
    push(Event { ts_ns: now_ns(), phase: Phase::Begin, name: name.into(), args: Vec::new() });
}

/// Record an interval end on this thread's lane.
pub fn end(name: impl Into<Cow<'static, str>>) {
    end_with_args(name, Vec::new());
}

/// Record an interval end carrying args (the span layer attaches a
/// counter snapshot to every span end through this).
pub fn end_with_args(
    name: impl Into<Cow<'static, str>>,
    args: Vec<(Cow<'static, str>, u64)>,
) {
    if !enabled() {
        return;
    }
    push(Event { ts_ns: now_ns(), phase: Phase::End, name: name.into(), args });
}

/// Record a thread-scoped instant event.
pub fn instant(name: impl Into<Cow<'static, str>>, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    push(Event {
        ts_ns: now_ns(),
        phase: Phase::Instant,
        name: name.into(),
        args: args.iter().map(|&(k, v)| (Cow::Borrowed(k), v)).collect(),
    });
}

/// A drop guard pairing a begin with its end — the way `ExecPool`
/// brackets shard execution and reorder waits. A guard created while
/// the recorder is disarmed is a complete no-op (and stays silent even
/// if tracing is armed mid-flight, so B/E pairs never split).
#[derive(Debug)]
pub struct Guard {
    name: Option<Cow<'static, str>>,
}

impl Guard {
    /// Open an interval named `name` with one optional argument.
    pub fn new(name: impl Into<Cow<'static, str>>, arg: Option<(&'static str, u64)>) -> Guard {
        if !enabled() {
            return Guard { name: None };
        }
        let name = name.into();
        push(Event {
            ts_ns: now_ns(),
            phase: Phase::Begin,
            name: name.clone(),
            args: arg.into_iter().map(|(k, v)| (Cow::Borrowed(k), v)).collect(),
        });
        Guard { name: Some(name) }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            push(Event { ts_ns: now_ns(), phase: Phase::End, name, args: Vec::new() });
        }
    }
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

/// A stable snapshot of every lane's events: retired buffers first (in
/// retirement order), then the live lanes, concatenated per lane id in
/// chronological order.
pub fn snapshot() -> Vec<(u64, Vec<Event>)> {
    let s = lock_shared();
    let mut lanes: std::collections::BTreeMap<u64, Vec<Event>> = std::collections::BTreeMap::new();
    for (lane, events) in &s.retired {
        lanes.entry(*lane).or_default().extend(events.iter().cloned());
    }
    for (lane, buf) in &s.live {
        let buf = buf.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        lanes.entry(*lane).or_default().extend(buf.iter().cloned());
    }
    lanes.into_iter().collect()
}

/// The current thread's lane id, if it has recorded anything.
pub fn current_lane() -> Option<u64> {
    LANE.with(|slot| slot.borrow().as_ref().map(|h| h.lane))
}

/// Repair a lane's event stream after ring overflow: an `End` whose
/// `Begin` was dropped (or whose name does not match the innermost
/// open interval) is discarded, and intervals left open at the end of
/// the lane are closed at the lane's final timestamp — so the exported
/// stream always nests, even from a truncated ring.
fn sanitize_lane(events: Vec<Event>) -> Vec<Event> {
    let mut out: Vec<Event> = Vec::with_capacity(events.len());
    let mut open: Vec<Cow<'static, str>> = Vec::new();
    let mut last_ts = 0u64;
    for ev in events {
        last_ts = last_ts.max(ev.ts_ns);
        match ev.phase {
            Phase::Begin => {
                open.push(ev.name.clone());
                out.push(ev);
            }
            Phase::End => {
                if open.last() == Some(&ev.name) {
                    open.pop();
                    out.push(ev);
                }
                // Otherwise: orphaned by overflow — drop it.
            }
            Phase::Instant => out.push(ev),
        }
    }
    while let Some(name) = open.pop() {
        out.push(Event { ts_ns: last_ts, phase: Phase::End, name, args: Vec::new() });
    }
    out
}

fn event_value(lane: u64, ev: &Event) -> serde::Value {
    use serde::Value;
    let mut fields: Vec<(String, Value)> = vec![
        ("name".into(), Value::Str(ev.name.to_string())),
        ("ph".into(), Value::Str(ev.phase.code().to_string())),
        // Chrome trace timestamps are microseconds; keep nanosecond
        // resolution in the fraction.
        ("ts".into(), Value::Float(ev.ts_ns as f64 / 1_000.0)),
        ("pid".into(), Value::UInt(1)),
        ("tid".into(), Value::UInt(lane)),
    ];
    if ev.phase == Phase::Instant {
        fields.push(("s".into(), Value::Str("t".into())));
    }
    if !ev.args.is_empty() {
        fields.push((
            "args".into(),
            Value::Object(
                ev.args
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
                    .collect(),
            ),
        ));
    }
    Value::Object(fields)
}

/// Serialize every lane as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`), sanitized per lane so begin/end pairs
/// always match. `trace.dropped` rides along in `otherData`.
pub fn export_json() -> String {
    use serde::Value;
    let mut events: Vec<Value> = Vec::new();
    for (lane, lane_events) in snapshot() {
        for ev in sanitize_lane(lane_events) {
            events.push(event_value(lane, &ev));
        }
    }
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        (
            "otherData".into(),
            Value::Object(vec![("trace.dropped".into(), Value::UInt(dropped()))]),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("trace serialization is infallible")
}

/// Write [`export_json`] to `path`.
pub fn export_to_file(path: &str) -> std::io::Result<()> {
    std::fs::write(path, export_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that poke the process-wide recorder.
    fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Events of the current thread's lane only — other tests in this
    /// binary may be recording on their own lanes concurrently.
    fn my_lane_events() -> Vec<Event> {
        let lane = current_lane().expect("this thread has recorded");
        snapshot()
            .into_iter()
            .find(|(id, _)| *id == lane)
            .map(|(_, events)| events)
            .unwrap_or_default()
    }

    #[test]
    fn disabled_recorder_is_silent() {
        let _lock = recorder_lock();
        disable();
        clear();
        instant("trace_test.silent", &[]);
        let _g = Guard::new("trace_test.silent_guard", None);
        drop(_g);
        assert!(current_lane().is_none() || my_lane_events().is_empty());
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _lock = recorder_lock();
        clear();
        enable(8);
        let metric_before = dropped_counter().get();
        for i in 0..20u64 {
            instant("trace_test.overflow", &[("i", i)]);
        }
        disable();
        let mine: Vec<Event> = my_lane_events()
            .into_iter()
            .filter(|e| e.name == "trace_test.overflow")
            .collect();
        assert_eq!(mine.len(), 8, "ring must hold exactly its capacity");
        // Oldest dropped: the survivors are the 12..20 tail, in order.
        let kept: Vec<u64> = mine.iter().map(|e| e.args[0].1).collect();
        assert_eq!(kept, (12..20).collect::<Vec<u64>>());
        assert!(dropped() >= 12);
        assert!(dropped_counter().get() >= metric_before + 12);
        clear();
        assert_eq!(dropped(), 0);
    }

    #[test]
    fn guards_nest_and_export_parses() {
        let _lock = recorder_lock();
        clear();
        enable(1024);
        {
            let _outer = Guard::new("trace_test.outer", Some(("shard", 3)));
            let _inner = Guard::new("trace_test.inner", None);
            instant("trace_test.mark", &[("k", 1)]);
        }
        disable();
        let json = export_json();
        let v: serde::Value = serde_json::from_str(&json).expect("trace JSON parses");
        let events = match v.get("traceEvents").expect("traceEvents present") {
            serde::Value::Array(items) => items,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        assert!(!events.is_empty());
        // Per-tid begin/end matching over the whole export.
        let mut stacks: std::collections::HashMap<u64, Vec<String>> =
            std::collections::HashMap::new();
        for ev in events {
            let tid = match ev.get("tid") {
                Some(serde::Value::UInt(t)) => *t,
                other => panic!("tid missing: {other:?}"),
            };
            let name = match ev.get("name") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("name missing: {other:?}"),
            };
            match ev.get("ph") {
                Some(serde::Value::Str(p)) if p == "B" => stacks.entry(tid).or_default().push(name),
                Some(serde::Value::Str(p)) if p == "E" => {
                    let top = stacks.entry(tid).or_default().pop();
                    assert_eq!(top, Some(name), "E without matching B on lane {tid}");
                }
                _ => {}
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "lane {tid} left open intervals {stack:?}");
        }
        clear();
    }

    #[test]
    fn sanitize_repairs_overflow_damage() {
        let ev = |ts, phase, name: &str| Event {
            ts_ns: ts,
            phase,
            name: Cow::Owned(name.to_string()),
            args: Vec::new(),
        };
        // An orphaned E (its B was dropped by the ring) plus an
        // unclosed B at the end.
        let lane = vec![
            ev(5, Phase::End, "dropped_parent"),
            ev(10, Phase::Begin, "kept"),
            ev(12, Phase::Instant, "mark"),
            ev(20, Phase::End, "kept"),
            ev(30, Phase::Begin, "unclosed"),
        ];
        let fixed = sanitize_lane(lane);
        let phases: Vec<(Phase, &str)> =
            fixed.iter().map(|e| (e.phase, e.name.as_ref())).collect();
        assert_eq!(
            phases,
            vec![
                (Phase::Begin, "kept"),
                (Phase::Instant, "mark"),
                (Phase::End, "kept"),
                (Phase::Begin, "unclosed"),
                (Phase::End, "unclosed"),
            ]
        );
        // The synthesized close lands at the lane's final timestamp.
        assert_eq!(fixed.last().map(|e| e.ts_ns), Some(30));
    }

    #[test]
    fn worker_threads_get_disjoint_reusable_lanes() {
        let _lock = recorder_lock();
        clear();
        enable(1024);
        instant("trace_test.main", &[]);
        let main_lane = current_lane().expect("main lane allocated");
        // Two concurrent workers must get two distinct lanes (neither
        // of them the caller's).
        let barrier = std::sync::Barrier::new(2);
        let lanes: Vec<u64> = std::thread::scope(|scope| {
            let spawn = |_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    instant("trace_test.worker", &[]);
                    barrier.wait();
                    current_lane().expect("worker lane allocated")
                })
            };
            let a = spawn(0);
            let b = spawn(1);
            vec![a.join().expect("worker a"), b.join().expect("worker b")]
        });
        assert_ne!(lanes[0], lanes[1], "concurrent workers must not share a lane");
        assert!(!lanes.contains(&main_lane));
        // A later worker reuses a retired lane id instead of minting a
        // fresh one forever.
        let reused = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    instant("trace_test.reuse", &[]);
                    current_lane().expect("lane allocated")
                })
                .join()
                .expect("reuse worker")
        });
        assert!(lanes.contains(&reused), "retired lane ids must be reused");
        disable();
        clear();
    }
}
