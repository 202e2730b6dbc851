//! Guard-style wall-clock spans.
//!
//! `let _g = obs::span!("generate");` times the enclosing scope and
//! records the elapsed nanoseconds into the global latency histogram
//! `span.<path>`, where `<path>` is the dot-joined stack of spans open
//! on the current thread — so a span entered inside another reports as
//! `run.generate`, nesting generate → observe → project → analyze under
//! one run. Pool worker threads start fresh stacks; their per-shard
//! timings are recorded by the pool itself, not by spans.
//!
//! The hot path is allocation-free after first use: each thread keeps
//! one growable dotted-path buffer (extended/truncated in place as
//! spans open and close, never re-joined) and a map from dotted path to
//! its resolved histogram handle, so re-entering a known span touches
//! no allocator and takes no registry lock. When the flight recorder is
//! armed ([`crate::trace`]), every span additionally emits a
//! begin/end interval on the thread's trace lane, with a snapshot of
//! all registry counters attached to the end event.
//!
//! Spans are wall-clock (`Instant`) by design and therefore *never*
//! influence simulation state; `crates/obs` is the repo lint's sole
//! allowlisted home for wall-clock primitives in library code.

use crate::metrics;
use crate::trace;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-thread span state: the incremental dotted path of open spans,
/// the byte offsets to rewind to on each close, and the interned
/// path → histogram handles.
#[derive(Default)]
struct ThreadSpans {
    path: String,
    rewinds: Vec<usize>,
    histograms: HashMap<String, Arc<metrics::Histogram>>,
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

/// An open span; records its latency histogram on drop.
#[derive(Debug)]
pub struct Span {
    start: Instant,
}

/// Enter a span named `name`. Prefer the [`crate::span!`] macro.
pub fn enter(name: &'static str) -> Span {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let rewind = s.path.len();
        s.rewinds.push(rewind);
        if !s.path.is_empty() {
            s.path.push('.');
        }
        s.path.push_str(name);
        if trace::enabled() {
            trace::begin(Cow::Owned(s.path.clone()));
        }
    });
    Span {
        start: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let ThreadSpans {
                path,
                rewinds,
                histograms,
            } = &mut *s;
            if !histograms.contains_key(path.as_str()) {
                let handle =
                    metrics::histogram(&format!("span.{path}"), &metrics::LATENCY_NS);
                histograms.insert(path.clone(), handle);
            }
            histograms[path.as_str()].record(ns);
            if trace::enabled() {
                let args = metrics::global()
                    .counter_values()
                    .into_iter()
                    .map(|(k, v)| (Cow::Owned(k), v))
                    .collect();
                trace::end_with_args(Cow::Owned(path.clone()), args);
            }
            let rewind = rewinds.pop().unwrap_or(0);
            path.truncate(rewind);
        });
    }
}

/// Time the enclosing scope: `let _g = obs::span!("stage");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_dotted_paths() {
        {
            let _outer = enter("outer_span_test");
            let _inner = enter("inner");
        }
        let snap = metrics::global().snapshot();
        let h = &snap.histograms["span.outer_span_test.inner"];
        assert!(h.count >= 1);
        assert!(snap.histograms.contains_key("span.outer_span_test"));
    }

    #[test]
    fn reentered_spans_reuse_interned_histogram_handles() {
        for _ in 0..3 {
            let _g = enter("interned_span_test");
        }
        let before = metrics::global().snapshot().histograms["span.interned_span_test"].count;
        {
            let _g = enter("interned_span_test");
        }
        let after = metrics::global().snapshot().histograms["span.interned_span_test"].count;
        assert_eq!(after, before + 1);
        // The thread-local cache interned the path.
        let cached = SPANS.with(|s| {
            s.borrow()
                .histograms
                .contains_key("interned_span_test")
        });
        assert!(cached, "dotted path must be interned after first use");
    }

    #[test]
    fn armed_tracing_brackets_spans_with_counter_snapshots() {
        trace::clear();
        trace::enable(1024);
        {
            let _g = enter("traced_span_test");
        }
        trace::disable();
        let lane = trace::current_lane().expect("span recorded on this lane");
        let events: Vec<trace::Event> = trace::snapshot()
            .into_iter()
            .find(|(id, _)| *id == lane)
            .map(|(_, events)| events)
            .unwrap_or_default()
            .into_iter()
            .filter(|e| e.name.ends_with("traced_span_test"))
            .collect();
        let begins = events
            .iter()
            .filter(|e| e.phase == trace::Phase::Begin)
            .count();
        let ends: Vec<&trace::Event> = events
            .iter()
            .filter(|e| e.phase == trace::Phase::End)
            .collect();
        assert!(begins >= 1, "span begin must reach the trace lane");
        assert!(!ends.is_empty(), "span end must reach the trace lane");
        assert!(
            !ends[0].args.is_empty(),
            "span end must carry a counter snapshot"
        );
        trace::clear();
    }
}
