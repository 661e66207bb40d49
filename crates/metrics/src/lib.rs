//! Run-level telemetry for the DOTA reproduction.
//!
//! `dota-trace` (PR 2) observes the *simulator* at cycle granularity; this
//! crate observes the *run*: the joint detector/model training loop
//! (`L = L_model + λ·L_MSE`, paper Sec. 3), value distributions, and the
//! provenance of every produced result file. Three pillars:
//!
//! * [`MetricsSink`] — an append-only time series of per-step training
//!   scalars (losses, detector MSE, gradient norms, per-layer retention,
//!   learning rate), exported as deterministic JSONL
//!   (`dota train --metrics-out`);
//! * [`Histogram`] — streaming, mergeable log-bucketed histograms with
//!   quantile queries, used for attention-score / detector-score
//!   distributions and for `dota-prof`'s kernel latencies. A process-wide
//!   session-gated registry ([`hist_session`] / [`observe`]) lets
//!   instrumented hot paths feed named histograms with one relaxed atomic
//!   load of overhead when collection is off;
//! * [`Manifest`] — a provenance record (git sha, seed, config, thread
//!   count, features, counters, wall-clock, host) written next to every
//!   result file, consumed by `dota report diff` for cross-run regression
//!   checking.
//!
//! Like `dota-trace`, the registry is **off by default**, a session
//! collects only from the thread that opened it and from threads that
//! entered its [`hist_scope`], and sessions are exclusive ([`hist_session`]
//! blocks until any other live guard drops; do not nest sessions on one
//! thread — that deadlocks by design rather than silently mixing two
//! recordings):
//!
//! ```
//! let hists = dota_metrics::hist_session("example");
//! dota_metrics::observe("attn.scores.L0", 0.25);
//! dota_metrics::observe("attn.scores.L0", 4.0);
//! let h = hists.histogram("attn.scores.L0").unwrap();
//! assert_eq!(h.count(), 2);
//! assert!(hists.summary_json().contains("attn.scores.L0"));
//! ```
//!
//! The crate is dependency-free; all JSON goes through the small canonical
//! [`JsonWriter`] here (shared with every hand-ordered report in the
//! workspace except `dota-trace`'s, which depends on no other crate) so
//! instrumented crates do not pull serialization into their graphs.

#![deny(missing_docs)]

#[path = "../../trace/src/gate.rs"]
mod gate;
mod histogram;
mod json;
mod manifest;
mod rolling;
mod sink;

pub use gate::{
    enabled as hist_enabled, scope as hist_scope, Scope as HistScope, ScopeGuard as HistScopeGuard,
};
pub use histogram::{Histogram, SUB_BUCKETS};
pub use json::{write_atomic, JsonWriter, ToJson};
pub use manifest::{physical_cores, thread_budget, Manifest};
pub use rolling::RollingWindow;
pub use sink::MetricsSink;

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

static STATE: Mutex<HistState> = Mutex::new(HistState::new());

#[derive(Debug)]
struct HistState {
    label: String,
    hists: BTreeMap<String, Histogram>,
}

impl HistState {
    const fn new() -> Self {
        Self {
            label: String::new(),
            hists: BTreeMap::new(),
        }
    }

    fn clear(&mut self, label: &str) {
        self.label.clear();
        self.label.push_str(label);
        self.hists.clear();
    }

    /// The named histogram; its name is copied only on first use.
    fn histogram(&mut self, name: &str) -> &mut Histogram {
        if !self.hists.contains_key(name) {
            self.hists.insert(name.to_owned(), Histogram::default());
        }
        self.hists.get_mut(name).expect("inserted above")
    }
}

fn lock_state() -> MutexGuard<'static, HistState> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records one sample into the named histogram. A no-op (one relaxed
/// atomic load) outside a session. Bucket counts are commutative sums, so
/// the collected tables are independent of thread interleaving.
#[inline]
pub fn observe(name: &str, value: f64) {
    if !hist_enabled() {
        return;
    }
    lock_state().histogram(name).record(value);
}

/// Records every sample of an iterator into the named histogram, taking
/// the registry lock once. A no-op outside a session; prefer gating the
/// construction of `values` on [`hist_enabled`].
pub fn observe_many(name: &str, values: impl IntoIterator<Item = f64>) {
    if !hist_enabled() {
        return;
    }
    lock_state().histogram(name).record_all(values);
}

/// A snapshot of every named histogram collected by the active session,
/// without needing the session's [`HistGuard`] (which the opening thread
/// owns). Empty when no session is live. Built for pull-based exporters —
/// the `/metrics` endpoint snapshots the registry from its accept thread
/// at scrape time.
pub fn hists_snapshot() -> BTreeMap<String, Histogram> {
    if !gate::live() {
        return BTreeMap::new();
    }
    lock_state().hists.clone()
}

/// Begins an exclusive histogram session: clears the registry, enables
/// collection, and returns a guard through which the histograms are read
/// and exported. Collection stops when the guard drops.
///
/// Blocks until any other live session ends. Do **not** begin a second
/// session from a thread that already holds one — that deadlocks (by
/// design: two interleaved recordings would corrupt each other).
pub fn hist_session(label: &str) -> HistGuard {
    HistGuard {
        _session: gate::open(|| lock_state().clear(label)),
    }
}

/// Exclusive handle on the active histogram session (see [`hist_session`]).
#[derive(Debug)]
pub struct HistGuard {
    _session: gate::Session,
}

impl HistGuard {
    /// A clone of one named histogram (`None` if nothing was observed
    /// under that name).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        lock_state().hists.get(name).cloned()
    }

    /// A snapshot of every named histogram collected so far.
    pub fn snapshot(&self) -> BTreeMap<String, Histogram> {
        lock_state().hists.clone()
    }

    /// The session's histograms as one JSON document:
    /// `{"label": ..., "histograms": {name: {count, min, max, mean, p50,
    /// p95, p99}, ...}}` with names in lexicographic order.
    pub fn summary_json(&self) -> String {
        let st = lock_state();
        let mut w = JsonWriter::pretty();
        w.obj()
            .field("label", &st.label)
            .map("histograms", &st.hists)
            .end();
        w.finish()
    }

    /// Writes the summary JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_summary(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.summary_json())
    }
}

/// Formats a finite `f64` with Rust's shortest round-trip `Display` — a
/// pure function of the bit pattern, so exported documents are
/// byte-deterministic. Non-finite inputs (filtered out by all callers)
/// print as `null` to stay valid JSON.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Appends `s` to `out` as a JSON string literal with the mandatory
/// escapes.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_disabled_by_default_and_collects_inside_session() {
        observe("free", 1.0); // outside any session: dropped
        let g = hist_session("s1");
        assert!(hist_enabled());
        observe("a", 1.0);
        observe("a", 2.0);
        observe_many("b", [3.0, 4.0, 5.0]);
        assert_eq!(g.histogram("a").unwrap().count(), 2);
        assert_eq!(g.histogram("b").unwrap().count(), 3);
        assert!(g.histogram("free").is_none(), "pre-session sample leaked");
        assert_eq!(g.snapshot().len(), 2);
        // The guard-free registry snapshot sees the same tables.
        assert_eq!(hists_snapshot(), g.snapshot());
        drop(g);
        assert!(!hist_enabled());
    }

    #[test]
    fn sessions_are_isolated() {
        {
            let g = hist_session("first");
            observe("x", 10.0);
            assert!(g.histogram("x").is_some());
        }
        let g = hist_session("second");
        assert!(g.histogram("x").is_none(), "stale histogram leaked");
    }

    #[test]
    fn summary_json_shape() {
        let g = hist_session("json \"quoted\"");
        observe("b.metric", 2.0);
        observe("a.metric", 1.0);
        let json = g.summary_json();
        assert!(json.contains("\"label\": \"json \\\"quoted\\\"\""));
        assert!(json.contains("\"p50\":"));
        // Lexicographic name order.
        let a = json.find("\"a.metric\"").unwrap();
        let b = json.find("\"b.metric\"").unwrap();
        assert!(a < b);
    }

    #[test]
    fn concurrent_observes_sum_exactly() {
        let g = hist_session("threads");
        let scope = hist_scope();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    let _in = scope.enter();
                    for i in 0..500 {
                        observe("hits", 1.0 + (i % 7) as f64);
                    }
                });
            }
        });
        assert_eq!(g.histogram("hits").unwrap().count(), 4000);
    }

    #[test]
    fn recording_is_scoped_to_the_owning_thread() {
        let g = hist_session("owner");
        // The spawned thread runs while the session is live but never
        // entered its scope (the gate's own test covers membership):
        // nothing it observes may land in the registry, though it can
        // still pull a snapshot.
        std::thread::scope(|s| {
            s.spawn(|| {
                observe("stray", 1.0);
                observe_many("stray", [2.0, 3.0]);
                assert!(hists_snapshot().is_empty());
            });
        });
        assert!(g.snapshot().is_empty());
    }

    #[test]
    fn fmt_f64_is_shortest_round_trip() {
        assert_eq!(fmt_f64(12.0), "12");
        assert_eq!(fmt_f64(0.001), "0.001");
        assert_eq!(fmt_f64(f64::NAN), "null");
        let x = 0.1f64 + 0.2;
        assert_eq!(fmt_f64(x).parse::<f64>().unwrap(), x);
    }
}
