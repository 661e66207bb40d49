//! Cycle-level observability for the DOTA reproduction.
//!
//! The simulator's headline quantities — key-vector loads saved by the
//! locality-aware Scheduler, per-resource busy/idle cycles, RMMU MAC counts
//! by precision, DRAM/SRAM traffic, detected vs omitted attention
//! connections — are *measured* claims in the paper (Figs. 8–10, 15). This
//! crate gives every layer of the workspace a common place to record them:
//!
//! * a **counter registry**: named monotonic `u64` counters
//!   ([`count`]) with snapshot/export helpers. Updates are plain
//!   commutative additions behind one mutex, so totals are bitwise
//!   identical regardless of thread count or scheduling order — the
//!   property the reproducibility tests pin;
//! * a **span/event recorder**: simulated-time events on named hardware
//!   tracks ([`sim_event`]) and wall-clock host spans ([`host_span`]),
//!   exported as Chrome-trace JSON ([`TraceGuard::chrome_trace_json`])
//!   loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Collection is **off by default** and costs one relaxed atomic load per
//! call site when disabled, so instrumented hot paths stay cheap. A
//! [`session`] turns collection on **for the thread that opened it** and
//! for threads that [`Scope::enter`] its [`scope`] token (the thread pool
//! does this for its workers); work on any other thread records nothing:
//!
//! ```
//! let trace = dota_trace::session("example");
//! dota_trace::count("sched.loads", 7);
//! dota_trace::sim_event("RmmuFx", "L0.attention", 0, 120);
//! assert_eq!(trace.counter("sched.loads"), 7);
//! let json = trace.chrome_trace_json();
//! assert!(json.contains("L0.attention"));
//! ```
//!
//! Sessions are exclusive: [`session`] blocks until any other live
//! [`TraceGuard`] is dropped (do not nest sessions on one thread — that
//! deadlocks by design rather than silently mixing two recordings).
//! Reading ([`counters_snapshot`], the guard's accessors) is process-wide,
//! so an exporter thread can pull from a session it never joined.
//!
//! The crate is dependency-free; the Chrome-trace and counters JSON are
//! emitted by hand so the simulator crates do not pull serialization into
//! their dependency graphs.

#![deny(missing_docs)]

mod gate;

pub use gate::{enabled, scope, Scope, ScopeGuard};

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Process ID used for host-side (wall-clock) spans in the Chrome trace.
pub const HOST_PID: u32 = 0;
/// Process ID used for simulated-hardware (cycle-time) events.
pub const SIM_PID: u32 = 1;

static STATE: Mutex<State> = Mutex::new(State::new());
static NEXT_HOST_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Host-span bookkeeping: this thread's Chrome tid and its current
    /// span-nesting depth (depth guarantees well-nested X events per tid).
    static HOST_THREAD: Cell<u64> = const { Cell::new(0) };
}

#[derive(Debug)]
struct Event {
    /// Chrome event phase: `'X'` for complete spans, `'C'` for counter
    /// samples (rendered as a stacked-area track; `dur_us` is unused).
    ph: char,
    pid: u32,
    tid: u64,
    name: String,
    cat: &'static str,
    /// Start timestamp in microseconds (cycles map 1:1 to µs on sim tracks).
    ts_us: f64,
    dur_us: f64,
    args: Vec<(String, u64)>,
}

#[derive(Debug)]
struct State {
    label: String,
    counters: BTreeMap<String, u64>,
    events: Vec<Event>,
    /// Simulated-hardware track name → Chrome tid.
    sim_tracks: BTreeMap<String, u64>,
    /// Chrome tid → display name (host threads and sim tracks).
    track_names: Vec<(u32, u64, String)>,
    epoch: Option<Instant>,
}

impl State {
    const fn new() -> Self {
        Self {
            label: String::new(),
            counters: BTreeMap::new(),
            events: Vec::new(),
            sim_tracks: BTreeMap::new(),
            track_names: Vec::new(),
            epoch: None,
        }
    }

    fn clear(&mut self, label: &str) {
        self.label.clear();
        self.label.push_str(label);
        self.counters.clear();
        self.events.clear();
        self.sim_tracks.clear();
        self.track_names.clear();
        self.epoch = Some(Instant::now());
    }
}

fn lock_state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adds `delta` to the named counter. A no-op (one atomic load) outside a
/// session. Counters are monotonic sums, so totals are independent of the
/// order and the thread that recorded each increment.
#[inline]
pub fn count(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    *st.counters.entry(name.to_owned()).or_insert(0) += delta;
}

/// Current value of a counter (0 if never written). Only meaningful inside
/// a session.
pub fn counter_value(name: &str) -> u64 {
    lock_state().counters.get(name).copied().unwrap_or(0)
}

/// Snapshot of every counter recorded so far in the current session.
pub fn counters_snapshot() -> BTreeMap<String, u64> {
    lock_state().counters.clone()
}

/// Records a complete event on a simulated-hardware track: `track` is the
/// resource name (becomes a named Chrome thread under the simulator
/// process), `start` and `dur` are in cycles (rendered as µs, 1 cycle =
/// 1 µs). No-op outside a session.
pub fn sim_event(track: &str, name: &str, start_cycles: u64, dur_cycles: u64) {
    sim_event_args(track, name, start_cycles, dur_cycles, &[]);
}

/// [`sim_event`] with counter-style `args` attached (shown in the Chrome
/// trace's detail pane).
pub fn sim_event_args(
    track: &str,
    name: &str,
    start_cycles: u64,
    dur_cycles: u64,
    args: &[(&str, u64)],
) {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    let tid = match st.sim_tracks.get(track) {
        Some(&tid) => tid,
        None => {
            let tid = st.sim_tracks.len() as u64 + 1;
            st.sim_tracks.insert(track.to_owned(), tid);
            st.track_names.push((SIM_PID, tid, track.to_owned()));
            tid
        }
    };
    st.events.push(Event {
        ph: 'X',
        pid: SIM_PID,
        tid,
        name: name.to_owned(),
        cat: "sim",
        ts_us: start_cycles as f64,
        dur_us: dur_cycles as f64,
        args: args.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
    });
}

/// Records one sample of a simulated-time counter series (`ph:"C"` in the
/// Chrome trace: viewers render successive samples of the same `name` as a
/// stacked-area track under the simulator process). `ts` is in cycles on
/// the same clock as [`sim_event`], so counter tracks line up with event
/// tracks from any engine sharing the session. No-op outside a session.
pub fn sim_counter(name: &str, ts_cycles: u64, value: u64) {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    st.events.push(Event {
        ph: 'C',
        pid: SIM_PID,
        tid: 0,
        name: name.to_owned(),
        cat: "sim",
        ts_us: ts_cycles as f64,
        dur_us: 0.0,
        args: vec![("value".to_owned(), value)],
    });
}

/// Opens a wall-clock span on the calling thread's host track; the span is
/// recorded when the returned guard drops. Spans on one thread are strictly
/// nested by construction (RAII), so the exported events are well-nested.
pub fn host_span(name: &str) -> HostSpan {
    if !enabled() {
        return HostSpan {
            name: String::new(),
            start: None,
            tid: 0,
        };
    }
    let tid = HOST_THREAD.with(|t| {
        if t.get() == 0 {
            let tid = NEXT_HOST_TID.fetch_add(1, Ordering::Relaxed);
            t.set(tid);
            let mut st = lock_state();
            st.track_names.push((HOST_PID, tid, format!("host-{tid}")));
        }
        t.get()
    });
    HostSpan {
        name: name.to_owned(),
        start: Some(Instant::now()),
        tid,
    }
}

/// Guard for a wall-clock host span (see [`host_span`]).
#[derive(Debug)]
pub struct HostSpan {
    name: String,
    start: Option<Instant>,
    tid: u64,
}

impl Drop for HostSpan {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        if !enabled() {
            return;
        }
        let mut st = lock_state();
        let Some(epoch) = st.epoch else { return };
        let ts_us = start.duration_since(epoch).as_secs_f64() * 1e6;
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        let name = std::mem::take(&mut self.name);
        let tid = self.tid;
        st.events.push(Event {
            ph: 'X',
            pid: HOST_PID,
            tid,
            name,
            cat: "host",
            ts_us,
            dur_us,
            args: Vec::new(),
        });
    }
}

/// Begins an exclusive trace session: clears the registry, enables
/// collection, and returns a guard through which the recording is read and
/// exported. Collection stops when the guard drops.
///
/// Blocks until any other live session ends. Do **not** begin a second
/// session from a thread that already holds one — that deadlocks (by
/// design: two interleaved recordings would corrupt each other).
pub fn session(label: &str) -> TraceGuard {
    TraceGuard {
        _session: gate::open(|| lock_state().clear(label)),
    }
}

/// Exclusive handle on the active trace session (see [`session`]).
#[derive(Debug)]
pub struct TraceGuard {
    _session: gate::Session,
}

impl TraceGuard {
    /// Value of one counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        counter_value(name)
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        counters_snapshot()
    }

    /// The session's counters as a flat JSON document:
    /// `{"label": ..., "counters": {name: value, ...}}` with keys in
    /// lexicographic order (deterministic run-to-run).
    pub fn counters_json(&self) -> String {
        let st = lock_state();
        let mut out = String::with_capacity(64 + st.counters.len() * 32);
        out.push_str("{\n  \"label\": ");
        write_json_string(&mut out, &st.label);
        out.push_str(",\n  \"counters\": {");
        for (i, (k, v)) in st.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_string(&mut out, k);
            out.push_str(": ");
            out.push_str(&v.to_string());
        }
        if !st.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// The session's events as Chrome-trace JSON (the object form with a
    /// `traceEvents` array plus process/thread-name metadata), loadable in
    /// `chrome://tracing` and Perfetto. Simulated tracks use 1 µs = 1 cycle.
    pub fn chrome_trace_json(&self) -> String {
        let st = lock_state();
        let mut out = String::with_capacity(256 + st.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let push_sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str("\n  ");
        };
        for &(pid, name) in &[(HOST_PID, "host"), (SIM_PID, "dota-accelerator")] {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for (pid, tid, name) in &st.track_names {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
            ));
            write_json_string(&mut out, name);
            out.push_str("}}");
        }
        for e in &st.events {
            push_sep(&mut out, &mut first);
            out.push_str(&format!("{{\"ph\":\"{}\",\"name\":", e.ph));
            write_json_string(&mut out, &e.name);
            out.push_str(&format!(
                ",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
                e.cat,
                e.pid,
                e.tid,
                fmt_f64(e.ts_us)
            ));
            if e.ph == 'X' {
                out.push_str(&format!(",\"dur\":{}", fmt_f64(e.dur_us)));
            }
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(&mut out, k);
                    out.push(':');
                    out.push_str(&v.to_string());
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the Chrome trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// Writes the counters JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_counters(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.counters_json())
    }
}

/// Formats an `f64` for JSON output: integral values print without a
/// fractional part, non-finite values (never produced by the recorders)
/// clamp to 0.
fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_owned();
    }
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn write_json_string(out: &mut String, s: &str) {
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
    fn disabled_by_default_and_counts_inside_session() {
        count("free.counter", 5); // outside any session: dropped
        let t = session("t1");
        assert!(enabled());
        count("a.b", 2);
        count("a.b", 3);
        count("c", 1);
        assert_eq!(t.counter("a.b"), 5);
        assert_eq!(t.counter("missing"), 0);
        let snap = t.counters();
        assert_eq!(snap.len(), 2);
        drop(t);
        assert!(!enabled());
    }

    #[test]
    fn sessions_are_isolated() {
        {
            let t = session("first");
            count("x", 10);
            assert_eq!(t.counter("x"), 10);
        }
        let t = session("second");
        assert_eq!(t.counter("x"), 0, "stale counter leaked across sessions");
    }

    #[test]
    fn concurrent_counts_sum_exactly() {
        let t = session("threads");
        let scope = scope();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    let _in = scope.enter();
                    for _ in 0..1000 {
                        count("hits", 1);
                    }
                });
            }
        });
        assert_eq!(t.counter("hits"), 8000);
    }

    #[test]
    fn recording_is_scoped_to_the_owning_thread() {
        let t = session("owner");
        // The spawned thread runs while the session is live but never
        // entered its scope (the gate's own test covers membership):
        // nothing it does may land in the recording.
        std::thread::scope(|s| {
            s.spawn(|| {
                count("stray", 1);
                sim_counter("stray.track", 0, 1);
                drop(host_span("stray.span"));
            });
        });
        assert!(t.counters().is_empty());
        assert!(!t.chrome_trace_json().contains("stray"));
    }

    #[test]
    fn counters_json_shape() {
        let t = session("json \"quoted\"");
        count("b", 2);
        count("a", 1);
        let json = t.counters_json();
        assert!(json.contains("\"label\": \"json \\\"quoted\\\"\""));
        // Lexicographic key order.
        let a = json.find("\"a\"").unwrap();
        let b = json.find("\"b\"").unwrap();
        assert!(a < b);
    }

    #[test]
    fn chrome_trace_records_events_and_tracks() {
        let t = session("chrome");
        sim_event("RmmuFx", "L0.linear", 0, 100);
        sim_event_args("RmmuFx", "L0.attention", 100, 50, &[("loads", 7)]);
        sim_event("DramPort", "L0.weights", 0, 30);
        {
            let _s = host_span("build");
        }
        let json = t.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("L0.attention"));
        assert!(json.contains("\"loads\":7"));
        assert!(json.contains("RmmuFx"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"cat\":\"host\""));
    }

    #[test]
    fn sim_counters_emit_counter_phase_events() {
        let t = session("counters");
        sim_counter("serve.queue_depth", 0, 3);
        sim_counter("serve.queue_depth", 120, 5);
        let json = t.chrome_trace_json();
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 2, "{json}");
        assert!(json.contains("\"value\":5"));
        // Counter samples carry a timestamp but no duration.
        assert!(json.contains("\"ts\":120,\"args\""), "{json}");
        // Outside a session the call is a no-op.
        drop(t);
        sim_counter("serve.queue_depth", 0, 1);
        let t = session("empty");
        assert!(!t.chrome_trace_json().contains("\"ph\":\"C\""));
    }

    #[test]
    fn sim_tracks_get_distinct_tids() {
        let t = session("tids");
        sim_event("A", "x", 0, 1);
        sim_event("B", "y", 0, 1);
        sim_event("A", "z", 1, 1);
        let json = t.chrome_trace_json();
        // Exactly two sim thread_name records.
        let count = json.matches("thread_name").count();
        assert_eq!(count, 2, "{json}");
    }

    #[test]
    fn fmt_f64_integral_and_fractional() {
        assert_eq!(fmt_f64(12.0), "12");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::NAN), "0");
    }
}
