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
//! * an **event recorder**: simulated-time events on named hardware
//!   tracks ([`sim_event`]) and counter samples ([`sim_counter`]),
//!   exported as Chrome-trace JSON ([`TraceGuard::chrome_trace_json`])
//!   loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! The recorder keeps one clock, simulated cycles, so a trace is a pure
//! function of the run: byte-identical across thread counts and builds.
//! Host (wall-clock) time is `dota-prof`'s to record (`--profile`).
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
//! dota_trace::sim_event("RmmuFx", format_args!("L{}.attention", 0), 0, 120);
//! assert_eq!(trace.counter("sched.loads"), 7);
//! let json = trace.chrome_trace_json();
//! assert!(json.contains("L0.attention"));
//! ```
//!
//! Recording does not allocate per event. A session owns a few flat
//! buffers: every name it records (event and track names, arg keys,
//! counter names) is appended to one `text` string, an event is a `Copy`
//! record holding byte ranges into it, and event args live in one shared
//! array. Names are taken as `impl Display`, so a caller passes
//! `format_args!` and the name is formatted straight into `text`. Starting
//! a session clears the buffers but keeps their capacity, so a session
//! that records no more than the previous one does not touch the
//! allocator.
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

use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Chrome-trace process ID of the simulated accelerator: every event's.
pub const SIM_PID: u32 = 1;

static STATE: Mutex<State> = Mutex::new(State::new());

/// A byte range of [`State::text`].
#[derive(Debug, Clone, Copy)]
struct Text {
    start: u32,
    end: u32,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    /// Chrome event phase: `b'X'` for complete spans, `b'C'` for counter
    /// samples (rendered as a stacked-area track; `dur_us` is unused).
    ph: u8,
    tid: u64,
    name: Text,
    /// Start timestamp in microseconds (one cycle is one µs).
    ts_us: f64,
    dur_us: f64,
    /// Range of [`State::args`].
    args: (u32, u32),
}

#[derive(Debug)]
struct State {
    label: String,
    /// Every name the session recorded, back to back.
    text: String,
    events: Vec<Event>,
    /// Event args as (key, value); each event owns one contiguous range.
    args: Vec<(Text, u64)>,
    /// Counters, sorted by name.
    counters: Vec<(Text, u64)>,
    /// Simulated-hardware track name → Chrome tid, sorted by name.
    sim_tracks: Vec<(Text, u64)>,
}

impl State {
    const fn new() -> Self {
        Self {
            label: String::new(),
            text: String::new(),
            events: Vec::new(),
            args: Vec::new(),
            counters: Vec::new(),
            sim_tracks: Vec::new(),
        }
    }

    /// Empties the recording, keeping every buffer's capacity.
    fn clear(&mut self, label: &str) {
        self.label.clear();
        self.label.push_str(label);
        self.text.clear();
        self.events.clear();
        self.args.clear();
        self.counters.clear();
        self.sim_tracks.clear();
    }

    fn str(&self, t: Text) -> &str {
        &self.text[t.start as usize..t.end as usize]
    }

    /// Appends `name`'s `Display` output to `text`.
    fn push(&mut self, name: impl Display) -> Text {
        let start = offset(self.text.len());
        write!(self.text, "{name}").expect("formatting into a String cannot fail");
        Text {
            start,
            end: offset(self.text.len()),
        }
    }

    /// [`State::push`] for a plain string, without a formatting pass.
    fn push_str(&mut self, s: &str) -> Text {
        let start = offset(self.text.len());
        self.text.push_str(s);
        Text {
            start,
            end: offset(self.text.len()),
        }
    }

    /// Index of `name` in `sorted` (a name-sorted table), or where it
    /// would be inserted.
    fn find(&self, sorted: &[(Text, u64)], name: &str) -> Result<usize, usize> {
        sorted.binary_search_by(|&(t, _)| self.str(t).cmp(name))
    }

    /// The Chrome tid of simulated track `track`, registering it on first
    /// use (tids count up from 1 in order of first appearance).
    fn sim_track(&mut self, track: impl Display) -> u64 {
        let name = self.push(track);
        match self.find(&self.sim_tracks, self.str(name)) {
            Ok(i) => {
                self.text.truncate(name.start as usize);
                self.sim_tracks[i].1
            }
            Err(i) => {
                let tid = self.sim_tracks.len() as u64 + 1;
                self.sim_tracks.insert(i, (name, tid));
                tid
            }
        }
    }

    /// Appends one event's args; returns their range of `args`.
    fn push_args(&mut self, args: &[(&str, u64)]) -> (u32, u32) {
        let first = offset(self.args.len());
        for &(key, value) in args {
            let key = self.push_str(key);
            self.args.push((key, value));
        }
        (first, offset(self.args.len()))
    }
}

/// A buffer length as a stored offset. A session holding 4 GiB of names
/// or args is a runaway recording, not a trace.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a trace session records under 4 GiB of names and args")
}

fn lock_state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adds `delta` to the named counter. A no-op (one atomic load) outside a
/// session. Counters are monotonic sums, so totals are independent of the
/// order and the thread that recorded each increment. Only a counter's
/// first increment in a session stores its name.
#[inline]
pub fn count(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let st = &mut *lock_state();
    match st.find(&st.counters, name) {
        Ok(i) => st.counters[i].1 += delta,
        Err(i) => {
            let name = st.push_str(name);
            st.counters.insert(i, (name, delta));
        }
    }
}

/// Current value of a counter (0 if never written). Only meaningful inside
/// a session.
pub(crate) fn counter_value(name: &str) -> u64 {
    let st = lock_state();
    st.find(&st.counters, name).map_or(0, |i| st.counters[i].1)
}

/// Snapshot of every counter recorded so far in the current session.
pub fn counters_snapshot() -> BTreeMap<String, u64> {
    let st = lock_state();
    st.counters
        .iter()
        .map(|&(name, v)| (st.str(name).to_owned(), v))
        .collect()
}

/// Records a complete event on a simulated-hardware track: `track` is the
/// resource name (becomes a named Chrome thread under the simulator
/// process), `start` and `dur` are in cycles (rendered as µs, 1 cycle =
/// 1 µs). No-op outside a session.
pub fn sim_event(track: impl Display, name: impl Display, start_cycles: u64, dur_cycles: u64) {
    sim_event_args(track, name, start_cycles, dur_cycles, &[]);
}

/// [`sim_event`] with counter-style `args` attached (shown in the Chrome
/// trace's detail pane).
pub fn sim_event_args(
    track: impl Display,
    name: impl Display,
    start_cycles: u64,
    dur_cycles: u64,
    args: &[(&str, u64)],
) {
    if !enabled() {
        return;
    }
    let st = &mut *lock_state();
    let tid = st.sim_track(track);
    let name = st.push(name);
    let args = st.push_args(args);
    st.events.push(Event {
        ph: b'X',
        tid,
        name,
        ts_us: start_cycles as f64,
        dur_us: dur_cycles as f64,
        args,
    });
}

/// Records one sample of a simulated-time counter series (`ph:"C"` in the
/// Chrome trace: viewers render successive samples of the same `name` as a
/// stacked-area track under the simulator process). `ts` is in cycles on
/// the same clock as [`sim_event`], so counter tracks line up with event
/// tracks from any engine sharing the session. No-op outside a session.
pub fn sim_counter(name: impl Display, ts_cycles: u64, value: u64) {
    if !enabled() {
        return;
    }
    let st = &mut *lock_state();
    let name = st.push(name);
    let args = st.push_args(&[("value", value)]);
    st.events.push(Event {
        ph: b'C',
        tid: 0,
        name,
        ts_us: ts_cycles as f64,
        dur_us: 0.0,
        args,
    });
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
    pub(crate) fn counters_json(&self) -> String {
        let st = lock_state();
        let mut out = String::with_capacity(64 + st.counters.len() * 32);
        out.push_str("{\n  \"label\": ");
        write_json_string(&mut out, &st.label);
        out.push_str(",\n  \"counters\": {");
        for (i, &(name, v)) in st.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_string(&mut out, st.str(name));
            let _ = write!(out, ": {v}");
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
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n  {{\"ph\":\"M\",\
             \"name\":\"process_name\",\"pid\":{SIM_PID},\"tid\":0,\
             \"args\":{{\"name\":\"dota-accelerator\"}}}}"
        );
        // Tids count up in order of first appearance: name the tracks so.
        let mut tracks = st.sim_tracks.clone();
        tracks.sort_unstable_by_key(|&(_, tid)| tid);
        for (name, tid) in tracks {
            let _ = write!(
                out,
                ",\n  {{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{SIM_PID},\"tid\":{tid},\"args\":{{\"name\":"
            );
            write_json_string(&mut out, st.str(name));
            out.push_str("}}");
        }
        for e in &st.events {
            let _ = write!(out, ",\n  {{\"ph\":\"{}\",\"name\":", char::from(e.ph));
            write_json_string(&mut out, st.str(e.name));
            let _ = write!(
                out,
                ",\"cat\":\"sim\",\"pid\":{SIM_PID},\"tid\":{},\"ts\":{}",
                e.tid,
                fmt_f64(e.ts_us)
            );
            if e.ph == b'X' {
                let _ = write!(out, ",\"dur\":{}", fmt_f64(e.dur_us));
            }
            let args = &st.args[e.args.0 as usize..e.args.1 as usize];
            if !args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, &(key, v)) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(&mut out, st.str(key));
                    let _ = write!(out, ":{v}");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
        let json = t.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("L0.attention"));
        assert!(json.contains("\"loads\":7"));
        assert!(json.contains("RmmuFx"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(!json.contains("\"cat\":\"host\""));
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

    /// The fixed script behind the exporter's golden bytes: sim events
    /// with and without args on new and reused tracks, names formatted
    /// through `format_args!` that need escaping, counter samples and
    /// counters.
    fn golden_script() {
        sim_event("RmmuFx", "L0.linear", 0, 100);
        sim_event_args(
            "RmmuFx",
            format_args!("L{}.attention", 0),
            100,
            50,
            &[("loads", 7), ("reloads", 0)],
        );
        sim_event(
            format_args!("{}.queue", "cell"),
            format_args!("req{} queued", 12),
            3,
            9,
        );
        sim_event_args(
            format_args!("cell.slot{}", 1),
            format_args!("req{} \"{}\" \\ {}\n{}", 4, "q", "b", '\u{1}'),
            10,
            5,
            &[
                ("retention_milli", 125),
                ("level", 2),
                ("tokens", 8),
                ("attended", 40),
                ("omitted", 24),
            ],
        );
        sim_event("DramPort", "L0.weights", 0, 30);
        sim_event(
            format_args!("{}", "RmmuFx"),
            format_args!("naïve ✓ {}", "\t\r\u{7f}"),
            150,
            0,
        );
        sim_event_args(
            format_args!("cell.slot{}", 1),
            "big",
            u64::MAX,
            1 << 53,
            &[("k\"ey", u64::MAX)],
        );
        sim_counter(format_args!("{}.queue_depth", "cell"), 0, 3);
        sim_counter("serve.slo.burn_milli", 120, 5);
        sim_counter(format_args!("{}.queue_depth", "cell"), 130, 0);
        count("serve.steps", 2);
        count("a.first", 1);
        count("serve.steps", 3);
        count(&format!("attn.L{}.H{}.retained", 1, 0), 9);
        count("zz \"esc\"\n", 4);
        count("Z.upper", 0);
        count("é.accent", 1);
    }

    /// Bytes the per-event-`String` recorder exported for [`golden_script`],
    /// less its `host` process record.
    const GOLDEN_CHROME: &str = concat!(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
        r#"  {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"dota-accelerator"}},"#,
        "\n",
        r#"  {"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"RmmuFx"}},"#,
        "\n",
        r#"  {"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{"name":"cell.queue"}},"#,
        "\n",
        r#"  {"ph":"M","name":"thread_name","pid":1,"tid":3,"args":{"name":"cell.slot1"}},"#,
        "\n",
        r#"  {"ph":"M","name":"thread_name","pid":1,"tid":4,"args":{"name":"DramPort"}},"#,
        "\n",
        r#"  {"ph":"X","name":"L0.linear","cat":"sim","pid":1,"tid":1,"ts":0,"dur":100},"#,
        "\n",
        r#"  {"ph":"X","name":"L0.attention","cat":"sim","pid":1,"tid":1,"ts":100,"dur":50,"args":{"loads":7,"reloads":0}},"#,
        "\n",
        r#"  {"ph":"X","name":"req12 queued","cat":"sim","pid":1,"tid":2,"ts":3,"dur":9},"#,
        "\n",
        r#"  {"ph":"X","name":"req4 \"q\" \\ b\n\u0001","cat":"sim","pid":1,"tid":3,"ts":10,"dur":5,"args":{"retention_milli":125,"level":2,"tokens":8,"attended":40,"omitted":24}},"#,
        "\n",
        r#"  {"ph":"X","name":"L0.weights","cat":"sim","pid":1,"tid":4,"ts":0,"dur":30},"#,
        "\n",
        "  {\"ph\":\"X\",\"name\":\"naïve ✓ \\t\\r\u{7f}\",\"cat\":\"sim\",\"pid\":1,\"tid\":1,\"ts\":150,\"dur\":0},",
        "\n",
        r#"  {"ph":"X","name":"big","cat":"sim","pid":1,"tid":3,"ts":18446744073709552000,"dur":9007199254740992,"args":{"k\"ey":18446744073709551615}},"#,
        "\n",
        r#"  {"ph":"C","name":"cell.queue_depth","cat":"sim","pid":1,"tid":0,"ts":0,"args":{"value":3}},"#,
        "\n",
        r#"  {"ph":"C","name":"serve.slo.burn_milli","cat":"sim","pid":1,"tid":0,"ts":120,"args":{"value":5}},"#,
        "\n",
        r#"  {"ph":"C","name":"cell.queue_depth","cat":"sim","pid":1,"tid":0,"ts":130,"args":{"value":0}}"#,
        "\n]}\n",
    );

    const GOLDEN_COUNTERS: &str = concat!(
        "{\n",
        "  \"label\": \"golden \\\"script\\\"\\n\",\n",
        "  \"counters\": {\n",
        "    \"Z.upper\": 0,\n",
        "    \"a.first\": 1,\n",
        "    \"attn.L1.H0.retained\": 9,\n",
        "    \"serve.steps\": 5,\n",
        "    \"zz \\\"esc\\\"\\n\": 4,\n",
        "    \"é.accent\": 1\n",
        "  }\n",
        "}\n",
    );

    #[test]
    fn exporter_bytes_match_the_golden_script() {
        for _ in 0..2 {
            // The second pass records into the first one's kept buffers.
            let t = session("golden \"script\"\n");
            golden_script();
            assert_eq!(t.chrome_trace_json(), GOLDEN_CHROME);
            assert_eq!(t.counters_json(), GOLDEN_COUNTERS);
        }
        let t = session("");
        assert_eq!(
            t.chrome_trace_json(),
            concat!(
                "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
                r#"  {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"dota-accelerator"}}"#,
                "\n]}\n",
            )
        );
        assert_eq!(
            t.counters_json(),
            "{\n  \"label\": \"\",\n  \"counters\": {}\n}\n"
        );
    }
}
