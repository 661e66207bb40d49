//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded *around* calls into the layers under test, from the
//! benchmark's files only — nothing inside the program is instrumented.
//! Each span carries a name, the layer it enters, start and end on one
//! monotonic clock, the span that caused it, and the id of the op it
//! belongs to. Spans stay in memory and are written once, at exit, in
//! Chrome trace format. With the recorder off (`--trace 0`) entering a
//! span is one thread-local flag test.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layers a request crosses, named after the crates under `crates/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Tensor,
    Quant,
    Transformer,
    Detector,
    Serve,
    Telemetry,
    Accel,
    /// The benchmark itself (round bookkeeping, input cloning, checks).
    Bench,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tensor => "tensor",
            Layer::Quant => "quant",
            Layer::Transformer => "transformer",
            Layer::Detector => "detector",
            Layer::Serve => "serve",
            Layer::Telemetry => "telemetry",
            Layer::Accel => "accel",
            Layer::Bench => "bench",
        }
    }
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Spans of one op (decode step, episode, rep, cell) share an id.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
    op: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

/// Turns recording on or off. Spans open across the switch are not
/// supported: call it between ops.
pub fn set_enabled(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "recorder toggled inside an open span");
        r.on = on;
    });
}

/// Starts a new op: spans entered from now on carry the next op id.
pub fn next_op() {
    REC.with(|r| r.borrow_mut().op += 1);
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(Option<u32>);

/// Opens a span; it closes when the returned guard drops.
pub fn enter(name: &'static str, layer: Layer) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied();
        let op = r.op;
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        r.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end = r.epoch.elapsed().as_nanos() as u64;
                let top = r.open.pop();
                debug_assert_eq!(top, Some(idx), "spans must close innermost first");
                r.spans[idx as usize].end_ns = end;
            });
        }
    }
}

/// Takes every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "spans taken while one is open");
        std::mem::take(&mut r.spans)
    })
}

/// Spans recorded so far (an index to slice a later [`with`] view from).
pub fn count() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// Reads the spans recorded so far.
pub fn with<R>(f: impl FnOnce(&[Span]) -> R) -> R {
    REC.with(|r| f(&r.borrow().spans))
}

/// Summed duration of the spans called `name`, nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time summed per layer, in nanoseconds, over the spans inside a
/// `round` span (replays and the kernel pass record spans outside any
/// round; they are not part of the workload's timed work).
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut in_round = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        // Parents precede their children.
        in_round[i] = s.name == "round" || s.parent.is_some_and(|p| in_round[p as usize]);
        if in_round[i] {
            *out.entry(s.layer).or_insert(0) += own;
        }
    }
    out
}

/// `true` when every span lies inside its parent and parents precede
/// their children (what Chrome's viewer needs to nest them).
pub fn well_nested(spans: &[Span]) -> bool {
    spans.iter().enumerate().all(|(i, s)| {
        s.start_ns <= s.end_ns
            && s.parent.is_none_or(|p| {
                let parent = &spans[p as usize];
                (p as usize) < i && parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns
            })
    })
}

/// Spans written to the trace file; later ones are counted, not written,
/// so a long run cannot produce an unbounded file.
pub const MAX_WRITTEN: usize = 200_000;

/// Chrome trace-event JSON (`ph:"X"` complete events, microseconds), one
/// event per line, as Chrome process `pid` named `process` — so the trace
/// files of several workloads can be put side by side in one view.
pub fn chrome_json(spans: &[Span], pid: usize, process: &str) -> String {
    let mut out = String::with_capacity(spans.len().min(MAX_WRITTEN) * 120 + 128);
    out.push_str(&format!(
        "{{\"traceEvents\":[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{process}\"}}}}"
    ));
    for (i, s) in spans.iter().take(MAX_WRITTEN).enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.layer.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            parent,
            s.op
        ));
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans_recorded\":{},\"spans_written\":{}}}}}\n",
        spans.len(),
        spans.len().min(MAX_WRITTEN)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: if layer == Layer::Bench { "round" } else { "s" },
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] > a [10,60] > b [20,30]; root > c [70,90]
        let spans = vec![
            span(Layer::Bench, 0, 100, None),
            span(Layer::Transformer, 10, 60, Some(0)),
            span(Layer::Detector, 20, 30, Some(1)),
            span(Layer::Transformer, 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer[&Layer::Bench], 30);
        assert_eq!(by_layer[&Layer::Transformer], 60);
        assert_eq!(by_layer[&Layer::Detector], 10);
        // Self times tile the root exactly.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        assert!(well_nested(&spans));
        // A span outside any round (a replay, the kernel pass) is left out.
        let mut with_stray = spans.clone();
        with_stray.push(span(Layer::Tensor, 200, 300, None));
        assert_eq!(layer_self_ns(&with_stray), by_layer);
    }

    #[test]
    fn ill_nested_spans_are_detected() {
        let spans = vec![
            span(Layer::Bench, 0, 50, None),
            span(Layer::Serve, 40, 60, Some(0)),
        ];
        assert!(!well_nested(&spans));
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        set_enabled(false);
        {
            let _g = enter("off", Layer::Bench);
        }
        assert!(take().is_empty());
        set_enabled(true);
        next_op();
        {
            let _outer = enter("outer", Layer::Transformer);
            let _inner = enter("inner", Layer::Detector);
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert!(well_nested(&spans));
        let json = chrome_json(&spans, 3, "w");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"cat\":\"detector\""));
        assert!(
            json.contains("\"pid\":3,\"args\":{\"name\":\"w\"}") && !json.contains("\"pid\":1")
        );
    }
}
