//! Request-scoped lifecycle timelines for the serving engine.
//!
//! The bench report aggregates; the timeline *attributes*. Every request
//! that enters the engine gets a cycle-timestamped record of its whole
//! life: enqueued → admitted (or expired/rejected) → prefill → first
//! token → one [`StepRecord`] per decode step — each carrying the step's
//! weight-stream vs K/V-stream cycle split from the cost model and the
//! attended vs omitted position counts its retention produced → terminal
//! event. Because the scheduler is serial and every timestamp comes off
//! the simulated clock, the recording is a pure function of the trace and
//! configuration: the exported `timeline.json` is byte-identical across
//! `DOTA_THREADS` settings and serial vs `parallel` builds, so
//! `dota report diff` treats any drift as a behaviour change.
//!
//! Two consumers:
//!
//! * [`TimelineReport::to_json`] — the canonical document
//!   `dota analyze --serve` joins with the cost model for the
//!   degradation audit;
//! * a Chrome-trace view: when a `dota-trace` session is live, each
//!   terminal event replays the request onto per-batch-slot tracks
//!   (`<cell>.slot<lane>`) on the *simulated* clock, merging with
//!   whatever else the session is recording.
//!
//! The per-request latency decomposition is exact by construction: while
//! a request is queued or in flight the clock only advances through steps
//! it observes, so `queue + prefill + decode == e2e` and
//! `weight + kv + head_of_line == prefill + decode` hold cycle-for-cycle
//! (the audit re-checks both for every request).

use crate::engine::ShedPolicy;
use crate::request::{DeadlineClass, FinishReason};
use crate::slo::SloWindow;
use dota_metrics::{JsonWriter, ToJson};
use dota_telemetry::{EventSink, ServeEvent, Transition};
use std::collections::BTreeMap;
use std::path::Path;

pub use dota_telemetry::StepRecord;

/// Timeline format version (bump on any schema change).
pub const TIMELINE_VERSION: u32 = 1;

/// Full lifecycle of one request (see module docs for the invariants).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTimeline {
    /// Request id.
    pub id: u64,
    /// SLO class.
    pub class: DeadlineClass,
    /// Arrival (enqueue) time.
    pub arrival: u64,
    /// Absolute deadline (`arrival + class budget`).
    pub deadline: u64,
    /// Retention the request was admitted at (`ladder[0]` if never
    /// admitted).
    pub retention: f64,
    /// Ladder rung index behind `retention`.
    pub level: usize,
    /// Batch-slot lane occupied while in flight (`None` if never
    /// admitted). Lanes are reused as slots free, giving the Chrome view
    /// one stable track per slot.
    pub lane: Option<usize>,
    /// Admission time (`None` if never admitted).
    pub admit: Option<u64>,
    /// Time the first generated token finished (`None` if none was).
    pub first_token: Option<u64>,
    /// Terminal time.
    pub finish: u64,
    /// Terminal reason.
    pub reason: FinishReason,
    /// Tokens generated.
    pub tokens: u64,
    /// Fault-retry attempts (0 without injected faults). A retry resets
    /// the in-flight fields, so `admit`/`first_token`/`steps` describe the
    /// final attempt; everything before it counts as queueing.
    pub retries: u64,
    /// Tokens emitted by aborted attempts and discarded (never delivered;
    /// a retry regenerates the identical stream from scratch).
    pub discarded_tokens: u64,
    /// One record per decode step the request participated in.
    pub steps: Vec<StepRecord>,
}

impl RequestTimeline {
    /// End-to-end residence, cycles.
    pub(crate) fn e2e_cycles(&self) -> u64 {
        self.finish - self.arrival
    }

    /// Queue phase: arrival to admission (whole residence if never
    /// admitted).
    pub fn queue_cycles(&self) -> u64 {
        self.admit.unwrap_or(self.finish) - self.arrival
    }

    /// Prefill phase: admission to first token (admission to terminal if
    /// no token was produced).
    pub fn prefill_cycles(&self) -> u64 {
        match (self.admit, self.first_token) {
            (Some(a), Some(f)) => f - a,
            (Some(a), None) => self.finish - a,
            (None, _) => 0,
        }
    }

    /// Decode phase: first token to terminal.
    pub fn decode_cycles(&self) -> u64 {
        self.first_token.map_or(0, |f| self.finish - f)
    }

    /// Weight-stream cycles across all steps.
    pub fn weight_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.weight_cycles).sum()
    }

    /// Own K/V-stream cycles across all steps.
    pub fn kv_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.kv_cycles).sum()
    }

    /// Head-of-line cycles: time spent inside steps on *other* slots'
    /// K/V streams (`Σ step − weight − own kv`).
    pub fn hol_cycles(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.cycles - s.weight_cycles - s.kv_cycles)
            .sum()
    }

    /// Attended connections summed over all steps.
    pub(crate) fn attended_total(&self) -> u64 {
        self.steps.iter().map(|s| s.attended).sum()
    }

    /// Omitted connections summed over all steps.
    pub(crate) fn omitted_total(&self) -> u64 {
        self.steps.iter().map(|s| s.omitted).sum()
    }

    /// Fraction of the deadline budget the request consumed (> 1 means it
    /// blew the budget).
    pub fn burn(&self) -> f64 {
        self.e2e_cycles() as f64 / (self.deadline - self.arrival) as f64
    }
}

impl ToJson for RequestTimeline {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj()
            .field("id", self.id)
            .field("class", self.class.name())
            .field("reason", self.reason.name())
            .field("retention", self.retention)
            .field("level", self.level)
            .field("lane", self.lane)
            .field("arrival", self.arrival)
            .field("deadline", self.deadline)
            .field("admit", self.admit)
            .field("first_token", self.first_token)
            .field("finish", self.finish)
            .field("tokens", self.tokens)
            .field("attended", self.attended_total())
            .field("omitted", self.omitted_total())
            .field("queue_cycles", self.queue_cycles())
            .field("prefill_cycles", self.prefill_cycles())
            .field("decode_cycles", self.decode_cycles())
            .field("weight_cycles", self.weight_cycles())
            .field("kv_cycles", self.kv_cycles())
            .field("hol_cycles", self.hol_cycles())
            .field("burn", self.burn());
        // Fault-path fields only appear when a fault actually touched the
        // request, so fault-free timelines keep their exact byte layout.
        if self.retries > 0 || self.discarded_tokens > 0 {
            w.field("retries", self.retries)
                .field("discarded_tokens", self.discarded_tokens);
        }
        w.key("steps").arr();
        for st in &self.steps {
            w.arr()
                .value(st.start)
                .value(st.cycles)
                .value(st.weight_cycles)
                .value(st.kv_cycles)
                .value(st.attended)
                .value(st.omitted)
                .value(st.context)
                .end();
        }
        w.end().end();
    }
}

/// Records lifecycles for one engine run and replays terminals into any
/// live Chrome-trace session.
#[derive(Debug)]
pub struct TimelineRecorder {
    /// Track-name prefix in the Chrome view (one recorder per cell, so
    /// cells sharing a session do not collide).
    label: String,
    requests: BTreeMap<u64, RequestTimeline>,
}

impl TimelineRecorder {
    /// Creates a recorder; `label` prefixes the Chrome-trace track names.
    pub fn new(label: &str) -> Self {
        Self {
            label: label.to_owned(),
            requests: BTreeMap::new(),
        }
    }

    /// The request left the system: replays its spans into any live trace
    /// session.
    fn replay(&self, r: &RequestTimeline) {
        if !dota_trace::enabled() {
            return;
        }
        // Queued phase on the cell's shared queue track (skipped when
        // admission was immediate — a zero-width span is just noise).
        let queued_until = r.admit.unwrap_or(r.finish);
        if queued_until > r.arrival {
            dota_trace::sim_event_args(
                format_args!("{}.queue", self.label),
                format_args!("req{} queued", r.id),
                r.arrival,
                queued_until - r.arrival,
                &[("deadline", r.deadline)],
            );
        }
        let (Some(lane), Some(admit)) = (r.lane, r.admit) else {
            return;
        };
        dota_trace::sim_event_args(
            format_args!("{}.slot{lane}", self.label),
            format_args!("req{} {}", r.id, r.reason.name()),
            admit,
            r.finish - admit,
            &[
                ("retention_milli", (r.retention * 1e3).round() as u64),
                ("level", r.level as u64),
                ("tokens", r.tokens),
                ("attended", r.attended_total()),
                ("omitted", r.omitted_total()),
            ],
        );
        for (i, st) in r.steps.iter().enumerate() {
            dota_trace::sim_event_args(
                format_args!("{}.slot{lane}", self.label),
                format_args!("req{}[{}]", r.id, i),
                st.start,
                st.cycles,
                &[
                    ("weight_cycles", st.weight_cycles),
                    ("kv_cycles", st.kv_cycles),
                    ("attended", st.attended),
                    ("omitted", st.omitted),
                    ("context", st.context),
                ],
            );
        }
    }

    /// Consumes the recorder, returning the records sorted by request id.
    pub(crate) fn into_requests(self) -> Vec<RequestTimeline> {
        self.requests.into_values().collect()
    }
}

/// The timeline is the event stream grouped by request id.
impl EventSink for TimelineRecorder {
    fn on(&mut self, event: &ServeEvent) {
        let (now, Some(id)) = (event.cycle, event.what.request()) else {
            return;
        };
        if let Transition::Offered {
            class,
            arrival,
            deadline,
            retention,
            ..
        } = event.what
        {
            self.requests.insert(
                id,
                RequestTimeline {
                    id,
                    class,
                    arrival,
                    deadline,
                    retention,
                    level: 0,
                    lane: None,
                    admit: None,
                    first_token: None,
                    finish: arrival,
                    reason: FinishReason::Rejected,
                    tokens: 0,
                    retries: 0,
                    discarded_tokens: 0,
                    steps: Vec::new(),
                },
            );
        }
        let Some(r) = self.requests.get_mut(&id) else {
            return;
        };
        match &event.what {
            Transition::Admitted {
                lane,
                rung,
                retention,
                ..
            } => {
                r.admit = Some(now);
                r.retention = *retention;
                r.level = *rung as usize;
                r.lane = Some(*lane as usize);
            }
            Transition::SlotStep { step, .. } => r.steps.push(*step),
            Transition::FirstToken { .. } => r.first_token = r.first_token.or(Some(now)),
            // The in-flight fields reset: the time spent so far reads as
            // queueing, keeping the phase decomposition exact for the
            // final attempt.
            Transition::Retry { discarded, .. } => {
                r.retries += 1;
                r.discarded_tokens += discarded;
                r.admit = None;
                r.first_token = None;
                r.lane = None;
                r.steps.clear();
            }
            // The failed attempt delivered nothing, so its first-token
            // timestamp is not a serving event; fold decode into prefill.
            Transition::Discard { discarded, .. } => {
                r.discarded_tokens += discarded;
                r.first_token = None;
            }
            Transition::Terminal { reason, tokens, .. } => {
                r.reason = *reason;
                r.finish = now;
                r.tokens = *tokens;
                self.replay(&self.requests[&id]);
            }
            _ => {}
        }
    }
}

/// Timelines of one (shed policy, load) bench cell.
#[derive(Debug)]
pub struct CellTimeline {
    /// Shed policy the cell ran under.
    pub shed: ShedPolicy,
    /// Offered load multiple.
    pub load: f64,
    /// SLO monitor window summaries (empty when the monitor was off).
    pub slo_windows: Vec<SloWindow>,
    /// Closed-loop controller activity, present for
    /// [`ShedPolicy::Slo`] cells only and then serialized, so the audit
    /// can cross-check controller behaviour; other cells keep their
    /// exact bytes.
    pub control: Option<crate::control::ControlSummary>,
    /// Per-request lifecycles, sorted by id.
    pub requests: Vec<RequestTimeline>,
}

impl ToJson for SloWindow {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj()
            .field("completions", self.completions)
            .field("end_cycle", self.end_cycle)
            .field("hits", self.hits)
            .field("hit_rate", self.hit_rate)
            .field("mean_burn", self.mean_burn)
            .end();
    }
}

impl ToJson for CellTimeline {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj()
            .field("shed", self.shed.name())
            .field("load", self.load)
            .list("slo_windows", &self.slo_windows);
        if let Some(ctl) = &self.control {
            w.field("control", ctl);
        }
        w.list("requests", &self.requests).end();
    }
}

/// The model/engine parameters the audit needs to re-derive expected
/// attention counts from the timelines.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Seed for weights and traffic.
    pub seed: u64,
    /// Requests offered per cell.
    pub requests: usize,
    /// Batch slots.
    pub capacity: usize,
    /// Pending-queue bound.
    pub queue_capacity: usize,
    /// Model sequence length.
    pub seq: usize,
    /// Model vocabulary.
    pub vocab: usize,
    /// Transformer layers.
    pub n_layers: usize,
    /// Attention heads per layer.
    pub n_heads: usize,
    /// SLO monitor window (0 = monitor off).
    pub slo_window: usize,
    /// Retention ladder, best first.
    pub ladder: Vec<f64>,
    /// Interactive deadline budget, microseconds.
    pub interactive_deadline_us: f64,
    /// Batch deadline budget, microseconds.
    pub batch_deadline_us: f64,
}

/// The full canonical timeline document of one bench sweep.
#[derive(Debug)]
pub struct TimelineReport {
    /// Engine/model parameters shared by every cell.
    pub config: TimelineConfig,
    /// One entry per (load, shed) cell, loads outer, sheds inner.
    pub cells: Vec<CellTimeline>,
}

impl TimelineReport {
    /// Canonical JSON serialization (stable key order, [`fmt_f64`] number
    /// formatting; byte-identical for identical runs).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut w = JsonWriter::compact();
        w.obj()
            .field("version", TIMELINE_VERSION)
            .key("config")
            .obj();
        w.field("seed", c.seed)
            .field("requests", c.requests)
            .field("capacity", c.capacity)
            .field("queue_capacity", c.queue_capacity)
            .field("seq", c.seq)
            .field("vocab", c.vocab)
            .field("n_layers", c.n_layers)
            .field("n_heads", c.n_heads)
            .field("slo_window", c.slo_window)
            .list("ladder", &c.ladder)
            .field("interactive_deadline_us", c.interactive_deadline_us)
            .field("batch_deadline_us", c.batch_deadline_us)
            .end();
        w.list("cells", &self.cells).end();
        w.finish()
    }

    /// Writes the canonical JSON atomically.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        dota_metrics::write_atomic(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder fed `(cycle, transition)` pairs.
    fn recorded(
        label: &str,
        events: impl IntoIterator<Item = (u64, Transition)>,
    ) -> TimelineRecorder {
        let mut tl = TimelineRecorder::new(label);
        for (cycle, what) in events {
            tl.on(&ServeEvent { cycle, what });
        }
        tl
    }

    fn offered(id: u64, arrival: u64, deadline: u64) -> (u64, Transition) {
        let what = Transition::Offered {
            id,
            class: DeadlineClass::Interactive,
            arrival,
            deadline,
            retention: 1.0,
        };
        (arrival, what)
    }

    fn admitted(id: u64, now: u64, retention: f64, rung: u64, lane: u64) -> (u64, Transition) {
        let what = Transition::Admitted {
            id,
            lane,
            rung,
            retention,
            attempt: 0,
        };
        (now, what)
    }

    fn finished(id: u64, reason: FinishReason, now: u64, tokens: u64) -> (u64, Transition) {
        let what = Transition::Terminal {
            id,
            reason,
            tokens,
            slo: None,
        };
        (now, what)
    }

    fn step(start: u64, cycles: u64, weight: u64, kv: u64) -> StepRecord {
        StepRecord {
            start,
            cycles,
            weight_cycles: weight,
            kv_cycles: kv,
            attended: 4,
            omitted: 2,
            context: 3,
        }
    }

    #[test]
    fn decomposition_sums_to_e2e() {
        let slot_step = |step| Transition::SlotStep { id: 1, step };
        let tl = recorded(
            "t",
            [
                offered(1, 100, 100 + 50_000),
                admitted(1, 150, 0.5, 1, 0),
                (250, slot_step(step(150, 100, 40, 20))),
                (250, Transition::FirstToken { id: 1 }),
                (360, slot_step(step(250, 110, 40, 25))),
                finished(1, FinishReason::Completed, 360, 2),
            ],
        );
        let r = &tl.into_requests()[0];
        assert_eq!(r.queue_cycles(), 50);
        assert_eq!(r.prefill_cycles(), 100);
        assert_eq!(r.decode_cycles(), 110);
        assert_eq!(
            r.queue_cycles() + r.prefill_cycles() + r.decode_cycles(),
            r.e2e_cycles()
        );
        assert_eq!(r.weight_cycles(), 80);
        assert_eq!(r.kv_cycles(), 45);
        assert_eq!(r.hol_cycles(), 210 - 80 - 45);
        assert_eq!(
            r.weight_cycles() + r.kv_cycles() + r.hol_cycles(),
            r.prefill_cycles() + r.decode_cycles()
        );
        assert_eq!(r.attended_total(), 8);
        assert_eq!(r.omitted_total(), 4);
        assert!((r.burn() - 260.0 / 50_000.0).abs() < 1e-12);
    }

    #[test]
    fn never_admitted_requests_decompose_as_pure_queueing() {
        let tl = recorded(
            "t",
            [
                offered(3, 10, 510),
                finished(3, FinishReason::QueueExpired, 510, 0),
            ],
        );
        let r = &tl.into_requests()[0];
        assert_eq!(r.queue_cycles(), 500);
        assert_eq!(r.prefill_cycles(), 0);
        assert_eq!(r.decode_cycles(), 0);
        assert_eq!(r.e2e_cycles(), 500);
        assert_eq!(r.burn(), 1.0);
        assert_eq!(r.lane, None);
    }

    #[test]
    fn json_is_canonical_and_null_safe() {
        let tl = recorded(
            "t",
            [
                offered(2, 0, 50_000),
                finished(2, FinishReason::Rejected, 0, 0),
            ],
        );
        let report = TimelineReport {
            config: TimelineConfig {
                seed: 7,
                requests: 1,
                capacity: 8,
                queue_capacity: 64,
                seq: 48,
                vocab: 16,
                n_layers: 2,
                n_heads: 2,
                slo_window: 64,
                ladder: vec![1.0, 0.5],
                interactive_deadline_us: 50.0,
                batch_deadline_us: 500.0,
            },
            cells: vec![CellTimeline {
                shed: ShedPolicy::Retention,
                load: 4.0,
                slo_windows: Vec::new(),
                control: None,
                requests: tl.into_requests(),
            }],
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"lane\":null"));
        assert!(a.contains("\"admit\":null"));
        assert!(a.contains("\"reason\":\"rejected\""));
        assert!(a.ends_with("\n"));
        // The document parses back as JSON.
        assert!(serde_json::parse(&a).is_ok());
    }

    #[test]
    fn terminals_replay_slot_tracks_into_a_live_session() {
        let t = dota_trace::session("timeline-chrome");
        let step = Transition::SlotStep {
            id: 5,
            step: step(40, 100, 40, 20),
        };
        recorded(
            "cellA",
            [
                offered(5, 0, 50_000),
                admitted(5, 40, 1.0, 0, 2),
                (140, step),
                finished(5, FinishReason::Completed, 140, 1),
            ],
        );
        let json = t.chrome_trace_json();
        assert!(json.contains("cellA.slot2"), "{json}");
        assert!(json.contains("req5 completed"));
        assert!(json.contains("\"retention_milli\":1000"));
        assert!(json.contains("req5 queued"));
    }
}
