//! The engine's end of the event spine.
//!
//! [`ServeEngine`](crate::ServeEngine) emits one [`ServeEvent`] per
//! scheduler transition into its [`Spine`], which hands it to every fold
//! attached behind it: the request timeline, any [`EventSink`] the caller
//! attached (flight ring, live gauges, a captured stream), and — while a
//! `dota-trace` / `dota-metrics` session is live on this thread — the
//! `serve.*` counters, Chrome counter tracks and `serve.slo.*` histograms.
//! [`StreamTotals`] is the fold behind those counters; it reproduces every
//! aggregate of a [`ServeOutcome`](crate::ServeOutcome) from the stream
//! alone, which is how the tests show that no observer can see something
//! the others cannot.

use crate::timeline::{RequestTimeline, TimelineRecorder};
use dota_telemetry::{EventSink, FinishReason, ServeEvent, Transition};

/// Run aggregates as sums over the event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// Requests offered.
    pub offered: u64,
    /// Admissions, fault-retry re-admissions included.
    pub admitted: u64,
    /// First admissions below `ladder[0]`.
    pub degraded: u64,
    /// Scheduler steps.
    pub steps: u64,
    /// Simulated cycles spent inside steps.
    pub cycles: u64,
    /// Tokens generated, discarded attempts included.
    pub tokens: u64,
    /// Sum of per-step batch occupancies.
    pub occupancy_sum: u64,
    /// Largest batch any step decoded.
    pub max_occupancy: u64,
    /// Deepest pending queue at any step boundary.
    pub queue_depth_max: u64,
    /// Terminals that produced their full output.
    pub served: u64,
    /// Every other terminal.
    pub dropped: u64,
    /// Terminals lost to injected faults.
    pub failed: u64,
    /// Fault-retry re-admissions scheduled.
    pub retries: u64,
    /// Decode steps discarded to injected timeouts.
    pub timeout_steps: u64,
    /// Lanes sent to quarantine.
    pub quarantine_events: u64,
    /// Terminals that met their SLO (monitor on).
    pub slo_hits: u64,
    /// Terminals that missed their SLO (monitor on).
    pub slo_misses: u64,
}

impl EventSink for StreamTotals {
    fn on(&mut self, event: &ServeEvent) {
        match &event.what {
            Transition::Offered { .. } => self.offered += 1,
            Transition::Admitted { rung, attempt, .. } => {
                self.admitted += 1;
                self.degraded += u64::from(*attempt == 0 && *rung > 0);
            }
            Transition::Retry { .. } => self.retries += 1,
            Transition::Quarantine { .. } => self.quarantine_events += 1,
            Transition::Terminal { reason, slo, .. } => {
                if reason.is_served() {
                    self.served += 1;
                } else {
                    self.dropped += 1;
                }
                self.failed += u64::from(*reason == FinishReason::Failed);
                if let Some(slo) = slo {
                    self.slo_hits += u64::from(slo.hit);
                    self.slo_misses += u64::from(!slo.hit);
                }
            }
            Transition::StepBoundary {
                start,
                batch,
                tokens,
                timeouts,
                state,
                ..
            } => {
                self.steps += 1;
                self.cycles += event.cycle - start;
                self.tokens += tokens;
                self.occupancy_sum += batch;
                self.max_occupancy = self.max_occupancy.max(*batch);
                self.queue_depth_max = self.queue_depth_max.max(state.queue_depth);
                self.timeout_steps += timeouts;
            }
            Transition::SlotStep { .. }
            | Transition::FirstToken { .. }
            | Transition::Discard { .. }
            | Transition::Rung { .. }
            | Transition::Gate { .. }
            | Transition::Probe { .. } => {}
        }
    }
}

/// Where the engine's events fan out (see the module docs).
#[derive(Debug)]
pub(crate) struct Spine {
    /// Prefix of the Chrome-trace counter/track names, so engines sharing
    /// a trace session (e.g. bench cells) stay distinguishable.
    label: String,
    totals: StreamTotals,
    timeline: Option<TimelineRecorder>,
    sinks: Vec<Box<dyn EventSink>>,
}

impl Spine {
    pub(crate) fn new() -> Self {
        Self {
            label: "serve".to_owned(),
            totals: StreamTotals::default(),
            timeline: None,
            sinks: Vec::new(),
        }
    }

    pub(crate) fn attach(
        &mut self,
        label: &str,
        sinks: impl IntoIterator<Item = Box<dyn EventSink>>,
    ) {
        self.label = label.to_owned();
        self.sinks.extend(sinks);
    }

    pub(crate) fn enable_timeline(&mut self, label: &str) {
        self.label = label.to_owned();
        self.timeline = Some(TimelineRecorder::new(label));
    }

    /// Whether anything would see an event emitted now. Sessions belong to
    /// the thread that opened them and a run never leaves its thread, so
    /// the answer holds for the whole run.
    pub(crate) fn watched(&self) -> bool {
        self.timeline.is_some()
            || !self.sinks.is_empty()
            || dota_trace::enabled()
            || dota_metrics::hist_enabled()
    }

    pub(crate) fn on(&mut self, event: &ServeEvent) {
        self.totals.on(event);
        if let Some(tl) = self.timeline.as_mut() {
            tl.on(event);
        }
        for sink in &mut self.sinks {
            sink.on(event);
        }
        self.sessions(event);
    }

    /// The histogram samples and Chrome counter tracks of one event.
    fn sessions(&self, event: &ServeEvent) {
        let track = |name: &str, ts: u64, value: u64| {
            dota_trace::sim_counter(format_args!("{}.{name}", self.label), ts, value);
        };
        let milli = |x: f64| (x * 1e3).round() as u64;
        match &event.what {
            Transition::Terminal { slo: Some(slo), .. } => {
                dota_metrics::observe("serve.slo.burn", slo.burn);
                dota_metrics::observe("serve.slo.hit_rate", slo.rolling_hit_rate);
                if dota_trace::enabled() {
                    let (hit, burn) = (milli(slo.rolling_hit_rate), milli(slo.rolling_burn));
                    dota_trace::sim_counter("serve.slo.hit_rate_milli", event.cycle, hit);
                    dota_trace::sim_counter("serve.slo.burn_milli", event.cycle, burn);
                }
            }
            Transition::StepBoundary {
                start,
                batch,
                burn,
                state,
                ..
            } => {
                if let Some(burn) = burn {
                    dota_metrics::observe("serve.slo.step_burn_max", *burn);
                }
                if dota_trace::enabled() {
                    track("queue_depth", *start, state.queue_depth);
                    track("occupancy", *start, *batch);
                    if let Some(rung) = state.rung {
                        track("ctl.level", event.cycle, rung);
                    }
                    if let Some(burn) = state.slo_burn_milli {
                        track("slo.burn_max_milli", event.cycle, burn);
                    }
                }
            }
            _ => {}
        }
    }

    /// Ends the run: flushes the stream's sums as `serve.*` trace counters
    /// (`slo_windows` is the monitor's window count, `None` with the
    /// monitor off) and hands back the timeline, if one was recorded.
    pub(crate) fn close(self, slo_windows: Option<usize>) -> Option<Vec<RequestTimeline>> {
        let t = &self.totals;
        if dota_trace::enabled() {
            dota_trace::count("serve.steps", t.steps);
            dota_trace::count("serve.cycles", t.cycles);
            dota_trace::count("serve.tokens", t.tokens);
            dota_trace::count("serve.admitted", t.admitted);
            dota_trace::count("serve.degraded", t.degraded);
            dota_trace::count("serve.served", t.served);
            dota_trace::count("serve.dropped", t.dropped);
            dota_trace::count("serve.queue_depth_max", t.queue_depth_max);
            if let Some(mean_milli) = (t.occupancy_sum * 1000).checked_div(t.steps) {
                dota_trace::count("serve.occupancy_mean_milli", mean_milli);
            }
            // Fault-path counters only exist when something fired, so
            // fault-free traces keep their exact counter set.
            for (name, v) in [
                ("serve.retries", t.retries),
                ("serve.failed", t.failed),
                ("serve.timeout_steps", t.timeout_steps),
                ("serve.quarantine_events", t.quarantine_events),
            ] {
                if v > 0 {
                    dota_trace::count(name, v);
                }
            }
            if let Some(windows) = slo_windows {
                dota_trace::count("serve.slo.hits", t.slo_hits);
                dota_trace::count("serve.slo.misses", t.slo_misses);
                dota_trace::count("serve.slo.windows", windows as u64);
            }
        }
        self.timeline.map(TimelineRecorder::into_requests)
    }
}
