//! The `dota serve --bench` load test and its canonical report.
//!
//! [`run_bench`] sweeps offered load × shed policy over a seeded traffic
//! trace and aggregates SLO histograms (queue wait, TTFT, inter-token gap,
//! end-to-end) per cell. Everything — the model, the traffic, the
//! simulated clock — is deterministic, and the JSON serialization is
//! hand-written in a canonical key order with [`dota_metrics::fmt_f64`]
//! formatting, so the report is *byte-identical* across `DOTA_THREADS`
//! settings, serial vs `parallel` builds, and machines. `dota report diff`
//! can therefore treat any drift as a real behaviour change.

use crate::cost::CostModel;
use crate::engine::{ServeConfig, ServeEngine, ServeOutcome, ShedPolicy};
use crate::request::FinishReason;
use crate::timeline::{CellTimeline, TimelineConfig, TimelineReport};
use crate::traffic::TrafficConfig;
use dota_accel::AccelConfig;
use dota_autograd::ParamSet;
use dota_metrics::{fmt_f64, Histogram, JsonWriter, ToJson};
use dota_telemetry::{EventSink, FlightHandle, ServeGauges};
use dota_transformer::{Model, TransformerConfig, MAX_SEQ_LEN};
use std::path::Path;
use std::sync::{Arc, PoisonError};

/// Report format version (bump on any schema change).
pub const SERVE_REPORT_VERSION: u32 = 1;

/// Most requests a sweep may offer per cell (see [`BenchOptions::validate`]).
pub(crate) const MAX_REQUESTS: usize = 1 << 20;

/// Parameters of one `dota serve --bench` sweep.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Seed for the model weights and every traffic trace.
    pub seed: u64,
    /// Requests offered per cell.
    pub requests: usize,
    /// Batch slots.
    pub capacity: usize,
    /// Pending-queue bound.
    pub queue_capacity: usize,
    /// Model sequence length (bounds prompt + generated tokens).
    pub seq: usize,
    /// Model vocabulary.
    pub vocab: usize,
    /// Offered loads to sweep, as multiples of estimated service capacity
    /// (1.0 ≈ arrivals match what the batch can sustain).
    pub loads: Vec<f64>,
    /// Shed policies to compare on identical traffic.
    pub sheds: Vec<ShedPolicy>,
    /// Retention ladder (best first).
    pub ladder: Vec<f64>,
    /// Interactive deadline budget, microseconds.
    pub interactive_deadline_us: f64,
    /// Batch deadline budget, microseconds.
    pub batch_deadline_us: f64,
    /// Inclusive prompt-length range.
    pub prompt_len: (usize, usize),
    /// Inclusive generated-token range.
    pub new_tokens: (usize, usize),
    /// Fraction of interactive-class requests.
    pub interactive_fraction: f64,
    /// Rolling window of the engine's SLO monitor (0 = monitor off). The
    /// monitor is observation-only; the bench report is byte-identical at
    /// any setting.
    pub slo_window: usize,
    /// Record per-request lifecycle timelines ([`BenchReport::timeline`]).
    /// Observation-only: scheduling and the bench report are unchanged.
    pub timeline: bool,
    /// Shared flight recorder fed by every cell's engine (one section per
    /// cell). Observation-only: the bench report is byte-identical with or
    /// without it.
    pub flight: Option<FlightHandle>,
    /// Live gauge cell for the metrics endpoint. Observation-only.
    pub gauges: Option<Arc<ServeGauges>>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            seed: 7,
            requests: 80,
            capacity: 8,
            queue_capacity: 64,
            seq: 48,
            vocab: 16,
            loads: vec![0.8, 2.0, 4.0],
            sheds: vec![ShedPolicy::QueueOnly, ShedPolicy::Retention],
            ladder: vec![1.0, 0.5, 0.25, 0.125],
            interactive_deadline_us: 50.0,
            batch_deadline_us: 500.0,
            prompt_len: (2, 8),
            new_tokens: (2, 8),
            interactive_fraction: 0.5,
            slo_window: 64,
            timeline: false,
            flight: None,
            gauges: None,
        }
    }
}

impl BenchOptions {
    /// Validates the sweep parameters.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        // Each cell's trace is generated whole before it is served (one
        // record plus its prompt per request); the committed sweeps offer 80.
        if !(1..=MAX_REQUESTS).contains(&self.requests) {
            return Err(format!(
                "requests {} must be in 1..={MAX_REQUESTS}",
                self.requests
            ));
        }
        if self.loads.is_empty() {
            return Err("at least one load point required".into());
        }
        for &l in &self.loads {
            // NaN must fail too, so test for the one acceptable state.
            if !(l > 0.0 && l.is_finite()) {
                return Err(format!("load {l} must be positive"));
            }
        }
        if self.sheds.is_empty() {
            return Err("at least one shed policy required".into());
        }
        // The committed sweeps run 48.
        if self.seq > MAX_SEQ_LEN {
            return Err(format!(
                "seq_len {} exceeds the {MAX_SEQ_LEN} positions a served model supports",
                self.seq
            ));
        }
        if self.prompt_len.1 + self.new_tokens.1 > self.seq {
            return Err(format!(
                "prompt+output can reach {} but seq_len is {}",
                self.prompt_len.1 + self.new_tokens.1,
                self.seq
            ));
        }
        for &load in &self.loads {
            bench_traffic(self, load)
                .validate()
                .map_err(|e| format!("load {load:?}: {e}"))?;
        }
        self.serve_config(self.sheds[0]).validate()?;
        Ok(())
    }

    pub(crate) fn serve_config(&self, shed: ShedPolicy) -> ServeConfig {
        ServeConfig {
            capacity: self.capacity,
            queue_capacity: self.queue_capacity,
            shed,
            ladder: self.ladder.clone(),
            interactive_deadline_us: self.interactive_deadline_us,
            batch_deadline_us: self.batch_deadline_us,
            slo_window: self.slo_window,
            ..ServeConfig::default()
        }
    }
}

/// Aggregated measurements of one (shed policy, load) cell.
#[derive(Debug)]
pub struct CellReport {
    /// Shed policy the cell ran under.
    pub shed: ShedPolicy,
    /// Offered load multiple.
    pub load: f64,
    /// Calibrated mean interarrival gap, cycles.
    pub mean_gap_cycles: f64,
    /// Requests offered.
    pub offered: usize,
    /// Terminal counts by [`FinishReason`] name order:
    /// completed, eos, deadline_evicted, queue_expired, rejected.
    pub completed: usize,
    /// Natural EOS stops.
    pub eos: usize,
    /// Evicted mid-decode at deadline.
    pub deadline_evicted: usize,
    /// Expired while queued.
    pub queue_expired: usize,
    /// Rejected at arrival (queue full, or a request the model cannot run).
    pub rejected: usize,
    /// Lost to injected faults (retry cap exhausted or deadline passed
    /// during backoff). Always 0 without fault injection, and then omitted
    /// from the JSON so fault-free reports keep their exact bytes.
    pub failed: usize,
    /// Fault-retry re-admissions. Omitted from the JSON when 0.
    pub retries: u64,
    /// Requests admitted below full retention.
    pub degraded: u64,
    /// Admissions per ladder rung (index-aligned with the ladder).
    pub admitted_per_level: Vec<u64>,
    /// Scheduler steps.
    pub steps: u64,
    /// Simulated cycles start to finish.
    pub cycles: u64,
    /// Tokens generated.
    pub tokens: u64,
    /// Mean batch occupancy over all steps.
    pub mean_occupancy: f64,
    /// Peak batch occupancy.
    pub max_occupancy: usize,
    /// Queue-wait histogram, microseconds.
    pub queue_wait_us: Histogram,
    /// Time-to-first-token histogram, microseconds.
    pub ttft_us: Histogram,
    /// Inter-token gap histogram, microseconds.
    pub per_token_us: Histogram,
    /// End-to-end residence histogram, microseconds (all non-rejected
    /// terminals, so SLO misses show up in the tail).
    pub e2e_us: Histogram,
    /// SLO-monitor terminal hits (0 when the monitor was off). Not
    /// serialized; the windows already summarize SLO behaviour.
    pub slo_hits: u64,
    /// SLO-monitor terminal misses (0 when the monitor was off). Not
    /// serialized.
    pub slo_misses: u64,
    /// Closed-loop controller activity; present (and serialized) only for
    /// [`ShedPolicy::Slo`] cells, so other cells keep their exact bytes.
    pub control: Option<crate::control::ControlSummary>,
}

impl CellReport {
    fn from_outcome(
        shed: ShedPolicy,
        load: f64,
        mean_gap_cycles: f64,
        ladder: &[f64],
        out: &ServeOutcome,
    ) -> Self {
        let mut cell = CellReport {
            shed,
            load,
            mean_gap_cycles,
            offered: out.completions.len(),
            completed: 0,
            eos: 0,
            deadline_evicted: 0,
            queue_expired: 0,
            rejected: 0,
            failed: 0,
            retries: out.retries,
            degraded: out.degraded,
            admitted_per_level: vec![0; ladder.len()],
            steps: out.steps,
            cycles: out.total_cycles,
            tokens: out.tokens,
            mean_occupancy: out.mean_occupancy(),
            max_occupancy: out.max_occupancy,
            queue_wait_us: Histogram::new(),
            ttft_us: Histogram::new(),
            per_token_us: Histogram::new(),
            e2e_us: Histogram::new(),
            slo_hits: out.slo_hits,
            slo_misses: out.slo_misses,
            control: out.control,
        };
        for c in &out.completions {
            match c.reason {
                FinishReason::Completed => cell.completed += 1,
                FinishReason::Eos => cell.eos += 1,
                FinishReason::DeadlineEvicted => cell.deadline_evicted += 1,
                FinishReason::QueueExpired => cell.queue_expired += 1,
                FinishReason::Rejected => cell.rejected += 1,
                FinishReason::Failed => cell.failed += 1,
            }
            if c.admit_seq.is_some() {
                if let Some(level) = ladder.iter().position(|&r| r == c.retention) {
                    cell.admitted_per_level[level] += 1;
                }
            }
            if c.reason == FinishReason::Rejected {
                continue;
            }
            let wait = CostModel::cycles_to_us(c.queue_wait());
            cell.queue_wait_us.record(wait);
            dota_metrics::observe("serve.queue_wait_us", wait);
            if let Some(t) = c.ttft() {
                let t = CostModel::cycles_to_us(t);
                cell.ttft_us.record(t);
                dota_metrics::observe("serve.ttft_us", t);
            }
            if let Some(gap) = c.per_token() {
                let gap = gap / 1e3; // cycles -> µs on the 1 GHz clock
                cell.per_token_us.record(gap);
                dota_metrics::observe("serve.per_token_us", gap);
            }
            let e2e = CostModel::cycles_to_us(c.e2e());
            cell.e2e_us.record(e2e);
            dota_metrics::observe("serve.e2e_us", e2e);
        }
        cell
    }

    /// Requests that produced their full requested output.
    pub fn served(&self) -> usize {
        self.completed + self.eos
    }

    /// The SLO monitor's overall deadline hit rate for the cell (`None`
    /// when the monitor was off or saw no terminals).
    pub fn slo_hit_rate(&self) -> Option<f64> {
        let total = self.slo_hits + self.slo_misses;
        (total > 0).then(|| self.slo_hits as f64 / total as f64)
    }
}

impl ToJson for CellReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj()
            .field("shed", self.shed.name())
            .field("load", self.load)
            .field("mean_gap_cycles", self.mean_gap_cycles)
            .field("offered", self.offered)
            .field("completed", self.completed)
            .field("eos", self.eos)
            .field("deadline_evicted", self.deadline_evicted)
            .field("queue_expired", self.queue_expired)
            .field("rejected", self.rejected);
        // Fault-path keys appear only when the path fired, so fault-free
        // reports (every committed baseline) keep their exact bytes.
        if self.failed > 0 {
            w.field("failed", self.failed);
        }
        if self.retries > 0 {
            w.field("retries", self.retries);
        }
        w.field("degraded", self.degraded)
            .list("admitted_per_level", &self.admitted_per_level)
            .field("steps", self.steps)
            .field("cycles", self.cycles)
            .field("tokens", self.tokens)
            .field("mean_occupancy", self.mean_occupancy)
            .field("max_occupancy", self.max_occupancy)
            .field("queue_wait_us", &self.queue_wait_us)
            .field("ttft_us", &self.ttft_us)
            .field("per_token_us", &self.per_token_us)
            .field("e2e_us", &self.e2e_us);
        if let Some(ctl) = &self.control {
            w.field("control", ctl);
        }
        w.end();
    }
}

/// Full result of one bench sweep.
#[derive(Debug)]
pub struct BenchReport {
    /// The options the sweep ran with.
    pub options: BenchOptions,
    /// One cell per (load, shed) pair, loads outer, sheds inner.
    pub cells: Vec<CellReport>,
    /// Per-request lifecycle timelines, present when
    /// [`BenchOptions::timeline`] was set. Serialized separately
    /// ([`TimelineReport::to_json`]) so the bench report stays
    /// byte-identical with recording on or off.
    pub timeline: Option<TimelineReport>,
}

impl BenchReport {
    /// Finds the cell for a (shed, load) pair.
    pub fn cell(&self, shed: ShedPolicy, load: f64) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.shed == shed && c.load == load)
    }

    /// Canonical JSON serialization (stable key order, [`fmt_f64`]
    /// number formatting; byte-identical for identical runs).
    pub fn to_json(&self) -> String {
        let o = &self.options;
        let mut w = JsonWriter::compact();
        w.obj()
            .field("version", SERVE_REPORT_VERSION)
            .key("config")
            .obj();
        w.field("seed", o.seed)
            .field("requests", o.requests)
            .field("capacity", o.capacity)
            .field("queue_capacity", o.queue_capacity)
            .field("seq", o.seq)
            .field("vocab", o.vocab)
            .list("ladder", &o.ladder)
            .field("interactive_deadline_us", o.interactive_deadline_us)
            .field("batch_deadline_us", o.batch_deadline_us)
            .list("prompt_len", [o.prompt_len.0, o.prompt_len.1])
            .list("new_tokens", [o.new_tokens.0, o.new_tokens.1])
            .field("interactive_fraction", o.interactive_fraction)
            .end();
        w.list("cells", &self.cells).end();
        w.finish()
    }

    /// Writes the canonical JSON atomically, so a crash cannot leave a
    /// torn report.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        dota_metrics::write_atomic(path, &self.to_json())
    }
}

/// The sweep's model, seeded like its traffic.
pub(crate) fn bench_model(opts: &BenchOptions) -> (Model, ParamSet) {
    let mut params = ParamSet::new();
    let mcfg = TransformerConfig::tiny_causal(opts.seq, opts.vocab);
    (Model::init(mcfg, &mut params, opts.seed), params)
}

/// The sweep's seeded traffic at offered `load` (bench policies and chaos
/// rates compare on the same trace); its mean gap in cycles is the dense
/// per-request service estimate at full occupancy, over the mean context a
/// request sees across its lifetime, divided by `load`.
pub(crate) fn bench_traffic(opts: &BenchOptions, load: f64) -> TrafficConfig {
    let mcfg = TransformerConfig::tiny_causal(opts.seq, opts.vocab);
    let cost = CostModel::new(&AccelConfig::default(), &mcfg);
    let mut traffic = TrafficConfig {
        requests: opts.requests,
        seed: opts.seed,
        mean_gap_cycles: 1.0, // placeholder until the service estimate
        prompt_len: opts.prompt_len,
        new_tokens: opts.new_tokens,
        interactive_fraction: opts.interactive_fraction,
        vocab: opts.vocab,
        eos: None,
    };
    let mean_positions = traffic.mean_positions();
    let mean_context = (mean_positions / 2.0).max(1.0) as usize;
    let per_token = cost.per_token_estimate(&mcfg, opts.capacity, mean_context);
    traffic.mean_gap_cycles = mean_positions * per_token / load;
    traffic
}

/// Runs the load-test sweep described by `opts`.
///
/// Traffic for a given load point uses the same seed for every shed
/// policy, so policies are compared on *identical* arrivals; offered load
/// is calibrated against the cost model's dense service estimate at full
/// occupancy.
///
/// # Errors
///
/// Rejects invalid options ([`BenchOptions::validate`]).
pub fn run_bench(opts: BenchOptions) -> Result<BenchReport, String> {
    opts.validate()?;
    let _sp = dota_prof::span("serve.bench");
    let (model, params) = bench_model(&opts);
    let accel = AccelConfig::default();
    let mut cells = Vec::with_capacity(opts.loads.len() * opts.sheds.len());
    let mut timeline_cells = Vec::new();
    for &load in &opts.loads {
        let traffic = bench_traffic(&opts, load);
        let requests = traffic.generate();
        for &shed in &opts.sheds {
            let _cell_sp = dota_prof::span("serve.bench.cell");
            let mut engine = ServeEngine::new(&model, &params, opts.serve_config(shed), &accel)?;
            let label = format!("serve[{}@{}x]", shed.name(), fmt_f64(load));
            let mut sinks: Vec<Box<dyn EventSink>> = Vec::new();
            if let Some(flight) = &opts.flight {
                flight
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .begin_cell(&label);
                sinks.push(Box::new(Arc::clone(flight)));
            }
            if let Some(gauges) = &opts.gauges {
                gauges.begin_cell(&label);
                sinks.push(Box::new(Arc::clone(gauges)));
            }
            engine.observe(&label, sinks);
            if opts.timeline {
                engine.enable_timeline(&label);
            }
            let mut outcome = engine.run(requests.clone());
            if let Some(requests) = outcome.timeline.take() {
                timeline_cells.push(CellTimeline {
                    shed,
                    load,
                    slo_windows: std::mem::take(&mut outcome.slo_windows),
                    control: outcome.control,
                    requests,
                });
            }
            cells.push(CellReport::from_outcome(
                shed,
                load,
                traffic.mean_gap_cycles,
                &opts.ladder,
                &outcome,
            ));
        }
    }
    let timeline = opts.timeline.then(|| TimelineReport {
        config: TimelineConfig {
            seed: opts.seed,
            requests: opts.requests,
            capacity: opts.capacity,
            queue_capacity: opts.queue_capacity,
            seq: opts.seq,
            vocab: opts.vocab,
            n_layers: model.config().n_layers,
            n_heads: model.config().n_heads,
            slo_window: opts.slo_window,
            ladder: opts.ladder.clone(),
            interactive_deadline_us: opts.interactive_deadline_us,
            batch_deadline_us: opts.batch_deadline_us,
        },
        cells: timeline_cells,
    });
    Ok(BenchReport {
        options: opts,
        cells,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> BenchOptions {
        BenchOptions {
            requests: 40,
            loads: vec![0.8, 4.0],
            ..Default::default()
        }
    }

    #[test]
    fn bench_report_is_deterministic() {
        let a = run_bench(quick_opts()).unwrap().to_json();
        let b = run_bench(quick_opts()).unwrap().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn every_offered_request_terminates() {
        let report = run_bench(quick_opts()).unwrap();
        for cell in &report.cells {
            assert_eq!(cell.offered, report.options.requests);
            assert_eq!(
                cell.completed
                    + cell.eos
                    + cell.deadline_evicted
                    + cell.queue_expired
                    + cell.rejected
                    + cell.failed,
                cell.offered
            );
            assert!(cell.max_occupancy <= report.options.capacity);
        }
    }

    #[test]
    fn underload_serves_nearly_everything() {
        let report = run_bench(quick_opts()).unwrap();
        for &shed in &report.options.sheds {
            let cell = report.cell(shed, 0.8).unwrap();
            assert!(
                cell.served() >= cell.offered * 9 / 10,
                "{} served only {}/{} at load 0.8",
                shed.name(),
                cell.served(),
                cell.offered
            );
        }
    }

    #[test]
    fn retention_shedding_beats_queueing_at_overload() {
        let report = run_bench(quick_opts()).unwrap();
        let queue = report.cell(ShedPolicy::QueueOnly, 4.0).unwrap();
        let shed = report.cell(ShedPolicy::Retention, 4.0).unwrap();
        assert!(shed.degraded > 0, "overload should push down the ladder");
        let qp99 = queue.e2e_us.quantile(0.99).unwrap();
        let sp99 = shed.e2e_us.quantile(0.99).unwrap();
        assert!(
            sp99 < qp99,
            "retention p99 {sp99} should beat queue-only p99 {qp99}"
        );
        assert!(shed.served() >= queue.served());
    }

    #[test]
    fn json_has_all_cells_and_round_trips_write() {
        let report = run_bench(quick_opts()).unwrap();
        let json = report.to_json();
        assert_eq!(json.matches("\"shed\"").count(), 4);
        assert!(json.contains("\"e2e_us\""));
        let dir = std::env::temp_dir().join("dota_serve_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        report.write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_options_are_rejected() {
        for f in [
            |o: &mut BenchOptions| o.loads.clear(),
            |o: &mut BenchOptions| o.loads = vec![0.0],
            |o: &mut BenchOptions| o.loads = vec![1e-20],
            |o: &mut BenchOptions| o.requests = 0,
            |o: &mut BenchOptions| o.sheds.clear(),
            |o: &mut BenchOptions| o.seq = 4,
            |o: &mut BenchOptions| o.seq = MAX_SEQ_LEN + 1,
            |o: &mut BenchOptions| o.ladder.clear(),
        ] {
            let mut o = quick_opts();
            f(&mut o);
            assert!(run_bench(o).is_err());
        }
    }
}
