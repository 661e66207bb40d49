//! The `dota serve --chaos` availability campaign.
//!
//! [`run_chaos`] sweeps serve-layer fault rates × offered load over the
//! *same* seeded arrivals per load point (rates are compared on identical
//! traffic, exactly as bench compares shed policies) and reports an
//! availability summary per cell: goodput, served fraction, p99 end-to-end
//! latency, retry/quarantine activity and the raw fault counters. Each
//! cell runs inside its own exclusive [`dota_faults::session`] whose plan
//! sets every swept site to the cell's rate, so a chaos run composes with
//! nothing else — it refuses to start when this thread already holds a
//! fault session (the global `--faults` flag) rather than deadlock on its
//! own guard; sessions of other threads neither fault it nor stop it.
//!
//! Fault decisions are pure hashes of `(fault_seed, site, request,
//! attempt, position)` and the scheduler lives entirely on the simulated
//! clock, so the report is byte-identical across `DOTA_THREADS` and serial
//! vs `parallel` builds — the chaos baseline is committed and diffed like
//! every other report in this repository.

use crate::control::{ControlConfig, ControlSummary};
use crate::cost::CostModel;
use crate::engine::{ServeEngine, ShedPolicy};
use crate::report::{bench_model, bench_traffic, BenchOptions};
use crate::request::FinishReason;
use dota_accel::AccelConfig;
use dota_faults::{FaultPlan, FaultSite};
use dota_metrics::{fmt_f64, Histogram, JsonWriter, ToJson};
use std::collections::BTreeMap;
use std::path::Path;

/// Chaos report format version (bump on any schema change).
pub const SERVE_CHAOS_VERSION: u32 = 1;

/// Parameters of one `dota serve --chaos` campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Base sweep parameters (model, traffic, deadlines, loads). The
    /// `sheds` list is ignored — a chaos campaign runs one policy,
    /// [`ChaosOptions::shed`], across every cell.
    pub bench: BenchOptions,
    /// Shed policy every cell runs under.
    pub shed: ShedPolicy,
    /// Fault rates to sweep (applied to every swept site at once). Rate
    /// `0.0` is the availability control: same traffic, no injection.
    pub rates: Vec<f64>,
    /// Serve-layer sites the plan arms.
    pub sites: Vec<FaultSite>,
    /// Seed of every cell's fault plan (distinct from the traffic seed so
    /// the two streams can be varied independently).
    pub fault_seed: u64,
    /// Fault-retry attempts before a request fails typed.
    pub retry_cap: usize,
    /// Base retry backoff in cycles (doubles per attempt).
    pub retry_backoff_cycles: u64,
    /// Cycles a failed lane stays quarantined between probes.
    pub quarantine_cycles: u64,
    /// Closed-loop controller parameters (consulted when
    /// [`ChaosOptions::shed`] is [`ShedPolicy::Slo`]).
    pub control: ControlConfig,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        let serve = crate::engine::ServeConfig::default();
        Self {
            bench: BenchOptions::default(),
            shed: ShedPolicy::Slo,
            rates: vec![0.0, 0.05, 0.2],
            sites: FaultSite::SERVE.to_vec(),
            fault_seed: 0xD07A,
            retry_cap: serve.retry_cap,
            retry_backoff_cycles: serve.retry_backoff_cycles,
            quarantine_cycles: serve.quarantine_cycles,
            control: serve.control,
        }
    }
}

impl ChaosOptions {
    /// Validates the campaign parameters.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.bench.validate()?;
        if self.rates.is_empty() {
            return Err("at least one fault rate required".into());
        }
        for &r in &self.rates {
            if !(r.is_finite() && (0.0..=1.0).contains(&r)) {
                return Err(format!("fault rate {r} outside [0, 1]"));
            }
        }
        if self.sites.is_empty() {
            return Err("at least one fault site required".into());
        }
        self.serve_config().validate()
    }

    fn serve_config(&self) -> crate::engine::ServeConfig {
        crate::engine::ServeConfig {
            retry_cap: self.retry_cap,
            retry_backoff_cycles: self.retry_backoff_cycles,
            quarantine_cycles: self.quarantine_cycles,
            control: self.control.clone(),
            ..self.bench.serve_config(self.shed)
        }
    }
}

/// Availability summary of one (load, fault-rate) cell.
#[derive(Debug)]
pub struct ChaosCell {
    /// Offered load multiple.
    pub load: f64,
    /// Injection rate armed at every swept site.
    pub rate: f64,
    /// Requests offered.
    pub offered: usize,
    /// Requests that produced their full requested output.
    pub served: usize,
    /// Requests lost to faults (retry cap / deadline during backoff).
    pub failed: usize,
    /// Rejected at arrival (queue full, or a request the model cannot run).
    pub rejected: usize,
    /// Expired while queued.
    pub queue_expired: usize,
    /// Evicted mid-decode at deadline.
    pub deadline_evicted: usize,
    /// Fault-retry re-admissions.
    pub retries: u64,
    /// Decode steps discarded to injected timeouts.
    pub timeout_steps: u64,
    /// Lanes sent to quarantine.
    pub quarantine_events: u64,
    /// Peak number of simultaneously quarantined lanes.
    pub quarantine_peak: usize,
    /// Tokens delivered by served requests (discarded attempt tokens and
    /// evicted partials excluded).
    pub tokens_served: u64,
    /// Simulated cycles the cell ran for.
    pub cycles: u64,
    /// `served / offered`.
    pub served_fraction: f64,
    /// Served tokens per million simulated cycles.
    pub goodput_per_mcycle: f64,
    /// p99 end-to-end residence, microseconds (`None` when every request
    /// was rejected outright).
    pub p99_e2e_us: Option<f64>,
    /// Every fault counter the cell's session recorded (sorted by name;
    /// empty at rate 0).
    pub counters: BTreeMap<String, u64>,
    /// Controller activity ([`ShedPolicy::Slo`] cells only).
    pub control: Option<ControlSummary>,
}

impl ToJson for ChaosCell {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj()
            .field("load", self.load)
            .field("rate", self.rate)
            .field("offered", self.offered)
            .field("served", self.served)
            .field("served_fraction", self.served_fraction)
            .field("failed", self.failed)
            .field("rejected", self.rejected)
            .field("queue_expired", self.queue_expired)
            .field("deadline_evicted", self.deadline_evicted)
            .field("retries", self.retries)
            .field("timeout_steps", self.timeout_steps)
            .field("quarantine_events", self.quarantine_events)
            .field("quarantine_peak", self.quarantine_peak)
            .field("tokens_served", self.tokens_served)
            .field("cycles", self.cycles)
            .field("goodput_per_mcycle", self.goodput_per_mcycle)
            .field("p99_e2e_us", self.p99_e2e_us)
            .map("counters", &self.counters);
        if let Some(ctl) = &self.control {
            w.field("control", ctl);
        }
        w.end();
    }
}

/// Full result of one chaos campaign.
#[derive(Debug)]
pub struct ChaosReport {
    /// The options the campaign ran with.
    pub options: ChaosOptions,
    /// One cell per (load, rate) pair, loads outer, rates inner.
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// Finds the cell for a (load, rate) pair.
    pub fn cell(&self, load: f64, rate: f64) -> Option<&ChaosCell> {
        self.cells.iter().find(|c| c.load == load && c.rate == rate)
    }

    /// Canonical JSON serialization (stable key order, [`fmt_f64`] number
    /// formatting; byte-identical for identical runs).
    pub fn to_json(&self) -> String {
        let o = &self.options;
        let b = &o.bench;
        let mut w = JsonWriter::compact();
        w.obj()
            .field("version", SERVE_CHAOS_VERSION)
            .key("config")
            .obj();
        w.field("seed", b.seed)
            .field("fault_seed", o.fault_seed)
            .field("shed", o.shed.name())
            .field("requests", b.requests)
            .field("capacity", b.capacity)
            .field("queue_capacity", b.queue_capacity)
            .field("seq", b.seq)
            .field("vocab", b.vocab)
            .field("retry_cap", o.retry_cap)
            .field("retry_backoff_cycles", o.retry_backoff_cycles)
            .field("quarantine_cycles", o.quarantine_cycles)
            .list("sites", o.sites.iter().map(|s| s.name()))
            .list("rates", &o.rates)
            .list("loads", &b.loads)
            .list("ladder", &b.ladder)
            .field("interactive_deadline_us", b.interactive_deadline_us)
            .field("batch_deadline_us", b.batch_deadline_us)
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

/// Runs the chaos campaign described by `opts`.
///
/// Traffic for a given load point is generated once and replayed at every
/// fault rate, so rates are compared on *identical* arrivals; each cell
/// opens its own exclusive fault session.
///
/// # Errors
///
/// Rejects invalid options ([`ChaosOptions::validate`]) and refuses to run
/// while the calling thread holds a fault session (sessions are exclusive;
/// nesting on one thread would deadlock).
pub fn run_chaos(opts: ChaosOptions) -> Result<ChaosReport, String> {
    opts.validate()?;
    if dota_faults::enabled() {
        return Err(
            "chaos campaign manages its own fault sessions; end the global --faults session first"
                .into(),
        );
    }
    let _sp = dota_prof::span("serve.chaos");
    let b = &opts.bench;
    let (model, params) = bench_model(b);
    let accel = AccelConfig::default();
    let mut cells = Vec::with_capacity(b.loads.len() * opts.rates.len());
    for &load in &b.loads {
        let requests = bench_traffic(b, load).generate();
        for &rate in &opts.rates {
            let _cell_sp = dota_prof::span("serve.chaos.cell");
            let plan = opts
                .sites
                .iter()
                .fold(FaultPlan::new(opts.fault_seed), |p, &site| {
                    p.with_rate(site, rate)
                });
            let guard = dota_faults::session(plan);
            let mut engine = ServeEngine::new(&model, &params, opts.serve_config(), &accel)?;
            let label = format!(
                "serve.chaos[{}@{}x r={}]",
                opts.shed.name(),
                fmt_f64(load),
                fmt_f64(rate)
            );
            engine.observe(&label, []);
            let out = engine.run(requests.clone());
            let counters = guard.counters();
            drop(guard);

            let mut failed = 0;
            let mut rejected = 0;
            let mut queue_expired = 0;
            let mut deadline_evicted = 0;
            let mut served = 0;
            let mut tokens_served = 0u64;
            let mut e2e = Histogram::new();
            for c in &out.completions {
                match c.reason {
                    FinishReason::Completed | FinishReason::Eos => {
                        served += 1;
                        tokens_served += c.tokens.len() as u64;
                    }
                    FinishReason::DeadlineEvicted => deadline_evicted += 1,
                    FinishReason::QueueExpired => queue_expired += 1,
                    FinishReason::Rejected => rejected += 1,
                    FinishReason::Failed => failed += 1,
                }
                if c.reason != FinishReason::Rejected {
                    e2e.record(CostModel::cycles_to_us(c.e2e()));
                }
            }
            // Peak simultaneous quarantine from the interval log (the log
            // closes open intervals at run end, so a sweep over its
            // endpoints sees every overlap).
            let quarantine_peak = out
                .quarantine_log
                .iter()
                .map(|a| {
                    out.quarantine_log
                        .iter()
                        .filter(|b| b.from <= a.from && a.from < b.until)
                        .count()
                })
                .max()
                .unwrap_or(0);
            let offered = out.completions.len();
            cells.push(ChaosCell {
                load,
                rate,
                offered,
                served,
                failed,
                rejected,
                queue_expired,
                deadline_evicted,
                retries: out.retries,
                timeout_steps: out.timeout_steps,
                quarantine_events: out.quarantine_events,
                quarantine_peak,
                tokens_served,
                cycles: out.total_cycles,
                served_fraction: if offered == 0 {
                    0.0
                } else {
                    served as f64 / offered as f64
                },
                goodput_per_mcycle: if out.total_cycles == 0 {
                    0.0
                } else {
                    tokens_served as f64 * 1e6 / out.total_cycles as f64
                },
                p99_e2e_us: e2e.quantile(0.99),
                counters,
                control: out.control,
            });
        }
    }
    Ok(ChaosReport {
        options: opts,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ChaosOptions {
        ChaosOptions {
            bench: BenchOptions {
                requests: 30,
                loads: vec![1.0, 4.0],
                ..Default::default()
            },
            rates: vec![0.0, 0.2],
            ..Default::default()
        }
    }

    #[test]
    fn chaos_report_is_deterministic() {
        let a = run_chaos(quick_opts()).unwrap().to_json();
        let b = run_chaos(quick_opts()).unwrap().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn every_cell_conserves_requests() {
        let report = run_chaos(quick_opts()).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert_eq!(cell.offered, report.options.bench.requests);
            assert_eq!(
                cell.served
                    + cell.failed
                    + cell.rejected
                    + cell.queue_expired
                    + cell.deadline_evicted,
                cell.offered,
                "cell load {} rate {} leaks requests",
                cell.load,
                cell.rate
            );
        }
    }

    #[test]
    fn zero_rate_cells_are_clean_and_faulted_cells_still_serve() {
        let report = run_chaos(quick_opts()).unwrap();
        for cell in &report.cells {
            if cell.rate == 0.0 {
                assert_eq!(cell.failed, 0);
                assert_eq!(cell.retries, 0);
                assert!(cell.counters.is_empty(), "{:?}", cell.counters);
            } else {
                assert!(
                    cell.served_fraction > 0.0,
                    "rate {} load {} served nothing",
                    cell.rate,
                    cell.load
                );
            }
        }
        // The sweep actually injected something at the nonzero rates.
        assert!(report
            .cells
            .iter()
            .any(|c| c.rate > 0.0 && !c.counters.is_empty()));
    }

    #[test]
    fn rates_share_identical_arrivals_per_load() {
        // The rate-0 cell at each load must match a plain bench run of the
        // same options: same offered count and (absent faults) same
        // terminal mix, because the arrivals are the same trace.
        let report = run_chaos(quick_opts()).unwrap();
        for &load in &report.options.bench.loads {
            let zero = report.cell(load, 0.0).unwrap();
            assert_eq!(zero.failed, 0);
            assert_eq!(zero.offered, report.options.bench.requests);
        }
    }

    #[test]
    fn refuses_nested_fault_sessions() {
        let _g = dota_faults::session(FaultPlan::new(1));
        let err = run_chaos(quick_opts()).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
    }

    #[test]
    fn invalid_options_are_rejected() {
        for f in [
            |o: &mut ChaosOptions| o.rates.clear(),
            |o: &mut ChaosOptions| o.rates = vec![1.5],
            |o: &mut ChaosOptions| o.rates = vec![f64::NAN],
            |o: &mut ChaosOptions| o.sites.clear(),
            |o: &mut ChaosOptions| o.bench.loads.clear(),
            |o: &mut ChaosOptions| o.retry_backoff_cycles = 0,
        ] {
            let mut o = quick_opts();
            f(&mut o);
            assert!(run_chaos(o).is_err());
        }
    }

    #[test]
    fn json_round_trips_write() {
        let report = run_chaos(quick_opts()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"version\":1"));
        assert!(json.contains("\"served_fraction\""));
        let dir = std::env::temp_dir().join("dota_serve_chaos_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chaos.json");
        report.write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
