//! Deterministic fault-injection campaigns.
//!
//! A campaign sweeps a grid of `(fault site, fault rate)` cells. Each cell
//! opens an exclusive [`dota_faults`] session and drives the workload the
//! site can actually reach:
//!
//! * hardware, detector and attention sites run a tiny Text model with a
//!   DOTA detector hook through [`Model::try_infer`] and the accelerator's
//!   `try_simulate_trace` (the fallible, fault-aware paths);
//! * the `train.loss` site runs dense training under the divergence
//!   watchdog ([`crate::watchdog::train_dense_guarded`]).
//!
//! Every cell ends in one of three states: **clean** (no fault fired),
//! **absorbed** (faults fired and the run still completed — ECC replay,
//! DRAM retry, lane re-routing, dense fallback or watchdog rollback), or
//! **failed** (a typed error surfaced). A panic is never an acceptable
//! outcome; the campaign tests pin that.
//!
//! Fault decisions hash `(seed, site, coordinates)` — they do not consume
//! a shared RNG stream — so a report is byte-identical for a given seed
//! regardless of thread count or build features. Cells run strictly
//! serially because fault sessions are globally exclusive.

use crate::experiments::{build_model, TrainOptions};
use crate::watchdog::{train_dense_guarded, WatchdogOptions};
use dota_detector::{DetectorConfig, DotaHook};
use dota_faults::{FaultPlan, FaultSite};
use dota_metrics::JsonWriter;
use dota_transformer::Model;
use dota_workloads::{Benchmark, TaskSpec};
use std::collections::BTreeMap;
use std::path::Path;

/// Report schema version (bumped on any change to the JSON layout).
pub const CAMPAIGN_VERSION: u32 = 1;

/// What to sweep.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Master seed: fault decisions, model init and data all derive from it.
    pub seed: u64,
    /// Sites to inject at (one sweep row per site).
    pub sites: Vec<FaultSite>,
    /// Fault rates to try per site, each in `[0, 1]`
    /// ([`CampaignOptions::validate`]).
    pub rates: Vec<f64>,
    /// Sequence length of the probe workload (the synthetic tasks require
    /// at least 16).
    pub seq_len: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            // The inference probe exercises the model/accelerator sites;
            // serve-layer sites are swept by `dota serve --chaos` instead.
            sites: FaultSite::MODEL.to_vec(),
            rates: vec![0.0, 0.05, 1.0],
            seq_len: 16,
        }
    }
}

impl CampaignOptions {
    /// Validates the sweep: at least one site and one rate, and every rate
    /// by [`dota_faults::check_rate`].
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.sites.is_empty() || self.rates.is_empty() {
            return Err("the campaign needs at least one site and one rate".to_owned());
        }
        self.rates
            .iter()
            .try_for_each(|&r| dota_faults::check_rate(r))
    }
}

/// Terminal state of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// No fault fired; outputs match the fault-free baseline.
    Clean,
    /// Faults fired and every one was absorbed by a degradation path.
    Absorbed,
    /// A typed error surfaced (never a panic).
    Failed,
}

impl RunStatus {
    /// Stable lower-case name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            RunStatus::Clean => "clean",
            RunStatus::Absorbed => "absorbed",
            RunStatus::Failed => "failed",
        }
    }
}

/// One `(site, rate)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Site injected at.
    pub site: FaultSite,
    /// Requested fault rate.
    pub rate: f64,
    /// How the run ended.
    pub status: RunStatus,
    /// Total `*.injected` events observed.
    pub injected: u64,
    /// All fault counters recorded during the session (sorted by name).
    pub counters: BTreeMap<String, u64>,
    /// Display of the typed error when `status == Failed`.
    pub error: Option<String>,
    /// Site-dependent outcome metric: simulated total cycles for the
    /// inference sites, final training loss for `train.loss`.
    pub outcome: f64,
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Options the sweep ran with.
    pub options: CampaignOptions,
    /// One entry per `(site, rate)` cell, in sweep order.
    pub runs: Vec<CampaignRun>,
}

/// Runs the full sweep serially. Panics inside a cell are bugs by
/// definition and propagate; every modeled fault ends as a counter or a
/// typed error.
pub fn run_campaign(opts: &CampaignOptions) -> CampaignReport {
    let probe = InferProbe::build(opts.seed, opts.seq_len);
    let mut runs = Vec::with_capacity(opts.sites.len() * opts.rates.len());
    for &site in &opts.sites {
        for &rate in &opts.rates {
            runs.push(run_cell(opts, &probe, site, rate));
        }
    }
    CampaignReport {
        options: opts.clone(),
        runs,
    }
}

/// Fixed tiny workload shared by every inference-path cell.
struct InferProbe {
    model: Model,
    params: dota_autograd::ParamSet,
    hook: DotaHook,
    ids: Vec<usize>,
}

impl InferProbe {
    fn build(seed: u64, seq_len: usize) -> Self {
        let spec = TaskSpec::tiny(Benchmark::Text, seq_len, seed);
        let (model, mut params) = build_model(&spec, seed);
        let hook = DotaHook::init(DetectorConfig::new(0.25), model.config(), &mut params);
        let vocab = model.config().vocab_size;
        let ids = (0..seq_len).map(|i| (i * 7 + 3) % vocab).collect();
        Self {
            model,
            params,
            hook,
            ids,
        }
    }
}

fn run_cell(opts: &CampaignOptions, probe: &InferProbe, site: FaultSite, rate: f64) -> CampaignRun {
    let plan = FaultPlan::new(opts.seed).with_rate(site, rate);
    let guard = dota_faults::session(plan);
    let (outcome, error) = match site {
        FaultSite::TrainLoss => {
            let spec = TaskSpec::tiny(Benchmark::Text, opts.seq_len, opts.seed);
            let (train, _) = spec.generate_split(8, 2);
            let (model, mut params) = build_model(&spec, opts.seed);
            match train_dense_guarded(
                &model,
                &mut params,
                &train,
                &TrainOptions {
                    epochs: 2,
                    ..Default::default()
                },
                &WatchdogOptions::default(),
            ) {
                Ok(out) => (f64::from(out.losses.last().copied().unwrap_or(0.0)), None),
                Err(e) => (f64::NAN, Some(e.to_string())),
            }
        }
        _ => {
            let hook = probe.hook.inference(&probe.params);
            match probe.model.try_infer(&probe.params, &probe.ids, &hook) {
                Err(e) => (f64::NAN, Some(e.to_string())),
                Ok(trace) => {
                    let accel =
                        dota_accel::Accelerator::new(dota_accel::AccelConfig::gpu_comparable());
                    match accel.try_simulate_trace(probe.model.config(), &trace) {
                        Ok(report) => (report.cycles.total() as f64, None),
                        Err(e) => (f64::NAN, Some(e.to_string())),
                    }
                }
            }
        }
    };
    let counters = guard.counters();
    let injected = guard.injected_total();
    drop(guard);
    let status = match (&error, injected) {
        (Some(_), _) => RunStatus::Failed,
        (None, 0) => RunStatus::Clean,
        (None, _) => RunStatus::Absorbed,
    };
    CampaignRun {
        site,
        rate,
        status,
        injected,
        counters,
        error,
        outcome,
    }
}

impl CampaignReport {
    /// Serializes the report to canonical JSON. The output is a pure
    /// function of [`CampaignOptions`] — byte-identical across thread
    /// counts and build features — and is diffable with
    /// [`crate::report::diff_paths`].
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.obj()
            .field("campaign_version", CAMPAIGN_VERSION)
            .field("seed", self.options.seed)
            .field("seq_len", self.options.seq_len)
            .key("runs")
            .arr();
        for run in &self.runs {
            w.obj()
                .field("site", run.site.name())
                .field("rate", run.rate)
                .field("status", run.status.name())
                .field("injected", run.injected)
                .field("outcome", run.outcome);
            if let Some(err) = &run.error {
                w.field("error", err);
            }
            w.map("counters", &run.counters).end();
        }
        w.end().end();
        w.finish()
    }

    /// Writes [`Self::to_json`] crash-safely (temp file + atomic rename).
    ///
    /// # Errors
    ///
    /// Any I/O error from creating, writing or renaming the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        dota_metrics::write_atomic(path, &self.to_json())
    }

    /// `(clean, absorbed, failed)` cell counts.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for run in &self.runs {
            match run.status {
                RunStatus::Clean => t.0 += 1,
                RunStatus::Absorbed => t.1 += 1,
                RunStatus::Failed => t.2 += 1,
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignOptions {
        CampaignOptions {
            seed: 7,
            sites: FaultSite::MODEL.to_vec(),
            rates: vec![0.0, 1.0],
            seq_len: 16,
        }
    }

    #[test]
    fn zero_rate_cells_are_clean_and_full_rate_never_panics() {
        let report = run_campaign(&small());
        assert_eq!(report.runs.len(), FaultSite::MODEL.len() * 2);
        for run in &report.runs {
            if run.rate == 0.0 {
                assert_eq!(run.status, RunStatus::Clean, "site {}", run.site.name());
                assert_eq!(run.injected, 0);
            } else {
                // rate 1.0 must fire somewhere and must not be silently clean
                assert_ne!(run.status, RunStatus::Clean, "site {}", run.site.name());
            }
        }
        // ECC replay and lane re-routing absorb even a 100% rate; the
        // unrecoverable sites surface typed errors.
        let by_site = |s: FaultSite| {
            report
                .runs
                .iter()
                .find(|r| r.site == s && r.rate == 1.0)
                .unwrap()
        };
        assert_eq!(by_site(FaultSite::SramBitFlip).status, RunStatus::Absorbed);
        assert_eq!(
            by_site(FaultSite::DetectorCorrupt).status,
            RunStatus::Absorbed
        );
        assert_eq!(
            by_site(FaultSite::DetectorSaturate).status,
            RunStatus::Absorbed
        );
        assert_eq!(by_site(FaultSite::DramRead).status, RunStatus::Failed);
        assert_eq!(by_site(FaultSite::LaneStuck).status, RunStatus::Failed);
        assert_eq!(by_site(FaultSite::AttnInput).status, RunStatus::Failed);
        assert_eq!(by_site(FaultSite::TrainLoss).status, RunStatus::Failed);
        for site in [
            FaultSite::DramRead,
            FaultSite::AttnInput,
            FaultSite::TrainLoss,
        ] {
            assert!(by_site(site).error.is_some(), "site {}", site.name());
        }
    }

    #[test]
    fn report_is_deterministic_for_a_seed() {
        let a = run_campaign(&small()).to_json();
        let b = run_campaign(&small()).to_json();
        assert_eq!(a, b);
        let other = run_campaign(&CampaignOptions { seed: 8, ..small() }).to_json();
        assert_ne!(a, other, "different seeds should differ somewhere");
    }

    #[test]
    fn report_writes_valid_diffable_json() {
        let report = run_campaign(&CampaignOptions {
            sites: vec![FaultSite::SramBitFlip],
            rates: vec![0.5],
            ..small()
        });
        let dir = std::env::temp_dir().join(format!("dota_campaign_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        report.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = serde_json::from_str::<serde_json::Value>(&text).unwrap();
        let diff = crate::report::diff_paths(&path, &path, &Default::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(diff.findings.is_empty(), "self-diff found divergences");
        let _ = parsed;
    }
}
