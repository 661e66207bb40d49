//! DOTA: Detect and Omit Weak Attentions — end-to-end reproduction API.
//!
//! This crate is the front door of the workspace: it wires the Transformer
//! (`dota-transformer`), the learned attention detector (`dota-detector`),
//! the synthetic benchmarks (`dota-workloads`) and the accelerator
//! simulator (`dota-accel`) into the experiment pipelines of the paper's
//! evaluation (§5):
//!
//! * [`experiments`] — train a model on a benchmark, jointly optimize the
//!   detector with it (Eq. 6), and evaluate accuracy/perplexity at a given
//!   retention for DOTA and every baseline (dense, oracle, ELSA, A3,
//!   random) — the Figure 11 / Table 1 pipeline;
//! * [`presets`] — the DOTA-F/C/A operating points and the paper-scale
//!   model shape of each benchmark;
//! * [`DotaSystem`] — the simulated-hardware side: latency, energy and
//!   speedup comparisons against the GPU and ELSA baselines — the
//!   Figure 12 / Figure 13 pipeline.
//!
//! # Quickstart
//!
//! ```
//! use dota_core::{DotaSystem, presets::OperatingPoint};
//! use dota_workloads::Benchmark;
//!
//! let system = DotaSystem::paper_default();
//! let row = system.speedup_row(Benchmark::Text, OperatingPoint::Conservative);
//! assert!(row.attention_vs_gpu > 1.0);
//! ```

#![deny(missing_docs)]

pub mod analyze;
pub mod campaign;
pub mod checkpoint;
pub mod cli;
pub mod compress;
pub mod experiments;
pub mod presets;
pub mod report;
pub mod serve_audit;
mod system;
pub mod watchdog;

pub use system::{DotaSystem, EnergyRow, SpeedupRow};
