//! Cycle-level simulator of the DOTA accelerator (paper §4) and its
//! hardware baselines.
//!
//! The modeled system is the paper's Table 2 configuration: four compute
//! Lanes, each with a 32×16 multi-precision RMMU, a Detector (threshold
//! comparator + locality-aware Scheduler), a Multi-Function Unit (exp /
//! divide / (de)quantize) and a 640 KB banked SRAM, plus a shared
//! Accumulator and off-chip DRAM.
//!
//! Three workload paths are supported:
//!
//! * **Replay** — [`Accelerator::simulate_trace`] consumes a
//!   [`ForwardTrace`](dota_transformer::ForwardTrace) from a real model
//!   inference (exact sparsity patterns from the trained detector);
//! * **Analytic** — [`Accelerator::simulate_shape`] times a paper-scale
//!   model shape at a given retention, using synthetic selections with
//!   controllable locality ([`synth`]) for the memory-access model;
//! * **Baselines** — [`gpu::GpuModel`] (V100-like roofline) and
//!   [`elsa::ElsaModel`] (approximate-attention accelerator with row-by-row
//!   dataflow) reproduce the comparison targets of Figures 12–13.
//!
//! The [`sched`] module implements Algorithm 1 (locality-aware out-of-order
//! scheduling) and the two reference dataflows of Figures 8–9, with unit
//! tests pinning the paper's worked examples (10 vs 5 and 11 vs 7 key
//! loads).

#![deny(missing_docs)]

mod accelerator;
pub mod decode;
pub mod elsa;
pub mod energy;
pub mod fault;
pub mod gpu;
mod memory;
pub mod render;
pub mod sched;
pub mod synth;

pub use accelerator::{AccelConfig, Accelerator, EnergyBreakdown, PerfReport, StageLatency};
pub use fault::SimFault;
