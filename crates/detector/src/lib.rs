//! Weak-attention detection (paper §3) and baselines.
//!
//! The central idea of DOTA is to *detect* weak attention connections before
//! computing `Q K^T`, using a trainable, low-rank, low-precision estimator:
//!
//! ```text
//! Q̃, K̃ = (X P) W̃_Q, (X P) W̃_K        (Eq. 4, P = Achlioptas projection)
//! S̃    = Q̃ K̃^T                        (estimated scores)
//! mask  = row-wise top-k of S̃           (equal-k workload balance, §4.3)
//! ```
//!
//! trained jointly with the model against `L = L_model + λ‖S − S̃‖²`
//! (Eqs. 5–6), so the estimator learns to rank connections *and* the model
//! adapts to sparse attention.
//!
//! This crate provides:
//!
//! * [`DetectorConfig`] — σ (dimension reduction), precision, retention,
//!   selection strategy, λ;
//! * [`LowRankDetector`] — one estimator per attention head, with a
//!   float path for training and a quantized path for inference;
//! * [`DotaHook`] — the [`AttentionHook`](dota_transformer::AttentionHook)
//!   implementing joint optimization, and [`DotaInferenceHook`] for the
//!   deployed quantized detector;
//! * [`elsa`] / [`a3`] — the sign-random-projection (ELSA) and
//!   sorted-approximation (A3) prior-work baselines (§6.2);
//! * [`oracle`] — post-hoc exact top-k and random-selection references
//!   (Table 1);
//! * [`metrics`] — detection-recall evaluation against the oracle.

#![deny(missing_docs)]
// Indexed loops are the clearest formulation of the matrix kernels here.
#![allow(clippy::needless_range_loop)]

pub mod a3;
pub mod calibrate;
mod config;
pub mod decode;
pub mod elsa;
mod hook;
mod lowrank;
pub mod metrics;
pub mod oracle;

pub use config::{DetectorConfig, SelectionStrategy};
pub use hook::{oracle_selection, DotaHook, DotaInferenceHook, DotaTrainingHook};
pub use lowrank::LowRankDetector;
