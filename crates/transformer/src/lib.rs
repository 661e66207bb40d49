//! A from-scratch Transformer with trainable and inference-only paths.
//!
//! This crate supplies the *model* half of DOTA's co-design (paper §2.1):
//! stacked encoder blocks of linear transformation → multi-head attention →
//! feed-forward network, with residual connections and layer norm, plus a
//! GPT-style causal variant for language modeling.
//!
//! Two forward paths are provided:
//!
//! * [`Model::forward`] builds the computation on a `dota-autograd`
//!   [`Graph`](dota_autograd::Graph) so the model can be trained — including
//!   *jointly* with an attention detector through the [`AttentionHook`]
//!   mechanism, which lets an external component observe each head's
//!   attention scores, contribute an auxiliary loss (the paper's `L_MSE`,
//!   Eq. 5) and impose a sparse attention mask (§3.2 model adaptation);
//! * [`Model::infer`] is a pure-`f32` forward that records a
//!   [`ForwardTrace`] of per-head Q/K/V and selected attention indices,
//!   which the accelerator simulator replays cycle by cycle.
//!
//! The [`flops`] module reproduces the analytic operation-count breakdown of
//! the paper's Figure 3.

#![deny(missing_docs)]

mod config;
pub mod flops;
mod generate;
mod hooks;
mod infer;
mod model;
mod params;
mod selector;

pub use config::{Pooling, TransformerConfig, MAX_SEQ_LEN};
pub use generate::{
    DecodeItem, DecodeScratch, DecodeSelector, DecodedRows, DecodedView, DenseDecode, Generation,
    KvCache,
};
pub use hooks::{AttentionHook, HookOutcome, NoHook};
pub use infer::{ForwardTrace, HeadTrace, InferError, InferenceHook, LayerTrace};
pub use model::{MaskStat, Model, TrainOutput};
pub use params::TransformerParams;
pub use selector::WindowSelector;
