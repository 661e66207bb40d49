//! The DOTA detector in decoder mode (paper §4.4).
//!
//! During autoregressive decoding the query is a single row, and the
//! detector's job becomes: estimate the new token's scores against the
//! *cached* keys and keep the strongest `retention · t`. The low-rank
//! estimate makes this cheap — the detector caches each step's projected
//! key sketch `k̃ = x P W̃_K` (rank-k per head instead of `hd`), so a
//! decode step costs `O(t · k)` estimate work instead of the `O(t · hd)`
//! exact scores it prunes.

use crate::{DetectorConfig, DotaHook};
use dota_autograd::ParamSet;
use dota_tensor::{topk, Matrix};
use dota_transformer::DecodeSelector;
use std::cell::RefCell;

/// Per-(layer, head) cache of projected key sketches.
#[derive(Debug, Default)]
struct SketchCache {
    /// `k̃` rows accumulated so far, per layer, per head.
    keys: Vec<Vec<Matrix>>,
    /// Positions cached (equal across layers/heads once a step completes).
    len: usize,
}

/// A [`DecodeSelector`] driven by the trained DOTA detector.
///
/// Holds its own sketch cache; create one per generation and feed every
/// decode step through it (steps must be issued in order, all layers/heads
/// per step, exactly as [`Model::decode_step`](dota_transformer::Model::decode_step)
/// does).
#[derive(Debug)]
pub struct DotaDecodeSelector<'a> {
    hook: &'a DotaHook,
    params: &'a ParamSet,
    cfg: DetectorConfig,
    n_heads: usize,
    cache: RefCell<SketchCache>,
}

impl<'a> DotaDecodeSelector<'a> {
    /// Creates a selector over a trained detector bank for a model with
    /// `n_layers` × `n_heads` heads.
    pub fn new(hook: &'a DotaHook, params: &'a ParamSet, n_layers: usize, n_heads: usize) -> Self {
        Self {
            hook,
            params,
            cfg: hook.config().clone(),
            n_heads,
            cache: RefCell::new(SketchCache {
                keys: (0..n_layers)
                    .map(|l| {
                        (0..n_heads)
                            .map(|h| Matrix::zeros(0, hook.detector(l, h).rank()))
                            .collect()
                    })
                    .collect(),
                len: 0,
            }),
        }
    }

    /// Number of cached positions.
    pub fn cached(&self) -> usize {
        self.cache.borrow().len
    }
}

impl DecodeSelector for DotaDecodeSelector<'_> {
    fn select(&self, layer: usize, head: usize, x: &Matrix, cache_len: usize) -> Option<Vec<u32>> {
        assert!(head < self.n_heads, "head index out of range");
        let det = self.hook.detector(layer, head);
        // Project the current row once: xp is 1 x rank.
        let xp = x.matmul(det.projection()).expect("projection shape");
        let k_row = xp.matmul(self.params.value(det.wk_tilde())).expect("shape");
        let q_row = xp.matmul(self.params.value(det.wq_tilde())).expect("shape");

        // Append this step's key sketch in place (the model appends its
        // K/V before calling attention, so cache_len already includes the
        // new row).
        let mut cache = self.cache.borrow_mut();
        if layer == 0 && head == 0 {
            cache.len = cache_len;
        }
        let sketches = &mut cache.keys[layer][head];
        sketches.push_row(k_row.row(0));
        debug_assert_eq!(sketches.rows(), cache_len);

        // Estimated scores of the new query against every cached key: one
        // exact ascending-k dot per sketch row, no operand packed or copied.
        let q = q_row.row(0);
        let scores: Vec<f32> = sketches.rows_iter().map(|k| Matrix::dot(q, k)).collect();
        let keep = ((self.cfg.retention_for_layer(layer) * cache_len as f64).round() as usize)
            .clamp(1, cache_len);
        Some(
            topk::top_k_indices(&scores, keep)
                .into_iter()
                .map(|i| i as u32)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_transformer::{DenseDecode, Model, TransformerConfig};

    fn setup() -> (Model, ParamSet, DotaHook) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny_causal(16, 8), &mut params, 23);
        let hook = DotaHook::init(
            DetectorConfig::new(0.5).with_sigma(0.5),
            model.config(),
            &mut params,
        );
        (model, params, hook)
    }

    #[test]
    fn selector_limits_attended_connections() {
        let (model, params, hook) = setup();
        let selector = DotaDecodeSelector::new(
            &hook,
            &params,
            model.config().n_layers,
            model.config().n_heads,
        );
        let prompt = [1usize, 3, 5, 2, 7, 4];
        let dense = model.generate(&params, &prompt, 4, &DenseDecode);
        // Fresh selector for a fresh generation.
        let selector2 = DotaDecodeSelector::new(
            &hook,
            &params,
            model.config().n_layers,
            model.config().n_heads,
        );
        drop(selector);
        let sparse = model.generate(&params, &prompt, 4, &selector2);
        let d: u64 = dense.attended_per_token.iter().sum();
        let s: u64 = sparse.attended_per_token.iter().sum();
        assert!(s < d, "detector decode should attend less: {s} vs {d}");
        assert_eq!(sparse.tokens.len(), 4);
    }

    #[test]
    fn sketch_cache_tracks_positions() {
        let (model, params, hook) = setup();
        let selector = DotaDecodeSelector::new(
            &hook,
            &params,
            model.config().n_layers,
            model.config().n_heads,
        );
        let mut cache =
            dota_transformer::KvCache::new(model.config().n_layers, model.config().d_model);
        for (i, &t) in [1usize, 2, 3].iter().enumerate() {
            let _ = model.decode_step(&params, &mut cache, t, &selector);
            assert_eq!(selector.cached(), i + 1);
        }
    }
}
