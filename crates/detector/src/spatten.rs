//! SpAtten baseline: cascade token pruning (paper §6.2).
//!
//! SpAtten (Wang et al., HPCA 2021) prunes *whole tokens* (rows **and**
//! columns of the attention matrix) cumulatively across layers, based on
//! each token's accumulated attention received. The paper's criticism:
//! token-granular, structured sparsity "is not flexible enough to capture
//! the irregularly distributed attention connections" — a token that is
//! unimportant to most queries but critical to one gets removed.
//!
//! This module implements the cascade mechanism as an
//! [`InferenceHook`]-compatible selector so the Fig. 11-style accuracy
//! comparison can include it: at layer `l`, only the tokens that survived
//! layers `0..l` participate, and the survivor set shrinks by the
//! configured schedule.

use dota_autograd::ParamSet;
use dota_tensor::lanes::Lanes;
use dota_tensor::{ops, topk, Matrix};
use dota_transformer::{InferenceHook, Model, TransformerParams};
use std::sync::Mutex;

/// Cascade token pruning configured like SpAtten.
#[derive(Debug)]
pub struct SpattenHook {
    wq: Vec<Matrix>,
    wk: Vec<Matrix>,
    n_heads: usize,
    n_layers: usize,
    head_dim: usize,
    /// Fraction of tokens surviving after the final layer.
    final_keep: f64,
    /// Cache of the survivor set per sequence (keyed by the layer-0 input's
    /// fingerprint), since `select` is called per (layer, head). A mutex —
    /// not a `RefCell` — because the parallel per-head fan-out calls
    /// `select` from worker threads.
    state: Mutex<CascadeState>,
}

#[derive(Debug, Default)]
struct CascadeState {
    fingerprint: u64,
    survivors_per_layer: Vec<Vec<u32>>,
}

impl SpattenHook {
    /// Builds the hook from a model's weights. `final_keep` is the fraction
    /// of tokens still attended in the last layer (pruning interpolates
    /// linearly from 100% at layer 0).
    ///
    /// # Panics
    ///
    /// Panics if `final_keep` is not in `(0, 1]`.
    pub fn from_model(model: &Model, params: &ParamSet, final_keep: f64) -> Self {
        assert!(
            final_keep > 0.0 && final_keep <= 1.0,
            "final_keep {final_keep} must be in (0, 1]"
        );
        let tp: &TransformerParams = model.params();
        Self {
            wq: tp
                .layers
                .iter()
                .map(|l| params.value(l.wq).clone())
                .collect(),
            wk: tp
                .layers
                .iter()
                .map(|l| params.value(l.wk).clone())
                .collect(),
            n_heads: model.config().n_heads,
            n_layers: model.config().n_layers,
            head_dim: model.config().head_dim(),
            final_keep,
            state: Mutex::new(CascadeState::default()),
        }
    }

    /// Tokens kept at layer `l` for a sequence of length `n` (linear
    /// schedule from `n` at layer 0 down to `final_keep·n` at the last
    /// layer).
    pub fn keep_at_layer(&self, layer: usize, n: usize) -> usize {
        if self.n_layers <= 1 {
            return ((self.final_keep * n as f64).round() as usize).clamp(1, n);
        }
        let frac = 1.0 - (1.0 - self.final_keep) * (layer as f64 / (self.n_layers - 1) as f64);
        ((frac * n as f64).round() as usize).clamp(1, n)
    }

    /// Computes the cascade for one sequence: at each layer, rank tokens by
    /// total attention probability received (summed over heads and
    /// queries), keep the top `keep_at_layer`, and carry the survivor set
    /// forward. Uses the layer-0 input as a proxy for all layers' inputs
    /// (SpAtten's ranking is also computed from live attention).
    fn cascade(&self, x: &Matrix) -> Vec<Vec<u32>> {
        let n = x.rows();
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let lanes = Lanes::active();
        let mut survivors: Vec<u32> = (0..n as u32).collect();
        let mut per_layer = Vec::with_capacity(self.n_layers);
        for l in 0..self.n_layers {
            let keep = self.keep_at_layer(l, n).min(survivors.len());
            if keep < survivors.len() {
                // Importance = attention received, accumulated over heads,
                // restricted to current survivors.
                let mut importance = vec![0.0f32; survivors.len()];
                let q = x.matmul(&self.wq[l]).expect("shape");
                let k = x.matmul(&self.wk[l]).expect("shape");
                for h in 0..self.n_heads {
                    let (c0, c1) = (h * self.head_dim, (h + 1) * self.head_dim);
                    let qh = q.slice_cols(c0, c1);
                    let kh = k.slice_cols(c0, c1);
                    for &qi in &survivors {
                        let mut row: Vec<f32> = survivors
                            .iter()
                            .map(|&kj| {
                                Matrix::dot(qh.row(qi as usize), kh.row(kj as usize)) * scale
                            })
                            .collect();
                        ops::softmax_slice(lanes, &mut row);
                        for (slot, &p) in row.iter().enumerate() {
                            importance[slot] += p;
                        }
                    }
                }
                let top = topk::top_k_indices(&importance, keep);
                let mut next: Vec<u32> = top.into_iter().map(|i| survivors[i]).collect();
                next.sort_unstable();
                survivors = next;
            }
            per_layer.push(survivors.clone());
        }
        per_layer
    }

    fn fingerprint(x: &Matrix) -> u64 {
        // Cheap content hash of the layer input to detect a new sequence.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &v in x.as_slice().iter().step_by(17) {
            h = (h ^ v.to_bits() as u64).wrapping_mul(0x1000_0000_01b3);
        }
        h ^ (x.rows() as u64)
    }
}

impl InferenceHook for SpattenHook {
    fn select(&self, layer: usize, _head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
        // The hook receives each layer's own input; the cascade must be
        // computed once per sequence from the first layer's input. The
        // fingerprint check makes the computation idempotent, so the heads
        // of layer 0 may call in (and race to populate) any order.
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if layer == 0 {
            let fp = Self::fingerprint(x);
            if state.fingerprint != fp || state.survivors_per_layer.is_empty() {
                state.fingerprint = fp;
                state.survivors_per_layer = self.cascade(x);
            }
        }
        let survivors = state
            .survivors_per_layer
            .get(layer)
            .cloned()
            .unwrap_or_else(|| (0..x.rows() as u32).collect());
        // Structured sparsity: every query row attends exactly to the
        // survivor columns (pruned rows still produce output from the
        // survivors — SpAtten removes them from subsequent layers entirely;
        // keeping the rows is the closest mask-compatible rendering).
        Some(vec![survivors; x.rows()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_transformer::TransformerConfig;

    fn model() -> (Model, ParamSet) {
        let mut params = ParamSet::new();
        let m = Model::init(TransformerConfig::tiny(16, 12, 2), &mut params, 41);
        (m, params)
    }

    #[test]
    fn schedule_interpolates() {
        let (m, params) = model();
        let hook = SpattenHook::from_model(&m, &params, 0.5);
        assert_eq!(hook.keep_at_layer(0, 16), 16);
        assert_eq!(hook.keep_at_layer(1, 16), 8);
    }

    #[test]
    fn cascade_is_nested() {
        let (m, params) = model();
        let hook = SpattenHook::from_model(&m, &params, 0.25);
        let ids = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let xs = dota_detector_layer_inputs(&m, &params, &ids);
        let per_layer = hook.cascade(&xs[0]);
        assert_eq!(per_layer.len(), 2);
        // Later survivor sets are subsets of earlier ones.
        let l1: std::collections::HashSet<u32> = per_layer[1].iter().copied().collect();
        let l0: std::collections::HashSet<u32> = per_layer[0].iter().copied().collect();
        assert!(l1.is_subset(&l0));
        assert_eq!(per_layer[1].len(), 2); // 25% of 8
    }

    fn dota_detector_layer_inputs(m: &Model, params: &ParamSet, ids: &[usize]) -> Vec<Matrix> {
        crate::metrics::layer_inputs(m, params, ids)
    }

    #[test]
    fn hook_reduces_retention_structurally() {
        let (m, params) = model();
        let hook = SpattenHook::from_model(&m, &params, 0.25);
        let ids = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let trace = m.infer(&params, &ids, &hook);
        assert!(trace.retention() < 1.0);
        // Structured: within a layer/head, every query selects the SAME
        // column set.
        let head = &trace.layers[1].heads[0];
        let sel = head.selected.as_ref().unwrap();
        for row in sel.iter().skip(1) {
            assert_eq!(row, &sel[0], "SpAtten masks must be column-structured");
        }
    }

    #[test]
    fn full_keep_is_dense_equivalent() {
        let (m, params) = model();
        let hook = SpattenHook::from_model(&m, &params, 1.0);
        let ids = vec![1, 2, 3, 4, 5];
        let dense = m.infer(&params, &ids, &dota_transformer::NoHook);
        let pruned = m.infer(&params, &ids, &hook);
        assert!(dense.logits.approx_eq(&pruned.logits, 1e-5));
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn rejects_bad_keep() {
        let (m, params) = model();
        let _ = SpattenHook::from_model(&m, &params, 0.0);
    }
}
