//! Analytic FLOPs breakdown of a Transformer encoder (paper Fig. 3).
//!
//! The paper's motivating observation is that the *parameter-free* attention
//! GEMMs (`Q K^T` and `A V`, quadratic in sequence length) dominate as
//! sequences grow, while the parameterized GEMMs (QKV projections, output
//! projection, FFN) only grow linearly. These functions count both, plus the
//! detector's estimation overhead, so that Figures 3 and 12 can be produced
//! analytically for paper-scale models.

use crate::TransformerConfig;
use dota_tensor::flops as tf;

/// FLOPs of one encoder layer, split by stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerFlops {
    /// Parameterized linear transformations: QKV + output projection.
    pub linear: u64,
    /// Parameter-free attention: `Q K^T`, softmax, `A V`.
    pub attention: u64,
    /// Feed-forward network (two FC layers + GELU).
    pub ffn: u64,
    /// Detector overhead: projection, low-rank transforms, estimated scores.
    pub detection: u64,
}

impl LayerFlops {
    /// Total FLOPs of the layer.
    pub fn total(&self) -> u64 {
        self.linear + self.attention + self.ffn + self.detection
    }

    /// Attention share of the layer's work, in `[0, 1]`.
    pub fn attention_fraction(&self) -> f64 {
        self.attention as f64 / self.total().max(1) as f64
    }
}

/// FLOPs of one encoder layer at sequence length `n` with dense attention.
pub fn dense_layer_flops(cfg: &TransformerConfig, n: usize) -> LayerFlops {
    sparse_layer_flops(cfg, n, 1.0, 0.0)
}

/// FLOPs of one encoder layer at sequence length `n`, keeping `retention`
/// of attention connections, with a detector of dimension-reduction factor
/// `sigma` (0 disables detection accounting).
///
/// # Panics
///
/// Panics if `retention` is outside `[0, 1]` or `sigma` outside `[0, 1]`.
pub(crate) fn sparse_layer_flops(
    cfg: &TransformerConfig,
    n: usize,
    retention: f64,
    sigma: f64,
) -> LayerFlops {
    assert!((0.0..=1.0).contains(&retention), "retention out of range");
    assert!((0.0..=1.0).contains(&sigma), "sigma out of range");
    let d = cfg.d_model;
    let hd = cfg.head_dim();
    let heads = cfg.n_heads as u64;

    // Linear transformation stage: X(Wq|Wk|Wv) and output projection.
    let linear = 3 * tf::gemm_flops(n, d, d) + tf::gemm_flops(n, d, d);

    // Attention stage per head over the kept connections.
    let kept = (retention * (n as f64) * (n as f64)).round() as u64;
    let attention = heads * (tf::sparse_attention_flops(kept, hd) + 5 * kept) // scores+agg+softmax
        ;

    // FFN stage.
    let ffn = tf::gemm_flops(n, d, cfg.d_ff)
        + tf::gemm_flops(n, cfg.d_ff, d)
        + tf::gelu_flops(n, cfg.d_ff);

    // Detection: project X (n x d -> n x k), two low-rank transforms
    // (k x k), and the estimated score GEMM (n x k x n), per head.
    let detection = if sigma > 0.0 {
        let k = ((hd as f64) * sigma).floor().max(1.0) as usize;
        let project = tf::gemm_flops(n, d, k);
        let transforms = 2 * tf::gemm_flops(n, k, k);
        let est_scores = tf::gemm_flops(n, k, n);
        heads * (project + transforms + est_scores)
    } else {
        0
    };

    LayerFlops {
        linear,
        attention,
        ffn,
        detection,
    }
}

/// One row of the Figure 3 sweep: sequence length and the attention /
/// other split of normalized FLOPs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Row {
    /// Sequence length.
    pub seq_len: usize,
    /// Fraction of FLOPs spent in attention.
    pub attention_fraction: f64,
    /// Fraction of FLOPs spent elsewhere (linear + FFN).
    pub other_fraction: f64,
}

/// Reproduces the Figure 3 sweep for a model shape across sequence lengths.
pub fn fig3_sweep(cfg: &TransformerConfig, seq_lens: &[usize]) -> Vec<Fig3Row> {
    seq_lens
        .iter()
        .map(|&n| {
            let f = dense_layer_flops(cfg, n);
            let attn = f.attention_fraction();
            Fig3Row {
                seq_len: n,
                attention_fraction: attn,
                other_fraction: 1.0 - attn,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_dominates_at_long_sequences() {
        // Figure 3: attention is a minority at 384 and the clear bottleneck
        // by 16K for BERT-large.
        let cfg = TransformerConfig::bert_large(16_384);
        let short = dense_layer_flops(&cfg, 384).attention_fraction();
        let long = dense_layer_flops(&cfg, 16_384).attention_fraction();
        assert!(short < 0.25, "at 384: {short}");
        assert!(long > 0.70, "at 16K: {long}");
    }

    #[test]
    fn fig3_fractions_sum_to_one_and_grow() {
        let cfg = TransformerConfig::bert_large(16_384);
        let rows = fig3_sweep(&cfg, &[384, 512, 1024, 2048, 4096, 8192, 16_384]);
        let mut prev = 0.0;
        for row in &rows {
            assert!((row.attention_fraction + row.other_fraction - 1.0).abs() < 1e-12);
            assert!(row.attention_fraction > prev, "monotone growth");
            prev = row.attention_fraction;
        }
    }

    #[test]
    fn sparse_attention_scales_with_retention() {
        let cfg = TransformerConfig::lra(2048, 2);
        let dense = dense_layer_flops(&cfg, 2048);
        let sparse = sparse_layer_flops(&cfg, 2048, 0.1, 0.0);
        let ratio = dense.attention as f64 / sparse.attention as f64;
        assert!((ratio - 10.0).abs() < 0.5, "ratio {ratio}");
        assert_eq!(dense.linear, sparse.linear);
        assert_eq!(dense.ffn, sparse.ffn);
    }

    #[test]
    fn detection_overhead_is_small() {
        // The paper reports detection at a fraction of a percent of
        // end-to-end work (Fig. 12c discussion).
        let cfg = TransformerConfig::lra(2048, 2);
        let f = sparse_layer_flops(&cfg, 2048, 0.1, 0.2);
        let frac = f.detection as f64 / f.total() as f64;
        assert!(frac < 0.15, "detection fraction {frac}");
        assert!(f.detection > 0);
    }

    #[test]
    #[should_panic(expected = "retention out of range")]
    fn rejects_bad_retention() {
        let cfg = TransformerConfig::tiny(64, 16, 2);
        let _ = sparse_layer_flops(&cfg, 64, 1.5, 0.0);
    }
}
