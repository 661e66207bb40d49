//! A3 baseline: sorted-dimension approximate attention (paper §6.2).
//!
//! A3 (Ham et al., HPCA 2020) approximates attention scores by consuming
//! only the largest-magnitude components of each query: key columns are
//! pre-sorted per dimension (the preprocessing the paper criticizes as
//! "outside the accelerator"), and the score of `(q, k)` is estimated from
//! the `m` dimensions where `|q|` is largest. The approximation is
//! training-free, so like ELSA the model cannot adapt to its errors.

use dota_autograd::ParamSet;
use dota_tensor::{topk, Matrix};
use dota_transformer::{InferenceHook, Model, TransformerParams};

/// Approximate score matrix using only each query's `m` largest-|q|
/// dimensions.
///
/// # Panics
///
/// Panics if `m == 0` or `m > q.cols()` or shapes disagree.
pub(crate) fn a3_scores(q: &Matrix, k: &Matrix, m: usize) -> Matrix {
    assert!(m > 0 && m <= q.cols(), "m {m} out of range");
    assert_eq!(q.cols(), k.cols(), "head dims disagree");
    let mut out = Matrix::zeros(q.rows(), k.rows());
    for i in 0..q.rows() {
        let qrow = q.row(i);
        // Dimensions where |q_i| is largest carry most of the dot product.
        let mags: Vec<f32> = qrow.iter().map(|v| v.abs()).collect();
        let dims = topk::top_k_indices(&mags, m);
        for j in 0..k.rows() {
            let krow = k.row(j);
            let mut acc = 0.0;
            for &d in &dims {
                acc += qrow[d] * krow[d];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// A3 as an [`InferenceHook`]: recomputes Q/K per layer from the model's
/// weights, estimates scores over the strongest query dimensions and keeps
/// the top-k per row.
#[derive(Debug)]
pub struct A3Hook {
    wq: Vec<Matrix>,
    wk: Vec<Matrix>,
    n_heads: usize,
    head_dim: usize,
    dims_used: usize,
    retention: f64,
}

impl A3Hook {
    /// Builds the hook from a model's current weights, using `dims_used`
    /// query dimensions per score.
    ///
    /// # Panics
    ///
    /// Panics if `retention` is not in `(0, 1]` or `dims_used` exceeds the
    /// head dimension.
    pub fn from_model(model: &Model, params: &ParamSet, dims_used: usize, retention: f64) -> Self {
        assert!(
            retention > 0.0 && retention <= 1.0,
            "retention {retention} must be in (0, 1]"
        );
        let hd = model.config().head_dim();
        assert!(dims_used > 0 && dims_used <= hd, "dims_used out of range");
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
            head_dim: hd,
            dims_used,
            retention,
        }
    }
}

impl InferenceHook for A3Hook {
    fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
        assert!(head < self.n_heads, "head index out of range");
        let q = x.matmul(&self.wq[layer]).expect("shape");
        let k = x.matmul(&self.wk[layer]).expect("shape");
        let (c0, c1) = (head * self.head_dim, (head + 1) * self.head_dim);
        let scores = a3_scores(&q.slice_cols(c0, c1), &k.slice_cols(c0, c1), self.dims_used);
        let n = x.rows();
        let kpr = topk::keep_count(self.retention, n);
        Some(
            topk::top_k_rows(&scores, kpr)
                .into_iter()
                .map(|row| row.into_iter().map(|i| i as u32).collect())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_tensor::rng::SeededRng;
    use dota_transformer::TransformerConfig;

    #[test]
    fn full_dims_recovers_exact_scores() {
        let mut rng = SeededRng::new(1);
        let q = rng.normal_matrix(5, 8, 1.0);
        let k = rng.normal_matrix(6, 8, 1.0);
        let exact = q.matmul_nt(&k).unwrap();
        let approx = a3_scores(&q, &k, 8);
        assert!(approx.approx_eq(&exact, 1e-5));
    }

    #[test]
    fn more_dims_rank_better() {
        let mut rng = SeededRng::new(2);
        let q = rng.normal_matrix(24, 32, 1.0);
        let k = rng.normal_matrix(24, 32, 1.0);
        let exact_sel = topk::top_k_rows(&q.matmul_nt(&k).unwrap(), 6);
        let recall_with = |m: usize| {
            topk::selection_recall(&exact_sel, &topk::top_k_rows(&a3_scores(&q, &k, m), 6))
        };
        let r4 = recall_with(4);
        let r24 = recall_with(24);
        assert!(r24 > r4, "24 dims ({r24}) should beat 4 ({r4})");
    }

    #[test]
    fn hook_selects_at_retention() {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 1);
        let hook = A3Hook::from_model(&model, &params, 8, 0.5);
        let trace = model.infer(&params, &[1, 2, 3, 4, 5, 6], &hook);
        assert!((trace.retention() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dims_used out of range")]
    fn rejects_too_many_dims() {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 1);
        let _ = A3Hook::from_model(&model, &params, 999, 0.5);
    }
}
