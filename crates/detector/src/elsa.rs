//! ELSA baseline: sign-random-projection attention approximation.
//!
//! ELSA (Ham et al., ISCA 2021 — paper §6.2) estimates the angle between a
//! query and a key from the Hamming distance of their *sign random
//! projections*: `h(x) = sign(x R)` for a fixed Gaussian/sign matrix `R`.
//! With `b` hash bits, `angle(q, k) ≈ π · hamming(h(q), h(k)) / b`, so the
//! approximate attention score is `‖k‖ · cos(θ̂)` (the query norm is
//! constant within a row and does not affect ranking).
//!
//! Unlike DOTA's detector, this approximation (a) operates on the *exact*
//! Q/K — so the projections `X W_Q`, `X W_K` cannot be skipped — and (b) is
//! training-free, so the model cannot adapt to its errors. Both limitations
//! are what the paper's comparison quantifies.

use dota_autograd::ParamSet;
use dota_tensor::cos::cos_f32;
use dota_tensor::rng::SeededRng;
use dota_tensor::{topk, Matrix};
use dota_transformer::{InferenceHook, Model, TransformerParams};

/// Sign-random-projection hasher for one head dimension.
#[derive(Debug, Clone)]
pub struct SignHasher {
    r: Matrix,
}

impl SignHasher {
    /// Creates a hasher projecting `dim`-dimensional vectors to `bits` sign
    /// bits.
    pub fn new(dim: usize, bits: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        Self {
            r: rng.normal_matrix(dim, bits, 1.0),
        }
    }

    /// Number of hash bits.
    pub fn bits(&self) -> usize {
        self.r.cols()
    }

    /// Hashes every row of `x` to a sign bit vector.
    pub(crate) fn hash_rows(&self, x: &Matrix) -> Vec<Vec<bool>> {
        let proj = x.matmul(&self.r).expect("hash projection shape");
        proj.rows_iter()
            .map(|row| row.iter().map(|&v| v >= 0.0).collect())
            .collect()
    }

    /// Estimated cosine of the angle between two hashed vectors.
    pub(crate) fn cos_estimate(a: &[bool], b: &[bool]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let ham = a.iter().zip(b).filter(|(x, y)| x != y).count();
        let theta = std::f32::consts::PI * ham as f32 / a.len() as f32;
        cos_f32(theta)
    }
}

/// ELSA-style approximate score matrix for one head: entry `(i, j)` is
/// `‖k_j‖ · cos(θ̂(q_i, k_j))`.
pub(crate) fn elsa_scores(hasher: &SignHasher, q: &Matrix, k: &Matrix) -> Matrix {
    let qh = hasher.hash_rows(q);
    let kh = hasher.hash_rows(k);
    let k_norms: Vec<f32> = (0..k.rows())
        .map(|j| k.row(j).iter().map(|v| v * v).sum::<f32>().sqrt())
        .collect();
    Matrix::from_fn(q.rows(), k.rows(), |i, j| {
        k_norms[j] * SignHasher::cos_estimate(&qh[i], &kh[j])
    })
}

/// ELSA as an [`InferenceHook`]: computes each head's Q/K from the layer
/// input using the model's own projection weights (the cost ELSA cannot
/// avoid), hashes them, and keeps the top-k per row.
#[derive(Debug)]
pub struct ElsaHook {
    wq: Vec<Matrix>,
    wk: Vec<Matrix>,
    n_heads: usize,
    head_dim: usize,
    hasher: SignHasher,
    retention: f64,
}

impl ElsaHook {
    /// Builds the hook from a model's current weights.
    ///
    /// `bits` is the hash length (ELSA's accuracy knob); `retention` the
    /// kept fraction per row.
    ///
    /// # Panics
    ///
    /// Panics if `retention` is not in `(0, 1]`.
    pub fn from_model(
        model: &Model,
        params: &ParamSet,
        bits: usize,
        retention: f64,
        seed: u64,
    ) -> Self {
        assert!(
            retention > 0.0 && retention <= 1.0,
            "retention {retention} must be in (0, 1]"
        );
        let tp: &TransformerParams = model.params();
        let wq = tp
            .layers
            .iter()
            .map(|l| params.value(l.wq).clone())
            .collect();
        let wk = tp
            .layers
            .iter()
            .map(|l| params.value(l.wk).clone())
            .collect();
        Self {
            wq,
            wk,
            n_heads: model.config().n_heads,
            head_dim: model.config().head_dim(),
            hasher: SignHasher::new(model.config().head_dim(), bits, seed),
            retention,
        }
    }

    /// Keys kept per row for sequence length `n`.
    pub fn keys_per_row(&self, n: usize) -> usize {
        ((self.retention * n as f64).round() as usize).clamp(1, n)
    }
}

impl InferenceHook for ElsaHook {
    fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
        assert!(head < self.n_heads, "head index out of range");
        let q = x.matmul(&self.wq[layer]).expect("shape");
        let k = x.matmul(&self.wk[layer]).expect("shape");
        let (c0, c1) = (head * self.head_dim, (head + 1) * self.head_dim);
        let qh = q.slice_cols(c0, c1);
        let kh = k.slice_cols(c0, c1);
        let scores = elsa_scores(&self.hasher, &qh, &kh);
        let kpr = self.keys_per_row(x.rows());
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
    use dota_transformer::TransformerConfig;

    #[test]
    fn cos_estimate_extremes() {
        let a = vec![true, true, false, false];
        assert!((SignHasher::cos_estimate(&a, &a) - 1.0).abs() < 1e-6);
        let b: Vec<bool> = a.iter().map(|x| !x).collect();
        assert!((SignHasher::cos_estimate(&a, &b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn hash_is_deterministic() {
        let h = SignHasher::new(8, 32, 1);
        let mut rng = SeededRng::new(2);
        let x = rng.normal_matrix(4, 8, 1.0);
        assert_eq!(h.hash_rows(&x), h.hash_rows(&x));
    }

    #[test]
    fn angle_estimate_improves_with_bits() {
        let mut rng = SeededRng::new(3);
        let dim = 16;
        let q = rng.normal_matrix(20, dim, 1.0);
        let k = rng.normal_matrix(20, dim, 1.0);
        let exact = q.matmul_nt(&k).unwrap();
        let sel_exact = topk::top_k_rows(&exact, 5);
        let recall_with = |bits: usize| {
            let hasher = SignHasher::new(dim, bits, 7);
            let approx = elsa_scores(&hasher, &q, &k);
            topk::selection_recall(&sel_exact, &topk::top_k_rows(&approx, 5))
        };
        let r8 = recall_with(8);
        let r128 = recall_with(128);
        assert!(r128 > r8, "bits 128 ({r128}) should beat 8 ({r8})");
        assert!(r128 > 0.6, "128-bit recall {r128}");
    }

    #[test]
    fn hook_produces_balanced_selection() {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 1);
        let hook = ElsaHook::from_model(&model, &params, 64, 0.25, 5);
        let trace = model.infer(&params, &[1, 2, 3, 4, 5, 6, 7, 0], &hook);
        assert!((trace.retention() - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn rejects_bad_retention() {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 1);
        let _ = ElsaHook::from_model(&model, &params, 64, 0.0, 5);
    }
}
