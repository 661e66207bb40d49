//! Oracle and random selection references.
//!
//! Table 1 of the paper motivates detection by applying *post-hoc* row-wise
//! top-k to the exact attention weights of a trained model — an oracle no
//! real system can afford (it must compute the full `Q K^T` it is trying to
//! avoid). [`OracleHook`] reproduces that experiment; [`RandomHook`] is the
//! sanity floor (random selection at the same retention).

use dota_autograd::ParamSet;
use dota_tensor::rng::SeededRng;
use dota_tensor::{topk, Matrix};
use dota_transformer::{InferenceHook, Model, TransformerParams};

/// Post-hoc exact top-k selection (Table 1's "retention" rows).
#[derive(Debug)]
pub struct OracleHook {
    wq: Vec<Matrix>,
    wk: Vec<Matrix>,
    n_heads: usize,
    head_dim: usize,
    retention: f64,
}

impl OracleHook {
    /// Builds the oracle from the model's current weights.
    ///
    /// # Panics
    ///
    /// Panics if `retention` is not in `(0, 1]`.
    pub fn from_model(model: &Model, params: &ParamSet, retention: f64) -> Self {
        assert!(
            retention > 0.0 && retention <= 1.0,
            "retention {retention} must be in (0, 1]"
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
            head_dim: model.config().head_dim(),
            retention,
        }
    }
}

impl InferenceHook for OracleHook {
    fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
        assert!(head < self.n_heads, "head index out of range");
        let q = x.matmul(&self.wq[layer]).expect("shape");
        let k = x.matmul(&self.wk[layer]).expect("shape");
        let (c0, c1) = (head * self.head_dim, (head + 1) * self.head_dim);
        let scores = q
            .slice_cols(c0, c1)
            .matmul_nt(&k.slice_cols(c0, c1))
            .expect("shape");
        let kpr = topk::keep_count(self.retention, x.rows());
        Some(
            topk::top_k_rows(&scores, kpr)
                .into_iter()
                .map(|row| row.into_iter().map(|i| i as u32).collect())
                .collect(),
        )
    }
}

/// Uniform random selection at a fixed retention — the floor any detector
/// must beat.
///
/// The random stream is derived per `(layer, head)` from the base seed, so
/// the selection for a head depends only on its identity and the input —
/// never on how many heads were queried before it. That keeps results
/// identical whether heads run serially or on the `parallel` fan-out.
#[derive(Debug)]
pub struct RandomHook {
    retention: f64,
    seed: u64,
}

impl RandomHook {
    /// Creates a random selector.
    ///
    /// # Panics
    ///
    /// Panics if `retention` is not in `(0, 1]`.
    pub fn new(retention: f64, seed: u64) -> Self {
        assert!(
            retention > 0.0 && retention <= 1.0,
            "retention {retention} must be in (0, 1]"
        );
        Self { retention, seed }
    }
}

impl InferenceHook for RandomHook {
    fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
        let n = x.rows();
        let kpr = topk::keep_count(self.retention, n);
        let mut rng = SeededRng::new(
            self.seed
                .wrapping_add(layer as u64 * 0x9E37_79B9_7F4A_7C15)
                .wrapping_add(head as u64 * 0xD1B5_4A32_D192_ED03),
        );
        Some(
            (0..n)
                .map(|_| {
                    rng.sample_indices(n, kpr)
                        .into_iter()
                        .map(|i| i as u32)
                        .collect()
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_transformer::TransformerConfig;

    fn model() -> (Model, ParamSet) {
        let mut params = ParamSet::new();
        let m = Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 3);
        (m, params)
    }

    #[test]
    fn oracle_retention_is_exact() {
        let (m, params) = model();
        let hook = OracleHook::from_model(&m, &params, 0.5);
        let trace = m.infer(&params, &[1, 2, 3, 4, 5, 6], &hook);
        assert!((trace.retention() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn oracle_at_full_retention_matches_dense() {
        let (m, params) = model();
        let ids = vec![1, 2, 3, 4, 5];
        let dense = m.infer(&params, &ids, &dota_transformer::NoHook);
        let oracle = OracleHook::from_model(&m, &params, 1.0);
        let sparse = m.infer(&params, &ids, &oracle);
        assert!(dense.logits.approx_eq(&sparse.logits, 1e-5));
    }

    #[test]
    fn random_hook_selects_distinct_indices() {
        let hook = RandomHook::new(0.5, 1);
        let x = Matrix::zeros(8, 4);
        let sel = hook.select(0, 0, &x).unwrap();
        assert_eq!(sel.len(), 8);
        for row in &sel {
            assert_eq!(row.len(), 4);
            let mut sorted = row.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "duplicate indices in {row:?}");
        }
    }

    /// Sum of dense softmax attention mass covered by `sel` for head `head`
    /// of layer 0, given the layer input `x`.
    fn retained_mass(
        m: &Model,
        params: &ParamSet,
        x: &Matrix,
        sel: &[Vec<u32>],
        head: usize,
    ) -> f32 {
        let tp: &TransformerParams = m.params();
        let q = x.matmul(params.value(tp.layers[0].wq)).unwrap();
        let k = x.matmul(params.value(tp.layers[0].wk)).unwrap();
        let hd = m.config().head_dim();
        let (c0, c1) = (head * hd, (head + 1) * hd);
        let scores = q
            .slice_cols(c0, c1)
            .matmul_nt(&k.slice_cols(c0, c1))
            .unwrap()
            .scale(1.0 / (hd as f32).sqrt());
        let weights = dota_tensor::ops::softmax_rows(&scores);
        sel.iter()
            .enumerate()
            .map(|(i, row)| row.iter().map(|&j| weights[(i, j as usize)]).sum::<f32>())
            .sum()
    }

    #[test]
    fn oracle_retains_more_attention_mass_than_random() {
        // Table 1's motivation: the exact top-k oracle keeps the
        // highest-weight connections, so at equal retention it covers more
        // of the dense softmax mass than random selection. (Logit drift is
        // NOT a sound proxy at this scale: on an *untrained* model top-k
        // consistently herds every query onto the same few high-norm keys,
        // perturbing logits more than unbiased random picks — mass coverage
        // is the quantity the paper's claim is actually about.)
        let (m, params) = model();
        let mut rng = SeededRng::new(17);
        let oracle = OracleHook::from_model(&m, &params, 0.25);
        let seeds = [9u64, 10, 11, 12, 13];
        for head in 0..m.config().n_heads {
            let x = rng.normal_matrix(8, m.config().d_model, 1.0);
            let sel_o = oracle.select(0, head, &x).unwrap();
            let mass_o = retained_mass(&m, &params, &x, &sel_o, head);
            let mass_r = seeds
                .iter()
                .map(|&s| {
                    let sel_r = RandomHook::new(0.25, s).select(0, head, &x).unwrap();
                    retained_mass(&m, &params, &x, &sel_r, head)
                })
                .sum::<f32>()
                / seeds.len() as f32;
            assert!(
                mass_o > mass_r,
                "head {head}: oracle mass {mass_o} vs mean random mass {mass_r}"
            );
        }
    }
}
