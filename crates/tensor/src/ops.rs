//! Neural-network primitives: softmax, layer normalization, activations.
//!
//! These are the non-GEMM operations of a Transformer encoder (paper §2.1):
//! the row-wise softmax of Eq. 2, the residual + layer-norm that follows
//! multi-head attention and the FFN, and the GELU used between the FFN's two
//! fully-connected layers.

use crate::tanh::tanh_f32;
use crate::Matrix;

pub use crate::tanh::{gelu_slice, tanh_slice};

/// Row-wise numerically-stable softmax (Eq. 2 of the paper).
///
/// Each row is shifted by its maximum before exponentiation so that large
/// attention scores cannot overflow.
///
/// # Example
///
/// ```
/// # use dota_tensor::{Matrix, ops};
/// let s = Matrix::from_rows(&[&[0.0, 0.0]]).unwrap();
/// let a = ops::softmax_rows(&s);
/// assert!((a[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(scores: &Matrix) -> Matrix {
    let mut out = scores.clone();
    for r in 0..out.rows() {
        softmax_slice(out.row_mut(r));
    }
    out
}

/// Numerically-stable softmax over a single slice, in place.
pub fn softmax_slice(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        // All entries are -inf (fully masked row): define the output as
        // uniform zero rather than NaN so downstream aggregation is a no-op.
        row.fill(0.0);
        return;
    }
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Row-wise softmax with a binary mask: positions where `mask` is `false`
/// receive zero probability, and the remaining probabilities renormalize.
///
/// This reproduces the paper's observation (§3.2) that omitting weak
/// attention scores *scales up* the surviving attention weights because the
/// softmax denominator shrinks.
///
/// # Panics
///
/// Panics if `mask` dimensions disagree with `scores`.
pub fn masked_softmax_rows(scores: &Matrix, mask: &[Vec<bool>]) -> Matrix {
    assert_eq!(mask.len(), scores.rows(), "mask row count mismatch");
    let mut out = scores.clone();
    for r in 0..out.rows() {
        let mrow = &mask[r];
        assert_eq!(mrow.len(), scores.cols(), "mask col count mismatch");
        let row = out.row_mut(r);
        for (x, &keep) in row.iter_mut().zip(mrow) {
            if !keep {
                *x = f32::NEG_INFINITY;
            }
        }
        softmax_slice(row);
    }
    out
}

/// Layer normalization over each row with learnable `gamma` and `beta`.
///
/// # Panics
///
/// Panics if `gamma` or `beta` lengths differ from `x.cols()`.
pub fn layer_norm(x: &Matrix, gamma: &[f32], beta: &[f32], eps: f32) -> Matrix {
    assert_eq!(gamma.len(), x.cols(), "gamma length mismatch");
    assert_eq!(beta.len(), x.cols(), "beta length mismatch");
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let n = row.len() as f32;
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv_std = 1.0 / (var + eps).sqrt();
        for (i, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * inv_std * gamma[i] + beta[i];
        }
    }
    out
}

/// GELU activation (tanh approximation), element-wise: [`gelu_slice`] on
/// a copy.
pub fn gelu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    gelu_slice(out.as_mut_slice());
    out
}

/// `sqrt(2/π)` and the cubic coefficient of the tanh-form GELU; the lane
/// kernel multiplies by the same two values.
pub(crate) const SQRT_2_OVER_PI: f32 = 0.797_884_6;
pub(crate) const GELU_CUBIC: f32 = 0.044_715;

/// GELU on a single value (tanh approximation) — the one-element
/// definition: [`gelu_slice`] computes exactly these operations in this
/// order per element, through the repo's own [`tanh_f32`].
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_f32(SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)))
}

/// ReLU activation, element-wise.
pub fn relu(x: &Matrix) -> Matrix {
    x.map(|v| v.max(0.0))
}

/// Adds a bias row vector to every row of `x`.
///
/// # Panics
///
/// Panics if `bias.len() != x.cols()`.
pub fn add_bias(x: &Matrix, bias: &[f32]) -> Matrix {
    let mut out = x.clone();
    add_bias_in_place(&mut out, bias);
    out
}

/// [`add_bias`] into `x` itself.
///
/// # Panics
///
/// Panics if `bias.len() != x.cols()`.
pub fn add_bias_in_place(x: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), x.cols(), "bias length mismatch");
    for r in 0..x.rows() {
        for (v, b) in x.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Mean squared error between two equally-shaped matrices
/// (`L_MSE` of Eq. 5, without the batch normalizer).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "mse shape mismatch");
    let n = a.len().max(1) as f32;
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        / n
}

/// Row-wise argmax: the index of the largest element of each row.
pub fn argmax_rows(x: &Matrix) -> Vec<usize> {
    x.rows_iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let s = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]).unwrap();
        let a = softmax_rows(&s);
        for r in 0..2 {
            let sum: f32 = a.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone: larger score -> larger probability.
        assert!(a[(0, 2)] > a[(0, 1)] && a[(0, 1)] > a[(0, 0)]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let s = Matrix::from_rows(&[&[1e30, 1e30]]).unwrap();
        let a = softmax_rows(&s);
        assert!((a[(0, 0)] - 0.5).abs() < 1e-6);
        assert!(a.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn masked_softmax_zeros_masked_positions() {
        let s = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let mask = vec![vec![true, false, true]];
        let a = masked_softmax_rows(&s, &mask);
        assert_eq!(a[(0, 1)], 0.0);
        let sum: f32 = a.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        // Surviving weights scale up relative to unmasked softmax (§3.2).
        let dense = softmax_rows(&s);
        assert!(a[(0, 2)] > dense[(0, 2)]);
    }

    #[test]
    fn masked_softmax_fully_masked_row_is_zero() {
        let s = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let mask = vec![vec![false, false]];
        let a = masked_softmax_rows(&s, &mask);
        assert_eq!(a.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]).unwrap();
        let gamma = vec![1.0; 4];
        let beta = vec![0.0; 4];
        let y = layer_norm(&x, &gamma, &beta, 1e-5);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y.row(0).iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_gamma_beta_applied() {
        let x = Matrix::from_rows(&[&[1.0, -1.0]]).unwrap();
        let y = layer_norm(&x, &[2.0, 2.0], &[10.0, 10.0], 1e-5);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 2.0;
        assert!((mean - 10.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_known_points() {
        assert!(gelu_scalar(0.0).abs() < 1e-7);
        assert!((gelu_scalar(1.0) - 0.841_192).abs() < 1e-3);
        assert!(gelu_scalar(-10.0).abs() < 1e-3);
        let m = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
        let g = gelu(&m);
        assert!((g[(0, 1)] - gelu_scalar(1.0)).abs() < 1e-7);
    }

    #[test]
    fn relu_clamps_negatives() {
        let m = Matrix::from_rows(&[&[-1.0, 2.0]]).unwrap();
        assert_eq!(relu(&m).row(0), &[0.0, 2.0]);
    }

    #[test]
    fn add_bias_broadcasts() {
        let x = Matrix::zeros(3, 2);
        let y = add_bias(&x, &[1.0, 2.0]);
        for r in 0..3 {
            assert_eq!(y.row(r), &[1.0, 2.0]);
        }
    }

    #[test]
    fn mse_basics() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 2.0]]).unwrap();
        assert!((mse(&a, &b) - 2.0).abs() < 1e-6);
        assert_eq!(mse(&a, &a), 0.0);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let m = Matrix::from_rows(&[&[0.1, 0.9], &[5.0, -1.0]]).unwrap();
        assert_eq!(argmax_rows(&m), vec![1, 0]);
    }
}

/// Scaled scores `q·K[j]·scale` of the keys `k.row(j)[c0..c0 + q.len()]`,
/// `j` over `sel`: each one ascending-`k` chain from zero, the arithmetic
/// of [`Matrix::dot`].
fn selected_scores(q: &[f32], k: &Matrix, c0: usize, sel: &[u32], scale: f32) -> Vec<f32> {
    let key = |j: u32| &k.row(j as usize)[c0..c0 + q.len()];
    let mut scores = Vec::with_capacity(sel.len());
    // Four keys per pass: a lone chain waits out the add latency at every
    // step, four independent ones keep the adder busy. Order *within* a
    // chain is what the bits depend on, and that is untouched.
    let mut groups = sel.chunks_exact(4);
    for g in &mut groups {
        let keys = q
            .iter()
            .zip(key(g[0]))
            .zip(key(g[1]))
            .zip(key(g[2]))
            .zip(key(g[3]));
        let mut acc = [0.0f32; 4];
        for ((((&qk, &k0), &k1), &k2), &k3) in keys {
            acc[0] += qk * k0;
            acc[1] += qk * k1;
            acc[2] += qk * k2;
            acc[3] += qk * k3;
        }
        scores.extend(acc.iter().map(|a| a * scale));
    }
    let rest = groups.remainder().iter();
    scores.extend(rest.map(|&j| Matrix::dot(q, key(j)) * scale));
    scores
}

/// One query row of attention over the selected keys: scores
/// `q·K[j]·scale` for every `j` of `sel`, softmaxes them, and accumulates
/// `w_j·V[j]` into `out` in `sel` order — `O(sel)` work, nothing per
/// unselected key. Keys and values are read in place as the column windows
/// `k.row(j)[c0..c0 + q.len()]` and `v.row(j)[c0..c0 + out.len()]`, so one
/// head of a `t x d_model` cache needs no per-head copy.
///
/// Every score is one ascending-`k` chain from zero and every output
/// element one chain in `sel` order: for an ascending `sel` that is bitwise
/// what [`masked_softmax_rows`] followed by a GEMM computes, whose masked
/// terms only ever add `+0.0`.
///
/// # Panics
///
/// Panics if an index of `sel` is out of bounds or a window exceeds the
/// matrix width.
pub fn attend_row(
    q: &[f32],
    k: &Matrix,
    v: &Matrix,
    c0: usize,
    sel: &[u32],
    scale: f32,
    out: &mut [f32],
) {
    let mut weights = selected_scores(q, k, c0, sel, scale);
    softmax_slice(&mut weights);
    for (&j, &w) in sel.iter().zip(&weights) {
        let v_row = &v.row(j as usize)[c0..c0 + out.len()];
        for (o, &vv) in out.iter_mut().zip(v_row) {
            *o += w * vv;
        }
    }
}

/// Sparse attention output: for each query row `i`, computes softmax over
/// only the selected key indices and aggregates the corresponding value
/// rows — without materializing the full `n x n` score matrix. This is the
/// numeric twin of the accelerator's detected-graph computation (`O(kept)`
/// instead of `O(n²)` work).
///
/// `selected[i]` lists the key indices query `i` attends to; an empty row
/// yields a zero output row (matching [`masked_softmax_rows`] on a fully
/// masked row).
///
/// # Panics
///
/// Panics if shapes disagree, `selected.len() != q.rows()`, or an index is
/// out of bounds.
pub fn sparse_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    selected: &[Vec<u32>],
    scale: f32,
) -> Matrix {
    assert_eq!(q.cols(), k.cols(), "q/k width mismatch");
    assert_eq!(k.rows(), v.rows(), "k/v length mismatch");
    assert_eq!(selected.len(), q.rows(), "one selection per query");
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for (i, sel) in selected.iter().enumerate() {
        attend_row(q.row(i), k, v, 0, sel, scale, out.row_mut(i));
    }
    out
}

#[cfg(test)]
mod sparse_tests {
    use super::*;
    use crate::rng::SeededRng;
    use crate::topk;

    #[test]
    fn sparse_attention_matches_masked_dense() {
        let mut rng = SeededRng::new(5);
        let n = 12;
        let hd = 8;
        let q = rng.normal_matrix(n, hd, 1.0);
        let k = rng.normal_matrix(n, hd, 1.0);
        let v = rng.normal_matrix(n, hd, 1.0);
        let scale = 1.0 / (hd as f32).sqrt();
        let scores = q.matmul_nt(&k).unwrap().scale(scale);
        let sel_idx = topk::top_k_rows(&scores, 3);
        let mask = topk::indices_to_mask(&sel_idx, n);
        let dense = masked_softmax_rows(&scores, &mask).matmul(&v).unwrap();
        let selected: Vec<Vec<u32>> = sel_idx
            .iter()
            .map(|r| r.iter().map(|&i| i as u32).collect())
            .collect();
        let sparse = sparse_attention(&q, &k, &v, &selected, scale);
        assert!(sparse.approx_eq(&dense, 1e-4), "sparse/dense mismatch");
    }

    #[test]
    fn empty_selection_yields_zero_row() {
        let q = Matrix::filled(2, 4, 1.0);
        let k = Matrix::filled(3, 4, 1.0);
        let v = Matrix::filled(3, 4, 2.0);
        let sel = vec![vec![], vec![0u32]];
        let out = sparse_attention(&q, &k, &v, &sel, 1.0);
        assert_eq!(out.row(0), &[0.0; 4]);
        assert_eq!(out.row(1), &[2.0; 4]);
    }

    #[test]
    fn full_selection_matches_dense_softmax() {
        let mut rng = SeededRng::new(6);
        let q = rng.normal_matrix(6, 4, 1.0);
        let k = rng.normal_matrix(6, 4, 1.0);
        let v = rng.normal_matrix(6, 4, 1.0);
        let sel: Vec<Vec<u32>> = (0..6).map(|_| (0..6u32).collect()).collect();
        let sparse = sparse_attention(&q, &k, &v, &sel, 0.5);
        let dense = softmax_rows(&q.matmul_nt(&k).unwrap().scale(0.5))
            .matmul(&v)
            .unwrap();
        assert!(sparse.approx_eq(&dense, 1e-4));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sparse_attention_checks_indices() {
        let q = Matrix::zeros(1, 2);
        let k = Matrix::zeros(2, 2);
        let v = Matrix::zeros(2, 2);
        let _ = sparse_attention(&q, &k, &v, &[vec![9]], 1.0);
    }
}

#[cfg(test)]
mod sparse_properties {
    use super::*;
    use crate::rng::SeededRng;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The sparse attention kernel agrees with masked-dense attention
        /// for arbitrary selections.
        #[test]
        fn sparse_equals_masked_dense(
            seed in 0u64..1000,
            n in 2usize..10,
            hd in 1usize..6,
            k in 1usize..6,
        ) {
            let k = k.min(n);
            let mut rng = SeededRng::new(seed);
            let q = rng.normal_matrix(n, hd, 1.0);
            let kk = rng.normal_matrix(n, hd, 1.0);
            let v = rng.normal_matrix(n, hd, 1.0);
            let sel: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    rng.sample_indices(n, k)
                        .into_iter()
                        .map(|i| i as u32)
                        .collect()
                })
                .collect();
            let mask: Vec<Vec<bool>> = sel
                .iter()
                .map(|row| {
                    let mut m = vec![false; n];
                    for &j in row {
                        m[j as usize] = true;
                    }
                    m
                })
                .collect();
            let scale = 1.0 / (hd as f32).sqrt();
            let scores = q.matmul_nt(&kk).unwrap().scale(scale);
            let dense = masked_softmax_rows(&scores, &mask).matmul(&v).unwrap();
            let sparse = sparse_attention(&q, &kk, &v, &sel, scale);
            prop_assert!(sparse.approx_eq(&dense, 1e-3));
        }
    }
}
