//! Neural-network primitives: softmax, layer normalization, activations.
//!
//! These are the non-GEMM operations of a Transformer encoder (paper §2.1):
//! the row-wise softmax of Eq. 2, the residual + layer-norm that follows
//! multi-head attention and the FFN, and the GELU used between the FFN's two
//! fully-connected layers.
//!
//! Softmax and the attention row kernel ([`attend_row`]) come as one
//! scalar definition and one AVX2 kernel that evaluates the same chain of
//! operations per lane, chosen by a [`Lanes`]; like GELU they have no
//! inexact flavour — their bits are equal under every `DOTA_GEMM` value.

use crate::exp;
use crate::lanes::Lanes;
use crate::pack::PoolBuf;
use crate::tanh::tanh_f32;
use crate::Matrix;

pub use crate::tanh::{gelu_slice, tanh_slice};

/// Numerically-stable softmax over a single slice, in place: every
/// element `exp_f32(x − max)` over their sum, the sum one chain from zero
/// in index order — the same bits on both bodies. A row without a finite
/// maximum (fully masked, or holding `+inf`) becomes all zeros rather than
/// NaN, so downstream aggregation is a no-op.
pub fn softmax_slice(lanes: Lanes, row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        row.fill(0.0);
        return;
    }
    exp::exp_sub(lanes, row, max);
    let mut sum = 0.0;
    for &x in row.iter() {
        sum += x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

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
    let lanes = Lanes::active();
    let mut out = scores.clone();
    for r in 0..out.rows() {
        softmax_slice(lanes, out.row_mut(r));
    }
    out
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
    let lanes = Lanes::active();
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
        softmax_slice(lanes, row);
    }
    out
}

/// Layer normalization over each row with learnable `gamma` and `beta`:
/// [`layer_norm_into`] into a new matrix.
///
/// # Panics
///
/// Panics if `gamma` or `beta` lengths differ from `x.cols()`.
pub fn layer_norm(x: &Matrix, gamma: &[f32], beta: &[f32], eps: f32) -> Matrix {
    let mut out = Matrix::default();
    layer_norm_into(x, gamma, beta, eps, &mut out);
    out
}

/// [`layer_norm`] into `out`, which takes `x`'s shape in the storage it
/// already has ([`Matrix::reuse_as`]).
///
/// # Panics
///
/// Panics if `gamma` or `beta` lengths differ from `x.cols()`.
pub fn layer_norm_into(x: &Matrix, gamma: &[f32], beta: &[f32], eps: f32, out: &mut Matrix) {
    assert_eq!(gamma.len(), x.cols(), "gamma length mismatch");
    assert_eq!(beta.len(), x.cols(), "beta length mismatch");
    out.reuse_as(x.rows(), x.cols());
    for (row, out) in x
        .rows_iter()
        .zip(out.as_mut_slice().chunks_exact_mut(x.cols().max(1)))
    {
        let n = row.len() as f32;
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv_std = 1.0 / (var + eps).sqrt();
        for (i, (o, v)) in out.iter_mut().zip(row).enumerate() {
            *o = (*v - mean) * inv_std * gamma[i] + beta[i];
        }
    }
}

/// GELU activation (tanh approximation), element-wise: [`gelu_slice`] on
/// a copy.
pub fn gelu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    gelu_slice(Lanes::active(), out.as_mut_slice());
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
    let mut out = Vec::with_capacity(x.rows());
    argmax_rows_into(x, &mut out);
    out
}

/// [`argmax_rows`] into `out`, which is cleared first.
pub fn argmax_rows_into(x: &Matrix, out: &mut Vec<usize>) {
    out.clear();
    out.extend(x.rows_iter().map(|row| {
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }));
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

/// What [`attend_row`] carries from row to row: the lanes, the score
/// scale, and the scratch the scores land in (pooled, so a steady state
/// allocates nothing per row — or per call).
pub struct Attend {
    lanes: Lanes,
    scale: f32,
    weights: PoolBuf,
}

impl Attend {
    /// State for rows scored as `q·K[j]·scale` on `lanes`. One per thread
    /// of rows: per [`sparse_attention`] call, per span of a
    /// [`crate::row_dispatch`] fan-out.
    pub fn new(lanes: Lanes, scale: f32) -> Self {
        Self {
            lanes,
            scale,
            weights: PoolBuf::take(0),
        }
    }
}

/// Scaled scores `q·K[j]·scale` of the keys `k.row(j)[c0..c0 + q.len()]`,
/// `j` over `sel`, into `scores`: each one ascending-`k` chain from zero,
/// the arithmetic of [`Matrix::dot`].
fn scores_scalar(q: &[f32], k: &Matrix, c0: usize, sel: &[u32], scale: f32, scores: &mut [f32]) {
    let key = |j: u32| &k.row(j as usize)[c0..c0 + q.len()];
    // Four keys per pass: a lone chain waits out the add latency at every
    // step, four independent ones keep the adder busy. Order *within* a
    // chain is what the bits depend on, and that is untouched.
    let mut groups = sel.chunks_exact(4);
    let mut outs = scores.chunks_exact_mut(4);
    for (g, out) in (&mut groups).zip(&mut outs) {
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
        for (o, a) in out.iter_mut().zip(acc) {
            *o = a * scale;
        }
    }
    for (o, &j) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
        *o = Matrix::dot(q, key(j)) * scale;
    }
}

/// `out[c] += w_j · V[j][c0 + c]` for `j` over `sel` in order: every output
/// element one chain in `sel` order.
fn accumulate_scalar(weights: &[f32], v: &Matrix, c0: usize, sel: &[u32], out: &mut [f32]) {
    for (&j, &w) in sel.iter().zip(weights) {
        let v_row = &v.row(j as usize)[c0..c0 + out.len()];
        for (o, &vv) in out.iter_mut().zip(v_row) {
            *o += w * vv;
        }
    }
}

/// One query row of attention over the selected keys: scores
/// `q·K[j]·scale` for every `j` of `sel`, softmaxes them, and accumulates
/// `w_j·V[j]` into `out` in `sel` order — `O(sel)` work, nothing per
/// unselected key. Keys and values are read in place as the column windows
/// `k.row(j)[c0..c0 + q.len()]` and `v.row(j)[c0..c0 + out.len()]`, so one
/// head of a `t x d_model` cache needs no per-head copy; `sel` may be in
/// any order and repeat keys.
///
/// Every score is one ascending-`k` chain from zero and every output
/// element one chain in `sel` order: for an ascending `sel` that is bitwise
/// what [`masked_softmax_rows`] followed by a GEMM computes, whose masked
/// terms only ever add `+0.0`. The lanes of `state`'s [`Lanes`] run
/// those same chains eight keys (scores) or eight columns (values) at a
/// time.
///
/// # Panics
///
/// Panics if an index of `sel` is out of bounds or a window exceeds the
/// matrix width.
pub fn attend_row(
    state: &mut Attend,
    q: &[f32],
    k: &Matrix,
    v: &Matrix,
    c0: usize,
    sel: &[u32],
    out: &mut [f32],
) {
    // Checked up front, for both bodies: the lanes slice whole blocks of
    // columns out of these rows.
    let last = sel.iter().fold(0, |m, &j| m.max(j)) as usize;
    assert!(
        sel.is_empty() || last < k.rows().min(v.rows()),
        "selected key {last} out of bounds ({} cached)",
        k.rows().min(v.rows())
    );
    assert!(
        c0 + q.len() <= k.cols() && c0 + out.len() <= v.cols(),
        "head window exceeds the matrix width"
    );
    #[cfg(target_arch = "x86_64")]
    if let Lanes::Avx2(_) = state.lanes {
        // SAFETY: the token proves AVX2 and FMA.
        unsafe { x86::attend_row(state, q, k, v, c0, sel, out) };
        return;
    }
    let Attend {
        lanes,
        scale,
        ref mut weights,
    } = *state;
    let weights = weights.resized(sel.len());
    scores_scalar(q, k, c0, sel, scale, weights);
    softmax_slice(lanes, weights);
    accumulate_scalar(weights, v, c0, sel, out);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Attend;
    use crate::lanes::{load, store, KeyRows};
    use crate::Matrix;
    use std::arch::x86_64::*;

    /// [`super::attend_row`] on eight lanes, its bounds already checked:
    /// [`scores`], the softmax on `state`'s lanes, then [`accumulate`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn attend_row(
        state: &mut Attend,
        q: &[f32],
        k: &Matrix,
        v: &Matrix,
        c0: usize,
        sel: &[u32],
        out: &mut [f32],
    ) {
        let Attend {
            lanes,
            scale,
            ref mut weights,
        } = *state;
        let weights = weights.resized(sel.len());
        scores(q, k, c0, sel, scale, weights);
        super::softmax_slice(lanes, weights);
        accumulate(weights, v, c0, sel, out);
    }

    /// The scores of `N` groups of eight keys into `out`: lane `i` of a
    /// group is key `i`'s ascending-`k` chain from `+0.0`, multiply then
    /// add (never fused), `· scale` last. The groups advance together, so
    /// `N` independent chains cover the add latency.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn group_scores<const N: usize>(
        q: &[[f32; 4]],
        keys: [KeyRows; N],
        scale: f32,
        out: &mut [[f32; 8]; N],
    ) {
        let mut acc = [_mm256_setzero_ps(); N];
        for (c, qc) in q.iter().enumerate() {
            let mut cols = [[_mm256_setzero_ps(); 4]; N];
            for (col, keys) in cols.iter_mut().zip(&keys) {
                *col = keys.columns(c);
            }
            for (j, &qj) in qc.iter().enumerate() {
                let qj = _mm256_set1_ps(qj);
                for (a, col) in acc.iter_mut().zip(&cols) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(qj, col[j]));
                }
            }
        }
        for (o, a) in out.iter_mut().zip(acc) {
            store(o, _mm256_mul_ps(a, _mm256_set1_ps(scale)));
        }
    }

    /// [`super::scores_scalar`], eight keys per register, two registers in
    /// flight ([`group_scores`]); a tail of fewer than eight keys, and head
    /// widths that are not a multiple of four, take the scalar chain.
    #[target_feature(enable = "avx2,fma")]
    fn scores(q: &[f32], k: &Matrix, c0: usize, sel: &[u32], scale: f32, scores: &mut [f32]) {
        let (q4, rest) = q.as_chunks::<4>();
        let lanes_end = if rest.is_empty() { sel.len() & !7 } else { 0 };
        let rows = |keys| KeyRows::new(k.as_slice(), k.cols(), c0, q.len(), keys);
        let (groups, _) = scores[..lanes_end].as_chunks_mut::<8>();
        let (out_pairs, out_single) = groups.as_chunks_mut::<2>();
        let (keys, _) = sel[..lanes_end].as_chunks::<8>();
        let (key_pairs, key_single) = keys.as_chunks::<2>();
        for (out, [a, b]) in out_pairs.iter_mut().zip(key_pairs) {
            group_scores(q4, [rows(a), rows(b)], scale, out);
        }
        if let ([out], [keys]) = (out_single, key_single) {
            group_scores(q4, [rows(keys)], scale, std::array::from_mut(out));
        }
        super::scores_scalar(q, k, c0, &sel[lanes_end..], scale, &mut scores[lanes_end..]);
    }

    /// `N` blocks of eight output columns held in `N` registers across the
    /// whole `sel` loop — loaded first, since the row kernel adds into its
    /// output, and stored once. Each lane is one output element's chain in
    /// `sel` order, multiply then add (never fused); `c0` is the first
    /// column of the blocks in the value rows.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn accumulate_columns<const N: usize>(
        weights: &[f32],
        v: &Matrix,
        c0: usize,
        sel: &[u32],
        out: &mut [[f32; 8]],
    ) {
        let mut acc = [_mm256_setzero_ps(); N];
        for (a, o) in acc.iter_mut().zip(&*out) {
            *a = load(o);
        }
        for (&j, &w) in sel.iter().zip(weights) {
            let (row, _) = v.as_slice()[j as usize * v.cols() + c0..][..8 * N].as_chunks::<8>();
            let w = _mm256_set1_ps(w);
            for (a, r) in acc.iter_mut().zip(row) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(w, load(r)));
            }
        }
        for (o, a) in out.iter_mut().zip(acc) {
            store(o, a);
        }
    }

    /// [`super::accumulate_scalar`], the output columns in registers
    /// ([`accumulate_columns`]): 32 at a time (one head of the mid model),
    /// then 16, then 8, the rest scalar.
    #[target_feature(enable = "avx2,fma")]
    fn accumulate(weights: &[f32], v: &Matrix, c0: usize, sel: &[u32], out: &mut [f32]) {
        let (blocks, _) = out.as_chunks_mut::<8>();
        let mut b = 0;
        while b + 4 <= blocks.len() {
            accumulate_columns::<4>(weights, v, c0 + 8 * b, sel, &mut blocks[b..b + 4]);
            b += 4;
        }
        if b + 2 <= blocks.len() {
            accumulate_columns::<2>(weights, v, c0 + 8 * b, sel, &mut blocks[b..b + 2]);
            b += 2;
        }
        if b < blocks.len() {
            accumulate_columns::<1>(weights, v, c0 + 8 * b, sel, &mut blocks[b..]);
            b += 1;
        }
        if 8 * b < out.len() {
            super::accumulate_scalar(weights, v, c0 + 8 * b, sel, &mut out[8 * b..]);
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
    let mut state = Attend::new(Lanes::active(), scale);
    for (i, sel) in selected.iter().enumerate() {
        attend_row(&mut state, q.row(i), k, v, 0, sel, out.row_mut(i));
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

#[cfg(test)]
mod row_kernel_tests {
    use super::*;
    use crate::exp::exp_f32;
    use crate::lanes::{bodies, same, with_lanes};
    use crate::rng::SeededRng;
    use proptest::prelude::*;

    /// Values softmax and the row kernel must carry through the lanes like
    /// the scalar bodies do, then an ordinary one.
    const PLANTS: [f32; 8] = [
        f32::NEG_INFINITY,
        f32::NAN,
        -150.0, // >= 104 below any maximum the tests use: exp underflows to +0
        1.0e-40,
        f32::INFINITY,
        -1.0e-39,
        -0.0,
        0.25,
    ];

    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(same(g, w), "{what}: {g:e} != {w:e} at {i}");
        }
    }

    /// Softmax as its element-wise expression through [`exp_f32`].
    fn softmax_expression(row: &[f32]) -> Vec<f32> {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if !max.is_finite() {
            return vec![0.0; row.len()];
        }
        let e: Vec<f32> = row.iter().map(|&x| exp_f32(x - max)).collect();
        let mut sum = 0.0;
        for &x in &e {
            sum += x;
        }
        if sum > 0.0 {
            e.iter().map(|x| x / sum).collect()
        } else {
            e
        }
    }

    #[test]
    fn softmax_slice_every_short_length_offset_and_planted_lane() {
        let mut rng = SeededRng::new(31);
        let base = rng.normal_matrix(1, 32, 3.0);
        for len in 0..=17 {
            for offset in 0..4 {
                for plant in PLANTS {
                    for at in 0..len.max(1) {
                        let mut buf = base.as_slice().to_vec();
                        if at < len {
                            buf[offset + at] = plant;
                        }
                        let input = buf[offset..offset + len].to_vec();
                        softmax_slice(Lanes::active(), &mut buf[offset..offset + len]);
                        let what = format!("len {len} offset {offset} plant {plant:e} at {at}");
                        assert_same(
                            &buf[offset..offset + len],
                            &softmax_expression(&input),
                            &what,
                        );
                        let mut scalar = input.clone();
                        softmax_slice(Lanes::Plain, &mut scalar);
                        assert_same(&buf[offset..offset + len], &scalar, &what);
                        // Nothing outside the slice is written.
                        assert_eq!(buf[..offset], base.as_slice()[..offset]);
                        assert_eq!(buf[offset + len..], base.as_slice()[offset + len..]);
                    }
                }
                // Fully masked.
                let mut masked = vec![f32::NEG_INFINITY; len];
                softmax_slice(Lanes::active(), &mut masked);
                assert!(masked.iter().all(|x| x.to_bits() == 0));
            }
        }
    }

    #[test]
    fn masked_rows_match_the_scalar_kernel_under_every_family() {
        let mut rng = SeededRng::new(32);
        let scores = rng.normal_matrix(9, 37, 2.0);
        let mask: Vec<Vec<bool>> = (0..9)
            .map(|r| {
                (0..37)
                    .map(|c| r != 4 && (rng.below(4) == 0 || c == r))
                    .collect()
            })
            .collect();
        let mut want = scores.clone();
        for (r, mrow) in mask.iter().enumerate() {
            for (x, &keep) in want.row_mut(r).iter_mut().zip(mrow) {
                if !keep {
                    *x = f32::NEG_INFINITY;
                }
            }
            softmax_slice(Lanes::Plain, want.row_mut(r));
        }
        for lanes in [Lanes::host(), Lanes::Plain] {
            let got = with_lanes(lanes, || masked_softmax_rows(&scores, &mask));
            assert_same(got.as_slice(), want.as_slice(), lanes.name());
        }
    }

    proptest! {
        /// The slice kernel is the scalar body element by element on both
        /// bodies: there is no inexact softmax.
        #[test]
        fn softmax_slice_matches_scalar_oracle(
            seed in 0u64..1 << 32,
            len in 0usize..70,
            std in 0usize..4,
            plants in proptest::collection::vec(0usize..70 * 8, 0..4),
        ) {
            let mut rng = SeededRng::new(seed);
            let mut input = rng.normal_matrix(1, len, [1e-3, 1.0, 8.0, 60.0][std]).as_slice().to_vec();
            for p in plants {
                if let Some(slot) = input.get_mut(p / 8) {
                    *slot = PLANTS[p % 8];
                }
            }
            let mut want = input.clone();
            softmax_slice(Lanes::Plain, &mut want);
            for lanes in bodies() {
                let mut got = input.clone();
                softmax_slice(lanes, &mut got);
                for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(same(g, w), "{lanes:?}: {g:e} != {w:e} at {i}");
                }
            }
        }

        /// The row kernel is the scalar body bit for bit on both bodies,
        /// whatever the head width, window offset, context,
        /// selection shape and operand values.
        #[test]
        fn attend_row_matches_scalar_oracle(
            seed in 0u64..1 << 32,
            hd in 1usize..41,
            context in 0usize..71,
            c0 in 0usize..10,
            sel_kind in 0usize..5,
            q_std in 0usize..3,
            plants in proptest::collection::vec(0usize..1 << 20, 0..4),
        ) {
            let mut rng = SeededRng::new(seed);
            let cols = c0 + hd + seed as usize % 3;
            // `q_std` 2 spreads the scores over far more than 104.
            let q = rng.normal_matrix(1, hd, [1.0, 6.0, 80.0][q_std]);
            let mut k = rng.normal_matrix(context, cols, 1.0);
            let mut v = rng.normal_matrix(context, cols, 1.0);
            for p in plants {
                let m = if p % 2 == 0 { &mut k } else { &mut v };
                let n = m.len();
                if let Some(slot) = m.as_mut_slice().get_mut((p / 16) % n.max(1)) {
                    *slot = PLANTS[(p / 2) % 8];
                }
            }
            let all: Vec<u32> = (0..context as u32).collect();
            let sel: Vec<u32> = match sel_kind {
                0 => all,
                // Ascending subset.
                1 => all.into_iter().filter(|_| rng.below(3) == 0).collect(),
                // Unsorted subset.
                2 => rng.sample_indices(context, context / 2).into_iter().map(|j| j as u32).collect(),
                // With repeats, possibly longer than the context.
                3 if context > 0 => (0..2 * context).map(|_| rng.below(context) as u32).collect(),
                _ => Vec::new(),
            };
            let filled = rng.normal_matrix(1, hd, 1.0);
            let scale = 1.0 / (hd as f32).sqrt();
            let run = |lanes: Lanes| {
                let mut out = filled.as_slice().to_vec();
                attend_row(&mut Attend::new(lanes, scale), q.row(0), &k, &v, c0, &sel, &mut out);
                out
            };
            let want = run(Lanes::Plain);
            for lanes in bodies() {
                let got = run(lanes);
                for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(
                        same(g, w),
                        "{lanes:?}: hd {hd} context {context} sel {sel_kind}: {g:e} != {w:e} at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn family_selects_the_row_kernel() {
        // Each `DOTA_GEMM` value this host accepts is the body the row
        // kernels run under it; `scalar` is the plain one.
        for value in ["scalar", "simd", "auto"] {
            if let Ok(lanes) = crate::lanes::parse_family(value) {
                assert_eq!(with_lanes(lanes, Lanes::active), lanes, "{value}");
            }
        }
        with_lanes(Lanes::Plain, || assert_eq!(Lanes::active(), Lanes::Plain));
    }

    #[test]
    #[should_panic(expected = "exceeds the matrix width")]
    fn attend_row_checks_the_window() {
        let (k, v) = (Matrix::zeros(2, 4), Matrix::zeros(2, 4));
        let mut out = [0.0; 2];
        let mut state = Attend::new(Lanes::active(), 1.0);
        attend_row(&mut state, &[0.0; 2], &k, &v, 3, &[0], &mut out);
    }
}
