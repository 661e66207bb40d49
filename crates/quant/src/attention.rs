//! The accelerator's fixed-point attention datapath (paper §4.1).
//!
//! On DOTA hardware the important-attention computation runs in FX16:
//!
//! 1. `Q`, `K`, `V` are FX16 tensors in SRAM;
//! 2. `Q·Kᵀ` accumulates in a wide PSUM register (no intermediate
//!    rounding — Fig. 7b) and is **dequantized to floating point before
//!    softmax** "to avoid overflow during the computation", with scaling
//!    factors held in the global SRAM buffer;
//! 3. exponent and division run in the MFU's floating-point units;
//! 4. the softmax result is **quantized again** so the `A·V` product stays
//!    in fixed point.
//!
//! [`fx16_sparse_attention`] reproduces that pipeline bit-by-bit over a
//! detected selection, so the numeric drift of the hardware path relative
//! to the f32 reference can be measured (the tests bound it).

use crate::{Fx16, Precision, Quantizer};
use dota_tensor::lanes::Lanes;
use dota_tensor::{ops, Matrix};

/// A matrix of FX16 values plus the scale used to produce them (real value
/// = `fx.to_f32() * scale`), mirroring an SRAM-resident activation tile.
#[derive(Debug, Clone)]
pub struct Fx16Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Fx16>,
    scale: f32,
}

impl Fx16Matrix {
    /// Quantizes a real-valued matrix into FX16 with a per-matrix scale
    /// chosen so the largest magnitude maps near the top of the Q6.10
    /// range (the MFU Quantizer's policy).
    pub fn quantize(m: &Matrix) -> Self {
        let abs_max = m.abs_max();
        // Target 30.0 of the ~32 representable magnitude for headroom.
        let scale = if abs_max > 0.0 { abs_max / 30.0 } else { 1.0 };
        let data = m.iter().map(|&x| Fx16::from_f32(x / scale)).collect();
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data,
            scale,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The dequantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Row `r` as a slice of FX16 values.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[Fx16] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reconstructs the real-valued matrix.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data
                .iter()
                .map(|fx| fx.to_f32() * self.scale)
                .collect(),
        )
        .expect("consistent dims")
    }

    /// Wide-accumulator dot product of row `r` with another matrix's row
    /// (the PE MAC loop of Fig. 7b), returned as a real value.
    ///
    /// # Panics
    ///
    /// Panics if widths differ or indices are out of bounds.
    pub(crate) fn dot_rows(&self, r: usize, other: &Fx16Matrix, o: usize) -> f32 {
        assert_eq!(self.cols, other.cols, "width mismatch");
        let mut acc: i64 = 0;
        for (a, b) in self.row(r).iter().zip(other.row(o)) {
            acc = a.mac(*b, acc);
        }
        // acc holds the product in 2*FRAC fractional bits; undo both
        // quantization scales.
        let raw = acc as f32 / (1u64 << (2 * crate::fixed::FX16_FRAC_BITS)) as f32;
        raw * self.scale * other.scale
    }
}

/// Sparse attention over a detected selection, executed on the modeled
/// FX16 datapath: FX16 `q·k` scores with wide accumulation, f32 softmax
/// (the MFU), re-quantized weights, FX16 aggregation of `V`.
///
/// # Panics
///
/// Panics if shapes disagree or a selected index is out of bounds.
pub fn fx16_sparse_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    selected: &[Vec<u32>],
    scale: f32,
) -> Matrix {
    assert_eq!(q.cols(), k.cols(), "q/k width mismatch");
    assert_eq!(k.rows(), v.rows(), "k/v length mismatch");
    assert_eq!(selected.len(), q.rows(), "one selection per query");
    let qf = Fx16Matrix::quantize(q);
    let kf = Fx16Matrix::quantize(k);
    let vf = Fx16Matrix::quantize(v);
    // The MFU re-quantizes softmax outputs (probabilities in [0,1]) at a
    // fixed scale so A·V stays in fixed point.
    let prob_quant = Quantizer::symmetric(Precision::Fx16);
    let lanes = Lanes::active();

    let mut out = Matrix::zeros(q.rows(), v.cols());
    for (i, sel) in selected.iter().enumerate() {
        if sel.is_empty() {
            continue;
        }
        // 1-2: FX16 scores, dequantized (already f32 after dot_rows).
        let mut weights: Vec<f32> = sel
            .iter()
            .map(|&j| {
                assert!((j as usize) < k.rows(), "key index {j} out of bounds");
                qf.dot_rows(i, &kf, j as usize) * scale
            })
            .collect();
        // 3: f32 softmax in the MFU.
        ops::softmax_slice(lanes, &mut weights);
        // 4: quantize probabilities back to fixed point.
        let w_mat = Matrix::from_vec(1, weights.len(), weights.clone()).expect("row");
        let w_q = prob_quant.quantize_with_scale(&w_mat, 1.0 / 32767.0);
        // FX16 aggregation with a wide accumulator per output element:
        // acc = Σ code_w · raw_v, where code_w carries 1/32767 probability
        // per unit and raw_v carries vf.scale()/2^FRAC real value per unit.
        let orow = out.row_mut(i);
        let out_scale = vf.scale() / (32767.0 * (1u32 << crate::fixed::FX16_FRAC_BITS) as f32);
        for c in 0..v.cols() {
            let mut acc: i64 = 0;
            for (slot, &j) in sel.iter().enumerate() {
                let w_fx = Fx16::from_raw(w_q.code(0, slot) as i16);
                let v_fx = vf.row(j as usize)[c];
                acc = w_fx.mac(v_fx, acc);
            }
            orow[c] = acc as f32 * out_scale;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_tensor::rng::SeededRng;
    use dota_tensor::topk;

    fn setup(n: usize, hd: usize, k: usize) -> (Matrix, Matrix, Matrix, Vec<Vec<u32>>, f32) {
        let mut rng = SeededRng::new(21);
        let q = rng.normal_matrix(n, hd, 1.0);
        let kk = rng.normal_matrix(n, hd, 1.0);
        let v = rng.normal_matrix(n, hd, 1.0);
        let scale = 1.0 / (hd as f32).sqrt();
        let scores = q.matmul_nt(&kk).unwrap().scale(scale);
        let sel: Vec<Vec<u32>> = topk::top_k_rows(&scores, k)
            .into_iter()
            .map(|r| r.into_iter().map(|i| i as u32).collect())
            .collect();
        (q, kk, v, sel, scale)
    }

    #[test]
    fn fx16_matrix_round_trip() {
        let mut rng = SeededRng::new(1);
        let m = rng.normal_matrix(8, 8, 2.0);
        let fx = Fx16Matrix::quantize(&m);
        let back = fx.dequantize();
        let tol = fx.scale() * crate::Fx16::epsilon() * 1.5 + 1e-6;
        assert!(m.sub(&back).unwrap().abs_max() <= tol.max(0.01));
    }

    #[test]
    fn wide_dot_close_to_f32() {
        let mut rng = SeededRng::new(2);
        let a = rng.normal_matrix(4, 64, 1.0);
        let b = rng.normal_matrix(4, 64, 1.0);
        let fa = Fx16Matrix::quantize(&a);
        let fb = Fx16Matrix::quantize(&b);
        for i in 0..4 {
            for j in 0..4 {
                let exact = Matrix::dot(a.row(i), b.row(j));
                let fx = fa.dot_rows(i, &fb, j);
                assert!((exact - fx).abs() < 0.15, "({i},{j}): {exact} vs {fx}");
            }
        }
    }

    #[test]
    fn fx16_attention_tracks_f32_reference() {
        let (q, k, v, sel, scale) = setup(16, 32, 4);
        let reference = dota_tensor::ops::sparse_attention(&q, &k, &v, &sel, scale);
        let fx = fx16_sparse_attention(&q, &k, &v, &sel, scale);
        let err = reference.sub(&fx).unwrap().abs_max();
        // The paper's FX16 path is accuracy-neutral; drift stays well under
        // the activation scale.
        assert!(err < 0.05, "fx16 drift {err}");
    }

    #[test]
    fn fx16_attention_empty_rows_zero() {
        let (q, k, v, mut sel, scale) = setup(4, 8, 2);
        sel[2].clear();
        let fx = fx16_sparse_attention(&q, &k, &v, &sel, scale);
        assert!(fx.row(2).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn drift_small_relative_to_pruning_effect() {
        // Quantization error must be far below the signal the detector
        // preserves: compare fx16-vs-f32 drift against sparse-vs-dense
        // difference.
        let (q, k, v, sel, scale) = setup(16, 32, 2);
        let dense_sel: Vec<Vec<u32>> = (0..16).map(|_| (0..16u32).collect()).collect();
        let dense = dota_tensor::ops::sparse_attention(&q, &k, &v, &dense_sel, scale);
        let sparse = dota_tensor::ops::sparse_attention(&q, &k, &v, &sel, scale);
        let fx = fx16_sparse_attention(&q, &k, &v, &sel, scale);
        let prune_effect = dense.sub(&sparse).unwrap().frobenius_norm();
        let quant_drift = sparse.sub(&fx).unwrap().frobenius_norm();
        assert!(
            quant_drift < prune_effect / 5.0,
            "quant drift {quant_drift} vs prune effect {prune_effect}"
        );
    }
}
