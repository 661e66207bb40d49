use crate::{Int8Matrix, Precision};
use dota_tensor::lanes::Lanes;
use dota_tensor::{Matrix, ShapeError};

/// Symmetric linear quantizer for a chosen [`Precision`].
///
/// The detector quantizes `X`, `W̃Q` and `W̃K` before the low-rank
/// transformations (paper §3.1, §5.5): scores only need to *rank*
/// connections, so INT4 — and on some benchmarks INT2 — suffices. The
/// quantizer is symmetric (zero-point 0) with a per-matrix scale
/// `s = abs_max / qmax`, matching what the Multi-Function Unit's Quantizer
/// block computes.
///
/// # Example
///
/// ```
/// use dota_quant::{Precision, Quantizer};
/// use dota_tensor::Matrix;
///
/// let m = Matrix::from_fn(4, 4, |r, c| (r as f32 - c as f32) / 4.0);
/// let q = Quantizer::symmetric(Precision::Int4).quantize(&m);
/// assert_eq!(q.precision(), Precision::Int4);
/// assert!(q.dequantize().approx_eq(&m, q.scale()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    precision: Precision,
}

impl Quantizer {
    /// Creates a symmetric quantizer at the given precision.
    pub fn symmetric(precision: Precision) -> Self {
        Self { precision }
    }

    /// The target precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Quantizes a matrix, choosing the scale from its absolute maximum.
    ///
    /// An all-zero matrix quantizes with scale 1 so dequantization is exact,
    /// and so does any matrix whose derived scale is not a positive finite
    /// number — entries so small that `abs_max / qmax` underflows to zero
    /// (every code is 0 either way), or an infinite `abs_max`.
    pub fn quantize(&self, m: &Matrix) -> QuantizedMatrix {
        let scale = m.abs_max() / self.precision.qmax() as f32;
        let usable = scale > 0.0 && scale.is_finite();
        self.quantize_with_scale(m, if usable { scale } else { 1.0 })
    }

    /// Quantizes with an explicit scale (e.g. a calibrated activation scale
    /// held in the global SRAM buffer, §4.1). Values are clamped to the
    /// representable range.
    pub fn quantize_with_scale(&self, m: &Matrix, scale: f32) -> QuantizedMatrix {
        assert!(scale > 0.0, "scale must be positive");
        let qmin = self.precision.qmin();
        let qmax = self.precision.qmax();
        let data = m
            .iter()
            .map(|&x| ((x / scale).round() as i32).clamp(qmin, qmax))
            .collect();
        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            data,
            scale,
            precision: self.precision,
        }
    }
}

/// A quantized matrix: integer codes plus a scale factor.
///
/// Codes are stored as `i32` for simplicity; each value is guaranteed to lie
/// within the configured precision's representable range, which the
/// bit-fusion multiplier asserts when multiplying.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
    scale: f32,
    precision: Precision,
}

impl QuantizedMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantization scale (real value per integer step).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The precision the codes fit in.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Integer code at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn code(&self, r: usize, c: usize) -> i32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Row `r` of integer codes.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn code_row(&self, r: usize) -> &[i32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reconstructs the real-valued matrix (`code * scale`).
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&q| q as f32 * self.scale).collect(),
        )
        .expect("dimensions are consistent by construction")
    }

    /// Integer matrix product with transposed right operand:
    /// `self * other^T`, accumulated in `i64` and returned as a real-valued
    /// matrix scaled by both operands' scales.
    ///
    /// This is the detector's estimated-score kernel `S̃ = Q̃ K̃^T`
    /// executed on low-precision PE rows of the RMMU.
    ///
    /// When both operands fit `i8` codes and the depth is within the
    /// `i32`-safe bound, this routes through the SIMD-capable kernel in
    /// [`crate::qgemm`]; the result is bitwise identical (integer sums
    /// have one value, and the scaling expression is the same), so callers
    /// see only the speed.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when inner dimensions disagree.
    pub fn matmul_nt_dequant(&self, other: &QuantizedMatrix) -> Result<Matrix, ShapeError> {
        self.check_depth(other)?;
        if let Some((a, b)) = self.narrowed_with(other) {
            return a.matmul_nt_dequant(&b);
        }
        let mut data = Vec::with_capacity(self.rows * other.rows);
        for i in 0..self.rows {
            self.push_wide_score_row(i, other, &mut data);
        }
        Ok(Matrix::from_vec(self.rows, other.rows, data).expect("one row per row of self"))
    }

    /// [`matmul_nt_dequant`](Self::matmul_nt_dequant) as a stream of output
    /// rows: calls `f(i, scores)` for `i` ascending with the bits row `i`
    /// of the product matrix would hold, out of one reused row buffer — for
    /// callers that rank or threshold a row and never need the matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when inner dimensions disagree.
    pub fn for_each_score_row(
        &self,
        other: &QuantizedMatrix,
        mut f: impl FnMut(usize, &[f32]),
    ) -> Result<(), ShapeError> {
        self.check_depth(other)?;
        let mut scores = Vec::with_capacity(other.rows);
        if let Some((a, b)) = self.narrowed_with(other) {
            let out_scale = self.scale * other.scale;
            return a.for_each_acc_row(Lanes::active(), &b, |i, acc| {
                scores.clear();
                crate::qgemm::push_scaled(acc, out_scale, &mut scores);
                f(i, &scores);
            });
        }
        for i in 0..self.rows {
            scores.clear();
            self.push_wide_score_row(i, other, &mut scores);
            f(i, &scores);
        }
        Ok(())
    }

    fn check_depth(&self, other: &QuantizedMatrix) -> Result<(), ShapeError> {
        if self.cols == other.cols {
            return Ok(());
        }
        Err(ShapeError::new(
            "qmatmul_nt",
            (self.rows, self.cols),
            (other.rows, other.cols),
        ))
    }

    /// Both operands as `i8` codes, when the [`crate::qgemm`] kernel can
    /// take the product: codes of at most 8 bits and an `i32`-safe depth.
    pub fn narrowed_with(&self, other: &QuantizedMatrix) -> Option<(Int8Matrix, Int8Matrix)> {
        let fits = self.precision.bits() <= 8
            && other.precision.bits() <= 8
            && self.cols < crate::qgemm::I32_SAFE_K;
        fits.then(|| {
            (
                Int8Matrix::from_quantized(self),
                Int8Matrix::from_quantized(other),
            )
        })
    }

    /// Appends row `i` of `self · otherᵀ` from the wide codes, one `i64`
    /// sum per element: any precision, any depth.
    fn push_wide_score_row(&self, i: usize, other: &QuantizedMatrix, out: &mut Vec<f32>) {
        let out_scale = self.scale * other.scale;
        let a = self.code_row(i);
        out.extend((0..other.rows).map(|j| {
            let b = other.code_row(j);
            let acc: i64 = a.iter().zip(b).map(|(&x, &y)| x as i64 * y as i64).sum();
            acc as f32 * out_scale
        }));
    }

    /// Quantization signal-to-noise ratio in dB against a reference matrix.
    ///
    /// Useful for validating precision choices in design-space exploration
    /// (Fig. 14b).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sqnr_db(&self, reference: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            reference.shape(),
            "sqnr shape mismatch"
        );
        let deq = self.dequantize();
        let mut signal = 0.0f64;
        let mut noise = 0.0f64;
        for (x, y) in reference.iter().zip(deq.iter()) {
            signal += (*x as f64) * (*x as f64);
            noise += ((*x - *y) as f64) * ((*x - *y) as f64);
        }
        if noise == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (signal / noise).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_tensor::rng::SeededRng;

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let mut rng = SeededRng::new(1);
        let m = rng.normal_matrix(16, 16, 1.0);
        for p in Precision::ALL {
            let q = Quantizer::symmetric(p).quantize(&m);
            let back = q.dequantize();
            let max_err = m.sub(&back).unwrap().abs_max();
            assert!(max_err <= q.scale() / 2.0 + 1e-6, "{p}: err {max_err}");
        }
    }

    #[test]
    fn zero_matrix_quantizes_exactly() {
        let z = Matrix::zeros(3, 3);
        let q = Quantizer::symmetric(Precision::Int4).quantize(&z);
        assert_eq!(q.dequantize(), z);
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn underflowing_scale_quantizes_like_zero() {
        // 1e-45 is the smallest subnormal: divided by any qmax above 1 it
        // underflows to 0, which used to trip `quantize_with_scale`'s
        // positive-scale assert.
        for p in [Precision::Int2, Precision::Int4, Precision::Int8] {
            for fill in [1e-45f32, -1e-45] {
                let q = Quantizer::symmetric(p).quantize(&Matrix::filled(2, 2, fill));
                if p.qmax() == 1 {
                    // INT2 divides by one: the scale is the input itself.
                    assert_eq!((q.scale(), q.code(0, 0).abs()), (1e-45, 1), "{p}");
                } else {
                    assert_eq!((q.scale(), q.code(0, 0)), (1.0, 0), "{p}");
                }
            }
            // No finite maximum (NaN entries are skipped by `abs_max`), or
            // an infinite one: scale 1 as well.
            let q = Quantizer::symmetric(p).quantize(&Matrix::filled(2, 2, f32::NAN));
            assert_eq!((q.scale(), q.code(1, 1)), (1.0, 0), "{p}");
            let q = Quantizer::symmetric(p).quantize(&Matrix::filled(2, 2, f32::INFINITY));
            assert_eq!((q.scale(), q.code(1, 1)), (1.0, p.qmax()), "{p}");
            // The smallest input whose scale survives keeps its own scale.
            let tiny = Matrix::filled(2, 2, 1e-45 * 256.0);
            assert!(Quantizer::symmetric(p).quantize(&tiny).scale() < 1e-40);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn explicit_zero_scale_still_rejected() {
        let _ =
            Quantizer::symmetric(Precision::Int4).quantize_with_scale(&Matrix::zeros(1, 1), 0.0);
    }

    #[test]
    fn codes_within_range() {
        let mut rng = SeededRng::new(2);
        let m = rng.normal_matrix(8, 8, 3.0);
        for p in Precision::ALL {
            let q = Quantizer::symmetric(p).quantize(&m);
            for r in 0..8 {
                for &c in q.code_row(r) {
                    assert!(c >= p.qmin() && c <= p.qmax(), "{p}: code {c}");
                }
            }
        }
    }

    #[test]
    fn explicit_scale_clamps() {
        let m = Matrix::from_rows(&[&[100.0, -100.0, 0.5]]).unwrap();
        let q = Quantizer::symmetric(Precision::Int8).quantize_with_scale(&m, 0.1);
        assert_eq!(q.code(0, 0), 127);
        assert_eq!(q.code(0, 1), -128);
        assert_eq!(q.code(0, 2), 5);
    }

    #[test]
    fn quantized_matmul_close_to_f32() {
        let mut rng = SeededRng::new(3);
        let q = rng.normal_matrix(8, 12, 1.0);
        let k = rng.normal_matrix(10, 12, 1.0);
        let exact = q.matmul_nt(&k).unwrap();
        let qq = Quantizer::symmetric(Precision::Int8).quantize(&q);
        let qk = Quantizer::symmetric(Precision::Int8).quantize(&k);
        let approx = qq.matmul_nt_dequant(&qk).unwrap();
        let err = exact.sub(&approx).unwrap().abs_max();
        assert!(err < 0.5, "int8 matmul err {err}");
    }

    #[test]
    fn matmul_shape_error() {
        let a = Quantizer::symmetric(Precision::Int4).quantize(&Matrix::zeros(2, 3));
        let b = Quantizer::symmetric(Precision::Int4).quantize(&Matrix::zeros(2, 4));
        assert!(a.matmul_nt_dequant(&b).is_err());
    }

    #[test]
    fn sqnr_improves_with_precision() {
        let mut rng = SeededRng::new(4);
        let m = rng.normal_matrix(32, 32, 1.0);
        let mut prev = f64::NEG_INFINITY;
        for p in Precision::ALL {
            let q = Quantizer::symmetric(p).quantize(&m);
            let sqnr = q.sqnr_db(&m);
            assert!(sqnr > prev, "{p}: {sqnr} <= {prev}");
            prev = sqnr;
        }
        // INT8 should already exceed ~30 dB on Gaussian data.
        let q8 = Quantizer::symmetric(Precision::Int8).quantize(&m);
        assert!(q8.sqnr_db(&m) > 25.0);
    }

    #[test]
    fn ranking_preserved_under_int4() {
        // The detector only needs relative importance: top-k of the
        // quantized scores should largely agree with the exact top-k.
        let mut rng = SeededRng::new(5);
        let q = rng.normal_matrix(16, 32, 1.0);
        let k = rng.normal_matrix(64, 32, 1.0);
        let exact = q.matmul_nt(&k).unwrap();
        let qq = Quantizer::symmetric(Precision::Int4).quantize(&q);
        let qk = Quantizer::symmetric(Precision::Int4).quantize(&k);
        let approx = qq.matmul_nt_dequant(&qk).unwrap();
        let sel_exact = dota_tensor::topk::top_k_rows(&exact, 8);
        let sel_approx = dota_tensor::topk::top_k_rows(&approx, 8);
        let recall = dota_tensor::topk::selection_recall(&sel_exact, &sel_approx);
        assert!(recall > 0.75, "int4 ranking recall {recall}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn dequantized_error_within_half_step(
                vals in proptest::collection::vec(-10.0f32..10.0, 1..64)
            ) {
                let n = vals.len();
                let m = Matrix::from_vec(1, n, vals).unwrap();
                let q = Quantizer::symmetric(Precision::Int8).quantize(&m);
                let back = q.dequantize();
                for (a, b) in m.iter().zip(back.iter()) {
                    prop_assert!((a - b).abs() <= q.scale() / 2.0 + 1e-5);
                }
            }
        }
    }
}
