//! Quantized host GEMM kernels mirroring the RMMU precision modes.
//!
//! The RMMU model (`rmmu`) prices low-precision products in *cycles*; this
//! module makes the same precision modes a real execution path on the
//! host, so `bench_report` can put measured fp32-vs-int8 throughput next
//! to the cycle model in `BENCH_kernels.json`:
//!
//! * [`Int8Matrix`] — codes narrowed to `i8` (any [`Precision`] of ≤ 8
//!   bits fits), with an i32-accumulating `A·Bᵀ` kernel that runs AVX2
//!   `madd` lanes when the host has them.
//! * [`Int4Packed`] — two INT4 codes per byte (the storage the RMMU's
//!   bit-fusion blocks assume), unpacked into the `i8` kernel.
//!
//! The kernels produce *accumulators*, one output row at a time
//! ([`Int8Matrix::for_each_acc_row`]): exact `i32` dot products, which is
//! all an integer GEMM is. The scales are an epilogue — `push_scaled`,
//! `acc as f32 * (scale_a · scale_b)`, the one expression every
//! dequantizing caller shares — so a consumer that only ranks a row (the
//! detector's top-k, §3.1) or compares it with a threshold (§4.3) takes
//! the stream and never holds the `n × n` product, while
//! `matmul_nt_dequant` is that stream written into a matrix.
//! [`scaling_preserves_order`] states when the epilogue cannot change a
//! ranking, i.e. when the accumulators may be ranked as they are.
//!
//! Integer addition is associative, so the SIMD and scalar paths are
//! bitwise identical by construction; which one runs is the caller's
//! [`Lanes`], as for every lane kernel (`DOTA_GEMM=scalar` pins the plain
//! loops). Scale handling is exactly
//! [`QuantizedMatrix`]'s: symmetric, zero-point 0, output scaled by the
//! product of the operand scales.
//!
//! [`QuantizedMatrix::matmul_nt_dequant`] (and its row stream,
//! [`QuantizedMatrix::for_each_score_row`]) route through the `i8` kernel
//! automatically whenever the operands fit, so the detector's estimated
//! scores (the `S̃ = Q̃·K̃ᵀ` path) get the fast kernel without callers
//! changing.

use crate::{Precision, QuantizedMatrix, Quantizer};
#[cfg(target_arch = "x86_64")]
use dota_tensor::lanes::Avx2;
use dota_tensor::lanes::Lanes;
use dota_tensor::{Matrix, ShapeError};

/// Largest inner dimension the i32-accumulating kernel accepts: every
/// partial product is at most `2^14` in magnitude (`(-128)²`), so `k`
/// summands stay well inside `i32` for any `k < 2^16` with headroom to
/// spare. Bigger products fall back to the `i64` scalar path.
pub const I32_SAFE_K: usize = 1 << 16;

/// A quantized matrix with codes narrowed to `i8`.
///
/// Any precision of 8 bits or fewer fits; the value range is whatever the
/// source [`Precision`] allows, the storage is always one byte per code —
/// a quarter of [`QuantizedMatrix`]'s `i32` codes, which is the point: the
/// kernel is memory-bound on the operand streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Int8Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scale: f32,
    precision: Precision,
}

impl Int8Matrix {
    /// Narrows a [`QuantizedMatrix`] to `i8` codes.
    ///
    /// # Panics
    ///
    /// Panics if the source precision is wider than 8 bits (`Fx16` codes
    /// do not fit a byte).
    pub(crate) fn from_quantized(q: &QuantizedMatrix) -> Self {
        assert!(
            q.precision().bits() <= 8,
            "{} codes do not fit i8",
            q.precision()
        );
        let mut data = Vec::with_capacity(q.rows() * q.cols());
        for r in 0..q.rows() {
            data.extend(q.code_row(r).iter().map(|&c| c as i8));
        }
        Self {
            rows: q.rows(),
            cols: q.cols(),
            data,
            scale: q.scale(),
            precision: q.precision(),
        }
    }

    /// Quantizes a real matrix at `precision` (≤ 8 bits) and narrows it.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is wider than 8 bits.
    pub fn quantize(m: &Matrix, precision: Precision) -> Self {
        Self::from_quantized(&Quantizer::symmetric(precision).quantize(m))
    }

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

    /// Row `r` of `i8` codes.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub(crate) fn code_row(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Largest magnitude an accumulator of `self · otherᵀ` can reach: the
    /// depth times the product of the two precisions' most negative codes.
    pub fn acc_bound(&self, other: &Int8Matrix) -> i64 {
        let widest = |p: Precision| -i64::from(p.qmin());
        self.cols as i64 * widest(self.precision) * widest(other.precision)
    }

    /// The integer product `self · otherᵀ` as a stream of output rows, on
    /// `lanes`: calls `f(i, acc)` for `i` ascending, `acc[j]` the exact
    /// `i32` dot product of row `i` of `self` with row `j` of `other`.
    /// Nothing the size of the product is held — one row buffer, reused —
    /// so a caller that only ranks or thresholds a row never pays for the
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the inner dimensions disagree.
    ///
    /// # Panics
    ///
    /// Panics if the depth is [`I32_SAFE_K`] or more (the sums could leave
    /// `i32`).
    pub fn for_each_acc_row(
        &self,
        lanes: Lanes,
        other: &Int8Matrix,
        mut f: impl FnMut(usize, &[i32]),
    ) -> Result<(), ShapeError> {
        self.check_depth(other)?;
        assert!(
            self.cols < I32_SAFE_K,
            "depth {} is not i32-safe",
            self.cols
        );
        let kernel = Kernel::for_product(lanes, &other.data, self.cols);
        // Whole 8-lane groups, so the column kernel stores full vectors.
        let mut acc = vec![0i32; other.rows.next_multiple_of(8)];
        for i in 0..self.rows {
            kernel.acc_row(self.code_row(i), other.rows, &mut acc);
            f(i, &acc[..other.rows]);
        }
        Ok(())
    }

    /// Integer matrix product with transposed right operand,
    /// `self · otherᵀ`, dequantized by both scales — the low-precision
    /// score kernel, on host lanes: [`Int8Matrix::for_each_acc_row`] with
    /// `acc as f32 * scale` as each row's epilogue.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the inner dimensions disagree.
    pub fn matmul_nt_dequant(&self, other: &Int8Matrix) -> Result<Matrix, ShapeError> {
        self.check_depth(other)?;
        let _prof = dota_prof::span("gemm.qmatmul_nt_i8");
        Ok(self.dequant_product(other))
    }

    fn check_depth(&self, other: &Int8Matrix) -> Result<(), ShapeError> {
        if self.cols == other.cols {
            return Ok(());
        }
        Err(ShapeError::new(
            "qmatmul_nt_i8",
            (self.rows, self.cols),
            (other.rows, other.cols),
        ))
    }

    /// `self · otherᵀ` dequantized, depths already checked equal.
    fn dequant_product(&self, other: &Int8Matrix) -> Matrix {
        let out_scale = self.scale * other.scale;
        if self.cols >= I32_SAFE_K {
            // i64 fallback for pathological depths; never hit by the
            // paper's sequence lengths.
            let mut out = Matrix::zeros(self.rows, other.rows);
            for i in 0..self.rows {
                let a = self.code_row(i);
                let row = out.row_mut(i);
                for (j, o) in row.iter_mut().enumerate() {
                    let b = other.code_row(j);
                    let acc: i64 = a.iter().zip(b).map(|(&x, &y)| x as i64 * y as i64).sum();
                    *o = acc as f32 * out_scale;
                }
            }
            return out;
        }
        // Rows are appended as they are scaled: the matrix is written
        // once, never zeroed first.
        let mut data = Vec::with_capacity(self.rows * other.rows);
        self.for_each_acc_row(Lanes::active(), other, |_, acc| {
            push_scaled(acc, out_scale, &mut data)
        })
        .expect("depths checked equal");
        Matrix::from_vec(self.rows, other.rows, data).expect("one row per row of self")
    }
}

/// The dequantising epilogue of one output row: appends `acc[j] as f32 *
/// out_scale` for every `j` — the one place the integer product meets the
/// scales, so every kernel and every caller produces the same bits.
pub(crate) fn push_scaled(acc: &[i32], out_scale: f32, out: &mut Vec<f32>) {
    out.extend(acc.iter().map(|&a| a as f32 * out_scale));
}

/// Whether `acc as f32 * scale` is strictly increasing over every integer
/// of `-bound..=bound`, so that ranking accumulators *is* ranking the
/// dequantised scores (ties included; no NaN, no `-0.0` can arise).
///
/// Below `2^22` the conversion is exact and neighbouring integers differ by
/// more than an ulp of either, which survives one correctly rounded
/// multiplication by a positive normal `scale` as long as nothing leaves
/// the normal range: `|acc| >= 1` keeps products at or above `scale`, and
/// `bound · scale` finite keeps them below infinity. A product of operand
/// scales that underflowed, overflowed or is NaN is refused here.
pub fn scaling_preserves_order(bound: i64, scale: f32) -> bool {
    bound < 1 << 22 && scale.is_normal() && scale > 0.0 && (bound as f32 * scale).is_finite()
}

/// Depths below this run [`Kernel::Avx2Columns`]: under one 16-lane step
/// the per-output dot product along the depth would run nothing but its
/// set-up and scalar tail.
#[cfg(target_arch = "x86_64")]
const COLUMN_KERNEL_BELOW: usize = 16;

/// The `i8` kernel of one `A·Bᵀ` product with its right operand, decided
/// (and, for small depths, re-laid-out) once per product instead of once
/// per output element. All kernels produce identical accumulators: integer
/// addition is associative.
enum Kernel<'b> {
    /// Inlined scalar loop over the row-major codes: every host.
    Scalar(&'b [i8]),
    /// AVX2 `madd` lanes along the depth, one output at a time: depths of
    /// at least one 16-lane step.
    #[cfg(target_arch = "x86_64")]
    Avx2Depth(Avx2, &'b [i8]),
    /// AVX2 `madd` lanes across eight output columns: small depths — the
    /// detector's rank-6 sketches — where the depth has no lanes to fill
    /// but the output row does. Holds the right operand pair-interleaved
    /// (see [`interleave_pairs`]).
    #[cfg(target_arch = "x86_64")]
    Avx2Columns(Avx2, Vec<i32>),
}

impl<'b> Kernel<'b> {
    /// The kernel for the row-major right operand `b` (`n` rows of `k`
    /// codes) on `lanes`.
    fn for_product(lanes: Lanes, b: &'b [i8], k: usize) -> Self {
        match lanes {
            Lanes::Plain => Kernel::Scalar(b),
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2(token) if k >= COLUMN_KERNEL_BELOW => Kernel::Avx2Depth(token, b),
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2(token) => Kernel::Avx2Columns(token, interleave_pairs(b, k)),
        }
    }

    /// One output row of accumulators: `acc[j] = a · b_j` for the `n` rows
    /// `b_j` of the right operand, each `a.len() < `[`I32_SAFE_K`] codes
    /// long. `acc` holds `n` rounded up to a multiple of eight; what lies
    /// past `n` is scratch.
    fn acc_row(&self, a: &[i8], n: usize, acc: &mut [i32]) {
        let k = a.len();
        debug_assert!(k < I32_SAFE_K);
        assert_eq!(acc.len(), n.next_multiple_of(8), "row buffer");
        match self {
            Kernel::Scalar(b) => {
                debug_assert_eq!(b.len(), k * n);
                for (j, o) in acc[..n].iter_mut().enumerate() {
                    let b_j = &b[j * k..(j + 1) * k];
                    *o = a.iter().zip(b_j).map(|(&x, &y)| x as i32 * y as i32).sum();
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2Depth(_, b) => {
                assert_eq!(b.len(), k * n, "operand shape");
                // SAFETY: the token proves AVX2 and FMA.
                unsafe { x86::acc_row_depth(a, b, &mut acc[..n]) }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2Columns(_, pairs) => {
                assert!(k < COLUMN_KERNEL_BELOW, "depth {k} has no column kernel");
                assert_eq!(pairs.len(), acc.len() * k.div_ceil(2), "operand shape");
                // SAFETY: the token proves AVX2 and FMA.
                unsafe { x86::acc_row_columns(a, pairs, acc) }
            }
        }
    }
}

/// `b` (rows of `k` codes) pair-interleaved in blocks of eight rows: block
/// `r`, depth pair `p` is eight `i32`s, lane `c` holding `b[8r + c][2p]`
/// and `b[8r + c][2p + 1]` as its low and high `i16` — one `madd` operand
/// yielding eight outputs' worth of two depth steps. Odd depths and a last
/// block short of eight rows are zero-padded, which adds nothing to a sum.
#[cfg(target_arch = "x86_64")]
fn interleave_pairs(b: &[i8], k: usize) -> Vec<i32> {
    if k == 0 {
        return Vec::new();
    }
    let pairs = k.div_ceil(2);
    let mut out = vec![0; (b.len() / k).div_ceil(8) * pairs * 8];
    for (j, row) in b.chunks_exact(k).enumerate() {
        let block = &mut out[j / 8 * pairs * 8..];
        for (d, &code) in row.iter().enumerate() {
            block[d / 2 * 8 + j % 8] |= (i32::from(code) & 0xffff) << (16 * (d % 2));
        }
    }
    out
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use dota_tensor::lanes::{load_i32, load_i8, store_i32};
    use std::arch::x86_64::*;

    /// [`super::Kernel::Avx2Columns`]' row: `a.len() < 16`, `acc` whole
    /// 8-lane groups and `pairs` [`super::interleave_pairs`] of that depth
    /// with one block per eight accumulators.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn acc_row_columns(a: &[i8], pairs: &[i32], acc: &mut [i32]) {
        let n_pairs = a.len().div_ceil(2);
        // Each depth pair of `a`, both halves in one i32, in every lane.
        let mut a_pairs = [_mm256_setzero_si256(); 8];
        for (p, pair) in a.chunks(2).enumerate() {
            let lo = i32::from(pair[0]) & 0xffff;
            let hi = pair.get(1).map_or(0, |&c| i32::from(c));
            a_pairs[p] = _mm256_set1_epi32(hi << 16 | lo);
        }
        let (blocks, _) = pairs.as_chunks::<8>();
        let (groups, _) = acc.as_chunks_mut::<8>();
        for (g, group) in groups.iter_mut().enumerate() {
            let mut sum = _mm256_setzero_si256();
            for (a_pair, b) in a_pairs.iter().zip(&blocks[g * n_pairs..][..n_pairs]) {
                sum = _mm256_add_epi32(sum, _mm256_madd_epi16(*a_pair, load_i32(b)));
            }
            store_i32(group, sum);
        }
    }

    /// [`super::Kernel::Avx2Depth`]' row: `acc[j]` is `a` dotted with the
    /// `j`-th `a.len()`-code row of `b`, 16 codes a step.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn acc_row_depth(a: &[i8], b: &[i8], acc: &mut [i32]) {
        let (a16, a_tail) = a.as_chunks::<16>();
        for (o, b_j) in acc.iter_mut().zip(b.chunks_exact(a.len())) {
            let (b16, b_tail) = b_j.as_chunks::<16>();
            let mut sum = _mm256_setzero_si256();
            for (x, y) in a16.iter().zip(b16) {
                // 16 i8 → 16 i16 lanes, then madd pairs into 8 i32 sums.
                let x = _mm256_cvtepi8_epi16(load_i8(x));
                let y = _mm256_cvtepi8_epi16(load_i8(y));
                sum = _mm256_add_epi32(sum, _mm256_madd_epi16(x, y));
            }
            let mut lanes = [0i32; 8];
            store_i32(&mut lanes, sum);
            *o = lanes.iter().sum();
            for (&x, &y) in a_tail.iter().zip(b_tail) {
                *o += x as i32 * y as i32;
            }
        }
    }
}

/// An INT4 (or INT2) matrix packed two codes per byte, the density the
/// RMMU's bit-fusion multiplier blocks assume: column `2c` in the low
/// nibble, `2c+1` in the high nibble, rows padded to a whole byte.
#[derive(Debug, Clone, PartialEq)]
pub struct Int4Packed {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
    scale: f32,
    precision: Precision,
}

impl Int4Packed {
    /// Packs a [`QuantizedMatrix`] of ≤ 4-bit codes, two per byte.
    ///
    /// # Panics
    ///
    /// Panics if the source precision is wider than 4 bits.
    pub(crate) fn from_quantized(q: &QuantizedMatrix) -> Self {
        assert!(
            q.precision().bits() <= 4,
            "{} codes do not fit a nibble",
            q.precision()
        );
        let bytes_per_row = q.cols().div_ceil(2);
        let mut data = Vec::with_capacity(q.rows() * bytes_per_row);
        for r in 0..q.rows() {
            let row = q.code_row(r);
            for pair in row.chunks(2) {
                let lo = (pair[0] as u8) & 0x0f;
                let hi = pair.get(1).map_or(0, |&c| (c as u8) & 0x0f);
                data.push(lo | (hi << 4));
            }
        }
        Self {
            rows: q.rows(),
            cols: q.cols(),
            data,
            scale: q.scale(),
            precision: q.precision(),
        }
    }

    /// Quantizes a real matrix at `precision` (≤ 4 bits) and packs it.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is wider than 4 bits.
    pub fn quantize(m: &Matrix, precision: Precision) -> Self {
        Self::from_quantized(&Quantizer::symmetric(precision).quantize(m))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (codes, not bytes).
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

    /// Sign-extends row `r` into `buf` (length ≥ `cols`) as `i8` codes.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `buf` is too short.
    pub(crate) fn unpack_row(&self, r: usize, buf: &mut [i8]) {
        assert!(r < self.rows, "row out of bounds");
        let bytes_per_row = self.cols.div_ceil(2);
        let row = &self.data[r * bytes_per_row..(r + 1) * bytes_per_row];
        for c in 0..self.cols {
            let byte = row[c / 2];
            let nibble = if c % 2 == 0 { byte & 0x0f } else { byte >> 4 };
            // Shift to the top of the byte and back: arithmetic shift
            // right sign-extends the nibble.
            buf[c] = ((nibble << 4) as i8) >> 4;
        }
    }

    /// The same codes, one per byte.
    fn unpack(&self) -> Int8Matrix {
        let mut data = vec![0i8; self.rows * self.cols];
        if self.cols > 0 {
            for (r, row) in data.chunks_exact_mut(self.cols).enumerate() {
                self.unpack_row(r, row);
            }
        }
        Int8Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
            scale: self.scale,
            precision: self.precision,
        }
    }

    /// Integer matrix product with transposed right operand,
    /// `self · otherᵀ`, dequantized by both scales. Both operands unpack
    /// into per-call `i8` codes that then run the same kernel as
    /// [`Int8Matrix::matmul_nt_dequant`] — unpacking is O((m+n)·k)
    /// against O(m·n·k) arithmetic.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the inner dimensions disagree.
    pub fn matmul_nt_dequant(&self, other: &Int4Packed) -> Result<Matrix, ShapeError> {
        if self.cols != other.cols {
            return Err(ShapeError::new(
                "qmatmul_nt_i4",
                (self.rows, self.cols),
                (other.rows, other.cols),
            ));
        }
        let _prof = dota_prof::span("gemm.qmatmul_nt_i4");
        Ok(self.unpack().dequant_product(&other.unpack()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_tensor::rng::SeededRng;

    /// `A·Bᵀ` bits from the wide codes, one `i64` sum per element: shares
    /// no kernel with the paths under test (`QuantizedMatrix`'s own product
    /// routes through `Int8Matrix` whenever the codes fit).
    fn reference_bits(qa: &QuantizedMatrix, qb: &QuantizedMatrix) -> Vec<u32> {
        let out_scale = qa.scale() * qb.scale();
        let mut bits = Vec::new();
        for i in 0..qa.rows() {
            for j in 0..qb.rows() {
                let (a, b) = (qa.code_row(i), qb.code_row(j));
                let acc: i64 = a.iter().zip(b).map(|(&x, &y)| x as i64 * y as i64).sum();
                bits.push((acc as f32 * out_scale).to_bits());
            }
        }
        bits
    }

    #[test]
    fn i8_matmul_matches_i32_reference_bitwise() {
        let mut rng = SeededRng::new(11);
        // Depths under one 16-lane step — 6 is the detector's rank; 1, 2,
        // 7, 15 cover a lone code, one pair, odd depths and the last depth
        // of the column kernel — then 16 and 37: lanes along the depth,
        // without and with a scalar tail. Output counts on both sides of a
        // multiple of eight.
        for p in [Precision::Int2, Precision::Int4, Precision::Int8] {
            for (k, n) in [(6, 13), (37, 13), (1, 9), (2, 8), (7, 1), (15, 17), (16, 7)] {
                let a = rng.normal_matrix(9, k, 1.0);
                let b = rng.normal_matrix(n, k, 1.0);
                let qa = Quantizer::symmetric(p).quantize(&a);
                let qb = Quantizer::symmetric(p).quantize(&b);
                let got = Int8Matrix::from_quantized(&qa)
                    .matmul_nt_dequant(&Int8Matrix::from_quantized(&qb))
                    .unwrap();
                // Integer accumulation has one possible answer; the f32
                // conversion and scaling are identical expressions — so the
                // fast paths must agree bit-for-bit, not just approximately.
                let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(reference_bits(&qa, &qb), got_bits, "{p} depth {k} x {n}");
            }
        }
    }

    proptest::proptest! {
        /// Every accumulator row of the stream, on both bodies, equals an
        /// `i64` sum over the wide codes: a lone code, one pair, the
        /// detector's rank, odd depths, the last depth of the column
        /// kernel, then lanes along the depth without and with a scalar
        /// tail — at every precision that fits a byte, output counts on
        /// both sides of whole 8-lane groups.
        #[test]
        fn acc_rows_match_i64_reference_oracle(
            seed in 0u64..1 << 32,
            depth in 0usize..7,
            n in 1usize..27,
            p in 0usize..3,
        ) {
            let k = [1, 2, 6, 7, 15, 16, 37][depth];
            let p = [Precision::Int2, Precision::Int4, Precision::Int8][p];
            let mut rng = SeededRng::new(seed);
            let qa = Quantizer::symmetric(p).quantize(&rng.normal_matrix(5, k, 1.0));
            let qb = Quantizer::symmetric(p).quantize(&rng.normal_matrix(n, k, 1.0));
            let (a, b) = (Int8Matrix::from_quantized(&qa), Int8Matrix::from_quantized(&qb));
            for lanes in [Lanes::Plain, Lanes::active()] {
                let mut seen = 0;
                a.for_each_acc_row(lanes, &b, |i, acc| {
                    assert_eq!(i, seen, "rows arrive in order");
                    seen += 1;
                    let want: Vec<i64> = (0..n)
                        .map(|j| {
                            let (x, y) = (qa.code_row(i), qb.code_row(j));
                            x.iter().zip(y).map(|(&x, &y)| i64::from(x) * i64::from(y)).sum()
                        })
                        .collect();
                    let got: Vec<i64> = acc.iter().map(|&v| i64::from(v)).collect();
                    assert_eq!(got, want, "{lanes:?}: {p} depth {k} x {n}, row {i}");
                    assert!(want.iter().all(|v| v.abs() <= a.acc_bound(&b)));
                })
                .unwrap();
                proptest::prop_assert_eq!(seen, 5);
            }
        }

        /// The order argument behind ranking accumulators instead of
        /// scores: wherever the guard holds, `acc as f32 * scale` is
        /// strictly increasing — over all of the INT4 rank-6 range, and
        /// over runs of neighbours anywhere below `2^22`.
        #[test]
        fn guarded_scaling_is_strictly_increasing_oracle(
            scale_bits in 0x0080_0000u32..0x7f80_0000,
            start in -(1i32 << 22) + 1..(1 << 22) - 64,
        ) {
            let scale = f32::from_bits(scale_bits);
            let increasing = |from: i32, to: i32| {
                (from..to).all(|acc| (acc as f32 * scale) < ((acc + 1) as f32 * scale))
            };
            if scaling_preserves_order(384, scale) {
                proptest::prop_assert!(increasing(-384, 384), "scale {:e}", scale);
            }
            if scaling_preserves_order((1 << 22) - 1, scale) {
                proptest::prop_assert!(increasing(start, start + 63), "scale {:e} from {}", scale, start);
            }
        }
    }

    #[test]
    fn scaling_guard_refuses_what_collapses() {
        assert!(scaling_preserves_order(384, 1.0));
        assert!(scaling_preserves_order(384, f32::MIN_POSITIVE));
        assert!(scaling_preserves_order((1 << 22) - 1, 3.0e-3));
        // One scale just outside each condition, with the collapse it
        // guards against.
        let collapses = |scale: f32, a: i32| {
            let (x, y) = (a as f32 * scale, (a + 1) as f32 * scale);
            // Not strictly increasing: equal, or unordered (NaN).
            x.partial_cmp(&y) != Some(std::cmp::Ordering::Less)
        };
        // A product of operand scales that underflowed to zero…
        assert!(!scaling_preserves_order(384, 0.0) && collapses(0.0, 5));
        // …or overflowed: every score is infinite or NaN.
        assert!(!scaling_preserves_order(384, f32::INFINITY) && collapses(f32::INFINITY, 0));
        assert!(!scaling_preserves_order(384, f32::NAN) && collapses(f32::NAN, 5));
        assert!(!scaling_preserves_order(384, -1.0) && collapses(-1.0, 5));
        // A finite scale whose largest products are not: the top of the
        // range merges into +inf.
        let huge = f32::MAX / 100.0;
        assert!(!scaling_preserves_order(384, huge) && collapses(huge, 300));
        assert!(scaling_preserves_order(99, huge));
        // Accumulators past the exact range of the conversion merge before
        // the scale is even applied.
        assert!(!scaling_preserves_order(1 << 22, 1.0));
        assert!(!scaling_preserves_order(1 << 25, 1.0) && collapses(1.0, 1 << 24));
        // Subnormal scales are refused without a collapse to show: the
        // product of the operand scales has already lost bits there.
        assert!(!scaling_preserves_order(384, 1e-40));
    }

    #[test]
    fn extreme_codes_survive_the_column_kernel() {
        // -128 x -128 in both halves of a pair: the largest `madd` term.
        for k in [1, 2, 15] {
            let full = |rows: usize| Int8Matrix {
                rows,
                cols: k,
                data: vec![-128; rows * k],
                scale: 0.5,
                precision: Precision::Int8,
            };
            let got = full(3).matmul_nt_dequant(&full(11)).unwrap();
            let want = (128 * 128 * k as i32) as f32 * (0.5 * 0.5);
            assert!(got.iter().all(|&x| x == want), "depth {k}");
        }
    }

    #[test]
    fn int4_pack_round_trips() {
        let mut rng = SeededRng::new(12);
        for p in [Precision::Int2, Precision::Int4] {
            // Odd column count exercises the padded last nibble.
            let m = rng.normal_matrix(5, 7, 1.0);
            let q = Quantizer::symmetric(p).quantize(&m);
            let packed = Int4Packed::from_quantized(&q);
            let mut buf = vec![0i8; 7];
            for r in 0..5 {
                packed.unpack_row(r, &mut buf);
                let want: Vec<i8> = q.code_row(r).iter().map(|&c| c as i8).collect();
                assert_eq!(buf, want, "{p} row {r}");
            }
        }
    }

    #[test]
    fn int4_matmul_matches_i32_reference_bitwise() {
        let mut rng = SeededRng::new(13);
        for (k, n) in [(21, 8), (5, 8), (1, 11), (2, 3), (7, 16), (15, 9)] {
            let a = rng.normal_matrix(6, k, 1.0);
            let b = rng.normal_matrix(n, k, 1.0);
            let qa = Quantizer::symmetric(Precision::Int4).quantize(&a);
            let qb = Quantizer::symmetric(Precision::Int4).quantize(&b);
            let got = Int4Packed::from_quantized(&qa)
                .matmul_nt_dequant(&Int4Packed::from_quantized(&qb))
                .unwrap();
            let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(reference_bits(&qa, &qb), got_bits, "depth {k} x {n}");
        }
    }

    #[test]
    fn shape_errors() {
        let a = Int8Matrix::quantize(&Matrix::zeros(2, 3), Precision::Int8);
        let b = Int8Matrix::quantize(&Matrix::zeros(2, 4), Precision::Int8);
        assert!(a.matmul_nt_dequant(&b).is_err());
        let pa = Int4Packed::quantize(&Matrix::zeros(2, 3), Precision::Int4);
        let pb = Int4Packed::quantize(&Matrix::zeros(2, 4), Precision::Int4);
        assert!(pa.matmul_nt_dequant(&pb).is_err());
    }

    #[test]
    #[should_panic(expected = "do not fit i8")]
    fn fx16_rejected_by_i8() {
        let q = Quantizer::symmetric(Precision::Fx16).quantize(&Matrix::zeros(2, 2));
        let _ = Int8Matrix::from_quantized(&q);
    }

    #[test]
    #[should_panic(expected = "do not fit a nibble")]
    fn int8_rejected_by_nibble_packing() {
        let q = Quantizer::symmetric(Precision::Int8).quantize(&Matrix::zeros(2, 2));
        let _ = Int4Packed::from_quantized(&q);
    }
}
