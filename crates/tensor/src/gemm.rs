//! General matrix-matrix products.
//!
//! Three GEMM layouts are provided because self-attention needs all of
//! them: `A*B` (projections and `A*V`), `A*B^T` (`Q*K^T`), and `A^T*B`
//! (gradient computations in `dota-autograd`).
//!
//! Each layout dispatches on [`Lanes`]: products big enough to amortize
//! panel packing run the packed SIMD microkernel driver
//! ([`crate::simd::packed_gemm`]) on lanes. `A·B` with fewer than `PACK_MIN_ROWS`
//! rows is never packed — packing all of `B` has too few output rows to
//! amortize over — and on lanes runs a register tile that reads `B` in
//! place ([`crate::simd::few_rows`]), as does every other `A·B` too small
//! to pack. Everything else — small `A·Bᵀ` and `Aᵀ·B`, `DOTA_GEMM=scalar`,
//! hosts without lanes — runs the plain blocked row kernels below,
//! cache-blocked over `i`/`k`. With the `parallel` feature, row-kernel
//! products past [`PAR_CUTOFF_FLOPS`] run over per-worker row blocks via
//! `dota_parallel::par_partition_mut`.
//!
//! Every path keeps the same numerics contract: every output element is
//! one ascending-`k` accumulation chain, so results are bitwise identical
//! to the naive reference — on lanes or not, across paths, across
//! `DOTA_THREADS`, and across the serial/parallel feature builds.
//!
//! No route skips a zero of `A`: like the reference, `0·∞` and `0·NaN`
//! are NaN, so non-finite weights give the same result whichever route a
//! product takes (NaN payloads aside). For finite operands a skipped
//! `+ 0·b` would not change a bit — a chain started at `+0` never holds
//! `-0` — so the rule costs the plain kernels nothing but a multiply.
//!
//! The kernel decision is one [`Lanes`]: [`Matrix::gemm_into`] takes it
//! from a caller that decided once for many products (a decode forward),
//! and the other entries take [`Lanes::active`] on the dispatching thread
//! per call and hand it to every pool panel.
//!
//! The `*_into` variants write into a caller-owned output matrix; repeated
//! products of the same shape then run with zero steady-state heap traffic
//! (pack buffers are pooled, see [`crate::pack`]).

use crate::lanes::Lanes;
use crate::pack::Layout;
use crate::simd;
use crate::{Matrix, ShapeError};

const BLOCK: usize = 32;

/// `A·B` products with fewer output rows than this never pack `B`: the row
/// tile ([`simd::few_rows`]) reads `B` in place, and the packed driver's
/// copy of all of `B` pays for itself only once enough rows share it.
/// Measured per output row on one core of a 2-vCPU AVX-512F Xeon (`simd`
/// lanes, so the packed path runs the sixteen-lane tiles; best of 7 × 50
/// calls, two runs):
///
/// | `m` | 32×32 row tile | 32×32 packed | 128×512 row tile | 128×512 packed |
/// |----:|---------------:|-------------:|-----------------:|---------------:|
/// |   1 |       75–83 ns |   650–700 ns |       5.5–5.8 µs |       39–42 µs |
/// |   4 |       41–55 ns |   145–190 ns |       3.9–4.0 µs |     10–10.4 µs |
/// |   8 |       45–70 ns |    95–110 ns |       3.9–4.0 µs |       5.9–6.3 µs |
/// |  16 |       46–55 ns |     72–89 ns |       3.8–4.2 µs |       4.3–4.4 µs |
/// |  32 |       46–58 ns |     61–76 ns |       3.8–4.2 µs |       3.1–3.5 µs |
/// |  64 |       45–57 ns |     57–71 ns |       3.7–4.2 µs |       2.7–3.0 µs |
///
/// At 32×32 packing never pays (the packed path still trails at `m` =
/// 256, and a product under 16³ multiply-adds is not packed at all); at
/// 128×512 it loses at 16 rows and wins from 32. 128×128 and 512×128 cross
/// between 16 and 32 too (packed 0.85–0.87 µs against the row tile's
/// 0.99–1.04 at 128×128, `m` = 32). So the constant stays at 32. The
/// eight-lane tiles of an AVX2-only host, measured on an AVX2 Xeon, tied
/// at 32 rows at 128×512 and crossed near 128 and 256 rows at 512×128 and
/// 128×128.
const PACK_MIN_ROWS: usize = 32;

/// Products smaller than this many multiply-adds are never packed: the
/// packing copies would cost more than they save (same bits either way, so
/// the cutoff is purely a performance knob).
const PACK_CUTOFF_FLOPS: usize = 16 * 16 * 16;

/// Products smaller than this many multiply-adds (`m·k·n`) stay serial even
/// when the `parallel` feature is enabled: below it, thread dispatch costs
/// more than the arithmetic it distributes.
#[cfg(feature = "parallel")]
pub const PAR_CUTOFF_FLOPS: usize = 64 * 64 * 64;

/// Runs `kernel` over the rows of `out` — as one call on the serial path,
/// or on contiguous per-worker row blocks when the `parallel` feature is
/// enabled and the work is at least `PAR_CUTOFF_FLOPS` (64³) multiply-adds.
///
/// `kernel(first_row, span)` must fill the `span.len() / out.cols()` output
/// rows starting at `first_row`, each row independently of the others; that
/// independence is what makes the row partition bitwise-transparent.
/// Public for row-wise work that is not a GEMM but splits the same way (the
/// per-row attention of `dota-transformer`'s ragged decode forward).
pub fn row_dispatch(out: &mut Matrix, flops: usize, kernel: impl Fn(usize, &mut [f32]) + Sync) {
    if out.is_empty() {
        return;
    }
    #[cfg(feature = "parallel")]
    if flops >= PAR_CUTOFF_FLOPS {
        let cols = out.cols();
        dota_parallel::par_partition_mut(out.as_mut_slice(), cols, kernel);
        return;
    }
    #[cfg(not(feature = "parallel"))]
    let _ = flops;
    kernel(0, out.as_mut_slice());
}

/// Runs one product into `out`, whatever it held: the packed SIMD driver on
/// lanes when the product is worth packing, which overwrites every element,
/// and otherwise the row kernel `rows` into `out` zeroed first (the row
/// kernels accumulate into it). The split is invisible in the bits — both
/// paths produce the reference chain — so the cutoffs are purely perf
/// knobs.
fn gemm_dispatch(
    lanes: Lanes,
    layout: Layout,
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    rows: impl Fn(usize, &mut [f32]) + Sync,
) {
    let (m, n) = out.shape();
    let k = match layout {
        Layout::Nn | Layout::Nt => a.cols(),
        Layout::Tn => a.rows(),
    };
    let flops = m * k * n;
    // A few rows of `x·W` read `b`'s rows where they lie: packing would
    // copy all of `b` to use it `m` times.
    let few_rows = m < PACK_MIN_ROWS && layout == Layout::Nn;
    if lanes != Lanes::Plain && !few_rows && flops >= PACK_CUTOFF_FLOPS {
        simd::packed_gemm(layout, a, b, out, lanes);
        return;
    }
    out.as_mut_slice().fill(0.0);
    row_dispatch(out, flops, rows);
}

/// `out += a * b` over a row. The plain `zip` is the form LLVM vectorizes;
/// every element is its own chain, so lane width never shows in the bits.
#[inline]
fn axpy(out: &mut [f32], b: &[f32], a: f32) {
    for (o, &x) in out.iter_mut().zip(b) {
        *o += a * x;
    }
}

/// Dot product continuing the accumulation chain in `acc`, 4-wide unrolled
/// **without reassociation**: every term joins one sequential chain in
/// ascending index order, so the result is bit-identical to the scalar
/// `for kk { acc += a[kk] * b[kk] }` loop. Keeping the textbook order means
/// the blocked kernels (which call this once per k-panel, threading `acc`
/// through) reproduce the unblocked kernels' results exactly.
#[inline]
fn dot_chain(mut acc: f32, a: &[f32], b: &[f32]) -> f32 {
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        acc += xa[0] * xb[0];
        acc += xa[1] * xb[1];
        acc += xa[2] * xb[2];
        acc += xa[3] * xb[3];
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

/// Fills output rows `[first, first + span.len()/n)` of `A·B`.
///
/// i-k-j order, blocked over `i` and `k`: the inner `axpy` streams
/// contiguous rows of `b` and the output, and each `(ib, kb)` pass reuses
/// the same 32-row panel of `b` across the row block.
fn nn_kernel(a: &Matrix, b: &Matrix, first: usize, span: &mut [f32]) {
    let k = a.cols();
    let n = b.cols();
    let rows = span.len() / n;
    for ib in (0..rows).step_by(BLOCK) {
        let ie = (ib + BLOCK).min(rows);
        for kb in (0..k).step_by(BLOCK) {
            let ke = (kb + BLOCK).min(k);
            for i in ib..ie {
                let a_row = a.row(first + i);
                let o_row = &mut span[i * n..(i + 1) * n];
                for kk in kb..ke {
                    axpy(o_row, b.row(kk), a_row[kk]);
                }
            }
        }
    }
}

/// Fills output rows `[first, first + span.len()/n)` of `A·Bᵀ`.
///
/// Blocked over `i` and `k`: each `(ib, kb)` pass touches only a 32-column
/// panel of both operands, so `b`'s panel stays cached across the block's
/// rows instead of the whole of `b` streaming through cache once per output
/// row (the behaviour of the unblocked kernel this replaces).
fn nt_kernel(a: &Matrix, b: &Matrix, first: usize, span: &mut [f32]) {
    let k = a.cols();
    let n = b.rows();
    let rows = span.len() / n;
    for ib in (0..rows).step_by(BLOCK) {
        let ie = (ib + BLOCK).min(rows);
        for kb in (0..k).step_by(BLOCK) {
            let ke = (kb + BLOCK).min(k);
            for i in ib..ie {
                let a_panel = &a.row(first + i)[kb..ke];
                let o_row = &mut span[i * n..(i + 1) * n];
                for (j, o) in o_row.iter_mut().enumerate() {
                    // `*o` carries the accumulation chain across k-panels.
                    *o = dot_chain(*o, a_panel, &b.row(j)[kb..ke]);
                }
            }
        }
    }
}

/// Fills output rows `[first, first + span.len()/n)` of `Aᵀ·B`.
///
/// Output row `i` is column `first + i` of `a`; blocking over `k` keeps the
/// strided column reads of `a` inside one 32×32 tile at a time.
fn tn_kernel(a: &Matrix, b: &Matrix, first: usize, span: &mut [f32]) {
    let k = a.rows();
    let n = b.cols();
    let rows = span.len() / n;
    for ib in (0..rows).step_by(BLOCK) {
        let ie = (ib + BLOCK).min(rows);
        for kb in (0..k).step_by(BLOCK) {
            let ke = (kb + BLOCK).min(k);
            for i in ib..ie {
                let o_row = &mut span[i * n..(i + 1) * n];
                for kk in kb..ke {
                    axpy(o_row, b.row(kk), a[(kk, first + i)]);
                }
            }
        }
    }
}

/// Checks that `out` is shaped `m×n`.
fn check_out(op: &'static str, out: &Matrix, m: usize, n: usize) -> Result<(), ShapeError> {
    if out.shape() != (m, n) {
        return Err(ShapeError::new(op, (m, n), out.shape()));
    }
    Ok(())
}

impl Matrix {
    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.rows()`.
    ///
    /// # Example
    ///
    /// ```
    /// # use dota_tensor::Matrix;
    /// # fn main() -> Result<(), dota_tensor::ShapeError> {
    /// let a = Matrix::identity(3);
    /// let b = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
    /// assert_eq!(a.matmul(&b)?, b);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::zeros(self.rows(), other.cols());
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul`] writing into a caller-owned output (overwritten,
    /// must already be shaped `self.rows() × other.cols()`). Reusing one
    /// output across repeated same-shape products keeps the hot path free
    /// of heap traffic — pack buffers are pooled too, so the steady state
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.rows()` or
    /// `out` has the wrong shape.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        self.gemm_into(other, out, Lanes::active())
    }

    /// [`Matrix::matmul_into`] on lanes the caller decided: a forward that
    /// runs many products takes [`Lanes::active`] once and hands it to
    /// each.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.rows()` or
    /// `out` has the wrong shape.
    pub fn gemm_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        lanes: Lanes,
    ) -> Result<(), ShapeError> {
        if self.cols() != other.rows() {
            return Err(ShapeError::new("matmul", self.shape(), other.shape()));
        }
        check_out("matmul_into", out, self.rows(), other.cols())?;
        let _prof = dota_prof::span("gemm.matmul");
        let rows = |first, span: &mut [f32]| match lanes {
            Lanes::Plain => nn_kernel(self, other, first, span),
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2(token) => simd::few_rows(token, self, other, first, span),
        };
        gemm_dispatch(lanes, Layout::Nn, self, other, out, rows);
        Ok(())
    }

    /// Matrix product with transposed right operand: `self * other^T`.
    ///
    /// This is the `Q * K^T` kernel: both operands are traversed row-wise,
    /// so no explicit transpose is materialized.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::zeros(self.rows(), other.rows());
        self.matmul_nt_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_nt`] writing into a caller-owned output
    /// (overwritten, must be shaped `self.rows() × other.rows()`).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols() != other.cols()` or
    /// `out` has the wrong shape.
    pub(crate) fn matmul_nt_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        if self.cols() != other.cols() {
            return Err(ShapeError::new("matmul_nt", self.shape(), other.shape()));
        }
        check_out("matmul_nt_into", out, self.rows(), other.rows())?;
        let _prof = dota_prof::span("gemm.matmul_nt");
        let rows = |first, span: &mut [f32]| nt_kernel(self, other, first, span);
        gemm_dispatch(Lanes::active(), Layout::Nt, self, other, out, rows);
        Ok(())
    }

    /// Matrix product with transposed left operand: `self^T * other`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::zeros(self.cols(), other.cols());
        self.matmul_tn_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_tn`] writing into a caller-owned output
    /// (overwritten, must be shaped `self.cols() × other.cols()`).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.rows() != other.rows()` or
    /// `out` has the wrong shape.
    pub(crate) fn matmul_tn_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        if self.rows() != other.rows() {
            return Err(ShapeError::new("matmul_tn", self.shape(), other.shape()));
        }
        check_out("matmul_tn_into", out, self.cols(), other.cols())?;
        let _prof = dota_prof::span("gemm.matmul_tn");
        let rows = |first, span: &mut [f32]| tn_kernel(self, other, first, span);
        gemm_dispatch(Lanes::active(), Layout::Tn, self, other, out, rows);
        Ok(())
    }

    /// Dot product of two equal-length slices.
    ///
    /// Always the exact sequential chain, regardless of lanes: the
    /// sparse-attention scorer and the detector compare these values
    /// against recorded thresholds, so they must not drift.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
        dot_chain(0.0, a, b)
    }
}

#[cfg(test)]
mod tests {
    use crate::lanes::{same, with_lanes, Lanes};
    use crate::reference;
    use crate::rng::SeededRng;
    use crate::Matrix;
    use proptest::prelude::*;

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = SeededRng::new(1);
        let a = rng.normal_matrix(7, 7, 1.0);
        let i = Matrix::identity(7);
        assert!(a.matmul(&i).unwrap().approx_eq(&a, 1e-6));
        assert!(i.matmul(&a).unwrap().approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_matches_reference_on_odd_sizes() {
        let mut rng = SeededRng::new(2);
        // Sizes chosen to straddle the blocking factor and the unroll width.
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 3), (33, 40, 17), (64, 31, 65)] {
            let a = rng.normal_matrix(m, k, 1.0);
            let b = rng.normal_matrix(k, n, 1.0);
            let fast = a.matmul(&b).unwrap();
            let slow = reference::matmul(&a, &b);
            assert!(fast.approx_eq(&slow, 1e-3), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_nt_matches_reference() {
        let mut rng = SeededRng::new(3);
        for &(m, k, n) in &[(1, 6, 1), (9, 6, 11), (40, 33, 37), (65, 70, 64)] {
            let q = rng.normal_matrix(m, k, 1.0);
            let kmat = rng.normal_matrix(n, k, 1.0);
            let fast = q.matmul_nt(&kmat).unwrap();
            let slow = reference::matmul_nt(&q, &kmat);
            assert!(fast.approx_eq(&slow, 1e-3), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = SeededRng::new(3);
        let q = rng.normal_matrix(9, 6, 1.0);
        let k = rng.normal_matrix(11, 6, 1.0);
        let fast = q.matmul_nt(&k).unwrap();
        let slow = q.matmul(&k.transpose()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn matmul_tn_matches_reference() {
        let mut rng = SeededRng::new(4);
        for &(m, k, n) in &[(1, 5, 1), (5, 8, 7), (34, 40, 33), (65, 64, 66)] {
            let a = rng.normal_matrix(k, m, 1.0);
            let b = rng.normal_matrix(k, n, 1.0);
            let fast = a.matmul_tn(&b).unwrap();
            let slow = reference::matmul_tn(&a, &b);
            assert!(fast.approx_eq(&slow, 1e-3), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = SeededRng::new(4);
        let a = rng.normal_matrix(8, 5, 1.0);
        let b = rng.normal_matrix(8, 7, 1.0);
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn blocked_kernels_are_bitwise_equal_to_reference() {
        // The blocked/unrolled kernels keep the textbook ascending-k
        // accumulation chain per output element, so they must reproduce the
        // naive reference bit-for-bit — not just approximately. (Training
        // trajectories on the tiny models are sensitive to accumulation
        // order, so this pins the numerics the recorded results/ were
        // generated with.)
        let mut rng = SeededRng::new(6);
        for &(m, k, n) in &[(5, 7, 3), (33, 40, 17), (64, 70, 65)] {
            let a = rng.normal_matrix(m, k, 1.0);
            let b = rng.normal_matrix(k, n, 1.0);
            assert_eq!(
                a.matmul(&b).unwrap().as_slice(),
                reference::matmul(&a, &b).as_slice(),
                "nn bits differ at {m}x{k}x{n}"
            );
            let bt = rng.normal_matrix(n, k, 1.0);
            assert_eq!(
                a.matmul_nt(&bt).unwrap().as_slice(),
                reference::matmul_nt(&a, &bt).as_slice(),
                "nt bits differ at {m}x{k}x{n}"
            );
            let at = rng.normal_matrix(k, m, 1.0);
            assert_eq!(
                at.matmul_tn(&b).unwrap().as_slice(),
                reference::matmul_tn(&at, &b).as_slice(),
                "tn bits differ at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_path_is_bitwise_equal_to_reference() {
        // Sizes past the packing cutoff with awkward edges: the packed
        // SIMD driver (when this host has lanes) must reproduce the
        // reference chain exactly, like the legacy kernels do. Runs on the
        // host's lanes and on plain so the dispatch seam itself is pinned.
        // Below `PACK_MIN_ROWS` rows `nn` takes the row kernel (never
        // packed) while `nt` still takes the packed driver; the last three
        // row counts straddle that seam.
        let mut rng = SeededRng::new(7);
        let seam = super::PACK_MIN_ROWS;
        for lanes in [Lanes::host(), Lanes::Plain] {
            for &(m, k, n) in &[
                (37, 41, 43),
                (64, 64, 64),
                (70, 33, 130),
                (1, 128, 515),
                (2, 128, 515),
                (3, 128, 128),
                (seam - 1, 128, 130),
                (seam, 128, 130),
                (seam + 1, 128, 130),
            ] {
                let a = rng.normal_matrix(m, k, 1.0);
                let b = rng.normal_matrix(k, n, 1.0);
                let bt = rng.normal_matrix(n, k, 1.0);
                let at = rng.normal_matrix(k, m, 1.0);
                let (nn, nt, tn) = with_lanes(lanes, || {
                    (
                        a.matmul(&b).unwrap(),
                        a.matmul_nt(&bt).unwrap(),
                        at.matmul_tn(&b).unwrap(),
                    )
                });
                assert_eq!(
                    nn.as_slice(),
                    reference::matmul(&a, &b).as_slice(),
                    "{lanes:?} nn bits differ at {m}x{k}x{n}"
                );
                assert_eq!(
                    nt.as_slice(),
                    reference::matmul_nt(&a, &bt).as_slice(),
                    "{lanes:?} nt bits differ at {m}x{k}x{n}"
                );
                assert_eq!(
                    tn.as_slice(),
                    reference::matmul_tn(&at, &b).as_slice(),
                    "{lanes:?} tn bits differ at {m}x{k}x{n}"
                );
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Every `A·B` below `PACK_MIN_ROWS` rows — the row tile on lanes,
        /// the plain row kernel without — is bitwise the reference on
        /// either body: `n` has tails below 8, 16 and 64
        /// columns, and `k = 0` leaves an all-zero product.
        #[test]
        fn few_row_products_are_bitwise_the_reference_oracle(
            m in 1usize..super::PACK_MIN_ROWS,
            k in 0usize..70,
            n in 1usize..130,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = SeededRng::new(seed);
            let a = rng.normal_matrix(m, k, 1.0);
            let b = rng.normal_matrix(k, n, 1.0);
            let want = bits(&reference::matmul(&a, &b));
            for lanes in [Lanes::Plain, Lanes::host()] {
                let got = with_lanes(lanes, || a.matmul(&b).unwrap());
                assert_eq!(bits(&got), want, "{lanes:?} at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn zeros_of_a_meet_non_finite_weights_alike_on_every_route() {
        // No route skips a zero of `A`: `0·∞` and `0·NaN` are NaN on the
        // row kernels, the row tile and the packed tiles alike, as in the
        // reference. Zero rows, `±0.0` and non-finite entries of `B`, at
        // row counts below and above `PACK_MIN_ROWS`.
        let mut rng = SeededRng::new(13);
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0];
        for m in [1, 3, 5, super::PACK_MIN_ROWS + 3] {
            let (k, n) = (37, 70);
            let mut a = rng.normal_matrix(m, k, 1.0);
            for (i, x) in a.iter_mut().enumerate() {
                if i % 3 == 0 || i / k == 1 {
                    *x = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            let mut b = rng.normal_matrix(k, n, 1.0);
            for (i, x) in b.iter_mut().enumerate() {
                if i % 11 == 0 {
                    *x = specials[i / 11 % specials.len()];
                }
            }
            let at = a.transpose();
            let want_nn = reference::matmul(&a, &b);
            let want_tn = reference::matmul_tn(&at, &b);
            assert!(want_nn.iter().any(|x| x.is_nan()), "the case reaches 0·∞");
            for lanes in [Lanes::Plain, Lanes::host()] {
                let (nn, tn) =
                    with_lanes(lanes, || (a.matmul(&b).unwrap(), at.matmul_tn(&b).unwrap()));
                for (got, want, op) in [(&nn, &want_nn, "nn"), (&tn, &want_tn, "tn")] {
                    for (&g, &w) in got.iter().zip(want.iter()) {
                        assert!(same(g, w), "{lanes:?} {op} m={m}: {g} vs {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn into_variants_match_and_reuse_output() {
        let mut rng = SeededRng::new(8);
        let a = rng.normal_matrix(33, 20, 1.0);
        let b = rng.normal_matrix(20, 17, 1.0);
        let mut out = Matrix::filled(33, 17, f32::NAN); // overwritten, not accumulated
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out.as_slice(), a.matmul(&b).unwrap().as_slice());
        // Second product into the same buffer: same bits again.
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out.as_slice(), a.matmul(&b).unwrap().as_slice());

        let mut wrong = Matrix::zeros(4, 4);
        assert!(a.matmul_into(&b, &mut wrong).is_err());
        assert!(a.matmul_nt_into(&b, &mut wrong).is_err());
        let bt = b.transpose();
        let mut out_nt = Matrix::zeros(33, 17);
        a.matmul_nt_into(&bt, &mut out_nt).unwrap();
        assert_eq!(out_nt.as_slice(), out.as_slice());
        let at = a.transpose();
        let mut out_tn = Matrix::zeros(33, 17);
        at.matmul_tn_into(&b, &mut out_tn).unwrap();
        assert_eq!(out_tn.as_slice(), out.as_slice());
    }

    #[test]
    fn shape_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul_nt(&Matrix::zeros(4, 4)).is_err());
        assert!(a.matmul_tn(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn empty_products() {
        // Degenerate dimensions must not panic and must keep their shapes.
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(a.matmul(&b).unwrap().shape(), (0, 3));
        let c = Matrix::zeros(3, 0);
        let d = Matrix::zeros(0, 2);
        assert_eq!(c.matmul(&d).unwrap().shape(), (3, 2));
        assert_eq!(c.matmul_nt(&Matrix::zeros(5, 0)).unwrap().shape(), (3, 5));
        assert_eq!(d.matmul_tn(&Matrix::zeros(0, 4)).unwrap().shape(), (2, 4));
    }

    #[test]
    fn dot_product() {
        assert_eq!(Matrix::dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        // Length that exercises both the unrolled body and the tail.
        let a: Vec<f32> = (0..11).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..11).map(|i| (i + 1) as f32).collect();
        let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((Matrix::dot(&a, &b) - expect).abs() < 1e-4);
    }
}
