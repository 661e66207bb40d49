//! Panel packing and reusable pack buffers for the packed GEMM kernels.
//!
//! The packed kernels (see [`crate::simd`]) never walk the operand
//! matrices directly: the driver copies them into *panels* — `MR`- and
//! `NR`-interleaved buffers laid out exactly in the order the microkernel
//! consumes them — so the inner loop issues nothing but contiguous,
//! aligned streams. Packing is O(m·k + k·n) against O(m·k·n) arithmetic,
//! so it amortizes for everything but the smallest products (which stay on
//! the scalar kernels, see `gemm.rs`).
//!
//! Buffers come from a small process-global free list instead of fresh
//! allocations: the thread pool spawns scoped workers per dispatch, so
//! thread-locals would die with them, but the free list survives — after
//! the first few calls the packed path's steady-state heap traffic is
//! zero. `dota-bench`'s `tests/alloc_pins.rs` holds it to a budget under
//! `prof-alloc`.

use crate::Matrix;
use std::sync::Mutex;

/// Maximum number of idle buffers retained on the free list. Enough for
/// every worker of a wide pool to hold an A-panel plus the shared B-panel,
/// without hoarding unbounded memory after a burst of large products.
const POOL_CAP: usize = 32;

static POOL: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

/// An `f32` buffer checked out of the free list — zero-filled by
/// [`PoolBuf::take`], as found by [`PoolBuf::take_stale`]; returns there
/// on drop. Capacity is retained across uses, so repeated GEMMs of the
/// same shapes reach a steady state with no heap traffic at all.
pub(crate) struct PoolBuf {
    buf: Vec<f32>,
}

impl PoolBuf {
    /// Checks a buffer of `len` zeroed elements out of the pool.
    pub(crate) fn take(len: usize) -> Self {
        let mut taken = Self::take_stale(0);
        taken.buf.resize(len, 0.0);
        taken
    }

    /// Checks a buffer of `len` elements out of the pool as its last user
    /// left it (zeros past what that user held): for the pack panels, whose
    /// every element — padding included — the packing routines write
    /// before the microkernel reads any. Saves a memset the size of both
    /// panels per product.
    pub(crate) fn take_stale(len: usize) -> Self {
        let mut buf = POOL
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        buf.resize(len, 0.0);
        Self { buf }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf
    }

    /// The buffer at `len` elements: what it already held up to there
    /// (zeros past it), for callers that overwrite all of it anyway.
    pub(crate) fn resized(&mut self, len: usize) -> &mut [f32] {
        self.buf.resize(len, 0.0);
        &mut self.buf
    }

    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.buf
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(std::mem::take(&mut self.buf));
        }
    }
}

/// Which operand traversal a product layout needs (see `gemm.rs`): the
/// packed driver is layout-agnostic once packing has normalized both
/// operands, so the layout only decides *how* panels are gathered.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `A·B`: `a` is `m×k` row-major, `b` is `k×n` row-major.
    Nn,
    /// `A·Bᵀ`: `a` is `m×k`, `b` is `n×k` (`b`'s *rows* are key vectors).
    Nt,
    /// `Aᵀ·B`: `a` is `k×m` (output row `i` is column `i` of `a`), `b` is
    /// `k×n`.
    Tn,
}

/// Packs the `nr`-wide output-column strip starting at `j0` of the right
/// operand into `bp`, k-major and `nr`-interleaved: `bp[k*nr + jj]` is the
/// element multiplying into output column `j0 + jj` at depth `k`. Columns
/// past the matrix edge pack as zeros (padding lanes never reach the
/// output, so they only need to be finite).
pub(crate) fn pack_b_strip(layout: Layout, b: &Matrix, j0: usize, nr: usize, bp: &mut [f32]) {
    let k_dim = match layout {
        Layout::Nn | Layout::Tn => b.rows(),
        Layout::Nt => b.cols(),
    };
    let n_out = match layout {
        Layout::Nn | Layout::Tn => b.cols(),
        Layout::Nt => b.rows(),
    };
    debug_assert!(bp.len() >= k_dim * nr);
    let width = nr.min(n_out - j0);
    match layout {
        Layout::Nn | Layout::Tn => {
            // b[k, j0 + jj]: each depth step is a contiguous row segment.
            for k in 0..k_dim {
                let src = &b.row(k)[j0..j0 + width];
                let dst = &mut bp[k * nr..k * nr + nr];
                dst[..width].copy_from_slice(src);
                dst[width..].fill(0.0);
            }
        }
        Layout::Nt => {
            // b[j0 + jj, k]: stream each key row once, scattering at
            // stride `nr` — the strip stays cache-resident while the row
            // read is perfectly sequential.
            if width < nr {
                bp[..k_dim * nr].fill(0.0);
            }
            for jj in 0..width {
                let src = b.row(j0 + jj);
                for (k, &x) in src.iter().enumerate() {
                    bp[k * nr + jj] = x;
                }
            }
        }
    }
}

/// Packs the `rows`-row panel starting at output row `i0` of the left
/// operand into `ap`, as consecutive `mr`-row strips, each k-major and
/// `mr`-interleaved: strip `s` occupies `ap[s*mr*k_dim..]` with
/// `ap[strip][k*mr + ii]` the element of output row `i0 + s*mr + ii` at
/// depth `k`. Rows past `rows` pack as zeros.
pub(crate) fn pack_a_panel(
    layout: Layout,
    a: &Matrix,
    i0: usize,
    rows: usize,
    mr: usize,
    ap: &mut [f32],
) {
    let k_dim = match layout {
        Layout::Nn | Layout::Nt => a.cols(),
        Layout::Tn => a.rows(),
    };
    let strips = rows.div_ceil(mr);
    debug_assert!(ap.len() >= strips * mr * k_dim);
    for s in 0..strips {
        let strip = &mut ap[s * mr * k_dim..(s + 1) * mr * k_dim];
        let height = mr.min(rows - s * mr);
        match layout {
            Layout::Nn | Layout::Nt => {
                if height < mr {
                    strip.fill(0.0);
                }
                for ii in 0..height {
                    let src = a.row(i0 + s * mr + ii);
                    for (k, &x) in src.iter().enumerate() {
                        strip[k * mr + ii] = x;
                    }
                }
            }
            Layout::Tn => {
                // Output row `i` is column `i` of `a`: gather the strided
                // column reads once here so the microkernel never strides.
                for k in 0..k_dim {
                    let src = a.row(k);
                    let dst = &mut strip[k * mr..(k + 1) * mr];
                    for ii in 0..mr {
                        dst[ii] = if ii < height {
                            src[i0 + s * mr + ii]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_capacity() {
        let first = {
            let mut b = PoolBuf::take(1024);
            b.as_mut_slice()[0] = 3.0;
            b.as_slice().as_ptr() as usize
        };
        // The buffer went back to the pool; the next same-size checkout
        // reuses it (same backing allocation) and is zeroed again.
        let b = PoolBuf::take(1024);
        assert_eq!(b.as_slice().as_ptr() as usize, first);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pack_b_nn_layout_and_padding() {
        let b = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        let nr = 4;
        let mut bp = vec![f32::NAN; b.rows() * nr];
        pack_b_strip(Layout::Nn, &b, 4, nr, &mut bp);
        // One valid column (j=4), three zero padding lanes.
        for k in 0..3 {
            assert_eq!(bp[k * nr], (k * 10 + 4) as f32);
            assert_eq!(&bp[k * nr + 1..k * nr + 4], &[0.0, 0.0, 0.0]);
        }
    }

    #[test]
    fn pack_b_nt_matches_transposed_nn() {
        let b = Matrix::from_fn(6, 3, |r, c| (r * 10 + c) as f32);
        let bt = b.transpose();
        let nr = 4;
        let mut via_nt = vec![f32::NAN; b.cols() * nr];
        let mut via_nn = vec![f32::NAN; bt.rows() * nr];
        pack_b_strip(Layout::Nt, &b, 2, nr, &mut via_nt);
        pack_b_strip(Layout::Nn, &bt, 2, nr, &mut via_nn);
        assert_eq!(via_nt, via_nn);
    }

    #[test]
    fn pack_a_tn_matches_transposed_nn() {
        let a = Matrix::from_fn(5, 7, |r, c| (r * 10 + c) as f32);
        let at = a.transpose();
        let mr = 4;
        let rows = 6usize;
        let mut via_tn = vec![f32::NAN; rows.div_ceil(mr) * mr * a.rows()];
        let mut via_nn = vec![f32::NAN; rows.div_ceil(mr) * mr * at.cols()];
        pack_a_panel(Layout::Tn, &a, 1, rows, mr, &mut via_tn);
        pack_a_panel(Layout::Nn, &at, 1, rows, mr, &mut via_nn);
        assert_eq!(via_tn, via_nn);
    }
}
