//! Packed SIMD microkernels for the GEMM hot path, and the host's SIMD
//! capabilities.
//!
//! Products big enough to pack run here on the lanes [`Lanes`] selects
//! (`DOTA_GEMM`, see [`crate::lanes`]): `B` packed into `NR`-column strips,
//! `A` into `MR`-row panels, and `MR×NR` register tiles over AVX2 lanes
//! using *separate* multiply and add. Each output element still
//! accumulates as one ascending-`k` chain, and `a*b` followed by `+`
//! rounds exactly like the scalar code, so the lanes are **bit-identical**
//! to the plain kernels (and to the naive reference) — the committed
//! golden `results/*.json` hold with them enabled.
//!
//! `A·B` with too few rows to pack (a decode step's `x·W`) runs one more
//! lane kernel: [`few_rows`], a register tile that reads `B` in place with
//! separate multiply and add — exact too.
//!
//! Every path is deterministic: for fixed lanes the output is a pure
//! function of the operands — bitwise identical across `DOTA_THREADS`,
//! panel boundaries, and serial-vs-parallel builds.

use crate::lanes::Lanes;
use crate::pack::{pack_a_panel, pack_b_strip, Layout, PoolBuf};
use crate::Matrix;

#[cfg(feature = "parallel")]
use dota_parallel::{par_panels_mut, par_partition_mut};

/// Serial stand-in for `dota_parallel::par_partition_mut` when the
/// `parallel` feature is off: one span covering everything. Packing writes
/// are positional, so the partition never affects bits.
#[cfg(not(feature = "parallel"))]
fn par_partition_mut<T: Send>(data: &mut [T], _unit: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    if !data.is_empty() {
        f(0, data);
    }
}

/// Serial stand-in for `dota_parallel::par_panels_mut` when the `parallel`
/// feature is off, walking the identical panelization in order.
#[cfg(not(feature = "parallel"))]
fn par_panels_mut<T: Send>(
    data: &mut [T],
    unit: usize,
    panel_units: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() {
        return;
    }
    let n_units = data.len() / unit;
    let mut u = 0;
    while u < n_units {
        let len = panel_units.min(n_units - u);
        f(u, &mut data[u * unit..(u + len) * unit]);
        u += len;
    }
}

/// The old name of [`Lanes`], kept for the frozen `benchmark/`'s one call
/// (`KernelFamily::active().name()`); ROADMAP item 12 deletes it.
pub use crate::lanes::Lanes as KernelFamily;

/// Rows per microkernel tile (register blocking in the M dimension).
pub(crate) const MR: usize = 4;

/// Output columns per microkernel tile (two 8-lane vectors).
pub(crate) const NR: usize = 16;

/// Output rows per parallel work unit: panels this tall keep one worker's
/// A-panel plus one B-strip inside a typical per-core L2 while giving the
/// work-stealing scheduler enough panels to balance.
pub(crate) const MC: usize = 64;

/// The SIMD capabilities detected on this host, for bench provenance
/// (`BENCH_kernels.json`, run manifests): pool-speedup and kernel-family
/// numbers are only interpretable next to what the machine could run.
/// `avx512f` is reported as provenance only — no kernel uses it: the
/// widest lanes in the workspace are AVX2's eight (GEMM microkernels, the
/// `tanh`/GELU, `exp` and attention row kernels), which already leave GELU
/// under 10 % of a prompt position.
pub fn cpu_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        f.push("neon");
    }
    if f.is_empty() {
        f.push("none");
    }
    f
}

/// One `MR×NR` register tile on `lanes`: continues every output element's
/// ascending-k accumulation chain from the values already in `c` (row
/// stride `ldc`) across the `k` packed depth steps of `ap` (`k·MR` floats)
/// and `bp` (`k·NR`).
fn tile(lanes: Lanes, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    let k = ap.len() / MR;
    assert!(
        ap.len() == k * MR && bp.len() == k * NR && c.len() >= (MR - 1) * ldc + NR,
        "tile operands"
    );
    match lanes {
        Lanes::Plain => tile_portable(ap, bp, c, ldc),
        // SAFETY: the token proves AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2(_) => unsafe { x86::tile(ap, bp, c, ldc) },
    }
}

/// [`tile`] in plain Rust, one chain per element: the oracle of the lane
/// tile.
fn tile_portable(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    for ii in 0..MR {
        for jj in 0..NR {
            let mut acc = c[ii * ldc + jj];
            for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
                acc += a[ii] * b[jj];
            }
            c[ii * ldc + jj] = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use crate::lanes::{load, store};
    use crate::Matrix;
    use std::arch::x86_64::*;

    /// [`super::tile`] on AVX2 lanes. Separate multiply and add round
    /// exactly like the scalar `acc += a * b`, keeping the lanes
    /// bit-identical to it.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn tile(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
        debug_assert_eq!((MR, NR), (4, 16));
        // 4×16 tile = eight 8-lane accumulators: enough independent add
        // chains to hide instruction latency at two vector ops per cycle.
        let mut acc: [[__m256; 2]; MR] = std::array::from_fn(|ii| {
            let (row, _) = c[ii * ldc..][..NR].as_chunks::<8>();
            [load(&row[0]), load(&row[1])]
        });
        let (a_steps, _) = ap.as_chunks::<MR>();
        let (b_steps, _) = bp.as_chunks::<NR>();
        for (a, b) in a_steps.iter().zip(b_steps) {
            let (b, _) = b.as_chunks::<8>();
            let (b0, b1) = (load(&b[0]), load(&b[1]));
            for (row, &a) in acc.iter_mut().zip(a) {
                let a = _mm256_set1_ps(a);
                row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(a, b0));
                row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(a, b1));
            }
        }
        for (ii, row) in acc.iter().enumerate() {
            let (out, _) = c[ii * ldc..][..NR].as_chunks_mut::<8>();
            store(&mut out[0], row[0]);
            store(&mut out[1], row[1]);
        }
    }

    /// [`super::few_rows`]: rows in groups of up to four, each group's
    /// columns in register tiles as wide as eight accumulators allow, then
    /// narrower tiles, then the scalar chain for the last few columns.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn few_rows(a: &Matrix, b: &Matrix, first: usize, span: &mut [f32]) {
        let n = b.cols();
        for (g, out) in span.chunks_mut(4 * n).enumerate() {
            let row = |r: usize| a.row(first + 4 * g + r);
            match out.len() / n {
                4 => row_group(&[row(0), row(1), row(2), row(3)], b, out),
                3 => row_group(&[row(0), row(1), row(2)], b, out),
                2 => row_group(&[row(0), row(1)], b, out),
                _ => row_group(&[row(0)], b, out),
            }
        }
    }

    /// The `R` output rows `out` of `a·b`, `a` holding the rows of `A`.
    #[target_feature(enable = "avx2,fma")]
    fn row_group<const R: usize>(a: &[&[f32]; R], b: &Matrix, out: &mut [f32]) {
        let (n, w) = (b.cols(), b.as_slice());
        let mut j = 0;
        if R == 1 {
            j = tiles::<R, 8>(a, w, n, out, j);
        }
        if R <= 2 {
            j = tiles::<R, 4>(a, w, n, out, j);
        }
        j = tiles::<R, 2>(a, w, n, out, j);
        j = tiles::<R, 1>(a, w, n, out, j);
        for jj in j..n {
            for (a, o) in a.iter().zip(out.chunks_exact_mut(n)) {
                let mut acc = 0.0f32;
                for (kk, &x) in a.iter().enumerate() {
                    acc += x * w[kk * n + jj];
                }
                o[jj] = acc;
            }
        }
    }

    /// Output columns `j..end` of the `R` rows in tiles of `V` vectors for
    /// as long as a whole tile fits; returns the first column left.
    /// Per `k`, each row's `a[k]` is broadcast against `V` vectors of row
    /// `k` of `W`, read in place: every element is the chain
    /// `((0 + a₀w₀) + a₁w₁) + …`, multiply then add, like the reference.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn tiles<const R: usize, const V: usize>(
        a: &[&[f32]; R],
        w: &[f32],
        n: usize,
        out: &mut [f32],
        mut j: usize,
    ) -> usize {
        let k = a[0].len();
        while j + 8 * V <= n {
            let mut acc = [[_mm256_setzero_ps(); V]; R];
            for kk in 0..k {
                let (w, _) = w[kk * n + j..][..8 * V].as_chunks::<8>();
                let mut x = [_mm256_setzero_ps(); R];
                for (x, a) in x.iter_mut().zip(a) {
                    *x = _mm256_set1_ps(a[kk]);
                }
                for (v, w) in w.iter().enumerate() {
                    let w = load(w);
                    for (acc, &x) in acc.iter_mut().zip(&x) {
                        acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(x, w));
                    }
                }
            }
            for (acc, o) in acc.iter().zip(out.chunks_exact_mut(n)) {
                let (o, _) = o[j..][..8 * V].as_chunks_mut::<8>();
                for (o, &v) in o.iter_mut().zip(acc) {
                    store(o, v);
                }
            }
            j += 8 * V;
        }
        j
    }
}

/// Fills output rows `[first, first + span.len()/n)` of `A·B` on AVX2
/// lanes, reading `B` in place: register tiles of up to four rows and 64
/// columns, nothing packed. Every element is one ascending-`k` chain of
/// separate multiplies and adds, so the bits are the reference's.
#[cfg(target_arch = "x86_64")]
pub(crate) fn few_rows(
    _: crate::lanes::Avx2,
    a: &Matrix,
    b: &Matrix,
    first: usize,
    span: &mut [f32],
) {
    // SAFETY: the token proves AVX2 and FMA.
    unsafe { x86::few_rows(a, b, first, span) }
}

/// Runs one packed GEMM: packs `b` once (strip-parallel), then fans the
/// output's `MC`-row panels out over the work-stealing scheduler; each
/// worker packs its own A-panel into a pooled buffer and walks
/// `MR×NR` register tiles on `lanes`.
///
/// `out` must already be shaped `m_out × n_out` and zeroed (or hold the
/// values the accumulation chains should continue from).
pub(crate) fn packed_gemm(layout: Layout, a: &Matrix, b: &Matrix, out: &mut Matrix, lanes: Lanes) {
    let (m, n) = out.shape();
    let k_dim = match layout {
        Layout::Nn | Layout::Nt => a.cols(),
        Layout::Tn => a.rows(),
    };
    if m == 0 || n == 0 {
        return;
    }
    if k_dim == 0 {
        out.as_mut_slice().fill(0.0);
        return;
    }
    let n_strips = n.div_ceil(NR);
    // Both panels are written in full before they are read (the packing
    // routines zero their own padding), so neither is cleared first.
    let mut b_pack = PoolBuf::take_stale(n_strips * k_dim * NR);
    // Strips are independent: pack them across the pool. One strip is one
    // unit, so the partition is on strip boundaries.
    par_partition_mut(b_pack.as_mut_slice(), k_dim * NR, |first_strip, span| {
        for (s, strip) in span.chunks_mut(k_dim * NR).enumerate() {
            pack_b_strip(layout, b, (first_strip + s) * NR, NR, strip);
        }
    });
    let b_pack = b_pack.as_slice();

    let cols = n;
    par_panels_mut(out.as_mut_slice(), cols, MC, |first_row, span| {
        let rows = span.len() / cols;
        let row_strips = rows.div_ceil(MR);
        let mut a_pack = PoolBuf::take_stale(row_strips * MR * k_dim);
        pack_a_panel(layout, a, first_row, rows, MR, a_pack.as_mut_slice());
        let ap = a_pack.as_slice();
        // Edge tiles run through the same microkernel against a
        // zero-padded stack tile, then copy the live region back — the
        // per-element chains are identical to a full tile's.
        let mut edge = [0.0f32; MR * NR];
        for s in 0..row_strips {
            let strip_rows = MR.min(rows - s * MR);
            let a_strip = &ap[s * MR * k_dim..][..MR * k_dim];
            for js in 0..n_strips {
                let strip_cols = NR.min(n - js * NR);
                let b_strip = &b_pack[js * k_dim * NR..][..k_dim * NR];
                let c0 = s * MR * cols + js * NR;
                if strip_rows == MR && strip_cols == NR {
                    tile(
                        lanes,
                        a_strip,
                        b_strip,
                        &mut span[c0..c0 + (MR - 1) * cols + NR],
                        cols,
                    );
                } else {
                    for ii in 0..strip_rows {
                        let src = &span[c0 + ii * cols..c0 + ii * cols + strip_cols];
                        edge[ii * NR..ii * NR + strip_cols].copy_from_slice(src);
                    }
                    for ii in strip_rows..MR {
                        edge[ii * NR..(ii + 1) * NR].fill(0.0);
                    }
                    tile(lanes, a_strip, b_strip, &mut edge, NR);
                    for ii in 0..strip_rows {
                        let dst = &mut span[c0 + ii * cols..c0 + ii * cols + strip_cols];
                        dst.copy_from_slice(&edge[ii * NR..ii * NR + strip_cols]);
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{parse_family, with_lanes, GEMM_ENV};
    use crate::reference;
    use crate::rng::SeededRng;

    #[test]
    fn parse_family_clamps_to_host() {
        assert_eq!(parse_family(" Scalar "), Ok(Lanes::Plain));
        let simd = parse_family("simd");
        assert_eq!(simd.is_ok(), Lanes::host() != Lanes::Plain, "{simd:?}");
        assert_eq!(parse_family("AUTO"), Ok(Lanes::host()));
        for typo in ["typo", "", "fma"] {
            let err = parse_family(typo).unwrap_err();
            assert!(err.contains(GEMM_ENV) && err.contains(typo), "{err}");
            assert!(err.contains("auto|scalar|simd"), "{err}");
        }
    }

    /// The benchmark's provenance string names the lanes it ran on: the
    /// spelling `parse_family` maps back to the same value, under either
    /// body.
    #[test]
    fn active_name_parses_back_to_the_active_lanes() {
        for lanes in [Lanes::Plain, Lanes::host()] {
            let active = with_lanes(lanes, Lanes::active);
            assert_eq!(active, lanes);
            assert_eq!(parse_family(active.name()), Ok(active));
        }
        assert_eq!(parse_family(Lanes::active().name()), Ok(Lanes::active()));
    }

    #[test]
    fn with_family_is_scoped_to_the_calling_thread() {
        let process = Lanes::active();
        let host = Lanes::host();
        let inner = with_lanes(host, || {
            let spawned = std::thread::spawn(Lanes::active).join().unwrap();
            assert_eq!(
                spawned, process,
                "a spawned thread reads the process setting"
            );
            let nested = with_lanes(Lanes::Plain, Lanes::active);
            (nested, Lanes::active())
        });
        assert_eq!(inner, (Lanes::Plain, host), "scopes nest and restore");
        assert_eq!(Lanes::active(), process, "restored on exit");
        let unwound = std::panic::catch_unwind(|| with_lanes(Lanes::Plain, || panic!("body")));
        assert!(unwound.is_err());
        assert_eq!(Lanes::active(), process, "restored on panic");
    }

    #[test]
    fn cpu_features_nonempty() {
        assert!(!cpu_features().is_empty());
    }

    #[test]
    fn portable_tile_matches_reference_chain() {
        let mut rng = SeededRng::new(9);
        let a = rng.normal_matrix(MR, 13, 1.0);
        let b = rng.normal_matrix(13, NR, 1.0);
        let mut ap = vec![0.0; MR * 13];
        let mut bp = vec![0.0; 13 * NR];
        pack_a_panel(Layout::Nn, &a, 0, MR, MR, &mut ap);
        pack_b_strip(Layout::Nn, &b, 0, NR, &mut bp);
        let mut c = vec![0.0f32; MR * NR];
        tile_portable(&ap, &bp, &mut c, NR);
        let want = reference::matmul(&a, &b);
        for i in 0..MR {
            for j in 0..NR {
                assert_eq!(c[i * NR + j].to_bits(), want[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn stale_pack_buffers_never_reach_the_output() {
        // The panels are checked out uncleared: whatever the pool held —
        // here NaNs, longer and shorter than any panel below — must be
        // overwritten, padding lanes included, before a tile reads it.
        // Shapes off the MR/NR grid, one of them spanning two row panels.
        let poison = |len: usize| {
            let held: Vec<PoolBuf> = (0..6).map(|_| PoolBuf::take_stale(len)).collect();
            for mut buf in held {
                buf.as_mut_slice().fill(f32::NAN);
            }
        };
        let mut rng = SeededRng::new(12);
        for &(m, k, n) in &[(5, 7, 3), (37, 41, 43), (70, 33, 130), (MC + 3, 9, NR + 1)] {
            let a = rng.normal_matrix(m, k, 1.0);
            let b = rng.normal_matrix(k, n, 1.0);
            let bt = rng.normal_matrix(n, k, 1.0);
            let at = rng.normal_matrix(k, m, 1.0);
            let cases = [
                (Layout::Nn, &a, &b, reference::matmul(&a, &b)),
                (Layout::Nt, &a, &bt, reference::matmul_nt(&a, &bt)),
                (Layout::Tn, &at, &b, reference::matmul_tn(&at, &b)),
            ];
            for (layout, lhs, rhs, want) in cases {
                for (lanes, len) in [
                    (Lanes::host(), 1 << 16),
                    (Lanes::host(), 24),
                    (Lanes::Plain, 24),
                ] {
                    poison(len);
                    let mut out = Matrix::zeros(m, n);
                    packed_gemm(layout, lhs, rhs, &mut out, lanes);
                    let bits = |m: &Matrix| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&out),
                        bits(&want),
                        "{lanes:?} {m}x{k}x{n}, pool of {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_kernels_match_portable_tile_bitwise() {
        // The mul+add lane kernel must reproduce the scalar chain exactly;
        // this is the keystone of golden-result stability on lanes.
        let lanes = Lanes::host();
        if lanes == Lanes::Plain {
            return; // host without lanes: nothing to check
        }
        let mut rng = SeededRng::new(10);
        for k in [1usize, 4, 7, 64] {
            let a = rng.normal_matrix(MR, k, 1.0);
            let b = rng.normal_matrix(k, NR, 1.0);
            let mut ap = vec![0.0; MR * k];
            let mut bp = vec![0.0; k * NR];
            pack_a_panel(Layout::Nn, &a, 0, MR, MR, &mut ap);
            pack_b_strip(Layout::Nn, &b, 0, NR, &mut bp);
            let mut lane = vec![0.5f32; MR * NR];
            let mut port = vec![0.5f32; MR * NR];
            tile(lanes, &ap, &bp, &mut lane, NR);
            tile_portable(&ap, &bp, &mut port, NR);
            let lane_bits: Vec<u32> = lane.iter().map(|x| x.to_bits()).collect();
            let port_bits: Vec<u32> = port.iter().map(|x| x.to_bits()).collect();
            assert_eq!(lane_bits, port_bits, "k={k}");
        }
    }
}
