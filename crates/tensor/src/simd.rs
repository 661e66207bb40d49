//! Packed SIMD microkernels for the GEMM hot path, and the host's SIMD
//! capabilities.
//!
//! Products big enough to pack run here on the lanes [`Lanes`] selects
//! (`DOTA_GEMM`, see [`crate::lanes`]): `B` packed into `NR`-column strips,
//! `A` into `MR`-row panels, and register tiles of up to two strips each
//! way using *separate* multiply and add: sixteen lanes per register on a
//! host with AVX-512F (an `8×32` tile is sixteen registers, one per row
//! and strip), eight lanes on AVX2 (each `MR×NR` part of the tile two
//! registers per row). Each output element is one ascending-`k` chain
//! started at `+0.0` in a register, and `a*b` followed by `+` rounds
//! exactly like the scalar code, so either width is **bit-identical** to
//! the plain kernels (and to the naive reference) — the committed golden
//! `results/*.json` hold with them enabled. A tile overwrites its output
//! and reads none of it, so the output is never zeroed first.
//!
//! `A·B` with too few rows to pack (a decode step's `x·W`) runs one more
//! lane kernel: [`few_rows`], a register tile that reads `B` in place with
//! separate multiply and add — exact too. On AVX-512F a lone row runs
//! 128 columns per pass, eight sixteen-lane accumulators walking every row
//! of `B` once, before the eight-lane tiles take its last columns.
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
/// With `avx512f` the packed GEMM tiles and the one-row pass of the row
/// tile run sixteen lanes wide; every other lane kernel (the row tile's
/// multi-row groups, the `tanh`/GELU, `exp` and attention row kernels)
/// runs AVX2's eight on either host.
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

/// One register tile on `lanes`: `R` row strips by `S` column strips, `R`
/// and `S` each 1 or 2, read off the operands' lengths. Output rows
/// `0..R·MR` and columns `0..S·NR` of `c` (row stride `ldc`) get one
/// ascending-k chain each, started at `+0.0`, across the `k` packed depth
/// steps of the `R` consecutive A strips `ap` (`k·MR` floats each) and the
/// `S` consecutive B strips `bp` (`k·NR` each). Nothing of `c` is read.
fn tile(lanes: Lanes, k: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    let (r, s) = (ap.len() / (k * MR), bp.len() / (k * NR));
    assert!(
        (1..=2).contains(&r)
            && (1..=2).contains(&s)
            && ap.len() == r * k * MR
            && bp.len() == s * k * NR
            && c.len() >= (r * MR - 1) * ldc + s * NR,
        "tile operands"
    );
    match lanes {
        Lanes::Plain => tile_portable(k, ap, bp, c, ldc),
        // SAFETY: the token proves AVX2, FMA and AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2(token) if token.avx512f() => unsafe { x86::wide_tile(k, ap, bp, c, ldc) },
        // SAFETY: the token proves AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2(_) => unsafe { x86::tile(k, ap, bp, c, ldc) },
    }
}

/// [`tile`] in plain Rust, one chain per element: the oracle of the lane
/// tiles.
fn tile_portable(k: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    for (r, a) in ap.chunks_exact(k * MR).enumerate() {
        for (s, b) in bp.chunks_exact(k * NR).enumerate() {
            for ii in 0..MR {
                for jj in 0..NR {
                    let mut acc = 0.0f32;
                    for (a, b) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
                        acc += a[ii] * b[jj];
                    }
                    c[(r * MR + ii) * ldc + s * NR + jj] = acc;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use crate::lanes::{load, store};
    use crate::Matrix;
    use std::arch::x86_64::*;

    /// [`super::tile`] on AVX2 lanes, one `MR×NR` part at a time. Separate
    /// multiply and add round exactly like the scalar `acc += a * b`,
    /// keeping the lanes bit-identical to it.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn tile(k: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
        debug_assert_eq!((MR, NR), (4, 16));
        for (r, ap) in ap.chunks_exact(k * MR).enumerate() {
            for (s, bp) in bp.chunks_exact(k * NR).enumerate() {
                part(ap, bp, &mut c[r * MR * ldc + s * NR..], ldc);
            }
        }
    }

    /// One `MR×NR` part = eight 8-lane accumulators: enough independent
    /// add chains to hide instruction latency at two vector ops per cycle.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn part(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
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

    /// [`super::tile`] on sixteen AVX-512F lanes: one register per output
    /// row and column strip, so up to sixteen accumulators, each one chain
    /// per lane of separate multiplies and adds like the eight-lane tile.
    #[target_feature(enable = "avx2,fma,avx512f")]
    pub(super) fn wide_tile(k: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
        match (ap.len() / (k * MR), bp.len() / (k * NR)) {
            (2, 2) => wide::<2, 2>(k, ap, bp, c, ldc),
            (2, _) => wide::<2, 1>(k, ap, bp, c, ldc),
            (_, 2) => wide::<1, 2>(k, ap, bp, c, ldc),
            _ => wide::<1, 1>(k, ap, bp, c, ldc),
        }
    }

    /// The `R·MR × S·NR` tile of [`wide_tile`].
    #[inline]
    #[target_feature(enable = "avx2,fma,avx512f")]
    fn wide<const R: usize, const S: usize>(
        k: usize,
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
    ) {
        let a: [&[[f32; MR]]; R] =
            std::array::from_fn(|r| ap[r * k * MR..][..k * MR].as_chunks().0);
        let b: [&[[f32; NR]]; S] =
            std::array::from_fn(|s| bp[s * k * NR..][..k * NR].as_chunks().0);
        // Known lengths let the loop below index without bounds checks.
        assert!(a.iter().all(|a| a.len() == k) && b.iter().all(|b| b.len() == k));
        let mut acc = [[[_mm512_setzero_ps(); S]; MR]; R];
        for kk in 0..k {
            let b: [__m512; S] = std::array::from_fn(|s| load16(&b[s][kk]));
            for (acc, a) in acc.iter_mut().zip(&a) {
                for (row, &a) in acc.iter_mut().zip(&a[kk]) {
                    let a = _mm512_set1_ps(a);
                    for (v, &b) in row.iter_mut().zip(&b) {
                        *v = _mm512_add_ps(*v, _mm512_mul_ps(a, b));
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (ii, row) in acc.iter().enumerate() {
                let (out, _) = c[(r * MR + ii) * ldc..][..S * NR].as_chunks_mut::<NR>();
                for (out, &v) in out.iter_mut().zip(row) {
                    store16(out, v);
                }
            }
        }
    }

    /// Sixteen floats into a register, as two eight-lane halves.
    #[inline]
    #[target_feature(enable = "avx2,fma,avx512f")]
    fn load16(src: &[f32; 16]) -> __m512 {
        let (halves, _) = src.as_chunks::<8>();
        let low = _mm512_castps_pd(_mm512_castps256_ps512(load(&halves[0])));
        let high = _mm256_castps_pd(load(&halves[1]));
        _mm512_castpd_ps(_mm512_insertf64x4::<1>(low, high))
    }

    /// A register into sixteen floats, as two eight-lane halves.
    #[inline]
    #[target_feature(enable = "avx2,fma,avx512f")]
    fn store16(dst: &mut [f32; 16], v: __m512) {
        let (halves, _) = dst.as_chunks_mut::<8>();
        store(&mut halves[0], _mm512_castps512_ps256(v));
        let high = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v));
        store(&mut halves[1], _mm256_castpd_ps(high));
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
                4 => row_group(&[row(0), row(1), row(2), row(3)], b, out, 0),
                3 => row_group(&[row(0), row(1), row(2)], b, out, 0),
                2 => row_group(&[row(0), row(1)], b, out, 0),
                _ => row_group(&[row(0)], b, out, 0),
            }
        }
    }

    /// [`few_rows`] on a host with AVX-512F: a lone output row runs its
    /// columns in 128-column passes of eight sixteen-lane accumulators,
    /// each pass walking every row of `W` once, then its last columns
    /// through [`few_rows`]' tiles in place; more rows run [`few_rows`].
    #[target_feature(enable = "avx2,fma,avx512f")]
    pub(super) fn wide_few_rows(a: &Matrix, b: &Matrix, first: usize, span: &mut [f32]) {
        let (n, w) = (b.cols(), b.as_slice());
        if span.len() != n {
            return few_rows(a, b, first, span);
        }
        let x = a.row(first);
        let mut j = 0;
        while j + 128 <= n {
            let mut acc = [_mm512_setzero_ps(); 8];
            for (kk, &x) in x.iter().enumerate() {
                let (w, _) = w[kk * n + j..][..128].as_chunks::<16>();
                let x = _mm512_set1_ps(x);
                for (acc, w) in acc.iter_mut().zip(w) {
                    *acc = _mm512_add_ps(*acc, _mm512_mul_ps(x, load16(w)));
                }
            }
            let (out, _) = span[j..][..128].as_chunks_mut::<16>();
            for (out, &v) in out.iter_mut().zip(&acc) {
                store16(out, v);
            }
            j += 128;
        }
        row_group(&[x], b, span, j);
    }

    /// Columns `j..` of the `R` output rows `out` of `a·b`, `a` holding
    /// the rows of `A`.
    #[target_feature(enable = "avx2,fma")]
    fn row_group<const R: usize>(a: &[&[f32]; R], b: &Matrix, out: &mut [f32], mut j: usize) {
        let (n, w) = (b.cols(), b.as_slice());
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

/// Fills output rows `[first, first + span.len()/n)` of `A·B` on the
/// token's lanes, reading `B` in place: register tiles of up to four rows
/// and 64 columns, nothing packed — and where the token says AVX-512F, one
/// lone row in 128-column passes of sixteen-lane accumulators first. Every
/// element is one ascending-`k` chain of separate multiplies and adds, so
/// the bits are the reference's.
#[cfg(target_arch = "x86_64")]
pub(crate) fn few_rows(
    token: crate::lanes::Avx2,
    a: &Matrix,
    b: &Matrix,
    first: usize,
    span: &mut [f32],
) {
    if token.avx512f() {
        // SAFETY: the token proves AVX2, FMA and AVX-512F.
        unsafe { x86::wide_few_rows(a, b, first, span) }
    } else {
        // SAFETY: the token proves AVX2 and FMA.
        unsafe { x86::few_rows(a, b, first, span) }
    }
}

/// Runs one packed GEMM: packs `b` once (strip-parallel), then fans the
/// output's `MC`-row panels out over the work-stealing scheduler; each
/// worker packs its own A-panel into a pooled buffer and walks register
/// tiles of up to two row strips by two column strips on `lanes`.
///
/// `out` must already be shaped `m_out × n_out`; every element is
/// overwritten and none is read.
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
        // A tile past the output's edge runs into a stack tile — its
        // padding rows and columns are the packs' zeros — and only its
        // live region is copied out: the per-element chains are those of
        // a full tile.
        let mut edge = [0.0f32; 4 * MR * NR];
        for s in (0..row_strips).step_by(2) {
            let tile_rows = MR * (row_strips - s).min(2);
            let live_rows = (rows - s * MR).min(tile_rows);
            let a_tile = &ap[s * MR * k_dim..][..tile_rows * k_dim];
            for js in (0..n_strips).step_by(2) {
                let tile_cols = NR * (n_strips - js).min(2);
                let live_cols = (n - js * NR).min(tile_cols);
                let b_tile = &b_pack[js * k_dim * NR..][..tile_cols * k_dim];
                let c0 = s * MR * cols + js * NR;
                if live_rows == tile_rows && live_cols == tile_cols {
                    let c = &mut span[c0..c0 + (tile_rows - 1) * cols + tile_cols];
                    tile(lanes, k_dim, a_tile, b_tile, c, cols);
                } else {
                    tile(lanes, k_dim, a_tile, b_tile, &mut edge, tile_cols);
                    for ii in 0..live_rows {
                        let dst = &mut span[c0 + ii * cols..][..live_cols];
                        dst.copy_from_slice(&edge[ii * tile_cols..][..live_cols]);
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
    use proptest::prelude::*;

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

    /// The `r·MR × s·NR` product of random operands, packed: `(a, b, ap,
    /// bp)` with `ap` the `r` A strips and `bp` the `s` B strips of depth
    /// `k`.
    fn packed_operands(
        rng: &mut SeededRng,
        r: usize,
        k: usize,
        s: usize,
    ) -> (Matrix, Matrix, Vec<f32>, Vec<f32>) {
        let a = rng.normal_matrix(r * MR, k, 1.0);
        let b = rng.normal_matrix(k, s * NR, 1.0);
        let (mut ap, mut bp) = (vec![0.0; r * MR * k], vec![0.0; s * NR * k]);
        pack_a_panel(Layout::Nn, &a, 0, r * MR, MR, &mut ap);
        for (j, strip) in bp.chunks_exact_mut(k * NR).enumerate() {
            pack_b_strip(Layout::Nn, &b, j * NR, NR, strip);
        }
        (a, b, ap, bp)
    }

    #[test]
    fn portable_tile_matches_reference_chain() {
        let mut rng = SeededRng::new(9);
        for (r, s) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            let (a, b, ap, bp) = packed_operands(&mut rng, r, 13, s);
            let mut c = vec![f32::NAN; r * MR * s * NR];
            tile_portable(13, &ap, &bp, &mut c, s * NR);
            let c = Matrix::from_vec(r * MR, s * NR, c).unwrap();
            assert_eq!(bits(&c), bits(&reference::matmul(&a, &b)), "{r}x{s} strips");
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
                    assert_eq!(
                        bits(&out),
                        bits(&want),
                        "{lanes:?} {m}x{k}x{n}, pool of {len}"
                    );
                }
            }
        }
    }

    /// The lanes of this host at either tile width: the narrowed token
    /// (the eight-lane tile an AVX2-only host runs) and, where the host
    /// has AVX-512F, the host's own (the sixteen-lane tile). On a host
    /// without it, says so once per call.
    fn tile_widths() -> Vec<Lanes> {
        let host = Lanes::host();
        if host == Lanes::Plain {
            println!("note: no AVX2+FMA lanes on this host; only the plain tile ran");
            return Vec::new();
        }
        if host == host.narrow() {
            println!("note: no AVX-512F on this host; the 16-lane tile was skipped");
            return vec![host];
        }
        vec![host.narrow(), host]
    }

    /// The keystone of golden-result stability on lanes: the multiply+add
    /// lane tiles, eight and sixteen lanes wide, at every strip shape and
    /// random depths from 1, reproduce the portable chains bit for bit
    /// into an output that held NaN.
    #[test]
    fn lane_kernels_match_portable_tile_bitwise() {
        let mut rng = SeededRng::new(10);
        let widths = tile_widths();
        let depths = [1, 2, 3, 4, 7, 16, 31, 64, 129];
        let depths = depths.into_iter().chain((0..8).map(|_| 1 + rng.below(200)));
        for k in depths.collect::<Vec<_>>() {
            for (r, s) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                let (_, _, ap, bp) = packed_operands(&mut rng, r, k, s);
                let mut port = vec![f32::NAN; r * MR * s * NR];
                tile_portable(k, &ap, &bp, &mut port, s * NR);
                for &lanes in &widths {
                    let mut lane = vec![f32::NAN; r * MR * s * NR];
                    tile(lanes, k, &ap, &bp, &mut lane, s * NR);
                    let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&lane), bits(&port), "{lanes:?} k={k} {r}x{s}");
                }
            }
        }
        if widths.len() == 2 {
            println!("ran the 16-lane GEMM tile");
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// The packed driver on the plain tile, the eight-lane tile and
        /// (on a host with AVX-512F) the sixteen-lane tile is bitwise the
        /// reference, in every layout: odd strip counts, partial strips,
        /// row counts off `MR` and past one `MC` panel, into an output
        /// full of NaN, which the tiles never read.
        #[test]
        fn packed_driver_on_each_width_is_bitwise_the_reference_oracle(
            m in 1usize..MC + 20,
            k in 1usize..48,
            n in 1usize..5 * NR + 8,
            layout in 0usize..3,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = SeededRng::new(seed);
            let (layout, lhs, rhs, want) = match layout {
                0 => {
                    let (a, b) = (rng.normal_matrix(m, k, 1.0), rng.normal_matrix(k, n, 1.0));
                    let want = reference::matmul(&a, &b);
                    (Layout::Nn, a, b, want)
                }
                1 => {
                    let (a, b) = (rng.normal_matrix(m, k, 1.0), rng.normal_matrix(n, k, 1.0));
                    let want = reference::matmul_nt(&a, &b);
                    (Layout::Nt, a, b, want)
                }
                _ => {
                    let (a, b) = (rng.normal_matrix(k, m, 1.0), rng.normal_matrix(k, n, 1.0));
                    let want = reference::matmul_tn(&a, &b);
                    (Layout::Tn, a, b, want)
                }
            };
            for lanes in std::iter::once(Lanes::Plain).chain(tile_widths()) {
                let mut out = Matrix::filled(m, n, f32::NAN);
                packed_gemm(layout, &lhs, &rhs, &mut out, lanes);
                assert_eq!(bits(&out), bits(&want), "{lanes:?} at {m}x{k}x{n}");
            }
        }
    }
}
