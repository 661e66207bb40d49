//! Kernel families and packed SIMD microkernels for the GEMM hot path.
//!
//! Three families cover every host:
//!
//! * **`scalar`** — the original blocked/4-wide-unrolled kernels in
//!   `gemm.rs`: portable, and the correctness oracle the other families
//!   are property-tested against.
//! * **`simd`** — packed microkernels over `std::arch` f32 lanes (AVX2 on
//!   x86-64, NEON on aarch64) using *separate* multiply and add. Each
//!   output element still accumulates as one ascending-`k` chain, and
//!   `a*b` followed by `+` rounds exactly like the scalar code, so this
//!   family is **bit-identical** to `scalar` (and to the naive reference)
//!   — the committed golden `results/*.json` hold with it enabled. This is
//!   the `auto` default wherever the lanes exist.
//! * **`fma`** — the same packed microkernels with fused multiply-add.
//!   Fusing skips the intermediate rounding after the multiply, so results
//!   differ from `scalar` in the low bits (documented tolerance: a few
//!   ULPs per accumulation step; the property tests in
//!   `tests/simd_kernels.rs` pin it). Opt-in only, because bit-stability
//!   of recorded results is a repo-wide invariant; regenerate goldens
//!   deliberately if you switch training or figure runs to this family.
//!
//! `A·B` with too few rows to pack (a decode step's `x·W`) runs one more
//! lane kernel under `simd` and `fma` alike: [`few_rows`], a register tile
//! that reads `B` in place with separate multiply and add — exact under
//! both families.
//!
//! Selection is `DOTA_GEMM` ∈ {`auto`, `scalar`, `simd`, `fma`}, read once
//! per process by one parser ([`parse_family`]) against the host's lanes
//! (on x86-64, AVX2 and FMA together: [`crate::lanes`]); a requested
//! family the host cannot run, or a malformed value, falls back to `auto`
//! in [`KernelFamily::active`], while front ends reject both up front. An
//! in-process choice is a scoped value on the calling thread,
//! [`with_family`].
//!
//! Every other lane kernel — `tanh`/GELU, `exp`/softmax, the attention
//! row, top-k selection and `dota-quant`'s integer products — follows the
//! same selection through one value, [`crate::lanes::Lanes`]: `scalar`
//! runs the plain bodies, `simd` and `fma` the 8-lane kernels. None of
//! them has an inexact flavour: their bits are the same under all three.
//!
//! Every family is deterministic: for a fixed kernel family the output is
//! a pure function of the operands — bitwise identical across
//! `DOTA_THREADS`, panel boundaries, and serial-vs-parallel builds.

use crate::lanes;
use crate::pack::{pack_a_panel, pack_b_strip, Layout, PoolBuf};
use crate::Matrix;
use std::cell::Cell;
use std::sync::OnceLock;

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

/// Name of the environment variable selecting the kernel family.
pub const GEMM_ENV: &str = "DOTA_GEMM";

/// Rows per microkernel tile (register blocking in the M dimension).
pub(crate) const MR: usize = 4;

/// Output columns per microkernel tile on x86-64 (two 8-lane vectors);
/// aarch64 and the scalar edge kernel use the same logical width so panel
/// layouts are identical across architectures.
pub(crate) const NR: usize = 16;

/// Output rows per parallel work unit: panels this tall keep one worker's
/// A-panel plus one B-strip inside a typical per-core L2 while giving the
/// work-stealing scheduler enough panels to balance.
pub(crate) const MC: usize = 64;

/// A GEMM kernel family — see the module docs for the contract of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFamily {
    /// Portable blocked/unrolled scalar kernels (the oracle).
    Scalar,
    /// Packed mul+add SIMD microkernels, bit-identical to `Scalar`.
    Simd,
    /// Packed fused-multiply-add microkernels, fastest, numerics shift.
    Fma,
}

impl KernelFamily {
    /// The family's `DOTA_GEMM` spelling.
    pub fn name(self) -> &'static str {
        match self {
            KernelFamily::Scalar => "scalar",
            KernelFamily::Simd => "simd",
            KernelFamily::Fma => "fma",
        }
    }

    /// The family a product started on this thread runs: the innermost
    /// [`with_family`] scope's, else `DOTA_GEMM` (default `auto`) read once
    /// per process through [`parse_family`], silently `auto` where that is
    /// an error. A GEMM resolves it on the dispatching thread and hands it
    /// to its pool panels; a product started by a `dota_parallel::par_map`
    /// worker (the per-head attention fan-out) runs under the process
    /// setting. The decode forward reads it once and passes it to every
    /// product through [`Matrix::gemm_into`].
    pub fn active() -> KernelFamily {
        static PROCESS: OnceLock<KernelFamily> = OnceLock::new();
        SCOPED.with(Cell::get).unwrap_or_else(|| {
            *PROCESS.get_or_init(|| {
                parse_family(&std::env::var(GEMM_ENV).unwrap_or_default())
                    .unwrap_or_else(|_| auto())
            })
        })
    }
}

thread_local! {
    /// The family of the innermost [`with_family`] scope on this thread.
    static SCOPED: Cell<Option<KernelFamily>> = const { Cell::new(None) };
}

/// Runs `body` with products started on the calling thread under `family`
/// (a family without lanes on this host runs the plain bodies), then
/// restores the previous choice — also when `body` panics. Scopes nest;
/// other threads, including threads `body` spawns itself, keep the process
/// setting.
pub fn with_family<R>(family: KernelFamily, body: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelFamily>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(family))));
    body()
}

/// What `auto` resolves to: `simd` on a host with lanes, else `scalar` —
/// never the numerics-shifting `fma`.
fn auto() -> KernelFamily {
    if lanes::host_has_lanes() {
        KernelFamily::Simd
    } else {
        KernelFamily::Scalar
    }
}

/// The family `DOTA_GEMM=value` selects on this host: the one parser of
/// the variable, behind [`KernelFamily::active`] and the front ends'
/// up-front validation, which reports what this returns instead of
/// falling back — a typo'd family would invalidate a benchmark.
///
/// # Errors
///
/// A description of the bad value when it is not one of
/// `auto`/`scalar`/`simd`/`fma` (in any case, blanks around it ignored),
/// or names a family the host's CPU cannot run.
pub fn parse_family(value: &str) -> Result<KernelFamily, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "auto" => Ok(auto()),
        "scalar" => Ok(KernelFamily::Scalar),
        "simd" | "fma" if !lanes::host_has_lanes() => Err(format!(
            "{GEMM_ENV}={value} requires SIMD lanes this CPU does not report \
             (detected: {})",
            cpu_features().join("+")
        )),
        "simd" => Ok(KernelFamily::Simd),
        "fma" => Ok(KernelFamily::Fma),
        _ => Err(format!(
            "{GEMM_ENV} must be one of auto|scalar|simd|fma, got `{value}`"
        )),
    }
}

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

/// The register-tile kernel of a packed product, chosen once per product.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Micro {
    /// AVX2 tiles, fused for the `fma` family.
    #[cfg(target_arch = "x86_64")]
    Avx2(lanes::Avx2, bool),
    /// NEON tiles, fused for the `fma` family.
    #[cfg(target_arch = "aarch64")]
    Neon(bool),
}

impl Micro {
    /// The lane tile of `family`, or `None` when it has no lanes here.
    fn of(family: KernelFamily) -> Option<Micro> {
        let fused = family == KernelFamily::Fma;
        #[cfg(target_arch = "x86_64")]
        if let lanes::Lanes::Avx2(token) = lanes::Lanes::of(family) {
            return Some(Micro::Avx2(token, fused));
        }
        #[cfg(target_arch = "aarch64")]
        if family != KernelFamily::Scalar {
            return Some(Micro::Neon(fused));
        }
        let _ = fused;
        None
    }

    /// One `MR×NR` register tile: continues every output element's
    /// ascending-k accumulation chain from the values already in `c` (row
    /// stride `ldc`) across the `k` packed depth steps of `ap` (`k·MR`
    /// floats) and `bp` (`k·NR`).
    fn tile(self, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
        let k = ap.len() / MR;
        assert!(
            ap.len() == k * MR && bp.len() == k * NR && c.len() >= (MR - 1) * ldc + NR,
            "tile operands"
        );
        match self {
            // SAFETY: the token proves AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Micro::Avx2(_, fused) => unsafe {
                if fused {
                    x86::tile_fused(ap, bp, c, ldc)
                } else {
                    x86::tile_exact(ap, bp, c, ldc)
                }
            },
            // SAFETY: NEON is baseline; the lengths asserted above are the
            // bounds the kernels read and write.
            #[cfg(target_arch = "aarch64")]
            Micro::Neon(fused) => unsafe {
                let (ap, bp, c) = (ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr());
                if fused {
                    arm::micro_neon_fma(k, ap, bp, c, ldc)
                } else {
                    arm::micro_neon_exact(k, ap, bp, c, ldc)
                }
            },
        }
    }
}

/// [`Micro::tile`] in plain Rust, one chain per element: the oracle of the
/// lane tiles.
#[cfg(test)]
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

    macro_rules! avx2_tile {
        ($name:ident, $mac:expr) => {
            /// [`super::Micro::tile`] on AVX2 lanes.
            #[target_feature(enable = "avx2,fma")]
            pub(super) fn $name(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
                debug_assert_eq!((MR, NR), (4, 16));
                // 4×16 tile = eight 8-lane accumulators: enough
                // independent add/FMA chains to hide instruction latency
                // at two vector ops per cycle.
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
                        row[0] = $mac(row[0], a, b0);
                        row[1] = $mac(row[1], a, b1);
                    }
                }
                for (ii, row) in acc.iter().enumerate() {
                    let (out, _) = c[ii * ldc..][..NR].as_chunks_mut::<8>();
                    store(&mut out[0], row[0]);
                    store(&mut out[1], row[1]);
                }
            }
        };
    }

    // Exact family: separate multiply and add round exactly like the
    // scalar `acc += a * b`, keeping the family bit-identical to it.
    avx2_tile!(tile_exact, |acc, a, b| _mm256_add_ps(
        acc,
        _mm256_mul_ps(a, b)
    ));
    // FMA family: single rounding per step — faster, low bits differ.
    avx2_tile!(tile_fused, |acc, a, b| _mm256_fmadd_ps(a, b, acc));

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

    /// The `fma` family's matvec: per row four 8-lane accumulator chains
    /// over 32 floats a step, then the remaining eights on the first, a
    /// lane reduction and the scalar tail — reassociated, so not
    /// bit-compatible with the sequential scalar chain.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn matvec_fma(m: &Matrix, v: &[f32]) -> Vec<f32> {
        let (v8, _) = v.as_chunks::<8>();
        let whole = v8.len() * 8;
        m.rows_iter()
            .map(|row| {
                let (a8, _) = row.as_chunks::<8>();
                let mut acc = [_mm256_setzero_ps(); 4];
                for (a4, b4) in a8.chunks_exact(4).zip(v8.chunks_exact(4)) {
                    for ((lane, a), b) in acc.iter_mut().zip(a4).zip(b4) {
                        *lane = _mm256_fmadd_ps(load(a), load(b), *lane);
                    }
                }
                let done = a8.len() / 4 * 4;
                for (a, b) in a8[done..].iter().zip(&v8[done..]) {
                    acc[0] = _mm256_fmadd_ps(load(a), load(b), acc[0]);
                }
                let sum =
                    _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
                let mut lanes = [0.0f32; 8];
                store(&mut lanes, sum);
                let mut total: f32 = lanes.iter().sum();
                for (a, b) in row[whole..].iter().zip(&v[whole..]) {
                    total = a.mul_add(*b, total);
                }
                total
            })
            .collect()
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{MR, NR};
    use std::arch::aarch64::*;

    macro_rules! neon_micro {
        ($name:ident, $mac:expr) => {
            /// # Safety
            ///
            /// See [`super::Micro::tile`]: `ap` must hold `k*MR` readable
            /// floats, `bp` `k*NR`, and `c` an `MR`-row × `NR`-column tile
            /// at row stride `ldc`. NEON is baseline on aarch64.
            pub unsafe fn $name(
                k: usize,
                mut ap: *const f32,
                mut bp: *const f32,
                c: *mut f32,
                ldc: usize,
            ) {
                debug_assert_eq!((MR, NR), (4, 16));
                // Same logical 4×16 tile as x86, as four 4-lane vectors
                // per row so the panel layouts match across architectures.
                let mut acc: [[float32x4_t; 4]; 4] = [[vdupq_n_f32(0.0); 4]; 4];
                for (ii, row) in acc.iter_mut().enumerate() {
                    for (q, lane) in row.iter_mut().enumerate() {
                        *lane = vld1q_f32(c.add(ii * ldc + 4 * q));
                    }
                }
                for _ in 0..k {
                    let b: [float32x4_t; 4] = [
                        vld1q_f32(bp),
                        vld1q_f32(bp.add(4)),
                        vld1q_f32(bp.add(8)),
                        vld1q_f32(bp.add(12)),
                    ];
                    for (ii, row) in acc.iter_mut().enumerate() {
                        let a = vdupq_n_f32(*ap.add(ii));
                        for (lane, &bq) in row.iter_mut().zip(b.iter()) {
                            *lane = $mac(*lane, a, bq);
                        }
                    }
                    ap = ap.add(MR);
                    bp = bp.add(NR);
                }
                for (ii, row) in acc.iter().enumerate() {
                    for (q, &lane) in row.iter().enumerate() {
                        vst1q_f32(c.add(ii * ldc + 4 * q), lane);
                    }
                }
            }
        };
    }

    neon_micro!(micro_neon_exact, |acc, a, b| vaddq_f32(
        acc,
        vmulq_f32(a, b)
    ));
    neon_micro!(micro_neon_fma, |acc, a, b| vfmaq_f32(acc, b, a));

    /// Reassociated FMA dot product (four 4-lane chains); see the x86
    /// counterpart for the contract.
    ///
    /// # Safety
    ///
    /// Slices must be equal length. NEON is baseline on aarch64.
    pub unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc = [vdupq_n_f32(0.0); 4];
        let mut i = 0;
        while i + 16 <= n {
            for (q, lane) in acc.iter_mut().enumerate() {
                let av = vld1q_f32(a.as_ptr().add(i + 4 * q));
                let bv = vld1q_f32(b.as_ptr().add(i + 4 * q));
                *lane = vfmaq_f32(*lane, av, bv);
            }
            i += 16;
        }
        while i + 4 <= n {
            let av = vld1q_f32(a.as_ptr().add(i));
            let bv = vld1q_f32(b.as_ptr().add(i));
            acc[0] = vfmaq_f32(acc[0], av, bv);
            i += 4;
        }
        let sum = vaddq_f32(vaddq_f32(acc[0], acc[1]), vaddq_f32(acc[2], acc[3]));
        let mut total = vaddvq_f32(sum);
        while i < n {
            total = a[i].mul_add(b[i], total);
            i += 1;
        }
        total
    }
}

/// The `fma` family's matvec, or `None` under any other family (callers
/// then use the exact sequential chain). Documented numerics shift: the
/// four partial chains plus fused rounding make every row differ from the
/// scalar chain in the low bits, like the `fma` GEMM family it belongs to.
pub(crate) fn fma_matvec(m: &Matrix, v: &[f32]) -> Option<Vec<f32>> {
    debug_assert_eq!(m.cols(), v.len());
    match Micro::of(KernelFamily::active())? {
        // SAFETY: the token proves AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Micro::Avx2(_, true) => Some(unsafe { x86::matvec_fma(m, v) }),
        // SAFETY: NEON is baseline; every row has `v.len()` floats.
        #[cfg(target_arch = "aarch64")]
        Micro::Neon(true) => Some(
            m.rows_iter()
                .map(|row| unsafe { arm::dot_fma(row, v) })
                .collect(),
        ),
        _ => None,
    }
}

/// Fills output rows `[first, first + span.len()/n)` of `A·B` on AVX2
/// lanes, reading `B` in place: register tiles of up to four rows and 64
/// columns, nothing packed. Every element is one ascending-`k` chain of
/// separate multiplies and adds, so the bits are the reference's under
/// every family — `fma` included, which fuses only packed tiles.
#[cfg(target_arch = "x86_64")]
pub(crate) fn few_rows(_: lanes::Avx2, a: &Matrix, b: &Matrix, first: usize, span: &mut [f32]) {
    // SAFETY: the token proves AVX2 and FMA.
    unsafe { x86::few_rows(a, b, first, span) }
}

/// The tile kernel a product of `flops` multiply-adds takes under
/// `family`, or `None` for the legacy blocked kernels: without lanes, and
/// below the cutoff, where the packing copies cost more than they save
/// (same bits for the `simd` family, so the cutoff is purely a
/// performance knob).
pub(crate) fn packed_kernel(family: KernelFamily, flops: usize) -> Option<Micro> {
    const PACK_CUTOFF_FLOPS: usize = 16 * 16 * 16;
    if flops < PACK_CUTOFF_FLOPS {
        return None;
    }
    Micro::of(family)
}

/// Runs one packed GEMM: packs `b` once (strip-parallel), then fans the
/// output's `MC`-row panels out over the work-stealing scheduler; each
/// worker packs its own A-panel into a pooled buffer and walks
/// `MR×NR` register tiles with `micro`.
///
/// `out` must already be shaped `m_out × n_out` and zeroed (or hold the
/// values the accumulation chains should continue from).
pub(crate) fn packed_gemm(layout: Layout, a: &Matrix, b: &Matrix, out: &mut Matrix, micro: Micro) {
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
                    micro.tile(
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
                    micro.tile(a_strip, b_strip, &mut edge, NR);
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
    use crate::reference;
    use crate::rng::SeededRng;

    #[test]
    fn parse_family_clamps_to_host() {
        assert_eq!(parse_family(" Scalar "), Ok(KernelFamily::Scalar));
        let simd = parse_family("simd");
        assert_eq!(simd.is_ok(), lanes::host_has_lanes(), "{simd:?}");
        // auto never selects the numerics-shifting family.
        assert_eq!(parse_family("AUTO"), Ok(auto()));
        assert_ne!(auto(), KernelFamily::Fma);
        for typo in ["typo", ""] {
            let err = parse_family(typo).unwrap_err();
            assert!(err.contains(GEMM_ENV) && err.contains(typo), "{err}");
        }
    }

    #[test]
    fn with_family_is_scoped_to_the_calling_thread() {
        let process = KernelFamily::active();
        let inner = with_family(KernelFamily::Fma, || {
            let spawned = std::thread::spawn(KernelFamily::active).join().unwrap();
            assert_eq!(
                spawned, process,
                "a spawned thread reads the process setting"
            );
            let nested = with_family(KernelFamily::Scalar, KernelFamily::active);
            (nested, KernelFamily::active())
        });
        let want = (KernelFamily::Scalar, KernelFamily::Fma);
        assert_eq!(inner, want, "scopes nest and restore");
        assert_eq!(KernelFamily::active(), process, "restored on exit");
        let unwound =
            std::panic::catch_unwind(|| with_family(KernelFamily::Scalar, || panic!("body")));
        assert!(unwound.is_err());
        assert_eq!(KernelFamily::active(), process, "restored on panic");
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
        // Without lanes no product is packed: nothing to check.
        let Some(micro) = Micro::of(KernelFamily::Simd) else {
            return;
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
                for len in [1 << 16, 24] {
                    poison(len);
                    let mut out = Matrix::zeros(m, n);
                    packed_gemm(layout, lhs, rhs, &mut out, micro);
                    let bits = |m: &Matrix| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out), bits(&want), "{m}x{k}x{n}, pool of {len}");
                }
            }
        }
    }

    #[test]
    fn lane_kernels_match_portable_tile_bitwise() {
        // The mul+add lane kernel must reproduce the scalar chain exactly;
        // this is the keystone of golden-result stability under `simd`.
        let Some(micro) = Micro::of(KernelFamily::Simd) else {
            return; // host without lanes: nothing to check
        };
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
            micro.tile(&ap, &bp, &mut lane, NR);
            tile_portable(&ap, &bp, &mut port, NR);
            let lane_bits: Vec<u32> = lane.iter().map(|x| x.to_bits()).collect();
            let port_bits: Vec<u32> = port.iter().map(|x| x.to_bits()).collect();
            assert_eq!(lane_bits, port_bits, "k={k}");
        }
    }
}
