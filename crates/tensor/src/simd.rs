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
//! Selection is `DOTA_GEMM` ∈ {`auto`, `scalar`, `simd`, `fma`} plus
//! runtime CPU feature detection; a requested family whose lanes are
//! missing falls back to the best available one ([`KernelFamily::active`];
//! front ends reject malformed values up front via
//! [`family_from_env_checked`]).
//!
//! The element-wise `tanh`/GELU kernels ([`crate::tanh`]), and the `exp`,
//! softmax and attention row kernels ([`crate::exp`],
//! [`crate::ops::RowKernel`]), follow the same selection — `scalar` runs
//! the scalar bodies, `simd` and `fma` the 8-lane kernels — but have no
//! inexact flavour: their bits are the same under all three.
//!
//! Every family is deterministic: for a fixed kernel family the output is
//! a pure function of the operands — bitwise identical across
//! `DOTA_THREADS`, panel boundaries, and serial-vs-parallel builds.

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

    /// The family the GEMM entry points will use right now: `DOTA_GEMM`
    /// (default `auto`) clamped to what the host supports. `auto` resolves
    /// to `simd` when SIMD lanes are detected, else `scalar`; `fma`
    /// degrades to `simd` without FMA units, and both degrade to `scalar`
    /// without SIMD lanes. The variable is re-read per dispatch (cost is
    /// trivial next to any product worth optimizing) so tests and benches
    /// can toggle families at runtime.
    pub fn active() -> KernelFamily {
        let requested = match std::env::var(GEMM_ENV) {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "scalar" => Some(KernelFamily::Scalar),
                "simd" => Some(KernelFamily::Simd),
                "fma" => Some(KernelFamily::Fma),
                _ => None, // auto / malformed: silent best-available
            },
            Err(_) => None,
        };
        match requested {
            Some(KernelFamily::Scalar) => KernelFamily::Scalar,
            Some(KernelFamily::Fma) if fma_available() => KernelFamily::Fma,
            Some(KernelFamily::Fma) | Some(KernelFamily::Simd) | None => {
                if simd_available() {
                    KernelFamily::Simd
                } else {
                    KernelFamily::Scalar
                }
            }
        }
    }
}

/// [`KernelFamily::active`] that surfaces a malformed or unsupported
/// `DOTA_GEMM` as an error instead of silently degrading — front ends call
/// this from `validate_env` so a typo'd family (which would invalidate a
/// benchmark) fails loudly.
///
/// # Errors
///
/// A description of the bad value when `DOTA_GEMM` is set but is not one
/// of `auto`/`scalar`/`simd`/`fma`, or names a family the host's CPU
/// cannot run.
pub fn family_from_env_checked() -> Result<KernelFamily, String> {
    match std::env::var(GEMM_ENV) {
        Err(_) => Ok(KernelFamily::active()),
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelFamily::active()),
            "scalar" => Ok(KernelFamily::Scalar),
            "simd" if simd_available() => Ok(KernelFamily::Simd),
            "fma" if fma_available() => Ok(KernelFamily::Fma),
            "simd" | "fma" => Err(format!(
                "{GEMM_ENV}={v} requires SIMD lanes this CPU does not report \
                 (detected: {})",
                cpu_features().join("+")
            )),
            _ => Err(format!(
                "{GEMM_ENV} must be one of auto|scalar|simd|fma, got `{v}`"
            )),
        },
    }
}

/// `true` when the packed SIMD (mul+add) family can run on this host.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true // NEON is baseline on aarch64.
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// `true` when the fused-multiply-add family can run on this host.
pub fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true // FMLA is baseline NEON on aarch64.
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
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

/// One `MR×NR` register tile: continues every output element's ascending-k
/// accumulation chain from the values already in `c` (row stride `ldc`)
/// across `k` packed depth steps.
///
/// # Safety
///
/// `ap` must hold `k*MR` readable floats, `bp` `k*NR`, and `c` an
/// `MR`-row × `NR`-column tile at row stride `ldc`; the caller must have
/// verified the CPU features of the concrete kernel.
type MicroFn = unsafe fn(k: usize, ap: *const f32, bp: *const f32, c: *mut f32, ldc: usize);

/// Portable tile kernel with the exact scalar chain; used for whole
/// products only in tests (families dispatch to a lane kernel whenever one
/// exists, and fall back to the legacy scalar kernels otherwise).
///
/// # Safety
///
/// See [`MicroFn`].
#[cfg(test)]
unsafe fn micro_tile_portable(k: usize, ap: *const f32, bp: *const f32, c: *mut f32, ldc: usize) {
    for ii in 0..MR {
        for jj in 0..NR {
            let mut acc = *c.add(ii * ldc + jj);
            for kk in 0..k {
                acc += *ap.add(kk * MR + ii) * *bp.add(kk * NR + jj);
            }
            *c.add(ii * ldc + jj) = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    macro_rules! avx2_micro {
        ($name:ident, $feature:literal, $mac:expr) => {
            /// # Safety
            ///
            /// See [`super::MicroFn`]; requires the named target feature.
            #[target_feature(enable = $feature)]
            pub unsafe fn $name(
                k: usize,
                mut ap: *const f32,
                mut bp: *const f32,
                c: *mut f32,
                ldc: usize,
            ) {
                debug_assert_eq!((MR, NR), (4, 16));
                // 4×16 tile = eight 8-lane accumulators: enough
                // independent add/FMA chains to hide instruction latency
                // at two vector ops per cycle.
                let mut acc: [[__m256; 2]; 4] = [
                    [_mm256_loadu_ps(c), _mm256_loadu_ps(c.add(8))],
                    [_mm256_loadu_ps(c.add(ldc)), _mm256_loadu_ps(c.add(ldc + 8))],
                    [
                        _mm256_loadu_ps(c.add(2 * ldc)),
                        _mm256_loadu_ps(c.add(2 * ldc + 8)),
                    ],
                    [
                        _mm256_loadu_ps(c.add(3 * ldc)),
                        _mm256_loadu_ps(c.add(3 * ldc + 8)),
                    ],
                ];
                for _ in 0..k {
                    let b0 = _mm256_loadu_ps(bp);
                    let b1 = _mm256_loadu_ps(bp.add(8));
                    for ii in 0..MR {
                        let a = _mm256_broadcast_ss(&*ap.add(ii));
                        acc[ii][0] = $mac(acc[ii][0], a, b0);
                        acc[ii][1] = $mac(acc[ii][1], a, b1);
                    }
                    ap = ap.add(MR);
                    bp = bp.add(NR);
                }
                for (ii, row) in acc.iter().enumerate() {
                    _mm256_storeu_ps(c.add(ii * ldc), row[0]);
                    _mm256_storeu_ps(c.add(ii * ldc + 8), row[1]);
                }
            }
        };
    }

    // Exact family: separate multiply and add round exactly like the
    // scalar `acc += a * b`, keeping the family bit-identical to it.
    avx2_micro!(micro_avx2_exact, "avx2", |acc, a, b| _mm256_add_ps(
        acc,
        _mm256_mul_ps(a, b)
    ));
    // FMA family: single rounding per step — faster, low bits differ.
    avx2_micro!(micro_avx2_fma, "avx2,fma", |acc, a, b| _mm256_fmadd_ps(
        a, b, acc
    ));

    /// Reassociated FMA dot product: four 8-lane accumulator chains, then
    /// a lane reduction — the `fma` family's matvec kernel. Not
    /// bit-compatible with the sequential scalar chain.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; slices must be equal length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i + 32 <= n {
            for (q, lane) in acc.iter_mut().enumerate() {
                let av = _mm256_loadu_ps(a.as_ptr().add(i + 8 * q));
                let bv = _mm256_loadu_ps(b.as_ptr().add(i + 8 * q));
                *lane = _mm256_fmadd_ps(av, bv, *lane);
            }
            i += 32;
        }
        while i + 8 <= n {
            let av = _mm256_loadu_ps(a.as_ptr().add(i));
            let bv = _mm256_loadu_ps(b.as_ptr().add(i));
            acc[0] = _mm256_fmadd_ps(av, bv, acc[0]);
            i += 8;
        }
        let sum = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
        let mut total: f32 = lanes.iter().sum();
        while i < n {
            total = a[i].mul_add(b[i], total);
            i += 1;
        }
        total
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
            /// See [`super::MicroFn`]. NEON is baseline on aarch64.
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

/// The lane microkernel for a family, or `None` when the host has no lanes
/// (the caller then uses the legacy scalar kernels).
fn micro_for(family: KernelFamily) -> Option<MicroFn> {
    match family {
        KernelFamily::Scalar => None,
        KernelFamily::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                simd_available().then_some(x86::micro_avx2_exact as MicroFn)
            }
            #[cfg(target_arch = "aarch64")]
            {
                Some(arm::micro_neon_exact as MicroFn)
            }
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                None
            }
        }
        KernelFamily::Fma => {
            #[cfg(target_arch = "x86_64")]
            {
                fma_available().then_some(x86::micro_avx2_fma as MicroFn)
            }
            #[cfg(target_arch = "aarch64")]
            {
                Some(arm::micro_neon_fma as MicroFn)
            }
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                None
            }
        }
    }
}

/// Reassociated multi-chain SIMD dot product for the `fma` family's
/// matvec, or `None` when the host lacks FMA lanes (callers then use the
/// exact sequential chain). Documented numerics shift: the four partial
/// chains plus fused rounding make this differ from the scalar chain in
/// the low bits, like the `fma` GEMM family it belongs to.
pub(crate) fn fma_dot(a: &[f32], b: &[f32]) -> Option<f32> {
    debug_assert_eq!(a.len(), b.len());
    if !fma_available() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: FMA support verified above; equal lengths asserted.
        unsafe { Some(x86::dot_fma(a, b)) }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is baseline; equal lengths asserted.
        unsafe { Some(arm::dot_fma(a, b)) }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

/// Whether `family` will take the packed path for a product of `flops`
/// multiply-adds; below the cutoff the packing copies cost more than they
/// save and the legacy blocked kernels run instead (same bits for the
/// `simd` family, so the cutoff is purely a performance knob).
pub(crate) fn packed_kernel(family: KernelFamily, flops: usize) -> Option<MicroFn> {
    const PACK_CUTOFF_FLOPS: usize = 16 * 16 * 16;
    if flops < PACK_CUTOFF_FLOPS {
        return None;
    }
    micro_for(family)
}

/// Runs one packed GEMM: packs `b` once (strip-parallel), then fans the
/// output's `MC`-row panels out over the work-stealing scheduler; each
/// worker packs its own A-panel into a pooled buffer and walks
/// `MR×NR` register tiles with `micro`.
///
/// `out` must already be shaped `m_out × n_out` and zeroed (or hold the
/// values the accumulation chains should continue from).
pub(crate) fn packed_gemm(
    layout: Layout,
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    micro: MicroFn,
) {
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
            let a_strip = &ap[s * MR * k_dim..];
            for js in 0..n_strips {
                let strip_cols = NR.min(n - js * NR);
                let b_strip = &b_pack[js * k_dim * NR..];
                let c0 = s * MR * cols + js * NR;
                if strip_rows == MR && strip_cols == NR {
                    // SAFETY: full tile inside the span; panel buffers
                    // hold k_dim packed steps; feature support was checked
                    // when `micro` was selected.
                    unsafe {
                        micro(
                            k_dim,
                            a_strip.as_ptr(),
                            b_strip.as_ptr(),
                            span.as_mut_ptr().add(c0),
                            cols,
                        );
                    }
                } else {
                    for ii in 0..strip_rows {
                        let src = &span[c0 + ii * cols..c0 + ii * cols + strip_cols];
                        edge[ii * NR..ii * NR + strip_cols].copy_from_slice(src);
                    }
                    for ii in strip_rows..MR {
                        edge[ii * NR..(ii + 1) * NR].fill(0.0);
                    }
                    // SAFETY: the edge tile is a full MR×NR scratch
                    // buffer with row stride NR.
                    unsafe {
                        micro(
                            k_dim,
                            a_strip.as_ptr(),
                            b_strip.as_ptr(),
                            edge.as_mut_ptr(),
                            NR,
                        );
                    }
                    for ii in 0..strip_rows {
                        let dst = &mut span[c0 + ii * cols..c0 + ii * cols + strip_cols];
                        dst.copy_from_slice(&edge[ii * NR..ii * NR + strip_cols]);
                    }
                }
            }
        }
    });
}

/// Runs `body` with `DOTA_GEMM` set to `val` (unset for `None`), restoring
/// the previous value afterwards. All in-process env mutations serialize
/// on one lock — the environment is process-global state.
#[cfg(test)]
pub(crate) fn with_gemm_env<R>(val: Option<&str>, body: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::env::var(GEMM_ENV).ok();
    match val {
        Some(v) => std::env::set_var(GEMM_ENV, v),
        None => std::env::remove_var(GEMM_ENV),
    }
    let out = body();
    match prev {
        Some(v) => std::env::set_var(GEMM_ENV, v),
        None => std::env::remove_var(GEMM_ENV),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::rng::SeededRng;

    #[test]
    fn family_selection_clamps_to_host() {
        with_gemm_env(Some("scalar"), || {
            assert_eq!(KernelFamily::active(), KernelFamily::Scalar);
        });
        with_gemm_env(Some("simd"), || {
            let fam = KernelFamily::active();
            if simd_available() {
                assert_eq!(fam, KernelFamily::Simd);
            } else {
                assert_eq!(fam, KernelFamily::Scalar);
            }
        });
        with_gemm_env(None, || {
            // auto never selects the numerics-shifting family.
            assert_ne!(KernelFamily::active(), KernelFamily::Fma);
        });
        with_gemm_env(Some("typo"), || {
            // Malformed values behave like auto on the silent path …
            let _ = KernelFamily::active();
            // … and error on the checked one.
            let err = family_from_env_checked().unwrap_err();
            assert!(err.contains(GEMM_ENV), "{err}");
            assert!(err.contains("typo"), "{err}");
        });
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
        // SAFETY: buffers sized to the tile contract above.
        unsafe { micro_tile_portable(13, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), NR) };
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
        let micro = micro_for(KernelFamily::Simd).unwrap_or(micro_tile_portable);
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
        let Some(micro) = micro_for(KernelFamily::Simd) else {
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
            // SAFETY: sized per the tile contract; lane support verified
            // by micro_for.
            unsafe {
                micro(k, ap.as_ptr(), bp.as_ptr(), lane.as_mut_ptr(), NR);
                micro_tile_portable(k, ap.as_ptr(), bp.as_ptr(), port.as_mut_ptr(), NR);
            }
            let lane_bits: Vec<u32> = lane.iter().map(|x| x.to_bits()).collect();
            let port_bits: Vec<u32> = port.iter().map(|x| x.to_bits()).collect();
            assert_eq!(lane_bits, port_bits, "k={k}");
        }
    }
}
