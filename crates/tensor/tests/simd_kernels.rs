//! Property tests pinning down the kernel-family numerics contract
//! (`DOTA_GEMM`, see `dota_tensor::simd`):
//!
//! - `scalar` and `simd` are **bitwise identical** to the naive reference
//!   chain (ascending-`k`, one accumulator per output element) on every
//!   shape — odd extents, non-multiples of the 4×16 tile, 1×N, M×1.
//!   This is the invariant that lets `auto` select the SIMD path without
//!   shifting golden results.
//! - `fma` fuses the multiply-add rounding and (in `matvec`) reassociates
//!   into four chains, so it is only **approximately** equal: within
//!   [`FMA_ULP_TOL`] ULPs of the reference, or [`FMA_ABS_TOL`] absolutely
//!   for near-zero outputs where cancellation makes ULP distance
//!   meaningless.
//! - Every family is **thread-count invariant**: identical bits at pool
//!   widths 1, 4 and 8 (panelization is fixed; workers only claim
//!   disjoint panels). Family and width are scoped to the test's thread,
//!   so under `--features parallel` this is also the check that the pool
//!   runs a scoped family's panels.

use dota_tensor::rng::SeededRng;
use dota_tensor::simd::{self, with_family, KernelFamily};
use dota_tensor::{reference, Matrix};
use proptest::prelude::*;

/// Documented tolerance for the opt-in `fma` family vs the exact scalar
/// chain: fused rounding changes each partial sum by ≤ half an ULP, and
/// with K ≤ ~200 terms the drift stays far below this bound for
/// non-cancelling data.
const FMA_ULP_TOL: u32 = 256;
/// Absolute fallback for outputs near zero, where heavy cancellation
/// makes ULP distance unbounded.
const FMA_ABS_TOL: f32 = 1e-4;

#[cfg(feature = "parallel")]
use dota_parallel::with_threads;
/// Without the `parallel` feature every product is serial: the width is moot.
#[cfg(not(feature = "parallel"))]
fn with_threads<R>(_: usize, body: impl FnOnce() -> R) -> R {
    body()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// ULP distance between two finite f32s of the same sign region, via the
/// monotone mapping of the bit pattern onto a signed line.
fn ulp_diff(a: f32, b: f32) -> u32 {
    fn key(x: f32) -> i64 {
        let b = x.to_bits() as i32;
        i64::from(if b < 0 { i32::MIN ^ b } else { b })
    }
    key(a).abs_diff(key(b)).try_into().unwrap_or(u32::MAX)
}

fn assert_close_fma(got: &Matrix, want: &Matrix, ctx: &str) {
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        let ok = ulp_diff(*g, *w) <= FMA_ULP_TOL || (g - w).abs() <= FMA_ABS_TOL;
        assert!(
            ok,
            "{ctx}: fma result {g} vs reference {w} outside tolerance"
        );
    }
}

/// The families this host can actually run, `scalar` first.
fn families() -> Vec<KernelFamily> {
    [KernelFamily::Scalar, KernelFamily::Simd, KernelFamily::Fma]
        .into_iter()
        .filter(|fam| simd::parse_family(fam.name()).is_ok())
        .collect()
}

/// All three layouts of one operand pair (see `parallel_kernels.rs` for
/// the shape conventions).
fn all_products(a: &Matrix, b_nn: &Matrix, b_nt: &Matrix) -> (Matrix, Matrix, Matrix) {
    let nn = a.matmul(b_nn).expect("nn shape");
    let nt = a.matmul_nt(b_nt).expect("nt shape");
    let tn = a.transpose().matmul_tn(b_nn).expect("tn shape");
    (nn, nt, tn)
}

fn check_family_vs_reference(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = SeededRng::new(seed);
    let a = rng.normal_matrix(m, k, 1.0);
    let b_nn = rng.normal_matrix(k, n, 1.0);
    let b_nt = rng.normal_matrix(n, k, 1.0);
    let want = (
        reference::matmul(&a, &b_nn),
        reference::matmul_nt(&a, &b_nt),
        reference::matmul_tn(&a.transpose(), &b_nn),
    );
    for fam in families() {
        let got = with_family(fam, || all_products(&a, &b_nn, &b_nt));
        let ctx = |op: &str| format!("{op} {m}x{k}x{n} family {}", fam.name());
        if fam == KernelFamily::Fma {
            assert_close_fma(&got.0, &want.0, &ctx("matmul"));
            assert_close_fma(&got.1, &want.1, &ctx("matmul_nt"));
            assert_close_fma(&got.2, &want.2, &ctx("matmul_tn"));
        } else {
            // scalar and simd share the reference's exact rounding.
            assert_eq!(bits(&got.0), bits(&want.0), "{}", ctx("matmul"));
            assert_eq!(bits(&got.1), bits(&want.1), "{}", ctx("matmul_nt"));
            assert_eq!(bits(&got.2), bits(&want.2), "{}", ctx("matmul_tn"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn families_match_reference_on_odd_shapes(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        check_family_vs_reference(m, k, n, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn families_match_reference_above_pack_cutoff(
        m in 32usize..60,
        k in 17usize..45,
        n in 17usize..45,
        seed in 0u64..1_000_000,
    ) {
        // m·k·n ≥ 32·17² > the packing cutoff, and 32 rows reach
        // `PACK_MIN_ROWS`, so simd/fma take the packed microkernel path
        // for every layout (tile edges included: extents here are not
        // multiples of the 4×16 tile).
        check_family_vs_reference(m, k, n, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn degenerate_rows_and_columns_match_reference(
        extent in 1usize..130,
        k in 1usize..96,
        seed in 0u64..1_000_000,
    ) {
        // 1×N: one output row, wider than any tile. M×1: one output
        // column, narrower than every SIMD lane — all edge-tile logic.
        check_family_vs_reference(1, k, extent, seed);
        check_family_vs_reference(extent, k, 1, seed.wrapping_add(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn every_family_is_thread_count_invariant(
        m in 30usize..70,
        k in 30usize..70,
        n in 30usize..70,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.normal_matrix(m, k, 1.0);
        let b_nn = rng.normal_matrix(k, n, 1.0);
        let b_nt = rng.normal_matrix(n, k, 1.0);
        for fam in families() {
            let products = || with_family(fam, || all_products(&a, &b_nn, &b_nt));
            let serial = with_threads(1, products);
            for threads in [4, 8] {
                let threaded = with_threads(threads, products);
                prop_assert_eq!(
                    bits(&serial.0), bits(&threaded.0),
                    "matmul family {} threads {}", fam.name(), threads
                );
                prop_assert_eq!(
                    bits(&serial.1), bits(&threaded.1),
                    "matmul_nt family {} threads {}", fam.name(), threads
                );
                prop_assert_eq!(
                    bits(&serial.2), bits(&threaded.2),
                    "matmul_tn family {} threads {}", fam.name(), threads
                );
            }
        }
    }
}

#[test]
fn matvec_families_match_reference() {
    let mut rng = SeededRng::new(5);
    let a = rng.normal_matrix(33, 129, 1.0);
    let x: Vec<f32> = (0..129).map(|i| (i as f32 * 0.37).sin()).collect();
    let want = with_family(KernelFamily::Scalar, || a.matvec(&x).expect("shape"));
    for fam in families() {
        let got = with_family(fam, || a.matvec(&x).expect("shape"));
        if fam == KernelFamily::Fma {
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    ulp_diff(*g, *w) <= FMA_ULP_TOL || (g - w).abs() <= FMA_ABS_TOL,
                    "fma matvec {g} vs {w}"
                );
            }
        } else {
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "family {}", fam.name());
        }
    }
}
