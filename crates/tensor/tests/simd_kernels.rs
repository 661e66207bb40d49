//! Property tests pinning down the GEMM numerics contract on both bodies
//! (`DOTA_GEMM`, see `dota_tensor::lanes`):
//!
//! - plain and lanes are **bitwise identical** to the naive reference
//!   chain (ascending-`k`, one accumulator per output element) on every
//!   shape — odd extents, non-multiples of the 4×16 tile, 1×N, M×1.
//!   This is the invariant that lets `auto` select the lanes without
//!   shifting golden results.
//! - Both are **thread-count invariant**: identical bits at pool widths
//!   1, 4 and 8 (panelization is fixed; workers only claim disjoint
//!   panels). Lanes and width are scoped to the test's thread, so under
//!   `--features parallel` this is also the check that the pool runs
//!   scoped lanes' panels.

use dota_tensor::lanes::{with_lanes, Lanes};
use dota_tensor::rng::SeededRng;
use dota_tensor::{reference, Matrix};
use proptest::prelude::*;

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

/// The bodies this host can run, plain first.
fn bodies() -> Vec<Lanes> {
    let mut bodies = vec![Lanes::Plain];
    if Lanes::host() != Lanes::Plain {
        bodies.push(Lanes::host());
    }
    bodies
}

/// All three layouts of one operand pair (see `parallel_kernels.rs` for
/// the shape conventions).
fn all_products(a: &Matrix, b_nn: &Matrix, b_nt: &Matrix) -> (Matrix, Matrix, Matrix) {
    let nn = a.matmul(b_nn).expect("nn shape");
    let nt = a.matmul_nt(b_nt).expect("nt shape");
    let tn = a.transpose().matmul_tn(b_nn).expect("tn shape");
    (nn, nt, tn)
}

fn check_bodies_vs_reference(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = SeededRng::new(seed);
    let a = rng.normal_matrix(m, k, 1.0);
    let b_nn = rng.normal_matrix(k, n, 1.0);
    let b_nt = rng.normal_matrix(n, k, 1.0);
    let want = (
        reference::matmul(&a, &b_nn),
        reference::matmul_nt(&a, &b_nt),
        reference::matmul_tn(&a.transpose(), &b_nn),
    );
    for lanes in bodies() {
        let got = with_lanes(lanes, || all_products(&a, &b_nn, &b_nt));
        let ctx = |op: &str| format!("{op} {m}x{k}x{n} on {}", lanes.name());
        assert_eq!(bits(&got.0), bits(&want.0), "{}", ctx("matmul"));
        assert_eq!(bits(&got.1), bits(&want.1), "{}", ctx("matmul_nt"));
        assert_eq!(bits(&got.2), bits(&want.2), "{}", ctx("matmul_tn"));
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
        check_bodies_vs_reference(m, k, n, seed);
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
        // `PACK_MIN_ROWS`, so the lanes take the packed microkernel path
        // for every layout (tile edges included: extents here are not
        // multiples of the 4×16 tile).
        check_bodies_vs_reference(m, k, n, seed);
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
        check_bodies_vs_reference(1, k, extent, seed);
        check_bodies_vs_reference(extent, k, 1, seed.wrapping_add(1));
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
        for lanes in bodies() {
            let products = || with_lanes(lanes, || all_products(&a, &b_nn, &b_nt));
            let serial = with_threads(1, products);
            for threads in [4, 8] {
                let threaded = with_threads(threads, products);
                prop_assert_eq!(
                    bits(&serial.0), bits(&threaded.0),
                    "matmul on {} threads {}", lanes.name(), threads
                );
                prop_assert_eq!(
                    bits(&serial.1), bits(&threaded.1),
                    "matmul_nt on {} threads {}", lanes.name(), threads
                );
                prop_assert_eq!(
                    bits(&serial.2), bits(&threaded.2),
                    "matmul_tn on {} threads {}", lanes.name(), threads
                );
            }
        }
    }
}
