//! Property tests pinning down the parallel GEMM contract: for every
//! product layout and every shape — including empty and 1×N — the result is
//! bitwise identical no matter how many workers the pool may use
//! (`dota_parallel::with_threads`, scoped to the test's thread), and one
//! worker reproduces the default-pool output exactly.
//!
//! Without the `parallel` feature these properties hold trivially (every
//! path is serial); with it they exercise the row-partitioned dispatch in
//! `dota_tensor`'s GEMM kernels.

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

/// The exact bit patterns of a matrix, for bitwise (not approximate)
/// comparison across thread counts.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// All three products of one operand pair, as `(nn, nt, tn)`.
/// `a` is `m×k`; `b_nn` is `k×n`, `b_nt` is `n×k`, `b_tn` reuses `b_nn`
/// against `a`'s transpose-view semantics (`a^T · a b_nn` would change
/// shape, so tn multiplies `a_t: k×m` by `b_nn`).
fn all_products(a: &Matrix, b_nn: &Matrix, b_nt: &Matrix) -> (Matrix, Matrix, Matrix) {
    let nn = a.matmul(b_nn).expect("nn shape");
    let nt = a.matmul_nt(b_nt).expect("nt shape");
    // For tn, treat `b_nn` (k×n) as the right operand of `a^T`-style
    // products with a left operand of matching row count.
    let a_for_tn = a.transpose(); // k×m — so a_for_tn^T · b requires b: k×n
    let tn = a_for_tn.matmul_tn(b_nn).expect("tn shape");
    (nn, nt, tn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn arbitrary_shapes_are_thread_count_invariant(
        m in 0usize..10,
        k in 0usize..10,
        n in 0usize..10,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.normal_matrix(m, k, 1.0);
        let b_nn = rng.normal_matrix(k, n, 1.0);
        let b_nt = rng.normal_matrix(n, k, 1.0);
        let serial = with_threads(1, || all_products(&a, &b_nn, &b_nt));
        let threaded = with_threads(4, || all_products(&a, &b_nn, &b_nt));
        prop_assert_eq!(bits(&serial.0), bits(&threaded.0), "matmul at {}x{}x{}", m, k, n);
        prop_assert_eq!(bits(&serial.1), bits(&threaded.1), "matmul_nt at {}x{}x{}", m, k, n);
        prop_assert_eq!(bits(&serial.2), bits(&threaded.2), "matmul_tn at {}x{}x{}", m, k, n);
        // And the optimized kernels stay correct: compare against the
        // naive triple-loop oracle.
        prop_assert!(serial.0.approx_eq(&reference::matmul(&a, &b_nn), 1e-3));
        prop_assert!(serial.1.approx_eq(&reference::matmul_nt(&a, &b_nt), 1e-3));
        prop_assert!(serial.2.approx_eq(&reference::matmul_tn(&a.transpose(), &b_nn), 1e-3));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn shapes_above_parallel_cutoff_are_thread_count_invariant(
        m in 64usize..90,
        k in 64usize..90,
        n in 64usize..90,
        seed in 0u64..1_000_000,
    ) {
        // m·k·n ≥ 64³ here, so with the `parallel` feature these products
        // take the threaded path whenever the pool is wider than one.
        let mut rng = SeededRng::new(seed);
        let a = rng.normal_matrix(m, k, 1.0);
        let b_nn = rng.normal_matrix(k, n, 1.0);
        let b_nt = rng.normal_matrix(n, k, 1.0);
        let serial = with_threads(1, || all_products(&a, &b_nn, &b_nt));
        for threads in [2, 3, 8] {
            let threaded = with_threads(threads, || all_products(&a, &b_nn, &b_nt));
            prop_assert_eq!(bits(&serial.0), bits(&threaded.0), "matmul, {} threads", threads);
            prop_assert_eq!(bits(&serial.1), bits(&threaded.1), "matmul_nt, {} threads", threads);
            prop_assert_eq!(bits(&serial.2), bits(&threaded.2), "matmul_tn, {} threads", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn one_by_n_rows_are_thread_count_invariant(
        n in 1usize..600,
        seed in 0u64..1_000_000,
    ) {
        // 1×N: a single output row can never be split across workers.
        let mut rng = SeededRng::new(seed);
        let a = rng.normal_matrix(1, 48, 1.0);
        let b = rng.normal_matrix(48, n, 1.0);
        let b_t = rng.normal_matrix(n, 48, 1.0);
        let serial = with_threads(1, || {
            (a.matmul(&b).unwrap(), a.matmul_nt(&b_t).unwrap())
        });
        let threaded = with_threads(8, || {
            (a.matmul(&b).unwrap(), a.matmul_nt(&b_t).unwrap())
        });
        prop_assert_eq!(bits(&serial.0), bits(&threaded.0));
        prop_assert_eq!(bits(&serial.1), bits(&threaded.1));
    }
}

#[test]
fn empty_operands_do_not_panic_under_any_pool() {
    let check = || {
        let a = Matrix::zeros(0, 7);
        let b = Matrix::zeros(7, 3);
        assert_eq!(a.matmul(&b).unwrap().shape(), (0, 3));
        let c = Matrix::zeros(4, 0);
        assert_eq!(c.matmul(&Matrix::zeros(0, 2)).unwrap().shape(), (4, 2));
        assert_eq!(c.matmul_nt(&Matrix::zeros(6, 0)).unwrap().shape(), (4, 6));
        assert_eq!(a.matmul_tn(&Matrix::zeros(0, 5)).unwrap().shape(), (7, 5));
    };
    with_threads(1, check);
    with_threads(4, check);
    check();
}

#[test]
fn default_pool_matches_threads_one() {
    // The process's default pool (`DOTA_THREADS`) must produce the same
    // bits as an explicitly serial run, at a size big enough to engage the
    // parallel path on multi-core hosts.
    let mut rng = SeededRng::new(7);
    let a = rng.normal_matrix(96, 80, 1.0);
    let b = rng.normal_matrix(80, 96, 1.0);
    let b_t = rng.normal_matrix(96, 80, 1.0);
    let serial = with_threads(1, || all_products(&a, &b, &b_t));
    let default_pool = all_products(&a, &b, &b_t);
    assert_eq!(bits(&serial.0), bits(&default_pool.0));
    assert_eq!(bits(&serial.1), bits(&default_pool.1));
    assert_eq!(bits(&serial.2), bits(&default_pool.2));
}
