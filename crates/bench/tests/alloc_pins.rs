//! Allocation pins: detection and omission run without an `n x n` score
//! matrix and without a heap allocation per row, round or position. Each
//! test counts the heap calls of one path with `dota-prof`'s counting
//! allocator and holds it to a fixed budget:
//!
//! - ten packed 256² products into a reused output allocate under 1 MiB;
//! - one-row products read `W` in place;
//! - `decode_step` allocates as much at context 64 as at 768, at most 27;
//! - a 32-row `decode_rows` call allocates at most 29 times;
//! - `decode_rows_in` into a warm arena allocates nothing;
//! - a sparse `simulate_shape` allocates at most 64 times;
//! - one fused detector `select` at n = 512 allocates under 1 MiB.
//!
//! Only that allocator can count, so every pin is ignored in plain runs and
//! fails, rather than passing unchecked, without it:
//!
//! ```sh
//! cargo test --release -p dota-bench --features parallel,prof-alloc --test alloc_pins -- --ignored
//! ```
//!
//! Each test holds its own profiling session, which is exclusive and
//! counts only the threads that joined it, so the pins run under the
//! default parallel test runner. The decode pins count on one pool thread:
//! a parallel dispatch spawns its workers per call, and those spawns are
//! not the forward's buffers.

use dota_accel::synth::SelectionProfile;
use dota_accel::{AccelConfig, Accelerator};
use dota_autograd::ParamSet;
use dota_detector::decode::DotaDecodeSelector;
use dota_detector::{DetectorConfig, DotaHook};
use dota_tensor::lanes::Lanes;
use dota_tensor::rng::SeededRng;
use dota_tensor::Matrix;
use dota_transformer::{
    DecodeItem, DecodeScratch, DecodeSelector, DenseDecode, InferenceHook, KvCache, Model,
    TransformerConfig, WindowSelector,
};

/// Opens this test's profiling session and checks that the counting
/// allocator is what it counts with: a probe `Box` must move the count.
fn counting_session(label: &str) -> dota_prof::ProfGuard {
    let session = dota_prof::session(label);
    let before = calls();
    drop(std::hint::black_box(Box::new(0u64)));
    assert!(
        calls() > before,
        "the counting allocator is not installed: --features prof-alloc"
    );
    session
}

fn calls() -> u64 {
    dota_prof::alloc_stats().allocation_calls
}

fn bytes() -> u64 {
    dota_prof::alloc_stats().allocated_bytes
}

/// Steady-state budget of the packed GEMM path, in bytes across all ten
/// products: after warmup the pooled pack buffers and the reused output
/// allocate nothing, and the budget only leaves room for allocator
/// bookkeeping. Deliberately independent of matrix size.
const PACKED_ALLOC_BUDGET_BYTES: u64 = 1 << 20;

#[test]
#[ignore = "needs the counting allocator: --features prof-alloc"]
fn packed_products_allocate_under_budget() {
    let _session = counting_session("packed_products");
    let mut rng = SeededRng::new(21);
    let a = rng.normal_matrix(256, 256, 1.0);
    let b = rng.normal_matrix(256, 256, 1.0);
    let mut out = Matrix::zeros(256, 256);
    for _ in 0..2 {
        a.matmul_into(&b, &mut out).expect("shape");
    }
    let before = bytes();
    for _ in 0..10 {
        a.matmul_into(&b, &mut out).expect("shape");
        std::hint::black_box(&out);
    }
    let spent = bytes() - before;
    assert!(
        spent <= PACKED_ALLOC_BUDGET_BYTES,
        "10 packed 256² products allocated {spent} bytes"
    );
}

/// One-row products of the tiny and the mid model's shapes into a reused
/// output read `W` in place: no pack, no pooled buffer. The counter leaves
/// out the profiler's own bookkeeping, so this reads 0; the pin is fewer
/// allocations than products and fewer bytes than one copy of `W`. The
/// lanes are read once, as the decode forward reads them.
#[test]
#[ignore = "needs the counting allocator: --features prof-alloc"]
fn few_row_products_read_w_in_place() {
    let _session = counting_session("few_row_products");
    const PRODUCTS: u64 = 100;
    let mut rng = SeededRng::new(21);
    let lanes = Lanes::active();
    for (k, n) in [(32, 32), (128, 512)] {
        let x = rng.normal_matrix(1, k, 1.0);
        let w = rng.normal_matrix(k, n, 1.0);
        let mut out = Matrix::zeros(1, n);
        x.gemm_into(&w, &mut out, lanes).expect("shape");
        let (calls_before, bytes_before) = (calls(), bytes());
        for _ in 0..PRODUCTS {
            x.gemm_into(&w, &mut out, lanes).expect("shape");
            std::hint::black_box(&out);
        }
        let (spent_calls, spent_bytes) = (calls() - calls_before, bytes() - bytes_before);
        assert!(
            spent_calls < PRODUCTS && spent_bytes < (4 * k * n) as u64,
            "{PRODUCTS} 1x{k}x{n} products: {spent_calls} calls, {spent_bytes} bytes"
        );
    }
}

/// The context a tiny model's cache is sized for: the longer decode probe.
const LONG_CONTEXT: usize = 768;

fn tiny_model() -> (Model, ParamSet) {
    let mut params = ParamSet::new();
    let model = Model::init(
        TransformerConfig::tiny_causal(LONG_CONTEXT, 16),
        &mut params,
        5,
    );
    (model, params)
}

/// Heap allocations a single-row `decode_step` may make on the tiny model:
/// the buffers of the fresh arena it runs in, each taken once (16 today;
/// 27 before the forward had an arena, when every layer took its own).
/// None per attended row, whose scores land in pooled scratch.
const DECODE_STEP_ALLOC_BUDGET: u64 = 27;

/// One dense `decode_step` makes as many heap allocations at context 64 as
/// at context 768: every buffer it takes is per call, none per cached
/// position. The cache is sized at creation, so no probe sees it grow.
#[test]
#[ignore = "needs the counting allocator: --features prof-alloc"]
fn decode_step_allocations_do_not_grow_with_context() {
    let _session = counting_session("decode_step");
    let (model, params) = tiny_model();
    let cfg = model.config();
    let mut cache = KvCache::with_capacity(cfg.n_layers, cfg.d_model, LONG_CONTEXT);
    let mut at = [0u64; 2];
    dota_parallel::with_threads(1, || {
        while cache.len() < LONG_CONTEXT {
            let before = calls();
            let token = cache.len() % 16;
            std::hint::black_box(model.decode_step(&params, &mut cache, token, &DenseDecode));
            let spent = calls() - before;
            match cache.len() {
                64 => at[0] = spent,
                LONG_CONTEXT => at[1] = spent,
                _ => {}
            }
        }
    });
    assert_eq!(at[0], at[1], "allocations at context 64 vs 768");
    assert!(
        at[0] <= DECODE_STEP_ALLOC_BUDGET,
        "decode_step made {} allocations",
        at[0]
    );
}

/// Rows of the block `decode_rows` is held to amortize its buffers over.
const BLOCK_ROWS: usize = 32;

/// Heap allocations one [`BLOCK_ROWS`]-row `decode_rows` call may make on
/// the tiny model (17 today, a fresh arena's buffers; 29 before the arena;
/// 369 when every `(row, head, layer)` took a score vector of its own).
/// With more than one pool thread the count would also hold the worker
/// spawns of each parallel dispatch (101 on a 2-vCPU host).
const BLOCK_ALLOC_BUDGET: u64 = 29;

/// One [`BLOCK_ROWS`]-row `decode_rows` call, at positions 80..112 of a
/// fresh cache, shares its buffers across rows instead of taking them per
/// row.
#[test]
#[ignore = "needs the counting allocator: --features prof-alloc"]
fn decode_rows_block_shares_its_buffers() {
    let _session = counting_session("decode_rows");
    let (model, params) = tiny_model();
    let cfg = model.config();
    let tokens: Vec<usize> = (0..80 + BLOCK_ROWS).map(|i| i % 16).collect();
    let mut cache = KvCache::with_capacity(cfg.n_layers, cfg.d_model, tokens.len());
    let mut rows_calls = |tokens: &[usize]| {
        let before = calls();
        let mut item = [DecodeItem {
            cache: &mut cache,
            tokens,
            selector: &DenseDecode,
        }];
        std::hint::black_box(model.decode_rows(&params, &mut item));
        calls() - before
    };
    let spent = dota_parallel::with_threads(1, || {
        rows_calls(&tokens[..80]);
        rows_calls(&tokens[80..])
    });
    assert!(
        spent <= BLOCK_ALLOC_BUDGET,
        "a {BLOCK_ROWS}-row decode_rows call made {spent} allocations"
    );
}

/// Positions a sequence of the warm-arena pin has decoded before the
/// counted call: the detector's sketches have doubled to 128 rows by then
/// and the counted rows (at most 32) fit, so nothing may grow.
const STEADY_FROM: usize = 96;

/// A `decode_rows_in` call into an arena that has seen the call's shapes,
/// over a cache sized at creation, allocates nothing at all: at the tiny
/// and the mid model's shapes, for one row and for a 32-row block, under
/// the dense, window and detector selectors. Each count is a sequence's
/// call at positions [`STEADY_FROM`]`..`, after the same calls on another
/// sequence have shown the arena (shared by every sequence) those shapes.
#[test]
#[ignore = "needs the counting allocator: --features prof-alloc"]
fn warm_decode_rows_in_allocates_nothing() {
    let _session = counting_session("decode_rows_in");
    let shapes = [
        ("tiny", TransformerConfig::tiny_causal(160, 16)),
        (
            "mid",
            TransformerConfig {
                d_model: 128,
                n_heads: 4,
                n_layers: 4,
                d_ff: 512,
                ..TransformerConfig::tiny_causal(160, 256)
            },
        ),
    ];
    let mut counts = Vec::new();
    for (name, cfg) in shapes {
        let mut params = ParamSet::new();
        let model = Model::init(cfg, &mut params, 5);
        let hook = DotaHook::init(DetectorConfig::new(0.125), model.config(), &mut params);
        let cfg = model.config();
        let mut scratch = DecodeScratch::default();
        for rows in [1, 32] {
            for kind in ["dense", "window", "dota"] {
                // The first pass shows the arena the shapes; the second counts.
                let mut spent = 0;
                for _ in 0..2 {
                    let selector: Box<dyn DecodeSelector> = match kind {
                        "dense" => Box::new(DenseDecode),
                        "window" => Box::new(WindowSelector::new(0.25)),
                        _ => Box::new(DotaDecodeSelector::new(
                            &hook,
                            &params,
                            cfg.n_layers,
                            cfg.n_heads,
                        )),
                    };
                    let tokens: Vec<usize> = (0..STEADY_FROM + rows).map(|i| i % 16).collect();
                    let mut cache = KvCache::with_capacity(cfg.n_layers, cfg.d_model, tokens.len());
                    for block in [&tokens[..STEADY_FROM], &tokens[STEADY_FROM..]] {
                        let mut item = [DecodeItem {
                            cache: &mut cache,
                            tokens: block,
                            selector: &*selector,
                        }];
                        let before = calls();
                        dota_parallel::with_threads(1, || {
                            std::hint::black_box(model.decode_rows_in(
                                &params,
                                &mut item,
                                &mut scratch,
                            ))
                        });
                        spent = calls() - before;
                    }
                }
                counts.push((name, rows, kind, spent));
            }
        }
    }
    assert!(
        counts.iter().all(|&(.., spent)| spent == 0),
        "warm decode_rows_in allocations (model, rows, selector, count): {counts:?}"
    );
}

/// Heap allocations one sparse `simulate_shape` may make (the sampler's and
/// the counter's buffers and one group of rows, all taken once: 18 today;
/// about 212,000 when every round was two `Vec`s and every row one).
const SIMULATE_SHAPE_ALLOC_BUDGET: u64 = 64;

/// `simulate_shape` holds one token-parallel group at a time and counts its
/// schedule, so it allocates nothing per round, per row or per group.
#[test]
#[ignore = "needs the counting allocator: --features prof-alloc"]
fn simulate_shape_allocates_nothing_per_group() {
    let _session = counting_session("simulate_shape");
    let accel = Accelerator::new(AccelConfig::default());
    let model = TransformerConfig::lra(2048, 4);
    let before = calls();
    std::hint::black_box(accel.simulate_shape(
        &model,
        2048,
        0.1,
        0.2,
        &SelectionProfile::default(),
    ));
    let spent = calls() - before;
    assert!(
        spent <= SIMULATE_SHAPE_ALLOC_BUDGET,
        "simulate_shape(lra@2048, retention 0.1) made {spent} allocations"
    );
}

/// Heap bytes one fused `select` may allocate at sequence length 512: the
/// selection itself (~100 KiB), the sketches and one row buffer. The
/// materialised path takes a 1 MiB score matrix there (and as much again in
/// packed keys), so an `n x n` buffer cannot come back unnoticed.
const SELECT_ALLOC_BUDGET_BYTES: u64 = 1 << 20;

/// One fused detector `select` on a head of the benchmark's mid encoder
/// (4 heads of 32 at d 128, INT4, retention 0.1) estimates and selects per
/// query row: no `n x n` score matrix.
#[test]
#[ignore = "needs the counting allocator: --features prof-alloc"]
fn fused_select_holds_no_score_matrix() {
    let _session = counting_session("fused_select");
    const N: usize = 512;
    let model = TransformerConfig {
        d_model: 128,
        n_heads: 4,
        ..TransformerConfig::tiny(N, 256, 4)
    };
    let mut params = ParamSet::new();
    let hook = DotaHook::init(DetectorConfig::new(0.1), &model, &mut params);
    let x = SeededRng::new(23).normal_matrix(N, model.d_model, 1.0);
    let bound = hook.inference(&params);
    std::hint::black_box(bound.select(0, 0, &x));
    let before = bytes();
    std::hint::black_box(bound.select(0, 0, &x));
    let spent = bytes() - before;
    assert!(
        spent < SELECT_ALLOC_BUDGET_BYTES,
        "a fused select at n {N} allocated {spent} bytes"
    );
}
