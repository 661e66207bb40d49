//! The kernel pass of a traced run: the `tensor` and `quant` shapes the
//! workloads lean on, timed one call at a time through the public entry
//! points, so a per-layer reading exists below `transformer`.
//!
//! Decode shapes (GEMV against a weight, one query against a long key
//! cache) explain `decode_longctx`/`serve_longctx`; prefill shapes (square
//! GEMM, the projection GEMM, dense vs sparse attention at n = 1024,
//! k = 102, hd = 32, top-k, masked softmax, the quantized detector
//! estimate) explain `prefill_detect_sim`. This is the benchmark's view of
//! those kernels *at the workloads' shapes*; `BENCH_kernels.json` remains
//! the kernel micro-report across sizes and families.

use crate::metrics::Outcome;
use crate::spans::{self, Layer};
use crate::stats::median;
use dota_quant::{Int4Packed, Int8Matrix, Precision};
use dota_tensor::rng::SeededRng;
use dota_tensor::{ops, topk};
use std::time::Instant;

/// Median seconds of `reps` calls, each inside a span.
fn time(name: &'static str, layer: Layer, reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up, untimed
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            {
                let _g = spans::enter(name, layer);
                f();
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// Runs the pass and records its metrics.
pub fn run(seed: u64, out: &mut Outcome) {
    use std::hint::black_box;
    let mut rng = SeededRng::new(seed);
    let (n, gemm, ctx, reps) = (1024, 512, 1024, 7);
    let many = reps * 40;
    let (d, d_ff, hd) = (128, 512, 32);
    let keep = ((0.1 * n as f64).round() as usize).max(1);
    spans::set_enabled(true);
    spans::next_op();

    let a = rng.normal_matrix(gemm, gemm, 1.0);
    let b = rng.normal_matrix(gemm, gemm, 1.0);
    let s = time("tensor.matmul", Layer::Tensor, reps, || {
        black_box(a.matmul(&b).expect("shape"));
    });
    out.put(
        "tensor.gemm_512_gflops",
        2.0 * (gemm as f64).powi(3) / s / 1e9,
        reps as u64,
    );

    let x = rng.normal_matrix(n, d, 1.0);
    let w = rng.normal_matrix(d, d, 0.1);
    let s = time("tensor.matmul", Layer::Tensor, reps, || {
        black_box(x.matmul(&w).expect("shape"));
    });
    out.put("tensor.gemm_1024x128x128_ms", s * 1e3, reps as u64);

    let row = rng.normal_matrix(1, d, 1.0);
    let w_ff = rng.normal_matrix(d, d_ff, 0.1);
    let s = time("tensor.matmul", Layer::Tensor, many, || {
        black_box(row.matmul(&w_ff).expect("shape"));
    });
    out.put("tensor.gemv_128x512_us", s * 1e6, many as u64);

    let q_row = rng.normal_matrix(1, hd, 1.0);
    let k_cache = rng.normal_matrix(ctx, hd, 1.0);
    let s = time("tensor.matmul_nt", Layer::Tensor, many, || {
        black_box(q_row.matmul_nt(&k_cache).expect("shape"));
    });
    out.put("tensor.matmul_nt_1x32xT1024_us", s * 1e6, many as u64);

    let q = rng.normal_matrix(n, hd, 1.0);
    let k = rng.normal_matrix(n, hd, 1.0);
    let v = rng.normal_matrix(n, hd, 1.0);
    let scale = 1.0 / (hd as f32).sqrt();
    let s = time("tensor.dense_attention", Layer::Tensor, reps, || {
        let scores = q.matmul_nt(&k).expect("shape").scale(scale);
        black_box(ops::softmax_rows(&scores).matmul(&v).expect("shape"));
    });
    out.put("tensor.dense_attention_ms", s * 1e3, reps as u64);

    let scores = q.matmul_nt(&k).expect("shape").scale(scale);
    let mut selected: Vec<Vec<usize>> = Vec::new();
    let s = time("tensor.top_k_rows", Layer::Tensor, reps, || {
        selected = topk::top_k_rows(&scores, keep);
    });
    out.put("tensor.topk_rows_ms", s * 1e3, reps as u64);

    let selection: Vec<Vec<u32>> = selected
        .iter()
        .map(|r| r.iter().map(|&j| j as u32).collect())
        .collect();
    let s = time("tensor.sparse_attention", Layer::Tensor, reps, || {
        black_box(ops::sparse_attention(&q, &k, &v, &selection, scale));
    });
    out.put("tensor.sparse_attention_ms", s * 1e3, reps as u64);

    let mask = topk::indices_to_mask(&selected, n);
    let s = time("tensor.masked_softmax_rows", Layer::Tensor, reps, || {
        black_box(ops::masked_softmax_rows(&scores, &mask));
    });
    out.put("tensor.masked_softmax_ms", s * 1e3, reps as u64);

    // The detector's estimate S~ = Q~ K~^T at rank floor(0.2 * hd).
    let rank = ((0.2 * hd as f64).floor() as usize).max(1);
    let q_tilde = rng.normal_matrix(n, rank, 1.0);
    let k_tilde = rng.normal_matrix(n, rank, 1.0);
    let (q4, k4) = (
        Int4Packed::quantize(&q_tilde, Precision::Int4),
        Int4Packed::quantize(&k_tilde, Precision::Int4),
    );
    let s = time("quant.int4_matmul_nt", Layer::Quant, reps, || {
        black_box(q4.matmul_nt_dequant(&k4).expect("shape"));
    });
    out.put("quant.int4_matmul_nt_ms", s * 1e3, reps as u64);
    let (q8, k8) = (
        Int8Matrix::quantize(&q_tilde, Precision::Int8),
        Int8Matrix::quantize(&k_tilde, Precision::Int8),
    );
    let s = time("quant.int8_matmul_nt", Layer::Quant, reps, || {
        black_box(q8.matmul_nt_dequant(&k8).expect("shape"));
    });
    out.put("quant.int8_matmul_nt_ms", s * 1e3, reps as u64);
    spans::set_enabled(false);
}
