//! Kernel benchmark report: wall-clock timings of the GEMM kernels
//! (naive reference vs the packed/blocked kernels, serial vs the
//! `parallel` thread pool, fp32 kernel families vs the quantized INT8 and
//! INT4 host kernels) and of dense vs DOTA-sparse attention at the five
//! paper sequence lengths (§5.1). Writes `BENCH_kernels.json` at the
//! repository root.
//!
//! Run with:
//! `cargo run --release -p dota-bench --features parallel --bin bench_report`
//!
//! `--quick` runs a reduced smoke instead: small sizes, few reps, no
//! counter scenarios, no report file — and, when built with
//! `--features prof-alloc`, asserts that the packed GEMM path stays
//! within a fixed steady-state allocation budget (the pooled pack
//! buffers and `matmul_into` outputs make repeated products allocation-
//! free), that one-row products of the tiny and the mid model's shapes
//! read `W` in place (fewer allocations than products, fewer bytes than a
//! copy of `W`), that a `decode_step` allocates no more at a long context than at
//! a short one (and no more than 27 times), and that a 32-row `decode_rows`
//! call allocates no more than 29 times, that a `decode_rows_in` call into
//! a warm arena allocates nothing (tiny and mid shapes, one row and 32,
//! dense, window and detector selectors), and that one sparse
//! `simulate_shape` allocates no more than 64 times (nothing per round, per
//! row or per group), and that one fused detector `select` at sequence
//! length 512 allocates under 1 MiB (no `n x n` score matrix). It also
//! prints the GELU, attention-row, softmax, scheduler and selection kernel
//! rows, without a timing assert. CI runs this leg.
//!
//! Thread-pool speedups depend on the machine: the report records the
//! actual pool width, physical core count and detected CPU features so
//! `pool_speedup` is interpretable across hosts — expect ~1.0 on a
//! single-core container and >3x at 2048² on a real multi-core host.

use dota_accel::sched::{matrix_loads, schedule_matrix};
use dota_accel::synth::{sample_selection, SelectionProfile};
use dota_accel::{AccelConfig, Accelerator};
use dota_autograd::ParamSet;
use dota_detector::decode::DotaDecodeSelector;
use dota_detector::{DetectorConfig, DotaHook};
use dota_metrics::Histogram;
use dota_quant::{Int4Packed, Int8Matrix, Precision};
use dota_tensor::lanes::Lanes;
use dota_tensor::rng::SeededRng;
use dota_tensor::simd::{self, KernelFamily};
use dota_tensor::{ops, reference, topk, Matrix};
use dota_transformer::{
    DecodeItem, DecodeScratch, DecodeSelector, DenseDecode, InferenceHook, KvCache, Model,
    TransformerConfig,
};
use serde::Serialize;
use std::time::Instant;

/// Percentile summary of repeated wall-clock samples of one kernel.
/// min/p50 come straight from the sample histogram; with the small rep
/// counts used here p95/p99 collapse toward the max, which is still the
/// honest tail estimate for the samples taken.
#[derive(Serialize)]
struct TimingSummary {
    reps: u64,
    min_ms: f64,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

impl TimingSummary {
    fn from_hist(h: &Histogram) -> Self {
        let q = |q: f64| h.quantile(q).unwrap_or(f64::NAN);
        Self {
            reps: h.count(),
            min_ms: q(0.0),
            mean_ms: h.mean().unwrap_or(f64::NAN),
            p50_ms: q(0.5),
            p95_ms: q(0.95),
            p99_ms: q(0.99),
        }
    }
}

/// Heap traffic of one timed kernel, from `dota-prof`'s counting
/// allocator. All zeros unless built with `--features prof-alloc`.
#[derive(Serialize)]
struct AllocSummary {
    /// Bytes allocated per repetition (mean across the timed reps).
    alloc_mb_per_rep: f64,
    /// High-water mark of live heap bytes during the reps.
    peak_mb: f64,
}

const MB: f64 = 1024.0 * 1024.0;

#[derive(Serialize)]
struct GemmRow {
    size: usize,
    /// Worker threads actually dispatched for the pool run.
    pool_threads: usize,
    naive: TimingSummary,
    optimized_serial: TimingSummary,
    optimized_pool: TimingSummary,
    /// Active-family kernel vs the textbook triple loop, both serial, on
    /// median (p50) wall-clock.
    speedup_vs_naive: f64,
    /// Thread pool vs `DOTA_THREADS=1` on p50; ~1.0 without the
    /// `parallel` feature or on a single-core host.
    pool_speedup: f64,
    /// Heap traffic of the serial optimized kernel (timed through
    /// `matmul_into` with a reused output, so the packed path's steady
    /// state is ~0 regardless of size).
    optimized_alloc: AllocSummary,
}

/// One kernel family timed at a fixed square size — the fp32 families
/// next to the quantized host kernels, so fp32-vs-int8 throughput sits in
/// one table beside the RMMU cycle model.
#[derive(Serialize)]
struct FamilyRow {
    /// `fp32/scalar`, `fp32/simd`, `fp32/fma`, `int8`, `int4`.
    kernel: String,
    /// Whether this host can run the family (rows for unavailable
    /// families are omitted, so this is always true in the JSON; kept for
    /// readers scanning across hosts' reports).
    available: bool,
    p50_ms: f64,
    /// `2·n³` multiply-adds over p50 wall-clock.
    gflops: f64,
    /// p50 speedup vs the `fp32/scalar` row of the same size.
    speedup_vs_scalar: f64,
}

#[derive(Serialize)]
struct AttnRow {
    benchmark: String,
    seq_len: usize,
    retention: f64,
    dense: TimingSummary,
    dota: TimingSummary,
    /// Dense vs DOTA-sparse on median (p50) wall-clock.
    speedup: f64,
    /// Heap traffic of the DOTA-sparse kernel.
    dota_alloc: AllocSummary,
}

/// An element-wise kernel the repo owns the libm function of, in
/// nanoseconds per element (p50): the expression through the host libm
/// (`tanhf` for the `gelu_*` rows, `expf` for `softmax_*` — what the kernel
/// was before the repo owned that function), the scalar port loop (the
/// `ops` kernel under `DOTA_GEMM=scalar`), and the 8-lane kernel (under
/// `simd`; equal to `port` on a host without the lanes). All three produce
/// the same bits on a glibc ≤ 2.40 host with FMA units.
#[derive(Serialize)]
struct LibmPortLanesRow {
    /// `gelu_<rows>x<d_ff>`, `softmax_<len>`.
    kernel: String,
    libm_ns_per_elem: f64,
    port_ns_per_elem: f64,
    lanes_ns_per_elem: f64,
}

impl LibmPortLanesRow {
    /// Times `libm` and `kernel` (plain, then on the `simd` lanes) over
    /// `src` and prints the row.
    fn time(
        name: String,
        src: &[f32],
        libm: impl Fn(&mut [f32]),
        kernel: fn(Lanes, &mut [f32]),
    ) -> Self {
        let lanes = Lanes::of(KernelFamily::Simd);
        let row = Self {
            kernel: name,
            libm_ns_per_elem: ns_per_elem(src, libm),
            port_ns_per_elem: ns_per_elem(src, |xs| kernel(Lanes::Plain, xs)),
            lanes_ns_per_elem: ns_per_elem(src, |xs| kernel(lanes, xs)),
        };
        println!(
            "  {:<14} libm {:>6.2} ns/elem  port {:>6.2} ns/elem  lanes {:>6.2} ns/elem",
            row.kernel, row.libm_ns_per_elem, row.port_ns_per_elem, row.lanes_ns_per_elem
        );
        row
    }
}

/// One attention row (`ops::attend_row`: score → softmax → accumulate) at
/// head width 32 over a cached context, in nanoseconds per connection
/// (p50): every key, and every eighth key (an eighth of the connections,
/// rows 4 KiB apart instead of adjacent); the scalar body
/// (`DOTA_GEMM=scalar`) next to the 8-lane kernel (`simd`). Same bits
/// either way.
#[derive(Serialize)]
struct AttendRowRow {
    /// `attend_row_ctx<context>`.
    kernel: String,
    dense_scalar_ns_per_conn: f64,
    dense_lanes_ns_per_conn: f64,
    every8th_scalar_ns_per_conn: f64,
    every8th_lanes_ns_per_conn: f64,
}

/// One of the simulator's own kernels — the scheduler and the sampler behind
/// `simulate_shape` / `simulate_trace`, and the generator refill under the
/// sampler — in nanoseconds (p50) per `per`, next to the implementation it
/// stands in for where there is one.
#[derive(Serialize)]
struct SchedulerRow {
    /// `sched_loads_n<seq>_r10`, `sample_selection_n4096_r10` (a default-
    /// profile selection at retention 0.1), `chacha_refill`.
    kernel: String,
    /// What the nanoseconds are per: a selected key ID, or a refill of the
    /// generator's four ChaCha12 blocks.
    per: &'static str,
    /// `schedule_matrix(..).total_loads()` — every round built, then
    /// counted — for the `sched_loads_*` rows; a scalar block function
    /// called four times for `chacha_refill`.
    reference_ns: Option<f64>,
    /// `matrix_loads`; `sample_selection`; an undrawn generator's clone and
    /// first draw (`dota-bench` reaches the `rand` shim only through
    /// `SeededRng`: the refill plus a ~300-byte copy).
    ns: f64,
}

/// Selection as the detector runs it at sequence length 1024, retention
/// 0.1: the ordered path it replaced next to top-k as a set.
#[derive(Serialize)]
struct SelectionRow {
    /// `topk_set_n1024_k102` (one row of INT4 rank-6 estimated scores) or
    /// `detect_select_n1024_r10` (one head of the benchmark's mid encoder:
    /// sketch, estimate and selection).
    kernel: String,
    /// What the numbers are: `ns per element`, `ms per head`.
    unit: &'static str,
    /// `top_k_indices` plus the ascending sort its consumers then did;
    /// `estimated_scores_quantized` plus `top_k_rows`.
    ordered: f64,
    /// `top_k_set` on the scaled `f32` scores (the `topk_set_*` row only).
    set_f32: Option<f64>,
    /// `top_k_set_keys` on the row's integer accumulators in `±384`; the
    /// fused `DotaInferenceHook::select`.
    set_integer: f64,
}

#[derive(Serialize)]
struct CounterScenario {
    scenario: String,
    counters: std::collections::BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct Report {
    parallel_feature: bool,
    pool_threads: usize,
    /// Physical core count of the producing host (distinct core ids).
    physical_cores: usize,
    /// Detected SIMD capabilities (`avx2`/`fma`/`avx512f`/`neon`/`none`).
    cpu_features: Vec<&'static str>,
    /// Kernel family the fp32 GEMM rows ran with (`DOTA_GEMM` resolution).
    gemm_family: &'static str,
    host_note: &'static str,
    alloc_note: &'static str,
    gemm: Vec<GemmRow>,
    /// Family comparison at one fixed size (see [`FamilyRow`]).
    kernel_family_size: usize,
    kernel_families: Vec<FamilyRow>,
    attention: Vec<AttnRow>,
    /// GELU at a 32-row prefill block and at a 1024-row batch of the mid
    /// model's `d_ff` (see [`LibmPortLanesRow`]).
    gelu: Vec<LibmPortLanesRow>,
    /// The attention row kernel at two context lengths (see
    /// [`AttendRowRow`]).
    attend_row: Vec<AttendRowRow>,
    /// Softmax over one 1024-score row through each `exp` (see
    /// [`LibmPortLanesRow`]).
    exp: Vec<LibmPortLanesRow>,
    /// The simulator's scheduler, sampler and generator refill (see
    /// [`SchedulerRow`]).
    scheduler: Vec<SchedulerRow>,
    /// Top-k as a set and the fused detector select against the ordered,
    /// materialising path (see [`SelectionRow`]).
    selection: Vec<SelectionRow>,
    /// Deterministic hardware-counter snapshots (see `dota-trace`): the
    /// same scenarios `counters_baseline` regression-checks. Unlike the
    /// timing rows, these are bit-identical across hosts and thread counts.
    counters: Vec<CounterScenario>,
}

/// Wall-clock milliseconds of `reps` runs, as a streaming histogram the
/// report summarizes into p50/p95/p99 (instead of a single best-of mean),
/// plus the heap traffic of the reps (requires an open `dota-prof`
/// session and the `prof-alloc` feature to be nonzero).
fn time_hist<R>(reps: usize, mut f: impl FnMut() -> R) -> (Histogram, AllocSummary) {
    let before = dota_prof::alloc_stats();
    dota_prof::reset_peak();
    let mut h = Histogram::new();
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        h.record(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out);
    }
    let after = dota_prof::alloc_stats();
    let alloc = AllocSummary {
        alloc_mb_per_rep: after.allocated_bytes.saturating_sub(before.allocated_bytes) as f64
            / reps.max(1) as f64
            / MB,
        peak_mb: after.peak_bytes as f64 / MB,
    };
    (h, alloc)
}

fn p50(h: &Histogram) -> f64 {
    h.quantile(0.5).unwrap_or(f64::NAN)
}

fn gemm_rows(sizes: &[usize]) -> Vec<GemmRow> {
    let mut rows = Vec::new();
    let mut rng = SeededRng::new(7);
    for &size in sizes {
        let a = rng.normal_matrix(size, size, 1.0);
        let b = rng.normal_matrix(size, size, 1.0);
        let mut out = Matrix::zeros(size, size);
        // Naive cost grows as size^3; a couple of repetitions suffice for
        // a stable median at the large sizes.
        let (opt_reps, naive_reps) = if size >= 1024 { (3, 2) } else { (7, 3) };
        let (naive, _) = time_hist(naive_reps, || reference::matmul(&a, &b));
        // Warm the pack-buffer pool so the timed reps see the steady
        // state the alloc column is meant to capture.
        a.matmul_into(&b, &mut out).expect("shape");
        let (serial, serial_alloc) = dota_parallel::with_threads(1, || {
            time_hist(opt_reps, || a.matmul_into(&b, &mut out).expect("shape"))
        });
        let (pool, _) = time_hist(opt_reps, || a.matmul_into(&b, &mut out).expect("shape"));
        let row = GemmRow {
            size,
            pool_threads: dota_parallel::num_threads(),
            speedup_vs_naive: p50(&naive) / p50(&serial).max(1e-9),
            pool_speedup: p50(&serial) / p50(&pool).max(1e-9),
            naive: TimingSummary::from_hist(&naive),
            optimized_serial: TimingSummary::from_hist(&serial),
            optimized_pool: TimingSummary::from_hist(&pool),
            optimized_alloc: serial_alloc,
        };
        println!(
            "{:>5}  naive p50 {:>9.2} ms  serial p50 {:>8.2} ms (p99 {:>8.2})  pool p50 {:>8.2} ms  {:>5.1}x vs naive  {:>4.2}x pool",
            row.size, row.naive.p50_ms, row.optimized_serial.p50_ms, row.optimized_serial.p99_ms,
            row.optimized_pool.p50_ms, row.speedup_vs_naive, row.pool_speedup
        );
        rows.push(row);
    }
    rows
}

/// Times each available kernel family — fp32 scalar/simd/fma and the
/// quantized int8/int4 host kernels — on one `size`² product.
fn family_rows(size: usize, reps: usize) -> Vec<FamilyRow> {
    let mut rng = SeededRng::new(9);
    let a = rng.normal_matrix(size, size, 1.0);
    let b = rng.normal_matrix(size, size, 1.0);
    let mut out = Matrix::zeros(size, size);
    let flops = 2.0 * (size as f64).powi(3);
    let gflops = |ms: f64| flops / (ms.max(1e-9) * 1e-3) / 1e9;

    let mut rows = Vec::new();
    let mut scalar_p50 = f64::NAN;
    for fam in [KernelFamily::Scalar, KernelFamily::Simd, KernelFamily::Fma] {
        if simd::parse_family(fam.name()).is_err() {
            continue;
        }
        a.matmul_into(&b, &mut out).expect("shape"); // warm pools
        let (h, _) = simd::with_family(fam, || {
            time_hist(reps, || a.matmul_into(&b, &mut out).expect("shape"))
        });
        let ms = p50(&h);
        if fam == KernelFamily::Scalar {
            scalar_p50 = ms;
        }
        rows.push(FamilyRow {
            kernel: format!("fp32/{}", fam.name()),
            available: true,
            p50_ms: ms,
            gflops: gflops(ms),
            speedup_vs_scalar: scalar_p50 / ms.max(1e-9),
        });
    }

    // Quantized host kernels (layout is A·Bᵀ — same flop count). The i8
    // kernel uses AVX2 `madd` lanes when present; int4 adds nibble
    // unpacking on top of the same kernel.
    let q8a = Int8Matrix::quantize(&a, Precision::Int8);
    let q8b = Int8Matrix::quantize(&b, Precision::Int8);
    let (h8, _) = time_hist(reps, || q8a.matmul_nt_dequant(&q8b).expect("shape"));
    rows.push(FamilyRow {
        kernel: "int8".to_owned(),
        available: true,
        p50_ms: p50(&h8),
        gflops: gflops(p50(&h8)),
        speedup_vs_scalar: scalar_p50 / p50(&h8).max(1e-9),
    });
    let q4a = Int4Packed::quantize(&a, Precision::Int4);
    let q4b = Int4Packed::quantize(&b, Precision::Int4);
    let (h4, _) = time_hist(reps, || q4a.matmul_nt_dequant(&q4b).expect("shape"));
    rows.push(FamilyRow {
        kernel: "int4".to_owned(),
        available: true,
        p50_ms: p50(&h4),
        gflops: gflops(p50(&h4)),
        speedup_vs_scalar: scalar_p50 / p50(&h4).max(1e-9),
    });

    for r in &rows {
        println!(
            "  {:<12} p50 {:>8.2} ms  {:>7.2} GFLOP/s  {:>5.2}x vs fp32/scalar",
            r.kernel, r.p50_ms, r.gflops, r.speedup_vs_scalar
        );
    }
    rows
}

fn attention_rows() -> Vec<AttnRow> {
    let retention = 0.1;
    let hd = 64usize;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut rows = Vec::new();
    let mut rng = SeededRng::new(11);
    for b in dota_workloads::Benchmark::ALL {
        let n = b.paper_seq_len();
        let q = rng.normal_matrix(n, hd, 1.0);
        let k = rng.normal_matrix(n, hd, 1.0);
        let v = rng.normal_matrix(n, hd, 1.0);
        // Structured strided selection at the paper's ~10% retention; the
        // report times the attention arithmetic, not detection (Fig. 12c
        // shows detection is a small share of latency).
        let kept = ((retention * n as f64).round() as usize).clamp(1, n);
        let sel_row: Vec<u32> = (0..kept).map(|j| (j * n / kept) as u32).collect();
        let selected = vec![sel_row; n];
        let (dense, _) = time_hist(3, || {
            let scores = q.matmul_nt(&k).expect("shape").scale(scale);
            ops::softmax_rows(&scores).matmul(&v).expect("shape")
        });
        let (dota, dota_alloc) =
            time_hist(3, || ops::sparse_attention(&q, &k, &v, &selected, scale));
        let row = AttnRow {
            benchmark: b.name().to_owned(),
            seq_len: n,
            retention,
            speedup: p50(&dense) / p50(&dota).max(1e-9),
            dense: TimingSummary::from_hist(&dense),
            dota: TimingSummary::from_hist(&dota),
            dota_alloc,
        };
        println!(
            "{:>10}  n {:>5}  dense p50 {:>9.2} ms  DOTA p50 {:>8.2} ms (p99 {:>8.2})  {:>5.1}x",
            row.benchmark,
            row.seq_len,
            row.dense.p50_ms,
            row.dota.p50_ms,
            row.dota.p99_ms,
            row.speedup
        );
        rows.push(row);
    }
    rows
}

/// Median nanoseconds per element of `f` over a fresh copy of `src`, over
/// enough calls to touch 2¹⁹ elements. The exact median of the samples:
/// the streaming histogram's log buckets are coarser than the differences
/// the element-wise rows exist to show.
fn ns_per_elem(src: &[f32], mut f: impl FnMut(&mut [f32])) -> f64 {
    let mut buf = src.to_vec();
    let mut samples = Vec::new();
    for _ in 0..(1 << 19) / src.len() + 5 {
        buf.copy_from_slice(src);
        let t = Instant::now();
        f(&mut buf);
        samples.push(t.elapsed().as_secs_f64() * 1e9 / src.len() as f64);
        std::hint::black_box(&buf);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times GELU over `N(0, 1)` activations (real ones: the branches of a
/// scalar `tanhf` mispredict on them, unlike on a smooth ramp).
fn gelu_rows() -> Vec<LibmPortLanesRow> {
    println!("\nGELU (ns per element: host libm expression, scalar port, 8-lane kernel)");
    let mut rng = SeededRng::new(13);
    let libm = |xs: &mut [f32]| {
        for x in xs {
            let v = *x;
            *x = 0.5 * v * (1.0 + (0.797_884_6 * (v + 0.044_715 * v * v * v)).tanh());
        }
    };
    [(32, 512), (1024, 512)]
        .into_iter()
        .map(|(m, d_ff)| {
            let x = rng.normal_matrix(m, d_ff, 1.0);
            LibmPortLanesRow::time(
                format!("gelu_{m}x{d_ff}"),
                x.as_slice(),
                libm,
                ops::gelu_slice,
            )
        })
        .collect()
}

/// Times `ops::attend_row` on one head (width 32) of a four-head cache.
fn attend_row_rows() -> Vec<AttendRowRow> {
    println!("\nAttention row (ns per connection at head width 32: scalar body, 8-lane kernel)");
    const HD: usize = 32;
    let mut rng = SeededRng::new(15);
    let mut rows = Vec::new();
    for context in [128usize, 1024] {
        let q = rng.normal_matrix(1, HD, 1.0);
        let k = rng.normal_matrix(context, 4 * HD, 1.0);
        let v = rng.normal_matrix(context, 4 * HD, 1.0);
        let dense: Vec<u32> = (0..context as u32).collect();
        let every8th: Vec<u32> = dense.iter().copied().step_by(8).collect();
        let time = |lanes: Lanes, sel: &[u32]| {
            let mut state = ops::Attend::new(lanes, 0.176_776_7);
            let attend =
                |out: &mut [f32]| ops::attend_row(&mut state, q.row(0), &k, &v, HD, sel, out);
            ns_per_elem(&[0.0; HD], attend) * HD as f64 / sel.len() as f64
        };
        let lanes = Lanes::of(KernelFamily::Simd);
        let row = AttendRowRow {
            kernel: format!("attend_row_ctx{context}"),
            dense_scalar_ns_per_conn: time(Lanes::Plain, &dense),
            dense_lanes_ns_per_conn: time(lanes, &dense),
            every8th_scalar_ns_per_conn: time(Lanes::Plain, &every8th),
            every8th_lanes_ns_per_conn: time(lanes, &every8th),
        };
        println!(
            "  {:<20} dense: scalar {:>5.2} lanes {:>5.2}   every 8th key: scalar {:>5.2} lanes {:>5.2}",
            row.kernel,
            row.dense_scalar_ns_per_conn,
            row.dense_lanes_ns_per_conn,
            row.every8th_scalar_ns_per_conn,
            row.every8th_lanes_ns_per_conn
        );
        rows.push(row);
    }
    rows
}

/// Times softmax over `N(0, 2)` scores.
fn exp_rows() -> Vec<LibmPortLanesRow> {
    println!("\nSoftmax (ns per element: host libm expression, scalar port loop, 8-lane kernel)");
    let mut rng = SeededRng::new(16);
    let libm = |row: &mut [f32]| {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        row.iter_mut().for_each(|x| *x /= sum);
    };
    let x = rng.normal_matrix(1, 1024, 2.0);
    let name = "softmax_1024".to_owned();
    vec![LibmPortLanesRow::time(
        name,
        x.as_slice(),
        libm,
        ops::softmax_slice,
    )]
}

/// Exact median nanoseconds of `f` over `reps` calls.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One ChaCha12 block in plain scalar code: what the generator's refill
/// called four times before it computed its four blocks in lanes.
fn chacha12_block_scalar(key: &[u32; 8], counter: u64) -> [u32; 16] {
    fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        for (rot_d, rot_b) in [(16, 12), (8, 7)] {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(rot_d);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(rot_b);
        }
    }
    let mut state = [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
    ];
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    let mut x = state;
    for _ in 0..6 {
        for (a, b, c, d) in [(0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15)] {
            quarter(&mut x, a, b, c, d);
        }
        for (a, b, c, d) in [(0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14)] {
            quarter(&mut x, a, b, c, d);
        }
    }
    for (xi, si) in x.iter_mut().zip(&state) {
        *xi = xi.wrapping_add(*si);
    }
    x
}

/// Times the scheduler on default-profile selections at retention 0.1, the
/// sampler that draws them, and the generator refill under it.
fn scheduler_rows() -> Vec<SchedulerRow> {
    println!(
        "\nScheduler (ns per selected key ID; materialised schedule vs counted), sampler, refill"
    );
    let profile = SelectionProfile::default();
    let token_parallelism = AccelConfig::default().token_parallelism;
    let mut rows = Vec::new();
    for n in [1024usize, 4096] {
        let sel = sample_selection(n, n / 10, &profile, &mut SeededRng::new(19));
        let ids = (n * (n / 10)) as f64;
        let reps = if n > 1024 { 5 } else { 15 };
        let counted = matrix_loads(&sel, token_parallelism, true).loads;
        assert_eq!(
            schedule_matrix(&sel, token_parallelism, true).total_loads(),
            counted
        );
        rows.push(SchedulerRow {
            kernel: format!("sched_loads_n{n}_r10"),
            per: "key ID",
            reference_ns: Some(
                median_ns(reps, || {
                    schedule_matrix(&sel, token_parallelism, true).total_loads()
                }) / ids,
            ),
            ns: median_ns(reps, || matrix_loads(&sel, token_parallelism, true).loads) / ids,
        });
    }
    let n = 4096;
    rows.push(SchedulerRow {
        kernel: format!("sample_selection_n{n}_r10"),
        per: "key ID",
        reference_ns: None,
        ns: median_ns(5, || {
            sample_selection(n, n / 10, &profile, &mut SeededRng::new(19))
        }) / (n * (n / 10)) as f64,
    });
    const REFILLS: usize = 2000;
    let undrawn = SeededRng::new(17);
    let key = [0x0123_4567, 0x89ab_cdef, 2, 3, 4, 5, 6, 7];
    rows.push(SchedulerRow {
        kernel: "chacha_refill".to_owned(),
        per: "4 blocks",
        reference_ns: Some(
            median_ns(15, || {
                (0..REFILLS as u64).fold(0, |sum, refill| {
                    let blocks: [[u32; 16]; 4] = std::array::from_fn(|b| {
                        chacha12_block_scalar(std::hint::black_box(&key), 4 * refill + b as u64)
                    });
                    sum ^ std::hint::black_box(blocks)[3][15]
                })
            }) / REFILLS as f64,
        ),
        ns: median_ns(15, || {
            (0..REFILLS).fold(0.0, |sum, _| {
                sum + std::hint::black_box(&undrawn).clone().uniform()
            })
        }) / REFILLS as f64,
    });
    for r in &rows {
        match r.reference_ns {
            Some(reference) => println!(
                "  {:<28} reference {:>7.2}  now {:>7.2}  ns per {}",
                r.kernel, reference, r.ns, r.per
            ),
            None => println!("  {:<28} {:>27.2}  ns per {}", r.kernel, r.ns, r.per),
        }
    }
    rows
}

/// The benchmark's mid encoder shape (4 heads of 32 at d 128: detector rank
/// 6 at the default sigma) with a default INT4 detector at retention 0.1,
/// and `n` rows of layer input.
fn detector_fixture(n: usize) -> (DotaHook, ParamSet, Matrix) {
    let model = TransformerConfig {
        d_model: 128,
        n_heads: 4,
        ..TransformerConfig::tiny(n, 256, 4)
    };
    let mut params = ParamSet::new();
    let hook = DotaHook::init(DetectorConfig::new(0.1), &model, &mut params);
    let x = SeededRng::new(23).normal_matrix(n, model.d_model, 1.0);
    (hook, params, x)
}

/// Times top-k as a set against the ordered top-k on one row of estimated
/// scores, and the fused select against materialise-then-rank on one head.
fn selection_rows() -> Vec<SelectionRow> {
    println!(
        "\nSelection at n 1024, retention 0.1 (ordered path | set, f32 front | set, integer keys)"
    );
    const N: usize = 1024;
    const K: usize = 102;
    // One row of a real INT4 rank-6 estimate, as accumulators and scaled.
    let mut rng = SeededRng::new(22);
    let q = Int8Matrix::quantize(&rng.normal_matrix(1, 6, 1.0), Precision::Int4);
    let k = Int8Matrix::quantize(&rng.normal_matrix(N, 6, 1.0), Precision::Int4);
    let bound = q.acc_bound(&k) as i32;
    let lanes = Lanes::active();
    let mut acc = Vec::new();
    q.for_each_acc_row(lanes, &k, |_, row| acc = row.to_vec())
        .expect("shape");
    let scores = q.matmul_nt_dequant(&k).expect("shape");
    let scores = scores.row(0);
    let (mut keys, mut set) = (Vec::new(), Vec::with_capacity(K));
    const ROWS: usize = 200;
    let per_elem = |ns: f64| ns / (ROWS * N) as f64;
    let topk_row = SelectionRow {
        kernel: format!("topk_set_n{N}_k{K}"),
        unit: "ns per element",
        ordered: per_elem(median_ns(15, || {
            for _ in 0..ROWS {
                let mut idx = topk::top_k_indices(std::hint::black_box(scores), K);
                idx.sort_unstable();
                std::hint::black_box(idx);
            }
        })),
        set_f32: Some(per_elem(median_ns(15, || {
            for _ in 0..ROWS {
                set.clear();
                topk::top_k_set(lanes, std::hint::black_box(scores), K, &mut keys, &mut set);
                std::hint::black_box(&set);
            }
        }))),
        set_integer: per_elem(median_ns(15, || {
            for _ in 0..ROWS {
                set.clear();
                let acc = std::hint::black_box(&acc);
                topk::top_k_set_keys(lanes, acc, K, -bound, bound, &mut set);
                std::hint::black_box(&set);
            }
        })),
    };

    let (hook, params, x) = detector_fixture(N);
    let (det, cfg) = (hook.detector(0, 0), hook.config());
    let bound_hook = hook.inference(&params);
    let fused = bound_hook.select(0, 0, &x).expect("the detector selects");
    let materialised = topk::top_k_rows(&det.estimated_scores_quantized(cfg, &params, &x), K);
    assert!(
        fused.iter().zip(&materialised).all(|(f, m)| {
            let mut m: Vec<u32> = m.iter().map(|&j| j as u32).collect();
            m.sort_unstable();
            *f == m
        }),
        "fused select disagrees with the materialised path"
    );
    let select_row = SelectionRow {
        kernel: format!("detect_select_n{N}_r10"),
        unit: "ms per head",
        ordered: median_ns(9, || {
            topk::top_k_rows(&det.estimated_scores_quantized(cfg, &params, &x), K)
        }) / 1e6,
        set_f32: None,
        set_integer: median_ns(9, || bound_hook.select(0, 0, &x)) / 1e6,
    };
    let rows = vec![topk_row, select_row];
    for r in &rows {
        let set_f32 = r
            .set_f32
            .map_or("      -".to_owned(), |v| format!("{v:>7.3}"));
        println!(
            "  {:<26} ordered {:>7.3}  set/f32 {set_f32}  set/integer {:>7.3}  {}",
            r.kernel, r.ordered, r.set_integer, r.unit
        );
    }
    rows
}

/// Heap bytes one fused `select` may allocate at sequence length 512: the
/// selection itself (~100 KiB), the sketches and one row buffer. The
/// materialised path takes a 1 MiB score matrix there (and as much again in
/// packed keys), so an `n x n` buffer cannot come back unnoticed.
const SELECT_ALLOC_BUDGET_BYTES: u64 = 1 << 20;

/// The detector leg of the `--quick` allocation smoke.
fn select_allocation_pin() -> bool {
    let (hook, params, x) = detector_fixture(512);
    let bound = hook.inference(&params);
    std::hint::black_box(bound.select(0, 0, &x));
    let before = dota_prof::alloc_stats().allocated_bytes;
    std::hint::black_box(bound.select(0, 0, &x));
    let spent = dota_prof::alloc_stats().allocated_bytes - before;
    println!("fused select at n 512 allocates {spent} bytes (budget {SELECT_ALLOC_BUDGET_BYTES})");
    if spent >= SELECT_ALLOC_BUDGET_BYTES {
        eprintln!("FAIL: the fused select allocates like a score matrix");
        return false;
    }
    println!("the fused select holds no n x n buffer: OK");
    true
}

/// Steady-state allocation budget for the `--quick` smoke, in bytes
/// across all timed reps combined: after warmup, the packed path
/// (`matmul_into` + pooled pack buffers) should allocate nothing; the
/// budget only leaves room for allocator bookkeeping noise. Deliberately
/// independent of matrix size — that is the property being asserted.
const QUICK_ALLOC_BUDGET_BYTES: u64 = 1 << 20;

/// `--quick`: a CI-sized smoke. Returns process success.
fn run_quick() -> bool {
    let mut manifest = dota_bench::run_manifest("bench_report_quick");
    manifest.config("mode", "quick");
    manifest.config("gemm_family", KernelFamily::active().name());
    println!(
        "Quick kernel smoke (family {}, features {})\n",
        KernelFamily::active().name(),
        simd::cpu_features().join("+")
    );
    println!("GEMM (square, f32)");
    let gemm = gemm_rows(&[128, 256]);
    println!("\nKernel families at 256² (fp32 vs quantized)");
    let families = family_rows(256, 3);
    // Sanity: the quantized kernels must have produced sane speed numbers.
    assert!(
        families.iter().all(|r| r.p50_ms.is_finite()),
        "non-finite family timing"
    );
    assert!(!gemm.is_empty());
    gelu_rows();
    attend_row_rows();
    exp_rows();
    scheduler_rows();
    selection_rows();

    // Detect whether the counting allocator is live: a deliberate 1 MiB
    // allocation must move the counter. Without prof-alloc the budget
    // assert is vacuous and is skipped (CI builds the smoke with it).
    let before = dota_prof::alloc_stats();
    let probe = vec![0u8; 1 << 20];
    std::hint::black_box(&probe);
    drop(probe);
    let counting = dota_prof::alloc_stats().allocated_bytes > before.allocated_bytes;
    if !counting {
        println!("\n[prof-alloc not active: steady-state budget assert skipped]");
        return true;
    }

    // The budget assert proper: warm the pools, then measure allocation
    // across repeated packed products into a reused output.
    let mut rng = SeededRng::new(21);
    let a = rng.normal_matrix(256, 256, 1.0);
    let b = rng.normal_matrix(256, 256, 1.0);
    let mut out = Matrix::zeros(256, 256);
    for _ in 0..2 {
        a.matmul_into(&b, &mut out).expect("shape");
    }
    let before = dota_prof::alloc_stats().allocated_bytes;
    for _ in 0..10 {
        a.matmul_into(&b, &mut out).expect("shape");
        std::hint::black_box(&out);
    }
    let spent = dota_prof::alloc_stats()
        .allocated_bytes
        .saturating_sub(before);
    println!(
        "\nsteady-state alloc across 10 packed 256² products: {spent} bytes (budget {QUICK_ALLOC_BUDGET_BYTES})"
    );
    if spent > QUICK_ALLOC_BUDGET_BYTES {
        eprintln!("FAIL: packed GEMM steady state exceeded the allocation budget");
        return false;
    }
    println!("steady-state allocation budget: OK");
    few_row_allocation_pin(&mut rng)
        && decode_allocation_pins()
        && decode_scratch_pins()
        && simulate_allocation_pin()
        && select_allocation_pin()
}

/// The few-row leg of the `--quick` allocation smoke: one-row products of
/// the tiny and the mid model's shapes into a reused output allocate
/// nothing themselves — the row tile reads `W` in place, so there is no
/// pack and no pooled buffer to take. The counter leaves out the profiling
/// session's own bookkeeping (a `gemm.matmul` span duration landing in a
/// new histogram bucket), so this reads 0; the pin is fewer allocations
/// than products and fewer bytes than one copy of `W`. The family is read
/// once, as the decode forward reads it (a set `DOTA_GEMM` allocates its
/// value on every read).
fn few_row_allocation_pin(rng: &mut SeededRng) -> bool {
    const PRODUCTS: u64 = 100;
    let family = KernelFamily::active();
    for (k, n) in [(32, 32), (128, 512)] {
        let x = rng.normal_matrix(1, k, 1.0);
        let w = rng.normal_matrix(k, n, 1.0);
        let mut out = Matrix::zeros(1, n);
        x.gemm_into(&w, &mut out, family).expect("shape");
        let before = dota_prof::alloc_stats();
        for _ in 0..PRODUCTS {
            x.gemm_into(&w, &mut out, family).expect("shape");
            std::hint::black_box(&out);
        }
        let after = dota_prof::alloc_stats();
        let calls = after.allocation_calls - before.allocation_calls;
        let bytes = after.allocated_bytes - before.allocated_bytes;
        println!(
            "steady-state allocation across {PRODUCTS} 1x{k}x{n} products: {calls} calls, {bytes} bytes"
        );
        if calls >= PRODUCTS || bytes >= (4 * k * n) as u64 {
            eprintln!("FAIL: a few-row product allocates or copies W");
            return false;
        }
    }
    println!("few-row products read W in place: OK");
    true
}

/// Heap allocations a single-row `decode_step` may make on the tiny model:
/// the buffers of the fresh arena it runs in, each taken once (16 today;
/// 27 before the forward had an arena, when every layer took its own).
/// None per attended row, whose scores land in pooled scratch.
const DECODE_STEP_ALLOC_BUDGET: u64 = 27;

/// Rows of the block `decode_rows` is held to amortize its buffers over.
const BLOCK_ROWS: usize = 32;

/// Heap allocations one [`BLOCK_ROWS`]-row `decode_rows` call may make on
/// the tiny model (17 today, a fresh arena's buffers; 29 before the arena;
/// 369 when every `(row, head, layer)` took a score vector of its own).
const BLOCK_ALLOC_BUDGET: u64 = 29;

/// The decode leg of the `--quick` allocation smoke, for the wrappers that
/// run in a fresh arena: one dense `decode_step` makes the same number of
/// heap allocations at context 64 as at context 768 — every buffer it
/// takes is per call, none per cached position — and no more than
/// [`DECODE_STEP_ALLOC_BUDGET`]; and one [`BLOCK_ROWS`]-row `decode_rows`
/// call makes no more than [`BLOCK_ALLOC_BUDGET`], far fewer than
/// [`BLOCK_ROWS`] single steps would: the block path shares its buffers
/// across rows instead of taking them per row. The caches are sized at
/// creation, so no probe sees one grow.
fn decode_allocation_pins() -> bool {
    const PROBES: [usize; 2] = [64, 768];
    let mut params = ParamSet::new();
    let model = Model::init(
        TransformerConfig::tiny_causal(PROBES[1], 16),
        &mut params,
        5,
    );
    let (n_layers, d) = (model.config().n_layers, model.config().d_model);
    let mut cache = KvCache::with_capacity(n_layers, d, PROBES[1]);
    let mut calls = [0u64; 2];
    while cache.len() < PROBES[1] {
        let before = dota_prof::alloc_stats().allocation_calls;
        let token = cache.len() % 16;
        std::hint::black_box(model.decode_step(&params, &mut cache, token, &DenseDecode));
        let spent = dota_prof::alloc_stats().allocation_calls - before;
        if let Some(i) = PROBES.iter().position(|&p| p == cache.len()) {
            calls[i] = spent;
        }
    }
    println!(
        "decode_step heap allocations at context {}: {}, at context {}: {}",
        PROBES[0], calls[0], PROBES[1], calls[1]
    );
    if calls[0] != calls[1] {
        eprintln!("FAIL: decode_step allocates more as the cache grows");
        return false;
    }
    println!("decode allocation count independent of context: OK");
    if calls[0] > DECODE_STEP_ALLOC_BUDGET {
        eprintln!("FAIL: decode_step exceeded {DECODE_STEP_ALLOC_BUDGET} allocations");
        return false;
    }

    // Positions 80..112 of a fresh cache.
    let tokens: Vec<usize> = (0..80 + BLOCK_ROWS).map(|i| i % 16).collect();
    let mut cache = KvCache::with_capacity(n_layers, d, tokens.len());
    let mut rows_calls = |tokens: &[usize]| {
        let before = dota_prof::alloc_stats().allocation_calls;
        let mut item = [DecodeItem {
            cache: &mut cache,
            tokens,
            selector: &DenseDecode,
        }];
        std::hint::black_box(model.decode_rows(&params, &mut item));
        dota_prof::alloc_stats().allocation_calls - before
    };
    rows_calls(&tokens[..80]);
    let block_calls = rows_calls(&tokens[80..]);
    println!(
        "decode_rows heap allocations for {BLOCK_ROWS} rows: {block_calls} ({BLOCK_ROWS} single steps: {})",
        BLOCK_ROWS as u64 * calls[0]
    );
    if block_calls > BLOCK_ALLOC_BUDGET {
        eprintln!("FAIL: the block path exceeded {BLOCK_ALLOC_BUDGET} allocations");
        return false;
    }
    println!("decode_rows amortizes its buffers over the block: OK");
    true
}

/// Keeps the most recent `ceil(r · t)` positions, answering in place:
/// `dota_serve::WindowSelector`'s rule (this binary has no edge to
/// `dota-serve`), for the window leg of [`decode_scratch_pins`].
struct Window(f64);

impl DecodeSelector for Window {
    fn select(&self, l: usize, h: usize, x: &Matrix, len: usize) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        self.select_into(l, h, x, len, &mut out).then_some(out)
    }

    fn select_into(
        &self,
        _l: usize,
        _h: usize,
        _x: &Matrix,
        len: usize,
        out: &mut Vec<u32>,
    ) -> bool {
        let keep = ((self.0 * len as f64).ceil() as usize).max(1).min(len);
        out.extend((len - keep) as u32..len as u32);
        true
    }
}

/// Positions a sequence of the steady-state pin has decoded before the
/// counted call: the detector's sketches have doubled to 128 rows by then
/// and the counted rows (at most 32) fit, so nothing may grow.
const STEADY_FROM: usize = 96;

/// The arena leg of the `--quick` allocation smoke: a `decode_rows_in`
/// call into an arena that has seen the call's shapes, over a cache sized
/// at creation, allocates nothing at all — at the tiny and the mid model's
/// shapes, for one row and for a 32-row block, under the dense, window and
/// detector selectors. Each count is a sequence's call at positions
/// [`STEADY_FROM`]`..`, after the same calls on another sequence have shown
/// the arena (shared by every sequence) those shapes.
fn decode_scratch_pins() -> bool {
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
    let mut ok = true;
    for (name, cfg) in shapes {
        let mut params = ParamSet::new();
        let model = Model::init(cfg, &mut params, 5);
        let hook = DotaHook::init(DetectorConfig::new(0.125), model.config(), &mut params);
        let cfg = model.config();
        let mut scratch = DecodeScratch::default();
        for rows in [1, 32] {
            let mut counts = Vec::new();
            for kind in ["dense", "window", "dota"] {
                // The first pass shows the arena the shapes; the second counts.
                let mut spent = 0;
                for _ in 0..2 {
                    let selector: Box<dyn DecodeSelector> = match kind {
                        "dense" => Box::new(DenseDecode),
                        "window" => Box::new(Window(0.25)),
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
                        let before = dota_prof::alloc_stats().allocation_calls;
                        std::hint::black_box(model.decode_rows_in(
                            &params,
                            &mut item,
                            &mut scratch,
                        ));
                        spent = dota_prof::alloc_stats().allocation_calls - before;
                    }
                }
                counts.push(format!("{kind} {spent}"));
                ok &= spent == 0;
            }
            println!(
                "decode_rows_in steady-state heap allocations, {name} model, {rows} row(s): {}",
                counts.join(", ")
            );
        }
    }
    if !ok {
        eprintln!("FAIL: a steady-state decode_rows_in call allocates");
        return false;
    }
    println!("decode_rows_in runs without the allocator in steady state: OK");
    true
}

/// Heap allocations one sparse `simulate_shape` may make (the sampler's and
/// the counter's buffers and one group of rows, all taken once: 15 today;
/// about 212,000 when every round was two `Vec`s and every row one).
const SIMULATE_SHAPE_ALLOC_BUDGET: u64 = 64;

/// The simulator leg of the `--quick` allocation smoke: `simulate_shape`
/// holds one token-parallel group at a time and counts its schedule, so it
/// allocates nothing per round, per row or per group.
fn simulate_allocation_pin() -> bool {
    let accel = Accelerator::new(AccelConfig::default());
    let model = TransformerConfig::lra(2048, 4);
    let before = dota_prof::alloc_stats().allocation_calls;
    std::hint::black_box(accel.simulate_shape(
        &model,
        2048,
        0.1,
        0.2,
        &SelectionProfile::default(),
    ));
    let calls = dota_prof::alloc_stats().allocation_calls - before;
    println!("simulate_shape(lra@2048, retention 0.1) heap allocations: {calls}");
    if calls > SIMULATE_SHAPE_ALLOC_BUDGET {
        eprintln!("FAIL: simulate_shape exceeded {SIMULATE_SHAPE_ALLOC_BUDGET} allocations");
        return false;
    }
    println!("simulate_shape allocates nothing per round, row or group: OK");
    true
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let label = if quick {
        "bench_report_quick"
    } else {
        "bench_report"
    };
    // Profile-only: `counter_scenarios` opens its own exclusive trace
    // sessions, which would deadlock against an outer one (the profiler
    // gate is independent of the trace gate). The allocation columns need
    // a profiling session whether or not `--profile`/`DOTA_PROF` asked for
    // its files, so one is opened here when the binding opened none.
    let _files = dota_bench::profile_session(label);
    let _prof = (!dota_prof::enabled()).then(|| dota_prof::session(label));
    if quick {
        if !run_quick() {
            std::process::exit(1);
        }
        return;
    }
    let mut manifest = dota_bench::run_manifest("bench_report");
    manifest.config("gemm_family", KernelFamily::active().name());
    println!(
        "Kernel report (parallel feature: {}, pool threads: {}, physical cores: {}, cpu: {}, family: {})\n",
        cfg!(feature = "parallel"),
        dota_parallel::num_threads(),
        dota_parallel::num_physical_cores(),
        simd::cpu_features().join("+"),
        KernelFamily::active().name(),
    );
    println!("GEMM (square, f32): packed/blocked kernels vs naive reference");
    let gemm = gemm_rows(&[128, 256, 512, 1024, 2048]);
    const FAMILY_SIZE: usize = 512;
    println!("\nKernel families at {FAMILY_SIZE}² (fp32 scalar/simd/fma vs quantized int8/int4)");
    let kernel_families = family_rows(FAMILY_SIZE, 5);
    println!("\nAttention (head_dim 64, retention 10%): dense vs DOTA-sparse");
    let attention = attention_rows();
    let gelu = gelu_rows();
    let attend_row = attend_row_rows();
    let exp = exp_rows();
    let scheduler = scheduler_rows();
    let selection = selection_rows();

    println!("\nHardware counters (deterministic; selected totals per scenario)");
    let counters: Vec<CounterScenario> = dota_bench::counter_scenarios()
        .into_iter()
        .map(|(scenario, counters)| CounterScenario { scenario, counters })
        .collect();
    for cs in &counters {
        println!("  {} ({} counters)", cs.scenario, cs.counters.len());
        // Headline totals only; the JSON carries the full snapshot.
        for key in [
            "sched.row_by_row.loads",
            "sched.in_order.loads",
            "sched.ooo.loads",
            "accel.cycles.attention",
            "accel.key_loads",
            "decode.cycles",
            "attn.connections.omitted",
            "dram.bytes_read",
        ] {
            if let Some(v) = cs.counters.get(key) {
                println!("    {key:<28} {v}");
            }
        }
    }

    let report = Report {
        parallel_feature: cfg!(feature = "parallel"),
        pool_threads: dota_parallel::num_threads(),
        physical_cores: dota_parallel::num_physical_cores(),
        cpu_features: simd::cpu_features(),
        gemm_family: KernelFamily::active().name(),
        host_note: "pool_speedup is host-dependent; ~1.0 on single-core runners",
        alloc_note: "allocation columns need --features prof-alloc; zeros otherwise",
        gemm,
        kernel_family_size: FAMILY_SIZE,
        kernel_families,
        attention,
        gelu,
        attend_row,
        exp,
        scheduler,
        selection,
        counters,
    };
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_kernels.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, json).expect("write BENCH_kernels.json");
    println!("\n[report written to {}]", path.display());
}
