//! Kernel timing report: wall-clock timings of the GEMM kernels
//! (naive reference vs the packed/blocked kernels, serial vs the
//! `parallel` thread pool, fp32 lanes vs the quantized INT8 and INT4 host
//! kernels), of dense vs DOTA-sparse attention at the five paper sequence
//! lengths (§5.1), of the element-wise, attention-row, scheduler,
//! selection and seeded-draw kernels, and of one stream's decode steps
//! under the dense, window and detector selectors at contexts 1024 and
//! 4096. Every time is the exact median of its repetitions. Writes
//! `BENCH_kernels.json` at the repository root.
//!
//! Run with:
//! `cargo run --release -p dota-bench --features parallel,prof-alloc --bin bench_report`
//!
//! `prof-alloc` fills the allocation columns (zeros without it). The
//! allocation budgets of the decode, GEMM, simulator and selection paths
//! are tests, not rows: `crates/bench/tests/alloc_pins.rs`.
//!
//! Thread-pool speedups depend on the machine: the report records the
//! actual pool width, physical core count and detected CPU features so
//! `pool_speedup` is interpretable across hosts — expect ~1.0 on a
//! single-core container and >3x at 2048² on a real multi-core host.

use dota_accel::sched::{matrix_loads, schedule_matrix};
use dota_accel::synth::{sample_selection, SelectionProfile};
use dota_accel::AccelConfig;
use dota_autograd::ParamSet;
use dota_detector::decode::DotaDecodeSelector;
use dota_detector::{DetectorConfig, DotaHook};
use dota_quant::{Int4Packed, Int8Matrix, Precision};
use dota_tensor::lanes::{self, Lanes};
use dota_tensor::rng::SeededRng;
use dota_tensor::simd;
use dota_tensor::{ops, reference, topk, Matrix};
use dota_transformer::{
    DecodeItem, DecodeScratch, DecodeSelector, DenseDecode, InferenceHook, KvCache, Model,
    TransformerConfig, WindowSelector,
};
use serde::Serialize;
use std::time::Instant;

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
    naive_ms: f64,
    optimized_serial_ms: f64,
    optimized_pool_ms: f64,
    /// Active-lanes kernel vs the textbook triple loop, both serial.
    speedup_vs_naive: f64,
    /// Thread pool vs `DOTA_THREADS=1`; ~1.0 without the
    /// `parallel` feature or on a single-core host.
    pool_speedup: f64,
    /// Heap traffic of the serial optimized kernel (timed through
    /// `matmul_into` with a reused output, so the packed path's steady
    /// state is ~0 regardless of size).
    optimized_alloc: AllocSummary,
}

/// One kernel timed at a fixed square size — the fp32 bodies next to
/// the quantized host kernels, so fp32-vs-int8 throughput sits in
/// one table beside the RMMU cycle model.
#[derive(Serialize)]
struct FamilyRow {
    /// `fp32/scalar`, `fp32/<host lanes>` (where the host has lanes),
    /// `int8`, `int4`.
    kernel: String,
    ms: f64,
    /// `2·n³` multiply-adds over the median wall-clock.
    gflops: f64,
    /// Speedup vs the `fp32/scalar` row of the same size.
    speedup_vs_scalar: f64,
}

#[derive(Serialize)]
struct AttnRow {
    benchmark: String,
    seq_len: usize,
    retention: f64,
    dense_ms: f64,
    dota_ms: f64,
    /// Dense vs DOTA-sparse.
    speedup: f64,
    /// Heap traffic of the DOTA-sparse kernel.
    dota_alloc: AllocSummary,
}

/// An element-wise kernel the repo owns the libm function of, in
/// nanoseconds per element: the expression through the host libm
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
        // Every call runs on one buffer refilled from `src` untimed just
        // before it (GELU's branches and softmax's range depend on the
        // values), and the calls touch 2¹⁹ elements in all.
        let ns_per_elem = |f: &dyn Fn(&mut [f32])| {
            let mut buf = src.to_vec();
            let reps = (1 << 19) / src.len() + 5;
            median_of(reps, || {
                buf.copy_from_slice(src);
                time_ns(|| f(&mut buf))
            }) / src.len() as f64
        };
        let lanes = Lanes::host();
        let row = Self {
            kernel: name,
            libm_ns_per_elem: ns_per_elem(&libm),
            port_ns_per_elem: ns_per_elem(&|xs| kernel(Lanes::Plain, xs)),
            lanes_ns_per_elem: ns_per_elem(&|xs| kernel(lanes, xs)),
        };
        println!(
            "  {:<14} libm {:>6.2} ns/elem  port {:>6.2} ns/elem  lanes {:>6.2} ns/elem",
            row.kernel, row.libm_ns_per_elem, row.port_ns_per_elem, row.lanes_ns_per_elem
        );
        row
    }
}

/// One attention row (`ops::attend_row`: score → softmax → accumulate) at
/// head width 32 over a cached context, in nanoseconds per connection:
/// every key, and every eighth key (an eighth of the connections,
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
/// sampler — in nanoseconds per `per`, next to the implementation it
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

/// One decode step of the benchmark's mid causal model (4 layers, d 128,
/// 4 heads of 32: detector rank 6) on one stream grown to context 4096
/// under one selector, every step in one warm arena.
#[derive(Serialize)]
struct DecodeRow {
    /// `decode_ctx<context>_<selector>`: `dense`, `window` (the serving
    /// window at retention 0.125) or `dota` (the detector at 0.125).
    kernel: String,
    /// Median of the 64 steps ending at the context, microseconds each.
    us_per_tok: f64,
}

/// Seeded initialisation, the cost `Model::init` and `DotaHook::init` are
/// made of: the bulk Box–Muller, the keystream under it, and the
/// benchmark's mid causal model at context 1024 (1.1M draws). Medians.
#[derive(Serialize)]
struct DrawRow {
    /// `rng.normal_ns_per_draw`: `SeededRng::normal_matrix` over 2¹⁸
    /// draws.
    normal_ns_per_draw: f64,
    /// `rng.keystream_ns_per_word`: `SeededRng::fill_words` over 2¹⁶ words.
    keystream_ns_per_word: f64,
    /// `transformer.init_mid_ms`: one `Model::init`.
    init_mid_ms: f64,
}

#[derive(Serialize)]
struct Report {
    parallel_feature: bool,
    pool_threads: usize,
    /// Physical core count of the producing host (distinct core ids).
    physical_cores: usize,
    /// Detected SIMD capabilities (`avx2`/`fma`/`avx512f`/`neon`/`none`).
    cpu_features: Vec<&'static str>,
    /// Lanes the fp32 GEMM rows ran on (`DOTA_GEMM` resolution).
    gemm_family: &'static str,
    host_note: &'static str,
    alloc_note: &'static str,
    gemm: Vec<GemmRow>,
    /// Kernel comparison at one fixed size (see [`FamilyRow`]).
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
    /// Seeded initialisation (see [`DrawRow`]).
    draws: DrawRow,
    /// Decode steps at contexts 1024 and 4096 per selector (see
    /// [`DecodeRow`]).
    decode: Vec<DecodeRow>,
}

/// Wall-clock nanoseconds of one call of `f`; its result is dropped
/// untimed.
fn time_ns<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_secs_f64() * 1e9;
    drop(std::hint::black_box(out));
    ns
}

/// Exact median of `reps` draws of `sample`: the report's one estimator.
/// The sample buffer is allocated before the first draw.
fn median_of(reps: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    samples.extend((0..reps).map(|_| sample()));
    let mid = samples.len() / 2;
    *samples.select_nth_unstable_by(mid, f64::total_cmp).1
}

/// Exact median wall-clock nanoseconds of `reps` calls of `f`.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median_of(reps, || time_ns(&mut f))
}

/// Median milliseconds of `reps` calls of `f`, and the heap traffic of
/// those calls alone (nonzero under the open `dota-prof` session only with
/// the `prof-alloc` feature).
fn median_ms_alloc<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, AllocSummary) {
    dota_prof::reset_peak();
    let mut bytes = 0;
    let ms = median_of(reps, || {
        let before = dota_prof::alloc_stats().allocated_bytes;
        let ns = time_ns(&mut f);
        bytes += dota_prof::alloc_stats().allocated_bytes - before;
        ns
    }) / 1e6;
    let alloc = AllocSummary {
        alloc_mb_per_rep: bytes as f64 / reps.max(1) as f64 / MB,
        peak_mb: dota_prof::alloc_stats().peak_bytes as f64 / MB,
    };
    (ms, alloc)
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
        let naive = median_ns(naive_reps, || reference::matmul(&a, &b)) / 1e6;
        // Warm the pack-buffer pool so the timed reps see the steady
        // state the alloc column is meant to capture.
        a.matmul_into(&b, &mut out).expect("shape");
        let (serial, serial_alloc) = dota_parallel::with_threads(1, || {
            median_ms_alloc(opt_reps, || a.matmul_into(&b, &mut out).expect("shape"))
        });
        let pool = median_ns(opt_reps, || a.matmul_into(&b, &mut out).expect("shape")) / 1e6;
        let row = GemmRow {
            size,
            pool_threads: dota_parallel::num_threads(),
            speedup_vs_naive: naive / serial.max(1e-9),
            pool_speedup: serial / pool.max(1e-9),
            naive_ms: naive,
            optimized_serial_ms: serial,
            optimized_pool_ms: pool,
            optimized_alloc: serial_alloc,
        };
        println!(
            "{:>5}  naive {:>9.2} ms  serial {:>8.2} ms  pool {:>8.2} ms  {:>5.1}x vs naive  {:>4.2}x pool",
            row.size, row.naive_ms, row.optimized_serial_ms, row.optimized_pool_ms,
            row.speedup_vs_naive, row.pool_speedup
        );
        rows.push(row);
    }
    rows
}

/// Times each available kernel — fp32 scalar/simd and the
/// quantized int8/int4 host kernels — on one `size`² product.
fn family_rows(size: usize, reps: usize) -> Vec<FamilyRow> {
    let mut rng = SeededRng::new(9);
    let a = rng.normal_matrix(size, size, 1.0);
    let b = rng.normal_matrix(size, size, 1.0);
    let mut out = Matrix::zeros(size, size);
    let flops = 2.0 * (size as f64).powi(3);
    let gflops = |ms: f64| flops / (ms.max(1e-9) * 1e-3) / 1e9;

    let mut rows = Vec::new();
    let mut scalar_ms = f64::NAN;
    let mut push = |kernel: String, ms: f64| {
        if rows.is_empty() {
            scalar_ms = ms;
        }
        rows.push(FamilyRow {
            kernel,
            ms,
            gflops: gflops(ms),
            speedup_vs_scalar: scalar_ms / ms.max(1e-9),
        });
    };
    let host = Lanes::host();
    for lanes in std::iter::once(Lanes::Plain).chain((host != Lanes::Plain).then_some(host)) {
        a.matmul_into(&b, &mut out).expect("shape"); // warm pools
        let ns = lanes::with_lanes(lanes, || {
            median_ns(reps, || a.matmul_into(&b, &mut out).expect("shape"))
        });
        push(format!("fp32/{}", lanes.name()), ns / 1e6);
    }

    // Quantized host kernels (layout is A·Bᵀ — same flop count). The i8
    // kernel uses AVX2 `madd` lanes when present; int4 adds nibble
    // unpacking on top of the same kernel.
    let q8a = Int8Matrix::quantize(&a, Precision::Int8);
    let q8b = Int8Matrix::quantize(&b, Precision::Int8);
    let ns = median_ns(reps, || q8a.matmul_nt_dequant(&q8b).expect("shape"));
    push("int8".to_owned(), ns / 1e6);
    let q4a = Int4Packed::quantize(&a, Precision::Int4);
    let q4b = Int4Packed::quantize(&b, Precision::Int4);
    let ns = median_ns(reps, || q4a.matmul_nt_dequant(&q4b).expect("shape"));
    push("int4".to_owned(), ns / 1e6);

    for r in &rows {
        println!(
            "  {:<12} {:>8.2} ms  {:>7.2} GFLOP/s  {:>5.2}x vs fp32/scalar",
            r.kernel, r.ms, r.gflops, r.speedup_vs_scalar
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
        let kept = topk::keep_count(retention, n);
        let sel_row: Vec<u32> = (0..kept).map(|j| (j * n / kept) as u32).collect();
        let selected = vec![sel_row; n];
        let dense = median_ns(3, || {
            let scores = q.matmul_nt(&k).expect("shape").scale(scale);
            ops::softmax_rows(&scores).matmul(&v).expect("shape")
        }) / 1e6;
        let (dota, dota_alloc) =
            median_ms_alloc(3, || ops::sparse_attention(&q, &k, &v, &selected, scale));
        let row = AttnRow {
            benchmark: b.name().to_owned(),
            seq_len: n,
            retention,
            speedup: dense / dota.max(1e-9),
            dense_ms: dense,
            dota_ms: dota,
            dota_alloc,
        };
        println!(
            "{:>10}  n {:>5}  dense {:>9.2} ms  DOTA {:>8.2} ms  {:>5.1}x",
            row.benchmark, row.seq_len, row.dense_ms, row.dota_ms, row.speedup
        );
        rows.push(row);
    }
    rows
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
            let mut out = [0.0; HD];
            let ns = median_ns(1 << 14, || {
                ops::attend_row(&mut state, q.row(0), &k, &v, HD, sel, &mut out);
                std::hint::black_box(&out);
            });
            ns / sel.len() as f64
        };
        let lanes = Lanes::host();
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

/// Times seeded initialisation (see [`DrawRow`]) on the active lanes.
fn draw_row() -> DrawRow {
    println!("\nSeeded draws (lanes {})", Lanes::active().name());
    const DRAWS: usize = 1 << 18;
    let normal = || SeededRng::new(7).normal_matrix(512, DRAWS / 512, 1.0);
    let mut words = vec![0u32; 1 << 16];
    let mut keystream = || SeededRng::new(7).fill_words(Lanes::active(), &mut words);
    let config = TransformerConfig {
        d_model: 128,
        n_heads: 4,
        n_layers: 4,
        d_ff: 512,
        ..TransformerConfig::tiny_causal(1024, 256)
    };
    let init = || Model::init(config.clone(), &mut ParamSet::new(), 7);
    let row = DrawRow {
        normal_ns_per_draw: median_ns(21, normal) / DRAWS as f64,
        keystream_ns_per_word: median_ns(41, &mut keystream) / (1 << 16) as f64,
        init_mid_ms: median_ns(11, init) / 1e6,
    };
    println!(
        "  rng.normal_ns_per_draw      {:>8.2}",
        row.normal_ns_per_draw
    );
    println!(
        "  rng.keystream_ns_per_word   {:>8.2}",
        row.keystream_ns_per_word
    );
    println!("  transformer.init_mid_ms     {:>8.2}", row.init_mid_ms);
    row
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

/// The decode steps of [`DecodeRow`]: per selector, one stream of random
/// tokens from an empty cache to context 4096, each step timed alone.
fn decode_rows() -> Vec<DecodeRow> {
    const CONTEXTS: [usize; 2] = [1024, 4096];
    const BIN: usize = 64;
    const RETENTION: f64 = 0.125;
    println!("\nDecode step, mid model, one stream (µs per token, median of the {BIN} steps ending at the context)");
    let cfg = TransformerConfig {
        d_model: 128,
        n_heads: 4,
        n_layers: 4,
        d_ff: 512,
        ..TransformerConfig::tiny_causal(CONTEXTS[1], 256)
    };
    let mut params = ParamSet::new();
    let model = Model::init(cfg.clone(), &mut params, 7);
    let hook = DotaHook::init(DetectorConfig::new(RETENTION), &cfg, &mut params);
    let mut rng = SeededRng::new(7);
    let tokens: Vec<usize> = (0..CONTEXTS[1])
        .map(|_| rng.below(cfg.vocab_size))
        .collect();
    let dota = DotaDecodeSelector::new(&hook, &params, cfg.n_layers, cfg.n_heads);
    let window = WindowSelector::new(RETENTION);
    let selectors: [(&str, &dyn DecodeSelector); 3] = [
        ("dense", &DenseDecode),
        ("window", &window),
        ("dota", &dota),
    ];
    let mut scratch = DecodeScratch::default();
    let mut rows = Vec::new();
    for (name, selector) in selectors {
        let mut cache = KvCache::with_capacity(cfg.n_layers, cfg.d_model, CONTEXTS[1]);
        let step_us: Vec<f64> = tokens
            .iter()
            .map(|token| {
                let item = DecodeItem {
                    cache: &mut cache,
                    tokens: std::slice::from_ref(token),
                    selector,
                };
                time_ns(|| {
                    model
                        .decode_rows_in(&params, &mut [item], &mut scratch)
                        .logits[(0, 0)]
                }) / 1e3
            })
            .collect();
        for ctx in CONTEXTS {
            let mut bin = step_us[ctx - BIN..ctx].iter();
            let us_per_tok = median_of(BIN, || *bin.next().expect("one step per draw"));
            println!("  decode_ctx{ctx}_{name:<8} {us_per_tok:>9.1}");
            rows.push(DecodeRow {
                kernel: format!("decode_ctx{ctx}_{name}"),
                us_per_tok,
            });
        }
    }
    rows
}

fn main() {
    // Profile-only: a trace, counter or histogram session recording
    // while the kernels run would skew their timings. The allocation
    // columns need a profiling session whether or not `--profile` asked
    // for its files, so one is opened here when the binding opened none.
    let _files = dota_bench::profile_session("bench_report", dota_core::cli::Args::from_env());
    let _prof = (!dota_prof::enabled()).then(|| dota_prof::session("bench_report"));
    let _manifest = dota_bench::run_manifest("bench_report");
    println!(
        "Kernel report, exact medians (parallel feature: {}, pool threads: {}, physical cores: {}, cpu: {}, lanes: {})\n",
        cfg!(feature = "parallel"),
        dota_parallel::num_threads(),
        dota_parallel::num_physical_cores(),
        simd::cpu_features().join("+"),
        Lanes::active().name(),
    );
    println!("GEMM (square, f32): packed/blocked kernels vs naive reference");
    let gemm = gemm_rows(&[128, 256, 512, 1024, 2048]);
    const FAMILY_SIZE: usize = 512;
    println!("\nKernel families at {FAMILY_SIZE}² (fp32 scalar/simd vs quantized int8/int4)");
    let kernel_families = family_rows(FAMILY_SIZE, 5);
    println!("\nAttention (head_dim 64, retention 10%): dense vs DOTA-sparse");
    let attention = attention_rows();
    let report = Report {
        parallel_feature: cfg!(feature = "parallel"),
        pool_threads: dota_parallel::num_threads(),
        physical_cores: dota_parallel::num_physical_cores(),
        cpu_features: simd::cpu_features(),
        gemm_family: Lanes::active().name(),
        host_note: "pool_speedup is host-dependent; ~1.0 on single-core runners",
        alloc_note: "allocation columns need --features prof-alloc; zeros otherwise",
        gemm,
        kernel_family_size: FAMILY_SIZE,
        kernel_families,
        attention,
        gelu: gelu_rows(),
        attend_row: attend_row_rows(),
        exp: exp_rows(),
        scheduler: scheduler_rows(),
        selection: selection_rows(),
        draws: draw_row(),
        decode: decode_rows(),
    };
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_kernels.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, json).expect("write BENCH_kernels.json");
    println!("\n[report written to {}]", path.display());
}
