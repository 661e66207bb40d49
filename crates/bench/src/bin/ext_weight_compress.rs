//! Extension experiment (paper §5.3): once detection removes the attention
//! cost, the linear stages dominate — and "classic NN optimization
//! techniques can be fluently transplanted on DOTA" because the RMMU
//! already supports multi-precision GEMM.
//!
//! Two parts:
//! 1. accuracy of post-training weight quantization and magnitude pruning
//!    on a trained QA model (the transplant is accuracy-neutral at INT8
//!    and moderate sparsity; INT2 shows the cliff);
//! 2. simulated end-to-end latency with the linear stages reconfigured to
//!    INT8 on the RMMU, stacked on top of DOTA-C attention detection.
//!
//! Run with: `cargo run --release -p dota-bench --bin ext_weight_compress`

use dota_accel::synth::SelectionProfile;
use dota_accel::{AccelConfig, Accelerator};
use dota_core::compress::{fake_quantize_weights, prune_weights};
use dota_core::experiments::{self, TrainOptions};
use dota_core::presets;
use dota_quant::Precision;
use dota_transformer::NoHook;
use dota_workloads::{Benchmark, TaskSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Results {
    baseline_accuracy: f64,
    quantized_accuracy: Vec<(String, f64)>,
    pruned_accuracy: Vec<(f64, f64)>,
    e2e_speedup_int8_linear: f64,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("ext_weight_compress");
    // --- Part 1: accuracy of the transplants. ---
    // QA's lookup structure is sensitive enough to expose the accuracy
    // cliff of over-aggressive compression (Text saturates at 100%).
    let spec = TaskSpec::tiny(Benchmark::Qa, 24, 1234);
    let (train, test) = spec.generate_split(600, 200);
    let (model, mut params) = experiments::build_model(&spec, 1234);
    println!("Training QA model (seq 24)...");
    experiments::train_dense(
        &model,
        &mut params,
        &train,
        &TrainOptions {
            epochs: 30,
            lr_warmup_steps: 600,
            early_stop_loss: 0.0,
            ..Default::default()
        },
    );
    let baseline = experiments::eval_accuracy(&model, &params, &test, &NoHook);
    println!("\nbaseline accuracy: {baseline:.3}\n");

    let mut results = Results {
        baseline_accuracy: baseline,
        quantized_accuracy: Vec::new(),
        pruned_accuracy: Vec::new(),
        e2e_speedup_int8_linear: 0.0,
    };

    println!("weight quantization (post-training):");
    for p in [Precision::Int8, Precision::Int4, Precision::Int2] {
        let mut q = params.clone();
        fake_quantize_weights(&model, &mut q, p);
        let acc = experiments::eval_accuracy(&model, &q, &test, &NoHook);
        println!("  {p}: accuracy {acc:.3}");
        results.quantized_accuracy.push((p.to_string(), acc));
    }

    println!("\nmagnitude pruning (global threshold):");
    for sparsity in [0.3, 0.5, 0.7] {
        let mut q = params.clone();
        let frac = prune_weights(&model, &mut q, sparsity);
        let acc = experiments::eval_accuracy(&model, &q, &test, &NoHook);
        println!("  {:.0}% zeroed: accuracy {acc:.3}", frac * 100.0);
        results.pruned_accuracy.push((frac, acc));
    }

    // --- Part 2: simulated latency with INT8 linear stages. ---
    let model_cfg = presets::paper_model(Benchmark::Text);
    let n = Benchmark::Text.paper_seq_len();
    let retention = presets::retention(Benchmark::Text, presets::OperatingPoint::Conservative);
    let prof = SelectionProfile::default();
    let fx = Accelerator::new(AccelConfig::gpu_comparable());
    let int8 = Accelerator::new(AccelConfig {
        linear_precision: Precision::Int8,
        ..AccelConfig::gpu_comparable()
    });
    let rep_fx = fx.simulate_shape(&model_cfg, n, retention, presets::SIGMA, &prof);
    let rep_int8 = int8.simulate_shape(&model_cfg, n, retention, presets::SIGMA, &prof);
    let speedup = rep_fx.cycles.total() as f64 / rep_int8.cycles.total() as f64;
    results.e2e_speedup_int8_linear = speedup;
    println!(
        "\nsimulated Text-2K end-to-end (DOTA-C detection already on):\n  \
         FX16 linear: {} cycles; INT8 linear: {} cycles -> {speedup:.2}x",
        rep_fx.cycles.total(),
        rep_int8.cycles.total()
    );
    println!("\nShape: INT8 weights are accuracy-neutral and, with attention already");
    println!("omitted, reconfiguring the RMMU's linear stages to INT8 attacks the");
    println!("new bottleneck the paper identifies in §5.3.");

    dota_bench::write_json("ext_weight_compress", &results);
}
