//! Figure 14: design-space exploration on the Text benchmark —
//! (a) dimension-reduction factor σ and (b) detection quantization
//! precision vs model accuracy, at fixed retention.
//!
//! Run with: `cargo run --release -p dota-bench --bin fig14_dse`

use dota_core::experiments::{self, TrainOptions};
use dota_detector::{DetectorConfig, DotaHook};
use dota_quant::Precision;
use dota_transformer::NoHook;
use dota_workloads::{Benchmark, TaskSpec};
use serde::Serialize;

#[derive(Serialize)]
struct SigmaPoint {
    sigma: f64,
    accuracy: f64,
}

#[derive(Serialize)]
struct PrecisionPoint {
    precision: String,
    accuracy: f64,
}

#[derive(Serialize)]
struct Results {
    retention: f64,
    dense_accuracy: f64,
    sigma_sweep: Vec<SigmaPoint>,
    precision_sweep: Vec<PrecisionPoint>,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("fig14_dse");
    let retention = 0.25; // fixed, like the paper's 10% at full scale
    let spec = TaskSpec::tiny(Benchmark::Text, 32, 99);
    let (train, test) = spec.generate_split(150, 100);
    let (model, mut dense_params) = experiments::build_model(&spec, 99);
    println!("Training dense Text model...");
    experiments::train_dense(
        &model,
        &mut dense_params,
        &train,
        &TrainOptions {
            epochs: 12,
            ..Default::default()
        },
    );
    let dense_accuracy = experiments::eval_accuracy(&model, &dense_params, &test, &NoHook);
    println!("dense accuracy: {dense_accuracy:.3}\n");

    // (a) sigma sweep at the default precision (INT4).
    // head_dim is 16 here, so sigma maps to ranks 2..16.
    let sigmas = [0.125, 0.25, 0.375, 0.5, 0.75, 1.0];
    let mut sigma_sweep = Vec::new();
    println!(
        "Figure 14a: accuracy vs dimension-reduction factor sigma (retention {:.0}%)",
        retention * 100.0
    );
    println!("{:>8} {:>6} {:>10}", "sigma", "rank", "accuracy");
    for &sigma in &sigmas {
        let cfg = DetectorConfig::new(retention).with_sigma(sigma);
        let rank = cfg.rank_for_head_dim(model.config().head_dim());
        let mut params = dense_params.clone();
        let mut hook = DotaHook::init(cfg, model.config(), &mut params);
        experiments::train_joint(
            &model,
            &mut params,
            &mut hook,
            &train,
            &TrainOptions {
                epochs: 8,
                warmup_epochs: 2,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        });
        let acc = experiments::eval_accuracy(&model, &params, &test, &hook.inference(&params));
        println!("{sigma:>8.3} {rank:>6} {acc:>10.3}");
        sigma_sweep.push(SigmaPoint {
            sigma,
            accuracy: acc,
        });
    }

    // (b) precision sweep at a fixed sigma.
    let mut precision_sweep = Vec::new();
    println!("\nFigure 14b: accuracy vs detection precision (sigma 0.5)");
    println!("{:>8} {:>10}", "prec", "accuracy");
    let mut params = dense_params.clone();
    let mut hook = DotaHook::init(
        DetectorConfig::new(retention).with_sigma(0.5),
        model.config(),
        &mut params,
    );
    experiments::train_joint(
        &model,
        &mut params,
        &mut hook,
        &train,
        &TrainOptions {
            epochs: 8,
            warmup_epochs: 2,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    // FP32 reference first, then the integer precisions: only the
    // *inference-time* quantization changes, as in the paper.
    let f32_acc = experiments::eval_accuracy(&model, &params, &test, &hook.inference_f32(&params));
    println!("{:>8} {f32_acc:>10.3}", "FP32");
    precision_sweep.push(PrecisionPoint {
        precision: "FP32".to_owned(),
        accuracy: f32_acc,
    });
    for precision in [Precision::Int8, Precision::Int4, Precision::Int2] {
        let mut cfg_hook = hook.clone();
        // Rebind the inference precision.
        let cfg = DetectorConfig::new(retention)
            .with_sigma(0.5)
            .with_precision(precision);
        cfg_hook = reconfigure(cfg_hook, cfg);
        let acc = experiments::eval_accuracy(&model, &params, &test, &cfg_hook.inference(&params));
        println!("{:>8} {acc:>10.3}", precision.to_string());
        precision_sweep.push(PrecisionPoint {
            precision: precision.to_string(),
            accuracy: acc,
        });
    }
    println!("\nPaper shape: sigma can shrink to ~0.2 and precision to INT4 (often");
    println!("INT2) with negligible accuracy impact.");

    dota_bench::write_json(
        "fig14_dse",
        &Results {
            retention,
            dense_accuracy,
            sigma_sweep,
            precision_sweep,
        },
    );
}

/// Rebuilds a hook with a different inference configuration but the same
/// trained detectors.
fn reconfigure(hook: DotaHook, cfg: DetectorConfig) -> DotaHook {
    hook.with_config(cfg)
}
