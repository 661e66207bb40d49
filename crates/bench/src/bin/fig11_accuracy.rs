//! Figure 11: model quality of DOTA vs the dense baseline and ELSA across
//! retention ratios, on all five benchmarks.
//!
//! For each benchmark a model is trained densely on the synthetic task,
//! then jointly fine-tuned with the DOTA detector at each retention
//! (model adaptation, §3.2). ELSA evaluates training-free on the dense
//! model at the same retention, reproducing the comparison's structure.
//! The LM benchmark reports perplexity (lower is better) plus copy-recall
//! accuracy; the others report accuracy.
//!
//! Run with: `cargo run --release -p dota-bench --bin fig11_accuracy`

use dota_core::experiments::{BenchmarkRun, Method, TrainOptions};
use dota_detector::DetectorConfig;
use dota_workloads::Benchmark;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    benchmark: String,
    retention: f64,
    method: String,
    accuracy: f64,
    perplexity: Option<f64>,
}

fn options_for(benchmark: Benchmark) -> (usize, TrainOptions) {
    match benchmark {
        // Streaming regime (see tests/end_to_end.rs).
        Benchmark::Lm => (
            400,
            TrainOptions {
                epochs: 8,
                warmup_epochs: 2,
                ..Default::default()
            },
        ),
        // Cross-document lookup converges more slowly.
        Benchmark::Retrieval => (
            500,
            TrainOptions {
                epochs: 30,
                warmup_epochs: 4,
                lr_warmup_steps: 600,
                early_stop_loss: 0.0,
                ..Default::default()
            },
        ),
        _ => (
            400,
            TrainOptions {
                epochs: 20,
                warmup_epochs: 4,
                lr_warmup_steps: 600,
                ..Default::default()
            },
        ),
    }
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("fig11_accuracy");
    // The tiny models use head_dim 16; sigma 0.5 keeps the detector rank
    // proportionate (rank 8) as in the paper's sigma sweep.
    let retentions = [0.50, 0.25, 0.125];
    let seq_len = 24;
    let mut points = Vec::new();

    for benchmark in Benchmark::ALL {
        let (samples, opts) = options_for(benchmark);
        println!("== {} (seq {seq_len}) ==", benchmark.name());
        println!(
            "{:>10} {:>8} {:>8} {:>8} {:>8}",
            "retention", "dense", "DOTA", "ELSA", "random"
        );
        // Each retention trains and evaluates its own model — fully
        // independent, so the sweep fans them out across the pool.
        let per_retention = dota_bench::run_sweep(&retentions, |&r| {
            let run = BenchmarkRun::train(
                benchmark,
                seq_len,
                samples,
                100,
                DetectorConfig::new(r).with_sigma(0.5),
                &opts,
                5,
            )
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1)
            });
            let dense = run.evaluate(Method::Dense, 1.0, 1);
            let dota = run.evaluate(Method::Dota, r, 1);
            let elsa = run.evaluate(Method::Elsa, r, 1);
            let random = run.evaluate(Method::Random, r, 1);
            (r, dense, dota, elsa, random)
        });
        for (r, dense, dota, elsa, random) in &per_retention {
            println!(
                "{:>9.1}% {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                r * 100.0,
                dense.accuracy,
                dota.accuracy,
                elsa.accuracy,
                random.accuracy
            );
            for (name, p) in [
                ("dense", dense),
                ("dota", dota),
                ("elsa", elsa),
                ("random", random),
            ] {
                points.push(Point {
                    benchmark: benchmark.name().to_owned(),
                    retention: p.retention,
                    method: name.to_owned(),
                    accuracy: p.accuracy,
                    perplexity: p.perplexity,
                });
            }
        }
        println!();
    }

    println!("Paper shape: DOTA tracks the dense baseline down to small retentions");
    println!("while training-free selection (ELSA) degrades, and random collapses.");
    dota_bench::write_json("fig11_accuracy", &points);
}
