//! Extension experiment: per-layer retention schedules.
//!
//! §5.5 shows each benchmark tolerates its own σ; the same freedom exists
//! per *layer* — early layers often build local structure (cheap to prune)
//! while late layers route the long-range signal (or vice versa). This
//! study compares, at equal *average* retention, a uniform schedule against
//! front-loaded (generous early) and back-loaded (generous late) schedules
//! on the QA lookup task.
//!
//! Run with: `cargo run --release -p dota-bench --bin ext_layer_retention`

use dota_core::experiments::{BenchmarkRun, Method, TrainOptions};
use dota_detector::DetectorConfig;
use dota_workloads::Benchmark;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    schedule: String,
    layer_retentions: Vec<f64>,
    accuracy: f64,
    achieved_retention: f64,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("ext_layer_retention");
    let mean_retention = 0.25;
    let schedules: Vec<(&str, Vec<f64>)> = vec![
        ("uniform", vec![0.25, 0.25]),
        ("front-loaded", vec![0.40, 0.10]),
        ("back-loaded", vec![0.10, 0.40]),
    ];
    println!(
        "Per-layer retention schedules on QA (seq 24), mean retention {:.0}%\n",
        mean_retention * 100.0
    );
    println!(
        "{:<14} {:>16} {:>10} {:>10}",
        "schedule", "per-layer", "accuracy", "achieved"
    );

    let opts = TrainOptions {
        epochs: 20,
        warmup_epochs: 4,
        lr_warmup_steps: 600,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for (name, layers) in schedules {
        let cfg = DetectorConfig::new(mean_retention)
            .with_sigma(0.5)
            .with_layer_retentions(layers.clone());
        let run =
            BenchmarkRun::train(Benchmark::Qa, 24, 400, 100, cfg, &opts, 5).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1)
            });
        let point = run.evaluate(Method::Dota, mean_retention, 1);
        // Measure the achieved overall retention from a real trace.
        let sample = &run.test.samples()[0];
        let trace = run.model.infer(
            &run.dota_params,
            &sample.ids,
            &run.hook.inference(&run.dota_params),
        );
        let per: Vec<String> = layers
            .iter()
            .map(|r| format!("{:.0}%", r * 100.0))
            .collect();
        println!(
            "{name:<14} {:>16} {:>10.3} {:>9.1}%",
            per.join("/"),
            point.accuracy,
            trace.retention() * 100.0
        );
        rows.push(Row {
            schedule: name.to_owned(),
            layer_retentions: layers,
            accuracy: point.accuracy,
            achieved_retention: trace.retention(),
        });
    }
    println!("\nAt equal average retention, where the budget goes matters: the QA");
    println!("lookup edge lives in a specific layer, so starving that layer hurts");
    println!("while starving the other is nearly free.");

    dota_bench::write_json("ext_layer_retention", &rows);
}
