//! Motivation analysis (paper §2.2, Fig. 1): trained attention rows are
//! concentrated — a handful of connections carry nearly all probability
//! mass — which is what makes detect-and-omit possible at all.
//!
//! Trains a model on the QA lookup benchmark (whose solution demands a
//! precise attention edge), then measures entropy, top-k mass capture and
//! effective connection counts of its real attention matrices, compared
//! against an untrained model of the same shape.
//!
//! Run with: `cargo run --release -p dota-bench --bin motivation_analysis`

use dota_core::experiments::{self, TrainOptions};
use dota_tensor::{ops, Matrix};
use dota_transformer::NoHook;
use dota_workloads::analysis::{attention_stats, mass_at_retention};
use dota_workloads::{Benchmark, TaskSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    model: String,
    layer: usize,
    head: usize,
    entropy: f64,
    effective_connections: f64,
    top10pct_mass: f64,
    mass_at_10pct: f64,
    mass_at_25pct: f64,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("motivation_analysis");
    let spec = TaskSpec::tiny(Benchmark::Qa, 24, 2024);
    let (train, test) = spec.generate_split(500, 20);
    let (model, mut params) = experiments::build_model(&spec, 2024);
    let (untrained_model, untrained_params) = experiments::build_model(&spec, 2024);
    println!("Training QA model (seq 24)...");
    experiments::train_dense(
        &model,
        &mut params,
        &train,
        &TrainOptions {
            epochs: 25,
            lr_warmup_steps: 600,
            ..Default::default()
        },
    );

    let mut rows = Vec::new();
    println!(
        "\n{:<10} {:>5} {:>5} {:>9} {:>10} {:>10} {:>10}",
        "model", "layer", "head", "entropy", "eff conns", "mass@10%", "mass@25%"
    );
    for (name, m, p) in [
        ("untrained", &untrained_model, &untrained_params),
        ("trained", &model, &params),
    ] {
        for sample in test.iter().take(5) {
            let trace = m.infer(p, &sample.ids, &NoHook);
            let hd = m.config().head_dim();
            let scale = 1.0 / (hd as f32).sqrt();
            for (l, layer) in trace.layers.iter().enumerate() {
                for (h, head) in layer.heads.iter().enumerate() {
                    let attn: Matrix =
                        ops::softmax_rows(&head.q.matmul_nt(&head.k).expect("shape").scale(scale));
                    let s = attention_stats(&attn);
                    rows.push(Row {
                        model: name.to_owned(),
                        layer: l,
                        head: h,
                        entropy: s.mean_entropy,
                        effective_connections: s.effective_connections,
                        top10pct_mass: s.top10pct_mass,
                        mass_at_10pct: mass_at_retention(&attn, 0.10),
                        mass_at_25pct: mass_at_retention(&attn, 0.25),
                    });
                }
            }
        }
    }
    // Aggregate per model.
    for name in ["untrained", "trained"] {
        let subset: Vec<&Row> = rows.iter().filter(|r| r.model == name).collect();
        let mean = |f: &dyn Fn(&Row) -> f64| {
            subset.iter().map(|r| f(r)).sum::<f64>() / subset.len() as f64
        };
        println!(
            "{:<10} {:>5} {:>5} {:>9.3} {:>10.2} {:>10.3} {:>10.3}",
            name,
            "-",
            "-",
            mean(&|r| r.entropy),
            mean(&|r| r.effective_connections),
            mean(&|r| r.mass_at_10pct),
            mean(&|r| r.mass_at_25pct),
        );
    }
    println!("\nPaper shape: training concentrates attention — entropy and effective");
    println!("connection counts drop, and the strongest 10-25% of edges capture most");
    println!("of the mass, so the rest can be detected and omitted.");

    dota_bench::write_json("motivation_analysis", &rows);
}
