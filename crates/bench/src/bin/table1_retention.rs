//! Table 1: model quality when omitting attention connections with
//! post-hoc row-wise top-k (the oracle experiment that motivates DOTA).
//!
//! The paper runs BERT-large on SQuAD and reports F1 at retentions
//! {full, 20%, 15%, 10%, 5%}. Here the substitution is the synthetic QA
//! task (see DESIGN.md): a model is trained densely, then evaluated with
//! oracle top-k masks at each retention with no re-training — exactly the
//! paper's protocol.
//!
//! Run with: `cargo run --release -p dota-bench --bin table1_retention`

use dota_core::experiments::{self, TrainOptions};
use dota_detector::oracle::OracleHook;
use dota_transformer::NoHook;
use dota_workloads::{Benchmark, TaskSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    retention: f64,
    accuracy: f64,
    f1: f64,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("table1_retention");
    let spec = TaskSpec::tiny(Benchmark::Qa, 24, 1234);
    let (train, test) = spec.generate_split(600, 200);
    let (model, mut params) = experiments::build_model(&spec, 1234);
    println!("Training QA model densely (seq 24, 600 samples)...");
    experiments::train_dense(
        &model,
        &mut params,
        &train,
        &TrainOptions {
            epochs: 30,
            lr_warmup_steps: 600,
            // The lookup task generalizes after the loss floor is reached;
            // early stopping would freeze it at the memorization point.
            early_stop_loss: 0.0,
            ..Default::default()
        },
    );

    let mut rows = Vec::new();
    let dense_acc = experiments::eval_accuracy(&model, &params, &test, &NoHook);
    let dense_f1 = experiments::eval_f1(&model, &params, &test, &NoHook);
    rows.push(Row {
        retention: 1.0,
        accuracy: dense_acc,
        f1: dense_f1,
    });
    let retentions = [0.20, 0.15, 0.10, 0.05];
    rows.extend(dota_bench::run_sweep(&retentions, |&retention| {
        let hook = OracleHook::from_model(&model, &params, retention);
        Row {
            retention,
            accuracy: experiments::eval_accuracy(&model, &params, &test, &hook),
            f1: experiments::eval_f1(&model, &params, &test, &hook),
        }
    }));

    println!("\nTable 1: QA quality vs oracle top-k retention\n");
    println!("{:>10} {:>10} {:>10}", "retention", "accuracy", "macro-F1");
    for r in &rows {
        let label = if r.retention == 1.0 {
            "full".to_owned()
        } else {
            format!("{:.0}%", r.retention * 100.0)
        };
        println!("{label:>10} {:>10.3} {:>10.3}", r.accuracy, r.f1);
    }
    println!("\nPaper shape: quality flat from full down to ~10%, dropping at 5%.");

    dota_bench::write_json("table1_retention", &rows);
}
