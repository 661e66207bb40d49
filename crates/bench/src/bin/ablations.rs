//! Ablations of DOTA's design choices (DESIGN.md's ablation index):
//!
//! 1. equal-k workload balancing vs a global threshold (accuracy and PE
//!    utilization);
//! 2. out-of-order scheduling on vs off (K/V memory access);
//! 3. detection precision (attention-block latency and energy).
//!
//! Run with: `cargo run --release -p dota-bench --bin ablations`

use dota_accel::synth::SelectionProfile;
use dota_accel::{sched, AccelConfig, Accelerator};
use dota_core::experiments::{self, TrainOptions};
use dota_detector::{DetectorConfig, DotaHook, SelectionStrategy};
use dota_quant::Precision;
use dota_tensor::rng::SeededRng;
use dota_transformer::TransformerConfig;
use dota_workloads::{Benchmark, TaskSpec};
use serde::Serialize;

#[derive(Serialize, Default)]
struct Results {
    balance_accuracy_balanced: f64,
    balance_accuracy_global: f64,
    balance_utilization_balanced: f64,
    balance_utilization_global: f64,
    ooo_loads_on: u64,
    ooo_loads_off: u64,
    precision_latency: Vec<(String, u64)>,
    precision_energy_pj: Vec<(String, f64)>,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("ablations");
    let mut results = Results::default();

    // --- 1. Workload balance constraint (§4.3, "proved in 5.2"). ---
    println!("== Ablation 1: equal-k balance constraint ==");
    let spec = TaskSpec::tiny(Benchmark::Text, 32, 5);
    let (train, test) = spec.generate_split(300, 100);
    let (model, mut dense_params) = experiments::build_model(&spec, 5);
    experiments::train_dense(
        &model,
        &mut dense_params,
        &train,
        &TrainOptions {
            epochs: 15,
            early_stop_loss: 0.0,
            ..Default::default()
        },
    );
    for strategy in [
        SelectionStrategy::BalancedTopK,
        SelectionStrategy::GlobalThreshold,
    ] {
        let cfg = DetectorConfig::new(0.25)
            .with_sigma(0.5)
            .with_strategy(strategy);
        let mut params = dense_params.clone();
        let mut hook = DotaHook::init(cfg, model.config(), &mut params);
        experiments::train_joint(
            &model,
            &mut params,
            &mut hook,
            &train,
            &TrainOptions {
                epochs: 10,
                warmup_epochs: 3,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        });
        let acc = experiments::eval_accuracy(&model, &params, &test, &hook.inference(&params));
        // Utilization: with T=4 token-parallel groups, a round is fully
        // utilized when all 4 queries have work. Measure on one test
        // sample's detected masks.
        let ids = &test.samples()[0].ids;
        let trace = model.infer(&params, ids, &hook.inference(&params));
        let mut busy = 0u64;
        let mut slots = 0u64;
        for layer in &trace.layers {
            for head in &layer.heads {
                let sel = head.selected.as_ref().expect("sparse");
                let s = sched::schedule_matrix(sel, 4, true);
                for round in &s.rounds {
                    busy += round.assignments.len() as u64;
                    slots += 4;
                }
            }
        }
        let util = busy as f64 / slots.max(1) as f64;
        println!("  {strategy:?}: accuracy {acc:.3}, PE utilization {util:.3}");
        match strategy {
            SelectionStrategy::BalancedTopK => {
                results.balance_accuracy_balanced = acc;
                results.balance_utilization_balanced = util;
            }
            SelectionStrategy::GlobalThreshold => {
                results.balance_accuracy_global = acc;
                results.balance_utilization_global = util;
            }
        }
    }
    println!("  (paper: the constraint costs negligible accuracy and keeps rows in sync)\n");

    // --- 2. Out-of-order scheduling. ---
    println!("== Ablation 2: out-of-order scheduling ==");
    let n = 2048;
    let k = 205;
    let mut rng = SeededRng::new(2);
    let sel = dota_accel::synth::sample_selection(n, k, &SelectionProfile::default(), &mut rng);
    let on = sched::matrix_loads(&sel, 4, true).loads;
    let off = sched::matrix_loads(&sel, 4, false).loads;
    println!(
        "  K/V loads with OoO: {on}; without: {off}; reduction {:.2}x",
        off as f64 / on as f64
    );
    println!("  row-by-row baseline: {}\n", sched::row_by_row_loads(&sel));
    results.ooo_loads_on = on;
    results.ooo_loads_off = off;

    // --- 3. Detection precision. ---
    println!("== Ablation 3: detection precision (Text 2K, retention 10%) ==");
    let model_cfg = TransformerConfig::lra(2048, 2);
    for precision in [Precision::Int8, Precision::Int4, Precision::Int2] {
        let cfg = AccelConfig {
            detect_precision: precision,
            ..Default::default()
        };
        let rep = Accelerator::new(cfg).simulate_shape(
            &model_cfg,
            2048,
            0.1,
            0.2,
            &SelectionProfile::default(),
        );
        println!(
            "  {precision}: detection {} cycles, total energy {:.2} uJ",
            rep.cycles.detection,
            rep.energy.total_pj() / 1e6
        );
        results
            .precision_latency
            .push((precision.to_string(), rep.cycles.detection));
        results
            .precision_energy_pj
            .push((precision.to_string(), rep.energy.total_pj()));
    }
    println!("  (narrower detection precision shrinks the estimate's latency share)");

    dota_bench::write_json("ablations", &results);
}
