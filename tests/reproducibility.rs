//! Reproducibility guards: the headline numbers of the simulator-side
//! experiments are deterministic, so these tests pin them exactly. If a
//! model change moves them, EXPERIMENTS.md must be re-generated — this
//! suite is the tripwire.

use dota_accel::sched;
use dota_accel::synth::{sample_selection, SelectionProfile};
use dota_core::presets::OperatingPoint;
use dota_core::DotaSystem;
use dota_tensor::rng::SeededRng;
use dota_transformer::flops;
use dota_transformer::TransformerConfig;
use dota_workloads::Benchmark;

#[test]
fn fig3_attention_fractions_pinned() {
    let cfg = TransformerConfig::bert_large(16_384);
    let rows = flops::fig3_sweep(&cfg, &[384, 16_384]);
    assert!(
        (rows[0].attention_fraction - 0.0596).abs() < 5e-3,
        "{}",
        rows[0].attention_fraction
    );
    assert!(
        (rows[1].attention_fraction - 0.7308).abs() < 5e-3,
        "{}",
        rows[1].attention_fraction
    );
}

#[test]
fn fig12_geomeans_pinned() {
    let sys = DotaSystem::paper_default();
    let geomean = |f: &dyn Fn(Benchmark) -> f64| {
        let product: f64 = Benchmark::ALL.iter().map(|&b| f(b).ln()).sum();
        (product / Benchmark::ALL.len() as f64).exp()
    };
    let attn_c = geomean(&|b| {
        sys.speedup_row(b, OperatingPoint::Conservative)
            .attention_vs_gpu
    });
    let elsa_c = geomean(&|b| {
        sys.speedup_row(b, OperatingPoint::Conservative)
            .attention_vs_elsa
    });
    let e2e_c = geomean(&|b| {
        sys.speedup_row(b, OperatingPoint::Conservative)
            .end_to_end_vs_gpu
    });
    // EXPERIMENTS.md records 274x / 4.8x / 12.0x.
    assert!(
        (attn_c / 274.1 - 1.0).abs() < 0.02,
        "attention geomean {attn_c}"
    );
    assert!((elsa_c / 4.8 - 1.0).abs() < 0.05, "elsa geomean {elsa_c}");
    assert!((e2e_c / 12.0 - 1.0).abs() < 0.02, "e2e geomean {e2e_c}");
}

#[test]
fn fig15_optimum_pinned_at_parallelism_4() {
    let n = 2048;
    let k = 205;
    let profile = SelectionProfile::default();
    let mut rng = SeededRng::new(0xf15);
    let sel = sample_selection(n, k, &profile, &mut rng);
    let base = sched::matrix_loads(&sel, 1, true).loads;
    let mut best = (0usize, f64::INFINITY);
    for t in 1..=6 {
        let loads = sched::matrix_loads(&sel, t, true).loads;
        let mem = loads as f64 / base as f64;
        let sched_cost =
            sched::buffer_requirement(t) as f64 / sched::buffer_requirement(4) as f64 * 0.08;
        let total = mem + sched_cost;
        if total < best.1 {
            best = (t, total);
        }
    }
    assert_eq!(best.0, 4, "combined-cost optimum moved off parallelism 4");
}

#[test]
fn paper_worked_examples_pinned() {
    let fig8 = vec![vec![1u32, 2], vec![0, 1, 4], vec![1, 2], vec![0, 2, 4]];
    assert_eq!(sched::row_by_row_loads(&fig8), 10);
    assert_eq!(sched::in_order_schedule(&fig8).total_loads(), 5);
    let fig9 = vec![
        vec![0u32, 1, 2],
        vec![1, 2, 3],
        vec![1, 4, 5],
        vec![2, 3, 4],
    ];
    assert_eq!(sched::in_order_schedule(&fig9).total_loads(), 11);
    assert_eq!(sched::locality_aware_schedule(&fig9).total_loads(), 7);
}

#[test]
fn energy_rows_pinned() {
    let sys = DotaSystem::paper_default();
    let qa = sys.energy_row(Benchmark::Qa, OperatingPoint::Conservative);
    let ret = sys.energy_row(Benchmark::Retrieval, OperatingPoint::Conservative);
    // EXPERIMENTS.md records 103x (QA) and 616x (Retrieval).
    assert!(
        (qa.vs_gpu / 103.0 - 1.0).abs() < 0.03,
        "QA vs GPU {}",
        qa.vs_gpu
    );
    assert!(
        (ret.vs_gpu / 616.0 - 1.0).abs() < 0.03,
        "Retrieval vs GPU {}",
        ret.vs_gpu
    );
}
