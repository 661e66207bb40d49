//! Figure 13: energy-efficiency of DOTA-C/A relative to the GPU and ELSA.
//!
//! Run with: `cargo run --release -p dota-bench --bin fig13_energy`

use dota_core::presets::OperatingPoint;
use dota_core::{DotaSystem, EnergyRow};
use dota_workloads::Benchmark;

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("fig13_energy");
    let system = DotaSystem::paper_default();

    let grid: Vec<(Benchmark, OperatingPoint)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| {
            [OperatingPoint::Conservative, OperatingPoint::Aggressive]
                .into_iter()
                .map(move |p| (b, p))
        })
        .collect();
    let rows: Vec<EnergyRow> = dota_bench::run_sweep(&grid, |&(b, p)| system.energy_row(b, p));

    println!("Figure 13: energy-efficiency improvements\n");
    println!(
        "{:>10} {:>8} {:>12} {:>14} {:>12}",
        "benchmark", "variant", "vs GPU", "vs ELSA(attn)", "DOTA mJ/inf"
    );
    for row in &rows {
        println!(
            "{:>10} {:>8} {:>11.0}x {:>13.2}x {:>12.3}",
            row.benchmark, row.variant, row.vs_gpu, row.vs_elsa_attention, row.dota_mj
        );
    }
    println!("\nPaper shape: DOTA-C 618-5185x and DOTA-A 1236-8642x over GPU;");
    println!("1.97-5.14x (C) and 3.29-12.2x (A) over ELSA on the attention block.");

    dota_bench::write_json("fig13_energy", &rows);
}
