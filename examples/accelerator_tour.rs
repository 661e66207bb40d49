//! A tour of the simulated DOTA hardware (paper §4, Table 2).
//!
//! Prints the Table 2 module inventory, replays the paper's two scheduler
//! worked examples (Figures 8–10), demonstrates RMMU precision
//! reconfiguration, and closes with the paper-scale speedup/energy
//! comparison rows.
//!
//! Run with: `cargo run --release --example accelerator_tour`

use dota_accel::{energy, render, sched};
use dota_core::presets::OperatingPoint;
use dota_core::DotaSystem;
use dota_quant::rmmu::RmmuConfig;
use dota_quant::Precision;
use dota_workloads::Benchmark;

fn main() {
    println!("=== Table 2: module inventory (22nm, 1 GHz) ===");
    println!(
        "{:<18} {:<32} {:>10} {:>10}",
        "module", "configuration", "power mW", "area mm2"
    );
    for m in energy::table2() {
        println!(
            "{:<18} {:<32} {:>10.2} {:>10.3}",
            m.name, m.configuration, m.power_mw, m.area_mm2
        );
    }
    println!(
        "total: {:.2} W, {:.3} mm2\n",
        energy::total_power_w(),
        energy::total_area_mm2()
    );

    println!("=== Scheduler worked examples (Figures 8-10) ===");
    // Fig. 8: unbalanced 4x5 mask.
    let fig8 = vec![vec![1u32, 2], vec![0, 1, 4], vec![1, 2], vec![0, 2, 4]];
    println!(
        "Fig. 8 mask: row-by-row {} loads, token-parallel {} loads",
        sched::row_by_row_loads(&fig8),
        sched::in_order_schedule(&fig8).total_loads()
    );
    // Fig. 9: balanced 4x6 mask.
    let fig9 = vec![
        vec![0u32, 1, 2],
        vec![1, 2, 3],
        vec![1, 4, 5],
        vec![2, 3, 4],
    ];
    println!(
        "Fig. 9 mask: in-order {} loads, out-of-order (Algorithm 1) {} loads",
        sched::in_order_schedule(&fig9).total_loads(),
        sched::locality_aware_schedule(&fig9).total_loads()
    );
    let schedule = sched::locality_aware_schedule(&fig9);
    print!("{}", render::render_schedule(&schedule));

    println!("\n=== RMMU precision reconfiguration (Fig. 7) ===");
    for p in Precision::ALL {
        let cfg = RmmuConfig::uniform(p);
        println!(
            "  {:>4}: {:>6} MACs/cycle per lane ({}x FX16 throughput, {} INT2 blocks per multiply)",
            p.to_string(),
            cfg.macs_per_cycle(p),
            p.throughput_multiplier(),
            p.int2_blocks()
        );
    }

    println!("\n=== Paper-scale comparison (Figures 12-13) ===");
    let system = DotaSystem::paper_default();
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>10} {:>12}",
        "benchmark", "variant", "attn vs GPU", "attn vs ELSA", "e2e GPU", "energy GPU"
    );
    for b in Benchmark::ALL {
        for point in [OperatingPoint::Conservative, OperatingPoint::Aggressive] {
            let s = system.speedup_row(b, point);
            let e = system.energy_row(b, point);
            println!(
                "{:>10} {:>8} {:>11.1}x {:>11.1}x {:>9.1}x {:>11.0}x",
                s.benchmark,
                s.variant,
                s.attention_vs_gpu,
                s.attention_vs_elsa,
                s.end_to_end_vs_gpu,
                e.vs_gpu
            );
        }
    }
}
