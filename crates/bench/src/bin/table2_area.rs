//! Table 2: configuration, power and area of DOTA at 22nm / 1 GHz.
//!
//! Run with: `cargo run --release -p dota-bench --bin table2_area`

use dota_accel::energy;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    module: &'static str,
    configuration: &'static str,
    power_mw: f64,
    area_mm2: f64,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("table2_area");
    println!("Table 2: DOTA configuration, power and area (22nm, 1 GHz)\n");
    println!(
        "{:<18} {:<34} {:>10} {:>10}",
        "module", "configuration", "power mW", "area mm2"
    );
    let rows: Vec<Row> = energy::table2()
        .into_iter()
        .map(|m| Row {
            module: m.name,
            configuration: m.configuration,
            power_mw: m.power_mw,
            area_mm2: m.area_mm2,
        })
        .collect();
    for r in &rows {
        println!(
            "{:<18} {:<34} {:>10.2} {:>10.3}",
            r.module, r.configuration, r.power_mw, r.area_mm2
        );
    }
    println!(
        "\ntotal accelerator: {:.2} W, {:.3} mm2",
        energy::total_power_w(),
        energy::total_area_mm2()
    );
    println!(
        "derived per-op energies: FX16 MAC {:.2} pJ, SRAM {:.1} pJ/B, DRAM {:.0} pJ/B",
        energy::MAC_FX16_PJ,
        energy::SRAM_PJ_PER_BYTE,
        energy::DRAM_PJ_PER_BYTE
    );

    dota_bench::write_json("table2_area", &rows);
}
