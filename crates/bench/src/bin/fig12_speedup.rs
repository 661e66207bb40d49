//! Figure 12: (a) attention-block speedup over GPU and ELSA, (b) end-to-end
//! speedup over GPU with the Amdahl upper bound, and (c) the normalized
//! latency breakdown of DOTA-F/C/A.
//!
//! Run with: `cargo run --release -p dota-bench --bin fig12_speedup`

use dota_core::presets::OperatingPoint;
use dota_core::{DotaSystem, SpeedupRow};
use dota_workloads::Benchmark;

fn geomean(xs: &[f64]) -> f64 {
    f64::exp(xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len().max(1) as f64)
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("fig12_speedup");
    let system = DotaSystem::paper_default();

    // One sweep over the full benchmark x operating-point grid; the 12a/12b
    // table reads the Conservative/Aggressive rows, 12c reads all three
    // variants. Points are independent, so `run_sweep` fans them out.
    let grid: Vec<(Benchmark, OperatingPoint)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| OperatingPoint::ALL.iter().map(move |&p| (b, p)))
        .collect();
    let all_rows = dota_bench::run_sweep(&grid, |&(b, p)| system.speedup_row(b, p));

    let rows: Vec<SpeedupRow> = grid
        .iter()
        .zip(&all_rows)
        .filter(|((_, p), _)| {
            matches!(p, OperatingPoint::Conservative | OperatingPoint::Aggressive)
        })
        .map(|(_, row)| row.clone())
        .collect();

    println!("Figure 12a/12b: speedups at paper scale (12 TOPS build vs V100, ELSA)\n");
    println!(
        "{:>10} {:>8} {:>9} {:>12} {:>13} {:>9} {:>11}",
        "benchmark",
        "variant",
        "retention",
        "attn vs GPU",
        "attn vs ELSA",
        "e2e GPU",
        "upper bound"
    );
    for row in &rows {
        println!(
            "{:>10} {:>8} {:>8.1}% {:>11.1}x {:>12.1}x {:>8.1}x {:>10.1}x",
            row.benchmark,
            row.variant,
            row.retention * 100.0,
            row.attention_vs_gpu,
            row.attention_vs_elsa,
            row.end_to_end_vs_gpu,
            row.upper_bound_vs_gpu
        );
    }

    let c_rows: Vec<&SpeedupRow> = rows.iter().filter(|r| r.variant == "DOTA-C").collect();
    let a_rows: Vec<&SpeedupRow> = rows.iter().filter(|r| r.variant == "DOTA-A").collect();
    println!("\naverages (geomean):");
    println!(
        "  DOTA-C: attention {:.1}x vs GPU, {:.1}x vs ELSA; end-to-end {:.1}x vs GPU",
        geomean(
            &c_rows
                .iter()
                .map(|r| r.attention_vs_gpu)
                .collect::<Vec<_>>()
        ),
        geomean(
            &c_rows
                .iter()
                .map(|r| r.attention_vs_elsa)
                .collect::<Vec<_>>()
        ),
        geomean(
            &c_rows
                .iter()
                .map(|r| r.end_to_end_vs_gpu)
                .collect::<Vec<_>>()
        ),
    );
    println!(
        "  DOTA-A: attention {:.1}x vs GPU, {:.1}x vs ELSA; end-to-end {:.1}x vs GPU",
        geomean(
            &a_rows
                .iter()
                .map(|r| r.attention_vs_gpu)
                .collect::<Vec<_>>()
        ),
        geomean(
            &a_rows
                .iter()
                .map(|r| r.attention_vs_elsa)
                .collect::<Vec<_>>()
        ),
        geomean(
            &a_rows
                .iter()
                .map(|r| r.end_to_end_vs_gpu)
                .collect::<Vec<_>>()
        ),
    );
    println!("  (paper: DOTA-C 152.6x attention / 9.2x end-to-end vs GPU; 4.5x vs ELSA)");

    println!("\nFigure 12c: normalized latency breakdown");
    println!(
        "{:>10} {:>8} {:>8} {:>10} {:>10}",
        "benchmark", "variant", "linear", "attention", "detection"
    );
    for row in &all_rows {
        let lb = row.latency_breakdown;
        println!(
            "{:>10} {:>8} {:>7.1}% {:>9.1}% {:>9.2}%",
            row.benchmark,
            row.variant,
            lb.linear * 100.0,
            lb.attention * 100.0,
            lb.detection * 100.0
        );
    }
    println!("\nPaper shape: with detection on, attention shrinks from the dominant");
    println!("share (DOTA-F) to a minority, detection stays small, and the linear");
    println!("stages become the new bottleneck.");

    dota_bench::write_json("fig12_speedup", &rows);
}
