//! Figure 15: token-parallelism design-space exploration — K/V memory
//! access (left axis), Scheduler buffer requirement (right axis), and the
//! combined cost whose minimum picks the paper's parallelism of 4.
//!
//! Also replays the paper's Figure 8/9 worked examples as a sanity header.
//!
//! Run with: `cargo run --release -p dota-bench --bin fig15_parallelism`

use dota_accel::energy;
use dota_accel::sched;
use dota_accel::synth::{sample_selection, SelectionProfile};
use dota_tensor::rng::SeededRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    parallelism: usize,
    key_loads: u64,
    normalized_memory_cost: f64,
    buffers: u64,
    scheduler_cost: f64,
    total_cost: f64,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("fig15_parallelism");
    // Header: the paper's worked examples.
    let fig8 = vec![vec![1u32, 2], vec![0, 1, 4], vec![1, 2], vec![0, 2, 4]];
    let fig9 = vec![
        vec![0u32, 1, 2],
        vec![1, 2, 3],
        vec![1, 4, 5],
        vec![2, 3, 4],
    ];
    println!(
        "Fig. 8 example: row-by-row {} loads, token-parallel {} loads",
        sched::row_by_row_loads(&fig8),
        sched::in_order_schedule(&fig8).total_loads()
    );
    println!(
        "Fig. 9 example: in-order {} loads, out-of-order {} loads\n",
        sched::in_order_schedule(&fig9).total_loads(),
        sched::locality_aware_schedule(&fig9).total_loads()
    );

    // Sweep: Text-like selection (2K tokens, 10% retention) at
    // parallelism 1..=6.
    let n = 2048;
    let k = 205;
    let profile = SelectionProfile::default();
    let mut rng = SeededRng::new(0xf15);
    let sel = sample_selection(n, k, &profile, &mut rng);
    let base_loads = sched::matrix_loads(&sel, 1, true).loads;

    println!("Figure 15: Text (2K tokens, 10% retention), K/V access vs parallelism\n");
    println!(
        "{:>12} {:>10} {:>10} {:>8} {:>11} {:>10}",
        "parallelism", "K/V loads", "mem cost", "buffers", "sched cost", "total"
    );
    let mut rows = Vec::new();
    for t in 1..=6 {
        let loads = sched::matrix_loads(&sel, t, true).loads;
        let mem = loads as f64 / base_loads as f64;
        let buffers = sched::buffer_requirement(t);
        // Scheduler cost model: energy grows with buffer count (CAM-like
        // search across buffers each issue), normalized so that t=4 matches
        // the Filter's share of lane power in Table 2.
        let sched_cost = buffers as f64 * energy::SCHED_ID_PJ
            / (sched::buffer_requirement(4) as f64 * energy::SCHED_ID_PJ)
            * 0.08;
        let total = mem + sched_cost;
        println!("{t:>12} {loads:>10} {mem:>10.3} {buffers:>8} {sched_cost:>11.3} {total:>10.3}",);
        rows.push(Row {
            parallelism: t,
            key_loads: loads,
            normalized_memory_cost: mem,
            buffers,
            scheduler_cost: sched_cost,
            total_cost: total,
        });
    }

    let best = rows
        .iter()
        .min_by(|a, b| a.total_cost.partial_cmp(&b.total_cost).unwrap())
        .unwrap();
    println!(
        "\nlowest combined cost at parallelism {} (paper picks 4: memory gains",
        best.parallelism
    );
    println!("have diminishing returns while buffers grow exponentially).");

    dota_bench::write_json("fig15_parallelism", &rows);
}
