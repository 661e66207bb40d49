//! Extension experiment (paper §4.4, "Decoder Processing"): autoregressive
//! GEMV-regime decoding is memory-bound; DOTA's detection removes most of
//! the K/V-cache traffic, which is the component that grows with context.
//!
//! Run with: `cargo run --release -p dota-bench --bin decode_scaling`

use dota_accel::decode::simulate_decode;
use dota_accel::AccelConfig;
use dota_transformer::TransformerConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    context: usize,
    dense_us_per_token: f64,
    sparse_us_per_token: f64,
    speedup: f64,
    kv_fraction_dense: f64,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("decode_scaling");
    let cfg = AccelConfig::default();
    let model = TransformerConfig::gpt2(16_384);
    let gen = 32;

    println!("Decoder processing: GPT-2 shape, 32 generated tokens\n");
    println!(
        "{:>8} {:>14} {:>14} {:>9} {:>12}",
        "context", "dense us/tok", "DOTA us/tok", "speedup", "KV share"
    );
    let contexts = [512usize, 1024, 2048, 4096, 8192, 16_000];
    let rows = dota_bench::run_sweep(&contexts, |&context| {
        let dense = simulate_decode(&cfg, &model, context, gen, 1.0, 0.0);
        let sparse = simulate_decode(&cfg, &model, context, gen, 0.1, 0.2);
        Row {
            context,
            dense_us_per_token: dense.us_per_token(gen),
            sparse_us_per_token: sparse.us_per_token(gen),
            speedup: dense.seconds() / sparse.seconds(),
            kv_fraction_dense: dense.kv_stream_cycles as f64 / dense.cycles as f64,
        }
    });
    for row in &rows {
        println!(
            "{:>8} {:>14.0} {:>14.0} {:>8.2}x {:>11.1}%",
            row.context,
            row.dense_us_per_token,
            row.sparse_us_per_token,
            row.speedup,
            row.kv_fraction_dense * 100.0
        );
    }
    println!("\nShape: at short contexts weight streaming dominates (speedup ~1x);");
    println!("as the K/V cache grows past the weight footprint, detection's savings");
    println!("approach 1/retention on the cache traffic and decode speedup climbs.");

    dota_bench::write_json("decode_scaling", &rows);
}
