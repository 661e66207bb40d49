//! Figure 3: normalized FLOPs breakdown — attention vs other operations —
//! for BERT-large as sequence length scales from 384 to 16K.
//!
//! Run with: `cargo run --release -p dota-bench --bin fig03_flops`

use dota_transformer::flops;
use dota_transformer::TransformerConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    seq_len: usize,
    attention_fraction: f64,
    other_fraction: f64,
}

fn main() {
    // Honours --trace/--counters/--hists/--profile; no-op otherwise.
    let _obs = dota_bench::obs_init("fig03_flops");
    let cfg = TransformerConfig::bert_large(16_384);
    let seq_lens = [384usize, 512, 1024, 2048, 4096, 8192, 16_384];
    let rows: Vec<Row> = flops::fig3_sweep(&cfg, &seq_lens)
        .into_iter()
        .map(|r| Row {
            seq_len: r.seq_len,
            attention_fraction: r.attention_fraction,
            other_fraction: r.other_fraction,
        })
        .collect();

    println!("Figure 3: normalized FLOPs, attention vs other (BERT-large shape)\n");
    println!("{:>8} {:>12} {:>8}", "seq len", "attention", "other");
    for r in &rows {
        println!(
            "{:>8} {:>11.1}% {:>7.1}%",
            r.seq_len,
            r.attention_fraction * 100.0,
            r.other_fraction * 100.0
        );
    }
    println!("\nPaper shape: attention grows from a small share at 384 to the");
    println!("dominant share at 16K (quadratic vs linear scaling).");

    dota_bench::write_json("fig03_flops", &rows);
}
