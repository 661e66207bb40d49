//! `dota train` — joint model + detector training and its accuracy table.

use super::infer::{finish_with_benchmark, flag_retention, flag_task_seq};
use dota_core::cli::Args;
use dota_core::experiments::{BenchmarkRun, Method, TrainOptions};
use dota_detector::DetectorConfig;
use dota_metrics::{Manifest, MetricsSink};

/// Most token ids `dota train` generates for its training set, all before
/// the first step; the committed runs train on 400 samples of 24.
const MAX_TRAIN_TOKENS: usize = 1 << 24;

pub(crate) fn cmd_train(mut args: Args) -> Result<(), String> {
    let retention = flag_retention(&mut args)?;
    let seq = flag_task_seq(&mut args, 24)?;
    let samples = args.number("--samples")?.unwrap_or(400);
    let most = MAX_TRAIN_TOKENS / seq;
    if !(1..=most).contains(&samples) {
        return Err(format!(
            "--samples {samples} must be in 1..={most} at --seq {seq}"
        ));
    }
    let epochs = args.number("--epochs")?.unwrap_or(20);
    let metrics_out = args.value("--metrics-out")?;
    let save = args.value("--save")?;
    let bench = finish_with_benchmark(args, "train")?;
    let seed = 5u64;
    let started = std::time::Instant::now();
    println!(
        "training {} (seq {seq}, {samples} samples, {epochs} epochs) with DOTA at {:.1}% retention...",
        bench.name(),
        retention * 100.0
    );
    let mut sink = if metrics_out.is_some() {
        MetricsSink::new()
    } else {
        MetricsSink::disabled()
    };
    let run = BenchmarkRun::train_logged(
        bench,
        seq,
        samples,
        100,
        DetectorConfig::new(retention).with_sigma(0.5),
        &TrainOptions {
            epochs,
            warmup_epochs: (epochs / 5).max(1),
            lr_warmup_steps: 600,
            ..Default::default()
        },
        seed,
        &mut sink,
    )
    .map_err(|e| format!("training failed: {e}"))?;
    println!("{:>8} {:>10} {:>12}", "method", "accuracy", "perplexity");
    let mut method_rows: Vec<serde_json::Value> = Vec::new();
    for (name, method, r) in [
        ("dense", Method::Dense, 1.0),
        ("DOTA", Method::Dota, retention),
        ("oracle", Method::Oracle, retention),
        ("ELSA", Method::Elsa, retention),
        ("random", Method::Random, retention),
    ] {
        let p = run.evaluate(method, r, 1);
        match p.perplexity {
            Some(ppl) => println!("{name:>8} {:>10.3} {ppl:>12.2}", p.accuracy),
            None => println!("{name:>8} {:>10.3} {:>12}", p.accuracy, "-"),
        }
        method_rows.push(serde_json::Value::Object(vec![
            ("method".to_owned(), serde_json::Value::Str(name.to_owned())),
            ("retention".to_owned(), serde_json::Value::Float(r)),
            ("accuracy".to_owned(), serde_json::Value::Float(p.accuracy)),
            (
                "perplexity".to_owned(),
                match p.perplexity {
                    Some(ppl) => serde_json::Value::Float(ppl),
                    None => serde_json::Value::Null,
                },
            ),
        ]));
    }
    if let Some(dir) = &metrics_out {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        sink.write_jsonl(&dir.join("metrics.jsonl"))
            .map_err(|e| format!("writing metrics.jsonl: {e}"))?;
        let results = serde_json::Value::Object(vec![
            (
                "benchmark".to_owned(),
                serde_json::Value::Str(bench.name().to_owned()),
            ),
            ("methods".to_owned(), serde_json::Value::Array(method_rows)),
        ]);
        std::fs::write(
            dir.join("train_results.json"),
            serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("writing train_results.json: {e}"))?;
        let mut manifest = Manifest::collect("train")
            .with_seed(seed)
            .with_config("benchmark", bench.name())
            .with_config("retention", retention)
            .with_config("seq", seq)
            .with_config("samples", samples)
            .with_config("epochs", epochs);
        if cfg!(feature = "parallel") {
            manifest = manifest.with_feature("parallel");
        }
        if dota_trace::enabled() {
            manifest.counters = dota_trace::counters_snapshot();
        }
        manifest.wall_clock_secs = started.elapsed().as_secs_f64();
        manifest
            .write(&dir.join("manifest.json"))
            .map_err(|e| format!("writing manifest.json: {e}"))?;
        eprintln!(
            "[metrics ({} steps), results and manifest written to {}]",
            sink.len(),
            dir.display()
        );
    }
    if let Some(path) = save {
        dota_core::checkpoint::save_params(&run.dota_params, std::path::Path::new(&path))
            .map_err(|e| e.to_string())?;
        println!("adapted weights saved to {path}");
    }
    Ok(())
}
