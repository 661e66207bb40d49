//! Host-time, layer-by-layer benchmark of the decode -> serve -> detect ->
//! simulate stack. See `README.md` beside this crate for the workloads,
//! the metrics and how to read them; `BENCHMARK.json` at the repository
//! root is the contract later changes are held to.
//!
//! ```text
//! dota-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dota-benchmark run   [--seed N] [--seconds S] [--repeat R] [--out FILE]
//! dota-benchmark trace [--seed N] [--seconds S] [--repeat R] [--out FILE]
//! dota-benchmark check
//! dota-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process and ends its standard
//! output with one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`): every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. `run`/`trace` run all four workloads, each in
//! a child process of its own so `peak_rss_mb` is per workload, and write
//! a result file under `benchmark/out/`.

mod compare;
mod host;
mod metrics;
mod spans;
mod stats;
mod workloads;

use metrics::{Kind, Outcome, METRICS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{RunArgs, WORKLOADS};

/// Seconds one run measures when `run`/`trace`/a bare `--workload` do not
/// say; `BENCHMARK.json`'s `run_seconds` passes the same value.
const DEFAULT_SECONDS: f64 = 30.0;
const DEFAULT_SEED: u64 = 7;
/// Prefix of the line carrying a run's full record to `run`/`trace`.
const FULL_PREFIX: &str = "#full ";

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn usage() -> String {
    format!(
        "usage:\n  dota-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  dota-benchmark run|trace [--seed N] [--seconds S] [--repeat R] [--out FILE]\n  dota-benchmark check\n  dota-benchmark compare <a.json> <b.json>\nworkloads: {}",
        WORKLOADS.map(|w| w.0).join(", ")
    )
}

/// `--key value` pairs after the subcommand (if any).
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{key}`\n{}", usage()))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        out.insert(name.to_owned(), value.clone());
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: `{v}` is not a valid value")),
    }
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

fn pairs_object(pairs: &[(&'static str, String)]) -> Value {
    object(pairs.iter().map(|(k, v)| (*k, text(v))).collect())
}

fn compact(v: &Value) -> String {
    serde_json::to_string(v).expect("the shim's serializer is infallible")
}

/// The metrics a mode reports in the driver's final JSON line: every
/// end-to-end metric untraced, every per-layer metric traced. A per-layer
/// metric the workload does not exercise reads 0.
fn final_metrics(
    outcome: &Outcome,
    trace: bool,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    METRICS
        .iter()
        .filter(|m| matches!(m.kind, Kind::EndToEnd { .. }) != trace)
        .map(|m| match outcome.get(m.name) {
            Some(v) => Ok((m.name, m.unit, v)),
            None if trace => Ok((m.name, m.unit, 0.0)),
            None => Err(format!(
                "workload did not report end-to-end metric {}",
                m.name
            )),
        })
        .collect()
}

/// One run's full record: everything measured, with sample counts.
fn full_record(outcome: &Outcome, workload: &str, args: &RunArgs, wall_s: f64) -> Value {
    let metrics = outcome
        .samples
        .iter()
        .map(|m| {
            let unit = metrics::def(m.name).map_or("", |d| d.unit);
            let fields = vec![
                ("value", Value::Float(m.value)),
                ("unit", text(unit)),
                ("n", Value::UInt(m.n)),
            ];
            (m.name, object(fields))
        })
        .collect();
    object(vec![
        ("workload", text(workload)),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        ("wall_s", Value::Float(wall_s)),
        ("measured_s", Value::Float(outcome.measured_s)),
        ("sim_digest", text(&format!("{:016x}", outcome.sim_digest))),
        ("sizes", pairs_object(&outcome.sizes)),
        ("metrics", object(metrics)),
    ])
}

fn print_outcome(outcome: &Outcome, workload: &str, args: &RunArgs, wall_s: f64) {
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == workload)
        .map_or("", |w| w.1);
    println!("workload {workload}: {why}");
    println!(
        "seed {}  budget {} s  measured {:.2} s  wall {:.2} s  tracing {}",
        args.seed,
        args.seconds,
        outcome.measured_s,
        wall_s,
        if args.trace { "on" } else { "off" }
    );
    for (k, v) in &outcome.sizes {
        println!("  size {k}: {v}");
    }
    for (k, v) in host::provenance() {
        println!("  host {k}: {v}");
    }
    for note in &outcome.notes {
        println!("  note {note}");
    }
    println!(
        "  {:<42} {:>16} {:<9} {:>8}  {:<6} {:<11} moves",
        "metric", "value", "unit", "samples", "better", "layer"
    );
    for def in METRICS {
        let Some(sample) = outcome.samples.iter().find(|s| s.name == def.name) else {
            continue;
        };
        println!(
            "  {:<42} {:>16.6} {:<9} {:>8}  {:<6} {:<11} {}",
            def.name,
            sample.value,
            def.unit,
            sample.n,
            def.better.name(),
            def.layer(),
            def.moves
        );
    }
    println!("  bench.sim_digest {:016x}", outcome.sim_digest);
    println!(
        "  ops attempted {}  failed {}  fail_share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for f in &outcome.failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// Writes `trace.json`: the events of every workload's trace file in
/// `dir`, each its own Chrome process, so the four open as one view.
fn merge_traces(dir: &std::path::Path) -> Result<PathBuf, String> {
    let mut events = Vec::new();
    for (workload, _) in WORKLOADS {
        let path = dir.join(format!("trace-{workload}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        // `spans::chrome_json` writes one event per line.
        events.extend(
            text.lines()
                .filter(|l| l.starts_with("{\"name\""))
                .map(|l| l.trim_end_matches(',').to_owned()),
        );
    }
    let path = dir.join("trace.json");
    let doc = format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// The driver entry point: one workload, one process, final JSON line.
fn run_workload(flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let workload = flags
        .get("workload")
        .ok_or_else(|| format!("--workload is required\n{}", usage()))?;
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let args = RunArgs {
        seed: parse(flags, "seed", DEFAULT_SEED)?,
        seconds: parse(flags, "seconds", DEFAULT_SECONDS)?,
        trace,
        check: false,
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be in (0, 120], got {}",
            args.seconds
        ));
    }
    let t0 = Instant::now();
    let mut outcome = workloads::run(workload, &args)?;
    if trace {
        workloads::kernels::run(args.seed, &mut outcome);
        let all = spans::take();
        if !spans::well_nested(&all) {
            outcome.fail("recorded spans are not well nested".into());
        }
        let by_layer = spans::layer_self_ns(&all);
        let total: u64 = by_layer.values().sum();
        let shares: Vec<String> = by_layer
            .iter()
            .map(|(l, ns)| {
                format!(
                    "{} {:.1}%",
                    l.name(),
                    *ns as f64 / total.max(1) as f64 * 100.0
                )
            })
            .collect();
        outcome.notes.push(format!(
            "raw span tree of the traced rounds, self time (span - children) by layer: {}",
            shares.join(", ")
        ));
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}.json"));
        // Chrome process id: the workload's position in the table, from 1.
        let pid = 1 + WORKLOADS.iter().position(|w| w.0 == workload).unwrap_or(0);
        std::fs::write(&path, spans::chrome_json(&all, pid, workload))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.notes.push(format!(
            "{} spans recorded, {} written to {}",
            all.len(),
            all.len().min(spans::MAX_WRITTEN),
            path.display()
        ));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    print_outcome(&outcome, workload, &args, wall_s);
    println!(
        "{FULL_PREFIX}{}",
        compact(&full_record(&outcome, workload, &args, wall_s))
    );
    let listed = final_metrics(&outcome, trace)?
        .into_iter()
        .map(|(name, unit, value)| {
            let fields = vec![("value", Value::Float(value)), ("unit", text(unit))];
            (name, object(fields))
        })
        .collect();
    println!(
        "{}",
        compact(&object(vec![
            ("correct", Value::Bool(outcome.correct())),
            ("attempted", Value::UInt(outcome.attempted.max(1))),
            ("failed", Value::UInt(outcome.failed)),
            ("metrics", object(listed)),
        ]))
    );
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `run` / `trace`: all four workloads, each in a fresh child process.
fn run_all(trace: bool, flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let seed: u64 = parse(flags, "seed", DEFAULT_SEED)?;
    let seconds: f64 = parse(flags, "seconds", DEFAULT_SECONDS)?;
    let repeat: usize = parse(flags, "repeat", 1)?;
    let mode = if trace { "trace" } else { "run" };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let out_path = flags.get("out").map_or_else(
        || dir.join(format!("{mode}-seed{seed}.json")),
        PathBuf::from,
    );
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..repeat.max(1) {
            let child = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting the {workload} child: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut full = None;
            for line in stdout.lines() {
                match line.strip_prefix(FULL_PREFIX) {
                    Some(record) => full = Some(record.to_owned()),
                    // The last line is the driver's JSON; `run` prints the
                    // readable part only.
                    None if line.starts_with("{\"correct\"") => {}
                    None => println!("{line}"),
                }
            }
            let record =
                full.ok_or_else(|| format!("the {workload} child printed no full record"))?;
            runs.push(
                serde_json::parse(&record)
                    .map_err(|e| format!("the {workload} child's record does not parse: {e}"))?,
            );
            all_correct &= child.status.success();
            println!();
        }
        workloads.push((workload, object(vec![("runs", Value::Array(runs))])));
    }
    let doc = object(vec![
        ("benchmark", text("dota-benchmark")),
        ("version", Value::UInt(1)),
        ("mode", text(mode)),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
        ("repeat", Value::UInt(repeat as u64)),
        ("provenance", pairs_object(&host::provenance())),
        ("workloads", object(workloads)),
    ]);
    let mut body = serde_json::to_string_pretty(&doc).expect("the shim's serializer is infallible");
    body.push('\n');
    std::fs::write(&out_path, body).map_err(|e| format!("writing {}: {e}", out_path.display()))?;
    println!("result file: {}", out_path.display());
    if trace {
        println!("merged trace: {}", merge_traces(&dir)?.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `check`: every verification at tiny sizes, no timing claims.
fn check() -> ExitCode {
    let t0 = Instant::now();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let args = RunArgs {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            check: true,
        };
        match workloads::run(workload, &args) {
            Ok(outcome) => {
                println!(
                    "check {workload}: {} ({} ops, {} failed, digest {:016x})",
                    if outcome.correct() { "ok" } else { "FAILED" },
                    outcome.attempted,
                    outcome.failed,
                    outcome.sim_digest
                );
                for f in &outcome.failures {
                    println!("  CHECK FAILED: {f}");
                }
                ok &= outcome.correct();
            }
            Err(e) => {
                println!("check {workload}: FAILED to run: {e}");
                ok = false;
            }
        }
    }
    println!("check finished in {:.1} s", t0.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dispatch() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => Ok(if compare::run(a, b)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err(usage()),
        },
        Some("check") if args.len() == 1 => {
            host::pin_environment()?;
            Ok(check())
        }
        Some(mode @ ("run" | "trace")) => {
            host::pin_environment()?;
            run_all(mode == "trace", &flags(&args[1..])?)
        }
        Some(first) if first.starts_with("--") => {
            host::pin_environment()?;
            run_workload(&flags(&args)?)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dota-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
