//! Hardware-counter regression harness.
//!
//! Default mode re-runs the deterministic counter scenarios (see
//! `dota_bench::counter_scenarios`) and rewrites the committed baseline at
//! `results/counters_baseline.json`. `--check` mode re-runs the scenarios
//! and diffs them against the committed baseline instead, through the
//! differ behind `dota report diff` at zero tolerance, exiting non-zero on
//! any drift — run it in CI after behaviour-changing simulator work and
//! regenerate the baseline deliberately when a change is intended:
//!
//! ```text
//! cargo run --release -p dota-bench --bin counters_baseline            # rewrite
//! cargo run --release -p dota-bench --bin counters_baseline -- --check # verify
//! ```
//!
//! The scenarios are fully seeded and every counter is a `u64` sum, so the
//! check is bitwise stable across hosts, thread counts and the `parallel`
//! feature — any diff is a real behaviour change, not noise.

use dota_core::report::{diff_values, DiffOptions, DiffReport};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Serialize, Deserialize)]
struct Scenario {
    scenario: String,
    counters: BTreeMap<String, u64>,
}

#[derive(Serialize, Deserialize)]
struct Baseline {
    note: String,
    scenarios: Vec<Scenario>,
}

fn current() -> Baseline {
    Baseline {
        note: "Deterministic dota-trace counter totals; regenerate with \
               `cargo run -p dota-bench --bin counters_baseline` when a \
               simulator change is intended."
            .to_owned(),
        scenarios: dota_bench::counter_scenarios()
            .into_iter()
            .map(|(scenario, counters)| Scenario { scenario, counters })
            .collect(),
    }
}

fn baseline_path() -> std::path::PathBuf {
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p.push("counters_baseline.json");
    p
}

/// The baseline as one object, scenario name → counters, so the path of
/// every drift names its scenario and its counter.
fn keyed(b: &Baseline) -> Value {
    Value::Object(
        b.scenarios
            .iter()
            .map(|s| (s.scenario.clone(), s.counters.to_value()))
            .collect(),
    )
}

fn main() {
    let mut args = dota_core::cli::Args::from_env();
    let check = args.switch("--check");
    // Profiler gate is independent of the trace gate, so the scenarios'
    // internal trace sessions coexist with `--profile` here.
    let _prof = dota_bench::profile_session("counters_baseline", args);
    let now = current();
    let path = baseline_path();

    if check {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        let committed: Baseline = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", path.display());
            std::process::exit(2);
        });
        println!("Counter regression check against {}", path.display());
        // The differ compares numbers as `f64`, which holds every counter
        // exactly: the largest committed one (2,621,440) is far below 2^53,
        // so at tolerance 0 any change is a finding.
        let opts = DiffOptions {
            tolerance: 0.0,
            ignore_keys: Vec::new(),
            allow_added: false,
        };
        let mut report = DiffReport {
            compared_files: 1,
            ..DiffReport::default()
        };
        let name = "counters_baseline.json";
        diff_values(name, &keyed(&committed), &keyed(&now), &opts, &mut report);
        if report.has_regressions() {
            print!("{}", report.render());
            println!(
                "FAIL: {} counter(s) drifted from the committed baseline",
                report.findings.len()
            );
            std::process::exit(1);
        }
        let total: usize = now.scenarios.iter().map(|s| s.counters.len()).sum();
        println!(
            "OK: {} scenarios, {total} counters, all identical to baseline",
            now.scenarios.len()
        );
    } else {
        // Rewrite mode records provenance for the regenerated baseline;
        // `--check` is read-only and leaves no manifest behind. No
        // trace-session binding in either mode — the scenarios open their
        // own exclusive trace sessions.
        let _manifest = dota_bench::run_manifest("counters_baseline");
        for s in &now.scenarios {
            println!("{:<22} {} counters", s.scenario, s.counters.len());
        }
        dota_bench::write_json("counters_baseline", &now);
    }
}
