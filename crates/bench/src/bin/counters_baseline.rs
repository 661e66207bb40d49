//! Hardware-counter regression harness.
//!
//! Default mode re-runs the deterministic counter scenarios (see
//! `dota_bench::counter_scenarios`) and rewrites the committed baseline at
//! `results/counters_baseline.json`. `--check` mode re-runs the scenarios
//! and diffs them against the committed baseline instead, exiting non-zero
//! on any drift — run it in CI after behaviour-changing simulator work and
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

use serde::{Deserialize, Serialize};
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

/// One drifted counter, for the mismatch table.
struct DiffRow {
    scenario: String,
    key: String,
    expected: Option<u64>,
    actual: Option<u64>,
}

impl DiffRow {
    /// Signed relative error of `actual` vs `expected`, rendered as a
    /// percentage; "n/a" when either side is absent or the baseline is 0.
    fn rel_error(&self) -> String {
        match (self.expected, self.actual) {
            (Some(e), Some(a)) if e != 0 => {
                let rel = (a as f64 - e as f64) / e as f64;
                format!("{:+.4}%", rel * 100.0)
            }
            _ => "n/a".to_owned(),
        }
    }
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "<absent>".to_owned(), |v| v.to_string())
}

/// Prints every difference between the committed and current counters as
/// an aligned table (scenario, counter, expected, actual, relative
/// error). Returns the number of differences.
fn diff(committed: &Baseline, now: &Baseline) -> usize {
    let mut rows: Vec<DiffRow> = Vec::new();
    let mut structural = 0usize;
    let committed_by_name: BTreeMap<&str, &Scenario> = committed
        .scenarios
        .iter()
        .map(|s| (s.scenario.as_str(), s))
        .collect();
    for cur in &now.scenarios {
        let Some(base) = committed_by_name.get(cur.scenario.as_str()) else {
            println!("  {}: missing from committed baseline", cur.scenario);
            structural += 1;
            continue;
        };
        let keys: std::collections::BTreeSet<&String> =
            base.counters.keys().chain(cur.counters.keys()).collect();
        for key in keys {
            let (b, c) = (base.counters.get(key), cur.counters.get(key));
            if b != c {
                rows.push(DiffRow {
                    scenario: cur.scenario.clone(),
                    key: key.clone(),
                    expected: b.copied(),
                    actual: c.copied(),
                });
            }
        }
    }
    for base in &committed.scenarios {
        if !now.scenarios.iter().any(|s| s.scenario == base.scenario) {
            println!("  {}: no longer produced", base.scenario);
            structural += 1;
        }
    }
    if !rows.is_empty() {
        let mut widths = [
            "scenario".len(),
            "counter".len(),
            "expected".len(),
            "actual".len(),
        ];
        for r in &rows {
            widths[0] = widths[0].max(r.scenario.len());
            widths[1] = widths[1].max(r.key.len());
            widths[2] = widths[2].max(fmt_opt(r.expected).len());
            widths[3] = widths[3].max(fmt_opt(r.actual).len());
        }
        println!(
            "  {:<w0$}  {:<w1$}  {:>w2$}  {:>w3$}  {:>10}",
            "scenario",
            "counter",
            "expected",
            "actual",
            "rel error",
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
            w3 = widths[3],
        );
        for r in &rows {
            println!(
                "  {:<w0$}  {:<w1$}  {:>w2$}  {:>w3$}  {:>10}",
                r.scenario,
                r.key,
                fmt_opt(r.expected),
                fmt_opt(r.actual),
                r.rel_error(),
                w0 = widths[0],
                w1 = widths[1],
                w2 = widths[2],
                w3 = widths[3],
            );
        }
    }
    rows.len() + structural
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
        let diffs = diff(&committed, &now);
        if diffs == 0 {
            let total: usize = now.scenarios.iter().map(|s| s.counters.len()).sum();
            println!(
                "OK: {} scenarios, {total} counters, all identical to baseline",
                now.scenarios.len()
            );
        } else {
            println!("FAIL: {diffs} counter(s) drifted from the committed baseline");
            std::process::exit(1);
        }
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
