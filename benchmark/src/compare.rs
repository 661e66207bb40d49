//! `compare <a.json> <b.json>`: judges result set `b` (the change) against
//! result set `a` (the parent) — or two sets of runs of one commit against
//! each other, which is the A/A acceptance check.
//!
//! One row per (workload, end-to-end metric): `better`, `unchanged`,
//! `unresolved` (the run-to-run spread is wider than the bound, so the
//! runs cannot tell) or `worse`, by the bounds in `BENCHMARK.json` (read from
//! the in-crate metric table, which a unit test keeps equal to that file).
//! Counts must be exactly equal. Per-layer timings are listed with their
//! change and no verdict: they explain a result, they do not gate it.

use crate::metrics::{Better, Kind, METRICS};
use crate::stats::median;
use serde_json::Value;
use std::collections::BTreeMap;

/// Judgement of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Unresolved,
    Worse,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s median
/// (negative = better).
pub fn worsening(better: Better, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return if mb == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// Widest run-to-run spread of either side: `(max - min) / median`.
pub fn spread(a: &[f64], b: &[f64]) -> f64 {
    let one = |xs: &[f64]| {
        let m = median(xs).abs();
        if xs.len() < 2 || m == 0.0 {
            return 0.0;
        }
        let (lo, hi) = xs
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        (hi - lo) / m
    };
    one(a).max(one(b))
}

/// The rule of `choosing-metrics` §6.5: a median no worse than the
/// parent's by more than `bound` is not a regression; where the spread is
/// wider than the bound the metric is unresolved — unless every run of one
/// side beats every run of the other, which no spread can explain away.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let w = worsening(better, a, b);
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let separated =
        |win: &[f64], lose: &[f64]| win.iter().all(|&x| lose.iter().all(|&y| beats(x, y)));
    if w > bound && separated(a, b) {
        return Verdict::Worse;
    }
    if w < -bound && separated(b, a) {
        return Verdict::Better;
    }
    if spread(a, b) > bound {
        return Verdict::Unresolved;
    }
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// `workload -> metric -> one value per run`, read from a result file.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn load(path: &str) -> Result<(Values, BTreeMap<String, Vec<String>>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no `workloads` object (not a benchmark result file)"))?;
    let mut values = Values::new();
    let mut digests = BTreeMap::new();
    for (name, w) in workloads {
        let Some(Value::Array(runs)) = w.get("runs") else {
            return Err(format!("{path}: workload {name} has no `runs` array"));
        };
        let per_metric = values.entry(name.clone()).or_default();
        for run in runs {
            for (metric, m) in run.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
                if let Some(v) = m.get("value").and_then(number) {
                    per_metric.entry(metric.clone()).or_default().push(v);
                }
            }
            if let Some(Value::Str(d)) = run.get("sim_digest") {
                digests
                    .entry(name.clone())
                    .or_insert_with(Vec::new)
                    .push(d.clone());
            }
        }
    }
    Ok((values, digests))
}

/// Prints the comparison; `Ok(true)` when nothing is worse and every count
/// is equal.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, digests_a) = load(path_a)?;
    let (b, digests_b) = load(path_b)?;
    let mut clean = true;
    println!("compare: a = {path_a}   b = {path_b}");
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            println!("\n{workload}: missing from b");
            clean = false;
            continue;
        };
        println!("\n{workload}");
        println!(
            "  {:<42} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
            "metric", "median a", "median b", "change", "spread", "bound"
        );
        for def in METRICS {
            let (Some(va), Some(vb)) = (metrics_a.get(def.name), metrics_b.get(def.name)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let w = worsening(def.better, va, vb);
            let bound = match def.kind {
                // Undefined on this workload: both sides read 0.
                Kind::Ratio { .. } if ma == 0.0 && mb == 0.0 => continue,
                Kind::EndToEnd { bound } | Kind::Ratio { bound } => Some(bound),
                Kind::Layer | Kind::Count => None,
            };
            let verdict_text = match (def.kind, bound) {
                (Kind::Count, _) => {
                    let equal = va.iter().chain(vb).all(|&x| x == va[0]);
                    clean &= equal;
                    if equal { "equal" } else { "DIFFERS" }.to_owned()
                }
                (_, Some(bound)) => {
                    let v = verdict(def.better, bound, va, vb);
                    clean &= v != Verdict::Worse;
                    v.name().to_owned()
                }
                (_, None) => "-".to_owned(),
            };
            println!(
                "  {:<42} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>8}  {}",
                def.name,
                ma,
                mb,
                // Signed so that positive always reads "worse".
                w * 100.0,
                spread(va, vb) * 100.0,
                bound.map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
                verdict_text
            );
        }
        let (da, db) = (digests_a.get(workload), digests_b.get(workload));
        if let (Some(da), Some(db)) = (da, db) {
            let equal = da.iter().chain(db).all(|d| d == &da[0]);
            clean &= equal;
            println!(
                "  {:<42} {:>14} {:>14} {:>9} {:>8} {:>8}  {}",
                "bench.sim_digest",
                da[0],
                db[0],
                "",
                "",
                "-",
                if equal { "equal" } else { "DIFFERS" }
            );
        }
    }
    println!(
        "\n{}",
        if clean {
            "no metric is worse and every count is equal"
        } else {
            "REGRESSION or count mismatch: see rows marked worse / DIFFERS"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_unchanged() {
        let a = [100.0, 101.0, 99.0];
        let b = [102.0, 103.0, 101.0];
        assert_eq!(verdict(Better::Lower, 0.07, &a, &b), Verdict::Unchanged);
        assert_eq!(verdict(Better::Higher, 0.07, &a, &b), Verdict::Unchanged);
    }

    #[test]
    fn beyond_bound_follows_the_direction() {
        let a = [100.0, 101.0, 99.0];
        let b = [120.0, 121.0, 119.0];
        assert_eq!(verdict(Better::Lower, 0.07, &a, &b), Verdict::Worse);
        assert_eq!(verdict(Better::Higher, 0.07, &a, &b), Verdict::Better);
        assert_eq!(verdict(Better::Lower, 0.07, &b, &a), Verdict::Better);
        assert_eq!(verdict(Better::Higher, 0.07, &b, &a), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_separates() {
        // Medians differ by 10 % but the runs overlap and scatter by 30 %.
        let a = [100.0, 85.0, 115.0];
        let b = [110.0, 95.0, 125.0];
        assert_eq!(verdict(Better::Lower, 0.07, &a, &b), Verdict::Unresolved);
        // Same scatter, but every run of b is above every run of a.
        let b = [150.0, 130.0, 170.0];
        assert_eq!(verdict(Better::Lower, 0.07, &a, &b), Verdict::Worse);
        assert_eq!(verdict(Better::Higher, 0.07, &a, &b), Verdict::Better);
        // Wide spread with equal medians is still unresolved, not unchanged.
        let b = [100.0, 80.0, 120.0];
        assert_eq!(verdict(Better::Lower, 0.07, &a, &b), Verdict::Unresolved);
    }

    #[test]
    fn single_runs_have_no_spread() {
        assert_eq!(spread(&[5.0], &[6.0]), 0.0);
        assert_eq!(
            verdict(Better::Lower, 0.05, &[5.0], &[5.1]),
            Verdict::Unchanged
        );
        assert_eq!(verdict(Better::Lower, 0.05, &[5.0], &[6.0]), Verdict::Worse);
    }

    #[test]
    fn worsening_is_signed_towards_worse() {
        assert!((worsening(Better::Lower, &[10.0], &[11.0]) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, &[10.0], &[11.0]) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, &[0.0], &[0.0]), 0.0);
    }
}
