//! Cross-run regression diffing (`dota report diff`).
//!
//! Compares two runs — single result files or whole run directories —
//! value-by-value with a relative tolerance, so a reproduction can be
//! validated against committed results and CI can flag perf/accuracy
//! regressions. Three document kinds are understood:
//!
//! * `*.json` result files (figure rows, counter exports, manifests):
//!   recursive structural diff;
//! * `*.jsonl` metrics series (`dota train --metrics-out`): line-by-line
//!   diff of each step row;
//! * run directories: files are paired by name and diffed pairwise;
//!   files present on only one side are findings.
//!
//! Volatile provenance fields (git sha, wall clock, hostname, thread
//! count) are ignored by default so identical-seed runs from different
//! machines or thread budgets diff clean while every *measured* value is
//! still compared.

use serde_json::Value;
use std::path::Path;

/// Configuration of a diff run.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Maximum allowed relative difference `|a−b| / max(|a|,|b|)` between
    /// two numbers before a finding is raised.
    pub tolerance: f64,
    /// Object keys skipped at every depth. Defaults to the manifest's
    /// volatile provenance fields.
    pub ignore_keys: Vec<String>,
    /// Tolerate *additions* — keys or files present only in run B. Off by
    /// default (a schema change should be deliberate); when set, additions
    /// are tallied in [`DiffReport::added`] instead of raised as findings.
    /// Keys or files that *vanished* (present only in run A) are always
    /// findings: a disappeared measurement is a regression, not growth.
    pub allow_added: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-6,
            allow_added: false,
            ignore_keys: [
                "git_sha",
                "wall_clock_secs",
                "hostname",
                "host",
                "threads",
                "physical_cores",
                "cpu_features",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
        }
    }
}

/// One detected divergence between the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Where the divergence sits, e.g.
    /// `fig12_speedup.json: rows[3].attention_vs_gpu`.
    pub path: String,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// Run A's value, when the divergence is numeric.
    pub expected: Option<f64>,
    /// Run B's value, when the divergence is numeric.
    pub actual: Option<f64>,
    /// `true` when the divergence is an *addition* (a key or file present
    /// only in run B) rather than a changed or vanished value. Rendered as
    /// `ADDED` instead of `REGRESSION`, and suppressible with
    /// [`DiffOptions::allow_added`].
    pub added: bool,
}

/// Outcome of a diff: what was compared and every divergence found.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Number of file pairs compared.
    pub compared_files: usize,
    /// Number of leaf values compared.
    pub compared_values: usize,
    /// Additions tolerated under [`DiffOptions::allow_added`] (keys or
    /// files present only in run B that were *not* raised as findings).
    pub added: usize,
    /// All divergences, in document order.
    pub findings: Vec<Finding>,
}

impl DiffReport {
    /// `true` when at least one divergence was found.
    pub fn has_regressions(&self) -> bool {
        !self.findings.is_empty()
    }

    /// Multi-line human-readable summary: one `REGRESSION` line per
    /// finding, an aligned key/expected/actual/relative-error table for
    /// the numeric ones, and a closing tally.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let kind = if f.added { "ADDED" } else { "REGRESSION" };
            out.push_str(&format!("{kind} {}: {}\n", f.path, f.detail));
        }
        let numeric: Vec<(&Finding, f64, f64)> = self
            .findings
            .iter()
            .filter_map(|f| Some((f, f.expected?, f.actual?)))
            .collect();
        if !numeric.is_empty() {
            let rows: Vec<[String; 4]> = numeric
                .iter()
                .map(|(f, e, a)| {
                    let rel = relative_difference(*e, *a)
                        .map_or_else(|| "n/a".to_owned(), |r| format!("{r:.3e}"));
                    [f.path.clone(), e.to_string(), a.to_string(), rel]
                })
                .collect();
            let header = ["key", "expected", "actual", "rel error"];
            let mut widths = header.map(str::len);
            for row in &rows {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            out.push('\n');
            out.push_str(&format!(
                "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}\n",
                header[0],
                header[1],
                header[2],
                header[3],
                w0 = widths[0],
                w1 = widths[1],
                w2 = widths[2],
                w3 = widths[3],
            ));
            for row in &rows {
                out.push_str(&format!(
                    "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}\n",
                    row[0],
                    row[1],
                    row[2],
                    row[3],
                    w0 = widths[0],
                    w1 = widths[1],
                    w2 = widths[2],
                    w3 = widths[3],
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s), {} value(s) compared: {}{}\n",
            self.compared_files,
            self.compared_values,
            if self.findings.is_empty() {
                "no regressions".to_owned()
            } else {
                format!("{} regression(s)", self.findings.len())
            },
            if self.added > 0 {
                format!(", {} addition(s) tolerated", self.added)
            } else {
                String::new()
            }
        ));
        out
    }

    fn finding(&mut self, path: &str, detail: String) {
        self.findings.push(Finding {
            path: path.to_owned(),
            detail,
            expected: None,
            actual: None,
            added: false,
        });
    }

    /// Records an addition (key/file present only in run B): a finding by
    /// default, a tolerated tally under `allow_added`.
    fn record_added(&mut self, path: &str, detail: String, opts: &DiffOptions) {
        if opts.allow_added {
            self.added += 1;
        } else {
            self.findings.push(Finding {
                path: path.to_owned(),
                detail,
                expected: None,
                actual: None,
                added: true,
            });
        }
    }

    fn numeric_finding(&mut self, path: &str, expected: f64, actual: f64, detail: String) {
        self.findings.push(Finding {
            path: path.to_owned(),
            detail,
            expected: Some(expected),
            actual: Some(actual),
            added: false,
        });
    }
}

/// Diffs two runs: both paths must be files (compared directly) or both
/// directories (files paired by name).
///
/// # Errors
///
/// Returns a message when a path is missing, unreadable, or the two sides
/// are not the same kind (file vs directory).
pub fn diff_paths(a: &Path, b: &Path, opts: &DiffOptions) -> Result<DiffReport, String> {
    let mut report = DiffReport::default();
    match (a.is_dir(), b.is_dir()) {
        (true, true) => diff_dirs(a, b, opts, &mut report)?,
        (false, false) => diff_files(a, b, opts, &mut report)?,
        _ => {
            return Err(format!(
                "cannot compare a file with a directory: {} vs {}",
                a.display(),
                b.display()
            ))
        }
    }
    Ok(report)
}

/// Pairs the regular files of two directories by file name and diffs each
/// pair. Unpaired files become findings (a vanished output is a
/// regression too).
fn diff_dirs(
    a: &Path,
    b: &Path,
    opts: &DiffOptions,
    report: &mut DiffReport,
) -> Result<(), String> {
    let names_a = dir_file_names(a)?;
    let names_b = dir_file_names(b)?;
    for name in &names_a {
        if names_b.contains(name) {
            diff_files(&a.join(name), &b.join(name), opts, report)?;
        } else {
            report.finding(name, format!("only present in {}", a.display()));
        }
    }
    for name in &names_b {
        if !names_a.contains(name) {
            report.record_added(name, format!("only present in {}", b.display()), opts);
        }
    }
    Ok(())
}

/// Sorted regular-file names of a directory.
fn dir_file_names(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        if entry.path().is_file() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    Ok(names)
}

/// Diffs two files of the same name; `.jsonl` gets the line-by-line
/// treatment, everything else parses as one JSON document.
fn diff_files(
    a: &Path,
    b: &Path,
    opts: &DiffOptions,
    report: &mut DiffReport,
) -> Result<(), String> {
    let name = a
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| a.display().to_string());
    let text_a = std::fs::read_to_string(a).map_err(|e| format!("reading {}: {e}", a.display()))?;
    let text_b = std::fs::read_to_string(b).map_err(|e| format!("reading {}: {e}", b.display()))?;
    report.compared_files += 1;
    if name.ends_with(".jsonl") {
        diff_jsonl(&name, &text_a, &text_b, opts, report)
    } else {
        let va = serde_json::parse(&text_a).map_err(|e| format!("parsing {}: {e}", a.display()))?;
        let vb = serde_json::parse(&text_b).map_err(|e| format!("parsing {}: {e}", b.display()))?;
        diff_values(&name, &va, &vb, opts, report);
        Ok(())
    }
}

/// Line-by-line diff of two JSONL documents.
fn diff_jsonl(
    name: &str,
    a: &str,
    b: &str,
    opts: &DiffOptions,
    report: &mut DiffReport,
) -> Result<(), String> {
    let lines_a: Vec<&str> = a.lines().filter(|l| !l.trim().is_empty()).collect();
    let lines_b: Vec<&str> = b.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines_a.len() != lines_b.len() {
        report.finding(
            name,
            format!("row count {} vs {}", lines_a.len(), lines_b.len()),
        );
    }
    for (i, (la, lb)) in lines_a.iter().zip(&lines_b).enumerate() {
        let va = serde_json::parse(la).map_err(|e| format!("parsing {name} row {i}: {e}"))?;
        let vb = serde_json::parse(lb).map_err(|e| format!("parsing {name} row {i}: {e}"))?;
        diff_values(&format!("{name}: row {}", i + 1), &va, &vb, opts, report);
    }
    Ok(())
}

/// Recursive structural diff of two JSON values, run A's `a` against run
/// B's `b`, adding what it compares and finds to `report`; `path` prefixes
/// every finding's path.
pub fn diff_values(path: &str, a: &Value, b: &Value, opts: &DiffOptions, report: &mut DiffReport) {
    match (a, b) {
        (Value::Object(fa), Value::Object(fb)) => {
            for (k, va) in fa {
                if opts.ignore_keys.iter().any(|ig| ig == k) {
                    continue;
                }
                match b.get(k) {
                    Some(vb) => diff_values(&format!("{path}.{k}"), va, vb, opts, report),
                    None => report.finding(&format!("{path}.{k}"), "missing in run B".to_owned()),
                }
            }
            for (k, _) in fb {
                if opts.ignore_keys.iter().any(|ig| ig == k) {
                    continue;
                }
                if a.get(k).is_none() {
                    report.record_added(
                        &format!("{path}.{k}"),
                        "added in run B (absent from run A)".to_owned(),
                        opts,
                    );
                }
            }
        }
        (Value::Array(xa), Value::Array(xb)) => {
            if xa.len() != xb.len() {
                report.finding(path, format!("array length {} vs {}", xa.len(), xb.len()));
            }
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff_values(&format!("{path}[{i}]"), va, vb, opts, report);
            }
        }
        _ => match (as_number(a), as_number(b)) {
            (Some(na), Some(nb)) => {
                report.compared_values += 1;
                if let Some(rel) = relative_difference(na, nb) {
                    if rel > opts.tolerance {
                        report.numeric_finding(
                            path,
                            na,
                            nb,
                            format!("{na} vs {nb} (relative difference {rel:.3e})"),
                        );
                    }
                }
            }
            _ => {
                report.compared_values += 1;
                if !scalar_eq(a, b) {
                    report.finding(path, format!("{} vs {}", render(a), render(b)));
                }
            }
        },
    }
}

/// Numeric view of a value, unifying `Int`/`UInt`/`Float`.
fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Relative difference `|a−b| / max(|a|,|b|)`; `None` when the values
/// compare equal outright (covers 0 vs 0 and NaN vs NaN semantics: two
/// NaNs count as equal for diffing purposes).
fn relative_difference(a: f64, b: f64) -> Option<f64> {
    if a == b || (a.is_nan() && b.is_nan()) {
        return None;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return None;
    }
    Some((a - b).abs() / denom)
}

/// Equality of non-numeric scalars.
fn scalar_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// Short rendering of a scalar for finding messages.
fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Array(x) => format!("array[{}]", x.len()),
        Value::Object(f) => format!("object{{{} keys}}", f.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff_strs(a: &str, b: &str, opts: &DiffOptions) -> DiffReport {
        let mut report = DiffReport::default();
        let va = serde_json::parse(a).unwrap();
        let vb = serde_json::parse(b).unwrap();
        diff_values("t", &va, &vb, opts, &mut report);
        report
    }

    #[test]
    fn identical_documents_have_no_findings() {
        let doc = r#"{"rows": [{"x": 1.5, "name": "a"}, {"x": 2, "name": "b"}]}"#;
        let r = diff_strs(doc, doc, &DiffOptions::default());
        assert!(!r.has_regressions(), "{:?}", r.findings);
        assert_eq!(r.compared_values, 4);
    }

    #[test]
    fn within_tolerance_is_clean_beyond_is_flagged() {
        let opts = DiffOptions {
            tolerance: 1e-3,
            ..Default::default()
        };
        let a = r#"{"x": 1000.0}"#;
        assert!(!diff_strs(a, r#"{"x": 1000.5}"#, &opts).has_regressions());
        let r = diff_strs(a, r#"{"x": 1002.0}"#, &opts);
        assert!(r.has_regressions());
        assert!(r.findings[0].path.contains("x"));
    }

    #[test]
    fn int_float_cross_type_compares_numerically() {
        let r = diff_strs(r#"{"x": 2}"#, r#"{"x": 2.0}"#, &DiffOptions::default());
        assert!(!r.has_regressions());
    }

    #[test]
    fn missing_and_extra_keys_are_findings() {
        let r = diff_strs(
            r#"{"a": 1, "b": 2}"#,
            r#"{"a": 1, "c": 3}"#,
            &DiffOptions::default(),
        );
        assert_eq!(r.findings.len(), 2);
        // The vanished key is a regression, the new key an addition —
        // distinct classes with distinct render prefixes.
        let missing = r.findings.iter().find(|f| f.path == "t.b").unwrap();
        let extra = r.findings.iter().find(|f| f.path == "t.c").unwrap();
        assert!(!missing.added);
        assert!(extra.added);
        let text = r.render();
        assert!(text.contains("REGRESSION t.b"), "{text}");
        assert!(text.contains("ADDED t.c"), "{text}");
    }

    #[test]
    fn allow_added_tolerates_new_keys_but_not_vanished_ones() {
        let opts = DiffOptions {
            allow_added: true,
            ..Default::default()
        };
        // A new key in run B is tolerated and tallied...
        let r = diff_strs(r#"{"a": 1}"#, r#"{"a": 1, "c": 3}"#, &opts);
        assert!(!r.has_regressions(), "{:?}", r.findings);
        assert_eq!(r.added, 1);
        assert!(r.render().contains("1 addition(s) tolerated"));
        // ...but a vanished key is still a regression.
        let r = diff_strs(r#"{"a": 1, "b": 2}"#, r#"{"a": 1}"#, &opts);
        assert_eq!(r.findings.len(), 1);
        assert!(!r.findings[0].added);
    }

    #[test]
    fn volatile_manifest_keys_are_ignored() {
        let a = r#"{"git_sha": "abc", "threads": 1, "wall_clock_secs": 1.2, "seed": 5}"#;
        let b = r#"{"git_sha": "def", "threads": 8, "wall_clock_secs": 9.9, "seed": 5}"#;
        assert!(!diff_strs(a, b, &DiffOptions::default()).has_regressions());
        // But a differing seed is flagged.
        let c = r#"{"git_sha": "def", "threads": 8, "wall_clock_secs": 9.9, "seed": 6}"#;
        assert!(diff_strs(a, c, &DiffOptions::default()).has_regressions());
    }

    #[test]
    fn array_length_mismatch_is_flagged() {
        let r = diff_strs(r#"[1, 2, 3]"#, r#"[1, 2]"#, &DiffOptions::default());
        assert!(r.has_regressions());
    }

    #[test]
    fn string_mismatch_is_flagged() {
        let r = diff_strs(
            r#"{"m": "dota"}"#,
            r#"{"m": "elsa"}"#,
            &DiffOptions::default(),
        );
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].detail.contains("dota"));
    }

    #[test]
    fn render_prints_numeric_mismatch_table() {
        let r = diff_strs(
            r#"{"x": 1.0, "m": "a"}"#,
            r#"{"x": 2.0, "m": "b"}"#,
            &DiffOptions::default(),
        );
        let text = r.render();
        // REGRESSION lines for both findings, but the table only covers
        // the numeric one, with all four columns present.
        assert_eq!(text.matches("REGRESSION").count(), 2, "{text}");
        for col in ["key", "expected", "actual", "rel error"] {
            assert!(text.contains(col), "missing column {col}:\n{text}");
        }
        let table_row = text
            .lines()
            .find(|l| l.starts_with("t.x"))
            .unwrap_or_else(|| panic!("no table row for t.x:\n{text}"));
        assert!(
            table_row.contains('1') && table_row.contains('2'),
            "{table_row}"
        );
        assert!(table_row.contains("5.000e-1"), "{table_row}");
    }

    #[test]
    fn jsonl_rows_diff_line_by_line() {
        let mut report = DiffReport::default();
        let a = "{\"step\":1,\"loss\":2.5}\n{\"step\":2,\"loss\":1.5}\n";
        let b = "{\"step\":1,\"loss\":2.5}\n{\"step\":2,\"loss\":1.0}\n";
        diff_jsonl("m.jsonl", a, b, &DiffOptions::default(), &mut report).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].path.contains("row 2"));
    }

    #[test]
    fn dirs_pair_by_name_and_flag_unpaired() {
        let base = std::env::temp_dir().join(format!("dota_report_test_{}", std::process::id()));
        let (da, db) = (base.join("a"), base.join("b"));
        std::fs::create_dir_all(&da).unwrap();
        std::fs::create_dir_all(&db).unwrap();
        std::fs::write(da.join("r.json"), r#"{"x": 1}"#).unwrap();
        std::fs::write(db.join("r.json"), r#"{"x": 2}"#).unwrap();
        std::fs::write(da.join("only_a.json"), r#"{}"#).unwrap();
        let report = diff_paths(&da, &db, &DiffOptions::default()).unwrap();
        assert_eq!(report.compared_files, 1);
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        std::fs::remove_dir_all(&base).unwrap();
    }
}
