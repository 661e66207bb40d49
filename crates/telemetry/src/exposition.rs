//! Prometheus text-format exposition: encoder, parser, and strict
//! validator.
//!
//! [`render`] turns one coherent snapshot — `dota-trace` counters, the
//! live [`GaugesSample`], and `dota-metrics` histograms — into valid
//! text exposition format (version 0.0.4): `# HELP`/`# TYPE` comments
//! followed by samples, histograms with cumulative `le` buckets, a
//! `+Inf` bucket equal to `_count`, and an exact `_sum`.
//!
//! [`validate`] is the strict line-grammar check the tests and CI lint
//! scraped output with: metric-name and label grammar, declared types,
//! duplicate detection, and for every histogram monotone non-decreasing
//! cumulative buckets. [`parse`] is the lenient sample reader `dota top`
//! uses.

use crate::gauges::GaugesSample;
use dota_metrics::{fmt_f64, Histogram};
use std::collections::{BTreeMap, BTreeSet};

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs in order of appearance (empty for unlabelled samples).
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf` buckets parse as `f64::INFINITY`).
    pub value: f64,
}

impl Sample {
    /// The sample's value when its labels match `want` exactly.
    fn key(&self) -> String {
        let mut k = self.name.clone();
        for (n, v) in &self.labels {
            k.push('\u{1}');
            k.push_str(n);
            k.push('\u{2}');
            k.push_str(v);
        }
        k
    }
}

/// Maps a dotted internal metric name (`serve.queue_wait_us`) onto the
/// Prometheus name grammar: `dota_` prefix, every character outside
/// `[a-zA-Z0-9_]` replaced with `_`.
pub(crate) fn sanitize_name(name: &str) -> String {
    sanitize_with_prefix("dota_", name)
}

/// [`sanitize_name`] with an explicit prefix. Histogram families use
/// `dota_hist_` so a histogram of the same internal quantity as a serve
/// gauge (`serve.slo.burn` vs `dota_serve_slo_burn`) cannot collide with
/// it — one exposition name must belong to exactly one family.
fn sanitize_with_prefix(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len());
    out.push_str(prefix);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_help_type(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    // HELP text escapes: backslash and newline.
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn push_label_value(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_gauge(out: &mut String, name: &str, help: &str, value: &str) {
    push_help_type(out, name, help, "gauge");
    out.push_str(name);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Renders one snapshot as Prometheus text exposition format. Output is
/// a pure function of the inputs (names in `BTreeMap` order, floats via
/// the shortest round-trip formatter), so identical snapshots render to
/// identical bytes.
pub fn render(
    counters: &BTreeMap<String, u64>,
    gauges: &GaugesSample,
    hists: &BTreeMap<String, Histogram>,
) -> String {
    let mut out = String::with_capacity(4096);

    // --- serve gauges -----------------------------------------------------
    push_help_type(
        &mut out,
        "dota_serve_cell_info",
        "Currently running bench cell (label `cell`).",
        "gauge",
    );
    out.push_str("dota_serve_cell_info{cell=");
    push_label_value(&mut out, &gauges.cell);
    out.push_str("} 1\n");
    let g = |out: &mut String, name: &str, help: &str, v: u64| {
        push_gauge(out, name, help, &v.to_string());
    };
    g(
        &mut out,
        "dota_serve_cycle",
        "Simulated cycle of the last published sample.",
        gauges.cycle,
    );
    g(
        &mut out,
        "dota_serve_steps",
        "Scheduler steps taken in the current cell.",
        gauges.steps,
    );
    g(
        &mut out,
        "dota_serve_queue_depth",
        "Requests waiting in the admission queue.",
        gauges.queue_depth,
    );
    g(
        &mut out,
        "dota_serve_occupancy",
        "Occupied decode slots.",
        gauges.occupancy,
    );
    g(
        &mut out,
        "dota_serve_capacity",
        "Total decode slots.",
        gauges.capacity,
    );
    g(
        &mut out,
        "dota_serve_admitted",
        "Requests admitted in the current cell.",
        gauges.admitted,
    );
    g(
        &mut out,
        "dota_serve_decoded_tokens",
        "Tokens decoded in the current cell.",
        gauges.decoded_tokens,
    );
    g(
        &mut out,
        "dota_serve_quarantined_lanes",
        "Lanes currently quarantined by the fault layer.",
        gauges.quarantined_lanes,
    );
    if let Some(hr) = gauges.slo_hit_rate_milli {
        push_gauge(
            &mut out,
            "dota_serve_slo_hit_rate",
            "Rolling SLO hit rate (0-1).",
            &fmt_f64(hr as f64 / 1000.0),
        );
    }
    if let Some(burn) = gauges.slo_burn_milli {
        push_gauge(
            &mut out,
            "dota_serve_slo_burn",
            "Worst per-slot SLO burn at the last step (1.0 = budget spent).",
            &fmt_f64(burn as f64 / 1000.0),
        );
    }
    if let Some(rung) = gauges.rung {
        g(
            &mut out,
            "dota_serve_retention_rung",
            "Retention-ladder rung the closed-loop controller sits at.",
            rung,
        );
    }
    if let Some(closed) = gauges.gate_closed {
        g(
            &mut out,
            "dota_serve_gate_closed",
            "1 while the controller's admission gate is closed.",
            u64::from(closed),
        );
    }
    push_gauge(
        &mut out,
        "dota_serve_lane_skew",
        "Retained-work skew across busy lanes (max/mean; 1 = balanced).",
        &fmt_f64(gauges.lane_skew_milli as f64 / 1000.0),
    );
    if !gauges.lane_retained.is_empty() {
        push_help_type(
            &mut out,
            "dota_serve_lane_retained",
            "Retained (attended) connections per lane at the last step.",
            "gauge",
        );
        for (lane, &r) in gauges.lane_retained.iter().enumerate() {
            out.push_str("dota_serve_lane_retained{lane=\"");
            out.push_str(&lane.to_string());
            out.push_str("\"} ");
            out.push_str(&r.to_string());
            out.push('\n');
        }
    }

    // --- dota-trace counters ---------------------------------------------
    for (name, &v) in counters {
        let pname = format!("{}_total", sanitize_name(name));
        push_help_type(
            &mut out,
            &pname,
            &format!("dota-trace counter `{name}`."),
            "counter",
        );
        out.push_str(&pname);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }

    // --- dota-metrics histograms ------------------------------------------
    for (name, h) in hists {
        let pname = sanitize_with_prefix("dota_hist_", name);
        push_help_type(
            &mut out,
            &pname,
            &format!("dota-metrics histogram `{name}`."),
            "histogram",
        );
        for (ub, cum) in h.cumulative_buckets() {
            out.push_str(&pname);
            out.push_str("_bucket{le=\"");
            out.push_str(&fmt_f64(ub));
            out.push_str("\"} ");
            out.push_str(&cum.to_string());
            out.push('\n');
        }
        out.push_str(&pname);
        out.push_str("_bucket{le=\"+Inf\"} ");
        out.push_str(&h.count().to_string());
        out.push('\n');
        out.push_str(&pname);
        out.push_str("_sum ");
        out.push_str(&fmt_f64(h.sum()));
        out.push('\n');
        out.push_str(&pname);
        out.push_str("_count ");
        out.push_str(&h.count().to_string());
        out.push('\n');
    }

    out
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses one sample line (`name{labels} value`).
fn parse_sample_line(line: &str) -> Result<Sample, String> {
    let err = |m: &str| format!("{m}: `{line}`");
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or_else(|| err("unclosed label set"))?;
            if close < brace {
                return Err(err("unclosed label set"));
            }
            (
                &line[..brace],
                Some((&line[brace + 1..close], &line[close + 1..])),
            )
        }
        None => (
            line.split_once(' ').ok_or_else(|| err("missing value"))?.0,
            None,
        ),
    };
    if !valid_metric_name(name_part) {
        return Err(err("invalid metric name"));
    }
    let (labels, value_part) = match rest {
        Some((labels_raw, after)) => {
            let mut labels = Vec::new();
            let mut chars = labels_raw.chars().peekable();
            while chars.peek().is_some() {
                let mut lname = String::new();
                for c in chars.by_ref() {
                    if c == '=' {
                        break;
                    }
                    lname.push(c);
                }
                if !valid_label_name(&lname) {
                    return Err(err("invalid label name"));
                }
                if chars.next() != Some('"') {
                    return Err(err("label value must be quoted"));
                }
                let mut lval = String::new();
                let mut closed = false;
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some('\\') => lval.push('\\'),
                            Some('"') => lval.push('"'),
                            Some('n') => lval.push('\n'),
                            _ => return Err(err("bad escape in label value")),
                        },
                        '"' => {
                            closed = true;
                            break;
                        }
                        c => lval.push(c),
                    }
                }
                if !closed {
                    return Err(err("unterminated label value"));
                }
                labels.push((lname, lval));
                match chars.next() {
                    Some(',') | None => {}
                    Some(_) => return Err(err("expected `,` between labels")),
                }
            }
            (labels, after.trim_start())
        }
        None => {
            let (_, v) = line.split_once(' ').expect("checked above");
            (Vec::new(), v)
        }
    };
    let value_str = value_part.trim();
    if value_str.is_empty() || value_str.contains(' ') {
        // A trailing timestamp would show up as a second token; this
        // exposition never emits timestamps, so reject them.
        return Err(err("expected exactly one value token"));
    }
    let value: f64 = value_str
        .parse()
        .map_err(|_| err("unparseable sample value"))?;
    Ok(Sample {
        name: name_part.to_owned(),
        labels,
        value,
    })
}

/// Parses every sample line of an exposition document, skipping comments
/// and blank lines. Errors on the first malformed sample line.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim_end_matches('\r');
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample_line(line)?);
    }
    Ok(out)
}

/// Strictly validates an exposition document:
///
/// * every line is a `# HELP`, `# TYPE`, or sample line in grammar;
/// * every sample belongs to a family declared with `# TYPE` *before*
///   its first sample, and the family's type admits the sample name
///   (`_bucket`/`_sum`/`_count` for histograms);
/// * no duplicate `(name, labels)` sample;
/// * counter and gauge values are finite, counters non-negative;
/// * every histogram has `_sum`, `_count`, and a `le="+Inf"` bucket equal
///   to `_count`; bucket `le` bounds strictly increase and cumulative
///   counts are monotone non-decreasing.
pub fn validate(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    // family -> (buckets in order of appearance, sum, count)
    #[derive(Default)]
    struct HistFamily {
        buckets: Vec<(f64, f64)>,
        sum: Option<f64>,
        count: Option<f64>,
    }
    let mut hist_families: BTreeMap<String, HistFamily> = BTreeMap::new();

    for raw in text.lines() {
        let line = raw.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("HELP for invalid metric name: `{line}`"));
                }
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("TYPE for invalid metric name: `{line}`"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("unknown TYPE `{kind}`: `{line}`"));
                }
                if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                    return Err(format!("duplicate TYPE for `{name}`"));
                }
            } else {
                return Err(format!("comment is neither HELP nor TYPE: `{line}`"));
            }
            continue;
        }
        let sample = parse_sample_line(line)?;
        if !seen.insert(sample.key()) {
            return Err(format!("duplicate sample: `{line}`"));
        }
        // Resolve the declaring family.
        let (family, kind) = if let Some(kind) = types.get(&sample.name) {
            (sample.name.clone(), kind.clone())
        } else {
            let stripped = sample
                .name
                .strip_suffix("_bucket")
                .or_else(|| sample.name.strip_suffix("_sum"))
                .or_else(|| sample.name.strip_suffix("_count"));
            match stripped.and_then(|f| types.get(f).map(|k| (f.to_owned(), k.clone()))) {
                Some((f, k)) if k == "histogram" => (f, k),
                _ => {
                    return Err(format!(
                        "sample `{}` has no TYPE declaration above it",
                        sample.name
                    ))
                }
            }
        };
        match kind.as_str() {
            "counter" if !sample.value.is_finite() || sample.value < 0.0 => {
                return Err(format!("counter `{}` must be finite and >= 0", sample.name));
            }
            "gauge" if !sample.value.is_finite() => {
                return Err(format!("gauge `{}` must be finite", sample.name));
            }
            "histogram" => {
                let fam = hist_families.entry(family.clone()).or_default();
                if sample.name.ends_with("_bucket") {
                    let le = sample
                        .labels
                        .iter()
                        .find(|(n, _)| n == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or_else(|| format!("bucket without `le` label: `{line}`"))?;
                    let bound: f64 = le
                        .parse()
                        .map_err(|_| format!("unparseable `le` bound `{le}`"))?;
                    fam.buckets.push((bound, sample.value));
                } else if sample.name.ends_with("_sum") {
                    fam.sum = Some(sample.value);
                } else if sample.name.ends_with("_count") {
                    fam.count = Some(sample.value);
                }
            }
            _ => {}
        }
    }

    // Histogram family invariants.
    for (name, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let fam = hist_families
            .get(name)
            .ok_or_else(|| format!("histogram `{name}` has no samples"))?;
        let count = fam
            .count
            .ok_or_else(|| format!("histogram `{name}` missing _count"))?;
        if fam.sum.is_none() {
            return Err(format!("histogram `{name}` missing _sum"));
        }
        if fam.buckets.is_empty() {
            return Err(format!("histogram `{name}` has no buckets"));
        }
        let (last_bound, last_cum) = *fam.buckets.last().expect("non-empty");
        if last_bound != f64::INFINITY {
            return Err(format!("histogram `{name}` missing +Inf bucket"));
        }
        if last_cum != count {
            return Err(format!(
                "histogram `{name}`: +Inf bucket {last_cum} != _count {count}"
            ));
        }
        for w in fam.buckets.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!(
                    "histogram `{name}`: le bounds not strictly increasing ({} then {})",
                    w[0].0, w[1].0
                ));
            }
            if w[1].1 < w[0].1 {
                return Err(format!(
                    "histogram `{name}`: cumulative counts decreased ({} then {})",
                    w[0].1, w[1].1
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_inputs() -> (
        BTreeMap<String, u64>,
        GaugesSample,
        BTreeMap<String, Histogram>,
    ) {
        let mut counters = BTreeMap::new();
        counters.insert("serve.steps".to_owned(), 42);
        counters.insert("serve.tokens".to_owned(), 900);
        let gauges = GaugesSample {
            cell: "serve[slo@4x]".into(),
            cycle: 5000,
            steps: 17,
            queue_depth: 3,
            occupancy: 6,
            capacity: 8,
            admitted: 21,
            decoded_tokens: 130,
            slo_hit_rate_milli: Some(925),
            slo_burn_milli: Some(1310),
            rung: Some(2),
            gate_closed: Some(true),
            quarantined_lanes: 1,
            lane_retained: vec![4, 0, 2],
            lane_skew_milli: 1333,
        };
        let mut h = Histogram::new();
        h.record_all([0.5, 1.0, 2.0, 2.0, 40.0]);
        let mut hists = BTreeMap::new();
        hists.insert("serve.slo.step_burn_max".to_owned(), h);
        (counters, gauges, hists)
    }

    #[test]
    fn render_passes_strict_validation() {
        let (c, g, h) = sample_inputs();
        let text = render(&c, &g, &h);
        validate(&text).unwrap();
        // The key families are present under their sanitized names.
        for needle in [
            "dota_serve_queue_depth 3",
            "dota_serve_retention_rung 2",
            "dota_serve_gate_closed 1",
            "dota_serve_lane_retained{lane=\"0\"} 4",
            "dota_serve_steps_total 42",
            "dota_hist_serve_slo_step_burn_max_bucket{le=\"+Inf\"} 5",
            "dota_hist_serve_slo_step_burn_max_count 5",
            "dota_serve_cell_info{cell=\"serve[slo@4x]\"} 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn render_is_deterministic() {
        let (c, g, h) = sample_inputs();
        assert_eq!(render(&c, &g, &h), render(&c, &g, &h));
    }

    #[test]
    fn parse_round_trips_samples() {
        let (c, g, h) = sample_inputs();
        let text = render(&c, &g, &h);
        let samples = parse(&text).unwrap();
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no sample `{name}`"))
        };
        assert_eq!(find("dota_serve_occupancy").value, 6.0);
        assert_eq!(find("dota_serve_slo_hit_rate").value, 0.925);
        assert_eq!(find("dota_serve_tokens_total").value, 900.0);
        let inf_bucket = samples
            .iter()
            .find(|s| {
                s.name == "dota_hist_serve_slo_step_burn_max_bucket"
                    && s.labels.iter().any(|(n, v)| n == "le" && v == "+Inf")
            })
            .expect("+Inf bucket");
        assert_eq!(inf_bucket.value, 5.0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let (c, g, h) = sample_inputs();
        let good = render(&c, &g, &h);
        let cases: Vec<(String, &str)> = vec![
            (String::new(), "empty"),
            (good.trim_end().to_owned(), "missing trailing newline"),
            (
                good.replacen("dota_serve_queue_depth 3", "dota_serve_queue_depth 3\ndota_serve_queue_depth 4", 1),
                "duplicate sample",
            ),
            (
                good.replacen("# TYPE dota_serve_queue_depth gauge\n", "", 1),
                "sample without TYPE",
            ),
            (
                good.replacen("dota_serve_lane_skew ", "1bad_name ", 1),
                "invalid metric name",
            ),
            ("# TYPE h histogram\nh_sum 1\nh_count 2\n".to_owned(), "no buckets"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n".to_owned(),
                "missing +Inf",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n"
                    .to_owned(),
                "+Inf != count",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"
                    .to_owned(),
                "cumulative counts decreased",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"
                    .to_owned(),
                "le bounds not increasing",
            ),
            (
                "# TYPE g gauge\ng 1 1234567890\n".to_owned(),
                "trailing timestamp token",
            ),
            ("just some words\n".to_owned(), "garbage line"),
        ];
        for (doc, why) in cases {
            assert!(validate(&doc).is_err(), "validator accepted: {why}");
        }
        validate(&good).unwrap();
    }

    #[test]
    fn label_values_escape_and_parse_back() {
        let g = GaugesSample {
            cell: "we\"ird\\cell".into(),
            ..GaugesSample::default()
        };
        let text = render(&BTreeMap::new(), &g, &BTreeMap::new());
        validate(&text).unwrap();
        let samples = parse(&text).unwrap();
        let info = samples
            .iter()
            .find(|s| s.name == "dota_serve_cell_info")
            .expect("info sample");
        assert_eq!(info.labels[0].1, "we\"ird\\cell");
    }
}
