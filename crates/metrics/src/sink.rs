//! Append-only time-series of per-step training scalars.

use std::io;
use std::path::Path;

/// Records per-step scalar metrics (losses, learning rate, gradient norms,
/// retention ratios, …) and exports them as JSON-lines: one object per
/// step, e.g.
///
/// ```text
/// {"step":1,"dense.loss":2.1972,"dense.lr":0.00001,"dense.grad_norm":0.85}
/// ```
///
/// Rows keep their key insertion order and numbers print with Rust's
/// shortest round-trip `f64` formatting, so the exported bytes are a pure
/// function of the recorded values — the reproducibility tests compare
/// JSONL files from different thread counts byte-for-byte.
///
/// A *disabled* sink ([`MetricsSink::disabled`]) drops every record, so
/// training loops can take `&mut MetricsSink` unconditionally and callers
/// that don't need telemetry pay nothing (instrumented code should still
/// gate expensive metric computation on [`MetricsSink::enabled`]).
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    off: bool,
    rows: Vec<(u64, Vec<(String, f64)>)>,
}

impl MetricsSink {
    /// An enabled, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that silently drops every record.
    pub fn disabled() -> Self {
        Self {
            off: true,
            rows: Vec::new(),
        }
    }

    /// Whether records are being kept. Gate expensive metric computation
    /// (e.g. gradient norms) on this.
    pub fn enabled(&self) -> bool {
        !self.off
    }

    /// Appends one step row with an explicit step index.
    pub(crate) fn log_at(&mut self, step: u64, metrics: &[(&str, f64)]) {
        if self.off {
            return;
        }
        self.rows.push((
            step,
            metrics.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        ));
    }

    /// Appends one step row, auto-numbering the step as `rows + 1` (steps
    /// are 1-based and strictly increasing when only `log` is used).
    pub fn log(&mut self, metrics: &[(&str, f64)]) {
        let step = self.rows.len() as u64 + 1;
        self.log_at(step, metrics);
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `(step, value)` series of one metric, in record order.
    pub fn series(&self, name: &str) -> Vec<(u64, f64)> {
        self.rows
            .iter()
            .filter_map(|(step, kv)| kv.iter().find(|(k, _)| k == name).map(|&(_, v)| (*step, v)))
            .collect()
    }

    /// The most recent value of one metric.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .rev()
            .find_map(|(_, kv)| kv.iter().find(|(k, _)| k == name).map(|&(_, v)| v))
    }

    /// Sorted list of every metric name that appears in any row.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for (_, kv) in &self.rows {
            for (k, _) in kv {
                if !names.contains(k) {
                    names.push(k.clone());
                }
            }
        }
        names.sort();
        names
    }

    /// The full series as JSON-lines (one object per row, trailing
    /// newline). Deterministic byte-for-byte given the same records.
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 64);
        for (step, kv) in &self.rows {
            out.push_str("{\"step\":");
            out.push_str(&step.to_string());
            for (k, v) in kv {
                out.push(',');
                crate::write_json_string(&mut out, k);
                out.push(':');
                if v.is_finite() {
                    out.push_str(&crate::fmt_f64(*v));
                } else {
                    out.push_str("null");
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Writes the JSONL document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_series_and_jsonl() {
        let mut sink = MetricsSink::new();
        sink.log(&[("loss", 2.5), ("lr", 0.001)]);
        sink.log(&[("loss", 1.25)]);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.series("loss"), vec![(1, 2.5), (2, 1.25)]);
        assert_eq!(sink.series("lr"), vec![(1, 0.001)]);
        assert_eq!(sink.last("loss"), Some(1.25));
        assert_eq!(sink.names(), vec!["loss".to_owned(), "lr".to_owned()]);
        assert_eq!(
            sink.to_jsonl(),
            "{\"step\":1,\"loss\":2.5,\"lr\":0.001}\n{\"step\":2,\"loss\":1.25}\n"
        );
    }

    #[test]
    fn disabled_sink_drops_everything() {
        let mut sink = MetricsSink::disabled();
        assert!(!sink.enabled());
        sink.log(&[("loss", 1.0)]);
        assert!(sink.is_empty());
        assert_eq!(sink.to_jsonl(), "");
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        let mut sink = MetricsSink::new();
        sink.log(&[("bad", f64::NAN)]);
        assert_eq!(sink.to_jsonl(), "{\"step\":1,\"bad\":null}\n");
    }

    #[test]
    fn explicit_steps_are_preserved() {
        let mut sink = MetricsSink::new();
        sink.log_at(10, &[("x", 1.0)]);
        sink.log_at(20, &[("x", 2.0)]);
        assert_eq!(sink.series("x"), vec![(10, 1.0), (20, 2.0)]);
    }
}
