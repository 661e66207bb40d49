//! The metric table: every number the benchmark prints, with its unit,
//! direction, the layer it belongs to and — written down before anything
//! was measured — the end-to-end metric and workload it should move.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test keeps the two in step); this table adds what that file has no key
//! for.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a metric is measured and judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Host wall-clock with tracing off, defined on every workload and
    /// gated by `BENCHMARK.json`: `bound` is the share of the parent's
    /// median by which it may worsen.
    EndToEnd { bound: f64 },
    /// End-to-end in nature and measured on untraced rounds, but defined
    /// on some workloads only. The driver requires every gated metric on
    /// every workload, so these are listed under `per_layer` (printed
    /// with `--trace 1`, 0 where undefined); `compare` still applies
    /// `bound` where both sides report them.
    Ratio { bound: f64 },
    /// Host time, rate or share of one layer, from the traced run.
    Layer,
    /// A count made by the program or the simulated machine. It repeats
    /// exactly for a given seed (taken from the seed's first round, so
    /// it does not depend on how many rounds fitted the time budget).
    Count,
}

/// One row of the table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// The end-to-end metric and workload this should move (or what it
    /// pins, for counts).
    pub moves: &'static str,
}

impl MetricDef {
    /// The layer a metric belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        match self.kind {
            Kind::EndToEnd { .. } => "end-to-end",
            _ => self.name.split('.').next().unwrap_or(self.name),
        }
    }
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
        moves,
    }
}

const fn ratio(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Ratio { bound },
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Layer,
        moves,
    }
}

/// Counts have no better direction; `lower` is nominal (less simulated
/// work for the same served output is never worse).
const fn count(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Lower,
        kind: Kind::Count,
        moves,
    }
}

const PREFILL: &str = "tok_per_s on prefill_detect_sim; none elsewhere";
const PREFILL_SPEEDUPS: &str = "bench.omit_speedup / bench.dota_speedup on prefill_detect_sim";
const DECODE: &str = "tok_per_s, op_ms_p50 on decode_longctx and serve_longctx";
const DECODE_ALL: &str =
    "tok_per_s, bench.op_ms_p90, bench.omit_speedup, peak_rss_mb on decode_longctx; tok_per_s on serve_longctx; nothing on the other two";
const SERVE_LONG: &str = "tok_per_s on serve_longctx";
const TINY: &str = "tok_per_s, op_ms_p50 on serve_overload_tiny only";
const ACCEL: &str = "tok_per_s, op_ms_p50 on prefill_detect_sim only";
const SIM_PIN: &str = "pins the simulated machine: unchanged by a host-only speed-up";

/// Every metric, end-to-end first.
pub static METRICS: &[MetricDef] = &[
    // ---- end to end (gated) -------------------------------------------
    e2e("setup_s", "s", Lower, 0.25,
        "model/detector init, input generation and one warm-up op; median over batches of the fastest of 3 set-ups"),
    e2e("tok_per_s", "tokens/s", Higher, 0.25,
        "tokens of a round / sum of its chunks' fastest times (decode steps; engine slot-steps; seq x infer calls)"),
    e2e("op_ms_p50", "ms", Lower, 0.25,
        "median over ops of each op's fastest repeat; op = decode step / engine-scheduled decode step (cell mean) / episode pair / rep"),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, "VmHWM of the workload's process"),
    // ---- end-to-end in nature, defined on some workloads only ----------
    ratio("bench.op_ms_p90", "ms", Lower, 0.10,
        "tail op time where >= 100 ops were timed, i.e. >= 10 samples lie beyond it (decode_longctx)"),
    ratio("bench.omit_speedup", "ratio", Higher, 0.10,
        "dense time / free-selection sparse time at equal work (decode_longctx, prefill_detect_sim)"),
    ratio("bench.dota_speedup", "ratio", Higher, 0.10,
        "dense time / detector-driven sparse time, detection included (decode_longctx, prefill_detect_sim)"),
    // ---- tensor (kernel pass) -------------------------------------------
    layer("tensor.gemm_512_gflops", "GFLOP/s", Higher, PREFILL),
    layer("tensor.gemm_1024x128x128_ms", "ms", Lower, PREFILL),
    layer("tensor.gemv_128x512_us", "us", Lower, DECODE),
    layer("tensor.matmul_nt_1x32xT1024_us", "us", Lower, DECODE),
    layer("tensor.sparse_attention_ms", "ms", Lower, PREFILL_SPEEDUPS),
    layer("tensor.dense_attention_ms", "ms", Lower, PREFILL_SPEEDUPS),
    layer("tensor.topk_rows_ms", "ms", Lower, PREFILL_SPEEDUPS),
    layer("tensor.masked_softmax_ms", "ms", Lower, PREFILL_SPEEDUPS),
    // ---- quant (kernel pass) --------------------------------------------
    layer("quant.int4_matmul_nt_ms", "ms", Lower, "bench.dota_speedup on prefill_detect_sim"),
    layer("quant.int8_matmul_nt_ms", "ms", Lower, "bench.dota_speedup on prefill_detect_sim"),
    // ---- transformer ----------------------------------------------------
    layer("transformer.decode_dense_us_per_tok", "us", Lower, DECODE_ALL),
    layer("transformer.decode_window_us_per_tok", "us", Lower, DECODE_ALL),
    layer("transformer.decode_us_ctx512", "us", Lower, DECODE_ALL),
    layer("transformer.decode_us_ctx1024", "us", Lower, DECODE_ALL),
    layer("transformer.decode_ctx_slope_ns_per_pos", "ns", Lower, DECODE_ALL),
    layer("transformer.infer_dense_ms", "ms", Lower,
        "tok_per_s, bench.omit_speedup on prefill_detect_sim"),
    layer("transformer.infer_fixedsel_ms", "ms", Lower,
        "tok_per_s, bench.omit_speedup on prefill_detect_sim"),
    layer("transformer.self_share", "share", Lower,
        "share of timed wall spent in transformer: >= 0.9 of the blocking path on decode_longctx/serve_longctx"),
    count("transformer.attended_positions", "count", "attended K/V connections in the seed's first round"),
    layer("transformer.retention_realized", "share", Lower,
        "attended / dense connections on the sparse paths: the useful-work ratio"),
    // ---- detector -------------------------------------------------------
    layer("detector.decode_select_us_per_tok", "us", Lower, "bench.dota_speedup on decode_longctx only"),
    layer("detector.infer_select_ms", "ms", Lower, "bench.dota_speedup, tok_per_s on prefill_detect_sim"),
    layer("detector.infer_dota_ms", "ms", Lower, "bench.dota_speedup, tok_per_s on prefill_detect_sim"),
    layer("detector.self_share", "share", Lower,
        "share of timed wall spent in detector selection (decode_longctx, prefill_detect_sim)"),
    count("detector.selected_pairs", "count", "query-key pairs the detector selected in the seed's first round"),
    // ---- serve ----------------------------------------------------------
    layer("serve.host_us_per_step", "us", Lower, SERVE_LONG),
    layer("serve.host_us_per_tok_queue", "us", Lower, SERVE_LONG),
    layer("serve.host_us_per_tok_retention", "us", Lower, SERVE_LONG),
    layer("serve.shed_host_speedup", "ratio", Higher,
        "queue / retention cell host time per token at load 2.0 (1.0 today): tok_per_s on serve_longctx"),
    layer("serve.engine_overhead_share", "share", Lower,
        "(run - standalone replay of the same decode streams) / run: tok_per_s, op_ms_p50 on serve_overload_tiny; ~0 on serve_longctx"),
    layer("serve.self_share", "share", Lower, "share of timed wall spent in serve bookkeeping"),
    layer("serve.traffic_generate_ms", "ms", Lower, "setup_s on the serve workloads"),
    layer("serve.report_json_ms", "ms", Lower, TINY),
    layer("serve.host_ns_per_sim_cycle", "ns", Lower,
        "reconciles host time with the simulated clock: tok_per_s on both serve workloads"),
    layer("serve.mean_context", "count", Lower,
        "mean cache length a decode step sees: <= 16 on serve_overload_tiny by construction"),
    count("serve.offered", "count", SIM_PIN),
    count("serve.served", "count", SIM_PIN),
    count("serve.degraded", "count", SIM_PIN),
    count("serve.expired", "count", SIM_PIN),
    count("serve.rejected", "count", SIM_PIN),
    count("serve.failed", "count", SIM_PIN),
    count("serve.retries", "count", SIM_PIN),
    count("serve.steps", "count", SIM_PIN),
    count("serve.tokens", "count", SIM_PIN),
    count("serve.queue_depth_max", "count", SIM_PIN),
    count("serve.mean_occupancy", "count", SIM_PIN),
    count("serve.sim_total_cycles", "cycles", SIM_PIN),
    count("serve.sim_e2e_p50_cycles", "cycles", SIM_PIN),
    count("serve.sim_e2e_p99_cycles", "cycles", SIM_PIN),
    count("serve.sim_ttft_p99_cycles", "cycles", SIM_PIN),
    count("serve.sim_queue_wait_p99_cycles", "cycles", SIM_PIN),
    count("serve.sim_unserved_share", "share",
        "offered requests the simulated clock says were not served in full within deadline"),
    // ---- telemetry / trace / metrics / faults -----------------------------
    layer("telemetry.overhead_share", "share", Lower,
        "(observed - plain) / plain episode time: tok_per_s, op_ms_p50 on serve_overload_tiny only"),
    layer("telemetry.self_share", "share", Lower, TINY),
    layer("telemetry.render_ms", "ms", Lower, TINY),
    count("telemetry.flight_events", "count", "flight-ring events recorded in the seed's first block"),
    count("trace.counter_names", "count", "live dota-trace counters after the seed's first block"),
    count("metrics.hist_observations", "count", "histogram observations in the seed's first block"),
    count("faults.injected", "count", "serve-layer faults fired in the seed's first block"),
    // ---- accel ----------------------------------------------------------
    layer("accel.simulate_trace_ms", "ms", Lower, ACCEL),
    layer("accel.simulate_shape_ms", "ms", Lower, ACCEL),
    layer("accel.sched_ooo_ms", "ms", Lower, ACCEL),
    layer("accel.host_ns_per_sim_kcycle", "ns", Lower, ACCEL),
    layer("accel.self_share", "share", Lower, "share of a prefill_detect_sim rep spent simulating"),
    count("accel.sim_cycles", "cycles", SIM_PIN),
    count("accel.key_loads", "count", SIM_PIN),
    // ---- bench ----------------------------------------------------------
    layer("bench.trace_overhead_share", "share", Lower,
        "traced vs untraced tok_per_s of the same rounds: < 0.05 on every workload"),
    layer("bench.ops", "count", Higher, "ops timed in this run (sample count behind op_ms_p50)"),
];

/// Looks a metric up by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub name: &'static str,
    pub value: f64,
    pub n: u64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    /// Ops attempted on the host (decode steps, offered requests,
    /// episode pairs, reps).
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// One line per failed verification.
    pub failures: Vec<String>,
    /// Hash of every simulated stamp of the seed's first round.
    pub sim_digest: u64,
    /// Workload sizes, for provenance.
    pub sizes: Vec<(&'static str, String)>,
    /// Free-form lines printed with the metrics.
    pub notes: Vec<String>,
    /// Timed wall of the measurement loop, seconds.
    pub measured_s: f64,
}

impl Outcome {
    /// Records a metric value. The name must be in [`METRICS`].
    pub fn put(&mut self, name: &'static str, value: f64, n: u64) {
        debug_assert!(def(name).is_some(), "unknown metric {name}");
        self.samples.push(Sample { name, value, n });
    }

    /// Records a failed verification (not tied to one op).
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Counts `attempted` ops, `failed` of which failed their check.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records the digest of a run whose rounds all repeated the same
    /// work: every round must have produced the same one.
    pub fn set_digest(&mut self, per_round: &[u64]) {
        if per_round.windows(2).any(|w| w[0] != w[1]) {
            self.fail("sim digest differs between rounds of identical work".into());
        }
        self.sim_digest = per_round.first().copied().unwrap_or(0);
    }

    /// Records the two end-to-end metrics every workload reads the same
    /// way: set-up time and peak resident set.
    pub fn put_setup_and_rss(&mut self, setups: &crate::workloads::SetupTimer) {
        let (setup_s, n_setups) = setups.median_s();
        self.put("setup_s", setup_s, n_setups);
        self.put("peak_rss_mb", crate::host::peak_rss_mb(), 1);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.failures.is_empty()
            && self.samples.iter().all(|s| s.value.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "duplicate metric {}",
                m.name
            );
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(!m.moves.is_empty(), "{} must say what it moves", m.name);
        }
    }

    fn field<'a>(v: &'a Value, k: &str) -> &'a Value {
        v.get(k).unwrap_or_else(|| panic!("missing key {k}"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` and this table must name the same metrics with
    /// the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| match field(&doc, key) {
            Value::Array(a) => a.clone(),
            _ => panic!("{key} must be an array"),
        };
        let e2e: Vec<&MetricDef> = METRICS
            .iter()
            .filter(|m| matches!(m.kind, Kind::EndToEnd { .. }))
            .collect();
        let listed = rows("end_to_end");
        assert_eq!(listed.len(), e2e.len());
        for (row, m) in listed.iter().zip(&e2e) {
            assert_eq!(text(field(row, "name")), m.name);
            assert_eq!(text(field(row, "unit")), m.unit);
            assert_eq!(text(field(row, "better")), m.better.name());
            let Kind::EndToEnd { bound } = m.kind else {
                unreachable!()
            };
            match field(row, "bound") {
                Value::Float(b) => assert_eq!(*b, bound, "{}", m.name),
                other => panic!("bound of {} is {other:?}", m.name),
            }
        }
        let per_layer: Vec<&MetricDef> = METRICS
            .iter()
            .filter(|m| !matches!(m.kind, Kind::EndToEnd { .. }))
            .collect();
        let listed = rows("per_layer");
        assert!(listed.len() <= 128);
        assert_eq!(listed.len(), per_layer.len());
        for (row, m) in listed.iter().zip(&per_layer) {
            assert_eq!(text(field(row, "name")), m.name);
            assert_eq!(text(field(row, "unit")), m.unit);
            assert_eq!(text(field(row, "better")), m.better.name());
        }
        let workloads: Vec<String> = rows("workloads")
            .iter()
            .map(|w| text(field(w, "name")).to_owned())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(workloads, ours);
    }
}
