//! `dota analyze` — joins host-time profiles (`dota-prof`) with simulated
//! hardware counters (`dota-trace`) into a deterministic bottleneck report.
//!
//! The report answers the questions the paper's evaluation answers per
//! component (Figs. 12–13): where do the simulated cycles go, how well are
//! the PEs utilized per stage, is the design compute- or memory-bound
//! (roofline/arithmetic-intensity classification), and — on the host side —
//! where does the wall clock go and how far can `DOTA_THREADS` push it
//! (Amdahl attribution over the parallelizable span fraction).
//!
//! # Determinism contract
//!
//! Everything derived from hardware counters and the [`AccelConfig`] is
//! byte-identical run-to-run and across `DOTA_THREADS` (the counters
//! themselves are, see `tests/observability.rs`). All volatile host-time
//! data is isolated under the single top-level `"host"` key, which
//! [`crate::report::DiffOptions`] already ignores at every depth — so two
//! analyze reports from different machines or thread counts diff clean via
//! `dota report diff` unless a *simulated* quantity moved.

use dota_accel::{energy, AccelConfig};
use dota_metrics::JsonWriter;
use dota_prof::{AllocStats, SpanStat};
use std::collections::BTreeMap;

/// Everything [`render`] needs, captured at the end of an instrumented run.
#[derive(Debug)]
pub struct AnalyzeInputs<'a> {
    /// Report label (typically the command or benchmark name).
    pub label: &'a str,
    /// Hardware-counter snapshot (`dota_trace::counters_snapshot`).
    pub counters: &'a BTreeMap<String, u64>,
    /// Host span statistics (`dota_prof::spans_snapshot`).
    pub spans: &'a [SpanStat],
    /// Host allocation counters (`dota_prof::alloc_stats`).
    pub alloc: AllocStats,
    /// The simulated hardware the counters were produced on.
    pub config: &'a AccelConfig,
    /// Host thread-pool width the run executed with.
    pub threads: usize,
    /// How many host hotspots to keep (top-N by self time).
    pub top_hotspots: usize,
}

/// One row of the host hotspot ranking.
#[derive(Debug, Clone)]
pub struct Hotspot {
    /// Collapsed span path (`a;b;c`).
    pub path: String,
    /// Completed activations.
    pub count: u64,
    /// Total milliseconds including children.
    pub total_ms: f64,
    /// Milliseconds excluding children.
    pub self_ms: f64,
    /// Bytes allocated while innermost (zero without `prof-alloc`).
    pub alloc_bytes: u64,
}

/// Host hotspots ranked by self time (descending), ties broken by path so
/// the ordering is total.
pub fn hotspots(spans: &[SpanStat], top: usize) -> Vec<Hotspot> {
    let mut rows: Vec<&SpanStat> = spans.iter().filter(|s| s.count > 0).collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    rows.truncate(top);
    rows.iter()
        .map(|s| Hotspot {
            path: s.path.clone(),
            count: s.count,
            total_ms: s.total_ns as f64 / 1e6,
            self_ms: s.self_ns as f64 / 1e6,
            alloc_bytes: s.alloc_bytes,
        })
        .collect()
}

/// Fraction of host self time spent in spans that the `parallel` feature
/// fans out (GEMM row blocks and per-head attention) — the `p` in Amdahl's
/// law. Zero when nothing was profiled.
pub fn parallel_fraction(spans: &[SpanStat]) -> f64 {
    let total: u64 = spans.iter().map(|s| s.self_ns).sum();
    if total == 0 {
        return 0.0;
    }
    let par: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("gemm.") || s.name == "attn.head")
        .map(|s| s.self_ns)
        .sum();
    par as f64 / total as f64
}

/// Amdahl speedup bound for `threads` threads at parallel fraction `p`.
pub(crate) fn amdahl_speedup(p: f64, threads: usize) -> f64 {
    1.0 / ((1.0 - p) + p / threads as f64)
}

/// Every hardware counter [`render`] reads: exact names, and prefixes
/// (ending in `.`) whose counters it reports one per suffix. Each one has a
/// writer in `simulate_trace`/`simulate_shape` or the model's forward
/// (`every_counter_read_has_a_writer`).
const COUNTERS_READ: &[&str] = &[
    "accel.cycles.linear",
    "accel.cycles.detection",
    "accel.cycles.attention",
    "accel.cycles.ffn",
    "rmmu.macs.",
    "rmmu.detect_macs.",
    "mfu.ops",
    "dram.bytes_read",
    "sram.bytes_accessed",
    "attn.heads",
    "attn.connections.total",
    "attn.connections.retained",
    "attn.connections.omitted",
    "accel.key_loads",
    "accel.key_loads_row_by_row",
];

fn get(counters: &BTreeMap<String, u64>, key: &str) -> u64 {
    debug_assert!(COUNTERS_READ.contains(&key), "{key} not in COUNTERS_READ");
    counters.get(key).copied().unwrap_or(0)
}

/// The counters whose name starts with `prefix`, keyed by the suffix
/// (per-precision breakdowns).
fn prefixed(counters: &BTreeMap<String, u64>, prefix: &str) -> Vec<(String, u64)> {
    debug_assert!(
        COUNTERS_READ.contains(&prefix),
        "{prefix} not in COUNTERS_READ"
    );
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, &v)| (k[prefix.len()..].to_owned(), v))
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One RMMU group's achieved against peak MACs per cycle.
fn utilization(w: &mut JsonWriter, key: &str, macs: u64, cycles: u64, peak: f64) {
    let achieved = ratio(macs, cycles);
    w.key(key)
        .obj()
        .field("achieved_macs_per_cycle", achieved)
        .field("peak_macs_per_cycle", peak)
        .field("utilization", achieved / peak.max(f64::MIN_POSITIVE))
        .end();
}

/// Renders the bottleneck report as canonical JSON (fixed key order,
/// `fmt_f64` floats). See the module docs for the determinism contract.
pub fn render(inputs: &AnalyzeInputs<'_>) -> String {
    let c = inputs.counters;
    let cfg = inputs.config;

    // --- Simulated cycles per stage. ---
    let linear = get(c, "accel.cycles.linear");
    let detection = get(c, "accel.cycles.detection");
    let attention = get(c, "accel.cycles.attention");
    let ffn = get(c, "accel.cycles.ffn");
    let total_cycles = linear + detection + attention + ffn;
    let stages = [
        ("attention", attention),
        ("detection", detection),
        ("ffn", ffn),
        ("linear", linear),
    ];

    // --- MACs by precision. With the default config the linear and
    // attention stages share the fx16 counter, so per-stage utilization is
    // only reported where the split is unambiguous (detection vs. the
    // RMMU compute stages as a whole). ---
    let rmmu_macs = prefixed(c, "rmmu.macs.");
    let detect_macs = prefixed(c, "rmmu.detect_macs.");
    let rmmu_total: u64 = rmmu_macs.iter().map(|(_, v)| v).sum();
    let detect_total: u64 = detect_macs.iter().map(|(_, v)| v).sum();
    let total_macs = rmmu_total + detect_total;
    let compute_cycles = linear + attention + ffn;

    // The simulator bills DRAM reads only (weights and activations in),
    // so they are all of its traffic.
    let dram_total = get(c, "dram.bytes_read");

    let peak_fx16 = cfg.fx16_macs_per_cycle();
    let peak_detect = cfg.detect_macs_per_cycle();
    let bytes_per_cycle = cfg.dram_gbps / energy::FREQ_GHZ;
    let intensity = if dram_total == 0 {
        0.0
    } else {
        total_macs as f64 / dram_total as f64
    };
    let machine_balance = peak_fx16 / bytes_per_cycle;
    let classification = if total_macs == 0 && dram_total == 0 {
        "idle"
    } else if intensity >= machine_balance {
        "compute-bound"
    } else {
        "memory-bound"
    };

    let key_loads = get(c, "accel.key_loads");
    let rbr_loads = get(c, "accel.key_loads_row_by_row");
    let connections = get(c, "attn.connections.total");
    let retained = get(c, "attn.connections.retained");

    // --- Host side (volatile; everything below lands under "host"). ---
    let span_total_ns: u64 = inputs
        .spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.total_ns)
        .sum();
    let hot = hotspots(inputs.spans, inputs.top_hotspots);
    let p = parallel_fraction(inputs.spans);

    let mut w = JsonWriter::pretty();
    w.obj()
        .field("label", inputs.label)
        .field("schema", "dota-analyze-v1");
    w.key("cycles").obj();
    for (name, v) in stages {
        w.field(name, v);
    }
    w.field("total", total_cycles).end();
    w.map(
        "stage_share",
        stages.map(|(name, v)| (name, ratio(v, total_cycles))),
    );

    w.key("compute")
        .obj()
        .map("rmmu_macs", rmmu_macs)
        .map("detect_macs", detect_macs)
        .field("total_macs", total_macs)
        .field("mfu_ops", get(c, "mfu.ops"));
    w.key("utilization").obj();
    utilization(
        &mut w,
        "compute_stages",
        rmmu_total,
        compute_cycles,
        peak_fx16,
    );
    utilization(&mut w, "detection", detect_total, detection, peak_detect);
    w.end().end();

    w.key("memory")
        .obj()
        .field("dram_bytes_read", dram_total)
        .field("sram_bytes_accessed", get(c, "sram.bytes_accessed"))
        .end();
    w.key("roofline")
        .obj()
        .field("total_macs", total_macs)
        .field("dram_bytes", dram_total)
        .field("arithmetic_intensity_macs_per_byte", intensity)
        .field("machine_balance_macs_per_byte", machine_balance)
        .field("peak_macs_per_cycle", peak_fx16)
        .field("dram_bytes_per_cycle", bytes_per_cycle)
        .field("classification", classification)
        .end();
    w.key("attention")
        .obj()
        .field("heads", get(c, "attn.heads"))
        .field("connections_total", connections)
        .field("connections_retained", retained)
        .field("connections_omitted", get(c, "attn.connections.omitted"))
        .field("retention", ratio(retained, connections))
        .end();
    w.key("scheduler")
        .obj()
        .field("key_loads", key_loads)
        .field("key_loads_row_by_row", rbr_loads)
        .field("load_savings", 1.0 - ratio(key_loads, rbr_loads))
        .end();

    // --- Volatile host-time section (ignored by `dota report diff`). ---
    w.key("host")
        .obj()
        .field("threads", inputs.threads)
        .field("total_ms", span_total_ns as f64 / 1e6);
    w.key("hotspots").arr();
    for h in &hot {
        w.obj()
            .field("path", &h.path)
            .field("count", h.count)
            .field("total_ms", h.total_ms)
            .field("self_ms", h.self_ms)
            .field("alloc_bytes", h.alloc_bytes)
            .end();
    }
    w.end().field("alloc", inputs.alloc);
    w.key("amdahl")
        .obj()
        .field("parallel_fraction", p)
        .field("measured_threads", inputs.threads);
    w.key("predicted_speedup").obj();
    for threads in [1, 2, 4, 8] {
        w.field(&threads.to_string(), amdahl_speedup(p, threads));
    }
    w.end().end().end().end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters() -> BTreeMap<String, u64> {
        let mut c = BTreeMap::new();
        c.insert("accel.cycles.linear".into(), 4_000);
        c.insert("accel.cycles.detection".into(), 500);
        c.insert("accel.cycles.attention".into(), 1_500);
        c.insert("accel.cycles.ffn".into(), 2_000);
        c.insert("rmmu.macs.fx16".into(), 3_000_000);
        c.insert("rmmu.detect_macs.int4".into(), 400_000);
        c.insert("mfu.ops".into(), 10_000);
        c.insert("dram.bytes_read".into(), 80_000);
        c.insert("sram.bytes_accessed".into(), 640_000);
        c.insert("attn.heads".into(), 8);
        c.insert("attn.connections.total".into(), 2_048);
        c.insert("attn.connections.retained".into(), 512);
        c.insert("attn.connections.omitted".into(), 1_536);
        c.insert("accel.key_loads".into(), 40);
        c.insert("accel.key_loads_row_by_row".into(), 128);
        c
    }

    fn sample_spans() -> Vec<SpanStat> {
        let mk = |path: &str, name: &str, depth, self_ns, total_ns| SpanStat {
            path: path.into(),
            name: name.into(),
            depth,
            count: 1,
            total_ns,
            self_ns,
            alloc_bytes: 0,
            alloc_calls: 0,
        };
        vec![
            mk("model.infer", "model.infer", 0, 2_000_000, 10_000_000),
            mk(
                "model.infer;gemm.matmul",
                "gemm.matmul",
                1,
                6_000_000,
                6_000_000,
            ),
            mk(
                "model.infer;attn.head",
                "attn.head",
                1,
                2_000_000,
                2_000_000,
            ),
        ]
    }

    fn render_sample(threads: usize) -> String {
        let counters = sample_counters();
        let spans = sample_spans();
        render(&AnalyzeInputs {
            label: "test",
            counters: &counters,
            spans: &spans,
            alloc: AllocStats::default(),
            config: &AccelConfig::default(),
            threads,
            top_hotspots: 10,
        })
    }

    fn as_int(v: &serde_json::Value) -> i64 {
        match v {
            serde_json::Value::Int(i) => *i,
            serde_json::Value::UInt(u) => *u as i64,
            other => panic!("expected integer, got {other:?}"),
        }
    }

    #[test]
    fn report_is_valid_json_with_expected_sections() {
        let json = render_sample(1);
        let v = serde_json::parse(&json).expect("valid JSON");
        for key in [
            "label",
            "schema",
            "cycles",
            "stage_share",
            "compute",
            "memory",
            "roofline",
            "attention",
            "scheduler",
            "host",
        ] {
            assert!(v.get(key).is_some(), "missing section {key}");
        }
        assert_eq!(
            as_int(v.get("cycles").unwrap().get("total").unwrap()),
            8_000
        );
        match v.get("roofline").unwrap().get("classification").unwrap() {
            serde_json::Value::Str(s) => assert_eq!(s, "compute-bound"),
            other => panic!("classification not a string: {other:?}"),
        }
    }

    #[test]
    fn non_host_sections_identical_across_thread_counts() {
        let a = render_sample(1);
        let b = render_sample(8);
        // Everything volatile is under the `"host"` key, which is the last
        // top-level section by construction — the documents must agree
        // byte-for-byte up to it.
        let cut = |s: &str| s[..s.find("\"host\"").expect("host section")].to_owned();
        assert_ne!(a, b, "host section differs (threads recorded)");
        assert_eq!(cut(&a), cut(&b), "non-host sections byte-identical");
    }

    #[test]
    fn amdahl_and_hotspots_behave() {
        let spans = sample_spans();
        let p = parallel_fraction(&spans);
        assert!((p - 0.8).abs() < 1e-9, "8/10 of self time parallel: {p}");
        assert!(amdahl_speedup(p, 1) == 1.0);
        assert!(amdahl_speedup(p, 8) > 2.0 && amdahl_speedup(p, 8) < 8.0);
        let hot = hotspots(&spans, 2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].path, "model.infer;gemm.matmul");
    }

    /// Every counter the report reads is written by the runs it reports
    /// on: a DotaHook inference replayed through `simulate_trace`, and
    /// `simulate_shape` at σ > 0 (replay bills no detection).
    #[test]
    fn every_counter_read_has_a_writer() {
        use dota_accel::{synth::SelectionProfile, Accelerator};
        use dota_detector::{DetectorConfig, DotaHook};
        use dota_transformer::{Model, TransformerConfig};

        let guard = dota_trace::session("analyze_reads");
        let mut params = dota_autograd::ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 11);
        let hook = DotaHook::init(DetectorConfig::new(0.25), model.config(), &mut params);
        let ids: Vec<usize> = (0..16).map(|i| i % 8).collect();
        let trace = model.infer(&params, &ids, &hook.inference(&params));
        let accel = Accelerator::new(AccelConfig::default());
        let _ = accel.simulate_trace(model.config(), &trace);
        let _ = accel.simulate_shape(model.config(), 16, 0.25, 0.25, &SelectionProfile::default());
        let written = guard.counters();
        let unwritten: Vec<&str> = COUNTERS_READ
            .iter()
            .copied()
            .filter(|&name| {
                if name.ends_with('.') {
                    !written.keys().any(|k| k.starts_with(name))
                } else {
                    !written.contains_key(name)
                }
            })
            .collect();
        assert!(
            unwritten.is_empty(),
            "read but never written: {unwritten:?}"
        );
    }

    #[test]
    fn missing_counters_render_as_idle() {
        let counters = BTreeMap::new();
        let json = render(&AnalyzeInputs {
            label: "empty",
            counters: &counters,
            spans: &[],
            alloc: AllocStats::default(),
            config: &AccelConfig::default(),
            threads: 1,
            top_hotspots: 5,
        });
        let v = serde_json::parse(&json).expect("valid JSON");
        match v.get("roofline").unwrap().get("classification").unwrap() {
            serde_json::Value::Str(s) => assert_eq!(s, "idle"),
            other => panic!("classification not a string: {other:?}"),
        }
        assert_eq!(as_int(v.get("cycles").unwrap().get("total").unwrap()), 0);
    }
}
