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
use dota_metrics::{fmt_f64, write_json_string};
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

fn get(counters: &BTreeMap<String, u64>, key: &str) -> u64 {
    counters.get(key).copied().unwrap_or(0)
}

/// Sum of all counters whose name starts with `prefix`, with the matching
/// suffixes returned for per-precision breakdowns.
fn prefixed(counters: &BTreeMap<String, u64>, prefix: &str) -> Vec<(String, u64)> {
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

fn json_u64_map(out: &mut String, indent: &str, entries: &[(String, u64)]) {
    out.push('{');
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(indent);
        write_json_string(out, k);
        out.push_str(&format!(": {v}"));
    }
    if !entries.is_empty() {
        out.push('\n');
        out.push_str("  ");
        out.push_str(indent);
    }
    out.push('}');
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

    let dram_read = get(c, "dram.bytes_read");
    let dram_written = get(c, "dram.bytes_written");
    let dram_total = dram_read + dram_written;

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

    let lanes = prefixed(c, "lane.");
    let makespan = get(c, "lane.makespan_cycles");

    // --- Host side (volatile; everything below lands under "host"). ---
    let span_total_ns: u64 = inputs
        .spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.total_ns)
        .sum();
    let hot = hotspots(inputs.spans, inputs.top_hotspots);
    let p = parallel_fraction(inputs.spans);

    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"label\": ");
    write_json_string(&mut out, inputs.label);
    out.push_str(",\n  \"schema\": \"dota-analyze-v1\",\n");

    out.push_str("  \"cycles\": {");
    for (i, (name, v)) in stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {v}"));
    }
    out.push_str(&format!(",\n    \"total\": {total_cycles}\n  }},\n"));

    out.push_str("  \"stage_share\": {");
    for (i, (name, v)) in stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{name}\": {}",
            fmt_f64(ratio(*v, total_cycles))
        ));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"compute\": {\n    \"rmmu_macs\": ");
    json_u64_map(&mut out, "  ", &rmmu_macs);
    out.push_str(",\n    \"detect_macs\": ");
    json_u64_map(&mut out, "  ", &detect_macs);
    out.push_str(&format!(
        ",\n    \"total_macs\": {total_macs},\n    \"mfu_ops\": {},\n",
        get(c, "mfu.ops")
    ));
    out.push_str(&format!(
        "    \"utilization\": {{\n      \"compute_stages\": {{\"achieved_macs_per_cycle\": {}, \"peak_macs_per_cycle\": {}, \"utilization\": {}}},\n",
        fmt_f64(ratio(rmmu_total, compute_cycles)),
        fmt_f64(peak_fx16),
        fmt_f64(ratio(rmmu_total, compute_cycles) / peak_fx16.max(f64::MIN_POSITIVE)),
    ));
    out.push_str(&format!(
        "      \"detection\": {{\"achieved_macs_per_cycle\": {}, \"peak_macs_per_cycle\": {}, \"utilization\": {}}}\n    }}\n  }},\n",
        fmt_f64(ratio(detect_total, detection)),
        fmt_f64(peak_detect),
        fmt_f64(ratio(detect_total, detection) / peak_detect.max(f64::MIN_POSITIVE)),
    ));

    out.push_str(&format!(
        "  \"memory\": {{\n    \"dram_bytes_read\": {dram_read},\n    \"dram_bytes_written\": {dram_written},\n    \"sram_bytes_accessed\": {},\n    \"sram_bank_conflict_stalls\": {}\n  }},\n",
        get(c, "sram.bytes_accessed"),
        get(c, "sram.bank_conflict_stalls"),
    ));

    out.push_str(&format!(
        "  \"roofline\": {{\n    \"total_macs\": {total_macs},\n    \"dram_bytes\": {dram_total},\n    \"arithmetic_intensity_macs_per_byte\": {},\n    \"machine_balance_macs_per_byte\": {},\n    \"peak_macs_per_cycle\": {},\n    \"dram_bytes_per_cycle\": {},\n    \"classification\": \"{classification}\"\n  }},\n",
        fmt_f64(intensity),
        fmt_f64(machine_balance),
        fmt_f64(peak_fx16),
        fmt_f64(bytes_per_cycle),
    ));

    out.push_str(&format!(
        "  \"attention\": {{\n    \"heads\": {},\n    \"connections_total\": {},\n    \"connections_retained\": {},\n    \"connections_omitted\": {},\n    \"retention\": {}\n  }},\n",
        get(c, "attn.heads"),
        get(c, "attn.connections.total"),
        get(c, "attn.connections.retained"),
        get(c, "attn.connections.omitted"),
        fmt_f64(ratio(
            get(c, "attn.connections.retained"),
            get(c, "attn.connections.total")
        )),
    ));

    out.push_str(&format!(
        "  \"scheduler\": {{\n    \"key_loads\": {key_loads},\n    \"key_loads_row_by_row\": {rbr_loads},\n    \"load_savings\": {}\n  }},\n",
        fmt_f64(1.0 - ratio(key_loads, rbr_loads)),
    ));

    // Per-lane utilization (only present when the pipelined lane simulator
    // ran; `lane.<resource>.busy_cycles` vs. the shared makespan).
    out.push_str("  \"lanes\": {");
    let busy: Vec<(String, u64)> = lanes
        .iter()
        .filter(|(k, _)| k.ends_with(".busy_cycles"))
        .map(|(k, v)| (k.trim_end_matches(".busy_cycles").to_owned(), *v))
        .collect();
    for (i, (res, v)) in busy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_json_string(&mut out, res);
        out.push_str(&format!(
            ": {{\"busy_cycles\": {v}, \"utilization\": {}}}",
            fmt_f64(ratio(*v, makespan))
        ));
    }
    if makespan > 0 {
        if !busy.is_empty() {
            out.push(',');
        }
        out.push_str(&format!("\n    \"makespan_cycles\": {makespan}\n  "));
    } else if !busy.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    // --- Volatile host-time section (ignored by `dota report diff`). ---
    out.push_str(&format!(
        "  \"host\": {{\n    \"threads\": {},\n    \"total_ms\": {},\n",
        inputs.threads,
        fmt_f64(span_total_ns as f64 / 1e6),
    ));
    out.push_str("    \"hotspots\": [");
    for (i, h) in hot.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n      {\"path\": ");
        write_json_string(&mut out, &h.path);
        out.push_str(&format!(
            ", \"count\": {}, \"total_ms\": {}, \"self_ms\": {}, \"alloc_bytes\": {}}}",
            h.count,
            fmt_f64(h.total_ms),
            fmt_f64(h.self_ms),
            h.alloc_bytes,
        ));
    }
    if !hot.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "    \"alloc\": {{\"allocated_bytes\": {}, \"allocation_calls\": {}, \"freed_bytes\": {}, \"peak_bytes\": {}, \"live_bytes\": {}}},\n",
        inputs.alloc.allocated_bytes,
        inputs.alloc.allocation_calls,
        inputs.alloc.freed_bytes,
        inputs.alloc.peak_bytes,
        inputs.alloc.live_bytes,
    ));
    out.push_str(&format!(
        "    \"amdahl\": {{\n      \"parallel_fraction\": {},\n      \"measured_threads\": {},\n      \"predicted_speedup\": {{\"1\": {}, \"2\": {}, \"4\": {}, \"8\": {}}}\n    }}\n  }}\n}}\n",
        fmt_f64(p),
        inputs.threads,
        fmt_f64(amdahl_speedup(p, 1)),
        fmt_f64(amdahl_speedup(p, 2)),
        fmt_f64(amdahl_speedup(p, 4)),
        fmt_f64(amdahl_speedup(p, 8)),
    ));
    out
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
        c.insert("dram.bytes_written".into(), 20_000);
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
            "lanes",
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
