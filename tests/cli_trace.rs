//! End-to-end CLI observability test: `dota infer --trace --counters` on a
//! tiny preset must emit a valid Chrome-trace JSON document (parseable,
//! well-nested events, simulated clock only) and a counters file whose
//! per-head detection totals account for every attention connection.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::Int(i) => u64::try_from(*i).expect("negative count"),
        Value::UInt(u) => *u,
        Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
        other => panic!("expected unsigned integer, got {other:?}"),
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("expected number, got {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn as_array(v: &Value) -> &[Value] {
    match v {
        Value::Array(xs) => xs,
        other => panic!("expected array, got {other:?}"),
    }
}

#[test]
fn infer_writes_valid_trace_and_consistent_counters() {
    let seq = 16usize;
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("dota_cli_trace_{}.json", std::process::id()));
    let counters_path = dir.join(format!("dota_cli_counters_{}.json", std::process::id()));

    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args([
            "infer",
            "qa",
            "--seq",
            &seq.to_string(),
            "--trace",
            trace_path.to_str().unwrap(),
            "--counters",
            counters_path.to_str().unwrap(),
        ])
        .output()
        .expect("run dota infer");
    assert!(
        out.status.success(),
        "dota infer failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    check_trace(&trace_path);
    check_counters(&counters_path, seq);

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&counters_path);
}

/// The trace must parse as JSON and hold Chrome-trace shaped events, all on
/// the simulator process (pid 1, category `sim`: host time is
/// `--profile`'s), whose complete ("X") spans are well-nested per track:
/// any two spans on a track are either disjoint or one contains the other.
fn check_trace(path: &PathBuf) {
    let text = std::fs::read_to_string(path).expect("read trace file");
    let doc = serde_json::parse(&text).expect("trace is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").map(as_str),
        Some("ms"),
        "missing displayTimeUnit"
    );
    let events = as_array(doc.get("traceEvents").expect("traceEvents field"));
    assert!(!events.is_empty(), "trace contains no events");

    // Group complete events by track.
    let mut tracks: std::collections::BTreeMap<u64, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut complete = 0usize;
    for ev in events {
        let ph = as_str(ev.get("ph").expect("event phase"));
        let name = as_str(ev.get("name").expect("event name"));
        assert!(!name.is_empty());
        assert_eq!(
            ev.get("pid").map(as_u64),
            Some(1),
            "{name} is off the simulator"
        );
        match ph {
            "X" => {
                complete += 1;
                assert_eq!(ev.get("cat").map(as_str), Some("sim"), "{name}");
                let tid = as_u64(ev.get("tid").expect("tid"));
                let ts = as_f64(ev.get("ts").expect("ts"));
                let dur = as_f64(ev.get("dur").expect("dur"));
                assert!(ts >= 0.0 && dur >= 0.0, "negative ts/dur");
                tracks.entry(tid).or_default().push((ts, ts + dur));
            }
            // Metadata (thread names, and one process name: no host process).
            "M" if name == "process_name" => {
                let process = ev.get("args").and_then(|a| a.get("name")).map(as_str);
                assert_eq!(process, Some("dota-accelerator"));
            }
            "M" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(complete > 0, "no complete events in trace");

    for (tid, mut spans) in tracks {
        // Sort by start, longest first on ties, then sweep with a stack:
        // each span must fit inside the innermost open span that overlaps
        // it (or overlap nothing).
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for (start, end) in spans {
            while let Some(&(_, open_end)) = stack.last() {
                if open_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                assert!(
                    end <= open_end,
                    "event [{start}, {end}) on track {tid} straddles \
                     enclosing span [{open_start}, {open_end})"
                );
            }
            stack.push((start, end));
        }
    }
}

/// The counters file must parse and its per-head detection counters must
/// partition the full attention matrix: omitted + retained = seq² for
/// every (layer, head).
fn check_counters(path: &PathBuf, seq: usize) {
    let text = std::fs::read_to_string(path).expect("read counters file");
    let doc = serde_json::parse(&text).expect("counters are valid JSON");
    assert_eq!(doc.get("label").map(as_str), Some("infer"));
    let counters = doc.get("counters").expect("counters field");
    let entries = counters.as_object().expect("counters is an object");
    assert!(!entries.is_empty());

    let value = |k: &str| counters.get(k).map(as_u64);
    let heads = value("attn.heads").expect("attn.heads counter");
    assert!(heads > 0);

    let mut per_head_seen = 0u64;
    for (key, v) in entries {
        if let Some(rest) = key.strip_prefix("attn.") {
            // Per-head keys look like `attn.L<layer>.H<head>.retained`.
            if rest.starts_with('L') && rest.ends_with(".retained") {
                let omitted_key = format!("{}omitted", key.strip_suffix("retained").unwrap());
                let omitted =
                    value(&omitted_key).unwrap_or_else(|| panic!("missing counter {omitted_key}"));
                assert_eq!(
                    as_u64(v) + omitted,
                    (seq * seq) as u64,
                    "{key} + {omitted_key} must cover all {seq}x{seq} connections"
                );
                per_head_seen += 1;
            }
        }
    }
    assert_eq!(per_head_seen, heads, "one retained/omitted pair per head");

    // Whole-model totals agree with the per-head partition.
    let total = value("attn.connections.total").unwrap();
    let retained = value("attn.connections.retained").unwrap();
    let omitted = value("attn.connections.omitted").unwrap();
    assert_eq!(total, heads * (seq * seq) as u64);
    assert_eq!(retained + omitted, total);
}
