//! End-to-end CLI profiling tests: `--profile` must produce a
//! well-formed `.folded` flamegraph file covering the instrumented
//! layers (GEMM, attention, detector), a parseable `profile.json`, and
//! `dota analyze` reports must be diff-clean across thread counts —
//! while profiling must leave the measured outputs byte-identical.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

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

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dota_cli_prof_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_dota(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dota"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run dota");
    assert!(
        out.status.success(),
        "dota {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Every `.folded` line must be `frame(;frame)* <count>` with non-empty
/// frames and a positive sample count, and the lines must be sorted.
fn check_folded(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read .folded");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "empty .folded file");
    let mut stacks = Vec::new();
    for line in &lines {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed folded line {line:?}"));
        let count: u64 = count
            .parse()
            .unwrap_or_else(|e| panic!("bad sample count in {line:?}: {e}"));
        assert!(count > 0, "zero sample count in {line:?}");
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "empty frame in {line:?}");
        }
        stacks.push(stack.to_owned());
    }
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted, "folded lines are not sorted");
    stacks
}

#[test]
fn infer_profile_covers_instrumented_layers() {
    let dir = scratch("infer");
    run_dota(
        &[
            "infer",
            "qa",
            "--seq",
            "16",
            "--profile",
            dir.to_str().unwrap(),
        ],
        &[],
    );

    let stacks = check_folded(&dir.join("profile.folded"));
    // The flamegraph must span at least the instrumented layers: the
    // model's forward, tensor GEMM, per-head attention, and the detector.
    for frame in ["model.infer", "gemm.matmul", "attn.head", "detector.select"] {
        assert!(
            stacks.iter().any(|s| s.split(';').any(|f| f == frame)),
            "frame {frame} missing from folded stacks: {stacks:?}"
        );
    }

    let text = std::fs::read_to_string(dir.join("profile.json")).expect("read profile.json");
    let doc = serde_json::parse(&text).expect("profile.json is valid JSON");
    assert_eq!(doc.get("schema").map(as_str), Some("dota-prof-v1"));
    let spans = as_array(doc.get("spans").expect("spans field"));
    assert!(!spans.is_empty(), "profile.json has no spans");
    for span in spans {
        assert!(span.get("path").is_some() && span.get("self_ms").is_some());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_reports_are_diff_clean_across_thread_counts() {
    let dir = scratch("analyze");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    run_dota(
        &["analyze", "qa", "--seq", "16", "--out", a.to_str().unwrap()],
        &[],
    );
    run_dota(
        &["analyze", "qa", "--seq", "16", "--out", b.to_str().unwrap()],
        &[("DOTA_THREADS", "8")],
    );

    let doc = serde_json::parse(&std::fs::read_to_string(&a).unwrap()).expect("analyze JSON");
    assert_eq!(doc.get("schema").map(as_str), Some("dota-analyze-v1"));
    for section in ["cycles", "compute", "roofline", "host"] {
        assert!(doc.get(section).is_some(), "missing section {section}");
    }

    // The host section is volatile (wall clock, hotspots); everything
    // else must diff clean between the serial and 8-thread runs.
    let out = run_dota(
        &["report", "diff", a.to_str().unwrap(), b.to_str().unwrap()],
        &[],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no regressions"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profiling_leaves_counter_outputs_byte_identical() {
    let dir = scratch("identity");
    let (plain, profiled) = (dir.join("plain.json"), dir.join("profiled.json"));
    run_dota(
        &[
            "infer",
            "qa",
            "--seq",
            "16",
            "--counters",
            plain.to_str().unwrap(),
        ],
        &[],
    );
    run_dota(
        &[
            "infer",
            "qa",
            "--seq",
            "16",
            "--counters",
            profiled.to_str().unwrap(),
            "--profile",
            dir.join("prof").to_str().unwrap(),
        ],
        &[],
    );
    let a = std::fs::read(&plain).expect("read plain counters");
    let b = std::fs::read(&profiled).expect("read profiled counters");
    assert_eq!(a, b, "profiling changed the counters output");

    let _ = std::fs::remove_dir_all(&dir);
}
