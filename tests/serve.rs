//! Load-test suite for `dota serve`: the deterministic continuous-batching
//! service's headline claims, proven end to end.
//!
//! 1. The bench report is **byte-identical** across `DOTA_THREADS`
//!    settings (and CI additionally `cmp`s serial vs `--features parallel`
//!    builds): the scheduler is serial, per-slot decodes are independent,
//!    and the clock is simulated, so thread count cannot leak into bytes.
//! 2. Under the same offered overload, **retention shedding beats
//!    queue-only** on tail latency: degrading admission retention trades
//!    a little per-request attention for a strictly lower p99 e2e.
//! 3. The canonical JSON **round-trips through `dota report diff`**: two
//!    same-seed runs diff clean, and a different-seed run is flagged.

use dota_parallel::with_threads;
use dota_serve::{run_bench, run_chaos, BenchOptions, ChaosOptions, ShedPolicy};
use std::path::PathBuf;
use std::process::Command;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dota_serve_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quick_opts() -> BenchOptions {
    BenchOptions {
        requests: 60,
        loads: vec![0.8, 4.0],
        ..Default::default()
    }
}

/// The library-level report is a pure function of its options: rendering
/// it twice at different pool widths yields the same bytes.
#[test]
fn bench_report_bytes_ignore_thread_count() {
    let serial = with_threads(1, || run_bench(quick_opts()).unwrap().to_json());
    let threaded = with_threads(8, || run_bench(quick_opts()).unwrap().to_json());
    assert_eq!(serial, threaded, "serve report depends on thread count");
}

/// The CLI writes the same bytes whatever `DOTA_THREADS` says.
#[test]
fn cli_serve_report_byte_identical_across_thread_counts() {
    let dir = scratch_dir("threads");
    let mut reports = Vec::new();
    for threads in ["1", "8"] {
        let path = dir.join(format!("report_t{threads}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args(["serve", "--bench", "--requests", "40", "--out"])
            .arg(&path)
            .env("DOTA_THREADS", threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        reports.push(std::fs::read(&path).unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        reports[0], reports[1],
        "CLI serve report depends on DOTA_THREADS"
    );
}

/// At 4x offered overload on identical arrivals, admitting at degraded
/// retention yields a strictly lower p99 end-to-end latency than queueing
/// at full quality, without serving fewer requests. This is the service's
/// reason to exist; if the gap closes, something real regressed.
#[test]
fn retention_shedding_beats_queue_only_p99_at_overload() {
    let opts = BenchOptions {
        requests: 120,
        loads: vec![4.0],
        ..Default::default()
    };
    let report = run_bench(opts).unwrap();
    let queue = report.cell(ShedPolicy::QueueOnly, 4.0).unwrap();
    let shed = report.cell(ShedPolicy::Retention, 4.0).unwrap();
    assert!(
        shed.degraded > 0,
        "4x overload should push admissions down the ladder"
    );
    let qp99 = queue.e2e_us.quantile(0.99).unwrap();
    let sp99 = shed.e2e_us.quantile(0.99).unwrap();
    assert!(
        sp99 < qp99,
        "retention p99 {sp99}us should be strictly below queue-only p99 {qp99}us"
    );
    assert!(
        shed.served() >= queue.served(),
        "shedding must not serve fewer requests ({} vs {})",
        shed.served(),
        queue.served()
    );
    // Every offered request reached a terminal state in both cells.
    for cell in [queue, shed] {
        assert_eq!(
            cell.completed + cell.eos + cell.deadline_evicted + cell.queue_expired + cell.rejected,
            cell.offered
        );
    }
}

/// Two same-seed CLI runs produce byte-identical reports that `dota
/// report diff` accepts; a different seed is flagged with a nonzero exit.
#[test]
fn cli_serve_report_roundtrips_through_report_diff() {
    let dir = scratch_dir("diff");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    let c = dir.join("c.json");
    for (path, seed) in [(&a, "7"), (&b, "7"), (&c, "8")] {
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args([
                "serve",
                "--bench",
                "--requests",
                "30",
                "--seed",
                seed,
                "--out",
            ])
            .arg(path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "same-seed serve reports differ"
    );
    let same = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["report", "diff"])
        .args([a.display().to_string(), b.display().to_string()])
        .output()
        .unwrap();
    assert!(
        same.status.success(),
        "report diff rejected identical serve reports: {}",
        String::from_utf8_lossy(&same.stderr)
    );
    let changed = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["report", "diff"])
        .args([a.display().to_string(), c.display().to_string()])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        !changed.status.success(),
        "report diff missed a seed change in the serve report"
    );
}

/// The request timeline is byte-identical across thread counts, just like
/// the bench report: the recorder only observes the (serial) scheduler
/// loop, so parallel per-slot decode cannot leak into its bytes.
#[test]
fn timeline_bytes_ignore_thread_count() {
    let opts = || BenchOptions {
        timeline: true,
        ..quick_opts()
    };
    let timeline = || run_bench(opts()).unwrap().timeline.unwrap().to_json();
    let (serial, threaded) = (with_threads(1, timeline), with_threads(8, timeline));
    assert_eq!(serial, threaded, "serve timeline depends on thread count");
}

/// Recording the timeline must not change the bench report by a single
/// byte: the recorder and SLO monitor observe the schedule, never steer
/// it. This pins the acceptance bar that enabling observability leaves
/// `results/serve_baseline.json` untouched.
#[test]
fn timeline_recording_leaves_bench_report_bytes_unchanged() {
    let without = run_bench(quick_opts()).unwrap().to_json();
    let with = run_bench(BenchOptions {
        timeline: true,
        ..quick_opts()
    })
    .unwrap()
    .to_json();
    assert_eq!(without, with, "recording the timeline perturbed the report");
}

/// Every observer is a fold behind the engine's event spine: attaching all
/// of them — timeline, flight ring, live gauges, trace and histogram
/// sessions — cannot move a single scheduling decision, so the report
/// keeps its exact bytes. Checked fault-free and with every serve-layer
/// fault site armed, so the retry, quarantine and failure paths are
/// watched too. This is the invariant that lets `--metrics-addr` run
/// against production baselines.
#[test]
fn telemetry_attachment_leaves_bench_report_bytes_unchanged() {
    for faults in [
        None,
        Some("slot.fail=0.1,kv.corrupt=0.05,decode.timeout=0.1"),
    ] {
        let _faults = faults
            .map(|spec| dota_faults::session(dota_faults::FaultPlan::parse_spec(7, spec).unwrap()));
        let opts = || BenchOptions {
            sheds: vec![ShedPolicy::Slo, ShedPolicy::Retention],
            ..quick_opts()
        };
        let without = run_bench(opts()).unwrap().to_json();
        let flight = dota_telemetry::FlightRecorder::shared(4096);
        let gauges = std::sync::Arc::new(dota_telemetry::ServeGauges::new());
        let trace = dota_trace::session("observed");
        let hists = dota_metrics::hist_session("observed");
        let with = run_bench(BenchOptions {
            timeline: true,
            flight: Some(std::sync::Arc::clone(&flight)),
            gauges: Some(std::sync::Arc::clone(&gauges)),
            ..opts()
        })
        .unwrap();
        assert_eq!(
            without,
            with.to_json(),
            "attaching observers perturbed the report (faults: {faults:?})"
        );
        // And the observers did observe: every view saw its share of the
        // stream, and the last published sample names the final cell.
        let rec = flight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(rec.recorded() > 0, "flight recorder saw no events");
        assert_eq!(
            rec.cells().last().map(String::as_str),
            Some("serve[retention@4x]")
        );
        assert_eq!(gauges.snapshot().cell, "serve[retention@4x]");
        assert_eq!(with.timeline.unwrap().cells.len(), with.cells.len());
        assert!(trace.counter("serve.steps") > 0);
        assert!(hists.histogram("serve.slo.burn").is_some());
        assert!(trace.counter("serve.slo.windows") > 0);
        assert_eq!(trace.counter("serve.retries") > 0, faults.is_some());
    }
}

/// The CLI timeline round-trips: `serve --timeline` writes the same bytes
/// whatever DOTA_THREADS says, `report diff` accepts the pair, and
/// `analyze --serve` audits it clean (decomposition and ladder consistent)
/// with a deterministic audit JSON.
#[test]
fn cli_timeline_byte_identical_and_audits_clean() {
    let dir = scratch_dir("timeline");
    let mut timelines = Vec::new();
    for threads in ["1", "8"] {
        let path = dir.join(format!("timeline_t{threads}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args(["serve", "--bench", "--requests", "40", "--timeline"])
            .arg(&path)
            .env("DOTA_THREADS", threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        timelines.push(std::fs::read(&path).unwrap());
    }
    assert_eq!(
        timelines[0], timelines[1],
        "CLI serve timeline depends on DOTA_THREADS"
    );
    let tl = dir.join("timeline_t1.json");
    let diff = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["report", "diff"])
        .arg(&tl)
        .arg(dir.join("timeline_t8.json"))
        .output()
        .unwrap();
    assert!(
        diff.status.success(),
        "report diff rejected identical timelines: {}",
        String::from_utf8_lossy(&diff.stderr)
    );
    let mut audits = Vec::new();
    for name in ["audit_a.json", "audit_b.json"] {
        let audit_path = dir.join(name);
        let audit = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args(["analyze", "--serve"])
            .arg(&tl)
            .arg("--out")
            .arg(&audit_path)
            .output()
            .unwrap();
        assert!(
            audit.status.success(),
            "audit rejected a freshly recorded timeline: {}",
            String::from_utf8_lossy(&audit.stderr)
        );
        let stdout = String::from_utf8_lossy(&audit.stdout).to_string();
        assert!(stdout.contains("decomposition ok"), "stdout: {stdout}");
        assert!(stdout.contains("ladder ok"), "stdout: {stdout}");
        audits.push(std::fs::read(&audit_path).unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(audits[0], audits[1], "audit JSON is not deterministic");
}

/// A corrupted timeline fails the audit loudly: flipping one attended
/// count flips `ladder_consistent` and the exit code.
#[test]
fn cli_audit_flags_a_tampered_timeline() {
    let dir = scratch_dir("tamper");
    let tl = dir.join("timeline.json");
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["serve", "--bench", "--requests", "20", "--loads", "4.0"])
        .args(["--timeline"])
        .arg(&tl)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let raw = std::fs::read_to_string(&tl).unwrap();
    // Bump one step's attended column (index 4 of 7) in place, keeping
    // the JSON valid.
    let start = raw.find("\"steps\":[[").expect("timeline has steps") + "\"steps\":[[".len();
    let end = start + raw[start..].find(']').unwrap();
    let mut cols: Vec<u64> = raw[start..end]
        .split(',')
        .map(|c| c.parse().unwrap())
        .collect();
    assert_eq!(cols.len(), 7, "step rows are 7 columns");
    cols[4] += 1;
    let tampered = format!(
        "{}{}{}",
        &raw[..start],
        cols.iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
        &raw[end..]
    );
    std::fs::write(&tl, tampered).unwrap();
    let audit = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["analyze", "--serve"])
        .arg(&tl)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        !audit.status.success(),
        "audit accepted a tampered timeline"
    );
    assert!(
        String::from_utf8_lossy(&audit.stderr).contains("inconsistent"),
        "stderr: {}",
        String::from_utf8_lossy(&audit.stderr)
    );
}

/// The sweep's underload cell serves everything: deadlines and shedding
/// only bite when demand outruns capacity.
#[test]
fn underload_cell_serves_every_request() {
    let report = run_bench(quick_opts()).unwrap();
    for &shed in &[ShedPolicy::QueueOnly, ShedPolicy::Retention] {
        let cell = report.cell(shed, 0.8).unwrap();
        assert_eq!(
            cell.served(),
            cell.offered,
            "{} dropped requests at 0.8x load",
            shed.name()
        );
        assert_eq!(cell.rejected, 0);
    }
}

/// The closed-loop controller earns its keep: at 4x overload on identical
/// arrivals, `--shed slo` is no worse than the static retention ladder on
/// both p99 e2e latency and the rolling deadline hit rate, and it actually
/// engages (degraded admissions, controller activity in the report).
#[test]
fn slo_control_no_worse_than_static_retention_at_overload() {
    let opts = BenchOptions {
        requests: 120,
        loads: vec![4.0],
        sheds: vec![ShedPolicy::Retention, ShedPolicy::Slo],
        ..Default::default()
    };
    let report = run_bench(opts).unwrap();
    let fixed = report.cell(ShedPolicy::Retention, 4.0).unwrap();
    let slo = report.cell(ShedPolicy::Slo, 4.0).unwrap();
    assert!(slo.degraded > 0, "controller never degraded at 4x overload");
    let ctl = slo
        .control
        .as_ref()
        .expect("slo cell carries a control summary");
    assert!(ctl.changes > 0, "controller never moved off the top rung");
    let fp99 = fixed.e2e_us.quantile(0.99).unwrap();
    let sp99 = slo.e2e_us.quantile(0.99).unwrap();
    assert!(
        sp99 <= fp99,
        "slo p99 {sp99}us must be no worse than static retention p99 {fp99}us"
    );
    let fixed_hit = fixed.slo_hit_rate().unwrap();
    let slo_hit = slo.slo_hit_rate().unwrap();
    assert!(
        slo_hit >= fixed_hit,
        "slo hit rate {slo_hit} must be no worse than static retention {fixed_hit}"
    );
}

/// The chaos report is byte-identical across pool widths: fault
/// decisions hash deterministic coordinates and the scheduler loop is
/// serial, so injection cannot make thread count visible.
#[test]
fn chaos_report_bytes_ignore_thread_count() {
    let opts = || ChaosOptions {
        bench: BenchOptions {
            requests: 30,
            loads: vec![1.0, 4.0],
            ..Default::default()
        },
        rates: vec![0.0, 0.1],
        ..Default::default()
    };
    let serial = with_threads(1, || run_chaos(opts()).unwrap().to_json());
    let threaded = with_threads(8, || run_chaos(opts()).unwrap().to_json());
    assert_eq!(serial, threaded, "chaos report depends on thread count");
}

/// The chaos CLI writes the same bytes whatever `DOTA_THREADS` says, the
/// pair diffs clean, and the faulted cells still serve: availability
/// degrades, it does not collapse.
#[test]
fn cli_chaos_report_byte_identical_and_serves_under_faults() {
    let dir = scratch_dir("chaos");
    let mut reports = Vec::new();
    for threads in ["1", "8"] {
        let path = dir.join(format!("chaos_t{threads}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args(["serve", "--chaos", "--requests", "30"])
            .args(["--loads", "1.0,4.0", "--chaos-rates", "0,0.1", "--out"])
            .arg(&path)
            .env("DOTA_THREADS", threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        reports.push(std::fs::read(&path).unwrap());
    }
    assert_eq!(
        reports[0], reports[1],
        "CLI chaos report depends on DOTA_THREADS"
    );
    let diff = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["report", "diff"])
        .arg(dir.join("chaos_t1.json"))
        .arg(dir.join("chaos_t8.json"))
        .output()
        .unwrap();
    assert!(
        diff.status.success(),
        "report diff rejected identical chaos reports: {}",
        String::from_utf8_lossy(&diff.stderr)
    );
    let raw = std::fs::read_to_string(dir.join("chaos_t1.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    // Every cell — including the faulted ones — served something.
    assert!(
        !raw.contains("\"served_fraction\":0,"),
        "a cell served nothing: {raw}"
    );
    assert!(
        raw.contains("\"rate\":0.1"),
        "faulted cells missing from the report"
    );
}

/// A timeline recorded under live fault injection still audits clean:
/// retries re-emit identical tokens (exactly-once terminals hold), the
/// decomposition identities survive faulted steps, and the audit surfaces
/// the retry/failure tallies instead of miscounting them as losses.
#[test]
fn cli_faulted_timeline_audits_clean() {
    let dir = scratch_dir("faulted_tl");
    let tl = dir.join("timeline.json");
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["serve", "--requests", "30", "--load", "4.0", "--timeline"])
        .arg(&tl)
        .args([
            "--faults",
            "slot.fail=0.05,kv.corrupt=0.05,decode.timeout=0.05",
        ])
        .args(["--fault-seed", "11"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let audit = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["analyze", "--serve"])
        .arg(&tl)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&audit.stdout).to_string();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        audit.status.success(),
        "audit rejected a faulted timeline: {stdout}\n{}",
        String::from_utf8_lossy(&audit.stderr)
    );
    assert!(stdout.contains("terminals ok"), "stdout: {stdout}");
    assert!(
        stdout.contains("retried"),
        "faulted run should surface retry tallies: {stdout}"
    );
}
