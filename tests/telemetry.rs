//! Live-telemetry integration tests: the `/metrics` endpoint and the
//! flight recorder, driven end to end through the CLI.
//!
//! The contracts under test:
//!
//! 1. **Flight dumps are byte-deterministic**: the same bench command
//!    writes the same `flight.json` whatever `DOTA_THREADS` says (CI
//!    additionally `cmp`s serial vs `--features parallel` builds) —
//!    events are stamped with simulated cycles and a monotone sequence,
//!    never wall time.
//! 2. **The endpoint speaks strict Prometheus text exposition**: every
//!    scrape of a live run passes the format validator and carries the
//!    serve gauges an operator reads.
//! 3. **SIGTERM is a clean exit**: the server drains, the process exits
//!    zero, and a postmortem `flight.json` lands on disk.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dota_telemetry_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The same serve command dumps byte-identical flight recordings across
/// thread counts: the ring is fed from the serial scheduler loop, so
/// `DOTA_THREADS` (which only fans out per-slot decode math) cannot
/// reorder or drop events.
#[test]
fn cli_flight_dump_byte_identical_across_thread_counts() {
    let dir = scratch_dir("flight");
    let mut dumps = Vec::new();
    for threads in ["1", "8"] {
        let path = dir.join(format!("flight_t{threads}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args([
                "serve",
                "--bench",
                "--requests",
                "40",
                "--loads",
                "6.0",
                "--shed",
                "slo",
                "--flight-out",
            ])
            .arg(&path)
            .env("DOTA_THREADS", threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        dumps.push(std::fs::read(&path).unwrap());
    }
    assert_eq!(
        dumps[0], dumps[1],
        "flight dump bytes changed with DOTA_THREADS"
    );
    // The dump is canonical JSON carrying the event stream.
    let text = String::from_utf8(dumps[0].clone()).unwrap();
    assert!(text.starts_with("{\n  \"version\": 1,"), "{text}");
    assert!(text.contains("\"kind\":\"admit\""), "{text}");
    assert!(text.contains("\"kind\":\"terminal\""), "{text}");
    assert!(text.ends_with("}\n"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A spawned process that is killed and reaped when dropped, however the
/// test ends: `dota serve --metrics-addr` stays up until SIGTERM by
/// design, so a panic before the test's own `kill -TERM` would otherwise
/// leave it running after the test binary exits.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        // Both are no-ops on a child the test already waited on.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A live `dota serve --metrics-addr` run: the bound address is announced
/// on stderr (port 0 picks a free one), every scrape passes the strict
/// exposition validator and carries the serve gauges, and SIGTERM shuts
/// the whole thing down cleanly with a postmortem flight dump.
#[test]
fn cli_metrics_endpoint_serves_valid_exposition_until_sigterm() {
    let dir = scratch_dir("endpoint");
    let child = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args([
            "serve",
            "--bench",
            "--requests",
            "60",
            "--loads",
            "4.0",
            "--shed",
            "slo",
            "--metrics-addr",
            "127.0.0.1:0",
        ])
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut server = Reaped(child);
    let mut reader = BufReader::new(server.0.stderr.take().unwrap());
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        if let Some(rest) = line.trim().strip_prefix("[metrics listening on http://") {
            addr = Some(rest.trim_end_matches("/metrics]").to_owned());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("serve never announced its metrics address");
    // Keep the pipe drained so the child can never block on stderr.
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        rest
    });

    // Two scrapes (the run is live or freshly complete for both): each
    // must pass the strict format validator and carry the serve gauges
    // that are rendered whatever the run's policy.
    for _ in 0..2 {
        let body = dota_telemetry::http::get(addr.as_str(), "/metrics").unwrap();
        dota_telemetry::exposition::validate(&body)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
        let samples = dota_telemetry::exposition::parse(&body).unwrap();
        for gauge in [
            "dota_serve_cell_info",
            "dota_serve_queue_depth",
            "dota_serve_occupancy",
            "dota_serve_admitted",
            "dota_serve_decoded_tokens",
            "dota_serve_quarantined_lanes",
        ] {
            assert!(samples.iter().any(|s| s.name == gauge), "{gauge}: {body}");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // SIGTERM: graceful exit plus a postmortem flight dump in the CWD.
    let status = Command::new("kill")
        .args(["-TERM", &server.0.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -TERM failed");
    let exit = server.0.wait().unwrap();
    let stderr_rest = drain.join().unwrap();
    assert!(
        exit.success(),
        "serve exited nonzero; stderr: {stderr_rest}"
    );
    let flight = dir.join("flight.json");
    assert!(
        flight.exists(),
        "no postmortem flight.json; stderr: {stderr_rest}"
    );
    let text = std::fs::read_to_string(&flight).unwrap();
    assert!(text.contains("\"version\": 1"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Requesting an unbindable metrics address is a typed CLI error, not a
/// panic or a silent fallback.
#[test]
fn cli_rejects_unbindable_metrics_addr() {
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args([
            "serve",
            "--requests",
            "4",
            "--metrics-addr",
            "203.0.113.1:1", // TEST-NET address: bind must fail
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("binding metrics endpoint"),
        "stderr was: {stderr}"
    );
}

/// `serve --chaos` has no telemetry plane; combining them is a typed
/// error rather than a silently ignored flag.
#[test]
fn cli_rejects_telemetry_flags_under_chaos() {
    for flag in [
        ["--metrics-addr", "127.0.0.1:0"],
        ["--flight-out", "/tmp/unused_flight.json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args(["serve", "--chaos", "--requests", "4"])
            .args(flag)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag:?} was accepted under --chaos");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("no live telemetry plane"),
            "stderr for {flag:?}: {stderr}"
        );
    }
}
