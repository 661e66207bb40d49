//! Robustness integration tests: crash-resume training, campaign
//! determinism across thread counts, and CLI fault behavior (typed errors
//! with nonzero exit, never a panic).

use dota_core::campaign::{run_campaign, CampaignOptions};
use dota_core::checkpoint;
use dota_core::experiments::{build_model, TrainOptions};
use dota_core::watchdog::{train_dense_guarded, WatchdogOptions};
use dota_faults::FaultSite;
use std::path::PathBuf;
use std::process::Command;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dota_robust_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Interrupting a guarded run after any epoch and resuming from its
/// crash-safe checkpoint reproduces the uninterrupted run *exactly*
/// (tolerance 0): every epoch is an independent optimizer episode starting
/// from a bit-exact parameter state, so the resumed epochs replay the same
/// arithmetic. This is the documented contract of
/// `dota_core::watchdog` — any relaxation of it must loosen this test
/// deliberately.
#[test]
fn crash_resume_matches_uninterrupted_run_exactly() {
    let spec = dota_workloads::TaskSpec::tiny(dota_workloads::Benchmark::Text, 16, 11);
    let (train, _) = spec.generate_split(12, 2);
    let opts = TrainOptions {
        epochs: 4,
        ..Default::default()
    };

    // Uninterrupted reference run.
    let (model, mut full_params) = build_model(&spec, 11);
    let full = train_dense_guarded(
        &model,
        &mut full_params,
        &train,
        &opts,
        &WatchdogOptions::default(),
    )
    .unwrap();
    assert_eq!(full.losses.len(), 4);

    // Same run, "crashed" after epoch 2 — only the checkpoint survives.
    let dir = scratch_dir("resume");
    let ckpt = dir.join("guarded.json");
    let wd = WatchdogOptions {
        checkpoint_path: Some(ckpt.clone()),
        ..Default::default()
    };
    let (_, mut half_params) = build_model(&spec, 11);
    let first_half = train_dense_guarded(
        &model,
        &mut half_params,
        &train,
        &TrainOptions { epochs: 2, ..opts },
        &wd,
    )
    .unwrap();
    drop(half_params); // the crash: in-memory state is gone

    // Resume from the checkpoint and run the remaining epochs.
    let mut resumed_params = checkpoint::load_params(&ckpt).unwrap();
    let second_half = train_dense_guarded(
        &model,
        &mut resumed_params,
        &train,
        &TrainOptions { epochs: 2, ..opts },
        &wd,
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let stitched: Vec<f32> = first_half
        .losses
        .iter()
        .chain(second_half.losses.iter())
        .copied()
        .collect();
    assert_eq!(
        stitched.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        full.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "resumed losses diverged from the uninterrupted run"
    );
    for (a, b) in full_params.ids().zip(resumed_params.ids()) {
        assert_eq!(full_params.value(a), resumed_params.value(b));
    }
}

/// The campaign report is a pure function of the seed: fault decisions
/// hash `(seed, site, coordinates)` rather than consuming a shared RNG
/// stream, so the serialized report is byte-identical at any pool width
/// (and across serial/`parallel` builds, which CI pins by diffing
/// artifacts from both).
#[test]
fn campaign_report_is_byte_identical_across_thread_counts() {
    let opts = CampaignOptions {
        seed: 13,
        sites: FaultSite::ALL.to_vec(),
        rates: vec![0.0, 0.05, 1.0],
        seq_len: 16,
    };
    let serial = dota_parallel::with_threads(1, || run_campaign(&opts).to_json());
    let threaded = dota_parallel::with_threads(8, || run_campaign(&opts).to_json());
    assert_eq!(serial, threaded, "campaign report depends on thread count");
}

/// `dota infer --faults attn.input=1` must surface the injected NaN as a
/// one-line typed error with a nonzero exit — not a panic, not a zero
/// exit.
#[test]
fn cli_unabsorbable_fault_is_typed_error_with_nonzero_exit() {
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["infer", "text", "--faults", "attn.input=1"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "expected nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: inference failed"),
        "stderr was: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "fault surfaced as a panic: {stderr}"
    );
}

/// The same command with an absorbable fault (detector corruption) must
/// succeed, falling back to dense attention and reporting the counters.
#[test]
fn cli_absorbable_fault_degrades_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["infer", "text", "--faults", "detector.corrupt=1"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr was: {stderr}");
    assert!(
        stderr.contains("fell back to dense") && stderr.contains("faults.fallback_dense"),
        "stderr was: {stderr}"
    );
}

/// `dota faults --out` writes a report that `dota report diff` accepts and
/// finds identical to a rerun with the same seed.
#[test]
fn cli_campaign_report_roundtrips_through_report_diff() {
    let dir = scratch_dir("campaign");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    for path in [&a, &b] {
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args([
                "faults",
                "--seed",
                "3",
                "--sites",
                "sram.bitflip,detector.corrupt",
                "--rates",
                "0,1",
                "--out",
                &path.display().to_string(),
            ])
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
        "same-seed campaign reports differ"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["report", "diff"])
        .args([a.display().to_string(), b.display().to_string()])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "report diff rejected the campaign report: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Malformed environment is rejected up front with a clear message —
/// before any work runs: even `help` prints nothing.
#[test]
fn cli_rejects_malformed_dota_threads() {
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["help"])
        .env("DOTA_THREADS", "many")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "work ran before the rejection");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DOTA_THREADS"), "stderr was: {stderr}");
}

/// A set but non-Unicode variable is malformed, not unset: rejected up
/// front with the variable named, like `DOTA_THREADS=many`.
#[test]
#[cfg(unix)]
fn cli_rejects_non_unicode_dota_env() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;
    for name in ["DOTA_THREADS", "DOTA_GEMM"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args(["help"])
            .env(name, OsStr::from_bytes(b"\xff"))
            .output()
            .unwrap();
        assert!(!out.status.success(), "{name}=\\xff was accepted");
        assert!(out.stdout.is_empty(), "work ran before the rejection");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(name), "stderr for {name}: {stderr}");
    }
}

/// The figure subcommands are gone outright (the `dota-bench` binaries are
/// the one door to each table and figure): asking for one is an unknown
/// command, answered with the usage text.
#[test]
fn cli_has_no_figure_subcommands() {
    for removed in ["table2", "speedup", "energy", "simulate", "decode"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args([removed])
            .output()
            .unwrap();
        assert!(!out.status.success(), "`dota {removed}` still runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command `{removed}`"))
                && stderr.contains("usage: dota"),
            "stderr was: {stderr}"
        );
    }
}

/// The variables that once stood in for a flag are read by nothing: each,
/// set to a value its flag would take, fails `dota serve` before any work
/// (exit 1, an `error:` line naming it, an empty stdout, no file written)
/// instead of being silently dropped or half-applied.
#[test]
fn cli_rejects_retired_dota_env() {
    let dir = scratch_dir("retired_env");
    for (name, value) in [
        ("DOTA_TRACE", "t.json"),
        ("DOTA_COUNTERS", "c.json"),
        ("DOTA_HISTS", "h.json"),
        ("DOTA_PROF", "prof"),
        ("DOTA_SERVE_BATCH", "3"),
        ("DOTA_SERVE_DEADLINE", "75.5"),
        ("DOTA_SERVE_SHED", "queue"),
        ("DOTA_SERVE_CHAOS", "0,0.5"),
        ("DOTA_SERVE_RETRY_CAP", "5"),
        ("DOTA_SERVE_RETRY_BACKOFF", "4000"),
        ("DOTA_SERVE_TIMELINE", "tl.json"),
        ("DOTA_SERVE_METRICS_ADDR", "127.0.0.1:0"),
        ("DOTA_SERVE_FLIGHT", "flight.json"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args(["serve", "--requests", "4"])
            .current_dir(&dir)
            .env(name, value)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}={value}: {stderr}");
        let error = stderr.lines().find(|l| l.starts_with("error: "));
        assert!(error.is_some_and(|l| l.contains(name)), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: work ran first");
        let written = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(written, 0, "{name}: a file was written");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An empty `DOTA_PROF` is caught by the environment validation, not
/// silently ignored: nothing reads the variable, so any value fails.
#[test]
fn cli_rejects_empty_dota_prof() {
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["help"])
        .env("DOTA_PROF", "")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DOTA_PROF"), "stderr was: {stderr}");
}

/// Malformed serving variables are rejected up front for *every* command,
/// naming the variable: nothing reads them (the flags do the job), so a
/// typo'd batch size can never silently fall back to the default.
#[test]
fn cli_rejects_malformed_dota_serve_env() {
    for (name, bad) in [
        ("DOTA_SERVE_BATCH", "0"),
        ("DOTA_SERVE_BATCH", "many"),
        ("DOTA_SERVE_DEADLINE", "-50"),
        ("DOTA_SERVE_DEADLINE", "soon"),
        ("DOTA_SERVE_SHED", "drop"),
        ("DOTA_SERVE_SHED", ""),
        ("DOTA_SERVE_TIMELINE", ""),
        ("DOTA_SERVE_TIMELINE", "   "),
        ("DOTA_SERVE_CHAOS", "lots"),
        ("DOTA_SERVE_CHAOS", "0.5,1.5"),
        ("DOTA_SERVE_CHAOS", "-0.1"),
        ("DOTA_SERVE_RETRY_CAP", "many"),
        ("DOTA_SERVE_RETRY_CAP", "-1"),
        ("DOTA_SERVE_RETRY_BACKOFF", "0"),
        ("DOTA_SERVE_RETRY_BACKOFF", "fast"),
        ("DOTA_SERVE_METRICS_ADDR", ""),
        ("DOTA_SERVE_METRICS_ADDR", "localhost"),
        ("DOTA_SERVE_METRICS_ADDR", ":9184"),
        ("DOTA_SERVE_METRICS_ADDR", "127.0.0.1:port"),
        ("DOTA_SERVE_FLIGHT", ""),
        ("DOTA_SERVE_FLIGHT", "   "),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args(["help"])
            .env(name, bad)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{name}={bad} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(name), "stderr for {name}={bad}: {stderr}");
    }
}

/// Out-of-range and unknown flags fail before any work: exit 1 with an
/// `error:` line naming the value or the flag, an empty stdout, never a
/// panic or an allocation abort — a typo'd flag, or one the run leaves
/// unread (`--load` beside `--loads`), silently falling back to its
/// default would run something other than what was asked.
#[test]
fn cli_rejects_out_of_range_and_unknown_flags() {
    for (args, named) in [
        ("serve --requests 0", "requests 0"),
        ("serve --chaos --requests 0", "requests 0"),
        ("serve --requests 4 --loads 1e-20", "1e-20"),
        ("serve --chaos --requests 4 --loads 1e-300", "1e-300"),
        ("serve --requests 100000000000", "100000000000"),
        ("serve --slo-window 100000000000", "100000000000"),
        ("infer text --seq 1", "--seq 1"),
        ("train text --seq 1", "--seq 1"),
        ("faults --seq 0", "--seq 0"),
        ("infer text --seq 100000000000", "100000000000"),
        ("train text --seq 100000000000", "100000000000"),
        ("faults --seq 100000000000", "100000000000"),
        ("infer text --seq 4097", "--seq 4097 must be in 16..=4096"),
        ("top --addr 127.0.0.1:1 --ticks 0", "--ticks 0"),
        ("faults --rates 2,-1,NaN", "fault rate 2 outside"),
        ("faults --rates 0.5,-1", "fault rate -1 outside"),
        ("faults --rates NaN", "fault rate NaN outside"),
        ("train text --seq 16 --samples 100000000000", "100000000000"),
        ("infer text --retention 0", "--retention 0"),
        ("analyze qa --retention 2", "--retention 2"),
        ("serve --reqeusts 4", "`--reqeusts` for `dota serve`"),
        ("serve --chaos --tl t", "`--tl` for `dota serve --chaos`"),
        ("infer text --sq 32", "`--sq` for `dota infer`"),
        ("analyze qa --sq 32", "`--sq` for `dota analyze`"),
        ("faults --rate 0.5", "`--rate` for `dota faults`"),
        ("train text --lr-typo 3", "`--lr-typo` for `dota train`"),
        ("report diff a b --tl 1", "`--tl` for `dota report`"),
        ("top --adr 127.0.0.1:1", "`--adr` for `dota top`"),
        ("infer text extra", "`extra` for `dota infer`"),
        ("train text qa", "`qa` for `dota train`"),
        ("report diff a b c", "`c` for `dota report`"),
        ("serve --requests 2 --load 1 --loads 2", "`--load` for"),
        ("infer text --fault-seed 3", "`--fault-seed` for"),
        ("top --addr 127.0.0.1:1 --once --ticks 5", "`--ticks` for"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dota"))
            .args(args.split(' '))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        let error = stderr.lines().find(|l| l.starts_with("error: "));
        assert!(error.is_some_and(|l| l.contains(named)), "{args}: {stderr}");
        let aborted = stderr.contains("panicked") || stderr.contains("memory allocation");
        assert!(!aborted, "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}: work ran first");
    }
}

/// Serving flags are honored: the configuration line `dota serve` prints
/// reflects `--capacity` and `--shed`.
#[test]
fn cli_serve_flags_set_capacity_and_shed() {
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["serve", "--requests", "8", "--capacity", "5"])
        .args(["--shed", "retention"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("capacity 5"), "stdout was: {stdout}");
    assert!(stdout.contains("retention"), "stdout was: {stdout}");
}

/// `--shed slo` is a first-class policy everywhere a shed is named: the
/// CLI accepts it and the run reports `slo` cells.
#[test]
fn cli_accepts_slo_shed_policy() {
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["serve", "--requests", "8", "--shed", "slo"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("slo"), "stdout was: {stdout}");
}

/// Chaos flags are honored: the campaign's printed configuration reflects
/// `--chaos-rates`, `--retry-cap` and `--retry-backoff`.
#[test]
fn cli_chaos_flags_set_rates_and_retries() {
    let out = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["serve", "--chaos", "--requests", "6", "--loads", "1.0"])
        .args(["--chaos-rates", "0", "--retry-cap", "1"])
        .args(["--retry-backoff", "100"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1 rate(s)"), "stdout was: {stdout}");
    assert!(stdout.contains("retry cap 1"), "stdout was: {stdout}");
    assert!(
        stdout.contains("backoff 100 cycles"),
        "stdout was: {stdout}"
    );
}

/// `report diff --allow-added` tolerates keys that exist only in run B
/// (schema additions) but still fails on vanished ones: additions are a
/// distinct class, not silently-accepted regressions. `--ignore` skips
/// the keys it lists, spaces after the commas or not.
#[test]
fn cli_report_diff_allow_added_tolerates_additions_not_removals() {
    let dir = scratch_dir("allow_added");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, "{\"x\":1}\n").unwrap();
    std::fs::write(&new, "{\"x\":1,\"y\":2}\n").unwrap();

    let strict = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["report", "diff"])
        .args([old.display().to_string(), new.display().to_string()])
        .output()
        .unwrap();
    assert!(
        !strict.status.success(),
        "strict diff accepted an added key"
    );
    assert!(
        String::from_utf8_lossy(&strict.stdout).contains("ADDED"),
        "stdout: {}",
        String::from_utf8_lossy(&strict.stdout)
    );

    let tolerant = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["report", "diff", "--allow-added"])
        .args([old.display().to_string(), new.display().to_string()])
        .output()
        .unwrap();
    assert!(
        tolerant.status.success(),
        "--allow-added still failed: {}\n{}",
        String::from_utf8_lossy(&tolerant.stdout),
        String::from_utf8_lossy(&tolerant.stderr)
    );

    // Vanished keys stay fatal either way: run the pair in reverse.
    let vanished = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["report", "diff", "--allow-added"])
        .args([new.display().to_string(), old.display().to_string()])
        .output()
        .unwrap();
    assert!(
        !vanished.status.success(),
        "--allow-added tolerated a vanished key"
    );

    std::fs::write(&new, "{\"x\":2}\n").unwrap();
    let ignored = Command::new(env!("CARGO_BIN_EXE_dota"))
        .args(["report", "diff", "--ignore", "y, x"])
        .args([old.display().to_string(), new.display().to_string()])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(ignored.status.success(), "--ignore \"y, x\" kept x");
}
