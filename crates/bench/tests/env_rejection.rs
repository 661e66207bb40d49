//! The figure binaries go through the same environment validation and
//! argument reader as the `dota` CLI: a malformed `DOTA_*` variable, one
//! nothing reads (`DOTA_PROF`, once a second spelling of `--profile`) or
//! an argument the binary does not read (`counters_baseline --chek`,
//! `--trace` beside the profile-only binding of `counters_baseline` and
//! `bench_report`, or `bench_report --quick`, whose allocation pins are
//! tests now) ends the run before any work,
//! instead of silently regenerating a committed result under the wrong
//! settings.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn figure_binary_rejects_malformed_env_before_any_work() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let written = |bin: &str| {
        let path = match bin {
            "bench_report" => root.join("BENCH_kernels.json"),
            _ => root.join(format!("results/{bin}.json")),
        };
        std::fs::metadata(path).and_then(|m| m.modified()).ok()
    };
    // `NAME=value` sets a variable, else the arguments; the error names it.
    for (bin, input) in [
        ("table2_area", "DOTA_THREADS=many"),
        ("table2_area", "DOTA_GEMM=fast"),
        ("table2_area", "DOTA_GEMM=fma"),
        ("table2_area", "DOTA_PROF=prof"),
        ("table2_area", "--trase x"),
        ("counters_baseline", "--chek"),
        ("counters_baseline", "--trace t.json --check"),
        ("bench_report", "--quick"),
        ("bench_report", "--trace t.json"),
    ] {
        let before = written(bin);
        let mut command = Command::new(match bin {
            "table2_area" => env!("CARGO_BIN_EXE_table2_area"),
            "bench_report" => env!("CARGO_BIN_EXE_bench_report"),
            _ => env!("CARGO_BIN_EXE_counters_baseline"),
        });
        match input.split_once('=') {
            Some((name, bad)) => command.env(name, bad),
            None => command.args(input.split(' ')),
        };
        let out = command.output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{input:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = input.split(['=', ' ']).next().unwrap();
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "stderr for {input:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{input:?}: work ran first");
        assert_eq!(written(bin), before, "{input:?}: its output touched");
    }
}
