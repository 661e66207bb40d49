//! The figure binaries go through the same environment validation as the
//! `dota` CLI: a malformed `DOTA_*` variable ends the run before any work,
//! instead of silently falling back and regenerating a committed result
//! under the wrong settings.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn figure_binary_rejects_malformed_env_before_any_work() {
    let result = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/table2_area.json");
    let written = |path: &PathBuf| std::fs::metadata(path).and_then(|m| m.modified()).ok();
    let before = written(&result);
    for (name, bad) in [
        ("DOTA_THREADS", "many"),
        ("DOTA_GEMM", "fast"),
        ("DOTA_PROF", ""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table2_area"))
            .env(name, bad)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}={bad:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: ") && stderr.contains(name),
            "stderr for {name}={bad:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name}={bad:?}: work ran first");
        assert_eq!(written(&result), before, "{name}={bad:?}: results/ touched");
    }
}
