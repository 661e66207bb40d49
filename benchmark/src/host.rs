//! Environment pinning and provenance.
//!
//! The numbers must measure the program, not its configuration: the
//! benchmark forces one worker thread, refuses every `DOTA_*` switch that
//! would change the code path or attach an observer behind its back, and
//! records what it ran on with every result.

use std::process::Command;

/// Forces `DOTA_THREADS=1` and refuses inherited `DOTA_*` switches.
///
/// Must run before any other thread exists (it edits the environment).
///
/// # Errors
///
/// Names the offending variable.
pub fn pin_environment() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy().into_owned();
        // DOTA_GEMM picks the kernel family; DOTA_TRACE/COUNTERS/HISTS/
        // PROF attach observers; DOTA_SERVE_* reconfigure the engine.
        if key.starts_with("DOTA_") && key != "DOTA_THREADS" {
            return Err(format!(
                "{key} is set: the benchmark measures the default configuration only; unset it"
            ));
        }
    }
    std::env::set_var("DOTA_THREADS", "1");
    if dota_faults::enabled() || dota_trace::enabled() || dota_metrics::hist_enabled() {
        return Err("a fault/trace/histogram session is already live in this process".into());
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What the run executed on, as `(key, value)` pairs in a fixed order.
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // Git sha (`-dirty` when the tree has uncommitted changes, `unknown`
    // outside a repository) and CPU features, as every results manifest
    // of the repository records them.
    let manifest = dota_metrics::Manifest::collect("dota-benchmark");
    vec![
        ("nproc", nproc.to_string()),
        ("dota_threads", "1".to_owned()),
        ("build", "serial (default features), release".to_owned()),
        ("cpu_features", manifest.cpu_features.join("+")),
        (
            "gemm_family",
            dota_tensor::simd::KernelFamily::active().name().to_owned(),
        ),
        ("rustc", command_line("rustc", &["-V"])),
        ("git_sha", manifest.git_sha),
    ]
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words: the digest of every simulated stamp
/// (completion ids, tokens, cycle counts, `PerfReport`s) of a round.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(u64::from(x.to_bits()));
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
