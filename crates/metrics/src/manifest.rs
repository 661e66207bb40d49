//! Run manifests: provenance records written next to every result file.
//!
//! A manifest answers "which code, configuration and environment produced
//! this `results/*.json`?" — the prerequisite for treating result history
//! as a trajectory and for cross-run regression diffing (`dota report
//! diff`). Volatile fields (git sha, wall clock, host) are recorded for
//! provenance but ignored by the differ; `seed`, `features` and `config`
//! are compared.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Provenance of one run: who produced an output, from what source
/// revision, with what configuration, on what machine, in how long.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Name of the producing binary / command (e.g. `fig12_speedup`).
    pub label: String,
    /// `git rev-parse HEAD` of the working tree (`unknown` outside a
    /// repository). A `-dirty` suffix marks uncommitted changes.
    pub git_sha: String,
    /// `os/arch` of the producing host.
    pub host: String,
    /// Hostname (from `$HOSTNAME`, `unknown` when unset).
    pub hostname: String,
    /// Worker-thread budget (the `DOTA_THREADS` cap, else the host's
    /// available parallelism).
    pub threads: usize,
    /// Physical core count (distinct `(physical id, core id)` pairs from
    /// `/proc/cpuinfo`, falling back to available parallelism). The
    /// denominator that makes `pool_speedup` numbers interpretable: a
    /// 1.0x pool speedup is expected on one core, a failure on eight.
    pub physical_cores: usize,
    /// SIMD capabilities detected on the producing host (`avx2`, `fma`,
    /// `avx512f`, `neon`, or `none`), so kernel-family timings can be
    /// compared across machines.
    pub cpu_features: Vec<String>,
    /// Active cargo feature flags relevant to the run (e.g. `parallel`).
    pub features: Vec<String>,
    /// Top-level RNG seed, when the run has a single one.
    pub seed: Option<u64>,
    /// Free-form configuration: retention, sequence length, epochs, …
    /// String-valued so every knob serializes uniformly.
    pub config: BTreeMap<String, String>,
    /// Hardware-counter totals captured from an active `dota-trace`
    /// session, merged in by the caller (empty when tracing was off).
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock duration of the run in seconds.
    pub wall_clock_secs: f64,
}

impl Manifest {
    /// Collects the environment-derived fields: git sha, host triple,
    /// hostname, and the worker-thread budget.
    pub fn collect(label: &str) -> Self {
        Self {
            label: label.to_owned(),
            git_sha: git_sha(),
            host: format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH),
            hostname: std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".to_owned()),
            threads: thread_budget(),
            physical_cores: physical_cores(),
            cpu_features: cpu_features(),
            features: Vec::new(),
            seed: None,
            config: BTreeMap::new(),
            counters: BTreeMap::new(),
            wall_clock_secs: 0.0,
        }
    }

    /// Sets the top-level seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Appends an active feature flag.
    pub fn with_feature(mut self, feature: &str) -> Self {
        self.features.push(feature.to_owned());
        self
    }

    /// Records one configuration knob.
    pub fn with_config(mut self, key: &str, value: impl ToString) -> Self {
        self.config.insert(key.to_owned(), value.to_string());
        self
    }

    /// The manifest as pretty JSON (deterministic field order).
    pub fn to_json(&self) -> String {
        let mut w = crate::JsonWriter::pretty();
        w.obj()
            .field("label", &self.label)
            .field("git_sha", &self.git_sha)
            .field("host", &self.host)
            .field("hostname", &self.hostname)
            .field("threads", self.threads)
            .field("physical_cores", self.physical_cores)
            .list("cpu_features", &self.cpu_features)
            .list("features", &self.features)
            .field("seed", self.seed)
            .map("config", &self.config)
            .map("counters", &self.counters)
            .field("wall_clock_secs", self.wall_clock_secs)
            .end();
        w.finish()
    }

    /// Writes the manifest JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// The worker-thread budget: the `DOTA_THREADS` cap when set to a
/// positive integer, otherwise the host's available parallelism (1 when
/// undeterminable). The one parser of the variable: `dota-parallel`
/// resolves its pool width through it once per process.
pub fn thread_budget() -> usize {
    budget(std::env::var("DOTA_THREADS").ok().as_deref()).unwrap_or_else(available_parallelism)
}

/// The budget a `DOTA_THREADS` value asks for: `None` when it is unset or
/// not a positive integer.
fn budget(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n| n >= 1)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Physical core count: distinct `(physical id, core id)` pairs from
/// `/proc/cpuinfo` where available (Linux), otherwise the host's available
/// parallelism (which counts logical CPUs).
pub fn physical_cores() -> usize {
    if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
        let mut cores = std::collections::BTreeSet::new();
        let (mut phys, mut core) = (None, None);
        for line in info.lines() {
            let mut kv = line.splitn(2, ':');
            let key = kv.next().unwrap_or("").trim();
            let val = kv.next().unwrap_or("").trim().to_owned();
            match key {
                "physical id" => phys = Some(val),
                "core id" => core = Some(val),
                "" => {
                    if let (Some(p), Some(c)) = (phys.take(), core.take()) {
                        cores.insert((p, c));
                    }
                }
                _ => {}
            }
        }
        if let (Some(p), Some(c)) = (phys, core) {
            cores.insert((p, c));
        }
        if !cores.is_empty() {
            return cores.len();
        }
    }
    available_parallelism()
}

/// Detected SIMD capabilities (`avx2`/`fma`/`avx512f` on x86-64, `neon`
/// on aarch64, `none` otherwise). Runtime detection, matching what
/// `dota_tensor::simd::cpu_features` reports for kernel selection. With
/// `avx512f` the packed GEMM tiles run sixteen lanes wide; every other lane
/// kernel runs AVX2's eight.
fn cpu_features() -> Vec<String> {
    let mut f: Vec<String> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2".to_owned());
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma".to_owned());
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            f.push("avx512f".to_owned());
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        f.push("neon".to_owned());
    }
    if f.is_empty() {
        f.push("none".to_owned());
    }
    f
}

/// `git rev-parse HEAD` plus a `-dirty` marker, or `unknown`.
fn git_sha() -> String {
    let head = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned());
    let Some(mut sha) = head.filter(|s| !s.is_empty()) else {
        return "unknown".to_owned();
    };
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        sha.push_str("-dirty");
    }
    sha
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_json_shape() {
        let mut m = Manifest::collect("unit_test")
            .with_seed(7)
            .with_feature("parallel")
            .with_config("retention", 0.25)
            .with_config("seq", 24usize);
        m.counters.insert("attn.heads".to_owned(), 4);
        m.wall_clock_secs = 1.5;
        let json = m.to_json();
        assert!(json.contains("\"label\": \"unit_test\""));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"features\": [\"parallel\"]"));
        assert!(json.contains("\"retention\": \"0.25\""));
        assert!(json.contains("\"seq\": \"24\""));
        assert!(json.contains("\"attn.heads\": 4"));
        assert!(json.contains("\"wall_clock_secs\": 1.5"));
        assert!(m.threads >= 1);
        assert!(m.host.contains('/'));
        assert!(m.physical_cores >= 1);
        assert!(!m.cpu_features.is_empty());
        assert!(json.contains("\"physical_cores\":"));
        assert!(json.contains("\"cpu_features\": ["));
    }

    #[test]
    fn thread_budget_falls_back_on_malformed_values() {
        assert_eq!(budget(Some(" 3 ")), Some(3));
        for v in ["0", "all", "-2", "1.5", ""] {
            assert_eq!(budget(Some(v)), None, "{v:?}");
        }
        assert_eq!(budget(None), None);
    }

    #[test]
    fn empty_collections_serialize_compact() {
        let m = Manifest::collect("x");
        let json = m.to_json();
        assert!(json.contains("\"features\": []"));
        assert!(json.contains("\"config\": {}"));
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"seed\": null"));
    }
}
