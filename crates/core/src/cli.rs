//! What every binary's front door shares: the table of `DOTA_*`
//! environment variables with its up-front validation, and [`Sessions`],
//! the one binding from `--trace/--counters/--hists/--profile` (or their
//! variables) to live recording sessions and written files. The `dota`
//! CLI and every `dota-bench` figure binary go through both, so neither
//! can read a variable unvalidated.

use std::ffi::OsString;

/// How an environment variable's value must read.
#[derive(Clone, Copy)]
pub enum EnvKind {
    /// An integer `>= 1`.
    PositiveInt,
    /// An integer `>= 0`.
    NonNegativeInt,
    /// A finite number `> 0`.
    PositiveF64,
    /// Anything but blank.
    Path,
    /// `HOST:PORT`.
    SocketAddr,
    /// One of the listed spellings, case-insensitively.
    OneOf(&'static [&'static str]),
    /// Comma-separated numbers in `[0, 1]`, at least one.
    RateList,
    /// Whatever [`dota_tensor::simd::parse_family`] accepts: a kernel
    /// family this CPU can run.
    GemmFamily,
}

/// Every `DOTA_*` variable the binaries read themselves: `(variable, the
/// `--flag` it stands in for or else a few words on what it sets, what its
/// value must be, how usage and the complaint word that)`.
/// [`validate_env`] checks each row up front, [`env_for`] falls back from a
/// flag to its row, and [`env_usage`] documents every row, so a variable
/// can be neither read unvalidated nor left out of `dota help`.
pub const ENV: &[(&str, &str, EnvKind, &str)] = &[
    (
        "DOTA_THREADS",
        "thread-pool size",
        EnvKind::PositiveInt,
        "a positive integer",
    ),
    // A typo'd kernel family (or one this CPU cannot run) would silently
    // fall back and invalidate a benchmark, exactly like a bad
    // DOTA_THREADS.
    (
        "DOTA_GEMM",
        "GEMM kernel family",
        EnvKind::GemmFamily,
        "auto|scalar|simd|fma",
    ),
    ("DOTA_TRACE", "--trace", EnvKind::Path, "an output path"),
    (
        "DOTA_COUNTERS",
        "--counters",
        EnvKind::Path,
        "an output path",
    ),
    ("DOTA_HISTS", "--hists", EnvKind::Path, "an output path"),
    (
        "DOTA_PROF",
        "--profile",
        EnvKind::Path,
        "an output directory",
    ),
    // Serving knobs: a typo'd batch size or shed policy silently falling
    // back to defaults would make one load test incomparable with the
    // next, so they are rejected up front like the knobs above.
    (
        "DOTA_SERVE_BATCH",
        "--capacity",
        EnvKind::PositiveInt,
        "a positive integer",
    ),
    (
        "DOTA_SERVE_DEADLINE",
        "--deadline-interactive",
        EnvKind::PositiveF64,
        "a positive number of microseconds",
    ),
    (
        "DOTA_SERVE_SHED",
        "--shed",
        EnvKind::OneOf(&["queue", "queue-only", "retention", "shed", "slo", "both"]),
        "queue|retention|slo|both",
    ),
    (
        "DOTA_SERVE_CHAOS",
        "--chaos-rates",
        EnvKind::RateList,
        "a comma-separated list of fault rates in [0, 1]",
    ),
    (
        "DOTA_SERVE_RETRY_CAP",
        "--retry-cap",
        EnvKind::NonNegativeInt,
        "a non-negative integer",
    ),
    (
        "DOTA_SERVE_RETRY_BACKOFF",
        "--retry-backoff",
        EnvKind::PositiveInt,
        "a positive cycle count",
    ),
    (
        "DOTA_SERVE_TIMELINE",
        "--timeline",
        EnvKind::Path,
        "an output path",
    ),
    (
        "DOTA_SERVE_METRICS_ADDR",
        "--metrics-addr",
        EnvKind::SocketAddr,
        "a socket address like 127.0.0.1:9184",
    ),
    (
        "DOTA_SERVE_FLIGHT",
        "--flight-out",
        EnvKind::Path,
        "an output path",
    ),
];

impl EnvKind {
    /// `Ok` when `value` is a well-formed setting of `name`, else the
    /// one-line complaint.
    fn check(self, name: &str, value: &str, expected: &str) -> Result<(), String> {
        let v = value.trim();
        let ok = match self {
            EnvKind::PositiveInt => v.parse::<u64>().is_ok_and(|n| n >= 1),
            EnvKind::NonNegativeInt => v.parse::<u64>().is_ok(),
            // NaN must fail too, so test for the one acceptable state.
            EnvKind::PositiveF64 => v.parse::<f64>().is_ok_and(|x| x > 0.0 && x.is_finite()),
            EnvKind::Path => !v.is_empty(),
            EnvKind::SocketAddr => v.parse::<std::net::SocketAddr>().is_ok(),
            EnvKind::OneOf(names) => names.contains(&v.to_ascii_lowercase().as_str()),
            EnvKind::RateList => {
                let mut rates = v.split(',').map(str::trim).filter(|s| !s.is_empty());
                let in_range = |s: &str| s.parse::<f64>().is_ok_and(|r| (0.0..=1.0).contains(&r));
                // `all` on the rest; `next` first so an empty list fails.
                rates.next().is_some_and(in_range) && rates.all(in_range)
            }
            // The family parser words its own complaint (it knows which
            // lanes this CPU reports).
            EnvKind::GemmFamily => return dota_tensor::simd::parse_family(value).map(|_| ()),
        };
        if ok {
            return Ok(());
        }
        Err(match self {
            EnvKind::Path => {
                format!("{name} is set but empty; set it to an output path or unset it")
            }
            _ => format!("{name} must be {expected}, got `{value}`"),
        })
    }
}

/// Rejects malformed `DOTA_*` environment variables up front: a typo'd
/// `DOTA_THREADS=all` silently falling back to the default would
/// invalidate a benchmark without any sign of it. Each variable is read
/// through `var` (`std::env::var_os` in the binaries).
///
/// # Errors
///
/// One line naming the first malformed variable in [`ENV`] order; a value
/// that is not Unicode is malformed whatever the row.
pub fn validate_env(var: impl Fn(&str) -> Option<OsString>) -> Result<(), String> {
    for &(name, _, kind, expected) in ENV {
        match var(name).map(OsString::into_string) {
            Some(Ok(v)) => kind.check(name, &v, expected)?,
            Some(Err(raw)) => {
                return Err(format!(
                    "{name} must be {expected}, got non-Unicode {raw:?}"
                ));
            }
            None => {}
        }
    }
    Ok(())
}

/// The [`ENV`] variable standing in for `--flag`, read through `var`, if
/// it has one and it is set ([`validate_env`] has already rejected
/// malformed values).
pub fn env_for(flag: &str, var: impl Fn(&str) -> Option<OsString>) -> Option<String> {
    let &(name, ..) = ENV
        .iter()
        .find(|row| row.1.strip_prefix("--") == Some(flag))?;
    var(name)?.into_string().ok()
}

/// The "environment" section of a usage text: one line per [`ENV`] row.
pub fn env_usage() -> String {
    let mut out = String::from(
        "environment (a flag wins over its variable; a malformed value is \
         rejected before any work runs):\n",
    );
    for &(name, role, _, expected) in ENV {
        out.push_str(&format!("  {name:<31} {role}: {expected}\n"));
    }
    out
}

/// Removes `--name <value>` from `args` wherever it appears, returning the
/// value.
///
/// # Errors
///
/// When the flag is last, with no value after it.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// The recording sessions a run asked for with `--trace <path>` /
/// `--counters <path>` / `--hists <path>` / `--profile <dir>` (or
/// `DOTA_TRACE` / `DOTA_COUNTERS` / `DOTA_HISTS` / `DOTA_PROF`), and the
/// files they become: [`Sessions::from_args`] reads the request,
/// [`Sessions::start`] opens one session per gate asked for, and
/// [`Sessions::finish`] writes the files. A run that failed drops the
/// value instead, so it never leaves a half-meaningful trace behind.
pub struct Sessions {
    trace_path: Option<String>,
    counters_path: Option<String>,
    hists_path: Option<String>,
    profile_dir: Option<String>,
    trace: Option<dota_trace::TraceGuard>,
    hists: Option<dota_metrics::HistGuard>,
    prof: Option<dota_prof::ProfGuard>,
}

impl Sessions {
    /// Validates the environment ([`validate_env`]), then takes the four
    /// observability flags out of `args`, each falling back to its
    /// variable. Opens nothing yet.
    ///
    /// # Errors
    ///
    /// A malformed `DOTA_*` variable, or a flag without a value.
    pub fn from_args(args: &mut Vec<String>) -> Result<Self, String> {
        validate_env(|name| std::env::var_os(name))?;
        let mut global = |flag: &str| -> Result<Option<String>, String> {
            Ok(take_flag(args, &format!("--{flag}"))?
                .or_else(|| env_for(flag, |name| std::env::var_os(name))))
        };
        Ok(Self {
            trace_path: global("trace")?,
            counters_path: global("counters")?,
            hists_path: global("hists")?,
            profile_dir: global("profile")?,
            trace: None,
            hists: None,
            prof: None,
        })
    }

    /// Keeps only the profile request, for binaries that open their own
    /// trace sessions internally (sessions are exclusive per gate, and the
    /// profiling gate is independent of the trace gate).
    pub fn profile_only(self) -> Self {
        Self {
            trace_path: None,
            counters_path: None,
            hists_path: None,
            ..self
        }
    }

    /// Opens the sessions asked for, labelled `label`: one trace session
    /// for `--trace` and/or `--counters`, one histogram session, one
    /// profiling session. They span the run until [`Sessions::finish`].
    pub fn start(&mut self, label: &str) {
        self.trace = (self.trace_path.is_some() || self.counters_path.is_some())
            .then(|| dota_trace::session(label));
        self.hists = self
            .hists_path
            .is_some()
            .then(|| dota_metrics::hist_session(label));
        self.prof = self
            .profile_dir
            .is_some()
            .then(|| dota_prof::session(label));
    }

    /// Writes every file asked for and ends the sessions. Call it only
    /// after the run succeeded.
    ///
    /// # Errors
    ///
    /// The first file that could not be written.
    pub fn finish(self) -> Result<(), String> {
        use std::path::Path;
        let written = |what: &str, path: &str, result: std::io::Result<()>| {
            result.map_err(|e| format!("writing {what} {path}: {e}"))?;
            eprintln!("[{what} written to {path}]");
            Ok::<(), String>(())
        };
        if let (Some(prof), Some(dir)) = (&self.prof, &self.profile_dir) {
            let at = Path::new(dir);
            let files = std::fs::create_dir_all(at)
                .and_then(|()| prof.write_folded(&at.join("profile.folded")))
                .and_then(|()| prof.write_profile(&at.join("profile.json")));
            written("profile", dir, files)?;
        }
        if let (Some(hists), Some(p)) = (&self.hists, &self.hists_path) {
            written("histograms", p, hists.write_summary(Path::new(p)))?;
        }
        if let (Some(trace), Some(p)) = (&self.trace, &self.trace_path) {
            written("trace", p, trace.write_trace(Path::new(p)))?;
        }
        if let (Some(trace), Some(p)) = (&self.trace, &self.counters_path) {
            written("counters", p, trace.write_counters(Path::new(p)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `finish` writes all four artefacts; a run that returned `Err` drops
    /// the binding instead and leaves none.
    #[test]
    fn finish_writes_every_artefact_and_a_failed_run_writes_none() {
        let dir = std::env::temp_dir().join(format!("dota_cli_sessions_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let at = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let files = [
            "t.json",
            "c.json",
            "h.json",
            "prof/profile.folded",
            "prof/profile.json",
        ];
        let started = || {
            let mut args: Vec<String> = [
                ("--trace", "t.json"),
                ("--counters", "c.json"),
                ("--hists", "h.json"),
                ("--profile", "prof"),
            ]
            .iter()
            .flat_map(|(flag, file)| [(*flag).to_owned(), at(file)])
            .chain(["infer".to_owned()])
            .collect();
            let mut sessions = Sessions::from_args(&mut args).unwrap();
            assert_eq!(args, ["infer"], "the four flags are taken out");
            sessions.start("test");
            dota_trace::count("cli.test", 1);
            dota_metrics::observe("cli.test", 1.0);
            drop(dota_prof::span("cli.test"));
            sessions
        };
        drop(started());
        for f in files {
            assert!(!dir.join(f).exists(), "a failed run wrote {f}");
        }
        started().finish().unwrap();
        for f in files {
            let text = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(text.contains("cli.test"), "{f}: {text}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        /// Every row's checker answers arbitrary bytes (lossy UTF-8) with
        /// `Ok` or a complaint naming its variable — never a panic.
        #[test]
        fn every_env_checker_never_panics(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        ) {
            let value = String::from_utf8_lossy(&noise);
            for &(name, _, kind, expected) in ENV {
                if let Err(complaint) = kind.check(name, &value, expected) {
                    proptest::prop_assert!(complaint.contains(name), "{complaint}");
                }
            }
        }
    }

    #[test]
    fn profile_only_keeps_just_the_profile_request() {
        let mut args: Vec<String> = ["--trace", "t.json", "--profile", "prof"]
            .map(str::to_owned)
            .to_vec();
        let mut sessions = Sessions::from_args(&mut args).unwrap().profile_only();
        sessions.start("test");
        assert!(sessions.trace.is_none() && sessions.prof.is_some());
    }
}
