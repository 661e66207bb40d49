//! What every binary's front door shares: the two `DOTA_*` variables with
//! their up-front validation, [`Args`], the one argument reader, and
//! [`Sessions`], the one binding from `--trace/--counters/--hists/--profile`
//! to recording sessions and written files. The `dota` CLI and every
//! `dota-bench` binary go through all three, so none reads a variable
//! unvalidated, runs with one nothing reads, or drops an argument unread.

use std::ffi::OsString;

/// How an environment variable's value must read.
#[derive(Clone, Copy)]
pub enum EnvKind {
    /// An integer `>= 1`.
    PositiveInt,
    /// Whatever [`dota_tensor::lanes::parse_family`] accepts: kernel
    /// lanes this CPU can run.
    Lanes,
}

/// The `DOTA_*` variables a program reads: `(variable, what it sets, what
/// its value must be, how usage and the complaint word that)`. Library
/// crates read both once per process, and no flag sets either; every
/// other setting is a flag. [`validate_env`] checks each row up front and
/// rejects any other `DOTA_*` variable, and [`env_usage`] documents every
/// row, so a variable can be neither read unvalidated nor left out of
/// `dota help`.
pub const ENV: &[(&str, &str, EnvKind, &str)] = &[
    (
        "DOTA_THREADS",
        "thread-pool size",
        EnvKind::PositiveInt,
        "a positive integer",
    ),
    // A typo'd kernel choice (or lanes this CPU cannot run) would
    // silently fall back and invalidate a benchmark, exactly like a bad
    // DOTA_THREADS.
    (
        "DOTA_GEMM",
        "kernel lanes",
        EnvKind::Lanes,
        "auto|scalar|simd",
    ),
];

impl EnvKind {
    /// `Ok` when `value` is a well-formed setting of `name`, else the
    /// one-line complaint.
    fn check(self, name: &str, value: &str, expected: &str) -> Result<(), String> {
        match self {
            EnvKind::PositiveInt if value.trim().parse::<u64>().is_ok_and(|n| n >= 1) => Ok(()),
            EnvKind::PositiveInt => Err(format!("{name} must be {expected}, got `{value}`")),
            // The lanes parser words its own complaint (it knows which
            // lanes this CPU reports).
            EnvKind::Lanes => dota_tensor::lanes::parse_family(value).map(|_| ()),
        }
    }
}

/// Checks every `DOTA_*` variable among `vars` (`std::env::vars_os()` in
/// the binaries) up front: an [`ENV`] row must be well-formed — a typo'd
/// `DOTA_THREADS=all` silently falling back to the default would
/// invalidate a benchmark without any sign of it — and any other
/// `DOTA_*` variable is an error, since nothing would read it.
///
/// # Errors
///
/// One line naming the first offending variable; a value that is not
/// Unicode is malformed whatever the row.
pub fn validate_env(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Result<(), String> {
    for (name, value) in vars {
        let name = name.to_string_lossy();
        if !name.starts_with("DOTA_") {
            continue;
        }
        let Some(&(_, _, kind, expected)) = ENV.iter().find(|row| row.0 == name) else {
            let read: Vec<&str> = ENV.iter().map(|row| row.0).collect();
            return Err(format!(
                "`{name}` is not read; every setting but {} is a flag (see `dota help`)",
                read.join(" and ")
            ));
        };
        match value.into_string() {
            Ok(v) => kind.check(&name, &v, expected)?,
            Err(raw) => {
                return Err(format!(
                    "{name} must be {expected}, got non-Unicode {raw:?}"
                ));
            }
        }
    }
    Ok(())
}

/// The "environment" section of a usage text: one line per [`ENV`] row.
pub fn env_usage() -> String {
    let mut out =
        String::from("environment (a malformed value is rejected before any work runs):\n");
    for &(name, role, _, expected) in ENV {
        out.push_str(&format!("  {name:<31} {role}: {expected}\n"));
    }
    out.push_str("  any other DOTA_* variable is an error: every other setting is a flag\n");
    out
}

/// A command line, handed out as the command reads it: each read takes
/// its flag, switch or positional out, and [`Args::finish`] rejects
/// whatever is left. A flag is named once, where its value is read, so
/// one the run never reads — a typo, or a flag of a path not taken —
/// fails instead of being dropped.
pub struct Args(Vec<String>);

/// A number a flag can hold, and how a complaint words one.
pub trait Number: std::str::FromStr {
    /// "a number", "an integer".
    const WHAT: &'static str;
}

impl Number for f64 {
    const WHAT: &'static str = "a number";
}

impl Number for usize {
    const WHAT: &'static str = "an integer";
}

impl Number for u64 {
    const WHAT: &'static str = "an integer";
}

impl Args {
    /// The process's arguments, the program name left out.
    pub fn from_env() -> Self {
        Self(std::env::args().skip(1).collect())
    }

    /// `args` as given.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        Self(args.into_iter().map(Into::into).collect())
    }

    /// Takes every `flag <value>` out and returns the last value. A flag
    /// with no value after it is an error.
    pub fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let mut value = None;
        while let Some(i) = self.0.iter().position(|a| a == flag) {
            if i + 1 == self.0.len() {
                return Err(format!("{flag} needs a value"));
            }
            value = Some(self.0.remove(i + 1));
            self.0.remove(i);
        }
        Ok(value)
    }

    /// Takes out the switch `flag`, returning whether it was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let given = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() < given
    }

    /// [`Args::value`] as a number; one that does not parse is an error.
    pub fn number<T: Number>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let complaint = |_| format!("{flag} must be {}", T::WHAT);
        self.value(flag)?
            .map(|v| v.trim().parse().map_err(complaint))
            .transpose()
    }

    /// [`Args::value`] as a comma-separated list: each non-blank entry,
    /// trimmed, through `parse`, whose first error is the error.
    pub fn list<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<Vec<T>>, String> {
        let Some(list) = self.value(flag)? else {
            return Ok(None);
        };
        let entries = list.split(',').map(str::trim).filter(|s| !s.is_empty());
        entries.map(parse).collect::<Result<_, _>>().map(Some)
    }

    /// Takes out the first argument left that is not a `--flag`. Read the
    /// flags and switches first, so that none of their values is taken
    /// for a positional.
    pub fn positional(&mut self) -> Option<String> {
        let i = self.0.iter().position(|a| !a.starts_with("--"))?;
        Some(self.0.remove(i))
    }

    /// Ends the reading for the command `cmd`: call it once the run has
    /// read all it takes, before any work. Any argument left (an unknown
    /// flag, one of a path not taken, a stray positional) is an error
    /// naming the first.
    pub fn finish(self, cmd: &str) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(a) if a.starts_with("--") => Err(format!("unknown flag `{a}` for `{cmd}`")),
            Some(a) => Err(format!("unexpected argument `{a}` for `{cmd}`")),
        }
    }
}

/// The recording sessions a run asked for with `--trace <path>` /
/// `--counters <path>` / `--hists <path>` / `--profile <dir>`, and the
/// files they become: [`Sessions::from_args`] reads the request,
/// [`Sessions::start`] opens one session per gate asked for, and
/// [`Sessions::finish`] writes the files. A run that failed drops the
/// value instead, so it never leaves a half-meaningful trace behind.
#[derive(Default)]
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
    /// Validates the environment ([`validate_env`]), then reads the four
    /// observability flags from `args`. Opens nothing yet.
    ///
    /// # Errors
    ///
    /// A malformed or unread `DOTA_*` variable, or a flag without a value.
    pub fn from_args(args: &mut Args) -> Result<Self, String> {
        let mut sessions = Self::profile_from_args(args)?;
        sessions.trace_path = args.value("--trace")?;
        sessions.counters_path = args.value("--counters")?;
        sessions.hists_path = args.value("--hists")?;
        Ok(sessions)
    }

    /// [`Sessions::from_args`] reading `--profile` alone, for binaries
    /// that open their own trace sessions internally (sessions are
    /// exclusive per gate, and the profiling gate is independent of the
    /// trace gate): the other three flags stay in `args` for
    /// [`Args::finish`] to reject.
    ///
    /// # Errors
    ///
    /// As [`Sessions::from_args`].
    pub fn profile_from_args(args: &mut Args) -> Result<Self, String> {
        validate_env(std::env::vars_os())?;
        Ok(Self {
            profile_dir: args.value("--profile")?,
            ..Self::default()
        })
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
            let mut args = Args::new(
                [
                    ("--trace", "t.json"),
                    ("--counters", "c.json"),
                    ("--hists", "h.json"),
                    ("--profile", "prof"),
                ]
                .iter()
                .flat_map(|(flag, file)| [(*flag).to_owned(), at(file)])
                .chain(["infer".to_owned()]),
            );
            let mut sessions = Sessions::from_args(&mut args).unwrap();
            assert_eq!(args.0, ["infer"], "the four flags are taken out");
            sessions.start("test");
            dota_trace::count("cli.test", 1);
            dota_trace::sim_event("cli.test", "cli.test", 0, 1);
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

    /// `finish` names what no read took, and a flag without a value fails
    /// its read.
    #[test]
    fn finish_names_what_no_read_took() {
        let read = |line: &str| {
            let mut args = Args::new(line.split(' '));
            let tol = args.number::<f64>("--tol");
            args.positional();
            tol.and_then(|_| args.finish("dota report"))
        };
        assert_eq!(read("diff --tol 0.5"), Ok(()));
        let unknown = "unknown flag `--tl` for `dota report`";
        assert_eq!(read("diff --tl 1").unwrap_err(), unknown);
        let extra = "unexpected argument `x` for `dota report`";
        assert_eq!(read("diff x").unwrap_err(), extra);
        assert_eq!(read("diff --tol").unwrap_err(), "--tol needs a value");
    }

    /// The profile-only read takes `--profile` and leaves `--trace` for
    /// `finish` to reject, instead of reading it and dropping it.
    #[test]
    fn profile_only_keeps_just_the_profile_request() {
        let mut args = Args::new(["--trace", "t.json", "--profile", "prof"]);
        let mut sessions = Sessions::profile_from_args(&mut args).unwrap();
        sessions.start("test");
        assert!(sessions.trace.is_none() && sessions.prof.is_some());
        let unread = "unknown flag `--trace` for `counters_baseline`";
        assert_eq!(args.finish("counters_baseline").unwrap_err(), unread);
    }
}
