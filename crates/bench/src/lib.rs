//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). Results print as aligned text tables
//! and are also written as JSON under `results/` so `EXPERIMENTS.md` can
//! reference exact numbers.

#![deny(missing_docs)]

use dota_core::cli::{Args, Sessions};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Writes `value` as pretty JSON to `results/<name>.json` (relative to the
/// workspace root), creating the directory if needed. Prints the path.
///
/// # Panics
///
/// Panics if serialization or the write fails — the bench binaries treat
/// result persistence as essential.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    std::fs::write(&path, json).expect("write results file");
    println!("\n[results written to {}]", path.display());
}

/// The `results/` directory at the workspace root.
fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Runs `f` over every sweep point, fanning independent points out across
/// the thread pool, and collects the results **in input order** — the
/// output is byte-for-byte the same as a serial `points.iter().map(f)`
/// loop, regardless of thread count (cap the pool with `DOTA_THREADS`).
///
/// The figure binaries sweep grids of independent (configuration,
/// sequence-length) points; each point is pure compute, so they
/// parallelize trivially. Per-point results must not depend on shared
/// mutable state or on the order points complete in.
pub fn run_sweep<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    dota_parallel::par_map(points, |_, p| f(p))
}

/// The sessions a bench binary's flags asked for
/// ([`dota_core::cli::Sessions`], the binding the `dota` CLI uses), their
/// files written when dropped. A bench `main` has no error path to skip
/// the write on: it panics, and a panicking run writes nothing.
pub struct SessionFiles(Option<Sessions>);

/// Reads the sessions asked for from `args` with `read` (one of
/// [`Sessions`]' two readers), rejects any argument left, and starts
/// them. A malformed or unread `DOTA_*` variable or a stray argument ends
/// the process here, before any work, with the message and exit code the
/// CLI gives it.
fn start_sessions(
    label: &str,
    mut args: Args,
    read: fn(&mut Args) -> Result<Sessions, String>,
) -> SessionFiles {
    let read = read(&mut args).and_then(|s| args.finish(label).map(|()| s));
    let mut sessions = read.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    sessions.start(label);
    SessionFiles(Some(sessions))
}

/// The profile-only binding, over `args` once the binary has read its own
/// switches from them: validates the environment and honours `--profile`;
/// `--trace`/`--counters`/`--hists` are unknown flags here. For
/// `counters_baseline`, whose [`counter_scenarios`] open their own
/// exclusive trace sessions (the profiling gate is independent of the
/// trace gate), and `bench_report`, whose timings a recording session
/// would skew.
/// Hold it for the whole `main`.
pub fn profile_session(label: &str, args: Args) -> SessionFiles {
    start_sessions(label, args, Sessions::profile_from_args)
}

impl Drop for SessionFiles {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        if let Some(Err(e)) = self.0.take().map(Sessions::finish) {
            eprintln!("[{e}]");
        }
    }
}

/// Observability + provenance for a figure binary. Hold the returned value
/// for the whole `main`:
///
/// ```no_run
/// let _obs = dota_bench::obs_init("fig03_flops");
/// // ... the run ...
/// ```
///
/// Binaries that open internal trace sessions or time kernels use
/// [`run_manifest`] plus [`profile_session`] instead.
pub struct ObsInit {
    // Field order is load-bearing: fields drop in declaration order, so
    // the manifest finalizes first — capturing the counter snapshot while
    // the trace session is still live — and the session files are written
    // after.
    _manifest: ManifestGuard,
    _sessions: SessionFiles,
}

/// Starts sessions (from flags) and the provenance manifest
/// for one bench binary — see [`ObsInit`].
pub fn obs_init(label: &str) -> ObsInit {
    let sessions = start_sessions(label, Args::from_env(), Sessions::from_args);
    ObsInit {
        _manifest: run_manifest(label),
        _sessions: sessions,
    }
}

/// Provenance manifest for a bench/figure run, finalized and written to
/// `results/<label>.manifest.json` when dropped.
///
/// Declare it in `main` **after** any [`SessionFiles`] binding: guards
/// drop in reverse declaration order, so the manifest finalizes (and
/// captures the live counter snapshot) while the trace session is still
/// recording. The `parallel` feature flag, `DOTA_THREADS` budget, git sha,
/// host and wall clock are collected automatically.
pub struct ManifestGuard {
    manifest: dota_metrics::Manifest,
    started: std::time::Instant,
}

/// Starts the provenance record for one bench binary — see
/// [`ManifestGuard`].
pub fn run_manifest(label: &str) -> ManifestGuard {
    let mut manifest = dota_metrics::Manifest::collect(label);
    if cfg!(feature = "parallel") {
        manifest = manifest.with_feature("parallel");
    }
    ManifestGuard {
        manifest,
        started: std::time::Instant::now(),
    }
}

impl Drop for ManifestGuard {
    fn drop(&mut self) {
        if dota_trace::enabled() {
            self.manifest.counters = dota_trace::counters_snapshot();
        }
        self.manifest.wall_clock_secs = self.started.elapsed().as_secs_f64();
        let dir = results_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("[manifest dir {} failed: {e}]", dir.display());
            return;
        }
        let path = dir.join(format!("{}.manifest.json", self.manifest.label));
        match self.manifest.write(&path) {
            Ok(()) => eprintln!("[manifest written to {}]", path.display()),
            Err(e) => eprintln!("[manifest write to {} failed: {e}]", path.display()),
        }
    }
}

/// The deterministic counter scenarios `counters_baseline` checks against
/// the committed `results/counters_baseline.json`.
///
/// Each scenario runs inside its own exclusive [`dota_trace`] session and
/// returns its full counter snapshot. Every input is seeded and every
/// counter is a `u64` sum, so the snapshots are bit-identical across runs,
/// `DOTA_THREADS` values, and the `parallel` feature.
pub fn counter_scenarios() -> Vec<(String, BTreeMap<String, u64>)> {
    use dota_accel::{sched, synth, AccelConfig, Accelerator};
    use dota_transformer::TransformerConfig;

    let mut out = Vec::new();

    // 1. The paper's Fig. 8 working example: row-by-row (10 loads) vs
    //    in-order token-parallel scheduling (5 loads).
    {
        let guard = dota_trace::session("sched_fig8");
        let fig8: Vec<Vec<u32>> = vec![vec![1, 2], vec![0, 1, 4], vec![1, 2], vec![0, 2, 4]];
        let _ = sched::row_by_row_loads(&fig8);
        let _ = sched::in_order_schedule(&fig8);
        out.push(("sched_fig8".to_owned(), guard.counters()));
    }

    // 2. The paper's Fig. 9/10 working example: in-order (11 loads) vs
    //    out-of-order scheduling (7 loads) of the same detected pattern.
    {
        let guard = dota_trace::session("sched_fig9");
        let fig9: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![1, 2, 3], vec![1, 4, 5], vec![2, 3, 4]];
        let _ = sched::row_by_row_loads(&fig9);
        let _ = sched::in_order_schedule(&fig9);
        let _ = sched::locality_aware_schedule(&fig9);
        out.push(("sched_fig9".to_owned(), guard.counters()));
    }

    // 3. Analytic full-model simulation on a small shape.
    {
        let guard = dota_trace::session("simulate_shape_small");
        let model = TransformerConfig::tiny(128, 64, 2);
        let accel = Accelerator::new(AccelConfig::default());
        let _ = accel.simulate_shape(&model, 128, 0.25, 0.25, &synth::SelectionProfile::default());
        out.push(("simulate_shape_small".to_owned(), guard.counters()));
    }

    // 4. Incremental decoding on a small prompt/generation budget.
    {
        let guard = dota_trace::session("simulate_decode_small");
        let model = TransformerConfig::tiny_causal(64, 64);
        let _ =
            dota_accel::decode::simulate_decode(&AccelConfig::default(), &model, 32, 8, 0.25, 0.25);
        out.push(("simulate_decode_small".to_owned(), guard.counters()));
    }

    // 5. End-to-end: tiny model + quantized detector inference, replayed
    //    through the cycle simulator. Exercises the detector, per-head
    //    attention counters and the trace-replay path together.
    {
        let guard = dota_trace::session("tiny_infer_replay");
        let mut params = dota_autograd::ParamSet::new();
        let model =
            dota_transformer::Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 11);
        let hook = dota_detector::DotaHook::init(
            dota_detector::DetectorConfig::new(0.25),
            model.config(),
            &mut params,
        );
        let ids = vec![1usize, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0];
        let trace = model.infer(&params, &ids, &hook.inference(&params));
        let accel = Accelerator::new(AccelConfig::default());
        let _ = accel.simulate_trace(model.config(), &trace);
        out.push(("tiny_infer_replay".to_owned(), guard.counters()));
    }

    out
}

/// Formats a ratio as `x.x×`.
pub fn times(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else {
        format!("{x:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_formats() {
        assert_eq!(times(4.52), "4.5x");
        assert_eq!(times(152.6), "153x");
    }

    #[test]
    fn results_dir_ends_with_results() {
        assert!(results_dir().ends_with("results"));
    }

    #[test]
    fn counter_scenarios_are_deterministic() {
        let a = counter_scenarios();
        let b = counter_scenarios();
        assert_eq!(a, b, "scenario counters must be bit-identical run-to-run");
        assert_eq!(a.len(), 5);
        for (name, counters) in &a {
            assert!(!counters.is_empty(), "scenario {name} recorded no counters");
        }
        // Spot-check the paper-figure pins: Fig. 8 (10 row-by-row vs 5
        // in-order) and Fig. 9 (11 in-order vs 7 out-of-order).
        let fig8 = &a[0].1;
        assert_eq!(fig8["sched.row_by_row.loads"], 10);
        assert_eq!(fig8["sched.in_order.loads"], 5);
        let fig9 = &a[1].1;
        assert_eq!(fig9["sched.in_order.loads"], 11);
        assert_eq!(fig9["sched.ooo.loads"], 7);
    }

    #[test]
    fn run_sweep_preserves_input_order() {
        let points: Vec<usize> = (0..64).collect();
        let got = run_sweep(&points, |&p| p * p);
        let want: Vec<usize> = points.iter().map(|&p| p * p).collect();
        assert_eq!(got, want);
    }
}
