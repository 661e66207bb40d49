//! `dota infer` and `dota analyze` (and `analyze --serve`), which share
//! one detector-filtered inference, and the task flags `dota train` and
//! `dota faults` read too.

use dota_accel::{AccelConfig, Accelerator};
use dota_core::analyze;
use dota_core::cli::Args;
use dota_core::experiments;
use dota_detector::{DetectorConfig, DotaHook};
use dota_workloads::{Benchmark, TaskSpec};

/// `--retention` (default 0.25): the share of connections the detector
/// keeps, in (0, 1].
pub(crate) fn flag_retention(args: &mut Args) -> Result<f64, String> {
    let r = args.number("--retention")?.unwrap_or(0.25);
    if r > 0.0 && r <= 1.0 {
        return Ok(r);
    }
    Err(format!("--retention {r} must be in (0, 1]"))
}

/// Longest `--seq` of a subcommand that runs dense attention (`infer`,
/// `analyze`, `train`, `faults`): the paper's longest sequence. Dense
/// attention holds an n × n score matrix per head, 64 MiB here and 16 GiB
/// at the 65,536 positions a served model supports, where the allocation
/// would abort the process rather than fail.
const MAX_DENSE_SEQ: usize = 4096;

/// `--seq` of a synthetic task (default `default`): from the shortest the
/// task generators are built for up to [`MAX_DENSE_SEQ`].
pub(crate) fn flag_task_seq(args: &mut Args, default: usize) -> Result<usize, String> {
    let seq = args.number("--seq")?.unwrap_or(default);
    let (min, max) = (TaskSpec::MIN_SEQ_LEN, MAX_DENSE_SEQ);
    if (min..=max).contains(&seq) {
        return Ok(seq);
    }
    Err(format!(
        "--seq {seq} must be in {min}..={max} (dense attention holds an n x n score matrix per head)"
    ))
}

/// One detector-filtered inference on a tiny preset, replayed on the
/// simulator. Shared by `dota infer` and `dota analyze`; the build,
/// forward and replay stages are profiled spans, so they show up in
/// `--profile` flamegraphs (the Chrome trace holds simulated time only).
struct InferRun {
    seq: usize,
    trace: dota_transformer::ForwardTrace,
    report: dota_accel::PerfReport,
}

fn run_infer_workload(
    bench: Benchmark,
    retention: f64,
    seq: usize,
    seed: u64,
) -> Result<InferRun, String> {
    let build = dota_prof::span("infer.build");
    let spec = TaskSpec::tiny(bench, seq, seed);
    let (_, test) = spec.generate_split(1, 1);
    let ids = test.samples()[0].ids.clone();
    let (model, mut params) = experiments::build_model(&spec, seed);
    let hook = DotaHook::init(
        DetectorConfig::new(retention).with_sigma(0.5),
        model.config(),
        &mut params,
    );
    drop(build);

    let trace = {
        let _span = dota_prof::span("infer.forward");
        model
            .try_infer(&params, &ids, &hook.inference(&params))
            .map_err(|e| format!("inference failed: {e}"))?
    };
    let report = {
        let _span = dota_prof::span("infer.replay");
        let acc = Accelerator::new(AccelConfig::default());
        acc.try_simulate_trace(model.config(), &trace)
            .map_err(|e| format!("simulation failed: {e}"))?
    };
    Ok(InferRun {
        seq: ids.len(),
        trace,
        report,
    })
}

/// The benchmark positional of `infer`/`analyze`/`train` (a
/// [`Benchmark::name`], any case), parsed once the line is accepted.
pub(crate) fn finish_with_benchmark(mut args: Args, cmd: &str) -> Result<Benchmark, String> {
    let bench = args.positional();
    args.finish(&format!("dota {cmd}"))?;
    let bench = bench.ok_or(format!("{cmd} needs a benchmark"))?;
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(&bench))
        .ok_or_else(|| format!("unknown benchmark `{}`", bench.to_ascii_lowercase()))
}

pub(crate) fn cmd_infer(mut args: Args) -> Result<(), String> {
    let retention = flag_retention(&mut args)?;
    let seq = flag_task_seq(&mut args, 16)?;
    let seed = args.number("--seed")?.unwrap_or(7);
    let bench = finish_with_benchmark(args, "infer")?;

    let run = run_infer_workload(bench, retention, seq, seed)?;
    if run.trace.fallback_dense > 0 {
        eprintln!(
            "[{} head(s) fell back to dense attention]",
            run.trace.fallback_dense
        );
    }
    println!(
        "infer {} (seq {}, seed {seed}): retention {:.1}% (configured {:.1}%)",
        bench.name(),
        run.seq,
        run.trace.retention() * 100.0,
        retention * 100.0
    );
    println!(
        "replayed on simulator: {} cycles, {} K/V loads ({} row-by-row), {:.3} uJ",
        run.report.cycles.total(),
        run.report.key_loads,
        run.report.key_loads_row_by_row,
        run.report.energy.total_pj() * 1e-6
    );
    Ok(())
}

pub(crate) fn cmd_analyze(mut args: Args) -> Result<(), String> {
    let top = args.number("--top")?;
    let out_path = args.value("--out")?;
    if let Some(timeline) = args.value("--serve")? {
        args.finish("dota analyze --serve")?;
        return cmd_analyze_serve(&timeline, top.unwrap_or(5), out_path);
    }
    let retention = flag_retention(&mut args)?;
    let seq = flag_task_seq(&mut args, 16)?;
    let seed = args.number("--seed")?.unwrap_or(7);
    let bench = finish_with_benchmark(args, "analyze")?;
    let top = top.unwrap_or(10);

    // Reuse the global sessions when `--trace`/`--profile` opened them;
    // open private ones otherwise so the joined report always has both
    // counters (the trace's) and host spans (the profile's) to work from.
    // (Opening a second session on the same gate would deadlock, hence
    // the `enabled()` checks.)
    let own_trace = (!dota_trace::enabled()).then(|| dota_trace::session("analyze"));
    let own_prof = (!dota_prof::enabled()).then(|| dota_prof::session("analyze"));

    let run = run_infer_workload(bench, retention, seq, seed)?;
    let counters = dota_trace::counters_snapshot();
    let spans = dota_prof::spans_snapshot();
    let alloc = dota_prof::alloc_stats();
    drop(own_prof);
    drop(own_trace);

    #[cfg(feature = "parallel")]
    let threads = dota_parallel::num_threads();
    #[cfg(not(feature = "parallel"))]
    let threads = 1;

    let config = AccelConfig::default();
    let inputs = analyze::AnalyzeInputs {
        label: &format!("analyze.{}", bench.name()),
        counters: &counters,
        spans: &spans,
        alloc,
        config: &config,
        threads,
        top_hotspots: top,
    };
    let json = analyze::render(&inputs);

    println!(
        "analyze {} (seq {}, seed {seed}, retention {:.1}%): {} simulated cycles",
        bench.name(),
        run.seq,
        run.trace.retention() * 100.0,
        run.report.cycles.total()
    );
    let total = run.report.cycles.total().max(1);
    println!("{:<12} {:>12} {:>8}", "stage", "cycles", "share");
    for (name, cycles) in [
        ("linear", run.report.cycles.linear),
        ("detection", run.report.cycles.detection),
        ("attention", run.report.cycles.attention),
        ("ffn", run.report.cycles.ffn),
    ] {
        println!(
            "{:<12} {:>12} {:>7.1}%",
            name,
            cycles,
            cycles as f64 / total as f64 * 100.0
        );
    }
    let hot = analyze::hotspots(&spans, top);
    if !hot.is_empty() {
        println!(
            "host hotspots (threads {threads}, parallel fraction {:.2}):",
            analyze::parallel_fraction(&spans)
        );
        println!(
            "{:<40} {:>8} {:>10} {:>10}",
            "span", "count", "self ms", "total ms"
        );
        for h in &hot {
            println!(
                "{:<40} {:>8} {:>10.3} {:>10.3}",
                h.path, h.count, h.self_ms, h.total_ms
            );
        }
    }
    if let Some(p) = out_path {
        std::fs::write(&p, &json).map_err(|e| format!("writing analyze report {p}: {e}"))?;
        eprintln!("[analyze report written to {p}]");
    } else {
        print!("{json}");
    }
    Ok(())
}

/// `dota analyze --serve TIMELINE`: the retention-degradation audit —
/// joins a serve timeline (from `dota serve --timeline`) with the cost
/// and retention-window models and reports per-tier degradation, latency
/// decomposition and the worst deadline-budget burns.
fn cmd_analyze_serve(timeline: &str, top: usize, out: Option<String>) -> Result<(), String> {
    let raw = std::fs::read_to_string(timeline)
        .map_err(|e| format!("reading serve timeline {timeline}: {e}"))?;
    let doc =
        serde_json::parse(&raw).map_err(|e| format!("parsing serve timeline {timeline}: {e}"))?;
    let audit = dota_core::serve_audit::audit(&doc, top)?;
    print!("{}", audit.render_text());
    let consistent = audit
        .cells
        .iter()
        .all(|c| c.decomposition_consistent && c.ladder_consistent && c.terminals_consistent);
    if let Some(p) = out {
        std::fs::write(&p, audit.to_json()).map_err(|e| format!("writing serve audit {p}: {e}"))?;
        eprintln!("[serve audit written to {p}]");
    }
    if !consistent {
        return Err(
            "serve timeline is inconsistent with the cost/window models (see audit above)"
                .to_owned(),
        );
    }
    Ok(())
}
