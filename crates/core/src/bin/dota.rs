//! `dota` — command-line front end for the DOTA reproduction.
//!
//! ```text
//! dota train BENCH [--retention R] [--seq N]   # tiny-model accuracy run
//! dota infer BENCH [--retention R] [--seq N]   # one traced inference
//! dota analyze BENCH [--out FILE]              # cycle-vs-time bottleneck report
//! dota faults --seed S --rates 0,0.05,1       # fault-injection campaign
//! dota serve [--bench] [--out FILE]           # continuous-batching load test
//! dota serve --chaos [--out FILE]             # fault-rate x load availability sweep
//! dota serve --metrics-addr H:P [--flight-out F]  # live telemetry plane
//! dota top --addr H:P                         # terminal dashboard over /metrics
//! ```
//!
//! Every command accepts the global observability flags `--trace <path>`
//! (Chrome-trace JSON, open in `chrome://tracing` or Perfetto),
//! `--counters <path>` (flat hardware-counter JSON) and `--profile <dir>`
//! (host wall-clock/allocation profile: flamegraph-ready collapsed stacks
//! plus profile JSON), plus `--faults site=rate[,...]` / `--fault-seed S`
//! to run under deterministic fault injection (see the README's
//! Robustness section).
//!
//! The CLI is what *runs* the system; the paper's tables and figures are
//! printed (and their `results/*.json` written) by the `dota-bench` figure
//! binaries, one per table or figure.
//!
//! Build/run: `cargo run --release -p dota-core --bin dota -- <command>`.

use dota_accel::{AccelConfig, Accelerator};
use dota_core::analyze;
use dota_core::campaign;
use dota_core::cli::{env_for, take_flag, Sessions};
use dota_core::experiments::{self, BenchmarkRun, Method, TrainOptions};
use dota_core::report;
use dota_detector::{DetectorConfig, DotaHook};
use dota_metrics::{Manifest, MetricsSink};
use dota_transformer::MAX_SEQ_LEN;
use dota_workloads::{Benchmark, TaskSpec};
use std::process::ExitCode;

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut sessions = Sessions::from_args(&mut args)?;
    let fault_spec = take_flag(&mut args, "--faults")?;
    let fault_seed = take_flag(&mut args, "--fault-seed")?;
    let Some(command) = args.first().cloned() else {
        eprintln!("{}", usage());
        return Ok(ExitCode::FAILURE);
    };
    // One trace / histogram / profiling session each spans the whole
    // command (`dota analyze` opens its own when none was asked for);
    // outputs are written only on success.
    sessions.start(&command);
    // A fault session makes any command run under deterministic injection
    // (`dota faults` manages its own sessions instead).
    let fault_session = fault_session(&command, fault_spec, fault_seed)?;
    let rest = &args[1..];
    let result = match command.as_str() {
        "train" => cmd_train(rest),
        "infer" => cmd_infer(rest),
        "analyze" => cmd_analyze(rest),
        "report" => cmd_report(rest),
        "faults" => cmd_faults(rest),
        "serve" => cmd_serve(rest),
        "top" => cmd_top(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    if let Some(guard) = &fault_session {
        let injected = guard.injected_total();
        if injected > 0 {
            let rows: Vec<String> = guard
                .counters()
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            eprintln!("[faults: {}]", rows.join(" "));
        }
    }
    drop(fault_session);
    result?;
    sessions.finish()?;
    Ok(ExitCode::SUCCESS)
}

type Flags = std::collections::BTreeMap<String, String>;

/// Flag wins over environment wins over the caller's default.
fn flag_or_env(flags: &Flags, flag: &str) -> Option<String> {
    let env = || env_for(flag, |name| std::env::var_os(name));
    flags.get(flag).cloned().or_else(env)
}

/// Opens the global fault-injection session requested by `--faults`
/// (and `--fault-seed`), if any. `dota faults` manages its own sessions —
/// combining it with the global flag is rejected rather than deadlocking
/// on the session exclusivity lock.
fn fault_session(
    command: &str,
    spec: Option<String>,
    seed: Option<String>,
) -> Result<Option<dota_faults::FaultGuard>, String> {
    let seed = seed
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("--fault-seed must be an unsigned integer, got `{s}`"))
        })
        .transpose()?
        .unwrap_or(0);
    let Some(spec) = spec else {
        return Ok(None);
    };
    if command == "faults" {
        return Err(
            "`dota faults` runs its own fault sessions; drop the global --faults flag \
                    and use `--sites`/`--rates` instead"
                .to_owned(),
        );
    }
    let plan = dota_faults::FaultPlan::parse_spec(seed, &spec)?;
    Ok(Some(dota_faults::session(plan)))
}

fn cmd_faults(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(args, "faults", "seed sites rates seq out")?;
    if let Some(extra) = positional.first() {
        return Err(format!(
            "faults takes no positional arguments, got `{extra}`"
        ));
    }
    let mut opts = campaign::CampaignOptions {
        seed: flag_usize(&flags, "seed")?.unwrap_or(0) as u64,
        ..Default::default()
    };
    if let Some(sites) = flags.get("sites") {
        opts.sites = fault_sites(sites)?;
    }
    if let Some(rates) = flags.get("rates") {
        opts.rates = number_list(rates, "rates")?;
    }
    opts.seq_len = flag_task_seq(&flags, opts.seq_len)?;
    if opts.sites.is_empty() || opts.rates.is_empty() {
        return Err("the campaign needs at least one site and one rate".to_owned());
    }
    println!(
        "fault campaign: seed {}, {} site(s) x {} rate(s), seq {}",
        opts.seed,
        opts.sites.len(),
        opts.rates.len(),
        opts.seq_len
    );
    let report = campaign::run_campaign(&opts);
    println!(
        "{:<18} {:>6} {:>9} {:>9} {:>14}  error",
        "site", "rate", "status", "injected", "outcome"
    );
    for run in &report.runs {
        println!(
            "{:<18} {:>6} {:>9} {:>9} {:>14}  {}",
            run.site.name(),
            run.rate,
            run.status.name(),
            run.injected,
            if run.outcome.is_finite() {
                format!("{:.3}", run.outcome)
            } else {
                "-".to_owned()
            },
            run.error.as_deref().unwrap_or("")
        );
    }
    let (clean, absorbed, failed) = report.tally();
    println!("{clean} clean, {absorbed} absorbed, {failed} failed");
    if let Some(out) = flags.get("out") {
        let path = std::path::Path::new(out);
        report
            .write(path)
            .map_err(|e| format!("writing campaign report {out}: {e}"))?;
        eprintln!("[campaign report written to {out}]");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let bench = take_bool_flag(&mut args, "--bench");
    let chaos = take_bool_flag(&mut args, "--chaos");
    let (command, known) = if chaos {
        ("serve --chaos", format!("{SERVE_FLAGS} {CHAOS_FLAGS}"))
    } else {
        ("serve", SERVE_FLAGS.to_owned())
    };
    let (positional, flags) = parse_flags(&args, command, &known)?;
    if let Some(extra) = positional.first() {
        return Err(format!(
            "serve takes no positional arguments, got `{extra}`"
        ));
    }
    let mut opts = dota_serve::BenchOptions::default();
    if let Some(n) = flag_usize(&flags, "requests")? {
        opts.requests = n;
    }
    if let Some(s) = flag_usize(&flags, "seed")? {
        opts.seed = s as u64;
    }
    if let Some(c) = flag_usize(&flags, "capacity")? {
        opts.capacity = c;
    }
    if let Some(q) = flag_usize(&flags, "queue")? {
        opts.queue_capacity = q;
    }
    if let Some(s) = flag_usize(&flags, "seq")? {
        opts.seq = s;
    }
    if let Some(d) = flag_f64(&flags, "deadline-interactive")? {
        opts.interactive_deadline_us = d;
    }
    if let Some(d) = flag_f64(&flags, "deadline-batch")? {
        opts.batch_deadline_us = d;
    }
    let shed_spec = flag_or_env(&flags, "shed");
    if let Some(spec) = &shed_spec {
        if !chaos {
            opts.sheds = match spec.trim().to_ascii_lowercase().as_str() {
                "both" => vec![
                    dota_serve::ShedPolicy::QueueOnly,
                    dota_serve::ShedPolicy::Retention,
                ],
                other => vec![dota_serve::ShedPolicy::parse(other)?],
            };
        }
    }
    if let Some(list) = flags.get("loads") {
        opts.loads = number_list(list, "loads")?;
    } else if !bench && !chaos {
        // Without --bench: one load point (default 2x capacity) instead of
        // the full sweep grid.
        opts.loads = vec![flag_f64(&flags, "load")?.unwrap_or(2.0)];
    } else if let Some(l) = flag_f64(&flags, "load")? {
        opts.loads = vec![l];
    }
    if let Some(w) = flag_usize(&flags, "slo-window")? {
        opts.slo_window = w;
    }
    let metrics_addr = flag_or_env(&flags, "metrics-addr");
    let flight_path = flag_or_env(&flags, "flight-out");
    if chaos {
        if flags.contains_key("timeline") {
            return Err(
                "`serve --chaos` does not record timelines; run `dota serve --timeline` \
                 under the global --faults flag to audit a faulted run"
                    .to_owned(),
            );
        }
        if metrics_addr.is_some() || flight_path.is_some() {
            return Err(
                "`serve --chaos` has no live telemetry plane; use `dota serve --bench` \
                 with --metrics-addr/--flight-out (optionally under the global --faults flag)"
                    .to_owned(),
            );
        }
        return cmd_serve_chaos(opts, shed_spec.as_deref(), &flags);
    }
    let timeline_path = flag_or_env(&flags, "timeline");
    opts.timeline = timeline_path.is_some();

    // The telemetry plane observes the engine and never feeds back into
    // it, so enabling it cannot move a single scheduling decision: bench
    // reports and timelines keep their exact bytes (pinned by tests).
    let flight = (metrics_addr.is_some() || flight_path.is_some())
        .then(|| dota_telemetry::FlightRecorder::shared(FLIGHT_CAPACITY));
    if let Some(f) = &flight {
        opts.flight = Some(std::sync::Arc::clone(f));
    }
    let gauges = metrics_addr
        .is_some()
        .then(|| std::sync::Arc::new(dota_telemetry::ServeGauges::new()));
    if let Some(g) = &gauges {
        opts.gauges = Some(std::sync::Arc::clone(g));
    }
    // A live endpoint is only useful with something to scrape: open
    // counter/histogram collection for the run when no --trace/--counters
    // or --hists session is already doing so (outputs are discarded — the
    // exposition snapshot is the consumer).
    let _live_trace = (metrics_addr.is_some() && !dota_trace::enabled())
        .then(|| dota_trace::session("serve-live"));
    let _live_hists = (metrics_addr.is_some() && !dota_metrics::hist_enabled())
        .then(|| dota_metrics::hist_session("serve-live"));
    let server = match &metrics_addr {
        Some(addr) => {
            dota_telemetry::install_term_handler();
            let g = std::sync::Arc::clone(gauges.as_ref().expect("gauges accompany the endpoint"));
            let srv = dota_telemetry::MetricsServer::start(addr.trim(), move || {
                dota_telemetry::exposition::render(
                    &dota_trace::counters_snapshot(),
                    &g.snapshot(),
                    &dota_metrics::hists_snapshot(),
                )
            })
            .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
            // The bound address (stderr, one line) is the contract for
            // scrapers started with port 0.
            eprintln!("[metrics listening on http://{}/metrics]", srv.addr());
            Some(srv)
        }
        None => None,
    };
    let report = match dota_serve::run_bench(opts) {
        Ok(r) => r,
        Err(e) => {
            // A typed failure is exactly when the last seconds of engine
            // events matter: dump the flight recorder before surfacing it.
            if let Some(f) = &flight {
                let path = flight_path.as_deref().unwrap_or(DEFAULT_FLIGHT_PATH);
                let _ = write_flight(f, path);
            }
            return Err(e);
        }
    };
    let o = &report.options;
    println!(
        "serve load test: seed {}, {} requests/cell, capacity {}, queue {}, seq {}",
        o.seed, o.requests, o.capacity, o.queue_capacity, o.seq
    );
    println!(
        "{:>9} {:>6} {:>7} {:>8} {:>8} {:>9} {:>9} {:>10} {:>10} {:>6}",
        "shed",
        "load",
        "served",
        "evicted",
        "expired",
        "rejected",
        "degraded",
        "p50 e2e",
        "p99 e2e",
        "occ"
    );
    let us = |v: Option<f64>| match v {
        Some(x) => format!("{x:.1}us"),
        None => "-".to_owned(),
    };
    for c in &report.cells {
        println!(
            "{:>9} {:>5.1}x {:>7} {:>8} {:>8} {:>9} {:>9} {:>10} {:>10} {:>6.2}",
            c.shed.name(),
            c.load,
            c.served(),
            c.deadline_evicted,
            c.queue_expired,
            c.rejected,
            c.degraded,
            us(c.e2e_us.quantile(0.5)),
            us(c.e2e_us.quantile(0.99)),
            c.mean_occupancy
        );
    }
    if let Some(out) = flags.get("out") {
        report
            .write(std::path::Path::new(out))
            .map_err(|e| format!("writing serve report {out}: {e}"))?;
        eprintln!("[serve report written to {out}]");
    }
    if let Some(path) = timeline_path {
        let timeline = report
            .timeline
            .as_ref()
            .expect("timeline recording was enabled");
        timeline
            .write(std::path::Path::new(&path))
            .map_err(|e| format!("writing serve timeline {path}: {e}"))?;
        eprintln!("[serve timeline written to {path}]");
    }
    if let (Some(f), Some(path)) = (&flight, &flight_path) {
        write_flight(f, path)?;
    }
    if let Some(srv) = server {
        // Keep the endpoint scrapeable until the operator releases it; a
        // SIGTERM that already arrived mid-run falls straight through.
        eprintln!(
            "[serve complete; metrics endpoint http://{}/metrics stays up until SIGTERM]",
            srv.addr()
        );
        while !dota_telemetry::term_requested() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        drop(srv);
        if let (Some(f), None) = (&flight, &flight_path) {
            // SIGTERM postmortem dump for runs that never asked for a
            // flight file explicitly.
            write_flight(f, DEFAULT_FLIGHT_PATH)?;
        }
    }
    Ok(())
}

/// The flags `dota serve` reads (`--bench` and `--chaos` are switches).
const SERVE_FLAGS: &str = "requests seed capacity queue seq deadline-interactive \
    deadline-batch shed loads load slo-window out timeline metrics-addr flight-out";

/// The flags `dota serve --chaos` reads on top of [`SERVE_FLAGS`].
const CHAOS_FLAGS: &str = "chaos-rates chaos-sites chaos-seed retry-cap retry-backoff \
    quarantine ctl-burn-high ctl-burn-low ctl-cooldown";

/// Flight-recorder ring size: enough for the full event stream of a
/// default bench sweep, so `dropped` is informative rather than routine.
const FLIGHT_CAPACITY: usize = 65_536;

/// Where the flight recorder lands when dumped without `--flight-out`
/// (typed failure or SIGTERM postmortems).
const DEFAULT_FLIGHT_PATH: &str = "flight.json";

/// Dumps the shared flight recorder as canonical JSON.
fn write_flight(flight: &dota_telemetry::FlightHandle, path: &str) -> Result<(), String> {
    flight
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .write(std::path::Path::new(path))
        .map_err(|e| format!("writing flight recorder {path}: {e}"))?;
    eprintln!("[flight recorder written to {path}]");
    Ok(())
}

/// `dota top` — terminal dashboard over a live `/metrics` endpoint.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let once = take_bool_flag(&mut args, "--once");
    let (positional, flags) = parse_flags(&args, "top", "addr interval-ms ticks")?;
    if let Some(extra) = positional.first() {
        return Err(format!("top takes no positional arguments, got `{extra}`"));
    }
    let addr = flags
        .get("addr")
        .cloned()
        .or_else(|| env_for("metrics-addr", |name| std::env::var_os(name)))
        .ok_or("top needs --addr HOST:PORT (or DOTA_SERVE_METRICS_ADDR)")?;
    let interval_ms = flag_usize(&flags, "interval-ms")?.unwrap_or(1000) as u64;
    let ticks = if once {
        Some(1)
    } else {
        flag_usize(&flags, "ticks")?
    };
    let bounded = ticks.is_some();
    let mut top = dota_telemetry::top::TopState::new();
    let mut polled = 0usize;
    loop {
        let body = dota_telemetry::http::get(addr.trim(), "/metrics")
            .map_err(|e| format!("fetching http://{addr}/metrics: {e}"))?;
        let samples = dota_telemetry::exposition::parse(&body)
            .map_err(|e| format!("parsing http://{addr}/metrics: {e}"))?;
        top.observe(&samples);
        if !bounded {
            // Clear + home; plain appends in bounded mode keep the output
            // pipeable for tests and scripts.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", top.render(&samples));
        polled += 1;
        if ticks == Some(polled) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `dota serve --chaos`: the availability campaign — sweeps fault rate x
/// offered load on identical seeded arrivals and reports goodput, served
/// fraction, retry/quarantine activity and tail latency per cell.
fn cmd_serve_chaos(
    bench: dota_serve::BenchOptions,
    shed_spec: Option<&str>,
    flags: &Flags,
) -> Result<(), String> {
    let mut opts = dota_serve::ChaosOptions {
        bench,
        ..Default::default()
    };
    if let Some(spec) = shed_spec {
        if spec.trim().eq_ignore_ascii_case("both") {
            return Err("a chaos campaign runs one shed policy per report; \
                 use --shed queue|retention|slo"
                .to_owned());
        }
        opts.shed = dota_serve::ShedPolicy::parse(spec.trim())?;
    }
    if let Some(list) = flag_or_env(flags, "chaos-rates") {
        opts.rates = number_list(&list, "chaos-rates")?;
    }
    if let Some(sites) = flags.get("chaos-sites") {
        opts.sites = fault_sites(sites)?;
    }
    if let Some(s) = flag_usize(flags, "chaos-seed")? {
        opts.fault_seed = s as u64;
    }
    if let Some(c) = flag_usize(flags, "retry-cap")? {
        opts.retry_cap = c;
    }
    if let Some(b) = flag_usize(flags, "retry-backoff")? {
        opts.retry_backoff_cycles = b as u64;
    }
    if let Some(q) = flag_usize(flags, "quarantine")? {
        opts.quarantine_cycles = q as u64;
    }
    if let Some(x) = flag_f64(flags, "ctl-burn-high")? {
        opts.control.burn_high = x;
    }
    if let Some(x) = flag_f64(flags, "ctl-burn-low")? {
        opts.control.burn_low = x;
    }
    if let Some(n) = flag_usize(flags, "ctl-cooldown")? {
        opts.control.cooldown_steps = n as u64;
    }
    opts.validate()?;
    println!(
        "chaos campaign: traffic seed {}, fault seed {}, shed {}, {} requests/cell, \
         {} site(s) x {} rate(s) x {} load(s)",
        opts.bench.seed,
        opts.fault_seed,
        opts.shed.name(),
        opts.bench.requests,
        opts.sites.len(),
        opts.rates.len(),
        opts.bench.loads.len()
    );
    println!(
        "retry cap {}, backoff {} cycles (doubling), quarantine {} cycles",
        opts.retry_cap, opts.retry_backoff_cycles, opts.quarantine_cycles
    );
    let report = dota_serve::run_chaos(opts)?;
    println!(
        "{:>6} {:>6} {:>8} {:>7} {:>7} {:>7} {:>8} {:>9} {:>11} {:>10}",
        "load",
        "rate",
        "offered",
        "served",
        "frac",
        "failed",
        "retries",
        "timeouts",
        "goodput/Mc",
        "p99 e2e"
    );
    for c in &report.cells {
        println!(
            "{:>5.1}x {:>6} {:>8} {:>7} {:>6.1}% {:>7} {:>8} {:>9} {:>11.1} {:>10}",
            c.load,
            c.rate,
            c.offered,
            c.served,
            c.served_fraction * 100.0,
            c.failed,
            c.retries,
            c.timeout_steps,
            c.goodput_per_mcycle,
            match c.p99_e2e_us {
                Some(x) => format!("{x:.1}us"),
                None => "-".to_owned(),
            }
        );
    }
    if let Some(out) = flags.get("out") {
        report
            .write(std::path::Path::new(out))
            .map_err(|e| format!("writing chaos report {out}: {e}"))?;
        eprintln!("[chaos report written to {out}]");
    }
    Ok(())
}

/// Removes a valueless `--name` switch from `args`, returning whether it
/// was present ([`parse_flags`] treats every `--flag` as taking a value,
/// so boolean switches must be extracted first).
fn take_bool_flag(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == name) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// The usage text; its environment section is generated from the one
/// [`dota_core::cli::ENV`] table the validation reads.
fn usage() -> String {
    format!("{COMMANDS}\n\n{}", dota_core::cli::env_usage().trim_end())
}

const COMMANDS: &str = "\
usage: dota <command> [options]

commands:
  train BENCH [--retention R] [--seq N] [--samples K] [--epochs E]
        [--save FILE] [--metrics-out DIR]
                                  train a tiny model jointly with the
                                  detector, report accuracy, optionally
                                  checkpoint the adapted weights; with
                                  --metrics-out, write per-step metrics
                                  JSONL, a results JSON and a run manifest
                                  into DIR
  infer BENCH [--retention R] [--seq N] [--seed S]
                                  run one detector-filtered inference on a
                                  tiny preset and replay it on the
                                  simulator (pairs well with --trace)
  analyze BENCH [--retention R] [--seq N] [--seed S] [--top N] [--out FILE]
                                  run an instrumented inference and join
                                  host wall-clock/allocation profiles with
                                  the simulated counters into a bottleneck
                                  report: per-stage cycles and utilization,
                                  roofline classification, Amdahl
                                  attribution, top-N host hotspots; the
                                  JSON isolates volatile host data under
                                  \"host\" so two reports diff clean via
                                  `report diff` across machines/threads
  analyze --serve TIMELINE [--top N] [--out FILE]
                                  retention-degradation audit of a serve
                                  timeline (from `serve --timeline`): per
                                  retention tier, request counts and mean
                                  attended-position reduction; per request,
                                  the e2e latency decomposition
                                  (queue/prefill/decode and weight/KV/
                                  head-of-line); top-N worst deadline-budget
                                  burns; re-verifies every decomposition
                                  and attended count against the cost and
                                  window models and flags any drift
  report diff A B [--tol T] [--ignore K1,K2] [--allow-added]
                                  compare two runs (result files or run
                                  directories) value-by-value at relative
                                  tolerance T (default 1e-6); exits
                                  nonzero when regressions are found;
                                  --allow-added tolerates keys/files that
                                  exist only in run B (schema additions)
                                  while still failing on vanished ones
  serve [--bench] [--requests N] [--seed S] [--capacity C] [--queue N]
        [--seq N] [--load L | --loads L1,L2]
        [--shed queue|retention|slo|both]
        [--deadline-interactive US] [--deadline-batch US] [--out FILE]
        [--timeline FILE] [--slo-window N]
                                  continuous-batching inference load test
                                  on the simulated cycle clock: seeded
                                  heavy-tailed traffic, per-cell SLO
                                  histograms (queue wait, TTFT, inter-token,
                                  e2e); under overload, shed by admitting
                                  at sparser attention retention (DOTA's
                                  knob as a quality-for-latency trade) or
                                  queue at full quality; --bench sweeps
                                  load x policy and --out writes a
                                  byte-stable JSON report (diffable with
                                  report diff); --timeline records every
                                  request's cycle-timestamped lifecycle
                                  (queue/admit/prefill/per-step weight vs
                                  KV split, attended vs omitted positions)
                                  to a byte-stable JSON for `analyze
                                  --serve`, and mirrors it onto per-slot
                                  tracks of any live --trace session;
                                  --slo-window sets the rolling SLO
                                  monitor's window (completions; 0
                                  disables); --shed slo runs the
                                  closed-loop controller: rolling SLO burn
                                  and queue depth drive the admission
                                  retention rung (with hysteresis and a
                                  cooldown) plus an admission gate under
                                  sustained burn
  serve ... [--metrics-addr HOST:PORT] [--flight-out FILE]
                                  live telemetry plane: --metrics-addr
                                  serves Prometheus text exposition at
                                  /metrics (read-only snapshots of trace
                                  counters, histogram buckets and serve
                                  gauges: queue depth, occupancy, SLO
                                  burn, retention rung, admission gate,
                                  quarantined lanes, per-lane skew; the
                                  bound address is printed to stderr, port
                                  0 picks a free one; the endpoint stays
                                  up after the run until SIGTERM);
                                  --flight-out dumps the flight recorder —
                                  a bounded ring of cycle-stamped engine
                                  events (admissions, terminals, rung/gate
                                  flips, retries, quarantine) — as
                                  byte-deterministic JSON, also written to
                                  flight.json on typed failure or SIGTERM
  top --addr HOST:PORT [--interval-ms N] [--ticks N | --once]
                                  terminal dashboard polling a /metrics
                                  endpoint: occupancy, queue depth, SLO
                                  hit-rate/burn sparklines, retention
                                  rung, admission gate, per-lane retained
                                  work and skew; --ticks/--once bound the
                                  number of polls (and keep the output
                                  pipeable)
  serve --chaos [--shed queue|retention|slo] [--chaos-rates R1,R2]
        [--chaos-sites a,b] [--chaos-seed S] [--retry-cap N]
        [--retry-backoff CYCLES] [--quarantine CYCLES]
        [--ctl-burn-high X] [--ctl-burn-low X] [--ctl-cooldown N]
        [serve options] [--out FILE]
                                  chaos campaign: sweep serve-layer fault
                                  rates (slot.fail, kv.corrupt,
                                  decode.timeout) x offered load on
                                  identical seeded arrivals; failed decode
                                  steps retry with exponential cycle
                                  backoff up to --retry-cap before the
                                  request fails typed, and faulty lanes
                                  are quarantined then re-admitted via
                                  deterministic probes; prints and (with
                                  --out) writes a byte-stable availability
                                  report: served fraction, goodput,
                                  retries, quarantine occupancy, p99 e2e
  faults [--seed S] [--sites a,b] [--rates r1,r2] [--seq N] [--out FILE]
                                  deterministic fault-injection campaign:
                                  sweep (site, rate) cells, report whether
                                  each fault was absorbed or failed with a
                                  typed error; --out writes a seed-stable
                                  JSON report (diffable with report diff)

the paper's tables and figures are the dota-bench binaries (table2_area,
fig12_speedup, fig13_energy, decode_scaling, ...): one per table or figure,
each printing its rows and rewriting its results/*.json

global options (any command):
  --trace FILE                    write a Chrome-trace JSON of the run
                                  (open in chrome://tracing or Perfetto)
  --counters FILE                 write the hardware-counter totals as JSON
  --hists FILE                    write attention/detector score histogram
                                  summaries (p50/p95/p99) as JSON
  --profile DIR                   profile host wall-clock/allocations and
                                  write DIR/profile.folded (flamegraph
                                  collapsed stacks) + DIR/profile.json
  --faults SITE=RATE[,...]        run the command under deterministic
                                  fault injection (sites: sram.bitflip,
                                  dram.read, lane.stuck, detector.corrupt,
                                  detector.saturate, attn.input,
                                  train.loss)
  --fault-seed S                  seed for --faults decisions (default 0)
BENCH: qa | image | text | retrieval | lm";

fn parse_benchmark(s: &str) -> Result<Benchmark, String> {
    match s.to_ascii_lowercase().as_str() {
        "qa" => Ok(Benchmark::Qa),
        "image" => Ok(Benchmark::Image),
        "text" => Ok(Benchmark::Text),
        "retrieval" => Ok(Benchmark::Retrieval),
        "lm" => Ok(Benchmark::Lm),
        other => Err(format!("unknown benchmark `{other}`")),
    }
}

/// Extracts `--flag value` from an argument list; returns remaining
/// positional arguments. A flag outside `known`, the space-separated
/// flags `dota cmd` reads, is an error: a typo'd flag silently falling
/// back to its default would run something other than what was asked.
fn parse_flags(args: &[String], cmd: &str, known: &str) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.split_whitespace().any(|k| k == name) {
                return Err(format!("unknown flag `{a}` for `dota {cmd}`"));
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_owned(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

/// `--name` (or the environment variable standing in for it) as a number.
fn flag_number<T: std::str::FromStr>(
    flags: &Flags,
    name: &str,
    what: &str,
) -> Result<Option<T>, String> {
    flag_or_env(flags, name)
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| format!("--{name} must be {what}"))
        })
        .transpose()
}

/// The non-blank entries of a comma-separated `--flag` value.
fn list_entries(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').filter(|s| !s.trim().is_empty())
}

fn number_list(list: &str, flag: &str) -> Result<Vec<f64>, String> {
    list_entries(list)
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("--{flag} entries must be numbers, got `{s}`"))
        })
        .collect()
}

fn fault_sites(list: &str) -> Result<Vec<dota_faults::FaultSite>, String> {
    list_entries(list)
        .map(|s| dota_faults::FaultSite::parse(s.trim()))
        .collect()
}

fn flag_f64(flags: &Flags, name: &str) -> Result<Option<f64>, String> {
    flag_number(flags, name, "a number")
}

fn flag_usize(flags: &Flags, name: &str) -> Result<Option<usize>, String> {
    flag_number(flags, name, "an integer")
}

/// `--retention` (default 0.25): the share of connections the detector
/// keeps, in (0, 1].
fn flag_retention(flags: &Flags) -> Result<f64, String> {
    let r = flag_f64(flags, "retention")?.unwrap_or(0.25);
    if r > 0.0 && r <= 1.0 {
        return Ok(r);
    }
    Err(format!("--retention {r} must be in (0, 1]"))
}

/// `--seq` of a synthetic task (default `default`): from the shortest the
/// task generators are built for up to the longest a model is built for.
fn flag_task_seq(flags: &Flags, default: usize) -> Result<usize, String> {
    let seq = flag_usize(flags, "seq")?.unwrap_or(default);
    let (min, max) = (TaskSpec::MIN_SEQ_LEN, MAX_SEQ_LEN);
    if (min..=max).contains(&seq) {
        return Ok(seq);
    }
    Err(format!("--seq {seq} must be in {min}..={max}"))
}

/// Most token ids `dota train` generates for its training set, all before
/// the first step; the committed runs train on 400 samples of 24.
const MAX_TRAIN_TOKENS: usize = 1 << 24;

fn cmd_train(args: &[String]) -> Result<(), String> {
    let known = "retention seq samples epochs metrics-out save";
    let (positional, flags) = parse_flags(args, "train", known)?;
    let bench = positional
        .first()
        .ok_or("train needs a benchmark".to_owned())
        .and_then(|s| parse_benchmark(s))?;
    let retention = flag_retention(&flags)?;
    let seq = flag_task_seq(&flags, 24)?;
    let samples = flag_usize(&flags, "samples")?.unwrap_or(400);
    let most = MAX_TRAIN_TOKENS / seq;
    if !(1..=most).contains(&samples) {
        return Err(format!(
            "--samples {samples} must be in 1..={most} at --seq {seq}"
        ));
    }
    let epochs = flag_usize(&flags, "epochs")?.unwrap_or(20);
    let seed = 5u64;
    let metrics_out = flags.get("metrics-out").cloned();
    let started = std::time::Instant::now();
    println!(
        "training {} (seq {seq}, {samples} samples, {epochs} epochs) with DOTA at {:.1}% retention...",
        bench.name(),
        retention * 100.0
    );
    let mut sink = if metrics_out.is_some() {
        MetricsSink::new()
    } else {
        MetricsSink::disabled()
    };
    let run = BenchmarkRun::train_logged(
        bench,
        seq,
        samples,
        100,
        DetectorConfig::new(retention).with_sigma(0.5),
        &TrainOptions {
            epochs,
            warmup_epochs: (epochs / 5).max(1),
            lr_warmup_steps: 600,
            ..Default::default()
        },
        seed,
        &mut sink,
    )
    .map_err(|e| format!("training failed: {e}"))?;
    println!("{:>8} {:>10} {:>12}", "method", "accuracy", "perplexity");
    let mut method_rows: Vec<serde_json::Value> = Vec::new();
    for (name, method, r) in [
        ("dense", Method::Dense, 1.0),
        ("DOTA", Method::Dota, retention),
        ("oracle", Method::Oracle, retention),
        ("ELSA", Method::Elsa, retention),
        ("random", Method::Random, retention),
    ] {
        let p = run.evaluate(method, r, 1);
        match p.perplexity {
            Some(ppl) => println!("{name:>8} {:>10.3} {ppl:>12.2}", p.accuracy),
            None => println!("{name:>8} {:>10.3} {:>12}", p.accuracy, "-"),
        }
        method_rows.push(serde_json::Value::Object(vec![
            ("method".to_owned(), serde_json::Value::Str(name.to_owned())),
            ("retention".to_owned(), serde_json::Value::Float(r)),
            ("accuracy".to_owned(), serde_json::Value::Float(p.accuracy)),
            (
                "perplexity".to_owned(),
                match p.perplexity {
                    Some(ppl) => serde_json::Value::Float(ppl),
                    None => serde_json::Value::Null,
                },
            ),
        ]));
    }
    if let Some(dir) = &metrics_out {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        sink.write_jsonl(&dir.join("metrics.jsonl"))
            .map_err(|e| format!("writing metrics.jsonl: {e}"))?;
        let results = serde_json::Value::Object(vec![
            (
                "benchmark".to_owned(),
                serde_json::Value::Str(bench.name().to_owned()),
            ),
            ("methods".to_owned(), serde_json::Value::Array(method_rows)),
        ]);
        std::fs::write(
            dir.join("train_results.json"),
            serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("writing train_results.json: {e}"))?;
        let mut manifest = Manifest::collect("train")
            .with_seed(seed)
            .with_config("benchmark", bench.name())
            .with_config("retention", retention)
            .with_config("seq", seq)
            .with_config("samples", samples)
            .with_config("epochs", epochs);
        if cfg!(feature = "parallel") {
            manifest = manifest.with_feature("parallel");
        }
        if dota_trace::enabled() {
            manifest.counters = dota_trace::counters_snapshot();
        }
        manifest.wall_clock_secs = started.elapsed().as_secs_f64();
        manifest
            .write(&dir.join("manifest.json"))
            .map_err(|e| format!("writing manifest.json: {e}"))?;
        eprintln!(
            "[metrics ({} steps), results and manifest written to {}]",
            sink.len(),
            dir.display()
        );
    }
    if let Some(path) = flags.get("save") {
        dota_core::checkpoint::save_params(&run.dota_params, std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        println!("adapted weights saved to {path}");
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let allow_added = take_bool_flag(&mut args, "--allow-added");
    let (positional, flags) = parse_flags(&args, "report", "tol ignore")?;
    match positional.first().map(String::as_str) {
        Some("diff") => {
            let a = positional
                .get(1)
                .ok_or("report diff needs two paths: dota report diff <run-a> <run-b>")?;
            let b = positional
                .get(2)
                .ok_or("report diff needs two paths: dota report diff <run-a> <run-b>")?;
            let mut opts = report::DiffOptions {
                allow_added,
                ..Default::default()
            };
            if let Some(t) = flag_f64(&flags, "tol")? {
                if t.is_nan() || t < 0.0 {
                    return Err("--tol must be a non-negative number".to_owned());
                }
                opts.tolerance = t;
            }
            if let Some(extra) = flags.get("ignore") {
                opts.ignore_keys.extend(
                    extra
                        .split(',')
                        .filter(|k| !k.is_empty())
                        .map(str::to_owned),
                );
            }
            let rep = report::diff_paths(std::path::Path::new(a), std::path::Path::new(b), &opts)?;
            print!("{}", rep.render());
            if rep.has_regressions() {
                return Err(format!("{} regression(s) found", rep.findings.len()));
            }
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown report subcommand `{other}` (try `dota report diff A B`)"
        )),
        None => {
            Err("usage: dota report diff <run-a> <run-b> [--tol T] [--ignore K1,K2]".to_owned())
        }
    }
}

/// One detector-filtered inference on a tiny preset, replayed on the
/// simulator. Shared by `dota infer` and `dota analyze`; the build,
/// forward and replay stages are profiled spans, so they show up both on
/// the Chrome-trace host track and in `--profile` flamegraphs.
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

fn cmd_infer(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(args, "infer", "retention seq seed")?;
    let bench = positional
        .first()
        .ok_or("infer needs a benchmark".to_owned())
        .and_then(|s| parse_benchmark(s))?;
    let retention = flag_retention(&flags)?;
    let seq = flag_task_seq(&flags, 16)?;
    let seed = flag_usize(&flags, "seed")?.unwrap_or(7) as u64;

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

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let known = "serve retention seq seed top out";
    let (positional, flags) = parse_flags(args, "analyze", known)?;
    if let Some(timeline) = flags.get("serve") {
        if let Some(extra) = positional.first() {
            return Err(format!(
                "analyze --serve takes no benchmark argument, got `{extra}`"
            ));
        }
        return cmd_analyze_serve(timeline, &flags);
    }
    let bench = positional
        .first()
        .ok_or("analyze needs a benchmark".to_owned())
        .and_then(|s| parse_benchmark(s))?;
    let retention = flag_retention(&flags)?;
    let seq = flag_task_seq(&flags, 16)?;
    let seed = flag_usize(&flags, "seed")?.unwrap_or(7) as u64;
    let top = flag_usize(&flags, "top")?.unwrap_or(10);
    let out_path = flags.get("out").cloned();

    // Reuse the global sessions when `--trace`/`--profile` opened them;
    // open private ones otherwise so the joined report always has both
    // counters and host spans to work from. (Opening a second session on
    // the same gate would deadlock, hence the `enabled()` checks.)
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
fn cmd_analyze_serve(timeline: &str, flags: &Flags) -> Result<(), String> {
    let top = flag_usize(flags, "top")?.unwrap_or(5);
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
    if let Some(p) = flags.get("out") {
        std::fs::write(p, audit.to_json()).map_err(|e| format!("writing serve audit {p}: {e}"))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use dota_core::cli::{validate_env, ENV};

    /// `validate_env` names `name` when rejecting each of `bad`, accepts
    /// each of `good` (and the variable being unset), and a well-formed
    /// value reaches the flag the [`ENV`] table pairs it with unless the
    /// flag is given too. Each value is looked up from a one-row table,
    /// never from the process environment.
    fn check_env(name: &str, bad: &[&'static str], good: &[&'static str]) {
        let set = |value: &'static str| move |n: &str| (n == name).then(|| value.into());
        for value in bad {
            let err = validate_env(set(value)).unwrap_err();
            assert!(err.contains(name), "{name}={value:?}: {err}");
        }
        for value in good {
            validate_env(set(value)).unwrap_or_else(|e| panic!("{name}={value:?}: {e}"));
            let role = ENV.iter().find(|row| row.0 == name).unwrap().1;
            if let Some(flag) = role.strip_prefix("--") {
                assert_eq!(env_for(flag, set(value)).as_deref(), Some(*value));
                let flags = Flags::from([(flag.to_owned(), "explicit".to_owned())]);
                assert_eq!(flag_or_env(&flags, flag).as_deref(), Some("explicit"));
            }
        }
        validate_env(|_| None).unwrap();
    }

    /// The one table behind every environment test: `test name(variable,
    /// values that must be rejected, values that must be accepted)`.
    macro_rules! env_cases {
        ($($test:ident($name:literal, $bad:expr, $good:expr);)*) => {
            const CASES: &[&str] = &[$($name),*];
            $(
                #[test]
                fn $test() {
                    check_env($name, &$bad, &$good);
                }
            )*
        };
    }

    env_cases! {
        invalid_dota_threads_is_rejected("DOTA_THREADS", ["zero", "0", "-4"], ["8"]);
        empty_dota_trace_is_rejected("DOTA_TRACE", ["  "], ["/tmp/t.json"]);
        empty_dota_hists_is_rejected("DOTA_HISTS", [""], []);
        empty_dota_prof_is_rejected("DOTA_PROF", [" "], ["/tmp/prof"]);
        empty_dota_counters_is_rejected("DOTA_COUNTERS", [""], []);
        invalid_dota_gemm_is_rejected("DOTA_GEMM", ["fast"], ["auto", "scalar"]);
        invalid_dota_serve_batch_is_rejected("DOTA_SERVE_BATCH", ["0", "-2", "many", "1.5"], ["16"]);
        invalid_dota_serve_deadline_is_rejected(
            "DOTA_SERVE_DEADLINE", ["0", "-50", "soon", "inf"], ["75.5"]);
        invalid_dota_serve_shed_is_rejected(
            "DOTA_SERVE_SHED", ["drop", "none", ""], ["queue", "retention", "slo", "both", "Queue-Only"]);
        invalid_dota_serve_chaos_is_rejected(
            "DOTA_SERVE_CHAOS",
            ["", "lots", "0.5,nan", "-0.1", "1.5", "0.2;0.4"],
            ["0", "0.0,0.05,0.2", " 0.1 , 1 "]);
        invalid_dota_serve_retry_cap_is_rejected(
            "DOTA_SERVE_RETRY_CAP", ["-1", "many", "2.5", ""], ["0", "3", "10"]);
        invalid_dota_serve_retry_backoff_is_rejected(
            "DOTA_SERVE_RETRY_BACKOFF", ["0", "-100", "fast", ""], ["2000"]);
        empty_dota_serve_timeline_is_rejected("DOTA_SERVE_TIMELINE", ["", "  "], ["/tmp/tl.json"]);
        invalid_dota_serve_metrics_addr_is_rejected(
            "DOTA_SERVE_METRICS_ADDR",
            ["", "localhost", "127.0.0.1", ":9184", "127.0.0.1:port"],
            ["127.0.0.1:9184", "0.0.0.0:0", " [::1]:8080 "]);
        empty_dota_serve_flight_is_rejected("DOTA_SERVE_FLIGHT", ["", "  "], ["/tmp/flight.json"]);
    }

    #[test]
    fn every_env_row_has_a_case() {
        let usage = usage();
        for row in ENV {
            assert!(CASES.contains(&row.0), "{} has no test row", row.0);
            assert!(
                usage.contains(row.0),
                "{} is missing from the usage text",
                row.0
            );
        }
    }

    #[test]
    fn global_faults_flag_is_rejected_for_campaigns() {
        let err = fault_session("faults", Some("sram.bitflip=1".to_owned()), None).unwrap_err();
        assert!(err.contains("dota faults"), "{err}");
    }
}
