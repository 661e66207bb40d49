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
//! `--counters <path>` (flat hardware-counter JSON), `--hists <path>`
//! (score-histogram summaries) and `--profile <dir>` (host
//! wall-clock/allocation profile: flamegraph-ready collapsed stacks plus
//! profile JSON), plus `--faults site=rate[,...]` / `--fault-seed S`
//! to run under deterministic fault injection (see the README's
//! Robustness section).
//!
//! The CLI is what *runs* the system; the paper's tables and figures are
//! printed (and their `results/*.json` written) by the `dota-bench` figure
//! binaries, one per table or figure.
//!
//! Build/run: `cargo run --release -p dota-core --bin dota -- <command>`.

#[path = "dota/faults.rs"]
mod faults;
#[path = "dota/infer.rs"]
mod infer;
#[path = "dota/report.rs"]
mod report;
#[path = "dota/serve.rs"]
mod serve;
#[path = "dota/top.rs"]
mod top;
#[path = "dota/train.rs"]
mod train;

use dota_core::cli::{Args, Sessions};
use std::process::ExitCode;

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let mut args = Args::from_env();
    let mut sessions = Sessions::from_args(&mut args)?;
    let fault_spec = args.value("--faults")?;
    // `--fault-seed` seeds `--faults`; alone it is left unread.
    let fault_seed = match fault_spec {
        Some(_) => args.number("--fault-seed")?.unwrap_or(0),
        None => 0,
    };
    let command = args.positional();
    let Some(command) = command.or_else(|| args.switch("--help").then(|| "help".to_owned())) else {
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
    let result = match command.as_str() {
        "train" => train::cmd_train(args),
        "infer" => infer::cmd_infer(args),
        "analyze" => infer::cmd_analyze(args),
        "report" => report::cmd_report(args),
        "faults" => faults::cmd_faults(args),
        "serve" => serve::cmd_serve(args),
        "top" => top::cmd_top(args),
        "help" | "-h" => args.finish("dota help").map(|()| println!("{}", usage())),
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

/// Opens the global fault-injection session requested by `--faults`
/// (and `--fault-seed`), if any. `dota faults` manages its own sessions —
/// combining it with the global flag is rejected rather than deadlocking
/// on the session exclusivity lock.
fn fault_session(
    command: &str,
    spec: Option<String>,
    seed: u64,
) -> Result<Option<dota_faults::FaultGuard>, String> {
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

/// Parses one entry of the number list `flag` (`--loads`, `--rates`).
fn numbers(flag: &str) -> impl Fn(&str) -> Result<f64, String> + '_ {
    move |s| {
        s.parse()
            .map_err(|_| format!("{flag} entries must be numbers, got `{s}`"))
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

#[cfg(test)]
mod tests {
    use super::*;
    use dota_core::cli::{validate_env, ENV};

    /// `validate_env` names `name` when rejecting each of `bad`, and
    /// accepts each of `good` and an environment without it. Each value is
    /// passed in a one-row table, never read from the process environment.
    fn check_env(name: &str, bad: &[&str], good: &[&str]) {
        let set = |value: &str| [(name.into(), value.into())];
        for value in bad {
            let err = validate_env(set(value)).unwrap_err();
            assert!(err.contains(name), "{name}={value:?}: {err}");
        }
        for value in good {
            validate_env(set(value)).unwrap_or_else(|e| panic!("{name}={value:?}: {e}"));
        }
        validate_env([]).unwrap();
        validate_env([("PATH".into(), "".into())]).unwrap();
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

    // The rows after the first two name variables nothing reads (once a
    // second spelling of a flag, or a typo): any value is rejected.
    env_cases! {
        invalid_dota_threads_is_rejected("DOTA_THREADS", ["zero", "0", "-4"], ["8"]);
        invalid_dota_gemm_is_rejected("DOTA_GEMM", ["fast", "fma"], ["auto", "scalar"]);
        unread_dota_variable_is_rejected("DOTA_THREAD", ["8"], []);
        empty_dota_trace_is_rejected("DOTA_TRACE", ["", "/tmp/t.json"], []);
        empty_dota_hists_is_rejected("DOTA_HISTS", ["", "/tmp/h.json"], []);
        empty_dota_prof_is_rejected("DOTA_PROF", ["", "/tmp/prof"], []);
        empty_dota_counters_is_rejected("DOTA_COUNTERS", ["", "/tmp/c.json"], []);
        invalid_dota_serve_batch_is_rejected("DOTA_SERVE_BATCH", ["0", "16"], []);
        invalid_dota_serve_deadline_is_rejected("DOTA_SERVE_DEADLINE", ["75.5"], []);
        invalid_dota_serve_shed_is_rejected("DOTA_SERVE_SHED", ["drop", "queue"], []);
        invalid_dota_serve_chaos_is_rejected("DOTA_SERVE_CHAOS", ["0,0.05,0.2"], []);
        invalid_dota_serve_retry_cap_is_rejected("DOTA_SERVE_RETRY_CAP", ["3"], []);
        invalid_dota_serve_retry_backoff_is_rejected("DOTA_SERVE_RETRY_BACKOFF", ["2000"], []);
        empty_dota_serve_timeline_is_rejected("DOTA_SERVE_TIMELINE", ["", "/tmp/tl.json"], []);
        invalid_dota_serve_metrics_addr_is_rejected(
            "DOTA_SERVE_METRICS_ADDR", ["127.0.0.1:9184"], []);
        empty_dota_serve_flight_is_rejected("DOTA_SERVE_FLIGHT", ["", "/tmp/flight.json"], []);
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
        let err = fault_session("faults", Some("sram.bitflip=1".to_owned()), 0).unwrap_err();
        assert!(err.contains("dota faults"), "{err}");
    }
}
