//! `dota serve` (load test, `--bench` sweep, live telemetry plane) and
//! `dota serve --chaos` (availability campaign).

use super::numbers;
use dota_core::cli::Args;

pub(crate) fn cmd_serve(mut args: Args) -> Result<(), String> {
    let bench = args.switch("--bench");
    let chaos = args.switch("--chaos");
    let mut opts = dota_serve::BenchOptions::default();
    opts.requests = args.number("--requests")?.unwrap_or(opts.requests);
    opts.seed = args.number("--seed")?.unwrap_or(opts.seed);
    opts.capacity = args.number("--capacity")?.unwrap_or(opts.capacity);
    opts.queue_capacity = args.number("--queue")?.unwrap_or(opts.queue_capacity);
    opts.seq = args.number("--seq")?.unwrap_or(opts.seq);
    opts.interactive_deadline_us = args
        .number("--deadline-interactive")?
        .unwrap_or(opts.interactive_deadline_us);
    opts.batch_deadline_us = args
        .number("--deadline-batch")?
        .unwrap_or(opts.batch_deadline_us);
    // Without --bench: one load point (default 2x capacity) instead of the
    // full sweep grid. `--load` is read only without `--loads`.
    let one_load = (!bench && !chaos).then_some(2.0);
    if let Some(loads) = args.list("--loads", numbers("--loads"))? {
        opts.loads = loads;
    } else if let Some(l) = args.number("--load")?.or(one_load) {
        opts.loads = vec![l];
    }
    opts.slo_window = args.number("--slo-window")?.unwrap_or(opts.slo_window);
    let metrics_addr = args.value("--metrics-addr")?;
    let flight_path = args.value("--flight-out")?;
    if chaos {
        if metrics_addr.is_some() || flight_path.is_some() {
            return Err(
                "`serve --chaos` has no live telemetry plane; use `dota serve --bench` \
                 with --metrics-addr/--flight-out (optionally under the global --faults flag)"
                    .to_owned(),
            );
        }
        return cmd_serve_chaos(opts, args);
    }
    if let Some(spec) = args.value("--shed")? {
        opts.sheds = match spec.as_str() {
            "both" => vec![
                dota_serve::ShedPolicy::QueueOnly,
                dota_serve::ShedPolicy::Retention,
            ],
            other => vec![dota_serve::ShedPolicy::parse(other)?],
        };
    }
    let out = args.value("--out")?;
    let timeline_path = args.value("--timeline")?;
    args.finish("dota serve")?;
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
    if let Some(out) = out {
        report
            .write(std::path::Path::new(&out))
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

/// `--chaos-rates R1,R2` and `--chaos-sites a,b` into `opts`, whose lists
/// stand where a flag is not given.
fn read_chaos_lists(args: &mut Args, opts: &mut dota_serve::ChaosOptions) -> Result<(), String> {
    if let Some(rates) = args.list("--chaos-rates", numbers("--chaos-rates"))? {
        opts.rates = rates;
    }
    if let Some(sites) = args.list("--chaos-sites", dota_faults::FaultSite::parse)? {
        opts.sites = sites;
    }
    Ok(())
}

/// `dota serve --chaos`: the availability campaign — sweeps fault rate x
/// offered load on identical seeded arrivals and reports goodput, served
/// fraction, retry/quarantine activity and tail latency per cell.
fn cmd_serve_chaos(bench: dota_serve::BenchOptions, mut args: Args) -> Result<(), String> {
    let mut opts = dota_serve::ChaosOptions {
        bench,
        ..Default::default()
    };
    if let Some(spec) = args.value("--shed")? {
        if spec == "both" {
            return Err("a chaos campaign runs one shed policy per report; \
                 use --shed queue|retention|slo"
                .to_owned());
        }
        opts.shed = dota_serve::ShedPolicy::parse(&spec)?;
    }
    read_chaos_lists(&mut args, &mut opts)?;
    opts.fault_seed = args.number("--chaos-seed")?.unwrap_or(opts.fault_seed);
    opts.retry_cap = args.number("--retry-cap")?.unwrap_or(opts.retry_cap);
    opts.retry_backoff_cycles = args
        .number("--retry-backoff")?
        .unwrap_or(opts.retry_backoff_cycles);
    opts.quarantine_cycles = args
        .number("--quarantine")?
        .unwrap_or(opts.quarantine_cycles);
    opts.control.burn_high = args
        .number("--ctl-burn-high")?
        .unwrap_or(opts.control.burn_high);
    opts.control.burn_low = args
        .number("--ctl-burn-low")?
        .unwrap_or(opts.control.burn_low);
    opts.control.cooldown_steps = args
        .number("--ctl-cooldown")?
        .unwrap_or(opts.control.cooldown_steps);
    let out = args.value("--out")?;
    args.finish("dota serve --chaos")?;
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
    if let Some(out) = out {
        report
            .write(std::path::Path::new(&out))
            .map_err(|e| format!("writing chaos report {out}: {e}"))?;
        eprintln!("[chaos report written to {out}]");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Pieces of the two lists' grammar and of number syntax a value is
    /// spliced from, beside raw bytes.
    const PIECES: [&str; 16] = [
        ",",
        " ",
        "0",
        "0.05",
        "1",
        "-0",
        "1e999",
        "NaN",
        "inf",
        "-1",
        "2",
        "sram.bitflip",
        "dram.read",
        "lane.stuck",
        "slot.fail",
        "é",
    ];

    proptest! {
        /// `dota serve --chaos` reads `--chaos-rates` and `--chaos-sites`
        /// through `Args::list` and then validates the campaign: any value
        /// (lossy UTF-8 of arbitrary bytes, or a list spliced from the
        /// grammar's pieces) is taken or refused with an error, never a
        /// panic.
        #[test]
        fn chaos_list_flags_never_panics(
            noise in vec(any::<u8>(), 0..48),
            picks in vec(0usize..PIECES.len(), 0..12),
        ) {
            let spliced: String = picks.iter().map(|&i| PIECES[i]).collect();
            for value in [String::from_utf8_lossy(&noise).into_owned(), spliced] {
                for flag in ["--chaos-rates", "--chaos-sites"] {
                    let read = std::panic::catch_unwind(|| {
                        let mut args = Args::new([flag, value.as_str()]);
                        let mut opts = dota_serve::ChaosOptions::default();
                        read_chaos_lists(&mut args, &mut opts).and_then(|()| opts.validate())
                    });
                    prop_assert!(read.is_ok(), "{} {:?} panicked", flag, value);
                }
            }
        }
    }
}
