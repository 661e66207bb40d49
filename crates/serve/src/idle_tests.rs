//! The idle engine's jump against its per-cycle reference.
//!
//! The reference is the same engine with its idle rule switched to the
//! one-cycle wait it replaced (`ServeEngine::per_cycle_idle`): a ready
//! retry blocked on quarantined lanes stays a wake-up in the past, so the
//! clock advances one cycle per full scheduler pass and the controller
//! observes every one of them for real. The jump must leave everything a
//! run can be watched by unchanged — the outcome (controller summary and
//! quarantine log included), the timeline, the raw event stream, the
//! flight dump and the fault counters — while running at most one pass
//! per scheduler event.

use crate::report::{mean_service_cycles, traffic_proto, BenchOptions};
use crate::{CostModel, EventSink, ServeConfig, ServeEngine, ServeEvent, ServeOutcome, ShedPolicy};
use dota_accel::AccelConfig;
use dota_autograd::ParamSet;
use dota_faults::{FaultPlan, FaultSite};
use dota_telemetry::FlightRecorder;
use dota_transformer::{Model, TransformerConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One run configuration: `run_bench`'s model and traffic for `opts` at
/// `load`, served under `cfg` inside a fault session armed with `plan`.
struct Case {
    opts: BenchOptions,
    load: f64,
    cfg: ServeConfig,
    plan: FaultPlan,
}

/// Everything one run can be watched by.
struct Watched {
    outcome: ServeOutcome,
    stream: Vec<ServeEvent>,
    flight: String,
    faults: BTreeMap<String, u64>,
}

/// `serve_overload_tiny`'s configuration: the tiny model, 100 requests at
/// load 4 under the `slo` policy and the workload's fault spec, seed 7.
fn overload_tiny() -> Case {
    let opts = BenchOptions {
        requests: 100,
        loads: vec![4.0],
        sheds: vec![ShedPolicy::Slo],
        ..BenchOptions::default()
    };
    let spec = "slot.fail=0.05,kv.corrupt=0.02,decode.timeout=0.05";
    Case {
        cfg: opts.serve_config(ShedPolicy::Slo),
        plan: FaultPlan::parse_spec(opts.seed, spec).unwrap(),
        opts,
        load: 4.0,
    }
}

/// Runs `case` with every observer attached, the idle rule as shipped or
/// as its per-cycle reference; also returns the scheduler passes (one
/// `serve.admit` span each).
fn run(case: &Case, per_cycle: bool) -> (Watched, u64) {
    let o = &case.opts;
    let mcfg = TransformerConfig::tiny_causal(o.seq, o.vocab);
    let mut params = ParamSet::new();
    let model = Model::init(mcfg.clone(), &mut params, o.seed);
    let accel = AccelConfig::default();
    let mut traffic = traffic_proto(o);
    traffic.mean_gap_cycles =
        mean_service_cycles(o, &CostModel::new(&accel, &mcfg), &mcfg) / case.load;
    let requests = traffic.generate();

    let prof = dota_prof::session("idle");
    let faults = dota_faults::session(case.plan.clone());
    let stream = Arc::new(Mutex::new(Vec::<ServeEvent>::new()));
    let flight = FlightRecorder::shared(1 << 12);
    flight.lock().unwrap().begin_cell("idle");
    let mut engine = ServeEngine::new(&model, &params, case.cfg.clone(), &accel).unwrap();
    engine.per_cycle_idle = per_cycle;
    engine.observe(
        "idle",
        [
            Box::new(Arc::clone(&stream)) as Box<dyn EventSink>,
            Box::new(Arc::clone(&flight)),
        ],
    );
    engine.enable_timeline("idle");
    let outcome = engine.run(requests);
    let passes = prof
        .spans()
        .iter()
        .filter(|s| s.name == "serve.admit")
        .map(|s| s.count)
        .sum();
    let watched = Watched {
        outcome,
        stream: std::mem::take(&mut *stream.lock().unwrap()),
        flight: flight.lock().unwrap().to_json(),
        faults: faults.counters(),
    };
    (watched, passes)
}

/// Passes one run may take with no busy-wait: every pass either steps or
/// wakes for an event it then consumes — an arrival, a queue expiry, a
/// retry's backoff or deadline, a probe — plus the final pass.
fn event_bound(w: &Watched) -> u64 {
    let out = &w.outcome;
    let offered = out.completions.len() as u64;
    let probes = w.faults.get("faults.serve.probes").copied().unwrap_or(0);
    out.steps + 2 * offered + 2 * out.retries + probes + 1
}

/// Holds the jump to the reference on one case.
fn assert_jump_matches_reference(case: &Case) -> (u64, u64) {
    let (jump, passes) = run(case, false);
    let (reference, spun) = run(case, true);
    assert_eq!(jump.outcome, reference.outcome);
    assert_eq!(jump.stream, reference.stream);
    assert!(jump.flight == reference.flight, "flight dumps differ");
    assert_eq!(jump.faults, reference.faults);
    assert!(
        passes <= spun,
        "the jump ran {passes} passes, the reference {spun}"
    );
    assert!(
        passes <= event_bound(&jump),
        "{passes} passes for {} events",
        event_bound(&jump)
    );
    (passes, spun)
}

#[test]
fn idle_jump_matches_per_cycle_oracle_at_overload_tiny() {
    let (passes, spun) = assert_jump_matches_reference(&overload_tiny());
    // The case must keep exercising the blocked-retry wait.
    assert!(spun > 10 * passes, "reference {spun} passes, jump {passes}");
}

/// Pins the pass count so a busy-wait cannot come back unnoticed.
#[test]
fn scheduler_passes_are_bounded_by_events() {
    let (w, passes) = run(&overload_tiny(), false);
    let out = &w.outcome;
    println!(
        "overload_tiny seed 7: {passes} scheduler passes, {} steps, bound {}",
        out.steps,
        event_bound(&w)
    );
    assert!(passes <= event_bound(&w), "{passes} passes");
    assert!(
        passes <= 2 * out.steps,
        "{passes} passes for {} steps",
        out.steps
    );
}

proptest! {
    /// Whatever the capacity, retry and quarantine windows, fault rates,
    /// policy, controller cooldown and load, jumping over a blocked retry's
    /// wait is invisible: see [`assert_jump_matches_reference`].
    #[test]
    fn idle_jump_matches_per_cycle_oracle(
        seed in 0u64..1000,
        requests in 4usize..24,
        capacity in 1usize..=4,
        load in 1u32..=8,
        shed in 0usize..4,
        cooldown in 0u64..5,
        quarantine in 1u64..20_000,
        backoff in 1u64..5_000,
        retry_cap in 0usize..5,
        rates in proptest::collection::vec(0u32..=50, 3..4),
        fault_seed in 0u64..1000,
    ) {
        let opts = BenchOptions {
            seed,
            requests,
            capacity,
            ..BenchOptions::default()
        };
        let mut cfg = opts.serve_config(
            [ShedPolicy::QueueOnly, ShedPolicy::Retention, ShedPolicy::Slo, ShedPolicy::Slo][shed],
        );
        cfg.control.cooldown_steps = cooldown;
        cfg.quarantine_cycles = quarantine;
        cfg.retry_backoff_cycles = backoff;
        cfg.retry_cap = retry_cap;
        let plan = FaultSite::SERVE
            .iter()
            .zip(&rates)
            .fold(FaultPlan::new(fault_seed), |p, (&site, &pct)| {
                p.with_rate(site, f64::from(pct) / 100.0)
            });
        assert_jump_matches_reference(&Case {
            opts,
            load: f64::from(load),
            cfg,
            plan,
        });
    }
}
