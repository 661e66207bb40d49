//! The engine's oracles over random configurations × traffic × fault plans
//! ([`Cases`]). The idle jump against its per-cycle reference: the same
//! engine with its idle rule switched to the one-cycle wait it replaced
//! (`Core::per_cycle_idle`): a ready retry blocked on quarantined lanes
//! stays a wake-up in the past, so the clock advances one cycle per full
//! scheduler pass and the controller observes every one of them for real.
//! The jump must leave everything a run can be watched by unchanged — the
//! outcome (controller summary and quarantine log included), the timeline,
//! the raw event stream, the flight dump and the fault counters — while
//! running at most one pass per scheduler event. And the decision core
//! against a [`Scripted`] forward replaying a model-driven run.

use crate::engine::Core;
use crate::forward::{Answer, Forward, ModelForward};
use crate::report::{bench_model, bench_traffic, BenchOptions};
use crate::{CostModel, EventSink, Request, ServeConfig, ServeEvent, ServeOutcome, ShedPolicy};
use dota_accel::AccelConfig;
use dota_faults::{FaultPlan, FaultSite};
use dota_telemetry::FlightRecorder;
use dota_transformer::Model;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// One run configuration: `run_bench`'s model and traffic for `opts` at
/// `load`, served under `cfg` inside a fault session armed with `plan`.
pub(crate) struct Case {
    pub(crate) opts: BenchOptions,
    pub(crate) load: f64,
    pub(crate) cfg: ServeConfig,
    pub(crate) plan: FaultPlan,
}

/// Everything one run can be watched by.
pub(crate) struct Watched {
    pub(crate) outcome: ServeOutcome,
    pub(crate) stream: Vec<ServeEvent>,
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

/// Runs `requests` on `engine`, every observer attached, in a fault session
/// armed with `plan`, the idle rule as shipped or its per-cycle reference;
/// also returns the scheduler passes (one `serve.admit` span each).
pub(crate) fn watch(
    mut engine: Core<impl Forward>,
    plan: &FaultPlan,
    requests: Vec<Request>,
    per_cycle: bool,
) -> (Watched, u64) {
    let prof = dota_prof::session("idle");
    let faults = dota_faults::session(plan.clone());
    let stream = Arc::new(Mutex::new(Vec::<ServeEvent>::new()));
    let flight = FlightRecorder::shared(1 << 12);
    flight.lock().unwrap().begin_cell("idle");
    engine.per_cycle_idle = per_cycle;
    engine.spine.attach(
        "idle",
        [
            Box::new(Arc::clone(&stream)) as Box<dyn EventSink>,
            Box::new(Arc::clone(&flight)),
        ],
    );
    engine.spine.enable_timeline("idle");
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

/// `case` on a core over `fw`, watched (see [`watch`]).
fn run(case: &Case, model: &Model, fw: impl Forward, per_cycle: bool) -> (Watched, u64) {
    let cost = CostModel::new(&AccelConfig::default(), model.config());
    let engine = Core::new(case.cfg.clone(), cost, fw);
    let requests = bench_traffic(&case.opts, case.load).generate();
    watch(engine, &case.plan, requests, per_cycle)
}

/// [`run`] on the model forward.
pub(crate) fn run_model(case: &Case, per_cycle: bool) -> (Watched, u64) {
    let (model, params) = bench_model(&case.opts);
    run(case, &model, ModelForward::new(&model, &params), per_cycle)
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
    let (jump, passes) = run_model(case, false);
    let (reference, spun) = run_model(case, true);
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
    let (w, passes) = run_model(&overload_tiny(), false);
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

/// Random configurations × traffic × fault plans: capacity, retry and
/// quarantine windows, fault rates, policy, controller cooldown and load.
pub(crate) struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        use ShedPolicy::{QueueOnly, Retention, Slo};
        let opts = BenchOptions {
            seed: (0u64..1000).generate(rng),
            requests: (4usize..24).generate(rng),
            capacity: (1usize..=4).generate(rng),
            ..BenchOptions::default()
        };
        let load = f64::from((1u32..=8).generate(rng));
        let shed = [QueueOnly, Retention, Slo, Slo][(0usize..4).generate(rng)];
        let mut cfg = opts.serve_config(shed);
        cfg.control.cooldown_steps = (0u64..5).generate(rng);
        cfg.quarantine_cycles = (1u64..20_000).generate(rng);
        cfg.retry_backoff_cycles = (1u64..5_000).generate(rng);
        cfg.retry_cap = (0usize..5).generate(rng);
        let rates = proptest::collection::vec(0u32..=50, 3..4).generate(rng);
        let plan = FaultSite::SERVE.iter().zip(&rates).fold(
            FaultPlan::new((0u64..1000).generate(rng)),
            |p, (&site, &pct)| p.with_rate(site, f64::from(pct) / 100.0),
        );
        Case {
            opts,
            load,
            cfg,
            plan,
        }
    }
}

/// The model forward logging each lane's answers (`model` set), or those
/// logs answering alone, with no model in the loop.
struct Scripted<'a, 'm> {
    model: Option<ModelForward<'m>>,
    log: &'a mut BTreeMap<usize, VecDeque<Answer>>,
    dense: u64,
}

impl Forward for Scripted<'_, '_> {
    fn runnable(&self, req: &Request) -> bool {
        // Every request `Cases` offers fits the model.
        self.model.as_ref().is_none_or(|model| model.runnable(req))
    }

    fn dense_connections(&self) -> u64 {
        self.dense
    }

    fn admit(&mut self, lane: usize, req: &Request, retention: f64) {
        if let Some(model) = &mut self.model {
            model.admit(lane, req, retention);
        }
    }

    fn advance(&mut self, lanes: &[usize], out: &mut Vec<Answer>) {
        let Some(model) = &mut self.model else {
            out.clear();
            for lane in lanes {
                out.extend(self.log.get_mut(lane).and_then(VecDeque::pop_front));
            }
            return;
        };
        model.advance(lanes, out);
        for (&lane, &answer) in lanes.iter().zip(out.iter()) {
            self.log.entry(lane).or_default().push_back(answer);
        }
    }
}

proptest! {
    /// Whatever the capacity, retry and quarantine windows, fault rates,
    /// policy, controller cooldown and load, jumping over a blocked retry's
    /// wait is invisible: see [`assert_jump_matches_reference`].
    #[test]
    fn idle_jump_matches_per_cycle_oracle(case in Cases) {
        assert_jump_matches_reference(&case);
    }

    /// The core reads the forward only through its answers: replaying each
    /// lane's `(attended, token)` from a model-driven run, with no model in
    /// the loop, reproduces its outcome, raw event stream and flight dump.
    #[test]
    fn scripted_forward_replays_model_run_oracle(case in Cases) {
        let (model, params) = bench_model(&case.opts);
        let fw = ModelForward::new(&model, &params);
        let (dense, mut log) = (fw.dense_connections(), BTreeMap::new());
        let record = Scripted { model: Some(fw), log: &mut log, dense };
        let (recorded, _) = run(&case, &model, record, false);
        let (replayed, _) = run(&case, &model, Scripted { model: None, log: &mut log, dense }, false);
        assert_eq!(replayed.outcome, recorded.outcome);
        assert_eq!(replayed.stream, recorded.stream);
        assert!(replayed.flight == recorded.flight, "flight dumps differ");
    }
}
