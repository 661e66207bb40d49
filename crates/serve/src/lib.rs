//! Continuous-batching inference service with retention-based load
//! shedding (DOTA reproduction, serving layer).
//!
//! The DOTA accelerator's decode mode makes weak-attention omission a
//! *runtime* knob: lower retention means less K/V-cache DRAM traffic per
//! token, which means a faster token. This crate turns that knob into a
//! load-shedding policy for a batched inference service:
//!
//! - [`ServeEngine`] — a continuous-batching scheduler over the real
//!   incremental decode path ([`dota_transformer::Model::decode_rows`],
//!   one call per step): requests join at step boundaries, leave on
//!   completion/EOS/deadline, and every step's latency comes from a
//!   DRAM-traffic [`CostModel`] (weights streamed once per step, K/V per
//!   request) on the simulated 1 GHz cycle clock.
//! - [`ShedPolicy`] — under overload, either queue at full quality
//!   ([`ShedPolicy::QueueOnly`]) or admit at progressively sparser
//!   attention down a retention [ladder](ServeConfig::ladder)
//!   ([`ShedPolicy::Retention`]): trade a little per-request accuracy for
//!   a lot of tail latency.
//! - [`TrafficConfig`] — seeded heavy-tailed traffic, reproducible bit
//!   for bit.
//! - [`run_bench`] — the `dota serve --bench` sweep: load × policy grid,
//!   SLO histograms per cell, canonical byte-stable JSON
//!   ([`BenchReport`]) diffable with `dota report diff`.
//! - One event spine: the engine emits one typed, cycle-stamped
//!   [`ServeEvent`] per scheduler transition and names no observer; every
//!   view is an [`EventSink`] folding that stream
//!   ([`ServeEngine::observe`]), and [`StreamTotals`] reproduces a run's
//!   aggregates from the stream alone.
//! - [`TimelineRecorder`] / [`TimelineReport`] — request-scoped
//!   observability: a cycle-timestamped lifecycle record per request
//!   (queue → admit → prefill → per-step weight/K-V splits → terminal)
//!   exported as canonical `timeline.json` and as per-batch-slot Chrome
//!   tracks, joined with the cost model by `dota analyze --serve`.
//! - [`SloMonitor`] — rolling deadline-hit-rate and burn-rate at step
//!   boundaries on the simulated clock ([`ServeConfig::slo_window`]),
//!   surfaced as `serve.slo.*` counters, histograms and counter tracks.
//!
//! Determinism is load-bearing: the scheduler loop is serial, the rows of
//! a step's forward are independent (batch-mates never mix state), and
//! histograms aggregate in completion order — so reports are
//! byte-identical across `DOTA_THREADS` and serial vs `parallel` builds,
//! and the load-test suite can assert on exact bytes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chaos;
mod control;
mod cost;
mod engine;
mod forward;
mod report;
mod request;
mod slo;
mod spine;
mod timeline;
mod traffic;

pub use chaos::{run_chaos, ChaosCell, ChaosOptions, ChaosReport, SERVE_CHAOS_VERSION};
pub use control::{ControlConfig, ControlInputs, ControlSummary, Controller};
pub use cost::CostModel;
pub use dota_telemetry::{EventSink, ServeEvent, Transition};
pub use dota_transformer::WindowSelector;
pub use engine::{QuarantineSpan, ServeConfig, ServeEngine, ServeOutcome, ShedPolicy};
pub use report::{run_bench, BenchOptions, BenchReport, CellReport, SERVE_REPORT_VERSION};
pub use request::{Completion, DeadlineClass, FinishReason, Request};
pub use slo::{SloMonitor, SloWindow};
pub use spine::StreamTotals;
pub use timeline::{
    CellTimeline, RequestTimeline, StepRecord, TimelineConfig, TimelineRecorder, TimelineReport,
    TIMELINE_VERSION,
};
pub use traffic::TrafficConfig;

#[cfg(test)]
mod idle_tests;
#[cfg(test)]
mod never_panic;

#[cfg(test)]
mod prop_tests {
    //! Property tests for the scheduler invariants the service's claims
    //! rest on: bounded occupancy, FIFO-within-class admission, no
    //! starvation, and batch-mate independence of decoded tokens.

    use super::*;
    use crate::forward::{ModelForward, PREFILL_BLOCK};
    use dota_accel::AccelConfig;
    use dota_autograd::ParamSet;
    use dota_faults::{FaultPlan, FaultSite};
    use dota_transformer::{DecodeItem, DecodeScratch, KvCache, Model, TransformerConfig};
    use proptest::prelude::*;

    const SEQ: usize = 160;
    const VOCAB: usize = 12;

    fn model() -> (Model, ParamSet) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny_causal(SEQ, VOCAB), &mut params, 23);
        (model, params)
    }

    fn generous_cfg(capacity: usize, shed: ShedPolicy) -> ServeConfig {
        ServeConfig {
            capacity,
            queue_capacity: 1024,
            shed,
            // Deadlines far beyond any trace below: every request is
            // eventually admitted and served.
            interactive_deadline_us: 1e9,
            batch_deadline_us: 1e9,
            ..Default::default()
        }
    }

    /// `requests` served under [`generous_cfg`].
    fn serve(
        m: &(Model, ParamSet),
        capacity: usize,
        shed: ShedPolicy,
        requests: Vec<Request>,
    ) -> ServeOutcome {
        let engine = ServeEngine::new(
            &m.0,
            &m.1,
            generous_cfg(capacity, shed),
            &AccelConfig::default(),
        );
        engine.unwrap().run(requests)
    }

    /// Builds a valid request trace (sorted arrivals, shapes that fit the
    /// model) from one generated gap vector: each gap also seeds that
    /// request's prompt length, output budget and class, so one strategy
    /// exercises arrival bursts, shape mixes and class interleavings.
    /// Prompts come in three lengths by the host's prefill blocks: inside
    /// one block, across one block boundary, across three or four — so
    /// aborts, timeouts and evictions land with a look-ahead outstanding.
    fn trace_from(gaps: &[u64]) -> Vec<Request> {
        let mut now = 0u64;
        gaps.iter()
            .enumerate()
            .map(|(i, &gap)| {
                now += gap;
                let plen = match gap % 3 {
                    0 => 1 + (gap / 3 % 5) as usize,
                    1 => PREFILL_BLOCK + 1 + (gap / 3 % 24) as usize,
                    _ => 3 * PREFILL_BLOCK + 1 + (gap / 3 % 40) as usize,
                };
                let max_new = 1 + ((gap / 7) % 5) as usize;
                Request {
                    id: i as u64,
                    arrival: now,
                    prompt: (0..plen).map(|j| 1 + (i + j) % (VOCAB - 1)).collect(),
                    max_new,
                    eos: None,
                    class: if (gap / 3) % 2 == 0 {
                        DeadlineClass::Interactive
                    } else {
                        DeadlineClass::Batch
                    },
                }
            })
            .collect()
    }

    /// A plan arming every serve-layer fault site at `rate` per decision.
    fn all_sites(seed: u64, rate: f64) -> FaultPlan {
        FaultSite::SERVE
            .iter()
            .fold(FaultPlan::new(seed), |p, &site| p.with_rate(site, rate))
    }

    /// What one `decode_step` per token at `retention` generates for `req`
    /// outside any engine: the tokens a full service must deliver.
    fn offline_tokens(
        model: &Model,
        params: &ParamSet,
        req: &Request,
        retention: f64,
    ) -> Vec<usize> {
        let selector = WindowSelector::new(retention);
        let mut cache = KvCache::new(model.config().n_layers, model.config().d_model);
        let mut scratch = DecodeScratch::default();
        let mut tokens = Vec::new();
        for consumed in 0..req.prompt.len() + req.max_new - 1 {
            let input = match req.prompt.get(consumed) {
                Some(&t) => t,
                None => *tokens.last().expect("the last prompt position emits"),
            };
            let step = DecodeItem {
                cache: &mut cache,
                tokens: &[input],
                selector: &selector,
            };
            let out = model.decode_rows_in(params, &mut [step], &mut scratch);
            if consumed + 1 >= req.prompt.len() {
                tokens.push(dota_tensor::ops::argmax_rows(out.logits)[0]);
            }
        }
        tokens
    }

    /// Holds a run recorded with a timeline to the offline oracle: a served
    /// request delivers exactly the offline tokens of its admitted
    /// retention, an evicted one a prefix of them; and over a request's
    /// surviving steps `StepRecord::context` counts 1, 2, 3, … — positions
    /// the simulated machine consumed, not the host's `cache.len()`, which
    /// runs ahead by up to a block.
    fn assert_matches_offline(
        model: &Model,
        params: &ParamSet,
        requests: &[Request],
        out: &ServeOutcome,
    ) {
        let timelines = out.timeline.as_deref().expect("recorded with a timeline");
        for c in out.completions.iter().filter(|c| c.admit.is_some()) {
            let req = requests.iter().find(|r| r.id == c.id).unwrap();
            let offline = offline_tokens(model, params, req, c.retention);
            if c.reason.is_served() {
                assert_eq!(
                    c.tokens, offline,
                    "request {} ({} retries)",
                    c.id, c.retries
                );
            } else {
                assert!(
                    offline.starts_with(&c.tokens),
                    "request {} ended {:?}",
                    c.id,
                    c.reason
                );
            }
            let tl = timelines.iter().find(|tl| tl.id == c.id).unwrap();
            let consumed: Vec<u64> = tl
                .steps
                .iter()
                .map(|s| s.context)
                .filter(|&t| t > 0)
                .collect();
            let counted: Vec<u64> = (1..=consumed.len() as u64).collect();
            assert_eq!(
                consumed, counted,
                "request {}: context is not a position count",
                c.id
            );
            if c.reason.is_served() {
                assert_eq!(consumed.len(), req.prompt.len() + c.tokens.len() - 1);
            }
        }
    }

    /// Runs `requests` watched (timeline, raw event stream), inside a
    /// fault session armed with `plan`.
    fn run_captured(
        model: &Model,
        params: &ParamSet,
        cfg: ServeConfig,
        requests: &[Request],
        plan: FaultPlan,
    ) -> (ServeOutcome, Vec<ServeEvent>) {
        let cost = CostModel::new(&AccelConfig::default(), model.config());
        let engine = crate::engine::Core::new(cfg, cost, ModelForward::new(model, params));
        let (w, _) = crate::idle_tests::watch(engine, &plan, requests.to_vec(), false);
        (w.outcome, w.stream)
    }

    /// `true` when some step of the stream was discarded (an abort or a
    /// timeout: context 0) after its request had consumed a number of
    /// positions strictly inside a prefill block of its prompt — that is,
    /// with host look-ahead outstanding.
    fn discarded_mid_block(requests: &[Request], stream: &[ServeEvent]) -> bool {
        let mut consumed = std::collections::BTreeMap::new();
        stream.iter().any(|ev| match ev.what {
            Transition::Admitted { id, .. } => {
                consumed.insert(id, 0);
                false
            }
            Transition::SlotStep { id, step } if step.context > 0 => {
                consumed.insert(id, step.context as usize);
                false
            }
            Transition::SlotStep { id, .. } => {
                let prompt = &requests.iter().find(|r| r.id == id).unwrap().prompt;
                consumed[&id] % PREFILL_BLOCK != 0 && consumed[&id] < prompt.len()
            }
            _ => false,
        })
    }

    /// Each way an attempt can be cut short — a `kv.corrupt` or `slot.fail`
    /// abort, a `decode.timeout` repeat, a deadline eviction — does land
    /// while the host holds look-ahead (mid-block, inside a long prompt),
    /// and none of them leaks into what is delivered or recorded.
    #[test]
    fn aborts_repeats_and_evictions_land_mid_block() {
        let (model, params) = model();
        let requests = trace_from(&[2, 5, 1, 8, 4, 2]);
        assert!(requests.iter().all(|r| r.prompt.len() > PREFILL_BLOCK));
        let cfg = generous_cfg(2, ShedPolicy::Retention);
        for (site, rate) in [
            (FaultSite::KvCorrupt, 0.01),
            (FaultSite::SlotFail, 0.01),
            (FaultSite::DecodeTimeout, 0.05),
        ] {
            let mut seen = false;
            for seed in 0..4 {
                let plan = FaultPlan::new(seed).with_rate(site, rate);
                let (out, stream) = run_captured(&model, &params, cfg.clone(), &requests, plan);
                assert_matches_offline(&model, &params, &requests, &out);
                assert!(out.served() > 0, "{site:?}: nothing served at seed {seed}");
                seen |= discarded_mid_block(&requests, &stream);
            }
            assert!(seen, "{site:?} never fired mid-block");
        }

        // 20 µs is a few dozen steps: nobody finishes a 97-token prompt.
        let tight = ServeConfig {
            interactive_deadline_us: 20.0,
            batch_deadline_us: 20.0,
            ..cfg
        };
        let (out, _) = run_captured(&model, &params, tight, &requests, FaultPlan::new(0));
        assert_matches_offline(&model, &params, &requests, &out);
        let timelines = out.timeline.as_deref().unwrap();
        assert!(
            timelines.iter().any(|tl| {
                let prompt = &requests.iter().find(|r| r.id == tl.id).unwrap().prompt;
                tl.reason == FinishReason::DeadlineEvicted
                    && tl.steps.len() % PREFILL_BLOCK != 0
                    && tl.steps.len() < prompt.len()
            }),
            "no eviction landed mid-block"
        );
    }

    proptest! {
        /// Whatever the capacity, policy, deadlines and injected faults,
        /// what the engine delivers and records is what offline per-token
        /// generation says (see [`assert_matches_offline`]).
        #[test]
        fn served_tokens_match_offline_generation_oracle(
            gaps in proptest::collection::vec(0u64..3000, 1..7),
            capacity in 1usize..4,
            shed in 0usize..2,
            deadline_us in 10u32..400,
            fault_seed in 0u64..1000,
            rate in 0usize..4,
        ) {
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let cfg = ServeConfig {
                capacity,
                shed: [ShedPolicy::QueueOnly, ShedPolicy::Retention][shed],
                interactive_deadline_us: f64::from(deadline_us),
                batch_deadline_us: f64::from(deadline_us) * 4.0,
                ..Default::default()
            };
            let plan = all_sites(fault_seed, [0.0, 0.002, 0.01, 0.05][rate]);
            let (out, _) = run_captured(&model, &params, cfg, &requests, plan);
            assert_matches_offline(&model, &params, &requests, &out);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Occupancy never exceeds capacity and every offered request
        /// terminates exactly once.
        #[test]
        fn occupancy_bounded_and_conservation(
            gaps in proptest::collection::vec(0u64..3000, 1..25),
            capacity in 1usize..5,
        ) {
            let requests = trace_from(&gaps);
            let m = model();
            let n = requests.len();
            let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
            let out = serve(&m, capacity, ShedPolicy::Retention, requests);
            prop_assert!(out.max_occupancy <= capacity);
            prop_assert_eq!(out.completions.len(), n);
            let mut seen: Vec<u64> = out.completions.iter().map(|c| c.id).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, ids);
        }

        /// With generous deadlines nobody starves: every request is
        /// admitted and served in full.
        #[test]
        fn no_starvation_under_generous_deadlines(
            gaps in proptest::collection::vec(0u64..3000, 1..21),
            capacity in 1usize..4,
        ) {
            let requests = trace_from(&gaps);
            let m = model();
            let out = serve(&m, capacity, ShedPolicy::Retention, requests);
            for c in &out.completions {
                prop_assert!(c.reason.is_served(), "request {} ended {:?}", c.id, c.reason);
                prop_assert!(c.admit_seq.is_some());
            }
        }

        /// Admission is FIFO within a deadline class: among admitted
        /// requests of one class, admission order follows arrival order
        /// (ties broken by offer order, which ids encode).
        #[test]
        fn admission_is_fifo_within_class(
            gaps in proptest::collection::vec(0u64..3000, 1..21),
            capacity in 1usize..4,
        ) {
            let requests = trace_from(&gaps);
            let m = model();
            let out = serve(&m, capacity, ShedPolicy::QueueOnly, requests);
            for class in [DeadlineClass::Interactive, DeadlineClass::Batch] {
                let mut admitted: Vec<&Completion> = out
                    .completions
                    .iter()
                    .filter(|c| c.class == class && c.admit_seq.is_some())
                    .collect();
                admitted.sort_by_key(|c| c.admit_seq.unwrap());
                for w in admitted.windows(2) {
                    prop_assert!(
                        (w[0].arrival, w[0].id) < (w[1].arrival, w[1].id),
                        "class {:?}: {} (arrival {}) admitted before {} (arrival {})",
                        class, w[0].id, w[0].arrival, w[1].id, w[1].arrival
                    );
                }
            }
        }

        /// The timeline's per-step attended counts are exactly the
        /// retention window's sizes: for every step with post-append
        /// context `t`, `attended == layers · heads · window_count(r, t)`
        /// and `omitted` is its dense complement — so `dota analyze
        /// --serve`'s ladder-consistency audit holds by construction, not
        /// by luck, and each request's cycle decomposition tiles its
        /// recorded residence exactly.
        #[test]
        fn timeline_attended_counts_match_selector_windows(
            gaps in proptest::collection::vec(0u64..800, 1..17),
            capacity in 1usize..4,
        ) {
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let cfg = generous_cfg(capacity, ShedPolicy::Retention);
            let ladder = cfg.ladder.clone();
            let (out, _) = run_captured(&model, &params, cfg, &requests, FaultPlan::new(0));
            let lh = (model.config().n_layers * model.config().n_heads) as u64;
            for tl in out.timeline.as_deref().unwrap() {
                prop_assert!(ladder.contains(&tl.retention), "retention {} off-ladder", tl.retention);
                for step in &tl.steps {
                    let t = step.context;
                    let window = dota_tensor::topk::window_count(tl.retention, t as usize) as u64;
                    prop_assert_eq!(step.attended, lh * window, "req {} t={}", tl.id, t);
                    prop_assert_eq!(step.attended + step.omitted, lh * t);
                    prop_assert!(
                        step.weight_cycles + step.kv_cycles <= step.cycles,
                        "req {}: own weight + KV share cannot exceed the step",
                        tl.id
                    );
                }
                let step_sum: u64 = tl.steps.iter().map(|s| s.attended).sum();
                prop_assert_eq!(tl.attended_total(), step_sum);
                prop_assert_eq!(
                    tl.queue_cycles() + tl.prefill_cycles() + tl.decode_cycles(),
                    tl.e2e_cycles(),
                    "req {}: phase decomposition must tile e2e", tl.id
                );
                prop_assert_eq!(
                    tl.weight_cycles() + tl.kv_cycles() + tl.hol_cycles(),
                    tl.prefill_cycles() + tl.decode_cycles(),
                    "req {}: service decomposition must tile in-slot time", tl.id
                );
            }
        }

        /// A request's tokens are a function of its own prompt and
        /// retention only — never of who shared its batch. Serving a
        /// request alongside arbitrary traffic yields bit-identical
        /// output to serving it alone.
        #[test]
        fn tokens_independent_of_batch_mates(
            gaps in proptest::collection::vec(0u64..3000, 1..13),
            capacity in 2usize..5,
        ) {
            let requests = trace_from(&gaps);
            let m = model();
            // QueueOnly pins retention at ladder[0] for everyone, so the
            // solo run is admitted at the same retention as the shared run.
            let shared = serve(&m, capacity, ShedPolicy::QueueOnly, requests.clone());
            for req in &requests {
                let solo_req = Request { arrival: 0, ..req.clone() };
                let solo = serve(&m, capacity, ShedPolicy::QueueOnly, vec![solo_req]);
                let shared_c = shared.completions.iter().find(|c| c.id == req.id).unwrap();
                prop_assert_eq!(&shared_c.tokens, &solo.completions[0].tokens);
            }
        }

        /// Conservation survives fault injection: under a random plan
        /// arming every serve-layer site, each offered request still
        /// terminates exactly once, occupancy stays bounded, and the
        /// served/failed split is clean (served requests have tokens,
        /// failed ones have none).
        #[test]
        fn faults_preserve_exactly_one_terminal(
            gaps in proptest::collection::vec(0u64..3000, 1..17),
            capacity in 1usize..4,
            fault_seed in 0u64..1000,
            rate in 0usize..5,
        ) {
            let requests = trace_from(&gaps);
            let m = model();
            let n = requests.len();
            let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
            // Per position and site: from "long prompts mostly get through,
            // hit somewhere mid-block" to "nothing survives a few steps".
            let rate = [0.0, 0.002, 0.01, 0.05, 0.3][rate];
            let _session = dota_faults::session(all_sites(fault_seed, rate));
            let out = serve(&m, capacity, ShedPolicy::Retention, requests);
            prop_assert!(out.max_occupancy <= capacity);
            prop_assert_eq!(out.completions.len(), n);
            let mut seen: Vec<u64> = out.completions.iter().map(|c| c.id).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, ids);
            for c in &out.completions {
                match c.reason {
                    FinishReason::Completed | FinishReason::Eos =>
                        prop_assert!(!c.tokens.is_empty(), "served {} has no tokens", c.id),
                    FinishReason::Failed =>
                        prop_assert!(c.tokens.is_empty(), "failed {} kept tokens", c.id),
                    _ => {}
                }
            }
        }

        /// One stream, many views: under a random config, trace and fault
        /// plan, folding the captured event stream *alone* reproduces the
        /// run's outcome — its aggregates as sums, exactly one terminal
        /// per offered id matching its completion, the timeline as the
        /// stream grouped by id, the flight ring as its filtered tail —
        /// and watching changes nothing: the unobserved run's outcome is
        /// identical. No observer can see something the others cannot.
        #[test]
        fn event_stream_alone_reproduces_the_outcome(
            gaps in proptest::collection::vec(0u64..3000, 1..17),
            capacity in 1usize..4,
            shed in 0usize..3,
            deadline_us in 2u32..80,
            fault_seed in 0u64..1000,
            rate_pct in 0u32..30,
        ) {
            use dota_telemetry::{flight_kind, EventSink, FlightRecorder, ServeEvent, Transition};
            use std::sync::{Arc, Mutex};

            let requests = trace_from(&gaps);
            let (model, params) = model();
            let cfg = ServeConfig {
                capacity,
                queue_capacity: 2 + capacity,
                shed: [ShedPolicy::QueueOnly, ShedPolicy::Retention, ShedPolicy::Slo][shed],
                interactive_deadline_us: f64::from(deadline_us),
                batch_deadline_us: f64::from(deadline_us) * 4.0,
                slo_window: 4,
                ..Default::default()
            };
            let rate = f64::from(rate_pct) / 100.0;
            let _session = dota_faults::session(all_sites(fault_seed, rate));
            let engine = || ServeEngine::new(&model, &params, cfg.clone(), &AccelConfig::default()).unwrap();

            let stream = Arc::new(Mutex::new(Vec::<ServeEvent>::new()));
            let ring = FlightRecorder::shared(8);
            let mut observed = engine();
            observed.observe("prop", [
                Box::new(Arc::clone(&stream)) as Box<dyn EventSink>,
                Box::new(Arc::clone(&ring)),
            ]);
            observed.enable_timeline("prop");
            let mut out = observed.run(requests.clone());
            let stream = std::mem::take(&mut *stream.lock().unwrap());

            let mut totals = StreamTotals::default();
            let mut regrouped = TimelineRecorder::new("fold");
            for ev in &stream {
                totals.on(ev);
                regrouped.on(ev);
            }
            prop_assert_eq!(totals.offered as usize, requests.len());
            prop_assert_eq!(totals.steps, out.steps);
            prop_assert_eq!(totals.cycles, out.total_cycles);
            prop_assert_eq!(totals.tokens, out.tokens);
            prop_assert_eq!(totals.occupancy_sum, out.occupancy_sum);
            prop_assert_eq!(totals.max_occupancy as usize, out.max_occupancy);
            prop_assert_eq!(totals.queue_depth_max as usize, out.queue_depth_max);
            prop_assert_eq!(totals.degraded, out.degraded);
            prop_assert_eq!(totals.served as usize, out.served());
            prop_assert_eq!(totals.retries, out.retries);
            prop_assert_eq!(totals.failed, out.failed);
            prop_assert_eq!(totals.timeout_steps, out.timeout_steps);
            prop_assert_eq!(totals.quarantine_events, out.quarantine_events);
            prop_assert_eq!((totals.slo_hits, totals.slo_misses), (out.slo_hits, out.slo_misses));

            let terminals: Vec<_> = stream
                .iter()
                .filter_map(|ev| match ev.what {
                    Transition::Terminal { id, reason, tokens, .. } => Some((id, reason, ev.cycle, tokens)),
                    _ => None,
                })
                .collect();
            let completed: Vec<_> = out
                .completions
                .iter()
                .map(|c| (c.id, c.reason, c.finish, c.tokens.len() as u64))
                .collect();
            prop_assert_eq!(terminals, completed);

            let timeline = out.timeline.take();
            prop_assert_eq!(Some(regrouped.into_requests()), timeline);

            let kept: Vec<&ServeEvent> =
                stream.iter().filter(|ev| flight_kind(&ev.what).is_some()).collect();
            let ring = ring.lock().unwrap();
            prop_assert_eq!(ring.recorded() as usize, kept.len());
            let tail = &kept[kept.len() - ring.len()..];
            for (held, ev) in ring.events().zip(tail) {
                prop_assert_eq!(&held.event, *ev);
            }
            prop_assert_eq!(ring.len(), kept.len().min(8));

            prop_assert_eq!(engine().run(requests), out);
        }

        /// Retries never corrupt output: a request served under fault
        /// injection — however many attempts it took — emits a token
        /// stream bit-identical to a fault-free solo run. Aborted
        /// attempts' partial tokens are discarded, never leaked.
        #[test]
        fn retried_tokens_match_fault_free_run(
            gaps in proptest::collection::vec(0u64..3000, 1..9),
            capacity in 2usize..4,
            fault_seed in 0u64..1000,
        ) {
            let requests = trace_from(&gaps);
            let m = model();
            // QueueOnly pins retention at ladder[0], so the fault-free
            // solo run is admitted at the same retention as the faulted
            // shared run (retries re-pin the original level anyway). At 1 %
            // per position and site a 100-token prompt is usually hit
            // somewhere inside a block and still often served on a retry.
            let faulted = {
                let _session = dota_faults::session(all_sites(fault_seed, 0.01));
                serve(&m, capacity, ShedPolicy::QueueOnly, requests.clone())
            };
            for req in &requests {
                let c = faulted.completions.iter().find(|c| c.id == req.id).unwrap();
                if !c.reason.is_served() {
                    continue;
                }
                let solo_req = Request { arrival: 0, ..req.clone() };
                let solo = serve(&m, capacity, ShedPolicy::QueueOnly, vec![solo_req]);
                prop_assert_eq!(
                    &c.tokens, &solo.completions[0].tokens,
                    "request {} ({} retries) diverged from its fault-free run",
                    req.id, c.retries
                );
            }
        }

        /// Quarantined lanes are out of rotation: no request is admitted
        /// into a lane inside one of its quarantine windows (re-admission
        /// at the window's closing probe cycle is the first legal use).
        #[test]
        fn quarantined_lanes_receive_no_admissions(
            gaps in proptest::collection::vec(0u64..2000, 1..13),
            capacity in 2usize..4,
            fault_seed in 0u64..1000,
        ) {
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let plan = FaultPlan::new(fault_seed).with_rate(FaultSite::SlotFail, 0.3);
            let cfg = generous_cfg(capacity, ShedPolicy::Retention);
            let (out, _) = run_captured(&model, &params, cfg, &requests, plan);
            let timelines = out.timeline.as_deref().unwrap();
            for span in &out.quarantine_log {
                // A lane quarantined on the run's last cycle closes empty
                // (from == until) at run end.
                prop_assert!(span.from <= span.until);
                for tl in timelines {
                    if let (Some(lane), Some(admit)) = (tl.lane, tl.admit) {
                        prop_assert!(
                            lane != span.lane || admit < span.from || admit >= span.until,
                            "request {} admitted into lane {} at {} inside quarantine [{}, {})",
                            tl.id, lane, admit, span.from, span.until
                        );
                    }
                }
            }
        }
    }
}
