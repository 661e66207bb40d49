//! `serve_overload_tiny`: the real `dota serve --bench` path
//! (`dota_serve::run_bench` plus `BenchReport::to_json`) on the tiny model
//! every committed `results/serve_*` baseline uses — 100 requests at load
//! 4.0, shed policy `slo`, inside a fault session
//! `slot.fail=0.05,kv.corrupt=0.02,decode.timeout=0.05`.
//!
//! A round is a block of 50 seeded episodes served **plain** (no timeline,
//! flight ring, gauges or sessions) and then the same episodes **observed**
//! (timeline + `FlightRecorder` + `ServeGauges` + live `dota_trace` and
//! `dota_metrics` sessions, one `exposition::render` per 10 episodes). The
//! block is short so that a run repeats it many times: an episode is a fine
//! chunk (25 ms), and its fastest of nine repeats shrugs off a slow phase of
//! the host that its fastest of four does not. Contexts
//! stay <= 16 and d = 32, so nothing here scales with cache length or
//! FLOPs: host time is `decode_step`'s fixed per-call cost, the observers,
//! and `serve`'s controller/SLO/retry/quarantine bookkeeping under faults.
//! It uses `serve` and `transformer` the opposite way from `serve_longctx`
//! (many short requests, shedding + faults + observers), so a gain for one
//! that costs the other shows. A KV-cache or gather change should read
//! **no change** here.
//!
//! All serve clocks are simulated; arrivals are an open-loop schedule on
//! that clock (generator lateness 0 by construction) and the host is one
//! closed-loop caller.

use super::serve_support::{check_outcome, replay_run, SimStats, CLOCKS_NOTE};
use super::{rounds, ByMode, Fastest, Round, RunArgs, SetupTimer};
use crate::host::Digest;
use crate::metrics::Outcome;
use crate::spans::{self, Layer};
use crate::stats::median;
use dota_accel::AccelConfig;
use dota_autograd::ParamSet;
use dota_faults::{FaultGuard, FaultPlan};
use dota_serve::{
    run_bench, BenchOptions, BenchReport, ServeConfig, ServeEngine, ShedPolicy, TrafficConfig,
};
use dota_telemetry::{exposition, FlightRecorder, ServeGauges};
use dota_transformer::{DenseDecode, KvCache, Model, TransformerConfig};
use std::sync::{Arc, PoisonError};
use std::time::Instant;

const FAULTS: &str = "slot.fail=0.05,kv.corrupt=0.02,decode.timeout=0.05";
const LOAD: f64 = 4.0;
/// Ring size of the CLI's flight recorder.
const FLIGHT_CAPACITY: usize = 65_536;
/// Times the twin run and its replay are repeated in the traced run.
const REPEATS: usize = 3;

struct Sizes {
    requests: usize,
    /// Episodes per block; a round is one plain and one observed block.
    block: usize,
    /// Observed episodes sharing one trace + histogram session, one
    /// flight ring and one `exposition::render`.
    session_episodes: usize,
    /// Batches of set-ups timed before and again after the loop.
    setup_batches: usize,
    /// Episodes of round 0 replayed standalone in the traced run.
    replay_episodes: usize,
}

fn options(sz: &Sizes, seed: u64) -> BenchOptions {
    BenchOptions {
        seed,
        requests: sz.requests,
        loads: vec![LOAD],
        sheds: vec![ShedPolicy::Slo],
        ..BenchOptions::default()
    }
}

fn fault_session(seed: u64) -> FaultGuard {
    let plan: FaultPlan =
        FaultPlan::parse_spec(seed, FAULTS).expect("the fault spec is a constant");
    dota_faults::session(plan)
}

/// One episode on the plain path: the bench sweep and its JSON report.
fn plain_episode(sz: &Sizes, seed: u64) -> Result<(BenchReport, String, u64), String> {
    let faults = fault_session(seed);
    let report = {
        let _g = spans::enter("serve.run_bench", Layer::Serve);
        run_bench(options(sz, seed))?
    };
    let json = {
        let _g = spans::enter("serve.to_json", Layer::Serve);
        report.to_json()
    };
    Ok((report, json, faults.injected_total()))
}

/// What a block's observers saw.
struct Observed {
    flight_events: u64,
    counter_names: u64,
    hist_observations: u64,
    /// (sum of step contexts, steps) from the observed timelines.
    context: (u64, u64),
}

/// The tiny model, traffic and engine configuration `run_bench` builds
/// internally, rebuilt from public pieces so one episode can be replayed.
struct Twin {
    model: Model,
    params: ParamSet,
    cfg: ServeConfig,
    requests: Vec<dota_serve::Request>,
}

/// The model and the trace `run_bench` builds from `o` (its arrival gaps
/// are calibrated per load; `mean_gap_cycles` supplies that value).
fn model_and_traffic(
    o: &BenchOptions,
    mean_gap_cycles: f64,
) -> (Model, ParamSet, Vec<dota_serve::Request>) {
    let mut params = ParamSet::new();
    let model = Model::init(
        TransformerConfig::tiny_causal(o.seq, o.vocab),
        &mut params,
        o.seed,
    );
    let requests = TrafficConfig {
        requests: o.requests,
        seed: o.seed,
        mean_gap_cycles,
        prompt_len: o.prompt_len,
        new_tokens: o.new_tokens,
        interactive_fraction: o.interactive_fraction,
        vocab: o.vocab,
        eos: None,
    }
    .generate();
    (model, params, requests)
}

fn twin(report: &BenchReport) -> Twin {
    let o = &report.options;
    let (model, params, requests) = model_and_traffic(o, report.cells[0].mean_gap_cycles);
    let cfg = ServeConfig {
        capacity: o.capacity,
        queue_capacity: o.queue_capacity,
        shed: report.cells[0].shed,
        ladder: o.ladder.clone(),
        interactive_deadline_us: o.interactive_deadline_us,
        batch_deadline_us: o.batch_deadline_us,
        slo_window: o.slo_window,
        ..ServeConfig::default()
    };
    Twin {
        model,
        params,
        cfg,
        requests,
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sz = if args.check {
        Sizes {
            requests: 40,
            block: 4,
            session_episodes: 2,
            setup_batches: 1,
            replay_episodes: 2,
        }
    } else {
        Sizes {
            requests: 100,
            block: 50,
            session_episodes: 10,
            setup_batches: 4,
            replay_episodes: 5,
        }
    };
    let mut out = Outcome::default();
    // Set-up is what `run_bench` does before it serves: validate the
    // options, arm the fault plan, build the model and generate the trace
    // — plus one warm-up decode step. (Inside the timed op all of that is
    // paid again per episode, as `dota serve --bench` pays it.)
    let one_setup = || -> Result<usize, String> {
        let opts = options(&sz, args.seed);
        opts.validate()?;
        let _faults = fault_session(args.seed);
        let (model, params, requests) = model_and_traffic(&opts, 1_000.0);
        let mut cache = KvCache::new(model.config().n_layers, model.config().d_model);
        std::hint::black_box(model.decode_step(
            &params,
            &mut cache,
            requests[0].prompt[0],
            &DenseDecode,
        ));
        Ok(requests.len())
    };
    let mut setups = SetupTimer::new();
    setups.batch(sz.setup_batches, one_setup)?;

    // Episode seeds of the block; every round serves the same block.
    let seeds: Vec<u64> = (0..sz.block as u64)
        .map(|e| args.seed.wrapping_mul(1_000_003).wrapping_add(e))
        .collect();
    // Chunks: plain episodes 0..block, then observed episodes 0..block.
    let mut episodes = ByMode::default();
    let mut render_s = Fastest::default();
    let mut json_s = Fastest::default();
    let mut digests = Vec::new();
    let mut sim = SimStats::default();
    let mut faults_injected = 0u64;
    let mut observed: Option<Observed> = None;
    let mut reports: Vec<BenchReport> = Vec::new();

    let t_loop = Instant::now();
    let n_rounds = rounds(args, |r: Round| {
        let first = r.index == 0;
        let first_span = spans::count();
        let mut digest = Digest::default();
        let mut chunk_s = Vec::with_capacity(2 * sz.block);
        let mut plain_json = Vec::with_capacity(sz.block);
        for &seed in &seeds {
            spans::next_op();
            let t0 = Instant::now();
            let (report, json, injected) =
                plain_episode(&sz, seed).expect("set-up validated the same options");
            chunk_s.push(t0.elapsed().as_secs_f64());
            digest.bytes(json.as_bytes());
            if first {
                sim.add_cell(&report.cells[0]);
                faults_injected += injected;
                if reports.len() < sz.replay_episodes {
                    reports.push(report);
                }
            }
            plain_json.push(json);
        }

        // The same episodes with every observer the CLI can attach. The
        // sessions are reopened every few episodes: a live trace session
        // buffers every event it sees.
        let mut seen = Observed {
            flight_events: 0,
            counter_names: 0,
            hist_observations: 0,
            context: (0, 0),
        };
        let mut renders = Vec::new();
        for (b, block) in seeds.chunks(sz.session_episodes).enumerate() {
            let sessions = {
                let _g = spans::enter("telemetry.sessions_open", Layer::Telemetry);
                (
                    dota_trace::session("benchmark-observed"),
                    dota_metrics::hist_session("benchmark-observed"),
                )
            };
            let flight = FlightRecorder::shared(FLIGHT_CAPACITY);
            let gauges = Arc::new(ServeGauges::new());
            for (e, &seed) in block.iter().enumerate() {
                let i = b * sz.session_episodes + e;
                spans::next_op();
                let t0 = Instant::now();
                let _faults = fault_session(seed);
                let report = {
                    let _g = spans::enter("serve.run_bench", Layer::Serve);
                    run_bench(BenchOptions {
                        timeline: true,
                        flight: Some(Arc::clone(&flight)),
                        gauges: Some(Arc::clone(&gauges)),
                        ..options(&sz, seed)
                    })
                    .expect("the plain phase accepted the same options")
                };
                let json = {
                    let _g = spans::enter("serve.to_json", Layer::Serve);
                    report.to_json()
                };
                chunk_s.push(t0.elapsed().as_secs_f64());
                let cell = &report.cells[0];
                // Observation must not move a byte of the report.
                let same = json == plain_json[i];
                let counts_add_up = cell.completed
                    + cell.eos
                    + cell.deadline_evicted
                    + cell.queue_expired
                    + cell.rejected
                    + cell.failed
                    == cell.offered
                    && cell.offered == sz.requests
                    && cell.max_occupancy <= report.options.capacity;
                if !same {
                    out.fail(format!(
                        "episode seed {seed}: observed report differs from the plain one"
                    ));
                }
                if !counts_add_up {
                    out.fail(format!(
                        "episode seed {seed}: terminal counts do not add up"
                    ));
                }
                out.ops(1, u64::from(!(same && counts_add_up)));
                if let Some(tl) = report.timeline.as_ref().filter(|_| first) {
                    for req in tl.cells.iter().flat_map(|c| &c.requests) {
                        seen.context.0 += req.steps.iter().map(|s| s.context).sum::<u64>();
                        seen.context.1 += req.steps.iter().filter(|s| s.context > 0).count() as u64;
                    }
                }
            }
            let t0 = Instant::now();
            let text = {
                let _g = spans::enter("telemetry.render", Layer::Telemetry);
                exposition::render(
                    &dota_trace::counters_snapshot(),
                    &gauges.snapshot(),
                    &dota_metrics::hists_snapshot(),
                )
            };
            renders.push(t0.elapsed().as_secs_f64());
            if let Err(e) = exposition::validate(&text) {
                out.fail(format!("metrics exposition does not validate: {e}"));
            }
            seen.flight_events += flight
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recorded();
            seen.counter_names = dota_trace::counters_snapshot().len() as u64;
            seen.hist_observations += dota_metrics::hists_snapshot()
                .values()
                .map(dota_metrics::Histogram::count)
                .sum::<u64>();
            let _g = spans::enter("telemetry.sessions_close", Layer::Telemetry);
            drop(sessions);
        }
        if first {
            observed = Some(seen);
        }
        episodes.observe(r.traced, &chunk_s);
        render_s.observe(&renders);
        if r.traced {
            let per_episode: Vec<f64> = spans::with(|all| {
                all[first_span..]
                    .iter()
                    .filter(|s| s.name == "serve.to_json")
                    .map(|s| s.dur_ns() as f64 / 1e9)
                    .collect()
            });
            json_s.observe(&per_episode);
        }
        digests.push(digest.value());
    });
    out.measured_s = t_loop.elapsed().as_secs_f64();
    setups.batch(sz.setup_batches, one_setup)?;

    out.set_digest(&digests);
    out.sizes = vec![
        (
            "model",
            "tiny_causal(48, 16): 2 layers, d 32, 2 heads".into(),
        ),
        ("requests_per_episode", sz.requests.to_string()),
        ("load", format!("{LOAD}, shed slo")),
        ("faults", FAULTS.into()),
        ("episodes_per_block", sz.block.to_string()),
        (
            "episodes_per_observer_session",
            sz.session_episodes.to_string(),
        ),
        ("rounds", n_rounds.to_string()),
    ];
    out.notes.push(CLOCKS_NOTE.into());

    // Every run: replay episode 0 standalone and compare served tokens;
    // the traced run replays more episodes and times them.
    let n_replay = if args.trace { sz.replay_episodes } else { 1 };
    spans::set_enabled(args.trace);
    let (mut run_s, mut replay_s, mut replayed, mut executed) = (0.0, 0.0, 0u64, 0u64);
    let mut queue_depth_max = 0u64;
    for report in reports.iter().take(n_replay) {
        let tw = twin(report);
        let engine = |timeline: bool| {
            let mut e = ServeEngine::new(
                &tw.model,
                &tw.params,
                tw.cfg.clone(),
                &AccelConfig::default(),
            )
            .expect("run_bench accepted the same configuration");
            if timeline {
                e.enable_timeline("replay");
            }
            e
        };
        let seed = report.options.seed;
        let mut fastest_run = f64::MAX;
        for repeat in 0..REPEATS {
            let faults = fault_session(seed);
            let (plain, offered) = (engine(false), tw.requests.clone());
            let t0 = Instant::now();
            let outcome = plain.run(offered);
            fastest_run = fastest_run.min(t0.elapsed().as_secs_f64());
            if repeat > 0 {
                continue;
            }
            // Every injection returns before `decode_step`, so the decode
            // steps that actually ran are the scheduled slot-steps minus
            // the injections.
            executed += outcome.occupancy_sum - faults.injected_total();
            drop(faults);
            let cell = &report.cells[0];
            if (outcome.steps, outcome.total_cycles, outcome.tokens)
                != (cell.steps, cell.cycles, cell.tokens)
            {
                out.fail(format!(
                    "episode seed {seed}: the rebuilt engine run does not match run_bench's cell"
                ));
            }
            check_outcome(
                &tw.requests,
                &outcome,
                tw.cfg.capacity,
                "replay twin",
                &mut out,
            );
            queue_depth_max = queue_depth_max.max(outcome.queue_depth_max as u64);
        }
        let recorded = {
            let _faults = fault_session(seed);
            engine(true).run(tw.requests.clone())
        };
        let mut fastest_replay = f64::MAX;
        for repeat in 0..REPEATS {
            let rep = replay_run(&tw.model, &tw.params, &tw.requests, &recorded, &mut out);
            fastest_replay = fastest_replay.min(rep.seconds);
            if repeat == 0 {
                replayed += rep.steps;
            }
        }
        run_s += fastest_run;
        replay_s += fastest_replay;
    }
    spans::set_enabled(false);
    sim.queue_depth_max = queue_depth_max;

    let best = &episodes.untraced;
    // One op = one seeded episode served twice: plain, then observed.
    let pairs_ms = |f: &Fastest| -> Vec<f64> {
        let (plain, watched) = f.chunks().split_at(sz.block);
        plain
            .iter()
            .zip(watched)
            .map(|(a, b)| (a + b) * 1e3)
            .collect()
    };
    let pairs = pairs_ms(best);
    out.put_setup_and_rss(&setups);
    // Both phases decode the same slot-steps.
    out.put(
        "tok_per_s",
        2.0 * sim.occupancy_sum as f64 / best.total(),
        best.rounds(),
    );
    out.put("op_ms_p50", median(&pairs), pairs.len() as u64);
    out.put("bench.ops", pairs.len() as f64, best.rounds());
    sim.put(&mut out);
    out.put("faults.injected", faults_injected as f64, sz.block as u64);
    if let Some(obs) = &observed {
        let n = sz.block as u64;
        out.put("telemetry.flight_events", obs.flight_events as f64, n);
        out.put("trace.counter_names", obs.counter_names as f64, n);
        out.put("metrics.hist_observations", obs.hist_observations as f64, n);
        out.put(
            "serve.mean_context",
            obs.context.0 as f64 / obs.context.1.max(1) as f64,
            obs.context.1,
        );
    }

    if args.trace {
        let traced = &episodes.traced;
        let rounds = traced.rounds();
        let (plain, watched) = traced.chunks().split_at(sz.block);
        let (p, o): (f64, f64) = (plain.iter().sum(), watched.iter().sum());
        let watching = (o - p) / p;
        out.put("telemetry.overhead_share", watching, rounds);
        out.put(
            "telemetry.render_ms",
            median(render_s.chunks()) * 1e3,
            render_s.rounds(),
        );
        out.put(
            "serve.report_json_ms",
            median(json_s.chunks()) * 1e3,
            json_s.rounds(),
        );
        out.put(
            "serve.host_ns_per_sim_cycle",
            traced.total() * 1e9 / (2 * sim.total_cycles).max(1) as f64,
            rounds,
        );
        out.put(
            "bench.trace_overhead_share",
            episodes.trace_overhead(),
            rounds,
        );
        // Aborted attempts are gone from the timeline; their steps sit at
        // the same short contexts, so the replay is scaled to the decode
        // steps that really ran.
        let scaled = replay_s * executed as f64 / replayed.max(1) as f64;
        let engine_share = (run_s - scaled) / run_s;
        out.put("serve.engine_overhead_share", engine_share, executed);
        // Split of a plain + observed pair: observers take what the
        // observed phase adds, the plain remainder splits as the replay
        // says.
        let telemetry = (o - p) / (o + p);
        let plain_part = 1.0 - telemetry;
        out.put("telemetry.self_share", telemetry, rounds);
        out.put(
            "serve.self_share",
            plain_part * engine_share.max(0.0),
            executed,
        );
        out.put(
            "transformer.self_share",
            plain_part * (1.0 - engine_share.max(0.0)),
            executed,
        );
    }
    Ok(out)
}
