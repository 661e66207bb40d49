//! `serve_longctx`: `ServeEngine::run` on the mid causal model with long
//! prompts — few, long requests; no observers attached.
//!
//! A round serves one seeded trace per load through three cells: queue-only
//! at load 0.8 (the uncontended reference), and queue-only vs retention
//! shedding on the *same* trace at load 2.0. The request path runs end to
//! end (queue -> admit -> prefill -> decode -> terminal) with `decode_step`
//! the bulk of host time, so a decode-path gain must reappear here scaled
//! by that share, and the retention cell is where "shed requests are
//! cheaper on the host, not only in the cost model" becomes measurable
//! (`serve.shed_host_speedup`, 1.0 today). Engine bookkeeping is
//! negligible here by construction.
//!
//! All serve clocks are simulated (1 GHz cost model). Arrivals are an
//! open-loop schedule on that simulated clock — exact, so the generator is
//! never late (lateness 0 by construction). On the host the workload is
//! one closed-loop caller: the next cell starts when the previous returns.

use super::serve_support::{
    check_outcome, digest_outcome, replay_run, verify_served_tokens, SimStats, CLOCKS_NOTE,
};
use super::{rounds, ByMode, Fastest, Round, RunArgs, SetupTimer};
use crate::host::Digest;
use crate::metrics::Outcome;
use crate::spans::{self, Layer};
use crate::stats::median;
use dota_accel::AccelConfig;
use dota_autograd::ParamSet;
use dota_serve::{CostModel, Request, ServeConfig, ServeEngine, ShedPolicy, TrafficConfig};
use dota_transformer::Model;
use std::time::Instant;

struct Sizes {
    seq: usize,
    capacity: usize,
    requests: usize,
    prompt_len: (usize, usize),
    new_tokens: (usize, usize),
    /// Batches of set-ups timed before and again after the loop.
    setup_batches: usize,
    /// Served requests whose tokens are replayed standalone in every run.
    verify_requests: usize,
}

/// `(load, shed)` per cell; cells of one load share one trace.
const CELLS: [(f64, ShedPolicy); 3] = [
    (0.8, ShedPolicy::QueueOnly),
    (2.0, ShedPolicy::QueueOnly),
    (2.0, ShedPolicy::Retention),
];

/// Deadline budgets as multiples of the uncontended dense end-to-end
/// estimate — the ratio `results/serve_baseline.json` uses for its 50/500
/// µs budgets, generous enough that the 0.8x queue cell serves everyone.
const DEADLINE_FACTORS: (f64, f64) = (15.0, 150.0);

/// Times the standalone replay of a cell is repeated in the traced run.
const REPLAY_REPEATS: usize = 3;

struct State {
    model: Model,
    params: ParamSet,
    accel: AccelConfig,
    /// Dense service estimate of one mean request at full occupancy,
    /// cycles; offered load `L` means a mean arrival gap of this over `L`.
    mean_service_cycles: f64,
    deadlines_us: (f64, f64),
}

fn traffic(sz: &Sizes, seed: u64, mean_gap_cycles: f64) -> TrafficConfig {
    TrafficConfig {
        requests: sz.requests,
        seed,
        mean_gap_cycles,
        prompt_len: sz.prompt_len,
        new_tokens: sz.new_tokens,
        interactive_fraction: 0.5,
        vocab: 256,
        eos: None,
    }
}

fn setup(sz: &Sizes, seed: u64) -> State {
    let mut params = ParamSet::new();
    let mcfg = super::mid_config(sz.seq, true);
    let model = Model::init(mcfg.clone(), &mut params, seed);
    let accel = AccelConfig::default();
    let cost = CostModel::new(&accel, &mcfg);
    let mean_positions = traffic(sz, seed, 1.0).mean_positions();
    let mean_context = (mean_positions / 2.0).max(1.0) as usize;
    let mean_service_cycles =
        mean_positions * cost.per_token_estimate(&mcfg, sz.capacity, mean_context);
    let uncontended_us = mean_positions * cost.per_token_estimate(&mcfg, 1, mean_context) / 1e3;
    // Generating one trace and decoding one token warm the allocator and
    // the kernel dispatch.
    let warm = traffic(sz, seed, mean_service_cycles).generate();
    let mut cache = dota_transformer::KvCache::new(mcfg.n_layers, mcfg.d_model);
    std::hint::black_box(model.decode_step(
        &params,
        &mut cache,
        warm[0].prompt[0],
        &dota_transformer::DenseDecode,
    ));
    State {
        model,
        params,
        accel,
        mean_service_cycles,
        deadlines_us: (
            DEADLINE_FACTORS.0 * uncontended_us,
            DEADLINE_FACTORS.1 * uncontended_us,
        ),
    }
}

fn serve_config(sz: &Sizes, st: &State, shed: ShedPolicy) -> ServeConfig {
    ServeConfig {
        capacity: sz.capacity,
        queue_capacity: 256,
        shed,
        interactive_deadline_us: st.deadlines_us.0,
        batch_deadline_us: st.deadlines_us.1,
        ..ServeConfig::default()
    }
}

fn new_engine<'m>(sz: &Sizes, st: &'m State, shed: ShedPolicy) -> Result<ServeEngine<'m>, String> {
    ServeEngine::new(&st.model, &st.params, serve_config(sz, st, shed), &st.accel)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sz = if args.check {
        Sizes {
            seq: 64,
            capacity: 2,
            requests: 8,
            prompt_len: (4, 24),
            new_tokens: (2, 8),
            setup_batches: 1,
            verify_requests: 8,
        }
    } else {
        Sizes {
            seq: 512,
            capacity: 2,
            requests: 8,
            // Narrow ranges: a step's cost grows with its context, so the
            // mix of lengths a seed draws must not move the metrics.
            prompt_len: (128, 192),
            new_tokens: (16, 24),
            setup_batches: 4,
            verify_requests: 3,
        }
    };
    let mut out = Outcome::default();
    let mut setups = SetupTimer::new();
    let st = setups.batch(sz.setup_batches, || setup(&sz, args.seed));
    // Reject a bad configuration once, up front.
    new_engine(&sz, &st, ShedPolicy::Retention)?;

    // Chunk = one cell's `ServeEngine::run`.
    let mut cells = ByMode::default();
    let mut traffic_s = Fastest::default();
    let mut digests = Vec::new();
    let mut sim = SimStats::default();
    let mut per_cell: Vec<(u64, u64, u64)> = Vec::new(); // steps, slot-steps, cycles
    let mut runs: Vec<(Vec<Request>, ShedPolicy, f64)> = Vec::new();
    let mut verify: Option<(Vec<Request>, Vec<dota_serve::Completion>)> = None;

    let t_loop = Instant::now();
    let n_rounds = rounds(args, |r: Round| {
        let mut digest = Digest::default();
        let mut requests: Vec<Request> = Vec::new();
        let mut cell_s = Vec::with_capacity(CELLS.len());
        let mut generate_s = Vec::new();
        let first = r.index == 0;
        for (i, &(load, shed)) in CELLS.iter().enumerate() {
            if i == 0 || CELLS[i - 1].0 != load {
                let t0 = Instant::now();
                let _g = spans::enter("traffic.generate", Layer::Serve);
                requests = traffic(&sz, args.seed, st.mean_service_cycles / load).generate();
                generate_s.push(t0.elapsed().as_secs_f64());
            }
            spans::next_op();
            let engine =
                new_engine(&sz, &st, shed).expect("configuration validated before the loop");
            let offered = requests.clone();
            let t0 = Instant::now();
            let outcome = {
                let _g = spans::enter("serve.run", Layer::Serve);
                engine.run(offered)
            };
            cell_s.push(t0.elapsed().as_secs_f64());
            let label = format!("round {} {}@{load}", r.index, shed.name());
            let bad = check_outcome(&requests, &outcome, sz.capacity, &label, &mut out);
            out.ops(requests.len() as u64, bad.min(requests.len() as u64));
            digest_outcome(&outcome, &mut digest);
            if first {
                sim.add_outcome(&outcome);
                per_cell.push((outcome.steps, outcome.occupancy_sum, outcome.total_cycles));
                runs.push((requests.clone(), shed, load));
                if shed == ShedPolicy::Retention {
                    verify = Some((requests.clone(), outcome.completions));
                }
            }
        }
        cells.observe(r.traced, &cell_s);
        traffic_s.observe(&generate_s);
        digests.push(digest.value());
    });
    out.measured_s = t_loop.elapsed().as_secs_f64();
    setups.batch(sz.setup_batches, || setup(&sz, args.seed));

    // Served tokens must equal a standalone replay of the same streams.
    if let Some((requests, completions)) = &verify {
        let before = out.failures.len();
        let n = verify_served_tokens(
            &st.model,
            &st.params,
            requests,
            completions,
            sz.verify_requests,
            &mut out,
        );
        out.notes.push(format!(
            "replayed {n} served requests of the retention cell standalone: tokens {}",
            if out.failures.len() == before {
                "equal"
            } else {
                "DIFFER"
            }
        ));
    }
    out.set_digest(&digests);
    out.sizes = vec![
        ("model", format!("mid causal, seq {}", sz.seq)),
        ("capacity", sz.capacity.to_string()),
        ("requests_per_cell", sz.requests.to_string()),
        (
            "prompt_len",
            format!("{}..={}", sz.prompt_len.0, sz.prompt_len.1),
        ),
        (
            "new_tokens",
            format!("{}..={}", sz.new_tokens.0, sz.new_tokens.1),
        ),
        ("cells", "queue@0.8, queue@2.0, retention@2.0".into()),
        (
            "deadlines_us",
            format!("{:.1} / {:.1}", st.deadlines_us.0, st.deadlines_us.1),
        ),
        ("rounds", n_rounds.to_string()),
    ];
    out.notes.push(CLOCKS_NOTE.into());

    let best = &cells.untraced;
    // One decode step cannot be timed from outside `run`; the op sample is
    // a cell's mean time per decode step it scheduled (per slot-step, so
    // it does not move with the batch size a seed's traffic happens to
    // reach).
    let step_ms = |f: &Fastest| -> Vec<f64> {
        f.chunks()
            .iter()
            .zip(&per_cell)
            .map(|(s, cell)| s * 1e3 / cell.1.max(1) as f64)
            .collect()
    };
    out.put_setup_and_rss(&setups);
    out.put(
        "tok_per_s",
        sim.occupancy_sum as f64 / best.total(),
        best.rounds(),
    );
    out.put("op_ms_p50", median(&step_ms(best)), CELLS.len() as u64);
    out.put("bench.ops", CELLS.len() as f64, best.rounds());
    sim.put(&mut out);

    if args.trace {
        let traced = &cells.traced;
        let rounds = traced.rounds();
        let us_per_tok = |i: usize| traced.chunks()[i] * 1e6 / per_cell[i].1.max(1) as f64;
        let engine_steps: u64 = per_cell.iter().map(|c| c.0).sum();
        out.put(
            "serve.host_us_per_step",
            traced.total() * 1e6 / engine_steps.max(1) as f64,
            rounds,
        );
        out.put("serve.host_us_per_tok_queue", us_per_tok(1), rounds);
        out.put("serve.host_us_per_tok_retention", us_per_tok(2), rounds);
        out.put(
            "serve.shed_host_speedup",
            us_per_tok(1) / us_per_tok(2),
            rounds,
        );
        out.put(
            "serve.host_ns_per_sim_cycle",
            traced.total() * 1e9 / sim.total_cycles.max(1) as f64,
            rounds,
        );
        out.put(
            "serve.traffic_generate_ms",
            median(traffic_s.chunks()) * 1e3,
            traffic_s.rounds(),
        );
        out.put("bench.trace_overhead_share", cells.trace_overhead(), rounds);

        // Standalone replay of the two overloaded cells. Per cell: one run
        // with a timeline (untimed: it tells every request's step count
        // and retention), then the replay, timed. The run it is compared
        // with is the cell's fastest repeat from the loop above, and the
        // replay is repeated too, so both sides are their least disturbed.
        spans::set_enabled(true);
        let (mut run_s, mut replay_s, mut steps, mut context) = (0.0, 0.0, 0u64, 0u64);
        for (i, (requests, shed, _)) in runs.iter().enumerate().filter(|(_, r)| r.2 > 1.0) {
            let mut engine =
                new_engine(&sz, &st, *shed).expect("configuration validated before the loop");
            engine.enable_timeline("replay");
            let recorded = engine.run(requests.clone());
            let mut fastest = f64::MAX;
            for repeat in 0..REPLAY_REPEATS {
                let rep = replay_run(&st.model, &st.params, requests, &recorded, &mut out);
                fastest = fastest.min(rep.seconds);
                if repeat > 0 {
                    continue;
                }
                if rep.steps != per_cell[i].1 {
                    out.fail(format!(
                        "replay covered {} decode steps, the engine scheduled {}",
                        rep.steps, per_cell[i].1
                    ));
                }
                steps += rep.steps;
                context += rep.context_sum;
            }
            run_s += traced.chunks()[i].min(best.chunks()[i]);
            replay_s += fastest;
        }
        spans::set_enabled(false);
        let overhead = (run_s - replay_s) / run_s;
        out.put("serve.engine_overhead_share", overhead, steps);
        out.put("serve.self_share", overhead.max(0.0), steps);
        out.put("transformer.self_share", (replay_s / run_s).min(1.0), steps);
        out.put(
            "serve.mean_context",
            context as f64 / steps.max(1) as f64,
            steps,
        );
    }
    Ok(out)
}
