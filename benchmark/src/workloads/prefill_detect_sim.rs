//! `prefill_detect_sim`: the paper's own pipeline (detect -> omit ->
//! simulate) in batch form, on the mid encoder at sequence length 1024.
//!
//! One rep runs `Model::infer` three ways — `NoHook` (dense), a
//! benchmark-local `FixedHook` returning a precomputed 10 % selection
//! (selection is free, so it isolates omission) and `DotaHook::inference`
//! at retention 0.1 (quantized detection + top-k + sparse attention) — then
//! `Accelerator::simulate_trace` on both sparse traces, the out-of-order
//! scheduler on one head's selection, and an analytic `simulate_shape`
//! mini-sweep. It exercises `detector` (quantized estimate), `tensor`
//! (large GEMM, `top_k_rows`, `sparse_attention`), `quant` and `accel`:
//! the same `tensor`/`transformer`/`detector` crates as `decode_longctx`
//! used the other way (M = seq GEMMs and batch selection vs M = 1 GEMV and
//! incremental sketches); no `KvCache`, no `serve`. A KV-cache change
//! should read **no change** here.

use super::{rounds, ByMode, Fastest, Round, RunArgs, SetupTimer};
use crate::host::Digest;
use crate::metrics::Outcome;
use crate::spans::{self, Layer};
use dota_accel::sched::schedule_matrix;
use dota_accel::synth::SelectionProfile;
use dota_accel::{AccelConfig, Accelerator, PerfReport};
use dota_autograd::ParamSet;
use dota_detector::{DetectorConfig, DotaHook};
use dota_tensor::rng::SeededRng;
use dota_tensor::Matrix;
use dota_transformer::{ForwardTrace, InferenceHook, Model, NoHook, TransformerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const RETENTION: f64 = 0.1;
const RETENTION_TOL: f64 = 0.01;
/// Detector dimension-reduction factor the analytic sweep models.
const SIGMA: f64 = 0.2;

struct Sizes {
    seq: usize,
    /// `(shape, sequence length)` of the analytic mini-sweep.
    sweep: [(TransformerConfig, usize); 3],
    /// Batches of set-ups timed before and again after the loop.
    setup_batches: usize,
}

/// Returns a fixed, precomputed selection: selection costs nothing, so
/// dense vs this isolates what omission alone buys.
struct FixedHook {
    n_heads: usize,
    /// Per `(layer, head)`, per query row, the kept key indices.
    selections: Vec<Vec<Vec<u32>>>,
}

impl FixedHook {
    /// `keep` distinct keys per row, seeded, for every head of `cfg`.
    fn new(cfg: &TransformerConfig, n: usize, keep: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let selections = (0..cfg.n_layers * cfg.n_heads)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let mut row: Vec<u32> = rng
                            .sample_indices(n, keep)
                            .into_iter()
                            .map(|j| j as u32)
                            .collect();
                        row.sort_unstable();
                        row
                    })
                    .collect()
            })
            .collect();
        Self {
            n_heads: cfg.n_heads,
            selections,
        }
    }
}

impl InferenceHook for FixedHook {
    fn select(&self, layer: usize, head: usize, _x: &Matrix) -> Option<Vec<Vec<u32>>> {
        Some(self.selections[layer * self.n_heads + head].clone())
    }
}

/// Times `InferenceHook::select` from outside and counts what it keeps.
struct TimedHook<'a> {
    inner: &'a dyn InferenceHook,
    /// A statistic only: `Relaxed` publishes nothing else.
    pairs: AtomicU64,
}

impl InferenceHook for TimedHook<'_> {
    fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
        let _g = spans::enter("detector.select", Layer::Detector);
        let sel = self.inner.select(layer, head, x);
        if let Some(rows) = &sel {
            let kept: usize = rows.iter().map(Vec::len).sum();
            self.pairs.fetch_add(kept as u64, Ordering::Relaxed);
        }
        sel
    }
}

struct State {
    model: Model,
    params: ParamSet,
    hook: DotaHook,
    fixed: FixedHook,
    accel: Accelerator,
}

fn setup(sz: &Sizes, seed: u64) -> State {
    let mut params = ParamSet::new();
    let model = Model::init(super::mid_config(sz.seq, false), &mut params, seed);
    let hook = DotaHook::init(DetectorConfig::new(RETENTION), model.config(), &mut params);
    let keep = ((RETENTION * sz.seq as f64).round() as usize).clamp(1, sz.seq);
    let fixed = FixedHook::new(model.config(), sz.seq, keep, seed);
    let accel = Accelerator::new(AccelConfig::default());
    // One untimed warm-up op: a dense pass over a quarter of the sequence
    // touches every GEMM family and fills the pack-buffer pool.
    let warm: Vec<usize> = (0..sz.seq / 4)
        .map(|i| i % model.config().vocab_size)
        .collect();
    std::hint::black_box(model.infer(&params, &warm, &NoHook));
    State {
        model,
        params,
        hook,
        fixed,
        accel,
    }
}

fn digest_report(r: &PerfReport, digest: &mut Digest) {
    for c in [
        r.cycles.total(),
        r.cycles.attention_block(),
        r.key_loads,
        r.key_loads_row_by_row,
        r.retention.to_bits(),
        r.energy.total_pj().to_bits(),
    ] {
        digest.word(c);
    }
}

fn timed<T>(name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = {
        let _g = spans::enter(name, layer);
        f()
    };
    (v, t0.elapsed().as_secs_f64())
}

/// Untimed: a fixed selection keeping every key must reproduce dense
/// logits.
fn verify_full_selection(st: &State, ids: &[usize], out: &mut Outcome) {
    let n = ids.len().min(128);
    let ids = &ids[..n];
    let all = FixedHook {
        n_heads: st.model.config().n_heads,
        selections: vec![
            vec![(0..n as u32).collect(); n];
            st.model.config().n_layers * st.model.config().n_heads
        ],
    };
    let dense = st.model.infer(&st.params, ids, &NoHook);
    let full = st.model.infer(&st.params, ids, &all);
    if !dense.logits.approx_eq(&full.logits, 1e-4) {
        out.fail("FixedHook at k = n does not reproduce dense logits".into());
    }
}

/// Chunks of one rep, in order.
const DENSE: usize = 0;
const FIXED: usize = 1;
const DOTA: usize = 2;
const SIM_FIXED: usize = 3;
const SIM_DOTA: usize = 4;
const SCHED: usize = 5;
/// First of the six `simulate_shape` chunks.
const SHAPES: usize = 6;

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sz = if args.check {
        Sizes {
            seq: 96,
            sweep: [
                (TransformerConfig::bert_large(64), 64),
                (TransformerConfig::lra(128, 4), 128),
                (TransformerConfig::gpt2(128), 128),
            ],
            setup_batches: 1,
        }
    } else {
        Sizes {
            seq: 1024,
            sweep: [
                (TransformerConfig::bert_large(384), 384),
                (TransformerConfig::lra(2048, 4), 2048),
                (TransformerConfig::gpt2(4096), 4096),
            ],
            setup_batches: 2,
        }
    };
    let mut out = Outcome::default();
    let mut setups = SetupTimer::new();
    let st = setups.batch(sz.setup_batches, || setup(&sz, args.seed));
    let cfg = st.model.config().clone();
    let token_parallelism = st.accel.config().token_parallelism;
    let mut rng = SeededRng::new(args.seed);
    let ids: Vec<usize> = (0..sz.seq).map(|_| rng.below(cfg.vocab_size)).collect();

    // Chunk = one stage of the rep (see the constants above).
    let mut stages = ByMode::default();
    let mut select = Fastest::default(); // detector.select inside the DOTA infer
    let mut digests = Vec::new();
    let mut counts = (0u64, 0u64, 0u64, 0u64, 0.0f64); // attended, pairs, cycles, key loads, retention
    let mut trace_sim_cycles = 0u64;

    let t_loop = Instant::now();
    let n_rounds = rounds(args, |r: Round| {
        let mut digest = Digest::default();
        let mut chunk_s = Vec::with_capacity(SHAPES + 2 * sz.sweep.len());
        spans::next_op();

        let (dense, secs) = timed("model.infer.dense", Layer::Transformer, || {
            st.model.infer(&st.params, &ids, &NoHook)
        });
        chunk_s.push(secs);
        let (fixed, secs) = timed("model.infer.fixed", Layer::Transformer, || {
            st.model.infer(&st.params, &ids, &st.fixed)
        });
        chunk_s.push(secs);
        let bound = st.hook.inference(&st.params);
        let hook = TimedHook {
            inner: &bound,
            pairs: AtomicU64::new(0),
        };
        let first_span = spans::count();
        let (sparse, secs) = timed("model.infer.dota", Layer::Transformer, || {
            st.model.infer(&st.params, &ids, &hook)
        });
        chunk_s.push(secs);
        if r.traced {
            let ns = spans::with(|all| spans::total_ns(&all[first_span..], "detector.select"));
            select.observe(&[ns as f64 / 1e9]);
        }

        let mut sim_cycles = 0u64;
        let mut key_loads = 0u64;
        for trace in [&fixed, &sparse] {
            let (report, secs) = timed("accel.simulate_trace", Layer::Accel, || {
                st.accel.simulate_trace(&cfg, trace)
            });
            chunk_s.push(secs);
            sim_cycles += report.cycles.total();
            key_loads += report.key_loads;
            digest_report(&report, &mut digest);
        }
        trace_sim_cycles = sim_cycles;
        let selection = sparse.layers[0].heads[0]
            .selected
            .as_deref()
            .expect("the detector selects on every head");
        let (schedule, secs) = timed("accel.schedule_matrix", Layer::Accel, || {
            schedule_matrix(selection, token_parallelism, true)
        });
        chunk_s.push(secs);
        digest.word(schedule.total_loads());
        for (shape, n) in &sz.sweep {
            for (retention, sigma) in [(1.0, 0.0), (RETENTION, SIGMA)] {
                let (report, secs) = timed("accel.simulate_shape", Layer::Accel, || {
                    st.accel.simulate_shape(
                        shape,
                        *n,
                        retention,
                        sigma,
                        &SelectionProfile::default(),
                    )
                });
                chunk_s.push(secs);
                sim_cycles += report.cycles.total();
                key_loads += report.key_loads;
                digest_report(&report, &mut digest);
            }
        }

        // Output checks: finite logits, dense really dense, both sparse
        // paths at the configured retention.
        let traces: [(&str, &ForwardTrace, f64); 3] = [
            ("dense", &dense, 1.0),
            ("fixed", &fixed, RETENTION),
            ("dota", &sparse, RETENTION),
        ];
        let mut ok = true;
        for (name, trace, want) in traces {
            let finite = trace.logits.as_slice().iter().all(|v| v.is_finite());
            let realized = trace.retention();
            if !finite || (realized - want).abs() > RETENTION_TOL || trace.fallback_dense != 0 {
                ok = false;
                out.fail(format!(
                    "rep {}: {name} infer: finite {finite}, retention {realized:.4} (configured {want}), dense fallbacks {}",
                    r.index, trace.fallback_dense
                ));
            }
            digest.floats(trace.logits.as_slice());
        }
        out.ops(1, u64::from(!ok));
        stages.observe(r.traced, &chunk_s);
        let attended: u64 = [&dense, &fixed, &sparse]
            .iter()
            .flat_map(|t| t.layers.iter().flat_map(|l| &l.heads))
            .map(dota_transformer::HeadTrace::kept_connections)
            .sum();
        counts = (
            attended,
            hook.pairs.load(Ordering::Relaxed),
            sim_cycles,
            key_loads,
            sparse.retention(),
        );
        digests.push(digest.value());
    });
    out.measured_s = t_loop.elapsed().as_secs_f64();
    setups.batch(sz.setup_batches, || setup(&sz, args.seed));

    verify_full_selection(&st, &ids, &mut out);
    out.set_digest(&digests);
    out.sizes = vec![
        (
            "model",
            "mid encoder: 4 layers, d 128, 4 heads, ffn 512, 4 classes".into(),
        ),
        ("seq", sz.seq.to_string()),
        ("retention", RETENTION.to_string()),
        (
            "shape_sweep",
            format!(
                "bert_large@{}, lra@{}, gpt2@{} x retention {{1.0, {RETENTION}}}",
                sz.sweep[0].1, sz.sweep[1].1, sz.sweep[2].1
            ),
        ),
        ("reps", n_rounds.to_string()),
    ];

    let best = &stages.untraced;
    let c = best.chunks();
    out.put_setup_and_rss(&setups);
    out.put(
        "tok_per_s",
        3.0 * sz.seq as f64 / best.total(),
        best.rounds(),
    );
    // One op = one rep: the sum of its stages' fastest repeats.
    out.put("op_ms_p50", best.total() * 1e3, best.rounds());
    out.put("bench.omit_speedup", c[DENSE] / c[FIXED], best.rounds());
    out.put("bench.dota_speedup", c[DENSE] / c[DOTA], best.rounds());
    out.put("bench.ops", 1.0, best.rounds());

    let (attended, pairs, cycles, key_loads, retention) = counts;
    out.put("transformer.attended_positions", attended as f64, 1);
    out.put("transformer.retention_realized", retention, 1);
    out.put("detector.selected_pairs", pairs as f64, 1);
    out.put("accel.sim_cycles", cycles as f64, 1);
    out.put("accel.key_loads", key_loads as f64, 1);

    if args.trace {
        let traced = &stages.traced;
        let (c, rounds, rep_s) = (traced.chunks(), traced.rounds(), traced.total());
        let sim_trace_s = c[SIM_FIXED] + c[SIM_DOTA];
        let accel_s: f64 = c[SIM_FIXED..].iter().sum();
        out.put("transformer.infer_dense_ms", c[DENSE] * 1e3, rounds);
        out.put("transformer.infer_fixedsel_ms", c[FIXED] * 1e3, rounds);
        out.put("detector.infer_dota_ms", c[DOTA] * 1e3, rounds);
        out.put(
            "detector.infer_select_ms",
            select.total() * 1e3,
            select.rounds(),
        );
        out.put("accel.simulate_trace_ms", sim_trace_s / 2.0 * 1e3, rounds);
        out.put(
            "accel.simulate_shape_ms",
            c[SHAPES..].iter().sum::<f64>() * 1e3,
            rounds,
        );
        out.put("accel.sched_ooo_ms", c[SCHED] * 1e3, rounds);
        out.put(
            "accel.host_ns_per_sim_kcycle",
            sim_trace_s * 1e9 / (trace_sim_cycles.max(1) as f64 / 1e3),
            rounds,
        );
        // Of a rep: detector = selection inside the DOTA infer, accel =
        // every simulator stage, transformer = the three infers less the
        // selection.
        out.put("detector.self_share", select.total() / rep_s, rounds);
        out.put("accel.self_share", accel_s / rep_s, rounds);
        out.put(
            "transformer.self_share",
            (c[DENSE] + c[FIXED] + c[DOTA] - select.total()) / rep_s,
            rounds,
        );
        out.put(
            "bench.trace_overhead_share",
            stages.trace_overhead(),
            rounds,
        );
    }
    Ok(out)
}
