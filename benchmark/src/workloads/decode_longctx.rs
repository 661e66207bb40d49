//! `decode_longctx`: single-stream `Model::decode_step` on the mid causal
//! model, context 0 -> 1024, once per selector per round — `DenseDecode`,
//! `WindowSelector(0.125)` (selection is free, so it isolates omission)
//! and `DotaDecodeSelector` at retention 0.125 (detection included).
//!
//! `transformer` (`KvCache` append, per-head slicing, scores) and
//! `detector::decode` do all the work; `serve`, `accel` and telemetry do
//! none. It is the only workload where context length, not the weights,
//! dominates a step, and the one on which an O(1) cache append or a
//! gather-then-score attention must show.

use super::{rounds, ByMode, Fastest, Round, RunArgs, SetupTimer};
use crate::host::Digest;
use crate::metrics::Outcome;
use crate::spans::{self, Layer};
use crate::stats::{median, p90, slope};
use dota_autograd::ParamSet;
use dota_detector::decode::DotaDecodeSelector;
use dota_detector::{DetectorConfig, DotaHook};
use dota_serve::WindowSelector;
use dota_tensor::rng::SeededRng;
use dota_tensor::Matrix;
use dota_transformer::{DecodeSelector, DenseDecode, KvCache, Model, NoHook};
use std::cell::Cell;
use std::time::Instant;

const RETENTION: f64 = 0.125;
/// Tokens of the prefix on which incremental logits are checked against
/// batch `infer`, and `WindowSelector(1.0)` against `DenseDecode`.
const PREFIX: usize = 64;
/// Width of the context bins the slope and `decode_us_ctx*` are read from.
const BIN: usize = 64;

struct Sizes {
    ctx: usize,
    /// Batches of set-ups timed before and again after the loop.
    setup_batches: usize,
    /// Allowed |realized - configured| retention over a whole sweep (the
    /// ceil/round in the selectors adds about `1 / (2 * mean context)`).
    retention_tol: f64,
}

struct State {
    model: Model,
    params: ParamSet,
    hook: DotaHook,
}

fn setup(ctx: usize, seed: u64) -> State {
    let mut params = ParamSet::new();
    let model = Model::init(super::mid_config(ctx, true), &mut params, seed);
    let hook = DotaHook::init(DetectorConfig::new(RETENTION), model.config(), &mut params);
    // One untimed warm-up op per selector kind, so lazy set-up (kernel
    // family detection, pack-buffer pool) is paid here.
    let mut cache = KvCache::new(model.config().n_layers, model.config().d_model);
    let sel = DotaDecodeSelector::new(
        &hook,
        &params,
        model.config().n_layers,
        model.config().n_heads,
    );
    for t in 0..4 {
        std::hint::black_box(model.decode_step(&params, &mut cache, t, &sel));
    }
    drop(sel);
    State {
        model,
        params,
        hook,
    }
}

/// Times `DecodeSelector::select` from outside and counts what it keeps.
struct TimedSelector<'a> {
    inner: &'a dyn DecodeSelector,
    selected: Cell<u64>,
}

impl DecodeSelector for TimedSelector<'_> {
    fn select(&self, layer: usize, head: usize, x: &Matrix, cache_len: usize) -> Option<Vec<u32>> {
        let _g = spans::enter("detector.select", Layer::Detector);
        let kept = self.inner.select(layer, head, x, cache_len);
        if let Some(k) = &kept {
            self.selected.set(self.selected.get() + k.len() as u64);
        }
        kept
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Sel {
    Dense,
    Window,
    Dota,
}

/// One selector's pass over contexts `0..ctx`.
struct Sweep {
    step_s: Vec<f64>,
    attended: u64,
    bad_steps: u64,
}

fn sweep(
    st: &State,
    which: Sel,
    selector: &dyn DecodeSelector,
    tokens: &[usize],
    digest: &mut Digest,
) -> Sweep {
    let cfg = st.model.config();
    let lh = (cfg.n_layers * cfg.n_heads) as u64;
    let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
    let mut out = Sweep {
        step_s: Vec::with_capacity(tokens.len()),
        attended: 0,
        bad_steps: 0,
    };
    for (i, &tok) in tokens.iter().enumerate() {
        spans::next_op();
        let t0 = Instant::now();
        let (logits, attended) = {
            let _g = spans::enter("model.decode_step", Layer::Transformer);
            st.model.decode_step(&st.params, &mut cache, tok, selector)
        };
        out.step_s.push(t0.elapsed().as_secs_f64());
        // Attended counts against their closed forms: dense = L*H*t,
        // window = L*H*ceil(r*t); the detector keeps round(r*t) per head
        // plus the current position when it was not among them.
        let t = (i + 1) as u64;
        let ok = match which {
            Sel::Dense => attended == lh * t,
            Sel::Window => attended == lh * ((RETENTION * t as f64).ceil() as u64).clamp(1, t),
            Sel::Dota => {
                let keep = ((RETENTION * t as f64).round() as u64).clamp(1, t);
                (lh * keep..=lh * (keep + 1).min(t)).contains(&attended)
            }
        } && logits.as_slice().iter().all(|v| v.is_finite());
        out.bad_steps += u64::from(!ok);
        out.attended += attended;
        digest.floats(logits.as_slice());
        digest.word(attended);
    }
    out
}

/// Untimed verification on a short prefix.
fn verify_prefix(st: &State, tokens: &[usize], out: &mut Outcome) {
    let cfg = st.model.config();
    let n = PREFIX.min(tokens.len());
    let prefix = &tokens[..n];
    let run = |selector: &dyn DecodeSelector| -> Vec<Matrix> {
        let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
        prefix
            .iter()
            .map(|&t| st.model.decode_step(&st.params, &mut cache, t, selector).0)
            .collect()
    };
    let dense = run(&DenseDecode);
    let full_window = run(&WindowSelector::new(1.0));
    if dense != full_window {
        out.fail("WindowSelector(1.0) logits are not bit-equal to DenseDecode".into());
    }
    let batch = st.model.infer(&st.params, prefix, &NoHook).logits;
    for (i, row) in dense.iter().enumerate() {
        if !row.approx_eq(&batch.slice_rows(i, i + 1), 1e-4) {
            out.fail(format!(
                "incremental logits diverge from batch infer at prefix position {i}"
            ));
            break;
        }
    }
}

/// Median step time (µs) over the context bin ending at `end`.
fn ctx_bin_us(dense_steps: &[f64], end: usize) -> f64 {
    let lo = end.saturating_sub(BIN);
    median(&dense_steps[lo..end.min(dense_steps.len())]) * 1e6
}

/// Time spent in `detector.select` under each `model.decode_step` span of
/// `spans`, seconds, in step order.
fn select_s_per_step(spans: &[spans::Span]) -> Vec<f64> {
    let mut out = Vec::new();
    for s in spans {
        match s.name {
            "model.decode_step" => out.push(0.0),
            "detector.select" => {
                if let Some(step) = out.last_mut() {
                    *step += s.dur_ns() as f64 / 1e9;
                }
            }
            _ => {}
        }
    }
    out
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sz = if args.check {
        Sizes {
            ctx: 96,
            setup_batches: 1,
            retention_tol: 0.03,
        }
    } else {
        Sizes {
            ctx: 1024,
            setup_batches: 4,
            retention_tol: 0.01,
        }
    };
    let mut out = Outcome::default();
    let mut setups = SetupTimer::new();
    let st = setups.batch(sz.setup_batches, || setup(sz.ctx, args.seed));
    let cfg = st.model.config().clone();
    let mut rng = SeededRng::new(args.seed);
    let tokens: Vec<usize> = (0..sz.ctx).map(|_| rng.below(cfg.vocab_size)).collect();

    // Chunk = one decode step; a round is dense, window, dota sweeps.
    let mut steps = ByMode::default();
    let mut select = Fastest::default(); // per DOTA step, traced rounds
    let mut digests = Vec::new();
    let mut attended = (0u64, 0u64, 0u64); // dense, window, dota
    let mut selected_pairs = 0u64;

    let t_loop = Instant::now();
    let n_rounds = rounds(args, |r: Round| {
        let mut digest = Digest::default();
        let dense = sweep(&st, Sel::Dense, &DenseDecode, &tokens, &mut digest);
        let window = sweep(
            &st,
            Sel::Window,
            &WindowSelector::new(RETENTION),
            &tokens,
            &mut digest,
        );
        let detector = DotaDecodeSelector::new(&st.hook, &st.params, cfg.n_layers, cfg.n_heads);
        let timed = TimedSelector {
            inner: &detector,
            selected: Cell::new(0),
        };
        let first_span = spans::count();
        let sparse = sweep(&st, Sel::Dota, &timed, &tokens, &mut digest);
        if r.traced {
            select.observe(&spans::with(|all| select_s_per_step(&all[first_span..])));
        }
        let mut chunk_s = Vec::with_capacity(3 * sz.ctx);
        for s in [&dense, &window, &sparse] {
            chunk_s.extend_from_slice(&s.step_s);
            out.ops(s.step_s.len() as u64, s.bad_steps);
        }
        steps.observe(r.traced, &chunk_s);
        for (name, s) in [("window", &window), ("dota", &sparse)] {
            let realized = s.attended as f64 / dense.attended as f64;
            if (realized - RETENTION).abs() > sz.retention_tol {
                out.fail(format!(
                    "{name} realized retention {realized:.4} is not within {} of {RETENTION}",
                    sz.retention_tol
                ));
            }
        }
        attended = (dense.attended, window.attended, sparse.attended);
        selected_pairs = timed.selected.get();
        digests.push(digest.value());
    });
    out.measured_s = t_loop.elapsed().as_secs_f64();
    setups.batch(sz.setup_batches, || setup(sz.ctx, args.seed));

    verify_prefix(&st, &tokens, &mut out);
    out.set_digest(&digests);
    out.sizes = vec![
        (
            "model",
            "mid causal: 4 layers, d 128, 4 heads, ffn 512, vocab 256".into(),
        ),
        ("context", format!("0..{}", sz.ctx)),
        (
            "selectors",
            format!("dense, window({RETENTION}), dota({RETENTION})"),
        ),
        ("rounds", n_rounds.to_string()),
        ("steps_per_round", (3 * sz.ctx).to_string()),
    ];

    let n = sz.ctx;
    let sums = |f: &Fastest| -> (f64, f64, f64) {
        let c = f.chunks();
        (
            c[..n].iter().sum(),
            c[n..2 * n].iter().sum(),
            c[2 * n..].iter().sum(),
        )
    };
    let best = &steps.untraced;
    let (td, tw, ts) = sums(best);
    let ops_ms: Vec<f64> = best.chunks().iter().map(|s| s * 1e3).collect();
    out.put_setup_and_rss(&setups);
    out.put("tok_per_s", 3.0 * n as f64 / best.total(), best.rounds());
    out.put("op_ms_p50", median(&ops_ms), ops_ms.len() as u64);
    if let Some(tail) = p90(&ops_ms) {
        out.put("bench.op_ms_p90", tail, ops_ms.len() as u64);
    }
    out.put("bench.omit_speedup", td / tw, best.rounds());
    out.put("bench.dota_speedup", td / ts, best.rounds());
    out.put("bench.ops", ops_ms.len() as f64, best.rounds());

    if args.trace {
        let traced = &steps.traced;
        let (td, tw, ts) = sums(traced);
        let rounds = traced.rounds();
        out.put(
            "transformer.decode_dense_us_per_tok",
            td / n as f64 * 1e6,
            rounds,
        );
        out.put(
            "transformer.decode_window_us_per_tok",
            tw / n as f64 * 1e6,
            rounds,
        );
        let dense_steps = &traced.chunks()[..n];
        out.put(
            "transformer.decode_us_ctx512",
            ctx_bin_us(dense_steps, n / 2),
            BIN as u64,
        );
        out.put(
            "transformer.decode_us_ctx1024",
            ctx_bin_us(dense_steps, n),
            BIN as u64,
        );
        // Growth of step time with cache length: slope over per-bin
        // medians, so a stray slow step cannot tilt the line.
        let bins: Vec<usize> = (BIN..=n).step_by(BIN).collect();
        let x: Vec<f64> = bins.iter().map(|&e| (e - BIN / 2) as f64).collect();
        let y: Vec<f64> = bins
            .iter()
            .map(|&e| ctx_bin_us(dense_steps, e) * 1e3)
            .collect();
        out.put(
            "transformer.decode_ctx_slope_ns_per_pos",
            slope(&x, &y),
            bins.len() as u64,
        );
        out.put(
            "detector.decode_select_us_per_tok",
            select.total() / n as f64 * 1e6,
            select.rounds(),
        );
        // Of the time inside decode_step calls: what the selector took,
        // and the rest.
        let detector_share = select.total() / (td + tw + ts);
        out.put("detector.self_share", detector_share, rounds);
        out.put("transformer.self_share", 1.0 - detector_share, rounds);
        out.put("bench.trace_overhead_share", steps.trace_overhead(), rounds);
    }
    let (dense_att, window_att, dota_att) = attended;
    out.put(
        "transformer.attended_positions",
        (dense_att + window_att + dota_att) as f64,
        1,
    );
    out.put(
        "transformer.retention_realized",
        (window_att + dota_att) as f64 / (2 * dense_att) as f64,
        1,
    );
    out.put("detector.selected_pairs", selected_pairs as f64, 1);
    Ok(out)
}
