//! The four workloads and what they share: the round loop, repeated
//! set-up timing and the two model shapes.
//!
//! A workload measures in *rounds*. A round is a fixed amount of work with
//! a fixed mix (every selector, every cell, every phase), cut into
//! *chunks* (a decode step, an episode, a cell, a stage of a rep). Every
//! round of a run repeats the same seeded inputs, so chunk `j` is the same
//! work in every round, and a chunk's time is the **fastest of its
//! repeats** ([`Fastest`]). The reference host is a shared 2-vCPU box whose
//! speed drops to ~60 % for seconds at a time when a neighbour is busy (a
//! fixed L1-resident loop shows it); a repeat is only ever slowed by that,
//! never sped up, so the fastest repeat is the least disturbed one, and
//! medians over raw rounds moved by 6-17 % between identical runs where
//! these move by a few. Throughput is tokens per round over the sum of
//! the chunks' fastest times; op times are taken over those same values.
//!
//! Counts and the simulated-stamp digest are those of one round; every
//! round must reproduce them. With tracing on, rounds alternate
//! traced/untraced, which is what `bench.trace_overhead_share` compares.

use crate::metrics::Outcome;
use crate::spans;
use dota_transformer::{Pooling, TransformerConfig};
use std::time::Instant;

pub mod decode_longctx;
pub mod kernels;
pub mod prefill_detect_sim;
pub mod serve_longctx;
pub mod serve_overload_tiny;
pub mod serve_support;

/// Workload names (normative) and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "decode_longctx",
        "single-stream decode_step, context 0->1024, dense vs window vs DOTA selector: transformer KvCache/scores and detector::decode do all the work; context length, not weights, dominates",
    ),
    (
        "serve_longctx",
        "ServeEngine::run on the mid model with long prompts, queue-only vs retention shedding, no observers: the request path end to end with decode_step >= 90% of host time",
    ),
    (
        "serve_overload_tiny",
        "dota serve --bench path on the tiny model at load 4.0 under faults, plain then observed: fixed per-step cost, observers and engine bookkeeping; nothing scales with context",
    ),
    (
        "prefill_detect_sim",
        "batch infer at seq 1024 dense / fixed selection / DotaHook, then simulate_trace and a simulate_shape sweep: detector, large GEMM, top-k, sparse attention, quant, accel; no KvCache, no serve",
    ),
];

/// What a workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Time budget of the measurement loop, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny sizes, two rounds on the same inputs, verification only.
    pub check: bool,
}

/// Runs one workload by name.
///
/// # Errors
///
/// Unknown names, and configurations the program under test rejects.
pub fn run(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    match name {
        "decode_longctx" => decode_longctx::run(args),
        "serve_longctx" => serve_longctx::run(args),
        "serve_overload_tiny" => serve_overload_tiny::run(args),
        "prefill_detect_sim" => prefill_detect_sim::run(args),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            WORKLOADS.map(|w| w.0).join(", ")
        )),
    }
}

/// The **mid** model shape: 4 layers, d = 128, 4 heads, FFN 512, vocab 256
/// (causal LM for decode/serve; 4-class encoder for prefill).
pub fn mid_config(seq_len: usize, causal: bool) -> TransformerConfig {
    TransformerConfig {
        vocab_size: 256,
        seq_len,
        d_model: 128,
        n_heads: 4,
        n_layers: 4,
        d_ff: 512,
        n_classes: if causal { 256 } else { 4 },
        causal,
        pooling: Pooling::Mean,
    }
}

/// One round of the measurement loop.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Position in the loop, from 0.
    pub index: usize,
    /// Spans are being recorded.
    pub traced: bool,
}

/// Share of `--seconds` a traced run gives its round loop: what follows
/// the loop there (standalone replays, the kernel pass) takes the rest, so
/// a traced run costs about what an untraced one does.
const TRACED_LOOP_SHARE: f64 = 0.7;

/// Runs rounds until the time budget is spent and returns how many ran.
///
/// The loop stops at the round boundary closest to the budget (it
/// continues while less than half a round would overshoot), so the
/// measured time averages the budget whatever the round length. At least
/// two rounds run, so every chunk has a repeat and the digests can be
/// compared; check mode runs exactly two. A traced run alternates traced
/// and untraced rounds and stops after an untraced one, so both modes see
/// the same number.
pub fn rounds(args: &RunArgs, mut body: impl FnMut(Round)) -> usize {
    let (budget, unit) = if args.trace {
        (TRACED_LOOP_SHARE * args.seconds, 2)
    } else {
        (args.seconds, 1)
    };
    let start = Instant::now();
    let mut index = 0;
    loop {
        let traced = args.trace && index % 2 == 0;
        spans::set_enabled(traced);
        let t0 = Instant::now();
        {
            // The root span of the round: its self time is the benchmark's
            // own share (input generation, checks, bookkeeping).
            let _g = spans::enter("round", spans::Layer::Bench);
            body(Round { index, traced });
        }
        let last = t0.elapsed().as_secs_f64();
        spans::set_enabled(false);
        index += 1;
        let done = if args.check {
            index >= 2
        } else {
            index >= 2
                && index % unit == 0
                && start.elapsed().as_secs_f64() + 0.5 * unit as f64 * last >= budget
        };
        if done {
            return index;
        }
    }
}

/// The fastest observation of each chunk of a round, over the rounds that
/// repeated it (see the module docs for why the fastest).
#[derive(Debug, Default, Clone)]
pub struct Fastest {
    best: Vec<f64>,
    rounds: u64,
}

impl Fastest {
    /// Folds in one round's chunk times, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if a round has a different number of chunks than the first:
    /// rounds repeat identical work.
    pub fn observe(&mut self, chunk_s: &[f64]) {
        if self.rounds == 0 {
            self.best = chunk_s.to_vec();
        } else {
            assert_eq!(
                self.best.len(),
                chunk_s.len(),
                "rounds repeat identical work"
            );
            for (best, &t) in self.best.iter_mut().zip(chunk_s) {
                *best = best.min(t);
            }
        }
        self.rounds += 1;
    }

    /// Fastest time of every chunk, seconds, in round order.
    pub fn chunks(&self) -> &[f64] {
        &self.best
    }

    /// Sum of the chunks' fastest times: the round, undisturbed.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }

    /// Rounds folded in so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// One [`Fastest`] per trace mode: untraced rounds feed the end-to-end
/// metrics, traced rounds the per-layer ones.
#[derive(Debug, Default)]
pub struct ByMode {
    pub untraced: Fastest,
    pub traced: Fastest,
}

impl ByMode {
    pub fn observe(&mut self, traced: bool, chunk_s: &[f64]) {
        if traced {
            self.traced.observe(chunk_s);
        } else {
            self.untraced.observe(chunk_s);
        }
    }

    /// `1 - untraced/traced` round time: the share of time tracing costs.
    pub fn trace_overhead(&self) -> f64 {
        if self.traced.rounds() == 0 || self.untraced.rounds() == 0 {
            return 0.0;
        }
        1.0 - self.untraced.total() / self.traced.total()
    }
}

/// Set-ups per batch: a batch's time is its fastest set-up.
const SETUP_BATCH: usize = 3;

/// Times set-up: `batches` batches of [`SETUP_BATCH`] set-ups each, the
/// fastest of a batch standing for it (same reasoning as [`Fastest`]).
/// `setup_s` is the median over batches; call [`SetupTimer::batch`] both
/// before and after the measurement loop so the batches sample the host
/// tens of seconds apart.
pub struct SetupTimer {
    batch_s: Vec<f64>,
}

impl SetupTimer {
    pub fn new() -> Self {
        Self {
            batch_s: Vec::new(),
        }
    }

    /// Runs `batches` batches of `setup` and returns the last result.
    pub fn batch<T>(&mut self, batches: usize, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..batches.max(1) {
            let mut best = f64::MAX;
            for _ in 0..SETUP_BATCH {
                let t = Instant::now();
                last = Some(std::hint::black_box(setup()));
                best = best.min(t.elapsed().as_secs_f64());
            }
            self.batch_s.push(best);
        }
        last.expect("at least one set-up ran")
    }

    /// Median batch time, seconds, and the number of set-ups behind it.
    pub fn median_s(&self) -> (f64, u64) {
        (
            crate::stats::median(&self.batch_s),
            (self.batch_s.len() * SETUP_BATCH) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_keeps_the_minimum_of_each_chunk() {
        let mut f = Fastest::default();
        f.observe(&[3.0, 1.0, 5.0]);
        f.observe(&[2.0, 4.0, 5.5]);
        f.observe(&[2.5, 0.5, 6.0]);
        assert_eq!(f.chunks(), &[2.0, 0.5, 5.0]);
        assert_eq!(f.total(), 7.5);
        assert_eq!(f.rounds(), 3);
    }

    #[test]
    fn trace_overhead_compares_the_two_modes() {
        let mut m = ByMode::default();
        assert_eq!(m.trace_overhead(), 0.0);
        m.observe(true, &[1.0, 1.0]);
        m.observe(false, &[0.95, 0.95]);
        assert!((m.trace_overhead() - 0.05).abs() < 1e-12);
    }
}
