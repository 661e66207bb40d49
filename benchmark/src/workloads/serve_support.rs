//! Standalone replay of the decode streams a `ServeEngine` run executed,
//! and the invariants every engine outcome is held to.
//!
//! The engine can only be timed from outside as one `run` call. Replaying
//! the same per-request streams — same prompts, same admitted retention,
//! same number of steps — straight through `Model::decode_step` with a
//! `WindowSelector` gives the `transformer` share of that call; the rest
//! is `serve`'s own bookkeeping (`serve.engine_overhead_share`). The
//! replayed tokens must equal the tokens the engine served.

use crate::metrics::Outcome;
use crate::spans::{self, Layer};
use dota_autograd::ParamSet;
use dota_serve::{
    Completion, FinishReason, Request, RequestTimeline, ServeOutcome, WindowSelector,
};
use dota_tensor::ops;
use dota_transformer::{KvCache, Model};
use std::time::Instant;

/// How the serve workloads drive the engine, printed with their metrics.
pub const CLOCKS_NOTE: &str = "arrivals: open-loop schedule on the simulated clock (generator lateness 0 by construction); host: one closed-loop caller";

/// Decodes one request standalone for `steps` steps at `retention` and
/// returns the tokens it generates.
pub fn replay_request(
    model: &Model,
    params: &ParamSet,
    req: &Request,
    retention: f64,
    steps: usize,
) -> Vec<usize> {
    let cfg = model.config();
    let selector = WindowSelector::new(retention);
    let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
    let mut tokens = Vec::new();
    let mut next = None;
    for consumed in 0..steps {
        let input = if consumed < req.prompt.len() {
            req.prompt[consumed]
        } else {
            next.expect("a generated token feeds every step past the prompt")
        };
        spans::next_op();
        let (logits, _) = {
            let _g = spans::enter("model.decode_step", Layer::Transformer);
            model.decode_step(params, &mut cache, input, &selector)
        };
        if consumed + 1 >= req.prompt.len() {
            let tok = ops::argmax_rows(&logits)[0];
            tokens.push(tok);
            next = Some(tok);
        }
    }
    tokens
}

/// Result of replaying a whole engine run.
pub struct Replay {
    /// Host seconds the replayed decode steps took.
    pub seconds: f64,
    /// Decode steps replayed (final attempts only).
    pub steps: u64,
    /// Sum of the cache length each replayed step saw.
    pub context_sum: u64,
}

/// Replays the final attempt of every admitted request of a run recorded
/// with a timeline, checking that served requests reproduce their tokens.
pub fn replay_run(
    model: &Model,
    params: &ParamSet,
    requests: &[Request],
    outcome: &ServeOutcome,
    out: &mut Outcome,
) -> Replay {
    let timelines: &[RequestTimeline] = outcome
        .timeline
        .as_deref()
        .expect("replay needs a run recorded with a timeline");
    let mut rep = Replay {
        seconds: 0.0,
        steps: 0,
        context_sum: 0,
    };
    for tl in timelines {
        // Steps an injected fault discarded carry context 0: they never
        // reached `decode_step`.
        let steps = tl.steps.iter().filter(|s| s.context > 0).count();
        if steps == 0 {
            continue;
        }
        let req = requests
            .iter()
            .find(|r| r.id == tl.id)
            .expect("timeline ids come from the offered requests");
        let t0 = Instant::now();
        let tokens = replay_request(model, params, req, tl.retention, steps);
        rep.seconds += t0.elapsed().as_secs_f64();
        rep.steps += steps as u64;
        rep.context_sum += tl.steps.iter().map(|s| s.context).sum::<u64>();
        let done = outcome
            .completions
            .iter()
            .find(|c| c.id == tl.id)
            .expect("every timeline has a completion");
        if done.reason.is_served() && done.tokens != tokens {
            out.fail(format!(
                "request {}: served tokens differ from the standalone replay",
                tl.id
            ));
        }
    }
    rep
}

/// Replays up to `limit` fully served requests of a run recorded without
/// a timeline (their step count follows from prompt and output length)
/// and checks the tokens. Returns how many were replayed.
pub fn verify_served_tokens(
    model: &Model,
    params: &ParamSet,
    requests: &[Request],
    completions: &[Completion],
    limit: usize,
    out: &mut Outcome,
) -> usize {
    let mut checked = 0;
    for done in completions
        .iter()
        .filter(|c| c.reason == FinishReason::Completed)
        .take(limit)
    {
        let req = requests
            .iter()
            .find(|r| r.id == done.id)
            .expect("completion ids come from the offered requests");
        // The step consuming the last prompt token emits the first
        // output token, so a completed request ran this many steps.
        let steps = req.prompt.len() + req.max_new - 1;
        if replay_request(model, params, req, done.retention, steps) != done.tokens {
            out.fail(format!(
                "request {}: served tokens differ from the standalone replay",
                done.id
            ));
        }
        checked += 1;
    }
    checked
}

/// Holds one engine outcome to the scheduler's contract: every offered id
/// has exactly one terminal, the counts add up and occupancy never
/// exceeded capacity. Returns the number of offered requests that broke
/// it (0 on a correct run).
pub fn check_outcome(
    requests: &[Request],
    outcome: &ServeOutcome,
    capacity: usize,
    label: &str,
    out: &mut Outcome,
) -> u64 {
    let mut seen: Vec<u64> = outcome.completions.iter().map(|c| c.id).collect();
    seen.sort_unstable();
    let mut offered: Vec<u64> = requests.iter().map(|r| r.id).collect();
    offered.sort_unstable();
    let mut bad = 0u64;
    if seen != offered {
        let missing = offered.iter().filter(|id| !seen.contains(id)).count();
        let extra = seen.len().saturating_sub(offered.len() - missing);
        bad += (missing + extra).max(1) as u64;
        out.fail(format!(
            "{label}: {missing} offered ids without a terminal, {extra} surplus terminals"
        ));
    }
    if outcome.max_occupancy > capacity {
        bad += 1;
        out.fail(format!(
            "{label}: occupancy {} exceeded capacity {capacity}",
            outcome.max_occupancy
        ));
    }
    let emitted: u64 = outcome
        .completions
        .iter()
        .map(|c| c.tokens.len() as u64)
        .sum();
    // Tokens of aborted attempts are discarded, so under faults the
    // engine's emitted total may exceed what completions still carry.
    if emitted > outcome.tokens || (outcome.retries == 0 && emitted != outcome.tokens) {
        bad += 1;
        out.fail(format!(
            "{label}: completions carry {emitted} tokens, the engine counted {}",
            outcome.tokens
        ));
    }
    for c in &outcome.completions {
        let consistent = match c.reason {
            FinishReason::Completed | FinishReason::Eos => !c.tokens.is_empty(),
            FinishReason::QueueExpired | FinishReason::Rejected | FinishReason::Failed => {
                c.tokens.is_empty()
            }
            FinishReason::DeadlineEvicted => true,
        };
        if !consistent {
            bad += 1;
            out.fail(format!(
                "{label}: request {} ended {:?} with {} tokens",
                c.id,
                c.reason,
                c.tokens.len()
            ));
        }
    }
    bad
}

/// Simulated-clock statistics of one or more engine runs. They are counts
/// of the modelled machine, not host measurements: for a seed they repeat
/// exactly, and a host-only speed-up must leave them identical.
#[derive(Default)]
pub struct SimStats {
    pub offered: u64,
    pub served: u64,
    pub degraded: u64,
    /// Queue expiries plus in-flight deadline evictions.
    pub expired: u64,
    pub rejected: u64,
    pub failed: u64,
    pub retries: u64,
    pub steps: u64,
    pub tokens: u64,
    pub queue_depth_max: u64,
    /// Slot-steps: decode steps the engine scheduled.
    pub occupancy_sum: u64,
    pub total_cycles: u64,
    pub e2e_us: dota_metrics::Histogram,
    pub ttft_us: dota_metrics::Histogram,
    pub queue_wait_us: dota_metrics::Histogram,
}

impl SimStats {
    pub fn add_outcome(&mut self, o: &ServeOutcome) {
        self.offered += o.completions.len() as u64;
        self.served += o.served() as u64;
        self.degraded += o.degraded;
        self.retries += o.retries;
        self.steps += o.steps;
        self.tokens += o.tokens;
        self.queue_depth_max = self.queue_depth_max.max(o.queue_depth_max as u64);
        self.occupancy_sum += o.occupancy_sum;
        self.total_cycles += o.total_cycles;
        for c in &o.completions {
            match c.reason {
                FinishReason::Completed | FinishReason::Eos => {}
                FinishReason::DeadlineEvicted | FinishReason::QueueExpired => self.expired += 1,
                FinishReason::Rejected => self.rejected += 1,
                FinishReason::Failed => self.failed += 1,
            }
            if c.reason == FinishReason::Rejected {
                continue;
            }
            let us = |cycles: u64| cycles as f64 / 1e3;
            self.e2e_us.record(us(c.e2e()));
            self.queue_wait_us.record(us(c.queue_wait()));
            if let Some(t) = c.ttft() {
                self.ttft_us.record(us(t));
            }
        }
    }

    pub fn add_cell(&mut self, c: &dota_serve::CellReport) {
        self.offered += c.offered as u64;
        self.served += c.served() as u64;
        self.degraded += c.degraded;
        self.expired += (c.deadline_evicted + c.queue_expired) as u64;
        self.rejected += c.rejected as u64;
        self.failed += c.failed as u64;
        self.retries += c.retries;
        self.steps += c.steps;
        self.tokens += c.tokens;
        self.occupancy_sum += (c.mean_occupancy * c.steps as f64).round() as u64;
        self.total_cycles += c.cycles;
        self.e2e_us.merge(&c.e2e_us);
        self.ttft_us.merge(&c.ttft_us);
        self.queue_wait_us.merge(&c.queue_wait_us);
    }

    /// Offered requests the simulated clock says were not served in full
    /// within their deadline.
    pub fn unserved_share(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.offered - self.served) as f64 / self.offered as f64
        }
    }

    pub fn put(&self, out: &mut Outcome) {
        // The histograms hold simulated microseconds at the cost model's
        // 1 GHz; reported in cycles, so no simulated figure reads as a host time.
        let q = |h: &dota_metrics::Histogram, p: f64| h.quantile(p).unwrap_or(0.0) * 1e3;
        for (name, v) in [
            ("serve.offered", self.offered as f64),
            ("serve.served", self.served as f64),
            ("serve.degraded", self.degraded as f64),
            ("serve.expired", self.expired as f64),
            ("serve.rejected", self.rejected as f64),
            ("serve.failed", self.failed as f64),
            ("serve.retries", self.retries as f64),
            ("serve.steps", self.steps as f64),
            ("serve.tokens", self.tokens as f64),
            ("serve.queue_depth_max", self.queue_depth_max as f64),
            (
                "serve.mean_occupancy",
                self.occupancy_sum as f64 / self.steps.max(1) as f64,
            ),
            ("serve.sim_total_cycles", self.total_cycles as f64),
            ("serve.sim_e2e_p50_cycles", q(&self.e2e_us, 0.5)),
            ("serve.sim_e2e_p99_cycles", q(&self.e2e_us, 0.99)),
            ("serve.sim_ttft_p99_cycles", q(&self.ttft_us, 0.99)),
            (
                "serve.sim_queue_wait_p99_cycles",
                q(&self.queue_wait_us, 0.99),
            ),
            ("serve.sim_unserved_share", self.unserved_share()),
        ] {
            out.put(name, v, self.offered);
        }
    }
}

/// Feeds every simulated stamp of an outcome into a digest.
pub fn digest_outcome(o: &ServeOutcome, digest: &mut crate::host::Digest) {
    for c in &o.completions {
        digest.word(c.id);
        digest.bytes(c.reason.name().as_bytes());
        digest.word(c.retention.to_bits());
        for &t in &c.tokens {
            digest.word(t as u64);
        }
        for stamp in [Some(c.arrival), c.admit, c.first_token, Some(c.finish)] {
            digest.word(stamp.unwrap_or(u64::MAX));
        }
        digest.word(c.retries);
    }
    for w in [
        o.steps,
        o.total_cycles,
        o.occupancy_sum,
        o.degraded,
        o.tokens,
    ] {
        digest.word(w);
    }
}
