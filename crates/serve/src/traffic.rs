//! Seeded deterministic traffic generation.
//!
//! Load tests are only comparable if the offered traffic is exactly
//! reproducible, so the generator is a pure function of a
//! [`TrafficConfig`]: a seeded [`StdRng`] drives heavy-tailed (bounded
//! Pareto) interarrival gaps and uniform prompt/output lengths. Two runs
//! with the same configuration — on any machine, any thread count — offer
//! the identical request trace, which is what lets `dota serve --bench`
//! compare shed policies on the *same* arrivals and emit byte-identical
//! reports.

use crate::request::{DeadlineClass, Request};
use rand::{Rng, SeedableRng, StdRng};

/// Pareto shape for interarrival gaps. `1 < α < 2` gives the bursty,
/// infinite-variance arrivals that make tail latency interesting.
const PARETO_ALPHA: f64 = 1.5;

/// Gap cap as a multiple of the mean, so one extreme draw cannot turn a
/// bounded bench into a mostly-idle trace.
const GAP_CAP: f64 = 50.0;

/// Parameters of one deterministic traffic trace.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of requests to offer.
    pub requests: usize,
    /// RNG seed; same seed, same trace, bit for bit.
    pub seed: u64,
    /// Mean interarrival gap in cycles (sets the offered load).
    pub mean_gap_cycles: f64,
    /// Inclusive prompt-length range in tokens.
    pub prompt_len: (usize, usize),
    /// Inclusive generated-token range.
    pub new_tokens: (usize, usize),
    /// Fraction of requests in the interactive class.
    pub interactive_fraction: f64,
    /// Vocabulary size; prompt tokens are drawn from `1..vocab`.
    pub vocab: usize,
    /// EOS token attached to every request (usually `None` in benches so
    /// output length stays controlled).
    pub eos: Option<usize>,
}

impl TrafficConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("traffic needs at least one request".into());
        }
        // NaN must fail too, so test for the one acceptable state.
        if !(self.mean_gap_cycles > 0.0 && self.mean_gap_cycles.is_finite()) {
            return Err("mean interarrival gap must be positive".into());
        }
        // Arrivals are running sums of gaps on the `u64` cycle clock: the
        // longest trace, every gap at its cap, must fit it, or the clock
        // wraps and the trace is no longer sorted by arrival.
        let longest = self.requests as f64 * (self.mean_gap_cycles * GAP_CAP).ceil();
        if longest >= u64::MAX as f64 {
            return Err(format!(
                "{} requests at a mean gap of {:e} cycles can span {longest:e} cycles, \
                 past the u64 cycle clock",
                self.requests, self.mean_gap_cycles
            ));
        }
        let (p0, p1) = self.prompt_len;
        let (n0, n1) = self.new_tokens;
        if p0 == 0 || p0 > p1 {
            return Err(format!("bad prompt length range {p0}..={p1}"));
        }
        if n0 == 0 || n0 > n1 {
            return Err(format!("bad new-token range {n0}..={n1}"));
        }
        if !(0.0..=1.0).contains(&self.interactive_fraction) {
            return Err("interactive fraction must be in [0, 1]".into());
        }
        if self.vocab < 2 {
            return Err("vocabulary must have at least 2 tokens".into());
        }
        Ok(())
    }

    /// Mean request length (prompt + generated tokens) under this
    /// configuration, used to calibrate offered load.
    pub fn mean_positions(&self) -> f64 {
        let (p0, p1) = self.prompt_len;
        let (n0, n1) = self.new_tokens;
        (p0 + p1) as f64 / 2.0 + (n0 + n1) as f64 / 2.0
    }

    /// Generates the trace: `requests` requests sorted by arrival.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`Self::validate`]).
    pub fn generate(&self) -> Vec<Request> {
        if let Err(e) = self.validate() {
            panic!("invalid traffic config: {e}");
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Bounded Pareto: gap = xm · u^(-1/α) has mean α·xm/(α-1), so pick
        // xm to hit the requested mean (the cap trims a negligible share).
        let xm = self.mean_gap_cycles * (PARETO_ALPHA - 1.0) / PARETO_ALPHA;
        let cap = self.mean_gap_cycles * GAP_CAP;
        let mut now = 0u64;
        let mut out = Vec::with_capacity(self.requests);
        for id in 0..self.requests {
            let u: f64 = rng.gen();
            let gap = (xm * (1.0 - u).powf(-1.0 / PARETO_ALPHA)).min(cap);
            now += gap.round() as u64;
            let plen = rng.gen_range(self.prompt_len.0..=self.prompt_len.1);
            let max_new = rng.gen_range(self.new_tokens.0..=self.new_tokens.1);
            let prompt = (0..plen).map(|_| rng.gen_range(1..self.vocab)).collect();
            let interactive = rng.gen::<f64>() < self.interactive_fraction;
            out.push(Request {
                id: id as u64,
                arrival: now,
                prompt,
                max_new,
                eos: self.eos,
                class: if interactive {
                    DeadlineClass::Interactive
                } else {
                    DeadlineClass::Batch
                },
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TrafficConfig {
        TrafficConfig {
            requests: 200,
            seed: 7,
            mean_gap_cycles: 1000.0,
            prompt_len: (2, 6),
            new_tokens: (1, 8),
            interactive_fraction: 0.5,
            vocab: 16,
            eos: None,
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let a = cfg().generate();
        let b = cfg().generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.prompt, y.prompt);
            assert_eq!(x.max_new, y.max_new);
            assert_eq!(x.class, y.class);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = cfg().generate();
        let mut c = cfg();
        c.seed = 8;
        let b = c.generate();
        assert!(a.iter().zip(&b).any(|(x, y)| x.arrival != y.arrival));
    }

    #[test]
    fn trace_is_sorted_and_in_bounds() {
        let reqs = cfg().generate();
        for w in reqs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for r in &reqs {
            assert!((2..=6).contains(&r.prompt.len()));
            assert!((1..=8).contains(&r.max_new));
            assert!(r.prompt.iter().all(|&t| (1..16).contains(&t)));
        }
    }

    #[test]
    fn mean_gap_lands_near_target() {
        let mut c = cfg();
        c.requests = 4000;
        let reqs = c.generate();
        let span = reqs.last().unwrap().arrival as f64;
        let mean = span / (c.requests - 1) as f64;
        // Heavy-tailed, so generous tolerance; the cap keeps it finite.
        assert!(
            mean > 0.4 * c.mean_gap_cycles && mean < 2.5 * c.mean_gap_cycles,
            "observed mean gap {mean}"
        );
    }

    #[test]
    fn gaps_are_heavy_tailed_but_capped() {
        let mut c = cfg();
        c.requests = 4000;
        let reqs = c.generate();
        let gaps: Vec<u64> = reqs
            .windows(2)
            .map(|w| w[1].arrival - w[0].arrival)
            .collect();
        let max = *gaps.iter().max().unwrap() as f64;
        assert!(max <= c.mean_gap_cycles * GAP_CAP + 1.0);
        // A genuinely heavy tail: the max gap dwarfs the median.
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        assert!(max > 10.0 * median, "max {max} vs median {median}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for f in [
            |c: &mut TrafficConfig| c.requests = 0,
            |c: &mut TrafficConfig| c.mean_gap_cycles = 0.0,
            |c: &mut TrafficConfig| c.prompt_len = (0, 3),
            |c: &mut TrafficConfig| c.new_tokens = (5, 2),
            |c: &mut TrafficConfig| c.interactive_fraction = 1.5,
            |c: &mut TrafficConfig| c.vocab = 1,
        ] {
            let mut c = cfg();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
