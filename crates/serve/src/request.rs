//! Requests, deadline classes and terminal outcomes.

pub use dota_telemetry::{DeadlineClass, FinishReason};

/// One inference request offered to the service.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id, echoed in the [`Completion`].
    pub id: u64,
    /// Arrival time in accelerator cycles (1 GHz model clock).
    pub arrival: u64,
    /// Prompt token ids (non-empty; consumed one per scheduler step).
    pub prompt: Vec<usize>,
    /// Number of new tokens to generate (at least 1).
    pub max_new: usize,
    /// Generation stops early if this token is produced.
    pub eos: Option<usize>,
    /// SLO class (selects the deadline budget and admission order).
    pub class: DeadlineClass,
}

impl Request {
    /// Total cache positions the request needs (`prompt + max_new`).
    pub fn total_positions(&self) -> usize {
        self.prompt.len() + self.max_new
    }
}

/// Terminal record of one request, with the timestamps the SLO histograms
/// are built from. All times are cycles on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// SLO class.
    pub class: DeadlineClass,
    /// Why the request terminated.
    pub reason: FinishReason,
    /// Attention retention the request was admitted at (the shed policy's
    /// choice; `ladder[0]` when it never reached a slot).
    pub retention: f64,
    /// Tokens generated (possibly partial under eviction; includes the EOS
    /// token when the stop was natural).
    pub tokens: Vec<usize>,
    /// Arrival time.
    pub arrival: u64,
    /// Admission time (`None` when never admitted).
    pub admit: Option<u64>,
    /// Time the first generated token finished (`None` when none was).
    pub first_token: Option<u64>,
    /// Time the request left the system.
    pub finish: u64,
    /// Global admission sequence number (`None` when never admitted);
    /// strictly increasing in admission order, so FIFO properties are
    /// checkable from completions alone. Fault retries re-admit under a
    /// fresh sequence number, so this reflects the final attempt.
    pub admit_seq: Option<u64>,
    /// Fault-retry attempts the request went through (0 without injected
    /// faults; each retry restarts decode from scratch).
    pub retries: u64,
}

impl Completion {
    /// Queue wait in cycles (admission minus arrival; full residence time
    /// for requests that expired or were rejected in the queue).
    pub fn queue_wait(&self) -> u64 {
        self.admit
            .unwrap_or(self.finish)
            .saturating_sub(self.arrival)
    }

    /// Time-to-first-token in cycles (`None` when no token was produced).
    pub fn ttft(&self) -> Option<u64> {
        self.first_token.map(|t| t.saturating_sub(self.arrival))
    }

    /// End-to-end residence time in cycles (arrival to exit, whatever the
    /// outcome — an expired request *did* wait that long).
    pub fn e2e(&self) -> u64 {
        self.finish.saturating_sub(self.arrival)
    }

    /// Mean inter-token gap in cycles (`None` with fewer than two tokens).
    pub fn per_token(&self) -> Option<f64> {
        let first = self.first_token?;
        if self.tokens.len() < 2 {
            return None;
        }
        let span = self.finish.saturating_sub(first);
        Some(span as f64 / (self.tokens.len() - 1) as f64)
    }
}
