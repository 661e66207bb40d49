//! The serve event spine's vocabulary.
//!
//! The scheduler emits exactly one [`ServeEvent`] per transition and knows
//! nothing about who is watching; every observer is an [`EventSink`] that
//! folds the stream: the request timeline groups it by request id, the
//! flight ring keeps the tail of the kinds a postmortem needs, the live
//! gauges are the latest step boundary, and the `serve.*` counters,
//! Chrome counter tracks and `serve.slo.*` histograms are sums over it.
//! All stamps are simulated cycles, so any fold is as deterministic as the
//! scheduler itself.

use crate::gauges::GaugesSample;
use std::sync::{Arc, Mutex, PoisonError};

/// SLO class of a request. Admission is FIFO *within* a class;
/// [`Interactive`](DeadlineClass::Interactive) requests are admitted ahead
/// of [`Batch`](DeadlineClass::Batch) ones and carry a tighter deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeadlineClass {
    /// Latency-sensitive traffic (tight deadline, admitted first).
    Interactive,
    /// Throughput traffic (loose deadline).
    Batch,
}

impl DeadlineClass {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DeadlineClass::Interactive => "interactive",
            DeadlineClass::Batch => "batch",
        }
    }
}

/// Why a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// Generated all `max_new` tokens.
    Completed,
    /// Generated its EOS token before `max_new`.
    Eos,
    /// Deadline passed while decoding; evicted with partial output.
    DeadlineEvicted,
    /// Deadline passed while still queued; never admitted.
    QueueExpired,
    /// Turned away at arrival: the pending queue was full, or the model
    /// cannot run the request (empty prompt, nothing to generate, longer
    /// than the context, or a token outside the vocabulary).
    Rejected,
    /// Lost to injected faults: the retry cap was exhausted, or the
    /// deadline passed while the request waited out a retry backoff.
    /// Only reachable with serve-layer fault injection active.
    Failed,
}

impl FinishReason {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FinishReason::Completed => "completed",
            FinishReason::Eos => "eos",
            FinishReason::DeadlineEvicted => "deadline_evicted",
            FinishReason::QueueExpired => "queue_expired",
            FinishReason::Rejected => "rejected",
            FinishReason::Failed => "failed",
        }
    }

    /// `true` when the request produced its full requested output
    /// (all tokens, or a natural EOS stop).
    pub fn is_served(self) -> bool {
        matches!(self, FinishReason::Completed | FinishReason::Eos)
    }
}

/// One decode step as one request experienced it. All cycle counts come
/// from the engine's cost model at the moment the step ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRecord {
    /// Simulated time the step began.
    pub start: u64,
    /// Full batch-step duration (shared by every slot in the step).
    pub cycles: u64,
    /// Weight-stream share of the step (paid once, batch-amortized).
    pub weight_cycles: u64,
    /// This request's own K/V-stream cycles (scales with attended count).
    pub kv_cycles: u64,
    /// Connections attended, summed over layers × heads.
    pub attended: u64,
    /// Connections omitted by the retention window (dense minus attended).
    pub omitted: u64,
    /// Cache positions after the step (the `t` the selector windowed).
    pub context: u64,
}

/// What the SLO monitor read when a terminal landed (present only while
/// the monitor is on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloReading {
    /// Full output within the deadline.
    pub hit: bool,
    /// Fraction of the deadline budget the request consumed.
    pub burn: f64,
    /// Hit rate over the rolling window, this terminal included.
    pub rolling_hit_rate: f64,
    /// Mean burn over the rolling window, this terminal included.
    pub rolling_burn: f64,
}

/// A scheduler transition (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// A request entered the system, before any admission decision.
    Offered {
        /// Request id.
        id: u64,
        /// SLO class.
        class: DeadlineClass,
        /// Arrival time.
        arrival: u64,
        /// Absolute deadline (`arrival + class budget`).
        deadline: u64,
        /// Retention it holds until admitted (`ladder[0]`).
        retention: f64,
    },
    /// A request was admitted into a decode slot.
    Admitted {
        /// Request id.
        id: u64,
        /// Lane (slot index) it landed in.
        lane: u64,
        /// Retention-ladder rung it was admitted at.
        rung: u64,
        /// Retention behind the rung.
        retention: f64,
        /// Fault-retry attempt this admission starts (0 = first).
        attempt: u64,
    },
    /// One decode step ran for an in-flight request.
    SlotStep {
        /// Request id.
        id: u64,
        /// The step as this request experienced it.
        step: StepRecord,
    },
    /// The request's first generated token landed.
    FirstToken {
        /// Request id.
        id: u64,
    },
    /// A faulted request was scheduled for re-admission; the aborted
    /// attempt's tokens are discarded.
    Retry {
        /// Request id.
        id: u64,
        /// Decode attempt number after this retry.
        attempt: u64,
        /// Tokens the aborted attempt had emitted.
        discarded: u64,
    },
    /// The tokens of a final, non-retried attempt were discarded (the
    /// request is about to fail with its retry cap exhausted).
    Discard {
        /// Request id.
        id: u64,
        /// Tokens the failed attempt had emitted.
        discarded: u64,
    },
    /// A request reached its terminal state.
    Terminal {
        /// Request id.
        id: u64,
        /// Why it left.
        reason: FinishReason,
        /// Tokens delivered.
        tokens: u64,
        /// The SLO monitor's reading (`None` while the monitor is off).
        slo: Option<SloReading>,
    },
    /// The closed-loop controller moved between retention rungs.
    Rung {
        /// Rung before the change.
        from: u64,
        /// Rung after the change.
        to: u64,
    },
    /// The controller's admission gate flipped.
    Gate {
        /// `true` when the gate closed, `false` when it reopened.
        closed: bool,
    },
    /// A lane entered quarantine after a fault.
    Quarantine {
        /// Lane index.
        lane: u64,
    },
    /// A quarantined lane was probed.
    Probe {
        /// Lane index.
        lane: u64,
        /// `true` when the probe passed and the lane was restored.
        passed: bool,
    },
    /// A scheduler step ended (stamped with the step's last cycle).
    StepBoundary {
        /// Cycle the step began.
        start: u64,
        /// Slots that decoded this step (occupancy before evictions).
        batch: u64,
        /// Tokens the step emitted.
        tokens: u64,
        /// Decodes the step discarded to injected timeouts.
        timeouts: u64,
        /// Worst budget burn among requests still in flight (`None` with
        /// the SLO monitor off or the batch drained).
        burn: Option<f64>,
        /// The engine's state after evictions. `cell` is left empty: the
        /// cell name belongs to whoever is watching, not the scheduler.
        /// Boxed so that every other event stays small (the flight ring
        /// holds events but never a boundary).
        state: Box<GaugesSample>,
    },
}

impl Transition {
    /// The request the transition belongs to (`None` for lane, controller
    /// and step-boundary transitions).
    pub fn request(&self) -> Option<u64> {
        match self {
            Transition::Offered { id, .. }
            | Transition::Admitted { id, .. }
            | Transition::SlotStep { id, .. }
            | Transition::FirstToken { id }
            | Transition::Retry { id, .. }
            | Transition::Discard { id, .. }
            | Transition::Terminal { id, .. } => Some(*id),
            Transition::Rung { .. }
            | Transition::Gate { .. }
            | Transition::Quarantine { .. }
            | Transition::Probe { .. }
            | Transition::StepBoundary { .. } => None,
        }
    }
}

/// One cycle-stamped scheduler transition.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// Simulated cycle the transition happened at.
    pub cycle: u64,
    /// What happened.
    pub what: Transition,
}

/// A fold over the event stream (see the module docs).
pub trait EventSink: std::fmt::Debug {
    /// Folds one event in.
    fn on(&mut self, event: &ServeEvent);
}

/// Captures the raw stream.
impl EventSink for Vec<ServeEvent> {
    fn on(&mut self, event: &ServeEvent) {
        self.push(event.clone());
    }
}

/// A sink shared with whoever reads it back (the CLI's flight dump, a
/// test's captured stream). The scheduler loop is serial, so the mutex is
/// uncontended in practice.
impl<S: EventSink> EventSink for Arc<Mutex<S>> {
    fn on(&mut self, event: &ServeEvent) {
        self.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .on(event);
    }
}
