//! The continuous-batching scheduler: a decision core and a forward.
//!
//! [`ServeEngine`] is a **decision core** (this module: the class queues,
//! retry queue, quarantine, slot bookkeeping, SLO monitor, controller and
//! simulated clock) driving a **forward** (`forward::ModelForward`, behind
//! the crate-private `Forward` trait: each lane's K/V cache and selector,
//! the prefill look-ahead, the decode arena). The core reads nothing back
//! from the forward but each advanced lane's `(attended, token)`.
//!
//! Time is the accelerator's 1 GHz cycle clock, advanced by the
//! [`CostModel`] after every step, so the run — admission decisions,
//! latencies, the serialized report — is a pure function of the request
//! trace and the configuration: byte-identical across `DOTA_THREADS` and
//! serial vs `parallel` builds (the scheduler loop is serial; only the
//! independent rows inside the forward fan out).
//!
//! Each scheduler step:
//!
//! 1. **ingest** (core) — arrivals up to `now` join their class queue (FIFO
//!    within class; the queue rejects above `queue_capacity`, and rejects
//!    requests the forward cannot run at all);
//! 2. **expire** (core) — queued requests whose deadline already passed
//!    leave as [`FinishReason::QueueExpired`];
//! 3. **admit** (core, then forward) — free batch slots fill from the
//!    queues (interactive before batch, FIFO within each). Under
//!    [`ShedPolicy::Retention`] the backlog picks a rung of the retention
//!    ladder: the deeper the queue, the sparser the attention the new
//!    request runs at — *shedding load by degrading accuracy instead of
//!    waiting*. The forward sizes the lane's K/V cache and selector;
//! 4. **decode** (core, forward, core) — the core takes each slot's fault
//!    decisions, pure functions of `(id, attempt, consumed)`, before any
//!    host work; the forward advances the surviving lanes one position
//!    (prompt tokens first, then greedy generation), computing prompt
//!    positions ahead of the simulated clock, which still consumes one per
//!    step; the core bills one shared weight stream plus each member's
//!    measured K/V traffic;
//! 5. **evict** (core) — requests that finished (`max_new` tokens or EOS)
//!    or overran their deadline leave the batch at step boundaries.
//!
//! A pass that ends with no slot in flight does not step: the clock jumps
//! to the next instant anything can act (`next_wake`), so host time
//! follows scheduler events, never simulated cycles. While a ready retry
//! waits on quarantined lanes, a pass per skipped cycle would do nothing
//! but observe the controller, so those observations are credited instead
//! (`credit_idle_passes`). Budgets saturate: a deadline, backoff or
//! quarantine too large for the clock means "never".
//!
//! The scheduler knows nothing about who is watching: every transition
//! goes out through one `emit` as a typed [`ServeEvent`], every terminal
//! through one `finish`, and the timeline, flight ring, gauges, trace
//! counters and SLO histograms are folds over that stream behind the
//! engine's spine (see `dota_telemetry::event`).

use crate::control::{ControlConfig, ControlInputs, ControlSummary, Controller};
use crate::cost::CostModel;
use crate::forward::{Answer, Forward, ModelForward};
use crate::request::{Completion, DeadlineClass, FinishReason, Request};
use crate::slo::{SloMonitor, SloWindow};
use crate::spine::Spine;
use crate::timeline::{RequestTimeline, StepRecord};
use dota_faults::FaultSite;
use dota_telemetry::{EventSink, GaugesSample, ServeEvent, SloReading, Transition};
use std::collections::VecDeque;

/// Coordinate namespace for quarantine probe decisions, disjoint from
/// request ids (which are the first coordinate of in-slot fault checks).
const PROBE_COORD: u64 = u64::MAX;

/// Consecutive decode-step timeouts at one position before the attempt is
/// abandoned and the request goes through the retry path.
const TIMEOUT_ESCALATE: u64 = 3;

/// Widest batch a configuration may ask for (see [`ServeConfig::validate`]).
pub(crate) const MAX_CAPACITY: usize = 4096;

/// Longest SLO window a configuration may ask for (see [`ServeConfig::validate`]).
pub(crate) const MAX_SLO_WINDOW: usize = 1 << 20;

/// What the scheduler does when demand outruns capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Classic behaviour: requests wait in the queue at full retention
    /// until a slot frees or their deadline expires.
    QueueOnly,
    /// DOTA's knob in reverse: admission proceeds, but the deeper the
    /// backlog, the lower the retention new requests are admitted at
    /// (`ladder[min(backlog / capacity, last rung)]`). Requests keep
    /// their admitted retention for life, so output remains a pure
    /// function of the admission decision.
    Retention,
    /// Closed-loop feedback: a [`Controller`] driven by the SLO monitor's
    /// rolling burn (plus queue depth and occupancy) picks the rung, with
    /// hysteresis and a cooldown, and can gate admission entirely under
    /// extreme burn. Requires `slo_window > 0`.
    Slo,
}

impl ShedPolicy {
    /// Stable lower-case name used in reports and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::QueueOnly => "queue",
            ShedPolicy::Retention => "retention",
            ShedPolicy::Slo => "slo",
        }
    }

    /// Parses a `--shed` value: exactly one of the [`name`](Self::name)s
    /// `queue`, `retention` or `slo`.
    ///
    /// # Errors
    ///
    /// Describes the accepted spellings when `s` is none of them.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "queue" => Ok(ShedPolicy::QueueOnly),
            "retention" => Ok(ShedPolicy::Retention),
            "slo" => Ok(ShedPolicy::Slo),
            other => Err(format!(
                "unknown shed policy `{other}` (use queue|retention|slo)"
            )),
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum in-flight requests per step (batch slots).
    pub capacity: usize,
    /// Maximum pending requests across both class queues; arrivals beyond
    /// it are rejected outright.
    pub queue_capacity: usize,
    /// Overload behaviour.
    pub shed: ShedPolicy,
    /// Retention ladder, best first. `ladder[0]` is the undegraded service
    /// level; deeper backlog walks down the ladder (under
    /// [`ShedPolicy::Retention`] only).
    pub ladder: Vec<f64>,
    /// Deadline budget for [`DeadlineClass::Interactive`], microseconds.
    pub interactive_deadline_us: f64,
    /// Deadline budget for [`DeadlineClass::Batch`], microseconds.
    pub batch_deadline_us: f64,
    /// Rolling window (in terminal requests) of the SLO monitor; `0`
    /// disables the monitor entirely. Under [`ShedPolicy::QueueOnly`] and
    /// [`ShedPolicy::Retention`] the monitor never feeds back into
    /// scheduling, so outcomes and reports are identical either way;
    /// [`ShedPolicy::Slo`] consumes its rolling burn and requires a
    /// nonzero window.
    pub slo_window: usize,
    /// Hysteresis/cooldown parameters of the closed-loop controller
    /// (consulted under [`ShedPolicy::Slo`] only).
    pub control: ControlConfig,
    /// Fault-retry attempts before a request fails typed. Only reachable
    /// with serve-layer fault injection active.
    pub retry_cap: usize,
    /// Base retry backoff in cycles; doubles with each attempt.
    pub retry_backoff_cycles: u64,
    /// Cycles a failed lane stays quarantined between health probes.
    pub quarantine_cycles: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            capacity: 8,
            queue_capacity: 256,
            shed: ShedPolicy::Retention,
            ladder: vec![1.0, 0.5, 0.25, 0.125],
            interactive_deadline_us: 50.0,
            batch_deadline_us: 500.0,
            slo_window: 64,
            control: ControlConfig::default(),
            retry_cap: 3,
            retry_backoff_cycles: 2_000,
            quarantine_cycles: 20_000,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("capacity must be at least 1".into());
        }
        // Every observed step boundary snapshots one gauge per lane, so the
        // width is memory a flag chooses; the bench runs 8.
        if self.capacity > MAX_CAPACITY {
            return Err(format!(
                "capacity {} exceeds the {MAX_CAPACITY} batch slots an engine supports",
                self.capacity
            ));
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        if self.ladder.is_empty() {
            return Err("retention ladder must not be empty".into());
        }
        for w in self.ladder.windows(2) {
            if w[1] > w[0] {
                return Err("retention ladder must be non-increasing".into());
            }
        }
        for &r in &self.ladder {
            if !(r > 0.0 && r <= 1.0) {
                return Err(format!("ladder retention {r} out of range (0, 1]"));
            }
        }
        for us in [self.interactive_deadline_us, self.batch_deadline_us] {
            // NaN must fail too, so test for the one acceptable state.
            if !(us > 0.0 && us.is_finite()) {
                return Err("deadline budgets must be positive and finite".into());
            }
        }
        // The monitor allocates its whole rolling window up front (16 bytes
        // a terminal); the committed runs use 64.
        if self.slo_window > MAX_SLO_WINDOW {
            return Err(format!(
                "slo_window {} exceeds the {MAX_SLO_WINDOW} terminals a monitor holds",
                self.slo_window
            ));
        }
        if self.shed == ShedPolicy::Slo && self.slo_window == 0 {
            return Err("shed policy slo needs the SLO monitor (slo_window > 0)".into());
        }
        self.control.validate()?;
        if self.retry_backoff_cycles == 0 {
            return Err("retry_backoff_cycles must be at least 1".into());
        }
        if self.quarantine_cycles == 0 {
            return Err("quarantine_cycles must be at least 1".into());
        }
        Ok(())
    }

    /// Deadline budget of a class in cycles (1 GHz clock: 1000/µs).
    pub(crate) fn deadline_cycles(&self, class: DeadlineClass) -> u64 {
        let us = match class {
            DeadlineClass::Interactive => self.interactive_deadline_us,
            DeadlineClass::Batch => self.batch_deadline_us,
        };
        (us * 1e3).round() as u64
    }
}

/// A request and what the engine has decided about it. Carried by value
/// from queue to retry backoff to batch slot to its terminal record.
#[derive(Debug)]
struct Ticket {
    req: Request,
    deadline: u64,
    /// `ladder[0]` until admission picks a rung. Retention and rung stay
    /// pinned across retries, so a retried decode regenerates the
    /// identical token stream.
    retention: f64,
    level: usize,
    /// Fault-retry attempt (the original run is 0).
    attempt: u64,
}

impl Ticket {
    /// This ticket's terminal record at `at`, before any admission.
    fn completion(&self, reason: FinishReason, at: u64) -> Completion {
        Completion {
            id: self.req.id,
            class: self.req.class,
            reason,
            retention: self.retention,
            tokens: Vec::new(),
            arrival: self.req.arrival,
            admit: None,
            first_token: None,
            finish: at,
            admit_seq: None,
            retries: self.attempt,
        }
    }
}

/// An injected fault that aborts a slot's current attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotFault {
    /// The slot died mid-decode; the lane is quarantined too.
    Lane,
    /// A K/V-cache read came back corrupted; the cached state is lost.
    Kv,
    /// Consecutive decode-step timeouts exhausted the in-place budget.
    Timeout,
}

/// One completed quarantine interval of a lane (closed at run end for
/// lanes still quarantined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineSpan {
    /// Batch-slot lane that was taken out of rotation.
    pub lane: usize,
    /// Cycle the lane entered quarantine.
    pub from: u64,
    /// Cycle the lane was re-admitted (run end if never).
    pub until: u64,
}

/// One in-flight batch slot.
#[derive(Debug)]
struct Slot {
    ticket: Ticket,
    /// Stable batch-slot lane (smallest index free at admission); lanes
    /// are reused as slots drain, giving timelines one track per slot.
    lane: usize,
    /// Prompt+generated positions the simulated machine has consumed.
    consumed: usize,
    /// Generated tokens.
    tokens: Vec<usize>,
    admit: u64,
    admit_seq: u64,
    first_token: Option<u64>,
    /// Connections the last decode step attended (drives K/V cost).
    attended_last: u64,
    /// Consecutive decode-step timeouts at the current position.
    timeouts_here: u64,
    /// An injected fault aborted this attempt; resolved at the step
    /// boundary (retry or typed failure).
    fault: Option<SlotFault>,
}

/// Aggregate result of one [`ServeEngine::run`].
#[derive(Debug, Default, PartialEq)]
pub struct ServeOutcome {
    /// Terminal record per offered request, in completion order.
    pub completions: Vec<Completion>,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Total simulated cycles from first arrival to last exit.
    pub total_cycles: u64,
    /// Largest batch occupancy observed (never exceeds capacity).
    pub max_occupancy: usize,
    /// Sum of per-step occupancies (mean = `occupancy_sum / steps`).
    pub occupancy_sum: u64,
    /// Requests admitted below `ladder[0]`.
    pub degraded: u64,
    /// Tokens generated across all requests.
    pub tokens: u64,
    /// Deepest pending-queue depth sampled at any step boundary.
    pub queue_depth_max: usize,
    /// Terminals that met their SLO (full output within deadline); `0`
    /// when the monitor was off.
    pub slo_hits: u64,
    /// Terminals that missed their SLO; `0` when the monitor was off.
    pub slo_misses: u64,
    /// Disjoint SLO window summaries (empty when the monitor was off).
    pub slo_windows: Vec<SloWindow>,
    /// Per-request lifecycle records, sorted by id (`None` unless
    /// [`ServeEngine::enable_timeline`] was called).
    pub timeline: Option<Vec<RequestTimeline>>,
    /// Fault-retry re-admissions performed (0 without injected faults).
    pub retries: u64,
    /// Requests that terminated as [`FinishReason::Failed`].
    pub failed: u64,
    /// Decode steps discarded to injected cycle-budget timeouts.
    pub timeout_steps: u64,
    /// Lanes sent to quarantine after a slot failure.
    pub quarantine_events: u64,
    /// Quarantine intervals, in event order (open intervals are closed at
    /// the run's final cycle).
    pub quarantine_log: Vec<QuarantineSpan>,
    /// Closed-loop controller activity (`None` unless the policy was
    /// [`ShedPolicy::Slo`]).
    pub control: Option<ControlSummary>,
}

impl ServeOutcome {
    /// Mean batch occupancy over all steps.
    pub fn mean_occupancy(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.steps as f64
        }
    }

    /// Completions that produced their full requested output.
    pub fn served(&self) -> usize {
        self.completions
            .iter()
            .filter(|c| c.reason.is_served())
            .count()
    }
}

/// The continuous-batching scheduler: the decision core driving the
/// model's forward (see the module docs for the step anatomy).
#[derive(Debug)]
pub struct ServeEngine<'m> {
    pub(crate) core: Core<ModelForward<'m>>,
}

impl ServeEngine<'_> {
    /// The engine's cost model (shared with traffic calibration).
    pub fn cost(&self) -> &CostModel {
        &self.core.cost
    }

    /// Turns on per-request lifecycle recording. `label` prefixes the
    /// engine's Chrome-trace tracks (pass a distinct label per engine when
    /// several share one trace session).
    pub fn enable_timeline(&mut self, label: &str) {
        self.core.spine.enable_timeline(label);
    }

    /// Attaches folds over the engine's event stream (a flight ring, live
    /// gauges, a `Vec` capturing the raw stream) and sets the `label`
    /// prefixing its Chrome-trace tracks. Sinks only ever receive events,
    /// so attaching one changes no scheduling decision or report byte.
    pub fn observe(&mut self, label: &str, sinks: impl IntoIterator<Item = Box<dyn EventSink>>) {
        self.core.spine.attach(label, sinks);
    }

    /// Runs the trace to completion: every offered request terminates
    /// (served, evicted, expired or rejected) before this returns.
    ///
    /// A request the model cannot run — empty prompt, `max_new` of zero,
    /// longer than `seq_len`, or a prompt token outside the vocabulary —
    /// is turned away at arrival as [`FinishReason::Rejected`], like one
    /// that finds the queue full.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not sorted by arrival.
    pub fn run(self, requests: Vec<Request>) -> ServeOutcome {
        self.core.run(requests)
    }
}

/// The decision core (see the module docs): the engine minus its forward,
/// which it reaches only through [`Forward`].
#[derive(Debug)]
pub(crate) struct Core<F> {
    fw: F,
    cfg: ServeConfig,
    cost: CostModel,
    now: u64,
    /// Pending queues, FIFO, indexed by `DeadlineClass as usize`.
    queues: [VecDeque<Ticket>; 2],
    /// Faulted tickets waiting out their backoff, each with the cycle it
    /// becomes admissible again.
    retryq: VecDeque<(u64, Ticket)>,
    slots: Vec<Slot>,
    /// Lanes out of rotation after a slot failure: each one's interval,
    /// whose `until` is the next health probe while it lasts, and the
    /// probes so far (a coordinate of the probe decision).
    quarantine: Vec<(QuarantineSpan, u64)>,
    admit_seq: u64,
    /// Engine state, not an observer: [`ShedPolicy::Slo`] steers by it.
    slo: Option<SloMonitor>,
    /// Closed-loop controller (present under [`ShedPolicy::Slo`] only).
    control: Option<Controller>,
    /// Where emitted events go; never read back.
    pub(crate) spine: Spine,
    /// Whether anything is watching this run (fixed when it starts).
    watched: bool,
    /// What [`run`](Self::run) returns, kept up to date as it goes.
    out: ServeOutcome,
    /// Per-step buffers, kept for their capacity: the lanes advanced this
    /// step, the forward's answers for them, and per slot its K/V cycles
    /// and its answer (`None` when its position was discarded).
    lanes: Vec<usize>,
    answers: Vec<Answer>,
    ran: Vec<(u64, Option<Answer>)>,
    /// See [`Core::waits_per_cycle`].
    #[cfg(test)]
    pub(crate) per_cycle_idle: bool,
}

impl<F: Forward> Core<F> {
    /// A core driving `fw`; `cfg` has passed [`ServeConfig::validate`].
    pub(crate) fn new(cfg: ServeConfig, cost: CostModel, fw: F) -> Self {
        Self {
            slo: (cfg.slo_window > 0).then(|| SloMonitor::new(cfg.slo_window)),
            control: (cfg.shed == ShedPolicy::Slo)
                .then(|| Controller::new(cfg.control.clone(), cfg.ladder.len() - 1)),
            fw,
            cfg,
            cost,
            now: 0,
            queues: [VecDeque::new(), VecDeque::new()],
            retryq: VecDeque::new(),
            slots: Vec::new(),
            quarantine: Vec::new(),
            admit_seq: 0,
            spine: Spine::new(),
            watched: false,
            out: ServeOutcome::default(),
            lanes: Vec::new(),
            answers: Vec::new(),
            ran: Vec::new(),
            #[cfg(test)]
            per_cycle_idle: false,
        }
    }

    /// The single way out for everything observable. With nobody watching
    /// this is one predictable branch and the event is never built.
    #[inline]
    fn emit(&mut self, cycle: u64, what: impl FnOnce(&Self) -> Transition) {
        if self.watched {
            let what = what(self);
            self.spine.on(&ServeEvent { cycle, what });
        }
    }

    /// [`ServeEngine::run`] on this core's forward.
    pub(crate) fn run(mut self, requests: Vec<Request>) -> ServeOutcome {
        let _sp = dota_prof::span("serve.run");
        let sorted = requests.windows(2).all(|w| w[0].arrival <= w[1].arrival);
        assert!(sorted, "requests must be sorted by arrival");
        self.watched = self.spine.watched();
        let mut arrivals = requests.into_iter().peekable();
        loop {
            while arrivals.peek().is_some_and(|r| r.arrival <= self.now) {
                self.enqueue(arrivals.next().expect("peeked"));
            }
            self.expire_queued();
            self.expire_retries();
            self.probe_quarantine();
            self.observe_control(self.now);
            self.admit();
            if self.slots.is_empty() {
                // Idle: jump to the next instant anything can happen (see
                // `next_wake` for the candidates).
                let now = self.now;
                match self.next_wake(arrivals.peek().map(|r| r.arrival)) {
                    // Unreachable: the passes above drained every
                    // candidate at or before `now`. Kept as a forward step
                    // so that no input can hang a release build.
                    Some((t, what)) if t <= now => {
                        debug_assert!(
                            self.waits_per_cycle(),
                            "idle engine offered a past wake-up: {what} at cycle {t}, now {now}"
                        );
                        self.now += 1;
                    }
                    Some((t, _)) => {
                        if self.retryq.iter().any(|(ready_at, _)| *ready_at <= now) {
                            self.credit_idle_passes(now + 1, t);
                        }
                        self.now = t;
                    }
                    None => {
                        assert!(
                            self.pending_len() == 0 && self.retryq.is_empty(),
                            "pending requests with free capacity"
                        );
                        break;
                    }
                }
                continue;
            }
            self.step();
        }
        // Close quarantine intervals still open at run end.
        let until = self.now;
        for (q, _) in self.quarantine.drain(..) {
            self.out.quarantine_log.push(QuarantineSpan { until, ..q });
        }
        let windows = self.slo.take().map(|mut slo| {
            slo.finish();
            self.out.slo_hits = slo.hits();
            self.out.slo_misses = slo.misses();
            self.out.slo_windows = slo.into_windows();
            self.out.slo_windows.len()
        });
        self.out.timeline = self.spine.close(windows);
        self.out.control = self.control.as_ref().map(Controller::summary);
        self.out
    }

    /// The earliest instant an idle engine can act at, and what acts then.
    /// The wake candidates: the next `arrival`, a queued or retrying
    /// request's deadline, a retry backoff that has not yet elapsed, and a
    /// quarantine probe. A retry whose backoff has elapsed is none: an idle
    /// engine still holds it only because every lane is quarantined
    /// (admission places ready retries first, past the gate), so it next
    /// moves at a probe or at its deadline.
    fn next_wake(&self, arrival: Option<u64>) -> Option<(u64, &'static str)> {
        let mut next = arrival.map(|t| (t, "arrival"));
        let mut consider = |t: u64, what: &'static str| {
            if next.is_none_or(|(n, _)| t < n) {
                next = Some((t, what));
            }
        };
        if self.pending_len() > 0 || !self.retryq.is_empty() {
            for t in self.queues.iter().flat_map(|q| q.iter()) {
                consider(t.deadline, "queue deadline");
            }
            for (ready_at, t) in &self.retryq {
                if *ready_at > self.now || self.waits_per_cycle() {
                    consider(*ready_at, "retry backoff");
                }
                consider(t.deadline, "retry deadline");
            }
            for (q, _) in &self.quarantine {
                consider(q.until, "quarantine probe");
            }
        }
        next
    }

    /// Credits the scheduler passes a per-cycle idle loop would run at
    /// cycles `from..until` while a ready retry waits on quarantined lanes.
    /// Everything that can act in them is a wake candidate, so each pass
    /// is one controller observation of unchanged inputs. Once an
    /// observation moves neither the rung nor the gate the controller is
    /// at a fixed point and the rest are credited in O(1); until then (a
    /// cooldown of 0 steps lets the rung walk at one step count) they run
    /// one by one, each transition stamped with its own cycle.
    fn credit_idle_passes(&mut self, from: u64, until: u64) {
        let mut at = from;
        while at < until {
            let moved = self.observe_control(at);
            at += 1;
            if !moved {
                break;
            }
        }
        if let Some(ctl) = self.control.as_mut() {
            ctl.repeat_observation(until - at);
        }
    }

    /// Whether the idle rule runs as its per-cycle reference: a ready
    /// retry blocked on quarantined lanes is a wake-up in the past, so the
    /// engine steps one cycle and re-runs a full pass (the oracle of the
    /// jump in `idle_tests`).
    #[cfg(test)]
    fn waits_per_cycle(&self) -> bool {
        self.per_cycle_idle
    }

    #[cfg(not(test))]
    fn waits_per_cycle(&self) -> bool {
        false
    }

    fn pending_len(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    /// The one terminal path: every exit (reject, queue expiry, failure,
    /// eviction, completion) feeds the SLO monitor, emits its terminal and
    /// records `c` here, so no request can leave unrecorded.
    fn finish(&mut self, deadline: u64, c: Completion) {
        let at = c.finish;
        let slo = self.slo.as_mut().map(|slo| {
            let hit = c.reason.is_served() && at <= deadline;
            let budget = deadline.saturating_sub(c.arrival).max(1);
            let burn = at.saturating_sub(c.arrival) as f64 / budget as f64;
            slo.complete(hit, burn, at);
            SloReading {
                hit,
                burn,
                rolling_hit_rate: slo.rolling_hit_rate(),
                rolling_burn: slo.rolling_burn(),
            }
        });
        let (id, reason, tokens) = (c.id, c.reason, c.tokens.len() as u64);
        self.emit(at, |_| Transition::Terminal {
            id,
            reason,
            tokens,
            slo,
        });
        self.out.completions.push(c);
    }

    /// [`finish`](Self::finish) for a request leaving a batch slot. A
    /// failed attempt delivers nothing: its tokens and first-token stamp
    /// are dropped from the record.
    fn finish_slot(&mut self, slot: Slot, reason: FinishReason, at: u64) {
        let mut c = slot.ticket.completion(reason, at);
        c.admit = Some(slot.admit);
        c.admit_seq = Some(slot.admit_seq);
        if reason != FinishReason::Failed {
            c.first_token = slot.first_token;
            c.tokens = slot.tokens;
        }
        self.finish(slot.ticket.deadline, c);
    }

    fn enqueue(&mut self, req: Request) {
        // Saturating: a budget past the end of the clock never expires.
        let budget = self.cfg.deadline_cycles(req.class);
        let deadline = req.arrival.saturating_add(budget);
        let (id, class, arrival, retention) = (req.id, req.class, req.arrival, self.cfg.ladder[0]);
        self.emit(self.now, |_| Transition::Offered {
            id,
            class,
            arrival,
            deadline,
            retention,
        });
        let runnable = req.max_new >= 1 && self.fw.runnable(&req);
        let t = Ticket {
            req,
            deadline,
            retention,
            level: 0,
            attempt: 0,
        };
        if !runnable || self.pending_len() >= self.cfg.queue_capacity {
            self.finish(deadline, t.completion(FinishReason::Rejected, self.now));
            return;
        }
        self.queues[class as usize].push_back(t);
    }

    fn expire_queued(&mut self) {
        let now = self.now;
        for qi in 0..2 {
            // Deadlines are arrival + a per-class constant and the queue is
            // FIFO by arrival, so expired entries form a prefix.
            while let Some(t) = self.queues[qi].pop_front_if(|t| t.deadline <= now) {
                let c = t.completion(FinishReason::QueueExpired, t.deadline);
                self.finish(t.deadline, c);
            }
        }
    }

    /// Feeds the controller one observation of the current engine state,
    /// stamping a rung or gate transition with cycle `at`; `true` when the
    /// rung or the gate moved (always `false` outside [`ShedPolicy::Slo`]).
    /// Runs once per scheduler pass, before admission, entirely on the
    /// simulated clock.
    fn observe_control(&mut self, at: u64) -> bool {
        let Some(ctl) = self.control.as_mut() else {
            return false;
        };
        let (level_before, gated_before) = (ctl.level() as u64, ctl.gated());
        let slo = self.slo.as_ref().expect("slo policy validated the monitor");
        ctl.observe(&ControlInputs {
            rolling_burn: slo.rolling_burn(),
            rolling_hit_rate: slo.rolling_hit_rate(),
            samples: slo.hits() + slo.misses(),
            queue_depth: self.queues[0].len() + self.queues[1].len(),
            occupancy: self.slots.len(),
            capacity: self.cfg.capacity,
            step: self.out.steps,
        });
        let (level_after, gated_after) = (ctl.level() as u64, ctl.gated());
        if level_after != level_before {
            self.emit(at, |_| Transition::Rung {
                from: level_before,
                to: level_after,
            });
        }
        if gated_after != gated_before {
            self.emit(at, |_| Transition::Gate {
                closed: gated_after,
            });
        }
        (level_after, gated_after) != (level_before, gated_before)
    }

    /// Fails retrying requests whose deadline passed during backoff.
    fn expire_retries(&mut self) {
        let now = self.now;
        while let Some(i) = self.retryq.iter().position(|(_, t)| t.deadline <= now) {
            let (_, t) = self.retryq.remove(i).expect("position from iterator");
            self.out.failed += 1;
            dota_faults::record("faults.serve.failed", 1);
            let c = t.completion(FinishReason::Failed, t.deadline);
            self.finish(t.deadline, c);
        }
    }

    /// Runs due health probes on quarantined lanes; a passing probe
    /// re-admits the lane, a failing one (the fault site fires on the
    /// probe's own coordinates) extends the quarantine by another window.
    fn probe_quarantine(&mut self) {
        let now = self.now;
        let window = self.cfg.quarantine_cycles;
        let mut i = 0;
        while i < self.quarantine.len() {
            let (q, probes) = &mut self.quarantine[i];
            if q.until > now {
                i += 1;
                continue;
            }
            *probes += 1;
            dota_faults::record("faults.serve.probes", 1);
            let lane = q.lane as u64;
            let failed =
                dota_faults::should_inject(FaultSite::SlotFail, &[PROBE_COORD, lane, *probes]);
            if failed {
                q.until = now.saturating_add(window);
                i += 1;
            } else {
                let (q, _) = self.quarantine.remove(i);
                let until = now;
                self.out.quarantine_log.push(QuarantineSpan { until, ..q });
                dota_faults::record("faults.serve.lanes_restored", 1);
            }
            self.emit(now, |_| Transition::Probe {
                lane,
                passed: !failed,
            });
        }
    }

    /// Smallest lane neither occupied nor quarantined (`None` when every
    /// lane is in use — possible below capacity while lanes sit in
    /// quarantine).
    fn free_lane(&self) -> Option<usize> {
        (0..self.cfg.capacity).find(|l| {
            self.slots.iter().all(|s| s.lane != *l)
                && self.quarantine.iter().all(|(q, _)| q.lane != *l)
        })
    }

    fn place(&mut self, ticket: Ticket) {
        let seq = self.admit_seq;
        self.admit_seq += 1;
        // Smallest free lane; lanes recycle as slots drain, so a timeline
        // gets one stable track per batch slot.
        let lane = self.free_lane().expect("caller checked a lane is free");
        let t = &ticket;
        let (id, rung, retention, attempt) = (t.req.id, t.level as u64, t.retention, t.attempt);
        self.emit(self.now, |_| Transition::Admitted {
            id,
            lane: lane as u64,
            rung,
            retention,
            attempt,
        });
        self.fw.admit(lane, &ticket.req, retention);
        self.slots.push(Slot {
            lane,
            consumed: 0,
            tokens: Vec::with_capacity(ticket.req.max_new),
            admit: self.now,
            admit_seq: seq,
            first_token: None,
            attended_last: 0,
            timeouts_here: 0,
            fault: None,
            ticket,
        });
    }

    fn admit(&mut self) {
        let _sp = dota_prof::span("serve.admit");
        // Ready retries re-admit first, at their pinned retention and rung
        // (so the restarted decode regenerates the identical tokens). They
        // bypass the admission gate: the system already accepted them.
        while self.slots.len() < self.cfg.capacity && self.free_lane().is_some() {
            let Some(pos) = self.retryq.iter().position(|(at, _)| *at <= self.now) else {
                break;
            };
            let (_, t) = self.retryq.remove(pos).expect("position from iterator");
            self.place(t);
        }
        if self.control.as_ref().is_some_and(Controller::gated) {
            return;
        }
        while self.slots.len() < self.cfg.capacity && self.free_lane().is_some() {
            // Backlog behind the request being admitted sets the shed
            // pressure (an empty queue admits at full service).
            let backlog = self.pending_len().saturating_sub(1);
            let Some(mut t) = self.queues[0]
                .pop_front()
                .or_else(|| self.queues[1].pop_front())
            else {
                break;
            };
            t.level = match self.cfg.shed {
                ShedPolicy::QueueOnly => 0,
                ShedPolicy::Retention => {
                    (backlog / self.cfg.capacity).min(self.cfg.ladder.len() - 1)
                }
                ShedPolicy::Slo => self
                    .control
                    .as_ref()
                    .expect("slo policy constructs the controller")
                    .level(),
            };
            t.retention = self.cfg.ladder[t.level];
            if t.level > 0 {
                self.out.degraded += 1;
            }
            self.place(t);
        }
        debug_assert!(self.slots.len() <= self.cfg.capacity);
    }

    /// Decides the injected faults of `slot`'s current position; `false`
    /// means the position does not advance this step (the attempt aborted,
    /// or the step timed out, counted in `timeouts`). Decisions are pure
    /// hashes of `(request, attempt, position)` — never of what the host
    /// has computed ahead — and are taken before any host work, so a
    /// timed-out step mutates nothing: the position simply repeats next
    /// step.
    fn position_survives(slot: &mut Slot, timeouts: &mut u64) -> bool {
        let (id, attempt) = (slot.ticket.req.id, slot.ticket.attempt);
        let coords = [id, attempt, slot.consumed as u64];
        if dota_faults::should_inject(FaultSite::SlotFail, &coords) {
            slot.fault = Some(SlotFault::Lane);
            return false;
        }
        if slot.consumed > 0 && dota_faults::should_inject(FaultSite::KvCorrupt, &coords) {
            slot.fault = Some(SlotFault::Kv);
            return false;
        }
        // The retry counter is a coordinate, so the re-decision is fresh.
        let t_coords = [id, attempt, slot.consumed as u64, slot.timeouts_here];
        if dota_faults::should_inject(FaultSite::DecodeTimeout, &t_coords) {
            slot.timeouts_here += 1;
            *timeouts += 1;
            if slot.timeouts_here >= TIMEOUT_ESCALATE {
                slot.fault = Some(SlotFault::Timeout);
            }
            return false;
        }
        slot.timeouts_here = 0;
        true
    }

    fn step(&mut self) {
        let _sp = dota_prof::span("serve.step");
        let start = self.now;
        let faults = dota_faults::enabled();
        let mut timeouts = 0;
        self.lanes.clear();
        for slot in &mut self.slots {
            if !faults || Self::position_survives(slot, &mut timeouts) {
                self.lanes.push(slot.lane);
            }
        }
        self.fw.advance(&self.lanes, &mut self.answers);
        // Each slot's own K/V share (with the weight stream below, what
        // `cost.step_cycles` bills), attributable in its timeline.
        let mut answers = self.lanes.iter().zip(&self.answers).peekable();
        self.ran.clear();
        for slot in &mut self.slots {
            let ran = answers.next_if(|&(&l, _)| l == slot.lane).map(|(_, &a)| a);
            slot.attended_last = ran.map_or(0, |(attended, _)| attended);
            if let Some((_, token)) = ran {
                slot.consumed += 1;
                slot.tokens.extend(token);
            }
            self.ran
                .push((self.cost.kv_cycles(slot.attended_last), ran));
        }
        let weight_cycles = self.cost.weight_cycles();
        let cycles = weight_cycles + self.ran.iter().map(|&(kv, _)| kv).sum::<u64>();
        self.now = self.now.saturating_add(cycles);
        let (batch, depth) = (self.slots.len(), self.pending_len());
        let out = &mut self.out;
        out.total_cycles += cycles;
        out.steps += 1;
        out.max_occupancy = out.max_occupancy.max(batch);
        out.occupancy_sum += batch as u64;
        out.queue_depth_max = out.queue_depth_max.max(depth);
        let now = self.now;
        for i in 0..batch {
            self.emit(now, |e| e.slot_step(i, start, cycles, weight_cycles));
        }
        if timeouts > 0 {
            self.out.timeout_steps += timeouts;
            dota_faults::record("faults.serve.timeout_steps", timeouts);
        }

        let tokens_before = self.out.tokens;
        // `ran` keeps the step's slot order while slots leave below.
        let mut i = 0;
        for k in 0..batch {
            if self.slots[i].fault.is_some() {
                let slot = self.slots.remove(i);
                self.resolve_fault(slot, now);
                continue;
            }
            let slot = &mut self.slots[i];
            if self.ran[k].1.is_some_and(|(_, token)| token.is_some()) {
                self.out.tokens += 1;
                if slot.first_token.is_none() {
                    slot.first_token = Some(now);
                    let id = slot.ticket.req.id;
                    self.emit(now, |_| Transition::FirstToken { id });
                }
            }
            let (slot, req) = (&self.slots[i], &self.slots[i].ticket.req);
            let eos = req.eos.is_some() && slot.tokens.last() == req.eos.as_ref();
            let done = eos || slot.tokens.len() >= req.max_new;
            if !done && now <= slot.ticket.deadline {
                i += 1;
                continue;
            }
            let reason = if eos {
                FinishReason::Eos
            } else if done {
                FinishReason::Completed
            } else {
                FinishReason::DeadlineEvicted
            };
            let slot = self.slots.remove(i);
            self.finish_slot(slot, reason, now);
        }
        // Last, so a reader between steps sees one coherent post-eviction
        // view of this boundary.
        let tokens = self.out.tokens - tokens_before;
        self.emit(now, |e| e.boundary(start, tokens, timeouts));
    }

    /// Slot `i`'s share of the step that just ran.
    fn slot_step(&self, i: usize, start: u64, cycles: u64, weight_cycles: u64) -> Transition {
        let slot = &self.slots[i];
        let (kv_cycles, ran) = self.ran[i];
        // A slot whose position was discarded (injected fault or timeout)
        // consumed nothing this step; its record carries zero context and
        // traffic so the audit's window identities keep holding under
        // injection.
        let context = ran.map_or(0, |_| slot.consumed as u64);
        Transition::SlotStep {
            id: slot.ticket.req.id,
            step: StepRecord {
                start,
                cycles,
                weight_cycles,
                kv_cycles,
                attended: slot.attended_last,
                omitted: self.fw.dense_connections() * context - slot.attended_last,
                context,
            },
        }
    }

    /// The engine's state at the end of the step that began at `start`
    /// (evictions leave the queues alone, so their depth is the step's).
    fn boundary(&self, start: u64, tokens: u64, timeouts: u64) -> Transition {
        let now = self.now;
        // Burn of the worst still-in-flight request.
        let burn = (self.slo.is_some() && !self.slots.is_empty()).then(|| {
            let burn_of = |s: &Slot| {
                let t = &s.ticket;
                let budget = t.deadline.saturating_sub(t.req.arrival).max(1);
                (now - t.req.arrival) as f64 / budget as f64
            };
            self.slots.iter().map(burn_of).fold(0.0f64, f64::max)
        });
        let mut lane_retained = vec![0u64; self.cfg.capacity];
        for s in &self.slots {
            lane_retained[s.lane] = s.attended_last;
        }
        let milli = |x: f64| (x * 1000.0).round() as u64;
        Transition::StepBoundary {
            start,
            batch: self.ran.len() as u64,
            tokens,
            timeouts,
            burn,
            state: Box::new(GaugesSample {
                cell: String::new(),
                cycle: now,
                steps: self.out.steps,
                queue_depth: self.pending_len() as u64,
                occupancy: self.slots.len() as u64,
                capacity: self.cfg.capacity as u64,
                admitted: self.admit_seq,
                decoded_tokens: self.out.tokens,
                slo_hit_rate_milli: self
                    .slo
                    .as_ref()
                    .map(|s| milli(s.rolling_hit_rate().clamp(0.0, 1.0))),
                slo_burn_milli: burn.map(|b| milli(b.max(0.0))),
                rung: self.control.as_ref().map(|c| c.level() as u64),
                gate_closed: self.control.as_ref().map(Controller::gated),
                quarantined_lanes: self.quarantine.len() as u64,
                lane_skew_milli: dota_telemetry::gauges::lane_skew_milli(&lane_retained),
                lane_retained,
            }),
        }
    }

    /// Resolves a slot whose attempt an injected fault aborted: quarantine
    /// the lane on a slot failure, then either schedule a retry (attempts
    /// left) or fail the request typed. Partial tokens of the aborted
    /// attempt are always discarded — a retry restarts decode from scratch
    /// at the pinned retention, regenerating the identical stream, so no
    /// token is ever duplicated or lost across attempts.
    fn resolve_fault(&mut self, slot: Slot, now: u64) {
        if slot.fault == Some(SlotFault::Lane) {
            self.out.quarantine_events += 1;
            dota_faults::record("faults.serve.lanes_quarantined", 1);
            let (lane, from) = (slot.lane, now);
            let until = now.saturating_add(self.cfg.quarantine_cycles);
            self.quarantine
                .push((QuarantineSpan { lane, from, until }, 0));
            let lane = lane as u64;
            self.emit(now, |_| Transition::Quarantine { lane });
        }
        let (id, discarded) = (slot.ticket.req.id, slot.tokens.len() as u64);
        if slot.ticket.attempt < self.cfg.retry_cap as u64 {
            self.out.retries += 1;
            dota_faults::record("faults.serve.retries", 1);
            let mut t = slot.ticket;
            // Exponential cycle backoff, doubling per attempt (shift
            // capped so pathological retry caps cannot overflow; a base
            // too large for the clock saturates to "never").
            let doubling = 1 << t.attempt.min(20);
            let backoff = self.cfg.retry_backoff_cycles.saturating_mul(doubling);
            t.attempt += 1;
            let attempt = t.attempt;
            self.emit(now, |_| Transition::Retry {
                id,
                attempt,
                discarded,
            });
            self.retryq.push_back((now.saturating_add(backoff), t));
        } else {
            self.out.failed += 1;
            dota_faults::record("faults.serve.failed", 1);
            self.emit(now, |_| Transition::Discard { id, discarded });
            self.finish_slot(slot, FinishReason::Failed, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_accel::AccelConfig;
    use dota_autograd::ParamSet;
    use dota_transformer::{Model, TransformerConfig};

    fn tiny_model(seq: usize) -> (Model, ParamSet) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny_causal(seq, 8), &mut params, 17);
        (model, params)
    }

    fn req(id: u64, arrival: u64, prompt: &[usize], max_new: usize) -> Request {
        Request {
            id,
            arrival,
            prompt: prompt.to_vec(),
            max_new,
            eos: None,
            class: DeadlineClass::Interactive,
        }
    }

    fn engine<'m>(model: &'m Model, params: &'m ParamSet, cfg: ServeConfig) -> ServeEngine<'m> {
        ServeEngine::new(model, params, cfg, &AccelConfig::default()).unwrap()
    }

    #[test]
    fn shed_policy_has_one_spelling_each() {
        for name in ["queue", "retention", "slo"] {
            assert_eq!(ShedPolicy::parse(name).map(ShedPolicy::name), Ok(name));
        }
        for other in ["queue-only", "shed", "QUEUE", "Slo", " retention", "both"] {
            let err = ShedPolicy::parse(other).unwrap_err();
            assert!(err.contains(&format!("`{other}`")), "{err}");
        }
    }

    #[test]
    fn single_request_is_served_with_full_timestamps() {
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig::default();
        let out = engine(&model, &params, cfg).run(vec![req(1, 0, &[1, 2, 3], 4)]);
        assert_eq!(out.completions.len(), 1);
        let c = &out.completions[0];
        assert_eq!(c.reason, FinishReason::Completed);
        assert_eq!(c.tokens.len(), 4);
        assert_eq!(c.admit, Some(0));
        // Prompt takes 3 steps; the first token lands at the end of step 3.
        assert!(c.first_token.unwrap() > 0);
        assert!(c.finish > c.first_token.unwrap());
        assert_eq!(out.steps, 3 + 4 - 1); // one decode per prompt token, last prompt step emits
        assert_eq!(out.tokens, 4);
    }

    /// A slot's cache is sized once, at admission, to the positions its
    /// request can reach: `min(prompt + max_new, seq_len)` rows of
    /// capacity, unchanged through every step to the slot's retirement.
    #[test]
    fn slot_cache_is_sized_once_at_admission() {
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig {
            capacity: 4,
            shed: ShedPolicy::QueueOnly,
            interactive_deadline_us: 1e6,
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let e = &mut engine(&model, &params, cfg).core;
        let requests = [
            req(1, 0, &[1, 2, 3], 4),
            req(2, 0, &[1; 20], 4),
            req(3, 0, &[5], 1),
            req(4, 0, &[2, 6], 9),
        ];
        for r in requests {
            e.enqueue(r);
        }
        e.admit();
        assert_eq!(e.slots.len(), 4);
        while !e.slots.is_empty() {
            for s in &e.slots {
                let r = &s.ticket.req;
                let sized = (r.prompt.len() + r.max_new).min(24);
                let l = e.fw.lanes.iter().find(|l| l.lane == s.lane).unwrap();
                assert_eq!(l.cache.capacity(), sized, "request {}", r.id);
            }
            e.step();
        }
    }

    /// A plain engine step — one that admits and retires nothing — makes at
    /// most one heap allocation, its list of decode items, once the run's
    /// buffers have seen their shapes: of two identical waves of requests
    /// through one engine, each plain step of the second is counted. Needs
    /// the counting allocator (`--features dota-prof/prof-alloc`).
    #[test]
    #[ignore = "needs the counting allocator: --features dota-prof/prof-alloc"]
    fn plain_engine_step_allocates_at_most_once() {
        let (model, params) = tiny_model(64);
        let cfg = ServeConfig {
            capacity: 4,
            interactive_deadline_us: 1e6,
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let e = &mut engine(&model, &params, cfg).core;
        let _session = dota_prof::session("plain_engine_step");
        let calls = || dota_prof::alloc_stats().allocation_calls;
        let probe = calls();
        drop(std::hint::black_box(Box::new(0u64)));
        assert!(calls() > probe, "the counting allocator is not installed");
        let mut counted = 0;
        for wave in 0..2 {
            // Prompts from 5 to 54 positions (one to two prefill blocks);
            // the backlog admits half of them below full retention.
            for i in 0..8 {
                let prompt: Vec<usize> = (0..5 + 7 * i).map(|t| t % 8).collect();
                e.enqueue(req((wave * 8 + i) as u64, e.now, &prompt, 10));
            }
            loop {
                e.admit();
                if e.slots.is_empty() {
                    break;
                }
                // A step can only retire slots, so a plain one keeps them all.
                let (batch, before) = (e.slots.len(), calls());
                e.step();
                let spent = calls() - before;
                if wave == 1 && e.slots.len() == batch {
                    assert!(spent <= 1, "step {}: {spent} allocations", e.out.steps);
                    counted += 1;
                }
            }
        }
        assert!(counted > 50, "only {counted} plain steps");
    }

    #[test]
    fn engine_output_matches_offline_generate() {
        let (model, params) = tiny_model(24);
        let prompt = [1usize, 4, 2, 7];
        let offline = model.generate(&params, &prompt, 5, &dota_transformer::DenseDecode);
        let cfg = ServeConfig {
            shed: ShedPolicy::QueueOnly,
            ..Default::default()
        };
        let out = engine(&model, &params, cfg).run(vec![req(9, 0, &prompt, 5)]);
        assert_eq!(out.completions[0].tokens, offline.tokens);
    }

    #[test]
    fn eos_stops_generation_early() {
        let (model, params) = tiny_model(32);
        let prompt = [1usize, 2, 3];
        // First run to learn what the model emits, then use that token as EOS.
        let cfg = ServeConfig::default();
        let out = engine(&model, &params, cfg.clone()).run(vec![req(1, 0, &prompt, 6)]);
        let first = out.completions[0].tokens[0];
        let mut r = req(1, 0, &prompt, 6);
        r.eos = Some(first);
        let out = engine(&model, &params, cfg).run(vec![r]);
        let c = &out.completions[0];
        assert_eq!(c.reason, FinishReason::Eos);
        assert_eq!(c.tokens, vec![first]);
    }

    /// Requests the model cannot run leave as typed rejections carrying
    /// their id — no panic at arrival, none mid-batch inside `decode_rows`
    /// — and their batch-mates are served as if they had never arrived.
    #[test]
    fn unrunnable_requests_are_rejected_not_panicked_on() {
        let (model, params) = tiny_model(24);
        let good = [req(1, 0, &[1, 2, 3], 4), req(6, 5, &[7, 0], 2)];
        let mut trace = vec![
            good[0].clone(),
            req(2, 0, &[], 4),        // empty prompt
            req(3, 0, &[1, 2], 0),    // nothing to generate
            req(4, 0, &[1; 20], 5),   // 25 positions > seq_len 24
            req(5, 0, &[1, 8, 2], 4), // token 8 in a vocabulary of 8
            good[1].clone(),
        ];
        trace.sort_by_key(|r| r.arrival);
        let out = engine(&model, &params, ServeConfig::default()).run(trace);
        assert_eq!(out.completions.len(), 6);
        for id in 2..=5 {
            let c = out.completions.iter().find(|c| c.id == id).unwrap();
            assert_eq!(c.reason, FinishReason::Rejected, "request {id}");
            assert!(c.tokens.is_empty() && c.admit.is_none(), "request {id}");
        }
        let alone = engine(&model, &params, ServeConfig::default()).run(good.to_vec());
        for c in &alone.completions {
            let served = out.completions.iter().find(|o| o.id == c.id).unwrap();
            assert_eq!(served, c);
        }
    }

    #[test]
    fn occupancy_is_bounded_and_queue_rejects_overflow() {
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig {
            capacity: 2,
            queue_capacity: 3,
            shed: ShedPolicy::QueueOnly,
            interactive_deadline_us: 1e6,
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let requests: Vec<Request> = (0..12).map(|i| req(i, 0, &[1, 2], 3)).collect();
        let out = engine(&model, &params, cfg).run(requests);
        assert_eq!(out.completions.len(), 12);
        assert!(out.max_occupancy <= 2);
        let rejected = out
            .completions
            .iter()
            .filter(|c| c.reason == FinishReason::Rejected)
            .count();
        // The queue is the single entry point, so a simultaneous burst is
        // capped at queue_capacity: 3 accepted, the other 9 bounce.
        assert_eq!(rejected, 9);
        assert_eq!(out.served(), 3);
    }

    #[test]
    fn queued_requests_expire_at_their_deadline() {
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig {
            capacity: 1,
            queue_capacity: 64,
            shed: ShedPolicy::QueueOnly,
            interactive_deadline_us: 0.5, // 500 cycles: far below one service
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let requests: Vec<Request> = (0..4).map(|i| req(i, 0, &[1, 2, 3], 8)).collect();
        let out = engine(&model, &params, cfg).run(requests);
        let expired = out
            .completions
            .iter()
            .filter(|c| c.reason == FinishReason::QueueExpired)
            .count();
        assert!(expired >= 2, "expected queue expiries, got {out:?}");
        for c in &out.completions {
            if c.reason == FinishReason::QueueExpired {
                assert_eq!(c.e2e(), 500);
                assert!(c.tokens.is_empty());
            }
        }
    }

    #[test]
    fn retention_shed_degrades_under_backlog() {
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig {
            capacity: 2,
            queue_capacity: 64,
            shed: ShedPolicy::Retention,
            ladder: vec![1.0, 0.5, 0.25],
            interactive_deadline_us: 1e6,
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let requests: Vec<Request> = (0..10).map(|i| req(i, 0, &[1, 2], 4)).collect();
        let out = engine(&model, &params, cfg).run(requests);
        assert!(out.degraded > 0, "backlog should push down the ladder");
        assert!(
            out.completions
                .iter()
                .any(|c| c.retention < 1.0 && c.reason == FinishReason::Completed),
            "degraded requests still complete"
        );
    }

    #[test]
    fn interactive_admits_before_batch() {
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig {
            capacity: 1,
            queue_capacity: 64,
            shed: ShedPolicy::QueueOnly,
            interactive_deadline_us: 1e6,
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let mut batch = req(0, 0, &[1, 2], 2);
        batch.class = DeadlineClass::Batch;
        let mut batch2 = req(1, 0, &[1, 2], 2);
        batch2.class = DeadlineClass::Batch;
        let inter = req(2, 0, &[1, 2], 2);
        let out = engine(&model, &params, cfg).run(vec![batch, batch2, inter]);
        let seq_of = |id: u64| {
            out.completions
                .iter()
                .find(|c| c.id == id)
                .unwrap()
                .admit_seq
                .unwrap()
        };
        // All three arrive at t=0; the interactive request jumps both
        // queued batch ones, which then admit FIFO.
        assert_eq!(seq_of(2), 0);
        assert_eq!(seq_of(0), 1);
        assert_eq!(seq_of(1), 2);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (model, params) = tiny_model(24);
        for f in [
            |c: &mut ServeConfig| c.capacity = 0,
            |c: &mut ServeConfig| c.capacity = MAX_CAPACITY + 1,
            |c: &mut ServeConfig| c.slo_window = MAX_SLO_WINDOW + 1,
            |c: &mut ServeConfig| c.ladder = vec![],
            |c: &mut ServeConfig| c.ladder = vec![0.5, 1.0],
            |c: &mut ServeConfig| c.ladder = vec![1.0, 0.0],
            |c: &mut ServeConfig| c.interactive_deadline_us = 0.0,
        ] {
            let mut cfg = ServeConfig::default();
            f(&mut cfg);
            assert!(ServeEngine::new(&model, &params, cfg, &AccelConfig::default()).is_err());
        }
        // Non-causal models cannot serve.
        let mut p2 = ParamSet::new();
        let enc = Model::init(TransformerConfig::tiny(16, 8, 2), &mut p2, 1);
        assert!(
            ServeEngine::new(&enc, &p2, ServeConfig::default(), &AccelConfig::default()).is_err()
        );
    }
}
