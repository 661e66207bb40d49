//! Closed-loop degradation control for the serving engine.
//!
//! PR 8's [`SloMonitor`](crate::slo::SloMonitor) was deliberately
//! observation-only; this module closes the loop. A [`Controller`] is a
//! pure function of simulated-clock state — the monitor's rolling SLO burn
//! and hit rate, the pending-queue depth and the batch occupancy, all of
//! which live on the 1 GHz cycle clock — that drives two actuators:
//!
//! * the **retention rung**: instead of the open-loop backlog ladder
//!   (`ShedPolicy::Retention`), admissions under `ShedPolicy::Slo` run at
//!   `ladder[controller.level()]`, and the level moves one rung at a time
//!   in response to sustained burn;
//! * the **admission gate**: under extreme burn with a full batch the
//!   controller stops admitting entirely, letting queued requests expire
//!   at their deadlines instead of wasting decode cycles on work that
//!   cannot finish in time.
//!
//! Two mechanisms keep it from oscillating: a **hysteresis band**
//! (`burn_low`, `burn_high`) inside which the rung never moves, and a
//! **cooldown** of scheduler steps after any rung change during which
//! further changes are suppressed. Because every input is derived from the
//! simulated clock (never wall time or thread scheduling), controller
//! decisions — and therefore reports — are byte-identical across
//! `DOTA_THREADS` and serial vs `parallel` builds.

/// Hysteresis and cooldown parameters of the [`Controller`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControlConfig {
    /// Rolling burn at or above which the controller degrades one rung.
    pub burn_high: f64,
    /// Rolling burn at or below which the controller recovers one rung
    /// (provided the queue has also drained below `depth_low`).
    pub burn_low: f64,
    /// Queue depth (in multiples of batch capacity) at or above which the
    /// controller degrades regardless of burn — the fast path for bursts
    /// that arrive before any terminal feeds the monitor.
    pub depth_high: usize,
    /// Queue depth (in multiples of capacity) the queue must drain to
    /// before the controller recovers a rung.
    pub depth_low: usize,
    /// Rolling burn at or above which (with a full batch, at the deepest
    /// rung) the admission gate closes.
    pub gate_high: f64,
    /// Rolling burn at or below which the gate reopens. The gate also
    /// reopens whenever the batch empties: an idle engine has nothing
    /// left to protect.
    pub gate_low: f64,
    /// Scheduler steps after a rung change during which further rung
    /// changes are suppressed.
    pub cooldown_steps: u64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self {
            burn_high: 0.9,
            burn_low: 0.55,
            depth_high: 1,
            depth_low: 1,
            gate_high: 2.0,
            gate_low: 1.0,
            cooldown_steps: 4,
        }
    }
}

impl ControlConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("burn_high", self.burn_high),
            ("burn_low", self.burn_low),
            ("gate_high", self.gate_high),
            ("gate_low", self.gate_low),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("control {name} must be finite and >= 0, got {v}"));
            }
        }
        if self.burn_low >= self.burn_high {
            return Err(format!(
                "control burn band empty: burn_low {} >= burn_high {}",
                self.burn_low, self.burn_high
            ));
        }
        if self.gate_low >= self.gate_high {
            return Err(format!(
                "control gate band empty: gate_low {} >= gate_high {}",
                self.gate_low, self.gate_high
            ));
        }
        if self.depth_low > self.depth_high {
            return Err(format!(
                "control depth_low {} > depth_high {}",
                self.depth_low, self.depth_high
            ));
        }
        Ok(())
    }
}

/// One observation of engine state, all on the simulated cycle clock.
#[derive(Debug, Clone, Copy)]
pub struct ControlInputs {
    /// Mean deadline burn over the monitor's rolling window (0 before any
    /// terminal completes).
    pub rolling_burn: f64,
    /// Rolling SLO hit rate (1 before any terminal completes).
    pub rolling_hit_rate: f64,
    /// Terminals the monitor has observed so far; burn is meaningless at 0.
    pub samples: u64,
    /// Pending requests across both class queues.
    pub queue_depth: usize,
    /// In-flight batch slots.
    pub occupancy: usize,
    /// Batch capacity.
    pub capacity: usize,
    /// Scheduler steps executed so far (the cooldown clock).
    pub step: u64,
}

/// Aggregate controller activity for a run (reported per cell).
///
/// An observation is one scheduler pass of the engine. That includes the
/// idle passes it credits without running them: while a ready retry waits
/// on quarantined lanes, the engine jumps to its next event and counts
/// each skipped cycle as one more observation of the same inputs, exactly
/// as the one-pass-per-cycle wait it replaced did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSummary {
    /// Rung changes over the run.
    pub changes: u64,
    /// Observations during which the admission gate was closed.
    pub gated_steps: u64,
    /// Rung at the end of the run.
    pub final_level: usize,
    /// Deepest rung reached.
    pub max_level: usize,
    /// Mean rung over all observations (weighted by scheduler passes,
    /// credited idle passes included).
    pub mean_level: f64,
}

/// The object embedded in serve/chaos cell reports (stable key order).
impl dota_metrics::ToJson for ControlSummary {
    fn write_json(&self, w: &mut dota_metrics::JsonWriter) {
        w.obj()
            .field("changes", self.changes)
            .field("gated_steps", self.gated_steps)
            .field("final_level", self.final_level)
            .field("max_level", self.max_level)
            .field("mean_level", self.mean_level)
            .end();
    }
}

/// The closed-loop degradation controller (see the module docs).
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControlConfig,
    /// Deepest rung index (`ladder.len() - 1`).
    top: usize,
    level: usize,
    gated: bool,
    last_change: Option<u64>,
    changes: u64,
    gated_steps: u64,
    max_level: usize,
    level_sum: u64,
    observations: u64,
}

impl Controller {
    /// A controller over a ladder whose deepest rung is `top`
    /// (`ladder.len() - 1`), starting undegraded and ungated.
    pub fn new(cfg: ControlConfig, top: usize) -> Self {
        Self {
            cfg,
            top,
            level: 0,
            gated: false,
            last_change: None,
            changes: 0,
            gated_steps: 0,
            max_level: 0,
            level_sum: 0,
            observations: 0,
        }
    }

    /// Current retention rung (index into the ladder).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Whether the admission gate is currently closed.
    pub fn gated(&self) -> bool {
        self.gated
    }

    /// Feeds one observation (one scheduler pass) and updates the rung and
    /// gate. Pure in the controller state and `inputs`: no clocks, no
    /// randomness.
    pub fn observe(&mut self, inputs: &ControlInputs) {
        let cap = inputs.capacity.max(1);
        let burn_known = inputs.samples > 0;
        let overloaded = (burn_known && inputs.rolling_burn >= self.cfg.burn_high)
            || inputs.queue_depth >= self.cfg.depth_high * cap;
        let relaxed = (!burn_known || inputs.rolling_burn <= self.cfg.burn_low)
            && inputs.queue_depth <= self.cfg.depth_low * cap;
        let cooled = match self.last_change {
            None => true,
            Some(at) => inputs.step.saturating_sub(at) >= self.cfg.cooldown_steps,
        };
        if cooled {
            if overloaded && self.level < self.top {
                self.level += 1;
                self.changes += 1;
                self.last_change = Some(inputs.step);
            } else if relaxed && !overloaded && self.level > 0 {
                self.level -= 1;
                self.changes += 1;
                self.last_change = Some(inputs.step);
            }
        }
        if self.gated {
            if !burn_known || inputs.rolling_burn <= self.cfg.gate_low || inputs.occupancy == 0 {
                self.gated = false;
            }
        } else if burn_known
            && inputs.rolling_burn >= self.cfg.gate_high
            && self.level == self.top
            && inputs.occupancy == inputs.capacity
        {
            self.gated = true;
        }
        self.max_level = self.max_level.max(self.level);
        self.repeat_observation(1);
    }

    /// Credits `k` more observations of the inputs last observed, in O(1).
    /// Only valid at a fixed point — when the last observation moved
    /// neither the rung nor the gate: the decision is a function of rung,
    /// gate, last change and inputs, so the same inputs move nothing
    /// again, and each repeat only adds its rung and gate to the sums
    /// (saturating: a wait can span the whole clock).
    pub(crate) fn repeat_observation(&mut self, k: u64) {
        self.observations = self.observations.saturating_add(k);
        let levels = k.saturating_mul(self.level as u64);
        self.level_sum = self.level_sum.saturating_add(levels);
        if self.gated {
            self.gated_steps = self.gated_steps.saturating_add(k);
        }
    }

    /// Aggregate activity so far.
    pub fn summary(&self) -> ControlSummary {
        ControlSummary {
            changes: self.changes,
            gated_steps: self.gated_steps,
            final_level: self.level,
            max_level: self.max_level,
            mean_level: if self.observations == 0 {
                0.0
            } else {
                self.level_sum as f64 / self.observations as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(burn: f64, depth: usize, step: u64) -> ControlInputs {
        ControlInputs {
            rolling_burn: burn,
            rolling_hit_rate: if burn <= 1.0 { 1.0 } else { 0.0 },
            samples: 64,
            queue_depth: depth,
            occupancy: 8,
            capacity: 8,
            step,
        }
    }

    fn converge(cfg: &ControlConfig, burn: f64) -> usize {
        let mut ctl = Controller::new(cfg.clone(), 3);
        for step in 0..512 {
            ctl.observe(&inputs(burn, 0, step));
        }
        ctl.level()
    }

    #[test]
    fn no_rung_change_inside_the_band() {
        let cfg = ControlConfig::default();
        let mut ctl = Controller::new(cfg.clone(), 3);
        // Degrade once at exactly burn_high, then hold strictly inside
        // the band: the rung must not move again in either direction.
        ctl.observe(&inputs(cfg.burn_high, 0, 0));
        assert_eq!(ctl.level(), 1);
        for step in 1..256 {
            let mid = (cfg.burn_low + cfg.burn_high) / 2.0;
            ctl.observe(&inputs(mid, 0, step));
            assert_eq!(ctl.level(), 1, "rung moved inside the band at {step}");
        }
        // Band edges are inclusive triggers: burn_low recovers...
        ctl.observe(&inputs(cfg.burn_low, 0, 300));
        assert_eq!(ctl.level(), 0);
        // ...and burn_high degrades (after the cooldown elapses).
        ctl.observe(&inputs(cfg.burn_high, 0, 300 + cfg.cooldown_steps));
        assert_eq!(ctl.level(), 1);
    }

    #[test]
    fn cooldown_suppresses_consecutive_changes() {
        let cfg = ControlConfig {
            cooldown_steps: 8,
            ..Default::default()
        };
        let mut ctl = Controller::new(cfg.clone(), 3);
        let mut change_steps = Vec::new();
        let mut last = ctl.level();
        for step in 0..64 {
            ctl.observe(&inputs(10.0, 64, step));
            if ctl.level() != last {
                change_steps.push(step);
                last = ctl.level();
            }
        }
        assert_eq!(change_steps, vec![0, 8, 16], "changes every cooldown");
        assert_eq!(ctl.level(), 3);
    }

    #[test]
    fn sustained_burn_response_is_monotone() {
        // Higher sustained burn must never converge to a *shallower* rung.
        let cfg = ControlConfig::default();
        let burns = [0.0, 0.3, 0.55, 0.7, 0.9, 1.2, 2.0, 5.0];
        let rungs: Vec<usize> = burns.iter().map(|&b| converge(&cfg, b)).collect();
        for pair in rungs.windows(2) {
            assert!(pair[0] <= pair[1], "non-monotone rungs {rungs:?}");
        }
        assert_eq!(*rungs.first().unwrap(), 0);
        assert_eq!(*rungs.last().unwrap(), 3);
    }

    #[test]
    fn queue_depth_degrades_before_any_terminal() {
        // A burst arrives before the monitor has a single sample: the
        // depth override must still walk the rung down.
        let cfg = ControlConfig::default();
        let mut ctl = Controller::new(cfg.clone(), 3);
        for step in 0..64 {
            ctl.observe(&ControlInputs {
                rolling_burn: 0.0,
                rolling_hit_rate: 1.0,
                samples: 0,
                queue_depth: 64,
                occupancy: 8,
                capacity: 8,
                step,
            });
        }
        assert_eq!(ctl.level(), 3);
    }

    #[test]
    fn gate_closes_only_at_top_rung_and_reopens_when_idle() {
        let cfg = ControlConfig::default();
        let mut ctl = Controller::new(cfg.clone(), 3);
        // Extreme burn, but rung still walking down: no gate yet at rung 0.
        ctl.observe(&inputs(5.0, 64, 0));
        assert!(!ctl.gated());
        // Walk to the top rung, then the gate closes.
        let mut step = 1;
        while ctl.level() < 3 {
            ctl.observe(&inputs(5.0, 64, step));
            step += 1;
        }
        ctl.observe(&inputs(5.0, 64, step));
        assert!(ctl.gated());
        // Burn inside the gate band keeps it closed (hysteresis)...
        ctl.observe(&inputs(1.5, 64, step + 1));
        assert!(ctl.gated());
        // ...and an empty batch reopens it regardless of burn.
        ctl.observe(&ControlInputs {
            occupancy: 0,
            ..inputs(5.0, 64, step + 2)
        });
        assert!(!ctl.gated());
    }

    #[test]
    fn summary_tracks_activity() {
        let cfg = ControlConfig::default();
        let mut ctl = Controller::new(cfg.clone(), 2);
        for step in 0..32 {
            ctl.observe(&inputs(10.0, 64, step));
        }
        let s = ctl.summary();
        assert_eq!(s.final_level, 2);
        assert_eq!(s.max_level, 2);
        assert_eq!(s.changes, 2);
        assert!(s.gated_steps > 0);
        assert!(s.mean_level > 0.0 && s.mean_level <= 2.0);
    }

    #[test]
    fn repeat_observation_equals_repeated_observe() {
        let cfg = ControlConfig::default();
        for (burn, depth, occupancy) in [(5.0, 64, 8), (0.7, 3, 0), (0.1, 0, 0)] {
            let x = ControlInputs {
                occupancy,
                ..inputs(burn, depth, 9)
            };
            let mut ctl = Controller::new(cfg.clone(), 3);
            for step in 0..9 {
                ctl.observe(&inputs(5.0, 64, step));
            }
            // Observe until a pass moves nothing: the fixed point.
            let mut before = (ctl.level(), ctl.gated());
            loop {
                ctl.observe(&x);
                let after = (ctl.level(), ctl.gated());
                if after == before {
                    break;
                }
                before = after;
            }
            let mut credited = ctl.clone();
            credited.repeat_observation(1000);
            for _ in 0..1000 {
                ctl.observe(&x);
            }
            assert_eq!(credited.summary(), ctl.summary(), "inputs {x:?}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ControlConfig::default().validate().is_ok());
        for cfg in [
            ControlConfig {
                burn_low: 0.9,
                burn_high: 0.9,
                ..Default::default()
            },
            ControlConfig {
                gate_low: 2.0,
                gate_high: 2.0,
                ..Default::default()
            },
            ControlConfig {
                burn_high: f64::NAN,
                ..Default::default()
            },
            ControlConfig {
                depth_low: 3,
                depth_high: 1,
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} accepted");
        }
    }
}
