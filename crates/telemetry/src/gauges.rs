//! Shared live gauges the serve engine publishes into.
//!
//! The engine owns the scheduling loop; the metrics endpoint runs on an
//! accept thread. [`ServeGauges`] is the cell between them: as an
//! [`EventSink`] it keeps the state of the latest
//! [`Transition::StepBoundary`] under the current cell's name, and the
//! endpoint [`snapshot`](ServeGauges::snapshot)s it at scrape time.
//! Observation-only — nothing in the engine ever reads the cell back.

use crate::event::{EventSink, ServeEvent, Transition};
use std::sync::{Arc, Mutex, PoisonError};

/// One coherent reading of the engine's live state, in simulated cycles
/// and counts — never wall time, so published values are deterministic
/// functions of the workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugesSample {
    /// Label of the cell currently running (e.g. `serve[slo@4x]`).
    pub cell: String,
    /// Simulated cycle of this sample.
    pub cycle: u64,
    /// Scheduler steps taken so far in the current cell.
    pub steps: u64,
    /// Requests waiting in the admission queue.
    pub queue_depth: u64,
    /// Occupied decode slots.
    pub occupancy: u64,
    /// Total decode slots.
    pub capacity: u64,
    /// Requests admitted so far in the current cell.
    pub admitted: u64,
    /// Tokens decoded so far in the current cell.
    pub decoded_tokens: u64,
    /// Rolling SLO hit rate ×1000 (`None` until the monitor has a window).
    pub slo_hit_rate_milli: Option<u64>,
    /// Worst per-slot SLO burn this step ×1000 (`None` without a monitor).
    pub slo_burn_milli: Option<u64>,
    /// Current retention rung of the closed-loop controller
    /// (`None` when no controller is attached).
    pub rung: Option<u64>,
    /// Whether the controller's admission gate is closed.
    pub gate_closed: Option<bool>,
    /// Lanes currently quarantined.
    pub quarantined_lanes: u64,
    /// Per-lane retained (attended) connections at the last step; index
    /// is the lane id, `0` for idle lanes.
    pub lane_retained: Vec<u64>,
    /// Retained-work skew across busy lanes ×1000: max lane retention
    /// over mean lane retention (1000 = perfectly balanced).
    pub lane_skew_milli: u64,
}

/// The shared gauge cell (see module docs).
#[derive(Debug, Default)]
pub struct ServeGauges {
    inner: Mutex<GaugesSample>,
}

impl ServeGauges {
    /// An empty gauge cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new cell: the gauges restart from zero under `label`.
    pub fn begin_cell(&self, label: &str) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = GaugesSample {
            cell: label.to_owned(),
            ..GaugesSample::default()
        };
    }

    /// A copy of the most recently published sample.
    pub fn snapshot(&self) -> GaugesSample {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The gauges are the latest step boundary, under the current cell's name.
impl EventSink for Arc<ServeGauges> {
    fn on(&mut self, event: &ServeEvent) {
        if let Transition::StepBoundary { state, .. } = &event.what {
            let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            let cell = std::mem::take(&mut g.cell);
            g.clone_from(state);
            g.cell = cell;
        }
    }
}

/// Retained-work skew across busy lanes ×1000 (max/mean); 1000 when the
/// busy lanes are perfectly balanced, 0 when every lane is idle.
pub fn lane_skew_milli(lane_retained: &[u64]) -> u64 {
    let (mut busy, mut max, mut sum) = (0u64, 0u64, 0u64);
    for &r in lane_retained.iter().filter(|&&r| r > 0) {
        busy += 1;
        max = max.max(r);
        sum += r;
    }
    // max/mean = max * n / sum, scaled to milli.
    (max * busy * 1000).checked_div(sum).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_boundaries_publish_under_the_cell_name() {
        let mut g = Arc::new(ServeGauges::new());
        assert_eq!(g.snapshot(), GaugesSample::default());
        g.begin_cell("serve[slo@4x]");
        let state = GaugesSample {
            cell: String::new(),
            cycle: 123,
            steps: 7,
            queue_depth: 3,
            occupancy: 8,
            capacity: 8,
            admitted: 11,
            decoded_tokens: 40,
            slo_hit_rate_milli: Some(925),
            slo_burn_milli: Some(1310),
            rung: Some(2),
            gate_closed: Some(false),
            quarantined_lanes: 1,
            lane_retained: vec![4, 0, 2, 2],
            lane_skew_milli: 1500,
        };
        g.on(&ServeEvent {
            cycle: 123,
            what: Transition::StepBoundary {
                start: 100,
                batch: 8,
                tokens: 3,
                timeouts: 0,
                burn: Some(1.31),
                state: Box::new(state.clone()),
            },
        });
        let expected = GaugesSample {
            cell: "serve[slo@4x]".into(),
            ..state
        };
        assert_eq!(g.snapshot(), expected);
        // Other transitions leave the gauges alone.
        g.on(&ServeEvent {
            cycle: 124,
            what: Transition::Gate { closed: true },
        });
        assert_eq!(g.snapshot(), expected);
    }

    #[test]
    fn lane_skew_ignores_idle_lanes() {
        assert_eq!(lane_skew_milli(&[]), 0);
        assert_eq!(lane_skew_milli(&[0, 0, 0]), 0);
        // Balanced busy lanes: skew exactly 1000 regardless of idle lanes.
        assert_eq!(lane_skew_milli(&[3, 3, 0, 3]), 1000);
        // One lane with all the work among two busy lanes: max/mean = 2.
        assert_eq!(lane_skew_milli(&[4, 0, 0, 0]), 1000);
        assert_eq!(lane_skew_milli(&[6, 2]), 1500);
    }
}
