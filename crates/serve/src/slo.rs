//! Rolling SLO monitor for the serving engine.
//!
//! The engine's terminal histograms say *how* latency was distributed; the
//! monitor says *how the SLO is doing right now*, on the simulated clock,
//! while the run is in flight. Two windowed signals, both over the last
//! `window` terminal requests:
//!
//! * **deadline-hit rate** — fraction that produced their full output
//!   within their deadline budget;
//! * **burn-rate** — mean fraction of the deadline budget each request
//!   consumed (`e2e / budget`; > 1 means the budget was blown). A healthy
//!   service burns well under 1; a service headed for SLO violation burns
//!   toward 1 long before the hit rate moves, which is what makes burn the
//!   leading indicator a later PR can drive shedding from.
//!
//! Samples land at step boundaries (every terminal event is recorded at
//! its simulated finish time), so the monitor is as deterministic as the
//! engine itself. The monitor is engine state — [`ShedPolicy::Slo`]
//! steers by it — and reports nothing itself: each terminal event carries
//! its reading, from which the event spine derives the `serve.slo.*`
//! counters, histograms and Chrome counter tracks. Disjoint window
//! summaries are also kept for the timeline report, where
//! `dota analyze --serve` picks them up.
//!
//! [`ShedPolicy::Slo`]: crate::ShedPolicy::Slo

use dota_metrics::RollingWindow;

/// Aggregate over one disjoint window of `window` consecutive terminals
/// (the final window of a run may be shorter).
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindow {
    /// Terminal requests summarized by this window.
    pub completions: u64,
    /// Simulated time of the window's last terminal event.
    pub end_cycle: u64,
    /// Terminals that met their deadline with full output.
    pub hits: u64,
    /// `hits / completions`.
    pub hit_rate: f64,
    /// Mean `e2e / budget` over the window.
    pub mean_burn: f64,
}

/// Windowed deadline-hit-rate and burn-rate tracking (see module docs).
#[derive(Debug)]
pub struct SloMonitor {
    window: usize,
    rolling: RollingWindow,
    hits: u64,
    misses: u64,
    windows: Vec<SloWindow>,
    // Accumulator for the current disjoint window.
    cur_count: u64,
    cur_hits: u64,
    cur_burn_sum: f64,
    cur_end: u64,
}

impl SloMonitor {
    /// Creates a monitor with the given rolling-window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — the engine models "monitor off" by not
    /// constructing one, not by a degenerate window.
    pub fn new(window: usize) -> Self {
        Self {
            window,
            rolling: RollingWindow::new(window),
            hits: 0,
            misses: 0,
            windows: Vec::new(),
            cur_count: 0,
            cur_hits: 0,
            cur_burn_sum: 0.0,
            cur_end: 0,
        }
    }

    /// Records one terminal request: whether it `hit` its SLO (full output
    /// within the deadline), its `burn` (`e2e / budget`), at simulated
    /// time `now`.
    pub fn complete(&mut self, hit: bool, burn: f64, now: u64) {
        self.rolling.push(hit, burn);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.cur_count += 1;
        if hit {
            self.cur_hits += 1;
        }
        self.cur_burn_sum += burn;
        self.cur_end = self.cur_end.max(now);
        if self.cur_count as usize >= self.window {
            self.flush_window();
        }
    }

    fn flush_window(&mut self) {
        if self.cur_count == 0 {
            return;
        }
        self.windows.push(SloWindow {
            completions: self.cur_count,
            end_cycle: self.cur_end,
            hits: self.cur_hits,
            hit_rate: self.cur_hits as f64 / self.cur_count as f64,
            mean_burn: self.cur_burn_sum / self.cur_count as f64,
        });
        self.cur_count = 0;
        self.cur_hits = 0;
        self.cur_burn_sum = 0.0;
    }

    /// Finishes the run: flushes any partial window.
    pub fn finish(&mut self) {
        self.flush_window();
    }

    /// Terminals that met their SLO so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Terminals that missed their SLO so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over the rolling window (not the whole run).
    pub fn rolling_hit_rate(&self) -> f64 {
        self.rolling.hit_rate()
    }

    /// Mean burn over the rolling window (not the whole run).
    pub fn rolling_burn(&self) -> f64 {
        self.rolling.mean()
    }

    /// The disjoint window summaries flushed so far.
    pub fn windows(&self) -> &[SloWindow] {
        &self.windows
    }

    /// Consumes the monitor, returning its window summaries.
    pub fn into_windows(self) -> Vec<SloWindow> {
        self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_flush_at_capacity_and_on_finish() {
        let mut m = SloMonitor::new(2);
        m.complete(true, 0.2, 100);
        m.complete(false, 1.5, 200);
        m.complete(true, 0.4, 300);
        m.finish();
        let w = m.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].completions, 2);
        assert_eq!(w[0].hits, 1);
        assert_eq!(w[0].end_cycle, 200);
        assert_eq!(w[0].hit_rate, 0.5);
        assert!((w[0].mean_burn - 0.85).abs() < 1e-12);
        // Partial trailing window still flushes.
        assert_eq!(w[1].completions, 1);
        assert_eq!(w[1].hit_rate, 1.0);
        assert_eq!(m.hits(), 2);
        assert_eq!(m.misses(), 1);
    }

    #[test]
    fn rolling_signals_track_recent_samples_only() {
        let mut m = SloMonitor::new(2);
        m.complete(false, 2.0, 10);
        m.complete(false, 2.0, 20);
        assert_eq!(m.rolling_hit_rate(), 0.0);
        m.complete(true, 0.5, 30);
        m.complete(true, 0.5, 40);
        // The two misses have rolled out of the window.
        assert_eq!(m.rolling_hit_rate(), 1.0);
        assert_eq!(m.rolling_burn(), 0.5);
        // Run totals still remember them.
        assert_eq!(m.misses(), 2);
    }
}
