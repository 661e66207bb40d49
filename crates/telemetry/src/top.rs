//! Rendering for the `dota top` terminal dashboard.
//!
//! `dota top` polls a `/metrics` endpoint, parses the exposition with
//! [`crate::exposition::parse`], feeds the samples into a [`TopState`],
//! and prints [`TopState::render`] each tick. The state keeps a short
//! history of the headline gauges so occupancy, queue depth, and SLO
//! burn show as sparklines; per-lane retained work renders as one bar
//! per lane, which is exactly the skew signal an operator rebalances on.

use crate::exposition::Sample;
use std::collections::VecDeque;

/// Sparkline history length (one entry per poll tick).
const HISTORY: usize = 48;

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a unicode sparkline scaled to the slice maximum
/// (all-zero slices render as all-minimum bars).
pub(crate) fn sparkline(values: &[f64]) -> String {
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

/// The value of the first sample named `name`, if present.
pub(crate) fn sample_value(samples: &[Sample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

fn label_of<'a>(samples: &'a [Sample], name: &str, label: &str) -> Option<&'a str> {
    samples
        .iter()
        .find(|s| s.name == name)?
        .labels
        .iter()
        .find(|(n, _)| n == label)
        .map(|(_, v)| v.as_str())
}

#[derive(Debug, Clone, Copy, Default)]
struct Tick {
    occupancy: f64,
    queue_depth: f64,
    burn: f64,
}

/// Rolling dashboard state (see module docs).
#[derive(Debug, Default)]
pub struct TopState {
    history: VecDeque<Tick>,
}

impl TopState {
    /// An empty dashboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one poll's samples into the history.
    pub fn observe(&mut self, samples: &[Sample]) {
        let tick = Tick {
            occupancy: sample_value(samples, "dota_serve_occupancy").unwrap_or(0.0),
            queue_depth: sample_value(samples, "dota_serve_queue_depth").unwrap_or(0.0),
            burn: sample_value(samples, "dota_serve_slo_burn").unwrap_or(0.0),
        };
        if self.history.len() == HISTORY {
            self.history.pop_front();
        }
        self.history.push_back(tick);
    }

    /// Renders the dashboard for the most recent samples. Pure text (no
    /// cursor control) so it is testable and pipeable; the CLI prepends
    /// a clear-screen sequence when attached to a terminal.
    pub fn render(&self, samples: &[Sample]) -> String {
        let v = |name: &str| sample_value(samples, name);
        let int = |name: &str| v(name).unwrap_or(0.0) as u64;
        let spark = |f: fn(&Tick) -> f64| {
            let vals: Vec<f64> = self.history.iter().map(f).collect();
            sparkline(&vals)
        };
        let mut out = String::with_capacity(1024);
        let cell = label_of(samples, "dota_serve_cell_info", "cell").unwrap_or("?");
        out.push_str(&format!(
            "dota top — {cell} · cycle {} · step {}\n",
            int("dota_serve_cycle"),
            int("dota_serve_steps"),
        ));
        out.push_str(&format!(
            "  occupancy   {:>4}/{:<4} {}\n",
            int("dota_serve_occupancy"),
            int("dota_serve_capacity"),
            spark(|t| t.occupancy),
        ));
        out.push_str(&format!(
            "  queue depth {:>4}     {}\n",
            int("dota_serve_queue_depth"),
            spark(|t| t.queue_depth),
        ));
        match (v("dota_serve_slo_hit_rate"), v("dota_serve_slo_burn")) {
            (Some(hit), Some(burn)) => {
                out.push_str(&format!(
                    "  slo hit-rate {:5.1}% · burn {:.2} {}\n",
                    hit * 100.0,
                    burn,
                    spark(|t| t.burn),
                ));
            }
            _ => out.push_str("  slo         (no monitor)\n"),
        }
        match (v("dota_serve_retention_rung"), v("dota_serve_gate_closed")) {
            (Some(rung), gate) => {
                let gate = match gate {
                    Some(g) if g > 0.0 => "closed",
                    Some(_) => "open",
                    None => "-",
                };
                out.push_str(&format!("  rung {rung:.0} · admission gate {gate}\n"));
            }
            _ => out.push_str("  control     (no controller)\n"),
        }
        out.push_str(&format!(
            "  admitted {} · tokens {} · quarantined lanes {}\n",
            int("dota_serve_admitted"),
            int("dota_serve_decoded_tokens"),
            int("dota_serve_quarantined_lanes"),
        ));
        // Per-lane retained work, ordered by lane index.
        let mut lanes: Vec<(u64, f64)> = samples
            .iter()
            .filter(|s| s.name == "dota_serve_lane_retained")
            .filter_map(|s| {
                let lane = s.labels.iter().find(|(n, _)| n == "lane")?.1.parse().ok()?;
                Some((lane, s.value))
            })
            .collect();
        lanes.sort_unstable_by_key(|&(lane, _)| lane);
        if !lanes.is_empty() {
            let vals: Vec<f64> = lanes.iter().map(|&(_, v)| v).collect();
            out.push_str(&format!(
                "  lanes {} · skew {:.2}\n",
                sparkline(&vals),
                v("dota_serve_lane_skew").unwrap_or(0.0),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exposition::{parse, render as render_exposition};
    use crate::gauges::GaugesSample;
    use std::collections::BTreeMap;

    #[test]
    fn sparkline_scales_to_the_maximum() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 4.0, 8.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[2], '█');
        assert!(chars[0] < chars[1] && chars[1] < chars[2]);
    }

    #[test]
    fn dashboard_renders_the_headline_gauges() {
        let gauges = GaugesSample {
            cell: "serve[slo@4x]".into(),
            cycle: 999,
            steps: 12,
            queue_depth: 5,
            occupancy: 7,
            capacity: 8,
            admitted: 30,
            decoded_tokens: 120,
            slo_hit_rate_milli: Some(880),
            slo_burn_milli: Some(450),
            rung: Some(1),
            gate_closed: Some(false),
            quarantined_lanes: 2,
            lane_retained: vec![3, 0, 6],
            lane_skew_milli: 2000,
        };
        let text = render_exposition(&BTreeMap::new(), &gauges, &BTreeMap::new());
        let samples = parse(&text).unwrap();
        let mut top = TopState::new();
        top.observe(&samples);
        let view = top.render(&samples);
        for needle in [
            "serve[slo@4x]",
            "cycle 999",
            "occupancy      7/8",
            "queue depth    5",
            "slo hit-rate  88.0% · burn 0.45",
            "rung 1 · admission gate open",
            "quarantined lanes 2",
            "skew 2.00",
        ] {
            assert!(view.contains(needle), "missing `{needle}` in:\n{view}");
        }
    }

    #[test]
    fn history_is_bounded() {
        let mut top = TopState::new();
        for _ in 0..(HISTORY + 10) {
            top.observe(&[]);
        }
        assert_eq!(top.history.len(), HISTORY);
    }
}
