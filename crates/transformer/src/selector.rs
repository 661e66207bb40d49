//! Retention-degraded decode selection.
//!
//! Serving needs a [`DecodeSelector`] whose cost knob is a plain retention
//! ratio and whose decisions are a pure function of the cache length — so
//! a shed request's output is bit-identical whatever batch it shares steps
//! with, and whatever thread decoded it. [`WindowSelector`] keeps the most
//! recent [`topk::window_count`] cached positions (recency is the strongest
//! single prior for causal attention; the DOTA detector's learned selection
//! plugs in through the same trait via `dota_detector::DotaDecodeSelector`
//! when accuracy matters more than isolation). `dota-serve` re-exports it.

use crate::DecodeSelector;
use dota_tensor::{topk, Matrix};

/// Attends to the most recent `ceil(retention · t)` cached positions.
///
/// `retention == 1.0` reports dense attention (`None`), so an undegraded
/// request is indistinguishable from one decoded outside the service.
#[derive(Debug, Clone, Copy)]
pub struct WindowSelector {
    retention: f64,
}

impl WindowSelector {
    /// A selector keeping `retention` of the cache per step.
    ///
    /// # Panics
    ///
    /// Panics if `retention` is outside `(0, 1]`.
    pub fn new(retention: f64) -> Self {
        assert!(
            retention > 0.0 && retention <= 1.0,
            "retention {retention} out of range (0, 1]"
        );
        Self { retention }
    }
}

impl DecodeSelector for WindowSelector {
    fn select(&self, l: usize, h: usize, x: &Matrix, cache_len: usize) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        self.select_into(l, h, x, cache_len, &mut out)
            .then_some(out)
    }

    fn select_into(
        &self,
        _l: usize,
        _h: usize,
        _x: &Matrix,
        cache_len: usize,
        out: &mut Vec<u32>,
    ) -> bool {
        if self.retention >= 1.0 {
            return false;
        }
        let keep = topk::window_count(self.retention, cache_len);
        out.extend((cache_len - keep) as u32..cache_len as u32);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_retention_is_dense() {
        let s = WindowSelector::new(1.0);
        assert_eq!(s.select(0, 0, &Matrix::zeros(1, 4), 10), None);
    }

    #[test]
    fn window_keeps_most_recent_share() {
        let s = WindowSelector::new(0.25);
        let kept = s.select(1, 0, &Matrix::zeros(1, 4), 8).unwrap();
        assert_eq!(kept, vec![6, 7]);
        // Never empty, even for a single cached position.
        assert_eq!(s.select(0, 0, &Matrix::zeros(1, 4), 1).unwrap(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_retention_rejected() {
        let _ = WindowSelector::new(0.0);
    }

    #[test]
    fn window_never_exceeds_context() {
        // A window wider than the cache degenerates to dense coverage of
        // whatever exists: retention 0.5 of a 1-long cache is 1 position.
        let s = WindowSelector::new(0.5);
        for t in 1..=4usize {
            let kept = s.select(0, 0, &Matrix::zeros(1, 4), t).unwrap();
            assert!(kept.len() <= t, "t={t}: kept {} positions", kept.len());
            assert_eq!(
                kept,
                ((t - kept.len())..t).map(|i| i as u32).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn ceil_rounding_at_eighth_retention() {
        // The bottom ladder rung (r = 0.125) stays at one position until
        // the ninth cached token: ceil(0.125·8) = 1, ceil(0.125·9) = 2.
        let s = WindowSelector::new(0.125);
        for t in 1..=8usize {
            assert_eq!(
                s.select(0, 0, &Matrix::zeros(1, 4), t).unwrap().len(),
                1,
                "t={t}"
            );
        }
        assert_eq!(s.select(0, 0, &Matrix::zeros(1, 4), 9).unwrap(), vec![7, 8]);
        assert_eq!(s.select(0, 0, &Matrix::zeros(1, 4), 16).unwrap().len(), 2);
        assert_eq!(s.select(0, 0, &Matrix::zeros(1, 4), 17).unwrap().len(), 3);
    }

    #[test]
    fn single_token_context_always_attended() {
        // Whatever the rung, a 1-token cache is fully attended — the clamp
        // floor, not the ceil, decides.
        for r in [0.125, 0.25, 0.5, 0.999] {
            let s = WindowSelector::new(r);
            assert_eq!(
                s.select(0, 0, &Matrix::zeros(1, 4), 1).unwrap(),
                vec![0],
                "r={r}"
            );
        }
    }

    #[test]
    fn ladder_edges_match_closed_form() {
        // Every ladder rung × context agrees with clamp(ceil(r·t), 1, t),
        // written out here rather than read from `topk::window_count`.
        for r in [1.0, 0.5, 0.25, 0.125] {
            let s = WindowSelector::new(r);
            for t in 1..=64usize {
                let expect = ((r * t as f64).ceil() as usize).clamp(1, t);
                let got = match s.select(0, 0, &Matrix::zeros(1, 4), t) {
                    None => t, // dense
                    Some(kept) => kept.len(),
                };
                assert_eq!(got, expect, "r={r} t={t}");
            }
        }
    }
}
