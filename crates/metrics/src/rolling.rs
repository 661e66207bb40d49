//! Fixed-size rolling window over boolean-outcome samples.
//!
//! The serve SLO monitor needs "deadline-hit rate over the last N
//! completions" and "mean burn-rate over the last N completions" — classic
//! sliding-window statistics. [`RollingWindow`] keeps the last `capacity`
//! `(hit, value)` samples in a ring buffer and answers both queries in
//! O(1) by maintaining running sums; evicted samples are subtracted as
//! they fall out, so the window never rescans.
//!
//! Values are accumulated as `f64` sums. The serve engine's burn-rates are
//! small (order 1) and windows short (order 100), so the accumulated
//! rounding error is far below the monitor's reporting precision, and —
//! more importantly for this codebase — the same additions happen in the
//! same order on every run, keeping derived reports byte-deterministic.

/// A ring buffer of `(hit, value)` samples with O(1) windowed hit-rate and
/// mean queries.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    capacity: usize,
    samples: Vec<(bool, f64)>,
    /// Next write position in the ring (wraps at `capacity`).
    head: usize,
    hits: usize,
    sum: f64,
}

impl RollingWindow {
    /// Creates a window over the last `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (an empty window answers nothing).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rolling window needs capacity >= 1");
        Self {
            capacity,
            samples: Vec::with_capacity(capacity),
            head: 0,
            hits: 0,
            sum: 0.0,
        }
    }

    /// Pushes one sample, evicting the oldest once the window is full.
    pub fn push(&mut self, hit: bool, value: f64) {
        if self.samples.len() < self.capacity {
            self.samples.push((hit, value));
        } else {
            let (old_hit, old_value) = self.samples[self.head];
            if old_hit {
                self.hits -= 1;
            }
            self.sum -= old_value;
            self.samples[self.head] = (hit, value);
        }
        self.head = (self.head + 1) % self.capacity;
        if hit {
            self.hits += 1;
        }
        self.sum += value;
    }

    /// Samples currently in the window (`<= capacity`).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Fraction of windowed samples with `hit == true` (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.hits as f64 / self.samples.len() as f64
        }
    }

    /// Mean of the windowed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_answers_zero() {
        let w = RollingWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.hit_rate(), 0.0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn partial_window_uses_actual_length() {
        let mut w = RollingWindow::new(8);
        w.push(true, 2.0);
        w.push(false, 4.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.hit_rate(), 0.5);
        assert_eq!(w.mean(), 3.0);
    }

    #[test]
    fn full_window_evicts_oldest() {
        let mut w = RollingWindow::new(3);
        w.push(true, 1.0);
        w.push(true, 2.0);
        w.push(false, 3.0);
        assert_eq!(w.len(), 3);
        // Evicts (true, 1.0): hits 2->1 then +1, sum loses the 1.0.
        w.push(true, 4.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w.hit_rate(), 2.0 / 3.0);
        assert_eq!(w.mean(), 3.0);
    }

    #[test]
    fn window_of_one_tracks_last_sample() {
        let mut w = RollingWindow::new(1);
        w.push(false, 10.0);
        assert_eq!(w.hit_rate(), 0.0);
        w.push(true, 0.5);
        assert_eq!(w.hit_rate(), 1.0);
        assert_eq!(w.mean(), 0.5);
    }

    #[test]
    fn long_stream_matches_direct_recount() {
        let mut w = RollingWindow::new(7);
        let mut all: Vec<(bool, f64)> = Vec::new();
        for i in 0..100u32 {
            let hit = i % 3 == 0;
            let v = f64::from(i % 11);
            w.push(hit, v);
            all.push((hit, v));
            let tail: Vec<_> = all.iter().rev().take(7).collect();
            let hits = tail.iter().filter(|(h, _)| *h).count();
            let sum: f64 = tail.iter().map(|(_, v)| v).sum();
            assert_eq!(w.hit_rate(), hits as f64 / tail.len() as f64);
            assert!((w.mean() - sum / tail.len() as f64).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = RollingWindow::new(0);
    }
}
