//! Learning-rate schedules.
//!
//! The tiny post-layer-norm Transformers trained in this workspace need
//! linear warm-up to escape their initialization plateau (see
//! `dota-core::experiments`); fine-tuning benefits from decay. Schedules
//! compose: a [`Schedule`] maps a 1-based optimizer step to a multiplier of
//! the base rate.

use dota_tensor::cos::cos_f32;

/// A learning-rate schedule: step → multiplier of the base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Constant rate.
    Constant,
    /// Linear ramp from 0 over `warmup` steps, then constant.
    Warmup {
        /// Ramp length in steps.
        warmup: usize,
    },
    /// Linear warm-up then cosine decay to `floor` over `total` steps.
    WarmupCosine {
        /// Ramp length in steps.
        warmup: usize,
        /// Total steps (decay completes here).
        total: usize,
        /// Final multiplier in `[0, 1]`.
        floor: f32,
    },
    /// Step decay: multiply by `gamma` every `every` steps.
    StepDecay {
        /// Interval between decays.
        every: usize,
        /// Per-interval multiplier in `(0, 1]`.
        gamma: f32,
    },
}

impl Schedule {
    /// The multiplier at 1-based optimizer step `step`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's parameters are degenerate (`total <
    /// warmup`, `every == 0`, `gamma` outside `(0, 1]`, `floor` outside
    /// `[0, 1]`).
    pub fn multiplier(&self, step: usize) -> f32 {
        match *self {
            Schedule::Constant => 1.0,
            Schedule::Warmup { warmup } => {
                if warmup == 0 {
                    1.0
                } else {
                    (step as f32 / warmup as f32).min(1.0)
                }
            }
            Schedule::WarmupCosine {
                warmup,
                total,
                floor,
            } => {
                assert!(total >= warmup.max(1), "total must cover the warmup");
                assert!((0.0..=1.0).contains(&floor), "floor out of range");
                if warmup > 0 && step < warmup {
                    return step as f32 / warmup as f32;
                }
                let progress = ((step - warmup) as f32 / (total - warmup).max(1) as f32).min(1.0);
                let cos = 0.5 * (1.0 + cos_f32(std::f32::consts::PI * progress));
                floor + (1.0 - floor) * cos
            }
            Schedule::StepDecay { every, gamma } => {
                assert!(every > 0, "decay interval must be positive");
                assert!(gamma > 0.0 && gamma <= 1.0, "gamma out of range");
                gamma.powi((step / every) as i32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        for step in [1, 10, 1000] {
            assert_eq!(Schedule::Constant.multiplier(step), 1.0);
        }
    }

    #[test]
    fn warmup_ramps_linearly_then_holds() {
        let s = Schedule::Warmup { warmup: 100 };
        assert!((s.multiplier(50) - 0.5).abs() < 1e-6);
        assert_eq!(s.multiplier(100), 1.0);
        assert_eq!(s.multiplier(5000), 1.0);
        assert_eq!(Schedule::Warmup { warmup: 0 }.multiplier(1), 1.0);
    }

    #[test]
    fn warmup_cosine_decays_to_floor() {
        let s = Schedule::WarmupCosine {
            warmup: 10,
            total: 110,
            floor: 0.1,
        };
        assert!((s.multiplier(5) - 0.5).abs() < 1e-6);
        assert!((s.multiplier(10) - 1.0).abs() < 1e-6);
        // Midpoint of the cosine: (1 + floor)/2.
        assert!((s.multiplier(60) - 0.55).abs() < 1e-2);
        assert!((s.multiplier(110) - 0.1).abs() < 1e-6);
        assert!((s.multiplier(9999) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn cosine_is_monotone_after_warmup() {
        let s = Schedule::WarmupCosine {
            warmup: 5,
            total: 105,
            floor: 0.0,
        };
        let mut prev = f32::INFINITY;
        for step in 5..=105 {
            let m = s.multiplier(step);
            assert!(m <= prev + 1e-6, "not monotone at {step}");
            prev = m;
        }
    }

    #[test]
    fn step_decay_halves() {
        let s = Schedule::StepDecay {
            every: 10,
            gamma: 0.5,
        };
        assert_eq!(s.multiplier(9), 1.0);
        assert_eq!(s.multiplier(10), 0.5);
        assert_eq!(s.multiplier(25), 0.25);
    }

    #[test]
    #[should_panic(expected = "total must cover")]
    fn rejects_degenerate_cosine() {
        let s = Schedule::WarmupCosine {
            warmup: 100,
            total: 10,
            floor: 0.0,
        };
        let _ = s.multiplier(1);
    }
}
