//! Order statistics over timing samples.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least ten samples beyond it (`choosing-metrics` §1), so a tail
//! figure is never an extreme of a handful of samples.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank 90th percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (i.e. below 100 samples).
pub fn p90(xs: &[f64]) -> Option<f64> {
    let n = xs.len();
    let rank = (0.9 * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    Some(v[rank - 1])
}

/// Least-squares slope of `y` over `x`.
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len() as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: rank 90 leaves only 9 beyond.
        assert_eq!(p90(&xs), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: rank 90, exactly 10 beyond.
        assert_eq!(p90(&xs), Some(90.0));
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(p90(&xs), Some(900.0));
        assert_eq!(p90(&[]), None);
    }

    #[test]
    fn slope_recovers_a_line() {
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 + 0.25 * v).collect();
        assert!((slope(&x, &y) - 0.25).abs() < 1e-12);
        assert_eq!(slope(&[1.0, 1.0], &[2.0, 5.0]), 0.0);
    }
}
