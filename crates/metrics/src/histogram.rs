//! Streaming log-bucketed histograms.
//!
//! A [`Histogram`] summarizes a value distribution with fixed logarithmic
//! buckets (HdrHistogram-style): each octave of magnitude splits into
//! [`SUB_BUCKETS`] geometric sub-buckets, so every recorded value lands in
//! a bucket whose width is a fixed *relative* error (~9% at 8 sub-buckets
//! per octave). Negative values mirror the positive buckets; exact zeros
//! (and magnitudes below 2⁻⁶⁴) share a dedicated zero bucket.
//!
//! Buckets are sparse `u64` counts, so histograms are:
//!
//! * **streaming** — `record` is O(log buckets) with no stored samples;
//! * **mergeable** — [`Histogram::merge`] adds bucket counts; the merged
//!   bucket table, count, min and max are independent of merge order and
//!   grouping (pure `u64`/min/max algebra), which the property tests pin;
//! * **quantile-ready** — [`Histogram::quantile`] walks the cumulative
//!   counts and answers within one bucket of the exact order statistic.

use std::collections::BTreeMap;

/// Geometric sub-buckets per octave (factor 2^(1/8) ≈ 1.09 between bucket
/// boundaries, i.e. ≤ ~9% relative quantization error).
pub const SUB_BUCKETS: i32 = 8;

/// Exponent index range: magnitudes in [2⁻⁶⁴, 2⁶⁴) get exact log bucketing;
/// smaller magnitudes fall into the zero bucket, larger ones clamp to the
/// top bucket.
const E_MIN: i32 = -64 * SUB_BUCKETS;
const E_MAX: i32 = 64 * SUB_BUCKETS - 1;

/// A streaming, mergeable, log-bucketed histogram of `f64` samples.
///
/// # Example
///
/// ```
/// use dota_metrics::Histogram;
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 50.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((1.0..=3.0).contains(&p50));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Sparse bucket table: signed bucket key (see [`Histogram::bucket_key`])
    /// → sample count. `BTreeMap` keeps keys in value order.
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket key a value falls into. Keys are ordered like the values
    /// they represent: negative values map to negative keys (larger
    /// magnitude → smaller key), zero (and |v| < 2⁻⁶⁴) to key 0, positive
    /// values to positive keys.
    pub fn bucket_key(v: f64) -> i32 {
        let mag = v.abs();
        if mag < 2f64.powi(-64) || mag.is_nan() {
            // Zero, subnormal-tiny, or NaN magnitude.
            return 0;
        }
        let e = (mag.log2() * SUB_BUCKETS as f64).floor() as i32;
        let idx = e.clamp(E_MIN, E_MAX) - E_MIN + 1; // >= 1
        if v > 0.0 {
            idx
        } else {
            -idx
        }
    }

    /// The representative value of a bucket (its geometric midpoint), used
    /// when answering quantiles.
    fn bucket_value(key: i32) -> f64 {
        if key == 0 {
            return 0.0;
        }
        let e = key.abs() - 1 + E_MIN;
        let mid = 2f64.powf((e as f64 + 0.5) / SUB_BUCKETS as f64);
        if key > 0 {
            mid
        } else {
            -mid
        }
    }

    /// Records one sample. Non-finite samples are ignored (they carry no
    /// position on the value axis).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        *self.buckets.entry(Self::bucket_key(v)).or_insert(0) += 1;
    }

    /// Records every sample of an iterator.
    pub fn record_all(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.record(v);
        }
    }

    /// Merges another histogram into this one. Bucket counts, `count`,
    /// `min` and `max` combine associatively and commutatively (pure sums
    /// and min/max), so any merge tree over the same shards yields the
    /// same table; only `sum` (and hence `mean`) is subject to
    /// floating-point rounding in the merge order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The sparse bucket table (key → count), for export and tests.
    pub fn buckets(&self) -> &BTreeMap<i32, u64> {
        &self.buckets
    }

    /// The least upper bound of a bucket's value range. Upper bounds are
    /// strictly increasing in the bucket key, so walking the sparse table
    /// in key order yields Prometheus-style ascending `le` boundaries.
    ///
    /// The top bucket is a clamp bucket: magnitudes at or above 2⁶⁴ all
    /// land in it, so samples there may exceed the nominal bound (the
    /// `+Inf` bucket of an exposition absorbs the discrepancy).
    pub fn bucket_upper(key: i32) -> f64 {
        if key == 0 {
            // Zero bucket: |v| < 2⁻⁶⁴.
            return 2f64.powi(-64);
        }
        let e = key.abs() - 1 + E_MIN;
        if key > 0 {
            // Positive bucket: v in [2^(e/S), 2^((e+1)/S)).
            2f64.powf((e + 1) as f64 / SUB_BUCKETS as f64)
        } else {
            // Negative bucket mirrors: v in (-2^((e+1)/S), -2^(e/S)].
            -(2f64.powf(e as f64 / SUB_BUCKETS as f64))
        }
    }

    /// Cumulative view of the occupied buckets as ascending
    /// `(upper_bound, cumulative_count)` pairs — the exact shape a
    /// Prometheus histogram exposition needs. Upper bounds are strictly
    /// increasing, cumulative counts non-decreasing, and the final count
    /// equals [`Histogram::count`]. Because the merged bucket table is
    /// independent of merge order, so is this view.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .map(|(&k, &c)| {
                cum += c;
                (Self::bucket_upper(k), cum)
            })
            .collect()
    }

    /// The `q`-quantile (nearest-rank on the bucket cumulative counts),
    /// `q` clamped to `[0, 1]`. `q = 0` and `q = 1` return the exact
    /// tracked `min`/`max`; interior quantiles return the containing
    /// bucket's representative value clamped to `[min, max]`, so the
    /// answer is within one bucket (~9% relative) of the true order
    /// statistic and exact for single-sample histograms. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The extremes are tracked exactly — answer them without bucket
        // quantization.
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        // Nearest-rank: the smallest rank r (1-based) with r >= q * count.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (&key, &c) in &self.buckets {
            cum += c;
            if cum >= target {
                return Some(Self::bucket_value(key).clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable in practice (counts always cover)
    }

    /// `{count, min, max, mean, p50, p95, p99}` as a JSON object (values
    /// `null` when empty). Deterministic key order.
    pub fn summary_json(&self) -> String {
        let mut w = crate::JsonWriter::compact();
        w.value(self);
        w.fragment()
    }
}

/// The one-line [`summary_json`](Histogram::summary_json) object, in
/// either document layout.
impl crate::ToJson for Histogram {
    fn write_json(&self, w: &mut crate::JsonWriter) {
        w.compact_obj()
            .field("count", self.count)
            .field("min", self.min())
            .field("max", self.max())
            .field("mean", self.mean())
            .field("p50", self.quantile(0.5))
            .field("p95", self.quantile(0.95))
            .field("p99", self.quantile(0.99))
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_edge_cases() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        // Merging empties is the identity in both directions.
        let mut a = Histogram::new();
        a.merge(&h);
        assert!(a.is_empty());
        let mut b = Histogram::new();
        b.record(2.0);
        let b0 = b.clone();
        b.merge(&h);
        assert_eq!(b, b0);
        let mut e = Histogram::new();
        e.merge(&b);
        assert_eq!(e, b);
        assert_eq!(h.summary_json(), "{\"count\":0,\"min\":null,\"max\":null,\"mean\":null,\"p50\":null,\"p95\":null,\"p99\":null}");
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(3.7);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(3.7), "q={q}");
        }
    }

    #[test]
    fn sign_and_zero_bucketing() {
        assert_eq!(Histogram::bucket_key(0.0), 0);
        assert_eq!(Histogram::bucket_key(1e-300), 0);
        assert!(Histogram::bucket_key(1.5) > 0);
        assert!(Histogram::bucket_key(-1.5) < 0);
        // Key order follows value order.
        assert!(Histogram::bucket_key(-8.0) < Histogram::bucket_key(-1.0));
        assert!(Histogram::bucket_key(-1.0) < Histogram::bucket_key(0.0));
        assert!(Histogram::bucket_key(0.5) < Histogram::bucket_key(2.0));
    }

    #[test]
    fn relative_bucket_error_is_bounded() {
        let width = 2f64.powf(1.0 / SUB_BUCKETS as f64);
        for &v in &[0.003, 0.9, 1.0, 17.0, 1234.5, 8e9] {
            let mut h = Histogram::new();
            h.record(v);
            h.record(v); // two samples so min/max clamping can't mask bucketing
            let p50 = h.quantile(0.5).unwrap();
            assert!(
                p50 / v < width && v / p50 < width,
                "p50 {p50} too far from {v}"
            );
        }
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert!(h.is_empty());
        h.record(1.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        a.record_all([1.0, 2.0]);
        let mut b = Histogram::new();
        b.record_all([-3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(-3.0));
        assert_eq!(a.max(), Some(4.0));
        assert_eq!(a.sum(), 4.0);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_cover_every_sample() {
        let mut h = Histogram::new();
        let samples = [
            -1234.5, -3.0, -0.004, 0.0, 1e-300, 0.25, 1.0, 1.5, 17.0, 8e9,
        ];
        h.record_all(samples);
        let cum = h.cumulative_buckets();
        assert!(!cum.is_empty());
        // Bounds strictly increase, counts never decrease, and the final
        // cumulative count is the total sample count.
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds not increasing: {cum:?}");
            assert!(w[0].1 <= w[1].1, "counts decreased: {cum:?}");
        }
        assert_eq!(cum.last().unwrap().1, h.count());
        // Every in-range sample sits at or below its bucket's upper bound.
        for v in samples {
            let key = Histogram::bucket_key(v);
            assert!(
                v <= Histogram::bucket_upper(key),
                "{v} above bound {}",
                Histogram::bucket_upper(key)
            );
        }
        // Empty histogram: no buckets at all.
        assert!(Histogram::new().cumulative_buckets().is_empty());
    }

    #[test]
    fn cumulative_buckets_are_merge_consistent() {
        let xs = [0.1, 0.1, 2.5, -7.0, 40.0, 0.0];
        let ys = [2.5, 3.1, -7.0, 900.0];
        let mut direct = Histogram::new();
        direct.record_all(xs.iter().chain(&ys).copied());
        let mut a = Histogram::new();
        a.record_all(xs);
        let mut b = Histogram::new();
        b.record_all(ys);
        // Either merge direction yields the same cumulative view as
        // recording everything into one histogram.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.cumulative_buckets(), direct.cumulative_buckets());
        assert_eq!(ba.cumulative_buckets(), direct.cumulative_buckets());
        // And the exact _sum/_count accessors agree across the merge.
        assert_eq!(ab.count(), direct.count());
        assert_eq!(ab.count(), xs.len() as u64 + ys.len() as u64);
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let mut h = Histogram::new();
        // 90 small values, 10 large ones.
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..10 {
            h.record(1000.0);
        }
        assert!(h.quantile(0.5).unwrap() < 2.0);
        assert!(h.quantile(0.99).unwrap() > 500.0);
    }
}
