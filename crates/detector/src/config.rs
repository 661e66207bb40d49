use dota_quant::Precision;
use dota_tensor::topk;

/// How selected connection counts are distributed across query rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Every query keeps exactly `round(retention * n)` keys, at least
    /// one and at most `n` (row-wise top-k; see
    /// [`DetectorConfig::keys_per_row`]). This is DOTA's software workload-balancing constraint
    /// (§4.3): equal incoming-edge counts keep token-parallel PE groups
    /// synchronized.
    BalancedTopK,
    /// A single global threshold keeps the strongest `retention` fraction
    /// of *all* connections; per-row counts vary. Used as the ablation
    /// baseline to quantify what the balance constraint costs/saves.
    GlobalThreshold,
}

/// Per-layer retention override (extension study): index `l` holds layer
/// `l`'s retention; layers beyond the schedule use the base retention.
pub type LayerRetentions = Vec<f64>;

/// Configuration of the DOTA attention detector.
///
/// # Example
///
/// ```
/// use dota_detector::DetectorConfig;
///
/// let cfg = DetectorConfig::new(0.1).with_sigma(0.2);
/// assert_eq!(cfg.rank_for_head_dim(64), 12); // floor(64 * 0.2), §5.5
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Fraction of attention connections to keep, in `(0, 1]`.
    pub retention: f64,
    /// Dimension-reduction factor σ: detector rank `k = floor(hd · σ)`
    /// (§5.5, Fig. 14a).
    pub sigma: f64,
    /// Quantization precision of the detection computation (Fig. 14b).
    pub precision: Precision,
    /// Weight λ of the MSE estimation loss in the joint objective (Eq. 6).
    pub lambda: f32,
    /// Row-balance strategy (§4.3).
    pub strategy: SelectionStrategy,
    /// Seed for the random projection matrices.
    pub seed: u64,
    /// Optional per-layer retention schedule (extension study). When set,
    /// layer `l` keeps `layer_retentions[l]` instead of the uniform
    /// `retention`; layers beyond the schedule fall back to the base value.
    pub layer_retentions: Option<LayerRetentions>,
}

impl DetectorConfig {
    /// Creates a configuration with the paper's defaults: σ = 0.2, INT4
    /// detection, λ = 1, balanced top-k selection.
    ///
    /// # Panics
    ///
    /// Panics if `retention` is not in `(0, 1]`.
    pub fn new(retention: f64) -> Self {
        assert!(
            retention > 0.0 && retention <= 1.0,
            "retention {retention} must be in (0, 1]"
        );
        Self {
            retention,
            sigma: 0.2,
            precision: Precision::Int4,
            lambda: 1.0,
            strategy: SelectionStrategy::BalancedTopK,
            seed: 0x00d0_7a00,
            layer_retentions: None,
        }
    }

    /// Sets the dimension-reduction factor σ.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not in `(0, 1]`.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        assert!(
            sigma > 0.0 && sigma <= 1.0,
            "sigma {sigma} must be in (0, 1]"
        );
        self.sigma = sigma;
        self
    }

    /// Sets the detection precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the selection strategy.
    pub fn with_strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the projection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a per-layer retention schedule.
    ///
    /// # Panics
    ///
    /// Panics if any entry is outside `(0, 1]`.
    pub fn with_layer_retentions(mut self, retentions: LayerRetentions) -> Self {
        assert!(
            retentions.iter().all(|&r| r > 0.0 && r <= 1.0),
            "layer retentions must be in (0, 1]"
        );
        self.layer_retentions = Some(retentions);
        self
    }

    /// Retention of layer `l` (the schedule entry, else the base value).
    pub(crate) fn retention_for_layer(&self, layer: usize) -> f64 {
        self.layer_retentions
            .as_ref()
            .and_then(|rs| rs.get(layer).copied())
            .unwrap_or(self.retention)
    }

    /// Keys kept per query row at layer `l` for sequence length `n`:
    /// [`topk::keep_count`] at that layer's retention.
    pub(crate) fn keys_per_row_for_layer(&self, layer: usize, n: usize) -> usize {
        topk::keep_count(self.retention_for_layer(layer), n)
    }

    /// Detector rank for a head dimension: `max(1, floor(hd · σ))`.
    pub fn rank_for_head_dim(&self, head_dim: usize) -> usize {
        ((head_dim as f64 * self.sigma).floor() as usize).max(1)
    }

    /// Keys kept per query row at sequence length `n`:
    /// [`topk::keep_count`] at the base retention.
    pub fn keys_per_row(&self, n: usize) -> usize {
        topk::keep_count(self.retention, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = DetectorConfig::new(0.1);
        assert_eq!(cfg.sigma, 0.2);
        assert_eq!(cfg.precision, Precision::Int4);
        assert_eq!(cfg.strategy, SelectionStrategy::BalancedTopK);
    }

    #[test]
    fn rank_matches_paper_example() {
        // §5.5: "the hidden dimension in approximation is floor(64*0.2)=12".
        let cfg = DetectorConfig::new(0.1).with_sigma(0.2);
        assert_eq!(cfg.rank_for_head_dim(64), 12);
        // Rank never collapses to zero.
        assert_eq!(cfg.with_sigma(0.01).rank_for_head_dim(4), 1);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn rejects_zero_retention() {
        let _ = DetectorConfig::new(0.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn rejects_bad_sigma() {
        let _ = DetectorConfig::new(0.1).with_sigma(0.0);
    }

    #[test]
    fn layer_retention_schedule() {
        let cfg = DetectorConfig::new(0.2).with_layer_retentions(vec![0.5, 0.1]);
        assert_eq!(cfg.retention_for_layer(0), 0.5);
        assert_eq!(cfg.retention_for_layer(1), 0.1);
        // Beyond the schedule: base retention.
        assert_eq!(cfg.retention_for_layer(5), 0.2);
        assert_eq!(cfg.keys_per_row_for_layer(0, 20), 10);
        assert_eq!(cfg.keys_per_row_for_layer(1, 20), 2);
    }

    #[test]
    #[should_panic(expected = "layer retentions")]
    fn rejects_bad_layer_schedule() {
        let _ = DetectorConfig::new(0.2).with_layer_retentions(vec![0.5, 0.0]);
    }

    #[test]
    fn builder_chains() {
        let cfg = DetectorConfig::new(0.05)
            .with_precision(Precision::Int2)
            .with_strategy(SelectionStrategy::GlobalThreshold)
            .with_seed(99);
        assert_eq!(cfg.precision, Precision::Int2);
        assert_eq!(cfg.strategy, SelectionStrategy::GlobalThreshold);
        assert_eq!(cfg.seed, 99);
    }
}
