use crate::{DetectorConfig, LowRankDetector};
use dota_autograd::{Graph, ParamSet, Var};
use dota_tensor::{topk, Matrix};
use dota_transformer::{AttentionHook, HookOutcome, InferenceHook, TransformerConfig};

/// The DOTA detector bank: one [`LowRankDetector`] per attention head of a
/// model, plus the joint-training and inference hook adapters.
///
/// # Example
///
/// ```
/// use dota_autograd::ParamSet;
/// use dota_detector::{DetectorConfig, DotaHook};
/// use dota_transformer::{Model, TransformerConfig};
///
/// let mut params = ParamSet::new();
/// let model = Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 1);
/// let hook = DotaHook::init(DetectorConfig::new(0.25), model.config(), &mut params);
/// let trace = model.infer(&params, &[1, 2, 3, 4], &hook.inference(&params));
/// assert!(trace.retention() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct DotaHook {
    cfg: DetectorConfig,
    detectors: Vec<Vec<LowRankDetector>>,
    masking_enabled: bool,
}

impl DotaHook {
    /// Initializes one detector per `(layer, head)` of `model_cfg`,
    /// registering all trainable low-rank parameters in `params`.
    pub fn init(cfg: DetectorConfig, model_cfg: &TransformerConfig, params: &mut ParamSet) -> Self {
        let hd = model_cfg.head_dim();
        let detectors = (0..model_cfg.n_layers)
            .map(|l| {
                (0..model_cfg.n_heads)
                    .map(|h| {
                        LowRankDetector::init(
                            &cfg,
                            model_cfg.d_model,
                            hd,
                            params,
                            &format!("l{l}.h{h}"),
                            cfg.seed
                                .wrapping_add(l as u64 * 1009)
                                .wrapping_add(h as u64 * 9176),
                        )
                    })
                    .collect()
            })
            .collect();
        Self {
            cfg,
            detectors,
            masking_enabled: true,
        }
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Returns this hook with a different runtime configuration (precision,
    /// retention, strategy) but the same trained detectors. Used by the
    /// design-space exploration to re-evaluate one trained detector bank at
    /// several inference settings.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.sigma` differs from the training configuration — the
    /// detector rank is fixed at initialization.
    pub fn with_config(mut self, cfg: DetectorConfig) -> Self {
        assert_eq!(
            cfg.sigma, self.cfg.sigma,
            "sigma is fixed at init (detector rank would change)"
        );
        self.cfg = cfg;
        self
    }

    /// The detector for `(layer, head)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn detector(&self, layer: usize, head: usize) -> &LowRankDetector {
        &self.detectors[layer][head]
    }

    /// Enables/disables mask application during training. With masking off
    /// the hook still contributes `L_MSE`, which is useful as a warm-up
    /// phase before sparse adaptation.
    pub fn set_masking(&mut self, enabled: bool) {
        self.masking_enabled = enabled;
    }

    /// Binds the hook to the current parameter values for one training
    /// forward pass.
    pub fn training<'a>(&'a self, params: &'a ParamSet) -> DotaTrainingHook<'a> {
        DotaTrainingHook { hook: self, params }
    }

    /// Binds the hook for quantized inference (the deployed detector).
    pub fn inference<'a>(&'a self, params: &'a ParamSet) -> DotaInferenceHook<'a> {
        DotaInferenceHook {
            hook: self,
            params,
            quantized: true,
        }
    }

    /// Binds the hook for FP32 inference (Fig. 14b's FP32 reference point).
    pub fn inference_f32<'a>(&'a self, params: &'a ParamSet) -> DotaInferenceHook<'a> {
        DotaInferenceHook {
            hook: self,
            params,
            quantized: false,
        }
    }

    /// Converts a per-row index selection into a boolean mask.
    fn selection_to_mask(selection: &[Vec<u32>], n: usize) -> Vec<Vec<bool>> {
        selection
            .iter()
            .map(|row| {
                let mut mask = vec![false; n];
                for &j in row {
                    mask[j as usize] = true;
                }
                mask
            })
            .collect()
    }
}

/// [`DotaHook`] bound to parameter values for a training step; implements
/// the joint-optimization [`AttentionHook`] (paper §3.2): contributes the
/// `L_MSE` estimation loss on every head and imposes the detected sparse
/// mask so the model adapts to omission during fine-tuning.
#[derive(Debug)]
pub struct DotaTrainingHook<'a> {
    hook: &'a DotaHook,
    params: &'a ParamSet,
}

impl AttentionHook for DotaTrainingHook<'_> {
    fn on_scores(
        &mut self,
        g: &mut Graph,
        layer: usize,
        head: usize,
        x: Var,
        scores: Var,
    ) -> HookOutcome {
        let det = self.hook.detector(layer, head);
        let s_tilde = det.estimated_scores(g, self.params, x);
        // Eq. 5: gradients flow into BOTH S and S̃ — the tape handles it.
        let aux = g.mse(scores, s_tilde);
        let mask = if self.hook.masking_enabled {
            let n = g.value(scores).rows();
            let selection =
                LowRankDetector::select_for_layer(&self.hook.cfg, g.value(s_tilde), Some(layer));
            Some(DotaHook::selection_to_mask(&selection, n))
        } else {
            None
        };
        HookOutcome {
            mask,
            aux_loss: Some(aux),
        }
    }
}

/// [`DotaHook`] bound for inference; implements [`InferenceHook`] using the
/// quantized low-rank estimator, as the deployed accelerator would.
#[derive(Debug)]
pub struct DotaInferenceHook<'a> {
    hook: &'a DotaHook,
    params: &'a ParamSet,
    quantized: bool,
}

impl DotaInferenceHook<'_> {
    /// The estimated scores this hook would rank for `(layer, head)` —
    /// exposed for detection-quality analysis.
    pub fn estimated_scores(&self, layer: usize, head: usize, x: &Matrix) -> Matrix {
        let det = self.hook.detector(layer, head);
        if self.quantized {
            det.estimated_scores_quantized(&self.hook.cfg, self.params, x)
        } else {
            det.estimated_scores_f32(self.params, x)
        }
    }
}

impl InferenceHook for DotaInferenceHook<'_> {
    fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
        let _prof = dota_prof::span("detector.select");
        if dota_faults::enabled() {
            let coords = [layer as u64, head as u64];
            let n = x.rows();
            if dota_faults::should_inject(dota_faults::FaultSite::DetectorSaturate, &coords) {
                // Saturated threshold comparator: nothing passes detection.
                // The transformer treats the empty selection as degenerate
                // and falls back to dense attention for this head.
                dota_faults::record("faults.detector.saturated", 1);
                dota_trace::count("faults.detector.saturated", 1);
                return Some(vec![Vec::new(); n]);
            }
            if dota_faults::should_inject(dota_faults::FaultSite::DetectorCorrupt, &coords) {
                // Corrupted score path: the emitted key IDs are garbage
                // (high bit stuck), i.e. out of range — again absorbed by
                // the transformer's dense fallback.
                dota_faults::record("faults.detector.corrupted", 1);
                dota_trace::count("faults.detector.corrupted", 1);
                let bad = (0..n).map(|i| vec![(i + n) as u32]).collect();
                return Some(bad);
            }
        }
        let cfg = &self.hook.cfg;
        let observed = dota_metrics::hist_enabled();
        let sel = if self.quantized && !observed {
            // The deployed path: estimate and select fused per query row.
            let det = self.hook.detector(layer, head);
            det.select_quantized(cfg, self.params, x, layer)
        } else {
            // The FP32 reference point ranks the float product it is
            // defined by, and a live histogram session observes every
            // estimated score: both hold the matrix while they run.
            let scores = self.estimated_scores(layer, head, x);
            if observed {
                dota_metrics::observe_many(
                    &format!("detector.scores.L{layer}.H{head}"),
                    scores.as_slice().iter().map(|&s| f64::from(s)),
                );
            }
            LowRankDetector::select_for_layer(cfg, &scores, Some(layer))
        };
        if dota_trace::enabled() {
            let n = x.rows() as u64;
            dota_trace::count("detector.selections", 1);
            dota_trace::count("detector.scored_pairs", n * n);
            dota_trace::count(
                "detector.detected_pairs",
                sel.iter().map(|r| r.len() as u64).sum(),
            );
        }
        Some(sel)
    }
}

/// Oracle-quality reference selection for metrics: row-wise top-k on the
/// *exact* scores of a head trace (used to score detector recall).
pub fn oracle_selection(q: &Matrix, k_mat: &Matrix, keys_per_row: usize) -> Vec<Vec<usize>> {
    let scores = q.matmul_nt(k_mat).expect("head shapes");
    topk::top_k_rows(&scores, keys_per_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_transformer::Model;

    fn setup() -> (Model, DotaHook, ParamSet) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 11);
        let hook = DotaHook::init(DetectorConfig::new(0.25), model.config(), &mut params);
        (model, hook, params)
    }

    #[test]
    fn init_creates_detector_per_head() {
        let (model, hook, _) = setup();
        assert_eq!(hook.detectors.len(), model.config().n_layers);
        assert_eq!(hook.detectors[0].len(), model.config().n_heads);
        // Distinct seeds → distinct projections.
        assert_ne!(
            hook.detector(0, 0).projection(),
            hook.detector(0, 1).projection()
        );
    }

    #[test]
    fn training_hook_contributes_masks_and_losses() {
        let (model, hook, params) = setup();
        let mut g = Graph::new();
        let bound = &mut hook.training(&params);
        let out = model.forward(&mut g, &params, &[1, 2, 3, 4, 5, 6], bound);
        assert_eq!(out.aux_losses.len(), 4); // 2 layers x 2 heads
        for &aux in &out.aux_losses {
            assert!(g.value(aux)[(0, 0)] >= 0.0);
        }
    }

    #[test]
    fn masking_disabled_still_produces_losses() {
        let (model, mut hook, params) = setup();
        hook.set_masking(false);
        let mut g = Graph::new();
        let out = model.forward(&mut g, &params, &[1, 2, 3, 4], &mut hook.training(&params));
        assert_eq!(out.aux_losses.len(), 4);
        // Dense attention: inference with NoHook must agree with this
        // forward's logits.
        let trace = model.infer(&params, &[1, 2, 3, 4], &dota_transformer::NoHook);
        assert!(trace.logits.approx_eq(g.value(out.logits), 1e-4));
    }

    #[test]
    fn inference_hook_hits_configured_retention() {
        let (model, hook, params) = setup();
        let ids = vec![1, 2, 3, 4, 5, 6, 7, 0];
        let trace = model.infer(&params, &ids, &hook.inference(&params));
        // Balanced top-k with retention 0.25 on n=8 keeps 2 keys per row.
        assert!((trace.retention() - 0.25).abs() < 1e-9);
        for layer in &trace.layers {
            for head in &layer.heads {
                let sel = head.selected.as_ref().unwrap();
                assert!(sel.iter().all(|r| r.len() == 2));
            }
        }
    }

    #[test]
    fn joint_training_keeps_model_trainable() {
        use dota_autograd::{Adam, Optimizer};
        let (model, hook, mut params) = setup();
        let data = [(vec![1usize, 1, 2, 2], 0usize), (vec![2, 2, 1, 1], 1)];
        let mut opt = Adam::new(0.01);
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..40 {
            let mut total = 0.0;
            for (ids, label) in &data {
                let mut g = Graph::new();
                let out = model.forward(&mut g, &params, ids, &mut hook.training(&params));
                let ml = model.classification_loss(&mut g, &out, *label);
                let loss = model.total_loss(&mut g, ml, &out, hook.config().lambda);
                total += g.value(loss)[(0, 0)];
                g.backward(loss);
                opt.step(&mut params, &g);
            }
            if epoch == 0 {
                first = total;
            }
            last = total;
        }
        assert!(last < first, "joint loss {first} -> {last}");
        // The detector parameters actually moved.
        let det = hook.detector(0, 0);
        let w = params.value(det.wq_tilde());
        let mut fresh = ParamSet::new();
        let fresh_model = Model::init(TransformerConfig::tiny(16, 8, 2), &mut fresh, 11);
        let _ = fresh_model;
        let fresh_hook = DotaHook::init(DetectorConfig::new(0.25), model.config(), &mut fresh);
        let w0 = fresh.value(fresh_hook.detector(0, 0).wq_tilde());
        assert_ne!(w, w0, "detector weights unchanged by training");
    }

    #[test]
    fn saturated_detector_triggers_dense_fallback() {
        use dota_faults::{FaultPlan, FaultSite};
        let (model, hook, params) = setup();
        let ids = vec![1, 2, 3, 4, 5, 6, 7, 0];
        let dense = model.infer(&params, &ids, &dota_transformer::NoHook);
        let guard =
            dota_faults::session(FaultPlan::new(1).with_rate(FaultSite::DetectorSaturate, 1.0));
        let trace = model.infer(&params, &ids, &hook.inference(&params));
        // Every head's selection saturated to empty -> dense fallback.
        assert_eq!(trace.fallback_dense, 4);
        assert_eq!(trace.retention(), 1.0);
        assert_eq!(trace.logits, dense.logits);
        assert_eq!(guard.counter("faults.detector.saturated"), 4);
        assert_eq!(guard.counter("faults.fallback_dense"), 4);
    }

    #[test]
    fn corrupted_detector_triggers_dense_fallback() {
        use dota_faults::{FaultPlan, FaultSite};
        let (model, hook, params) = setup();
        let ids = vec![1, 2, 3, 4, 5, 6, 7, 0];
        let dense = model.infer(&params, &ids, &dota_transformer::NoHook);
        let guard =
            dota_faults::session(FaultPlan::new(1).with_rate(FaultSite::DetectorCorrupt, 1.0));
        let trace = model.infer(&params, &ids, &hook.inference(&params));
        assert_eq!(trace.fallback_dense, 4);
        assert_eq!(trace.logits, dense.logits);
        assert_eq!(guard.counter("faults.detector.corrupted"), 4);
        drop(guard);
        // Session over: the hook selects normally again.
        let trace = model.infer(&params, &ids, &hook.inference(&params));
        assert_eq!(trace.fallback_dense, 0);
        assert!((trace.retention() - 0.25).abs() < 1e-9);
    }

    /// What the parent of the fused path computed: the materialised
    /// estimate through the ordered `top_k_rows`, each row then sorted.
    fn materialised_selection(
        bound: &DotaInferenceHook<'_>,
        layer: usize,
        head: usize,
        x: &Matrix,
    ) -> Vec<Vec<u32>> {
        let scores = bound.estimated_scores(layer, head, x);
        let keep = bound.hook.cfg.keys_per_row_for_layer(layer, x.rows());
        topk::top_k_rows(&scores, keep)
            .into_iter()
            .map(|row| {
                let mut row: Vec<u32> = row.into_iter().map(|j| j as u32).collect();
                row.sort_unstable();
                row
            })
            .collect()
    }

    proptest::proptest! {
        /// The fused select — no score matrix, integer keys wherever the
        /// scale guard allows — keeps exactly what ranking the materialised
        /// estimate keeps: lengths off the 8- and 64-key grids, every
        /// precision that has an integer path, ranks on both sides of the
        /// column/depth kernel switch, `k` from 1 to `n`, a per-layer
        /// schedule, and inputs scaled until the product of the operand
        /// scales underflows, overflows or vanishes (where rows go through
        /// the `f32` front instead). The FP32 hook, which ranks a float
        /// product, is held to the same oracle.
        #[test]
        fn fused_select_matches_materialised_oracle(
            seed in 0u64..1 << 32,
            n in 1usize..=200,
            rank in 1usize..=20,
            precision in 0usize..3,
            keep in 0usize..3,
            input in 0usize..10,
        ) {
            use dota_quant::Precision;
            use dota_tensor::rng::SeededRng;

            let model_cfg = TransformerConfig {
                d_model: 40,
                ..TransformerConfig::tiny(n, 8, 2)
            };
            // Head dimension 20: sigma picks the rank exactly.
            let cfg = DetectorConfig::new([1e-9, 0.37, 1.0][keep])
                .with_sigma(((rank as f64 + 0.5) / 20.0).min(1.0))
                .with_precision([Precision::Int2, Precision::Int4, Precision::Int8][precision])
                .with_layer_retentions(vec![0.11]);
            let mut params = ParamSet::new();
            let hook = DotaHook::init(cfg, &model_cfg, &mut params);
            proptest::prop_assert_eq!(hook.detector(0, 0).rank(), rank);

            let mut rng = SeededRng::new(seed);
            let mut x = rng.normal_matrix(n, 40, 1.0);
            match input {
                0 => x = x.scale(2f32.powi(60)),
                1 => x = x.scale(2f32.powi(-60)),
                2 => x = x.scale(2f32.powi(-70)),
                3 => x = Matrix::filled(n, 40, 1e-45),
                4 => x = Matrix::zeros(n, 40),
                5 => x.row_mut(rng.below(n)).fill(f32::NAN),
                6 => x[(rng.below(n), 3)] = 1e30,
                _ => {}
            }
            for (layer, head) in [(0, 1), (1, 0)] {
                for bound in [hook.inference(&params), hook.inference_f32(&params)] {
                    let want = materialised_selection(&bound, layer, head, &x);
                    let got = bound.select(layer, head, &x).expect("the detector selects");
                    proptest::prop_assert_eq!(
                        &got, &want,
                        "layer {} n {} rank {} input {} quantized {}",
                        layer, n, rank, input, bound.quantized
                    );
                    let scores = bound.estimated_scores(layer, head, &x);
                    let by_matrix =
                        LowRankDetector::select_for_layer(hook.config(), &scores, Some(layer));
                    proptest::prop_assert_eq!(&by_matrix, &want);
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs_select_the_lowest_indices() {
        // Every estimated score ties (all-zero codes): the tie rule keeps
        // the lowest k indices of each row — and nothing panics on the way
        // (a 1e-45 input used to underflow the quantizer's scale to zero).
        let (model, hook, params) = setup();
        let d = model.config().d_model;
        for fill in [1e-45, f32::NAN, 0.0] {
            let x = Matrix::filled(8, d, fill);
            let sel = hook.inference(&params).select(1, 1, &x).unwrap();
            assert_eq!(sel, vec![vec![0, 1]; 8], "x filled with {fill}");
        }
    }

    #[test]
    fn histogram_session_sees_every_estimated_score() {
        let (model, hook, params) = setup();
        let ids = vec![1, 2, 3, 4, 5, 6, 7, 0];
        let plain = model.infer(&params, &ids, &hook.inference(&params));
        let session = dota_metrics::hist_session("detector_scores");
        let observed = model.infer(&params, &ids, &hook.inference(&params));
        // Watching changes nothing, and every head's n x n scores arrive.
        assert_eq!(observed.logits, plain.logits);
        for (l, h) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let hist = session
                .histogram(&format!("detector.scores.L{l}.H{h}"))
                .expect("scores observed");
            assert_eq!(hist.count(), 64);
        }
    }

    #[test]
    fn oracle_selection_shape() {
        let mut rng = dota_tensor::rng::SeededRng::new(1);
        let q = rng.normal_matrix(6, 8, 1.0);
        let k = rng.normal_matrix(6, 8, 1.0);
        let sel = oracle_selection(&q, &k, 3);
        assert_eq!(sel.len(), 6);
        assert!(sel.iter().all(|r| r.len() == 3));
    }
}
