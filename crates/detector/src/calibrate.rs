//! Threshold calibration for the hardware Detector (paper §3.1, §4.3).
//!
//! The deployed Detector does not sort: it compares each estimated score
//! against a *preset threshold* register and emits a bitmask. The paper
//! obtains those thresholds "by top-k searching or tuning from the
//! validation set". This module implements that calibration: given a
//! trained detector bank and validation sequences, it finds one threshold
//! per `(layer, head)` whose keep-rate matches the target retention, and
//! provides an [`InferenceHook`] that selects by threshold exactly as the
//! comparator hardware would.
//!
//! Unlike row-wise top-k, thresholding yields *variable* per-row counts —
//! the workload-imbalance trade-off §4.3 discusses. The calibrated hook
//! leaves them uncapped: a row keeps every key at or above its threshold,
//! and a row that keeps none keeps its single strongest key.

use crate::DotaHook;
use dota_autograd::ParamSet;
use dota_tensor::{topk, Matrix};
use dota_transformer::{InferenceHook, Model};

/// Per-(layer, head) calibrated thresholds.
#[derive(Debug, Clone)]
pub struct ThresholdTable {
    thresholds: Vec<Vec<f32>>,
}

impl ThresholdTable {
    /// The calibrated threshold of `(layer, head)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn threshold(&self, layer: usize, head: usize) -> f32 {
        self.thresholds[layer][head]
    }

    /// Number of layers covered.
    pub fn layers(&self) -> usize {
        self.thresholds.len()
    }
}

/// Calibrates thresholds for `hook`'s detectors so that, on the provided
/// validation sequences, each head keeps `retention` of its estimated
/// scores.
///
/// The threshold is the `(1 - retention)` quantile of the head's estimated
/// scores pooled over all validation sequences — the direct analogue of
/// tuning the comparator register on a validation set.
///
/// # Panics
///
/// Panics if `validation` is empty or a sequence is invalid for the model.
pub fn calibrate_thresholds(
    model: &Model,
    params: &ParamSet,
    hook: &DotaHook,
    validation: &[Vec<usize>],
    retention: f64,
) -> ThresholdTable {
    assert!(
        !validation.is_empty(),
        "need at least one validation sequence"
    );
    assert!(
        retention > 0.0 && retention <= 1.0,
        "retention {retention} out of range"
    );
    let cfg = model.config();
    let inference = hook.inference(params);
    let mut thresholds = vec![vec![f32::NEG_INFINITY; cfg.n_heads]; cfg.n_layers];

    for l in 0..cfg.n_layers {
        for h in 0..cfg.n_heads {
            let mut pooled: Vec<f32> = Vec::new();
            for ids in validation {
                let xs = crate::metrics::layer_inputs(model, params, ids);
                let scores = inference.estimated_scores(l, h, &xs[l]);
                pooled.extend(scores.iter().copied());
            }
            pooled.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
            let keep = topk::keep_count(retention, pooled.len());
            thresholds[l][h] = pooled[keep - 1];
        }
    }
    ThresholdTable { thresholds }
}

/// An [`InferenceHook`] that selects by comparing estimated scores against
/// calibrated thresholds — the comparator datapath of Fig. 6.
#[derive(Debug)]
pub struct ThresholdHook<'a> {
    hook: &'a DotaHook,
    params: &'a ParamSet,
    table: ThresholdTable,
}

impl<'a> ThresholdHook<'a> {
    /// Creates the hook from a detector bank and its calibrated table.
    pub fn new(hook: &'a DotaHook, params: &'a ParamSet, table: ThresholdTable) -> Self {
        Self {
            hook,
            params,
            table,
        }
    }

    /// The calibration table.
    pub fn table(&self) -> &ThresholdTable {
        &self.table
    }
}

impl InferenceHook for ThresholdHook<'_> {
    fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
        let thresh = self.table.threshold(layer, head);
        let mut selection = Vec::with_capacity(x.rows());
        // The comparator sees each estimated row as it is produced and
        // keeps key IDs, never scores: no n x n matrix is held.
        self.hook
            .detector(layer, head)
            .for_each_quantized_score_row(self.hook.config(), self.params, x, |_, row| {
                let mut keep = Vec::new();
                topk::threshold_set(row, thresh, &mut keep);
                if keep.is_empty() {
                    // A starved row keeps its single strongest key so
                    // its output stays defined (as the Scheduler would).
                    keep.push(topk::top_k_indices(row, 1)[0] as u32);
                }
                selection.push(keep);
            });
        Some(selection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectorConfig;
    use dota_transformer::TransformerConfig;

    fn setup() -> (Model, ParamSet, DotaHook, Vec<Vec<usize>>) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(24, 12, 2), &mut params, 31);
        let hook = DotaHook::init(
            DetectorConfig::new(0.25).with_sigma(0.5),
            model.config(),
            &mut params,
        );
        let validation: Vec<Vec<usize>> = (0..4)
            .map(|s| (0..24).map(|i| (i * 7 + s) % 12).collect())
            .collect();
        (model, params, hook, validation)
    }

    /// The hook as it was before it took the row stream: the materialised
    /// estimate, filtered row by row.
    fn select_by_matrix(
        th: &ThresholdHook<'_>,
        layer: usize,
        head: usize,
        x: &Matrix,
    ) -> Vec<Vec<u32>> {
        let scores = th
            .hook
            .inference(th.params)
            .estimated_scores(layer, head, x);
        let thresh = th.table.threshold(layer, head);
        (0..scores.rows())
            .map(|r| {
                let row = scores.row(r);
                let mut keep: Vec<u32> = (0..row.len())
                    .filter(|&j| row[j] >= thresh)
                    .map(|j| j as u32)
                    .collect();
                if keep.is_empty() {
                    keep.push(topk::top_k_indices(row, 1)[0] as u32);
                }
                keep
            })
            .collect()
    }

    #[test]
    fn streamed_comparator_matches_materialised_oracle() {
        // Past one 64-key block, with a NaN row and starved ones.
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(70, 12, 2), &mut params, 31);
        let cfg = DetectorConfig::new(0.25).with_sigma(0.5);
        let hook = DotaHook::init(cfg, model.config(), &mut params);
        let validation = vec![(0..70).map(|i| (i * 7) % 12).collect::<Vec<usize>>()];
        let ids: Vec<usize> = (0..70).map(|i| (i * 5 + 1) % 12).collect();
        let mut xs = crate::metrics::layer_inputs(&model, &params, &ids);
        xs[1].row_mut(3).fill(f32::NAN);
        for retention in [0.02, 0.25, 0.9] {
            let table = calibrate_thresholds(&model, &params, &hook, &validation, retention);
            let th = ThresholdHook::new(&hook, &params, table);
            for (l, h) in [(0, 0), (1, 1)] {
                assert_eq!(
                    th.select(l, h, &xs[l]).unwrap(),
                    select_by_matrix(&th, l, h, &xs[l]),
                    "retention {retention}, layer {l}"
                );
            }
        }
    }

    #[test]
    fn calibrated_retention_close_to_target() {
        let (model, params, hook, validation) = setup();
        let table = calibrate_thresholds(&model, &params, &hook, &validation, 0.25);
        let th = ThresholdHook::new(&hook, &params, table);
        // Evaluate achieved retention on a held-out sequence.
        let test_ids: Vec<usize> = (0..24).map(|i| (i * 5 + 3) % 12).collect();
        let trace = model.infer(&params, &test_ids, &th);
        let achieved = trace.retention();
        assert!(
            (achieved - 0.25).abs() < 0.12,
            "achieved retention {achieved} vs target 0.25"
        );
    }

    #[test]
    fn thresholds_monotone_in_retention() {
        let (model, params, hook, validation) = setup();
        let loose = calibrate_thresholds(&model, &params, &hook, &validation, 0.5);
        let tight = calibrate_thresholds(&model, &params, &hook, &validation, 0.1);
        for l in 0..loose.layers() {
            for h in 0..model.config().n_heads {
                assert!(
                    tight.threshold(l, h) >= loose.threshold(l, h),
                    "tighter retention must raise the threshold"
                );
            }
        }
    }

    #[test]
    fn no_row_starves() {
        let (model, params, hook, validation) = setup();
        // Extremely tight retention: some rows would keep nothing without
        // the fallback.
        let table = calibrate_thresholds(&model, &params, &hook, &validation, 0.02);
        let th = ThresholdHook::new(&hook, &params, table);
        let ids: Vec<usize> = (0..24).map(|i| (i * 3) % 12).collect();
        let xs = crate::metrics::layer_inputs(&model, &params, &ids);
        let sel = th.select(1, 0, &xs[1]).unwrap();
        assert!(sel.iter().all(|r| !r.is_empty()));
    }

    #[test]
    #[should_panic(expected = "at least one validation")]
    fn empty_validation_rejected() {
        let (model, params, hook, _) = setup();
        let _ = calibrate_thresholds(&model, &params, &hook, &[], 0.25);
    }
}
