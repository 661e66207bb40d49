//! Weight compression on the post-omission bottleneck (paper §5.3).
//!
//! After detection removes the attention cost, "the new performance
//! bottleneck is Linear computation, which can be optimized with weight
//! pruning and quantization. These classic NN optimization techniques can
//! be fluently transplanted on DOTA, because our system is designed on top
//! a GEMM accelerator with multi-precision arithmetic support and sparse
//! computation dataflow." This module implements both transplants:
//!
//! * [`fake_quantize_weights`] — post-training INT-k quantization of every
//!   linear weight (quantize→dequantize, so accuracy can be evaluated with
//!   the existing float pipeline while the RMMU would run the integer
//!   kernels natively);
//! * [`prune_weights`] — global magnitude pruning at a target sparsity.
//!
//! The accuracy impact is evaluated with the normal inference path; the
//! latency impact uses the RMMU's precision-throughput model (an INT8
//! linear stage runs 4× faster on the same PEs).

use dota_autograd::{ParamId, ParamSet};
use dota_quant::{Precision, Quantizer};
use dota_transformer::Model;

/// Which parameters a compression pass touches: the weight matrices of the
/// linear transformation and FFN stages (embeddings, layer norms, biases
/// and the classifier head are left alone, as is standard practice).
pub(crate) fn linear_weight_ids(model: &Model) -> Vec<ParamId> {
    let mut ids = Vec::new();
    for layer in &model.params().layers {
        ids.extend([
            layer.wq,
            layer.wk,
            layer.wv,
            layer.wo,
            layer.w_ff1,
            layer.w_ff2,
        ]);
    }
    ids
}

/// Post-training weight quantization: every linear weight is replaced by
/// its quantize→dequantize image at `precision`. Returns the number of
/// scalars touched.
pub fn fake_quantize_weights(model: &Model, params: &mut ParamSet, precision: Precision) -> usize {
    let quant = Quantizer::symmetric(precision);
    let mut touched = 0;
    for id in linear_weight_ids(model) {
        let q = quant.quantize(params.value(id));
        let deq = q.dequantize();
        touched += deq.len();
        *params.value_mut(id) = deq;
    }
    touched
}

/// Global magnitude pruning: zeroes the smallest-magnitude `sparsity`
/// fraction of all linear weights (one global threshold, as in classic
/// magnitude pruning). Returns the fraction actually zeroed.
///
/// # Panics
///
/// Panics if `sparsity` is not in `[0, 1)`.
pub fn prune_weights(model: &Model, params: &mut ParamSet, sparsity: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&sparsity),
        "sparsity {sparsity} out of range"
    );
    let ids = linear_weight_ids(model);
    let mut magnitudes: Vec<f32> = Vec::new();
    for &id in &ids {
        magnitudes.extend(params.value(id).iter().map(|x| x.abs()));
    }
    if magnitudes.is_empty() {
        return 0.0;
    }
    let cut = ((sparsity * magnitudes.len() as f64) as usize).min(magnitudes.len() - 1);
    magnitudes.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let threshold = magnitudes[cut];
    let mut zeroed = 0usize;
    let total = magnitudes.len();
    for &id in &ids {
        let m = params.value_mut(id);
        for v in m.iter_mut() {
            if v.abs() < threshold {
                *v = 0.0;
                zeroed += 1;
            }
        }
    }
    zeroed as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{self, TrainOptions};
    use dota_transformer::NoHook;
    use dota_workloads::{Benchmark, TaskSpec};

    fn trained_text() -> (Model, ParamSet, dota_workloads::Dataset) {
        let spec = TaskSpec::tiny(Benchmark::Text, 24, 5);
        let (train, test) = spec.generate_split(200, 100);
        let (model, mut params) = experiments::build_model(&spec, 5);
        experiments::train_dense(
            &model,
            &mut params,
            &train,
            &TrainOptions {
                epochs: 10,
                ..Default::default()
            },
        );
        (model, params, test)
    }

    #[test]
    fn int8_weights_accuracy_neutral() {
        let (model, params, test) = trained_text();
        let baseline = experiments::eval_accuracy(&model, &params, &test, &NoHook);
        let mut quantized = params.clone();
        let touched = fake_quantize_weights(&model, &mut quantized, Precision::Int8);
        assert!(touched > 0);
        let acc = experiments::eval_accuracy(&model, &quantized, &test, &NoHook);
        assert!(
            acc >= baseline - 0.02,
            "INT8 weights cost accuracy: {acc} vs {baseline}"
        );
    }

    #[test]
    fn int2_weights_degrade() {
        // Sanity: the knob is real — 2-bit weights visibly hurt.
        let (model, params, test) = trained_text();
        let baseline = experiments::eval_accuracy(&model, &params, &test, &NoHook);
        let mut quantized = params.clone();
        fake_quantize_weights(&model, &mut quantized, Precision::Int2);
        let acc = experiments::eval_accuracy(&model, &quantized, &test, &NoHook);
        assert!(
            acc < baseline,
            "INT2 weights should degrade: {acc} vs {baseline}"
        );
    }

    #[test]
    fn moderate_pruning_accuracy_neutral() {
        let (model, params, test) = trained_text();
        let baseline = experiments::eval_accuracy(&model, &params, &test, &NoHook);
        let mut pruned = params.clone();
        let frac = prune_weights(&model, &mut pruned, 0.3);
        assert!((0.2..0.4).contains(&frac), "zeroed fraction {frac}");
        let acc = experiments::eval_accuracy(&model, &pruned, &test, &NoHook);
        assert!(
            acc >= baseline - 0.05,
            "30% pruning cost too much: {acc} vs {baseline}"
        );
    }

    #[test]
    fn pruning_only_touches_linear_weights() {
        let (model, params, _) = trained_text();
        let mut pruned = params.clone();
        let _ = prune_weights(&model, &mut pruned, 0.5);
        // Embeddings and the head are untouched.
        let tp = model.params();
        assert_eq!(
            params.value(tp.token_embedding),
            pruned.value(tp.token_embedding)
        );
        assert_eq!(params.value(tp.w_head), pruned.value(tp.w_head));
        // Linear weights did change.
        assert_ne!(
            params.value(tp.layers[0].w_ff1),
            pruned.value(tp.layers[0].w_ff1)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_full_sparsity() {
        let (model, mut params, _) = trained_text();
        let _ = prune_weights(&model, &mut params, 1.0);
    }
}
