//! Accuracy experiment pipeline (paper §5.2, Table 1, Figure 11, Figure 14).
//!
//! The pipeline mirrors the paper's software methodology: start from a
//! model trained with dense attention, attach the detector, *jointly*
//! fine-tune model and detector with omission enabled (`L = L_model +
//! λ·L_MSE`, Eq. 6), then evaluate at a retention ratio against the
//! baselines (dense, post-hoc oracle top-k, ELSA, A3, random).

use dota_autograd::{Adam, Graph, Optimizer, ParamSet};
use dota_detector::{
    a3::A3Hook,
    elsa::ElsaHook,
    oracle::{OracleHook, RandomHook},
};
use dota_detector::{DetectorConfig, DotaHook};
use dota_metrics::MetricsSink;
use dota_tensor::ShapeError;
use dota_transformer::{InferenceHook, Model, NoHook, TransformerConfig};
use dota_workloads::{generators, metrics, Benchmark, Dataset, TaskSpec};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOptions {
    /// Passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight λ of the detector's MSE loss (joint training only).
    pub lambda: f32,
    /// Initial epochs during which the detector trains (via `L_MSE`) but
    /// masking stays off, letting the estimator stabilize before the model
    /// adapts to sparse attention.
    pub warmup_epochs: usize,
    /// Learning-rate warmup: the rate ramps linearly from 0 over this many
    /// optimizer steps. Essential for stable training of the tiny
    /// post-layer-norm Transformers used in the experiments.
    pub lr_warmup_steps: usize,
    /// Stop when an epoch's mean loss falls below this threshold. Guards
    /// joint fine-tuning in particular: once `L_model` reaches zero, only
    /// the `L_MSE` gradient remains, whose degenerate minimum (shrink all
    /// scores to zero) destroys the attention pattern if training runs on.
    pub early_stop_loss: f32,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 12,
            lr: 0.003,
            lambda: 0.5,
            warmup_epochs: 2,
            lr_warmup_steps: 300,
            early_stop_loss: 0.02,
        }
    }
}

impl TrainOptions {
    /// Learning rate at optimizer step `step` (1-based) under linear
    /// warmup.
    pub(crate) fn warmed_lr(&self, step: usize) -> f32 {
        if self.lr_warmup_steps == 0 {
            return self.lr;
        }
        self.lr * (step as f32 / self.lr_warmup_steps as f32).min(1.0)
    }
}

/// Builds the tiny trainable model matching a task spec.
pub fn build_model(spec: &TaskSpec, seed: u64) -> (Model, ParamSet) {
    let mut params = ParamSet::new();
    #[allow(unused_mut)]
    let mut cfg = if spec.benchmark.is_lm() {
        TransformerConfig::tiny_causal(spec.seq_len, spec.vocab_size)
    } else {
        TransformerConfig::tiny(spec.seq_len, spec.vocab_size, spec.n_classes)
    };
    let _ = &mut cfg; // pooling stays Mean for every tiny benchmark
    let model = Model::init(cfg, &mut params, seed);
    (model, params)
}

/// Trains with dense attention; returns per-epoch mean losses.
pub fn train_dense(
    model: &Model,
    params: &mut ParamSet,
    data: &Dataset,
    opts: &TrainOptions,
) -> Vec<f32> {
    train_dense_logged(model, params, data, opts, &mut MetricsSink::disabled())
}

/// [`train_dense`] with per-step telemetry: records `dense.loss`,
/// `dense.lr`, `dense.grad_norm` and `dense.grad_norm_max` into `sink`
/// (one row per optimizer step). Gradient norms are only computed while
/// the sink is enabled, so the silent path costs nothing extra.
pub(crate) fn train_dense_logged(
    model: &Model,
    params: &mut ParamSet,
    data: &Dataset,
    opts: &TrainOptions,
    sink: &mut MetricsSink,
) -> Vec<f32> {
    let _prof = dota_prof::span("train.dense");
    let mut opt = Adam::new(opts.lr).clip_norm(5.0);
    let mut losses = Vec::with_capacity(opts.epochs);
    let mut step = 0usize;
    for _ in 0..opts.epochs {
        let mut total = 0.0;
        for sample in data {
            step += 1;
            opt.set_lr(opts.warmed_lr(step));
            let mut g = Graph::new();
            let out = model.forward(&mut g, params, &sample.ids, &mut NoHook);
            let loss = if model.config().causal {
                model.lm_loss(&mut g, &out, &sample.ids)
            } else {
                model.classification_loss(&mut g, &out, sample.label)
            };
            let loss_val = g.value(loss)[(0, 0)];
            total += loss_val;
            g.backward(loss);
            if sink.enabled() {
                sink.log(&[
                    ("dense.loss", f64::from(loss_val)),
                    ("dense.lr", f64::from(opts.warmed_lr(step))),
                    ("dense.grad_norm", f64::from(params.grad_norm(&g))),
                    ("dense.grad_norm_max", f64::from(params.max_grad_norm(&g))),
                ]);
            }
            opt.step(params, &g);
        }
        let mean = total / data.len().max(1) as f32;
        losses.push(mean);
        if mean < opts.early_stop_loss {
            break;
        }
    }
    losses
}

/// Joint model-adaptation fine-tuning with the DOTA detector (Eq. 6).
///
/// Two phases, mirroring how the paper starts from a *pretrained* model:
///
/// 1. **Detector warm-up** (`warmup_epochs`): the model is frozen and only
///    the low-rank parameters train, minimizing `‖S − S̃‖²` against the
///    frozen model's scores. (Letting the MSE gradient loose on a fully
///    converged model would instead shrink `S` toward the degenerate
///    all-zero solution — `L_model` contributes no counter-pressure once
///    it reaches zero.)
/// 2. **Joint adaptation**: masking turns on and the full objective
///    `L_model + λ·L_MSE` trains model and detector together.
///
/// Returns per-epoch mean losses (phase 2 only counts toward early stop).
///
/// # Errors
///
/// [`ShapeError`] when the model and detector parameter shapes do not
/// conform (a corrupted checkpoint, for example).
pub fn train_joint(
    model: &Model,
    params: &mut ParamSet,
    hook: &mut DotaHook,
    data: &Dataset,
    opts: &TrainOptions,
) -> Result<Vec<f32>, ShapeError> {
    train_joint_logged(
        model,
        params,
        hook,
        data,
        opts,
        &mut MetricsSink::disabled(),
    )
}

/// [`train_joint`] with per-step telemetry. Phase 1 records
/// `warmup.detector_mse` / `warmup.grad_norm`; phase 2 records the Eq. 6
/// decomposition (`joint.loss`, `joint.model_loss`, `joint.detector_mse`),
/// the learning rate, gradient norms, and the per-layer retention ratio
/// the detector masks actually imposed (`joint.retention.L{l}`, averaged
/// over the layer's heads). All extra computation is gated on
/// [`MetricsSink::enabled`].
///
/// # Errors
///
/// [`ShapeError`] when the model and detector parameter shapes do not
/// conform (a corrupted checkpoint, for example).
pub(crate) fn train_joint_logged(
    model: &Model,
    params: &mut ParamSet,
    hook: &mut DotaHook,
    data: &Dataset,
    opts: &TrainOptions,
    sink: &mut MetricsSink,
) -> Result<Vec<f32>, ShapeError> {
    let _prof = dota_prof::span("train.joint");
    let mut losses = Vec::with_capacity(opts.epochs);

    // --- Phase 1: detector-only estimation pretraining. ---
    if opts.warmup_epochs > 0 {
        let mut opt = Adam::new(opts.lr).clip_norm(5.0);
        let cfg = model.config();
        let hd = cfg.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();
        for _ in 0..opts.warmup_epochs.min(opts.epochs) {
            let mut total = 0.0;
            for sample in data {
                // Frozen-model layer inputs and exact scores as constants.
                let xs = dota_detector::metrics::layer_inputs(model, params, &sample.ids);
                let mut g = Graph::new();
                let mut acc: Option<dota_autograd::Var> = None;
                for (l, x) in xs.iter().enumerate() {
                    let layer = &model.params().layers[l];
                    let q = x.matmul(params.value(layer.wq))?;
                    let k = x.matmul(params.value(layer.wk))?;
                    let xv = g.constant(x.clone());
                    for h in 0..cfg.n_heads {
                        let (c0, c1) = (h * hd, (h + 1) * hd);
                        let scores = q
                            .slice_cols(c0, c1)
                            .matmul_nt(&k.slice_cols(c0, c1))?
                            .scale(scale);
                        let target = g.constant(scores);
                        let s_tilde = hook.detector(l, h).estimated_scores(&mut g, params, xv);
                        let mse = g.mse(s_tilde, target);
                        acc = Some(match acc {
                            None => mse,
                            Some(a) => g.add(a, mse),
                        });
                    }
                }
                // A model with no layers/heads has no detector loss to
                // warm up on; skip the sample rather than panic.
                let Some(loss) = acc else { continue };
                let loss_val = g.value(loss)[(0, 0)];
                total += loss_val;
                g.backward(loss);
                if sink.enabled() {
                    sink.log(&[
                        ("warmup.detector_mse", f64::from(loss_val)),
                        ("warmup.grad_norm", f64::from(params.grad_norm(&g))),
                    ]);
                }
                opt.step(params, &g);
            }
            losses.push(total / data.len().max(1) as f32);
        }
    }

    // --- Phase 2: joint adaptation with masking enabled. ---
    hook.set_masking(true);
    let mut opt = Adam::new(opts.lr).clip_norm(5.0);
    let mut step = 0usize;
    for _ in opts.warmup_epochs.min(opts.epochs)..opts.epochs {
        let mut total = 0.0;
        for sample in data {
            step += 1;
            opt.set_lr(opts.warmed_lr(step));
            let mut g = Graph::new();
            let mut bound = hook.training(params);
            let out = model.forward(&mut g, params, &sample.ids, &mut bound);
            let model_loss = if model.config().causal {
                model.lm_loss(&mut g, &out, &sample.ids)
            } else {
                model.classification_loss(&mut g, &out, sample.label)
            };
            let loss = model.total_loss(&mut g, model_loss, &out, opts.lambda);
            let loss_val = g.value(loss)[(0, 0)];
            total += loss_val;
            g.backward(loss);
            if sink.enabled() {
                let mse_mean = if out.aux_losses.is_empty() {
                    0.0
                } else {
                    out.aux_losses
                        .iter()
                        .map(|&a| f64::from(g.value(a)[(0, 0)]))
                        .sum::<f64>()
                        / out.aux_losses.len() as f64
                };
                let mut row: Vec<(String, f64)> = vec![
                    ("joint.loss".to_owned(), f64::from(loss_val)),
                    (
                        "joint.model_loss".to_owned(),
                        f64::from(g.value(model_loss)[(0, 0)]),
                    ),
                    ("joint.detector_mse".to_owned(), mse_mean),
                    ("joint.lr".to_owned(), f64::from(opts.warmed_lr(step))),
                    (
                        "joint.grad_norm".to_owned(),
                        f64::from(params.grad_norm(&g)),
                    ),
                    (
                        "joint.grad_norm_max".to_owned(),
                        f64::from(params.max_grad_norm(&g)),
                    ),
                ];
                let n_layers = model.config().n_layers;
                for l in 0..n_layers {
                    let stats: Vec<_> = out.mask_stats.iter().filter(|s| s.layer == l).collect();
                    if !stats.is_empty() {
                        let r =
                            stats.iter().map(|s| s.retention()).sum::<f64>() / stats.len() as f64;
                        row.push((format!("joint.retention.L{l}"), r));
                    }
                }
                let refs: Vec<(&str, f64)> = row.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                sink.log(&refs);
            }
            opt.step(params, &g);
        }
        let mean = total / data.len().max(1) as f32;
        losses.push(mean);
        if mean < opts.early_stop_loss {
            break;
        }
    }
    Ok(losses)
}

/// Runs `per_sample` over every sample of `data`, in input order — fanned
/// out across worker threads with the `parallel` feature (sequences are
/// independent at inference time), serially otherwise. Both paths produce
/// the same vector, so every evaluation metric built on this is identical
/// with and without the feature.
fn map_samples<R: Send>(
    data: &Dataset,
    per_sample: impl Fn(&dota_workloads::Sample) -> R + Sync,
) -> Vec<R> {
    let samples = data.samples();
    #[cfg(feature = "parallel")]
    return dota_parallel::par_map(samples, |_, s| per_sample(s));
    #[cfg(not(feature = "parallel"))]
    samples.iter().map(per_sample).collect()
}

/// Per-sample `(prediction, label)` pairs under an inference hook.
fn eval_pairs(
    model: &Model,
    params: &ParamSet,
    data: &Dataset,
    hook: &dyn InferenceHook,
) -> Vec<(usize, usize)> {
    let _prof = dota_prof::span("eval.classify");
    map_samples(data, |s| {
        let trace = model.infer(params, &s.ids, hook);
        (trace.predicted_class(), s.label)
    })
}

/// Classification accuracy of `model` on `data` under an inference hook.
pub fn eval_accuracy(
    model: &Model,
    params: &ParamSet,
    data: &Dataset,
    hook: &dyn InferenceHook,
) -> f64 {
    metrics::accuracy(&eval_pairs(model, params, data, hook))
}

/// Macro-F1 of `model` on `data` (the QA metric).
pub fn eval_f1(model: &Model, params: &ParamSet, data: &Dataset, hook: &dyn InferenceHook) -> f64 {
    metrics::macro_f1(
        &eval_pairs(model, params, data, hook),
        data.spec().n_classes,
    )
}

/// Language-model evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmEval {
    /// Perplexity over all predicted positions (lower is better).
    pub perplexity: f64,
    /// Accuracy on the planted copy-recall position — the long-range
    /// dependency the task isolates.
    pub recall_accuracy: f64,
}

/// Evaluates a causal model: overall perplexity plus copy-recall accuracy.
///
/// Per-sequence statistics are computed independently (in parallel with the
/// `parallel` feature) and reduced in input order, so the result does not
/// depend on the execution schedule.
pub(crate) fn eval_lm(
    model: &Model,
    params: &ParamSet,
    data: &Dataset,
    hook: &dyn InferenceHook,
) -> LmEval {
    let _prof = dota_prof::span("eval.lm");
    // (nll contribution, predicted positions, recall hit at the planted
    // copy position — None when the sequence has no recall position).
    let stats: Vec<(f64, usize, Option<bool>)> = map_samples(data, |s| {
        let trace = model.infer(params, &s.ids, hook);
        let targets: Vec<usize> = s.ids[1..].to_vec();
        let logits = trace.logits.slice_rows(0, targets.len());
        let nll = metrics::mean_nll(&logits, &targets) * targets.len() as f64;
        let recall = generators::lm_recall_position(&s.ids).map(|pos| {
            // Position pos-1 predicts the token at pos.
            let row = logits.row(pos - 1);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            pred == s.ids[pos]
        });
        (nll, targets.len(), recall)
    });
    let mut nll_sum = 0.0;
    let mut nll_count = 0usize;
    let mut recall_hits = 0usize;
    let mut recall_total = 0usize;
    for (nll, count, recall) in stats {
        nll_sum += nll;
        nll_count += count;
        if let Some(hit) = recall {
            recall_total += 1;
            if hit {
                recall_hits += 1;
            }
        }
    }
    LmEval {
        perplexity: metrics::perplexity(nll_sum / nll_count.max(1) as f64),
        recall_accuracy: recall_hits as f64 / recall_total.max(1) as f64,
    }
}

/// Selection method evaluated in the Figure 11 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Dense attention (the baseline accuracy).
    Dense,
    /// DOTA: jointly-trained quantized low-rank detector.
    Dota,
    /// Post-hoc exact top-k (Table 1's oracle).
    Oracle,
    /// ELSA's sign-random-projection approximation (training-free).
    Elsa,
    /// A3's sorted-dimension approximation (training-free).
    A3,
    /// Uniform random selection (sanity floor).
    Random,
}

/// One accuracy-vs-retention measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyPoint {
    /// The selection method.
    pub method: Method,
    /// Retention ratio evaluated at.
    pub retention: f64,
    /// Classification accuracy (or copy-recall accuracy for LM).
    pub accuracy: f64,
    /// Perplexity for LM benchmarks (`None` otherwise).
    pub perplexity: Option<f64>,
}

/// A fully-trained benchmark instance: dense-trained weights plus a
/// jointly-adapted (weights, detector) pair, ready to evaluate any method
/// at the configured retention.
pub struct BenchmarkRun {
    /// The benchmark evaluated.
    pub benchmark: Benchmark,
    /// The model architecture (shared by both parameter sets).
    pub model: Model,
    /// Dense-trained parameters (baselines evaluate on these).
    pub dense_params: ParamSet,
    /// Jointly-adapted parameters (DOTA evaluates on these).
    pub dota_params: ParamSet,
    /// The trained detector bank.
    pub hook: DotaHook,
    /// Held-out evaluation set.
    pub test: Dataset,
}

impl BenchmarkRun {
    /// Runs the full pipeline for `benchmark` at sequence length `seq_len`:
    /// generate data, train dense, clone, jointly adapt with the detector
    /// at `detector_cfg.retention`.
    ///
    /// # Errors
    ///
    /// [`ShapeError`] when the model and detector parameter shapes do not
    /// conform.
    pub fn train(
        benchmark: Benchmark,
        seq_len: usize,
        train_samples: usize,
        test_samples: usize,
        detector_cfg: DetectorConfig,
        opts: &TrainOptions,
        seed: u64,
    ) -> Result<Self, ShapeError> {
        Self::train_logged(
            benchmark,
            seq_len,
            train_samples,
            test_samples,
            detector_cfg,
            opts,
            seed,
            &mut MetricsSink::disabled(),
        )
    }

    /// [`BenchmarkRun::train`] with per-step telemetry: the dense
    /// pretraining and both joint phases log into one continuous `sink`
    /// (steps are 1-based across the whole pipeline). See
    /// `train_dense_logged` and `train_joint_logged` for the metric
    /// names.
    ///
    /// # Errors
    ///
    /// [`ShapeError`] when the model and detector parameter shapes do not
    /// conform.
    #[allow(clippy::too_many_arguments)]
    pub fn train_logged(
        benchmark: Benchmark,
        seq_len: usize,
        train_samples: usize,
        test_samples: usize,
        detector_cfg: DetectorConfig,
        opts: &TrainOptions,
        seed: u64,
        sink: &mut MetricsSink,
    ) -> Result<Self, ShapeError> {
        let spec = TaskSpec::tiny(benchmark, seq_len, seed);
        let (train, test) = spec.generate_split(train_samples, test_samples);
        let (model, mut dense_params) = build_model(&spec, seed);
        train_dense_logged(&model, &mut dense_params, &train, opts, sink);

        let mut dota_params = dense_params.clone();
        let mut hook = DotaHook::init(detector_cfg, model.config(), &mut dota_params);
        train_joint_logged(&model, &mut dota_params, &mut hook, &train, opts, sink)?;

        Ok(Self {
            benchmark,
            model,
            dense_params,
            dota_params,
            hook,
            test,
        })
    }

    /// Evaluates one method at `retention` on the held-out set.
    pub fn evaluate(&self, method: Method, retention: f64, seed: u64) -> AccuracyPoint {
        let (params, hook): (&ParamSet, Box<dyn InferenceHook + '_>) = match method {
            Method::Dense => (&self.dense_params, Box::new(NoHook)),
            Method::Dota => (
                &self.dota_params,
                Box::new(self.hook.inference(&self.dota_params)),
            ),
            Method::Oracle => (
                &self.dense_params,
                Box::new(OracleHook::from_model(
                    &self.model,
                    &self.dense_params,
                    retention,
                )),
            ),
            Method::Elsa => (
                &self.dense_params,
                Box::new(ElsaHook::from_model(
                    &self.model,
                    &self.dense_params,
                    64,
                    retention,
                    seed,
                )),
            ),
            Method::A3 => {
                let dims = (self.model.config().head_dim() / 4).max(1);
                (
                    &self.dense_params,
                    Box::new(A3Hook::from_model(
                        &self.model,
                        &self.dense_params,
                        dims,
                        retention,
                    )),
                )
            }
            Method::Random => (
                &self.dense_params,
                Box::new(RandomHook::new(retention, seed)),
            ),
        };
        if self.benchmark.is_lm() {
            let lm = eval_lm(&self.model, params, &self.test, hook.as_ref());
            AccuracyPoint {
                method,
                retention,
                accuracy: lm.recall_accuracy,
                perplexity: Some(lm.perplexity),
            }
        } else {
            AccuracyPoint {
                method,
                retention,
                accuracy: eval_accuracy(&self.model, params, &self.test, hook.as_ref()),
                perplexity: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_training_learns_text_task() {
        let spec = TaskSpec::tiny(Benchmark::Text, 24, 7);
        let (train, test) = spec.generate_split(60, 40);
        let (model, mut params) = build_model(&spec, 7);
        let opts = TrainOptions {
            epochs: 10,
            ..Default::default()
        };
        let losses = train_dense(&model, &mut params, &train, &opts);
        assert!(losses.last().unwrap() < &losses[0], "loss not decreasing");
        let acc = eval_accuracy(&model, &params, &test, &NoHook);
        assert!(acc > 0.7, "dense accuracy {acc}");
    }

    #[test]
    fn joint_training_preserves_accuracy_under_omission() {
        let run = BenchmarkRun::train(
            Benchmark::Text,
            24,
            60,
            40,
            DetectorConfig::new(0.25),
            &TrainOptions {
                epochs: 10,
                warmup_epochs: 2,
                ..Default::default()
            },
            11,
        )
        .expect("training failed");
        let dense = run.evaluate(Method::Dense, 1.0, 1);
        let dota = run.evaluate(Method::Dota, 0.25, 1);
        assert!(dense.accuracy > 0.7, "dense {dense:?}");
        assert!(
            dota.accuracy >= dense.accuracy - 0.15,
            "DOTA at 25% retention lost too much: {dota:?} vs {dense:?}"
        );
        let random = run.evaluate(Method::Random, 0.25, 1);
        assert!(
            dota.accuracy >= random.accuracy,
            "DOTA {dota:?} should beat random {random:?}"
        );
    }

    #[test]
    fn lm_eval_reports_both_metrics() {
        let spec = TaskSpec::tiny(Benchmark::Lm, 24, 3);
        let (train, test) = spec.generate_split(30, 20);
        let (model, mut params) = build_model(&spec, 3);
        let opts = TrainOptions {
            epochs: 6,
            ..Default::default()
        };
        train_dense(&model, &mut params, &train, &opts);
        let eval = eval_lm(&model, &params, &test, &NoHook);
        assert!(eval.perplexity > 1.0 && eval.perplexity.is_finite());
        assert!((0.0..=1.0).contains(&eval.recall_accuracy));
    }

    #[test]
    fn oracle_beats_random_at_low_retention() {
        let spec = TaskSpec::tiny(Benchmark::Qa, 32, 5);
        let (train, test) = spec.generate_split(60, 30);
        let (model, mut params) = build_model(&spec, 5);
        train_dense(
            &model,
            &mut params,
            &train,
            &TrainOptions {
                // Enough epochs that the learned attention structure is real
                // signal (an undertrained model's scores are noise, and the
                // oracle has no advantage to exploit).
                epochs: 16,
                ..Default::default()
            },
        );
        let oracle = OracleHook::from_model(&model, &params, 0.25);
        let acc_oracle = eval_accuracy(&model, &params, &test, &oracle);
        let acc_random = eval_accuracy(&model, &params, &test, &RandomHook::new(0.25, 2));
        assert!(
            acc_oracle >= acc_random,
            "oracle {acc_oracle} vs random {acc_random}"
        );
    }
}
