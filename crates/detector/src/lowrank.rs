use crate::{DetectorConfig, SelectionStrategy};
use dota_autograd::{Graph, ParamId, ParamSet, Var};
use dota_quant::qgemm::scaling_preserves_order;
use dota_quant::{QuantizedMatrix, Quantizer};
use dota_tensor::lanes::Lanes;
use dota_tensor::rng::SeededRng;
use dota_tensor::{topk, Matrix};

/// One low-rank score estimator for a single attention head (paper §3.1).
///
/// Holds the fixed Achlioptas projection `P ∈ sqrt(3/k)·{-1,0,+1}^{d×k}` and
/// handles to the trainable `k×k` transformations `W̃_Q`, `W̃_K`. Two
/// evaluation paths are provided: a float path on the autograd tape (for
/// joint training) and a quantized integer path (what the deployed RMMU
/// computes).
#[derive(Debug, Clone)]
pub struct LowRankDetector {
    projection: Matrix,
    wq_tilde: ParamId,
    wk_tilde: ParamId,
    rank: usize,
}

impl LowRankDetector {
    /// Initializes a detector for input dimension `d_model` and head
    /// dimension `head_dim`, registering its trainable parameters.
    ///
    /// `tag` namespaces the parameter names (e.g. `"l0.h1"`).
    pub fn init(
        cfg: &DetectorConfig,
        d_model: usize,
        head_dim: usize,
        params: &mut ParamSet,
        tag: &str,
        seed: u64,
    ) -> Self {
        let rank = cfg.rank_for_head_dim(head_dim);
        let mut rng = SeededRng::new(seed);
        let projection = rng.achlioptas_projection(d_model, rank);
        // Identity-leaning init: the projection alone is already an unbiased
        // low-dimensional sketch, so start W̃ near identity plus noise.
        let noise = 0.1 / (rank as f32).sqrt();
        let init = |rng: &mut SeededRng| {
            let mut m = rng.normal_matrix(rank, rank, noise);
            for i in 0..rank {
                m[(i, i)] += 1.0;
            }
            m
        };
        let wq_tilde = params.add(&format!("detector.{tag}.wq_tilde"), init(&mut rng));
        let wk_tilde = params.add(&format!("detector.{tag}.wk_tilde"), init(&mut rng));
        Self {
            projection,
            wq_tilde,
            wk_tilde,
            rank,
        }
    }

    /// The detector rank `k`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Handle to `W̃_Q`.
    pub(crate) fn wq_tilde(&self) -> ParamId {
        self.wq_tilde
    }

    /// Handle to `W̃_K`.
    pub(crate) fn wk_tilde(&self) -> ParamId {
        self.wk_tilde
    }

    /// The fixed sparse random projection `P`.
    pub fn projection(&self) -> &Matrix {
        &self.projection
    }

    /// Builds the estimated score node `S̃ = (X P W̃_Q)(X P W̃_K)^T` on the
    /// tape (float path, used during joint training).
    pub fn estimated_scores(&self, g: &mut Graph, params: &ParamSet, x: Var) -> Var {
        let p = g.constant(self.projection.clone());
        let xp = g.matmul(x, p);
        let wq = g.param(params, self.wq_tilde);
        let wk = g.param(params, self.wk_tilde);
        let q_tilde = g.matmul(xp, wq);
        let k_tilde = g.matmul(xp, wk);
        g.matmul_nt(q_tilde, k_tilde)
    }

    /// The sketch step of the quantized inference path: `X P` is computed
    /// in float (the projection is ternary — in hardware it is
    /// adds/subtracts), then `X P`, `W̃_Q` and `W̃_K` are quantized to
    /// `cfg.precision` and `Q̃`, `K̃` come out of integer GEMMs, exactly
    /// like the RMMU's low-precision rows. Returns `(Q̃, K̃)` requantized
    /// for the score product.
    fn quantized_sketches(
        &self,
        cfg: &DetectorConfig,
        params: &ParamSet,
        x: &Matrix,
    ) -> (QuantizedMatrix, QuantizedMatrix) {
        let xp = x.matmul(&self.projection).expect("projection shape");
        let quant = Quantizer::symmetric(cfg.precision);
        let q_xp = quant.quantize(&xp);
        let q_wq = quant.quantize(params.value(self.wq_tilde));
        let q_wk = quant.quantize(params.value(self.wk_tilde));
        // Q̃ = XP · W̃_Q in integer arithmetic (dequantized result carries
        // the combined scale, like the INT8 intermediates of §5.5)…
        let q_tilde = q_xp
            .matmul_nt_dequant(&transpose_quantized(&q_wq, cfg))
            .expect("shape");
        let k_tilde = q_xp
            .matmul_nt_dequant(&transpose_quantized(&q_wk, cfg))
            .expect("shape");
        // …requantized as the RMMU would before S̃ = Q̃ K̃^T and the
        // Detector's threshold comparison.
        (quant.quantize(&q_tilde), quant.quantize(&k_tilde))
    }

    /// Quantized inference path: the estimated scores `S̃ = Q̃ K̃^T` of the
    /// requantized sketches, as a matrix — the analysis API (detection
    /// quality, calibration) and the oracle of
    /// `select_quantized`, which never builds it.
    pub fn estimated_scores_quantized(
        &self,
        cfg: &DetectorConfig,
        params: &ParamSet,
        x: &Matrix,
    ) -> Matrix {
        let (q, k) = self.quantized_sketches(cfg, params, x);
        q.matmul_nt_dequant(&k).expect("shape")
    }

    /// [`estimated_scores_quantized`](Self::estimated_scores_quantized) one
    /// query row at a time: `f(i, scores)` sees the bits row `i` of the
    /// matrix would hold, and the matrix never exists — the Detector's
    /// comparator (§4.3) streams, it does not store.
    pub(crate) fn for_each_quantized_score_row(
        &self,
        cfg: &DetectorConfig,
        params: &ParamSet,
        x: &Matrix,
        f: impl FnMut(usize, &[f32]),
    ) {
        let (q, k) = self.quantized_sketches(cfg, params, x);
        q.for_each_score_row(&k, f).expect("shape");
    }

    /// The deployed selection at `layer`: what
    /// [`select_for_layer`](Self::select_for_layer) keeps of
    /// [`estimated_scores_quantized`](Self::estimated_scores_quantized),
    /// every row ascending. Under [`SelectionStrategy::BalancedTopK`] the
    /// estimate is consumed one query row at a time and no `n × n` matrix
    /// is held: each row is ranked as the integer accumulators it already
    /// is whenever [`scaling_preserves_order`] says the dequantizing scale
    /// cannot reorder or merge them, and as scaled `f32` scores otherwise
    /// (a product scale that underflowed or overflowed, codes wider than
    /// 8 bits) — the same set either way.
    pub(crate) fn select_quantized(
        &self,
        cfg: &DetectorConfig,
        params: &ParamSet,
        x: &Matrix,
        layer: usize,
    ) -> Vec<Vec<u32>> {
        if cfg.strategy == SelectionStrategy::GlobalThreshold {
            // One threshold over all n² scores: this ablation needs them all.
            let scores = self.estimated_scores_quantized(cfg, params, x);
            return Self::select_for_layer(cfg, &scores, Some(layer));
        }
        let (q, k) = self.quantized_sketches(cfg, params, x);
        let keep = cfg.keys_per_row_for_layer(layer, k.rows());
        let lanes = Lanes::active();
        let mut selection = Vec::with_capacity(q.rows());
        if let Some((q8, k8)) = q.narrowed_with(&k) {
            let bound = q8.acc_bound(&k8);
            if scaling_preserves_order(bound, q8.scale() * k8.scale()) {
                let bound = bound as i32;
                q8.for_each_acc_row(lanes, &k8, |_, acc| {
                    let mut row = Vec::with_capacity(keep);
                    topk::top_k_set_keys(lanes, acc, keep, -bound, bound, &mut row);
                    selection.push(row);
                })
                .expect("shape");
                return selection;
            }
        }
        let mut keys = Vec::new();
        q.for_each_score_row(&k, |_, scores| {
            let mut row = Vec::with_capacity(keep);
            topk::top_k_set(lanes, scores, keep, &mut keys, &mut row);
            selection.push(row);
        })
        .expect("shape");
        selection
    }

    /// Float (FP32) inference path, for the Fig. 14b precision ablation.
    pub fn estimated_scores_f32(&self, params: &ParamSet, x: &Matrix) -> Matrix {
        let xp = x.matmul(&self.projection).expect("projection shape");
        let q_tilde = xp.matmul(params.value(self.wq_tilde)).expect("shape");
        let k_tilde = xp.matmul(params.value(self.wk_tilde)).expect("shape");
        q_tilde.matmul_nt(&k_tilde).expect("shape")
    }

    /// Converts estimated scores into the per-row key selection according to
    /// the configured strategy, at the base retention; every row ascending.
    pub fn select(cfg: &DetectorConfig, scores: &Matrix) -> Vec<Vec<u32>> {
        Self::select_for_layer(cfg, scores, None)
    }

    /// Like [`select`](Self::select), honoring the per-layer retention
    /// schedule when `layer` is given.
    pub(crate) fn select_for_layer(
        cfg: &DetectorConfig,
        scores: &Matrix,
        layer: Option<usize>,
    ) -> Vec<Vec<u32>> {
        let n_rows = scores.rows();
        let n_cols = scores.cols();
        match cfg.strategy {
            SelectionStrategy::BalancedTopK => {
                let k = match layer {
                    Some(l) => cfg.keys_per_row_for_layer(l, n_cols),
                    None => cfg.keys_per_row(n_cols),
                };
                let lanes = Lanes::active();
                let mut keys = Vec::with_capacity(n_cols);
                scores
                    .rows_iter()
                    .map(|row| {
                        let mut kept = Vec::with_capacity(k);
                        topk::top_k_set(lanes, row, k, &mut keys, &mut kept);
                        kept
                    })
                    .collect()
            }
            SelectionStrategy::GlobalThreshold => {
                let retention = layer
                    .map(|l| cfg.retention_for_layer(l))
                    .unwrap_or(cfg.retention);
                // Keep the strongest `retention` fraction of all entries.
                let total = n_rows * n_cols;
                let keep = ((retention * total as f64).round() as usize).clamp(1, total);
                // On `descending_rank`s "at least the keep-th strongest" is
                // an integer comparison that NaN scores cannot derail.
                let mut ranks: Vec<u32> =
                    scores.iter().map(|&v| topk::descending_rank(v)).collect();
                let thresh = *ranks.select_nth_unstable(keep - 1).1;
                (0..n_rows)
                    .map(|r| {
                        let row = scores.row(r);
                        let mut sel: Vec<u32> = row
                            .iter()
                            .enumerate()
                            .filter(|(_, &v)| topk::descending_rank(v) <= thresh)
                            .map(|(j, _)| j as u32)
                            .collect();
                        // A row may legitimately end up empty under a global
                        // threshold; keep its single best key so the output
                        // feature is defined.
                        if sel.is_empty() {
                            sel = vec![topk::top_k_indices(row, 1)[0] as u32];
                        }
                        sel
                    })
                    .collect()
            }
        }
    }
}

/// Transposes a quantized matrix by dequantizing, transposing and
/// requantizing with the same scale (codes are preserved exactly — the
/// operation is a pure layout change, as in hardware).
fn transpose_quantized(q: &QuantizedMatrix, cfg: &DetectorConfig) -> QuantizedMatrix {
    let deq = q.dequantize().transpose();
    Quantizer::symmetric(cfg.precision).quantize_with_scale(&deq, q.scale())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_quant::Precision;

    fn setup(sigma: f64) -> (DetectorConfig, LowRankDetector, ParamSet) {
        let cfg = DetectorConfig::new(0.25).with_sigma(sigma);
        let mut params = ParamSet::new();
        let det = LowRankDetector::init(&cfg, 32, 16, &mut params, "l0.h0", 7);
        (cfg, det, params)
    }

    #[test]
    fn init_shapes() {
        let (cfg, det, params) = setup(0.25);
        assert_eq!(det.rank(), cfg.rank_for_head_dim(16));
        assert_eq!(det.projection().shape(), (32, det.rank()));
        assert_eq!(
            params.value(det.wq_tilde()).shape(),
            (det.rank(), det.rank())
        );
    }

    #[test]
    fn graph_and_f32_paths_agree() {
        let (_, det, params) = setup(0.5);
        let mut rng = SeededRng::new(1);
        let x = rng.normal_matrix(6, 32, 1.0);
        let f32_scores = det.estimated_scores_f32(&params, &x);
        let mut g = Graph::new();
        let xv = g.constant(x);
        let sv = det.estimated_scores(&mut g, &params, xv);
        assert!(g.value(sv).approx_eq(&f32_scores, 1e-4));
    }

    #[test]
    fn quantized_path_ranks_like_f32() {
        let (cfg, det, params) = setup(0.5);
        let mut rng = SeededRng::new(2);
        let x = rng.normal_matrix(16, 32, 1.0);
        let exact = det.estimated_scores_f32(&params, &x);
        let quant = det.estimated_scores_quantized(&cfg, &params, &x);
        assert_eq!(quant.shape(), exact.shape());
        let sel_exact = topk::top_k_rows(&exact, 4);
        let sel_quant = topk::top_k_rows(&quant, 4);
        let recall = topk::selection_recall(&sel_exact, &sel_quant);
        assert!(recall > 0.6, "quantized ranking recall {recall}");
    }

    #[test]
    fn int2_noisier_than_int8() {
        let (_, det, params) = setup(0.5);
        let mut rng = SeededRng::new(3);
        let x = rng.normal_matrix(24, 32, 1.0);
        let exact = det.estimated_scores_f32(&params, &x);
        let sel_exact = topk::top_k_rows(&exact, 6);
        let recall_at = |p: Precision| {
            let cfg = DetectorConfig::new(0.25).with_sigma(0.5).with_precision(p);
            let s = det.estimated_scores_quantized(&cfg, &params, &x);
            topk::selection_recall(&sel_exact, &topk::top_k_rows(&s, 6))
        };
        let r8 = recall_at(Precision::Int8);
        let r2 = recall_at(Precision::Int2);
        assert!(
            r8 >= r2,
            "INT8 {r8} should match f32 at least as well as INT2 {r2}"
        );
        assert!(r8 > 0.8, "INT8 recall {r8}");
    }

    #[test]
    fn extreme_product_scales_leave_the_integer_path() {
        // Whether `select_quantized` may rank accumulators is decided per
        // call from the operands' scales; both sides of that decision are
        // held to the materialised oracle in `hook.rs`.
        let (cfg, det, params) = setup(0.5);
        let x = SeededRng::new(9).normal_matrix(12, 32, 1.0);
        let integer_keys = |x: &Matrix| {
            let (q, k) = det.quantized_sketches(&cfg, &params, x);
            let (q8, k8) = q.narrowed_with(&k).expect("INT4 codes fit a byte");
            scaling_preserves_order(q8.acc_bound(&k8), q8.scale() * k8.scale())
        };
        assert!(integer_keys(&x));
        assert!(integer_keys(&Matrix::zeros(12, 32)));
        // The product of the two sketch scales underflows…
        assert!(!integer_keys(&x.scale(2f32.powi(-70))));
        // …or the largest possible score overflows.
        assert!(!integer_keys(&x.scale(2f32.powi(60))));
        // Codes wider than a byte have no accumulator stream at all.
        let wide = cfg.clone().with_precision(dota_quant::Precision::Fx16);
        let (q, k) = det.quantized_sketches(&wide, &params, &x);
        assert!(q.narrowed_with(&k).is_none());
        let scores = det.estimated_scores_quantized(&wide, &params, &x);
        assert_eq!(
            det.select_quantized(&wide, &params, &x, 0),
            LowRankDetector::select_for_layer(&wide, &scores, Some(0))
        );
    }

    #[test]
    fn balanced_selection_has_equal_rows() {
        let (cfg, _, _) = setup(0.25);
        let mut rng = SeededRng::new(4);
        let scores = rng.normal_matrix(12, 20, 1.0);
        let sel = LowRankDetector::select(&cfg, &scores);
        let k = cfg.keys_per_row(20);
        assert!(sel.iter().all(|r| r.len() == k));
    }

    #[test]
    fn global_threshold_keeps_retention_overall() {
        let cfg = DetectorConfig::new(0.25).with_strategy(SelectionStrategy::GlobalThreshold);
        let mut rng = SeededRng::new(5);
        let scores = rng.normal_matrix(20, 20, 1.0);
        let sel = LowRankDetector::select(&cfg, &scores);
        let kept: usize = sel.iter().map(Vec::len).sum();
        let frac = kept as f64 / 400.0;
        assert!((frac - 0.25).abs() < 0.05, "kept {frac}");
        // Rows vary in count — that is the point of the ablation.
        let counts: Vec<usize> = sel.iter().map(Vec::len).collect();
        assert!(counts.iter().any(|&c| c != counts[0]));
    }

    #[test]
    fn nan_scores_select_instead_of_panicking() {
        // A few NaNs in 1024-long rows used to reach `sort_by` with a
        // non-total comparator, which std answers with a panic.
        let mut rng = SeededRng::new(8);
        let mut scores = rng.normal_matrix(8, 1024, 1.0);
        for r in 0..8 {
            for c in (r..1024).step_by(97) {
                scores[(r, c)] = f32::NAN;
            }
        }
        let balanced = DetectorConfig::new(0.1);
        let sel = LowRankDetector::select(&balanced, &scores);
        assert!(sel
            .iter()
            .all(|row| row.len() == balanced.keys_per_row(1024)));
        let is_nan = |r: usize, c: u32| scores[(r, c as usize)].is_nan();
        assert!(sel
            .iter()
            .enumerate()
            .all(|(r, row)| !row.iter().any(|&c| is_nan(r, c))));

        let global = DetectorConfig::new(0.1).with_strategy(SelectionStrategy::GlobalThreshold);
        let sel = LowRankDetector::select(&global, &scores);
        let kept: usize = sel.iter().map(Vec::len).sum();
        assert_eq!(kept, (0.1f64 * 8.0 * 1024.0).round() as usize);
        assert!(sel
            .iter()
            .enumerate()
            .all(|(r, row)| !row.iter().any(|&c| is_nan(r, c))));
    }

    #[test]
    fn training_the_detector_improves_estimation() {
        // Regression-style sanity check of the MSE loss path: train W̃
        // to match a synthetic target score matrix produced by a real
        // Q/K projection pair.
        use dota_autograd::{Adam, Optimizer};
        let (_, det, mut params) = setup(0.5);
        let mut rng = SeededRng::new(6);
        let wq = rng.xavier(32, 16);
        let wk = rng.xavier(32, 16);
        let x = rng.normal_matrix(10, 32, 1.0);
        let target = x
            .matmul(&wq)
            .unwrap()
            .matmul_nt(&x.matmul(&wk).unwrap())
            .unwrap();
        let mut opt = Adam::new(0.02);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..150 {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let tv = g.constant(target.clone());
            let s_tilde = det.estimated_scores(&mut g, &params, xv);
            let loss = g.mse(s_tilde, tv);
            let v = g.value(loss)[(0, 0)];
            if step == 0 {
                first = v;
            }
            last = v;
            g.backward(loss);
            opt.step(&mut params, &g);
        }
        assert!(last < first * 0.5, "estimation loss {first} -> {last}");
    }
}
