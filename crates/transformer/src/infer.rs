use crate::TransformerParams;
use dota_autograd::ParamSet;
use dota_faults::FaultSite;
use dota_tensor::lanes::Lanes;
use dota_tensor::{ops, Matrix};
use std::fmt;

/// Typed errors from the guarded inference path ([`Model::try_infer`]).
///
/// [`Model::try_infer`]: crate::Model::try_infer
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The attention block's input went non-finite (NaN/Inf) at a layer.
    /// Dense fallback cannot absorb this — garbage operands poison every
    /// head — so inference stops with a typed error instead of propagating.
    NonFiniteInput {
        /// Layer whose input failed the finiteness guard.
        layer: usize,
    },
    /// The output logits contain NaN/Inf.
    NonFiniteLogits,
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::NonFiniteInput { layer } => {
                write!(f, "non-finite attention input at layer {layer}")
            }
            InferError::NonFiniteLogits => write!(f, "non-finite output logits"),
        }
    }
}

impl std::error::Error for InferError {}

/// Supplies sparse attention selections during inference.
///
/// The detector crate implements this with its quantized low-rank path; the
/// returned value is, per query row, the list of key indices to keep.
/// Returning `None` leaves the head dense.
///
/// Hooks must be [`Sync`]: with the `parallel` feature, [`Model::infer`]
/// evaluates the heads of a layer concurrently and calls `select` from
/// worker threads. Implementations must also be *order-independent* — the
/// selection for `(layer, head)` may only depend on its arguments (and
/// internal state keyed on them), never on the sequence of prior calls, so
/// that parallel and serial execution produce identical selections.
pub trait InferenceHook: Sync {
    /// Chooses the keys each query of `(layer, head)` may attend to, given
    /// the attention block's input sequence `x` (`n x d`).
    fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>>;
}

/// Dense inference: no selection.
impl InferenceHook for crate::NoHook {
    fn select(&self, _layer: usize, _head: usize, _x: &Matrix) -> Option<Vec<Vec<u32>>> {
        None
    }
}

/// Everything the accelerator simulator needs to replay one attention head:
/// its Q/K/V operands and the selected connection indices.
#[derive(Debug, Clone)]
pub struct HeadTrace {
    /// Per-query selected key indices (`None` = dense attention).
    pub selected: Option<Vec<Vec<u32>>>,
    /// Query matrix (`n x hd`).
    pub q: Matrix,
    /// Key matrix (`n x hd`).
    pub k: Matrix,
    /// Value matrix (`n x hd`).
    pub v: Matrix,
}

impl HeadTrace {
    /// Number of attended connections (kept query–key pairs).
    pub fn kept_connections(&self) -> u64 {
        match &self.selected {
            Some(sel) => sel.iter().map(|r| r.len() as u64).sum(),
            None => (self.q.rows() * self.k.rows()) as u64,
        }
    }
}

/// Trace of one encoder layer.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// One trace per attention head.
    pub heads: Vec<HeadTrace>,
}

/// Trace of a full inference forward pass.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// Per-layer traces.
    pub layers: Vec<LayerTrace>,
    /// Output logits (`1 x n_classes` pooled, or `n x n_classes` causal).
    pub logits: Matrix,
    /// Heads whose detector selection was degenerate (empty, out of range,
    /// wrong row count) and therefore computed **dense** attention instead
    /// of propagating garbage. Also recorded in the `faults.fallback_dense`
    /// counter when a fault/trace session is live.
    pub fallback_dense: u64,
}

impl ForwardTrace {
    /// Predicted class of a pooled classification output.
    ///
    /// # Panics
    ///
    /// Panics if the logits are not a single row.
    pub fn predicted_class(&self) -> usize {
        assert_eq!(self.logits.rows(), 1, "not a pooled classification output");
        ops::argmax_rows(&self.logits)[0]
    }

    /// Overall attention retention ratio across all layers and heads
    /// (kept connections / total possible connections).
    pub fn retention(&self) -> f64 {
        let mut kept = 0u64;
        let mut total = 0u64;
        for layer in &self.layers {
            for head in &layer.heads {
                kept += head.kept_connections();
                total += (head.q.rows() * head.k.rows()) as u64;
            }
        }
        if total == 0 {
            1.0
        } else {
            kept as f64 / total as f64
        }
    }
}

impl crate::Model {
    /// Pure-`f32` inference forward pass, recording a [`ForwardTrace`].
    ///
    /// Mirrors [`forward`](crate::Model::forward) exactly (the unit tests
    /// assert agreement with the autograd path) but without a tape, so it
    /// scales to longer sequences and is what the accuracy experiments and
    /// the accelerator simulator consume.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty, longer than `seq_len`, or out of
    /// vocabulary.
    pub fn infer(
        &self,
        params: &ParamSet,
        ids: &[usize],
        hook: &dyn InferenceHook,
    ) -> ForwardTrace {
        match self.infer_impl(params, ids, hook, false) {
            Ok(trace) => trace,
            // With the strict guards off the impl has no error source.
            Err(_) => unreachable!("unguarded inference cannot fail"),
        }
    }

    /// Guarded variant of [`infer`](crate::Model::infer): checks the
    /// attention block's input for NaN/Inf at every layer (and the output
    /// logits at the end) and surfaces a typed [`InferError`] instead of
    /// silently propagating garbage. Inside a [`dota_faults`] session the
    /// `attn.input` site can poison an input tile to exercise this path.
    ///
    /// Degenerate detector selections fall back to dense attention per
    /// head on **both** paths; the guards here cover what fallback cannot
    /// absorb.
    ///
    /// # Errors
    ///
    /// Returns [`InferError`] when a non-finite value is detected.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty, longer than `seq_len`, or out of
    /// vocabulary (precondition violations, as with `infer`).
    pub fn try_infer(
        &self,
        params: &ParamSet,
        ids: &[usize],
        hook: &dyn InferenceHook,
    ) -> Result<ForwardTrace, InferError> {
        self.infer_impl(params, ids, hook, true)
    }

    fn infer_impl(
        &self,
        params: &ParamSet,
        ids: &[usize],
        hook: &dyn InferenceHook,
        strict: bool,
    ) -> Result<ForwardTrace, InferError> {
        let _prof = dota_prof::span("model.infer");
        let cfg = self.config();
        let tp: &TransformerParams = self.params();
        let n = ids.len();
        assert!(
            n > 0 && n <= cfg.seq_len,
            "sequence length {n} out of range"
        );
        let hd = cfg.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();
        let lanes = Lanes::active();

        let tok_table = params.value(tp.token_embedding);
        let pos_table = params.value(tp.pos_embedding);
        let mut x = Matrix::zeros(n, cfg.d_model);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < cfg.vocab_size, "token id {id} out of vocabulary");
            for c in 0..cfg.d_model {
                x[(r, c)] = tok_table[(id, c)] + pos_table[(r, c)];
            }
        }

        let mut layers = Vec::with_capacity(cfg.n_layers);
        let mut fallback_dense = 0u64;
        // Q/K/V projections have the same shape at every layer: reuse one
        // output buffer per projection across the loop (`matmul_into`)
        // so the steady-state layer body allocates nothing for them.
        let mut q = Matrix::zeros(n, cfg.d_model);
        let mut k = Matrix::zeros(n, cfg.d_model);
        let mut v = Matrix::zeros(n, cfg.d_model);
        for (l, layer) in tp.layers.iter().enumerate() {
            if strict {
                if dota_faults::enabled()
                    && dota_faults::should_inject(FaultSite::AttnInput, &[l as u64])
                {
                    // Poison one element of the attention input tile.
                    x[(0, 0)] = f32::NAN;
                }
                if x.as_slice().iter().any(|v| !v.is_finite()) {
                    return Err(InferError::NonFiniteInput { layer: l });
                }
            }
            x.matmul_into(params.value(layer.wq), &mut q)
                .expect("shape");
            x.matmul_into(params.value(layer.wk), &mut k)
                .expect("shape");
            x.matmul_into(params.value(layer.wv), &mut v)
                .expect("shape");

            // Each head is independent given the shared Q/K/V projections:
            // the closure below computes one head's output and trace, and
            // with the `parallel` feature the heads of a layer fan out over
            // `dota_parallel::par_map` (order-preserving, so the trace and
            // the concatenation order match serial execution exactly).
            // GEMMs inside a head run serially on that worker — nested
            // dispatch is suppressed (`dota_parallel::in_worker`) so the
            // head fan-out and the GEMM pool never oversubscribe cores.
            let compute_head = |h: usize| -> (Matrix, HeadTrace, bool) {
                let _prof = dota_prof::span("attn.head");
                let (c0, c1) = (h * hd, (h + 1) * hd);
                let qh = q.slice_cols(c0, c1);
                let kh = k.slice_cols(c0, c1);
                let vh = v.slice_cols(c0, c1);

                // A degenerate selection (corrupted indices, saturated
                // detector, wrong shape) would poison the head or panic in
                // mask construction; this head falls back to full dense
                // attention instead, and the fallback is counted.
                let mut fell_back = false;
                let selected = match hook.select(l, h, &x) {
                    Some(sel) if selection_degenerate(&sel, n, cfg.causal) => {
                        fell_back = true;
                        dota_faults::record("faults.fallback_dense", 1);
                        dota_trace::count("faults.fallback_dense", 1);
                        None
                    }
                    other => other,
                };
                // Record the effective selection (after causal intersection).
                let effective = effective_selection(n, cfg.causal, selected);
                if dota_trace::enabled() {
                    let total = (n * n) as u64;
                    let kept = match &effective {
                        Some(sel) => sel.iter().map(|r| r.len() as u64).sum(),
                        None => total,
                    };
                    // Global and per-(layer, head) retained/omitted tallies;
                    // sums of u64 are order-independent, so serial and
                    // parallel head fan-out record identical totals.
                    dota_trace::count("attn.heads", 1);
                    dota_trace::count("attn.connections.total", total);
                    dota_trace::count("attn.connections.retained", kept);
                    dota_trace::count("attn.connections.omitted", total - kept);
                    dota_trace::count(&format!("attn.L{l}.H{h}.retained"), kept);
                    dota_trace::count(&format!("attn.L{l}.H{h}.omitted"), total - kept);
                }
                if dota_metrics::hist_enabled() {
                    // The sparse path never materializes the score matrix,
                    // so build it only while a histogram session is live.
                    let scores = qh.matmul_nt(&kh).expect("shape").scale(scale);
                    dota_metrics::observe_many(
                        &format!("attn.scores.L{l}.H{h}"),
                        scores.as_slice().iter().map(|&s| f64::from(s)),
                    );
                }
                // Sparse path: score only the kept connections (O(kept)
                // work, like the accelerator); dense path otherwise.
                let out = match &effective {
                    Some(sel) => ops::sparse_attention(&qh, &kh, &vh, sel, scale),
                    None => {
                        // Scale and softmax every row in the buffer the
                        // GEMM wrote: no further n x n copy.
                        let mut scores = qh.matmul_nt(&kh).expect("shape");
                        for r in 0..n {
                            let row = scores.row_mut(r);
                            row.iter_mut().for_each(|s| *s *= scale);
                            ops::softmax_slice(lanes, row);
                        }
                        scores.matmul(&vh).expect("shape")
                    }
                };
                (
                    out,
                    HeadTrace {
                        selected: effective,
                        q: qh,
                        k: kh,
                        v: vh,
                    },
                    fell_back,
                )
            };
            let head_indices: Vec<usize> = (0..cfg.n_heads).collect();
            #[cfg(feature = "parallel")]
            let results: Vec<(Matrix, HeadTrace, bool)> =
                dota_parallel::par_map(&head_indices, |_, &h| compute_head(h));
            #[cfg(not(feature = "parallel"))]
            let results: Vec<(Matrix, HeadTrace, bool)> =
                head_indices.iter().map(|&h| compute_head(h)).collect();

            let mut heads = Vec::with_capacity(cfg.n_heads);
            let mut outputs = Vec::with_capacity(cfg.n_heads);
            for (out, trace, fell_back) in results {
                outputs.push(out);
                heads.push(trace);
                fallback_dense += u64::from(fell_back);
            }
            let refs: Vec<&Matrix> = outputs.iter().collect();
            let concat = Matrix::hcat(&refs).expect("head widths agree");
            let z = concat.matmul(params.value(layer.wo)).expect("shape");

            let res1 = x.add(&z).expect("shape");
            let normed1 = ops::layer_norm(
                &res1,
                params.value(layer.ln1_gamma).row(0),
                params.value(layer.ln1_beta).row(0),
                1e-5,
            );

            let mut h1 = normed1.matmul(params.value(layer.w_ff1)).expect("shape");
            ops::add_bias_in_place(&mut h1, params.value(layer.b_ff1).row(0));
            ops::gelu_slice(lanes, h1.as_mut_slice());
            let mut h2 = h1.matmul(params.value(layer.w_ff2)).expect("shape");
            ops::add_bias_in_place(&mut h2, params.value(layer.b_ff2).row(0));

            let res2 = normed1.add(&h2).expect("shape");
            x = ops::layer_norm(
                &res2,
                params.value(layer.ln2_gamma).row(0),
                params.value(layer.ln2_beta).row(0),
                1e-5,
            );
            layers.push(LayerTrace { heads });
        }

        let wh = params.value(tp.w_head);
        let bh = params.value(tp.b_head);
        let logits = if cfg.causal {
            ops::add_bias(&x.matmul(wh).expect("shape"), bh.row(0))
        } else {
            let pooled = match cfg.pooling {
                crate::Pooling::Mean => {
                    let mut p = Matrix::zeros(1, cfg.d_model);
                    for r in 0..n {
                        for c in 0..cfg.d_model {
                            p[(0, c)] += x[(r, c)] / n as f32;
                        }
                    }
                    p
                }
                crate::Pooling::First => x.slice_rows(0, 1),
            };
            ops::add_bias(&pooled.matmul(wh).expect("shape"), bh.row(0))
        };
        if strict && logits.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(InferError::NonFiniteLogits);
        }
        Ok(ForwardTrace {
            layers,
            logits,
            fallback_dense,
        })
    }
}

/// Whether a hook selection is unusable for sparse attention: wrong row
/// count, an out-of-range key index, every row empty, or (non-causal) any
/// empty row — an empty non-causal row would softmax over nothing. The
/// causal mask repairs individual empty rows via the surviving diagonal, so
/// only an entirely empty selection is degenerate there.
fn selection_degenerate(sel: &[Vec<u32>], n: usize, causal: bool) -> bool {
    if sel.len() != n {
        return true;
    }
    if sel.iter().any(|row| row.iter().any(|&j| j as usize >= n)) {
        return true;
    }
    let empty_rows = sel.iter().filter(|r| r.is_empty()).count();
    if causal {
        empty_rows == n
    } else {
        empty_rows > 0
    }
}

/// The selection attention runs on, or `None` for dense: each row's kept
/// keys ascending and distinct, intersected with the causal constraint.
/// Matches `model::combine_masks` semantics (a causal row never empties:
/// the diagonal survives). Rows are rewritten in place; `selected` has
/// passed [`selection_degenerate`], so every index is below `n`.
fn effective_selection(
    n: usize,
    causal: bool,
    selected: Option<Vec<Vec<u32>>>,
) -> Option<Vec<Vec<u32>>> {
    let Some(mut sel) = selected else {
        return causal.then(|| (0..n as u32).map(|i| (0..=i).collect()).collect());
    };
    for (i, row) in sel.iter_mut().enumerate() {
        debug_assert!(row.iter().all(|&j| (j as usize) < n));
        if causal {
            row.retain(|&j| j as usize <= i);
        }
        row.sort_unstable();
        row.dedup();
        if causal && row.is_empty() {
            row.push(i as u32);
        }
    }
    Some(sel)
}

/// The dense boolean mask [`effective_selection`] used to be read back
/// from, kept as its oracle.
#[cfg(test)]
fn build_mask(n: usize, causal: bool, selected: Option<&[Vec<u32>]>) -> Option<Vec<Vec<bool>>> {
    match (causal, selected) {
        (false, None) => None,
        (false, Some(sel)) => Some(
            sel.iter()
                .map(|row| {
                    let mut mask = vec![false; n];
                    for &j in row {
                        mask[j as usize] = true;
                    }
                    mask
                })
                .collect(),
        ),
        (true, None) => Some((0..n).map(|i| (0..n).map(|j| j <= i).collect()).collect()),
        (true, Some(sel)) => Some(
            sel.iter()
                .enumerate()
                .map(|(i, row)| {
                    let mut mask = vec![false; n];
                    for &j in row {
                        if (j as usize) <= i {
                            mask[j as usize] = true;
                        }
                    }
                    if !mask.iter().any(|&b| b) {
                        mask[i] = true;
                    }
                    mask
                })
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, NoHook, TransformerConfig};
    use dota_autograd::Graph;

    fn tiny() -> (Model, ParamSet) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(16, 8, 3), &mut params, 5);
        (model, params)
    }

    #[test]
    fn infer_matches_train_forward() {
        let (model, params) = tiny();
        let ids = vec![1, 4, 2, 7, 3];
        let trace = model.infer(&params, &ids, &NoHook);
        let mut g = Graph::new();
        let out = model.forward(&mut g, &params, &ids, &mut NoHook);
        assert!(
            trace.logits.approx_eq(g.value(out.logits), 1e-4),
            "inference and training paths disagree: {:?} vs {:?}",
            trace.logits,
            g.value(out.logits)
        );
    }

    #[test]
    fn causal_infer_matches_train_forward() {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny_causal(16, 8), &mut params, 6);
        let ids = vec![1, 4, 2, 7];
        let trace = model.infer(&params, &ids, &NoHook);
        let mut g = Graph::new();
        let out = model.forward(&mut g, &params, &ids, &mut NoHook);
        assert!(trace.logits.approx_eq(g.value(out.logits), 1e-4));
    }

    #[test]
    fn trace_shapes_and_retention() {
        let (model, params) = tiny();
        let ids = vec![1, 2, 3, 4, 5, 6];
        let trace = model.infer(&params, &ids, &NoHook);
        assert_eq!(trace.layers.len(), 2);
        assert_eq!(trace.layers[0].heads.len(), 2);
        let head = &trace.layers[0].heads[0];
        assert_eq!(head.q.shape(), (6, 16));
        assert!(head.selected.is_none());
        assert_eq!(trace.retention(), 1.0);
        let _ = trace.predicted_class();
    }

    #[test]
    fn sparse_hook_reduces_retention() {
        struct KeepTwo;
        impl InferenceHook for KeepTwo {
            fn select(&self, _l: usize, _h: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
                Some((0..x.rows()).map(|_| vec![0, 1]).collect())
            }
        }
        let (model, params) = tiny();
        let ids = vec![0, 1, 2, 3, 4, 5, 6, 7];
        let trace = model.infer(&params, &ids, &KeepTwo);
        assert!((trace.retention() - 0.25).abs() < 1e-9);
        for layer in &trace.layers {
            for head in &layer.heads {
                assert_eq!(head.kept_connections(), 16);
            }
        }
    }

    #[test]
    fn causal_trace_selection_respects_triangle() {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny_causal(16, 8), &mut params, 6);
        let trace = model.infer(&params, &[1, 2, 3, 4, 5], &NoHook);
        let sel = trace.layers[0].heads[0].selected.as_ref().unwrap();
        for (i, row) in sel.iter().enumerate() {
            assert!(row.iter().all(|&j| (j as usize) <= i));
            assert_eq!(row.len(), i + 1);
        }
    }

    #[test]
    fn degenerate_selection_falls_back_to_dense() {
        // Out-of-range key indices (as a corrupted detector would emit)
        // must not panic or poison the head: the head computes dense
        // attention and the fallback is visible on the trace.
        struct OutOfRange;
        impl InferenceHook for OutOfRange {
            fn select(&self, _l: usize, _h: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
                let n = x.rows();
                Some((0..n).map(|i| vec![(i + n) as u32]).collect())
            }
        }
        struct AllEmpty;
        impl InferenceHook for AllEmpty {
            fn select(&self, _l: usize, _h: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
                Some(vec![Vec::new(); x.rows()])
            }
        }
        let (model, params) = tiny();
        let ids = vec![1, 2, 3, 4, 5];
        let dense = model.infer(&params, &ids, &NoHook);
        assert_eq!(dense.fallback_dense, 0);
        for hook in [&OutOfRange as &dyn InferenceHook, &AllEmpty] {
            let trace = model.infer(&params, &ids, hook);
            assert_eq!(trace.fallback_dense, 4, "2 layers x 2 heads all fell back");
            assert_eq!(trace.retention(), 1.0);
            assert_eq!(trace.logits, dense.logits, "fallback must equal dense");
        }
    }

    #[test]
    fn wrong_row_count_selection_falls_back() {
        struct ShortSelection;
        impl InferenceHook for ShortSelection {
            fn select(&self, _l: usize, _h: usize, _x: &Matrix) -> Option<Vec<Vec<u32>>> {
                Some(vec![vec![0u32]]) // one row regardless of n
            }
        }
        let (model, params) = tiny();
        let trace = model.infer(&params, &[1, 2, 3, 4], &ShortSelection);
        assert_eq!(trace.fallback_dense, 4);
        assert_eq!(trace.retention(), 1.0);
    }

    #[test]
    fn try_infer_matches_infer_when_clean() {
        let (model, params) = tiny();
        let ids = vec![1, 4, 2, 7, 3];
        let a = model.infer(&params, &ids, &NoHook);
        let b = model.try_infer(&params, &ids, &NoHook).unwrap();
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.fallback_dense, b.fallback_dense);
    }

    #[test]
    fn try_infer_reports_non_finite_input() {
        let (model, mut params) = tiny();
        // Corrupt a weight so layer 0's input is fine but its output (the
        // next layer's input) goes non-finite.
        let wq0 = {
            let tp = model.params();
            tp.layers[0].w_ff2
        };
        params.value_mut(wq0)[(0, 0)] = f32::NAN;
        let err = model.try_infer(&params, &[1, 2, 3], &NoHook).unwrap_err();
        assert!(
            matches!(
                err,
                InferError::NonFiniteInput { .. } | InferError::NonFiniteLogits
            ),
            "{err}"
        );
    }

    #[test]
    fn attn_input_fault_surfaces_typed_error() {
        use dota_faults::{FaultPlan, FaultSite};
        let (model, params) = tiny();
        let ids = vec![1, 2, 3, 4];
        let guard = dota_faults::session(FaultPlan::new(2).with_rate(FaultSite::AttnInput, 1.0));
        let err = model.try_infer(&params, &ids, &NoHook).unwrap_err();
        assert_eq!(err, InferError::NonFiniteInput { layer: 0 });
        assert_eq!(guard.counter("faults.attn.input.injected"), 1);
        drop(guard);
        // Unguarded inference is untouched by the site even mid-session.
        let guard = dota_faults::session(FaultPlan::new(2).with_rate(FaultSite::AttnInput, 1.0));
        let trace = model.infer(&params, &ids, &NoHook);
        assert!(trace.logits.as_slice().iter().all(|v| v.is_finite()));
        drop(guard);
    }

    proptest::proptest! {
        /// Unsorted rows with repeated keys, empty rows and keys beyond the
        /// causal triangle: the direct construction lists exactly the
        /// `true` positions of the mask, in order.
        #[test]
        fn effective_selection_matches_mask_oracle(
            n in 1usize..24,
            causal in 0usize..2,
            hooked in 0usize..4,
            picks in proptest::collection::vec(
                proptest::collection::vec(0usize..1000, 0..40),
                24..25,
            ),
        ) {
            let causal = causal == 1;
            let selected: Option<Vec<Vec<u32>>> = (hooked != 0).then(|| {
                picks[..n]
                    .iter()
                    .map(|row| row.iter().map(|&p| (p % n) as u32).collect())
                    .collect()
            });
            let from_mask = build_mask(n, causal, selected.as_deref()).map(|m| {
                m.iter()
                    .map(|row| (0..n as u32).filter(|&j| row[j as usize]).collect::<Vec<u32>>())
                    .collect::<Vec<_>>()
            });
            proptest::prop_assert_eq!(effective_selection(n, causal, selected), from_mask);
        }
    }

    #[test]
    fn build_mask_causal_selection_keeps_diagonal() {
        let sel = vec![vec![3u32], vec![2, 3]]; // all future for rows 0 and 1
        let m = build_mask(4, true, Some(&sel)).unwrap();
        assert!(m[0][0], "row 0 fell back to diagonal");
        assert!(!m[0][3]);
        assert!(m[1][1], "row 1 fell back to diagonal");
    }
}
