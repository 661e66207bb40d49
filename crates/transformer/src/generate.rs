//! Autoregressive generation with a key/value cache (paper §4.4).
//!
//! Decoding processes tokens strictly sequentially: each new token computes
//! one query row, attends over all *cached* keys/values, and appends its own
//! K/V to the cache. This module implements that loop functionally — it is
//! the software twin of the accelerator's decoder mode, and the unit tests
//! pin it against the batch [`infer`](crate::Model::infer) path (the same
//! prompt must produce identical logits).

use crate::{Model, TransformerParams};
use dota_autograd::ParamSet;
use dota_tensor::{ops, Matrix};

/// Per-layer cached keys and values for incremental decoding.
#[derive(Debug, Clone)]
pub struct KvCache {
    /// Per layer: the `t x d_model` key matrix accumulated so far.
    keys: Vec<Matrix>,
    /// Per layer: the `t x d_model` value matrix accumulated so far.
    values: Vec<Matrix>,
}

impl KvCache {
    /// An empty cache for a model with `n_layers` layers and width `d`.
    pub fn new(n_layers: usize, d: usize) -> Self {
        Self {
            keys: (0..n_layers).map(|_| Matrix::zeros(0, d)).collect(),
            values: (0..n_layers).map(|_| Matrix::zeros(0, d)).collect(),
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.keys.first().map_or(0, Matrix::rows)
    }

    /// `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The accumulated `t x d_model` key matrix of `layer` (tests pin its
    /// rows bitwise against the batch path's per-head key traces).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn keys(&self, layer: usize) -> &Matrix {
        &self.keys[layer]
    }

    /// The accumulated `t x d_model` value matrix of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn values(&self, layer: usize) -> &Matrix {
        &self.values[layer]
    }

    /// Appends one position to `layer`, in place (amortized O(d): the
    /// storage doubles, it is never re-concatenated).
    fn append(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]) {
        self.keys[layer].push_row(k_row);
        self.values[layer].push_row(v_row);
    }
}

/// Selects which cached positions a decode step may attend to.
///
/// The DOTA detector restricts each step's attention to the strongest
/// `retention · t` cached entries; dense decoding attends to everything.
pub trait DecodeSelector {
    /// Keys (cache positions `0..t`) the current step of `(layer, head)`
    /// may attend to, given the step's input row `x` (`1 x d`). `None`
    /// means attend to all.
    fn select(&self, layer: usize, head: usize, x: &Matrix, cache_len: usize) -> Option<Vec<u32>>;
}

/// Dense decoding: attend to the full cache.
#[derive(Debug, Default, Clone, Copy)]
pub struct DenseDecode;

impl DecodeSelector for DenseDecode {
    fn select(&self, _l: usize, _h: usize, _x: &Matrix, _len: usize) -> Option<Vec<u32>> {
        None
    }
}

/// Result of a generation run.
#[derive(Debug, Clone)]
pub struct Generation {
    /// The generated token ids (excluding the prompt).
    pub tokens: Vec<usize>,
    /// Cached K/V connections attended per generated token (for the
    /// memory-traffic analysis).
    pub attended_per_token: Vec<u64>,
}

impl Model {
    /// Runs one token through the decoder incrementally, returning its
    /// output logits row and appending its K/V to the cache.
    ///
    /// # Panics
    ///
    /// Panics if the model is not causal, the token is out of vocabulary,
    /// or the cache already holds `seq_len` positions.
    pub fn decode_step(
        &self,
        params: &ParamSet,
        cache: &mut KvCache,
        token: usize,
        selector: &dyn DecodeSelector,
    ) -> (Matrix, u64) {
        let _prof = dota_prof::span("model.decode_step");
        let cfg = self.config();
        assert!(cfg.causal, "decode_step requires a causal model");
        assert!(token < cfg.vocab_size, "token {token} out of vocabulary");
        let pos = cache.len();
        assert!(pos < cfg.seq_len, "cache full ({} positions)", cfg.seq_len);
        let tp: &TransformerParams = self.params();
        let d = cfg.d_model;
        let hd = cfg.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();

        let tok_table = params.value(tp.token_embedding);
        let pos_table = params.value(tp.pos_embedding);
        let mut x = Matrix::from_fn(1, d, |_, c| tok_table[(token, c)] + pos_table[(pos, c)]);

        let t = pos + 1;
        let mut attended = 0u64;
        // The one buffer of the step whose size follows the cache length.
        let mut sel: Vec<u32> = Vec::with_capacity(t);
        for (l, layer) in tp.layers.iter().enumerate() {
            let q = x.matmul(params.value(layer.wq)).expect("shape");
            let k_new = x.matmul(params.value(layer.wk)).expect("shape");
            let v_new = x.matmul(params.value(layer.wv)).expect("shape");
            cache.append(l, k_new.row(0), v_new.row(0));
            let (k_all, v_all) = (&cache.keys[l], &cache.values[l]);

            let mut heads = Matrix::zeros(1, d);
            for h in 0..cfg.n_heads {
                let c0 = h * hd;
                sel.clear();
                match selector.select(l, h, &x, t) {
                    None => sel.extend(0..t as u32),
                    // The current position (t-1) is always attendable; the
                    // selector filters the older cache. Ascending order is
                    // what keeps the output bits those of dense-then-mask.
                    Some(keep) => {
                        sel.extend(keep.into_iter().filter(|&j| (j as usize) < t));
                        sel.push(pos as u32);
                        sel.sort_unstable();
                        sel.dedup();
                    }
                }
                attended += sel.len() as u64;
                ops::attend_row(
                    &q.row(0)[c0..c0 + hd],
                    k_all,
                    v_all,
                    c0,
                    &sel,
                    scale,
                    &mut heads.row_mut(0)[c0..c0 + hd],
                );
            }
            let z = heads.matmul(params.value(layer.wo)).expect("shape");
            let res1 = x.add(&z).expect("shape");
            let normed1 = ops::layer_norm(
                &res1,
                params.value(layer.ln1_gamma).row(0),
                params.value(layer.ln1_beta).row(0),
                1e-5,
            );
            let h1 = ops::add_bias(
                &normed1.matmul(params.value(layer.w_ff1)).expect("shape"),
                params.value(layer.b_ff1).row(0),
            );
            let h2 = ops::add_bias(
                &ops::gelu(&h1)
                    .matmul(params.value(layer.w_ff2))
                    .expect("shape"),
                params.value(layer.b_ff2).row(0),
            );
            let res2 = normed1.add(&h2).expect("shape");
            x = ops::layer_norm(
                &res2,
                params.value(layer.ln2_gamma).row(0),
                params.value(layer.ln2_beta).row(0),
                1e-5,
            );
        }
        let logits = ops::add_bias(
            &x.matmul(params.value(tp.w_head)).expect("shape"),
            params.value(tp.b_head).row(0),
        );
        (logits, attended)
    }

    /// Greedy generation: feeds `prompt`, then samples `n_new` tokens by
    /// argmax, attending through `selector`.
    ///
    /// # Panics
    ///
    /// Panics if the model is not causal, the prompt is empty, or
    /// `prompt.len() + n_new` exceeds `seq_len`.
    pub fn generate(
        &self,
        params: &ParamSet,
        prompt: &[usize],
        n_new: usize,
        selector: &dyn DecodeSelector,
    ) -> Generation {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(
            prompt.len() + n_new <= self.config().seq_len,
            "generation exceeds seq_len"
        );
        let mut cache = KvCache::new(self.config().n_layers, self.config().d_model);
        let mut last_logits = Matrix::zeros(1, self.config().n_classes);
        for &t in prompt {
            let (logits, _) = self.decode_step(params, &mut cache, t, selector);
            last_logits = logits;
        }
        let mut tokens = Vec::with_capacity(n_new);
        let mut attended_per_token = Vec::with_capacity(n_new);
        for _ in 0..n_new {
            let next = ops::argmax_rows(&last_logits)[0];
            let (logits, attended) = self.decode_step(params, &mut cache, next, selector);
            tokens.push(next);
            attended_per_token.push(attended);
            last_logits = logits;
        }
        Generation {
            tokens,
            attended_per_token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoHook, TransformerConfig};

    fn causal_model() -> (Model, ParamSet) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny_causal(16, 8), &mut params, 17);
        (model, params)
    }

    #[test]
    fn incremental_decode_matches_batch_inference() {
        let (model, params) = causal_model();
        let ids = vec![1usize, 4, 2, 7, 3];
        // Batch path.
        let trace = model.infer(&params, &ids, &NoHook);
        // Incremental path.
        let mut cache = KvCache::new(model.config().n_layers, model.config().d_model);
        let mut last = Matrix::zeros(1, 8);
        for &t in &ids {
            let (logits, attended) = model.decode_step(&params, &mut cache, t, &DenseDecode);
            assert_eq!(
                attended as usize,
                cache.len() * model.config().n_layers * model.config().n_heads
            );
            last = logits;
        }
        // The final step's logits must equal the batch path's final row
        // **bitwise**: every op involved (GEMM with fixed ascending-k
        // accumulation, row-wise softmax/layer-norm/GELU) is independent
        // of how many rows share the matrix, so incremental decode is the
        // same arithmetic as full recompute, not merely close to it.
        let batch_final = trace.logits.slice_rows(ids.len() - 1, ids.len());
        assert!(
            last == batch_final,
            "incremental {last:?} vs batch {batch_final:?}"
        );
    }

    /// Backfilling the KV cache token by token reproduces the batch
    /// path's per-head key/value traces **bitwise**: each K/V row is one
    /// `1 x d` GEMM whose per-element accumulation order is fixed
    /// (ascending k, shape-independent), so incremental append and
    /// full-prompt recompute must agree to the last bit. This is what
    /// makes a served request's cache state independent of how its prompt
    /// was chunked across scheduler steps.
    #[test]
    fn kv_cache_backfill_matches_batch_trace_bitwise() {
        let (model, params) = causal_model();
        let ids = vec![1usize, 4, 2, 7, 3, 5];
        let trace = model.infer(&params, &ids, &NoHook);
        let cfg = model.config();
        let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
        for &t in &ids {
            let _ = model.decode_step(&params, &mut cache, t, &DenseDecode);
        }
        let hd = cfg.head_dim();
        for (l, layer) in trace.layers.iter().enumerate() {
            assert_eq!(cache.keys(l).rows(), ids.len());
            assert_eq!(cache.values(l).rows(), ids.len());
            for (h, head) in layer.heads.iter().enumerate() {
                let (c0, c1) = (h * hd, (h + 1) * hd);
                assert!(
                    cache.keys(l).slice_cols(c0, c1) == head.k,
                    "layer {l} head {h}: cached keys differ from batch trace"
                );
                assert!(
                    cache.values(l).slice_cols(c0, c1) == head.v,
                    "layer {l} head {h}: cached values differ from batch trace"
                );
            }
        }
    }

    /// A cache built by decoding a prompt prefix then continuing with the
    /// remaining tokens holds exactly the same bits as one built in a
    /// single pass — append order is all that matters, not call grouping.
    #[test]
    fn kv_cache_append_is_chunking_invariant() {
        let (model, params) = causal_model();
        let ids = [3usize, 1, 6, 2, 4];
        let cfg = model.config();
        let mut one_pass = KvCache::new(cfg.n_layers, cfg.d_model);
        for &t in &ids {
            let _ = model.decode_step(&params, &mut one_pass, t, &DenseDecode);
        }
        for split in 1..ids.len() {
            let mut chunked = KvCache::new(cfg.n_layers, cfg.d_model);
            for &t in &ids[..split] {
                let _ = model.decode_step(&params, &mut chunked, t, &DenseDecode);
            }
            for &t in &ids[split..] {
                let _ = model.decode_step(&params, &mut chunked, t, &DenseDecode);
            }
            for l in 0..cfg.n_layers {
                assert!(
                    chunked.keys(l) == one_pass.keys(l),
                    "split {split}, layer {l}"
                );
                assert!(
                    chunked.values(l) == one_pass.values(l),
                    "split {split}, layer {l}"
                );
            }
        }
    }

    #[test]
    fn cache_grows_one_row_per_step() {
        let (model, params) = causal_model();
        let mut cache = KvCache::new(model.config().n_layers, model.config().d_model);
        assert!(cache.is_empty());
        for (i, &t) in [1usize, 2, 3].iter().enumerate() {
            let _ = model.decode_step(&params, &mut cache, t, &DenseDecode);
            assert_eq!(cache.len(), i + 1);
        }
    }

    #[test]
    fn generation_is_deterministic_and_in_vocab() {
        let (model, params) = causal_model();
        let g1 = model.generate(&params, &[1, 2, 3], 5, &DenseDecode);
        let g2 = model.generate(&params, &[1, 2, 3], 5, &DenseDecode);
        assert_eq!(g1.tokens, g2.tokens);
        assert_eq!(g1.tokens.len(), 5);
        assert!(g1.tokens.iter().all(|&t| t < 8));
    }

    #[test]
    fn sparse_selector_reduces_attended_connections() {
        struct KeepLastTwo;
        impl DecodeSelector for KeepLastTwo {
            fn select(&self, _l: usize, _h: usize, _x: &Matrix, len: usize) -> Option<Vec<u32>> {
                Some(((len.saturating_sub(2))..len).map(|i| i as u32).collect())
            }
        }
        let (model, params) = causal_model();
        let dense = model.generate(&params, &[1, 2, 3, 4, 5], 4, &DenseDecode);
        let sparse = model.generate(&params, &[1, 2, 3, 4, 5], 4, &KeepLastTwo);
        let dense_total: u64 = dense.attended_per_token.iter().sum();
        let sparse_total: u64 = sparse.attended_per_token.iter().sum();
        assert!(sparse_total < dense_total);
    }

    #[test]
    #[should_panic(expected = "cache full")]
    fn cache_capacity_enforced() {
        let (model, params) = causal_model();
        let mut cache = KvCache::new(model.config().n_layers, model.config().d_model);
        for t in 0..17 {
            let _ = model.decode_step(&params, &mut cache, t % 8, &DenseDecode);
        }
    }

    #[test]
    #[should_panic(expected = "requires a causal model")]
    fn encoder_cannot_decode() {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny(16, 8, 2), &mut params, 1);
        let mut cache = KvCache::new(2, 32);
        let _ = model.decode_step(&params, &mut cache, 1, &DenseDecode);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::{Model, NoHook, TransformerConfig};
    use dota_tensor::rng::SeededRng;
    use proptest::prelude::*;

    /// The dense-then-mask decode step [`Model::decode_step`] replaced,
    /// kept verbatim as its oracle: re-concatenate the cache, copy out each
    /// head, score every cached position, mask, softmax, multiply.
    fn decode_step_reference(
        model: &Model,
        params: &ParamSet,
        cache: &mut KvCache,
        token: usize,
        selector: &dyn DecodeSelector,
    ) -> (Matrix, u64) {
        let cfg = model.config();
        let pos = cache.len();
        let tp: &TransformerParams = model.params();
        let d = cfg.d_model;
        let hd = cfg.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();

        let tok_table = params.value(tp.token_embedding);
        let pos_table = params.value(tp.pos_embedding);
        let mut x = Matrix::from_fn(1, d, |_, c| tok_table[(token, c)] + pos_table[(pos, c)]);

        let mut attended = 0u64;
        for (l, layer) in tp.layers.iter().enumerate() {
            let q = x.matmul(params.value(layer.wq)).expect("shape");
            let k_new = x.matmul(params.value(layer.wk)).expect("shape");
            let v_new = x.matmul(params.value(layer.wv)).expect("shape");
            cache.keys[l] = Matrix::vcat(&[&cache.keys[l], &k_new]).expect("cache width fixed");
            cache.values[l] = Matrix::vcat(&[&cache.values[l], &v_new]).expect("cache width fixed");
            let k_all = &cache.keys[l];
            let v_all = &cache.values[l];
            let t = k_all.rows();

            let mut head_outs = Vec::with_capacity(cfg.n_heads);
            for h in 0..cfg.n_heads {
                let (c0, c1) = (h * hd, (h + 1) * hd);
                let qh = q.slice_cols(c0, c1);
                let kh = k_all.slice_cols(c0, c1);
                let vh = v_all.slice_cols(c0, c1);
                let scores = qh.matmul_nt(&kh).expect("shape").scale(scale);
                let selected = selector.select(l, h, &x, t);
                let mask = match selected {
                    None => vec![vec![true; t]],
                    Some(keep) => {
                        let mut m = vec![false; t];
                        for &j in &keep {
                            if (j as usize) < t {
                                m[j as usize] = true;
                            }
                        }
                        m[t - 1] = true;
                        vec![m]
                    }
                };
                attended += mask[0].iter().filter(|&&b| b).count() as u64;
                let attn = ops::masked_softmax_rows(&scores, &mask);
                head_outs.push(attn.matmul(&vh).expect("shape"));
            }
            let refs: Vec<&Matrix> = head_outs.iter().collect();
            let z = Matrix::hcat(&refs)
                .expect("heads")
                .matmul(params.value(layer.wo))
                .expect("shape");
            let res1 = x.add(&z).expect("shape");
            let normed1 = ops::layer_norm(
                &res1,
                params.value(layer.ln1_gamma).row(0),
                params.value(layer.ln1_beta).row(0),
                1e-5,
            );
            let h1 = ops::add_bias(
                &normed1.matmul(params.value(layer.w_ff1)).expect("shape"),
                params.value(layer.b_ff1).row(0),
            );
            let h2 = ops::add_bias(
                &ops::gelu(&h1)
                    .matmul(params.value(layer.w_ff2))
                    .expect("shape"),
                params.value(layer.b_ff2).row(0),
            );
            let res2 = normed1.add(&h2).expect("shape");
            x = ops::layer_norm(
                &res2,
                params.value(layer.ln2_gamma).row(0),
                params.value(layer.ln2_beta).row(0),
                1e-5,
            );
        }
        let logits = ops::add_bias(
            &x.matmul(params.value(tp.w_head)).expect("shape"),
            params.value(tp.b_head).row(0),
        );
        (logits, attended)
    }

    /// A selector that answers as badly as the trait allows: a pure
    /// function of `(layer, head, cache_len)` (both decode paths must get
    /// the same answer) returning, by turns, `None`, an empty keep-list,
    /// and lists that are unsorted, repeat entries, and reach past the
    /// cache — at a retention that differs per layer, head and step.
    struct AdversarialSelector(u64);

    impl DecodeSelector for AdversarialSelector {
        fn select(&self, l: usize, h: usize, _x: &Matrix, len: usize) -> Option<Vec<u32>> {
            let mut rng =
                SeededRng::new(self.0 ^ ((l as u64) << 40) ^ ((h as u64) << 20) ^ len as u64);
            match rng.below(5) {
                0 => None,
                1 => Some(Vec::new()),
                _ => {
                    let n = rng.below(2 * len + 1);
                    Some((0..n).map(|_| rng.below(len + 3) as u32).collect())
                }
            }
        }
    }

    /// Keeps the most recent `ceil(r * len)` positions (what
    /// `dota_serve::WindowSelector` does); `r = 1.0` keeps all of them.
    struct Window(f64);

    impl DecodeSelector for Window {
        fn select(&self, _l: usize, _h: usize, _x: &Matrix, len: usize) -> Option<Vec<u32>> {
            let keep = ((self.0 * len as f64).ceil() as usize).clamp(1, len);
            Some(((len - keep) as u32..len as u32).collect())
        }
    }

    /// Decodes `ids` through [`Model::decode_step`] and the reference side
    /// by side under each selector, asserting logits bitwise equal, attended
    /// counts equal and caches equal at every step.
    fn assert_decode_matches_reference(cfg: TransformerConfig, ids: &[usize], seed: u64) {
        let mut params = ParamSet::new();
        let model = Model::init(cfg, &mut params, seed);
        let cfg = model.config();
        let selectors: [&dyn DecodeSelector; 4] = [
            &DenseDecode,
            &Window(1.0),
            &Window(0.3),
            &AdversarialSelector(seed),
        ];
        for (s, &selector) in selectors.iter().enumerate() {
            let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
            let mut oracle = cache.clone();
            for (step, &t) in ids.iter().enumerate() {
                let (logits, attended) = model.decode_step(&params, &mut cache, t, selector);
                let (want, want_attended) =
                    decode_step_reference(&model, &params, &mut oracle, t, selector);
                assert!(logits == want, "selector {s}, step {step}: logits differ");
                assert_eq!(attended, want_attended, "selector {s}, step {step}");
                for l in 0..cfg.n_layers {
                    assert!(cache.keys(l) == oracle.keys(l), "selector {s}, step {step}");
                    assert!(
                        cache.values(l) == oracle.values(l),
                        "selector {s}, step {step}"
                    );
                }
            }
        }
    }

    /// Past 128 positions at head width 32 the reference's `q·Kᵀ` and
    /// `attn·V` are big enough for the packed SIMD driver, whose bits the
    /// gathered path has to reproduce just the same.
    #[test]
    fn decode_step_matches_reference_at_packed_kernel_sizes() {
        let cfg = TransformerConfig {
            d_model: 64,
            n_layers: 1,
            ..TransformerConfig::tiny_causal(160, 8)
        };
        let ids: Vec<usize> = (0..160).map(|i| (i * 5 + i / 7) % 8).collect();
        assert_decode_matches_reference(cfg, &ids, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Incremental decoding equals batch inference on the final
        /// position **bitwise** for arbitrary prompts, and a window over
        /// everything is dense decode.
        #[test]
        fn decode_matches_batch_on_random_prompts(
            ids in proptest::collection::vec(0usize..8, 1..12),
            seed in 0u64..4,
        ) {
            let mut params = dota_autograd::ParamSet::new();
            let model = Model::init(TransformerConfig::tiny_causal(12, 8), &mut params, seed);
            let run = |selector: &dyn DecodeSelector| {
                let mut cache = KvCache::new(model.config().n_layers, model.config().d_model);
                let mut last = Matrix::zeros(1, 8);
                for &t in &ids {
                    last = model.decode_step(&params, &mut cache, t, selector).0;
                }
                last
            };
            let dense = run(&DenseDecode);
            prop_assert!(run(&Window(1.0)) == dense);
            let batch = model.infer(&params, &ids, &NoHook);
            prop_assert!(dense == batch.logits.slice_rows(ids.len() - 1, ids.len()));
        }

        /// Gather-then-score is dense-then-mask to the last bit under
        /// every selector, on arbitrary prompts and weights.
        #[test]
        fn decode_step_is_bitwise_the_dense_then_mask_reference(
            ids in proptest::collection::vec(0usize..8, 1..20),
            seed in 0u64..1000,
        ) {
            assert_decode_matches_reference(TransformerConfig::tiny_causal(20, 8), &ids, seed);
        }
    }
}
