//! Autoregressive generation with a key/value cache (paper §4.4).
//!
//! Decoding processes tokens strictly sequentially: each new token computes
//! one query row, attends over all *cached* keys/values, and appends its own
//! K/V to the cache. This module implements that loop functionally — it is
//! the software twin of the accelerator's decoder mode, and the unit tests
//! pin it against the batch [`infer`](crate::Model::infer) path (the same
//! prompt must produce identical logits). There is one forward,
//! [`Model::decode_rows_in`]: positions whose inputs are already known (a
//! prompt block, the next token of several sequences) share one activation
//! matrix, and with it one stream of every weight, as the accelerator's
//! decoder mode shares it across a batch; a single step is its one-row
//! case. Like the decoder mode's fixed on-chip buffers, its buffers are
//! held across steps, in a caller's [`DecodeScratch`].

use crate::{Model, TransformerParams};
use dota_autograd::ParamSet;
use dota_tensor::lanes::Lanes;
use dota_tensor::{ops, Matrix};
use std::ops::Range;

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
        Self::with_capacity(n_layers, d, 0)
    }

    /// An empty cache with room for `positions` positions: appending up to
    /// that many never reallocates. A caller that knows how long the
    /// sequence can grow (a served request: prompt plus `max_new`) sizes
    /// it once here instead of letting every matrix double its way there.
    pub fn with_capacity(n_layers: usize, d: usize, positions: usize) -> Self {
        let empty = || Matrix::with_row_capacity(positions, d);
        Self {
            keys: (0..n_layers).map(|_| empty()).collect(),
            values: (0..n_layers).map(|_| empty()).collect(),
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

    /// Positions the cache holds before an append must reallocate (its
    /// smallest matrix's row capacity; 0 for a layer-less cache).
    pub fn capacity(&self) -> usize {
        self.keys
            .iter()
            .chain(&self.values)
            .map(Matrix::row_capacity)
            .min()
            .unwrap_or(0)
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

    /// Appends one position to `layer`, in place: within
    /// [`capacity`](Self::capacity) nothing is allocated, past it the
    /// storage doubles (it is never re-concatenated).
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
    /// Keys (cache positions `0..cache_len`) the position `cache_len - 1`
    /// may attend to in `(layer, head)`, given that position's input row
    /// `x` (`1 x d`). `None` means attend to all.
    ///
    /// Asked exactly once per `(layer, head, position)` — through
    /// [`select_into`](Self::select_into), which calls this unless a
    /// selector overrides it; per `(layer, head)`, positions arrive in
    /// ascending order — one position through all layers
    /// ([`Model::decode_step`]) or a block of positions layer by layer
    /// ([`Model::decode_rows`]) — which is all a selector that keeps
    /// per-position state may rely on.
    fn select(&self, layer: usize, head: usize, x: &Matrix, cache_len: usize) -> Option<Vec<u32>>;

    /// [`select`](Self::select) without a `Vec` of its own: appends the
    /// kept positions to `out` and returns `true`, or returns `false` for
    /// "attend to all" (anything appended is then ignored). This is what
    /// the forward asks; the selectors of this workspace answer here and
    /// make `select` the wrapper, so a decode step allocates nothing for
    /// them.
    fn select_into(
        &self,
        layer: usize,
        head: usize,
        x: &Matrix,
        cache_len: usize,
        out: &mut Vec<u32>,
    ) -> bool {
        match self.select(layer, head, x, cache_len) {
            Some(keep) => {
                out.extend(keep);
                true
            }
            None => false,
        }
    }
}

/// Dense decoding: attend to the full cache.
#[derive(Debug, Default, Clone, Copy)]
pub struct DenseDecode;

impl DecodeSelector for DenseDecode {
    fn select(&self, l: usize, h: usize, x: &Matrix, len: usize) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        self.select_into(l, h, x, len, &mut out).then_some(out)
    }

    fn select_into(
        &self,
        _l: usize,
        _h: usize,
        _x: &Matrix,
        _len: usize,
        _out: &mut Vec<u32>,
    ) -> bool {
        false
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

/// One sequence's share of a [`Model::decode_rows`] call: its next
/// `tokens.len()` consecutive positions, continuing the sequence `cache`
/// holds.
pub struct DecodeItem<'a> {
    /// The sequence so far; gains one K/V row per token and layer.
    pub cache: &'a mut KvCache,
    /// Inputs of the positions `cache.len()..cache.len() + tokens.len()`.
    pub tokens: &'a [usize],
    /// Asked once per `(layer, position, head)`: per `(layer, head)`,
    /// positions in ascending order.
    pub selector: &'a dyn DecodeSelector,
}

/// Output of [`Model::decode_rows`].
#[derive(Debug, Clone)]
pub struct DecodedRows {
    /// Row `i`: the logits of item `i`'s **last** position.
    pub logits: Matrix,
    /// Cached K/V connections each decoded position attended, items in
    /// call order, positions ascending within an item.
    pub attended: Vec<u64>,
}

/// Output of [`Model::decode_rows_in`]: [`DecodedRows`], borrowed from the
/// arena the forward ran in (valid until its next call).
#[derive(Debug, Clone, Copy)]
pub struct DecodedView<'a> {
    /// Row `i`: the logits of item `i`'s **last** position.
    pub logits: &'a Matrix,
    /// Cached K/V connections each decoded position attended, items in
    /// call order, positions ascending within an item.
    pub attended: &'a [u64],
}

/// Every buffer of one [`Model::decode_rows_in`] forward, held across calls
/// by a caller that decodes in a loop (a serving engine, a generation).
///
/// Each call gives the buffers its own shapes in place
/// ([`Matrix::reuse_as`], `Vec::clear`), so they keep their capacity: once an
/// arena has seen a call's largest shapes, the forward allocates nothing.
/// Nothing carries from one call to the next — every buffer is fully
/// written, or zeroed where a kernel accumulates, before it is read — so a
/// reused arena gives the bits of a fresh one.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// The rows' activations: each layer's input, then its output.
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Attention output, heads side by side.
    heads: Matrix,
    res1: Matrix,
    normed1: Matrix,
    h1: Matrix,
    h2: Matrix,
    /// Each item's last row, when some item decodes several.
    last: Matrix,
    /// The one-row input a selector is shown.
    x_row: Matrix,
    /// Row -> (item, position in its sequence).
    rows: Vec<(usize, usize)>,
    /// Selections, flat: `0..longest sequence` (every dense answer is a
    /// prefix of it), then, per layer, one ascending list per sparse
    /// `(row, head)`; `spans[row * n_heads + head]` indexes it.
    sel: Vec<u32>,
    spans: Vec<Range<usize>>,
    /// The items' caches, per layer — empty between layers: only the
    /// allocation is kept (see [`recycle`]).
    caches: Vec<&'static KvCache>,
    attended: Vec<u64>,
    logits: Matrix,
}

/// `v`'s allocation as an empty vector of references of another lifetime:
/// collecting a `Vec`'s own iterator into an element type of the same
/// layout reuses its buffer in place, so the arena keeps the per-layer
/// cache list's storage although each call borrows different caches.
fn recycle<'b>(mut v: Vec<&KvCache>) -> Vec<&'b KvCache> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// `acc += x`, element-wise: a residual connection without a third buffer
/// (IEEE addition commutes, so the bits are those of `x + acc`).
fn add_residual(x: &Matrix, acc: &mut Matrix) {
    for (a, &x) in acc.iter_mut().zip(x.iter()) {
        *a += x;
    }
}

/// Makes `sel[start..]`, a selector's raw answer for the position `t - 1`,
/// what attention reads: the distinct positions below `t` it names, plus
/// `t - 1` itself (always attendable: the selector filters the older
/// cache), ascending — the order that keeps the output bits those of
/// dense-then-mask. Returns the tail's range.
fn normalize_tail(sel: &mut Vec<u32>, start: usize, t: usize) -> Range<usize> {
    sel.push(t as u32 - 1);
    let mut end = start;
    for j in start..sel.len() {
        if (sel[j] as usize) < t {
            sel[end] = sel[j];
            end += 1;
        }
    }
    sel.truncate(end);
    sel[start..].sort_unstable();
    // `dedup`, on the tail only.
    let mut end = start + 1;
    for j in start + 1..sel.len() {
        if sel[j] != sel[end - 1] {
            sel[end] = sel[j];
            end += 1;
        }
    }
    sel.truncate(end);
    start..end
}

impl Model {
    /// Runs a ragged batch of positions through the decoder in one forward:
    /// every item contributes its next `tokens.len()` consecutive positions,
    /// all of them stacked into one activation matrix, so each projection
    /// and FFN product streams its weight once per call whatever the number
    /// of rows. K/V rows are appended per item, and each row attends over
    /// its own sequence's cache prefix (`cache_len = position + 1`).
    ///
    /// Every buffer comes from `scratch`, and the returned view borrows the
    /// logits and attended counts from it: a caller that keeps one arena
    /// across calls — and sizes its caches once
    /// ([`KvCache::with_capacity`]) — decodes without the allocator.
    ///
    /// Every output element is the arithmetic of a one-token step — GEMM
    /// rows are independent ascending-`k` chains, softmax, layer norm and
    /// GELU are row-wise — so logits, attended counts and caches are
    /// bitwise what feeding the same tokens one call at a time produces,
    /// whatever arena the calls run in.
    ///
    /// # Panics
    ///
    /// Panics if the model is not causal, an item has no tokens, a token is
    /// out of vocabulary, or an item would grow its cache past `seq_len`.
    pub fn decode_rows_in<'s>(
        &self,
        params: &ParamSet,
        items: &mut [DecodeItem<'_>],
        scratch: &'s mut DecodeScratch,
    ) -> DecodedView<'s> {
        let _prof = dota_prof::span("model.decode_rows");
        let cfg = self.config();
        assert!(cfg.causal, "decode_rows requires a causal model");
        let tp: &TransformerParams = self.params();
        let d = cfg.d_model;
        let hd = cfg.head_dim();
        let n_heads = cfg.n_heads;
        let scale = 1.0 / (hd as f32).sqrt();
        // Decided here, once: every product, GELU and `attend_row` (per
        // layer, row and head) of the call runs under it.
        let lanes = Lanes::active();
        let linear = |x: &Matrix, w, out: &mut Matrix| {
            let w = params.value(w);
            out.reuse_as(x.rows(), w.cols());
            x.gemm_into(w, out, lanes).expect("shape");
        };
        let DecodeScratch {
            x,
            q,
            k,
            v,
            heads,
            res1,
            normed1,
            h1,
            h2,
            last,
            x_row,
            rows,
            sel,
            spans,
            caches,
            attended,
            logits,
        } = scratch;

        let tok_table = params.value(tp.token_embedding);
        let pos_table = params.value(tp.pos_embedding);
        let m: usize = items.iter().map(|item| item.tokens.len()).sum();
        x.reuse_as(m, d);
        rows.clear();
        rows.reserve(m);
        for (i, item) in items.iter().enumerate() {
            assert!(!item.tokens.is_empty(), "item {i} decodes no position");
            let first = item.cache.len();
            assert!(
                first + item.tokens.len() <= cfg.seq_len,
                "cache full ({} positions)",
                cfg.seq_len
            );
            for (pos, &token) in (first..).zip(item.tokens) {
                assert!(token < cfg.vocab_size, "token {token} out of vocabulary");
                let embedded = tok_table.row(token).iter().zip(pos_table.row(pos));
                for (o, (&t, &p)) in x.row_mut(rows.len()).iter_mut().zip(embedded) {
                    *o = t + p;
                }
                rows.push((i, pos));
            }
        }

        attended.clear();
        attended.resize(m, 0);
        spans.reserve(m * n_heads);
        let longest = rows.iter().map(|&(_, pos)| pos + 1).max().unwrap_or(0);
        sel.clear();
        sel.extend(0..longest as u32);
        x_row.reuse_as(1, d);
        for (l, layer) in tp.layers.iter().enumerate() {
            linear(x, layer.wq, q);
            linear(x, layer.wk, k);
            linear(x, layer.wv, v);
            for (r, &(i, _)) in rows.iter().enumerate() {
                items[i].cache.append(l, k.row(r), v.row(r));
            }

            // Selectors may carry state and need not be `Sync`: they are
            // asked here, in row order, before any row's attention runs.
            sel.truncate(longest);
            spans.clear();
            let mut connections = 0;
            for (r, &(i, pos)) in rows.iter().enumerate() {
                let t = pos + 1;
                x_row.row_mut(0).copy_from_slice(x.row(r));
                for h in 0..n_heads {
                    let start = sel.len();
                    let span = if items[i].selector.select_into(l, h, x_row, t, sel) {
                        normalize_tail(sel, start, t)
                    } else {
                        sel.truncate(start);
                        0..t
                    };
                    attended[r] += span.len() as u64;
                    connections += span.len();
                    spans.push(span);
                }
            }

            let mut layer_caches = recycle(std::mem::take(caches));
            layer_caches.extend(items.iter().map(|item| &*item.cache));
            // `attend_row` accumulates into its output.
            heads.reuse_as(m, d);
            heads.as_mut_slice().fill(0.0);
            // Rows are independent given the appended K/V, so they fan out
            // like a GEMM's (a score and a value pass per connection).
            let attend = |first: usize, out: &mut [f32]| {
                let mut state = ops::Attend::new(lanes, scale);
                for (out_row, r) in out.chunks_exact_mut(d).zip(first..) {
                    let cache = layer_caches[rows[r].0];
                    for h in 0..n_heads {
                        let c0 = h * hd;
                        ops::attend_row(
                            &mut state,
                            &q.row(r)[c0..c0 + hd],
                            &cache.keys[l],
                            &cache.values[l],
                            c0,
                            &sel[spans[r * n_heads + h].clone()],
                            &mut out_row[c0..c0 + hd],
                        );
                    }
                }
            };
            dota_tensor::row_dispatch(heads, 2 * hd * connections, attend);
            *caches = recycle(layer_caches);

            linear(heads, layer.wo, res1);
            add_residual(x, res1);
            ops::layer_norm_into(
                res1,
                params.value(layer.ln1_gamma).row(0),
                params.value(layer.ln1_beta).row(0),
                1e-5,
                normed1,
            );
            linear(normed1, layer.w_ff1, h1);
            ops::add_bias_in_place(h1, params.value(layer.b_ff1).row(0));
            ops::gelu_slice(lanes, h1.as_mut_slice());
            linear(h1, layer.w_ff2, h2);
            ops::add_bias_in_place(h2, params.value(layer.b_ff2).row(0));
            add_residual(normed1, h2);
            ops::layer_norm_into(
                h2,
                params.value(layer.ln2_gamma).row(0),
                params.value(layer.ln2_beta).row(0),
                1e-5,
                x,
            );
        }
        // Only an item's last position feeds anything downstream.
        let out = if m > items.len() {
            last.reuse_as(items.len(), d);
            let mut end = 0;
            for (i, item) in items.iter().enumerate() {
                end += item.tokens.len();
                last.row_mut(i).copy_from_slice(x.row(end - 1));
            }
            &*last
        } else {
            &*x
        };
        linear(out, tp.w_head, logits);
        ops::add_bias_in_place(logits, params.value(tp.b_head).row(0));
        DecodedView { logits, attended }
    }

    /// [`decode_rows_in`](Self::decode_rows_in) in a fresh arena, returning
    /// what it computed by value.
    ///
    /// # Panics
    ///
    /// As [`decode_rows_in`](Self::decode_rows_in).
    pub fn decode_rows(&self, params: &ParamSet, items: &mut [DecodeItem<'_>]) -> DecodedRows {
        let mut scratch = DecodeScratch::default();
        self.decode_rows_in(params, items, &mut scratch);
        DecodedRows {
            logits: scratch.logits,
            attended: scratch.attended,
        }
    }

    /// Runs one token through the decoder incrementally, returning its
    /// output logits row and appending its K/V to the cache: the one-item,
    /// one-row case of [`decode_rows`](Self::decode_rows).
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
        let item = DecodeItem {
            cache,
            tokens: &[token],
            selector,
        };
        let out = self.decode_rows(params, &mut [item]);
        (out.logits, out.attended[0])
    }

    /// Greedy generation: feeds `prompt` (one ragged forward over all of
    /// it), then samples `n_new` tokens by argmax, attending through
    /// `selector` — every forward in one arena, over a cache sized once.
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
        let cfg = self.config();
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(
            prompt.len() + n_new <= cfg.seq_len,
            "generation exceeds seq_len"
        );
        let mut cache = KvCache::with_capacity(cfg.n_layers, cfg.d_model, prompt.len() + n_new);
        let mut scratch = DecodeScratch::default();
        let mut argmax = Vec::with_capacity(1);
        let mut tokens = Vec::with_capacity(n_new);
        let mut attended_per_token = Vec::with_capacity(n_new);
        let prefill = DecodeItem {
            cache: &mut cache,
            tokens: prompt,
            selector,
        };
        let mut out = self.decode_rows_in(params, &mut [prefill], &mut scratch);
        for _ in 0..n_new {
            ops::argmax_rows_into(out.logits, &mut argmax);
            let next = argmax[0];
            let step = DecodeItem {
                cache: &mut cache,
                tokens: &[next],
                selector,
            };
            out = self.decode_rows_in(params, &mut [step], &mut scratch);
            tokens.push(next);
            attended_per_token.push(out.attended[0]);
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
    /// remaining tokens holds exactly the same bits as one built a token
    /// per call — append order is all that matters, not how the prompt is
    /// cut into the blocks of [`Model::decode_rows`].
    #[test]
    fn kv_cache_append_is_chunking_invariant() {
        let (model, params) = causal_model();
        let ids = [3usize, 1, 6, 2, 4];
        let cfg = model.config();
        let mut one_pass = KvCache::new(cfg.n_layers, cfg.d_model);
        for &t in &ids {
            let _ = model.decode_step(&params, &mut one_pass, t, &DenseDecode);
        }
        // `split == ids.len()` is the whole prompt as one block.
        for split in 1..=ids.len() {
            let mut chunked = KvCache::new(cfg.n_layers, cfg.d_model);
            for tokens in [&ids[..split], &ids[split..]] {
                if tokens.is_empty() {
                    continue;
                }
                let block = DecodeItem {
                    cache: &mut chunked,
                    tokens,
                    selector: &DenseDecode,
                };
                let _ = model.decode_rows(&params, &mut [block]);
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

    /// A cache sized for `n` positions and filled to `n` through one arena
    /// — a prompt block, then single rows — keeps the storage it was given:
    /// capacity unchanged, no matrix moved.
    #[test]
    fn kv_cache_with_capacity_never_reallocates() {
        let (model, params) = causal_model();
        let cfg = model.config();
        let n = cfg.seq_len;
        let mut cache = KvCache::with_capacity(cfg.n_layers, cfg.d_model, n);
        assert_eq!(cache.capacity(), n);
        let storage = |c: &KvCache| -> Vec<*const f32> {
            (0..cfg.n_layers)
                .flat_map(|l| {
                    [
                        c.keys(l).as_slice().as_ptr(),
                        c.values(l).as_slice().as_ptr(),
                    ]
                })
                .collect()
        };
        let before = storage(&cache);
        let tokens: Vec<usize> = (0..n).map(|i| (i * 3) % cfg.vocab_size).collect();
        let mut scratch = DecodeScratch::default();
        for block in std::iter::once(&tokens[..5]).chain(tokens[5..].chunks(1)) {
            let item = DecodeItem {
                cache: &mut cache,
                tokens: block,
                selector: &DenseDecode,
            };
            model.decode_rows_in(&params, &mut [item], &mut scratch);
        }
        assert_eq!(cache.len(), n);
        assert_eq!(cache.capacity(), n);
        assert_eq!(storage(&cache), before);
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
    use crate::{Model, NoHook, TransformerConfig, WindowSelector};
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
            let mut h1 = normed1.matmul(params.value(layer.w_ff1)).expect("shape");
            ops::add_bias_in_place(&mut h1, params.value(layer.b_ff1).row(0));
            h1.map_inplace(ops::gelu_scalar);
            let mut h2 = h1.matmul(params.value(layer.w_ff2)).expect("shape");
            ops::add_bias_in_place(&mut h2, params.value(layer.b_ff2).row(0));
            add_residual(&normed1, &mut h2);
            x = ops::layer_norm(
                &h2,
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

    /// Lists every cached position: dense attention through the gather
    /// path, where `WindowSelector::new(1.0)` answers the dense `None`.
    struct EveryPosition;

    impl DecodeSelector for EveryPosition {
        fn select(&self, _l: usize, _h: usize, _x: &Matrix, len: usize) -> Option<Vec<u32>> {
            Some((0..len as u32).collect())
        }
    }

    /// Decodes `ids` through [`Model::decode_step`] and the reference side
    /// by side under each selector, asserting logits bitwise equal, attended
    /// counts equal and caches equal at every step — then once more as a
    /// single [`Model::decode_rows`] block, which must end in the same
    /// logits, counts and cache (with the `parallel` feature a long block
    /// is what fans its attention rows out over threads).
    fn assert_decode_matches_reference(cfg: TransformerConfig, ids: &[usize], seed: u64) {
        let mut params = ParamSet::new();
        let model = Model::init(cfg, &mut params, seed);
        let cfg = model.config();
        let selectors: [&dyn DecodeSelector; 4] = [
            &DenseDecode,
            &EveryPosition,
            &WindowSelector::new(0.3),
            &AdversarialSelector(seed),
        ];
        for (s, &selector) in selectors.iter().enumerate() {
            let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
            let mut oracle = cache.clone();
            let mut blocked = cache.clone();
            let mut last = Matrix::zeros(0, 0);
            let mut attended_per_step = Vec::new();
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
                last = want;
                attended_per_step.push(want_attended);
            }
            let block = DecodeItem {
                cache: &mut blocked,
                tokens: ids,
                selector,
            };
            let got = model.decode_rows(&params, &mut [block]);
            assert!(got.logits == last, "selector {s}: block logits differ");
            assert_eq!(got.attended, attended_per_step, "selector {s}: block");
            for l in 0..cfg.n_layers {
                assert!(blocked.keys(l) == oracle.keys(l), "selector {s}: block");
                assert!(blocked.values(l) == oracle.values(l), "selector {s}: block");
            }
        }
    }

    /// A selector with the detector's shape: it keeps per-`(layer, head)`
    /// state that is only right when positions arrive in ascending order,
    /// each once (it panics otherwise), and its answer depends on the row
    /// it is shown — a window whose width follows the sign of `x[0]`.
    struct OrderChecked {
        n_heads: usize,
        seen: std::cell::RefCell<Vec<usize>>,
    }

    impl OrderChecked {
        fn new(cfg: &TransformerConfig) -> Self {
            Self {
                n_heads: cfg.n_heads,
                seen: vec![0; cfg.n_layers * cfg.n_heads].into(),
            }
        }
    }

    impl DecodeSelector for OrderChecked {
        fn select(&self, l: usize, h: usize, x: &Matrix, len: usize) -> Option<Vec<u32>> {
            let seen = &mut self.seen.borrow_mut()[l * self.n_heads + h];
            assert_eq!(*seen + 1, len, "layer {l} head {h}: positions out of order");
            *seen = len;
            WindowSelector::new(if x[(0, 0)] > 0.0 { 0.3 } else { 0.7 }).select(l, h, x, len)
        }
    }

    /// One sequence of a ragged oracle case, decoded token by token through
    /// the reference up front.
    struct OracleSeq {
        /// Prompt, then the generated rows (the reference's own argmaxes).
        tokens: Vec<usize>,
        prompt_len: usize,
        selector: Box<dyn DecodeSelector>,
        cache: KvCache,
        /// Per position: the reference's logits and attended count.
        want: Vec<(Matrix, u64)>,
        want_cache: KvCache,
    }

    fn oracle_selector(kind: usize, seed: u64, cfg: &TransformerConfig) -> Box<dyn DecodeSelector> {
        match kind {
            0 => Box::new(DenseDecode),
            1 => Box::new(EveryPosition),
            2 => Box::new(WindowSelector::new(0.3)),
            3 => Box::new(AdversarialSelector(seed)),
            _ => Box::new(OrderChecked::new(cfg)),
        }
    }

    /// Block sizes a prompt is cut into: around one, around a serve-engine
    /// block, and everything that is left.
    const SPLITS: [usize; 7] = [1, 2, 3, 31, 32, 33, usize::MAX];

    proptest! {
        /// [`Model::decode_rows`] over random ragged batches — 1 to 4
        /// sequences, each under its own selector, prompts cut into random
        /// blocks, single generated rows interleaved with other sequences'
        /// blocks — is bitwise the reference run token by token: the
        /// logits of every item's last row, the attended count of every
        /// position, every cache row.
        #[test]
        fn decode_rows_is_bitwise_the_token_by_token_oracle(seed in 0u64..1_000_000) {
            let mut rng = SeededRng::new(seed);
            let mut params = ParamSet::new();
            let small = TransformerConfig {
                d_model: 16,
                d_ff: 32,
                ..TransformerConfig::tiny_causal(80, 8)
            };
            let model = Model::init(small, &mut params, seed % 8);
            let cfg = model.config();
            let mut seqs: Vec<OracleSeq> = (0..1 + rng.below(4))
                .map(|_| {
                    let longest = [8, 72][rng.below(2)];
                    let prompt_len = 1 + rng.below(longest);
                    let kind = rng.below(5);
                    let mut tokens: Vec<usize> = (0..prompt_len).map(|_| rng.below(8)).collect();
                    let oracle_sel = oracle_selector(kind, seed, cfg);
                    let mut want_cache = KvCache::new(cfg.n_layers, cfg.d_model);
                    let mut want = Vec::new();
                    let total = prompt_len + rng.below(4);
                    while want.len() < total {
                        if want.len() == tokens.len() {
                            let (last, _): &(Matrix, u64) = want.last().expect("prompt is non-empty");
                            tokens.push(ops::argmax_rows(last)[0]);
                        }
                        want.push(decode_step_reference(
                            &model, &params, &mut want_cache, tokens[want.len()], &*oracle_sel,
                        ));
                    }
                    OracleSeq {
                        tokens,
                        prompt_len,
                        selector: oracle_selector(kind, seed, cfg),
                        cache: KvCache::new(cfg.n_layers, cfg.d_model),
                        want,
                        want_cache,
                    }
                })
                .collect();

            while seqs.iter().any(|s| s.cache.len() < s.tokens.len()) {
                // A random non-empty subset of the unfinished sequences
                // shares this forward, each with its next block.
                let mut items = Vec::new();
                let mut expect = Vec::new();
                let unfinished = seqs.iter().filter(|s| s.cache.len() < s.tokens.len()).count();
                let must = rng.below(unfinished);
                let mut nth = 0;
                for s in seqs.iter_mut().filter(|s| s.cache.len() < s.tokens.len()) {
                    nth += 1;
                    if nth - 1 != must && rng.below(2) == 0 {
                        continue;
                    }
                    let done = s.cache.len();
                    // Generated rows depend on logits: one per forward.
                    let n = if done < s.prompt_len {
                        SPLITS[rng.below(SPLITS.len())].min(s.prompt_len - done)
                    } else {
                        1
                    };
                    expect.push(&s.want[done..done + n]);
                    items.push(DecodeItem {
                        cache: &mut s.cache,
                        tokens: &s.tokens[done..done + n],
                        selector: &*s.selector,
                    });
                }
                let got = model.decode_rows(&params, &mut items);
                let mut attended = got.attended.iter();
                for (i, want) in expect.iter().enumerate() {
                    for (_, want_attended) in want.iter() {
                        prop_assert_eq!(attended.next(), Some(want_attended), "seed {seed}, item {i}");
                    }
                    let (want_logits, _) = want.last().expect("blocks are non-empty");
                    prop_assert!(got.logits.row(i) == want_logits.row(0), "seed {seed}, item {i}: logits differ");
                }
                prop_assert_eq!(attended.next(), None);
            }
            for (i, s) in seqs.iter().enumerate() {
                for l in 0..cfg.n_layers {
                    prop_assert!(s.cache.keys(l) == s.want_cache.keys(l), "seed {seed}, sequence {i}, layer {l}");
                    prop_assert!(s.cache.values(l) == s.want_cache.values(l), "seed {seed}, sequence {i}, layer {l}");
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
        /// position **bitwise** for arbitrary prompts, and listing every
        /// position is dense decode.
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
            prop_assert!(run(&EveryPosition) == dense);
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
