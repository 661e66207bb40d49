//! The DOTA detector in decoder mode (paper §4.4).
//!
//! During autoregressive decoding the query is a single row, and the
//! detector's job becomes: estimate the new token's scores against the
//! *cached* keys and keep the strongest `retention · t`. The low-rank
//! estimate makes this cheap — the detector caches each step's projected
//! key sketch `k̃ = x P W̃_K` (rank-k per head instead of `hd`), so a
//! decode step costs `O(t · k)` estimate work instead of the `O(t · hd)`
//! exact scores it prunes.

use crate::{DetectorConfig, DotaHook};
use dota_autograd::ParamSet;
use dota_tensor::lanes::Lanes;
use dota_tensor::{topk, Matrix};
use dota_transformer::DecodeSelector;
use std::cell::RefCell;

/// A [`DecodeSelector`] driven by the trained DOTA detector.
///
/// Holds its own sketch cache; create one per generation and feed every
/// decoded position through it: per `(layer, head)`, positions in ascending
/// order, each exactly once — the order both
/// [`Model::decode_step`](dota_transformer::Model::decode_step) (all
/// layers and heads of one position) and
/// [`Model::decode_rows`](dota_transformer::Model::decode_rows) (layer by
/// layer over a block of positions) keep. A call out of order panics.
#[derive(Debug)]
pub struct DotaDecodeSelector<'a> {
    hook: &'a DotaHook,
    params: &'a ParamSet,
    cfg: DetectorConfig,
    n_heads: usize,
    /// The lanes of the sketch products and the selection, decided once
    /// per generation.
    lanes: Lanes,
    state: RefCell<SketchState>,
}

/// What a [`DotaDecodeSelector`] changes through `&self`: the sketches, and
/// the buffers one `select_into` works in, reused from call to call so a
/// selection allocates nothing beyond its sketch's growth.
#[derive(Debug)]
struct SketchState {
    /// `k̃` rows accumulated so far, per layer, per head.
    sketches: Vec<Vec<Matrix>>,
    /// The current row projected (`1 x rank`), then its key and query
    /// sketches.
    xp: Matrix,
    k_row: Matrix,
    q_row: Matrix,
    /// Estimated scores against every cached key, and the top-k's keys.
    scores: Vec<f32>,
    keys: Vec<i32>,
}

impl<'a> DotaDecodeSelector<'a> {
    /// Creates a selector over a trained detector bank for a model with
    /// `n_layers` × `n_heads` heads.
    pub fn new(hook: &'a DotaHook, params: &'a ParamSet, n_layers: usize, n_heads: usize) -> Self {
        Self {
            hook,
            params,
            cfg: hook.config().clone(),
            n_heads,
            lanes: Lanes::active(),
            state: RefCell::new(SketchState {
                sketches: (0..n_layers)
                    .map(|l| {
                        (0..n_heads)
                            .map(|h| Matrix::zeros(0, hook.detector(l, h).rank()))
                            .collect()
                    })
                    .collect(),
                xp: Matrix::default(),
                k_row: Matrix::default(),
                q_row: Matrix::default(),
                scores: Vec::new(),
                keys: Vec::new(),
            }),
        }
    }

    /// Number of positions every layer and head has cached (the last
    /// `(layer, head)` of a forward is the last to see a position).
    pub fn cached(&self) -> usize {
        let state = self.state.borrow();
        state
            .sketches
            .last()
            .and_then(|heads| heads.last())
            .map_or(0, Matrix::rows)
    }
}

impl DecodeSelector for DotaDecodeSelector<'_> {
    fn select(&self, layer: usize, head: usize, x: &Matrix, cache_len: usize) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        self.select_into(layer, head, x, cache_len, &mut out)
            .then_some(out)
    }

    fn select_into(
        &self,
        layer: usize,
        head: usize,
        x: &Matrix,
        cache_len: usize,
        out: &mut Vec<u32>,
    ) -> bool {
        assert!(head < self.n_heads, "head index out of range");
        let det = self.hook.detector(layer, head);
        let mut state = self.state.borrow_mut();
        let SketchState {
            sketches,
            xp,
            k_row,
            q_row,
            scores,
            keys,
        } = &mut *state;
        let product = |a: &Matrix, w: &Matrix, out: &mut Matrix| {
            out.reuse_as(a.rows(), w.cols());
            a.gemm_into(w, out, self.lanes).expect("sketch shape");
        };
        // Project the current row once: xp is 1 x rank.
        product(x, det.projection(), xp);
        product(xp, self.params.value(det.wk_tilde()), k_row);
        product(xp, self.params.value(det.wq_tilde()), q_row);

        // Append this step's key sketch in place (the model appends its
        // K/V before calling attention, so cache_len already includes the
        // new row).
        let sketch = &mut sketches[layer][head];
        sketch.push_row(k_row.row(0));
        // Scores below pair sketch row `j` with cache position `j`: a
        // skipped or repeated position would select the wrong keys silently.
        assert!(
            sketch.rows() == cache_len,
            "layer {layer} head {head}: selected out of order (cache_len {cache_len}, {} sketched)",
            sketch.rows()
        );

        // Estimated scores of the new query against every cached key: one
        // exact ascending-k dot per sketch row, no operand packed or copied.
        let q = q_row.row(0);
        scores.clear();
        scores.extend(sketch.rows_iter().map(|k| Matrix::dot(q, k)));
        let keep = self.cfg.keys_per_row_for_layer(layer, cache_len);
        topk::top_k_set(self.lanes, scores, keep, keys, out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_transformer::{DenseDecode, Model, TransformerConfig, WindowSelector};

    fn setup() -> (Model, ParamSet, DotaHook) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny_causal(16, 8), &mut params, 23);
        let hook = DotaHook::init(
            DetectorConfig::new(0.5).with_sigma(0.5),
            model.config(),
            &mut params,
        );
        (model, params, hook)
    }

    #[test]
    fn selector_limits_attended_connections() {
        let (model, params, hook) = setup();
        let selector = DotaDecodeSelector::new(
            &hook,
            &params,
            model.config().n_layers,
            model.config().n_heads,
        );
        let prompt = [1usize, 3, 5, 2, 7, 4];
        let dense = model.generate(&params, &prompt, 4, &DenseDecode);
        // Fresh selector for a fresh generation.
        let selector2 = DotaDecodeSelector::new(
            &hook,
            &params,
            model.config().n_layers,
            model.config().n_heads,
        );
        drop(selector);
        let sparse = model.generate(&params, &prompt, 4, &selector2);
        let d: u64 = dense.attended_per_token.iter().sum();
        let s: u64 = sparse.attended_per_token.iter().sum();
        assert!(s < d, "detector decode should attend less: {s} vs {d}");
        assert_eq!(sparse.tokens.len(), 4);
    }

    #[test]
    fn sketch_cache_tracks_positions() {
        let (model, params, hook) = setup();
        let selector = DotaDecodeSelector::new(
            &hook,
            &params,
            model.config().n_layers,
            model.config().n_heads,
        );
        let mut cache =
            dota_transformer::KvCache::new(model.config().n_layers, model.config().d_model);
        for (i, &t) in [1usize, 2, 3].iter().enumerate() {
            let _ = model.decode_step(&params, &mut cache, t, &selector);
            assert_eq!(selector.cached(), i + 1);
        }
    }

    /// One answer of a selector: `(layer, head, cache_len, kept)`.
    type Pick = (usize, usize, usize, Vec<u32>);

    /// Forwards to a [`DotaDecodeSelector`] and keeps what it answered.
    struct Recording<'a> {
        inner: DotaDecodeSelector<'a>,
        picks: RefCell<Vec<Pick>>,
    }

    impl<'a> Recording<'a> {
        fn new(model: &Model, params: &'a ParamSet, hook: &'a DotaHook) -> Self {
            let cfg = model.config();
            Self {
                inner: DotaDecodeSelector::new(hook, params, cfg.n_layers, cfg.n_heads),
                picks: RefCell::default(),
            }
        }
    }

    impl DecodeSelector for Recording<'_> {
        fn select(&self, l: usize, h: usize, x: &Matrix, len: usize) -> Option<Vec<u32>> {
            let kept = self.inner.select(l, h, x, len);
            let record = (
                l,
                h,
                len,
                kept.clone().expect("the detector always answers"),
            );
            self.picks.borrow_mut().push(record);
            kept
        }
    }

    proptest::proptest! {
        /// A selector fed blocks of positions layer by layer
        /// (`decode_rows`) picks the same indices for every
        /// `(layer, head, position)` and ends with the same `cached()` as
        /// one fed a token at a time (`decode_step`, all layers per
        /// position) — and the forward agrees bitwise on logits, attended
        /// counts and K/V rows, with two sequences sharing it.
        #[test]
        fn block_fed_selector_matches_token_fed_oracle(seed in 0u64..1_000_000) {
            use dota_tensor::rng::SeededRng;
            use dota_transformer::{DecodeItem, DecodeScratch, KvCache};

            let mut params = ParamSet::new();
            let model = Model::init(TransformerConfig::tiny_causal(80, 8), &mut params, seed % 4);
            let hook = DotaHook::init(
                DetectorConfig::new(0.5).with_sigma(0.5),
                model.config(),
                &mut params,
            );
            let cfg = model.config();
            let mut rng = SeededRng::new(seed);
            let prompts: Vec<Vec<usize>> = (0..2)
                .map(|_| (0..1 + rng.below(72)).map(|_| rng.below(8)).collect())
                .collect();

            // Token-fed: per sequence, logits and attended per position.
            let mut scratch = DecodeScratch::default();
            let token_fed: Vec<_> = prompts
                .iter()
                .map(|prompt| {
                    let selector = Recording::new(&model, &params, &hook);
                    let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
                    let steps: Vec<(Matrix, u64)> = prompt
                        .iter()
                        .map(|&t| {
                            let step = DecodeItem { cache: &mut cache, tokens: &[t], selector: &selector };
                            let out = model.decode_rows_in(&params, &mut [step], &mut scratch);
                            (out.logits.clone(), out.attended[0])
                        })
                        .collect();
                    (selector, cache, steps)
                })
                .collect();

            let block_fed: Vec<_> = prompts
                .iter()
                .map(|_| Recording::new(&model, &params, &hook))
                .collect();
            let mut caches = vec![KvCache::new(cfg.n_layers, cfg.d_model); 2];
            while caches.iter().zip(&prompts).any(|(c, p)| c.len() < p.len()) {
                let mut items = Vec::new();
                let mut ends = Vec::new();
                for (i, cache) in caches.iter_mut().enumerate() {
                    let (done, left) = (cache.len(), prompts[i].len() - cache.len());
                    if left == 0 {
                        continue;
                    }
                    let n = [1, 2, 3, 31, 32, 33, left][rng.below(7)].min(left);
                    ends.push((i, done + n));
                    items.push(DecodeItem {
                        cache,
                        tokens: &prompts[i][done..done + n],
                        selector: &block_fed[i],
                    });
                }
                let got = model.decode_rows(&params, &mut items);
                let mut attended = got.attended.iter();
                for (row, &(i, end)) in ends.iter().enumerate() {
                    let steps = &token_fed[i].2;
                    let n = items[row].tokens.len();
                    for (_, want) in &steps[end - n..end] {
                        proptest::prop_assert_eq!(attended.next(), Some(want));
                    }
                    proptest::prop_assert!(got.logits.row(row) == steps[end - 1].0.row(0));
                }
            }
            for (i, (selector, cache, _)) in token_fed.iter().enumerate() {
                proptest::prop_assert_eq!(block_fed[i].inner.cached(), prompts[i].len());
                proptest::prop_assert_eq!(selector.inner.cached(), prompts[i].len());
                // Same answers, asked in a different order.
                let sorted = |r: &Recording| {
                    let mut picks = r.picks.borrow().clone();
                    picks.sort();
                    picks
                };
                proptest::prop_assert_eq!(sorted(&block_fed[i]), sorted(selector));
                for l in 0..cfg.n_layers {
                    proptest::prop_assert!(caches[i].keys(l) == cache.keys(l));
                    proptest::prop_assert!(caches[i].values(l) == cache.values(l));
                }
            }
        }
    }

    proptest::proptest! {
        /// Fed one position at a time, the selector keeps exactly what the
        /// ordered `top_k_indices` keeps of the same sketch scores — as a
        /// set, ascending — while the cache grows past one 8-lane compare
        /// and one 64-key block.
        #[test]
        fn decode_selector_matches_top_k_indices_oracle(seed in 0u64..1 << 32) {
            use dota_tensor::rng::SeededRng;

            let (model, params, hook) = setup();
            let cfg = model.config();
            let selector = DotaDecodeSelector::new(&hook, &params, cfg.n_layers, cfg.n_heads);
            let det = hook.detector(1, 0);
            let mut rng = SeededRng::new(seed);
            let mut sketches: Vec<Vec<f32>> = Vec::new();
            for t in 1..=70 {
                let mut x = rng.normal_matrix(1, cfg.d_model, 1.0);
                if t % 9 == 0 {
                    // A repeated input: its sketch ties with an earlier one.
                    x = Matrix::filled(1, cfg.d_model, 0.5);
                }
                let xp = x.matmul(det.projection()).unwrap();
                let k_row = xp.matmul(params.value(det.wk_tilde())).unwrap();
                let q_row = xp.matmul(params.value(det.wq_tilde())).unwrap();
                sketches.push(k_row.row(0).to_vec());
                let scores: Vec<f32> = sketches
                    .iter()
                    .map(|k| Matrix::dot(q_row.row(0), k))
                    .collect();
                let keep = hook.config().keys_per_row_for_layer(1, t);
                let mut want: Vec<u32> = topk::top_k_indices(&scores, keep)
                    .into_iter()
                    .map(|i| i as u32)
                    .collect();
                want.sort_unstable();
                proptest::prop_assert_eq!(selector.select(1, 0, &x, t), Some(want), "position {}", t);
            }
        }
    }

    /// Answers as badly as the trait allows, as a pure function of
    /// `(layer, head, len)`: by turns `None`, an empty list, and lists that
    /// are unsorted, repeat entries and reach past the cache.
    struct Adversarial(u64);

    impl DecodeSelector for Adversarial {
        fn select(&self, l: usize, h: usize, _x: &Matrix, len: usize) -> Option<Vec<u32>> {
            use dota_tensor::rng::SeededRng;
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

    /// A model, its weights and a detector bank over them.
    type Bank = (Model, ParamSet, DotaHook);

    /// One sequence of the reuse oracle, decoded twice side by side: in the
    /// reused arena and in fresh ones, each copy under its own selector.
    struct Seq<'a> {
        model: usize,
        reused: (dota_transformer::KvCache, Box<dyn DecodeSelector + 'a>),
        fresh: (dota_transformer::KvCache, Box<dyn DecodeSelector + 'a>),
    }

    fn reuse_selector(kind: usize, bank: &Bank, seed: u64) -> Box<dyn DecodeSelector + '_> {
        let (model, params, hook) = bank;
        let cfg = model.config();
        match kind {
            0 => Box::new(DenseDecode),
            1 => Box::new(WindowSelector::new(0.3)),
            2 => Box::new(DotaDecodeSelector::new(
                hook,
                params,
                cfg.n_layers,
                cfg.n_heads,
            )),
            _ => Box::new(Adversarial(seed)),
        }
    }

    proptest::proptest! {
        /// One arena reused across a random run of calls gives every call
        /// the bits a fresh arena gives — logits, attended counts and every
        /// cache row — while the calls switch between a tiny and a mid-width
        /// model, shrink and grow between 1 and 40 rows over 1 to 4 items,
        /// continue old sequences and start new ones, under dense, window,
        /// detector and adversarial selectors. A buffer left unzeroed or a
        /// stale selection tail shows up as a difference.
        #[test]
        fn decode_scratch_reuse_is_bitwise_fresh_oracle(seed in 0u64..1_000_000) {
            use dota_tensor::rng::SeededRng;
            use dota_transformer::{DecodeItem, DecodeScratch, KvCache};

            const SEQ: usize = 80;
            let tiny = TransformerConfig::tiny_causal(SEQ, 16);
            let mid = TransformerConfig { d_model: 128, n_heads: 4, d_ff: 512, ..tiny.clone() };
            let banks: Vec<Bank> = [tiny, mid]
                .into_iter()
                .map(|cfg| {
                    let mut params = ParamSet::new();
                    let model = Model::init(cfg, &mut params, seed % 4);
                    let detector = DetectorConfig::new(0.25).with_sigma(0.5);
                    let hook = DotaHook::init(detector, model.config(), &mut params);
                    (model, params, hook)
                })
                .collect();
            let mut rng = SeededRng::new(seed);
            let mut scratch = DecodeScratch::default();
            let mut seqs: Vec<Seq> = Vec::new();
            for call in 0..6 {
                let which = rng.below(2);
                let (model, params, _) = &banks[which];
                let cfg = model.config();
                // (sequence, its block) for this call.
                let mut blocks: Vec<(usize, Vec<usize>)> = Vec::new();
                let mut budget = 1 + rng.below(40);
                for _ in 0..1 + rng.below(4) {
                    let open: Vec<usize> = (0..seqs.len())
                        .filter(|&i| seqs[i].model == which && seqs[i].reused.0.len() < SEQ)
                        .filter(|&i| blocks.iter().all(|b| b.0 != i))
                        .collect();
                    let i = if !open.is_empty() && rng.below(2) == 0 {
                        open[rng.below(open.len())]
                    } else {
                        let kind = rng.below(4);
                        let new = || (KvCache::new(cfg.n_layers, cfg.d_model), reuse_selector(kind, &banks[which], seed));
                        seqs.push(Seq { model: which, reused: new(), fresh: new() });
                        seqs.len() - 1
                    };
                    let n = (1 + rng.below(budget)).min(SEQ - seqs[i].reused.0.len());
                    blocks.push((i, (0..n).map(|_| rng.below(16)).collect()));
                    budget -= n;
                    if budget == 0 {
                        break;
                    }
                }
                let mut reused = Vec::new();
                let mut fresh = Vec::new();
                for (i, s) in seqs.iter_mut().enumerate() {
                    if let Some((_, tokens)) = blocks.iter().find(|b| b.0 == i) {
                        reused.push(DecodeItem { cache: &mut s.reused.0, tokens, selector: &*s.reused.1 });
                        fresh.push(DecodeItem { cache: &mut s.fresh.0, tokens, selector: &*s.fresh.1 });
                    }
                }
                let got = model.decode_rows_in(params, &mut reused, &mut scratch);
                let want = model.decode_rows(params, &mut fresh);
                proptest::prop_assert!(*got.logits == want.logits, "seed {seed}, call {call}: logits differ");
                proptest::prop_assert_eq!(got.attended, &want.attended[..], "seed {}, call {}", seed, call);
                drop((reused, fresh));
                for (i, _) in &blocks {
                    let (a, b) = (&seqs[*i].reused.0, &seqs[*i].fresh.0);
                    for l in 0..cfg.n_layers {
                        proptest::prop_assert!(a.keys(l) == b.keys(l) && a.values(l) == b.values(l), "seed {seed}, call {call}, sequence {i}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "selected out of order")]
    fn skipped_position_is_refused() {
        let (model, params, hook) = setup();
        let cfg = model.config();
        let selector = DotaDecodeSelector::new(&hook, &params, cfg.n_layers, cfg.n_heads);
        let x = Matrix::zeros(1, cfg.d_model);
        let _ = selector.select(0, 0, &x, 1);
        let _ = selector.select(0, 0, &x, 3);
    }
}
