//! The transformer side of the engine: what the decision core
//! ([`engine`](crate::engine)) asks of it, [`Forward`], and the model's
//! answers, [`ModelForward`]. A test can substitute a scripted forward.

use crate::cost::CostModel;
use crate::engine::{Core, ServeConfig, ServeEngine};
use crate::request::Request;
use dota_accel::AccelConfig;
use dota_autograd::ParamSet;
use dota_tensor::ops;
use dota_transformer::{DecodeItem, DecodeScratch, KvCache, Model, WindowSelector};

/// Prompt positions a lane computes per host forward. Measured on
/// `serve_longctx` (mid model, prompts 128–192; three interleaved runs
/// each): 32, 48 and 64 all read 7.0–7.3k slot-steps/s against 4.0k one
/// position at a time, within run-to-run noise of each other — a 32-row
/// GEMM already amortizes the weight stream — so the smallest of them,
/// which wastes least when an attempt is discarded mid-block.
pub(crate) const PREFILL_BLOCK: usize = 32;

/// One advanced lane's answer: the connections its position attended, and
/// the token it emitted (`None` while the position is inside the prompt).
pub(crate) type Answer = (u64, Option<usize>);

/// What the decision core asks of the transformer side.
pub(crate) trait Forward {
    /// `true` when `req` can run at all; the core rejects it otherwise.
    fn runnable(&self, req: &Request) -> bool;
    /// Connections one position attends densely (`n_layers · n_heads`).
    fn dense_connections(&self) -> u64;
    /// Starts `req` from scratch in `lane` at `retention`, ending whatever
    /// the lane held.
    fn admit(&mut self, lane: usize, req: &Request, retention: f64);
    /// Advances each of `lanes` one position; `out[i]` answers `lanes[i]`.
    fn advance(&mut self, lanes: &[usize], out: &mut Vec<Answer>);
}

impl<'m> ServeEngine<'m> {
    /// Builds an engine over a causal model.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations ([`ServeConfig::validate`]) and
    /// non-causal models.
    pub fn new(
        model: &'m Model,
        params: &'m ParamSet,
        cfg: ServeConfig,
        accel: &AccelConfig,
    ) -> Result<Self, String> {
        cfg.validate()?;
        if !model.config().causal {
            return Err("serving requires a causal (decoder) model".into());
        }
        let cost = CostModel::new(accel, model.config());
        Ok(Self {
            core: Core::new(cfg, cost, ModelForward::new(model, params)),
        })
    }
}

/// The model's [`Forward`]: one ragged [`Model::decode_rows_in`] per step,
/// in one arena held for the run, covers every lane that needs host work.
/// A lane in its prompt computes its next [`PREFILL_BLOCK`] positions in
/// that call — their inputs were known at admission — and answers from
/// them one position per step. Each lane attends over its own cache only,
/// so its bits do not depend on who shares the forward.
#[derive(Debug)]
pub(crate) struct ModelForward<'m> {
    model: &'m Model,
    params: &'m ParamSet,
    /// Every lane that has held a request, in admission order — the core's
    /// slot order, so a step's rows keep the order requests were admitted
    /// in. A departed request's lane stays until the lane is reused.
    pub(crate) lanes: Vec<Lane>,
    scratch: DecodeScratch,
    /// The fed lanes' next tokens, kept for its capacity.
    next: Vec<usize>,
}

/// One lane's decode state, sized at admission.
#[derive(Debug)]
pub(crate) struct Lane {
    pub(crate) lane: usize,
    prompt: Vec<usize>,
    pub(crate) cache: KvCache,
    selector: WindowSelector,
    /// Attended connections of every computed position; the host runs
    /// ahead of `consumed` (the positions answered) on prompt positions
    /// only.
    attended: Vec<u64>,
    consumed: usize,
    /// Next generation input (argmax of the last computed row's logits).
    next_token: Option<usize>,
}

impl<'m> ModelForward<'m> {
    pub(crate) fn new(model: &'m Model, params: &'m ParamSet) -> Self {
        Self {
            model,
            params,
            lanes: Vec::new(),
            scratch: DecodeScratch::default(),
            next: Vec::new(),
        }
    }
}

impl Forward for ModelForward<'_> {
    /// A non-empty prompt of in-vocabulary tokens that fits `seq_len` with
    /// its output: anything else would panic inside `decode_rows` in the
    /// middle of a batch.
    fn runnable(&self, req: &Request) -> bool {
        let mcfg = self.model.config();
        !req.prompt.is_empty()
            && req.total_positions() <= mcfg.seq_len
            && req.prompt.iter().all(|&t| t < mcfg.vocab_size)
    }

    fn dense_connections(&self) -> u64 {
        (self.model.config().n_layers * self.model.config().n_heads) as u64
    }

    fn admit(&mut self, lane: usize, req: &Request, retention: f64) {
        self.lanes.retain(|l| l.lane != lane);
        let mcfg = self.model.config();
        // Sized once, here: nothing a request holds grows mid-request.
        let positions = req.total_positions().min(mcfg.seq_len);
        self.lanes.push(Lane {
            lane,
            prompt: req.prompt.clone(),
            cache: KvCache::with_capacity(mcfg.n_layers, mcfg.d_model, positions),
            selector: WindowSelector::new(retention),
            attended: Vec::with_capacity(positions),
            consumed: 0,
            next_token: None,
        });
    }

    fn advance(&mut self, lanes: &[usize], out: &mut Vec<Answer>) {
        // The listed lanes whose next position is not computed yet feed
        // the forward (the one list a step allocates: its borrows last
        // the step).
        let mut items = Vec::new();
        for l in &mut self.lanes {
            if l.consumed < l.cache.len() || !lanes.contains(&l.lane) {
                continue;
            }
            let (at, prompt) = (l.consumed, &l.prompt);
            let tokens = if at < prompt.len() {
                // Never past the prompt: generated inputs depend on logits.
                &prompt[at..prompt.len().min(at + PREFILL_BLOCK)]
            } else {
                l.next_token.as_slice()
            };
            items.push(DecodeItem {
                cache: &mut l.cache,
                tokens,
                selector: &l.selector,
            });
        }
        if !items.is_empty() {
            let rows = self
                .model
                .decode_rows_in(self.params, &mut items, &mut self.scratch);
            ops::argmax_rows_into(rows.logits, &mut self.next);
            let mut attended = rows.attended.iter().copied();
            let fed = self
                .lanes
                .iter_mut()
                .filter(|l| l.attended.len() < l.cache.len());
            for (l, &next) in fed.zip(&self.next) {
                let computed = l.cache.len() - l.attended.len();
                l.attended.extend(attended.by_ref().take(computed));
                // Logits of a block that ends inside the prompt feed nothing.
                if l.cache.len() >= l.prompt.len() {
                    l.next_token = Some(next);
                }
            }
        }
        out.clear();
        out.extend(lanes.iter().map(|&lane| {
            let l = self
                .lanes
                .iter_mut()
                .find(|l| l.lane == lane)
                .expect("admitted");
            l.consumed += 1;
            let token = (l.consumed >= l.prompt.len())
                .then(|| l.next_token.expect("set with the last prompt row"));
            (l.attended[l.consumed - 1], token)
        }));
    }
}
