use crate::Graph;
use dota_tensor::Matrix;

/// Identifier of a trainable parameter in a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// A store of named trainable parameters.
///
/// Parameters outlive any single [`Graph`]: each training step registers
/// them into a fresh tape with [`Graph::param`], runs backward, and hands
/// the graph to an [`Optimizer`] which pulls the per-parameter gradients and
/// updates the stored values.
#[derive(Debug, Default, Clone)]
pub struct ParamSet {
    names: Vec<String>,
    values: Vec<Matrix>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value, returning its id.
    pub fn add(&mut self, name: &str, init: Matrix) -> ParamId {
        self.names.push(name.to_owned());
        self.values.push(init);
        ParamId(self.values.len() - 1)
    }

    /// The current value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different `ParamSet`.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value (used by optimizers and tests).
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different `ParamSet`.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterator over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Global L2 norm of all gradients present in `graph`, useful for
    /// monitoring training and clipping.
    pub fn grad_norm(&self, graph: &Graph) -> f32 {
        let mut acc = 0.0f32;
        for id in self.ids() {
            if let Some(g) = graph.param_grad(id) {
                acc += g.iter().map(|x| x * x).sum::<f32>();
            }
        }
        acc.sqrt()
    }

    /// Per-parameter L2 gradient norms present in `graph`, as
    /// `(name, norm)` pairs in registration order. Parameters without a
    /// gradient on this tape are omitted. The telemetry hook behind the
    /// per-step `grad_norm.*` metrics.
    pub(crate) fn grad_norms(&self, graph: &Graph) -> Vec<(&str, f32)> {
        self.ids()
            .filter_map(|id| {
                graph.param_grad(id).map(|g| {
                    let sq: f32 = g.iter().map(|x| x * x).sum();
                    (self.name(id), sq.sqrt())
                })
            })
            .collect()
    }

    /// The largest per-parameter gradient L2 norm in `graph` (0 when the
    /// tape holds no gradients) — the norm that saturates first under
    /// clipping, and the first place exploding gradients show up.
    pub fn max_grad_norm(&self, graph: &Graph) -> f32 {
        self.grad_norms(graph)
            .into_iter()
            .map(|(_, n)| n)
            .fold(0.0, f32::max)
    }
}

/// A gradient-descent optimizer over a [`ParamSet`].
///
/// The trait is sealed in spirit — the workspace provides [`Sgd`] and
/// [`Adam`] — but is left open so experiments can plug in variants.
pub trait Optimizer {
    /// Applies one update using the gradients recorded in `graph`
    /// (after [`Graph::backward`]). Parameters without gradients are left
    /// untouched.
    fn step(&mut self, params: &mut ParamSet, graph: &Graph);
}

/// Stochastic gradient descent with optional gradient clipping.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    clip: Option<f32>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr, clip: None }
    }

    /// Enables global-norm gradient clipping at `max_norm`.
    pub fn clip_norm(mut self, max_norm: f32) -> Self {
        self.clip = Some(max_norm);
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (e.g. for a schedule).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet, graph: &Graph) {
        let scale = clip_scale(params, graph, self.clip);
        for id in params.ids() {
            let Some(mut g) = graph.param_grad(id) else {
                continue;
            };
            g.map_inplace(|x| x * scale);
            let p = params.value_mut(id);
            for (pv, uv) in p.iter_mut().zip(g.iter()) {
                *pv -= self.lr * uv;
            }
        }
    }
}

/// Adam optimizer (Kingma & Ba) with optional gradient clipping.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip: Option<f32>,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: None,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Enables global-norm gradient clipping at `max_norm`.
    pub fn clip_norm(mut self, max_norm: f32) -> Self {
        self.clip = Some(max_norm);
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, graph: &Graph) {
        if self.m.len() < params.len() {
            self.m.resize(params.len(), None);
            self.v.resize(params.len(), None);
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let scale = clip_scale(params, graph, self.clip);
        for (i, id) in params.ids().enumerate().collect::<Vec<_>>() {
            let Some(mut g) = graph.param_grad(id) else {
                continue;
            };
            g.map_inplace(|x| x * scale);
            let m_prev = self.m[i]
                .take()
                .unwrap_or_else(|| Matrix::zeros(g.rows(), g.cols()));
            let v_prev = self.v[i]
                .take()
                .unwrap_or_else(|| Matrix::zeros(g.rows(), g.cols()));
            let m_new = m_prev
                .scale(self.beta1)
                .add(&g.scale(1.0 - self.beta1))
                .expect("shape");
            let v_new = v_prev
                .scale(self.beta2)
                .add(&g.map(|x| x * x).scale(1.0 - self.beta2))
                .expect("shape");
            {
                let p = params.value_mut(id);
                for ((pv, mv), vv) in p.iter_mut().zip(m_new.iter()).zip(v_new.iter()) {
                    let m_hat = mv / bc1;
                    let v_hat = vv / bc2;
                    *pv -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                }
            }
            self.m[i] = Some(m_new);
            self.v[i] = Some(v_new);
        }
    }
}

/// Computes the multiplicative factor that clips the global gradient norm to
/// `clip`, or 1.0 when clipping is disabled or unnecessary.
fn clip_scale(params: &ParamSet, graph: &Graph, clip: Option<f32>) -> f32 {
    match clip {
        Some(max) => {
            let norm = params.grad_norm(graph);
            if norm > max && norm > 0.0 {
                max / norm
            } else {
                1.0
            }
        }
        None => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_tensor::rng::SeededRng;

    /// Builds the quadratic loss ||x*w - y||^2-style regression graph.
    fn regression_step(
        params: &ParamSet,
        w: ParamId,
        x: &Matrix,
        y: &Matrix,
    ) -> (Graph, crate::Var) {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let yv = g.constant(y.clone());
        let wv = g.param(params, w);
        let pred = g.matmul(xv, wv);
        let loss = g.mse(pred, yv);
        g.backward(loss);
        (g, loss)
    }

    #[test]
    fn sgd_converges_on_linear_regression() {
        let mut rng = SeededRng::new(1);
        let x = rng.normal_matrix(32, 4, 1.0);
        let w_true = rng.normal_matrix(4, 2, 1.0);
        let y = x.matmul(&w_true).unwrap();
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::zeros(4, 2));
        let mut opt = Sgd::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let (g, loss) = regression_step(&params, w, &x, &y);
            last = g.value(loss)[(0, 0)];
            opt.step(&mut params, &g);
        }
        assert!(last < 1e-3, "sgd final loss {last}");
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut rng = SeededRng::new(3);
        let x = rng.normal_matrix(32, 4, 1.0);
        let w_true = rng.normal_matrix(4, 2, 1.0);
        let y = x.matmul(&w_true).unwrap();
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::zeros(4, 2));
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let (g, loss) = regression_step(&params, w, &x, &y);
            last = g.value(loss)[(0, 0)];
            opt.step(&mut params, &g);
        }
        assert!(last < 1e-3, "adam final loss {last}");
    }

    #[test]
    fn clipping_bounds_update() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::filled(1, 1, 0.0));
        let x = Matrix::filled(1, 1, 1000.0);
        let y = Matrix::filled(1, 1, 1.0);
        let (g, _) = regression_step(&params, w, &x, &y);
        let raw_norm = params.grad_norm(&g);
        assert!(raw_norm > 100.0);
        let mut opt = Sgd::new(1.0).clip_norm(1.0);
        opt.step(&mut params, &g);
        // With the global norm clipped to 1, the update magnitude is <= lr.
        assert!(params.value(w)[(0, 0)].abs() <= 1.0 + 1e-5);
    }

    #[test]
    fn untouched_params_stay_fixed() {
        let mut params = ParamSet::new();
        let used = params.add("used", Matrix::filled(1, 1, 1.0));
        let unused = params.add("unused", Matrix::filled(1, 1, 5.0));
        let mut g = Graph::new();
        let uv = g.param(&params, used);
        let sq = g.hadamard(uv, uv);
        g.backward(sq);
        let mut opt = Adam::new(0.1);
        opt.step(&mut params, &g);
        assert_eq!(params.value(unused)[(0, 0)], 5.0);
        assert_ne!(params.value(used)[(0, 0)], 1.0);
    }

    #[test]
    fn param_set_accessors() {
        let mut params = ParamSet::new();
        assert!(params.is_empty());
        let a = params.add("alpha", Matrix::zeros(2, 3));
        assert_eq!(params.name(a), "alpha");
        assert_eq!(params.len(), 1);
        assert!(!params.is_empty());
    }
}
