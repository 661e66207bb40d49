use crate::optim::{ParamId, ParamSet};
use dota_tensor::exp::exp_f32;
use dota_tensor::lanes::Lanes;
use dota_tensor::ln::ln_f32;
use dota_tensor::{ops, Matrix};

/// A handle to a node in a [`Graph`].
///
/// `Var`s are cheap copyable indices; they are only meaningful with the
/// graph that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    Leaf {
        param: Option<ParamId>,
    },
    MatMul(Var, Var),
    MatMulNT(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Hadamard(Var, Var),
    Scale(Var, f32),
    AddBias(Var, Var),
    Transpose(Var),
    SoftmaxRows(Var),
    MaskedSoftmaxRows(Var, Vec<Vec<bool>>),
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        normalized: Matrix,
        inv_std: Vec<f32>,
    },
    Gelu(Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    #[cfg(test)]
    SumAll(Var),
    Embedding {
        table: Var,
        ids: Vec<usize>,
    },
    CrossEntropy {
        logits: Var,
        targets: Vec<usize>,
        probs: Matrix,
    },
    Mse(Var, Var),
    MeanRows(Var),
    SliceCols {
        x: Var,
        c0: usize,
        c1: usize,
    },
    HCat(Vec<Var>),
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A reverse-mode autodiff tape over [`Matrix`] values.
///
/// Build the forward computation with the op methods, then call
/// [`backward`](Graph::backward) on a scalar (1×1) loss. Gradients are
/// accumulated per node; for trainable parameters they are read back with
/// [`param_grad`](Graph::param_grad) or collected by an optimizer.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a non-trainable input (no gradient is needed, but one is still
    /// computed if it participates in the graph).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf { param: None })
    }

    /// Adds a trainable parameter by copying its current value from a
    /// [`ParamSet`]. After [`backward`](Graph::backward), the gradient is
    /// retrievable via [`param_grad`](Graph::param_grad).
    pub fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        self.push(params.value(id).clone(), Op::Leaf { param: Some(id) })
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of the loss with respect to `v`, if `backward` has run
    /// and `v` participated in the loss.
    #[cfg(test)]
    pub(crate) fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// The gradient of the loss with respect to parameter `id`, summed over
    /// every use of that parameter in this graph.
    pub fn param_grad(&self, id: ParamId) -> Option<Matrix> {
        let mut acc: Option<Matrix> = None;
        for node in &self.nodes {
            if let Op::Leaf { param: Some(p) } = node.op {
                if p == id {
                    if let Some(g) = &node.grad {
                        acc = Some(match acc {
                            None => g.clone(),
                            Some(a) => a.add(g).expect("same param, same shape"),
                        });
                    }
                }
            }
        }
        acc
    }

    // ---- forward ops ----

    /// Matrix product `a * b`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b)).expect("matmul shapes");
        self.push(v, Op::MatMul(a, b))
    }

    /// Matrix product `a * b^T` (the `Q K^T` kernel).
    ///
    /// # Panics
    ///
    /// Panics if the operands' column counts disagree.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .matmul_nt(self.value(b))
            .expect("matmul_nt shapes");
        self.push(v, Op::MatMulNT(a, b))
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b)).expect("add shapes");
        self.push(v, Op::Add(a, b))
    }

    /// Element-wise difference `a - b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b)).expect("sub shapes");
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .hadamard(self.value(b))
            .expect("hadamard shapes");
        self.push(v, Op::Hadamard(a, b))
    }

    /// Scalar multiple `a * s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Adds a `1 x n` bias row to every row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x a.cols()`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let b = self.value(bias);
        assert_eq!(b.rows(), 1, "bias must be a row vector");
        assert_eq!(b.cols(), self.value(a).cols(), "bias width mismatch");
        let v = ops::add_bias(self.value(a), b.row(0));
        self.push(v, Op::AddBias(a, bias))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Row-wise softmax (Eq. 2).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = ops::softmax_rows(self.value(a));
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Row-wise softmax restricted to positions where `mask` is `true`
    /// (§3.2 — surviving weights renormalize over the detected sparse
    /// attention graph).
    ///
    /// # Panics
    ///
    /// Panics if mask dimensions disagree with `a`.
    pub fn masked_softmax_rows(&mut self, a: Var, mask: Vec<Vec<bool>>) -> Var {
        let v = ops::masked_softmax_rows(self.value(a), &mask);
        self.push(v, Op::MaskedSoftmaxRows(a, mask))
    }

    /// Layer normalization with trainable `gamma` (1×n) and `beta` (1×n).
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` are not `1 x a.cols()`.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        const EPS: f32 = 1e-5;
        let xv = self.value(x);
        let g = self.value(gamma);
        let b = self.value(beta);
        assert_eq!(g.shape(), (1, xv.cols()), "gamma shape");
        assert_eq!(b.shape(), (1, xv.cols()), "beta shape");
        let n = xv.cols() as f32;
        let mut normalized = Matrix::zeros(xv.rows(), xv.cols());
        let mut inv_std = Vec::with_capacity(xv.rows());
        let mut out = Matrix::zeros(xv.rows(), xv.cols());
        for r in 0..xv.rows() {
            let row = xv.row(r);
            let mean: f32 = row.iter().sum::<f32>() / n;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let is = 1.0 / (var + EPS).sqrt();
            inv_std.push(is);
            for c in 0..xv.cols() {
                let xhat = (row[c] - mean) * is;
                normalized[(r, c)] = xhat;
                out[(r, c)] = xhat * g[(0, c)] + b[(0, c)];
            }
        }
        self.push(
            out,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                normalized,
                inv_std,
            },
        )
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let v = ops::gelu(self.value(a));
        self.push(v, Op::Gelu(a))
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = ops::relu(self.value(a));
        self.push(v, Op::Relu(a))
    }

    /// Logistic sigmoid, element-wise.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + exp_f32(-x)));
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent, element-wise.
    pub fn tanh(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        ops::tanh_slice(Lanes::active(), v.as_mut_slice());
        self.push(v, Op::Tanh(a))
    }

    /// Sum of all elements, as a 1×1 scalar node. Useful for reducing any
    /// matrix-valued penalty into a loss term.
    #[cfg(test)]
    pub(crate) fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).sum()]).expect("scalar");
        self.push(v, Op::SumAll(a))
    }

    /// Embedding lookup: selects rows of `table` by `ids`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn embedding(&mut self, table: Var, ids: Vec<usize>) -> Var {
        let t = self.value(table);
        let mut out = Matrix::zeros(ids.len(), t.cols());
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < t.rows(), "embedding id {id} out of range");
            out.row_mut(r).copy_from_slice(t.row(id));
        }
        self.push(out, Op::Embedding { table, ids })
    }

    /// Mean cross-entropy between row-wise logits and integer targets.
    /// Returns a scalar (1×1) node.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.rows()` or a target is out of
    /// range.
    pub fn cross_entropy(&mut self, logits: Var, targets: Vec<usize>) -> Var {
        let l = self.value(logits);
        assert_eq!(targets.len(), l.rows(), "one target per row");
        let probs = ops::softmax_rows(l);
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < l.cols(), "target {t} out of range");
            loss -= ln_f32(probs[(r, t)].max(1e-12));
        }
        loss /= targets.len().max(1) as f32;
        let v = Matrix::from_vec(1, 1, vec![loss]).expect("scalar");
        self.push(
            v,
            Op::CrossEntropy {
                logits,
                targets,
                probs,
            },
        )
    }

    /// Mean squared error between `a` and `b` (Eq. 5). Returns a scalar
    /// (1×1) node.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&mut self, a: Var, b: Var) -> Var {
        let v = ops::mse(self.value(a), self.value(b));
        let m = Matrix::from_vec(1, 1, vec![v]).expect("scalar");
        self.push(m, Op::Mse(a, b))
    }

    /// Mean over rows, producing a `1 x cols` pooled representation
    /// (sequence pooling for classifier heads).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut out = Matrix::zeros(1, x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                out[(0, c)] += x[(r, c)];
            }
        }
        let n = x.rows().max(1) as f32;
        out.map_inplace(|v| v / n);
        self.push(out, Op::MeanRows(a))
    }

    /// Extracts columns `c0..c1` (head split in multi-head attention).
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn slice_cols(&mut self, a: Var, c0: usize, c1: usize) -> Var {
        let v = self.value(a).slice_cols(c0, c1);
        self.push(v, Op::SliceCols { x: a, c0, c1 })
    }

    /// Horizontal concatenation (head concat in multi-head attention).
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree on row count or the list is empty.
    pub fn hcat(&mut self, parts: &[Var]) -> Var {
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::hcat(&mats).expect("hcat shapes");
        self.push(v, Op::HCat(parts.to_vec()))
    }

    /// Convenience: `a + s*b` on scalars or equal shapes, used to combine
    /// the model loss and the λ-weighted MSE loss (Eq. 6).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, a: Var, b: Var, s: f32) -> Var {
        let sb = self.scale(b, s);
        self.add(a, sb)
    }

    // ---- backward ----

    /// Runs reverse-mode differentiation from scalar node `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not 1×1.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        for node in &mut self.nodes {
            node.grad = None;
        }
        self.nodes[loss.0].grad = Some(Matrix::filled(1, 1, 1.0));

        for i in (0..self.nodes.len()).rev() {
            let Some(grad) = self.nodes[i].grad.clone() else {
                continue;
            };
            // Each arm computes the input gradients for node i.
            let updates: Vec<(Var, Matrix)> = match &self.nodes[i].op {
                Op::Leaf { .. } => vec![],
                Op::MatMul(a, b) => {
                    let da = grad.matmul_nt(self.value(*b)).expect("dA");
                    let db = self.value(*a).matmul_tn(&grad).expect("dB");
                    vec![(*a, da), (*b, db)]
                }
                Op::MatMulNT(a, b) => {
                    // C = A B^T: dA = dC B, dB = dC^T A
                    let da = grad.matmul(self.value(*b)).expect("dA");
                    let db = grad.matmul_tn(self.value(*a)).expect("dB");
                    vec![(*a, da), (*b, db)]
                }
                Op::Add(a, b) => vec![(*a, grad.clone()), (*b, grad.clone())],
                Op::Sub(a, b) => vec![(*a, grad.clone()), (*b, grad.scale(-1.0))],
                Op::Hadamard(a, b) => {
                    let da = grad.hadamard(self.value(*b)).expect("dA");
                    let db = grad.hadamard(self.value(*a)).expect("dB");
                    vec![(*a, da), (*b, db)]
                }
                Op::Scale(a, s) => vec![(*a, grad.scale(*s))],
                Op::AddBias(a, bias) => {
                    let mut db = Matrix::zeros(1, grad.cols());
                    for r in 0..grad.rows() {
                        for c in 0..grad.cols() {
                            db[(0, c)] += grad[(r, c)];
                        }
                    }
                    vec![(*a, grad.clone()), (*bias, db)]
                }
                Op::Transpose(a) => vec![(*a, grad.transpose())],
                Op::SoftmaxRows(a) => {
                    let out = &self.nodes[i].value;
                    let mut dx = Matrix::zeros(out.rows(), out.cols());
                    for r in 0..out.rows() {
                        let arow = out.row(r);
                        let grow = grad.row(r);
                        let dot: f32 = arow.iter().zip(grow).map(|(x, y)| x * y).sum();
                        for c in 0..out.cols() {
                            dx[(r, c)] = arow[c] * (grow[c] - dot);
                        }
                    }
                    vec![(*a, dx)]
                }
                Op::MaskedSoftmaxRows(a, mask) => {
                    let out = &self.nodes[i].value;
                    let mut dx = Matrix::zeros(out.rows(), out.cols());
                    for r in 0..out.rows() {
                        let arow = out.row(r);
                        let grow = grad.row(r);
                        let dot: f32 = arow.iter().zip(grow).map(|(x, y)| x * y).sum();
                        for c in 0..out.cols() {
                            if mask[r][c] {
                                dx[(r, c)] = arow[c] * (grow[c] - dot);
                            }
                        }
                    }
                    vec![(*a, dx)]
                }
                Op::LayerNorm {
                    x,
                    gamma,
                    beta,
                    normalized,
                    inv_std,
                } => {
                    let g = self.nodes[gamma.0].value.clone();
                    let rows = grad.rows();
                    let cols = grad.cols();
                    let n = cols as f32;
                    let mut dgamma = Matrix::zeros(1, cols);
                    let mut dbeta = Matrix::zeros(1, cols);
                    let mut dx = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        let grow = grad.row(r);
                        let xhat = normalized.row(r);
                        for c in 0..cols {
                            dbeta[(0, c)] += grow[c];
                            dgamma[(0, c)] += grow[c] * xhat[c];
                        }
                        // dxhat = grad * gamma
                        let dxhat: Vec<f32> = (0..cols).map(|c| grow[c] * g[(0, c)]).collect();
                        let mean_dxhat: f32 = dxhat.iter().sum::<f32>() / n;
                        let mean_dxhat_xhat: f32 =
                            dxhat.iter().zip(xhat).map(|(a, b)| a * b).sum::<f32>() / n;
                        let is = inv_std[r];
                        for c in 0..cols {
                            dx[(r, c)] = is * (dxhat[c] - mean_dxhat - xhat[c] * mean_dxhat_xhat);
                        }
                    }
                    vec![(*x, dx), (*gamma, dgamma), (*beta, dbeta)]
                }
                Op::Gelu(a) => {
                    const C: f32 = 0.797_884_6; // sqrt(2/pi)
                    let x = self.value(*a);
                    // t = tanh(u) for the whole matrix through the slice
                    // kernel, then the derivative element by element.
                    let mut dx = x.map(|v| C * (v + 0.044_715 * v * v * v));
                    ops::tanh_slice(Lanes::active(), dx.as_mut_slice());
                    for ((out, &v), &g) in dx.iter_mut().zip(x.iter()).zip(grad.iter()) {
                        let t = *out;
                        let du = C * (1.0 + 3.0 * 0.044_715 * v * v);
                        let d = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
                        *out = g * d;
                    }
                    vec![(*a, dx)]
                }
                Op::Relu(a) => {
                    let x = self.value(*a);
                    let dx = Matrix::from_fn(x.rows(), x.cols(), |r, c| {
                        if x[(r, c)] > 0.0 {
                            grad[(r, c)]
                        } else {
                            0.0
                        }
                    });
                    vec![(*a, dx)]
                }
                Op::Sigmoid(a) => {
                    // y = σ(x); dy/dx = y(1-y), from the stored output.
                    let y = &self.nodes[i].value;
                    let dx = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                        let v = y[(r, c)];
                        grad[(r, c)] * v * (1.0 - v)
                    });
                    vec![(*a, dx)]
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let dx = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                        let v = y[(r, c)];
                        grad[(r, c)] * (1.0 - v * v)
                    });
                    vec![(*a, dx)]
                }
                #[cfg(test)]
                Op::SumAll(a) => {
                    let x = self.value(*a);
                    let g = grad[(0, 0)];
                    vec![(*a, Matrix::filled(x.rows(), x.cols(), g))]
                }
                Op::Embedding { table, ids } => {
                    let t = self.value(*table);
                    let mut dt = Matrix::zeros(t.rows(), t.cols());
                    for (r, &id) in ids.iter().enumerate() {
                        for c in 0..t.cols() {
                            dt[(id, c)] += grad[(r, c)];
                        }
                    }
                    vec![(*table, dt)]
                }
                Op::CrossEntropy {
                    logits,
                    targets,
                    probs,
                } => {
                    let scale = grad[(0, 0)] / targets.len().max(1) as f32;
                    let mut dl = probs.clone();
                    for (r, &t) in targets.iter().enumerate() {
                        dl[(r, t)] -= 1.0;
                    }
                    dl.map_inplace(|v| v * scale);
                    vec![(*logits, dl)]
                }
                Op::Mse(a, b) => {
                    let av = self.value(*a);
                    let bv = self.value(*b);
                    let n = av.len().max(1) as f32;
                    let scale = grad[(0, 0)] * 2.0 / n;
                    let diff = av.sub(bv).expect("mse shapes").scale(scale);
                    vec![(*a, diff.clone()), (*b, diff.scale(-1.0))]
                }
                Op::MeanRows(a) => {
                    let x = self.value(*a);
                    let n = x.rows().max(1) as f32;
                    let dx = Matrix::from_fn(x.rows(), x.cols(), |_, c| grad[(0, c)] / n);
                    vec![(*a, dx)]
                }
                Op::SliceCols { x, c0, c1 } => {
                    let xv = self.value(*x);
                    let mut dx = Matrix::zeros(xv.rows(), xv.cols());
                    for r in 0..grad.rows() {
                        for c in 0..(c1 - c0) {
                            dx[(r, c0 + c)] = grad[(r, c)];
                        }
                    }
                    vec![(*x, dx)]
                }
                Op::HCat(parts) => {
                    let mut updates = Vec::with_capacity(parts.len());
                    let mut offset = 0;
                    for &p in parts {
                        let w = self.value(p).cols();
                        updates.push((p, grad.slice_cols(offset, offset + w)));
                        offset += w;
                    }
                    updates
                }
            };
            for (var, g) in updates {
                let slot = &mut self.nodes[var.0].grad;
                *slot = Some(match slot.take() {
                    None => g,
                    Some(prev) => prev.add(&g).expect("gradient shapes agree"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use dota_tensor::rng::SeededRng;

    #[test]
    fn matmul_gradients() {
        let mut rng = SeededRng::new(1);
        let a0 = rng.normal_matrix(3, 4, 1.0);
        let b0 = rng.normal_matrix(4, 2, 1.0);
        check_gradients(&[a0, b0], |g, vars| {
            let c = g.matmul(vars[0], vars[1]);
            let sq = g.hadamard(c, c);
            let pooled = g.mean_rows(sq);
            scalar_sum(g, pooled)
        });
    }

    /// Reduces a 1 x n row to a 1 x 1 scalar by summing (matmul with ones).
    fn scalar_sum(g: &mut Graph, row: Var) -> Var {
        let n = g.value(row).cols();
        let ones = g.constant(Matrix::filled(n, 1, 1.0));
        g.matmul(row, ones)
    }

    #[test]
    fn matmul_nt_gradients() {
        let mut rng = SeededRng::new(2);
        let q = rng.normal_matrix(3, 5, 1.0);
        let k = rng.normal_matrix(4, 5, 1.0);
        check_gradients(&[q, k], |g, vars| {
            let s = g.matmul_nt(vars[0], vars[1]);
            let sq = g.hadamard(s, s);
            let pooled = g.mean_rows(sq);
            scalar_sum(g, pooled)
        });
    }

    #[test]
    fn softmax_gradients() {
        let mut rng = SeededRng::new(3);
        let x = rng.normal_matrix(3, 6, 1.0);
        let w = rng.normal_matrix(3, 6, 1.0);
        check_gradients(&[x, w.clone()], move |g, vars| {
            let a = g.softmax_rows(vars[0]);
            let weighted = g.hadamard(a, vars[1]);
            let pooled = g.mean_rows(weighted);
            scalar_sum(g, pooled)
        });
    }

    #[test]
    fn masked_softmax_gradients() {
        let mut rng = SeededRng::new(4);
        let x = rng.normal_matrix(2, 5, 1.0);
        let w = rng.normal_matrix(2, 5, 1.0);
        let mask = vec![
            vec![true, false, true, true, false],
            vec![false, true, true, false, true],
        ];
        check_gradients(&[x, w], move |g, vars| {
            let a = g.masked_softmax_rows(vars[0], mask.clone());
            let weighted = g.hadamard(a, vars[1]);
            let pooled = g.mean_rows(weighted);
            scalar_sum(g, pooled)
        });
    }

    #[test]
    fn layer_norm_gradients() {
        let mut rng = SeededRng::new(5);
        let x = rng.normal_matrix(3, 4, 1.0);
        let gamma = rng.uniform_matrix(1, 4, 0.5, 1.5);
        let beta = rng.normal_matrix(1, 4, 0.1);
        let w = rng.normal_matrix(3, 4, 1.0);
        check_gradients(&[x, gamma, beta, w], move |g, vars| {
            let y = g.layer_norm(vars[0], vars[1], vars[2]);
            let weighted = g.hadamard(y, vars[3]);
            let pooled = g.mean_rows(weighted);
            scalar_sum(g, pooled)
        });
    }

    #[test]
    fn gelu_relu_gradients() {
        let mut rng = SeededRng::new(6);
        let x = rng.normal_matrix(4, 4, 1.0);
        check_gradients(std::slice::from_ref(&x), |g, vars| {
            let y = g.gelu(vars[0]);
            let pooled = g.mean_rows(y);
            scalar_sum(g, pooled)
        });
        // ReLU is non-differentiable at 0; keep inputs away from it.
        let x2 = rng
            .normal_matrix(4, 4, 1.0)
            .map(|v| if v.abs() < 0.05 { 0.2 } else { v });
        check_gradients(&[x2], |g, vars| {
            let y = g.relu(vars[0]);
            let pooled = g.mean_rows(y);
            scalar_sum(g, pooled)
        });
    }

    /// `Op::Gelu`'s backward as one closure per element — the body it had
    /// before `tanh` went through the slice kernel.
    fn gelu_backward_oracle(x: &Matrix, grad: &Matrix) -> Matrix {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        Matrix::from_fn(x.rows(), x.cols(), |r, c| {
            let v = x[(r, c)];
            let u = C * (v + 0.044_715 * v * v * v);
            let t = dota_tensor::tanh::tanh_f32(u);
            let du = C * (1.0 + 3.0 * 0.044_715 * v * v);
            let d = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
            grad[(r, c)] * d
        })
    }

    #[test]
    fn gelu_forward_and_backward_match_elementwise_oracle_bitwise() {
        let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut rng = SeededRng::new(31);
        for (rows, cols, std) in [(1, 1, 1.0), (3, 7, 1.0), (5, 16, 3.0), (9, 33, 0.01)] {
            let x = rng.normal_matrix(rows, cols, std);
            let upstream = rng.normal_matrix(rows, cols, 1.0);
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let y = g.gelu(xv);
            let w = g.constant(upstream.clone());
            let weighted = g.hadamard(y, w);
            let loss = g.sum_all(weighted);
            g.backward(loss);
            assert_eq!(bits(g.value(y)), bits(&x.map(ops::gelu_scalar)));
            assert_eq!(
                bits(g.grad(xv).expect("input gradient")),
                bits(&gelu_backward_oracle(&x, &upstream)),
                "{rows}x{cols}"
            );
        }
    }

    /// Softmax over the kept positions of one row as its element-wise
    /// expression through `exp_f32`, and its backward from that output.
    fn softmax_row_oracle(x: &[f32], keep: &[bool], upstream: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let kept = |i: usize| if keep[i] { x[i] } else { f32::NEG_INFINITY };
        let max = (0..x.len()).map(kept).fold(f32::NEG_INFINITY, f32::max);
        if !max.is_finite() {
            return (vec![0.0; x.len()], vec![0.0; x.len()]);
        }
        let mut y: Vec<f32> = (0..x.len()).map(|i| exp_f32(kept(i) - max)).collect();
        let mut sum = 0.0;
        for &e in &y {
            sum += e;
        }
        y.iter_mut().for_each(|e| *e /= sum);
        let dot: f32 = y.iter().zip(upstream).map(|(a, g)| a * g).sum();
        let dx = (0..x.len())
            .map(|i| {
                if keep[i] {
                    y[i] * (upstream[i] - dot)
                } else {
                    0.0
                }
            })
            .collect();
        (y, dx)
    }

    #[test]
    fn softmax_and_sigmoid_match_elementwise_oracle_bitwise() {
        let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut rng = SeededRng::new(33);
        for (rows, cols, std) in [(1, 1, 1.0), (3, 7, 1.0), (5, 16, 30.0), (9, 33, 4.0)] {
            let x = rng.normal_matrix(rows, cols, std);
            let upstream = rng.normal_matrix(rows, cols, 1.0);
            // Row 0 keeps everything (the unmasked op must agree with it),
            // the last row of the taller shapes nothing.
            let mask: Vec<Vec<bool>> = (0..rows)
                .map(|r| {
                    (0..cols)
                        .map(|_| r == 0 || (r + 1 < rows && rng.below(3) > 0))
                        .collect()
                })
                .collect();
            let run = |op: &dyn Fn(&mut Graph, Var) -> Var| {
                let mut g = Graph::new();
                let xv = g.constant(x.clone());
                let y = op(&mut g, xv);
                let w = g.constant(upstream.clone());
                let weighted = g.hadamard(y, w);
                let loss = g.sum_all(weighted);
                g.backward(loss);
                (bits(g.value(y)), bits(g.grad(xv).expect("input gradient")))
            };
            let oracle = |mask: &[Vec<bool>]| {
                let (mut ys, mut dxs) = (Vec::new(), Vec::new());
                for (r, keep) in mask.iter().enumerate() {
                    let (y, dx) = softmax_row_oracle(x.row(r), keep, upstream.row(r));
                    ys.extend(y.iter().map(|v| v.to_bits()));
                    dxs.extend(dx.iter().map(|v| v.to_bits()));
                }
                (ys, dxs)
            };
            let shape = format!("{rows}x{cols}");
            let all = vec![vec![true; cols]; rows];
            assert_eq!(
                run(&|g, v| g.softmax_rows(v)),
                oracle(&all),
                "softmax {shape}"
            );
            assert_eq!(
                run(&|g, v| g.masked_softmax_rows(v, mask.clone())),
                oracle(&mask),
                "masked softmax {shape}"
            );
            let y = x.map(|v| 1.0 / (1.0 + exp_f32(-v)));
            let dx = Matrix::from_fn(rows, cols, |r, c| {
                upstream[(r, c)] * y[(r, c)] * (1.0 - y[(r, c)])
            });
            assert_eq!(
                run(&|g, v| g.sigmoid(v)),
                (bits(&y), bits(&dx)),
                "sigmoid {shape}"
            );
        }
    }

    #[test]
    fn cross_entropy_gradients() {
        let mut rng = SeededRng::new(7);
        let logits = rng.normal_matrix(5, 3, 1.0);
        let targets = vec![0usize, 2, 1, 1, 0];
        check_gradients(&[logits], move |g, vars| {
            g.cross_entropy(vars[0], targets.clone())
        });
    }

    #[test]
    fn mse_gradients() {
        let mut rng = SeededRng::new(8);
        let a = rng.normal_matrix(3, 3, 1.0);
        let b = rng.normal_matrix(3, 3, 1.0);
        check_gradients(&[a, b], |g, vars| g.mse(vars[0], vars[1]));
    }

    #[test]
    fn embedding_gradients() {
        let mut rng = SeededRng::new(9);
        let table = rng.normal_matrix(6, 4, 1.0);
        let ids = vec![1usize, 3, 1, 5];
        let w = rng.normal_matrix(4, 4, 1.0);
        check_gradients(&[table, w], move |g, vars| {
            let e = g.embedding(vars[0], ids.clone());
            let weighted = g.hadamard(e, vars[1]);
            let pooled = g.mean_rows(weighted);
            scalar_sum(g, pooled)
        });
    }

    #[test]
    fn slice_and_hcat_gradients() {
        let mut rng = SeededRng::new(10);
        let x = rng.normal_matrix(3, 6, 1.0);
        check_gradients(&[x], |g, vars| {
            let a = g.slice_cols(vars[0], 0, 3);
            let b = g.slice_cols(vars[0], 3, 6);
            let cat = g.hcat(&[b, a]);
            let sq = g.hadamard(cat, cat);
            let pooled = g.mean_rows(sq);
            scalar_sum(g, pooled)
        });
    }

    #[test]
    fn add_bias_and_transpose_gradients() {
        let mut rng = SeededRng::new(11);
        let x = rng.normal_matrix(3, 4, 1.0);
        let b = rng.normal_matrix(1, 3, 1.0);
        check_gradients(&[x, b], |g, vars| {
            let t = g.transpose(vars[0]);
            let y = g.add_bias(t, vars[1]);
            let sq = g.hadamard(y, y);
            let pooled = g.mean_rows(sq);
            scalar_sum(g, pooled)
        });
    }

    #[test]
    fn sigmoid_tanh_sum_gradients() {
        let mut rng = SeededRng::new(14);
        let x = rng.normal_matrix(3, 4, 1.0);
        check_gradients(std::slice::from_ref(&x), |g, vars| {
            let y = g.sigmoid(vars[0]);
            g.sum_all(y)
        });
        check_gradients(&[x], |g, vars| {
            let y = g.tanh(vars[0]);
            let sq = g.hadamard(y, y);
            g.sum_all(sq)
        });
    }

    #[test]
    fn sum_all_value_and_shape() {
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap());
        let s = g.sum_all(x);
        assert_eq!(g.value(s).shape(), (1, 1));
        assert_eq!(g.value(s)[(0, 0)], 10.0);
    }

    #[test]
    fn joint_loss_combination() {
        // L = L_ce + lambda * L_mse, gradients flow into both branches.
        let mut rng = SeededRng::new(12);
        let logits = rng.normal_matrix(4, 3, 1.0);
        let s = rng.normal_matrix(4, 4, 1.0);
        let s_tilde = rng.normal_matrix(4, 4, 1.0);
        check_gradients(&[logits, s, s_tilde], |g, vars| {
            let ce = g.cross_entropy(vars[0], vec![0, 1, 2, 0]);
            let mse = g.mse(vars[1], vars[2]);
            g.add_scaled(ce, mse, 0.5)
        });
    }

    #[test]
    fn param_grad_accumulates_over_uses() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::filled(1, 1, 2.0));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let prod = g.hadamard(wv, wv); // w^2, dL/dw = 2w = 4
        g.backward(prod);
        let grad = g.param_grad(w).expect("grad exists");
        assert!((grad[(0, 0)] - 4.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.constant(Matrix::zeros(2, 2));
        g.backward(x);
    }
}
