//! Reverse-mode automatic differentiation over matrices.
//!
//! The paper's key algorithmic step (§3.2) is *joint optimization*: the
//! Transformer parameters and the detector's low-rank transformation
//! parameters are trained together against `L = L_model + λ·L_MSE` (Eq. 6),
//! with gradients from the MSE estimation loss flowing into both the
//! low-rank score matrix `S̃` and the full-rank score matrix `S`. Doing
//! that from scratch requires gradients through matmuls, (masked) softmax,
//! layer norm and GELU — exactly the op set implemented here.
//!
//! The design is a classic tape: a [`Graph`] owns an arena of nodes, every
//! op returns a [`Var`] handle, and [`Graph::backward`] walks the arena in
//! reverse, accumulating gradients. Trainable parameters live outside the
//! graph in a [`ParamSet`] so the tape can be rebuilt every step while
//! optimizer state ([`Sgd`], [`Adam`]) persists.
//!
//! # Example
//!
//! ```
//! use dota_autograd::{Graph, ParamSet, Sgd, Optimizer};
//! use dota_tensor::Matrix;
//!
//! // Fit y = x * w with squared error.
//! let mut params = ParamSet::new();
//! let w = params.add("w", Matrix::zeros(1, 1));
//! let mut opt = Sgd::new(0.2);
//! for _ in 0..50 {
//!     let mut g = Graph::new();
//!     let x = g.constant(Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap());
//!     let y = g.constant(Matrix::from_rows(&[&[3.0], &[6.0]]).unwrap());
//!     let wv = g.param(&params, w);
//!     let pred = g.matmul(x, wv);
//!     let loss = g.mse(pred, y);
//!     g.backward(loss);
//!     opt.step(&mut params, &g);
//! }
//! assert!((params.value(w)[(0, 0)] - 3.0).abs() < 1e-3);
//! ```

#![deny(missing_docs)]

#[cfg(test)]
mod gradcheck;
mod graph;
mod optim;
pub mod schedule;

pub use graph::{Graph, Var};
pub use optim::{Adam, Optimizer, ParamId, ParamSet, Sgd};
