//! Dense matrix substrate for the DOTA reproduction.
//!
//! Every other crate in this workspace builds on the types in this crate:
//! the Transformer forward pass (`dota-transformer`), the attention
//! detector (`dota-detector`), the autograd engine (`dota-autograd`) and
//! the accelerator simulator (`dota-accel`) all manipulate row-major
//! [`Matrix`] values.
//!
//! The crate deliberately implements only what the paper needs — `f32`
//! matrices with GEMM, row-wise softmax, layer normalization, GELU, top-k
//! selection and random projections — rather than a general tensor library.
//!
//! # Example
//!
//! ```
//! use dota_tensor::{Matrix, ops};
//!
//! # fn main() -> Result<(), dota_tensor::ShapeError> {
//! let q = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
//! let k = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
//! let scores = q.matmul_nt(&k)?; // Q * K^T
//! let attn = ops::softmax_rows(&scores);
//! assert_eq!(attn.rows(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
// Indexed loops are the clearest formulation of the matrix kernels here.
#![allow(clippy::needless_range_loop)]

mod error;
mod gemm;
mod matrix;
mod pack;

pub mod exp;
pub mod flops;
pub mod lanes;
pub mod ops;
pub mod reference;
pub mod rng;
pub mod simd;
pub mod tanh;
pub mod topk;

pub use error::ShapeError;
pub use gemm::row_dispatch;
pub use matrix::Matrix;
