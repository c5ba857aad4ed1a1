//! Minimal dense-tensor + autograd stack for the Legion reproduction.
//!
//! The paper's training backend is PyTorch; the convergence experiment
//! (Figure 11) needs *real* gradient descent dynamics, so this crate
//! provides the minimum viable replacement:
//!
//! * [`matrix::Matrix`] — row-major `f32` matrices with the handful of
//!   BLAS-ish kernels GNN layers need,
//! * [`tape::Tape`] — reverse-mode autograd over those kernels, including
//!   the graph-specific edge-mean aggregation used by GraphSAGE/GCN,
//! * [`optim`] — Adam, and
//! * loss-related ops (log-softmax + NLL) implemented as tape ops.
//!
//! Gradients are verified against finite differences in the test suite.
//!
//! # Examples
//!
//! ```
//! use legion_tensor::{Matrix, Tape};
//!
//! // One step of logistic regression by hand.
//! let mut tape = Tape::new();
//! let x = tape.constant(Matrix::from_flat(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
//! let w = tape.param(Matrix::from_flat(2, 2, vec![0.1, -0.1, 0.2, 0.3]));
//! let logits = tape.matmul(x, w);
//! let loss = tape.cross_entropy_mean(logits, &[0, 1]);
//! tape.backward(loss);
//! let grad = tape.grad(w);
//! assert_eq!(grad.rows(), 2);
//! assert!(grad.as_slice().iter().any(|&g| g != 0.0));
//! ```

pub mod matrix;
pub mod optim;
pub mod tape;

pub use matrix::Matrix;
pub use optim::{Adam, Optimizer};
pub use tape::{Tape, VarId};
