//! Tape-based reverse-mode automatic differentiation over
//! [`apollo_tensor::Matrix`] values.
//!
//! A [`Graph`] records operations as they execute (define-by-run, like
//! PyTorch). Higher-rank activations are flattened to 2-D: a batch of token
//! embeddings is a `(batch·seq) × hidden` matrix, and the attention /
//! rotary ops take the `(batch, seq, heads)` geometry as explicit arguments.
//!
//! The op set is exactly what a LLaMA-style decoder needs: matmul, add,
//! elementwise mul, SiLU, RMSNorm, rotary position embedding, fused causal
//! multi-head attention, row gather (embedding lookup / last-token select),
//! and fused softmax cross-entropy.
//!
//! # Example
//!
//! ```
//! use apollo_autograd::Graph;
//! use apollo_tensor::Matrix;
//!
//! let w0 = Matrix::from_rows(&[&[3.0], &[4.0]]);
//! let mut g = Graph::new();
//! let x = g.input(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let w = g.param(&w0); // borrowed: the tape never copies a parameter
//! let y = g.matmul(x, w); // 1x1: [11]
//! let loss = g.sum(y);
//! g.backward(loss);
//! assert_eq!(g.grad(w).as_slice(), &[1.0, 2.0]);
//! ```

mod graph;

pub use graph::{Graph, NodeId};
