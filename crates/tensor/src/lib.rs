//! Dense `f32` matrix kernels, deterministic RNG, and small-scale linear
//! algebra used throughout the APOLLO reproduction.
//!
//! The paper's algorithms (AdamW, GaLore, Fira, APOLLO, APOLLO-Mini) are all
//! expressed over 2-D weight matrices, so this crate deliberately provides a
//! 2-D row-major [`Matrix`] rather than a general N-d tensor. Higher-rank
//! shapes (batch × seq × hidden) are flattened to `(batch·seq) × hidden` by
//! the layers in `apollo-nn`.
//!
//! Every buffer is an ordinary `Vec`/[`Matrix`] that its owner drops;
//! nothing is pooled or handed back by hand. A buffer whose every element a
//! kernel writes in order is built (`collect`/`extend`) rather than
//! zero-filled first; zero-filled storage is for outputs a kernel
//! accumulates into or writes out of order (GEMM outputs, gradients,
//! row bands filled in parallel, a small workspace reused per row or block).
//!
//! # Example
//!
//! ```
//! use apollo_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let a = Matrix::randn(4, 8, &mut rng);
//! let b = Matrix::randn(8, 3, &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!((c.rows(), c.cols()), (4, 3));
//! ```

// Every `unsafe` block and impl states why it is sound, in place
// (ROADMAP north-star aim 3, and the no-new-`unsafe` gate of item 7); the
// clippy stage of `scripts/ci.sh` enforces it.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bf16;

mod matmul;
mod matrix;
mod numerics;
mod rng;

pub mod fused;
pub mod linalg;
pub mod pool;
pub mod simd;

pub use matmul::{current_threads, set_thread_override, ThreadOverrideGuard};
pub use matrix::Matrix;
pub use numerics::{simd_tier, SimdTier};
pub use rng::{fill_normal, Rng};

/// Machine-epsilon-scale tolerance used by tests and iterative algorithms.
pub const EPS: f32 = 1e-6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_compiles() {
        let mut rng = Rng::seed_from_u64(7);
        let a = Matrix::randn(4, 8, &mut rng);
        let b = Matrix::randn(8, 3, &mut rng);
        let c = a.matmul(&b);
        assert_eq!((c.rows(), c.cols()), (4, 3));
    }
}
