//! Relaxed-tier tolerance contract: each `simd::` kernel the INT8 / BF16
//! decode walk calls in place of an exact loop must stay within a tight
//! relative-error envelope of that loop — here the exact fused kernel the
//! dense walk calls at the same point. (`simd::i8_gemv` and the BF16
//! attention kernels have no exact twin; `simd.rs`'s unit tests hold them to
//! `f64` references, `simd_golden.rs` pins every kernel's bits.)
//!
//! The bounds are ULP-style: a reduction over `k` terms reassociated into
//! 8-lane partial sums perturbs each output by at most ~`k` half-ulp
//! rounding steps in the worst case, but in practice (random data, balanced
//! trees) the drift is orders of magnitude smaller. The tolerances below
//! are ~10× observed worst cases on the CI geometry — loose enough to be
//! portable, tight enough that a broken kernel (wrong lane handling,
//! dropped tail) fails immediately.

use apollo_tensor::fused::{fused_rmsnorm_fwd, fused_softmax_xent_fwd, fused_swiglu_fwd};
use apollo_tensor::{simd, Matrix, Rng};

/// Asserts `relaxed` is within `tol` relative error of `exact`, elementwise.
fn assert_close(tag: &str, exact: &[f32], relaxed: &[f32], tol: f32) {
    assert_eq!(exact.len(), relaxed.len(), "{tag}: length mismatch");
    for (i, (&e, &f)) in exact.iter().zip(relaxed).enumerate() {
        let err = (e - f).abs();
        let bound = tol * e.abs().max(1.0);
        assert!(
            err <= bound,
            "{tag}[{i}]: exact {e} vs relaxed {f} (err {err:e} > {bound:e})"
        );
    }
}

#[test]
fn relaxed_forward_kernels_match_exact_within_tolerance() {
    let mut rng = Rng::seed_from_u64(901);
    // 67 columns: eight full vectors and a three-element scalar tail.
    let (rows, cols) = (9, 67);

    let x = Matrix::randn(rows, cols, &mut rng);
    let gain = Matrix::rand_uniform(1, cols, 0.5, 1.5, &mut rng);
    let (ye, ie) = fused_rmsnorm_fwd(&x, &gain, 1e-5);
    let mut yr = Matrix::zeros(rows, cols);
    let inv: Vec<f32> = (0..rows)
        .map(|r| 1.0 / (simd::sum_squares(x.row(r)) / cols as f32 + 1e-5).sqrt())
        .collect();
    for (r, &inv) in inv.iter().enumerate() {
        simd::scale_gain(yr.row_mut(r), x.row(r), inv, gain.row(0));
    }
    assert_close("rmsnorm y", ye.as_slice(), yr.as_slice(), 1e-5);
    assert_close("rmsnorm inv_rms", &ie, &inv, 1e-5);

    let a = Matrix::randn(rows, cols, &mut rng);
    let b = Matrix::randn(rows, cols, &mut rng);
    let exact = fused_swiglu_fwd(&a, &b);
    let mut relaxed = Matrix::zeros(rows, cols);
    for r in 0..rows {
        simd::silu_mul(a.row(r), b.row(r), relaxed.row_mut(r));
    }
    // The polynomial exp inside the sigmoid: ~1e-6 relative.
    assert_close("swiglu", exact.as_slice(), relaxed.as_slice(), 1e-4);

    let logits = Matrix::randn(11, 37, &mut rng);
    let targets: Vec<u32> = (0..11).map(|_| rng.below(37) as u32).collect();
    let (_, pe, de) = fused_softmax_xent_fwd(&logits, &targets);
    let mut pr = logits.clone();
    let dr: Vec<f32> = (0..11)
        .map(|r| {
            let maxv = simd::max_slice(pr.row(r));
            simd::softmax_exp_sum(pr.row_mut(r), maxv)
        })
        .collect();
    assert_close("softmax exps", pe.as_slice(), pr.as_slice(), 1e-4);
    assert_close("softmax denoms", &de, &dr, 1e-4);
}
