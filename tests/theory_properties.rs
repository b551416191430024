//! Property-based tests of the paper's theoretical claims (Appendix A) and
//! core numeric invariants, via proptest.

use apollo_repro::optim::{
    AdamWChannelwise, Apollo, NormGrowthLimiter, Optimizer, ParamUpdate, ProjKind, Projector,
    ScaleGranularity,
};
use apollo_repro::quant::QuantizedMatrix;
use apollo_repro::tensor::linalg::svd_jacobi;
use apollo_repro::tensor::{Matrix, Rng};
use proptest::prelude::*;

fn arb_matrix(max_m: usize, max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_m, 1..=max_n, any::<u64>()).prop_map(|(m, n, seed)| {
        let mut rng = Rng::seed_from_u64(seed);
        Matrix::randn(m, n, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem A.1 (JL norm preservation): at rank 64 the projected squared
    /// norm is within ±50% of the original with overwhelming probability
    /// (the bound gives exp(-64·0.5²/8) ≈ 0.13 failure per column; we test
    /// the Frobenius aggregate, which concentrates much harder).
    #[test]
    fn random_projection_preserves_frobenius_norm(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let g = Matrix::randn(96, 64, &mut rng);
        let mut p = Projector::new(ProjKind::Random, 64, 10, seed ^ 1);
        p.begin_step(&g);
        let r = p.project(&g);
        let ratio = (r.fro_norm() / g.fro_norm()).powi(2);
        prop_assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    /// Appendix A.1.3, Step 2: projecting the gradient then accumulating
    /// momentum equals accumulating momentum then projecting (linearity:
    /// M_t^R = P · M_t), as long as P is fixed.
    #[test]
    fn momentum_commutes_with_projection(seed in any::<u64>(), beta in 0.5f32..0.99) {
        let mut rng = Rng::seed_from_u64(seed);
        let grads: Vec<Matrix> = (0..5).map(|_| Matrix::randn(8, 12, &mut rng)).collect();
        let mut p = Projector::new(ProjKind::Random, 4, 1000, seed ^ 2);
        p.begin_step(&grads[0]);

        // Momentum in the original space, projected afterwards.
        let mut m_full = Matrix::zeros(8, 12);
        for g in &grads {
            m_full.ema_assign(beta, g);
        }
        let projected_after = p.project(&m_full);

        // Momentum accumulated on projected gradients.
        let mut m_low = Matrix::zeros(4, 12);
        for g in &grads {
            m_low.ema_assign(beta, &p.project(g));
        }
        for (a, b) in projected_after.as_slice().iter().zip(m_low.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// The norm-growth limiter never lets the output norm exceed
    /// γ × previous norm, for any input sequence.
    #[test]
    fn limiter_never_exceeds_gamma_growth(
        seeds in proptest::collection::vec(any::<u64>(), 2..10),
        gamma in 1.001f32..1.5,
    ) {
        let mut limiter = NormGrowthLimiter::new(gamma);
        let mut prev: Option<f32> = None;
        for seed in seeds {
            let mut rng = Rng::seed_from_u64(seed);
            let mut u = Matrix::randn(4, 6, &mut rng).scale(rng.uniform_in(0.0, 100.0));
            limiter.apply(&mut u);
            let norm = u.fro_norm();
            if let Some(p) = prev {
                if p > 0.0 {
                    prop_assert!(norm <= gamma * p * 1.0001, "{norm} > γ·{p}");
                }
            }
            prev = Some(norm);
        }
    }

    /// INT8 group quantization error is bounded by half the per-group scale.
    #[test]
    fn quantization_error_bounded(m in arb_matrix(8, 64), group in 1usize..64) {
        let q = QuantizedMatrix::quantize(&m, group);
        let deq = q.dequantize();
        let bound = q.max_quantization_error() + 1e-6;
        for (a, b) in m.as_slice().iter().zip(deq.as_slice()) {
            prop_assert!((a - b).abs() <= bound);
        }
    }

    /// SVD reconstructs arbitrary matrices to f32 precision.
    #[test]
    fn svd_reconstruction(m in arb_matrix(12, 12)) {
        let f = svd_jacobi(&m);
        let err = f.reconstruct().sub(&m).fro_norm();
        let scale = 1.0 + m.fro_norm();
        prop_assert!(err / scale < 1e-3, "err {err}");
    }

    /// APOLLO's update never contains NaN/Inf for finite gradients, across
    /// granularities, ranks, and α.
    #[test]
    fn apollo_update_is_finite(
        g in arb_matrix(6, 24),
        rank in 1usize..8,
        alpha in 0.1f32..16.0,
        tensor_wise in any::<bool>(),
    ) {
        let gran = if tensor_wise { ScaleGranularity::Tensor } else { ScaleGranularity::Channel };
        let mut opt = Apollo::new(rank, 10).with_alpha(alpha).with_granularity(gran);
        let mut w = Matrix::zeros(g.rows(), g.cols());
        for _ in 0..3 {
            let mut params = [ParamUpdate {
                name: "w",
                value: &mut w,
                grad: &g,
                projectable: true,
            }];
            opt.step(&mut params, 1e-2);
        }
        prop_assert!(w.all_finite());
    }

    /// Theorem A.4 / Fig. 4, swept over shape, orientation, rank and
    /// granularity: the scaling factors APOLLO estimates at rank `r` are
    /// `√(r / min(m, n))` of the full-rank ones. The full-rank reference is
    /// `AdamWChannelwise` on the same gradient stream — the same scaling
    /// lift on unprojected moments — so the ratio is checked directly.
    /// The band is the theorem's `O(1/√r)` concentration: `1 + 3/√r` either
    /// way (about 1.6× the worst of 12,000 sampled cases).
    #[test]
    fn scaling_factor_trend_with_rank(
        seed in any::<u64>(),
        small in 16usize..=48,
        extra in 0usize..=48,
        rank_shift in 0usize..=5,
        tall in any::<bool>(),
        tensor_wise in any::<bool>(),
    ) {
        let large = small + extra;
        let (m, n) = if tall { (large, small) } else { (small, large) };
        let rank = (small >> rank_shift).max(1);
        let gran = if tensor_wise { ScaleGranularity::Tensor } else { ScaleGranularity::Channel };
        let mut apollo = Apollo::new(rank, 1000)
            .with_granularity(gran)
            .with_seed(seed)
            .without_limiter();
        let mut full = AdamWChannelwise::new().without_limiter();
        let mut rng = Rng::seed_from_u64(seed);
        let (mut w_apollo, mut w_full) = (Matrix::zeros(m, n), Matrix::zeros(m, n));
        let mut g = Matrix::zeros(m, n);
        for _ in 0..12 {
            g = Matrix::randn(m, n, &mut rng);
            for (opt, w) in [
                (&mut apollo as &mut dyn Optimizer, &mut w_apollo),
                (&mut full, &mut w_full),
            ] {
                let mut params = [ParamUpdate {
                    name: "w",
                    value: w,
                    grad: &g,
                    projectable: true,
                }];
                opt.step(&mut params, 1e-5);
            }
        }
        let s_full = &full.last_scales[0];
        let s_apollo = &apollo.last_scales[0];
        prop_assert_eq!(s_full.len(), large);
        let ratio = if tensor_wise {
            // The full-rank tensor factor ‖G̃‖/‖G‖, rebuilt from the
            // channel factors: ‖G̃[:,j]‖ = s_j·‖G[:,j]‖.
            let norms = if m <= n { g.col_norms() } else { g.row_norms() };
            let scaled: f32 = s_full.iter().zip(&norms).map(|(s, c)| (s * c).powi(2)).sum();
            s_apollo[0] / (scaled.sqrt() / g.fro_norm())
        } else {
            let mut ratios: Vec<f32> = s_apollo.iter().zip(s_full).map(|(a, f)| a / f).collect();
            ratios.sort_by(f32::total_cmp);
            ratios[ratios.len() / 2]
        };
        let rel = ratio / (rank as f32 / small as f32).sqrt();
        let band = 1.0 + 3.0 / (rank as f32).sqrt();
        prop_assert!(
            rel.max(1.0 / rel) <= band,
            "{m}x{n} r={rank} {gran:?}: ratio {ratio} is {rel}× √(r/min(m,n))"
        );
    }
}
