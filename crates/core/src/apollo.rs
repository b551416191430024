//! APOLLO and APOLLO-Mini (Algorithm 1 of the paper).

use crate::engine::{Engine, Lift, Plan, Recipe, ScaleGranularity, Subspace};
use crate::projector::ProjKind;

/// **APOLLO**: Approximated Gradient Scaling for Memory-Efficient LLM
/// Optimization (Algorithm 1).
///
/// For each projectable weight `W (m × n)` the step is:
///
/// 1. `R = P·G` — random projection (`P ~ N(0, 1/r)` regenerated from a
///    stored seed, refreshed every `update_freq` steps), projecting the
///    smaller dimension;
/// 2. AdamW moments on `R` only: `R̃ = M̂ᴿ/(√V̂ᴿ+ε)`;
/// 3. scaling factors `s` from norm ratios of `R̃` vs `R` — per channel
///    ([`ScaleGranularity::Channel`]) or per tensor
///    ([`ScaleGranularity::Tensor`]);
/// 4. update the weight in the *original* space with the scaled raw
///    gradient: `W ← W − η(α·G·diag(s) + λW)`, guarded by the norm-growth
///    limiter.
///
/// Non-projectable parameters fall back to dense AdamW, as in the official
/// implementation.
///
/// Construct with [`Apollo::new`] (channel-wise, α = 1) or [`Apollo::mini`]
/// (rank 1, tensor-wise, α = √128). `with_*` builders cover the ablations.
#[derive(Debug, Clone)]
pub struct Apollo {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability ε.
    pub eps: f32,
    /// Decoupled weight decay λ.
    pub weight_decay: f32,
    /// Gradient scale factor α (Theorem A.4 suggests √(n/r); APOLLO folds
    /// it into the LR and uses 1, APOLLO-Mini uses √128).
    pub alpha: f32,
    /// Scaling-factor granularity.
    pub granularity: ScaleGranularity,
    /// Projection kind (random by default; SVD for "APOLLO w. SVD").
    pub proj_kind: ProjKind,
    /// Auxiliary-space rank r.
    pub rank: usize,
    /// Subspace refresh period T (200 in the paper).
    pub update_freq: usize,
    /// Whether the norm-growth limiter guards each tensor update.
    pub use_limiter: bool,
    seed: u64,
    /// Scaling factors from the last step, per parameter (length 1 for
    /// tensor granularity; empty for dense-fallback tensors). Consumed by
    /// the Fig. 4 probe.
    pub last_scales: Vec<Vec<f32>>,
    engine: Engine,
}

impl Apollo {
    /// APOLLO with channel-wise scaling and random projection (α = 1).
    pub fn new(rank: usize, update_freq: usize) -> Self {
        Apollo {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            alpha: 1.0,
            granularity: ScaleGranularity::Channel,
            proj_kind: ProjKind::Random,
            rank,
            update_freq,
            use_limiter: true,
            seed: 0xA90110,
            last_scales: Vec::new(),
            engine: Engine::default(),
        }
    }

    /// APOLLO-Mini: rank-1 auxiliary space, tensor-wise scaling, α = √128 —
    /// SGD-level memory.
    pub fn mini(update_freq: usize) -> Self {
        Apollo {
            rank: 1,
            granularity: ScaleGranularity::Tensor,
            alpha: 128f32.sqrt(),
            ..Self::new(1, update_freq)
        }
    }

    /// Switches to SVD-based projection ("APOLLO w. SVD").
    pub fn with_svd(mut self) -> Self {
        self.proj_kind = ProjKind::Svd;
        self
    }

    /// Overrides the auxiliary-space rank (e.g. to sweep tensor-wise
    /// scaling above rank 1, Fig. 5d).
    pub fn with_rank(mut self, rank: usize) -> Self {
        assert!(rank > 0, "rank must be positive");
        self.rank = rank;
        self
    }

    /// Overrides the gradient scale factor α.
    pub fn with_alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// Overrides the scaling granularity (Table 7 ablation).
    pub fn with_granularity(mut self, granularity: ScaleGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Sets the decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Sets the base RNG seed used to derive per-tensor projection seeds.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables the norm-growth limiter.
    pub fn without_limiter(mut self) -> Self {
        self.use_limiter = false;
        self
    }

    /// Changes the subspace refresh period T on a *live* optimizer: the
    /// config field and every initialized low-rank state's projector are
    /// re-pointed together, so a restored-then-perturbed optimizer behaves
    /// identically to one perturbed in place (the population-search
    /// explore step relies on this). Safe before the first step too — no
    /// state exists yet and the first step picks up the new value.
    ///
    /// # Panics
    ///
    /// Panics if `update_freq == 0`.
    pub fn set_update_freq(&mut self, update_freq: usize) {
        assert!(update_freq > 0, "update_freq must be positive");
        self.update_freq = update_freq;
        self.engine.set_update_freq(update_freq);
    }
}

impl Recipe for Apollo {
    fn label(&self) -> String {
        let base = match self.granularity {
            ScaleGranularity::Channel => "APOLLO",
            ScaleGranularity::Tensor => {
                if self.rank == 1 {
                    "APOLLO-Mini"
                } else {
                    "APOLLO(tensor)"
                }
            }
        };
        match self.proj_kind {
            ProjKind::Random => base.to_string(),
            ProjKind::Svd => format!("{base} w. SVD"),
        }
    }

    fn plan(&self) -> Plan {
        Plan {
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            quant_group: None,
            subspace: Some(Subspace {
                kind: self.proj_kind,
                rank: self.rank,
                update_freq: self.update_freq,
                seed: self.seed,
            }),
            lift: Lift::Scale {
                granularity: self.granularity,
                alpha: self.alpha,
            },
            limiter: self.use_limiter,
        }
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn parts(&mut self) -> (&mut Engine, Option<&mut Vec<Vec<f32>>>) {
        (&mut self.engine, Some(&mut self.last_scales))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimizer, ParamUpdate};
    use apollo_tensor::{Matrix, Rng};

    fn one_step(opt: &mut Apollo, w: &mut Matrix, g: &Matrix, lr: f32) {
        let mut params = [ParamUpdate {
            name: "w",
            value: w,
            grad: g,
            projectable: true,
        }];
        opt.step(&mut params, lr);
    }

    #[test]
    fn update_direction_is_channel_scaled_gradient() {
        // APOLLO's update must lie in the span of per-channel-scaled raw
        // gradients: each column of ΔW parallel to the same column of G.
        let mut rng = Rng::seed_from_u64(80);
        let g = Matrix::randn(8, 16, &mut rng);
        let mut w = Matrix::zeros(8, 16);
        let mut opt = Apollo::new(4, 100).without_limiter();
        one_step(&mut opt, &mut w, &g, 1.0);
        for j in 0..16 {
            let wc = w.col(j);
            let gc = g.col(j);
            let dot: f32 = wc.iter().zip(&gc).map(|(a, b)| a * b).sum();
            let (na, nb) = (
                wc.iter().map(|x| x * x).sum::<f32>().sqrt(),
                gc.iter().map(|x| x * x).sum::<f32>().sqrt(),
            );
            if na > 1e-9 {
                assert!(
                    (dot.abs() / (na * nb) - 1.0).abs() < 1e-4,
                    "column {j} not parallel to gradient"
                );
            }
        }
    }

    #[test]
    fn converges_on_quadratic() {
        let mut rng = Rng::seed_from_u64(81);
        let mut w = Matrix::randn(8, 24, &mut rng).scale(3.0);
        let mut opt = Apollo::new(4, 50);
        // Quadratic loss ½‖w‖² ⇒ gradient = w; refresh a reused buffer
        // instead of cloning a fresh matrix every iteration.
        let mut g = Matrix::zeros(8, 24);
        for _ in 0..500 {
            g.copy_from(&w);
            one_step(&mut opt, &mut w, &g, 0.05);
        }
        assert!(w.fro_norm() < 1.0, "‖w‖ = {}", w.fro_norm());
    }

    #[test]
    fn mini_converges_on_quadratic() {
        let mut rng = Rng::seed_from_u64(82);
        let mut w = Matrix::randn(8, 24, &mut rng).scale(3.0);
        let mut opt = Apollo::mini(50).with_alpha(1.0);
        let mut g = Matrix::zeros(8, 24);
        for _ in 0..500 {
            g.copy_from(&w);
            one_step(&mut opt, &mut w, &g, 0.05);
        }
        assert!(w.fro_norm() < 1.0, "‖w‖ = {}", w.fro_norm());
    }

    #[test]
    fn state_matches_table1_formula() {
        // APOLLO on a single m×n tensor: 2·n·r + 2 (n = larger dim).
        let (m, n, r) = (8, 32, 4);
        let mut w = Matrix::zeros(m, n);
        let g = Matrix::full(m, n, 1.0);
        let mut opt = Apollo::new(r, 100);
        one_step(&mut opt, &mut w, &g, 0.01);
        assert_eq!(opt.state_elems(), 2 * n * r + 2);
    }

    #[test]
    fn mini_state_is_2n_plus_2() {
        let (m, n) = (8, 32);
        let mut w = Matrix::zeros(m, n);
        let g = Matrix::full(m, n, 1.0);
        let mut opt = Apollo::mini(100);
        one_step(&mut opt, &mut w, &g, 0.01);
        assert_eq!(opt.state_elems(), 2 * n + 2);
    }

    #[test]
    fn tall_matrices_are_projected_on_the_other_side() {
        let (m, n, r) = (32, 8, 4);
        let mut w = Matrix::zeros(m, n);
        let g = Matrix::full(m, n, 1.0);
        let mut opt = Apollo::new(r, 100);
        one_step(&mut opt, &mut w, &g, 0.01);
        // larger dim is m: 2·m·r + 2.
        assert_eq!(opt.state_elems(), 2 * m * r + 2);
        assert_eq!(opt.last_scales[0].len(), m);
    }

    #[test]
    fn dense_fallback_for_non_projectable() {
        let mut w = Matrix::zeros(1, 16);
        let g = Matrix::full(1, 16, 1.0);
        let mut opt = Apollo::new(4, 100);
        let mut params = [ParamUpdate {
            name: "norm",
            value: &mut w,
            grad: &g,
            projectable: false,
        }];
        opt.step(&mut params, 0.1);
        assert_eq!(opt.state_elems(), 2 * 16); // dense AdamW moments
        assert!(w.get(0, 0) < 0.0);
    }

    #[test]
    fn mini_scale_is_a_single_scalar() {
        let mut rng = Rng::seed_from_u64(83);
        let g = Matrix::randn(8, 16, &mut rng);
        let mut w = Matrix::zeros(8, 16);
        let mut opt = Apollo::mini(100);
        one_step(&mut opt, &mut w, &g, 0.01);
        assert_eq!(opt.last_scales[0].len(), 1);
        assert!(opt.last_scales[0][0] > 0.0);
    }

    #[test]
    fn svd_variant_runs_and_counts_basis() {
        let mut rng = Rng::seed_from_u64(84);
        let g = Matrix::randn(8, 16, &mut rng);
        let mut w = Matrix::zeros(8, 16);
        let mut opt = Apollo::new(4, 100).with_svd();
        one_step(&mut opt, &mut w, &g, 0.01);
        // 2·16·4 moments + 8·4 basis + 1.
        assert_eq!(opt.state_elems(), 2 * 16 * 4 + 8 * 4 + 1);
        assert_eq!(opt.name(), "APOLLO w. SVD");
    }

    #[test]
    fn scaling_factor_shrinks_with_rank_as_sqrt_r_over_n() {
        // Theorem A.4: s^R ≈ √(r/n)·s. With identical gradient streams the
        // tensor-level scale at rank r should be ≈ √(r/m) of the full-rank
        // (r = m) one.
        let mut rng = Rng::seed_from_u64(85);
        let (m, n) = (64, 256);
        let mut scales = Vec::new();
        for rank in [8usize, 16, 64] {
            let mut opt = Apollo::new(rank, 1000)
                .with_granularity(ScaleGranularity::Tensor)
                .without_limiter();
            let mut w = Matrix::zeros(m, n);
            // A few steps with random gradients to settle the moments.
            let mut s = 0.0;
            for _ in 0..20 {
                let g = Matrix::randn(m, n, &mut rng);
                one_step(&mut opt, &mut w, &g, 1e-4);
                s = opt.last_scales[0][0];
            }
            scales.push((rank, s));
        }
        // s(8)/s(64) ≈ √(8/64) ≈ 0.354; accept generous tolerance.
        let ratio = scales[0].1 / scales[2].1;
        assert!(
            (0.2..0.6).contains(&ratio),
            "s(8)/s(64) = {ratio}, scales {scales:?}"
        );
    }

    #[test]
    fn set_update_freq_commutes_with_state_roundtrip() {
        // Mutating the refresh interval on a live optimizer must behave
        // exactly like saving its state, loading it into a fresh optimizer,
        // and mutating that one — the explore step of the search driver
        // uses both paths interchangeably.
        let mut rng = Rng::seed_from_u64(87);
        let grads: Vec<Matrix> = (0..12).map(|_| Matrix::randn(8, 16, &mut rng)).collect();
        let mut live = Apollo::new(4, 10).with_seed(55);
        let mut w_live = Matrix::zeros(8, 16);
        for g in &grads[..5] {
            one_step(&mut live, &mut w_live, g, 0.01);
        }
        let saved = live.state_save().unwrap();
        let mut restored = Apollo::new(4, 10).with_seed(55);
        let mut w_restored = w_live.clone();
        restored.state_load(&saved).unwrap();
        live.set_update_freq(3);
        restored.set_update_freq(3);
        assert_eq!(live.update_freq, 3);
        for g in &grads[5..] {
            one_step(&mut live, &mut w_live, g, 0.01);
            one_step(&mut restored, &mut w_restored, g, 0.01);
        }
        assert_eq!(w_live, w_restored);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = Rng::seed_from_u64(86);
        let g = Matrix::randn(8, 16, &mut rng);
        let run = || {
            let mut w = Matrix::zeros(8, 16);
            let mut opt = Apollo::new(4, 10).with_seed(123);
            for _ in 0..5 {
                one_step(&mut opt, &mut w, &g, 0.01);
            }
            w
        };
        assert_eq!(run(), run());
    }
}
