//! The low-rank *gradient update* baselines: GaLore, Fira, and Flora.
//!
//! These differ from APOLLO in that they compute the **update itself** in
//! the low-rank space and project it back (`G̃ = P·Ñ`), whereas APOLLO only
//! *estimates scaling factors* there and applies them to the raw full-rank
//! gradient.

use crate::engine::{Engine, Lift, Plan, Recipe, Subspace};
use crate::projector::ProjKind;

/// **GaLore** (Zhao et al., 2024): AdamW moments on the projected gradient,
/// update projected back to full rank:
/// `R = PᵀG`, `Ñ = AdamW(R)`, `W ← W − η·scale·P·Ñ`.
///
/// The projection is the top-`r` SVD basis of the gradient, refreshed every
/// `update_freq` steps — the expensive step APOLLO eliminates. A random
/// projection variant (`with_random_projection`) exists for the Fig. 5
/// ablation, where it is shown to degrade GaLore badly.
#[derive(Debug, Clone)]
pub struct GaLore {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability ε.
    pub eps: f32,
    /// Decoupled weight decay λ.
    pub weight_decay: f32,
    /// GaLore scale factor applied to the reconstructed update (0.25 in the
    /// official pre-training recipe).
    pub scale: f32,
    /// Projection rank r.
    pub rank: usize,
    /// Subspace refresh period T.
    pub update_freq: usize,
    /// Projection kind (SVD by default).
    pub proj_kind: ProjKind,
    quant_group: Option<usize>,
    seed: u64,
    /// Shared by the Fira/Flora wrappers through their inner `GaLore`.
    engine: Engine,
}

impl GaLore {
    /// Standard GaLore: SVD projection, scale 0.25.
    pub fn new(rank: usize, update_freq: usize) -> Self {
        GaLore {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            scale: 0.25,
            rank,
            update_freq,
            proj_kind: ProjKind::Svd,
            quant_group: None,
            seed: 0x6A10,
            engine: Engine::default(),
        }
    }

    /// 8-bit GaLore: low-rank moments stored INT8 (Table 3).
    pub fn galore8bit(rank: usize, update_freq: usize, group: usize) -> Self {
        GaLore {
            quant_group: Some(group),
            ..Self::new(rank, update_freq)
        }
    }

    /// Replaces the SVD subspace with a pure random projection (Fig. 5
    /// ablation — this is what breaks GaLore's accuracy).
    pub fn with_random_projection(mut self) -> Self {
        self.proj_kind = ProjKind::Random;
        self
    }

    /// Overrides the update scale factor.
    pub fn with_scale(mut self, scale: f32) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// The plan GaLore, Fira (`fira`: residual term + limiter) and Flora
    /// share.
    fn plan_with(&self, fira: bool) -> Plan {
        Plan {
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            quant_group: self.quant_group,
            subspace: Some(Subspace {
                kind: self.proj_kind,
                rank: self.rank,
                update_freq: self.update_freq,
                seed: self.seed,
            }),
            lift: Lift::ProjectBack {
                scale: self.scale,
                residual: fira,
            },
            limiter: fira,
        }
    }
}

impl Recipe for GaLore {
    fn label(&self) -> String {
        match (self.quant_group, self.proj_kind) {
            (Some(g), _) => format!("8-bit GaLore(g={g})"),
            (None, ProjKind::Svd) => "GaLore".to_string(),
            (None, ProjKind::Random) => "GaLore w. RP".to_string(),
        }
    }

    fn plan(&self) -> Plan {
        self.plan_with(false)
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn parts(&mut self) -> (&mut Engine, Option<&mut Vec<Vec<f32>>>) {
        (&mut self.engine, None)
    }
}

/// **Fira** (Chen et al., 2024): GaLore plus the norm-scaled full-rank
/// error residual, `G̃ = P·Ñ + s ⊙ (G − P·PᵀG)`, guarded by the norm-growth
/// limiter. Simulates a full-rank update at GaLore-plus-one-scalar memory.
#[derive(Debug, Clone)]
pub struct Fira(GaLore);

impl Fira {
    /// Standard Fira: SVD projection, scale 0.25, limiter γ = 1.01.
    pub fn new(rank: usize, update_freq: usize) -> Self {
        Fira(GaLore::new(rank, update_freq))
    }

    /// Random-projection variant (Fig. 5 ablation).
    pub fn with_random_projection(self) -> Self {
        Fira(self.0.with_random_projection())
    }

    /// Overrides the update scale factor.
    pub fn with_scale(self, scale: f32) -> Self {
        Fira(self.0.with_scale(scale))
    }

    /// Sets the decoupled weight decay.
    pub fn with_weight_decay(self, wd: f32) -> Self {
        Fira(self.0.with_weight_decay(wd))
    }
}

impl Recipe for Fira {
    fn label(&self) -> String {
        match self.0.proj_kind {
            ProjKind::Svd => "Fira".to_string(),
            ProjKind::Random => "Fira w. RP".to_string(),
        }
    }

    fn plan(&self) -> Plan {
        self.0.plan_with(true)
    }

    fn engine(&self) -> &Engine {
        &self.0.engine
    }

    fn parts(&mut self) -> (&mut Engine, Option<&mut Vec<Vec<f32>>>) {
        (&mut self.0.engine, None)
    }
}

/// **Flora** (Hao et al., 2024): gradient compression by *random*
/// projection with the update reconstructed from compressed moments —
/// functionally GaLore with a seed-only random subspace. Works for
/// fine-tuning but trails AdamW badly in pre-training (Table 1 row,
/// reproduced in Fig. 5).
#[derive(Debug, Clone)]
pub struct Flora(GaLore);

impl Flora {
    /// Flora with scale 1.0 (no GaLore-style damping).
    pub fn new(rank: usize, update_freq: usize) -> Self {
        Flora(
            GaLore::new(rank, update_freq)
                .with_random_projection()
                .with_scale(1.0),
        )
    }
}

impl Recipe for Flora {
    fn label(&self) -> String {
        "Flora".to_string()
    }

    fn plan(&self) -> Plan {
        self.0.plan_with(false)
    }

    fn engine(&self) -> &Engine {
        &self.0.engine
    }

    fn parts(&mut self) -> (&mut Engine, Option<&mut Vec<Vec<f32>>>) {
        (&mut self.0.engine, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimizer, ParamUpdate};
    use apollo_tensor::{Matrix, Rng};

    fn one_step(opt: &mut dyn Optimizer, w: &mut Matrix, g: &Matrix, lr: f32) {
        let mut params = [ParamUpdate {
            name: "w",
            value: w,
            grad: g,
            projectable: true,
        }];
        opt.step(&mut params, lr);
    }

    #[test]
    fn galore_converges_on_quadratic() {
        let mut rng = Rng::seed_from_u64(90);
        let mut w = Matrix::randn(8, 24, &mut rng).scale(3.0);
        let mut opt = GaLore::new(4, 20).with_scale(1.0);
        // Quadratic loss ½‖w‖² ⇒ gradient = w; refresh a reused buffer
        // instead of cloning a fresh matrix every iteration.
        let mut g = Matrix::zeros(8, 24);
        for _ in 0..600 {
            g.copy_from(&w);
            one_step(&mut opt, &mut w, &g, 0.05);
        }
        assert!(w.fro_norm() < 1.5, "‖w‖ = {}", w.fro_norm());
    }

    #[test]
    fn galore_update_lives_in_the_projection_subspace() {
        // With SVD projection, the update P·Ñ has rank ≤ r.
        let mut rng = Rng::seed_from_u64(91);
        let g = Matrix::randn(8, 24, &mut rng);
        let mut w = Matrix::zeros(8, 24);
        let mut opt = GaLore::new(2, 100);
        one_step(&mut opt, &mut w, &g, 1.0);
        let svd = apollo_tensor::linalg::svd_jacobi(&w);
        let tail_energy: f32 = svd.s[2..].iter().map(|s| s * s).sum();
        let total: f32 = svd.s.iter().map(|s| s * s).sum();
        assert!(tail_energy / total < 1e-6, "update rank exceeds r");
    }

    #[test]
    fn fira_update_is_full_rank() {
        // The residual term restores energy outside the subspace.
        let mut rng = Rng::seed_from_u64(92);
        let g = Matrix::randn(8, 24, &mut rng);
        let mut w = Matrix::zeros(8, 24);
        let mut opt = Fira::new(2, 100).with_scale(1.0);
        one_step(&mut opt, &mut w, &g, 1.0);
        let svd = apollo_tensor::linalg::svd_jacobi(&w);
        let tail_energy: f32 = svd.s[2..].iter().map(|s| s * s).sum();
        let total: f32 = svd.s.iter().map(|s| s * s).sum();
        assert!(
            tail_energy / total > 1e-4,
            "Fira update must carry out-of-subspace energy"
        );
    }

    #[test]
    fn fira_converges_on_quadratic() {
        let mut rng = Rng::seed_from_u64(93);
        let mut w = Matrix::randn(8, 24, &mut rng).scale(3.0);
        let mut opt = Fira::new(4, 20).with_scale(1.0);
        let mut g = Matrix::zeros(8, 24);
        for _ in 0..600 {
            g.copy_from(&w);
            one_step(&mut opt, &mut w, &g, 0.05);
        }
        assert!(w.fro_norm() < 1.5, "‖w‖ = {}", w.fro_norm());
    }

    #[test]
    fn galore8bit_uses_fewer_state_bytes() {
        let (m, n, r) = (16, 256, 64);
        let g = Matrix::full(m, n, 1.0);
        let mut w = Matrix::zeros(m, n);
        let mut q = GaLore::galore8bit(r, 100, 128);
        let mut f = GaLore::new(r, 100);
        one_step(&mut q, &mut w, &g, 0.01);
        let mut w2 = Matrix::zeros(m, n);
        one_step(&mut f, &mut w2, &g, 0.01);
        assert!(q.state_bytes() < f.state_bytes() / 2);
    }

    #[test]
    fn dense_fallback_for_non_projectable() {
        let mut w = Matrix::zeros(1, 16);
        let g = Matrix::full(1, 16, 1.0);
        let mut opt = GaLore::new(4, 100);
        let mut params = [ParamUpdate {
            name: "norm",
            value: &mut w,
            grad: &g,
            projectable: false,
        }];
        opt.step(&mut params, 0.1);
        assert_eq!(opt.state_elems(), 2 * 16);
        assert!(w.get(0, 0) < 0.0);
    }

    #[test]
    fn names_are_distinct() {
        assert_eq!(GaLore::new(4, 10).name(), "GaLore");
        assert_eq!(
            GaLore::new(4, 10).with_random_projection().name(),
            "GaLore w. RP"
        );
        assert_eq!(Fira::new(4, 10).name(), "Fira");
        assert_eq!(Flora::new(4, 10).name(), "Flora");
        assert!(GaLore::galore8bit(4, 10, 128).name().contains("8-bit"));
    }
}
