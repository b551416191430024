//! AdamW (full-precision and 8-bit state variants) and the Section-3
//! structured channel-wise AdamW used to motivate APOLLO.

use crate::engine::{Engine, Lift, Plan, Recipe, ScaleGranularity};

/// The AdamW baseline (Loshchilov & Hutter), with optional block-wise
/// 8-bit state quantization.
///
/// Full state: first and second moments, `2mn` per `m × n` tensor — the
/// memory burden the paper sets out to remove.
#[derive(Debug, Clone)]
pub struct AdamW {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability ε.
    pub eps: f32,
    /// Decoupled weight decay λ.
    pub weight_decay: f32,
    quant_group: Option<usize>,
    engine: Engine,
}

impl AdamW {
    /// Standard AdamW (β₁=0.9, β₂=0.999, ε=1e-8, λ=0).
    pub fn new() -> Self {
        AdamW {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            quant_group: None,
            engine: Engine::default(),
        }
    }

    /// 8-bit Adam: moments stored block-wise INT8-quantized with the given
    /// group size (128 in the paper's references).
    pub fn adam8bit(group: usize) -> Self {
        AdamW {
            quant_group: Some(group),
            ..Self::new()
        }
    }

    /// Sets the decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Default for AdamW {
    fn default() -> Self {
        Self::new()
    }
}

impl Recipe for AdamW {
    fn label(&self) -> String {
        match self.quant_group {
            None => "AdamW".to_string(),
            Some(g) => format!("8-bit Adam(g={g})"),
        }
    }

    fn plan(&self) -> Plan {
        Plan {
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            quant_group: self.quant_group,
            subspace: None,
            lift: Lift::Elementwise,
            limiter: false,
        }
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn parts(&mut self) -> (&mut Engine, Option<&mut Vec<Vec<f32>>>) {
        (&mut self.engine, None)
    }
}

/// AdamW with the paper's **structured channel-wise learning-rate rule**
/// (Section 3.2, Fig. 3): maintains full AdamW moments, but applies the
/// update as `G · diag(s)` with one norm-ratio factor per channel instead of
/// element-wise, optionally guarded by the norm-growth limiter.
///
/// Same memory as AdamW — this optimizer exists to *validate the coarsening*
/// that APOLLO later makes memory-efficient, and to provide the full-rank
/// golden reference for the √(n/r) scaling-factor study (Fig. 4): it runs
/// the very scaling lift APOLLO runs, on unprojected moments.
#[derive(Debug, Clone)]
pub struct AdamWChannelwise {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability ε.
    pub eps: f32,
    /// Decoupled weight decay λ.
    pub weight_decay: f32,
    /// Whether the norm-growth limiter guards each tensor update.
    pub use_limiter: bool,
    /// Channel scaling factors of the last step, per parameter (empty for
    /// non-projectable tensors). Consumed by the Fig. 4 probe.
    pub last_scales: Vec<Vec<f32>>,
    engine: Engine,
}

impl AdamWChannelwise {
    /// Creates the structured-rule optimizer (limiter on, γ = 1.01).
    pub fn new() -> Self {
        AdamWChannelwise {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            use_limiter: true,
            last_scales: Vec::new(),
            engine: Engine::default(),
        }
    }

    /// Disables the norm-growth limiter (the orange curve of Fig. 3).
    pub fn without_limiter(mut self) -> Self {
        self.use_limiter = false;
        self
    }
}

impl Default for AdamWChannelwise {
    fn default() -> Self {
        Self::new()
    }
}

impl Recipe for AdamWChannelwise {
    fn label(&self) -> String {
        if self.use_limiter {
            "AdamW-channelwise+NL".to_string()
        } else {
            "AdamW-channelwise".to_string()
        }
    }

    fn plan(&self) -> Plan {
        Plan {
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            quant_group: None,
            subspace: None,
            lift: Lift::Scale {
                granularity: ScaleGranularity::Channel,
                alpha: 1.0,
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

    fn one_param_step(opt: &mut dyn Optimizer, w: &mut Matrix, g: &Matrix, lr: f32) {
        let mut params = [ParamUpdate {
            name: "w",
            value: w,
            grad: g,
            projectable: true,
        }];
        opt.step(&mut params, lr);
    }

    #[test]
    fn adamw_first_step_is_signed_lr() {
        // With bias correction, step 1 moves each weight by ≈ lr·sign(g).
        let mut w = Matrix::zeros(1, 3);
        let g = Matrix::from_rows(&[&[0.3, -2.0, 0.0]]);
        let mut opt = AdamW::new();
        one_param_step(&mut opt, &mut w, &g, 0.1);
        assert!((w.get(0, 0) + 0.1).abs() < 1e-3);
        assert!((w.get(0, 1) - 0.1).abs() < 1e-3);
        assert_eq!(w.get(0, 2), 0.0);
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let mut w = Matrix::full(4, 4, 3.0);
        let mut opt = AdamW::new();
        // Quadratic loss ½‖w‖² ⇒ gradient = w; refresh a reused buffer
        // instead of cloning a fresh matrix every iteration.
        let mut g = Matrix::zeros(4, 4);
        for _ in 0..300 {
            g.copy_from(&w);
            one_param_step(&mut opt, &mut w, &g, 0.05);
        }
        assert!(w.fro_norm() < 0.2, "‖w‖ = {}", w.fro_norm());
    }

    #[test]
    fn adamw_weight_decay_pulls_toward_zero() {
        let mut w = Matrix::full(1, 1, 1.0);
        let g = Matrix::zeros(1, 1);
        let mut opt = AdamW::new().with_weight_decay(0.1);
        one_param_step(&mut opt, &mut w, &g, 0.1);
        assert!(w.get(0, 0) < 1.0);
    }

    #[test]
    fn adam8bit_tracks_full_adam_direction() {
        let mut rng = Rng::seed_from_u64(70);
        let g = Matrix::randn(8, 32, &mut rng);
        let mut w_full = Matrix::zeros(8, 32);
        let mut w_q = Matrix::zeros(8, 32);
        let mut full = AdamW::new();
        let mut quant = AdamW::adam8bit(32);
        for _ in 0..5 {
            one_param_step(&mut full, &mut w_full, &g, 0.01);
            one_param_step(&mut quant, &mut w_q, &g, 0.01);
        }
        let dot: f32 = w_full
            .as_slice()
            .iter()
            .zip(w_q.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let cos = dot / (w_full.fro_norm() * w_q.fro_norm());
        assert!(cos > 0.98, "cosine {cos}");
    }

    #[test]
    fn adam8bit_state_bytes_are_about_a_quarter() {
        let mut w = Matrix::zeros(16, 128);
        let g = Matrix::full(16, 128, 1.0);
        let mut opt = AdamW::adam8bit(128);
        one_param_step(&mut opt, &mut w, &g, 0.01);
        let full_bytes = 4 * 2 * 16 * 128;
        assert!(opt.state_bytes() * 3 < full_bytes, "{}", opt.state_bytes());
    }

    #[test]
    fn channelwise_converges_on_quadratic() {
        let mut w = Matrix::full(4, 8, 3.0);
        let mut opt = AdamWChannelwise::new();
        let mut g = Matrix::zeros(4, 8);
        for _ in 0..400 {
            g.copy_from(&w);
            one_param_step(&mut opt, &mut w, &g, 0.05);
        }
        assert!(w.fro_norm() < 0.5, "‖w‖ = {}", w.fro_norm());
    }

    #[test]
    fn channelwise_update_is_scaled_raw_gradient() {
        // The update direction per channel must be parallel to the raw
        // gradient column, not the Adam update.
        let mut rng = Rng::seed_from_u64(71);
        let g = Matrix::randn(4, 8, &mut rng);
        let mut w = Matrix::zeros(4, 8);
        let mut opt = AdamWChannelwise::new().without_limiter();
        one_param_step(&mut opt, &mut w, &g, 1.0);
        // w = −G·diag(s) ⇒ each column of w ∝ corresponding column of g.
        for j in 0..8 {
            let wcol = w.col(j);
            let gcol = g.col(j);
            let dot: f32 = wcol.iter().zip(&gcol).map(|(a, b)| a * b).sum();
            let na = wcol.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb = gcol.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!(
                (dot.abs() / (na * nb) - 1.0).abs() < 1e-4,
                "column {j} not parallel"
            );
        }
    }

    #[test]
    fn channelwise_exposes_scaling_factors() {
        let mut rng = Rng::seed_from_u64(72);
        let g = Matrix::randn(4, 8, &mut rng);
        let mut w = Matrix::zeros(4, 8);
        let mut opt = AdamWChannelwise::new();
        one_param_step(&mut opt, &mut w, &g, 0.01);
        assert_eq!(opt.last_scales[0].len(), 8);
        assert!(opt.last_scales[0].iter().all(|&s| s > 0.0));
    }

    #[test]
    fn channelwise_falls_back_to_elementwise_for_vectors() {
        let mut w = Matrix::zeros(1, 8);
        let g = Matrix::full(1, 8, 1.0);
        let mut opt = AdamWChannelwise::new();
        let mut params = [ParamUpdate {
            name: "norm.gain",
            value: &mut w,
            grad: &g,
            projectable: false,
        }];
        opt.step(&mut params, 0.1);
        assert!(opt.last_scales[0].is_empty());
        assert!(w.get(0, 0) < 0.0);
    }

    #[test]
    fn channelwise_state_includes_limiter_scalars() {
        let mut w = Matrix::zeros(4, 8);
        let g = Matrix::full(4, 8, 1.0);
        let mut opt = AdamWChannelwise::new();
        one_param_step(&mut opt, &mut w, &g, 0.1);
        assert_eq!(opt.state_elems(), 2 * 4 * 8 + 1);
    }
}
