//! SGD and SGD-with-momentum: the memory floor the paper compares against.

use apollo_tensor::Matrix;

use crate::state::StateReader;
use crate::{load_records, save_records, Optimizer, ParamUpdate};

/// Plain stochastic gradient descent with decoupled weight decay.
///
/// Zero optimizer state — the memory target APOLLO-Mini matches. Known to
/// train transformers poorly (Zhang et al., 2024a), which Table 2's
/// reproduction confirms at proxy scale.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Decoupled weight-decay coefficient λ.
    pub weight_decay: f32,
}

impl Sgd {
    /// SGD without weight decay.
    pub fn new() -> Self {
        Sgd { weight_decay: 0.0 }
    }
}

impl Default for Sgd {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for Sgd {
    fn name(&self) -> String {
        "SGD".to_string()
    }

    fn step(&mut self, params: &mut [ParamUpdate<'_>], lr: f32) {
        for p in params {
            if self.weight_decay > 0.0 {
                p.value.scale_assign(1.0 - lr * self.weight_decay);
            }
            p.value.axpy(-lr, p.grad);
        }
    }

    fn state_elems(&self) -> usize {
        0
    }

    fn state_save(&self) -> Result<Vec<u8>, String> {
        // Stateless, but still checkpointable: the frame alone lets a
        // resumed run verify the optimizer kind matches.
        Ok(save_records::<()>(&self.name(), &[], |_, _| {}))
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        // The frame must hold zero records; any record is one too many.
        load_records::<()>(bytes, &self.name(), |_| Err("SGD keeps no state".into())).map(|_| ())
    }
}

/// SGD with heavy-ball momentum.
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    /// Momentum coefficient β.
    pub beta: f32,
    /// Decoupled weight-decay coefficient λ.
    pub weight_decay: f32,
    momenta: Vec<Matrix>,
}

impl SgdMomentum {
    /// Creates SGD-M with the given momentum coefficient.
    pub fn new(beta: f32) -> Self {
        SgdMomentum {
            beta,
            weight_decay: 0.0,
            momenta: Vec::new(),
        }
    }
}

impl Optimizer for SgdMomentum {
    fn name(&self) -> String {
        format!("SGD-M(β={})", self.beta)
    }

    fn step(&mut self, params: &mut [ParamUpdate<'_>], lr: f32) {
        if self.momenta.is_empty() {
            self.momenta = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
        }
        assert_eq!(
            self.momenta.len(),
            params.len(),
            "parameter list changed between steps"
        );
        for (p, m) in params.iter_mut().zip(&mut self.momenta) {
            m.ema_assign(self.beta, p.grad);
            if self.weight_decay > 0.0 {
                p.value.scale_assign(1.0 - lr * self.weight_decay);
            }
            p.value.axpy(-lr, m);
        }
    }

    fn state_elems(&self) -> usize {
        self.momenta.iter().map(Matrix::len).sum()
    }

    fn reset_state(&mut self) {
        self.momenta.clear();
    }

    fn state_save(&self) -> Result<Vec<u8>, String> {
        Ok(save_records(&self.name(), &self.momenta, |m, w| {
            w.matrix(m)
        }))
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.momenta = load_records(bytes, &self.name(), StateReader::matrix)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_step(opt: &mut dyn Optimizer, w: &mut Matrix, lr: f32) {
        // Gradient of ½‖w‖²: g = w.
        let g = w.clone();
        let mut binding = [ParamUpdate {
            name: "w",
            value: w,
            grad: &g,
            projectable: true,
        }];
        opt.step(&mut binding, lr);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut w = Matrix::full(2, 2, 4.0);
        let mut opt = Sgd::new();
        for _ in 0..50 {
            quad_step(&mut opt, &mut w, 0.1);
        }
        assert!(w.fro_norm() < 0.1, "‖w‖ = {}", w.fro_norm());
    }

    #[test]
    fn sgd_has_zero_state() {
        let opt = Sgd::new();
        assert_eq!(opt.state_elems(), 0);
        assert_eq!(opt.state_bytes(), 0);
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let mut w = Matrix::full(1, 1, 1.0);
        let g = Matrix::zeros(1, 1);
        let mut opt = Sgd { weight_decay: 0.5 };
        opt.step(
            &mut [ParamUpdate {
                name: "w",
                value: &mut w,
                grad: &g,
                projectable: true,
            }],
            0.1,
        );
        assert!((w.get(0, 0) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates_and_converges() {
        let mut w = Matrix::full(2, 2, 4.0);
        let mut opt = SgdMomentum::new(0.9);
        for _ in 0..200 {
            quad_step(&mut opt, &mut w, 0.05);
        }
        assert!(w.fro_norm() < 0.1, "‖w‖ = {}", w.fro_norm());
        assert_eq!(opt.state_elems(), 4);
    }

    #[test]
    #[should_panic(expected = "parameter list changed")]
    fn momentum_detects_param_list_change() {
        let mut opt = SgdMomentum::new(0.9);
        let mut w = Matrix::zeros(1, 1);
        quad_step(&mut opt, &mut w, 0.1);
        let g1 = Matrix::zeros(1, 1);
        let g2 = Matrix::zeros(1, 1);
        let mut w1 = Matrix::zeros(1, 1);
        let mut w2 = Matrix::zeros(1, 1);
        let mut two = [
            ParamUpdate {
                name: "a",
                value: &mut w1,
                grad: &g1,
                projectable: true,
            },
            ParamUpdate {
                name: "b",
                value: &mut w2,
                grad: &g2,
                projectable: true,
            },
        ];
        opt.step(&mut two, 0.1);
    }
}
