//! Adam-mini (Zhang et al., 2024b): block-wise second moments.
//!
//! The paper positions APOLLO as unifying two streams — low-rank gradient
//! compression (GaLore) and optimizer-state redundancy (Adam-mini). This is
//! the latter: Adam's second moment `V` is replaced by **one scalar per
//! parameter block** (here: per channel along the larger dimension, the
//! same grouping APOLLO's channel-wise rule uses), while the first moment
//! stays full-rank. State drops from `2mn` to `mn + n` — halving AdamW, but
//! still far above APOLLO's `2nr + 2`, which is exactly the gap the paper
//! highlights ("Adam-mini's reliance on full-rank first momentum").

use apollo_tensor::Matrix;

use crate::state::{StateReader, StateWriter};
use crate::{load_records, save_records, Optimizer, ParamUpdate};

/// Per-tensor Adam-mini state: full first moment, block-wise second moment.
#[derive(Debug, Clone)]
struct MiniState {
    m: Matrix,
    /// One EMA'd mean-square per block (channel).
    v_blocks: Vec<f32>,
    /// Blocks run along columns (`true`) or rows (`false`).
    along_cols: bool,
    t: u32,
}

impl MiniState {
    fn save_into(&self, w: &mut StateWriter) {
        w.matrix(&self.m);
        w.f32_slice(&self.v_blocks);
        w.bool(self.along_cols);
        w.u32(self.t);
    }

    fn load_from(r: &mut StateReader<'_>) -> Result<Self, String> {
        let m = r.matrix()?;
        let v_blocks = r.f32_slice()?;
        let along_cols = r.bool()?;
        let t = r.u32()?;
        let expect = if along_cols { m.cols() } else { m.rows() };
        if v_blocks.len() != expect {
            return Err(format!(
                "Adam-mini block count {} does not match moment shape {:?}",
                v_blocks.len(),
                m.shape()
            ));
        }
        Ok(MiniState {
            m,
            v_blocks,
            along_cols,
            t,
        })
    }
}

/// Block-wise AdamW: full momentum, one second-moment scalar per channel.
#[derive(Debug, Clone)]
pub struct AdamMini {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability ε.
    pub eps: f32,
    /// Decoupled weight decay λ.
    pub weight_decay: f32,
    states: Vec<MiniState>,
}

impl AdamMini {
    /// Standard hyper-parameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new() -> Self {
        AdamMini {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            states: Vec::new(),
        }
    }

    /// State for one `rows × cols` weight: the full first moment plus one
    /// second-moment scalar per channel along the larger dimension.
    pub(crate) fn elems_for(rows: usize, cols: usize) -> usize {
        rows * cols + rows.max(cols)
    }
}

impl Default for AdamMini {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for AdamMini {
    fn name(&self) -> String {
        "Adam-mini".to_string()
    }

    fn step(&mut self, params: &mut [ParamUpdate<'_>], lr: f32) {
        if self.states.is_empty() {
            self.states = params
                .iter()
                .map(|p| {
                    let (r, c) = p.value.shape();
                    let along_cols = r <= c;
                    let blocks = if along_cols { c } else { r };
                    MiniState {
                        m: Matrix::zeros(r, c),
                        v_blocks: vec![0.0; blocks],
                        along_cols,
                        t: 0,
                    }
                })
                .collect();
        }
        assert_eq!(self.states.len(), params.len(), "parameter list changed");
        for (p, st) in params.iter_mut().zip(&mut self.states) {
            st.t += 1;
            st.m.ema_assign(self.beta1, p.grad);
            // Block mean-squares of the raw gradient.
            let (rows, cols) = p.grad.shape();
            let mut sums = vec![0.0f64; st.v_blocks.len()];
            for r in 0..rows {
                let row = p.grad.row(r);
                if st.along_cols {
                    for (s, &g) in sums.iter_mut().zip(row) {
                        *s += (g as f64) * (g as f64);
                    }
                } else {
                    sums[r] = row.iter().map(|&g| (g as f64) * (g as f64)).sum();
                }
            }
            let block_len = if st.along_cols { rows } else { cols } as f64;
            for (v, s) in st.v_blocks.iter_mut().zip(&sums) {
                *v = self.beta2 * *v + (1.0 - self.beta2) * (*s / block_len) as f32;
            }
            let bc1 = 1.0 - self.beta1.powi(st.t as i32);
            let bc2 = 1.0 - self.beta2.powi(st.t as i32);
            if self.weight_decay > 0.0 {
                p.value.scale_assign(1.0 - lr * self.weight_decay);
            }
            // update_ij = m̂_ij / (√v̂_block + ε)
            let eps = self.eps;
            for r in 0..rows {
                for c in 0..cols {
                    let b = if st.along_cols { c } else { r };
                    let vhat = (st.v_blocks[b] / bc2).max(0.0);
                    let mhat = st.m.get(r, c) / bc1;
                    let upd = mhat / (vhat.sqrt() + eps);
                    p.value.set(r, c, p.value.get(r, c) - lr * upd);
                }
            }
        }
    }

    fn state_elems(&self) -> usize {
        self.states
            .iter()
            .map(|s| s.m.len() + s.v_blocks.len())
            .sum()
    }

    fn reset_state(&mut self) {
        self.states.clear();
    }

    fn state_save(&self) -> Result<Vec<u8>, String> {
        Ok(save_records(
            &self.name(),
            &self.states,
            MiniState::save_into,
        ))
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.states = load_records(bytes, &self.name(), MiniState::load_from)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_tensor::Rng;

    fn one_step(opt: &mut AdamMini, w: &mut Matrix, g: &Matrix, lr: f32) {
        let mut params = [ParamUpdate {
            name: "w",
            value: w,
            grad: g,
            projectable: true,
        }];
        opt.step(&mut params, lr);
    }

    #[test]
    fn converges_on_quadratic() {
        let mut rng = Rng::seed_from_u64(120);
        let mut w = Matrix::randn(6, 12, &mut rng).scale(3.0);
        let mut opt = AdamMini::new();
        for _ in 0..400 {
            let g = w.clone();
            one_step(&mut opt, &mut w, &g, 0.05);
        }
        assert!(w.fro_norm() < 0.5, "‖w‖ = {}", w.fro_norm());
    }

    #[test]
    fn uniform_gradient_matches_adamw_first_step() {
        // When every element of a block shares the same |g|, the block mean
        // square equals the element square, so Adam-mini == AdamW.
        let mut w_mini = Matrix::zeros(2, 4);
        let mut w_adam = Matrix::zeros(2, 4);
        let g = Matrix::full(2, 4, 0.7);
        let mut mini = AdamMini::new();
        let mut adam = crate::AdamW::new();
        one_step(&mut mini, &mut w_mini, &g, 0.1);
        adam.step(
            &mut [ParamUpdate {
                name: "w",
                value: &mut w_adam,
                grad: &g,
                projectable: true,
            }],
            0.1,
        );
        for (a, b) in w_mini.as_slice().iter().zip(w_adam.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn update_is_finite_with_zero_gradient() {
        let mut w = Matrix::full(2, 2, 1.0);
        let g = Matrix::zeros(2, 2);
        let mut opt = AdamMini::new();
        one_step(&mut opt, &mut w, &g, 0.1);
        assert!(w.all_finite());
        assert_eq!(w.get(0, 0), 1.0);
    }
}
