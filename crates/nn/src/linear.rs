//! Linear layers with pluggable parameterizations (dense / LoRA / factored).

use apollo_autograd::{Graph, NodeId};
use apollo_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::param::{Param, ParamKind};

/// How a linear layer's weight is parameterized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinearMode {
    /// Full-rank trainable weight `W` (`y = x·W`).
    Dense,
    /// Frozen backbone plus trainable low-rank adapter:
    /// `y = x·W₀ + (x·A)·B · (alpha / rank)`.
    ///
    /// `A: in × r` (Gaussian init), `B: r × out` (zero init), so the adapter
    /// starts as the identity-of-backbone, as in Hu et al. (2021).
    LoRa {
        /// Adapter rank.
        rank: usize,
        /// LoRA scaling numerator (effective scale is `alpha / rank`).
        alpha: f32,
    },
    /// Fully factored weight `W = U·V` with both factors trained — the
    /// "Low-Rank" pre-training baseline of Table 2.
    Factored {
        /// Factorization rank.
        rank: usize,
    },
}

/// A linear layer holding indices into the model's flat parameter list.
#[derive(Debug, Clone)]
pub struct Linear {
    mode: LinearMode,
    in_dim: usize,
    out_dim: usize,
    /// Dense weight or frozen LoRA backbone.
    w0: Option<usize>,
    /// LoRA `A` / factored `U`.
    a: Option<usize>,
    /// LoRA `B` / factored `V`.
    b: Option<usize>,
}

impl Linear {
    /// Creates the layer's parameters (pushed onto `params`) and returns the
    /// layer. Dense weights use `N(0, 1/√in)` init.
    pub fn new(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        mode: LinearMode,
        params: &mut Vec<Param>,
        rng: &mut Rng,
    ) -> Self {
        let std = 1.0 / (in_dim as f32).sqrt();
        let mut layer = Linear {
            mode,
            in_dim,
            out_dim,
            w0: None,
            a: None,
            b: None,
        };
        match mode {
            LinearMode::Dense => {
                params.push(Param::new(
                    name,
                    Matrix::randn_scaled(in_dim, out_dim, std, rng),
                    ParamKind::Projectable,
                ));
                layer.w0 = Some(params.len() - 1);
            }
            LinearMode::LoRa { rank, .. } => {
                assert!(rank > 0, "LoRA rank must be positive");
                params.push(Param::frozen(
                    format!("{name}.base"),
                    Matrix::randn_scaled(in_dim, out_dim, std, rng),
                    ParamKind::Projectable,
                ));
                layer.w0 = Some(params.len() - 1);
                params.push(Param::new(
                    format!("{name}.lora_a"),
                    Matrix::randn_scaled(in_dim, rank, std, rng),
                    ParamKind::Projectable,
                ));
                layer.a = Some(params.len() - 1);
                params.push(Param::new(
                    format!("{name}.lora_b"),
                    Matrix::zeros(rank, out_dim),
                    ParamKind::Projectable,
                ));
                layer.b = Some(params.len() - 1);
            }
            LinearMode::Factored { rank } => {
                assert!(rank > 0, "factored rank must be positive");
                let stdr = 1.0 / (rank as f32).sqrt();
                params.push(Param::new(
                    format!("{name}.u"),
                    Matrix::randn_scaled(in_dim, rank, std, rng),
                    ParamKind::Projectable,
                ));
                layer.a = Some(params.len() - 1);
                params.push(Param::new(
                    format!("{name}.v"),
                    Matrix::randn_scaled(rank, out_dim, stdr, rng),
                    ParamKind::Projectable,
                ));
                layer.b = Some(params.len() - 1);
            }
        }
        layer
    }

    /// Records the forward computation `y = x·W_effective` on the graph.
    ///
    /// `pnodes` maps parameter index → graph node, as produced by the model
    /// at the start of each step. A LoRA layer's sum takes over the scaled
    /// adapter output's buffer: no backward arm reads that value.
    pub fn forward(&self, g: &mut Graph<'_>, x: NodeId, pnodes: &[NodeId]) -> NodeId {
        match self.mode {
            LinearMode::Dense => g.matmul(x, pnodes[self.w0.unwrap()]),
            LinearMode::LoRa { rank, alpha } => {
                let base = g.matmul(x, pnodes[self.w0.unwrap()]);
                let xa = g.matmul(x, pnodes[self.a.unwrap()]);
                let xab = g.matmul(xa, pnodes[self.b.unwrap()]);
                let scaled = g.scale(xab, alpha / rank as f32);
                g.add_consuming(base, scaled)
            }
            LinearMode::Factored { .. } => {
                let xu = g.matmul(x, pnodes[self.a.unwrap()]);
                g.matmul(xu, pnodes[self.b.unwrap()])
            }
        }
    }

    /// Tape-free forward `y = x·W_effective` against the raw parameter
    /// values, for the incremental decode path. Performs the same matrix
    /// products in the same order as [`Linear::forward`], so the result is
    /// bit-identical to the graph forward on the same rows.
    pub(crate) fn forward_nograd(&self, x: &Matrix, params: &[Param]) -> Matrix {
        match self.mode {
            LinearMode::Dense => x.matmul(&params[self.w0.unwrap()].value),
            LinearMode::LoRa { rank, alpha } => {
                let base = x.matmul(&params[self.w0.unwrap()].value);
                let xa = x.matmul(&params[self.a.unwrap()].value);
                let xab = xa.matmul(&params[self.b.unwrap()].value);
                let scaled = xab.scale(alpha / rank as f32);
                base.add(&scaled)
            }
            LinearMode::Factored { .. } => {
                let xu = x.matmul(&params[self.a.unwrap()].value);
                xu.matmul(&params[self.b.unwrap()].value)
            }
        }
    }

    /// Materializes the effective dense weight `W_effective` (`in × out`)
    /// regardless of parameterization — the matrix [`Linear::forward`]
    /// multiplies by. Used to quantize a trained model for INT8 decode.
    pub fn effective_weight(&self, params: &[Param]) -> Matrix {
        match self.mode {
            LinearMode::Dense => params[self.w0.unwrap()].value.clone(),
            LinearMode::LoRa { rank, alpha } => {
                let mut w = params[self.w0.unwrap()].value.clone();
                let delta = params[self.a.unwrap()]
                    .value
                    .matmul(&params[self.b.unwrap()].value);
                w.axpy(alpha / rank as f32, &delta);
                w
            }
            LinearMode::Factored { .. } => params[self.a.unwrap()]
                .value
                .matmul(&params[self.b.unwrap()].value),
        }
    }

    /// Replaces a dense layer's weight in place (used to build dequantized
    /// oracle models for the quantized-decode tolerance tests).
    ///
    /// # Panics
    ///
    /// Panics unless the layer is [`LinearMode::Dense`] and `w` has the
    /// layer's shape.
    pub fn overwrite_dense(&self, params: &mut [Param], w: Matrix) {
        assert!(
            matches!(self.mode, LinearMode::Dense),
            "overwrite_dense requires a dense layer"
        );
        assert_eq!(w.shape(), (self.in_dim, self.out_dim), "weight shape");
        params[self.w0.unwrap()].value = w;
    }

    /// Merges the LoRA adapter into the backbone and re-initializes the
    /// adapter (ReLoRA's periodic merge). No-op for other modes.
    pub fn merge_adapter(&self, params: &mut [Param], rng: &mut Rng) {
        if let LinearMode::LoRa { rank, alpha } = self.mode {
            let a = params[self.a.unwrap()].value.clone();
            let b = params[self.b.unwrap()].value.clone();
            let delta = a.matmul(&b);
            params[self.w0.unwrap()]
                .value
                .axpy(alpha / rank as f32, &delta);
            let std = 1.0 / (self.in_dim as f32).sqrt();
            params[self.a.unwrap()].value = Matrix::randn_scaled(self.in_dim, rank, std, rng);
            params[self.b.unwrap()].value = Matrix::zeros(rank, self.out_dim);
        }
    }

    /// For a LoRA layer, the parameter indices of `A` and `B` plus the
    /// effective scale `alpha / rank`; `None` for other modes. Lets the
    /// adapter extractor ([`crate::adapter::LoraAdapter::from_model`]) walk
    /// the low-rank factors without duplicating the layout.
    pub(crate) fn lora_indices(&self) -> Option<(usize, usize, f32)> {
        match self.mode {
            LinearMode::LoRa { rank, alpha } => {
                Some((self.a.unwrap(), self.b.unwrap(), alpha / rank as f32))
            }
            _ => None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The parameterization mode.
    pub fn mode(&self) -> LinearMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward_once(layer: &Linear, params: &[Param], x: &Matrix) -> Matrix {
        let mut g = Graph::new();
        let pnodes: Vec<NodeId> = params.iter().map(|p| g.param(&p.value)).collect();
        let xid = g.input(x.clone());
        let y = layer.forward(&mut g, xid, &pnodes);
        g.value(y).clone()
    }

    #[test]
    fn dense_forward_is_plain_matmul() {
        let mut rng = Rng::seed_from_u64(40);
        let mut params = Vec::new();
        let lin = Linear::new("w", 4, 3, LinearMode::Dense, &mut params, &mut rng);
        let x = Matrix::randn(2, 4, &mut rng);
        let y = forward_once(&lin, &params, &x);
        let expect = x.matmul(&params[0].value);
        assert_eq!(y, expect);
    }

    #[test]
    fn lora_starts_equal_to_backbone() {
        let mut rng = Rng::seed_from_u64(41);
        let mut params = Vec::new();
        let lin = Linear::new(
            "w",
            4,
            3,
            LinearMode::LoRa {
                rank: 2,
                alpha: 8.0,
            },
            &mut params,
            &mut rng,
        );
        let x = Matrix::randn(2, 4, &mut rng);
        let y = forward_once(&lin, &params, &x);
        let expect = x.matmul(&params[0].value);
        for (a, b) in y.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-6, "adapter must start at zero");
        }
        assert!(!params[0].trainable, "backbone frozen");
        assert!(params[1].trainable && params[2].trainable);
    }

    #[test]
    fn factored_matches_explicit_product() {
        let mut rng = Rng::seed_from_u64(42);
        let mut params = Vec::new();
        let lin = Linear::new(
            "w",
            5,
            4,
            LinearMode::Factored { rank: 2 },
            &mut params,
            &mut rng,
        );
        let x = Matrix::randn(3, 5, &mut rng);
        let y = forward_once(&lin, &params, &x);
        let expect = x.matmul(&params[0].value.matmul(&params[1].value));
        for (a, b) in y.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn merge_adapter_preserves_function_and_resets() {
        let mut rng = Rng::seed_from_u64(43);
        let mut params = Vec::new();
        let lin = Linear::new(
            "w",
            4,
            4,
            LinearMode::LoRa {
                rank: 2,
                alpha: 4.0,
            },
            &mut params,
            &mut rng,
        );
        // Give the adapter a nonzero B so the merge actually moves weight.
        params[2].value = Matrix::randn(2, 4, &mut rng);
        let x = Matrix::randn(3, 4, &mut rng);
        let before = forward_once(&lin, &params, &x);
        lin.merge_adapter(&mut params, &mut rng);
        let after = forward_once(&lin, &params, &x);
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!(
                (a - b).abs() < 1e-4,
                "merge changed the function: {a} vs {b}"
            );
        }
        assert!(params[2].value.fro_norm() == 0.0, "B must reset to zero");
    }
}
