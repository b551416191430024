//! Training-memory accounting (Fig. 1 middle, Table 2/3/6 memory columns).

use apollo_nn::ModelConfig;
use apollo_optim::Method;
use serde::{Deserialize, Serialize};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Storage precision of the model weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightPrecision {
    /// BF16 training (the paper's default): 2 bytes per weight.
    Bf16,
    /// Group-wise INT8 (Q-GaLore / Q-APOLLO): 1 byte per weight plus one
    /// f32 scale per `group` weights.
    Int8 {
        /// Quantization group size (128 in the paper).
        group: usize,
    },
}

impl WeightPrecision {
    fn bytes_per_weight(self) -> f64 {
        match self {
            WeightPrecision::Bf16 => 2.0,
            WeightPrecision::Int8 { group } => 1.0 + 4.0 / group as f64,
        }
    }
}

/// Knobs of a memory estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryOptions {
    /// Weight storage precision.
    pub weights: WeightPrecision,
    /// Bytes per optimizer-state element (2.0 for BF16 states, as in the
    /// paper's accounting). A method whose moments are INT8
    /// ([`Method::bytes_per_state_elem`] is 1) is charged its 1 byte: the
    /// breakdown takes the smaller of the two.
    pub state_bytes_per_elem: f64,
    /// Layer-wise gradient update (Lv et al., 2023): only one layer's
    /// gradient is alive at a time, instead of a full model-sized buffer.
    pub layer_wise_grad: bool,
    /// Micro-batch size.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Activation checkpointing (store layer inputs only, recompute inside).
    pub act_checkpoint: bool,
}

impl MemoryOptions {
    /// The configuration of Fig. 1 (middle): batch 1, BF16 weights,
    /// layer-wise gradient updates, checkpointed activations.
    pub fn figure1(seq: usize) -> Self {
        MemoryOptions {
            weights: WeightPrecision::Bf16,
            state_bytes_per_elem: 2.0,
            layer_wise_grad: true,
            batch: 1,
            seq,
            act_checkpoint: true,
        }
    }

    /// Standard full-gradient eager-mode training at the given batch size
    /// (no activation checkpointing — the AdamW baseline's deployment).
    pub fn standard(batch: usize, seq: usize) -> Self {
        MemoryOptions {
            weights: WeightPrecision::Bf16,
            state_bytes_per_elem: 2.0,
            layer_wise_grad: false,
            batch,
            seq,
            act_checkpoint: false,
        }
    }
}

/// A GiB-level decomposition of training memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Model weights.
    pub weights_gib: f64,
    /// Gradient buffers.
    pub grads_gib: f64,
    /// Optimizer states.
    pub optimizer_gib: f64,
    /// Activations (forward residuals kept for backward).
    pub activations_gib: f64,
}

impl MemoryBreakdown {
    /// Total GiB.
    pub fn total_gib(&self) -> f64 {
        self.weights_gib + self.grads_gib + self.optimizer_gib + self.activations_gib
    }
}

/// Memory model for one model geometry.
///
/// Built from an [`apollo_nn::ModelConfig`], so the inventory of weight
/// shapes is byte-for-byte the same one the real model allocates.
#[derive(Debug, Clone)]
pub struct TrainingMemoryModel {
    cfg: ModelConfig,
    /// `(rows, cols, projectable)` per weight tensor.
    shapes: Vec<(usize, usize, bool)>,
}

impl TrainingMemoryModel {
    /// Builds the model from a geometry. Attention/MLP 2-D weights are
    /// projectable; norm gains and embedding/head tables are not (they get
    /// dense AdamW states under every method, as in the official code).
    pub fn new(cfg: &ModelConfig) -> Self {
        let shapes = cfg
            .weight_shapes()
            .into_iter()
            .map(|(name, r, c)| {
                let projectable =
                    r > 1 && c > 1 && !name.contains("embed") && !name.contains("lm_head");
                (r, c, projectable)
            })
            .collect();
        TrainingMemoryModel {
            cfg: cfg.clone(),
            shapes,
        }
    }

    /// The underlying geometry.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Total weight elements.
    pub fn weight_elems(&self) -> usize {
        self.shapes.iter().map(|&(r, c, _)| r * c).sum()
    }

    /// The largest single tensor (the live gradient under layer-wise
    /// updates).
    fn max_tensor_elems(&self) -> usize {
        self.shapes
            .iter()
            .map(|&(r, c, _)| r * c)
            .max()
            .unwrap_or(0)
    }

    /// Activation bytes (BF16) for one training step's live set.
    ///
    /// The per-layer constant `(48·h + 10·i)` bytes-per-token models an
    /// *eager-mode* framework that materializes every intermediate
    /// (pre/post-norm copies, RoPE outputs, attention projections, softmax
    /// in FP32, SwiGLU gates); it is calibrated so a LLaMA-7B AdamW run at
    /// seq 256 saturates an A100-80G near micro-batch 4, matching §5.3.
    /// A fused/compiled stack would sit several times lower — the *shape*
    /// of the comparisons is unaffected.
    fn activation_bytes(&self, opts: &MemoryOptions) -> f64 {
        let tokens = (opts.batch * opts.seq) as f64;
        let h = self.cfg.hidden as f64;
        let i = self.cfg.intermediate as f64;
        let layers = self.cfg.n_layers as f64;
        let heads = self.cfg.n_heads as f64;
        let per_layer_full = tokens * (48.0 * h + 10.0 * i) * 2.0
            + opts.batch as f64 * heads * (opts.seq as f64).powi(2) * 2.0;
        if opts.act_checkpoint {
            // Keep each layer's input plus one layer's live activations.
            layers * tokens * h * 2.0 + per_layer_full
        } else {
            layers * per_layer_full
        }
    }

    /// Full breakdown for a training method under the given options.
    pub fn breakdown(&self, method: Method, opts: &MemoryOptions) -> MemoryBreakdown {
        let weights_bytes = self.weight_elems() as f64 * opts.weights.bytes_per_weight();
        let grad_elems = if opts.layer_wise_grad {
            self.max_tensor_elems()
        } else {
            self.weight_elems()
        };
        let grads_bytes = grad_elems as f64 * 2.0; // gradients live in BF16
        let per_state_elem = method.bytes_per_state_elem().min(opts.state_bytes_per_elem);
        let optimizer_bytes = method.state_elems(&self.shapes) as f64 * per_state_elem;
        MemoryBreakdown {
            weights_gib: weights_bytes / GIB,
            grads_gib: grads_bytes / GIB,
            optimizer_gib: optimizer_bytes / GIB,
            activations_gib: self.activation_bytes(opts) / GIB,
        }
    }

    /// The `(rows, cols, projectable)` inventory (shared with
    /// [`Method::state_elems`]).
    pub fn shapes(&self) -> &[(usize, usize, bool)] {
        &self.shapes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_7b() -> TrainingMemoryModel {
        TrainingMemoryModel::new(&ModelConfig::llama_7b())
    }

    #[test]
    fn adamw_7b_matches_paper_intro_numbers() {
        // "Training a LLaMA-7B model from scratch requires at least 58 GB,
        // with 28 GB devoted to AdamW's optimizer states" (weights 14 GB,
        // grads 14 GB, activations a few GB).
        let m = model_7b();
        let b = m.breakdown(Method::adamw(), &MemoryOptions::standard(1, 256));
        assert!(
            (12.0..16.0).contains(&b.weights_gib),
            "weights {}",
            b.weights_gib
        );
        assert!(
            (24.0..32.0).contains(&b.optimizer_gib),
            "states {}",
            b.optimizer_gib
        );
        assert!(
            (50.0..64.0).contains(&b.total_gib()),
            "total {}",
            b.total_gib()
        );
    }

    #[test]
    fn apollo_mini_states_are_negligible_on_7b() {
        let m = model_7b();
        let b = m.breakdown(Method::mini(), &MemoryOptions::figure1(256));
        // The residual ~1 GiB is the dense AdamW state of the (untied)
        // embedding and LM-head tables, which the low-rank path never
        // touches; against AdamW's 28 GiB it is negligible.
        assert!(b.optimizer_gib < 1.5, "states {}", b.optimizer_gib);
        let adamw = m
            .breakdown(Method::adamw(), &MemoryOptions::figure1(256))
            .optimizer_gib;
        assert!(b.optimizer_gib < adamw / 20.0);
    }

    #[test]
    fn fig1_ordering_adamw_galore_apollo_mini() {
        let m = model_7b();
        let opts = MemoryOptions::figure1(256);
        let adamw = m.breakdown(Method::adamw(), &opts).total_gib();
        let galore = m.breakdown(Method::galore(1024), &opts).total_gib();
        let apollo = m.breakdown(Method::apollo(256), &opts).total_gib();
        let mini = m.breakdown(Method::mini(), &opts).total_gib();
        assert!(
            adamw > galore && galore > apollo && apollo > mini,
            "ordering: {adamw:.1} > {galore:.1} > {apollo:.1} > {mini:.1}"
        );
    }

    #[test]
    fn layer_wise_gradients_shrink_grad_memory() {
        let m = model_7b();
        let full = m.breakdown(Method::adamw(), &MemoryOptions::standard(1, 256));
        let lw = m.breakdown(Method::adamw(), &MemoryOptions::figure1(256));
        assert!(lw.grads_gib < full.grads_gib / 10.0);
    }

    #[test]
    fn int8_weights_halve_the_weight_term() {
        let m = model_7b();
        let mut opts = MemoryOptions::figure1(256);
        let bf16 = m.breakdown(Method::mini(), &opts).weights_gib;
        opts.weights = WeightPrecision::Int8 { group: 128 };
        let int8 = m.breakdown(Method::mini(), &opts).weights_gib;
        assert!((bf16 / int8 - 1.94).abs() < 0.1, "ratio {}", bf16 / int8);
    }

    #[test]
    fn activations_grow_linearly_with_batch() {
        let m = model_7b();
        let a1 = m
            .breakdown(Method::adamw(), &MemoryOptions::standard(1, 256))
            .activations_gib;
        let a4 = m
            .breakdown(Method::adamw(), &MemoryOptions::standard(4, 256))
            .activations_gib;
        assert!((a4 / a1 - 4.0).abs() < 0.2, "ratio {}", a4 / a1);
    }

    #[test]
    fn table2_memory_column_ordering_60m() {
        // Table 2 (weights + optimizer states only): AdamW 0.36G,
        // GaLore 0.24G, APOLLO 0.24G, APOLLO(half rank) 0.18G, Mini 0.12G.
        let m = TrainingMemoryModel::new(&ModelConfig::llama_60m());
        let wo = |spec: Method| {
            let b = m.breakdown(spec, &MemoryOptions::figure1(256));
            b.weights_gib + b.optimizer_gib
        };
        let adamw = wo(Method::adamw());
        let galore = wo(Method::galore(128));
        let apollo = wo(Method::apollo(128));
        let apollo_half = wo(Method::apollo(64));
        let mini = wo(Method::mini());
        assert!((0.3..0.45).contains(&adamw), "adamw {adamw}");
        assert!(galore < adamw && apollo <= galore, "{galore} vs {apollo}");
        assert!(apollo_half < apollo);
        assert!(mini < apollo_half);
    }
}
