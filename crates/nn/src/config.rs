//! Model geometries: the paper's Table 8 configurations plus CPU-scale
//! proxies used for the actual training runs.

use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of a LLaMA-style decoder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"llama-60m"` or `"tiny-60m"`.
    pub name: String,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// SwiGLU intermediate dimension.
    pub intermediate: usize,
    /// Number of attention heads (`hidden % n_heads == 0`).
    pub n_heads: usize,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Training context length.
    pub max_seq: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
}

impl ModelConfig {
    /// Builds a config after validating divisibility constraints.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `n_heads` or the head dim is
    /// odd (RoPE needs even head dims).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        vocab_size: usize,
        hidden: usize,
        intermediate: usize,
        n_heads: usize,
        n_layers: usize,
        max_seq: usize,
    ) -> Self {
        // Geometry constraints are only enforced for configs that are
        // actually trained (see `LlamaModel::new`); the paper's Table 8
        // geometries (e.g. LLaMA-1B with 24 heads over hidden 2048) are used
        // purely by the analytic memory model.
        ModelConfig {
            name: name.to_string(),
            vocab_size,
            hidden,
            intermediate,
            n_heads,
            n_layers,
            max_seq,
            rope_theta: 10_000.0,
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.n_heads
    }

    // ----- Paper geometries (Table 8; vocab 32000, seq 256) ------------------

    /// LLaMA-60M (Table 8).
    pub fn llama_60m() -> Self {
        Self::new("llama-60m", 32_000, 512, 1376, 8, 8, 256)
    }

    /// LLaMA-130M (Table 8).
    pub fn llama_130m() -> Self {
        Self::new("llama-130m", 32_000, 768, 2048, 12, 12, 256)
    }

    /// LLaMA-350M (Table 8).
    pub fn llama_350m() -> Self {
        Self::new("llama-350m", 32_000, 1024, 2736, 16, 24, 256)
    }

    /// LLaMA-1B (Table 8).
    pub fn llama_1b() -> Self {
        Self::new("llama-1b", 32_000, 2048, 5461, 24, 32, 256)
    }

    /// LLaMA-7B (Table 8).
    pub fn llama_7b() -> Self {
        Self::new("llama-7b", 32_000, 4096, 11_008, 32, 32, 256)
    }

    /// LLaMA-13B (standard geometry; used for the §5.3 DDP claim).
    pub fn llama_13b() -> Self {
        Self::new("llama-13b", 32_000, 5120, 13_824, 40, 40, 256)
    }

    // ----- CPU proxies --------------------------------------------------------
    //
    // Same depth/width *ratios* as the paper models (width ÷ 8, depth ÷ 4,
    // vocab 512, seq 64) so layer shapes keep m ≤ n orientations and the
    // relative model ordering. These are what the experiment harness trains.

    /// CPU proxy for LLaMA-60M.
    pub fn tiny_60m() -> Self {
        Self::new("tiny-60m", 512, 64, 172, 4, 2, 64)
    }

    /// CPU proxy for LLaMA-130M.
    pub fn tiny_130m() -> Self {
        Self::new("tiny-130m", 512, 96, 256, 4, 3, 64)
    }

    /// CPU proxy for LLaMA-350M.
    pub fn tiny_350m() -> Self {
        Self::new("tiny-350m", 512, 128, 344, 8, 4, 64)
    }

    /// CPU proxy for LLaMA-1B.
    pub fn tiny_1b() -> Self {
        Self::new("tiny-1b", 512, 192, 512, 8, 5, 64)
    }

    /// CPU proxy for LLaMA-7B.
    pub fn tiny_7b() -> Self {
        Self::new("tiny-7b", 512, 256, 688, 8, 6, 64)
    }

    /// Minimal config for unit tests (trains in milliseconds).
    pub fn test_tiny() -> Self {
        Self::new("test-tiny", 64, 16, 32, 2, 2, 8)
    }

    /// The default projection rank the paper uses for this geometry
    /// (one-quarter of the hidden dimension).
    pub fn default_rank(&self) -> usize {
        (self.hidden / 4).max(1)
    }

    /// Shapes of every weight tensor `(name, rows, cols)`, in declaration
    /// order. Linear weights are stored `[in, out]` (`y = x·W`).
    ///
    /// The analytic memory model reads it. `LlamaModel::new` builds its
    /// parameters on its own; a unit test holds the dense model's names and
    /// shapes to this list.
    pub fn weight_shapes(&self) -> Vec<(String, usize, usize)> {
        let h = self.hidden;
        let mut shapes = vec![("embed.weight".to_string(), self.vocab_size, h)];
        for l in 0..self.n_layers {
            let p = |s: &str| format!("layers.{l}.{s}");
            shapes.push((p("attn_norm.gain"), 1, h));
            shapes.push((p("attn.wq"), h, h));
            shapes.push((p("attn.wk"), h, h));
            shapes.push((p("attn.wv"), h, h));
            shapes.push((p("attn.wo"), h, h));
            shapes.push((p("mlp_norm.gain"), 1, h));
            shapes.push((p("mlp.gate"), h, self.intermediate));
            shapes.push((p("mlp.up"), h, self.intermediate));
            shapes.push((p("mlp.down"), self.intermediate, h));
        }
        shapes.push(("final_norm.gain".to_string(), 1, h));
        shapes.push(("lm_head.weight".to_string(), h, self.vocab_size));
        shapes
    }

    /// Total parameter count of the dense model.
    pub fn num_params(&self) -> usize {
        self.weight_shapes().iter().map(|(_, r, c)| r * c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_param_counts_are_in_the_right_ballpark() {
        // The names are nominal; check the count lands near the label.
        let m60 = ModelConfig::llama_60m().num_params() as f64;
        assert!((40e6..80e6).contains(&m60), "60m: {m60}");
        // With an untied 32k-vocab head the nominal "1B" geometry carries
        // ~1.7B parameters; the label refers to the non-embedding trunk.
        let m1b = ModelConfig::llama_1b().num_params() as f64;
        assert!((0.9e9..2.0e9).contains(&m1b), "1b: {m1b}");
        let m7b = ModelConfig::llama_7b().num_params() as f64;
        assert!((6e9..8e9).contains(&m7b), "7b: {m7b}");
    }

    #[test]
    fn param_count_monotone_in_model_size() {
        let sizes: Vec<usize> = [
            ModelConfig::llama_60m(),
            ModelConfig::llama_130m(),
            ModelConfig::llama_350m(),
            ModelConfig::llama_1b(),
            ModelConfig::llama_7b(),
            ModelConfig::llama_13b(),
        ]
        .iter()
        .map(ModelConfig::num_params)
        .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    }

    #[test]
    fn tiny_proxies_keep_ordering() {
        let sizes: Vec<usize> = [
            ModelConfig::tiny_60m(),
            ModelConfig::tiny_130m(),
            ModelConfig::tiny_350m(),
            ModelConfig::tiny_1b(),
            ModelConfig::tiny_7b(),
        ]
        .iter()
        .map(ModelConfig::num_params)
        .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    }

    #[test]
    fn weight_shapes_cover_all_layers() {
        let cfg = ModelConfig::test_tiny();
        let shapes = cfg.weight_shapes();
        // embed + final norm + head + 9 per layer (2 norms + 4 attn + 3 mlp).
        assert_eq!(shapes.len(), 3 + 9 * cfg.n_layers);
        assert!(shapes.iter().any(|(n, _, _)| n == "layers.1.mlp.down"));
    }

    #[test]
    fn head_dim_of_trainable_configs_is_even() {
        for cfg in [
            ModelConfig::test_tiny(),
            ModelConfig::tiny_60m(),
            ModelConfig::tiny_130m(),
            ModelConfig::tiny_350m(),
            ModelConfig::tiny_1b(),
            ModelConfig::tiny_7b(),
        ] {
            assert_eq!(cfg.hidden % cfg.n_heads, 0, "{}", cfg.name);
            assert_eq!(cfg.head_dim() % 2, 0, "{}", cfg.name);
        }
    }

    #[test]
    fn default_rank_is_quarter_hidden() {
        assert_eq!(ModelConfig::llama_60m().default_rank(), 128);
        assert_eq!(ModelConfig::tiny_60m().default_rank(), 16);
    }
}
