//! INT8 weight / BF16 KV-cache decode: the relaxed tier (`--int8-decode`).
//!
//! [`QuantizedModel`] snapshots a trained [`LlamaModel`] into group-128
//! INT8 weights (one [`QuantizedMatrix`] per attention/MLP linear and the
//! LM head) and decodes against BF16 key/value caches. It runs the same
//! cached walk as the dense model (`decode.rs`); what is INT8-specific
//! lives here: the snapshot, and a projection that is a fused
//! dequantize-GEMV per activation row — the f32 weight matrix is never
//! materialized. Being relaxed by construction, the walk gives it the
//! explicit-SIMD norm/softmax/activation kernels of
//! [`apollo_tensor::simd`] and the attention kernels that load BF16
//! operands in register.
//!
//! Unlike [`LlamaModel::forward_cached`], this tier makes **no bitwise
//! promise against the graph forward**: it is gated by the relaxed-tier
//! tolerance tests (`nn/tests/quantized_decode.rs`), which bound its
//! divergence from an exact model holding the same dequantized weights.
//! It *is* bitwise invariant to how rows are batched or chunked (every
//! relaxed op runs per row), which `nn/tests/decode_equivalence.rs` pins.

use apollo_quant::QuantizedMatrix;
use apollo_tensor::Matrix;

use crate::config::ModelConfig;
use crate::decode::{self, KvCache, Weights};
use crate::model::{LlamaModel, Proj};

/// INT8 weight-group size; 128 as in Q-GaLore / the paper's Q-APOLLO runs.
pub const DECODE_QUANT_GROUP: usize = 128;

/// One transformer layer with INT8 projection weights and f32 norm gains.
#[derive(Debug, Clone)]
struct QuantizedLayer {
    attn_norm: Matrix,
    mlp_norm: Matrix,
    /// The seven projections, indexed by [`Proj`].
    proj: [QuantizedMatrix; 7],
}

/// An INT8-quantized snapshot of a [`LlamaModel`] for fast decode.
///
/// The embedding table and norm gains stay in f32 (the embedding is a
/// row gather, not a matmul; the gains are `1 × hidden`); every projection
/// weight — wq/wk/wv/wo, gate/up/down, and the LM head — is group-wise
/// INT8.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    cfg: ModelConfig,
    embed: Matrix,
    layers: Vec<QuantizedLayer>,
    final_norm: Matrix,
    head: QuantizedMatrix,
}

impl QuantizedModel {
    /// Quantizes a trained model with the default group size
    /// ([`DECODE_QUANT_GROUP`]).
    pub fn from_model(model: &LlamaModel) -> Self {
        Self::from_model_grouped(model, DECODE_QUANT_GROUP)
    }

    /// Quantizes a trained model with an explicit group size. Works for any
    /// [`crate::LinearMode`]: each linear's effective dense weight is
    /// materialized once, quantized, and dropped.
    ///
    /// # Panics
    ///
    /// Panics if `group == 0`.
    pub fn from_model_grouped(model: &LlamaModel, group: usize) -> Self {
        let q = |lin: &crate::linear::Linear| {
            QuantizedMatrix::quantize(&lin.effective_weight(&model.params), group)
        };
        let gain = |idx: usize| model.params[idx].value.clone();
        QuantizedModel {
            cfg: model.cfg.clone(),
            embed: model.params[model.embed].value.clone(),
            layers: model
                .layers
                .iter()
                .map(|l| QuantizedLayer {
                    attn_norm: gain(l.attn_norm),
                    mlp_norm: gain(l.mlp_norm),
                    proj: l.linears().map(q),
                })
                .collect(),
            final_norm: gain(model.final_norm),
            head: QuantizedMatrix::quantize(&model.params[model.head].value, group),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Bytes of weight storage: INT8 data + group scales for every
    /// quantized projection, plus the f32 embedding and norm gains.
    pub fn weight_bytes(&self) -> usize {
        let mut total = self.embed.len() * 4 + self.final_norm.len() * 4 + self.head.memory_bytes();
        for l in &self.layers {
            total += (l.attn_norm.len() + l.mlp_norm.len()) * 4;
            total += l
                .proj
                .iter()
                .map(QuantizedMatrix::memory_bytes)
                .sum::<usize>();
        }
        total
    }

    /// Allocates a fresh BF16 [`KvCache`] able to hold `capacity` positions.
    pub fn new_kv_cache(&self, capacity: usize) -> KvCache {
        KvCache::new(&self.cfg, capacity, true)
    }

    /// [`LlamaModel::forward_cached`] on the INT8 tier: the same walk and
    /// row semantics against BF16 caches, panicking on the same conditions;
    /// only the projection and the kernels that read the cache differ.
    pub fn forward_cached(&self, caches: &mut [KvCache], rows: &[(usize, u32)]) -> Matrix {
        decode::forward_cached(self, caches, rows)
    }

    /// Decodes final-norm hidden rows through the INT8 LM head.
    pub fn lm_logits(&self, hidden: &Matrix) -> Matrix {
        self.head.dequant_matmul(hidden)
    }

    /// Rebuilds a dense [`LlamaModel`] holding this snapshot's
    /// *dequantized* weights — the tolerance-test oracle: running it
    /// exactly isolates the relaxed-tier arithmetic error from the
    /// quantization error.
    ///
    /// # Panics
    ///
    /// Panics unless `template` is a dense model with this snapshot's
    /// geometry.
    pub fn dequantize_into(&self, template: &LlamaModel) -> LlamaModel {
        let mut m = template.clone();
        for (l, ql) in m.layers.clone().iter().zip(&self.layers) {
            for (lin, qw) in l.linears().into_iter().zip(&ql.proj) {
                lin.overwrite_dense(&mut m.params, qw.dequantize());
            }
        }
        m.params[m.head].value = self.head.dequantize();
        m
    }
}

/// Every projection is the fused dequantize-GEMV, one activation row at a
/// time; the f32 weight matrix is never materialized.
impl Weights for QuantizedModel {
    fn cfg(&self) -> &ModelConfig {
        &self.cfg
    }

    fn embed_row(&self, tok: usize) -> &[f32] {
        self.embed.row(tok)
    }

    fn attn_norm(&self, l: usize) -> &Matrix {
        &self.layers[l].attn_norm
    }

    fn mlp_norm(&self, l: usize) -> &Matrix {
        &self.layers[l].mlp_norm
    }

    fn final_norm(&self) -> &Matrix {
        &self.final_norm
    }

    fn project(&self, l: usize, which: Proj, x: &Matrix, y: &mut Matrix) {
        self.layers[l].proj[which as usize].dequant_matmul_into(x, y)
    }

    fn is_relaxed(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvCache, LinearMode};
    use apollo_tensor::Rng;

    fn decode_both(
        model: &LlamaModel,
        qm: &QuantizedModel,
        tokens: &[u32],
    ) -> (Vec<Matrix>, Vec<Matrix>) {
        let mut ec: Vec<KvCache> = vec![model.new_kv_cache(tokens.len())];
        let mut qc = vec![qm.new_kv_cache(tokens.len())];
        let mut exact = Vec::new();
        let mut fast = Vec::new();
        for &t in tokens {
            let he = model.forward_cached(&mut ec, &[(0, t)]);
            let hq = qm.forward_cached(&mut qc, &[(0, t)]);
            exact.push(model.lm_logits(&he));
            fast.push(qm.lm_logits(&hq));
        }
        (exact, fast)
    }

    #[test]
    fn quantized_decode_tracks_dequantized_exact_model() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(70);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let qm = QuantizedModel::from_model(&model);
        // Oracle: an exact model holding the dequantized weights — this
        // isolates relaxed-tier arithmetic error from quantization error.
        let oracle = qm.dequantize_into(&model);
        let tokens: Vec<u32> = (0..12).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let (exact, fast) = decode_both(&oracle, &qm, &tokens);
        // Residual divergence is dominated by the BF16 KV rounding (2⁻⁸
        // relative per element), compounded across layers and positions.
        for (step, (e, f)) in exact.iter().zip(&fast).enumerate() {
            for (a, b) in e.as_slice().iter().zip(f.as_slice()) {
                let tol = 2e-2 * a.abs().max(1.0);
                assert!((a - b).abs() <= tol, "step {step}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quantized_decode_argmax_matches_source_model() {
        // Against the *source* model (quantization error included) the
        // logits drift, but greedy decode should still agree on a short
        // horizon for a random init.
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(71);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let qm = QuantizedModel::from_model(&model);
        let tokens: Vec<u32> = (0..8).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let (exact, fast) = decode_both(&model, &qm, &tokens);
        let argmax = |m: &Matrix| {
            let row = m.row(0);
            (0..row.len())
                .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                .unwrap()
        };
        let agree = exact
            .iter()
            .zip(&fast)
            .filter(|(e, f)| argmax(e) == argmax(f))
            .count();
        assert!(agree >= 6, "only {agree}/8 greedy tokens agree");
    }

    #[test]
    fn bf16_cache_accounts_memory_and_clears() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(72);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let qm = QuantizedModel::from_model(&model);
        let mut cache = qm.new_kv_cache(16);
        assert_eq!(cache.memory_bytes(), 2 * 2 * cfg.n_layers * 16 * cfg.hidden);
        assert_eq!(cache.remaining(), 16);
        qm.forward_cached(std::slice::from_mut(&mut cache), &[(0, 1), (0, 2)]);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn quantized_weights_use_a_fraction_of_f32_storage() {
        let cfg = ModelConfig::tiny_60m();
        let mut rng = Rng::seed_from_u64(73);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let qm = QuantizedModel::from_model(&model);
        let f32_bytes: usize = model.params.iter().map(|p| p.value.len() * 4).sum();
        // Projections drop to ~1/4; embedding/head dominate tiny geometries
        // so just require a strict saving.
        assert!(
            qm.weight_bytes() < f32_bytes,
            "{} !< {f32_bytes}",
            qm.weight_bytes()
        );
    }

    #[test]
    fn lora_and_factored_models_quantize_via_effective_weights() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(74);
        for mode in [
            LinearMode::LoRa {
                rank: 2,
                alpha: 4.0,
            },
            LinearMode::Factored { rank: 4 },
        ] {
            let model = LlamaModel::new(&cfg, mode, &mut rng);
            let qm = QuantizedModel::from_model(&model);
            let mut cache = qm.new_kv_cache(4);
            let h = qm.forward_cached(std::slice::from_mut(&mut cache), &[(0, 3)]);
            assert!(qm.lm_logits(&h).all_finite());
        }
    }
}
