//! The LLaMA-style decoder model.

use apollo_autograd::{Graph, NodeId};
use apollo_tensor::{Matrix, Rng};

use crate::config::ModelConfig;
use crate::linear::{Linear, LinearMode};
use crate::param::{Param, ParamKind};

/// Parameter indices of one transformer layer. `pub(crate)` so the
/// tape-free decode path ([`crate::decode`]) can walk the same layout.
#[derive(Debug, Clone)]
pub(crate) struct Layer {
    pub(crate) attn_norm: usize,
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) mlp_norm: usize,
    pub(crate) gate: Linear,
    pub(crate) up: Linear,
    pub(crate) down: Linear,
}

/// One of a layer's seven projections. The discriminant is the index into
/// every per-projection array in this crate ([`Layer::linears`], an
/// adapter's deltas, a quantized layer's INT8 weights).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Proj {
    Q,
    K,
    V,
    O,
    Gate,
    Up,
    Down,
}

impl Layer {
    /// The seven projection linears, in [`Proj`] order.
    pub(crate) fn linears(&self) -> [&Linear; 7] {
        [
            &self.wq, &self.wk, &self.wv, &self.wo, &self.gate, &self.up, &self.down,
        ]
    }
}

/// A decoder-only transformer: embedding → N × (attention + SwiGLU) →
/// final norm → LM head.
///
/// Parameters live in a flat, named [`Param`] list so optimizers can walk
/// them uniformly; see the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct LlamaModel {
    pub(crate) cfg: ModelConfig,
    /// Flat parameter list (embedding, per-layer weights, final norm, head).
    pub params: Vec<Param>,
    pub(crate) layers: Vec<Layer>,
    pub(crate) embed: usize,
    pub(crate) final_norm: usize,
    pub(crate) head: usize,
}

impl LlamaModel {
    /// Initializes a model. `mode` selects the parameterization of the
    /// attention/MLP linear layers (embedding, norms and LM head are always
    /// dense and trainable).
    /// # Panics
    ///
    /// Panics if `hidden` does not divide into an even head dimension
    /// (required by RoPE).
    pub fn new(cfg: &ModelConfig, mode: LinearMode, rng: &mut Rng) -> Self {
        assert_eq!(cfg.hidden % cfg.n_heads, 0, "hidden must divide by n_heads");
        assert_eq!(cfg.head_dim() % 2, 0, "head_dim must be even for RoPE");
        let h = cfg.hidden;
        let mut params = Vec::new();

        params.push(Param::new(
            "embed.weight",
            Matrix::randn_scaled(cfg.vocab_size, h, 0.02, rng),
            ParamKind::Embedding,
        ));
        let embed = 0;

        let mut layers = Vec::with_capacity(cfg.n_layers);
        for l in 0..cfg.n_layers {
            let p = |s: &str| format!("layers.{l}.{s}");
            params.push(Param::new(
                p("attn_norm.gain"),
                Matrix::full(1, h, 1.0),
                ParamKind::Norm,
            ));
            let attn_norm = params.len() - 1;
            let wq = Linear::new(&p("attn.wq"), h, h, mode, &mut params, rng);
            let wk = Linear::new(&p("attn.wk"), h, h, mode, &mut params, rng);
            let wv = Linear::new(&p("attn.wv"), h, h, mode, &mut params, rng);
            let wo = Linear::new(&p("attn.wo"), h, h, mode, &mut params, rng);
            params.push(Param::new(
                p("mlp_norm.gain"),
                Matrix::full(1, h, 1.0),
                ParamKind::Norm,
            ));
            let mlp_norm = params.len() - 1;
            let gate = Linear::new(&p("mlp.gate"), h, cfg.intermediate, mode, &mut params, rng);
            let up = Linear::new(&p("mlp.up"), h, cfg.intermediate, mode, &mut params, rng);
            let down = Linear::new(&p("mlp.down"), cfg.intermediate, h, mode, &mut params, rng);
            layers.push(Layer {
                attn_norm,
                wq,
                wk,
                wv,
                wo,
                mlp_norm,
                gate,
                up,
                down,
            });
        }

        params.push(Param::new(
            "final_norm.gain",
            Matrix::full(1, h, 1.0),
            ParamKind::Norm,
        ));
        let final_norm = params.len() - 1;
        params.push(Param::new(
            "lm_head.weight",
            Matrix::randn_scaled(h, cfg.vocab_size, 1.0 / (h as f32).sqrt(), rng),
            ParamKind::Embedding,
        ));
        let head = params.len() - 1;

        LlamaModel {
            cfg: cfg.clone(),
            params,
            layers,
            embed,
            final_norm,
            head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The [`LinearMode`] the attention/MLP layers were built with
    /// ([`LinearMode::Dense`] for a model without layers).
    pub fn mode(&self) -> LinearMode {
        self.layers
            .first()
            .map_or(LinearMode::Dense, |l| l.wq.mode())
    }

    /// Total trainable parameter count.
    pub fn num_trainable(&self) -> usize {
        self.params
            .iter()
            .filter(|p| p.trainable)
            .map(Param::len)
            .sum()
    }

    /// Builds the transformer trunk up to the final RMSNorm output
    /// (`(batch·seq) × hidden`), returning the tape, the trunk output node,
    /// and one graph node per parameter.
    pub(crate) fn build_trunk(&self, tokens: &[u32], batch: usize) -> (Graph, NodeId, Vec<NodeId>) {
        assert!(
            batch > 0 && tokens.len().is_multiple_of(batch),
            "tokens must split into batch rows"
        );
        let seq = tokens.len() / batch;
        let heads = self.cfg.n_heads;
        let mut g = Graph::new();
        let pnodes: Vec<NodeId> = self
            .params
            .iter()
            .map(|p| g.param(p.value.clone()))
            .collect();

        let mut x = g.gather(pnodes[self.embed], tokens);
        for layer in &self.layers {
            let hn = g.rmsnorm(x, pnodes[layer.attn_norm], 1e-5);
            let q0 = layer.wq.forward(&mut g, hn, &pnodes);
            let k0 = layer.wk.forward(&mut g, hn, &pnodes);
            let v = layer.wv.forward(&mut g, hn, &pnodes);
            let q = g.rope(q0, seq, heads, self.cfg.rope_theta);
            let k = g.rope(k0, seq, heads, self.cfg.rope_theta);
            let att = g.causal_attention(q, k, v, batch, seq, heads);
            let o = layer.wo.forward(&mut g, att, &pnodes);
            x = g.add(x, o);

            let mn = g.rmsnorm(x, pnodes[layer.mlp_norm], 1e-5);
            let gate_pre = layer.gate.forward(&mut g, mn, &pnodes);
            let up = layer.up.forward(&mut g, mn, &pnodes);
            let act = g.swiglu(gate_pre, up);
            let mlp = layer.down.forward(&mut g, act, &pnodes);
            x = g.add(x, mlp);
        }
        let xf = g.rmsnorm(x, pnodes[self.final_norm], 1e-5);
        (g, xf, pnodes)
    }

    /// Builds the next-token LM loss graph. Returns `(graph, loss, pnodes)`.
    ///
    /// `tokens` and `targets` are `batch` concatenated sequences of equal
    /// length; targets are the next-token labels for each position.
    pub fn build_loss(
        &self,
        tokens: &[u32],
        targets: &[u32],
        batch: usize,
    ) -> (Graph, NodeId, Vec<NodeId>) {
        assert_eq!(tokens.len(), targets.len(), "one target per token");
        let (mut g, trunk, pnodes) = self.build_trunk(tokens, batch);
        let logits = g.matmul(trunk, pnodes[self.head]);
        let loss = g.cross_entropy(logits, targets);
        (g, loss, pnodes)
    }

    /// Runs a full forward+backward pass and returns the scalar loss plus
    /// per-parameter gradients (`None` for frozen or unused parameters).
    pub fn loss_and_grads(
        &mut self,
        tokens: &[u32],
        targets: &[u32],
        batch: usize,
    ) -> (f32, Vec<Option<Matrix>>) {
        let (mut g, loss, pnodes) = self.build_loss(tokens, targets, batch);
        g.backward(loss);
        let grads = self.collect_grads(&g, &pnodes);
        (g.value(loss).get(0, 0), grads)
    }

    /// Evaluation loss (no gradients).
    pub fn eval_loss(&self, tokens: &[u32], targets: &[u32], batch: usize) -> f32 {
        let (g, loss, _) = self.build_loss(tokens, targets, batch);
        g.value(loss).get(0, 0)
    }

    /// Builds a sequence-classification loss: the last-position hidden state
    /// of each sequence is decoded through the LM head and trained to emit
    /// the label token.
    pub fn build_class_loss(
        &self,
        tokens: &[u32],
        labels: &[u32],
        batch: usize,
    ) -> (Graph, NodeId, Vec<NodeId>) {
        assert_eq!(labels.len(), batch, "one label per sequence");
        let seq = tokens.len() / batch;
        let (mut g, trunk, pnodes) = self.build_trunk(tokens, batch);
        let last_rows: Vec<u32> = (0..batch).map(|b| (b * seq + seq - 1) as u32).collect();
        let pooled = g.gather(trunk, &last_rows);
        let logits = g.matmul(pooled, pnodes[self.head]);
        let loss = g.cross_entropy(logits, labels);
        (g, loss, pnodes)
    }

    /// Forward+backward for sequence classification.
    pub fn class_loss_and_grads(
        &mut self,
        tokens: &[u32],
        labels: &[u32],
        batch: usize,
    ) -> (f32, Vec<Option<Matrix>>) {
        let (mut g, loss, pnodes) = self.build_class_loss(tokens, labels, batch);
        g.backward(loss);
        let grads = self.collect_grads(&g, &pnodes);
        (g.value(loss).get(0, 0), grads)
    }

    /// Predicted label token for each sequence (argmax over the vocabulary).
    pub fn classify(&self, tokens: &[u32], batch: usize) -> Vec<u32> {
        let seq = tokens.len() / batch;
        let (mut g, trunk, pnodes) = self.build_trunk(tokens, batch);
        let last_rows: Vec<u32> = (0..batch).map(|b| (b * seq + seq - 1) as u32).collect();
        let pooled = g.gather(trunk, &last_rows);
        let logits = g.matmul(pooled, pnodes[self.head]);
        let lm = g.value(logits);
        (0..batch)
            .map(|b| {
                let row = lm.row(b);
                let mut best = 0usize;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best as u32
            })
            .collect()
    }

    /// Collects per-parameter gradients from a backward-completed graph
    /// (`None` for frozen or unused parameters). Public so training loops
    /// can time the forward ([`LlamaModel::build_loss`]) and backward
    /// passes separately instead of going through
    /// [`LlamaModel::loss_and_grads`].
    pub fn collect_grads(&self, g: &Graph, pnodes: &[NodeId]) -> Vec<Option<Matrix>> {
        self.params
            .iter()
            .zip(pnodes)
            .map(|(p, &id)| {
                if p.trainable {
                    g.try_grad(id).cloned()
                } else {
                    None
                }
            })
            .collect()
    }

    /// Builds a LoRA copy of a *dense* model: every attention/MLP linear
    /// becomes a frozen backbone (holding this model's trained weight) plus
    /// a fresh rank-`rank` adapter; embeddings, norms and the LM head are
    /// copied as-is and stay trainable. This is the fine-tuning setup of
    /// Tables 4–5.
    ///
    /// # Panics
    ///
    /// Panics if this model is not dense.
    pub fn to_lora(&self, rank: usize, alpha: f32, rng: &mut Rng) -> LlamaModel {
        assert!(
            self.layers.iter().all(|l| l.wq.mode() == LinearMode::Dense),
            "to_lora requires a dense source model"
        );
        let mut lora = LlamaModel::new(&self.cfg, LinearMode::LoRa { rank, alpha }, rng);
        for src in &self.params {
            // Dense linear weights land in the `.base` backbone params; all
            // other names match one-to-one.
            let target_name = format!("{}.base", src.name);
            let target = lora
                .params
                .iter_mut()
                .find(|p| p.name == src.name || p.name == target_name)
                .unwrap_or_else(|| panic!("no LoRA target for {}", src.name));
            assert_eq!(target.value.shape(), src.value.shape(), "{}", src.name);
            target.value = src.value.clone();
        }
        lora
    }

    /// ReLoRA periodic merge: folds every LoRA adapter into its backbone and
    /// re-initializes the adapters. No-op for dense/factored models.
    pub fn merge_adapters(&mut self, rng: &mut Rng) {
        let layers = self.layers.clone();
        for layer in &layers {
            for lin in layer.linears() {
                lin.merge_adapter(&mut self.params, rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch(cfg: &ModelConfig, batch: usize, rng: &mut Rng) -> (Vec<u32>, Vec<u32>) {
        let n = batch * cfg.max_seq;
        let tokens: Vec<u32> = (0..n).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let targets: Vec<u32> = tokens
            .iter()
            .map(|&t| (t + 1) % cfg.vocab_size as u32)
            .collect();
        (tokens, targets)
    }

    #[test]
    fn initial_loss_is_near_log_vocab() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(50);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let (tokens, targets) = toy_batch(&cfg, 2, &mut rng);
        let loss = model.eval_loss(&tokens, &targets, 2);
        let expected = (cfg.vocab_size as f32).ln();
        assert!(
            (loss - expected).abs() < 1.0,
            "loss {loss} vs ln V {expected}"
        );
    }

    #[test]
    fn gradients_exist_for_all_trainable_params() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(51);
        let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let (tokens, targets) = toy_batch(&cfg, 2, &mut rng);
        let (_, grads) = model.loss_and_grads(&tokens, &targets, 2);
        for (p, gr) in model.params.iter().zip(&grads) {
            assert!(gr.is_some(), "missing grad for {}", p.name);
            let g = gr.as_ref().unwrap();
            assert_eq!(g.shape(), p.value.shape(), "{}", p.name);
            assert!(g.all_finite(), "{} grad not finite", p.name);
        }
    }

    #[test]
    fn sgd_on_constant_batch_reduces_loss() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(52);
        let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let (tokens, targets) = toy_batch(&cfg, 2, &mut rng);
        let (first, _) = model.loss_and_grads(&tokens, &targets, 2);
        for _ in 0..20 {
            let (_, grads) = model.loss_and_grads(&tokens, &targets, 2);
            for (p, gr) in model.params.iter_mut().zip(&grads) {
                if let Some(g) = gr {
                    p.value.axpy(-0.5, g);
                }
            }
        }
        let last = model.eval_loss(&tokens, &targets, 2);
        assert!(
            last < first - 0.3,
            "overfitting a fixed batch must reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn lora_model_freezes_backbone() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(53);
        let mut model = LlamaModel::new(
            &cfg,
            LinearMode::LoRa {
                rank: 2,
                alpha: 4.0,
            },
            &mut rng,
        );
        let (tokens, targets) = toy_batch(&cfg, 1, &mut rng);
        let (_, grads) = model.loss_and_grads(&tokens, &targets, 1);
        for (p, gr) in model.params.iter().zip(&grads) {
            if !p.trainable {
                assert!(gr.is_none(), "frozen {} must not produce a grad", p.name);
            }
        }
        assert!(model.num_trainable() < model.params.iter().map(Param::len).sum::<usize>());
    }

    #[test]
    fn classification_loss_and_predictions_have_right_shape() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(54);
        let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let (tokens, _) = toy_batch(&cfg, 3, &mut rng);
        let labels = vec![1u32, 2, 3];
        let (loss, grads) = model.class_loss_and_grads(&tokens, &labels, 3);
        assert!(loss.is_finite() && loss > 0.0);
        assert!(grads.iter().filter(|g| g.is_some()).count() > 0);
        let preds = model.classify(&tokens, 3);
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|&p| (p as usize) < cfg.vocab_size));
    }

    #[test]
    fn to_lora_preserves_function_and_freezes_backbone() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(56);
        let dense = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let lora = dense.to_lora(2, 4.0, &mut rng);
        let (tokens, targets) = toy_batch(&cfg, 2, &mut rng);
        let a = dense.eval_loss(&tokens, &targets, 2);
        let b = lora.eval_loss(&tokens, &targets, 2);
        assert!(
            (a - b).abs() < 1e-4,
            "LoRA-at-init must equal base: {a} vs {b}"
        );
        assert!(lora.num_trainable() < dense.num_trainable());
    }

    #[test]
    fn num_params_matches_config_shapes_for_dense() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(55);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        assert_eq!(model.num_trainable(), cfg.num_params());
        // Names must agree with the config inventory.
        let names: Vec<&str> = model.params.iter().map(|p| p.name.as_str()).collect();
        for (name, r, c) in cfg.weight_shapes() {
            let p = model
                .params
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("missing {name}; have {names:?}"));
            assert_eq!(p.value.shape(), (r, c), "{name}");
        }
    }
}
