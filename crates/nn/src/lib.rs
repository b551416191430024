//! LLaMA-style decoder-only transformer blocks and model configurations.
//!
//! The model follows the architecture the APOLLO paper pre-trains: token
//! embedding → N × (RMSNorm → RoPE multi-head causal attention → residual →
//! RMSNorm → SwiGLU MLP → residual) → final RMSNorm → LM head, trained with
//! mean cross-entropy on next-token prediction.
//!
//! [`ModelConfig`] ships both the paper's exact geometries (Table 8,
//! 60M–13B — used by the analytic memory/throughput model) and `tiny-*`
//! proxies with the same depth/width ratios that actually train on CPU.
//!
//! Linear layers support three parameterizations, covering the paper's
//! baselines:
//!
//! - [`LinearMode::Dense`] — ordinary full-rank training,
//! - [`LinearMode::LoRa`] — frozen backbone + low-rank adapter
//!   (`W = W₀ + B·A`; LoRA and ReLoRA baselines),
//! - [`LinearMode::Factored`] — `W = U·V` with both factors trained (the
//!   "Low-Rank" baseline of Table 2).
//!
//! # Example
//!
//! ```
//! use apollo_nn::{LlamaModel, ModelConfig, LinearMode};
//! use apollo_tensor::Rng;
//!
//! let cfg = ModelConfig::test_tiny();
//! let mut rng = Rng::seed_from_u64(0);
//! let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
//! let tokens: Vec<u32> = (0..2 * cfg.max_seq as u32).map(|i| i % 7).collect();
//! let targets: Vec<u32> = tokens.iter().map(|&t| (t + 1) % 7).collect();
//! let (loss, _grads) = model.loss_and_grads(&tokens, &targets, 2);
//! assert!(loss > 0.0);
//! ```

mod adapter;
mod backend;
mod config;
mod decode;
mod linear;
mod model;
mod param;
mod quantized;

pub use adapter::{AdapterLoader, AdapterRegistry, LoraAdapter};
pub use backend::{DecodeBackend, DecodeCaches, KvBlock};
pub use config::ModelConfig;
pub use decode::{KvCache, KvSpan};
pub use linear::{Linear, LinearMode};
pub use model::LlamaModel;
pub use param::{Param, ParamKind};
pub use quantized::{QuantizedModel, DECODE_QUANT_GROUP};
