//! Serial generation: one request, one KV cache, token-at-a-time decode.
//!
//! This is both the simplest way to sample from a checkpoint (the CLI
//! `generate` subcommand) and the byte-identity reference the
//! continuous-batching scheduler is tested against.

use apollo_nn::{DecodeBackend, LlamaModel};
use apollo_tensor::{Matrix, Rng};

use crate::sample::{sample, GenConfig};

/// Generates up to `cfg.max_new_tokens` tokens after `prompt`, invoking
/// `on_token` as each token is decided (for streaming output). Returns all
/// generated tokens, including a trailing stop token if one fired.
///
/// Deterministic: the per-request [`Rng`] is seeded from `cfg.seed`, and
/// the KV-cached forward is bit-identical across thread counts, so equal
/// `(model, prompt, cfg)` always yields equal tokens.
///
/// # Panics
///
/// Panics if the prompt is empty or a token is out of vocabulary.
pub fn generate(
    model: &LlamaModel,
    prompt: &[u32],
    cfg: &GenConfig,
    on_token: impl FnMut(u32),
) -> Vec<u32> {
    let mut caches = [model.new_kv_cache(prompt.len() + cfg.max_new_tokens)];
    let forward = |rows: &[_]| model.forward_cached(&mut caches, rows);
    generate_with(forward, |h| model.lm_logits(h), prompt, cfg, on_token)
}

/// [`generate`] against any [`DecodeBackend`] — the exact f32 model or an
/// INT8+BF16 snapshot. It is the same loop, so [`DecodeBackend::Exact`]
/// yields tokens byte-identical to [`generate`] on the wrapped model, and
/// it panics on the same inputs.
pub fn generate_backend(
    backend: &DecodeBackend,
    prompt: &[u32],
    cfg: &GenConfig,
    on_token: impl FnMut(u32),
) -> Vec<u32> {
    let mut caches = backend.new_caches(1, prompt.len() + cfg.max_new_tokens);
    let forward = |rows: &[_]| backend.forward_cached(&mut caches, rows);
    generate_with(forward, |h| backend.lm_logits(h), prompt, cfg, on_token)
}

/// The one serial loop, over a decoder's two calls: `forward` runs new
/// `(cache 0, token)` rows to hidden states, `head` maps those to logits.
fn generate_with(
    mut forward: impl FnMut(&[(usize, u32)]) -> Matrix,
    head: impl Fn(&Matrix) -> Matrix,
    prompt: &[u32],
    cfg: &GenConfig,
    mut on_token: impl FnMut(u32),
) -> Vec<u32> {
    assert!(!prompt.is_empty(), "generate: empty prompt");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.max_new_tokens);
    // Prefill the whole prompt in one call; only the last row's logits are
    // needed (chunking would give bit-identical logits either way).
    let rows: Vec<(usize, u32)> = prompt.iter().map(|&t| (0, t)).collect();
    let mut hidden = forward(&rows);
    while out.len() < cfg.max_new_tokens {
        let logits = head(&hidden.gather_rows(&[hidden.rows() - 1]));
        let tok = sample(logits.as_slice(), cfg, &mut rng);
        out.push(tok);
        on_token(tok);
        if cfg.stop_token == Some(tok) || out.len() == cfg.max_new_tokens {
            break;
        }
        hidden = forward(&[(0, tok)]);
    }
    out
}
