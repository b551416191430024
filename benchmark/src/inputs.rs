//! Everything a workload feeds the program, generated from `--seed` and
//! nothing else: the same seed gives the same gradient sets, request
//! lists, prompts and adapters. The program never sees the seed.

use apollo_infer::{GenConfig, GenRequest};
use apollo_nn::{LinearMode, LlamaModel, LoraAdapter, ModelConfig};
use apollo_tensor::{Matrix, Rng};

/// Independent stream per purpose, so adding a draw to one input never
/// shifts another.
fn stream(seed: u64, purpose: u64) -> Rng {
    Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

/// The dense model every workload except `optstep` runs.
pub fn tiny_1b_model(seed: u64) -> LlamaModel {
    LlamaModel::new(
        &ModelConfig::tiny_1b(),
        LinearMode::Dense,
        &mut stream(seed, 0x0DE1),
    )
}

// ----- optstep ---------------------------------------------------------------

/// One tensor of the `optstep` layer stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorShape {
    pub name: String,
    pub rows: usize,
    pub cols: usize,
    pub projectable: bool,
}

/// Two transformer layers at LLaMA-60M geometry (hidden 512, SwiGLU 1376):
/// 8× 512×512, 4× 512×1376, 2× 1376×512 projectable matrices and four
/// 1×512 norm gains on the dense fallback, in model declaration order.
pub fn llama60m_two_layers() -> Vec<TensorShape> {
    let (h, inter) = (512, 1376);
    let mut out = Vec::new();
    for l in 0..2 {
        let mut push = |n: &str, rows, cols, projectable| {
            out.push(TensorShape {
                name: format!("layers.{l}.{n}"),
                rows,
                cols,
                projectable,
            })
        };
        push("attn_norm.gain", 1, h, false);
        for n in ["attn.wq", "attn.wk", "attn.wv", "attn.wo"] {
            push(n, h, h, true);
        }
        push("mlp_norm.gain", 1, h, false);
        push("mlp.gate", h, inter, true);
        push("mlp.up", h, inter, true);
        push("mlp.down", inter, h, true);
    }
    out
}

/// Initial weights for the layer stack.
pub fn initial_weights(seed: u64, shapes: &[TensorShape]) -> Vec<Matrix> {
    let mut rng = stream(seed, 0x3E16);
    shapes
        .iter()
        .map(|s| Matrix::randn_scaled(s.rows, s.cols, 0.02, &mut rng))
        .collect()
}

/// How many pre-generated gradient sets the optimizer steps cycle through.
pub const GRAD_SETS: usize = 4;

/// The gradient sets: `GRAD_SETS` × one matrix per tensor.
pub fn gradient_sets(seed: u64, shapes: &[TensorShape]) -> Vec<Vec<Matrix>> {
    let mut rng = stream(seed, 0x6EAD);
    (0..GRAD_SETS)
        .map(|_| {
            shapes
                .iter()
                .map(|s| Matrix::randn_scaled(s.rows, s.cols, 0.01, &mut rng))
                .collect()
        })
        .collect()
}

// ----- decode-batch ----------------------------------------------------------

pub const DECODE_PROMPT: usize = 128;
pub const DECODE_NEW: usize = 96;

/// Sampling settings alternate by request index: even greedy, odd
/// temperature 0.8 / top-k 40 / top-p 0.95.
fn gen_config(index: usize, max_new_tokens: usize, seed: u64) -> GenConfig {
    if index.is_multiple_of(2) {
        GenConfig {
            max_new_tokens,
            seed,
            ..GenConfig::default()
        }
    } else {
        GenConfig {
            max_new_tokens,
            temperature: 0.8,
            top_k: 40,
            top_p: 0.95,
            seed,
            stop_token: None,
        }
    }
}

fn random_tokens(rng: &mut Rng, n: usize, vocab: usize) -> Vec<u32> {
    (0..n).map(|_| rng.below(vocab) as u32).collect()
}

/// `n` offline requests of 128 prompt + 96 new tokens.
pub fn decode_requests(seed: u64, n: usize, vocab: usize) -> Vec<GenRequest> {
    let mut rng = stream(seed, 0xDEC0);
    (0..n)
        .map(|i| GenRequest {
            prompt: random_tokens(&mut rng, DECODE_PROMPT, vocab),
            cfg: gen_config(i, DECODE_NEW, rng.next_u64() >> 12),
            deadline: None,
            adapter: None,
        })
        .collect()
}

// ----- serve-http ------------------------------------------------------------

pub const TENANTS: usize = 3;
pub const SERVE_PROMPT: usize = 168;
pub const SERVE_PREFIX: usize = 160;
pub const SERVE_NEW: usize = 32;
/// Of every `REUSE_BLOCK` consecutive requests exactly one is cold, so the
/// reuse share is 80% on every seed, not 80% in expectation: the cold
/// prompts cost a full prefill and their count must not drift with the seed.
const REUSE_BLOCK: usize = 5;

pub fn tenant_name(t: usize) -> String {
    format!("tenant{t}")
}

/// One HTTP request of the serving workload.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    pub tenant: usize,
    pub prompt: Vec<u32>,
    pub cfg: GenConfig,
    /// Opens with the tenant's shared prefix.
    pub reuse: bool,
}

impl ServeRequest {
    /// The in-process form of this request (adapter ids are registry order,
    /// which is tenant order).
    pub fn to_gen_request(&self) -> GenRequest {
        GenRequest {
            prompt: self.prompt.clone(),
            cfg: self.cfg.clone(),
            deadline: None,
            adapter: Some(self.tenant as u32),
        }
    }

    /// The `POST /generate` body.
    pub fn body(&self) -> String {
        let prompt: Vec<String> = self.prompt.iter().map(u32::to_string).collect();
        format!(
            "{{\"prompt\":[{}],\"adapter\":\"{}\",\"max_new_tokens\":{},\"temperature\":{},\"top_k\":{},\"top_p\":{},\"seed\":{},\"stream\":true,\"deadline_ms\":60000}}",
            prompt.join(","),
            tenant_name(self.tenant),
            self.cfg.max_new_tokens,
            self.cfg.temperature,
            self.cfg.top_k,
            self.cfg.top_p,
            self.cfg.seed
        )
    }
}

/// Each tenant's 160-token shared prefix.
pub fn tenant_prefixes(seed: u64, vocab: usize) -> Vec<Vec<u32>> {
    let mut rng = stream(seed, 0x9FE1);
    (0..TENANTS)
        .map(|_| random_tokens(&mut rng, SERVE_PREFIX, vocab))
        .collect()
}

/// `n` serving requests: 168-token prompts, 80% opening with their
/// tenant's shared prefix, adapters drawn uniformly. `all_reuse` builds the
/// cache-warming list instead (every prompt shares, tenants round-robin).
pub fn serve_requests(seed: u64, n: usize, vocab: usize, all_reuse: bool) -> Vec<ServeRequest> {
    let prefixes = tenant_prefixes(seed, vocab);
    let mut rng = stream(seed, if all_reuse { 0x5E4F } else { 0x5E4E });
    let mut cold_slot = 0;
    (0..n)
        .map(|i| {
            if i.is_multiple_of(REUSE_BLOCK) {
                cold_slot = rng.below(REUSE_BLOCK);
            }
            let reuse = all_reuse || i % REUSE_BLOCK != cold_slot;
            let tenant = if all_reuse {
                i % TENANTS
            } else {
                rng.below(TENANTS)
            };
            let prompt = if reuse {
                let mut p = prefixes[tenant].clone();
                p.extend(random_tokens(&mut rng, SERVE_PROMPT - SERVE_PREFIX, vocab));
                p
            } else {
                random_tokens(&mut rng, SERVE_PROMPT, vocab)
            };
            ServeRequest {
                tenant,
                prompt,
                cfg: gen_config(i, SERVE_NEW, rng.next_u64() >> 12),
                reuse,
            }
        })
        .collect()
}

/// A rank-4 LoRA adapter over `cfg` with a non-zero delta (`B` starts at
/// zero in a fresh LoRA model, so it is redrawn).
pub fn lora_adapter(cfg: &ModelConfig, seed: u64, tenant: usize) -> LoraAdapter {
    let mut rng = stream(seed, 0xADA0 + tenant as u64);
    let mut m = LlamaModel::new(
        cfg,
        LinearMode::LoRa {
            rank: 4,
            alpha: 8.0,
        },
        &mut rng,
    );
    for p in &mut m.params {
        if p.name.ends_with(".lora_b") {
            p.value = Matrix::randn(p.value.rows(), p.value.cols(), &mut rng);
        }
    }
    LoraAdapter::from_model(&m).expect("a LoRA-mode model yields an adapter")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Fnv;

    fn fingerprint_matrices(sets: &[Vec<Matrix>]) -> u64 {
        let mut h = Fnv::new();
        for m in sets.iter().flatten() {
            h.f32_bits(m.as_slice());
        }
        h.finish()
    }

    fn fingerprint_serve_requests(reqs: &[ServeRequest]) -> u64 {
        let mut h = Fnv::new();
        for r in reqs {
            h.u32s(&[r.tenant as u32, u32::from(r.reuse)]);
            h.u32s(&r.prompt);
            h.bytes(&r.cfg.seed.to_le_bytes());
        }
        h.finish()
    }

    /// `GenConfig` has no `PartialEq`.
    fn same_cfg(a: &GenConfig, b: &GenConfig) -> bool {
        a.max_new_tokens == b.max_new_tokens
            && a.temperature.to_bits() == b.temperature.to_bits()
            && a.top_k == b.top_k
            && a.top_p.to_bits() == b.top_p.to_bits()
            && a.seed == b.seed
            && a.stop_token == b.stop_token
    }

    #[test]
    fn optstep_stack_has_the_issue_shapes() {
        let shapes = llama60m_two_layers();
        let count = |r, c| shapes.iter().filter(|s| (s.rows, s.cols) == (r, c)).count();
        assert_eq!(count(512, 512), 8);
        assert_eq!(count(512, 1376), 4);
        assert_eq!(count(1376, 512), 2);
        assert_eq!(count(1, 512), 4);
        assert!(shapes.iter().all(|s| s.projectable == (s.rows > 1)));
        let elems: usize = shapes.iter().map(|s| s.rows * s.cols).sum();
        assert_eq!(elems, 6_326_272);
    }

    #[test]
    fn same_seed_same_gradient_sets() {
        // Small stand-in shapes: the generator is shape-agnostic.
        let shapes: Vec<TensorShape> = llama60m_two_layers()
            .into_iter()
            .map(|s| TensorShape {
                rows: s.rows.min(8),
                cols: s.cols.min(16),
                ..s
            })
            .collect();
        let a = gradient_sets(11, &shapes);
        assert_eq!(a.len(), GRAD_SETS);
        assert_eq!(
            fingerprint_matrices(&a),
            fingerprint_matrices(&gradient_sets(11, &shapes))
        );
        assert_ne!(
            fingerprint_matrices(&a),
            fingerprint_matrices(&gradient_sets(12, &shapes))
        );
        assert_ne!(
            fingerprint_matrices(&a[..1]),
            fingerprint_matrices(&a[1..2])
        );
    }

    #[test]
    fn same_seed_same_request_list() {
        let a = serve_requests(11, 200, 512, false);
        let b = serve_requests(11, 200, 512, false);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.tenant, &x.prompt, x.reuse),
                (y.tenant, &y.prompt, y.reuse)
            );
            assert!(same_cfg(&x.cfg, &y.cfg));
        }
        assert_ne!(
            fingerprint_serve_requests(&a),
            fingerprint_serve_requests(&serve_requests(12, 200, 512, false))
        );
        let d = decode_requests(11, 16, 512);
        let d2 = decode_requests(11, 16, 512);
        for (x, y) in d.iter().zip(&d2) {
            assert_eq!(x.prompt, y.prompt);
            assert!(same_cfg(&x.cfg, &y.cfg));
        }
    }

    #[test]
    fn reuse_share_is_exact_and_prompts_are_well_formed() {
        let prefixes = tenant_prefixes(11, 512);
        let reqs = serve_requests(11, 400, 512, false);
        assert_eq!(reqs.iter().filter(|r| r.reuse).count(), 320);
        for r in &reqs {
            assert_eq!(r.prompt.len(), SERVE_PROMPT);
            assert!(r.tenant < TENANTS);
            assert!(r.prompt.iter().all(|&t| t < 512));
            assert_eq!(r.reuse, r.prompt.starts_with(&prefixes[r.tenant]));
        }
        assert!(serve_requests(11, 12, 512, true).iter().all(|r| r.reuse));
    }
}
