//! Golden fingerprints of one forward+backward pass.
//!
//! `LlamaModel::loss_and_grads` (and, for the classification row,
//! `class_loss_and_grads`) on a fixed model and batch must return the same
//! loss bits and the same bits in every parameter gradient as when the
//! constants below were recorded. Each row is the FNV-1a of the loss's bits
//! followed by every trainable parameter's gradient bits, in parameter
//! order. Anything that reorders a float operation in the forward pass, the
//! backward walk or their kernels, or changes how gradients accumulate on
//! the tape, moves a row; a change that only moves buffer lifetimes does
//! not.
//!
//! `step_golden` (in `apollo-optim`) pins what the optimizer does with
//! these gradients; this file pins the gradients themselves.

use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_tensor::Rng;

const LORA: LinearMode = LinearMode::LoRa {
    rank: 2,
    alpha: 4.0,
};

/// `(case, FNV-1a of loss bits + every gradient's bits)`.
const GOLDEN: &[(&str, u64)] = &[
    ("test-tiny dense b2", 0x1290ed877d27c0a6),
    ("test-tiny lora b2", 0x524ac7a15593476e),
    ("tiny-1b dense b4", 0x1541e522c88d5a17),
    ("test-tiny dense class b3", 0x06fbe2f3e161b96f),
];

/// Which loss a case differentiates.
#[derive(Clone, Copy)]
enum Loss {
    /// Next-token LM loss (`loss_and_grads`).
    Lm,
    /// Last-position classification loss (`class_loss_and_grads`): the
    /// trunk's last rows gathered, through the LM head, into cross-entropy.
    Class,
}

/// `(case, config, linear mode, batch, loss)`, in [`GOLDEN`] order.
fn cases() -> Vec<(&'static str, ModelConfig, LinearMode, usize, Loss)> {
    vec![
        (
            "test-tiny dense b2",
            ModelConfig::test_tiny(),
            LinearMode::Dense,
            2,
            Loss::Lm,
        ),
        (
            "test-tiny lora b2",
            ModelConfig::test_tiny(),
            LORA,
            2,
            Loss::Lm,
        ),
        (
            "tiny-1b dense b4",
            ModelConfig::tiny_1b(),
            LinearMode::Dense,
            4,
            Loss::Lm,
        ),
        (
            "test-tiny dense class b3",
            ModelConfig::test_tiny(),
            LinearMode::Dense,
            3,
            Loss::Class,
        ),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, values: &[f32]) {
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Loss and gradients of one random batch (a target per token, or a label
/// per sequence); returns the fingerprint.
fn fingerprint(cfg: &ModelConfig, mode: LinearMode, batch: usize, kind: Loss) -> u64 {
    let mut rng = Rng::seed_from_u64(0x6AD);
    let model = LlamaModel::new(cfg, mode, &mut rng);
    let n = batch * cfg.max_seq;
    let tokens: Vec<u32> = (0..n).map(|_| rng.below(cfg.vocab_size) as u32).collect();
    let (loss, grads) = match kind {
        Loss::Lm => {
            let targets: Vec<u32> = (0..n).map(|_| rng.below(cfg.vocab_size) as u32).collect();
            model.loss_and_grads(&tokens, &targets, batch)
        }
        Loss::Class => {
            let labels: Vec<u32> = (0..batch)
                .map(|_| rng.below(cfg.vocab_size) as u32)
                .collect();
            model.class_loss_and_grads(&tokens, &labels, batch)
        }
    };
    let mut h = Fnv::new();
    h.push(&[loss]);
    for (p, g) in model.params.iter().zip(&grads) {
        assert_eq!(g.is_some(), p.trainable, "{}: gradient presence", p.name);
        if let Some(g) = g {
            assert_eq!(g.shape(), p.value.shape(), "{}", p.name);
            h.push(g.as_slice());
        }
    }
    h.0
}

#[test]
fn loss_and_gradients_match_their_recorded_fingerprints() {
    let mut mismatches = Vec::new();
    for (i, (name, cfg, mode, batch, kind)) in cases().into_iter().enumerate() {
        assert_eq!(GOLDEN[i].0, name, "GOLDEN out of order");
        let got = fingerprint(&cfg, mode, batch, kind);
        if got != GOLDEN[i].1 {
            mismatches.push(format!("(\"{name}\", {got:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "forward+backward bits moved; new rows:\n{}",
        mismatches.join("\n")
    );
}
