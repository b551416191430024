//! Behavioural tests of the LLaMA proxy model beyond unit scope:
//! permutation/shift properties, batching consistency, and mode parity.

use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_tensor::Rng;

fn model(seed: u64, mode: LinearMode) -> (ModelConfig, LlamaModel) {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(seed);
    let m = LlamaModel::new(&cfg, mode, &mut rng);
    (cfg, m)
}

#[test]
fn batch_elements_are_independent() {
    // Loss of a 2-batch equals the mean of the two 1-batch losses.
    let (cfg, m) = model(1, LinearMode::Dense);
    let mut rng = Rng::seed_from_u64(2);
    let seq = cfg.max_seq;
    let a: Vec<u32> = (0..seq).map(|_| rng.below(cfg.vocab_size) as u32).collect();
    let b: Vec<u32> = (0..seq).map(|_| rng.below(cfg.vocab_size) as u32).collect();
    let ta: Vec<u32> = a.iter().map(|&t| (t + 1) % cfg.vocab_size as u32).collect();
    let tb: Vec<u32> = b.iter().map(|&t| (t + 2) % cfg.vocab_size as u32).collect();

    let la = m.eval_loss(&a, &ta, 1);
    let lb = m.eval_loss(&b, &tb, 1);
    let mut both = a.clone();
    both.extend_from_slice(&b);
    let mut tboth = ta.clone();
    tboth.extend_from_slice(&tb);
    let lab = m.eval_loss(&both, &tboth, 2);
    assert!(
        (lab - (la + lb) / 2.0).abs() < 1e-4,
        "batch mean: {lab} vs {}",
        (la + lb) / 2.0
    );
}

#[test]
fn position_matters_thanks_to_rope() {
    // A sequence and its rotation give different losses: the model is not
    // bag-of-words.
    let (cfg, m) = model(3, LinearMode::Dense);
    let seq = cfg.max_seq;
    let a: Vec<u32> = (0..seq as u32).map(|i| i % 7).collect();
    let mut rotated = a.clone();
    rotated.rotate_left(3);
    let t: Vec<u32> = a.iter().map(|&x| (x + 1) % 7).collect();
    let la = m.eval_loss(&a, &t, 1);
    let lr = m.eval_loss(&rotated, &t, 1);
    assert!(
        (la - lr).abs() > 1e-6,
        "rotation had no effect: {la} vs {lr}"
    );
}

#[test]
fn classification_prediction_is_argmax_consistent() {
    // classify() must agree with the minimal-loss label.
    let (cfg, m) = model(4, LinearMode::Dense);
    let mut rng = Rng::seed_from_u64(5);
    let tokens: Vec<u32> = (0..cfg.max_seq)
        .map(|_| rng.below(cfg.vocab_size) as u32)
        .collect();
    let pred = m.classify(&tokens, 1)[0];
    // Evaluate the class loss for a few labels: the predicted one can't be
    // beaten.
    let (pred_loss, _) = m.class_loss_and_grads(&tokens, &[pred], 1);
    for label in [0u32, 1, 2, 3] {
        let (l, _) = m.class_loss_and_grads(&tokens, &[label], 1);
        assert!(
            pred_loss <= l + 1e-5,
            "label {label} beats argmax: {l} < {pred_loss}"
        );
    }
}

#[test]
fn all_linear_modes_produce_finite_losses_and_grads() {
    for mode in [
        LinearMode::Dense,
        LinearMode::LoRa {
            rank: 2,
            alpha: 4.0,
        },
        LinearMode::Factored { rank: 2 },
    ] {
        let (cfg, m) = model(6, mode);
        let mut rng = Rng::seed_from_u64(7);
        let tokens: Vec<u32> = (0..2 * cfg.max_seq)
            .map(|_| rng.below(cfg.vocab_size) as u32)
            .collect();
        let targets: Vec<u32> = tokens
            .iter()
            .map(|&t| (t + 1) % cfg.vocab_size as u32)
            .collect();
        let (loss, grads) = m.loss_and_grads(&tokens, &targets, 2);
        assert!(loss.is_finite(), "{mode:?}");
        for (p, g) in m.params.iter().zip(&grads) {
            if let Some(g) = g {
                assert!(g.all_finite(), "{mode:?} {}", p.name);
            }
        }
    }
}

#[test]
fn factored_model_has_fewer_parameters_than_dense() {
    let (_, dense) = model(8, LinearMode::Dense);
    let (_, factored) = model(8, LinearMode::Factored { rank: 2 });
    assert!(factored.num_trainable() < dense.num_trainable());
}

#[test]
fn merge_adapters_is_noop_for_dense_and_factored() {
    for mode in [LinearMode::Dense, LinearMode::Factored { rank: 2 }] {
        let (cfg, mut m) = model(9, mode);
        let before: Vec<_> = m.params.iter().map(|p| p.value.clone()).collect();
        m.merge_adapters(&mut Rng::seed_from_u64(10));
        for (b, p) in before.iter().zip(&m.params) {
            assert_eq!(b, &p.value, "{:?} changed {}", mode, p.name);
        }
        let _ = cfg;
    }
}
