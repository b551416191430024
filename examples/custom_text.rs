//! Training on *your own text* instead of the synthetic corpus: train a BPE
//! tokenizer on a text sample, tokenize it, and pre-train a tiny model on
//! the resulting stream with APOLLO.
//!
//! ```sh
//! cargo run --release --example custom_text
//! ```

use apollo_repro::data::{BpeTokenizer, Tokenize};
use apollo_repro::nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_repro::optim::{Apollo, Optimizer};
use apollo_repro::tensor::Rng;
use apollo_repro::train::param_updates;

/// A small built-in text so the example runs without any files; swap in
/// `std::fs::read("your.txt")` for real use.
const SAMPLE: &str = "\
the apollo optimizer approximates channel-wise gradient scaling factors in \
a low-rank auxiliary space fed by a pure random projection. the projection \
matrix is never stored: only a seed is kept, and the matrix is regenerated \
on demand. the optimizer state shrinks from two full moments to two tiny \
low-rank moments, while the update direction stays the raw gradient, scaled \
per channel. the result: sgd-like memory with adamw-level performance. \
the apollo optimizer approximates channel-wise gradient scaling factors in \
a low-rank auxiliary space fed by a pure random projection. ";

fn main() {
    // 1. Train a BPE vocabulary on the sample.
    let tok = BpeTokenizer::train(SAMPLE.as_bytes(), 380);
    let stream = tok.encode(SAMPLE.as_bytes());
    println!(
        "BPE: {} merges, {} bytes -> {} tokens ({:.1}x compression)",
        tok.num_merges(),
        SAMPLE.len(),
        stream.len(),
        SAMPLE.len() as f32 / stream.len() as f32
    );

    // 2. A model sized to the tokenizer's vocabulary.
    let mut cfg = ModelConfig::test_tiny();
    cfg.vocab_size = tok.vocab_size();
    cfg.max_seq = 16;
    let mut rng = Rng::seed_from_u64(9);
    let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let mut opt = Apollo::new(cfg.default_rank(), 200);

    // 3. Next-token training on windows of the token stream.
    let seq = cfg.max_seq;
    let batch = 4;
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for step in 0..120 {
        let mut tokens = Vec::with_capacity(batch * seq);
        let mut targets = Vec::with_capacity(batch * seq);
        for b in 0..batch {
            let start = (step * batch + b) * 3 % (stream.len() - seq - 1);
            tokens.extend_from_slice(&stream[start..start + seq]);
            targets.extend_from_slice(&stream[start + 1..start + seq + 1]);
        }
        let (loss, grads) = model.loss_and_grads(&tokens, &targets, batch);
        first_loss.get_or_insert(loss);
        last_loss = loss;
        opt.step(&mut param_updates(&mut model, &grads), 1e-2);
    }
    println!(
        "training loss {:.2} -> {:.2} over 120 APOLLO steps ({} optimizer state elems)",
        first_loss.unwrap(),
        last_loss,
        opt.state_elems()
    );

    // 4. Greedy generation from a prompt.
    let prompt = tok.encode(b"the apollo optimizer ");
    let mut ctx = prompt.clone();
    for _ in 0..12 {
        let window: Vec<u32> = ctx[ctx.len().saturating_sub(seq)..].to_vec();
        let padded: Vec<u32> = if window.len() < seq {
            let mut w = vec![0u32; seq - window.len()];
            w.extend_from_slice(&window);
            w
        } else {
            window
        };
        let next = model.classify(&padded, 1)[0];
        ctx.push(next);
    }
    let text = String::from_utf8_lossy(&tok.decode(&ctx)).to_string();
    println!("greedy sample: {text:?}");
}
