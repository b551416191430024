//! Fig. 4 / Fig. 8: the channel-wise scaling-factor ratio follows
//! √(n/r) (Theorem A.4).
//!
//! One model is trained with the full-rank structured rule (the golden
//! `s_j`); at every step the *same gradient stream* also feeds passive
//! APOLLO probes at ranks n/8 and n/4, whose updates are discarded. The
//! per-channel ratios `s_j^R / s_j` should concentrate around √(r/n)
//! (≈ 0.354 and 0.5), i.e. the paper's 1 : √2 : 2√2 pattern.

use apollo_bench::{print_table, scaled, write_json, UPDATE_FREQ};
use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig, ParamKind};
use apollo_optim::{AdamWChannelwise, Apollo, Optimizer};
use apollo_tensor::Rng;
use apollo_train::param_updates;
use serde::Serialize;

#[derive(Serialize)]
struct LayerRatio {
    param: String,
    expected: f32,
    measured_mean: f32,
    measured_p10: f32,
    measured_p90: f32,
    rank: usize,
}

fn main() {
    let cfg = ModelConfig::tiny_350m(); // hidden 128
    let steps = scaled(60);
    let ranks = [cfg.hidden / 8, cfg.hidden / 4]; // 16, 32
    let mut rng = Rng::seed_from_u64(7);
    let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    // Probe copies receive identical gradients; their updated weights are
    // never used, so the trajectory is governed by the golden optimizer.
    let mut probes: Vec<(LlamaModel, Apollo)> = ranks
        .iter()
        .map(|&r| (model.clone(), Apollo::new(r, UPDATE_FREQ).without_limiter()))
        .collect();
    let mut golden = AdamWChannelwise::new().without_limiter();

    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let mut batcher = LmBatcher::new(corpus, 4, cfg.max_seq);
    for step in 0..steps {
        let (tokens, targets) = batcher.next_batch();
        let (_, grads) = model.loss_and_grads(&tokens, &targets, 4);
        for (pm, popt) in probes.iter_mut() {
            popt.step(&mut param_updates(pm, &grads), 1e-9); // negligible probe updates
        }
        golden.step(&mut param_updates(&mut model, &grads), 1e-2);
        if step % 20 == 0 {
            eprintln!("[fig4] step {step}/{steps}");
        }
    }

    // Compare scales on projectable params. Note the golden optimizer's
    // ParamUpdate indices line up with the probes' (same param list).
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let trainable: Vec<usize> = model
        .params
        .iter()
        .enumerate()
        .filter(|(_, p)| p.trainable)
        .map(|(i, _)| i)
        .collect();
    for (probe_idx, &rank) in ranks.iter().enumerate() {
        let expected = (rank as f32 / cfg.hidden as f32).sqrt();
        let apollo = &probes[probe_idx].1;
        for (upd_idx, &pi) in trainable.iter().enumerate() {
            let p = &model.params[pi];
            if p.kind != ParamKind::Projectable || !p.name.contains("layers.1.") {
                continue; // one representative layer keeps the table small
            }
            let golden_s = &golden.last_scales[upd_idx];
            let apollo_s = &apollo.last_scales[upd_idx];
            if golden_s.is_empty() || apollo_s.len() != golden_s.len() {
                continue;
            }
            let mut ratios: Vec<f32> = golden_s
                .iter()
                .zip(apollo_s)
                .filter(|(g, _)| **g > 1e-12)
                .map(|(g, a)| a / g)
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mean = ratios.iter().sum::<f32>() / ratios.len() as f32;
            let p10 = ratios[ratios.len() / 10];
            let p90 = ratios[ratios.len() * 9 / 10];
            rows.push(vec![
                p.name.clone(),
                format!("{rank}"),
                format!("{expected:.3}"),
                format!("{mean:.3}"),
                format!("[{p10:.3}, {p90:.3}]"),
            ]);
            json_rows.push(LayerRatio {
                param: p.name.clone(),
                expected,
                measured_mean: mean,
                measured_p10: p10,
                measured_p90: p90,
                rank,
            });
        }
    }
    print_table(
        &format!(
            "Fig. 4 — scaling-factor ratio s^R/s vs √(r/n) ({}, n = {})",
            cfg.name, cfg.hidden
        ),
        &["Param (layer 1)", "r", "√(r/n)", "mean ratio", "[p10, p90]"],
        &rows,
    );
    println!("\nPaper shape: ratios track √(r/n) (≈0.354 at n/8, 0.5 at n/4) across layer types.");
    write_json("fig4_ratio", &json_rows);
}
