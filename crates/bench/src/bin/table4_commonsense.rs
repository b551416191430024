//! Table 4: fine-tuning on the eight commonsense-reasoning stand-in tasks.
//!
//! A single dense base model is pre-trained once, then fine-tuned per
//! (task, method). Full fine-tuning (AdamW), LoRA, and the low-rank
//! optimizer family all run on the same base; accuracy is reported per
//! task plus the average.

use apollo_bench::{print_table, scaled, write_json, Method};
use apollo_data::{commonsense_suite, CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_optim::{AdamW, Method as OptMethod};
use apollo_tensor::Rng;
use apollo_train::{finetune, pretrain, FinetuneConfig, TrainConfig};
use serde::Serialize;

#[derive(Serialize)]
struct MethodRow {
    method: String,
    accuracies: Vec<(String, f32)>,
    average: f32,
}

/// Fine-tuning ranks at proxy scale: the paper's rank 32 on hidden ≥ 2048
/// maps to 8 on hidden 64.
const FT_RANK: usize = 8;

fn main() {
    let cfg = ModelConfig::tiny_60m();
    let base_steps = scaled(300);
    let ft_steps = scaled(50);
    let mini_alpha = Method::mini_alpha(&cfg);

    eprintln!("[table4] pre-training the base model ({base_steps} steps) ...");
    let mut rng = Rng::seed_from_u64(42);
    let mut base = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let mut batcher = LmBatcher::new(corpus, 4, cfg.max_seq);
    let mut pre_opt = AdamW::new();
    let tc = TrainConfig {
        lr: 3e-3,
        grad_clip: Some(1.0),
        ..TrainConfig::quick(base_steps)
    };
    let base_log = pretrain(&mut base, &mut pre_opt, &mut batcher, &tc);
    eprintln!("[table4] base ppl {:.2}", base_log.final_ppl);

    // (label, method, APOLLO's α): the random-projection APOLLO row
    // fine-tunes at α = √5.
    let rows = [
        ("AdamW", OptMethod::adamw(), 1.0),
        ("LoRA", OptMethod::adamw(), 1.0),
        ("GaLore", OptMethod::galore(FT_RANK), 1.0),
        ("Fira", OptMethod::Fira { rank: FT_RANK }, 1.0),
        ("APOLLO w. SVD", OptMethod::apollo_svd(FT_RANK), 1.0),
        ("APOLLO", OptMethod::apollo(FT_RANK), 5f32.sqrt()),
        ("APOLLO-Mini", OptMethod::mini(), 1.0),
    ];
    let mut results = Vec::new();
    for (name, method, alpha) in rows {
        let mut accs = Vec::new();
        for task in commonsense_suite(cfg.vocab_size, cfg.max_seq).iter_mut() {
            eprintln!("[table4] {name} on {} ...", task.config().name);
            let mut model = if name == "LoRA" {
                let mut rng = Rng::seed_from_u64(7);
                base.to_lora(FT_RANK, 2.0 * FT_RANK as f32, &mut rng)
            } else {
                base.clone()
            };
            let mut opt = method
                .build(mini_alpha, alpha, None)
                .expect("a serial build takes every method");
            let fc = FinetuneConfig {
                steps: ft_steps,
                batch: 8,
                lr: if name == "AdamW" { 1e-3 } else { 3e-3 },
                eval_examples: 100,
            };
            let res = finetune(&mut model, opt.as_mut(), task, &fc);
            accs.push((task.config().name.clone(), res.accuracy));
        }
        let average = accs.iter().map(|&(_, a)| a).sum::<f32>() / accs.len() as f32;
        results.push(MethodRow {
            method: name.to_string(),
            accuracies: accs,
            average,
        });
    }

    let mut headers: Vec<String> = vec!["Method".into()];
    headers.extend(results[0].accuracies.iter().map(|(t, _)| t.clone()));
    headers.push("Average".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut row = vec![r.method.clone()];
            row.extend(r.accuracies.iter().map(|&(_, a)| format!("{a:.1}")));
            row.push(format!("{:.2}", r.average));
            row
        })
        .collect();
    print_table(
        &format!("Table 4 — commonsense fine-tuning accuracy (%), {ft_steps} steps/task"),
        &header_refs,
        &rows,
    );
    println!(
        "\nPaper shape: APOLLO family ≈ full AdamW average (within ~1 pt), clearly above \
         GaLore; LoRA trails. (DoRA omitted — see DESIGN.md.)"
    );
    write_json("table4_commonsense", &results);
}
