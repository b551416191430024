//! Table 3: LLaMA-7B pre-training (proxy) — validation perplexity at four
//! checkpoints plus the paper-geometry optimizer memory.

use apollo_bench::{paper_recipe, pretrain_run, print_table, scaled, write_json, Method};
use apollo_nn::ModelConfig;
use apollo_optim::{Method as OptMethod, ProjKind};
use apollo_sysmodel::{MemoryOptions, TrainingMemoryModel};
use apollo_train::TrainConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    method: String,
    optimizer_memory_gib: f64,
    checkpoints: Vec<(usize, f32)>,
}

fn main() {
    let cfg = ModelConfig::tiny_7b();
    let steps = scaled(100);
    let eval_every = (steps / 4).max(1);
    // Paper checkpoints 40K/80K/120K/150K map to quarters of the budget.
    // Each row's optimizer memory is counted at the paper's 7B ranks, BF16
    // states (INT8 where the method quantizes).
    let methods = [
        (Method::Adam8bit, OptMethod::AdamW { int8: true }),
        (
            Method::GaLore8bit,
            OptMethod::GaLore {
                rank: 1024,
                proj: ProjKind::Svd,
                int8: true,
            },
        ),
        (Method::Apollo, OptMethod::apollo(256)),
        (Method::ApolloMini, OptMethod::mini()),
    ];
    let mem7b = TrainingMemoryModel::new(&ModelConfig::llama_7b());
    let mut rows = Vec::new();
    for (m, at_7b) in methods {
        eprintln!("[table3] {} ({steps} steps) ...", m.label());
        let tc = TrainConfig {
            eval_every,
            ..paper_recipe(&cfg, m, steps)
        };
        let log = pretrain_run(&cfg, m, steps, 1, 42, Some(tc));
        rows.push(Row {
            method: m.label().to_string(),
            optimizer_memory_gib: mem7b
                .breakdown(at_7b, &MemoryOptions::figure1(256))
                .optimizer_gib,
            checkpoints: log.eval_ppls.clone(),
        });
    }
    let n_ck = rows[0].checkpoints.len();
    let mut headers: Vec<String> = vec!["Method".into(), "Opt. mem (7B)".into()];
    headers.extend(rows[0].checkpoints.iter().map(|&(s, _)| format!("ppl@{s}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.method.clone(), format!("{:.1}G", r.optimizer_memory_gib)];
            row.extend(
                r.checkpoints
                    .iter()
                    .take(n_ck)
                    .map(|&(_, p)| format!("{p:.2}")),
            );
            row
        })
        .collect();
    print_table(
        &format!("Table 3 — 7B-proxy pre-training, checkpoints over {steps} steps"),
        &header_refs,
        &table,
    );
    println!(
        "\nPaper shape: APOLLO/Mini beat the 8-bit baselines by a clear ppl margin at every \
         checkpoint, with 1.6G / ~0G optimizer memory vs 13G / 4.9G."
    );
    write_json("table3_llama7b", &rows);
}
