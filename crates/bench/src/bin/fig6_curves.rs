//! Fig. 6: APOLLO vs Fira training dynamics on the 350M proxy — Fira leads
//! early, APOLLO catches up and passes late.

use apollo_bench::{paper_recipe, pretrain_run, print_table, scaled, write_json, Method};
use apollo_nn::ModelConfig;
use apollo_train::TrainConfig;

fn main() {
    let cfg = ModelConfig::tiny_350m();
    let steps = scaled(300);
    let eval_every = (steps / 8).max(1);
    let methods = [Method::Fira, Method::Apollo, Method::AdamW];
    let mut logs = Vec::new();
    for m in methods {
        eprintln!("[fig6] {} ...", m.label());
        let tc = TrainConfig {
            eval_every,
            ..paper_recipe(&cfg, m, steps)
        };
        logs.push(pretrain_run(&cfg, m, steps, 4, 42, Some(tc)));
    }
    // One column per checkpoint.
    let checkpoints: Vec<usize> = logs[0].eval_ppls.iter().map(|&(s, _)| s).collect();
    let mut headers: Vec<String> = vec!["Method".to_string()];
    headers.extend(checkpoints.iter().map(|s| format!("@{s}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = logs
        .iter()
        .map(|l| {
            let mut row = vec![l.optimizer.clone()];
            row.extend(l.eval_ppls.iter().map(|&(_, p)| format!("{p:.2}")));
            row
        })
        .collect();
    print_table(
        &format!(
            "Fig. 6 — validation ppl over training ({}, {} steps)",
            cfg.name, steps
        ),
        &header_refs,
        &rows,
    );
    println!(
        "\nPaper shape: Fira converges faster early; APOLLO closes the gap with more tokens \
         and both beat AdamW."
    );
    write_json("fig6_curves", &logs);
}
