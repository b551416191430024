//! Fig. 1 (middle): memory-breakdown comparison for LLaMA-7B at batch 1
//! with the layer-wise gradient update strategy, including the (Q-) INT8
//! weight variants.

use apollo_bench::{print_table, write_json};
use apollo_nn::ModelConfig;
use apollo_optim::Method;
use apollo_sysmodel::{MemoryOptions, TrainingMemoryModel, WeightPrecision};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    method: String,
    weights_gib: f64,
    grads_gib: f64,
    optimizer_gib: f64,
    activations_gib: f64,
    total_gib: f64,
}

fn main() {
    let mem = TrainingMemoryModel::new(&ModelConfig::llama_7b());
    let bf16 = MemoryOptions::figure1(256);
    let int8 = MemoryOptions {
        weights: WeightPrecision::Int8 { group: 128 },
        ..bf16
    };
    let cases: Vec<(String, Method, MemoryOptions)> = vec![
        ("AdamW".into(), Method::adamw(), bf16),
        ("GaLore (r=1024)".into(), Method::galore(1024), bf16),
        ("Q-GaLore (r=1024)".into(), Method::galore(1024), int8),
        ("APOLLO (r=256)".into(), Method::apollo(256), bf16),
        ("Q-APOLLO (r=256)".into(), Method::apollo(256), int8),
        ("APOLLO-Mini".into(), Method::mini(), bf16),
        ("Q-APOLLO-Mini".into(), Method::mini(), int8),
    ];
    let mut rows = Vec::new();
    for (name, spec, opts) in cases {
        let b = mem.breakdown(spec, &opts);
        rows.push(Row {
            method: name,
            weights_gib: b.weights_gib,
            grads_gib: b.grads_gib,
            optimizer_gib: b.optimizer_gib,
            activations_gib: b.activations_gib,
            total_gib: b.total_gib(),
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                format!("{:.1}", r.weights_gib),
                format!("{:.2}", r.grads_gib),
                format!("{:.2}", r.optimizer_gib),
                format!("{:.2}", r.activations_gib),
                format!("{:.1}", r.total_gib),
            ]
        })
        .collect();
    print_table(
        "Fig. 1 (middle) — LLaMA-7B memory breakdown, batch 1, layer-wise grads (GiB)",
        &[
            "Method",
            "Weights",
            "Grads",
            "Optimizer",
            "Activations",
            "Total",
        ],
        &table,
    );
    println!("\nPaper shape: AdamW ≈58 GB dominated by 28 GB states; Q-APOLLO-Mini ≈12 GB.");
    write_json("fig1_memory", &rows);
}
