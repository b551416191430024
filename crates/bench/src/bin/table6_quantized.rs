//! Table 6: APOLLO-series combined with INT8 weight quantization
//! (Q-APOLLO / Q-APOLLO-Mini vs Q-GaLore), with the paper-geometry memory
//! column (weights + states, INT8 weights at group 128).

use apollo_bench::{pretrain_run, print_table, proxy_for, scaled, write_json, Method};
use apollo_nn::ModelConfig;
use apollo_sysmodel::{MemoryOptions, TrainingMemoryModel, WeightPrecision};
use apollo_train::TrainConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    method: String,
    size: String,
    ppl: f32,
    memory_gib: f64,
}

fn paper_memory_gib(method: Method, quantized: bool, size: &str) -> f64 {
    let cfg = match size {
        "60M" => ModelConfig::llama_60m(),
        "130M" => ModelConfig::llama_130m(),
        "350M" => ModelConfig::llama_350m(),
        _ => unreachable!(),
    };
    let opts = MemoryOptions {
        weights: if quantized {
            WeightPrecision::Int8 { group: 128 }
        } else {
            WeightPrecision::Bf16
        },
        ..MemoryOptions::figure1(256)
    };
    let b = TrainingMemoryModel::new(&cfg).breakdown(method.optimizer(&cfg), &opts);
    b.weights_gib + b.optimizer_gib
}

fn main() {
    let sizes = [
        ("60M", scaled(300)),
        ("130M", scaled(150)),
        ("350M", scaled(80)),
    ];
    // (label base, method, quantize weights?)
    let cases = [
        ("AdamW", Method::AdamW, false),
        ("GaLore", Method::GaLore, false),
        ("Q-GaLore", Method::GaLore, true),
        ("APOLLO", Method::Apollo, false),
        ("Q-APOLLO", Method::Apollo, true),
        ("APOLLO-Mini", Method::ApolloMini, false),
        ("Q-APOLLO-Mini", Method::ApolloMini, true),
    ];
    let mut cells = Vec::new();
    for (size, steps) in sizes {
        let cfg = proxy_for(size);
        for (label, m, quant) in cases {
            eprintln!("[table6] {size} {label} ...");
            let opt = m.optimizer(&cfg);
            let tc = TrainConfig {
                steps,
                lr: opt.lr(),
                grad_clip: opt.grad_clip(),
                quantize_weights: quant.then_some(128),
                ..TrainConfig::quick(steps)
            };
            let log = pretrain_run(&cfg, m, steps, 4, 42, Some(tc));
            cells.push(Cell {
                method: label.to_string(),
                size: size.to_string(),
                ppl: log.final_ppl,
                memory_gib: paper_memory_gib(m, quant, size),
            });
        }
    }
    let mut rows = Vec::new();
    for (label, _, _) in cases {
        let mut row = vec![label.to_string()];
        for (size, _) in sizes {
            let c = cells
                .iter()
                .find(|c| c.method == label && c.size == size)
                .unwrap();
            row.push(format!("{:.2}", c.ppl));
            row.push(format!("{:.2}G", c.memory_gib));
        }
        rows.push(row);
    }
    print_table(
        "Table 6 — INT8-weight training (proxy ppl; paper-geometry weights+states memory)",
        &[
            "Method", "60M ppl", "mem", "130M ppl", "mem", "350M ppl", "mem",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: Q-variants cost a small ppl penalty but halve weight memory; \
         Q-APOLLO stays clearly below Q-GaLore's perplexity."
    );
    write_json("table6_quantized", &cells);
}
