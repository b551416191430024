//! Table 2: pre-training validation perplexity across methods and model
//! sizes (60M–1B proxies), with the paper-geometry memory column
//! (weights + optimizer states).

use apollo_bench::{pretrain_run, print_table, proxy_for, scaled, write_json, Method};
use apollo_nn::ModelConfig;
use apollo_sysmodel::{MemoryOptions, TrainingMemoryModel};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    method: String,
    size: String,
    ppl: f32,
    memory_gib: f64,
    state_elems: usize,
    wall_secs: f64,
}

/// Weights + optimizer states (Table 2's definition of "Memory") for the
/// *paper* geometry behind each proxy size.
fn paper_memory_gib(method: Method, size: &str) -> f64 {
    let cfg = match size {
        "60M" => ModelConfig::llama_60m(),
        "130M" => ModelConfig::llama_130m(),
        "350M" => ModelConfig::llama_350m(),
        "1B" => ModelConfig::llama_1b(),
        _ => unreachable!(),
    };
    let mem = TrainingMemoryModel::new(&cfg);
    let b = mem.breakdown(method.optimizer(&cfg), &MemoryOptions::figure1(256));
    b.weights_gib + b.optimizer_gib
}

fn main() {
    let sizes = [
        ("60M", scaled(600)),
        ("130M", scaled(300)),
        ("350M", scaled(150)),
        ("1B", scaled(60)),
    ];
    let methods = [
        Method::AdamW,
        Method::LowRank,
        Method::LoRa,
        Method::ReLoRa,
        Method::GaLore,
        Method::Fira,
        Method::ApolloSvd,
        Method::Apollo,
        Method::ApolloHalfRank,
        Method::ApolloMini,
    ];
    let mut cells: Vec<Cell> = Vec::new();
    for (size, steps) in sizes {
        let cfg = proxy_for(size);
        for m in methods {
            eprintln!("[table2] {size} {} ({steps} steps) ...", m.label());
            let log = pretrain_run(&cfg, m, steps, 4, 42, None);
            cells.push(Cell {
                method: m.label().to_string(),
                size: size.to_string(),
                ppl: log.final_ppl,
                memory_gib: paper_memory_gib(m, size),
                state_elems: log.state_elems,
                wall_secs: log.wall_secs,
            });
        }
    }

    let mut rows = Vec::new();
    for m in methods {
        let mut row = vec![m.label().to_string()];
        for (size, _) in sizes {
            let c = cells
                .iter()
                .find(|c| c.method == m.label() && c.size == size)
                .unwrap();
            row.push(format!("{:.2}", c.ppl));
            row.push(format!("{:.2}G", c.memory_gib));
        }
        rows.push(row);
    }
    print_table(
        "Table 2 — pre-training val ppl (proxy) and memory (paper geometry, weights+states)",
        &[
            "Method", "60M ppl", "mem", "130M ppl", "mem", "350M ppl", "mem", "1B ppl", "mem",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: Low-Rank ≫ worst; LoRA/ReLoRA trail AdamW; GaLore ≈ AdamW; \
         Fira/APOLLO(±SVD, ±half-rank)/Mini ≤ AdamW at a fraction of the memory."
    );
    write_json("table2_pretrain", &cells);
}
