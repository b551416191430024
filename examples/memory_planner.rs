//! Memory-planning scenario: "which optimizer lets me train model X on
//! GPU Y?" — the §5.3 question, answered with the analytic memory model.
//!
//! ```sh
//! cargo run --release --example memory_planner
//! ```

use apollo_repro::nn::ModelConfig;
use apollo_repro::optim::Method;
use apollo_repro::sysmodel::{Gpu, MemoryOptions, TrainingMemoryModel, WeightPrecision};

fn main() {
    let gpus = [Gpu::a100_80g(), Gpu::consumer_12g()];
    let models = [ModelConfig::llama_7b(), ModelConfig::llama_13b()];
    let methods = [
        ("AdamW", Method::adamw(), false),
        ("GaLore r=1024", Method::galore(1024), false),
        ("APOLLO r=256", Method::apollo(256), false),
        ("APOLLO-Mini", Method::mini(), false),
        ("Q-APOLLO-Mini", Method::mini(), true),
    ];

    for model_cfg in &models {
        let mem = TrainingMemoryModel::new(model_cfg);
        println!(
            "\n=== {} (batch 1, seq 256, layer-wise grads) ===",
            model_cfg.name
        );
        for (name, spec, int8) in methods {
            let opts = MemoryOptions {
                weights: if int8 {
                    WeightPrecision::Int8 { group: 128 }
                } else {
                    WeightPrecision::Bf16
                },
                ..MemoryOptions::figure1(256)
            };
            let b = mem.breakdown(spec, &opts);
            let fits: Vec<String> = gpus
                .iter()
                .map(|g| {
                    format!(
                        "{}: {}",
                        g.name,
                        if b.total_gib() <= g.memory_gib {
                            "fits"
                        } else {
                            "OOM"
                        }
                    )
                })
                .collect();
            println!(
                "{name:<14} {:6.1} GiB (weights {:.1} + states {:.1} + rest {:.1})   [{}]",
                b.total_gib(),
                b.weights_gib,
                b.optimizer_gib,
                b.grads_gib + b.activations_gib,
                fits.join(", ")
            );
        }
    }
    println!(
        "\nHeadlines: APOLLO-Mini fits LLaMA-13B on one A100-80G with naive DDP, and \
         Q-APOLLO-Mini fits LLaMA-7B under 12 GB — AdamW fits neither."
    );
}
