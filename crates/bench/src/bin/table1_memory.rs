//! Table 1: optimizer-state formula comparison across methods.
//!
//! Prints the per-tensor state counts for a representative `m × n` weight
//! (counted by the method table from the layouts the optimizers allocate;
//! its tests hold them to the paper's closed forms), then the aggregate
//! over a full LLaMA-7B inventory.

use apollo_bench::{print_table, write_json};
use apollo_nn::ModelConfig;
use apollo_optim::Method;
use apollo_sysmodel::TrainingMemoryModel;

fn main() {
    let (m, n, r) = (4096usize, 11008usize, 256usize);
    let methods = [
        Method::mini(),
        Method::apollo(r),
        Method::Fira { rank: r },
        Method::galore(r),
        Method::Flora { rank: r },
        Method::adamw(),
        Method::SgdMomentum,
        Method::Sgd,
    ];

    let mem7b = TrainingMemoryModel::new(&ModelConfig::llama_7b());
    let rows: Vec<Vec<String>> = methods
        .iter()
        .map(|method| {
            let per_tensor = method.state_elems(&[(m, n, true)]);
            let total = method.state_elems(mem7b.shapes());
            // BF16 states, as in the paper's accounting.
            let bytes = total as f64 * method.bytes_per_state_elem().min(2.0);
            vec![
                method.label(),
                format!("{per_tensor}"),
                format!("{:.2}", total as f64 / 1e9),
                format!("{:.2}", bytes / 1e9),
            ]
        })
        .collect();
    print_table(
        &format!("Table 1 — optimizer state for one {m}x{n} tensor (r = {r}) and full LLaMA-7B"),
        &[
            "Method",
            "State elems (tensor)",
            "7B total (G elems)",
            "7B states (GB, BF16)",
        ],
        &rows,
    );
    println!(
        "\nPaper formulas (m<=n): APOLLO-Mini 2n+2 | APOLLO 2nr+2 | Fira mr+2nr+1 | \
         GaLore mr+2nr | Flora 2nr+1 | AdamW 2mn"
    );
    write_json("table1_memory", &rows);
}
