//! Fig. 1 (right): end-to-end LLaMA-7B training throughput on 8×A100-80G.
//!
//! The batch-size search under the 80 GB budget plus the amortized SVD
//! stall reproduce the paper's ~3× (vs AdamW) and ~2× (vs GaLore)
//! advantages.
//!
//! The analytic model charges the optimizer step nothing beyond GaLore's
//! SVD stall — the paper's "APOLLO steps as cheaply as AdamW". Beside it
//! this binary *measures* that assumption where this repo can: one
//! `Optimizer::step` over two layers of LLaMA-60M weight shapes, AdamW
//! against APOLLO (rank 128) and APOLLO-Mini, in this process.

use std::time::Instant;

use apollo_bench::{print_table, write_json};
use apollo_nn::ModelConfig;
use apollo_optim::memory::MethodSpec;
use apollo_optim::{AdamW, Apollo, Optimizer, ParamUpdate};
use apollo_sysmodel::{Gpu, MemoryOptions, ThroughputModel, ThroughputReport};
use apollo_tensor::{Matrix, Rng, ThreadOverrideGuard};
use serde::Serialize;

#[derive(Serialize)]
struct MeasuredStep {
    method: String,
    /// Median of the timed steps, milliseconds.
    step_ms_p50: f64,
    /// Relative to AdamW's median in the same process.
    vs_adamw: f64,
}

#[derive(Serialize)]
struct Fig1Throughput {
    modelled: Vec<ThroughputReport>,
    /// What `measured_optimizer_step` ran on.
    measured_on: String,
    measured_optimizer_step: Vec<MeasuredStep>,
}

/// Median `Optimizer::step` time (ms) over the attention and MLP weights
/// of two LLaMA-60M layers, after one untimed step that allocates state.
fn measure_steps(cfg: &ModelConfig) -> Vec<MeasuredStep> {
    const TIMED: usize = 15;
    // One kernel thread, as the standing benchmark's `optstep` runs.
    let _one_thread = ThreadOverrideGuard::new(1);
    let (h, inter) = (cfg.hidden, cfg.intermediate);
    let layer = [
        (h, h),
        (h, h),
        (h, h),
        (h, h),
        (h, inter),
        (h, inter),
        (inter, h),
    ];
    let shapes: Vec<(usize, usize)> = layer.iter().chain(&layer).copied().collect();
    let mut rng = Rng::seed_from_u64(0xF161);
    let init: Vec<Matrix> = shapes
        .iter()
        .map(|&(r, c)| Matrix::randn_scaled(r, c, 0.02, &mut rng))
        .collect();
    let grads: Vec<Matrix> = shapes
        .iter()
        .map(|&(r, c)| Matrix::randn_scaled(r, c, 0.01, &mut rng))
        .collect();
    let names: Vec<String> = (0..shapes.len()).map(|i| format!("w{i}")).collect();
    let cases: [(&str, Box<dyn Optimizer>); 3] = [
        ("AdamW", Box::new(AdamW::new())),
        ("APOLLO(r=128)", Box::new(Apollo::new(128, 200))),
        ("APOLLO-Mini", Box::new(Apollo::mini(200))),
    ];
    let mut medians = Vec::new();
    for (name, mut opt) in cases {
        let mut weights = init.clone();
        let mut times = Vec::with_capacity(TIMED);
        for step in 0..=TIMED {
            let mut params: Vec<ParamUpdate<'_>> = weights
                .iter_mut()
                .zip(&grads)
                .zip(&names)
                .map(|((value, grad), name)| ParamUpdate {
                    name,
                    value,
                    grad,
                    projectable: true,
                })
                .collect();
            let t0 = Instant::now();
            opt.step(&mut params, 1e-3);
            if step > 0 {
                times.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        times.sort_by(f64::total_cmp);
        medians.push((name, times[TIMED / 2]));
    }
    let adamw = medians[0].1;
    medians
        .into_iter()
        .map(|(name, ms)| MeasuredStep {
            method: name.to_string(),
            step_ms_p50: ms,
            vs_adamw: ms / adamw,
        })
        .collect()
}

fn main() {
    let mut model = ThroughputModel::new(&ModelConfig::llama_7b(), Gpu::a100_80g(), 8, 256);
    // The paper's 7B GaLore recipe stretches the subspace refresh to every
    // 1000 steps (A1); APOLLO needs no such accommodation.
    model.svd_refresh_period = 1000;

    let std = MemoryOptions::standard(1, 256);
    let lw = MemoryOptions {
        layer_wise_grad: true,
        ..std
    };
    let cases = [
        (MethodSpec::AdamW, std),
        (MethodSpec::GaLore { rank: 1024 }, lw),
        (MethodSpec::Apollo { rank: 256 }, lw),
        (MethodSpec::ApolloMini, lw),
    ];
    let mut reports = Vec::new();
    for (spec, opts) in cases {
        reports.push(model.report(spec, &opts));
    }
    let measured_cfg = ModelConfig::llama_60m();
    let measured = measure_steps(&measured_cfg);
    // The measured row each modelled row sits beside (GaLore is not
    // measured: its cost is the SVD refresh, which Fig. 9 covers).
    let beside = [Some(0), None, Some(1), Some(2)].map(|i: Option<usize>| {
        i.map_or("-".to_string(), |i| {
            format!(
                "{:.1} ({:.2}x)",
                measured[i].step_ms_p50, measured[i].vs_adamw
            )
        })
    });
    let base = reports[0].tokens_per_sec;
    let table: Vec<Vec<String>> = reports
        .iter()
        .zip(beside)
        .map(|(r, beside)| {
            vec![
                r.method.clone(),
                format!("{}", r.micro_batch),
                format!("{:.1}", r.memory_gib),
                format!("{:.2}", r.step_seconds),
                format!("{:.0}", r.tokens_per_sec),
                format!("{:.2}x", r.tokens_per_sec / base),
                beside,
            ]
        })
        .collect();
    print_table(
        "Fig. 1 (right) — LLaMA-7B throughput, 8x A100-80GB",
        &[
            "Method",
            "Micro-batch",
            "Mem (GiB)",
            "s/step",
            "Tokens/s",
            "vs AdamW",
            "measured opt step ms (vs AdamW)",
        ],
        &table,
    );
    println!("\nPaper shape: APOLLO ≈3x AdamW and ≈2x GaLore via 4x larger batches + no SVD.");
    let measured_on = format!(
        "Optimizer::step over the attention+MLP weights of 2 layers of {} ({}x{} / {}x{}), \
         this CPU, 1 kernel thread, APOLLO at rank 128",
        measured_cfg.name,
        measured_cfg.hidden,
        measured_cfg.hidden,
        measured_cfg.hidden,
        measured_cfg.intermediate,
    );
    println!("Measured column: {measured_on}.");
    write_json(
        "fig1_throughput",
        &Fig1Throughput {
            modelled: reports,
            measured_on,
            measured_optimizer_step: measured,
        },
    );
}
