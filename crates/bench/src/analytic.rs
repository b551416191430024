//! The analytic artefacts: optimizer-state counts (Table 1), the 7B memory
//! breakdown (Fig. 1 middle), the throughput model with its measured
//! optimizer-step column (Fig. 1 right) and the §5.3 system claims.

use std::time::Instant;

use apollo_nn::ModelConfig;
use apollo_optim::{Method, ParamUpdate};
use apollo_sysmodel::{claims, Gpu, MemoryOptions, ThroughputModel, ThroughputReport};
use apollo_sysmodel::{TrainingMemoryModel, WeightPrecision};
use apollo_tensor::{Matrix, Rng, ThreadOverrideGuard};
use serde::Serialize;

use crate::{json, print_table, Ctx, Row, Rows};

/// Rows labelled by the method table.
fn labelled(methods: &[Method]) -> Vec<Row> {
    methods.iter().map(|m| Row::new(&m.label(), *m)).collect()
}

/// Table 1's methods at rank 256.
pub(crate) fn table1_rows() -> Rows {
    let r = 256;
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
    vec![(ModelConfig::llama_7b(), labelled(&methods))]
}

/// Table 1: the per-tensor state counts for a representative `m × n`
/// weight (counted by the method table from the layouts the optimizers
/// allocate; its tests hold them to the paper's closed forms), then the
/// aggregate over a full LLaMA-7B inventory.
pub(crate) fn table1(_: &Ctx, _: u64) -> String {
    let (m, n) = (4096, 11008);
    let (cfg, rows) = table1_rows().remove(0);
    let mem7b = TrainingMemoryModel::new(&cfg);
    let lines: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let per_tensor = row.method.state_elems(&[(m, n, true)]);
            let total = row.method.state_elems(mem7b.shapes());
            // BF16 states, as in the paper's accounting.
            let bytes = total as f64 * row.method.bytes_per_state_elem().min(2.0);
            vec![
                row.label.clone(),
                format!("{per_tensor}"),
                format!("{:.2}", total as f64 / 1e9),
                format!("{:.2}", bytes / 1e9),
            ]
        })
        .collect();
    print_table(
        &format!("Table 1 — optimizer state for one {m}x{n} tensor (r = 256) and full LLaMA-7B"),
        "Method | State elems (tensor) | 7B total (G elems) | 7B states (GB, BF16)",
        &lines,
    );
    println!(
        "\nPaper formulas (m<=n): APOLLO-Mini 2n+2 | APOLLO 2nr+2 | Fira mr+2nr+1 | \
         GaLore mr+2nr | Flora 2nr+1 | AdamW 2mn"
    );
    json(&lines)
}

/// Fig. 1 (middle)'s rows; the `Q-` rows hold INT8 weights.
pub(crate) fn fig1_memory_rows() -> Rows {
    let rows = vec![
        Row::new("AdamW", Method::adamw()),
        Row::new("GaLore (r=1024)", Method::galore(1024)),
        Row::new("Q-GaLore (r=1024)", Method::galore(1024)),
        Row::new("APOLLO (r=256)", Method::apollo(256)),
        Row::new("Q-APOLLO (r=256)", Method::apollo(256)),
        Row::new("APOLLO-Mini", Method::mini()),
        Row::new("Q-APOLLO-Mini", Method::mini()),
    ];
    vec![(ModelConfig::llama_7b(), rows)]
}

#[derive(Serialize)]
struct MemoryRow {
    method: String,
    weights_gib: f64,
    grads_gib: f64,
    optimizer_gib: f64,
    activations_gib: f64,
    total_gib: f64,
}

/// Fig. 1 (middle): memory breakdown for LLaMA-7B at batch 1 with the
/// layer-wise gradient update strategy, including the (Q-) INT8 weight
/// variants.
pub(crate) fn fig1_memory(_: &Ctx, _: u64) -> String {
    let (cfg, rows) = fig1_memory_rows().remove(0);
    let mem = TrainingMemoryModel::new(&cfg);
    let rows: Vec<MemoryRow> = rows
        .into_iter()
        .map(|row| {
            let weights = match row.label.starts_with("Q-") {
                true => WeightPrecision::Int8 { group: 128 },
                false => WeightPrecision::Bf16,
            };
            let opts = MemoryOptions {
                weights,
                ..MemoryOptions::figure1(256)
            };
            let b = mem.breakdown(row.method, &opts);
            MemoryRow {
                method: row.label,
                weights_gib: b.weights_gib,
                grads_gib: b.grads_gib,
                optimizer_gib: b.optimizer_gib,
                activations_gib: b.activations_gib,
                total_gib: b.total_gib(),
            }
        })
        .collect();
    let lines: Vec<Vec<String>> = rows
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
        "Method | Weights | Grads | Optimizer | Activations | Total",
        &lines,
    );
    println!("\nPaper shape: AdamW ≈58 GB dominated by 28 GB states; Q-APOLLO-Mini ≈12 GB.");
    json(&rows)
}

/// The throughput model's report on each row at LLaMA-7B on 8×A100-80G
/// (sequence 256). The first row trains with full gradients, as AdamW is
/// deployed, the others layer-wise; the subspace refresh is stretched to
/// every 1000 steps, as the paper's 7B GaLore recipe does (A1).
pub(crate) fn throughput_7b(rows: &[Row]) -> Vec<ThroughputReport> {
    let mut model = ThroughputModel::new(&ModelConfig::llama_7b(), Gpu::a100_80g(), 8, 256);
    model.svd_refresh_period = 1000;
    let std = MemoryOptions::standard(1, 256);
    let lw = MemoryOptions {
        layer_wise_grad: true,
        ..std
    };
    let opts = |i| if i == 0 { &std } else { &lw };
    let report = |(i, row): (usize, &Row)| model.report(row.method, opts(i));
    rows.iter().enumerate().map(report).collect()
}

/// Fig. 1 (right)'s modelled methods at LLaMA-7B, and the optimizers its
/// measured column steps at LLaMA-60M shapes (APOLLO at rank 128).
pub(crate) fn fig1_throughput_rows() -> Rows {
    let modelled = [
        Method::adamw(),
        Method::galore(1024),
        Method::apollo(256),
        Method::mini(),
    ];
    let measured = [Method::adamw(), Method::apollo(128), Method::mini()];
    vec![
        (ModelConfig::llama_7b(), labelled(&modelled)),
        (ModelConfig::llama_60m(), labelled(&measured)),
    ]
}

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

/// Median `Optimizer::step` time (ms) of each row over the attention and
/// MLP weights of two layers at `cfg`, after one untimed step that
/// allocates state; weights and gradients are drawn from `seed`.
fn measure_steps(cfg: &ModelConfig, rows: &[Row], seed: u64) -> Vec<MeasuredStep> {
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
    let mut rng = Rng::seed_from_u64(seed);
    let mut draw = |std| -> Vec<Matrix> {
        let draw = |&(r, c): &(usize, usize)| Matrix::randn_scaled(r, c, std, &mut rng);
        shapes.iter().map(draw).collect()
    };
    let (init, grads) = (draw(0.02), draw(0.01));
    let names: Vec<String> = (0..shapes.len()).map(|i| format!("w{i}")).collect();
    let mut medians = Vec::new();
    for row in rows {
        let mut opt = row.optimizer(Method::mini_alpha(cfg.hidden), 1.0);
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
        medians.push((row.label.clone(), times[TIMED / 2]));
    }
    let adamw = medians[0].1;
    let step = |(method, ms)| MeasuredStep {
        method,
        step_ms_p50: ms,
        vs_adamw: ms / adamw,
    };
    medians.into_iter().map(step).collect()
}

/// Fig. 1 (right): end-to-end LLaMA-7B training throughput on 8×A100-80G.
///
/// The batch-size search under the 80 GB budget plus the amortized SVD
/// stall reproduce the paper's ~3× (vs AdamW) and ~2× (vs GaLore)
/// advantages. The analytic model charges the optimizer step nothing
/// beyond GaLore's SVD stall — the paper's "APOLLO steps as cheaply as
/// AdamW" — so beside it this artefact *measures* that assumption in its
/// own process: one `Optimizer::step` over two layers of LLaMA-60M weight
/// shapes, AdamW against APOLLO (rank 128) and APOLLO-Mini.
pub(crate) fn fig1_throughput(_: &Ctx, seed: u64) -> String {
    let [(_, modelled), (cfg, measured)] =
        <[_; 2]>::try_from(fig1_throughput_rows()).expect("two geometries");
    let reports = throughput_7b(&modelled);
    let measured = measure_steps(&cfg, &measured, seed);
    // The measured row each modelled row sits beside (GaLore is not
    // measured: its cost is the SVD refresh, which Fig. 9 covers).
    let beside = [Some(0), None, Some(1), Some(2)].map(|i: Option<usize>| {
        let step = |i: usize| {
            format!(
                "{:.1} ({:.2}x)",
                measured[i].step_ms_p50, measured[i].vs_adamw
            )
        };
        i.map_or("-".to_string(), step)
    });
    let base = reports[0].tokens_per_sec;
    let lines: Vec<Vec<String>> = reports
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
        "Method | Micro-batch | Mem (GiB) | s/step | Tokens/s | vs AdamW \
         | measured opt step ms (vs AdamW)",
        &lines,
    );
    println!("\nPaper shape: APOLLO ≈3x AdamW and ≈2x GaLore via 4x larger batches + no SVD.");
    let (h, inter) = (cfg.hidden, cfg.intermediate);
    let measured_on = format!(
        "Optimizer::step over the attention+MLP weights of 2 layers of {} \
         ({h}x{h} / {h}x{inter}), this CPU, 1 kernel thread, APOLLO at rank 128",
        cfg.name,
    );
    println!("Measured column: {measured_on}.");
    json(&Fig1Throughput {
        modelled: reports,
        measured_on,
        measured_optimizer_step: measured,
    })
}

/// §5.3's headline claims: LLaMA-13B with naive DDP on one A100-80G
/// (APOLLO-Mini), and LLaMA-7B under 12 GB (Q-APOLLO-Mini), each with its
/// AdamW counterfactual.
pub(crate) fn claims_system(_: &Ctx, _: u64) -> String {
    let claims = claims::all_claims();
    let lines: Vec<Vec<String>> = claims
        .iter()
        .map(|c| {
            vec![
                c.claim.clone(),
                format!("{:.1}", c.required_gib),
                format!("{:.1}", c.capacity_gib),
                if c.holds { "HOLDS" } else { "fails" }.into(),
            ]
        })
        .collect();
    print_table(
        "§5.3 system claims",
        "Claim | Required (GiB) | Capacity (GiB) | Verdict",
        &lines,
    );
    json(&claims)
}
