//! Extra ablations beyond the paper's tables (called out in DESIGN.md):
//!
//! 1. projection re-sample period T (Algorithm 1's `update_freq`),
//! 2. APOLLO-Mini's gradient scale factor α,
//! 3. the norm-growth limiter threshold γ.

use apollo_bench::{print_table, scaled, write_json, Method};
use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_optim::{Apollo, NormGrowthLimiter, Optimizer};
use apollo_tensor::Rng;
use apollo_train::{pretrain, TrainConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    sweep: String,
    value: f32,
    ppl: f32,
}

fn run(cfg: &ModelConfig, opt: &mut dyn Optimizer, steps: usize, lr: f32) -> f32 {
    let mut rng = Rng::seed_from_u64(42);
    let mut model = LlamaModel::new(cfg, LinearMode::Dense, &mut rng);
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let mut batcher = LmBatcher::new(corpus, 4, cfg.max_seq);
    let tc = TrainConfig {
        lr,
        ..TrainConfig::quick(steps)
    };
    pretrain(&mut model, opt, &mut batcher, &tc).final_ppl
}

fn main() {
    let cfg = ModelConfig::tiny_60m();
    let steps = scaled(300);
    let rank = cfg.default_rank();
    let lr = Method::Apollo.optimizer(&cfg).lr();
    let mut points = Vec::new();

    // 1. Subspace refresh period T. The paper fixes T = 200 without tuning;
    //    robustness across T supports the seed-resample design.
    let mut t_rows = Vec::new();
    for t in [25usize, 100, 200, 1_000_000] {
        eprintln!("[ablations] T = {t} ...");
        let ppl = run(&cfg, &mut Apollo::new(rank, t), steps, lr);
        let label = if t == 1_000_000 {
            "never".to_string()
        } else {
            t.to_string()
        };
        t_rows.push(vec![label, format!("{ppl:.2}")]);
        points.push(Point {
            sweep: "update_freq".into(),
            value: t as f32,
            ppl,
        });
    }
    print_table(
        "Ablation — APOLLO subspace refresh period T",
        &["T", "Val ppl"],
        &t_rows,
    );

    // 2. APOLLO-Mini α sensitivity around the √(hidden/4) rule.
    let base_alpha = Method::mini_alpha(&cfg);
    let mut a_rows = Vec::new();
    for mult in [0.25f32, 0.5, 1.0, 2.0, 4.0] {
        let alpha = base_alpha * mult;
        eprintln!("[ablations] Mini α = {alpha:.2} ...");
        let ppl = run(&cfg, &mut Apollo::mini(200).with_alpha(alpha), steps, lr);
        a_rows.push(vec![
            format!("{alpha:.2} ({mult}x rule)"),
            format!("{ppl:.2}"),
        ]);
        points.push(Point {
            sweep: "mini_alpha".into(),
            value: alpha,
            ppl,
        });
    }
    print_table(
        &format!("Ablation — APOLLO-Mini α (rule value {base_alpha:.2})"),
        &["α", "Val ppl"],
        &a_rows,
    );

    // 3. Norm-growth limiter γ (paper default 1.01). Reuses APOLLO but
    //    swaps each tensor's limiter threshold via a custom loop.
    let mut g_rows = Vec::new();
    for gamma in [1.005f32, 1.01, 1.1, 2.0] {
        eprintln!("[ablations] γ = {gamma} ...");
        // The limiter is constructed inside Apollo; emulate a γ sweep by
        // checking the limiter alone (clamping behaviour) plus a run with
        // the limiter disabled as the γ→∞ reference.
        let mut l = NormGrowthLimiter::new(gamma);
        let mut u1 = apollo_tensor::Matrix::full(1, 4, 1.0);
        l.apply(&mut u1);
        let mut u2 = apollo_tensor::Matrix::full(1, 4, 10.0);
        let clamped = l.apply(&mut u2);
        g_rows.push(vec![
            format!("{gamma}"),
            format!("{clamped:?}"),
            format!("{:.3}", u2.fro_norm()),
        ]);
    }
    let no_limiter_ppl = run(
        &cfg,
        &mut Apollo::new(rank, 200).without_limiter(),
        steps,
        lr,
    );
    let with_limiter_ppl = run(&cfg, &mut Apollo::new(rank, 200), steps, lr);
    g_rows.push(vec![
        "with vs without (ppl)".into(),
        format!("{with_limiter_ppl:.2}"),
        format!("{no_limiter_ppl:.2}"),
    ]);
    points.push(Point {
        sweep: "limiter_on".into(),
        value: 1.0,
        ppl: with_limiter_ppl,
    });
    points.push(Point {
        sweep: "limiter_off".into(),
        value: 0.0,
        ppl: no_limiter_ppl,
    });
    print_table(
        "Ablation — norm-growth limiter",
        &["γ / comparison", "clamped@10x", "‖u‖ after"],
        &g_rows,
    );

    write_json("ablations", &points);
}
