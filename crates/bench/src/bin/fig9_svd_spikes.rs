//! Fig. 9: training-throughput spikes caused by periodic SVD subspace
//! updates in GaLore-type optimizers.
//!
//! Two complementary reproductions:
//! 1. the analytic model at LLaMA-1B scale (what the paper plots), and
//! 2. *measured* per-step wall-clock on the CPU proxy, where GaLore's
//!    Jacobi-SVD refresh produces the same spike pattern for real.
//!
//! The proxy runs stream JSONL traces (`results/fig9_trace_*.jsonl`); the
//! per-step timings are read back from `StepPhases` events, and the GaLore
//! spikes are cross-checked against the `ProjectorRefresh` events recorded
//! by the optimizer itself.

use apollo_bench::{pretrain_run_observed, print_table, results_dir, scaled, write_json, Method};
use apollo_nn::ModelConfig;
use apollo_obs::{read_trace, Obs, TraceEvent};
use apollo_optim::Method as OptMethod;
use apollo_sysmodel::{Gpu, MemoryOptions, ThroughputModel};
use apollo_train::TrainConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Fig9 {
    modeled_1b_galore_tokens_per_sec: Vec<f64>,
    modeled_1b_apollo_tokens_per_sec: Vec<f64>,
    measured_proxy_galore_ms: Vec<f32>,
    measured_proxy_apollo_ms: Vec<f32>,
    galore_refresh_steps: Vec<usize>,
    galore_optimizer_ms: Vec<f32>,
}

/// Per-step timings recovered from a run's trace.
struct Timings {
    total_ms: Vec<f32>,
    optimizer_ms: Vec<f32>,
    refresh_steps: Vec<usize>,
}

fn traced_timing(method: Method, steps: usize, name: &str) -> Timings {
    let cfg = ModelConfig::tiny_1b();
    let opt = method.optimizer(&cfg);
    let tc = TrainConfig {
        steps,
        lr: opt.lr(),
        grad_clip: opt.grad_clip(),
        record_step_times: true,
        ..TrainConfig::quick(steps)
    };
    let path = results_dir().join(format!("fig9_trace_{name}.jsonl"));
    let obs = Obs::with_trace(&path, 1).expect("open fig9 trace");
    pretrain_run_observed(&cfg, method, steps, 1, 99, Some(tc), &obs);
    drop(obs);
    let mut t = Timings {
        total_ms: Vec::new(),
        optimizer_ms: Vec::new(),
        refresh_steps: Vec::new(),
    };
    for e in &read_trace(&path).expect("fig9 trace must parse") {
        match e {
            TraceEvent::StepPhases {
                total_ms,
                optimizer_ms,
                ..
            } => {
                t.total_ms.push(*total_ms);
                t.optimizer_ms.push(*optimizer_ms);
            }
            TraceEvent::ProjectorRefresh { step, .. } if t.refresh_steps.last() != Some(step) => {
                t.refresh_steps.push(*step);
            }
            _ => {}
        }
    }
    assert_eq!(t.total_ms.len(), steps, "trace missing StepPhases events");
    t
}

fn spike(xs: &[f32]) -> f32 {
    let max = xs.iter().cloned().fold(0.0f32, f32::max);
    max / median(xs)
}

fn median(xs: &[f32]) -> f32 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s[s.len() / 2]
}

fn main() {
    // Part 1: analytic 1B series, refresh every 200 steps as in the figure.
    let model = ThroughputModel::new(&ModelConfig::llama_1b(), Gpu::a100_80g(), 8, 256);
    let opts = MemoryOptions::standard(1, 256);
    let bs = model.max_micro_batch(OptMethod::galore(512), &opts).max(1);
    let tokens_per_step = (bs * 256 * 8) as f64;
    let galore_series = model.step_time_series(OptMethod::galore(512), bs, 600, 200);
    let apollo_series = model.step_time_series(OptMethod::apollo(512), bs, 600, 200);
    let g_thpt = galore_series.throughput(tokens_per_step);
    let a_thpt = apollo_series.throughput(tokens_per_step);

    // Part 2: measured proxy runs with per-step timing. GaLore refreshes
    // its SVD basis every UPDATE_FREQ steps; shrink the budget so spikes
    // appear several times. (Projector refresh period is fixed at 200, so
    // run ≥ 2.5 windows.)
    let steps = scaled(450).max(410);
    let galore = traced_timing(Method::GaLore, steps, "galore");
    let apollo = traced_timing(Method::Apollo, steps, "apollo");

    print_table(
        "Fig. 9 — SVD-induced step-time spikes",
        &["Series", "Median step", "Max step", "Spike ratio"],
        &[
            vec![
                "1B model (GaLore, modeled s)".into(),
                format!("{:.2}", galore_series.step_seconds[1]),
                format!("{:.2}", galore_series.step_seconds[0]),
                format!(
                    "{:.1}x",
                    galore_series.step_seconds[0] / galore_series.step_seconds[1]
                ),
            ],
            vec![
                "proxy-1B (GaLore, measured ms)".into(),
                format!("{:.0}", median(&galore.total_ms)),
                format!(
                    "{:.0}",
                    galore.total_ms.iter().cloned().fold(0.0f32, f32::max)
                ),
                format!("{:.1}x", spike(&galore.total_ms)),
            ],
            vec![
                "proxy-1B (APOLLO, measured ms)".into(),
                format!("{:.0}", median(&apollo.total_ms)),
                format!(
                    "{:.0}",
                    apollo.total_ms.iter().cloned().fold(0.0f32, f32::max)
                ),
                format!("{:.1}x", spike(&apollo.total_ms)),
            ],
        ],
    );

    // Cross-check: the slowest GaLore *optimizer phase* must land on a step
    // where the trace also recorded a projector refresh — that is the causal
    // claim of the figure, now verified from the trace itself.
    if let Some(worst) = galore
        .optimizer_ms
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
    {
        let aligned = galore.refresh_steps.contains(&worst);
        println!(
            "\nGaLore refresh steps (from trace): {:?}; slowest optimizer phase at step {} ({})",
            galore.refresh_steps,
            worst,
            if aligned {
                "aligned with a refresh"
            } else {
                "NOT aligned — investigate"
            }
        );
    }
    println!("Paper shape: GaLore throughput collapses every T steps; APOLLO stays flat.");
    write_json(
        "fig9_svd_spikes",
        &Fig9 {
            modeled_1b_galore_tokens_per_sec: g_thpt,
            modeled_1b_apollo_tokens_per_sec: a_thpt,
            measured_proxy_galore_ms: galore.total_ms,
            measured_proxy_apollo_ms: apollo.total_ms,
            galore_refresh_steps: galore.refresh_steps,
            galore_optimizer_ms: galore.optimizer_ms,
        },
    );
}
