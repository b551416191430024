//! The single-geometry artefacts: checkpoint curves (Fig. 6, Table 3,
//! Fig. 2), traced runs (Figs. 3 and 9), the scaling-factor probe (Fig. 4),
//! the long-context sweep (Fig. 7) and the ablations beyond the paper.

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig, ParamKind};
use apollo_obs::{read_trace, Obs, TraceEvent};
use apollo_optim::UPDATE_FREQ;
use apollo_optim::{AdamWChannelwise, Apollo, Method, NormGrowthLimiter, Optimizer, ProjKind};
use apollo_sysmodel::{Gpu, MemoryOptions, ThroughputModel, TrainingMemoryModel};
use apollo_tensor::Matrix;
use apollo_train::{param_updates, RunLog, TrainConfig};
use serde::Serialize;

use crate::analytic::throughput_7b;
use crate::{fresh, json, print_table, train, Ctx, Row, Rows};

/// Trains the rows of the first geometry in `rows` under their recipe, for
/// a budget of `steps` at scale 1 in batches of `batch`, evaluating `evals`
/// times along the way.
fn curves(
    ctx: &Ctx,
    tag: &str,
    rows: &Rows,
    steps: usize,
    batch: usize,
    evals: usize,
    seed: u64,
) -> Vec<RunLog> {
    let (cfg, rows) = &rows[0];
    let steps = ctx.steps(steps);
    let run = |row: &Row| {
        eprintln!("[{tag}] {} ({steps} steps) ...", row.label);
        let tc = TrainConfig {
            eval_every: (steps / evals).max(1),
            ..row.recipe(steps)
        };
        row.run(cfg, batch, seed, &tc, &Obs::disabled())
    };
    rows.iter().map(run).collect()
}

/// Prints one line per run: its label, the `lead` column if any, then its
/// validation ppl at each checkpoint.
fn print_curves(title: &str, lead: Option<(&str, Vec<String>)>, logs: &[RunLog]) {
    let mut headers = vec!["Method".to_string()];
    headers.extend(lead.iter().map(|(head, _)| head.to_string()));
    headers.extend(logs[0].eval_ppls.iter().map(|(s, _)| format!("ppl@{s}")));
    let line = |(i, l): (usize, &RunLog)| {
        let mut line = vec![l.optimizer.clone()];
        line.extend(lead.as_ref().map(|(_, col)| col[i].clone()));
        line.extend(l.eval_ppls.iter().map(|&(_, p)| format!("{p:.2}")));
        line
    };
    let lines: Vec<Vec<String>> = logs.iter().enumerate().map(line).collect();
    print_table(title, &headers.join("|"), &lines);
}

/// Fig. 6's rows on the 350M proxy.
pub(crate) fn fig6_rows() -> Rows {
    let cfg = ModelConfig::tiny_350m();
    let r = cfg.default_rank();
    let rows = vec![
        Row::new("Fira", Method::Fira { rank: r }),
        Row::new("APOLLO", Method::apollo(r)),
        Row::new("AdamW", Method::adamw()),
    ];
    vec![(cfg, rows)]
}

/// Fig. 6: APOLLO vs Fira training dynamics on the 350M proxy — Fira leads
/// early, APOLLO catches up and passes late.
pub(crate) fn fig6(ctx: &Ctx, seed: u64) -> String {
    let rows = fig6_rows();
    let logs = curves(ctx, "fig6", &rows, 300, 4, 8, seed);
    let title = format!(
        "Fig. 6 — validation ppl over training ({}, {} steps)",
        rows[0].0.name,
        ctx.steps(300)
    );
    print_curves(&title, None, &logs);
    println!(
        "\nPaper shape: Fira converges faster early; APOLLO closes the gap with more tokens \
         and both beat AdamW."
    );
    json(&logs)
}

/// `at`'s rows on the 7B proxy (GaLore and APOLLO at its n/4), then at
/// LLaMA-7B with the paper's ranks (1024 and 256).
fn llama7b_rows(at: fn(usize, usize) -> Vec<Row>) -> Rows {
    let proxy = ModelConfig::tiny_7b();
    let r = proxy.default_rank();
    vec![(proxy, at(r, r)), (ModelConfig::llama_7b(), at(1024, 256))]
}

/// Table 3's rows with GaLore and APOLLO at the given ranks.
fn table3_at(galore_rank: usize, apollo_rank: usize) -> Vec<Row> {
    let galore8bit = Method::GaLore {
        rank: galore_rank,
        proj: ProjKind::Svd,
        int8: true,
    };
    vec![
        Row::new("8-bit Adam", Method::AdamW { int8: true }),
        Row::new("8-bit GaLore", galore8bit),
        Row::new("APOLLO", Method::apollo(apollo_rank)),
        Row::new("APOLLO-Mini", Method::mini()),
    ]
}

pub(crate) fn table3_rows() -> Rows {
    llama7b_rows(table3_at)
}

#[derive(Serialize)]
struct Table3Row {
    method: String,
    optimizer_memory_gib: f64,
    checkpoints: Vec<(usize, f32)>,
}

/// Table 3: LLaMA-7B pre-training (proxy) — validation perplexity at four
/// checkpoints plus the paper-geometry optimizer memory. The paper's
/// checkpoints 40K/80K/120K/150K map to quarters of the budget; each row's
/// optimizer memory is counted at the paper's 7B ranks, BF16 states (INT8
/// where the method quantizes).
pub(crate) fn table3(ctx: &Ctx, seed: u64) -> String {
    let rows = table3_rows();
    let logs = curves(ctx, "table3", &rows, 100, 1, 4, seed);
    let mem7b = TrainingMemoryModel::new(&rows[1].0);
    let memory = |row: &Row| {
        mem7b
            .breakdown(row.method, &MemoryOptions::figure1(256))
            .optimizer_gib
    };
    let memory: Vec<f64> = rows[1].1.iter().map(memory).collect();
    let column = memory.iter().map(|m| format!("{m:.1}G")).collect();
    print_curves(
        &format!(
            "Table 3 — 7B-proxy pre-training, checkpoints over {} steps",
            ctx.steps(100)
        ),
        Some(("Opt. mem (7B)", column)),
        &logs,
    );
    println!(
        "\nPaper shape: APOLLO/Mini beat the 8-bit baselines by a clear ppl margin at every \
         checkpoint, with 1.6G / ~0G optimizer memory vs 13G / 4.9G."
    );
    let rows: Vec<Table3Row> = logs
        .into_iter()
        .zip(memory)
        .map(|(log, optimizer_memory_gib)| Table3Row {
            method: log.optimizer,
            optimizer_memory_gib,
            checkpoints: log.eval_ppls,
        })
        .collect();
    json(&rows)
}

/// Fig. 2's rows with GaLore and APOLLO at the given ranks.
fn fig2_at(galore_rank: usize, apollo_rank: usize) -> Vec<Row> {
    vec![
        Row::new("AdamW", Method::adamw()),
        Row::new("GaLore", Method::galore(galore_rank)),
        Row::new("APOLLO", Method::apollo(apollo_rank)),
        Row::new("APOLLO-Mini", Method::mini()),
    ]
}

pub(crate) fn fig2_rows() -> Rows {
    llama7b_rows(fig2_at)
}

#[derive(Serialize)]
struct Series {
    method: String,
    /// Modeled optimizer steps per hour at 7B on 8×A100 (total batch 512
    /// sequences per step, micro-batch from the memory search).
    steps_per_hour: f64,
    /// `(modeled hours, proxy val ppl)` points.
    curve: Vec<(f64, f32)>,
}

/// Fig. 2: LLaMA-7B validation perplexity against *wall-clock* time under
/// a fixed training-time budget.
///
/// The proxy runs give ppl-vs-step curves; the analytic throughput model
/// (Fig. 1 right) converts each method's steps to hours on 8×A100-80G. The
/// reproduction target is the crossover story: AdamW is so much slower per
/// token that APOLLO/Mini finish far more optimization within the budget,
/// and APOLLO overtakes GaLore midway.
pub(crate) fn fig2(ctx: &Ctx, seed: u64) -> String {
    let rows = fig2_rows();
    // Modeled step rate: a fixed 512-sequence global batch per optimizer
    // step, assembled from memory-bound micro-batches (as in §5.1):
    // seconds per step = micro-steps × micro-step time.
    let rate = |r: &apollo_sysmodel::ThroughputReport| {
        let micro_steps = (512f64 / (r.micro_batch.max(1) * 8) as f64).ceil();
        3600.0 / (micro_steps * r.step_seconds)
    };
    let rates: Vec<f64> = throughput_7b(&rows[1].1).iter().map(rate).collect();
    let logs = curves(ctx, "fig2", &rows, 100, 1, 8, seed);
    // Map proxy steps to modeled hours: the paper's 150K-step budget over
    // the proxy budget.
    let paper_steps_per_proxy_step = 150_000.0 / ctx.steps(100) as f64;
    let series: Vec<Series> = logs
        .into_iter()
        .zip(rates)
        .map(|(log, steps_per_hour)| {
            let hours = |s: usize| s as f64 * paper_steps_per_proxy_step / steps_per_hour;
            Series {
                method: log.optimizer,
                steps_per_hour,
                curve: log.eval_ppls.iter().map(|&(s, p)| (hours(s), p)).collect(),
            }
        })
        .collect();
    let lines: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let (end_h, end_ppl) = *s.curve.last().expect("an evaluation");
            vec![
                s.method.clone(),
                format!("{:.0}", s.steps_per_hour),
                format!("{end_h:.0} h"),
                format!("{end_ppl:.2}"),
            ]
        })
        .collect();
    print_table(
        "Fig. 2 — modeled time-to-budget at 7B (proxy ppl, modeled hours for 150K steps)",
        "Method | Steps/hour (7B model) | Hours for full budget | Final ppl",
        &lines,
    );
    println!(
        "\nPaper shape: only APOLLO/Mini finish the 150K-step budget inside ~15 days; \
         AdamW's wall-clock is ≈3x theirs; APOLLO passes GaLore mid-training."
    );
    json(&series)
}

/// One run of `row` streaming a JSONL trace to
/// `<out>/<prefix>_trace_<label slug>.jsonl`, with the events read back.
fn traced(
    ctx: &Ctx,
    prefix: &str,
    (cfg, row): (&ModelConfig, &Row),
    batch: usize,
    seed: u64,
    tc: &TrainConfig,
) -> (RunLog, Vec<TraceEvent>) {
    let slug = row
        .label
        .to_ascii_lowercase()
        .replace(|c: char| !c.is_ascii_alphanumeric(), "-");
    let path = ctx.out.join(format!("{prefix}_trace_{slug}.jsonl"));
    let obs = Obs::with_trace(&path, 1).expect("open trace");
    let log = row.run(cfg, batch, seed, tc, &obs);
    drop(obs);
    (log, read_trace(&path).expect("trace must parse"))
}

pub(crate) fn fig3_rows() -> Rows {
    let channelwise = |limiter| Method::AdamWChannelwise { limiter };
    let rows = vec![
        Row::new("Element-wise LR (AdamW)", Method::adamw()),
        Row::new("Channel-wise LR", channelwise(false)),
        Row::new("Channel-wise LR + NL", channelwise(true)),
    ];
    vec![(ModelConfig::tiny_130m(), rows)]
}

/// Fig. 3: element-wise vs channel-wise learning-rate adaptation, with and
/// without the norm-growth limiter, on the 130M proxy.
///
/// Reproduction targets: (i) channel-wise matches (or slightly beats)
/// element-wise AdamW; (ii) the limiter removes the early-training loss
/// spikes of the structured rule. Each run streams a JSONL trace
/// (`fig3_trace_<method>.jsonl` beside the results); the limiter-clip
/// column and the sanity checks below are read back from those traces
/// rather than recomputed in-process.
pub(crate) fn fig3(ctx: &Ctx, seed: u64) -> String {
    let (cfg, rows) = fig3_rows().remove(0);
    let steps = ctx.steps(400);
    let mut logs = Vec::new();
    let mut lines = Vec::new();
    for row in &rows {
        eprintln!("[fig3] {} ...", row.label);
        let (log, events) = traced(ctx, "fig3", (&cfg, row), 4, seed, &row.recipe(steps));
        let (mut clips, mut max_ratio, mut sampled) = (0, 0.0f32, 0);
        for e in &events {
            match e {
                TraceEvent::LimiterClip { ratio, .. } => {
                    clips += 1;
                    max_ratio = max_ratio.max(*ratio);
                }
                TraceEvent::StepMetrics { loss, .. } => {
                    assert!(loss.is_finite(), "trace recorded a non-finite loss");
                    sampled += 1;
                }
                _ => {}
            }
        }
        // The limiter column is only meaningful if the trace sampled every
        // step; fail loudly if the probe went blind.
        assert!(
            sampled >= steps,
            "{}: trace sampled {sampled} of {steps} steps",
            row.label
        );
        // The largest upward jump between consecutive loss samples in the
        // first third of training.
        let early = log
            .train_losses
            .windows(2)
            .take((log.train_losses.len() / 3).max(2));
        let spike = early.map(|w| w[1].1 - w[0].1).fold(0.0f32, f32::max);
        let clips = match clips {
            0 => "0".to_string(),
            n => format!("{n} (max {max_ratio:.2}x)"),
        };
        lines.push(vec![
            log.optimizer.clone(),
            format!("{:.2}", log.final_ppl),
            format!("{spike:.3}"),
            format!("{:.2}", log.train_losses.last().expect("a logged loss").1),
            clips,
        ]);
        logs.push(log);
    }
    print_table(
        &format!(
            "Fig. 3 — structured LR adaptation ({}, {steps} steps)",
            cfg.name
        ),
        "Method | Val ppl | Max early loss jump | Final train loss | Limiter clips",
        &lines,
    );
    println!(
        "\nPaper shape: channel-wise ≤ element-wise ppl; limiter suppresses the early spike \
         and improves further (24.11 < 24.43 < 25.08 at paper scale)."
    );
    json(&logs)
}

#[derive(Serialize)]
struct LayerRatio {
    param: String,
    expected: f32,
    measured_mean: f32,
    measured_p10: f32,
    measured_p90: f32,
    rank: usize,
}

/// Figs. 4 and 8: the channel-wise scaling-factor ratio follows √(n/r)
/// (Theorem A.4).
///
/// One model is trained with the full-rank structured rule (the golden
/// `s_j`); at every step the *same gradient stream* also feeds passive
/// APOLLO probes at ranks n/8 and n/4, whose updates are discarded. The
/// per-channel ratios `s_j^R / s_j` should concentrate around √(r/n)
/// (≈ 0.354 and 0.5), i.e. the paper's 1 : √2 : 2√2 pattern.
pub(crate) fn fig4(ctx: &Ctx, seed: u64) -> String {
    let cfg = ModelConfig::tiny_350m(); // hidden 128
    let steps = ctx.steps(60);
    let ranks = [cfg.hidden / 8, cfg.hidden / 4]; // 16, 32
    let mut model = fresh(&cfg, LinearMode::Dense, seed);
    // Probe copies receive identical gradients; their updated weights are
    // never used, so the trajectory is governed by the golden optimizer.
    let mut probes: Vec<(LlamaModel, Apollo)> = ranks
        .iter()
        .map(|&r| (model.clone(), Apollo::new(r, UPDATE_FREQ).without_limiter()))
        .collect();
    let mut golden = AdamWChannelwise::new().without_limiter();

    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let mut batcher = LmBatcher::new(corpus, 4, cfg.max_seq);
    for step in 0..steps {
        let (tokens, targets) = batcher.next_batch();
        let (_, grads) = model.loss_and_grads(&tokens, &targets, 4);
        for (pm, popt) in probes.iter_mut() {
            popt.step(&mut param_updates(pm, &grads), 1e-9); // negligible probe updates
        }
        golden.step(&mut param_updates(&mut model, &grads), 1e-2);
        if step % 20 == 0 {
            eprintln!("[fig4] step {step}/{steps}");
        }
    }

    // Compare scales on projectable params. The golden optimizer's
    // ParamUpdate indices line up with the probes' (same param list).
    let mut lines = Vec::new();
    let mut ratios_json = Vec::new();
    let params = model.params.iter().filter(|p| p.trainable);
    for ((_, apollo), &rank) in probes.iter().zip(&ranks) {
        let expected = (rank as f32 / cfg.hidden as f32).sqrt();
        for (i, p) in params.clone().enumerate() {
            if p.kind != ParamKind::Projectable || !p.name.contains("layers.1.") {
                continue; // one representative layer keeps the table small
            }
            let (golden_s, apollo_s) = (&golden.last_scales[i], &apollo.last_scales[i]);
            if golden_s.is_empty() || apollo_s.len() != golden_s.len() {
                continue;
            }
            let ratios = golden_s.iter().zip(apollo_s).filter(|(g, _)| **g > 1e-12);
            let mut ratios: Vec<f32> = ratios.map(|(g, a)| a / g).collect();
            ratios.sort_by(f32::total_cmp);
            let mean = ratios.iter().sum::<f32>() / ratios.len() as f32;
            let p10 = ratios[ratios.len() / 10];
            let p90 = ratios[ratios.len() * 9 / 10];
            lines.push(vec![
                p.name.clone(),
                format!("{rank}"),
                format!("{expected:.3}"),
                format!("{mean:.3}"),
                format!("[{p10:.3}, {p90:.3}]"),
            ]);
            ratios_json.push(LayerRatio {
                param: p.name.clone(),
                expected,
                measured_mean: mean,
                measured_p10: p10,
                measured_p90: p90,
                rank,
            });
        }
    }
    print_table(
        &format!(
            "Fig. 4 — scaling-factor ratio s^R/s vs √(r/n) ({}, n = {})",
            cfg.name, cfg.hidden
        ),
        "Param (layer 1) | r | √(r/n) | mean ratio | [p10, p90]",
        &lines,
    );
    println!("\nPaper shape: ratios track √(r/n) (≈0.354 at n/8, 0.5 at n/4) across layer types.");
    json(&ratios_json)
}

/// Fig. 7's sweep as `(row, lr, α)` on the 350M proxy at 4× its 64-token
/// window (the paper goes 256 → 1024): AdamW over a small LR grid, then
/// APOLLO and APOLLO-Mini over α at LR 1e-2 (§5.4-A5).
fn fig7_sweep() -> (ModelConfig, Vec<(Row, f32, f32)>) {
    let mut cfg = ModelConfig::tiny_350m();
    cfg.max_seq = 256;
    cfg.name = "tiny-350m-long".to_string();
    let mut sweep = Vec::new();
    for lr in [3e-3f32, 1e-2] {
        sweep.push((
            Row::new(&format!("AdamW (lr={lr})"), Method::adamw()),
            lr,
            1.0,
        ));
    }
    for alpha_sq in [1.0f32, 2.0, 3.0] {
        let row = Row::new(
            &format!("APOLLO (α=√{alpha_sq})"),
            Method::apollo(cfg.default_rank()),
        );
        sweep.push((row, 1e-2, alpha_sq.sqrt()));
    }
    for mult in [1.0f32, 2.0, 3.0] {
        let alpha = Method::mini_alpha(cfg.hidden) * mult.sqrt();
        let row = Row::new(&format!("APOLLO-Mini (α={alpha:.1})"), Method::mini());
        sweep.push((row, 1e-2, alpha));
    }
    (cfg, sweep)
}

pub(crate) fn fig7_rows() -> Rows {
    let (cfg, sweep) = fig7_sweep();
    vec![(cfg, sweep.into_iter().map(|(row, ..)| row).collect())]
}

#[derive(Serialize)]
struct Fig7Run {
    label: String,
    final_ppl: f32,
    log: RunLog,
}

/// Fig. 7: long-context pre-training (4× the default context window) on
/// the 350M proxy. AdamW gets a grid-searched LR; APOLLO/APOLLO-Mini get a
/// lazy α sweep at fixed LR 1e-2, as in §5.4-A5.
pub(crate) fn fig7(ctx: &Ctx, seed: u64) -> String {
    let (cfg, sweep) = fig7_sweep();
    let steps = ctx.steps(100);
    let mut results = Vec::new();
    for (row, lr, alpha) in sweep {
        eprintln!("[fig7] {} ...", row.label);
        let tc = TrainConfig {
            lr,
            grad_clip: row.method.grad_clip(),
            eval_every: (steps / 4).max(1),
            ..TrainConfig::quick(steps)
        };
        // The log keeps the optimizer's own name; the label names the run.
        let mut model = fresh(&cfg, LinearMode::Dense, seed);
        let log = train(
            &mut model,
            row.optimizer(alpha, alpha).as_mut(),
            1,
            &tc,
            &Obs::disabled(),
        );
        let final_ppl = log.final_ppl;
        results.push(Fig7Run {
            label: row.label,
            final_ppl,
            log,
        });
    }
    let line = |r: &Fig7Run| vec![r.label.clone(), format!("{:.2}", r.final_ppl)];
    print_table(
        &format!(
            "Fig. 7 — long-context (seq {} = 4x base), {steps} steps",
            cfg.max_seq
        ),
        "Run | Val ppl",
        &results.iter().map(line).collect::<Vec<_>>(),
    );
    let best = |prefix: &str| {
        let runs = results.iter().filter(|r| r.label.starts_with(prefix));
        runs.map(|r| r.final_ppl).fold(f32::MAX, f32::min)
    };
    println!(
        "\nBest-of-sweep: AdamW {:.2} | APOLLO {:.2} | APOLLO-Mini {:.2}",
        best("AdamW"),
        best("APOLLO ("),
        best("APOLLO-Mini")
    );
    println!("Paper shape: both APOLLO variants match or beat grid-searched AdamW.");
    json(&results)
}

pub(crate) fn fig9_rows() -> Rows {
    let cfg = ModelConfig::tiny_1b();
    let r = cfg.default_rank();
    let rows = vec![
        Row::new("GaLore", Method::galore(r)),
        Row::new("APOLLO", Method::apollo(r)),
    ];
    vec![(cfg, rows)]
}

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
#[derive(Default)]
struct Timings {
    total_ms: Vec<f32>,
    optimizer_ms: Vec<f32>,
    refresh_steps: Vec<usize>,
}

/// Fig. 9: training-throughput spikes caused by periodic SVD subspace
/// updates in GaLore-type optimizers.
///
/// Two complementary reproductions: the analytic model at LLaMA-1B scale
/// (what the paper plots), and *measured* per-step wall-clock on the CPU
/// proxy, where GaLore's Jacobi-SVD refresh produces the same spike pattern
/// for real. The proxy runs stream JSONL traces (`fig9_trace_*.jsonl`); the
/// per-step timings are read back from `StepPhases` events, and the GaLore
/// spikes are cross-checked against the `ProjectorRefresh` events recorded
/// by the optimizer itself.
pub(crate) fn fig9(ctx: &Ctx, seed: u64) -> String {
    // Part 1: analytic 1B series, refresh every 200 steps as in the figure.
    let model = ThroughputModel::new(&ModelConfig::llama_1b(), Gpu::a100_80g(), 8, 256);
    let opts = MemoryOptions::standard(1, 256);
    let bs = model.max_micro_batch(Method::galore(512), &opts).max(1);
    let tokens_per_step = (bs * 256 * 8) as f64;
    let galore_series = model.step_time_series(Method::galore(512), bs, 600, 200);
    let apollo_series = model.step_time_series(Method::apollo(512), bs, 600, 200);

    // Part 2: measured proxy runs with per-step timing. The projector
    // refresh period is fixed at 200, so run ≥ 2.5 windows for the spikes
    // to appear several times.
    let steps = ctx.steps(450).max(410);
    let (cfg, rows) = fig9_rows().remove(0);
    let timings = |row: &Row| {
        let tc = TrainConfig {
            record_step_times: true,
            ..row.quick(steps)
        };
        let (_, events) = traced(ctx, "fig9", (&cfg, row), 1, seed, &tc);
        let mut t = Timings::default();
        for e in &events {
            match e {
                TraceEvent::StepPhases {
                    total_ms,
                    optimizer_ms,
                    ..
                } => {
                    t.total_ms.push(*total_ms);
                    t.optimizer_ms.push(*optimizer_ms);
                }
                TraceEvent::ProjectorRefresh { step, .. }
                    if t.refresh_steps.last() != Some(step) =>
                {
                    t.refresh_steps.push(*step);
                }
                _ => {}
            }
        }
        assert_eq!(t.total_ms.len(), steps, "trace missing StepPhases events");
        t
    };
    let (galore, apollo) = (timings(&rows[0]), timings(&rows[1]));

    let max = |xs: &[f32]| xs.iter().cloned().fold(0.0f32, f32::max);
    let median = |xs: &[f32]| {
        let mut s = xs.to_vec();
        s.sort_by(f32::total_cmp);
        s[s.len() / 2]
    };
    let measured = |name: &str, t: &Timings| {
        let (median, max) = (median(&t.total_ms), max(&t.total_ms));
        let name = format!("proxy-1B ({name}, measured ms)");
        vec![
            name,
            format!("{median:.0}"),
            format!("{max:.0}"),
            format!("{:.1}x", max / median),
        ]
    };
    let g = &galore_series.step_seconds;
    let modeled = vec![
        "1B model (GaLore, modeled s)".into(),
        format!("{:.2}", g[1]),
        format!("{:.2}", g[0]),
        format!("{:.1}x", g[0] / g[1]),
    ];
    print_table(
        "Fig. 9 — SVD-induced step-time spikes",
        "Series | Median step | Max step | Spike ratio",
        &[
            modeled,
            measured("GaLore", &galore),
            measured("APOLLO", &apollo),
        ],
    );

    // Cross-check: the slowest GaLore *optimizer phase* after step 0 must
    // land on a later step where the trace also recorded a projector refresh
    // — that is the causal claim of the figure, verified from the trace
    // itself. Step 0 is left out: its SVD coincides with allocating the
    // optimizer state, so it is the slowest whatever a refresh costs.
    let slowest = galore
        .optimizer_ms
        .iter()
        .enumerate()
        .skip(1)
        .max_by(|a, b| a.1.total_cmp(b.1));
    if let Some((worst, _)) = slowest {
        let aligned = match galore.refresh_steps.contains(&worst) {
            true => "aligned with a refresh",
            false => "NOT aligned — investigate",
        };
        println!(
            "\nGaLore refresh steps (from trace): {:?}; slowest optimizer phase after step 0 \
             at step {worst} ({aligned})",
            galore.refresh_steps,
        );
    }
    println!("Paper shape: GaLore throughput collapses every T steps; APOLLO stays flat.");
    json(&Fig9 {
        modeled_1b_galore_tokens_per_sec: galore_series.throughput(tokens_per_step),
        modeled_1b_apollo_tokens_per_sec: apollo_series.throughput(tokens_per_step),
        measured_proxy_galore_ms: galore.total_ms,
        measured_proxy_apollo_ms: apollo.total_ms,
        galore_refresh_steps: galore.refresh_steps,
        galore_optimizer_ms: galore.optimizer_ms,
    })
}

#[derive(Serialize)]
struct Point {
    sweep: String,
    value: f32,
    ppl: f32,
}

/// Extra ablations beyond the paper's tables (called out in DESIGN.md):
/// the projection re-sample period T (Algorithm 1's `update_freq`),
/// APOLLO-Mini's gradient scale factor α and the norm-growth limiter
/// threshold γ. The method table has no column for these knobs, so the
/// sweeps build their optimizers directly.
pub(crate) fn ablations(ctx: &Ctx, seed: u64) -> String {
    let cfg = ModelConfig::tiny_60m();
    let rank = cfg.default_rank();
    let tc = TrainConfig {
        lr: Method::apollo(rank).lr(),
        ..TrainConfig::quick(ctx.steps(300))
    };
    let run = |opt: &mut dyn Optimizer| {
        let mut model = fresh(&cfg, LinearMode::Dense, seed);
        train(&mut model, opt, 4, &tc, &Obs::disabled()).final_ppl
    };
    let mut points = Vec::new();
    let mut point = |sweep: &str, value, ppl| {
        let sweep = sweep.to_string();
        points.push(Point { sweep, value, ppl });
    };

    // 1. Subspace refresh period T. The paper fixes T = 200 without tuning;
    //    robustness across T supports the seed-resample design.
    let mut t_rows = Vec::new();
    for t in [25usize, 100, 200, 1_000_000] {
        eprintln!("[ablations] T = {t} ...");
        let ppl = run(&mut Apollo::new(rank, t));
        let label = if t == 1_000_000 {
            "never".to_string()
        } else {
            t.to_string()
        };
        t_rows.push(vec![label, format!("{ppl:.2}")]);
        point("update_freq", t as f32, ppl);
    }
    print_table(
        "Ablation — APOLLO subspace refresh period T",
        "T | Val ppl",
        &t_rows,
    );

    // 2. APOLLO-Mini α sensitivity around the √(hidden/4) rule.
    let base_alpha = Method::mini_alpha(cfg.hidden);
    let mut a_rows = Vec::new();
    for mult in [0.25f32, 0.5, 1.0, 2.0, 4.0] {
        let alpha = base_alpha * mult;
        eprintln!("[ablations] Mini α = {alpha:.2} ...");
        let ppl = run(&mut Apollo::mini(200).with_alpha(alpha));
        a_rows.push(vec![
            format!("{alpha:.2} ({mult}x rule)"),
            format!("{ppl:.2}"),
        ]);
        point("mini_alpha", alpha, ppl);
    }
    let title = format!("Ablation — APOLLO-Mini α (rule value {base_alpha:.2})");
    print_table(&title, "α | Val ppl", &a_rows);

    // 3. Norm-growth limiter γ (paper default 1.01). The limiter is built
    //    inside APOLLO, so the γ sweep checks the limiter alone (clamping
    //    behaviour), plus a run with the limiter disabled as the γ→∞
    //    reference.
    let mut g_rows = Vec::new();
    for gamma in [1.005f32, 1.01, 1.1, 2.0] {
        eprintln!("[ablations] γ = {gamma} ...");
        let mut l = NormGrowthLimiter::new(gamma);
        l.apply(&mut Matrix::full(1, 4, 1.0));
        let mut u = Matrix::full(1, 4, 10.0);
        let clamped = l.apply(&mut u);
        g_rows.push(vec![
            format!("{gamma}"),
            format!("{clamped:?}"),
            format!("{:.3}", u.fro_norm()),
        ]);
    }
    let off = run(&mut Apollo::new(rank, 200).without_limiter());
    let on = run(&mut Apollo::new(rank, 200));
    g_rows.push(vec![
        "with vs without (ppl)".into(),
        format!("{on:.2}"),
        format!("{off:.2}"),
    ]);
    point("limiter_on", 1.0, on);
    point("limiter_off", 0.0, off);
    print_table(
        "Ablation — norm-growth limiter",
        "γ / comparison | clamped@10x | ‖u‖ after",
        &g_rows,
    );
    json(&points)
}
