//! `pretrain`: `apollo_train::pretrain` on `tiny_1b` (hidden 192, 5 layers,
//! seq 64), batch 4, APOLLO rank 48 — the paper's end-user path.
//!
//! Forward and backward (`nn`, `autograd`, `tensor::matmul`) are most of a
//! step and the optimizer a small share, so kernel and autograd work shows
//! here and optimizer work barely does. The traced pass runs the same loop
//! split by hand at the public layer boundaries; its losses must equal the
//! untraced call's bit for bit, which proves the spans time the same
//! arithmetic.

use std::time::Instant;

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LlamaModel, ModelConfig, ParamKind};
use apollo_optim::{Apollo, Optimizer, ParamUpdate};
use apollo_tensor::{Matrix, ThreadOverrideGuard};
use apollo_train::{
    pretrain, train_state_blob, LrSchedule, ResilienceReport, RunLog, TrainConfig, TrainMeta,
};

use super::{ms, put_setup_and_rss, timed_setup, trace_overhead_pct, Ctx, RATE_BLOCK, TAIL_BLOCK};
use crate::inputs;
use crate::report::Outcome;
use crate::stats::{self, Fnv};
use crate::trace::{Recorder, NO_SPAN};

/// Steps per second of `--seconds`, frozen from the reference box.
const STEPS_PER_S: f64 = 7.0;
const BATCH: usize = 4;
const RANK: usize = 48;
const UPDATE_FREQ: usize = 200;
const LR: f32 = 0.03;
/// Steps run on a throwaway model before anything is timed, so scratch
/// pools and lazily built tables exist when the measured run starts.
const WARMUP_STEPS: usize = 3;
/// Extra steps at each thread count for the pool-scaling probe.
const POOL_PROBE_STEPS: usize = 12;

struct Inputs {
    model: LlamaModel,
    batcher: LmBatcher,
}

fn optimizer() -> Apollo {
    Apollo::new(RANK, UPDATE_FREQ)
}

fn train_config(steps: usize) -> TrainConfig {
    TrainConfig {
        steps,
        lr: LR,
        grad_clip: None,
        eval_every: 0,
        // No held-out evaluation: the run is the training loop alone.
        eval_seqs: 0,
        merge_every: None,
        record_step_times: true,
        grad_accum: 1,
        quantize_weights: None,
    }
}

/// Model, corpus and batcher from the seed, then a short warm-up on a
/// throwaway copy.
fn setup(seed: u64) -> Inputs {
    let model = inputs::tiny_1b_model(seed);
    let cfg = model.config().clone();
    let corpus = SyntheticCorpus::new(CorpusConfig {
        corpus_seed: seed ^ 0xC0FFEE,
        ..CorpusConfig::with_vocab(cfg.vocab_size)
    });
    let batcher = LmBatcher::new(corpus, BATCH, cfg.max_seq);
    let mut throwaway = model.clone();
    pretrain(
        &mut throwaway,
        &mut optimizer(),
        &mut batcher.clone(),
        &train_config(WARMUP_STEPS),
    );
    Inputs { model, batcher }
}

fn optimizer_updates<'a>(
    model: &'a mut LlamaModel,
    grads: &'a [Option<Matrix>],
) -> Vec<ParamUpdate<'a>> {
    model
        .params
        .iter_mut()
        .zip(grads)
        .filter_map(|(p, g)| match (p.trainable, g.as_ref()) {
            (true, Some(grad)) => Some(ParamUpdate {
                name: &p.name,
                value: &mut p.value,
                grad,
                projectable: p.kind == ParamKind::Projectable,
            }),
            _ => None,
        })
        .collect()
}

/// The training loop of `apollo_train::pretrain`, split at the public
/// layer boundaries with a span around each part. Returns every step's
/// loss and wall time.
fn traced_loop(
    inp: &Inputs,
    steps: usize,
    rec: &mut Recorder,
) -> (Vec<f32>, Vec<f64>, LlamaModel, Apollo, LmBatcher) {
    let mut model = inp.model.clone();
    let mut batcher = inp.batcher.clone();
    let mut opt = optimizer();
    let schedule = LrSchedule::paper_default(LR, steps);
    let mut losses = Vec::with_capacity(steps);
    let mut step_ms = Vec::with_capacity(steps);
    for step in 0..steps {
        let op = step as u64;
        let t0 = Instant::now();
        let s_step = rec.begin("train.step", NO_SPAN, op);

        let s = rec.begin("data.next_batch", s_step, op);
        let (tokens, targets) = batcher.next_batch();
        rec.end(s);

        let s = rec.begin("nn.model.forward", s_step, op);
        let (mut graph, loss_id, pnodes) = model.build_loss(&tokens, &targets, BATCH);
        rec.end(s);
        losses.push(graph.value(loss_id).get(0, 0));

        let s = rec.begin("autograd.backward", s_step, op);
        graph.backward(loss_id);
        let grads = model.collect_grads(&graph, &pnodes);
        rec.end(s);
        drop(graph);

        let s = rec.begin("core.apollo.step", s_step, op);
        opt.step(
            &mut optimizer_updates(&mut model, &grads),
            schedule.lr_at(step),
        );
        rec.end(s);

        rec.end(s_step);
        step_ms.push(ms(t0.elapsed()));
    }
    (losses, step_ms, model, opt, batcher)
}

fn mean(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Output checks on the untraced run: every loss finite, and training
/// trains.
fn check_losses(log: &RunLog, out: &mut Outcome) {
    let losses: Vec<f32> = log.train_losses.iter().map(|&(_, l)| l).collect();
    let bad = losses.iter().filter(|l| !l.is_finite()).count();
    if bad > 0 {
        out.fail(bad as u64, format!("{bad} non-finite losses"));
    }
    if losses.len() >= 20 {
        let (first, last) = (mean(&losses[..10]), mean(&losses[losses.len() - 10..]));
        if last.is_nan() || last >= first {
            out.fail(
                1,
                format!("loss did not fall: first ten {first}, last ten {last}"),
            );
        }
    }
    let mut fnv = Fnv::new();
    fnv.f32_bits(&losses);
    out.fingerprint = fnv.finish();
}

/// Forward matmul FLOPs of one step, computed from the weight shapes:
/// every weight matrix is applied once per token except the embedding
/// (a gather); attention's score/value products are not counted.
fn forward_weight_flops(cfg: &ModelConfig) -> f64 {
    let tokens = (BATCH * cfg.max_seq) as f64;
    cfg.weight_shapes()
        .iter()
        .filter(|(name, rows, _)| *rows > 1 && name != "embed.weight")
        .map(|(_, r, c)| 2.0 * tokens * (*r * *c) as f64)
        .sum()
}

/// `POOL_PROBE_STEPS` extra steps at 1 kernel thread, then the same at 2.
/// Thread scaling is a per-layer number: every measured run pins 1 thread.
fn pool_probe(
    model: &mut LlamaModel,
    opt: &mut Apollo,
    batcher: &mut LmBatcher,
    out: &mut Outcome,
) {
    let mut run = |threads: usize| -> (f64, u64) {
        let _pin = ThreadOverrideGuard::new(threads);
        let jobs0 = apollo_tensor::pool::stats().jobs;
        let t0 = Instant::now();
        for _ in 0..POOL_PROBE_STEPS {
            let (tokens, targets) = batcher.next_batch();
            let (_, grads) = model.loss_and_grads(&tokens, &targets, BATCH);
            opt.step(&mut optimizer_updates(model, &grads), LR * 0.1);
        }
        (ms(t0.elapsed()), apollo_tensor::pool::stats().jobs - jobs0)
    };
    let (t1, _) = run(1);
    let (t2, jobs2) = run(2);
    out.put("tensor.pool.speedup_t2", t1 / t2, "ratio", POOL_PROBE_STEPS);
    out.put(
        "tensor.pool.jobs_per_step_t2",
        jobs2 as f64 / POOL_PROBE_STEPS as f64,
        "count",
        POOL_PROBE_STEPS,
    );
}

pub fn run(ctx: &Ctx) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let steps = ctx.count(STEPS_PER_S);
    let (inp, setup_s) = timed_setup(|| setup(ctx.seed));

    // The untraced run: one call into the program's own training loop.
    let mut model = inp.model.clone();
    let log = pretrain(
        &mut model,
        &mut optimizer(),
        &mut inp.batcher.clone(),
        &train_config(steps),
    );
    drop(model);
    out.attempted = steps as u64;
    check_losses(&log, &mut out);
    let step_times: Vec<f64> = log.step_times_ms.iter().map(|&t| f64::from(t)).collect();
    let tokens_per_step = (BATCH * inp.batcher.seq()) as f64;
    out.put(
        "train_tok_per_s",
        tokens_per_step * stats::block_rate_per_s(&step_times, RATE_BLOCK),
        "tok/s",
        steps,
    );
    out.put_percentile("step_ms_p50", &step_times, 50, "ms");
    out.put_block_tail("step_ms_p90", &step_times, 90, TAIL_BLOCK, "ms");
    out.put("opt_state_bytes", log.state_bytes as f64, "bytes", 1);
    put_setup_and_rss(&mut out, setup_s);

    let mut rec = Recorder::new(ctx.trace);
    if ctx.trace {
        let (losses, traced_ms, mut model, mut opt, mut batcher) =
            traced_loop(&inp, steps, &mut rec);
        out.attempted += steps as u64;
        // `pretrain` samples every step's loss below 400 steps.
        let same = log.train_losses.len() == losses.len()
            && log
                .train_losses
                .iter()
                .zip(&losses)
                .all(|(&(_, a), b)| a.to_bits() == b.to_bits());
        if !same {
            out.fail(
                1,
                "hand-split loop's losses differ from pretrain()'s".to_string(),
            );
        }
        out.put(
            "trace_overhead_pct",
            trace_overhead_pct(stats::p50(&traced_ms), stats::p50(&step_times)),
            "%",
            steps,
        );

        // Shares are taken inside the traced pass — each span against the
        // step span it is part of — so a pass that lands in a slow minute of
        // the host still splits into the same shares. The cross-pass figure
        // (spans against the untraced median) is kept as a note.
        let traced_step_p50 = stats::p50(&rec.durations_ms("train.step"));
        let mut spans_sum = 0.0;
        for (span, metric) in [
            ("data.next_batch", "data.next_batch_ms"),
            ("nn.model.forward", "nn.model.forward_ms"),
            ("autograd.backward", "autograd.backward_ms"),
            ("core.apollo.step", "core.apollo.step_ms"),
        ] {
            let d = rec.durations_ms(span);
            let p50 = stats::p50(&d);
            spans_sum += p50;
            out.put(metric, p50, "ms", d.len());
            out.put(
                &format!("{metric}_share"),
                p50 / traced_step_p50,
                "ratio",
                d.len(),
            );
        }
        out.put(
            "train.loop_other_ms",
            stats::p50(&rec.self_ms("train.step")),
            "ms",
            steps,
        );
        out.put(
            "nn.model.fwd_gflops_computed",
            forward_weight_flops(model.config()) / (out.get("nn.model.forward_ms").unwrap() * 1e6),
            "GFLOP/s",
            steps,
        );
        out.notes.push(format!(
            "the four step spans sum to {:.1}% of the untraced step median",
            spans_sum / out.get("step_ms_p50").expect("reported above") * 100.0
        ));

        // Checkpoint stall: serialising the full training state once.
        let meta = TrainMeta {
            step: steps as u64,
            data_cursor: batcher.cursor(),
            rng_state: vec![0; 4],
            rng_spare: None,
            lr_scale: 1.0,
            spike_window: Vec::new(),
            report: ResilienceReport::default(),
        };
        let t0 = Instant::now();
        let opt_state = opt.state_save().expect("APOLLO state serialises");
        let blob =
            train_state_blob(&model, model.mode(), &meta, &opt_state).expect("blob serialises");
        out.put("train.checkpoint.blob_ms", ms(t0.elapsed()), "ms", 1);
        out.put("train.checkpoint.blob_bytes", blob.len() as f64, "bytes", 1);
        drop(blob);

        pool_probe(&mut model, &mut opt, &mut batcher, &mut out);
    }
    (out, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_count_supports_the_reported_percentiles() {
        let ctx = Ctx {
            seed: 0,
            seconds: 20,
            trace: false,
        };
        let steps = vec![0.0; ctx.count(STEPS_PER_S)];
        assert!(stats::percentile(&steps, 50).is_some());
        assert!(stats::percentile(&steps, 90).is_some());
        // Below 400 steps `pretrain` logs every step's loss, which the
        // bit-equality check of the traced pass relies on.
        assert!(steps.len() < 400);
    }
}
