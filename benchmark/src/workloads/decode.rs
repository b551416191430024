//! `decode-batch`: offline batch generation through the in-process
//! `Scheduler` — no sockets, no prefix cache, no adapters — on `tiny_1b`,
//! first with f32 weights, then with the INT8 + BF16-KV snapshot.
//!
//! All requests are submitted up front and the scheduler is ticked to
//! idle, so this measures `nn::decode` / `nn::quantized` / gemv /
//! `infer::sample` / `infer::scheduler` at m ≤ 8 (decode) and m = 32
//! (prefill chunks), where `pretrain` uses m = 256.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use apollo_infer::{
    generate, sample, GenRequest, GenResult, Outcome as Retired, SchedConfig, Scheduler,
};
use apollo_nn::{DecodeBackend, LlamaModel, QuantizedModel};
use apollo_obs::Obs;
use apollo_tensor::Rng;

use super::{ms, put_setup_and_rss, timed_setup, trace_overhead_pct, Ctx};
use crate::inputs::{self, DECODE_NEW, DECODE_PROMPT};
use crate::report::Outcome;
use crate::stats::{self, Fnv};
use crate::trace::{Recorder, NO_SPAN};

// Requests per second of `--seconds`, frozen from the reference box: the
// f32 phase takes about two thirds of the run, the INT8 phase one third.
const DENSE_REQ_PER_S: f64 = 8.8;
const INT8_REQ_PER_S: f64 = 4.4;

const MAX_ACTIVE: usize = 8;
const PREFILL_CHUNK: usize = 32;
const KV_CAPACITY: usize = DECODE_PROMPT + DECODE_NEW;
/// One request in this many is checked against serial `generate`.
const CHECK_EVERY: usize = 16;
const WARMUP_REQUESTS: usize = MAX_ACTIVE;
/// Block sizes of the block-wise estimators: throughput per 100 ticks
/// (about one wave of eight requests), tick p99 per 200 (its third largest,
/// with at least eight full-batch prefill ticks in every block).
const RATE_TICKS: usize = 100;
const TAIL_TICKS: usize = 200;

struct Inputs {
    model: Arc<LlamaModel>,
    quant: Arc<QuantizedModel>,
    dense: Vec<GenRequest>,
    int8: Vec<GenRequest>,
}

fn sched_config(queue: usize) -> SchedConfig {
    SchedConfig {
        max_active: MAX_ACTIVE,
        queue_cap: queue,
        prefill_chunk: PREFILL_CHUNK,
        kv_capacity: KV_CAPACITY,
        prefix_cache_bytes: 0,
    }
}

/// What one pass over a request list produced.
struct Batch {
    /// In submission order.
    results: Vec<GenResult>,
    tick_ms: Vec<f64>,
    /// Tokens sampled in each tick.
    tick_tokens: Vec<usize>,
    /// Ticks that ran no prefill rows (read off `ServeStats` around the tick).
    decode_only_tick_ms: Vec<f64>,
    occupancy: Vec<f64>,
    wall_ms: f64,
    prefill_tokens: u64,
    prefill_us: u64,
}

impl Batch {
    fn tokens(&self) -> usize {
        self.results.iter().map(|r| r.tokens.len()).sum()
    }

    /// Generated tokens per second of tick time, block-wise: the median
    /// over blocks of [`RATE_TICKS`] ticks of the block's tokens over its
    /// time (see `stats::block_median` for why).
    fn tok_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .tick_ms
            .chunks_exact(RATE_TICKS)
            .zip(self.tick_tokens.chunks_exact(RATE_TICKS))
            .map(|(ms, toks)| toks.iter().sum::<usize>() as f64 * 1e3 / ms.iter().sum::<f64>())
            .collect();
        if rates.is_empty() {
            self.tokens() as f64 * 1e3 / self.wall_ms
        } else {
            stats::median(&rates)
        }
    }
}

fn run_batch(
    backend: DecodeBackend,
    reqs: &[GenRequest],
    rec: &mut Recorder,
    span: &'static str,
) -> Batch {
    let mut sched = Scheduler::new(backend, sched_config(reqs.len()), Obs::disabled());
    for r in reqs {
        sched
            .submit(r.clone())
            .expect("queue sized to the request list");
    }
    let stats = sched.stats();
    let mut b = Batch {
        results: Vec::with_capacity(reqs.len()),
        tick_ms: Vec::new(),
        tick_tokens: Vec::new(),
        decode_only_tick_ms: Vec::new(),
        occupancy: Vec::new(),
        wall_ms: 0.0,
        prefill_tokens: 0,
        prefill_us: 0,
    };
    let started = Instant::now();
    while !sched.is_idle() {
        b.occupancy.push(sched.active() as f64 / MAX_ACTIVE as f64);
        let prefilled = stats.prefill_tokens.load(Ordering::Relaxed);
        let id = rec.begin(span, NO_SPAN, b.tick_ms.len() as u64);
        let t0 = Instant::now();
        sched.tick();
        let dt = ms(t0.elapsed());
        rec.end(id);
        b.tick_ms.push(dt);
        if stats.prefill_tokens.load(Ordering::Relaxed) == prefilled {
            b.decode_only_tick_ms.push(dt);
        }
        b.tick_tokens.push(sched.take_progress().len());
        b.results.append(&mut sched.take_finished());
    }
    b.wall_ms = ms(started.elapsed());
    b.prefill_tokens = stats.prefill_tokens.load(Ordering::Relaxed);
    b.prefill_us = stats.prefill_us.load(Ordering::Relaxed);
    b.results.sort_by_key(|r| r.id);
    b
}

fn setup(ctx: &Ctx) -> Inputs {
    let model = Arc::new(inputs::tiny_1b_model(ctx.seed));
    let quant = Arc::new(QuantizedModel::from_model(&model));
    let vocab = model.config().vocab_size;
    let n_dense = ctx.count(DENSE_REQ_PER_S);
    let n_int8 = ctx.count(INT8_REQ_PER_S);
    let mut all = inputs::decode_requests(ctx.seed, n_dense + n_int8 + WARMUP_REQUESTS, vocab);
    // Warm-up: one full batch of short generations through each backend.
    let mut warm = all.split_off(n_dense + n_int8);
    for r in &mut warm {
        r.cfg.max_new_tokens = 8;
    }
    let mut off = Recorder::new(false);
    run_batch(DecodeBackend::from(Arc::clone(&model)), &warm, &mut off, "");
    run_batch(DecodeBackend::from(Arc::clone(&quant)), &warm, &mut off, "");
    let int8 = all.split_off(n_dense);
    Inputs {
        model,
        quant,
        dense: all,
        int8,
    }
}

/// Output checks: every request ran to its token budget, and a fixed
/// 1-in-16 sample of the f32 results equals serial `generate`.
fn check(inp: &Inputs, dense: &Batch, int8: &Batch, out: &mut Outcome) {
    for (label, batch, reqs) in [("f32", dense, &inp.dense), ("int8", int8, &inp.int8)] {
        let short = batch
            .results
            .iter()
            .filter(|r| r.outcome != Retired::Done || r.tokens.len() != DECODE_NEW)
            .count()
            + reqs.len().saturating_sub(batch.results.len());
        if short > 0 {
            out.fail(
                short as u64,
                format!("{label}: {short} requests did not finish Done with {DECODE_NEW} tokens"),
            );
        }
    }
    let mut differ = 0;
    for (req, res) in inp.dense.iter().zip(&dense.results).step_by(CHECK_EVERY) {
        if generate(&inp.model, &req.prompt, &req.cfg, |_| {}) != res.tokens {
            differ += 1;
        }
    }
    if differ > 0 {
        out.fail(
            differ,
            format!("{differ} sampled f32 results differ from serial generate()"),
        );
    }
}

fn fingerprint(batches: [&Batch; 2]) -> u64 {
    let mut fnv = Fnv::new();
    for r in batches.iter().flat_map(|b| &b.results) {
        fnv.u32s(&r.tokens);
    }
    fnv.finish()
}

// ----- replays -----------------------------------------------------------------

/// Cache length where the timed replay steps start and how many run: the
/// window 148..204 is centred on the workload's mean decode position.
const REPLAY_SKIP: usize = 20;
const REPLAY_STEPS: usize = 56;

/// Prefills `slots` caches with 128-token prompts in chunks of 32 (timed),
/// runs [`REPLAY_SKIP`] decode steps untimed and [`REPLAY_STEPS`] timed.
/// `forward` runs one batch of rows and returns the time its LM-head call
/// took, if it made one.
fn replay_decode(
    prompts: &[&[u32]],
    mut forward: impl FnMut(&[(usize, u32)], bool) -> f64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut prefill, mut step, mut logits) = (Vec::new(), Vec::new(), Vec::new());
    for (slot, prompt) in prompts.iter().enumerate() {
        for chunk in prompt.chunks(PREFILL_CHUNK) {
            let rows: Vec<(usize, u32)> = chunk.iter().map(|&t| (slot, t)).collect();
            let t0 = Instant::now();
            forward(&rows, false);
            prefill.push(ms(t0.elapsed()));
        }
    }
    for i in 0..REPLAY_SKIP + REPLAY_STEPS {
        let rows: Vec<(usize, u32)> = (0..prompts.len())
            .map(|slot| (slot, prompts[slot][i % prompts[slot].len()]))
            .collect();
        let t0 = Instant::now();
        let head_ms = forward(&rows, true);
        let total = ms(t0.elapsed());
        if i >= REPLAY_SKIP {
            step.push(total - head_ms);
            logits.push(head_ms);
        }
    }
    (prefill, step, logits)
}

fn replay(inp: &Inputs, dense: &Batch, out: &mut Outcome) {
    let prompts: Vec<&[u32]> = inp
        .dense
        .iter()
        .take(MAX_ACTIVE)
        .map(|r| &r.prompt[..])
        .collect();
    let model = &inp.model;

    let mut caches: Vec<_> = (0..MAX_ACTIVE)
        .map(|_| model.new_kv_cache(KV_CAPACITY))
        .collect();
    let (prefill32, step_b8, logits_b8) = replay_decode(&prompts, |rows, head| {
        let hidden = model.forward_cached(&mut caches, rows);
        if !head {
            return 0.0;
        }
        let t0 = Instant::now();
        std::hint::black_box(model.lm_logits(&hidden));
        ms(t0.elapsed())
    });
    let mut caches = vec![model.new_kv_cache(KV_CAPACITY)];
    let (_, step_b1, _) = replay_decode(&prompts[..1], |rows, _| {
        std::hint::black_box(model.forward_cached(&mut caches, rows));
        0.0
    });
    let quant = &inp.quant;
    let mut caches: Vec<_> = (0..MAX_ACTIVE)
        .map(|_| quant.new_kv_cache(KV_CAPACITY))
        .collect();
    let (_, q_step_b8, _) = replay_decode(&prompts, |rows, _| {
        std::hint::black_box(quant.forward_cached(&mut caches, rows));
        0.0
    });

    // `sample` on one 512-logit row, alternating the workload's two configs.
    let hidden = model.forward_cached(&mut [model.new_kv_cache(4)], &[(0, prompts[0][0])]);
    let row = model.lm_logits(&hidden).as_slice().to_vec();
    let cfgs = [&inp.dense[0].cfg, &inp.dense[1].cfg];
    let mut rng = Rng::seed_from_u64(1);
    const SAMPLES: usize = 4000;
    let t0 = Instant::now();
    for i in 0..SAMPLES {
        std::hint::black_box(sample(std::hint::black_box(&row), cfgs[i % 2], &mut rng));
    }
    let sample_us = ms(t0.elapsed()) * 1e3 / SAMPLES as f64;

    let (b8, lm) = (stats::p50(&step_b8), stats::p50(&logits_b8));
    out.put("nn.decode.step_b8_ms", b8, "ms", step_b8.len());
    out.put(
        "nn.decode.step_b1_ms",
        stats::p50(&step_b1),
        "ms",
        step_b1.len(),
    );
    out.put(
        "nn.decode.prefill32_ms",
        stats::p50(&prefill32),
        "ms",
        prefill32.len(),
    );
    out.put("nn.decode.lm_logits_ms", lm, "ms", logits_b8.len());
    out.put(
        "nn.quantized.step_b8_ms",
        stats::p50(&q_step_b8),
        "ms",
        q_step_b8.len(),
    );
    out.put("infer.sample.sample_us", sample_us, "us", SAMPLES);
    let decode_only = stats::p50(&dense.decode_only_tick_ms);
    out.put(
        "infer.scheduler.overhead_ms_per_tick",
        decode_only - b8 - lm - MAX_ACTIVE as f64 * sample_us / 1e3,
        "ms",
        dense.decode_only_tick_ms.len(),
    );
    out.notes.push(format!(
        "infer.scheduler.overhead_ms_per_tick is replayed: decode-only tick p50 {decode_only:.3} ms - step_b8 - lm_logits - 8 x sample"
    ));
}

pub fn run(ctx: &Ctx) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let (inp, setup_s) = timed_setup(|| setup(ctx));

    let mut off = Recorder::new(false);
    let dense = run_batch(
        DecodeBackend::from(Arc::clone(&inp.model)),
        &inp.dense,
        &mut off,
        "",
    );
    let int8 = run_batch(
        DecodeBackend::from(Arc::clone(&inp.quant)),
        &inp.int8,
        &mut off,
        "",
    );
    out.attempted = (inp.dense.len() + inp.int8.len()) as u64;
    out.fingerprint = fingerprint([&dense, &int8]);
    check(&inp, &dense, &int8, &mut out);

    out.put("out_tok_per_s", dense.tok_per_s(), "tok/s", dense.tokens());
    out.put(
        "int8_out_tok_per_s",
        int8.tok_per_s(),
        "tok/s",
        int8.tokens(),
    );
    out.put_percentile("tick_ms_p50", &dense.tick_ms, 50, "ms");
    out.put_block_tail("tick_ms_p99", &dense.tick_ms, 99, TAIL_TICKS, "ms");
    put_setup_and_rss(&mut out, setup_s);

    let mut rec = Recorder::new(ctx.trace);
    if ctx.trace {
        let t_dense = run_batch(
            DecodeBackend::from(Arc::clone(&inp.model)),
            &inp.dense,
            &mut rec,
            "infer.scheduler.tick",
        );
        let t_int8 = run_batch(
            DecodeBackend::from(Arc::clone(&inp.quant)),
            &inp.int8,
            &mut rec,
            "infer.scheduler.tick_int8",
        );
        out.attempted *= 2;
        if fingerprint([&t_dense, &t_int8]) != out.fingerprint {
            out.fail(1, "traced pass generated different tokens".to_string());
        }
        out.put(
            "trace_overhead_pct",
            trace_overhead_pct(
                stats::p50(&t_dense.tick_ms) + stats::p50(&t_int8.tick_ms),
                stats::p50(&dense.tick_ms) + stats::p50(&int8.tick_ms),
            ),
            "%",
            1,
        );
        let ticks = rec.durations_ms("infer.scheduler.tick");
        out.put_percentile("infer.scheduler.tick_ms_p50", &ticks, 50, "ms");
        out.put_percentile("infer.scheduler.tick_ms_p99", &ticks, 99, "ms");
        out.put("infer.scheduler.ticks", ticks.len() as f64, "count", 1);
        out.put(
            "infer.scheduler.batch_occupancy",
            t_dense.occupancy.iter().sum::<f64>() / t_dense.occupancy.len() as f64,
            "ratio",
            t_dense.occupancy.len(),
        );
        out.put(
            "infer.stats.prefill_tok_per_s",
            t_dense.prefill_tokens as f64 * 1e6 / t_dense.prefill_us as f64,
            "tok/s",
            t_dense.prefill_tokens as usize,
        );
        replay(&inp, &t_dense, &mut out);
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
        // At least one tick per generated token of each full wave of slots.
        let ticks = ctx.count(DENSE_REQ_PER_S) / MAX_ACTIVE * DECODE_NEW;
        assert!(stats::percentile(&vec![0.0; ticks], 99).is_some());
        assert!(ctx.count(DENSE_REQ_PER_S) / CHECK_EVERY >= 10);
    }
}
