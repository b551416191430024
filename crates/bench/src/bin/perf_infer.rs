//! Inference-throughput harness: prefill and decode tokens/sec on the
//! tiny proxy, KV-cached decode vs naive full recompute, and continuous
//! batching vs serial generation.
//!
//! Emits `BENCH_infer.json` into the output directory (first positional
//! argument, default `.`). `--smoke` shortens timing reps for CI;
//! `--merge` max-merges this run into an existing `BENCH_infer.json`
//! (per-metric best across runs, for the double-sweep CI smoke stage).
//! Every measured path is also cross-checked for byte-identical tokens,
//! so a throughput number can never come from a diverged implementation.

use std::sync::Arc;
use std::time::Instant;

use apollo_bench::perf::{InferEntry, InferReport};
use apollo_infer::{generate, sample, GenConfig, GenRequest, SchedConfig, Scheduler};
use apollo_nn::{DecodeBackend, LinearMode, LlamaModel, ModelConfig, QuantizedModel};
use apollo_obs::Obs;
use apollo_tensor::{current_threads, set_numerics_override, simd_tier, Matrix, NumericsMode, Rng};

/// Single-sequence workload: 128-token prompt, 64 decoded tokens, so the
/// naive-vs-KV comparison runs at sequence length ≥ 128 throughout.
const PROMPT_TOKENS: usize = 128;
const DECODE_TOKENS: usize = 64;
/// Concurrent requests in the batched-vs-serial measurement.
const BATCH_REQUESTS: usize = 8;

/// Median seconds-per-invocation over `reps` samples, where `f` returns
/// the seconds of the section it measures internally (setup excluded).
/// Each sample loops `f` until at least `min_secs` of measured time has
/// accumulated, so a sample is never a single noisy invocation.
fn median_of(reps: usize, min_secs: f64, mut f: impl FnMut() -> f64) -> f64 {
    f(); // warmup
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut total = 0.0;
        let mut iters = 0u32;
        loop {
            total += f();
            iters += 1;
            if total >= min_secs {
                break;
            }
        }
        samples.push(total / f64::from(iters));
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Timing-loop parameters (per mode).
#[derive(Clone, Copy)]
struct Timing {
    reps: usize,
    min_secs: f64,
}

fn random_tokens(n: usize, vocab: usize, rng: &mut Rng) -> Vec<u32> {
    (0..n).map(|_| rng.below(vocab) as u32).collect()
}

/// Seconds per prefill of the whole prompt into a fresh cache.
fn time_prefill(model: &LlamaModel, prompt: &[u32], t: Timing) -> f64 {
    let rows: Vec<(usize, u32)> = prompt.iter().map(|&t| (0, t)).collect();
    median_of(t.reps, t.min_secs, || {
        let mut caches = vec![model.new_kv_cache(prompt.len())];
        let t0 = Instant::now();
        let hidden = model.forward_cached(&mut caches, &rows);
        std::hint::black_box(hidden.as_slice()[0]);
        t0.elapsed().as_secs_f64()
    })
}

/// Greedy KV-cached decode: seconds per rep (prefill excluded) and the
/// decoded tokens (identical across reps by determinism). The one loop for
/// every cached path — bare model, backend, model + adapter — over the two
/// calls a decoder offers: `open` allocates a fresh cache of `capacity`
/// positions and returns its forward (new `(cache 0, token)` rows in,
/// their hidden states out); `head` maps hidden rows to logits.
fn time_kv_decode<F: FnMut(&[(usize, u32)]) -> Matrix>(
    mut open: impl FnMut(usize) -> F,
    head: impl Fn(&Matrix) -> Matrix,
    prompt: &[u32],
    t: Timing,
) -> (f64, Vec<u32>) {
    let greedy = GenConfig::default();
    let rows: Vec<(usize, u32)> = prompt.iter().map(|&t| (0, t)).collect();
    let mut out = Vec::new();
    let secs = median_of(t.reps, t.min_secs, || {
        let mut forward = open(prompt.len() + DECODE_TOKENS);
        // The LM head runs on the last hidden row alone.
        let mut step = |rows: &[(usize, u32)]| {
            let hidden = forward(rows);
            head(&hidden.gather_rows(&[hidden.rows() - 1]))
        };
        let mut logits = step(&rows);
        let mut rng = Rng::seed_from_u64(0);
        out.clear();
        let t0 = Instant::now();
        for _ in 0..DECODE_TOKENS {
            let tok = sample(logits.as_slice(), &greedy, &mut rng);
            out.push(tok);
            logits = step(&[(0, tok)]);
        }
        t0.elapsed().as_secs_f64()
    });
    (secs, out)
}

/// Greedy decode recomputing the full forward over the whole sequence for
/// every token — the no-KV-cache baseline.
fn time_naive_decode(model: &LlamaModel, prompt: &[u32], t: Timing) -> (f64, Vec<u32>) {
    let greedy = GenConfig::default();
    let mut out = Vec::new();
    let secs = median_of(t.reps, t.min_secs, || {
        let mut tokens = prompt.to_vec();
        let mut rng = Rng::seed_from_u64(0);
        out.clear();
        let t0 = Instant::now();
        for _ in 0..DECODE_TOKENS {
            let logits = model.full_logits(&tokens, 1);
            let tok = sample(logits.row(tokens.len() - 1), &greedy, &mut rng);
            out.push(tok);
            tokens.push(tok);
        }
        t0.elapsed().as_secs_f64()
    });
    (secs, out)
}

/// The batched-vs-serial request mix: distinct prompts and seeds.
fn batch_requests(vocab: usize) -> Vec<GenRequest> {
    let mut rng = Rng::seed_from_u64(0xBA7C);
    (0..BATCH_REQUESTS)
        .map(|i| GenRequest {
            prompt: random_tokens(32, vocab, &mut rng),
            cfg: GenConfig {
                max_new_tokens: 32,
                seed: i as u64,
                ..GenConfig::default()
            },
            deadline: None,
            adapter: None,
        })
        .collect()
}

/// Seconds to serve all requests one at a time through the serial engine.
fn time_serial(model: &LlamaModel, reqs: &[GenRequest], t: Timing) -> (f64, Vec<Vec<u32>>) {
    let mut outs = Vec::new();
    let secs = median_of(t.reps, t.min_secs, || {
        outs.clear();
        let t0 = Instant::now();
        for r in reqs {
            outs.push(generate(model, &r.prompt, &r.cfg, |_| {}));
        }
        t0.elapsed().as_secs_f64()
    });
    (secs, outs)
}

/// Seconds to serve all requests concurrently through the scheduler.
fn time_batched(model: &Arc<LlamaModel>, reqs: &[GenRequest], t: Timing) -> (f64, Vec<Vec<u32>>) {
    let cfg = SchedConfig {
        max_active: BATCH_REQUESTS,
        queue_cap: BATCH_REQUESTS,
        prefill_chunk: 16,
        kv_capacity: 64,
        prefix_cache_bytes: 0,
    };
    let mut outs = Vec::new();
    let secs = median_of(t.reps, t.min_secs, || {
        let mut sched = Scheduler::new(Arc::clone(model), cfg.clone(), Obs::disabled());
        let t0 = Instant::now();
        for r in reqs {
            sched
                .submit(r.clone())
                .expect("queue sized for all requests");
        }
        let mut results = sched.run_to_completion();
        let secs = t0.elapsed().as_secs_f64();
        results.sort_by_key(|r| r.id);
        outs = results.into_iter().map(|r| r.tokens).collect();
        secs
    });
    (secs, outs)
}

fn main() {
    let mut mode = "full".to_string();
    let mut out_dir = ".".to_string();
    let mut merge = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => mode = "smoke".to_string(),
            "--merge" => merge = true,
            other => out_dir = other.to_string(),
        }
    }
    let t = if mode == "smoke" {
        Timing {
            reps: 3,
            min_secs: 0.05,
        }
    } else {
        Timing {
            reps: 7,
            min_secs: 0.2,
        }
    };

    let cfg = ModelConfig::tiny_60m();
    let mut rng = Rng::seed_from_u64(0x1FE2);
    let model = Arc::new(LlamaModel::new(&cfg, LinearMode::Dense, &mut rng));
    let prompt = random_tokens(PROMPT_TOKENS, cfg.vocab_size, &mut rng);

    let prefill_secs = time_prefill(&model, &prompt, t);
    let prefill_tps = PROMPT_TOKENS as f64 / prefill_secs;
    eprintln!("[infer] prefill          {prefill_tps:9.1} tok/s ({PROMPT_TOKENS} tokens)");

    let open_dense = |capacity| {
        let (model, mut caches) = (&model, [model.new_kv_cache(capacity)]);
        move |rows: &[(usize, u32)]| model.forward_cached(&mut caches, rows)
    };
    let dense_head = |h: &Matrix| model.lm_logits(h);
    let (kv_secs, kv_tokens) = time_kv_decode(open_dense, dense_head, &prompt, t);
    let kv_tps = DECODE_TOKENS as f64 / kv_secs;
    eprintln!("[infer] kv decode        {kv_tps:9.1} tok/s ({DECODE_TOKENS} tokens)");

    // Fast-tier decode: same exact-f32 model and workload, relaxed SIMD
    // kernels via the thread-local numerics override. Tokens are not
    // asserted byte-identical — the fast tier trades the bitwise contract
    // for throughput — but the decode must still run to completion over
    // the full workload.
    set_numerics_override(Some(NumericsMode::Fast));
    let (fast_secs, fast_tokens) = time_kv_decode(open_dense, dense_head, &prompt, t);
    set_numerics_override(None);
    let fast_tps = DECODE_TOKENS as f64 / fast_secs;
    let fast_speedup = fast_tps / kv_tps;
    eprintln!("[infer] fast kv decode   {fast_tps:9.1} tok/s  (vs exact {fast_speedup:.2}x)");
    assert_eq!(fast_tokens.len(), DECODE_TOKENS, "fast decode truncated");

    // INT8 weights + BF16 KV decode: group-128 quantized snapshot through
    // the fused dequant-gemv path (always the relaxed tier).
    let int8: DecodeBackend = QuantizedModel::from_model(&model).into();
    let open_int8 = |capacity| {
        let (int8, mut caches) = (&int8, int8.new_caches(1, capacity));
        move |rows: &[(usize, u32)]| int8.forward_cached(&mut caches, rows)
    };
    let (int8_secs, int8_tokens) = time_kv_decode(open_int8, |h| int8.lm_logits(h), &prompt, t);
    let int8_tps = DECODE_TOKENS as f64 / int8_secs;
    let int8_speedup = int8_tps / kv_tps;
    eprintln!("[infer] int8 decode      {int8_tps:9.1} tok/s  (vs exact {int8_speedup:.2}x)");
    assert_eq!(int8_tokens.len(), DECODE_TOKENS, "int8 decode truncated");
    assert!(
        int8_tokens.iter().all(|&t| (t as usize) < cfg.vocab_size),
        "int8 decode emitted out-of-vocab tokens"
    );

    // Adapter decode: the exact path plus one tenant's low-rank delta on
    // all seven projections per layer — the per-row cost of multi-tenant
    // serving over a shared base model.
    let adapter = {
        let mut lrng = Rng::seed_from_u64(0xADA9);
        let mut lora = LlamaModel::new(
            &cfg,
            LinearMode::LoRa {
                rank: 4,
                alpha: 8.0,
            },
            &mut lrng,
        );
        for p in &mut lora.params {
            if p.name.ends_with(".lora_b") {
                p.value = apollo_tensor::Matrix::randn(p.value.rows(), p.value.cols(), &mut lrng);
            }
        }
        apollo_nn::LoraAdapter::from_model(&lora).expect("LoRA source model")
    };
    // One `Some(adapter)` per row of the longest call (the prefill), built
    // once so the timed steps slice it instead of allocating.
    let per_row = vec![Some(&adapter); PROMPT_TOKENS];
    let open_adapted = |capacity| {
        let (model, per_row, mut caches) = (&model, &per_row, [model.new_kv_cache(capacity)]);
        move |rows: &[(usize, u32)]| {
            model.forward_cached_with(&mut caches, rows, &per_row[..rows.len()])
        }
    };
    let (adapter_secs, adapter_tokens) = time_kv_decode(open_adapted, dense_head, &prompt, t);
    let adapter_tps = DECODE_TOKENS as f64 / adapter_secs;
    let adapter_relative = adapter_tps / kv_tps;
    eprintln!(
        "[infer] adapter decode   {adapter_tps:9.1} tok/s  (vs base {adapter_relative:.2}x, rank {})",
        adapter.rank()
    );
    assert_eq!(
        adapter_tokens.len(),
        DECODE_TOKENS,
        "adapter decode truncated"
    );
    assert_ne!(
        adapter_tokens, kv_tokens,
        "a nonzero adapter delta must change the decoded tokens"
    );

    let (naive_secs, naive_tokens) = time_naive_decode(&model, &prompt, t);
    let naive_tps = DECODE_TOKENS as f64 / naive_secs;
    let kv_speedup = kv_tps / naive_tps;
    eprintln!("[infer] naive decode     {naive_tps:9.1} tok/s  (kv speedup {kv_speedup:.2}x)");
    assert_eq!(
        kv_tokens, naive_tokens,
        "KV-cached and full-recompute decode must emit identical tokens"
    );

    let reqs = batch_requests(cfg.vocab_size);
    let total_tokens: usize = reqs.iter().map(|r| r.cfg.max_new_tokens).sum();
    let (serial_secs, serial_outs) = time_serial(&model, &reqs, t);
    let serial_tps = total_tokens as f64 / serial_secs;
    let (batched_secs, batched_outs) = time_batched(&model, &reqs, t);
    let batched_tps = total_tokens as f64 / batched_secs;
    let batch_speedup = batched_tps / serial_tps;
    eprintln!(
        "[infer] serial gen       {serial_tps:9.1} tok/s ({BATCH_REQUESTS} requests x 32 tokens)"
    );
    eprintln!(
        "[infer] batched gen      {batched_tps:9.1} tok/s  (batch speedup {batch_speedup:.2}x)"
    );
    assert_eq!(
        batched_outs, serial_outs,
        "continuous batching must emit byte-identical tokens to serial"
    );

    let entry = |metric: &str, value: f64, unit: &str| InferEntry {
        metric: metric.to_string(),
        value,
        unit: unit.to_string(),
    };
    let mut report = InferReport {
        model: cfg.name.to_string(),
        threads: current_threads(),
        mode,
        numerics: NumericsMode::Exact.name().to_string(),
        simd_tier: simd_tier().name().to_string(),
        prompt_tokens: PROMPT_TOKENS,
        decode_tokens: DECODE_TOKENS,
        batch_requests: BATCH_REQUESTS,
        entries: vec![
            entry("prefill_tok_per_sec", prefill_tps, "tok/s"),
            entry("kv_decode_tok_per_sec", kv_tps, "tok/s"),
            entry("fast_kv_decode_tok_per_sec", fast_tps, "tok/s"),
            entry("int8_decode_tok_per_sec", int8_tps, "tok/s"),
            entry("int8_decode_speedup", int8_speedup, "x"),
            entry("adapter_decode_tok_per_sec", adapter_tps, "tok/s"),
            entry("adapter_decode_relative", adapter_relative, "x"),
            entry("naive_decode_tok_per_sec", naive_tps, "tok/s"),
            entry("kv_speedup", kv_speedup, "x"),
            entry("serial_gen_tok_per_sec", serial_tps, "tok/s"),
            entry("batched_gen_tok_per_sec", batched_tps, "tok/s"),
            entry("batch_speedup", batch_speedup, "x"),
        ],
    };
    let path = std::path::Path::new(&out_dir).join("BENCH_infer.json");
    if merge {
        if let Some(prev) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|d| serde_json::from_str::<InferReport>(&d).ok())
        {
            report.merge_best(&prev);
        }
    }
    let data = serde_json::to_string_pretty(&report).expect("serialize bench report");
    std::fs::write(&path, data).expect("write bench json");
    eprintln!("[saved {}]", path.display());
}
