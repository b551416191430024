//! `apollo` — train, fine-tune, and plan memory from the command line.
//!
//! ```text
//! apollo pretrain --model tiny-60m --optimizer apollo --steps 500 --save model.ckpt
//! apollo finetune --checkpoint model.ckpt --task WG --optimizer apollo-mini
//! apollo eval     --checkpoint model.ckpt
//! apollo generate --resume model.ckpt --prompt "hello" --max-new-tokens 64
//! apollo memory   --model llama-7b --method apollo --rank 256
//! apollo list
//! ```

mod args;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use apollo_data::{
    commonsense_suite, mmlu_suite, ByteTokenizer, CorpusConfig, DecodeStream, LmBatcher,
    SyntheticCorpus, Tokenize,
};
use apollo_infer::GenConfig;
use apollo_nn::{AdapterRegistry, LinearMode, LlamaModel, LoraAdapter, ModelConfig};
use apollo_obs::{read_trace, Obs, TraceEvent};
use apollo_optim::memory::MethodSpec;
use apollo_optim::{AdamMini, AdamW, Apollo, Fira, Flora, GaLore, Optimizer, Sgd, SgdMomentum};
use apollo_search::{run_search, SearchConfig};
use apollo_sysmodel::{Gpu, MemoryOptions, TrainingMemoryModel};
use apollo_tensor::{Matrix, Rng};
use apollo_train::{
    eval_perplexity, finetune, load_model, pretrain_ddp, pretrain_observed, save_model, DdpConfig,
    FaultKind, FaultPlan, FinetuneConfig, OptimizerFactory, RecoveryPolicy, ResilienceConfig,
    ResilienceReport, TrainConfig,
};
use args::Args;

const USAGE: &str = "\
apollo — APOLLO optimizer reproduction CLI

USAGE:
  apollo pretrain [--model NAME] [--optimizer NAME] [--steps N] [--batch N]
                  [--lr F] [--rank N] [--seed N] [--quantize-weights GROUP]
                  [--save PATH] [--threads N]
                  [--replicas N] [--virtual-slots V] [--threads-per-replica N]
                  [--fault-plan SPEC]
                  [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
                  [--recovery POLICY] [--lr-backoff F] [--spike-factor F]
                  [--trace-out PATH] [--metrics-every N] [--profile]
  apollo finetune --checkpoint PATH --task NAME [--optimizer NAME]
                  [--steps N] [--batch N] [--lr F] [--rank N]
  apollo eval     --checkpoint PATH [--seqs N]
  apollo generate --resume PATH (--prompt TEXT | --prompt-ids \"1,2,3\")
                  [--max-new-tokens N] [--temperature F] [--top-k N]
                  [--top-p F] [--seed N] [--stop-token N] [--threads N]
                  [--int8-decode]
  apollo memory   [--model NAME] [--method NAME] [--rank N] [--gpu NAME]
  apollo serve    --resume PATH [--addr HOST:PORT] [--addr-file PATH]
                  [--shutdown-file PATH] [--run-secs N]
                  [--max-active N] [--queue-cap N] [--kv-capacity N]
                  [--prefill-chunk N] [--shed-watermark N]
                  [--default-deadline-ms N] [--drain-deadline-ms N]
                  [--idle-timeout-ms N] [--header-deadline-ms N]
                  [--max-new-tokens-cap N] [--trace-out PATH] [--threads N]
                  [--int8-decode]
                  [--adapters NAME=PATH,NAME=PATH,...]
                  [--max-resident-adapters N] [--prefix-cache-mb N]
  apollo loadgen  --addr HOST:PORT [--requests N] [--rate F] [--seed N]
                  [--prompt-len N] [--max-new-tokens N] [--deadline-ms N]
                  [--stream] [--max-retries N] [--faults none|default]
                  [--prefix-reuse F] [--prefix-len N] [--adapters N]
                  [--expect-clean] [--out PATH]
  apollo make-adapter --resume PATH --out PATH [--rank N] [--alpha F]
                  [--seed N] [--delta-scale F]
  apollo search   [--model NAME] [--population N] [--rounds N]
                  [--round-steps N] [--quantile F] [--seed N]
                  [--threads-per-member N] [--batch N] [--eval-seqs N]
                  [--baseline] [--out PATH] [--trace-out PATH]
                  [--metrics-every N] [--profile]
  apollo trace-check --trace PATH
  apollo list

SEARCH
  search           population-based evolutionary search over APOLLO's knobs
                   (projector rank, scale alpha, refresh period, peak LR /
                   warmup, optimizer family). --population members pretrain
                   the proxy model concurrently (one worker thread each,
                   pinned to --threads-per-member kernel threads); every
                   --round-steps steps the bottom --quantile fraction clone
                   a leader's full train state in memory and perturb their
                   knobs with seed-derived mutations. Bit-reproducible:
                   same --seed, byte-identical --out frontier JSON.
                   --baseline also trains the static fig4 grid straight
                   through the same budget for an evolved-vs-static table.

SERVING
  serve            HTTP/1.1 front-end over the continuous-batching server:
                   GET /healthz, POST /generate (chunked NDJSON streaming
                   with `stream: true`). Admission control maps queue-full
                   to 429 + Retry-After, prompt-too-long to 413, bad
                   requests to 400; --shed-watermark sheds load early.
                   Runs until --run-secs elapses or --shutdown-file
                   appears, then drains gracefully (in-flight requests
                   finish, bounded by --drain-deadline-ms).
  loadgen          open-loop Poisson load generator with deterministic
                   fault injection (slow-loris, mid-stream disconnect,
                   malformed requests, bursts). --expect-clean exits
                   non-zero when any fault probe saw the wrong response
                   or transport errors occurred. --out writes a JSON
                   report (latency percentiles, goodput, shed rate).
                   --prefix-reuse F opens that fraction of requests with
                   a shared --prefix-len token prefix (the system-prompt
                   shape prefix caching serves); --adapters N spreads
                   requests over the first N adapters from /healthz.

MULTI-TENANT SERVING
  --adapters       NAME=PATH list of LoRA adapter checkpoints served over
                   the shared base model. Requests pick a tenant with
                   `\"adapter\": NAME`; one decode tick batches rows across
                   adapters bit-identically to serving each alone.
                   Exact backend only (not --int8-decode).
  --max-resident-adapters N  keep at most N adapters' weights in memory;
                   the rest lazy-load from their checkpoints on demand
                   with LRU eviction (default: all resident).
  --prefix-cache-mb N  radix-tree prefix cache budget over exported KV
                   blocks; prompts sharing a cached prefix skip its
                   prefill bit-exactly (default 32, 0 disables).
  make-adapter     derive a rank-N LoRA adapter checkpoint from a dense
                   base checkpoint (seeded random deltas; use different
                   --seed values to make distinguishable tenants).
  GET /stats       serving counters as JSON: prefix-cache hit rate,
                   resident/evicted adapters, KV bytes, in-flight.

DATA-PARALLEL
  --replicas N       train with N data-parallel replica threads, each owning
                     a ZeRO-style contiguous shard of the optimizer state.
                     Losses and weights are bit-identical at every replica
                     count (fixed virtual-slot tree reduction), and every
                     other pretrain flag works as it does without it;
                     supported optimizers: adamw adamw-8bit adam-mini sgd
                     sgd-m apollo apollo-svd apollo-mini
  --virtual-slots V  micro-batch decomposition width (default max(4, N));
                     --batch must divide by V and N must not exceed V
  --threads-per-replica N  kernel threads per replica (default 1)
  --fault-plan SPEC  inject replica failures: comma-separated
                     kill:STEP:REPLICA entries, e.g. kill:40:1 — the
                     survivors rebalance shards and resume bit-exactly
                     (without --replicas the one replica's death is a crash)

PERFORMANCE
  --threads N        kernel thread count, N >= 1. Precedence: this flag,
                     then the APOLLO_NUM_THREADS environment variable, then
                     min(available cores, 8). Results are bit-identical at
                     every thread count; only throughput changes.
  --int8-decode      (generate/serve) snapshot the checkpoint to group-128
                     INT8 weights and decode against BF16 KV caches via
                     fused dequantize-GEMV and explicit-SIMD (AVX2/FMA where
                     available) kernels: the relaxed tier, bounded by
                     tolerance tests instead of bit equality. Everything
                     else keeps the bitwise-reproducibility contract.

OBSERVABILITY
  --trace-out PATH   stream a JSONL trace (phase timings, loss/grad-norm/LR,
                     per-layer APOLLO channel scales, projector refreshes,
                     limiter clips, resilience sentinels)
  --metrics-every N  sample StepMetrics/ScaleSummary every N steps (default 1)
  --profile          print an end-of-run phase-time breakdown and counters
  trace-check        validate a trace: every line parses and per-step phase
                     times sum to (at most) the recorded step total

MODELS     test-tiny tiny-60m tiny-130m tiny-350m tiny-1b tiny-7b
           llama-60m llama-130m llama-350m llama-1b llama-7b llama-13b
OPTIMIZERS adamw adamw-8bit adam-mini sgd sgd-m apollo apollo-svd
           apollo-mini galore galore-rp galore-8bit fira flora
TASKS      WG PIQA SIQA OBQA HS BoolQ Arc-E Arc-C
           STEM 'Social Sciences' Humanities Other
GPUS       a100-80g consumer-12g
RECOVERY   off skip clip rollback abort   (what to do on NaN/Inf/loss-spike steps)";

fn model_config(name: &str) -> Result<ModelConfig, String> {
    Ok(match name {
        "test-tiny" => ModelConfig::test_tiny(),
        "tiny-60m" => ModelConfig::tiny_60m(),
        "tiny-130m" => ModelConfig::tiny_130m(),
        "tiny-350m" => ModelConfig::tiny_350m(),
        "tiny-1b" => ModelConfig::tiny_1b(),
        "tiny-7b" => ModelConfig::tiny_7b(),
        "llama-60m" => ModelConfig::llama_60m(),
        "llama-130m" => ModelConfig::llama_130m(),
        "llama-350m" => ModelConfig::llama_350m(),
        "llama-1b" => ModelConfig::llama_1b(),
        "llama-7b" => ModelConfig::llama_7b(),
        "llama-13b" => ModelConfig::llama_13b(),
        other => return Err(format!("unknown model `{other}` (try `apollo list`)")),
    })
}

/// The one name → optimizer table.
///
/// `param_index` is `None` for a serial optimizer over the whole model. A
/// data-parallel run builds one instance per parameter and passes that
/// parameter's global index: APOLLO's base seed shifts by it, so the
/// instance derives exactly the projector seed the serial optimizer would
/// have derived for its `i`-th parameter (`seed + i`) and sharding is
/// invisible to the math. GaLore-family seeds are not externally
/// controllable, so those methods refuse an index.
fn build_optimizer(
    name: &str,
    rank: usize,
    cfg: &ModelConfig,
    param_index: Option<usize>,
) -> Result<Box<dyn Optimizer>, String> {
    let freq = 200;
    let mini_alpha = (cfg.hidden as f32 / 4.0).sqrt();
    // Apollo's default base seed, unchanged at index 0.
    let seed = 0xA90110u64.wrapping_add(param_index.unwrap_or(0) as u64);
    Ok(match name {
        "adamw" => Box::new(AdamW::new()),
        "adamw-8bit" => Box::new(AdamW::adam8bit(128)),
        "adam-mini" => Box::new(AdamMini::new()),
        "sgd" => Box::new(Sgd::new()),
        "sgd-m" => Box::new(SgdMomentum::new(0.9)),
        "apollo" => Box::new(Apollo::new(rank, freq).with_seed(seed)),
        "apollo-svd" => Box::new(Apollo::new(rank, freq).with_svd().with_seed(seed)),
        "apollo-mini" => Box::new(Apollo::mini(freq).with_alpha(mini_alpha).with_seed(seed)),
        "galore" | "galore-rp" | "galore-8bit" | "fira" | "flora" if param_index.is_some() => {
            return Err(format!(
                "optimizer `{name}` is not supported with --replicas (its \
                 projector seeds are not externally controllable)"
            ))
        }
        "galore" => Box::new(GaLore::new(rank, freq)),
        "galore-rp" => Box::new(GaLore::new(rank, freq).with_random_projection()),
        "galore-8bit" => Box::new(GaLore::galore8bit(rank, freq, 128)),
        "fira" => Box::new(Fira::new(rank, freq)),
        "flora" => Box::new(Flora::new(rank, freq)),
        other => return Err(format!("unknown optimizer `{other}` (try `apollo list`)")),
    })
}

/// Builds the per-parameter optimizer factory for data-parallel runs from
/// [`build_optimizer`].
fn build_opt_factory(
    name: &str,
    rank: usize,
    cfg: &ModelConfig,
) -> Result<Box<OptimizerFactory>, String> {
    // Reject an unknown or unshardable name here, not inside a replica.
    build_optimizer(name, rank, cfg, Some(0))?;
    let (name, cfg) = (name.to_string(), cfg.clone());
    Ok(Box::new(move |i| {
        build_optimizer(&name, rank, &cfg, Some(i)).expect("name validated at factory build")
    }))
}

/// Parses a `--fault-plan` spec: comma-separated `kill:STEP:REPLICA`.
fn parse_fault_plan(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for entry in spec.split(',').filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').collect();
        match parts.as_slice() {
            ["kill", step, replica] => {
                let step: usize = step
                    .parse()
                    .map_err(|_| format!("bad step in fault `{entry}`"))?;
                let replica: usize = replica
                    .parse()
                    .map_err(|_| format!("bad replica in fault `{entry}`"))?;
                plan = plan.inject(step, FaultKind::ReplicaKill { replica });
            }
            _ => return Err(format!("bad fault `{entry}` (expected kill:STEP:REPLICA)")),
        }
    }
    Ok(plan)
}

fn default_lr(optimizer: &str) -> f32 {
    match optimizer {
        "adamw" | "adamw-8bit" | "adam-mini" => 1e-2,
        "sgd" | "sgd-m" => 0.3,
        _ => 3e-2,
    }
}

fn resilience_config(a: &Args) -> Result<ResilienceConfig, String> {
    let lr_backoff = a.get_num("lr-backoff", 0.5f32)?;
    let policy = match a.get("recovery", "off").as_str() {
        "off" => None,
        "skip" => Some(RecoveryPolicy::SkipStep),
        "clip" => Some(RecoveryPolicy::ClipAndContinue),
        "rollback" => Some(RecoveryPolicy::RollbackAndRetry { lr_backoff }),
        "abort" => Some(RecoveryPolicy::Abort),
        other => {
            return Err(format!(
                "unknown recovery policy `{other}` (try `apollo list`)"
            ))
        }
    };
    let mut res = ResilienceConfig {
        policy,
        resume: a.has("resume"),
        spike_factor: a.get_num("spike-factor", 3.0f32)?,
        ..ResilienceConfig::default()
    };
    if let Some(dir) = a.opt("checkpoint-dir") {
        res.checkpoint_dir = Some(PathBuf::from(dir));
        res.checkpoint_every = a.get_num("checkpoint-every", 100usize)?;
    } else if a.has("resume") || a.has("checkpoint-every") {
        return Err("--resume/--checkpoint-every need --checkpoint-dir".into());
    }
    Ok(res)
}

fn print_resilience(r: &ResilienceReport) {
    if let Some(step) = r.resumed_from_step {
        println!("resumed from checkpointed step {step}");
    }
    if r.checkpoints_written > 0 || r.checkpoint_errors > 0 {
        println!(
            "checkpoints: {} written, {} failed",
            r.checkpoints_written, r.checkpoint_errors
        );
    }
    if !r.is_clean() {
        println!(
            "faults: {} NaN/Inf-grad, {} NaN/Inf-loss, {} spike | recovery: {} skipped, {} clipped, {} rollbacks{}",
            r.non_finite_grads,
            r.non_finite_loss,
            r.loss_spikes,
            r.skipped_steps,
            r.clipped_steps,
            r.rollbacks,
            if r.aborted { " | ABORTED" } else { "" },
        );
    }
}

/// Applies `--threads N` as the kernel thread count for this process.
/// The flag takes precedence over `APOLLO_NUM_THREADS`; with neither, the
/// auto default (`min(available cores, 8)`) applies. Kernels are
/// bit-identical across thread counts, so this only changes throughput.
fn apply_threads(a: &Args) -> Result<(), String> {
    if a.has("threads") {
        let n = a.get_num("threads", 0usize)?;
        if n == 0 {
            return Err("--threads must be >= 1".into());
        }
        apollo_tensor::set_thread_override(Some(n));
    }
    Ok(())
}

/// Records the probed SIMD tier on an [`Obs`] handle at run start, so traces
/// carry the lane type the relaxed kernels ran on (free when the handle is
/// disabled).
fn observe_simd_tier(obs: &Obs) {
    let tier = apollo_tensor::simd_tier().name();
    obs.counter(&format!("numerics.simd_tier.{tier}"), 1);
}

/// The `--trace-out` / `--profile` handle of `pretrain` and `search`.
fn training_obs(trace_out: Option<PathBuf>, profile: bool, every: usize) -> Result<Obs, String> {
    let obs = match trace_out {
        Some(path) => {
            let obs = Obs::with_trace(&path, every)
                .map_err(|e| format!("cannot open trace {}: {e}", path.display()))?;
            eprintln!("tracing to {}", path.display());
            obs
        }
        None if profile => Obs::enabled(every),
        None => Obs::disabled(),
    };
    observe_simd_tier(&obs);
    Ok(obs)
}

fn cmd_pretrain(a: &Args) -> Result<(), String> {
    apply_threads(a)?;
    let cfg = model_config(&a.get("model", "tiny-60m"))?;
    if cfg.name.starts_with("llama-") {
        return Err("paper-scale geometries are for `apollo memory`; pick a tiny-* model".into());
    }
    let opt_name = a.get("optimizer", "apollo");
    let rank = a.get_num("rank", cfg.default_rank())?;
    let steps = a.get_num("steps", 300usize)?;
    let batch = a.get_num("batch", 4usize)?;
    let lr = a.get_num("lr", default_lr(&opt_name))?;
    let seed = a.get_num("seed", 42u64)?;
    let tc = TrainConfig {
        steps,
        lr,
        // APOLLO-family runs rely on the per-tensor norm-growth limiter.
        grad_clip: if opt_name.starts_with("adamw") || opt_name.starts_with("sgd") {
            Some(1.0)
        } else {
            None
        },
        eval_every: (steps / 5).max(1),
        quantize_weights: if a.has("quantize-weights") {
            Some(a.get_num("quantize-weights", 128usize)?)
        } else {
            None
        },
        ..TrainConfig::quick(steps)
    };
    let mut res = resilience_config(a)?;
    if let Some(spec) = a.opt("fault-plan") {
        res.fault_plan = parse_fault_plan(spec)?;
    }
    let metrics_every = a.get_num("metrics-every", 1usize)?;
    if metrics_every == 0 {
        return Err("--metrics-every must be >= 1".into());
    }
    let (trace_out, profile) = (a.opt("trace-out").map(PathBuf::from), a.has("profile"));
    let save = a.opt("save").map(PathBuf::from);
    let ddp = if a.has("replicas") {
        let replicas = a.get_num("replicas", 1usize)?;
        if replicas == 0 {
            return Err("--replicas must be >= 1".into());
        }
        Some(DdpConfig {
            replicas,
            virtual_slots: a.get_num("virtual-slots", 4.max(replicas))?,
            threads_per_replica: a.get_num("threads-per-replica", 1usize)?,
        })
    } else {
        None
    };
    a.reject_unread()?;

    let mut rng = Rng::seed_from_u64(seed);
    let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let mut batcher = LmBatcher::new(corpus, batch, cfg.max_seq);
    let obs = training_obs(trace_out, profile, metrics_every)?;
    // One step pipeline either way: `--replicas` only decides who computes
    // which slot and who holds which parameter's optimizer state.
    let log = if let Some(ddp) = ddp {
        let (replicas, virtual_slots) = (ddp.replicas, ddp.virtual_slots);
        let make_opt = build_opt_factory(&opt_name, rank, &cfg)?;
        eprintln!(
            "pretraining {} with {} (rank {rank}, lr {lr}, {steps} steps, batch {batch}, \
             {replicas} replicas / {virtual_slots} virtual slots)",
            cfg.name,
            make_opt(0).name()
        );
        let out = pretrain_ddp(
            &mut model,
            make_opt.as_ref(),
            &batcher,
            &tc,
            &ddp,
            &res,
            &obs,
        );
        let d = &out.ddp;
        println!(
            "ddp: {} replicas started, {} finished | {} rounds, {} kills, {} rebalances",
            d.replicas, d.survivors, d.rounds, d.replica_kills, d.rebalances
        );
        out.log
    } else {
        let mut opt = build_optimizer(&opt_name, rank, &cfg, None)?;
        eprintln!(
            "pretraining {} with {} (rank {rank}, lr {lr}, {steps} steps, batch {batch})",
            cfg.name,
            opt.name()
        );
        pretrain_observed(&mut model, opt.as_mut(), &mut batcher, &tc, &res, &obs)
    };
    // Full-bit precision so runs can be compared by comparing output lines
    // (ci.sh does exactly that across replica counts).
    if let Some(&(step, loss)) = log.train_losses.last() {
        println!(
            "final loss {loss:.6} at step {step} (bits 0x{:08x})",
            loss.to_bits()
        );
    }
    for (step, ppl) in &log.eval_ppls {
        println!("step {step:>6}  val ppl {ppl:.2}");
    }
    println!(
        "final ppl {:.2} | optimizer state {} elems ({} bytes) | {:.1}s",
        log.final_ppl, log.state_elems, log.state_bytes, log.wall_secs
    );
    print_resilience(&log.resilience);
    if profile {
        if let Some(stats) = obs.phase_stats() {
            println!("\nphase breakdown ({} steps):", stats.steps());
            print!("{}", stats.render_table());
        }
        let metrics = obs.metrics().expect("profile implies an enabled handle");
        let counters: Vec<(&str, u64)> = metrics.counters().collect();
        if !counters.is_empty() {
            println!("\ncounters:");
            for (name, value) in counters {
                println!("  {name:<24} {value}");
            }
        }
    }
    if let Some(path) = save {
        save_model(&model, LinearMode::Dense, &path).map_err(|e| e.to_string())?;
        println!("saved checkpoint to {}", path.display());
    }
    Ok(())
}

fn cmd_finetune(a: &Args) -> Result<(), String> {
    let path = PathBuf::from(a.require("checkpoint")?);
    let mut model = load_model(&path).map_err(|e| e.to_string())?;
    let cfg = model.config().clone();
    let task_name = a.require("task")?;
    let mut suite = commonsense_suite(cfg.vocab_size, cfg.max_seq);
    suite.extend(mmlu_suite(cfg.vocab_size, cfg.max_seq));
    let mut task = suite
        .into_iter()
        .find(|t| t.config().name == task_name)
        .ok_or_else(|| format!("unknown task `{task_name}` (try `apollo list`)"))?;

    let opt_name = a.get("optimizer", "apollo");
    let rank = a.get_num("rank", (cfg.hidden / 8).max(1))?;
    let steps = a.get_num("steps", 60usize)?;
    let fc = FinetuneConfig {
        steps,
        batch: a.get_num("batch", 8usize)?,
        lr: a.get_num("lr", 3e-3f32)?,
        eval_examples: 100,
    };
    a.reject_unread()?;
    let mut opt = build_optimizer(&opt_name, rank, &cfg, None)?;
    eprintln!(
        "fine-tuning on {task_name} with {} ({steps} steps)",
        opt.name()
    );
    let res = finetune(&mut model, opt.as_mut(), &mut task, &fc);
    println!(
        "{}: accuracy {:.1}% (chance {:.0}%), final loss {:.3}, {:.1}s",
        res.task, res.accuracy, res.chance, res.final_loss, res.wall_secs
    );
    Ok(())
}

fn cmd_eval(a: &Args) -> Result<(), String> {
    let path = PathBuf::from(a.require("checkpoint")?);
    let seqs = a.get_num("seqs", 64usize)?;
    a.reject_unread()?;
    let model = load_model(&path).map_err(|e| e.to_string())?;
    let cfg = model.config();
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let batcher = LmBatcher::new(corpus, 4, cfg.max_seq);
    let Some(ppl) = eval_perplexity(&model, &batcher, seqs) else {
        return Err("eval requires --seqs >= 1".to_string());
    };
    println!("{}: validation ppl {ppl:.2}", cfg.name);
    Ok(())
}

fn cmd_generate(a: &Args) -> Result<(), String> {
    use std::io::Write;
    apply_threads(a)?;
    let path = PathBuf::from(a.require("resume")?);
    let model = load_model(&path).map_err(|e| e.to_string())?;
    let cfg = model.config().clone();
    let vocab = cfg.vocab_size;
    // Text prompts go through the byte tokenizer, which needs the model's
    // vocabulary to cover all 256 byte values; smaller vocabularies (the
    // synthetic-corpus models) take raw token ids instead.
    let tok = ByteTokenizer;
    let text_io = vocab >= tok.vocab_size();
    let prompt: Vec<u32> = if let Some(ids) = a.opt("prompt-ids") {
        ids.split(',')
            .map(|s| {
                s.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("--prompt-ids: cannot parse `{s}`"))
            })
            .collect::<Result<_, _>>()?
    } else if let Some(text) = a.opt("prompt") {
        if !text_io {
            return Err(format!(
                "{} has vocab {vocab} < 256: text prompts need a byte-covering \
                 vocabulary, pass --prompt-ids instead",
                cfg.name
            ));
        }
        tok.encode(text.as_bytes())
    } else {
        return Err("generate needs --prompt or --prompt-ids".into());
    };
    if prompt.is_empty() {
        return Err("empty prompt".into());
    }
    if let Some(&bad) = prompt.iter().find(|&&t| t as usize >= vocab) {
        return Err(format!("prompt token {bad} out of vocab (size {vocab})"));
    }

    let gen = GenConfig {
        max_new_tokens: a.get_num("max-new-tokens", 64usize)?,
        temperature: a.get_num("temperature", 0.0f32)?,
        top_k: a.get_num("top-k", 0usize)?,
        top_p: a.get_num("top-p", 1.0f32)?,
        seed: a.get_num("seed", 0u64)?,
        stop_token: if a.has("stop-token") {
            Some(a.get_num("stop-token", 0u32)?)
        } else {
            None
        },
    };
    // --int8-decode snapshots the checkpoint into INT8 weights + BF16 KV
    // caches; the exact model is dropped before decoding starts.
    let int8 = a.has("int8-decode");
    a.reject_unread()?;
    let backend: apollo_nn::DecodeBackend = if int8 {
        apollo_nn::QuantizedModel::from_model(&model).into()
    } else {
        model.into()
    };
    eprintln!(
        "generating up to {} tokens from {} ({} prompt tokens, temperature {}, seed {}, \
         backend {}, simd {})",
        gen.max_new_tokens,
        cfg.name,
        prompt.len(),
        gen.temperature,
        gen.seed,
        backend.mode_name(),
        apollo_tensor::simd_tier().name(),
    );

    // Stream tokens as they are decided: decoded text for byte-covering
    // vocabularies, space-separated token ids otherwise.
    let mut stream = DecodeStream::new(&tok);
    let mut stdout = std::io::stdout();
    let t0 = std::time::Instant::now();
    let out = apollo_infer::generate_backend(&backend, &prompt, &gen, |t| {
        if text_io {
            let chunk = stream.push(t);
            print!("{chunk}");
        } else {
            print!("{t} ");
        }
        let _ = stdout.flush();
    });
    if text_io {
        print!("{}", stream.finish());
    }
    println!();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    eprintln!(
        "{} tokens in {:.2}s ({:.1} tok/s)",
        out.len(),
        secs,
        out.len() as f64 / secs
    );
    Ok(())
}

fn cmd_memory(a: &Args) -> Result<(), String> {
    let cfg = model_config(&a.get("model", "llama-7b"))?;
    let rank = a.get_num("rank", cfg.default_rank())?;
    let spec = match a.get("method", "apollo").as_str() {
        "adamw" => MethodSpec::AdamW,
        "adamw-8bit" => MethodSpec::Adam8bit,
        "adam-mini" => MethodSpec::AdamMini,
        "sgd" => MethodSpec::Sgd,
        "sgd-m" => MethodSpec::SgdMomentum,
        "apollo" => MethodSpec::Apollo { rank },
        "apollo-svd" => MethodSpec::ApolloSvd { rank },
        "apollo-mini" => MethodSpec::ApolloMini,
        "galore" => MethodSpec::GaLore { rank },
        "galore-8bit" => MethodSpec::GaLore8bit { rank },
        "fira" => MethodSpec::Fira { rank },
        "flora" => MethodSpec::Flora { rank },
        other => return Err(format!("unknown method `{other}`")),
    };
    let gpu = match a.get("gpu", "a100-80g").as_str() {
        "a100-80g" => Gpu::a100_80g(),
        "consumer-12g" => Gpu::consumer_12g(),
        other => return Err(format!("unknown gpu `{other}`")),
    };
    a.reject_unread()?;
    let mem = TrainingMemoryModel::new(&cfg);
    let b = mem.breakdown(spec, &MemoryOptions::figure1(256));
    println!(
        "{} + {} (batch 1, layer-wise grads):",
        cfg.name,
        spec.label()
    );
    println!("  weights     {:>8.2} GiB", b.weights_gib);
    println!("  gradients   {:>8.2} GiB", b.grads_gib);
    println!("  optimizer   {:>8.2} GiB", b.optimizer_gib);
    println!("  activations {:>8.2} GiB", b.activations_gib);
    println!("  total       {:>8.2} GiB", b.total_gib());
    println!(
        "  on {} ({} GiB): {}",
        gpu.name,
        gpu.memory_gib,
        if b.total_gib() <= gpu.memory_gib {
            "fits"
        } else {
            "OOM"
        }
    );
    Ok(())
}

/// Parses `--adapters NAME=PATH,...` into a registry. With
/// `--max-resident-adapters` below the adapter count, weights lazy-load
/// through the checkpoint format on first use and LRU-evict at the cap;
/// otherwise everything loads up front (failing fast on a bad file).
/// Either way each checkpoint is verified against the base geometry at
/// load time.
fn build_adapter_registry(a: &Args, base: &ModelConfig) -> Result<AdapterRegistry, String> {
    let Some(spec) = a.opt("adapters") else {
        return Ok(AdapterRegistry::empty());
    };
    let mut names: Vec<String> = Vec::new();
    let mut table: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for entry in spec.split(',').filter(|s| !s.trim().is_empty()) {
        let (name, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("--adapters entry `{entry}` is not NAME=PATH"))?;
        let (name, path) = (name.trim().to_string(), path.trim().to_string());
        if name.is_empty() || path.is_empty() {
            return Err(format!("--adapters entry `{entry}` is not NAME=PATH"));
        }
        if table.insert(name.clone(), path).is_some() {
            return Err(format!("--adapters name `{name}` given twice"));
        }
        names.push(name);
    }
    if names.is_empty() {
        return Err("--adapters is empty".into());
    }
    let base_cfg = base.clone();
    let load_one = move |name: &str| -> Result<LoraAdapter, String> {
        let path = table
            .get(name)
            .ok_or_else(|| format!("unknown adapter `{name}`"))?;
        let model = load_model(&PathBuf::from(path)).map_err(|e| format!("{path}: {e}"))?;
        let adapter = LoraAdapter::from_model(&model).map_err(|e| format!("{path}: {e}"))?;
        adapter
            .check_compatible(&base_cfg)
            .map_err(|e| format!("adapter `{name}` ({path}): {e}"))?;
        Ok(adapter)
    };
    let max_resident = a.get_num("max-resident-adapters", names.len())?;
    if max_resident == 0 {
        return Err("--max-resident-adapters must be at least 1".into());
    }
    if max_resident >= names.len() {
        let mut resident = Vec::new();
        for name in &names {
            resident.push((name.clone(), load_one(name)?));
        }
        Ok(AdapterRegistry::resident(resident))
    } else {
        Ok(AdapterRegistry::with_loader(
            names,
            max_resident,
            Box::new(load_one),
        ))
    }
}

/// Derives a LoRA adapter checkpoint from a dense base checkpoint:
/// frozen backbone plus seeded random low-rank deltas, written in the
/// same checkpoint format `serve --adapters` loads.
fn cmd_make_adapter(a: &Args) -> Result<(), String> {
    let path = PathBuf::from(a.require("resume")?);
    let out = PathBuf::from(a.require("out")?);
    let rank = a.get_num("rank", 4usize)?;
    let alpha = a.get_num("alpha", 2.0 * rank as f32)?;
    let seed = a.get_num("seed", 0u64)?;
    let scale = a.get_num("delta-scale", 0.02f32)?;
    a.reject_unread()?;
    let model = load_model(&path).map_err(|e| e.to_string())?;
    if model.params.iter().any(|p| p.name.contains(".lora_")) {
        return Err(format!(
            "{} is already a LoRA checkpoint; make-adapter needs a dense base",
            path.display()
        ));
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut lora = model.to_lora(rank, alpha, &mut rng);
    // `to_lora` zero-initializes lora_b, which would make the adapter a
    // no-op; seed-derived deltas give each tenant distinguishable output.
    let mut delta_rng = Rng::seed_from_u64(seed ^ 0xada9_7e50);
    for p in &mut lora.params {
        if p.name.ends_with(".lora_b") {
            p.value = Matrix::randn_scaled(p.value.rows(), p.value.cols(), scale, &mut delta_rng);
        }
    }
    save_model(&lora, LinearMode::LoRa { rank, alpha }, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote rank-{rank} adapter over {} to {} (seed {seed}, delta scale {scale})",
        model.config().name,
        out.display()
    );
    Ok(())
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    use std::time::Duration;
    apply_threads(a)?;
    let path = PathBuf::from(a.require("resume")?);
    let model = load_model(&path).map_err(|e| e.to_string())?;
    let sched = apollo_infer::SchedConfig {
        max_active: a.get_num("max-active", 4usize)?,
        queue_cap: a.get_num("queue-cap", 64usize)?,
        prefill_chunk: a.get_num("prefill-chunk", 16usize)?,
        kv_capacity: a.get_num("kv-capacity", 512usize)?,
        prefix_cache_bytes: a.get_num("prefix-cache-mb", 32usize)? * (1 << 20),
    };
    let registry = build_adapter_registry(a, model.config())?;
    let mut serve = apollo_infer::ServeConfig {
        addr: a.get("addr", "127.0.0.1:0"),
        shed_watermark: a.get_num("shed-watermark", sched.queue_cap.saturating_sub(8).max(1))?,
        default_deadline: Duration::from_millis(a.get_num("default-deadline-ms", 10_000u64)?),
        drain_deadline: Duration::from_millis(a.get_num("drain-deadline-ms", 5_000u64)?),
        max_new_tokens_cap: a.get_num("max-new-tokens-cap", 256usize)?,
        ..apollo_infer::ServeConfig::default()
    };
    serve.limits.idle_timeout = Duration::from_millis(a.get_num("idle-timeout-ms", 5_000u64)?);
    serve.limits.header_deadline =
        Duration::from_millis(a.get_num("header-deadline-ms", 2_000u64)?);
    let trace_out = a.opt("trace-out").map(PathBuf::from);
    let int8 = a.has("int8-decode");
    let addr_file = a.opt("addr-file").map(PathBuf::from);
    let run_secs: u64 = a.get_num("run-secs", 0u64)?;
    let shutdown_file = a.opt("shutdown-file").map(PathBuf::from);
    a.reject_unread()?;
    let obs = match trace_out {
        Some(path) => Obs::with_trace(&path, 1).map_err(|e| e.to_string())?,
        None => Obs::enabled(1),
    };
    observe_simd_tier(&obs);

    let backend: apollo_nn::DecodeBackend = if int8 {
        if !registry.is_empty() {
            return Err(
                "--adapters needs the exact decode backend: INT8 folds the projection \
                 weights, so there is no base/delta split to apply adapters to"
                    .into(),
            );
        }
        apollo_nn::QuantizedModel::from_model(&model).into()
    } else {
        model.into()
    };
    eprintln!(
        "decode backend {}, simd {}",
        backend.mode_name(),
        apollo_tensor::simd_tier().name(),
    );
    if !registry.is_empty() {
        eprintln!(
            "serving {} adapters ({} resident): {}",
            registry.len(),
            registry.resident_count(),
            registry.names().join(", ")
        );
    }
    let frontend =
        apollo_infer::Frontend::start_multi(backend, sched, serve, obs.clone(), Arc::new(registry))
            .map_err(|e| format!("bind: {e}"))?;
    let addr = frontend.local_addr();
    eprintln!("serving on {addr}");
    // Publish the resolved address atomically (temp + rename), so a
    // coordinating process never reads a half-written file.
    if let Some(target) = addr_file {
        let tmp = target.with_extension("tmp");
        std::fs::write(&tmp, format!("{addr}\n")).map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, &target).map_err(|e| e.to_string())?;
    }

    // Run until the stop condition, then drain.
    if run_secs == 0 && shutdown_file.is_none() {
        eprintln!("no --run-secs or --shutdown-file: serving until killed");
    }
    let t0 = std::time::Instant::now();
    loop {
        if run_secs > 0 && t0.elapsed() >= Duration::from_secs(run_secs) {
            break;
        }
        if let Some(f) = &shutdown_file {
            if f.exists() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("draining ({} in flight)...", frontend.in_flight());
    let report = frontend.shutdown();
    eprintln!(
        "drained {} of {} in-flight requests in {:.0} ms ({} forced)",
        report.drained, report.in_flight_at_drain, report.wall_ms, report.forced
    );
    for counter in [
        "serve.accepted",
        "serve.shed",
        "serve.timed_out",
        "serve.disconnected",
        "serve.malformed",
        "serve.drained",
        "serve.unknown_adapter",
        "infer.prefix.lookups",
        "infer.prefix.hits",
        "infer.prefix.hit_tokens",
        "infer.prefix.evictions",
        "infer.adapter.load_failed",
    ] {
        eprintln!("  {counter:<24} {}", obs.counter_value(counter));
    }
    obs.flush().map_err(|e| e.to_string())?;
    if report.forced > 0 {
        return Err(format!("{} requests did not drain in time", report.forced));
    }
    Ok(())
}

fn cmd_loadgen(a: &Args) -> Result<(), String> {
    use std::time::Duration;
    let faults = match a.get("faults", "none").as_str() {
        "none" => apollo_infer::FaultMix::none(),
        "default" => apollo_infer::FaultMix::default(),
        other => return Err(format!("unknown fault mix `{other}` (none | default)")),
    };
    let cfg = apollo_infer::LoadConfig {
        addr: a.require("addr")?,
        requests: a.get_num("requests", 50usize)?,
        rate: a.get_num("rate", 50.0f64)?,
        seed: a.get_num("seed", 0u64)?,
        prompt_len: a.get_num("prompt-len", 8usize)?,
        max_new_tokens: a.get_num("max-new-tokens", 8usize)?,
        deadline_ms: a.get_num("deadline-ms", 5_000u64)?,
        stream: a.has("stream"),
        max_retries: a.get_num("max-retries", 3usize)?,
        timeout: Duration::from_millis(a.get_num("timeout-ms", 30_000u64)?),
        faults,
        prefix_reuse: a.get_num("prefix-reuse", 0.0f64)?,
        prefix_len: a.get_num("prefix-len", 0usize)?,
        adapters: a.get_num("adapters", 0usize)?,
        ..apollo_infer::LoadConfig::default()
    };
    if !(0.0..=1.0).contains(&cfg.prefix_reuse) {
        return Err("--prefix-reuse must be in [0, 1]".into());
    }
    if cfg.prefix_reuse > 0.0 && cfg.prefix_len == 0 {
        return Err("--prefix-reuse needs --prefix-len".into());
    }
    let (out, expect_clean) = (a.opt("out"), a.has("expect-clean"));
    a.reject_unread()?;
    let report = apollo_infer::run_loadgen(&cfg)?;
    println!(
        "sent {} | ok {} | shed {} | rejected {} | timed out {} | transport {} | prefixed {}",
        report.sent,
        report.ok,
        report.shed,
        report.rejected,
        report.timed_out,
        report.transport_errors,
        report.prefix_sent
    );
    println!(
        "faults {}/{} behaved | p50 {:.1} ms | p99 {:.1} ms | p99.9 {:.1} ms | goodput {:.1} req/s | shed rate {:.3}",
        report.faults_expected,
        report.faults_injected,
        report.p50_ms,
        report.p99_ms,
        report.p999_ms,
        report.goodput_rps,
        report.shed_rate
    );
    if let Some(out) = out {
        let json = format!(
            "{{\n  \"sent\": {},\n  \"ok\": {},\n  \"shed\": {},\n  \"rejected\": {},\n  \
             \"timed_out\": {},\n  \"transport_errors\": {},\n  \"faults_injected\": {},\n  \
             \"faults_expected\": {},\n  \"prefix_sent\": {},\n  \"p50_ms\": {},\n  \"p99_ms\": {},\n  \
             \"p999_ms\": {},\n  \"goodput_rps\": {},\n  \"shed_rate\": {},\n  \
             \"wall_ms\": {}\n}}\n",
            report.sent,
            report.ok,
            report.shed,
            report.rejected,
            report.timed_out,
            report.transport_errors,
            report.faults_injected,
            report.faults_expected,
            report.prefix_sent,
            report.p50_ms,
            report.p99_ms,
            report.p999_ms,
            report.goodput_rps,
            report.shed_rate,
            report.wall_ms
        );
        std::fs::write(out, json).map_err(|e| e.to_string())?;
    }
    if expect_clean {
        if report.ok == 0 {
            return Err("no request succeeded".into());
        }
        if report.transport_errors > 0 {
            return Err(format!("{} transport errors", report.transport_errors));
        }
        if report.faults_expected != report.faults_injected {
            return Err(format!(
                "{} of {} fault probes saw an unexpected response",
                report.faults_injected - report.faults_expected,
                report.faults_injected
            ));
        }
    }
    Ok(())
}

/// Maximum tolerated per-step drift between the sum of phase times and the
/// recorded total, as a fraction of the total (plus 0.5 ms absolute slack
/// for timer granularity on sub-millisecond steps).
const TRACE_PHASE_TOLERANCE: f32 = 0.05;

fn cmd_search(a: &Args) -> Result<(), String> {
    apply_threads(a)?;
    let model = model_config(&a.get("model", "test-tiny"))?;
    if model.name.starts_with("llama-") {
        return Err("paper-scale geometries are for `apollo memory`; pick a tiny-* model".into());
    }
    let cfg = SearchConfig {
        model,
        population: a.get_num("population", 4usize)?,
        rounds: a.get_num("rounds", 3usize)?,
        round_steps: a.get_num("round-steps", 20usize)?,
        quantile: a.get_num("quantile", 0.25f32)?,
        seed: a.get_num("seed", 7u64)?,
        threads_per_member: a.get_num("threads-per-member", 1usize)?,
        batch: a.get_num("batch", 4usize)?,
        eval_seqs: a.get_num("eval-seqs", 16usize)?,
        baseline: a.has("baseline"),
    };
    let metrics_every = a.get_num("metrics-every", 1usize)?;
    if metrics_every == 0 {
        return Err("--metrics-every must be >= 1".into());
    }
    let (trace_out, profile) = (a.opt("trace-out").map(PathBuf::from), a.has("profile"));
    let out = a.opt("out").map(PathBuf::from);
    a.reject_unread()?;
    let obs = training_obs(trace_out, profile, metrics_every)?;
    eprintln!(
        "searching {}: population {}, {} rounds x {} steps, quantile {}, seed {}",
        cfg.model.name, cfg.population, cfg.rounds, cfg.round_steps, cfg.quantile, cfg.seed
    );
    let report = run_search(&cfg, &obs)?;
    for r in &report.rounds_log {
        let leader = &r.members[r.best_member];
        println!(
            "round {} step {:>5}: best member {} ppl {:.2} ({})",
            r.round,
            r.step,
            r.best_member,
            r.best_ppl,
            leader.genome.label()
        );
    }
    for l in &report.lineage {
        println!(
            "  round {}: member {} cloned leader {} ({}; {})",
            l.round,
            l.member,
            l.source,
            l.optimizer_state,
            l.changes.join(", ")
        );
    }
    println!(
        "best: member {} ppl {:.2} ({})",
        report.best.member,
        report.best.ppl,
        report.best.genome.label()
    );
    if !report.baseline.is_empty() {
        let best_static = report
            .baseline
            .iter()
            .min_by(|x, y| x.ppl.total_cmp(&y.ppl))
            .expect("baseline is non-empty");
        for b in &report.baseline {
            println!("static: {:<40} ppl {:.2}", b.label, b.ppl);
        }
        println!(
            "evolved {:.2} vs best static {:.2} ({:+.2}%)",
            report.best.ppl,
            best_static.ppl,
            (report.best.ppl / best_static.ppl - 1.0) * 100.0
        );
    }
    if profile {
        if let Some(metrics) = obs.metrics() {
            let counters: Vec<(&str, u64)> = metrics.counters().collect();
            if !counters.is_empty() {
                println!("\ncounters:");
                for (name, value) in counters {
                    println!("  {name:<24} {value}");
                }
            }
        }
    }
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("frontier written to {}", path.display());
    }
    Ok(())
}

fn cmd_trace_check(a: &Args) -> Result<(), String> {
    let path = PathBuf::from(a.require("trace")?);
    a.reject_unread()?;
    let events = read_trace(&path).map_err(|e| e.to_string())?;
    if events.is_empty() {
        return Err(format!("{}: trace is empty", path.display()));
    }
    let mut kinds: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    let mut steps_checked = 0usize;
    for (idx, event) in events.iter().enumerate() {
        *kinds.entry(event.kind()).or_default() += 1;
        if let TraceEvent::StepPhases {
            step,
            batch_ms,
            forward_ms,
            backward_ms,
            clip_ms,
            optimizer_ms,
            checkpoint_ms,
            eval_ms,
            total_ms,
        } = event
        {
            let parts = batch_ms
                + forward_ms
                + backward_ms
                + clip_ms
                + optimizer_ms
                + checkpoint_ms
                + eval_ms;
            if !parts.is_finite() || !total_ms.is_finite() {
                return Err(format!(
                    "line {}: step {step} has non-finite phase times",
                    idx + 1
                ));
            }
            if parts > total_ms * (1.0 + TRACE_PHASE_TOLERANCE) + 0.5 {
                return Err(format!(
                    "line {}: step {step} phase sum {parts:.3} ms exceeds step total {total_ms:.3} ms",
                    idx + 1
                ));
            }
            steps_checked += 1;
        }
    }
    if steps_checked == 0 {
        // Serving / inference / search traces carry no training steps; any
        // of their structural events make the trace checkable. A trace
        // with none of them is vacuous and stays an error.
        let structural = events.iter().any(|e| {
            matches!(
                e,
                TraceEvent::InferStep { .. }
                    | TraceEvent::InferRequest { .. }
                    | TraceEvent::ServeRequest { .. }
                    | TraceEvent::ServeDrain { .. }
                    | TraceEvent::SearchRound { .. }
                    | TraceEvent::MemberEvent { .. }
            )
        });
        if !structural {
            return Err(format!(
                "{}: no StepPhases, infer, serve, or search events",
                path.display()
            ));
        }
    }
    println!(
        "{}: {} events OK, {} step phase breakdowns consistent",
        path.display(),
        events.len(),
        steps_checked
    );
    for (kind, count) in kinds {
        println!("  {kind:<18} {count}");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        println!("{USAGE}");
        return Ok(());
    }
    let a = Args::parse(&argv)?;
    match a.command.as_str() {
        "pretrain" => cmd_pretrain(&a),
        "finetune" => cmd_finetune(&a),
        "eval" => cmd_eval(&a),
        "generate" => cmd_generate(&a),
        "memory" => cmd_memory(&a),
        "serve" => cmd_serve(&a),
        "loadgen" => cmd_loadgen(&a),
        "make-adapter" => cmd_make_adapter(&a),
        "search" => cmd_search(&a),
        "trace-check" => cmd_trace_check(&a),
        "list" => {
            a.reject_unread()?;
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn threads_flag_overrides_env_fallback() {
        // The override is thread-local, so this test cannot race others.
        apollo_tensor::set_thread_override(None);
        let without = apollo_tensor::current_threads();
        apply_threads(&parse(&["pretrain"])).unwrap();
        assert_eq!(
            apollo_tensor::current_threads(),
            without,
            "no flag must leave the env/auto fallback in place"
        );
        apply_threads(&parse(&["pretrain", "--threads", "3"])).unwrap();
        assert_eq!(apollo_tensor::current_threads(), 3);
        apollo_tensor::set_thread_override(None);
    }

    #[test]
    fn threads_flag_rejects_zero_and_garbage() {
        assert!(apply_threads(&parse(&["pretrain", "--threads", "0"])).is_err());
        assert!(apply_threads(&parse(&["pretrain", "--threads", "lots"])).is_err());
    }
}
