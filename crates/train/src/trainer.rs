//! Pre-training configuration, run log and entry points. The loop itself
//! — one step pipeline shared with [`crate::pretrain_ddp`] — lives in
//! `crate::pipeline`; the serial entry points here run it with one worker,
//! on the caller's thread against the caller's model and optimizer.

use apollo_data::LmBatcher;
use apollo_nn::{LlamaModel, ParamKind};
use apollo_obs::Obs;
use apollo_optim::{Optimizer, ParamUpdate};
use apollo_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::ddp::DdpConfig;
use crate::pipeline::{self, OptSource};
use crate::resilience::{ResilienceConfig, ResilienceReport};

/// Pre-training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Optimizer steps.
    pub steps: usize,
    /// Peak learning rate (the paper uses 0.01 for APOLLO-family runs).
    pub lr: f32,
    /// Global gradient-norm clip (`None` disables; APOLLO-family optimizers
    /// rely on the norm-growth limiter instead).
    pub grad_clip: Option<f32>,
    /// Evaluate validation perplexity every this many steps (0 = only at
    /// the end).
    pub eval_every: usize,
    /// Validation sequences held out per evaluation.
    pub eval_seqs: usize,
    /// ReLoRA adapter-merge period (`None` for non-ReLoRA runs).
    pub merge_every: Option<usize>,
    /// Record per-step wall-clock times (for the Fig. 9 throughput study).
    pub record_step_times: bool,
    /// Micro-batches accumulated per optimizer step (the paper's 7B runs
    /// assemble a 512-sequence global batch from memory-bound
    /// micro-batches). Gradients are averaged across the accumulation
    /// window by the data-parallel slot tree, which holds all `grad_accum`
    /// gradient sets until the step combines them. 1 = no accumulation.
    pub grad_accum: usize,
    /// Q-GaLore-style INT8 weight training: after every optimizer step,
    /// round-trip all weight matrices (embedding, attention/MLP, LM head —
    /// not norm gains) through group-wise INT8 with this group size, so the
    /// persistent weights are exactly what an INT8 store would hold
    /// (straight-through estimator). `None` trains in full precision.
    pub quantize_weights: Option<usize>,
}

impl TrainConfig {
    /// A short run with sensible defaults for tests and quick experiments.
    pub fn quick(steps: usize) -> Self {
        TrainConfig {
            steps,
            lr: 0.01,
            grad_clip: None,
            eval_every: 0,
            eval_seqs: 16,
            merge_every: None,
            record_step_times: false,
            grad_accum: 1,
            quantize_weights: None,
        }
    }
}

/// Everything a pre-training run produced, serializable for the experiment
/// harness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunLog {
    /// Optimizer label.
    pub optimizer: String,
    /// Model name.
    pub model: String,
    /// `(step, training loss)` samples.
    pub train_losses: Vec<(usize, f32)>,
    /// `(step, validation perplexity)` samples.
    pub eval_ppls: Vec<(usize, f32)>,
    /// Final validation perplexity.
    pub final_ppl: f32,
    /// Optimizer-state footprint after training, in f32-equivalent elements.
    pub state_elems: usize,
    /// Optimizer-state footprint in bytes (honours INT8 states).
    pub state_bytes: usize,
    /// Total wall-clock seconds.
    pub wall_secs: f64,
    /// Per-step wall-clock milliseconds (only when requested).
    pub step_times_ms: Vec<f32>,
    /// Resilience audit: sentinel firings, recoveries, checkpoints.
    pub resilience: ResilienceReport,
}

/// Validation perplexity of `model` on a fixed held-out set drawn from
/// `batcher`, evaluated in chunks of the batcher's batch size.
///
/// Returns `None` when the held-out set is empty (`eval_seqs == 0` or no
/// validation data), so callers skip the sample instead of recording the
/// NaN that the former `0/0` division produced.
pub fn eval_perplexity(model: &LlamaModel, batcher: &LmBatcher, eval_seqs: usize) -> Option<f32> {
    eval_chunked(model, batcher, eval_seqs, batcher.batch())
}

/// [`eval_perplexity`] in chunks of `chunk` sequences (the chunking shows in
/// the low bits, so a loop evaluating with a slot-sized batcher passes the
/// caller's batch size).
pub(crate) fn eval_chunked(
    model: &LlamaModel,
    batcher: &LmBatcher,
    eval_seqs: usize,
    chunk: usize,
) -> Option<f32> {
    let (tokens, targets, n_seqs) = batcher.validation_set(eval_seqs);
    if n_seqs == 0 {
        return None;
    }
    let seq = batcher.seq();
    let chunk = chunk.min(n_seqs);
    let mut total_loss = 0.0f64;
    let mut total_seqs = 0usize;
    let mut start = 0;
    while start < n_seqs {
        let end = (start + chunk).min(n_seqs);
        let t = &tokens[start * seq..end * seq];
        let y = &targets[start * seq..end * seq];
        let loss = model.eval_loss(t, y, end - start);
        total_loss += loss as f64 * (end - start) as f64;
        total_seqs += end - start;
        start = end;
    }
    Some(((total_loss / total_seqs as f64).exp()) as f32)
}

/// The optimizer's view of one step: every trainable parameter that has a
/// gradient, in stable declaration order, weight matrices marked
/// projectable.
pub fn param_updates<'a>(
    model: &'a mut LlamaModel,
    grads: &'a [Option<Matrix>],
) -> Vec<ParamUpdate<'a>> {
    let with_grads = model.params.iter_mut().zip(grads);
    with_grads
        .filter_map(|(p, g)| match (p.trainable, g) {
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

/// Runs the pre-training loop: warmup+cosine schedule, optional global
/// clipping, optional ReLoRA merges, periodic validation-perplexity
/// evaluation. Equivalent to [`pretrain_resilient`] with every resilience
/// feature off.
///
/// # Panics
///
/// Panics if `cfg.steps == 0`.
pub fn pretrain(
    model: &mut LlamaModel,
    opt: &mut dyn Optimizer,
    batcher: &mut LmBatcher,
    cfg: &TrainConfig,
) -> RunLog {
    pretrain_resilient(model, opt, batcher, cfg, &ResilienceConfig::default())
}

/// [`pretrain`] hardened with the resilience subsystem: per-step
/// non-finite/spike sentinels handled by `res.policy`, crash-safe
/// checkpoints every `res.checkpoint_every` steps (resumable bit-exactly
/// with `res.resume`), and deterministic fault injection from
/// `res.fault_plan`.
///
/// Under [`ResilienceConfig::default`] this is step-for-step identical to
/// the plain loop.
///
/// # Panics
///
/// Panics if `cfg.steps == 0`.
pub fn pretrain_resilient(
    model: &mut LlamaModel,
    opt: &mut dyn Optimizer,
    batcher: &mut LmBatcher,
    cfg: &TrainConfig,
    res: &ResilienceConfig,
) -> RunLog {
    pretrain_observed(model, opt, batcher, cfg, res, &Obs::disabled())
}

/// [`pretrain_resilient`] with observability: per-step phase timings, loss /
/// grad-norm / LR gauges, sentinel events, and (through
/// [`Optimizer::attach_observer`]) projector-refresh, limiter-clip, and
/// channel-scale events — all routed through `obs`. With
/// [`Obs::disabled`] the handle is a no-op and this is exactly
/// [`pretrain_resilient`].
///
/// # Panics
///
/// Panics if `cfg.steps == 0`.
pub fn pretrain_observed(
    model: &mut LlamaModel,
    opt: &mut dyn Optimizer,
    batcher: &mut LmBatcher,
    cfg: &TrainConfig,
    res: &ResilienceConfig,
    obs: &Obs,
) -> RunLog {
    let layout = DdpConfig {
        replicas: 1,
        virtual_slots: 1,
    };
    pipeline::run(
        model,
        OptSource::Whole(opt),
        batcher,
        &layout,
        cfg,
        res,
        obs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::FaultKind;
    use apollo_data::{CorpusConfig, SyntheticCorpus};
    use apollo_nn::{LinearMode, ModelConfig};
    use apollo_obs::TraceEvent;
    use apollo_optim::{AdamW, Apollo};
    use apollo_tensor::Rng;

    fn setup(batch: usize) -> (LlamaModel, LmBatcher) {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(100);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
        let batcher = LmBatcher::new(corpus, batch, cfg.max_seq);
        (model, batcher)
    }

    #[test]
    fn adamw_pretraining_reduces_perplexity() {
        let (mut model, mut batcher) = setup(4);
        let before = eval_perplexity(&model, &batcher, 8).unwrap();
        let mut opt = AdamW::new();
        let log = pretrain(&mut model, &mut opt, &mut batcher, &TrainConfig::quick(60));
        assert!(
            log.final_ppl < before * 0.9,
            "ppl {} -> {}",
            before,
            log.final_ppl
        );
        assert!(log.state_elems > 0);
        assert!(log.wall_secs > 0.0);
    }

    #[test]
    fn apollo_pretraining_reduces_perplexity() {
        let (mut model, mut batcher) = setup(4);
        let before = eval_perplexity(&model, &batcher, 8).unwrap();
        let mut opt = Apollo::new(4, 20);
        let log = pretrain(&mut model, &mut opt, &mut batcher, &TrainConfig::quick(60));
        assert!(
            log.final_ppl < before * 0.9,
            "ppl {} -> {}",
            before,
            log.final_ppl
        );
    }

    #[test]
    fn eval_is_deterministic() {
        let (model, batcher) = setup(4);
        assert_eq!(
            eval_perplexity(&model, &batcher, 8).unwrap(),
            eval_perplexity(&model, &batcher, 8).unwrap()
        );
    }

    #[test]
    fn eval_perplexity_empty_validation_is_none() {
        let (model, batcher) = setup(4);
        assert_eq!(eval_perplexity(&model, &batcher, 0), None);
    }

    #[test]
    fn eval_skipped_cleanly_when_no_validation_data() {
        // eval_seqs = 0 used to divide by zero and poison final_ppl (and
        // every periodic sample) with NaN; now the samples are skipped.
        let (mut model, mut batcher) = setup(2);
        let mut opt = AdamW::new();
        let cfg = TrainConfig {
            eval_seqs: 0,
            eval_every: 2,
            ..TrainConfig::quick(5)
        };
        let log = pretrain(&mut model, &mut opt, &mut batcher, &cfg);
        assert!(log.eval_ppls.is_empty());
        assert!(log.final_ppl.is_nan(), "sentinel default stays NaN");
        assert!(log.train_losses.iter().all(|(_, l)| l.is_finite()));
    }

    /// An optimizer probe that fails the test the moment a non-finite
    /// gradient reaches [`Optimizer::step`].
    struct FiniteGradProbe {
        steps_seen: usize,
    }

    impl Optimizer for FiniteGradProbe {
        fn name(&self) -> String {
            "finite-grad-probe".to_string()
        }

        fn step(&mut self, params: &mut [ParamUpdate<'_>], lr: f32) {
            self.steps_seen += 1;
            for p in params.iter_mut() {
                assert!(
                    !p.grad.has_non_finite(),
                    "non-finite gradient for `{}` reached Optimizer::step",
                    p.name
                );
                p.value.axpy(-lr, p.grad);
            }
        }

        fn state_elems(&self) -> usize {
            0
        }
    }

    #[test]
    fn nan_gradients_trip_the_clip_sentinel_not_the_optimizer() {
        // With grad clipping on and NO recovery policy, an injected NaN
        // gradient used to flow through `clip_global_norm` untouched. The
        // fixed path zeroes the step and reports it.
        let (mut model, mut batcher) = setup(2);
        let mut opt = FiniteGradProbe { steps_seen: 0 };
        let cfg = TrainConfig {
            grad_clip: Some(1.0),
            ..TrainConfig::quick(8)
        };
        let res = ResilienceConfig {
            fault_plan: crate::resilience::FaultPlan::new().inject(3, FaultKind::NanGrad),
            ..ResilienceConfig::default()
        };
        let log = pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);
        assert_eq!(log.resilience.clip_nonfinite_steps, 1);
        assert_eq!(log.resilience.non_finite_grads, 1);
        assert_eq!(log.resilience.skipped_steps, 1);
        assert!(!log.resilience.is_clean());
        // The poisoned step is skipped, every other one reaches the probe.
        assert_eq!(opt.steps_seen, 7);
    }

    #[test]
    fn observed_run_writes_a_parseable_trace() {
        let dir = std::env::temp_dir().join("apollo-train-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trainer-smoke.jsonl");
        let (mut model, mut batcher) = setup(2);
        let mut opt = Apollo::new(2, 4);
        let obs = Obs::with_trace(&path, 1).unwrap();
        let cfg = TrainConfig {
            grad_clip: Some(1.0),
            ..TrainConfig::quick(6)
        };
        let log = pretrain_observed(
            &mut model,
            &mut opt,
            &mut batcher,
            &cfg,
            &ResilienceConfig::default(),
            &obs,
        );
        assert!(log.final_ppl.is_finite());
        let events = apollo_obs::read_trace(&path).unwrap();
        let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
        assert_eq!(count("RunStart"), 1);
        assert_eq!(count("RunEnd"), 1);
        assert_eq!(count("StepPhases"), 6);
        assert_eq!(count("StepMetrics"), 6);
        assert!(count("ProjectorRefresh") > 0, "APOLLO must refresh");
        assert!(count("ScaleSummary") > 0, "APOLLO must emit scales");
        // Phase times must be internally consistent on every step.
        for e in &events {
            if let TraceEvent::StepPhases {
                batch_ms,
                forward_ms,
                backward_ms,
                clip_ms,
                optimizer_ms,
                checkpoint_ms,
                eval_ms,
                total_ms,
                ..
            } = e
            {
                let parts = batch_ms
                    + forward_ms
                    + backward_ms
                    + clip_ms
                    + optimizer_ms
                    + checkpoint_ms
                    + eval_ms;
                assert!(
                    parts <= total_ms * 1.05 + 0.5,
                    "phases {parts} exceed step total {total_ms}"
                );
            }
        }
        // Phase stats accumulated the same number of steps.
        assert_eq!(obs.phase_stats().unwrap().steps(), 6);
        assert!(obs.counter_value("projector_refresh") > 0);
    }

    #[test]
    fn disabled_obs_run_matches_plain_run() {
        // pretrain_observed with a disabled handle must be bit-identical
        // to pretrain (same model weights, same losses).
        let run = |observed: bool| {
            let (mut model, mut batcher) = setup(2);
            let mut opt = Apollo::new(2, 4);
            let cfg = TrainConfig::quick(5);
            let log = if observed {
                pretrain_observed(
                    &mut model,
                    &mut opt,
                    &mut batcher,
                    &cfg,
                    &ResilienceConfig::default(),
                    &Obs::disabled(),
                )
            } else {
                pretrain(&mut model, &mut opt, &mut batcher, &cfg)
            };
            let weights: Vec<Matrix> = model.params.iter().map(|p| p.value.clone()).collect();
            (log.train_losses, log.final_ppl, weights)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn step_times_recorded_when_requested() {
        let (mut model, mut batcher) = setup(2);
        let mut opt = AdamW::new();
        let cfg = TrainConfig {
            record_step_times: true,
            ..TrainConfig::quick(5)
        };
        let log = pretrain(&mut model, &mut opt, &mut batcher, &cfg);
        assert_eq!(log.step_times_ms.len(), 5);
        assert!(log.step_times_ms.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn periodic_eval_points_are_logged() {
        let (mut model, mut batcher) = setup(2);
        let mut opt = AdamW::new();
        let cfg = TrainConfig {
            eval_every: 10,
            ..TrainConfig::quick(30)
        };
        let log = pretrain(&mut model, &mut opt, &mut batcher, &cfg);
        // evals at 10, 20, and the final one at 30.
        assert_eq!(log.eval_ppls.len(), 3);
        assert_eq!(log.eval_ppls.last().unwrap().0, 30);
    }

    #[test]
    fn quantized_weight_training_stays_on_grid_and_learns() {
        let (mut model, mut batcher) = setup(4);
        let before = eval_perplexity(&model, &batcher, 8).unwrap();
        let mut opt = AdamW::new();
        let cfg = TrainConfig {
            quantize_weights: Some(32),
            ..TrainConfig::quick(60)
        };
        let log = pretrain(&mut model, &mut opt, &mut batcher, &cfg);
        assert!(
            log.final_ppl < before * 0.95,
            "{before} -> {}",
            log.final_ppl
        );
        // Weights must sit exactly on their INT8 grid.
        for p in &model.params {
            if p.kind != apollo_nn::ParamKind::Norm {
                let requant = apollo_quant::QuantizedMatrix::quantize(&p.value, 32).dequantize();
                assert_eq!(requant, p.value, "{} off-grid", p.name);
            }
        }
    }

    #[test]
    fn grad_accumulation_approximates_larger_batch() {
        // accum=2 at batch 2 sees the same data as batch 4 with accum=1
        // would in twice the steps; sanity: it trains and reduces ppl.
        let (mut model, mut batcher) = setup(2);
        let before = eval_perplexity(&model, &batcher, 8).unwrap();
        let mut opt = AdamW::new();
        let cfg = TrainConfig {
            grad_accum: 2,
            ..TrainConfig::quick(40)
        };
        let log = pretrain(&mut model, &mut opt, &mut batcher, &cfg);
        assert!(
            log.final_ppl < before * 0.95,
            "{before} -> {}",
            log.final_ppl
        );
    }

    #[test]
    fn relora_merge_path_runs() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(101);
        let mut model = LlamaModel::new(
            &cfg,
            LinearMode::LoRa {
                rank: 2,
                alpha: 4.0,
            },
            &mut rng,
        );
        let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
        let mut batcher = LmBatcher::new(corpus, 2, cfg.max_seq);
        let mut opt = AdamW::new();
        let cfg_t = TrainConfig {
            merge_every: Some(10),
            ..TrainConfig::quick(25)
        };
        let log = pretrain(&mut model, &mut opt, &mut batcher, &cfg_t);
        assert!(log.final_ppl.is_finite());
    }
}
