//! The one pre-training loop behind [`crate::pretrain`],
//! [`crate::pretrain_resilient`], [`crate::pretrain_observed`] and
//! [`crate::pretrain_ddp`]:
//!
//! *draw slots → per-slot loss/grads → fixed-tree combine and 1/V scale →
//! fault injection, sentinels, clip → per-parameter step → post-step hooks
//! (INT8 round-trip, ReLoRA merge) → log / eval / checkpoint.*
//!
//! The loop runs on the caller's thread against the caller's model, and
//! everything that steers it (step, data cursor, merge RNG, spike window, LR
//! back-off, resilience counters, the remaining fault plan, the floor) is a
//! plain field of one [`Run`]. A data-parallel run fans out two parts of a
//! step with [`fork_join`]: the slots' forward and backward passes, which
//! only read the model, and the per-parameter optimizer steps, which write
//! disjoint parameters. Replica count only decides *which worker computes
//! which slot or steps which parameter*: slot `s` of a step draws the same
//! streams and the slots are combined by the same tree whoever computed
//! them, so losses and weights are bit-identical at any replica count. A
//! one-replica run spawns no thread; the serial entry points are its
//! whole-model-optimizer case, where `grad_accum = A` is `A` slots.
//!
//! Recovery is one mechanism: restore the newest **floor** (a
//! [`TrainState`], on disk or in memory), replay. Resume restores the
//! newest valid checkpoint; `RollbackAndRetry` the in-memory floor it
//! refreshes every `snapshot_every` steps.

use std::ops::Range;
use std::time::Instant;

use apollo_data::LmBatcher;
use apollo_nn::{LlamaModel, ParamKind};
use apollo_obs::{Obs, Phase, PhaseSample, TraceEvent};
use apollo_optim::Optimizer;
use apollo_quant::QuantizedMatrix;
use apollo_tensor::{Matrix, Rng};

use crate::checkpoint::{
    checkpoint_file_name, latest_valid_checkpoint, manifest_of, prune_checkpoints,
    save_train_state, TrainMeta, TrainState,
};
use crate::ddp::{fork_join, shard_ranges, slot_range, tree_combine, DdpConfig, OptimizerFactory};
use crate::resilience::{
    FaultKind, FaultPlan, RecoveryPolicy, ResilienceConfig, ResilienceReport, SpikeDetector,
};
use crate::schedule::LrSchedule;
use crate::trainer::{eval_chunked, param_updates, RunLog, TrainConfig};

/// Global gradient norm [`RecoveryPolicy::ClipAndContinue`] clips to.
const RECOVERY_CLIP_NORM: f32 = 1.0;

fn ms_since(t: Instant) -> f32 {
    t.elapsed().as_secs_f32() * 1e3
}

// ---------------------------------------------------------------------------
// Optimizer state: the one fork the entry points' inputs force.

/// Where a run's optimizer state comes from.
pub(crate) enum OptSource<'a> {
    /// One whole-model optimizer borrowed from the caller, stepped under the
    /// caller's kernel-thread setting.
    Whole(&'a mut dyn Optimizer),
    /// One instance per trainable parameter — what makes a checkpoint
    /// re-shardable across replica counts.
    PerParam(&'a OptimizerFactory),
}

/// A run's optimizer state. Saved optimizer sections are opaque bytes to
/// everything outside this type.
enum Optim<'a> {
    Whole(&'a mut dyn Optimizer),
    PerParam {
        opts: Vec<Box<dyn Optimizer>>,
        /// The optimizer-index ranges the workers step in parallel.
        shards: Vec<Range<usize>>,
    },
}

impl Optim<'_> {
    fn for_each(&mut self, mut f: impl FnMut(&mut dyn Optimizer)) {
        match self {
            Optim::Whole(opt) => f(&mut **opt),
            Optim::PerParam { opts, .. } => opts.iter_mut().for_each(|o| f(o.as_mut())),
        }
    }

    /// Steps every parameter `grads` holds a gradient for; per-parameter
    /// optimizers one shard per worker.
    fn step(&mut self, model: &mut LlamaModel, grads: &[Option<Matrix>], lr: f32) {
        let mut updates = param_updates(model, grads);
        match self {
            Optim::Whole(opt) => opt.step(&mut updates, lr),
            Optim::PerParam { opts, shards } => {
                assert_eq!(opts.len(), updates.len(), "a parameter has no gradient");
                let mut pairs = opts.iter_mut().zip(&mut updates);
                let take = |shard: &Range<usize>| pairs.by_ref().take(shard.len()).collect();
                let parts: Vec<Vec<_>> = shards.iter().map(take).collect();
                fork_join(parts, |part| {
                    for (opt, update) in part {
                        opt.step(std::slice::from_mut(update), lr);
                    }
                });
            }
        }
    }

    /// A checkpoint's optimizer sections: the whole-model optimizer's one,
    /// or one per parameter.
    fn save(&self) -> Result<Vec<Vec<u8>>, String> {
        match self {
            Optim::Whole(opt) => opt.state_save().map(|section| vec![section]),
            Optim::PerParam { opts, .. } => opts.iter().map(|o| o.state_save()).collect(),
        }
    }

    /// Loads optimizer sections. None is fresh state; sections that do not
    /// load (another count, another optimizer's state) are reported and
    /// survived with fresh state too: a partial per-parameter load must not
    /// outlive the error. Returns `false` only for the latter.
    fn load(&mut self, sections: &[Vec<u8>]) -> bool {
        let expected = match self {
            Optim::Whole(_) => 1,
            Optim::PerParam { opts, .. } => opts.len(),
        };
        let loaded = match self {
            _ if sections.len() != expected => Err(format!(
                "{} optimizer sections, expected {expected}",
                sections.len()
            )),
            Optim::Whole(opt) => opt.state_load(&sections[0]),
            Optim::PerParam { opts, .. } => {
                let mut all = opts.iter_mut().zip(sections);
                all.try_for_each(|(opt, section)| opt.state_load(section))
            }
        };
        if let Err(e) = &loaded {
            if !sections.is_empty() {
                eprintln!("warning: optimizer state not restored ({e}); starting fresh");
            }
            self.for_each(|opt| opt.reset_state());
        }
        loaded.is_ok() || sections.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The loop.

/// One slot's loss and per-model-parameter gradients.
type SlotOut = (f32, Vec<Option<Matrix>>);

/// One slot's loss and gradients against `model`, forward and backward
/// timed into `sample`.
fn run_slot(
    model: &LlamaModel,
    (tokens, targets): &(Vec<u32>, Vec<u32>),
    slot_batch: usize,
    sample: &mut PhaseSample,
) -> SlotOut {
    let (mut graph, loss_id, pnodes) = sample.time(Phase::Forward, || {
        model.build_loss(tokens, targets, slot_batch)
    });
    let loss = graph.value(loss_id).get(0, 0);
    let grads = sample.time(Phase::Backward, || {
        graph.backward(loss_id);
        model.take_grads(&mut graph, &pnodes)
    });
    (loss, grads)
}

/// A run: what it fixed before its first step, its model and optimizer
/// state, and the loop state.
struct Run<'a> {
    cfg: &'a TrainConfig,
    res: &'a ResilienceConfig,
    obs: &'a Obs,
    schedule: LrSchedule,
    /// Model-parameter index of each optimizer (trainable) parameter.
    opt_params: Vec<usize>,
    model: &'a mut LlamaModel,
    optim: Optim<'a>,
    /// Slot-sized batcher.
    batcher: &'a mut LmBatcher,
    /// Workers a step's slots fan out to.
    workers: usize,
    /// Slots of a step: `virtual_slots × grad_accum` slot batches.
    slots: usize,
    step: usize,
    start_step: usize,
    cursor: u64,
    merge_rng: Rng,
    detector: SpikeDetector,
    lr_scale: f32,
    faults: FaultPlan,
    consecutive_faults: usize,
    /// The step the latest sentinel fired at. Only a clean step past it
    /// ends a run of faults: a rollback's replay of the clean steps before
    /// it does not.
    last_fault: usize,
    report: ResilienceReport,
    /// The newest in-memory floor a rollback policy returns to: the resumed
    /// checkpoint, then that policy's snapshots.
    floor: Option<TrainState>,
    /// Set when a floor was due and the optimizer could not save its state:
    /// the run goes on without one, and a fault that would roll back skips.
    floorless: bool,
    log: RunLog,
}

impl Run<'_> {
    fn rolls_back(&self) -> bool {
        let policy = self.res.policy;
        matches!(policy, Some(RecoveryPolicy::RollbackAndRetry { .. }))
    }

    /// Restores `floor`'s weights, optimizer state and replayable loop
    /// state; `false` if its optimizer sections did not load. Counters and
    /// the LR back-off are the caller's business: a rollback keeps counting
    /// and backs off further.
    fn restore(&mut self, floor: &TrainState) -> bool {
        for (p, saved) in self.model.params.iter_mut().zip(&floor.model.params) {
            p.value.copy_from(&saved.value);
        }
        let loaded = self.optim.load(&floor.optimizer);
        self.step = (floor.meta.step as usize).min(self.cfg.steps);
        self.cursor = floor.meta.data_cursor;
        if let Ok(words) = <[u64; 4]>::try_from(floor.meta.rng_state.as_slice()) {
            self.merge_rng = Rng::from_state(words, floor.meta.rng_spare);
        }
        self.detector.restore(&floor.meta.spike_window);
        loaded
    }

    /// Starts the run from a resumed checkpoint, counters and LR back-off
    /// included. Only a rollback policy keeps it, as its first floor.
    fn resume_from(&mut self, mut floor: TrainState) {
        if !self.restore(&floor) {
            // A later rollback to it starts the optimizer fresh, quietly.
            floor.optimizer.clear();
        }
        self.start_step = self.step;
        self.lr_scale = floor.meta.lr_scale;
        self.report = floor.meta.report.clone();
        self.report.resumed_from_step = Some(floor.meta.step);
        if self.rolls_back() {
            self.floor = Some(floor);
        }
    }

    /// Captures "about to run `step`": writes the crash-safe checkpoint
    /// and/or refreshes the in-memory floor.
    fn capture(&mut self, step: usize, to_disk: bool, to_floor: bool) {
        let res = self.res;
        let (rng_state, rng_spare) = self.merge_rng.state();
        let meta = TrainMeta {
            step: step as u64,
            data_cursor: self.cursor,
            rng_state: rng_state.to_vec(),
            rng_spare,
            lr_scale: self.lr_scale,
            spike_window: self.detector.window(),
            report: self.report.clone(),
        };
        let model = &*self.model;
        let saved = self.optim.save();
        if let (true, Some(dir)) = (to_disk, &res.checkpoint_dir) {
            let written = saved.as_ref().map_err(String::clone).and_then(|optimizer| {
                let path = dir.join(checkpoint_file_name(step as u64));
                std::fs::create_dir_all(dir)
                    .and_then(|()| save_train_state(model, &meta, optimizer, &path))
                    .map_err(|e| e.to_string())
            });
            match written {
                Ok(()) => {
                    self.report.checkpoints_written += 1;
                    let _ = prune_checkpoints(dir, res.keep_last.max(1));
                }
                Err(e) => {
                    eprintln!("warning: checkpoint skipped ({e})");
                    self.report.checkpoint_errors += 1;
                }
            }
        }
        if to_floor {
            // An optimizer that cannot save is not an error of a run that
            // asked for no checkpoint: it has no floor, and stops trying.
            match saved {
                Ok(optimizer) => {
                    let model = model.clone();
                    self.floor = Some(TrainState {
                        model,
                        meta,
                        optimizer,
                    });
                }
                Err(_) => self.floorless = true,
            }
        }
    }

    /// Draws the step's slots in slot order and computes them, each slot
    /// range on its worker against the one model. Forward and backward are
    /// timed on the caller's own slots.
    fn compute_slots(&mut self, sample: &mut PhaseSample) -> Vec<SlotOut> {
        let slot_batch = self.batcher.batch();
        let batches: Vec<_> = sample.time(Phase::BatchPrep, || {
            (0..self.slots)
                .map(|s| {
                    self.batcher
                        .set_cursor(self.cursor + (s * slot_batch) as u64);
                    self.batcher.next_batch()
                })
                .collect()
        });
        self.cursor += (self.slots * slot_batch) as u64;
        let (model, batches) = (&*self.model, &batches);
        let ranges = (0..self.workers).map(|w| slot_range(w, self.workers, self.slots));
        let workers = fork_join(ranges.collect(), |range| {
            let mut timed = PhaseSample::new();
            let outs: Vec<_> = batches[range]
                .iter()
                .map(|batch| run_slot(model, batch, slot_batch, &mut timed))
                .collect();
            (outs, timed)
        });
        for phase in [Phase::Forward, Phase::Backward] {
            sample.add(phase, workers[0].1.get(phase));
        }
        workers.into_iter().flat_map(|(outs, _)| outs).collect()
    }

    /// Combines every parameter's slot gradients by the fixed pairwise tree
    /// and scales by `1/V`; entries the loss does not reach stay `None`.
    fn combine(&self, slots: &mut [SlotOut]) -> Vec<Option<Matrix>> {
        let mut grads: Vec<Option<Matrix>> = self.model.params.iter().map(|_| None).collect();
        for &mi in &self.opt_params {
            let parts: Vec<Matrix> = slots.iter_mut().filter_map(|s| s.1[mi].take()).collect();
            if parts.is_empty() {
                continue;
            }
            let mut g = tree_combine(parts, |a, b| a.add_assign(&b));
            if slots.len() > 1 {
                g.scale_assign(1.0 / slots.len() as f32);
            }
            grads[mi] = Some(g);
        }
        grads
    }

    /// The guard's reduction: per-parameter non-finite flags and (`norms`)
    /// squared gradient norms, folded in parameter order into `(any
    /// non-finite, global norm)`.
    fn guard_stats(&self, grads: &[Option<Matrix>], norms: bool) -> (bool, f32) {
        let stat = |&mi: &usize| {
            grads[mi]
                .as_ref()
                .map_or((0.0, false), |g| grad_stat(g, norms))
        };
        fold_stats(self.opt_params.iter().map(stat))
    }

    /// `known`, or the global gradient norm reduced now.
    fn norm_of(&self, grads: &[Option<Matrix>], known: Option<f32>) -> f32 {
        known.unwrap_or_else(|| self.guard_stats(grads, true).1)
    }

    /// Runs steps until the configured count, an abort or a crash.
    #[allow(clippy::too_many_lines)]
    fn train(&mut self) {
        let (cfg, res, obs) = (self.cfg, self.res, self.obs);
        let loss_sample_every = (cfg.steps / 200).max(1);
        while self.step < cfg.steps {
            let step = self.step;
            obs.set_step(step);
            let step_started = Instant::now();
            let mut sample = PhaseSample::new();

            // Skipped at the step a run starts from: that file exists.
            let checkpoint_due = res.checkpoint_dir.is_some()
                && res.checkpoint_every > 0
                && step > 0
                && step != self.start_step
                && step.is_multiple_of(res.checkpoint_every);
            // A rollback policy's floor exists from the first step on and
            // is refreshed every `snapshot_every` steps.
            let floor_due = self.rolls_back()
                && !self.floorless
                && self
                    .floor
                    .as_ref()
                    .is_none_or(|f| step >= f.meta.step as usize + res.snapshot_every.max(1));
            if floor_due || checkpoint_due {
                sample.time(Phase::Checkpoint, || {
                    self.capture(step, checkpoint_due, floor_due);
                });
            }

            // The step's loss and gradients: the same fixed tree over slots
            // for both.
            let mut slots = self.compute_slots(&mut sample);
            let slot_losses: Vec<f32> = slots.iter().map(|s| s.0).collect();
            let mut loss = tree_combine(slot_losses, |a, b| *a += b) / slots.len() as f32;
            let mut grads = sample.time(Phase::Optimizer, || self.combine(&mut slots));
            drop(slots);

            // Deterministic fault injection (tests only). Faults are
            // one-shot: a rolled-back retry passes.
            match self.faults.take_at(step) {
                Some(FaultKind::NanGrad) => poison_first(&mut grads, f32::NAN),
                Some(FaultKind::InfGrad) => poison_first(&mut grads, f32::INFINITY),
                Some(FaultKind::LossSpike { factor }) => {
                    loss *= factor;
                    for g in grads.iter_mut().flatten() {
                        g.scale_assign(factor);
                    }
                }
                // Simulated kill -9: no final eval, no final checkpoint.
                Some(FaultKind::Crash) => {
                    self.report.crashed = true;
                    break;
                }
                None => {}
            }

            // Guard: sentinels, then the configured clip. `norm` is the
            // global gradient norm while it is known for `grads` as they
            // stand; it is computed only for a clip or a sampled step.
            let guard_started = Instant::now();
            let sample_due = obs.sample_due();
            let want_norm = cfg.grad_clip.is_some() || sample_due;
            let (mut bad_grads, mut norm) = (false, None);
            if res.policy.is_some() || want_norm {
                let (bad, n) = self.guard_stats(&grads, want_norm);
                (bad_grads, norm) = (bad, want_norm.then_some(n));
            }
            if let Some(policy) = res.policy {
                let report = &mut self.report;
                let bad_loss = !loss.is_finite();
                let spike = !bad_loss && self.detector.is_spike(loss);
                report.non_finite_loss += usize::from(bad_loss);
                report.non_finite_grads += usize::from(bad_grads);
                report.loss_spikes += usize::from(spike);
                let sentinels = [
                    (bad_loss, "non_finite_loss"),
                    (bad_grads, "non_finite_grads"),
                    (spike, "loss_spike"),
                ];
                for (_, kind) in sentinels.iter().filter(|s| s.0) {
                    obs.counter(&format!("sentinel_{kind}"), 1);
                }
                if let Some(&(_, kind)) = sentinels.iter().find(|s| s.0) {
                    self.consecutive_faults += 1;
                    self.last_fault = step;
                    let (policy, action) = match policy {
                        _ if self.consecutive_faults > res.max_consecutive_faults => {
                            (RecoveryPolicy::Abort, "abort")
                        }
                        RecoveryPolicy::Abort => (policy, "abort"),
                        RecoveryPolicy::ClipAndContinue => (policy, "clip"),
                        RecoveryPolicy::RollbackAndRetry { .. } if self.floor.is_some() => {
                            (policy, "rollback")
                        }
                        // A rollback that faulted before any floor existed.
                        _ => (RecoveryPolicy::SkipStep, "skip"),
                    };
                    obs.emit(|| TraceEvent::Sentinel {
                        step,
                        kind: kind.to_string(),
                        action: action.to_string(),
                    });
                    match policy {
                        RecoveryPolicy::SkipStep => {
                            self.report.skipped_steps += 1;
                            self.step += 1;
                            continue;
                        }
                        RecoveryPolicy::Abort => {
                            self.report.aborted = true;
                            break;
                        }
                        RecoveryPolicy::ClipAndContinue => {
                            self.report.clipped_steps += 1;
                            sanitize_grads(&mut grads);
                            let repaired = self.norm_of(&grads, None);
                            clip_to(&mut grads, repaired, RECOVERY_CLIP_NORM);
                            norm = None;
                            // Fall through: apply the repaired update.
                        }
                        RecoveryPolicy::RollbackAndRetry { lr_backoff } => {
                            self.report.rollbacks += 1;
                            let floor = self.floor.take().expect("checked above");
                            self.restore(&floor);
                            self.floor = Some(floor);
                            self.lr_scale *= lr_backoff;
                            continue;
                        }
                    }
                } else if step > self.last_fault {
                    self.consecutive_faults = 0;
                }
            }
            if let Some(max_norm) = cfg.grad_clip {
                let pre_clip = self.norm_of(&grads, norm);
                norm = Some(pre_clip);
                if clip_to(&mut grads, pre_clip, max_norm) {
                    // The norm itself was NaN/Inf, which `norm > max_norm`
                    // would wave through to the optimizer. The gradients
                    // are zeroed; skip the update and count it like any
                    // other sentinel firing.
                    let report = &mut self.report;
                    report.non_finite_grads += 1;
                    report.clip_nonfinite_steps += 1;
                    report.skipped_steps += 1;
                    obs.counter("sentinel_clip_non_finite", 1);
                    obs.emit(|| TraceEvent::Sentinel {
                        step,
                        kind: "clip_non_finite".to_string(),
                        action: "zero_step".to_string(),
                    });
                    self.step += 1;
                    continue;
                }
            }
            if cfg.grad_clip.is_some() {
                sample.add(Phase::Clip, ms_since(guard_started));
            }
            let lr = self.schedule.lr_at(step) * self.lr_scale;
            if sample_due {
                let grad_norm = self.norm_of(&grads, norm);
                obs.gauge("loss", f64::from(loss));
                obs.gauge("grad_norm", f64::from(grad_norm));
                obs.gauge("lr", f64::from(lr));
                obs.emit(|| TraceEvent::StepMetrics {
                    step,
                    loss,
                    grad_norm,
                    lr,
                });
            }

            // Per-parameter step, then the hooks that touch the weights.
            let optimizer_started = Instant::now();
            self.optim.step(self.model, &grads, lr);
            drop(grads);
            if let Some(group) = cfg.quantize_weights {
                quantize_weights(self.model, group);
            }
            sample.add(Phase::Optimizer, ms_since(optimizer_started));
            let merge_due = |every: usize| every > 0 && (step + 1).is_multiple_of(every);
            if cfg.merge_every.is_some_and(merge_due) {
                self.model.merge_adapters(&mut self.merge_rng);
                self.optim.for_each(|opt| opt.reset_state());
            }

            self.detector.record(loss);
            if step.is_multiple_of(loss_sample_every) || step + 1 == cfg.steps {
                self.log.train_losses.push((step, loss));
            }
            let eval_due = cfg.eval_every > 0
                && (step + 1).is_multiple_of(cfg.eval_every)
                && step + 1 != cfg.steps;
            if eval_due {
                let ppl = sample.time(Phase::Eval, || self.eval());
                self.log.eval_ppls.extend(ppl.map(|ppl| (step + 1, ppl)));
            }
            let total_ms = ms_since(step_started);
            if cfg.record_step_times {
                self.log.step_times_ms.push(total_ms);
            }
            obs.record_step(&sample, total_ms);
            obs.emit(|| TraceEvent::StepPhases {
                step,
                batch_ms: sample.get(Phase::BatchPrep),
                forward_ms: sample.get(Phase::Forward),
                backward_ms: sample.get(Phase::Backward),
                clip_ms: sample.get(Phase::Clip),
                optimizer_ms: sample.get(Phase::Optimizer),
                checkpoint_ms: sample.get(Phase::Checkpoint),
                eval_ms: sample.get(Phase::Eval),
                total_ms,
            });
            self.step += 1;
        }
    }

    /// Held-out perplexity in chunks of the caller's batch size, which the
    /// slot batcher's is `grad_accum / slots` of.
    fn eval(&self) -> Option<f32> {
        let chunk = self.batcher.batch() * self.slots / self.cfg.grad_accum.max(1);
        eval_chunked(self.model, self.batcher, self.cfg.eval_seqs, chunk)
    }

    /// The epilogue: footprint, final checkpoint and final evaluation (a
    /// crash skips the last two).
    fn finish(&mut self) {
        let res = self.res;
        self.batcher.set_cursor(self.cursor);
        let ran = !self.report.crashed;
        if ran
            && res.checkpoint_dir.is_some()
            && res.checkpoint_every > 0
            && self.step != self.start_step
        {
            self.capture(self.step, true, false);
        }
        let log = &mut self.log;
        self.optim.for_each(|opt| {
            log.state_elems += opt.state_elems();
            log.state_bytes += opt.state_bytes();
        });
        self.log.resilience = self.report.clone();
        if let Some(ppl) = ran.then(|| self.eval()).flatten() {
            self.log.final_ppl = ppl;
            self.log.eval_ppls.push((self.step, ppl));
        }
    }
}

/// Poisons the first trainable gradient.
fn poison_first(grads: &mut [Option<Matrix>], value: f32) {
    if let Some(g) = grads.iter_mut().flatten().next() {
        g.set(0, 0, value);
    }
}

/// Q-GaLore-style INT8 round-trip of every weight matrix (norm gains stay
/// full precision).
fn quantize_weights(model: &mut LlamaModel, group: usize) {
    for p in model
        .params
        .iter_mut()
        .filter(|p| p.kind != ParamKind::Norm)
    {
        QuantizedMatrix::quantize(&p.value, group).dequantize_into(&mut p.value);
    }
}

/// A parameter's `(squared gradient norm — 0 unless `norms` — , any
/// non-finite entry)`, for the guard.
fn grad_stat(g: &Matrix, norms: bool) -> (f64, bool) {
    let n = if norms { f64::from(g.fro_norm()) } else { 0.0 };
    (n * n, g.has_non_finite())
}

/// `(any non-finite, global norm)` of per-parameter [`grad_stat`]s, folded in
/// parameter order.
fn fold_stats(stats: impl Iterator<Item = (f64, bool)>) -> (bool, f32) {
    let (sq, bad) = stats.fold((0.0f64, false), |(sq, bad), (n, b)| (sq + n, bad || b));
    (bad, sq.sqrt() as f32)
}

/// Zeroes every non-finite gradient entry (in place).
fn sanitize_grads(grads: &mut [Option<Matrix>]) {
    let entries = grads.iter_mut().flatten().flat_map(Matrix::as_mut_slice);
    for x in entries.filter(|x| !x.is_finite()) {
        *x = 0.0;
    }
}

/// Clips gradients whose global norm is `norm` to `max_norm`. A single
/// NaN/Inf entry makes the norm non-finite, and `norm > max_norm` is then
/// false — which would pass the poison straight to the optimizer. A
/// non-finite norm zeroes every gradient instead and returns `true`, for
/// the caller to count and skip the step.
fn clip_to(grads: &mut [Option<Matrix>], norm: f32, max_norm: f32) -> bool {
    if !norm.is_finite() {
        for g in grads.iter_mut().flatten() {
            g.as_mut_slice().fill(0.0);
        }
        return true;
    }
    if norm > max_norm {
        let scale = max_norm / norm;
        for g in grads.iter_mut().flatten() {
            g.scale_assign(scale);
        }
    }
    false
}

// ---------------------------------------------------------------------------
// The driver.

/// Runs pre-training to completion with `layout.replicas` workers.
/// `batcher` is the *slot* batcher; it ends where a serial loop leaves it.
pub(crate) fn run(
    model: &mut LlamaModel,
    source: OptSource<'_>,
    batcher: &mut LmBatcher,
    layout: &DdpConfig,
    cfg: &TrainConfig,
    res: &ResilienceConfig,
    obs: &Obs,
) -> RunLog {
    assert!(cfg.steps > 0, "need at least one step");
    let started = Instant::now();
    let trainable = |i: &usize| model.params[*i].trainable;
    let opt_params: Vec<usize> = (0..model.params.len()).filter(trainable).collect();
    // Replica events and `ddp.*` metrics belong to the data-parallel entry
    // point.
    let (optim, ddp_obs) = match source {
        OptSource::Whole(opt) => {
            opt.attach_observer(obs.clone());
            (Optim::Whole(opt), Obs::disabled())
        }
        OptSource::PerParam(make) => {
            let mut opts: Vec<_> = (0..opt_params.len()).map(make).collect();
            for opt in &mut opts {
                opt.attach_observer(obs.clone());
            }
            let elems: Vec<_> = opt_params
                .iter()
                .map(|&mi| model.params[mi].value.len())
                .collect();
            let shards = shard_ranges(&elems, layout.replicas);
            (Optim::PerParam { opts, shards }, obs.clone())
        }
    };
    let (optimizer, run_label) = match &optim {
        Optim::Whole(opt) => (opt.name(), opt.name()),
        Optim::PerParam { opts, .. } => {
            let name = opts[0].name();
            (name.clone(), format!("ddp×{} {name}", layout.replicas))
        }
    };
    let resumed = match (res.resume, &res.checkpoint_dir) {
        (true, Some(dir)) => resume_floor(dir, model),
        _ => None,
    };
    let model_name = model.config().name.clone();
    let mut run = Run {
        cfg,
        res,
        obs,
        schedule: LrSchedule::paper_default(cfg.lr, cfg.steps),
        opt_params,
        optim,
        workers: layout.replicas,
        slots: layout.virtual_slots * cfg.grad_accum.max(1),
        step: 0,
        start_step: 0,
        cursor: batcher.cursor(),
        batcher,
        model,
        merge_rng: Rng::seed_from_u64(0x4E10),
        detector: SpikeDetector::new(res.spike_window, res.spike_factor),
        lr_scale: 1.0,
        faults: res.fault_plan.clone(),
        consecutive_faults: 0,
        last_fault: 0,
        report: ResilienceReport::default(),
        floor: None,
        floorless: false,
        log: RunLog {
            optimizer,
            model: model_name.clone(),
            train_losses: Vec::new(),
            eval_ppls: Vec::new(),
            final_ppl: f32::NAN,
            state_elems: 0,
            state_bytes: 0,
            wall_secs: 0.0,
            step_times_ms: Vec::new(),
            resilience: Default::default(),
        },
    };
    if let Some(floor) = resumed {
        run.resume_from(floor);
    }
    let start_step = run.start_step;
    obs.set_step(start_step);
    // Baseline for the run-end pool counters (the pool is process-global).
    let pool_at_start = apollo_tensor::pool::stats();
    obs.emit(|| TraceEvent::RunStart {
        step: start_step,
        optimizer: run_label,
        model: model_name,
        steps: cfg.steps,
    });

    let replica_events = |event: &str, step: usize| {
        for replica in 0..layout.replicas {
            ddp_obs.emit(|| TraceEvent::ReplicaEvent {
                step,
                replica,
                event: event.to_string(),
                replicas: layout.replicas,
            });
        }
    };
    ddp_obs.gauge("ddp.replicas", layout.replicas as f64);
    replica_events("start", start_step);
    run.train();
    run.finish();
    let end_step = run.step;
    ddp_obs.counter("ddp.steps", (end_step - start_step.min(end_step)) as u64);
    replica_events("finish", end_step);

    let wall_secs = started.elapsed().as_secs_f64();
    // Performance-runtime counters: thread-pool jobs/tasks this run —
    // printed by `--profile`.
    let pool = apollo_tensor::pool::stats();
    obs.counter("pool_jobs", pool.jobs.saturating_sub(pool_at_start.jobs));
    obs.counter(
        "pool_worker_tasks",
        pool.worker_tasks.saturating_sub(pool_at_start.worker_tasks),
    );
    obs.counter("pool_workers", pool.workers as u64);
    obs.emit(|| TraceEvent::RunEnd {
        step: end_step,
        wall_secs,
    });
    if let Err(e) = obs.flush() {
        eprintln!("warning: trace flush failed ({e})");
    }
    let mut log = run.log;
    log.wall_secs = wall_secs;
    log
}

/// The newest valid checkpoint in `dir` as the floor to resume `model`
/// from, refused with a warning — no panic, no weight installed — unless it
/// holds exactly `model`'s parameters (names, order and shapes).
fn resume_floor(dir: &std::path::Path, model: &LlamaModel) -> Option<TrainState> {
    let (path, state) = latest_valid_checkpoint(dir).ok()??;
    if manifest_of(&state.model) != manifest_of(model) {
        eprintln!(
            "warning: {} holds the parameters of a different model ({}); ignored",
            path.display(),
            state.model.config().name
        );
        return None;
    }
    Some(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global norm as [`Run::guard_stats`] folds it, then
    /// [`clip_to`]. Returns `(pre-clip norm, non-finite)`.
    fn clip_global_norm(grads: &mut [Option<Matrix>], max_norm: f32) -> (f32, bool) {
        let stats = grads.iter().flatten().map(|g| grad_stat(g, true));
        let (_, norm) = fold_stats(stats);
        (norm, clip_to(grads, norm, max_norm))
    }

    #[test]
    fn grad_clip_zeroes_non_finite_gradients() {
        // A NaN entry makes the global norm NaN; `norm > max_norm` is false
        // for NaN, so the old code skipped clipping and passed the poison
        // through. The fix zeroes everything and reports it.
        let mut grads = vec![
            Some(Matrix::full(2, 2, 1.0)),
            None,
            Some(Matrix::full(1, 1, f32::NAN)),
        ];
        let (norm, non_finite) = clip_global_norm(&mut grads, 1.0);
        assert!(non_finite);
        assert!(!norm.is_finite());
        for g in grads.iter().flatten() {
            assert!(g.as_slice().iter().all(|&x| x == 0.0));
        }
        let mut inf = vec![Some(Matrix::full(1, 1, f32::INFINITY))];
        assert!(clip_global_norm(&mut inf, 1.0).1);
    }

    #[test]
    fn grad_clip_bounds_global_norm() {
        let mut grads = vec![
            Some(Matrix::full(2, 2, 10.0)),
            None,
            Some(Matrix::full(1, 1, 10.0)),
        ];
        clip_global_norm(&mut grads, 1.0);
        let total: f32 = grads
            .iter()
            .flatten()
            .map(|g| g.fro_norm().powi(2))
            .sum::<f32>()
            .sqrt();
        assert!((total - 1.0).abs() < 1e-4, "norm {total}");
    }

    #[test]
    fn grad_clip_leaves_small_gradients_alone() {
        let mut grads = vec![Some(Matrix::full(1, 1, 0.1))];
        clip_global_norm(&mut grads, 1.0);
        assert_eq!(grads[0].as_ref().unwrap().get(0, 0), 0.1);
    }
}
