//! The one pre-training step pipeline behind [`crate::pretrain`],
//! [`crate::pretrain_resilient`], [`crate::pretrain_observed`] and
//! [`crate::pretrain_ddp`]:
//!
//! *draw slots → per-slot loss/grads → fixed-tree combine and 1/V scale →
//! fault injection, sentinels, clip → per-parameter step → post-step hooks
//! (INT8 round-trip, ReLoRA merge) → log / eval / checkpoint.*
//!
//! A run is a sequence of **rounds**; a round is a fixed set of **members**
//! executing that pipeline in lock-step. Member count only decides *who
//! computes which slot* and *who owns which parameter's optimizer state*:
//! slot `s` of a step draws the same streams and the slots are combined by
//! the same tree whoever computed them, so losses and weights are
//! bit-identical at any member count. A one-member round runs inline on the
//! caller's thread against the caller's model — that is the serial entry
//! points, where `grad_accum = A` is `A` slots — and crosses no barrier,
//! publishes no weights and clones nothing it was not asked to.
//!
//! Everything that steers the loop (step, data cursor, merge RNG, spike
//! window, LR back-off, resilience counters, the remaining fault plan) is
//! *replicated*: every member holds the same values and updates them from
//! the same inputs — the slot losses, and the per-parameter squared norms
//! and non-finite flags the owners publish in parameter order — so every
//! member reaches the same verdict without a coordinator.
//!
//! Recovery is one mechanism: restore the newest **floor** (a
//! [`TrainState`], on disk or in memory), replay. Resume restores the
//! newest valid checkpoint; `RollbackAndRetry` the in-memory floor it
//! refreshes every `snapshot_every` steps; the survivors of a planned
//! replica kill the in-memory floor their team kept for it — the state
//! their round started from or, later, the state of its latest checkpoint.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use apollo_data::LmBatcher;
use apollo_nn::{LlamaModel, ParamKind};
use apollo_obs::{Obs, Phase, PhaseSample, TraceEvent};
use apollo_optim::Optimizer;
use apollo_tensor::{Matrix, Rng, ThreadOverrideGuard};

use crate::checkpoint::{
    checkpoint_file_name, latest_valid_checkpoint, prune_checkpoints, save_train_state, TrainMeta,
    TrainState,
};
use crate::ddp::{
    pack_opt_blobs, shard_ranges, slot_range, tree_combine, unpack_opt_blobs, DdpConfig, DdpReport,
    DdpRunLog, OptimizerFactory, PoisonBarrier, Poisoned,
};
use crate::resilience::{
    FaultKind, FaultPlan, RecoveryPolicy, ResilienceConfig, ResilienceReport, SpikeDetector,
};
use crate::schedule::LrSchedule;
use crate::trainer::{eval_chunked, param_updates, RunLog, TrainConfig};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a member panicked holding a round lock")
}

fn ms_since(t: Instant) -> f32 {
    t.elapsed().as_secs_f32() * 1e3
}

// ---------------------------------------------------------------------------
// Optimizer state: the one fork the entry points' inputs force.

/// Where a run's optimizer state comes from.
pub(crate) enum OptSource<'a> {
    /// One whole-model optimizer borrowed from the caller: one member, run
    /// inline under the caller's kernel-thread setting.
    Whole(&'a mut dyn Optimizer),
    /// One instance per trainable parameter — what makes a checkpoint
    /// re-shardable across member counts.
    PerParam(&'a OptimizerFactory),
}

/// A member's optimizer state. A saved optimizer section is opaque bytes to
/// everything outside this type.
enum Optim<'a> {
    Whole(&'a mut dyn Optimizer),
    PerParam {
        /// Optimizer parameters of the whole run.
        n_opt: usize,
        /// Global optimizer index of `opts[0]`.
        first: usize,
        opts: Vec<Box<dyn Optimizer>>,
    },
}

impl<'a> Optim<'a> {
    fn per_param(make: &OptimizerFactory, run: &Run<'_>, shard: Range<usize>) -> Self {
        let mut opts: Vec<_> = shard.clone().map(make).collect();
        for opt in &mut opts {
            opt.attach_observer(run.obs.clone());
        }
        Optim::PerParam {
            n_opt: run.opt_params.len(),
            first: shard.start,
            opts,
        }
    }

    fn for_each(&mut self, mut f: impl FnMut(&mut dyn Optimizer)) {
        match self {
            Optim::Whole(opt) => f(&mut **opt),
            Optim::PerParam { opts, .. } => opts.iter_mut().for_each(|o| f(o.as_mut())),
        }
    }

    /// Steps every parameter `grads` holds a gradient for (the member's own).
    fn step(&mut self, model: &mut LlamaModel, grads: &[Option<Matrix>], lr: f32) {
        let mut updates = param_updates(model, grads);
        match self {
            Optim::Whole(opt) => opt.step(&mut updates, lr),
            Optim::PerParam { opts, .. } => {
                assert_eq!(opts.len(), updates.len(), "a parameter has no gradient");
                for (opt, update) in opts.iter_mut().zip(&mut updates) {
                    opt.step(std::slice::from_mut(update), lr);
                }
            }
        }
    }

    /// Publishes this member's state for the leader to [`Self::assemble`].
    fn gather(&self, cells: &[Mutex<ParamCell>]) {
        match self {
            Optim::Whole(opt) => lock(&cells[0]).saved = opt.state_save(),
            Optim::PerParam { first, opts, .. } => {
                for (cell, opt) in cells[*first..].iter().zip(opts) {
                    lock(cell).saved = opt.state_save();
                }
            }
        }
    }

    /// A checkpoint's optimizer section from what every member gathered:
    /// the optimizer's own bytes, or the per-parameter framing.
    fn assemble(&self, cells: &[Mutex<ParamCell>]) -> Result<Vec<u8>, String> {
        let take =
            |cell: &Mutex<ParamCell>| std::mem::replace(&mut lock(cell).saved, Ok(Vec::new()));
        match self {
            Optim::Whole(_) => take(&cells[0]),
            Optim::PerParam { .. } => {
                let blobs: Result<Vec<_>, _> = cells.iter().map(take).collect();
                Ok(pack_opt_blobs(&blobs?))
            }
        }
    }

    /// Loads an optimizer section. An empty one is fresh state; one that
    /// does not load is reported and survived with fresh state too (a
    /// partial per-parameter load must not outlive the error). Returns
    /// `false` only for the latter.
    fn load(&mut self, bytes: &[u8]) -> bool {
        let loaded = match self {
            Optim::Whole(opt) => opt.state_load(bytes),
            Optim::PerParam { n_opt, first, opts } => unpack_opt_blobs(bytes).and_then(|blobs| {
                if blobs.len() != *n_opt {
                    let found = blobs.len();
                    return Err(format!("{found} optimizer blobs, expected {n_opt}"));
                }
                let mut mine = opts.iter_mut().zip(&blobs[*first..]);
                mine.try_for_each(|(opt, blob)| opt.state_load(blob))
            }),
        };
        if let Err(e) = &loaded {
            if !bytes.is_empty() {
                eprintln!("warning: optimizer state not restored ({e}); starting fresh");
            }
            self.for_each(|opt| opt.reset_state());
        }
        loaded.is_ok() || bytes.is_empty()
    }
}

// ---------------------------------------------------------------------------
// A run and its rounds.

/// One slot's loss and per-model-parameter gradients.
type SlotOut = (f32, Vec<Option<Matrix>>);

/// What the owner of one optimizer parameter publishes about it.
struct ParamCell {
    /// `(squared gradient norm, any non-finite entry)`, for the guard.
    stat: (f64, bool),
    /// The post-step value, for the other members.
    value: Option<Matrix>,
    /// The optimizer state, for a checkpoint or floor.
    saved: Result<Vec<u8>, String>,
}

/// Everything the members of a round share: what the run fixed before its
/// first round, and the round's membership and exchange tables.
struct Run<'a> {
    cfg: &'a TrainConfig,
    res: &'a ResilienceConfig,
    obs: &'a Obs,
    schedule: LrSchedule,
    /// Model-parameter index of each optimizer (trainable) parameter.
    opt_params: Vec<usize>,
    /// The fault plan minus the replica kills, which are `(step, member)`.
    faults: FaultPlan,
    kills: Vec<(usize, usize)>,
    /// The run's log; the leader writes it.
    log: Mutex<RunLog>,
    /// Ids of the round's members, leader first.
    members: Vec<usize>,
    barrier: PoisonBarrier,
    /// The slots of the step in flight (owners `take` their parameters'
    /// gradients). A step is `virtual_slots × grad_accum` slots of the slot
    /// batcher's batch size.
    slots: Vec<Mutex<Option<SlotOut>>>,
    cells: Vec<Mutex<ParamCell>>,
    /// The newest in-memory floor.
    floor: Mutex<Option<TrainState>>,
    /// Set when a floor was due and the optimizer could not save its state:
    /// the run goes on without one, and a fault that would roll back skips.
    floorless: AtomicBool,
    /// `victim_id + 1` once a member died this round; 0 = none.
    killed: AtomicUsize,
}

impl Run<'_> {
    fn is_team(&self) -> bool {
        self.members.len() > 1
    }

    fn rolls_back(&self) -> bool {
        let policy = self.res.policy;
        matches!(policy, Some(RecoveryPolicy::RollbackAndRetry { .. }))
    }

    /// The step the in-memory floor resumes at; 0 without one.
    fn floor_step(&self) -> usize {
        let floor = lock(&self.floor);
        floor.as_ref().map_or(0, |f| f.meta.step as usize)
    }

    /// Only a rollback policy, or a replica kill still planned (whose
    /// survivors will replay), holds a copy of the weights in memory.
    fn keeps_floor(&self) -> bool {
        self.rolls_back() || !self.kills.is_empty()
    }
}

/// One member of a round: its model and optimizer state, plus its replica
/// of the loop state.
struct Member<'a> {
    run: &'a Run<'a>,
    pos: usize,
    model: &'a mut LlamaModel,
    optim: Optim<'a>,
    /// Optimizer parameters this member owns.
    shard: Range<usize>,
    /// Slot-sized batcher.
    batcher: &'a mut LmBatcher,
    /// The run's handle on the leader, a disabled one elsewhere.
    obs: Obs,
    step: usize,
    start_step: usize,
    cursor: u64,
    merge_rng: Rng,
    detector: SpikeDetector,
    lr_scale: f32,
    faults: FaultPlan,
    consecutive_faults: usize,
    report: ResilienceReport,
}

impl<'a> Member<'a> {
    fn new(
        run: &'a Run<'a>,
        pos: usize,
        model: &'a mut LlamaModel,
        optim: Optim<'a>,
        shard: Range<usize>,
        batcher: &'a mut LmBatcher,
    ) -> Self {
        let leader_obs = if pos == 0 { run.obs } else { &Obs::disabled() };
        let mut member = Member {
            run,
            pos,
            model,
            optim,
            shard,
            obs: leader_obs.clone(),
            step: 0,
            start_step: 0,
            cursor: batcher.cursor(),
            batcher,
            merge_rng: Rng::seed_from_u64(0x4E10),
            detector: SpikeDetector::new(run.res.spike_window, run.res.spike_factor),
            lr_scale: 1.0,
            faults: run.faults.clone(),
            consecutive_faults: 0,
            report: ResilienceReport::default(),
        };
        // A round starts from its floor, counters and LR back-off included.
        if let Some(f) = lock(&run.floor).as_ref() {
            member.restore(f);
            member.start_step = member.step;
            member.lr_scale = f.meta.lr_scale;
            member.report = f.meta.report.clone();
            member.report.resumed_from_step = Some(f.meta.step);
        }
        member
    }

    /// Restores `floor`'s weights, optimizer state and replayable loop
    /// state. Counters and the LR back-off are the caller's business: a
    /// rollback keeps counting and backs off further.
    fn restore(&mut self, floor: &TrainState) {
        for (p, saved) in self.model.params.iter_mut().zip(&floor.model.params) {
            p.value.copy_from(&saved.value);
        }
        self.optim.load(&floor.optimizer);
        self.step = (floor.meta.step as usize).min(self.run.cfg.steps);
        self.cursor = floor.meta.data_cursor;
        if let Ok(words) = <[u64; 4]>::try_from(floor.meta.rng_state.as_slice()) {
            self.merge_rng = Rng::from_state(words, floor.meta.rng_spare);
        }
        self.detector.restore(&floor.meta.spike_window);
    }

    /// Captures "about to run `step`": every member contributes its
    /// optimizer state, then the leader writes the crash-safe checkpoint
    /// and/or refreshes the in-memory floor from the one assembled state.
    fn capture(&mut self, step: usize, to_disk: bool, to_floor: bool) -> Result<(), Poisoned> {
        let (run, res) = (self.run, self.run.res);
        self.optim.gather(&run.cells);
        run.barrier.wait()?;
        if self.pos != 0 {
            return Ok(());
        }
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
        let (model, mode) = (&*self.model, self.model.mode());
        let saved = self.optim.assemble(&run.cells);
        if let (true, Some(dir)) = (to_disk, &res.checkpoint_dir) {
            let written = saved.as_ref().map_err(String::clone).and_then(|optimizer| {
                let path = dir.join(checkpoint_file_name(step as u64));
                std::fs::create_dir_all(dir)
                    .and_then(|()| save_train_state(model, mode, &meta, optimizer, &path))
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
                    *lock(&run.floor) = Some(TrainState {
                        model,
                        mode,
                        meta,
                        optimizer,
                    });
                }
                Err(_) => run.floorless.store(true, Ordering::SeqCst),
            }
        }
        Ok(())
    }

    /// Combines this member's parameters' slot gradients by the fixed
    /// pairwise tree and scales by `1/V`; entries it does not own (or the
    /// loss does not reach) stay `None`.
    fn combine(&self) -> Vec<Option<Matrix>> {
        let slots = &self.run.slots;
        let mut grads: Vec<Option<Matrix>> = self.model.params.iter().map(|_| None).collect();
        for &mi in &self.run.opt_params[self.shard.clone()] {
            let parts: Vec<Matrix> = slots
                .iter()
                .filter_map(|s| lock(s).as_mut().expect("every slot is published").1[mi].take())
                .collect();
            if parts.is_empty() {
                continue;
            }
            let mut g = tree_combine(parts, |a, b| {
                a.add_assign(&b);
                b.recycle();
            });
            if slots.len() > 1 {
                g.scale_assign(1.0 / slots.len() as f32);
            }
            grads[mi] = Some(g);
        }
        grads
    }

    /// The guard's reduction: every member publishes its parameters'
    /// non-finite flags and (`norms`) squared gradient norms, and all of
    /// them fold the whole table in parameter order — so all get the same
    /// `(any non-finite, global norm)` and reach the same verdict.
    fn reduce(&self, grads: &[Option<Matrix>], norms: bool) -> Result<(bool, f32), Poisoned> {
        let run = self.run;
        for j in self.shard.clone() {
            let g = grads[run.opt_params[j]].as_ref();
            lock(&run.cells[j]).stat = g.map_or((0.0, false), |g| grad_stat(g, norms));
        }
        run.barrier.wait()?;
        let verdict = fold_stats(run.cells.iter().map(|c| lock(c).stat));
        // Nobody republishes while a slower member is still folding.
        run.barrier.wait()?;
        Ok(verdict)
    }

    /// `known`, or the global gradient norm reduced now.
    fn norm_of(&self, grads: &[Option<Matrix>], known: Option<f32>) -> Result<f32, Poisoned> {
        known.map_or_else(|| Ok(self.reduce(grads, true)?.1), Ok)
    }

    /// Runs steps until the configured count, an abort or a crash; `Err`
    /// when a member of the round died under it.
    #[allow(clippy::too_many_lines)]
    fn train(&mut self) -> Result<(), Poisoned> {
        let run = self.run;
        let (cfg, res, slots) = (run.cfg, run.res, run.slots.len());
        let my_id = run.members[self.pos];
        let slot_batch = self.batcher.batch();
        let loss_sample_every = (cfg.steps / 200).max(1);
        // Every member has restored from the floor once all are here; it
        // stays only for those who may have to return to it.
        if !run.keeps_floor() {
            run.barrier.wait()?;
            if self.pos == 0 {
                lock(&run.floor).take();
            }
        }
        while self.step < cfg.steps {
            let step = self.step;
            // A killed member dies *now*, publishing nothing; the others
            // unwind at their next barrier.
            if run.kills.contains(&(step, my_id)) {
                run.killed.store(my_id + 1, Ordering::SeqCst);
                run.barrier.poison();
                return Err(Poisoned);
            }
            self.obs.set_step(step);
            let step_started = Instant::now();
            let mut sample = PhaseSample::new();

            // Skipped at the step a round starts from: that file exists.
            let checkpoint_due = res.checkpoint_dir.is_some()
                && res.checkpoint_every > 0
                && step > 0
                && step != self.start_step
                && step.is_multiple_of(res.checkpoint_every);
            // A kept floor exists from the first step on; it then follows
            // a rollback policy's own cadence, else the team's checkpoints.
            let floor_due = run.keeps_floor()
                && !run.floorless.load(Ordering::SeqCst)
                && match (run.rolls_back(), lock(&run.floor).as_ref()) {
                    (_, None) => true,
                    (true, Some(f)) => step >= f.meta.step as usize + res.snapshot_every.max(1),
                    (false, Some(_)) => checkpoint_due,
                };
            if floor_due || checkpoint_due {
                sample.time(Phase::Checkpoint, || {
                    self.capture(step, checkpoint_due, floor_due)
                })?;
            }

            // Draw this member's slots; loss and gradients of each against
            // the synced weights. Forward and backward are timed apart.
            for s in slot_range(self.pos, run.members.len(), slots) {
                let (tokens, targets) = sample.time(Phase::BatchPrep, || {
                    self.batcher
                        .set_cursor(self.cursor + (s * slot_batch) as u64);
                    self.batcher.next_batch()
                });
                let (mut graph, loss_id, pnodes) = sample.time(Phase::Forward, || {
                    self.model.build_loss(&tokens, &targets, slot_batch)
                });
                let loss = graph.value(loss_id).get(0, 0);
                let grads = sample.time(Phase::Backward, || {
                    graph.backward(loss_id);
                    self.model.collect_grads(&graph, &pnodes)
                });
                drop(graph);
                *lock(&run.slots[s]) = Some((loss, grads));
            }
            self.cursor += (slots * slot_batch) as u64;
            run.barrier.wait()?;

            // The step's loss and this member's gradients: the same fixed
            // tree over slots for both.
            let slot_losses: Vec<f32> = run
                .slots
                .iter()
                .map(|s| lock(s).as_ref().expect("every slot is published").0)
                .collect();
            let mut loss = tree_combine(slot_losses, |a, b| *a += b) / slots as f32;
            let mut grads = sample.time(Phase::Optimizer, || self.combine());

            // Deterministic fault injection (tests only). Faults are
            // one-shot within a round: a rolled-back retry passes.
            match self.faults.take_at(step) {
                Some(FaultKind::NanGrad) => self.poison_first(&mut grads, f32::NAN),
                Some(FaultKind::InfGrad) => self.poison_first(&mut grads, f32::INFINITY),
                Some(FaultKind::LossSpike { factor }) => {
                    loss *= factor;
                    for g in grads.iter_mut().flatten() {
                        g.scale_assign(factor);
                    }
                }
                // Simulated kill -9: no final eval, no final checkpoint. A
                // replica kill the driver did not take is the lone member's.
                Some(FaultKind::Crash | FaultKind::ReplicaKill { .. }) => {
                    self.report.crashed = true;
                    break;
                }
                None => {}
            }

            // Guard: sentinels, then the configured clip. `norm` is the
            // global gradient norm while it is known for `grads` as they
            // stand; it is computed only for a clip or a sampled step.
            let guard_started = Instant::now();
            let sample_due = run.obs.sample_due();
            let want_norm = cfg.grad_clip.is_some() || sample_due;
            let (mut bad_grads, mut norm) = (false, None);
            if res.policy.is_some() || want_norm {
                let (bad, n) = self.reduce(&grads, want_norm)?;
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
                    self.obs.counter(&format!("sentinel_{kind}"), 1);
                }
                if let Some(&(_, kind)) = sentinels.iter().find(|s| s.0) {
                    self.consecutive_faults += 1;
                    let has_floor = lock(&run.floor).is_some();
                    let (policy, action) = match policy {
                        _ if self.consecutive_faults > res.max_consecutive_faults => {
                            (RecoveryPolicy::Abort, "abort")
                        }
                        RecoveryPolicy::Abort => (policy, "abort"),
                        RecoveryPolicy::ClipAndContinue => (policy, "clip"),
                        RecoveryPolicy::RollbackAndRetry { .. } if has_floor => {
                            (policy, "rollback")
                        }
                        // A rollback that faulted before any floor existed.
                        _ => (RecoveryPolicy::SkipStep, "skip"),
                    };
                    self.obs.emit(|| TraceEvent::Sentinel {
                        step,
                        kind: kind.to_string(),
                        action: action.to_string(),
                    });
                    match policy {
                        RecoveryPolicy::SkipStep => {
                            report.skipped_steps += 1;
                            self.step += 1;
                            continue;
                        }
                        RecoveryPolicy::Abort => {
                            report.aborted = true;
                            break;
                        }
                        RecoveryPolicy::ClipAndContinue => {
                            report.clipped_steps += 1;
                            sanitize_grads(&mut grads);
                            let repaired = self.norm_of(&grads, None)?;
                            clip_to(&mut grads, repaired, res.clip_norm);
                            norm = None;
                            // Fall through: apply the repaired update.
                        }
                        RecoveryPolicy::RollbackAndRetry { lr_backoff } => {
                            report.rollbacks += 1;
                            let floor = lock(&run.floor);
                            self.restore(floor.as_ref().expect("checked above"));
                            self.lr_scale *= lr_backoff;
                            continue;
                        }
                    }
                } else {
                    self.consecutive_faults = 0;
                }
            }
            if let Some(max_norm) = cfg.grad_clip {
                let pre_clip = self.norm_of(&grads, norm)?;
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
                    self.obs.counter("sentinel_clip_non_finite", 1);
                    self.obs.emit(|| TraceEvent::Sentinel {
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
            let lr = run.schedule.lr_at(step) * self.lr_scale;
            if sample_due {
                let grad_norm = self.norm_of(&grads, norm)?;
                self.obs.gauge("loss", f64::from(loss));
                self.obs.gauge("grad_norm", f64::from(grad_norm));
                self.obs.gauge("lr", f64::from(lr));
                self.obs.emit(|| TraceEvent::StepMetrics {
                    step,
                    loss,
                    grad_norm,
                    lr,
                });
            }

            // Per-parameter step, then the hooks that touch the weights:
            // quantize before anyone else sees them, merge once all have.
            let optimizer_started = Instant::now();
            self.optim.step(self.model, &grads, lr);
            drop(grads);
            if let Some(group) = cfg.quantize_weights {
                self.quantize_own(group);
            }
            if run.is_team() {
                for j in self.shard.clone() {
                    let updated = self.model.params[run.opt_params[j]].value.clone();
                    if let Some(old) = lock(&run.cells[j]).value.replace(updated) {
                        old.recycle();
                    }
                }
            }
            sample.add(Phase::Optimizer, ms_since(optimizer_started));
            run.barrier.wait()?;
            if run.is_team() {
                for (j, &mi) in run.opt_params.iter().enumerate() {
                    if !self.shard.contains(&j) {
                        let cell = lock(&run.cells[j]);
                        let value = cell.value.as_ref().expect("its owner published it");
                        self.model.params[mi].value.copy_from(value);
                    }
                }
            }
            // Every member merges its own synced copy with its own replica
            // of the merge RNG: same weights everywhere, nothing to send.
            let merge_due = |every: usize| every > 0 && (step + 1).is_multiple_of(every);
            if cfg.merge_every.is_some_and(merge_due) {
                self.model.merge_adapters(&mut self.merge_rng);
                self.optim.for_each(|opt| opt.reset_state());
            }

            self.detector.record(loss);
            let eval_due = cfg.eval_every > 0
                && (step + 1).is_multiple_of(cfg.eval_every)
                && step + 1 != cfg.steps;
            if self.pos == 0 {
                let mut log = lock(&run.log);
                if step.is_multiple_of(loss_sample_every) || step + 1 == cfg.steps {
                    log.train_losses.push((step, loss));
                }
                if eval_due {
                    let ppl = sample.time(Phase::Eval, || self.eval());
                    log.eval_ppls.extend(ppl.map(|ppl| (step + 1, ppl)));
                }
            }
            let total_ms = ms_since(step_started);
            if self.pos == 0 && cfg.record_step_times {
                lock(&run.log).step_times_ms.push(total_ms);
            }
            self.obs.record_step(&sample, total_ms);
            self.obs.emit(|| TraceEvent::StepPhases {
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
            // Owners overwrite their cells' values in their next step, which
            // must not race a slower member still copying out of them.
            run.barrier.wait()?;
            self.step += 1;
        }
        Ok(())
    }

    /// Poisons the first trainable gradient (its owner does).
    fn poison_first(&self, grads: &mut [Option<Matrix>], value: f32) {
        if let (0, Some(g)) = (self.shard.start, grads.iter_mut().flatten().next()) {
            g.set(0, 0, value);
        }
    }

    /// Q-GaLore-style INT8 round-trip of every weight matrix this member
    /// is the one to update: its shard, plus its copy of the frozen ones.
    fn quantize_own(&mut self, group: usize) {
        let mut j = 0;
        for p in self.model.params.iter_mut() {
            let own = !p.trainable || self.shard.contains(&j);
            j += usize::from(p.trainable);
            if own && p.kind != ParamKind::Norm {
                let q = apollo_quant::fake_quantize(&p.value, group);
                std::mem::replace(&mut p.value, q).recycle();
            }
        }
    }

    /// Held-out perplexity in chunks of the caller's batch size, which the
    /// slot batcher's is `grad_accum / slots` of.
    fn eval(&self) -> Option<f32> {
        let cfg = self.run.cfg;
        let chunk = self.batcher.batch() * self.run.slots.len() / cfg.grad_accum.max(1);
        eval_chunked(self.model, self.batcher, cfg.eval_seqs, chunk)
    }

    /// The epilogue of a round nobody died in: footprint, final checkpoint
    /// and final evaluation (a crash skips the last two).
    fn finish(&mut self) -> Result<(), Poisoned> {
        let (run, res) = (self.run, self.run.res);
        self.batcher.set_cursor(self.cursor);
        let ran = !self.report.crashed;
        if ran
            && res.checkpoint_dir.is_some()
            && res.checkpoint_every > 0
            && self.step != self.start_step
        {
            self.capture(self.step, true, false)?;
        }
        let mut log = lock(&run.log);
        self.optim.for_each(|opt| {
            log.state_elems += opt.state_elems();
            log.state_bytes += opt.state_bytes();
        });
        if self.pos == 0 {
            log.resilience = self.report.clone();
            if let Some(ppl) = ran.then(|| self.eval()).flatten() {
                log.final_ppl = ppl;
                log.eval_ppls.push((self.step, ppl));
            }
        }
        Ok(())
    }

    /// Trains and finishes; returns the step stopped before.
    fn run(mut self) -> usize {
        if self.train().is_ok() {
            let _ = self.finish();
        }
        self.step
    }
}

/// What a parameter's owner publishes about its gradient: `(squared norm —
/// 0 unless `norms` — , any non-finite entry)`.
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
// The driver: rounds, membership, resume.

/// Runs pre-training to completion: rounds of members over `layout`,
/// dropping a killed member and replaying from the team's floor. `batcher`
/// is the *slot* batcher; a one-member run advances it like a serial loop.
pub(crate) fn run(
    model: &mut LlamaModel,
    mut source: OptSource<'_>,
    batcher: &mut LmBatcher,
    layout: &DdpConfig,
    cfg: &TrainConfig,
    res: &ResilienceConfig,
    obs: &Obs,
) -> DdpRunLog {
    assert!(cfg.steps > 0, "need at least one step");
    let started = Instant::now();
    let mut faults = res.fault_plan.clone();
    // Replica events and `ddp.*` counters belong to the data-parallel
    // entry point; a whole-model run has one member and treats a kill of
    // it as a crash.
    let (optimizer, run_label, kills, ddp_obs) = match &mut source {
        OptSource::Whole(opt) => {
            opt.attach_observer(obs.clone());
            (opt.name(), opt.name(), Vec::new(), Obs::disabled())
        }
        OptSource::PerParam(make) => {
            let name = make(0).name();
            let label = format!("ddp×{} {name}", layout.replicas);
            (name, label, faults.take_replica_kills(), obs.clone())
        }
    };
    let per_param = matches!(source, OptSource::PerParam(_));
    let threads = per_param.then(|| layout.threads_per_replica.max(1));
    let slots = layout.virtual_slots * cfg.grad_accum.max(1);
    let trainable = |i: &usize| model.params[*i].trainable;
    let opt_params: Vec<usize> = (0..model.params.len()).filter(trainable).collect();
    let n_opt = opt_params.len();
    let cell = |_| ParamCell {
        stat: (0.0, false),
        value: None,
        saved: Ok(Vec::new()),
    };
    let mut run = Run {
        cfg,
        res,
        obs,
        schedule: LrSchedule::paper_default(cfg.lr, cfg.steps),
        opt_params,
        faults,
        kills,
        log: Mutex::new(RunLog {
            optimizer,
            model: model.config().name.clone(),
            train_losses: Vec::new(),
            eval_ppls: Vec::new(),
            final_ppl: f32::NAN,
            state_elems: 0,
            state_bytes: 0,
            wall_secs: 0.0,
            step_times_ms: Vec::new(),
            resilience: Default::default(),
        }),
        members: (0..layout.replicas).collect(),
        barrier: PoisonBarrier::new(layout.replicas),
        slots: (0..slots).map(|_| Mutex::new(None)).collect(),
        cells: (0..n_opt.max(1)).map(cell).map(Mutex::new).collect(),
        floor: Mutex::new(None),
        floorless: AtomicBool::new(false),
        killed: AtomicUsize::new(0),
    };
    if let (true, Some(dir)) = (res.resume, &res.checkpoint_dir) {
        // Members of a team must agree on whether the optimizer section
        // loads, so it is tried once here; a lone whole-model optimizer
        // finds out when it restores.
        let probe = |bytes: &[u8]| match &source {
            OptSource::Whole(_) => true,
            OptSource::PerParam(make) => Optim::per_param(*make, &run, 0..n_opt).load(bytes),
        };
        run.floor = Mutex::new(resume_floor(dir, model, probe));
    }
    let start_step = run.floor_step().min(cfg.steps);
    obs.set_step(start_step);
    // Baseline for the run-end pool counters (the pool is process-global).
    let pool_at_start = apollo_tensor::pool::stats();
    obs.emit(|| TraceEvent::RunStart {
        step: start_step,
        optimizer: run_label,
        model: model.config().name.clone(),
        steps: cfg.steps,
    });

    let mut ddp = DdpReport {
        replicas: layout.replicas,
        survivors: layout.replicas,
        virtual_slots: layout.virtual_slots,
        ..DdpReport::default()
    };
    let replica_events = |event: &str, step: usize, members: &[usize]| {
        for &m in members {
            ddp_obs.emit(|| TraceEvent::ReplicaEvent {
                step,
                replica: m,
                event: event.to_string(),
                replicas: members.len(),
            });
        }
    };
    let end_step = loop {
        // Every round starts from the floor, when there is one.
        let round_start = run.floor_step();
        ddp.rounds += 1;
        ddp_obs.counter("ddp.rounds", 1);
        ddp_obs.gauge("ddp.replicas", run.members.len() as f64);
        replica_events("start", round_start, &run.members);

        let end_step = if run.is_team() {
            let OptSource::PerParam(make) = &source else {
                unreachable!("a whole-model optimizer has exactly one member")
            };
            let elems = run
                .opt_params
                .iter()
                .map(|&mi| model.params[mi].value.len());
            let shards = shard_ranges(&elems.collect::<Vec<_>>(), run.members.len());
            let (run, model_at_start, slot_batcher) = (&run, &*model, &*batcher);
            let (out, trained) = std::thread::scope(|s| {
                let spawn = |(pos, shard): (usize, Range<usize>)| {
                    s.spawn(move || {
                        let _threads = threads.map(ThreadOverrideGuard::new);
                        let (mut model, mut batcher) =
                            (model_at_start.clone(), slot_batcher.clone());
                        let optim = Optim::per_param(*make, run, shard.clone());
                        let out =
                            Member::new(run, pos, &mut model, optim, shard, &mut batcher).run();
                        (out, model)
                    })
                };
                let handles: Vec<_> = shards.into_iter().enumerate().map(spawn).collect();
                let joined = handles.into_iter().map(|h| h.join());
                let mut outs: Vec<_> = joined.map(|o| o.expect("replica panicked")).collect();
                outs.swap_remove(0)
            });
            if run.killed.load(Ordering::SeqCst) == 0 {
                for (p, t) in model.params.iter_mut().zip(trained.params) {
                    std::mem::replace(&mut p.value, t.value).recycle();
                }
            }
            out
        } else {
            let _threads = threads.map(ThreadOverrideGuard::new);
            let optim = match &mut source {
                OptSource::Whole(opt) => Optim::Whole(&mut **opt),
                OptSource::PerParam(make) => Optim::per_param(*make, &run, 0..n_opt),
            };
            Member::new(&run, 0, model, optim, 0..n_opt, batcher).run()
        };
        ddp_obs.counter("ddp.steps", (end_step - round_start.min(end_step)) as u64);

        let victim = match run.killed.swap(0, Ordering::SeqCst) {
            0 => break end_step,
            id_plus_one => id_plus_one - 1,
        };
        // The survivors replay from the team's floor (none: the run had
        // not started). The replay regenerates every sample from the floor
        // on bit-identically; the ones before it exist nowhere else.
        run.members.retain(|&m| m != victim);
        run.kills.retain(|&(_, m)| m != victim);
        assert!(!run.members.is_empty(), "every replica was killed");
        run.barrier = PoisonBarrier::new(run.members.len());
        let resume_at = run.floor_step();
        let log = run.log.get_mut().expect("no member is running");
        log.train_losses.retain(|&(step, _)| step < resume_at);
        log.eval_ppls.retain(|&(step, _)| step <= resume_at);
        ddp.replica_kills += 1;
        ddp.survivors = run.members.len();
        ddp.rebalances += 1;
        ddp_obs.counter("ddp.replica_kills", 1);
        ddp_obs.counter("ddp.rebalances", 1);
        replica_events("kill", end_step, &[victim]);
        replica_events("rebalance", resume_at, &run.members);
    };
    replica_events("finish", end_step, &run.members);

    let wall_secs = started.elapsed().as_secs_f64();
    // Performance-runtime counters: thread-pool jobs/tasks this run, and
    // scratch-pool effectiveness across every thread (the freelists are
    // thread-local, the counters global) — printed by `--profile`.
    let pool = apollo_tensor::pool::stats();
    obs.counter("pool_jobs", pool.jobs.saturating_sub(pool_at_start.jobs));
    obs.counter(
        "pool_worker_tasks",
        pool.worker_tasks.saturating_sub(pool_at_start.worker_tasks),
    );
    obs.counter("pool_workers", pool.workers as u64);
    obs.counter(
        "scratch_pooled_buffers",
        apollo_tensor::scratch::pooled_buffers() as u64,
    );
    let scratch = apollo_tensor::scratch::stats();
    obs.counter("scratch_hits", scratch.hits);
    obs.counter("scratch_misses", scratch.misses);
    obs.gauge("scratch.retained_bytes", scratch.retained_bytes as f64);
    obs.gauge("scratch.hit_rate", scratch.hit_rate());
    obs.emit(|| TraceEvent::RunEnd {
        step: end_step,
        wall_secs,
    });
    if let Err(e) = obs.flush() {
        eprintln!("warning: trace flush failed ({e})");
    }
    let mut log = run.log.into_inner().expect("no member is running");
    log.wall_secs = wall_secs;
    DdpRunLog { log, ddp }
}

/// The newest valid checkpoint in `dir` as the floor to resume `model`
/// from, refused with a warning — no panic, no weight installed — unless it
/// holds exactly `model`'s parameters (names, order and shapes). `probe`
/// vets the optimizer section; a rejected one is dropped and the optimizer
/// starts fresh.
fn resume_floor(
    dir: &std::path::Path,
    model: &LlamaModel,
    probe: impl FnOnce(&[u8]) -> bool,
) -> Option<TrainState> {
    let (path, mut state) = latest_valid_checkpoint(dir).ok()??;
    fn manifest(m: &LlamaModel) -> impl Iterator<Item = (&String, (usize, usize))> {
        m.params.iter().map(|p| (&p.name, p.value.shape()))
    }
    if !manifest(&state.model).eq(manifest(model)) {
        eprintln!(
            "warning: {} holds the parameters of a different model ({}); ignored",
            path.display(),
            state.model.config().name
        );
        return None;
    }
    if !probe(&state.optimizer) {
        state.optimizer.clear();
    }
    Some(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global norm as [`Member::reduce`] publishes and folds it, then
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
