//! Training resilience: step sentinels, recovery policies, and a
//! deterministic fault-injection harness.
//!
//! Large pre-training runs fail in practice — loss spikes, NaN/Inf
//! gradients from fp16 overflow, machine crashes. The paper's 7B runs
//! (Section 5.4) span days of wall-clock; this module gives the
//! reproduction the same operational armor at proxy scale:
//!
//! - **Sentinels** watch every step for non-finite losses/gradients and
//!   for loss spikes against a rolling window ([`SpikeDetector`]).
//! - A [`RecoveryPolicy`] decides what happens when a sentinel fires.
//! - [`ResilienceReport`] counts every intervention so runs stay auditable.
//! - [`FaultPlan`] injects faults at exact steps, so integration tests can
//!   prove recovery and bit-exact resume deterministically.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// What to do when a step sentinel (non-finite loss/gradient or loss
/// spike) fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Drop the batch: no parameter update this step, move on.
    SkipStep,
    /// Zero non-finite gradient entries, clip the global norm to 1.0, then
    /// step.
    ClipAndContinue,
    /// Restore the last in-memory snapshot, scale the learning rate down
    /// by `lr_backoff`, and replay from the snapshot step.
    RollbackAndRetry {
        /// Multiplier applied to the LR on every rollback (e.g. 0.5).
        lr_backoff: f32,
    },
    /// Stop training immediately and report.
    Abort,
}

/// Configuration for the resilient training loop.
///
/// The default has every feature off: no sentinels, no checkpoints, no
/// faults — [`crate::pretrain`] under the default config is step-for-step
/// identical to the plain loop.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Recovery policy; `None` disables all sentinels.
    pub policy: Option<RecoveryPolicy>,
    /// Rolling-window length for the spike detector.
    pub spike_window: usize,
    /// A loss counts as a spike when it exceeds `spike_factor ×` the
    /// rolling mean.
    pub spike_factor: f32,
    /// How often (in steps) `RollbackAndRetry` refreshes its in-memory
    /// snapshot.
    pub snapshot_every: usize,
    /// Consecutive faulted steps tolerated before the run aborts
    /// regardless of policy (guards against a permanently-poisoned state).
    /// A rollback's replay of the clean steps before the last fault does
    /// not end the run of faults; only a clean step past it does.
    pub max_consecutive_faults: usize,
    /// Directory for crash-safe checkpoints; `None` disables them.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Write a checkpoint every this many steps (0 = only the final one).
    pub checkpoint_every: usize,
    /// Retain at most this many periodic checkpoints (oldest pruned).
    pub keep_last: usize,
    /// Resume from the newest valid checkpoint in `checkpoint_dir`.
    pub resume: bool,
    /// Deterministic fault injection for tests.
    pub fault_plan: FaultPlan,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            policy: None,
            spike_window: 16,
            spike_factor: 3.0,
            snapshot_every: 10,
            max_consecutive_faults: 8,
            checkpoint_dir: None,
            checkpoint_every: 0,
            keep_last: 3,
            resume: false,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Per-run resilience audit: how often each sentinel fired and what the
/// policy did about it. Serialized into [`crate::RunLog`] and into every
/// checkpoint, so counters survive a resume.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Steps whose gradients contained NaN/Inf.
    pub non_finite_grads: usize,
    /// Steps whose training loss was NaN/Inf.
    pub non_finite_loss: usize,
    /// Steps flagged by the rolling-window spike detector.
    pub loss_spikes: usize,
    /// Steps dropped by [`RecoveryPolicy::SkipStep`] (or degraded rollback).
    pub skipped_steps: usize,
    /// Steps zeroed because the global gradient norm itself was NaN/Inf at
    /// clip time (the latent-NaN path: `norm > max_norm` is false for NaN,
    /// so the old code silently fed the poisoned gradients to the
    /// optimizer).
    pub clip_nonfinite_steps: usize,
    /// Steps repaired by [`RecoveryPolicy::ClipAndContinue`].
    pub clipped_steps: usize,
    /// Snapshot restores performed by [`RecoveryPolicy::RollbackAndRetry`].
    pub rollbacks: usize,
    /// Whether the run stopped early (policy `Abort` or fault-limit hit).
    pub aborted: bool,
    /// Whether a [`FaultKind::Crash`] terminated the run mid-loop.
    pub crashed: bool,
    /// Checkpoints successfully written.
    pub checkpoints_written: usize,
    /// Checkpoint writes that failed (run continues).
    pub checkpoint_errors: usize,
    /// The step a resumed run restarted from, if any.
    pub resumed_from_step: Option<u64>,
}

impl ResilienceReport {
    /// True when no sentinel fired and nothing was skipped or rolled back.
    pub fn is_clean(&self) -> bool {
        self.non_finite_grads == 0
            && self.non_finite_loss == 0
            && self.loss_spikes == 0
            && self.skipped_steps == 0
            && self.clip_nonfinite_steps == 0
            && self.clipped_steps == 0
            && self.rollbacks == 0
            && !self.aborted
            && !self.crashed
    }
}

/// Rolling-window loss-spike detector.
///
/// A loss is a spike when it exceeds `factor ×` the mean of the last
/// `window` *accepted* losses. Spiky or non-finite losses are never
/// recorded, so one spike cannot inflate the baseline and mask the next.
/// The detector stays silent until it has [`Self::MIN_SAMPLES`] samples.
#[derive(Debug, Clone)]
pub struct SpikeDetector {
    window: VecDeque<f32>,
    cap: usize,
    factor: f32,
}

impl SpikeDetector {
    /// Samples required before the detector starts flagging.
    pub const MIN_SAMPLES: usize = 4;

    /// Creates a detector over the last `cap` losses with threshold
    /// `factor` (both clamped to sane minimums).
    pub fn new(cap: usize, factor: f32) -> Self {
        SpikeDetector {
            window: VecDeque::new(),
            cap: cap.max(Self::MIN_SAMPLES),
            factor: factor.max(1.0),
        }
    }

    /// Whether `loss` spikes above the rolling mean. Non-finite losses are
    /// the caller's concern (they trip the non-finite sentinel first).
    pub fn is_spike(&self, loss: f32) -> bool {
        if self.window.len() < Self::MIN_SAMPLES || !loss.is_finite() {
            return false;
        }
        let mean: f32 = self.window.iter().sum::<f32>() / self.window.len() as f32;
        mean > 0.0 && loss > self.factor * mean
    }

    /// Records an accepted (finite, non-spike) loss.
    pub fn record(&mut self, loss: f32) {
        if !loss.is_finite() {
            return;
        }
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back(loss);
    }

    /// Window contents, oldest first (for checkpointing).
    pub fn window(&self) -> Vec<f32> {
        self.window.iter().copied().collect()
    }

    /// Restores a window saved by [`Self::window`].
    pub fn restore(&mut self, values: &[f32]) {
        self.window.clear();
        for &v in values.iter().rev().take(self.cap).rev() {
            self.record(v);
        }
    }
}

/// A deterministic fault to inject at a specific step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Poison the first trainable gradient with a NaN entry.
    NanGrad,
    /// Poison the first trainable gradient with an Inf entry.
    InfGrad,
    /// Multiply the observed loss (and gradients) by `factor`, simulating
    /// a data-induced spike.
    LossSpike {
        /// Multiplier applied to the loss and gradients.
        factor: f32,
    },
    /// Terminate the loop immediately — no final checkpoint, no final
    /// eval — as if the process was killed.
    Crash,
}

/// A schedule of [`FaultKind`]s keyed by step, for reproducible failure
/// testing. Empty by default (no faults).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault at `step` (builder-style).
    #[must_use]
    pub fn inject(mut self, step: usize, kind: FaultKind) -> Self {
        self.faults.push((step, kind));
        self
    }

    /// Removes and returns the fault scheduled for `step`. Faults are
    /// transient: once consumed they do not re-fire, so a rolled-back
    /// retry of the same step succeeds (matching a hardware glitch, not a
    /// permanently-poisoned input).
    pub fn take_at(&mut self, step: usize) -> Option<FaultKind> {
        let i = self.faults.iter().position(|(s, _)| *s == step)?;
        Some(self.faults.remove(i).1)
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_is_silent_during_warmup() {
        let mut d = SpikeDetector::new(8, 2.0);
        for _ in 0..SpikeDetector::MIN_SAMPLES - 1 {
            d.record(1.0);
        }
        assert!(!d.is_spike(100.0), "must not fire before MIN_SAMPLES");
        d.record(1.0);
        assert!(d.is_spike(100.0));
    }

    #[test]
    fn detector_flags_only_above_factor() {
        let mut d = SpikeDetector::new(4, 3.0);
        for _ in 0..4 {
            d.record(2.0);
        }
        assert!(!d.is_spike(5.9));
        assert!(d.is_spike(6.1));
    }

    #[test]
    fn spikes_are_not_recorded_into_the_baseline() {
        let mut d = SpikeDetector::new(4, 2.0);
        for _ in 0..4 {
            d.record(1.0);
        }
        // The caller only records accepted losses, so a run of spikes
        // keeps the baseline at 1.0 and every one of them is flagged.
        for _ in 0..10 {
            assert!(d.is_spike(10.0));
        }
        assert_eq!(d.window(), vec![1.0; 4]);
    }

    #[test]
    fn detector_ignores_non_finite() {
        let mut d = SpikeDetector::new(4, 2.0);
        for _ in 0..4 {
            d.record(1.0);
        }
        d.record(f32::NAN);
        assert_eq!(d.window().len(), 4);
        assert!(!d.is_spike(f32::NAN));
        assert!(!d.is_spike(f32::INFINITY));
    }

    #[test]
    fn window_roundtrips_through_restore() {
        let mut d = SpikeDetector::new(4, 2.0);
        for i in 0..6 {
            d.record(i as f32);
        }
        let saved = d.window();
        assert_eq!(saved, vec![2.0, 3.0, 4.0, 5.0]);
        let mut e = SpikeDetector::new(4, 2.0);
        e.restore(&saved);
        assert_eq!(e.window(), saved);
    }

    #[test]
    fn fault_plan_lookup_and_default() {
        let mut plan = FaultPlan::new()
            .inject(3, FaultKind::NanGrad)
            .inject(7, FaultKind::Crash);
        assert_eq!(plan.take_at(4), None);
        assert_eq!(plan.take_at(7), Some(FaultKind::Crash));
        assert_eq!(plan.take_at(3), Some(FaultKind::NanGrad));
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn faults_are_consumed_once() {
        let mut plan = FaultPlan::new().inject(3, FaultKind::NanGrad);
        assert_eq!(plan.take_at(3), Some(FaultKind::NanGrad));
        assert_eq!(plan.take_at(3), None, "a taken fault must not re-fire");
        assert!(plan.is_empty());
    }
}
