//! Fault-injection integration tests: crash + bit-exact resume, recovery
//! policies under injected NaN/Inf gradients and loss spikes, checkpoint
//! corruption fallback, and per-optimizer state round-trips.

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_optim::{
    AdamMini, AdamW, AdamWChannelwise, Apollo, Fira, Flora, GaLore, Method, Optimizer, ParamUpdate,
    ScaleGranularity, Sgd, SgdMomentum,
};
use apollo_tensor::{Matrix, Rng};
use apollo_train::{
    checkpoint_file_name, latest_valid_checkpoint, pretrain_resilient, FaultKind, FaultPlan,
    RecoveryPolicy, ResilienceConfig, TrainConfig,
};

fn setup(seed: u64) -> (LlamaModel, LmBatcher) {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(seed);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let batcher = LmBatcher::new(corpus, 2, cfg.max_seq);
    (model, batcher)
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("apollo-resilience-it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_params_bit_equal(a: &LlamaModel, b: &LlamaModel) {
    for (pa, pb) in a.params.iter().zip(&b.params) {
        assert_eq!(pa.name, pb.name);
        let (xa, xb) = (pa.value.as_slice(), pb.value.as_slice());
        assert_eq!(xa.len(), xb.len(), "{}", pa.name);
        for (i, (x, y)) in xa
            .iter()
            .zip(xb)
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "param {} diverges at element {i}: {x} vs {y}",
                pa.name
            );
        }
    }
}

#[test]
fn crash_then_resume_is_bit_exact() {
    let steps = 20;
    let cfg = TrainConfig::quick(steps);

    // Reference: one uninterrupted run.
    let (mut ref_model, mut ref_batcher) = setup(500);
    let mut ref_opt = Apollo::new(4, 10);
    let ref_log = pretrain_resilient(
        &mut ref_model,
        &mut ref_opt,
        &mut ref_batcher,
        &cfg,
        &ResilienceConfig::default(),
    );

    // Crashed run: checkpoints every 5 steps, killed at step 13.
    let dir = fresh_dir("crash-resume");
    let (mut model, mut batcher) = setup(500);
    let mut opt = Apollo::new(4, 10);
    let res = ResilienceConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 5,
        fault_plan: FaultPlan::new().inject(13, FaultKind::Crash),
        ..ResilienceConfig::default()
    };
    let crashed = pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);
    assert!(crashed.resilience.crashed);
    assert!(crashed.final_ppl.is_nan(), "a crash skips the final eval");
    assert!(dir.join(checkpoint_file_name(10)).exists());

    // Resume in a fresh process image: new model/optimizer/batcher.
    let (mut model2, mut batcher2) = setup(500);
    let mut opt2 = Apollo::new(4, 10);
    let res2 = ResilienceConfig {
        checkpoint_dir: Some(dir),
        checkpoint_every: 5,
        resume: true,
        ..ResilienceConfig::default()
    };
    let resumed = pretrain_resilient(&mut model2, &mut opt2, &mut batcher2, &cfg, &res2);
    assert_eq!(resumed.resilience.resumed_from_step, Some(10));

    assert_params_bit_equal(&ref_model, &model2);
    assert_eq!(ref_log.final_ppl.to_bits(), resumed.final_ppl.to_bits());
}

#[test]
fn resume_falls_back_past_corrupt_and_truncated_checkpoints() {
    let steps = 20;
    let cfg = TrainConfig::quick(steps);
    let dir = fresh_dir("corrupt-fallback");

    let (mut ref_model, mut ref_batcher) = setup(501);
    let mut ref_opt = AdamW::new();
    pretrain_resilient(
        &mut ref_model,
        &mut ref_opt,
        &mut ref_batcher,
        &cfg,
        &ResilienceConfig::default(),
    );

    let (mut model, mut batcher) = setup(501);
    let mut opt = AdamW::new();
    let res = ResilienceConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 5,
        keep_last: 10,
        fault_plan: FaultPlan::new().inject(17, FaultKind::Crash),
        ..ResilienceConfig::default()
    };
    pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);

    // Damage the two newest checkpoints: the scanner must fall back to
    // step 5 and the run must still finish bit-identically.
    let step15 = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(checkpoint_file_name(15)))
        .unwrap();
    step15
        .set_len(step15.metadata().unwrap().len() / 2)
        .unwrap();
    let step10 = dir.join(checkpoint_file_name(10));
    let mut bytes = std::fs::read(&step10).unwrap();
    bytes[2000] ^= 1 << 4;
    std::fs::write(&step10, bytes).unwrap();
    let (path, state) = latest_valid_checkpoint(&dir).unwrap().unwrap();
    assert_eq!(path, dir.join(checkpoint_file_name(5)));
    assert_eq!(state.meta.step, 5);

    let (mut model2, mut batcher2) = setup(501);
    let mut opt2 = AdamW::new();
    let res2 = ResilienceConfig {
        checkpoint_dir: Some(dir),
        checkpoint_every: 5,
        keep_last: 10,
        resume: true,
        ..ResilienceConfig::default()
    };
    let resumed = pretrain_resilient(&mut model2, &mut opt2, &mut batcher2, &cfg, &res2);
    assert_eq!(resumed.resilience.resumed_from_step, Some(5));
    assert_params_bit_equal(&ref_model, &model2);
}

#[test]
fn skip_step_policy_survives_nan_and_inf_gradients() {
    let cfg = TrainConfig::quick(30);
    let (mut model, mut batcher) = setup(502);
    let mut opt = AdamW::new();
    let res = ResilienceConfig {
        policy: Some(RecoveryPolicy::SkipStep),
        fault_plan: FaultPlan::new()
            .inject(6, FaultKind::NanGrad)
            .inject(12, FaultKind::InfGrad),
        ..ResilienceConfig::default()
    };
    let log = pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);
    assert_eq!(log.resilience.non_finite_grads, 2);
    assert_eq!(log.resilience.skipped_steps, 2);
    assert!(!log.resilience.aborted);
    assert!(log.final_ppl.is_finite());
    assert!(model.params.iter().all(|p| p.value.all_finite()));
}

#[test]
fn clip_and_continue_repairs_the_gradient() {
    let cfg = TrainConfig::quick(30);
    let (mut model, mut batcher) = setup(503);
    let mut opt = AdamW::new();
    let res = ResilienceConfig {
        policy: Some(RecoveryPolicy::ClipAndContinue),
        fault_plan: FaultPlan::new().inject(8, FaultKind::NanGrad),
        ..ResilienceConfig::default()
    };
    let log = pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);
    assert_eq!(log.resilience.non_finite_grads, 1);
    assert_eq!(log.resilience.clipped_steps, 1);
    assert_eq!(log.resilience.skipped_steps, 0);
    assert!(log.final_ppl.is_finite());
    assert!(model.params.iter().all(|p| p.value.all_finite()));
}

#[test]
fn rollback_and_retry_recovers_with_lr_backoff() {
    let cfg = TrainConfig::quick(30);
    let (mut model, mut batcher) = setup(504);
    let mut opt = Apollo::new(4, 10);
    let res = ResilienceConfig {
        policy: Some(RecoveryPolicy::RollbackAndRetry { lr_backoff: 0.5 }),
        snapshot_every: 5,
        fault_plan: FaultPlan::new().inject(12, FaultKind::NanGrad),
        ..ResilienceConfig::default()
    };
    let log = pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);
    assert_eq!(log.resilience.non_finite_grads, 1);
    assert_eq!(log.resilience.rollbacks, 1);
    assert!(!log.resilience.aborted);
    assert!(log.final_ppl.is_finite());
    assert!(model.params.iter().all(|p| p.value.all_finite()));
}

#[test]
fn spike_detector_flags_injected_spike_and_skips_it() {
    let cfg = TrainConfig::quick(30);
    let (mut model, mut batcher) = setup(505);
    let mut opt = AdamW::new();
    let res = ResilienceConfig {
        policy: Some(RecoveryPolicy::SkipStep),
        spike_window: 8,
        spike_factor: 3.0,
        fault_plan: FaultPlan::new().inject(15, FaultKind::LossSpike { factor: 100.0 }),
        ..ResilienceConfig::default()
    };
    let log = pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);
    assert_eq!(log.resilience.loss_spikes, 1);
    assert_eq!(log.resilience.skipped_steps, 1);
    // The spiked loss never entered the log as an accepted sample of a
    // post-recovery step's baseline; training still converged.
    assert!(log.final_ppl.is_finite());
}

#[test]
fn abort_policy_stops_the_run() {
    let cfg = TrainConfig::quick(30);
    let (mut model, mut batcher) = setup(506);
    let mut opt = AdamW::new();
    let res = ResilienceConfig {
        policy: Some(RecoveryPolicy::Abort),
        fault_plan: FaultPlan::new().inject(4, FaultKind::NanGrad),
        ..ResilienceConfig::default()
    };
    let log = pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);
    assert!(log.resilience.aborted);
    // Aborted after 4 clean steps: the loss log stops there.
    assert!(log.train_losses.iter().all(|&(s, _)| s < 4));
}

#[test]
fn consecutive_fault_limit_aborts_even_under_skip() {
    let cfg = TrainConfig::quick(30);
    let (mut model, mut batcher) = setup(507);
    let mut opt = AdamW::new();
    let mut plan = FaultPlan::new();
    for step in 5..15 {
        plan = plan.inject(step, FaultKind::NanGrad);
    }
    let res = ResilienceConfig {
        policy: Some(RecoveryPolicy::SkipStep),
        max_consecutive_faults: 3,
        fault_plan: plan,
        ..ResilienceConfig::default()
    };
    let log = pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);
    assert!(log.resilience.aborted, "a fault storm must abort the run");
    assert_eq!(log.resilience.skipped_steps, 3);
}

#[test]
fn a_spike_that_recurs_after_every_rollback_aborts_the_run() {
    // `apollo pretrain --model test-tiny --optimizer apollo --steps 16
    // --batch 4 --seed 7 --lr 0.3 --recovery rollback --spike-factor 1.0`:
    // the step-15 loss spikes again after every rollback to step 10. The
    // replayed steps 10–14 are clean, but they are not past the fault, so
    // they must not reset the consecutive-fault count; if they did, the run
    // would roll back forever. The run goes on a thread of its own so that
    // a hang fails the test instead of stalling it.
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let cfg = ModelConfig::test_tiny();
        let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut Rng::seed_from_u64(7));
        let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
        let mut batcher = LmBatcher::new(corpus, 4, cfg.max_seq);
        let method = Method::parse("apollo", cfg.default_rank()).unwrap();
        let mut opt = method
            .build(Method::mini_alpha(cfg.hidden), 1.0, None)
            .unwrap();
        let train = TrainConfig {
            lr: 0.3,
            eval_every: 3,
            ..TrainConfig::quick(16)
        };
        let res = ResilienceConfig {
            policy: Some(RecoveryPolicy::RollbackAndRetry { lr_backoff: 0.5 }),
            spike_factor: 1.0,
            ..ResilienceConfig::default()
        };
        let log = pretrain_resilient(&mut model, opt.as_mut(), &mut batcher, &train, &res);
        tx.send((log.resilience, res.max_consecutive_faults))
            .unwrap();
    });
    let (report, limit) = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("rollback-and-retry never ended");
    handle.join().unwrap();
    assert!(report.aborted, "{report:?}");
    assert_eq!(report.loss_spikes, limit + 1, "{report:?}");
    assert_eq!(report.rollbacks, limit, "{report:?}");
}

// ---------------------------------------------------------------------------
// Optimizer state round-trips: save, reload into a fresh optimizer, and
// verify the continued trajectory is bit-identical.

fn quad_updates<'a>(w: &'a mut Matrix, g: &'a Matrix) -> [ParamUpdate<'a>; 1] {
    [ParamUpdate {
        name: "w",
        value: w,
        grad: g,
        projectable: true,
    }]
}

/// Steps `opt` on a deterministic quadratic for `n` steps starting from
/// `w`; returns the final weights.
fn drive(opt: &mut dyn Optimizer, w: &mut Matrix, n: usize) {
    for k in 0..n {
        let g = w.clone().scale(1.0 + 0.1 * (k % 3) as f32);
        let mut updates = quad_updates(w, &g);
        opt.step(&mut updates, 0.01);
    }
}

fn assert_roundtrip_continues_identically(mut make: impl FnMut() -> Box<dyn Optimizer>) {
    let mut rng = Rng::seed_from_u64(99);
    let w0 = Matrix::randn(8, 16, &mut rng);

    // Reference: 12 uninterrupted steps.
    let mut opt_a = make();
    let mut w_a = w0.clone();
    drive(opt_a.as_mut(), &mut w_a, 12);

    // Save after 6 steps, restore into a brand-new optimizer, continue.
    let mut opt_b = make();
    let mut w_b = w0.clone();
    drive(opt_b.as_mut(), &mut w_b, 6);
    let bytes = opt_b
        .state_save()
        .unwrap_or_else(|e| panic!("{}: {e}", opt_b.name()));
    let mut opt_c = make();
    opt_c
        .state_load(&bytes)
        .unwrap_or_else(|e| panic!("{}: {e}", opt_c.name()));
    drive(opt_c.as_mut(), &mut w_b, 6);

    let name = opt_c.name();
    for (x, y) in w_a.as_slice().iter().zip(w_b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{name} diverged after reload");
    }
}

#[test]
fn every_optimizer_roundtrips_state_bit_exactly() {
    let makes: Vec<Box<dyn FnMut() -> Box<dyn Optimizer>>> = vec![
        Box::new(|| Box::new(AdamW::new())),
        Box::new(|| Box::new(AdamWChannelwise::new())),
        Box::new(|| Box::new(Sgd::new())),
        Box::new(|| Box::new(SgdMomentum::new(0.9))),
        Box::new(|| Box::new(AdamMini::new())),
        Box::new(|| Box::new(Apollo::new(4, 5))),
        Box::new(|| Box::new(Apollo::new(4, 5).with_granularity(ScaleGranularity::Tensor))),
        Box::new(|| Box::new(GaLore::new(4, 5))),
        Box::new(|| Box::new(GaLore::new(4, 5).with_random_projection())),
        Box::new(|| Box::new(Fira::new(4, 5))),
        Box::new(|| Box::new(Flora::new(4, 5))),
    ];
    for make in makes {
        assert_roundtrip_continues_identically(make);
    }
}

#[test]
fn state_load_rejects_the_wrong_optimizer() {
    let mut w = Matrix::full(4, 4, 1.0);
    let mut adamw = AdamW::new();
    drive(&mut adamw, &mut w, 2);
    let bytes = adamw.state_save().unwrap();
    let mut sgd = Sgd::new();
    let err = sgd.state_load(&bytes).unwrap_err();
    assert!(err.contains("AdamW") && err.contains("SGD"), "error: {err}");
}

#[test]
fn truncated_optimizer_state_is_a_descriptive_error() {
    let mut w = Matrix::full(4, 4, 1.0);
    let mut opt = Apollo::new(2, 5);
    drive(&mut opt, &mut w, 3);
    let bytes = opt.state_save().unwrap();
    let mut fresh = Apollo::new(2, 5);
    let err = fresh.state_load(&bytes[..bytes.len() - 7]).unwrap_err();
    assert!(!err.is_empty());
    // The failed load must not have clobbered the fresh state.
    assert_eq!(fresh.state_elems(), 0);
}
