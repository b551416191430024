//! One pre-training pipeline: the serial entry points, gradient
//! accumulation and the data-parallel driver are the same arithmetic, so a
//! run through one must land on the other's bits.

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_obs::Obs;
use apollo_optim::{AdamW, Apollo, Optimizer, ParamUpdate};
use apollo_tensor::Rng;
use apollo_train::{
    checkpoint_file_name, load_train_state, pretrain_ddp, pretrain_resilient, DdpConfig, FaultKind,
    FaultPlan, OptimizerFactory, RecoveryPolicy, ResilienceConfig, RunLog, TrainConfig,
};

const STEPS: usize = 12;
const APOLLO_SEED: u64 = 0xA901_1000;

fn setup_as(cfg: &ModelConfig, mode: LinearMode, batch: usize) -> (LlamaModel, LmBatcher) {
    let model = LlamaModel::new(cfg, mode, &mut Rng::seed_from_u64(7));
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    (model, LmBatcher::new(corpus, batch, cfg.max_seq))
}

fn setup(batch: usize) -> (LlamaModel, LmBatcher) {
    setup_as(&ModelConfig::test_tiny(), LinearMode::Dense, batch)
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("apollo-one-loop-it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The whole-model optimizer of the serial entry points and the
/// per-parameter factory of the data-parallel one, for the same method:
/// APOLLO derives parameter `i`'s projector seed as `seed + i` either way.
fn optimizers(name: &str) -> (Box<dyn Optimizer>, Box<OptimizerFactory>) {
    match name {
        "adamw" => (Box::new(AdamW::new()), Box::new(|_| Box::new(AdamW::new()))),
        "apollo" => (
            Box::new(Apollo::new(2, 5).with_seed(APOLLO_SEED)),
            Box::new(|i| Box::new(Apollo::new(2, 5).with_seed(APOLLO_SEED + i as u64))),
        ),
        other => panic!("no optimizer `{other}`"),
    }
}

fn quick(steps: usize) -> TrainConfig {
    TrainConfig {
        eval_every: 4,
        ..TrainConfig::quick(steps)
    }
}

/// What two runs of the same arithmetic must agree on, bit for bit.
#[derive(Debug, PartialEq)]
struct Bits {
    losses: Vec<(usize, u32)>,
    weights: Vec<Vec<u32>>,
}

fn bits(model: &LlamaModel, log: &RunLog) -> Bits {
    Bits {
        losses: log
            .train_losses
            .iter()
            .map(|&(s, l)| (s, l.to_bits()))
            .collect(),
        weights: model
            .params
            .iter()
            .map(|p| p.value.as_slice().iter().map(|x| x.to_bits()).collect())
            .collect(),
    }
}

fn serial_on(
    (mut model, mut batcher): (LlamaModel, LmBatcher),
    name: &str,
    cfg: &TrainConfig,
    res: &ResilienceConfig,
) -> (Bits, RunLog) {
    let (mut opt, _) = optimizers(name);
    let log = pretrain_resilient(&mut model, opt.as_mut(), &mut batcher, cfg, res);
    (bits(&model, &log), log)
}

fn serial(name: &str, batch: usize, cfg: &TrainConfig, res: &ResilienceConfig) -> (Bits, RunLog) {
    serial_on(setup(batch), name, cfg, res)
}

fn ddp_on(
    (mut model, batcher): (LlamaModel, LmBatcher),
    name: &str,
    replicas: usize,
    virtual_slots: usize,
    cfg: &TrainConfig,
    res: &ResilienceConfig,
) -> (Bits, RunLog) {
    let (_, make_opt) = optimizers(name);
    let layout = DdpConfig {
        replicas,
        virtual_slots,
        threads_per_replica: 1,
    };
    let out = pretrain_ddp(
        &mut model,
        make_opt.as_ref(),
        &batcher,
        cfg,
        &layout,
        res,
        &Obs::disabled(),
    );
    (bits(&model, &out.log), out.log)
}

fn ddp(
    name: &str,
    global_batch: usize,
    replicas: usize,
    virtual_slots: usize,
    cfg: &TrainConfig,
    res: &ResilienceConfig,
) -> (Bits, RunLog) {
    let inputs = setup(global_batch);
    ddp_on(inputs, name, replicas, virtual_slots, cfg, res)
}

/// Everything two runs of the same arithmetic must agree on when they also
/// evaluate in the same chunks: bits, eval curve, audit.
fn assert_same_run(a: &(Bits, RunLog), b: &(Bits, RunLog), what: &str) {
    assert_eq!(a.0, b.0, "{what}");
    assert_eq!(a.1.eval_ppls, b.1.eval_ppls, "{what}");
    assert_eq!(
        a.1.final_ppl.to_bits(),
        b.1.final_ppl.to_bits(),
        "{what}: final ppl"
    );
    assert_eq!(a.1.resilience, b.1.resilience, "{what}");
    assert_eq!(a.1.state_elems, b.1.state_elems, "{what}");
}

#[test]
fn one_replica_one_slot_is_the_serial_loop() {
    let res = ResilienceConfig::default();
    for name in ["adamw", "apollo"] {
        let (serial_bits, serial_log) = serial(name, 4, &quick(STEPS), &res);
        let (ddp_bits, ddp_log) = ddp(name, 4, 1, 1, &quick(STEPS), &res);
        assert_eq!(serial_bits, ddp_bits, "{name}");
        assert_eq!(serial_log.eval_ppls, ddp_log.eval_ppls, "{name}");
        assert_eq!(
            serial_log.final_ppl.to_bits(),
            ddp_log.final_ppl.to_bits(),
            "{name}"
        );
        assert_eq!(serial_log.state_elems, ddp_log.state_elems, "{name}");
    }
}

#[test]
fn grad_accum_is_a_virtual_slot_decomposition() {
    // `grad_accum = 4` is the one case whose bits the merge of the loops
    // changed on purpose: the serial loop summed micro-batches as a chain,
    // `((g0+g1)+g2)+g3`; every step is now the tree `(g0+g1)+(g2+g3)`.
    // `final_ppl` is left out on purpose: `eval_perplexity` chunks the
    // held-out set by the batcher's batch size (2 here, 2·A there), and the
    // chunking shows in the low bits at identical weights.
    let res = ResilienceConfig::default();
    for name in ["adamw", "apollo"] {
        for accum in [2, 3, 4] {
            let accumulated = TrainConfig {
                grad_accum: accum,
                ..quick(STEPS)
            };
            let (serial_bits, _) = serial(name, 2, &accumulated, &res);
            let (ddp_bits, _) = ddp(name, 2 * accum, 1, accum, &quick(STEPS), &res);
            assert_eq!(serial_bits, ddp_bits, "{name} accum {accum}");
        }
    }
}

/// One configured stage of the pipeline, to be held to the same bits at
/// every replica count and in the serial loop.
struct Stage {
    what: &'static str,
    cfg: TrainConfig,
    res: ResilienceConfig,
}

fn stages() -> Vec<Stage> {
    let with = |policy: RecoveryPolicy, step: usize, kind: FaultKind| ResilienceConfig {
        policy: Some(policy),
        snapshot_every: 3,
        spike_window: 4,
        fault_plan: FaultPlan::new().inject(step, kind),
        ..ResilienceConfig::default()
    };
    let spike = FaultKind::LossSpike { factor: 100.0 };
    let rollback = RecoveryPolicy::RollbackAndRetry { lr_backoff: 0.5 };
    let stage = |what, cfg, res| Stage { what, cfg, res };
    vec![
        stage(
            "clip",
            TrainConfig {
                grad_clip: Some(0.5),
                ..quick(STEPS)
            },
            ResilienceConfig::default(),
        ),
        stage(
            "clip, NaN gradient and no policy",
            TrainConfig {
                grad_clip: Some(0.5),
                ..quick(STEPS)
            },
            ResilienceConfig {
                fault_plan: FaultPlan::new().inject(5, FaultKind::NanGrad),
                ..ResilienceConfig::default()
            },
        ),
        stage(
            "INT8 weights",
            TrainConfig {
                quantize_weights: Some(32),
                ..quick(STEPS)
            },
            ResilienceConfig::default(),
        ),
        stage(
            "skip a NaN gradient",
            quick(STEPS),
            with(RecoveryPolicy::SkipStep, 3, FaultKind::NanGrad),
        ),
        stage(
            "skip a loss spike",
            quick(STEPS),
            with(RecoveryPolicy::SkipStep, 8, spike),
        ),
        stage(
            "repair a NaN gradient",
            TrainConfig {
                grad_clip: Some(0.5),
                ..quick(STEPS)
            },
            with(RecoveryPolicy::ClipAndContinue, 6, FaultKind::NanGrad),
        ),
        stage(
            "repair a loss spike",
            quick(STEPS),
            with(RecoveryPolicy::ClipAndContinue, 8, spike),
        ),
        stage(
            "roll back a NaN gradient",
            quick(STEPS),
            with(rollback, 7, FaultKind::NanGrad),
        ),
        stage(
            "roll back a loss spike",
            quick(STEPS),
            with(rollback, 8, spike),
        ),
    ]
}

#[test]
fn every_stage_runs_the_same_at_any_replica_count_and_in_the_serial_loop() {
    let clean = ddp(
        "apollo",
        4,
        1,
        4,
        &quick(STEPS),
        &ResilienceConfig::default(),
    );
    for name in ["adamw", "apollo"] {
        for Stage { what, cfg, res } in stages() {
            let what = format!("{name}: {what}");
            let solo = ddp(name, 4, 1, 4, &cfg, &res);
            if name == "apollo" {
                assert_ne!(solo.0, clean.0, "{what}: the stage did nothing");
            }
            assert_eq!(
                res.fault_plan.is_empty(),
                solo.1.resilience.is_clean(),
                "{what}: {:?}",
                solo.1.resilience
            );
            for replicas in [2, 3, 4] {
                let team = ddp(name, 4, replicas, 4, &cfg, &res);
                assert_same_run(&solo, &team, &format!("{what} x{replicas}"));
            }
            let one_slot = ddp(name, 4, 1, 1, &cfg, &res);
            assert_same_run(&serial(name, 4, &cfg, &res), &one_slot, &what);
        }
    }
}

#[test]
fn relora_merges_are_replica_invariant() {
    let lora = LinearMode::LoRa {
        rank: 2,
        alpha: 4.0,
    };
    let inputs = || setup_as(&ModelConfig::test_tiny(), lora, 4);
    let cfg = TrainConfig {
        merge_every: Some(4),
        ..quick(STEPS)
    };
    let res = ResilienceConfig::default();
    let solo = ddp_on(inputs(), "adamw", 1, 4, &cfg, &res);
    let unmerged = ddp_on(inputs(), "adamw", 1, 4, &quick(STEPS), &res);
    assert_ne!(solo.0, unmerged.0, "the merge did nothing");
    for replicas in [2, 3] {
        let team = ddp_on(inputs(), "adamw", replicas, 4, &cfg, &res);
        assert_same_run(&solo, &team, &format!("merge x{replicas}"));
    }
    let one_slot = ddp_on(inputs(), "adamw", 1, 1, &cfg, &res);
    assert_same_run(
        &serial_on(inputs(), "adamw", &cfg, &res),
        &one_slot,
        "merge",
    );
}

#[test]
fn both_entry_points_checkpoint_the_same_train_meta() {
    // A rollback before the first checkpoint, so the LR back-off, the spike
    // window and the audit are all non-trivial in every file.
    let res_in = |dir: &std::path::Path| ResilienceConfig {
        policy: Some(RecoveryPolicy::RollbackAndRetry { lr_backoff: 0.5 }),
        snapshot_every: 2,
        fault_plan: FaultPlan::new().inject(3, FaultKind::NanGrad),
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 5,
        keep_last: 10,
        ..ResilienceConfig::default()
    };
    let (serial_dir, ddp_dir) = (fresh_dir("meta-serial"), fresh_dir("meta-ddp"));
    serial("apollo", 4, &quick(STEPS), &res_in(&serial_dir));
    ddp("apollo", 4, 1, 1, &quick(STEPS), &res_in(&ddp_dir));
    let team_dir = fresh_dir("meta-team");
    ddp("apollo", 4, 2, 4, &quick(STEPS), &res_in(&team_dir));
    let solo_dir = fresh_dir("meta-solo");
    ddp("apollo", 4, 1, 4, &quick(STEPS), &res_in(&solo_dir));
    for step in [5, 10, 12] {
        let file = checkpoint_file_name(step);
        let load = |dir: &std::path::Path| load_train_state(&dir.join(&file)).unwrap();
        for (a, b) in [(&serial_dir, &ddp_dir), (&solo_dir, &team_dir)] {
            let (a, b) = (load(a), load(b));
            assert_eq!(a.meta, b.meta, "step {step}");
            assert_eq!(a.meta.lr_scale, 0.5);
            assert_eq!(a.meta.report.rollbacks, 1);
            assert_eq!(a.meta.rng_state.len(), 4);
            assert!(!a.meta.spike_window.is_empty());
            for (pa, pb) in a.model.params.iter().zip(&b.model.params) {
                assert_eq!(pa.value, pb.value, "step {step}: {}", pa.name);
            }
        }
    }
}

#[test]
fn a_checkpoint_of_another_model_is_refused_not_installed() {
    // Same parameter names at other shapes (the serial resume used to
    // install whatever the file held), and a shorter parameter list (its
    // `zip` used to truncate silently); the data-parallel resume died in
    // `copy_from` on either.
    let wider = ModelConfig::new("wider", 64, 32, 64, 2, 2, 8);
    let shorter = ModelConfig::new("shorter", 64, 16, 32, 2, 1, 8);
    let fresh = serial("adamw", 4, &quick(STEPS), &ResilienceConfig::default());
    for other in [wider, shorter] {
        let dir = fresh_dir(&format!("other-model-{}", other.name));
        let res = ResilienceConfig {
            checkpoint_dir: Some(dir),
            checkpoint_every: 5,
            ..ResilienceConfig::default()
        };
        serial_on(
            setup_as(&other, LinearMode::Dense, 4),
            "adamw",
            &quick(STEPS),
            &res,
        );
        let resume = ResilienceConfig {
            resume: true,
            checkpoint_every: 0,
            ..res
        };
        let resumed = serial("adamw", 4, &quick(STEPS), &resume);
        assert_eq!(resumed.1.resilience.resumed_from_step, None);
        assert_same_run(&fresh, &resumed, &other.name);
        for replicas in [1, 2] {
            let resumed = ddp(
                "adamw",
                4,
                replicas,
                1.max(replicas),
                &quick(STEPS),
                &resume,
            );
            assert_eq!(resumed.1.resilience.resumed_from_step, None);
            assert!(resumed.1.final_ppl.is_finite());
        }
    }
}

#[test]
fn an_optimizer_section_of_another_rank_is_a_warning_and_a_fresh_optimizer() {
    // The serial resume always warned and carried on; a replica thread
    // panicked. One behaviour: the weights and the loop state resume, the
    // optimizer starts fresh, at every replica count alike.
    fn rank4(i: usize) -> Box<dyn Optimizer> {
        Box::new(Apollo::new(4, 5).with_seed(APOLLO_SEED + i as u64))
    }
    let dirs = (fresh_dir("other-rank-serial"), fresh_dir("other-rank-ddp"));
    let res_in = |dir: &std::path::Path, resume: bool| ResilienceConfig {
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 5,
        resume,
        ..ResilienceConfig::default()
    };
    serial("apollo", 4, &quick(10), &res_in(&dirs.0, false));
    ddp("apollo", 4, 2, 4, &quick(10), &res_in(&dirs.1, false));

    let (mut model, mut batcher) = setup(4);
    let mut opt = Apollo::new(4, 5).with_seed(APOLLO_SEED);
    let cfg = quick(STEPS);
    let res = res_in(&dirs.0, true);
    let log = pretrain_resilient(&mut model, &mut opt, &mut batcher, &cfg, &res);
    assert_eq!(log.resilience.resumed_from_step, Some(10));
    assert!(log.final_ppl.is_finite());

    let mut runs = Vec::new();
    for replicas in [1, 2, 4] {
        let (mut model, batcher) = setup(4);
        let out = pretrain_ddp(
            &mut model,
            &rank4,
            &batcher,
            &cfg,
            &DdpConfig::new(replicas),
            &res_in(&dirs.1, true),
            &Obs::disabled(),
        );
        assert_eq!(out.log.resilience.resumed_from_step, Some(10));
        runs.push((bits(&model, &out.log), out.log));
        // Each leg rewrites the final checkpoint; the next resumes from
        // step 10 like this one.
        std::fs::remove_file(dirs.1.join(checkpoint_file_name(STEPS as u64))).unwrap();
    }
    assert_eq!(runs[0].0, runs[1].0);
    assert_eq!(runs[0].0, runs[2].0);
}

#[test]
fn survivors_of_a_kill_replay_the_guard_stage_too() {
    // The replay starts from a floor taken before the fault, so the fault
    // fires again and the audit counts it once, as in the undisturbed run.
    let dir = fresh_dir("kill-and-fault");
    for policy in [
        RecoveryPolicy::SkipStep,
        RecoveryPolicy::RollbackAndRetry { lr_backoff: 0.5 },
    ] {
        let res = |kill: Option<usize>, checkpoints: bool| {
            let mut plan = FaultPlan::new().inject(3, FaultKind::NanGrad);
            if let Some(step) = kill {
                plan = plan.inject(step, FaultKind::ReplicaKill { replica: 1 });
            }
            ResilienceConfig {
                policy: Some(policy),
                snapshot_every: 2,
                fault_plan: plan,
                checkpoint_dir: checkpoints.then(|| dir.clone()),
                checkpoint_every: 4,
                ..ResilienceConfig::default()
            }
        };
        let mut undisturbed = ddp("apollo", 4, 2, 4, &quick(STEPS), &res(None, false));
        assert_eq!(undisturbed.1.resilience.non_finite_grads, 1);
        for kill_step in [2, 6] {
            let mut killed = ddp(
                "apollo",
                4,
                2,
                4,
                &quick(STEPS),
                &res(Some(kill_step), false),
            );
            assert!(killed.1.resilience.resumed_from_step.is_some());
            killed.1.resilience.resumed_from_step = None;
            assert_same_run(
                &undisturbed,
                &killed,
                &format!("{policy:?}, kill at {kill_step}"),
            );
        }
        // With checkpoints the audit also counts files, in both runs alike.
        let _ = std::fs::remove_dir_all(&dir);
        undisturbed = ddp("apollo", 4, 2, 4, &quick(STEPS), &res(None, true));
        let _ = std::fs::remove_dir_all(&dir);
        let mut killed = ddp("apollo", 4, 2, 4, &quick(STEPS), &res(Some(6), true));
        killed.1.resilience.resumed_from_step = None;
        killed.1.resilience.checkpoints_written = undisturbed.1.resilience.checkpoints_written;
        assert_same_run(
            &undisturbed,
            &killed,
            &format!("{policy:?}, kill after a checkpoint"),
        );
    }
}

/// AdamW behind the trait's default `state_save`, as a custom optimizer that
/// cannot checkpoint would be.
struct Saveless(AdamW);

impl Optimizer for Saveless {
    fn name(&self) -> String {
        "saveless".to_string()
    }
    fn step(&mut self, params: &mut [ParamUpdate<'_>], lr: f32) {
        self.0.step(params, lr);
    }
    fn state_elems(&self) -> usize {
        self.0.state_elems()
    }
}

#[test]
fn an_optimizer_that_cannot_save_costs_a_floor_not_an_error() {
    fn saveless(_: usize) -> Box<dyn Optimizer> {
        Box::new(Saveless(AdamW::new()))
    }
    let team = |res: &ResilienceConfig| {
        let (mut model, batcher) = setup(4);
        let (cfg, layout) = (quick(STEPS), DdpConfig::new(2));
        let obs = Obs::disabled();
        let out = pretrain_ddp(&mut model, &saveless, &batcher, &cfg, &layout, res, &obs);
        (bits(&model, &out.log), out.log)
    };
    // A rollback policy with nothing to roll back to skips, as it does
    // before its first floor, and reports no checkpoint error for it.
    let rollback = ResilienceConfig {
        policy: Some(RecoveryPolicy::RollbackAndRetry { lr_backoff: 0.5 }),
        fault_plan: FaultPlan::new().inject(5, FaultKind::NanGrad),
        ..ResilienceConfig::default()
    };
    let (mut model, mut batcher) = setup(4);
    let mut opt = Saveless(AdamW::new());
    let log = pretrain_resilient(&mut model, &mut opt, &mut batcher, &quick(STEPS), &rollback);
    let audit = |log: &RunLog| {
        let r = &log.resilience;
        (r.skipped_steps, r.rollbacks, r.checkpoint_errors)
    };
    assert_eq!(audit(&log), (1, 0, 0));
    assert_eq!(audit(&team(&rollback).1), (1, 0, 0));

    // The survivor of a kill replays from the start of the run.
    let undisturbed = team(&ResilienceConfig::default());
    assert_eq!(undisturbed.1.resilience, Default::default());
    let kill = FaultKind::ReplicaKill { replica: 1 };
    let mut killed = team(&ResilienceConfig {
        fault_plan: FaultPlan::new().inject(6, kill),
        ..ResilienceConfig::default()
    });
    assert_eq!(killed.1.resilience.checkpoint_errors, 0);
    killed.1.resilience.resumed_from_step = None;
    assert_same_run(&undisturbed, &killed, "kill without a floor");

    // A checkpoint that was asked for and cannot be written is an error.
    let checkpointed = team(&ResilienceConfig {
        checkpoint_dir: Some(fresh_dir("saveless")),
        checkpoint_every: 5,
        ..ResilienceConfig::default()
    });
    assert_eq!(checkpointed.1.resilience.checkpoint_errors, 3);
    assert_eq!(checkpointed.0, undisturbed.0);
}
