//! Data-parallel integration tests: bit-exact replica invariance,
//! cross-replica-count checkpoint resharding, and a panicking worker ending
//! the run instead of hanging it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_obs::Obs;
use apollo_optim::{AdamW, Apollo, Optimizer, ParamUpdate};
use apollo_tensor::Rng;
use apollo_train::{
    pretrain_ddp, DdpConfig, OptimizerFactory, ResilienceConfig, RunLog, TrainConfig,
};

fn setup(seed: u64) -> (LlamaModel, LmBatcher) {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(seed);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    // Global batch 4 = the default virtual-slot count.
    let batcher = LmBatcher::new(corpus, 4, cfg.max_seq);
    (model, batcher)
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("apollo-ddp-it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn apollo_factory(i: usize) -> Box<dyn Optimizer> {
    // Position-derived seed: parameter i gets the projector stream a
    // single-parameter optimizer at local index 0 would derive from it.
    Box::new(Apollo::new(2, 5).with_seed(0xA901_1000 + i as u64))
}

fn adamw_factory(_i: usize) -> Box<dyn Optimizer> {
    Box::new(AdamW::new())
}

fn run(
    seed: u64,
    steps: usize,
    replicas: usize,
    make_opt: &OptimizerFactory,
    res: &ResilienceConfig,
) -> (LlamaModel, RunLog) {
    let (mut model, batcher) = setup(seed);
    let cfg = TrainConfig {
        eval_every: 4,
        ..TrainConfig::quick(steps)
    };
    let log = pretrain_ddp(
        &mut model,
        make_opt,
        &batcher,
        &cfg,
        &DdpConfig::new(replicas),
        res,
        &Obs::disabled(),
    );
    (model, log)
}

fn assert_bit_identical(a: &(LlamaModel, RunLog), b: &(LlamaModel, RunLog), what: &str) {
    let (la, lb) = (&a.1, &b.1);
    assert_eq!(la.train_losses.len(), lb.train_losses.len(), "{what}");
    for ((sa, xa), (sb, xb)) in la.train_losses.iter().zip(&lb.train_losses) {
        assert_eq!(sa, sb, "{what}: sample steps differ");
        assert_eq!(
            xa.to_bits(),
            xb.to_bits(),
            "{what}: loss at step {sa} diverges ({xa} vs {xb})"
        );
    }
    assert_eq!(la.eval_ppls, lb.eval_ppls, "{what}: eval curves differ");
    assert_eq!(
        la.final_ppl.to_bits(),
        lb.final_ppl.to_bits(),
        "{what}: final perplexity diverges"
    );
    for (pa, pb) in a.0.params.iter().zip(&b.0.params) {
        assert_eq!(pa.name, pb.name);
        for (i, (x, y)) in pa
            .value
            .as_slice()
            .iter()
            .zip(pb.value.as_slice())
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: param {} diverges at element {i}",
                pa.name
            );
        }
    }
}

#[test]
fn losses_and_weights_are_bit_identical_at_any_replica_count() {
    // The replica-invariance contract, for both the sharded-state APOLLO
    // path (position-derived projector seeds) and plain AdamW. Replica
    // counts 1/2/4 partition the 4 virtual slots evenly; 3 does not.
    let res = ResilienceConfig::default();
    for (name, factory) in [
        ("apollo", &apollo_factory as &OptimizerFactory),
        ("adamw", &adamw_factory),
    ] {
        let baseline = run(7, 10, 1, factory, &res);
        assert!(baseline.1.final_ppl.is_finite());
        for replicas in [2, 3, 4] {
            let multi = run(7, 10, replicas, factory, &res);
            assert_bit_identical(&baseline, &multi, &format!("{name} x{replicas}"));
        }
    }
}

#[test]
fn sharded_state_tracks_the_serial_optimizer_footprint() {
    // ZeRO sharding splits the state across replicas; the union must be
    // the same state a single replica holds.
    let res = ResilienceConfig::default();
    let solo = run(3, 6, 1, &apollo_factory, &res);
    let duo = run(3, 6, 2, &apollo_factory, &res);
    assert!(solo.1.state_elems > 0);
    assert_eq!(solo.1.state_elems, duo.1.state_elems);
    assert_eq!(solo.1.state_bytes, duo.1.state_bytes);
}

#[test]
fn checkpoints_reshard_across_replica_counts() {
    // A checkpoint written by a 2-replica run resumes at 4 replicas (and
    // at 1), landing on exactly the uninterrupted run's weights: the
    // per-parameter state blobs are sharding-agnostic.
    let steps = 10;
    let clean = run(19, steps, 2, &apollo_factory, &ResilienceConfig::default());

    let dir = fresh_dir("reshard");
    let res = ResilienceConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 6,
        ..ResilienceConfig::default()
    };
    // First leg: runs to completion, but the step-6 checkpoint remains.
    let (mut first_model, batcher) = setup(19);
    let cfg = TrainConfig {
        eval_every: 4,
        ..TrainConfig::quick(steps)
    };
    pretrain_ddp(
        &mut first_model,
        &|i| apollo_factory(i),
        &batcher,
        &cfg,
        &DdpConfig::new(2),
        &res,
        &Obs::disabled(),
    );
    for replicas in [1, 4] {
        // Drop the final checkpoint (each leg rewrites it on completion)
        // so every resume starts from the step-6 checkpoint.
        std::fs::remove_file(dir.join(apollo_train::checkpoint_file_name(steps as u64))).unwrap();
        let resume = ResilienceConfig {
            resume: true,
            ..res.clone()
        };
        let resumed = run(19, steps, replicas, &apollo_factory, &resume);
        assert_eq!(
            resumed.1.resilience.resumed_from_step,
            Some(6),
            "x{replicas}"
        );
        // The resumed leg replays steps 6.. only; its loss samples are a
        // suffix of the clean curve, and the weights land bit-exactly.
        for (step, loss) in &resumed.1.train_losses {
            let clean_loss = clean
                .1
                .train_losses
                .iter()
                .find(|(s, _)| s == step)
                .unwrap_or_else(|| panic!("x{replicas}: no clean sample at step {step}"));
            assert_eq!(loss.to_bits(), clean_loss.1.to_bits(), "x{replicas}");
        }
        assert_eq!(
            resumed.1.final_ppl.to_bits(),
            clean.1.final_ppl.to_bits(),
            "x{replicas}"
        );
        for (pa, pb) in clean.0.params.iter().zip(&resumed.0.params) {
            for (x, y) in pa.value.as_slice().iter().zip(pb.value.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "x{replicas}: {}", pa.name);
            }
        }
    }
}

#[test]
fn ddp_counters_and_replica_events_are_emitted() {
    let dir = fresh_dir("trace");
    let trace = dir.join("run.jsonl");
    let obs = Obs::with_trace(&trace, 1).unwrap();
    let (mut model, batcher) = setup(23);
    pretrain_ddp(
        &mut model,
        &|i| adamw_factory(i),
        &batcher,
        &TrainConfig::quick(4),
        &DdpConfig::new(2),
        &ResilienceConfig::default(),
        &obs,
    );
    assert_eq!(obs.counter_value("ddp.steps"), 4);
    let replicas = obs.metrics().and_then(|m| m.gauge("ddp.replicas"));
    assert_eq!(replicas, Some(2.0));

    let text = std::fs::read_to_string(&trace).unwrap();
    for needle in [
        "\"RunStart\"",
        "\"RunEnd\"",
        "\"StepPhases\"",
        "\"StepMetrics\"",
        "\"ReplicaEvent\"",
    ] {
        assert!(text.contains(needle), "trace is missing {needle}");
    }
    for event in ["\"start\"", "\"finish\""] {
        assert!(
            text.contains(event),
            "trace is missing a {event} replica event"
        );
    }
}

#[test]
#[should_panic(expected = "virtual slots")]
fn replicas_beyond_virtual_slots_are_rejected() {
    let (mut model, batcher) = setup(1);
    let ddp = DdpConfig {
        replicas: 3,
        virtual_slots: 2,
    };
    pretrain_ddp(
        &mut model,
        &|i| adamw_factory(i),
        &batcher,
        &TrainConfig::quick(2),
        &ddp,
        &ResilienceConfig::default(),
        &Obs::disabled(),
    );
}

/// An optimizer whose step panics.
struct Panicking;

impl Optimizer for Panicking {
    fn name(&self) -> String {
        "panicking".to_string()
    }
    fn step(&mut self, _: &mut [ParamUpdate<'_>], _: f32) {
        panic!("injected optimizer panic");
    }
    fn state_elems(&self) -> usize {
        0
    }
}

#[test]
fn a_panicking_member_ends_the_run_instead_of_hanging_it() {
    // One optimizer panics in the first step: parameter 0's, which the
    // caller's thread steps, then the last parameter's, which the other
    // worker of two steps. Each run goes on a thread of its own so that a
    // hang fails the test instead of stalling it.
    let trainable = setup(29).0.params.iter().filter(|p| p.trainable).count();
    for panicking in [0, trainable - 1] {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let factory = move |i: usize| -> Box<dyn Optimizer> {
                    if i == panicking {
                        Box::new(Panicking)
                    } else {
                        adamw_factory(i)
                    }
                };
                run(29, 4, 2, &factory, &ResilienceConfig::default())
            }));
            tx.send(outcome.is_err()).unwrap();
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("pretrain_ddp hung after a member panicked");
        handle.join().unwrap();
        assert!(panicked, "pretrain_ddp returned after a member panicked");
    }
}
