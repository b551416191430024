//! Cross-crate integration tests: the full pipeline (synthetic corpus →
//! LLaMA proxy → optimizer → trainer → evaluation) for every optimizer
//! family, plus consistency between the live optimizers and the analytic
//! memory model.

use apollo_repro::data::{CorpusConfig, LmBatcher, SyntheticCorpus, TaskConfig, TaskGen};
use apollo_repro::nn::{LinearMode, LlamaModel, ModelConfig, ParamKind};
use apollo_repro::optim::{
    AdamW, Apollo, Fira, GaLore, Method, Optimizer, ProjKind, ScaleGranularity, NAMES,
};
use apollo_repro::sysmodel::TrainingMemoryModel;
use apollo_repro::tensor::Rng;
use apollo_repro::train::{eval_perplexity, finetune, pretrain, FinetuneConfig, TrainConfig};

fn fresh(seed: u64) -> (LlamaModel, LmBatcher) {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(seed);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let batcher = LmBatcher::new(corpus, 4, cfg.max_seq);
    (model, batcher)
}

fn run(opt: &mut dyn Optimizer, lr: f32, steps: usize) -> (f32, f32) {
    let (mut model, mut batcher) = fresh(7);
    let before = eval_perplexity(&model, &batcher, 16).expect("eval set is non-empty");
    let tc = TrainConfig {
        lr,
        ..TrainConfig::quick(steps)
    };
    let log = pretrain(&mut model, opt, &mut batcher, &tc);
    (before, log.final_ppl)
}

#[test]
fn every_optimizer_family_learns() {
    let cases: Vec<(Box<dyn Optimizer>, f32)> = vec![
        (Box::new(AdamW::new()), 3e-3),
        (Box::new(AdamW::adam8bit(64)), 3e-3),
        (Box::new(Apollo::new(4, 20)), 1e-2),
        (Box::new(Apollo::new(4, 20).with_svd()), 1e-2),
        (Box::new(Apollo::mini(20).with_alpha(2.0)), 1e-2),
        (Box::new(GaLore::new(4, 20)), 1e-2),
        (Box::new(Fira::new(4, 20)), 1e-2),
    ];
    for (mut opt, lr) in cases {
        let name = opt.name();
        let (before, after) = run(opt.as_mut(), lr, 80);
        assert!(
            after < before * 0.85,
            "{name}: ppl {before:.1} -> {after:.1} (no learning)"
        );
    }
}

#[test]
fn apollo_is_competitive_with_adamw_at_tiny_scale() {
    let (_, adamw) = run(&mut AdamW::new(), 3e-3, 120);
    let (_, apollo) = run(&mut Apollo::new(4, 20), 1e-2, 120);
    // The paper's claim is parity (or better); allow 25% slack at this
    // micro-scale where variance is high.
    assert!(
        apollo < adamw * 1.25,
        "APOLLO {apollo:.1} should be near AdamW {adamw:.1}"
    );
}

#[test]
fn apollo_state_is_far_smaller_than_adamw_on_a_real_model() {
    let (mut model, mut batcher) = fresh(8);
    let mut adamw = AdamW::new();
    let tc = TrainConfig::quick(20);
    pretrain(&mut model, &mut adamw, &mut batcher, &tc);

    let (mut model2, mut batcher2) = fresh(8);
    let mut mini = Apollo::mini(20);
    pretrain(&mut model2, &mut mini, &mut batcher2, &tc);

    // At the micro test geometry the (dense-Adam) embedding/head states
    // dominate, capping the visible gap; assert >2x here and the real >20x
    // on the paper's 7B geometry analytically.
    assert!(
        mini.state_elems() * 2 < adamw.state_elems(),
        "Mini {} vs AdamW {}",
        mini.state_elems(),
        adamw.state_elems()
    );
    let shapes_7b = TrainingMemoryModel::new(&ModelConfig::llama_7b());
    let adamw_7b = Method::adamw().state_elems(shapes_7b.shapes());
    let mini_7b = Method::mini().state_elems(shapes_7b.shapes());
    assert!(mini_7b * 20 < adamw_7b, "7B: {mini_7b} vs {adamw_7b}");
}

#[test]
fn live_state_matches_analytic_model_on_full_network() {
    // Every method's count over the sysmodel inventory must equal what its
    // built optimizer allocates over a whole model: sysmodel marks
    // embed/head non-projectable, the trainer routes exactly the same way
    // via ParamKind.
    let cfg = ModelConfig::test_tiny();
    let mem = TrainingMemoryModel::new(&cfg);
    let ablations = [
        Method::AdamWChannelwise { limiter: true },
        Method::Apollo {
            rank: 4,
            proj: ProjKind::Svd,
            granularity: ScaleGranularity::Tensor,
        },
    ];
    let methods = NAMES.map(|name| Method::parse(name, 4).unwrap());
    for method in methods.into_iter().chain(ablations) {
        let (mut model, mut batcher) = fresh(9);
        let mut opt = method.build(1.0, 1.0, None).unwrap();
        pretrain(
            &mut model,
            opt.as_mut(),
            &mut batcher,
            &TrainConfig::quick(3),
        );
        let analytic = method.state_elems(mem.shapes());
        assert_eq!(opt.state_elems(), analytic, "{}", method.label());
    }
}

#[test]
fn trainer_routes_param_kinds_like_the_memory_model() {
    // Every Projectable param in the model is projectable in the sysmodel
    // inventory and vice versa (by shape+name alignment).
    let cfg = ModelConfig::test_tiny();
    let mem = TrainingMemoryModel::new(&cfg);
    let mut rng = Rng::seed_from_u64(1);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let inventory = mem.shapes();
    assert_eq!(inventory.len(), model.params.len());
    for (p, &(r, c, projectable)) in model.params.iter().zip(inventory) {
        assert_eq!(p.value.shape(), (r, c), "{}", p.name);
        assert_eq!(
            p.kind == ParamKind::Projectable,
            projectable,
            "{} routing mismatch",
            p.name
        );
    }
}

#[test]
fn finetune_with_apollo_mini_beats_chance() {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(11);
    let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let mut task = TaskGen::new(TaskConfig {
        name: "it".into(),
        n_classes: 2,
        vocab_size: cfg.vocab_size,
        seq: cfg.max_seq,
        true_markers: 4,
        distractors: 1,
        seed: 3,
    });
    let mut opt = Apollo::mini(20).with_alpha(2.0);
    let res = finetune(
        &mut model,
        &mut opt,
        &mut task,
        &FinetuneConfig {
            steps: 100,
            batch: 8,
            lr: 3e-3,
            eval_examples: 100,
        },
    );
    assert!(
        res.accuracy > res.chance + 10.0,
        "accuracy {} vs chance {}",
        res.accuracy,
        res.chance
    );
}

#[test]
fn lora_finetune_pipeline_works_end_to_end() {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(12);
    let base = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let mut lora = base.to_lora(2, 4.0, &mut rng);
    let mut task = TaskGen::new(TaskConfig {
        name: "it".into(),
        n_classes: 2,
        vocab_size: cfg.vocab_size,
        seq: cfg.max_seq,
        true_markers: 4,
        distractors: 1,
        seed: 4,
    });
    let mut opt = AdamW::new();
    let res = finetune(
        &mut lora,
        &mut opt,
        &mut task,
        &FinetuneConfig {
            steps: 60,
            batch: 8,
            lr: 3e-3,
            eval_examples: 60,
        },
    );
    assert!(res.accuracy.is_finite());
    // The frozen backbone holds the vast majority of parameters.
    assert!(lora.num_trainable() * 2 < base.num_trainable());
}

#[test]
fn deterministic_end_to_end() {
    let go = || {
        let (mut model, mut batcher) = fresh(13);
        let mut opt = Apollo::new(4, 10);
        pretrain(&mut model, &mut opt, &mut batcher, &TrainConfig::quick(25)).final_ppl
    };
    assert_eq!(go(), go());
}
