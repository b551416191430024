//! One pre-training pipeline: the serial entry points, gradient
//! accumulation and the data-parallel driver are the same arithmetic, so a
//! run through one must land on the other's bits.

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_obs::Obs;
use apollo_optim::{AdamW, Apollo, Optimizer};
use apollo_tensor::Rng;
use apollo_train::{
    pretrain_ddp, pretrain_resilient, DdpConfig, OptimizerFactory, ResilienceConfig, RunLog,
    TrainConfig,
};

const STEPS: usize = 12;
const APOLLO_SEED: u64 = 0xA901_1000;

fn setup(batch: usize) -> (LlamaModel, LmBatcher) {
    let cfg = ModelConfig::test_tiny();
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut Rng::seed_from_u64(7));
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    (model, LmBatcher::new(corpus, batch, cfg.max_seq))
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

fn serial(name: &str, batch: usize, cfg: &TrainConfig, res: &ResilienceConfig) -> (Bits, RunLog) {
    let (mut model, mut batcher) = setup(batch);
    let (mut opt, _) = optimizers(name);
    let log = pretrain_resilient(&mut model, opt.as_mut(), &mut batcher, cfg, res);
    (bits(&model, &log), log)
}

fn ddp(
    name: &str,
    global_batch: usize,
    replicas: usize,
    virtual_slots: usize,
    cfg: &TrainConfig,
    res: &ResilienceConfig,
) -> (Bits, RunLog) {
    let (mut model, batcher) = setup(global_batch);
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
    // `final_ppl` is left out on purpose: `eval_perplexity` chunks the
    // held-out set by the batcher's batch size (2 here, 2·A there), and the
    // chunking shows in the low bits at identical weights.
    let res = ResilienceConfig::default();
    for name in ["adamw", "apollo"] {
        for accum in [2, 3] {
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
