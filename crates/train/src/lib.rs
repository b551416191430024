//! Training loops, learning-rate schedules, and evaluation for the APOLLO
//! reproduction.
//!
//! [`pretrain`] runs the paper's pre-training recipe (linear warmup over the
//! first 10% of steps, cosine decay to 10% of the peak LR, validation
//! perplexity every `eval_every` steps) with any [`apollo_optim::Optimizer`].
//! [`pretrain_resilient`], [`pretrain_observed`] and the data-parallel
//! [`pretrain_ddp`] are the same step pipeline with more of it switched on.
//! [`finetune`] runs the sequence-classification fine-tuning protocol of
//! Tables 4–5 and reports accuracy. Both return serializable [`RunLog`] /
//! [`FinetuneResult`] records that the bench harness writes as JSON.
//!
//! # Example
//!
//! ```no_run
//! use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
//! use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
//! use apollo_optim::Apollo;
//! use apollo_tensor::Rng;
//! use apollo_train::{pretrain, TrainConfig};
//!
//! let cfg = ModelConfig::tiny_60m();
//! let mut rng = Rng::seed_from_u64(0);
//! let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
//! let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
//! let mut batcher = LmBatcher::new(corpus, 4, cfg.max_seq);
//! let mut opt = Apollo::new(cfg.default_rank(), 200);
//! let log = pretrain(&mut model, &mut opt, &mut batcher, &TrainConfig::quick(100));
//! println!("final ppl {}", log.final_ppl);
//! ```

mod checkpoint;
mod ddp;
mod finetune;
mod pipeline;
mod resilience;
mod schedule;
mod trainer;

pub use checkpoint::{
    checkpoint_file_name, latest_valid_checkpoint, load_model, load_train_state, prune_checkpoints,
    save_model, save_train_state, train_state_blob, TrainMeta, TrainState,
};
pub use ddp::{pretrain_ddp, DdpConfig, OptimizerFactory};
pub use finetune::{finetune, FinetuneConfig, FinetuneResult};
pub use resilience::{
    FaultKind, FaultPlan, RecoveryPolicy, ResilienceConfig, ResilienceReport, SpikeDetector,
};
pub use schedule::LrSchedule;
pub use trainer::{
    eval_perplexity, param_updates, pretrain, pretrain_observed, pretrain_resilient, RunLog,
    TrainConfig,
};
