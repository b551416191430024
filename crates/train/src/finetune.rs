//! Fine-tuning loop for the synthetic classification tasks (Tables 4–5).

use std::time::Instant;

use apollo_data::TaskGen;
use apollo_nn::LlamaModel;
use apollo_optim::Optimizer;
use serde::{Deserialize, Serialize};

use crate::schedule::LrSchedule;
use crate::trainer::param_updates;

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinetuneConfig {
    /// Optimizer steps.
    pub steps: usize,
    /// Examples per batch.
    pub batch: usize,
    /// Peak learning rate (linear-to-cosine schedule like pre-training).
    pub lr: f32,
    /// Held-out evaluation examples.
    pub eval_examples: usize,
}

impl FinetuneConfig {
    /// Defaults mirroring the paper's protocol at proxy scale.
    pub fn quick(steps: usize) -> Self {
        FinetuneConfig {
            steps,
            batch: 8,
            lr: 3e-3,
            eval_examples: 100,
        }
    }
}

/// Result of one task's fine-tuning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FinetuneResult {
    /// Task name.
    pub task: String,
    /// Optimizer label.
    pub optimizer: String,
    /// Final held-out accuracy in percent.
    pub accuracy: f32,
    /// Majority-class baseline accuracy in percent (chance level).
    pub chance: f32,
    /// Final training loss.
    pub final_loss: f32,
    /// Wall-clock seconds.
    pub wall_secs: f64,
}

/// Held-out classification accuracy (percent), evaluated in batches.
pub fn eval_accuracy(model: &LlamaModel, task: &TaskGen, n: usize, batch: usize) -> f32 {
    let (tokens, labels) = task.eval_set(n);
    let seq = task.config().seq;
    let mut correct = 0usize;
    let mut start = 0usize;
    while start < n {
        let end = (start + batch).min(n);
        let preds = model.classify(&tokens[start * seq..end * seq], end - start);
        correct += preds
            .iter()
            .zip(&labels[start..end])
            .filter(|(p, l)| p == l)
            .count();
        start = end;
    }
    100.0 * correct as f32 / n as f32
}

/// Fine-tunes `model` on one synthetic task and reports held-out accuracy.
pub fn finetune(
    model: &mut LlamaModel,
    opt: &mut dyn Optimizer,
    task: &mut TaskGen,
    cfg: &FinetuneConfig,
) -> FinetuneResult {
    assert!(cfg.steps > 0, "need at least one step");
    let schedule = LrSchedule::paper_default(cfg.lr, cfg.steps);
    let started = Instant::now();
    let mut final_loss = f32::NAN;
    for step in 0..cfg.steps {
        let (tokens, labels) = task.sample(cfg.batch);
        let (loss, grads) = model.class_loss_and_grads(&tokens, &labels, cfg.batch);
        final_loss = loss;
        let lr = schedule.lr_at(step);
        opt.step(&mut param_updates(model, &grads), lr);
    }
    let accuracy = eval_accuracy(model, task, cfg.eval_examples, cfg.batch);
    FinetuneResult {
        task: task.config().name.clone(),
        optimizer: opt.name(),
        accuracy,
        chance: 100.0 / task.config().n_classes as f32,
        final_loss,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_data::TaskConfig;
    use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
    use apollo_optim::AdamW;
    use apollo_tensor::Rng;

    fn task_for(cfg: &ModelConfig) -> TaskGen {
        TaskGen::new(TaskConfig {
            name: "unit".into(),
            n_classes: 2,
            vocab_size: cfg.vocab_size,
            seq: cfg.max_seq,
            true_markers: 4,
            distractors: 1,
            seed: 5,
        })
    }

    #[test]
    fn finetuning_beats_chance() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(110);
        let mut model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let mut task = task_for(&cfg);
        let mut opt = AdamW::new();
        let res = finetune(
            &mut model,
            &mut opt,
            &mut task,
            &FinetuneConfig {
                steps: 80,
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
    fn accuracy_evaluation_is_deterministic() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(111);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let task = task_for(&cfg);
        assert_eq!(
            eval_accuracy(&model, &task, 40, 8),
            eval_accuracy(&model, &task, 40, 8)
        );
    }

    #[test]
    fn untrained_model_is_near_chance() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(112);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let task = task_for(&cfg);
        // An untrained model's label predictions are essentially arbitrary
        // tokens — accuracy should be ≲ chance (50% here), certainly ≤ 65%.
        let acc = eval_accuracy(&model, &task, 100, 10);
        assert!(acc <= 65.0, "untrained accuracy {acc}");
    }
}
