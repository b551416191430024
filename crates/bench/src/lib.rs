//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/<id>.rs` binary reproduces one artifact (see DESIGN.md's
//! experiment index) by delegating to this library: a [`Method`] registry
//! mapping the paper's method names to configured optimizers and model
//! parameterizations, a [`pretrain_run`] driver, and plain-text/JSON output
//! helpers.
//!
//! All runs are deterministic given their seeds. Step budgets scale with
//! the `APOLLO_SCALE` environment variable (default 1.0) so the full suite
//! can be traded between fidelity and wall-clock.

use std::path::PathBuf;

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_obs::Obs;
use apollo_optim::{
    AdamW, AdamWChannelwise, Apollo, Fira, Flora, GaLore, Optimizer, ScaleGranularity, Sgd,
    SgdMomentum,
};
use apollo_tensor::Rng;
use apollo_train::{pretrain, pretrain_observed, ResilienceConfig, RunLog, TrainConfig};

/// The paper's subspace refresh period T.
pub const UPDATE_FREQ: usize = 200;

/// A training method from the paper's evaluation, with everything needed to
/// instantiate it for a given model geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Full-rank AdamW baseline.
    AdamW,
    /// AdamW with the Section-3 channel-wise structured LR rule.
    AdamWChannelwise {
        /// Whether the norm-growth limiter is active (Fig. 3 ablation).
        limiter: bool,
    },
    /// AdamW with element-wise rule — alias of [`Method::AdamW`], named for
    /// Fig. 3's legend.
    AdamWElementwise,
    /// 8-bit Adam (INT8 moments, group 128).
    Adam8bit,
    /// Plain SGD.
    Sgd,
    /// SGD with momentum 0.9.
    SgdMomentum,
    /// `W = UV` factored baseline ("Low-Rank" in Table 2).
    LowRank,
    /// LoRA adapters on a frozen random backbone (pre-training baseline).
    LoRa,
    /// ReLoRA: LoRA with periodic merges.
    ReLoRa,
    /// GaLore (SVD projection).
    GaLore,
    /// GaLore with pure random projection (Fig. 5 ablation).
    GaLoreRp,
    /// 8-bit GaLore.
    GaLore8bit,
    /// Fira (SVD projection).
    Fira,
    /// Flora (random-projection momentum compression).
    Flora,
    /// APOLLO (random projection, channel-wise).
    Apollo,
    /// APOLLO with half the default rank (the `†` rows of Table 2).
    ApolloHalfRank,
    /// APOLLO w. SVD.
    ApolloSvd,
    /// APOLLO with tensor-wise scaling at full rank (Table 7 ablation).
    ApolloTensor,
    /// APOLLO w. SVD with tensor-wise scaling (Table 7 ablation).
    ApolloTensorSvd,
    /// APOLLO-Mini (rank 1, tensor-wise, random projection).
    ApolloMini,
    /// APOLLO-Mini with SVD projection (Fig. 5 ablation).
    ApolloMiniSvd,
}

impl Method {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::AdamW => "AdamW",
            Method::AdamWChannelwise { limiter: true } => "Channel-wise LR + NL",
            Method::AdamWChannelwise { limiter: false } => "Channel-wise LR",
            Method::AdamWElementwise => "Element-wise LR (AdamW)",
            Method::Adam8bit => "8-bit Adam",
            Method::Sgd => "SGD",
            Method::SgdMomentum => "SGD-M",
            Method::LowRank => "Low-Rank",
            Method::LoRa => "LoRA",
            Method::ReLoRa => "ReLoRA",
            Method::GaLore => "GaLore",
            Method::GaLoreRp => "GaLore w. RP",
            Method::GaLore8bit => "8-bit GaLore",
            Method::Fira => "Fira",
            Method::Flora => "Flora",
            Method::Apollo => "APOLLO",
            Method::ApolloHalfRank => "APOLLO (r/2)",
            Method::ApolloSvd => "APOLLO w. SVD",
            Method::ApolloTensor => "APOLLO (tensor)",
            Method::ApolloTensorSvd => "APOLLO w. SVD (tensor)",
            Method::ApolloMini => "APOLLO-Mini",
            Method::ApolloMiniSvd => "APOLLO-Mini w. SVD",
        }
    }

    /// The default rank for this method under a geometry: one quarter of
    /// the hidden dim (halved for the `†` variant, 1 for Mini).
    pub fn rank(&self, cfg: &ModelConfig) -> usize {
        match self {
            Method::ApolloHalfRank => (cfg.hidden / 8).max(1),
            Method::ApolloMini | Method::ApolloMiniSvd => 1,
            _ => cfg.default_rank(),
        }
    }

    /// APOLLO-Mini's gradient scale factor α = √(hidden/4): the paper's
    /// constant √128 *is* √(512/4) for its smallest (60M, hidden 512)
    /// geometry, so the proxy models keep that ratio.
    pub fn mini_alpha(cfg: &ModelConfig) -> f32 {
        (cfg.hidden as f32 / 4.0).sqrt()
    }

    /// How the model's linear layers are parameterized under this method.
    pub fn linear_mode(&self, cfg: &ModelConfig) -> LinearMode {
        let rank = self.rank(cfg);
        match self {
            Method::LowRank => LinearMode::Factored { rank },
            Method::LoRa | Method::ReLoRa => LinearMode::LoRa {
                rank,
                alpha: 2.0 * rank as f32,
            },
            _ => LinearMode::Dense,
        }
    }

    /// Instantiates the optimizer for a geometry.
    pub fn build(&self, cfg: &ModelConfig) -> Box<dyn Optimizer> {
        let rank = self.rank(cfg);
        match self {
            Method::AdamW
            | Method::AdamWElementwise
            | Method::LowRank
            | Method::LoRa
            | Method::ReLoRa => Box::new(AdamW::new()),
            Method::AdamWChannelwise { limiter } => Box::new(if *limiter {
                AdamWChannelwise::new()
            } else {
                AdamWChannelwise::new().without_limiter()
            }),
            Method::Adam8bit => Box::new(AdamW::adam8bit(128)),
            Method::Sgd => Box::new(Sgd::new()),
            Method::SgdMomentum => Box::new(SgdMomentum::new(0.9)),
            Method::GaLore => Box::new(GaLore::new(rank, UPDATE_FREQ)),
            Method::GaLoreRp => Box::new(GaLore::new(rank, UPDATE_FREQ).with_random_projection()),
            Method::GaLore8bit => Box::new(GaLore::galore8bit(rank, UPDATE_FREQ, 128)),
            Method::Fira => Box::new(Fira::new(rank, UPDATE_FREQ)),
            Method::Flora => Box::new(Flora::new(rank, UPDATE_FREQ)),
            Method::Apollo | Method::ApolloHalfRank => Box::new(Apollo::new(rank, UPDATE_FREQ)),
            Method::ApolloSvd => Box::new(Apollo::new(rank, UPDATE_FREQ).with_svd()),
            Method::ApolloTensor => {
                Box::new(Apollo::new(rank, UPDATE_FREQ).with_granularity(ScaleGranularity::Tensor))
            }
            Method::ApolloTensorSvd => Box::new(
                Apollo::new(rank, UPDATE_FREQ)
                    .with_svd()
                    .with_granularity(ScaleGranularity::Tensor),
            ),
            Method::ApolloMini => {
                Box::new(Apollo::mini(UPDATE_FREQ).with_alpha(Self::mini_alpha(cfg)))
            }
            Method::ApolloMiniSvd => Box::new(
                Apollo::mini(UPDATE_FREQ)
                    .with_alpha(Self::mini_alpha(cfg))
                    .with_svd(),
            ),
        }
    }

    /// The method's pre-training peak LR at proxy scale, calibrated with a
    /// small sweep at the 60M proxy (see EXPERIMENTS.md): 1e-2 for the
    /// AdamW family (with clipping), 3e-2 for the scaled-update family
    /// (which the norm-growth limiter stabilizes — the analogue of the
    /// paper's 1e-2-at-512-hidden recipe).
    pub fn default_lr(&self) -> f32 {
        match self {
            Method::AdamW
            | Method::AdamWElementwise
            | Method::AdamWChannelwise { .. }
            | Method::Adam8bit
            | Method::LowRank
            | Method::LoRa
            | Method::ReLoRa => 1e-2,
            Method::SgdMomentum | Method::Sgd => 0.3,
            _ => 3e-2,
        }
    }

    /// Whether the baseline uses global gradient clipping (the AdamW family
    /// does; APOLLO-family methods rely on the norm-growth limiter).
    pub fn grad_clip(&self) -> Option<f32> {
        match self {
            Method::AdamW
            | Method::AdamWElementwise
            | Method::Adam8bit
            | Method::LowRank
            | Method::LoRa
            | Method::ReLoRa
            | Method::Sgd
            | Method::SgdMomentum => Some(1.0),
            _ => None,
        }
    }

    /// ReLoRA's merge period.
    pub fn merge_every(&self, steps: usize) -> Option<usize> {
        match self {
            Method::ReLoRa => Some((steps / 4).max(1)),
            _ => None,
        }
    }
}

/// Global step-budget multiplier from `APOLLO_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("APOLLO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Applies the global scale to a step budget (minimum 20 steps).
pub fn scaled(steps: usize) -> usize {
    ((steps as f64 * scale()) as usize).max(20)
}

/// Where experiment outputs are written (`results/` under the workspace).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("APOLLO_RESULTS").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Writes a JSON result file under [`results_dir`].
pub fn write_json(name: &str, value: &impl serde::Serialize) {
    let path = results_dir().join(format!("{name}.json"));
    let data = serde_json::to_string_pretty(value).expect("serialize");
    std::fs::write(&path, data).expect("write result");
    eprintln!("[saved {}]", path.display());
}

/// Prints a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    println!("\n== {title} ==");
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// One pre-training run of `method` on `cfg`'s proxy geometry.
///
/// Deterministic given `seed`; the corpus is shared across methods so every
/// optimizer sees the same data stream.
pub fn pretrain_run(
    cfg: &ModelConfig,
    method: Method,
    steps: usize,
    batch: usize,
    seed: u64,
    train_overrides: Option<TrainConfig>,
) -> RunLog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut model = LlamaModel::new(cfg, method.linear_mode(cfg), &mut rng);
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let mut batcher = LmBatcher::new(corpus, batch, cfg.max_seq);
    let mut opt = method.build(cfg);
    let tc = train_overrides.unwrap_or(TrainConfig {
        steps,
        lr: method.default_lr(),
        grad_clip: method.grad_clip(),
        eval_every: 0,
        eval_seqs: 32,
        merge_every: method.merge_every(steps),
        record_step_times: false,
        grad_accum: 1,
        quantize_weights: None,
    });
    let mut log = pretrain(&mut model, opt.as_mut(), &mut batcher, &tc);
    log.optimizer = method.label().to_string();
    log
}

/// Like [`pretrain_run`], but threads an [`Obs`] handle through the loop so
/// figure probes can read phase timings, channel-scale summaries, projector
/// refreshes, and limiter clips from the JSONL trace afterwards.
pub fn pretrain_run_observed(
    cfg: &ModelConfig,
    method: Method,
    steps: usize,
    batch: usize,
    seed: u64,
    train_overrides: Option<TrainConfig>,
    obs: &Obs,
) -> RunLog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut model = LlamaModel::new(cfg, method.linear_mode(cfg), &mut rng);
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(cfg.vocab_size));
    let mut batcher = LmBatcher::new(corpus, batch, cfg.max_seq);
    let mut opt = method.build(cfg);
    let tc = train_overrides.unwrap_or(TrainConfig {
        steps,
        lr: method.default_lr(),
        grad_clip: method.grad_clip(),
        eval_every: 0,
        eval_seqs: 32,
        merge_every: method.merge_every(steps),
        record_step_times: false,
        grad_accum: 1,
        quantize_weights: None,
    });
    let res = ResilienceConfig::default();
    let mut log = pretrain_observed(&mut model, opt.as_mut(), &mut batcher, &tc, &res, obs);
    log.optimizer = method.label().to_string();
    log
}

/// The proxy geometry standing in for each paper model size.
pub fn proxy_for(paper_size: &str) -> ModelConfig {
    match paper_size {
        "60M" => ModelConfig::tiny_60m(),
        "130M" => ModelConfig::tiny_130m(),
        "350M" => ModelConfig::tiny_350m(),
        "1B" => ModelConfig::tiny_1b(),
        "7B" => ModelConfig::tiny_7b(),
        other => panic!("unknown paper size {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let all = [
            Method::AdamW,
            Method::Adam8bit,
            Method::Sgd,
            Method::SgdMomentum,
            Method::LowRank,
            Method::LoRa,
            Method::ReLoRa,
            Method::GaLore,
            Method::GaLoreRp,
            Method::GaLore8bit,
            Method::Fira,
            Method::Flora,
            Method::Apollo,
            Method::ApolloHalfRank,
            Method::ApolloSvd,
            Method::ApolloTensor,
            Method::ApolloMini,
            Method::ApolloMiniSvd,
        ];
        let mut labels: Vec<&str> = all.iter().map(Method::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn mini_alpha_matches_paper_constant_at_512_hidden() {
        let alpha = Method::mini_alpha(&ModelConfig::llama_60m());
        assert!((alpha - 128f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn ranks_follow_quarter_hidden_rule() {
        let cfg = ModelConfig::tiny_60m(); // hidden 64
        assert_eq!(Method::Apollo.rank(&cfg), 16);
        assert_eq!(Method::ApolloHalfRank.rank(&cfg), 8);
        assert_eq!(Method::ApolloMini.rank(&cfg), 1);
    }

    #[test]
    fn quick_pretrain_run_smoke() {
        let cfg = ModelConfig::test_tiny();
        let log = pretrain_run(&cfg, Method::Apollo, 20, 2, 7, None);
        assert!(log.final_ppl.is_finite());
        assert_eq!(log.optimizer, "APOLLO");
    }
}
