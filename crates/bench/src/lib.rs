//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/<id>.rs` binary reproduces one artifact (see DESIGN.md's
//! experiment index) by delegating to this library: a [`Method`] registry
//! naming the paper's rows, each mapped to a row of the optimizer method
//! table ([`apollo_optim::Method`]) and a model parameterization, a
//! [`pretrain_run`] driver, and plain-text/JSON output helpers.
//!
//! All runs are deterministic given their seeds. Step budgets scale with
//! the `APOLLO_SCALE` environment variable (default 1.0) so the full suite
//! can be traded between fidelity and wall-clock.

use std::path::PathBuf;

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_obs::Obs;
use apollo_optim::ProjKind::{Random, Svd};
use apollo_optim::ScaleGranularity::{Channel, Tensor};
use apollo_tensor::Rng;
use apollo_train::{pretrain_observed, ResilienceConfig, RunLog, TrainConfig};

pub use apollo_optim::UPDATE_FREQ;

/// A row of the paper's evaluation: the optimizer it trains with and how
/// the model is parameterized, for a given model geometry.
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

    /// APOLLO-Mini's gradient scale factor α at `cfg`'s hidden size
    /// ([`apollo_optim::Method::mini_alpha`]).
    pub fn mini_alpha(cfg: &ModelConfig) -> f32 {
        apollo_optim::Method::mini_alpha(cfg.hidden)
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

    /// The method-table row this method trains with at `cfg`'s rank. The
    /// factored and adapter baselines train their parameters with AdamW.
    pub fn optimizer(&self, cfg: &ModelConfig) -> apollo_optim::Method {
        use apollo_optim::Method as Opt;
        let rank = self.rank(cfg);
        let apollo = |proj, granularity| Opt::Apollo {
            rank,
            proj,
            granularity,
        };
        let galore = |proj, int8| Opt::GaLore { rank, proj, int8 };
        match *self {
            Method::AdamW
            | Method::AdamWElementwise
            | Method::LowRank
            | Method::LoRa
            | Method::ReLoRa => Opt::adamw(),
            Method::AdamWChannelwise { limiter } => Opt::AdamWChannelwise { limiter },
            Method::Adam8bit => Opt::AdamW { int8: true },
            Method::Sgd => Opt::Sgd,
            Method::SgdMomentum => Opt::SgdMomentum,
            Method::GaLore => galore(Svd, false),
            Method::GaLoreRp => galore(Random, false),
            Method::GaLore8bit => galore(Svd, true),
            Method::Fira => Opt::Fira { rank },
            Method::Flora => Opt::Flora { rank },
            Method::Apollo | Method::ApolloHalfRank => apollo(Random, Channel),
            Method::ApolloSvd => apollo(Svd, Channel),
            Method::ApolloTensor | Method::ApolloMini => apollo(Random, Tensor),
            Method::ApolloTensorSvd | Method::ApolloMiniSvd => apollo(Svd, Tensor),
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

/// The paper recipe for `method` on `cfg`: the method table's LR and
/// clipping, ReLoRA's merges, and one evaluation at the end.
pub fn paper_recipe(cfg: &ModelConfig, method: Method, steps: usize) -> TrainConfig {
    let opt = method.optimizer(cfg);
    TrainConfig {
        steps,
        lr: opt.lr(),
        grad_clip: opt.grad_clip(),
        eval_every: 0,
        eval_seqs: 32,
        merge_every: method.merge_every(steps),
        record_step_times: false,
        grad_accum: 1,
        quantize_weights: None,
    }
}

/// One pre-training run of `method` on `cfg`'s proxy geometry, under
/// [`paper_recipe`] unless `train_overrides` is given.
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
    let obs = Obs::disabled();
    pretrain_run_observed(cfg, method, steps, batch, seed, train_overrides, &obs)
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
    let mut opt = method
        .optimizer(cfg)
        .build(Method::mini_alpha(cfg), 1.0, None)
        .expect("a serial build takes every method");
    let tc = train_overrides.unwrap_or_else(|| paper_recipe(cfg, method, steps));
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
            Method::AdamWChannelwise { limiter: false },
            Method::AdamWChannelwise { limiter: true },
            Method::AdamWElementwise,
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
            Method::ApolloTensorSvd,
            Method::ApolloMini,
            Method::ApolloMiniSvd,
        ];
        let mut labels: Vec<&str> = all.iter().map(Method::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 22);
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
