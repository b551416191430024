//! The paper's tables and figures, regenerated by one `paper` binary.
//!
//! [`ARTEFACTS`] lists every artefact this reproduction regenerates: its id
//! (also the name of the `results/<id>.json` it writes), the part of the
//! paper it stands for, the seed its runs draw from, the rows it trains or
//! counts, and the function that runs it. The `paper` binary runs entries
//! of the table (`paper <id>…` or `paper all`; see DESIGN.md's experiment
//! index).
//!
//! A [`Row`] is a label, a row of the one method table
//! ([`apollo_optim::Method`]) and how the model's linear layers are
//! parameterized ([`Model`]), built at the geometry the artefact trains or
//! counts at. Every run is deterministic given its seed; [`Ctx::steps`]
//! scales every training budget by `--scale`, so the suite can be traded
//! between fidelity and wall-clock.

use std::path::{Path, PathBuf};

use apollo_data::{CorpusConfig, LmBatcher, SyntheticCorpus};
use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_obs::Obs;
use apollo_optim::{Method, Optimizer};
use apollo_tensor::Rng;
use apollo_train::{pretrain_observed, ResilienceConfig, RunLog, TrainConfig};

mod analytic;
mod finetune;
mod grid;
mod probes;

/// Where a run writes and how far it scales its training budgets.
pub struct Ctx {
    /// Multiplier on every training-step budget (`--scale`).
    pub scale: f64,
    /// Directory of the `<id>.json` files and run traces (`--out`).
    pub out: PathBuf,
}

impl Ctx {
    /// A step budget under the scale (at least 20 steps).
    pub fn steps(&self, steps: usize) -> usize {
        ((steps as f64 * self.scale) as usize).max(20)
    }
}

/// Each geometry an artefact trains or counts at, with its rows there.
pub type Rows = Vec<(ModelConfig, Vec<Row>)>;

/// One table or figure of the paper.
pub struct Artefact {
    /// Names the artefact on the command line and its `<id>.json`.
    pub id: &'static str,
    /// The part of the paper it reproduces.
    pub paper: &'static str,
    /// The seed its runs draw from (0 where nothing is drawn).
    pub seed: u64,
    /// The rows it trains or counts.
    pub rows: fn() -> Rows,
    /// Runs it with the seed and returns the JSON of its results.
    pub run: fn(&Ctx, u64) -> String,
}

/// Every artefact, in the order `paper all` runs them: the analytic ones
/// first, then the training ones, most important first.
#[rustfmt::skip]
pub const ARTEFACTS: [Artefact; 18] = [
    Artefact { id: "table1_memory", paper: "Table 1", seed: 0, rows: analytic::table1_rows, run: analytic::table1 },
    Artefact { id: "fig1_memory", paper: "Fig. 1 (middle)", seed: 0, rows: analytic::fig1_memory_rows, run: analytic::fig1_memory },
    Artefact { id: "fig1_throughput", paper: "Fig. 1 (right)", seed: 0xF161, rows: analytic::fig1_throughput_rows, run: analytic::fig1_throughput },
    Artefact { id: "claims_system", paper: "§5.3", seed: 0, rows: Vec::new, run: analytic::claims_system },
    Artefact { id: "table2_pretrain", paper: "Table 2", seed: 42, rows: grid::table2_rows, run: grid::table2 },
    Artefact { id: "fig5_projection_rank", paper: "Fig. 5", seed: 42, rows: grid::fig5_rows, run: grid::fig5 },
    Artefact { id: "table3_llama7b", paper: "Table 3", seed: 42, rows: probes::table3_rows, run: probes::table3 },
    Artefact { id: "fig2_llama7b", paper: "Fig. 2", seed: 42, rows: probes::fig2_rows, run: probes::fig2 },
    Artefact { id: "fig3_structured_lr", paper: "Fig. 3", seed: 42, rows: probes::fig3_rows, run: probes::fig3 },
    Artefact { id: "fig4_ratio", paper: "Figs. 4 and 8", seed: 7, rows: Vec::new, run: probes::fig4 },
    Artefact { id: "fig6_curves", paper: "Fig. 6", seed: 42, rows: probes::fig6_rows, run: probes::fig6 },
    Artefact { id: "fig7_longcontext", paper: "Fig. 7", seed: 42, rows: probes::fig7_rows, run: probes::fig7 },
    Artefact { id: "fig9_svd_spikes", paper: "Fig. 9", seed: 99, rows: probes::fig9_rows, run: probes::fig9 },
    Artefact { id: "table4_commonsense", paper: "Table 4", seed: 42, rows: finetune::table4_rows, run: finetune::table4 },
    Artefact { id: "table5_mmlu", paper: "Table 5", seed: 43, rows: finetune::table5_rows, run: finetune::table5 },
    Artefact { id: "table6_quantized", paper: "Table 6", seed: 42, rows: grid::table6_rows, run: grid::table6 },
    Artefact { id: "table7_granularity", paper: "Table 7", seed: 42, rows: grid::table7_rows, run: grid::table7 },
    Artefact { id: "ablations", paper: "beyond the paper: T, α, γ", seed: 42, rows: Vec::new, run: probes::ablations },
];

/// Runs `artefact` and writes its results to `<out>/<id>.json`.
pub fn run(artefact: &Artefact, ctx: &Ctx) {
    std::fs::create_dir_all(&ctx.out).expect("create the output directory");
    save(&ctx.out, artefact.id, &(artefact.run)(ctx, artefact.seed));
}

/// Writes `results/<name>.json` (the kernel table's timing record).
pub fn write_json(name: &str, value: &impl serde::Serialize) {
    std::fs::create_dir_all("results").expect("create results dir");
    save(Path::new("results"), name, &json(value));
}

fn save(dir: &Path, name: &str, json: &str) {
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write result");
    eprintln!("[saved {}]", path.display());
}

/// Pretty JSON of an artefact's results.
fn json(value: &impl serde::Serialize) -> String {
    serde_json::to_string_pretty(value).expect("serialize")
}

/// How a row parameterizes the model's linear layers. The factored and
/// adapter models train their parameters with AdamW.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Model {
    /// Full-rank weights.
    Dense,
    /// `W = UV` at `rank` ("Low-Rank" in Table 2).
    Factored { rank: usize },
    /// LoRA adapters at `rank` on a frozen backbone.
    LoRa { rank: usize },
    /// LoRA with merges every quarter of the run (ReLoRA).
    ReLoRa { rank: usize },
}

impl Model {
    /// The layers' parameterization; adapters scale by `2·rank / rank`.
    fn linear_mode(self) -> LinearMode {
        match self {
            Model::Dense => LinearMode::Dense,
            Model::Factored { rank } => LinearMode::Factored { rank },
            Model::LoRa { rank } | Model::ReLoRa { rank } => LinearMode::LoRa {
                rank,
                alpha: 2.0 * rank as f32,
            },
        }
    }
}

/// A row of an artefact: its label, the method it trains with and the
/// model it trains.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub label: String,
    pub method: Method,
    pub model: Model,
}

impl Row {
    /// A dense-model row.
    pub(crate) fn new(label: &str, method: Method) -> Row {
        Row::on(label, method, Model::Dense)
    }

    /// A row training `model`.
    pub(crate) fn on(label: &str, method: Method, model: Model) -> Row {
        Row {
            label: label.to_string(),
            method,
            model,
        }
    }

    /// The method table's LR and clipping on [`TrainConfig::quick`].
    pub(crate) fn quick(&self, steps: usize) -> TrainConfig {
        TrainConfig {
            lr: self.method.lr(),
            grad_clip: self.method.grad_clip(),
            ..TrainConfig::quick(steps)
        }
    }

    /// The paper recipe: the method table's LR and clipping, ReLoRA's
    /// merges, and one evaluation at the end over 32 sequences.
    pub(crate) fn recipe(&self, steps: usize) -> TrainConfig {
        let relora = matches!(self.model, Model::ReLoRa { .. });
        TrainConfig {
            eval_seqs: 32,
            merge_every: relora.then_some((steps / 4).max(1)),
            ..self.quick(steps)
        }
    }

    /// The row's optimizer, APOLLO-Mini scaling its gradient by
    /// `mini_alpha` and every other APOLLO row by `alpha`.
    pub(crate) fn optimizer(&self, mini_alpha: f32, alpha: f32) -> Box<dyn Optimizer> {
        let built = self.method.build(mini_alpha, alpha, None);
        built.expect("a serial build takes every method")
    }

    /// One pre-training run of this row at `cfg` under `tc`, labelled with
    /// the row's label.
    pub(crate) fn run(
        &self,
        cfg: &ModelConfig,
        batch: usize,
        seed: u64,
        tc: &TrainConfig,
        obs: &Obs,
    ) -> RunLog {
        let mut model = fresh(cfg, self.model.linear_mode(), seed);
        let mut opt = self.optimizer(Method::mini_alpha(cfg.hidden), 1.0);
        let mut log = train(&mut model, opt.as_mut(), batch, tc, obs);
        log.optimizer = self.label.clone();
        log
    }
}

/// A `mode` model at `cfg`, initialized from `seed`.
pub(crate) fn fresh(cfg: &ModelConfig, mode: LinearMode, seed: u64) -> LlamaModel {
    LlamaModel::new(cfg, mode, &mut Rng::seed_from_u64(seed))
}

/// Pre-trains `model` with `opt` under `tc` in batches of `batch`, over the
/// synthetic corpus every run shares, so each optimizer sees the same data
/// stream.
pub(crate) fn train(
    model: &mut LlamaModel,
    opt: &mut dyn Optimizer,
    batch: usize,
    tc: &TrainConfig,
    obs: &Obs,
) -> RunLog {
    let corpus = SyntheticCorpus::new(CorpusConfig::with_vocab(model.config().vocab_size));
    let mut batcher = LmBatcher::new(corpus, batch, model.config().max_seq);
    let res = ResilienceConfig::default();
    pretrain_observed(model, opt, &mut batcher, tc, &res, obs)
}

/// Prints a fixed-width text table under `headers`, its column names
/// separated by `|`.
pub fn print_table(title: &str, headers: &str, rows: &[Vec<String>]) {
    let headers: Vec<String> = headers.split('|').map(|h| h.trim().to_string()).collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        let cells = cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
        cells.collect::<Vec<_>>().join("  ")
    };
    println!("\n== {title} ==\n{}", fmt_row(&headers));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_name_the_committed_results() {
        let mut ids: Vec<&str> = ARTEFACTS.iter().map(|a| a.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ARTEFACTS.len());
        // `<id>.json` is the file each writes; `kernel_table.json` is a
        // local timing record, not an artefact.
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut files: Vec<String> = std::fs::read_dir(results)
            .expect("results/")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.ends_with(".json") && f != "kernel_table.json")
            .collect();
        files.sort_unstable();
        let expected: Vec<String> = ids.iter().map(|id| format!("{id}.json")).collect();
        assert_eq!(files, expected);
    }

    #[test]
    fn every_row_builds_at_its_geometry() {
        for a in &ARTEFACTS {
            for (cfg, rows) in (a.rows)() {
                for row in rows {
                    let alpha = Method::mini_alpha(cfg.hidden);
                    let built = row.method.build(alpha, 1.0, None);
                    assert!(built.is_ok(), "{}: {} at {}", a.id, row.label, cfg.name);
                }
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        for a in &ARTEFACTS {
            for (cfg, rows) in (a.rows)() {
                let mut labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
                labels.sort_unstable();
                labels.dedup();
                assert_eq!(labels.len(), rows.len(), "{} at {}", a.id, cfg.name);
            }
        }
    }

    #[test]
    fn ranks_follow_quarter_hidden_rule() {
        // Table 2 at the 60M proxy (hidden 64): APOLLO at n/4, its † rows at
        // n/8, Mini at rank 1.
        let rows = grid::table2_at(&ModelConfig::tiny_60m());
        let rank = |label: &str| match rows.iter().find(|r| r.label == label).unwrap().method {
            Method::Apollo { rank, .. } => rank,
            other => panic!("{label} is {other:?}"),
        };
        assert_eq!(rank("APOLLO"), 16);
        assert_eq!(rank("APOLLO (r/2)"), 8);
        assert_eq!(rank("APOLLO-Mini"), 1);
    }

    #[test]
    fn quick_pretrain_run_smoke() {
        let cfg = ModelConfig::test_tiny();
        let row = Row::new("APOLLO", Method::apollo(cfg.default_rank()));
        let log = row.run(&cfg, 2, 7, &row.recipe(20), &Obs::disabled());
        assert!(log.final_ppl.is_finite());
        assert_eq!(log.optimizer, "APOLLO");
    }
}
