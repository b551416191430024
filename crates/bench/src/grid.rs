//! The size × row grids: every row pre-trained at each proxy size (Tables
//! 2, 6 and 7, Fig. 5 a–c), plus Fig. 5's rank sweep.

use apollo_nn::{LinearMode, ModelConfig};
use apollo_obs::Obs;
use apollo_optim::Method;
use apollo_optim::ProjKind::{self, Random, Svd};
use apollo_optim::ScaleGranularity::{self, Channel, Tensor};
use apollo_sysmodel::{MemoryOptions, TrainingMemoryModel, WeightPrecision};
use apollo_train::{RunLog, TrainConfig};
use serde::Serialize;

use crate::{fresh, json, print_table, train, Ctx, Model, Row, Rows};

/// Proxy sizes with their step budgets at scale 1.
type Sizes = [(&'static str, usize)];

const TABLE2_SIZES: &Sizes = &[("60M", 600), ("130M", 300), ("350M", 150), ("1B", 60)];
const SIZES: &Sizes = &[("60M", 300), ("130M", 150), ("350M", 80)];

/// The proxy geometry a paper model size trains at, and the paper
/// geometry its memory column counts at.
fn geometry(size: &str) -> (ModelConfig, ModelConfig) {
    match size {
        "60M" => (ModelConfig::tiny_60m(), ModelConfig::llama_60m()),
        "130M" => (ModelConfig::tiny_130m(), ModelConfig::llama_130m()),
        "350M" => (ModelConfig::tiny_350m(), ModelConfig::llama_350m()),
        "1B" => (ModelConfig::tiny_1b(), ModelConfig::llama_1b()),
        other => panic!("unknown paper size {other}"),
    }
}

/// Weights + optimizer states (Tables 2 and 6's "Memory") of `method` at
/// the paper geometry `cfg`, with weights stored at `weights`.
fn paper_memory_gib(cfg: &ModelConfig, method: Method, weights: WeightPrecision) -> f64 {
    let opts = MemoryOptions {
        weights,
        ..MemoryOptions::figure1(256)
    };
    let b = TrainingMemoryModel::new(cfg).breakdown(method, &opts);
    b.weights_gib + b.optimizer_gib
}

/// A row trained at one proxy size, beside the same row at the paper
/// geometry.
struct Cell {
    size: &'static str,
    row: Row,
    paper: Row,
    log: RunLog,
}

/// Trains each row of `rows` at every size's proxy (sizes outermost) in
/// batches of 4, under the config `tc` gives the row at the size's budget.
fn grid(
    ctx: &Ctx,
    tag: &str,
    sizes: &Sizes,
    rows: fn(&ModelConfig) -> Vec<Row>,
    seed: u64,
    tc: impl Fn(&Row, usize) -> TrainConfig,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &(size, steps) in sizes {
        let steps = ctx.steps(steps);
        let (proxy, paper) = geometry(size);
        for (row, paper) in rows(&proxy).into_iter().zip(rows(&paper)) {
            eprintln!("[{tag}] {size} {} ({steps} steps) ...", row.label);
            let log = row.run(&proxy, 4, seed, &tc(&row, steps), &Obs::disabled());
            let cell = Cell {
                size,
                row,
                paper,
                log,
            };
            cells.push(cell);
        }
    }
    cells
}

/// Prints one line per row: its ppl at each size, each beside the paper
/// geometry's `memory` where the artefact has that column.
fn print_grid(title: &str, sizes: &Sizes, cells: &[Cell], memory: Option<&dyn Fn(&Cell) -> f64>) {
    let mem = if memory.is_some() { " | mem" } else { "" };
    let mut headers = "Method".to_string();
    for (size, _) in sizes {
        headers += &format!(" | {size} ppl{mem}");
    }
    let per_size = cells.len() / sizes.len();
    let line = |i: usize| {
        let mut line = vec![cells[i].row.label.clone()];
        for c in cells[i..].iter().step_by(per_size) {
            line.push(format!("{:.2}", c.log.final_ppl));
            line.extend(memory.map(|m| format!("{:.2}G", m(c))));
        }
        line
    };
    let lines: Vec<Vec<String>> = (0..per_size).map(line).collect();
    print_table(title, &headers, &lines);
}

/// `rows` at each size's proxy and paper geometry.
fn at_sizes(sizes: &Sizes, rows: fn(&ModelConfig) -> Vec<Row>) -> Rows {
    let geometries = sizes
        .iter()
        .flat_map(|(size, _)| <[ModelConfig; 2]>::from(geometry(size)));
    geometries.map(|cfg| (cfg.clone(), rows(&cfg))).collect()
}

/// APOLLO at `rank` with the given projection and scaling granularity.
fn apollo(rank: usize, proj: ProjKind, granularity: ScaleGranularity) -> Method {
    Method::Apollo {
        rank,
        proj,
        granularity,
    }
}

/// Table 2's rows: APOLLO at n/4, its `†` row at n/8.
pub(crate) fn table2_at(cfg: &ModelConfig) -> Vec<Row> {
    let r = cfg.default_rank();
    vec![
        Row::new("AdamW", Method::adamw()),
        Row::on("Low-Rank", Method::adamw(), Model::Factored { rank: r }),
        Row::on("LoRA", Method::adamw(), Model::LoRa { rank: r }),
        Row::on("ReLoRA", Method::adamw(), Model::ReLoRa { rank: r }),
        Row::new("GaLore", Method::galore(r)),
        Row::new("Fira", Method::Fira { rank: r }),
        Row::new("APOLLO w. SVD", Method::apollo_svd(r)),
        Row::new("APOLLO", Method::apollo(r)),
        Row::new("APOLLO (r/2)", Method::apollo((cfg.hidden / 8).max(1))),
        Row::new("APOLLO-Mini", Method::mini()),
    ]
}

pub(crate) fn table2_rows() -> Rows {
    at_sizes(TABLE2_SIZES, table2_at)
}

#[derive(Serialize)]
struct Table2Cell {
    method: String,
    size: String,
    ppl: f32,
    memory_gib: f64,
    state_elems: usize,
    wall_secs: f64,
}

/// Table 2: pre-training validation perplexity across methods and model
/// sizes (60M–1B proxies), with the paper-geometry memory column (weights
/// + optimizer states).
pub(crate) fn table2(ctx: &Ctx, seed: u64) -> String {
    let cells = grid(ctx, "table2", TABLE2_SIZES, table2_at, seed, Row::recipe);
    let memory = |c: &Cell| {
        let paper = geometry(c.size).1;
        paper_memory_gib(&paper, c.paper.method, WeightPrecision::Bf16)
    };
    print_grid(
        "Table 2 — pre-training val ppl (proxy) and memory (paper geometry, weights+states)",
        TABLE2_SIZES,
        &cells,
        Some(&memory),
    );
    println!(
        "\nPaper shape: Low-Rank ≫ worst; LoRA/ReLoRA trail AdamW; GaLore ≈ AdamW; \
         Fira/APOLLO(±SVD, ±half-rank)/Mini ≤ AdamW at a fraction of the memory."
    );
    let cells: Vec<Table2Cell> = cells
        .iter()
        .map(|c| Table2Cell {
            method: c.row.label.clone(),
            size: c.size.to_string(),
            ppl: c.log.final_ppl,
            memory_gib: memory(c),
            state_elems: c.log.state_elems,
            wall_secs: c.log.wall_secs,
        })
        .collect();
    json(&cells)
}

/// Table 6's rows; the `Q-` rows train INT8 weights.
fn table6_at(cfg: &ModelConfig) -> Vec<Row> {
    let r = cfg.default_rank();
    vec![
        Row::new("AdamW", Method::adamw()),
        Row::new("GaLore", Method::galore(r)),
        Row::new("Q-GaLore", Method::galore(r)),
        Row::new("APOLLO", Method::apollo(r)),
        Row::new("Q-APOLLO", Method::apollo(r)),
        Row::new("APOLLO-Mini", Method::mini()),
        Row::new("Q-APOLLO-Mini", Method::mini()),
    ]
}

pub(crate) fn table6_rows() -> Rows {
    at_sizes(SIZES, table6_at)
}

/// The INT8 group of a Table 6 row's weights.
fn int8_group(row: &Row) -> Option<usize> {
    row.label.starts_with("Q-").then_some(128)
}

#[derive(Serialize)]
struct Table6Cell {
    method: String,
    size: String,
    ppl: f32,
    memory_gib: f64,
}

/// Table 6: APOLLO-series combined with INT8 weight quantization (Q-APOLLO
/// / Q-APOLLO-Mini vs Q-GaLore), with the paper-geometry memory column
/// (weights + states, INT8 weights at group 128).
pub(crate) fn table6(ctx: &Ctx, seed: u64) -> String {
    let tc = |row: &Row, steps| TrainConfig {
        quantize_weights: int8_group(row),
        ..row.quick(steps)
    };
    let cells = grid(ctx, "table6", SIZES, table6_at, seed, tc);
    let memory = |c: &Cell| {
        let int8 = |group| WeightPrecision::Int8 { group };
        let weights = int8_group(&c.row).map_or(WeightPrecision::Bf16, int8);
        paper_memory_gib(&geometry(c.size).1, c.paper.method, weights)
    };
    print_grid(
        "Table 6 — INT8-weight training (proxy ppl; paper-geometry weights+states memory)",
        SIZES,
        &cells,
        Some(&memory),
    );
    println!(
        "\nPaper shape: Q-variants cost a small ppl penalty but halve weight memory; \
         Q-APOLLO stays clearly below Q-GaLore's perplexity."
    );
    let cells: Vec<Table6Cell> = cells
        .iter()
        .map(|c| Table6Cell {
            method: c.row.label.clone(),
            size: c.size.to_string(),
            ppl: c.log.final_ppl,
            memory_gib: memory(c),
        })
        .collect();
    json(&cells)
}

/// Table 7's rows at rank n/4: channel- and tensor-wise scaling under both
/// projections.
fn table7_at(cfg: &ModelConfig) -> Vec<Row> {
    let r = cfg.default_rank();
    vec![
        Row::new("AdamW", Method::adamw()),
        Row::new("GaLore", Method::galore(r)),
        Row::new("APOLLO w. SVD", apollo(r, Svd, Channel)),
        Row::new("APOLLO w. SVD (tensor)", apollo(r, Svd, Tensor)),
        Row::new("APOLLO", apollo(r, Random, Channel)),
        Row::new("APOLLO (tensor)", apollo(r, Random, Tensor)),
    ]
}

pub(crate) fn table7_rows() -> Rows {
    at_sizes(SIZES, table7_at)
}

#[derive(Serialize)]
struct Table7Cell {
    method: String,
    granularity: String,
    size: String,
    ppl: f32,
}

/// Table 7: scaling-factor granularity ablation — channel-wise vs
/// tensor-wise, under both projection kinds, at rank n/4.
pub(crate) fn table7(ctx: &Ctx, seed: u64) -> String {
    let cells = grid(ctx, "table7", SIZES, table7_at, seed, Row::recipe);
    let title = "Table 7 — scaling-factor granularity at rank n/4 (val ppl)";
    print_grid(title, SIZES, &cells, None);
    println!(
        "\nPaper shape: at rank n/4 tensor-wise is within a whisker of channel-wise, and both \
         beat AdamW/GaLore — granularity only matters in the extreme low-rank regime (Fig. 5d)."
    );
    let cells: Vec<Table7Cell> = cells
        .iter()
        .map(|c| Table7Cell {
            method: c.row.label.trim_end_matches(" (tensor)").to_string(),
            granularity: match c.row.method {
                Method::Apollo { granularity, .. } => format!("{granularity:?}"),
                _ => "-".to_string(),
            },
            size: c.size.to_string(),
            ppl: c.log.final_ppl,
        })
        .collect();
    json(&cells)
}

/// Fig. 5 (a–c)'s rows: each method under SVD and random projection.
fn fig5_at(cfg: &ModelConfig) -> Vec<Row> {
    let r = cfg.default_rank();
    let galore_rp = Method::GaLore {
        rank: r,
        proj: Random,
        int8: false,
    };
    vec![
        Row::new("AdamW", Method::adamw()),
        Row::new("GaLore", Method::galore(r)),
        Row::new("GaLore w. RP", galore_rp),
        Row::new("APOLLO w. SVD", Method::apollo_svd(r)),
        Row::new("APOLLO", Method::apollo(r)),
        Row::new("APOLLO-Mini w. SVD", apollo(1, Svd, Tensor)),
        Row::new("APOLLO-Mini", Method::mini()),
    ]
}

/// Fig. 5 (d)'s rank sweep at `rank`, APOLLO-Mini's tensor-wise scaling
/// above rank 1 as well.
fn sweep_at(rank: usize) -> Vec<Row> {
    vec![
        Row::new("GaLore", Method::galore(rank)),
        Row::new("Fira", Method::Fira { rank }),
        Row::new("APOLLO", Method::apollo(rank)),
        Row::new("APOLLO-Mini", apollo(rank, Random, Tensor)),
    ]
}

/// The rank sweep's ranks on the 60M proxy (hidden 64, so n/4 = 16).
const SWEEP_RANKS: [usize; 5] = [1, 2, 4, 8, 16];

pub(crate) fn fig5_rows() -> Rows {
    let sweep = SWEEP_RANKS.map(|rank| (ModelConfig::tiny_60m(), sweep_at(rank)));
    at_sizes(SIZES, fig5_at).into_iter().chain(sweep).collect()
}

#[derive(Serialize)]
struct SweepPoint {
    method: String,
    rank: usize,
    ppl: f32,
}

/// Fig. 5 (a–c): SVD vs random projection per method and model size —
/// GaLore degrades badly under random projection while APOLLO and
/// APOLLO-Mini are robust. (d): rank sweep on the 60M proxy — GaLore needs
/// n/4, APOLLO tolerates much lower ranks, APOLLO-Mini works at rank 1.
pub(crate) fn fig5(ctx: &Ctx, seed: u64) -> String {
    let cells = grid(ctx, "fig5 a-c", SIZES, fig5_at, seed, Row::recipe);
    print_grid(
        "Fig. 5 (a-c) — SVD vs random projection (val ppl)",
        SIZES,
        &cells,
        None,
    );
    // A rankless row reports its proxy's n/4.
    let rank = |c: &Cell| match c.row.method {
        Method::Apollo { rank, .. } | Method::GaLore { rank, .. } => rank,
        _ => geometry(c.size).0.default_rank(),
    };
    let mut points: Vec<SweepPoint> = cells
        .iter()
        .map(|c| SweepPoint {
            method: c.row.label.clone(),
            rank: rank(c),
            ppl: c.log.final_ppl,
        })
        .collect();

    // The sweep trains every row at LR 1e-2; APOLLO-Mini's tensor-wise rows
    // scale by Mini's α at every rank, APOLLO's by 1.
    let cfg = ModelConfig::tiny_60m();
    let tc = TrainConfig {
        lr: 1e-2,
        ..TrainConfig::quick(ctx.steps(300))
    };
    let mini = Method::mini_alpha(cfg.hidden);
    let alpha = |row: &Row| match row.label.as_str() {
        "APOLLO-Mini" => mini,
        _ => 1.0,
    };
    let mut lines = Vec::new();
    for rank in SWEEP_RANKS {
        eprintln!("[fig5 d] rank {rank} ...");
        let mut line = vec![format!("{rank}")];
        for row in sweep_at(rank) {
            let mut model = fresh(&cfg, LinearMode::Dense, seed);
            let mut opt = row.optimizer(mini, alpha(&row));
            let ppl = train(&mut model, opt.as_mut(), 4, &tc, &Obs::disabled()).final_ppl;
            line.push(format!("{ppl:.2}"));
            let method = format!("{} (rank sweep)", row.label);
            points.push(SweepPoint { method, rank, ppl });
        }
        lines.push(line);
    }
    // Part (a–c)'s 60M AdamW cell is the sweep's reference run.
    let adamw = cells[0].log.final_ppl;
    print_table(
        &format!(
            "Fig. 5 (d) — rank sweep on {} (AdamW reference: {adamw:.2})",
            cfg.name
        ),
        "Rank | GaLore | Fira | APOLLO | APOLLO-Mini (tensor)",
        &lines,
    );
    println!(
        "\nPaper shape: GaLore w. RP fails; APOLLO family robust to RP. GaLore needs rank n/4; \
         APOLLO degrades gently; tensor-wise scaling works even at rank 1."
    );
    json(&points)
}
