//! Regenerates the paper's tables and figures.
//!
//! ```text
//! paper <id>… | all   [--scale F] [--out DIR]
//! ```
//!
//! Runs each named artefact of [`apollo_bench::ARTEFACTS`] (or all of them,
//! in table order) and writes `<DIR>/<id>.json` (default `results/`).
//! `--scale` multiplies every training-step budget (default 1). A failing
//! artefact does not stop the others: the run exits 1 naming every one
//! that failed, whose `<id>.json` is then the previous run's.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use apollo_bench::{run, Artefact, Ctx, ARTEFACTS};

fn parse(args: &[String]) -> Result<(Vec<&'static Artefact>, Ctx), String> {
    let mut ctx = Ctx {
        scale: 1.0,
        out: PathBuf::from("results"),
    };
    let mut picked = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} takes a value"));
        match arg.as_str() {
            "--scale" => match value()?.parse::<f64>() {
                Ok(scale) if scale > 0.0 && scale.is_finite() => ctx.scale = scale,
                _ => return Err("--scale takes a positive number".into()),
            },
            "--out" => ctx.out = PathBuf::from(value()?),
            "all" => picked.extend(ARTEFACTS.iter()),
            id => match ARTEFACTS.iter().find(|a| a.id == id) {
                Some(a) => picked.push(a),
                None => return Err(format!("unknown artefact `{id}`")),
            },
        }
    }
    if picked.is_empty() {
        return Err("name an artefact or `all`".into());
    }
    Ok((picked, ctx))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (picked, ctx) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("paper: {e}\nusage: paper <id>… | all [--scale F] [--out DIR]\nartefacts:");
            for a in &ARTEFACTS {
                eprintln!("  {:<22} {}", a.id, a.paper);
            }
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for a in picked {
        eprintln!("[paper] {} ({}) ...", a.id, a.paper);
        if panic::catch_unwind(AssertUnwindSafe(|| run(a, &ctx))).is_err() {
            failed.push(a.id);
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("paper: failed: {}", failed.join(" "));
    ExitCode::FAILURE
}
