//! The repo's standing benchmark: four workloads, named end-to-end and
//! per-layer metrics, measured from outside the program by timing calls
//! into its public functions. See `benchmark/README.md`.
//!
//! ```text
//! apollo-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//! apollo-benchmark all [--seed N] [--seconds S] [--repeats K] [--out FILE]
//! apollo-benchmark compare A.json B.json
//! ```

mod http;
mod inputs;
mod machine;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::Outcome;
use workloads::Ctx;

const DEFAULT_SEED: u64 = 11;
/// Must equal `run_seconds` in `BENCHMARK.json` (a unit test checks).
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage:
  apollo-benchmark --workload <pretrain|optstep|decode-batch|serve-http> [--seed N] [--seconds S] [--trace 0|1] [--report FILE]
  apollo-benchmark all [--seed N] [--seconds S] [--repeats K] [--out FILE]
  apollo-benchmark compare A.json B.json";

/// Build artefacts aside, everything the benchmark writes goes here.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeats: usize,
    report: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeats: 1,
        report: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name}: `{v}` is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = number("--seed", value("--seed")?)?,
            "--seconds" => {
                a.seconds = number("--seconds", value("--seconds")?)?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--repeats" => a.repeats = number("--repeats", value("--repeats")?)?.max(1) as usize,
            "--report" | "--out" => a.report = Some(PathBuf::from(value(arg)?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

/// One workload in this process: the driver's entry point, and what `all`
/// spawns a fresh child for.
fn run_workload(workload: &str, args: &Args) -> Result<ExitCode, String> {
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    // Every measured run pins kernel threads to 1. The pool reads this once
    // per process, before any kernel runs, and unlike a ThreadOverrideGuard
    // it also reaches the server's own threads. The pool-scaling probe in
    // `pretrain` raises it for its own thread only.
    std::env::set_var("APOLLO_NUM_THREADS", "1");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let (out, recorder): (Outcome, _) = match workload {
        "pretrain" => workloads::pretrain::run(&ctx),
        "optstep" => workloads::optstep::run(&ctx),
        "decode-batch" => workloads::decode::run(&ctx),
        "serve-http" => workloads::serve::run(&ctx),
        _ => unreachable!("checked against spec::WORKLOADS"),
    };
    // A metric this workload owes the driver's line but did not report would
    // read there as 0 or null: a bug in the benchmark, not a measurement.
    let owed: Vec<&str> = if ctx.trace {
        spec::LAYERS
            .iter()
            .filter(|l| l.workload == workload || l.workload == "all")
            .map(|l| l.name)
            .collect()
    } else {
        spec::DRIVER
            .iter()
            .map(|d| spec::driver_source(workload, d.name))
            .collect()
    };
    let missing: Vec<&str> = owed
        .into_iter()
        .filter(|name| !out.get(name).is_some_and(f64::is_finite))
        .collect();
    if !missing.is_empty() {
        return Err(format!("{workload}: the run did not report {missing:?}"));
    }
    let trace_path = out_dir().join(format!("trace-{workload}.jsonl"));
    recorder
        .write_jsonl(&trace_path, workload)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    report::print_table(workload, ctx.trace, &out);
    if ctx.trace {
        println!("  spans: {} -> {}", recorder.len(), trace_path.display());
    }
    if let Some(path) = &args.report {
        std::fs::write(path, report::outcome_json(&out))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::driver_line(workload, ctx.trace, &out));
    Ok(ExitCode::SUCCESS)
}

/// Every workload in a fresh child process each (so peak memory and
/// allocator state do not leak between them), untraced `repeats` times and
/// then traced once; the children print their own tables.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut failed_children = 0;
    let mut sections = Vec::new();
    for w in &spec::WORKLOADS {
        let mut runs: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for (trace, repeats) in [(false, args.repeats), (true, 1)] {
            for rep in 0..repeats {
                let report = dir.join(format!("child-{}-{}-{rep}.json", w.name, u8::from(trace)));
                let status = Command::new(&exe)
                    .args(["--workload", w.name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--report")
                    .arg(&report)
                    .status()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                if !status.success() {
                    eprintln!(
                        "{} (trace {}): child exited with {status}",
                        w.name,
                        u8::from(trace)
                    );
                    failed_children += 1;
                    continue;
                }
                let json = std::fs::read_to_string(&report)
                    .map_err(|e| format!("{}: {e}", report.display()))?;
                let _ = std::fs::remove_file(&report);
                runs[usize::from(trace)].push(json);
            }
        }
        sections.push(format!(
            "\"{}\":{{\"untraced\":[{}],\"traced\":[{}]}}",
            w.name,
            runs[0].join(","),
            runs[1].join(",")
        ));
    }
    let path = args
        .report
        .clone()
        .unwrap_or_else(|| dir.join(format!("report-seed{}.json", args.seed)));
    let body = format!(
        "{{\"seed\":{},\"seconds\":{},\"kernel_threads\":1,\"workloads\":{{{}}}}}\n",
        args.seed,
        args.seconds,
        sections.join(",")
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report: {}", path.display());
    report::summarize(&path.to_string_lossy())?;
    Ok(if failed_children == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        match (args.positional.first().map(String::as_str), &args.workload) {
            (Some("all"), None) => run_all(&args),
            (Some("compare"), None) => match args.positional.as_slice() {
                [_, a, b] => report::compare(a, b).map(|bad| {
                    if bad {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }),
                _ => Err("compare takes two report files".to_string()),
            },
            (None, Some(w)) => run_workload(w, &args),
            _ => Err("name one of --workload, `all` or `compare`".to_string()),
        }
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("apollo-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn default_seconds_is_the_frozen_run_length() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Value::Num(n) = v.get_field("run_seconds").unwrap() else {
            panic!("run_seconds is not a number")
        };
        assert_eq!(n.as_u64(), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn driver_arguments_parse() {
        let argv: Vec<String> = "--workload optstep --seed 7 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("optstep"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
