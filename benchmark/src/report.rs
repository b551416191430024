//! What one run produced, how it is printed, and how two reports compare.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

use crate::spec::{self, Better};
use crate::stats;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single timing).
    pub n: usize,
}

/// One child process's result: one workload, traced or not.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (steps, optimizer steps, requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed; each misses
    /// every latency figure.
    pub failed: u64,
    /// FNV of the outputs (loss bits / token bytes), for diffing two commits.
    pub fingerprint: u64,
    pub metrics: Vec<Metric>,
    /// Why operations failed, and anything else a reader must know.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        debug_assert!(self.get(name).is_none(), "metric `{name}` reported twice");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records `n` failed operations and why.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.notes.push(format!("FAILED: {why}"));
    }

    fn note_if_unsupported(&mut self, name: &str, sorted: &[f64], p: u32) {
        if stats::percentile(sorted, p).is_none() {
            self.notes.push(format!(
                "{name}: p{p} of {} samples has fewer than {} beyond it (short run, not comparable)",
                sorted.len(),
                stats::MIN_BEYOND
            ));
        }
    }

    /// Nearest-rank percentile `p` of `samples` under `name`. A sample too
    /// short for the ten-beyond rule (a smoke run with a small `--seconds`)
    /// still gets a value, flagged in the notes; at the frozen run length
    /// every reported percentile is supported, which a unit test pins.
    pub fn put_percentile(&mut self, name: &str, samples: &[f64], p: u32, unit: &'static str) {
        let s = stats::sorted(samples);
        self.note_if_unsupported(name, &s, p);
        let value = if s.is_empty() {
            f64::NAN
        } else {
            stats::nearest_rank(&s, p)
        };
        self.put(name, value, unit, s.len());
    }

    /// A tail percentile estimated block-wise (see [`stats::block_median`]):
    /// percentile `p` inside each block of `block` samples, median block
    /// reported. The ten-beyond rule is applied to the pooled sample.
    pub fn put_block_tail(
        &mut self,
        name: &str,
        samples: &[f64],
        p: u32,
        block: usize,
        unit: &'static str,
    ) {
        self.note_if_unsupported(name, &stats::sorted(samples), p);
        let value = stats::block_median(samples, block, |b| {
            stats::nearest_rank(&stats::sorted(b), p)
        });
        self.put(name, value, unit, samples.len());
    }
}

/// The human-readable table: every metric by name with unit, sample count
/// and — for end-to-end metrics — the regress bound.
pub fn print_table(workload: &str, traced: bool, out: &Outcome) {
    let mode = if traced { "traced" } else { "untraced" };
    println!(
        "== {workload} ({mode})  ops_attempted={} ops_failed={} fingerprint={:016x}",
        out.attempted, out.failed, out.fingerprint
    );
    for m in &out.metrics {
        let extra = if let Some(n) = spec::named(&m.name) {
            if n.bound == 0.0 {
                "  [end-to-end, exact]".to_string()
            } else {
                format!(
                    "  [end-to-end, {} better, bound {:.0}%]",
                    n.better.as_str(),
                    n.bound * 100.0
                )
            }
        } else if let Some(l) = spec::layer_spec(&m.name) {
            format!("  [layer -> {}]", l.moves)
        } else {
            String::new()
        };
        println!(
            "  {:<42} {:>16.4} {:<8} n={:<6}{extra}",
            m.name, m.value, m.unit, m.n
        );
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, with every end-to-end name (untraced) or every per-layer
/// name (traced; 0 for a layer this workload does not touch).
pub fn driver_line(workload: &str, traced: bool, out: &Outcome) -> String {
    let mut fields = Vec::new();
    if traced {
        for (name, unit, _) in spec::per_layer_entries() {
            let v = out.get(name).unwrap_or(0.0);
            fields.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(v)
            ));
        }
    } else {
        for d in &spec::DRIVER {
            let src = spec::driver_source(workload, d.name);
            let v = out.get(src).unwrap_or(f64::NAN);
            fields.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                json_num(v),
                d.unit
            ));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(",")
    )
}

/// One child's full result as a JSON object (the `--report` file and the
/// building block of the `all` report).
pub fn outcome_json(out: &Outcome) -> String {
    let mut s = String::new();
    write!(
        s,
        "{{\"attempted\":{},\"failed\":{},\"fingerprint\":\"{:016x}\",\"metrics\":{{",
        out.attempted, out.failed, out.fingerprint
    )
    .unwrap();
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write!(
            s,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{}}}",
            m.name,
            json_num(m.value),
            m.unit,
            m.n
        )
        .unwrap();
    }
    s.push_str("}}");
    s
}

// ----- compare -----------------------------------------------------------------

/// One workload's results in one mode, across the repeats of one report.
struct Side {
    attempted: u64,
    failed: u64,
    fingerprints: Vec<String>,
    values: BTreeMap<String, Vec<f64>>,
}

fn parse_side(runs: &[Value]) -> Result<Side, String> {
    let mut side = Side {
        attempted: 0,
        failed: 0,
        fingerprints: Vec::new(),
        values: BTreeMap::new(),
    };
    let num = |v: &Value, k: &str| -> Result<f64, String> {
        match v.get_field(k).map_err(|e| e.to_string())? {
            Value::Num(n) => Ok(n.as_f64()),
            other => Err(format!("`{k}` is {}", other.kind())),
        }
    };
    for run in runs {
        side.attempted += num(run, "attempted")? as u64;
        side.failed += num(run, "failed")? as u64;
        if let Ok(Value::Str(f)) = run.get_field("fingerprint") {
            side.fingerprints.push(f.clone());
        }
        let Value::Obj(metrics) = run.get_field("metrics").map_err(|e| e.to_string())? else {
            return Err("`metrics` is not an object".to_string());
        };
        for (name, m) in metrics {
            if let Ok(v) = num(m, "value") {
                side.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(side)
}

/// `(untraced, traced)` results per workload of an `all` report.
fn load_report(path: &str) -> Result<BTreeMap<String, (Side, Side)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Value::Obj(workloads) = v
        .get_field("workloads")
        .map_err(|e| format!("{path}: {e}"))?
    else {
        return Err(format!("{path}: `workloads` is not an object"));
    };
    let mut out = BTreeMap::new();
    for (name, w) in workloads {
        let side = |mode: &str| -> Result<Side, String> {
            match w.get_field(mode) {
                Ok(Value::Arr(runs)) => parse_side(runs),
                _ => Err(format!("`{mode}` is not an array")),
            }
            .map_err(|e| format!("{path}: {name}: {e}"))
        };
        out.insert(name.clone(), (side("untraced")?, side("traced")?));
    }
    Ok(out)
}

/// Interquartile range over the median; 0 with fewer than two runs.
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let s = stats::sorted(xs);
    // The method Python's `statistics.quantiles(xs, n=4)` uses (exclusive).
    let q = |k: f64| {
        let pos = k * (s.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len());
        let hi = (lo + 1).min(s.len());
        s[lo - 1] + (pos - lo as f64).clamp(0.0, 1.0) * (s[hi - 1] - s[lo - 1])
    };
    (q(3.0) - q(1.0)) / stats::median(xs).abs().max(f64::MIN_POSITIVE)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rule of the choosing-metrics guide, for one metric on one workload:
/// `b`'s median may be worse than `a`'s by at most `bound`; where either
/// side's spread is wider than the bound the pairing is unresolved unless
/// every run of `b` beats every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive = worse, as a share of the baseline median.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    if bound == 0.0 {
        let v = if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
        return (v, worse_by);
    }
    if spread(a) > bound || spread(b) > bound {
        let all_better = a.iter().all(|&x| {
            b.iter().all(|&y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        let v = if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
        return (v, worse_by);
    }
    let v = if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (v, worse_by)
}

/// `compare <a.json> <b.json>`: per workload × end-to-end metric, the
/// change of `b` against `a` and the metric's bound. Returns whether any
/// pairing is worse or any workload fails a larger share of its operations.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load_report(path_a)?, load_report(path_b)?);
    let mut bad = false;
    println!(
        "{:<13} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    for w in &spec::WORKLOADS {
        let (Some((sa, _)), Some((sb, _))) = (a.get(w.name), b.get(w.name)) else {
            println!("{:<13} missing from one report", w.name);
            bad = true;
            continue;
        };
        for m in spec::NAMED.iter().filter(|m| m.workloads.contains(&w.name)) {
            let (Some(va), Some(vb)) = (sa.values.get(m.name), sb.values.get(m.name)) else {
                println!("{:<13} {:<26} missing from one report", w.name, m.name);
                bad = true;
                continue;
            };
            let (v, worse_by) = verdict(va, vb, m.better, m.bound);
            bad |= v == Verdict::Worse;
            let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
            println!(
                "{:<13} {:<26} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                stats::median(va),
                stats::median(vb),
                sign * worse_by * 100.0,
                m.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
        let share = |s: &Side| s.failed as f64 / s.attempted.max(1) as f64;
        let fail_worse = share(sb) > share(sa);
        bad |= fail_worse;
        println!(
            "{:<13} {:<26} {:>14} {:>14} {:>9} {:>7}  {}",
            w.name,
            "ops_failed/ops_attempted",
            format!("{}/{}", sa.failed, sa.attempted),
            format!("{}/{}", sb.failed, sb.attempted),
            "",
            "",
            if fail_worse { "WORSE" } else { "ok" }
        );
        let same = sa.fingerprints.first() == sb.fingerprints.first()
            && sa.attempted * sb.fingerprints.len() as u64
                == sb.attempted * sa.fingerprints.len() as u64;
        println!(
            "{:<13} {:<26} {:>14} {:>14} {:>9} {:>7}  {}",
            w.name,
            "fingerprint",
            sa.fingerprints.first().map_or("-", String::as_str),
            sb.fingerprints.first().map_or("-", String::as_str),
            "",
            "",
            if same {
                "identical"
            } else {
                "differs (outputs changed, or seeds differ)"
            }
        );
    }
    Ok(bad)
}

/// What `all` prints last: the `BENCHMARK.json` view of the report (each
/// workload's value under each workload-neutral name, with its bound) and
/// the orderings and shares the benchmark was sized around. The latter are
/// expectations about today's program, printed for the reader; they do not
/// set the exit code.
pub fn summarize(path: &str) -> Result<(), String> {
    let report = load_report(path)?;
    println!("== summary: end-to-end metrics as BENCHMARK.json names them");
    for w in &spec::WORKLOADS {
        let Some((untraced, _)) = report.get(w.name) else {
            continue;
        };
        println!("{}: {}", w.name, w.why);
        for d in &spec::DRIVER {
            let src = spec::driver_source(w.name, d.name);
            let value = untraced
                .values
                .get(src)
                .map_or(f64::NAN, |v| stats::median(v));
            println!(
                "  {:<16} = {:<26} {:>14.4} {:<6} {} better, bound {:.0}%",
                d.name,
                src,
                value,
                d.unit,
                d.better.as_str(),
                d.bound * 100.0
            );
        }
    }
    let get = |workload: &str, traced: bool, name: &str| -> Option<f64> {
        let (u, t) = report.get(workload)?;
        let side = if traced { t } else { u };
        side.values.get(name).map(|v| stats::median(v))
    };
    println!("== expectations the benchmark was sized around");
    let expect = |what: &str, holds: Option<bool>| {
        let verdict = match holds {
            Some(true) => "holds",
            Some(false) => "DOES NOT HOLD",
            None => "not measured",
        };
        println!("  {what}: {verdict}");
    };
    let steps = ["adamw", "apollo_mini", "apollo"]
        .map(|o| get("optstep", false, &format!("{o}_step_ms_p50")));
    expect(
        "optstep: adamw_step_ms_p50 < apollo_mini_step_ms_p50 < apollo_step_ms_p50",
        match steps {
            [Some(a), Some(m), Some(p)] => Some(a < m && m < p),
            _ => None,
        },
    );
    expect(
        "pretrain: core.apollo.step_ms_share within 0.10..0.16",
        get("pretrain", true, "core.apollo.step_ms_share").map(|s| (0.10..=0.16).contains(&s)),
    );
    let shares: Option<f64> = [
        "data.next_batch_ms_share",
        "nn.model.forward_ms_share",
        "autograd.backward_ms_share",
        "core.apollo.step_ms_share",
    ]
    .iter()
    .map(|n| get("pretrain", true, n))
    .sum();
    expect(
        "pretrain: the four step spans sum to within 5% of the step they split",
        shares.map(|s| (s - 1.0).abs() <= 0.05),
    );
    expect(
        "serve-http: infer.prefix.hit_rate within 0.75..0.85",
        get("serve-http", true, "infer.prefix.hit_rate").map(|r| (0.75..=0.85).contains(&r)),
    );
    for w in &spec::WORKLOADS {
        expect(
            &format!("{}: trace_overhead_pct < 5", w.name),
            get(w.name, true, "trace_overhead_pct").map(|o| o < 5.0),
        );
    }
    let failed: u64 = report.values().map(|(u, t)| u.failed + t.failed).sum();
    expect("ops_failed is 0 everywhere", Some(failed == 0));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_the_guide() {
        let a = [100.0, 101.0, 99.0, 100.5];
        // 3% slower under a 5% bound.
        assert_eq!(
            verdict(&a, &[103.0, 103.5, 102.5, 103.0], Better::Lower, 0.05).0,
            Verdict::Ok
        );
        // 8% slower.
        assert_eq!(
            verdict(&a, &[108.0, 108.5, 107.5, 108.0], Better::Lower, 0.05).0,
            Verdict::Worse
        );
        // 8% lower throughput is worse when higher is better, fine when lower is.
        let b = [92.0, 92.5, 91.5, 92.0];
        assert_eq!(verdict(&a, &b, Better::Higher, 0.05).0, Verdict::Worse);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.05).0, Verdict::Ok);
        // Noisy side: unresolved, unless every run of b beats every run of a.
        let noisy = [90.0, 120.0, 100.0, 110.0];
        assert_eq!(
            verdict(&a, &noisy, Better::Lower, 0.05).0,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[50.0, 60.0, 55.0, 70.0], Better::Lower, 0.05).0,
            Verdict::Ok
        );
        // Exact counts: any increase is worse, a decrease is not.
        assert_eq!(
            verdict(&[1000.0], &[1000.0], Better::Lower, 0.0).0,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[1000.0], &[1001.0], Better::Lower, 0.0).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[1000.0], &[900.0], Better::Lower, 0.0).0,
            Verdict::Ok
        );
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (name, v) in [
            ("train_tok_per_s", 1800.5),
            ("step_ms_p50", 140.25),
            ("step_ms_p90", 150.0),
            ("peak_rss_mb", 99.0),
            ("setup_s", 0.75),
        ] {
            out.put(name, v, "x", 1);
        }
        let v: Value = serde_json::from_str(&driver_line("pretrain", false, &out)).unwrap();
        let Value::Obj(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Obj(metrics) = v.get_field("metrics").unwrap() else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            spec::DRIVER.iter().map(|d| d.name).collect::<Vec<_>>()
        );

        let traced: Value = serde_json::from_str(&driver_line("pretrain", true, &out)).unwrap();
        let Value::Obj(metrics) = traced.get_field("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), spec::per_layer_entries().len());
    }
}
