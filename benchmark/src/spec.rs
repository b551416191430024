//! The benchmark's tables: workloads, end-to-end metrics with their regress
//! bounds, per-layer metrics with the end-to-end metric each should move.
//!
//! `BENCHMARK.json` at the repo root is the driver-facing copy of these
//! tables and a unit test keeps the two in step. Its schema makes every
//! workload report every end-to-end metric, so it carries the five
//! workload-neutral names of [`DRIVER`]; each workload fills them from its
//! own named metric ([`driver_source`]). The full named set ([`NAMED`]) is
//! what `all` prints and what `compare` checks.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pretrain",
        why: "the paper's end-user path: forward+backward are ~87% of a step, the optimizer ~13%, so kernel/autograd work shows here and optimizer work barely does",
    },
    Workload {
        name: "optstep",
        why: "Optimizer::step alone on real LLaMA-60M layer shapes: core/tensor::fused are ~100% of the time, nn/autograd absent; the mirror of pretrain",
    },
    Workload {
        name: "decode-batch",
        why: "offline batch decode through the in-process Scheduler, f32 then INT8: gemv-sized kernels, sampling and batching with sockets, prefix cache and adapters bypassed",
    },
    Workload {
        name: "serve-http",
        why: "closed-loop streaming HTTP with 3 LoRA tenants and 80% shared prefixes: prefill is nearly free, so socket/loop/prefix-cache/adapter overhead dominates",
    },
];

/// One end-to-end metric of the named set.
pub struct Named {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen; 0 means
    /// an exact count that may not change at all.
    pub bound: f64,
    pub workloads: &'static [&'static str],
}

use Better::{Higher, Lower};

const ALL: &[&str] = &["pretrain", "optstep", "decode-batch", "serve-http"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: &'static [&'static str],
) -> Named {
    Named {
        name,
        unit,
        better,
        bound,
        workloads,
    }
}

/// The end-to-end metrics a user of the system would see, by name. One rule
/// sets the bounds: every timing and rate 25% (the ceiling the driver
/// allows), memory 5%, counts exact. README, "End-to-end metrics", has the
/// measured spreads of the shared host that leave no room for less.
#[rustfmt::skip]
pub const NAMED: &[Named] = &[
    e2e("setup_s", "s", Lower, 0.25, ALL),
    e2e("peak_rss_mb", "MB", Lower, 0.05, ALL),
    e2e("train_tok_per_s", "tok/s", Higher, 0.25, &["pretrain"]),
    e2e("step_ms_p50", "ms", Lower, 0.25, &["pretrain"]),
    e2e("step_ms_p90", "ms", Lower, 0.25, &["pretrain"]),
    e2e("opt_state_bytes", "bytes", Lower, 0.0, &["pretrain", "optstep"]),
    e2e("apollo_step_ms_p50", "ms", Lower, 0.25, &["optstep"]),
    e2e("apollo_step_ms_p90", "ms", Lower, 0.25, &["optstep"]),
    e2e("apollo_steps_per_s", "1/s", Higher, 0.25, &["optstep"]),
    e2e("apollo_mini_step_ms_p50", "ms", Lower, 0.25, &["optstep"]),
    e2e("adamw_step_ms_p50", "ms", Lower, 0.25, &["optstep"]),
    e2e("out_tok_per_s", "tok/s", Higher, 0.25, &["decode-batch"]),
    e2e("int8_out_tok_per_s", "tok/s", Higher, 0.25, &["decode-batch"]),
    e2e("tick_ms_p50", "ms", Lower, 0.25, &["decode-batch"]),
    e2e("tick_ms_p99", "ms", Lower, 0.25, &["decode-batch"]),
    e2e("ttft_ms_p50", "ms", Lower, 0.25, &["serve-http"]),
    e2e("ttft_ms_p95", "ms", Lower, 0.25, &["serve-http"]),
    e2e("itl_ms_p50", "ms", Lower, 0.25, &["serve-http"]),
    e2e("itl_ms_p99", "ms", Lower, 0.25, &["serve-http"]),
    e2e("req_per_s", "req/s", Higher, 0.25, &["serve-http"]),
];

pub fn named(name: &str) -> Option<&'static Named> {
    NAMED.iter().find(|m| m.name == name)
}

/// One workload-neutral end-to-end metric of `BENCHMARK.json`.
pub struct Driver {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

#[rustfmt::skip]
pub const DRIVER: [Driver; 5] = [
    Driver { name: "throughput", unit: "1/s", better: Higher, bound: 0.25 },
    Driver { name: "latency_ms_p50", unit: "ms", better: Lower, bound: 0.25 },
    Driver { name: "latency_ms_tail", unit: "ms", better: Lower, bound: 0.25 },
    Driver { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.05 },
    Driver { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
];

/// The named metric a workload reports under a driver name.
pub fn driver_source(workload: &str, driver: &str) -> &'static str {
    match (driver, workload) {
        ("setup_s", _) => "setup_s",
        ("peak_rss_mb", _) => "peak_rss_mb",
        ("throughput", "pretrain") => "train_tok_per_s",
        ("latency_ms_p50", "pretrain") => "step_ms_p50",
        ("latency_ms_tail", "pretrain") => "step_ms_p90",
        ("throughput", "optstep") => "apollo_steps_per_s",
        ("latency_ms_p50", "optstep") => "apollo_step_ms_p50",
        ("latency_ms_tail", "optstep") => "apollo_step_ms_p90",
        ("throughput", "decode-batch") => "out_tok_per_s",
        ("latency_ms_p50", "decode-batch") => "tick_ms_p50",
        ("latency_ms_tail", "decode-batch") => "tick_ms_p99",
        ("throughput", "serve-http") => "req_per_s",
        ("latency_ms_p50", "serve-http") => "ttft_ms_p50",
        ("latency_ms_tail", "serve-http") => "ttft_ms_p95",
        _ => panic!("no source for driver metric `{driver}` on workload `{workload}`"),
    }
}

/// One per-layer metric: a span recorded in the benchmark around a public
/// call, a count read from a public accessor at the same boundary, or a
/// kernel replayed alone on the workload's own data.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub workload: &'static str,
    /// The end-to-end metric this one should move, written down before
    /// measuring; on every other workload the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workload: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        workload,
        moves,
    }
}

#[rustfmt::skip]
pub const LAYERS: &[Layer] = &[
    // pretrain
    layer("data.next_batch_ms", "ms", Lower, "pretrain", "train_tok_per_s by its share"),
    layer("data.next_batch_ms_share", "ratio", Lower, "pretrain", "-"),
    layer("nn.model.forward_ms", "ms", Lower, "pretrain", "train_tok_per_s by at most its share (~28%)"),
    layer("nn.model.forward_ms_share", "ratio", Lower, "pretrain", "-"),
    layer("autograd.backward_ms", "ms", Lower, "pretrain", "train_tok_per_s by at most its share (~59%)"),
    layer("autograd.backward_ms_share", "ratio", Lower, "pretrain", "-"),
    layer("core.apollo.step_ms", "ms", Lower, "pretrain", "train_tok_per_s by at most ~13%; apollo_step_ms_p50 on optstep"),
    layer("core.apollo.step_ms_share", "ratio", Lower, "pretrain", "-"),
    layer("train.loop_other_ms", "ms", Lower, "pretrain", "train_tok_per_s (loop overhead outside the four spans)"),
    layer("nn.model.fwd_gflops_computed", "GFLOP/s", Higher, "pretrain", "derived from nn.model.forward_ms"),
    layer("train.checkpoint.blob_ms", "ms", Lower, "pretrain", "none here (checkpoint stall per save)"),
    layer("train.checkpoint.blob_bytes", "bytes", Lower, "pretrain", "none here"),
    layer("tensor.pool.speedup_t2", "ratio", Higher, "pretrain", "none at 1 kernel thread (thread scaling is a layer number)"),
    layer("tensor.pool.jobs_per_step_t2", "count", Lower, "pretrain", "-"),
    // optstep
    layer("core.projector.project_ms", "ms", Lower, "optstep", "apollo_step_ms_p50 one-for-one; adamw_step_ms_p50 must not move"),
    layer("core.projector.refresh_ms", "ms", Lower, "optstep", "step_ms_p90 on pretrain, not the medians"),
    layer("tensor.fused.apollo_scale_ms", "ms", Lower, "optstep", "apollo_step_ms_p50 and apollo_mini_step_ms_p50 one-for-one"),
    layer("tensor.fused.axpy_chain_ms", "ms", Lower, "optstep", "apollo_step_ms_p50 and apollo_mini_step_ms_p50 one-for-one"),
    layer("tensor.fused.adam_update_ms", "ms", Lower, "optstep", "adamw_step_ms_p50; the dense-fallback share of both APOLLO figures"),
    layer("core.apollo.moments_ratio_ms", "ms", Lower, "optstep", "apollo_step_ms_p50 one-for-one"),
    layer("core.apollo.first_step_ms", "ms", Lower, "optstep", "setup_s / step_ms_p90 on pretrain (state allocation, first projector draw)"),
    layer("core.adamw.first_step_ms", "ms", Lower, "optstep", "setup_s / step_ms_p90 on pretrain"),
    layer("core.projector.gflops_computed", "GFLOP/s", Higher, "optstep", "derived from core.projector.project_ms"),
    layer("tensor.fused.adam_update_gbps_computed", "GB/s", Higher, "optstep", "derived from tensor.fused.adam_update_ms at 28 B/elem"),
    layer("machine.fma_gflops_1t", "GFLOP/s", Higher, "optstep", "none (ceiling of this box)"),
    layer("machine.copy_gbps_32mb", "GB/s", Higher, "optstep", "none (ceiling of this box)"),
    layer("machine.copy_gbps_1gb", "GB/s", Higher, "optstep", "none (ceiling of this box)"),
    // decode-batch
    layer("infer.scheduler.tick_ms_p50", "ms", Lower, "decode-batch", "out_tok_per_s; itl_ms_p50 on serve-http"),
    layer("infer.scheduler.tick_ms_p99", "ms", Lower, "decode-batch", "itl_ms_p99 on serve-http"),
    layer("infer.scheduler.ticks", "count", Lower, "decode-batch", "out_tok_per_s (exact count)"),
    layer("infer.scheduler.batch_occupancy", "ratio", Higher, "decode-batch", "out_tok_per_s"),
    layer("nn.decode.step_b8_ms", "ms", Lower, "decode-batch", "out_tok_per_s; itl_ms_p50 on serve-http"),
    layer("nn.decode.step_b1_ms", "ms", Lower, "decode-batch", "itl_ms_p50 on serve-http"),
    layer("nn.decode.prefill32_ms", "ms", Lower, "decode-batch", "out_tok_per_s; ttft_ms_p95 and itl_ms_p99 on serve-http"),
    layer("nn.decode.lm_logits_ms", "ms", Lower, "decode-batch", "out_tok_per_s; itl_ms_p50 on serve-http"),
    layer("nn.quantized.step_b8_ms", "ms", Lower, "decode-batch", "int8_out_tok_per_s only"),
    layer("infer.sample.sample_us", "us", Lower, "decode-batch", "out_tok_per_s; itl_ms_p50 on serve-http"),
    layer("infer.scheduler.overhead_ms_per_tick", "ms", Lower, "decode-batch", "out_tok_per_s; itl_ms_p50 on serve-http"),
    layer("infer.stats.prefill_tok_per_s", "tok/s", Higher, "decode-batch", "out_tok_per_s"),
    // serve-http
    layer("infer.prefix.hit_rate", "ratio", Higher, "serve-http", "ttft_ms_p50; nothing on decode-batch (cache off)"),
    layer("infer.prefix.hit_token_share", "ratio", Higher, "serve-http", "ttft_ms_p50"),
    layer("infer.prefix.evictions", "count", Lower, "serve-http", "ttft_ms_p95"),
    layer("nn.adapter.loads", "count", Lower, "serve-http", "ttft_ms_p95"),
    layer("infer.prefix.lookup_us", "us", Lower, "serve-http", "ttft_ms_p50"),
    layer("infer.prefix.insert_us", "us", Lower, "serve-http", "itl_ms_p99 (insert runs inside the prefill tick)"),
    layer("infer.prefix.bytes_copied_per_hit", "bytes", Lower, "serve-http", "ttft_ms_p50"),
    layer("infer.net.parse_head_us", "us", Lower, "serve-http", "ttft_ms_p50, req_per_s"),
    layer("infer.server.inproc_ttft_ms_p50", "ms", Lower, "serve-http", "ttft_ms_p50"),
    layer("infer.frontend.http_overhead_ms_p50", "ms", Lower, "serve-http", "ttft_ms_p50, req_per_s; nothing elsewhere"),
    layer("nn.adapter.step_relative", "ratio", Lower, "serve-http", "itl_ms_p50, req_per_s; nothing elsewhere"),
    layer("client.lateness_ms_p95", "ms", Lower, "serve-http", "none (how late the generator's own loop ran)"),
    // every workload
    layer("trace_overhead_pct", "%", Lower, "all", "none (traced wall / untraced wall - 1)"),
];

/// Named end-to-end metrics that `BENCHMARK.json` cannot list as
/// end-to-end (its schema has every workload report every one): they ride
/// in its `per_layer` list so the driver still records them.
pub const NAMED_IN_PER_LAYER: &[&str] = &[
    "opt_state_bytes",
    "adamw_step_ms_p50",
    "apollo_mini_step_ms_p50",
    "int8_out_tok_per_s",
    "itl_ms_p50",
    "itl_ms_p99",
];

/// Every `(name, unit, better)` of `BENCHMARK.json`'s `per_layer` list.
pub fn per_layer_entries() -> Vec<(&'static str, &'static str, Better)> {
    let mut out: Vec<_> = LAYERS.iter().map(|l| (l.name, l.unit, l.better)).collect();
    for name in NAMED_IN_PER_LAYER {
        let m = named(name).expect("listed named metric exists");
        out.push((m.name, m.unit, m.better));
    }
    out
}

pub fn layer_spec(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|l| l.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn str_field<'a>(v: &'a Value, k: &str) -> &'a str {
        match v.get_field(k).expect("field present") {
            Value::Str(s) => s,
            other => panic!("`{k}` is {}", other.kind()),
        }
    }

    fn arr<'a>(v: &'a Value, k: &str) -> &'a [Value] {
        match v.get_field(k).expect("field present") {
            Value::Arr(a) => a,
            other => panic!("`{k}` is {}", other.kind()),
        }
    }

    /// `BENCHMARK.json` is written by hand; this is what keeps it honest.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).expect("valid json");

        let wl = arr(&v, "workloads");
        assert_eq!(wl.len(), WORKLOADS.len());
        for (j, w) in wl.iter().zip(&WORKLOADS) {
            assert_eq!(str_field(j, "name"), w.name);
            assert_eq!(str_field(j, "why"), w.why);
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
        }

        let e2e = arr(&v, "end_to_end");
        assert_eq!(e2e.len(), DRIVER.len());
        for (j, d) in e2e.iter().zip(&DRIVER) {
            assert_eq!(str_field(j, "name"), d.name);
            assert_eq!(str_field(j, "unit"), d.unit);
            assert_eq!(str_field(j, "better"), d.better.as_str());
            let bound = match j.get_field("bound").unwrap() {
                Value::Num(n) => n.as_f64(),
                other => panic!("bound is {}", other.kind()),
            };
            assert_eq!(bound, d.bound, "{}", d.name);
        }

        let layers = arr(&v, "per_layer");
        let want = per_layer_entries();
        assert_eq!(layers.len(), want.len());
        assert!(want.len() <= 128);
        for (j, (name, unit, better)) in layers.iter().zip(&want) {
            assert_eq!(str_field(j, "name"), *name);
            assert_eq!(str_field(j, "unit"), *unit);
            assert_eq!(str_field(j, "better"), better.as_str());
        }
    }

    #[test]
    fn every_driver_metric_has_a_named_source_on_every_workload() {
        for w in &WORKLOADS {
            for d in &DRIVER {
                let src = named(driver_source(w.name, d.name)).expect("source is a named metric");
                assert!(
                    src.workloads.contains(&w.name),
                    "{} on {}",
                    src.name,
                    w.name
                );
                assert_eq!(src.better, d.better);
                assert!(
                    src.bound <= d.bound,
                    "{}: own bound is looser than the driver's",
                    src.name
                );
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_driver_schema() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in &DRIVER {
            assert!(ok_name(d.name) && ok_unit(d.unit), "{}", d.name);
            assert!(d.bound > 0.0 && d.bound <= 0.25);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for (name, unit, _) in per_layer_entries() {
            assert!(ok_name(name) && ok_unit(unit), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for w in &WORKLOADS {
            assert!(ok_name(w.name));
        }
    }
}
