//! `optstep`: `Optimizer::step` alone on two layers of real LLaMA-60M
//! shapes, for AdamW, APOLLO (rank 128) and APOLLO-Mini, each from fresh
//! state, cycling four pre-generated gradient sets.
//!
//! Here `core` and `tensor::fused` are all of the time and `nn`/`autograd`
//! are absent — the mirror of `pretrain`. The three optimizers use the
//! same tensors differently (dense fused Adam; `R = P·G` + low-rank
//! moments + channel scale; rank-1 tensor scale), so a gain for one that
//! costs another shows.

use std::time::Instant;

use apollo_optim::{AdamW, Apollo, Optimizer, ParamUpdate, ProjKind, Projector, ScaleGranularity};
use apollo_tensor::fused::{self, ChannelScale};
use apollo_tensor::Matrix;

use super::{ms, put_setup_and_rss, timed_setup, trace_overhead_pct, Ctx, RATE_BLOCK, TAIL_BLOCK};
use crate::inputs::{self, TensorShape, GRAD_SETS};
use crate::machine;
use crate::report::Outcome;
use crate::stats::{self, Fnv};
use crate::trace::{Recorder, NO_SPAN};

// Steps per second of `--seconds`, frozen from the reference box so the
// three phases take about a tenth, two thirds and a quarter of the run.
const ADAMW_STEPS_PER_S: f64 = 12.0;
const APOLLO_STEPS_PER_S: f64 = 9.0;
const MINI_STEPS_PER_S: f64 = 12.0;

const RANK: usize = 128;
const UPDATE_FREQ: usize = 200;
const LR: f32 = 1e-3;
/// `Apollo::new` derives tensor `i`'s projector seed as this plus `i`.
const APOLLO_SEED: u64 = 0x0A90_110B;
/// Times each kernel is replayed alone in the traced run.
const REPLAYS: usize = 15;

struct Inputs {
    shapes: Vec<TensorShape>,
    weights: Vec<Matrix>,
    grads: Vec<Vec<Matrix>>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let shapes = inputs::llama60m_two_layers();
        Inputs {
            weights: inputs::initial_weights(seed, &shapes),
            grads: inputs::gradient_sets(seed, &shapes),
            shapes,
        }
    }

    fn elems(&self) -> usize {
        self.shapes.iter().map(|s| s.rows * s.cols).sum()
    }
}

fn step_once(
    opt: &mut dyn Optimizer,
    shapes: &[TensorShape],
    weights: &mut [Matrix],
    grads: &[Matrix],
) {
    let mut updates: Vec<ParamUpdate<'_>> = shapes
        .iter()
        .zip(weights.iter_mut())
        .zip(grads)
        .map(|((s, w), g)| ParamUpdate {
            name: &s.name,
            value: w,
            grad: g,
            projectable: s.projectable,
        })
        .collect();
    opt.step(&mut updates, LR);
}

/// One optimizer's phase: `steps` steps from fresh state on a fresh copy
/// of the weights. Returns the first step's time, the steady steps' times
/// and the final weights.
fn run_phase(
    opt: &mut dyn Optimizer,
    inp: &Inputs,
    steps: usize,
    rec: &mut Recorder,
    span: &'static str,
) -> (f64, Vec<f64>, Vec<Matrix>) {
    let mut weights = inp.weights.clone();
    let mut first = 0.0;
    let mut steady = Vec::with_capacity(steps);
    for step in 0..=steps {
        let id = rec.begin(span, NO_SPAN, step as u64);
        let t0 = Instant::now();
        step_once(opt, &inp.shapes, &mut weights, &inp.grads[step % GRAD_SETS]);
        let dt = ms(t0.elapsed());
        rec.end(id);
        if step == 0 {
            first = dt;
        } else {
            steady.push(dt);
        }
    }
    (first, steady, weights)
}

fn apollo() -> Apollo {
    Apollo::new(RANK, UPDATE_FREQ).with_seed(APOLLO_SEED)
}

fn mini() -> Apollo {
    Apollo::mini(UPDATE_FREQ).with_seed(APOLLO_SEED)
}

struct Phases {
    adamw: (f64, Vec<f64>),
    apollo: (f64, Vec<f64>),
    mini: (f64, Vec<f64>),
    apollo_state_bytes: usize,
    /// APOLLO's scaling factors after its last step, for the scale replay.
    apollo_scales: Vec<Vec<f32>>,
    fingerprint: u64,
    non_finite: Vec<&'static str>,
}

impl Phases {
    /// One median steady step of each optimizer.
    fn round_ms(&self) -> f64 {
        [&self.adamw.1, &self.apollo.1, &self.mini.1]
            .iter()
            .map(|v| stats::p50(v))
            .sum()
    }
}

fn run_phases(ctx: &Ctx, inp: &Inputs, rec: &mut Recorder) -> Phases {
    let mut fnv = Fnv::new();
    let mut non_finite = Vec::new();
    let mut finish = |name: &'static str, weights: Vec<Matrix>| {
        for w in &weights {
            fnv.f32_bits(w.as_slice());
            if w.has_non_finite() && !non_finite.contains(&name) {
                non_finite.push(name);
            }
        }
    };

    let mut opt = AdamW::new();
    let (first, steady, w) = run_phase(
        &mut opt,
        inp,
        ctx.count(ADAMW_STEPS_PER_S),
        rec,
        "core.adamw.step",
    );
    let adamw = (first, steady);
    finish("AdamW", w);
    drop(opt);

    let mut opt = apollo();
    let (first, steady, w) = run_phase(
        &mut opt,
        inp,
        ctx.count(APOLLO_STEPS_PER_S),
        rec,
        "core.apollo.step",
    );
    let apollo = (first, steady);
    finish("APOLLO", w);
    let apollo_state_bytes = opt.state_bytes();
    let apollo_scales = std::mem::take(&mut opt.last_scales);
    drop(opt);

    let mut opt = mini();
    let (first, steady, w) = run_phase(
        &mut opt,
        inp,
        ctx.count(MINI_STEPS_PER_S),
        rec,
        "core.apollo_mini.step",
    );
    let mini = (first, steady);
    finish("APOLLO-Mini", w);

    Phases {
        adamw,
        apollo,
        mini,
        apollo_state_bytes,
        apollo_scales,
        fingerprint: fnv.finish(),
        non_finite,
    }
}

/// The scaling geometry `Apollo::step` uses for a tensor of this shape.
fn channel_scale<'a>(
    shape: &TensorShape,
    granularity: ScaleGranularity,
    s: &'a [f32],
) -> ChannelScale<'a> {
    match granularity {
        ScaleGranularity::Tensor => ChannelScale::Tensor(s[0]),
        ScaleGranularity::Channel if shape.rows <= shape.cols => ChannelScale::Cols(s),
        ScaleGranularity::Channel => ChannelScale::Rows(s),
    }
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The output check behind the kernel replays: from fresh state, one
/// `step` on cloned weights must equal, bit for bit, the public kernels
/// replayed by hand on another clone — so the replays below time the same
/// arithmetic the optimizer runs. (Fresh state is where this is checkable
/// from outside: the limiter has no history and Adam's moments are zero.)
fn check_replay_equals_step(inp: &Inputs) -> Vec<String> {
    let mut failures = Vec::new();
    let g = &inp.grads[0];
    let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
    let (bc1, bc2) = (1.0 - b1.powi(1), 1.0 - b2.powi(1));
    let adam_replay = |w: &mut Matrix, g: &Matrix| {
        let (mut m, mut v) = (
            Matrix::zeros(g.rows(), g.cols()),
            Matrix::zeros(g.rows(), g.cols()),
        );
        fused::fused_adam_update(w, g, &mut m, &mut v, b1, b2, bc1, bc2, eps, LR, 1.0);
    };

    // AdamW: every tensor is one fused_adam_update.
    let mut stepped = inp.weights.clone();
    step_once(&mut AdamW::new(), &inp.shapes, &mut stepped, g);
    let mut replayed = inp.weights.clone();
    for (w, g) in replayed.iter_mut().zip(g) {
        adam_replay(w, g);
    }
    if !stepped.iter().zip(&replayed).all(|(a, b)| bits_equal(a, b)) {
        failures.push("AdamW: replayed fused_adam_update != step on cloned state".to_string());
    }

    // APOLLO and APOLLO-Mini: scale with the step's own factors, then the
    // axpy tail; norm gains take the dense Adam fallback.
    for (name, mut opt) in [("APOLLO", apollo()), ("APOLLO-Mini", mini())] {
        let mut stepped = inp.weights.clone();
        step_once(&mut opt, &inp.shapes, &mut stepped, g);
        let mut replayed = inp.weights.clone();
        let mut update = Matrix::zeros(0, 0);
        for (i, (shape, w)) in inp.shapes.iter().zip(replayed.iter_mut()).enumerate() {
            if shape.projectable {
                let scale = channel_scale(shape, opt.granularity, &opt.last_scales[i]);
                fused::fused_apollo_scale(&mut update, &g[i], scale, opt.alpha);
                fused::fused_axpy_chain(w, 1.0, -LR, &update);
            } else {
                adam_replay(w, &g[i]);
            }
        }
        if !stepped.iter().zip(&replayed).all(|(a, b)| bits_equal(a, b)) {
            failures.push(format!(
                "{name}: replayed fused_apollo_scale + fused_axpy_chain != step on cloned state"
            ));
        }
        // The projection replay must draw the step's own P: on the first
        // step R~ = R/(|R|+eps) element-wise, so the channel factors follow
        // from R alone and a different seed or rank would miss by percents.
        if name == "APOLLO" {
            for (i, shape) in inp.shapes.iter().enumerate().filter(|(_, s)| s.projectable) {
                let mut p =
                    Projector::new(ProjKind::Random, RANK, UPDATE_FREQ, APOLLO_SEED + i as u64);
                p.begin_step(&g[i]);
                let r = p.project(&g[i]);
                let rt = {
                    let mut rt = r.clone();
                    for x in rt.as_mut_slice() {
                        *x /= x.abs() + eps;
                    }
                    rt
                };
                let (num, den) = if shape.rows <= shape.cols {
                    (rt.col_norms(), r.col_norms())
                } else {
                    (rt.row_norms(), r.row_norms())
                };
                let off = num
                    .iter()
                    .zip(&den)
                    .zip(&opt.last_scales[i])
                    .any(|((n, d), s)| ((n / d) / s - 1.0).abs() > 1e-3);
                if off {
                    failures.push(format!(
                        "APOLLO: replayed projection of {} does not reproduce the step's scaling factors",
                        shape.name
                    ));
                    break;
                }
            }
        }
    }
    failures
}

/// Each kernel of the step replayed alone on the workload's own tensors.
fn replay_kernels(inp: &Inputs, phases: &Phases, out: &mut Outcome) {
    let projectable: Vec<usize> = (0..inp.shapes.len())
        .filter(|&i| inp.shapes[i].projectable)
        .collect();
    let fresh_projectors = || -> Vec<Projector> {
        projectable
            .iter()
            .map(|&i| Projector::new(ProjKind::Random, RANK, UPDATE_FREQ, APOLLO_SEED + i as u64))
            .collect()
    };
    let project_all = |projs: &mut [Projector], set: &[Matrix]| -> bool {
        let mut refreshed = false;
        for (p, &i) in projs.iter_mut().zip(&projectable) {
            refreshed |= p.begin_step(&set[i]);
            p.project(&set[i]).recycle();
        }
        refreshed
    };

    // The step where begin_step returns true, from fresh projectors each time.
    let mut refresh = Vec::new();
    for rep in 0..REPLAYS {
        let mut projs = fresh_projectors();
        let t0 = Instant::now();
        let refreshed = project_all(&mut projs, &inp.grads[rep % GRAD_SETS]);
        refresh.push(ms(t0.elapsed()));
        assert!(refreshed, "a fresh projector refreshes on its first step");
    }
    // Steady projection: begin_step + project, no refresh due.
    let mut projs = fresh_projectors();
    project_all(&mut projs, &inp.grads[0]);
    let mut project = Vec::new();
    for rep in 0..REPLAYS {
        let t0 = Instant::now();
        let refreshed = project_all(&mut projs, &inp.grads[rep % GRAD_SETS]);
        project.push(ms(t0.elapsed()));
        assert!(!refreshed, "no refresh inside the replay window");
    }

    let mut updates: Vec<Matrix> = projectable.iter().map(|_| Matrix::zeros(0, 0)).collect();
    let scale_all = |updates: &mut [Matrix], set: &[Matrix]| {
        for (u, &i) in updates.iter_mut().zip(&projectable) {
            let scale = channel_scale(
                &inp.shapes[i],
                ScaleGranularity::Channel,
                &phases.apollo_scales[i],
            );
            fused::fused_apollo_scale(u, &set[i], scale, 1.0);
        }
    };
    scale_all(&mut updates, &inp.grads[0]);
    let mut scale = Vec::new();
    for rep in 0..REPLAYS {
        let t0 = Instant::now();
        scale_all(&mut updates, &inp.grads[rep % GRAD_SETS]);
        scale.push(ms(t0.elapsed()));
    }

    let mut weights = inp.weights.clone();
    let mut axpy = Vec::new();
    for _ in 0..=REPLAYS {
        let t0 = Instant::now();
        for (u, &i) in updates.iter().zip(&projectable) {
            fused::fused_axpy_chain(&mut weights[i], 1.0, -LR, u);
        }
        axpy.push(ms(t0.elapsed()));
    }
    axpy.remove(0);

    let mut weights = inp.weights.clone();
    let zeros = || -> Vec<Matrix> {
        inp.shapes
            .iter()
            .map(|s| Matrix::zeros(s.rows, s.cols))
            .collect()
    };
    let (mut m, mut v) = (zeros(), zeros());
    let mut adam = Vec::new();
    for rep in 0..=REPLAYS {
        let t = rep as i32 + 1;
        let (bc1, bc2) = (1.0 - 0.9f32.powi(t), 1.0 - 0.999f32.powi(t));
        let set = &inp.grads[rep % GRAD_SETS];
        let t0 = Instant::now();
        for i in 0..weights.len() {
            fused::fused_adam_update(
                &mut weights[i],
                &set[i],
                &mut m[i],
                &mut v[i],
                0.9,
                0.999,
                bc1,
                bc2,
                1e-8,
                LR,
                1.0,
            );
        }
        adam.push(ms(t0.elapsed()));
    }
    adam.remove(0);

    let (project_ms, scale_ms, axpy_ms, adam_ms) = (
        stats::p50(&project),
        stats::p50(&scale),
        stats::p50(&axpy),
        stats::p50(&adam),
    );
    out.put("core.projector.project_ms", project_ms, "ms", project.len());
    out.put(
        "core.projector.refresh_ms",
        stats::p50(&refresh),
        "ms",
        refresh.len(),
    );
    out.put("tensor.fused.apollo_scale_ms", scale_ms, "ms", scale.len());
    out.put("tensor.fused.axpy_chain_ms", axpy_ms, "ms", axpy.len());
    out.put("tensor.fused.adam_update_ms", adam_ms, "ms", adam.len());
    let apollo_p50 = stats::p50(&phases.apollo.1);
    out.put(
        "core.apollo.moments_ratio_ms",
        apollo_p50 - (project_ms + scale_ms + axpy_ms),
        "ms",
        phases.apollo.1.len(),
    );
    let proj_flops: usize = projectable
        .iter()
        .map(|&i| 2 * RANK * inp.shapes[i].rows * inp.shapes[i].cols)
        .sum();
    out.put(
        "core.projector.gflops_computed",
        proj_flops as f64 / (project_ms * 1e6),
        "GFLOP/s",
        project.len(),
    );
    // fused_adam_update reads w, g, m, v and writes w, m, v: 28 B/element.
    out.put(
        "tensor.fused.adam_update_gbps_computed",
        28.0 * inp.elems() as f64 / (adam_ms * 1e6),
        "GB/s",
        adam.len(),
    );
}

pub fn run(ctx: &Ctx) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let (inp, setup_s) = timed_setup(|| Inputs::generate(ctx.seed));

    // The untraced pass: in a traced run, the reference the traced pass is
    // compared with.
    let phases = run_phases(ctx, &inp, &mut Recorder::new(false));
    let steps = |p: &(f64, Vec<f64>)| p.1.len() as u64 + 1;
    out.attempted = steps(&phases.adamw) + steps(&phases.apollo) + steps(&phases.mini);
    out.fingerprint = phases.fingerprint;
    for name in &phases.non_finite {
        out.fail(1, format!("{name}: non-finite weights after the last step"));
    }
    for why in check_replay_equals_step(&inp) {
        out.fail(1, why);
    }

    out.put_percentile("apollo_step_ms_p50", &phases.apollo.1, 50, "ms");
    out.put_block_tail("apollo_step_ms_p90", &phases.apollo.1, 90, TAIL_BLOCK, "ms");
    out.put(
        "apollo_steps_per_s",
        stats::block_rate_per_s(&phases.apollo.1, RATE_BLOCK),
        "1/s",
        phases.apollo.1.len(),
    );
    out.put_percentile("apollo_mini_step_ms_p50", &phases.mini.1, 50, "ms");
    out.put_percentile("adamw_step_ms_p50", &phases.adamw.1, 50, "ms");
    out.put(
        "opt_state_bytes",
        phases.apollo_state_bytes as f64,
        "bytes",
        1,
    );
    out.put("core.apollo.first_step_ms", phases.apollo.0, "ms", 1);
    out.put("core.adamw.first_step_ms", phases.adamw.0, "ms", 1);
    put_setup_and_rss(&mut out, setup_s);

    let mut rec = Recorder::new(ctx.trace);
    if ctx.trace {
        let traced = run_phases(ctx, &inp, &mut rec);
        out.attempted *= 2;
        if traced.fingerprint != phases.fingerprint {
            out.fail(1, "traced pass produced different weights".to_string());
        }
        out.put(
            "trace_overhead_pct",
            trace_overhead_pct(traced.round_ms(), phases.round_ms()),
            "%",
            1,
        );
        replay_kernels(&inp, &phases, &mut out);
        out.put(
            "machine.fma_gflops_1t",
            machine::fma_gflops_1t(),
            "GFLOP/s",
            5,
        );
        out.put(
            "machine.copy_gbps_32mb",
            machine::copy_gbps(machine::FOOTPRINT_SMALL),
            "GB/s",
            5,
        );
        out.put(
            "machine.copy_gbps_1gb",
            machine::copy_gbps(machine::FOOTPRINT_LARGE),
            "GB/s",
            5,
        );
        out.notes.push(format!(
            "machine.copy_gbps_*: footprints {} MB (the optstep working set) and {} MB (>= 4x the 260 MB LLC), read+write bytes",
            machine::FOOTPRINT_SMALL >> 20,
            machine::FOOTPRINT_LARGE >> 20
        ));
    }
    (out, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_counts_support_the_reported_percentiles() {
        let ctx = Ctx {
            seed: 0,
            seconds: 20,
            trace: false,
        };
        assert!(stats::percentile(&vec![0.0; ctx.count(APOLLO_STEPS_PER_S)], 90).is_some());
        assert!(stats::percentile(&vec![0.0; ctx.count(MINI_STEPS_PER_S)], 50).is_some());
        assert!(stats::percentile(&vec![0.0; ctx.count(ADAMW_STEPS_PER_S)], 50).is_some());
        // No projector refresh falls inside the steady steps.
        assert!(ctx.count(APOLLO_STEPS_PER_S) < UPDATE_FREQ);
    }
}
