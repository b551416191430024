//! Kernel shape table: GFLOP/s of the three GEMM variants at the Table-8
//! proxy shapes, and of each fused single-pass kernel next to the staged
//! `fused::reference` chain it replaced.
//!
//! Writes `results/kernel_table.json`. The file is a record of the machine
//! it ran on, not a baseline: nothing reads it back, and performance is
//! gated only by the standing benchmark (`benchmark/`). One kernel thread
//! unless `APOLLO_NUM_THREADS` says otherwise; the thread count and the
//! SIMD tier are recorded next to the rows, because numbers taken at
//! different values of either are not comparable. `--smoke` shortens the
//! timing windows.

use std::time::Instant;

use apollo_bench::{print_table, write_json};
use apollo_nn::ModelConfig;
use apollo_tensor::fused::{self, ChannelScale};
use apollo_tensor::{current_threads, set_thread_override, simd_tier, Matrix, Rng};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    /// Proxy-shape label (`mlp-7b`), or `rows x cols` for the fused pairs.
    shape: String,
    kernel: &'static str,
    /// Output rows.
    m: usize,
    /// Contraction dimension (GEMM) or columns (fused pairs).
    k: usize,
    /// Output columns; 0 for the fused pairs.
    n: usize,
    gflops: f64,
}

#[derive(Serialize)]
struct Table {
    threads: usize,
    simd_tier: &'static str,
    /// `full` or `smoke`.
    mode: &'static str,
    rows: Vec<Row>,
}

/// The Table-8 proxy shapes: per-layer weight shapes of the CPU proxy models
/// driven by a `batch·seq = 128` activation panel, plus square shapes up to
/// the llama-60m hidden size (512).
fn proxy_shapes() -> Vec<(String, usize, usize, usize)> {
    let rows = 2 * 64; // batch 2 · seq 64, the proxy activation panel
    let mut shapes = Vec::new();
    for cfg in [ModelConfig::tiny_60m(), ModelConfig::tiny_7b()] {
        let tag = cfg.name.trim_start_matches("tiny-").to_string();
        shapes.push((format!("attn-{tag}"), rows, cfg.hidden, cfg.hidden));
        shapes.push((format!("mlp-{tag}"), rows, cfg.hidden, cfg.intermediate));
        shapes.push((format!("lmhead-{tag}"), rows, cfg.hidden, cfg.vocab_size));
    }
    shapes.push(("sq-256".to_string(), 256, 256, 256));
    shapes.push(("sq-512".to_string(), 512, 512, 512));
    shapes
}

/// Best (minimum) seconds per call of `f` over `reps` timing windows of at
/// least `min_secs` each. The minimum, not the median: on a shared box a
/// scheduler hiccup can poison half the windows, and the minimum estimates
/// what the machine can do rather than its momentary load.
fn time_best(reps: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut iters = 0u32;
        let start = Instant::now();
        loop {
            f();
            iters += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= min_secs {
                best = best.min(elapsed / f64::from(iters));
                break;
            }
        }
    }
    best
}

/// One kernel of a sweep: name, FLOPs per call, closure.
type Case<'a> = (&'static str, f64, Box<dyn FnMut() + 'a>);

/// Times every case and appends one row each.
fn measure(
    rows: &mut Vec<Row>,
    (reps, min_secs): (usize, f64),
    shape: &str,
    (m, k, n): (usize, usize, usize),
    cases: Vec<Case>,
) {
    for (kernel, flops, mut f) in cases {
        let secs = time_best(reps, min_secs, &mut f);
        rows.push(Row {
            shape: shape.to_string(),
            kernel,
            m,
            k,
            n,
            gflops: flops / secs / 1e9,
        });
    }
}

fn gemm_sweep(rows: &mut Vec<Row>, timing: (usize, f64)) {
    for (shape, m, k, n) in proxy_shapes() {
        let mut rng = Rng::seed_from_u64(0xBE7C);
        let a = Matrix::randn(m, k, &mut rng);
        let b = Matrix::randn(k, n, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        let flops = 2.0 * (m * k * n) as f64;
        let cases: Vec<Case> = vec![
            ("matmul", flops, Box::new(|| drop(a.matmul(&b)))),
            (
                "matmul_transb",
                flops,
                Box::new(|| drop(a.matmul_transb(&bt))),
            ),
            (
                "matmul_transa",
                flops,
                Box::new(|| drop(at.matmul_transa(&b))),
            ),
        ];
        measure(rows, timing, &shape, (m, k, n), cases);
    }
}

/// Each fused kernel against the staged reference it replaced, at one
/// transformer-proxy shape. Both arms of a pair share the FLOP estimate, so
/// the GFLOP/s ratio is the memory-traffic speedup directly.
fn fused_sweep(out: &mut Vec<Row>, timing: (usize, f64)) {
    let (rows, cols) = (512usize, 2048usize);
    let mut rng = Rng::seed_from_u64(0xF5ED);
    let x = Matrix::randn(rows, cols, &mut rng);
    let gain = Matrix::randn(1, cols, &mut rng);
    let gout = Matrix::randn(rows, cols, &mut rng);
    let a = Matrix::randn(rows, cols, &mut rng);
    let b = Matrix::randn(rows, cols, &mut rng);
    let g = Matrix::randn(rows, cols, &mut rng);
    let targets: Vec<u32> = (0..rows).map(|r| (r * 97 % cols) as u32).collect();
    let (_, inv_rms) = fused::fused_rmsnorm_fwd(&x, &gain, 1e-5);
    // Optimizer state mutates across timing reps; the moments are EMAs of a
    // fixed gradient and the weight decays geometrically, so magnitudes stay
    // bounded and the timing stationary.
    let mut w_f = Matrix::randn(rows, cols, &mut rng);
    let mut w_u = w_f.clone();
    let (mut m_f, mut v_f) = (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols));
    let (mut m_u, mut v_u) = (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols));
    let col_scales: Vec<f32> = (0..cols).map(|j| 0.5 + (j % 7) as f32 * 0.1).collect();
    let (mut upd_f, mut upd_u) = (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols));
    let (b1, b2, bc1, bc2, eps, lr, decay) = (
        0.9f32, 0.999f32, 0.99f32, 0.999f32, 1e-8f32, 1e-3f32, 0.999f32,
    );
    let per_elem = |flops: usize| (rows * cols * flops) as f64;

    let cases: Vec<Case> = vec![
        ("fused_rmsnorm_fwd", per_elem(4), {
            let (x, gain) = (&x, &gain);
            Box::new(move || drop(fused::fused_rmsnorm_fwd(x, gain, 1e-5)))
        }),
        ("unfused_rmsnorm_fwd", per_elem(4), {
            let (x, gain) = (&x, &gain);
            Box::new(move || drop(fused::reference::rmsnorm_fwd(x, gain, 1e-5)))
        }),
        ("fused_rmsnorm_bwd", per_elem(10), {
            let (x, gain, gout, inv) = (&x, &gain, &gout, &inv_rms);
            Box::new(move || drop(fused::fused_rmsnorm_bwd(x, gain, gout, inv)))
        }),
        ("unfused_rmsnorm_bwd", per_elem(10), {
            let (x, gain, gout, inv) = (&x, &gain, &gout, &inv_rms);
            Box::new(move || drop(fused::reference::rmsnorm_bwd(x, gain, gout, inv)))
        }),
        ("fused_swiglu_fwd", per_elem(16), {
            let (a, b) = (&a, &b);
            Box::new(move || drop(fused::fused_swiglu_fwd(a, b)))
        }),
        ("unfused_swiglu_fwd", per_elem(16), {
            let (a, b) = (&a, &b);
            Box::new(move || drop(fused::reference::swiglu_fwd(a, b)))
        }),
        ("fused_swiglu_bwd", per_elem(24), {
            let (a, b, gout) = (&a, &b, &gout);
            Box::new(move || drop(fused::fused_swiglu_bwd(a, b, gout)))
        }),
        ("unfused_swiglu_bwd", per_elem(24), {
            let (a, b, gout) = (&a, &b, &gout);
            Box::new(move || drop(fused::reference::swiglu_bwd(a, b, gout)))
        }),
        ("fused_softmax_xent_fwd", per_elem(24), {
            let (x, t) = (&x, &targets);
            Box::new(move || drop(fused::fused_softmax_xent_fwd(x, t)))
        }),
        ("unfused_softmax_xent_fwd", per_elem(24), {
            let (x, t) = (&x, &targets);
            Box::new(move || drop(fused::reference::softmax_xent_fwd(x, t)))
        }),
        ("fused_adam_update", per_elem(12), {
            let g = &g;
            Box::new(move || {
                fused::fused_adam_update(
                    &mut w_f, g, &mut m_f, &mut v_f, b1, b2, bc1, bc2, eps, lr, decay,
                );
            })
        }),
        ("unfused_adam_update", per_elem(12), {
            let g = &g;
            Box::new(move || {
                fused::reference::adam_update(
                    &mut w_u, g, &mut m_u, &mut v_u, b1, b2, bc1, bc2, eps, lr, decay,
                );
            })
        }),
        ("fused_apollo_scale", per_elem(5), {
            let (g, s) = (&g, &col_scales);
            Box::new(move || {
                fused::fused_apollo_scale(&mut upd_f, g, ChannelScale::Cols(s), 0.01);
            })
        }),
        ("unfused_apollo_scale", per_elem(5), {
            let (g, s) = (&g, &col_scales);
            Box::new(move || {
                fused::reference::apollo_scale(&mut upd_u, g, ChannelScale::Cols(s), 0.01);
            })
        }),
    ];
    measure(
        out,
        timing,
        &format!("{rows}x{cols}"),
        (rows, cols, 0),
        cases,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The kernels' own default is every core; this table is read one thread
    // at a time.
    if std::env::var_os("APOLLO_NUM_THREADS").is_none() {
        set_thread_override(Some(1));
    }
    // `time_best` needs one clean window, so smoke takes more, shorter ones:
    // on a shared box a burst of stolen CPU can span several in a row.
    let timing = if smoke { (7, 0.03) } else { (5, 0.05) };
    let mut rows = Vec::new();
    gemm_sweep(&mut rows, timing);
    fused_sweep(&mut rows, timing);

    let table = Table {
        threads: current_threads(),
        simd_tier: simd_tier().name(),
        mode: if smoke { "smoke" } else { "full" },
        rows,
    };
    let printed: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.shape.clone(),
                r.kernel.to_string(),
                format!("{}x{}x{}", r.m, r.k, r.n),
                format!("{:.2}", r.gflops),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Kernel shape table ({} thread(s), {}, {})",
            table.threads, table.simd_tier, table.mode
        ),
        &["Shape", "Kernel", "m x k x n", "GFLOP/s"],
        &printed,
    );
    write_json("kernel_table", &table);
}
