//! What this box can do, probed in the same process as the kernels it is
//! compared with: single-thread FMA rate and copy bandwidth at two sizes.
//! Kernel rows in the `optstep` report are read as a share of these.

use std::hint::black_box;
use std::time::Instant;

/// Independent accumulator lanes: enough vector registers in flight to
/// cover the FMA latency on both 256- and 512-bit units.
const LANES: usize = 128;
const FMA_ITERS: usize = 4_000_000;
const REPEATS: usize = 5;

/// Peak-ish single-thread f32 FMA rate in GFLOP/s (2 flops per lane per
/// iteration), best of [`REPEATS`]. A register-resident loop: no memory
/// traffic, so this is the ceiling a compute-bound kernel is measured
/// against, not a rate any kernel here reaches.
pub fn fma_gflops_1t() -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPEATS {
        let a = black_box([1.000_000_1f32; LANES]);
        let b = black_box([1.0e-7f32; LANES]);
        let mut acc = black_box([1.0f32; LANES]);
        let t0 = Instant::now();
        for _ in 0..FMA_ITERS {
            for i in 0..LANES {
                acc[i] = acc[i].mul_add(a[i], b[i]);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max(2.0 * LANES as f64 * FMA_ITERS as f64 / secs / 1e9);
    }
    best
}

/// Copy bandwidth in GB/s at a total footprint of `footprint_bytes`
/// (source and destination of half that each), counting bytes read plus
/// bytes written, best of [`REPEATS`] after one pass that faults the pages
/// in.
pub fn copy_gbps(footprint_bytes: usize) -> f64 {
    let n = footprint_bytes / 2 / std::mem::size_of::<f32>();
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    dst.copy_from_slice(&src);
    let mut best = 0.0f64;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        let secs = t0.elapsed().as_secs_f64();
        black_box(&mut dst);
        best = best.max(footprint_bytes as f64 / secs / 1e9);
    }
    best
}

/// The `optstep` working set: 6.3 M weights + as many gradients per step.
pub const FOOTPRINT_SMALL: usize = 32 << 20;
/// At least 4× the 260 MB last-level cache of the reference box.
pub const FOOTPRINT_LARGE: usize = 1 << 30;
