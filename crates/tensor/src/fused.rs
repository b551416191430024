//! Fused single-pass elementwise kernels.
//!
//! The matmuls were taken off the memory wall by the packed kernels in
//! `matmul.rs`; what remains between them is elementwise glue — RMSNorm,
//! RoPE, SwiGLU, softmax cross-entropy, residual updates, and the
//! optimizer's moment/weight chains — that the staged `Matrix` ops walk in
//! three to seven full passes each. Every kernel here performs the same
//! chain in a single traversal (two for softmax cross-entropy, which needs
//! the row max first), with inner loops unrolled in 8-wide lanes and no
//! per-element branches, so the compiler can vectorize the elementwise
//! work.
//!
//! # Bit-identity contract
//!
//! Each fused kernel is *bit-identical* to the staged reference it
//! replaces ([`reference`] keeps those alive for the property tests and
//! benchmarks), not merely close:
//!
//! - every element's float expression is copied verbatim from the staged
//!   ops, including associativity (`(v * inv) * g`, `(beta * m) +
//!   (((1 - beta) * g) * g)`, …);
//! - reductions (row mean-squares, softmax denominators, the loss sum)
//!   keep the reference's strict ascending single-accumulator order — the
//!   8-lane unrolling applies only to independent elementwise work, never
//!   to such a reduction, because float addition does not reassociate. The
//!   one exception is defined as lanes on both sides: the APOLLO update
//!   norm ([`lane_norm`]) is eight `f64` lanes per row, rows added in
//!   ascending order, for the fused kernels and the staged reference alike;
//! - large inputs are split into row bands on the worker pool exactly like
//!   the matmuls: the partition is a pure function of `(rows, threads)`
//!   and each band owns a disjoint output slice, so results match the
//!   serial path bit-for-bit at any thread count. Cross-row reductions
//!   (the RMSNorm gain gradient, the loss sum, the final add over
//!   [`lane_norm`]'s per-row sums) always run serially.
//!
//! `tensor/tests/fused_equivalence.rs` pins the contract per kernel across
//! adversarial shapes and thread counts; the train-loop test in
//! `apollo-nn` pins it end-to-end against the staged graph arm.

use crate::pool::par_bands;
use crate::Matrix;

// Per-element cost estimates feeding the shared parallelism gate
// (`should_parallelize`, threshold 2^20 FLOPs). Transcendental-heavy
// kernels count higher so they cross onto the pool at smaller shapes.
const RMSNORM_FWD_FLOPS: usize = 4;
const RMSNORM_BWD_FLOPS: usize = 10;
const SWIGLU_FWD_FLOPS: usize = 16;
const SWIGLU_BWD_FLOPS: usize = 24;
const XENT_FLOPS: usize = 24;
const ROPE_FLOPS: usize = 16;
const AXPY_FLOPS: usize = 3;
const ADAM_FLOPS: usize = 12;
const SCALE_NORM_FLOPS: usize = 5;
const SCALE_APPLY_FLOPS: usize = 6;

/// `1 / (1 + e^{-x})`, the graph's SiLU sigmoid expression.
#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Applies `out[i] = f(i)` over a lane-unrolled elementwise loop: full
/// 8-wide chunks run a fixed-trip inner loop (unrolled and, for simple
/// `f`, vectorized by the compiler), the tail runs scalar. Each element is
/// independent, so the unroll cannot change any result bit.
#[inline]
fn for_each_lane(out: &mut [f32], f: impl Fn(usize) -> f32) {
    let chunks = out.len() / 8;
    for c in 0..chunks {
        let base = c * 8;
        let lane: &mut [f32] = &mut out[base..base + 8];
        for (i, o) in lane.iter_mut().enumerate() {
            *o = f(base + i);
        }
    }
    for (i, o) in out.iter_mut().enumerate().skip(chunks * 8) {
        *o = f(i);
    }
}

// ----- rmsnorm ---------------------------------------------------------------

/// Row-wise RMSNorm with learned gain in one traversal per row.
///
/// Returns the normalized output and the cached `1 / rms` per row (the
/// only activation the backward needs). Bit-identical to the staged
/// reference: ascending mean-square sum, then `(v * inv) * g` per element.
///
/// # Panics
///
/// Panics if `gain` is not `1 × cols`.
pub fn fused_rmsnorm_fwd(x: &Matrix, gain: &Matrix, eps: f32) -> (Matrix, Vec<f32>) {
    assert_eq!(
        gain.shape(),
        (1, x.cols()),
        "fused_rmsnorm_fwd: gain must be 1 x cols"
    );
    let (rows, cols) = x.shape();
    let n = cols as f32;
    let mut y = Matrix::zeros(rows, cols);
    let mut inv_rms = vec![0.0f32; rows];
    let xs = x.as_slice();
    let gsl = &gain.row(0)[..cols];
    let flops = rows * cols * RMSNORM_FWD_FLOPS;
    par_bands(
        rows,
        flops,
        [(y.as_mut_slice(), cols), (&mut inv_rms[..], 1)],
        |lo, hi, [yband, iband]| {
            let xrow = |r: usize| &xs[r * cols..][..cols];
            // From row `r`'s sum of squares: its cached `1 / rms` and its output.
            let mut write = |r: usize, sumsq: f32| {
                let inv = 1.0 / (sumsq / n + eps).sqrt();
                iband[r - lo] = inv;
                let out = &mut yband[(r - lo) * cols..][..cols];
                for ((o, &v), &g) in out.iter_mut().zip(xrow(r)).zip(gsl) {
                    *o = v * inv * g;
                }
            };
            let mut r = lo;
            // Four rows at a time: each row's mean-square sum is a strict
            // sequential chain (bit-identity forbids reassociating it), so a
            // single row is f32-add-latency-bound. Four independent rows'
            // chains interleave to hide that latency while every row still
            // accumulates in exactly the reference's ascending order.
            while r + 4 <= hi {
                let (x0, x1, x2, x3) = (xrow(r), xrow(r + 1), xrow(r + 2), xrow(r + 3));
                let mut acc = [0.0f32; 4];
                for j in 0..cols {
                    acc[0] += x0[j] * x0[j];
                    acc[1] += x1[j] * x1[j];
                    acc[2] += x2[j] * x2[j];
                    acc[3] += x3[j] * x3[j];
                }
                for (i, sumsq) in acc.into_iter().enumerate() {
                    write(r + i, sumsq);
                }
                r += 4;
            }
            while r < hi {
                // Strict ascending single-accumulator sum (reduction: no lanes).
                write(r, xrow(r).iter().map(|&v| v * v).sum::<f32>());
                r += 1;
            }
        },
    );
    (y, inv_rms)
}

/// Backward of [`fused_rmsnorm_fwd`]: returns `(dx, dgain)`.
///
/// `dx` rows are independent and band-parallel; the gain gradient is a
/// cross-row reduction and always accumulates serially in ascending row
/// order (the reference's order).
pub fn fused_rmsnorm_bwd(
    x: &Matrix,
    gain: &Matrix,
    gout: &Matrix,
    inv_rms: &[f32],
) -> (Matrix, Matrix) {
    let (rows, cols) = x.shape();
    let n = cols as f32;
    let mut dx = Matrix::zeros(rows, cols);
    let mut dg = Matrix::zeros(1, cols);
    let xs = x.as_slice();
    let gs = gain.row(0);
    let gos = gout.as_slice();
    let gsl = &gs[..cols];
    // Four-row block: each row's `t = Σ_j dy_j · g_j · x_j` reduction is a
    // strict sequential chain (the reference's ascending order), so one
    // row is f32-add-latency-bound; interleaving four independent rows'
    // chains hides the latency without touching any row's own order.
    let dx_rows4 = |r: usize, out: &mut [f32]| {
        let x0 = &xs[r * cols..][..cols];
        let x1 = &xs[(r + 1) * cols..][..cols];
        let x2 = &xs[(r + 2) * cols..][..cols];
        let x3 = &xs[(r + 3) * cols..][..cols];
        let g0 = &gos[r * cols..][..cols];
        let g1 = &gos[(r + 1) * cols..][..cols];
        let g2 = &gos[(r + 2) * cols..][..cols];
        let g3 = &gos[(r + 3) * cols..][..cols];
        let (mut t0, mut t1, mut t2, mut t3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for j in 0..cols {
            let gv = gsl[j];
            t0 += g0[j] * gv * x0[j];
            t1 += g1[j] * gv * x1[j];
            t2 += g2[j] * gv * x2[j];
            t3 += g3[j] * gv * x3[j];
        }
        let t = [t0, t1, t2, t3];
        let rows4 = [(x0, g0), (x1, g1), (x2, g2), (x3, g3)];
        for (i, (xrow, grow)) in rows4.into_iter().enumerate() {
            let inv = inv_rms[r + i];
            let ti = t[i];
            let orow = &mut out[i * cols..][..cols];
            for (((o, &gy), &gv), &xv) in orow.iter_mut().zip(grow).zip(gsl).zip(xrow) {
                *o = gy * gv * inv - inv * inv * inv / n * xv * ti;
            }
        }
    };
    let dx_row = |r: usize, inv: f32, dxrow: &mut [f32]| {
        let xrow = &xs[r * cols..][..cols];
        let grow = &gos[r * cols..][..cols];
        // t = Σ_j dy_j · g_j · x_j (reduction: strict ascending order).
        let mut t = 0.0f32;
        for ((&gy, &gv), &xv) in grow.iter().zip(gsl).zip(xrow) {
            t += gy * gv * xv;
        }
        for (((o, &gy), &gv), &xv) in dxrow.iter_mut().zip(grow).zip(gsl).zip(xrow) {
            *o = gy * gv * inv - inv * inv * inv / n * xv * t;
        }
    };
    let flops = rows * cols * RMSNORM_BWD_FLOPS;
    par_bands(
        rows,
        flops,
        [(dx.as_mut_slice(), cols)],
        |lo, hi, [band]| {
            let mut r = lo;
            while r + 4 <= hi {
                dx_rows4(r, &mut band[(r - lo) * cols..][..4 * cols]);
                r += 4;
            }
            while r < hi {
                dx_row(r, inv_rms[r], &mut band[(r - lo) * cols..][..cols]);
                r += 1;
            }
        },
    );
    // Gain gradient: sequential ascending-row accumulation (a cross-row
    // reduction, so it never runs on the pool); per-column chains are
    // independent, so the inner loop vectorizes.
    let dgs = dg.as_mut_slice();
    for (r, &inv) in inv_rms.iter().enumerate() {
        let xrow = &xs[r * cols..][..cols];
        let grow = &gos[r * cols..][..cols];
        for ((d, &gy), &xv) in dgs.iter_mut().zip(grow).zip(xrow) {
            *d += gy * xv * inv;
        }
    }
    (dx, dg)
}

// ----- swiglu ----------------------------------------------------------------

/// `silu(a) ⊙ b` in one pass, without the staged path's silu temporary.
///
/// Per element: `(a · σ(a)) · b`, the exact composition of the staged
/// `map` + `hadamard`.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn fused_swiglu_fwd(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "fused_swiglu_fwd: shape mismatch");
    let (rows, cols) = a.shape();
    let mut out = Matrix::zeros(rows, cols);
    let avs = a.as_slice();
    let bvs = b.as_slice();
    let flops = rows * cols * SWIGLU_FWD_FLOPS;
    par_bands(
        rows,
        flops,
        [(out.as_mut_slice(), cols)],
        |lo, hi, [band]| {
            let aband = &avs[lo * cols..hi * cols];
            let bband = &bvs[lo * cols..hi * cols];
            for_each_lane(band, |i| {
                let av = aband[i];
                av * sigmoid(av) * bband[i]
            });
        },
    );
    out
}

/// Backward of [`fused_swiglu_fwd`]: returns `(da, db)` in one traversal,
/// recomputing `σ(a)` instead of caching the silu activation (the same
/// expression as the forward, hence the same bits).
pub fn fused_swiglu_bwd(a: &Matrix, b: &Matrix, gout: &Matrix) -> (Matrix, Matrix) {
    assert_eq!(a.shape(), b.shape(), "fused_swiglu_bwd: shape mismatch");
    assert_eq!(a.shape(), gout.shape(), "fused_swiglu_bwd: gout mismatch");
    let (rows, cols) = a.shape();
    let mut da = Matrix::zeros(rows, cols);
    let mut db = Matrix::zeros(rows, cols);
    let avs = a.as_slice();
    let bvs = b.as_slice();
    let gos = gout.as_slice();
    let flops = rows * cols * SWIGLU_BWD_FLOPS;
    par_bands(
        rows,
        flops,
        [(da.as_mut_slice(), cols), (db.as_mut_slice(), cols)],
        |lo, hi, [daband, dbband]| {
            let base = lo * cols;
            for i in 0..(hi - lo) * cols {
                let x = avs[base + i];
                let g = gos[base + i];
                let s = sigmoid(x);
                // Staged arm: mul backward feeds `g · b` into silu backward
                // (`(g·b) · s · (1 + x·(1 − s))`) and `g · silu(a)` into db.
                daband[i] = g * bvs[base + i] * s * (1.0 + x * (1.0 - s));
                dbband[i] = g * (x * s);
            }
        },
    );
    (da, db)
}

// ----- softmax cross-entropy -------------------------------------------------

/// Mean softmax cross-entropy forward in two row passes (max, then
/// exp+sum) instead of the staged five.
///
/// Returns `(mean_loss, exps, denoms)` where `exps` holds the
/// *unnormalized* shifted exponentials and `denoms` the per-row sums —
/// together they are the backward's whole cache, and `exps[t] / denom` is
/// bit-identical to the staged path's normalized probability (one
/// division, same operands).
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target is out of range.
pub fn fused_softmax_xent_fwd(logits: &Matrix, targets: &[u32]) -> (f32, Matrix, Vec<f32>) {
    let (rows, cols) = logits.shape();
    assert_eq!(
        targets.len(),
        rows,
        "fused_softmax_xent_fwd: one target per row required"
    );
    for &t in targets {
        assert!(
            (t as usize) < cols,
            "fused_softmax_xent_fwd: target {t} out of range"
        );
    }
    let mut exps = Matrix::zeros(rows, cols);
    let mut denoms = vec![0.0f32; rows];
    let ls = logits.as_slice();
    let flops = rows * cols * XENT_FLOPS;
    par_bands(
        rows,
        flops,
        [(exps.as_mut_slice(), cols), (&mut denoms[..], 1)],
        |lo, hi, [eband, dband]| {
            for r in lo..hi {
                let row = &ls[r * cols..(r + 1) * cols];
                let erow = &mut eband[(r - lo) * cols..(r - lo + 1) * cols];
                // Pass 1: row max (sequential fold, reference order).
                let maxv = row.iter().cloned().fold(f32::MIN, f32::max);
                // Pass 2: shifted exponentials and their ascending sum.
                let mut denom = 0.0f32;
                for (e, &x) in erow.iter_mut().zip(row) {
                    *e = (x - maxv).exp();
                    denom += *e;
                }
                dband[r - lo] = denom;
            }
        },
    );
    // Loss: sequential ascending-row f64 accumulation (reference order),
    // reading one cached cell per row.
    let mut loss = 0.0f64;
    let es = exps.as_slice();
    for (r, &t) in targets.iter().enumerate() {
        let p = es[r * cols + t as usize] / denoms[r];
        loss += -(p.max(1e-30).ln()) as f64;
    }
    let mean = (loss / rows as f64) as f32;
    (mean, exps, denoms)
}

/// Backward of [`fused_softmax_xent_fwd`]: `dlogits[r][j] =
/// (softmax − onehot) · upstream / rows` in one pass.
///
/// Each row writes `(e / denom) · f` branch-free, then patches the single
/// target cell to `((e_t / denom) − 1) · f` — exactly the staged
/// `clone` / `set` / `scale_assign` composition.
pub fn fused_softmax_xent_bwd(
    exps: &Matrix,
    denoms: &[f32],
    targets: &[u32],
    upstream: f32,
) -> Matrix {
    let (rows, cols) = exps.shape();
    let n = rows as f32;
    let f = upstream / n;
    let mut dl = Matrix::zeros(rows, cols);
    let es = exps.as_slice();
    let flops = rows * cols * AXPY_FLOPS;
    par_bands(
        rows,
        flops,
        [(dl.as_mut_slice(), cols)],
        |lo, hi, [band]| {
            for r in lo..hi {
                let erow = &es[r * cols..(r + 1) * cols];
                let denom = denoms[r];
                let drow = &mut band[(r - lo) * cols..(r - lo + 1) * cols];
                for_each_lane(drow, |j| erow[j] / denom * f);
                let t = targets[r] as usize;
                drow[t] = (erow[t] / denom - 1.0) * f;
            }
        },
    );
    dl
}

// ----- rope ------------------------------------------------------------------

/// Per-pair rotation frequencies for a head dimension:
/// `freqs[i] = theta_base^(−2i / hd)`, hoisted out of the row loops (the
/// staged path recomputes this `powf` per row — a pure function, so
/// hoisting preserves bits).
pub fn rope_freqs(hd: usize, theta_base: f32) -> Vec<f32> {
    (0..hd / 2)
        .map(|i| theta_base.powf(-2.0 * i as f32 / hd as f32))
        .collect()
}

/// Rotates one `heads · hd` row in place at (float) position `posf` using
/// precomputed [`rope_freqs`]; `inverse` applies the inverse rotation
/// (`−θ`, bit-identical to the staged `sign · θ` with `sign = ±1`).
pub fn rope_rotate_row(
    row: &mut [f32],
    posf: f32,
    heads: usize,
    hd: usize,
    freqs: &[f32],
    inverse: bool,
) {
    let half = hd / 2;
    for h in 0..heads {
        let base = h * hd;
        for (i, &fr) in freqs.iter().take(half).enumerate() {
            let theta = posf * fr;
            let (sin, cos) = if inverse { -theta } else { theta }.sin_cos();
            let a = row[base + 2 * i];
            let b = row[base + 2 * i + 1];
            row[base + 2 * i] = a * cos - b * sin;
            row[base + 2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Rotates one row at absolute position `pos` in the forward direction —
/// the per-row entry point of the KV-cached decode path.
pub fn rope_row(row: &mut [f32], pos: usize, heads: usize, hd: usize, theta_base: f32) {
    let freqs = rope_freqs(hd, theta_base);
    rope_rotate_row(row, pos as f32, heads, hd, &freqs, false);
}

/// Applies (or inverts) the rotary embedding in place over a
/// `(batch·seq) × (heads·head_dim)` matrix, row `r` at position `r % seq`
/// — the canonical implementation shared by the autograd graph and the
/// decode path.
pub fn rope_apply(x: &mut Matrix, seq: usize, heads: usize, theta_base: f32, inverse: bool) {
    let (rows, cols) = x.shape();
    let hd = cols / heads;
    let freqs = &rope_freqs(hd, theta_base);
    let flops = rows * cols * ROPE_FLOPS;
    par_bands(rows, flops, [(x.as_mut_slice(), cols)], |lo, hi, [band]| {
        for r in lo..hi {
            let row = &mut band[(r - lo) * cols..(r - lo + 1) * cols];
            rope_rotate_row(row, (r % seq) as f32, heads, hd, freqs, inverse);
        }
    });
}

// ----- optimizer chains ------------------------------------------------------

/// `y ← y · decay + alpha · x` in one pass — the optimizer's
/// weight-decay-then-axpy tail. With `decay = 1.0` the multiply is exact,
/// so the staged path's "skip the decay when weight_decay is zero" branch
/// collapses into one branch-free code path.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn fused_axpy_chain(y: &mut Matrix, decay: f32, alpha: f32, x: &Matrix) {
    assert_eq!(y.shape(), x.shape(), "fused_axpy_chain: shape mismatch");
    let (rows, cols) = y.shape();
    let xs = x.as_slice();
    let flops = rows * cols * AXPY_FLOPS;
    par_bands(rows, flops, [(y.as_mut_slice(), cols)], |lo, hi, [band]| {
        let xband = &xs[lo * cols..hi * cols];
        for (yv, &xv) in band.iter_mut().zip(xband) {
            *yv = *yv * decay + alpha * xv;
        }
    });
}

/// One fused Adam moment-and-update pass: updates `m` and `v` in place and
/// writes the bias-corrected update into `upd` (reshaped to `g`).
///
/// Per element, in the staged order: `m ← β₁m + (1−β₁)g`,
/// `v ← β₂v + ((1−β₂)g)·g`, `upd ← (m/bc₁) / (√(v/bc₂) + ε)`.
#[allow(clippy::too_many_arguments)]
pub fn fused_adam_moments(
    m: &mut Matrix,
    v: &mut Matrix,
    upd: &mut Matrix,
    g: &Matrix,
    beta1: f32,
    beta2: f32,
    bc1: f32,
    bc2: f32,
    eps: f32,
) {
    assert_eq!(m.shape(), g.shape(), "fused_adam_moments: m/g mismatch");
    assert_eq!(v.shape(), g.shape(), "fused_adam_moments: v/g mismatch");
    let (rows, cols) = g.shape();
    upd.resize_to(rows, cols);
    let gs = g.as_slice();
    let flops = rows * cols * ADAM_FLOPS;
    par_bands(
        rows,
        flops,
        [
            (m.as_mut_slice(), cols),
            (v.as_mut_slice(), cols),
            (upd.as_mut_slice(), cols),
        ],
        |lo, hi, [mband, vband, uband]| {
            let gband = &gs[lo * cols..hi * cols];
            for i in 0..gband.len() {
                let gv = gband[i];
                let mv = beta1 * mband[i] + (1.0 - beta1) * gv;
                let vv = beta2 * vband[i] + (1.0 - beta2) * gv * gv;
                mband[i] = mv;
                vband[i] = vv;
                uband[i] = (mv / bc1) / ((vv / bc2).sqrt() + eps);
            }
        },
    );
}

/// The full fused Adam parameter step: moments, bias correction, weight
/// decay, and the weight write in a single pass over the parameter —
/// without materializing the update matrix at all.
///
/// `decay` is the staged path's `1 − lr · weight_decay` (or exactly `1.0`
/// when weight decay is off). Per element, after the moment updates:
/// `w ← w · decay + (−lr) · (m/bc₁) / (√(v/bc₂) + ε)`.
#[allow(clippy::too_many_arguments)]
pub fn fused_adam_update(
    w: &mut Matrix,
    g: &Matrix,
    m: &mut Matrix,
    v: &mut Matrix,
    beta1: f32,
    beta2: f32,
    bc1: f32,
    bc2: f32,
    eps: f32,
    lr: f32,
    decay: f32,
) {
    assert_eq!(w.shape(), g.shape(), "fused_adam_update: w/g mismatch");
    assert_eq!(m.shape(), g.shape(), "fused_adam_update: m/g mismatch");
    assert_eq!(v.shape(), g.shape(), "fused_adam_update: v/g mismatch");
    let (rows, cols) = g.shape();
    let gs = g.as_slice();
    let flops = rows * cols * ADAM_FLOPS;
    par_bands(
        rows,
        flops,
        [
            (w.as_mut_slice(), cols),
            (m.as_mut_slice(), cols),
            (v.as_mut_slice(), cols),
        ],
        |lo, hi, [wband, mband, vband]| {
            let gband = &gs[lo * cols..hi * cols];
            for i in 0..gband.len() {
                let gv = gband[i];
                let mv = beta1 * mband[i] + (1.0 - beta1) * gv;
                let vv = beta2 * vband[i] + (1.0 - beta2) * gv * gv;
                mband[i] = mv;
                vband[i] = vv;
                let u = (mv / bc1) / ((vv / bc2).sqrt() + eps);
                wband[i] = wband[i] * decay + (-lr) * u;
            }
        },
    );
}

/// Which channel geometry an APOLLO scaling factor applies along.
#[derive(Debug, Clone, Copy)]
pub enum ChannelScale<'a> {
    /// One factor for the whole tensor (APOLLO-Mini's norm-ratio scalar).
    Tensor(f32),
    /// One factor per column (`update[r][j] = g[r][j] · s[j]`).
    Cols(&'a [f32]),
    /// One factor per row (`update[r][j] = g[r][j] · s[r]`).
    Rows(&'a [f32]),
}

/// One row's share of a [`ChannelScale`].
#[derive(Clone, Copy)]
enum RowScale<'a> {
    /// The same factor for every element of the row.
    Uniform(f32),
    /// One factor per column.
    PerCol(&'a [f32]),
}

impl<'a> ChannelScale<'a> {
    /// # Panics
    ///
    /// Panics if a per-channel factor list disagrees with `rows × cols`.
    fn check(self, rows: usize, cols: usize) {
        match self {
            ChannelScale::Cols(s) => assert_eq!(s.len(), cols, "need one factor per column"),
            ChannelScale::Rows(s) => assert_eq!(s.len(), rows, "need one factor per row"),
            ChannelScale::Tensor(_) => {}
        }
    }

    fn row(self, r: usize) -> RowScale<'a> {
        match self {
            ChannelScale::Tensor(s) => RowScale::Uniform(s),
            ChannelScale::Rows(s) => RowScale::Uniform(s[r]),
            ChannelScale::Cols(s) => RowScale::PerCol(s),
        }
    }
}

/// One element of APOLLO's update, `(g · s) · alpha` — the single
/// expression the scale, norm and apply kernels (and, spelled as staged
/// `Matrix` ops, the reference) all evaluate.
#[inline(always)]
fn scaled(g: f32, s: f32, alpha: f32) -> f32 {
    g * s * alpha
}

/// Sum of `u²` over one row, the row half of [`lane_norm`]: `u` is
/// evaluated on element `j` of each of the `N` equal-length `srcs`, its
/// square goes to `f64` lane `j % 8` (ascending `j` within a lane), then
/// the lanes are added in ascending order. Eight independent add chains
/// instead of one is what lets the pass run at memory speed; the fixed lane
/// assignment is what makes it a definition rather than a reassociation.
#[inline]
fn sumsq_lanes<const N: usize>(srcs: [&[f32]; N], u: impl Fn([f32; N]) -> f32) -> f64 {
    let mut lanes = [0.0f64; 8];
    let len = srcs[0].len();
    let full = len - len % 8;
    for base in (0..full).step_by(8) {
        // One bounds check per source per chunk; the fixed-trip lane loop
        // has none and vectorizes.
        let chunk: [&[f32; 8]; N] = srcs.map(|s| s[base..base + 8].try_into().unwrap());
        for (i, lane) in lanes.iter_mut().enumerate() {
            let v = u(chunk.map(|c| c[i])) as f64;
            *lane += v * v;
        }
    }
    for (i, lane) in lanes.iter_mut().enumerate().take(len - full) {
        let v = u(srcs.map(|s| s[full + i])) as f64;
        *lane += v * v;
    }
    lanes.iter().fold(0.0, |acc, &lane| acc + lane)
}

/// The Frobenius norm the APOLLO update kernels and their staged
/// reference share: `row_sumsq(r)` per row (a [`sumsq_lanes`] sum; rows
/// may run as pool bands, each storing only its own sums), the rows added
/// in ascending order on the calling thread, one `f64` square root,
/// rounded to `f32`. No step depends on the band partition, so the value
/// is the same at every thread count.
fn lane_norm(rows: usize, cols: usize, row_sumsq: impl Fn(usize) -> f64 + Sync) -> f32 {
    let mut sums = vec![0.0f64; rows];
    let flops = rows * cols * SCALE_NORM_FLOPS;
    par_bands(rows, flops, [(&mut sums[..], 1)], |lo, hi, [band]| {
        for (r, sum) in (lo..hi).zip(band) {
            *sum = row_sumsq(r);
        }
    });
    let total = sums.iter().fold(0.0f64, |acc, &sum| acc + sum);
    total.sqrt() as f32
}

/// [`lane_norm`] of a materialised matrix.
fn lane_fro_norm(x: &Matrix) -> f32 {
    let (rows, cols) = x.shape();
    lane_norm(rows, cols, |r| sumsq_lanes([x.row(r)], |[v]| v))
}

/// APOLLO's scaled-update construction: writes `update ← (grad ⊙ s) ·
/// alpha` (reshaping `update` to `grad`) in one banded pass and returns its
/// Frobenius norm ([`lane_norm`]'s definition).
///
/// Replaces the staged `copy_from` → `scale_cols`/`scale_rows`/
/// `scale_assign` → `scale_assign(alpha)` → norm chain (four to five
/// traversals). The optimizer step itself no longer builds the update
/// ([`fused_apollo_norm`] + [`fused_apollo_apply`]); this kernel is the
/// staged form those two must equal.
///
/// # Panics
///
/// Panics if a channel-scale length disagrees with `grad`'s shape.
pub fn fused_apollo_scale(
    update: &mut Matrix,
    grad: &Matrix,
    scale: ChannelScale<'_>,
    alpha: f32,
) -> f32 {
    let (rows, cols) = grad.shape();
    scale.check(rows, cols);
    update.resize_to(rows, cols);
    let flops = rows * cols * SCALE_NORM_FLOPS;
    par_bands(
        rows,
        flops,
        [(update.as_mut_slice(), cols)],
        |lo, hi, [band]| {
            for (r, out) in (lo..hi).zip(band.chunks_exact_mut(cols.max(1))) {
                let out = out.iter_mut().zip(grad.row(r));
                match scale.row(r) {
                    RowScale::Uniform(s) => out.for_each(|(o, &g)| *o = scaled(g, s, alpha)),
                    RowScale::PerCol(s) => out
                        .zip(s)
                        .for_each(|((o, &g), &s)| *o = scaled(g, s, alpha)),
                }
            }
        },
    );
    lane_fro_norm(update)
}

/// The norm [`fused_apollo_scale`] would return, without the update: one
/// read-only pass over `grad` with each update element formed in a
/// register and squared straight into [`lane_norm`]'s lanes. Feeds the
/// norm-growth limiter before [`fused_apollo_apply`] writes the weights.
///
/// # Panics
///
/// Panics if a channel-scale length disagrees with `grad`'s shape.
pub fn fused_apollo_norm(grad: &Matrix, scale: ChannelScale<'_>, alpha: f32) -> f32 {
    let (rows, cols) = grad.shape();
    scale.check(rows, cols);
    lane_norm(rows, cols, |r| match scale.row(r) {
        RowScale::Uniform(s) => sumsq_lanes([grad.row(r)], |[g]| scaled(g, s, alpha)),
        RowScale::PerCol(s) => sumsq_lanes([grad.row(r), s], |[g, s]| scaled(g, s, alpha)),
    })
}

/// APOLLO's scale-and-apply in one pass with no update matrix:
/// `w ← w · decay + step · (((g · s) · alpha) · clamp)`.
///
/// Bit-identical to the staged [`fused_apollo_scale`] → optional
/// `scale_assign(clamp)` → [`fused_axpy_chain`]`(w, decay, step, update)`
/// chain: the update element is the same `f32` expression, rounded at the
/// same points, it just never leaves a register. `clamp = 1.0` is the
/// limiter's "passed" case (an exact multiply, like `decay = 1.0`).
///
/// # Panics
///
/// Panics if `w` and `grad` differ in shape or a channel-scale length
/// disagrees with it.
pub fn fused_apollo_apply(
    w: &mut Matrix,
    grad: &Matrix,
    scale: ChannelScale<'_>,
    alpha: f32,
    clamp: f32,
    decay: f32,
    step: f32,
) {
    assert_eq!(
        w.shape(),
        grad.shape(),
        "fused_apollo_apply: shape mismatch"
    );
    let (rows, cols) = grad.shape();
    scale.check(rows, cols);
    let flops = rows * cols * SCALE_APPLY_FLOPS;
    par_bands(rows, flops, [(w.as_mut_slice(), cols)], |lo, hi, [band]| {
        let put = |wv: &mut f32, u: f32| *wv = *wv * decay + step * (u * clamp);
        for (r, wrow) in (lo..hi).zip(band.chunks_exact_mut(cols.max(1))) {
            let wrow = wrow.iter_mut().zip(grad.row(r));
            match scale.row(r) {
                RowScale::Uniform(s) => wrow.for_each(|(wv, &g)| put(wv, scaled(g, s, alpha))),
                RowScale::PerCol(s) => wrow
                    .zip(s)
                    .for_each(|((wv, &g), &s)| put(wv, scaled(g, s, alpha))),
            }
        }
    });
}

// ----- unfused references ----------------------------------------------------

/// The staged (unfused) implementations the fused kernels replace, built
/// from the same `Matrix` primitives the seed code used. They are the
/// ground truth of the bit-identity property tests and the `unfused_*`
/// rows of the `kernel_table` binary; keep their float-op order frozen.
pub mod reference {
    use super::sigmoid;
    use crate::Matrix;

    /// Staged RMSNorm forward (the autograd op's original loop).
    pub fn rmsnorm_fwd(x: &Matrix, gain: &Matrix, eps: f32) -> (Matrix, Vec<f32>) {
        let n = x.cols() as f32;
        let mut inv_rms = Vec::with_capacity(x.rows());
        let mut y = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row = x.row(r);
            let ms = row.iter().map(|&v| v * v).sum::<f32>() / n;
            let inv = 1.0 / (ms + eps).sqrt();
            inv_rms.push(inv);
            let out = y.row_mut(r);
            for (j, (&v, &g)) in row.iter().zip(gain.row(0)).enumerate() {
                out[j] = v * inv * g;
            }
        }
        (y, inv_rms)
    }

    /// Staged RMSNorm backward (per-element `get`/`set`, three loops per
    /// row — the autograd op's original body).
    pub fn rmsnorm_bwd(
        x: &Matrix,
        gain: &Matrix,
        gout: &Matrix,
        inv_rms: &[f32],
    ) -> (Matrix, Matrix) {
        let n = x.cols() as f32;
        let mut dx = Matrix::zeros(x.rows(), x.cols());
        let mut dg = Matrix::zeros(1, x.cols());
        for (r, &inv) in inv_rms.iter().enumerate() {
            let xrow = x.row(r);
            let grow = gout.row(r);
            let mut t = 0.0f32;
            for j in 0..x.cols() {
                t += grow[j] * gain.get(0, j) * xrow[j];
            }
            let dxrow = dx.row_mut(r);
            for j in 0..x.cols() {
                dxrow[j] = grow[j] * gain.get(0, j) * inv - inv * inv * inv / n * xrow[j] * t;
            }
            for j in 0..x.cols() {
                let cur = dg.get(0, j);
                dg.set(0, j, cur + grow[j] * xrow[j] * inv);
            }
        }
        (dx, dg)
    }

    /// Staged SwiGLU forward: silu `map` then `hadamard` (two temporaries).
    pub fn swiglu_fwd(a: &Matrix, b: &Matrix) -> Matrix {
        let silu = a.map(|x| x * sigmoid(x));
        silu.hadamard(b)
    }

    /// Staged SwiGLU backward: mul backward (`gout ⊙ b`, `gout ⊙ silu(a)`)
    /// feeding silu backward.
    pub fn swiglu_bwd(a: &Matrix, b: &Matrix, gout: &Matrix) -> (Matrix, Matrix) {
        let silu = a.map(|x| x * sigmoid(x));
        let upstream = gout.hadamard(b);
        let da = a.zip_map(&upstream, |x, g| {
            let s = sigmoid(x);
            g * s * (1.0 + x * (1.0 - s))
        });
        let db = gout.hadamard(&silu);
        (da, db)
    }

    /// Staged softmax cross-entropy forward: normalized probabilities and
    /// the mean loss (the autograd op's original five-pass body). Returns
    /// `(mean_loss, probs)`.
    pub fn softmax_xent_fwd(logits: &Matrix, targets: &[u32]) -> (f32, Matrix) {
        let mut probs = Matrix::zeros(logits.rows(), logits.cols());
        let mut loss = 0.0f64;
        for (r, &target) in targets.iter().enumerate() {
            let row = logits.row(r);
            let t = target as usize;
            let maxv = row.iter().cloned().fold(f32::MIN, f32::max);
            let mut denom = 0.0f32;
            let prow = probs.row_mut(r);
            for (j, &x) in row.iter().enumerate() {
                let e = (x - maxv).exp();
                prow[j] = e;
                denom += e;
            }
            for pj in prow.iter_mut() {
                *pj /= denom;
            }
            loss += -(prow[t].max(1e-30).ln()) as f64;
        }
        let mean = (loss / logits.rows() as f64) as f32;
        (mean, probs)
    }

    /// Staged softmax cross-entropy backward from the normalized `probs`.
    pub fn softmax_xent_bwd(probs: &Matrix, targets: &[u32], upstream: f32) -> Matrix {
        let n = probs.rows() as f32;
        let mut dl = probs.clone();
        for (r, &t) in targets.iter().enumerate() {
            let cur = dl.get(r, t as usize);
            dl.set(r, t as usize, cur - 1.0);
        }
        dl.scale_assign(upstream / n);
        dl
    }

    /// Staged decay + axpy: `scale_assign` (skipped at `decay == 1`) then
    /// `axpy`.
    pub fn axpy_chain(y: &mut Matrix, decay: f32, alpha: f32, x: &Matrix) {
        if decay != 1.0 {
            y.scale_assign(decay);
        }
        y.axpy(alpha, x);
    }

    /// Staged Adam moments: `ema_assign`, `ema_square_assign`, then the
    /// bias-corrected `zip_map_from`.
    #[allow(clippy::too_many_arguments)]
    pub fn adam_moments(
        m: &mut Matrix,
        v: &mut Matrix,
        upd: &mut Matrix,
        g: &Matrix,
        beta1: f32,
        beta2: f32,
        bc1: f32,
        bc2: f32,
        eps: f32,
    ) {
        m.ema_assign(beta1, g);
        v.ema_square_assign(beta2, g);
        upd.zip_map_from(m, v, |m, v| (m / bc1) / ((v / bc2).sqrt() + eps));
    }

    /// Staged full Adam step: moments + decay + axpy via an explicit
    /// update matrix.
    #[allow(clippy::too_many_arguments)]
    pub fn adam_update(
        w: &mut Matrix,
        g: &Matrix,
        m: &mut Matrix,
        v: &mut Matrix,
        beta1: f32,
        beta2: f32,
        bc1: f32,
        bc2: f32,
        eps: f32,
        lr: f32,
        decay: f32,
    ) {
        let mut upd = Matrix::zeros(0, 0);
        adam_moments(m, v, &mut upd, g, beta1, beta2, bc1, bc2, eps);
        axpy_chain(w, decay, -lr, &upd);
        upd.recycle();
    }

    /// Staged APOLLO update construction: `copy_from` + channel scaling +
    /// `scale_assign(alpha)` + the shared lane norm (four to five
    /// traversals).
    pub fn apollo_scale(
        update: &mut Matrix,
        grad: &Matrix,
        scale: super::ChannelScale<'_>,
        alpha: f32,
    ) -> f32 {
        update.copy_from(grad);
        match scale {
            super::ChannelScale::Tensor(s) => update.scale_assign(s),
            super::ChannelScale::Cols(s) => update.scale_cols(s),
            super::ChannelScale::Rows(s) => update.scale_rows(s),
        }
        update.scale_assign(alpha);
        super::lane_fro_norm(update)
    }

    /// Staged RoPE (the autograd graph's original in-place rotation).
    pub fn rope_apply(x: &mut Matrix, seq: usize, heads: usize, theta_base: f32, inverse: bool) {
        let hd = x.cols() / heads;
        let half = hd / 2;
        let sign = if inverse { -1.0f32 } else { 1.0 };
        for r in 0..x.rows() {
            let pos = (r % seq) as f32;
            let row = x.row_mut(r);
            for h in 0..heads {
                let base = h * hd;
                for i in 0..half {
                    let theta = pos * theta_base.powf(-2.0 * i as f32 / hd as f32);
                    let (sin, cos) = (sign * theta).sin_cos();
                    let a = row[base + 2 * i];
                    let b = row[base + 2 * i + 1];
                    row[base + 2 * i] = a * cos - b * sin;
                    row[base + 2 * i + 1] = a * sin + b * cos;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rope_freqs_match_inline_powf() {
        let hd = 8;
        let base = 10_000.0f32;
        let freqs = rope_freqs(hd, base);
        for (i, &f) in freqs.iter().enumerate() {
            let want = base.powf(-2.0 * i as f32 / hd as f32);
            assert_eq!(f.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn axpy_chain_decay_one_matches_skipped_decay() {
        // `y * 1.0` is bitwise `y`, so the fused branch-free path equals
        // the staged "skip scale_assign when weight decay is off" branch.
        let mut rng = crate::Rng::seed_from_u64(7);
        let x = Matrix::randn(3, 4, &mut rng);
        let mut fused_y = Matrix::randn(3, 4, &mut rng);
        let mut staged_y = fused_y.clone();
        fused_axpy_chain(&mut fused_y, 1.0, -0.01, &x);
        staged_y.axpy(-0.01, &x);
        for (a, b) in fused_y.as_slice().iter().zip(staged_y.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn apollo_scale_rejects_bad_channel_lengths() {
        let g = Matrix::zeros(2, 3);
        let mut u = Matrix::zeros(0, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fused_apollo_scale(&mut u, &g, ChannelScale::Cols(&[1.0, 2.0]), 1.0)
        }));
        assert!(r.is_err());
    }
}
