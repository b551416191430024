//! Matrix-multiplication kernels.
//!
//! The three kernels (`a·b`, `a·bᵀ`, `aᵀ·b`) share one register-tiled
//! micro-kernel: outputs are computed in bands of [`NR`] columns whose
//! accumulators live in registers for the whole `k` loop, so the per-`p`
//! traffic is a handful of contiguous vector loads instead of a
//! load+store sweep over the output row. Strided operands are packed into
//! contiguous panels first (`aᵀ` column panels, `bᵀ` interleaved panels)
//! via the scratch-buffer pool, which is what lets rustc autovectorize the
//! inner loops; `a·b` with too few rows to amortise a pack reads `b`'s
//! rows in place instead (`PACK_MIN_ROWS`).
//!
//! Numerics are deliberately pinned: every output element accumulates its
//! `k` products in ascending-`p` order into one `f32` accumulator, so
//! results are bit-identical to the naive serial kernel — and, because rows
//! are computed independently, bit-identical across thread counts too.
//!
//! Parallel kernels run row bands on the persistent worker pool
//! ([`crate::pool`]); the band partition depends only on `(rows, threads)`,
//! never on pool scheduling.

use crate::matrix::Matrix;
use crate::pool::par_bands;
use crate::{numerics, scratch, simd};

/// Multiplications below this many FLOPs (`2 * m * k * n`) run
/// single-threaded; the dispatch cost dominates for tiny matrices.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Default thread cap when `APOLLO_NUM_THREADS` is unset: the kernels stop
/// scaling well past 8 bands at proxy sizes.
const DEFAULT_MAX_THREADS: usize = 8;

/// Register-tile width (output columns per accumulator block). One row of
/// 32 f32 accumulators is 4 AVX2 registers: the two-row packed tile holds
/// 8 and leaves half of a 16-register file for the `b` lanes and `a`
/// broadcasts; the [`MR`]-row tile holds 16, which fits the 32 registers
/// of an AVX-512VL host and spills on a 16-register one (measured there:
/// ~40 instead of ~55 GFLOP/s, still ahead of packing below ~32 rows).
const NR: usize = 32;

/// Rows per [`tile_rows`] register tile: the rows' accumulator sets are
/// independent chains sharing every `b` load.
const MR: usize = 4;

/// `a · b` packs `b` into panels only from this many rows of `a` up. The
/// pack copies `k·n` floats once per call, so its cost per row of `a` falls
/// with `m`: which side wins is a property of the input, hence one
/// threshold on `m` and nothing to tune.
///
/// Measured on the reference box (AVX-512VL, 1 thread), µs per call,
/// in-place / packed, on the decode and prefill shapes:
///
/// | `k×n`   | m = 4    | 8         | 16        | 32        | 64         | 128         |
/// |---------|----------|-----------|-----------|-----------|------------|-------------|
/// | 192×192 | 5–8 / 19 | 10–16 / 21 | 21–32 / 31 | 41–64 / 51 | 82–103 / 91 | 164–212 / 175 |
/// | 192×512 | 14 / 50  | 28 / 55   | 57 / 82   | 114 / 135 | 230 / 244  | 466 / 467   |
/// | 512×192 | 14 / 42  | 28 / 68   | 56 / 100  | 112 / 167 | 225 / 300  | 447 / 480   |
///
/// (Ranges are run to run: at a 768-byte row stride the in-place read
/// depends on where the allocator put `b`.) In place is ahead through
/// m = 48 and the two meet between 64 and 128. The same code built for a
/// 16-register AVX2 target meets near m = 32, where the four-row tile
/// spills. 64 keeps every decode batch and the 32-row prefill chunk in
/// place and the m ≥ 128 training and optimizer GEMMs packed on both.
const PACK_MIN_ROWS: usize = 64;

/// FLOP count of an `m×k · k×n` multiplication (one multiply + one add per
/// inner-product term), used for the [`PAR_MIN_FLOPS`] gate.
fn matmul_flops(m: usize, k: usize, n: usize) -> usize {
    2 * m * k * n
}

/// Whether an invocation of `flops` total FLOPs over `m` splittable units —
/// output rows, or output columns for the m = 1 gemv, where the row count
/// could never pass — should run on the worker pool. Pure so the threshold
/// boundary is unit-testable. It is the gate of [`par_bands`], so one
/// contract governs every pooled split, the fused elementwise kernels'
/// included.
pub(crate) fn should_parallelize(threads: usize, m: usize, flops: usize) -> bool {
    threads > 1 && flops >= PAR_MIN_FLOPS && m >= 2 * threads
}

/// Resolves the thread count from an optional `APOLLO_NUM_THREADS` override.
///
/// The override must parse as an integer ≥ 1 to take effect; anything else
/// (unset, empty, `0`, garbage) falls back to `available / cap`. Kept as a
/// pure function so it is unit-testable without mutating the environment.
fn resolve_threads(over: Option<&str>, available: usize) -> usize {
    match over.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => available.min(DEFAULT_MAX_THREADS),
    }
}

fn env_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        resolve_threads(
            std::env::var("APOLLO_NUM_THREADS").ok().as_deref(),
            available,
        )
    })
}

std::thread_local! {
    /// Per-thread override of the kernel thread count, for tests and the
    /// bench harness which need to sweep thread counts within one process
    /// (the `APOLLO_NUM_THREADS` value is cached once per process).
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Overrides the kernel thread count for matmuls issued *from the calling
/// thread* (`None` restores the `APOLLO_NUM_THREADS`/auto behaviour).
///
/// Results are bit-identical across thread counts by construction, so this
/// only affects performance — it exists so tests and benches can sweep
/// counts in-process.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.with(|c| c.set(n.map(|n| n.max(1))));
}

/// The kernel thread count that matmuls issued from the calling thread will
/// use: the [`set_thread_override`] value if set, else `APOLLO_NUM_THREADS`,
/// else `min(available_parallelism, 8)`.
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(env_threads)
}

/// Scoped (RAII) form of [`set_thread_override`]: pins the calling thread's
/// kernel thread count to `n` (clamped to ≥ 1) and restores the *previous*
/// override — including "no override" — when the guard drops.
///
/// Long-lived worker threads that pin a thread count for one task (DDP
/// replicas, population-search members) must use this instead of a raw
/// [`set_thread_override`] call, which would leak the override into
/// whatever runs on the thread next.
#[must_use = "the override is reverted when the guard drops"]
#[derive(Debug)]
pub struct ThreadOverrideGuard {
    prev: Option<usize>,
}

impl ThreadOverrideGuard {
    /// Pins the calling thread's kernel thread count until drop.
    pub fn new(n: usize) -> Self {
        let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
        ThreadOverrideGuard { prev }
    }
}

impl Drop for ThreadOverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Packs a row-major `k×n` operand (stride `n`) into column-band
/// interleaved panels: the `w`-wide band at column `j0` is a contiguous
/// `k×w` block at offset `j0·k` with `block[p·w + j] = src[p·n + j0 + j]`.
///
/// One accumulation step of the micro-kernel then loads its `NR` lanes
/// from a single contiguous 128-byte run instead of a 4·n-strided strip —
/// the strided form costs a TLB/prefetch stall per `p` once `n` spans
/// hundreds of pages.
fn pack_panels(src: &[f32], k: usize, n: usize) -> Vec<f32> {
    // Every element is written below, so stale scratch needs no zero-fill.
    let mut panel = scratch::take_stale(k * n);
    if k == 0 {
        return panel;
    }
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        let block = &mut panel[j0 * k..(j0 + w) * k];
        for (p, srow) in src.chunks_exact(n).enumerate() {
            block[p * w..(p + 1) * w].copy_from_slice(&srow[j0..j0 + w]);
        }
        j0 += w;
    }
    panel
}

/// Packs the transpose of a row-major `n×k` operand into the same
/// interleaved panel layout as [`pack_panels`]: `block[p·w + j] =
/// src[(j0+j)·k + p]`, i.e. panel columns are `src` *rows* (the `a·bᵀ`
/// case).
fn pack_panels_transposed(src: &[f32], n: usize, k: usize) -> Vec<f32> {
    let mut panel = scratch::take_stale(k * n);
    if k == 0 {
        return panel;
    }
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        let block = &mut panel[j0 * k..(j0 + w) * k];
        for j in 0..w {
            let srow = &src[(j0 + j) * k..(j0 + j + 1) * k];
            for (p, &sv) in srow.iter().enumerate() {
                block[p * w + j] = sv;
            }
        }
        j0 += w;
    }
    panel
}

/// The shared band sweep: computes output rows `[lo, hi)` from row-major
/// `a_rows` (stride `k`) against a packed panel of the second operand.
/// Panel band outer, rows inner, so one `k×NR` block stays cache-hot
/// across the whole row band.
#[allow(clippy::too_many_arguments)]
fn run_packed(
    a_rows: &[f32],
    k: usize,
    panel: &[f32],
    n: usize,
    lo: usize,
    hi: usize,
    out: &mut [f32],
    fast: bool,
) {
    if k == 0 {
        return; // out is pre-zeroed; an empty inner dim contributes nothing
    }
    let rows = &a_rows[lo * k..hi * k];
    let n_rows = hi - lo;
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        let block = &panel[j0 * k..(j0 + w) * k];
        if w == NR && fast {
            // Relaxed tier: the FMA register tile replaces both the paired
            // and single-row exact tiles (tails below stay on the exact
            // tile — they are a < NR-column sliver, within tolerance).
            for (band_r, arow) in rows.chunks_exact(k).enumerate() {
                simd::tile_packed32(arow, block, &mut out[band_r * n + j0..band_r * n + j0 + NR]);
            }
        } else if w == NR {
            // Rows in pairs: one block load feeds two accumulator sets,
            // doubling FLOPs per byte of L1 traffic.
            let mut band_r = 0;
            while band_r + 2 <= n_rows {
                let (o0, o1) = out[band_r * n + j0..].split_at_mut(n);
                tile_packed2(
                    &rows[band_r * k..(band_r + 1) * k],
                    &rows[(band_r + 1) * k..(band_r + 2) * k],
                    block,
                    &mut o0[..NR],
                    &mut o1[..NR],
                );
                band_r += 2;
            }
            if band_r < n_rows {
                tile_packed(
                    &rows[band_r * k..(band_r + 1) * k],
                    block,
                    &mut out[band_r * n + j0..band_r * n + j0 + NR],
                );
            }
        } else {
            sweep_rows(rows, k, block, w, w, &mut out[j0..], n);
        }
        j0 += w;
    }
}

/// The no-pack band sweep for a few rows: computes output rows `[lo, hi)`
/// of `a_rows · b` reading the row-major `b` (stride `n`) in place — its
/// rows are already contiguous per `p`, so a column band is `k` runs of
/// [`NR`] floats, and with only a handful of rows to share it a packed
/// copy of `b` costs more than it saves (see [`PACK_MIN_ROWS`]). Column
/// band outer, row tiles inner, so the band's lines stay cache-hot across
/// the row tiles.
fn run_unpacked(
    a_rows: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    if lo == hi {
        return; // a zero-row product (an LM-head call with nothing to decode)
    }
    let rows = &a_rows[lo * k..hi * k];
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        sweep_rows(rows, k, &b[j0..], n, w, &mut out[j0..], n);
        j0 += w;
    }
}

/// Every row of `rows` (stride `k`) against one `w`-wide column band,
/// [`MR`] rows per [`tile_rows`] call. `out` starts at the band's first
/// column of the first row and has row stride `n`.
fn sweep_rows(
    rows: &[f32],
    k: usize,
    band: &[f32],
    stride: usize,
    w: usize,
    out: &mut [f32],
    n: usize,
) {
    // An empty inner dimension adds nothing to the pre-zeroed output.
    let n_rows = rows.len().checked_div(k).unwrap_or(0);
    for r in (0..n_rows).step_by(MR) {
        let (a, o) = (&rows[r * k..], &mut out[r * n..]);
        match n_rows - r {
            1 => tile_rows::<1>(a, k, band, stride, w, o, n),
            2 => tile_rows::<2>(a, k, band, stride, w, o, n),
            3 => tile_rows::<3>(a, k, band, stride, w, o, n),
            _ => tile_rows::<MR>(a, k, band, stride, w, o, n),
        }
    }
}

/// Two-row register tile: identical per-element accumulation to
/// [`tile_packed`] run on each row separately (the two accumulator sets
/// are independent chains), but each packed block line is loaded once for
/// both rows.
#[inline]
fn tile_packed2(arow0: &[f32], arow1: &[f32], block: &[f32], orow0: &mut [f32], orow1: &mut [f32]) {
    let mut acc0 = [0.0f32; NR];
    let mut acc1 = [0.0f32; NR];
    for ((brow, &av0), &av1) in block.chunks_exact(NR).zip(arow0).zip(arow1) {
        let brow: &[f32; NR] = brow.try_into().unwrap();
        for ((a0, a1), &bv) in acc0.iter_mut().zip(acc1.iter_mut()).zip(brow) {
            *a0 += av0 * bv;
            *a1 += av1 * bv;
        }
    }
    orow0.copy_from_slice(&acc0);
    orow1.copy_from_slice(&acc1);
}

/// Full-width register tile: `orow[j] = Σ_p a[p] · block[p·NR + j]`, each
/// output element accumulated in ascending-`p` order.
///
/// There is no skip of exactly-zero `a` entries (the reference loop's
/// branch was dropped for vectorization): for finite operands adding
/// `±0·bv` never changes an accumulator that starts at `+0.0`, so results
/// stay bit-identical; only `0·∞`/`0·NaN` products differ, which training
/// guards against upstream (`has_non_finite` sentinels).
///
/// Kept as its own function (one accumulator array per specialization) so
/// LLVM promotes `acc` to vector registers for the whole `p` loop instead
/// of sharing a stack slot with the tail path.
#[inline]
fn tile_packed(arow: &[f32], block: &[f32], orow: &mut [f32]) {
    let mut acc = [0.0f32; NR];
    for (brow, &av) in block.chunks_exact(NR).zip(arow) {
        let brow: &[f32; NR] = brow.try_into().unwrap();
        for (aj, &bv) in acc.iter_mut().zip(brow) {
            *aj += av * bv;
        }
    }
    orow.copy_from_slice(&acc);
}

/// `R`-row register tile over one `w ≤ NR`-column band read in place:
/// `out[r·n + j] = Σ_p a[r·k + p] · band[p·stride + j]`. The band is a
/// packed remainder block (`stride = w`) or the row-major operand itself
/// (`stride = n`, the slice starting at the band's first column).
///
/// Each output element accumulates in ascending-`p` order into its own
/// accumulator, exactly as in [`tile_packed`]; the `R` rows only share the
/// band loads. Their chains being independent is the point: a single row
/// at `w < 8` is one scalar add-latency chain, and `R` of them overlap.
#[inline(always)]
fn tile_rows<const R: usize>(
    a: &[f32],
    k: usize,
    band: &[f32],
    stride: usize,
    w: usize,
    out: &mut [f32],
    n: usize,
) {
    // A literal width lets LLVM keep the full-band accumulators in vector
    // registers for the whole `p` loop; the remainder band runs the same
    // body at its runtime width. Width 1 is literal too: a column-vector
    // product (a tall gradient's rank-1 projection) is all remainder band,
    // and there the runtime-width loop costs more than the `R` multiply-adds
    // it wraps (0.6 vs 1.4 ms on 1376×512 · 512×1).
    if w == NR {
        tile_rows_at::<R>(a, k, band, stride, NR, out, n);
    } else if w == 1 {
        tile_rows_at::<R>(a, k, band, stride, 1, out, n);
    } else {
        tile_rows_at::<R>(a, k, band, stride, w, out, n);
    }
}

#[inline(always)]
fn tile_rows_at<const R: usize>(
    a: &[f32],
    k: usize,
    band: &[f32],
    stride: usize,
    w: usize,
    out: &mut [f32],
    n: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; R];
    for p in 0..k {
        let brow = &band[p * stride..p * stride + w];
        for (accr, arow) in acc.iter_mut().zip(&arows) {
            let av = arow[p];
            for (aj, &bv) in accr[..w].iter_mut().zip(brow) {
                *aj += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[r * n..r * n + w].copy_from_slice(&accr[..w]);
    }
}

/// An `m × n_out` output from `run(lo, hi, band_out)` over row bands
/// ([`par_bands`]: on the worker pool when the FLOP gate passes, serially
/// otherwise). Every row is computed independently, so the output is
/// bit-identical for any thread count (including 1).
fn parallel_rows(
    m: usize,
    flops: usize,
    run: impl Fn(usize, usize, &mut [f32]) + Sync,
    n_out: usize,
) -> Vec<f32> {
    let mut out = scratch::take_zeroed(m * n_out);
    par_bands(m, flops, [(&mut out[..], n_out)], |lo, hi, [band]| {
        run(lo, hi, band)
    });
    out
}

/// `1×k · k×n` product, the hot shape of a KV-cached decode step (one
/// residual row against every weight matrix). Output *columns* are the
/// units [`par_bands`] splits; each element still accumulates its `k`
/// products in ascending-`p` order, so results are bit-identical to the
/// reference loop and invariant across thread counts (the band partition is
/// a pure function of `(n, threads)`).
fn gemv(arow: &[f32], b: &Matrix) -> Vec<f32> {
    let (k, n) = b.shape();
    let fast = numerics::fast();
    let mut out = scratch::take_zeroed(n);
    let flops = matmul_flops(1, k, n);
    par_bands(n, flops, [(&mut out[..], 1)], |lo, hi, [band]| {
        if fast {
            simd::gemv_band(arow, b.as_slice(), n, lo, hi, band);
        } else {
            gemv_band(arow, b, lo, hi, band);
        }
    });
    out
}

/// One column band of the gemv: `out[j - lo] = Σ_p arow[p] · b[p, j]`,
/// with `p` outer (one broadcast, contiguous `b` lanes inner) and
/// ascending-`p` accumulation per element, as in the reference loop.
fn gemv_band(arow: &[f32], b: &Matrix, lo: usize, hi: usize, out: &mut [f32]) {
    for (p, &av) in arow.iter().enumerate() {
        let brow = &b.row(p)[lo..hi];
        for (ov, &bv) in out.iter_mut().zip(brow) {
            *ov += av * bv;
        }
    }
}

/// `rows · b` for `m` row-major rows of length `b.rows()`: the dispatch on
/// output rows that [`matmul`] and [`matmul_transa`] share. Whichever arm
/// runs, every output element accumulates its products in ascending-`p`
/// order, so the arms agree bit for bit and the choice is only about speed.
fn rows_times(a_rows: &[f32], m: usize, b: &Matrix) -> Matrix {
    let (k, n) = b.shape();
    // Single-row products — the KV-cached decode-step hot shape, and a
    // rank-1 projection — go through the column-banded gemv path: the
    // row-band partition the other paths parallelize over degenerates to
    // one task at m = 1.
    if m == 1 {
        return Matrix::from_vec(1, n, gemv(a_rows, b));
    }
    // Few rows: read `b` in place. The exact tile serves both numerics
    // tiers here (it is inside the Fast envelope by construction).
    if m < PACK_MIN_ROWS {
        let data = parallel_rows(
            m,
            matmul_flops(m, k, n),
            |lo, hi, out| run_unpacked(a_rows, k, b.as_slice(), n, lo, hi, out),
            n,
        );
        return Matrix::from_vec(m, n, data);
    }
    let fast = numerics::fast();
    let panel = pack_panels(b.as_slice(), k, n);
    let data = parallel_rows(
        m,
        matmul_flops(m, k, n),
        |lo, hi, out| run_packed(a_rows, k, &panel, n, lo, hi, out, fast),
        n,
    );
    scratch::recycle(panel);
    Matrix::from_vec(m, n, data)
}

/// `a · b`.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dims {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    rows_times(a.as_slice(), a.rows(), b)
}

/// `a · bᵀ` without materializing the transpose.
///
/// `b`'s rows become output columns, so the kernel first packs `b` into
/// column-interleaved panels (`panel[j0*k + p*w + j] = b[(j0+j)*k + p]` for
/// the `w`-wide band at `j0`): the `NR` lanes of one accumulation step then
/// load contiguously and each output element keeps its plain sequential
/// dot-product order, bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transb: inner dims {}x{} · ({}x{})ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let fast = numerics::fast();
    // Packing costs k·n writes against 2·m·k·n FLOPs of compute; below a
    // few rows the scalar dot loop wins (and rank-1 projector products with
    // k = 0 or n = 0 have nothing to pack).
    if m < 4 || k == 0 || n == 0 {
        let run = |lo: usize, hi: usize, out: &mut [f32]| {
            for (band_r, r) in (lo..hi).enumerate() {
                let arow = a.row(r);
                for c in 0..n {
                    let brow = b.row(c);
                    out[band_r * n + c] = if fast {
                        simd::dot(arow, brow)
                    } else {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            acc += arow[p] * brow[p];
                        }
                        acc
                    };
                }
            }
        };
        let data = parallel_rows(m, matmul_flops(m, k, n), run, n);
        return Matrix::from_vec(m, n, data);
    }
    let panel = pack_panels_transposed(b.as_slice(), n, k);
    let data = parallel_rows(
        m,
        matmul_flops(m, k, n),
        |lo, hi, out| run_packed(a.as_slice(), k, &panel, n, lo, hi, out, fast),
        n,
    );
    scratch::recycle(panel);
    Matrix::from_vec(m, n, data)
}

/// `aᵀ · b` without materializing the transpose as a `Matrix`.
///
/// `a`'s columns are the output rows: the kernel gathers `aᵀ` (a
/// `k`-strided read per column) into contiguous row-major scratch once,
/// then dispatches on its row count exactly as [`matmul`] does — gemv at
/// one row, `b` read in place below [`PACK_MIN_ROWS`], packed panels
/// above. Per-element accumulation is ascending-`p` on every arm.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_transa(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_transa: inner dims ({}x{})ᵀ · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (k, m) = a.shape();
    // Cache-blocked transpose: both the reads and the writes stay within a
    // TB×TB tile that fits L1. Every element of `at` is written.
    const TB: usize = 32;
    let mut at = scratch::take_stale(m * k);
    let mut pb = 0;
    while pb < k {
        let p_hi = (pb + TB).min(k);
        let mut rb = 0;
        while rb < m {
            let r_hi = (rb + TB).min(m);
            for p in pb..p_hi {
                let arow = &a.row(p)[rb..r_hi];
                for (r, &av) in arow.iter().enumerate() {
                    at[(rb + r) * k + p] = av;
                }
            }
            rb = r_hi;
        }
        pb = p_hi;
    }
    let out = rows_times(&at, m, b);
    scratch::recycle(at);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(p, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = Rng::seed_from_u64(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 9, 23), (64, 32, 48)] {
            let a = Matrix::randn(m, k, &mut rng);
            let b = Matrix::randn(k, n, &mut rng);
            assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
        }
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(3);
        for &(m, n) in &[(13, 11), (2, 11), (64, 40)] {
            let a = Matrix::randn(m, 7, &mut rng);
            let b = Matrix::randn(n, 7, &mut rng);
            assert_close(&matmul_transb(&a, &b), &matmul(&a, &b.transpose()), 1e-4);
        }
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(4);
        for &(m, n) in &[(13, 11), (40, 64)] {
            let a = Matrix::randn(7, m, &mut rng);
            let b = Matrix::randn(7, n, &mut rng);
            assert_close(&matmul_transa(&a, &b), &matmul(&a.transpose(), &b), 1e-4);
        }
    }

    #[test]
    fn large_parallel_path_matches_naive() {
        let mut rng = Rng::seed_from_u64(5);
        let a = Matrix::randn(200, 120, &mut rng);
        let b = Matrix::randn(120, 90, &mut rng);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-3);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from_u64(6);
        let a = Matrix::randn(9, 9, &mut rng);
        assert_close(&matmul(&a, &Matrix::identity(9)), &a, 1e-6);
        assert_close(&matmul(&Matrix::identity(9), &a), &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul: inner dims")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn flop_gate_counts_two_flops_per_term() {
        // The doc contract for PAR_MIN_FLOPS is 2·m·k·n (one multiply + one
        // add); this pins the kernels' gate argument to that convention.
        assert_eq!(matmul_flops(3, 5, 7), 2 * 3 * 5 * 7);
    }

    #[test]
    fn parallel_gate_boundary() {
        // Exactly at the threshold parallelizes; one FLOP below does not.
        let m = 4096;
        assert!(should_parallelize(2, m, PAR_MIN_FLOPS));
        assert!(!should_parallelize(2, m, PAR_MIN_FLOPS - 1));
        // Too few rows or a single thread never parallelizes.
        assert!(!should_parallelize(1, m, PAR_MIN_FLOPS));
        assert!(!should_parallelize(8, 15, PAR_MIN_FLOPS));
        // A shape whose 2·m·k·n crosses the gate while m·k·n does not:
        // the off-by-2× this test guards against.
        let (m, k, n) = (128, 64, 80);
        assert!(matmul_flops(m, k, n) >= PAR_MIN_FLOPS);
        assert!(m * k * n < PAR_MIN_FLOPS);
        assert!(should_parallelize(2, m, matmul_flops(m, k, n)));
    }

    #[test]
    fn gemv_matches_naive_across_thread_counts() {
        // Large enough that 2·k·n crosses the FLOP gate, so the pooled
        // column-band path actually runs at threads > 1.
        let mut rng = Rng::seed_from_u64(9);
        let (k, n) = (521, 1031);
        assert!(matmul_flops(1, k, n) >= PAR_MIN_FLOPS);
        let a = Matrix::randn(1, k, &mut rng);
        let b = Matrix::randn(k, n, &mut rng);
        let want = naive(&a, &b);
        for threads in [1, 3, 8] {
            set_thread_override(Some(threads));
            let got = matmul(&a, &b);
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}: {x} vs {y}");
            }
        }
        set_thread_override(None);
    }

    #[test]
    fn thread_override_guard_restores_previous_state() {
        // Guards must restore whatever was in effect before them — a raw
        // override, another guard's value, or no override at all — and
        // nest correctly.
        let baseline = current_threads();
        {
            let _g = ThreadOverrideGuard::new(3);
            assert_eq!(current_threads(), 3);
            {
                let _inner = ThreadOverrideGuard::new(5);
                assert_eq!(current_threads(), 5);
            }
            assert_eq!(current_threads(), 3, "inner guard must restore outer");
        }
        assert_eq!(current_threads(), baseline, "guard leaked an override");
        // A guard over a raw override restores the raw override, and the
        // clamp matches set_thread_override's.
        set_thread_override(Some(7));
        {
            let _g = ThreadOverrideGuard::new(0);
            assert_eq!(current_threads(), 1, "zero clamps to one");
        }
        assert_eq!(current_threads(), 7);
        set_thread_override(None);
    }

    #[test]
    fn thread_override_guard_isolates_concurrent_members() {
        // Two worker threads pinned to different counts (the
        // population-search member setup) must each see their own override
        // while it is live and their thread's original state after it
        // drops — no cross-thread or post-drop leakage.
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for threads in [2usize, 6] {
                handles.push(s.spawn(move || {
                    let before = current_threads();
                    {
                        let _g = ThreadOverrideGuard::new(threads);
                        assert_eq!(current_threads(), threads);
                        // Give the sibling time to overlap: overrides are
                        // thread-local, so the sibling's pin is invisible.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        assert_eq!(current_threads(), threads, "sibling leaked in");
                    }
                    assert_eq!(current_threads(), before, "override leaked out");
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn thread_override_parses_valid_values() {
        assert_eq!(resolve_threads(Some("4"), 16), 4);
        assert_eq!(resolve_threads(Some(" 12 "), 16), 12);
        // The override may exceed the default cap.
        assert_eq!(resolve_threads(Some("32"), 16), 32);
        assert_eq!(resolve_threads(Some("1"), 16), 1);
    }

    #[test]
    fn thread_override_rejects_invalid_values() {
        assert_eq!(resolve_threads(None, 16), 8);
        assert_eq!(resolve_threads(Some(""), 16), 8);
        assert_eq!(resolve_threads(Some("0"), 16), 8);
        assert_eq!(resolve_threads(Some("-2"), 16), 8);
        assert_eq!(resolve_threads(Some("lots"), 16), 8);
        assert_eq!(resolve_threads(Some("3.5"), 4), 4);
        assert_eq!(resolve_threads(None, 2), 2);
    }
}
