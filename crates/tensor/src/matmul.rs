//! Matrix-multiplication kernels.
//!
//! The three kernels (`a·b`, `a·bᵀ`, `aᵀ·b`) share one register tile
//! ([`tile`]): outputs are computed in bands of [`NR`] columns whose
//! accumulators live in registers for the whole `k` loop, so the per-`p`
//! traffic is a handful of contiguous vector loads instead of a
//! load+store sweep over the output row. Strided operands are packed into
//! contiguous panels first (`aᵀ` column panels, `bᵀ` interleaved panels)
//! via the scratch-buffer pool; `a·b` with too few rows to amortise a pack
//! reads `b`'s rows in place instead (`PACK_MIN_ROWS`). Both paths, all
//! three kernels and every remainder band run the same tile body at
//! different strides, row counts and literal widths.
//!
//! # One body, two lane types
//!
//! The tile is written once over [`ExactLanes`] — load, store, and a
//! multiply followed by a separately rounded add, nothing else — and runs
//! on two lane types:
//!
//! - the array form, `[f32; W]`, which LLVM autovectorises for the build's
//!   target. That is `ymm` code at best: for the AVX-512 CPUs this repo is
//!   measured on LLVM prefers 256-bit vectors, so `target-cpu=native` alone
//!   leaves the tile at half the machine's width (`objdump` of this file's
//!   functions before the 16-lane type: 224 `ymm` multiply/add instructions
//!   and no `zmm` one). Every host without AVX-512 runs this form only.
//! - `Zmm`, one `__m512` per 16 lanes, `vmulps` then `vaddps`, [`WIDE_ROWS`]
//!   = 8 rows per tile, entered through a `#[target_feature(enable =
//!   "avx512f")]` function. It is selected from what the code can observe
//!   and nothing else: the one-shot CPU probe ([`numerics::avx512f`], at run
//!   time, so a baseline build reaches it and no bit depends on
//!   `target-cpu`) and the number of rows in the band ([`WIDE_MIN_ROWS`]).
//!
//! Measured on the reference box (Sapphire Rapids, one thread, same
//! process, calls alternating; EXPERIMENTS.md "The exact-tier GEMM at the
//! machine's width"): the projection GEMMs `Pᵀ·G` / `G·P` 1.5–1.6×, the
//! training shapes 1.3–1.4×, the 32-row prefill chunk 1.3–1.4×, the 8-row
//! decode tick unchanged (it is below the row gate by design).
//!
//! Two alternatives were measured and rejected. `-C
//! target-feature=-prefer-256-bit` in `.cargo/config.toml` widens the array
//! form without a line of code, but the two-row tile it widens is then four
//! `zmm` add chains and latency-bound (about 1.2× where the explicit 8-row
//! tile gives 1.5–1.6×); rustc reports the flag on every crate as an
//! unknown and unstable feature whose use "might be unsound"; it makes
//! speed a property of a build flag nobody can see from the code; and it
//! does nothing for the baseline build. Blocking `k` at 128 or 256 on top of the 16-lane
//! tile (accumulators stored and reloaded between blocks, same bits) made
//! the packed shapes *slower*, 0.87–1.00× and 0.92–0.99× of the unblocked
//! tile on the projection, training and `sq-256`/`sq-512` shapes: there is
//! no L2 stall for it to remove, and it adds an accumulator load/store per
//! block.
//!
//! Numerics are deliberately pinned: every output element accumulates its
//! `k` products in ascending-`p` order into one `f32` accumulator that
//! starts at `+0.0`, product and sum rounded separately (no FMA, no
//! reassociation — on either lane type, by construction of
//! [`ExactLanes::add_mul`]), so results are bit-identical to the naive
//! serial kernel — and, because rows are computed independently,
//! bit-identical across thread counts too.
//!
//! Parallel kernels run row bands on the persistent worker pool
//! ([`crate::pool`]); the band partition depends only on `(rows, threads)`,
//! never on pool scheduling.
//!
//! `unsafe` here is five sites, all in the 16-lane path: the four `Zmm`
//! operations (sound because a `Zmm` exists only after the probe; the load
//! and store touch exactly the `[f32; 16]` they borrow) and the probed call
//! into the `#[target_feature]` entry.

use crate::matrix::Matrix;
use crate::pool::par_bands;
use crate::{numerics, scratch};

/// Multiplications below this many FLOPs (`2 * m * k * n`) run
/// single-threaded; the dispatch cost dominates for tiny matrices.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Default thread cap when `APOLLO_NUM_THREADS` is unset: the kernels stop
/// scaling well past 8 bands at proxy sizes.
const DEFAULT_MAX_THREADS: usize = 8;

/// Register-tile width (output columns per accumulator block): two
/// 16-lane vectors per row, or 4 AVX2 registers on the array form.
const NR: usize = 32;

/// Rows per array-form [`tile`] where it reads `b` in place or sweeps a
/// remainder band: the rows' accumulator sets are independent chains
/// sharing every `b` load. At full width that is 16 `ymm` accumulators,
/// which fit an AVX-512VL host's 32 registers and spill on a 16-register
/// one (measured there: ~40 instead of ~55 GFLOP/s, still ahead of packing
/// below ~32 rows).
const MR: usize = 4;

/// Rows per array-form tile over a full packed band. Two rows hold 8 `ymm`
/// accumulators and leave half of a 16-register file for the `b` lanes and
/// `a` broadcasts; [`MR`] rows there were measured 25 % slower on a
/// 16-register build (PR 13). With [`WIDE_MIN_ROWS`] below
/// [`PACK_MIN_ROWS`] that is the only kind of host this tile still runs a
/// whole GEMM on, so two it stays.
const PACKED_ROWS: usize = 2;

/// Rows per 16-lane [`tile`]: 8 rows × 2 `zmm` are 16 accumulators, plus
/// the two band vectors and one product, of 32 registers — and 16
/// independent add chains, which cover the 4-cycle add latency on both
/// vector ports.
const WIDE_ROWS: usize = 8;

/// The 16-lane tile runs from this many rows in the band up (see
/// [`wide_tile`]): two full [`WIDE_ROWS`]-row tiles. How many rows a band
/// has is a property of the input, hence one threshold and nothing to tune.
///
/// Measured on the reference box (Sapphire Rapids, 1 thread), µs per call
/// of `a · b` read in place, array tile / 16-lane tile, same process, calls
/// alternating — `b` hot in L2, then rotating over 24 copies so that each
/// call finds it cold:
///
/// | `k×n`, `b` | m = 4     | 8         | 12        | 16        | 24        | 32          | 48          |
/// |------------|-----------|-----------|-----------|-----------|-----------|-------------|-------------|
/// | 192×192 hot  | 5.9 / 4.9 | 12.3 / 8.1 | 16.5 / 13.1 | 21.9 / 18.1 | 34.2 / 26.0 | 45.1 / 34.1 | 65.5 / 51.5 |
/// | 192×512 hot  | 14.9 / 12.5 | 29.4 / 22.1 | 43.6 / 35.0 | 59.4 / 44.5 | 90.5 / 66.7 | 120.8 / 90.2 | 171.9 / 130.1 |
/// | 512×192 hot  | 14.0 / 12.0 | 28.8 / 21.0 | 42.1 / 30.7 | 62.0 / 43.7 | 85.9 / 61.3 | 115.8 / 83.6 | 171.1 / 119.7 |
/// | 192×192 cold | 8.8 / 8.2 | 14.7 / 12.0 | 20.1 / 16.5 | 25.3 / 20.6 | 35.3 / 27.6 | 48.4 / 38.0 | 68.5 / 53.4 |
/// | 192×512 cold | 33.3 / 27.5 | 48.6 / 45.3 | 56.7 / 59.1 | 70.9 / 67.8 | 93.6 / 75.1 | 124.7 / 99.2 | 181.0 / 139.5 |
/// | 512×192 cold | 28.1 / 24.9 | 40.8 / 36.5 | 54.2 / 44.9 | 68.8 / 56.1 | 97.3 / 78.6 | 124.3 / 97.9 | 179.8 / 139.6 |
///
/// From 16 rows the 16-lane tile is ahead in every cell, 17–30 % hot and
/// 4–22 % cold, and by 32 — the prefill chunk — 20–28 % either way. Below
/// 16 a band is one full tile plus a part-filled one, or less (a 4-row
/// `zmm` tile has 8 add chains where the ports want 16): the harness still
/// shows a gain on hot weights, but on cold ones it shrinks to 0–10 % with
/// one cell behind (m = 12), and in the `decode-batch` workload, where an
/// 8-row tick walks 35 weight matrices between two visits to any of them,
/// `nn.decode.step_b8_ms` with the gate at 2 instead of 16 read 2.22 / 2.16
/// / 2.26 against 2.15 / 2.53 / 2.25 ms — no difference this box can
/// resolve. 16 therefore leaves every decode batch (m ≤ 8) on the tile it
/// has always run and takes the prefill chunk and everything taller.
const WIDE_MIN_ROWS: usize = 16;

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
///
/// The table is the array tile's. From [`WIDE_MIN_ROWS`] rows up this box
/// now runs the 16-lane tile on both sides of the switch, which speeds both
/// alike and leaves the crossover where it was: on the same three shapes
/// with `b` cold, in place / packed read 52 / 57, 102 / 122, 102 / 111 µs
/// at m = 32, 75 / 78, 152 / 166, 159 / 162 at m = 48, 75 / 79, 199 / 213,
/// 215 / 209 at m = 64 and 168 / 148, 403 / 400, 447 / 397 at m = 128. (With
/// `b` hot in L2 in place stays ahead to m = 256; a cold 512×512 or
/// 512×1376 `b` — a gradient — is ahead packed at any m, the pack being the
/// one sequential read it gets. Neither is the case the constant is for.)
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
fn run_packed(
    a_rows: &[f32],
    k: usize,
    panel: &[f32],
    n: usize,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    if k == 0 {
        return; // out is pre-zeroed; an empty inner dim contributes nothing
    }
    let rows = &a_rows[lo * k..hi * k];
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        let block = &panel[j0 * k..(j0 + w) * k];
        let array_rows = if w == NR { PACKED_ROWS } else { MR };
        sweep_band(array_rows, rows, k, block, w, w, &mut out[j0..], n);
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
    if lo == hi || k == 0 {
        // A zero-row product (an LM-head call with nothing to decode), or an
        // empty inner dim: `b` has no row to take a band of and the
        // pre-zeroed output is the answer.
        return;
    }
    let rows = &a_rows[lo * k..hi * k];
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        sweep_band(MR, rows, k, &b[j0..], n, w, &mut out[j0..], n);
        j0 += w;
    }
}

/// Whether a band of `n_rows` output rows runs the 16-lane tile: the CPU
/// has AVX-512F and the band has the rows to fill it ([`WIDE_MIN_ROWS`]).
/// Both are properties the code observes — the host and the input — so the
/// same binary takes either side and no build flag moves a bit.
fn wide_tile(n_rows: usize) -> bool {
    n_rows >= WIDE_MIN_ROWS && numerics::avx512f()
}

/// Every row of `rows` (stride `k`) against one `w ≤ NR`-column band, on
/// the lane type [`wide_tile`] selects: the 16-lane tile [`WIDE_ROWS`] rows
/// at a time, or the array tile `array_rows` at a time. `out` starts at the
/// band's first column of the first row and has row stride `n`; `k > 0`
/// (both callers return early on an empty inner dimension).
#[allow(clippy::too_many_arguments)]
fn sweep_band(
    array_rows: usize,
    rows: &[f32],
    k: usize,
    band: &[f32],
    stride: usize,
    w: usize,
    out: &mut [f32],
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if wide_tile(rows.len() / k) {
        /// What carries the CPU feature: the `#[inline(always)]` tile and
        /// every `Zmm` operation inline into it and are compiled as AVX-512
        /// code, whatever the crate's own target is.
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        fn avx512(
            rows: &[f32],
            k: usize,
            band: &[f32],
            stride: usize,
            w: usize,
            out: &mut [f32],
            n: usize,
        ) {
            band_pieces::<Zmm>(WIDE_ROWS, rows, k, band, stride, w, out, n)
        }
        // SAFETY: `wide_tile` is true only after the probe found avx512f
        // on this CPU.
        return unsafe { avx512(rows, k, band, stride, w, out, n) };
    }
    band_pieces::<[f32; 16]>(array_rows, rows, k, band, stride, w, out, n)
}

/// A `w ≤ NR`-column band as literal-width pieces: the full band is two
/// `L16` vectors per row; a remainder band is its binary digits — 16, 8, 4,
/// 2, 1 columns, each swept over every row before the next. Literal widths
/// are what keeps a piece's accumulators in registers for the whole `p`
/// loop: at its runtime width a 24-column band reads 10 GFLOP/s from
/// stack-resident accumulators and 60 as 16 + 8 (`256×192 · 192×24`, the
/// shape of every attention product in the `pretrain` proxy). Below 16 the
/// pieces are arrays on both lane families — one `ymm`, one `xmm` or a
/// scalar per row — and it is the `R` interleaved rows that cover the add
/// latency there (a tall gradient's rank-1 projection under APOLLO-Mini is
/// all 1-wide piece).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn band_pieces<L16: ExactLanes>(
    max_rows: usize,
    rows: &[f32],
    k: usize,
    band: &[f32],
    stride: usize,
    w: usize,
    out: &mut [f32],
    n: usize,
) {
    if w == NR {
        return sweep_rows::<L16, 2>(max_rows, rows, k, band, stride, out, n);
    }
    let mut j = 0;
    macro_rules! piece {
        ($lanes:ty, $max_rows:expr) => {
            if w - j >= <$lanes>::W {
                sweep_rows::<$lanes, 1>($max_rows, rows, k, &band[j..], stride, &mut out[j..], n);
                j += <$lanes>::W;
            }
        };
    }
    piece!(L16, max_rows);
    piece!([f32; 8], max_rows);
    // Narrower than a `ymm`, more than [`MR`] rows lose: LLVM gathers the
    // rows' scalars into one vector per `p`, and eight inserts cost more
    // than the chains they feed (8 rows against 4: 4.0 vs 5.5 GFLOP/s on
    // 1376×512 · 512×1, 10.6 vs 12.6 on a 7-wide band; 2 and 3 rows read
    // 3.5 and 4.8).
    let narrow_rows = max_rows.min(MR);
    piece!([f32; 4], narrow_rows);
    piece!([f32; 2], narrow_rows);
    piece!([f32; 1], narrow_rows);
    debug_assert_eq!(j, w);
}

/// Every row against one `V`-vector piece, `max_rows ≤ 8` rows per [`tile`]
/// with one shorter tile for what is left.
#[inline(always)]
fn sweep_rows<L: ExactLanes, const V: usize>(
    max_rows: usize,
    rows: &[f32],
    k: usize,
    band: &[f32],
    stride: usize,
    out: &mut [f32],
    n: usize,
) {
    for (a, o) in rows.chunks(max_rows * k).zip(out.chunks_mut(max_rows * n)) {
        match a.len() / k {
            1 => tile::<L, V, 1>(a, k, band, stride, o, n),
            2 => tile::<L, V, 2>(a, k, band, stride, o, n),
            3 => tile::<L, V, 3>(a, k, band, stride, o, n),
            4 => tile::<L, V, 4>(a, k, band, stride, o, n),
            5 => tile::<L, V, 5>(a, k, band, stride, o, n),
            6 => tile::<L, V, 6>(a, k, band, stride, o, n),
            7 => tile::<L, V, 7>(a, k, band, stride, o, n),
            8 => tile::<L, V, 8>(a, k, band, stride, o, n),
            rows => unreachable!("sweep_rows: a tile is 1 to 8 rows, not {rows}"),
        }
    }
}

/// `W` `f32` lanes that can be loaded, stored, multiplied and added — the
/// whole vocabulary of the exact tile. Every operation is lane-wise IEEE
/// and [`ExactLanes::add_mul`] rounds twice, so which type runs a tile
/// changes how many lanes an instruction carries and never a bit of the
/// result.
trait ExactLanes: Copy {
    const W: usize;
    fn splat(v: f32) -> Self;
    /// The first `W` elements of `src`.
    fn load(src: &[f32]) -> Self;
    /// Into the first `W` elements of `dst`.
    fn store(self, dst: &mut [f32]);
    /// `self + a · b`: the product is rounded, then the sum. Never fused.
    fn add_mul(self, a: Self, b: Self) -> Self;
}

/// The array form: what LLVM makes of `W` floats on the build's target
/// (`ymm` pairs at best — see `.cargo/config.toml`), and the only form a
/// host without AVX-512 runs.
impl<const W: usize> ExactLanes for [f32; W] {
    const W: usize = W;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; W]
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        *src.first_chunk().expect("tile: band row too short")
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        *dst.first_chunk_mut().expect("tile: out row too short") = self;
    }

    #[inline(always)]
    fn add_mul(mut self, a: Self, b: Self) -> Self {
        for ((s, av), bv) in self.iter_mut().zip(a).zip(b) {
            *s += av * bv;
        }
        self
    }
}

/// Sixteen lanes in one `zmm` register: `vmulps` then `vaddps`, one
/// intrinsic per step. A `Zmm` is only ever made inside [`sweep_band`]'s
/// `#[target_feature]` entry (or a test) after the avx512f probe passed,
/// which is the whole safety argument of the register operations; the
/// loads and stores additionally touch exactly the `[f32; 16]` they borrow.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Zmm(std::arch::x86_64::__m512);

#[cfg(target_arch = "x86_64")]
impl ExactLanes for Zmm {
    const W: usize = 16;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: avx512f probed (see `Zmm`).
        Zmm(unsafe { std::arch::x86_64::_mm512_set1_ps(v) })
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let src: &[f32; 16] = src.first_chunk().expect("tile: band row too short");
        // SAFETY: avx512f probed; unaligned 64-byte read of `*src`.
        Zmm(unsafe { std::arch::x86_64::_mm512_loadu_ps(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        let dst: &mut [f32; 16] = dst.first_chunk_mut().expect("tile: out row too short");
        // SAFETY: avx512f probed; unaligned 64-byte write of `*dst`.
        unsafe { std::arch::x86_64::_mm512_storeu_ps(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn add_mul(self, a: Self, b: Self) -> Self {
        use std::arch::x86_64::{_mm512_add_ps, _mm512_mul_ps};
        // SAFETY: avx512f probed (see `Zmm`).
        Zmm(unsafe { _mm512_add_ps(self.0, _mm512_mul_ps(a.0, b.0)) })
    }
}

/// The register tile, written once: `R` rows of `a` (stride `k`) against a
/// `V·L::W`-column piece of a band, `out[r·n + j] = Σ_p a[r·k + p] ·
/// band[p·stride + j]`. The band is a packed block (`stride` = its width)
/// or the row-major operand itself (`stride = n`), the slice starting at
/// the piece's first column; `out` starts at the same column of the first
/// row.
///
/// Each output element is one lane of one accumulator, started at `+0.0`
/// and summed in ascending `p` with a separately rounded product — the
/// reference loop's arithmetic, whatever `L`, `V` and `R` are. The `R` rows
/// share every band load and are independent chains: that is what hides
/// the add latency, from a 1-wide piece (`R` scalar chains) to the full
/// 16-lane tile (8 rows × 2 vectors on both ports).
///
/// There is no skip of exactly-zero `a` entries (the reference loop's
/// branch was dropped for vectorization): for finite operands adding
/// `±0·bv` never changes an accumulator that starts at `+0.0`, so results
/// stay bit-identical; only `0·∞`/`0·NaN` products differ, which training
/// guards against upstream (`has_non_finite` sentinels).
///
/// # Panics
///
/// Panics unless `a` holds `R` rows, `band` reaches the piece's last column
/// at `p = k − 1` and `out` its last column in row `R − 1`.
#[inline(always)]
fn tile<L: ExactLanes, const V: usize, const R: usize>(
    a: &[f32],
    k: usize,
    band: &[f32],
    stride: usize,
    out: &mut [f32],
    n: usize,
) {
    let w = V * L::W;
    assert!(a.len() >= R * k, "tile: a holds fewer than R rows");
    assert!(
        k == 0 || band.len() >= (k - 1) * stride + w,
        "tile: band too short"
    );
    assert!(out.len() >= (R - 1) * n + w, "tile: out too short");
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[L::splat(0.0); V]; R];
    for p in 0..k {
        let brow = &band[p * stride..p * stride + w];
        let b: [L; V] = std::array::from_fn(|v| L::load(&brow[v * L::W..]));
        for (accr, arow) in acc.iter_mut().zip(&arows) {
            let av = L::splat(arow[p]);
            for (x, &bv) in accr.iter_mut().zip(&b) {
                *x = x.add_mul(av, bv);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        for (v, x) in accr.iter().enumerate() {
            x.store(&mut out[r * n + v * L::W..]);
        }
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
    let mut out = scratch::take_zeroed(n);
    let flops = matmul_flops(1, k, n);
    par_bands(n, flops, [(&mut out[..], 1)], |lo, hi, [band]| {
        gemv_band(arow, b, lo, hi, band)
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
    // Few rows: read `b` in place.
    if m < PACK_MIN_ROWS {
        let data = parallel_rows(
            m,
            matmul_flops(m, k, n),
            |lo, hi, out| run_unpacked(a_rows, k, b.as_slice(), n, lo, hi, out),
            n,
        );
        return Matrix::from_vec(m, n, data);
    }
    let panel = pack_panels(b.as_slice(), k, n);
    let data = parallel_rows(
        m,
        matmul_flops(m, k, n),
        |lo, hi, out| run_packed(a_rows, k, &panel, n, lo, hi, out),
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
    // Packing costs k·n writes against 2·m·k·n FLOPs of compute; below a
    // few rows the scalar dot loop wins (and rank-1 projector products with
    // k = 0 or n = 0 have nothing to pack).
    if m < 4 || k == 0 || n == 0 {
        let run = |lo: usize, hi: usize, out: &mut [f32]| {
            for (band_r, r) in (lo..hi).enumerate() {
                let arow = a.row(r);
                for c in 0..n {
                    let brow = b.row(c);
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += arow[p] * brow[p];
                    }
                    out[band_r * n + c] = acc;
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
        |lo, hi, out| run_packed(a.as_slice(), k, &panel, n, lo, hi, out),
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

    /// `rows × k` and a band of `k` rows of `w` at `stride`, no longer than
    /// the tile's entry asserts demand, salted with the values a vector unit
    /// could treat differently from a scalar one: `±0.0`, subnormals, and
    /// one `±∞` — in `a` or in `b`, against nonzero partners, so no chain
    /// holds `0·∞` or `∞ − ∞`.
    fn salted_operands(
        n_rows: usize,
        k: usize,
        stride: usize,
        w: usize,
        inf_in_a: bool,
        rng: &mut Rng,
    ) -> (Vec<f32>, Vec<f32>) {
        let salt = |i: usize, v: f32| match i % 11 {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0e-40,
            3 => -f32::MIN_POSITIVE / 3.0,
            _ => v,
        };
        let mut a: Vec<f32> = (0..n_rows * k).map(|i| salt(i, rng.gauss())).collect();
        let mut band: Vec<f32> = (0..(k - 1) * stride + w)
            .map(|i| salt(i / 3, rng.gauss()))
            .collect();
        // The last `p` holds no zero on either side, and one infinity: in
        // row 0 of `a` (a whole output row of ±∞) or in column 0 of the band
        // (an output column); every other element stays finite, so rounding
        // differences still show.
        for r in 0..n_rows {
            a[r * k + k - 1] = 0.5 + rng.gauss().abs();
        }
        for j in 0..w {
            band[(k - 1) * stride + j] = -0.5 - rng.gauss().abs();
        }
        if inf_in_a {
            a[k - 1] = f32::INFINITY;
        } else {
            band[(k - 1) * stride] = f32::NEG_INFINITY;
        }
        (a, band)
    }

    #[test]
    fn tile_agrees_across_lane_types_and_with_the_scalar_loop() {
        // The one body on both lane types, side by side, against the
        // reference accumulation — the only place an AVX-512 host runs the
        // array form at 16 rows and up, and a non-AVX-512 host learns
        // nothing about `Zmm` (said so below rather than passing silently).
        // Every band width (so every literal piece, alone and combined) ×
        // row counts covering every 1–8-row tile and remainder × ragged `k`
        // × the packed stride and an in-place one.
        let wide = numerics::avx512f();
        if !wide {
            eprintln!("tile_agrees_across_lane_types: no avx512f here, array form only");
        }
        let mut rng = Rng::seed_from_u64(21);
        for (case, &k) in [1usize, 7, 33, 130].iter().enumerate() {
            for w in 1..=NR {
                for n_rows in [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17] {
                    // Both strides and both homes of the infinities, spread
                    // over the sweep rather than multiplied into it.
                    let stride = if (w + n_rows) % 2 == 0 { w } else { w + 5 };
                    let inf_in_a = (w + n_rows + case) % 3 == 0;
                    let n = w + 3;
                    let (a, band) = salted_operands(n_rows, k, stride, w, inf_in_a, &mut rng);
                    let mut want = vec![7.0f32; (n_rows - 1) * n + w];
                    for r in 0..n_rows {
                        for j in 0..w {
                            let mut acc = 0.0f32;
                            for p in 0..k {
                                acc += a[r * k + p] * band[p * stride + j];
                            }
                            want[r * n + j] = acc;
                        }
                    }
                    let tag = format!("rows={n_rows} k={k} w={w} stride={stride}");
                    let check = |lanes: &str, got: &[f32]| {
                        for (i, (g, e)) in got.iter().zip(&want).enumerate() {
                            assert!(!e.is_nan(), "{tag}: the reference made a NaN at {i}");
                            assert_eq!(
                                g.to_bits(),
                                e.to_bits(),
                                "{lanes} {tag} at {i}: {g} vs {e}"
                            );
                        }
                    };
                    // Untouched cells (the 3 columns between rows) keep
                    // their 7.0: a tile writes its `w` columns only.
                    let mut got = vec![7.0f32; want.len()];
                    band_pieces::<[f32; 16]>(WIDE_ROWS, &a, k, &band, stride, w, &mut got, n);
                    check("array", &got);
                    #[cfg(target_arch = "x86_64")]
                    if wide {
                        let mut got = vec![7.0f32; want.len()];
                        band_pieces::<Zmm>(WIDE_ROWS, &a, k, &band, stride, w, &mut got, n);
                        check("zmm", &got);
                    }
                }
            }
        }
    }

    // The tile's slice checks hold in release builds too: a short operand is
    // a panic at entry, never a read or write past it.

    #[test]
    #[should_panic(expected = "tile: a holds fewer than R rows")]
    fn tile_rejects_short_a() {
        let (a, band, mut out) = (vec![1.0; 2 * 5 - 1], vec![1.0; 5 * NR], vec![0.0; 2 * NR]);
        tile::<[f32; 16], 2, 2>(&a, 5, &band, NR, &mut out, NR);
    }

    #[test]
    #[should_panic(expected = "tile: band too short")]
    fn tile_rejects_short_band() {
        let (a, band, mut out) = (vec![1.0; 2 * 5], vec![1.0; 5 * NR - 1], vec![0.0; 2 * NR]);
        tile::<[f32; 16], 2, 2>(&a, 5, &band, NR, &mut out, NR);
    }

    #[test]
    #[should_panic(expected = "tile: out too short")]
    fn tile_rejects_short_out() {
        let (a, band, mut out) = (vec![1.0; 2 * 5], vec![1.0; 5 * NR], vec![0.0; 2 * NR - 1]);
        tile::<[f32; 16], 2, 2>(&a, 5, &band, NR, &mut out, NR);
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
