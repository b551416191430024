//! Explicit-SIMD kernels of the relaxed tier: the INT8-weight / BF16-cache
//! decode backend.
//!
//! Every function here computes the same mathematical expression as an
//! exact loop in `fused.rs` / `nn::decode`, but relaxes the bitwise
//! contract: reductions run over 8 independent lanes and are combined at
//! the end (reassociation), multiplies and adds contract into FMA where
//! the hardware has it, and `exp` is a vectorized polynomial instead of
//! libm. Nothing dense-f32 calls them: their callers are the cached walk
//! over a BF16 cache (`nn::decode`) and the INT8 projection (`apollo-quant`).
//!
//! # One body per kernel
//!
//! Each kernel is written once, as `fn <kernel>_body<L: Lanes>`, in safe
//! slice code (`as_chunks::<8>` for the vector part, a scalar loop for the
//! tail) over the private 8-lane trait `Lanes`. The trait's contract: a
//! value is eight `f32` lanes; every operation is lane-wise and IEEE
//! (`max`/`min` return the *second* operand on a tie or NaN, as `maxps`
//! does); `fma`/`fnma` may round once or twice; `pow2` takes integer-valued
//! lanes; `hsum` and `exp` are provided on top of those and are therefore
//! the same tree and the same polynomial everywhere. Two types implement it:
//!
//! - `Avx(__m256)`, one intrinsic per operation (`fma` is `vfmadd`), entered
//!   through a `#[target_feature(enable = "avx2,fma")]` function when the
//!   one-shot runtime probe ([`crate::numerics::simd_tier`]) reports
//!   [`SimdTier::Avx2`]. The selection is made at run time, from the
//!   platform, so that a binary built for baseline x86-64 still reaches
//!   `vfmadd` — and so that the bits do not depend on `target-cpu`.
//! - `Portable([f32; 8])`, plain array arithmetic (`fma` is multiply then
//!   add), for every other host. Same lane structure, same accumulator
//!   counts, same polynomial, so it sits in the same tolerance envelope;
//!   where no FMA or reduction is involved it is bit-equal to `Avx`. The
//!   unit tests below run both side by side on every kernel, which is the
//!   only place an AVX2 host executes it.
//!
//! There is no third instantiation (AVX-512, NEON): nothing here is measured
//! on such a host, and a type nobody runs is what the old `portable` module
//! was. Adding one is an `impl Lanes` and a `by_tier!` arm, not new kernels.
//! (The exact tier's GEMM tile does have a 16-lane type, `matmul.rs`'s `Zmm`:
//! multiply and add only, never fused, so it shares nothing with these.)
//!
//! The array form alone is **not** enough, which is why `Avx` exists.
//! Deleting the intrinsics and letting `target-cpu=native` autovectorise
//! `Portable` was measured: LLVM's SLP pass picks 2-lane vectors for the
//! reductions and spills the `exp` chain — `softmax_exp_sum` 2.2×, `silu_mul`
//! 1.6× slower with bounds checks already hoisted (3.7× / 4× and
//! `attn_scores_bf16` 2.5× before), and `int8_out_tok_per_s` −8 % on
//! `decode-batch`.
//!
//! To add a kernel: write `fn foo_body<L: Lanes>(…)` with
//! `#[inline(always)]` (it must inline into the `#[target_feature]` entry,
//! or each lane operation becomes a call), using only `Lanes` operations and
//! scalar code; add `pub fn foo` that asserts every length the body relies
//! on and ends in `by_tier!(foo_body(args…))`; add a row to
//! `tests/simd_golden.rs` and a case to `bodies_agree_across_lane_types`.
//!
//! Accuracy contract (pinned by `tensor/tests/fast_numerics.rs`, see
//! DESIGN.md "The relaxed tier is the quantized backend"):
//! dot-product-shaped reductions over `k` terms stay within a relative
//! error of a few `k`-scaled ULPs of the exact loops; the polynomial `exp`
//! is accurate to ≲2 ULP over the softmax/SiLU input range. On the AVX2
//! tier the bits themselves are pinned by `tensor/tests/simd_golden.rs`.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use crate::bf16::bf16_decode;
use crate::numerics::{simd_tier, SimdTier};

// ---------------------------------------------------------------------------
// The lane abstraction
// ---------------------------------------------------------------------------

/// Eight `f32` lanes; see the module docs for the contract.
trait Lanes: Copy {
    fn splat(v: f32) -> Self;
    fn load(src: &[f32; 8]) -> Self;
    /// Eight `i8` widened to `f32`.
    fn load_i8(src: &[i8; 8]) -> Self;
    /// Eight BF16 payloads widened to `f32` (shift-left-16 bit cast).
    fn load_bf16(src: &[u16; 8]) -> Self;
    fn store(self, dst: &mut [f32; 8]);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// `self > o ? self : o` per lane.
    fn max(self, o: Self) -> Self;
    /// `self < o ? self : o` per lane.
    fn min(self, o: Self) -> Self;
    /// `self · b + c`.
    fn fma(self, b: Self, c: Self) -> Self;
    /// `c − self · b`.
    fn fnma(self, b: Self, c: Self) -> Self;
    fn floor(self) -> Self;
    /// `2^self` for integer-valued lanes in `[−127, 128]`, built in the
    /// exponent field (−127 gives 0, 128 gives +∞).
    fn pow2(self) -> Self;

    #[inline(always)]
    fn lanes(self) -> [f32; 8] {
        let mut out = [0.0; 8];
        self.store(&mut out);
        out
    }

    /// Horizontal sum as a fixed pairwise tree: halves, then quarters, then
    /// the last pair.
    #[inline(always)]
    fn hsum(self) -> f32 {
        let l = self.lanes();
        ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
    }

    /// Polynomial `exp` (Cephes-style), ≲2 ULP over the softmax/SiLU range;
    /// inputs are clamped to ±88.37 so extremes saturate to 0 / +∞ like
    /// libm does.
    #[inline(always)]
    fn exp(self) -> Self {
        let s = Self::splat;
        let x = self.max(s(-88.376_26)).min(s(88.376_26));
        let fx = x.fma(s(std::f32::consts::LOG2_E), s(0.5)).floor();
        // x −= fx·ln2, split into high/low parts for accuracy.
        let x = fx.fnma(s(0.693_359_4), x);
        let x = fx.fnma(s(-2.121_944_4e-4), x);
        let z = x.mul(x);
        let mut y = s(1.987_569_1e-4);
        y = y.fma(x, s(1.398_199_9e-3));
        y = y.fma(x, s(8.333_452e-3));
        y = y.fma(x, s(4.166_579_6e-2));
        y = y.fma(x, s(1.666_666_5e-1));
        y = y.fma(x, s(0.5));
        y = y.fma(z, x);
        y.add(s(1.0)).mul(fx.pow2())
    }
}

/// The AVX2 + FMA instantiation: one `__m256`, one intrinsic per operation.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx(__m256);

/// The lane-wise register-to-register operations of [`Avx`], which share
/// one shape and one safety argument.
#[cfg(target_arch = "x86_64")]
macro_rules! avx_ops {
    ($($name:ident($($arg:ident),*) = $intrinsic:ident;)*) => {$(
        #[inline(always)]
        fn $name(self $(, $arg: Self)*) -> Self {
            // SAFETY: `Avx` values are only made inside `by_tier!`'s
            // `#[target_feature]` entry (or a test) after the avx2+fma
            // probe passed; the intrinsic has no other requirement.
            Avx(unsafe { $intrinsic(self.0 $(, $arg.0)*) })
        }
    )*};
}

// Every method's requirement is the CPU features, which hold wherever an
// `Avx` can exist (see `avx_ops!`); the pointer intrinsics additionally read
// or write exactly the array their reference argument borrows.
#[cfg(target_arch = "x86_64")]
impl Lanes for Avx {
    avx_ops! {
        add(o) = _mm256_add_ps;
        sub(o) = _mm256_sub_ps;
        mul(o) = _mm256_mul_ps;
        div(o) = _mm256_div_ps;
        max(o) = _mm256_max_ps;
        min(o) = _mm256_min_ps;
        fma(b, c) = _mm256_fmadd_ps;
        fnma(b, c) = _mm256_fnmadd_ps;
        floor() = _mm256_floor_ps;
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: avx2+fma probed, as for `avx_ops!`.
        Avx(unsafe { _mm256_set1_ps(v) })
    }

    #[inline(always)]
    fn load(src: &[f32; 8]) -> Self {
        // SAFETY: avx2+fma probed; unaligned 32-byte read of `*src`.
        Avx(unsafe { _mm256_loadu_ps(src.as_ptr()) })
    }

    #[inline(always)]
    fn load_i8(src: &[i8; 8]) -> Self {
        // SAFETY: avx2+fma probed; unaligned 8-byte read of `*src`.
        Avx(unsafe {
            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(src.as_ptr().cast())))
        })
    }

    #[inline(always)]
    fn load_bf16(src: &[u16; 8]) -> Self {
        // SAFETY: avx2+fma probed; unaligned 16-byte read of `*src`.
        Avx(unsafe {
            let wide = _mm256_cvtepu16_epi32(_mm_loadu_si128(src.as_ptr().cast()));
            _mm256_castsi256_ps(_mm256_slli_epi32(wide, 16))
        })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32; 8]) {
        // SAFETY: avx2+fma probed; unaligned 32-byte write of `*dst`.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn pow2(self) -> Self {
        // SAFETY: avx2+fma probed, as for `avx_ops!`.
        Avx(unsafe {
            let biased = _mm256_add_epi32(_mm256_cvttps_epi32(self.0), _mm256_set1_epi32(127));
            _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23))
        })
    }
}

/// The everywhere-else instantiation: the same eight lanes as an array.
#[derive(Clone, Copy)]
struct Portable([f32; 8]);

/// The lane-wise operations of [`Portable`], each from its scalar form.
macro_rules! portable_ops {
    ($($name:ident($($arg:ident),*) = $scalar:expr;)*) => {$(
        #[inline(always)]
        fn $name(self $(, $arg: Self)*) -> Self {
            Portable(std::array::from_fn(|i| $scalar(self.0[i] $(, $arg.0[i])*)))
        }
    )*};
}

impl Lanes for Portable {
    portable_ops! {
        add(o) = |a: f32, b: f32| a + b;
        sub(o) = |a: f32, b: f32| a - b;
        mul(o) = |a: f32, b: f32| a * b;
        div(o) = |a: f32, b: f32| a / b;
        max(o) = |a: f32, b: f32| if a > b { a } else { b };
        min(o) = |a: f32, b: f32| if a < b { a } else { b };
        fma(b, c) = |a: f32, b: f32, c: f32| a * b + c;
        fnma(b, c) = |a: f32, b: f32, c: f32| c - a * b;
        floor() = f32::floor;
        pow2() = |v: f32| f32::from_bits(((v as i32 + 127) << 23) as u32);
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        Portable([v; 8])
    }

    #[inline(always)]
    fn load(src: &[f32; 8]) -> Self {
        Portable(*src)
    }

    #[inline(always)]
    fn load_i8(src: &[i8; 8]) -> Self {
        Portable(src.map(f32::from))
    }

    #[inline(always)]
    fn load_bf16(src: &[u16; 8]) -> Self {
        Portable(src.map(bf16_decode))
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32; 8]) {
        *dst = self.0;
    }
}

/// An element type the kernels widen to `f32` in registers: `f32` itself, a
/// quantised `i8`, or a BF16 payload.
trait Operand: Copy {
    fn widen(self) -> f32;
    fn load<L: Lanes>(src: &[Self; 8]) -> L;
}

macro_rules! operand {
    ($elem:ty, $widen:expr, $load:ident) => {
        impl Operand for $elem {
            #[inline(always)]
            fn widen(self) -> f32 {
                $widen(self)
            }
            #[inline(always)]
            fn load<L: Lanes>(src: &[$elem; 8]) -> L {
                L::$load(src)
            }
        }
    };
}

operand!(f32, std::convert::identity, load);
operand!(i8, f32::from, load_i8);
operand!(u16, bf16_decode, load_bf16);

/// Runs `body::<L>(args)` on the lane type the probe selects. The entry
/// function is what carries the CPU features: the `#[inline(always)]` body
/// and every `Avx` operation inline into it and are compiled as AVX2 code,
/// whatever the crate's own target is.
macro_rules! by_tier {
    ($(#[$attr:meta])* $body:ident $(::<$elem:ty>)? ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {{
        #[cfg(target_arch = "x86_64")]
        if simd_tier() == SimdTier::Avx2 {
            $(#[$attr])*
            #[target_feature(enable = "avx2,fma")]
            fn avx2($($arg: $ty),*) $(-> $ret)? {
                $body::<Avx $(, $elem)?>($($arg),*)
            }
            // SAFETY: the probe found avx2 and fma on this CPU.
            return unsafe { avx2($($arg),*) };
        }
        $body::<Portable $(, $elem)?>($($arg),*)
    }};
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// The sub-vector remainder of a dot product: one ascending chain from 0.
#[inline(always)]
fn dot_tail<T: Operand>(a: &[f32], b: &[T]) -> f32 {
    a.iter()
        .zip(b)
        .fold(0.0, |acc, (&av, &bv)| acc + av * bv.widen())
}

/// One-accumulator dot product against an [`Operand`] slice: the body of
/// [`sum_squares`] (`a` against itself) and of each position of
/// [`attn_scores_bf16`].
#[inline(always)]
fn dot1_body<L: Lanes, T: Operand>(a: &[f32], b: &[T]) -> f32 {
    let ((ac, at), (bc, bt)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
    let acc = ac.iter().zip(bc).fold(L::splat(0.0), |acc, (av, bv)| {
        L::load(av).fma(T::load(bv), acc)
    });
    acc.hsum() + dot_tail(at, bt)
}

/// Reassociated sum of squares `Σ x[i]²`.
pub fn sum_squares(x: &[f32]) -> f32 {
    let (a, b) = (x, x);
    by_tier!(dot1_body::<f32>(a: &[f32], b: &[f32]) -> f32)
}

/// Maximum element (`f32::max` fold; NaN-free inputs by contract).
pub fn max_slice(x: &[f32]) -> f32 {
    by_tier!(max_slice_body(x: &[f32]) -> f32)
}

#[inline(always)]
fn max_slice_body<L: Lanes>(x: &[f32]) -> f32 {
    let (chunks, tail) = x.as_chunks::<8>();
    let mut best = f32::MIN;
    if let Some((first, rest)) = chunks.split_first() {
        let m = rest.iter().fold(L::load(first), |m, c| m.max(L::load(c)));
        best = m.lanes().into_iter().fold(best, f32::max);
    }
    tail.iter().fold(best, |best, &v| best.max(v))
}

// ---------------------------------------------------------------------------
// Elementwise chains
// ---------------------------------------------------------------------------

/// `out[i] += s · x[i]` over any [`Operand`] (FMA on AVX2; the tail is a
/// scalar multiply then add): the inner loop of [`i8_gemv`]'s segment walk
/// (`i8`, converted in registers so the f32 weight row is never
/// materialized).
#[inline(always)]
fn axpy_body<L: Lanes, T: Operand>(out: &mut [f32], s: f32, x: &[T]) {
    let sv = L::splat(s);
    let ((oc, ot), (xc, xt)) = (out.as_chunks_mut::<8>(), x.as_chunks::<8>());
    for (o, xv) in oc.iter_mut().zip(xc) {
        sv.fma(T::load(xv), L::load(o)).store(o);
    }
    for (o, &xv) in ot.iter_mut().zip(xt) {
        *o += s * xv.widen();
    }
}

/// RMSNorm write: `out[i] = x[i] · inv · gain[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn scale_gain(out: &mut [f32], x: &[f32], inv: f32, gain: &[f32]) {
    assert_eq!(out.len(), x.len(), "simd::scale_gain: length mismatch");
    assert_eq!(out.len(), gain.len(), "simd::scale_gain: gain mismatch");
    by_tier!(scale_gain_body(out: &mut [f32], x: &[f32], inv: f32, gain: &[f32]))
}

#[inline(always)]
fn scale_gain_body<L: Lanes>(out: &mut [f32], x: &[f32], inv: f32, gain: &[f32]) {
    let iv = L::splat(inv);
    let ((oc, ot), (xc, xt)) = (out.as_chunks_mut::<8>(), x.as_chunks::<8>());
    let (gc, gt) = gain.as_chunks::<8>();
    for ((o, xv), gv) in oc.iter_mut().zip(xc).zip(gc) {
        L::load(xv).mul(iv).mul(L::load(gv)).store(o);
    }
    for ((o, &xv), &gv) in ot.iter_mut().zip(xt).zip(gt) {
        *o = xv * inv * gv;
    }
}

/// SwiGLU forward: `out[i] = a[i] · σ(a[i]) · b[i]` with the vectorized
/// polynomial `exp` (scalar libm `exp` in the sub-vector tail).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn silu_mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "simd::silu_mul: length mismatch");
    assert_eq!(a.len(), out.len(), "simd::silu_mul: out mismatch");
    by_tier!(silu_mul_body(a: &[f32], b: &[f32], out: &mut [f32]))
}

#[inline(always)]
fn silu_mul_body<L: Lanes>(a: &[f32], b: &[f32], out: &mut [f32]) {
    let (zero, one) = (L::splat(0.0), L::splat(1.0));
    let ((ac, at), (bc, bt)) = (a.as_chunks::<8>(), b.as_chunks::<8>());
    let (oc, ot) = out.as_chunks_mut::<8>();
    for ((o, av), bv) in oc.iter_mut().zip(ac).zip(bc) {
        let av = L::load(av);
        // σ(a) = 1 / (1 + e^{−a}); silu = a·σ(a).
        let sig = one.div(one.add(zero.sub(av).exp()));
        av.mul(sig).mul(L::load(bv)).store(o);
    }
    for ((o, &av), &bv) in ot.iter_mut().zip(at).zip(bt) {
        *o = av / (1.0 + (-av).exp()) * bv;
    }
}

/// Softmax inner pass: `row[i] = exp(row[i] − maxv)`, returning the
/// reassociated sum of the exponentials.
pub fn softmax_exp_sum(row: &mut [f32], maxv: f32) -> f32 {
    by_tier!(softmax_exp_sum_body(row: &mut [f32], maxv: f32) -> f32)
}

#[inline(always)]
fn softmax_exp_sum_body<L: Lanes>(row: &mut [f32], maxv: f32) -> f32 {
    let mv = L::splat(maxv);
    let (chunks, tail) = row.as_chunks_mut::<8>();
    let mut acc = L::splat(0.0);
    for c in chunks {
        let e = L::load(c).sub(mv).exp();
        e.store(c);
        acc = acc.add(e);
    }
    let mut tail_sum = 0.0f32;
    for e in tail {
        *e = (*e - maxv).exp();
        tail_sum += *e;
    }
    acc.hsum() + tail_sum
}

// ---------------------------------------------------------------------------
// Quantized / reduced-precision operand kernels
// ---------------------------------------------------------------------------

/// Fused group-quantized INT8 GEMV:
/// `out[j] += x[p] · scales[(p·cols + j)/group] · q[p·cols + j]` summed
/// over `p` — one dispatched call for the whole matrix-vector product,
/// converting `i8` lanes to f32 in registers.
///
/// Two walks, chosen from the shape. When both `cols` and `group` are
/// multiples of 64, every 64-lane column panel of every row sits inside a
/// single quantization group, so the panel accumulates in eight vector
/// registers across all rows with one scale broadcast per row — no per-row
/// output traffic, no segment walk — and is added to `out` once. This
/// covers the square projections, row-major `down`, and the LM head.
/// Ragged widths (e.g. the 172-wide gate/up) walk each row's
/// constant-scale segments instead, accumulating into `out` row by row and
/// skipping rows whose `x[p]` is exactly zero (the panel walk does not
/// skip them: for finite weights they add `±0`).
///
/// # Panics
///
/// Panics if `q`, `scales`, or `out` are inconsistent with
/// `x.len() × cols` and `group`.
pub fn i8_gemv(x: &[f32], q: &[i8], scales: &[f32], cols: usize, group: usize, out: &mut [f32]) {
    assert_eq!(q.len(), x.len() * cols, "simd::i8_gemv: data shape");
    assert_eq!(out.len(), cols, "simd::i8_gemv: out shape");
    assert!(group > 0, "simd::i8_gemv: zero group");
    assert!(
        scales.len() * group >= q.len(),
        "simd::i8_gemv: scales too short"
    );
    // Two walks, two entries: compiled as one function their loop nests
    // share a register allocation, and the panel loop — eight accumulators
    // and every loop invariant live — ends up reloading its invariants from
    // the stack on each row (10-15 % on the decode shapes).
    if cols.is_multiple_of(64) && group.is_multiple_of(64) {
        by_tier!(#[inline(never)] i8_gemv_panels_body(
            x: &[f32], q: &[i8], scales: &[f32], cols: usize, group: usize, out: &mut [f32]
        ))
    } else {
        by_tier!(#[inline(never)] i8_gemv_segments_body(
            x: &[f32], q: &[i8], scales: &[f32], cols: usize, group: usize, out: &mut [f32]
        ))
    }
}

/// The quantization group of a flat offset and the offset's position in it:
/// a shift and a mask for the power-of-two groups everything here quantizes
/// with. Any other group size pays a division per row, which costs more than
/// a panel row's eight multiply-adds.
#[inline(always)]
fn group_of(flat: usize, group: usize) -> (usize, usize) {
    if group.is_power_of_two() {
        (flat >> group.trailing_zeros(), flat & (group - 1))
    } else {
        (flat / group, flat % group)
    }
}

/// [`i8_gemv`] for `cols` and `group` both multiples of 64.
#[inline(always)]
fn i8_gemv_panels_body<L: Lanes>(
    x: &[f32],
    q: &[i8],
    scales: &[f32],
    cols: usize,
    group: usize,
    out: &mut [f32],
) {
    // `q` as rows of 64-wide panels, so that which panel of a row feeds
    // output panel `panel` is an index whose bounds check leaves the row loop.
    let (qpanels, per_row) = (q.as_chunks::<64>().0, cols / 64);
    for (panel, opanel) in out.as_chunks_mut::<64>().0.iter_mut().enumerate() {
        let mut acc = [L::splat(0.0); 8];
        // Flat offset of the panel in the current row.
        let mut flat = panel * 64;
        for (qrow, &xv) in qpanels.chunks_exact(per_row).zip(x) {
            let sv = L::splat(xv * scales[group_of(flat, group).0]);
            for (a, qv) in acc.iter_mut().zip(qrow[panel].as_chunks::<8>().0) {
                *a = sv.fma(L::load_i8(qv), *a);
            }
            flat += cols;
        }
        for (a, o) in acc.into_iter().zip(opanel.as_chunks_mut::<8>().0) {
            L::load(o).add(a).store(o);
        }
    }
}

/// [`i8_gemv`] for every other shape (`cols > 0`: zero is a multiple of 64).
#[inline(always)]
fn i8_gemv_segments_body<L: Lanes>(
    x: &[f32],
    q: &[i8],
    scales: &[f32],
    cols: usize,
    group: usize,
    out: &mut [f32],
) {
    for (p, (qrow, &xv)) in q.chunks_exact(cols).zip(x).enumerate() {
        if xv == 0.0 {
            continue;
        }
        // The row's first segment is what is left of its first element's
        // group; the rest are whole groups, so only the row asks `group_of`.
        let (mut g, rem) = group_of(p * cols, group);
        let (mut j, mut seg_left) = (0, group - rem);
        while j < cols {
            let width = seg_left.min(cols - j);
            let seg = j..j + width;
            axpy_body::<L, i8>(&mut out[seg.clone()], xv * scales[g], &qrow[seg]);
            j += width;
            g += 1;
            seg_left = group;
        }
    }
}

// ---------------------------------------------------------------------------
// Fused whole-head attention kernels
// ---------------------------------------------------------------------------
//
// Decode-time attention touches every cached position once per head; doing
// that as one dot/axpy call per position costs a dispatch, a slice bound
// check, and a horizontal reduction *per position* — thousands of calls per
// decoded token on the tiny proxies, which dominates the decode budget.
// These kernels move the position loop inside a single dispatched call: one
// call scores a whole head against the cache, one call mixes probs·V for a
// whole head.

/// Panics unless `n_pos` head segments of `hd` elements, `stride` apart
/// from `off`, fit in a cache of `cache_len` elements.
fn assert_head_fits(kernel: &str, n_pos: usize, stride: usize, off: usize, hd: usize, len: usize) {
    assert!(
        n_pos == 0 || (n_pos - 1) * stride + off + hd <= len,
        "simd::{kernel}: cache overrun"
    );
}

/// Attention scores for one head with BF16 keys decoded in register:
/// `out[j] = scale · Σ_d q[d] · decode(kc[j·stride + off + d])`.
///
/// # Panics
///
/// Panics if the last position's head segment overruns `kc`.
pub fn attn_scores_bf16(
    q: &[f32],
    kc: &[u16],
    stride: usize,
    off: usize,
    scale: f32,
    out: &mut [f32],
) {
    assert_head_fits(
        "attn_scores_bf16",
        out.len(),
        stride,
        off,
        q.len(),
        kc.len(),
    );
    by_tier!(attn_scores_bf16_body(
        q: &[f32], kc: &[u16], stride: usize, off: usize, scale: f32, out: &mut [f32]
    ))
}

#[inline(always)]
fn attn_scores_bf16_body<L: Lanes>(
    q: &[f32],
    kc: &[u16],
    stride: usize,
    off: usize,
    scale: f32,
    out: &mut [f32],
) {
    let mut at = off;
    for o in out {
        *o = dot1_body::<L, u16>(q, &kc[at..at + q.len()]) * scale;
        at += stride;
    }
}

/// probs·V mix for one head over BF16 values decoded in register:
/// `out[d] += Σ_j p[j] · decode(vc[j·stride + off + d])`.
///
/// # Panics
///
/// Panics if the last position's head segment overruns `vc`.
pub fn attn_mix_bf16(p: &[f32], vc: &[u16], stride: usize, off: usize, out: &mut [f32]) {
    assert_head_fits("attn_mix_bf16", p.len(), stride, off, out.len(), vc.len());
    by_tier!(attn_mix_body::<u16>(
        p: &[f32], vc: &[u16], stride: usize, off: usize, out: &mut [f32]
    ))
}

/// Accumulates up to 32 output lanes in registers across the whole position
/// loop, so each `vc` element is touched exactly once and `out` is written
/// exactly once: blocks of four vectors, then what vectors remain, then a
/// scalar chain per leftover lane.
#[inline(always)]
fn attn_mix_body<L: Lanes, T: Operand>(
    p: &[f32],
    vc: &[T],
    stride: usize,
    off: usize,
    out: &mut [f32],
) {
    let (vectors, tail) = out.as_chunks_mut::<8>();
    let tail_at = off + vectors.len() * 8;
    for (block, ovecs) in vectors.chunks_mut(4).enumerate() {
        let at = off + block * 32;
        // A literal count keeps the accumulators in registers.
        match ovecs.len() {
            4 => attn_mix_vectors::<L, T, 4>(p, vc, stride, at, ovecs),
            3 => attn_mix_vectors::<L, T, 3>(p, vc, stride, at, ovecs),
            2 => attn_mix_vectors::<L, T, 2>(p, vc, stride, at, ovecs),
            _ => attn_mix_vectors::<L, T, 1>(p, vc, stride, at, ovecs),
        }
    }
    for (d, o) in tail.iter_mut().enumerate() {
        let lane = p.iter().enumerate();
        *o += lane.fold(0.0, |acc, (j, &pj)| {
            acc + pj * vc[j * stride + tail_at + d].widen()
        });
    }
}

/// `N` vectors of one head's mix, starting at element `at` of each position.
#[inline(always)]
fn attn_mix_vectors<L: Lanes, T: Operand, const N: usize>(
    p: &[f32],
    vc: &[T],
    stride: usize,
    at: usize,
    ovecs: &mut [[f32; 8]],
) {
    let (mut acc, mut at) = ([L::splat(0.0); N], at);
    for &pj in p {
        let sv = L::splat(pj);
        for (a, vv) in acc.iter_mut().zip(vc[at..at + N * 8].as_chunks::<8>().0) {
            *a = sv.fma(T::load(vv), *a);
        }
        at += stride;
    }
    for (a, o) in acc.into_iter().zip(ovecs) {
        L::load(o).add(a).store(o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn randvec(n: usize, rng: &mut Rng) -> Vec<f32> {
        (0..n).map(|_| rng.gauss()).collect()
    }

    fn rand_i8(n: usize, rng: &mut Rng) -> Vec<i8> {
        (0..n).map(|_| (rng.gauss() * 40.0) as i8).collect()
    }

    fn to_bf16(x: &[f32]) -> Vec<u16> {
        x.iter().map(|&v| (v.to_bits() >> 16) as u16).collect()
    }

    fn rel_err(a: f32, b: f32) -> f32 {
        (a - b).abs() / b.abs().max(1e-6)
    }

    /// Evaluates `$e` with `$l` naming each lane type in turn: `Portable`
    /// always, `Avx` where the probe allows (`None` elsewhere). This is the
    /// only place an AVX2 host runs the portable instantiation, and — with
    /// the public entry points — what makes a non-AVX2 host run the
    /// polynomial `exp` and the panel `i8_gemv`.
    macro_rules! on_both {
        ($l:ident => $e:expr) => {{
            let portable = {
                type $l = Portable;
                $e
            };
            #[cfg(target_arch = "x86_64")]
            let avx = (simd_tier() == SimdTier::Avx2).then(|| {
                type $l = Avx;
                $e
            });
            #[cfg(not(target_arch = "x86_64"))]
            let avx = None;
            (portable, avx)
        }};
    }

    /// The ragged-length sweep of `tests/simd_golden.rs`.
    const LENS: [usize; 11] = [0, 1, 7, 8, 9, 15, 16, 17, 24, 33, 257];

    /// Asserts the two lane types' outputs agree: bit for bit when `exact`,
    /// else inside `fast_numerics.rs`'s reduction envelope.
    fn assert_agree(what: &str, exact: bool, (portable, avx): (Vec<f32>, Option<Vec<f32>>)) {
        let Some(avx) = avx else { return };
        assert_eq!(portable.len(), avx.len(), "{what}: length");
        for (i, (&p, &a)) in portable.iter().zip(&avx).enumerate() {
            if exact {
                assert_eq!(p.to_bits(), a.to_bits(), "{what}[{i}]: {p} vs {a}");
            } else {
                let bound = 1e-4 * a.abs().max(1.0);
                assert!((p - a).abs() <= bound, "{what}[{i}]: {p} vs {a}");
            }
        }
    }

    #[test]
    fn bodies_agree_across_lane_types() {
        let mut rng = Rng::seed_from_u64(16);
        for n in LENS {
            let (a, b, c) = (
                randvec(n, &mut rng),
                randvec(n, &mut rng),
                randvec(n, &mut rng),
            );
            let wide: Vec<f32> = a.iter().map(|v| v * 4.0).collect();
            let (q, kb) = (rand_i8(n, &mut rng), to_bf16(&b));
            // Below one vector only the scalar tails run, and those are the
            // same code whatever the lane type.
            let tail_only = n < 8;
            let tag = |kernel: &str| format!("{kernel} n={n}");

            assert_agree(
                &tag("sum_squares"),
                tail_only,
                on_both!(L => vec![dot1_body::<L, f32>(&a, &a)]),
            );
            assert_agree(
                &tag("dot1 bf16"),
                tail_only,
                on_both!(L => vec![dot1_body::<L, u16>(&a, &kb)]),
            );
            // No FMA, no reduction: bit-equal at every length.
            assert_agree(
                &tag("max_slice"),
                true,
                on_both!(L => vec![max_slice_body::<L>(&a)]),
            );
            assert_agree(
                &tag("scale_gain"),
                true,
                on_both!(L => {
                    let mut out = c.clone();
                    scale_gain_body::<L>(&mut out, &a, 0.731, &b);
                    out
                }),
            );
            assert_agree(
                &tag("axpy i8"),
                tail_only,
                on_both!(L => {
                    let mut out = c.clone();
                    axpy_body::<L, i8>(&mut out, 0.37, &q);
                    out
                }),
            );
            assert_agree(
                &tag("silu_mul"),
                tail_only,
                on_both!(L => {
                    let mut out = c.clone();
                    silu_mul_body::<L>(&wide, &b, &mut out);
                    out
                }),
            );
            assert_agree(
                &tag("softmax_exp_sum"),
                tail_only,
                on_both!(L => {
                    let mut row = wide.clone();
                    let maxv = max_slice_body::<L>(&row);
                    let sum = softmax_exp_sum_body::<L>(&mut row, maxv);
                    row.push(sum);
                    row
                }),
            );
        }
    }

    #[test]
    fn shaped_bodies_agree_across_lane_types() {
        let mut rng = Rng::seed_from_u64(17);
        for (rows, cols, group) in I8_SHAPES {
            let (x, q, scales) = i8_problem(rows, cols, group, &mut rng);
            let out = randvec(cols, &mut rng);
            assert_agree(
                &format!("i8_gemv {rows}x{cols} g{group}"),
                false,
                on_both!(L => {
                    let mut out = out.clone();
                    if cols % 64 == 0 && group % 64 == 0 {
                        i8_gemv_panels_body::<L>(&x, &q, &scales, cols, group, &mut out);
                    } else {
                        i8_gemv_segments_body::<L>(&x, &q, &scales, cols, group, &mut out);
                    }
                    out
                }),
            );
        }
        for (hd, stride, off, n_pos) in [(24usize, 72usize, 24usize, 21usize), (12, 40, 4, 7)] {
            let q = randvec(hd, &mut rng);
            let vc = randvec((n_pos - 1) * stride + off + hd, &mut rng);
            let (kb, p) = (to_bf16(&vc), randvec(n_pos, &mut rng));
            let out = randvec(hd, &mut rng);
            assert_agree(
                &format!("attn_scores_bf16 hd={hd}"),
                false,
                on_both!(L => {
                    let mut scores = vec![0.0f32; n_pos];
                    attn_scores_bf16_body::<L>(&q, &kb, stride, off, 0.204, &mut scores);
                    scores
                }),
            );
            assert_agree(
                &format!("attn_mix_bf16 hd={hd}"),
                false,
                on_both!(L => {
                    let mut out = out.clone();
                    attn_mix_body::<L, u16>(&p, &kb, stride, off, &mut out);
                    out
                }),
            );
        }
    }

    #[test]
    fn lane_loads_and_exp_match_scalar_on_both_lane_types() {
        let mut rng = Rng::seed_from_u64(18);
        let q: [i8; 8] = [-128, -1, 0, 1, 37, 127, -64, 5];
        let kb: [u16; 8] = to_bf16(&randvec(8, &mut rng)).try_into().unwrap();
        let (pi8, ai8) = on_both!(L => L::load_i8(&q).lanes());
        let (pbf, abf) = on_both!(L => L::load_bf16(&kb).lanes());
        assert_eq!(pi8, q.map(f32::from));
        assert_eq!(pbf, kb.map(bf16_decode));
        assert!(ai8.is_none_or(|a| a == pi8) && abf.is_none_or(|a| a == pbf));

        // The one polynomial, both instantiations, against libm over ±20.
        let xs: Vec<f32> = (-320..320).map(|i| i as f32 * 0.0625).collect();
        for chunk in xs.as_chunks::<8>().0 {
            let (portable, avx) = on_both!(L => L::load(chunk).exp().lanes());
            for got in avx.into_iter().chain([portable]) {
                for (&x, got) in chunk.iter().zip(got) {
                    assert!(rel_err(got, x.exp()) <= 1e-5, "exp({x}): {got}");
                }
            }
        }
    }

    #[test]
    fn exp_paths_agree_with_libm() {
        let mut row: Vec<f32> = (-40..=40).map(|i| i as f32 * 0.5).collect();
        let reference: Vec<f32> = row.iter().map(|&x| x.exp()).collect();
        let sum = softmax_exp_sum(&mut row, 0.0);
        let mut ref_sum = 0.0f64;
        for (&got, &want) in row.iter().zip(&reference) {
            assert!(rel_err(got, want) < 1e-5, "exp({want:?}): {got} vs {want}");
            ref_sum += f64::from(want);
        }
        assert!((f64::from(sum) - ref_sum).abs() <= 1e-4 * ref_sum);
    }

    #[test]
    fn i8_and_bf16_operand_kernels_match_scalar() {
        let mut rng = Rng::seed_from_u64(12);
        for n in [1usize, 5, 8, 24, 100] {
            let q = rand_i8(n, &mut rng);
            let x = randvec(n, &mut rng);
            let kb = to_bf16(&x);
            let want: f32 = x.iter().zip(&kb).map(|(&a, &k)| a * bf16_decode(k)).sum();
            let (portable, avx) = on_both!(L => {
                let mut out = vec![0.0f32; n];
                axpy_body::<L, i8>(&mut out, 0.25, &q);
                (out, dot1_body::<L, u16>(&x, &kb))
            });
            for (out, got) in avx.into_iter().chain([portable]) {
                for (o, &qv) in out.iter().zip(&q) {
                    assert_eq!(*o, 0.25 * f32::from(qv));
                }
                assert!((got - want).abs() <= 1e-3 * want.abs().max(1.0));
            }
        }
    }

    /// `(rows, cols, group)`: the first three take the register-blocked
    /// panel walk (cols and group both multiples of 64), the rest the
    /// segment walk (ragged widths, groups crossing row boundaries).
    const I8_SHAPES: [(usize, usize, usize); 5] = [
        (64, 64, 128),
        (172, 64, 128),
        (64, 512, 64),
        (64, 172, 128),
        (5, 13, 7),
    ];

    fn i8_problem(
        rows: usize,
        cols: usize,
        group: usize,
        rng: &mut Rng,
    ) -> (Vec<f32>, Vec<i8>, Vec<f32>) {
        let scales = (0..(rows * cols).div_ceil(group))
            .map(|_| rng.gauss().abs() * 0.1 + 0.01)
            .collect();
        (randvec(rows, rng), rand_i8(rows * cols, rng), scales)
    }

    #[test]
    fn i8_gemv_matches_reference_on_panel_and_ragged_shapes() {
        let mut rng = Rng::seed_from_u64(15);
        for (rows, cols, group) in I8_SHAPES {
            let (x, q, scales) = i8_problem(rows, cols, group, &mut rng);
            let mut out = vec![0.0f32; cols];
            i8_gemv(&x, &q, &scales, cols, group, &mut out);
            for (j, &got) in out.iter().enumerate() {
                let want: f64 = (0..rows)
                    .map(|p| {
                        let flat = p * cols + j;
                        f64::from(x[p]) * f64::from(scales[flat / group]) * f64::from(q[flat])
                    })
                    .sum();
                assert!(
                    (f64::from(got) - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "{rows}x{cols} g{group} j={j}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn fused_attention_kernels_match_per_position_loops() {
        let mut rng = Rng::seed_from_u64(14);
        // hd sweeps a vector-multiple and a ragged width; stride > hd
        // exercises the strided cache walk with off != 0.
        for (hd, stride, off, n_pos) in [(16usize, 64usize, 16usize, 20usize), (12, 40, 4, 7)] {
            let q = randvec(hd, &mut rng);
            let kc = randvec((n_pos - 1) * stride + off + hd, &mut rng);
            let kb = to_bf16(&kc);
            let scale = 0.25f32;

            let mut scores_b = vec![0.0f32; n_pos];
            attn_scores_bf16(&q, &kb, stride, off, scale, &mut scores_b);
            for (j, &got) in scores_b.iter().enumerate() {
                let want: f32 = (0..hd)
                    .map(|d| q[d] * bf16_decode(kb[j * stride + off + d]))
                    .sum::<f32>()
                    * scale;
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "bf16 j={j}"
                );
            }

            let p = randvec(n_pos, &mut rng);
            let mut mixed_b = vec![0.0f32; hd];
            attn_mix_bf16(&p, &kb, stride, off, &mut mixed_b);
            for d in 0..hd {
                let want: f64 = (0..n_pos)
                    .map(|j| f64::from(p[j]) * f64::from(bf16_decode(kb[j * stride + off + d])))
                    .sum();
                assert!(
                    (f64::from(mixed_b[d]) - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "bf16 d={d}"
                );
            }
        }
    }
}
