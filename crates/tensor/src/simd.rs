//! Explicit-SIMD fast-path kernels (the `NumericsMode::Fast` tier).
//!
//! Every function here computes the same mathematical expression as its
//! exact counterpart in `matmul.rs` / `fused.rs`, but relaxes the bitwise
//! contract: reductions run over 8 independent lanes and are combined at
//! the end (reassociation), multiplies and adds contract into FMA where
//! the hardware has it, and `exp` uses a vectorized polynomial instead of
//! libm. Two implementations back each entry point:
//!
//! - **AVX2 + FMA** via `std::arch` f32x8 intrinsics, selected when the
//!   one-shot runtime probe ([`crate::numerics::simd_tier`]) reports
//!   [`SimdTier::Avx2`];
//! - a **portable fallback** written as hand-unrolled 8-lane loops with
//!   the same reassociated lane structure, so both tiers satisfy the same
//!   tolerance contract (and LLVM still autovectorizes the lanes on
//!   whatever the target baseline is).
//!
//! Accuracy contract (pinned by `tensor/tests/fast_numerics.rs`, see
//! DESIGN.md "Numerics modes"): dot-product-shaped reductions over `k`
//! terms stay within a relative error of a few `k`-scaled ULPs of the
//! exact kernels; the polynomial `exp` is accurate to ≲2 ULP over the
//! softmax/SiLU input range. These kernels must never be reached from
//! exact mode — callers gate on [`crate::numerics::current_numerics`].

use crate::numerics::{simd_tier, SimdTier};

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Reassociated dot product `Σ a[i]·b[i]` (8 lanes + FMA on AVX2).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "simd::dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        return unsafe { avx2::dot(a, b) };
    }
    portable::dot(a, b)
}

/// Reassociated sum of squares `Σ x[i]²`.
pub fn sum_squares(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        return unsafe { avx2::sum_squares(x) };
    }
    portable::sum_squares(x)
}

/// Maximum element (`f32::max` fold; NaN-free inputs by contract).
pub fn max_slice(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        return unsafe { avx2::max_slice(x) };
    }
    portable::max_slice(x)
}

// ---------------------------------------------------------------------------
// Elementwise chains
// ---------------------------------------------------------------------------

/// `out[i] += s · x[i]` (FMA on AVX2).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(out: &mut [f32], s: f32, x: &[f32]) {
    assert_eq!(out.len(), x.len(), "simd::axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        unsafe { avx2::axpy(out, s, x) };
        return;
    }
    portable::axpy(out, s, x);
}

/// RMSNorm write: `out[i] = x[i] · inv · gain[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn scale_gain(out: &mut [f32], x: &[f32], inv: f32, gain: &[f32]) {
    assert_eq!(out.len(), x.len(), "simd::scale_gain: length mismatch");
    assert_eq!(out.len(), gain.len(), "simd::scale_gain: gain mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        unsafe { avx2::scale_gain(out, x, inv, gain) };
        return;
    }
    portable::scale_gain(out, x, inv, gain);
}

/// SwiGLU forward: `out[i] = a[i] · σ(a[i]) · b[i]` with the vectorized
/// polynomial `exp` on AVX2 (scalar libm `exp` on the portable tier).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn silu_mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "simd::silu_mul: length mismatch");
    assert_eq!(a.len(), out.len(), "simd::silu_mul: out mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        unsafe { avx2::silu_mul(a, b, out) };
        return;
    }
    portable::silu_mul(a, b, out);
}

/// Softmax inner pass: `row[i] = exp(row[i] − maxv)`, returning the
/// reassociated sum of the exponentials.
pub fn softmax_exp_sum(row: &mut [f32], maxv: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        return unsafe { avx2::softmax_exp_sum(row, maxv) };
    }
    portable::softmax_exp_sum(row, maxv)
}

/// Fused Adam element chain (the fast arm of `fused_adam_update`):
/// updates `m`/`v` in place and writes
/// `w ← w · decay − lr · (m/bc₁)/(√(v/bc₂) + eps)`.
#[allow(clippy::too_many_arguments)]
pub fn adam_weight_update(
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    beta1: f32,
    beta2: f32,
    bc1: f32,
    bc2: f32,
    eps: f32,
    lr: f32,
    decay: f32,
) {
    assert_eq!(w.len(), g.len(), "simd::adam_weight_update: w/g mismatch");
    assert_eq!(m.len(), g.len(), "simd::adam_weight_update: m/g mismatch");
    assert_eq!(v.len(), g.len(), "simd::adam_weight_update: v/g mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        unsafe { avx2::adam_weight_update(w, g, m, v, beta1, beta2, bc1, bc2, eps, lr, decay) };
        return;
    }
    portable::adam_weight_update(w, g, m, v, beta1, beta2, bc1, bc2, eps, lr, decay);
}

// ---------------------------------------------------------------------------
// Matmul micro-kernels
// ---------------------------------------------------------------------------

/// Fast gemv band: `out[j − lo] += Σ_p arow[p] · b[p·n + j]` for
/// `j ∈ [lo, hi)`, `p` outer with one broadcast and FMA over contiguous
/// 8-lane `b` runs. Per-element accumulation order matches the exact
/// kernel (`p` ascending); only the multiply-add contraction differs.
pub fn gemv_band(arow: &[f32], b: &[f32], n: usize, lo: usize, hi: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), hi - lo);
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        unsafe { avx2::gemv_band(arow, b, n, lo, hi, out) };
        return;
    }
    portable::gemv_band(arow, b, n, lo, hi, out);
}

/// Fast full-width packed register tile (width 32, the packed kernels'
/// `NR`): `orow[j] = Σ_p arow[p] · block[p·32 + j]` with four f32x8 FMA
/// accumulators on AVX2.
///
/// # Panics
///
/// Panics if `orow` is not exactly 32 wide.
pub fn tile_packed32(arow: &[f32], block: &[f32], orow: &mut [f32]) {
    assert_eq!(orow.len(), 32, "simd::tile_packed32: tile must be 32 wide");
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        unsafe { avx2::tile_packed32(arow, block, orow) };
        return;
    }
    portable::tile_packed32(arow, block, orow);
}

// ---------------------------------------------------------------------------
// Quantized / reduced-precision operand kernels
// ---------------------------------------------------------------------------

/// INT8 dequant-axpy: `out[j] += s · q[j]` converting each `i8` lane to
/// `f32` in registers — the inner loop of the fused dequant-gemv, which
/// never materializes the f32 weight row.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn i8_axpy(out: &mut [f32], s: f32, q: &[i8]) {
    assert_eq!(out.len(), q.len(), "simd::i8_axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        unsafe { avx2::i8_axpy(out, s, q) };
        return;
    }
    portable::i8_axpy(out, s, q);
}

/// Fused group-quantized INT8 GEMV:
/// `out[j] += x[p] · scales[(p·cols + j)/group] · q[p·cols + j]` summed
/// over `p` — one dispatched call for the whole matrix-vector product,
/// walking constant-scale row segments internally and converting `i8`
/// lanes to f32 in registers. Zero `x[p]` rows are skipped.
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
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // Register-blocked fast path: when both `cols` and `group` are
        // multiples of 64, every 64-lane column panel of every row sits
        // inside a single quantization group, so the panel accumulates in
        // eight ymm registers across all rows with one scale broadcast per
        // row — no per-row output traffic, no segment walk. This covers
        // the square projections, row-major `down`, and the LM head;
        // ragged widths (e.g. the 172-wide gate/up) take the general
        // segment-walking kernel.
        // SAFETY: tier probe confirmed avx2+fma; bounds asserted above.
        if cols.is_multiple_of(64) && group.is_multiple_of(64) {
            unsafe { avx2::i8_gemv_panels(x, q, scales, cols, group, out) };
        } else {
            unsafe { avx2::i8_gemv(x, q, scales, cols, group, out) };
        }
        return;
    }
    portable::i8_gemv(x, q, scales, cols, group, out);
}

/// BF16-operand dot product: `Σ a[i] · decode(kb[i])`, widening each
/// `u16` bf16 payload to f32 in registers (shift-left-16 bit cast).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_bf16(a: &[f32], kb: &[u16]) -> f32 {
    assert_eq!(a.len(), kb.len(), "simd::dot_bf16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        return unsafe { avx2::dot_bf16(a, kb) };
    }
    portable::dot_bf16(a, kb)
}

/// BF16-operand axpy: `out[i] += s · decode(vb[i])`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy_bf16(out: &mut [f32], s: f32, vb: &[u16]) {
    assert_eq!(out.len(), vb.len(), "simd::axpy_bf16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma.
        unsafe { avx2::axpy_bf16(out, s, vb) };
        return;
    }
    portable::axpy_bf16(out, s, vb);
}

// ---------------------------------------------------------------------------
// Fused whole-head attention kernels
// ---------------------------------------------------------------------------
//
// Decode-time attention touches every cached position once per head; doing
// that as one `dot`/`axpy` call per position costs a dispatch, a slice
// bound check, and a horizontal reduction *per position* — thousands of
// calls per decoded token on the tiny proxies, which dominates the decode
// budget. These kernels move the position loop inside a single dispatched
// call: one call scores a whole head against the cache, one call mixes
// probs·V for a whole head.

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
    let n = out.len();
    assert!(
        n == 0 || (n - 1) * stride + off + q.len() <= kc.len(),
        "simd::attn_scores_bf16: cache overrun"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma; bounds asserted above.
        unsafe { avx2::attn_scores_bf16(q, kc, stride, off, scale, out) };
        return;
    }
    portable::attn_scores_bf16(q, kc, stride, off, scale, out);
}

/// probs·V mix for one head over f32 values:
/// `out[d] += Σ_j p[j] · vc[j·stride + off + d]` (callers fold the softmax
/// denominator into `p` beforehand).
///
/// # Panics
///
/// Panics if the last position's head segment overruns `vc`.
pub fn attn_mix(p: &[f32], vc: &[f32], stride: usize, off: usize, out: &mut [f32]) {
    let n = p.len();
    assert!(
        n == 0 || (n - 1) * stride + off + out.len() <= vc.len(),
        "simd::attn_mix: cache overrun"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma; bounds asserted above.
        unsafe { avx2::attn_mix(p, vc, stride, off, out) };
        return;
    }
    portable::attn_mix(p, vc, stride, off, out);
}

/// probs·V mix for one head over BF16 values decoded in register:
/// `out[d] += Σ_j p[j] · decode(vc[j·stride + off + d])`.
///
/// # Panics
///
/// Panics if the last position's head segment overruns `vc`.
pub fn attn_mix_bf16(p: &[f32], vc: &[u16], stride: usize, off: usize, out: &mut [f32]) {
    let n = p.len();
    assert!(
        n == 0 || (n - 1) * stride + off + out.len() <= vc.len(),
        "simd::attn_mix_bf16: cache overrun"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_tier() == SimdTier::Avx2 {
        // SAFETY: tier probe confirmed avx2+fma; bounds asserted above.
        unsafe { avx2::attn_mix_bf16(p, vc, stride, off, out) };
        return;
    }
    portable::attn_mix_bf16(p, vc, stride, off, out);
}

// ---------------------------------------------------------------------------
// Portable fallback: hand-unrolled 8-lane loops
// ---------------------------------------------------------------------------

mod portable {
    /// Splits a reduction into 8 independent lane accumulators combined
    /// pairwise at the end — the same association as the AVX2 tier's
    /// horizontal sum, so both tiers land within the same tolerance.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; 8];
        let chunks = a.len() / 8;
        for c in 0..chunks {
            let av = &a[c * 8..c * 8 + 8];
            let bv = &b[c * 8..c * 8 + 8];
            for i in 0..8 {
                acc[i] += av[i] * bv[i];
            }
        }
        let mut tail = 0.0f32;
        for i in chunks * 8..a.len() {
            tail += a[i] * b[i];
        }
        hsum8(acc) + tail
    }

    pub fn sum_squares(x: &[f32]) -> f32 {
        let mut acc = [0.0f32; 8];
        let chunks = x.len() / 8;
        for c in 0..chunks {
            let xv = &x[c * 8..c * 8 + 8];
            for i in 0..8 {
                acc[i] += xv[i] * xv[i];
            }
        }
        let mut tail = 0.0f32;
        for &v in &x[chunks * 8..] {
            tail += v * v;
        }
        hsum8(acc) + tail
    }

    pub fn max_slice(x: &[f32]) -> f32 {
        x.iter().cloned().fold(f32::MIN, f32::max)
    }

    pub fn axpy(out: &mut [f32], s: f32, x: &[f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o += s * v;
        }
    }

    pub fn scale_gain(out: &mut [f32], x: &[f32], inv: f32, gain: &[f32]) {
        for ((o, &v), &g) in out.iter_mut().zip(x).zip(gain) {
            *o = v * inv * g;
        }
    }

    pub fn silu_mul(a: &[f32], b: &[f32], out: &mut [f32]) {
        for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
            *o = av / (1.0 + (-av).exp()) * bv;
        }
    }

    pub fn softmax_exp_sum(row: &mut [f32], maxv: f32) -> f32 {
        let mut acc = [0.0f32; 8];
        let chunks = row.len() / 8;
        for c in 0..chunks {
            let lane = &mut row[c * 8..c * 8 + 8];
            for (i, e) in lane.iter_mut().enumerate() {
                *e = (*e - maxv).exp();
                acc[i] += *e;
            }
        }
        let mut tail = 0.0f32;
        for e in row[chunks * 8..].iter_mut() {
            *e = (*e - maxv).exp();
            tail += *e;
        }
        hsum8(acc) + tail
    }

    #[allow(clippy::too_many_arguments)]
    pub fn adam_weight_update(
        w: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        beta1: f32,
        beta2: f32,
        bc1: f32,
        bc2: f32,
        eps: f32,
        lr: f32,
        decay: f32,
    ) {
        for i in 0..g.len() {
            let gv = g[i];
            let mv = beta1 * m[i] + (1.0 - beta1) * gv;
            let vv = beta2 * v[i] + (1.0 - beta2) * gv * gv;
            m[i] = mv;
            v[i] = vv;
            let u = (mv / bc1) / ((vv / bc2).sqrt() + eps);
            w[i] = w[i] * decay + (-lr) * u;
        }
    }

    pub fn gemv_band(arow: &[f32], b: &[f32], n: usize, lo: usize, hi: usize, out: &mut [f32]) {
        for (p, &av) in arow.iter().enumerate() {
            let brow = &b[p * n + lo..p * n + hi];
            for (ov, &bv) in out.iter_mut().zip(brow) {
                *ov += av * bv;
            }
        }
    }

    pub fn tile_packed32(arow: &[f32], block: &[f32], orow: &mut [f32]) {
        let mut acc = [0.0f32; 32];
        for (brow, &av) in block.chunks_exact(32).zip(arow) {
            for (aj, &bv) in acc.iter_mut().zip(brow) {
                *aj += av * bv;
            }
        }
        orow.copy_from_slice(&acc);
    }

    pub fn i8_axpy(out: &mut [f32], s: f32, q: &[i8]) {
        for (o, &qv) in out.iter_mut().zip(q) {
            *o += s * f32::from(qv);
        }
    }

    pub fn i8_gemv(
        x: &[f32],
        q: &[i8],
        scales: &[f32],
        cols: usize,
        group: usize,
        out: &mut [f32],
    ) {
        // Same incremental group walk as the AVX2 tier — one division per
        // segment would dominate these short rows.
        let mut g = 0usize;
        let mut rem = 0usize;
        for (p, &xv) in x.iter().enumerate() {
            if xv != 0.0 {
                let base = p * cols;
                let mut j = 0;
                let mut gg = g;
                let mut seg_left = group - rem;
                while j < cols {
                    let width = seg_left.min(cols - j);
                    i8_axpy(
                        &mut out[j..j + width],
                        xv * scales[gg],
                        &q[base + j..base + j + width],
                    );
                    j += width;
                    gg += 1;
                    seg_left = group;
                }
            }
            rem += cols;
            while rem >= group {
                g += 1;
                rem -= group;
            }
        }
    }

    pub fn dot_bf16(a: &[f32], kb: &[u16]) -> f32 {
        let mut acc = [0.0f32; 8];
        let chunks = a.len() / 8;
        for c in 0..chunks {
            let av = &a[c * 8..c * 8 + 8];
            let kv = &kb[c * 8..c * 8 + 8];
            for i in 0..8 {
                acc[i] += av[i] * decode(kv[i]);
            }
        }
        let mut tail = 0.0f32;
        for i in chunks * 8..a.len() {
            tail += a[i] * decode(kb[i]);
        }
        hsum8(acc) + tail
    }

    pub fn axpy_bf16(out: &mut [f32], s: f32, vb: &[u16]) {
        for (o, &bv) in out.iter_mut().zip(vb) {
            *o += s * decode(bv);
        }
    }

    pub fn attn_scores_bf16(
        q: &[f32],
        kc: &[u16],
        stride: usize,
        off: usize,
        scale: f32,
        out: &mut [f32],
    ) {
        for (j, o) in out.iter_mut().enumerate() {
            let kh = &kc[j * stride + off..j * stride + off + q.len()];
            *o = dot_bf16(q, kh) * scale;
        }
    }

    pub fn attn_mix(p: &[f32], vc: &[f32], stride: usize, off: usize, out: &mut [f32]) {
        for (j, &pj) in p.iter().enumerate() {
            let vh = &vc[j * stride + off..j * stride + off + out.len()];
            axpy(out, pj, vh);
        }
    }

    pub fn attn_mix_bf16(p: &[f32], vc: &[u16], stride: usize, off: usize, out: &mut [f32]) {
        for (j, &pj) in p.iter().enumerate() {
            let vh = &vc[j * stride + off..j * stride + off + out.len()];
            axpy_bf16(out, pj, vh);
        }
    }

    #[inline]
    fn decode(bits: u16) -> f32 {
        f32::from_bits(u32::from(bits) << 16)
    }

    /// Pairwise lane combine — mirrors the AVX2 horizontal-sum tree.
    #[inline]
    fn hsum8(acc: [f32; 8]) -> f32 {
        ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA tier
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum of one f32x8 accumulator (pairwise tree; the
    /// portable tier's `hsum8` mirrors this association).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// Polynomial `exp` (Cephes-style), ≲2 ULP over the softmax/SiLU
    /// range; inputs are clamped to ±88.37 so extremes saturate to
    /// 0 / f32::MAX-scale like libm does.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let hi = _mm256_set1_ps(88.376_26);
        let lo = _mm256_set1_ps(-88.376_26);
        let x = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
        let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
        let fx = _mm256_floor_ps(_mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5)));
        // x −= fx·ln2, split into high/low parts for accuracy.
        let c1 = _mm256_set1_ps(0.693_359_4);
        let c2 = _mm256_set1_ps(-2.121_944_4e-4);
        let x = _mm256_fnmadd_ps(fx, c1, x);
        let x = _mm256_fnmadd_ps(fx, c2, x);
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(1.987_569_1e-4);
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.398_199_9e-3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.333_452e-3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.166_579_6e-2));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.666_666_5e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(0.5));
        y = _mm256_fmadd_ps(y, z, x);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // y ·= 2^fx via exponent-field construction.
        let emm0 = _mm256_cvttps_epi32(fx);
        let emm0 = _mm256_add_epi32(emm0, _mm256_set1_epi32(127));
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(emm0, 23));
        _mm256_mul_ps(y, pow2n)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        unsafe {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let chunks = a.len() / 16;
            for c in 0..chunks {
                let pa = a.as_ptr().add(c * 16);
                let pb = b.as_ptr().add(c * 16);
                acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa), _mm256_loadu_ps(pb), acc0);
                acc1 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(8)), _mm256_loadu_ps(pb.add(8)), acc1);
            }
            let mut i = chunks * 16;
            if i + 8 <= a.len() {
                acc0 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(a.as_ptr().add(i)),
                    _mm256_loadu_ps(b.as_ptr().add(i)),
                    acc0,
                );
                i += 8;
            }
            let mut tail = 0.0f32;
            while i < a.len() {
                tail += a[i] * b[i];
                i += 1;
            }
            hsum(_mm256_add_ps(acc0, acc1)) + tail
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sum_squares(x: &[f32]) -> f32 {
        unsafe {
            let mut acc = _mm256_setzero_ps();
            let chunks = x.len() / 8;
            for c in 0..chunks {
                let v = _mm256_loadu_ps(x.as_ptr().add(c * 8));
                acc = _mm256_fmadd_ps(v, v, acc);
            }
            let mut tail = 0.0f32;
            for &v in &x[chunks * 8..] {
                tail += v * v;
            }
            hsum(acc) + tail
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn max_slice(x: &[f32]) -> f32 {
        unsafe {
            let mut best = f32::MIN;
            let chunks = x.len() / 8;
            if chunks > 0 {
                let mut m = _mm256_loadu_ps(x.as_ptr());
                for c in 1..chunks {
                    m = _mm256_max_ps(m, _mm256_loadu_ps(x.as_ptr().add(c * 8)));
                }
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), m);
                for v in lanes {
                    best = best.max(v);
                }
            }
            for &v in &x[chunks * 8..] {
                best = best.max(v);
            }
            best
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(out: &mut [f32], s: f32, x: &[f32]) {
        unsafe {
            let sv = _mm256_set1_ps(s);
            let chunks = out.len() / 8;
            for c in 0..chunks {
                let po = out.as_mut_ptr().add(c * 8);
                let o = _mm256_loadu_ps(po);
                let v = _mm256_loadu_ps(x.as_ptr().add(c * 8));
                _mm256_storeu_ps(po, _mm256_fmadd_ps(sv, v, o));
            }
            for i in chunks * 8..out.len() {
                out[i] += s * x[i];
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_gain(out: &mut [f32], x: &[f32], inv: f32, gain: &[f32]) {
        unsafe {
            let iv = _mm256_set1_ps(inv);
            let chunks = out.len() / 8;
            for c in 0..chunks {
                let v = _mm256_loadu_ps(x.as_ptr().add(c * 8));
                let g = _mm256_loadu_ps(gain.as_ptr().add(c * 8));
                let r = _mm256_mul_ps(_mm256_mul_ps(v, iv), g);
                _mm256_storeu_ps(out.as_mut_ptr().add(c * 8), r);
            }
            for i in chunks * 8..out.len() {
                out[i] = x[i] * inv * gain[i];
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn silu_mul(a: &[f32], b: &[f32], out: &mut [f32]) {
        unsafe {
            let one = _mm256_set1_ps(1.0);
            let chunks = out.len() / 8;
            for c in 0..chunks {
                let av = _mm256_loadu_ps(a.as_ptr().add(c * 8));
                let bv = _mm256_loadu_ps(b.as_ptr().add(c * 8));
                // σ(a) = 1 / (1 + e^{−a}); silu = a·σ(a).
                let e = exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), av));
                let sig = _mm256_div_ps(one, _mm256_add_ps(one, e));
                let r = _mm256_mul_ps(_mm256_mul_ps(av, sig), bv);
                _mm256_storeu_ps(out.as_mut_ptr().add(c * 8), r);
            }
            for i in chunks * 8..out.len() {
                let av = a[i];
                out[i] = av / (1.0 + (-av).exp()) * b[i];
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn softmax_exp_sum(row: &mut [f32], maxv: f32) -> f32 {
        unsafe {
            let mv = _mm256_set1_ps(maxv);
            let mut acc = _mm256_setzero_ps();
            let chunks = row.len() / 8;
            for c in 0..chunks {
                let p = row.as_mut_ptr().add(c * 8);
                let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(p), mv));
                _mm256_storeu_ps(p, e);
                acc = _mm256_add_ps(acc, e);
            }
            let mut tail = 0.0f32;
            for e in row[chunks * 8..].iter_mut() {
                *e = (*e - maxv).exp();
                tail += *e;
            }
            hsum(acc) + tail
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adam_weight_update(
        w: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        beta1: f32,
        beta2: f32,
        bc1: f32,
        bc2: f32,
        eps: f32,
        lr: f32,
        decay: f32,
    ) {
        unsafe {
            let b1 = _mm256_set1_ps(beta1);
            let ob1 = _mm256_set1_ps(1.0 - beta1);
            let b2 = _mm256_set1_ps(beta2);
            let ob2 = _mm256_set1_ps(1.0 - beta2);
            let ibc1 = _mm256_set1_ps(1.0 / bc1);
            let ibc2 = _mm256_set1_ps(1.0 / bc2);
            let epsv = _mm256_set1_ps(eps);
            let lrv = _mm256_set1_ps(-lr);
            let dv = _mm256_set1_ps(decay);
            let chunks = g.len() / 8;
            for c in 0..chunks {
                let pg = g.as_ptr().add(c * 8);
                let pm = m.as_mut_ptr().add(c * 8);
                let pv = v.as_mut_ptr().add(c * 8);
                let pw = w.as_mut_ptr().add(c * 8);
                let gv = _mm256_loadu_ps(pg);
                let mv = _mm256_fmadd_ps(b1, _mm256_loadu_ps(pm), _mm256_mul_ps(ob1, gv));
                let vv = _mm256_fmadd_ps(
                    b2,
                    _mm256_loadu_ps(pv),
                    _mm256_mul_ps(_mm256_mul_ps(ob2, gv), gv),
                );
                _mm256_storeu_ps(pm, mv);
                _mm256_storeu_ps(pv, vv);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(_mm256_mul_ps(vv, ibc2)), epsv);
                let u = _mm256_div_ps(_mm256_mul_ps(mv, ibc1), denom);
                let wv = _mm256_fmadd_ps(_mm256_loadu_ps(pw), dv, _mm256_mul_ps(lrv, u));
                _mm256_storeu_ps(pw, wv);
            }
            for i in chunks * 8..g.len() {
                let gv = g[i];
                let mv = beta1 * m[i] + (1.0 - beta1) * gv;
                let vv = beta2 * v[i] + (1.0 - beta2) * gv * gv;
                m[i] = mv;
                v[i] = vv;
                let u = (mv * (1.0 / bc1)) / ((vv * (1.0 / bc2)).sqrt() + eps);
                w[i] = w[i] * decay + (-lr) * u;
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemv_band(
        arow: &[f32],
        b: &[f32],
        n: usize,
        lo: usize,
        hi: usize,
        out: &mut [f32],
    ) {
        unsafe {
            let width = hi - lo;
            let chunks = width / 8;
            for (p, &av) in arow.iter().enumerate() {
                let sv = _mm256_set1_ps(av);
                let brow = b.as_ptr().add(p * n + lo);
                for c in 0..chunks {
                    let po = out.as_mut_ptr().add(c * 8);
                    let o = _mm256_loadu_ps(po);
                    _mm256_storeu_ps(po, _mm256_fmadd_ps(sv, _mm256_loadu_ps(brow.add(c * 8)), o));
                }
                for (j, o) in out.iter_mut().enumerate().skip(chunks * 8) {
                    *o += av * *brow.add(j);
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_packed32(arow: &[f32], block: &[f32], orow: &mut [f32]) {
        unsafe {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for (p, &av) in arow.iter().enumerate() {
                let sv = _mm256_set1_ps(av);
                let pb = block.as_ptr().add(p * 32);
                a0 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(pb), a0);
                a1 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(pb.add(8)), a1);
                a2 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(pb.add(16)), a2);
                a3 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(pb.add(24)), a3);
            }
            _mm256_storeu_ps(orow.as_mut_ptr(), a0);
            _mm256_storeu_ps(orow.as_mut_ptr().add(8), a1);
            _mm256_storeu_ps(orow.as_mut_ptr().add(16), a2);
            _mm256_storeu_ps(orow.as_mut_ptr().add(24), a3);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn i8_axpy(out: &mut [f32], s: f32, q: &[i8]) {
        unsafe {
            let sv = _mm256_set1_ps(s);
            let chunks = out.len() / 8;
            for c in 0..chunks {
                // 8 × i8 → i32 → f32, then FMA into the accumulator row.
                let qi = _mm_loadl_epi64(q.as_ptr().add(c * 8).cast());
                let qw = _mm256_cvtepi8_epi32(qi);
                let qf = _mm256_cvtepi32_ps(qw);
                let po = out.as_mut_ptr().add(c * 8);
                _mm256_storeu_ps(po, _mm256_fmadd_ps(sv, qf, _mm256_loadu_ps(po)));
            }
            for i in chunks * 8..out.len() {
                out[i] += s * f32::from(q[i]);
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn i8_gemv(
        x: &[f32],
        q: &[i8],
        scales: &[f32],
        cols: usize,
        group: usize,
        out: &mut [f32],
    ) {
        unsafe {
            // Group index tracked incrementally across the flat row-major
            // walk — an integer division per segment costs more than the
            // whole 8-lane inner iteration at these row widths.
            let mut g = 0usize; // group index of the row's first element
            let mut rem = 0usize; // offset of the row start within group g
            for (p, &xv) in x.iter().enumerate() {
                if xv != 0.0 {
                    let base = p * cols;
                    let mut j = 0;
                    let mut gg = g;
                    let mut seg_left = group - rem;
                    while j < cols {
                        let width = seg_left.min(cols - j);
                        let s = xv * *scales.get_unchecked(gg);
                        let sv = _mm256_set1_ps(s);
                        let qp = q.as_ptr().add(base + j);
                        let chunks = width / 8;
                        for c in 0..chunks {
                            let qi = _mm_loadl_epi64(qp.add(c * 8).cast());
                            let qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qi));
                            let po = out.as_mut_ptr().add(j + c * 8);
                            _mm256_storeu_ps(po, _mm256_fmadd_ps(sv, qf, _mm256_loadu_ps(po)));
                        }
                        for d in chunks * 8..width {
                            out[j + d] += s * f32::from(*qp.add(d));
                        }
                        j += width;
                        gg += 1;
                        seg_left = group;
                    }
                }
                rem += cols;
                while rem >= group {
                    g += 1;
                    rem -= group;
                }
            }
        }
    }

    /// Register-blocked dot-form gemv for shapes where every 64-lane column
    /// panel of every row lies inside one quantization group (caller checks
    /// `cols % 64 == 0 && group % 64 == 0`, which makes every panel's flat
    /// offset a multiple of 64 and hence group-aligned). Each panel holds
    /// its 64 partial sums in eight ymm accumulators across the whole row
    /// loop: one scale broadcast and eight convert+FMA chains per row, no
    /// per-row output loads/stores and no in-row segment walk.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn i8_gemv_panels(
        x: &[f32],
        q: &[i8],
        scales: &[f32],
        cols: usize,
        group: usize,
        out: &mut [f32],
    ) {
        unsafe {
            let rows = x.len();
            let mut jb = 0usize;
            while jb < cols {
                let mut acc = [_mm256_setzero_ps(); 8];
                // Group index of flat offset `p*cols + jb`, advanced by
                // remainder tracking instead of a division per row.
                let mut g = jb / group;
                let mut rem = jb % group;
                let mut qp = q.as_ptr().add(jb);
                for p in 0..rows {
                    let s = *x.get_unchecked(p) * *scales.get_unchecked(g);
                    let sv = _mm256_set1_ps(s);
                    for (r, a) in acc.iter_mut().enumerate() {
                        let qi = _mm_loadl_epi64(qp.add(r * 8).cast());
                        let qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qi));
                        *a = _mm256_fmadd_ps(sv, qf, *a);
                    }
                    qp = qp.add(cols);
                    rem += cols;
                    while rem >= group {
                        g += 1;
                        rem -= group;
                    }
                }
                for (r, a) in acc.iter().enumerate() {
                    let po = out.as_mut_ptr().add(jb + r * 8);
                    _mm256_storeu_ps(po, _mm256_add_ps(_mm256_loadu_ps(po), *a));
                }
                jb += 64;
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_bf16x8(p: *const u16) -> __m256 {
        unsafe {
            let half = _mm_loadu_si128(p.cast());
            let wide = _mm256_cvtepu16_epi32(half);
            _mm256_castsi256_ps(_mm256_slli_epi32(wide, 16))
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_bf16(a: &[f32], kb: &[u16]) -> f32 {
        unsafe {
            let mut acc = _mm256_setzero_ps();
            let chunks = a.len() / 8;
            for c in 0..chunks {
                let av = _mm256_loadu_ps(a.as_ptr().add(c * 8));
                let kv = load_bf16x8(kb.as_ptr().add(c * 8));
                acc = _mm256_fmadd_ps(av, kv, acc);
            }
            let mut tail = 0.0f32;
            for i in chunks * 8..a.len() {
                tail += a[i] * f32::from_bits(u32::from(kb[i]) << 16);
            }
            hsum(acc) + tail
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn attn_scores_bf16(
        q: &[f32],
        kc: &[u16],
        stride: usize,
        off: usize,
        scale: f32,
        out: &mut [f32],
    ) {
        unsafe {
            let hd = q.len();
            let chunks = hd / 8;
            for (j, o) in out.iter_mut().enumerate() {
                let kp = kc.as_ptr().add(j * stride + off);
                let mut acc = _mm256_setzero_ps();
                for c in 0..chunks {
                    acc = _mm256_fmadd_ps(
                        _mm256_loadu_ps(q.as_ptr().add(c * 8)),
                        load_bf16x8(kp.add(c * 8)),
                        acc,
                    );
                }
                let mut tail = 0.0f32;
                for (d, &qv) in q.iter().enumerate().skip(chunks * 8) {
                    tail += qv * f32::from_bits(u32::from(*kp.add(d)) << 16);
                }
                *o = (hsum(acc) + tail) * scale;
            }
        }
    }

    /// Shared structure of the f32/BF16 mixes: accumulate up to 32 output
    /// lanes in registers across the whole position loop, so each `vc`
    /// element is touched exactly once and `out` is written exactly once.
    macro_rules! attn_mix_impl {
        ($p:ident, $vc:ident, $stride:ident, $off:ident, $out:ident, $load:ident, $dec:ident) => {{
            let hd = $out.len();
            let mut base = 0usize;
            // Blocks of 32 lanes (4 accumulators), then 8, then scalar tail.
            while base + 8 <= hd {
                let width = ((hd - base) / 8).min(4) * 8;
                let mut acc = [_mm256_setzero_ps(); 4];
                let regs = width / 8;
                for (j, &pj) in $p.iter().enumerate() {
                    let sv = _mm256_set1_ps(pj);
                    let vp = $vc.as_ptr().add(j * $stride + $off + base);
                    for (r, a) in acc.iter_mut().take(regs).enumerate() {
                        *a = _mm256_fmadd_ps(sv, $load(vp.add(r * 8)), *a);
                    }
                }
                for (r, a) in acc.iter().take(regs).enumerate() {
                    let po = $out.as_mut_ptr().add(base + r * 8);
                    _mm256_storeu_ps(po, _mm256_add_ps(_mm256_loadu_ps(po), *a));
                }
                base += width;
            }
            for d in base..hd {
                let mut acc = 0.0f32;
                for (j, &pj) in $p.iter().enumerate() {
                    acc += pj * $dec($vc.as_ptr().add(j * $stride + $off + d));
                }
                $out[d] += acc;
            }
        }};
    }

    #[inline]
    unsafe fn decode_elem(p: *const f32) -> f32 {
        unsafe { *p }
    }

    #[inline]
    unsafe fn decode_elem_bf16(p: *const u16) -> f32 {
        unsafe { f32::from_bits(u32::from(*p) << 16) }
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_f32x8(p: *const f32) -> __m256 {
        unsafe { _mm256_loadu_ps(p) }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn attn_mix(p: &[f32], vc: &[f32], stride: usize, off: usize, out: &mut [f32]) {
        unsafe { attn_mix_impl!(p, vc, stride, off, out, load_f32x8, decode_elem) }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn attn_mix_bf16(p: &[f32], vc: &[u16], stride: usize, off: usize, out: &mut [f32]) {
        unsafe { attn_mix_impl!(p, vc, stride, off, out, load_bf16x8, decode_elem_bf16) }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_bf16(out: &mut [f32], s: f32, vb: &[u16]) {
        unsafe {
            let sv = _mm256_set1_ps(s);
            let chunks = out.len() / 8;
            for c in 0..chunks {
                let vv = load_bf16x8(vb.as_ptr().add(c * 8));
                let po = out.as_mut_ptr().add(c * 8);
                _mm256_storeu_ps(po, _mm256_fmadd_ps(sv, vv, _mm256_loadu_ps(po)));
            }
            for i in chunks * 8..out.len() {
                out[i] += s * f32::from_bits(u32::from(vb[i]) << 16);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn randvec(n: usize, rng: &mut Rng) -> Vec<f32> {
        (0..n).map(|_| rng.gauss()).collect()
    }

    fn rel_err(a: f32, b: f32) -> f32 {
        (a - b).abs() / b.abs().max(1e-6)
    }

    #[test]
    fn dot_matches_reference_within_tolerance() {
        let mut rng = Rng::seed_from_u64(11);
        for n in [0usize, 1, 7, 8, 16, 33, 257] {
            let a = randvec(n, &mut rng);
            let b = randvec(n, &mut rng);
            let exact: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| f64::from(x) * f64::from(y))
                .sum();
            let fast = dot(&a, &b);
            assert!(
                (f64::from(fast) - exact).abs() <= 1e-4 * exact.abs().max(1.0),
                "n={n}: {fast} vs {exact}"
            );
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
            let q: Vec<i8> = (0..n).map(|_| (rng.gauss() * 40.0) as i8).collect();
            let mut out = vec![0.0f32; n];
            i8_axpy(&mut out, 0.25, &q);
            for (o, &qv) in out.iter().zip(&q) {
                assert_eq!(*o, 0.25 * f32::from(qv));
            }

            let x = randvec(n, &mut rng);
            let kb: Vec<u16> = x.iter().map(|&v| (v.to_bits() >> 16) as u16).collect();
            let want: f32 = x
                .iter()
                .zip(&kb)
                .map(|(&a, &k)| a * f32::from_bits(u32::from(k) << 16))
                .sum();
            let got = dot_bf16(&x, &kb);
            assert!((got - want).abs() <= 1e-3 * want.abs().max(1.0));
        }
    }

    #[test]
    fn i8_gemv_matches_reference_on_panel_and_ragged_shapes() {
        let mut rng = Rng::seed_from_u64(15);
        // (rows, cols, group): first three hit the register-blocked panel
        // path (cols and group both multiples of 64), the rest the general
        // segment walk (ragged widths, groups crossing row boundaries).
        for (rows, cols, group) in [
            (64usize, 64usize, 128usize),
            (172, 64, 128),
            (64, 512, 64),
            (64, 172, 128),
            (5, 13, 7),
        ] {
            let x = randvec(rows, &mut rng);
            let q: Vec<i8> = (0..rows * cols)
                .map(|_| (rng.gauss() * 40.0) as i8)
                .collect();
            let scales: Vec<f32> = (0..(rows * cols).div_ceil(group))
                .map(|_| rng.gauss().abs() * 0.1 + 0.01)
                .collect();
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
            let kb: Vec<u16> = kc.iter().map(|&v| (v.to_bits() >> 16) as u16).collect();
            let scale = 0.25f32;

            let mut scores_b = vec![0.0f32; n_pos];
            attn_scores_bf16(&q, &kb, stride, off, scale, &mut scores_b);
            for (j, &got) in scores_b.iter().enumerate() {
                let want: f32 = (0..hd)
                    .map(|d| q[d] * f32::from_bits(u32::from(kb[j * stride + off + d]) << 16))
                    .sum::<f32>()
                    * scale;
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "bf16 j={j}"
                );
            }

            let p = randvec(n_pos, &mut rng);
            let mut mixed = vec![1.0f32; hd];
            attn_mix(&p, &kc, stride, off, &mut mixed);
            for d in 0..hd {
                let want: f64 = 1.0
                    + (0..n_pos)
                        .map(|j| f64::from(p[j]) * f64::from(kc[j * stride + off + d]))
                        .sum::<f64>();
                assert!(
                    (f64::from(mixed[d]) - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "d={d}"
                );
            }
            let mut mixed_b = vec![0.0f32; hd];
            attn_mix_bf16(&p, &kb, stride, off, &mut mixed_b);
            for d in 0..hd {
                let want: f64 = (0..n_pos)
                    .map(|j| {
                        f64::from(p[j])
                            * f64::from(f32::from_bits(u32::from(kb[j * stride + off + d]) << 16))
                    })
                    .sum();
                assert!(
                    (f64::from(mixed_b[d]) - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "bf16 d={d}"
                );
            }
        }
    }

    #[test]
    fn gemv_band_matches_exact_band() {
        let mut rng = Rng::seed_from_u64(13);
        let (k, n) = (37, 53);
        let a = randvec(k, &mut rng);
        let b = randvec(k * n, &mut rng);
        let mut fast = vec![0.0f32; n];
        gemv_band(&a, &b, n, 0, n, &mut fast);
        for j in 0..n {
            let exact: f64 = (0..k)
                .map(|p| f64::from(a[p]) * f64::from(b[p * n + j]))
                .sum();
            assert!(
                (f64::from(fast[j]) - exact).abs() <= 1e-4 * exact.abs().max(1.0),
                "col {j}"
            );
        }
    }
}
