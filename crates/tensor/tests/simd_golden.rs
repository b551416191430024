//! Golden fingerprints of every public `simd::` kernel's output bits on the
//! AVX2 tier.
//!
//! The relaxed tier is held to tolerances against the exact loops
//! (`fast_numerics.rs`), but for one binary on one instruction tier it is
//! still deterministic, and the INT8 decode tokens the standing benchmark
//! fingerprints depend on those bits. Each row below is the FNV-1a of what
//! one kernel writes or returns over seeded inputs at ragged lengths, so a
//! refactor that changes which step is an FMA, how many accumulators a
//! reduction keeps, the order of the horizontal sum, or what a scalar tail
//! calls shows here as a changed row, not as a drifted token three crates
//! away.
//!
//! Covered: the eight kernels the INT8 / BF16 decode walk calls, which is
//! every public function of the module. The private bodies they share (the
//! `i8` axpy, the BF16 dot) are pinned through them (the ragged `i8_gemv`
//! shapes, `attn_scores_bf16`).
//!
//! The constants were recorded with `simd_tier() == SimdTier::Avx2`, before
//! the kernels were folded onto one generic body each; on any other tier the
//! bits legitimately differ (no FMA) and the test is a logged skip. They do
//! not depend on `target-cpu`: rustc never contracts or reassociates float
//! operations, and the `scripts/ci.sh` baseline-x86-64 stage runs this file
//! to hold it to that.

use apollo_tensor::{simd, simd_tier, Rng, SimdTier};

/// Lengths around every chunk boundary the kernels have: empty, below one
/// 8-lane vector, exact vectors, one over, two vectors and a long odd run.
const LENS: [usize; 11] = [0, 1, 7, 8, 9, 15, 16, 17, 24, 33, 257];

/// `(kernel, FNV-1a of its output bits over the sweep)`.
const GOLDEN: &[(&str, u64)] = &[
    ("sum_squares", 0xd9173edacce5f4a2),
    ("max_slice", 0x878e2cfe4949fe5c),
    ("scale_gain", 0xf700c9bb23bc6902),
    ("silu_mul", 0xe96de9e89dd6a667),
    ("softmax_exp_sum", 0xbe08d06e1f4d54d6),
    ("i8_gemv", 0x79179236cb121ebd),
    ("attn_scores_bf16", 0xb174c9877a575d30),
    ("attn_mix_bf16", 0x30ad6778ad16eaf5),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, values: &[f32]) {
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn randvec(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.gauss()).collect()
}

fn rand_i8(n: usize, rng: &mut Rng) -> Vec<i8> {
    (0..n).map(|_| (rng.gauss() * 40.0) as i8).collect()
}

/// BF16 payloads by truncation (rounding mode is irrelevant to a decode
/// kernel's golden).
fn rand_bf16(n: usize, rng: &mut Rng) -> Vec<u16> {
    (0..n)
        .map(|_| (rng.gauss().to_bits() >> 16) as u16)
        .collect()
}

fn sum_squares(h: &mut Fnv) {
    let mut rng = Rng::seed_from_u64(0x51D1);
    for n in LENS {
        h.push(&[simd::sum_squares(&randvec(n, &mut rng))]);
    }
}

fn max_slice(h: &mut Fnv) {
    let mut rng = Rng::seed_from_u64(0x51D2);
    for n in LENS {
        h.push(&[simd::max_slice(&randvec(n, &mut rng))]);
    }
}

fn scale_gain(h: &mut Fnv) {
    let mut rng = Rng::seed_from_u64(0x51D3);
    for n in LENS {
        let (x, gain) = (randvec(n, &mut rng), randvec(n, &mut rng));
        let mut out = vec![0.0f32; n];
        simd::scale_gain(&mut out, &x, 0.731, &gain);
        h.push(&out);
    }
}

fn silu_mul(h: &mut Fnv) {
    let mut rng = Rng::seed_from_u64(0x51D4);
    for n in LENS {
        // ±~12: both sigmoid tails and the polynomial's whole useful range.
        let a: Vec<f32> = randvec(n, &mut rng).iter().map(|v| v * 4.0).collect();
        let b = randvec(n, &mut rng);
        let mut out = vec![0.0f32; n];
        simd::silu_mul(&a, &b, &mut out);
        h.push(&out);
    }
}

fn softmax_exp_sum(h: &mut Fnv) {
    let mut rng = Rng::seed_from_u64(0x51D5);
    for n in LENS {
        let mut row: Vec<f32> = randvec(n, &mut rng).iter().map(|v| v * 5.0).collect();
        let maxv = simd::max_slice(&row);
        let sum = simd::softmax_exp_sum(&mut row, maxv);
        h.push(&row);
        h.push(&[sum]);
    }
}

fn i8_gemv(h: &mut Fnv) {
    let mut rng = Rng::seed_from_u64(0x51D9);
    // The decode shapes whose 64-lane column panels sit inside one group
    // (square projection, up-projection-like, down-projection-like), the
    // ragged 172-wide gate/up whose groups straddle rows, and a tiny shape
    // with a group shorter than a vector.
    for (rows, cols, group) in [
        (192usize, 192usize, 128usize),
        (192, 512, 128),
        (512, 192, 128),
        (192, 172, 128),
        (5, 13, 7),
    ] {
        let mut x = randvec(rows, &mut rng);
        x[3] = 0.0; // the segment walk skips exactly-zero rows
        let q = rand_i8(rows * cols, &mut rng);
        let scales: Vec<f32> = (0..(rows * cols).div_ceil(group))
            .map(|_| rng.gauss().abs() * 0.1 + 0.01)
            .collect();
        let mut out = randvec(cols, &mut rng);
        simd::i8_gemv(&x, &q, &scales, cols, group, &mut out);
        h.push(&out);
    }
}

/// `(head_dim, stride, off)`: the two decode head widths (one ragged), plus
/// widths that fill one and two 32-lane accumulator blocks of the mixes.
const HEADS: [(usize, usize, usize); 4] = [(24, 72, 24), (12, 40, 4), (40, 96, 8), (64, 192, 64)];
const POSITIONS: [usize; 3] = [0, 1, 21];

fn cache_len(n_pos: usize, hd: usize, stride: usize, off: usize) -> usize {
    if n_pos == 0 {
        0
    } else {
        (n_pos - 1) * stride + off + hd
    }
}

fn attn_scores_bf16(h: &mut Fnv) {
    let mut rng = Rng::seed_from_u64(0x51DA);
    for (hd, stride, off) in HEADS {
        for n_pos in POSITIONS {
            let q = randvec(hd, &mut rng);
            let kc = rand_bf16(cache_len(n_pos, hd, stride, off), &mut rng);
            let mut out = randvec(n_pos, &mut rng);
            simd::attn_scores_bf16(&q, &kc, stride, off, 0.204, &mut out);
            h.push(&out);
        }
    }
}

fn attn_mix_bf16(h: &mut Fnv) {
    let mut rng = Rng::seed_from_u64(0x51DC);
    for (hd, stride, off) in HEADS {
        for n_pos in POSITIONS {
            let p = randvec(n_pos, &mut rng);
            let vc = rand_bf16(cache_len(n_pos, hd, stride, off), &mut rng);
            let mut out = randvec(hd, &mut rng);
            simd::attn_mix_bf16(&p, &vc, stride, off, &mut out);
            h.push(&out);
        }
    }
}

/// Feeds one kernel's outputs over its sweep to the hash.
type Sweep = fn(&mut Fnv);

/// Every kernel of `apollo_tensor::simd` that has a caller outside it.
const KERNELS: &[(&str, Sweep)] = &[
    ("sum_squares", sum_squares),
    ("max_slice", max_slice),
    ("scale_gain", scale_gain),
    ("silu_mul", silu_mul),
    ("softmax_exp_sum", softmax_exp_sum),
    ("i8_gemv", i8_gemv),
    ("attn_scores_bf16", attn_scores_bf16),
    ("attn_mix_bf16", attn_mix_bf16),
];

#[test]
fn every_kernel_matches_its_recorded_fingerprint() {
    if simd_tier() != SimdTier::Avx2 {
        eprintln!(
            "simd_golden: skipped, constants are for the avx2 tier and this host runs {}",
            simd_tier().name()
        );
        return;
    }
    let mut mismatches = Vec::new();
    for (i, &(name, run)) in KERNELS.iter().enumerate() {
        let mut h = Fnv::new();
        run(&mut h);
        if GOLDEN.get(i) != Some(&(name, h.0)) {
            mismatches.push(format!("    (\"{name}\", {:#018x}),", h.0));
        }
    }
    assert!(
        mismatches.is_empty(),
        "rows that differ from GOLDEN:\n{}",
        mismatches.join("\n")
    );
}
