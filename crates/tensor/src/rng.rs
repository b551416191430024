//! Deterministic pseudo-random number generation.
//!
//! APOLLO's headline memory trick is that the projection matrix `P` is never
//! stored: only a 64-bit seed is kept, and `P` is regenerated on demand from
//! that seed (Algorithm 1, "Step 1") — on every optimizer step, so the
//! regeneration has to cost bandwidth, not a libm call per element. Two
//! generators live here, both implemented in-crate so no external crate's
//! stream can change under a stored seed:
//!
//! - [`Rng`], a sequential xoshiro256++ with a splitmix64 seeder, for weight
//!   init, data and everything else that draws once;
//! - [`fill_normal`], a counter-based normal stream — element `i` is a pure
//!   function of `(seed, i)` — which is what `P` is drawn from.

/// A seedable xoshiro256++ pseudo-random number generator.
///
/// Streams are stable across platforms and releases of this crate: the same
/// seed always regenerates the same projection matrix, which the APOLLO
/// optimizer relies on for correctness of its seed-only state.
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    spare_gauss: Option<f32>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The full 256-bit state is expanded with splitmix64, which guarantees a
    /// non-zero state for every seed (including zero).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_gauss: None,
        }
    }

    /// Returns the next 64 uniformly random bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f32` in `[0, 1)` with 24 bits of randomness.
    pub fn uniform(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Returns a uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform_in: empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Returns a uniform integer in `[0, n)` via rejection-free Lemire
    /// reduction (bias is negligible for the ranges used here).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below: n must be positive");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Returns a standard-normal sample via the Box-Muller transform.
    pub fn gauss(&mut self) -> f32 {
        if let Some(z) = self.spare_gauss.take() {
            return z;
        }
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = core::f32::consts::TAU * u2;
        self.spare_gauss = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Returns a normal sample with the given mean and standard deviation.
    pub fn gauss_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.gauss()
    }

    /// Derives an independent child generator; used to give each weight
    /// matrix / data shard its own reproducible stream.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }

    /// Captures the full generator state for checkpointing: the 256-bit
    /// xoshiro state plus the cached Box-Muller spare (bit-preserved).
    pub fn state(&self) -> ([u64; 4], Option<u32>) {
        (self.s, self.spare_gauss.map(f32::to_bits))
    }

    /// Rebuilds a generator from a [`Rng::state`] capture, continuing the
    /// stream bit-exactly where it left off.
    pub fn from_state(s: [u64; 4], spare_gauss_bits: Option<u32>) -> Self {
        Rng {
            s,
            spare_gauss: spare_gauss_bits.map(f32::from_bits),
        }
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

// ----- counter-based normal draw ---------------------------------------------

/// Pairs per block of the counter-based draw: one block is `LANES` Box–Muller
/// pairs, i.e. `2·LANES` consecutive normals. Part of the draw's definition
/// (it fixes which counter an index reads), not a tuning knob.
const LANES: usize = 8;
const BLOCK: usize = 2 * LANES;

/// Wellons' `triple32` integer hash: a bijection of `u32` built from
/// 32-bit multiplies and xor-shifts only, so eight of them run per AVX2
/// instruction (a 64-bit multiply has no vector form there).
#[inline(always)]
fn triple32(mut x: u32) -> u32 {
    x ^= x >> 17;
    x = x.wrapping_mul(0xed5a_d4bb);
    x ^= x >> 11;
    x = x.wrapping_mul(0xac4c_1b51);
    x ^= x >> 15;
    x = x.wrapping_mul(0x3184_8bab);
    x ^ (x >> 14)
}

/// `ln(k · 2⁻²⁴)` for an integer `k ∈ [1, 2²⁴]`, i.e. the log of a uniform
/// in `(0, 1]`: the Cephes `logf` polynomial on the mantissa reduced to
/// `[√½, √2)`, in plain `f32` multiplies and adds. Exactly `0` at `k = 2²⁴`
/// and negative below it, so `−2·ln` never goes negative under the root.
#[inline(always)]
fn ln_unit(k: u32) -> f32 {
    // `k` converts exactly; its exponent field is ⌊log₂ k⌋ ∈ [0, 24].
    let bits = (k as i32 as f32).to_bits();
    let mut e = (bits >> 23) as i32 - (127 + 24);
    let mut m = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000);
    if m > core::f32::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let x = m - 1.0;
    let z = x * x;
    let mut y = 7.037_683_6e-2;
    y = y * x - 1.151_461e-1;
    y = y * x + 1.167_699_84e-1;
    y = y * x - 1.242_014_1e-1;
    y = y * x + 1.424_932_3e-1;
    y = y * x - 1.666_805_7e-1;
    y = y * x + 2.000_071_4e-1;
    y = y * x - 2.499_999_4e-1;
    y = y * x + 3.333_333e-1;
    y = y * x * z;
    let e = e as f32;
    // ln 2 split as 355/512 − 2.12194440e-4 so `e · 355/512` is exact.
    y += -2.121_944_4e-4 * e;
    y += -0.5 * z;
    (x + y) + (355.0 / 512.0) * e
}

/// `(cos θ, sin θ)` for one of 2²⁴ equally spaced angles: the top two bits
/// of `k` pick the quadrant, the low 22 a centred offset `φ ∈ (−π/4, π/4)`
/// evaluated with the Cephes `sinf`/`cosf` polynomials, and the quadrant
/// rotation is a swap and two sign flips — no range reduction, no libm.
#[inline(always)]
fn cos_sin_unit(k: u32) -> (f32, f32) {
    let q = k >> 22;
    // (frac + ½ − 2²¹) is exact in f32; the grid never lands on 0 or ±π/4.
    let frac = (k & 0x003f_ffff) as i32 as f32;
    let phi = (frac + 0.5 - 2_097_152.0) * (core::f32::consts::FRAC_PI_2 / 4_194_304.0);
    let z = phi * phi;
    let s = ((-1.951_529_6e-4 * z + 8.332_161e-3) * z - 1.666_665_5e-1) * z * phi + phi;
    let c = ((2.443_315_7e-5 * z - 1.388_731_6e-3) * z + 4.166_664_6e-2) * z * z - 0.5 * z + 1.0;
    let (a, b) = if q & 1 == 1 { (s, c) } else { (c, s) };
    // cos is negative in quadrants 1 and 2, sin in 2 and 3.
    let cos = f32::from_bits(a.to_bits() ^ (((q + 1) & 2) << 30));
    let sin = f32::from_bits(b.to_bits() ^ ((q & 2) << 30));
    (cos, sin)
}

/// A stream of normals that is a pure function of `(seed, index)`: no
/// generator state is threaded from one element to the next, so any range
/// can be drawn on its own and a block of lanes draws independently.
///
/// Index `i` lives in block `i / 16`; lane `i % 8` of that block reads pair
/// counter `c = 8·(i / 16) + i % 8` (taken mod 2³², so the stream repeats
/// after 2³³ normals) and returns the Box–Muller cosine branch in the
/// block's first eight slots, the sine branch in its last eight:
/// `h₁ = triple32(c ⊕ k₀)`, `h₂ = triple32(h₁ + k₁)` with `(k₀, k₁)` the
/// two halves of `splitmix64(seed)`; `u₁ = ((h₁ ≫ 8) + 1)·2⁻²⁴ ∈ (0, 1]`,
/// the angle is `h₂ ≫ 8`; `z = (√(−2 ln u₁) · std) · {cos, sin}`.
#[derive(Clone, Copy)]
struct CounterNormal {
    k0: u32,
    k1: u32,
    std: f32,
}

impl CounterNormal {
    fn new(seed: u64, std: f32) -> Self {
        let mut sm = seed;
        let k = splitmix64(&mut sm);
        CounterNormal {
            k0: k as u32,
            k1: (k >> 32) as u32,
            std,
        }
    }

    /// Both Box–Muller outputs of pair counter `c`.
    #[inline(always)]
    fn pair(self, c: u32) -> (f32, f32) {
        let h1 = triple32(c ^ self.k0);
        let h2 = triple32(h1.wrapping_add(self.k1));
        let radius = (-2.0 * ln_unit((h1 >> 8) + 1)).sqrt() * self.std;
        let (cos, sin) = cos_sin_unit(h2 >> 8);
        (radius * cos, radius * sin)
    }

    /// The element at flat `index`, one at a time — the definition the
    /// block fill must reproduce, and the ragged ends of a fill.
    fn at(self, index: usize) -> f32 {
        let c = (index / BLOCK * LANES + index % LANES) as u32;
        let (cos, sin) = self.pair(c);
        if index % BLOCK < LANES {
            cos
        } else {
            sin
        }
    }

    /// One whole block. Every lane is the same straight-line integer and
    /// `f32` arithmetic with selects for branches, so the fixed-trip loop
    /// compiles to vector code at whatever width the target has.
    #[inline]
    fn block(self, block: usize, out: &mut [f32]) {
        let (cos_out, sin_out) = out.split_at_mut(LANES);
        let base = (block * LANES) as u32;
        for (l, (co, so)) in cos_out.iter_mut().zip(sin_out).enumerate() {
            (*co, *so) = self.pair(base.wrapping_add(l as u32));
        }
    }
}

/// Fills `out` with elements `first..first + out.len()` of the
/// counter-based `N(0, std²)` stream of `seed` (see [`CounterNormal`] for
/// the definition). Filling a range in one call or in any split of it
/// writes the same bits, on every target and at every vector width: the
/// arithmetic is integer ops, IEEE `f32` multiply/add/sqrt and
/// fixed-coefficient polynomials, never libm and never a fused
/// multiply-add. Every element of `out` is overwritten.
///
/// This is the draw behind APOLLO's projection `P` (element `i·r + j` of
/// the `small × r` basis). Weight init and data keep [`Rng::gauss`].
pub fn fill_normal(seed: u64, first: usize, std: f32, out: &mut [f32]) {
    let gen = CounterNormal::new(seed, std);
    let head = ((BLOCK - first % BLOCK) % BLOCK).min(out.len());
    let (head_out, body) = out.split_at_mut(head);
    for (i, o) in head_out.iter_mut().enumerate() {
        *o = gen.at(first + i);
    }
    let first_block = (first + head) / BLOCK;
    let mut blocks = body.chunks_exact_mut(BLOCK);
    let mut n_blocks = 0;
    for chunk in &mut blocks {
        gen.block(first_block + n_blocks, chunk);
        n_blocks += 1;
    }
    let tail_first = (first_block + n_blocks) * BLOCK;
    for (i, o) in blocks.into_remainder().iter_mut().enumerate() {
        *o = gen.at(tail_first + i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gauss_moments_are_standard_normal() {
        let mut rng = Rng::seed_from_u64(4);
        let n = 100_000;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let z = rng.gauss() as f64;
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let k = rng.below(10);
            assert!(k < 10);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(6);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Rng::seed_from_u64(9);
        let mut a = root.fork();
        let mut b = root.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn state_roundtrip_is_bit_exact() {
        let mut rng = Rng::seed_from_u64(11);
        // Park an odd number of gauss draws so the Box-Muller spare is live.
        rng.gauss();
        let (s, spare) = rng.state();
        assert!(spare.is_some(), "spare should be cached after one draw");
        let mut restored = Rng::from_state(s, spare);
        for _ in 0..64 {
            assert_eq!(rng.gauss().to_bits(), restored.gauss().to_bits());
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    fn filled(seed: u64, first: usize, n: usize) -> Vec<u32> {
        // Poisoned, not zeroed: every element must be overwritten.
        let mut out = vec![f32::NAN; n];
        fill_normal(seed, first, 0.25, &mut out);
        out.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn counter_draw_is_random_access() {
        // One fill, any split of it, and the scalar definition agree bit for
        // bit — ragged heads, whole blocks and ragged tails included.
        let n = 5 * BLOCK + 7;
        let whole = filled(9, 0, n);
        let gen = CounterNormal::new(9, 0.25);
        let scalar: Vec<u32> = (0..n).map(|i| gen.at(i).to_bits()).collect();
        assert_eq!(
            whole, scalar,
            "block fill != scalar loop of the same formula"
        );
        for cut in [
            1,
            LANES - 1,
            LANES,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            3 * BLOCK + 5,
            n - 1,
        ] {
            let mut split = filled(9, 0, cut);
            split.extend(filled(9, cut, n - cut));
            assert_eq!(whole, split, "split at {cut}");
        }
        // A window that starts and ends inside one block.
        assert_eq!(filled(9, BLOCK + 3, 4), whole[BLOCK + 3..BLOCK + 7]);
    }

    #[test]
    fn every_radius_is_finite_and_the_polynomials_are_accurate() {
        // All 2^24 values u1 can take: ln stays <= 0 (so the root never sees
        // a negative), exactly 0 at u1 = 1, and within 2e-7 of libm.
        let mut worst = 0.0f64;
        for k in 1..=1u32 << 24 {
            let ln = ln_unit(k);
            assert!(
                ln <= 0.0 && (-2.0 * ln).sqrt().is_finite(),
                "k={k}: ln {ln}"
            );
            let want = (k as f64 / (1u64 << 24) as f64).ln();
            if k < 1 << 24 {
                worst = worst.max(((ln as f64 - want) / want).abs());
            }
        }
        assert_eq!(ln_unit(1 << 24), 0.0);
        assert!(worst < 2e-7, "ln relative error {worst}");
        // Every 64th angle of the 2^24, every quadrant.
        let mut worst = 0.0f64;
        for k in (0..1u32 << 24).step_by(64) {
            let theta = (k >> 22) as f64 * std::f64::consts::FRAC_PI_2
                + ((k & 0x003f_ffff) as f64 + 0.5 - 2_097_152.0)
                    * (std::f64::consts::FRAC_PI_2 / 4_194_304.0);
            let (cos, sin) = cos_sin_unit(k);
            worst = worst
                .max((cos as f64 - theta.cos()).abs())
                .max((sin as f64 - theta.sin()).abs());
        }
        assert!(worst < 2e-7, "sin/cos absolute error {worst}");
    }

    #[test]
    fn counter_draw_is_standard_normal_and_uncorrelated() {
        let n = 1usize << 22;
        let nf = n as f64;
        let draw = |seed: u64| {
            let mut out = vec![0.0f32; n];
            fill_normal(seed, 0, 1.0, &mut out);
            out
        };
        let a = draw(0xA90110);
        let moment = |p: i32| a.iter().map(|&x| (x as f64).powi(p)).sum::<f64>() / nf;
        let (m1, m2, m3, m4) = (moment(1), moment(2), moment(3), moment(4));
        // Four standard errors of each sample moment of N(0, 1).
        assert!(m1.abs() < 4.0 / nf.sqrt(), "mean {m1}");
        assert!((m2 - 1.0).abs() < 4.0 * (2.0 / nf).sqrt(), "variance {m2}");
        assert!(m3.abs() < 4.0 * (15.0 / nf).sqrt(), "skew {m3}");
        assert!((m4 - 3.0).abs() < 4.0 * (96.0 / nf).sqrt(), "kurtosis {m4}");
        // Tensor i draws from seed + i, and a row of P is consecutive indices.
        let b = draw(0xA90111);
        let corr = |x: &[f32], y: &[f32]| {
            x.iter()
                .zip(y)
                .map(|(&p, &q)| p as f64 * q as f64)
                .sum::<f64>()
                / nf
        };
        assert!(corr(&a, &b).abs() < 4.0 / nf.sqrt(), "seed s vs s+1");
        assert!(corr(&a, &a[1..]).abs() < 4.0 / nf.sqrt(), "lag 1");
        assert!(
            corr(&a, &a[LANES..]).abs() < 4.0 / nf.sqrt(),
            "cos vs sin branch"
        );
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut rng = Rng::seed_from_u64(0);
        // State must not be all-zero (xoshiro would then be stuck at 0).
        let outputs: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(outputs.iter().any(|&x| x != 0));
    }
}
