//! Summary statistics the report is built from: nearest-rank percentiles
//! that refuse to extrapolate, a plain median for small sets, and the FNV
//! fingerprint used to diff outputs between two commits.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the figure is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` ascending (NaN-free input assumed: every caller
/// feeds wall-clock durations).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    v
}

/// Nearest-rank percentile `p` (1..=99) of an ascending slice, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    assert!((1..=99).contains(&p), "percentile out of range");
    let n = sorted.len();
    let rank = (n * p as usize).div_ceil(100).max(1);
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Nearest-rank percentile with no sample-size rule, for use inside the
/// blocks of [`block_median`] (the pooled sample is what the rule applies to).
pub fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// `f` over each consecutive whole block of `block` samples, and the median
/// of those: the box is shared, and a burst of host noise then lands in one
/// block instead of in the figure. Falls back to `f(samples)` when there is
/// not even one whole block.
pub fn block_median(samples: &[f64], block: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let per_block: Vec<f64> = samples.chunks_exact(block).map(&f).collect();
    if per_block.is_empty() {
        f(samples)
    } else {
        median(&per_block)
    }
}

/// Samples per second of a serial loop from its per-sample times (ms),
/// block-wise: the median block's rate.
pub fn block_rate_per_s(times_ms: &[f64], block: usize) -> f64 {
    block_median(times_ms, block, |b| {
        b.len() as f64 * 1e3 / b.iter().sum::<f64>()
    })
}

/// Median of a small set (set-up repeats, probe repeats) where the
/// ten-beyond rule cannot apply. Mean of the two middle values when even.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// p50 by the strict rule when the sample supports it, else the plain
/// median. Used for replayed kernels, whose repeat count is small and fixed.
pub fn p50(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50).unwrap_or_else(|| median(xs))
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u32s(&mut self, xs: &[u32]) {
        for x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    pub fn f32_bits(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_count() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(50.0));
        assert_eq!(percentile(&xs, 90), Some(90.0));
        // p95 of 100 leaves 5 beyond, p99 leaves 1: both refused.
        assert_eq!(percentile(&xs, 95), None);
        assert_eq!(percentile(&xs, 99), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        // rank 990 of 999 leaves 9 beyond.
        assert_eq!(percentile(&short, 99), None);
        assert_eq!(percentile(&short, 95), Some(950.0));
        // The median obeys the same rule: 19 samples leave 9 beyond rank 10.
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 50), None);
        assert_eq!(p50(&nineteen), 10.0);
    }

    #[test]
    fn block_median_ignores_a_burst() {
        // 100 samples of 10 ms with a burst of fifteen disturbed to 50 ms.
        let mut xs = vec![10.0; 100];
        for x in &mut xs[30..45] {
            *x = 50.0;
        }
        assert_eq!(block_rate_per_s(&xs, 10), 100.0);
        let p90 = |b: &[f64]| nearest_rank(&sorted(b), 90);
        assert_eq!(block_median(&xs, 20, p90), 10.0);
        // The pooled figures both move.
        assert_eq!(percentile(&sorted(&xs), 90), Some(50.0));
        assert!(100.0 * 1e3 / xs.iter().sum::<f64>() < 75.0);
        // Fewer samples than one block: the plain figure.
        assert_eq!(block_median(&xs[..5], 20, p90), 10.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
