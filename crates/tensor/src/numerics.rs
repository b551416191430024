//! The one-shot CPU probes the kernels dispatch on.
//!
//! Which arithmetic a kernel runs is never a process setting: the exact
//! kernels (`matmul.rs`, `fused.rs`) serve dense f32 weights, the relaxed
//! 8-lane kernels (`crate::simd`) serve the INT8-weight / BF16-cache decode
//! backend, and the caller's types pick between them. What *is* decided per
//! process, once, is how wide those kernels run on this CPU: [`simd_tier`]
//! for the relaxed kernels' lane type, `avx512f` for the exact GEMM's
//! 16-lane tile. Both are probed at run time, so a baseline build reaches
//! the wide code too and no bit depends on `target-cpu`.

use std::sync::OnceLock;

/// Which SIMD instruction tier the relaxed kernels dispatch to on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// The kernels over `__m256`: AVX2 + FMA `std::arch` intrinsics.
    Avx2,
    /// The same kernels over `[f32; 8]`: no FMA, whatever the compiler
    /// makes of array arithmetic on the build's target.
    Portable,
}

impl SimdTier {
    /// Stable lowercase name (obs counters, bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Avx2 => "avx2",
            SimdTier::Portable => "portable",
        }
    }
}

/// The runtime-detected SIMD tier, probed exactly once per process.
///
/// Caching matters beyond speed: a single cached answer guarantees every
/// relaxed kernel in a run uses the same tier, and lets a run record which
/// tier actually produced its numbers (so AVX2 results are never silently
/// compared against portable-fallback results from another host).
pub fn simd_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(detect_tier)
}

#[cfg(target_arch = "x86_64")]
fn detect_tier() -> SimdTier {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        SimdTier::Avx2
    } else {
        SimdTier::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_tier() -> SimdTier {
    SimdTier::Portable
}

/// Whether this CPU has AVX-512F, for the exact tier's 16-lane register
/// tile (`matmul.rs`). Probed at run time like [`simd_tier`] and for the
/// same reasons — a baseline build reaches the wide tile too, and no bit
/// depends on `target-cpu` — and cached by the standard library, so every
/// call in a run answers alike. It is not a [`SimdTier`]: the relaxed
/// kernels have no 16-lane instantiation and that enum names theirs.
pub(crate) fn avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_tier_is_stable() {
        // Two probes must agree — the OnceLock guarantees one detection.
        assert_eq!(simd_tier(), simd_tier());
        assert!(matches!(simd_tier().name(), "avx2" | "portable"));
    }
}
