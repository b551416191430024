//! The numerics-mode switch: bit-exact kernels vs. the relaxed SIMD tier.
//!
//! Every kernel in this crate honors a process-wide [`NumericsMode`]:
//!
//! - [`NumericsMode::Exact`] (the default everywhere) keeps the bitwise
//!   contract documented in `matmul.rs` and `fused.rs`: strict ascending
//!   single-accumulator reductions, no reassociation, no FMA — results are
//!   bit-identical to the staged references at any thread count. All
//!   equality tests, checkpoints, and DDP replica invariance run in this
//!   mode.
//! - [`NumericsMode::Fast`] opts into the explicit-SIMD tier
//!   (`crate::simd`): 8-lane reassociated reductions, each kernel one body
//!   that runs on `__m256` with FMA where the CPU has AVX2 and on a plain
//!   `[f32; 8]` otherwise. Fast-mode results are *not* bitwise
//!   reproducible against exact mode; they are held to the documented
//!   relative-error tolerances pinned by `tensor/tests/fast_numerics.rs`
//!   (see DESIGN.md "Numerics modes").
//!
//! The mode resolves per *calling* thread, mirroring the thread-count
//! override in `matmul.rs`: a thread-local override (tests sweeping both
//! modes in-process) wins over the process default set by the CLI
//! (`--numerics fast`), which wins over the `APOLLO_NUMERICS` environment
//! variable, which defaults to `Exact`. Worker-pool tasks inherit the
//! decision made at kernel entry on the issuing thread, so a single kernel
//! call never mixes tiers across bands.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which numerical contract the kernels run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericsMode {
    /// Bit-identical to the staged references (the default).
    Exact,
    /// Relaxed: SIMD/FMA kernels with reassociated reductions, held to
    /// documented relative-error tolerances instead of bit equality.
    Fast,
}

impl NumericsMode {
    /// Stable lowercase name (CLI values, bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            NumericsMode::Exact => "exact",
            NumericsMode::Fast => "fast",
        }
    }

    /// Parses a CLI/env spelling. Accepts `exact` / `fast`
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<NumericsMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "exact" => Some(NumericsMode::Exact),
            "fast" => Some(NumericsMode::Fast),
            _ => None,
        }
    }
}

/// Process-wide default: 0 = unset (fall through to env), 1 = exact,
/// 2 = fast.
static DEFAULT_MODE: AtomicU8 = AtomicU8::new(0);

fn env_mode() -> NumericsMode {
    static ENV: OnceLock<NumericsMode> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("APOLLO_NUMERICS")
            .ok()
            .as_deref()
            .and_then(NumericsMode::parse)
            .unwrap_or(NumericsMode::Exact)
    })
}

std::thread_local! {
    /// Per-thread override so tests can compare both modes within one
    /// process without racing other test threads on the global default.
    static MODE_OVERRIDE: std::cell::Cell<Option<NumericsMode>> =
        const { std::cell::Cell::new(None) };
}

/// Sets the process-wide default numerics mode (the CLI `--numerics`
/// entry point). Threads started afterwards — worker pools, the serving
/// scheduler — observe the new default.
pub fn set_numerics_default(mode: NumericsMode) {
    let v = match mode {
        NumericsMode::Exact => 1,
        NumericsMode::Fast => 2,
    };
    DEFAULT_MODE.store(v, Ordering::Relaxed);
}

/// Overrides the numerics mode for kernels issued *from the calling
/// thread* (`None` restores the process default / env behaviour). Used by
/// tests and benches that sweep both modes in-process.
pub fn set_numerics_override(mode: Option<NumericsMode>) {
    MODE_OVERRIDE.with(|c| c.set(mode));
}

/// The numerics mode kernels issued from the calling thread will use:
/// thread override, else process default ([`set_numerics_default`]), else
/// `APOLLO_NUMERICS`, else [`NumericsMode::Exact`].
pub fn current_numerics() -> NumericsMode {
    if let Some(m) = MODE_OVERRIDE.with(|c| c.get()) {
        return m;
    }
    match DEFAULT_MODE.load(Ordering::Relaxed) {
        1 => NumericsMode::Exact,
        2 => NumericsMode::Fast,
        _ => env_mode(),
    }
}

/// Whether kernels issued from the calling thread run the relaxed SIMD tier.
/// Kernels ask once at entry, on the issuing thread, so a single call never
/// mixes tiers across pool bands.
pub(crate) fn fast() -> bool {
    current_numerics() == NumericsMode::Fast
}

/// Which SIMD instruction tier the fast kernels dispatch to on this host.
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
/// fast-mode kernel in a run uses the same tier, and lets the bench
/// harness record which tier actually produced its numbers (so AVX2
/// results are never silently compared against portable-fallback results
/// from another host).
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
    fn exact_is_the_default() {
        // The test binary never sets the process default, and this test
        // thread sets no override, so the resolved mode is Exact (the CI
        // environment never exports APOLLO_NUMERICS).
        set_numerics_override(None);
        assert_eq!(current_numerics(), NumericsMode::Exact);
    }

    #[test]
    fn override_wins_and_restores() {
        set_numerics_override(Some(NumericsMode::Fast));
        assert_eq!(current_numerics(), NumericsMode::Fast);
        set_numerics_override(None);
        assert_eq!(current_numerics(), NumericsMode::Exact);
    }

    #[test]
    fn parse_round_trips() {
        for m in [NumericsMode::Exact, NumericsMode::Fast] {
            assert_eq!(NumericsMode::parse(m.name()), Some(m));
        }
        assert_eq!(NumericsMode::parse("FAST"), Some(NumericsMode::Fast));
        assert_eq!(NumericsMode::parse("fastest"), None);
    }

    #[test]
    fn simd_tier_is_stable() {
        // Two probes must agree — the OnceLock guarantees one detection.
        assert_eq!(simd_tier(), simd_tier());
        assert!(matches!(simd_tier().name(), "avx2" | "portable"));
    }
}
