//! The Norm-growth Limiter of Eq. 4 (adopted from Fira).

use apollo_tensor::Matrix;

/// What [`NormGrowthLimiter::apply`] did to the update.
///
/// `NonFinite` is the signal the training-loop step sentinel acts on: the
/// update (and therefore its norm) contains NaN/Inf, the limiter left it
/// untouched, and — crucially — did **not** record the poisoned norm, so
/// one bad step can no longer disable the limiter for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimiterOutcome {
    /// Norm growth within γ; update passed through, norm recorded.
    Passed,
    /// Update rescaled down to γ·previous-norm; clamped norm recorded.
    Clamped,
    /// Update norm is NaN/Inf; nothing recorded, update left as-is.
    NonFinite,
}

/// Limits the step-to-step growth of the scaled gradient norm:
///
/// ```text
/// if ‖G̃_t‖ / ‖G̃_{t−1}‖ > γ:   G̃_t ← G̃_t / ‖G̃_t‖ · γ‖G̃_{t−1}‖
/// ```
///
/// The paper uses this in place of vanilla gradient clipping to suppress the
/// early-training loss spikes of structured learning-rate adaptation
/// (Fig. 3), with γ = 1.01 by default. The single stored scalar per tensor
/// is one of the "+2" constants in Table 1's APOLLO state count.
#[derive(Debug, Clone)]
pub struct NormGrowthLimiter {
    gamma: f32,
    prev_norm: Option<f32>,
}

impl NormGrowthLimiter {
    /// Creates a limiter with growth threshold `gamma` (> 1).
    ///
    /// # Panics
    ///
    /// Panics if `gamma <= 1.0`.
    pub fn new(gamma: f32) -> Self {
        assert!(gamma > 1.0, "gamma must exceed 1");
        NormGrowthLimiter {
            gamma,
            prev_norm: None,
        }
    }

    /// The paper's default (γ = 1.01).
    pub fn paper_default() -> Self {
        Self::new(1.01)
    }

    /// Clamps `update` in place if its norm grew more than γ× since the
    /// previous call; records the (post-clamp) norm for the next step.
    ///
    /// A non-finite norm (NaN/Inf gradients upstream) is never recorded:
    /// recording it would poison `prev_norm` and permanently disable
    /// clamping (every later comparison against NaN is false). Instead the
    /// update is left untouched and [`LimiterOutcome::NonFinite`] is
    /// returned for the caller's recovery policy to act on.
    pub fn apply(&mut self, update: &mut Matrix) -> LimiterOutcome {
        let (outcome, factor) = self.admit(update.fro_norm());
        if outcome == LimiterOutcome::Clamped {
            update.scale_assign(factor);
        }
        outcome
    }

    /// The limiter's decision from the update's norm alone: records the
    /// (post-clamp) norm and returns the factor the update must be
    /// multiplied by — `γ·prev/norm` when clamped, exactly `1.0` otherwise.
    /// For callers that never materialise the update (the fused APOLLO
    /// scale-and-apply folds the factor into its weight write).
    pub fn admit(&mut self, norm: f32) -> (LimiterOutcome, f32) {
        if !norm.is_finite() {
            return (LimiterOutcome::NonFinite, 1.0);
        }
        match self.prev_norm {
            Some(prev) if prev > 0.0 && norm > self.gamma * prev => {
                self.prev_norm = Some(self.gamma * prev);
                (LimiterOutcome::Clamped, self.gamma * prev / norm)
            }
            _ => {
                self.prev_norm = Some(norm);
                (LimiterOutcome::Passed, 1.0)
            }
        }
    }

    /// Resets the history (used when a training run restarts).
    pub fn reset(&mut self) {
        self.prev_norm = None;
    }

    /// The growth threshold γ.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// The recorded previous norm (checkpointing).
    pub fn prev_norm(&self) -> Option<f32> {
        self.prev_norm
    }

    /// Restores the recorded norm from a checkpoint. Non-finite values are
    /// discarded rather than installed, preserving the `apply` invariant.
    pub fn set_prev_norm(&mut self, prev_norm: Option<f32>) {
        self.prev_norm = prev_norm.filter(|n| n.is_finite());
    }

    pub(crate) fn save_into(&self, w: &mut crate::state::StateWriter) {
        w.f32(self.gamma);
        w.opt(self.prev_norm, crate::state::StateWriter::f32);
    }

    pub(crate) fn load_from(r: &mut crate::state::StateReader<'_>) -> Result<Self, String> {
        let gamma = r.f32()?;
        if !gamma.is_finite() || gamma <= 1.0 {
            return Err(format!("limiter gamma {gamma} must exceed 1"));
        }
        let mut limiter = NormGrowthLimiter::new(gamma);
        limiter.set_prev_norm(r.opt(crate::state::StateReader::f32)?);
        Ok(limiter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_never_clamps() {
        let mut l = NormGrowthLimiter::new(1.01);
        let mut u = Matrix::full(2, 2, 100.0);
        assert_eq!(l.apply(&mut u), LimiterOutcome::Passed);
        assert_eq!(u.get(0, 0), 100.0);
    }

    #[test]
    fn growth_beyond_gamma_is_clamped_to_gamma() {
        let mut l = NormGrowthLimiter::new(1.01);
        let mut u1 = Matrix::full(1, 4, 1.0); // norm 2
        l.apply(&mut u1);
        let mut u2 = Matrix::full(1, 4, 10.0); // norm 20 ≫ 1.01·2
        assert_eq!(l.apply(&mut u2), LimiterOutcome::Clamped);
        let expect = 1.01 * 2.0;
        assert!((u2.fro_norm() - expect).abs() < 1e-4, "{}", u2.fro_norm());
    }

    #[test]
    fn shrinking_or_mild_growth_passes_through() {
        let mut l = NormGrowthLimiter::new(1.5);
        let mut u1 = Matrix::full(1, 1, 4.0);
        l.apply(&mut u1);
        let mut u2 = Matrix::full(1, 1, 5.0); // ratio 1.25 < 1.5
        assert_eq!(l.apply(&mut u2), LimiterOutcome::Passed);
        assert_eq!(u2.get(0, 0), 5.0);
        let mut u3 = Matrix::full(1, 1, 1.0);
        assert_eq!(l.apply(&mut u3), LimiterOutcome::Passed);
    }

    #[test]
    fn repeated_spikes_grow_at_most_geometrically() {
        let mut l = NormGrowthLimiter::new(1.01);
        let mut first = Matrix::full(1, 1, 1.0);
        l.apply(&mut first);
        let mut norm = 1.0f32;
        for _ in 0..10 {
            let mut u = Matrix::full(1, 1, 1000.0);
            l.apply(&mut u);
            norm = u.fro_norm();
        }
        // After 10 clamped steps: at most 1.01^10.
        assert!(norm <= 1.01f32.powi(10) + 1e-4, "{norm}");
    }

    #[test]
    #[should_panic(expected = "gamma must exceed 1")]
    fn rejects_gamma_below_one() {
        let _ = NormGrowthLimiter::new(0.9);
    }

    #[test]
    fn reset_forgets_history() {
        let mut l = NormGrowthLimiter::new(1.01);
        let mut u = Matrix::full(1, 1, 1.0);
        l.apply(&mut u);
        l.reset();
        let mut big = Matrix::full(1, 1, 100.0);
        assert_eq!(
            l.apply(&mut big),
            LimiterOutcome::Passed,
            "post-reset first step must not clamp"
        );
    }

    #[test]
    fn non_finite_norm_is_reported_and_never_recorded() {
        let mut l = NormGrowthLimiter::new(1.01);
        let mut u1 = Matrix::full(1, 1, 2.0);
        l.apply(&mut u1);
        assert_eq!(l.prev_norm(), Some(2.0));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = Matrix::full(1, 1, bad);
            assert_eq!(l.apply(&mut poisoned), LimiterOutcome::NonFinite);
            // Update untouched: the caller's recovery policy decides.
            assert_eq!(poisoned.get(0, 0).to_bits(), bad.to_bits());
            // History untouched: clamping still works afterwards.
            assert_eq!(l.prev_norm(), Some(2.0));
        }
        let mut spike = Matrix::full(1, 1, 100.0);
        assert_eq!(
            l.apply(&mut spike),
            LimiterOutcome::Clamped,
            "limiter must stay armed after a non-finite step"
        );
    }

    #[test]
    fn set_prev_norm_discards_non_finite() {
        let mut l = NormGrowthLimiter::new(1.01);
        l.set_prev_norm(Some(f32::NAN));
        assert_eq!(l.prev_norm(), None);
        l.set_prev_norm(Some(3.0));
        assert_eq!(l.prev_norm(), Some(3.0));
    }
}
