//! The paper's contribution: **APOLLO** and **APOLLO-Mini**, plus every
//! baseline optimizer they are evaluated against.
//!
//! # The idea (Sections 3-4 of the paper)
//!
//! AdamW's update `W ← W − η·M̂/(√V̂+ε)` can be rewritten as SGD with an
//! element-wise *gradient scaling factor* `S = G̃/G`. The paper shows this
//! factor can be coarsened to one scalar per **channel** (column/row along
//! the larger tensor dimension) or even per **tensor** without hurting LLM
//! training. APOLLO then estimates those coarse factors in a low-rank
//! auxiliary space: project `R = P·G` with a *random* projection
//! (`P ~ N(0, 1/r)`, regenerated from a stored seed every `T` steps), run
//! AdamW moments on `R` only, and scale the raw full-rank gradient by
//! `s_j = ‖R̃[:,j]‖/‖R[:,j]‖`. Optimizer state shrinks from `2mn` to
//! `2nr + 2`; with rank 1 and tensor-wise scaling (APOLLO-Mini) it is
//! `2n + 2` — SGD-level memory.
//!
//! # Provided optimizers
//!
//! Every Adam-family method is the one update `W ← W − η·lift(Ñ, G)` with
//! `Ñ = M̂/(√V̂+ε)`; one private per-tensor engine runs *refresh → project →
//! moments → lift → limiter → decay + axpy* for all of them, and the named
//! types are hyper-parameter structs picking a row of this matrix (state
//! per projectable `m × n` tensor, `m ≤ n`, rank `r` — Table 1):
//!
//! | Type | Moments live in | Lift | Granularity | Limiter | State |
//! |---|---|---|---|---|---|
//! | [`AdamW`] (also 8-bit) | full space | element-wise `Ñ` | element | – | `2mn` |
//! | [`AdamWChannelwise`] (Section 3, Fig. 3) | full space | scale `G·diag(s)` | channel | optional | `2mn + 1` |
//! | [`Apollo`] | `R = P·G`, random `P` | scale `α·G·diag(s)` | channel | yes | `2nr + 2` |
//! | [`Apollo::mini`] | `R = P·G`, random, `r = 1` | scale `α·s·G` | tensor | yes | `2n + 2` |
//! | [`Apollo::with_svd`] | `R = P·G`, SVD `P` | scale `α·G·diag(s)` | channel | yes | `mr + 2nr + 1` |
//! | [`GaLore`] (also 8-bit) | `R = PᵀG`, SVD `P` | project back `¼·P·Ñ` | element | – | `mr + 2nr` |
//! | [`GaLore::with_random_projection`], [`Flora`] | `R = PᵀG`, random `P` | project back `P·Ñ` | element | – | `2nr + 1` |
//! | [`Fira`] | `R = PᵀG`, SVD `P` | project back + `s ⊙ (G − P·PᵀG)` | channel (residual) | yes | `mr + 2nr + 1` |
//!
//! A random projector stores only its seed (1), an SVD one its basis
//! (`mr`), the limiter one norm (1); non-projectable tensors (norm gains,
//! embeddings) take dense AdamW under every projected method, as in the
//! official implementations. Adding a method is one more lift arm or
//! estimator space in the engine plus a constructor and a [`Method`] row —
//! not another loop.
//! [`AdamMini`] (block-wise second moments, `mn + n`) and [`Sgd`] /
//! [`SgdMomentum`] (`0` / `mn`) keep no Adam moments and stay separate.
//!
//! All optimizers implement [`Optimizer`] and report their true optimizer
//! state footprint via [`Optimizer::state_elems`]. [`Method`] is the one
//! table the CLI, the paper binaries and the memory model build and count
//! methods from; it counts the same state from weight shapes alone.
//!
//! # Example
//!
//! ```
//! use apollo_optim::{Apollo, Optimizer, ParamUpdate};
//! use apollo_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let mut w = Matrix::randn(8, 32, &mut rng);
//! let g = Matrix::randn(8, 32, &mut rng);
//! let mut opt = Apollo::new(4, 200); // rank 4, re-seed every 200 steps
//! let before = w.clone();
//! opt.step(
//!     &mut [ParamUpdate { name: "w", value: &mut w, grad: &g, projectable: true }],
//!     1e-2,
//! );
//! assert_ne!(w, before);
//! ```

mod adamini;
mod adamw;
mod apollo;
mod engine;
mod galore;
mod limiter;
mod method;
mod projector;
mod sgd;
pub mod state;

pub use adamini::AdamMini;
pub use adamw::{AdamW, AdamWChannelwise};
pub use apollo::Apollo;
pub use engine::ScaleGranularity;
pub use galore::{Fira, Flora, GaLore};
pub use limiter::{LimiterOutcome, NormGrowthLimiter};
pub use method::{Method, NAMES, UPDATE_FREQ};
pub use projector::{ProjKind, Projector};
pub use sgd::{Sgd, SgdMomentum};

use apollo_tensor::Matrix;

/// One parameter's view for an optimizer step: current value, fresh
/// gradient, and whether the low-rank projection path applies (2-D
/// attention/MLP weights) or the dense fallback must be used (norm gains,
/// embeddings — matching the official GaLore/APOLLO implementations).
#[derive(Debug)]
pub struct ParamUpdate<'a> {
    /// Parameter name (stable across steps).
    pub name: &'a str,
    /// Parameter tensor, updated in place.
    pub value: &'a mut Matrix,
    /// Gradient of the loss w.r.t. the parameter.
    pub grad: &'a Matrix,
    /// Whether this tensor is eligible for low-rank treatment.
    pub projectable: bool,
}

/// A stateful first-order optimizer.
///
/// Implementations lazily allocate per-parameter state on the first call;
/// callers must pass the **same parameters in the same order** every step.
/// `Send`, so a data-parallel run can step per-parameter instances on
/// scoped threads.
pub trait Optimizer: Send {
    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> String;

    /// Applies one update step with learning rate `lr` (schedules are the
    /// caller's job).
    fn step(&mut self, params: &mut [ParamUpdate<'_>], lr: f32);

    /// Number of f32-equivalent *optimizer state* elements currently held
    /// (moments, projection matrices, per-tensor scalars). Zero before the
    /// first step.
    fn state_elems(&self) -> usize;

    /// Bytes of optimizer state; defaults to `4 × state_elems`, overridden
    /// by quantized-state optimizers.
    fn state_bytes(&self) -> usize {
        4 * self.state_elems()
    }

    /// Drops all per-parameter state, re-initializing lazily on the next
    /// step. Used by ReLoRA's periodic adapter merges, which invalidate the
    /// old moments.
    fn reset_state(&mut self) {}

    /// Serializes the optimizer's complete mutable state (moments,
    /// projector seeds/steps/bases, limiter scalars) into the
    /// [`state`] binary format, so training resumes **bit-exactly** from a
    /// crash-safe checkpoint. The serialized form embeds [`Optimizer::name`]
    /// and is only loadable into an identically-configured optimizer.
    ///
    /// The default implementation reports the optimizer as
    /// non-checkpointable; every optimizer shipped in this crate overrides
    /// it.
    fn state_save(&self) -> Result<Vec<u8>, String> {
        Err(format!(
            "optimizer `{}` does not support state checkpointing",
            self.name()
        ))
    }

    /// Restores state captured by [`Optimizer::state_save`]. Errors (leaving
    /// existing state untouched) on a name mismatch, layout-version
    /// mismatch, truncation, trailing bytes, or — for the Adam family — a
    /// per-tensor record whose clamped rank, projection kind, refresh
    /// period, INT8 group or limiter disagrees with this optimizer's
    /// configuration.
    fn state_load(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!(
            "optimizer `{}` does not support state checkpointing",
            self.name()
        ))
    }

    /// Attaches an observability handle. Instrumented optimizers (APOLLO,
    /// GaLore/Fira, channel-wise AdamW) keep the handle and emit
    /// projector-refresh, limiter-clip, and channel-scale events through
    /// it; the default implementation drops it, so plain optimizers pay
    /// nothing. A disabled handle (`Obs::disabled()`) is equally free.
    fn attach_observer(&mut self, _obs: apollo_obs::Obs) {}
}

/// Version byte of the `state_save` layout. 2 was the first in which the
/// Adam-family optimizers share one per-tensor record (weight shape,
/// moments, optional projector, optional limiter). 3 has the same bytes
/// but a different meaning: a random projector's `(seed, step)` now
/// regenerates `P` from the counter-based draw
/// ([`apollo_tensor::fill_normal`]), so the moments of a version-2 blob
/// live in a subspace its seed can no longer reproduce. Older blobs are
/// rejected, not migrated.
const STATE_LAYOUT_VERSION: u8 = 3;

/// The one `state_save` frame: optimizer name, layout version, record
/// count, then each record as written by `save`.
pub(crate) fn save_records<T>(
    name: &str,
    records: &[T],
    save: impl Fn(&T, &mut state::StateWriter),
) -> Vec<u8> {
    let mut w = state::StateWriter::new();
    w.str(name);
    w.u8(STATE_LAYOUT_VERSION);
    w.u64(records.len() as u64);
    for record in records {
        save(record, &mut w);
    }
    w.into_bytes()
}

/// Reads a [`save_records`] frame back, checking it was written by an
/// optimizer of this `name` at the current layout version and is consumed
/// exactly. The caller installs the records only on `Ok`.
pub(crate) fn load_records<'a, T>(
    bytes: &'a [u8],
    name: &str,
    mut load: impl FnMut(&mut state::StateReader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut r = state::StateReader::new(bytes);
    let tag = r.str()?;
    if tag != name {
        return Err(format!("optimizer state is for `{tag}`, not `{name}`"));
    }
    match r.u8()? {
        STATE_LAYOUT_VERSION => {}
        v => {
            return Err(format!(
                "unsupported `{name}` state layout version {v} (this build reads \
                 {STATE_LAYOUT_VERSION}; versions up to 2 were written when a projector seed \
                 regenerated a different random `P`, so their moments cannot be resumed)"
            ))
        }
    }
    let n = r.len()?;
    let mut records = Vec::new();
    for i in 0..n {
        records.push(load(&mut r).map_err(|e| format!("`{name}` state record {i}: {e}"))?);
    }
    r.expect_exhausted()?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_tensor::Rng;

    #[test]
    fn crate_example_runs() {
        let mut rng = Rng::seed_from_u64(0);
        let mut w = Matrix::randn(8, 32, &mut rng);
        let g = Matrix::randn(8, 32, &mut rng);
        let mut opt = Apollo::new(4, 200);
        let before = w.clone();
        opt.step(
            &mut [ParamUpdate {
                name: "w",
                value: &mut w,
                grad: &g,
                projectable: true,
            }],
            1e-2,
        );
        assert_ne!(w, before);
    }
}
