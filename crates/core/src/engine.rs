//! The one per-tensor step behind every Adam-family optimizer (the matrix
//! in the crate docs): `W ← W − η·lift(Ñ, G)` with `Ñ = M̂/(√V̂+ε)`.
//!
//! A named optimizer describes itself as a [`Plan`] — where its moments
//! live ([`Subspace`] or the full space) and how `Ñ` is lifted back
//! ([`Lift`]) — through [`Recipe`]. The loop, lazy per-tensor state,
//! limiter, Table-1 accounting, checkpoint record and trace events below
//! are written once for all of them.

use apollo_obs::{Obs, TraceEvent};
use apollo_tensor::{fused, Matrix};

use crate::limiter::{LimiterOutcome, NormGrowthLimiter};
use crate::projector::{ProjKind, Projector};
use crate::state::{StateReader, StateWriter};
use crate::{load_records, save_records, Optimizer, ParamUpdate};

/// Granularity of the approximated gradient scaling factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleGranularity {
    /// One factor per channel along the larger tensor dimension — APOLLO
    /// (Eq. 5).
    Channel,
    /// One factor per tensor — APOLLO-Mini (Section 4.2), required for
    /// rank-1 spaces where channel-wise estimates are too noisy.
    Tensor,
}

/// The auxiliary space `R = P·G` a method keeps its moments in. Tensor `i`
/// draws its projector seed as `seed + i`; the rank is clamped to the
/// tensor's smaller dimension.
#[derive(Debug, Clone, Copy)]
pub struct Subspace {
    pub kind: ProjKind,
    pub rank: usize,
    pub update_freq: usize,
    pub seed: u64,
}

/// How the normalised update `Ñ` (in the estimator's space, next to the
/// gradient `R` it was estimated from) becomes the full-rank update.
#[derive(Debug, Clone, Copy)]
pub enum Lift {
    /// `Ñ` itself — AdamW. Also what every other lift degrades to on
    /// tensors without channels (vectors, non-projectable parameters).
    Elementwise,
    /// `α·G·diag(s)` with norm-ratio factors `s = ‖Ñ‖/‖R‖` per channel or
    /// per tensor: the structured rule in the full space, APOLLO(-Mini) in
    /// a projected one.
    Scale {
        granularity: ScaleGranularity,
        alpha: f32,
    },
    /// `scale·P·Ñ` — GaLore/Flora; with `residual`, plus the out-of-subspace
    /// gradient `G − P·PᵀG` scaled channel-wise by `‖scale·P·Ñ‖/‖P·PᵀG‖`
    /// — Fira.
    ProjectBack { scale: f32, residual: bool },
}

/// One optimizer's description of its step, rebuilt from its public
/// hyper-parameter fields on every call so live edits take effect.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    /// INT8 group size of the stored moments; `None` keeps them in f32.
    pub quant_group: Option<usize>,
    /// `None` keeps the moments in the full space.
    pub subspace: Option<Subspace>,
    pub lift: Lift,
    /// Whether the norm-growth limiter guards the lifted update.
    pub limiter: bool,
}

/// What a named Adam-family optimizer supplies; [`Optimizer`] is
/// implemented once, for every `Recipe` (a set closed to this crate).
pub trait Recipe {
    /// Display name; also the tag a checkpoint is bound to.
    fn label(&self) -> String;
    fn plan(&self) -> Plan;
    fn engine(&self) -> &Engine;
    /// The engine plus, for optimizers that publish them, the per-parameter
    /// scaling factors of the last step.
    fn parts(&mut self) -> (&mut Engine, Option<&mut Vec<Vec<f32>>>);
}

/// Lazily initialised per-tensor states and the observer they report to.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    states: Vec<TensorState>,
    obs: Obs,
}

impl Engine {
    /// Re-points every live projector at a new refresh period.
    pub fn set_update_freq(&mut self, update_freq: usize) {
        for proj in self.states.iter_mut().filter_map(|s| s.projector.as_mut()) {
            proj.set_update_freq(update_freq);
        }
    }
}

impl<T: Recipe> Optimizer for T {
    fn name(&self) -> String {
        self.label()
    }

    fn step(&mut self, params: &mut [ParamUpdate<'_>], lr: f32) {
        let plan = self.plan();
        let (engine, mut scales) = self.parts();
        if engine.states.is_empty() {
            engine.states = params
                .iter()
                .enumerate()
                .map(|(i, p)| TensorState::new(&plan, i, p))
                .collect();
        }
        assert_eq!(engine.states.len(), params.len(), "parameter list changed");
        if let Some(out) = scales.as_deref_mut() {
            out.resize_with(params.len(), Vec::new);
        }
        for (i, (p, st)) in params.iter_mut().zip(&mut engine.states).enumerate() {
            let s = st.step(&plan, p, lr, &engine.obs);
            if let Some(out) = scales.as_deref_mut() {
                out[i] = s;
            }
        }
    }

    fn state_elems(&self) -> usize {
        self.engine().states.iter().map(TensorState::elems).sum()
    }

    fn state_bytes(&self) -> usize {
        self.engine().states.iter().map(TensorState::bytes).sum()
    }

    fn reset_state(&mut self) {
        let (engine, scales) = self.parts();
        engine.states.clear();
        if let Some(scales) = scales {
            scales.clear();
        }
    }

    fn attach_observer(&mut self, obs: Obs) {
        self.parts().0.obs = obs;
    }

    fn state_save(&self) -> Result<Vec<u8>, String> {
        let states = &self.engine().states;
        Ok(save_records(&self.label(), states, TensorState::save_into))
    }

    fn state_load(&mut self, bytes: &[u8]) -> Result<(), String> {
        let plan = self.plan();
        let states = load_records(bytes, &self.label(), |r| TensorState::load_from(r, &plan))?;
        self.parts().0.states = states;
        Ok(())
    }
}

/// Whether a tensor has channels to structure an update along: a 2-D
/// attention/MLP weight, not a norm gain, embedding or vector.
fn is_structured(p: &ParamUpdate<'_>) -> bool {
    p.projectable && p.value.rows() > 1 && p.value.cols() > 1
}

/// What a tensor's state consists of under a plan — derived in one place
/// for a fresh state and for checking a loaded record.
#[derive(Debug, PartialEq)]
struct Layout {
    quant_group: Option<usize>,
    /// Projection kind and rank (clamped to the smaller dimension).
    subspace: Option<(ProjKind, usize)>,
    moment_shape: (usize, usize),
    limiter: bool,
}

impl Layout {
    /// `projected`: whether the tensor's moments live in the plan's
    /// subspace. A projected method hands the tensors it cannot project to
    /// plain dense AdamW (no limiter either), as the official
    /// implementations do; a full-space method keeps every tensor.
    fn of(plan: &Plan, (rows, cols): (usize, usize), projected: bool) -> Self {
        let subspace = plan
            .subspace
            .filter(|_| projected)
            .map(|s| (s.kind, s.rank.min(rows).min(cols)));
        Layout {
            quant_group: plan.quant_group,
            subspace,
            // The smaller dimension is the one projected down.
            moment_shape: match subspace {
                None => (rows, cols),
                Some((_, rank)) if rows <= cols => (rank, cols),
                Some((_, rank)) => (rows, rank),
            },
            limiter: plan.limiter && (projected || plan.subspace.is_none()),
        }
    }
}

/// One tensor's optimizer state.
#[derive(Debug, Clone)]
struct TensorState {
    /// Shape of the weight this state belongs to.
    shape: (usize, usize),
    moments: AdamMoments,
    /// Present when the moments live in a projected space.
    projector: Option<Projector>,
    limiter: Option<NormGrowthLimiter>,
}

/// The lifted update, before the limiter and the weight write.
enum Lifted<'a> {
    /// `α·G·diag(s)`, never written out: the norm and apply kernels form
    /// its elements from `G` and the factors.
    Scaled(fused::ChannelScale<'a>, f32),
    /// A materialised update (the normalised moments, or a pooled
    /// project-back).
    Update(&'a mut Matrix),
}

impl TensorState {
    fn new(plan: &Plan, index: usize, p: &ParamUpdate<'_>) -> Self {
        let shape = p.value.shape();
        let layout = Layout::of(plan, shape, plan.subspace.is_some() && is_structured(p));
        let (mr, mc) = layout.moment_shape;
        TensorState {
            shape,
            moments: AdamMoments::new(mr, mc, layout.quant_group),
            projector: plan.subspace.zip(layout.subspace).map(|(s, (kind, rank))| {
                Projector::new(kind, rank, s.update_freq, s.seed.wrapping_add(index as u64))
            }),
            limiter: layout.limiter.then(NormGrowthLimiter::paper_default),
        }
    }

    /// refresh → project → moments → lift → limiter → decay + apply.
    /// Returns the scaling factors the lift used (empty if none).
    fn step(&mut self, plan: &Plan, p: &mut ParamUpdate<'_>, lr: f32, obs: &Obs) -> Vec<f32> {
        assert_eq!(self.shape, p.value.shape(), "parameter list changed");
        let Plan {
            beta1, beta2, eps, ..
        } = *plan;
        // `decay = 1.0` is a bit-exact no-op multiply, so the fused tails
        // need no branch when weight decay is off.
        let decay = if plan.weight_decay > 0.0 {
            1.0 - lr * plan.weight_decay
        } else {
            1.0
        };
        let lift = if is_structured(p) {
            plan.lift
        } else {
            Lift::Elementwise
        };
        let m = &mut self.moments;
        if matches!(lift, Lift::Elementwise) && self.limiter.is_none() && m.quant_group.is_none() {
            // AdamW proper: moments, bias correction, decay and the weight
            // write in one fused pass, with no update temporary. (INT8
            // moments take the staged path below: their round-trip must
            // interpose between the moment update and the weight write.)
            let (bc1, bc2) = m.tick(beta1, beta2);
            fused::fused_adam_update(
                p.value, p.grad, &mut m.m, &mut m.v, beta1, beta2, bc1, bc2, eps, lr, decay,
            );
            return Vec::new();
        }

        let projected = self.projector.as_mut().map(|proj| {
            if proj.begin_step(p.grad) {
                obs.counter("projector_refresh", 1);
                obs.emit(|| TraceEvent::ProjectorRefresh {
                    step: obs.step(),
                    param: p.name.to_string(),
                    kind: proj.kind_label().to_string(),
                    rank: proj.effective_rank(p.grad),
                });
            }
            proj.project(p.grad)
        });
        let r = projected.as_ref().unwrap_or(p.grad);
        let nt = m.update(r, beta1, beta2, eps);

        let along_cols = p.grad.rows() <= p.grad.cols();
        let mut scales = Vec::new();
        // `ProjectBack` builds its update in a pooled temporary.
        let mut pooled = None;
        let lifted = match lift {
            Lift::Elementwise => Lifted::Update(nt),
            Lift::Scale { granularity, alpha } => {
                let scale = match granularity {
                    ScaleGranularity::Channel => {
                        scales = norm_ratio_scales(nt, r, along_cols);
                        if along_cols {
                            fused::ChannelScale::Cols(&scales)
                        } else {
                            fused::ChannelScale::Rows(&scales)
                        }
                    }
                    ScaleGranularity::Tensor => {
                        let denom = r.fro_norm();
                        let s = if denom > 1e-30 {
                            nt.fro_norm() / denom
                        } else {
                            0.0
                        };
                        scales = vec![s];
                        fused::ChannelScale::Tensor(s)
                    }
                };
                Lifted::Scaled(scale, alpha)
            }
            Lift::ProjectBack { scale, residual } => {
                let proj = self
                    .projector
                    .as_ref()
                    .expect("ProjectBack lifts out of a subspace");
                let mut back = proj.project_back(nt, p.grad.shape());
                back.scale_assign(scale);
                if residual {
                    let low = proj.project_back(r, p.grad.shape());
                    let mut rest = p.grad.sub(&low);
                    scales = norm_ratio_scales(&back, &low, along_cols);
                    if along_cols {
                        rest.scale_cols(&scales);
                    } else {
                        rest.scale_rows(&scales);
                    }
                    back.add_assign(&rest);
                    low.recycle();
                    rest.recycle();
                }
                Lifted::Update(pooled.insert(back))
            }
        };
        if obs.sample_due() && obs.has_trace() {
            if let Some(ev) = apollo_obs::scale_summary(obs.step(), p.name, &scales) {
                obs.emit(|| ev);
            }
        }
        let mut clamp = 1.0;
        if let Some(limiter) = &mut self.limiter {
            let norm = match &lifted {
                Lifted::Scaled(scale, alpha) => fused::fused_apollo_norm(p.grad, *scale, *alpha),
                Lifted::Update(update) => update.fro_norm(),
            };
            let (outcome, factor) = limiter.admit(norm);
            clamp = factor;
            match outcome {
                LimiterOutcome::Clamped => {
                    obs.counter("limiter_clips", 1);
                    obs.emit(|| TraceEvent::LimiterClip {
                        step: obs.step(),
                        param: p.name.to_string(),
                        ratio: 1.0 / factor,
                    });
                }
                LimiterOutcome::NonFinite => obs.counter("limiter_non_finite", 1),
                LimiterOutcome::Passed => {}
            }
        }
        match lifted {
            Lifted::Scaled(scale, alpha) => {
                fused::fused_apollo_apply(p.value, p.grad, scale, alpha, clamp, decay, -lr);
            }
            Lifted::Update(update) => {
                if clamp != 1.0 {
                    update.scale_assign(clamp);
                }
                fused::fused_axpy_chain(p.value, decay, -lr, update);
            }
        }
        for m in [pooled, projected].into_iter().flatten() {
            m.recycle();
        }
        scales
    }

    /// Table 1, everything but the moments: the SVD basis (`mr`) or the
    /// random projector's seed (1), plus the limiter's norm (1).
    fn overhead_elems(&self) -> usize {
        let subspace = self.projector.as_ref().map_or(0, |p| match p.kind() {
            ProjKind::Svd => p.state_elems(),
            ProjKind::Random => 1,
        });
        subspace + usize::from(self.limiter.is_some())
    }

    fn elems(&self) -> usize {
        self.moments.elems() + self.overhead_elems()
    }

    fn bytes(&self) -> usize {
        self.moments.bytes() + 4 * self.overhead_elems()
    }

    fn save_into(&self, w: &mut StateWriter) {
        w.u64(self.shape.0 as u64);
        w.u64(self.shape.1 as u64);
        self.moments.save_into(w);
        w.opt(self.projector.as_ref(), |w, p| p.save_into(w));
        w.opt(self.limiter.as_ref(), |w, l| l.save_into(w));
    }

    /// Reads one record and checks it holds what this optimizer would have
    /// built for a weight of that shape. The refresh period is deliberately
    /// not compared — it may be re-pointed on a live optimizer, after a
    /// load too.
    fn load_from(r: &mut StateReader<'_>, plan: &Plan) -> Result<Self, String> {
        let shape = (r.len()?, r.len()?);
        let moments = AdamMoments::load_from(r)?;
        let projector = r.opt(Projector::load_from)?;
        let limiter = r.opt(NormGrowthLimiter::load_from)?;
        let found = Layout {
            quant_group: moments.quant_group,
            subspace: projector.as_ref().map(|p| (p.kind(), p.rank())),
            moment_shape: moments.m.shape(),
            limiter: limiter.is_some(),
        };
        let wanted = Layout::of(plan, shape, projector.is_some());
        if found != wanted {
            return Err(format!(
                "holds {found:?}, but this optimizer keeps {wanted:?} for a {shape:?} weight"
            ));
        }
        Ok(TensorState {
            shape,
            moments,
            projector,
            limiter,
        })
    }
}

/// Channel-wise norm-ratio scaling factors.
///
/// Computes `s_c = ‖num[c]‖₂ / ‖den[c]‖₂` per channel, where channels are
/// columns when `along_cols` (the `m ≤ n` case of Eq. 5) or rows otherwise.
/// Channels with zero denominator get factor 0 (their update is zero
/// anyway).
fn norm_ratio_scales(num: &Matrix, den: &Matrix, along_cols: bool) -> Vec<f32> {
    let (n_num, n_den) = if along_cols {
        (num.col_norms(), den.col_norms())
    } else {
        (num.row_norms(), den.row_norms())
    };
    n_num
        .iter()
        .zip(&n_den)
        .map(|(&a, &b)| if b > 1e-30 { a / b } else { 0.0 })
        .collect()
}

/// Bias-corrected AdamW moment state for one tensor, optionally stored
/// block-wise INT8-quantized (8-bit Adam / 8-bit GaLore).
#[derive(Debug, Clone)]
struct AdamMoments {
    m: Matrix,
    v: Matrix,
    t: u32,
    /// INT8 group size; `None` keeps full-precision state.
    quant_group: Option<usize>,
    /// Scratch holding the most recent normalized update. Purely a reused
    /// allocation — not optimizer state, so excluded from
    /// [`AdamMoments::elems`]/[`AdamMoments::bytes`] and from save/load.
    upd: Matrix,
}

impl AdamMoments {
    fn new(rows: usize, cols: usize, quant_group: Option<usize>) -> Self {
        AdamMoments {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            t: 0,
            quant_group,
            upd: Matrix::zeros(0, 0),
        }
    }

    /// Advances the step count; returns the bias corrections `1 − βᵗ`.
    fn tick(&mut self, beta1: f32, beta2: f32) -> (f32, f32) {
        self.t += 1;
        (
            1.0 - beta1.powi(self.t as i32),
            1.0 - beta2.powi(self.t as i32),
        )
    }

    /// Updates the moments with gradient `g` and returns the bias-corrected
    /// normalized update `M̂ / (√V̂ + ε)`, in scratch the caller may edit.
    ///
    /// Full-precision state goes through the single-pass
    /// [`fused::fused_adam_moments`] kernel (bit-identical to the staged
    /// EMA + zip path). Quantized variants keep the staged path: they
    /// round-trip the moments through INT8 after each update, so the
    /// persistent state is exactly what an 8-bit optimizer would hold.
    fn update(&mut self, g: &Matrix, beta1: f32, beta2: f32, eps: f32) -> &mut Matrix {
        let (bc1, bc2) = self.tick(beta1, beta2);
        if let Some(group) = self.quant_group {
            self.m.ema_assign(beta1, g);
            self.v.ema_square_assign(beta2, g);
            // Companded (nonlinear) code, as real 8-bit optimizers use —
            // linear absmax INT8 would zero small second-moment entries.
            let m = apollo_quant::fake_quantize_companded(&self.m, group, 0.5);
            std::mem::replace(&mut self.m, m).recycle();
            let mut v = apollo_quant::fake_quantize_companded(&self.v, group, 0.25);
            // v is non-negative by construction; keep it that way.
            v.map_assign(|x| x.max(0.0));
            std::mem::replace(&mut self.v, v).recycle();
            self.upd.zip_map_from(&self.m, &self.v, |m, v| {
                (m / bc1) / ((v / bc2).sqrt() + eps)
            });
        } else {
            fused::fused_adam_moments(
                &mut self.m,
                &mut self.v,
                &mut self.upd,
                g,
                beta1,
                beta2,
                bc1,
                bc2,
                eps,
            );
        }
        &mut self.upd
    }

    /// State footprint in f32-equivalent *elements*: the two moment tensors.
    fn elems(&self) -> usize {
        self.m.len() + self.v.len()
    }

    /// State footprint in bytes, honouring INT8 storage (1 byte/element plus
    /// one f32 scale per group).
    fn bytes(&self) -> usize {
        match self.quant_group {
            None => 4 * self.elems(),
            Some(group) => {
                let per = |len: usize| len + 4 * len.div_ceil(group);
                per(self.m.len()) + per(self.v.len())
            }
        }
    }

    fn save_into(&self, w: &mut StateWriter) {
        w.matrix(&self.m);
        w.matrix(&self.v);
        w.u32(self.t);
        w.opt(self.quant_group, |w, g| w.u64(g as u64));
    }

    fn load_from(r: &mut StateReader<'_>) -> Result<Self, String> {
        let m = r.matrix()?;
        let v = r.matrix()?;
        if m.shape() != v.shape() {
            return Err(format!(
                "moment shape mismatch: m {:?} vs v {:?}",
                m.shape(),
                v.shape()
            ));
        }
        let t = r.u32()?;
        let quant_group = r.opt(StateReader::len)?;
        Ok(AdamMoments {
            m,
            v,
            t,
            quant_group,
            upd: Matrix::zeros(0, 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_moments_single_step_matches_hand_math() {
        let mut st = AdamMoments::new(1, 2, None);
        let g = Matrix::from_rows(&[&[0.5, -1.0]]);
        let upd = st.update(&g, 0.9, 0.999, 1e-8);
        // After one step the bias-corrected update is g/(|g|+eps) ≈ sign(g).
        assert!((upd.get(0, 0) - 1.0).abs() < 1e-3, "{}", upd.get(0, 0));
        assert!((upd.get(0, 1) + 1.0).abs() < 1e-3, "{}", upd.get(0, 1));
    }

    #[test]
    fn norm_ratio_scales_cols_and_rows() {
        let num = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let den = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(norm_ratio_scales(&num, &den, true), vec![2.0, 4.0]);
        assert_eq!(norm_ratio_scales(&num, &den, false), vec![2.0, 4.0]);
    }

    #[test]
    fn norm_ratio_scales_zero_denominator_is_zero() {
        let num = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let den = Matrix::zeros(2, 1);
        assert_eq!(norm_ratio_scales(&num, &den, true), vec![0.0]);
    }
}
