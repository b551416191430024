//! Low-rank gradient projection: random Gaussian (APOLLO's SVD-free choice)
//! or SVD-based (GaLore's choice, and the "APOLLO w. SVD" variant).

use apollo_tensor::linalg::{randomized_svd, svd_jacobi};
use apollo_tensor::{fill_normal, Matrix, Rng};

/// How the projection subspace is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjKind {
    /// i.i.d. Gaussian `N(0, 1/r)`, regenerated from a stored seed — nothing
    /// but the seed is persisted (Algorithm 1), so projection state is free.
    Random,
    /// Top-`r` singular vectors of the current gradient, recomputed every
    /// `update_freq` steps and cached (GaLore). Costs `min(m,n)·r` state.
    Svd,
}

/// A per-tensor low-rank projector.
///
/// The *smaller* tensor dimension is projected down to `rank`, preserving
/// the larger (channel) dimension, matching the paper's `R = P·G ∈ ℝ^{r×n}`
/// for `m ≤ n` and the mirrored layout otherwise.
///
/// Call [`Projector::begin_step`] once per optimizer step before
/// [`Projector::project`]; the subspace refreshes every `update_freq` steps
/// (re-seed for [`ProjKind::Random`], fresh SVD for [`ProjKind::Svd`]).
#[derive(Debug, Clone)]
pub struct Projector {
    kind: ProjKind,
    rank: usize,
    update_freq: usize,
    seed: u64,
    step: usize,
    /// Cached orthonormal basis (`small_dim × r`) for the SVD kind.
    cached_basis: Option<Matrix>,
}

impl Projector {
    /// Creates a projector.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or `update_freq == 0`.
    pub fn new(kind: ProjKind, rank: usize, update_freq: usize, seed: u64) -> Self {
        assert!(rank > 0, "rank must be positive");
        assert!(update_freq > 0, "update_freq must be positive");
        Projector {
            kind,
            rank,
            update_freq,
            seed,
            step: 0,
            cached_basis: None,
        }
    }

    /// The projection rank actually used for a tensor (clamped to the
    /// smaller dimension).
    pub fn effective_rank(&self, g: &Matrix) -> usize {
        self.rank.min(g.rows()).min(g.cols())
    }

    /// The configured rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The subspace kind.
    pub fn kind(&self) -> ProjKind {
        self.kind
    }

    /// Steps between subspace refreshes.
    pub(crate) fn update_freq(&self) -> usize {
        self.update_freq
    }

    /// Stable display label for the subspace kind (trace events).
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            ProjKind::Random => "random",
            ProjKind::Svd => "svd",
        }
    }

    /// Advances the step counter and refreshes the subspace when due.
    /// `g` is the current gradient (consulted only by the SVD kind).
    /// Returns whether the subspace was refreshed this step, so callers
    /// can surface refresh events to observability.
    pub fn begin_step(&mut self, g: &Matrix) -> bool {
        let refreshed = self.step.is_multiple_of(self.update_freq);
        if refreshed {
            match self.kind {
                ProjKind::Random => {
                    // Derive an independent new seed, exactly the
                    // "seed ← new random seed" line of Algorithm 1.
                    let mut rng = Rng::seed_from_u64(self.seed ^ 0x5EED_CAFE);
                    self.seed = rng.next_u64();
                }
                ProjKind::Svd => {
                    self.cached_basis = Some(self.compute_svd_basis(g));
                }
            }
        }
        self.step += 1;
        refreshed
    }

    fn compute_svd_basis(&self, g: &Matrix) -> Matrix {
        let (m, n) = g.shape();
        let r = self.effective_rank(g);
        let small = m.min(n);
        // Basis = top-r singular vectors on the *smaller* side.
        let svd = if small <= 128 {
            svd_jacobi(g).truncate(r)
        } else {
            let mut rng = Rng::seed_from_u64(self.seed ^ 0x51D);
            randomized_svd(g, r, 8, 1, &mut rng)
        };
        if m <= n {
            svd.u // m × r
        } else {
            svd.v // n × r
        }
    }

    /// The random Gaussian factor for the current seed (`small_dim × r`,
    /// entries `N(0, 1/r)`), regenerated on demand: element `(i, j)` is
    /// element `i·r + j` of the seed's counter-based normal stream.
    fn random_basis(&self, small_dim: usize, r: usize) -> Matrix {
        let mut data = vec![0.0; small_dim * r];
        fill_normal(self.seed, 0, (1.0 / r as f32).sqrt(), &mut data);
        Matrix::from_vec(small_dim, r, data)
    }

    /// Runs `f` on the basis (`small × rank`): the SVD kind lends its cached
    /// one (no clone), the random kind regenerates its own for the call.
    fn with_basis<T>(&self, small: usize, rank: usize, f: impl FnOnce(&Matrix) -> T) -> T {
        match self.kind {
            ProjKind::Random => f(&self.random_basis(small, rank)),
            ProjKind::Svd => f(self
                .cached_basis
                .as_ref()
                .expect("begin_step must run before projecting with the SVD kind")),
        }
    }

    /// Projects the gradient into the low-rank space: `r × n` when
    /// `rows ≤ cols`, `m × r` otherwise.
    pub fn project(&self, g: &Matrix) -> Matrix {
        let small = g.rows().min(g.cols());
        self.with_basis(small, self.effective_rank(g), |b| {
            if g.rows() <= g.cols() {
                b.matmul_transa(g) // (r × m)·(m × n) = r × n
            } else {
                g.matmul(b) // (m × n)·(n × r) = m × r
            }
        })
    }

    /// Maps a low-rank tensor back to the full space (GaLore's
    /// `G̃ = P·Ñ`).
    pub fn project_back(&self, r: &Matrix, (m, n): (usize, usize)) -> Matrix {
        // Rebuild the basis for the full shape; `r` carries the other dim.
        let rank = r.rows().min(r.cols()).min(self.rank);
        self.with_basis(m.min(n), rank, |b| {
            if m <= n {
                b.matmul(r) // (m × r)·(r × n)
            } else {
                r.matmul_transb(b) // (m × r)·(n × r)ᵀ = m × n
            }
        })
    }

    pub(crate) fn save_into(&self, w: &mut crate::state::StateWriter) {
        w.u8(match self.kind {
            ProjKind::Random => 0,
            ProjKind::Svd => 1,
        });
        w.u64(self.rank as u64);
        w.u64(self.update_freq as u64);
        w.u64(self.seed);
        w.u64(self.step as u64);
        w.opt(
            self.cached_basis.as_ref(),
            crate::state::StateWriter::matrix,
        );
    }

    pub(crate) fn load_from(r: &mut crate::state::StateReader<'_>) -> Result<Self, String> {
        let kind = match r.u8()? {
            0 => ProjKind::Random,
            1 => ProjKind::Svd,
            other => return Err(format!("unknown projector kind tag {other}")),
        };
        let rank = r.len()?;
        let update_freq = r.len()?;
        if rank == 0 || update_freq == 0 {
            return Err(format!(
                "invalid projector state: rank {rank}, update_freq {update_freq}"
            ));
        }
        let seed = r.u64()?;
        let step = r.len()?;
        let cached_basis = r.opt(crate::state::StateReader::matrix)?;
        Ok(Projector {
            kind,
            rank,
            update_freq,
            seed,
            step,
            cached_basis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from_u64(seed);
        Matrix::randn(m, n, &mut rng)
    }

    #[test]
    fn random_projection_shapes_follow_orientation() {
        let mut p = Projector::new(ProjKind::Random, 4, 10, 1);
        let g_wide = grad(8, 20, 1);
        p.begin_step(&g_wide);
        assert_eq!(p.project(&g_wide).shape(), (4, 20));
        let g_tall = grad(20, 8, 2);
        assert_eq!(p.project(&g_tall).shape(), (20, 4));
    }

    #[test]
    fn random_projection_is_deterministic_within_a_window() {
        let mut p = Projector::new(ProjKind::Random, 4, 100, 7);
        let g = grad(8, 16, 3);
        p.begin_step(&g);
        let r1 = p.project(&g);
        p.begin_step(&g); // still inside the window → same seed
        let r2 = p.project(&g);
        assert_eq!(r1, r2);
    }

    #[test]
    fn random_projection_reseeds_at_update_freq() {
        let mut p = Projector::new(ProjKind::Random, 4, 2, 7);
        let g = grad(8, 16, 3);
        p.begin_step(&g);
        let r1 = p.project(&g);
        p.begin_step(&g);
        let r2 = p.project(&g);
        assert_eq!(r1, r2, "step 2 still in window");
        p.begin_step(&g); // step 3 → refresh
        let r3 = p.project(&g);
        assert_ne!(r1, r3, "seed must change after update_freq steps");
    }

    #[test]
    fn random_projection_preserves_norms_in_expectation() {
        // JL: ‖P·x‖² concentrates around ‖x‖² — check within 20% at r=64.
        let mut p = Projector::new(ProjKind::Random, 64, 10, 11);
        let g = grad(128, 200, 5);
        p.begin_step(&g);
        let r = p.project(&g);
        let ratio = (r.fro_norm() / g.fro_norm()).powi(2);
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn svd_projection_captures_low_rank_gradients_exactly() {
        // Rank-2 gradient: project → back must reconstruct it.
        let u = grad(10, 2, 6);
        let v = grad(14, 2, 7);
        let g = u.matmul_transb(&v);
        let mut p = Projector::new(ProjKind::Svd, 2, 1, 0);
        p.begin_step(&g);
        let r = p.project(&g);
        let back = p.project_back(&r, g.shape());
        let err = back.sub(&g).fro_norm() / g.fro_norm();
        assert!(err < 1e-3, "reconstruction error {err}");
    }

    #[test]
    fn svd_projection_tall_orientation() {
        let u = grad(14, 2, 8);
        let v = grad(10, 2, 9);
        let g = u.matmul_transb(&v); // 14 × 10, rows > cols
        let mut p = Projector::new(ProjKind::Svd, 2, 1, 0);
        p.begin_step(&g);
        let r = p.project(&g);
        assert_eq!(r.shape(), (14, 2));
        let back = p.project_back(&r, g.shape());
        let err = back.sub(&g).fro_norm() / g.fro_norm();
        assert!(err < 1e-3, "reconstruction error {err}");
    }

    #[test]
    fn effective_rank_is_clamped() {
        let p = Projector::new(ProjKind::Random, 100, 10, 0);
        assert_eq!(p.effective_rank(&Matrix::zeros(4, 32)), 4);
    }

    #[test]
    fn only_the_svd_kind_keeps_a_small_dim_by_rank_basis() {
        let g = grad(8, 16, 4);
        let mut pr = Projector::new(ProjKind::Random, 4, 10, 0);
        pr.begin_step(&g);
        assert!(pr.cached_basis.is_none());
        let mut ps = Projector::new(ProjKind::Svd, 4, 10, 0);
        ps.begin_step(&g);
        assert_eq!(ps.cached_basis.map(|b| b.shape()), Some((8, 4)));
    }

    #[test]
    fn random_project_back_approximates_identity_at_high_rank() {
        let g = grad(64, 100, 12);
        let mut p = Projector::new(ProjKind::Random, 64, 10, 3);
        p.begin_step(&g);
        let back = p.project_back(&p.project(&g), g.shape());
        // PᵀP ≈ I at full rank; correlation with g should dominate.
        let dot: f32 = back
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let cos = dot / (back.fro_norm() * g.fro_norm());
        assert!(cos > 0.6, "cosine {cos}");
    }
}
