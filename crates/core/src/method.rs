//! The one method table: every optimizer the CLI, the `paper` binary and
//! the memory model name, build and count.
//!
//! A [`Method`] is a value parameterised the way the hyper-parameter
//! structs are (APOLLO's arm carries its rank, projection and granularity),
//! so an ablation row is a value of the table, not another builder. It is
//! the only place that maps an `--optimizer` name to a method
//! ([`Method::parse`] over [`NAMES`]), builds the optimizer
//! ([`Method::build`]), holds the paper recipe's columns ([`Method::lr`],
//! [`Method::grad_clip`], [`Method::mini_alpha`], [`Method::pays_svd`]) and
//! counts optimizer state ([`Method::state_elems`]).
//!
//! The count is not a formula. For the Adam family it evaluates the engine's
//! per-tensor layout, the one a built optimizer allocates from, on shapes
//! alone; SGD-M and Adam-mini count beside their own types. So the memory
//! model counts the elements a built optimizer allocates, and
//! `tests/state_memory.rs` holds the heap it keeps to that count (the state
//! is exact-size storage, and a step keeps nothing else). Table 1's closed forms
//! (the State column of the crate docs) are asserted by this module's tests,
//! for the wide and the tall orientation of a weight.

use crate::apollo::DEFAULT_SEED;
use crate::engine::{self, Plan, Recipe};
use crate::{
    AdamMini, AdamW, AdamWChannelwise, Apollo, Fira, Flora, GaLore, Optimizer, ProjKind,
    ScaleGranularity, Sgd, SgdMomentum,
};

/// INT8 group size of the 8-bit-moment methods, as in the paper's
/// references.
const INT8_GROUP: usize = 128;

/// The paper's subspace refresh period T.
pub const UPDATE_FREQ: usize = 200;

/// An `--optimizer` name, with the method it names at a rank.
type Row = (&'static str, fn(usize) -> Method);

/// Every `--optimizer` name.
const TABLE: [Row; 13] = [
    ("adamw", |_| Method::adamw()),
    ("adamw-8bit", |_| Method::AdamW { int8: true }),
    ("adam-mini", |_| Method::AdamMini),
    ("sgd", |_| Method::Sgd),
    ("sgd-m", |_| Method::SgdMomentum),
    ("apollo", Method::apollo),
    ("apollo-svd", Method::apollo_svd),
    ("apollo-mini", |_| Method::mini()),
    ("galore", Method::galore),
    ("galore-rp", |rank| Method::GaLore {
        rank,
        proj: ProjKind::Random,
        int8: false,
    }),
    ("galore-8bit", |rank| Method::GaLore {
        rank,
        proj: ProjKind::Svd,
        int8: true,
    }),
    ("fira", |rank| Method::Fira { rank }),
    ("flora", |rank| Method::Flora { rank }),
];

/// The `--optimizer` names [`Method::parse`] accepts.
pub const NAMES: [&str; 13] = {
    let mut names = [""; 13];
    let mut i = 0;
    while i < names.len() {
        names[i] = TABLE[i].0;
        i += 1;
    }
    names
};

/// A training method: everything needed to build its optimizer and to
/// count its state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// AdamW; `int8` stores the moments block-wise INT8 (8-bit Adam).
    AdamW { int8: bool },
    /// AdamW with the Section-3 channel-wise rule (Fig. 3), with or without
    /// the norm-growth limiter.
    AdamWChannelwise { limiter: bool },
    /// Adam-mini: full momentum, one second-moment scalar per channel.
    AdamMini,
    /// Plain SGD.
    Sgd,
    /// SGD with momentum 0.9.
    SgdMomentum,
    /// APOLLO; rank 1 at tensor granularity is APOLLO-Mini.
    Apollo {
        rank: usize,
        proj: ProjKind,
        granularity: ScaleGranularity,
    },
    /// GaLore; a random `proj` is GaLore w. RP, `int8` 8-bit GaLore.
    GaLore {
        rank: usize,
        proj: ProjKind,
        int8: bool,
    },
    /// Fira (SVD projection).
    Fira { rank: usize },
    /// Flora (random projection, unit scale).
    Flora { rank: usize },
}

impl Method {
    /// Full-precision AdamW.
    pub fn adamw() -> Self {
        Method::AdamW { int8: false }
    }

    /// APOLLO at `rank`: random projection, channel-wise scaling.
    pub fn apollo(rank: usize) -> Self {
        Method::Apollo {
            rank,
            proj: ProjKind::Random,
            granularity: ScaleGranularity::Channel,
        }
    }

    /// APOLLO w. SVD at `rank`: SVD projection, channel-wise scaling.
    pub fn apollo_svd(rank: usize) -> Self {
        Method::Apollo {
            rank,
            proj: ProjKind::Svd,
            granularity: ScaleGranularity::Channel,
        }
    }

    /// APOLLO-Mini: rank 1, random projection, tensor-wise scaling.
    pub fn mini() -> Self {
        Method::Apollo {
            rank: 1,
            proj: ProjKind::Random,
            granularity: ScaleGranularity::Tensor,
        }
    }

    /// GaLore at `rank`: SVD projection, f32 moments.
    pub fn galore(rank: usize) -> Self {
        Method::GaLore {
            rank,
            proj: ProjKind::Svd,
            int8: false,
        }
    }

    /// The method a name in [`NAMES`] stands for, at `rank` (which the
    /// rankless methods and APOLLO-Mini ignore). An unknown name's error
    /// lists the valid ones.
    pub fn parse(name: &str, rank: usize) -> Result<Self, String> {
        TABLE
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, method)| method(rank))
            .ok_or_else(|| format!("unknown optimizer `{name}` (one of: {})", NAMES.join(" ")))
    }

    /// Display name matching the paper's tables.
    pub fn label(&self) -> String {
        match *self {
            Method::AdamW { int8: false } => "AdamW".into(),
            Method::AdamW { int8: true } => "8-bit Adam".into(),
            Method::AdamWChannelwise { limiter: false } => "AdamW-channelwise".into(),
            Method::AdamWChannelwise { limiter: true } => "AdamW-channelwise+NL".into(),
            Method::AdamMini => "Adam-mini".into(),
            Method::Sgd => "SGD".into(),
            Method::SgdMomentum => "SGD-M".into(),
            Method::Apollo {
                rank,
                proj,
                granularity,
            } => {
                let svd = if proj == ProjKind::Svd { " w. SVD" } else { "" };
                match granularity {
                    _ if self.is_mini() => format!("APOLLO-Mini{svd}"),
                    ScaleGranularity::Channel => format!("APOLLO{svd}(r={rank})"),
                    ScaleGranularity::Tensor => format!("APOLLO(tensor){svd}(r={rank})"),
                }
            }
            Method::GaLore { rank, proj, int8 } => format!(
                "{}GaLore{}(r={rank})",
                if int8 { "8-bit " } else { "" },
                if proj == ProjKind::Random {
                    " w. RP"
                } else {
                    ""
                }
            ),
            Method::Fira { rank } => format!("Fira(r={rank})"),
            Method::Flora { rank } => format!("Flora(r={rank})"),
        }
    }

    /// APOLLO-Mini at either projection: the rows that take Mini's α.
    fn is_mini(&self) -> bool {
        matches!(
            self,
            Method::Apollo {
                rank: 1,
                granularity: ScaleGranularity::Tensor,
                ..
            }
        )
    }

    /// The recipe's peak pre-training LR at proxy scale, calibrated with a
    /// small sweep at the 60M proxy (see EXPERIMENTS.md): 1e-2 for the
    /// full-space Adam family, 0.3 for SGD, 3e-2 for the projected family
    /// (which the norm-growth limiter stabilises — the analogue of the
    /// paper's 1e-2-at-512-hidden recipe).
    pub fn lr(&self) -> f32 {
        match self {
            Method::AdamW { .. } | Method::AdamWChannelwise { .. } | Method::AdamMini => 1e-2,
            Method::Sgd | Method::SgdMomentum => 0.3,
            Method::Apollo { .. }
            | Method::GaLore { .. }
            | Method::Fira { .. }
            | Method::Flora { .. } => 3e-2,
        }
    }

    /// The recipe's global gradient clipping: AdamW, Adam-mini and SGD clip
    /// at norm 1; the scaled-update and projected families do not (APOLLO,
    /// Fira and the channel-wise rule rely on the norm-growth limiter).
    pub fn grad_clip(&self) -> Option<f32> {
        match self {
            Method::AdamW { .. } | Method::AdamMini | Method::Sgd | Method::SgdMomentum => {
                Some(1.0)
            }
            _ => None,
        }
    }

    /// APOLLO-Mini's gradient scale α = √(hidden/4): the paper's constant
    /// √128 *is* √(512/4) for its smallest (60M, hidden 512) geometry, so
    /// the proxy models keep that ratio.
    pub fn mini_alpha(hidden: usize) -> f32 {
        (hidden as f32 / 4.0).sqrt()
    }

    /// Whether the method pays a periodic SVD refresh (Fig. 9's spikes).
    pub fn pays_svd(&self) -> bool {
        matches!(
            self,
            Method::Apollo {
                proj: ProjKind::Svd,
                ..
            } | Method::GaLore {
                proj: ProjKind::Svd,
                ..
            } | Method::Fira { .. }
        )
    }

    /// Builds the optimizer, refreshing its subspace every [`UPDATE_FREQ`]
    /// steps. `mini_alpha` is APOLLO-Mini's gradient scale α and `alpha`
    /// every other APOLLO row's. `seed_offset` is a parameter's global index
    /// when a data-parallel run builds one instance per parameter: APOLLO's
    /// base seed shifts by it, so the instance derives exactly the projector
    /// seed the serial optimizer derives for that parameter (`seed + i`) and
    /// sharding is invisible to the math. GaLore-family seeds are not
    /// externally controllable, so those methods refuse an offset.
    pub fn build(
        &self,
        mini_alpha: f32,
        alpha: f32,
        seed_offset: Option<usize>,
    ) -> Result<Box<dyn Optimizer>, String> {
        Ok(match *self {
            Method::AdamMini => Box::new(AdamMini::new()),
            Method::Sgd => Box::new(Sgd::new()),
            Method::SgdMomentum => Box::new(SgdMomentum::new(0.9)),
            Method::GaLore { .. } | Method::Fira { .. } | Method::Flora { .. }
                if seed_offset.is_some() =>
            {
                return Err(format!(
                    "{} cannot be built per parameter: its projector seeds are not \
                     externally controllable",
                    self.label()
                ))
            }
            _ => {
                self.recipe(mini_alpha, alpha, seed_offset)
                    .expect("every other method is an engine recipe")
                    .1
            }
        })
    }

    /// The engine recipe of an Adam-family method, as its plan and the
    /// optimizer; `None` for SGD, SGD-M and Adam-mini, which keep state of
    /// their own.
    fn recipe(
        &self,
        mini_alpha: f32,
        alpha: f32,
        seed_offset: Option<usize>,
    ) -> Option<(Plan, Box<dyn Optimizer>)> {
        fn boxed<R: Recipe + 'static>(r: R) -> (Plan, Box<dyn Optimizer>) {
            (r.plan(), Box::new(r))
        }
        Some(match *self {
            Method::AdamW { int8: false } => boxed(AdamW::new()),
            Method::AdamW { int8: true } => boxed(AdamW::adam8bit(INT8_GROUP)),
            Method::AdamWChannelwise { limiter } => {
                let mut opt = AdamWChannelwise::new();
                opt.use_limiter = limiter;
                boxed(opt)
            }
            Method::Apollo {
                rank,
                proj,
                granularity,
            } => {
                let alpha = if self.is_mini() { mini_alpha } else { alpha };
                let mut opt = Apollo::new(rank, UPDATE_FREQ)
                    .with_granularity(granularity)
                    .with_alpha(alpha);
                opt.proj_kind = proj;
                if let Some(i) = seed_offset {
                    opt = opt.with_seed(DEFAULT_SEED.wrapping_add(i as u64));
                }
                boxed(opt)
            }
            Method::GaLore { rank, proj, int8 } => {
                let mut opt = if int8 {
                    GaLore::galore8bit(rank, UPDATE_FREQ, INT8_GROUP)
                } else {
                    GaLore::new(rank, UPDATE_FREQ)
                };
                opt.proj_kind = proj;
                boxed(opt)
            }
            Method::Fira { rank } => boxed(Fira::new(rank, UPDATE_FREQ)),
            Method::Flora { rank } => boxed(Flora::new(rank, UPDATE_FREQ)),
            Method::AdamMini | Method::Sgd | Method::SgdMomentum => return None,
        })
    }

    /// Optimizer-state elements over a weight inventory, `(rows, cols,
    /// projectable)` per tensor: what the built optimizer holds once it has
    /// stepped over those weights.
    pub fn state_elems(&self, shapes: &[(usize, usize, bool)]) -> usize {
        // α and the seed change no state.
        if let Some((plan, _)) = self.recipe(1.0, 1.0, None) {
            return engine::state_elems(&plan, shapes);
        }
        shapes
            .iter()
            .map(|&(rows, cols, _)| match self {
                Method::AdamMini => AdamMini::elems_for(rows, cols),
                Method::SgdMomentum => SgdMomentum::elems_for(rows, cols),
                _ => 0,
            })
            .sum()
    }

    /// Bytes per state element in the memory model: 1 for the INT8-moment
    /// methods, 4 otherwise. Group scales are ignored here; a built
    /// optimizer's [`Optimizer::state_bytes`] counts them.
    pub fn bytes_per_state_elem(&self) -> f64 {
        match self {
            Method::AdamW { int8: true } | Method::GaLore { int8: true, .. } => 1.0,
            _ => 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamUpdate;
    use apollo_tensor::{Matrix, Rng};

    const M: usize = 8;
    const N: usize = 32;
    const R: usize = 4;

    /// Every value of the table: the CLI's names, then the ablation rows
    /// no name reaches (Table 7, Fig. 3, Fig. 5).
    fn every_method() -> Vec<Method> {
        let mut all: Vec<Method> = NAMES.iter().map(|n| Method::parse(n, R).unwrap()).collect();
        for proj in [ProjKind::Random, ProjKind::Svd] {
            for rank in [1, R] {
                all.push(Method::Apollo {
                    rank,
                    proj,
                    granularity: ScaleGranularity::Tensor,
                });
            }
        }
        all.extend([false, true].map(|limiter| Method::AdamWChannelwise { limiter }));
        all
    }

    /// State the built optimizer holds after one step over one weight.
    fn live(method: Method, (rows, cols, projectable): (usize, usize, bool)) -> usize {
        let mut opt = method.build(1.0, 1.0, None).unwrap();
        let mut rng = Rng::seed_from_u64(5);
        let mut w = Matrix::zeros(rows, cols);
        let g = Matrix::randn(rows, cols, &mut rng);
        opt.step(
            &mut [ParamUpdate {
                name: "w",
                value: &mut w,
                grad: &g,
                projectable,
            }],
            0.01,
        );
        opt.state_elems()
    }

    #[test]
    fn model_equals_live_state_for_every_method_and_shape() {
        let shapes = [
            (M, N, true),
            (N, M, true),
            // A rank above the smaller dimension clamps to it.
            (3, N, true),
            (1, N, true),
            (N, 1, true),
            (M, N, false),
        ];
        for method in every_method() {
            for shape in shapes {
                assert_eq!(
                    method.state_elems(&[shape]),
                    live(method, shape),
                    "{} on {shape:?}",
                    method.label()
                );
            }
        }
    }

    #[test]
    fn table1_closed_forms() {
        let (m, n, r) = (M, N, R);
        let expected = [
            ("adamw", 2 * m * n),
            ("adamw-8bit", 2 * m * n),
            ("adam-mini", m * n + n),
            ("sgd", 0),
            ("sgd-m", m * n),
            ("apollo", 2 * n * r + 2),
            ("apollo-svd", m * r + 2 * n * r + 1),
            ("apollo-mini", 2 * n + 2),
            ("galore", m * r + 2 * n * r),
            ("galore-rp", 2 * n * r + 1),
            ("galore-8bit", m * r + 2 * n * r),
            ("fira", m * r + 2 * n * r + 1),
            ("flora", 2 * n * r + 1),
        ];
        assert_eq!(expected.map(|(name, _)| name), NAMES);
        for (name, elems) in expected {
            let method = Method::parse(name, r).unwrap();
            assert_eq!(method.state_elems(&[(m, n, true)]), elems, "{name}");
            // The larger dimension is the channel one, whichever it is.
            assert_eq!(method.state_elems(&[(n, m, true)]), elems, "{name} tall");
        }
        // Non-projectable tensors take dense AdamW under projected methods.
        assert_eq!(Method::apollo(r).state_elems(&[(m, n, false)]), 2 * m * n);
        // The rank clamps to the smaller dimension.
        assert_eq!(
            Method::galore(1000).state_elems(&[(m, n, true)]),
            m * m + 2 * n * m
        );
    }

    #[test]
    fn recipe_columns() {
        // Adam-mini has no limiter, so it clips like the AdamW family.
        assert_eq!(Method::AdamMini.grad_clip(), Some(1.0));
        assert_eq!(Method::mini().grad_clip(), None);
        assert!(Method::galore(R).pays_svd() && !Method::Flora { rank: R }.pays_svd());
        // The memory model stores INT8 moments in a quarter of f32's bytes.
        let bytes = [
            ("adamw", 4.0),
            ("adamw-8bit", 1.0),
            ("galore", 4.0),
            ("galore-8bit", 1.0),
        ];
        for (name, per_elem) in bytes {
            let method = Method::parse(name, R).unwrap();
            assert_eq!(method.bytes_per_state_elem(), per_elem, "{name}");
        }
    }

    #[test]
    fn mini_alpha_matches_paper_constant_at_512_hidden() {
        // LLaMA-60M's hidden size: the paper's α = √128 is √(512/4).
        assert!((Method::mini_alpha(512) - 128f32.sqrt()).abs() < 1e-6);
    }
}
