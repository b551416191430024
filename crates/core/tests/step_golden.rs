//! Golden fingerprints of every optimizer configuration's step arithmetic
//! and state accounting.
//!
//! Each config runs 25 steps over a wide (8×32), a tall (32×8) and a
//! non-projectable (1×16) tensor with `update_freq = 10` — three subspace
//! refreshes, SVD ones included — under a gradient-magnitude ramp with one
//! spike, so the norm-growth limiter clamps. The final weight bits (FNV-1a),
//! `state_elems()` and `state_bytes()` must equal the constants below, which
//! were recorded before the Adam-family optimizers were folded onto one
//! per-tensor step engine: any reordering of float operations, change of
//! per-tensor seed derivation or drift in the Table-1 accounting shows here.
//!
//! Four rows' `state_bytes` constants are deliberately not what the old
//! per-optimizer accounting returned, but `4 × state_elems`: Fira added one
//! *byte* per tensor for its limiter scalar (2,435 B), and GaLore-RP/Flora
//! charged the projector seed 8 B (2,192 B) where `state_elems` — and
//! APOLLO's `state_bytes` — count one f32.
//!
//! Deliberate re-pins since (weight fingerprints only; no row's
//! `state_elems`/`state_bytes` has ever moved):
//!
//! - the random projector draws `P` from the counter-based normal stream
//!   (`apollo_tensor::fill_normal`) instead of a sequential `Rng::gauss`:
//!   exactly the `ProjKind::Random` rows — `apollo`, `apollo-mini`,
//!   `galore-rp`, `flora`, `apollo-tensor-r4`, `apollo+wd`.

use apollo_obs::Obs;
use apollo_optim::{
    AdamMini, AdamW, AdamWChannelwise, Apollo, Fira, Flora, GaLore, Optimizer, ParamUpdate,
    ScaleGranularity, Sgd, SgdMomentum,
};
use apollo_tensor::{Matrix, Rng};

const STEPS: usize = 25;
const FREQ: usize = 10;
const RANK: usize = 4;
const GROUP: usize = 32;
const LR: f32 = 1e-2;
/// `(name, rows, cols, projectable)`.
const TENSORS: [(&str, usize, usize, bool); 3] = [
    ("wide", 8, 32, true),
    ("tall", 32, 8, true),
    ("gain", 1, 16, false),
];

fn channelwise_decayed() -> AdamWChannelwise {
    let mut opt = AdamWChannelwise::new();
    opt.weight_decay = 0.1;
    opt
}

/// Every configuration under golden: the 13 CLI optimizer names, the
/// Section-3 structured rule with and without limiter, tensor-granularity
/// APOLLO above rank 1, and one `weight_decay > 0` variant per family.
fn configs() -> Vec<(&'static str, Box<dyn Optimizer>)> {
    vec![
        ("adamw", Box::new(AdamW::new())),
        ("adamw-8bit", Box::new(AdamW::adam8bit(GROUP))),
        ("adam-mini", Box::new(AdamMini::new())),
        ("sgd", Box::new(Sgd::new())),
        ("sgd-m", Box::new(SgdMomentum::new(0.9))),
        ("apollo", Box::new(Apollo::new(RANK, FREQ))),
        ("apollo-svd", Box::new(Apollo::new(RANK, FREQ).with_svd())),
        ("apollo-mini", Box::new(Apollo::mini(FREQ).with_alpha(2.0))),
        ("galore", Box::new(GaLore::new(RANK, FREQ))),
        (
            "galore-rp",
            Box::new(GaLore::new(RANK, FREQ).with_random_projection()),
        ),
        (
            "galore-8bit",
            Box::new(GaLore::galore8bit(RANK, FREQ, GROUP)),
        ),
        ("fira", Box::new(Fira::new(RANK, FREQ))),
        ("flora", Box::new(Flora::new(RANK, FREQ))),
        ("adamw-channelwise+nl", Box::new(AdamWChannelwise::new())),
        (
            "adamw-channelwise",
            Box::new(AdamWChannelwise::new().without_limiter()),
        ),
        (
            "apollo-tensor-r4",
            Box::new(Apollo::new(RANK, FREQ).with_granularity(ScaleGranularity::Tensor)),
        ),
        ("adamw+wd", Box::new(AdamW::new().with_weight_decay(0.1))),
        ("adamw-channelwise+wd", Box::new(channelwise_decayed())),
        (
            "apollo+wd",
            Box::new(Apollo::new(RANK, FREQ).with_weight_decay(0.1)),
        ),
        (
            "galore+wd",
            Box::new(GaLore::new(RANK, FREQ).with_weight_decay(0.1)),
        ),
        (
            "fira+wd",
            Box::new(Fira::new(RANK, FREQ).with_weight_decay(0.1)),
        ),
    ]
}

/// `(config, FNV-1a of final weight bits, state_elems, state_bytes)`.
const GOLDEN: &[(&str, u64, usize, usize)] = &[
    ("adamw", 0xe6c012d4fa519549, 1056, 4224),
    ("adamw-8bit", 0x5ccbcca4593b9d2a, 1056, 1192),
    ("adam-mini", 0xa6f9f3f3fa241f72, 608, 2432),
    ("sgd", 0x669dc617a7a63d8b, 0, 0),
    ("sgd-m", 0x870ed5ea8f696525, 528, 2112),
    ("apollo", 0x6b1fa12ef24b5336, 548, 2192),
    ("apollo-svd", 0x5a271104e3f845db, 610, 2440),
    ("apollo-mini", 0xe88324fb12dd0917, 164, 656),
    ("galore", 0x117e3289f80b4279, 608, 2432),
    ("galore-rp", 0xbc01fe683984c08d, 546, 2184),
    ("galore-8bit", 0x7a37ff1fb47d1071, 608, 872),
    ("fira", 0x67a6c66468182a13, 610, 2440),
    ("flora", 0x73d11de5fd3488ab, 546, 2184),
    ("adamw-channelwise+nl", 0xd30042a0e87e6f10, 1059, 4236),
    ("adamw-channelwise", 0xfbfd55e653d3188b, 1056, 4224),
    ("apollo-tensor-r4", 0x881fc271a6a86ea9, 548, 2192),
    ("adamw+wd", 0x7366091cd7a0ce5b, 1056, 4224),
    ("adamw-channelwise+wd", 0x4f572886ca17db55, 1059, 4236),
    ("apollo+wd", 0xc0fa945af56cd0a8, 548, 2192),
    ("galore+wd", 0x042885db21a01ccb, 608, 2432),
    ("fira+wd", 0xe49aa65ff1390de6, 610, 2440),
];

/// Configs whose updates pass through the norm-growth limiter; the ramp
/// must make it clamp, or the golden would not cover that code.
const LIMITED: [&str; 9] = [
    "apollo",
    "apollo-svd",
    "apollo-mini",
    "fira",
    "adamw-channelwise+nl",
    "apollo-tensor-r4",
    "adamw-channelwise+wd",
    "apollo+wd",
    "fira+wd",
];

fn fnv1a(weights: &[Matrix]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in weights {
        for x in w.as_slice() {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Runs one config; returns its golden row and how often the limiter
/// clamped.
fn run(opt: &mut dyn Optimizer) -> (u64, usize, usize, u64) {
    let obs = Obs::enabled(1);
    opt.attach_observer(obs.clone());
    let mut rng = Rng::seed_from_u64(0x601D);
    let mut weights: Vec<Matrix> = TENSORS
        .iter()
        .map(|&(_, r, c, _)| Matrix::randn(r, c, &mut rng))
        .collect();
    for step in 0..STEPS {
        // Magnitude ramp with one spike: the normalised update outgrows
        // γ = 1.01 on most steps.
        let spike = if step == 12 { 8.0 } else { 1.0 };
        let magnitude = (1.0 + 0.35 * step as f32) * spike;
        let grads: Vec<Matrix> = TENSORS
            .iter()
            .map(|&(_, r, c, _)| Matrix::randn(r, c, &mut rng).scale(magnitude))
            .collect();
        let mut params: Vec<ParamUpdate<'_>> = TENSORS
            .iter()
            .zip(weights.iter_mut())
            .zip(&grads)
            .map(|((&(name, _, _, projectable), w), g)| ParamUpdate {
                name,
                value: w,
                grad: g,
                projectable,
            })
            .collect();
        obs.set_step(step);
        opt.step(&mut params, LR);
    }
    (
        fnv1a(&weights),
        opt.state_elems(),
        opt.state_bytes(),
        obs.counter_value("limiter_clips"),
    )
}

#[test]
fn every_config_matches_its_recorded_fingerprint() {
    let mut mismatches = Vec::new();
    for (i, (name, mut opt)) in configs().into_iter().enumerate() {
        let (fnv, elems, bytes, clips) = run(opt.as_mut());
        assert_eq!(
            LIMITED.contains(&name),
            clips > 0,
            "{name}: {clips} limiter clamps"
        );
        // One accounting routine: every f32-equivalent element is 4 bytes
        // unless the moments are INT8.
        if !name.ends_with("8bit") {
            assert_eq!(bytes, 4 * elems, "{name}: state_bytes != 4·state_elems");
        }
        let got = (name, fnv, elems, bytes);
        if GOLDEN.get(i) != Some(&got) {
            mismatches.push(format!("    (\"{name}\", {fnv:#018x}, {elems}, {bytes}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "rows that differ from GOLDEN:\n{}",
        mismatches.join("\n")
    );
}
