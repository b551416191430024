//! Failure-injection and edge-case tests for every optimizer: degenerate
//! shapes, extreme ranks, zero/huge gradients, and state-reset behaviour.

use apollo_optim::{
    AdamMini, AdamW, AdamWChannelwise, Apollo, Fira, Flora, GaLore, Optimizer, ParamUpdate,
    ScaleGranularity, Sgd, SgdMomentum,
};
use apollo_tensor::{Matrix, Rng};

fn all_optimizers() -> Vec<Box<dyn Optimizer>> {
    vec![
        Box::new(Sgd::new()),
        Box::new(SgdMomentum::new(0.9)),
        Box::new(AdamW::new()),
        Box::new(AdamW::adam8bit(32)),
        Box::new(AdamMini::new()),
        Box::new(AdamWChannelwise::new()),
        Box::new(Apollo::new(4, 10)),
        Box::new(Apollo::new(4, 10).with_svd()),
        Box::new(Apollo::mini(10)),
        Box::new(Apollo::new(4, 10).with_granularity(ScaleGranularity::Tensor)),
        Box::new(GaLore::new(4, 10)),
        Box::new(GaLore::new(4, 10).with_random_projection()),
        Box::new(GaLore::galore8bit(4, 10, 32)),
        Box::new(Fira::new(4, 10)),
        Box::new(Flora::new(4, 10)),
    ]
}

fn step_once(opt: &mut dyn Optimizer, w: &mut Matrix, g: &Matrix) {
    let mut params = [ParamUpdate {
        name: "w",
        value: w,
        grad: g,
        projectable: true,
    }];
    opt.step(&mut params, 1e-2);
}

#[test]
fn one_by_one_tensors_do_not_panic() {
    for mut opt in all_optimizers() {
        let mut w = Matrix::full(1, 1, 1.0);
        let g = Matrix::full(1, 1, 0.5);
        for _ in 0..3 {
            step_once(opt.as_mut(), &mut w, &g);
        }
        assert!(w.all_finite(), "{}", opt.name());
    }
}

#[test]
fn single_row_and_single_column_tensors_work() {
    for mut opt in all_optimizers() {
        let name = opt.name();
        let mut row = Matrix::full(1, 16, 1.0);
        let g_row = Matrix::full(1, 16, 0.1);
        step_once(opt.as_mut(), &mut row, &g_row);
        assert!(row.all_finite(), "{name} row");
    }
    for mut opt in all_optimizers() {
        let name = opt.name();
        let mut col = Matrix::full(16, 1, 1.0);
        let g_col = Matrix::full(16, 1, 0.1);
        step_once(opt.as_mut(), &mut col, &g_col);
        assert!(col.all_finite(), "{name} col");
    }
}

#[test]
fn rank_larger_than_both_dims_is_clamped() {
    let mut opt = Apollo::new(1000, 10);
    let mut w = Matrix::zeros(4, 6);
    let g = Matrix::full(4, 6, 1.0);
    for _ in 0..3 {
        step_once(&mut opt, &mut w, &g);
    }
    assert!(w.all_finite());
    // 2·n·r(clamped to 4) + 2.
    assert_eq!(opt.state_elems(), 2 * 6 * 4 + 2);
}

#[test]
fn zero_gradients_leave_weights_unchanged_without_decay() {
    for mut opt in all_optimizers() {
        let name = opt.name();
        let mut w = Matrix::full(4, 8, 1.0);
        let g = Matrix::zeros(4, 8);
        for _ in 0..3 {
            step_once(opt.as_mut(), &mut w, &g);
        }
        for &x in w.as_slice() {
            assert!((x - 1.0).abs() < 1e-5, "{name}: moved on zero grad ({x})");
        }
    }
}

#[test]
fn huge_gradients_do_not_produce_nan() {
    for mut opt in all_optimizers() {
        let name = opt.name();
        let mut w = Matrix::zeros(4, 8);
        let g = Matrix::full(4, 8, 1e20);
        for _ in 0..3 {
            step_once(opt.as_mut(), &mut w, &g);
        }
        assert!(w.all_finite(), "{name}: non-finite weights from huge grads");
    }
}

#[test]
fn tiny_gradients_do_not_produce_nan() {
    for mut opt in all_optimizers() {
        let name = opt.name();
        let mut w = Matrix::zeros(4, 8);
        let g = Matrix::full(4, 8, 1e-30);
        for _ in 0..3 {
            step_once(opt.as_mut(), &mut w, &g);
        }
        assert!(w.all_finite(), "{name}");
    }
}

#[test]
fn reset_state_allows_param_list_change() {
    for mut opt in all_optimizers() {
        let mut w = Matrix::zeros(4, 8);
        let g = Matrix::full(4, 8, 1.0);
        step_once(opt.as_mut(), &mut w, &g);
        opt.reset_state();
        // New shape after reset must be accepted.
        let mut w2 = Matrix::zeros(2, 3);
        let g2 = Matrix::full(2, 3, 1.0);
        step_once(opt.as_mut(), &mut w2, &g2);
        assert!(w2.all_finite(), "{}", opt.name());
    }
}

#[test]
fn alternating_gradient_signs_remain_stable() {
    let mut rng = Rng::seed_from_u64(500);
    for mut opt in all_optimizers() {
        let name = opt.name();
        let mut w = Matrix::zeros(4, 8);
        for i in 0..20 {
            let mut g = Matrix::randn(4, 8, &mut rng);
            g.scale_assign(if i % 2 == 0 { 1.0 } else { -1.0 });
            step_once(opt.as_mut(), &mut w, &g);
        }
        assert!(w.all_finite(), "{name}");
        assert!(
            w.fro_norm() < 100.0,
            "{name}: runaway weights {}",
            w.fro_norm()
        );
    }
}

#[test]
fn mixed_projectable_and_dense_params_route_correctly() {
    let mut opt = Apollo::new(4, 10);
    let mut big = Matrix::zeros(8, 16);
    let mut norm = Matrix::full(1, 16, 1.0);
    let g_big = Matrix::full(8, 16, 1.0);
    let g_norm = Matrix::full(1, 16, 0.1);
    for _ in 0..3 {
        let mut params = [
            ParamUpdate {
                name: "w",
                value: &mut big,
                grad: &g_big,
                projectable: true,
            },
            ParamUpdate {
                name: "gain",
                value: &mut norm,
                grad: &g_norm,
                projectable: false,
            },
        ];
        opt.step(&mut params, 1e-2);
    }
    // low-rank part: 2·16·4 + 2; dense part: 2·16.
    assert_eq!(opt.state_elems(), (2 * 16 * 4 + 2) + 2 * 16);
}

#[test]
fn state_load_rejects_a_differently_configured_blob() {
    let g = Matrix::full(8, 32, 1.0);
    let saved_by = |mut opt: Box<dyn Optimizer>| {
        let mut w = Matrix::zeros(8, 32);
        step_once(opt.as_mut(), &mut w, &g);
        opt.state_save().unwrap()
    };

    // Same display name, different rank: used to load `Ok(())` and carry on
    // at rank 4 (258 state elems instead of 514).
    let rank4 = saved_by(Box::new(Apollo::new(4, 10)));
    let mut rank8 = Apollo::new(8, 10);
    let mut w = Matrix::zeros(8, 32);
    step_once(&mut rank8, &mut w, &g);
    assert_eq!(rank8.state_elems(), 2 * 32 * 8 + 2);
    let err = rank8.state_load(&rank4).unwrap_err();
    assert!(
        err.contains("(Random, 4)") && err.contains("(Random, 8)"),
        "error: {err}"
    );
    assert_eq!(rank8.state_elems(), 2 * 32 * 8 + 2, "state must survive");

    // 8-bit GaLore names its group but not its projection kind.
    let svd = saved_by(Box::new(GaLore::galore8bit(4, 10, 32)));
    let mut random = GaLore::galore8bit(4, 10, 32).with_random_projection();
    assert!(random.state_load(&svd).is_err());

    // A limiter the loading optimizer would not have built.
    let limited = saved_by(Box::new(Apollo::new(4, 10)));
    assert!(Apollo::new(4, 10)
        .without_limiter()
        .state_load(&limited)
        .is_err());

    // The refresh period is not part of the comparison (`apollo-search`
    // re-points it after a load), and neither is a rank the shape clamps.
    Apollo::new(4, 50).state_load(&rank4).unwrap();
    let mut clamped = Apollo::new(1000, 10);
    let mut small = Matrix::zeros(4, 6);
    step_once(&mut clamped, &mut small, &Matrix::full(4, 6, 1.0));
    Apollo::new(500, 10)
        .state_load(&clamped.state_save().unwrap())
        .unwrap();
}

#[test]
fn state_load_rejects_older_layout_versions() {
    // Version 2 has the same bytes as version 3, but its projector seeds
    // meant a different `P`: loading one would resume the stored moments
    // into a subspace they were never estimated in.
    let g = Matrix::full(8, 32, 1.0);
    for mut opt in all_optimizers() {
        let mut w = Matrix::zeros(8, 32);
        step_once(opt.as_mut(), &mut w, &g);
        let saved = opt.state_save().unwrap();
        // Header: u64 name length, name, version byte.
        let version_at = 8 + opt.name().len();
        assert_eq!(saved[version_at], 3, "{}", opt.name());
        for old in [1u8, 2] {
            let mut blob = saved.clone();
            blob[version_at] = old;
            let err = opt.state_load(&blob).unwrap_err();
            assert!(
                err.contains(&format!("version {old}")) && err.contains("different random `P`"),
                "{}: {err}",
                opt.name()
            );
            assert_eq!(opt.state_save().unwrap(), saved, "state must survive");
        }
    }
}
