//! Bitwise equivalence of the fused single-pass kernels (`fused.rs`)
//! against the staged references they replace, plus finite-difference
//! gradchecks of every fused backward.
//!
//! Each fused kernel replicates the reference's per-element float
//! expressions and keeps every reduction in the reference's order (strict
//! sequential, or for the APOLLO update norm the lane order both sides
//! share), and the pooled row-band partition is a pure function
//! of `(rows, threads)` — so for finite inputs the results must be
//! *bit-identical*, not merely close, at every thread count. Shapes
//! include degenerate, prime, and pool-crossing sizes (the elementwise
//! FLOP gate passes around `rows · cols · per_elem ≥ 2^20`).

use apollo_tensor::fused::{self, reference, ChannelScale, MomentNorms, MomentsOut};
use apollo_tensor::{set_thread_override, Matrix, Rng};
use proptest::prelude::*;

/// Asserts `got` and `want` agree bit-for-bit (shape and every element's
/// `to_bits`), reporting the first mismatching index on failure.
fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: bit mismatch at flat index {idx}: got {g} ({:#010x}), want {w} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn assert_scalar_bits_eq(got: f32, want: f32, what: &str) {
    assert!(
        got.to_bits() == want.to_bits(),
        "{what}: scalar bit mismatch: got {got} ({:#010x}), want {want} ({:#010x})",
        got.to_bits(),
        want.to_bits()
    );
}

/// Runs every fused kernel against its staged reference at one thread
/// count on a `rows × cols` problem.
fn check_all_fused(rows: usize, cols: usize, seed: u64, threads: usize) {
    set_thread_override(Some(threads));
    let mut rng = Rng::seed_from_u64(seed);
    let ctx = format!("({rows}x{cols}, threads={threads})");

    // rmsnorm forward + backward
    let x = Matrix::randn(rows, cols, &mut rng);
    let gain = Matrix::rand_uniform(1, cols, 0.5, 1.5, &mut rng);
    let gout = Matrix::randn(rows, cols, &mut rng);
    let (yf, invf) = fused::fused_rmsnorm_fwd(&x, &gain, 1e-5);
    let (yr, invr) = reference::rmsnorm_fwd(&x, &gain, 1e-5);
    assert_bits_eq(&yf, &yr, &format!("rmsnorm_fwd {ctx}"));
    for (i, (a, b)) in invf.iter().zip(&invr).enumerate() {
        assert_scalar_bits_eq(*a, *b, &format!("rmsnorm inv_rms[{i}] {ctx}"));
    }
    let (dxf, dgf) = fused::fused_rmsnorm_bwd(&x, &gain, &gout, &invf);
    let (dxr, dgr) = reference::rmsnorm_bwd(&x, &gain, &gout, &invr);
    assert_bits_eq(&dxf, &dxr, &format!("rmsnorm_bwd dx {ctx}"));
    assert_bits_eq(&dgf, &dgr, &format!("rmsnorm_bwd dg {ctx}"));

    // swiglu forward + backward
    let a = Matrix::randn(rows, cols, &mut rng);
    let b = Matrix::randn(rows, cols, &mut rng);
    assert_bits_eq(
        &fused::fused_swiglu_fwd(&a, &b),
        &reference::swiglu_fwd(&a, &b),
        &format!("swiglu_fwd {ctx}"),
    );
    let (daf, dbf) = fused::fused_swiglu_bwd(&a, &b, &gout);
    let (dar, dbr) = reference::swiglu_bwd(&a, &b, &gout);
    assert_bits_eq(&daf, &dar, &format!("swiglu_bwd da {ctx}"));
    assert_bits_eq(&dbf, &dbr, &format!("swiglu_bwd db {ctx}"));

    // softmax cross-entropy forward + backward
    let logits = Matrix::randn(rows, cols, &mut rng);
    let targets: Vec<u32> = (0..rows).map(|r| (r % cols) as u32).collect();
    let (lf, exps, denoms) = fused::fused_softmax_xent_fwd(&logits, &targets);
    let (lr, probs) = reference::softmax_xent_fwd(&logits, &targets);
    assert_scalar_bits_eq(lf, lr, &format!("softmax_xent loss {ctx}"));
    // The fused cache (unnormalized exps + denoms) must reproduce the
    // staged normalized probabilities cell by cell.
    for (r, denom) in denoms.iter().enumerate() {
        for j in 0..cols {
            assert_scalar_bits_eq(
                exps.get(r, j) / denom,
                probs.get(r, j),
                &format!("softmax prob ({r},{j}) {ctx}"),
            );
        }
    }
    let upstream = 0.7f32;
    assert_bits_eq(
        &fused::fused_softmax_xent_bwd(&exps, &denoms, &targets, upstream),
        &reference::softmax_xent_bwd(&probs, &targets, upstream),
        &format!("softmax_xent_bwd {ctx}"),
    );

    // rope: fused vs staged, forward and inverse. Two sequences per matrix
    // (the last one short when rows is odd), then fewer rows than one
    // sequence: the fused angle table holds only min(seq, rows) positions.
    if cols.is_multiple_of(2) {
        let heads = if cols.is_multiple_of(4) { 2 } else { 1 };
        for seq in [rows.div_ceil(2).max(1), rows + 3] {
            for inverse in [false, true] {
                let mut xf = Matrix::randn(rows, cols, &mut rng);
                let mut xr = xf.clone();
                fused::rope_apply(&mut xf, seq, heads, 10_000.0, inverse);
                reference::rope_apply(&mut xr, seq, heads, 10_000.0, inverse);
                let what = format!("rope_apply seq={seq} inv={inverse} {ctx}");
                assert_bits_eq(&xf, &xr, &what);
            }
        }
    }

    // axpy chain (weight decay on and off)
    for decay in [1.0f32, 0.9995] {
        let mut yf = Matrix::randn(rows, cols, &mut rng);
        let mut yr = yf.clone();
        let xv = Matrix::randn(rows, cols, &mut rng);
        fused::fused_axpy_chain(&mut yf, decay, -0.01, &xv);
        reference::axpy_chain(&mut yr, decay, -0.01, &xv);
        assert_bits_eq(&yf, &yr, &format!("axpy_chain decay={decay} {ctx}"));
    }

    // adam moments + full update, two consecutive steps (t = 1, 2)
    let g1 = Matrix::randn(rows, cols, &mut rng);
    let g2 = Matrix::randn(rows, cols, &mut rng);
    let (beta1, beta2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 0.01f32);
    let mut mf = Matrix::zeros(rows, cols);
    let mut vf = Matrix::zeros(rows, cols);
    let mut uf = Matrix::zeros(0, 0);
    let mut mr = Matrix::zeros(rows, cols);
    let mut vr = Matrix::zeros(rows, cols);
    let mut ur = Matrix::zeros(0, 0);
    for (t, g) in [(1i32, &g1), (2, &g2)] {
        let bc1 = 1.0 - beta1.powi(t);
        let bc2 = 1.0 - beta2.powi(t);
        let out = MomentsOut::Update(&mut uf);
        fused::fused_adam_moments(&mut mf, &mut vf, g, beta1, beta2, bc1, bc2, eps, out);
        reference::adam_moments(&mut mr, &mut vr, &mut ur, g, beta1, beta2, bc1, bc2, eps);
        assert_bits_eq(&mf, &mr, &format!("adam m (t={t}) {ctx}"));
        assert_bits_eq(&vf, &vr, &format!("adam v (t={t}) {ctx}"));
        assert_bits_eq(&uf, &ur, &format!("adam upd (t={t}) {ctx}"));
    }
    let mut wf = Matrix::randn(rows, cols, &mut rng);
    let mut wr = wf.clone();
    let mut mf = Matrix::zeros(rows, cols);
    let mut vf = Matrix::zeros(rows, cols);
    let mut mr = Matrix::zeros(rows, cols);
    let mut vr = Matrix::zeros(rows, cols);
    for (t, g) in [(1i32, &g1), (2, &g2)] {
        let bc1 = 1.0 - beta1.powi(t);
        let bc2 = 1.0 - beta2.powi(t);
        let decay = 1.0 - lr * 0.1;
        fused::fused_adam_update(
            &mut wf, g, &mut mf, &mut vf, beta1, beta2, bc1, bc2, eps, lr, decay,
        );
        reference::adam_update(
            &mut wr, g, &mut mr, &mut vr, beta1, beta2, bc1, bc2, eps, lr, decay,
        );
        assert_bits_eq(&wf, &wr, &format!("adam w (t={t}) {ctx}"));
    }

    // apollo scaled-update construction, all three channel geometries
    let grad = Matrix::randn(rows, cols, &mut rng);
    let col_s: Vec<f32> = (0..cols).map(|j| 0.5 + 0.01 * j as f32).collect();
    let row_s: Vec<f32> = (0..rows).map(|r| 1.5 - 0.003 * r as f32).collect();
    let scales = [
        ChannelScale::Tensor(1.37),
        ChannelScale::Cols(&col_s),
        ChannelScale::Rows(&row_s),
    ];
    for (si, s) in scales.iter().enumerate() {
        let mut uf = Matrix::zeros(0, 0);
        let mut ur = Matrix::zeros(0, 0);
        let nf = fused::fused_apollo_scale(&mut uf, &grad, *s, 11.313_708);
        let nr = reference::apollo_scale(&mut ur, &grad, *s, 11.313_708);
        assert_bits_eq(&uf, &ur, &format!("apollo_scale[{si}] update {ctx}"));
        assert_scalar_bits_eq(nf, nr, &format!("apollo_scale[{si}] norm {ctx}"));
    }

    set_thread_override(None);
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn adversarial_shapes_match_reference_at_all_thread_counts() {
    // (rows, cols): degenerate, prime, wide, tall, and two sizes crossing
    // the elementwise parallelism gate (rows·cols·per_elem ≥ 2^20 with
    // rows ≥ 2·threads) so the pooled row-band path actually runs.
    let shapes = [
        (1, 1),
        (1, 7),
        (7, 13),
        (3, 257),   // wide: row loops with a lane tail
        (257, 3),   // tall
        (64, 96),   // typical norm/activation panel, below the gate
        (128, 512), // proxy activation panel; crosses the high-cost gates
        (512, 600), // crosses every kernel's gate at 2+ threads
    ];
    for (si, &(rows, cols)) in shapes.iter().enumerate() {
        for &t in &THREAD_COUNTS {
            check_all_fused(rows, cols, 0xF05E_D000 + si as u64, t);
        }
    }
}

#[test]
fn results_are_invariant_across_thread_counts() {
    // Compare thread counts against each other directly on a pool-crossing
    // shape (not just against the reference).
    let mut rng = Rng::seed_from_u64(44);
    let x = Matrix::randn(512, 600, &mut rng);
    let gain = Matrix::rand_uniform(1, 600, 0.5, 1.5, &mut rng);
    set_thread_override(Some(1));
    let (base, _) = fused::fused_rmsnorm_fwd(&x, &gain, 1e-5);
    for &t in &THREAD_COUNTS[1..] {
        set_thread_override(Some(t));
        let (y, _) = fused::fused_rmsnorm_fwd(&x, &gain, 1e-5);
        assert_bits_eq(&y, &base, &format!("rmsnorm threads={t} vs threads=1"));
    }
    set_thread_override(None);
}

/// Shapes for the APOLLO update kernels: a single row, `cols % 8 != 0`
/// (the lane tail), and one that crosses the pool gate at 2+ threads.
const APOLLO_SHAPES: [(usize, usize); 5] = [(1, 37), (5, 8), (13, 45), (64, 96), (512, 600)];

#[test]
fn apollo_apply_matches_the_staged_chain_at_every_thread_count() {
    // norm + apply (no update matrix) against fused_apollo_scale →
    // scale_assign(clamp) when the limiter clamped → fused_axpy_chain; the
    // norm both return is the lane norm, identical at every thread count.
    for (si, &(rows, cols)) in APOLLO_SHAPES.iter().enumerate() {
        let mut rng = Rng::seed_from_u64(0xA1_0000 + si as u64);
        let grad = Matrix::randn(rows, cols, &mut rng).scale(3.0);
        let w0 = Matrix::randn(rows, cols, &mut rng);
        let col_s: Vec<f32> = (0..cols).map(|_| rng.uniform_in(0.2, 2.0)).collect();
        let row_s: Vec<f32> = (0..rows).map(|_| rng.uniform_in(0.2, 2.0)).collect();
        let scales = [
            ChannelScale::Tensor(0.83),
            ChannelScale::Cols(&col_s),
            ChannelScale::Rows(&row_s),
        ];
        for (ci, &scale) in scales.iter().enumerate() {
            for clamp in [1.0f32, 0.37] {
                for decay in [1.0f32, 0.999] {
                    let mut update = Matrix::zeros(0, 0);
                    let mut staged = w0.clone();
                    set_thread_override(Some(1));
                    let staged_norm = fused::fused_apollo_scale(&mut update, &grad, scale, 2.5);
                    // The lane norm against a two-pass f64 reference:
                    // materialised update, one flat f64 sum.
                    let flat = update
                        .as_slice()
                        .iter()
                        .map(|&u| u as f64 * u as f64)
                        .sum::<f64>()
                        .sqrt();
                    assert!(
                        (staged_norm as f64 - flat).abs() <= 1e-6 * flat,
                        "lane norm {staged_norm} vs f64 reference {flat}"
                    );
                    if clamp != 1.0 {
                        update.scale_assign(clamp);
                    }
                    fused::fused_axpy_chain(&mut staged, decay, -0.01, &update);
                    for threads in [1, 2, 4] {
                        set_thread_override(Some(threads));
                        let ctx = format!(
                            "({rows}x{cols}, scale[{ci}], clamp={clamp}, decay={decay}, \
                             threads={threads})"
                        );
                        let norm = fused::fused_apollo_norm(&grad, scale, 2.5);
                        assert_scalar_bits_eq(norm, staged_norm, &format!("norm {ctx}"));
                        let mut rebuilt = Matrix::zeros(0, 0);
                        let again = fused::fused_apollo_scale(&mut rebuilt, &grad, scale, 2.5);
                        assert_scalar_bits_eq(again, staged_norm, &format!("staged norm {ctx}"));
                        let mut w = w0.clone();
                        fused::fused_apollo_apply(&mut w, &grad, scale, 2.5, clamp, decay, -0.01);
                        assert_bits_eq(&w, &staged, &format!("apply {ctx}"));
                    }
                }
            }
        }
    }
    set_thread_override(None);
}

/// Moment shapes for the one-pass moments-and-norms kernel: Mini's `1 × n`
/// (wide and tall), ragged widths (`cols % 8 != 0`, and a prime), and the
/// LLaMA-60M APOLLO shapes at rank 128, which cross the pool gate at 2+
/// threads in both orientations.
const MOMENT_SHAPES: [(usize, usize); 8] = [
    (1, 512),
    (1, 37),
    (1376, 1),
    (7, 13),
    (13, 45),
    (96, 1001),
    (128, 1376),
    (1376, 128),
];

#[test]
fn adam_moment_norms_match_the_staged_reductions_at_every_thread_count() {
    // The one pass (moments, and Ñ or the channel norms of Ñ and g) against
    // staged `adam_moments` followed by `col_norms` / `row_norms` /
    // `fro_norm` over the materialised update and the gradient, at steps
    // t = 1 and t = 3 of one moment history.
    let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
    for (si, &(rows, cols)) in MOMENT_SHAPES.iter().enumerate() {
        let mut rng = Rng::seed_from_u64(0xAD_0000 + si as u64);
        let grads: Vec<Matrix> = (0..3)
            .map(|_| Matrix::randn(rows, cols, &mut rng))
            .collect();
        let (mut m_ref, mut v_ref, mut nt_ref) = (
            Matrix::zeros(rows, cols),
            Matrix::zeros(rows, cols),
            Matrix::zeros(0, 0),
        );
        let mut fused_states: Vec<(Matrix, Matrix)> = Vec::new();
        for (step, g) in grads.iter().enumerate() {
            let t = step as i32 + 1;
            let (bc1, bc2) = (1.0 - beta1.powi(t), 1.0 - beta2.powi(t));
            reference::adam_moments(
                &mut m_ref,
                &mut v_ref,
                &mut nt_ref,
                g,
                beta1,
                beta2,
                bc1,
                bc2,
                eps,
            );
            // `None` asks for `Ñ` itself, written out; `Some` for norms only.
            let staged = [
                (None, Vec::new(), Vec::new()),
                (Some(MomentNorms::Cols), nt_ref.col_norms(), g.col_norms()),
                (Some(MomentNorms::Rows), nt_ref.row_norms(), g.row_norms()),
                (
                    Some(MomentNorms::Tensor),
                    vec![nt_ref.fro_norm()],
                    vec![g.fro_norm()],
                ),
            ];
            // One moment history per (request, threads) case, each advanced
            // through every step so t = 3 starts from its own t = 2.
            let cases = staged
                .iter()
                .flat_map(|case| [1usize, 2, 4].map(|threads| (case, threads)));
            for (ci, ((norms, nt_norms, g_norms), threads)) in cases.enumerate() {
                if fused_states.len() <= ci {
                    fused_states.push((Matrix::zeros(rows, cols), Matrix::zeros(rows, cols)));
                }
                let (m, v) = &mut fused_states[ci];
                set_thread_override(Some(threads));
                let mut nt = Matrix::zeros(0, 0);
                let out = match norms {
                    None => MomentsOut::Update(&mut nt),
                    Some(norms) => MomentsOut::Norms(*norms),
                };
                let got = fused::fused_adam_moments(m, v, g, beta1, beta2, bc1, bc2, eps, out);
                let ctx = format!("({rows}x{cols}, {norms:?}, threads={threads}, t={t})");
                assert_bits_eq(m, &m_ref, &format!("m {ctx}"));
                assert_bits_eq(v, &v_ref, &format!("v {ctx}"));
                if norms.is_none() {
                    assert_bits_eq(&nt, &nt_ref, &format!("Ñ {ctx}"));
                }
                assert_eq!(got.0.len(), nt_norms.len(), "‖Ñ‖ count {ctx}");
                assert_eq!(got.1.len(), g_norms.len(), "‖g‖ count {ctx}");
                for (c, (a, b)) in got.0.iter().zip(nt_norms).enumerate() {
                    assert_scalar_bits_eq(*a, *b, &format!("‖Ñ[{c}]‖ {ctx}"));
                }
                for (c, (a, b)) in got.1.iter().zip(g_norms).enumerate() {
                    assert_scalar_bits_eq(*a, *b, &format!("‖g[{c}]‖ {ctx}"));
                }
            }
        }
    }
    set_thread_override(None);
}

#[test]
fn rope_table_at_row_positions_matches_rope_apply_per_row() {
    // The decode path's entry point (a table over each row's own position)
    // against the graph path's whole-matrix rotation: row r of rope_apply
    // is row r of a table built for positions r % seq.
    let (seq, heads, hd) = (6, 2, 8);
    let rows = 2 * seq; // batch 2
    let mut rng = Rng::seed_from_u64(45);
    let x = Matrix::randn(rows, heads * hd, &mut rng);
    let mut whole = x.clone();
    fused::rope_apply(&mut whole, seq, heads, 10_000.0, false);
    let table = fused::RopeTable::new((0..rows).map(|r| r % seq), hd, 10_000.0, false);
    for r in 0..rows {
        let mut row = x.row(r).to_vec();
        table.rotate(&mut row, r, heads);
        for (j, (a, b)) in row.iter().zip(whole.row(r)).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "rope row {r} col {j}: {a} vs {b}"
            );
        }
    }
}

/// Central finite-difference gradient of scalar-valued `f` w.r.t. `param`.
fn numeric_grad(mut f: impl FnMut(&Matrix) -> f32, param: &Matrix, eps: f32) -> Matrix {
    let mut g = Matrix::zeros(param.rows(), param.cols());
    for r in 0..param.rows() {
        for c in 0..param.cols() {
            let mut p = param.clone();
            p.set(r, c, param.get(r, c) + eps);
            let hi = f(&p);
            p.set(r, c, param.get(r, c) - eps);
            let lo = f(&p);
            g.set(r, c, (hi - lo) / (2.0 * eps));
        }
    }
    g
}

fn assert_grad_close(analytic: &Matrix, numeric: &Matrix, tol: f32) {
    assert_eq!(analytic.shape(), numeric.shape());
    for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
        let scale = 1.0 + a.abs().max(n.abs());
        assert!((a - n).abs() / scale < tol, "analytic {a} vs numeric {n}");
    }
}

#[test]
fn fused_rmsnorm_bwd_gradchecks() {
    let mut rng = Rng::seed_from_u64(46);
    let x0 = Matrix::randn(3, 6, &mut rng);
    let g0 = Matrix::rand_uniform(1, 6, 0.5, 1.5, &mut rng);
    let w = Matrix::randn(3, 6, &mut rng); // loss = Σ w ⊙ y
    let loss = |x: &Matrix, g: &Matrix| {
        let (y, _) = fused::fused_rmsnorm_fwd(x, g, 1e-5);
        y.hadamard(&w).sum()
    };
    let (_, inv) = fused::fused_rmsnorm_fwd(&x0, &g0, 1e-5);
    let (dx, dg) = fused::fused_rmsnorm_bwd(&x0, &g0, &w, &inv);
    assert_grad_close(&dx, &numeric_grad(|p| loss(p, &g0), &x0, 1e-2), 3e-2);
    assert_grad_close(&dg, &numeric_grad(|p| loss(&x0, p), &g0, 1e-2), 3e-2);
}

#[test]
fn fused_swiglu_bwd_gradchecks() {
    let mut rng = Rng::seed_from_u64(47);
    let a0 = Matrix::randn(2, 5, &mut rng);
    let b0 = Matrix::randn(2, 5, &mut rng);
    let w = Matrix::randn(2, 5, &mut rng);
    let loss = |a: &Matrix, b: &Matrix| fused::fused_swiglu_fwd(a, b).hadamard(&w).sum();
    let (da, db) = fused::fused_swiglu_bwd(&a0, &b0, &w);
    assert_grad_close(&da, &numeric_grad(|p| loss(p, &b0), &a0, 1e-2), 2e-2);
    assert_grad_close(&db, &numeric_grad(|p| loss(&a0, p), &b0, 1e-2), 2e-2);
}

#[test]
fn fused_softmax_xent_bwd_gradchecks() {
    let logits0 = Matrix::from_rows(&[&[2.0, 0.0, -1.0], &[0.5, 0.5, 0.5]]);
    let targets = [0u32, 2];
    let upstream = 1.0f32;
    let loss = |l: &Matrix| fused::fused_softmax_xent_fwd(l, &targets).0;
    let (_, exps, denoms) = fused::fused_softmax_xent_fwd(&logits0, &targets);
    let dl = fused::fused_softmax_xent_bwd(&exps, &denoms, &targets, upstream);
    assert_grad_close(&dl, &numeric_grad(loss, &logits0, 1e-3), 1e-2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_shapes_match_reference(
        seed in any::<u64>(),
        rows in 1usize..24,
        cols in 1usize..40,
        ti in 0usize..THREAD_COUNTS.len(),
    ) {
        check_all_fused(rows, cols, seed, THREAD_COUNTS[ti]);
    }
}
