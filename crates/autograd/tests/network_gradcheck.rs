//! End-to-end gradient checks through composite networks (multiple op
//! kinds chained), exercising interactions the per-op unit tests cannot.

use apollo_autograd::Graph;
use apollo_tensor::{Matrix, Rng};

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

fn assert_close(analytic: &Matrix, numeric: &Matrix, tol: f32) {
    assert_eq!(analytic.shape(), numeric.shape());
    for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
        let scale = 1.0 + a.abs().max(n.abs());
        assert!((a - n).abs() / scale < tol, "analytic {a} vs numeric {n}");
    }
}

/// A miniature transformer block: rmsnorm → attention (with RoPE) →
/// residual → rmsnorm → SwiGLU → residual → CE loss. Gradcheck every
/// parameter.
#[test]
fn transformer_block_gradcheck() {
    let (batch, seq, heads, hd) = (1usize, 4usize, 2usize, 4usize);
    let h = heads * hd; // 8
    let inter = 6;
    let vocab = 10;
    let mut rng = Rng::seed_from_u64(77);

    let x0 = Matrix::randn(batch * seq, h, &mut rng);
    let gains0 = Matrix::rand_uniform(1, h, 0.8, 1.2, &mut rng);
    let wq0 = Matrix::randn_scaled(h, h, 0.3, &mut rng);
    let wg0 = Matrix::randn_scaled(h, inter, 0.3, &mut rng);
    let wu0 = Matrix::randn_scaled(h, inter, 0.3, &mut rng);
    let wd0 = Matrix::randn_scaled(inter, h, 0.3, &mut rng);
    let head0 = Matrix::randn_scaled(h, vocab, 0.3, &mut rng);
    let targets = [1u32, 3, 5, 7];

    // params order: gains, wq, wg, wu, wd, head
    let forward = |gains: &Matrix,
                   wq: &Matrix,
                   wg: &Matrix,
                   wu: &Matrix,
                   wd: &Matrix,
                   head: &Matrix|
     -> (f32, Vec<Matrix>) {
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let gn = g.param(gains);
        let q_w = g.param(wq);
        let gate_w = g.param(wg);
        let up_w = g.param(wu);
        let down_w = g.param(wd);
        let head_w = g.param(head);

        let normed = g.rmsnorm(x, gn, 1e-5);
        let q0 = g.matmul(normed, q_w);
        let q = g.rope(q0, seq, heads, 1000.0);
        let att = g.causal_attention(q, q, normed, batch, seq, heads);
        let res1 = g.add(x, att);
        let gate_pre = g.matmul(res1, gate_w);
        let gate = g.silu(gate_pre);
        let up = g.matmul(res1, up_w);
        let act = g.mul(gate, up);
        let mlp = g.matmul(act, down_w);
        let res2 = g.add(res1, mlp);
        let logits = g.matmul(res2, head_w);
        let loss = g.cross_entropy(logits, &targets);
        let value = g.value(loss).get(0, 0);
        g.backward(loss);
        let grads = [gn, q_w, gate_w, up_w, down_w, head_w]
            .iter()
            .map(|&id| g.grad(id).clone())
            .collect();
        (value, grads)
    };

    let (_, grads) = forward(&gains0, &wq0, &wg0, &wu0, &wd0, &head0);
    let params: [&Matrix; 6] = [&gains0, &wq0, &wg0, &wu0, &wd0, &head0];
    for (i, p) in params.iter().enumerate() {
        let numeric = numeric_grad(
            |alt| {
                let mut ps: Vec<Matrix> = params.iter().map(|&m| m.clone()).collect();
                ps[i] = alt.clone();
                forward(&ps[0], &ps[1], &ps[2], &ps[3], &ps[4], &ps[5]).0
            },
            p,
            2e-2,
        );
        assert_close(&grads[i], &numeric, 5e-2);
    }
}

/// Shared-parameter networks accumulate gradients correctly: using the same
/// weight twice doubles its gradient contribution.
#[test]
fn weight_sharing_accumulates() {
    let mut rng = Rng::seed_from_u64(78);
    let x0 = Matrix::randn(2, 3, &mut rng);
    let w0 = Matrix::randn(3, 3, &mut rng);

    let run = |w: &Matrix, share: bool| -> (f32, Matrix) {
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let wa = g.param(w);
        let y1 = g.matmul(x, wa);
        let y2 = if share {
            g.matmul(y1, wa)
        } else {
            let wb = g.param(w);
            g.matmul(y1, wb)
        };
        let s = g.sum(y2);
        let v = g.value(s).get(0, 0);
        g.backward(s);
        (v, g.grad(wa).clone())
    };

    let (_, shared_grad) = run(&w0, true);
    let numeric = numeric_grad(|alt| run(alt, true).0, &w0, 1e-2);
    assert_close(&shared_grad, &numeric, 3e-2);
}

/// Very deep chains stay numerically stable (no NaN) and propagate.
#[test]
fn deep_chain_is_stable() {
    let mut rng = Rng::seed_from_u64(79);
    let x0 = Matrix::randn(4, 4, &mut rng);
    let mut g = Graph::new();
    let x = g.param(&x0);
    let gains = g.input(Matrix::full(1, 4, 1.0));
    let mut cur = x;
    for _ in 0..40 {
        cur = g.rmsnorm(cur, gains, 1e-5);
        cur = g.silu(cur);
    }
    let s = g.sum(cur);
    g.backward(s);
    assert!(g.grad(x).all_finite());
    assert!(g.grad(x).fro_norm() > 0.0);
}
