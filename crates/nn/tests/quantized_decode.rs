//! Relaxed-tier tolerance contract for the INT8+BF16 decode path.
//!
//! The exact decode path promises bit-equivalence
//! (`decode_equivalence.rs`); the quantized path promises *bounded drift*
//! instead. These tests pin that bound against the dequantized-weight
//! oracle under the same adversarial schedules the exact contract uses:
//! chunked prefill, interleaved multi-sequence batches, and long
//! single-token decode runs.

use apollo_nn::{DecodeBackend, KvCache, LinearMode, LlamaModel, ModelConfig, QuantizedModel};
use apollo_tensor::{Matrix, Rng};

fn tiny_pair(seed: u64) -> (LlamaModel, QuantizedModel) {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(seed);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let qm = QuantizedModel::from_model(&model);
    (model, qm)
}

/// Relative-error bound between the quantized decode and the dequantized
/// oracle. Quantization error is excluded by construction (the oracle
/// holds the same dequantized weights); what remains is BF16 KV rounding
/// (2⁻⁸ relative per element) compounded across layers/positions plus the
/// relaxed kernels' arithmetic drift.
const DECODE_TOL: f32 = 3e-2;

fn assert_rows_close(step: &str, exact: &Matrix, fast: &Matrix) {
    assert_eq!(exact.shape(), fast.shape(), "{step}: shape");
    for (a, b) in exact.as_slice().iter().zip(fast.as_slice()) {
        assert!(
            (a - b).abs() <= DECODE_TOL * a.abs().max(1.0),
            "{step}: {a} vs {b}"
        );
    }
}

#[test]
fn chunked_prefill_tracks_oracle_within_tolerance() {
    let (model, qm) = tiny_pair(0xA1);
    let oracle = qm.dequantize_into(&model);
    let mut rng = Rng::seed_from_u64(1);
    let vocab = model.config().vocab_size;
    let tokens: Vec<u32> = (0..17).map(|_| rng.below(vocab) as u32).collect();

    // Prefill in ragged chunks (3, then 7, then the rest), then decode.
    let mut ec: Vec<KvCache> = vec![oracle.new_kv_cache(32)];
    let mut qc = vec![qm.new_kv_cache(32)];
    for chunk in [&tokens[..3], &tokens[3..10], &tokens[10..]] {
        let rows: Vec<(usize, u32)> = chunk.iter().map(|&t| (0, t)).collect();
        let he = oracle.forward_cached(&mut ec, &rows);
        let hq = qm.forward_cached(&mut qc, &rows);
        assert_rows_close("prefill chunk", &he, &hq);
    }
    for step in 0..8 {
        let t = (step * 5 % vocab) as u32;
        let he = oracle.forward_cached(&mut ec, &[(0, t)]);
        let hq = qm.forward_cached(&mut qc, &[(0, t)]);
        assert_rows_close(&format!("decode step {step}"), &he, &hq);
        let le = oracle.lm_logits(&he);
        let lq = qm.lm_logits(&hq);
        assert_rows_close(&format!("logits step {step}"), &le, &lq);
    }
}

#[test]
fn interleaved_batches_track_oracle_within_tolerance() {
    let (model, qm) = tiny_pair(0xA2);
    let oracle = qm.dequantize_into(&model);
    let vocab = model.config().vocab_size;

    // Two sequences interleaved in one call, then asymmetric continuation:
    // the quantized path must respect the same row/position semantics.
    let mut ec: Vec<KvCache> = (0..2).map(|_| oracle.new_kv_cache(16)).collect();
    let mut qc = (0..2).map(|_| qm.new_kv_cache(16)).collect::<Vec<_>>();
    let schedule: &[&[(usize, u32)]] = &[
        &[(0, 1), (1, 2), (0, 3), (1, 4), (1, 5)],
        &[(1, 6), (0, 7)],
        &[(0, 8), (0, 9), (1, 10)],
    ];
    for (i, rows) in schedule.iter().enumerate() {
        assert!(rows.iter().all(|&(_, t)| (t as usize) < vocab));
        let he = oracle.forward_cached(&mut ec, rows);
        let hq = qm.forward_cached(&mut qc, rows);
        assert_rows_close(&format!("batch call {i}"), &he, &hq);
    }
    assert_eq!(qc[0].len(), 5);
    assert_eq!(qc[1].len(), 5);
}

#[test]
fn backend_greedy_decode_mostly_agrees_with_exact_over_long_horizon() {
    // End-to-end through the DecodeBackend interface: greedy (argmax)
    // token streams from the exact backend and the INT8 snapshot of the
    // same weights should agree at nearly every step for a random init.
    let (model, qm) = tiny_pair(0xA3);
    let vocab = model.config().vocab_size;
    let exact: DecodeBackend = model.into();
    let int8: DecodeBackend = qm.into();

    let horizon = 24usize;
    let run = |b: &DecodeBackend| -> Vec<u32> {
        let mut caches = b.new_caches(1, horizon + 4);
        let mut out = Vec::new();
        let mut h = b.forward_cached(&mut caches, &[(0, 2), (0, 5), (0, 11)]);
        for _ in 0..horizon {
            let mut row = Matrix::zeros(1, h.cols());
            row.row_mut(0).copy_from_slice(h.row(h.rows() - 1));
            let logits = b.lm_logits(&row);
            let l = logits.row(0);
            let tok = (0..l.len()).max_by(|&a, &b| l[a].total_cmp(&l[b])).unwrap() as u32;
            assert!((tok as usize) < vocab);
            out.push(tok);
            h = b.forward_cached(&mut caches, &[(0, tok)]);
        }
        out
    };
    let te = run(&exact);
    let tq = run(&int8);
    let agree = te.iter().zip(&tq).filter(|(a, b)| a == b).count();
    assert!(
        agree * 10 >= horizon * 7,
        "only {agree}/{horizon} greedy tokens agree: {te:?} vs {tq:?}"
    );
}
