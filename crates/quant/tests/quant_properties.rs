//! Property-based tests of INT8 quantization.

use apollo_quant::QuantizedMatrix;
use apollo_tensor::{Matrix, Rng};
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..8, 1usize..64, any::<u64>(), -3.0f32..3.0).prop_map(|(m, n, seed, log_scale)| {
        let mut rng = Rng::seed_from_u64(seed);
        Matrix::randn_scaled(m, n, 10f32.powf(log_scale), &mut rng)
    })
}

/// `m` snapped to the INT8 grid of its `pow`-companded code.
fn snap(m: &Matrix, group: usize, pow: f32) -> Matrix {
    let mut out = m.clone();
    QuantizedMatrix::quantize_companded(m, group, pow).dequantize_into(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_error_within_half_scale(m in arb_matrix(), group in 1usize..64) {
        let q = QuantizedMatrix::quantize(&m, group);
        let deq = q.dequantize();
        let bound = q.max_quantization_error() * 1.0001 + 1e-12;
        for (a, b) in m.as_slice().iter().zip(deq.as_slice()) {
            prop_assert!((a - b).abs() <= bound, "{a} vs {b} bound {bound}");
        }
    }

    #[test]
    fn quantization_is_idempotent(m in arb_matrix(), group in 1usize..32) {
        let once = snap(&m, group, 1.0);
        let twice = snap(&once, group, 1.0);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn quantization_preserves_sign(m in arb_matrix(), group in 1usize..32) {
        let deq = snap(&m, group, 1.0);
        for (a, b) in m.as_slice().iter().zip(deq.as_slice()) {
            prop_assert!(a.signum() == b.signum() || *b == 0.0, "{a} -> {b}");
        }
    }

    #[test]
    fn companded_code_preserves_sign_and_monotone_order_within_group(
        seed in any::<u64>(),
        pow_idx in 0usize..2,
    ) {
        let pow = [0.5f32, 0.25][pow_idx];
        let mut rng = Rng::seed_from_u64(seed);
        let m = Matrix::randn(1, 32, &mut rng);
        let deq = snap(&m, 32, pow);
        for (a, b) in m.as_slice().iter().zip(deq.as_slice()) {
            prop_assert!(a.signum() == b.signum() || *b == 0.0);
        }
        // Order preservation: if a_i < a_j then deq_i <= deq_j.
        let xs = m.as_slice();
        let ys = deq.as_slice();
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] < xs[j] {
                    prop_assert!(ys[i] <= ys[j] + 1e-9);
                }
            }
        }
    }

    #[test]
    fn companded_beats_linear_on_wide_dynamic_range(seed in any::<u64>()) {
        // Mixture of large and tiny magnitudes: the companded code must
        // preserve the tiny ones far better (in relative terms).
        let mut rng = Rng::seed_from_u64(seed);
        let mut data = Vec::new();
        for _ in 0..16 {
            data.push(rng.gauss() * 10.0);
        }
        for _ in 0..16 {
            data.push(rng.gauss() * 1e-3);
        }
        let m = Matrix::from_vec(1, 32, data);
        let rel_err = |deq: &Matrix| -> f32 {
            m.as_slice()
                .iter()
                .zip(deq.as_slice())
                .filter(|(a, _)| a.abs() > 1e-6 && a.abs() < 1e-2)
                .map(|(a, b)| ((a - b) / a).abs())
                .fold(0.0f32, f32::max)
        };
        let linear = rel_err(&snap(&m, 32, 1.0));
        let companded = rel_err(&snap(&m, 32, 0.25));
        prop_assert!(
            companded <= linear + 1e-6,
            "companded {companded} vs linear {linear}"
        );
    }

    #[test]
    fn memory_bytes_scale_with_group(group in 1usize..128) {
        let m = Matrix::full(4, 64, 1.0);
        let q = QuantizedMatrix::quantize(&m, group);
        let expected = 256 + 4 * 256usize.div_ceil(group);
        prop_assert_eq!(q.memory_bytes(), expected);
    }
}
