//! Bitwise equivalence of the packed/pooled matmul kernels against naive
//! reference loops.
//!
//! The packed kernels accumulate every output element in ascending-`p`
//! order with a single `f32` accumulator, exactly like the reference
//! triple loop, and the row-band partition is a pure function of
//! `(m, threads)` — so for finite inputs the results must be
//! *bit-identical*, not merely close, at every thread count. These tests
//! assert that, across adversarial shapes (1×1, prime dims, `m ≫ n`,
//! `n ≫ m`, and sizes straddling the parallelism FLOP gate).

use apollo_tensor::{set_thread_override, Matrix, Rng};
use proptest::prelude::*;

/// Reference `a · b`: ascending-`p` scalar accumulation per element.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Matrix::from_vec(m, n, out)
}

/// Reference `a · bᵀ` (`a: m×k`, `b: n×k`).
fn naive_matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(k, k2);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.as_slice()[i * k + p] * b.as_slice()[j * k + p];
            }
            out[i * n + j] = acc;
        }
    }
    Matrix::from_vec(m, n, out)
}

/// Reference `aᵀ · b` (`a: k×m`, `b: k×n`).
fn naive_matmul_transa(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.as_slice()[p * m + i] * b.as_slice()[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Matrix::from_vec(m, n, out)
}

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

/// Runs all three kernels against their references at one thread count.
fn check_all_kernels(m: usize, k: usize, n: usize, seed: u64, threads: usize) {
    set_thread_override(Some(threads));
    let mut rng = Rng::seed_from_u64(seed);
    let a = Matrix::randn(m, k, &mut rng);
    let b = Matrix::randn(k, n, &mut rng);
    let at = Matrix::randn(k, m, &mut rng);
    let bt = Matrix::randn(n, k, &mut rng);
    let ctx = format!("({m}x{k}x{n}, threads={threads})");
    assert_bits_eq(
        &a.matmul(&b),
        &naive_matmul(&a, &b),
        &format!("matmul {ctx}"),
    );
    assert_bits_eq(
        &a.matmul_transb(&bt),
        &naive_matmul_transb(&a, &bt),
        &format!("matmul_transb {ctx}"),
    );
    assert_bits_eq(
        &at.matmul_transa(&b),
        &naive_matmul_transa(&at, &b),
        &format!("matmul_transa {ctx}"),
    );
    set_thread_override(None);
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn adversarial_shapes_match_reference_at_all_thread_counts() {
    // (m, k, n): degenerate, prime, skinny-tall, tall-skinny, panel-tail
    // widths just around the NR=32 packing boundary, and one shape large
    // enough to cross the parallelism FLOP gate (2·m·k·n ≥ 2^20).
    let shapes = [
        (1, 1, 1),
        (1, 7, 1),
        (7, 13, 11),
        (31, 17, 5),
        (97, 8, 2),     // m >> n
        (2, 8, 97),     // n >> m
        (3, 5, 31),     // n just under one packed panel
        (3, 5, 32),     // exactly one panel
        (3, 5, 33),     // one panel + 1-wide tail
        (5, 64, 65),    // two panels + tail
        (128, 64, 68),  // crosses the FLOP gate: exercises the worker pool
        (1, 33, 129),   // gemv (decode hot shape), serial: below the gate
        (1, 521, 1031), // gemv crossing the FLOP gate: pooled column bands
        (4, 0, 40),     // empty inner dim, `b` in place: all zeros
        (70, 0, 40),    // empty inner dim, packed
    ];
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        for &t in &THREAD_COUNTS {
            check_all_kernels(m, k, n, 0x5eed_0000 + si as u64, t);
        }
    }
}

#[test]
fn small_row_counts_and_band_widths_match_reference() {
    // `a·b` around its input-dependent switches: the row count at which
    // `b` starts being packed (`PACK_MIN_ROWS` = 64 in `matmul.rs`; below it
    // the multi-row tile reads `b` in place, four rows at a time with a
    // 1–3 row remainder), the row count from which an AVX-512 host runs the
    // 16-lane tile (`WIDE_MIN_ROWS` = 16, eight rows at a time with a 1–7
    // row remainder — on both sides of the pack switch), and the
    // column-band width (full 32-wide bands vs the remainder band, which
    // runs as literal 16/8/4/2/1-column pieces, alone or after full bands).
    // `k` is odd, and the wide shapes cross the FLOP gate so the pooled row
    // split runs too — which at 2 and 4 threads also drops a thread's band
    // below the row gates that the whole product is above. Zero rows is the
    // LM-head call of a tick that decodes nothing.
    // `aᵀ·b` takes the same switches on its own output rows (`a`'s columns:
    // a projection rank — 1 for APOLLO-Mini, 48 in the pretrain proxy), so
    // it is checked on the transposed `a` against the same product; `a·bᵀ`
    // always packs, and is checked on the transposed `b`.
    let k = 129;
    let mut rng = Rng::seed_from_u64(0x5eed_1000);
    let grids: [(&[usize], &[usize]); 2] = [
        (
            &[0, 1, 2, 3, 4, 5, 7, 8, 9, 48, 63, 64, 65],
            &[1, 4, 31, 32, 33, 192, 512],
        ),
        // Both sides of the 16-row gate and every 8-row-tile remainder;
        // each literal piece alone and after full bands (172 = 5·32 + 8 + 4
        // is the 60M proxy's MLP width).
        (
            &[15, 16, 17, 23, 24, 25, 71, 72, 73],
            &[8, 16, 24, 40, 56, 172],
        ),
    ];
    for (ms, ns) in grids {
        for &m in ms {
            for &n in ns {
                let a = Matrix::randn(m, k, &mut rng);
                let b = Matrix::randn(k, n, &mut rng);
                let (at, bt) = (a.transpose(), b.transpose());
                let want = naive_matmul(&a, &b);
                for threads in [1, 2, 4] {
                    set_thread_override(Some(threads));
                    let ctx = format!("({m}x{k}x{n}, threads={threads})");
                    assert_bits_eq(&a.matmul(&b), &want, &format!("matmul {ctx}"));
                    assert_bits_eq(
                        &at.matmul_transa(&b),
                        &want,
                        &format!("matmul_transa {ctx}"),
                    );
                    assert_bits_eq(
                        &a.matmul_transb(&bt),
                        &want,
                        &format!("matmul_transb {ctx}"),
                    );
                }
            }
        }
    }
    set_thread_override(None);
}

#[test]
fn results_are_invariant_across_thread_counts() {
    // Large enough to parallelize; compare thread counts against each other
    // directly (not just against the reference).
    let mut rng = Rng::seed_from_u64(42);
    let a = Matrix::randn(160, 96, &mut rng);
    let b = Matrix::randn(96, 70, &mut rng);
    set_thread_override(Some(1));
    let base = a.matmul(&b);
    for &t in &THREAD_COUNTS[1..] {
        set_thread_override(Some(t));
        assert_bits_eq(&a.matmul(&b), &base, &format!("threads={t} vs threads=1"));
    }
    set_thread_override(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_shapes_match_reference(
        seed in any::<u64>(),
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..40,
        ti in 0usize..THREAD_COUNTS.len(),
    ) {
        check_all_kernels(m, k, n, seed, THREAD_COUNTS[ti]);
    }
}
