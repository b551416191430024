//! KV-cached incremental decode vs full graph forward: *bit-identical*
//! logits, across adversarial sequence lengths, prefill chunkings,
//! interleaved batches, linear-layer parameterizations, and thread counts.

use apollo_nn::{
    DecodeBackend, KvCache, LinearMode, LlamaModel, LoraAdapter, ModelConfig, QuantizedModel,
};
use apollo_tensor::{set_thread_override, Matrix, Rng};

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

fn random_tokens(n: usize, vocab: usize, rng: &mut Rng) -> Vec<u32> {
    (0..n).map(|_| rng.below(vocab) as u32).collect()
}

/// Feeds `tokens` through one cache in the given chunk sizes and returns
/// the logits of every position, stacked in order.
fn cached_logits_chunked(model: &LlamaModel, tokens: &[u32], chunks: &[usize]) -> Matrix {
    let mut caches = vec![model.new_kv_cache(tokens.len())];
    let vocab = model.config().vocab_size;
    let mut out = Matrix::zeros(tokens.len(), vocab);
    let mut fed = 0;
    for &c in chunks {
        let rows: Vec<(usize, u32)> = tokens[fed..fed + c].iter().map(|&t| (0, t)).collect();
        let hidden = model.forward_cached(&mut caches, &rows);
        let logits = model.lm_logits(&hidden);
        for r in 0..c {
            out.row_mut(fed + r).copy_from_slice(logits.row(r));
        }
        fed += c;
    }
    assert_eq!(fed, tokens.len(), "chunks must cover the sequence");
    assert_eq!(caches[0].len(), tokens.len());
    out
}

#[test]
fn token_at_a_time_decode_matches_full_forward() {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(0xDEC0);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    // Adversarial lengths: single token, pair, odd prefix, full max_seq.
    for &len in &[1usize, 2, 5, cfg.max_seq] {
        let tokens = random_tokens(len, cfg.vocab_size, &mut rng);
        let full = model.full_logits(&tokens, 1);
        let chunks = vec![1usize; len];
        let inc = cached_logits_chunked(&model, &tokens, &chunks);
        assert_bits_eq(&inc, &full, &format!("len={len} one-by-one"));
    }
}

#[test]
fn chunked_prefill_matches_full_forward() {
    // Whole-sequence prefill, uneven chunks, and a prefill+decode split; then
    // the generation shape at serving length: a 128-token prompt prefilled in
    // one call and 64 single-token steps behind it. Equal logit bits at
    // positions 127..=190 are equal sampled tokens, so KV-cached decode and
    // decode by full recompute emit the same 64 tokens there.
    let mut generation = vec![128usize];
    generation.extend([1; 64]);
    for (cfg, chunkings) in [
        (
            ModelConfig::test_tiny(),
            vec![vec![8], vec![3, 1, 4], vec![5, 1, 1, 1], vec![1, 7]],
        ),
        (ModelConfig::tiny_60m(), vec![generation]),
    ] {
        let mut rng = Rng::seed_from_u64(0xDEC1);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let len = chunkings[0].iter().sum();
        let tokens = random_tokens(len, cfg.vocab_size, &mut rng);
        let full = model.full_logits(&tokens, 1);
        for chunks in chunkings {
            let inc = cached_logits_chunked(&model, &tokens, &chunks);
            assert_bits_eq(&inc, &full, &format!("{} chunks={chunks:?}", cfg.name));
        }
    }
}

#[test]
fn benchmark_geometry_generation_matches_full_forward() {
    // `tiny_1b` is what `decode-batch` and `serve-http` decode: head width
    // 24 (the value mix's 16 + 8 lanes) and 192- and 512-wide products
    // whose inner dimensions span several of the GEMM's row blocks. A
    // 128-token prompt in one call, then 32 single-token steps.
    let cfg = ModelConfig::tiny_1b();
    let mut rng = Rng::seed_from_u64(0xDEC6);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let tokens = random_tokens(160, cfg.vocab_size, &mut rng);
    let full = model.full_logits(&tokens, 1);
    let mut chunks = vec![128usize];
    chunks.extend([1; 32]);
    let inc = cached_logits_chunked(&model, &tokens, &chunks);
    assert_bits_eq(&inc, &full, "tiny_1b 128 + 32 x 1");
}

#[test]
fn benchmark_geometry_batch_of_eight_matches_per_sequence_decode() {
    // Eight `tiny_1b` caches decoded together — the ≤ 8-row products of
    // every decode tick — against each sequence decoded alone (single-row
    // products). Sequence 7 prefills its whole prompt in the same call as
    // the others' first decode rows, the scheduler's shared pass.
    let cfg = ModelConfig::tiny_1b();
    let mut rng = Rng::seed_from_u64(0xDEC7);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let (batch, steps) = (8usize, 6usize);
    let prompt_len = |c: usize| 3 + 5 * c;
    let seqs: Vec<Vec<u32>> = (0..batch)
        .map(|c| random_tokens(prompt_len(c) + steps, cfg.vocab_size, &mut rng))
        .collect();
    let alone: Vec<Matrix> = (seqs.iter().enumerate())
        .map(|(c, s)| {
            let mut chunks = vec![prompt_len(c)];
            chunks.extend(vec![1; steps]);
            cached_logits_chunked(&model, s, &chunks)
        })
        .collect();

    let mut caches: Vec<KvCache> = seqs.iter().map(|s| model.new_kv_cache(s.len())).collect();
    let mut fed = vec![0usize; batch];
    let mut got: Vec<Matrix> = (seqs.iter())
        .map(|s| Matrix::zeros(s.len(), cfg.vocab_size))
        .collect();
    let mut run = |rows: Vec<(usize, u32)>, fed: &mut [usize]| {
        let logits = model.lm_logits(&model.forward_cached(&mut caches, &rows));
        for (r, &(c, _)) in rows.iter().enumerate() {
            got[c].row_mut(fed[c]).copy_from_slice(logits.row(r));
            fed[c] += 1;
        }
    };
    let prompts =
        (0..batch - 1).flat_map(|c| seqs[c][..prompt_len(c)].iter().map(move |&t| (c, t)));
    run(prompts.collect(), &mut fed);
    let last = batch - 1;
    let mut shared: Vec<(usize, u32)> = (0..last).map(|c| (c, seqs[c][fed[c]])).collect();
    shared.extend(seqs[last][..prompt_len(last)].iter().map(|&t| (last, t)));
    run(shared, &mut fed);
    while (0..batch).any(|c| fed[c] < seqs[c].len()) {
        let rows = (0..batch).filter(|&c| fed[c] < seqs[c].len());
        run(rows.map(|c| (c, seqs[c][fed[c]])).collect(), &mut fed);
    }
    for c in 0..batch {
        assert_eq!(fed[c], seqs[c].len(), "sequence {c} fully fed");
        assert_bits_eq(&got[c], &alone[c], &format!("sequence {c} of 8"));
    }
}

#[test]
// Indexing by `c`/`t` mirrors the (cache, position) addressing under test.
#[allow(clippy::needless_range_loop)]
fn interleaved_batch_matches_per_sequence_full_forward() {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(0xDEC2);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let batch = 3;
    let seq = cfg.max_seq;
    let seqs: Vec<Vec<u32>> = (0..batch)
        .map(|_| random_tokens(seq, cfg.vocab_size, &mut rng))
        .collect();

    // Reference: each sequence through the full forward on its own.
    let fulls: Vec<Matrix> = seqs.iter().map(|s| model.full_logits(s, 1)).collect();

    // Prefill 2 tokens per sequence in one interleaved call, then decode
    // the rest one position at a time across all sequences per call — the
    // continuous-batching access pattern.
    let mut caches: Vec<KvCache> = (0..batch).map(|_| model.new_kv_cache(seq)).collect();
    let mut got: Vec<Matrix> = (0..batch)
        .map(|_| Matrix::zeros(seq, cfg.vocab_size))
        .collect();
    let prefill: Vec<(usize, u32)> = (0..batch)
        .flat_map(|c| [(c, seqs[c][0]), (c, seqs[c][1])])
        .collect();
    let hidden = model.forward_cached(&mut caches, &prefill);
    let logits = model.lm_logits(&hidden);
    for c in 0..batch {
        got[c].row_mut(0).copy_from_slice(logits.row(2 * c));
        got[c].row_mut(1).copy_from_slice(logits.row(2 * c + 1));
    }
    for t in 2..seq {
        let rows: Vec<(usize, u32)> = (0..batch).map(|c| (c, seqs[c][t])).collect();
        let hidden = model.forward_cached(&mut caches, &rows);
        let logits = model.lm_logits(&hidden);
        for c in 0..batch {
            got[c].row_mut(t).copy_from_slice(logits.row(c));
        }
    }
    for c in 0..batch {
        assert_bits_eq(&got[c], &fulls[c], &format!("sequence {c}"));
    }
}

#[test]
fn lora_and_factored_models_decode_bit_identically() {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(0xDEC3);
    let modes = [
        LinearMode::LoRa {
            rank: 2,
            alpha: 4.0,
        },
        LinearMode::Factored { rank: 2 },
    ];
    for mode in modes {
        let mut model = LlamaModel::new(&cfg, mode, &mut rng);
        // Give LoRA `B` weight so the adapter path is actually nonzero.
        for p in &mut model.params {
            if p.name.ends_with(".lora_b") {
                p.value = Matrix::randn(p.value.rows(), p.value.cols(), &mut rng);
            }
        }
        let tokens = random_tokens(cfg.max_seq, cfg.vocab_size, &mut rng);
        let full = model.full_logits(&tokens, 1);
        let inc = cached_logits_chunked(&model, &tokens, &vec![1; cfg.max_seq]);
        assert_bits_eq(&inc, &full, &format!("{mode:?}"));
    }
}

/// A LoRA model with nonzero adapters (B is zero-initialized, so perturb it).
fn nonzero_lora(cfg: &ModelConfig, seed: u64) -> LlamaModel {
    let mut rng = Rng::seed_from_u64(seed);
    let mut model = LlamaModel::new(
        cfg,
        LinearMode::LoRa {
            rank: 2,
            alpha: 4.0,
        },
        &mut rng,
    );
    for p in &mut model.params {
        if p.name.ends_with(".lora_b") {
            p.value = Matrix::randn(p.value.rows(), p.value.cols(), &mut rng);
        }
    }
    model
}

/// The dense model a LoRA model decomposes over: `.base` backbones become
/// the dense weights; embedding, norms and head copy across by name.
fn dense_base_of(lora: &LlamaModel) -> LlamaModel {
    let mut rng = Rng::seed_from_u64(0);
    let mut dense = LlamaModel::new(lora.config(), LinearMode::Dense, &mut rng);
    for p in &mut dense.params {
        let base_name = format!("{}.base", p.name);
        let src = lora
            .params
            .iter()
            .find(|q| q.name == p.name || q.name == base_name)
            .unwrap_or_else(|| panic!("no LoRA source for {}", p.name));
        p.value = src.value.clone();
    }
    dense
}

#[test]
fn adapter_delta_matches_full_lora_model() {
    // Serving "dense base + extracted adapter" must be bit-identical to
    // decoding the LoRA model it was extracted from.
    let cfg = ModelConfig::test_tiny();
    let lora = nonzero_lora(&cfg, 0xADA0);
    let base = dense_base_of(&lora);
    let adapter = LoraAdapter::from_model(&lora).unwrap();
    let mut rng = Rng::seed_from_u64(0xADA1);
    let tokens = random_tokens(cfg.max_seq, cfg.vocab_size, &mut rng);

    let want = cached_logits_chunked(&lora, &tokens, &vec![1; cfg.max_seq]);

    let mut caches = vec![base.new_kv_cache(cfg.max_seq)];
    let mut got = Matrix::zeros(cfg.max_seq, cfg.vocab_size);
    for (t, &tok) in tokens.iter().enumerate() {
        let hidden = base.forward_cached_with(&mut caches, &[(0, tok)], &[Some(&adapter)]);
        got.row_mut(t)
            .copy_from_slice(base.lm_logits(&hidden).row(0));
    }
    assert_bits_eq(&got, &want, "base+adapter vs LoRA model");
}

#[test]
// Indexing by `c`/`t` mirrors the (cache, position) addressing under test.
#[allow(clippy::needless_range_loop)]
fn mixed_adapter_batch_matches_serial_per_adapter() {
    // One decode tick batching 3 adapters plus a base-only row must be
    // byte-identical to serving each sequence serially with its adapter.
    let cfg = ModelConfig::test_tiny();
    let base = dense_base_of(&nonzero_lora(&cfg, 0xADA2));
    let adapters: Vec<LoraAdapter> = (0..3)
        .map(|i| LoraAdapter::from_model(&nonzero_lora(&cfg, 0xADA3 + i)).unwrap())
        .collect();
    let per_row: Vec<Option<&LoraAdapter>> = vec![
        Some(&adapters[0]),
        Some(&adapters[1]),
        Some(&adapters[2]),
        None,
    ];
    let batch = per_row.len();
    let seq = cfg.max_seq;
    let mut rng = Rng::seed_from_u64(0xADA7);
    let seqs: Vec<Vec<u32>> = (0..batch)
        .map(|_| random_tokens(seq, cfg.vocab_size, &mut rng))
        .collect();

    // Serial reference: each sequence alone, token at a time.
    let mut serial: Vec<Matrix> = Vec::new();
    for c in 0..batch {
        let mut caches = vec![base.new_kv_cache(seq)];
        let mut out = Matrix::zeros(seq, cfg.vocab_size);
        for (t, &tok) in seqs[c].iter().enumerate() {
            let hidden = base.forward_cached_with(&mut caches, &[(0, tok)], &[per_row[c]]);
            out.row_mut(t)
                .copy_from_slice(base.lm_logits(&hidden).row(0));
        }
        serial.push(out);
    }

    // Mixed batch: every tick carries one row per sequence, adapters mixed.
    let mut caches: Vec<KvCache> = (0..batch).map(|_| base.new_kv_cache(seq)).collect();
    let mut got: Vec<Matrix> = (0..batch)
        .map(|_| Matrix::zeros(seq, cfg.vocab_size))
        .collect();
    for t in 0..seq {
        let rows: Vec<(usize, u32)> = (0..batch).map(|c| (c, seqs[c][t])).collect();
        let hidden = base.forward_cached_with(&mut caches, &rows, &per_row);
        let logits = base.lm_logits(&hidden);
        for c in 0..batch {
            got[c].row_mut(t).copy_from_slice(logits.row(c));
        }
    }
    for c in 0..batch {
        assert_bits_eq(&got[c], &serial[c], &format!("sequence {c}"));
    }
}

#[test]
fn cached_prefix_spans_decode_identically_to_cold_prefill() {
    // Exporting a prefix's KV rows from one cache and appending them into
    // another, then prefilling only the suffix, must give bit-identical
    // logits to cold-prefilling the whole prompt — the prefix cache's
    // exactness contract.
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(0xCAC0);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let seq = cfg.max_seq;
    let tokens = random_tokens(seq, cfg.vocab_size, &mut rng);
    let full = model.full_logits(&tokens, 1);

    for prefix in [1usize, 3, seq - 1] {
        // Donor prefills the prefix cold, then exports it.
        let mut donor = vec![model.new_kv_cache(seq)];
        let rows: Vec<(usize, u32)> = tokens[..prefix].iter().map(|&t| (0, t)).collect();
        model.forward_cached(&mut donor, &rows);
        let span = donor[0].export_rows(0, prefix);
        assert_eq!(span.rows(), prefix);
        assert!(span.memory_bytes() > 0);

        // Consumer appends the span and prefills only the suffix.
        let mut cons = vec![model.new_kv_cache(seq)];
        cons[0].append_span(&span);
        assert_eq!(cons[0].len(), prefix);
        let rows: Vec<(usize, u32)> = tokens[prefix..].iter().map(|&t| (0, t)).collect();
        let hidden = model.forward_cached(&mut cons, &rows);
        let logits = model.lm_logits(&hidden);
        for (r, t) in (prefix..seq).enumerate() {
            let got = logits.row(r);
            let want = full.row(t);
            for (g, w) in got.iter().zip(want) {
                assert!(
                    g.to_bits() == w.to_bits(),
                    "prefix={prefix} pos={t}: {g} vs {w}"
                );
            }
        }

        // A sliced sub-span (radix-edge split) behaves the same.
        if prefix >= 2 {
            let head = span.slice(0, prefix - 1);
            let tail = span.slice(prefix - 1, prefix);
            let mut split = vec![model.new_kv_cache(seq)];
            split[0].append_span(&head);
            split[0].append_span(&tail);
            let rows: Vec<(usize, u32)> = tokens[prefix..].iter().map(|&t| (0, t)).collect();
            let hidden2 = model.forward_cached(&mut split, &rows);
            assert_bits_eq(
                &model.lm_logits(&hidden2),
                &logits,
                &format!("prefix={prefix} split spans"),
            );
        }
    }
}

/// A geometry the vector loops do not divide: `head_dim` 12 (not a
/// multiple of the 8-lane vector width) and an odd head count.
fn odd_config() -> ModelConfig {
    ModelConfig::new("odd-heads", 64, 36, 40, 3, 2, 80)
}

/// Cache positions the score loop handles per register block (`POS_LANES`
/// in `nn/src/decode.rs`).
const POS_LANES: usize = 32;

#[test]
fn cache_lengths_straddling_the_position_block_match_full_forward() {
    let len = 2 * POS_LANES + 2;
    for cfg in [ModelConfig::test_tiny(), odd_config()] {
        let mut rng = Rng::seed_from_u64(0xDEC5);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let tokens = random_tokens(len, cfg.vocab_size, &mut rng);
        let full = model.full_logits(&tokens, 1);
        // One token at a time scores every cache length 1..=2W+2: a partial
        // block alone (W-1), exactly one block (W), a block plus one
        // position (W+1), two blocks plus one (2W+1).
        let inc = cached_logits_chunked(&model, &tokens, &vec![1; len]);
        assert_bits_eq(&inc, &full, &format!("{} one-by-one", cfg.name));
        // Prefill chunks whose edges sit on and around the block width.
        let chunks = [POS_LANES - 1, 1, 1, POS_LANES, 1];
        let inc = cached_logits_chunked(&model, &tokens, &chunks);
        assert_bits_eq(&inc, &full, &format!("{} chunks={chunks:?}", cfg.name));
    }
}

#[test]
fn partial_spans_appended_at_an_offset_decode_identically_to_cold_prefill() {
    // export_rows → KvSpan::slice → append_span with nothing aligned: the
    // export starts mid-cache, is cut in two, and lands behind positions
    // the consumer prefilled itself. Spans are row-major whatever the
    // cache's own layout, so their size is rows × hidden × 4 bytes for K
    // and again for V, per layer.
    let cfg = odd_config();
    let mut rng = Rng::seed_from_u64(0xCAC2);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let seq = 2 * POS_LANES + 6;
    let tokens = random_tokens(seq, cfg.vocab_size, &mut rng);
    let (own, cut, shared) = (5, 25, 47);

    let mut cold = vec![model.new_kv_cache(seq)];
    let rows: Vec<(usize, u32)> = tokens.iter().map(|&t| (0, t)).collect();
    let cold_hidden = model.forward_cached(&mut cold, &rows);
    let cold_logits = model.lm_logits(&cold_hidden);

    let mut donor = vec![model.new_kv_cache(seq)];
    model.forward_cached(&mut donor, &rows[..shared + 3]);
    let span = donor[0].export_rows(own, shared);
    assert_eq!(span.rows(), shared - own);
    assert_eq!(
        span.memory_bytes(),
        (shared - own) * cfg.hidden * 4 * 2 * cfg.n_layers
    );
    let head = span.slice(0, cut - own);
    let tail = span.slice(cut - own, shared - own);
    assert_eq!(
        head.memory_bytes() + tail.memory_bytes(),
        span.memory_bytes()
    );

    let mut cons = vec![model.new_kv_cache(seq)];
    model.forward_cached(&mut cons, &rows[..own]);
    cons[0].append_span(&head);
    assert_eq!(cons[0].len(), cut);
    cons[0].append_span(&tail);
    assert_eq!(cons[0].len(), shared);
    let warm_hidden = model.forward_cached(&mut cons, &rows[shared..]);
    let warm_logits = model.lm_logits(&warm_hidden);
    for (r, t) in (shared..seq).enumerate() {
        for (g, w) in warm_logits.row(r).iter().zip(cold_logits.row(t)) {
            assert!(g.to_bits() == w.to_bits(), "pos={t}: {g} vs {w}");
        }
    }
    // The consumer's cache now exports the same bytes the donor's did.
    let again = cons[0].export_rows(own, shared);
    let mut back = vec![model.new_kv_cache(seq)];
    model.forward_cached(&mut back, &rows[..own]);
    back[0].append_span(&again);
    let hidden = model.forward_cached(&mut back, &rows[shared..]);
    assert_bits_eq(&model.lm_logits(&hidden), &warm_logits, "re-exported span");
}

#[test]
fn kv_blocks_roundtrip_on_both_backend_tiers() {
    // The tier-agnostic KvBlock path: cached-prefix decode is bit-identical
    // to cold prefill on the exact tier AND on the BF16/INT8 tier (the
    // payload copy is bitwise, and the quantized decode is deterministic).
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(0xCAC1);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let qm = QuantizedModel::from_model(&model);
    let seq = cfg.max_seq;
    let tokens = random_tokens(seq, cfg.vocab_size, &mut rng);
    let prefix = 5usize;

    for backend in [DecodeBackend::from(model.clone()), DecodeBackend::from(qm)] {
        let mut caches = backend.new_caches(3, seq);
        // Slot 0: cold full-prompt prefill.
        let rows: Vec<(usize, u32)> = tokens.iter().map(|&t| (0, t)).collect();
        let cold_hidden = backend.forward_cached(&mut caches, &rows);
        let cold = backend.lm_logits(&cold_hidden);
        // Slot 1: donor prefix, exported as a block.
        let rows: Vec<(usize, u32)> = tokens[..prefix].iter().map(|&t| (1, t)).collect();
        backend.forward_cached(&mut caches, &rows);
        let block = caches.export_rows(1, 0, prefix);
        assert_eq!(block.rows(), prefix);
        assert_eq!(block.slice(1, 4).rows(), 3);
        // Slot 2: append the block, prefill only the suffix.
        caches.append_block(2, &block);
        assert_eq!(caches.slot_len(2), prefix);
        let rows: Vec<(usize, u32)> = tokens[prefix..].iter().map(|&t| (2, t)).collect();
        let warm_hidden = backend.forward_cached(&mut caches, &rows);
        let warm = backend.lm_logits(&warm_hidden);
        for (r, t) in (prefix..seq).enumerate() {
            for (g, w) in warm.row(r).iter().zip(cold.row(t)) {
                assert!(
                    g.to_bits() == w.to_bits(),
                    "{} pos={t}: {g} vs {w}",
                    backend.mode_name()
                );
            }
        }
        assert!(caches.used_bytes() > 0);
        assert!(caches.used_bytes() <= caches.memory_bytes());
    }
}

/// An MLP width the 8-lane vector loops do not divide either (`44 % 8 ≠
/// 0`; `odd_config()`'s 40 divides), on top of the odd head geometry.
fn odd_mlp_config() -> ModelConfig {
    ModelConfig::new("odd-mlp", 64, 36, 44, 3, 2, 80)
}

#[test]
// Indexing by `c`/`t` mirrors the (cache, position) addressing under test.
#[allow(clippy::needless_range_loop)]
fn int8_decode_is_bitwise_invariant_to_chunking_and_batching() {
    // The INT8 tier has no bitwise oracle (the graph forward is f32), but
    // a row's bits must not depend on which other rows share its call:
    // token-at-a-time == ragged chunked prefill == interleaved batch. The
    // scheduler's INT8 byte-identity with serial generation rests on it.
    for cfg in [odd_config(), odd_mlp_config()] {
        let mut rng = Rng::seed_from_u64(0x1278);
        let qm = QuantizedModel::from_model(&LlamaModel::new(&cfg, LinearMode::Dense, &mut rng));
        let (batch, seq) = (3, 19);
        let seqs: Vec<Vec<u32>> = (0..batch)
            .map(|_| random_tokens(seq, cfg.vocab_size, &mut rng))
            .collect();

        // Reference: every sequence alone, one token per call.
        let mut want: Vec<Matrix> = Vec::new();
        for s in &seqs {
            let mut cache = [qm.new_kv_cache(seq)];
            let mut out = Matrix::zeros(seq, cfg.vocab_size);
            for (t, &tok) in s.iter().enumerate() {
                let hidden = qm.forward_cached(&mut cache, &[(0, tok)]);
                out.row_mut(t).copy_from_slice(qm.lm_logits(&hidden).row(0));
            }
            want.push(out);
        }

        // Ragged chunked prefill of one sequence.
        let mut cache = [qm.new_kv_cache(seq)];
        let mut fed = 0;
        for chunk in [3usize, 7, 1, 8] {
            let rows: Vec<(usize, u32)> =
                seqs[0][fed..fed + chunk].iter().map(|&t| (0, t)).collect();
            let logits = qm.lm_logits(&qm.forward_cached(&mut cache, &rows));
            for r in 0..chunk {
                let what = format!("{} chunked pos {}", cfg.name, fed + r);
                assert_bits_eq(
                    &logits.gather_rows(&[r]),
                    &want[0].gather_rows(&[fed + r]),
                    &what,
                );
            }
            fed += chunk;
        }
        assert_eq!(fed, seq);

        // Interleaved batch: two tokens per sequence in one call, then one
        // row per sequence per call with the row order rotating, so every
        // sequence sits at every batch position.
        let mut caches: Vec<_> = (0..batch).map(|_| qm.new_kv_cache(seq)).collect();
        let mut calls: Vec<Vec<(usize, usize)>> =
            vec![(0..batch).flat_map(|c| [(c, 0), (c, 1)]).collect()];
        for t in 2..seq {
            calls.push((0..batch).map(|i| ((i + t) % batch, t)).collect());
        }
        for call in calls {
            let rows: Vec<(usize, u32)> = call.iter().map(|&(c, t)| (c, seqs[c][t])).collect();
            let logits = qm.lm_logits(&qm.forward_cached(&mut caches, &rows));
            for (r, &(c, t)) in call.iter().enumerate() {
                let what = format!("{} batched seq {c} pos {t}", cfg.name);
                assert_bits_eq(&logits.gather_rows(&[r]), &want[c].gather_rows(&[t]), &what);
            }
        }
    }
}

/// A dense model and an INT8 snapshot of `cfg`'s geometry.
fn tier_pair(cfg: &ModelConfig) -> (LlamaModel, QuantizedModel) {
    let model = LlamaModel::new(cfg, LinearMode::Dense, &mut Rng::seed_from_u64(0x6E0));
    let qm = QuantizedModel::from_model(&model);
    (model, qm)
}

// A cache must come from a model of the walk's geometry and tier; each
// mismatch is refused up front, naming the cache, before any K/V is written.

#[test]
#[should_panic(expected = "cache 1 has hidden width 16, the model 36")]
fn cache_of_another_hidden_width_is_refused() {
    let (model, _) = tier_pair(&odd_config());
    let (other, _) = tier_pair(&ModelConfig::test_tiny());
    let mut caches = [model.new_kv_cache(4), other.new_kv_cache(4)];
    model.forward_cached(&mut caches, &[(0, 1), (1, 2)]);
}

#[test]
#[should_panic(expected = "cache 0 has 3 layers, the model 2")]
fn cache_with_more_layers_is_refused_on_the_int8_tier() {
    let (_, qm) = tier_pair(&odd_config());
    let (_, deeper) = tier_pair(&ModelConfig::new("deeper", 64, 36, 40, 3, 3, 80));
    qm.forward_cached(&mut [deeper.new_kv_cache(4)], &[(0, 1)]);
}

#[test]
#[should_panic(expected = "cache tier does not match the model (cache 0)")]
fn f32_cache_is_refused_by_the_int8_model() {
    let (model, qm) = tier_pair(&odd_config());
    qm.forward_cached(&mut [model.new_kv_cache(4)], &[(0, 1)]);
}

#[test]
fn decode_is_thread_invariant() {
    // Wider geometry so the head matmul crosses shapes where kernels pick
    // different paths; the gemv/pooled results must still agree.
    let cfg = ModelConfig::tiny_60m();
    let mut rng = Rng::seed_from_u64(0xDEC4);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let tokens = random_tokens(24, cfg.vocab_size, &mut rng);
    set_thread_override(Some(1));
    let base = cached_logits_chunked(&model, &tokens, &[16, 1, 1, 1, 1, 1, 1, 1, 1]);
    for threads in [2, 8] {
        set_thread_override(Some(threads));
        let got = cached_logits_chunked(&model, &tokens, &[16, 1, 1, 1, 1, 1, 1, 1, 1]);
        assert_bits_eq(&got, &base, &format!("threads={threads}"));
    }
    set_thread_override(None);
    let full = model.full_logits(&tokens, 1);
    assert_bits_eq(&base, &full, "threads=1 vs full forward");
}
