//! Property-based tests for the data substrates.

use apollo_data::{ByteTokenizer, CorpusConfig, LmBatcher, SyntheticCorpus, TaskConfig, TaskGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn corpus_tokens_always_in_vocab(vocab in 8usize..256, stream in any::<u64>()) {
        let c = SyntheticCorpus::new(CorpusConfig::with_vocab(vocab));
        prop_assert!(c.generate(500, stream).iter().all(|&t| (t as usize) < vocab));
    }

    #[test]
    fn batcher_targets_are_shifted_tokens(batch in 1usize..6, seq in 2usize..32, _x in 0..3u8) {
        let c = SyntheticCorpus::new(CorpusConfig::with_vocab(64));
        let mut b = LmBatcher::new(c, batch, seq);
        let (tokens, targets) = b.next_batch();
        for s in 0..batch {
            for i in 0..seq - 1 {
                prop_assert_eq!(targets[s * seq + i], tokens[s * seq + i + 1]);
            }
        }
    }

    #[test]
    fn byte_tokenizer_roundtrips(text in proptest::collection::vec(any::<u8>(), 0..256)) {
        let t = ByteTokenizer;
        prop_assert_eq!(t.decode(&t.encode(&text)), text);
    }

    #[test]
    fn task_labels_in_range_and_tokens_in_vocab(
        classes in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut t = TaskGen::new(TaskConfig {
            name: "prop".into(),
            n_classes: classes,
            vocab_size: 128,
            seq: 24,
            true_markers: 4,
            distractors: 1,
            seed,
        });
        let (tokens, labels) = t.sample(16);
        prop_assert!(labels.iter().all(|&l| (l as usize) < classes));
        prop_assert!(tokens.iter().all(|&x| (x as usize) < 128));
        prop_assert_eq!(tokens.len(), 16 * 24);
    }
}

#[test]
fn different_streams_cover_the_vocabulary() {
    // Across many streams, most of a small vocabulary appears — the corpus
    // is not collapsing onto a few tokens.
    let c = SyntheticCorpus::new(CorpusConfig::with_vocab(32));
    let mut seen = [false; 32];
    for stream in 0..20 {
        for t in c.generate(200, stream) {
            seen[t as usize] = true;
        }
    }
    let covered = seen.iter().filter(|&&s| s).count();
    assert!(covered >= 24, "only {covered}/32 tokens ever appear");
}

use apollo_data::DecodeStream;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chunked_decode_stream_equals_whole_sequence_decode(
        text in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Arbitrary bytes (so invalid UTF-8 is well covered), decoded one
        // token at a time: the pushed pieces plus the final flush must
        // equal the lossy decode of the whole token sequence at once.
        let tok = ByteTokenizer;
        let tokens = tok.encode(&text);
        let whole = String::from_utf8_lossy(&tok.decode(&tokens)).into_owned();
        let mut stream = DecodeStream::new();
        let mut chunked = String::new();
        for &t in &tokens {
            chunked.push_str(&stream.push(t));
            // An incomplete UTF-8 sequence is at most 3 bytes; the stream
            // never hoards more than that plus one token's worth of bytes.
            prop_assert!(stream.pending_len() <= 3, "held back {} bytes", stream.pending_len());
        }
        chunked.push_str(&stream.finish());
        prop_assert_eq!(chunked, whole);
    }

    #[test]
    fn decode_stream_emits_valid_text_for_valid_input(
        picks in proptest::collection::vec(0usize..8, 0..60),
    ) {
        // Valid UTF-8 in (1- to 4-byte characters), byte tokens out one at
        // a time: the concatenation reproduces the text exactly (no
        // replacement chars, no breakage).
        const PALETTE: [char; 8] = ['a', 'Z', ' ', 'é', 'ß', '日', '語', '🦀'];
        let text: String = picks.iter().map(|&i| PALETTE[i]).collect();
        let tok = ByteTokenizer;
        let mut stream = DecodeStream::new();
        let mut out = String::new();
        for t in tok.encode(text.as_bytes()) {
            out.push_str(&stream.push(t));
        }
        out.push_str(&stream.finish());
        prop_assert_eq!(out, text);
    }
}
