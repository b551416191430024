//! The byte-level tokenizer: text prompts and generated text for models
//! whose vocabulary covers all 256 byte values.

/// The identity byte tokenizer: one token per byte, so
/// `decode(encode(s)) == s` for arbitrary byte strings.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByteTokenizer;

impl ByteTokenizer {
    /// Vocabulary size (token ids are `0..vocab_size`).
    pub fn vocab_size(&self) -> usize {
        256
    }

    /// Text → token ids.
    pub fn encode(&self, text: &[u8]) -> Vec<u32> {
        text.iter().map(|&b| b as u32).collect()
    }

    /// Token ids → text.
    pub fn decode(&self, tokens: &[u32]) -> Vec<u8> {
        tokens.iter().map(|&t| t as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_tokenizer_roundtrips() {
        let t = ByteTokenizer;
        let text = b"hello \xff\x00 world";
        assert_eq!(t.decode(&t.encode(text)), text);
        assert_eq!(t.vocab_size(), 256);
    }
}
