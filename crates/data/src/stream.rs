//! Streaming detokenization for token-at-a-time generation output.
//!
//! Token boundaries do not respect UTF-8 character boundaries: a byte-level
//! token can end mid-way through a multi-byte character, so printing each
//! token's `decode` individually emits broken output.
//! [`DecodeStream`] buffers decoded bytes and only releases the longest
//! prefix that is valid UTF-8, holding back an incomplete trailing sequence
//! (at most 3 bytes) until later tokens complete it.
//!
//! Invalid sequences that can never complete are replaced with U+FFFD using
//! the same maximal-subpart policy as [`String::from_utf8_lossy`], so the
//! concatenation of all [`DecodeStream::push`] outputs plus
//! [`DecodeStream::finish`] equals the lossy decode of the whole token
//! sequence at once — the property `data_properties.rs` pins.

use crate::tokenizer::ByteTokenizer;

/// Incremental lossy UTF-8 decoder over [`ByteTokenizer`] tokens.
#[derive(Debug, Default)]
pub struct DecodeStream {
    /// Decoded bytes held back because they end in an incomplete UTF-8
    /// sequence (never more than 3 bytes between pushes).
    pending: Vec<u8>,
}

impl DecodeStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes one token and returns whatever text is now safe to emit
    /// (possibly empty if the bytes end mid-character).
    pub fn push(&mut self, token: u32) -> String {
        self.pending
            .extend_from_slice(&ByteTokenizer.decode(&[token]));
        self.drain()
    }

    /// Number of bytes currently held back.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Flushes any held-back bytes, lossily: a final incomplete sequence
    /// can no longer complete, so it becomes U+FFFD replacement characters.
    pub fn finish(&mut self) -> String {
        let rest = String::from_utf8_lossy(&self.pending).into_owned();
        self.pending.clear();
        rest
    }

    /// Emits the longest valid-UTF-8 prefix of `pending`, replacing
    /// definitely-invalid subparts with U+FFFD and keeping only a possibly
    /// still-completable tail.
    fn drain(&mut self) -> String {
        let mut out = String::new();
        loop {
            match std::str::from_utf8(&self.pending) {
                Ok(s) => {
                    out.push_str(s);
                    self.pending.clear();
                    return out;
                }
                Err(e) => {
                    let valid = e.valid_up_to();
                    // SAFETY-free re-parse: the prefix is valid by contract.
                    out.push_str(std::str::from_utf8(&self.pending[..valid]).unwrap());
                    match e.error_len() {
                        // The tail might still become valid with more bytes.
                        None => {
                            self.pending.drain(..valid);
                            return out;
                        }
                        // A maximal invalid subpart: one replacement char,
                        // exactly like `String::from_utf8_lossy`.
                        Some(bad) => {
                            out.push('\u{FFFD}');
                            self.pending.drain(..valid + bad);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multibyte_char_split_across_tokens_is_held_back() {
        let mut s = DecodeStream::new();
        let bytes = "héllo".as_bytes(); // 'é' is two bytes
        let mut text = String::new();
        let mut saw_empty_push = false;
        for &b in bytes {
            let piece = s.push(b as u32);
            saw_empty_push |= piece.is_empty();
            text.push_str(&piece);
        }
        text.push_str(&s.finish());
        assert_eq!(text, "héllo");
        assert!(saw_empty_push, "the é lead byte must be held back");
    }

    #[test]
    fn lone_continuation_byte_becomes_replacement_char() {
        let mut s = DecodeStream::new();
        let mut text = s.push(0x80);
        text.push_str(&s.push(b'a' as u32));
        text.push_str(&s.finish());
        assert_eq!(text, "\u{FFFD}a");
    }

    #[test]
    fn dangling_lead_byte_flushes_lossily_on_finish() {
        let mut s = DecodeStream::new();
        assert_eq!(s.push(0xE2), ""); // three-byte lead, held back
        assert_eq!(s.pending_len(), 1);
        assert_eq!(s.finish(), "\u{FFFD}");
        assert_eq!(s.pending_len(), 0);
    }
}
