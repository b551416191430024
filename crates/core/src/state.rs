//! Compact little-endian binary codec for optimizer / training state.
//!
//! Used by [`crate::Optimizer::state_save`] / `state_load` and by the
//! training crate's checkpoint format. Deliberately not JSON: optimizer
//! moments are large f32 tensors, so the payload is raw LE bytes with
//! explicit lengths, written and read in bulk chunks rather than one
//! element at a time. Every read is bounds-checked and returns a
//! descriptive error instead of panicking, so a truncated or corrupted
//! checkpoint section surfaces as `Err`, never UB or garbage state.

use apollo_tensor::Matrix;

/// Chunk size (in f32 elements) for bulk slice conversion.
const CHUNK: usize = 1024;

/// Appends a whole `f32` slice to `out` as little-endian bytes, converting
/// in stack-buffer chunks (the bulk-write path shared with model
/// checkpoints).
pub fn extend_f32_le(out: &mut Vec<u8>, xs: &[f32]) {
    let mut tmp = [0u8; CHUNK * 4];
    out.reserve(xs.len() * 4);
    for chunk in xs.chunks(CHUNK) {
        for (i, &x) in chunk.iter().enumerate() {
            tmp[i * 4..i * 4 + 4].copy_from_slice(&x.to_le_bytes());
        }
        out.extend_from_slice(&tmp[..chunk.len() * 4]);
    }
}

/// Decodes `bytes` (length must be `4 × n`) into an `f32` vector.
pub fn f32_from_le(bytes: &[u8]) -> Result<Vec<f32>, String> {
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "f32 payload length {} not divisible by 4",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect())
}

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes and returns the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Writes a `u32` (LE).
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a `u64` (LE).
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes an `f32` (LE, bit-preserving).
    pub fn f32(&mut self, x: f32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, x: bool) {
        self.u8(u8::from(x));
    }

    /// Writes an `Option` as presence byte + whatever `write` emits for the
    /// value.
    pub(crate) fn opt<T>(&mut self, x: Option<T>, write: impl FnOnce(&mut Self, T)) {
        self.bool(x.is_some());
        if let Some(v) = x {
            write(self, v);
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed `f32` slice (bulk LE).
    pub fn f32_slice(&mut self, xs: &[f32]) {
        self.u64(xs.len() as u64);
        extend_f32_le(&mut self.buf, xs);
    }

    /// Writes a matrix: shape then bulk data.
    pub fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        extend_f32_le(&mut self.buf, m.as_slice());
    }
}

/// Bounds-checked binary reader over a byte slice.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

#[allow(clippy::len_without_is_empty)]
impl<'a> StateReader<'a> {
    /// Wraps a byte slice for reading.
    pub fn new(bytes: &'a [u8]) -> Self {
        StateReader { bytes, pos: 0 }
    }

    /// Whether all bytes were consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Errors if any bytes remain (detects mismatched layouts early).
    pub fn expect_exhausted(&self) -> Result<(), String> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(format!(
                "trailing state bytes: {} of {} unread",
                self.bytes.len() - self.pos,
                self.bytes.len()
            ))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("state length overflow")?;
        if end > self.bytes.len() {
            return Err(format!(
                "state truncated: need {} bytes at offset {}, have {}",
                n,
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` (LE).
    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and converts to `usize`.
    pub fn len(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "state length exceeds usize".to_string())
    }

    /// Reads an `f32` (LE, bit-preserving).
    pub fn f32(&mut self) -> Result<f32, String> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a bool byte (0 or 1).
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid bool byte {other}")),
        }
    }

    /// Reads an `Option` written by [`StateWriter::opt`].
    pub(crate) fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.bool()?.then(|| read(self)).transpose()
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.len()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| format!("invalid UTF-8 in state: {e}"))
    }

    /// Reads a length-prefixed `f32` slice.
    pub fn f32_slice(&mut self) -> Result<Vec<f32>, String> {
        let n = self.len()?;
        let bytes = self.take(n.checked_mul(4).ok_or("f32 slice length overflow")?)?;
        f32_from_le(bytes)
    }

    /// Reads a matrix written by [`StateWriter::matrix`].
    pub fn matrix(&mut self) -> Result<Matrix, String> {
        let rows = self.len()?;
        let cols = self.len()?;
        let n = rows.checked_mul(cols).ok_or("matrix shape overflow")?;
        let bytes = self.take(n.checked_mul(4).ok_or("matrix byte length overflow")?)?;
        let data = f32_from_le(bytes)?;
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = StateWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f32(f32::NAN);
        w.bool(true);
        w.opt(None, StateWriter::f32);
        w.opt(Some(-0.0), StateWriter::f32);
        w.opt(Some(42), StateWriter::u64);
        w.str("projector/π");
        w.f32_slice(&[1.0, -2.5, 3.25]);
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        w.matrix(&m);
        w.opt(None::<&Matrix>, StateWriter::matrix);
        let bytes = w.into_bytes();

        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.f32().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.opt(StateReader::f32).unwrap(), None);
        assert_eq!(
            r.opt(StateReader::f32).unwrap().unwrap().to_bits(),
            (-0.0f32).to_bits()
        );
        assert_eq!(r.opt(StateReader::u64).unwrap(), Some(42));
        assert_eq!(r.str().unwrap(), "projector/π");
        assert_eq!(r.f32_slice().unwrap(), vec![1.0, -2.5, 3.25]);
        assert_eq!(r.matrix().unwrap(), m);
        assert_eq!(r.opt(StateReader::matrix).unwrap(), None);
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = StateWriter::new();
        w.matrix(&Matrix::full(4, 4, 1.0));
        let bytes = w.into_bytes();
        for cut in [0, 1, 8, 15, 16, 20, bytes.len() - 1] {
            let mut r = StateReader::new(&bytes[..cut]);
            assert!(r.matrix().is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = StateWriter::new();
        w.u32(1);
        w.u8(9); // extra
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.u32().unwrap();
        assert!(r.expect_exhausted().is_err());
    }

    #[test]
    fn bulk_f32_roundtrip_spans_chunk_boundaries() {
        let xs: Vec<f32> = (0..CHUNK * 2 + 17)
            .map(|i| i as f32 * 0.5 - 100.0)
            .collect();
        let mut out = Vec::new();
        extend_f32_le(&mut out, &xs);
        assert_eq!(out.len(), xs.len() * 4);
        assert_eq!(f32_from_le(&out).unwrap(), xs);
    }
}
