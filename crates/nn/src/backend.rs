//! Decode backend selection: exact f32 vs the relaxed INT8+BF16 tier.
//!
//! [`DecodeBackend`] lets the serving stack (`apollo-infer`) hold either
//! the bit-exact [`LlamaModel`] or the quantized [`QuantizedModel`] behind
//! one interface. Both run the same cached walk over the same [`KvCache`]
//! type; a backend's [`DecodeCaches`] pool holds caches of the element
//! width its model allocates, and the walk refuses any other.
//!
//! The enum is deliberately *not* a trait object: both variants are known,
//! the dispatch is one match in a hot loop, and keeping the concrete types
//! visible preserves the exact path's bit-equivalence contract (nothing is
//! erased behind a vtable that tests can't name).

use std::sync::Arc;

use apollo_tensor::Matrix;

use crate::adapter::LoraAdapter;
use crate::config::ModelConfig;
use crate::decode::{KvCache, KvSpan};
use crate::model::LlamaModel;
use crate::quantized::QuantizedModel;

/// A decode-capable model: the exact f32 model or an INT8 snapshot.
#[derive(Debug, Clone)]
pub enum DecodeBackend {
    /// Bit-exact f32 decode against f32 KV caches.
    Exact(Arc<LlamaModel>),
    /// Relaxed-tier INT8-weight decode against BF16 KV caches.
    Int8(Arc<QuantizedModel>),
}

impl From<Arc<LlamaModel>> for DecodeBackend {
    fn from(m: Arc<LlamaModel>) -> Self {
        DecodeBackend::Exact(m)
    }
}

impl From<LlamaModel> for DecodeBackend {
    fn from(m: LlamaModel) -> Self {
        DecodeBackend::Exact(Arc::new(m))
    }
}

impl From<Arc<QuantizedModel>> for DecodeBackend {
    fn from(m: Arc<QuantizedModel>) -> Self {
        DecodeBackend::Int8(m)
    }
}

impl From<QuantizedModel> for DecodeBackend {
    fn from(m: QuantizedModel) -> Self {
        DecodeBackend::Int8(Arc::new(m))
    }
}

/// One KV cache per scheduler slot, all allocated by one backend.
#[derive(Debug, Clone)]
pub struct DecodeCaches(Vec<KvCache>);

impl DecodeCaches {
    /// Number of cache slots.
    pub fn num_slots(&self) -> usize {
        self.0.len()
    }

    /// Positions filled in slot `i`.
    pub fn slot_len(&self, i: usize) -> usize {
        self.0[i].len()
    }

    /// Positions still available in slot `i`.
    pub fn remaining(&self, i: usize) -> usize {
        self.0[i].remaining()
    }

    /// Resets slot `i` for a new sequence.
    pub fn clear(&mut self, i: usize) {
        self.0[i].clear()
    }

    /// Total bytes of K/V storage across all slots and layers — the
    /// `infer.mem.kv_bytes` gauge.
    pub fn memory_bytes(&self) -> usize {
        self.0.iter().map(KvCache::memory_bytes).sum()
    }

    /// Bytes of K/V storage actually filled (positions `0..len` of every
    /// slot) — the live-usage number `GET /stats` reports, as opposed to
    /// [`DecodeCaches::memory_bytes`]'s allocated capacity.
    pub fn used_bytes(&self) -> usize {
        let used = |c: &KvCache| c.memory_bytes() / c.capacity().max(1) * c.len();
        self.0.iter().map(used).sum()
    }

    /// Copies positions `lo..hi` of slot `i` into an owned [`KvBlock`].
    pub fn export_rows(&self, i: usize, lo: usize, hi: usize) -> KvBlock {
        self.0[i].export_rows(lo, hi)
    }

    /// Appends a block's rows at slot `i`'s current length (bitwise copy).
    ///
    /// # Panics
    ///
    /// Panics if the block's geometry or element width does not match
    /// the slot's.
    pub fn append_block(&mut self, i: usize, block: &KvBlock) {
        self.0[i].append_span(block)
    }
}

/// An owned KV span — what the prefix cache stores. Blocks hold their own
/// copies, so cache eviction never touches rows already appended into a
/// slot.
pub type KvBlock = KvSpan;

impl DecodeBackend {
    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        match self {
            DecodeBackend::Exact(m) => m.config(),
            DecodeBackend::Int8(m) => m.config(),
        }
    }

    /// Short tier name for traces and bench reports.
    pub fn mode_name(&self) -> &'static str {
        match self {
            DecodeBackend::Exact(_) => "exact-f32",
            DecodeBackend::Int8(_) => "int8-bf16",
        }
    }

    /// Bytes of weight storage — the `infer.mem.weight_bytes` gauge.
    /// f32 counts every parameter at 4 bytes; INT8 counts quantized data +
    /// scales plus the f32 embedding and norms.
    pub fn weight_bytes(&self) -> usize {
        match self {
            DecodeBackend::Exact(m) => m.params.iter().map(|p| p.value.len() * 4).sum(),
            DecodeBackend::Int8(m) => m.weight_bytes(),
        }
    }

    /// Allocates `slots` caches of `capacity` positions each, at the
    /// element width the backend's model decodes against.
    pub fn new_caches(&self, slots: usize, capacity: usize) -> DecodeCaches {
        let one = || match self {
            DecodeBackend::Exact(m) => m.new_kv_cache(capacity),
            DecodeBackend::Int8(m) => m.new_kv_cache(capacity),
        };
        DecodeCaches((0..slots).map(|_| one()).collect())
    }

    /// Runs the trunk over a batch of rows (see
    /// [`LlamaModel::forward_cached`] for the row/position semantics,
    /// which both tiers share).
    ///
    /// # Panics
    ///
    /// Panics if `caches` were allocated by a backend of the other tier.
    pub fn forward_cached(&self, caches: &mut DecodeCaches, rows: &[(usize, u32)]) -> Matrix {
        self.forward_cached_with(caches, rows, &[])
    }

    /// [`DecodeBackend::forward_cached`] with optional per-row LoRA
    /// adapters (see [`LlamaModel::forward_cached_with`]).
    ///
    /// # Panics
    ///
    /// Panics on tier mismatch, or if any adapter is supplied on the INT8
    /// tier — quantized weights fold the whole projection into one INT8
    /// matrix, so there is no base/delta split to route adapters through.
    pub fn forward_cached_with(
        &self,
        caches: &mut DecodeCaches,
        rows: &[(usize, u32)],
        adapters: &[Option<&LoraAdapter>],
    ) -> Matrix {
        match self {
            DecodeBackend::Exact(m) => m.forward_cached_with(&mut caches.0, rows, adapters),
            DecodeBackend::Int8(m) => {
                assert!(
                    adapters.iter().all(Option::is_none),
                    "forward_cached_with: adapters require the exact backend"
                );
                m.forward_cached(&mut caches.0, rows)
            }
        }
    }

    /// Decodes final-norm hidden rows through the LM head.
    pub fn lm_logits(&self, hidden: &Matrix) -> Matrix {
        match self {
            DecodeBackend::Exact(m) => m.lm_logits(hidden),
            DecodeBackend::Int8(m) => m.lm_logits(hidden),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearMode;
    use apollo_tensor::Rng;

    fn tiny_backends() -> (DecodeBackend, DecodeBackend) {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(80);
        let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        let qm = QuantizedModel::from_model(&model);
        (DecodeBackend::from(model), DecodeBackend::from(qm))
    }

    #[test]
    fn both_tiers_decode_through_one_interface() {
        let (exact, int8) = tiny_backends();
        for b in [&exact, &int8] {
            let mut caches = b.new_caches(2, 8);
            assert_eq!(caches.num_slots(), 2);
            let h = b.forward_cached(&mut caches, &[(0, 1), (1, 2), (0, 3)]);
            let logits = b.lm_logits(&h);
            assert_eq!(logits.rows(), 3);
            assert_eq!(logits.cols(), b.config().vocab_size);
            assert_eq!(caches.slot_len(0), 2);
            assert_eq!(caches.slot_len(1), 1);
            assert_eq!(caches.remaining(0), 6);
            assert!(caches.memory_bytes() > 0);
            caches.clear(0);
            assert_eq!(caches.slot_len(0), 0);
        }
    }

    #[test]
    fn int8_backend_reports_smaller_footprint() {
        let (exact, int8) = tiny_backends();
        assert!(int8.weight_bytes() < exact.weight_bytes());
        let ec = exact.new_caches(1, 16);
        let qc = int8.new_caches(1, 16);
        assert_eq!(qc.memory_bytes() * 2, ec.memory_bytes());
        assert_eq!(exact.mode_name(), "exact-f32");
        assert_eq!(int8.mode_name(), "int8-bf16");
    }

    #[test]
    #[should_panic(expected = "cache tier does not match")]
    fn tier_mismatch_panics() {
        let (exact, int8) = tiny_backends();
        let mut wrong = int8.new_caches(1, 4);
        exact.forward_cached(&mut wrong, &[(0, 1)]);
    }
}
