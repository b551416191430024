//! Tape-free incremental decoding with per-layer KV caches.
//!
//! [`LlamaModel::forward_cached`] runs the transformer trunk over a handful
//! of new token rows without recording an autograd tape, reading and
//! extending per-sequence [`KvCache`]s so one decode step costs O(seq)
//! instead of the O(seq²) of re-running the full forward.
//!
//! # Bit-equivalence contract
//!
//! The cached forward is *bit-identical* to the graph forward
//! ([`LlamaModel::full_logits`]), not merely close. Every float operation
//! here replicates the graph op's accumulation order exactly:
//!
//! - matmuls go through the same [`Matrix`] kernels, which accumulate every
//!   output element in ascending inner-dimension order at any thread count;
//! - RMSNorm and the SwiGLU gate call the *same* fused kernels as the graph
//!   ([`apollo_tensor::fused`]), and RoPE goes through the shared
//!   [`fused::rope_rotate_row`] rotation with the frequency table hoisted
//!   out of the row loop (`powf` is pure, so precomputing it is exact);
//! - every attention score is one accumulator taking its `head_dim`
//!   products in ascending dimension, and the running softmax
//!   max/denominator and every element of the probability-weighted value
//!   sum ascend over cache positions, exactly like the graph's per-row
//!   loops. The two hot loops only choose which *independent* elements
//!   share a vector: scores run with cache positions as lanes (keys are
//!   stored position-major for it), the value sum with hidden dimensions
//!   as lanes and all heads' chains in one pass over each V row. No
//!   element's own op sequence changes, so neither do its bits. The
//!   graph's `probs · V` product includes zero-probability future
//!   positions, but `±0 · finite` never changes an accumulator, so summing
//!   only positions `0..=pos` is bit-identical.
//!
//! `nn/tests/decode_equivalence.rs` pins this contract across adversarial
//! sequence lengths, prefill chunkings, and interleaved batches.

use apollo_tensor::{current_numerics, fused, simd, Matrix, NumericsMode};

use crate::adapter::{AdapterLayer, LoraAdapter, LowRankDelta};
use crate::model::LlamaModel;

/// Per-sequence attention cache: one post-RoPE key matrix and one value
/// matrix per layer.
///
/// Values are `capacity × hidden`: row `t` is the value projection of the
/// token at absolute position `t`. Keys are stored **position-major**,
/// `hidden × capacity`: row `d` holds dimension `d` of every cached key,
/// so the positions a query is scored against are contiguous per
/// dimension and the score loop runs with positions as SIMD lanes (see
/// [`attention_scores`]). Spans exported from the cache are row-major for
/// both; the transpose happens at the copy.
#[derive(Debug, Clone)]
pub struct KvCache {
    /// Per-layer keys (RoPE already applied), `hidden × capacity`.
    k: Vec<Matrix>,
    /// Per-layer values, `capacity × hidden`.
    v: Vec<Matrix>,
    /// Number of positions filled so far (shared by all layers).
    len: usize,
}

impl KvCache {
    /// Positions filled so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no positions have been filled yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of positions the cache can hold.
    pub fn capacity(&self) -> usize {
        self.v.first().map_or(0, Matrix::rows)
    }

    /// Positions still available before the cache is full.
    pub fn remaining(&self) -> usize {
        self.capacity() - self.len
    }

    /// Resets the cache for a new sequence. Positions past `len` are never
    /// read, so the buffers need no clearing.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Bytes of K/V storage across all layers (4 per f32 element).
    pub fn memory_bytes(&self) -> usize {
        self.k
            .iter()
            .chain(self.v.iter())
            .map(|m| m.len() * 4)
            .sum()
    }

    /// Copies positions `lo..hi` of every layer out into an owned
    /// [`KvSpan`]. Because KV rows at position `t` are a pure function of
    /// the token prefix `0..=t` (and the adapter), the copy is reusable by
    /// any later sequence sharing that prefix — the foundation of the
    /// prefix cache.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi <= len()`.
    pub fn export_rows(&self, lo: usize, hi: usize) -> KvSpan {
        assert!(
            lo <= hi && hi <= self.len,
            "export_rows: {lo}..{hi} of {}",
            self.len
        );
        let hidden = self.v.first().map_or(0, Matrix::cols);
        let rows = hi - lo;
        let k = self
            .k
            .iter()
            .map(|kt| {
                let mut flat = vec![0.0f32; rows * hidden];
                for d in 0..hidden {
                    for (r, &kv) in kt.row(d)[lo..hi].iter().enumerate() {
                        flat[r * hidden + d] = kv;
                    }
                }
                flat
            })
            .collect();
        let v = self
            .v
            .iter()
            .map(|m| m.as_slice()[lo * hidden..hi * hidden].to_vec())
            .collect();
        KvSpan { k, v, rows, hidden }
    }

    /// Appends a span's rows at the cache's current length and advances it,
    /// exactly as if those positions had just been prefetched by
    /// [`LlamaModel::forward_cached`]. A bitwise copy, so decoding on top
    /// of an appended span is bit-identical to cold prefill of the same
    /// prefix (pinned by `nn/tests/decode_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics on layer/width mismatch or if the span does not fit.
    pub fn append_span(&mut self, span: &KvSpan) {
        assert_eq!(span.k.len(), self.k.len(), "append_span: layer count");
        assert_eq!(
            span.hidden,
            self.v.first().map_or(0, Matrix::cols),
            "append_span: hidden width"
        );
        assert!(span.rows <= self.remaining(), "append_span: cache full");
        let (at, hidden) = (self.len, span.hidden);
        for (kt, src) in self.k.iter_mut().zip(&span.k) {
            for d in 0..hidden {
                for (r, kv) in kt.row_mut(d)[at..at + span.rows].iter_mut().enumerate() {
                    *kv = src[r * hidden + d];
                }
            }
        }
        for (dst, src) in self.v.iter_mut().zip(&span.v) {
            dst.as_mut_slice()[at * hidden..(at + span.rows) * hidden].copy_from_slice(src);
        }
        self.len += span.rows;
    }

    /// Stores one new key/value row pair of layer `l` at position `pos`.
    fn write(&mut self, l: usize, pos: usize, krow: &[f32], vrow: &[f32]) {
        let cap = self.capacity();
        let kt = self.k[l].as_mut_slice();
        for (d, &kv) in krow.iter().enumerate() {
            kt[d * cap + pos] = kv;
        }
        self.v[l].row_mut(pos).copy_from_slice(vrow);
    }
}

/// An owned, position-independent copy of consecutive KV rows (all layers),
/// exported from one sequence's cache and appendable onto another's. Spans
/// own their storage outright — the prefix cache's eviction can therefore
/// never corrupt a sequence that already copied a span in.
#[derive(Debug, Clone)]
pub struct KvSpan {
    /// Per-layer keys, `rows × hidden` row-major.
    k: Vec<Vec<f32>>,
    /// Per-layer values, same shape.
    v: Vec<Vec<f32>>,
    rows: usize,
    hidden: usize,
}

impl KvSpan {
    /// Token positions covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes of f32 storage across all layers.
    pub fn memory_bytes(&self) -> usize {
        self.k
            .iter()
            .chain(self.v.iter())
            .map(|l| l.len() * 4)
            .sum()
    }

    /// An owned copy of rows `lo..hi` (used when a radix-tree edge splits
    /// or a lookup matches only part of a node's span).
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi <= rows()`.
    pub fn slice(&self, lo: usize, hi: usize) -> KvSpan {
        assert!(
            lo <= hi && hi <= self.rows,
            "slice: {lo}..{hi} of {}",
            self.rows
        );
        let cut = |layers: &[Vec<f32>]| -> Vec<Vec<f32>> {
            layers
                .iter()
                .map(|l| l[lo * self.hidden..hi * self.hidden].to_vec())
                .collect()
        };
        KvSpan {
            k: cut(&self.k),
            v: cut(&self.v),
            rows: hi - lo,
            hidden: self.hidden,
        }
    }
}

/// Row-wise RMSNorm with learned gain via the shared fused kernel (the
/// per-row inverse-rms cache is only needed by backward, so it is dropped).
fn rmsnorm_rows(x: &Matrix, gain: &Matrix) -> Matrix {
    fused::fused_rmsnorm_fwd(x, gain, 1e-5).0
}

/// Groups batch rows by adapter identity (pointer equality), in first-
/// appearance order. `None` rows belong to no group and get base weights
/// only.
fn group_adapter_rows<'a>(
    adapters: &[Option<&'a LoraAdapter>],
) -> Vec<(&'a LoraAdapter, Vec<usize>)> {
    let mut groups: Vec<(&LoraAdapter, Vec<usize>)> = Vec::new();
    for (r, ad) in adapters.iter().enumerate() {
        if let Some(a) = ad {
            match groups.iter_mut().find(|(g, _)| std::ptr::eq(*g, *a)) {
                Some((_, idx)) => idx.push(r),
                None => groups.push((a, vec![r])),
            }
        }
    }
    groups
}

/// Adds each group's low-rank delta to its rows of a projection output:
/// gather the group's input rows, run `((x·A)·B)·scale` in exactly the op
/// order of the LoRA `forward_nograd`, scatter-add back. Row independence
/// of the matmul kernels makes this bit-identical to a full LoRA forward
/// on those rows.
fn add_lora_deltas(
    out: &mut Matrix,
    x: &Matrix,
    groups: &[(&LoraAdapter, Vec<usize>)],
    layer: usize,
    pick: impl Fn(&AdapterLayer) -> &LowRankDelta,
) {
    for (ad, idx) in groups {
        let d = pick(&ad.layers[layer]);
        let xa = x.gather_rows(idx).matmul(&d.a);
        let xab = xa.matmul(&d.b);
        out.scatter_add_rows(idx, &xab.scale(d.scale));
    }
}

/// Cache positions scored per register block of [`attention_scores`].
const POS_LANES: usize = 32;

/// Scaled attention scores of one head against cache positions
/// `0..s.len()`: `s[j] = (Σ_d q[d] · k_j[d]) · scale`.
///
/// `kh` is the head's `head_dim` rows of a position-major key matrix (row
/// stride `cap`), so the lanes of one accumulation step are *positions*:
/// for `d` ascending, `acc[j] += q[d] · kh[d][j]`. Each score is still its
/// own accumulator, started at zero, taking one product per dimension in
/// ascending `d`, then scaled — the float ops and order of the graph's
/// `q·kᵀ` dot and `scale_assign`, hence the same bits; only now
/// [`POS_LANES`] independent chains run per pass instead of one.
fn attention_scores(qh: &[f32], kh: &[f32], cap: usize, scale: f32, s: &mut [f32]) {
    for (blk, sb) in s.chunks_mut(POS_LANES).enumerate() {
        let j0 = blk * POS_LANES;
        // A literal width keeps a full block's accumulators in registers.
        if sb.len() == POS_LANES {
            score_block(qh, kh, cap, j0, POS_LANES, scale, sb);
        } else {
            score_block(qh, kh, cap, j0, sb.len(), scale, sb);
        }
    }
}

#[inline(always)]
fn score_block(
    qh: &[f32],
    kh: &[f32],
    cap: usize,
    j0: usize,
    w: usize,
    scale: f32,
    sb: &mut [f32],
) {
    let mut acc = [0.0f32; POS_LANES];
    for (d, &qd) in qh.iter().enumerate() {
        let krow = &kh[d * cap + j0..d * cap + j0 + w];
        for (a, &kv) in acc[..w].iter_mut().zip(krow) {
            *a += qd * kv;
        }
    }
    for (sv, &a) in sb.iter_mut().zip(&acc[..w]) {
        *sv = a * scale;
    }
}

/// `probs · V` for every head of one query row: `orow[c] += p_h(c)[j] ·
/// v_j[c]` for `j` ascending, where `probs` is `heads × n_pos` and `v` the
/// row-major `capacity × hidden` value matrix.
///
/// One pass over each V row feeds all heads, so the lanes are the hidden
/// dimensions and every output element is an independent chain that adds
/// its products in ascending position — the order of the graph's `probs ·
/// V` matmul (whose extra zero-probability future terms never change an
/// accumulator). `orow` must come in zeroed.
fn attention_mix(probs: &[f32], n_pos: usize, v: &[f32], hd: usize, orow: &mut [f32]) {
    let h = orow.len();
    for (j, vrow) in v.chunks_exact(h).take(n_pos).enumerate() {
        for ((oh, vh), ph) in orow
            .chunks_exact_mut(hd)
            .zip(vrow.chunks_exact(hd))
            .zip(probs.chunks_exact(n_pos))
        {
            let pj = ph[j];
            for (ov, &vv) in oh.iter_mut().zip(vh) {
                *ov += pj * vv;
            }
        }
    }
}

impl LlamaModel {
    /// Allocates a fresh [`KvCache`] able to hold `capacity` positions.
    pub fn new_kv_cache(&self, capacity: usize) -> KvCache {
        let h = self.cfg.hidden;
        KvCache {
            k: (0..self.layers.len())
                .map(|_| Matrix::zeros(h, capacity))
                .collect(),
            v: (0..self.layers.len())
                .map(|_| Matrix::zeros(capacity, h))
                .collect(),
            len: 0,
        }
    }

    /// Runs the trunk over a batch of new token rows without a tape,
    /// extending the referenced caches, and returns the final-norm hidden
    /// states (`rows.len() × hidden`, one row per input row, in order).
    ///
    /// Each row is `(cache_index, token)`: its absolute position is the
    /// cache's current length plus the number of earlier rows in this call
    /// that reference the same cache, so a prefill chunk is simply several
    /// consecutive rows with one cache index, and a continuous-batching
    /// decode step is one row per active sequence. Rows attend to every
    /// earlier position of their own cache — including positions written
    /// earlier in the same call — and never to other caches. All caches'
    /// lengths advance only after every layer has run.
    ///
    /// # Panics
    ///
    /// Panics if a cache index or token is out of range, or a row's
    /// position would exceed its cache's capacity.
    pub fn forward_cached(&self, caches: &mut [KvCache], rows: &[(usize, u32)]) -> Matrix {
        self.forward_cached_with(caches, rows, &[])
    }

    /// [`LlamaModel::forward_cached`] with an optional per-row LoRA adapter:
    /// `adapters` is empty (no adapters anywhere) or parallel to `rows`, and
    /// each `Some` row gets its adapter's low-rank delta added to all seven
    /// projections of every layer — `x·W + ((x·A)·B)·(alpha/rank)` — without
    /// materializing a per-adapter dense weight.
    ///
    /// Rows are grouped by adapter identity so one call batches any mix of
    /// tenants. Because every Matrix kernel computes each output row
    /// independently (ascending inner-dimension accumulation per row), the
    /// gather → low-rank matmuls → scatter-add path is bit-identical to
    /// running the full LoRA model on those rows, and a mixed-adapter batch
    /// is bit-identical to serving each adapter serially (pinned by
    /// `nn/tests/decode_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics on the [`LlamaModel::forward_cached`] conditions, if
    /// `adapters` is non-empty but not parallel to `rows`, or if an
    /// adapter's layer count does not match the model's.
    pub fn forward_cached_with(
        &self,
        caches: &mut [KvCache],
        rows: &[(usize, u32)],
        adapters: &[Option<&LoraAdapter>],
    ) -> Matrix {
        assert!(
            adapters.is_empty() || adapters.len() == rows.len(),
            "forward_cached_with: adapters must be empty or one per row"
        );
        let groups = group_adapter_rows(adapters);
        for (ad, _) in &groups {
            assert_eq!(
                ad.layers.len(),
                self.layers.len(),
                "forward_cached_with: adapter layer count"
            );
        }
        let h = self.cfg.hidden;
        let heads = self.cfg.n_heads;
        let hd = self.cfg.head_dim();
        let n_rows = rows.len();
        assert!(n_rows > 0, "forward_cached: no rows");

        // Absolute position per row: cache length + in-call offset.
        let mut next_len: Vec<usize> = caches.iter().map(|c| c.len).collect();
        let positions: Vec<usize> = rows
            .iter()
            .map(|&(c, tok)| {
                assert!(
                    (tok as usize) < self.cfg.vocab_size,
                    "forward_cached: token {tok} out of vocab"
                );
                let pos = next_len[c];
                assert!(
                    pos < caches[c].capacity(),
                    "forward_cached: cache {c} full at position {pos}"
                );
                next_len[c] += 1;
                pos
            })
            .collect();

        let embed = &self.params[self.embed].value;
        let mut x = Matrix::zeros(n_rows, h);
        for (r, &(_, tok)) in rows.iter().enumerate() {
            x.row_mut(r).copy_from_slice(embed.row(tok as usize));
        }

        let scale = 1.0 / (hd as f32).sqrt();
        // Numerics tier, resolved once per call so one forward never mixes
        // tiers across layers.
        let fast = current_numerics() == NumericsMode::Fast;
        // RoPE frequency table, hoisted out of the per-layer/per-row loops
        // (pure `powf` of the geometry, so precomputing is bit-exact).
        let freqs = fused::rope_freqs(hd, self.cfg.rope_theta);
        let mut probs = Vec::new();
        for (l, layer) in self.layers.iter().enumerate() {
            let hn = rmsnorm_rows(&x, &self.params[layer.attn_norm].value);
            let mut q = layer.wq.forward_nograd(&hn, &self.params);
            let mut k = layer.wk.forward_nograd(&hn, &self.params);
            let mut v = layer.wv.forward_nograd(&hn, &self.params);
            add_lora_deltas(&mut q, &hn, &groups, l, |al| &al.wq);
            add_lora_deltas(&mut k, &hn, &groups, l, |al| &al.wk);
            add_lora_deltas(&mut v, &hn, &groups, l, |al| &al.wv);
            for (r, &pos) in positions.iter().enumerate() {
                fused::rope_rotate_row(q.row_mut(r), pos as f32, heads, hd, &freqs, false);
                fused::rope_rotate_row(k.row_mut(r), pos as f32, heads, hd, &freqs, false);
            }
            // Keys/values land in the caches first so that later rows of the
            // same call attend to earlier ones, as in the full forward.
            for (r, &(c, _)) in rows.iter().enumerate() {
                caches[c].write(l, positions[r], k.row(r), v.row(r));
            }
            let mut att = Matrix::zeros(n_rows, h);
            for (r, &(c, _)) in rows.iter().enumerate() {
                let n_pos = positions[r] + 1;
                let cache = &caches[c];
                let (kt, vc, cap) = (
                    cache.k[l].as_slice(),
                    cache.v[l].as_slice(),
                    cache.capacity(),
                );
                // Every head's probabilities first (`heads × n_pos`), so
                // the value mix below can make one pass over the V rows.
                probs.clear();
                probs.resize(heads * n_pos, 0.0);
                for (hh, ph) in probs.chunks_exact_mut(n_pos).enumerate() {
                    let dims = hh * hd..(hh + 1) * hd;
                    let kh = &kt[dims.start * cap..dims.end * cap];
                    attention_scores(&q.row(r)[dims], kh, cap, scale, ph);
                    if fast {
                        // Fast tier: vectorized exp with the denominator
                        // folded into the probabilities. Reassociated, so
                        // covered by the tolerance tests rather than the
                        // bitwise contract.
                        let maxv = simd::max_slice(ph);
                        let inv = 1.0 / simd::softmax_exp_sum(ph, maxv);
                        for pj in ph.iter_mut() {
                            *pj *= inv;
                        }
                    } else {
                        // Softmax over 0..=pos in the graph's exact order.
                        let maxv = ph.iter().cloned().fold(f32::MIN, f32::max);
                        let mut denom = 0.0f32;
                        for e in ph.iter_mut() {
                            *e = (*e - maxv).exp();
                            denom += *e;
                        }
                        for e in ph.iter_mut() {
                            *e /= denom;
                        }
                    }
                }
                let orow = att.row_mut(r);
                if fast {
                    // Fast tier: one fused FMA mix per head, accumulators
                    // in registers across the position loop.
                    for (hh, ph) in probs.chunks_exact(n_pos).enumerate() {
                        let dims = hh * hd..(hh + 1) * hd;
                        simd::attn_mix(ph, vc, h, dims.start, &mut orow[dims]);
                    }
                } else {
                    attention_mix(&probs, n_pos, vc, hd, orow);
                }
            }
            let mut o = layer.wo.forward_nograd(&att, &self.params);
            add_lora_deltas(&mut o, &att, &groups, l, |al| &al.wo);
            x.add_assign(&o);

            let mn = rmsnorm_rows(&x, &self.params[layer.mlp_norm].value);
            let mut gate_pre = layer.gate.forward_nograd(&mn, &self.params);
            let mut up = layer.up.forward_nograd(&mn, &self.params);
            add_lora_deltas(&mut gate_pre, &mn, &groups, l, |al| &al.gate);
            add_lora_deltas(&mut up, &mn, &groups, l, |al| &al.up);
            let act = fused::fused_swiglu_fwd(&gate_pre, &up);
            let mut mlp = layer.down.forward_nograd(&act, &self.params);
            add_lora_deltas(&mut mlp, &act, &groups, l, |al| &al.down);
            x.add_assign(&mlp);
        }
        for (c, len) in next_len.into_iter().enumerate() {
            caches[c].len = len;
        }
        rmsnorm_rows(&x, &self.params[self.final_norm].value)
    }

    /// Decodes final-norm hidden rows (as returned by
    /// [`LlamaModel::forward_cached`]) through the LM head.
    pub fn lm_logits(&self, hidden: &Matrix) -> Matrix {
        hidden.matmul(&self.params[self.head].value)
    }

    /// Reference logits from the full graph forward (`(batch·seq) × vocab`),
    /// the baseline the cached forward must match bit-for-bit. Also the
    /// "naive full-recompute" generation path `perf_infer` benches against.
    pub fn full_logits(&self, tokens: &[u32], batch: usize) -> Matrix {
        let (mut g, trunk, pnodes) = self.build_trunk(tokens, batch);
        let logits = g.matmul(trunk, pnodes[self.head]);
        g.value(logits).clone()
    }
}
