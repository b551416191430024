//! Tape-free incremental decoding with per-layer KV caches.
//!
//! [`LlamaModel::forward_cached`] runs the transformer trunk over a handful
//! of new token rows without recording an autograd tape, reading and
//! extending per-sequence [`KvCache`]s so one decode step costs O(seq)
//! instead of the O(seq²) of re-running the full forward.
//!
//! The layer walk is written once ([`forward_cached`]) for both tiers. A
//! tier is two substitutions, not a second transformer: how a projection
//! is applied (the [`Weights`] impl — dense/LoRA/factored matmuls plus
//! per-row adapter deltas here, INT8 dequant-GEMV in `quantized.rs`) and
//! the element width of the cache it allocates (f32 or BF16), which picks
//! the kernels that read it. Dense weights over f32 caches are *exact*;
//! INT8 weights over BF16 caches are *relaxed*: they keep the walk and
//! trade the contract below for SIMD norm/softmax/mix/SwiGLU kernels, held
//! to tolerance tests instead.
//!
//! # Bit-equivalence contract
//!
//! The exact cached forward is *bit-identical* to the graph forward
//! ([`LlamaModel::full_logits`]), not merely close. Every float operation
//! here replicates the graph op's accumulation order exactly:
//!
//! - matmuls go through the same [`Matrix`] kernels, which accumulate every
//!   output element in ascending inner-dimension order at any thread count;
//! - RMSNorm and the SwiGLU gate call the *same* fused kernels as the graph
//!   ([`apollo_tensor::fused`]), and RoPE rotates by the graph's own
//!   [`fused::RopeTable`], built once per call for the rows' positions
//!   (`powf` and `sin_cos` are pure, so precomputing them is exact);
//! - every attention score is one accumulator taking its `head_dim`
//!   products in ascending dimension, and the running softmax
//!   max/denominator and every element of the probability-weighted value
//!   sum ascend over cache positions, exactly like the graph's per-row
//!   loops. The two hot loops only choose which *independent* elements
//!   share a vector: scores run with cache positions as lanes (keys are
//!   stored position-major for it), the value sum with a head's dimensions
//!   as lanes, each chain held in a register over the positions. No
//!   element's own op sequence changes, so neither do its bits. The
//!   graph's `probs · V` product includes zero-probability future
//!   positions, but `±0 · finite` never changes an accumulator, so summing
//!   only positions `0..=pos` is bit-identical.
//!
//! `nn/tests/decode_equivalence.rs` pins this contract across adversarial
//! sequence lengths, prefill chunkings, and interleaved batches.

use std::cell::RefCell;
use std::ops::Range;

use apollo_tensor::bf16::bf16_encode;
use apollo_tensor::{fused, simd, Matrix};

use crate::adapter::LoraAdapter;
use crate::config::ModelConfig;
use crate::model::{LlamaModel, Proj};

/// Every layer's keys, or every layer's values: per layer a `positions ×
/// hidden` array whose element `(pos, d)` sits at `pos · pos_stride + d ·
/// dim_stride`. Row-major (`hidden, 1`) for values, spans and BF16 keys;
/// position-major (`1, capacity`) for f32 keys — the layout is data, so
/// one copy and one write serve both.
#[derive(Debug, Clone)]
struct Plane<T> {
    data: Vec<T>,
    layer_stride: usize,
    pos_stride: usize,
    dim_stride: usize,
}

impl<T: Copy + Default> Plane<T> {
    fn new(layers: usize, cap: usize, hidden: usize, pos_major: bool) -> Self {
        let (pos_stride, dim_stride) = if pos_major { (1, cap) } else { (hidden, 1) };
        Plane {
            data: vec![T::default(); layers * cap * hidden],
            layer_stride: cap * hidden,
            pos_stride,
            dim_stride,
        }
    }

    /// The `[keys, values]` planes of one cache; only keys are ever
    /// position-major.
    fn pair(layers: usize, cap: usize, hidden: usize, k_pos_major: bool) -> [Self; 2] {
        let values = Plane::new(layers, cap, hidden, false);
        [Plane::new(layers, cap, hidden, k_pos_major), values]
    }

    fn layer(&self, l: usize) -> &[T] {
        &self.data[l * self.layer_stride..(l + 1) * self.layer_stride]
    }

    /// Copies positions `rows` of every layer of `src` to positions `at..`.
    /// An element copy, never a re-encode, so the bits survive any number
    /// of export → slice → append round trips.
    fn copy_rows(&mut self, at: usize, src: &Plane<T>, rows: Range<usize>, hidden: usize) {
        if rows.is_empty() {
            return; // which also keeps an empty span's zero stride out of `chunks_exact`
        }
        let dsts = self.data.chunks_exact_mut(self.layer_stride);
        for (dst, from) in dsts.zip(src.data.chunks_exact(src.layer_stride)) {
            if self.dim_stride == 1 && src.dim_stride == 1 {
                let n = rows.len() * hidden;
                dst[at * hidden..][..n].copy_from_slice(&from[rows.start * hidden..][..n]);
                continue;
            }
            // A transpose: dimension outermost so the position-major side
            // is walked contiguously.
            for d in 0..hidden {
                for (i, r) in rows.clone().enumerate() {
                    dst[(at + i) * self.pos_stride + d * self.dim_stride] =
                        from[r * src.pos_stride + d * src.dim_stride];
                }
            }
        }
    }

    /// Stores layer `l`'s new row at position `pos`, each element through
    /// `enc`.
    fn write_row(&mut self, l: usize, pos: usize, row: &[f32], enc: impl Fn(f32) -> T) {
        let at = l * self.layer_stride + pos * self.pos_stride;
        if self.dim_stride == 1 {
            for (dst, &x) in self.data[at..at + row.len()].iter_mut().zip(row) {
                *dst = enc(x);
            }
        } else {
            for (d, &x) in row.iter().enumerate() {
                self.data[at + d * self.dim_stride] = enc(x);
            }
        }
    }
}

/// The `[keys, values]` planes at one of the two element widths: `f32`
/// verbatim, or BF16 payloads in `u16`.
#[derive(Debug, Clone)]
enum Elems {
    F32([Plane<f32>; 2]),
    Bf16([Plane<u16>; 2]),
}

/// Per-sequence attention cache: per layer, the post-RoPE keys and the
/// values of every position filled so far, at the element width of the
/// model that allocated it ([`LlamaModel`]: f32, [`crate::QuantizedModel`]:
/// BF16).
///
/// Values are `capacity × hidden`: row `t` is the value projection of the
/// token at absolute position `t`. f32 keys are stored **position-major**,
/// `hidden × capacity`: row `d` holds dimension `d` of every cached key,
/// so the positions a query is scored against are contiguous per
/// dimension and the score loop runs with positions as SIMD lanes (see
/// [`attention_scores`]). BF16 keys are row-major like the values, which
/// is what [`simd::attn_scores_bf16`] reads. Spans exported from a cache
/// are row-major for both; the transpose happens at the copy.
#[derive(Debug, Clone)]
pub struct KvCache {
    elems: Elems,
    layers: usize,
    hidden: usize,
    capacity: usize,
    /// Number of positions filled so far (shared by all layers).
    len: usize,
}

impl KvCache {
    /// An empty cache of `capacity` positions for `cfg`'s geometry.
    pub(crate) fn new(cfg: &ModelConfig, capacity: usize, bf16: bool) -> Self {
        KvCache::with_layout(cfg.n_layers, cfg.hidden, capacity, bf16, !bf16)
    }

    /// `k_major`: whether keys are stored position-major.
    fn with_layout(layers: usize, hidden: usize, cap: usize, bf16: bool, k_major: bool) -> Self {
        let elems = if bf16 {
            Elems::Bf16(Plane::pair(layers, cap, hidden, k_major))
        } else {
            Elems::F32(Plane::pair(layers, cap, hidden, k_major))
        };
        KvCache {
            elems,
            layers,
            hidden,
            capacity: cap,
            len: 0,
        }
    }

    fn is_bf16(&self) -> bool {
        matches!(self.elems, Elems::Bf16(_))
    }

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
        self.capacity
    }

    /// Positions still available before the cache is full.
    pub fn remaining(&self) -> usize {
        self.capacity - self.len
    }

    /// Resets the cache for a new sequence. Positions past `len` are never
    /// read, so the buffers need no clearing.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Bytes of K/V storage across all layers (4 per f32 element, 2 per
    /// BF16 element).
    pub fn memory_bytes(&self) -> usize {
        match &self.elems {
            Elems::F32([k, v]) => 4 * (k.data.len() + v.data.len()),
            Elems::Bf16([k, v]) => 2 * (k.data.len() + v.data.len()),
        }
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
        let mut span =
            KvCache::with_layout(self.layers, self.hidden, hi - lo, self.is_bf16(), false);
        span.append_rows(self, lo..hi);
        KvSpan(span)
    }

    /// Appends a span's rows at the cache's current length and advances it,
    /// exactly as if those positions had just been prefilled by
    /// [`LlamaModel::forward_cached`]. A bitwise copy, so decoding on top
    /// of an appended span is bit-identical to cold prefill of the same
    /// prefix (pinned by `nn/tests/decode_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics on layer/width mismatch (hidden or element) or if the span
    /// does not fit.
    pub fn append_span(&mut self, span: &KvSpan) {
        self.append_rows(&span.0, 0..span.rows());
    }

    fn append_rows(&mut self, src: &KvCache, rows: Range<usize>) {
        assert_eq!(src.layers, self.layers, "append_span: layer count");
        assert_eq!(src.hidden, self.hidden, "append_span: hidden width");
        assert!(rows.len() <= self.remaining(), "append_span: cache full");
        let (at, h) = (self.len, self.hidden);
        match (&mut self.elems, &src.elems) {
            (Elems::F32(dst), Elems::F32(src)) => {
                (dst.iter_mut().zip(src)).for_each(|(d, s)| d.copy_rows(at, s, rows.clone(), h))
            }
            (Elems::Bf16(dst), Elems::Bf16(src)) => {
                (dst.iter_mut().zip(src)).for_each(|(d, s)| d.copy_rows(at, s, rows.clone(), h))
            }
            _ => panic!("append_span: element width"),
        }
        self.len += rows.len();
    }
}

/// An owned, position-independent copy of consecutive KV rows (all layers),
/// exported from one sequence's cache and appendable onto another's. Spans
/// own their storage outright — the prefix cache's eviction can therefore
/// never corrupt a sequence that already copied a span in.
///
/// Inside, a span is a cache filled to capacity with row-major keys; the
/// wrapper keeps it out of the walk, whose f32 score kernel expects
/// position-major ones.
#[derive(Debug, Clone)]
pub struct KvSpan(KvCache);

impl KvSpan {
    /// Token positions covered.
    pub fn rows(&self) -> usize {
        self.0.len
    }

    /// Bytes of storage across all layers.
    pub fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    /// An owned copy of rows `lo..hi` (used when a radix-tree edge splits
    /// or a lookup matches only part of a node's span).
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi <= rows()`.
    pub fn slice(&self, lo: usize, hi: usize) -> KvSpan {
        self.0.export_rows(lo, hi)
    }
}

/// What the cached walk needs from a model: its geometry, the rows it
/// gathers or scales by, and how a projection is applied. Everything else
/// — positions, RoPE, cache writes, attention, residuals — is
/// [`forward_cached`], written once for every tier.
pub(crate) trait Weights {
    fn cfg(&self) -> &ModelConfig;
    fn embed_row(&self, tok: usize) -> &[f32];
    /// The `1 × hidden` gain of layer `l`'s attention norm.
    fn attn_norm(&self, l: usize) -> &Matrix;
    /// The `1 × hidden` gain of layer `l`'s MLP norm.
    fn mlp_norm(&self, l: usize) -> &Matrix;
    fn final_norm(&self) -> &Matrix;
    /// `y = x · W` for projection `which` of layer `l`, one output row per
    /// row of `x`, each a function of that row alone.
    fn project(&self, l: usize, which: Proj, x: &Matrix, y: &mut Matrix);
    /// Whether this model is the relaxed tier: INT8 weights against BF16
    /// caches.
    fn is_relaxed(&self) -> bool;
}

/// The walk's activations, kept per thread between calls. Kernels that
/// write into a caller's buffer (the INT8 projection, the relaxed norm and
/// SwiGLU) then decode without allocating, whichever tier is running;
/// kernels that return a fresh matrix (the exact tier's) replace the slot.
#[derive(Default)]
struct Temps {
    x: Matrix,
    /// `x` normalised, for the attention block and then for the MLP.
    norm: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    att: Matrix,
    gate: Matrix,
    up: Matrix,
    act: Matrix,
    /// The `o` and `down` projections, each added to `x` at once.
    out: Matrix,
    probs: Vec<f32>,
}

thread_local! {
    static TEMPS: RefCell<Temps> = RefCell::default();
}

/// Row-wise RMSNorm with learned gain into `y`. Exact: the graph's fused
/// kernel (the per-row inverse-rms cache is only needed by backward, so it
/// is dropped). Relaxed: the 8-lane sum of squares and gain write, row by
/// row.
fn rmsnorm_rows(relaxed: bool, x: &Matrix, gain: &Matrix, y: &mut Matrix) {
    if !relaxed {
        *y = fused::fused_rmsnorm_fwd(x, gain, 1e-5).0;
        return;
    }
    let n = x.cols() as f32;
    y.resize_to(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = x.row(r);
        let inv = 1.0 / (simd::sum_squares(row) / n + 1e-5).sqrt();
        simd::scale_gain(y.row_mut(r), row, inv, gain.row(0));
    }
}

/// `act = silu(gate) ⊙ up`. Exact: the graph's fused kernel. Relaxed: the
/// vectorized kernel one row at a time — its scalar tail starts where the
/// slice's length stops dividing by the lane count, so run over a band of
/// rows it would make a row's bits depend on its position in the batch
/// whenever `intermediate % 8 ≠ 0`.
fn swiglu_rows(relaxed: bool, gate: &Matrix, up: &Matrix, act: &mut Matrix) {
    if !relaxed {
        *act = fused::fused_swiglu_fwd(gate, up);
        return;
    }
    act.resize_to(gate.rows(), gate.cols());
    for r in 0..gate.rows() {
        simd::silu_mul(gate.row(r), up.row(r), act.row_mut(r));
    }
}

/// In-place softmax of one head's scores over positions `0..=pos`, in the
/// graph's exact order.
fn softmax_exact(ph: &mut [f32]) {
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

/// The relaxed tier's softmax: vectorized exp with the denominator folded
/// into the probabilities. Reassociated, so covered by the tolerance tests
/// rather than the bitwise contract.
fn softmax_relaxed(ph: &mut [f32]) {
    let maxv = simd::max_slice(ph);
    let inv = 1.0 / simd::softmax_exp_sum(ph, maxv);
    for pj in ph.iter_mut() {
        *pj *= inv;
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

/// `probs · V` for every head of one query row: `orow[c] = Σ_j p_h(c)[j] ·
/// v_j[c]` for `j` ascending, where `probs` is `heads × n_pos` and `v` the
/// row-major `capacity × hidden` value matrix.
///
/// Each head walks the positions once per [`mix_block`] of its dimensions,
/// so the lanes are hidden dimensions and every output element is an
/// independent chain, held in a register from `+0.0` over the positions and
/// stored once, that adds its products in ascending position — the order
/// of the graph's `probs · V` matmul (whose extra zero-probability future
/// terms never change an accumulator). A head is cut into the widest blocks
/// that fit what is left of it: up to four 8-lane vectors, then 4, 2 and 1
/// lanes, so every head width runs the one body at literal widths.
fn attention_mix(probs: &[f32], n_pos: usize, v: &[f32], hd: usize, orow: &mut [f32]) {
    let h = orow.len();
    for (hh, ph) in probs.chunks_exact(n_pos).enumerate() {
        let (mut d, end) = (hh * hd, (hh + 1) * hd);
        while d < end {
            let o = &mut orow[d..];
            d += match end - d {
                32.. => mix_block::<8, 4>(ph, v, h, d, o),
                24..32 => mix_block::<8, 3>(ph, v, h, d, o),
                16..24 => mix_block::<8, 2>(ph, v, h, d, o),
                8..16 => mix_block::<8, 1>(ph, v, h, d, o),
                4..8 => mix_block::<4, 1>(ph, v, h, d, o),
                2..4 => mix_block::<2, 1>(ph, v, h, d, o),
                _ => mix_block::<1, 1>(ph, v, h, d, o),
            };
        }
    }
}

/// One block of `C` vectors of `W` lanes of [`attention_mix`], dimensions
/// `d0..d0 + C·W` of every position's value row (row stride `h`) weighted
/// by one head's probabilities `ph`, into the first `C·W` elements of
/// `out`. Returns the block's width.
#[inline(always)]
fn mix_block<const W: usize, const C: usize>(
    ph: &[f32],
    v: &[f32],
    h: usize,
    d0: usize,
    out: &mut [f32],
) -> usize {
    let mut acc = [[0.0f32; W]; C];
    for (j, &pj) in ph.iter().enumerate() {
        let vrow = &v[j * h + d0..];
        for (c, a) in acc.iter_mut().enumerate() {
            let vc: &[f32; W] = vrow[c * W..].first_chunk().expect("mix: value row");
            for (x, &vv) in a.iter_mut().zip(vc) {
                *x += pj * vv;
            }
        }
    }
    for (o, a) in out.chunks_exact_mut(W).zip(&acc) {
        o.copy_from_slice(a);
    }
    W * C
}

/// The one cached walk every tier decodes through; the public
/// `forward_cached` methods forward here, and [`LlamaModel::forward_cached`]
/// documents the row and position semantics.
///
/// The relaxed tier (an INT8 model over BF16 caches) swaps the norm,
/// softmax, value-mix and SwiGLU kernels for their SIMD forms, each applied
/// to one row at a time so a row's bits never depend on which other rows
/// share the call.
///
/// # Panics
///
/// Panics if any cache was not allocated by a model of `w`'s tier and
/// geometry — checked for every cache before one is written.
pub(crate) fn forward_cached<W: Weights>(
    w: &W,
    caches: &mut [KvCache],
    rows: &[(usize, u32)],
) -> Matrix {
    let cfg = w.cfg();
    let (h, heads, hd) = (cfg.hidden, cfg.n_heads, cfg.head_dim());
    let n_rows = rows.len();
    assert!(n_rows > 0, "forward_cached: no rows");
    for (c, cache) in caches.iter().enumerate() {
        assert!(
            cache.is_bf16() == w.is_relaxed(),
            "forward_cached: cache tier does not match the model (cache {c})"
        );
        assert!(
            cache.layers == cfg.n_layers,
            "forward_cached: cache {c} has {} layers, the model {}",
            cache.layers,
            cfg.n_layers
        );
        assert!(
            cache.hidden == h,
            "forward_cached: cache {c} has hidden width {}, the model {h}",
            cache.hidden
        );
    }

    // Absolute position per row: cache length + in-call offset.
    let mut next_len: Vec<usize> = caches.iter().map(|c| c.len).collect();
    let positions: Vec<usize> = rows
        .iter()
        .map(|&(c, tok)| {
            assert!(
                (tok as usize) < cfg.vocab_size,
                "forward_cached: token {tok} out of vocab"
            );
            let pos = next_len[c];
            assert!(
                pos < caches[c].capacity,
                "forward_cached: cache {c} full at position {pos}"
            );
            next_len[c] += 1;
            pos
        })
        .collect();

    // Taken out of the thread-local for the call (and put back at the end)
    // rather than borrowed, so a panic or a nested call finds it empty,
    // never locked.
    let mut t = TEMPS.take();
    t.x.resize_to(n_rows, h);
    for (r, &(_, tok)) in rows.iter().enumerate() {
        t.x.row_mut(r).copy_from_slice(w.embed_row(tok as usize));
    }

    let scale = 1.0 / (hd as f32).sqrt();
    // The tier is the backend: every cache was checked against it above.
    let relaxed = w.is_relaxed();
    // Each row's angles, shared by Q and K of every layer.
    let rope = fused::RopeTable::new(positions.iter().copied(), hd, cfg.rope_theta, false);
    for l in 0..cfg.n_layers {
        rmsnorm_rows(relaxed, &t.x, w.attn_norm(l), &mut t.norm);
        w.project(l, Proj::Q, &t.norm, &mut t.q);
        w.project(l, Proj::K, &t.norm, &mut t.k);
        w.project(l, Proj::V, &t.norm, &mut t.v);
        for r in 0..n_rows {
            rope.rotate(t.q.row_mut(r), r, heads);
            rope.rotate(t.k.row_mut(r), r, heads);
        }
        // Keys/values land in the caches first so that later rows of the
        // same call attend to earlier ones, as in the full forward.
        for (r, &(c, _)) in rows.iter().enumerate() {
            let (pos, krow, vrow) = (positions[r], t.k.row(r), t.v.row(r));
            match &mut caches[c].elems {
                Elems::F32([keys, vals]) => {
                    keys.write_row(l, pos, krow, |x| x);
                    vals.write_row(l, pos, vrow, |x| x);
                }
                Elems::Bf16([keys, vals]) => {
                    keys.write_row(l, pos, krow, bf16_encode);
                    vals.write_row(l, pos, vrow, bf16_encode);
                }
            }
        }
        t.att.resize_to(n_rows, h);
        for (r, &(c, _)) in rows.iter().enumerate() {
            let n_pos = positions[r] + 1;
            let (qrow, orow, probs) = (t.q.row(r), t.att.row_mut(r), &mut t.probs);
            // The cache's element width picks the kernels that read it; the
            // score kernels overwrite whatever `probs` held.
            match &caches[c].elems {
                Elems::F32([keys, vals]) => {
                    let (cap, keys, vals) = (keys.dim_stride, keys.layer(l), vals.layer(l));
                    probs.resize(heads * n_pos, 0.0);
                    // Every head's probabilities first (`heads × n_pos`), so
                    // the exact value mix can make one pass over the V rows.
                    for (hh, ph) in probs.chunks_exact_mut(n_pos).enumerate() {
                        let dims = hh * hd..(hh + 1) * hd;
                        let kh = &keys[dims.start * cap..dims.end * cap];
                        attention_scores(&qrow[dims], kh, cap, scale, ph);
                        softmax_exact(ph);
                    }
                    attention_mix(probs, n_pos, vals, hd, orow);
                }
                Elems::Bf16([keys, vals]) => {
                    let (keys, vals) = (keys.layer(l), vals.layer(l));
                    probs.resize(n_pos, 0.0);
                    // One fused call per head each way, BF16 operands
                    // decoded in register.
                    for hh in 0..heads {
                        let dims = hh * hd..(hh + 1) * hd;
                        let qh = &qrow[dims.clone()];
                        simd::attn_scores_bf16(qh, keys, h, dims.start, scale, probs);
                        softmax_relaxed(probs);
                        simd::attn_mix_bf16(probs, vals, h, dims.start, &mut orow[dims]);
                    }
                }
            }
        }
        w.project(l, Proj::O, &t.att, &mut t.out);
        t.x.add_assign(&t.out);

        rmsnorm_rows(relaxed, &t.x, w.mlp_norm(l), &mut t.norm);
        w.project(l, Proj::Gate, &t.norm, &mut t.gate);
        w.project(l, Proj::Up, &t.norm, &mut t.up);
        swiglu_rows(relaxed, &t.gate, &t.up, &mut t.act);
        w.project(l, Proj::Down, &t.act, &mut t.out);
        t.x.add_assign(&t.out);
    }
    for (cache, len) in caches.iter_mut().zip(next_len) {
        cache.len = len;
    }
    let mut hidden = Matrix::default();
    rmsnorm_rows(relaxed, &t.x, w.final_norm(), &mut hidden);
    TEMPS.set(t);
    hidden
}

/// A dense model plus this call's per-row adapters, grouped by adapter
/// identity (pointer equality) in first-appearance order. Rows in no group
/// get base weights only.
struct Adapted<'a> {
    model: &'a LlamaModel,
    groups: Vec<(&'a LoraAdapter, Vec<usize>)>,
}

impl Weights for Adapted<'_> {
    fn cfg(&self) -> &ModelConfig {
        &self.model.cfg
    }

    fn embed_row(&self, tok: usize) -> &[f32] {
        self.model.params[self.model.embed].value.row(tok)
    }

    fn attn_norm(&self, l: usize) -> &Matrix {
        &self.model.params[self.model.layers[l].attn_norm].value
    }

    fn mlp_norm(&self, l: usize) -> &Matrix {
        &self.model.params[self.model.layers[l].mlp_norm].value
    }

    fn final_norm(&self) -> &Matrix {
        &self.model.params[self.model.final_norm].value
    }

    /// The linear's own `forward_nograd`, then each group's low-rank delta
    /// on its rows: gather the group's input rows, run `((x·A)·B)·scale` in
    /// exactly the op order of the LoRA `forward_nograd`, scatter-add back.
    /// Row independence of the matmul kernels makes this bit-identical to a
    /// full LoRA forward on those rows.
    fn project(&self, l: usize, which: Proj, x: &Matrix, y: &mut Matrix) {
        let lin = self.model.layers[l].linears()[which as usize];
        *y = lin.forward_nograd(x, &self.model.params);
        for (ad, idx) in &self.groups {
            let d = &ad.layers[l][which as usize];
            let xab = x.gather_rows(idx).matmul(&d.a).matmul(&d.b);
            y.scatter_add_rows(idx, &xab.scale(d.scale));
        }
    }

    fn is_relaxed(&self) -> bool {
        false
    }
}

impl LlamaModel {
    /// Allocates a fresh f32 [`KvCache`] able to hold `capacity` positions.
    pub fn new_kv_cache(&self, capacity: usize) -> KvCache {
        KvCache::new(&self.cfg, capacity, false)
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
    /// Panics if a cache was allocated for another geometry or tier, a
    /// cache index or token is out of range, or a row's position would
    /// exceed its cache's capacity.
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
        let mut groups: Vec<(&LoraAdapter, Vec<usize>)> = Vec::new();
        for (r, ad) in adapters.iter().enumerate() {
            let Some(a) = ad else { continue };
            assert_eq!(
                a.layers.len(),
                self.layers.len(),
                "forward_cached_with: adapter layer count"
            );
            match groups.iter_mut().find(|(g, _)| std::ptr::eq(*g, *a)) {
                Some((_, idx)) => idx.push(r),
                None => groups.push((a, vec![r])),
            }
        }
        forward_cached(
            &Adapted {
                model: self,
                groups,
            },
            caches,
            rows,
        )
    }

    /// Decodes final-norm hidden rows (as returned by
    /// [`LlamaModel::forward_cached`]) through the LM head.
    pub fn lm_logits(&self, hidden: &Matrix) -> Matrix {
        hidden.matmul(&self.params[self.head].value)
    }

    /// Reference logits from the full graph forward (`(batch·seq) × vocab`),
    /// the baseline the cached forward must match bit-for-bit.
    pub fn full_logits(&self, tokens: &[u32], batch: usize) -> Matrix {
        let (mut g, trunk, pnodes) = self.build_trunk(tokens, batch);
        let logits = g.matmul(trunk, pnodes[self.head]);
        g.value(logits).clone()
    }
}
