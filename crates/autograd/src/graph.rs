//! The autodiff tape.
//!
//! Forward and backward arms of the memory-bound ops (rmsnorm, swiglu,
//! rope, softmax cross-entropy) dispatch to the single-pass kernels in
//! [`apollo_tensor::fused`], which are bit-identical to the staged
//! loops they replaced (see `fused::reference` and the
//! `fused_equivalence` property tests).

use std::borrow::Cow;

use apollo_tensor::{fused, Matrix};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Recorded operation, including any activation caches needed by backward.
enum Op {
    Leaf,
    /// `a · b`
    MatMul(NodeId, NodeId),
    /// `a + b` (same shape)
    Add(NodeId, NodeId),
    /// `a ⊙ b` (same shape)
    Mul(NodeId, NodeId),
    /// `alpha · a`
    Scale(NodeId, f32),
    /// `silu(a) = a · sigmoid(a)`
    Silu(NodeId),
    /// `silu(a) ⊙ b`, fused (the LLaMA MLP gate without temporaries).
    Swiglu {
        a: NodeId,
        b: NodeId,
        /// `σ(a)`, kept by a rematerializing recompute for this node's own
        /// arm, which then evaluates no `exp` of its own.
        sigmoid: Option<Matrix>,
    },
    /// Row-wise RMS normalization with a learned per-column gain.
    RmsNorm {
        x: NodeId,
        gain: NodeId,
        /// Cached `1 / rms` per row.
        inv_rms: Vec<f32>,
    },
    /// Rotary position embedding applied per head.
    Rope {
        x: NodeId,
        seq: usize,
        heads: usize,
        theta_base: f32,
    },
    /// Fused causal multi-head self-attention.
    CausalAttention {
        q: NodeId,
        k: NodeId,
        v: NodeId,
        batch: usize,
        seq: usize,
        heads: usize,
        /// Cached softmax probabilities, one packed lower triangle per
        /// `(batch, head)` pair at index `b·heads + h`: `seq(seq+1)/2`
        /// values, with row `i` of the pair's `seq × seq` matrix `P` at
        /// `i(i+1)/2 ..= i(i+1)/2 + i`. The causal mask makes every entry
        /// above the diagonal zero, so it is not stored.
        probs: Vec<Vec<f32>>,
    },
    /// Row gather: `out[i] = table[ids[i]]` (embedding lookup, last-token
    /// selection).
    Gather {
        table: NodeId,
        ids: Vec<u32>,
        /// The table's row count, the arm's only use of the table.
        rows: usize,
    },
    /// Mean softmax cross-entropy over rows of `logits`.
    CrossEntropy {
        logits: NodeId,
        targets: Vec<u32>,
        /// Cached unnormalized softmax numerators `exp(x - rowmax)`; the
        /// normalized probability is `exps[r,j] / denoms[r]` (the same
        /// division the staged implementation performed in place). The
        /// consuming form writes them into the logits' own buffer.
        exps: Matrix,
        /// Cached per-row softmax denominators.
        denoms: Vec<f32>,
    },
    /// Sum of all elements (scalar output), with the operand's shape.
    Sum(NodeId, (usize, usize)),
    /// A non-leaf the backward walk has finished with: its value, gradient
    /// and caches are gone, and it takes part in no further walk.
    Released,
}

impl Op {
    /// The operands whose values this op's backward arm reads, which are
    /// also what a rematerializing recompute reads. The `Add`, `Scale`,
    /// `Rope`, `Gather`, `CrossEntropy` and `Sum` arms read none.
    fn arm_reads(&self) -> [Option<NodeId>; 3] {
        match *self {
            Op::MatMul(a, b) | Op::Mul(a, b) | Op::Swiglu { a, b, .. } => [Some(a), Some(b), None],
            Op::Silu(a) => [Some(a), None, None],
            Op::RmsNorm { x, gain, .. } => [Some(x), Some(gain), None],
            Op::CausalAttention { q, k, v, .. } => [Some(q), Some(k), Some(v)],
            _ => [None; 3],
        }
    }
}

/// What the tape holds for a node's forward value.
enum Slot<'a> {
    Live(Cow<'a, Matrix>),
    /// Backward has passed the node and freed its value.
    Released,
    /// A consuming op (the node named) took the buffer over for its own
    /// output.
    ConsumedBy(NodeId),
    /// [`Graph::remat`] dropped the value; backward recomputes it before the
    /// first arm that reads it.
    Remat,
}

/// A define-by-run autodiff tape.
///
/// Build the forward computation with the op methods, then call
/// [`Graph::backward`] once on a scalar output. The walk frees each
/// non-leaf node as soon as it has passed it, so afterwards the tape holds
/// only its leaves (their values and gradients) and the output's value:
/// gradients are read with [`Graph::grad`] or moved out with
/// [`Graph::take_grad`], the loss with [`Graph::value`]. Read any other
/// value before the walk.
///
/// At the end of the forward the tape need hold only what some backward
/// arm reads, and a caller that is done with a value says so at the op
/// that takes it: [`Graph::add_consuming`], [`Graph::rope_consuming`] and
/// [`Graph::cross_entropy_consuming`] compute in their operand's buffer
/// instead of a copy, because their arms do not read that operand's value.
/// The consumed node's gradient still flows; only its value is gone, and
/// reading it, or recording another op on it, panics. Leaves are never
/// consumed: a consuming form copies a leaf, which stays readable, and a
/// node some recorded arm reads is refused. The plain forms consume nothing.
///
/// A value that is cheap to rebuild from what the tape keeps anyway need
/// not stay either: [`Graph::remat`] drops an `rmsnorm` or `swiglu` output
/// once the forward is done with it, and backward recomputes it, bit for
/// bit, just before the first arm that reads it.
///
/// Parameter leaves are borrowed for `'a` ([`Graph::param`]), so a tape
/// never copies the weights it differentiates, and the weights cannot
/// change while a tape reads them.
pub struct Graph<'a> {
    vals: Vec<Slot<'a>>,
    ops: Vec<Op>,
    grads: Vec<Option<Matrix>>,
    walked: bool,
}

impl Default for Graph<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Graph<'a> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph {
            vals: Vec::new(),
            ops: Vec::new(),
            grads: Vec::new(),
            walked: false,
        }
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        self.push_cow(Cow::Owned(value), op)
    }

    fn push_cow(&mut self, value: Cow<'a, Matrix>, op: Op) -> NodeId {
        self.vals.push(Slot::Live(value));
        self.ops.push(op);
        self.grads.push(None);
        NodeId(self.vals.len() - 1)
    }

    /// `id`'s value as a buffer the op about to be recorded may overwrite:
    /// a non-leaf's own buffer, after which `id` reads as consumed by that
    /// op, or a copy of a leaf's.
    ///
    /// # Panics
    ///
    /// Panics if the node's value is already gone, or if an op recorded
    /// on it reads it in backward (or to rematerialize its own output).
    fn take_operand(&mut self, id: NodeId) -> Matrix {
        let value = self.value(id);
        if let Op::Leaf = self.ops[id.0] {
            return value.clone();
        }
        let reads = |r: &Op| r.arm_reads().contains(&Some(id));
        if let Some(reader) = self.ops[id.0 + 1..].iter().position(reads) {
            panic!(
                "node {} is read by the backward arm of node {}, so no op may \
                 consume it; record this op in its plain form",
                id.0,
                id.0 + 1 + reader
            );
        }
        let consumer = NodeId(self.vals.len());
        match std::mem::replace(&mut self.vals[id.0], Slot::ConsumedBy(consumer)) {
            Slot::Live(v) => v.into_owned(),
            _ => unreachable!("value() checked it is live"),
        }
    }

    /// Registers an input the tape owns (gradient is still computed but
    /// usually ignored).
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// Registers a trainable parameter leaf, borrowed rather than copied;
    /// the caller keeps the returned id to fetch the gradient.
    pub fn param(&mut self, value: &'a Matrix) -> NodeId {
        self.push_cow(Cow::Borrowed(value), Op::Leaf)
    }

    /// The forward value of a node. A node a consuming op took over has
    /// none from that op on, a rematerialized one none from
    /// [`Graph::remat`] on, and after [`Graph::backward`] only leaves and
    /// the walk's output still have one.
    ///
    /// # Panics
    ///
    /// Panics if a consuming op took the node's buffer, [`Graph::remat`]
    /// dropped it or backward has released it; the message names the node
    /// and, if consumed, its consumer.
    pub fn value(&self, id: NodeId) -> &Matrix {
        live(&self.vals, id)
    }

    /// The gradient of a leaf after [`Graph::backward`].
    ///
    /// # Panics
    ///
    /// Panics if the node has no gradient: backward has not run or did not
    /// reach it (it does not influence the loss), the node is not a leaf
    /// (backward released its gradient), or the gradient was taken.
    pub fn grad(&self, id: NodeId) -> &Matrix {
        self.grads[id.0]
            .as_ref()
            .expect("grad: node has no gradient; only leaves keep one after backward()")
    }

    /// The gradient if the node has one: after [`Graph::backward`], a leaf
    /// the walk reached whose gradient was not taken; never a non-leaf.
    pub fn try_grad(&self, id: NodeId) -> Option<&Matrix> {
        self.grads[id.0].as_ref()
    }

    /// Moves the gradient out of the tape if one was produced; the node has
    /// none afterwards.
    pub fn take_grad(&mut self, id: NodeId) -> Option<Matrix> {
        self.grads[id.0].take()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    // ----- ops ---------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Elementwise sum of two same-shape nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// [`Graph::add`] that accumulates `a` into `b`'s buffer and takes it
    /// over (see [`Graph`]): a residual `x + branch` that keeps `x` and
    /// consumes the branch. Same bits as `add(a, b)`: `b + a` and `a + b`
    /// are the same IEEE sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ, or if `a` is `b` and not a leaf.
    pub fn add_consuming(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.take_operand(b);
        v.add_assign(self.value(a));
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise product of two same-shape nodes.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: NodeId, alpha: f32) -> NodeId {
        let v = self.value(a).scale(alpha);
        self.push(v, Op::Scale(a, alpha))
    }

    /// SiLU activation `x · σ(x)` (the LLaMA MLP nonlinearity).
    pub fn silu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x * sigmoid(x));
        self.push(v, Op::Silu(a))
    }

    /// Fused SwiGLU gate: `silu(a) ⊙ b` in a single traversal.
    ///
    /// Bit-identical to `mul(silu(a), b)` but skips the silu and product
    /// temporaries in both the forward and backward passes.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in shape.
    pub fn swiglu(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = fused::fused_swiglu_fwd(self.value(a), self.value(b));
        self.push(
            v,
            Op::Swiglu {
                a,
                b,
                sigmoid: None,
            },
        )
    }

    /// Row-wise RMS normalization with learned gain.
    ///
    /// `gain` must be `1 × cols`. `y[i,j] = x[i,j] / rms(x[i,:]) · gain[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not a `1 × cols` row vector.
    pub fn rmsnorm(&mut self, x: NodeId, gain: NodeId, eps: f32) -> NodeId {
        let xm = self.value(x);
        let gm = self.value(gain);
        assert_eq!(gm.shape(), (1, xm.cols()), "rmsnorm: gain must be 1 x cols");
        let (y, inv_rms) = fused::fused_rmsnorm_fwd(xm, gm, eps);
        self.push(y, Op::RmsNorm { x, gain, inv_rms })
    }

    /// Applies rotary position embeddings per head.
    ///
    /// `x` is `(batch·seq) × (heads·head_dim)`; `head_dim` must be even.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn rope(&mut self, x: NodeId, seq: usize, heads: usize, theta_base: f32) -> NodeId {
        let y = self.value(x).clone();
        self.push_rope(x, y, seq, heads, theta_base)
    }

    /// [`Graph::rope`] that rotates `x` in its own buffer and takes it over
    /// (see [`Graph`]): the rope arm rotates only the upstream gradient.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn rope_consuming(
        &mut self,
        x: NodeId,
        seq: usize,
        heads: usize,
        theta_base: f32,
    ) -> NodeId {
        let y = self.take_operand(x);
        self.push_rope(x, y, seq, heads, theta_base)
    }

    /// Rotates `y`, a copy of `x`'s value or its buffer, and records it.
    fn push_rope(
        &mut self,
        x: NodeId,
        mut y: Matrix,
        seq: usize,
        heads: usize,
        theta_base: f32,
    ) -> NodeId {
        assert_eq!(y.rows() % seq, 0, "rope: rows not divisible by seq");
        assert_eq!(y.cols() % heads, 0, "rope: cols not divisible by heads");
        let hd = y.cols() / heads;
        assert_eq!(hd % 2, 0, "rope: head_dim must be even");
        fused::rope_apply(&mut y, seq, heads, theta_base, false);
        self.push(
            y,
            Op::Rope {
                x,
                seq,
                heads,
                theta_base,
            },
        )
    }

    /// Fused causal multi-head self-attention.
    ///
    /// `q`, `k`, `v` are `(batch·seq) × (heads·head_dim)`. Returns the
    /// attention output in the same layout.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree or the geometry does not divide evenly.
    pub fn causal_attention(
        &mut self,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        batch: usize,
        seq: usize,
        heads: usize,
    ) -> NodeId {
        let (qm, km, vm) = (self.value(q), self.value(k), self.value(v));
        assert_eq!(qm.shape(), km.shape(), "attention: q/k shape mismatch");
        assert_eq!(qm.shape(), vm.shape(), "attention: q/v shape mismatch");
        assert_eq!(qm.rows(), batch * seq, "attention: rows != batch*seq");
        assert_eq!(
            qm.cols() % heads,
            0,
            "attention: cols not divisible by heads"
        );
        let hd = qm.cols() / heads;
        let scale = 1.0 / (hd as f32).sqrt();

        let mut out = Matrix::zeros(qm.rows(), qm.cols());
        let tri_len = seq * (seq + 1) / 2;
        let mut probs = Vec::with_capacity(batch * heads);
        // The full `P` for `P·V`; every head rewrites its lower triangle, so
        // the zeros above the diagonal are set once.
        let mut p = Matrix::zeros(seq, seq);
        for b in 0..batch {
            for h in 0..heads {
                let qh = slice_head(qm, b, seq, h, hd);
                let kh = slice_head(km, b, seq, h, hd);
                let vh = slice_head(vm, b, seq, h, hd);
                // S = Q·Kᵀ · scale with causal mask, row-softmaxed straight
                // into the cached triangle.
                let mut s = qh.matmul_transb(&kh);
                s.scale_assign(scale);
                let mut tri = Vec::with_capacity(tri_len);
                for i in 0..seq {
                    let srow = &s.row(i)[..=i];
                    let maxv = srow.iter().cloned().fold(f32::MIN, f32::max);
                    let mut denom = 0.0;
                    let start = tri.len();
                    tri.extend(srow.iter().map(|&sj| {
                        let e = (sj - maxv).exp();
                        denom += e;
                        e
                    }));
                    let prow = &mut tri[start..];
                    for pj in prow.iter_mut() {
                        *pj /= denom;
                    }
                    p.row_mut(i)[..=i].copy_from_slice(prow);
                }
                let oh = p.matmul(&vh);
                write_head(&mut out, &oh, b, seq, h, hd);
                probs.push(tri);
            }
        }
        self.push(
            out,
            Op::CausalAttention {
                q,
                k,
                v,
                batch,
                seq,
                heads,
                probs,
            },
        )
    }

    /// Row gather: `out[i, :] = table[ids[i], :]`.
    ///
    /// Serves as embedding lookup and as last-token row selection.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn gather(&mut self, table: NodeId, ids: &[u32]) -> NodeId {
        let tm = self.value(table);
        let mut data = Vec::with_capacity(ids.len() * tm.cols());
        for &id in ids {
            assert!(
                (id as usize) < tm.rows(),
                "gather: id {id} out of range for {} rows",
                tm.rows()
            );
            data.extend_from_slice(tm.row(id as usize));
        }
        let out = Matrix::from_vec(ids.len(), tm.cols(), data);
        let rows = tm.rows();
        self.push(
            out,
            Op::Gather {
                table,
                ids: ids.to_vec(),
                rows,
            },
        )
    }

    /// Mean softmax cross-entropy of `logits` rows against integer targets.
    ///
    /// Returns a `1 × 1` scalar node holding the mean negative
    /// log-likelihood in nats.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.rows()` or a target is out of range.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[u32]) -> NodeId {
        check_targets(self.value(logits), targets);
        let xent = fused::fused_softmax_xent_fwd(self.value(logits), targets);
        self.push_cross_entropy(logits, targets, xent)
    }

    /// [`Graph::cross_entropy`] that writes its cached softmax numerators
    /// into the logits' buffer and takes it over (see [`Graph`]): the
    /// cross-entropy arm reads only those numerators and denominators.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.rows()` or a target is out of range.
    pub fn cross_entropy_consuming(&mut self, logits: NodeId, targets: &[u32]) -> NodeId {
        check_targets(self.value(logits), targets);
        let xent = fused::fused_softmax_xent_fwd_in_place(self.take_operand(logits), targets);
        self.push_cross_entropy(logits, targets, xent)
    }

    fn push_cross_entropy(
        &mut self,
        logits: NodeId,
        targets: &[u32],
        (mean, exps, denoms): (f32, Matrix, Vec<f32>),
    ) -> NodeId {
        self.push(
            Matrix::from_vec(1, 1, vec![mean]),
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                exps,
                denoms,
            },
        )
    }

    /// Sum of all elements, as a `1 × 1` node.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let am = self.value(a);
        let v = Matrix::from_vec(1, 1, vec![am.sum()]);
        let shape = am.shape();
        self.push(v, Op::Sum(a, shape))
    }

    /// Drops `id`'s value now that the forward is done with it: call it
    /// once every op that reads the value is recorded. [`Graph::backward`]
    /// recomputes the value just before the first arm that reads it and
    /// frees it again when the walk reaches `id`. Only outputs that are
    /// cheap to rebuild from what the tape keeps anyway qualify: an
    /// `rmsnorm` output, from its operands and cached `1 / rms` through the
    /// forward's own per-row expression, and a `swiglu` output, whose
    /// recompute keeps `σ(a)` for the swiglu's own arm, so backward
    /// evaluates no more `exp` than without `remat`. The gradients carry
    /// the same bits either way.
    ///
    /// # Panics
    ///
    /// Panics if the node's value is already gone (consumed, dropped by
    /// `remat` or released by backward) or the node is not an `rmsnorm` or
    /// `swiglu` output.
    pub fn remat(&mut self, id: NodeId) {
        self.value(id);
        assert!(
            matches!(self.ops[id.0], Op::RmsNorm { .. } | Op::Swiglu { .. }),
            "remat: node {} is not an rmsnorm or swiglu output, the only values \
             backward recomputes",
            id.0
        );
        self.vals[id.0] = Slot::Remat;
    }

    /// Rebuilds `id`'s value if [`Graph::remat`] dropped it (after its own
    /// rematerialized operands'); any other node is left as it is.
    fn rematerialize(&mut self, id: NodeId) {
        if !matches!(self.vals[id.0], Slot::Remat) {
            return;
        }
        for operand in self.ops[id.0].arm_reads().into_iter().flatten() {
            self.rematerialize(operand);
        }
        let vals = &self.vals;
        let value = match &mut self.ops[id.0] {
            Op::RmsNorm { x, gain, inv_rms } => {
                fused::rmsnorm_from_inv_rms(live(vals, *x), live(vals, *gain), inv_rms)
            }
            Op::Swiglu { a, b, sigmoid } => {
                let (y, s) = fused::fused_swiglu_fwd_with_sigmoid(live(vals, *a), live(vals, *b));
                *sigmoid = Some(s);
                y
            }
            _ => unreachable!("remat admits only rmsnorm and swiglu outputs"),
        };
        self.vals[id.0] = Slot::Live(Cow::Owned(value));
    }

    // ----- backward ----------------------------------------------------------

    /// Runs reverse-mode accumulation from `output`, which must be scalar
    /// (`1 × 1`), and frees everything the walk has finished with.
    ///
    /// The walk visits nodes in reverse creation order, and every consumer
    /// of a node was created after it. So when the walk reaches a non-leaf,
    /// its gradient is complete and nothing reads it, its value or its op's
    /// caches again: the walk frees the value first (no arm reads its own
    /// node's output), takes the gradient, recomputes any rematerialized
    /// operand the arm reads, runs the arm, and drops the gradient and the
    /// caches. What survives is each leaf's value and gradient and the
    /// output's value. A node a consuming op took over has no value by the
    /// time the walk starts; no arm reads one. No arithmetic depends on when
    /// a buffer is freed or rebuilt, so the gradients carry the same bits as
    /// a walk that kept everything.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not scalar or was consumed, or if backward
    /// already ran on this tape (what a second walk would read is gone).
    pub fn backward(&mut self, output: NodeId) {
        assert!(!self.walked, "backward already ran on this tape");
        assert_eq!(
            self.value(output).shape(),
            (1, 1),
            "backward: output must be a 1x1 scalar"
        );
        self.walked = true;
        self.grads[output.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for idx in (0..self.ops.len()).rev() {
            if let Op::Leaf = self.ops[idx] {
                continue;
            }
            let op = std::mem::replace(&mut self.ops[idx], Op::Released);
            // A consumed node keeps its `ConsumedBy` mark.
            if idx != output.0 && matches!(self.vals[idx], Slot::Live(_) | Slot::Remat) {
                self.vals[idx] = Slot::Released;
            }
            let Some(gout) = self.grads[idx].take() else {
                continue;
            };
            for operand in op.arm_reads().into_iter().flatten() {
                self.rematerialize(operand);
            }
            // Every operand id is strictly smaller than the node's own id
            // (the tape is define-by-run).
            accumulate(&self.vals, &mut self.grads[..idx], &op, gout);
        }
    }
}

/// A node's value.
///
/// # Panics
///
/// Panics if a consuming op took the node's buffer, [`Graph::remat`] dropped
/// it or backward has released it.
fn live<'v>(vals: &'v [Slot<'_>], id: NodeId) -> &'v Matrix {
    match &vals[id.0] {
        Slot::Live(v) => v,
        Slot::Released => panic!(
            "value: node {} was released by backward(); only leaves and the \
             output survive the walk, so read other values before it",
            id.0
        ),
        Slot::ConsumedBy(by) => panic!(
            "value: node {} was consumed by node {}, which took over its \
             buffer; read it before that op, or record that op in its plain form",
            id.0, by.0
        ),
        Slot::Remat => panic!(
            "value: node {} is rematerialized: remat() dropped its value and only \
             backward() recomputes it; read it before remat()",
            id.0
        ),
    }
}

/// Checks one in-range target per row of `logits`.
fn check_targets(logits: &Matrix, targets: &[u32]) {
    assert_eq!(
        targets.len(),
        logits.rows(),
        "cross_entropy: one target per row required"
    );
    for &target in targets {
        let t = target as usize;
        assert!(t < logits.cols(), "cross_entropy: target {t} out of range");
    }
}

fn grad_add(grads: &mut [Option<Matrix>], id: NodeId, delta: Matrix) {
    match &mut grads[id.0] {
        Some(g) => g.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// Runs `op`'s backward arm: given the gradient `gout` of the op's output,
/// adds each operand's gradient into `grads` (the slots below the op's
/// own). An arm whose operand gradient is `gout` itself, or `gout`
/// transformed in place, hands it on by move; every other arm drops it.
fn accumulate(vals: &[Slot<'_>], grads: &mut [Option<Matrix>], op: &Op, gout: Matrix) {
    let val = |id: NodeId| live(vals, id);
    match op {
        Op::Leaf | Op::Released => unreachable!("backward visits each non-leaf once"),
        Op::MatMul(a, b) => {
            // `db` first: the transposed copy of `a` it makes is gone before
            // `da`, an activation-sized buffer, is allocated.
            let db = val(*a).matmul_transa(&gout);
            let da = gout.matmul_transb(val(*b));
            grad_add(grads, *a, da);
            grad_add(grads, *b, db);
        }
        Op::Add(a, b) => {
            grad_add(grads, *a, gout.clone());
            grad_add(grads, *b, gout);
        }
        Op::Mul(a, b) => {
            let da = gout.hadamard(val(*b));
            let db = gout.hadamard(val(*a));
            grad_add(grads, *a, da);
            grad_add(grads, *b, db);
        }
        Op::Scale(a, alpha) => {
            let mut da = gout;
            da.scale_assign(*alpha);
            grad_add(grads, *a, da);
        }
        Op::Silu(a) => {
            let da = val(*a).zip_map(&gout, |x, g| {
                let s = sigmoid(x);
                g * s * (1.0 + x * (1.0 - s))
            });
            grad_add(grads, *a, da);
        }
        Op::Swiglu { a, b, sigmoid } => {
            let (da, db) =
                fused::fused_swiglu_bwd_in_place(val(*a), val(*b), gout, sigmoid.as_ref());
            grad_add(grads, *a, da);
            grad_add(grads, *b, db);
        }
        Op::RmsNorm { x, gain, inv_rms } => {
            let (dx, dg) = fused::fused_rmsnorm_bwd(val(*x), val(*gain), &gout, inv_rms);
            grad_add(grads, *x, dx);
            grad_add(grads, *gain, dg);
        }
        Op::Rope {
            x,
            seq,
            heads,
            theta_base,
        } => {
            // Inverse rotation on the upstream gradient, in place.
            let mut dx = gout;
            fused::rope_apply(&mut dx, *seq, *heads, *theta_base, true);
            grad_add(grads, *x, dx);
        }
        Op::CausalAttention {
            q,
            k,
            v,
            batch,
            seq,
            heads,
            probs,
        } => {
            let (qm, km, vm) = (val(*q), val(*k), val(*v));
            let hd = qm.cols() / heads;
            let scale = 1.0 / (hd as f32).sqrt();
            let mut dq = Matrix::zeros(qm.rows(), qm.cols());
            let mut dk = Matrix::zeros(qm.rows(), qm.cols());
            let mut dv = Matrix::zeros(qm.rows(), qm.cols());
            // `Pᵀ`, rebuilt per head from the triangle; what lies below its
            // diagonal stays zero.
            let mut pt = Matrix::zeros(*seq, *seq);
            for b in 0..*batch {
                for h in 0..*heads {
                    let tri = &probs[b * heads + h];
                    let tri_row = |i: usize| &tri[i * (i + 1) / 2..][..=i];
                    for i in 0..*seq {
                        for (j, &pv) in tri_row(i).iter().enumerate() {
                            pt.set(j, i, pv);
                        }
                    }
                    let qh = slice_head(qm, b, *seq, h, hd);
                    let kh = slice_head(km, b, *seq, h, hd);
                    let vh = slice_head(vm, b, *seq, h, hd);
                    let doh = slice_head(&gout, b, *seq, h, hd);
                    // dV = Pᵀ · dO (`matmul_transa(P, dO)` is this same
                    // product after gathering `Pᵀ` itself)
                    let dvh = pt.matmul(&doh);
                    // dP = dO · Vᵀ
                    let dp = doh.matmul_transb(&vh);
                    // dS_ij = P_ij (dP_ij − Σ_k dP_ik P_ik)
                    let mut ds = Matrix::zeros(*seq, *seq);
                    for i in 0..*seq {
                        let prow = tri_row(i);
                        let dprow = dp.row(i);
                        // The masked tail's `0 · dP_ik` terms are summed
                        // too: the dot over the whole row, down to the sign
                        // of a zero sum and a non-finite `dP`.
                        let masked = std::iter::repeat_n(&0.0, *seq - 1 - i);
                        let dot: f32 = prow
                            .iter()
                            .chain(masked)
                            .zip(dprow)
                            .map(|(&pv, &dpv)| pv * dpv)
                            .sum();
                        let dsrow = ds.row_mut(i);
                        for j in 0..=i {
                            dsrow[j] = prow[j] * (dprow[j] - dot);
                        }
                    }
                    // dQ = dS·K · scale ; dK = dSᵀ·Q · scale
                    let mut dqh = ds.matmul(&kh);
                    dqh.scale_assign(scale);
                    let mut dkh = ds.matmul_transa(&qh);
                    dkh.scale_assign(scale);
                    write_head(&mut dq, &dqh, b, *seq, h, hd);
                    write_head(&mut dk, &dkh, b, *seq, h, hd);
                    write_head(&mut dv, &dvh, b, *seq, h, hd);
                }
            }
            grad_add(grads, *q, dq);
            grad_add(grads, *k, dk);
            grad_add(grads, *v, dv);
        }
        Op::Gather { table, ids, rows } => {
            let mut dt = Matrix::zeros(*rows, gout.cols());
            for (r, &id) in ids.iter().enumerate() {
                let src = gout.row(r);
                let dst = dt.row_mut(id as usize);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
            grad_add(grads, *table, dt);
        }
        Op::CrossEntropy {
            logits,
            targets,
            exps,
            denoms,
        } => {
            let upstream = gout.get(0, 0);
            let dl = fused::fused_softmax_xent_bwd(exps, denoms, targets, upstream);
            grad_add(grads, *logits, dl);
        }
        Op::Sum(a, (rows, cols)) => {
            let s = gout.get(0, 0);
            let da = Matrix::full(*rows, *cols, s);
            grad_add(grads, *a, da);
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Extracts head `h` of batch element `b` as a `seq × head_dim` matrix.
fn slice_head(x: &Matrix, b: usize, seq: usize, h: usize, hd: usize) -> Matrix {
    let mut data = Vec::with_capacity(seq * hd);
    for t in 0..seq {
        data.extend_from_slice(&x.row(b * seq + t)[h * hd..(h + 1) * hd]);
    }
    Matrix::from_vec(seq, hd, data)
}

/// Writes head `h` of batch element `b` back into the flat layout.
fn write_head(x: &mut Matrix, head: &Matrix, b: usize, seq: usize, h: usize, hd: usize) {
    for t in 0..seq {
        let src = head.row(t);
        let dst = x.row_mut(b * seq + t);
        dst[h * hd..(h + 1) * hd].copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_tensor::Rng;

    /// Central finite-difference gradient of `f` w.r.t. `param`.
    fn numeric_grad(mut f: impl FnMut(&Matrix) -> f32, param: &Matrix, eps: f32) -> Matrix {
        let mut g = Matrix::zeros(param.rows(), param.cols());
        for r in 0..param.rows() {
            for c in 0..param.cols() {
                let mut p = param.clone();
                p.set(r, c, param.get(r, c) + eps);
                let hi = f(&p);
                p.set(r, c, param.get(r, c) - eps);
                let lo = f(&p);
                g.set(r, c, (hi - lo) / (2.0 * eps));
            }
        }
        g
    }

    fn assert_grad_close(analytic: &Matrix, numeric: &Matrix, tol: f32) {
        assert_eq!(analytic.shape(), numeric.shape());
        for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
            let scale = 1.0 + a.abs().max(n.abs());
            assert!((a - n).abs() / scale < tol, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn doc_example_matmul_sum() {
        let w0 = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 2.0]]));
        let w = g.param(&w0);
        let y = g.matmul(x, w);
        assert_eq!(g.value(y).get(0, 0), 11.0);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(w).as_slice(), &[1.0, 2.0]);
        assert_eq!(g.grad(x).as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn matmul_gradcheck() {
        let mut rng = Rng::seed_from_u64(31);
        let a0 = Matrix::randn(3, 4, &mut rng);
        let b0 = Matrix::randn(4, 2, &mut rng);
        let f = |am: &Matrix, bm: &Matrix| {
            let mut g = Graph::new();
            let a = g.input(am.clone());
            let b = g.input(bm.clone());
            let y = g.matmul(a, b);
            let s = g.sum(y);
            g.value(s).get(0, 0)
        };
        let mut g = Graph::new();
        let a = g.param(&a0);
        let b = g.param(&b0);
        let y = g.matmul(a, b);
        let s = g.sum(y);
        g.backward(s);
        assert_grad_close(g.grad(a), &numeric_grad(|p| f(p, &b0), &a0, 1e-2), 2e-2);
        assert_grad_close(g.grad(b), &numeric_grad(|p| f(&a0, p), &b0, 1e-2), 2e-2);
    }

    #[test]
    fn silu_gradcheck() {
        let mut rng = Rng::seed_from_u64(32);
        let x0 = Matrix::randn(2, 5, &mut rng);
        let f = |xm: &Matrix| {
            let mut g = Graph::new();
            let x = g.input(xm.clone());
            let y = g.silu(x);
            let s = g.sum(y);
            g.value(s).get(0, 0)
        };
        let mut g = Graph::new();
        let x = g.param(&x0);
        let y = g.silu(x);
        let s = g.sum(y);
        g.backward(s);
        assert_grad_close(g.grad(x), &numeric_grad(f, &x0, 1e-2), 2e-2);
    }

    #[test]
    fn swiglu_gradcheck() {
        let mut rng = Rng::seed_from_u64(52);
        let a0 = Matrix::randn(2, 5, &mut rng);
        let b0 = Matrix::randn(2, 5, &mut rng);
        let f = |am: &Matrix, bm: &Matrix| {
            let mut g = Graph::new();
            let a = g.input(am.clone());
            let b = g.input(bm.clone());
            let y = g.swiglu(a, b);
            let y2 = g.mul(y, y);
            let s = g.sum(y2);
            g.value(s).get(0, 0)
        };
        let mut g = Graph::new();
        let a = g.param(&a0);
        let b = g.param(&b0);
        let y = g.swiglu(a, b);
        let y2 = g.mul(y, y);
        let s = g.sum(y2);
        g.backward(s);
        assert_grad_close(g.grad(a), &numeric_grad(|p| f(p, &b0), &a0, 1e-2), 2e-2);
        assert_grad_close(g.grad(b), &numeric_grad(|p| f(&a0, p), &b0, 1e-2), 2e-2);
    }

    #[test]
    fn swiglu_matches_silu_mul_bitwise() {
        // The fused gate must be indistinguishable from the unfused
        // silu+mul composition: same forward bits, same gradient bits.
        let mut rng = Rng::seed_from_u64(53);
        let a0 = Matrix::randn(5, 33, &mut rng);
        let b0 = Matrix::randn(5, 33, &mut rng);
        let w0 = Matrix::randn(5, 33, &mut rng);
        let run = |fused_gate: bool| {
            let mut g = Graph::new();
            let a = g.param(&a0);
            let b = g.param(&b0);
            let w = g.input(w0.clone());
            let y = if fused_gate {
                g.swiglu(a, b)
            } else {
                let sa = g.silu(a);
                g.mul(sa, b)
            };
            let z = g.mul(y, w);
            let s = g.sum(z);
            // Read before the walk, which releases every non-leaf but `s`.
            let yv = g.value(y).clone();
            g.backward(s);
            (
                yv,
                g.grad(a).clone(),
                g.grad(b).clone(),
                g.value(s).get(0, 0),
            )
        };
        let (yf, daf, dbf, lf) = run(true);
        let (yu, dau, dbu, lu) = run(false);
        assert_eq!(lf.to_bits(), lu.to_bits());
        for (f, u) in [(yf, yu), (daf, dau), (dbf, dbu)] {
            for (a, b) in f.as_slice().iter().zip(u.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "fused {a} vs unfused {b}");
            }
        }
    }

    #[test]
    fn training_loop_fused_vs_unfused_is_bit_identical() {
        // A miniature training loop — rmsnorm → SwiGLU MLP → matmul →
        // cross-entropy, with Adam updates — run twice: once through the
        // fused swiglu op, once through the staged silu+mul ops. Every
        // per-step loss must agree bit-for-bit. Both arms take the same
        // fused Adam update (its staged twin is pinned in
        // `fused_equivalence`), so only the graph's gate differs.
        let (rows, hidden, vocab) = (6, 10, 7);
        let targets: Vec<u32> = (0..rows).map(|r| (r % vocab) as u32).collect();
        let mut rng = Rng::seed_from_u64(54);
        let x0 = Matrix::randn(rows, hidden, &mut rng);
        let gain0 = Matrix::rand_uniform(1, hidden, 0.5, 1.5, &mut rng);
        let wg0 = Matrix::randn(hidden, hidden, &mut rng);
        let wu0 = Matrix::randn(hidden, hidden, &mut rng);
        let wo0 = Matrix::randn(hidden, vocab, &mut rng);
        let (beta1, beta2, eps, lr, wd) = (0.9f32, 0.999f32, 1e-8f32, 0.05f32, 0.1f32);

        let run = |fused_arm: bool| {
            let mut weights = [wg0.clone(), wu0.clone(), wo0.clone()];
            let mut ms: Vec<Matrix> = weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect();
            let mut vs: Vec<Matrix> = ms.clone();
            let mut losses = Vec::new();
            for t in 1..=8i32 {
                let mut g = Graph::new();
                let x = g.input(x0.clone());
                let gain = g.input(gain0.clone());
                let ws: Vec<NodeId> = weights.iter().map(|w| g.param(w)).collect();
                let hn = g.rmsnorm(x, gain, 1e-5);
                let gate_pre = g.matmul(hn, ws[0]);
                let up = g.matmul(hn, ws[1]);
                let act = if fused_arm {
                    g.swiglu(gate_pre, up)
                } else {
                    let s = g.silu(gate_pre);
                    g.mul(s, up)
                };
                let logits = g.matmul(act, ws[2]);
                let loss = g.cross_entropy(logits, &targets);
                losses.push(g.value(loss).get(0, 0).to_bits());
                g.backward(loss);
                let grads: Vec<Matrix> = ws.iter().map(|&id| g.grad(id).clone()).collect();
                drop(g);
                let bc1 = 1.0 - beta1.powi(t);
                let bc2 = 1.0 - beta2.powi(t);
                let decay = 1.0 - lr * wd;
                for ((w, grad), (m, v)) in weights
                    .iter_mut()
                    .zip(&grads)
                    .zip(ms.iter_mut().zip(vs.iter_mut()))
                {
                    fused::fused_adam_update(w, grad, m, v, beta1, beta2, bc1, bc2, eps, lr, decay);
                }
            }
            losses
        };
        let fused_losses = run(true);
        let staged_losses = run(false);
        assert!(fused_losses.windows(2).any(|w| w[0] != w[1]), "loss static");
        assert_eq!(fused_losses, staged_losses, "train-loop loss bits differ");
    }

    #[test]
    fn mul_and_add_gradcheck() {
        let mut rng = Rng::seed_from_u64(33);
        let a0 = Matrix::randn(3, 3, &mut rng);
        let b0 = Matrix::randn(3, 3, &mut rng);
        let run = |am: &Matrix, bm: &Matrix| -> (f32, Option<(Matrix, Matrix)>) {
            let mut g = Graph::new();
            let a = g.input(am.clone());
            let b = g.input(bm.clone());
            let p = g.mul(a, b);
            let q = g.add(p, a);
            let s = g.sum(q);
            let v = g.value(s).get(0, 0);
            g.backward(s);
            (v, Some((g.grad(a).clone(), g.grad(b).clone())))
        };
        let (_, grads) = run(&a0, &b0);
        let (ga, gb) = grads.unwrap();
        assert_grad_close(&ga, &numeric_grad(|p| run(p, &b0).0, &a0, 1e-2), 2e-2);
        assert_grad_close(&gb, &numeric_grad(|p| run(&a0, p).0, &b0, 1e-2), 2e-2);
    }

    #[test]
    fn rmsnorm_gradcheck() {
        let mut rng = Rng::seed_from_u64(34);
        let x0 = Matrix::randn(3, 6, &mut rng);
        let g0 = Matrix::rand_uniform(1, 6, 0.5, 1.5, &mut rng);
        let f = |xm: &Matrix, gm: &Matrix| {
            let mut g = Graph::new();
            let x = g.input(xm.clone());
            let gn = g.input(gm.clone());
            let y = g.rmsnorm(x, gn, 1e-5);
            // Weighted sum so the gradient is non-uniform.
            let w = g.input(Matrix::from_vec(
                6,
                1,
                (0..6).map(|i| (i as f32 + 1.0) * 0.3).collect(),
            ));
            let z = g.matmul(y, w);
            let s = g.sum(z);
            g.value(s).get(0, 0)
        };
        let mut g = Graph::new();
        let x = g.param(&x0);
        let gn = g.param(&g0);
        let y = g.rmsnorm(x, gn, 1e-5);
        let w = g.input(Matrix::from_vec(
            6,
            1,
            (0..6).map(|i| (i as f32 + 1.0) * 0.3).collect(),
        ));
        let z = g.matmul(y, w);
        let s = g.sum(z);
        g.backward(s);
        assert_grad_close(g.grad(x), &numeric_grad(|p| f(p, &g0), &x0, 1e-2), 3e-2);
        assert_grad_close(g.grad(gn), &numeric_grad(|p| f(&x0, p), &g0, 1e-2), 3e-2);
    }

    #[test]
    fn rope_is_orthogonal_and_invertible() {
        let mut rng = Rng::seed_from_u64(35);
        let x = Matrix::randn(8, 8, &mut rng); // seq 4, batch 2, heads 2, hd 4
        let mut g = Graph::new();
        let xid = g.input(x.clone());
        let y = g.rope(xid, 4, 2, 10_000.0);
        // Rotation preserves per-row norms.
        for (a, b) in x.row_norms().iter().zip(g.value(y).row_norms()) {
            assert!((a - b).abs() < 1e-4);
        }
        // Inverse rotation restores the input.
        let mut z = g.value(y).clone();
        fused::rope_apply(&mut z, 4, 2, 10_000.0, true);
        for (a, b) in x.as_slice().iter().zip(z.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn rope_gradcheck() {
        let mut rng = Rng::seed_from_u64(36);
        let x0 = Matrix::randn(4, 4, &mut rng); // batch 1 seq 4, 1 head hd 4
        let f = |xm: &Matrix| {
            let mut g = Graph::new();
            let x = g.input(xm.clone());
            let y = g.rope(x, 4, 1, 100.0);
            let y2 = g.mul(y, y);
            let s = g.sum(y2);
            g.value(s).get(0, 0)
        };
        let mut g = Graph::new();
        let x = g.param(&x0);
        let y = g.rope(x, 4, 1, 100.0);
        let y2 = g.mul(y, y);
        let s = g.sum(y2);
        g.backward(s);
        assert_grad_close(g.grad(x), &numeric_grad(f, &x0, 1e-2), 2e-2);
    }

    #[test]
    fn attention_gradcheck() {
        let mut rng = Rng::seed_from_u64(37);
        let (batch, seq, heads, hd) = (2, 3, 2, 4);
        let rows = batch * seq;
        let cols = heads * hd;
        let q0 = Matrix::randn(rows, cols, &mut rng);
        let k0 = Matrix::randn(rows, cols, &mut rng);
        let v0 = Matrix::randn(rows, cols, &mut rng);
        let weights = Matrix::randn(cols, 1, &mut rng);
        let f = |qm: &Matrix, km: &Matrix, vm: &Matrix| {
            let mut g = Graph::new();
            let q = g.input(qm.clone());
            let k = g.input(km.clone());
            let v = g.input(vm.clone());
            let o = g.causal_attention(q, k, v, batch, seq, heads);
            let w = g.input(weights.clone());
            let z = g.matmul(o, w);
            let s = g.sum(z);
            g.value(s).get(0, 0)
        };
        let mut g = Graph::new();
        let q = g.param(&q0);
        let k = g.param(&k0);
        let v = g.param(&v0);
        let o = g.causal_attention(q, k, v, batch, seq, heads);
        let w = g.input(weights.clone());
        let z = g.matmul(o, w);
        let s = g.sum(z);
        g.backward(s);
        assert_grad_close(
            g.grad(q),
            &numeric_grad(|p| f(p, &k0, &v0), &q0, 1e-2),
            3e-2,
        );
        assert_grad_close(
            g.grad(k),
            &numeric_grad(|p| f(&q0, p, &v0), &k0, 1e-2),
            3e-2,
        );
        assert_grad_close(
            g.grad(v),
            &numeric_grad(|p| f(&q0, &k0, p), &v0, 1e-2),
            3e-2,
        );
    }

    #[test]
    fn attention_is_causal() {
        // Changing a *future* key/value must not change earlier outputs.
        let mut rng = Rng::seed_from_u64(38);
        let (batch, seq, heads, hd) = (1, 4, 1, 4);
        let q0 = Matrix::randn(seq, hd, &mut rng);
        let k0 = Matrix::randn(seq, hd, &mut rng);
        let v0 = Matrix::randn(seq, hd, &mut rng);
        let out = |km: &Matrix, vm: &Matrix| {
            let mut g = Graph::new();
            let q = g.input(q0.clone());
            let k = g.input(km.clone());
            let v = g.input(vm.clone());
            let o = g.causal_attention(q, k, v, batch, seq, heads);
            g.value(o).clone()
        };
        let base = out(&k0, &v0);
        let mut k1 = k0.clone();
        k1.set(3, 0, 99.0);
        let mut v1 = v0.clone();
        v1.set(3, 2, -99.0);
        let perturbed = out(&k1, &v1);
        for t in 0..3 {
            assert_eq!(base.row(t), perturbed.row(t), "row {t} leaked future info");
        }
        assert_ne!(base.row(3), perturbed.row(3));
    }

    #[test]
    fn gather_gradcheck() {
        let mut rng = Rng::seed_from_u64(39);
        let t0 = Matrix::randn(5, 3, &mut rng);
        let ids = [0u32, 2, 2, 4];
        let f = |tm: &Matrix| {
            let mut g = Graph::new();
            let t = g.input(tm.clone());
            let y = g.gather(t, &ids);
            let y2 = g.mul(y, y);
            let s = g.sum(y2);
            g.value(s).get(0, 0)
        };
        let mut g = Graph::new();
        let t = g.param(&t0);
        let y = g.gather(t, &ids);
        let y2 = g.mul(y, y);
        let s = g.sum(y2);
        g.backward(s);
        assert_grad_close(g.grad(t), &numeric_grad(f, &t0, 1e-2), 2e-2);
    }

    #[test]
    fn gather_duplicate_ids_accumulate() {
        let t0 = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let mut g = Graph::new();
        let t = g.param(&t0);
        let y = g.gather(t, &[1, 1, 1]);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(t).as_slice(), &[0.0, 3.0]);
    }

    #[test]
    fn cross_entropy_matches_manual_and_gradchecks() {
        let logits0 = Matrix::from_rows(&[&[2.0, 0.0, -1.0], &[0.5, 0.5, 0.5]]);
        let targets = [0u32, 2];
        let f = |lm: &Matrix| {
            let mut g = Graph::new();
            let l = g.input(lm.clone());
            let s = g.cross_entropy(l, &targets);
            g.value(s).get(0, 0)
        };
        // Manual check of the forward value.
        let p0 = 2.0f32.exp() / (2.0f32.exp() + 1.0 + (-1.0f32).exp());
        let expected = (-(p0.ln()) + -(1.0f32 / 3.0).ln()) / 2.0;
        assert!((f(&logits0) - expected).abs() < 1e-5);

        let mut g = Graph::new();
        let l = g.param(&logits0);
        let s = g.cross_entropy(l, &targets);
        g.backward(s);
        assert_grad_close(g.grad(l), &numeric_grad(f, &logits0, 1e-3), 1e-2);
    }

    #[test]
    fn cross_entropy_uniform_logits_loss_is_log_vocab() {
        let v = 16;
        let logits = Matrix::zeros(4, v);
        let mut g = Graph::new();
        let l = g.input(logits);
        let s = g.cross_entropy(l, &[0, 5, 9, 15]);
        assert!((g.value(s).get(0, 0) - (v as f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_accumulates_over_reused_node() {
        // y = x + x ⇒ dy/dx = 2.
        let x0 = Matrix::from_rows(&[&[5.0]]);
        let mut g = Graph::new();
        let x = g.param(&x0);
        let y = g.add(x, x);
        let s = g.sum(y);
        g.backward(s);
        assert_eq!(g.grad(x).get(0, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "backward: output must be a 1x1 scalar")]
    fn backward_rejects_non_scalar() {
        let x0 = Matrix::zeros(2, 2);
        let mut g = Graph::new();
        let x = g.param(&x0);
        g.backward(x);
    }

    #[test]
    fn try_grad_is_none_for_unreached_nodes() {
        let one = Matrix::from_rows(&[&[1.0]]);
        let mut g = Graph::new();
        let x = g.param(&one);
        let unused = g.param(&one);
        let s = g.sum(x);
        g.backward(s);
        assert!(g.try_grad(unused).is_none());
        assert!(g.try_grad(x).is_some());
    }

    /// A tape over every op kind, ending in cross-entropy, plus one
    /// non-leaf that does not reach the loss. Returns the tape, the loss,
    /// the leaves (one per weight) and the non-leaves.
    fn every_op_tape(w: &[Matrix; 4]) -> (Graph<'_>, NodeId, Vec<NodeId>, Vec<NodeId>) {
        let (batch, seq, heads) = (1, 4, 2);
        let mut g = Graph::new();
        let leaves: Vec<NodeId> = w.iter().map(|m| g.param(m)).collect();
        let [table, gain, wq, wo] = leaves[..] else {
            unreachable!()
        };
        let x = g.gather(table, &[0, 3, 5, 3]);
        let hn = g.rmsnorm(x, gain, 1e-5);
        let q = g.matmul(hn, wq);
        let qr = g.rope(q, seq, heads, 100.0);
        let att = g.causal_attention(qr, qr, q, batch, seq, heads);
        let gate = g.silu(att);
        let mixed = g.mul(gate, hn);
        let act = g.swiglu(mixed, x);
        let res = g.add(act, x);
        let half = g.scale(res, 0.5);
        let logits = g.matmul(half, wo);
        let loss = g.cross_entropy(logits, &[1, 2, 3, 4]);
        let unreached = g.sum(x);
        let inner = vec![
            x, hn, q, qr, att, gate, mixed, act, res, half, logits, unreached,
        ];
        (g, loss, leaves, inner)
    }

    fn every_op_weights() -> [Matrix; 4] {
        let mut rng = Rng::seed_from_u64(60);
        [
            Matrix::randn(6, 8, &mut rng),
            Matrix::rand_uniform(1, 8, 0.5, 1.5, &mut rng),
            Matrix::randn(8, 8, &mut rng),
            Matrix::randn(8, 6, &mut rng),
        ]
    }

    #[test]
    fn backward_keeps_only_leaf_gradients_and_the_output_value() {
        let w = every_op_weights();
        let (mut g, loss, leaves, inner) = every_op_tape(&w);
        let loss_bits = g.value(loss).get(0, 0).to_bits();
        g.backward(loss);
        assert_eq!(g.value(loss).get(0, 0).to_bits(), loss_bits);
        for &id in &inner {
            assert!(g.try_grad(id).is_none(), "non-leaf {id:?} kept a gradient");
        }
        for (&id, wm) in leaves.iter().zip(&w) {
            assert_eq!(g.value(id), wm, "leaf {id:?} lost its value");
            let copied = g.grad(id).clone();
            let moved = g.take_grad(id).expect("every leaf reaches the loss");
            assert_eq!(copied.shape(), wm.shape());
            for (a, b) in copied.as_slice().iter().zip(moved.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "node 4 was released by backward()")]
    fn reading_a_released_value_panics() {
        let w = every_op_weights();
        let (mut g, loss, _, inner) = every_op_tape(&w);
        g.backward(loss);
        // `inner[0]` is the gather, node 4.
        g.value(inner[0]);
    }

    #[test]
    #[should_panic(expected = "backward already ran on this tape")]
    fn second_backward_panics() {
        let w = every_op_weights();
        let (mut g, loss, _, _) = every_op_tape(&w);
        g.backward(loss);
        g.backward(loss);
    }

    // ----- consuming forms -----------------------------------------------

    fn assert_same_bits(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}");
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "node 1 was consumed by node 2")]
    fn reading_a_consumed_value_panics() {
        let x0 = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut g = Graph::new();
        let x = g.param(&x0);
        let y = g.scale(x, 2.0);
        g.rope_consuming(y, 1, 1, 100.0);
        g.value(y);
    }

    #[test]
    #[should_panic(expected = "node 1 was consumed by node 2")]
    fn recording_an_op_on_a_consumed_node_panics() {
        let x0 = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut g = Graph::new();
        let x = g.param(&x0);
        let y = g.scale(x, 2.0);
        g.add_consuming(x, y);
        g.sum(y);
    }

    #[test]
    fn a_handed_over_leaf_stays_readable() {
        let p0 = Matrix::from_rows(&[&[0.5, -1.0, 2.0, 0.25], &[1.5, 0.0, -0.5, 3.0]]);
        let i0 = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[-1.0, 0.5, 0.0, 2.0]]);
        let mut g = Graph::new();
        let p = g.param(&p0);
        let i = g.input(i0.clone());
        let rotated = g.rope_consuming(p, 2, 1, 100.0);
        let sum = g.add_consuming(p, i);
        let loss = g.cross_entropy_consuming(i, &[3, 0]);
        let plain_rotated = g.rope(p, 2, 1, 100.0);
        let plain_sum = g.add(p, i);
        let plain_loss = g.cross_entropy(i, &[3, 0]);
        assert_eq!(g.value(p), &p0, "borrowed param");
        assert_eq!(g.value(i), &i0, "owned input");
        assert_same_bits(g.value(rotated), g.value(plain_rotated), "rope");
        assert_same_bits(g.value(sum), g.value(plain_sum), "add");
        assert_same_bits(g.value(loss), g.value(plain_loss), "cross-entropy");
        g.backward(loss);
        assert_eq!(g.value(i), &i0, "owned input after backward");
    }

    /// Runs `build` over a parameter `x0` in the plain form and in the
    /// consuming form: same loss and gradient bits, and the consuming form
    /// passes the finite-difference check.
    fn check_consuming_form(
        x0: &Matrix,
        tol: f32,
        build: impl Fn(&mut Graph<'_>, NodeId, bool) -> NodeId,
    ) {
        let run = |xm: &Matrix, consuming: bool| {
            let mut g = Graph::new();
            let x = g.param(xm);
            let loss = build(&mut g, x, consuming);
            let l = g.value(loss).get(0, 0);
            g.backward(loss);
            (l, g.grad(x).clone())
        };
        let (lp, gp) = run(x0, false);
        let (lc, gc) = run(x0, true);
        assert_eq!(lp.to_bits(), lc.to_bits(), "loss");
        assert_same_bits(&gp, &gc, "gradient");
        assert_grad_close(&gc, &numeric_grad(|p| run(p, true).0, x0, 1e-2), tol);
    }

    #[test]
    fn rope_consuming_gradchecks() {
        let mut rng = Rng::seed_from_u64(61);
        let x0 = Matrix::randn(4, 4, &mut rng); // batch 1 seq 4, 1 head hd 4
        let w0 = Matrix::randn(4, 4, &mut rng);
        check_consuming_form(&x0, 2e-2, |g, x, consuming| {
            let x1 = g.scale(x, 1.5);
            let y = if consuming {
                g.rope_consuming(x1, 4, 1, 100.0)
            } else {
                g.rope(x1, 4, 1, 100.0)
            };
            let w = g.input(w0.clone());
            let z = g.mul(y, w);
            g.sum(z)
        });
    }

    #[test]
    fn add_consuming_gradchecks() {
        let mut rng = Rng::seed_from_u64(62);
        let x0 = Matrix::randn(3, 3, &mut rng);
        let w0 = Matrix::randn(3, 3, &mut rng);
        check_consuming_form(&x0, 2e-2, |g, x, consuming| {
            let branch = g.mul(x, x);
            let y = if consuming {
                g.add_consuming(x, branch)
            } else {
                g.add(x, branch)
            };
            let w = g.input(w0.clone());
            let z = g.mul(y, w);
            g.sum(z)
        });
    }

    #[test]
    fn cross_entropy_consuming_gradchecks() {
        let mut rng = Rng::seed_from_u64(63);
        let x0 = Matrix::randn(3, 5, &mut rng);
        let w0 = Matrix::randn(5, 4, &mut rng);
        check_consuming_form(&x0, 2e-2, |g, x, consuming| {
            let w = g.input(w0.clone());
            let logits = g.matmul(x, w);
            if consuming {
                g.cross_entropy_consuming(logits, &[0, 3, 1])
            } else {
                g.cross_entropy(logits, &[0, 3, 1])
            }
        });
    }

    #[test]
    #[should_panic(expected = "node 2 is read by the backward arm of node 3")]
    fn consuming_a_value_an_arm_reads_panics() {
        let [x0, g0] = [Matrix::from_rows(&[&[1.0, 2.0]]), Matrix::full(1, 2, 1.0)];
        let mut g = Graph::new();
        let [x, gain] = [&x0, &g0].map(|m| g.param(m));
        let x1 = g.scale(x, 2.0);
        let y = g.rmsnorm(x1, gain, 1e-5);
        g.remat(y);
        // The norm's recompute and its arm read `x1`: it cannot be handed on.
        g.add_consuming(x, x1);
    }

    // ----- rematerialized values -------------------------------------------

    /// Runs `build` over parameters `leaves` without and with its `remat`
    /// calls: the loss and every leaf gradient carry the same bits.
    fn check_remat(leaves: &[Matrix], build: impl Fn(&mut Graph<'_>, &[NodeId], bool) -> NodeId) {
        let run = |remat: bool| {
            let mut g = Graph::new();
            let ids: Vec<NodeId> = leaves.iter().map(|m| g.param(m)).collect();
            let loss = build(&mut g, &ids, remat);
            let l = g.value(loss).get(0, 0);
            g.backward(loss);
            let grads: Vec<Matrix> = ids.iter().map(|&id| g.grad(id).clone()).collect();
            (l, grads)
        };
        let (lp, gp) = run(false);
        let (lr, gr) = run(true);
        assert_eq!(lp.to_bits(), lr.to_bits(), "loss");
        for (i, (p, r)) in gp.iter().zip(&gr).enumerate() {
            assert_same_bits(p, r, &format!("leaf {i} gradient"));
        }
    }

    fn remat_leaves(seed: u64, shapes: &[(usize, usize)]) -> Vec<Matrix> {
        let mut rng = Rng::seed_from_u64(seed);
        shapes
            .iter()
            .map(|&(r, c)| Matrix::randn(r, c, &mut rng))
            .collect()
    }

    #[test]
    fn rmsnorm_remat_keeps_the_bits_with_three_readers() {
        // A norm read by three projections, as an attention block's is.
        let leaves = remat_leaves(70, &[(5, 6), (1, 6), (6, 6), (6, 6), (6, 6)]);
        check_remat(&leaves, |g, ids, remat| {
            let &[x, gain, wq, wk, wv] = ids else {
                unreachable!()
            };
            let hn = g.rmsnorm(x, gain, 1e-5);
            let [q, k, v] = [wq, wk, wv].map(|w| g.matmul(hn, w));
            if remat {
                g.remat(hn);
            }
            let qk = g.mul(q, k);
            let logits = g.add(qk, v);
            g.cross_entropy(logits, &[0, 5, 2, 3, 1])
        });
    }

    #[test]
    fn swiglu_remat_keeps_the_bits() {
        let leaves = remat_leaves(71, &[(5, 6), (6, 8), (6, 8), (8, 4)]);
        check_remat(&leaves, |g, ids, remat| {
            let &[x, wg, wu, wd] = ids else {
                unreachable!()
            };
            let gate = g.matmul(x, wg);
            let up = g.matmul(x, wu);
            let act = g.swiglu(gate, up);
            let out = g.matmul(act, wd);
            if remat {
                g.remat(act);
            }
            g.cross_entropy(out, &[3, 0, 1, 2, 3])
        });
    }

    #[test]
    fn a_chain_of_rematerialized_values_keeps_the_bits() {
        // A swiglu of two norms, all three dropped: rebuilding the swiglu
        // rebuilds its operands first. The second norm reaches the loss
        // only through the swiglu, so its own value is never read again.
        let leaves = remat_leaves(72, &[(4, 6), (1, 6), (1, 6), (6, 3)]);
        check_remat(&leaves, |g, ids, remat| {
            let &[x, g1, g2, w] = ids else { unreachable!() };
            let n1 = g.rmsnorm(x, g1, 1e-5);
            let n2 = g.rmsnorm(x, g2, 1e-5);
            let act = g.swiglu(n1, n2);
            let out = g.matmul(act, w);
            let res = g.matmul(n1, w);
            if remat {
                for id in [n1, n2, act] {
                    g.remat(id);
                }
            }
            let logits = g.add(out, res);
            g.cross_entropy(logits, &[2, 0, 1, 1])
        });
    }

    #[test]
    #[should_panic(expected = "node 3 is rematerialized")]
    fn reading_a_rematerialized_value_panics() {
        let [x0, g0, w0] = [(2, 3), (1, 3), (3, 2)].map(|(r, c)| Matrix::full(r, c, 0.5));
        let mut g = Graph::new();
        let [x, gain, w] = [&x0, &g0, &w0].map(|m| g.param(m));
        let y = g.rmsnorm(x, gain, 1e-5);
        g.matmul(y, w);
        g.remat(y);
        g.value(y);
    }

    #[test]
    #[should_panic(expected = "remat: node 2 is not an rmsnorm or swiglu output")]
    fn remat_of_a_matmul_output_panics() {
        let [a0, b0] = [Matrix::full(2, 2, 1.0), Matrix::full(2, 2, 2.0)];
        let mut g = Graph::new();
        let [a, b] = [&a0, &b0].map(|m| g.param(m));
        let y = g.matmul(a, b);
        g.remat(y);
    }

    #[test]
    #[should_panic(expected = "remat: node 0 is not an rmsnorm or swiglu output")]
    fn remat_of_a_leaf_panics() {
        let mut g = Graph::new();
        let x = g.input(Matrix::full(2, 2, 1.0));
        g.remat(x);
    }

    #[test]
    #[should_panic(expected = "node 2 was consumed by node 3")]
    fn remat_of_a_consumed_node_panics() {
        let [a0, b0] = [Matrix::full(2, 2, 1.0), Matrix::full(2, 2, 2.0)];
        let mut g = Graph::new();
        let [a, b] = [&a0, &b0].map(|m| g.param(m));
        let y = g.swiglu(a, b);
        g.add_consuming(a, y);
        g.remat(y);
    }

    /// Causal attention with the full `seq × seq` probability matrix per
    /// head, as the op cached it before the packed triangle, run forward
    /// and back against upstream gradient `gout`: `(out, dq, dk, dv)`.
    fn full_matrix_attention(
        [q, k, v, gout]: [&Matrix; 4],
        batch: usize,
        seq: usize,
        heads: usize,
    ) -> [Matrix; 4] {
        let hd = q.cols() / heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let zeros = || Matrix::zeros(q.rows(), q.cols());
        let [mut out, mut dq, mut dk, mut dv] = [zeros(), zeros(), zeros(), zeros()];
        for b in 0..batch {
            for h in 0..heads {
                let [qh, kh, vh, doh] = [q, k, v, gout].map(|m| slice_head(m, b, seq, h, hd));
                let mut s = qh.matmul_transb(&kh);
                s.scale_assign(scale);
                let mut p = Matrix::zeros(seq, seq);
                for i in 0..seq {
                    let srow = s.row(i);
                    let maxv = srow[..=i].iter().cloned().fold(f32::MIN, f32::max);
                    let mut denom = 0.0;
                    let prow = p.row_mut(i);
                    for j in 0..=i {
                        let e = (srow[j] - maxv).exp();
                        prow[j] = e;
                        denom += e;
                    }
                    for pj in prow[..=i].iter_mut() {
                        *pj /= denom;
                    }
                }
                write_head(&mut out, &p.matmul(&vh), b, seq, h, hd);
                let dvh = p.matmul_transa(&doh);
                let dp = doh.matmul_transb(&vh);
                let mut ds = Matrix::zeros(seq, seq);
                for i in 0..seq {
                    let prow = p.row(i);
                    let dprow = dp.row(i);
                    let dot: f32 = prow.iter().zip(dprow).map(|(&pv, &dpv)| pv * dpv).sum();
                    for j in 0..=i {
                        ds.row_mut(i)[j] = prow[j] * (dprow[j] - dot);
                    }
                }
                let mut dqh = ds.matmul(&kh);
                dqh.scale_assign(scale);
                let mut dkh = ds.matmul_transa(&qh);
                dkh.scale_assign(scale);
                write_head(&mut dq, &dqh, b, seq, h, hd);
                write_head(&mut dk, &dkh, b, seq, h, hd);
                write_head(&mut dv, &dvh, b, seq, h, hd);
            }
        }
        [out, dq, dk, dv]
    }

    #[test]
    fn packed_triangle_attention_has_the_full_matrix_bits() {
        let (batch, heads, hd) = (2, 2, 4);
        for seq in [5, 7] {
            let mut rng = Rng::seed_from_u64(64 + seq as u64);
            let [q0, k0, v0, w0] =
                [(); 4].map(|_| Matrix::randn(batch * seq, heads * hd, &mut rng));
            let mut g = Graph::new();
            let [q, k, v] = [&q0, &k0, &v0].map(|m| g.param(m));
            let o = g.causal_attention(q, k, v, batch, seq, heads);
            // `sum(o ⊙ w)`: the upstream gradient of `o` is exactly `w`.
            let w = g.input(w0.clone());
            let z = g.mul(o, w);
            let s = g.sum(z);
            let out = g.value(o).clone();
            g.backward(s);
            let [ro, rdq, rdk, rdv] =
                full_matrix_attention([&q0, &k0, &v0, &w0], batch, seq, heads);
            assert_same_bits(&out, &ro, &format!("seq {seq} output"));
            assert_same_bits(g.grad(q), &rdq, &format!("seq {seq} dq"));
            assert_same_bits(g.grad(k), &rdk, &format!("seq {seq} dk"));
            assert_same_bits(g.grad(v), &rdv, &format!("seq {seq} dv"));
        }
    }
}
