//! The forward keeps only what backward reads; the backward walk frees
//! what it has passed.
//!
//! A counting global allocator, local to this test binary, measures live
//! heap bytes around one `tiny_1b` training step at batch 4 (the
//! `pretrain` benchmark's shape). Three bounds:
//!
//! - **Forward end.** The tape (every byte the forward allocated and still
//!   holds) may be at most what a forward that kept every value held, less
//!   the values no backward arm reads and the values backward recomputes,
//!   plus 0.25 MiB of slack: less than the smallest of the handed-over
//!   values, the 0.5 MiB of logits. The handed-over values are, per layer,
//!   the pre-RoPE `q` and `k` and the `wo` and `down` outputs
//!   (`4·L·tokens·hidden` floats); the logits (`tokens·vocab`); and the
//!   masked upper half of every `(batch, head, layer)` attention
//!   probability matrix (`B·H·L·seq(seq−1)/2`). The recomputed ones are
//!   the two norm outputs per layer and the final norm's
//!   (`(2L+1)·tokens·hidden`) and the SwiGLU outputs (`L·tokens·inter`). At
//!   this shape that is 24.13 − 5.48 − 4.56 + 0.25 = 14.33 MiB; the tape
//!   reads 12.62 (17.18 before the recomputation, 18.64 while buffers came
//!   from a best-fit pool, which could hand out more capacity than asked
//!   for).
//! - **Backward rise.** Measured from the end of the forward pass to the
//!   highest point backward reaches. A walk that kept every intermediate
//!   gradient until the tape dropped grew the heap by about 1.3× the tape;
//!   one that frees each node's gradient, value and op caches as it passes,
//!   so the allocator reuses their storage for later gradients, grows it by
//!   about a tenth (1.81 MiB; 2.0 with the pool). Recomputing values in
//!   backward moved the peak to the last layer's `down` arm, which held
//!   the rebuilt SwiGLU output and its `σ(gate)` while it made the arm's
//!   two gradients (2.31 MiB, with the whole transposed `down` weight packed
//!   beside them; 1.96 once the GEMM packed one column block at a time).
//!   Since a `MatMul` arm that is the last reader of its `a` frees it after
//!   `db`, that arm drops the SwiGLU output before it makes `da`, and the
//!   peak is the same layer's SwiGLU arm: `σ(gate)`, the upstream gradient
//!   it overwrites with `db`, and `da` (`tokens × inter` each), beside the
//!   `down` and LM-head weight gradients, less the cross-entropy's `exps`
//!   (`tokens × vocab`), which the walk has freed. That is 1.75 MiB and
//!   the rise reads 1.75. The bound adds half the forward-end slack
//!   (1.875 MiB), so the 1.96 MiB of a `down` arm that keeps the SwiGLU
//!   output through `da` fails it.
//! - **Nothing outlives the step.** Once the gradients, the tape and the
//!   parameter node ids are dropped, live heap is back to its value before
//!   the forward, byte for byte: the slack is 0 B, because that is what
//!   the step leaves (measured). Every buffer is owned by a value that is
//!   dropped, so a byte left over is a buffer something still holds.
//!
//! Kept to one `#[test]`: the counters are process-wide, and a second test
//! running alongside would allocate into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_tensor::{Rng, ThreadOverrideGuard};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments, under the caller's contract,
// to `System`, and only updates counters besides.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The tape at forward end, in bytes, when the forward kept every value
/// (measured at this shape before the consuming ops).
const KEEP_EVERYTHING_TAPE: usize = 25_297_540;

/// Slack on the forward-end and backward-rise bounds.
const SLACK: usize = 1 << 18;

/// Bytes of the values backward recomputes instead of the forward keeping
/// them (`Graph::remat`): every RMSNorm output and every SwiGLU output.
fn recomputed_bytes(cfg: &ModelConfig, batch: usize) -> usize {
    let (layers, tokens) = (cfg.n_layers, batch * cfg.max_seq);
    4 * ((2 * layers + 1) * tokens * cfg.hidden + layers * tokens * cfg.intermediate)
}

/// Bytes live over forward end at the backward peak, the last layer's
/// SwiGLU arm: `σ(gate)`, the arm's upstream gradient and `da`
/// (`tokens × inter` each) and the `down` and LM-head weight gradients,
/// less the cross-entropy's `exps` (`tokens × vocab`), which the walk has
/// freed by then.
fn swiglu_arm_bytes(cfg: &ModelConfig, batch: usize) -> usize {
    let (tokens, inter, vocab) = (batch * cfg.max_seq, cfg.intermediate, cfg.vocab_size);
    4 * (3 * tokens * inter + inter * cfg.hidden + cfg.hidden * vocab - tokens * vocab)
}

/// Bytes of the values no backward arm reads, which the forward hands to
/// the op that uses them or never stores.
fn handed_over_bytes(cfg: &ModelConfig, batch: usize) -> usize {
    let (layers, seq) = (cfg.n_layers, cfg.max_seq);
    let tokens = batch * seq;
    let floats = 4 * layers * tokens * cfg.hidden
        + tokens * cfg.vocab_size
        + batch * cfg.n_heads * layers * seq * (seq - 1) / 2;
    4 * floats
}

#[test]
fn forward_end_and_backward_rise_fit_their_bounds() {
    // One kernel thread: no worker thread allocates while the counters run.
    let _pin = ThreadOverrideGuard::new(1);
    let cfg = ModelConfig::tiny_1b();
    let batch = 4;
    let mut rng = Rng::seed_from_u64(0xB1C);
    let model = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
    let n = batch * cfg.max_seq;
    let tokens: Vec<u32> = (0..n).map(|_| rng.below(cfg.vocab_size) as u32).collect();
    let targets: Vec<u32> = (0..n).map(|_| rng.below(cfg.vocab_size) as u32).collect();

    // Warm step: lazily built tables exist before anything is counted.
    drop(model.loss_and_grads(&tokens, &targets, batch));

    let before_forward = LIVE.load(Ordering::Relaxed);
    let (mut g, loss, pnodes) = model.build_loss(&tokens, &targets, batch);
    let forward_end = LIVE.load(Ordering::Relaxed);
    PEAK.store(forward_end, Ordering::Relaxed);
    g.backward(loss);
    let backward_peak = PEAK.load(Ordering::Relaxed);
    let grads = model.take_grads(&mut g, &pnodes);
    assert!(grads.iter().all(Option::is_some));
    drop((grads, g, pnodes));
    let after_step = LIVE.load(Ordering::Relaxed);

    // Non-leaf values and op caches: the parameters are borrowed, so
    // nothing else on the tape is this large.
    let tape = forward_end - before_forward;
    let rise = backward_peak - forward_end;
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    let bound =
        KEEP_EVERYTHING_TAPE - handed_over_bytes(&cfg, batch) - recomputed_bytes(&cfg, batch)
            + SLACK;
    let kept = after_step as isize - before_forward as isize;
    let rise_bound = swiglu_arm_bytes(&cfg, batch) + SLACK / 2;
    println!(
        "tape {:.2} MiB (bound {:.2}), backward rise {:.2} MiB (bound {:.2}), \
         {kept} B live after the step",
        mib(tape),
        mib(bound),
        mib(rise),
        mib(rise_bound)
    );
    assert!(
        tape <= bound,
        "the forward left {:.2} MiB on the tape, over the {:.2} MiB bound: it \
         keeps a value no backward arm reads or one backward recomputes",
        mib(tape),
        mib(bound)
    );
    assert!(
        rise <= rise_bound,
        "backward grew the heap by {:.2} MiB, over the {:.2} MiB that the last \
         SwiGLU arm's buffers and gradients and the slack account for",
        mib(rise),
        mib(rise_bound)
    );
    assert!(
        kept == 0,
        "{kept} B more live heap after the step's gradients and tape were \
         dropped than before its forward: something outlives the step"
    );
}
