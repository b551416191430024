//! The backward walk frees what it has passed.
//!
//! A counting global allocator, local to this test binary, measures live
//! heap bytes around one `tiny_1b` training step at batch 4 (the
//! `pretrain` benchmark's shape). Measured from the end of the forward pass
//! to the highest point backward reaches, the heap may grow by less than
//! half of what the forward put on the tape. A walk that kept every
//! intermediate gradient until the tape dropped grew it by about 1.3× that;
//! one that frees each node's gradient, value and op caches as it passes,
//! so later gradients reuse their storage, grows it by about a tenth.
//!
//! Kept to one `#[test]`: the counters are process-wide, and a second test
//! running alongside would allocate into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use apollo_nn::{LinearMode, LlamaModel, ModelConfig};
use apollo_tensor::{scratch, Rng, ThreadOverrideGuard};

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

/// Frees every buffer this thread's scratch pool holds, so the next
/// forward takes all of its storage from the allocator.
fn drain_pool() {
    while scratch::pooled_buffers() > 0 {
        drop(scratch::take_zeroed(1));
    }
}

#[test]
fn backward_grows_the_heap_by_less_than_half_the_tape() {
    // One kernel thread: every buffer is taken and returned on this
    // thread's scratch pool.
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

    drain_pool();
    let before_forward = LIVE.load(Ordering::Relaxed);
    let (mut g, loss, pnodes) = model.build_loss(&tokens, &targets, batch);
    let forward_end = LIVE.load(Ordering::Relaxed);
    PEAK.store(forward_end, Ordering::Relaxed);
    g.backward(loss);
    let backward_peak = PEAK.load(Ordering::Relaxed);
    let grads = model.take_grads(&mut g, &pnodes);
    assert!(grads.iter().all(Option::is_some));

    // Non-leaf values and op caches: the parameters are borrowed, so
    // nothing else on the tape is this large.
    let tape = forward_end - before_forward;
    let rise = backward_peak - forward_end;
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    println!(
        "tape {:.1} MiB, backward rise {:.1} MiB ({:.0} %)",
        mib(tape),
        mib(rise),
        100.0 * rise as f64 / tape as f64
    );
    assert!(
        2 * rise < tape,
        "backward grew the heap by {:.1} MiB, not under half the tape's {:.1} MiB",
        mib(rise),
        mib(tape)
    );
}
