//! An optimizer holds on the heap what `state_bytes()` counts — Table 1 as
//! a measured row, not only a modelled one.
//!
//! A counting global allocator, local to this test binary, measures the
//! live heap bytes an optimizer holds after steps 1 and 3 on two
//! transformer layers at LLaMA-60M geometry (the `optstep` benchmark's
//! tensors: 8× 512×512, 4× 512×1376, 2× 1376×512 and four 1×512 norm
//! gains). Every byte of live heap counts: a step frees its temporaries
//! when they go out of scope, so whatever the heap grew by is what the
//! optimizer keeps.
//!
//! The held bytes must equal `state_bytes()` up to a stated bound:
//! [`HEADER_BYTES_PER_TENSOR`] for each tensor's record (its `Vec` slot, and
//! the projector seed and limiter norm `state_bytes()` counts but which live
//! inline in it), plus the scaling factors APOLLO publishes, 4 bytes per
//! channel. A per-tensor update buffer kept between steps (+50 % over
//! APOLLO's moments) or a moment stored in a larger buffer is far outside
//! it.
//!
//! The `*-8bit` rows are left out: their moments are fake-quantised `f32`
//! matrices, so they hold about 4× their `state_bytes()` until INT8 storage
//! lands (ROADMAP item 15).
//!
//! Kept to one `#[test]`: the counters are process-wide, and a second test
//! running alongside would allocate into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use apollo_optim::{AdamMini, AdamW, Apollo, GaLore, Optimizer, ParamUpdate, SgdMomentum};
use apollo_tensor::{Matrix, Rng, ThreadOverrideGuard};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments, under the caller's contract,
// to `System`, and only updates a counter besides.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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

/// Heap bytes a tensor's state may hold beyond its counted elements, or
/// lack of them: its record in the optimizer's `Vec` (a few hundred bytes
/// at most) against the 8 bytes of inline scalars `state_bytes()` counts.
const HEADER_BYTES_PER_TENSOR: usize = 512;

const RANK: usize = 128;
/// GaLore's rank: its first step computes an SVD basis per tensor, which at
/// rank 128 takes half a minute in the dev profile. The rank changes no
/// accounting (the basis is `min(rows, cols) · rank` either way).
const GALORE_RANK: usize = 16;
const UPDATE_FREQ: usize = 200;

/// `(rows, cols, projectable)` of the `optstep` tensors, in model order.
fn llama60m_two_layers() -> Vec<(usize, usize, bool)> {
    let (h, inter) = (512, 1376);
    let layer = [
        (1, h, false),
        (h, h, true),
        (h, h, true),
        (h, h, true),
        (h, h, true),
        (1, h, false),
        (h, inter, true),
        (h, inter, true),
        (inter, h, true),
    ];
    [layer, layer].concat()
}

fn step(opt: &mut dyn Optimizer, shapes: &[(usize, usize, bool)], w: &mut [Matrix], g: &[Matrix]) {
    let mut params: Vec<ParamUpdate<'_>> = shapes
        .iter()
        .zip(w.iter_mut())
        .zip(g)
        .map(|((&(_, _, projectable), value), grad)| ParamUpdate {
            name: "w",
            value,
            grad,
            projectable,
        })
        .collect();
    opt.step(&mut params, 1e-3);
}

#[test]
fn optimizer_heap_equals_state_bytes_after_steps_one_and_three() {
    // One kernel thread: no worker thread allocates while the counter runs.
    let _pin = ThreadOverrideGuard::new(1);
    let shapes = llama60m_two_layers();
    let mut rng = Rng::seed_from_u64(0x57A7E);
    let weights: Vec<Matrix> = shapes
        .iter()
        .map(|&(r, c, _)| Matrix::randn_scaled(r, c, 0.02, &mut rng))
        .collect();
    let grads: Vec<Vec<Matrix>> = (0..3)
        .map(|_| {
            shapes
                .iter()
                .map(|&(r, c, _)| Matrix::randn(r, c, &mut rng))
                .collect()
        })
        .collect();
    let channels: usize = shapes.iter().map(|&(r, c, _)| r.max(c)).sum();
    let optimizers: [(&str, Box<dyn Optimizer>, bool); 6] = [
        ("AdamW", Box::new(AdamW::new()), false),
        ("APOLLO", Box::new(Apollo::new(RANK, UPDATE_FREQ)), true),
        ("APOLLO-Mini", Box::new(Apollo::mini(UPDATE_FREQ)), true),
        (
            "GaLore",
            Box::new(GaLore::new(GALORE_RANK, UPDATE_FREQ)),
            false,
        ),
        ("Adam-mini", Box::new(AdamMini::new()), false),
        ("SGD-M", Box::new(SgdMomentum::new(0.9)), false),
    ];
    for (name, mut opt, publishes_scales) in optimizers {
        let mut w = weights.clone();
        let before = LIVE.load(Ordering::Relaxed);
        for (t, g) in grads.iter().enumerate() {
            step(opt.as_mut(), &shapes, &mut w, g);
            if t == 1 {
                continue;
            }
            let held = LIVE.load(Ordering::Relaxed) - before;
            let counted = opt.state_bytes();
            let scales = if publishes_scales { 4 * channels } else { 0 };
            let bound = HEADER_BYTES_PER_TENSOR * shapes.len() + scales;
            println!(
                "{name} step {}: holds {held} B, state_bytes {counted} B (bound ±{bound} B)",
                t + 1
            );
            assert!(
                held.abs_diff(counted) <= bound,
                "{name} step {}: holds {held} B of heap for {counted} B of counted state \
                 (bound ±{bound} B)",
                t + 1
            );
        }
    }
}
