//! Reusable scratch-buffer pool for `f32` workspaces.
//!
//! Training allocates the same handful of buffer sizes over and over:
//! matmul outputs, autograd gradients, packed kernel panels, optimizer
//! update vectors. Routing those through a thread-local freelist turns the
//! steady-state allocation rate to ~zero — after the first step every
//! `Matrix::zeros` is a warm, page-mapped buffer.
//!
//! The pool is thread-local (no locks); a `Vec<f32>`'s storage has no
//! thread affinity, so buffers freed on one thread and reused on another
//! would also be fine — they simply land in different freelists.
//!
//! Buffers are recycled explicitly ([`recycle`]) rather than via a `Drop`
//! impl on `Matrix`, which would forbid moving the data out (`into_vec`)
//! and would churn the pool on every temporary. The high-traffic recycle
//! points are the autograd graph (dropped once per step) and the kernels'
//! internal panels.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Retain at most this many free buffers per thread.
const MAX_BUFS: usize = 64;

/// Retain at most this many total f32 elements per thread (256 MiB).
const MAX_ELEMS: usize = 64 << 20;

/// Global (all-thread) pool statistics: freelists are thread-local, but
/// the worker pool means allocations happen on many threads, so run-level
/// accounting has to aggregate across them.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RETAINED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Thread-local freelist wrapper whose `Drop` returns this thread's
/// retained bytes to the global gauge, so dying threads (e.g. test
/// runners) don't leak into the accounting.
struct Freelist(Vec<Vec<f32>>);

impl Drop for Freelist {
    fn drop(&mut self) {
        let bytes: usize = self.0.iter().map(|b| 4 * b.capacity()).sum();
        RETAINED_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    }
}

thread_local! {
    static FREE: RefCell<Freelist> = const { RefCell::new(Freelist(Vec::new())) };
}

/// Snapshot of the global scratch-pool counters, aggregated over every
/// thread's freelist since process start.
#[derive(Debug, Clone, Copy)]
pub struct ScratchStats {
    /// `take_zeroed` calls served from a pooled buffer.
    pub hits: u64,
    /// `take_zeroed` calls that had to allocate fresh storage.
    pub misses: u64,
    /// Bytes currently held across all thread freelists.
    pub retained_bytes: usize,
}

impl ScratchStats {
    /// Fraction of takes served from the pool (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads the global pool counters.
pub fn stats() -> ScratchStats {
    ScratchStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        retained_bytes: RETAINED_BYTES.load(Ordering::Relaxed),
    }
}

/// Pops this thread's best-fitting pooled buffer of capacity ≥ `len`
/// (contents and length as its last user left them), counting the hit or
/// miss.
fn take_pooled(len: usize) -> Option<Vec<f32>> {
    let reused = FREE.with(|f| {
        let free = &mut f.borrow_mut().0;
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
                if cap == len {
                    break;
                }
            }
        }
        best.map(|(i, _)| free.swap_remove(i))
    });
    match &reused {
        Some(buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            RETAINED_BYTES.fetch_sub(4 * buf.capacity(), Ordering::Relaxed);
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
        }
    }
    reused
}

/// Takes a zeroed buffer of exactly `len` elements, reusing pooled storage
/// when a large-enough buffer is available (best capacity fit).
pub fn take_zeroed(len: usize) -> Vec<f32> {
    match take_pooled(len) {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Takes a buffer of exactly `len` elements for a caller that overwrites
/// every one of them: pooled storage comes back holding whatever its last
/// user left (only a grown tail is zero-filled), so a full-size reuse
/// costs no memory pass at all. Which values those are is unspecified.
pub fn take_stale(len: usize) -> Vec<f32> {
    match take_pooled(len) {
        Some(mut buf) => {
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Returns a buffer's storage to the thread's freelist, contents intact
/// ([`take_stale`] hands them out again). Buffers beyond the count/byte
/// caps are dropped (truly freed) instead.
pub fn recycle(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    FREE.with(|f| {
        let free = &mut f.borrow_mut().0;
        let held: usize = free.iter().map(Vec::capacity).sum();
        if free.len() >= MAX_BUFS || held + buf.capacity() > MAX_ELEMS {
            return;
        }
        RETAINED_BYTES.fetch_add(4 * buf.capacity(), Ordering::Relaxed);
        free.push(buf);
    });
}

/// Number of buffers currently pooled on this thread (for tests/metrics).
pub fn pooled_buffers() -> usize {
    FREE.with(|f| f.borrow().0.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_exact_len() {
        let buf = take_zeroed(17);
        assert_eq!(buf.len(), 17);
        assert!(buf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn recycled_storage_is_reused_and_rezeroed() {
        let mut buf = take_zeroed(100);
        buf.iter_mut().for_each(|x| *x = 3.5);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        recycle(buf);
        let again = take_zeroed(80);
        assert_eq!(again.as_ptr(), ptr, "expected storage reuse");
        assert_eq!(again.capacity(), cap);
        assert!(again.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        recycle(Vec::with_capacity(1000));
        recycle(Vec::with_capacity(50));
        recycle(Vec::with_capacity(200));
        let buf = take_zeroed(60);
        assert_eq!(buf.capacity(), 200);
        // Drain so later tests on this thread start clean.
        while pooled_buffers() > 0 {
            let _ = take_zeroed(1);
        }
    }

    #[test]
    fn stats_track_hits_misses_and_retained_bytes() {
        // Drain this thread's pool so the next take is a guaranteed miss.
        while pooled_buffers() > 0 {
            let _ = take_zeroed(1);
        }
        let before = stats();
        let buf = take_zeroed(12_345);
        let after_miss = stats();
        assert!(after_miss.misses > before.misses, "fresh alloc must count");
        let cap = buf.capacity();
        recycle(buf);
        // Our freelist holds the buffer until we take it back, so the
        // global gauge must report at least its bytes.
        assert!(stats().retained_bytes >= 4 * cap);
        let _ = take_zeroed(12_345);
        let after_hit = stats();
        assert!(after_hit.hits > after_miss.hits, "pool reuse must count");
        assert!(after_hit.hit_rate() > 0.0);
    }

    #[test]
    fn thread_churn_returns_retained_bytes_to_baseline() {
        // Regression guard for the `Freelist::Drop` accounting: worker
        // threads that die with pooled buffers must hand their bytes back
        // to the global gauge. Each thread retains far more than the rest
        // of the (concurrently running) suite plausibly touches, so a
        // leak of even one thread's freelist trips the allowance.
        const THREADS: usize = 4;
        const PER_THREAD_ELEMS: usize = 8 << 20; // 32 MiB retained per thread
        const ALLOWANCE: usize = 8 << 20; // noise from concurrent tests
        let baseline = stats().retained_bytes;
        for round in 0..3 {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    std::thread::spawn(|| {
                        // The big buffers go in first (before the count cap
                        // fills) so each thread dies holding ~32 MiB.
                        recycle(Vec::with_capacity(PER_THREAD_ELEMS / 2));
                        recycle(Vec::with_capacity(PER_THREAD_ELEMS / 2));
                        // Mixed churn: takes, recycles, cap-overflow drops.
                        for _ in 0..MAX_BUFS + 8 {
                            recycle(Vec::with_capacity(1024));
                        }
                        let a = take_zeroed(4096);
                        let b = take_zeroed(123);
                        recycle(a);
                        recycle(b);
                        assert!(pooled_buffers() > 0, "thread must die holding buffers");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let after = stats().retained_bytes;
            assert!(
                after <= baseline + ALLOWANCE,
                "round {round}: retained {after} bytes vs baseline {baseline} — \
                 dead threads leaked into the gauge"
            );
        }
    }

    #[test]
    fn pool_respects_count_cap() {
        for _ in 0..(MAX_BUFS + 10) {
            recycle(Vec::with_capacity(8));
        }
        assert!(pooled_buffers() <= MAX_BUFS);
        while pooled_buffers() > 0 {
            let _ = take_zeroed(1);
        }
    }
}
