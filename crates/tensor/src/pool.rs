//! Persistent worker pool for the matmul kernels.
//!
//! The previous kernels spawned fresh scoped threads (`std::thread::scope`)
//! on every parallel matmul — at proxy scales the spawn/join cost rivals the
//! kernel itself. This pool spawns workers once, parks them on a condvar
//! between jobs, and hands out *tasks* (row bands) through a shared
//! dispenser so a job finishes even if some workers are slow to wake.
//!
//! Determinism: the pool never decides *how* work is split — callers
//! partition rows into bands purely from `(rows, requested_threads)` and
//! each band writes a disjoint output slice with the same per-row
//! accumulation order as the serial path. Which thread runs a band is
//! therefore irrelevant to the result; outputs are bit-identical across
//! pool sizes, wake ordering, and task-stealing interleavings.
//!
//! Jobs from concurrent submitter threads serialize on a submit lock; the
//! submitting thread always participates in its own job, so a pool with
//! zero spawned workers (thread count 1) degrades to the serial loop.
//!
//! [`par_bands`] is that caller-side partition, written once: the matmul and
//! fused kernels give it their output buffers and get back, per task, the
//! rows that task owns as ordinary `&mut` slices.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use crate::matmul::{current_threads, should_parallelize};

/// Type-erased pointer to a job's task closure.
///
/// The erased lifetime is sound because [`Pool::run`] blocks until every
/// task of the job has completed, so the pointee outlives all uses.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and the
// pool only dereferences it while the owning `run` call keeps it alive.
unsafe impl Send for TaskPtr {}
// SAFETY: as for `Send` — a shared `TaskPtr` is only ever read and called.
unsafe impl Sync for TaskPtr {}

#[derive(Clone, Copy)]
struct Job {
    task: TaskPtr,
    n_tasks: usize,
}

struct State {
    /// Currently published job, if any.
    job: Option<Job>,
    /// Bumped once per published job so parked workers can tell a fresh
    /// job from the one they already drained.
    generation: u64,
    /// Next task index to hand out for the current job.
    next_task: usize,
    /// Completed task count for the current job.
    completed: usize,
    /// Number of spawned (persistent) workers.
    workers: usize,
}

/// The process-wide worker pool. See the module docs for the design.
pub struct Pool {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// Submitters park here while workers finish the tail of a job.
    done_cv: Condvar,
    /// Serializes concurrent submitters (one job in flight at a time).
    submit: Mutex<()>,
    jobs: AtomicU64,
    worker_tasks: AtomicU64,
}

/// Counters for observability (`pool_*` metrics in `--profile` output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs dispatched to the pool (parallel kernel invocations).
    pub jobs: u64,
    /// Tasks executed by pooled workers (rest ran on the submitter).
    pub worker_tasks: u64,
    /// Persistent workers currently spawned.
    pub workers: usize,
}

/// Hard cap on spawned workers, over and above the submitter itself.
const MAX_WORKERS: usize = 63;

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                next_task: 0,
                completed: 0,
                workers: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
            jobs: AtomicU64::new(0),
            worker_tasks: AtomicU64::new(0),
        })
    }

    /// Runs `f(t)` for every task `t in 0..n_tasks` using up to
    /// `threads - 1` pooled workers plus the calling thread, returning once
    /// all tasks completed. With `threads <= 1` (or a single task) this is
    /// exactly the serial `for` loop — no pool, no locks.
    pub fn run(threads: usize, n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        let helpers = threads
            .saturating_sub(1)
            .min(n_tasks.saturating_sub(1))
            .min(MAX_WORKERS);
        if helpers == 0 {
            for t in 0..n_tasks {
                f(t);
            }
            return;
        }
        let pool = Self::global();
        let _submit = pool.submit.lock().unwrap();
        pool.jobs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: only the lifetime is erased; `run` blocks below until
        // `completed == n_tasks`, so `f` outlives every dereference.
        let task = TaskPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const (dyn Fn(usize) + Sync))
        });
        {
            let mut st = pool.state.lock().unwrap();
            while st.workers < helpers {
                st.workers += 1;
                let id = st.workers;
                std::thread::Builder::new()
                    .name(format!("apollo-pool-{id}"))
                    .spawn(move || Pool::worker_loop(Pool::global()))
                    .expect("spawn pool worker");
            }
            st.job = Some(Job { task, n_tasks });
            st.generation += 1;
            st.next_task = 0;
            st.completed = 0;
            pool.work_cv.notify_all();
        }
        // The submitter works its own job rather than just waiting.
        loop {
            let t = {
                let mut st = pool.state.lock().unwrap();
                if st.next_task >= n_tasks {
                    break;
                }
                let t = st.next_task;
                st.next_task += 1;
                t
            };
            f(t);
            let mut st = pool.state.lock().unwrap();
            st.completed += 1;
            if st.completed == n_tasks {
                st.job = None;
                pool.done_cv.notify_all();
            }
        }
        let mut st = pool.state.lock().unwrap();
        while st.completed < n_tasks {
            st = pool.done_cv.wait(st).unwrap();
        }
    }

    fn worker_loop(pool: &'static Pool) {
        let mut seen_gen = 0u64;
        loop {
            let (job, generation) = {
                let mut st = pool.state.lock().unwrap();
                loop {
                    if let Some(job) = st.job {
                        if st.generation != seen_gen && st.next_task < job.n_tasks {
                            break (job, st.generation);
                        }
                    }
                    st = pool.work_cv.wait(st).unwrap();
                }
            };
            seen_gen = generation;
            loop {
                let t = {
                    let mut st = pool.state.lock().unwrap();
                    if st.generation != generation || st.next_task >= job.n_tasks {
                        break;
                    }
                    let t = st.next_task;
                    st.next_task += 1;
                    t
                };
                // SAFETY: the submitter blocks in `run` until `completed ==
                // n_tasks`, which includes this task, so the closure behind
                // the erased pointer is still alive.
                unsafe { (*job.task.0)(t) };
                pool.worker_tasks.fetch_add(1, Ordering::Relaxed);
                let mut st = pool.state.lock().unwrap();
                st.completed += 1;
                if st.generation == generation && st.completed == job.n_tasks {
                    st.job = None;
                    pool.done_cv.notify_all();
                }
            }
        }
    }
}

/// One output buffer of a banded kernel — `rows` rows of `width` elements —
/// that the tasks of one [`Pool::run`] take disjoint row bands of.
struct Banded<'a, T> {
    ptr: *mut T,
    width: usize,
    /// The buffer stays mutably borrowed for as long as bands can be taken.
    _buffer: PhantomData<&'a mut [T]>,
}

// SAFETY: sharing a `Banded` only lets threads take bands, `par_bands` hands
// every task a band no other task gets, and a band is a `&mut [T]`, which may
// move to another thread when `T: Send`.
unsafe impl<T: Send> Sync for Banded<'_, T> {}

/// The one band splitter of the matmul and fused kernels: runs
/// `run(lo, hi, bands)` over row bands `[lo, hi)` of a `rows`-row problem,
/// where `bands[i]` is rows `lo..hi` of `outs[i].0`, a buffer of `rows` rows
/// of `outs[i].1` elements. On the worker pool when the FLOP gate
/// ([`should_parallelize`]) passes, as the single band `[0, rows)` on the
/// calling thread otherwise.
///
/// The partition is a pure function of `(rows, threads)` — `threads` bands
/// of `rows.div_ceil(threads)` rows — and each task can write only its own
/// rows, so whatever `run` computes per row is bit-identical at every thread
/// count (including 1).
///
/// # Panics
///
/// Panics if a buffer is not `rows × width` long.
pub(crate) fn par_bands<T: Send, const N: usize>(
    rows: usize,
    flops: usize,
    outs: [(&mut [T], usize); N],
    run: impl Fn(usize, usize, [&mut [T]; N]) + Sync,
) {
    for (out, width) in &outs {
        assert_eq!(
            out.len(),
            rows * width,
            "par_bands: buffer is not rows x width"
        );
    }
    let threads = current_threads();
    if !should_parallelize(threads, rows, flops) {
        run(0, rows, outs.map(|(out, _)| out));
        return;
    }
    let band = rows.div_ceil(threads);
    let outs = outs.map(|(out, width)| Banded {
        ptr: out.as_mut_ptr(),
        width,
        _buffer: PhantomData,
    });
    Pool::run(threads, rows.div_ceil(band), &|t| {
        let (lo, hi) = (t * band, ((t + 1) * band).min(rows));
        let bands = outs.each_ref().map(|out| {
            // SAFETY: `lo..hi` lies inside `0..rows` and the buffer holds
            // `rows * width` elements (asserted above), so the range is in
            // bounds; `Pool::run` calls each `t` exactly once and bands of
            // different `t` are disjoint, so no other reference to these
            // rows exists; and it returns only after every task has, so the
            // borrow `Banded` holds outlives the slice.
            unsafe {
                std::slice::from_raw_parts_mut(out.ptr.add(lo * out.width), (hi - lo) * out.width)
            }
        });
        run(lo, hi, bands);
    });
}

/// Snapshot of the global pool's counters.
pub fn stats() -> PoolStats {
    let pool = Pool::global();
    let workers = pool.state.lock().unwrap().workers;
    PoolStats {
        jobs: pool.jobs.load(Ordering::Relaxed),
        worker_tasks: pool.worker_tasks.load(Ordering::Relaxed),
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn serial_path_runs_all_tasks_in_order() {
        let order = Mutex::new(Vec::new());
        Pool::run(1, 5, &|t| order.lock().unwrap().push(t));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pooled_path_runs_each_task_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        Pool::run(4, hits.len(), &|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn back_to_back_jobs_reuse_parked_workers() {
        for round in 0..20 {
            let sum = AtomicUsize::new(0);
            let n = 3 + round % 5;
            Pool::run(3, n, &|t| {
                sum.fetch_add(t + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        }
        let stats = stats();
        assert!(stats.jobs >= 20);
        assert!(stats.workers >= 1);
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        Pool::run(8, 0, &|_| panic!("no tasks to run"));
    }

    /// Flops that pass the gate, so only the row count decides.
    const OVER_GATE: usize = 1 << 30;

    #[test]
    fn par_bands_hands_each_row_to_exactly_one_task() {
        let rows = 37;
        for threads in [1usize, 2, 4, 8] {
            let _pin = crate::ThreadOverrideGuard::new(threads);
            let (mut wide, mut narrow) = (vec![0u32; rows * 5], vec![0u32; rows]);
            par_bands(
                rows,
                OVER_GATE,
                [(&mut wide[..], 5), (&mut narrow[..], 1)],
                |lo, hi, [wband, nband]| {
                    assert_eq!((wband.len(), nband.len()), ((hi - lo) * 5, hi - lo));
                    for (r, (wrow, n)) in (lo..hi).zip(wband.chunks_exact_mut(5).zip(nband)) {
                        wrow.iter_mut().for_each(|w| *w += r as u32 + 1);
                        *n += r as u32 + 1;
                    }
                },
            );
            for r in 0..rows {
                assert_eq!(narrow[r], r as u32 + 1, "threads={threads} row {r}");
                assert_eq!(wide[r * 5..r * 5 + 5], [r as u32 + 1; 5], "row {r}");
            }
        }
    }

    #[test]
    fn par_bands_below_the_gate_is_one_serial_band() {
        let _pin = crate::ThreadOverrideGuard::new(4);
        let calls = AtomicUsize::new(0);
        let mut out = vec![0.0f64; 64];
        par_bands(64, 1, [(&mut out[..], 1)], |lo, hi, [band]| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((lo, hi, band.len()), (0, 64, 64));
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // No rows at all is still one (empty) band, not a division by zero.
        par_bands(0, OVER_GATE, [(&mut out[..0], 3)], |lo, hi, [band]| {
            assert_eq!((lo, hi, band.len()), (0, 0, 0));
        });
    }

    #[test]
    #[should_panic(expected = "par_bands: buffer is not rows x width")]
    fn par_bands_rejects_a_buffer_of_the_wrong_size() {
        let mut out = [0.0f32; 10];
        par_bands(4, OVER_GATE, [(&mut out[..], 3)], |_, _, _| {});
    }

    #[test]
    fn concurrent_submitters_serialize_cleanly() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let sum = AtomicUsize::new(0);
                        Pool::run(2, 8, &|t| {
                            sum.fetch_add(t, Ordering::Relaxed);
                        });
                        assert_eq!(sum.load(Ordering::Relaxed), 28);
                    }
                });
            }
        });
    }
}
