//! Deterministic multi-replica data-parallel pre-training with ZeRO-style
//! optimizer-state sharding and elastic replica recovery: the entry point
//! [`pretrain_ddp`] and the mechanics the step pipeline
//! (`crate::pipeline`) runs a team of members on — a poisonable barrier,
//! the slot and shard partitions, the fixed combine tree and the
//! per-parameter optimizer-state framing.
//!
//! # Replica-count invariance
//!
//! The global batch is decomposed into `virtual_slots` fixed micro-batches
//! ("slots"). Slot `s` at step `k` always draws the same corpus streams
//! (cursor `1 + (k·V + s)·slot_batch`), its loss and gradients are computed
//! by exactly one replica, and the per-parameter gradients are combined by
//! a **fixed pairwise binary tree over slots** — `((g0+g1)+(g2+g3))` for
//! `V = 4` — then scaled by `1/V`. Replica count only changes *which
//! replica owns which slots*, never the operands or the reduction order,
//! so losses and weights are bit-identical at any replica count. This is
//! the same float-op-order contract the matmul pool honors for
//! thread-count invariance, lifted to the replica level. It also makes
//! elastic membership free: survivors re-partition slots and replay.
//!
//! # ZeRO-style state sharding
//!
//! Optimizer state is built as one optimizer instance **per parameter**
//! (the [`OptimizerFactory`] receives the global parameter index, so
//! position-derived projector seeds stay stable under any sharding).
//! Each replica owns a contiguous shard of parameters — balanced by
//! element count — and holds only that shard's state. States are
//! re-gathered (via [`apollo_optim::Optimizer::state_save`]) only at
//! checkpoint time, one checkpoint section per parameter, so a checkpoint
//! written at one replica count resumes at any other.
//!
//! # Elastic recovery
//!
//! A [`crate::FaultKind::ReplicaKill`] fault poisons the step barrier;
//! survivors abandon the in-flight step, the driver drops the member,
//! re-partitions shards and slots over the survivors, restores the
//! in-memory floor the team keeps while a kill is planned (the state the
//! round started from, then the state of its latest checkpoint or rollback
//! snapshot), and replays. Determinism makes the resumed run bit-identical
//! to an undisturbed one.

use std::ops::Range;
use std::sync::{Condvar, Mutex};

use apollo_data::LmBatcher;
use apollo_nn::LlamaModel;
use apollo_obs::Obs;
use apollo_optim::Optimizer;
use serde::{Deserialize, Serialize};

use crate::pipeline::{self, OptSource};
use crate::resilience::ResilienceConfig;
use crate::trainer::{RunLog, TrainConfig};

/// Builds the optimizer instance owning the state of one parameter.
///
/// The argument is the parameter's **global optimizer index** (position
/// among trainable parameters), so factories can derive position-dependent
/// state — e.g. APOLLO's per-parameter projector seeds — identically at
/// every replica count: `Apollo::new(rank, freq).with_seed(base + index)`.
pub type OptimizerFactory = dyn Fn(usize) -> Box<dyn Optimizer> + Sync;

/// Data-parallel execution parameters.
#[derive(Debug, Clone)]
pub struct DdpConfig {
    /// Replica (worker thread) count.
    pub replicas: usize,
    /// Fixed virtual-slot count `V`. The global batch must divide by it,
    /// and `replicas` must not exceed it. Runs with the same `V` are
    /// bit-identical at any replica count; changing `V` changes the
    /// micro-batch decomposition and therefore the arithmetic.
    pub virtual_slots: usize,
    /// Kernel threads each replica's math may use (thread-local override;
    /// 1 keeps replicas fully parallel with no pool contention).
    pub threads_per_replica: usize,
}

impl DdpConfig {
    /// `replicas` replicas over the default 4 virtual slots (widened to
    /// `replicas` when it is larger).
    pub fn new(replicas: usize) -> Self {
        DdpConfig {
            replicas,
            virtual_slots: 4.max(replicas),
            threads_per_replica: 1,
        }
    }
}

/// What the DDP driver did: membership, rounds, and recovery counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DdpReport {
    /// Replicas the run started with.
    pub replicas: usize,
    /// Replicas alive at the end.
    pub survivors: usize,
    /// Virtual-slot count `V`.
    pub virtual_slots: usize,
    /// Synchronized rounds executed (1 + one per membership change).
    pub rounds: usize,
    /// Replicas killed (injected or real).
    pub replica_kills: usize,
    /// Shard re-partitions after membership changes.
    pub rebalances: usize,
}

/// A [`RunLog`] plus the DDP driver's own audit.
#[derive(Debug, Clone)]
pub struct DdpRunLog {
    /// The training log, same shape as the serial loop's.
    pub log: RunLog,
    /// Membership/recovery audit.
    pub ddp: DdpReport,
}

// ---------------------------------------------------------------------------
// Poisonable generation barrier.
//
// `std::sync::Barrier` has a fixed participant count and no way to release
// waiters when a participant dies; this one adds `poison`, which wakes
// everyone and makes every subsequent wait fail fast, so a replica death
// unwinds the whole round instead of deadlocking it.

/// Returned by [`PoisonBarrier::wait`] when the barrier was poisoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Poisoned;

struct BarrierState {
    waiting: usize,
    generation: u64,
    poisoned: bool,
}

pub(crate) struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl PoisonBarrier {
    pub(crate) fn new(n: usize) -> Self {
        PoisonBarrier {
            n,
            state: Mutex::new(BarrierState {
                waiting: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `n` participants arrive, or the barrier is
    /// poisoned — whichever happens first. A lone participant never waits
    /// (and has nobody to be poisoned by), so a one-member round pays
    /// nothing for the barriers of the step pipeline.
    pub(crate) fn wait(&self) -> Result<(), Poisoned> {
        if self.n == 1 {
            return Ok(());
        }
        let mut s = self.state.lock().unwrap();
        if s.poisoned {
            return Err(Poisoned);
        }
        s.waiting += 1;
        if s.waiting == self.n {
            s.waiting = 0;
            s.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = s.generation;
        while s.generation == gen && !s.poisoned {
            s = self.cv.wait(s).unwrap();
        }
        if s.generation == gen {
            // Released by poison, not by the last arrival.
            s.waiting -= 1;
            Err(Poisoned)
        } else {
            Ok(())
        }
    }

    /// Wakes every waiter and fails all future waits.
    pub(crate) fn poison(&self) {
        let mut s = self.state.lock().unwrap();
        s.poisoned = true;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Deterministic partitions and reductions.

/// Contiguous slot range owned by replica position `pos` of `n`.
pub(crate) fn slot_range(pos: usize, n: usize, total: usize) -> Range<usize> {
    pos * total / n..(pos + 1) * total / n
}

/// Contiguous per-replica parameter shards, balanced by element count.
/// Every shard is non-empty (requires `shards <= elems.len()`).
pub(crate) fn shard_ranges(elems: &[usize], shards: usize) -> Vec<Range<usize>> {
    assert!(
        (1..=elems.len()).contains(&shards),
        "need 1..={} shards, got {shards}",
        elems.len()
    );
    let total: u128 = elems.iter().map(|&e| e as u128).sum();
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut cum: u128 = 0;
    for j in 0..shards {
        let target = total * (j as u128 + 1) / shards as u128;
        // Leave at least one parameter for each shard still to come.
        let max_end = elems.len() - (shards - j - 1);
        let mut end = start;
        while end < max_end {
            // Take the next parameter only while it moves the boundary
            // closer to the target (2·cum + e < 2·target ⇔ the overshoot
            // after adding is smaller than the undershoot before).
            if end > start && 2 * cum + elems[end] as u128 >= 2 * target {
                break;
            }
            cum += elems[end] as u128;
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, elems.len(), "shards must cover every parameter");
    out
}

/// Combines `items` with a fixed pairwise binary tree: level by level,
/// `(0,1)(2,3)…`, odd leftovers passing through. The combine order depends
/// only on `items.len()`, never on who calls it — the replica-invariance
/// contract.
pub(crate) fn tree_combine<T>(mut items: Vec<T>, combine: impl Fn(&mut T, T)) -> T {
    assert!(!items.is_empty());
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                combine(&mut a, b);
            }
            next.push(a);
        }
        items = next;
    }
    items.pop().unwrap()
}

// ---------------------------------------------------------------------------
// Entry point.

/// Runs multi-replica data-parallel pre-training.
///
/// `batcher` defines the **global** batch (shared by every replica count);
/// `make_opt` builds one optimizer per trainable parameter (see
/// [`OptimizerFactory`]). Losses and final weights are bit-identical for
/// any `ddp.replicas` at a fixed `ddp.virtual_slots`. On return, `model`
/// holds the final weights.
///
/// This is the step pipeline of [`crate::pretrain_observed`] run by a team:
/// every `cfg` and `res` feature works here as it does there, at any replica
/// count — clipping, INT8 weight round-trips, ReLoRA merges, sentinels and
/// recovery policies, crash-safe (sharded) checkpoints and every fault kind.
/// `cfg.grad_accum = A` makes a step `V·A` slots of `batch / V` sequences
/// (`A` global batches), combined by the one tree.
/// [`crate::FaultKind::ReplicaKill`] entries of the fault plan each drop a
/// member, rebalance, and replay from the team's in-memory floor.
///
/// # Panics
///
/// Panics if `cfg.steps == 0`, the global batch does not divide by
/// `virtual_slots`, `replicas` exceeds `virtual_slots` or the trainable
/// parameter count, or every replica is killed.
pub fn pretrain_ddp(
    model: &mut LlamaModel,
    make_opt: &OptimizerFactory,
    batcher: &LmBatcher,
    cfg: &TrainConfig,
    ddp: &DdpConfig,
    res: &ResilienceConfig,
    obs: &Obs,
) -> DdpRunLog {
    assert!(ddp.replicas >= 1, "need at least one replica");
    assert!(
        ddp.replicas <= ddp.virtual_slots,
        "replicas ({}) must not exceed virtual slots ({})",
        ddp.replicas,
        ddp.virtual_slots
    );
    assert!(
        batcher.batch().is_multiple_of(ddp.virtual_slots),
        "global batch ({}) must divide by virtual slots ({})",
        batcher.batch(),
        ddp.virtual_slots
    );
    let trainable = model.params.iter().filter(|p| p.trainable).count();
    assert!(
        ddp.replicas <= trainable,
        "more replicas ({}) than trainable parameters ({trainable})",
        ddp.replicas
    );
    let mut slot_batcher = batcher.with_batch(batcher.batch() / ddp.virtual_slots);
    slot_batcher.set_cursor(batcher.cursor());
    let source = OptSource::PerParam(make_opt);
    pipeline::run(model, source, &mut slot_batcher, ddp, cfg, res, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tree_combine_is_a_fixed_pairwise_tree() {
        // Strings record the association: the tree must not depend on the
        // caller (only on the item count), and odd leftovers pass through.
        let combined = tree_combine(
            vec!["a".to_string(), "b".into(), "c".into(), "d".into()],
            |a, b| *a = format!("({a}+{b})"),
        );
        assert_eq!(combined, "((a+b)+(c+d))");
        let odd = tree_combine(vec!["a".to_string(), "b".into(), "c".into()], |a, b| {
            *a = format!("({a}+{b})")
        });
        assert_eq!(odd, "((a+b)+c)");
        assert_eq!(tree_combine(vec![7i64], |_, _| unreachable!()), 7);
    }

    #[test]
    fn slot_ranges_partition_exactly() {
        for n in 1..=4 {
            let total = 4;
            let mut covered = Vec::new();
            for pos in 0..n {
                covered.extend(slot_range(pos, n, total));
            }
            assert_eq!(covered, (0..total).collect::<Vec<_>>(), "n={n}");
        }
        // Uneven: 3 replicas over 4 slots.
        assert_eq!(slot_range(0, 3, 4), 0..1);
        assert_eq!(slot_range(1, 3, 4), 1..2);
        assert_eq!(slot_range(2, 3, 4), 2..4);
    }

    #[test]
    fn shard_ranges_cover_and_balance() {
        let elems = vec![100, 1, 1, 1, 100, 1, 50, 50];
        for shards in 1..=elems.len() {
            let ranges = shard_ranges(&elems, shards);
            assert_eq!(ranges.len(), shards);
            let mut covered = Vec::new();
            for r in &ranges {
                assert!(!r.is_empty(), "shards={shards}: empty shard {r:?}");
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..elems.len()).collect::<Vec<_>>());
        }
        // Balanced by elements, not count: the two heavy params split.
        let two = shard_ranges(&elems, 2);
        assert!(two[0].contains(&0) && !two[0].contains(&4));
    }

    #[test]
    fn poison_barrier_releases_waiters() {
        let barrier = PoisonBarrier::new(3);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| barrier.wait());
            let arriver = s.spawn(|| barrier.wait());
            // Give both a moment to block, then poison instead of arriving.
            std::thread::sleep(std::time::Duration::from_millis(20));
            barrier.poison();
            assert_eq!(waiter.join().unwrap(), Err(Poisoned));
            assert_eq!(arriver.join().unwrap(), Err(Poisoned));
        });
        assert_eq!(barrier.wait(), Err(Poisoned), "stays poisoned");
    }

    #[test]
    fn poison_barrier_synchronizes_generations() {
        let barrier = PoisonBarrier::new(2);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for round in 0..50 {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait().unwrap();
                        // Both must have bumped before anyone proceeds.
                        assert!(counter.load(Ordering::SeqCst) >= 2 * (round + 1));
                        barrier.wait().unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }
}
