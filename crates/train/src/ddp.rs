//! Deterministic data-parallel pre-training with ZeRO-style
//! optimizer-state sharding: the entry point [`pretrain_ddp`] and the
//! mechanics the one training loop (`crate::pipeline`) runs its parallel
//! parts on — fork-join on scoped threads, the slot and shard partitions,
//! the fixed combine tree and the per-parameter optimizer factory.
//!
//! Data parallelism is *modelled* on one process: one loop on the caller's
//! thread holds the one model, and only two parts of a step fan out, each
//! inside its own `std::thread::scope` — the slots' forward and backward
//! passes against the shared `&LlamaModel`, and the per-parameter optimizer
//! steps on disjoint shards. A worker that panics ends the scope, and the
//! run, with it.
//!
//! # Replica-count invariance
//!
//! The global batch is decomposed into `virtual_slots` fixed micro-batches
//! ("slots"). Slot `s` at step `k` always draws the same corpus streams
//! (cursor `1 + (k·V + s)·slot_batch`), its loss and gradients are computed
//! by exactly one worker, and the per-parameter gradients are combined by
//! a **fixed pairwise binary tree over slots** — `((g0+g1)+(g2+g3))` for
//! `V = 4` — then scaled by `1/V`. Replica count only changes *which
//! worker computes which slots and steps which parameters*, never the
//! operands or the reduction order, so losses and weights are bit-identical
//! at any replica count. This is the same float-op-order contract the
//! matmul pool honors for thread-count invariance, lifted to the replica
//! level.
//!
//! # ZeRO-style state sharding
//!
//! Optimizer state is built as one optimizer instance **per parameter**
//! (the [`OptimizerFactory`] receives the global parameter index, so
//! position-derived projector seeds stay stable under any sharding). Each
//! worker steps a contiguous shard of parameters, balanced by element
//! count. States are serialized (via
//! [`apollo_optim::Optimizer::state_save`]) only at checkpoint time, one
//! checkpoint section per parameter, so a checkpoint written at one replica
//! count resumes at any other.

use std::ops::Range;

use crate::pipeline::{self, OptSource};
use crate::resilience::ResilienceConfig;
use crate::trainer::{RunLog, TrainConfig};
use apollo_data::LmBatcher;
use apollo_nn::LlamaModel;
use apollo_obs::Obs;
use apollo_optim::Optimizer;
use apollo_tensor::ThreadOverrideGuard;

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
    /// Replica count: the workers a step's slots and optimizer shards fan
    /// out to, each at one kernel thread.
    pub replicas: usize,
    /// Fixed virtual-slot count `V`. The global batch must divide by it,
    /// and `replicas` must not exceed it. Runs with the same `V` are
    /// bit-identical at any replica count; changing `V` changes the
    /// micro-batch decomposition and therefore the arithmetic.
    pub virtual_slots: usize,
}

impl DdpConfig {
    /// `replicas` replicas over the default 4 virtual slots (widened to
    /// `replicas` when it is larger).
    pub fn new(replicas: usize) -> Self {
        DdpConfig {
            replicas,
            virtual_slots: 4.max(replicas),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic partitions and reductions.

/// Runs `work` on every item: the first on the caller's thread, each other
/// on a scoped thread of its own. With more than one item every worker,
/// the caller's item included, runs at one kernel thread; one item spawns
/// nothing and pins nothing. Returns the results in item order. A worker's
/// panic is re-raised here once every worker has stopped.
pub(crate) fn fork_join<I: Send, T: Send>(items: Vec<I>, work: impl Fn(I) -> T + Sync) -> Vec<T> {
    let mut items = items.into_iter();
    let first = items.next().expect("fork_join needs an item");
    if items.len() == 0 {
        return vec![work(first)];
    }
    let pinned = |item| {
        let _one_thread = ThreadOverrideGuard::new(1);
        work(item)
    };
    let pinned = &pinned;
    std::thread::scope(|s| {
        let spawned: Vec<_> = items.map(|item| s.spawn(move || pinned(item))).collect();
        let mut out = vec![pinned(first)];
        let joined = spawned.into_iter().map(|h| h.join());
        out.extend(joined.map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e))));
        out
    })
}

/// Contiguous slot range computed by worker `pos` of `n`.
pub(crate) fn slot_range(pos: usize, n: usize, total: usize) -> Range<usize> {
    pos * total / n..(pos + 1) * total / n
}

/// Contiguous per-worker parameter shards, balanced by element count.
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
/// only on `items.len()`, never on which worker computed them — the
/// replica-invariance contract.
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
/// This is the training loop of [`crate::pretrain_observed`], run on the
/// caller's thread with slots and optimizer shards fanned out to
/// `ddp.replicas` workers: every `cfg` and `res` feature works here as it
/// does there, at any replica count — clipping, INT8 weight round-trips,
/// ReLoRA merges, sentinels and recovery policies, crash-safe (sharded)
/// checkpoints and every fault kind. `cfg.grad_accum = A` makes a step
/// `V·A` slots of `batch / V` sequences (`A` global batches), combined by
/// the one tree.
///
/// # Panics
///
/// Panics if `cfg.steps == 0`, the global batch does not divide by
/// `virtual_slots`, `replicas` exceeds `virtual_slots` or the trainable
/// parameter count, or a worker panics.
pub fn pretrain_ddp(
    model: &mut LlamaModel,
    make_opt: &OptimizerFactory,
    batcher: &LmBatcher,
    cfg: &TrainConfig,
    ddp: &DdpConfig,
    res: &ResilienceConfig,
    obs: &Obs,
) -> RunLog {
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
    fn fork_join_keeps_item_order_and_re_raises_a_worker_panic() {
        let caller = std::thread::current().id();
        let on_caller = |i: usize| (i, std::thread::current().id() == caller);
        assert_eq!(fork_join(vec![7], on_caller), [(7, true)]);
        let out = fork_join(vec![0, 1, 2], on_caller);
        assert_eq!(out, [(0, true), (1, false), (2, false)]);
        // The worker's own panic, not the scope's generic one.
        let failed = std::panic::catch_unwind(|| {
            fork_join(vec![0, 1], |i| assert_eq!(i, 0, "worker {i} failed"));
        });
        let payload = failed.expect_err("a worker panicked");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("worker 1 failed"), "{message}");
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
}
