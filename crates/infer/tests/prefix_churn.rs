//! Prefix-cache correctness under churn, at the scheduler level.
//!
//! The contract pinned here: serving with the radix-tree prefix cache
//! enabled — under eviction pressure, re-insertion, `CacheFull`
//! retirement, mid-stream cancellation, and mixed-adapter batches — is
//! **byte-identical** to serving the same requests cold, one at a time,
//! with the cache disabled. Eviction plus re-insertion must never serve
//! stale KV rows.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use apollo_infer::{GenConfig, GenRequest, GenResult, Outcome, SchedConfig, Scheduler, ServeStats};
use apollo_nn::{AdapterRegistry, DecodeBackend, LinearMode, LlamaModel, LoraAdapter, ModelConfig};
use apollo_obs::Obs;
use apollo_tensor::{Matrix, Rng};
use proptest::prelude::*;

/// A LoRA model with nonzero adapters (B is zero-initialized, so perturb it).
fn nonzero_lora(cfg: &ModelConfig, seed: u64) -> LlamaModel {
    let mut rng = Rng::seed_from_u64(seed);
    let mut model = LlamaModel::new(
        cfg,
        LinearMode::LoRa {
            rank: 2,
            alpha: 4.0,
        },
        &mut rng,
    );
    for p in &mut model.params {
        if p.name.ends_with(".lora_b") {
            p.value = Matrix::randn(p.value.rows(), p.value.cols(), &mut rng);
        }
    }
    model
}

/// The dense model a LoRA model decomposes over: `.base` backbones become
/// the dense weights; embedding, norms and head copy across by name.
fn dense_base_of(lora: &LlamaModel) -> LlamaModel {
    let mut rng = Rng::seed_from_u64(0);
    let mut dense = LlamaModel::new(lora.config(), LinearMode::Dense, &mut rng);
    for p in &mut dense.params {
        let base_name = format!("{}.base", p.name);
        let src = lora
            .params
            .iter()
            .find(|q| q.name == p.name || q.name == base_name)
            .unwrap_or_else(|| panic!("no LoRA source for {}", p.name));
        p.value = src.value.clone();
    }
    dense
}

/// Shared serving stack: one dense base model, three distinct resident
/// adapters (`t0..t2`), and the byte size of one exported KV row.
fn stack() -> &'static (Arc<LlamaModel>, Arc<AdapterRegistry>, usize) {
    static STACK: OnceLock<(Arc<LlamaModel>, Arc<AdapterRegistry>, usize)> = OnceLock::new();
    STACK.get_or_init(|| {
        let cfg = ModelConfig::test_tiny();
        let base = Arc::new(dense_base_of(&nonzero_lora(&cfg, 0xC0A)));
        let adapters: Vec<(String, LoraAdapter)> = (0..3u64)
            .map(|i| {
                let m = nonzero_lora(&cfg, 0xC0B + i);
                (format!("t{i}"), LoraAdapter::from_model(&m).unwrap())
            })
            .collect();
        let registry = Arc::new(AdapterRegistry::resident(adapters));
        let backend = DecodeBackend::from(Arc::clone(&base));
        let mut caches = backend.new_caches(1, 8);
        backend.forward_cached(&mut caches, &[(0, 1), (0, 2)]);
        let row_bytes = caches.export_rows(0, 0, 2).memory_bytes() / 2;
        assert!(row_bytes > 0);
        (base, registry, row_bytes)
    })
}

fn sched_cfg(prefix_cache_bytes: usize, max_active: usize, kv_capacity: usize) -> SchedConfig {
    SchedConfig {
        max_active,
        queue_cap: 64,
        prefill_chunk: 4,
        kv_capacity,
        prefix_cache_bytes,
    }
}

fn multi_scheduler(cfg: SchedConfig) -> Scheduler {
    let (model, registry, _) = stack();
    Scheduler::new_multi(
        Arc::clone(model),
        cfg,
        Obs::disabled(),
        Arc::clone(registry),
        Arc::new(ServeStats::default()),
    )
}

/// The cold reference: each request alone through a one-slot scheduler
/// with the prefix cache disabled.
fn serve_serially(reqs: &[GenRequest], kv_capacity: usize) -> Vec<(Vec<u32>, Outcome)> {
    reqs.iter()
        .map(|r| {
            let mut s = multi_scheduler(sched_cfg(0, 1, kv_capacity));
            s.submit(r.clone()).expect("serial submit fits");
            let res = s.run_to_completion();
            assert_eq!(res.len(), 1);
            (res[0].tokens.clone(), res[0].outcome)
        })
        .collect()
}

/// Asserts each result matches the cold reference for its request index.
fn assert_matches_cold(
    results: &[GenResult],
    ids: &[u64],
    cold: &[(Vec<u32>, Outcome)],
    what: &str,
) {
    assert_eq!(results.len(), cold.len(), "{what}: result count");
    for res in results {
        let idx = ids.iter().position(|&id| id == res.id).expect("known id");
        assert_eq!(
            res.tokens, cold[idx].0,
            "{what}: request {idx} tokens diverged from cold serving"
        );
        assert_eq!(res.outcome, cold[idx].1, "{what}: request {idx} outcome");
    }
}

/// A deterministic multi-tenant workload: `n_groups` shared prefixes,
/// `group_size` requests each, adapters and suffixes drawn from `salt`.
fn workload(salt: u64, n_groups: usize, group_size: usize, prefix_len: usize) -> Vec<GenRequest> {
    let (model, _, _) = stack();
    let vocab = model.config().vocab_size;
    let mut rng = Rng::seed_from_u64(salt);
    let prefixes: Vec<Vec<u32>> = (0..n_groups)
        .map(|_| (0..prefix_len).map(|_| rng.below(vocab) as u32).collect())
        .collect();
    let mut reqs = Vec::new();
    for (g, prefix) in prefixes.iter().enumerate() {
        for k in 0..group_size {
            let mut prompt = prefix.clone();
            let suffix_len = 1 + rng.below(4);
            prompt.extend((0..suffix_len).map(|_| rng.below(vocab) as u32));
            let adapter = match rng.below(4) {
                0 => None,
                a => Some(a as u32 - 1),
            };
            reqs.push(GenRequest {
                prompt,
                cfg: GenConfig {
                    max_new_tokens: 2 + k % 3,
                    temperature: if k % 2 == 0 { 0.0 } else { 0.8 },
                    top_k: 8,
                    top_p: 0.95,
                    seed: salt ^ ((g * 31 + k) as u64),
                    stop_token: None,
                },
                deadline: None,
                adapter,
            });
        }
    }
    reqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random multi-tenant workloads under a tight byte budget: the cache
    /// churns (evictions fire, arena slots are recycled, edges split), and
    /// every request — including a full second round over the same
    /// prompts, which re-inserts whatever was evicted — stays
    /// byte-identical to cold serving.
    #[test]
    fn churned_cache_serving_is_byte_identical_to_cold(
        salt in any::<u64>(),
        n_groups in 2usize..4,
        group_size in 2usize..4,
        prefix_len in 4usize..10,
        budget_rows in 4usize..24,
    ) {
        let (_, _, row_bytes) = stack();
        let reqs = workload(salt, n_groups, group_size, prefix_len);
        let kv = 32;
        let cold = serve_serially(&reqs, kv);

        let mut sched = multi_scheduler(sched_cfg(budget_rows * row_bytes, 3, kv));
        let stats = sched.stats();
        // Round 1: populate + churn. Round 2: hit what survived, re-insert
        // what was evicted — stale KV would surface here as divergence.
        for round in 0..2 {
            let ids: Vec<u64> = reqs
                .iter()
                .map(|r| sched.submit(r.clone()).expect("submit fits"))
                .collect();
            let results = sched.run_to_completion();
            assert_matches_cold(&results, &ids, &cold, &format!("round {round}"));
        }
        prop_assert_eq!(
            stats.prefix_lookups.load(Ordering::Relaxed),
            2 * reqs.len() as u64
        );
    }
}

#[test]
fn third_round_under_churn_hits_and_matches_cold() {
    // The proptest above sends each prompt twice; with second-sighting
    // admission a prompt that occurs once a round is a ghost after round 1
    // and gets KV only in round 2. A third round must hit what round 2
    // admitted, under eviction churn, and still match cold serving.
    let (_, _, row_bytes) = stack();
    let kv = 32;
    for salt in [3u64, 17, 29] {
        let reqs = workload(salt, 3, 3, 8);
        let cold = serve_serially(&reqs, kv);
        let mut sched = multi_scheduler(sched_cfg(32 * row_bytes, 3, kv));
        let stats = sched.stats();
        let mut hits_before = 0;
        for round in 0..3 {
            hits_before = stats.prefix_hits.load(Ordering::Relaxed);
            let ids: Vec<u64> = reqs
                .iter()
                .map(|r| sched.submit(r.clone()).expect("submit fits"))
                .collect();
            let results = sched.run_to_completion();
            assert_matches_cold(&results, &ids, &cold, &format!("salt {salt} round {round}"));
        }
        let hits = stats.prefix_hits.load(Ordering::Relaxed) - hits_before;
        assert!(hits > 0, "salt {salt}: round 3 made no prefix hit");
        assert!(
            stats.prefix_evictions.load(Ordering::Relaxed) > 0,
            "salt {salt}: the budget must churn"
        );
    }
}

#[test]
fn shared_prefix_hits_are_byte_identical_and_counted() {
    // Two requests per adapter key (3 adapters + base), all sharing one
    // 12-token system prefix, after one earlier sighting of it per key.
    // With 2 slots the first wave inserts each key's prefix before the
    // second wave admits, so the second wave must hit — and still match
    // cold serving bit for bit.
    let (model, _, _) = stack();
    let vocab = model.config().vocab_size;
    let mut rng = Rng::seed_from_u64(0x51A2);
    let prefix: Vec<u32> = (0..12).map(|_| rng.below(vocab) as u32).collect();
    let keys = [None, Some(0u32), Some(1), Some(2)];
    let reqs: Vec<GenRequest> = (0..8)
        .map(|i| {
            let mut prompt = prefix.clone();
            prompt.extend((0..2).map(|_| rng.below(vocab) as u32));
            GenRequest {
                prompt,
                cfg: GenConfig {
                    max_new_tokens: 4,
                    temperature: 0.7,
                    seed: 0x1000 + i as u64,
                    ..GenConfig::default()
                },
                deadline: None,
                adapter: keys[i % keys.len()],
            }
        })
        .collect();
    let kv = 32;
    let cold = serve_serially(&reqs, kv);

    let mut sched = multi_scheduler(sched_cfg(1 << 20, 2, kv));
    let stats = sched.stats();
    // The first sighting: the prefix is remembered, its KV is not kept.
    for adapter in keys {
        let mut prompt = prefix.clone();
        prompt.push(rng.below(vocab) as u32);
        let cfg = GenConfig {
            max_new_tokens: 1,
            ..GenConfig::default()
        };
        let deadline = None;
        sched
            .submit(GenRequest {
                prompt,
                cfg,
                deadline,
                adapter,
            })
            .expect("submit fits");
    }
    sched.run_to_completion();
    let ids: Vec<u64> = reqs
        .iter()
        .map(|r| sched.submit(r.clone()).expect("submit fits"))
        .collect();
    let results = sched.run_to_completion();
    assert_matches_cold(&results, &ids, &cold, "shared prefix");
    let hits = stats.prefix_hits.load(Ordering::Relaxed);
    assert!(
        hits >= 4,
        "second wave must hit its key's prefix, got {hits}"
    );
    assert!(stats.prefix_hit_tokens.load(Ordering::Relaxed) >= 4 * 12);
    assert!(stats.hit_rate() > 0.0);
}

#[test]
fn mixed_adapter_tick_matches_serial_per_adapter() {
    // One scheduler tick batching 3 adapters + the base model must give
    // each request the tokens it gets served alone (row independence).
    let (model, _, _) = stack();
    let vocab = model.config().vocab_size;
    let mut rng = Rng::seed_from_u64(0x311C);
    let reqs: Vec<GenRequest> = [None, Some(0u32), Some(1), Some(2)]
        .into_iter()
        .enumerate()
        .map(|(i, adapter)| GenRequest {
            prompt: (0..6).map(|_| rng.below(vocab) as u32).collect(),
            cfg: GenConfig {
                max_new_tokens: 8,
                temperature: 0.6,
                seed: 0x2000 + i as u64,
                ..GenConfig::default()
            },
            deadline: None,
            adapter,
        })
        .collect();
    let kv = 32;
    let cold = serve_serially(&reqs, kv);

    let mut sched = multi_scheduler(sched_cfg(0, 4, kv));
    let ids: Vec<u64> = reqs
        .iter()
        .map(|r| sched.submit(r.clone()).expect("submit fits"))
        .collect();
    let mut results = Vec::new();
    let mut max_active = 0;
    while !sched.is_idle() {
        sched.tick();
        max_active = max_active.max(sched.active());
        results.extend(sched.take_finished());
    }
    assert_eq!(
        max_active, 4,
        "all four adapters must decode in the same ticks"
    );
    assert_matches_cold(&results, &ids, &cold, "mixed adapters");
}

#[test]
fn cache_full_retirement_matches_cold_and_prefix_still_serves() {
    // A sequence that fills its slot retires CacheFull with the same
    // partial output as cold serving, its lease is returned, and the
    // prefix it left behind still serves later requests exactly.
    let (model, _, _) = stack();
    let vocab = model.config().vocab_size;
    let mut rng = Rng::seed_from_u64(0xCAFE);
    let prompt: Vec<u32> = (0..8).map(|_| rng.below(vocab) as u32).collect();
    let kv = 12; // prompt 8 + a handful of decode rows, far short of 32
    let overflow = GenRequest {
        prompt: prompt.clone(),
        cfg: GenConfig {
            max_new_tokens: 32,
            temperature: 0.5,
            seed: 0x3000,
            ..GenConfig::default()
        },
        deadline: None,
        adapter: Some(1),
    };
    let follow = GenRequest {
        prompt: prompt.clone(),
        cfg: GenConfig {
            max_new_tokens: 3,
            temperature: 0.0,
            seed: 0x3001,
            ..GenConfig::default()
        },
        deadline: None,
        adapter: Some(1),
    };
    let cold = serve_serially(std::slice::from_ref(&overflow), kv);
    assert_eq!(cold[0].1, Outcome::CacheFull, "reference must overflow");
    let cold_follow = serve_serially(std::slice::from_ref(&follow), kv);

    let mut sched = multi_scheduler(sched_cfg(1 << 20, 2, kv));
    let stats = sched.stats();
    // The first sighting of the prompt, so that the overflowing request's
    // insertion keeps its KV.
    sched.submit(follow.clone()).expect("submit fits");
    sched.run_to_completion();
    let id0 = sched.submit(overflow).expect("submit fits");
    let res = sched.run_to_completion();
    assert_matches_cold(&res, &[id0], &cold, "cache-full");

    let id1 = sched.submit(follow).expect("submit fits");
    let res = sched.run_to_completion();
    assert_matches_cold(&res, &[id1], &cold_follow, "post-overflow hit");
    assert_eq!(stats.prefix_hits.load(Ordering::Relaxed), 1);
}

#[test]
fn cancel_mid_stream_leaves_cache_and_neighbors_intact() {
    // Cancelling one of two prefix-sharing requests mid-decode must not
    // disturb the survivor, and the shared prefix must keep serving
    // (the cancelled request's lease is released at retirement).
    let (model, _, _) = stack();
    let vocab = model.config().vocab_size;
    let mut rng = Rng::seed_from_u64(0xD15C);
    let prefix: Vec<u32> = (0..10).map(|_| rng.below(vocab) as u32).collect();
    let req = |suffix: u32, seed: u64| GenRequest {
        prompt: prefix.iter().copied().chain([suffix]).collect(),
        cfg: GenConfig {
            max_new_tokens: 10,
            temperature: 0.9,
            seed,
            ..GenConfig::default()
        },
        deadline: None,
        adapter: Some(2),
    };
    let victim = req(1, 0x4000);
    let survivor = req(2, 0x4001);
    let later = req(3, 0x4002);
    let kv = 32;
    let cold = serve_serially(&[survivor.clone(), later.clone()], kv);

    let mut sched = multi_scheduler(sched_cfg(1 << 20, 2, kv));
    let stats = sched.stats();
    let victim_id = sched.submit(victim).expect("submit fits");
    let survivor_id = sched.submit(survivor).expect("submit fits");
    for _ in 0..4 {
        sched.tick();
    }
    assert!(sched.cancel(victim_id), "victim is in flight");
    let mut results = sched.run_to_completion();
    let vpos = results
        .iter()
        .position(|r| r.id == victim_id)
        .expect("victim retires");
    assert_eq!(results.remove(vpos).outcome, Outcome::Cancelled);
    assert_matches_cold(&results, &[survivor_id], &cold[..1], "survivor");

    let later_id = sched.submit(later).expect("submit fits");
    let results = sched.run_to_completion();
    assert_matches_cold(&results, &[later_id], &cold[1..], "after cancel");
    assert!(stats.prefix_hits.load(Ordering::Relaxed) >= 1);
}

#[test]
fn stats_report_churn_evictions_and_kv_usage() {
    // Under a one-prompt budget, alternating disjoint prompts must evict
    // and the shared stats must say so. Each prompt is sent twice: only a
    // second sighting gives it KV.
    let (model, _, row_bytes) = stack();
    let row_bytes = *row_bytes;
    let vocab = model.config().vocab_size;
    let mut rng = Rng::seed_from_u64(0x57A7);
    let kv = 32;
    let mut sched = multi_scheduler(sched_cfg(10 * row_bytes, 1, kv));
    let stats = sched.stats();
    for i in 0..6u64 {
        let prompt: Vec<u32> = (0..9).map(|_| rng.below(vocab) as u32).collect();
        for _ in 0..2 {
            sched
                .submit(GenRequest {
                    prompt: prompt.clone(),
                    cfg: GenConfig {
                        max_new_tokens: 2,
                        temperature: 0.0,
                        seed: i,
                        ..GenConfig::default()
                    },
                    deadline: None,
                    adapter: None,
                })
                .expect("submit fits");
            sched.run_to_completion();
        }
    }
    assert_eq!(stats.prefix_lookups.load(Ordering::Relaxed), 2 * 6);
    assert!(
        stats.prefix_evictions.load(Ordering::Relaxed) >= 1,
        "disjoint prompts past the budget must evict"
    );
    assert!(stats.prefix_cached_bytes.load(Ordering::Relaxed) <= 10 * row_bytes as u64);
    // Cold rows + cached rows cover every prompt token exactly once.
    let covered = stats.prefill_tokens.load(Ordering::Relaxed)
        + stats.prefix_hit_tokens.load(Ordering::Relaxed);
    assert!(covered >= 6 * 9, "prompt coverage {covered} < 54");
    assert_eq!(stats.adapters_registered.load(Ordering::Relaxed), 3);
}
