//! The continuous-batching scheduler.
//!
//! A fixed number of *slots* hold in-flight sequences, each with its own
//! reusable [`KvCache`]. Every [`Scheduler::tick`] admits queued requests
//! into free slots and runs one batched pass through
//! [`LlamaModel::forward_cached`]: one row per decoding sequence plus at
//! most `prefill_chunk` prompt rows in all, handed to prefilling sequences
//! oldest admission first. Decoding sequences therefore get a token every
//! tick however long the prompts behind them are, and the prompt rows
//! bound what a tick costs (stall-free batching, Sarathi-Serve). The tick
//! then samples with each request's own [`Rng`], retires finished
//! sequences, and back-fills the freed slots on the next tick.
//!
//! Because every row of the batched forward is bit-identical to the same
//! row computed alone, and sampling state is per-request, the tokens a
//! request receives are byte-identical to running it serially through
//! [`crate::engine::generate`] — regardless of what else shares the batch.
//! `tests/scheduler.rs` pins this.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apollo_nn::{AdapterRegistry, DecodeBackend, DecodeCaches, LoraAdapter};
use apollo_obs::{Obs, TraceEvent};
use apollo_tensor::Rng;

use crate::prefix::{PrefixCache, PrefixLease};
use crate::sample::{sample, GenConfig};
use crate::stats::ServeStats;

/// Scheduler sizing and batching policy.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Number of slots (sequences decoded concurrently).
    pub max_active: usize,
    /// Bound of the admission queue; [`Scheduler::submit`] rejects beyond it.
    pub queue_cap: usize,
    /// Maximum prompt rows one tick prefills, summed over every prefilling
    /// sequence. They share the tick's pass with every decoding sequence's
    /// row, so this caps the latency prompts can impose on sequences
    /// already decoding.
    pub prefill_chunk: usize,
    /// KV capacity per slot (longest prompt + generation it can hold).
    pub kv_capacity: usize,
    /// Byte budget of the radix-tree prefix cache; 0 disables prefix
    /// caching (every request prefills cold, the pre-existing behavior).
    pub prefix_cache_bytes: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            max_active: 4,
            queue_cap: 64,
            prefill_chunk: 16,
            kv_capacity: 512,
            prefix_cache_bytes: 0,
        }
    }
}

/// One generation request.
#[derive(Debug, Clone, Default)]
pub struct GenRequest {
    /// Prompt token ids (must be non-empty and fit the slot KV capacity
    /// together with `cfg.max_new_tokens`).
    pub prompt: Vec<u32>,
    /// Sampling and stopping settings.
    pub cfg: GenConfig,
    /// Optional SLO deadline measured from submission. A request still
    /// queued past it retires with [`Outcome::Deadline`] and no tokens; a
    /// sequence still running past it retires with its partial output.
    pub deadline: Option<Duration>,
    /// Adapter id (from [`AdapterRegistry::id`]) whose LoRA delta decodes
    /// this request; `None` serves the shared base model.
    pub adapter: Option<u32>,
}

/// Why a request retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Generated `max_new_tokens`.
    Done,
    /// Emitted the configured stop token.
    StopToken,
    /// Exceeded its deadline.
    Deadline,
    /// Filled its slot's KV cache before finishing.
    CacheFull,
    /// Cancelled by the submitter (e.g. the client disconnected).
    Cancelled,
}

impl Outcome {
    /// Stable label used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Done => "done",
            Outcome::StopToken => "stop_token",
            Outcome::Deadline => "deadline",
            Outcome::CacheFull => "cache_full",
            Outcome::Cancelled => "cancelled",
        }
    }
}

/// A retired request's output.
#[derive(Debug, Clone)]
pub struct GenResult {
    /// Id returned by [`Scheduler::submit`] (admission order).
    pub id: u64,
    /// Generated tokens (may be partial for deadline/cache retirement).
    pub tokens: Vec<u32>,
    /// Why the request retired.
    pub outcome: Outcome,
}

/// Rejection reasons for [`Scheduler::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at `queue_cap`.
    QueueFull,
    /// The prompt alone exceeds the per-slot KV capacity.
    PromptTooLong,
    /// The prompt is empty.
    EmptyPrompt,
    /// The request names an adapter id the registry does not know.
    UnknownAdapter,
}

impl SubmitError {
    /// Stable label used in rejection counters and trace events.
    pub fn label(self) -> &'static str {
        match self {
            SubmitError::QueueFull => "queue_full",
            SubmitError::PromptTooLong => "prompt_too_long",
            SubmitError::EmptyPrompt => "empty_prompt",
            SubmitError::UnknownAdapter => "unknown_adapter",
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue full"),
            SubmitError::PromptTooLong => write!(f, "prompt exceeds KV capacity"),
            SubmitError::EmptyPrompt => write!(f, "empty prompt"),
            SubmitError::UnknownAdapter => write!(f, "unknown adapter"),
        }
    }
}

/// The one admission rule: refuses a request that could never run in a
/// slot of `kv_capacity` rows over `adapters`. [`Scheduler::submit`] adds
/// the queue bound to it, and [`crate::Server::submit`] the drain check and
/// the channel bound, so the worker behind a server never sees a refusal.
pub(crate) fn admission(
    req: &GenRequest,
    kv_capacity: usize,
    adapters: &AdapterRegistry,
) -> Result<(), SubmitError> {
    if req.prompt.is_empty() {
        Err(SubmitError::EmptyPrompt)
    } else if req.prompt.len() > kv_capacity {
        Err(SubmitError::PromptTooLong)
    } else if req.adapter.is_some_and(|id| id as usize >= adapters.len()) {
        Err(SubmitError::UnknownAdapter)
    } else {
        Ok(())
    }
}

/// Counts a submit rejection under `infer.rejected.{label}` and emits a
/// `Sentinel` trace event. Shared by [`Scheduler::submit`] and
/// [`crate::Server::submit`], so every rejection is visible no matter
/// where it was decided.
pub(crate) fn observe_rejection(obs: &Obs, err: SubmitError) {
    let kind = err.label();
    obs.counter(&format!("infer.rejected.{kind}"), 1);
    let step = obs.step();
    obs.emit(|| TraceEvent::Sentinel {
        step,
        kind: format!("submit_rejected.{kind}"),
        action: "rejected".to_string(),
    });
}

/// A queued, not-yet-admitted request.
struct Pending {
    id: u64,
    req: GenRequest,
    submitted: Instant,
}

/// An in-flight sequence occupying a slot.
struct Active {
    id: u64,
    prompt: Vec<u32>,
    cfg: GenConfig,
    deadline: Option<Duration>,
    /// When the request entered the queue; deadlines count from here.
    submitted: Instant,
    admitted: Instant,
    /// Prompt tokens in the cache so far (cached-prefix rows count as fed).
    fed: usize,
    /// Sampled tokens; the last one is the next decode input.
    generated: Vec<u32>,
    rng: Rng,
    /// The resolved adapter (id kept for the prefix-cache key). The `Arc`
    /// pins the weights: registry eviction can drop its own reference but
    /// never the copy a running sequence decodes with.
    adapter: Option<(u32, Arc<LoraAdapter>)>,
    /// Prefix-cache lease held until retirement (eviction guard).
    lease: Option<PrefixLease>,
    /// Set when the sequence finished this tick.
    outcome: Option<Outcome>,
}

impl Active {
    fn prefilling(&self) -> bool {
        self.fed < self.prompt.len()
    }
}

/// Deterministic continuous-batching core. Single-threaded: the caller
/// drives it by calling [`Scheduler::tick`] (the threaded [`crate::Server`]
/// wraps it in a worker loop).
pub struct Scheduler {
    backend: DecodeBackend,
    cfg: SchedConfig,
    obs: Obs,
    queue: VecDeque<Pending>,
    slots: Vec<Option<Active>>,
    caches: DecodeCaches,
    registry: Arc<AdapterRegistry>,
    prefix: PrefixCache,
    stats: Arc<ServeStats>,
    finished: Vec<GenResult>,
    /// Tokens sampled since the last [`Scheduler::take_progress`] call,
    /// in sampling order — the feed for chunked response streaming.
    progress: Vec<(u64, u32)>,
    /// Lookup count at the last `PrefixCache` trace emission.
    prefix_traced_at: u64,
    tick: usize,
    next_id: u64,
}

impl Scheduler {
    /// Creates a scheduler with one KV cache per slot. Accepts anything
    /// convertible to a [`DecodeBackend`] — an `Arc<LlamaModel>` for exact
    /// decode (all pre-existing call sites) or an `Arc<QuantizedModel>`
    /// for the INT8 fast path. Single-tenant: no adapters.
    pub fn new(model: impl Into<DecodeBackend>, cfg: SchedConfig, obs: Obs) -> Self {
        Self::new_multi(
            model,
            cfg,
            obs,
            Arc::new(AdapterRegistry::empty()),
            Arc::new(ServeStats::default()),
        )
    }

    /// [`Scheduler::new`] with multi-tenant routing: requests may name any
    /// adapter registered in `registry`, and serving counters land in
    /// `stats` for the `/stats` endpoint.
    ///
    /// # Panics
    ///
    /// Panics on a non-empty registry over an INT8 backend (quantized
    /// weights fold the projections, so there is no base/delta split), or
    /// on the [`Scheduler::new`] sizing conditions.
    pub fn new_multi(
        model: impl Into<DecodeBackend>,
        cfg: SchedConfig,
        obs: Obs,
        registry: Arc<AdapterRegistry>,
        stats: Arc<ServeStats>,
    ) -> Self {
        assert!(cfg.max_active > 0, "scheduler needs at least one slot");
        assert!(cfg.prefill_chunk > 0, "prefill_chunk must be positive");
        let backend = model.into();
        assert!(
            registry.is_empty() || matches!(backend, DecodeBackend::Exact(_)),
            "adapters require the exact decode backend"
        );
        let caches = backend.new_caches(cfg.max_active, cfg.kv_capacity);
        // Resident-memory gauges: weights are shared across slots, the KV
        // pool scales with `max_active × kv_capacity`. Emitted once — both
        // are fixed for the scheduler's lifetime.
        obs.gauge("infer.mem.weight_bytes", backend.weight_bytes() as f64);
        obs.gauge("infer.mem.kv_bytes", caches.memory_bytes() as f64);
        ServeStats::set(&stats.adapters_registered, registry.len() as u64);
        let prefix = PrefixCache::new(cfg.prefix_cache_bytes);
        Scheduler {
            backend,
            slots: (0..cfg.max_active).map(|_| None).collect(),
            caches,
            cfg,
            obs,
            registry,
            prefix,
            stats,
            queue: VecDeque::new(),
            finished: Vec::new(),
            progress: Vec::new(),
            prefix_traced_at: 0,
            tick: 0,
            next_id: 0,
        }
    }

    /// The shared serving-stats sink (for the frontend's `/stats`).
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// The adapter registry requests route against.
    pub fn registry(&self) -> Arc<AdapterRegistry> {
        Arc::clone(&self.registry)
    }

    /// Enqueues a request, returning its id, or rejects it without side
    /// effects when the queue is full or the request cannot ever fit.
    ///
    /// # Errors
    ///
    /// [`SubmitError::EmptyPrompt`] / [`SubmitError::PromptTooLong`] /
    /// [`SubmitError::UnknownAdapter`] for requests that could never run,
    /// then [`SubmitError::QueueFull`] at `queue_cap` pending requests.
    /// Every rejection is counted under `infer.rejected.*` and traced.
    pub fn submit(&mut self, req: GenRequest) -> Result<u64, SubmitError> {
        let full = self.queue.len() >= self.cfg.queue_cap;
        admission(&req, self.cfg.kv_capacity, &self.registry)
            .and(if full {
                Err(SubmitError::QueueFull)
            } else {
                Ok(())
            })
            .inspect_err(|&err| observe_rejection(&self.obs, err))?;
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Pending {
            id,
            req,
            submitted: Instant::now(),
        });
        Ok(id)
    }

    /// Cancels a request by id: a queued request retires immediately, an
    /// in-flight one retires on the next tick — either way the slot (or
    /// queue position) is reclaimed and a [`GenResult`] with
    /// [`Outcome::Cancelled`] and the tokens generated so far is produced.
    /// Returns `false` when the id is unknown or already retired.
    pub fn cancel(&mut self, id: u64) -> bool {
        if let Some(pos) = self.queue.iter().position(|p| p.id == id) {
            let pending = self.queue.remove(pos).expect("position is in bounds");
            self.finish(
                pending.id,
                pending.req.prompt.len(),
                Vec::new(),
                0.0,
                Outcome::Cancelled,
            );
            return true;
        }
        for act in self.slots.iter_mut().flatten() {
            if act.id == id && act.outcome.is_none() {
                act.outcome = Some(Outcome::Cancelled);
                return true;
            }
        }
        false
    }

    /// Pending (not yet admitted) request count.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Sequences currently occupying slots.
    pub fn active(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no work remains (no queued or in-flight sequences).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active() == 0
    }

    /// Takes every result retired since the last call, in retirement order.
    pub fn take_finished(&mut self) -> Vec<GenResult> {
        std::mem::take(&mut self.finished)
    }

    /// Takes every `(request id, token)` sampled since the last call, in
    /// sampling order. Streaming callers drain this after each tick; batch
    /// callers can ignore it (the buffer is cleared on retirement anyway
    /// via this call or the next).
    pub fn take_progress(&mut self) -> Vec<(u64, u32)> {
        std::mem::take(&mut self.progress)
    }

    /// Runs one scheduling step: admit → one forward pass → sample →
    /// retire. Returns how many results retired this tick.
    ///
    /// The pass carries one row for every decoding slot and at most
    /// `prefill_chunk` prompt rows in all, handed to prefilling slots in
    /// admission order (lowest id first). A slot whose prompt the pass
    /// completes samples its first token from it and decodes from the next
    /// tick on.
    pub fn tick(&mut self) -> usize {
        let t0 = Instant::now();
        let retired_before = self.finished.len();
        self.expire_queued();
        self.admit();
        self.expire_deadlines();

        // --- one bounded pass ------------------------------------------------
        let mut rows: Vec<(usize, u32)> = Vec::new();
        let mut ads: Vec<Option<Arc<LoraAdapter>>> = Vec::new();
        // (slot, row): the pass row whose logits each sampling slot reads.
        let mut sampled: Vec<(usize, usize)> = Vec::new();
        // Slots whose prompt this pass completes.
        let mut completed: Vec<usize> = Vec::new();
        let mut budget = self.cfg.prefill_chunk;
        let mut order: Vec<(u64, usize)> = (self.slots.iter().enumerate())
            .filter_map(|(slot, act)| Some((act.as_ref()?.id, slot)))
            .collect();
        order.sort_unstable();
        for (_, slot) in order {
            let act = self.slots[slot].as_mut().expect("an occupied slot");
            if act.outcome.is_some() {
                continue;
            }
            let ad = act.adapter.as_ref().map(|(_, a)| Arc::clone(a));
            if act.prefilling() {
                let take = budget.min(act.prompt.len() - act.fed);
                budget -= take;
                let toks = &act.prompt[act.fed..act.fed + take];
                rows.extend(toks.iter().map(|&tok| (slot, tok)));
                ads.extend(std::iter::repeat_n(ad, take));
                act.fed += take;
                if act.prefilling() {
                    continue; // no logits before the prompt's last row
                }
                completed.push(slot);
            } else if self.caches.remaining(slot) == 0 {
                continue; // retired as CacheFull below
            } else {
                let last = act.generated.last().expect("a decoding slot has sampled");
                rows.push((slot, *last));
                ads.push(ad);
            }
            sampled.push((slot, rows.len() - 1));
        }
        let n_prefill = self.cfg.prefill_chunk - budget;
        let n_decode = rows.len() - n_prefill;
        let p0 = Instant::now();
        if !rows.is_empty() {
            let ads: Vec<Option<&LoraAdapter>> = ads.iter().map(|a| a.as_deref()).collect();
            let hidden = self
                .backend
                .forward_cached_with(&mut self.caches, &rows, &ads);
            // Completed prompts feed the prefix cache before decode can
            // extend their slots (cache rows `0..prompt.len()` are exactly
            // the prompt's KV at this point).
            let evictions_before = self.prefix.eviction_count();
            let admissions_before = self.prefix.admission_count();
            for &slot in &completed {
                let act = self.slots[slot].as_ref().expect("completing slot");
                let key = act.adapter.as_ref().map(|(aid, _)| *aid);
                let caches = &self.caches;
                self.prefix
                    .insert(key, &act.prompt, |lo, hi| caches.export_rows(slot, lo, hi));
            }
            let evicted = self.prefix.eviction_count() - evictions_before;
            if evicted > 0 {
                self.obs.counter("infer.prefix.evictions", evicted);
            }
            let admitted = self.prefix.admission_count() - admissions_before;
            if admitted > 0 {
                self.obs.counter("infer.prefix.admissions", admitted);
            }
            let rows: Vec<usize> = sampled.iter().map(|&(_, r)| r).collect();
            let picked = hidden.gather_rows(&rows);
            let logits = self.backend.lm_logits(&picked);
            for (i, &(slot, _)) in sampled.iter().enumerate() {
                self.sample_into_slot(slot, logits.row(i));
            }
        }
        let pass_ms = ms_since(p0);
        let (prefill_ms, decode_ms) = if n_prefill > 0 {
            (pass_ms, 0.0)
        } else {
            (0.0, pass_ms)
        };

        self.retire();
        let retired = self.finished.len() - retired_before;

        self.tick += 1;
        self.obs.set_step(self.tick);
        self.obs.counter("infer.prefill_tokens", n_prefill as u64);
        self.obs.counter("infer.decode_tokens", n_decode as u64);
        self.obs.gauge("infer.queue_depth", self.queue.len() as f64);
        self.obs.gauge("infer.active", self.active() as f64);
        let (tick, queue_depth, active) = (self.tick, self.queue.len(), self.active());
        self.obs.emit(|| TraceEvent::InferStep {
            step: tick,
            prefill_rows: n_prefill,
            decode_rows: n_decode,
            queue_depth,
            active,
            prefill_ms,
            decode_ms,
            total_ms: ms_since(t0),
        });
        self.publish_stats(n_prefill as u64, n_decode as u64, prefill_ms);
        retired
    }

    /// Mirrors the tick's numbers into the shared [`ServeStats`] and, when
    /// prefix-cache activity happened since the last emission, a
    /// `PrefixCache` trace event.
    fn publish_stats(&mut self, prefill: u64, decode: u64, prefill_ms: f32) {
        use std::sync::atomic::Ordering;
        let s = &self.stats;
        s.prefill_tokens.fetch_add(prefill, Ordering::Relaxed);
        s.decode_tokens.fetch_add(decode, Ordering::Relaxed);
        s.prefill_us
            .fetch_add((f64::from(prefill_ms) * 1e3) as u64, Ordering::Relaxed);
        ServeStats::set(&s.kv_used_bytes, self.caches.used_bytes() as u64);
        ServeStats::set(&s.prefix_lookups, self.prefix.lookup_count());
        ServeStats::set(&s.prefix_hits, self.prefix.hit_count());
        ServeStats::set(&s.prefix_hit_tokens, self.prefix.hit_token_count());
        ServeStats::set(&s.prefix_cached_bytes, self.prefix.bytes() as u64);
        ServeStats::set(&s.prefix_nodes, self.prefix.node_count() as u64);
        ServeStats::set(&s.prefix_evictions, self.prefix.eviction_count());
        ServeStats::set(&s.prefix_ghost_bytes, self.prefix.ghost_bytes() as u64);
        ServeStats::set(&s.prefix_admissions, self.prefix.admission_count());
        ServeStats::set(&s.adapters_registered, self.registry.len() as u64);
        ServeStats::set(&s.adapters_resident, self.registry.resident_count() as u64);
        ServeStats::set(&s.adapter_loads, self.registry.load_count());
        ServeStats::set(&s.adapter_evictions, self.registry.eviction_count());
        self.obs
            .gauge("infer.prefix.cached_bytes", self.prefix.bytes() as f64);
        self.obs
            .gauge("infer.prefix.ghost_bytes", self.prefix.ghost_bytes() as f64);
        if self.prefix.enabled() && self.prefix.lookup_count() != self.prefix_traced_at {
            self.prefix_traced_at = self.prefix.lookup_count();
            let (step, lookups, hits) = (
                self.tick,
                self.prefix.lookup_count(),
                self.prefix.hit_count(),
            );
            let (hit_tokens, cached_bytes) = (self.prefix.hit_token_count(), self.prefix.bytes());
            let (nodes, evictions) = (self.prefix.node_count(), self.prefix.eviction_count());
            self.obs.emit(|| TraceEvent::PrefixCache {
                step,
                lookups,
                hits,
                hit_tokens,
                cached_bytes,
                nodes,
                evictions,
            });
        }
    }

    /// Runs ticks until all queued and in-flight work retires, returning
    /// every result. Intended for tests and batch (non-server) use.
    pub fn run_to_completion(&mut self) -> Vec<GenResult> {
        let mut out = Vec::new();
        while !self.is_idle() {
            self.tick();
            self.progress.clear(); // batch callers don't stream
            out.append(&mut self.finished);
        }
        out
    }

    /// Moves queued requests into free slots: resolves the adapter, runs
    /// the prefix-cache lookup, and appends any cached KV rows so the
    /// tick only prefills the unmatched suffix.
    fn admit(&mut self) {
        for slot in 0..self.slots.len() {
            if self.slots[slot].is_some() {
                continue;
            }
            // Pop until a request admits; a failed adapter load retires
            // its request and tries the next one for the same slot.
            loop {
                let Some(Pending { id, req, submitted }) = self.queue.pop_front() else {
                    return;
                };
                let adapter = match req.adapter {
                    None => None,
                    Some(aid) => match self.registry.resolve(aid) {
                        Ok(a) => Some((aid, a)),
                        Err(err) => {
                            self.obs.counter("infer.adapter.load_failed", 1);
                            let step = self.tick;
                            self.obs.emit(|| TraceEvent::Sentinel {
                                step,
                                kind: "adapter_load_failed".to_string(),
                                action: err,
                            });
                            self.finish(id, req.prompt.len(), Vec::new(), 0.0, Outcome::Cancelled);
                            continue;
                        }
                    },
                };
                self.caches.clear(slot);
                let mut fed = 0;
                let mut lease = None;
                if self.prefix.enabled() {
                    self.obs.counter("infer.prefix.lookups", 1);
                    let key = adapter.as_ref().map(|(aid, _)| *aid);
                    if let Some(hit) = self.prefix.lookup(key, &req.prompt) {
                        for block in &hit.blocks {
                            self.caches.append_block(slot, block);
                        }
                        fed = hit.matched;
                        lease = Some(hit.lease);
                        self.obs.counter("infer.prefix.hits", 1);
                        self.obs
                            .counter("infer.prefix.hit_tokens", hit.matched as u64);
                    }
                }
                self.slots[slot] = Some(Active {
                    id,
                    rng: Rng::seed_from_u64(req.cfg.seed),
                    prompt: req.prompt,
                    cfg: req.cfg,
                    deadline: req.deadline,
                    submitted,
                    admitted: Instant::now(),
                    fed,
                    generated: Vec::new(),
                    adapter,
                    lease,
                    outcome: None,
                });
                break;
            }
        }
    }

    /// Retires queued requests whose deadline passed before admission —
    /// under overload a dead request must not waste a slot and a prefill.
    fn expire_queued(&mut self) {
        let mut i = 0;
        while i < self.queue.len() {
            let expired = self.queue[i]
                .req
                .deadline
                .is_some_and(|d| self.queue[i].submitted.elapsed() >= d);
            if expired {
                let pending = self.queue.remove(i).expect("index is in bounds");
                self.finish(
                    pending.id,
                    pending.req.prompt.len(),
                    Vec::new(),
                    0.0,
                    Outcome::Deadline,
                );
            } else {
                i += 1;
            }
        }
    }

    /// Marks sequences past their deadline for retirement. Runs before the
    /// forward passes, so a sequence whose deadline expired between ticks
    /// retires as [`Outcome::Deadline`] even if this tick's sample would
    /// have emitted its stop token; a stop token sampled on the same tick
    /// the deadline *would* expire wins, because sampling precedes the
    /// next expiry check.
    fn expire_deadlines(&mut self) {
        for act in self.slots.iter_mut().flatten() {
            if act.outcome.is_none() {
                if let Some(d) = act.deadline {
                    if act.submitted.elapsed() >= d {
                        act.outcome = Some(Outcome::Deadline);
                    }
                }
            }
        }
    }

    /// Records one retirement: the `infer.requests_retired` counter, the
    /// `InferRequest` trace event and the [`GenResult`]. Every request
    /// retires through here, whether it ran in a slot ([`Self::retire`]) or
    /// never reached one (queued expiry or cancellation, failed adapter
    /// load: no tokens, zero rate).
    fn finish(
        &mut self,
        id: u64,
        prompt_tokens: usize,
        tokens: Vec<u32>,
        tokens_per_sec: f64,
        outcome: Outcome,
    ) {
        self.obs.counter("infer.requests_retired", 1);
        let (tick, new_tokens) = (self.tick, tokens.len());
        self.obs.emit(|| TraceEvent::InferRequest {
            step: tick,
            id,
            prompt_tokens,
            new_tokens,
            tokens_per_sec,
            outcome: outcome.label().to_string(),
        });
        self.finished.push(GenResult {
            id,
            tokens,
            outcome,
        });
    }

    /// Samples the next token for `slot` from one logits row and updates
    /// its terminal state.
    fn sample_into_slot(&mut self, slot: usize, logits: &[f32]) {
        let act = self.slots[slot].as_mut().expect("sampling an empty slot");
        let tok = sample(logits, &act.cfg, &mut act.rng);
        act.generated.push(tok);
        self.progress.push((act.id, tok));
        if act.cfg.stop_token == Some(tok) {
            act.outcome = Some(Outcome::StopToken);
        } else if act.generated.len() >= act.cfg.max_new_tokens {
            act.outcome = Some(Outcome::Done);
        } else if self.caches.remaining(slot) == 0 {
            act.outcome = Some(Outcome::CacheFull);
        }
    }

    /// Frees slots whose sequences finished, pushing their results.
    fn retire(&mut self) {
        for slot in 0..self.slots.len() {
            let done = matches!(&self.slots[slot], Some(a) if a.outcome.is_some());
            if !done {
                continue;
            }
            let mut act = self.slots[slot].take().expect("checked above");
            let outcome = act.outcome.expect("checked above");
            if let Some(lease) = act.lease.take() {
                self.prefix.release(lease);
            }
            let secs = act.admitted.elapsed().as_secs_f64().max(1e-9);
            let tokens_per_sec = act.generated.len() as f64 / secs;
            self.obs.gauge("infer.tokens_per_sec", tokens_per_sec);
            let prompt_tokens = act.prompt.len();
            self.finish(
                act.id,
                prompt_tokens,
                act.generated,
                tokens_per_sec,
                outcome,
            );
        }
    }
}

/// Elapsed milliseconds since `t0` as `f32`.
fn ms_since(t0: Instant) -> f32 {
    t0.elapsed().as_secs_f64() as f32 * 1e3
}
