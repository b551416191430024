//! Shared serving statistics for `GET /stats`.
//!
//! A [`ServeStats`] is one `Arc` of atomics written by the scheduler tick
//! (prefix-cache and KV numbers), the adapter registry mirror, and the
//! frontend (in-flight requests), and rendered as JSON by the frontend.
//! Plain relaxed atomics: every field is a monotonic counter or a
//! last-write-wins gauge, and readers only need a consistent-enough
//! snapshot for operational dashboards.

use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot-friendly serving counters and gauges.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Prefix-cache lookups (admissions with the cache enabled).
    pub prefix_lookups: AtomicU64,
    /// Lookups that matched at least one token.
    pub prefix_hits: AtomicU64,
    /// Prompt tokens served from cache instead of prefill.
    pub prefix_hit_tokens: AtomicU64,
    /// Bytes of cached KV block storage (gauge).
    pub prefix_cached_bytes: AtomicU64,
    /// Live radix-tree nodes (gauge).
    pub prefix_nodes: AtomicU64,
    /// Prefix-cache leaf evictions, KV or ghost.
    pub prefix_evictions: AtomicU64,
    /// Budget bytes held by prefix-cache ghosts, spans seen once whose KV
    /// was not kept (gauge).
    pub prefix_ghost_bytes: AtomicU64,
    /// Prefix-cache spans given KV on their second sighting.
    pub prefix_admissions: AtomicU64,
    /// Prompt tokens actually prefilled (cold rows).
    pub prefill_tokens: AtomicU64,
    /// Microseconds spent in prefill forward passes. With
    /// `prefill_tokens` and `prefix_hit_tokens` this yields the
    /// *effective* prefill throughput `(cold + cached) / time`, the
    /// `prefix_hit_prefill_tok_per_sec` bench metric.
    pub prefill_us: AtomicU64,
    /// Decode rows run.
    pub decode_tokens: AtomicU64,
    /// KV bytes in use across scheduler slots (gauge).
    pub kv_used_bytes: AtomicU64,
    /// Adapters known to the registry (gauge).
    pub adapters_registered: AtomicU64,
    /// Adapters currently resident in memory (gauge).
    pub adapters_resident: AtomicU64,
    /// Adapter checkpoint loads (initial and post-eviction).
    pub adapter_loads: AtomicU64,
    /// Adapter residency evictions.
    pub adapter_evictions: AtomicU64,
}

impl ServeStats {
    /// Prefix-cache hit rate over lookups so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.prefix_lookups.load(Ordering::Relaxed);
        if lookups == 0 {
            return 0.0;
        }
        self.prefix_hits.load(Ordering::Relaxed) as f64 / lookups as f64
    }

    /// Stores a gauge value.
    pub(crate) fn set(field: &AtomicU64, value: u64) {
        field.store(value, Ordering::Relaxed);
    }
}
