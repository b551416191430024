//! Resident LoRA adapters for multi-tenant serving.
//!
//! A [`LoraAdapter`] is the low-rank part of a fine-tuned LoRA model —
//! per-layer `(A, B, alpha/rank)` triples for the seven projection
//! linears — extracted from a checkpointed [`LlamaModel`] in
//! [`crate::LinearMode::LoRa`] mode. N adapters stay resident over one
//! shared dense base model; at decode time each batch row's delta
//! `(x·A)·B · (alpha/rank)` is applied on top of the shared base
//! projection without ever materializing the per-tenant dense weight
//! (see [`crate::LlamaModel::forward_cached_with`]).
//!
//! The adapter deliberately carries **only** the low-rank factors: a LoRA
//! fine-tune also trains the norms, embedding and LM head, but those are
//! shared tensors the server cannot specialize per row without forking
//! the whole trunk. Serving an adapter therefore means "base model +
//! low-rank projection deltas"; DESIGN.md documents this contract.
//!
//! [`AdapterRegistry`] maps tenant names to adapter ids, optionally under
//! a residency cap: with a loader hook installed, adapters past the cap
//! are evicted LRU and transparently reloaded from their checkpoints on
//! the next request that routes to them.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use apollo_tensor::Matrix;

use crate::config::ModelConfig;
use crate::model::LlamaModel;

/// One low-rank projection delta: `Δy = (x·A)·B · scale`.
#[derive(Debug, Clone)]
pub(crate) struct LowRankDelta {
    /// `in × rank`.
    pub(crate) a: Matrix,
    /// `rank × out`.
    pub(crate) b: Matrix,
    /// `alpha / rank`, matching [`crate::LinearMode::LoRa`].
    pub(crate) scale: f32,
}

/// The seven projection deltas of one transformer layer, indexed by
/// [`crate::model::Proj`].
pub(crate) type AdapterLayer = [LowRankDelta; 7];

/// The low-rank deltas of a LoRA fine-tune, ready to apply per batch row.
#[derive(Debug, Clone)]
pub struct LoraAdapter {
    pub(crate) layers: Vec<AdapterLayer>,
    rank: usize,
    hidden: usize,
    intermediate: usize,
}

impl LoraAdapter {
    /// Extracts the adapter from a model built (or loaded) in
    /// [`crate::LinearMode::LoRa`] mode. The frozen backbone, norms,
    /// embedding and LM head are *not* carried over — only the `A`/`B`
    /// factors and their scale.
    ///
    /// # Errors
    ///
    /// Returns an error if the model's linears are not in LoRA mode.
    pub fn from_model(model: &LlamaModel) -> Result<Self, String> {
        let delta = |lin: &crate::linear::Linear| -> Result<LowRankDelta, String> {
            let (a, b, scale) = lin
                .lora_indices()
                .ok_or_else(|| format!("adapter source is {:?}, not LoRA", lin.mode()))?;
            Ok(LowRankDelta {
                a: model.params[a].value.clone(),
                b: model.params[b].value.clone(),
                scale,
            })
        };
        let layers = model
            .layers
            .iter()
            .map(|l| {
                let deltas: Vec<LowRankDelta> = l
                    .linears()
                    .into_iter()
                    .map(delta)
                    .collect::<Result<_, _>>()?;
                Ok(deltas.try_into().expect("a layer has seven projections"))
            })
            .collect::<Result<Vec<AdapterLayer>, String>>()?;
        let rank = layers.first().map_or(0, |l| l[0].a.cols());
        let cfg = model.config();
        Ok(LoraAdapter {
            layers,
            rank,
            hidden: cfg.hidden,
            intermediate: cfg.intermediate,
        })
    }

    /// Adapter rank (columns of `A`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Transformer layer count the adapter covers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Bytes of f32 factor storage across all layers.
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .flatten()
            .map(|d| (d.a.len() + d.b.len()) * 4)
            .sum()
    }

    /// Checks the adapter fits a base model's geometry.
    ///
    /// # Errors
    ///
    /// Returns an error naming the mismatched dimension.
    pub fn check_compatible(&self, cfg: &ModelConfig) -> Result<(), String> {
        if self.layers.len() != cfg.n_layers {
            return Err(format!(
                "adapter has {} layers, base model {}",
                self.layers.len(),
                cfg.n_layers
            ));
        }
        if self.hidden != cfg.hidden || self.intermediate != cfg.intermediate {
            return Err(format!(
                "adapter geometry {}x{} does not match base {}x{}",
                self.hidden, self.intermediate, cfg.hidden, cfg.intermediate
            ));
        }
        Ok(())
    }
}

/// Reload hook: given a tenant name, produce its adapter (typically by
/// reading the tenant's checkpoint and calling
/// [`LoraAdapter::from_model`]). Installed by the layer that knows about
/// checkpoint paths (the CLI); `apollo-nn` itself never touches disk.
pub type AdapterLoader = Box<dyn Fn(&str) -> Result<LoraAdapter, String> + Send + Sync>;

/// One registry entry: resident adapter or evicted placeholder.
struct Slot {
    name: String,
    adapter: Option<Arc<LoraAdapter>>,
    /// Logical LRU clock value of the last [`AdapterRegistry::resolve`].
    last_use: u64,
}

/// Name → id map over N resident LoRA adapters, with optional LRU
/// residency under a cap.
///
/// Ids are dense `0..len` in registration order and never change, so the
/// serving stack can thread a `u32` from HTTP admission through the
/// scheduler. [`AdapterRegistry::resolve`] returns the pinned
/// `Arc<LoraAdapter>`; while a request holds the `Arc`, eviction only
/// drops the registry's reference, never the weights in use.
pub struct AdapterRegistry {
    names: Vec<String>,
    slots: Mutex<Vec<Slot>>,
    loader: Option<AdapterLoader>,
    /// Max adapters resident at once (`usize::MAX` without a loader).
    max_resident: usize,
    clock: AtomicU64,
    loads: AtomicU64,
    evictions: AtomicU64,
}

impl fmt::Debug for AdapterRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdapterRegistry")
            .field("names", &self.names)
            .field("max_resident", &self.max_resident)
            .finish_non_exhaustive()
    }
}

impl Default for AdapterRegistry {
    fn default() -> Self {
        AdapterRegistry::empty()
    }
}

impl AdapterRegistry {
    /// A registry with no adapters (single-tenant serving).
    pub fn empty() -> Self {
        AdapterRegistry::resident(Vec::new())
    }

    /// A registry with every adapter resident for its lifetime (no loader,
    /// no eviction). Duplicate names keep the first registration.
    pub fn resident(adapters: Vec<(String, LoraAdapter)>) -> Self {
        let mut names = Vec::new();
        let mut slots = Vec::new();
        for (name, adapter) in adapters {
            if names.contains(&name) {
                continue;
            }
            names.push(name.clone());
            slots.push(Slot {
                name,
                adapter: Some(Arc::new(adapter)),
                last_use: 0,
            });
        }
        AdapterRegistry {
            names,
            slots: Mutex::new(slots),
            loader: None,
            max_resident: usize::MAX,
            clock: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A registry that keeps at most `max_resident` adapters in memory,
    /// reloading evicted ones through `loader` on demand. Nothing is
    /// loaded up front; the first request routed to each tenant pays its
    /// load.
    ///
    /// # Panics
    ///
    /// Panics if `max_resident` is zero.
    pub fn with_loader(names: Vec<String>, max_resident: usize, loader: AdapterLoader) -> Self {
        assert!(
            max_resident > 0,
            "registry needs at least one resident slot"
        );
        let mut uniq = Vec::new();
        for n in names {
            if !uniq.contains(&n) {
                uniq.push(n);
            }
        }
        let slots = uniq
            .iter()
            .map(|n| Slot {
                name: n.clone(),
                adapter: None,
                last_use: 0,
            })
            .collect();
        AdapterRegistry {
            names: uniq,
            slots: Mutex::new(slots),
            loader: Some(loader),
            max_resident,
            clock: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Registered adapter count (resident or not).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no adapters are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Registered tenant names, in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The id for a tenant name.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.names.iter().position(|n| n == name).map(|i| i as u32)
    }

    /// Returns the adapter for `id`, loading it (and evicting the
    /// least-recently-used resident adapter past the cap) if necessary.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range id, a load failure, or a
    /// non-resident adapter in a loader-less registry (impossible unless
    /// the registry was built empty-handed).
    pub fn resolve(&self, id: u32) -> Result<Arc<LoraAdapter>, String> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slots = self.slots.lock().expect("registry lock");
        let idx = id as usize;
        if idx >= slots.len() {
            return Err(format!("adapter id {id} out of range"));
        }
        if slots[idx].adapter.is_none() {
            let loader = self
                .loader
                .as_ref()
                .ok_or_else(|| format!("adapter `{}` is not resident", slots[idx].name))?;
            let loaded = loader(&slots[idx].name)?;
            self.loads.fetch_add(1, Ordering::Relaxed);
            slots[idx].adapter = Some(Arc::new(loaded));
        }
        slots[idx].last_use = now;
        let out = Arc::clone(slots[idx].adapter.as_ref().expect("just ensured"));
        // Evict past the cap, oldest first; the slot just used has the
        // newest clock so it can never evict itself.
        while slots.iter().filter(|s| s.adapter.is_some()).count() > self.max_resident {
            let victim = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.adapter.is_some())
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i)
                .expect("count > cap implies a resident slot");
            slots[victim].adapter = None;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(out)
    }

    /// Adapters currently held in memory.
    pub fn resident_count(&self) -> usize {
        self.slots
            .lock()
            .expect("registry lock")
            .iter()
            .filter(|s| s.adapter.is_some())
            .count()
    }

    /// Checkpoint loads performed (initial and post-eviction).
    pub fn load_count(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Residency evictions performed.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Bytes of resident adapter storage.
    pub fn memory_bytes(&self) -> usize {
        self.slots
            .lock()
            .expect("registry lock")
            .iter()
            .filter_map(|s| s.adapter.as_ref())
            .map(|a| a.memory_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearMode, ModelConfig};
    use apollo_tensor::Rng;

    fn lora_model(seed: u64) -> LlamaModel {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(seed);
        let mut m = LlamaModel::new(
            &cfg,
            LinearMode::LoRa {
                rank: 2,
                alpha: 4.0,
            },
            &mut rng,
        );
        for p in &mut m.params {
            if p.name.ends_with(".lora_b") {
                p.value = Matrix::randn(p.value.rows(), p.value.cols(), &mut rng);
            }
        }
        m
    }

    #[test]
    fn extracts_factors_and_checks_geometry() {
        let m = lora_model(90);
        let ad = LoraAdapter::from_model(&m).unwrap();
        assert_eq!(ad.rank(), 2);
        assert_eq!(ad.num_layers(), m.config().n_layers);
        assert!(ad.memory_bytes() > 0);
        ad.check_compatible(m.config()).unwrap();
        let mut other = m.config().clone();
        other.hidden *= 2;
        assert!(ad.check_compatible(&other).is_err());
    }

    #[test]
    fn dense_model_is_not_an_adapter_source() {
        let cfg = ModelConfig::test_tiny();
        let mut rng = Rng::seed_from_u64(91);
        let dense = LlamaModel::new(&cfg, LinearMode::Dense, &mut rng);
        assert!(LoraAdapter::from_model(&dense).is_err());
    }

    #[test]
    fn registry_maps_names_and_resolves() {
        let a = LoraAdapter::from_model(&lora_model(92)).unwrap();
        let b = LoraAdapter::from_model(&lora_model(93)).unwrap();
        let reg = AdapterRegistry::resident(vec![("a".into(), a), ("b".into(), b)]);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.id("b"), Some(1));
        assert_eq!(reg.id("zz"), None);
        assert_eq!(reg.resident_count(), 2);
        let got = reg.resolve(1).unwrap();
        assert_eq!(got.rank(), 2);
        assert!(reg.resolve(5).is_err());
    }

    #[test]
    fn loader_registry_evicts_lru_and_reloads() {
        let reg = AdapterRegistry::with_loader(
            vec!["a".into(), "b".into(), "c".into()],
            2,
            Box::new(|name| {
                let seed = name.bytes().map(u64::from).sum::<u64>();
                LoraAdapter::from_model(&lora_model(seed))
            }),
        );
        assert_eq!(reg.resident_count(), 0);
        reg.resolve(0).unwrap();
        reg.resolve(1).unwrap();
        assert_eq!(reg.resident_count(), 2);
        assert_eq!(reg.load_count(), 2);
        assert_eq!(reg.eviction_count(), 0);
        // Touch `a` so `b` is the LRU victim when `c` loads.
        reg.resolve(0).unwrap();
        reg.resolve(2).unwrap();
        assert_eq!(reg.resident_count(), 2);
        assert_eq!(reg.eviction_count(), 1);
        // `b` reloads on demand.
        reg.resolve(1).unwrap();
        assert_eq!(reg.load_count(), 4);
    }
}
