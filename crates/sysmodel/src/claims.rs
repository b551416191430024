//! Checkers for the paper's §5.3 headline system claims.

use apollo_nn::ModelConfig;
use apollo_optim::Method;
use serde::Serialize;

use crate::gpu::Gpu;
use crate::memory::{MemoryOptions, TrainingMemoryModel, WeightPrecision};

/// Outcome of one claim check.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClaimResult {
    /// What was checked.
    pub claim: String,
    /// Estimated memory requirement, GiB.
    pub required_gib: f64,
    /// Capacity of the target GPU, GiB.
    pub capacity_gib: f64,
    /// Whether the claim holds under the model.
    pub holds: bool,
}

fn check(claim: &str, required: f64, gpu: &Gpu) -> ClaimResult {
    ClaimResult {
        claim: claim.to_string(),
        required_gib: required,
        capacity_gib: gpu.memory_gib,
        holds: required <= gpu.memory_gib,
    }
}

/// §5.3: "APOLLO-Mini unlocks pre-training LLaMA-13B on A100 80GB with
/// naive DDP" (per-GPU footprint must fit, no sharding).
pub fn llama_13b_ddp_on_a100() -> ClaimResult {
    let mem = TrainingMemoryModel::new(&ModelConfig::llama_13b());
    let opts = MemoryOptions::figure1(256);
    let total = mem.breakdown(Method::mini(), &opts).total_gib();
    check(
        "LLaMA-13B + APOLLO-Mini fits one A100-80GB (naive DDP, bs 1)",
        total,
        &Gpu::a100_80g(),
    )
}

/// The same 13B check for AdamW — expected to *fail*, which is why the
/// paper calls the APOLLO-Mini result an unlock.
pub fn llama_13b_ddp_adamw_counterfactual() -> ClaimResult {
    let mem = TrainingMemoryModel::new(&ModelConfig::llama_13b());
    // AdamW under naive DDP cannot use the layer-wise trick (the full
    // gradient must exist for the bucketed all-reduce).
    let opts = MemoryOptions::standard(1, 256);
    let total = mem.breakdown(Method::adamw(), &opts).total_gib();
    check(
        "LLaMA-13B + AdamW fits one A100-80GB (counterfactual)",
        total,
        &Gpu::a100_80g(),
    )
}

/// §5.3: "Combination with weight quantization unlocks pre-training
/// LLaMA-7B under 12 GB" (Q-APOLLO-Mini: INT8 weights, layer-wise grads).
pub fn llama_7b_under_12gb() -> ClaimResult {
    let mem = TrainingMemoryModel::new(&ModelConfig::llama_7b());
    let opts = MemoryOptions {
        weights: WeightPrecision::Int8 { group: 128 },
        ..MemoryOptions::figure1(256)
    };
    let total = mem.breakdown(Method::mini(), &opts).total_gib();
    check(
        "LLaMA-7B + Q-APOLLO-Mini fits a 12 GB GPU (layer-wise grads, bs 1)",
        total,
        &Gpu::consumer_12g(),
    )
}

/// The 7B/12GB check for full-precision AdamW — the counterfactual that
/// fails by a wide margin.
pub fn llama_7b_adamw_counterfactual() -> ClaimResult {
    let mem = TrainingMemoryModel::new(&ModelConfig::llama_7b());
    let total = mem
        .breakdown(Method::adamw(), &MemoryOptions::standard(1, 256))
        .total_gib();
    check(
        "LLaMA-7B + AdamW fits a 12 GB GPU (counterfactual)",
        total,
        &Gpu::consumer_12g(),
    )
}

/// All claim checks, for the report binary.
pub fn all_claims() -> Vec<ClaimResult> {
    vec![
        llama_13b_ddp_on_a100(),
        llama_13b_ddp_adamw_counterfactual(),
        llama_7b_under_12gb(),
        llama_7b_adamw_counterfactual(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apollo_mini_13b_claim_holds() {
        let r = llama_13b_ddp_on_a100();
        assert!(r.holds, "required {} GiB", r.required_gib);
    }

    #[test]
    fn adamw_13b_counterfactual_fails() {
        let r = llama_13b_ddp_adamw_counterfactual();
        assert!(!r.holds, "AdamW 13B should NOT fit: {} GiB", r.required_gib);
    }

    #[test]
    fn q_apollo_mini_7b_under_12gb_holds() {
        let r = llama_7b_under_12gb();
        assert!(r.holds, "required {} GiB", r.required_gib);
        // The paper says ~11 GB; sanity-check we're in that band, not at 2.
        assert!(
            (6.0..12.0).contains(&r.required_gib),
            "required {}",
            r.required_gib
        );
    }

    #[test]
    fn adamw_7b_counterfactual_fails_hugely() {
        let r = llama_7b_adamw_counterfactual();
        assert!(!r.holds);
        assert!(r.required_gib > 3.0 * r.capacity_gib);
    }

    #[test]
    fn all_claims_reports_four() {
        assert_eq!(all_claims().len(), 4);
    }
}
