//! Cross-geometry invariants of the analytic memory/throughput model.

use apollo_nn::ModelConfig;
use apollo_optim::Method;
use apollo_sysmodel::{Gpu, MemoryOptions, ThroughputModel, TrainingMemoryModel, WeightPrecision};

fn geometries() -> Vec<ModelConfig> {
    vec![
        ModelConfig::llama_60m(),
        ModelConfig::llama_130m(),
        ModelConfig::llama_350m(),
        ModelConfig::llama_1b(),
        ModelConfig::llama_7b(),
        ModelConfig::llama_13b(),
    ]
}

#[test]
fn memory_is_monotone_in_model_size_for_every_method() {
    let opts = MemoryOptions::figure1(256);
    for spec in [
        Method::adamw(),
        Method::galore(128),
        Method::apollo(128),
        Method::mini(),
        Method::Fira { rank: 128 },
    ] {
        let totals: Vec<f64> = geometries()
            .iter()
            .map(|c| {
                TrainingMemoryModel::new(c)
                    .breakdown(spec, &opts)
                    .total_gib()
            })
            .collect();
        assert!(
            totals.windows(2).all(|w| w[0] < w[1]),
            "{}: {totals:?}",
            spec.label()
        );
    }
}

#[test]
fn method_ordering_is_preserved_at_every_size() {
    // AdamW > GaLore > APOLLO > Mini holds across the whole family.
    let opts = MemoryOptions::figure1(256);
    for cfg in geometries() {
        let mem = TrainingMemoryModel::new(&cfg);
        let rank = cfg.default_rank();
        let adamw = mem.breakdown(Method::adamw(), &opts).total_gib();
        let galore = mem.breakdown(Method::galore(rank), &opts).total_gib();
        let apollo = mem.breakdown(Method::apollo(rank), &opts).total_gib();
        let mini = mem.breakdown(Method::mini(), &opts).total_gib();
        assert!(
            adamw > galore && galore > apollo && apollo > mini,
            "{}: {adamw:.2} {galore:.2} {apollo:.2} {mini:.2}",
            cfg.name
        );
    }
}

#[test]
fn doubling_rank_increases_only_projected_state() {
    let cfg = ModelConfig::llama_350m();
    let mem = TrainingMemoryModel::new(&cfg);
    let opts = MemoryOptions::figure1(256);
    let low = mem.breakdown(Method::apollo(64), &opts);
    let high = mem.breakdown(Method::apollo(128), &opts);
    assert_eq!(low.weights_gib, high.weights_gib);
    assert_eq!(low.activations_gib, high.activations_gib);
    assert!(high.optimizer_gib > low.optimizer_gib);
    // Projected moments double; the dense embed/head floor does not.
    assert!(high.optimizer_gib < 2.0 * low.optimizer_gib);
}

#[test]
fn int8_weights_never_change_optimizer_term() {
    let cfg = ModelConfig::llama_1b();
    let mem = TrainingMemoryModel::new(&cfg);
    let bf16 = MemoryOptions::figure1(256);
    let int8 = MemoryOptions {
        weights: WeightPrecision::Int8 { group: 128 },
        ..bf16
    };
    for spec in [Method::apollo(512), Method::mini()] {
        let a = mem.breakdown(spec, &bf16);
        let b = mem.breakdown(spec, &int8);
        assert_eq!(a.optimizer_gib, b.optimizer_gib, "{}", spec.label());
        assert!(b.weights_gib < a.weights_gib);
    }
}

#[test]
fn svd_refresh_scales_superlinearly_with_geometry() {
    let times: Vec<f64> = geometries()
        .iter()
        .map(|c| ThroughputModel::new(c, Gpu::a100_80g(), 8, 256).svd_refresh_seconds())
        .collect();
    assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
    // 7B (index 4) is calibrated to the paper's 600 s.
    assert!((times[4] - 600.0).abs() < 1.0);
}

#[test]
fn more_gpus_mean_more_throughput_never_less_memory_per_gpu() {
    let cfg = ModelConfig::llama_7b();
    let opts = MemoryOptions::standard(1, 256);
    let one = ThroughputModel::new(&cfg, Gpu::a100_80g(), 1, 256);
    let eight = ThroughputModel::new(&cfg, Gpu::a100_80g(), 8, 256);
    let spec = Method::apollo(256);
    let r1 = one.report(spec, &opts);
    let r8 = eight.report(spec, &opts);
    assert!(r8.tokens_per_sec > 6.0 * r1.tokens_per_sec);
    assert_eq!(r1.micro_batch, r8.micro_batch, "DDP replicates, not shards");
}

#[test]
fn consumer_gpu_fits_strictly_fewer_configurations() {
    let opts = MemoryOptions::figure1(256);
    let mut a100_fits = 0;
    let mut consumer_fits = 0;
    for cfg in geometries() {
        let mem = TrainingMemoryModel::new(&cfg);
        let total = mem.breakdown(Method::mini(), &opts).total_gib();
        if total <= Gpu::a100_80g().memory_gib {
            a100_fits += 1;
        }
        if total <= Gpu::consumer_12g().memory_gib {
            consumer_fits += 1;
        }
    }
    assert!(a100_fits > consumer_fits);
    assert!(a100_fits >= 5, "A100 should hold up to 13B with Mini");
}
