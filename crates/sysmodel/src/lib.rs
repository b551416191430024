//! Analytic GPU memory and throughput model.
//!
//! The paper's system-level results (Fig. 1 middle/right, Fig. 9, Table 3's
//! memory column, and the §5.3 claims — LLaMA-13B on one A100-80G with
//! naive DDP, LLaMA-7B under 12 GB with quantization) are *memory
//! accounting* and *step-time accounting* results. This crate reproduces
//! them from first principles:
//!
//! - [`TrainingMemoryModel`] — bytes for weights (BF16 or INT8), gradients
//!   (full or layer-wise per Lv et al., 2023), optimizer states (Table 1,
//!   counted by [`apollo_optim::Method`]), and activations;
//! - [`ThroughputModel`] — step time from model FLOPs and GPU throughput,
//!   plus the periodic SVD stall of GaLore-type optimizers (calibrated to
//!   the paper's "10 minutes per LLaMA-7B subspace update"), and the
//!   memory-bound maximum batch-size search that yields the paper's ~3×
//!   throughput result;
//! - [`claims`] — checkers for the headline §5.3 claims.
//!
//! No GPU is touched; everything is closed-form and unit-tested against the
//! constants the paper publishes.

mod gpu;
mod memory;
mod throughput;

pub mod claims;

pub use gpu::Gpu;
pub use memory::{MemoryBreakdown, MemoryOptions, TrainingMemoryModel, WeightPrecision};
pub use throughput::{StepTimeSeries, ThroughputModel, ThroughputReport};
