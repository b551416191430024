//! Synthetic data substrates standing in for the paper's corpora.
//!
//! The paper pre-trains on C4 and fine-tunes on eight commonsense-reasoning
//! suites plus MMLU. Neither is available offline, so this crate provides:
//!
//! - [`SyntheticCorpus`] — a first-order Markov source over a Zipf-distributed
//!   vocabulary. It has genuine sequential structure (each context token
//!   admits a small candidate set), so a language model's perplexity falls
//!   well below the unigram entropy only if the optimizer actually learns —
//!   which is what separates the optimizers under test.
//! - [`LmBatcher`] — an infinite next-token-prediction batch stream plus a
//!   fixed held-out validation set, mirroring single-epoch C4 training.
//! - [`TaskGen`] and the [`commonsense_suite`] / [`mmlu_suite`] constructors
//!   — sequence-classification tasks whose label is recoverable from marker
//!   tokens injected into corpus noise, standing in for the fine-tuning
//!   benchmarks (Tables 4 and 5).
//! - [`ByteTokenizer`] and [`DecodeStream`] — byte-level text in and out
//!   for generation from byte-covering vocabularies.
//!
//! Everything is deterministic given its seeds.

mod corpus;
mod loader;
mod stream;
mod tasks;
mod tokenizer;

pub use corpus::{CorpusConfig, SyntheticCorpus};
pub use loader::LmBatcher;
pub use stream::DecodeStream;
pub use tasks::{commonsense_suite, mmlu_suite, TaskConfig, TaskGen};
pub use tokenizer::ByteTokenizer;
