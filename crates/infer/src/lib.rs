//! `apollo-infer` — KV-cached generation engine with a continuous-batching
//! serving loop.
//!
//! Layers, bottom to top:
//!
//! - [`sample`] / [`GenConfig`]: deterministic greedy / temperature /
//!   top-k / top-p next-token sampling over LM-head logits.
//! - [`generate`]: serial token-at-a-time decoding through
//!   [`apollo_nn::KvCache`] — the byte-identity reference for everything
//!   above it.
//! - [`Scheduler`]: single-threaded continuous-batching core. Admits
//!   [`GenRequest`]s into a fixed set of slots, batches prefill and decode
//!   rows across in-flight sequences each [`Scheduler::tick`], retires
//!   finished sequences, and back-fills freed slots.
//! - [`Server`]: a worker thread driving the scheduler, with non-blocking
//!   bounded admission ([`Server::submit`]), per-request [`GenHandle`]s
//!   (streaming [`GenEvent`]s, cancel-on-drop), and explicit drain.
//! - [`net`] / [`Frontend`]: a hand-rolled HTTP/1.1 layer over
//!   `std::net` — request parsing with hard limits, chunked streaming
//!   responses, admission control mapped to status codes, per-request
//!   deadlines, load shedding, and graceful drain.
//! - [`run_loadgen`]: an open-loop Poisson load generator with
//!   deterministic fault injection (slow-loris, mid-stream disconnect,
//!   malformed requests, bursts) and a shared-system-prompt traffic shape
//!   (`--prefix-reuse`) used by the fault-plan tests and the CI
//!   serve-smoke stages.
//! - [`PrefixCache`] / [`ServeStats`]: a token-level radix tree over
//!   exported KV blocks that lets prompts sharing a prefix skip re-prefill
//!   (bit-identically, per `tests/prefix_churn.rs`), and the shared atomic
//!   counters behind `GET /stats`. Multi-adapter routing rides the same
//!   scheduler: per-request [`apollo_nn::AdapterRegistry`] ids batch
//!   requests for different LoRA adapters into one decode tick.
//!
//! The central invariant, pinned by `tests/scheduler.rs`: because the
//! KV-cached forward computes every batch row independently and
//! bit-identically to the serial path, and sampling state is per-request,
//! tokens produced under continuous batching are **byte-identical** to
//! running each request alone through [`generate`].

mod engine;
mod frontend;
mod loadgen;
pub mod net;
mod prefix;
mod sample;
mod scheduler;
mod server;
mod stats;

pub use engine::{generate, generate_backend};
pub use frontend::{DrainReport, Frontend, ServeConfig};
pub use loadgen::{run_loadgen, FaultMix, LoadConfig, LoadReport};
pub use prefix::{PrefixCache, PrefixHit, PrefixLease};
pub use sample::{sample, GenConfig};
pub use scheduler::{GenRequest, GenResult, Outcome, SchedConfig, Scheduler, SubmitError};
pub use server::{GenEvent, GenHandle, Server, WaitError};
pub use stats::ServeStats;
