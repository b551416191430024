//! The JSONL trace: one self-describing event per line, buffered writes.
//!
//! The schema is the contract between the emitting side (trainer,
//! optimizers, resilience sentinels) and the consuming side (the Fig. 3/9
//! bench probes, `apollo trace-check`, ad-hoc `jq` analysis). Every event
//! kind is a struct variant of [`TraceEvent`] so it serializes as
//! `{"Kind": {fields...}}` — greppable and forward-parseable.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

/// One observability event. Serialized as a single JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Emitted once when the training loop starts (or resumes).
    RunStart {
        /// First step the loop will execute.
        step: usize,
        /// Optimizer display name.
        optimizer: String,
        /// Model name.
        model: String,
        /// Total step budget of the run.
        steps: usize,
    },
    /// Per-step wall-clock breakdown, in milliseconds. Phases that did not
    /// run this step (e.g. checkpoint, eval) report 0.
    StepPhases {
        /// Step index.
        step: usize,
        /// Batch preparation (data loading) time.
        batch_ms: f32,
        /// Forward-pass time (graph build + loss).
        forward_ms: f32,
        /// Backward-pass time (including gradient collection).
        backward_ms: f32,
        /// Global gradient-norm clipping time.
        clip_ms: f32,
        /// Optimizer step time.
        optimizer_ms: f32,
        /// Checkpoint-write time.
        checkpoint_ms: f32,
        /// Periodic-evaluation time.
        eval_ms: f32,
        /// Whole-step time (the phases plus loop bookkeeping).
        total_ms: f32,
    },
    /// Per-step scalar gauges.
    StepMetrics {
        /// Step index.
        step: usize,
        /// Training loss of this step.
        loss: f32,
        /// Global gradient norm (pre-clip).
        grad_norm: f32,
        /// Learning rate applied this step.
        lr: f32,
    },
    /// Per-layer summary of the APOLLO/channel-wise scaling factors
    /// (`last_scales`): the Fig. 4 signal, one event per projectable
    /// parameter per sampled step.
    ScaleSummary {
        /// Step index.
        step: usize,
        /// Parameter name.
        param: String,
        /// Smallest channel scale.
        min: f32,
        /// Median channel scale.
        median: f32,
        /// Largest channel scale.
        max: f32,
        /// Number of channels (1 for tensor-wise granularity).
        channels: usize,
    },
    /// A projector refreshed its subspace (re-seed for the random kind,
    /// fresh SVD for the SVD kind) — the Fig. 9 spike cause.
    ProjectorRefresh {
        /// Step index.
        step: usize,
        /// Parameter name.
        param: String,
        /// Projection kind: `"random"` or `"svd"`.
        kind: String,
        /// Effective projection rank.
        rank: usize,
    },
    /// The norm-growth limiter clamped a tensor update (Eq. 4).
    LimiterClip {
        /// Step index.
        step: usize,
        /// Parameter name.
        param: String,
        /// Pre-clamp norm divided by post-clamp norm (≥ 1).
        ratio: f32,
    },
    /// A resilience sentinel fired.
    Sentinel {
        /// Step index.
        step: usize,
        /// What fired: `"non_finite_loss"`, `"non_finite_grads"`,
        /// `"loss_spike"`, `"clip_non_finite"`.
        kind: String,
        /// What the loop did about it: `"skip"`, `"clip"`, `"rollback"`,
        /// `"abort"`, `"zero_step"`, `"continue"`.
        action: String,
    },
    /// Emitted once when the loop exits.
    RunEnd {
        /// Step after the last executed one.
        step: usize,
        /// Total wall-clock seconds.
        wall_secs: f64,
    },
    /// One continuous-batching tick of the inference scheduler: how much
    /// prefill and decode work was batched, and where the time went.
    InferStep {
        /// Tick index (monotonic within a server run).
        step: usize,
        /// Prompt rows prefilled this tick, summed over sequences.
        prefill_rows: usize,
        /// Decode rows advanced this tick (one per decoding sequence).
        decode_rows: usize,
        /// Requests still waiting in the admission queue after the tick.
        queue_depth: usize,
        /// Sequences occupying slots after the tick.
        active: usize,
        /// The tick's one forward pass (prompt and decode rows together)
        /// plus sampling, when it carried prompt rows; else 0.
        prefill_ms: f32,
        /// The same pass time when it carried decode rows only; else 0.
        decode_ms: f32,
        /// Whole-tick time (prefill, decode, admission bookkeeping).
        total_ms: f32,
    },
    /// A generation request retired from the inference scheduler.
    InferRequest {
        /// Tick index at which the request retired.
        step: usize,
        /// Request id (admission order).
        id: u64,
        /// Prompt length in tokens.
        prompt_tokens: usize,
        /// Tokens generated.
        new_tokens: usize,
        /// Generated tokens per wall-clock second, admission to retirement.
        tokens_per_sec: f64,
        /// Why it retired: `"done"`, `"stop_token"`, `"deadline"`,
        /// `"cache_full"`, `"cancelled"`.
        outcome: String,
    },
    /// One HTTP request handled by the network serving front-end.
    ServeRequest {
        /// Scheduler tick at which the request concluded.
        step: usize,
        /// HTTP status code returned to the client.
        status: u16,
        /// Wall-clock from request receipt to the last response byte (or
        /// to the failure that ended the request).
        latency_ms: f32,
        /// How the request concluded: a generation [`Outcome`] label
        /// (`"done"`, `"stop_token"`, `"deadline"`, `"cache_full"`,
        /// `"cancelled"`) or a front-end disposition (`"shed"`,
        /// `"rejected"`, `"malformed"`, `"disconnected"`, `"draining"`).
        outcome: String,
        /// Requests in flight (accepted, not yet retired) at conclusion.
        in_flight: usize,
    },
    /// A data-parallel replica starting or finishing its run (one event per
    /// replica each).
    ReplicaEvent {
        /// Training step at which the event fired.
        step: usize,
        /// Replica id the event is about.
        replica: usize,
        /// What happened: `"start"` or `"finish"`.
        event: String,
        /// Replica count of the run.
        replicas: usize,
    },
    /// Cumulative prefix-cache counters, emitted by the scheduler tick
    /// whenever the lookup count moved since the last emission.
    PrefixCache {
        /// Tick index at which the snapshot was taken.
        step: usize,
        /// Prefix-cache lookups so far (admissions with the cache enabled).
        lookups: u64,
        /// Lookups that matched at least one cached token.
        hits: u64,
        /// Prompt tokens served from cache instead of cold prefill.
        hit_tokens: u64,
        /// Bytes of cached KV block storage currently resident.
        cached_bytes: usize,
        /// Live radix-tree nodes.
        nodes: usize,
        /// Leaf evictions under the byte budget so far.
        evictions: u64,
    },
    /// The serving front-end finished its graceful drain.
    ServeDrain {
        /// Scheduler tick at which the drain concluded.
        step: usize,
        /// Requests still in flight when the drain began.
        in_flight: usize,
        /// In-flight requests that completed within the drain deadline.
        drained: usize,
        /// Connections abandoned because the drain deadline expired.
        forced: usize,
        /// Wall-clock the drain took.
        wall_ms: f32,
    },
}

impl TraceEvent {
    /// The event's step index.
    pub fn step(&self) -> usize {
        match *self {
            TraceEvent::RunStart { step, .. }
            | TraceEvent::StepPhases { step, .. }
            | TraceEvent::StepMetrics { step, .. }
            | TraceEvent::ScaleSummary { step, .. }
            | TraceEvent::ProjectorRefresh { step, .. }
            | TraceEvent::LimiterClip { step, .. }
            | TraceEvent::Sentinel { step, .. }
            | TraceEvent::RunEnd { step, .. }
            | TraceEvent::InferStep { step, .. }
            | TraceEvent::InferRequest { step, .. }
            | TraceEvent::ServeRequest { step, .. }
            | TraceEvent::ReplicaEvent { step, .. }
            | TraceEvent::PrefixCache { step, .. }
            | TraceEvent::ServeDrain { step, .. } => step,
        }
    }

    /// Short kind tag (the JSON object key).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "RunStart",
            TraceEvent::StepPhases { .. } => "StepPhases",
            TraceEvent::StepMetrics { .. } => "StepMetrics",
            TraceEvent::ScaleSummary { .. } => "ScaleSummary",
            TraceEvent::ProjectorRefresh { .. } => "ProjectorRefresh",
            TraceEvent::LimiterClip { .. } => "LimiterClip",
            TraceEvent::Sentinel { .. } => "Sentinel",
            TraceEvent::RunEnd { .. } => "RunEnd",
            TraceEvent::InferStep { .. } => "InferStep",
            TraceEvent::InferRequest { .. } => "InferRequest",
            TraceEvent::ServeRequest { .. } => "ServeRequest",
            TraceEvent::ReplicaEvent { .. } => "ReplicaEvent",
            TraceEvent::PrefixCache { .. } => "PrefixCache",
            TraceEvent::ServeDrain { .. } => "ServeDrain",
        }
    }
}

/// Buffered line-oriented trace writer. Events are flushed on
/// [`TraceWriter::flush`] and on drop.
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
    written: usize,
}

impl TraceWriter {
    /// Creates (truncates) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(TraceWriter {
            out: BufWriter::new(File::create(path)?),
            written: 0,
        })
    }

    /// Appends one event as a JSON line. I/O errors are reported once on
    /// [`TraceWriter::flush`]; per-event emission stays infallible so hot
    /// loops never branch on it.
    pub fn write(&mut self, event: &TraceEvent) {
        let line = serde_json::to_string(event).expect("trace event serializes");
        let _ = self.out.write_all(line.as_bytes());
        let _ = self.out.write_all(b"\n");
        self.written += 1;
    }

    /// Number of events written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes buffered lines to disk.
    ///
    /// # Errors
    ///
    /// Returns any buffered or flush-time I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Builds a [`TraceEvent::ScaleSummary`] from a raw per-channel scale
/// vector, or `None` when the vector is empty. Sorting cost is paid only
/// by callers that actually emit (pass this through a lazy `emit` closure).
pub fn scale_summary(step: usize, param: &str, scales: &[f32]) -> Option<TraceEvent> {
    if scales.is_empty() {
        return None;
    }
    let mut sorted: Vec<f32> = scales.to_vec();
    sorted.sort_by(f32::total_cmp);
    Some(TraceEvent::ScaleSummary {
        step,
        param: param.to_string(),
        min: sorted[0],
        median: sorted[sorted.len() / 2],
        max: sorted[sorted.len() - 1],
        channels: sorted.len(),
    })
}

/// Parses one JSONL trace line.
///
/// # Errors
///
/// Returns the parse error message for a malformed line.
pub fn parse_line(line: &str) -> Result<TraceEvent, String> {
    serde_json::from_str(line).map_err(|e| format!("bad trace line: {e}"))
}

/// Reads a whole JSONL trace back, skipping blank lines.
///
/// # Errors
///
/// Returns an error for I/O failures or any unparseable line (with its
/// 1-based line number).
pub fn read_trace(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let f = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut events = Vec::new();
    for (i, line) in BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| format!("read {}: {e}", path.display()))?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(&line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                step: 0,
                optimizer: "APOLLO".into(),
                model: "test-tiny".into(),
                steps: 30,
            },
            TraceEvent::StepPhases {
                step: 0,
                batch_ms: 0.5,
                forward_ms: 4.0,
                backward_ms: 8.0,
                clip_ms: 0.0,
                optimizer_ms: 1.5,
                checkpoint_ms: 0.0,
                eval_ms: 0.0,
                total_ms: 14.25,
            },
            TraceEvent::StepMetrics {
                step: 0,
                loss: 5.25,
                grad_norm: 1.5,
                lr: 0.01,
            },
            TraceEvent::ScaleSummary {
                step: 0,
                param: "layer0.wq".into(),
                min: 0.5,
                median: 1.0,
                max: 2.0,
                channels: 64,
            },
            TraceEvent::ProjectorRefresh {
                step: 0,
                param: "layer0.wq".into(),
                kind: "random".into(),
                rank: 4,
            },
            TraceEvent::LimiterClip {
                step: 3,
                param: "layer0.wq".into(),
                ratio: 1.75,
            },
            TraceEvent::Sentinel {
                step: 4,
                kind: "clip_non_finite".into(),
                action: "zero_step".into(),
            },
            TraceEvent::ReplicaEvent {
                step: 5,
                replica: 1,
                event: "kill".into(),
                replicas: 3,
            },
            TraceEvent::RunEnd {
                step: 30,
                wall_secs: 1.5,
            },
        ]
    }

    #[test]
    fn events_roundtrip_as_single_lines() {
        for e in sample_events() {
            let line = serde_json::to_string(&e).unwrap();
            assert!(!line.contains('\n'), "must stay one line: {line}");
            assert_eq!(parse_line(&line).unwrap(), e);
        }
    }

    #[test]
    fn writer_then_reader_roundtrips() {
        let dir = std::env::temp_dir().join("apollo-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let events = sample_events();
        {
            let mut w = TraceWriter::create(&path).unwrap();
            for e in &events {
                w.write(e);
            }
            assert_eq!(w.written(), events.len());
            w.flush().unwrap();
        }
        assert_eq!(read_trace(&path).unwrap(), events);
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let dir = std::env::temp_dir().join("apollo-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("malformed.jsonl");
        // Garbage, and an event kind this schema no longer has (a trace
        // from the deleted population search).
        for bad in [
            "not json",
            "{\"SearchRound\":{\"step\":20,\"round\":1,\"population\":4,\"best_member\":2,\"best_ppl\":42.5,\"worst_ppl\":61.25,\"cloned\":1}}",
        ] {
            std::fs::write(
                &path,
                format!("{{\"RunEnd\":{{\"step\":1,\"wall_secs\":0.1}}}}\n{bad}\n"),
            )
            .unwrap();
            let err = read_trace(&path).unwrap_err();
            assert!(err.contains("line 2"), "{err}");
        }
    }

    #[test]
    fn step_and_kind_accessors() {
        let e = TraceEvent::LimiterClip {
            step: 7,
            param: "w".into(),
            ratio: 2.0,
        };
        assert_eq!(e.step(), 7);
        assert_eq!(e.kind(), "LimiterClip");
    }
}
