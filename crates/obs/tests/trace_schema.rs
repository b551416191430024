//! Golden-file test pinning the JSONL trace schema.
//!
//! `golden_trace.jsonl` holds one line per [`TraceEvent`] kind, written by
//! the current serializer. Every line must (1) parse, (2) re-serialize to
//! the identical byte string, and (3) match the event the test constructs
//! in code. A failure here means the on-disk schema changed: update the
//! golden file *and* the consumers (`apollo trace-check`, the figure
//! probes, EXPERIMENTS.md) together.

use apollo_obs::{parse_line, TraceEvent};

const GOLDEN: &str = include_str!("golden_trace.jsonl");

/// The expected event for each golden line, in file order.
fn expected_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::RunStart {
            step: 0,
            optimizer: "apollo r=16".to_string(),
            model: "tiny-60m".to_string(),
            steps: 150,
        },
        TraceEvent::StepPhases {
            step: 3,
            batch_ms: 0.4,
            forward_ms: 21.5,
            backward_ms: 30.25,
            clip_ms: 0.5,
            optimizer_ms: 4.75,
            checkpoint_ms: 0.0,
            eval_ms: 0.0,
            total_ms: 58.5,
        },
        TraceEvent::StepMetrics {
            step: 3,
            loss: 6.25,
            grad_norm: 1.5,
            lr: 0.01,
        },
        TraceEvent::ScaleSummary {
            step: 3,
            param: "blk0.attn.wq".to_string(),
            min: 0.25,
            median: 1.0,
            max: 2.5,
            channels: 64,
        },
        TraceEvent::ProjectorRefresh {
            step: 200,
            param: "blk0.attn.wq".to_string(),
            kind: "random".to_string(),
            rank: 16,
        },
        TraceEvent::LimiterClip {
            step: 7,
            param: "blk0.mlp.w1".to_string(),
            ratio: 1.25,
        },
        TraceEvent::Sentinel {
            step: 9,
            kind: "clip_non_finite".to_string(),
            action: "zero_step".to_string(),
        },
        TraceEvent::RunEnd {
            step: 150,
            wall_secs: 7.5,
        },
        TraceEvent::InferStep {
            step: 12,
            prefill_rows: 16,
            decode_rows: 3,
            queue_depth: 2,
            active: 4,
            prefill_ms: 3.5,
            decode_ms: 1.25,
            total_ms: 5.0,
        },
        TraceEvent::InferRequest {
            step: 14,
            id: 7,
            prompt_tokens: 16,
            new_tokens: 32,
            tokens_per_sec: 96.0,
            outcome: "done".to_string(),
        },
        TraceEvent::ServeRequest {
            step: 21,
            status: 200,
            latency_ms: 12.5,
            outcome: "done".to_string(),
            in_flight: 3,
        },
        TraceEvent::PrefixCache {
            step: 33,
            lookups: 12,
            hits: 9,
            hit_tokens: 1152,
            cached_bytes: 65536,
            nodes: 5,
            evictions: 1,
        },
        TraceEvent::ServeDrain {
            step: 40,
            in_flight: 2,
            drained: 2,
            forced: 0,
            wall_ms: 37.5,
        },
        TraceEvent::ReplicaEvent {
            step: 18,
            replica: 1,
            event: "kill".to_string(),
            replicas: 3,
        },
    ]
}

#[test]
fn golden_file_covers_every_event_kind() {
    let kinds: Vec<&str> = expected_events().iter().map(TraceEvent::kind).collect();
    let mut unique = kinds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), kinds.len(), "duplicate kind in golden set");
    assert_eq!(
        kinds.len(),
        GOLDEN.lines().filter(|l| !l.trim().is_empty()).count(),
        "golden file line count must match the event-kind count"
    );
}

#[test]
fn golden_lines_parse_to_the_expected_events() {
    let expected = expected_events();
    for (line, want) in GOLDEN.lines().zip(&expected) {
        let got = parse_line(line).expect("golden line must parse");
        assert_eq!(&got, want, "schema drift on {}", want.kind());
    }
}

#[test]
fn golden_lines_round_trip_byte_identically() {
    for line in GOLDEN.lines().filter(|l| !l.trim().is_empty()) {
        let event = parse_line(line).expect("golden line must parse");
        let back = serde_json::to_string(&event).expect("serialize");
        assert_eq!(back, line, "re-serialization differs for {}", event.kind());
    }
}

#[test]
fn constructed_events_serialize_to_the_golden_lines() {
    let lines: Vec<&str> = GOLDEN.lines().filter(|l| !l.trim().is_empty()).collect();
    for (event, want) in expected_events().iter().zip(lines) {
        let got = serde_json::to_string(event).expect("serialize");
        assert_eq!(got, want, "serializer drift on {}", event.kind());
    }
}
