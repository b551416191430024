//! In-memory span recorder for the traced run.
//!
//! Spans are recorded here, in the benchmark, around calls into the
//! program's public functions — the program itself is not instrumented.
//! Each span carries a name, start, end, the span that caused it and the
//! id of the workload operation (step, tick, request) it belongs to. They
//! stay in memory while the workload runs and are written as JSON lines
//! when it ends.
//!
//! A recorder that is switched off records nothing, so the untraced run
//! executes the same loop with the recording compiled down to a branch.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its recorder.
pub type SpanId = u32;

/// "No parent" / "recorder is off".
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u64,
}

impl Span {
    fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            on,
        }
    }

    /// An empty recorder on the same clock, for another thread; merge it
    /// back with [`Recorder::absorb`].
    pub fn sibling(&self) -> Recorder {
        Recorder {
            epoch: self.epoch,
            spans: Vec::new(),
            on: self.on,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now. Returns [`NO_SPAN`] when the recorder is off.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            let now = self.ns(Instant::now());
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Records a span from two timestamps the caller already took (the
    /// load generator stamps every token line whether or not it traces).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Self times (ms) of every span called `name`: its duration minus the
    /// part of its interval that its direct children cover. Overlapping
    /// children (two threads under one parent) are counted once.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                let p = &self.spans[s.parent as usize];
                let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if hi > lo {
                    kids[s.parent as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut kids)
            .filter(|(s, _)| s.name == name)
            .map(|(s, k)| {
                k.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in k.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e6
            })
            .collect()
    }

    /// Writes one JSON object per span. Nothing is written when off.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        if !self.on {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(r: &Recorder, ms: u64) -> Instant {
        r.epoch + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new(true);
        let step = r.record("step", NO_SPAN, 7, at(&r, 0), at(&r, 100));
        r.record("fwd", step, 7, at(&r, 10), at(&r, 40));
        r.record("bwd", step, 7, at(&r, 40), at(&r, 90));
        // A grandchild must not be subtracted from the grandparent twice.
        r.record("matmul", 1, 7, at(&r, 15), at(&r, 30));
        assert_eq!(r.durations_ms("step"), vec![100.0]);
        assert_eq!(r.self_ms("step"), vec![20.0]);
        assert_eq!(r.self_ms("fwd"), vec![15.0]);
        assert_eq!(r.self_ms("bwd"), vec![50.0]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let mut r = Recorder::new(true);
        let req = r.record("req", NO_SPAN, 0, at(&r, 0), at(&r, 50));
        r.record("a", req, 0, at(&r, 10), at(&r, 30));
        r.record("b", req, 0, at(&r, 20), at(&r, 40));
        // Runs past its parent: only the part inside counts.
        r.record("c", req, 0, at(&r, 45), at(&r, 80));
        assert_eq!(r.self_ms("req"), vec![15.0]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut main = Recorder::new(true);
        main.record("x", NO_SPAN, 0, at(&main, 0), at(&main, 1));
        let mut other = main.sibling();
        let p = other.record("req", NO_SPAN, 1, at(&main, 0), at(&main, 10));
        other.record("ttft", p, 1, at(&main, 0), at(&main, 4));
        main.absorb(other);
        assert_eq!(main.len(), 3);
        assert_eq!(main.self_ms("req"), vec![6.0]);
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.begin("step", NO_SPAN, 0);
        assert_eq!(id, NO_SPAN);
        r.end(id);
        assert_eq!(r.len(), 0);
    }
}
