//! The four workloads and what they share: the run context, repeated
//! set-up, and the process's peak memory.

pub mod decode;
pub mod optstep;
pub mod pretrain;
pub mod serve;

use std::time::{Duration, Instant};

use crate::report::Outcome;
use crate::stats;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Ctx {
    /// Work per run is a fixed count, never a duration: `per_second` is a
    /// rate frozen from the reference box, so a run takes about `--seconds`
    /// there and does the same operations everywhere. A traced run does the
    /// work twice — an untraced reference pass, then the traced pass whose
    /// outputs must equal it — so each pass gets half.
    pub fn count(&self, per_second: f64) -> usize {
        let full = per_second * self.seconds as f64;
        let n = if self.trace { full / 2.0 } else { full };
        (n.round() as usize).max(1)
    }
}

/// Set-up runs this many times per process and the median is reported:
/// the first pass pays page faults and allocator growth the others do not,
/// and a single timing of under a second moves by 10% and more run to run
/// on a shared host.
pub const SETUP_REPEATS: usize = 5;

/// Block sizes of the block-wise estimators (`stats::block_median`) for the
/// serial loops (train steps, optimizer steps): rates per 10 operations,
/// tail percentiles per 20.
pub const RATE_BLOCK: usize = 10;
pub const TAIL_BLOCK: usize = 20;

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last result; returns
/// it with the median wall time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS > 0"), stats::median(&times))
}

/// The two metrics every workload reports the same way. Called after the
/// untraced pass, before anything a traced run adds, so `peak_rss_mb` means
/// the same in both.
pub fn put_setup_and_rss(out: &mut Outcome, setup_s: f64) {
    out.put("setup_s", setup_s, "s", SETUP_REPEATS);
    out.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB. Each workload runs
/// in a process of its own, so this is the workload's peak.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Traced over untraced, minus one, in percent. Callers pass the median
/// operation time of each pass rather than its wall time: the two passes
/// run seconds apart on a shared host, and a burst in one of them is not
/// tracing overhead.
pub fn trace_overhead_pct(traced_ms: f64, untraced_ms: f64) -> f64 {
    (traced_ms / untraced_ms - 1.0) * 100.0
}
