//! Open-loop Poisson load generator with deterministic fault injection.
//!
//! Open loop means arrivals are scheduled by the clock, not by response
//! completion — the generator keeps offering load at the configured rate
//! even when the server slows down, which is what makes overload (and the
//! shedding path) reachable at all. Inter-arrival gaps are exponential
//! draws from a seeded [`apollo_tensor::Rng`], so a given
//! `(seed, rate, requests)` triple always produces the same arrival
//! schedule and the same fault plan.
//!
//! Faults, chosen per-request from the same deterministic stream
//! ([`FaultMix`]):
//!
//! - **slow-loris** — trickle one header byte at a time past the server's
//!   header deadline; the server must answer 408 or close, never hang.
//! - **disconnect** — start a streaming generate, read one chunk, drop
//!   the socket; the server must cancel the request and free its slot.
//! - **malformed** — send a garbage request line; the server must answer
//!   400 and keep the connection count sane.
//! - **burst** — fire a back-to-back clump of extra requests with no
//!   inter-arrival gap, pushing the server through its shed watermark.
//!
//! Well-formed requests retry on 429/503 with capped exponential backoff
//! honoring `Retry-After` (generation is idempotent per seed, so retries
//! are safe). The run produces a [`LoadReport`] with latency percentiles
//! over successful requests, goodput, and the shed rate.
//!
//! **Traffic shape.** `prefix_reuse` models the shared-system-prompt
//! pattern that prefix caching exists for: that fraction of requests
//! opens with a deterministic `prefix_len`-token prefix (one per
//! adapter, derived from the run seed) followed by a per-request random
//! suffix. `adapters` spreads requests across the first N adapter names
//! advertised by `/healthz`, exercising multi-tenant batching.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apollo_tensor::Rng;
use serde::Value;

use crate::net::{self, ChunkedReader};

/// Per-request fault probabilities (the rest arrive well-formed).
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    /// Probability of a slow-loris request (trickled header bytes).
    pub slow_loris: f64,
    /// Probability of a mid-stream client disconnect.
    pub disconnect: f64,
    /// Probability of a malformed request line.
    pub malformed: f64,
    /// Probability that a request arrives as a burst of `burst_size`
    /// back-to-back submissions.
    pub burst: f64,
    /// Requests per burst.
    pub burst_size: usize,
}

impl FaultMix {
    /// No faults — pure well-formed load.
    pub fn none() -> Self {
        FaultMix {
            slow_loris: 0.0,
            disconnect: 0.0,
            malformed: 0.0,
            burst: 0.0,
            burst_size: 4,
        }
    }
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            slow_loris: 0.05,
            disconnect: 0.05,
            malformed: 0.05,
            burst: 0.05,
            burst_size: 4,
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:8337`.
    pub addr: String,
    /// Well-formed request count (faults ride on top of these arrivals).
    pub requests: usize,
    /// Offered load in requests/second (open loop).
    pub rate: f64,
    /// Seed for arrivals, fault plan, and per-request sampling seeds.
    pub seed: u64,
    /// Prompt length in tokens (clamped to the server's KV capacity).
    pub prompt_len: usize,
    /// `max_new_tokens` sent with each request.
    pub max_new_tokens: usize,
    /// `deadline_ms` sent with each request.
    pub deadline_ms: u64,
    /// Request streamed (chunked NDJSON) responses.
    pub stream: bool,
    /// Retries after 429/503 before counting the request as shed.
    pub max_retries: usize,
    /// Ceiling on the per-attempt backoff (bounds `Retry-After`).
    pub backoff_cap: Duration,
    /// Client-side timeout per attempt.
    pub timeout: Duration,
    /// Fault plan.
    pub faults: FaultMix,
    /// Fraction of well-formed requests that open with the shared prefix
    /// (0 disables the shape and keeps the legacy request stream).
    pub prefix_reuse: f64,
    /// Shared-prefix length in tokens (clamped so at least one suffix
    /// token remains).
    pub prefix_len: usize,
    /// Spread requests across this many adapters from `/healthz`
    /// (clamped to what the server advertises; 0 = no adapter field).
    pub adapters: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            requests: 50,
            rate: 50.0,
            seed: 0,
            prompt_len: 8,
            max_new_tokens: 8,
            deadline_ms: 5_000,
            stream: false,
            max_retries: 3,
            backoff_cap: Duration::from_millis(200),
            timeout: Duration::from_secs(30),
            faults: FaultMix::none(),
            prefix_reuse: 0.0,
            prefix_len: 0,
            adapters: 0,
        }
    }
}

/// Aggregated outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Well-formed requests sent (including burst extras).
    pub sent: usize,
    /// Requests that completed with HTTP 200 and a terminal outcome.
    pub ok: usize,
    /// Requests still shed (429/503) after all retries.
    pub shed: usize,
    /// Requests rejected with a non-retryable 4xx.
    pub rejected: usize,
    /// Requests that timed out client-side.
    pub timed_out: usize,
    /// Transport-level failures (connect/read/write errors).
    pub transport_errors: usize,
    /// Faults injected (slow-loris + disconnect + malformed).
    pub faults_injected: usize,
    /// Well-formed requests that opened with the shared prefix.
    pub prefix_sent: usize,
    /// Fault probes whose response matched expectations (e.g. 400 for a
    /// malformed line).
    pub faults_expected: usize,
    /// Latency percentiles over successful requests, milliseconds.
    pub p50_ms: f32,
    pub p99_ms: f32,
    pub p999_ms: f32,
    /// Successful requests per second of wall time.
    pub goodput_rps: f32,
    /// `shed / sent`.
    pub shed_rate: f32,
    /// Total wall time.
    pub wall_ms: f32,
}

enum ReqOutcome {
    Ok { latency_ms: f32 },
    Shed,
    Rejected,
    TimedOut,
    Transport,
    FaultDone { expected: bool },
}

/// One well-formed submission's shape, fully determined at plan time so
/// workers stay schedule-independent.
#[derive(Clone)]
struct Shot {
    seed: u64,
    /// Adapter name sent with the request (absent → base model).
    adapter: Option<String>,
    /// Shared prefix tokens (empty → plain random prompt).
    prefix: Vec<u32>,
}

enum Plan {
    Normal { shot: Shot },
    Burst { shots: Vec<Shot> },
    SlowLoris,
    Disconnect { shot: Shot },
    Malformed,
}

/// Draws one shot from the deterministic stream. With shaping disabled
/// this consumes exactly one `next_u64`, preserving the legacy request
/// stream for a given seed.
fn draw_shot(
    rng: &mut Rng,
    cfg: &LoadConfig,
    pool: &[String],
    prefixes: &[Vec<u32>],
    shaped: bool,
) -> Shot {
    let seed = rng.next_u64();
    if !shaped {
        return Shot {
            seed,
            adapter: None,
            prefix: Vec::new(),
        };
    }
    // Index pool.len() is the no-adapter prefix slot.
    let idx = if pool.is_empty() {
        pool.len()
    } else {
        rng.below(pool.len())
    };
    let reuse = (rng.uniform() as f64) < cfg.prefix_reuse;
    Shot {
        seed,
        adapter: pool.get(idx).cloned(),
        prefix: if reuse {
            prefixes[idx].clone()
        } else {
            Vec::new()
        },
    }
}

/// Runs the load generator against a serving front-end.
///
/// Reads `vocab_size` and `kv_capacity` from `GET /healthz` first, so
/// prompts always use valid token ids and admissible lengths.
///
/// # Errors
///
/// Returns a message when the server is unreachable or `/healthz` does
/// not parse; per-request failures are *counted*, not returned.
pub fn run_loadgen(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let (vocab_size, kv_capacity, advertised) = fetch_health(&cfg.addr, cfg.timeout)?;
    let prompt_len = cfg.prompt_len.clamp(1, kv_capacity);
    let pool: Vec<String> = advertised.into_iter().take(cfg.adapters).collect();
    if cfg.adapters > 0 && pool.is_empty() {
        return Err("--adapters requested but the server advertises none".to_string());
    }
    let shaped = cfg.prefix_reuse > 0.0 || !pool.is_empty();
    // Shared prefixes: one per adapter plus a no-adapter slot, derived
    // from the run seed so retries and workers agree on every token.
    let prefix_len = cfg.prefix_len.min(prompt_len.saturating_sub(1));
    let prefixes: Vec<Vec<u32>> = (0..=pool.len())
        .map(|i| {
            deterministic_prompt(
                cfg.seed ^ 0x9e37_79b9 ^ ((i as u64) << 32),
                vocab_size,
                prefix_len,
            )
        })
        .collect();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x5e7e_11ad);

    // Draw the complete arrival + fault plan up front: determinism must
    // not depend on worker-thread scheduling.
    let mut plans: Vec<(Duration, Plan)> = Vec::with_capacity(cfg.requests);
    let mut at = Duration::ZERO;
    for _ in 0..cfg.requests {
        let f = &cfg.faults;
        let roll = rng.uniform() as f64;
        let plan = if roll < f.slow_loris {
            Plan::SlowLoris
        } else if roll < f.slow_loris + f.disconnect {
            Plan::Disconnect {
                shot: draw_shot(&mut rng, cfg, &pool, &prefixes, shaped),
            }
        } else if roll < f.slow_loris + f.disconnect + f.malformed {
            Plan::Malformed
        } else if roll < f.slow_loris + f.disconnect + f.malformed + f.burst {
            Plan::Burst {
                shots: (0..f.burst_size.max(1))
                    .map(|_| draw_shot(&mut rng, cfg, &pool, &prefixes, shaped))
                    .collect(),
            }
        } else {
            Plan::Normal {
                shot: draw_shot(&mut rng, cfg, &pool, &prefixes, shaped),
            }
        };
        // Exponential inter-arrival gap for an open-loop Poisson process.
        let u = (rng.uniform() as f64).clamp(1e-9, 1.0 - 1e-9);
        let gap = -u.ln() / cfg.rate.max(1e-9);
        at += Duration::from_secs_f64(gap);
        plans.push((at, plan));
    }

    let (tx, rx) = mpsc::channel::<ReqOutcome>();
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let t0 = Instant::now();
    let mut sent = 0usize;
    let mut faults_injected = 0usize;
    let mut prefix_sent = 0usize;
    for (when, plan) in plans {
        let now = t0.elapsed();
        if when > now {
            std::thread::sleep(when - now);
        }
        match plan {
            Plan::SlowLoris => {
                faults_injected += 1;
                spawn_worker(&mut workers, tx.clone(), cfg.clone(), move |cfg, tx| {
                    let _ = tx.send(run_slow_loris(&cfg));
                });
            }
            Plan::Malformed => {
                faults_injected += 1;
                spawn_worker(&mut workers, tx.clone(), cfg.clone(), move |cfg, tx| {
                    let _ = tx.send(run_malformed(&cfg));
                });
            }
            Plan::Disconnect { shot } => {
                faults_injected += 1;
                sent += 1;
                prefix_sent += usize::from(!shot.prefix.is_empty());
                spawn_worker(&mut workers, tx.clone(), cfg.clone(), move |cfg, tx| {
                    let _ = tx.send(run_disconnect(&cfg, &shot, vocab_size, prompt_len));
                });
            }
            Plan::Normal { shot } => {
                sent += 1;
                prefix_sent += usize::from(!shot.prefix.is_empty());
                spawn_worker(&mut workers, tx.clone(), cfg.clone(), move |cfg, tx| {
                    let _ = tx.send(run_request(&cfg, &shot, vocab_size, prompt_len));
                });
            }
            Plan::Burst { shots } => {
                for shot in shots {
                    sent += 1;
                    prefix_sent += usize::from(!shot.prefix.is_empty());
                    spawn_worker(&mut workers, tx.clone(), cfg.clone(), move |cfg, tx| {
                        let _ = tx.send(run_request(&cfg, &shot, vocab_size, prompt_len));
                    });
                }
            }
        }
    }
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    let wall_ms = t0.elapsed().as_secs_f32() * 1e3;

    let mut latencies: Vec<f32> = Vec::new();
    let (mut ok, mut shed, mut rejected, mut timed_out, mut transport, mut expected) =
        (0, 0, 0, 0, 0, 0);
    for outcome in rx {
        match outcome {
            ReqOutcome::Ok { latency_ms } => {
                ok += 1;
                latencies.push(latency_ms);
            }
            ReqOutcome::Shed => shed += 1,
            ReqOutcome::Rejected => rejected += 1,
            ReqOutcome::TimedOut => timed_out += 1,
            ReqOutcome::Transport => transport += 1,
            ReqOutcome::FaultDone { expected: e } => {
                if e {
                    expected += 1;
                }
            }
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f32 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    Ok(LoadReport {
        sent,
        ok,
        shed,
        rejected,
        timed_out,
        transport_errors: transport,
        faults_injected,
        prefix_sent,
        faults_expected: expected,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        p999_ms: pct(0.999),
        goodput_rps: if wall_ms > 0.0 {
            ok as f32 / (wall_ms / 1e3)
        } else {
            0.0
        },
        shed_rate: if sent > 0 {
            shed as f32 / sent as f32
        } else {
            0.0
        },
        wall_ms,
    })
}

fn spawn_worker(
    workers: &mut Vec<JoinHandle<()>>,
    tx: mpsc::Sender<ReqOutcome>,
    cfg: LoadConfig,
    f: impl FnOnce(LoadConfig, mpsc::Sender<ReqOutcome>) + Send + 'static,
) {
    let handle = std::thread::Builder::new()
        .name("apollo-loadgen".to_string())
        .spawn(move || f(cfg, tx))
        .expect("spawn loadgen worker");
    workers.push(handle);
}

/// Queries `/healthz` for `(vocab_size, kv_capacity, adapter names)`.
fn fetch_health(addr: &str, timeout: Duration) -> Result<(usize, usize, Vec<String>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    net::write_request(&mut stream, "GET", "/healthz", &[], b"")
        .map_err(|e| format!("healthz write: {e}"))?;
    let resp =
        net::read_response(&mut stream, timeout).map_err(|e| format!("healthz read: {e}"))?;
    if resp.status != 200 {
        return Err(format!("healthz returned {}", resp.status));
    }
    let text = String::from_utf8_lossy(&resp.body).to_string();
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("healthz body: {e}"))?;
    let get = |name: &str| -> Result<usize, String> {
        match value.get_field(name) {
            Ok(Value::Num(n)) => n
                .as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| format!("healthz `{name}` not a count")),
            _ => Err(format!("healthz missing `{name}`")),
        }
    };
    let adapters = match value.get_field("adapters") {
        Ok(Value::Arr(items)) => items
            .iter()
            .filter_map(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok((get("vocab_size")?, get("kv_capacity")?, adapters))
}

fn deterministic_prompt(seed: u64, vocab_size: usize, len: usize) -> Vec<u32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| rng.below(vocab_size.max(1)) as u32)
        .collect()
}

fn generate_body(cfg: &LoadConfig, shot: &Shot, vocab_size: usize, prompt_len: usize) -> String {
    let mut prompt = shot.prefix.clone();
    let suffix_len = prompt_len.saturating_sub(prompt.len()).max(1);
    prompt.extend(deterministic_prompt(shot.seed, vocab_size, suffix_len));
    let toks: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    let adapter = match &shot.adapter {
        Some(name) => format!(
            ",\"adapter\":\"{}\"",
            name.replace('\\', "\\\\").replace('"', "\\\"")
        ),
        None => String::new(),
    };
    format!(
        "{{\"prompt\":[{}],\"max_new_tokens\":{},\"deadline_ms\":{},\"seed\":{},\"stream\":{}{}}}",
        toks.join(","),
        cfg.max_new_tokens,
        cfg.deadline_ms,
        shot.seed,
        cfg.stream,
        adapter
    )
}

/// One well-formed request with capped exponential backoff on 429/503.
/// Generation is deterministic per seed, so retrying is idempotent.
fn run_request(cfg: &LoadConfig, shot: &Shot, vocab_size: usize, prompt_len: usize) -> ReqOutcome {
    let body = generate_body(cfg, shot, vocab_size, prompt_len);
    let t0 = Instant::now();
    for attempt in 0..=cfg.max_retries {
        let Ok(mut stream) = TcpStream::connect(&cfg.addr) else {
            return ReqOutcome::Transport;
        };
        if net::write_request(&mut stream, "POST", "/generate", &[], body.as_bytes()).is_err() {
            return ReqOutcome::Transport;
        }
        let resp = match net::read_response(&mut stream, cfg.timeout) {
            Ok(r) => r,
            Err(net::HttpError::DeadlineExceeded) => return ReqOutcome::TimedOut,
            Err(_) => return ReqOutcome::Transport,
        };
        match resp.status {
            200 => {
                return ReqOutcome::Ok {
                    latency_ms: t0.elapsed().as_secs_f32() * 1e3,
                }
            }
            429 | 503 => {
                if attempt == cfg.max_retries {
                    return ReqOutcome::Shed;
                }
                // Honor Retry-After, but bound it: exponential growth with
                // a hard cap keeps the open loop from collapsing into a
                // closed one.
                let advertised = resp
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(Duration::from_secs)
                    .unwrap_or(Duration::from_millis(20));
                let backoff = advertised
                    .min(cfg.backoff_cap)
                    .max(Duration::from_millis(5))
                    * 2u32.saturating_pow(attempt as u32);
                std::thread::sleep(backoff.min(cfg.backoff_cap * 4));
            }
            408 => return ReqOutcome::TimedOut,
            _ => return ReqOutcome::Rejected,
        }
    }
    ReqOutcome::Shed
}

/// Trickles header bytes slower than the server's header deadline; the
/// expected end state is a 408 or a server-side close — anything but a
/// hang.
fn run_slow_loris(cfg: &LoadConfig) -> ReqOutcome {
    let Ok(mut stream) = TcpStream::connect(&cfg.addr) else {
        return ReqOutcome::FaultDone { expected: false };
    };
    let head = b"POST /generate HTTP/1.1\r\nHost: apollo\r\nContent-Length: 10\r\n";
    let deadline = Instant::now() + cfg.timeout;
    for byte in head.iter() {
        if Instant::now() >= deadline {
            break;
        }
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            // Server hung up on us mid-trickle: that is the defense working.
            return ReqOutcome::FaultDone { expected: true };
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    // Never send the terminating blank line; wait for the server's verdict.
    match net::read_response(&mut stream, cfg.timeout) {
        Ok(resp) => ReqOutcome::FaultDone {
            expected: resp.status == 408,
        },
        // Truncated/closed also means the server refused to wait.
        Err(net::HttpError::Truncated) | Err(net::HttpError::Io(_)) => {
            ReqOutcome::FaultDone { expected: true }
        }
        Err(_) => ReqOutcome::FaultDone { expected: false },
    }
}

/// Sends a garbage request line; expects 400.
fn run_malformed(cfg: &LoadConfig) -> ReqOutcome {
    let Ok(mut stream) = TcpStream::connect(&cfg.addr) else {
        return ReqOutcome::FaultDone { expected: false };
    };
    if stream
        .write_all(b"NOT A REAL REQUEST LINE\r\nstill: not-http\r\n\r\n")
        .is_err()
    {
        return ReqOutcome::FaultDone { expected: false };
    }
    match net::read_response(&mut stream, cfg.timeout) {
        Ok(resp) => ReqOutcome::FaultDone {
            expected: resp.status == 400,
        },
        Err(_) => ReqOutcome::FaultDone { expected: false },
    }
}

/// Starts a streaming generate, reads at most one chunk, then drops the
/// socket — the server must cancel the request (no leaked slot).
fn run_disconnect(
    cfg: &LoadConfig,
    shot: &Shot,
    vocab_size: usize,
    prompt_len: usize,
) -> ReqOutcome {
    let mut cfg = cfg.clone();
    cfg.stream = true;
    let body = generate_body(&cfg, shot, vocab_size, prompt_len);
    let Ok(mut stream) = TcpStream::connect(&cfg.addr) else {
        return ReqOutcome::FaultDone { expected: false };
    };
    if net::write_request(&mut stream, "POST", "/generate", &[], body.as_bytes()).is_err() {
        return ReqOutcome::FaultDone { expected: false };
    }
    let head = match net::read_response_head(&mut stream, cfg.timeout) {
        Ok(h) => h,
        Err(_) => return ReqOutcome::FaultDone { expected: false },
    };
    if head.status != 200 {
        // Shed before streaming started: still a valid server response.
        return ReqOutcome::FaultDone {
            expected: head.status == 429 || head.status == 503,
        };
    }
    let mut reader = ChunkedReader::new(&mut stream, head.leftover, cfg.timeout);
    let _ = reader.next_chunk();
    // Drop the connection mid-stream.
    drop(stream);
    ReqOutcome::FaultDone { expected: true }
}
