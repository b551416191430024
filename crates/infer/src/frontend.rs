//! Resilient HTTP serving front-end over the continuous-batching
//! [`Server`].
//!
//! One acceptor thread hands each connection to a detached handler
//! thread; handlers speak the [`crate::net`] wire protocol with
//! keep-alive. The endpoints:
//!
//! - `GET /healthz` — JSON snapshot: `vocab_size`, `kv_capacity`,
//!   `in_flight`, `draining`, `adapters` (registered names). Load
//!   generators read their token range, prompt bound, and adapter pool
//!   from here.
//! - `GET /stats` — serving counters: prefix-cache hit rate, resident
//!   and evicted adapters, KV bytes in use, in-flight requests (see
//!   [`crate::ServeStats`]).
//! - `POST /generate` — JSON body `{prompt: [u32], adapter?,
//!   max_new_tokens?, deadline_ms?, temperature?, top_k?, top_p?, seed?,
//!   stop_token?, stream?}`. `adapter` names a registered LoRA adapter
//!   (unknown names get 400). Non-streaming returns one JSON object;
//!   `stream: true` returns chunked NDJSON — one `{"token": n}` line per
//!   sampled token, then a final `{"done": ...}` line.
//!
//! Admission control maps every [`SubmitError`] onto a status code
//! through one table — 429 (`Retry-After`) for queue-full, 413 for
//! prompt-too-long, 400 for empty prompts and unknown adapters, and 503
//! (`Retry-After`) for a queue-full from a draining server — with a
//! **shed watermark** below the hard queue bound: once `in_flight` reaches
//! it, new generate requests are shed with 429 *before* touching the
//! server, keeping headroom so queued work still meets deadlines. During
//! drain, generate returns 503.
//!
//! Every client failure mode feeds a counter (`serve.*`) and a
//! [`TraceEvent::ServeRequest`]; a mid-stream disconnect cancels the
//! in-flight request via [`GenHandle`] drop so no scheduler slot leaks.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apollo_nn::{AdapterRegistry, DecodeBackend};
use apollo_obs::{Obs, TraceEvent};
use serde::Value;

use crate::net::{self, ChunkedWriter, HttpError, HttpLimits, Request};
use crate::scheduler::{GenRequest, SchedConfig, SubmitError};
use crate::server::{GenEvent, GenHandle, Server, WaitError};
use crate::GenConfig;

/// Front-end configuration (the scheduler has its own [`SchedConfig`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Per-connection wire-protocol limits.
    pub limits: HttpLimits,
    /// Shed generate requests with 429 once `in_flight` reaches this.
    /// Keep it below the scheduler's `queue_cap` so shedding (cheap,
    /// early) engages before hard queue-full (late, after parsing).
    pub shed_watermark: usize,
    /// Deadline applied when a request does not send `deadline_ms`.
    pub default_deadline: Duration,
    /// Upper bound on client-requested deadlines.
    pub max_deadline: Duration,
    /// How long [`Frontend::shutdown`] waits for in-flight requests.
    pub drain_deadline: Duration,
    /// Seconds advertised in `Retry-After` on 429/503.
    pub retry_after_secs: u64,
    /// Upper bound on client-requested `max_new_tokens`.
    pub max_new_tokens_cap: usize,
    /// Extra wall time past a request's deadline before the front-end
    /// gives up waiting (408) — covers scheduler tick granularity.
    pub wait_slack: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            limits: HttpLimits::default(),
            shed_watermark: 48,
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            drain_deadline: Duration::from_secs(5),
            retry_after_secs: 1,
            max_new_tokens_cap: 256,
            wait_slack: Duration::from_secs(10),
        }
    }
}

/// What [`Frontend::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// In-flight requests when drain began.
    pub in_flight_at_drain: usize,
    /// Requests that retired within the drain deadline.
    pub drained: usize,
    /// Requests still running when the deadline passed (they finish in
    /// the background; the count records the SLO miss).
    pub forced: usize,
    /// Wall time spent draining.
    pub wall_ms: f32,
}

struct Inner {
    server: Server,
    obs: Obs,
    cfg: ServeConfig,
    vocab_size: usize,
    /// Serve-request sequence number, used as the trace `step`.
    requests: AtomicUsize,
    /// Open connections (acceptor + handlers keep this honest).
    conns: AtomicUsize,
}

/// A listening serving front-end. [`Frontend::shutdown`] drains
/// gracefully; dropping without shutdown stops accepting and drains with
/// the same deadline.
pub struct Frontend {
    inner: Arc<Inner>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Frontend {
    /// Binds `cfg.addr`, starts the generation [`Server`], and spawns the
    /// acceptor thread. Generate requests may name any adapter in
    /// `registry` (resolved to its dense id here; unknown names get 400
    /// before touching the scheduler); pass [`AdapterRegistry::empty`] to
    /// serve the base model only.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    ///
    /// # Panics
    ///
    /// Panics on a non-empty registry over an INT8 backend.
    pub fn start_multi(
        model: impl Into<DecodeBackend>,
        sched: SchedConfig,
        cfg: ServeConfig,
        obs: Obs,
        registry: Arc<AdapterRegistry>,
    ) -> io::Result<Frontend> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let model = model.into();
        let vocab_size = model.config().vocab_size;
        let server = Server::start_multi(model, sched, obs.clone(), registry);
        let inner = Arc::new(Inner {
            server,
            obs,
            cfg,
            vocab_size,
            requests: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("apollo-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &inner, &stop))
                .expect("spawn acceptor thread")
        };
        Ok(Frontend {
            inner,
            stop,
            acceptor: Some(acceptor),
            addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// In-flight generation requests (accepted, not yet retired).
    pub fn in_flight(&self) -> usize {
        self.inner.server.in_flight()
    }

    /// The shared serving counters — the same numbers `GET /stats`
    /// renders, for in-process callers (the bench harness).
    pub fn stats(&self) -> Arc<crate::ServeStats> {
        Arc::clone(self.inner.server.stats())
    }

    /// Graceful drain: stop accepting connections, reject new generate
    /// requests with 503, wait up to `drain_deadline` for in-flight work,
    /// and report what drained versus what was still running.
    pub fn shutdown(mut self) -> DrainReport {
        self.drain()
    }

    fn drain(&mut self) -> DrainReport {
        let t0 = Instant::now();
        self.inner.server.begin_drain();
        self.stop.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let in_flight_at_drain = self.inner.server.in_flight();
        let deadline = t0 + self.inner.cfg.drain_deadline;
        while self.inner.server.in_flight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let forced = self.inner.server.in_flight();
        let drained = in_flight_at_drain - forced;
        // Give keep-alive handlers (parked in idle reads, bounded by
        // idle_timeout) a chance to notice the drain and close.
        let conn_grace = Instant::now() + self.inner.cfg.limits.idle_timeout;
        while self.inner.conns.load(Ordering::Relaxed) > 0 && Instant::now() < conn_grace {
            std::thread::sleep(Duration::from_millis(2));
        }
        let wall_ms = t0.elapsed().as_secs_f32() * 1e3;
        let report = DrainReport {
            in_flight_at_drain,
            drained,
            forced,
            wall_ms,
        };
        let obs = &self.inner.obs;
        obs.counter("serve.drained", drained as u64);
        let step = self.inner.requests.load(Ordering::Relaxed);
        obs.emit(|| TraceEvent::ServeDrain {
            step,
            in_flight: in_flight_at_drain,
            drained,
            forced,
            wall_ms,
        });
        report
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.drain();
        }
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue; // peer already gone
                }
                let _ = stream.set_nodelay(true);
                inner.conns.fetch_add(1, Ordering::Relaxed);
                let conn_inner = Arc::clone(inner);
                let spawned = std::thread::Builder::new()
                    .name("apollo-serve-conn".to_string())
                    .spawn(move || {
                        handle_conn(&conn_inner, stream);
                        conn_inner.conns.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    inner.conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One keep-alive session: read requests until the peer closes, errors,
/// asks to close, or the server starts draining.
fn handle_conn(inner: &Arc<Inner>, mut stream: TcpStream) {
    loop {
        match net::read_request(&mut stream, &inner.cfg.limits) {
            Ok(Some(req)) => {
                let close = handle_request(inner, &mut stream, &req);
                if close || inner.server.is_draining() {
                    break;
                }
            }
            Ok(None) | Err(HttpError::IdleTimeout) => break, // quiet keep-alive end
            Err(HttpError::DeadlineExceeded) => {
                // Slow-loris: the head never completed. Best-effort 408.
                record(inner, 408, "slow_loris", Instant::now());
                inner.obs.counter("serve.timed_out", 1);
                let _ = net::write_response(&mut stream, 408, &[], b"{\"error\":\"timeout\"}");
                break;
            }
            Err(HttpError::Truncated) | Err(HttpError::Io(_)) => {
                inner.obs.counter("serve.disconnected", 1);
                break;
            }
            Err(HttpError::TooLarge) => {
                record(inner, 413, "malformed", Instant::now());
                inner.obs.counter("serve.malformed", 1);
                let _ = net::write_response(&mut stream, 413, &[], b"{\"error\":\"too large\"}");
                break;
            }
            Err(HttpError::Malformed(why)) => {
                record(inner, 400, "malformed", Instant::now());
                inner.obs.counter("serve.malformed", 1);
                let body = format!("{{\"error\":{}}}", json_str(why));
                let _ = net::write_response(&mut stream, 400, &[], body.as_bytes());
                break;
            }
        }
    }
}

/// Dispatches one parsed request; returns whether to close the connection.
fn handle_request(inner: &Arc<Inner>, stream: &mut TcpStream, req: &Request) -> bool {
    let t0 = Instant::now();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let names: Vec<String> = inner
                .server
                .registry()
                .names()
                .iter()
                .map(|n| json_str(n))
                .collect();
            let body = format!(
                "{{\"vocab_size\":{},\"kv_capacity\":{},\"in_flight\":{},\"draining\":{},\"adapters\":[{}]}}",
                inner.vocab_size,
                inner.server.kv_capacity(),
                inner.server.in_flight(),
                inner.server.is_draining(),
                names.join(",")
            );
            let _ = net::write_response(stream, 200, &[], body.as_bytes());
            req.wants_close()
        }
        ("GET", "/stats") => {
            let body = stats_json(inner);
            let _ = net::write_response(stream, 200, &[], body.as_bytes());
            req.wants_close()
        }
        ("POST", "/generate") => handle_generate(inner, stream, req, t0),
        (_, "/healthz") | (_, "/generate") | (_, "/stats") => {
            record(inner, 405, "malformed", t0);
            let _ = net::write_response(stream, 405, &[], b"{\"error\":\"method not allowed\"}");
            req.wants_close()
        }
        _ => {
            record(inner, 404, "malformed", t0);
            let _ = net::write_response(stream, 404, &[], b"{\"error\":\"not found\"}");
            req.wants_close()
        }
    }
}

/// The generate endpoint: admission control, submission, then either a
/// buffered or a streamed response. Returns whether to close.
fn handle_generate(inner: &Arc<Inner>, stream: &mut TcpStream, req: &Request, t0: Instant) -> bool {
    let cfg = &inner.cfg;
    if inner.server.is_draining() {
        inner.obs.counter("serve.shed", 1);
        return refuse(inner, stream, req, SubmitError::QueueFull, t0);
    }
    let parsed = match parse_generate_body(&req.body, cfg) {
        Ok(p) => p,
        Err(why) => {
            record(inner, 400, "malformed", t0);
            inner.obs.counter("serve.malformed", 1);
            let body = format!("{{\"error\":{}}}", json_str(&why));
            let _ = net::write_response(stream, 400, &[], body.as_bytes());
            return req.wants_close();
        }
    };
    // Resolve the adapter name against the registry before submission so
    // unknown tenants fail fast (and cheap) with the name echoed back.
    let adapter = match &parsed.adapter {
        None => None,
        Some(name) => match inner.server.registry().id(name) {
            Some(id) => Some(id),
            None => {
                record(inner, 400, "unknown_adapter", t0);
                inner.obs.counter("serve.unknown_adapter", 1);
                let body = format!(
                    "{{\"error\":\"unknown adapter\",\"adapter\":{}}}",
                    json_str(name)
                );
                let _ = net::write_response(stream, 400, &[], body.as_bytes());
                return req.wants_close();
            }
        },
    };
    // Load shedding: reject early while the hard queue bound still has
    // headroom, so already-accepted work keeps meeting its deadlines.
    if inner.server.in_flight() >= cfg.shed_watermark {
        record(inner, 429, "shed", t0);
        inner.obs.counter("serve.shed", 1);
        let retry = [("Retry-After", cfg.retry_after_secs.to_string())];
        let _ = net::write_response(stream, 429, &retry, b"{\"error\":\"shedding load\"}");
        return req.wants_close();
    }
    let deadline = parsed.deadline;
    let stream_mode = parsed.stream;
    let handle = match inner.server.submit(parsed.into_request(adapter)) {
        Ok(h) => h,
        Err(err) => return refuse(inner, stream, req, err, t0),
    };
    inner.obs.counter("serve.accepted", 1);
    let wait_budget = deadline + cfg.wait_slack;
    if stream_mode {
        stream_generate(inner, stream, handle, wait_budget, t0) || req.wants_close()
    } else {
        buffered_generate(inner, stream, handle, wait_budget, t0);
        req.wants_close()
    }
}

/// The one refusal table: status, trace outcome and body for each
/// [`SubmitError`]. A full queue on a draining server is the drain's 503,
/// whether the early drain check or [`Server::submit`] saw it first.
fn refusal(err: SubmitError, draining: bool) -> (u16, &'static str, &'static [u8]) {
    match err {
        SubmitError::QueueFull if draining => (503, "draining", b"{\"error\":\"draining\"}"),
        SubmitError::QueueFull => (429, "rejected", b"{\"error\":\"queue full\"}"),
        SubmitError::PromptTooLong => (413, "rejected", b"{\"error\":\"prompt too long\"}"),
        SubmitError::EmptyPrompt => (400, "rejected", b"{\"error\":\"empty prompt\"}"),
        SubmitError::UnknownAdapter => (400, "unknown_adapter", b"{\"error\":\"unknown adapter\"}"),
    }
}

/// Records and answers one refused generate request through [`refusal`];
/// 429 and 503 carry `Retry-After`. Returns whether to close.
fn refuse(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    req: &Request,
    err: SubmitError,
    t0: Instant,
) -> bool {
    let (status, outcome, body) = refusal(err, inner.server.is_draining());
    record(inner, status, outcome, t0);
    let retry = [("Retry-After", inner.cfg.retry_after_secs.to_string())];
    let headers: &[_] = if matches!(status, 429 | 503) {
        &retry
    } else {
        &[]
    };
    let _ = net::write_response(stream, status, headers, body);
    req.wants_close()
}

/// Waits for the final result and writes one JSON object.
fn buffered_generate(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    mut handle: GenHandle,
    wait_budget: Duration,
    t0: Instant,
) {
    match handle.wait_timeout(wait_budget) {
        Ok(res) => {
            let outcome = res.outcome.label();
            record(inner, 200, outcome, t0);
            let body = format!(
                "{{\"id\":{},\"outcome\":{},\"tokens\":{}}}",
                res.id,
                json_str(outcome),
                json_u32s(&res.tokens)
            );
            let _ = net::write_response(stream, 200, &[], body.as_bytes());
        }
        Err(WaitError::TimedOut) => {
            // The scheduler's own deadline should retire first; this fires
            // only if the worker is wedged. Dropping `handle` cancels.
            record(inner, 408, "timed_out", t0);
            inner.obs.counter("serve.timed_out", 1);
            let _ = net::write_response(stream, 408, &[], b"{\"error\":\"timeout\"}");
        }
        Err(WaitError::ServerGone) => {
            record(inner, 503, "draining", t0);
            let _ = net::write_response(stream, 503, &[], b"{\"error\":\"server stopped\"}");
        }
    }
}

/// Streams tokens as chunked NDJSON. Returns `true` when the connection
/// must close (disconnect mid-stream).
fn stream_generate(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    mut handle: GenHandle,
    wait_budget: Duration,
    t0: Instant,
) -> bool {
    let mut writer = match ChunkedWriter::start(stream, 200, &[]) {
        Ok(w) => w,
        Err(_) => {
            // Disconnected before the head: drop `handle` to cancel.
            record(inner, 200, "disconnected", t0);
            inner.obs.counter("serve.disconnected", 1);
            return true;
        }
    };
    let give_up = Instant::now() + wait_budget;
    loop {
        let left = give_up.saturating_duration_since(Instant::now());
        match handle.next_event(left) {
            Ok(GenEvent::Token(tok)) => {
                let line = format!("{{\"token\":{tok}}}\n");
                if writer.chunk(line.as_bytes()).is_err() {
                    // Client went away mid-stream: dropping `handle`
                    // cancels the request and frees its slot.
                    record(inner, 200, "disconnected", t0);
                    inner.obs.counter("serve.disconnected", 1);
                    return true;
                }
            }
            Ok(GenEvent::Finished(res)) => {
                let outcome = res.outcome.label();
                record(inner, 200, outcome, t0);
                let line = format!(
                    "{{\"done\":true,\"id\":{},\"outcome\":{},\"tokens\":{}}}\n",
                    res.id,
                    json_str(outcome),
                    json_u32s(&res.tokens)
                );
                let closed = writer.chunk(line.as_bytes()).is_err() || writer.finish().is_err();
                if closed {
                    inner.obs.counter("serve.disconnected", 1);
                }
                return closed;
            }
            Err(WaitError::TimedOut) => {
                record(inner, 408, "timed_out", t0);
                inner.obs.counter("serve.timed_out", 1);
                let _ = writer.chunk(b"{\"error\":\"timeout\"}\n");
                let _ = writer.finish();
                return true;
            }
            Err(WaitError::ServerGone) => {
                record(inner, 503, "draining", t0);
                let _ = writer.chunk(b"{\"error\":\"server stopped\"}\n");
                let _ = writer.finish();
                return true;
            }
        }
    }
}

/// A validated generate request body.
struct ParsedGenerate {
    prompt: Vec<u32>,
    cfg: GenConfig,
    deadline: Duration,
    stream: bool,
    /// Adapter *name* from the body; resolved to an id at dispatch.
    adapter: Option<String>,
}

impl ParsedGenerate {
    fn into_request(self, adapter: Option<u32>) -> GenRequest {
        GenRequest {
            prompt: self.prompt,
            cfg: self.cfg,
            deadline: Some(self.deadline),
            adapter,
        }
    }
}

/// Lenient body parsing: `prompt` is required; everything else defaults.
/// Client-supplied knobs are clamped to the server's caps rather than
/// rejected, so a misconfigured client degrades instead of failing.
fn parse_generate_body(body: &[u8], cfg: &ServeConfig) -> Result<ParsedGenerate, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let value: Value = serde_json::from_str(text).map_err(|e| format!("bad json: {e}"))?;
    let prompt_val = value
        .get_field("prompt")
        .map_err(|_| "missing field `prompt`".to_string())?;
    let Value::Arr(items) = prompt_val else {
        return Err("`prompt` must be an array of token ids".to_string());
    };
    let mut prompt = Vec::with_capacity(items.len());
    for item in items {
        let tok = as_u64(item)
            .ok_or_else(|| "`prompt` must contain non-negative integers".to_string())?;
        let tok = u32::try_from(tok).map_err(|_| "`prompt` token exceeds u32".to_string())?;
        prompt.push(tok);
    }
    let mut gen = GenConfig {
        max_new_tokens: cfg.max_new_tokens_cap.min(32),
        ..GenConfig::default()
    };
    if let Some(n) = field_u64(&value, "max_new_tokens") {
        gen.max_new_tokens = (n as usize).clamp(1, cfg.max_new_tokens_cap);
    }
    if let Some(t) = field_f64(&value, "temperature") {
        gen.temperature = t as f32;
    }
    if let Some(k) = field_u64(&value, "top_k") {
        gen.top_k = k as usize;
    }
    if let Some(p) = field_f64(&value, "top_p") {
        gen.top_p = p as f32;
    }
    if let Some(s) = field_u64(&value, "seed") {
        gen.seed = s;
    }
    if let Some(s) = field_u64(&value, "stop_token") {
        gen.stop_token = u32::try_from(s).ok();
    }
    let deadline = match field_u64(&value, "deadline_ms") {
        Some(ms) => Duration::from_millis(ms).min(cfg.max_deadline),
        None => cfg.default_deadline,
    };
    let stream = matches!(value.get_field("stream"), Ok(Value::Bool(true)));
    let adapter = match value.get_field("adapter") {
        Ok(Value::Str(name)) => Some(name.clone()),
        Ok(Value::Null) | Err(_) => None,
        Ok(_) => return Err("`adapter` must be a string".to_string()),
    };
    Ok(ParsedGenerate {
        prompt,
        cfg: gen,
        deadline,
        stream,
        adapter,
    })
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Num(n) => n.as_u64(),
        _ => None,
    }
}

fn field_u64(v: &Value, name: &str) -> Option<u64> {
    v.get_field(name).ok().and_then(as_u64)
}

fn field_f64(v: &Value, name: &str) -> Option<f64> {
    match v.get_field(name).ok()? {
        Value::Num(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// Renders the `GET /stats` snapshot: prefix-cache effectiveness, adapter
/// residency, KV pressure, and front-end load, all from relaxed reads of
/// the shared [`crate::ServeStats`] atomics.
fn stats_json(inner: &Arc<Inner>) -> String {
    let s = inner.server.stats();
    let load = |f: &std::sync::atomic::AtomicU64| f.load(Ordering::Relaxed);
    let prefill_tokens = load(&s.prefill_tokens);
    let hit_tokens = load(&s.prefix_hit_tokens);
    let prefill_us = load(&s.prefill_us);
    // Effective prefill throughput: cached tokens count as served work
    // the cache saved us from recomputing.
    let effective_tok_per_sec = if prefill_us == 0 {
        0.0
    } else {
        (prefill_tokens + hit_tokens) as f64 / (prefill_us as f64 / 1e6)
    };
    format!(
        concat!(
            "{{\"prefix_cache\":{{",
            "\"lookups\":{},\"hits\":{},\"hit_rate\":{:.6},\"hit_tokens\":{},",
            "\"cached_bytes\":{},\"ghost_bytes\":{},\"nodes\":{},\"evictions\":{},",
            "\"admissions\":{}}},",
            "\"adapters\":{{\"registered\":{},\"resident\":{},\"loads\":{},\"evictions\":{}}},",
            "\"kv_used_bytes\":{},\"prefill_tokens\":{},\"decode_tokens\":{},",
            "\"effective_prefill_tok_per_sec\":{:.3},",
            "\"in_flight\":{},\"draining\":{}}}"
        ),
        load(&s.prefix_lookups),
        load(&s.prefix_hits),
        s.hit_rate(),
        hit_tokens,
        load(&s.prefix_cached_bytes),
        load(&s.prefix_ghost_bytes),
        load(&s.prefix_nodes),
        load(&s.prefix_evictions),
        load(&s.prefix_admissions),
        load(&s.adapters_registered),
        load(&s.adapters_resident),
        load(&s.adapter_loads),
        load(&s.adapter_evictions),
        load(&s.kv_used_bytes),
        prefill_tokens,
        load(&s.decode_tokens),
        effective_tok_per_sec,
        inner.server.in_flight(),
        inner.server.is_draining(),
    )
}

/// JSON string literal with minimal escaping (labels are ASCII).
fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn json_u32s(tokens: &[u32]) -> String {
    let mut out = String::with_capacity(2 + tokens.len() * 4);
    out.push('[');
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_string());
    }
    out.push(']');
    out
}

/// Counts and traces one served request's disposition.
fn record(inner: &Arc<Inner>, status: u16, outcome: &str, t0: Instant) {
    let step = inner.requests.fetch_add(1, Ordering::Relaxed);
    let latency_ms = t0.elapsed().as_secs_f32() * 1e3;
    let in_flight = inner.server.in_flight();
    let outcome = outcome.to_string();
    inner.obs.emit(move || TraceEvent::ServeRequest {
        step,
        status,
        latency_ms,
        outcome,
        in_flight,
    });
}
