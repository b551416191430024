//! `serve-http`: the request path users see. `Frontend::start_multi` on
//! loopback over `tiny_1b` with three resident rank-4 LoRA adapters and a
//! 64 MB prefix cache, driven by a **closed loop**: as many keep-alive
//! client connections as the box has cores, one thread each, each sending
//! its next streaming `POST /generate` only after the previous reply ended.
//!
//! 80% of the 168-token prompts open with their tenant's 160-token shared
//! prefix, so prefill is nearly free and socket, loop, prefix-cache and
//! adapter overhead dominate — the layers `decode-batch` bypasses. Two
//! waiting clients cannot build a queue: queueing and shedding are out of
//! scope here, and latency is timed from the send.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apollo_infer::{
    net, Frontend, GenEvent, PrefixCache, SchedConfig, Scheduler, ServeConfig, ServeStats, Server,
};
use apollo_nn::{AdapterRegistry, DecodeBackend, LlamaModel, LoraAdapter};
use apollo_obs::Obs;

use super::{ms, put_setup_and_rss, timed_setup, trace_overhead_pct, Ctx};
use crate::http::{Client, Reply};
use crate::inputs::{self, ServeRequest, SERVE_NEW, SERVE_PROMPT, TENANTS};
use crate::report::Outcome;
use crate::stats::{self, Fnv};
use crate::trace::{Recorder, NO_SPAN};

/// Requests per second of `--seconds`, frozen from the reference box.
const REQ_PER_S: f64 = 23.0;
const MAX_ACTIVE: usize = 4;
const PREFILL_CHUNK: usize = 32;
const KV_CAPACITY: usize = SERVE_PROMPT + SERVE_NEW;
const PREFIX_CACHE_BYTES: usize = 64 << 20;
/// All-reuse requests sent before anything is timed (four per tenant), so
/// every tenant's shared prefix is cached when the measured phase starts.
const WARMUP_REQUESTS: usize = 4 * TENANTS;
/// One request in this many is checked against in-process generation.
const CHECK_EVERY: usize = 16;
/// Block sizes of the block-wise estimators: throughput per 20 replies,
/// time-to-first-token p95 per 40 requests (eight of them cold).
const RATE_REQUESTS: usize = 20;
const TAIL_REQUESTS: usize = 40;

/// One client connection and thread per core, and no more: a load
/// generator wider than the box would measure the OS scheduler.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn sched_config(prefix_cache_bytes: usize, max_active: usize, queue_cap: usize) -> SchedConfig {
    SchedConfig {
        max_active,
        queue_cap,
        prefill_chunk: PREFILL_CHUNK,
        kv_capacity: KV_CAPACITY,
        prefix_cache_bytes,
    }
}

struct Inputs {
    model: Arc<LlamaModel>,
    adapters: Vec<LoraAdapter>,
    front: Frontend,
    warmup: Vec<ServeRequest>,
    requests: Vec<ServeRequest>,
    bodies: Vec<String>,
}

fn registry(adapters: &[LoraAdapter]) -> Arc<AdapterRegistry> {
    Arc::new(AdapterRegistry::resident(
        adapters
            .iter()
            .enumerate()
            .map(|(t, a)| (inputs::tenant_name(t), a.clone()))
            .collect(),
    ))
}

/// Model, adapters, request list, a listening server, and a warm cache.
fn setup(ctx: &Ctx) -> Inputs {
    let model = Arc::new(inputs::tiny_1b_model(ctx.seed));
    let cfg = model.config().clone();
    let adapters: Vec<LoraAdapter> = (0..TENANTS)
        .map(|t| inputs::lora_adapter(&cfg, ctx.seed, t))
        .collect();
    let n = ctx.count(REQ_PER_S);
    let requests = inputs::serve_requests(ctx.seed, n, cfg.vocab_size, false);
    let warmup = inputs::serve_requests(ctx.seed, WARMUP_REQUESTS, cfg.vocab_size, true);
    let bodies = requests.iter().map(ServeRequest::body).collect();
    let front = Frontend::start_multi(
        Arc::clone(&model),
        sched_config(PREFIX_CACHE_BYTES, MAX_ACTIVE, 64),
        ServeConfig {
            default_deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        },
        Obs::disabled(),
        registry(&adapters),
    )
    .expect("bind a loopback listener");
    let mut client = Client::connect(front.local_addr()).expect("connect to own server");
    for r in &warmup {
        let reply = client.generate(&r.body()).expect("warm-up request");
        assert_eq!(reply.status, 200, "warm-up request refused");
    }
    Inputs {
        model,
        adapters,
        front,
        warmup,
        requests,
        bodies,
    }
}

/// What the closed loop saw.
struct Drive {
    /// One per request, in request order; `Err` for a transport failure.
    replies: Vec<Result<Reply, String>>,
    started: Instant,
    wall_ms: f64,
    /// Gap between one reply's end and the next request's send, per client.
    lateness_ms: Vec<f64>,
}

/// The closed loop: each client takes the next unsent request when its
/// previous reply has ended.
fn drive(addr: SocketAddr, bodies: &[String], rec: &mut Recorder) -> Drive {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                let mut rec = rec.sibling();
                let next = &next;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut late = Vec::new();
                    let mut client = Client::connect(addr);
                    let mut idle_since: Option<Instant> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= bodies.len() {
                            break;
                        }
                        let reply = match &mut client {
                            Ok(c) => c.generate(&bodies[i]),
                            Err(e) => Err(e.clone()),
                        };
                        if let Ok(r) = &reply {
                            if let Some(t) = idle_since {
                                late.push(ms(r.sent.saturating_duration_since(t)));
                            }
                            idle_since = Some(r.finished);
                            let op = i as u64;
                            let span =
                                rec.record("client.request", NO_SPAN, op, r.sent, r.finished);
                            if let (Some(first), Some(last)) = (r.tokens.first(), r.tokens.last()) {
                                rec.record("client.ttft", span, op, r.sent, first.0);
                                rec.record("client.stream", span, op, first.0, last.0);
                            }
                        } else {
                            // A broken connection is not reused.
                            client = Client::connect(addr);
                        }
                        got.push((i, reply));
                    }
                    (got, late, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_ms = ms(started.elapsed());
    let mut replies: Vec<Option<Result<Reply, String>>> = bodies.iter().map(|_| None).collect();
    let mut lateness_ms = Vec::new();
    for (got, late, client_rec) in per_client {
        for (i, r) in got {
            replies[i] = Some(r);
        }
        lateness_ms.extend(late);
        rec.absorb(client_rec);
    }
    Drive {
        replies: replies
            .into_iter()
            .map(|r| r.expect("every request was taken by a client"))
            .collect(),
        started,
        wall_ms,
        lateness_ms,
    }
}

/// A reply counts only if it is HTTP 200 with 32 token lines and a `done`
/// line that repeats them; anything else is a failed operation and misses
/// every latency figure.
fn complete(reply: &Result<Reply, String>) -> Result<&Reply, String> {
    let r = reply.as_ref().map_err(Clone::clone)?;
    if r.status != 200 {
        return Err(format!("HTTP {}", r.status));
    }
    if r.tokens.len() != SERVE_NEW {
        return Err(format!("{} token lines", r.tokens.len()));
    }
    match &r.done {
        Some((outcome, tokens))
            if outcome == "done" && tokens.iter().eq(r.tokens.iter().map(|t| &t.1)) =>
        {
            Ok(r)
        }
        Some((outcome, _)) => Err(format!("done line: outcome `{outcome}` or tokens differ")),
        None => Err("truncated stream: no done line".to_string()),
    }
}

struct Latencies {
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    ok: usize,
}

fn latencies(d: &Drive, out: &mut Outcome) -> Latencies {
    let mut l = Latencies {
        ttft_ms: Vec::new(),
        itl_ms: Vec::new(),
        ok: 0,
    };
    let mut reasons: Vec<String> = Vec::new();
    for reply in &d.replies {
        match complete(reply) {
            Ok(r) => {
                l.ok += 1;
                l.ttft_ms.push(ms(r.tokens[0].0.duration_since(r.sent)));
                l.itl_ms.extend(
                    r.tokens
                        .windows(2)
                        .map(|w| ms(w[1].0.duration_since(w[0].0))),
                );
            }
            Err(why) => reasons.push(why),
        }
    }
    if !reasons.is_empty() {
        let n = reasons.len() as u64;
        reasons.sort();
        reasons.dedup();
        out.fail(n, format!("{n} requests failed: {}", reasons.join("; ")));
    }
    l
}

/// Median time from send to the end of the reply, over complete replies.
fn request_ms_p50(d: &Drive) -> f64 {
    let all: Vec<f64> = d
        .replies
        .iter()
        .filter_map(|r| complete(r).ok())
        .map(|r| ms(r.finished.duration_since(r.sent)))
        .collect();
    stats::p50(&all)
}

/// Complete replies per second, block-wise: replies in the order they
/// ended, cut into blocks of [`RATE_REQUESTS`]; each block's rate is its
/// count over the time from the previous block's last reply to its own; the
/// median block is reported (see `stats::block_median` for why).
fn req_per_s(d: &Drive) -> f64 {
    let mut ends: Vec<Instant> = d
        .replies
        .iter()
        .filter_map(|r| complete(r).ok())
        .map(|r| r.finished)
        .collect();
    ends.sort();
    let mut from = d.started;
    let rates: Vec<f64> = ends
        .chunks_exact(RATE_REQUESTS)
        .map(|block| {
            let to = block[RATE_REQUESTS - 1];
            let rate = RATE_REQUESTS as f64 / to.duration_since(from).as_secs_f64();
            from = to;
            rate
        })
        .collect();
    if rates.is_empty() {
        ends.len() as f64 * 1e3 / d.wall_ms
    } else {
        stats::median(&rates)
    }
}

/// The fixed 1-in-16 sample of replies must equal, byte for byte, what a
/// cold one-slot scheduler with the same adapters generates in process.
fn check_against_in_process(inp: &Inputs, d: &Drive, out: &mut Outcome) {
    let sample: Vec<usize> = (0..inp.requests.len()).step_by(CHECK_EVERY).collect();
    let mut sched = Scheduler::new_multi(
        Arc::clone(&inp.model),
        sched_config(0, 1, sample.len()),
        Obs::disabled(),
        registry(&inp.adapters),
        Arc::new(ServeStats::default()),
    );
    for &i in &sample {
        sched
            .submit(inp.requests[i].to_gen_request())
            .expect("reference queue sized to the sample");
    }
    let mut reference = sched.run_to_completion();
    reference.sort_by_key(|r| r.id);
    let differ = sample
        .iter()
        .zip(&reference)
        .filter(|(&i, want)| match complete(&d.replies[i]) {
            Ok(r) => !want.tokens.iter().eq(r.tokens.iter().map(|t| &t.1)),
            Err(_) => false, // already counted as a failed request
        })
        .count();
    if differ > 0 {
        out.fail(
            differ as u64,
            format!("{differ} sampled replies differ from in-process generation"),
        );
    }
}

fn fingerprint(d: &Drive) -> u64 {
    let mut fnv = Fnv::new();
    for r in d.replies.iter().flatten() {
        for (_, tok) in &r.tokens {
            fnv.u32s(&[*tok]);
        }
    }
    fnv.finish()
}

/// The serving counters the measured phase moved.
struct StatsDelta {
    lookups: u64,
    hits: u64,
    hit_tokens: u64,
    prefill_tokens: u64,
    evictions: u64,
    adapter_loads: u64,
}

fn snapshot(s: &ServeStats) -> StatsDelta {
    let get = |f: &AtomicU64| f.load(Ordering::Relaxed);
    StatsDelta {
        lookups: get(&s.prefix_lookups),
        hits: get(&s.prefix_hits),
        hit_tokens: get(&s.prefix_hit_tokens),
        prefill_tokens: get(&s.prefill_tokens),
        evictions: get(&s.prefix_evictions),
        adapter_loads: get(&s.adapter_loads),
    }
}

fn put_stats(before: &StatsDelta, after: &StatsDelta, out: &mut Outcome) {
    let lookups = after.lookups - before.lookups;
    let hit_tokens = after.hit_tokens - before.hit_tokens;
    let prefilled = after.prefill_tokens - before.prefill_tokens;
    out.put(
        "infer.prefix.hit_rate",
        (after.hits - before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    out.put(
        "infer.prefix.hit_token_share",
        hit_tokens as f64 / (hit_tokens + prefilled).max(1) as f64,
        "ratio",
        (hit_tokens + prefilled) as usize,
    );
    out.put(
        "infer.prefix.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
        1,
    );
    out.put(
        "nn.adapter.loads",
        (after.adapter_loads - before.adapter_loads) as f64,
        "count",
        1,
    );
}

// ----- replays -----------------------------------------------------------------

/// `PrefixCache::insert` / `lookup` alone on the workload's own prompts.
fn replay_prefix_cache(inp: &Inputs, out: &mut Outcome) {
    const PROMPTS: usize = 24;
    let backend = DecodeBackend::from(Arc::clone(&inp.model));
    let mut caches = backend.new_caches(1, KV_CAPACITY);
    let mut cache = PrefixCache::new(PREFIX_CACHE_BYTES);
    let mut insert_us = Vec::new();
    // The warm-up prompts first, as in the workload, then measured ones.
    for r in inp.warmup.iter().chain(inp.requests.iter().take(PROMPTS)) {
        caches.clear(0);
        let rows: Vec<(usize, u32)> = r.prompt.iter().map(|&t| (0, t)).collect();
        backend.forward_cached(&mut caches, &rows);
        let key = Some(r.tenant as u32);
        let t0 = Instant::now();
        cache.insert(key, &r.prompt, |lo, hi| caches.export_rows(0, lo, hi));
        insert_us.push(ms(t0.elapsed()) * 1e3);
    }
    let (mut lookup_us, mut bytes) = (Vec::new(), Vec::new());
    for r in inp.requests.iter().cycle().skip(PROMPTS).take(4 * PROMPTS) {
        let t0 = Instant::now();
        let hit = cache.lookup(Some(r.tenant as u32), &r.prompt);
        lookup_us.push(ms(t0.elapsed()) * 1e3);
        if let Some(hit) = hit {
            if r.reuse {
                bytes.push(hit.blocks.iter().map(|b| b.memory_bytes()).sum::<usize>() as f64);
            }
            cache.release(hit.lease);
        }
    }
    out.put(
        "infer.prefix.insert_us",
        stats::p50(&insert_us),
        "us",
        insert_us.len(),
    );
    out.put(
        "infer.prefix.lookup_us",
        stats::p50(&lookup_us),
        "us",
        lookup_us.len(),
    );
    out.put(
        "infer.prefix.bytes_copied_per_hit",
        stats::p50(&bytes),
        "bytes",
        bytes.len(),
    );
    out.notes.push(
        "infer.prefix.bytes_copied_per_hit is computed from the KvBlock sizes a shared-prefix hit returns".to_string(),
    );
}

/// `net::parse_head` alone on the head the load generator sends.
fn replay_parse_head(inp: &Inputs, out: &mut Outcome) {
    const CALLS: usize = 20_000;
    let head = format!(
        "POST /generate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        inp.bodies[0].len()
    );
    let t0 = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(net::parse_head(std::hint::black_box(head.as_bytes())))
            .expect("the generator's own head parses");
    }
    out.put(
        "infer.net.parse_head_us",
        ms(t0.elapsed()) * 1e3 / CALLS as f64,
        "us",
        CALLS,
    );
}

/// The head of the request list through `Server::submit`, no sockets: the
/// same closed loop, timed to the first `Token` event, against the HTTP
/// pass's time to first token over the same requests.
fn replay_in_process(inp: &Inputs, http: &Drive, out: &mut Outcome) {
    let server = Server::start_multi(
        Arc::clone(&inp.model),
        sched_config(PREFIX_CACHE_BYTES, MAX_ACTIVE, 64),
        Obs::disabled(),
        registry(&inp.adapters),
    );
    let wait = Duration::from_secs(60);
    let first_token_ms = |r: &ServeRequest| -> Option<f64> {
        let t0 = Instant::now();
        let mut handle = server.submit(r.to_gen_request()).ok()?;
        let mut first = None;
        loop {
            match handle.next_event(wait).ok()? {
                GenEvent::Token(_) => {
                    first.get_or_insert_with(|| ms(t0.elapsed()));
                }
                GenEvent::Finished(_) => return first,
            }
        }
    };
    for r in &inp.warmup {
        first_token_ms(r);
    }
    // A quarter of the list is enough for a median and keeps the traced run short.
    let reqs = &inp.requests[..inp.requests.len().div_ceil(4)];
    let next = AtomicUsize::new(0);
    let ttft: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() {
                            return got;
                        }
                        got.extend(first_token_ms(&reqs[i]));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("in-process client thread"))
            .collect()
    });
    let http_ttft: Vec<f64> = http.replies[..reqs.len()]
        .iter()
        .filter_map(|r| complete(r).ok())
        .map(|r| ms(r.tokens[0].0.duration_since(r.sent)))
        .collect();
    let inproc = stats::p50(&ttft);
    out.put("infer.server.inproc_ttft_ms_p50", inproc, "ms", ttft.len());
    out.put(
        "infer.frontend.http_overhead_ms_p50",
        stats::p50(&http_ttft) - inproc,
        "ms",
        ttft.len(),
    );
}

/// A batch-4 decode step with every row on an adapter, over the same step
/// on the base model.
fn replay_adapter_step(inp: &Inputs, out: &mut Outcome) {
    const STEPS: usize = 30;
    let model = &inp.model;
    let step_ms = |adapters: &[Option<&LoraAdapter>]| -> f64 {
        let mut caches: Vec<_> = (0..MAX_ACTIVE)
            .map(|_| model.new_kv_cache(KV_CAPACITY))
            .collect();
        for slot in 0..MAX_ACTIVE {
            let rows: Vec<(usize, u32)> = inp.requests[slot]
                .prompt
                .iter()
                .map(|&t| (slot, t))
                .collect();
            model.forward_cached(&mut caches, &rows);
        }
        let mut times = Vec::with_capacity(STEPS);
        for i in 0..STEPS {
            let rows: Vec<(usize, u32)> = (0..MAX_ACTIVE)
                .map(|slot| (slot, inp.requests[slot].prompt[i]))
                .collect();
            let t0 = Instant::now();
            std::hint::black_box(model.forward_cached_with(&mut caches, &rows, adapters));
            times.push(ms(t0.elapsed()));
        }
        stats::p50(&times)
    };
    let with: Vec<Option<&LoraAdapter>> = (0..MAX_ACTIVE)
        .map(|slot| Some(&inp.adapters[slot % TENANTS]))
        .collect();
    out.put(
        "nn.adapter.step_relative",
        step_ms(&with) / step_ms(&[]),
        "ratio",
        STEPS,
    );
}

pub fn run(ctx: &Ctx) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let (inp, setup_s) = timed_setup(|| setup(ctx));
    let addr = inp.front.local_addr();
    let server_stats = inp.front.stats();

    let before = snapshot(&server_stats);
    let d = drive(addr, &inp.bodies, &mut Recorder::new(false));
    let after = snapshot(&server_stats);
    out.attempted = inp.requests.len() as u64;
    out.fingerprint = fingerprint(&d);
    let l = latencies(&d, &mut out);
    check_against_in_process(&inp, &d, &mut out);

    out.put("req_per_s", req_per_s(&d), "req/s", l.ok);
    out.put_percentile("ttft_ms_p50", &l.ttft_ms, 50, "ms");
    out.put_block_tail("ttft_ms_p95", &l.ttft_ms, 95, TAIL_REQUESTS, "ms");
    out.put_percentile("itl_ms_p50", &l.itl_ms, 50, "ms");
    out.put_percentile("itl_ms_p99", &l.itl_ms, 99, "ms");
    put_setup_and_rss(&mut out, setup_s);
    out.notes.push(format!(
        "closed loop: {} keep-alive connections, one thread each",
        clients()
    ));

    let mut rec = Recorder::new(ctx.trace);
    if ctx.trace {
        // A fresh server, warmed the same way, so the traced pass meets the
        // cache in the state the untraced pass met it.
        let again = setup(ctx);
        let traced_stats = again.front.stats();
        let before = snapshot(&traced_stats);
        let t = drive(again.front.local_addr(), &again.bodies, &mut rec);
        let after = snapshot(&traced_stats);
        if again.front.shutdown().forced > 0 {
            out.fail(
                1,
                "traced server had requests running at shutdown".to_string(),
            );
        }
        out.attempted *= 2;
        if fingerprint(&t) != out.fingerprint {
            out.fail(1, "traced pass streamed different tokens".to_string());
        }
        out.put(
            "trace_overhead_pct",
            trace_overhead_pct(request_ms_p50(&t), request_ms_p50(&d)),
            "%",
            1,
        );
        put_stats(&before, &after, &mut out);
        out.put_percentile("client.lateness_ms_p95", &t.lateness_ms, 95, "ms");
        out.notes.push(format!(
            "client.request self time p50 {:.3} ms (reply tail after the last token)",
            stats::p50(&rec.self_ms("client.request"))
        ));
        replay_prefix_cache(&inp, &mut out);
        replay_parse_head(&inp, &mut out);
        replay_in_process(&inp, &t, &mut out);
        replay_adapter_step(&inp, &mut out);
    } else {
        put_stats(&before, &after, &mut out);
    }
    let Inputs { front, .. } = inp;
    let drain = front.shutdown();
    if drain.forced > 0 {
        out.fail(
            drain.forced as u64,
            format!("{} requests still running at shutdown", drain.forced),
        );
    }
    (out, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_count_supports_the_reported_percentiles() {
        let ctx = Ctx {
            seed: 0,
            seconds: 20,
            trace: false,
        };
        let n = ctx.count(REQ_PER_S);
        assert!(stats::percentile(&vec![0.0; n], 95).is_some());
        assert!(stats::percentile(&vec![0.0; n * (SERVE_NEW - 1)], 99).is_some());
        // The traced pass sends half as many and still reports a p95.
        assert!(stats::percentile(&vec![0.0; n / 2 - clients()], 95).is_some());
    }
}
