//! Fault plan for the HTTP serving front-end: malformed requests,
//! slow-loris, mid-stream disconnects, overload bursts, and graceful
//! drain. The invariants under every fault: no panic, no leaked
//! scheduler slot, the documented status code, and a server that keeps
//! serving afterwards.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apollo_infer::net::{self, ChunkedReader, HttpLimits};
use apollo_infer::{generate, Frontend, GenConfig, SchedConfig, ServeConfig};
use apollo_nn::{AdapterRegistry, LinearMode, LlamaModel, ModelConfig};
use apollo_obs::Obs;
use apollo_tensor::Rng;
use serde::Value;

fn tiny_model(seed: u64) -> Arc<LlamaModel> {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(seed);
    Arc::new(LlamaModel::new(&cfg, LinearMode::Dense, &mut rng))
}

/// A front-end tuned for fast tests: short timeouts, small queue.
fn start_frontend(sched: SchedConfig, serve: ServeConfig) -> Frontend {
    Frontend::start_multi(
        tiny_model(0x11),
        sched,
        serve,
        Obs::disabled(),
        Arc::new(AdapterRegistry::empty()),
    )
    .expect("bind loopback")
}

fn test_sched() -> SchedConfig {
    SchedConfig {
        max_active: 2,
        queue_cap: 4,
        prefill_chunk: 8,
        kv_capacity: 4096,
        prefix_cache_bytes: 0,
    }
}

fn test_serve() -> ServeConfig {
    ServeConfig {
        limits: HttpLimits {
            idle_timeout: Duration::from_millis(300),
            header_deadline: Duration::from_millis(200),
            ..HttpLimits::default()
        },
        shed_watermark: 4,
        default_deadline: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(5),
        wait_slack: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

fn post_generate(addr: &str, body: &str) -> net::Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    net::write_request(&mut stream, "POST", "/generate", &[], body.as_bytes()).expect("write");
    net::read_response(&mut stream, Duration::from_secs(20)).expect("response")
}

fn tokens_from(body: &[u8]) -> Vec<u32> {
    let value: Value = serde_json::from_str(&String::from_utf8_lossy(body)).expect("json body");
    let Ok(Value::Arr(items)) = value.get_field("tokens") else {
        panic!("response missing tokens: {}", String::from_utf8_lossy(body));
    };
    items
        .iter()
        .map(|v| match v {
            Value::Num(n) => n.as_u64().expect("token id") as u32,
            other => panic!("non-numeric token {other:?}"),
        })
        .collect()
}

fn wait_in_flight_zero(frontend: &Frontend, budget: Duration) {
    let deadline = Instant::now() + budget;
    while frontend.in_flight() > 0 {
        assert!(
            Instant::now() < deadline,
            "in-flight requests leaked: {} still held",
            frontend.in_flight()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn generate_over_http_matches_the_serial_engine() {
    let model = tiny_model(0x11);
    let frontend = start_frontend(test_sched(), test_serve());
    let addr = frontend.local_addr().to_string();

    let prompt = vec![3u32, 14, 15, 9, 2];
    let cfg = GenConfig {
        max_new_tokens: 12,
        seed: 7,
        ..GenConfig::default()
    };
    let serial = generate(&model, &prompt, &cfg, |_| {});

    let body = "{\"prompt\":[3,14,15,9,2],\"max_new_tokens\":12,\"seed\":7}";
    let resp = post_generate(&addr, body);
    assert_eq!(
        resp.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&resp.body)
    );
    assert_eq!(
        tokens_from(&resp.body),
        serial,
        "HTTP path must stay byte-identical"
    );
    frontend.shutdown();
}

#[test]
fn streaming_chunks_agree_with_the_final_result() {
    let frontend = start_frontend(test_sched(), test_serve());
    let addr = frontend.local_addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let body = "{\"prompt\":[1,2,3],\"max_new_tokens\":10,\"stream\":true}";
    net::write_request(&mut stream, "POST", "/generate", &[], body.as_bytes()).expect("write");
    let head = net::read_response_head(&mut stream, Duration::from_secs(20)).expect("head");
    assert_eq!(head.status, 200);
    assert_eq!(head.header("transfer-encoding"), Some("chunked"));

    let mut reader = ChunkedReader::new(&mut stream, head.leftover, Duration::from_secs(20));
    let mut streamed: Vec<u32> = Vec::new();
    let mut finals: Option<Vec<u32>> = None;
    while let Some(chunk) = reader.next_chunk().expect("chunk") {
        for line in String::from_utf8_lossy(&chunk).lines() {
            let value: Value = serde_json::from_str(line).expect("ndjson line");
            if let Ok(Value::Num(n)) = value.get_field("token") {
                streamed.push(n.as_u64().expect("token") as u32);
            }
            if value.get_field("done").is_ok() {
                let Ok(Value::Arr(items)) = value.get_field("tokens") else {
                    panic!("done line without tokens: {line}");
                };
                finals = Some(
                    items
                        .iter()
                        .map(|v| match v {
                            Value::Num(n) => n.as_u64().expect("token") as u32,
                            other => panic!("bad token {other:?}"),
                        })
                        .collect(),
                );
            }
        }
    }
    let finals = finals.expect("stream must end with a done line");
    assert_eq!(
        streamed, finals,
        "streamed tokens must equal the final list"
    );
    assert_eq!(finals.len(), 10);
    frontend.shutdown();
}

#[test]
fn malformed_requests_get_400_and_the_server_keeps_serving() {
    let frontend = start_frontend(test_sched(), test_serve());
    let addr = frontend.local_addr().to_string();

    // Garbage request line.
    let mut s1 = TcpStream::connect(&addr).expect("connect");
    s1.write_all(b"THIS IS NOT HTTP\r\n\r\n").expect("write");
    let resp = net::read_response(&mut s1, Duration::from_secs(5)).expect("resp");
    assert_eq!(resp.status, 400);

    // Valid HTTP head, invalid JSON body.
    let resp = post_generate(&addr, "{not json");
    assert_eq!(resp.status, 400);

    // Valid JSON, missing prompt.
    let resp = post_generate(&addr, "{\"max_new_tokens\":4}");
    assert_eq!(resp.status, 400);

    // Empty prompt.
    let resp = post_generate(&addr, "{\"prompt\":[]}");
    assert_eq!(resp.status, 400);

    // Prompt longer than the KV capacity.
    let long: Vec<String> = (0..5000).map(|i| (i % 7).to_string()).collect();
    let resp = post_generate(&addr, &format!("{{\"prompt\":[{}]}}", long.join(",")));
    assert_eq!(resp.status, 413);

    // Unknown path and wrong method.
    let mut s2 = TcpStream::connect(&addr).expect("connect");
    net::write_request(&mut s2, "GET", "/nope", &[], b"").expect("write");
    assert_eq!(
        net::read_response(&mut s2, Duration::from_secs(5))
            .expect("resp")
            .status,
        404
    );
    let mut s3 = TcpStream::connect(&addr).expect("connect");
    net::write_request(&mut s3, "DELETE", "/generate", &[], b"").expect("write");
    assert_eq!(
        net::read_response(&mut s3, Duration::from_secs(5))
            .expect("resp")
            .status,
        405
    );

    // After all that abuse, a well-formed request still succeeds.
    let resp = post_generate(&addr, "{\"prompt\":[1,2],\"max_new_tokens\":2}");
    assert_eq!(resp.status, 200);
    assert_eq!(frontend.in_flight(), 0);
    frontend.shutdown();
}

#[test]
fn slow_loris_is_cut_off_by_the_header_deadline() {
    let frontend = start_frontend(test_sched(), test_serve());
    let addr = frontend.local_addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let t0 = Instant::now();
    // Trickle bytes slower than the 200ms header deadline allows.
    let head = b"POST /generate HTTP/1.1\r\n";
    let mut cut_off = false;
    for byte in head.iter().cycle().take(200) {
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            cut_off = true; // server closed on us
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if !cut_off {
        // Writes may keep "succeeding" into socket buffers; the read
        // settles it: either a 408 or a close, never a hang.
        match net::read_response(&mut stream, Duration::from_secs(5)) {
            Ok(resp) => assert_eq!(resp.status, 408),
            Err(net::HttpError::Truncated) | Err(net::HttpError::Io(_)) => {}
            Err(e) => panic!("unexpected slow-loris outcome: {e}"),
        }
    }
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "slow-loris held the connection too long"
    );
    // The server is still healthy.
    let resp = post_generate(&addr, "{\"prompt\":[5],\"max_new_tokens\":2}");
    assert_eq!(resp.status, 200);
    frontend.shutdown();
}

#[test]
fn mid_stream_disconnect_cancels_and_frees_the_slot() {
    let frontend = start_frontend(test_sched(), test_serve());
    let addr = frontend.local_addr().to_string();

    // A long streaming generation we will abandon after one chunk.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let body = "{\"prompt\":[1,2,3],\"max_new_tokens\":4000,\"stream\":true}";
    net::write_request(&mut stream, "POST", "/generate", &[], body.as_bytes()).expect("write");
    let head = net::read_response_head(&mut stream, Duration::from_secs(20)).expect("head");
    assert_eq!(head.status, 200);
    let mut reader = ChunkedReader::new(&mut stream, head.leftover, Duration::from_secs(20));
    let first = reader.next_chunk().expect("first chunk");
    assert!(
        first.is_some(),
        "stream produced no chunk before disconnect"
    );
    drop(stream); // vanish mid-stream

    // The cancel must propagate: no slot may stay pinned.
    wait_in_flight_zero(&frontend, Duration::from_secs(10));

    // And the freed slot is immediately usable.
    let resp = post_generate(&addr, "{\"prompt\":[9,8],\"max_new_tokens\":3}");
    assert_eq!(resp.status, 200);
    frontend.shutdown();
}

#[test]
fn overload_is_shed_with_retry_after_and_recovers() {
    let sched = SchedConfig {
        max_active: 1,
        queue_cap: 4,
        prefill_chunk: 8,
        kv_capacity: 20480,
        prefix_cache_bytes: 0,
    };
    let mut serve = test_serve();
    serve.shed_watermark = 2;
    serve.max_new_tokens_cap = 20000;
    let frontend = start_frontend(sched, serve);
    let addr = frontend.local_addr().to_string();

    // Blockers: two long generations (exactly the watermark) that pin the
    // single slot and the queue. Their 6s deadline bounds the test: they
    // answer 200 with whatever they produced by then. Probes past them
    // must shed.
    let mut blockers = Vec::new();
    for i in 0..2 {
        let addr = addr.clone();
        blockers.push(std::thread::spawn(move || {
            let body =
                format!("{{\"prompt\":[{i}],\"max_new_tokens\":20000,\"deadline_ms\":6000}}");
            post_generate(&addr, body.as_str()).status
        }));
    }
    // Wait for enough of them to be in flight.
    let t0 = Instant::now();
    while frontend.in_flight() < 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "blockers never reached the watermark (in_flight {})",
            frontend.in_flight()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // While over the watermark, new work must shed with 429 + Retry-After.
    // A blocker may retire between our check and the server's, so permit
    // the rare 200 and keep probing while the overload lasts.
    let mut shed_seen = 0usize;
    while frontend.in_flight() >= 2 && shed_seen < 3 && t0.elapsed() < Duration::from_secs(20) {
        let resp = post_generate(&addr, "{\"prompt\":[7],\"max_new_tokens\":1}");
        if resp.status == 429 {
            let secs: u64 = resp
                .header("retry-after")
                .expect("429 must carry Retry-After")
                .parse()
                .expect("Retry-After must be integral seconds");
            assert!(secs >= 1);
            shed_seen += 1;
        } else {
            assert_eq!(resp.status, 200, "unexpected status under overload");
        }
    }
    assert!(shed_seen > 0, "overload past the watermark never shed");

    for blocker in blockers {
        assert_eq!(blocker.join().expect("no panic"), 200);
    }
    wait_in_flight_zero(&frontend, Duration::from_secs(10));
    let resp = post_generate(&addr, "{\"prompt\":[4],\"max_new_tokens\":2}");
    assert_eq!(resp.status, 200, "server must recover after the overload");
    frontend.shutdown();
}

#[test]
fn drain_finishes_in_flight_and_rejects_new_work() {
    let sched = SchedConfig {
        max_active: 1,
        queue_cap: 4,
        prefill_chunk: 8,
        kv_capacity: 20480,
        prefix_cache_bytes: 0,
    };
    let mut serve = test_serve();
    serve.drain_deadline = Duration::from_secs(20);
    serve.max_new_tokens_cap = 20000;
    serve.wait_slack = Duration::from_secs(20);
    let frontend = start_frontend(sched, serve);
    let addr = frontend.local_addr().to_string();

    // In-flight long request, bounded by its own deadline: it either
    // finishes or retires at the 3s deadline — well inside the drain
    // budget, but far slower than the drain trigger below.
    let addr1 = addr.clone();
    let in_flight = std::thread::spawn(move || {
        let body = "{\"prompt\":[1,2],\"max_new_tokens\":20000,\"deadline_ms\":3000}";
        post_generate(&addr1, body).status
    });
    // Wait until the server actually holds it.
    let t0 = Instant::now();
    while frontend.in_flight() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "request never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // A keep-alive connection opened before the drain: its generate must
    // see 503 once draining starts.
    let addr2 = addr.clone();
    let late = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr2).expect("connect");
        std::thread::sleep(Duration::from_millis(150)); // drain is underway
        let body = "{\"prompt\":[3],\"max_new_tokens\":2}";
        net::write_request(&mut stream, "POST", "/generate", &[], body.as_bytes()).expect("write");
        net::read_response(&mut stream, Duration::from_secs(10)).expect("resp")
    });

    std::thread::sleep(Duration::from_millis(20));
    let report = frontend.shutdown();
    assert_eq!(report.in_flight_at_drain, 1);
    assert_eq!(
        report.drained, 1,
        "the in-flight request must finish: {report:?}"
    );
    assert_eq!(
        report.forced, 0,
        "nothing should be left running: {report:?}"
    );

    assert_eq!(in_flight.join().expect("no panic"), 200);
    let late_resp = late.join().expect("no panic");
    assert_eq!(late_resp.status, 503, "mid-drain generate must be rejected");
    assert!(late_resp.header("retry-after").is_some());
}

#[test]
fn loadgen_fault_plan_leaves_the_server_healthy() {
    let frontend = start_frontend(test_sched(), test_serve());
    let addr = frontend.local_addr().to_string();

    let cfg = apollo_infer::LoadConfig {
        addr: addr.clone(),
        requests: 30,
        rate: 200.0,
        seed: 0xFA117,
        prompt_len: 4,
        max_new_tokens: 4,
        deadline_ms: 5_000,
        faults: apollo_infer::FaultMix::default(), // 5% of each class
        ..apollo_infer::LoadConfig::default()
    };
    let report = apollo_infer::run_loadgen(&cfg).expect("loadgen reaches the server");
    assert!(
        report.ok > 0,
        "well-formed load must mostly succeed: {report:?}"
    );
    assert_eq!(
        report.transport_errors, 0,
        "no request may die on transport: {report:?}"
    );
    assert_eq!(
        report.faults_expected, report.faults_injected,
        "every fault probe must see the documented response: {report:?}"
    );
    assert!(report.p50_ms > 0.0 && report.p999_ms >= report.p99_ms);

    // The abused server drains to zero and still answers.
    wait_in_flight_zero(&frontend, Duration::from_secs(10));
    let resp = post_generate(&addr, "{\"prompt\":[1],\"max_new_tokens\":2}");
    assert_eq!(resp.status, 200);
    let report = frontend.shutdown();
    assert_eq!(report.forced, 0, "clean drain after the fault plan");
}

// --- multi-tenant serving: adapter routing and GET /stats -----------------

/// A compatible LoRA adapter with a nonzero delta (B is zero-initialized
/// at construction, so perturb it).
fn test_adapter(seed: u64) -> apollo_nn::LoraAdapter {
    use apollo_tensor::Matrix;
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = LlamaModel::new(
        &cfg,
        LinearMode::LoRa {
            rank: 2,
            alpha: 4.0,
        },
        &mut rng,
    );
    for p in &mut m.params {
        if p.name.ends_with(".lora_b") {
            p.value = Matrix::randn(p.value.rows(), p.value.cols(), &mut rng);
        }
    }
    apollo_nn::LoraAdapter::from_model(&m).expect("LoRA source")
}

/// A front-end with two resident adapters and the prefix cache enabled.
fn start_multi_frontend(sched: SchedConfig) -> Frontend {
    let registry = Arc::new(apollo_nn::AdapterRegistry::resident(vec![
        ("alpha".into(), test_adapter(0xA1)),
        ("beta".into(), test_adapter(0xB2)),
    ]));
    Frontend::start_multi(
        tiny_model(0x11),
        sched,
        test_serve(),
        Obs::disabled(),
        registry,
    )
    .expect("bind loopback")
}

fn get_path(addr: &str, path: &str) -> net::Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    net::write_request(&mut stream, "GET", path, &[], b"").expect("write");
    net::read_response(&mut stream, Duration::from_secs(20)).expect("response")
}

#[test]
fn adapter_routing_is_deterministic_and_rejects_unknown_names() {
    let sched = SchedConfig {
        prefix_cache_bytes: 1 << 20,
        ..test_sched()
    };
    let frontend = start_multi_frontend(sched);
    let addr = frontend.local_addr().to_string();

    // healthz advertises the registered tenants.
    let health = get_path(&addr, "/healthz");
    assert_eq!(health.status, 200);
    let health_body = String::from_utf8_lossy(&health.body).to_string();
    assert!(
        health_body.contains("\"adapters\":[\"alpha\",\"beta\"]"),
        "healthz must list adapters: {health_body}"
    );

    // An unknown adapter name is a 400 naming the tenant, before any
    // scheduler work happens.
    let resp = post_generate(
        &addr,
        "{\"prompt\":[1,2,3],\"max_new_tokens\":2,\"adapter\":\"gamma\"}",
    );
    assert_eq!(resp.status, 400, "unknown adapter must be a client error");
    let err_body = String::from_utf8_lossy(&resp.body).to_string();
    assert!(
        err_body.contains("gamma"),
        "error names the tenant: {err_body}"
    );

    // Same request under each tenant: deterministic per tenant, and the
    // adapters' deltas actually change the sampled tokens.
    let body_for = |adapter: &str| {
        format!(
            "{{\"prompt\":[3,14,15,9,2,6],\"max_new_tokens\":10,\"seed\":5,\"adapter\":{adapter}}}"
        )
    };
    let base = tokens_from(
        &post_generate(
            &addr,
            "{\"prompt\":[3,14,15,9,2,6],\"max_new_tokens\":10,\"seed\":5}",
        )
        .body,
    );
    let alpha = tokens_from(&post_generate(&addr, &body_for("\"alpha\"")).body);
    let alpha2 = tokens_from(&post_generate(&addr, &body_for("\"alpha\"")).body);
    let beta = tokens_from(&post_generate(&addr, &body_for("\"beta\"")).body);
    assert_eq!(alpha, alpha2, "same tenant, same request, same tokens");
    assert_ne!(alpha, base, "alpha's delta must change the output");
    assert_ne!(alpha, beta, "distinct tenants decode distinct tokens");

    wait_in_flight_zero(&frontend, Duration::from_secs(5));
    let report = frontend.shutdown();
    assert_eq!(report.forced, 0);
}

#[test]
fn stats_endpoint_reports_prefix_cache_and_adapters() {
    let sched = SchedConfig {
        max_active: 1, // serialize admissions so the second request hits
        prefix_cache_bytes: 1 << 20,
        ..test_sched()
    };
    let frontend = start_multi_frontend(sched);
    let addr = frontend.local_addr().to_string();

    // Three prefix-sharing requests under one tenant: a first sighting
    // (the prefix is remembered, its KV is not kept), a miss that gives
    // the prefix KV, then a hit.
    let first = "{\"prompt\":[7,7,7,7,7,7,7,7,3],\"max_new_tokens\":2,\"adapter\":\"alpha\"}";
    let shared = "{\"prompt\":[7,7,7,7,7,7,7,7,1],\"max_new_tokens\":2,\"adapter\":\"alpha\"}";
    let shared2 = "{\"prompt\":[7,7,7,7,7,7,7,7,2],\"max_new_tokens\":2,\"adapter\":\"alpha\"}";
    assert_eq!(post_generate(&addr, first).status, 200);
    assert_eq!(post_generate(&addr, shared).status, 200);
    assert_eq!(post_generate(&addr, shared2).status, 200);
    wait_in_flight_zero(&frontend, Duration::from_secs(5));

    let resp = get_path(&addr, "/stats");
    assert_eq!(resp.status, 200);
    let stats: Value =
        serde_json::from_str(&String::from_utf8_lossy(&resp.body)).expect("stats is JSON");
    let num = |v: &Value, field: &str| -> u64 {
        match v.get_field(field) {
            Ok(Value::Num(n)) => n.as_u64().unwrap_or(0),
            other => panic!("stats field {field} missing or non-numeric: {other:?}"),
        }
    };
    let cache = stats
        .get_field("prefix_cache")
        .expect("prefix_cache object");
    assert!(num(cache, "lookups") >= 2);
    assert!(num(cache, "hits") >= 1, "shared prefix must hit");
    assert!(num(cache, "hit_tokens") >= 8);
    assert!(num(cache, "cached_bytes") > 0);
    assert_eq!(num(cache, "admissions"), 1, "the shared prefix, once");
    // The shared head and three one-token ghost tails, each ghost charged
    // its token and its node storage.
    assert_eq!(num(cache, "nodes"), 4);
    assert!(num(cache, "ghost_bytes") > 3 * 4, "three one-token tails");
    let adapters = stats.get_field("adapters").expect("adapters object");
    assert_eq!(num(adapters, "registered"), 2);
    assert_eq!(num(adapters, "resident"), 2);
    assert!(num(&stats, "prefill_tokens") > 0);
    assert!(num(&stats, "decode_tokens") > 0);
    assert_eq!(num(&stats, "in_flight"), 0);

    frontend.shutdown();
}
