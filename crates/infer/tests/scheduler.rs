//! Continuous-batching correctness: tokens produced under interleaved
//! scheduling are byte-identical to serial generation, admission is
//! bounded with graceful rejection, and deadline / cache-full retirement
//! fire with partial output intact.

use std::sync::Arc;
use std::time::Duration;

use apollo_infer::{
    generate, GenConfig, GenEvent, GenRequest, Outcome, SchedConfig, Scheduler, Server, SubmitError,
};
use apollo_nn::{AdapterRegistry, LinearMode, LlamaModel, ModelConfig};
use apollo_obs::Obs;
use apollo_tensor::Rng;

fn tiny_model(seed: u64) -> Arc<LlamaModel> {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Rng::seed_from_u64(seed);
    Arc::new(LlamaModel::new(&cfg, LinearMode::Dense, &mut rng))
}

/// A spread of prompts, lengths, seeds, and sampling settings. Request `i`
/// is fully determined by `i`, so the serial reference is reproducible.
fn mixed_requests(model: &LlamaModel, n: usize) -> Vec<GenRequest> {
    let vocab = model.config().vocab_size;
    let mut rng = Rng::seed_from_u64(0x5EED);
    (0..n)
        .map(|i| {
            let prompt_len = 1 + (i * 3) % 9;
            let prompt: Vec<u32> = (0..prompt_len).map(|_| rng.below(vocab) as u32).collect();
            GenRequest {
                prompt,
                cfg: GenConfig {
                    max_new_tokens: 6 + (i % 5) * 4,
                    temperature: if i % 2 == 0 { 0.0 } else { 0.9 },
                    top_k: if i % 3 == 0 { 0 } else { 8 },
                    top_p: if i % 4 == 0 { 1.0 } else { 0.95 },
                    seed: 1000 + i as u64,
                    stop_token: None,
                },
                deadline: None,
                adapter: None,
            }
        })
        .collect()
}

#[test]
fn interleaved_scheduling_is_byte_identical_to_serial() {
    let model = tiny_model(0x1F);
    let reqs = mixed_requests(&model, 6);
    // Serial reference: each request alone through the engine.
    let serial: Vec<Vec<u32>> = reqs
        .iter()
        .map(|r| generate(&model, &r.prompt, &r.cfg, |_| {}))
        .collect();

    let cfg = SchedConfig {
        max_active: 4,
        queue_cap: 16,
        prefill_chunk: 3, // long prompts prefill over several ticks
        kv_capacity: 64,
        prefix_cache_bytes: 0,
    };
    let mut sched = Scheduler::new(Arc::clone(&model), cfg, Obs::disabled());
    let ids: Vec<u64> = reqs
        .iter()
        .map(|r| sched.submit(r.clone()).expect("queue has room"))
        .collect();

    let mut results = Vec::new();
    let mut max_active = 0;
    while !sched.is_idle() {
        sched.tick();
        max_active = max_active.max(sched.active());
        results.extend(sched.take_finished());
    }
    assert!(
        max_active >= 4,
        "test must exercise real concurrency, saw at most {max_active} active"
    );
    assert_eq!(results.len(), reqs.len());
    for res in results {
        let idx = ids.iter().position(|&id| id == res.id).expect("known id");
        assert_eq!(
            res.tokens, serial[idx],
            "request {idx} diverged from serial generation"
        );
        assert_eq!(res.outcome, Outcome::Done);
    }
}

#[test]
fn stop_token_retires_early_and_matches_serial() {
    let model = tiny_model(0x2F);
    let prompt: Vec<u32> = vec![3, 1, 4, 1, 5];
    let mut cfg = GenConfig {
        max_new_tokens: 24,
        temperature: 0.8,
        seed: 7,
        ..GenConfig::default()
    };
    // Pick a token the sampler actually emits, then make it the stop token.
    let free_run = generate(&model, &prompt, &cfg, |_| {});
    cfg.stop_token = Some(free_run[2]);
    let serial = generate(&model, &prompt, &cfg, |_| {});
    assert_eq!(*serial.last().expect("nonempty"), free_run[2]);

    let mut sched = Scheduler::new(Arc::clone(&model), SchedConfig::default(), Obs::disabled());
    sched
        .submit(GenRequest {
            prompt,
            cfg,
            deadline: None,
            adapter: None,
        })
        .expect("queue has room");
    let results = sched.run_to_completion();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].tokens, serial);
    assert_eq!(results[0].outcome, Outcome::StopToken);
}

#[test]
fn admission_is_bounded_and_rejects_gracefully() {
    let model = tiny_model(0x3F);
    let cfg = SchedConfig {
        max_active: 2,
        queue_cap: 3,
        prefill_chunk: 4,
        kv_capacity: 16,
        prefix_cache_bytes: 0,
    };
    let mut sched = Scheduler::new(model, cfg, Obs::disabled());
    let ok_req = GenRequest {
        prompt: vec![1, 2, 3],
        cfg: GenConfig {
            max_new_tokens: 4,
            ..GenConfig::default()
        },
        deadline: None,
        adapter: None,
    };
    for _ in 0..3 {
        sched.submit(ok_req.clone()).expect("under queue_cap");
    }
    assert_eq!(
        sched.submit(ok_req.clone()),
        Err(SubmitError::QueueFull),
        "fourth request must be rejected, not queued"
    );
    assert_eq!(sched.queue_depth(), 3);

    // Invalid requests are rejected regardless of queue room.
    let mut fresh = Scheduler::new(tiny_model(0x3F), SchedConfig::default(), Obs::disabled());
    assert_eq!(
        fresh.submit(GenRequest {
            prompt: vec![],
            ..ok_req.clone()
        }),
        Err(SubmitError::EmptyPrompt)
    );
    assert_eq!(
        fresh.submit(GenRequest {
            prompt: vec![0; 513],
            ..ok_req.clone()
        }),
        Err(SubmitError::PromptTooLong)
    );

    // The full queue drains normally and rejected work can be resubmitted.
    let drained = sched.run_to_completion();
    assert_eq!(drained.len(), 3);
    sched.submit(ok_req).expect("room again after draining");
    assert_eq!(sched.run_to_completion().len(), 1);
}

#[test]
fn deadline_expiry_retires_with_partial_output() {
    let model = tiny_model(0x4F);
    let mut sched = Scheduler::new(Arc::clone(&model), SchedConfig::default(), Obs::disabled());
    // A zero deadline expires on the admission tick, before any decode.
    sched
        .submit(GenRequest {
            prompt: vec![1, 2],
            cfg: GenConfig::default(),
            deadline: Some(Duration::ZERO),
            adapter: None,
        })
        .expect("queue has room");
    // A generous deadline never fires.
    sched
        .submit(GenRequest {
            prompt: vec![1, 2],
            cfg: GenConfig {
                max_new_tokens: 4,
                ..GenConfig::default()
            },
            deadline: Some(Duration::from_secs(3600)),
            adapter: None,
        })
        .expect("queue has room");
    let mut results = sched.run_to_completion();
    results.sort_by_key(|r| r.id);
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].outcome, Outcome::Deadline);
    assert!(results[0].tokens.is_empty(), "expired before decoding");
    assert_eq!(results[1].outcome, Outcome::Done);
    assert_eq!(results[1].tokens.len(), 4);
}

#[test]
fn cache_exhaustion_retires_with_cache_full() {
    let model = tiny_model(0x5F);
    let cfg = SchedConfig {
        max_active: 1,
        queue_cap: 4,
        prefill_chunk: 8,
        kv_capacity: 6,
        prefix_cache_bytes: 0,
    };
    let mut sched = Scheduler::new(Arc::clone(&model), cfg, Obs::disabled());
    sched
        .submit(GenRequest {
            prompt: vec![1, 2, 3, 4],
            cfg: GenConfig {
                max_new_tokens: 100, // cannot fit: only 2 decode feeds remain
                ..GenConfig::default()
            },
            deadline: None,
            adapter: None,
        })
        .expect("queue has room");
    let results = sched.run_to_completion();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].outcome, Outcome::CacheFull);
    // 4 prompt rows fill 4 slots; 2 more decode feeds fit, and each of the
    // 3 samples happens before its token would need feeding.
    assert_eq!(results[0].tokens.len(), 3);
    // The partial prefix still matches serial generation.
    let serial = generate(
        &model,
        &[1, 2, 3, 4],
        &GenConfig {
            max_new_tokens: 3,
            ..GenConfig::default()
        },
        |_| {},
    );
    assert_eq!(results[0].tokens, serial);
}

#[test]
fn scheduler_emits_retirement_metrics() {
    let model = tiny_model(0x6F);
    let obs = Obs::enabled(1);
    let mut sched = Scheduler::new(model, SchedConfig::default(), obs.clone());
    sched
        .submit(GenRequest {
            prompt: vec![1, 2, 3],
            cfg: GenConfig {
                max_new_tokens: 5,
                ..GenConfig::default()
            },
            deadline: None,
            adapter: None,
        })
        .expect("queue has room");
    sched.run_to_completion();
    assert_eq!(obs.counter_value("infer.requests_retired"), 1);
    assert_eq!(obs.counter_value("infer.prefill_tokens"), 3);
    assert_eq!(obs.counter_value("infer.decode_tokens"), 4);
}

#[test]
fn server_concurrent_submissions_match_serial() {
    let model = tiny_model(0x7F);
    let reqs = mixed_requests(&model, 5);
    let serial: Vec<Vec<u32>> = reqs
        .iter()
        .map(|r| generate(&model, &r.prompt, &r.cfg, |_| {}))
        .collect();

    let cfg = SchedConfig {
        max_active: 4,
        queue_cap: 8,
        prefill_chunk: 4,
        kv_capacity: 64,
        prefix_cache_bytes: 0,
    };
    let server = Server::start_multi(
        Arc::clone(&model),
        cfg,
        Obs::disabled(),
        Arc::new(AdapterRegistry::empty()),
    );
    let handles: Vec<_> = reqs
        .iter()
        .map(|r| server.submit(r.clone()).expect("queue has room"))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let res = h.wait().expect("server completes accepted work");
        assert_eq!(res.tokens, serial[i], "request {i} diverged under serving");
        assert_eq!(res.outcome, Outcome::Done);
    }
    drop(server); // joins the worker
}

#[test]
fn cancel_frees_queued_and_active_requests() {
    let model = tiny_model(0x8F);
    let cfg = SchedConfig {
        max_active: 1,
        queue_cap: 4,
        prefill_chunk: 8,
        kv_capacity: 64,
        prefix_cache_bytes: 0,
    };
    let mut sched = Scheduler::new(Arc::clone(&model), cfg, Obs::disabled());
    let req = GenRequest {
        prompt: vec![1, 2, 3],
        cfg: GenConfig {
            max_new_tokens: 8,
            ..GenConfig::default()
        },
        deadline: None,
        adapter: None,
    };
    let active_id = sched.submit(req.clone()).expect("queue has room");
    let queued_id = sched.submit(req.clone()).expect("queue has room");
    sched.tick(); // admits the first, leaves the second queued

    // Cancelling the queued request retires it immediately, empty-handed.
    assert!(sched.cancel(queued_id));
    let queued_result = sched
        .take_finished()
        .into_iter()
        .find(|r| r.id == queued_id)
        .expect("queued cancel retires immediately");
    assert_eq!(queued_result.outcome, Outcome::Cancelled);
    assert!(queued_result.tokens.is_empty());

    // Cancelling the active request frees its slot on the next tick and
    // keeps the tokens generated so far (a serial-prefix, as always).
    assert!(sched.cancel(active_id));
    assert!(!sched.cancel(active_id), "double cancel must be a no-op");
    sched.tick();
    let active_result = sched
        .take_finished()
        .into_iter()
        .find(|r| r.id == active_id)
        .expect("active cancel retires on the next tick");
    assert_eq!(active_result.outcome, Outcome::Cancelled);
    let serial = generate(
        &model,
        &[1, 2, 3],
        &GenConfig {
            max_new_tokens: 8,
            ..GenConfig::default()
        },
        |_| {},
    );
    assert_eq!(
        active_result.tokens,
        serial[..active_result.tokens.len()],
        "partial output must stay a serial prefix"
    );
    assert!(sched.is_idle(), "cancelled work must free every slot");
    assert!(!sched.cancel(9999), "unknown ids report false");
}

#[test]
fn deadline_during_chunked_prefill_retires_without_output() {
    let model = tiny_model(0x9F);
    let cfg = SchedConfig {
        max_active: 1,
        queue_cap: 2,
        prefill_chunk: 1, // prefill spans many ticks
        kv_capacity: 64,
        prefix_cache_bytes: 0,
    };
    let mut sched = Scheduler::new(model, cfg, Obs::disabled());
    sched
        .submit(GenRequest {
            prompt: vec![1, 2, 3, 4, 5, 6],
            cfg: GenConfig {
                max_new_tokens: 8,
                ..GenConfig::default()
            },
            deadline: Some(Duration::from_millis(30)),
            adapter: None,
        })
        .expect("queue has room");
    // Two ticks feed two of six prompt rows; then the deadline passes
    // while prefill is still in progress.
    sched.tick();
    sched.tick();
    std::thread::sleep(Duration::from_millis(40));
    let results = sched.run_to_completion();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].outcome, Outcome::Deadline);
    assert!(
        results[0].tokens.is_empty(),
        "no token was sampled before expiry, none may be invented"
    );
    assert!(sched.is_idle(), "the half-prefilled slot must be reclaimed");
}

#[test]
fn deadline_expiry_beats_a_stop_token_arriving_the_same_tick() {
    let model = tiny_model(0xAF);
    let prompt = vec![4u32, 2];
    let gen = GenConfig {
        max_new_tokens: 8,
        ..GenConfig::default()
    };
    // Greedy first token, made the stop token for both cases below.
    let first = generate(&model, &prompt, &gen, |_| {})[0];
    let gen = GenConfig {
        stop_token: Some(first),
        ..gen
    };
    let cfg = SchedConfig {
        max_active: 1,
        queue_cap: 2,
        prefill_chunk: 1, // tick 1 feeds one row; tick 2 would sample
        kv_capacity: 64,
        prefix_cache_bytes: 0,
    };

    // Case A: the deadline expires between ticks. The expiry check runs
    // before decode, so the tick that would have sampled the stop token
    // retires the request as Deadline instead — with no tokens.
    let mut sched = Scheduler::new(Arc::clone(&model), cfg.clone(), Obs::disabled());
    sched
        .submit(GenRequest {
            prompt: prompt.clone(),
            cfg: gen.clone(),
            deadline: Some(Duration::from_millis(25)),
            adapter: None,
        })
        .expect("queue has room");
    sched.tick(); // admit + first prefill row; nothing sampled yet
    std::thread::sleep(Duration::from_millis(40));
    let results = sched.run_to_completion();
    assert_eq!(results[0].outcome, Outcome::Deadline);
    assert!(results[0].tokens.is_empty());

    // Case B: the stop token is sampled while the deadline is still
    // comfortably in the future — StopToken wins and keeps the token.
    let mut sched = Scheduler::new(model, cfg, Obs::disabled());
    sched
        .submit(GenRequest {
            prompt,
            cfg: gen,
            deadline: Some(Duration::from_secs(3600)),
            adapter: None,
        })
        .expect("queue has room");
    let results = sched.run_to_completion();
    assert_eq!(results[0].outcome, Outcome::StopToken);
    assert_eq!(results[0].tokens, vec![first]);
}

#[test]
fn cache_full_retirement_still_lands_during_drain() {
    let model = tiny_model(0xBF);
    let cfg = SchedConfig {
        max_active: 1,
        queue_cap: 4,
        prefill_chunk: 8,
        kv_capacity: 6,
        prefix_cache_bytes: 0,
    };
    let server = Server::start_multi(
        model,
        cfg,
        Obs::disabled(),
        Arc::new(AdapterRegistry::empty()),
    );
    let handle = server
        .submit(GenRequest {
            prompt: vec![1, 2, 3, 4],
            cfg: GenConfig {
                max_new_tokens: 100, // cannot fit in a 6-slot cache
                ..GenConfig::default()
            },
            deadline: None,
            adapter: None,
        })
        .expect("queue has room");
    server.begin_drain();
    // Draining rejects new work...
    let rejected = server.submit(GenRequest {
        prompt: vec![1],
        cfg: GenConfig::default(),
        deadline: None,
        adapter: None,
    });
    assert!(
        matches!(rejected, Err(SubmitError::QueueFull)),
        "draining server must not admit new requests"
    );
    // ...but the in-flight request still retires with its real outcome.
    let res = handle.wait().expect("drain completes in-flight work");
    assert_eq!(res.outcome, Outcome::CacheFull);
    assert_eq!(res.tokens.len(), 3);
}

#[test]
fn wait_timeout_times_out_then_completes() {
    let model = tiny_model(0xCF);
    let cfg = SchedConfig {
        max_active: 1,
        queue_cap: 2,
        prefill_chunk: 8,
        kv_capacity: 4096,
        prefix_cache_bytes: 0,
    };
    let server = Server::start_multi(
        model,
        cfg,
        Obs::disabled(),
        Arc::new(AdapterRegistry::empty()),
    );
    let mut handle = server
        .submit(GenRequest {
            prompt: vec![1, 2],
            cfg: GenConfig {
                max_new_tokens: 2000,
                ..GenConfig::default()
            },
            deadline: None,
            adapter: None,
        })
        .expect("queue has room");
    // 2000 decode ticks cannot finish within a millisecond.
    assert!(matches!(
        handle.wait_timeout(Duration::from_millis(1)),
        Err(apollo_infer::WaitError::TimedOut)
    ));
    // The handle stays live after a timeout; a patient wait succeeds.
    let res = handle
        .wait_timeout(Duration::from_secs(120))
        .expect("request completes");
    assert_eq!(res.outcome, Outcome::Done);
    assert_eq!(res.tokens.len(), 2000);
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn dropping_a_handle_cancels_the_in_flight_request() {
    let model = tiny_model(0xDF);
    let cfg = SchedConfig {
        max_active: 1,
        queue_cap: 2,
        prefill_chunk: 8,
        kv_capacity: 4096,
        prefix_cache_bytes: 0,
    };
    let obs = Obs::enabled(1);
    let server = Server::start_multi(
        Arc::clone(&model),
        cfg,
        obs.clone(),
        Arc::new(AdapterRegistry::empty()),
    );
    let handle = server
        .submit(GenRequest {
            prompt: vec![1, 2, 3],
            cfg: GenConfig {
                max_new_tokens: 4000, // would run for a long time
                ..GenConfig::default()
            },
            deadline: None,
            adapter: None,
        })
        .expect("queue has room");
    drop(handle); // client walks away

    // The cancel must reach the scheduler and free the slot.
    let t0 = std::time::Instant::now();
    while server.in_flight() > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "dropped handle leaked its slot"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(obs.counter_value("infer.requests_retired"), 1);

    // The server keeps working at full capacity afterwards.
    let reqs = mixed_requests(&model, 2);
    for (i, req) in reqs.iter().enumerate() {
        let serial = generate(&model, &req.prompt, &req.cfg, |_| {});
        let res = server
            .submit(req.clone())
            .expect("queue has room")
            .wait()
            .expect("completes");
        assert_eq!(res.tokens, serial, "request {i} diverged after a cancel");
    }
}

#[test]
fn handles_dropped_while_queued_never_take_the_slot() {
    let model = tiny_model(0xD7);
    let cfg = SchedConfig {
        max_active: 1,
        queue_cap: 16,
        prefill_chunk: 8,
        kv_capacity: 1 << 16,
        prefix_cache_bytes: 0,
    };
    let obs = Obs::enabled(1);
    let server = Server::start_multi(
        Arc::clone(&model),
        cfg,
        obs.clone(),
        Arc::new(AdapterRegistry::empty()),
    );
    let long = GenRequest {
        prompt: vec![1, 2, 3],
        cfg: GenConfig {
            // Tens of seconds of decoding: it holds the only slot until
            // its handle is dropped below.
            max_new_tokens: 1 << 16,
            ..GenConfig::default()
        },
        deadline: None,
        adapter: None,
    };
    let mut holder = server.submit(long.clone()).expect("queue has room");
    // Its first token means it owns the slot.
    assert!(matches!(
        holder.next_event(Duration::from_secs(10)),
        Ok(GenEvent::Token(_))
    ));
    // Eight requests queue behind it; their clients walk away at once.
    for (i, req) in mixed_requests(&model, 8).into_iter().enumerate() {
        drop(
            server
                .submit(req)
                .unwrap_or_else(|e| panic!("request {i}: {e}")),
        );
    }
    let last_req = mixed_requests(&model, 9).pop().expect("nine requests");
    let last = server.submit(last_req.clone()).expect("queue has room");
    // All eight retire from the queue while the long request runs.
    let t0 = std::time::Instant::now();
    while server.in_flight() > 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "dropped queued handles leaked"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(holder);
    let res = last.wait().expect("the last request completes");
    let serial = generate(&model, &last_req.prompt, &last_req.cfg, |_| {});
    assert_eq!(res.tokens, serial);
    assert_eq!(server.in_flight(), 0);
    assert_eq!(obs.counter_value("infer.requests_retired"), 10);
    // Only the two kept prompts were ever prefilled.
    assert_eq!(
        obs.counter_value("infer.prefill_tokens"),
        (long.prompt.len() + last_req.prompt.len()) as u64
    );
}

#[test]
fn rejections_are_counted_by_reason() {
    let model = tiny_model(0xEF);
    let cfg = SchedConfig {
        max_active: 1,
        queue_cap: 1,
        prefill_chunk: 4,
        kv_capacity: 8,
        prefix_cache_bytes: 0,
    };
    let obs = Obs::enabled(1);
    let mut sched = Scheduler::new(model, cfg, obs.clone());
    let ok = GenRequest {
        prompt: vec![1, 2],
        cfg: GenConfig {
            max_new_tokens: 2,
            ..GenConfig::default()
        },
        deadline: None,
        adapter: None,
    };
    sched.submit(ok.clone()).expect("first fits");
    let _ = sched.submit(ok.clone()); // queue full
    let _ = sched.submit(GenRequest {
        prompt: vec![],
        ..ok.clone()
    });
    let _ = sched.submit(GenRequest {
        prompt: vec![0; 9],
        ..ok.clone()
    });
    let _ = sched.submit(GenRequest {
        prompt: vec![0; 9],
        ..ok
    });
    assert_eq!(obs.counter_value("infer.rejected.queue_full"), 1);
    assert_eq!(obs.counter_value("infer.rejected.empty_prompt"), 1);
    assert_eq!(obs.counter_value("infer.rejected.prompt_too_long"), 2);
}
