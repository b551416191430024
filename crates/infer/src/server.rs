//! Threaded serving loop around the deterministic [`Scheduler`].
//!
//! A [`Server`] owns one worker thread that drains an admission channel
//! into the scheduler, ticks it while work is in flight, and routes each
//! sampled token and each retired [`GenResult`] back to the submitting
//! caller through a per-request event channel. Callers hold a
//! [`GenHandle`]: block on [`GenHandle::wait`] /
//! [`GenHandle::wait_timeout`] for the final result, or consume
//! [`GenEvent`]s one at a time for chunked streaming.
//!
//! Robustness properties the network front-end builds on:
//!
//! - **Admission is bounded twice and never blocks.** The
//!   `mpsc::sync_channel` bounds in-transit submissions and the
//!   scheduler's own `queue_cap` bounds accepted-but-not-admitted
//!   requests; [`Server::submit`] reports a full channel as
//!   [`SubmitError::QueueFull`] and validates prompts up front, so every
//!   rejection carries its reason (and is counted — see
//!   `infer.rejected.*`).
//! - **Dropping a [`GenHandle`] cancels its request.** A disconnected
//!   client can never pin a scheduler slot: the drop sends a cancel
//!   ticket, the worker retires the request with [`Outcome::Cancelled`]
//!   and frees the slot (or queue position) on the next loop.
//! - **Drain is explicit.** [`Server::begin_drain`] stops admission
//!   ([`SubmitError::QueueFull`] to new work) while in-flight requests
//!   finish; dropping the server drains and joins the worker.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apollo_nn::{AdapterRegistry, DecodeBackend};
use apollo_obs::Obs;

use crate::scheduler::{
    observe_rejection, GenRequest, GenResult, SchedConfig, Scheduler, SubmitError,
};
use crate::stats::ServeStats;

/// One submission in transit to the worker.
struct Envelope {
    ticket: u64,
    req: GenRequest,
    reply: mpsc::Sender<GenEvent>,
}

/// One streamed event of a submitted request.
#[derive(Debug, Clone)]
pub enum GenEvent {
    /// The next sampled token, in order.
    Token(u32),
    /// The request retired; carries the full output (every token
    /// previously streamed, in the same order).
    Finished(GenResult),
}

/// Why a wait on a [`GenHandle`] returned without a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The timeout elapsed; the request is still in flight and the handle
    /// stays valid (retry, or drop it to cancel the request).
    TimedOut,
    /// The server shut down before the request could finish.
    ServerGone,
}

/// Receives the result of one submitted request. Dropping the handle
/// before the request finished cancels it — the scheduler retires it with
/// [`Outcome::Cancelled`] and reclaims the slot.
pub struct GenHandle {
    ticket: u64,
    rx: Receiver<GenEvent>,
    cancel: mpsc::Sender<u64>,
    finished: bool,
}

impl GenHandle {
    /// Blocks until the request retires. Returns `None` only if the server
    /// was dropped before the request could finish.
    pub fn wait(mut self) -> Option<GenResult> {
        loop {
            match self.rx.recv() {
                Ok(GenEvent::Finished(res)) => {
                    self.finished = true;
                    return Some(res);
                }
                Ok(GenEvent::Token(_)) => {}
                Err(_) => {
                    self.finished = true; // nothing left to cancel
                    return None;
                }
            }
        }
    }

    /// Blocks until the request retires or `timeout` elapses, skipping
    /// intermediate token events. On [`WaitError::TimedOut`] the handle
    /// stays live: call again to keep waiting, or drop it to cancel.
    ///
    /// # Errors
    ///
    /// [`WaitError::TimedOut`] when the deadline passes first,
    /// [`WaitError::ServerGone`] when the server shut down.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<GenResult, WaitError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.next_event(deadline.saturating_duration_since(Instant::now()))? {
                GenEvent::Finished(res) => return Ok(res),
                GenEvent::Token(_) => {}
            }
        }
    }

    /// Receives the next event (token or finish) within `timeout`.
    ///
    /// # Errors
    ///
    /// [`WaitError::TimedOut`] when no event arrives in time,
    /// [`WaitError::ServerGone`] when the server shut down.
    pub fn next_event(&mut self, timeout: Duration) -> Result<GenEvent, WaitError> {
        match self.rx.recv_timeout(timeout) {
            Ok(ev) => {
                if matches!(ev, GenEvent::Finished(_)) {
                    self.finished = true;
                }
                Ok(ev)
            }
            Err(RecvTimeoutError::Timeout) => Err(WaitError::TimedOut),
            Err(RecvTimeoutError::Disconnected) => {
                self.finished = true;
                Err(WaitError::ServerGone)
            }
        }
    }
}

impl Drop for GenHandle {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort: if the worker is gone the request is gone too.
            let _ = self.cancel.send(self.ticket);
        }
    }
}

/// A running generation server. Dropping it finishes all accepted requests
/// and joins the worker thread.
pub struct Server {
    tx: Option<SyncSender<Envelope>>,
    cancel_tx: mpsc::Sender<u64>,
    worker: Option<JoinHandle<()>>,
    obs: Obs,
    kv_capacity: usize,
    next_ticket: AtomicUsize,
    in_flight: Arc<AtomicUsize>,
    draining: Arc<AtomicBool>,
    registry: Arc<AdapterRegistry>,
    stats: Arc<ServeStats>,
}

impl Server {
    /// Spawns the worker thread around a fresh [`Scheduler`]. Accepts any
    /// decode backend (`Arc<LlamaModel>` or an INT8 `QuantizedModel`).
    pub fn start(model: impl Into<DecodeBackend>, cfg: SchedConfig, obs: Obs) -> Self {
        Self::start_multi(model, cfg, obs, Arc::new(AdapterRegistry::empty()))
    }

    /// [`Server::start`] with multi-tenant adapter routing: requests may
    /// carry an adapter id from `registry`, and serving counters land in
    /// the shared [`ServeStats`] (see [`Server::stats`]).
    ///
    /// # Panics
    ///
    /// Panics on a non-empty registry over an INT8 backend (see
    /// [`Scheduler::new_multi`]).
    pub fn start_multi(
        model: impl Into<DecodeBackend>,
        cfg: SchedConfig,
        obs: Obs,
        registry: Arc<AdapterRegistry>,
    ) -> Self {
        let model = model.into();
        let stats = Arc::new(ServeStats::default());
        let (tx, rx) = mpsc::sync_channel::<Envelope>(cfg.queue_cap.max(1));
        let (cancel_tx, cancel_rx) = mpsc::channel::<u64>();
        let in_flight = Arc::new(AtomicUsize::new(0));
        let kv_capacity = cfg.kv_capacity;
        let queue_cap = cfg.queue_cap;
        let worker = {
            let obs = obs.clone();
            let in_flight = Arc::clone(&in_flight);
            let registry = Arc::clone(&registry);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("apollo-infer-server".to_string())
                .spawn(move || {
                    let sched = Scheduler::new_multi(model, cfg, obs, registry, stats);
                    serve(sched, queue_cap, rx, cancel_rx, &in_flight);
                })
                .expect("spawn inference server thread")
        };
        Server {
            tx: Some(tx),
            cancel_tx,
            worker: Some(worker),
            obs,
            kv_capacity,
            next_ticket: AtomicUsize::new(0),
            in_flight,
            draining: Arc::new(AtomicBool::new(false)),
            registry,
            stats,
        }
    }

    /// The adapter registry requests route against (empty for
    /// single-tenant servers).
    pub fn registry(&self) -> &Arc<AdapterRegistry> {
        &self.registry
    }

    /// The shared serving counters written by the scheduler tick.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// Requests accepted (queued or running) and not yet retired. The
    /// front-end sheds load against this before the hard queue bound.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Per-slot KV capacity (the longest admissible prompt).
    pub fn kv_capacity(&self) -> usize {
        self.kv_capacity
    }

    /// Stops admitting new work; in-flight requests keep running. Further
    /// [`Server::submit`] calls fail with [`SubmitError::QueueFull`].
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Whether [`Server::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::EmptyPrompt`] / [`SubmitError::PromptTooLong`] for
    /// requests that could never run (validated here, before the worker,
    /// so callers get the reason synchronously), and
    /// [`SubmitError::QueueFull`] when the admission channel is at
    /// capacity or the server is draining (graceful rejection: the caller
    /// may retry later). Every rejection is counted under
    /// `infer.rejected.*` and traced.
    pub fn submit(&self, req: GenRequest) -> Result<GenHandle, SubmitError> {
        if req.prompt.is_empty() {
            observe_rejection(&self.obs, SubmitError::EmptyPrompt);
            return Err(SubmitError::EmptyPrompt);
        }
        if req.prompt.len() > self.kv_capacity {
            observe_rejection(&self.obs, SubmitError::PromptTooLong);
            return Err(SubmitError::PromptTooLong);
        }
        if req
            .adapter
            .is_some_and(|id| (id as usize) >= self.registry.len())
        {
            observe_rejection(&self.obs, SubmitError::UnknownAdapter);
            return Err(SubmitError::UnknownAdapter);
        }
        if self.is_draining() {
            observe_rejection(&self.obs, SubmitError::QueueFull);
            return Err(SubmitError::QueueFull);
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed) as u64;
        let (reply, rx) = mpsc::channel();
        let env = Envelope { ticket, req, reply };
        match self.tx.as_ref().expect("server running").try_send(env) {
            Ok(()) => {
                self.in_flight.fetch_add(1, Ordering::Relaxed);
                Ok(GenHandle {
                    ticket,
                    rx,
                    cancel: self.cancel_tx.clone(),
                    finished: false,
                })
            }
            Err(mpsc::TrySendError::Full(_)) | Err(mpsc::TrySendError::Disconnected(_)) => {
                observe_rejection(&self.obs, SubmitError::QueueFull);
                Err(SubmitError::QueueFull)
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Closing the channel tells the worker to finish in-flight work
        // and exit; join so results are flushed before we return.
        self.tx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Per-request routing state held by the worker.
struct Route {
    ticket: u64,
    reply: mpsc::Sender<GenEvent>,
}

/// Worker loop: apply cancellations, drain submissions, tick while busy,
/// stream progress, dispatch results, park while idle.
fn serve(
    mut sched: Scheduler,
    queue_cap: usize,
    rx: Receiver<Envelope>,
    cancel_rx: Receiver<u64>,
    in_flight: &AtomicUsize,
) {
    let mut routes: HashMap<u64, Route> = HashMap::new(); // sched id -> route
    let mut tickets: HashMap<u64, u64> = HashMap::new(); // ticket -> sched id
    let mut cancelled_early: HashSet<u64> = HashSet::new(); // tickets cancelled pre-submit
    let mut held: Option<Envelope> = None; // submission awaiting queue room
    let mut open = true;
    while open || !sched.is_idle() || held.is_some() {
        // Cancellations first: a dropped handle must free its slot even if
        // the admission channel is busy.
        while let Ok(ticket) = cancel_rx.try_recv() {
            match tickets.get(&ticket) {
                Some(&id) => {
                    sched.cancel(id);
                }
                None => {
                    cancelled_early.insert(ticket);
                }
            }
        }
        // Admit as many in-transit submissions as the scheduler queue takes.
        // Block (briefly) only when there is nothing to tick.
        while sched.queue_depth() < queue_cap {
            let env = if let Some(env) = held.take() {
                env
            } else if open && sched.is_idle() {
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(env) => env,
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            } else {
                match rx.try_recv() {
                    Ok(env) => env,
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            };
            // Clone so the envelope survives the (rare) hold-and-retry path.
            match sched.submit(env.req.clone()) {
                Ok(id) => {
                    tickets.insert(env.ticket, id);
                    routes.insert(
                        id,
                        Route {
                            ticket: env.ticket,
                            reply: env.reply,
                        },
                    );
                    if cancelled_early.remove(&env.ticket) {
                        // The handle was dropped before the envelope got
                        // here: retire it as the queued cancel it is, so
                        // it is counted and traced like one that lost the
                        // race the other way.
                        sched.cancel(id);
                    }
                }
                Err(SubmitError::QueueFull) => {
                    // Raced a concurrent burst past the depth check; hold
                    // the envelope and retry after the next tick frees room.
                    held = Some(env);
                    break;
                }
                Err(_) => {
                    // Invalid request (rejection already counted by the
                    // scheduler): drop the reply sender so the handle's
                    // `wait()` returns `None`.
                    cancelled_early.remove(&env.ticket);
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                    drop(env.reply);
                }
            }
        }
        if !sched.is_idle() {
            sched.tick();
        }
        for (id, tok) in sched.take_progress() {
            if let Some(route) = routes.get(&id) {
                let _ = route.reply.send(GenEvent::Token(tok));
            }
        }
        for result in sched.take_finished() {
            if let Some(route) = routes.remove(&result.id) {
                tickets.remove(&route.ticket);
                in_flight.fetch_sub(1, Ordering::Relaxed);
                let _ = route.reply.send(GenEvent::Finished(result));
            }
        }
    }
}
