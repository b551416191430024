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
//! - **One admission rule, decided before the worker.** [`Server::submit`]
//!   applies the scheduler's own rule (empty prompt, prompt over the KV
//!   capacity, unknown adapter), then refuses while draining or when the
//!   bounded channel is full ([`SubmitError::QueueFull`]). It never blocks,
//!   and every refusal is counted under `infer.rejected.*`. The worker
//!   pulls from the channel only while the scheduler queue has room, so a
//!   request that left `submit` is always accepted there.
//! - **One id.** A request is known by its scheduler id only; the worker
//!   routes tokens and the result by it.
//! - **Dropping a [`GenHandle`] cancels its request.** The handle shares
//!   a cancel flag with the worker and raises it on drop; before each tick
//!   the worker retires every flagged request with [`Outcome::Cancelled`]
//!   and frees its slot or queue position, so a disconnected client can
//!   never pin a slot. A flag raised after retirement has no route left to
//!   read it.
//! - **[`Server::in_flight`] falls only on retirement**, when the worker
//!   routes the result back (a send the channel refuses takes back its
//!   own count).
//! - **Drain is explicit.** [`Server::begin_drain`] stops admission
//!   ([`SubmitError::QueueFull`] to new work) while in-flight requests
//!   finish; dropping the server drains and joins the worker.
//!
//! [`Outcome::Cancelled`]: crate::Outcome::Cancelled

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apollo_nn::{AdapterRegistry, DecodeBackend};
use apollo_obs::Obs;

use crate::scheduler::{
    admission, observe_rejection, GenRequest, GenResult, SchedConfig, Scheduler, SubmitError,
};
use crate::stats::ServeStats;

/// One submission in transit to the worker.
struct Envelope {
    req: GenRequest,
    route: Route,
}

/// Where a request's events go, and the flag its handle raises on drop.
struct Route {
    reply: mpsc::Sender<GenEvent>,
    cancel: Arc<AtomicBool>,
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
/// [`crate::Outcome::Cancelled`] and reclaims the slot.
pub struct GenHandle {
    rx: Receiver<GenEvent>,
    cancel: Arc<AtomicBool>,
}

impl GenHandle {
    /// Blocks until the request retires. Returns `None` only if the server
    /// was dropped before the request could finish.
    pub fn wait(self) -> Option<GenResult> {
        self.rx.iter().find_map(|ev| match ev {
            GenEvent::Finished(res) => Some(res),
            GenEvent::Token(_) => None,
        })
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
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => WaitError::TimedOut,
            RecvTimeoutError::Disconnected => WaitError::ServerGone,
        })
    }
}

impl Drop for GenHandle {
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// A running generation server. Dropping it finishes all accepted requests
/// and joins the worker thread.
pub struct Server {
    tx: Option<SyncSender<Envelope>>,
    worker: Option<JoinHandle<()>>,
    obs: Obs,
    kv_capacity: usize,
    in_flight: Arc<AtomicUsize>,
    draining: AtomicBool,
    registry: Arc<AdapterRegistry>,
    stats: Arc<ServeStats>,
}

impl Server {
    /// Spawns the worker thread around a fresh [`Scheduler`]. Accepts any
    /// decode backend (`Arc<LlamaModel>` or an INT8 `QuantizedModel`).
    /// Requests may carry an adapter id from `registry` (pass
    /// [`AdapterRegistry::empty`] to serve the base model only), and
    /// serving counters land in the shared [`ServeStats`] (see
    /// [`Server::stats`]).
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
                    serve(sched, queue_cap, &rx, &in_flight);
                })
                .expect("spawn inference server thread")
        };
        Server {
            tx: Some(tx),
            worker: Some(worker),
            obs,
            kv_capacity,
            in_flight,
            draining: AtomicBool::new(false),
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
    /// [`SubmitError::EmptyPrompt`] / [`SubmitError::PromptTooLong`] /
    /// [`SubmitError::UnknownAdapter`] for requests that could never run
    /// (the scheduler's admission rule, applied here so callers get the
    /// reason synchronously), and [`SubmitError::QueueFull`] when the
    /// admission channel is at capacity or the server is draining
    /// (graceful rejection: the caller may retry later). Every rejection
    /// is counted under `infer.rejected.*` and traced.
    pub fn submit(&self, req: GenRequest) -> Result<GenHandle, SubmitError> {
        let refuse = |err| {
            observe_rejection(&self.obs, err);
            Err(err)
        };
        if let Err(err) = admission(&req, self.kv_capacity, &self.registry) {
            return refuse(err);
        }
        if self.is_draining() {
            return refuse(SubmitError::QueueFull);
        }
        let (reply, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let env = Envelope {
            req,
            route: Route {
                reply,
                cancel: Arc::clone(&cancel),
            },
        };
        // Counted before the send so the worker's decrement can never run
        // first; a refused send takes it back.
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let tx = self.tx.as_ref().expect("server running");
        if tx.try_send(env).is_err() {
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
            return refuse(SubmitError::QueueFull);
        }
        Ok(GenHandle { rx, cancel })
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

/// Worker loop: admit submissions, apply cancellations, tick while busy,
/// stream progress, dispatch results, park while idle.
fn serve(mut sched: Scheduler, queue_cap: usize, rx: &Receiver<Envelope>, in_flight: &AtomicUsize) {
    let mut routes: BTreeMap<u64, Route> = BTreeMap::new(); // keyed by scheduler id
    let mut open = true;
    while open || !sched.is_idle() {
        // Admit as many in-transit submissions as the scheduler queue takes.
        // Block (briefly) only when there is nothing to tick.
        while sched.queue_depth() < queue_cap {
            let next = if open && sched.is_idle() {
                rx.recv_timeout(Duration::from_millis(50))
                    .map_err(|e| e == RecvTimeoutError::Disconnected)
            } else {
                rx.try_recv()
                    .map_err(|e| e == mpsc::TryRecvError::Disconnected)
            };
            let env = match next {
                Ok(env) => env,
                Err(disconnected) => {
                    open &= !disconnected;
                    break;
                }
            };
            let id = sched.submit(env.req).expect(
                "Server::submit applied the admission rule against this scheduler's \
                 kv_capacity and registry, and the queue has room",
            );
            routes.insert(id, env.route);
        }
        // A dropped handle frees its slot (or queue position) before this
        // tick spends a row on it.
        for (&id, route) in &routes {
            if route.cancel.swap(false, Ordering::Relaxed) {
                sched.cancel(id);
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
                in_flight.fetch_sub(1, Ordering::Relaxed);
                let _ = route.reply.send(GenEvent::Finished(result));
            }
        }
    }
}
