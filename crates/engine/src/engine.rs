//! The concurrent query engine: a **persistent** sharded worker pool over the
//! solvers.
//!
//! The pool is spawned once, when the [`Engine`] is constructed, and every
//! session — a [`Engine::run_batch`] call, a [`Engine::serve`] loop, or any
//! number of concurrent socket connections (see [`crate::transport`]) —
//! multiplexes its requests onto the same workers through one shared
//! **bounded** job queue (submission waits when all workers are busy and the
//! queue is full: backpressure, not unbounded buffering).  Each job carries a
//! reply channel back to the session that submitted it, so sessions never see
//! each other's responses.
//!
//! Every request enters through one submission path (`Submitter::submit`:
//! local route, flight join, or pool job), and every wire session runs one
//! state machine (`SessionMux`), whether a readiness loop drives it or
//! [`Engine::serve_with`] drives it from a blocking reader.
//!
//! Results are deterministic: the engine only parallelizes *across* requests.
//! Idle workers block on the shared job queue, and each pool job runs start
//! to finish on the one worker that took it, answered exactly as a direct
//! single-threaded solver call would answer it.  Response *ordering* is a
//! per-session choice ([`OrderMode`]): `input` order reorders responses into
//! request order through a bounded buffer, `arrival` order streams each
//! response the moment it completes so one slow request never
//! head-of-line-blocks the rest.

use crate::cache::{CacheStats, CachedResult, QueryCache};
use crate::fairness::UserBuckets;
use crate::flight::{FlightSink, FlightTable, Follower, LeadOutcome};
use crate::ops;
use crate::policy::{
    exec_route, ExecRoute, FixedPolicy, SizeThresholdPolicy, SolverKind, SolverPolicy,
};
use crate::request::Request;
use crate::response::{EngineError, Outcome, RequestStats, Response};
use crate::stream::{
    CancelToken, ChunkFrame, ChunkPayload, ResultSink, SinkDirective, StopReason, StreamEvent,
    StreamItem, StreamProgress,
};
use crate::wire::{self, OrderMode};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Engine construction parameters.
#[derive(Clone)]
pub struct EngineConfig {
    /// Number of worker threads (shards) in the persistent pool.
    pub workers: usize,
    /// Capacity of the bounded submission queue, shared by all sessions;
    /// submission blocks beyond it.
    pub queue_capacity: usize,
    /// Whether to cache results keyed by canonical request encodings.
    pub cache: bool,
    /// Maximum number of entries the LRU result cache holds.
    pub cache_capacity: usize,
    /// Optional time-to-live for cache entries (measured from insertion).
    pub cache_ttl: Option<Duration>,
    /// Solver routing policy applied to every duality call (unless a request
    /// carries a `solver=` override).
    pub policy: Arc<dyn SolverPolicy>,
    /// Optional cache snapshot path (`qld serve --cache-file`).  When set and
    /// the file exists, [`Engine::new`] restores the cache from it (a corrupt
    /// or version-mismatched snapshot restores nothing — the engine starts
    /// cold); [`Engine::save_cache_snapshot`] writes it back.
    pub cache_file: Option<PathBuf>,
    /// In-process ("local") execution threshold (`qld serve
    /// --local-threshold`), in work units `|V| · (|G| + |H|)`.  A one-shot
    /// `check` request strictly below it is answered synchronously on the
    /// submitting session's thread through the embedded solver — no pool
    /// round-trip, no cache lookup (and no cache-key render), no
    /// cancellation window.  `0` (the default) disables local execution:
    /// every request takes the pool path exactly as before.  See
    /// [`crate::ExecRoute`].
    pub local_threshold: usize,
    /// Single-flight request coalescing (`qld serve --no-coalesce` clears
    /// it): identical queries arriving while the first is still executing
    /// attach to that execution as followers instead of running the solver
    /// again (see `engine/src/flight.rs`).  Requires the cache (the flight key
    /// *is* the canonical cache key); with `cache: false` every request
    /// executes individually regardless of this flag.
    pub coalesce: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: thread::available_parallelism()
                .map_or(4, usize::from)
                .min(8),
            queue_capacity: 256,
            cache: true,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            cache_ttl: None,
            policy: Arc::new(SizeThresholdPolicy::default()),
            cache_file: None,
            local_threshold: 0,
            coalesce: true,
        }
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("cache", &self.cache)
            .field("cache_capacity", &self.cache_capacity)
            .field("cache_ttl", &self.cache_ttl)
            .field("policy", &self.policy.name())
            .field("cache_file", &self.cache_file)
            .field("local_threshold", &self.local_threshold)
            .field("coalesce", &self.coalesce)
            .finish()
    }
}

/// Options of one serve session (one stdin/stdout loop or one socket
/// connection).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Default response ordering; individual requests may override it with
    /// the `order=` wire keyword.
    pub order: OrderMode,
    /// Per-session in-flight quota (`qld serve --max-inflight`): a request
    /// arriving while this many of the session's requests are still
    /// unanswered is rejected at admission with a `quota` error instead of
    /// being queued.  `None` means no limit (the shared bounded job queue
    /// still backpressures).
    pub max_inflight: Option<usize>,
    /// Per-request item quota (`qld serve --max-items`): any single request
    /// of the session stops after yielding this many result items
    /// (transversals, border advancements), answering with its partial
    /// result marked `halted:"max-items"`, `complete:false`.  `None` means
    /// no limit.
    pub max_items: Option<u64>,
    /// Per-user token-bucket admission (`qld serve --user-rate`/
    /// `--user-burst`), shared across every session of the server so one
    /// user's flood of connections cannot starve another user.  Consulted
    /// only for requests carrying the `auth=` wire keyword; anonymous
    /// requests are never throttled.  `None` disables user fairness.
    pub user_quota: Option<Arc<UserBuckets>>,
    /// Hard cap, in bytes, on a readiness-loop session's buffered unsent
    /// output before the connection is treated as dead (cancelled and
    /// dropped).  A consumer that refuses to read an entire cap's worth of
    /// responses is indistinguishable from one that is gone.  `None` uses
    /// the 8 MiB default; ignored by [`Engine::serve_with`] (pipe sessions
    /// and the thread-per-session fallback), whose blocking writes
    /// self-limit.
    pub write_cap: Option<usize>,
}

/// Summary of one serve session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Requests answered (including per-request errors).
    pub requests: u64,
    /// Requests that produced an error response.
    pub errors: u64,
}

/// Options of one [`Engine::run_streaming`] call.
#[derive(Debug, Clone, Default)]
pub struct StreamRunOptions {
    /// Correlation token echoed on every frame.
    pub client_id: Option<String>,
    /// Force a concrete solver for the request's duality calls.
    pub solver: Option<SolverKind>,
    /// Stop the job after this many yielded items (`halted:"max-items"`).
    pub max_items: Option<u64>,
}

/// A live streaming job: an iterator of its frames plus the cancellation
/// switch (see [`Engine::run_streaming`]).
#[derive(Debug)]
pub struct StreamHandle {
    cancel: CancelToken,
    events: Receiver<StreamEvent>,
}

impl StreamHandle {
    /// The job's cancellation token (cloneable; hand it to a Ctrl-C handler).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Blocks for the next frame; `None` once the terminal response has been
    /// consumed.
    pub fn next_event(&self) -> Option<StreamEvent> {
        self.events.recv().ok()
    }

    /// Blocks for the next frame with a timeout (`None` on timeout or end of
    /// stream — distinguish via a subsequent [`StreamHandle::next_event`]).
    pub fn next_event_timeout(&self, timeout: Duration) -> Option<StreamEvent> {
        self.events.recv_timeout(timeout).ok()
    }
}

impl Iterator for &StreamHandle {
    type Item = StreamEvent;
    fn next(&mut self) -> Option<StreamEvent> {
        self.next_event()
    }
}

/// What a worker should do for one job.
pub(crate) enum Payload {
    /// Execute a typed query, optionally forcing a concrete solver.
    Query {
        request: Request,
        solver: Option<SolverKind>,
    },
    /// Snapshot the engine counters (the `stats` wire request).
    Stats,
    /// Report a parse failure for this sequence slot.
    Malformed(String),
}

/// One unit of work travelling through the shared pool.  Fields are
/// `pub(crate)` for the single-flight layer ([`crate::flight`]), which turns
/// a job into a flight follower without re-deriving its identity.
pub(crate) struct PoolJob {
    /// Sequence number within the submitting session.
    pub(crate) seq: u64,
    /// Client correlation token to echo back.
    pub(crate) client_id: Option<String>,
    pub(crate) payload: Payload,
    /// Whether the client asked for chunk-by-chunk streaming (`stream=`).
    pub(crate) stream: bool,
    /// Cooperative cancellation flag, observed at yield boundaries (and
    /// before the job starts — a job whose session vanished while it sat in
    /// the queue is dropped, not executed).
    pub(crate) cancel: CancelToken,
    /// The submitting session's per-request item quota (`--max-items`).
    pub(crate) max_items: Option<u64>,
    /// Where the executing worker sends chunk frames and the terminal
    /// response.
    pub(crate) reply: ReplySender,
    /// The canonical flight/cache key, pre-rendered at submission when
    /// coalescing applies (`None` for control payloads or when
    /// coalescing is off — the worker then renders the cache key itself).
    pub(crate) key: Option<String>,
}

/// Where a job's frames go: the submitting session's event channel, plus an
/// optional notifier for wire sessions (their driver waits on more than this
/// channel, so each delivery pokes its waker; `run_batch` and
/// `run_streaming` callers just block on the channel and pass `None`).
#[derive(Clone)]
pub(crate) struct ReplySender {
    tx: Sender<StreamEvent>,
    notify: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl ReplySender {
    /// A reply channel for a session that blocks on `recv` (no notifier).
    pub(crate) fn plain(tx: Sender<StreamEvent>) -> ReplySender {
        ReplySender { tx, notify: None }
    }

    /// A reply channel that invokes `notify` after every delivered event.
    pub(crate) fn notifying(tx: Sender<StreamEvent>, notify: Arc<dyn Fn() + Send + Sync>) -> Self {
        ReplySender {
            tx,
            notify: Some(notify),
        }
    }

    /// Delivers one event; `Err` means the session hung up its receiver.
    pub(crate) fn send(&self, event: StreamEvent) -> Result<(), ()> {
        match self.tx.send(event) {
            Ok(()) => {
                if let Some(notify) = &self.notify {
                    notify();
                }
                Ok(())
            }
            Err(_) => Err(()),
        }
    }
}

/// Live load counters shared by sessions and workers, reported by the
/// `stats` wire request (`inflight`/`sessions` fields) — the load signal a
/// fleet router's least-loaded shard policy reads.
#[derive(Debug, Default)]
pub(crate) struct EngineCounters {
    /// Jobs admitted to the pool (queued or running) and not yet answered.
    inflight: AtomicU64,
    /// Live serve sessions (one per [`SessionMux`], however it is driven).
    sessions: AtomicU64,
    /// Transport connections currently open (accept/close boundary).
    connections: AtomicU64,
    /// Requests rejected by the per-user token bucket since startup.
    throttled: AtomicU64,
}

impl EngineCounters {
    /// Settles one pool-admitted job on the in-flight gauge.  Workers call
    /// it after sending a terminal response, or, for a flight leader that
    /// was answered when it detached, once the execution it left running
    /// ends; the flight layer calls it when delivering a worker-level
    /// follower's terminal instead.
    pub(crate) fn job_finished(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// RAII increment of the `connections` stats gauge: transports take one per
/// accepted connection and drop it at close, so `stats` reports live
/// connection counts however the session is served.
pub(crate) struct ConnectionGuard {
    counters: Arc<EngineCounters>,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.counters.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Read-only state shared with every worker thread.
struct WorkerCtx {
    policy: Arc<dyn SolverPolicy>,
    cache: Arc<QueryCache>,
    cache_enabled: bool,
    workers: usize,
    /// When the engine was constructed (`stats` uptime reporting).
    started: Instant,
    /// Whether a cache snapshot was restored at construction.
    cache_restored: bool,
    /// Live load counters (`stats` reporting; shared with the engine).
    counters: Arc<EngineCounters>,
    /// The single-flight registry (shared with the submission path).
    flights: Arc<FlightTable>,
    /// Whether workers coalesce duplicate cache misses into flights.
    coalesce: bool,
}

/// The concurrent query engine.  Dropping it shuts the worker pool down
/// (outstanding jobs finish first).
pub struct Engine {
    config: EngineConfig,
    cache: Arc<QueryCache>,
    /// Entries restored from the configured cache snapshot at construction.
    cache_restored: u64,
    /// Why the configured snapshot failed to restore, if it did.
    cache_restore_error: Option<String>,
    /// The submission path, shared with every session.  `Some` for the
    /// engine's lifetime; taken in `Drop` to hang up the queue.
    submit: Option<Arc<Submitter>>,
    handles: Vec<JoinHandle<()>>,
}

/// The engine's one request submission path, shared by [`Engine`]'s own
/// entry points and every [`SessionMux`]: local route, flight join, or pool
/// job (see [`Submitter::submit`]).
pub(crate) struct Submitter {
    job_tx: SyncSender<PoolJob>,
    /// Live load counters (shared with the worker pool for `stats`).
    counters: Arc<EngineCounters>,
    /// The single-flight registry: duplicates attach to in-flight
    /// executions before they ever occupy a pool slot.
    flights: Arc<FlightTable>,
    /// Whether submissions render flight keys and attempt joins (the cache
    /// and coalescing are both on).
    coalesce: bool,
    /// [`EngineConfig::local_threshold`].
    local_threshold: usize,
    /// The engine's routing policy, for local-route answers.
    policy: Arc<dyn SolverPolicy>,
}

/// What [`Submitter::submit`] did with a job.
pub(crate) enum Submitted {
    /// Answered inline on the local route (see [`ExecRoute`]).
    Local(Response),
    /// Attached to an identical in-flight execution; the flight delivers
    /// its terminal through the job's reply channel.
    Joined,
    /// Queued on the worker pool.
    Queued,
    /// The queue is full (non-blocking submissions only).  The job is handed
    /// back unseen by any worker, to be submitted again as is.
    Full(PoolJob),
    /// The worker pool hung up (the engine is shutting down).
    Closed,
}

impl Submitter {
    /// Submits one job: a sub-threshold one-shot query is answered inline,
    /// a duplicate of an in-flight query joins its flight, and anything
    /// else becomes a pool job — counted on the `inflight` gauge before any
    /// worker can see (and settle) it.  `block` picks a blocking `send` (the
    /// engine's own callers) or `try_send` (sessions, which must keep
    /// draining replies while the queue is full).
    pub(crate) fn submit(&self, mut job: PoolJob, block: bool) -> Submitted {
        if let Payload::Query { request, solver } = &job.payload {
            if exec_route(request, job.stream, self.local_threshold) == ExecRoute::Local {
                return Submitted::Local(local_response(
                    job.seq,
                    job.client_id,
                    request,
                    *solver,
                    self.policy.as_ref(),
                ));
            }
        }
        // A resubmitted job keeps the key it rendered the first time.
        if job.key.is_none() {
            job.key = flight_key(&job.payload, self.coalesce);
        }
        if let Some(key) = &job.key {
            if self.flights.try_join(key, Follower::from_job(&job, false)) {
                return Submitted::Joined;
            }
        }
        self.counters.inflight.fetch_add(1, Ordering::Relaxed);
        let sent = if block {
            self.job_tx.send(job).map_err(|_| Submitted::Closed)
        } else {
            self.job_tx.try_send(job).map_err(|e| match e {
                TrySendError::Full(job) => Submitted::Full(job),
                TrySendError::Disconnected(_) => Submitted::Closed,
            })
        };
        match sent {
            Ok(()) => Submitted::Queued,
            Err(refused) => {
                self.counters.inflight.fetch_sub(1, Ordering::Relaxed);
                refused
            }
        }
    }
}

impl Engine {
    /// Builds an engine from a configuration, spawning its worker pool.
    ///
    /// With [`EngineConfig::cache_file`] set to an existing snapshot, the
    /// cache is restored from it before the first request runs; a corrupt,
    /// truncated, or version-mismatched snapshot restores nothing (see
    /// [`Engine::cache_restored`]) and the engine starts cold.
    pub fn new(config: EngineConfig) -> Self {
        let cache = Arc::new(QueryCache::with_limits(
            config.cache_capacity,
            config.cache_ttl,
        ));
        let mut cache_restored = 0;
        let mut cache_restore_error = None;
        if config.cache {
            if let Some(path) = &config.cache_file {
                match std::fs::File::open(path) {
                    Ok(file) => {
                        match crate::snapshot::read_snapshot(&cache, BufReader::new(file)) {
                            Ok(stats) => cache_restored = stats.restored,
                            Err(e) => {
                                cache_restore_error = Some(format!("{}: {e}", path.display()))
                            }
                        }
                    }
                    // No snapshot yet is the normal first boot, not an error.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => cache_restore_error = Some(format!("{}: {e}", path.display())),
                }
            }
        }
        let workers = config.workers.max(1);
        let (job_tx, job_rx) = mpsc::sync_channel::<PoolJob>(config.queue_capacity.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));
        let counters = Arc::new(EngineCounters::default());
        let flights = Arc::new(FlightTable::new(Arc::clone(&counters)));
        let ctx = Arc::new(WorkerCtx {
            policy: Arc::clone(&config.policy),
            cache: Arc::clone(&cache),
            cache_enabled: config.cache,
            workers,
            started: Instant::now(),
            cache_restored: cache_restored > 0,
            counters: Arc::clone(&counters),
            flights: Arc::clone(&flights),
            coalesce: config.coalesce,
        });
        let handles = (0..workers)
            .map(|worker_index| {
                let job_rx = Arc::clone(&job_rx);
                let ctx = Arc::clone(&ctx);
                thread::spawn(move || worker_loop(&ctx, &job_rx, worker_index))
            })
            .collect();
        let submit = Submitter {
            job_tx,
            counters,
            flights,
            coalesce: config.cache && config.coalesce,
            local_threshold: config.local_threshold,
            policy: Arc::clone(&config.policy),
        };
        Engine {
            config,
            cache,
            cache_restored,
            cache_restore_error,
            submit: Some(Arc::new(submit)),
            handles,
        }
    }

    /// An engine with default configuration.
    pub fn with_defaults() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Counters of the shared result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Intra-query subtask counters: always `(0, 0)`.  Every duality call
    /// runs sequentially on the worker that took its job; the accessor stays
    /// for callers written against the `subtasks`/`subtasks_stolen` stats.
    pub fn subtask_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Single-flight counters since startup: `(flights_led, coalesced)`.
    /// `flights_led` counts executions that registered a flight (every
    /// coalescible cache miss); `coalesced` counts the duplicate requests
    /// that attached to one instead of executing — solver runs avoided.
    pub fn coalesce_stats(&self) -> (u64, u64) {
        let flights = &self.submitter().flights;
        (flights.led(), flights.coalesced())
    }

    /// How many entries [`Engine::new`] restored from the configured cache
    /// snapshot (0 when none was configured, found, or readable).
    pub fn cache_restored(&self) -> u64 {
        self.cache_restored
    }

    /// Why the configured cache snapshot failed to restore, if it did — a
    /// corrupt, truncated, version-mismatched, or unreadable file (a missing
    /// file is a normal first boot, not a failure).  The engine starts cold
    /// in that case; callers surface this so a configured warm start never
    /// fails silently.
    pub fn cache_restore_error(&self) -> Option<&str> {
        self.cache_restore_error.as_deref()
    }

    /// Writes the cache to a snapshot file at `path` (see [`crate::snapshot`]
    /// for the format), returning the number of entries written.  The file is
    /// staged under a process-unique `.tmp.<pid>` suffix and renamed into
    /// place, so a crash mid-write never leaves a truncated snapshot where
    /// the next start would look for one, concurrent savers (two daemons
    /// misconfigured onto one path) cannot interleave writes into each
    /// other's staging file — each rename installs a complete snapshot,
    /// last writer wins — and a failed write cleans its staging file up.
    pub fn save_cache_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<u64> {
        let path = path.as_ref();
        let mut staging = path.as_os_str().to_os_string();
        staging.push(format!(".tmp.{}", std::process::id()));
        let staging = PathBuf::from(staging);
        let result = (|| {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&staging)?);
            let written = crate::snapshot::write_snapshot(&self.cache, &mut file)?;
            file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&staging, path)?;
            Ok(written)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&staging);
        }
        result
    }

    /// Writes the cache snapshot to [`EngineConfig::cache_file`], if one is
    /// configured; returns the number of entries written (`None` when no
    /// snapshot path is configured or caching is disabled).
    pub fn save_configured_cache_snapshot(&self) -> std::io::Result<Option<u64>> {
        match &self.config.cache_file {
            Some(path) if self.config.cache => self.save_cache_snapshot(path).map(Some),
            _ => Ok(None),
        }
    }

    /// The submission path (alive for the engine's lifetime).
    fn submitter(&self) -> &Arc<Submitter> {
        self.submit.as_ref().expect("pool alive until drop")
    }

    /// Marks one transport connection open for `stats` reporting; the
    /// returned guard closes it.
    pub(crate) fn track_connection(&self) -> ConnectionGuard {
        let counters = &self.submitter().counters;
        counters.connections.fetch_add(1, Ordering::Relaxed);
        ConnectionGuard {
            counters: Arc::clone(counters),
        }
    }

    /// Builds the session state machine for one wire session (see
    /// [`SessionMux`]); `reply` is the session's job-reply channel, already
    /// wired to its driver's waker.
    pub(crate) fn session_mux(&self, options: &ServeOptions, reply: ReplySender) -> SessionMux {
        let submit = Arc::clone(self.submitter());
        submit.counters.sessions.fetch_add(1, Ordering::Relaxed);
        SessionMux {
            submit,
            reply,
            default_order: options.order,
            max_inflight: options.max_inflight,
            max_items: options.max_items,
            user_quota: options.user_quota.clone(),
            reorder_capacity: self.config.queue_capacity.max(1) * 4,
            seq: 0,
            ordered: 0,
            emission: HashMap::new(),
            inflight: HashMap::new(),
            next_ordered: 0,
            pending: BTreeMap::new(),
            parked: None,
            requests: 0,
            errors: 0,
        }
    }

    /// Executes a batch of requests on the worker pool; `responses[i]` answers
    /// `requests[i]`.  Submission shares the bounded queue with any concurrent
    /// sessions.
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Response> {
        let (reply_tx, reply_rx) = mpsc::channel::<StreamEvent>();
        let mut out: Vec<Option<Response>> = Vec::new();
        out.resize_with(requests.len(), || None);
        for (seq, request) in requests.into_iter().enumerate() {
            let job = PoolJob {
                seq: seq as u64,
                client_id: None,
                payload: Payload::Query {
                    request,
                    solver: None,
                },
                stream: false,
                cancel: CancelToken::new(),
                max_items: None,
                reply: ReplySender::plain(reply_tx.clone()),
                key: None,
            };
            match self.submitter().submit(job, true) {
                Submitted::Local(response) => out[seq] = Some(response),
                Submitted::Joined | Submitted::Queued => {}
                Submitted::Full(_) | Submitted::Closed => unreachable!("worker pool alive"),
            }
        }
        drop(reply_tx);
        for event in reply_rx {
            // One-shot jobs emit no chunk frames; only terminal responses
            // arrive here.
            if let StreamEvent::Done(response) = event {
                let slot = response.id as usize;
                out[slot] = Some(response);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("worker pool answered every request"))
            .collect()
    }

    /// Convenience wrapper for a single request.
    pub fn run_one(&self, request: Request) -> Response {
        self.run_batch(vec![request])
            .pop()
            .expect("one response for one request")
    }

    /// Submits one request in **streaming** mode: the returned handle yields
    /// [`StreamEvent::Chunk`] frames as the job produces items and ends with
    /// the [`StreamEvent::Done`] terminal response.  The handle's
    /// [`CancelToken`] stops the job cooperatively at its next yield
    /// boundary (the terminal response then carries the partial result,
    /// `halted:"cancelled"`); dropping the handle mid-stream cancels the
    /// same way, the first time the job tries to yield.  A duplicate of an
    /// in-flight execution subscribes to its fan-out: already-produced chunks
    /// replay first, then live ones, all under this handle's own cancel/quota.
    pub fn run_streaming(&self, request: Request, options: StreamRunOptions) -> StreamHandle {
        let (reply_tx, reply_rx) = mpsc::channel::<StreamEvent>();
        let cancel = CancelToken::new();
        let job = PoolJob {
            seq: 0,
            client_id: options.client_id,
            payload: Payload::Query {
                request,
                solver: options.solver,
            },
            stream: true,
            cancel: cancel.clone(),
            max_items: options.max_items,
            reply: ReplySender::plain(reply_tx),
            key: None,
        };
        match self.submitter().submit(job, true) {
            Submitted::Joined | Submitted::Queued => {}
            // Streamed requests never take the local route.
            Submitted::Local(_) | Submitted::Full(_) | Submitted::Closed => {
                unreachable!("a streamed job reaches the live worker pool")
            }
        }
        StreamHandle {
            cancel,
            events: reply_rx,
        }
    }

    /// Streams wire-format request lines from `input` to JSON-lines responses
    /// on `output` in **input order** — shorthand for [`Engine::serve_with`]
    /// and [`ServeOptions::default`].
    pub fn serve<R: BufRead + Send, W: Write>(
        &self,
        input: R,
        output: &mut W,
    ) -> std::io::Result<ServeSummary> {
        self.serve_with(input, output, &ServeOptions::default())
    }

    /// Streams wire-format request lines from `input` and writes JSON-lines
    /// responses to `output`.  Blank lines and `#` comments are skipped.
    ///
    /// With `order: input` (the default) responses are written in request
    /// order — a bounded reorder buffer holds responses that finish early,
    /// and reading pauses when that buffer fills, so one slow head-of-line
    /// request cannot make the buffer grow with the stream.  With
    /// `order: arrival` every response is written the moment it completes,
    /// possibly out of order; the `id` (and echoed `id=` correlation token)
    /// tell the client which request it answers.  Individual requests can
    /// override the session default with the `order=` wire keyword: an
    /// `order=arrival` request in an `input`-ordered session is excluded from
    /// the ordered stream and emitted on completion, and an `order=input`
    /// request in an `arrival` session joins the ordered stream.
    ///
    /// Responses are written and flushed as soon as they are ready — a client
    /// that sends one request and waits for its answer gets it without
    /// closing the input.  An error writing the output cancels the session's
    /// in-flight jobs and is returned; an error reading the input stops
    /// reading, and is returned once every line read before it has been
    /// answered.  Responses already written stay valid.
    ///
    /// This is a blocking driver over the same `SessionMux` state machine
    /// the readiness loop runs for socket sessions: the calling thread owns
    /// the session and `output`, a scoped reader thread hands it one line at
    /// a time, and worker replies unpark it.
    pub fn serve_with<R: BufRead + Send, W: Write>(
        &self,
        input: R,
        output: &mut W,
        options: &ServeOptions,
    ) -> std::io::Result<ServeSummary> {
        let wake = Arc::new(DriverWake {
            driver: thread::current(),
            replied: AtomicBool::new(false),
            line_ready: AtomicBool::new(false),
        });
        let notify = Arc::clone(&wake);
        let (reply_tx, replies) = mpsc::channel::<StreamEvent>();
        let reply =
            ReplySender::notifying(reply_tx, Arc::new(move || notify.raise(&notify.replied)));
        let mut mux = self.session_mux(options, reply);
        // A rendezvous channel: the reader holds at most the next line while
        // the driver feeds the current one.
        let (line_tx, lines) = mpsc::sync_channel::<std::io::Result<String>>(0);
        thread::scope(|scope| {
            let wake = &*wake;
            scope.spawn(move || {
                let _hang_up = HangUp(wake);
                // Declared after the guard, so it hangs up before the last
                // raise: the driver then finds the channel closed at once.
                let line_tx = line_tx;
                for line in input.lines() {
                    let failed = line.is_err();
                    wake.raise(&wake.line_ready);
                    // A driver that stopped draining has dropped `lines`.
                    if line_tx.send(line).is_err() || failed {
                        break;
                    }
                }
            });
            drive_session(&mut mux, &replies, lines, wake, output)
        })
    }
}

/// How the driver of [`Engine::serve_with`] is woken.  Each event source
/// raises its flag, then unparks the driver; the driver parks only while
/// both flags are down, because a blocking `recv` on the line channel can
/// swallow an unpark token (std channels park internally).
struct DriverWake {
    driver: thread::Thread,
    /// A worker delivered a reply since the driver last drained them.
    replied: AtomicBool,
    /// The reader is about to hand over a line (so the driver's `recv` only
    /// waits for that hand-over), or has hung up.
    line_ready: AtomicBool,
}

impl DriverWake {
    fn raise(&self, flag: &AtomicBool) {
        flag.store(true, Ordering::SeqCst);
        self.driver.unpark();
    }
}

/// Raises the reader's flag once more when it ends, however it ends (EOF, a
/// read error, a panicking reader), so the driver's `recv` sees the channel
/// hang up.
struct HangUp<'a>(&'a DriverWake);

impl Drop for HangUp<'_> {
    fn drop(&mut self) {
        self.0.raise(&self.0.line_ready);
    }
}

/// The blocking driver loop of [`Engine::serve_with`]: drain worker replies,
/// retry a stalled line, feed the next line, write what is ready, then park
/// until a reply or a line arrives — or, while stalled, at most
/// [`STALL_RETRY`] (the queue may be freed by other sessions' jobs, which
/// never wake this one).  `lines` is dropped on return, so the reader never
/// stays blocked handing over a line nobody will take.
fn drive_session<W: Write>(
    mux: &mut SessionMux,
    replies: &Receiver<StreamEvent>,
    lines: Receiver<std::io::Result<String>>,
    wake: &DriverWake,
    output: &mut W,
) -> std::io::Result<ServeSummary> {
    let mut out = Vec::new();
    let mut reading = true;
    let mut read_error = None;
    loop {
        wake.replied.store(false, Ordering::SeqCst);
        while let Ok(event) = replies.try_recv() {
            mux.on_event(event, &mut out);
        }
        let mut state = mux.resume(&mut out);
        while state == MuxFeed::Progress && reading && wake.line_ready.swap(false, Ordering::SeqCst)
        {
            match lines.recv() {
                Ok(Ok(line)) => state = mux.feed_line(&line, &mut out),
                Ok(Err(e)) => {
                    read_error = Some(e);
                    reading = false;
                }
                Err(_) => reading = false,
            }
        }
        if !out.is_empty() {
            if let Err(e) = output.write_all(&out).and_then(|()| output.flush()) {
                // The consumer is gone: stop the session's queued jobs
                // instead of computing results nobody will read.
                mux.abort();
                return Err(e);
            }
            out.clear();
        }
        let woken = wake.replied.load(Ordering::SeqCst)
            || (state == MuxFeed::Progress && reading && wake.line_ready.load(Ordering::SeqCst));
        match state {
            MuxFeed::PoolClosed => break,
            _ if !reading && mux.is_idle() => break,
            _ if woken => {}
            MuxFeed::Stalled => thread::park_timeout(STALL_RETRY),
            MuxFeed::Progress => thread::park(),
        }
    }
    if let Some(e) = read_error {
        return Err(e);
    }
    output.flush()?;
    let (requests, errors) = mux.tallies();
    Ok(ServeSummary { requests, errors })
}

/// The canonical flight key of a query payload — the request's cache key
/// plus the `solver=` override suffix, exactly as the worker's cache path
/// renders it.  `None` for control payloads, or when coalescing is off for
/// the engine (key rendering is not free; skip it when it buys nothing).
fn flight_key(payload: &Payload, coalesce: bool) -> Option<String> {
    if !coalesce {
        return None;
    }
    let Payload::Query { request, solver } = payload else {
        return None;
    };
    let mut key = request.cache_key();
    if let Some(kind) = solver {
        key.push_str(" solver=");
        key.push_str(kind.name());
    }
    Some(key)
}

/// How long a driver waits before retrying a stalled line when no reply
/// arrives to wake it sooner: the queue may be freed by other sessions'
/// jobs, which never wake this one.
pub(crate) const STALL_RETRY: Duration = Duration::from_millis(5);

/// What [`SessionMux::feed_line`] or [`SessionMux::resume`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MuxFeed {
    /// The line was committed: answered, submitted, or skipped
    /// (blank/comment).  The next line may be fed.
    Progress,
    /// The line was taken but is parked: the session's reorder buffer or the
    /// shared job queue is full.  Feed nothing more until
    /// [`SessionMux::resume`] returns `Progress`; retry once replies drain.
    Stalled,
    /// The worker pool hung up (the engine is shutting down); the session
    /// cannot make progress and should be closed.
    PoolClosed,
}

/// One wire session as a state machine: per-session sequence numbers, the
/// cancel/quota control paths, the `order=input` reorder buffer with its
/// bounded capacity, immediate emission for streams.
///
/// Every session runs it.  The readiness loop drives one per socket
/// connection from a single thread; [`Engine::serve_with`] drives one from a
/// blocking reader (pipe sessions and the non-epoll socket fallback).
/// Lines arrive via [`SessionMux::feed_line`], worker events via
/// [`SessionMux::on_event`], and rendered response bytes accumulate in a
/// caller-owned buffer.
pub(crate) struct SessionMux {
    submit: Arc<Submitter>,
    /// Template reply channel cloned into every job (already wired to the
    /// driver's waker).
    reply: ReplySender,
    default_order: OrderMode,
    max_inflight: Option<usize>,
    max_items: Option<u64>,
    user_quota: Option<Arc<UserBuckets>>,
    reorder_capacity: usize,
    seq: u64,
    ordered: u64,
    emission: HashMap<u64, Emission>,
    /// The session's in-flight jobs: sequence number → cancellation token.
    /// What a `cancel id=N` resolves against, what `--max-inflight` counts,
    /// and what [`SessionMux::abort`] cancels wholesale.
    inflight: HashMap<u64, CancelToken>,
    next_ordered: u64,
    pending: BTreeMap<u64, Response>,
    /// The line taken by a [`MuxFeed::Stalled`] feed, until it commits.
    parked: Option<Parked>,
    requests: u64,
    errors: u64,
}

/// A submittable wire line, parsed.
struct Line {
    client_id: Option<String>,
    order: OrderMode,
    stream: bool,
    auth: Option<String>,
    payload: Payload,
}

/// A stalled line, kept until it can commit.
enum Parked {
    /// Waiting for room in the reorder buffer: nothing sequenced or charged.
    Line(Line),
    /// Sequenced, admitted (its `auth=` user charged once) and registered in
    /// flight: waiting for room in the job queue.
    Job(PoolJob),
}

impl Drop for SessionMux {
    fn drop(&mut self) {
        self.submit
            .counters
            .sessions
            .fetch_sub(1, Ordering::Relaxed);
    }
}

impl SessionMux {
    /// Feeds one wire line (already split, not yet trimmed).  Rendered
    /// responses — control answers, quota rejections, local answers — are
    /// appended to `out`.  The line is always taken; on
    /// [`MuxFeed::Stalled`] it is parked until [`SessionMux::resume`]
    /// commits it.
    pub(crate) fn feed_line(&mut self, line: &str, out: &mut Vec<u8>) -> MuxFeed {
        debug_assert!(self.parked.is_none(), "a parked line must commit first");
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return MuxFeed::Progress;
        }
        let line = match wire::parse_line(trimmed) {
            Ok(parsed) => {
                let payload = match parsed.command {
                    wire::Command::Query(request) => Payload::Query {
                        request,
                        solver: parsed.solver,
                    },
                    wire::Command::Stats => Payload::Stats,
                    wire::Command::Cancel { target } => {
                        self.cancel(target, parsed.id, parsed.stream, out);
                        return MuxFeed::Progress;
                    }
                };
                Line {
                    client_id: parsed.id,
                    order: parsed.order.unwrap_or(self.default_order),
                    stream: parsed.stream,
                    auth: parsed.auth,
                    payload,
                }
            }
            Err(message) => Line {
                client_id: wire::salvage_client_id(trimmed),
                order: self.default_order,
                stream: false,
                auth: None,
                payload: Payload::Malformed(message),
            },
        };
        self.admit(line, out)
    }

    /// Retries the parked line, if any: `Progress` once it has committed
    /// (or when nothing is parked).
    pub(crate) fn resume(&mut self, out: &mut Vec<u8>) -> MuxFeed {
        match self.parked.take() {
            None => MuxFeed::Progress,
            Some(Parked::Line(line)) => self.admit(line, out),
            Some(Parked::Job(job)) => self.enqueue(job, out),
        }
    }

    /// Applies one worker event, appending any rendered output to `out`.
    pub(crate) fn on_event(&mut self, event: StreamEvent, out: &mut Vec<u8>) {
        match event {
            StreamEvent::Chunk(frame) => {
                out.extend_from_slice(frame.to_json_line().as_bytes());
                out.push(b'\n');
            }
            StreamEvent::Done(response) => {
                self.inflight.remove(&response.id);
                self.finish(response, out);
            }
        }
    }

    /// Cancels every in-flight job (the session's consumer is gone).
    pub(crate) fn abort(&mut self) {
        for token in self.inflight.values() {
            token.cancel();
        }
    }

    /// Whether a line is parked (see [`MuxFeed::Stalled`]).
    pub(crate) fn is_stalled(&self) -> bool {
        self.parked.is_some()
    }

    /// Whether every line taken has been answered and emitted.
    pub(crate) fn is_idle(&self) -> bool {
        self.parked.is_none() && self.inflight.is_empty() && self.pending.is_empty()
    }

    /// (requests answered, error responses) so far — the session's
    /// contribution to a [`ServeSummary`] or
    /// [`crate::transport::TransportSummary`].
    pub(crate) fn tallies(&self) -> (u64, u64) {
        (self.requests, self.errors)
    }

    /// Answers a `cancel id=N` at once: it never queues, and it resolves
    /// ahead of the reorder backpressure, because a cancel may be what
    /// unblocks a stuck head-of-line request.
    fn cancel(&mut self, target: u64, client_id: Option<String>, stream: bool, out: &mut Vec<u8>) {
        let cancelled = match self.inflight.get(&target) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        };
        let seq = self.next_seq();
        self.finish(
            Response {
                id: seq,
                client_id,
                outcome: Ok(Outcome::Cancel { target, cancelled }),
                halted: None,
                chunks: stream.then_some(0),
                stats: control_stats(),
            },
            out,
        );
    }

    /// Commits one parsed line: sequence number and emission plan, then
    /// admission (user bucket, session quota), then submission.  Parks the
    /// line, uncharged, while the reorder buffer is full — anything
    /// committed here may occupy that buffer, quota rejections included.
    fn admit(&mut self, line: Line, out: &mut Vec<u8>) -> MuxFeed {
        if self.pending.len() >= self.reorder_capacity {
            self.parked = Some(Parked::Line(line));
            return MuxFeed::Stalled;
        }
        let seq = self.next_seq();
        // Streamed requests always emit on arrival: holding an unbounded
        // number of chunks for in-order emission would defeat both the
        // latency and the memory point of streaming (documented in WIRE.md).
        let plan = match line.order {
            OrderMode::Input if !line.stream => {
                self.ordered += 1;
                Emission::Ordered(self.ordered - 1)
            }
            _ => Emission::Immediate,
        };
        self.emission.insert(seq, plan);
        if let Some(message) = self.refusal(&line) {
            self.finish(
                Response {
                    id: seq,
                    client_id: line.client_id,
                    outcome: Err(EngineError::quota(message)),
                    halted: None,
                    chunks: line.stream.then_some(0),
                    stats: control_stats(),
                },
                out,
            );
            return MuxFeed::Progress;
        }
        let cancel = CancelToken::new();
        self.inflight.insert(seq, cancel.clone());
        let job = PoolJob {
            seq,
            client_id: line.client_id,
            payload: line.payload,
            stream: line.stream,
            cancel,
            max_items: self.max_items,
            reply: self.reply.clone(),
            key: None,
        };
        self.enqueue(job, out)
    }

    /// Why an admitted line is answered with a `quota` error instead of
    /// running, if it is.  Per-user fairness gates solver work only: control
    /// traffic (`stats`) and malformed lines are never throttled.  The
    /// session's in-flight cap is checked first, so a line it refuses does
    /// not spend the user's tokens.
    fn refusal(&self, line: &Line) -> Option<String> {
        if let Some(limit) = self.max_inflight {
            if self.inflight.len() >= limit {
                return Some(format!(
                    "session in-flight quota exceeded ({limit} request(s) already running)"
                ));
            }
        }
        if let (Some(quota), Some(user), Payload::Query { .. }) =
            (&self.user_quota, line.auth.as_deref(), &line.payload)
        {
            if !quota.admit(user) {
                self.submit
                    .counters
                    .throttled
                    .fetch_add(1, Ordering::Relaxed);
                return Some(format!(
                    "user `{user}` exceeded the admission rate ({} req/s, burst {})",
                    quota.rate_per_sec(),
                    quota.burst()
                ));
            }
        }
        None
    }

    /// Submits a committed job without blocking; a full queue parks it.
    fn enqueue(&mut self, job: PoolJob, out: &mut Vec<u8>) -> MuxFeed {
        match self.submit.submit(job, false) {
            Submitted::Local(response) => {
                self.on_event(StreamEvent::Done(response), out);
                MuxFeed::Progress
            }
            Submitted::Joined | Submitted::Queued => MuxFeed::Progress,
            Submitted::Full(job) => {
                self.parked = Some(Parked::Job(job));
                MuxFeed::Stalled
            }
            Submitted::Closed => MuxFeed::PoolClosed,
        }
    }

    /// Consumes the next session sequence number.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Routes one terminal response through the session's emission plan,
    /// rendering everything that becomes emittable.
    fn finish(&mut self, response: Response, out: &mut Vec<u8>) {
        self.requests += 1;
        if !response.is_ok() {
            self.errors += 1;
        }
        let plan = self
            .emission
            .remove(&response.id)
            .unwrap_or(Emission::Immediate);
        match plan {
            Emission::Immediate => render_response(&response, out),
            Emission::Ordered(position) => {
                self.pending.insert(position, response);
                while let Some(next) = self.pending.remove(&self.next_ordered) {
                    render_response(&next, out);
                    self.next_ordered += 1;
                }
            }
        }
    }
}

/// The telemetry of a response the session answers itself.
fn control_stats() -> RequestStats {
    RequestStats {
        solver: "-".to_string(),
        ..RequestStats::default()
    }
}

/// Appends one response as a JSON line to a session output buffer.
fn render_response(response: &Response, out: &mut Vec<u8>) {
    out.extend_from_slice(response.to_json_line().as_bytes());
    out.push(b'\n');
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Hang up the job queue; workers exit once it drains.
        self.submit.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// How one response should leave a serve session.
#[derive(Debug, Clone, Copy)]
enum Emission {
    /// Write the moment the response arrives (out-of-order streaming).
    Immediate,
    /// Write at this position of the in-order stream.
    Ordered(u64),
}

/// Answers a local-routed query inline on the calling (session) thread.
///
/// This is the in-process fast path of [`ExecRoute::Local`]: the same
/// execution pipeline as a pool worker ([`ops::execute`] through the
/// configured policy), minus everything scheduling-related — no job queue
/// round-trip, no cache lookup or insert (so the canonical cache key, a hex
/// render of every edge word, is never built), no cancellation window.  The
/// response payload is identical to what a pool worker would produce for the
/// same request; `worker` reports shard 0, like a single-worker pool.
///
/// Panics are contained exactly as on a worker: a misbehaving request
/// answers with an `internal` error instead of unwinding into the session.
fn local_response(
    seq: u64,
    client_id: Option<String>,
    request: &Request,
    solver_override: Option<SolverKind>,
    policy: &dyn SolverPolicy,
) -> Response {
    let started = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let fixed;
        let policy: &dyn SolverPolicy = match solver_override {
            Some(kind) => {
                fixed = FixedPolicy(kind);
                &fixed
            }
            None => policy,
        };
        ops::execute(request, policy)
    }));
    match attempt {
        Ok((outcome, info)) => Response {
            id: seq,
            client_id,
            outcome: outcome.map_err(EngineError::execute),
            halted: None,
            chunks: None,
            stats: RequestStats {
                micros: started.elapsed().as_micros(),
                peak_bits: info.peak_bits,
                solver: info.solver,
                duality_calls: info.duality_calls,
                cache_hit: false,
                worker: 0,
            },
        },
        Err(panic) => {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            Response {
                id: seq,
                client_id,
                outcome: Err(EngineError::internal(format!(
                    "local execution panicked answering the request: {detail}"
                ))),
                halted: None,
                chunks: None,
                stats: RequestStats {
                    micros: started.elapsed().as_micros(),
                    solver: "-".to_string(),
                    ..RequestStats::default()
                },
            }
        }
    }
}

/// The persistent worker body: take one job off the shared queue, answer
/// it, and around again until the engine hangs up the queue.
///
/// Idle workers block, never poll: one holds the receiver lock and waits in
/// `recv`, the rest wait on the lock.  A poisoned lock (another worker
/// panicked mid-dequeue) is recovered, since losing one worker must not kill
/// the pool.
fn worker_loop(ctx: &WorkerCtx, jobs: &Mutex<Receiver<PoolJob>>, worker_index: usize) {
    loop {
        let received = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = received else { break };
        // `None` means the flight answered the job (it attached to an
        // identical in-flight execution as a follower, or it led one and
        // detached early) and the gauge is settled already.
        if let Some(response) = answer(ctx, worker_index, &job) {
            // A receiver that hung up (aborted session) just discards the
            // answer.
            let _ = job.reply.send(StreamEvent::Done(response));
            ctx.counters.job_finished();
        }
    }
}

/// Executes one job on a worker, turning panics into `internal` errors so a
/// misbehaving request cannot take a pool thread down with it.  `None`
/// means the flight answered the job — it joined an in-flight duplicate as
/// a follower, or it led a flight and was answered when it detached — and
/// the worker must not answer (or decrement) it again.
fn answer(ctx: &WorkerCtx, worker_index: usize, job: &PoolJob) -> Option<Response> {
    let base_stats = || RequestStats {
        worker: worker_index,
        solver: "-".to_string(),
        ..RequestStats::default()
    };
    match &job.payload {
        Payload::Malformed(message) => Some(Response {
            id: job.seq,
            client_id: job.client_id.clone(),
            outcome: Err(EngineError::parse(message.clone())),
            halted: None,
            chunks: job.stream.then_some(0),
            stats: base_stats(),
        }),
        Payload::Stats => Some(Response {
            id: job.seq,
            client_id: job.client_id.clone(),
            outcome: Ok(Outcome::Stats {
                cache: ctx.cache.stats(),
                workers: ctx.workers,
                protocol: wire::PROTOCOL_VERSION,
                uptime_ms: ctx.started.elapsed().as_millis() as u64,
                cache_restored: ctx.cache_restored,
                // The probe is itself an in-flight job: subtract it so an
                // otherwise idle engine reports 0.
                inflight: ctx
                    .counters
                    .inflight
                    .load(Ordering::Relaxed)
                    .saturating_sub(1),
                sessions: ctx.counters.sessions.load(Ordering::Relaxed),
                connections: ctx.counters.connections.load(Ordering::Relaxed),
                throttled: ctx.counters.throttled.load(Ordering::Relaxed),
                flights: ctx.flights.led(),
                coalesced: ctx.flights.coalesced(),
            }),
            halted: None,
            // Item-less kinds still honour the streamed framing contract:
            // zero chunks, then this response as the `done` frame.
            chunks: job.stream.then_some(0),
            stats: base_stats(),
        }),
        Payload::Query { request, solver } => {
            let answered = Cell::new(false);
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                process_one(job, request, *solver, worker_index, ctx, &answered)
            }));
            attempt.unwrap_or_else(|panic| {
                if answered.get() {
                    // A detached leader already has its terminal; the
                    // panic reached its followers through the flight lease.
                    ctx.counters.job_finished();
                    return None;
                }
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                Some(Response {
                    id: job.seq,
                    client_id: job.client_id.clone(),
                    outcome: Err(EngineError::internal(format!(
                        "worker panicked answering the request: {detail}"
                    ))),
                    halted: None,
                    // The chunk count is unknown after a panic; mark the
                    // terminal frame of a streamed request anyway so the
                    // client knows the stream ended.
                    chunks: job.stream.then_some(0),
                    stats: base_stats(),
                })
            })
        }
    }
}

/// The sink a worker threads through [`ops::execute_streaming`]: forwards
/// items/progress as chunk frames when the job streams, counts items against
/// the session's quota, and reports cancellation (explicit, or implied by a
/// vanished frame consumer) at every yield boundary.
struct WorkerSink<'a> {
    job: &'a PoolJob,
    kind: &'static str,
    /// Chunk frames actually delivered (items + progress).
    emitted: u64,
    /// Result items yielded (delivered or not — the quota is about work).
    items: u64,
    /// The reply channel hung up mid-stream: treat as cancellation.
    receiver_gone: bool,
}

impl<'a> WorkerSink<'a> {
    fn new(job: &'a PoolJob, kind: &'static str) -> Self {
        WorkerSink {
            job,
            kind,
            emitted: 0,
            items: 0,
            receiver_gone: false,
        }
    }

    fn directive(&self) -> SinkDirective {
        if self.job.cancel.is_cancelled() || self.receiver_gone {
            SinkDirective::Stop(StopReason::Cancelled)
        } else if self.job.max_items.is_some_and(|quota| self.items >= quota) {
            SinkDirective::Stop(StopReason::ItemQuota)
        } else {
            SinkDirective::Continue
        }
    }

    fn send(&mut self, payload: ChunkPayload) {
        if !self.job.stream || self.receiver_gone {
            return;
        }
        let frame = ChunkFrame {
            id: self.job.seq,
            client_id: self.job.client_id.clone(),
            seq: self.emitted,
            kind: self.kind,
            payload,
        };
        if self.job.reply.send(StreamEvent::Chunk(frame)).is_ok() {
            self.emitted += 1;
        } else {
            self.receiver_gone = true;
        }
    }
}

impl ResultSink for WorkerSink<'_> {
    fn item(&mut self, item: StreamItem) -> SinkDirective {
        self.items += 1;
        self.send(ChunkPayload::Item(item));
        self.directive()
    }

    fn progress(&mut self, progress: StreamProgress) {
        self.send(ChunkPayload::Progress(progress));
    }

    fn check(&self) -> SinkDirective {
        self.directive()
    }
}

/// Executes one typed query on a worker: cache lookup (with chunk replay for
/// streamed hits), single-flight gate, solver dispatch through a
/// [`WorkerSink`] (solo) or [`FlightSink`] (flight leader), stats.  `None`
/// means the job needs no answer from the worker: it joined an active flight
/// as a follower, or it led one and was answered when it detached
/// (`answered` is then set, and this settles its in-flight gauge).
fn process_one(
    job: &PoolJob,
    request: &Request,
    solver_override: Option<SolverKind>,
    worker: usize,
    ctx: &WorkerCtx,
    answered: &Cell<bool>,
) -> Option<Response> {
    let started = Instant::now();
    // A `solver=` override changes which solver's telemetry the caller sees,
    // so overridden requests get their own cache entries.  Submission
    // pre-renders the key when coalescing applies; rendered or not, it is the
    // same canonical string.
    let key = job.key.clone().or_else(|| {
        ctx.cache_enabled.then(|| {
            let mut key = request.cache_key();
            if let Some(kind) = solver_override {
                key.push_str(" solver=");
                key.push_str(kind.name());
            }
            key
        })
    });
    // A streamed request served from the cache still streams: the cached
    // items are replayed as chunk frames (in the terminal result's canonical
    // order), subject to the same cancellation and quota checks as a fresh
    // run.
    let answer_from_cache = |hit: Arc<CachedResult>| {
        let mut sink = WorkerSink::new(job, request.kind());
        let (outcome, halted) = replay_cached(&hit.outcome, &mut sink);
        Some(Response {
            id: job.seq,
            client_id: job.client_id.clone(),
            outcome,
            halted,
            chunks: job.stream.then_some(sink.emitted),
            stats: RequestStats {
                micros: started.elapsed().as_micros(),
                peak_bits: hit.info.peak_bits,
                solver: hit.info.solver.clone(),
                duality_calls: hit.info.duality_calls,
                cache_hit: true,
                worker,
            },
        })
    };
    if let Some(hit) = key.as_deref().and_then(|key| ctx.cache.get(key)) {
        return answer_from_cache(hit);
    }
    // Post-miss single-flight gate: duplicates that raced past the
    // join at submission (or were submitted before the leader was) attach
    // here instead of executing, and a duplicate whose flight settled after
    // the miss above is answered from the entry that flight just cached.
    let lease = match (&key, ctx.coalesce) {
        (Some(key), true) => {
            match ctx
                .flights
                .lead_or_join(key, request.kind(), &ctx.cache, || {
                    Follower::from_job(job, true)
                }) {
                LeadOutcome::Lead(lease) => Some(lease),
                LeadOutcome::Joined => return None,
                LeadOutcome::Cached(hit) => return answer_from_cache(hit),
            }
        }
        _ => None,
    };
    let fixed;
    let policy: &dyn SolverPolicy = match solver_override {
        Some(kind) => {
            fixed = FixedPolicy(kind);
            &fixed
        }
        None => ctx.policy.as_ref(),
    };
    let mut solo_sink = WorkerSink::new(job, request.kind());
    let mut flight_sink = lease
        .as_ref()
        .map(|lease| FlightSink::new(job, request.kind(), lease, worker, started, answered));
    let sink: &mut dyn ResultSink = match flight_sink.as_mut() {
        Some(sink) => sink,
        None => &mut solo_sink,
    };
    let execution = ops::execute_streaming(request, policy, sink);
    let halted = execution.halt;
    let info = execution.info;
    let outcome = execution.outcome.map_err(|message| match halted {
        // A job stopped before it produced anything has no partial result to
        // answer with; the error code says why.
        Some(StopReason::Cancelled) => EngineError::cancelled(message),
        _ => EngineError::execute(message),
    });
    // Only results that ran to their natural end are cacheable: a halted
    // job's partial outcome depends on when the stop landed, which is not a
    // property of the request.  A flight whose original leader detached but
    // that ran to completion for its followers is a natural end.
    if halted.is_none() {
        if let Some(key) = key {
            ctx.cache.insert(
                key,
                CachedResult {
                    outcome: outcome.clone(),
                    info: info.clone(),
                },
            );
        }
    }
    let stats = RequestStats {
        micros: started.elapsed().as_micros(),
        peak_bits: info.peak_bits,
        solver: info.solver,
        duality_calls: info.duality_calls,
        cache_hit: false,
        worker,
    };
    let (outcome, halted, emitted) = match (lease, flight_sink) {
        (Some(lease), Some(sink)) => {
            // Settle the followers with the execution's results.  A leader
            // that never detached answers with them too, byte-identical to
            // an uncoalesced run; one that detached was answered then.
            lease.finish(&outcome, halted, &stats);
            if answered.get() {
                ctx.counters.job_finished();
                return None;
            }
            (outcome, halted, sink.emitted())
        }
        _ => (outcome, halted, solo_sink.emitted),
    };
    Some(Response {
        id: job.seq,
        client_id: job.client_id.clone(),
        outcome,
        halted,
        chunks: job.stream.then_some(emitted),
        stats,
    })
}

/// Replays a cached outcome through a [`WorkerSink`] (a no-op for one-shot
/// jobs and item-less outcomes), truncating the outcome if the sink stops
/// the replay mid-way — a cancelled or quota-limited client sees the same
/// prefix semantics whether the result was computed or replayed.
///
/// The outcome is borrowed from the `Arc`-shared cache entry: a replay
/// clones only the prefix the client actually receives, never the stored
/// vectors wholesale.
fn replay_cached(
    outcome: &Result<Outcome, EngineError>,
    sink: &mut WorkerSink<'_>,
) -> (Result<Outcome, EngineError>, Option<StopReason>) {
    // The historical fast hit path: nothing to forward, nothing to count —
    // hand the cached outcome straight back (one clone, into the response).
    if !sink.job.stream && sink.job.max_items.is_none() && !sink.job.cancel.is_cancelled() {
        return (outcome.clone(), None);
    }
    match outcome {
        Ok(Outcome::Transversals {
            transversals,
            complete,
        }) => {
            let (replayed, halted) =
                replay_items(transversals, sink, |t| StreamItem::Transversal(t.clone()));
            let outcome = Ok(Outcome::Transversals {
                transversals: transversals[..replayed].to_vec(),
                complete: *complete && halted.is_none(),
            });
            (outcome, halted)
        }
        Ok(Outcome::FullBorders {
            maximal_frequent,
            minimal_infrequent,
            identification_calls,
            complete,
        }) => {
            let (replayed_max, mut halted) =
                replay_items(maximal_frequent, sink, |s| StreamItem::BorderElement {
                    maximal: true,
                    itemset: s.clone(),
                });
            let replayed_min = if halted.is_none() {
                let (replayed, stop) =
                    replay_items(minimal_infrequent, sink, |s| StreamItem::BorderElement {
                        maximal: false,
                        itemset: s.clone(),
                    });
                halted = stop;
                replayed
            } else {
                0
            };
            let outcome = Ok(Outcome::FullBorders {
                maximal_frequent: maximal_frequent[..replayed_max].to_vec(),
                minimal_infrequent: minimal_infrequent[..replayed_min].to_vec(),
                identification_calls: *identification_calls,
                complete: *complete && halted.is_none(),
            });
            (outcome, halted)
        }
        other => (other.clone(), None),
    }
}

/// Replays one item list through the sink, returning how many items made it
/// and whether (and why) the sink stopped the replay.
fn replay_items<T>(
    items: &[T],
    sink: &mut WorkerSink<'_>,
    to_item: impl Fn(&T) -> StreamItem,
) -> (usize, Option<StopReason>) {
    for (index, entry) in items.iter().enumerate() {
        if let SinkDirective::Stop(reason) = sink.check() {
            return (index, Some(reason));
        }
        if let SinkDirective::Stop(reason) = sink.item(to_item(entry)) {
            return (index + 1, Some(reason));
        }
    }
    (items.len(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::Outcome;
    use qld_hypergraph::generators;
    use std::io::{BufReader, Read};

    fn engine(workers: usize, cache: bool) -> Engine {
        Engine::new(EngineConfig {
            workers,
            queue_capacity: 4,
            cache,
            ..EngineConfig::default()
        })
    }

    /// An engine whose local (in-process) route takes every sub-threshold
    /// `check`, with the given threshold.
    fn engine_local(threshold: usize) -> Engine {
        Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 4,
            local_threshold: threshold,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn local_route_answers_identically_to_pool() {
        let pool = engine(2, true);
        let local = engine_local(usize::MAX);
        for k in 1..=4 {
            let li = generators::matching_instance(k);
            let request = Request::DecideDuality {
                g: li.g.clone(),
                h: li.h.clone(),
            };
            let a = pool.run_one(request.clone());
            let b = local.run_one(request);
            // The payload is byte-identical; only scheduling telemetry
            // (micros, worker shard) may differ.
            assert_eq!(a.outcome, b.outcome, "matching k={k}");
            assert_eq!(a.halted, b.halted);
            assert_eq!(a.chunks, b.chunks);
            assert_eq!(a.stats.solver, b.stats.solver);
            assert_eq!(a.stats.duality_calls, b.stats.duality_calls);
            assert_eq!(a.stats.peak_bits, b.stats.peak_bits);
        }
    }

    #[test]
    fn local_route_bypasses_the_cache() {
        let eng = engine_local(usize::MAX);
        let li = generators::matching_instance(2);
        let request = Request::DecideDuality { g: li.g, h: li.h };
        let first = eng.run_one(request.clone());
        let second = eng.run_one(request);
        // Local answers never consult or populate the cache.
        assert!(!first.stats.cache_hit);
        assert!(!second.stats.cache_hit);
        let stats = eng.cache_stats();
        assert_eq!(stats.entries, 0, "local answers are not cached");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn local_route_respects_the_threshold() {
        // Threshold 1: every real instance is at least 1 work unit, so all
        // requests take the pool path and the cache fills as usual.
        let eng = engine_local(1);
        let li = generators::matching_instance(2);
        let request = Request::DecideDuality { g: li.g, h: li.h };
        let _ = eng.run_one(request.clone());
        let second = eng.run_one(request);
        assert!(
            second.stats.cache_hit,
            "above-threshold requests still pool"
        );
    }

    #[test]
    fn local_route_skips_streaming_and_mining_kinds() {
        // Streamed requests and non-`check` kinds never route local, even
        // with the threshold wide open.
        let li = generators::matching_instance(2);
        assert_eq!(
            exec_route(
                &Request::DecideDuality {
                    g: li.g.clone(),
                    h: li.h.clone()
                },
                true, // streamed
                usize::MAX,
            ),
            ExecRoute::Pool
        );
        assert_eq!(
            exec_route(
                &Request::EnumerateTransversals {
                    g: li.g.clone(),
                    limit: Some(1)
                },
                false,
                usize::MAX,
            ),
            ExecRoute::Pool
        );
        // And the disabled default keeps even tiny checks on the pool.
        assert_eq!(
            exec_route(&Request::DecideDuality { g: li.g, h: li.h }, false, 0,),
            ExecRoute::Pool
        );
    }

    #[test]
    fn serve_session_uses_local_route_inline() {
        let eng = engine_local(usize::MAX);
        let input = "check 0,1;2,3 0,2;0,3;1,2;1,3
check 0,1;2,3 0,2;0,3;1,2
";
        let mut out = Vec::new();
        let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 0);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains(r#""dual":true"#), "{}", lines[0]);
        assert!(lines[1].contains(r#""dual":false"#), "{}", lines[1]);
        // Inline answers never touch the cache.
        assert_eq!(eng.cache_stats().entries, 0);
    }

    #[test]
    fn back_to_back_sessions_never_lose_a_wakeup() {
        // A driver parks between events, and its blocking line hand-over
        // can swallow the thread's unpark token; a thousand short sessions
        // in a row must each still see their reply and finish.  (Trusting
        // the token alone hung within a thousand.)
        let (done_tx, done_rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            for _ in 0..1000 {
                let eng = engine(2, true);
                let mut out = Vec::new();
                eng.serve("stats\n".as_bytes(), &mut out).unwrap();
                assert!(String::from_utf8(out)
                    .unwrap()
                    .contains("\"kind\":\"stats\""));
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a serve session hung");
        runner.join().unwrap();
    }

    #[test]
    fn batch_preserves_request_order() {
        let eng = engine(3, true);
        let requests: Vec<Request> = (1..=4)
            .map(|k| {
                let li = generators::matching_instance(k);
                Request::DecideDuality { g: li.g, h: li.h }
            })
            .collect();
        let responses = eng.run_batch(requests);
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(
                r.outcome,
                Ok(Outcome::Duality {
                    dual: true,
                    witness: None
                })
            );
        }
    }

    #[test]
    fn identical_requests_hit_the_cache() {
        let eng = engine(2, true);
        let li = generators::matching_instance(2);
        let req = Request::DecideDuality { g: li.g, h: li.h };
        let responses = eng.run_batch(vec![req.clone(), req.clone(), req]);
        assert!(responses.iter().all(|r| r.is_ok()));
        let stats = eng.cache_stats();
        assert_eq!(stats.entries, 1);
        // One execution; each duplicate is served either from the cache or
        // by coalescing onto the in-flight execution, depending on timing.
        let (flights, coalesced) = eng.coalesce_stats();
        assert_eq!(flights, 1, "{stats:?} coalesced={coalesced}");
        assert_eq!(stats.hits + coalesced, 2, "{stats:?} flights={flights}");
        for r in &responses {
            assert_eq!(r.outcome, responses[0].outcome);
        }
    }

    #[test]
    fn sessions_share_one_worker_pool() {
        // Two concurrent serve sessions against the same engine: both finish
        // and each sees only its own responses.
        let eng = Arc::new(engine(2, true));
        let mut threads = Vec::new();
        for session in 0..2 {
            let eng = Arc::clone(&eng);
            threads.push(thread::spawn(move || {
                let input: String = (0..8).map(|_| "check 0,1;2,3 0,2;0,3;1,2;1,3\n").collect();
                let mut out = Vec::new();
                let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
                assert_eq!(summary.requests, 8, "session {session}");
                let text = String::from_utf8(out).unwrap();
                assert_eq!(text.lines().count(), 8, "session {session}");
                for (i, line) in text.lines().enumerate() {
                    assert!(line.starts_with(&format!("{{\"id\":{i},")), "{line}");
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn serve_emits_ordered_json_lines() {
        let eng = engine(4, true);
        let input = "\
# a comment, then a blank line

check 0,1;2,3 0,2;0,3;1,2;1,3
check 0,1;2,3 0,2;0,3;1,2
enumerate n=4:0,1;2,3 limit=2
bogus line
keys 1,2;1,3
";
        let mut out = Vec::new();
        let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.errors, 1);
        let lines: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{i},")),
                "line {i}: {line}"
            );
        }
        assert!(lines[0].contains("\"dual\":true"));
        assert!(lines[1].contains("\"dual\":false"));
        assert!(lines[2].contains("\"complete\":false") && lines[2].contains("\"count\":2"));
        assert!(lines[3].contains("\"ok\":false") && lines[3].contains("\"code\":\"parse\""));
        assert!(lines[4].contains("\"kind\":\"keys\""));
    }

    #[test]
    fn serve_answers_stats_and_echoes_client_ids() {
        let eng = engine(2, true);
        let input = "check 0,1;2,3 0,2;0,3;1,2;1,3 id=alpha\nstats id=beta\nfrobnicate id=gamma\n";
        let mut out = Vec::new();
        let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 1);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"client_id\":\"alpha\""));
        assert!(lines[1].contains("\"client_id\":\"beta\""));
        assert!(lines[1].contains("\"kind\":\"stats\""));
        assert!(lines[1].contains("\"capacity\":"));
        // Even a malformed line keeps its correlation token.
        assert!(lines[2].contains("\"client_id\":\"gamma\""));
        assert!(lines[2].contains("\"code\":\"parse\""));
    }

    /// Inline `.qld` wire rendering of a hypergraph's edges.
    fn edges_text(h: &qld_hypergraph::Hypergraph) -> String {
        h.edges()
            .iter()
            .map(|e| {
                e.to_indices()
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    #[test]
    fn stats_report_zero_subtasks_after_a_quadlog_check() {
        // `subtasks`/`subtasks_stolen` stay on the `proto 2` stats line and
        // read 0: every duality call runs on one worker.
        let eng = Engine::new(EngineConfig {
            workers: 2,
            cache: false,
            ..EngineConfig::default()
        });
        let li = generators::matching_instance(3);
        let input = format!(
            "check {} {} solver=quadlog\n",
            edges_text(&li.g),
            edges_text(&li.h)
        );
        let mut out = Vec::new();
        let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.errors, 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"dual\":true"), "{text}");
        // A `stats` snapshot may run concurrently with earlier requests of
        // its own session (docs/WIRE.md), so ask for it once the check has
        // been answered.
        let mut out = Vec::new();
        eng.serve("stats\n".as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let stats_line = text.trim_end();
        assert!(stats_line.contains("\"kind\":\"stats\""), "{stats_line}");
        assert!(stats_line.contains("\"subtasks\":0,"), "{stats_line}");
        assert!(
            stats_line.contains("\"subtasks_stolen\":0,"),
            "{stats_line}"
        );
        assert_eq!(eng.subtask_stats(), (0, 0));
    }

    #[test]
    fn parallel_answers_are_identical_across_worker_counts() {
        // The determinism contract: any worker count, same outcomes —
        // including the non-duality witness.
        let mut requests = Vec::new();
        for k in [3, 4] {
            let li = generators::matching_instance(k);
            requests.push(Request::DecideDuality {
                g: li.g.clone(),
                h: li.h.clone(),
            });
            let mut broken = li.h;
            broken.remove_edge(1);
            requests.push(Request::DecideDuality { g: li.g, h: broken });
        }
        let li = generators::matching_instance(4);
        requests.push(Request::EnumerateTransversals {
            g: li.g,
            limit: None,
        });
        let run = |workers: usize| {
            let eng = Engine::new(EngineConfig {
                workers,
                cache: false,
                policy: Arc::new(FixedPolicy(SolverKind::QuadChain)),
                ..EngineConfig::default()
            });
            eng.run_batch(requests.clone())
        };
        let sequentialish = run(1);
        let parallel = run(4);
        assert_eq!(sequentialish.len(), parallel.len());
        for (a, b) in sequentialish.iter().zip(&parallel) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.halted, b.halted);
            // The metered solver telemetry is part of the contract too.
            assert_eq!(a.stats.peak_bits, b.stats.peak_bits);
            assert_eq!(a.stats.duality_calls, b.stats.duality_calls);
        }
    }

    #[test]
    fn cache_capacity_one_evicts_lru_under_load() {
        let eng = Engine::new(EngineConfig {
            workers: 1,
            cache: true,
            cache_capacity: 1,
            ..EngineConfig::default()
        });
        let a = generators::matching_instance(2);
        let b = generators::matching_instance(3);
        let req_a = Request::DecideDuality { g: a.g, h: a.h };
        let req_b = Request::DecideDuality { g: b.g, h: b.h };
        // a, b (evicts a), a, a: each later a coalesces onto the first a's
        // flight, or finds a evicted and recomputes it (evicting b) once,
        // after which the other is a hit — depending on timing.
        let responses = eng.run_batch(vec![req_a.clone(), req_b, req_a.clone(), req_a]);
        assert!(responses.iter().all(|r| r.is_ok()));
        let stats = eng.cache_stats();
        let (flights, coalesced) = eng.coalesce_stats();
        assert_eq!(stats.entries, 1);
        assert!(flights >= 2, "a and b are distinct keys: {stats:?}");
        assert_eq!(
            flights + stats.hits + coalesced,
            4,
            "each request is led, hit or coalesced: {stats:?} flights={flights}"
        );
        // Capacity 1, no TTL: every leader inserts an absent key, so each
        // insert after the first displaces exactly one entry.
        assert_eq!(stats.evictions, flights - 1, "{stats:?}");
        assert_eq!(responses[2].outcome, responses[0].outcome);
        assert_eq!(responses[3].outcome, responses[0].outcome);
    }

    /// A reader that yields one request line, then holds the input open until
    /// it sees the response flag (set by [`FlagWriter`]) before reporting EOF.
    /// If `serve` only answered at EOF this would never observe the flag.
    struct GatedReader {
        sent_line: bool,
        responded: Arc<AtomicBool>,
        saw_response_before_eof: Arc<AtomicBool>,
    }

    impl Read for GatedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.sent_line {
                self.sent_line = true;
                let line = b"check 0,1;2,3 0,2;0,3;1,2;1,3\n";
                buf[..line.len()].copy_from_slice(line);
                return Ok(line.len());
            }
            for _ in 0..1000 {
                if self.responded.load(Ordering::Relaxed) {
                    self.saw_response_before_eof.store(true, Ordering::Relaxed);
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
            Ok(0)
        }
    }

    /// Sets a flag as soon as one full JSON line has been written.
    struct FlagWriter {
        responded: Arc<AtomicBool>,
        data: Vec<u8>,
    }

    impl Write for FlagWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.data.extend_from_slice(buf);
            if self.data.contains(&b'\n') {
                self.responded.store(true, Ordering::Relaxed);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_streams_responses_before_input_eof() {
        let responded = Arc::new(AtomicBool::new(false));
        let saw = Arc::new(AtomicBool::new(false));
        let reader = BufReader::new(GatedReader {
            sent_line: false,
            responded: Arc::clone(&responded),
            saw_response_before_eof: Arc::clone(&saw),
        });
        let mut writer = FlagWriter {
            responded: Arc::clone(&responded),
            data: Vec::new(),
        };
        let summary = engine(2, true).serve(reader, &mut writer).unwrap();
        assert_eq!(summary.requests, 1);
        assert!(
            saw.load(Ordering::Relaxed),
            "response was not written until the input closed"
        );
        assert!(String::from_utf8(writer.data)
            .unwrap()
            .contains("\"dual\":true"));
    }

    /// A writer that fails every write.
    struct BrokenWriter;

    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "broken pipe",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_aborts_on_write_error() {
        let input: String = "check 0,1;2,3 0,2;0,3;1,2;1,3\n".repeat(64);
        let err = engine(2, false)
            .serve(input.as_bytes(), &mut BrokenWriter)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    /// A reader that yields one good line and then an I/O error.
    struct FailingReader {
        sent_line: bool,
    }

    impl Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.sent_line {
                self.sent_line = true;
                let line = b"check 0,1;2,3 0,2;0,3;1,2;1,3\n";
                buf[..line.len()].copy_from_slice(line);
                return Ok(line.len());
            }
            Err(std::io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn serve_propagates_read_errors() {
        let reader = BufReader::new(FailingReader { sent_line: false });
        let mut out = Vec::new();
        let err = engine(1, false).serve(reader, &mut out).unwrap_err();
        assert_eq!(err.to_string(), "disk on fire");
        // the request read before the failure was still answered
        assert!(String::from_utf8(out).unwrap().contains("\"dual\":true"));
    }

    #[test]
    fn queue_smaller_than_batch_still_completes() {
        let eng = Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 1,
            cache: false,
            ..EngineConfig::default()
        });
        let li = generators::matching_instance(2);
        let requests: Vec<Request> = (0..32)
            .map(|_| Request::DecideDuality {
                g: li.g.clone(),
                h: li.h.clone(),
            })
            .collect();
        let responses = eng.run_batch(requests);
        assert_eq!(responses.len(), 32);
        assert!(responses.iter().all(|r| r.is_ok()));
        // Cache disabled: no entries, and every response computed fresh.
        assert_eq!(eng.cache_stats().entries, 0);
        assert!(responses.iter().all(|r| !r.stats.cache_hit));
    }
}
