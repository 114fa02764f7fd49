//! The concurrent query engine: a **persistent** sharded worker pool over the
//! solvers.
//!
//! The pool is spawned once, when the [`Engine`] is constructed, and every
//! session — a [`Engine::run_batch`] call, a [`Engine::serve`] loop, or any
//! number of concurrent socket connections (see [`crate::transport`]) —
//! multiplexes its requests onto the same workers through one shared
//! **bounded** job queue (submission blocks when all workers are busy and the
//! queue is full: backpressure, not unbounded buffering).  Each job carries a
//! reply channel back to the session that submitted it, so sessions never see
//! each other's responses.
//!
//! Results are deterministic: the engine only parallelizes *across* requests,
//! and every request is answered exactly as a direct single-threaded solver
//! call would answer it.  Response *ordering* is a per-session choice
//! ([`OrderMode`]): `input` order reorders responses into request order
//! through a bounded buffer, `arrival` order streams each response the moment
//! it completes so one slow request never head-of-line-blocks the rest.

use crate::cache::{CacheStats, CachedResult, QueryCache};
use crate::fairness::UserBuckets;
use crate::flight::{FlightSink, FlightTable, Follower, LeadOutcome};
use crate::lock_ignoring_poison;
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
use crate::subtask::{EnginePool, SubtaskQueue};
use crate::wire::{self, OrderMode};
use qld_core::ParallelContext;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
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
    /// Intra-query parallelism threshold (`qld serve --parallel-threshold`),
    /// in work units `|V| · (|G| + |H|)`.  A duality call at least this large
    /// splits into work-stealing subtasks on the shared pool; smaller calls
    /// stay sequential (the split has real coordination cost).  `0` splits
    /// everything, `usize::MAX` effectively disables splitting.
    pub parallel_threshold: usize,
    /// In-process ("local") execution threshold (`qld serve
    /// --local-threshold`), in the same work units.  A one-shot `check`
    /// request strictly below it is answered synchronously on the submitting
    /// session's thread through the embedded solver — no pool round-trip, no
    /// cache lookup (and no cache-key render), no cancellation window.  `0`
    /// (the default) disables local execution: every request takes the pool
    /// path exactly as before.  See [`crate::ExecRoute`].
    pub local_threshold: usize,
    /// Single-flight request coalescing (`qld serve --no-coalesce` clears
    /// it): identical queries arriving while the first is still executing
    /// attach to that execution as followers instead of running the solver
    /// again (see `engine/src/flight.rs`).  Requires the cache (the flight key
    /// *is* the canonical cache key); with `cache: false` every request
    /// executes individually regardless of this flag.
    pub coalesce: bool,
}

/// Default [`EngineConfig::parallel_threshold`]: roughly a 64-vertex instance
/// with 512 total edges.  Below that, one solver call is cheaper than the
/// scatter/join round-trip through the subtask queue.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 32_768;

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
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
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
            .field("parallel_threshold", &self.parallel_threshold)
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
    /// the 8 MiB default; ignored by the thread-per-session fallback, whose
    /// blocking writes self-limit.
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
    /// The canonical flight/cache key, pre-rendered by the submission site
    /// when coalescing applies (`None` for control payloads or when
    /// coalescing is off — the worker then renders the cache key itself).
    pub(crate) key: Option<String>,
}

/// Where a job's frames go: the submitting session's event channel, plus an
/// optional notifier for sessions multiplexed on a readiness loop (the loop
/// cannot block on the channel, so each delivery pokes its waker instead;
/// threaded sessions just block on the channel and pass `None`).
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
    /// Serve sessions currently inside [`Engine::serve_with`] or multiplexed
    /// on a readiness loop.
    sessions: AtomicU64,
    /// Transport connections currently open (accept/close boundary).
    connections: AtomicU64,
    /// Requests rejected by the per-user token bucket since startup.
    throttled: AtomicU64,
}

impl EngineCounters {
    /// Settles one pool-admitted job on the in-flight gauge.  Workers call
    /// it after sending a terminal response; the flight layer calls it when
    /// delivering a worker-level follower's terminal instead.
    pub(crate) fn job_finished(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Decrements the session gauge when a serve session ends, however it ends.
struct SessionGuard<'a>(&'a EngineCounters);

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.0.sessions.fetch_sub(1, Ordering::Relaxed);
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
    /// The engine-wide subtask queue (intra-query work stealing).
    subtasks: Arc<SubtaskQueue>,
    /// Work-unit floor above which a duality call splits into subtasks.
    parallel_threshold: usize,
    /// The single-flight registry (shared with the submission sites).
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
    /// `Some` for the engine's lifetime; taken in `Drop` to hang up the queue.
    job_tx: Option<SyncSender<PoolJob>>,
    handles: Vec<JoinHandle<()>>,
    /// Live load counters (shared with the worker pool for `stats`).
    counters: Arc<EngineCounters>,
    /// The subtask queue shared with the pool: submission sites poke it so
    /// parked workers wake for fresh jobs, not just for subtasks.
    subtasks: Arc<SubtaskQueue>,
    /// The single-flight registry: submission sites attach duplicates to
    /// in-flight executions before they ever occupy a pool slot.
    flights: Arc<FlightTable>,
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
        let subtasks = Arc::new(SubtaskQueue::new());
        let flights = Arc::new(FlightTable::new(Arc::clone(&counters)));
        let ctx = Arc::new(WorkerCtx {
            policy: Arc::clone(&config.policy),
            cache: Arc::clone(&cache),
            cache_enabled: config.cache,
            workers,
            started: Instant::now(),
            cache_restored: cache_restored > 0,
            counters: Arc::clone(&counters),
            subtasks: Arc::clone(&subtasks),
            parallel_threshold: config.parallel_threshold,
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
        Engine {
            config,
            cache,
            cache_restored,
            cache_restore_error,
            job_tx: Some(job_tx),
            handles,
            counters,
            subtasks,
            flights,
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

    /// Intra-query subtask counters since startup: `(spawned, stolen)`.
    /// `spawned` counts every subtask pushed to the shared queue; `stolen`
    /// counts the ones executed by a worker other than the one that spawned
    /// them (the rest ran inline on the owning worker at its join point).
    pub fn subtask_stats(&self) -> (u64, u64) {
        (self.subtasks.spawned(), self.subtasks.stolen())
    }

    /// Single-flight counters since startup: `(flights_led, coalesced)`.
    /// `flights_led` counts executions that registered a flight (every
    /// coalescible cache miss); `coalesced` counts the duplicate requests
    /// that attached to one instead of executing — solver runs avoided.
    pub fn coalesce_stats(&self) -> (u64, u64) {
        (self.flights.led(), self.flights.coalesced())
    }

    /// Whether submission sites should render flight keys and attempt joins.
    fn coalesce_enabled(&self) -> bool {
        self.config.cache && self.config.coalesce
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

    /// The shared job queue's sender (alive for the engine's lifetime).
    fn sender(&self) -> &SyncSender<PoolJob> {
        self.job_tx.as_ref().expect("pool alive until drop")
    }

    /// Marks one transport connection open for `stats` reporting; the
    /// returned guard closes it.
    pub(crate) fn track_connection(&self) -> ConnectionGuard {
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        ConnectionGuard {
            counters: Arc::clone(&self.counters),
        }
    }

    /// Builds the non-blocking session state machine a readiness loop drives
    /// (see [`SessionMux`]); `reply` is the session's job-reply channel,
    /// already wired to the loop's waker.
    pub(crate) fn session_mux(&self, options: &ServeOptions, reply: ReplySender) -> SessionMux {
        self.counters.sessions.fetch_add(1, Ordering::Relaxed);
        SessionMux {
            job_tx: self.sender().clone(),
            subtasks: Arc::clone(&self.subtasks),
            counters: Arc::clone(&self.counters),
            flights: Arc::clone(&self.flights),
            coalesce: self.coalesce_enabled(),
            reply,
            default_order: options.order,
            max_inflight: options.max_inflight,
            max_items: options.max_items,
            user_quota: options.user_quota.clone(),
            local_threshold: self.config.local_threshold,
            policy: Arc::clone(&self.config.policy),
            reorder_capacity: self.config.queue_capacity.max(1) * 4,
            seq: 0,
            ordered: 0,
            emission: HashMap::new(),
            inflight: HashMap::new(),
            next_ordered: 0,
            pending: BTreeMap::new(),
            requests: 0,
            errors: 0,
            pool_closed: false,
        }
    }

    /// Executes a batch of requests on the worker pool; `responses[i]` answers
    /// `requests[i]`.  Submission shares the bounded queue with any concurrent
    /// sessions.
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Response> {
        let total = requests.len();
        let (reply_tx, reply_rx) = mpsc::channel::<StreamEvent>();
        for (seq, request) in requests.into_iter().enumerate() {
            // Sub-threshold one-shot queries run inline (see [`ExecRoute`]):
            // answered on this thread through the embedded solver, no pool
            // round-trip, no cache participation.
            if exec_route(&request, false, self.config.local_threshold) == ExecRoute::Local {
                let response = local_response(
                    seq as u64,
                    None,
                    &request,
                    None,
                    self.config.policy.as_ref(),
                );
                let _ = reply_tx.send(StreamEvent::Done(response));
                continue;
            }
            let payload = Payload::Query {
                request,
                solver: None,
            };
            let cancel = CancelToken::new();
            // Single-flight: a request identical to one already executing
            // (or queued) attaches to it as a follower instead of taking a
            // pool slot — the flight delivers its terminal response.
            let key = flight_key(&payload, self.coalesce_enabled());
            if let Some(key) = &key {
                let follower = Follower::new(
                    seq as u64,
                    None,
                    false,
                    cancel.clone(),
                    None,
                    ReplySender::plain(reply_tx.clone()),
                    false,
                );
                if self.flights.try_join(key, follower) {
                    continue;
                }
            }
            let job = PoolJob {
                seq: seq as u64,
                client_id: None,
                payload,
                stream: false,
                cancel,
                max_items: None,
                reply: ReplySender::plain(reply_tx.clone()),
                key,
            };
            self.counters.inflight.fetch_add(1, Ordering::Relaxed);
            self.sender().send(job).expect("worker pool alive");
            self.subtasks.notify_workers();
        }
        drop(reply_tx);
        let mut out: Vec<Option<Response>> = Vec::new();
        out.resize_with(total, || None);
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
    /// same way, the first time the job tries to yield.
    pub fn run_streaming(&self, request: Request, options: StreamRunOptions) -> StreamHandle {
        let (reply_tx, reply_rx) = mpsc::channel::<StreamEvent>();
        let cancel = CancelToken::new();
        let payload = Payload::Query {
            request,
            solver: options.solver,
        };
        // Single-flight: a duplicate of an in-flight execution subscribes to
        // its fan-out — already-produced chunks replay first, then live
        // ones, all under this handle's own cancel/quota.
        let key = flight_key(&payload, self.coalesce_enabled());
        if let Some(key) = &key {
            let follower = Follower::new(
                0,
                options.client_id.clone(),
                true,
                cancel.clone(),
                options.max_items,
                ReplySender::plain(reply_tx.clone()),
                false,
            );
            if self.flights.try_join(key, follower) {
                return StreamHandle {
                    cancel,
                    events: reply_rx,
                };
            }
        }
        let job = PoolJob {
            seq: 0,
            client_id: options.client_id,
            payload,
            stream: true,
            cancel: cancel.clone(),
            max_items: options.max_items,
            reply: ReplySender::plain(reply_tx),
            key,
        };
        self.counters.inflight.fetch_add(1, Ordering::Relaxed);
        self.sender().send(job).expect("worker pool alive");
        self.subtasks.notify_workers();
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
    /// and the reader pauses when that buffer fills, so one slow head-of-line
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
    /// closing the input.  Errors reading the input or writing the output
    /// abort the session (no further lines are read) and are returned;
    /// responses already written stay valid.
    pub fn serve_with<R: BufRead + Send, W: Write>(
        &self,
        input: R,
        output: &mut W,
        options: &ServeOptions,
    ) -> std::io::Result<ServeSummary> {
        self.counters.sessions.fetch_add(1, Ordering::Relaxed);
        let _session = SessionGuard(&self.counters);
        let mut summary = ServeSummary::default();
        let mut write_error: Option<std::io::Error> = None;
        let read_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
        // Session-local emission plan, filled by the feeder before each job is
        // submitted: which responses join the ordered stream (and at which
        // position) and which are emitted on arrival.
        let emission: Mutex<HashMap<u64, Emission>> = Mutex::new(HashMap::new());
        // The session's in-flight jobs: sequence number → cancellation token,
        // registered at submission, removed when the terminal response is
        // collected.  This is what a `cancel id=N` request resolves against,
        // what `--max-inflight` admission counts, and what the abort path
        // cancels wholesale so a disconnected session's queued jobs are
        // dropped instead of running to completion for nobody.
        let inflight: Mutex<HashMap<u64, CancelToken>> = Mutex::new(HashMap::new());
        // Bound on completed-but-unemitted ordered responses: one slow
        // head-of-line request must not let the reorder buffer grow with the
        // stream.  The feeder pauses once this many responses are held.
        let reorder_capacity = self.config.queue_capacity.max(1) * 4;
        let held = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let (reply_tx, reply_rx) = mpsc::channel::<StreamEvent>();
        thread::scope(|scope| {
            // Feeder thread: parses lines into jobs and pushes them into the
            // shared bounded queue (send blocks while all workers are busy and
            // the queue is full), pausing while the reorder buffer is at
            // capacity.  Control commands (`cancel`) and quota rejections are
            // answered by the feeder itself, through the same reply channel,
            // so their responses still follow the session's emission plan.
            {
                let emission = &emission;
                let inflight = &inflight;
                let read_error = &read_error;
                let held = &held;
                let abort = &abort;
                let job_tx = self.sender().clone();
                let subtasks = Arc::clone(&self.subtasks);
                let counters = &self.counters;
                let flights = Arc::clone(&self.flights);
                let coalesce = self.coalesce_enabled();
                let local_threshold = self.config.local_threshold;
                let policy = Arc::clone(&self.config.policy);
                let default_order = options.order;
                let max_inflight = options.max_inflight;
                let max_items = options.max_items;
                let user_quota = options.user_quota.clone();
                scope.spawn(move || {
                    let mut seq: u64 = 0;
                    let mut ordered: u64 = 0;
                    let control_stats = || RequestStats {
                        solver: "-".to_string(),
                        ..RequestStats::default()
                    };
                    for line in input.lines() {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let line = match line {
                            Ok(line) => line,
                            Err(e) => {
                                *lock_ignoring_poison(read_error) = Some(e);
                                break;
                            }
                        };
                        let trimmed = line.trim();
                        if trimmed.is_empty() || trimmed.starts_with('#') {
                            continue;
                        }
                        let (client_id, order, stream, auth, action) =
                            match wire::parse_line(trimmed) {
                                Ok(parsed) => {
                                    let action = match parsed.command {
                                        wire::Command::Query(request) => {
                                            FeedAction::Submit(Payload::Query {
                                                request,
                                                solver: parsed.solver,
                                            })
                                        }
                                        wire::Command::Stats => FeedAction::Submit(Payload::Stats),
                                        wire::Command::Cancel { target } => {
                                            FeedAction::Cancel(target)
                                        }
                                    };
                                    (
                                        parsed.id,
                                        parsed.order.unwrap_or(default_order),
                                        parsed.stream,
                                        parsed.auth,
                                        action,
                                    )
                                }
                                Err(message) => (
                                    wire::salvage_client_id(trimmed),
                                    default_order,
                                    false,
                                    None,
                                    FeedAction::Submit(Payload::Malformed(message)),
                                ),
                            };
                        // Cancel requests are pure control: they are resolved
                        // and answered immediately — always on arrival, ahead
                        // of the reorder-buffer backpressure below, because a
                        // cancel may be the very thing that unblocks a stuck
                        // head-of-line request.  Immediate emission keeps a
                        // flood of cancels bounded (each is written straight
                        // out, never buffered).
                        if let FeedAction::Cancel(target) = action {
                            let cancelled = match lock_ignoring_poison(inflight).get(&target) {
                                Some(token) => {
                                    token.cancel();
                                    true
                                }
                                None => false,
                            };
                            lock_ignoring_poison(emission).insert(seq, Emission::Immediate);
                            let response = Response {
                                id: seq,
                                client_id,
                                outcome: Ok(Outcome::Cancel { target, cancelled }),
                                halted: None,
                                chunks: stream.then_some(0),
                                stats: control_stats(),
                            };
                            let _ = reply_tx.send(StreamEvent::Done(response));
                            seq += 1;
                            continue;
                        }
                        // Streamed requests always emit on arrival: holding an
                        // unbounded number of chunks for in-order emission
                        // would defeat both the latency and the memory point
                        // of streaming (documented in WIRE.md).
                        let plan = match order {
                            OrderMode::Input if !stream => {
                                let position = ordered;
                                ordered += 1;
                                Emission::Ordered(position)
                            }
                            _ => Emission::Immediate,
                        };
                        lock_ignoring_poison(emission).insert(seq, plan);
                        // Backpressure before anything that can occupy the
                        // reorder buffer — including quota rejections, which
                        // would otherwise grow `pending` without bound behind
                        // one slow head-of-line request.
                        while held.load(Ordering::Relaxed) >= reorder_capacity
                            && !abort.load(Ordering::Relaxed)
                        {
                            thread::sleep(Duration::from_millis(1));
                        }
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let FeedAction::Submit(payload) = action else {
                            unreachable!("cancel handled above")
                        };
                        // Per-user fairness gates solver work at admission:
                        // an authenticated query whose user is out of tokens
                        // is answered with a `quota` error before it can
                        // occupy a worker.  Control traffic (`stats`) and
                        // malformed lines are never throttled.
                        if let (Some(quota), Some(user), Payload::Query { .. }) =
                            (user_quota.as_deref(), auth.as_deref(), &payload)
                        {
                            if !quota.admit(user) {
                                counters.throttled.fetch_add(1, Ordering::Relaxed);
                                let response = Response {
                                    id: seq,
                                    client_id,
                                    outcome: Err(EngineError::quota(format!(
                                        "user `{user}` exceeded the admission rate \
                                         ({} req/s, burst {})",
                                        quota.rate_per_sec(),
                                        quota.burst()
                                    ))),
                                    halted: None,
                                    chunks: stream.then_some(0),
                                    stats: control_stats(),
                                };
                                let _ = reply_tx.send(StreamEvent::Done(response));
                                seq += 1;
                                continue;
                            }
                        }
                        if let Some(limit) = max_inflight {
                            if lock_ignoring_poison(inflight).len() >= limit {
                                let response = Response {
                                    id: seq,
                                    client_id,
                                    outcome: Err(EngineError::quota(format!(
                                        "session in-flight quota exceeded \
                                         ({limit} request(s) already running)"
                                    ))),
                                    halted: None,
                                    chunks: stream.then_some(0),
                                    stats: control_stats(),
                                };
                                let _ = reply_tx.send(StreamEvent::Done(response));
                                seq += 1;
                                continue;
                            }
                        }
                        // Sub-threshold one-shot queries run inline on the
                        // feeder thread (see [`ExecRoute`]), answered through
                        // the same reply channel as quota rejections so the
                        // session's emission plan still applies.
                        if let Payload::Query { request, solver } = &payload {
                            if exec_route(request, stream, local_threshold) == ExecRoute::Local {
                                let response = local_response(
                                    seq,
                                    client_id,
                                    request,
                                    *solver,
                                    policy.as_ref(),
                                );
                                let _ = reply_tx.send(StreamEvent::Done(response));
                                seq += 1;
                                continue;
                            }
                        }
                        let cancel = CancelToken::new();
                        // Single-flight: attach to an identical in-flight
                        // query instead of submitting a duplicate job.  The
                        // follower still registers as in flight for the
                        // session (cancellable, counted by `--max-inflight`);
                        // its terminal arrives via the same reply channel.
                        let key = flight_key(&payload, coalesce);
                        if let Some(key) = &key {
                            let follower = Follower::new(
                                seq,
                                client_id.clone(),
                                stream,
                                cancel.clone(),
                                max_items,
                                ReplySender::plain(reply_tx.clone()),
                                false,
                            );
                            if flights.try_join(key, follower) {
                                lock_ignoring_poison(inflight).insert(seq, cancel);
                                seq += 1;
                                continue;
                            }
                        }
                        lock_ignoring_poison(inflight).insert(seq, cancel.clone());
                        let job = PoolJob {
                            seq,
                            client_id,
                            payload,
                            stream,
                            cancel,
                            max_items,
                            reply: ReplySender::plain(reply_tx.clone()),
                            key,
                        };
                        counters.inflight.fetch_add(1, Ordering::Relaxed);
                        if job_tx.send(job).is_err() {
                            counters.inflight.fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                        subtasks.notify_workers();
                        seq += 1;
                    }
                    // Dropping the feeder's `reply_tx` (moved in) lets the
                    // collector loop end once all in-flight jobs answered.
                    drop(reply_tx);
                });
            }
            // Collector (this thread): drain chunk frames and terminal
            // responses as they complete; chunks are written immediately,
            // terminal responses follow the session's ordering plan.
            let mut next_ordered: u64 = 0;
            let mut pending: BTreeMap<u64, Response> = BTreeMap::new();
            let mut aborted = false;
            for event in reply_rx {
                if aborted {
                    continue; // drain in-flight work, discard
                }
                let response = match event {
                    StreamEvent::Chunk(frame) => {
                        let failed = writeln!(output, "{}", frame.to_json_line())
                            .and_then(|()| output.flush())
                            .err();
                        if let Some(e) = failed {
                            write_error = Some(e);
                            aborted = true;
                            abort.store(true, Ordering::Relaxed);
                            cancel_all(&inflight);
                        }
                        continue;
                    }
                    StreamEvent::Done(response) => response,
                };
                lock_ignoring_poison(&inflight).remove(&response.id);
                summary.requests += 1;
                if !response.is_ok() {
                    summary.errors += 1;
                }
                let plan = lock_ignoring_poison(&emission)
                    .remove(&response.id)
                    .unwrap_or(Emission::Immediate);
                let mut ready: Vec<Response> = Vec::new();
                match plan {
                    Emission::Immediate => ready.push(response),
                    Emission::Ordered(position) => {
                        pending.insert(position, response);
                        while let Some(next) = pending.remove(&next_ordered) {
                            ready.push(next);
                            next_ordered += 1;
                        }
                        held.store(pending.len(), Ordering::Relaxed);
                    }
                }
                if ready.is_empty() {
                    continue;
                }
                let mut failed = None;
                for r in &ready {
                    if let Err(e) = writeln!(output, "{}", r.to_json_line()) {
                        failed = Some(e);
                        break;
                    }
                }
                if failed.is_none() {
                    if let Err(e) = output.flush() {
                        failed = Some(e);
                    }
                }
                if let Some(e) = failed {
                    write_error = Some(e);
                    aborted = true;
                    abort.store(true, Ordering::Relaxed);
                    // The session is gone: stop its queued jobs (workers
                    // drop a cancelled job at its first yield boundary)
                    // instead of computing results nobody will read.
                    cancel_all(&inflight);
                }
            }
        });
        if let Some(e) = write_error {
            return Err(e);
        }
        if let Some(e) = read_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
        output.flush()?;
        Ok(summary)
    }
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

/// Cancels every in-flight job of an aborted session.
fn cancel_all(inflight: &Mutex<HashMap<u64, CancelToken>>) {
    for token in lock_ignoring_poison(inflight).values() {
        token.cancel();
    }
}

/// What [`SessionMux::feed_line`] did with one wire line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MuxFeed {
    /// The line was consumed: answered immediately, submitted to the pool,
    /// or skipped (blank/comment).
    Progress,
    /// The line was **not** consumed: the session's reorder buffer or the
    /// shared job queue is full.  Retry the same line once responses drain.
    Stalled,
    /// The worker pool hung up (the engine is shutting down); the session
    /// cannot make progress and should be closed.
    PoolClosed,
}

/// The non-blocking equivalent of one [`Engine::serve_with`] session: the
/// feeder and collector halves of the threaded loop folded into a state
/// machine a readiness loop can drive from one thread.
///
/// The semantics mirror `serve_with` exactly — per-session sequence numbers,
/// the cancel/quota control paths, the `order=input` reorder buffer with its
/// bounded capacity, immediate emission for streams — so every wire test
/// passes unchanged over either transport.  The differences are mechanical:
/// lines arrive via [`SessionMux::feed_line`] instead of a blocking reader,
/// worker events via [`SessionMux::on_event`] instead of a blocking `recv`,
/// and rendered response bytes accumulate in a caller-owned buffer instead
/// of going straight to a socket.
pub(crate) struct SessionMux {
    job_tx: SyncSender<PoolJob>,
    /// Pokes parked workers after each accepted job.
    subtasks: Arc<SubtaskQueue>,
    counters: Arc<EngineCounters>,
    /// The engine's single-flight registry (duplicate queries attach to
    /// in-flight executions instead of becoming pool jobs).
    flights: Arc<FlightTable>,
    /// Whether this session renders flight keys and attempts joins.
    coalesce: bool,
    /// Template reply channel cloned into every job (already wired to the
    /// readiness loop's waker).
    reply: ReplySender,
    default_order: OrderMode,
    max_inflight: Option<usize>,
    max_items: Option<u64>,
    user_quota: Option<Arc<UserBuckets>>,
    /// [`EngineConfig::local_threshold`]: sub-threshold one-shot queries are
    /// answered inline by `feed_line` instead of becoming pool jobs.
    local_threshold: usize,
    /// The engine's routing policy, for those inline answers.
    policy: Arc<dyn SolverPolicy>,
    reorder_capacity: usize,
    seq: u64,
    ordered: u64,
    emission: HashMap<u64, Emission>,
    inflight: HashMap<u64, CancelToken>,
    next_ordered: u64,
    pending: BTreeMap<u64, Response>,
    requests: u64,
    errors: u64,
    pool_closed: bool,
}

impl Drop for SessionMux {
    fn drop(&mut self) {
        self.counters.sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

impl SessionMux {
    /// Feeds one wire line (already split, not yet trimmed).  Rendered
    /// responses — control answers, quota rejections — are appended to `out`.
    /// [`MuxFeed::Stalled`] means the line was not consumed and must be
    /// re-fed after [`SessionMux::on_event`] has drained some state.
    pub(crate) fn feed_line(&mut self, line: &str, out: &mut Vec<u8>) -> MuxFeed {
        if self.pool_closed {
            return MuxFeed::PoolClosed;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return MuxFeed::Progress;
        }
        let control_stats = || RequestStats {
            solver: "-".to_string(),
            ..RequestStats::default()
        };
        let (client_id, order, stream, auth, action) = match wire::parse_line(trimmed) {
            Ok(parsed) => {
                let action = match parsed.command {
                    wire::Command::Query(request) => FeedAction::Submit(Payload::Query {
                        request,
                        solver: parsed.solver,
                    }),
                    wire::Command::Stats => FeedAction::Submit(Payload::Stats),
                    wire::Command::Cancel { target } => FeedAction::Cancel(target),
                };
                (
                    parsed.id,
                    parsed.order.unwrap_or(self.default_order),
                    parsed.stream,
                    parsed.auth,
                    action,
                )
            }
            Err(message) => (
                wire::salvage_client_id(trimmed),
                self.default_order,
                false,
                None,
                FeedAction::Submit(Payload::Malformed(message)),
            ),
        };
        // Cancels resolve ahead of the reorder backpressure, exactly as in
        // the threaded feeder: a cancel may be what unblocks a stuck
        // head-of-line request.
        if let FeedAction::Cancel(target) = action {
            let cancelled = match self.inflight.get(&target) {
                Some(token) => {
                    token.cancel();
                    true
                }
                None => false,
            };
            let seq = self.next_seq();
            self.emission.insert(seq, Emission::Immediate);
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
            return MuxFeed::Progress;
        }
        // The threaded feeder sleeps here while the reorder buffer is at
        // capacity; the non-blocking equivalent is to leave the line
        // unconsumed and let the loop retry after responses drain.
        if self.pending.len() >= self.reorder_capacity {
            return MuxFeed::Stalled;
        }
        let FeedAction::Submit(payload) = action else {
            unreachable!("cancel handled above")
        };
        let plan = match order {
            OrderMode::Input if !stream => {
                let position = self.ordered;
                Emission::Ordered(position)
            }
            _ => Emission::Immediate,
        };
        let throttled = match (&self.user_quota, auth.as_deref(), &payload) {
            (Some(quota), Some(user), Payload::Query { .. }) if !quota.admit(user) => {
                Some(format!(
                    "user `{user}` exceeded the admission rate ({} req/s, burst {})",
                    quota.rate_per_sec(),
                    quota.burst()
                ))
            }
            _ => None,
        };
        if let Some(message) = throttled {
            self.counters.throttled.fetch_add(1, Ordering::Relaxed);
            let seq = self.next_seq();
            self.commit_plan(seq, plan);
            self.finish(
                Response {
                    id: seq,
                    client_id,
                    outcome: Err(EngineError::quota(message)),
                    halted: None,
                    chunks: stream.then_some(0),
                    stats: control_stats(),
                },
                out,
            );
            return MuxFeed::Progress;
        }
        if let Some(limit) = self.max_inflight {
            if self.inflight.len() >= limit {
                let seq = self.next_seq();
                self.commit_plan(seq, plan);
                self.finish(
                    Response {
                        id: seq,
                        client_id,
                        outcome: Err(EngineError::quota(format!(
                            "session in-flight quota exceeded \
                             ({limit} request(s) already running)"
                        ))),
                        halted: None,
                        chunks: stream.then_some(0),
                        stats: control_stats(),
                    },
                    out,
                );
                return MuxFeed::Progress;
            }
        }
        // Sub-threshold one-shot queries are answered inline (see
        // [`ExecRoute`]) — no pool job, no in-flight registration; the
        // response follows the session's emission plan like any other.
        if let Payload::Query { request, solver } = &payload {
            if exec_route(request, stream, self.local_threshold) == ExecRoute::Local {
                let response =
                    local_response(self.seq, client_id, request, *solver, self.policy.as_ref());
                let seq = self.next_seq();
                self.commit_plan(seq, plan);
                self.finish(response, out);
                return MuxFeed::Progress;
            }
        }
        let cancel = CancelToken::new();
        // Single-flight, mirroring the threaded feeder: a duplicate of an
        // in-flight query attaches as a follower — no pool job, no queue
        // capacity consumed (so it cannot stall), terminal via `on_event`.
        let key = flight_key(&payload, self.coalesce);
        if let Some(k) = &key {
            let follower = Follower::new(
                self.seq,
                client_id.clone(),
                stream,
                cancel.clone(),
                self.max_items,
                self.reply.clone(),
                false,
            );
            if self.flights.try_join(k, follower) {
                let seq = self.next_seq();
                self.commit_plan(seq, plan);
                self.inflight.insert(seq, cancel);
                return MuxFeed::Progress;
            }
        }
        let job = PoolJob {
            seq: self.seq,
            client_id,
            payload,
            stream,
            cancel: cancel.clone(),
            max_items: self.max_items,
            reply: self.reply.clone(),
            key,
        };
        match self.job_tx.try_send(job) {
            Ok(()) => {
                self.subtasks.notify_workers();
                self.counters.inflight.fetch_add(1, Ordering::Relaxed);
                let seq = self.next_seq();
                self.commit_plan(seq, plan);
                self.inflight.insert(seq, cancel);
                MuxFeed::Progress
            }
            // Queue full is the readiness-loop form of the feeder blocking on
            // `send`: nothing was committed, so the same line retries intact.
            Err(mpsc::TrySendError::Full(_)) => MuxFeed::Stalled,
            Err(mpsc::TrySendError::Disconnected(_)) => {
                self.pool_closed = true;
                MuxFeed::PoolClosed
            }
        }
    }

    /// Applies one worker event, appending any rendered output to `out` —
    /// the collector half of the threaded loop.
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

    /// Whether every submitted request has been answered and emitted.
    pub(crate) fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.pending.is_empty()
    }

    /// (requests answered, error responses) so far — the session's
    /// contribution to a [`crate::transport::TransportSummary`].
    pub(crate) fn tallies(&self) -> (u64, u64) {
        (self.requests, self.errors)
    }

    /// Consumes the next session sequence number.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Registers `seq`'s emission plan, consuming an ordered position if the
    /// plan is ordered.
    fn commit_plan(&mut self, seq: u64, plan: Emission) {
        if let Emission::Ordered(_) = plan {
            self.ordered += 1;
        }
        self.emission.insert(seq, plan);
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

/// Appends one response as a JSON line to a session output buffer.
fn render_response(response: &Response, out: &mut Vec<u8>) {
    out.extend_from_slice(response.to_json_line().as_bytes());
    out.push(b'\n');
}

/// What the feeder does with one parsed line.
enum FeedAction {
    /// Submit a job to the worker pool.
    Submit(Payload),
    /// Resolve a `cancel id=N` against the session's in-flight registry.
    Cancel(u64),
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Hang up the job queue; workers exit once it drains.
        self.job_tx.take();
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

/// How long one worker holds the job-queue receiver per poll.  This bounds
/// how stale an idle worker's view of the *subtask* queue can get: a split
/// pushed while every idle worker is inside a poll is picked up within one
/// timeout (pushes also notify the subtask condvar, so parked non-holders
/// wake immediately — the timeout is the backstop for the lock holder).
const JOB_POLL: Duration = Duration::from_millis(2);

/// The persistent worker body, until the engine hangs up the queue: steal
/// and run intra-query subtasks, then poll the job queue, then execute one
/// job, around again.
///
/// Subtasks are drained *first*: they subdivide queries the pool already
/// accepted, so finishing them beats starting new work — and an idle sibling
/// picking them up is the entire point of splitting.  Only one worker at a
/// time polls the shared job receiver (`try_lock`); the others park on the
/// subtask condvar so neither jobs nor subtasks are ever left waiting on a
/// busy loop.
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

fn worker_loop(ctx: &WorkerCtx, jobs: &Mutex<Receiver<PoolJob>>, worker_index: usize) {
    loop {
        ctx.subtasks.drain_steal();
        // A poisoned lock (another worker panicked mid-dequeue) is
        // recovered: losing one worker must not kill the pool.
        let polled = match jobs.try_lock() {
            Ok(receiver) => receiver.recv_timeout(JOB_POLL),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                poisoned.into_inner().recv_timeout(JOB_POLL)
            }
            Err(std::sync::TryLockError::WouldBlock) => {
                // Another worker is polling for jobs; park until a subtask
                // or a job submission pokes the condvar.
                ctx.subtasks.wait_for_work(JOB_POLL);
                continue;
            }
        };
        match polled {
            Ok(job) => {
                // `None` means the job attached to an identical in-flight
                // execution as a follower: the flight delivers its terminal
                // and settles the in-flight gauge.
                if let Some(response) = answer(ctx, worker_index, &job) {
                    // A receiver that hung up (aborted session) just
                    // discards the answer.
                    let _ = job.reply.send(StreamEvent::Done(response));
                    ctx.counters.job_finished();
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Executes one job on a worker, turning panics into `internal` errors so a
/// misbehaving request cannot take a pool thread down with it.  `None`
/// means the job joined an in-flight duplicate as a follower — the flight
/// owns its delivery, and the worker must not answer (or decrement) it.
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
                subtasks: ctx.subtasks.spawned(),
                subtasks_stolen: ctx.subtasks.stolen(),
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
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                process_one(job, request, *solver, worker_index, ctx)
            }));
            attempt.unwrap_or_else(|panic| {
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
/// means the job joined an active flight as a follower — the flight owns its
/// delivery and the worker moves on to the next job.
fn process_one(
    job: &PoolJob,
    request: &Request,
    solver_override: Option<SolverKind>,
    worker: usize,
    ctx: &WorkerCtx,
) -> Option<Response> {
    let started = Instant::now();
    // A `solver=` override changes which solver's telemetry the caller sees,
    // so overridden requests get their own cache entries.  Submission sites
    // pre-render the key when coalescing applies; rendered or not, it is the
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
    // submission-site join (or were submitted before the leader was) attach
    // here instead of executing, and a duplicate whose flight settled after
    // the miss above is answered from the entry that flight just cached.
    let lease = match (&key, ctx.coalesce) {
        (Some(key), true) => {
            match ctx
                .flights
                .lead_or_join(key, request.kind(), &ctx.cache, || Follower::from_job(job))
            {
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
    // Large duality calls may split into work-stealing subtasks on the
    // shared pool; the job's cancel token doubles as the split's
    // cancellation signal, so queued subtasks of a cancelled query are
    // skipped at the steal boundary.
    let parallel = ParallelContext::new(
        Arc::new(EnginePool::new(
            Arc::clone(&ctx.subtasks),
            job.cancel.clone(),
        )),
        ctx.parallel_threshold,
    );
    let mut solo_sink = WorkerSink::new(job, request.kind());
    let mut flight_sink = lease
        .as_ref()
        .map(|lease| FlightSink::new(job, request.kind(), lease));
    let sink: &mut dyn ResultSink = match flight_sink.as_mut() {
        Some(sink) => sink,
        None => &mut solo_sink,
    };
    let execution = ops::execute_streaming_with(request, policy, Some(&parallel), sink);
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
            // Settle the followers with the execution's results, then answer
            // as the leader saw it (its own partial if it was promoted away).
            let view = sink.leader_view(&outcome, halted);
            lease.finish(&outcome, halted, &stats);
            view
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
    fn intra_query_splits_show_up_in_stats() {
        let eng = Engine::new(EngineConfig {
            workers: 2,
            cache: false,
            parallel_threshold: 0, // split every routed duality call
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
        let spawned = stats_line
            .split("\"subtasks\":")
            .nth(1)
            .and_then(|rest| {
                rest.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse::<u64>()
                    .ok()
            })
            .expect("stats must carry a subtasks counter");
        assert!(
            spawned > 0,
            "a threshold-0 quadlog check must have split: {stats_line}"
        );
        assert!(stats_line.contains("\"subtasks_stolen\":"), "{stats_line}");
    }

    #[test]
    fn parallel_answers_are_identical_across_worker_counts() {
        // The determinism contract survives intra-query splitting: any worker
        // count, same outcomes — including the non-duality witness.
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
                parallel_threshold: 0,
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
