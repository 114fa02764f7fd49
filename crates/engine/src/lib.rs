//! # qld-engine
//!
//! A concurrent query engine — and the `qld` command-line tool — over the
//! duality, transversal-enumeration, frequent-itemset-border, and minimal-key
//! solvers of this workspace.  This is the serving layer the ROADMAP asks for:
//! the first place where batching, caching, backpressure, multi-solver
//! dispatch, and a persistent daemon transport live.
//!
//! * [`Request`] / [`Response`] — the four typed query kinds
//!   (`DecideDuality`, `EnumerateTransversals { limit }`,
//!   `IdentifyItemsetBorders`, `FindMinimalKeys`) and their results with
//!   per-request stats (wall time, peak metered bits, solver chosen, cache
//!   hit, worker shard);
//! * [`Engine`] — a **persistent** sharded worker pool (std threads +
//!   channels) spawned at construction; every session (batch call, stdin
//!   loop, socket connection) multiplexes onto it through one shared
//!   **bounded** submission queue (backpressure), and shares one result
//!   [`cache`](crate::cache::QueryCache) — a bounded **LRU** with optional
//!   TTL, keyed by canonical (normalized, order-insensitive) request
//!   encodings;
//! * [`OrderMode`] — per-session (and per-request, via the `order=` wire
//!   keyword) choice between in-order responses and out-of-order streaming
//!   where a slow request never head-of-line-blocks the rest;
//! * [`stream`] — the **streaming job pipeline** (wire protocol v2): a
//!   `stream=` request answers as incremental `chunk` frames (one per
//!   minimal transversal / border advancement) followed by a `done` frame,
//!   jobs observe cooperative [`CancelToken`]s at every yield boundary
//!   (`cancel id=N` wire request, Ctrl-C in the CLI, vanished consumers),
//!   and [`ServeOptions`] carries the per-session quotas (`--max-inflight`
//!   admission control, `--max-items` result caps);
//! * [`SolverPolicy`] — pluggable routing of every duality call to a concrete
//!   solver; the default [`SizeThresholdPolicy`] sends small instances to
//!   [`qld_core::BorosMakinoTreeSolver`] and large ones to
//!   [`qld_core::QuadLogspaceSolver`]; individual requests can force a solver
//!   with the `solver=` wire keyword;
//! * [`wire`] — the one-request-per-line text format (inline `.qld`
//!   hypergraph syntax, reusing [`qld_hypergraph::format`]) and
//!   [`response::Response::to_json_line`] for the JSON-lines output; the
//!   protocol is specified in `docs/WIRE.md`;
//! * [`transport`] — the daemon front ends serving any number of concurrent
//!   client connections: the Unix-domain-socket listener behind `qld serve
//!   --socket PATH` (Unix only) and the portable TCP listener behind
//!   `qld serve --tcp ADDR`, plus [`trip_on_signals`], which arms
//!   SIGINT/SIGTERM (via the offline `signal` shim) to trip a server's
//!   shutdown handle so the daemon drains and exits cleanly;
//! * [`snapshot`] — version-stamped persistence of the result cache
//!   (`qld serve --cache-file PATH`): entries are written on graceful
//!   shutdown with their LRU order and TTL ages, and reloaded at
//!   [`Engine::new`], so a restarted daemon answers hot keys without
//!   re-running solvers;
//! * the `qld` binary — `check`, `enumerate`, `mine`, `keys`, and
//!   `serve` subcommands streaming requests from stdin, files, or a socket.
//!
//! # Quick start
//!
//! ```
//! use qld_engine::{Engine, Request};
//! use qld_hypergraph::Hypergraph;
//!
//! let engine = Engine::with_defaults();
//! let g = Hypergraph::from_index_edges(4, &[&[0, 1], &[2, 3]]);
//! let h = Hypergraph::from_index_edges(4, &[&[0, 2], &[0, 3], &[1, 2], &[1, 3]]);
//! let response = engine.run_one(Request::DecideDuality { g, h });
//! assert!(response.is_ok());
//! println!("{}", response.to_json_line());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod fairness;
pub(crate) mod flight;
pub mod json;
pub mod ops;
pub mod policy;
#[cfg(unix)]
pub(crate) mod readiness;
pub mod request;
pub mod response;
pub mod snapshot;
pub mod stream;
pub mod transport;
pub mod wire;

pub use cache::CacheStats;
pub use engine::{
    Engine, EngineConfig, ServeOptions, ServeSummary, StreamHandle, StreamRunOptions,
};
pub use fairness::{Bucket, UserBuckets};
pub use ops::{enumerate_transversals_with, execute_streaming, Execution};
pub use policy::{
    exec_route, ExecRoute, FixedPolicy, SizeThresholdPolicy, SolverKind, SolverPolicy,
};
pub use request::Request;
pub use response::{
    BordersOutcome, EngineError, ErrorCode, Outcome, RequestStats, Response, WitnessSummary,
};
pub use snapshot::{probe_writable, RestoreStats, SnapshotError, SNAPSHOT_VERSION};
pub use stream::{
    CancelToken, ChunkFrame, ChunkPayload, ResultSink, SinkDirective, StopReason, StreamEvent,
    StreamItem, StreamProgress,
};
pub use transport::{
    run_session_loop, trip_on_signals, SessionStream, TcpServer, TcpShutdownHandle,
    TransportSummary,
};
#[cfg(unix)]
pub use transport::{ShutdownHandle, SocketServer};
pub use wire::{OrderMode, PROTOCOL_VERSION};

/// Locks a mutex, recovering the guard if a previous holder panicked: the
/// engine's shared state (queue receiver, cache interior, transport totals)
/// stays usable across a worker panic, and one poisoned request must not take
/// down a session or the daemon.
pub(crate) fn lock_ignoring_poison<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
