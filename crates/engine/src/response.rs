//! Typed engine responses and their JSON-lines rendering.

use crate::cache::CacheStats;
use crate::json::{self, ObjectBuilder};

/// Compact, owned summary of a non-duality witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessSummary {
    /// A new transversal of `G` missing from `H` (as sorted vertex indices).
    NewTransversalOfG(Vec<usize>),
    /// A new transversal of `H` missing from `G`.
    NewTransversalOfH(Vec<usize>),
    /// A disjoint edge pair — one edge of `G` and one edge of `H` that do not
    /// intersect (rendered as the edges themselves, not positional indices,
    /// so the witness stays valid for any edge ordering of the same
    /// instance).
    DisjointEdges {
        /// The `G`-edge (sorted vertex indices).
        g_edge: Vec<usize>,
        /// The `H`-edge (sorted vertex indices).
        h_edge: Vec<usize>,
    },
}

/// Outcome of an `IdentifyItemsetBorders` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BordersOutcome {
    /// The given borders are complete.
    Complete,
    /// A maximal frequent itemset missing from the given `H`.
    NewMaximalFrequent(Vec<usize>),
    /// A minimal infrequent itemset missing from the given `G`.
    NewMinimalInfrequent(Vec<usize>),
    /// A claimed maximal frequent itemset is not maximal frequent.
    InvalidMaximalFrequent(Vec<usize>),
    /// A claimed minimal infrequent itemset is not minimal infrequent.
    InvalidMinimalInfrequent(Vec<usize>),
}

/// The successful result payload of a request, by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Result of `DecideDuality`.
    Duality {
        /// Whether the two hypergraphs are dual.
        dual: bool,
        /// A checkable witness when they are not.
        witness: Option<WitnessSummary>,
    },
    /// Result of `EnumerateTransversals`.
    Transversals {
        /// The minimal transversals found, canonically ordered.
        transversals: Vec<Vec<usize>>,
        /// Whether the enumeration is complete (`false` iff cut off by `limit`).
        complete: bool,
    },
    /// Result of `IdentifyItemsetBorders`.
    Borders(BordersOutcome),
    /// Result of `MineBorders` (the full server-side `dualize_and_advance`
    /// loop): both complete borders — or the partial borders accumulated up
    /// to a cancellation/quota stop (`complete: false`).
    FullBorders {
        /// `IS⁺(M, z)`: the maximal frequent itemsets, canonically ordered.
        maximal_frequent: Vec<Vec<usize>>,
        /// `IS⁻(M, z)`: the minimal infrequent itemsets, canonically ordered.
        minimal_infrequent: Vec<Vec<usize>>,
        /// Identification (duality) checks the loop ran.
        identification_calls: u64,
        /// Whether the loop reached completion (`false` iff halted early).
        complete: bool,
    },
    /// Result of a `cancel id=N` wire request: whether the target was still
    /// in flight (and has now been asked to stop).
    Cancel {
        /// The session sequence number the cancel targeted.
        target: u64,
        /// `true` iff the target was found in flight and its cancellation
        /// flag was raised; `false` when it had already finished (or never
        /// existed).
        cancelled: bool,
    },
    /// Result of `FindMinimalKeys`.
    Keys {
        /// All minimal keys, canonically ordered.
        keys: Vec<Vec<usize>>,
        /// Number of duality calls the enumeration needed.
        duality_calls: usize,
    },
    /// Result of the `stats` wire request: a snapshot of the engine counters.
    Stats {
        /// Result-cache counters at the time of the request.
        cache: CacheStats,
        /// Number of worker threads in the shared pool.
        workers: usize,
        /// Wire-protocol version served by this engine
        /// ([`crate::wire::PROTOCOL_VERSION`]).
        protocol: u32,
        /// Milliseconds since the engine (daemon) was constructed.
        uptime_ms: u64,
        /// Whether the engine restored entries from a cache snapshot at
        /// startup (`--cache-file`).
        cache_restored: bool,
        /// Jobs admitted to the worker pool but not yet answered (queued +
        /// running), excluding the `stats` probe itself.  The load signal a
        /// fleet router's least-loaded shard policy reads.
        inflight: u64,
        /// Serve sessions currently connected to the engine.
        sessions: u64,
        /// Transport connections currently open (readiness-loop and
        /// thread-per-session alike).  Tracks `sessions` closely but counts
        /// at the accept/close boundary, so the C10k soak can assert bounded
        /// connection state.
        connections: u64,
        /// Requests rejected at admission by the per-user token bucket
        /// (`auth=` + `--user-rate`/`--user-burst`) since the engine started.
        throttled: u64,
        /// Coalesced flights led since startup: cache misses that executed
        /// with the single-flight layer engaged (each could have absorbed
        /// duplicates).
        flights: u64,
        /// Duplicate requests that attached to an in-flight execution as
        /// followers instead of running the solver (single-flight wins).
        coalesced: u64,
    },
}

/// Machine-readable failure class, rendered as the `code` field of JSON error
/// responses (see `docs/WIRE.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line could not be parsed; nothing was executed.
    Parse,
    /// The request parsed but the solvers rejected or failed on it.
    Execute,
    /// The engine itself failed (e.g. a worker panicked mid-request).
    Internal,
    /// The request was cancelled before it produced any (partial) result.
    Cancelled,
    /// The request was rejected at admission by a per-session quota
    /// (`--max-inflight`) or by its user's token bucket (`auth=` +
    /// `--user-rate`/`--user-burst`).
    Quota,
}

impl ErrorCode {
    /// The wire name of this code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Execute => "execute",
            ErrorCode::Internal => "internal",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Quota => "quota",
        }
    }
}

/// A failed request: a failure class plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// The failure class.
    pub code: ErrorCode,
    /// What went wrong, for humans.
    pub message: String,
}

impl EngineError {
    /// A parse-stage failure.
    pub fn parse(message: impl Into<String>) -> Self {
        EngineError {
            code: ErrorCode::Parse,
            message: message.into(),
        }
    }

    /// An execution-stage failure.
    pub fn execute(message: impl Into<String>) -> Self {
        EngineError {
            code: ErrorCode::Execute,
            message: message.into(),
        }
    }

    /// An engine-internal failure.
    pub fn internal(message: impl Into<String>) -> Self {
        EngineError {
            code: ErrorCode::Internal,
            message: message.into(),
        }
    }

    /// A cancellation that pre-empted execution entirely.
    pub fn cancelled(message: impl Into<String>) -> Self {
        EngineError {
            code: ErrorCode::Cancelled,
            message: message.into(),
        }
    }

    /// A per-session quota rejection.
    pub fn quota(message: impl Into<String>) -> Self {
        EngineError {
            code: ErrorCode::Quota,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Per-request execution statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestStats {
    /// Wall time spent answering the request, in microseconds.
    pub micros: u128,
    /// Peak metered work-tape bits across the quadratic-logspace solver calls
    /// made for this request (0 when only unmetered solvers ran).
    pub peak_bits: u64,
    /// Name of the solver (or solvers) that handled the duality calls.
    pub solver: String,
    /// Number of `DUAL` decisions the request needed.
    pub duality_calls: u64,
    /// Whether the answer came from the engine's result cache.
    pub cache_hit: bool,
    /// Index of the worker shard that executed the request.
    pub worker: usize,
}

/// One answered request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request's sequence number within its batch or serve session
    /// (per-connection for socket sessions).
    pub id: u64,
    /// The caller-supplied correlation token (`id=` wire keyword), echoed
    /// verbatim.
    pub client_id: Option<String>,
    /// The result payload, or the failure.
    pub outcome: Result<Outcome, EngineError>,
    /// Why the job stopped before its natural end, if it did (a wire
    /// `cancel`, a vanished stream consumer, or the session's `--max-items`
    /// quota).  Rendered as the `halted` JSON field; the outcome then holds
    /// the partial result (`complete: false`) and is never cached.
    pub halted: Option<crate::stream::StopReason>,
    /// `Some(k)` iff the request streamed: `k` chunk frames preceded this
    /// terminal response, which is rendered as the `done` frame.
    pub chunks: Option<u64>,
    /// Execution statistics.
    pub stats: RequestStats,
}

impl Response {
    /// Whether the request was answered successfully.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Renders the response as one JSON line (without trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = ObjectBuilder::new();
        o.uint("id", self.id as u128);
        if let Some(cid) = &self.client_id {
            o.str("client_id", cid);
        }
        if let Some(chunks) = self.chunks {
            // Terminal frame of a streamed request: marked so clients can
            // tell it apart from the request's chunk frames.
            o.str("frame", "done");
            o.uint("chunks", chunks as u128);
        }
        if let Some(reason) = self.halted {
            o.str("halted", reason.as_str());
        }
        match &self.outcome {
            Err(error) => {
                o.bool("ok", false);
                o.str("code", error.code.as_str());
                o.str("error", &error.message);
            }
            Ok(outcome) => {
                o.bool("ok", true);
                match outcome {
                    Outcome::Duality { dual, witness } => {
                        o.str("kind", "check");
                        o.bool("dual", *dual);
                        if let Some(w) = witness {
                            let mut wo = ObjectBuilder::new();
                            match w {
                                WitnessSummary::NewTransversalOfG(t) => {
                                    wo.str("type", "new_transversal_of_g");
                                    wo.raw("transversal", &json::index_array(t));
                                }
                                WitnessSummary::NewTransversalOfH(t) => {
                                    wo.str("type", "new_transversal_of_h");
                                    wo.raw("transversal", &json::index_array(t));
                                }
                                WitnessSummary::DisjointEdges { g_edge, h_edge } => {
                                    wo.str("type", "disjoint_edges");
                                    wo.raw("g_edge", &json::index_array(g_edge));
                                    wo.raw("h_edge", &json::index_array(h_edge));
                                }
                            }
                            o.raw("witness", &wo.build());
                        }
                    }
                    Outcome::Transversals {
                        transversals,
                        complete,
                    } => {
                        o.str("kind", "enumerate");
                        o.bool("complete", *complete);
                        o.uint("count", transversals.len() as u128);
                        o.raw("transversals", &json::index_matrix(transversals));
                    }
                    Outcome::Borders(b) => {
                        o.str("kind", "mine");
                        match b {
                            BordersOutcome::Complete => {
                                o.str("status", "complete");
                            }
                            BordersOutcome::NewMaximalFrequent(s) => {
                                o.str("status", "incomplete");
                                o.str("new_border", "maximal_frequent");
                                o.raw("itemset", &json::index_array(s));
                            }
                            BordersOutcome::NewMinimalInfrequent(s) => {
                                o.str("status", "incomplete");
                                o.str("new_border", "minimal_infrequent");
                                o.raw("itemset", &json::index_array(s));
                            }
                            BordersOutcome::InvalidMaximalFrequent(s) => {
                                o.str("status", "invalid");
                                o.str("invalid_border", "maximal_frequent");
                                o.raw("itemset", &json::index_array(s));
                            }
                            BordersOutcome::InvalidMinimalInfrequent(s) => {
                                o.str("status", "invalid");
                                o.str("invalid_border", "minimal_infrequent");
                                o.raw("itemset", &json::index_array(s));
                            }
                        }
                    }
                    Outcome::FullBorders {
                        maximal_frequent,
                        minimal_infrequent,
                        identification_calls,
                        complete,
                    } => {
                        o.str("kind", "mine_full");
                        o.bool("complete", *complete);
                        o.uint("identification_calls", *identification_calls as u128);
                        o.uint("count_maximal", maximal_frequent.len() as u128);
                        o.uint("count_minimal", minimal_infrequent.len() as u128);
                        o.raw("maximal_frequent", &json::index_matrix(maximal_frequent));
                        o.raw(
                            "minimal_infrequent",
                            &json::index_matrix(minimal_infrequent),
                        );
                    }
                    Outcome::Cancel { target, cancelled } => {
                        o.str("kind", "cancel");
                        o.uint("target", *target as u128);
                        o.bool("cancelled", *cancelled);
                    }
                    Outcome::Keys {
                        keys,
                        duality_calls,
                    } => {
                        o.str("kind", "keys");
                        o.uint("count", keys.len() as u128);
                        o.raw("keys", &json::index_matrix(keys));
                        o.uint("duality_calls", *duality_calls as u128);
                    }
                    Outcome::Stats {
                        cache,
                        workers,
                        protocol,
                        uptime_ms,
                        cache_restored,
                        inflight,
                        sessions,
                        connections,
                        throttled,
                        flights,
                        coalesced,
                    } => {
                        o.str("kind", "stats");
                        o.uint("proto", *protocol as u128);
                        o.uint("workers", *workers as u128);
                        o.uint("uptime_ms", *uptime_ms as u128);
                        o.bool("cache_restored", *cache_restored);
                        o.uint("inflight", *inflight as u128);
                        o.uint("sessions", *sessions as u128);
                        o.uint("connections", *connections as u128);
                        o.uint("throttled", *throttled as u128);
                        // Kept for `proto 2` readers; every duality call
                        // runs on one worker, so both are always 0.
                        o.uint("subtasks", 0);
                        o.uint("subtasks_stolen", 0);
                        o.uint("flights", *flights as u128);
                        o.uint("coalesced", *coalesced as u128);
                        let mut co = ObjectBuilder::new();
                        co.uint("hits", cache.hits as u128)
                            .uint("misses", cache.misses as u128)
                            .uint("entries", cache.entries as u128)
                            .uint("evictions", cache.evictions as u128)
                            .uint("expirations", cache.expirations as u128)
                            .uint("capacity", cache.capacity as u128);
                        o.raw("cache", &co.build());
                    }
                }
            }
        }
        let mut stats = ObjectBuilder::new();
        stats
            .uint("micros", self.stats.micros)
            .uint("peak_bits", self.stats.peak_bits as u128)
            .str("solver", &self.stats.solver)
            .uint("duality_calls", self.stats.duality_calls as u128)
            .bool("cache_hit", self.stats.cache_hit)
            .uint("worker", self.stats.worker as u128);
        o.raw("stats", &stats.build());
        o.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_have_expected_shape() {
        let resp = Response {
            id: 3,
            client_id: None,
            outcome: Ok(Outcome::Duality {
                dual: false,
                witness: Some(WitnessSummary::NewTransversalOfG(vec![0, 2])),
            }),
            halted: None,
            chunks: None,
            stats: RequestStats {
                micros: 17,
                peak_bits: 42,
                solver: "quadlog-chain".into(),
                duality_calls: 1,
                cache_hit: false,
                worker: 1,
            },
        };
        let line = resp.to_json_line();
        assert!(line.starts_with("{\"id\":3,\"ok\":true,\"kind\":\"check\",\"dual\":false"));
        assert!(
            line.contains("\"witness\":{\"type\":\"new_transversal_of_g\",\"transversal\":[0,2]}")
        );
        assert!(
            line.contains("\"stats\":{\"micros\":17,\"peak_bits\":42,\"solver\":\"quadlog-chain\"")
        );

        let err = Response {
            id: 4,
            client_id: Some("req-7".into()),
            outcome: Err(EngineError::parse("bad input")),
            halted: None,
            chunks: None,
            stats: RequestStats::default(),
        };
        let line = err.to_json_line();
        assert!(line.contains("\"client_id\":\"req-7\""));
        assert!(line.contains("\"ok\":false,\"code\":\"parse\",\"error\":\"bad input\""));
    }

    #[test]
    fn done_frames_carry_frame_chunks_and_halt_fields() {
        let resp = Response {
            id: 2,
            client_id: Some("s1".into()),
            outcome: Ok(Outcome::Transversals {
                transversals: vec![vec![0], vec![1]],
                complete: false,
            }),
            halted: Some(crate::stream::StopReason::Cancelled),
            chunks: Some(2),
            stats: RequestStats::default(),
        };
        let line = resp.to_json_line();
        assert!(line.starts_with(
            "{\"id\":2,\"client_id\":\"s1\",\"frame\":\"done\",\"chunks\":2,\
             \"halted\":\"cancelled\",\"ok\":true"
        ));
        assert!(line.contains("\"complete\":false"));
    }

    #[test]
    fn full_borders_and_cancel_outcomes_render() {
        let resp = Response {
            id: 0,
            client_id: None,
            outcome: Ok(Outcome::FullBorders {
                maximal_frequent: vec![vec![0, 1]],
                minimal_infrequent: vec![vec![2], vec![]],
                identification_calls: 4,
                complete: true,
            }),
            halted: None,
            chunks: None,
            stats: RequestStats::default(),
        };
        let line = resp.to_json_line();
        assert!(line.contains("\"kind\":\"mine_full\""));
        assert!(line.contains("\"identification_calls\":4"));
        assert!(line.contains("\"count_maximal\":1,\"count_minimal\":2"));
        assert!(line.contains("\"maximal_frequent\":[[0,1]]"));
        assert!(line.contains("\"minimal_infrequent\":[[2],[]]"));

        let resp = Response {
            id: 5,
            client_id: None,
            outcome: Ok(Outcome::Cancel {
                target: 3,
                cancelled: true,
            }),
            halted: None,
            chunks: None,
            stats: RequestStats::default(),
        };
        let line = resp.to_json_line();
        assert!(line.contains("\"kind\":\"cancel\",\"target\":3,\"cancelled\":true"));
    }

    #[test]
    fn stats_responses_render_cache_counters() {
        let resp = Response {
            id: 0,
            client_id: None,
            outcome: Ok(Outcome::Stats {
                cache: CacheStats {
                    hits: 5,
                    misses: 7,
                    entries: 2,
                    evictions: 1,
                    expirations: 0,
                    capacity: 64,
                },
                workers: 4,
                protocol: crate::wire::PROTOCOL_VERSION,
                uptime_ms: 1234,
                cache_restored: true,
                inflight: 3,
                sessions: 2,
                connections: 6,
                throttled: 9,
                flights: 4,
                coalesced: 11,
            }),
            halted: None,
            chunks: None,
            stats: RequestStats::default(),
        };
        let line = resp.to_json_line();
        assert!(line.contains("\"kind\":\"stats\""));
        assert!(line.contains("\"workers\":4"));
        assert!(line.contains("\"uptime_ms\":1234"));
        assert!(line.contains("\"cache_restored\":true"));
        assert!(line.contains("\"inflight\":3"));
        assert!(line.contains("\"sessions\":2"));
        assert!(line.contains("\"connections\":6"));
        assert!(line.contains("\"throttled\":9"));
        assert!(line.contains("\"subtasks\":0"));
        assert!(line.contains("\"subtasks_stolen\":0"));
        assert!(line.contains("\"flights\":4"));
        assert!(line.contains("\"coalesced\":11"));
        assert!(line.contains(
            "\"cache\":{\"hits\":5,\"misses\":7,\"entries\":2,\"evictions\":1,\
             \"expirations\":0,\"capacity\":64}"
        ));
    }

    #[test]
    fn error_codes_have_stable_names() {
        assert_eq!(ErrorCode::Parse.as_str(), "parse");
        assert_eq!(ErrorCode::Execute.as_str(), "execute");
        assert_eq!(ErrorCode::Internal.as_str(), "internal");
        assert_eq!(ErrorCode::Cancelled.as_str(), "cancelled");
        assert_eq!(ErrorCode::Quota.as_str(), "quota");
        assert_eq!(EngineError::internal("boom").to_string(), "boom");
        assert_eq!(EngineError::cancelled("c").code, ErrorCode::Cancelled);
        assert_eq!(EngineError::quota("q").code, ErrorCode::Quota);
    }
}
