//! Single-flight request coalescing: at most one execution per canonical
//! cache key at any moment.
//!
//! Every query op is a pure function of its canonical cache key, and a
//! duality check costs up to quasi-polynomial work — yet the result cache
//! only helps *after* the first execution completes.  A hot-key stampede
//! (N identical requests arriving while the first is still running) would
//! execute the solver N times.  This module closes that window: the first
//! miss becomes the flight's **leader** (a normal pool job, executed as
//! usual); every concurrent duplicate becomes a **follower** that attaches
//! to the flight instead of executing.
//!
//! Followers keep their own request identity end to end — own `id=`
//! sequence number, own `client_id`, own cancellation token and item quota.
//! A streamed follower replays the chunks the flight already produced (from
//! the flight's buffer, with its own per-request chunk `seq` numbering) and
//! then receives live ones; a one-shot follower just gets the terminal
//! outcome.  When the execution completes, every follower receives a
//! terminal [`Response`] built from the same outcome and telemetry as the
//! leader's — byte-identical modulo `id`/`client_id`.
//!
//! **Leader promotion:** a flight is not killed by its leader's cancellation
//! or disconnection.  The execution's sink keeps running while *any*
//! participant still wants the result; a stopped leader merely detaches
//! (its own response is the partial it consumed, like any cancelled job)
//! while the flight runs on for the followers — and a naturally completed
//! flight is cached even if the original leader gave up along the way.
//!
//! Joins happen at two levels: submission (`Submitter::submit`, the one
//! path behind `run_batch`, `run_streaming` and every serve session)
//! attaches before a duplicate ever occupies a pool slot, and the worker
//! itself re-checks after its cache miss (`lead_or_join`) so duplicates that
//! raced past the submission check still coalesce — or, if their flight
//! settled in the meantime, are answered from its fresh cache entry.
//! `qld front` adds a third, router-level tier for one-shot duplicates
//! across client sessions (see `crates/front/src/coalesce.rs`).

use crate::cache::{CachedResult, QueryCache};
use crate::engine::{EngineCounters, PoolJob, ReplySender};
use crate::lock_ignoring_poison;
use crate::response::{EngineError, Outcome, RequestStats, Response};
use crate::stream::{
    CancelToken, ChunkFrame, ChunkPayload, ResultSink, SinkDirective, StopReason, StreamEvent,
    StreamItem,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The engine-wide registry of in-flight coalesced executions, keyed by the
/// canonical cache key (including the `solver=` override suffix).
pub(crate) struct FlightTable {
    inner: Mutex<HashMap<String, Arc<Flight>>>,
    counters: Arc<EngineCounters>,
    /// Flights led (coalescible executions) since startup.
    led: AtomicU64,
    /// Followers attached (duplicate executions avoided) since startup.
    coalesced: AtomicU64,
}

/// What [`FlightTable::lead_or_join`] decided for a worker's cache miss.
pub(crate) enum LeadOutcome {
    /// No active flight and no cache entry for the key: the caller is now
    /// the leader and must execute, then settle the lease.
    Lead(FlightLease),
    /// The job attached to an active flight as a follower; the flight owns
    /// its delivery (and its in-flight gauge decrement).
    Joined,
    /// A flight for the key settled between the caller's cache miss and
    /// this gate: answer from its cache entry as an ordinary hit.
    Cached(Arc<CachedResult>),
}

impl FlightTable {
    pub(crate) fn new(counters: Arc<EngineCounters>) -> Self {
        FlightTable {
            inner: Mutex::new(HashMap::new()),
            counters,
            led: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Flights led since startup (the `flights` stats field).
    pub(crate) fn led(&self) -> u64 {
        self.led.load(Ordering::Relaxed)
    }

    /// Followers attached since startup (the `coalesced` stats field).
    pub(crate) fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Attaches `follower` to the key's active flight, if one exists and is
    /// still accepting joins.  `false` means the caller must submit (or
    /// execute) the request itself.
    pub(crate) fn try_join(&self, key: &str, follower: Follower) -> bool {
        let table = lock_ignoring_poison(&self.inner);
        let Some(flight) = table.get(key) else {
            return false;
        };
        let mut state = lock_ignoring_poison(&flight.state);
        if state.completed {
            return false;
        }
        state.followers.push(follower);
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// A worker's post-cache-miss gate: join the key's active flight as a
    /// follower (`make_follower` is only called in that case), answer from
    /// `cache` if a flight settled since the caller's miss, or become the
    /// key's flight leader.
    ///
    /// The cache re-probe runs under the table lock, and a leader inserts
    /// its result before [`FlightLease::finish`] removes the flight under
    /// that same lock — so a duplicate always finds the flight or the entry.
    /// Lock order is table, then cache; the cache never calls back into the
    /// table.
    pub(crate) fn lead_or_join(
        self: &Arc<Self>,
        key: &str,
        kind: &'static str,
        cache: &QueryCache,
        make_follower: impl FnOnce() -> Follower,
    ) -> LeadOutcome {
        let mut table = lock_ignoring_poison(&self.inner);
        if let Some(flight) = table.get(key) {
            let mut state = lock_ignoring_poison(&flight.state);
            if !state.completed {
                state.followers.push(make_follower());
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                return LeadOutcome::Joined;
            }
            // A completed flight still in the table is mid-teardown on its
            // leader's thread; replace it — the old lease removes by
            // identity, never clobbering the new entry.
        }
        if let Some(hit) = cache.reprobe(key) {
            return LeadOutcome::Cached(hit);
        }
        let flight = Arc::new(Flight {
            kind,
            state: Mutex::new(FlightState::default()),
        });
        table.insert(key.to_string(), Arc::clone(&flight));
        self.led.fetch_add(1, Ordering::Relaxed);
        LeadOutcome::Lead(FlightLease {
            table: Arc::clone(self),
            key: key.to_string(),
            flight,
            settled: false,
        })
    }

    /// Removes the key's entry iff it is still `flight` (a replacement
    /// flight under the same key is left alone).
    fn remove(&self, key: &str, flight: &Arc<Flight>) {
        let mut table = lock_ignoring_poison(&self.inner);
        if table.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
            table.remove(key);
        }
    }
}

/// One coalesced execution: the chunk buffer every follower replays from,
/// and the followers themselves.  The leader is not a participant here — its
/// frames flow through the executing worker's normal paths.
pub(crate) struct Flight {
    /// The request kind, for follower chunk framing (identical requests have
    /// identical kinds, so the leader's is everyone's).
    kind: &'static str,
    state: Mutex<FlightState>,
}

#[derive(Default)]
struct FlightState {
    /// Every chunk payload the execution produced, in order, regardless of
    /// whether the leader streamed: a follower enrolling at any point
    /// replays the identical sequence.
    buffer: Vec<ChunkPayload>,
    followers: Vec<Follower>,
    /// No further joins: the execution has stopped (or is settling).
    completed: bool,
}

impl Flight {
    /// Delivers the terminal outcome to every follower.  `outcome`/`halted`/
    /// `stats` are the leader execution's results; a follower that stopped
    /// early (its own cancel or quota) gets a partial built from the prefix
    /// it consumed instead.
    fn settle(
        &self,
        outcome: &Result<Outcome, EngineError>,
        halted: Option<StopReason>,
        stats: &RequestStats,
        counters: &EngineCounters,
    ) {
        let mut state = lock_ignoring_poison(&self.state);
        state.completed = true;
        let FlightState {
            buffer, followers, ..
        } = &mut *state;
        for mut follower in followers.drain(..) {
            follower.pump(self.kind, buffer);
            let (f_outcome, f_halted) = match follower.halt {
                None => (outcome.clone(), halted),
                Some(reason) => (
                    partial_outcome(self.kind, buffer, follower.items, follower.pos, reason),
                    Some(reason),
                ),
            };
            let response = Response {
                id: follower.seq,
                client_id: follower.client_id.clone(),
                outcome: f_outcome,
                halted: f_halted,
                chunks: follower.stream.then_some(follower.emitted),
                stats: stats.clone(),
            };
            let _ = follower.reply.send(StreamEvent::Done(response));
            if follower.pool_admitted {
                counters.job_finished();
            }
        }
    }
}

/// The leader's obligation to settle its flight.  Dropping it unsettled
/// (a panicking leader) fails the followers with an `internal` error so
/// nobody waits forever.
pub(crate) struct FlightLease {
    table: Arc<FlightTable>,
    key: String,
    flight: Arc<Flight>,
    settled: bool,
}

impl FlightLease {
    fn flight(&self) -> &Arc<Flight> {
        &self.flight
    }

    /// Settles the flight: removes it from the table (new duplicates start
    /// fresh — or hit the cache) and delivers every follower's terminal.
    pub(crate) fn finish(
        mut self,
        outcome: &Result<Outcome, EngineError>,
        halted: Option<StopReason>,
        stats: &RequestStats,
    ) {
        self.settled = true;
        self.table.remove(&self.key, &self.flight);
        self.flight
            .settle(outcome, halted, stats, &self.table.counters);
    }
}

impl Drop for FlightLease {
    fn drop(&mut self) {
        if self.settled {
            return;
        }
        self.table.remove(&self.key, &self.flight);
        let outcome = Err(EngineError::internal(
            "the coalesced leader execution failed; retry the request",
        ));
        let stats = RequestStats {
            solver: "-".to_string(),
            ..RequestStats::default()
        };
        self.flight
            .settle(&outcome, None, &stats, &self.table.counters);
    }
}

/// One attached duplicate of an in-flight execution.
pub(crate) struct Follower {
    /// Sequence number within the follower's own session.
    seq: u64,
    client_id: Option<String>,
    /// Whether the follower asked for chunk-by-chunk streaming.
    stream: bool,
    cancel: CancelToken,
    max_items: Option<u64>,
    reply: ReplySender,
    /// Whether the job was counted on the pool's in-flight gauge (a
    /// worker-level join); the flight decrements it at delivery.
    pool_admitted: bool,
    /// Buffer entries consumed so far.
    pos: usize,
    /// Chunk frames actually delivered (own per-request `seq` numbering).
    emitted: u64,
    /// Result items consumed (delivered or not — the quota is about work).
    items: u64,
    /// The reply channel hung up mid-stream: treat as cancellation.
    receiver_gone: bool,
    /// Why the follower stopped consuming, once it has.
    halt: Option<StopReason>,
}

impl Follower {
    /// A follower standing in for `job`.  `pool_admitted` says whether the
    /// job was counted on the in-flight gauge (a worker-level join after
    /// dequeue); joins at submission never touch the gauge.
    pub(crate) fn from_job(job: &PoolJob, pool_admitted: bool) -> Follower {
        Follower {
            seq: job.seq,
            client_id: job.client_id.clone(),
            stream: job.stream,
            cancel: job.cancel.clone(),
            max_items: job.max_items,
            reply: job.reply.clone(),
            pool_admitted,
            pos: 0,
            emitted: 0,
            items: 0,
            receiver_gone: false,
            halt: None,
        }
    }

    /// The reason this follower can consume no further, if any — the same
    /// checks a solo job's sink runs at each yield boundary.
    fn would_stop(&self) -> Option<StopReason> {
        if let Some(reason) = self.halt {
            return Some(reason);
        }
        if self.cancel.is_cancelled() || self.receiver_gone {
            return Some(StopReason::Cancelled);
        }
        if self.max_items.is_some_and(|quota| self.items >= quota) {
            return Some(StopReason::ItemQuota);
        }
        None
    }

    fn send(&mut self, kind: &'static str, payload: ChunkPayload) {
        if !self.stream || self.receiver_gone {
            return;
        }
        let frame = ChunkFrame {
            id: self.seq,
            client_id: self.client_id.clone(),
            seq: self.emitted,
            kind,
            payload,
        };
        if self.reply.send(StreamEvent::Chunk(frame)).is_ok() {
            self.emitted += 1;
        } else {
            self.receiver_gone = true;
        }
    }

    /// Consumes the buffer from this follower's position, honouring the
    /// follower's own cancel/quota at the same boundaries a cached replay
    /// would (checked before each item, re-checked after delivering it;
    /// progress checkpoints pass through unchecked).
    fn pump(&mut self, kind: &'static str, buffer: &[ChunkPayload]) {
        while self.halt.is_none() && self.pos < buffer.len() {
            match &buffer[self.pos] {
                ChunkPayload::Item(item) => {
                    if let Some(reason) = self.would_stop() {
                        self.halt = Some(reason);
                        return;
                    }
                    self.items += 1;
                    self.send(kind, ChunkPayload::Item(item.clone()));
                    self.pos += 1;
                    if let Some(reason) = self.would_stop() {
                        self.halt = Some(reason);
                        return;
                    }
                }
                progress @ ChunkPayload::Progress(_) => {
                    let progress = progress.clone();
                    self.send(kind, progress);
                    self.pos += 1;
                }
            }
        }
    }
}

/// The sink a flight **leader** threads through `ops::execute_streaming`:
/// behaves exactly like the solo [`WorkerSink`] for the leader itself
/// (chunk framing, quota, cancellation), while recording every payload in
/// the flight buffer and fanning it out to the followers.
///
/// The directive reported to the running op is the *flight's*, not the
/// leader's: the execution keeps going while any participant is still
/// consuming, which is what promotes a follower when the leader stops.
///
/// [`WorkerSink`]: crate::engine
pub(crate) struct FlightSink<'a> {
    job: &'a PoolJob,
    kind: &'static str,
    flight: Arc<Flight>,
    /// Leader-side chunk framing state (mirrors the solo sink).
    emitted: u64,
    items: u64,
    receiver_gone: bool,
    /// `Some` once the leader detached while followers kept the flight
    /// alive; the leader's own answer is then the partial it consumed.
    /// Stays `None` when the leader is live at the end *or* the flight
    /// stopped with it — both answer with the execution's own outcome,
    /// exactly as an uncoalesced run would.
    leader_halt: Option<StopReason>,
    /// Buffer length at leader detach (bounds the partial's telemetry scan).
    leader_pos: usize,
}

impl<'a> FlightSink<'a> {
    pub(crate) fn new(job: &'a PoolJob, kind: &'static str, lease: &FlightLease) -> Self {
        FlightSink {
            job,
            kind,
            flight: Arc::clone(lease.flight()),
            emitted: 0,
            items: 0,
            receiver_gone: false,
            leader_halt: None,
            leader_pos: 0,
        }
    }

    /// The leader's stop reason as of now (its recorded detach, or a fresh
    /// cancel/quota trip).
    fn leader_would_stop(&self) -> Option<StopReason> {
        if let Some(reason) = self.leader_halt {
            return Some(reason);
        }
        if self.job.cancel.is_cancelled() || self.receiver_gone {
            return Some(StopReason::Cancelled);
        }
        if self.job.max_items.is_some_and(|quota| self.items >= quota) {
            return Some(StopReason::ItemQuota);
        }
        None
    }

    fn send_leader(&mut self, payload: ChunkPayload) {
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

    /// Records one payload in the flight, delivers it to every live
    /// consumer (leader first, so its frame order matches a solo run), and
    /// computes the flight directive.
    fn push(&mut self, payload: ChunkPayload) -> SinkDirective {
        let flight = Arc::clone(&self.flight);
        let mut state = lock_ignoring_poison(&flight.state);
        if self.leader_halt.is_none() {
            if matches!(payload, ChunkPayload::Item(_)) {
                self.items += 1;
            }
            self.send_leader(payload.clone());
        }
        state.buffer.push(payload);
        let buffer_len = state.buffer.len();
        let FlightState {
            buffer, followers, ..
        } = &mut *state;
        for follower in followers.iter_mut() {
            follower.pump(self.kind, buffer);
        }
        let Some(reason) = self.leader_would_stop() else {
            return SinkDirective::Continue;
        };
        if state.followers.iter().any(|f| f.would_stop().is_none()) {
            // Promotion: a follower still wants the result, so the
            // execution outlives its leader.  Record the detach point once;
            // the leader consumes nothing further.
            if self.leader_halt.is_none() {
                self.leader_halt = Some(reason);
                self.leader_pos = buffer_len;
            }
            return SinkDirective::Continue;
        }
        // Everyone has stopped: the flight dies at this yield boundary.
        state.completed = true;
        SinkDirective::Stop(self.flight_stop_reason(&state, reason))
    }

    /// The reason the whole flight stopped: the leader's own when it was
    /// the last to go, otherwise the reason of the last follower standing.
    fn flight_stop_reason(&self, state: &FlightState, leader_reason: StopReason) -> StopReason {
        if self.leader_halt.is_none() {
            return leader_reason;
        }
        state
            .followers
            .iter()
            .rev()
            .find_map(|f| f.would_stop())
            .unwrap_or(leader_reason)
    }

    /// The leader's own terminal view `(outcome, halted, chunks_emitted)`.
    /// A leader that never detached answers with the execution's outcome —
    /// byte-identical to an uncoalesced run; a detached (promoted-away)
    /// leader answers with the partial prefix it consumed.
    pub(crate) fn leader_view(
        &self,
        outcome: &Result<Outcome, EngineError>,
        halted: Option<StopReason>,
    ) -> (Result<Outcome, EngineError>, Option<StopReason>, u64) {
        match self.leader_halt {
            None => (outcome.clone(), halted, self.emitted),
            Some(reason) => {
                let state = lock_ignoring_poison(&self.flight.state);
                (
                    partial_outcome(
                        self.kind,
                        &state.buffer,
                        self.items,
                        self.leader_pos,
                        reason,
                    ),
                    Some(reason),
                    self.emitted,
                )
            }
        }
    }
}

impl ResultSink for FlightSink<'_> {
    fn item(&mut self, item: StreamItem) -> SinkDirective {
        self.push(ChunkPayload::Item(item))
    }

    fn progress(&mut self, progress: crate::stream::StreamProgress) {
        // Progress checkpoints never stop an op; the directive is dropped.
        let _ = self.push(ChunkPayload::Progress(progress));
    }

    fn check(&self) -> SinkDirective {
        let mut state = lock_ignoring_poison(&self.flight.state);
        let Some(reason) = self.leader_would_stop() else {
            return SinkDirective::Continue;
        };
        if state.followers.iter().any(|f| f.would_stop().is_none()) {
            return SinkDirective::Continue;
        }
        // `check` cannot record the leader's detach (it is `&self`), which
        // is exactly right: a stop decided here means the flight died with
        // the leader, and the execution's own partial is the leader's
        // answer — the solo-run semantics.
        state.completed = true;
        SinkDirective::Stop(self.flight_stop_reason(&state, reason))
    }
}

/// Builds the partial outcome for a participant that stopped after
/// consuming `items` result items (`pos` buffer entries), in the order it
/// consumed them — the same prefix semantics a cached replay gives a
/// cancelled or quota-limited client.
fn partial_outcome(
    kind: &str,
    buffer: &[ChunkPayload],
    items: u64,
    pos: usize,
    reason: StopReason,
) -> Result<Outcome, EngineError> {
    let taken: Vec<&StreamItem> = buffer
        .iter()
        .filter_map(|payload| match payload {
            ChunkPayload::Item(item) => Some(item),
            ChunkPayload::Progress(_) => None,
        })
        .take(items as usize)
        .collect();
    if taken.is_empty() && reason == StopReason::Cancelled {
        return Err(EngineError::cancelled(
            "request cancelled before its coalesced flight produced a result",
        ));
    }
    match kind {
        "enumerate" => Ok(Outcome::Transversals {
            transversals: taken
                .into_iter()
                .map(|item| match item {
                    StreamItem::Transversal(t) => t.clone(),
                    StreamItem::BorderElement { itemset, .. } => itemset.clone(),
                })
                .collect(),
            complete: false,
        }),
        "mine_full" => {
            let mut maximal_frequent = Vec::new();
            let mut minimal_infrequent = Vec::new();
            for item in taken {
                if let StreamItem::BorderElement { maximal, itemset } = item {
                    if *maximal {
                        maximal_frequent.push(itemset.clone());
                    } else {
                        minimal_infrequent.push(itemset.clone());
                    }
                }
            }
            // Telemetry from the last progress checkpoint the participant
            // consumed; items is the floor when none was.
            let identification_calls = buffer[..pos.min(buffer.len())]
                .iter()
                .rev()
                .find_map(|payload| match payload {
                    ChunkPayload::Progress(p) => Some(p.duality_calls),
                    ChunkPayload::Item(_) => None,
                })
                .unwrap_or(items);
            Ok(Outcome::FullBorders {
                maximal_frequent,
                minimal_infrequent,
                identification_calls,
                complete: false,
            })
        }
        // Item-less kinds (`check`, `mine`, `keys`, `stats`) have no partial
        // shape; mirror the solo error a stopped run answers with.
        _ => Err(match reason {
            StopReason::Cancelled => {
                EngineError::cancelled("request cancelled before its coalesced flight completed")
            }
            StopReason::ItemQuota => {
                EngineError::execute("request stopped by max-items before completing")
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ExecInfo;

    #[test]
    fn a_duplicate_reaching_the_gate_after_its_flight_settled_is_a_cache_hit() {
        let cache = QueryCache::new();
        let table = Arc::new(FlightTable::new(Arc::default()));
        let no_follower = || -> Follower { unreachable!("there is no flight to join") };
        // The leader misses and leads.
        assert!(cache.get("k").is_none());
        let LeadOutcome::Lead(lease) = table.lead_or_join("k", "check", &cache, no_follower) else {
            panic!("the first miss must lead");
        };
        // A duplicate misses while the leader is still executing...
        assert!(cache.get("k").is_none());
        let outcome = Ok(Outcome::Duality {
            dual: true,
            witness: None,
        });
        cache.insert(
            "k".into(),
            CachedResult {
                outcome: outcome.clone(),
                info: ExecInfo::default(),
            },
        );
        lease.finish(&outcome, None, &RequestStats::default());
        // ...and reaches the gate only after the flight settled: it must be
        // answered from the cache, not execute a second time.
        match table.lead_or_join("k", "check", &cache, no_follower) {
            LeadOutcome::Cached(hit) => assert_eq!(hit.outcome, outcome),
            _ => panic!("a settled flight's duplicate executed again"),
        }
        assert_eq!((table.led(), table.coalesced()), (1, 0));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "one lookup each");
    }
}
