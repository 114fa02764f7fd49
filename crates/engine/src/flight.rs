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
//! Every participant is checked at each of the execution's yield
//! boundaries, as a solo job is: a follower that was cancelled (or spent
//! its item quota) is answered there with the partial it consumed and
//! detaches alone.
//!
//! **Leader promotion:** a flight is not killed by its leader's cancellation
//! or disconnection.  The execution's sink keeps running while *any*
//! participant still wants the result; a stopped leader merely detaches,
//! answered at that boundary with the partial it consumed like any
//! cancelled job, while the flight runs on for the followers — and a
//! naturally completed flight is cached even if the original leader gave up
//! along the way.
//!
//! Joins happen at two levels: submission (`Submitter::submit`, the one
//! path behind `run_batch`, `run_streaming` and every serve session)
//! attaches before a duplicate ever occupies a pool slot, and the worker
//! itself re-checks after its cache miss (`lead_or_join`) so duplicates that
//! raced past the submission check still coalesce — or, if their flight
//! settled in the meantime, are answered from its fresh cache entry.

use crate::cache::{CachedResult, QueryCache};
use crate::engine::{EngineCounters, PoolJob, ReplySender};
use crate::lock_ignoring_poison;
use crate::response::{EngineError, Outcome, RequestStats, Response};
use crate::stream::{
    CancelToken, ChunkFrame, ChunkPayload, ResultSink, SinkDirective, StopReason, StreamEvent,
    StreamItem,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
            counters: Arc::clone(&self.counters),
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
/// and the followers themselves.  The leader's frames flow through the
/// executing worker's [`FlightSink`]; the flight only records whether it
/// detached.
pub(crate) struct Flight {
    /// The request kind, for follower chunk framing (identical requests have
    /// identical kinds, so the leader's is everyone's).
    kind: &'static str,
    /// The in-flight gauge, settled for each worker-level follower when the
    /// flight answers it.
    counters: Arc<EngineCounters>,
    state: Mutex<FlightState>,
}

#[derive(Default)]
struct FlightState {
    /// Every chunk payload the execution produced, in order, regardless of
    /// whether the leader streamed: a follower enrolling at any point
    /// replays the identical sequence.
    buffer: Vec<ChunkPayload>,
    /// Followers still consuming; a stopped one is answered and removed at
    /// the next yield boundary.
    followers: Vec<Follower>,
    /// No further joins: the execution has stopped (or is settling).
    completed: bool,
    /// Why the leader stopped, once it detached while followers kept the
    /// flight alive.  It was answered with its partial at that boundary and
    /// consumes nothing further.
    leader_halt: Option<StopReason>,
}

impl FlightState {
    /// Feeds every follower the buffer it has not consumed yet, then answers
    /// and removes each one that can consume no further (its own cancel or
    /// quota) with the partial it consumed.  `worker` is the executing
    /// worker, reported in the early answers' stats.
    fn release_stopped(&mut self, kind: &'static str, worker: usize, counters: &EngineCounters) {
        let FlightState {
            buffer, followers, ..
        } = self;
        followers.retain_mut(|follower| {
            follower.pump(kind, buffer);
            let Some(reason) = follower.would_stop() else {
                return true;
            };
            let outcome = partial_outcome(kind, buffer, follower.items, follower.pos, reason);
            // The execution is still running, so its solver telemetry is not
            // known yet: the answer reports only its own wall time.
            let stats = RequestStats {
                micros: follower.joined.elapsed().as_micros(),
                solver: "-".to_string(),
                worker,
                ..RequestStats::default()
            };
            follower.answer(outcome, Some(reason), stats, counters);
            false
        });
    }
}

impl Flight {
    /// Delivers the terminal outcome to every follower.  `outcome`/`halted`/
    /// `stats` are the leader execution's results; a follower that stopped
    /// since the last yield boundary gets a partial built from the prefix it
    /// consumed instead.
    fn settle(
        &self,
        outcome: &Result<Outcome, EngineError>,
        halted: Option<StopReason>,
        stats: &RequestStats,
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
            follower.answer(f_outcome, f_halted, stats.clone(), &self.counters);
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
        self.flight.settle(outcome, halted, stats);
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
        self.flight.settle(&outcome, None, &stats);
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
    /// When the follower attached, for the wall time of an early answer.
    joined: Instant,
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
            joined: Instant::now(),
        }
    }

    /// Sends the follower's terminal and settles its in-flight gauge.
    fn answer(
        &self,
        outcome: Result<Outcome, EngineError>,
        halted: Option<StopReason>,
        stats: RequestStats,
        counters: &EngineCounters,
    ) {
        let response = Response {
            id: self.seq,
            client_id: self.client_id.clone(),
            outcome,
            halted,
            chunks: self.stream.then_some(self.emitted),
            stats,
        };
        let _ = self.reply.send(StreamEvent::Done(response));
        if self.pool_admitted {
            counters.job_finished();
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
    /// The executing worker and when it took the job, for the stats of
    /// answers sent before the execution ends.
    worker: usize,
    started: Instant,
    /// Set once the leader was answered at its detach, so the worker does
    /// not answer it a second time, not even after a panic.
    answered: &'a Cell<bool>,
    /// Leader-side chunk framing state (mirrors the solo sink).
    emitted: u64,
    items: u64,
    receiver_gone: bool,
}

impl<'a> FlightSink<'a> {
    pub(crate) fn new(
        job: &'a PoolJob,
        kind: &'static str,
        lease: &FlightLease,
        worker: usize,
        started: Instant,
        answered: &'a Cell<bool>,
    ) -> Self {
        FlightSink {
            job,
            kind,
            flight: Arc::clone(lease.flight()),
            worker,
            started,
            answered,
            emitted: 0,
            items: 0,
            receiver_gone: false,
        }
    }

    /// Chunk frames delivered to the leader.
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Why the attached leader can consume no further; `None` while it can.
    fn leader_would_stop(&self) -> Option<StopReason> {
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

    /// Records one payload in the flight, delivers it to the leader (first,
    /// so its frame order matches a solo run) and the followers, and
    /// computes the flight directive.
    fn push(&mut self, payload: ChunkPayload) -> SinkDirective {
        let flight = Arc::clone(&self.flight);
        let mut state = lock_ignoring_poison(&flight.state);
        if state.leader_halt.is_none() {
            if matches!(payload, ChunkPayload::Item(_)) {
                self.items += 1;
            }
            self.send_leader(payload.clone());
        }
        state.buffer.push(payload);
        self.boundary(&mut state)
    }

    /// One yield boundary under the state lock: every participant that
    /// stopped is answered now, and the execution stops once nobody is
    /// left consuming.
    fn boundary(&self, state: &mut FlightState) -> SinkDirective {
        state.release_stopped(self.kind, self.worker, &self.flight.counters);
        if state.leader_halt.is_none() {
            let Some(reason) = self.leader_would_stop() else {
                return SinkDirective::Continue;
            };
            if state.followers.is_empty() {
                // The flight dies with its leader, whose answer is the
                // execution's own partial: the solo-run semantics.
                state.completed = true;
                return SinkDirective::Stop(reason);
            }
            // Promotion: a follower still wants the result, so the
            // execution outlives its leader.
            self.detach_leader(state, reason);
        }
        match state.leader_halt {
            Some(reason) if state.followers.is_empty() => {
                // The last follower of a detached leader has stopped.
                state.completed = true;
                SinkDirective::Stop(reason)
            }
            _ => SinkDirective::Continue,
        }
    }

    /// Answers a leader that stopped while followers still consume with
    /// the partial it consumed; the flight runs on without it.
    fn detach_leader(&self, state: &mut FlightState, reason: StopReason) {
        state.leader_halt = Some(reason);
        let outcome = partial_outcome(
            self.kind,
            &state.buffer,
            self.items,
            state.buffer.len(),
            reason,
        );
        let response = Response {
            id: self.job.seq,
            client_id: self.job.client_id.clone(),
            outcome,
            halted: Some(reason),
            chunks: self.job.stream.then_some(self.emitted),
            // As for a stopped follower: only the leader's own wall time.
            stats: RequestStats {
                micros: self.started.elapsed().as_micros(),
                solver: "-".to_string(),
                worker: self.worker,
                ..RequestStats::default()
            },
        };
        let _ = self.job.reply.send(StreamEvent::Done(response));
        // The worker still runs the flight, so the job stays on the
        // in-flight gauge until the execution ends.
        self.answered.set(true);
    }
}

impl ResultSink for FlightSink<'_> {
    fn item(&mut self, item: StreamItem) -> SinkDirective {
        self.push(ChunkPayload::Item(item))
    }

    fn progress(&mut self, progress: crate::stream::StreamProgress) {
        // Progress checkpoints never stop an op; the directive is dropped
        // (a stop decided here is decided again at the next boundary).
        let _ = self.push(ChunkPayload::Progress(progress));
    }

    fn check(&self) -> SinkDirective {
        let mut state = lock_ignoring_poison(&self.flight.state);
        self.boundary(&mut state)
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
