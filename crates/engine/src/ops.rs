//! Request execution: policy-routed solver dispatch and the duality-driven
//! enumeration loops behind each request kind.
//!
//! Every request executes through [`execute_streaming`], which threads a
//! [`ResultSink`] through the incremental ops: `enumerate` yields each
//! minimal transversal the moment its duality call produces it, and the
//! full-border `mine … full=` loop yields each border advancement of
//! [`qld_datamining::AdvanceLoop`].  The sink is also where cooperative
//! cancellation and per-session item quotas take effect — the ops poll it at
//! every yield boundary and stop there, returning the partial result
//! accumulated so far (marked incomplete, never cached).  One-shot execution
//! ([`execute`]) is the same code run through the trivial [`NullSink`].

use crate::policy::{SolverKind, SolverPolicy};
use crate::request::Request;
use crate::response::{BordersOutcome, Outcome, WitnessSummary};
use crate::stream::{
    NullSink, ResultSink, SinkDirective, StopReason, StreamItem, StreamProgress,
    PROGRESS_EVERY_ITEMS,
};
use qld_core::pathnode::SpaceStrategy;
use qld_core::{
    BorosMakinoTreeSolver, DualError, DualityResult, DualitySolver, NonDualWitness,
    QuadLogspaceSolver,
};
use qld_datamining::{
    identify_with, AdvanceLoop, AdvanceStep, Identification, IdentificationInstance,
    NewBorderElement,
};
use qld_hypergraph::{Hypergraph, VertexSet};
use std::cell::{Cell, RefCell};

/// Telemetry accumulated across the duality calls of one request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecInfo {
    /// Names of the distinct solvers used, joined by `+` ("-" when none ran).
    pub solver: String,
    /// Peak metered work-tape bits over all quadratic-logspace calls.
    pub peak_bits: u64,
    /// Number of `DUAL` decisions made.
    pub duality_calls: u64,
}

/// A [`DualitySolver`] that routes each call through a [`SolverPolicy`] and
/// records which solvers ran, how many calls were made, and the peak metered
/// space.  One instance lives per request, on the worker that executes it.
pub struct PolicySolver<'p> {
    policy: &'p dyn SolverPolicy,
    used: RefCell<Vec<SolverKind>>,
    peak_bits: Cell<u64>,
    calls: Cell<u64>,
}

impl<'p> PolicySolver<'p> {
    /// Wraps a policy for one request's worth of duality calls.
    pub fn new(policy: &'p dyn SolverPolicy) -> Self {
        PolicySolver {
            policy,
            used: RefCell::new(Vec::new()),
            peak_bits: Cell::new(0),
            calls: Cell::new(0),
        }
    }

    /// The telemetry gathered so far.
    pub fn info(&self) -> ExecInfo {
        let used = self.used.borrow();
        let solver = if used.is_empty() {
            "-".to_string()
        } else {
            used.iter()
                .map(SolverKind::name)
                .collect::<Vec<_>>()
                .join("+")
        };
        ExecInfo {
            solver,
            peak_bits: self.peak_bits.get(),
            duality_calls: self.calls.get(),
        }
    }

    fn record(&self, kind: SolverKind) {
        let mut used = self.used.borrow_mut();
        if !used.contains(&kind) {
            used.push(kind);
        }
    }
}

impl DualitySolver for PolicySolver<'_> {
    fn name(&self) -> &'static str {
        "policy"
    }

    fn decide(&self, g: &Hypergraph, h: &Hypergraph) -> Result<DualityResult, DualError> {
        let kind = self.policy.choose(g, h);
        self.record(kind);
        self.calls.set(self.calls.get() + 1);
        match kind {
            SolverKind::BmTree => BorosMakinoTreeSolver::new().decide(g, h),
            SolverKind::QuadChain | SolverKind::QuadRecompute => {
                let strategy = if kind == SolverKind::QuadChain {
                    SpaceStrategy::MaterializeChain
                } else {
                    SpaceStrategy::Recompute
                };
                QuadLogspaceSolver::new(strategy)
                    .decide_with_space(g, h)
                    .map(|(result, report)| {
                        self.peak_bits
                            .set(self.peak_bits.get().max(report.peak_bits));
                        result
                    })
            }
        }
    }
}

/// How an incremental enumeration loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopEnd {
    /// The final confirming duality call said "dual": the result is complete.
    Complete,
    /// The caller's `limit=` was reached.
    LimitReached,
    /// The sink stopped the loop (cancellation or item quota).
    Halted(StopReason),
}

/// Enumerates minimal transversals of `g`, one duality call per transversal
/// (plus a final confirming call), mirroring the incremental enumeration of
/// Propositions 1.1–1.3: ask whether the known family is already `tr(g)`, and
/// convert the witness of a "no" into a new minimal transversal.  Each
/// transversal is yielded to `sink` the moment it is found; the sink is also
/// polled before every duality call, so cancellation takes effect within one
/// yield boundary.
fn enumerate_transversals_streaming(
    g: &Hypergraph,
    limit: Option<usize>,
    solver: &dyn DualitySolver,
    info: impl Fn() -> u64,
    sink: &mut dyn ResultSink,
) -> Result<(Hypergraph, LoopEnd), DualError> {
    let g = g.minimize();
    let n = g.num_vertices();
    let mut known = Hypergraph::new(n);
    let mut items: u64 = 0;
    loop {
        if limit.is_some_and(|l| known.num_edges() >= l) {
            return Ok((known, LoopEnd::LimitReached));
        }
        if let SinkDirective::Stop(reason) = sink.check() {
            return Ok((known, LoopEnd::Halted(reason)));
        }
        match solver.decide(&g, &known)? {
            DualityResult::Dual => return Ok((known, LoopEnd::Complete)),
            DualityResult::NotDual(witness) => {
                let candidate = match witness {
                    // A transversal of g containing no known transversal.
                    NonDualWitness::NewTransversalOfG(mut t) => {
                        t.grow(n);
                        t
                    }
                    // A transversal of the known family containing no g-edge;
                    // its complement is a transversal of g (g is simple) that
                    // contains no known transversal.
                    NonDualWitness::NewTransversalOfH(mut t) => {
                        t.grow(n);
                        t.complement(n)
                    }
                    // A g-edge disjoint from a known transversal is impossible:
                    // every member of `known` is a transversal of g.
                    NonDualWitness::DisjointEdges { .. } => {
                        debug_assert!(false, "disjoint-edge witness during enumeration");
                        return Ok((known, LoopEnd::Complete));
                    }
                };
                let minimal = g.minimize_transversal(&candidate);
                if known.contains_edge(&minimal) {
                    // Cannot happen for valid witnesses; bail out rather than
                    // loop forever if a solver misbehaves.
                    debug_assert!(false, "witness produced an already-known transversal");
                    return Ok((known, LoopEnd::Complete));
                }
                let directive = sink.item(StreamItem::Transversal(minimal.to_indices()));
                known.add_edge(minimal);
                items += 1;
                if items.is_multiple_of(PROGRESS_EVERY_ITEMS) {
                    sink.progress(StreamProgress {
                        items,
                        duality_calls: info(),
                    });
                }
                if let SinkDirective::Stop(reason) = directive {
                    return Ok((known, LoopEnd::Halted(reason)));
                }
            }
        }
    }
}

/// Enumerates minimal transversals of `g` without streaming (the historical
/// one-shot entry point, kept for library callers).
///
/// Returns the transversals found and whether the enumeration is complete
/// (`false` iff it stopped at `limit`).
pub fn enumerate_transversals_with(
    g: &Hypergraph,
    limit: Option<usize>,
    solver: &dyn DualitySolver,
) -> Result<(Hypergraph, bool), DualError> {
    let (found, end) = enumerate_transversals_streaming(g, limit, solver, || 0, &mut NullSink)?;
    Ok((found, end == LoopEnd::Complete))
}

/// Sorted index rendering of a vertex set.
fn indices(s: &VertexSet) -> Vec<usize> {
    s.to_indices()
}

/// Regrows a border family to the relation's item universe `n`, rejecting
/// families that mention items outside it.
fn fit_universe(family: &Hypergraph, n: usize, name: &str) -> Result<Hypergraph, String> {
    if family.num_vertices() > n {
        if let Some(v) = family.support().max_vertex() {
            if usize::from(v) >= n {
                return Err(format!(
                    "border family `{name}` mentions item {v}, outside the relation's {n}-item universe"
                ));
            }
        }
    }
    // Rebuild from indices so every set has exactly width `n` (VertexSet
    // capacities only ever grow, and the relation predicates compare widths).
    Ok(Hypergraph::from_edges(
        n,
        family
            .edges()
            .iter()
            .map(|e| VertexSet::from_indices(n, e.to_indices())),
    ))
}

/// Canonically ordered index rendering of a hypergraph's edges.
fn edge_lists(h: &Hypergraph) -> Vec<Vec<usize>> {
    h.canonicalized()
        .edges()
        .iter()
        .map(|e| e.to_indices())
        .collect()
}

/// One finished (or halted) execution: the outcome, its telemetry, and — when
/// the sink stopped the job early — why.  A halted execution's outcome is the
/// partial result accumulated up to the last yield boundary; the engine never
/// caches it.
pub struct Execution {
    /// The result payload, or a rendered execution error.
    pub outcome: Result<Outcome, String>,
    /// Per-request telemetry.
    pub info: ExecInfo,
    /// Why the sink stopped the job, when it did.
    pub halt: Option<StopReason>,
}

/// Executes one request with the given routing policy through the trivial
/// one-shot sink, returning the outcome (or a rendered error) plus
/// per-request telemetry.
pub fn execute(
    request: &Request,
    policy: &dyn SolverPolicy,
) -> (Result<Outcome, String>, ExecInfo) {
    let execution = execute_streaming(request, policy, &mut NullSink);
    (execution.outcome, execution.info)
}

/// Executes one request with the given routing policy, yielding incremental
/// results through `sink`.  A request cancelled before its first duality call
/// answers with an error; a streaming-capable request halted mid-loop answers
/// with its partial result, `complete: false`.
pub fn execute_streaming(
    request: &Request,
    policy: &dyn SolverPolicy,
    sink: &mut dyn ResultSink,
) -> Execution {
    let solver = PolicySolver::new(policy);
    // A job cancelled while it sat in the queue (its session vanished, or a
    // `cancel` raced ahead of the worker) is dropped before any solver work.
    // Only *cancellation* pre-empts execution here: an exhausted item quota
    // merely stops item-yielding loops at their own yield boundaries, so
    // item-less requests (`check`, `keys`, …) still run to completion under
    // any `--max-items` setting.
    if sink.check() == SinkDirective::Stop(StopReason::Cancelled) {
        return Execution {
            outcome: Err("request cancelled before execution".to_string()),
            info: solver.info(),
            halt: Some(StopReason::Cancelled),
        };
    }
    let (outcome, halt) = execute_inner(request, &solver, sink);
    Execution {
        outcome,
        info: solver.info(),
        halt,
    }
}

fn execute_inner(
    request: &Request,
    solver: &PolicySolver<'_>,
    sink: &mut dyn ResultSink,
) -> (Result<Outcome, String>, Option<StopReason>) {
    match request {
        Request::DecideDuality { g, h } => {
            // Normalize: duality of monotone DNFs is a statement about their
            // irredundant (minimized) forms, and the decomposition solvers
            // require simple inputs.
            let g = g.minimize();
            let h = h.minimize();
            let result = match solver.decide(&g, &h) {
                Ok(result) => result,
                Err(e) => return (Err(e.to_string()), None),
            };
            let outcome = match result {
                DualityResult::Dual => Outcome::Duality {
                    dual: true,
                    witness: None,
                },
                DualityResult::NotDual(w) => Outcome::Duality {
                    dual: false,
                    witness: Some(match w {
                        NonDualWitness::NewTransversalOfG(t) => {
                            WitnessSummary::NewTransversalOfG(indices(&t))
                        }
                        NonDualWitness::NewTransversalOfH(t) => {
                            WitnessSummary::NewTransversalOfH(indices(&t))
                        }
                        // Render the edges, not their positions: positional
                        // indices refer to the minimized instance's edge
                        // order, which neither the caller's input order nor
                        // the cache's canonical key preserves.
                        NonDualWitness::DisjointEdges { g_index, h_index } => {
                            WitnessSummary::DisjointEdges {
                                g_edge: indices(g.edge(g_index)),
                                h_edge: indices(h.edge(h_index)),
                            }
                        }
                    }),
                },
            };
            (Ok(outcome), None)
        }
        Request::EnumerateTransversals { g, limit } => {
            let calls = || solver.info().duality_calls;
            match enumerate_transversals_streaming(g, *limit, solver, calls, sink) {
                Ok((found, end)) => (
                    Ok(Outcome::Transversals {
                        transversals: edge_lists(&found),
                        complete: end == LoopEnd::Complete,
                    }),
                    match end {
                        LoopEnd::Halted(reason) => Some(reason),
                        LoopEnd::Complete | LoopEnd::LimitReached => None,
                    },
                ),
                Err(e) => (Err(e.to_string()), None),
            }
        }
        Request::IdentifyItemsetBorders {
            relation,
            threshold,
            minimal_infrequent,
            maximal_frequent,
        } => {
            // Border itemsets must live inside the relation's item universe;
            // smaller universes are grown, larger ones are a caller error
            // (letting them through would make the vertex-set operations in
            // the validation predicates compare sets of different widths).
            let n = relation.num_items();
            let minimal_infrequent = match fit_universe(minimal_infrequent, n, "g") {
                Ok(family) => family,
                Err(e) => return (Err(e), None),
            };
            let maximal_frequent = match fit_universe(maximal_frequent, n, "h") {
                Ok(family) => family,
                Err(e) => return (Err(e), None),
            };
            let instance = IdentificationInstance::new(
                relation,
                *threshold,
                &minimal_infrequent,
                &maximal_frequent,
            );
            let identification = match identify_with(&instance, solver) {
                Ok(identification) => identification,
                Err(e) => return (Err(e.to_string()), None),
            };
            let outcome = Outcome::Borders(match identification {
                Identification::Complete => BordersOutcome::Complete,
                Identification::Incomplete(NewBorderElement::MaximalFrequent(s)) => {
                    BordersOutcome::NewMaximalFrequent(indices(&s))
                }
                Identification::Incomplete(NewBorderElement::MinimalInfrequent(s)) => {
                    BordersOutcome::NewMinimalInfrequent(indices(&s))
                }
                Identification::Invalid(
                    qld_datamining::identification::InvalidBorder::NotMaximalFrequent(s),
                ) => BordersOutcome::InvalidMaximalFrequent(indices(&s)),
                Identification::Invalid(
                    qld_datamining::identification::InvalidBorder::NotMinimalInfrequent(s),
                ) => BordersOutcome::InvalidMinimalInfrequent(indices(&s)),
            });
            (Ok(outcome), None)
        }
        Request::MineBorders {
            relation,
            threshold,
            minimal_infrequent,
            maximal_frequent,
        } => mine_borders_streaming(
            relation,
            *threshold,
            minimal_infrequent,
            maximal_frequent,
            solver,
            sink,
        ),
        Request::FindMinimalKeys { instance } => {
            match qld_keys::enumerate_minimal_keys_with(instance, solver) {
                Ok((keys, calls)) => (
                    Ok(Outcome::Keys {
                        keys: edge_lists(&keys),
                        duality_calls: calls,
                    }),
                    None,
                ),
                Err(e) => (Err(e.to_string()), None),
            }
        }
    }
}

/// The full `dualize_and_advance` identification loop, one border element per
/// yield: every [`AdvanceStep::Found`] is forwarded to `sink` before the next
/// identification call, so a client sees each border advancement as it
/// happens and a `cancel` stops the loop within one yield boundary.
fn mine_borders_streaming(
    relation: &qld_datamining::BooleanRelation,
    threshold: usize,
    minimal_infrequent: &Hypergraph,
    maximal_frequent: &Hypergraph,
    solver: &PolicySolver<'_>,
    sink: &mut dyn ResultSink,
) -> (Result<Outcome, String>, Option<StopReason>) {
    let n = relation.num_items();
    let minimal_infrequent = match fit_universe(minimal_infrequent, n, "g") {
        Ok(family) => family,
        Err(e) => return (Err(e), None),
    };
    let maximal_frequent = match fit_universe(maximal_frequent, n, "h") {
        Ok(family) => family,
        Err(e) => return (Err(e), None),
    };
    let mut advance =
        AdvanceLoop::with_seeds(relation, threshold, minimal_infrequent, maximal_frequent);
    let mut items: u64 = 0;
    let full_borders = |advance: &AdvanceLoop<'_>, complete: bool| Outcome::FullBorders {
        maximal_frequent: edge_lists(advance.maximal_frequent()),
        minimal_infrequent: edge_lists(advance.minimal_infrequent()),
        identification_calls: advance.stats().identification_calls as u64,
        complete,
    };
    loop {
        if let SinkDirective::Stop(reason) = sink.check() {
            return (Ok(full_borders(&advance, false)), Some(reason));
        }
        match advance.step(solver) {
            Ok(AdvanceStep::Complete) => return (Ok(full_borders(&advance, true)), None),
            Ok(AdvanceStep::Invalid(bad)) => {
                // Only a *seeded* family can be invalid; report it exactly as
                // the one-shot identification op does.
                let outcome = Outcome::Borders(match bad {
                    qld_datamining::identification::InvalidBorder::NotMaximalFrequent(s) => {
                        BordersOutcome::InvalidMaximalFrequent(indices(&s))
                    }
                    qld_datamining::identification::InvalidBorder::NotMinimalInfrequent(s) => {
                        BordersOutcome::InvalidMinimalInfrequent(indices(&s))
                    }
                });
                return (Ok(outcome), None);
            }
            Ok(AdvanceStep::Found(element)) => {
                let item = match &element {
                    NewBorderElement::MaximalFrequent(s) => StreamItem::BorderElement {
                        maximal: true,
                        itemset: indices(s),
                    },
                    NewBorderElement::MinimalInfrequent(s) => StreamItem::BorderElement {
                        maximal: false,
                        itemset: indices(s),
                    },
                };
                let directive = sink.item(item);
                items += 1;
                if items.is_multiple_of(PROGRESS_EVERY_ITEMS) {
                    sink.progress(StreamProgress {
                        items,
                        duality_calls: solver.info().duality_calls,
                    });
                }
                if let SinkDirective::Stop(reason) = directive {
                    return (Ok(full_borders(&advance, false)), Some(reason));
                }
            }
            Err(e) => return (Err(e.to_string()), None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, SizeThresholdPolicy};
    use qld_hypergraph::transversal::minimal_transversals;
    use qld_hypergraph::{generators, Hypergraph};

    #[test]
    fn enumeration_matches_exact_dualization() {
        let policy = SizeThresholdPolicy::default();
        for li in generators::standard_corpus() {
            if !li.dual {
                continue;
            }
            let solver = PolicySolver::new(&policy);
            let (found, complete) = enumerate_transversals_with(&li.g, None, &solver).unwrap();
            assert!(complete, "{}", li.name);
            assert!(found.same_edge_set(&li.h), "{}", li.name);
            // one call per transversal plus the confirming call
            assert_eq!(solver.info().duality_calls, found.num_edges() as u64 + 1);
        }
    }

    #[test]
    fn enumeration_respects_limit() {
        let li = generators::matching_instance(3);
        let policy = FixedPolicy(SolverKind::QuadChain);
        let solver = PolicySolver::new(&policy);
        let (found, complete) = enumerate_transversals_with(&li.g, Some(3), &solver).unwrap();
        assert!(!complete);
        assert_eq!(found.num_edges(), 3);
        let full = minimal_transversals(&li.g);
        for t in found.edges() {
            assert!(full.contains_edge(t));
        }
        assert_eq!(solver.info().solver, "quadlog-chain");

        // Run to completion: the final confirming call traverses the whole
        // virtual tree and meters its work space.
        let solver = PolicySolver::new(&policy);
        let (all, complete) = enumerate_transversals_with(&li.g, None, &solver).unwrap();
        assert!(complete);
        assert!(all.same_edge_set(&full));
        assert!(solver.info().peak_bits > 0);
    }

    #[test]
    fn enumeration_degenerate_cases() {
        let policy = SizeThresholdPolicy::default();
        // tr(∅) = {∅}
        let solver = PolicySolver::new(&policy);
        let (found, complete) =
            enumerate_transversals_with(&Hypergraph::new(3), None, &solver).unwrap();
        assert!(complete);
        assert_eq!(found.num_edges(), 1);
        assert!(found.edge(0).is_empty());
        // tr({∅}) = ∅
        let true_dnf = Hypergraph::from_edges(3, [qld_hypergraph::VertexSet::empty(3)]);
        let solver = PolicySolver::new(&policy);
        let (found, complete) = enumerate_transversals_with(&true_dnf, None, &solver).unwrap();
        assert!(complete);
        assert!(found.is_empty());
    }

    #[test]
    fn execute_normalizes_non_simple_duality_inputs() {
        // {0} absorbs {0,1}; minimized instance is dual to {{0},{1}}'s dual.
        let g = Hypergraph::from_index_edges(2, &[&[0], &[0, 1]]);
        let h = Hypergraph::from_index_edges(2, &[&[0]]);
        let (outcome, info) = execute(
            &Request::DecideDuality { g, h },
            &SizeThresholdPolicy::default(),
        );
        assert_eq!(
            outcome.unwrap(),
            Outcome::Duality {
                dual: true,
                witness: None
            }
        );
        assert_eq!(info.duality_calls, 1);
    }

    /// A recording sink that can stop the job after a fixed number of items.
    struct RecordingSink {
        items: Vec<StreamItem>,
        progress: Vec<StreamProgress>,
        stop_after: Option<usize>,
    }

    impl RecordingSink {
        fn new(stop_after: Option<usize>) -> Self {
            RecordingSink {
                items: Vec::new(),
                progress: Vec::new(),
                stop_after,
            }
        }
    }

    impl ResultSink for RecordingSink {
        fn item(&mut self, item: StreamItem) -> SinkDirective {
            self.items.push(item);
            match self.stop_after {
                Some(n) if self.items.len() >= n => SinkDirective::Stop(StopReason::Cancelled),
                _ => SinkDirective::Continue,
            }
        }
        fn progress(&mut self, progress: StreamProgress) {
            self.progress.push(progress);
        }
        fn check(&self) -> SinkDirective {
            match self.stop_after {
                Some(n) if self.items.len() >= n => SinkDirective::Stop(StopReason::Cancelled),
                _ => SinkDirective::Continue,
            }
        }
    }

    #[test]
    fn streamed_enumeration_yields_every_transversal_once() {
        let li = generators::matching_instance(5); // 32 minimal transversals
        let mut sink = RecordingSink::new(None);
        let policy = SizeThresholdPolicy::default();
        let execution = execute_streaming(
            &Request::EnumerateTransversals {
                g: li.g.clone(),
                limit: None,
            },
            &policy,
            &mut sink,
        );
        assert!(execution.halt.is_none());
        let Ok(Outcome::Transversals {
            transversals,
            complete,
        }) = execution.outcome
        else {
            panic!("unexpected outcome");
        };
        assert!(complete);
        assert_eq!(transversals.len(), 32);
        assert_eq!(sink.items.len(), 32);
        // Reassembling the chunks gives exactly the one-shot answer.
        let mut streamed: Vec<Vec<usize>> = sink
            .items
            .iter()
            .map(|item| match item {
                StreamItem::Transversal(t) => t.clone(),
                other => panic!("unexpected item {other:?}"),
            })
            .collect();
        streamed.sort();
        let mut oneshot = transversals.clone();
        oneshot.sort();
        assert_eq!(streamed, oneshot);
        // 32 items at a progress cadence of 16 → two checkpoints.
        assert_eq!(sink.progress.len(), 2);
        assert_eq!(sink.progress[0].items, 16);
        assert_eq!(sink.progress[1].items, 32);
        assert!(sink.progress[1].duality_calls >= 32);
    }

    #[test]
    fn halted_enumeration_returns_the_partial_prefix() {
        let li = generators::matching_instance(4); // 16 minimal transversals
        let mut sink = RecordingSink::new(Some(3));
        let execution = execute_streaming(
            &Request::EnumerateTransversals {
                g: li.g.clone(),
                limit: None,
            },
            &SizeThresholdPolicy::default(),
            &mut sink,
        );
        assert_eq!(execution.halt, Some(StopReason::Cancelled));
        let Ok(Outcome::Transversals {
            transversals,
            complete,
        }) = execution.outcome
        else {
            panic!("unexpected outcome");
        };
        assert!(!complete);
        assert_eq!(transversals.len(), 3);
        assert_eq!(sink.items.len(), 3);
    }

    #[test]
    fn pre_start_cancellation_skips_the_solvers() {
        struct AlwaysStopped;
        impl ResultSink for AlwaysStopped {
            fn item(&mut self, _item: StreamItem) -> SinkDirective {
                SinkDirective::Stop(StopReason::Cancelled)
            }
            fn progress(&mut self, _progress: StreamProgress) {}
            fn check(&self) -> SinkDirective {
                SinkDirective::Stop(StopReason::Cancelled)
            }
        }
        let li = generators::matching_instance(2);
        let execution = execute_streaming(
            &Request::DecideDuality { g: li.g, h: li.h },
            &SizeThresholdPolicy::default(),
            &mut AlwaysStopped,
        );
        assert_eq!(execution.halt, Some(StopReason::Cancelled));
        assert!(execution.outcome.is_err());
        assert_eq!(execution.info.duality_calls, 0);
    }

    #[test]
    fn mine_borders_streams_every_advancement() {
        let relation = qld_datamining::generators::random_relation(6, 14, 0.55, 7);
        let z = 3;
        let exact = qld_datamining::borders_exact(&relation, z);
        let mut sink = RecordingSink::new(None);
        let execution = execute_streaming(
            &Request::MineBorders {
                relation: relation.clone(),
                threshold: z,
                minimal_infrequent: Hypergraph::new(6),
                maximal_frequent: Hypergraph::new(6),
            },
            &SizeThresholdPolicy::default(),
            &mut sink,
        );
        assert!(execution.halt.is_none());
        let Ok(Outcome::FullBorders {
            maximal_frequent,
            minimal_infrequent,
            identification_calls,
            complete,
        }) = execution.outcome
        else {
            panic!("unexpected outcome");
        };
        assert!(complete);
        let expected_items =
            exact.maximal_frequent.num_edges() + exact.minimal_infrequent.num_edges();
        assert_eq!(sink.items.len(), expected_items);
        assert_eq!(identification_calls, expected_items as u64 + 1);
        assert_eq!(
            maximal_frequent.len() + minimal_infrequent.len(),
            expected_items
        );
        // Reassembling the border chunks reproduces the exact borders.
        let mut streamed_max = Vec::new();
        let mut streamed_min = Vec::new();
        for item in &sink.items {
            match item {
                StreamItem::BorderElement { maximal, itemset } => {
                    if *maximal {
                        streamed_max.push(itemset.clone());
                    } else {
                        streamed_min.push(itemset.clone());
                    }
                }
                other => panic!("unexpected item {other:?}"),
            }
        }
        streamed_max.sort();
        streamed_min.sort();
        let mut terminal_max = maximal_frequent.clone();
        terminal_max.sort();
        let mut terminal_min = minimal_infrequent.clone();
        terminal_min.sort();
        assert_eq!(streamed_max, terminal_max);
        assert_eq!(streamed_min, terminal_min);
    }

    #[test]
    fn mine_borders_reports_invalid_seeds_like_the_identification_op() {
        let relation = crate::wire::parse_relation("0,1;0,1;1,2").unwrap();
        // {0} is frequent at z=1 (support 2) but not maximal ({0,1} is also
        // frequent); seed it and expect the invalid verdict.
        let bad_seed = Hypergraph::from_index_edges(3, &[&[0]]);
        let mut sink = RecordingSink::new(None);
        let execution = execute_streaming(
            &Request::MineBorders {
                relation,
                threshold: 1,
                minimal_infrequent: Hypergraph::new(3),
                maximal_frequent: bad_seed,
            },
            &SizeThresholdPolicy::default(),
            &mut sink,
        );
        assert!(execution.halt.is_none());
        assert!(matches!(
            execution.outcome,
            Ok(Outcome::Borders(BordersOutcome::InvalidMaximalFrequent(_)))
        ));
        assert!(sink.items.is_empty());
    }
}
