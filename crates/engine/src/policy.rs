//! Pluggable solver routing.
//!
//! Every duality decision the engine makes — directly for `check`, or inside
//! the enumeration loops of `enumerate`, `mine`, and `keys` — goes through a
//! [`SolverPolicy`], which picks a concrete solver per instance.  The default
//! [`SizeThresholdPolicy`] routes small instances to the materializing
//! Boros–Makino tree solver (fast, polynomial working space) and large ones to
//! the paper's quadratic-logspace solver (bounded working space).

use crate::request::Request;
use qld_hypergraph::Hypergraph;

/// The concrete solvers the engine can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// [`qld_core::BorosMakinoTreeSolver`]: explicit decomposition tree.
    BmTree,
    /// [`qld_core::QuadLogspaceSolver`] with the materialize-per-level strategy.
    QuadChain,
    /// [`qld_core::QuadLogspaceSolver`] with the faithful recompute strategy.
    QuadRecompute,
}

impl SolverKind {
    /// The solver's experiment-table name.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::BmTree => "bm-tree",
            SolverKind::QuadChain => "quadlog-chain",
            SolverKind::QuadRecompute => "quadlog-recompute",
        }
    }

    /// Parses a CLI/wire solver name.
    pub fn from_name(name: &str) -> Option<SolverKind> {
        match name {
            "bm" | "bm-tree" | "tree" => Some(SolverKind::BmTree),
            "quadlog" | "quadlog-chain" | "chain" => Some(SolverKind::QuadChain),
            "quadlog-recompute" | "recompute" => Some(SolverKind::QuadRecompute),
            _ => None,
        }
    }
}

/// Chooses a solver for each `DUAL` instance.
pub trait SolverPolicy: Send + Sync {
    /// Picks the solver for deciding duality of `(g, h)`.
    fn choose(&self, g: &Hypergraph, h: &Hypergraph) -> SolverKind;

    /// A short name for logs and stats.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Routes by instance volume: small instances to the tree solver, large ones
/// to the quadratic-logspace solver.
#[derive(Debug, Clone)]
pub struct SizeThresholdPolicy {
    /// Instances with `g.volume() + h.volume()` at most this go to the tree
    /// solver; larger ones to the quadratic-logspace solver.
    pub volume_threshold: usize,
}

impl Default for SizeThresholdPolicy {
    fn default() -> Self {
        // The threshold is unmeasured: no run has timed the tree against the
        // quadratic-logspace DFS around this volume, and the tree is not the
        // fastest solver on E4 (Berge beats it on every dual row).  The
        // intent is that the DFS takes over where materializing the tree
        // starts to hurt.
        SizeThresholdPolicy {
            volume_threshold: 96,
        }
    }
}

impl SolverPolicy for SizeThresholdPolicy {
    fn choose(&self, g: &Hypergraph, h: &Hypergraph) -> SolverKind {
        if g.volume() + h.volume() <= self.volume_threshold {
            SolverKind::BmTree
        } else {
            SolverKind::QuadChain
        }
    }

    fn name(&self) -> &'static str {
        "size-threshold"
    }
}

/// Always uses one fixed solver.
#[derive(Debug, Clone, Copy)]
pub struct FixedPolicy(pub SolverKind);

impl SolverPolicy for FixedPolicy {
    fn choose(&self, _g: &Hypergraph, _h: &Hypergraph) -> SolverKind {
        self.0
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_hypergraph::Hypergraph;

    #[test]
    fn size_threshold_routes_by_volume() {
        let policy = SizeThresholdPolicy {
            volume_threshold: 4,
        };
        let small = Hypergraph::from_index_edges(4, &[&[0, 1]]);
        let big = Hypergraph::from_index_edges(4, &[&[0, 1], &[2, 3], &[0, 3]]);
        assert_eq!(policy.choose(&small, &small), SolverKind::BmTree);
        assert_eq!(policy.choose(&big, &big), SolverKind::QuadChain);
    }

    #[test]
    fn solver_names_round_trip() {
        for kind in [
            SolverKind::BmTree,
            SolverKind::QuadChain,
            SolverKind::QuadRecompute,
        ] {
            assert_eq!(SolverKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SolverKind::from_name("nope"), None);
    }
}

/// Where one request executes.
///
/// The pool is the default: every request becomes a job on the persistent
/// worker pool — cache consulted, cancellable, counted in-flight.  The
/// *local* route answers a request synchronously on the thread that submitted
/// it: no queue round-trip, no worker handoff, and **no cache participation**
/// (the cache key — a hex render of every edge word — is never built, which
/// is most of the fixed overhead on instances too small to ever repeat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecRoute {
    /// Inline on the submitting session's thread.
    Local,
    /// The persistent worker pool.
    Pool,
}

/// Routing decision for one request.
///
/// `Local` iff in-process execution is enabled (`local_threshold > 0`, see
/// `EngineConfig::local_threshold`), the request is one-shot (streamed
/// requests need chunk frames, which only pool jobs emit), and its
/// [`Request::local_work`] estimate is below the threshold.  Everything else
/// — all mining/enumeration kinds included — routes to the pool.
pub fn exec_route(request: &Request, stream: bool, local_threshold: usize) -> ExecRoute {
    if local_threshold == 0 || stream {
        return ExecRoute::Pool;
    }
    match request.local_work() {
        Some(work) if work < local_threshold => ExecRoute::Local,
        _ => ExecRoute::Pool,
    }
}
