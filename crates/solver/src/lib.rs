//! `qld-solver` — the embeddable facade over the pure solver core.
//!
//! Everything algorithmic in the workspace — vertex sets, hypergraphs, the
//! quadratic-logspace duality solvers of Gottlob (PODS'13), the classical
//! baselines, and the three application reductions (itemset borders, minimal
//! keys, coterie domination) — lives in seven `no_std`-compatible crates.
//! This crate re-exports that surface as a single dependency with **zero
//! serving dependencies**: no sockets, no threads, no cache, no protocol.
//!
//! Embedders depend on `qld-solver` alone:
//!
//! ```
//! use qld_solver::{DualitySolver, QuadLogspaceSolver, SpaceStrategy, vset};
//!
//! let g = qld_solver::Hypergraph::from_edges(3, [vset![3; 0, 1], vset![3; 2]]);
//! let h = qld_solver::Hypergraph::from_edges(3, [vset![3; 0, 2], vset![3; 1, 2]]);
//! let solver = QuadLogspaceSolver::new(SpaceStrategy::MaterializeChain);
//! assert!(solver.decide(&g, &h).unwrap().is_dual());
//! ```
//!
//! Feature model: the crate forwards one feature, `std` (default-on), to every
//! underlying crate.  With `--no-default-features` the whole stack is
//! `no_std` + `alloc` — suitable for `wasm32-unknown-unknown` or embedding in
//! other runtimes — and the solver answers are byte-identical to the `std`
//! build (the decision procedures are feature-free).

#![cfg_attr(all(not(feature = "std"), not(test)), no_std)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Full sub-crate surfaces, namespaced.  `pub use ... as ...` (not `extern
// crate`) so rustdoc lists them as ordinary re-exports.
pub use qld_core as core;
pub use qld_coteries as coteries;
pub use qld_datamining as datamining;
pub use qld_fk as fk;
pub use qld_hypergraph as hypergraph;
pub use qld_keys as keys;
pub use qld_logspace as logspace;

// The curated top level: the types an embedder reaches for first.
pub use qld_hypergraph::{
    vset, Hypergraph, HypergraphError, HypergraphIndex, MonotoneDnf, ProbeClass, Vertex, VertexSet,
    INLINE_BITS,
};

pub use qld_core::{
    decide_duality, is_dual, pathnode, verify_witness, BorosMakinoTreeSolver, DualError,
    DualInstance, DualityResult, DualitySolver, NonDualWitness, PathnodeOutcome,
    QuadLogspaceSolver, Side, SpaceReport, SpaceStrategy,
};

pub use qld_fk::{AssignmentBruteSolver, BergeSolver, FkASolver};

pub use qld_logspace::SpaceMeter;

pub use qld_coteries::{check_domination, Coterie, Domination};

pub use qld_datamining::{borders_exact, AdvanceLoop, Borders};

pub use qld_keys::RelationInstance;
