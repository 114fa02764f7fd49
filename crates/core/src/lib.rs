//! # qld-core
//!
//! Rust implementation of the algorithms and bounds of Georg Gottlob,
//! *Deciding Monotone Duality and Identifying Frequent Itemsets in Quadratic Logspace*
//! (PODS 2013).
//!
//! The `DUAL` problem asks whether two irredundant monotone DNFs — equivalently, two
//! simple hypergraphs `G` and `H` — are dual, i.e. whether `H` consists exactly of the
//! minimal transversals of `G`.  This crate provides:
//!
//! * [`DualInstance`] — validated instances, degenerate-case handling, and the
//!   logspace-checkable preconditions `G ⊆ tr(H)`, `H ⊆ tr(G)`;
//! * [`expand`](crate::expand::expand) and [`tree`] — the Boros–Makino decomposition
//!   step (`marksmall` / `process`) and the explicit decomposition tree `T(G, H)` of
//!   Section 2 (Proposition 2.1);
//! * [`path`], [`oracle`], [`mod@pathnode`], [`decompose`] — path descriptors, the oracle
//!   chain realizing `next` (Lemma 4.1) and `pathnode` (Lemma 4.2), and the
//!   `decompose` enumeration of Theorem 4.1, all charged against a
//!   [`qld_logspace::SpaceMeter`] so the `O(log² n)` work-space claim can be measured;
//! * [`solver`] — [`BorosMakinoTreeSolver`] (reference) and [`QuadLogspaceSolver`] (the
//!   paper's algorithm, with a faithful recompute strategy and a practical
//!   materialize-per-level strategy), both returning checkable non-duality witnesses
//!   (Corollary 4.1);
//! * [`guess_check`] — the `GC(log² n, [[LOGSPACE_pol]]^log)` certificates of Section 5
//!   (Theorem 5.1) and their Lemma 5.1 verifier;
//! * [`witness`] — post-processing a new transversal into a new *minimal* transversal.
//!
//! # Quick start
//!
//! ```
//! use qld_core::prelude::*;
//! use qld_hypergraph::Hypergraph;
//!
//! // G = {{0,1},{2,3}} and its minimal transversals.
//! let g = Hypergraph::from_index_edges(4, &[&[0, 1], &[2, 3]]);
//! let h = Hypergraph::from_index_edges(4, &[&[0, 2], &[0, 3], &[1, 2], &[1, 3]]);
//! assert!(qld_core::is_dual(&g, &h).unwrap());
//!
//! // Remove a transversal: no longer dual, and the solver names a missing one.
//! let mut broken = h.clone();
//! broken.remove_edge(0);
//! let result = qld_core::decide_duality(&g, &broken).unwrap();
//! assert!(!result.is_dual());
//! let witness = result.witness().unwrap();
//! assert!(qld_core::verify_witness(&g, &broken, witness));
//! ```

#![cfg_attr(all(not(feature = "std"), not(test)), no_std)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

extern crate alloc;

pub mod decompose;
pub mod error;
pub mod expand;
pub mod guess_check;
pub mod instance;
pub mod node;
pub mod oracle;
pub mod path;
pub mod pathnode;
pub mod result;
pub mod solver;
pub mod stats;
pub mod tree;
pub mod witness;

pub use error::{DualError, Side};
pub use instance::DualInstance;
pub use node::{Mark, NodeAttr};
pub use path::PathDescriptor;
pub use pathnode::{pathnode, PathnodeOutcome, SpaceStrategy};
pub use result::{verify_witness, DualityResult, NonDualWitness};
pub use solver::{
    decide_duality, is_dual, BorosMakinoTreeSolver, DualitySolver, QuadLogspaceSolver,
};
pub use stats::SpaceReport;

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::guess_check::{find_certificate, verify_certificate, Certificate};
    pub use crate::result::verify_witness;
    pub use crate::solver::{
        decide_duality, is_dual, BorosMakinoTreeSolver, DualitySolver, QuadLogspaceSolver,
    };
    pub use crate::{
        DualError, DualInstance, DualityResult, Mark, NodeAttr, NonDualWitness, PathDescriptor,
        SpaceReport, SpaceStrategy,
    };
}
