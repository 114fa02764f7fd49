//! Duality solvers.
//!
//! [`DualitySolver`] is the common interface shared by the decomposition-based solvers
//! in this crate and the classical baselines in `qld-fk`.  All solvers follow the same
//! front end ([`preflight`]): validate the instance, resolve degenerate cases, check the
//! logspace-checkable preconditions `G ⊆ tr(H)`, `H ⊆ tr(G)` (returning a witness if
//! they fail), and orient the instance so that the decomposed side is the smaller one.
//!
//! * [`BorosMakinoTreeSolver`] materializes the decomposition tree (Section 2) — the
//!   reference implementation with polynomial working space per node.
//! * [`QuadLogspaceSolver`] is the paper's contribution (Sections 3–4): a depth-first
//!   traversal of the *virtual* tree through the oracle chain, holding only a path
//!   descriptor and `O(log n)`-bit frames (strategy `Recompute`) or one `S` set per
//!   level (strategy `MaterializeChain`); it also reports peak metered work space.

use crate::error::DualError;
use crate::instance::DualInstance;
use crate::oracle::{
    child_count, child_count_given, classify, materialize_child, materialize_witness, ChildOracle,
    MaterializedOracle, NodeClass, RootOracle, SAlphaOracle,
};
use crate::pathnode::SpaceStrategy;
use crate::result::{DualityResult, NonDualWitness};
use crate::stats::SpaceReport;
use crate::tree::{build_tree, BuildOptions};
use qld_hypergraph::{Hypergraph, VertexSet};
use qld_logspace::SpaceMeter;

/// A decision procedure for the `DUAL` problem.
pub trait DualitySolver {
    /// A short name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Decides whether `g` and `h` are dual; on a negative answer the result carries a
    /// checkable witness.
    fn decide(&self, g: &Hypergraph, h: &Hypergraph) -> Result<DualityResult, DualError>;

    /// Convenience wrapper returning only the Boolean answer.
    fn is_dual(&self, g: &Hypergraph, h: &Hypergraph) -> Result<bool, DualError> {
        Ok(self.decide(g, h)?.is_dual())
    }
}

/// The outcome of the shared instance front end.
pub enum Preflight {
    /// The answer is already known (degenerate instance or precondition violation).
    Decided(DualityResult),
    /// The instance is ready for the decomposition; `swapped` records whether the roles
    /// of `G` and `H` were exchanged to ensure `|H| ≤ |G|`.
    Ready {
        /// The oriented instance.
        oriented: DualInstance,
        /// Whether witnesses must be swapped back.
        swapped: bool,
    },
}

/// Validates, resolves degenerate cases, checks preconditions, and orients the
/// instance.
pub fn preflight(g: &Hypergraph, h: &Hypergraph) -> Result<Preflight, DualError> {
    let inst = DualInstance::new(g.clone(), h.clone())?;
    if let Some(answer) = inst.degenerate_answer() {
        return Ok(Preflight::Decided(answer));
    }
    if let Err(witness) = inst.check_preconditions() {
        return Ok(Preflight::Decided(DualityResult::NotDual(witness)));
    }
    let (oriented, swapped) = inst.oriented();
    Ok(Preflight::Ready { oriented, swapped })
}

fn map_back(witness: NonDualWitness, swapped: bool) -> NonDualWitness {
    if swapped {
        witness.swap_sides()
    } else {
        witness
    }
}

/// Reference solver: builds the explicit decomposition tree and inspects the leaf marks
/// (Proposition 2.1(1)).
#[derive(Debug, Clone, Default)]
pub struct BorosMakinoTreeSolver {
    /// Tree construction limits.
    pub options: BuildOptions,
}

impl BorosMakinoTreeSolver {
    /// Creates the solver with default limits.
    pub fn new() -> Self {
        BorosMakinoTreeSolver {
            options: BuildOptions {
                stop_at_first_fail: true,
                ..BuildOptions::default()
            },
        }
    }
}

impl DualitySolver for BorosMakinoTreeSolver {
    fn name(&self) -> &'static str {
        "bm-tree"
    }

    fn decide(&self, g: &Hypergraph, h: &Hypergraph) -> Result<DualityResult, DualError> {
        match preflight(g, h)? {
            Preflight::Decided(answer) => Ok(answer),
            Preflight::Ready { oriented, swapped } => {
                let mut options = self.options.clone();
                options.stop_at_first_fail = true;
                let tree = build_tree(&oriented, &options)?;
                match tree.first_fail_witness() {
                    Some(t) => Ok(DualityResult::NotDual(map_back(
                        NonDualWitness::NewTransversalOfG(t.clone()),
                        swapped,
                    ))),
                    None => Ok(DualityResult::Dual),
                }
            }
        }
    }
}

/// The paper's solver: a DFS over the virtual decomposition tree through the oracle
/// chain, with metered work space.
#[derive(Debug, Clone, Default)]
pub struct QuadLogspaceSolver {
    /// The space/time trade-off used for node attribute recomputation.
    pub strategy: SpaceStrategy,
}

impl QuadLogspaceSolver {
    /// Creates a solver with the given strategy.
    pub fn new(strategy: SpaceStrategy) -> Self {
        QuadLogspaceSolver { strategy }
    }

    /// Decides duality and additionally reports peak metered work-tape usage.
    pub fn decide_with_space(
        &self,
        g: &Hypergraph,
        h: &Hypergraph,
    ) -> Result<(DualityResult, SpaceReport), DualError> {
        let input_bits =
            (g.num_edges() + h.num_edges()) * g.num_vertices().max(h.num_vertices()).max(1);
        match preflight(g, h)? {
            Preflight::Decided(answer) => {
                Ok((answer, SpaceReport::new(self.strategy, 0, input_bits)))
            }
            Preflight::Ready { oriented, swapped } => {
                let meter = SpaceMeter::new();
                let witness = match self.strategy {
                    SpaceStrategy::Recompute => {
                        let root = RootOracle::new(&oriented);
                        dfs_recompute(&oriented, &root, &meter)
                    }
                    SpaceStrategy::MaterializeChain => {
                        let full = VertexSet::full(oriented.num_vertices());
                        let root = MaterializedOracle::new(full, &meter);
                        dfs_materialized(&oriented, &root, &meter)
                    }
                };
                let report = SpaceReport::new(self.strategy, meter.peak_bits(), input_bits);
                let result = match witness {
                    Some(t) => DualityResult::NotDual(map_back(
                        NonDualWitness::NewTransversalOfG(t),
                        swapped,
                    )),
                    None => DualityResult::Dual,
                };
                Ok((result, report))
            }
        }
    }
}

impl DualitySolver for QuadLogspaceSolver {
    fn name(&self) -> &'static str {
        match self.strategy {
            SpaceStrategy::Recompute => "quadlog-recompute",
            SpaceStrategy::MaterializeChain => "quadlog-chain",
        }
    }

    fn decide(&self, g: &Hypergraph, h: &Hypergraph) -> Result<DualityResult, DualError> {
        Ok(self.decide_with_space(g, h)?.0)
    }
}

/// DFS in the recompute strategy: the current node is represented purely by the chain
/// of `ChildOracle`s on the call stack.
fn dfs_recompute(
    inst: &DualInstance,
    s: &dyn SAlphaOracle,
    meter: &SpaceMeter,
) -> Option<VertexSet> {
    let class = classify(inst, s, meter);
    match class {
        NodeClass::Done => None,
        NodeClass::Fail(rule) => Some(materialize_witness(inst, s, rule, meter)),
        NodeClass::Branch(_) => {
            let count = child_count_given(inst, s, class, meter);
            let mut index = qld_logspace::LogRegister::new(meter, count.max(1));
            while index.get() < count {
                index.increment();
                let child = ChildOracle::with_class(inst, s, class, index.get(), meter);
                if let Some(w) = dfs_recompute(inst, &child, meter) {
                    return Some(w);
                }
            }
            None
        }
    }
}

/// DFS in the materializing strategy: one metered `S` set per level of the current
/// path.
fn dfs_materialized(
    inst: &DualInstance,
    s: &MaterializedOracle,
    meter: &SpaceMeter,
) -> Option<VertexSet> {
    match classify(inst, s, meter) {
        NodeClass::Done => None,
        NodeClass::Fail(rule) => Some(materialize_witness(inst, s, rule, meter)),
        NodeClass::Branch(_) => {
            let count = child_count(inst, s, meter);
            for index in 1..=count {
                let child_set = materialize_child(inst, s, index, meter)
                    .expect("child index within child_count");
                let child = MaterializedOracle::new(child_set, meter);
                if let Some(w) = dfs_materialized(inst, &child, meter) {
                    return Some(w);
                }
            }
            None
        }
    }
}

/// Decides duality with the default (practical) configuration of the paper's solver.
pub fn is_dual(g: &Hypergraph, h: &Hypergraph) -> Result<bool, DualError> {
    QuadLogspaceSolver::default().is_dual(g, h)
}

/// Decides duality and returns the full result (with witness) using the default solver.
pub fn decide_duality(g: &Hypergraph, h: &Hypergraph) -> Result<DualityResult, DualError> {
    QuadLogspaceSolver::default().decide(g, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::verify_witness;
    use qld_hypergraph::generators;
    use qld_hypergraph::transversal::are_dual_exact;

    fn solvers() -> Vec<Box<dyn DualitySolver>> {
        vec![
            Box::new(BorosMakinoTreeSolver::new()),
            Box::new(QuadLogspaceSolver::new(SpaceStrategy::MaterializeChain)),
        ]
    }

    #[test]
    fn solvers_agree_with_ground_truth_on_standard_corpus() {
        for li in generators::standard_corpus() {
            let expected = li.dual;
            for solver in solvers() {
                let result = solver.decide(&li.g, &li.h).unwrap();
                assert_eq!(
                    result.is_dual(),
                    expected,
                    "{} disagrees on {}",
                    solver.name(),
                    li.name
                );
                if let DualityResult::NotDual(w) = &result {
                    assert!(
                        verify_witness(&li.g, &li.h, w),
                        "{} produced invalid witness on {}: {w}",
                        solver.name(),
                        li.name
                    );
                }
            }
        }
    }

    #[test]
    fn recompute_strategy_agrees_on_small_instances() {
        let solver = QuadLogspaceSolver::new(SpaceStrategy::Recompute);
        for li in [
            generators::matching_instance(1),
            generators::matching_instance(2),
            generators::matching_instance(3),
            generators::threshold_instance(4, 2),
            generators::self_dual_instance(1),
        ] {
            let expected = are_dual_exact(&li.h, &li.g);
            assert_eq!(
                solver.is_dual(&li.g, &li.h).unwrap(),
                expected,
                "{}",
                li.name
            );
        }
        // and on a perturbed (non-dual) one, with a checkable witness
        let li = generators::matching_instance(2);
        let broken = generators::perturb(&li, generators::Perturbation::DropDualEdge, 1).unwrap();
        let result = solver.decide(&broken.g, &broken.h).unwrap();
        assert!(!result.is_dual());
        assert!(verify_witness(
            &broken.g,
            &broken.h,
            result.witness().unwrap()
        ));
    }

    #[test]
    fn degenerate_and_precondition_cases_short_circuit() {
        use qld_hypergraph::Hypergraph;
        let empty = Hypergraph::new(3);
        let true_dnf = Hypergraph::from_edges(3, [qld_hypergraph::VertexSet::empty(3)]);
        for solver in solvers() {
            assert!(solver.is_dual(&empty, &true_dnf).unwrap());
            assert!(solver.is_dual(&true_dnf, &empty).unwrap());
            assert!(!solver.is_dual(&empty, &empty).unwrap());
            // precondition violation: disjoint edges
            let a = Hypergraph::from_index_edges(4, &[&[0, 1]]);
            let b = Hypergraph::from_index_edges(4, &[&[2, 3]]);
            let r = solver.decide(&a, &b).unwrap();
            assert!(!r.is_dual());
            assert!(verify_witness(&a, &b, r.witness().unwrap()));
        }
    }

    #[test]
    fn non_simple_inputs_are_rejected() {
        let g = qld_hypergraph::Hypergraph::from_index_edges(3, &[&[0], &[0, 1]]);
        let h = qld_hypergraph::Hypergraph::from_index_edges(3, &[&[0]]);
        for solver in solvers() {
            assert!(matches!(
                solver.decide(&g, &h),
                Err(DualError::NotSimple { .. })
            ));
        }
    }

    #[test]
    fn space_report_is_produced_and_meter_released() {
        let li = generators::matching_instance(3);
        let solver = QuadLogspaceSolver::new(SpaceStrategy::MaterializeChain);
        let (result, report) = solver.decide_with_space(&li.g, &li.h).unwrap();
        assert!(result.is_dual());
        assert!(report.peak_bits > 0);
        assert!(report.input_bits > 0);
        assert!(report.ratio_to_log2_squared() > 0.0);
    }

    #[test]
    fn both_strategies_report_space_and_agree() {
        let li = generators::matching_instance(3);
        let rec = QuadLogspaceSolver::new(SpaceStrategy::Recompute);
        let mat = QuadLogspaceSolver::new(SpaceStrategy::MaterializeChain);
        let (rec_result, rec_report) = rec.decide_with_space(&li.g, &li.h).unwrap();
        let (mat_result, mat_report) = mat.decide_with_space(&li.g, &li.h).unwrap();
        assert_eq!(rec_result, mat_result);
        assert!(rec_report.peak_bits > 0);
        assert!(mat_report.peak_bits > 0);
        // The materializing chain pays at least one full |V|-bit set for the root level.
        assert!(mat_report.peak_bits >= li.g.num_vertices() as u64);
    }

    #[test]
    fn convenience_functions() {
        let li = generators::matching_instance(2);
        assert!(is_dual(&li.g, &li.h).unwrap());
        assert!(decide_duality(&li.g, &li.h).unwrap().is_dual());
        assert_eq!(QuadLogspaceSolver::default().name(), "quadlog-chain");
        assert_eq!(
            QuadLogspaceSolver::new(SpaceStrategy::Recompute).name(),
            "quadlog-recompute"
        );
        assert_eq!(BorosMakinoTreeSolver::new().name(), "bm-tree");
    }
}
