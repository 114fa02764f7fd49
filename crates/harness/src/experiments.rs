//! The experiment suite: tables E2–E9 and E12 (see [`EXPERIMENTS`]).
//!
//! Each function reproduces one of the paper claims listed in `DESIGN.md` /
//! `EXPERIMENTS.md` and returns a [`Table`]; the `experiments` binary prints them, and
//! the Criterion benches in `qld-bench` time the same workloads.  The serving layers
//! (engine, transport, streaming, fleet) are measured end to end by `perfbench/`.

use crate::table::{f2, mark, micros, Table};
use crate::workloads;
use qld_core::guess_check::{find_certificate, verify_certificate, CertificateCheck};
use qld_core::instance::DualInstance;
use qld_core::path::{max_branching, max_descriptor_length};
use qld_core::tree::{build_tree, BuildOptions};
use qld_core::witness::missing_dual_edge;
use qld_core::{
    BorosMakinoTreeSolver, DualityResult, DualitySolver, QuadLogspaceSolver, SpaceStrategy,
};
use qld_fk::{AssignmentBruteSolver, BergeSolver, FkASolver};
use qld_logspace::SpaceMeter;
use std::time::Instant;

/// An experiment: its id and the function that builds its table.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment, in presentation order.  [`run`], [`run_all`] and the
/// `experiments` binary all read this list.
pub const EXPERIMENTS: &[Experiment] = &[
    ("e2", e2_tree_shape),
    ("e3", e3_space_scaling),
    ("e4", e4_solver_comparison),
    ("e5", e5_witnesses),
    ("e6", e6_guess_check),
    ("e7", e7_itemset_identification),
    ("e8", e8_additional_keys),
    ("e9", e9_coteries),
    ("e12", e12_hotpath),
];

/// Runs one experiment by identifier (`None` for an id not in [`EXPERIMENTS`]).
pub fn run(id: &str) -> Option<Table> {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, build)| build())
}

/// Runs every experiment.
pub fn run_all() -> Vec<Table> {
    EXPERIMENTS.iter().map(|(_, build)| build()).collect()
}

/// E2 — Proposition 2.1(2,3): decomposition-tree depth is at most `⌊log₂|H|⌋` and
/// branching at most `|V|·|G|`.
pub fn e2_tree_shape() -> Table {
    let mut table = Table::new(
        "E2",
        "Decomposition-tree shape vs. the bounds of Proposition 2.1",
        &[
            "instance",
            "|V|",
            "|G|",
            "|H|",
            "nodes",
            "leaves",
            "depth",
            "floor(log2|H|)",
            "max-branch",
            "|V|*|G|",
            "bounds-ok",
        ],
    );
    for li in workloads::dual_instances() {
        let inst = DualInstance::new(li.g.clone(), li.h.clone()).unwrap();
        let (oriented, _) = inst.oriented();
        let tree = build_tree(&oriented, &BuildOptions::default()).unwrap();
        let stats = tree.stats();
        let depth_bound = max_descriptor_length(oriented.h().num_edges());
        let branch_bound = oriented.num_vertices() * oriented.g().num_edges();
        let ok = stats.depth <= depth_bound && stats.max_branching <= branch_bound + 1;
        table.push_row(vec![
            li.name.clone(),
            oriented.num_vertices().to_string(),
            oriented.g().num_edges().to_string(),
            oriented.h().num_edges().to_string(),
            stats.nodes.to_string(),
            stats.leaves.to_string(),
            stats.depth.to_string(),
            depth_bound.to_string(),
            stats.max_branching.to_string(),
            branch_bound.to_string(),
            mark(ok),
        ]);
    }
    table
}

/// E3 — Theorem 4.1: the decomposition can be driven with `O(log² n)` metered work
/// space; comparison of the faithful recompute strategy, the per-level materializing
/// strategy, and the explicit tree.
pub fn e3_space_scaling() -> Table {
    let mut table = Table::new(
        "E3",
        "Peak metered work space vs. c·log²(n) (Theorem 4.1)",
        &[
            "instance",
            "input-bits n",
            "log2^2(n)",
            "recompute-bits",
            "recompute/log2^2",
            "chain-bits",
            "chain/log2^2",
            "tree-bits",
            "tree/log2^2",
        ],
    );
    for (li, measure_recompute) in workloads::space_scaling_instances() {
        let input_bits = li.encoding_bits();
        let log2 = (input_bits.max(2) as f64).log2();
        let log2sq = log2 * log2;

        let chain = QuadLogspaceSolver::new(SpaceStrategy::MaterializeChain);
        let (_, chain_report) = chain.decide_with_space(&li.g, &li.h).unwrap();

        let (rec_bits, rec_ratio) = if measure_recompute {
            let rec = QuadLogspaceSolver::new(SpaceStrategy::Recompute);
            let (_, report) = rec.decide_with_space(&li.g, &li.h).unwrap();
            (
                report.peak_bits.to_string(),
                f2(report.peak_bits as f64 / log2sq),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };

        let inst = DualInstance::new(li.g.clone(), li.h.clone()).unwrap();
        let (oriented, _) = inst.oriented();
        let tree = build_tree(&oriented, &BuildOptions::default()).unwrap();
        let tree_bits = tree.resident_bits(
            oriented.num_vertices(),
            max_branching(oriented.num_vertices(), oriented.g().num_edges()),
        );

        table.push_row(vec![
            li.name.clone(),
            input_bits.to_string(),
            f2(log2sq),
            rec_bits,
            rec_ratio,
            chain_report.peak_bits.to_string(),
            f2(chain_report.peak_bits as f64 / log2sq),
            tree_bits.to_string(),
            f2(tree_bits as f64 / log2sq),
        ]);
    }
    table
}

/// E4 — solver comparison on dual and non-dual instances: the decomposition solvers
/// versus the classical baselines (who wins, and that everyone agrees).
pub fn e4_solver_comparison() -> Table {
    let mut table = Table::new(
        "E4",
        "Solver comparison (all verdicts agree; times in microseconds)",
        &[
            "instance",
            "dual?",
            "berge-us",
            "fk-a-us",
            "bm-tree-us",
            "quadlog-us",
            "agree",
        ],
    );
    let berge = BergeSolver::new();
    let fka = FkASolver::new();
    let bm = BorosMakinoTreeSolver::new();
    let quadlog = QuadLogspaceSolver::default();
    let mut instances = workloads::dual_instances();
    instances.extend(workloads::non_dual_instances());
    for li in instances {
        let mut verdicts = Vec::new();
        let mut times = Vec::new();
        for solver in [
            &berge as &dyn DualitySolver,
            &fka as &dyn DualitySolver,
            &bm as &dyn DualitySolver,
            &quadlog as &dyn DualitySolver,
        ] {
            let start = Instant::now();
            let verdict = solver.decide(&li.g, &li.h).unwrap();
            times.push(start.elapsed());
            verdicts.push(verdict.is_dual());
        }
        let agree = verdicts.iter().all(|&v| v == li.dual);
        table.push_row(vec![
            li.name.clone(),
            mark(li.dual),
            micros(times[0]),
            micros(times[1]),
            micros(times[2]),
            micros(times[3]),
            mark(agree),
        ]);
    }
    table
}

/// E5 — Corollary 4.1(2): on non-dual instances the solver produces a new transversal,
/// which verifies and minimizes to a missing dual edge.
pub fn e5_witnesses() -> Table {
    let mut table = Table::new(
        "E5",
        "New-transversal witnesses on non-dual instances (Corollary 4.1)",
        &[
            "instance",
            "witness-kind",
            "witness-size",
            "verifies",
            "minimal-missing-edge",
            "time-us",
        ],
    );
    let solver = QuadLogspaceSolver::default();
    for li in workloads::non_dual_instances() {
        let start = Instant::now();
        let result = solver.decide(&li.g, &li.h).unwrap();
        let elapsed = start.elapsed();
        match result {
            DualityResult::Dual => {
                table.push_row(vec![
                    li.name.clone(),
                    "(decided dual!)".into(),
                    "-".into(),
                    mark(false),
                    "-".into(),
                    micros(elapsed),
                ]);
            }
            DualityResult::NotDual(witness) => {
                let verifies = qld_core::verify_witness(&li.g, &li.h, &witness);
                let kind = match &witness {
                    qld_core::NonDualWitness::DisjointEdges { .. } => "disjoint-edges",
                    qld_core::NonDualWitness::NewTransversalOfG(_) => "new-transversal(G)",
                    qld_core::NonDualWitness::NewTransversalOfH(_) => "new-transversal(H)",
                };
                let size = witness
                    .transversal()
                    .map(|t| t.len().to_string())
                    .unwrap_or_else(|| "-".into());
                let minimal = missing_dual_edge(&li.g, &li.h, &witness)
                    .map(|m| format!("{m}"))
                    .unwrap_or_else(|| "-".into());
                table.push_row(vec![
                    li.name.clone(),
                    kind.into(),
                    size,
                    mark(verifies),
                    minimal,
                    micros(elapsed),
                ]);
            }
        }
    }
    table
}

/// E6 — Theorem 5.1: non-duality certificates of `O(log² n)` bits, verified by the
/// Lemma 5.1 checker.
pub fn e6_guess_check() -> Table {
    let mut table = Table::new(
        "E6",
        "Guess-and-check certificates (Theorem 5.1)",
        &[
            "instance",
            "input-bits n",
            "cert-bits",
            "4*log2^2(n)",
            "within-budget",
            "verifies",
            "verify-peak-bits",
        ],
    );
    for li in workloads::non_dual_instances() {
        let meter = SpaceMeter::new();
        let cert = match find_certificate(&li.g, &li.h, &meter).unwrap() {
            Some(c) => c,
            None => continue,
        };
        let input_bits = li.encoding_bits();
        let log2 = (input_bits.max(2) as f64).log2();
        let budget = 4.0 * log2 * log2;
        let bits = cert.bits(
            li.g.num_vertices().max(li.h.num_vertices()),
            li.g.num_edges().max(li.h.num_edges()),
        );
        let verify_meter = SpaceMeter::new();
        let check = verify_certificate(
            &li.g,
            &li.h,
            &cert,
            SpaceStrategy::MaterializeChain,
            &verify_meter,
        )
        .unwrap();
        table.push_row(vec![
            li.name.clone(),
            input_bits.to_string(),
            bits.to_string(),
            f2(budget),
            mark((bits as f64) <= budget),
            mark(check == CertificateCheck::RefutesDuality),
            verify_meter.peak_bits().to_string(),
        ]);
    }
    table
}

/// E7 — Proposition 1.1: MaxFreq-MinInfreq identification and border computation by
/// repeated dualization, cross-checked against level-wise mining.
pub fn e7_itemset_identification() -> Table {
    let mut table = Table::new(
        "E7",
        "Frequent-itemset borders via duality (Proposition 1.1)",
        &[
            "relation",
            "items",
            "rows",
            "z",
            "|IS+|",
            "|IS-|",
            "dual-calls",
            "matches-apriori",
            "matches-exhaustive",
            "time-us",
        ],
    );
    for (name, relation, z) in workloads::datamining_workloads() {
        let start = Instant::now();
        let result = qld_datamining::dualize_and_advance(&relation, z).unwrap();
        let elapsed = start.elapsed();
        let apriori = qld_datamining::apriori(&relation, z);
        let exact = qld_datamining::borders_exact(&relation, z);
        let matches_apriori = result
            .maximal_frequent
            .same_edge_set(&apriori.maximal_frequent(relation.num_items()));
        let matches_exact = result
            .maximal_frequent
            .same_edge_set(&exact.maximal_frequent)
            && result
                .minimal_infrequent
                .same_edge_set(&exact.minimal_infrequent);
        table.push_row(vec![
            name,
            relation.num_items().to_string(),
            relation.num_rows().to_string(),
            z.to_string(),
            result.maximal_frequent.num_edges().to_string(),
            result.minimal_infrequent.num_edges().to_string(),
            result.stats.identification_calls.to_string(),
            mark(matches_apriori),
            mark(matches_exact),
            micros(elapsed),
        ]);
    }
    table
}

/// E8 — Proposition 1.2: the additional-key problem and minimal-key enumeration via
/// duality, cross-checked against brute force.
pub fn e8_additional_keys() -> Table {
    let mut table = Table::new(
        "E8",
        "Minimal keys via duality (Proposition 1.2)",
        &[
            "instance",
            "attrs",
            "rows",
            "min-keys",
            "dual-calls",
            "matches-brute",
            "additional-key-after-drop",
            "time-us",
        ],
    );
    for (name, r) in workloads::key_workloads() {
        let start = Instant::now();
        let (keys, calls) =
            qld_keys::enumerate_minimal_keys_with(&r, &QuadLogspaceSolver::default()).unwrap();
        let elapsed = start.elapsed();
        let brute = qld_keys::minimal_keys_brute(&r);
        let matches = keys.same_edge_set(&brute);
        // Drop one key (if any) and confirm the additional-key check rediscovers one.
        let rediscovers = if keys.num_edges() >= 1 {
            let mut partial = keys.clone();
            partial.remove_edge(0);
            matches!(
                qld_keys::additional_key(&r, &partial).unwrap(),
                qld_keys::AdditionalKey::Found(_)
            )
        } else {
            true
        };
        table.push_row(vec![
            name,
            r.num_attributes().to_string(),
            r.num_rows().to_string(),
            keys.num_edges().to_string(),
            calls.to_string(),
            mark(matches),
            mark(rediscovers),
            micros(elapsed),
        ]);
    }
    table
}

/// E9 — Proposition 1.3: coterie non-domination via self-duality, cross-checked against
/// exact dualization, with a dominating coterie exhibited whenever the input is
/// dominated.
pub fn e9_coteries() -> Table {
    let mut table = Table::new(
        "E9",
        "Coterie non-domination via self-duality (Proposition 1.3)",
        &[
            "coterie",
            "nodes",
            "quorums",
            "non-dominated",
            "matches-exact",
            "dominating-quorums",
            "time-us",
        ],
    );
    for (name, coterie) in workloads::coterie_workloads() {
        let start = Instant::now();
        let result = qld_coteries::check_domination(&coterie).unwrap();
        let elapsed = start.elapsed();
        let exact = qld_hypergraph::transversal::is_self_dual_exact(coterie.quorums());
        let dominating = match &result {
            qld_coteries::Domination::NonDominated => "-".to_string(),
            qld_coteries::Domination::DominatedBy(d) => d.num_quorums().to_string(),
        };
        table.push_row(vec![
            name,
            coterie.num_nodes().to_string(),
            coterie.num_quorums().to_string(),
            mark(result.is_non_dominated()),
            mark(result.is_non_dominated() == exact),
            dominating,
            micros(elapsed),
        ]);
    }
    table
}

/// A tiny sanity harness used by integration tests: every table row that carries a
/// correctness column must report success.
pub fn all_correctness_cells_pass(table: &Table) -> bool {
    let check_columns: Vec<usize> = table
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            c.contains("ok")
                || c.contains("agree")
                || c.contains("matches")
                || c.contains("verifies")
        })
        .map(|(i, _)| i)
        .collect();
    table
        .rows
        .iter()
        .all(|row| check_columns.iter().all(|&i| row[i] != "NO"))
}

/// Cross-validation helper shared with the brute-force baseline solver (used by tests
/// to keep E4's "agree" column honest even for tiny instances).
pub fn brute_force_agrees(li: &qld_hypergraph::generators::LabelledInstance) -> bool {
    if li.g.num_vertices().max(li.h.num_vertices()) > 16 {
        return true;
    }
    AssignmentBruteSolver::new()
        .is_dual(&li.g, &li.h)
        .map(|d| d == li.dual)
        .unwrap_or(false)
}

/// E12 — the set-representation hot path: `oracle::classify` and transversal-check
/// throughput of the inline-`VertexSet` + `HypergraphIndex` layer against a faithful
/// replica of the pre-refactor layout (heap word vectors, per-bit kernels,
/// query-driven classify).  Every row first cross-checks that both paths agree.
pub fn e12_hotpath() -> Table {
    let mut table = Table::new(
        "E12",
        "Hot-path throughput: inline sets + hypergraph index vs. pre-refactor layout",
        &[
            "metric",
            "|V|",
            "repr",
            "ops/iter",
            "before-ns/op",
            "after-ns/op",
            "speedup",
        ],
    );
    for m in crate::hotpath::measure_all(24) {
        let per_op = |total_ns: f64| total_ns / m.ops_per_iter as f64;
        table.push_row(vec![
            m.name.to_string(),
            m.universe.to_string(),
            if m.universe <= 64 {
                "inline"
            } else if m.universe <= 128 {
                "spilled"
            } else {
                "wide"
            }
            .to_string(),
            m.ops_per_iter.to_string(),
            f2(per_op(m.baseline_ns)),
            f2(per_op(m.optimized_ns)),
            format!("{:.2}x", m.speedup()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_round_trip() {
        // Checks the registry without building any table: every table runs in
        // `tests/experiment_suite.rs`.
        let numbers: Vec<u32> = EXPERIMENTS
            .iter()
            .map(|(id, _)| {
                id.strip_prefix('e')
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("malformed experiment id `{id}`"))
            })
            .collect();
        assert!(
            numbers.windows(2).all(|w| w[0] < w[1]),
            "ids are not unique and in presentation order: {numbers:?}"
        );
        assert!(run("e99").is_none());
    }

    #[test]
    fn e2_bounds_hold() {
        let t = e2_tree_shape();
        assert!(!t.is_empty());
        assert!(all_correctness_cells_pass(&t), "\n{}", t.render());
    }

    #[test]
    fn e9_matches_exact_self_duality() {
        let t = e9_coteries();
        assert!(!t.is_empty());
        assert!(all_correctness_cells_pass(&t), "\n{}", t.render());
    }

    #[test]
    fn small_table_helpers() {
        let li = qld_hypergraph::generators::matching_instance(2);
        assert!(brute_force_agrees(&li));
    }
}
