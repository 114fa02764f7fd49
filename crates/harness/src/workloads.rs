//! Shared workload definitions.
//!
//! The experiment tables (E2–E9), the Criterion benches, `perfbench/`, and several tests
//! all iterate over the same instance families; defining them once here keeps the
//! numbers in `EXPERIMENTS.md` reproducible by `cargo bench` without duplication.

use qld_datamining::BooleanRelation;
use qld_hypergraph::generators::{self, LabelledInstance};
use qld_keys::RelationInstance;

/// The dual instances used by the structural experiments (E2, E4) — a mix of all
/// families at laptop-friendly sizes.
pub fn dual_instances() -> Vec<LabelledInstance> {
    vec![
        generators::matching_instance(2),
        generators::matching_instance(3),
        generators::matching_instance(4),
        generators::matching_instance(5),
        generators::threshold_instance(5, 2),
        generators::threshold_instance(6, 3),
        generators::threshold_instance(7, 3),
        generators::graph_cover_instance("C5", generators::cycle_graph(5)),
        generators::graph_cover_instance("C7", generators::cycle_graph(7)),
        generators::graph_cover_instance("K5", generators::complete_graph(5)),
        generators::graph_cover_instance("P7", generators::path_graph(7)),
        generators::self_dual_instance(2),
        generators::self_dual_instance(3),
        generators::random_dual_instance(8, 7, 4, 1),
        generators::random_dual_instance(9, 8, 4, 2),
    ]
}

/// Non-dual instances (perturbed duals) used by E4, E5, E6.
pub fn non_dual_instances() -> Vec<LabelledInstance> {
    dual_instances()
        .iter()
        .enumerate()
        .filter_map(|(i, li)| generators::perturb(li, generators::Perturbation::DropDualEdge, i))
        .collect()
}

/// The growing family used by the space-scaling experiment (E3): matching instances of
/// increasing size (the classical family where the dual side grows exponentially).
/// The boolean flag says whether the faithful recompute strategy is cheap enough to
/// measure on that instance.
pub fn space_scaling_instances() -> Vec<(LabelledInstance, bool)> {
    vec![
        (generators::matching_instance(1), true),
        (generators::matching_instance(2), true),
        (generators::matching_instance(3), true),
        (generators::threshold_instance(5, 2), true),
        (generators::matching_instance(4), false),
        (generators::matching_instance(5), false),
        (generators::matching_instance(6), false),
        (generators::threshold_instance(8, 3), false),
    ]
}

/// Synthetic relations for the data-mining experiment (E7): `(name, relation, threshold)`.
pub fn datamining_workloads() -> Vec<(String, BooleanRelation, usize)> {
    let mut out = Vec::new();
    for (items, rows, density, z, seed) in [
        (6usize, 20usize, 0.55, 4usize, 11u64),
        (8, 30, 0.5, 6, 12),
        (8, 40, 0.65, 12, 13),
        (10, 40, 0.45, 8, 14),
    ] {
        out.push((
            format!("random(items={items},rows={rows},d={density})"),
            qld_datamining::generators::random_relation(items, rows, density, seed),
            z,
        ));
    }
    for (items, rows, patterns, size, z, seed) in [
        (8usize, 40usize, 3usize, 4usize, 8usize, 21u64),
        (10, 60, 4, 5, 12, 22),
    ] {
        out.push((
            format!("planted(items={items},rows={rows},patterns={patterns})"),
            qld_datamining::generators::planted_pattern_relation(
                items, rows, patterns, size, 0.1, seed,
            ),
            z,
        ));
    }
    out
}

/// Relational instances for the key-discovery experiment (E8): `(name, instance)`.
pub fn key_workloads() -> Vec<(String, RelationInstance)> {
    let mut out = Vec::new();
    for (attrs, rows, domain, seed) in [
        (4usize, 8usize, 3u32, 31u64),
        (5, 10, 3, 32),
        (5, 12, 3, 33),
        (6, 12, 4, 34),
        (6, 16, 3, 35),
        (7, 14, 4, 37),
    ] {
        out.push((
            format!("random(attrs={attrs},rows={rows},dom={domain})"),
            qld_keys::generators::random_instance(attrs, rows, domain, seed),
        ));
    }
    out.push((
        "planted-key(attrs=6,rows=14)".to_string(),
        qld_keys::generators::planted_key_instance(6, 14, &[0, 3], 36),
    ));
    out
}

/// Coteries for the non-domination experiment (E9): `(name, coterie)`.
pub fn coterie_workloads() -> Vec<(String, qld_coteries::Coterie)> {
    use qld_coteries::constructions::*;
    vec![
        ("majority(3)".into(), majority_coterie(3)),
        ("majority(5)".into(), majority_coterie(5)),
        ("majority(7)".into(), majority_coterie(7)),
        ("threshold(4,3)".into(), threshold_coterie(4, 3)),
        ("threshold(6,4)".into(), threshold_coterie(6, 4)),
        ("singleton(5)".into(), singleton_coterie(5, 0)),
        ("wheel(5)".into(), wheel_coterie(5)),
        ("wheel(7)".into(), wheel_coterie(7)),
        ("grid(2x2)".into(), grid_coterie(2, 2)),
        ("grid(2x3)".into(), grid_coterie(2, 3)),
        ("grid(3x3)".into(), grid_coterie(3, 3)),
    ]
}

/// The classical border-stress relation behind perfbench's streamed mining
/// workloads (the CI cancel smoke builds the same rows inline): over `2k` items,
/// row `i` is the full universe minus the pair `{2i, 2i+1}`.  At threshold 0
/// the maximal frequent border is the `k` rows themselves and the minimal
/// infrequent border is the `2^k` transversals of the perfect matching — a
/// small relation whose full-border identification runs long and yields
/// many stream items.
pub fn border_stress_relation(pairs: usize) -> BooleanRelation {
    use qld_hypergraph::VertexSet;
    let n = 2 * pairs;
    BooleanRelation::from_rows(
        n,
        (0..pairs)
            .map(|i| VertexSet::from_indices(n, (0..n).filter(|&v| v != 2 * i && v != 2 * i + 1))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_inventories_are_nonempty_and_consistent() {
        assert!(dual_instances().len() >= 10);
        assert!(dual_instances().iter().all(|li| li.dual));
        assert!(!non_dual_instances().is_empty());
        assert!(non_dual_instances().iter().all(|li| !li.dual));
        assert!(space_scaling_instances().len() >= 6);
        assert!(datamining_workloads().len() >= 5);
        assert!(key_workloads().len() >= 5);
        assert!(coterie_workloads().len() >= 8);
    }

    #[test]
    fn border_stress_relation_has_the_predicted_borders() {
        let pairs = 3;
        let relation = border_stress_relation(pairs);
        assert_eq!(relation.num_items(), 2 * pairs);
        assert_eq!(relation.num_rows(), pairs);
        let exact = qld_datamining::borders_exact(&relation, 0);
        assert_eq!(exact.maximal_frequent.num_edges(), pairs);
        assert_eq!(exact.minimal_infrequent.num_edges(), 1 << pairs);
    }

    #[test]
    fn datamining_thresholds_are_meaningful() {
        for (name, relation, z) in datamining_workloads() {
            assert!(z < relation.num_rows(), "{name}: z out of range");
            assert!(
                relation.num_items() <= 12,
                "{name}: keep ground truth feasible"
            );
        }
    }
}
