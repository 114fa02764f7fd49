//! Fredman–Khachiyan algorithm A.
//!
//! The classical `n^{O(log n)}` self-reduction for monotone duality (Fredman &
//! Khachiyan, *On the Complexity of Dualization of Monotone Disjunctive Normal Forms*,
//! J. Algorithms 1996), cited by the paper as the starting point of all later
//! decomposition methods.  Writing `f = x·f₁ ∨ f₀` and `g = x·g₁ ∨ g₀` for a chosen
//! variable `x`, the pair `(f, g)` is dual iff `(f₀, g₀ ∨ g₁)` and `(f₀ ∨ f₁, g₀)` are
//! both dual; splitting on a *frequent* variable bounds the recursion depth.
//!
//! The implementation refutes duality with a **counterexample assignment** `t` such
//! that `f(t) = g(¬t)`, propagated back up through the recursion, and converted into a
//! structural witness by [`crate::counterexample::witness_from_assignment`].  It also
//! implements the volume check `Σ 2^{−|A|} + Σ 2^{−|B|} ≥ 1` of the original paper; when
//! the check fails, a counterexample is constructed deterministically by the method of
//! conditional probabilities.

use crate::counterexample::witness_from_assignment;
use alloc::vec;
use alloc::vec::Vec;
use qld_core::{DualError, DualInstance, DualityResult, DualitySolver};
use qld_hypergraph::{Hypergraph, Vertex, VertexSet};

/// Statistics of one Fredman–Khachiyan run (used by the experiment harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FkStats {
    /// Number of recursive calls (nodes of the recursion tree).
    pub calls: usize,
    /// Maximum recursion depth reached.
    pub max_depth: usize,
}

/// The Fredman–Khachiyan algorithm A as a [`DualitySolver`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FkASolver;

impl FkASolver {
    /// Creates the solver.
    pub fn new() -> Self {
        FkASolver
    }

    /// Decides duality and also returns recursion statistics.
    pub fn decide_with_stats(
        &self,
        g: &Hypergraph,
        h: &Hypergraph,
    ) -> Result<(DualityResult, FkStats), DualError> {
        // Validation (simplicity, common universe) is shared with the other solvers.
        let inst = DualInstance::new(g.clone(), h.clone())?;
        let mut stats = FkStats::default();
        let counterexample = fk_counterexample(inst.g(), inst.h(), 0, &mut stats);
        let result = match counterexample {
            None => DualityResult::Dual,
            Some(t) => {
                let witness = witness_from_assignment(inst.g(), inst.h(), &t)
                    .expect("FK produced an assignment that is not a counterexample");
                DualityResult::NotDual(witness)
            }
        };
        Ok((result, stats))
    }
}

impl DualitySolver for FkASolver {
    fn name(&self) -> &'static str {
        "fk-a"
    }

    fn decide(&self, g: &Hypergraph, h: &Hypergraph) -> Result<DualityResult, DualError> {
        Ok(self.decide_with_stats(g, h)?.0)
    }
}

/// Core recursion: returns `None` if `(f, g)` are dual, otherwise a counterexample
/// assignment `t` with `f(t) = g(¬t)`.
fn fk_counterexample(
    f: &Hypergraph,
    g: &Hypergraph,
    depth: usize,
    stats: &mut FkStats,
) -> Option<VertexSet> {
    stats.calls += 1;
    stats.max_depth = stats.max_depth.max(depth);
    let n = f.num_vertices().max(g.num_vertices());
    let f = f.minimize();
    let g = g.minimize();

    // --- base cases on constants -------------------------------------------------
    if f.is_empty() {
        // f ≡ false is dual exactly to g ≡ true.
        return if g.has_empty_edge() {
            None
        } else {
            Some(VertexSet::full(n)) // f(V)=0, g(∅)=0
        };
    }
    if g.is_empty() {
        return if f.has_empty_edge() {
            None
        } else {
            Some(VertexSet::empty(n)) // f(∅)=0, g(V)=0
        };
    }
    if f.has_empty_edge() {
        // f ≡ true; dual iff g ≡ false, i.e. g empty — but g is non-empty here.
        return Some(VertexSet::empty(n)); // f(∅)=1, g(V)=1
    }
    if g.has_empty_edge() {
        return Some(VertexSet::full(n)); // f(V)=1, g(∅)=1
    }

    // --- cross-intersection ------------------------------------------------------
    // "Some f-edge is disjoint from some g-edge" is exactly "some f-edge is not a
    // transversal of g": answer it for all f-edges in one batched pass over g's
    // edge arena, then locate the first offending pair (same (a, b) order as the
    // nested scan this replaces).
    {
        let f_refs: Vec<&VertexSet> = f.edges().iter().collect();
        let meets_all = g.index().transversal_many(&f_refs);
        if let Some(i) = meets_all.iter().position(|&ok| !ok) {
            let b = g
                .index()
                .first_edge_disjoint(&f.edges()[i])
                .expect("batched probe found a non-transversal f-edge");
            // T = V − B: f(T) ⊇ A → 1, g(¬T) = g(B) ⊇ B → 1.
            let mut b_full = g.edge(b).clone();
            b_full.grow(n);
            return Some(b_full.complement(n));
        }
    }

    // --- volume check (Fredman–Khachiyan Lemma) ------------------------------------
    let volume: f64 = f
        .edges()
        .iter()
        .chain(g.edges())
        .map(|e| pow_half(e.len()))
        .sum();
    if volume < 1.0 {
        return Some(conditional_probabilities_counterexample(&f, &g, n));
    }

    // --- small base cases ----------------------------------------------------------
    if f.num_edges() <= 2 {
        return small_side_counterexample(&f, &g, n);
    }
    if g.num_edges() <= 2 {
        // Duality is symmetric; a counterexample for (g, f) complements into one for
        // (f, g): g(t) = f(¬t) implies f(¬t) = g(¬(¬t)).
        return small_side_counterexample(&g, &f, n).map(|t| t.complement(n));
    }

    // --- split on the most frequent variable ---------------------------------------
    let x = most_frequent_variable(&f, &g, n);
    let (f0, f1) = split(&f, x, n);
    let (g0, g1) = split(&g, x, n);

    // (i) f₀ dual to g₀ ∨ g₁ ?
    let g01 = union_minimized(&g0, &g1, n);
    if let Some(y) = fk_counterexample(&f0, &g01, depth + 1, stats) {
        // lift: x := 0 (y never contains x because neither sub-formula mentions it).
        let mut z = y;
        z.remove(Vertex::from(x));
        return Some(z);
    }
    // (ii) f₀ ∨ f₁ dual to g₀ ?
    let f01 = union_minimized(&f0, &f1, n);
    if let Some(y) = fk_counterexample(&f01, &g0, depth + 1, stats) {
        // lift: x := 1.
        let mut z = y;
        z.grow(n);
        z.insert(Vertex::from(x));
        return Some(z);
    }
    None
}

/// Splits a DNF on variable `x`: returns `(f₀, f₁)` with `f = x·f₁ ∨ f₀`.
fn split(f: &Hypergraph, x: usize, n: usize) -> (Hypergraph, Hypergraph) {
    let xv = Vertex::from(x);
    let mut f0 = Hypergraph::new(n);
    let mut f1 = Hypergraph::new(n);
    for e in f.edges() {
        if e.contains(xv) {
            f1.add_edge(e.without(xv));
        } else {
            f0.add_edge(e.clone());
        }
    }
    (f0, f1)
}

/// The minimized union (disjunction) of two DNFs over a common universe.
fn union_minimized(a: &Hypergraph, b: &Hypergraph, n: usize) -> Hypergraph {
    let mut out = Hypergraph::new(n);
    for e in a.edges().iter().chain(b.edges()) {
        let mut e = e.clone();
        e.grow(n);
        out.add_edge(e);
    }
    out.minimize()
}

/// The variable with the highest total number of occurrences in `f` and `g`.
fn most_frequent_variable(f: &Hypergraph, g: &Hypergraph, n: usize) -> usize {
    let mut freq = vec![0usize; n];
    for e in f.edges().iter().chain(g.edges()) {
        for v in e.iter() {
            freq[v.index()] += 1;
        }
    }
    freq.iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// `2^{−k}` as an exact `f64` (powers of two are exactly representable all the
/// way into the subnormal range).  `f64::powi` lives in `std`, and building
/// the value from its bit pattern keeps the conditional-probabilities scores
/// bit-identical between the `std` and `no_std` builds.
fn pow_half(k: usize) -> f64 {
    if k <= 1022 {
        f64::from_bits((1023 - k as u64) << 52)
    } else if k <= 1074 {
        f64::from_bits(1u64 << (1074 - k))
    } else {
        0.0
    }
}

/// Constructs a counterexample when `Σ 2^{−|A|} + Σ 2^{−|B|} < 1` by the method of
/// conditional probabilities: assign variables one at a time, keeping the expected
/// number of "violated" terms (an `f`-term fully inside `T`, or a `g`-term fully
/// outside) below 1; the final assignment violates no term, so `f(T) = g(¬T) = 0`.
fn conditional_probabilities_counterexample(f: &Hypergraph, g: &Hypergraph, n: usize) -> VertexSet {
    let mut t = VertexSet::empty(n);
    let mut decided_false = VertexSet::empty(n);
    // Each side needs, for every edge, its intersection sizes with *both* partial
    // assignments: one joint arena pass per side instead of four edge-list scans.
    let expected = |t: &VertexSet, decided_false: &VertexSet| -> f64 {
        let mut total = 0.0;
        f.index()
            .for_each_intersection_pair(decided_false, t, |i, in_false, in_t| {
                // event: e ⊆ T.  Impossible if some vertex of e is decided false.
                if in_false == 0 {
                    let undecided = f.index().edge_size(i) - in_t as usize;
                    total += pow_half(undecided);
                }
            });
        g.index()
            .for_each_intersection_pair(t, decided_false, |i, in_t, in_false| {
                // event: e ⊆ V − T.  Impossible if some vertex of e is decided true.
                if in_t == 0 {
                    let undecided = g.index().edge_size(i) - in_false as usize;
                    total += pow_half(undecided);
                }
            });
        total
    };
    // Try each decision in place (insert, score, undo) instead of cloning the two
    // partial assignments once per variable.
    for i in 0..n {
        let v = Vertex::from(i);
        t.insert(v);
        let score_true = expected(&t, &decided_false);
        t.remove(v);
        decided_false.insert(v);
        let score_false = expected(&t, &decided_false);
        if score_true <= score_false {
            decided_false.remove(v);
            t.insert(v);
        }
    }
    t
}

/// Base case: `f` has at most two terms.  Its dual is computed exactly and compared
/// with `g`; on a mismatch a counterexample assignment is constructed from the
/// offending edge (see the case analysis in the module tests).
fn small_side_counterexample(f: &Hypergraph, g: &Hypergraph, n: usize) -> Option<VertexSet> {
    let tr_f = qld_hypergraph::transversal::minimal_transversals(f);
    if tr_f.same_edge_set(g) {
        return None;
    }
    // Some g-edge is not a minimal transversal of f.  Cross-intersection has already
    // been established, so it is a transversal; being absent from tr(f) it must be
    // non-minimal: shrink it and flip.
    for b in g.edges() {
        if !tr_f.contains_edge(b) {
            let reduced = f.minimize_transversal(b);
            let mut reduced_full = reduced;
            reduced_full.grow(n);
            // T = V − reduced: f(T) = 0 (reduced is a transversal of f), and no g-edge
            // fits inside `reduced` (it would contradict g's simplicity w.r.t. b, or be
            // b itself, which is strictly larger).
            return Some(reduced_full.complement(n));
        }
    }
    // Otherwise g ⊊ tr(f): some minimal transversal of f is missing from g.
    for t in tr_f.edges() {
        if !g.contains_edge(t) {
            let mut t_full = t.clone();
            t_full.grow(n);
            // T = V − t: f(T) = 0 and g(t) = 0 (no g-edge can sit inside a minimal
            // transversal other than itself).
            return Some(t_full.complement(n));
        }
    }
    unreachable!("tr(f) ≠ g but no discrepancy found")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counterexample::is_counterexample;
    use qld_core::verify_witness;
    use qld_hypergraph::generators;
    use qld_hypergraph::transversal::are_dual_exact;

    #[test]
    fn accepts_standard_dual_corpus() {
        let solver = FkASolver::new();
        for li in generators::standard_corpus() {
            let verdict = solver.decide(&li.g, &li.h).unwrap();
            assert_eq!(verdict.is_dual(), li.dual, "{}", li.name);
            if let DualityResult::NotDual(w) = &verdict {
                assert!(
                    verify_witness(&li.g, &li.h, w),
                    "{}: bad witness {w}",
                    li.name
                );
            }
        }
    }

    #[test]
    fn counterexamples_are_genuine() {
        for k in 2..=4 {
            let li = generators::matching_instance(k);
            for drop in 0..li.h.num_edges().min(3) {
                let broken =
                    generators::perturb(&li, generators::Perturbation::DropDualEdge, drop).unwrap();
                let mut stats = FkStats::default();
                let t = fk_counterexample(&broken.g, &broken.h, 0, &mut stats)
                    .expect("perturbed instance must have a counterexample");
                assert!(is_counterexample(&broken.g, &broken.h, &t));
                assert!(stats.calls >= 1);
            }
        }
    }

    #[test]
    fn constants_and_degenerate_formulas() {
        let n = 3;
        let false_dnf = Hypergraph::new(n);
        let true_dnf = Hypergraph::from_edges(n, [VertexSet::empty(n)]);
        let solver = FkASolver::new();
        assert!(solver.is_dual(&false_dnf, &true_dnf).unwrap());
        assert!(solver.is_dual(&true_dnf, &false_dnf).unwrap());
        assert!(!solver.is_dual(&false_dnf, &false_dnf).unwrap());
        assert!(!solver.is_dual(&true_dnf, &true_dnf).unwrap());
        let k3 = Hypergraph::from_index_edges(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        assert!(!solver.is_dual(&true_dnf, &k3).unwrap());
        assert!(!solver.is_dual(&k3, &false_dnf).unwrap());
    }

    #[test]
    fn volume_check_counterexample_is_valid() {
        // Large terms only: Σ 2^{-|E|} is tiny, so the volume check fires.
        let f = Hypergraph::from_index_edges(8, &[&[0, 1, 2, 3, 4]]);
        let g = Hypergraph::from_index_edges(8, &[&[0, 5, 6, 7]]);
        let t = conditional_probabilities_counterexample(&f, &g, 8);
        assert!(is_counterexample(&f, &g, &t));
        let mut stats = FkStats::default();
        let found = fk_counterexample(&f, &g, 0, &mut stats).unwrap();
        assert!(is_counterexample(&f, &g, &found));
    }

    #[test]
    fn agrees_with_exact_duality_on_random_pairs() {
        for seed in 0..6 {
            let g = generators::random_simple_hypergraph(6, 5, 2..=3, seed);
            if g.is_empty() {
                continue;
            }
            let h = qld_hypergraph::transversal::minimal_transversals(&g);
            let solver = FkASolver::new();
            assert!(solver.is_dual(&g, &h).unwrap(), "seed {seed}");
            // perturb
            if h.num_edges() >= 2 {
                let mut broken = h.clone();
                broken.remove_edge(seed as usize % broken.num_edges());
                assert!(!solver.is_dual(&g, &broken).unwrap());
                assert!(!are_dual_exact(&broken, &g));
            }
        }
    }

    #[test]
    fn stats_reflect_recursion() {
        let li = generators::matching_instance(4);
        let solver = FkASolver::new();
        let (result, stats) = solver.decide_with_stats(&li.g, &li.h).unwrap();
        assert!(result.is_dual());
        assert!(
            stats.calls >= 3,
            "expected a non-trivial recursion, got {stats:?}"
        );
        assert!(stats.max_depth >= 1);
        assert_eq!(solver.name(), "fk-a");
    }
}
