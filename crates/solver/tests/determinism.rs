//! Feature-determinism: the facade's answers are byte-identical whether the
//! solver stack is built with its default `std` feature or as `no_std` +
//! `alloc` (`--no-default-features`).
//!
//! The `std` feature only swaps the space reports' `log2` shim for `f64::log2`;
//! the decision procedures themselves are feature-free.  To catch any accidental
//! divergence (a float shim, a collection swap, a cfg'd code path changing an
//! answer or witness), this test renders a transcript of solver outputs over
//! a fixed instance corpus and compares its FNV-1a digest against a golden
//! value.  CI runs the same test twice — `cargo test -p qld-solver` and
//! `cargo test -p qld-solver --no-default-features` — and both must see the
//! same digest.

use core::fmt::Write as _;

use qld_solver::hypergraph::generators::{
    matching_instance, random_dual_instance, self_dual_instance, standard_corpus,
    threshold_instance, LabelledInstance,
};
use qld_solver::{
    borders_exact, BergeSolver, DualitySolver, FkASolver, QuadLogspaceSolver, SpaceStrategy,
};

/// FNV-1a over the transcript bytes: tiny, dependency-free, and stable across
/// platforms and feature settings.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders every solver's answer (and witness, when non-dual) on every corpus
/// instance, plus a border-mining run, into one canonical string.
fn transcript() -> String {
    let mut out = String::new();
    let chain = QuadLogspaceSolver::new(SpaceStrategy::MaterializeChain);
    let recompute = QuadLogspaceSolver::new(SpaceStrategy::Recompute);
    let fk = FkASolver::new();
    let berge = BergeSolver;
    for inst in standard_corpus() {
        for (name, result) in [
            ("chain", chain.decide(&inst.g, &inst.h)),
            ("recompute", recompute.decide(&inst.g, &inst.h)),
            ("fk-a", fk.decide(&inst.g, &inst.h)),
            ("berge", berge.decide(&inst.g, &inst.h)),
        ] {
            let result = result.expect("corpus instances are valid");
            writeln!(out, "{}/{}: {:?}", inst.name, name, result).unwrap();
        }
    }
    // Border mining exercises the datamining reduction end to end.
    let rel = qld_solver::datamining::generators::random_relation(8, 24, 0.45, 7);
    let borders = borders_exact(&rel, 6);
    writeln!(out, "borders: {:?}", borders).unwrap();
    out
}

#[test]
fn transcript_digest_matches_golden() {
    let t = transcript();
    let digest = fnv1a(t.as_bytes());
    // Golden digest of the transcript.  If an intentional algorithm change
    // shifts it, re-record by running with `QLD_PRINT_DIGEST=1`; an
    // *unintentional* shift — in particular one that appears only under
    // `--no-default-features` — is a determinism regression.
    if std::env::var_os("QLD_PRINT_DIGEST").is_some() {
        eprintln!("transcript digest: {digest:#018x}");
        eprintln!("{t}");
    }
    assert_eq!(digest, GOLDEN, "solver transcript diverged from golden");
}

const GOLDEN: u64 = 0x9ac1_f3b8_1fdc_48b8;

/// Renders the metered work-tape peak (`peak_bits`, the Theorem 4.1 figure)
/// of both space strategies on every corpus instance, plus the chain
/// strategy on four larger duals, into one canonical string.
fn space_transcript() -> String {
    let mut out = String::new();
    let mut record = |name: &str, strategy: SpaceStrategy, inst: &LabelledInstance| {
        let (_, report) = QuadLogspaceSolver::new(strategy)
            .decide_with_space(&inst.g, &inst.h)
            .expect("instances are valid");
        writeln!(out, "{}/{name}: {}", inst.name, report.peak_bits).unwrap();
    };
    for inst in standard_corpus() {
        record("chain", SpaceStrategy::MaterializeChain, &inst);
        record("recompute", SpaceStrategy::Recompute, &inst);
    }
    for inst in [
        matching_instance(6),
        threshold_instance(9, 4),
        self_dual_instance(4),
        random_dual_instance(12, 10, 4, 1),
    ] {
        record("chain", SpaceStrategy::MaterializeChain, &inst);
    }
    out
}

/// Pins the exact `peak_bits` of the quadlog solver under both feature
/// settings, so a solver change that alters the metered space shows up
/// here and not only as a ratio drift in a benchmark.
#[test]
fn peak_bits_digest_matches_golden() {
    let t = space_transcript();
    let digest = fnv1a(t.as_bytes());
    if std::env::var_os("QLD_PRINT_DIGEST").is_some() {
        eprintln!("space transcript digest: {digest:#018x}");
        eprintln!("{t}");
    }
    assert_eq!(
        digest, SPACE_GOLDEN,
        "peak_bits transcript diverged from golden"
    );
}

const SPACE_GOLDEN: u64 = 0xb052_af6d_20c3_3d72;
