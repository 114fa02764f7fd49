//! Cross-crate integration: the batch query engine answers a mixed multi-worker
//! batch of ≥100 requests exactly as direct single-threaded solver calls do,
//! and the `serve` wire loop round-trips requests to correct JSON lines.

use qld_core::{decide_duality, verify_witness};
use qld_datamining::{borders_exact, identify, Identification, IdentificationInstance};
use qld_engine::{
    BordersOutcome, Engine, EngineConfig, Outcome, Request, Response, WitnessSummary,
};
use qld_hypergraph::transversal::minimal_transversals;
use qld_hypergraph::{generators, Hypergraph, VertexSet};
use qld_keys::minimal_keys_exact;

/// A deterministic mixed batch covering all four request kinds.
fn mixed_batch() -> Vec<Request> {
    let mut requests = Vec::new();
    // check: dual instances, their perturbations, and a few random pairs
    for li in generators::standard_corpus() {
        requests.push(Request::DecideDuality {
            g: li.g.clone(),
            h: li.h.clone(),
        });
    }
    for seed in 0..8 {
        let a = generators::random_simple_hypergraph(6, 4, 2..=4, seed);
        let b = generators::random_simple_hypergraph(6, 4, 2..=4, seed + 100);
        requests.push(Request::DecideDuality { g: a, h: b });
    }
    // enumerate: with and without limits
    for k in 1..=4 {
        let li = generators::matching_instance(k);
        requests.push(Request::EnumerateTransversals {
            g: li.g.clone(),
            limit: None,
        });
        requests.push(Request::EnumerateTransversals {
            g: li.g,
            limit: Some(3),
        });
    }
    // mine: complete and punctured borders over random relations
    for seed in 0..6 {
        let relation = qld_datamining::generators::random_relation(6, 16, 0.5, seed);
        let z = 3;
        let borders = borders_exact(&relation, z);
        requests.push(Request::IdentifyItemsetBorders {
            relation: relation.clone(),
            threshold: z,
            minimal_infrequent: borders.minimal_infrequent.clone(),
            maximal_frequent: borders.maximal_frequent.clone(),
        });
        let mut punctured = borders.maximal_frequent.clone();
        if !punctured.is_empty() {
            punctured.remove_edge(0);
        }
        requests.push(Request::IdentifyItemsetBorders {
            relation,
            threshold: z,
            minimal_infrequent: borders.minimal_infrequent,
            maximal_frequent: punctured,
        });
    }
    // keys: random relational instances
    for seed in 0..8 {
        requests.push(Request::FindMinimalKeys {
            instance: qld_keys::generators::random_instance(5, 8, 3, seed),
        });
    }
    // pad with repeats so the batch crosses 100 and exercises the cache
    let base = requests.clone();
    while requests.len() < 110 {
        requests.extend(base.iter().take(10).cloned());
    }
    requests
}

/// Checks one engine response against direct solver calls on the same request.
fn check_against_direct(request: &Request, response: &Response) {
    let outcome = response
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("request {} failed: {e}", response.id));
    match (request, outcome) {
        (Request::DecideDuality { g, h }, Outcome::Duality { dual, witness }) => {
            let (g, h) = (g.minimize(), h.minimize());
            let direct = decide_duality(&g, &h).unwrap();
            assert_eq!(*dual, direct.is_dual());
            match witness {
                None => assert!(*dual),
                Some(w) => {
                    // the engine's own witness must verify against the instance
                    let n = g.num_vertices().max(h.num_vertices());
                    let reconstructed =
                        match w {
                            WitnessSummary::NewTransversalOfG(t) => {
                                qld_core::NonDualWitness::NewTransversalOfG(
                                    VertexSet::from_indices(n, t.iter().copied()),
                                )
                            }
                            WitnessSummary::NewTransversalOfH(t) => {
                                qld_core::NonDualWitness::NewTransversalOfH(
                                    VertexSet::from_indices(n, t.iter().copied()),
                                )
                            }
                            // the engine reports the disjoint edges themselves;
                            // recover their positions in the minimized instance
                            WitnessSummary::DisjointEdges { g_edge, h_edge } => {
                                let g_index = g
                                    .edges()
                                    .iter()
                                    .position(|e| e.to_indices() == *g_edge)
                                    .expect("witness g_edge occurs in G");
                                let h_index = h
                                    .edges()
                                    .iter()
                                    .position(|e| e.to_indices() == *h_edge)
                                    .expect("witness h_edge occurs in H");
                                qld_core::NonDualWitness::DisjointEdges { g_index, h_index }
                            }
                        };
                    assert!(
                        verify_witness(&g, &h, &reconstructed),
                        "unverifiable witness {reconstructed:?}"
                    );
                }
            }
        }
        (
            Request::EnumerateTransversals { g, limit },
            Outcome::Transversals {
                transversals,
                complete,
            },
        ) => {
            let g = g.minimize();
            let exact = minimal_transversals(&g);
            let found = Hypergraph::from_edges(
                g.num_vertices(),
                transversals
                    .iter()
                    .map(|t| VertexSet::from_indices(g.num_vertices(), t.iter().copied())),
            );
            match limit {
                None => {
                    assert!(complete);
                    assert!(found.same_edge_set(&exact));
                }
                Some(l) => {
                    assert_eq!(*complete, exact.num_edges() <= *l);
                    assert_eq!(found.num_edges(), exact.num_edges().min(*l));
                    for t in found.edges() {
                        assert!(exact.contains_edge(t));
                    }
                }
            }
        }
        (
            Request::IdentifyItemsetBorders {
                relation,
                threshold,
                minimal_infrequent,
                maximal_frequent,
            },
            Outcome::Borders(result),
        ) => {
            let instance = IdentificationInstance::new(
                relation,
                *threshold,
                minimal_infrequent,
                maximal_frequent,
            );
            let direct = identify(&instance).unwrap();
            match (result, &direct) {
                (BordersOutcome::Complete, Identification::Complete) => {}
                (BordersOutcome::NewMaximalFrequent(s), Identification::Incomplete(_)) => {
                    let s = VertexSet::from_indices(relation.num_items(), s.iter().copied());
                    assert!(relation.is_maximal_frequent(&s, *threshold));
                    assert!(!maximal_frequent.contains_edge(&s));
                }
                (BordersOutcome::NewMinimalInfrequent(s), Identification::Incomplete(_)) => {
                    let s = VertexSet::from_indices(relation.num_items(), s.iter().copied());
                    assert!(relation.is_minimal_infrequent(&s, *threshold));
                    assert!(!minimal_infrequent.contains_edge(&s));
                }
                other => panic!("engine/direct identification disagree: {other:?}"),
            }
        }
        (
            Request::FindMinimalKeys { instance },
            Outcome::Keys {
                keys,
                duality_calls,
            },
        ) => {
            let exact = minimal_keys_exact(instance);
            let found = Hypergraph::from_edges(
                instance.num_attributes(),
                keys.iter()
                    .map(|k| VertexSet::from_indices(instance.num_attributes(), k.iter().copied())),
            );
            assert!(found.same_edge_set(&exact));
            assert_eq!(*duality_calls, exact.num_edges() + 1);
        }
        (req, out) => panic!("outcome kind mismatch: {req:?} vs {out:?}"),
    }
}

#[test]
fn multi_worker_batch_matches_direct_solver_calls() {
    let requests = mixed_batch();
    assert!(requests.len() >= 100, "batch too small: {}", requests.len());
    let engine = Engine::new(EngineConfig {
        workers: 4,
        queue_capacity: 8, // much smaller than the batch: exercises backpressure
        ..EngineConfig::default()
    });
    let responses = engine.run_batch(requests.clone());
    assert_eq!(responses.len(), requests.len());
    for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
        assert_eq!(response.id, i as u64);
        check_against_direct(request, response);
    }
    // The duplicated tail of the batch must have been served from the cache.
    assert!(
        engine.cache_stats().hits > 0,
        "expected cache hits on the duplicated requests"
    );
    // And every response reports which solver ran plus a wall-time.
    for response in &responses {
        assert!(!response.stats.solver.is_empty());
    }
}

#[test]
fn worker_counts_and_caching_do_not_change_answers() {
    let requests = mixed_batch();
    let reference: Vec<_> = Engine::new(EngineConfig {
        workers: 1,
        cache: false,
        ..EngineConfig::default()
    })
    .run_batch(requests.clone())
    .into_iter()
    .map(|r| r.outcome)
    .collect();
    for workers in [2, 4] {
        for cache in [false, true] {
            let engine = Engine::new(EngineConfig {
                workers,
                cache,
                ..EngineConfig::default()
            });
            let outcomes: Vec<_> = engine
                .run_batch(requests.clone())
                .into_iter()
                .map(|r| r.outcome)
                .collect();
            assert_eq!(outcomes, reference, "workers={workers} cache={cache}");
        }
    }
}

#[test]
fn serve_round_trips_the_acceptance_example() {
    // `echo 'check <G> <H>' | qld serve --workers 4`
    let engine = Engine::new(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    let input = "check 0,1;2,3 0,2;0,3;1,2;1,3\ncheck 0,1;2,3 0,2;0,3;1,2\n";
    let mut output = Vec::new();
    let summary = engine.serve(input.as_bytes(), &mut output).unwrap();
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.errors, 0);
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"id\":0") && lines[0].contains("\"dual\":true"));
    assert!(lines[1].contains("\"id\":1") && lines[1].contains("\"dual\":false"));
    assert!(lines[1].contains("\"witness\""));
}

#[test]
fn empty_edge_families_flow_through_the_cache_key_path_end_to_end() {
    // Guard the hex bitmap-word cache keys on the degenerate families: `{∅}`
    // (the constant-true DNF, `n=N:.`) and families mixing the empty edge
    // with real edges (`.;0,1`).  Permuted spellings of the same instance
    // must share one cache entry, and distinct degenerate families must not.
    // The originals and the re-asks are served in two calls on one engine:
    // the first call returns only after each original's result is cached,
    // so each re-ask finds the cache entry rather than a live flight.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });

    // Wire → request → canonical key: permutations agree, `{∅}` ≠ `∅`.
    let empties = qld_engine::wire::parse_request("enumerate n=3:.;0,1").unwrap();
    let permuted = qld_engine::wire::parse_request("enumerate n=3:0,1;.").unwrap();
    assert_eq!(empties.cache_key(), permuted.cache_key());
    let true_dnf = qld_engine::wire::parse_request("enumerate n=3:.").unwrap();
    let edgeless = qld_engine::wire::parse_request("enumerate n=3:-").unwrap();
    assert_ne!(true_dnf.cache_key(), edgeless.cache_key());

    // End-to-end over the serve loop: the permuted re-ask is a cache hit.
    let originals = "check n=3:. n=3:-\nenumerate n=3:.;0,1\n";
    let re_asks = "enumerate n=3:0,1;.\ncheck n=3:. n=3:-\n";
    let mut output = Vec::new();
    for input in [originals, re_asks] {
        let summary = engine.serve(input.as_bytes(), &mut output).unwrap();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 0);
    }
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    // tr({∅}) = ∅, so `{∅}` and the edgeless family are dual.
    assert!(lines[0].contains("\"dual\":true"), "{}", lines[0]);
    // ∅ absorbs {0,1}: the minimized family is `{∅}`, whose transversal
    // family is empty — both spellings, the second from the cache.
    for line in &lines[1..=2] {
        assert!(line.contains("\"complete\":true"), "{line}");
        assert!(line.contains("\"count\":0"), "{line}");
    }
    assert!(lines[1].contains("\"cache_hit\":false"), "{}", lines[1]);
    assert!(lines[2].contains("\"cache_hit\":true"), "{}", lines[2]);
    assert!(lines[3].contains("\"cache_hit\":true"), "{}", lines[3]);
    // Exactly two distinct canonical keys were stored.
    assert_eq!(engine.cache_stats().entries, 2);
    assert_eq!(engine.cache_stats().hits, 2);
}
