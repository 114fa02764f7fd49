//! Property tests for the engine's result cache.
//!
//! 1. Engine answers are independent of the cache: for random hypergraphs and
//!    batches containing duplicates, a cache-enabled engine must return
//!    outcome-for-outcome the same responses as a cache-less one (only the
//!    `cache_hit` stat may differ).
//! 2. The cache itself is a faithful LRU: against a naive reference model,
//!    any interleaving of inserts and lookups keeps at most `capacity`
//!    entries, evicts exactly the least-recently-used key, and counts every
//!    eviction.

use proptest::prelude::*;
use qld_engine::cache::{CachedResult, QueryCache};
use qld_engine::ops::ExecInfo;
use qld_engine::{Engine, EngineConfig, EngineError, Outcome, Request};
use qld_hypergraph::transversal::minimal_transversals;
use qld_hypergraph::{Hypergraph, VertexSet};

/// Strategy: a random simple hypergraph with non-empty edges over `n` vertices.
fn arb_simple_hypergraph(n: usize, max_edges: usize) -> impl Strategy<Value = Hypergraph> {
    prop::collection::vec(prop::collection::vec(0..n, 1..=n), 1..=max_edges).prop_map(
        move |edges| {
            Hypergraph::from_edges(n, edges.into_iter().map(|e| VertexSet::from_indices(n, e)))
                .minimize()
        },
    )
}

fn run_outcomes(
    cache: bool,
    workers: usize,
    requests: &[Request],
) -> Vec<Result<Outcome, EngineError>> {
    let engine = Engine::new(EngineConfig {
        workers,
        cache,
        queue_capacity: 4,
        ..EngineConfig::default()
    });
    engine
        .run_batch(requests.to_vec())
        .into_iter()
        .map(|r| r.outcome)
        .collect()
}

/// A trivial cached payload (the LRU model test only cares about keys).
fn payload() -> CachedResult {
    CachedResult {
        outcome: Ok(Outcome::Duality {
            dual: true,
            witness: None,
        }),
        info: ExecInfo::default(),
    }
}

/// Reference LRU: a recency-ordered key list (front = least recently used).
struct ModelLru {
    capacity: usize,
    keys: Vec<String>,
    evictions: u64,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru {
            capacity,
            keys: Vec::new(),
            evictions: 0,
        }
    }

    fn touch(&mut self, key: &str) -> bool {
        if let Some(pos) = self.keys.iter().position(|k| k == key) {
            let k = self.keys.remove(pos);
            self.keys.push(k);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, key: &str) {
        if self.touch(key) {
            return;
        }
        if self.keys.len() >= self.capacity {
            self.keys.remove(0);
            self.evictions += 1;
        }
        self.keys.push(key.to_string());
    }
}

/// The hex token of a spilled set renders words low-first with trailing zero
/// words trimmed; the exact strings at both ends of a 3-word universe pin the
/// encoding down (a change here silently splits every persisted cache).
#[test]
fn spilled_tokens_trim_trailing_zero_words() {
    let low = Hypergraph::from_edges(129, [VertexSet::from_indices(129, [0])]);
    let high = Hypergraph::from_edges(129, [VertexSet::from_indices(129, [128])]);
    let low_key = Request::EnumerateTransversals {
        g: low,
        limit: None,
    }
    .cache_key();
    let high_key = Request::EnumerateTransversals {
        g: high,
        limit: None,
    }
    .cache_key();
    assert_eq!(low_key, "enumerate n=129:1 limit=all");
    assert_eq!(high_key, "enumerate n=129:0.0.1 limit=all");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache keys are permutation-invariant at the word boundaries of the
    /// set representation: re-asking the same edge family with edges in a
    /// different order yields the byte-identical key at universes of
    /// 63/64/65/127/128/129 vertices (inline, exactly-one-word, and spilled
    /// multi-word sets, around both the 64- and 128-bit seams).
    #[test]
    fn cache_keys_canonical_at_word_boundaries(
        raw in prop::collection::vec(prop::collection::vec(0usize..129, 1usize..6), 1usize..5),
        rot in 0usize..4,
    ) {
        for n in [63usize, 64, 65, 127, 128, 129] {
            let edges: Vec<VertexSet> = raw
                .iter()
                .map(|e| VertexSet::from_indices(n, e.iter().map(|&v| v % n)))
                .collect();
            let g = Hypergraph::from_edges(n, edges.clone());
            let base = Request::DecideDuality { g: g.clone(), h: g.clone() }.cache_key();
            let mut reversed = edges.clone();
            reversed.reverse();
            let mut rotated = edges.clone();
            rotated.rotate_left(rot % edges.len());
            for perm in [reversed, rotated] {
                let pg = Hypergraph::from_edges(n, perm);
                let key = Request::DecideDuality { g: pg.clone(), h: pg }.cache_key();
                prop_assert!(
                    key == base,
                    "permuted re-ask split the cache at n={n}: {key} vs {base}"
                );
            }
        }
    }

    /// Cache-on and cache-off engines agree on batches with duplicates, and
    /// both agree with the exact dual for honest instances.
    #[test]
    fn cache_on_and_off_agree(
        g in arb_simple_hypergraph(5, 4),
        h in arb_simple_hypergraph(5, 4),
        limit in 1usize..6,
    ) {
        let dual = minimal_transversals(&g);
        let requests = vec![
            Request::DecideDuality { g: g.clone(), h: dual.clone() },
            Request::DecideDuality { g: g.clone(), h: h.clone() },
            Request::EnumerateTransversals { g: g.clone(), limit: Some(limit) },
            Request::EnumerateTransversals { g: g.clone(), limit: None },
            // exact duplicates: the cached run must still answer identically
            Request::DecideDuality { g: g.clone(), h: dual.clone() },
            Request::DecideDuality { g: g.clone(), h: h.clone() },
            Request::EnumerateTransversals { g: g.clone(), limit: Some(limit) },
        ];
        let cached = run_outcomes(true, 3, &requests);
        let uncached = run_outcomes(false, 1, &requests);
        prop_assert_eq!(&cached, &uncached);
        // spot-check semantic correctness of the shared answers
        match &cached[0] {
            Ok(Outcome::Duality { dual: is_dual, .. }) => prop_assert!(*is_dual),
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
        match &cached[3] {
            Ok(Outcome::Transversals { transversals, complete }) => {
                prop_assert!(*complete);
                prop_assert_eq!(transversals.len(), dual.num_edges());
            }
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }

    /// Permuting edges (same canonical instance) must share cache entries and
    /// still answer correctly.
    #[test]
    fn permuted_duplicates_share_cache_entries(g in arb_simple_hypergraph(5, 4)) {
        let dual = minimal_transversals(&g);
        let mut reversed_edges: Vec<VertexSet> = g.edges().to_vec();
        reversed_edges.reverse();
        let permuted = Hypergraph::from_edges(g.num_vertices(), reversed_edges);
        let requests = vec![
            Request::DecideDuality { g: g.clone(), h: dual.clone() },
            Request::DecideDuality { g: permuted, h: dual.clone() },
        ];
        let engine = Engine::new(EngineConfig { workers: 1, cache: true, ..EngineConfig::default() });
        let responses = engine.run_batch(requests);
        prop_assert_eq!(&responses[0].outcome, &responses[1].outcome);
        let stats = engine.cache_stats();
        let (flights, coalesced) = engine.coalesce_stats();
        prop_assert_eq!(stats.entries, 1);
        // One execution: the permuted spelling is served from the cache or
        // coalesced onto the first one's flight, depending on timing.
        prop_assert_eq!(flights, 1);
        prop_assert_eq!(stats.hits + coalesced, 1);
    }

    /// The LRU cache agrees with a naive reference model on every
    /// interleaving of inserts and lookups: capacity respected, the
    /// most-recently-used keys survive, the least-recently-used is evicted,
    /// and the eviction counter is exact.  Capacity 1 (the acceptance case)
    /// is included in the strategy range.
    #[test]
    fn lru_cache_matches_reference_model(
        capacity in 1usize..5,
        // Each op encodes (insert-or-lookup, key) in one draw, since the
        // offline proptest shim has no tuple strategies.
        ops in prop::collection::vec(0usize..16, 1usize..=64),
    ) {
        let cache = QueryCache::with_capacity(capacity);
        let mut model = ModelLru::new(capacity);
        for op in ops {
            let key = format!("k{}", op / 2);
            if op % 2 == 0 {
                cache.insert(key.clone(), payload());
                model.insert(&key);
            } else {
                let real_hit = cache.get(&key).is_some();
                let model_hit = model.touch(&key);
                prop_assert!(
                    real_hit == model_hit,
                    "lookup of {key} diverged from the model: cache={real_hit} model={model_hit}"
                );
            }
            let stats = cache.stats();
            prop_assert!(stats.entries as usize <= capacity, "capacity exceeded");
            prop_assert_eq!(stats.entries as usize, model.keys.len());
            prop_assert_eq!(stats.evictions, model.evictions);
        }
        // Post-condition: exactly the model's resident keys answer, and the
        // most recently used key always survived.
        if let Some(mru) = model.keys.last() {
            prop_assert!(cache.get(mru).is_some(), "MRU key {} missing", mru);
        }
    }
}
