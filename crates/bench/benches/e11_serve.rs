//! E11 — serve-session throughput: a mixed wire-format workload streamed
//! through `Engine::serve_with`, a blocking driver over the same session
//! state machine (`SessionMux`) and submission path every socket connection
//! runs, comparing in-order emission with out-of-order (`arrival`)
//! streaming, and a tight LRU cache against the default capacity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qld_engine::{Engine, EngineConfig, OrderMode, ServeOptions};
use qld_harness::workloads;

fn bench_serve(c: &mut Criterion) {
    let input: String = workloads::engine_wire_lines(120)
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
    let requests = input.lines().count() as u64;
    let mut group = c.benchmark_group("e11_serve");
    group.throughput(Throughput::Elements(requests));
    for order in [OrderMode::Input, OrderMode::Arrival] {
        for (cache_name, cache_capacity) in [("lru64k", 65_536usize), ("lru16", 16)] {
            group.bench_with_input(
                BenchmarkId::new(
                    format!("order={}", order.name()),
                    format!("cache={cache_name}"),
                ),
                &input,
                |b, input| {
                    b.iter(|| {
                        let engine = Engine::new(EngineConfig {
                            workers: 4,
                            cache_capacity,
                            ..EngineConfig::default()
                        });
                        let mut out = Vec::with_capacity(1 << 16);
                        let summary = engine
                            .serve_with(
                                input.as_bytes(),
                                &mut out,
                                &ServeOptions {
                                    order,
                                    ..ServeOptions::default()
                                },
                            )
                            .expect("serve session");
                        assert_eq!(summary.requests, requests);
                        criterion::black_box(out)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = qld_bench::quick();
    targets = bench_serve
}
criterion_main!(benches);
