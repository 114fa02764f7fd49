//! The experiment suite (E2–E17).
//!
//! Each function reproduces one of the paper claims listed in `DESIGN.md` /
//! `EXPERIMENTS.md` and returns a [`Table`]; the `experiments` binary prints them, and
//! the Criterion benches in `qld-bench` time the same workloads.

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

/// Identifiers of all experiments, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e16", "e17",
];

/// Runs one experiment by identifier (`"e2"` … `"e16"`).
pub fn run(id: &str) -> Option<Table> {
    match id {
        "e2" => Some(e2_tree_shape()),
        "e3" => Some(e3_space_scaling()),
        "e4" => Some(e4_solver_comparison()),
        "e5" => Some(e5_witnesses()),
        "e6" => Some(e6_guess_check()),
        "e7" => Some(e7_itemset_identification()),
        "e8" => Some(e8_additional_keys()),
        "e9" => Some(e9_coteries()),
        "e10" => Some(e10_engine_batch()),
        "e11" => Some(e11_socket_serve()),
        "e12" => Some(e12_hotpath()),
        "e13" => Some(e13_streaming()),
        "e14" => Some(e14_fleet()),
        "e16" => Some(e16_local()),
        "e17" => Some(e17_coalesce()),
        _ => None,
    }
}

/// Runs every experiment.
pub fn run_all() -> Vec<Table> {
    ALL_EXPERIMENTS.iter().filter_map(|id| run(id)).collect()
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

/// E10 — the batch query engine: throughput of a mixed batch (duality checks,
/// limited enumerations, border identifications, key enumerations) at growing
/// worker counts, with every run cross-checked against the single-worker,
/// cache-less baseline.
pub fn e10_engine_batch() -> Table {
    use qld_engine::{Engine, EngineConfig};

    let mut table = Table::new(
        "E10",
        "Engine batch throughput vs. workers (same answers as direct solver calls)",
        &[
            "workers",
            "cache",
            "requests",
            "errors",
            "total-ms",
            "req/s",
            "cache-hits",
            "matches-direct",
        ],
    );
    let requests = workloads::engine_batch(120);
    let baseline_engine = Engine::new(EngineConfig {
        workers: 1,
        cache: false,
        ..EngineConfig::default()
    });
    let baseline = baseline_engine.run_batch(requests.clone());

    let max_workers = std::thread::available_parallelism()
        .map_or(4, usize::from)
        .min(8);
    let mut worker_counts = vec![1, 2, 4, max_workers];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    for workers in worker_counts {
        for cache in [false, true] {
            let engine = Engine::new(EngineConfig {
                workers,
                cache,
                ..EngineConfig::default()
            });
            let started = Instant::now();
            let responses = engine.run_batch(requests.clone());
            let elapsed = started.elapsed();
            let matches = responses.len() == baseline.len()
                && responses
                    .iter()
                    .zip(&baseline)
                    .all(|(a, b)| a.outcome == b.outcome);
            let errors = responses.iter().filter(|r| !r.is_ok()).count();
            table.push_row(vec![
                workers.to_string(),
                if cache { "on" } else { "off" }.to_string(),
                responses.len().to_string(),
                errors.to_string(),
                f2(elapsed.as_secs_f64() * 1e3),
                f2(responses.len() as f64 / elapsed.as_secs_f64()),
                engine.cache_stats().hits.to_string(),
                mark(matches && errors == 0),
            ]);
        }
    }
    table
}

/// E11 — the daemon transport: throughput of concurrent clients on one Unix
/// socket, in input order and out-of-order (`order=arrival`), every client
/// checking that it received one successful answer per request on its own
/// connection.
pub fn e11_socket_serve() -> Table {
    let mut table = Table::new(
        "E11",
        "Socket daemon: concurrent clients on one shared worker pool",
        &[
            "clients",
            "order",
            "req/client",
            "requests",
            "errors",
            "total-ms",
            "req/s",
            "all-answered",
        ],
    );
    #[cfg(unix)]
    e11_fill(&mut table);
    #[cfg(not(unix))]
    table.push_row(vec![
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "(unix only)".into(),
    ]);
    table
}

#[cfg(unix)]
fn e11_fill(table: &mut Table) {
    use qld_engine::{Engine, EngineConfig, ServeOptions, SocketServer};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    const PER_CLIENT: usize = 60;
    let lines = Arc::new(workloads::engine_wire_lines(PER_CLIENT));
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let path = std::env::temp_dir().join(format!("qld-e11-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = match SocketServer::bind(&path) {
        Ok(s) => s,
        Err(e) => {
            table.push_row(vec![
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("bind failed: {e}"),
            ]);
            return;
        }
    };
    let shutdown = server.shutdown_handle();
    let engine_ref = Arc::clone(&engine);
    let runner = std::thread::spawn(move || server.run(&engine_ref, ServeOptions::default()));

    for clients in [1usize, 2, 4] {
        for order in ["input", "arrival"] {
            let started = Instant::now();
            let mut sessions = Vec::new();
            for _ in 0..clients {
                let path = path.clone();
                let lines = Arc::clone(&lines);
                sessions.push(std::thread::spawn(move || -> (usize, usize) {
                    let mut stream = UnixStream::connect(&path).expect("connect");
                    for (i, line) in lines.iter().take(PER_CLIENT).enumerate() {
                        // Exercise the per-request keywords: correlation ids
                        // everywhere, order override on every line.
                        writeln!(stream, "{line} id=c{i} order={order}").expect("send");
                    }
                    stream
                        .shutdown(std::net::Shutdown::Write)
                        .expect("half-close");
                    let mut answered = 0usize;
                    let mut errors = 0usize;
                    for response in BufReader::new(stream).lines() {
                        let response = response.expect("response line");
                        answered += 1;
                        if response.contains("\"ok\":false") {
                            errors += 1;
                        }
                    }
                    (answered, errors)
                }));
            }
            let mut requests = 0usize;
            let mut errors = 0usize;
            let mut all_answered = true;
            for session in sessions {
                let (answered, errs) = session.join().expect("client thread");
                all_answered &= answered == PER_CLIENT;
                requests += answered;
                errors += errs;
            }
            let elapsed = started.elapsed();
            table.push_row(vec![
                clients.to_string(),
                order.to_string(),
                PER_CLIENT.to_string(),
                requests.to_string(),
                errors.to_string(),
                f2(elapsed.as_secs_f64() * 1e3),
                f2(requests as f64 / elapsed.as_secs_f64()),
                mark(all_answered && errors == 0),
            ]);
        }
    }
    shutdown.shutdown();
    let _ = runner.join();
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

/// One measured streaming run: latency to the first item vs. the last, plus
/// the one-shot (non-streaming) wall time for the same request.
pub struct StreamingMeasurement {
    /// Workload label.
    pub name: String,
    /// Items the stream yielded.
    pub items: usize,
    /// Microseconds from submission to the first item chunk.
    pub first_item_us: f64,
    /// Microseconds from submission to the terminal `done` response.
    pub done_us: f64,
    /// Microseconds the same request takes one-shot (fresh engine, no cache).
    pub oneshot_us: f64,
    /// Whether the chunks reassembled into exactly the terminal result.
    pub agree: bool,
}

impl StreamingMeasurement {
    /// Time-to-first-result as a fraction of time-to-last (small is the
    /// whole point of streaming).
    pub fn first_fraction(&self) -> f64 {
        if self.done_us > 0.0 {
            self.first_item_us / self.done_us
        } else {
            1.0
        }
    }

    /// One JSON object for the `e13_stream` trajectory file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":{:?},\"items\":{},\"first_item_us\":{:.1},\"done_us\":{:.1},\
             \"oneshot_us\":{:.1},\"agree\":{}}}",
            self.name, self.items, self.first_item_us, self.done_us, self.oneshot_us, self.agree
        )
    }
}

/// Runs every streaming workload through a fresh cache-less engine and
/// measures time-to-first-item vs. time-to-last (shared by E13 and the
/// `e13_stream` bench).
pub fn measure_streaming() -> Vec<StreamingMeasurement> {
    use qld_engine::{
        ChunkPayload, Engine, EngineConfig, Outcome, StreamEvent, StreamItem, StreamRunOptions,
    };

    let mut out = Vec::new();
    for (name, request) in workloads::streaming_workloads() {
        // Cache off: both runs must actually execute, or the comparison is
        // replay-vs-replay.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            cache: false,
            ..EngineConfig::default()
        });
        let started = Instant::now();
        let handle = engine.run_streaming(request.clone(), StreamRunOptions::default());
        let mut first_item_us = 0.0f64;
        let mut items: Vec<StreamItem> = Vec::new();
        let mut done = None;
        while let Some(event) = handle.next_event() {
            match event {
                StreamEvent::Chunk(frame) => {
                    if let ChunkPayload::Item(item) = frame.payload {
                        if items.is_empty() {
                            first_item_us = started.elapsed().as_micros() as f64;
                        }
                        items.push(item);
                    }
                }
                StreamEvent::Done(response) => {
                    done = Some(response);
                    break;
                }
            }
        }
        let done_us = started.elapsed().as_micros() as f64;
        let done = done.expect("stream ended with a done frame");

        let oneshot_started = Instant::now();
        let oneshot = engine.run_one(request);
        let oneshot_us = oneshot_started.elapsed().as_micros() as f64;

        // Reassemble the chunks and compare against the terminal result.
        let mut streamed: Vec<String> = items.iter().map(|i| format!("{i:?}")).collect();
        streamed.sort();
        let mut terminal: Vec<String> = match &done.outcome {
            Ok(Outcome::Transversals { transversals, .. }) => transversals
                .iter()
                .map(|t| format!("{:?}", StreamItem::Transversal(t.clone())))
                .collect(),
            Ok(Outcome::FullBorders {
                maximal_frequent,
                minimal_infrequent,
                ..
            }) => maximal_frequent
                .iter()
                .map(|s| {
                    format!(
                        "{:?}",
                        StreamItem::BorderElement {
                            maximal: true,
                            itemset: s.clone()
                        }
                    )
                })
                .chain(minimal_infrequent.iter().map(|s| {
                    format!(
                        "{:?}",
                        StreamItem::BorderElement {
                            maximal: false,
                            itemset: s.clone()
                        }
                    )
                }))
                .collect(),
            other => panic!("unexpected streaming outcome {other:?}"),
        };
        terminal.sort();
        let agree =
            done.halted.is_none() && streamed == terminal && done.outcome == oneshot.outcome;
        out.push(StreamingMeasurement {
            name,
            items: items.len(),
            first_item_us,
            done_us,
            oneshot_us,
            agree,
        });
    }
    out
}

/// E13 — the streaming job pipeline: time-to-first-result vs. time-to-last
/// for streamed transversal enumeration and full-border identification, with
/// every run cross-checked (chunks reassemble into the terminal result, which
/// equals the one-shot answer).
pub fn e13_streaming() -> Table {
    let mut table = Table::new(
        "E13",
        "Streaming: time-to-first-item vs. time-to-last (chunks ≡ one-shot result)",
        &[
            "workload",
            "items",
            "first-item-us",
            "done-us",
            "first/done",
            "oneshot-us",
            "agree",
        ],
    );
    for m in measure_streaming() {
        table.push_row(vec![
            m.name.clone(),
            m.items.to_string(),
            f2(m.first_item_us),
            f2(m.done_us),
            f2(m.first_fraction()),
            f2(m.oneshot_us),
            mark(m.agree),
        ]);
    }
    table
}

/// One measured fleet configuration: a cold pass, a warm re-ask pass (cache
/// affinity), and — with two or more shards — the time to respawn a
/// SIGKILLed shard.
pub struct FleetMeasurement {
    /// Backend shard processes behind the router.
    pub shards: usize,
    /// Requests answered in the cold pass.
    pub requests: u64,
    /// Error responses across both passes.
    pub errors: u64,
    /// Cold-pass wall time in milliseconds.
    pub total_ms: f64,
    /// Cold-pass throughput through the router.
    pub req_per_s: f64,
    /// `cache_hit:true` responses in the warm re-ask pass; with
    /// consistent-hash affinity this equals `requests`.
    pub warm_hits: u64,
    /// Milliseconds from SIGKILLing a shard to its respawn accepting
    /// connections (negative when not measured, i.e. a single shard).
    pub recovery_ms: f64,
    /// Every request answered, no errors, full affinity, recovery worked.
    pub ok: bool,
}

impl FleetMeasurement {
    /// One JSON object for the `e14_front` trajectory file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shards\":{},\"requests\":{},\"errors\":{},\"total_ms\":{:.1},\
             \"req_per_s\":{:.1},\"warm_hits\":{},\"recovery_ms\":{:.1},\"ok\":{}}}",
            self.shards,
            self.requests,
            self.errors,
            self.total_ms,
            self.req_per_s,
            self.warm_hits,
            self.recovery_ms,
            self.ok
        )
    }
}

/// Finds the `qld` binary for spawning fleet shards: `$QLD_BIN` when set,
/// otherwise a `qld` next to (or one level above, for `deps/` executables)
/// the current executable.
pub fn locate_qld_binary() -> Option<std::path::PathBuf> {
    if let Some(path) = std::env::var_os("QLD_BIN") {
        let path = std::path::PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    for _ in 0..2 {
        let candidate = dir.join("qld");
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}

/// Measures shard-count scaling and crash recovery through an in-process
/// router over real `qld serve` shard processes (shared by E14 and the
/// `e14_front` bench).  Returns an empty vector when the platform has no
/// Unix sockets or the `qld` binary cannot be found.
pub fn measure_fleet() -> Vec<FleetMeasurement> {
    #[cfg(unix)]
    {
        measure_fleet_unix()
    }
    #[cfg(not(unix))]
    {
        Vec::new()
    }
}

#[cfg(unix)]
fn measure_fleet_unix() -> Vec<FleetMeasurement> {
    use qld_engine::SocketServer;
    use qld_front::{policy_from_name, session_handler, Fleet, FleetConfig, Router};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    let Some(binary) = locate_qld_binary() else {
        return Vec::new();
    };
    let lines = workloads::engine_wire_lines(40);

    let mut out = Vec::new();
    for shards in [1usize, 2] {
        let dir = std::env::temp_dir().join(format!("qld-e14-{}-{}", shards, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = FleetConfig::new(shards, binary.clone(), dir.join("shards"));
        config.probe_interval = Duration::from_millis(50);
        config.spec.workers = Some(2);
        let Ok(fleet) = Fleet::start(config) else {
            continue;
        };
        let policy = policy_from_name("hash", shards).expect("hash policy");
        let router = Router::new(Arc::clone(&fleet), policy, true);
        let socket = dir.join("front.sock");
        let Ok(server) = SocketServer::bind(&socket) else {
            fleet.shutdown();
            continue;
        };
        let shutdown = server.shutdown_handle();
        let runner = std::thread::spawn(move || server.run_with(Arc::new(session_handler(router))));

        // One pass of the workload over a fresh connection: returns
        // (answered, errors, cache hits).
        let pass = |tag: &str| -> (u64, u64, u64) {
            let mut stream = UnixStream::connect(&socket).expect("connect to front");
            for (i, line) in lines.iter().enumerate() {
                writeln!(stream, "{line} id={tag}-{i}").expect("send");
            }
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let (mut answered, mut errors, mut hits) = (0u64, 0u64, 0u64);
            for response in BufReader::new(stream).lines() {
                let response = response.expect("response line");
                answered += 1;
                if response.contains("\"ok\":false") {
                    errors += 1;
                }
                if response.contains("\"cache_hit\":true") {
                    hits += 1;
                }
            }
            (answered, errors, hits)
        };

        let started = Instant::now();
        let (requests, cold_errors, _) = pass("cold");
        let elapsed = started.elapsed();

        // The warm pass must hit every shard-side cache entry: affinity
        // keeps each key on the shard that computed it.
        let (warm_answered, warm_errors, warm_hits) = pass("warm");

        // Crash recovery: SIGKILL one shard, time the supervisor respawn.
        let (recovery_ms, recovered) = if shards >= 2 {
            let killed_at = Instant::now();
            let recovered =
                fleet.kill_shard(0).is_ok() && fleet.wait_available(0, Duration::from_secs(30));
            (killed_at.elapsed().as_secs_f64() * 1e3, recovered)
        } else {
            (-1.0, true)
        };

        shutdown.shutdown();
        let _ = runner.join();
        fleet.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        let errors = cold_errors + warm_errors;
        out.push(FleetMeasurement {
            shards,
            requests,
            errors,
            total_ms: elapsed.as_secs_f64() * 1e3,
            req_per_s: requests as f64 / elapsed.as_secs_f64().max(1e-9),
            warm_hits,
            recovery_ms,
            ok: requests == lines.len() as u64
                && warm_answered == lines.len() as u64
                && errors == 0
                && warm_hits == lines.len() as u64
                && recovered,
        });
    }
    out
}

/// E14 — the shard-fleet router: request throughput through the front at 1
/// vs. 2 shards, warm re-ask affinity (every key hits the shard that
/// computed it), and supervisor crash-recovery time.
pub fn e14_fleet() -> Table {
    let mut table = Table::new(
        "E14",
        "Fleet router: shard scaling, cache affinity, crash recovery",
        &[
            "shards",
            "requests",
            "errors",
            "total-ms",
            "req/s",
            "warm-hits",
            "recovery-ms",
            "all-ok",
        ],
    );
    let measurements = measure_fleet();
    if measurements.is_empty() {
        table.push_row(vec![
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "(needs unix sockets and a built `qld` binary)".into(),
        ]);
        return table;
    }
    for m in measurements {
        table.push_row(vec![
            m.shards.to_string(),
            m.requests.to_string(),
            m.errors.to_string(),
            f2(m.total_ms),
            f2(m.req_per_s),
            m.warm_hits.to_string(),
            if m.recovery_ms < 0.0 {
                "-".into()
            } else {
                f2(m.recovery_ms)
            },
            mark(m.ok),
        ]);
    }
    table
}

/// One small duality instance asked one-shot through both execution routes:
/// the persistent worker pool and the in-process local route
/// (`EngineConfig::local_threshold`).
pub struct LocalMeasurement {
    /// Workload label.
    pub name: String,
    /// The request's [`qld_engine::Request::local_work`] routing estimate.
    pub work: usize,
    /// Mean per-ask latency through the pool round-trip, microseconds.
    pub pool_us: f64,
    /// Mean per-ask latency through the in-process route, microseconds.
    pub local_us: f64,
    /// The local answer matched the pool answer and bypassed the cache.
    pub matches: bool,
}

impl LocalMeasurement {
    /// Pool latency over local latency — above 1 the local route wins.
    pub fn speedup(&self) -> f64 {
        self.pool_us / self.local_us.max(1e-9)
    }

    /// One JSON object for the bench trajectory file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"work\":{},\"pool_us\":{:.2},\"local_us\":{:.2},\"speedup\":{:.2},\"matches\":{}}}",
            self.name,
            self.work,
            self.pool_us,
            self.local_us,
            self.speedup(),
            self.matches
        )
    }
}

/// Shared by E16 and the `e16_local` bench: sub-threshold one-shot duality
/// checks on two single-worker engines that differ only in
/// `local_threshold` — `0` (everything through the pool) vs. `usize::MAX`
/// (every `check` answered inline on the submitting thread).  Caches are off
/// on both, so each ask pays the full decision; the difference is purely the
/// submission path (queue hop, worker wakeup, cache-key render).  Every local
/// answer is cross-checked against the pool answer.
pub fn measure_local(iters: usize) -> Vec<LocalMeasurement> {
    use qld_engine::{Engine, EngineConfig, Request};
    use qld_hypergraph::generators;

    let mut instances: Vec<(String, Request)> = Vec::new();
    for scale in [2usize, 3, 4] {
        let li = generators::matching_instance(scale);
        instances.push((
            format!("matching-{scale}"),
            Request::DecideDuality { g: li.g, h: li.h },
        ));
    }
    let li = generators::matching_instance(3);
    let mut broken = li.h.clone();
    broken.remove_edge(1);
    instances.push((
        "matching-3-broken".to_string(),
        Request::DecideDuality { g: li.g, h: broken },
    ));

    let make = |local_threshold: usize| {
        Engine::new(EngineConfig {
            workers: 1,
            cache: false,
            local_threshold,
            ..EngineConfig::default()
        })
    };
    let pool_engine = make(0);
    let local_engine = make(usize::MAX);

    let iters = iters.max(1);
    let mut out = Vec::new();
    for (name, request) in instances {
        let work = request.local_work().unwrap_or(0);
        // One warm-up ask per engine doubles as the agreement check.
        let base = pool_engine.run_one(request.clone());
        let inline = local_engine.run_one(request.clone());
        let matches = base.is_ok() && base.outcome == inline.outcome && !inline.stats.cache_hit;
        let time = |engine: &Engine| {
            let started = Instant::now();
            for _ in 0..iters {
                let response = engine.run_one(request.clone());
                assert!(response.is_ok(), "{name}: ask failed during timing");
            }
            started.elapsed().as_secs_f64() * 1e6 / iters as f64
        };
        let pool_us = time(&pool_engine);
        let local_us = time(&local_engine);
        out.push(LocalMeasurement {
            name,
            work,
            pool_us,
            local_us,
            matches,
        });
    }
    out
}

/// E16 — one-shot small-instance latency: the in-process local route
/// (answering sub-threshold `check`s on the session thread) vs. the pool
/// round-trip.  Agreement with the pool answer is part of the table.
pub fn e16_local() -> Table {
    let mut table = Table::new(
        "E16",
        "In-process local route vs. pool round-trip, one-shot small checks",
        &[
            "instance", "work", "pool-us", "local-us", "speedup", "matches",
        ],
    );
    for m in measure_local(40) {
        table.push_row(vec![
            m.name.clone(),
            m.work.to_string(),
            f2(m.pool_us),
            f2(m.local_us),
            f2(m.speedup()),
            mark(m.matches),
        ]);
    }
    table
}

/// One stampede configuration: `k` barrier-synced identical one-shot
/// requests against a fresh engine, with the single-flight layer on or off.
pub struct CoalesceMeasurement {
    /// Workload label.
    pub name: String,
    /// Concurrent duplicate requests in the stampede.
    pub k: usize,
    /// Whether the single-flight layer was enabled (`EngineConfig::coalesce`).
    pub coalesce: bool,
    /// Solver executions the stampede caused (duality decisions the policy
    /// was asked for — every duplicate that is neither coalesced nor a cache
    /// hit runs the solver itself).
    pub executions: u64,
    /// Flights led (`Engine::coalesce_stats().0`).
    pub flights: u64,
    /// Followers that attached to an in-flight leader instead of executing.
    pub coalesced: u64,
    /// Median per-request latency across the stampede, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: f64,
    /// Wall time for the whole stampede, milliseconds.
    pub wall_ms: f64,
    /// Every response succeeded with the same outcome as every other.
    pub matches: bool,
}

impl CoalesceMeasurement {
    /// One JSON object for the `e17_coalesce` trajectory file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"k\":{},\"coalesce\":{},\"executions\":{},\"flights\":{},\
             \"coalesced\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},\"wall_ms\":{:.2},\"matches\":{}}}",
            self.name,
            self.k,
            self.coalesce,
            self.executions,
            self.flights,
            self.coalesced,
            self.p50_us,
            self.p99_us,
            self.wall_ms,
            self.matches
        )
    }
}

/// The policy behind E17's stampedes: delays every duality decision by a
/// fixed amount (so the leader reliably holds its flight open while the
/// duplicates arrive) and counts its calls — with one duality decision per
/// `check`, the call count *is* the number of solver executions.
struct StampedePolicy {
    delay: std::time::Duration,
    calls: std::sync::atomic::AtomicU64,
}

impl qld_engine::SolverPolicy for StampedePolicy {
    fn choose(
        &self,
        _g: &qld_hypergraph::Hypergraph,
        _h: &qld_hypergraph::Hypergraph,
    ) -> qld_engine::SolverKind {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::thread::sleep(self.delay);
        qld_engine::SolverKind::BmTree
    }
    fn name(&self) -> &'static str {
        "stampede"
    }
}

/// Shared by E17 and the `e17_coalesce` bench: a stampede of `k` identical
/// one-shot duality checks released together by a barrier against a fresh
/// cached engine, once with the single-flight layer off and once with it on.
/// Each execution pays a fixed `per_call_ms` decision delay, so the leader
/// provably holds its flight open while the duplicates arrive.  With
/// coalescing on, the first miss leads and every concurrent duplicate either
/// attaches to the flight or hits the cache the leader filled — the solver
/// runs exactly once.  Every response is cross-checked against every other.
pub fn measure_coalesce(k: usize, per_call_ms: u64) -> Vec<CoalesceMeasurement> {
    use qld_engine::{Engine, EngineConfig, Request};
    use qld_hypergraph::generators;
    use std::sync::{Arc, Barrier};

    let li = generators::matching_instance(3);
    let request = Request::DecideDuality { g: li.g, h: li.h };
    let workers = std::thread::available_parallelism()
        .map_or(4, usize::from)
        .clamp(2, 8);

    let mut out = Vec::new();
    for coalesce in [false, true] {
        let policy = Arc::new(StampedePolicy {
            delay: std::time::Duration::from_millis(per_call_ms),
            calls: std::sync::atomic::AtomicU64::new(0),
        });
        let engine = Arc::new(Engine::new(EngineConfig {
            workers,
            cache: true,
            coalesce,
            policy: Arc::clone(&policy) as Arc<dyn qld_engine::SolverPolicy>,
            ..EngineConfig::default()
        }));
        let barrier = Arc::new(Barrier::new(k));
        let started = Instant::now();
        let threads: Vec<_> = (0..k)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                let request = request.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let asked = Instant::now();
                    let response = engine.run_one(request);
                    (asked.elapsed().as_micros() as f64, response)
                })
            })
            .collect();
        let mut latencies = Vec::with_capacity(k);
        let mut responses = Vec::with_capacity(k);
        for t in threads {
            let (us, response) = t.join().expect("stampede thread");
            latencies.push(us);
            responses.push(response);
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        latencies.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
        let matches = responses[0].is_ok()
            && responses
                .iter()
                .all(|r| r.is_ok() && r.outcome == responses[0].outcome);
        let (flights, coalesced) = engine.coalesce_stats();
        out.push(CoalesceMeasurement {
            name: "check-matching-3".to_string(),
            k,
            coalesce,
            executions: policy.calls.load(std::sync::atomic::Ordering::Relaxed),
            flights,
            coalesced,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            wall_ms,
            matches,
        });
    }
    out
}

/// Whether a pair of E17 rows (coalesce off, coalesce on) demonstrates the
/// single-flight win: the coalesced stampede executed the solver exactly
/// once, at least one duplicate actually attached to the flight, every
/// response agreed, and the uncoalesced run executed at least as often.
pub fn coalesce_wins(rows: &[CoalesceMeasurement]) -> bool {
    let off = rows.iter().find(|m| !m.coalesce);
    let on = rows.iter().find(|m| m.coalesce);
    match (off, on) {
        (Some(off), Some(on)) => {
            on.executions == 1
                && on.coalesced >= 1
                && on.matches
                && off.matches
                && off.executions >= on.executions
        }
        _ => false,
    }
}

/// E17 — single-flight request coalescing: a stampede of K identical
/// requests with the flight layer off vs. on.  Coalesced stampedes execute
/// the solver once; every duplicate gets a byte-identical answer.
pub fn e17_coalesce() -> Table {
    let mut table = Table::new(
        "E17",
        "Single-flight coalescing: K-duplicate stampede, flight layer off vs. on",
        &[
            "workload",
            "K",
            "coalesce",
            "executions",
            "flights",
            "coalesced",
            "p50-us",
            "p99-us",
            "wall-ms",
            "matches",
        ],
    );
    for m in measure_coalesce(8, 25) {
        table.push_row(vec![
            m.name.clone(),
            m.k.to_string(),
            if m.coalesce { "on" } else { "off" }.to_string(),
            m.executions.to_string(),
            m.flights.to_string(),
            m.coalesced.to_string(),
            f2(m.p50_us),
            f2(m.p99_us),
            f2(m.wall_ms),
            mark(m.matches),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_round_trip() {
        for id in ALL_EXPERIMENTS {
            assert!(run(id).is_some(), "{id} missing");
        }
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

    #[test]
    fn e16_local_route_agrees_with_pool() {
        let ms = measure_local(3);
        assert_eq!(ms.len(), 4);
        for m in &ms {
            assert!(m.matches, "{}: local answer diverged from pool", m.name);
            assert!(m.work > 0, "{}: no local_work estimate", m.name);
            assert!(m.pool_us > 0.0 && m.local_us > 0.0);
            assert!(m.to_json().contains("\"speedup\""), "{}", m.to_json());
        }
    }

    #[test]
    fn e17_coalesced_stampede_executes_once() {
        let ms = measure_coalesce(8, 25);
        assert_eq!(ms.len(), 2);
        let on = ms.iter().find(|m| m.coalesce).unwrap();
        assert_eq!(on.executions, 1, "coalesced stampede ran the solver twice");
        assert!(on.matches, "a follower's answer diverged");
        // One flight; every duplicate either attached to it or hit the
        // cache the leader filled — nothing executed on its own.
        assert_eq!(on.flights, 1);
        assert!(on.coalesced >= 1 && on.coalesced <= 7, "{}", on.coalesced);
        assert!(coalesce_wins(&ms), "verdict did not hold: {:?}", {
            ms.iter().map(|m| m.to_json()).collect::<Vec<_>>()
        });
        for m in &ms {
            assert!(m.to_json().contains("\"executions\""), "{}", m.to_json());
        }
    }

    #[test]
    fn e13_streams_agree_and_first_item_beats_done() {
        let t = e13_streaming();
        assert!(!t.is_empty());
        assert!(all_correctness_cells_pass(&t), "\n{}", t.render());
        for m in measure_streaming() {
            assert!(m.agree, "{}", m.name);
            assert!(m.items >= 12, "{}: too few items", m.name);
            assert!(
                m.first_item_us <= m.done_us,
                "{}: first item after done",
                m.name
            );
            let json = m.to_json();
            assert!(json.contains("\"first_item_us\""), "{json}");
        }
    }
}
