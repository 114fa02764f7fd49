//! Integration tests for the streaming job pipeline (wire protocol v2):
//! chunk/done framing over the socket transport, cooperative cancellation
//! (wire `cancel id=N`, vanished sessions), per-session quotas, and the
//! property that a streamed enumeration reassembles into exactly the
//! one-shot result.

use proptest::prelude::*;
use qld_engine::{
    ChunkPayload, Engine, EngineConfig, Outcome, Request, ServeOptions, SolverKind, SolverPolicy,
    StopReason, StreamEvent, StreamItem, StreamRunOptions,
};
use qld_hypergraph::{generators, Hypergraph, VertexSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A policy that sleeps before every duality call, making jobs reliably slow
/// enough to cancel (or abandon) mid-run without depending on instance sizes.
struct SleepyPolicy(Duration);

impl SolverPolicy for SleepyPolicy {
    fn choose(&self, _g: &Hypergraph, _h: &Hypergraph) -> SolverKind {
        std::thread::sleep(self.0);
        SolverKind::BmTree
    }
    fn name(&self) -> &'static str {
        "sleepy"
    }
}

fn sleepy_engine(workers: usize, per_call: Duration) -> Engine {
    Engine::new(EngineConfig {
        workers,
        policy: Arc::new(SleepyPolicy(per_call)),
        ..EngineConfig::default()
    })
}

/// Collects a stream into (item chunks, progress chunk count, done response).
fn drain(
    handle: &qld_engine::StreamHandle,
    timeout: Duration,
) -> (Vec<StreamItem>, usize, qld_engine::Response) {
    let deadline = Instant::now() + timeout;
    let mut items = Vec::new();
    let mut progress = 0usize;
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .expect("stream did not finish within the bound");
        match handle.next_event_timeout(remaining) {
            Some(StreamEvent::Chunk(frame)) => match frame.payload {
                ChunkPayload::Item(item) => items.push(item),
                ChunkPayload::Progress(_) => progress += 1,
            },
            Some(StreamEvent::Done(response)) => return (items, progress, response),
            None => panic!("stream ended (or timed out) without a done frame"),
        }
    }
}

#[test]
fn streamed_enumeration_reassembles_into_the_one_shot_result() {
    let engine = Engine::with_defaults();
    let li = generators::matching_instance(5); // 32 minimal transversals
    let request = Request::EnumerateTransversals {
        g: li.g.clone(),
        limit: None,
    };
    // Stream first (fresh execution — progress checkpoints come from the
    // live loop; cache replays skip them), then compare with the one-shot.
    let handle = engine.run_streaming(request.clone(), StreamRunOptions::default());
    let (items, progress, done) = drain(&handle, Duration::from_secs(120));
    let oneshot = engine.run_one(request);
    assert_eq!(done.chunks, Some(items.len() as u64 + progress as u64));
    assert!(done.halted.is_none());
    let Ok(Outcome::Transversals {
        transversals,
        complete,
    }) = &done.outcome
    else {
        panic!("unexpected outcome {:?}", done.outcome);
    };
    assert!(complete);
    assert_eq!(done.outcome, oneshot.outcome);
    let mut streamed: Vec<Vec<usize>> = items
        .iter()
        .map(|item| match item {
            StreamItem::Transversal(t) => t.clone(),
            other => panic!("unexpected item {other:?}"),
        })
        .collect();
    assert_eq!(streamed.len(), 32);
    streamed.sort();
    let mut expected = transversals.clone();
    expected.sort();
    assert_eq!(streamed, expected);
    // 32 items → two progress checkpoints at the 16-item cadence.
    assert_eq!(progress, 2);
}

#[test]
fn cancelling_a_full_border_mine_stops_within_one_yield_boundary() {
    // Sleepy policy: every identification call takes ≥ 25ms, and the
    // pair-complement relation has 2^6 = 64 minimal infrequent itemsets, so a
    // full run would take ≥ 70 · 25ms ≈ 1.8s.  Cancelling after the first
    // chunk must finish the job at the *next* yield boundary — proven by a
    // wall-clock bound far below the full-run time.
    let engine = sleepy_engine(1, Duration::from_millis(25));
    let relation = pair_complement_relation(6);
    let handle = engine.run_streaming(
        Request::MineBorders {
            relation,
            threshold: 0,
            minimal_infrequent: Hypergraph::new(12),
            maximal_frequent: Hypergraph::new(12),
        },
        StreamRunOptions::default(),
    );
    // Wait for the first border advancement, then cancel.
    let first = handle
        .next_event_timeout(Duration::from_secs(60))
        .expect("first frame");
    assert!(matches!(first, StreamEvent::Chunk(_)));
    let cancelled_at = Instant::now();
    handle.cancel_token().cancel();
    let (items, _progress, done) = drain(&handle, Duration::from_secs(10));
    // One yield boundary: at most one more item may slip out between the
    // cancel and the job's next check.
    assert!(
        items.len() <= 2,
        "cancel took {} further items",
        items.len()
    );
    assert!(
        cancelled_at.elapsed() < Duration::from_secs(5),
        "cancel→done took {:?}",
        cancelled_at.elapsed()
    );
    assert_eq!(done.halted, Some(StopReason::Cancelled));
    let Ok(Outcome::FullBorders { complete, .. }) = &done.outcome else {
        panic!("unexpected outcome {:?}", done.outcome);
    };
    assert!(!complete);
}

/// The classical border-stress relation: over `2k` items, row `i` is the full
/// universe minus the pair `{2i, 2i+1}`.  At threshold 0 the maximal
/// frequent border is the `k` rows themselves and the minimal infrequent
/// border is the `2^k` transversals of the perfect matching.
fn pair_complement_relation(pairs: usize) -> qld_datamining::BooleanRelation {
    let n = 2 * pairs;
    qld_datamining::BooleanRelation::from_rows(
        n,
        (0..pairs)
            .map(|i| VertexSet::from_indices(n, (0..n).filter(|&v| v != 2 * i && v != 2 * i + 1))),
    )
}

#[test]
fn full_border_mine_agrees_with_dualize_and_advance() {
    let engine = Engine::with_defaults();
    let relation = qld_datamining::generators::random_relation(7, 18, 0.5, 41);
    let z = 4;
    let exact = qld_datamining::borders_exact(&relation, z);
    let response = engine.run_one(Request::MineBorders {
        relation: relation.clone(),
        threshold: z,
        minimal_infrequent: Hypergraph::new(7),
        maximal_frequent: Hypergraph::new(7),
    });
    let Ok(Outcome::FullBorders {
        maximal_frequent,
        minimal_infrequent,
        identification_calls,
        complete,
    }) = &response.outcome
    else {
        panic!("unexpected outcome {:?}", response.outcome);
    };
    assert!(complete);
    let expected_max: Vec<Vec<usize>> = exact
        .maximal_frequent
        .canonicalized()
        .edges()
        .iter()
        .map(|e| e.to_indices())
        .collect();
    let expected_min: Vec<Vec<usize>> = exact
        .minimal_infrequent
        .canonicalized()
        .edges()
        .iter()
        .map(|e| e.to_indices())
        .collect();
    assert_eq!(maximal_frequent, &expected_max);
    assert_eq!(minimal_infrequent, &expected_min);
    assert_eq!(
        *identification_calls,
        (expected_max.len() + expected_min.len()) as u64 + 1
    );
}

#[test]
fn streamed_full_border_mine_reassembles_into_the_one_shot_result() {
    // Cache off: the one-shot run executes again instead of replaying the
    // streamed run's cached answer.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        cache: false,
        ..EngineConfig::default()
    });
    let request = Request::MineBorders {
        relation: pair_complement_relation(4),
        threshold: 0,
        minimal_infrequent: Hypergraph::new(8),
        maximal_frequent: Hypergraph::new(8),
    };
    let handle = engine.run_streaming(request.clone(), StreamRunOptions::default());
    let (items, _, done) = drain(&handle, Duration::from_secs(120));
    let oneshot = engine.run_one(request);
    assert!(done.halted.is_none());
    assert_eq!(done.outcome, oneshot.outcome);
    let Ok(Outcome::FullBorders {
        maximal_frequent,
        minimal_infrequent,
        complete: true,
        ..
    }) = &done.outcome
    else {
        panic!("unexpected outcome {:?}", done.outcome);
    };
    // 4 maximal frequent rows and 2^4 minimal infrequent itemsets.
    assert_eq!((maximal_frequent.len(), minimal_infrequent.len()), (4, 16));
    let mut streamed: Vec<(bool, Vec<usize>)> = items
        .into_iter()
        .map(|item| match item {
            StreamItem::BorderElement { maximal, itemset } => (maximal, itemset),
            other => panic!("unexpected item {other:?}"),
        })
        .collect();
    streamed.sort();
    let mut terminal: Vec<(bool, Vec<usize>)> = maximal_frequent
        .iter()
        .map(|s| (true, s.clone()))
        .chain(minimal_infrequent.iter().map(|s| (false, s.clone())))
        .collect();
    terminal.sort();
    assert_eq!(streamed, terminal);
}

#[test]
fn streamed_cache_hits_replay_the_same_chunks() {
    let engine = Engine::with_defaults();
    let li = generators::matching_instance(3);
    let request = Request::EnumerateTransversals {
        g: li.g.clone(),
        limit: None,
    };
    let first = engine.run_streaming(request.clone(), StreamRunOptions::default());
    let (items_fresh, _, done_fresh) = drain(&first, Duration::from_secs(60));
    assert!(!done_fresh.stats.cache_hit);
    let second = engine.run_streaming(request, StreamRunOptions::default());
    let (items_hit, _, done_hit) = drain(&second, Duration::from_secs(60));
    assert!(done_hit.stats.cache_hit, "second stream must hit the cache");
    assert_eq!(done_fresh.outcome, done_hit.outcome);
    let mut fresh = items_fresh;
    let mut hit = items_hit;
    fresh.sort_by_key(|i| format!("{i:?}"));
    hit.sort_by_key(|i| format!("{i:?}"));
    assert_eq!(fresh, hit);
}

#[test]
fn max_items_quota_truncates_a_session_request() {
    let engine = Engine::with_defaults();
    let input = "enumerate 0,1;2,3;4,5 stream=1 id=q\n";
    let mut out = Vec::new();
    let options = ServeOptions {
        max_items: Some(2),
        ..ServeOptions::default()
    };
    let summary = engine
        .serve_with(input.as_bytes(), &mut out, &options)
        .unwrap();
    assert_eq!(summary.requests, 1);
    assert_eq!(summary.errors, 0);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let chunks: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"frame\":\"chunk\""))
        .collect();
    assert_eq!(chunks.len(), 2, "{text}");
    let done = lines
        .iter()
        .find(|l| l.contains("\"frame\":\"done\""))
        .expect("done frame");
    assert!(done.contains("\"halted\":\"max-items\""), "{done}");
    assert!(done.contains("\"complete\":false"), "{done}");
    assert!(done.contains("\"count\":2"), "{done}");
}

#[test]
fn max_inflight_quota_rejects_at_admission() {
    // One worker, slow calls: the first request is still running when the
    // second is admitted, so a quota of 1 must reject it with code `quota`.
    let engine = sleepy_engine(1, Duration::from_millis(20));
    let input = "enumerate 0,1;2,3;4,5 id=slow\ncheck 0,1 0;1 id=rejected\n";
    let mut out = Vec::new();
    let options = ServeOptions {
        max_inflight: Some(1),
        ..ServeOptions::default()
    };
    let summary = engine
        .serve_with(input.as_bytes(), &mut out, &options)
        .unwrap();
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.errors, 1);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("\"client_id\":\"slow\""), "{text}");
    let rejected = text
        .lines()
        .find(|l| l.contains("\"client_id\":\"rejected\""))
        .expect("rejected response");
    assert!(rejected.contains("\"code\":\"quota\""), "{rejected}");
    // The slow request itself still completed normally.
    let slow = text
        .lines()
        .find(|l| l.contains("\"client_id\":\"slow\""))
        .unwrap();
    assert!(slow.contains("\"ok\":true"), "{slow}");
}

#[test]
fn item_less_streamed_kinds_still_emit_a_done_frame() {
    // docs/WIRE.md: `stream=` is valid on every kind; kinds that yield no
    // items answer with zero chunks and a `done` frame a frame-reading
    // client can recognize as terminal.
    let engine = Engine::with_defaults();
    let input = "check 0,1 0;1 stream=1 id=c\nstats stream=1 id=s\ncancel id=99 stream=1\n";
    let mut out = Vec::new();
    let summary = engine
        .serve_with(input.as_bytes(), &mut out, &ServeOptions::default())
        .unwrap();
    assert_eq!(summary.requests, 3);
    let text = String::from_utf8(out).unwrap();
    assert!(!text.contains("\"frame\":\"chunk\""), "{text}");
    for line in text.lines() {
        assert!(line.contains("\"frame\":\"done\""), "{line}");
        assert!(line.contains("\"chunks\":0"), "{line}");
    }
}

#[test]
fn max_items_zero_only_gates_item_yielding_requests() {
    let engine = Engine::with_defaults();
    let input = "check 0,1 0;1 id=c\nkeys 1,2;1,3 id=k\nenumerate 0,1;2,3 id=e\n";
    let mut out = Vec::new();
    let options = ServeOptions {
        max_items: Some(0),
        ..ServeOptions::default()
    };
    let summary = engine
        .serve_with(input.as_bytes(), &mut out, &options)
        .unwrap();
    assert_eq!(summary.requests, 3);
    assert_eq!(summary.errors, 0);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Item-less kinds run to completion under any quota…
    assert!(lines[0].contains("\"dual\":true"), "{}", lines[0]);
    assert!(lines[1].contains("\"kind\":\"keys\""), "{}", lines[1]);
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
    // …while the enumeration stops before its first item.
    assert!(
        lines[2].contains("\"halted\":\"max-items\""),
        "{}",
        lines[2]
    );
    assert!(lines[2].contains("\"count\":0"), "{}", lines[2]);
}

#[test]
fn cancel_of_an_unknown_target_reports_cancelled_false() {
    let engine = Engine::with_defaults();
    let input = "cancel id=42\ncheck 0,1 0;1 id=after\n";
    let mut out = Vec::new();
    let summary = engine
        .serve_with(input.as_bytes(), &mut out, &ServeOptions::default())
        .unwrap();
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.errors, 0);
    let text = String::from_utf8(out).unwrap();
    let cancel = text.lines().next().unwrap();
    assert!(
        cancel.contains("\"kind\":\"cancel\",\"target\":42,\"cancelled\":false"),
        "{cancel}"
    );
    assert!(text.contains("\"client_id\":\"after\""), "{text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A streamed `EnumerateTransversals` reassembled from its chunks equals
    /// the one-shot result — same set of transversals, every one of them a
    /// minimal transversal of the (minimized) input — across random
    /// hypergraphs and both solvers.
    #[test]
    fn streamed_enumeration_equals_one_shot_across_solvers(
        edges in prop::collection::vec(prop::collection::vec(0usize..6, 1usize..=6), 1usize..=5),
    ) {
        let g = Hypergraph::from_edges(
            6,
            edges.into_iter().map(|e| VertexSet::from_indices(6, e)),
        );
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        for solver in [SolverKind::BmTree, SolverKind::QuadChain] {
            let request = Request::EnumerateTransversals { g: g.clone(), limit: None };
            let oneshot = engine.run_one(request.clone());
            let handle = engine.run_streaming(
                request,
                StreamRunOptions { solver: Some(solver), ..StreamRunOptions::default() },
            );
            let (items, _, done) = drain(&handle, Duration::from_secs(120));
            // The engine caches per solver; compare outcomes, not stats.
            let Ok(Outcome::Transversals { transversals, complete }) = &done.outcome else {
                panic!("unexpected outcome {:?}", done.outcome);
            };
            prop_assert!(*complete, "{solver:?}");
            let Ok(Outcome::Transversals { transversals: expected, .. }) = &oneshot.outcome else {
                panic!("unexpected one-shot outcome {:?}", oneshot.outcome);
            };
            let mut streamed: Vec<Vec<usize>> = items
                .iter()
                .map(|item| match item {
                    StreamItem::Transversal(t) => t.clone(),
                    other => panic!("unexpected item {other:?}"),
                })
                .collect();
            prop_assert_eq!(streamed.len(), expected.len());
            streamed.sort();
            let mut terminal = transversals.clone();
            terminal.sort();
            let mut expected = expected.clone();
            expected.sort();
            prop_assert_eq!(&streamed, &expected);
            prop_assert_eq!(&streamed, &terminal);
            // Minimality is preserved item by item.
            let minimized = g.minimize();
            for t in &streamed {
                let set = VertexSet::from_indices(minimized.num_vertices(), t.clone());
                prop_assert!(
                    minimized.is_minimal_transversal(&set),
                    "{t:?} is not a minimal transversal ({solver:?})"
                );
            }
        }
    }
}

#[cfg(unix)]
mod socket {
    use super::*;
    use qld_engine::SocketServer;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;

    fn temp_socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qld-stream-{}-{}.sock", tag, std::process::id()))
    }

    fn spawn_server(
        tag: &str,
        engine: &Arc<Engine>,
    ) -> (
        PathBuf,
        qld_engine::ShutdownHandle,
        std::thread::JoinHandle<std::io::Result<qld_engine::TransportSummary>>,
    ) {
        let path = temp_socket_path(tag);
        let _ = std::fs::remove_file(&path);
        let server = SocketServer::bind(&path).unwrap();
        let handle = server.shutdown_handle();
        let engine_ref = Arc::clone(engine);
        let runner = std::thread::spawn(move || server.run(&engine_ref, ServeOptions::default()));
        (path, handle, runner)
    }

    #[test]
    fn streamed_enumerate_emits_chunk_frames_before_done() {
        let engine = Arc::new(Engine::with_defaults());
        let (path, shutdown, runner) = spawn_server("enum", &engine);

        let mut stream = UnixStream::connect(&path).unwrap();
        // tr({01, 23}) has four minimal transversals (≥ 2, the acceptance
        // bar), so the stream must carry ≥ 2 chunk frames before done.
        stream
            .write_all(b"enumerate 0,1;2,3 stream=1 id=s0\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        let chunk_count = lines
            .iter()
            .filter(|l| l.contains("\"frame\":\"chunk\""))
            .count();
        assert_eq!(chunk_count, 4, "{lines:?}");
        // Chunk frames carry the correlation token and per-request sequence
        // numbers starting at 0.
        assert!(lines[0].contains("\"client_id\":\"s0\""), "{}", lines[0]);
        assert!(lines[0].contains("\"seq\":0"), "{}", lines[0]);
        assert!(lines[1].contains("\"seq\":1"), "{}", lines[1]);
        let done = lines.last().unwrap();
        assert!(done.contains("\"frame\":\"done\""), "{done}");
        assert!(done.contains("\"chunks\":4"), "{done}");
        assert!(done.contains("\"complete\":true"), "{done}");
        assert!(done.contains("\"count\":4"), "{done}");
        // Every frame of the stream answers request id 0.
        for line in &lines {
            assert!(line.starts_with("{\"id\":0,"), "{line}");
        }

        shutdown.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.requests, 1, "chunks must not count as requests");
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn wire_cancel_stops_an_inflight_stream_and_the_daemon_stays_healthy() {
        let engine = Arc::new(sleepy_engine(2, Duration::from_millis(25)));
        let (path, shutdown, runner) = spawn_server("cancel", &engine);

        let mut stream = UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // A full-border mine whose complete run would take ≥ 70 slow calls.
        let rel = "n=12:2,3,4,5,6,7,8,9,10,11;0,1,4,5,6,7,8,9,10,11;\
                   0,1,2,3,6,7,8,9,10,11;0,1,2,3,4,5,8,9,10,11;\
                   0,1,2,3,4,5,6,7,10,11;0,1,2,3,4,5,6,7,8,9";
        writeln!(stream, "mine {rel} z=0 full=true stream=1 id=big").unwrap();
        // Wait for the first chunk, then cancel the job mid-stream.
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"frame\":\"chunk\""), "{line}");
        let cancelled_at = Instant::now();
        writeln!(stream, "cancel id=0").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut saw_done = false;
        let mut saw_cancel_ack = false;
        for line in reader.lines() {
            let line = line.unwrap();
            if line.contains("\"frame\":\"done\"") {
                assert!(line.contains("\"halted\":\"cancelled\""), "{line}");
                assert!(line.contains("\"complete\":false"), "{line}");
                saw_done = true;
            }
            if line.contains("\"kind\":\"cancel\"") {
                assert!(line.contains("\"target\":0,\"cancelled\":true"), "{line}");
                saw_cancel_ack = true;
            }
        }
        assert!(saw_done && saw_cancel_ack);
        assert!(
            cancelled_at.elapsed() < Duration::from_secs(10),
            "cancel→drain took {:?}",
            cancelled_at.elapsed()
        );

        // The daemon is still healthy: a fresh connection gets stats + an
        // answer promptly.
        let mut probe = UnixStream::connect(&path).unwrap();
        probe.write_all(b"stats id=alive\n").unwrap();
        probe.shutdown(std::net::Shutdown::Write).unwrap();
        let stats_line = BufReader::new(probe).lines().next().unwrap().unwrap();
        assert!(stats_line.contains("\"kind\":\"stats\""), "{stats_line}");
        assert!(stats_line.contains("\"uptime_ms\""), "{stats_line}");

        shutdown.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.errors, 0);
        // mine + cancel + stats
        assert_eq!(summary.requests, 3);
    }

    /// Cancel edge cases keep stable, documented response shapes: cancelling
    /// an already-completed request, cancelling the same target twice,
    /// cancelling a never-assigned id, and cancelling a control line (a
    /// previous cancel) all answer `cancelled:false` — never an error, never
    /// silence.
    #[test]
    fn cancel_edge_cases_answer_with_stable_shapes() {
        let engine = Arc::new(Engine::with_defaults());
        let (path, shutdown, runner) = spawn_server("cancel-edges", &engine);

        let mut stream = UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(stream, "check 0,1 0;1 id=done").unwrap();
        // Wait for request 0 to complete before aiming cancels at it.
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.contains("\"client_id\":\"done\""), "{first}");
        assert!(first.contains("\"ok\":true"), "{first}");

        writeln!(stream, "cancel id=0").unwrap(); // already completed
        writeln!(stream, "cancel id=0").unwrap(); // duplicate of the above
        writeln!(stream, "cancel id=777").unwrap(); // never assigned
        writeln!(stream, "cancel id=1").unwrap(); // targets a cancel, not a job
        stream.shutdown(std::net::Shutdown::Write).unwrap();

        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 4, "{lines:#?}");
        for (line, (seq, target)) in lines.iter().zip([(1, 0), (2, 0), (3, 777), (4, 1)]) {
            assert!(line.starts_with(&format!("{{\"id\":{seq},")), "{line}");
            assert!(line.contains("\"ok\":true"), "{line}");
            assert!(line.contains("\"kind\":\"cancel\""), "{line}");
            assert!(
                line.contains(&format!("\"target\":{target},\"cancelled\":false")),
                "{line}"
            );
        }

        shutdown.shutdown();
        let summary = runner.join().unwrap().unwrap();
        // check + four cancels; a no-op cancel is not an error.
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn disconnected_session_drops_its_queued_jobs() {
        // Regression: a session that disconnects mid-batch used to leave its
        // queued jobs running to completion.  Completed jobs are cached, so
        // the cache entry count tells whether the abandoned jobs ran: with
        // the drop-on-disconnect path, almost none of the eight distinct
        // slow requests may finish.
        let engine = Arc::new(sleepy_engine(1, Duration::from_millis(15)));
        let (path, shutdown, runner) = spawn_server("disco", &engine);

        {
            let mut stream = UnixStream::connect(&path).unwrap();
            for limit in 1..=8 {
                // Distinct limits → distinct cache keys.
                writeln!(
                    stream,
                    "enumerate 0,1;2,3;4,5;6,7 stream=1 limit={limit} id=gone-{limit}"
                )
                .unwrap();
            }
            // Full close without reading anything: the session's next write
            // fails, which must cancel everything still in flight.
        }

        // A fresh client gets its (slow-policy: one call ≈ 15ms) answer even
        // though eight multi-call jobs were just abandoned ahead of it on a
        // single-worker pool.
        let started = Instant::now();
        let mut probe = UnixStream::connect(&path).unwrap();
        probe.write_all(b"check 0,1 0;1 id=probe\n").unwrap();
        probe.shutdown(std::net::Shutdown::Write).unwrap();
        let line = BufReader::new(probe).lines().next().unwrap().unwrap();
        assert!(line.contains("\"client_id\":\"probe\""), "{line}");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "probe took {:?}",
            started.elapsed()
        );

        // Give any stragglers a moment, then count what actually completed:
        // the probe's entry plus at most a couple of slow jobs that finished
        // before the disconnect was observed — far below all eight.
        std::thread::sleep(Duration::from_millis(300));
        let entries = engine.cache_stats().entries;
        assert!(
            entries <= 3,
            "queued jobs of a dead session ran to completion ({entries} cache entries)"
        );

        shutdown.shutdown();
        let _ = runner.join().unwrap();
    }
}
