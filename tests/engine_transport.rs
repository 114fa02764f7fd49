//! Integration tests for the daemon surface: the Unix-socket and TCP
//! transports with concurrent clients, out-of-order (`order=arrival`)
//! streaming, and the per-request `solver=` override on the wire.

use qld_engine::{Engine, EngineConfig, OrderMode, ServeOptions, SolverKind, SolverPolicy};
use qld_hypergraph::Hypergraph;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// An engine with `workers` pool threads and the default policy.
fn engine(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    })
}

#[cfg(unix)]
mod socket {
    use super::*;
    use qld_engine::SocketServer;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;

    fn temp_socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qld-test-{}-{}.sock", tag, std::process::id()))
    }

    /// One client session: connect, send `lines`, close the write side, read
    /// every response line until EOF.
    fn client_session(path: &PathBuf, lines: &[String]) -> Vec<String> {
        let mut stream = UnixStream::connect(path).unwrap();
        for line in lines {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
    }

    #[test]
    fn two_concurrent_clients_get_their_own_ordered_sessions() {
        let path = temp_socket_path("two-clients");
        let _ = std::fs::remove_file(&path);
        let eng = Arc::new(engine(4));
        let server = SocketServer::bind(&path).unwrap();
        let handle = server.shutdown_handle();
        let eng_ref = Arc::clone(&eng);
        let runner = thread::spawn(move || server.run(&eng_ref, ServeOptions::default()));

        const PER_CLIENT: usize = 20;
        // Every request kind, with a marker of its correct answer.
        const KINDS: [(&str, &str); 4] = [
            ("check 0,1;2,3 0,2;0,3;1,2;1,3", "\"dual\":true"),
            ("keys 1,2;1,3", "\"keys\":[[1]]"),
            ("enumerate 0,1;2,3 limit=3", "\"count\":3"),
            (
                "mine n=3:0,1;0,1;1,2 z=1 g=n=3:2 h=n=3:0,1",
                "\"status\":\"complete\"",
            ),
        ];
        let mut clients = Vec::new();
        for name in ["alice", "bob"] {
            let path = path.clone();
            clients.push(thread::spawn(move || {
                let lines: Vec<String> = (0..PER_CLIENT)
                    .map(|i| format!("{} id={name}-{i}", KINDS[i % KINDS.len()].0))
                    .collect();
                (name, client_session(&path, &lines))
            }));
        }
        for client in clients {
            let (name, responses) = client.join().unwrap();
            assert_eq!(responses.len(), PER_CLIENT, "{name}");
            for (i, line) in responses.iter().enumerate() {
                // Per-connection request IDs: every session counts from 0, in
                // input order, and the correlation token is echoed verbatim.
                assert!(
                    line.starts_with(&format!("{{\"id\":{i},\"client_id\":\"{name}-{i}\"")),
                    "{name} line {i}: {line}"
                );
                assert!(line.contains("\"ok\":true"), "{name} line {i}: {line}");
                let expected = KINDS[i % KINDS.len()].1;
                assert!(line.contains(expected), "{name} line {i}: {line}");
            }
        }
        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.connections, 2);
        assert_eq!(summary.requests, 2 * PER_CLIENT as u64);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn malformed_frames_fail_cleanly_without_killing_the_session() {
        let path = temp_socket_path("malformed");
        let _ = std::fs::remove_file(&path);
        let eng = Arc::new(engine(2));
        let server = SocketServer::bind(&path).unwrap();
        let handle = server.shutdown_handle();
        let eng_ref = Arc::clone(&eng);
        let runner = thread::spawn(move || server.run(&eng_ref, ServeOptions::default()));

        let responses = client_session(
            &path,
            &[
                "check 0,1 not-a-hypergraph-(".to_string(),
                "frobnicate everything".to_string(),
                "check 0,1;2,3 0,2;0,3;1,2;1,3".to_string(),
            ],
        );
        assert_eq!(responses.len(), 3);
        assert!(
            responses[0].contains("\"ok\":false") && responses[0].contains("\"code\":\"parse\"")
        );
        assert!(responses[1].contains("\"code\":\"parse\""));
        assert!(
            responses[2].contains("\"dual\":true"),
            "session must survive malformed frames: {}",
            responses[2]
        );
        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 2);
    }
}

mod tcp {
    use super::*;
    use qld_engine::TcpServer;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};

    /// One client session over TCP: connect, send `lines`, close the write
    /// side, read every response line until EOF.
    fn client_session(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for line in lines {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
    }

    #[test]
    fn tcp_sessions_mirror_socket_sessions() {
        let eng = Arc::new(engine(4));
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let eng_ref = Arc::clone(&eng);
        let runner = thread::spawn(move || server.run(&eng_ref, ServeOptions::default()));

        const PER_CLIENT: usize = 10;
        let mut clients = Vec::new();
        for name in ["carol", "dave"] {
            clients.push(thread::spawn(move || {
                let lines: Vec<String> = (0..PER_CLIENT)
                    .map(|i| format!("check 0,1;2,3 0,2;0,3;1,2;1,3 id={name}-{i}"))
                    .collect();
                (name, client_session(addr, &lines))
            }));
        }
        for client in clients {
            let (name, responses) = client.join().unwrap();
            assert_eq!(responses.len(), PER_CLIENT, "{name}");
            for (i, line) in responses.iter().enumerate() {
                assert!(
                    line.starts_with(&format!("{{\"id\":{i},\"client_id\":\"{name}-{i}\"")),
                    "{name} line {i}: {line}"
                );
                assert!(line.contains("\"dual\":true"), "{name} line {i}: {line}");
            }
        }
        handle.shutdown();
        let summary = runner.join().unwrap().unwrap();
        assert_eq!(summary.connections, 2);
        assert_eq!(summary.requests, 2 * PER_CLIENT as u64);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn tcp_arrival_order_override_works_on_the_wire() {
        let eng = Arc::new(engine(2));
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let eng_ref = Arc::clone(&eng);
        let runner = thread::spawn(move || {
            server.run(
                &eng_ref,
                ServeOptions {
                    order: OrderMode::Arrival,
                    ..ServeOptions::default()
                },
            )
        });
        let responses = client_session(
            addr,
            &["check 0,1 0;1 id=a".to_string(), "stats id=b".to_string()],
        );
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().any(|l| l.contains("\"client_id\":\"a\"")));
        assert!(responses.iter().any(|l| l.contains("\"kind\":\"stats\"")));
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }
}

/// A routing policy that sleeps on large instances, making "slow request"
/// deterministic for the ordering tests, then delegates to the tree solver.
struct SleepOnBigPolicy {
    /// Instances with combined volume at least this sleep before solving.
    volume_threshold: usize,
    delay: Duration,
}

impl SolverPolicy for SleepOnBigPolicy {
    fn choose(&self, g: &Hypergraph, h: &Hypergraph) -> SolverKind {
        if g.volume() + h.volume() >= self.volume_threshold {
            thread::sleep(self.delay);
        }
        SolverKind::BmTree
    }

    fn name(&self) -> &'static str {
        "sleep-on-big"
    }
}

/// The instance pair used by the ordering tests: request 0 is slow (big
/// matching instance trips the sleep), request 1 is fast.
fn slow_then_fast_input() -> String {
    // matching(4): 8 vertices, volume 8 per side — trips a threshold of 10.
    let big_g = "0,1;2,3;4,5;6,7";
    let big_h = "0,2,4,6;0,2,4,7;0,2,5,6;0,2,5,7;0,3,4,6;0,3,4,7;0,3,5,6;0,3,5,7;\
                 1,2,4,6;1,2,4,7;1,2,5,6;1,2,5,7;1,3,4,6;1,3,4,7;1,3,5,6;1,3,5,7"
        .replace(' ', "");
    format!("check {big_g} {big_h} id=slow\ncheck 0,1 0;1 id=fast\n")
}

fn sleepy_engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        cache: false,
        policy: Arc::new(SleepOnBigPolicy {
            volume_threshold: 10,
            delay: Duration::from_millis(200),
        }),
        ..EngineConfig::default()
    })
}

#[test]
fn input_order_holds_fast_responses_behind_slow_ones() {
    let mut out = Vec::new();
    let summary = sleepy_engine()
        .serve_with(
            slow_then_fast_input().as_bytes(),
            &mut out,
            &ServeOptions {
                order: OrderMode::Input,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    assert_eq!(summary.requests, 2);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"client_id\":\"slow\""), "{}", lines[0]);
    assert!(lines[1].contains("\"client_id\":\"fast\""), "{}", lines[1]);
}

#[test]
fn arrival_order_streams_fast_responses_past_slow_ones() {
    let mut out = Vec::new();
    let summary = sleepy_engine()
        .serve_with(
            slow_then_fast_input().as_bytes(),
            &mut out,
            &ServeOptions {
                order: OrderMode::Arrival,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    assert_eq!(summary.requests, 2);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The fast request (submitted second) must not be head-of-line-blocked.
    assert!(
        lines[0].contains("\"client_id\":\"fast\""),
        "arrival order did not stream the fast response first: {text}"
    );
    assert!(lines[1].contains("\"client_id\":\"slow\""), "{}", lines[1]);
    // Both answered correctly despite the reordering.
    for line in &lines {
        assert!(line.contains("\"dual\":true"), "{line}");
    }
}

#[test]
fn per_request_order_override_excludes_requests_from_the_ordered_stream() {
    // Session default is input order, but the *slow* request opts into
    // arrival emission, so the fast (ordered) response is written first and
    // the ordered stream is never blocked.
    let input = slow_then_fast_input().replace(" id=slow", " id=slow order=arrival");
    let mut out = Vec::new();
    sleepy_engine()
        .serve_with(
            input.as_bytes(),
            &mut out,
            &ServeOptions {
                order: OrderMode::Input,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"client_id\":\"fast\""),
        "order=arrival override was not honored: {text}"
    );
    assert!(lines[1].contains("\"client_id\":\"slow\""), "{}", lines[1]);
}

#[test]
fn per_request_solver_override_forces_the_named_solver() {
    let eng = engine(2);
    let input = "\
check 0,1;2,3 0,2;0,3;1,2;1,3 solver=quadlog-recompute
check 0,1;2,3 0,2;0,3;1,2;1,3 solver=tree
check 0,1;2,3 0,2;0,3;1,2;1,3
";
    let mut out = Vec::new();
    let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.errors, 0);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"solver\":\"quadlog-recompute\""),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"solver\":\"bm-tree\""), "{}", lines[1]);
    // The unforced request routes through the default size-threshold policy
    // (this instance is small, so it also lands on the tree solver) — but it
    // must be a distinct cache entry from the overridden ones.
    assert!(lines[2].contains("\"solver\":\"bm-tree\""), "{}", lines[2]);
    let entries = eng.cache_stats().entries;
    assert_eq!(
        entries, 3,
        "solver overrides must not share cache entries with routed requests"
    );
}

/// The readiness-loop (socket) sessions route sub-threshold checks inline
/// through [`qld_engine::ExecRoute::Local`], exactly like the threaded
/// feeder: same answers, nothing cached.
#[cfg(unix)]
mod socket_local_route {
    use super::*;
    use qld_engine::SocketServer;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    #[test]
    fn socket_session_answers_local_checks_inline() {
        let path =
            std::env::temp_dir().join(format!("qld-test-local-route-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let eng = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            local_threshold: usize::MAX,
            ..EngineConfig::default()
        }));
        let server = SocketServer::bind(&path).unwrap();
        let handle = server.shutdown_handle();
        let eng_ref = Arc::clone(&eng);
        let runner = thread::spawn(move || server.run(&eng_ref, ServeOptions::default()));

        let mut stream = UnixStream::connect(&path).unwrap();
        stream
            .write_all(
                b"check 0,1;2,3 0,2;0,3;1,2;1,3 id=local\ncheck 0,1;2,3 0,2;0,3;1,2 id=nondual\n",
            )
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains(r#""client_id":"local""#));
        assert!(lines[0].contains(r#""dual":true"#));
        assert!(lines[1].contains(r#""dual":false"#));
        // Inline answers never populate the engine cache.
        assert_eq!(eng.cache_stats().entries, 0);

        handle.shutdown();
        let _ = UnixStream::connect(&path); // wake the accept loop
        runner.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
