//! Protocol-torture tests for the epoll readiness-loop transport: every wire
//! fixture replayed through randomized partial writes (proptest-driven split
//! points) and one-byte drips, slow-consumer and never-reading clients,
//! mid-frame disconnects, and a scaled-down C10k soak asserting no chunk
//! loss, no reorder within a stream, and bounded buffering.
//!
//! The whole suite targets the real daemon surface — accepted socket
//! connections serviced by `SocketServer::run` — so on Linux it exercises the
//! readiness loop's line assembly, write-buffer coalescing, and fairness
//! paths, and on other Unixes the thread-per-session fallback must pass the
//! identical contract.  One test replays the corpus through a pipe session
//! (`Engine::serve_with`) as well and asserts it answers like the socket.

#![cfg(unix)]

use proptest::test_runner::TestRng;
use qld_engine::{Engine, EngineConfig, ServeOptions, SocketServer, TransportSummary};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The fixture corpus: every request shape `docs/WIRE.md` documents —
/// all four kinds, streaming, limits, `full=` loops, control requests,
/// malformed lines, comments, salvaged ids, and `auth=`.
const WIRE_FIXTURES: &[&str] = &[
    "check 0,1;2,3 0,2;0,3;1,2;1,3 id=dual",
    "check 0,1 0;1 id=selfdual",
    "check n=3:- n=3:. id=edgecase",
    "check 0,1;2,3 0,2;0,3;1,2 id=notdual",
    "enumerate 0,1;2,3 id=enum",
    "enumerate 0,1;2,3 limit=2 id=cutoff",
    "enumerate 0,1;2,3;4,5 stream=1 id=streamed",
    "mine 1,2;1,3;2,3 z=1 id=mine",
    "mine 1,2;1,3;2,3 z=1 full=true id=minefull",
    "mine 1,2;1,3;2,3 z=1 full=true stream=true id=minefull-s",
    "keys 1,2,3;1,2,4 id=keys",
    "check 0,1;2,3 0,2;0,3;1,2;1,3 auth=alice id=authed",
    "cancel id=999",
    "# a comment line produces no response",
    "",
    "frobnicate everything id=bad",
    "check 0,1 not-a-hypergraph-( id=salvaged",
    "check 0,1 0;1 auth= id=empty-auth",
    "keys 1,2;1,3 id=tail",
];

fn temp_socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qld-torture-{}-{}.sock", tag, std::process::id()))
}

/// A running daemon for one test: single-worker and cache-less where
/// determinism matters, plus its shutdown plumbing.
struct Daemon {
    path: PathBuf,
    handle: qld_engine::ShutdownHandle,
    runner: thread::JoinHandle<std::io::Result<TransportSummary>>,
}

impl Daemon {
    fn start(tag: &str, config: EngineConfig, options: ServeOptions) -> Daemon {
        let path = temp_socket_path(tag);
        let _ = std::fs::remove_file(&path);
        let engine = Arc::new(Engine::new(config));
        let server = SocketServer::bind(&path).unwrap();
        let handle = server.shutdown_handle();
        let runner = thread::spawn(move || server.run(&engine, options));
        Daemon {
            path,
            handle,
            runner,
        }
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.path).unwrap()
    }

    fn stop(self) -> TransportSummary {
        self.handle.shutdown();
        self.runner.join().unwrap().unwrap()
    }
}

/// Deterministic engine for byte-identical replay comparisons: one worker
/// (so completion order is submission order) and no cache (so a replayed
/// stream is re-discovered, not replayed canonically from the cache).
fn deterministic_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        cache: false,
        ..EngineConfig::default()
    }
}

/// Sends `input` over one connection in the given write chunks, half-closes,
/// and reads every response line until EOF.
fn session_chunked(daemon: &Daemon, input: &[u8], chunks: &[usize]) -> Vec<String> {
    let mut stream = daemon.connect();
    let mut sent = 0;
    for &chunk in chunks {
        let end = (sent + chunk.max(1)).min(input.len());
        if end > sent {
            stream.write_all(&input[sent..end]).unwrap();
            sent = end;
        }
    }
    if sent < input.len() {
        stream.write_all(&input[sent..]).unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
}

/// Strips the volatile tail of a response line so byte comparison sees only
/// the protocol-determined part: per-request `stats` telemetry (timings,
/// worker shard) and the counters of a `stats`-kind payload vary run to run.
fn normalize(line: &str) -> String {
    let cut = line
        .find(",\"stats\":{")
        .or_else(|| line.find("\"kind\":\"stats\"").map(|i| i + 14))
        .unwrap_or(line.len());
    line[..cut].to_string()
}

/// Groups a session's normalized response lines by request sequence number.
/// Frames of *different* requests may legitimately interleave differently
/// from run to run (streamed chunks and control acks emit on arrival), but
/// within one request the frame sequence — every chunk in order, then the
/// terminal frame — must be byte-identical however the input was split.
fn by_request(lines: &[String]) -> std::collections::BTreeMap<u64, Vec<String>> {
    let mut map: std::collections::BTreeMap<u64, Vec<String>> = std::collections::BTreeMap::new();
    for line in lines {
        map.entry(field_u64(line, "\"id\":"))
            .or_default()
            .push(normalize(line));
    }
    map
}

/// The whole corpus as one input blob.
fn corpus_input() -> Vec<u8> {
    let mut input = Vec::new();
    for line in WIRE_FIXTURES {
        input.extend_from_slice(line.as_bytes());
        input.push(b'\n');
    }
    input
}

#[test]
fn every_fixture_split_one_byte_at_a_time_answers_byte_identically() {
    let daemon = Daemon::start("drip", deterministic_config(), ServeOptions::default());
    let input = corpus_input();
    let whole = by_request(&session_chunked(&daemon, &input, &[input.len()]));
    assert!(
        whole.len() >= WIRE_FIXTURES.len() - 2,
        "fixture corpus looks under-answered: {whole:?}"
    );
    let dripped = by_request(&session_chunked(&daemon, &input, &vec![1; input.len()]));
    assert_eq!(whole, dripped, "one-byte drip changed the responses");
    daemon.stop();
}

#[test]
fn every_fixture_split_at_random_points_answers_byte_identically() {
    let daemon = Daemon::start("splits", deterministic_config(), ServeOptions::default());
    let input = corpus_input();
    let whole = by_request(&session_chunked(&daemon, &input, &[input.len()]));
    // Proptest-driven split points: the shim's deterministic stream makes
    // every run reproducible.
    let mut rng = TestRng::deterministic("transport_torture::random_splits");
    for case in 0..24 {
        let mut chunks = Vec::new();
        let mut remaining = input.len();
        while remaining > 0 {
            // Mostly tiny splits (1..8 bytes), occasionally large ones, so
            // both mid-token and mid-frame boundaries are hit.
            let cap = if rng.next_u64().is_multiple_of(4) {
                64
            } else {
                8
            };
            let take = (rng.next_u64() as usize % cap + 1).min(remaining);
            chunks.push(take);
            remaining -= take;
        }
        let split = by_request(&session_chunked(&daemon, &input, &chunks));
        assert_eq!(
            whole, split,
            "case {case}: split points {chunks:?} changed the responses"
        );
    }
    daemon.stop();
}

/// Pipe sessions (`Engine::serve_with` on a byte slice) and socket sessions
/// run the same session state machine: the whole corpus answers identically
/// through both.
#[test]
fn pipe_and_socket_sessions_answer_identically() {
    let input = corpus_input();
    let daemon = Daemon::start("parity", deterministic_config(), ServeOptions::default());
    let socket = by_request(&session_chunked(&daemon, &input, &[input.len()]));
    daemon.stop();
    let engine = Engine::new(deterministic_config());
    let mut out = Vec::new();
    engine
        .serve_with(&input[..], &mut out, &ServeOptions::default())
        .unwrap();
    let pipe: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(by_request(&pipe), socket, "pipe and socket sessions differ");
}

#[test]
fn a_slow_consumer_does_not_stall_other_sessions() {
    let daemon = Daemon::start(
        "slow",
        EngineConfig {
            workers: 2,
            cache: false,
            ..EngineConfig::default()
        },
        ServeOptions::default(),
    );
    // The slow consumer: a streamed enumerate with 2^6 = 64 transversals,
    // never reading a byte of it.
    let mut slow = daemon.connect();
    slow.write_all(b"enumerate 0,1;2,3;4,5;6,7;8,9;10,11 stream=1 id=slow\n")
        .unwrap();
    // Give the stream time to start producing into the session's buffers.
    thread::sleep(Duration::from_millis(100));

    // Ten fast sessions must answer promptly while the slow one sits there.
    let started = Instant::now();
    for i in 0..10 {
        let mut fast = daemon.connect();
        writeln!(fast, "check 0,1;2,3 0,2;0,3;1,2;1,3 id=fast{i}").unwrap();
        fast.shutdown(Shutdown::Write).unwrap();
        let lines: Vec<String> = BufReader::new(fast).lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"dual\":true"), "{}", lines[0]);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "fast sessions took {:?} behind a slow consumer",
        started.elapsed()
    );

    // The never-read stream is still deliverable: read it now and check
    // nothing was lost or reordered while it waited in the write buffer.
    slow.shutdown(Shutdown::Write).unwrap();
    let lines: Vec<String> = BufReader::new(slow).lines().map(|l| l.unwrap()).collect();
    assert_chunk_stream_intact(&lines, "slow", 64);
    daemon.stop();
}

/// Asserts a chunk stream arrived complete and in order: `seq` runs 0..n
/// with no gaps, and the done frame counts exactly n chunks.
fn assert_chunk_stream_intact(lines: &[String], client_id: &str, expect_items: usize) {
    let marker = format!("\"client_id\":\"{client_id}\"");
    let mut item_chunks = 0usize;
    let mut next_seq = 0usize;
    let mut done = None;
    for line in lines.iter().filter(|l| l.contains(&marker)) {
        if line.contains("\"frame\":\"chunk\"") {
            let seq: usize = field_u64(line, "\"seq\":") as usize;
            assert_eq!(seq, next_seq, "chunk reorder or loss: {line}");
            next_seq += 1;
            if line.contains("\"item\":") {
                item_chunks += 1;
            }
        } else if line.contains("\"frame\":\"done\"") {
            done = Some(line.clone());
        }
    }
    let done = done.unwrap_or_else(|| panic!("no done frame for {client_id}: {lines:?}"));
    assert_eq!(item_chunks, expect_items, "{done}");
    assert_eq!(
        field_u64(&done, "\"chunks\":") as usize,
        next_seq,
        "done frame disagrees with delivered chunks: {done}"
    );
    assert!(done.contains("\"complete\":true"), "{done}");
}

/// Extracts the number after `key` in a JSON line (fixture-grade parsing).
fn field_u64(line: &str, key: &str) -> u64 {
    let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}"));
    line[at + key.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn a_client_that_never_reads_is_killed_at_the_write_cap() {
    let daemon = Daemon::start(
        "deadbeat",
        EngineConfig {
            workers: 2,
            cache: false,
            ..EngineConfig::default()
        },
        ServeOptions {
            write_cap: Some(16 * 1024),
            ..ServeOptions::default()
        },
    );
    // A flood of cheap requests (the repeats are cache hits) whose responses
    // total ~1 MiB — far more than the 16 KiB cap plus whatever the kernel
    // socket buffer absorbs.  The client never reads a byte of it.
    let mut deadbeat = daemon.connect();
    let mut flood = Vec::new();
    for i in 0..4000 {
        flood.extend_from_slice(format!("check 0,1;2,3 0,2;0,3;1,2;1,3 id=hog{i}\n").as_bytes());
    }
    // The kill can land while the flood is still being written, so a broken
    // pipe here is already the expected outcome, not a failure.
    let _ = deadbeat.write_all(&flood);

    // The deadbeat never reads a byte.  The kill is observed from outside:
    // fresh probe connections watch the `connections` gauge until only the
    // probe itself is left, proving the over-cap session was dropped (and
    // the daemon survived it) with nothing left in flight.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let mut probe = daemon.connect();
        writeln!(probe, "stats").unwrap();
        let mut line = String::new();
        BufReader::new(probe.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        if field_u64(&line, "\"connections\":") == 1 && field_u64(&line, "\"inflight\":") == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "over-cap session was never killed: {line}"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // And the dead client's view: after the buffered bytes, EOF or a reset.
    deadbeat
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 65536];
    loop {
        match deadbeat.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("killed session should end in EOF or reset, got: {e}"),
        }
    }
    daemon.stop();
}

#[test]
fn mid_frame_disconnects_leave_the_daemon_serving() {
    let daemon = Daemon::start("midframe", deterministic_config(), ServeOptions::default());
    // A request line cut off mid-token, connection dropped.
    let mut partial = daemon.connect();
    partial.write_all(b"check 0,1;2,3 0,2;0,").unwrap();
    drop(partial);

    // A streamed request abandoned after the first chunk.
    let mut abandoned = daemon.connect();
    abandoned
        .write_all(b"enumerate 0,1;2,3;4,5 stream=1 id=gone\n")
        .unwrap();
    let mut reader = BufReader::new(abandoned.try_clone().unwrap());
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.contains("\"frame\":\"chunk\""), "{first}");
    drop(reader);
    drop(abandoned);

    // The daemon keeps answering new sessions correctly afterwards.
    for i in 0..3 {
        let mut stream = daemon.connect();
        writeln!(stream, "keys 1,2;1,3 id=after{i}").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"kind\":\"keys\""), "{}", lines[0]);
    }
    let summary = daemon.stop();
    assert_eq!(summary.connections, 5);
}

/// The scaled-down C10k soak: ≥1k concurrent connections — mostly idle, a
/// working subset streaming — with no chunk loss, no reorder within any
/// stream, a live `connections` gauge, and all buffers drained at the end.
#[test]
fn soak_a_thousand_concurrent_connections() {
    // Two fds per connection (client end + accepted end) live in this one
    // process; make sure the limit accommodates them on constrained CI.
    let limit = epoll::raise_nofile_limit(4096).unwrap();
    assert!(limit >= 4096, "nofile limit too low for the soak: {limit}");

    const IDLE: usize = 1000;
    const ACTIVE: usize = 24;
    const STREAM_ITEMS: usize = 8; // enumerate over 3 disjoint pairs: 2^3
    let daemon = Daemon::start(
        "soak",
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        ServeOptions::default(),
    );

    // A wall of idle connections: accepted, registered, never speaking.
    let idle: Vec<UnixStream> = (0..IDLE).map(|_| daemon.connect()).collect();

    // The connection gauge sees the wall (idle + probe).
    let mut probe = daemon.connect();
    writeln!(probe, "stats id=mid-soak").unwrap();
    let mut line = String::new();
    BufReader::new(probe.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(
        field_u64(&line, "\"connections\":") >= (IDLE + 1) as u64,
        "{line}"
    );
    drop(probe);

    // Active sessions: every one interleaves a stream with one-shot requests
    // over its own connection, concurrently with the whole idle wall.
    let workers: Vec<_> = (0..ACTIVE)
        .map(|c| {
            let path = daemon.path.clone();
            thread::spawn(move || {
                let mut stream = UnixStream::connect(&path).unwrap();
                write!(
                    stream,
                    "check 0,1;2,3 0,2;0,3;1,2;1,3 id=pre{c}\n\
                     enumerate 0,1;2,3;4,5 stream=1 id=s{c}\n\
                     keys 1,2;1,3 id=post{c}\n"
                )
                .unwrap();
                stream.shutdown(Shutdown::Write).unwrap();
                let lines: Vec<String> =
                    BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
                (c, lines)
            })
        })
        .collect();
    for worker in workers {
        let (c, lines) = worker.join().unwrap();
        assert!(
            lines.iter().any(
                |l| l.contains(&format!("\"client_id\":\"pre{c}\"")) // one-shot
                    && l.contains("\"dual\":true")
            ),
            "client {c}: {lines:?}"
        );
        assert_chunk_stream_intact(&lines, &format!("s{c}"), STREAM_ITEMS);
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("\"client_id\":\"post{c}\""))
                    && l.contains("\"kind\":\"keys\"")),
            "client {c}: {lines:?}"
        );
    }

    // Drop the wall; the daemon must notice every hangup and come back to a
    // single live connection with nothing in flight — i.e. no leaked session
    // state or buffers for a thousand vanished clients.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut end_probes = 0u64;
    loop {
        let mut probe = daemon.connect();
        end_probes += 1;
        writeln!(probe, "stats id=end").unwrap();
        let mut last = String::new();
        BufReader::new(probe.try_clone().unwrap())
            .read_line(&mut last)
            .unwrap();
        if field_u64(&last, "\"connections\":") == 1 && field_u64(&last, "\"inflight\":") == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "idle wall never drained: {last}");
        thread::sleep(Duration::from_millis(50));
    }

    let summary = daemon.stop();
    assert_eq!(
        summary.connections,
        (IDLE + ACTIVE) as u64 + 1 + end_probes,
        "unexpected connection total: {summary:?}"
    );
    assert_eq!(summary.errors, 0, "{summary:?}");
}
