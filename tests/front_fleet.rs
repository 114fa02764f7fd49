//! End-to-end tests of the `qld front` shard-fleet router: consistent-hash
//! cache affinity across real shard processes, byte-compatible streamed chunk
//! relay, cancel forwarding, crash respawn hot from snapshots,
//! retry-once-on-reroute by the canonical key, and cross-session coalescing
//! in the owning shard's flight table.
//!
//! The shards are real `qld serve` child processes (the binary built for this
//! test run); the router runs in-process so the tests can reach the fleet's
//! admin surface (`kill_shard`, `rolling_restart`, `wait_available`) directly.
//! The CLI-level behaviours (SIGTERM, SIGUSR1) are exercised by the CI fleet
//! smoke step.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qld_engine::wire::{self, ParsedLine};
use qld_engine::{Engine, EngineConfig, ServeOptions, ShutdownHandle, SocketServer};
use qld_front::{
    policy_from_name, session_handler, Fleet, FleetConfig, FleetView, HashAffinityPolicy, Router,
    ShardPolicy,
};

fn qld_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_qld"))
}

/// A fresh per-test scratch directory (sockets + shard cache snapshots).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qld-front-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `dir/qld-wrapper.sh`, a shard binary that runs `body` and then
/// execs the real `qld` with its arguments.  A child shell writes the file,
/// so no descriptor open for writing leaks into a process another test
/// thread forks meanwhile (exec would then fail with ETXTBSY).
fn wrapper_script(dir: &Path, body: &str) -> PathBuf {
    let path = dir.join("qld-wrapper.sh");
    let script = format!(
        "#!/bin/sh\n{body}\nexec '{}' \"$@\"\n",
        qld_binary().display()
    );
    let status = Command::new("/bin/sh")
        .arg("-c")
        .arg("printf '%s' \"$1\" > \"$2\" && chmod 755 \"$2\"")
        .arg("sh")
        .arg(&script)
        .arg(&path)
        .status()
        .expect("run /bin/sh");
    assert!(status.success(), "writing {}", path.display());
    path
}

/// An in-process router serving a real shard fleet on a Unix socket.
struct TestFront {
    fleet: Arc<Fleet>,
    socket: PathBuf,
    shutdown: ShutdownHandle,
    runner: Option<std::thread::JoinHandle<std::io::Result<qld_engine::TransportSummary>>>,
    dir: PathBuf,
}

impl TestFront {
    fn start(tag: &str, shards: usize) -> TestFront {
        TestFront::start_with_retry(tag, shards, true)
    }

    fn start_with_retry(tag: &str, shards: usize, retry: bool) -> TestFront {
        TestFront::start_with(tag, shards, retry, None)
    }

    fn start_with(
        tag: &str,
        shards: usize,
        retry: bool,
        user_quota: Option<Arc<qld_engine::UserBuckets>>,
    ) -> TestFront {
        let dir = scratch_dir(tag);
        let mut config = FleetConfig::new(shards, qld_binary(), dir.join("shards"));
        // Fast probes so load/crash detection does not dominate test time.
        config.probe_interval = Duration::from_millis(50);
        config.spec.workers = Some(2);
        let fleet = Fleet::start(config).expect("fleet start");
        let policy = policy_from_name("hash", shards).unwrap();
        let router = Router::with_user_quota(Arc::clone(&fleet), policy, retry, user_quota);
        let socket = dir.join("front.sock");
        let server = SocketServer::bind(&socket).expect("bind front socket");
        let shutdown = server.shutdown_handle();
        let runner = std::thread::spawn(move || server.run_with(Arc::new(session_handler(router))));
        TestFront {
            fleet,
            socket,
            shutdown,
            runner: Some(runner),
            dir,
        }
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.socket).expect("connect to front")
    }

    /// One client session: write everything, half-close, read all responses.
    fn ask(&self, lines: &str) -> Vec<String> {
        let mut stream = self.connect();
        stream.write_all(lines.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        BufReader::new(stream)
            .lines()
            .map(|line| line.unwrap())
            .collect()
    }

    /// Probes shard `index` directly (bypassing the router) for its stats
    /// line — the ground truth for affinity and snapshot-restore assertions.
    fn shard_stats(&self, index: usize) -> String {
        let mut stream = self.fleet.connect(index).expect("connect to shard");
        stream.write_all(b"stats\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Stops the router (collecting its summary), then the fleet.
    fn stop(mut self) -> qld_engine::TransportSummary {
        self.shutdown.shutdown();
        let summary = self
            .runner
            .take()
            .unwrap()
            .join()
            .unwrap()
            .expect("router accept loop");
        self.fleet.shutdown();
        summary
    }
}

impl Drop for TestFront {
    fn drop(&mut self) {
        self.shutdown.shutdown();
        if let Some(runner) = self.runner.take() {
            let _ = runner.join();
        }
        self.fleet.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Extracts the unsigned integer following `marker` in a JSON line, e.g.
/// `field_u64(&stats, "\"hits\":")`.
fn field_u64(line: &str, marker: &str) -> u64 {
    let at = line
        .find(marker)
        .unwrap_or_else(|| panic!("no {marker} in {line}"));
    line[at + marker.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The `n=2p` pair-complement relation whose full border mine needs
/// `2^p + p + 2` identification calls — the knob for "slow enough to cancel
/// or kill mid-flight" (p = 6 runs ≈ 1 s in a debug build).
fn pair_complement_inline(pairs: usize) -> String {
    let n = 2 * pairs;
    let rows: Vec<String> = (0..pairs)
        .map(|i| {
            (0..n)
                .filter(|&v| v != 2 * i && v != 2 * i + 1)
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    format!("n={n}:{}", rows.join(";"))
}

/// Cuts the volatile tail (`,"stats":{...}`, per-run micros and worker ids)
/// off a done/response line so two runs can be compared byte-for-byte.
fn strip_stats(line: &str) -> &str {
    match line.find(",\"stats\":") {
        Some(at) => &line[..at],
        None => line,
    }
}

/// The consistent-hash affinity contract: the same canonical key — even under
/// a permuted re-ask from a different connection — lands on the same shard,
/// so the second ask is a cache hit, and exactly one shard owns the entry.
#[test]
fn permuted_reask_hits_the_same_shards_cache() {
    let front = TestFront::start("affinity", 2);

    let first = front.ask("check 0,1;2,3 0,2;0,3;1,2;1,3 id=warm\n");
    assert_eq!(first.len(), 1);
    assert!(first[0].contains("\"dual\":true"), "{}", first[0]);
    assert!(first[0].contains("\"cache_hit\":false"), "{}", first[0]);
    assert!(first[0].contains("\"client_id\":\"warm\""), "{}", first[0]);

    // Permuted edge order, separate connection: same canonical cache key.
    let second = front.ask("check 2,3;0,1 1,3;1,2;0,3;0,2 id=hot\n");
    assert_eq!(second.len(), 1);
    assert!(second[0].contains("\"dual\":true"), "{}", second[0]);
    assert!(second[0].contains("\"cache_hit\":true"), "{}", second[0]);

    // Ground truth per shard: one shard saw the miss and then the hit, the
    // other saw nothing.
    let per_shard: Vec<(u64, u64)> = (0..2)
        .map(|i| {
            let stats = front.shard_stats(i);
            (
                field_u64(&stats, "\"hits\":"),
                field_u64(&stats, "\"misses\":"),
            )
        })
        .collect();
    let owners: Vec<usize> = (0..2).filter(|&i| per_shard[i].1 > 0).collect();
    assert_eq!(
        owners.len(),
        1,
        "affinity split across shards: {per_shard:?}"
    );
    assert_eq!(
        per_shard[owners[0]],
        (1, 1),
        "owner counters: {per_shard:?}"
    );

    // `stats` through the router stays protocol-shaped and carries the
    // serving-layer gauges.
    let stats = front.ask("stats id=s\n");
    assert_eq!(stats.len(), 1);
    assert!(stats[0].starts_with("{\"id\":0,"), "{}", stats[0]);
    assert!(stats[0].contains("\"client_id\":\"s\""), "{}", stats[0]);
    assert!(stats[0].contains("\"kind\":\"stats\""), "{}", stats[0]);
    assert!(stats[0].contains("\"inflight\":"), "{}", stats[0]);
    assert!(stats[0].contains("\"sessions\":"), "{}", stats[0]);

    // The other request kinds route the same way: each re-ask hits the cache
    // of the shard that computed it.
    let kinds = "enumerate 0,1;2,3 limit=3 id=e\n\
                 mine n=3:0,1;0,1;1,2 z=1 g=n=3:- h=n=3:0,1 id=m\n\
                 keys 1,2;1,3 id=k\n";
    for cache_hit in [false, true] {
        let answers = front.ask(kinds);
        assert_eq!(answers.len(), 3, "{answers:#?}");
        for answer in &answers {
            assert!(answer.contains("\"ok\":true"), "{answer}");
            assert!(
                answer.contains(&format!("\"cache_hit\":{cache_hit}")),
                "{answer}"
            );
        }
    }

    let summary = front.stop();
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.requests, 9);
}

/// Protocol transparency: a streamed session through the router produces the
/// same bytes as the engine served directly — chunk frames identical, the
/// done frame identical up to its volatile `stats` object.
#[test]
fn streamed_chunks_relay_byte_identically() {
    let front = TestFront::start("stream", 2);
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });

    // Each input is its own session on both sides, so the per-session ids
    // line up and cross-request ordering cannot blur the comparison.
    for input in [
        "enumerate 0,1;2,3;4,5 stream=1 id=q\n",
        "mine 0,1;0,1;1,2 z=1 stream=1 id=m\n",
        "check 0,1;2,3 0,2;0,3;1,2;1,3 id=c\n",
        "not a real command id=broken\n",
    ] {
        let via_front = front.ask(input);
        let mut out = Vec::new();
        engine
            .serve_with(input.as_bytes(), &mut out, &ServeOptions::default())
            .unwrap();
        let direct: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();

        assert_eq!(via_front.len(), direct.len(), "front: {via_front:#?}");
        for (routed, reference) in via_front.iter().zip(&direct) {
            if routed.contains("\"frame\":\"chunk\"") {
                assert_eq!(routed, reference);
            } else {
                assert_eq!(strip_stats(routed), strip_stats(reference));
            }
        }
    }

    let summary = front.stop();
    assert_eq!(summary.requests, 4);
}

/// Cancel forwarding: `cancel id=N` reaches the shard that owns request `N`,
/// the stream halts at a yield boundary, and the ack comes back with the
/// router-side id remapped.
#[test]
fn cancel_through_the_router_stops_the_shard_side_job() {
    let front = TestFront::start("cancel", 2);
    let mut stream = front.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let rel = pair_complement_inline(6);
    writeln!(stream, "mine {rel} z=0 full=true stream=1 id=big").unwrap();
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.contains("\"frame\":\"chunk\""), "{first}");
    assert!(first.starts_with("{\"id\":0,"), "{first}");

    writeln!(stream, "cancel id=0").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut saw_done = false;
    let mut saw_ack = false;
    for line in reader.lines() {
        let line = line.unwrap();
        if line.contains("\"frame\":\"done\"") {
            assert!(line.contains("\"halted\":\"cancelled\""), "{line}");
            assert!(line.contains("\"complete\":false"), "{line}");
            saw_done = true;
        }
        if line.contains("\"kind\":\"cancel\"") {
            assert!(line.starts_with("{\"id\":1,"), "{line}");
            assert!(line.contains("\"target\":0"), "{line}");
            assert!(line.contains("\"cancelled\":true"), "{line}");
            saw_ack = true;
        }
    }
    assert!(saw_done, "no done frame after cancel");
    assert!(saw_ack, "no cancel ack");

    // The shard-side job really stopped: the supervisor's load probes go
    // back to zero well before the full mine could have finished.
    let deadline = Instant::now() + Duration::from_secs(5);
    while front.fleet.loads().iter().any(|&l| l > 0) {
        assert!(Instant::now() < deadline, "shard still busy after cancel");
        std::thread::sleep(Duration::from_millis(20));
    }

    let summary = front.stop();
    assert_eq!(summary.errors, 0);
}

/// Crash recovery, hot: a rolling restart snapshots every shard's cache on
/// the way down, so even a later `kill -9` respawns into a shard that
/// answers the warmed key from its restored snapshot.
#[test]
fn killed_shard_respawns_hot_from_its_snapshot() {
    let front = TestFront::start("respawn", 2);

    let warm = front.ask("check 0,1;2,3 0,2;0,3;1,2;1,3 id=warm\n");
    assert!(warm[0].contains("\"cache_hit\":false"), "{}", warm[0]);
    let owner = (0..2)
        .find(|&i| field_u64(&front.shard_stats(i), "\"misses\":") > 0)
        .expect("some shard owns the key");

    // Rolling restart: graceful SIGTERM writes each shard's snapshot, and
    // every shard comes back accepting connections.
    front.fleet.rolling_restart().expect("rolling restart");
    assert!(front.fleet.availability().iter().all(|&up| up));
    let restarted = front.shard_stats(owner);
    assert!(
        restarted.contains("\"cache_restored\":true"),
        "owner restarted cold: {restarted}"
    );

    let hot = front.ask("check 2,3;0,1 1,3;1,2;0,3;0,2 id=hot\n");
    assert!(hot[0].contains("\"cache_hit\":true"), "{}", hot[0]);

    // Crash path: SIGKILL gives the owner no chance to snapshot, but the
    // supervisor respawns it from the file the rolling restart left behind.
    let generation_before = front.fleet.shards()[owner].generation();
    front.fleet.kill_shard(owner).expect("kill shard");
    assert!(
        front.fleet.wait_available(owner, Duration::from_secs(10)),
        "owner was not respawned"
    );
    assert!(front.fleet.shards()[owner].generation() > generation_before);
    assert!(front.fleet.total_respawns() >= 1);

    let after_crash = front.ask("check 0,1;2,3 0,2;0,3;1,2;1,3 id=after-crash\n");
    assert!(
        after_crash[0].contains("\"cache_hit\":true"),
        "respawned shard lost the snapshot: {}",
        after_crash[0]
    );

    let summary = front.stop();
    assert_eq!(summary.errors, 0);
}

/// Retry-once-on-reroute: killing the shard that holds a non-streamed
/// request mid-flight re-dispatches it to the survivor, and the client sees
/// one ordinary successful response.
#[test]
fn request_lost_to_a_dying_shard_is_retried_on_the_survivor() {
    let front = TestFront::start("retry", 2);
    let mut stream = front.connect();
    let reader = BufReader::new(stream.try_clone().unwrap());

    let rel = pair_complement_inline(6);
    writeln!(stream, "mine {rel} z=0 full=true id=lost").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    // Find the busy shard by direct stats probes (tighter than the
    // supervisor's own probe cadence), then SIGKILL it under the request.
    let deadline = Instant::now() + Duration::from_secs(10);
    let owner = loop {
        assert!(Instant::now() < deadline, "request never showed in flight");
        match (0..2).find(|&i| field_u64(&front.shard_stats(i), "\"inflight\":") > 0) {
            Some(busy) => break busy,
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    front.fleet.kill_shard(owner).expect("kill shard");

    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 1, "{lines:#?}");
    assert!(lines[0].starts_with("{\"id\":0,"), "{}", lines[0]);
    assert!(lines[0].contains("\"client_id\":\"lost\""), "{}", lines[0]);
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(lines[0].contains("\"kind\":\"mine_full\""), "{}", lines[0]);
    assert!(lines[0].contains("\"complete\":true"), "{}", lines[0]);

    let summary = front.stop();
    assert_eq!(summary.errors, 0);
}

/// The same loss with retry disabled (`--no-retry`): the client gets a
/// truthful `internal` error for the lost request instead of a silent stall.
#[test]
fn without_retry_a_lost_request_reports_a_stable_error() {
    let front = TestFront::start_with_retry("no-retry", 2, false);
    let mut stream = front.connect();
    let reader = BufReader::new(stream.try_clone().unwrap());

    let rel = pair_complement_inline(6);
    writeln!(stream, "mine {rel} z=0 full=true id=doomed").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let owner = loop {
        assert!(Instant::now() < deadline, "request never showed in flight");
        match (0..2).find(|&i| field_u64(&front.shard_stats(i), "\"inflight\":") > 0) {
            Some(busy) => break busy,
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    front.fleet.kill_shard(owner).expect("kill shard");

    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 1, "{lines:#?}");
    assert!(
        lines[0].contains("\"client_id\":\"doomed\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"ok\":false"), "{}", lines[0]);
    assert!(lines[0].contains("\"code\":\"internal\""), "{}", lines[0]);
    assert!(lines[0].contains("shard connection lost"), "{}", lines[0]);

    let _ = front.stop();
}

/// A slow consumer through the router: one session starts a streamed
/// enumerate and refuses to read while other sessions keep asking.  The
/// router's per-session relay (and the shard's readiness loop behind it)
/// must keep the fast sessions flowing, and the parked stream must still
/// arrive complete and in order once the client finally drains it.
#[test]
fn slow_consumer_through_the_router_does_not_stall_others() {
    let front = TestFront::start("slow-consumer", 2);

    // 2^6 = 64 transversals: enough chunk frames to park meaningful output
    // behind an unread socket, cheap enough to enumerate in a debug build.
    let mut slow = front.connect();
    writeln!(slow, "enumerate 0,1;2,3;4,5;6,7;8,9;10,11 stream=1 id=slow").unwrap();
    slow.shutdown(std::net::Shutdown::Write).unwrap();
    // Deliberately no reads from `slow` yet.

    let deadline = Instant::now() + Duration::from_secs(10);
    for i in 1..=10 {
        let fast = front.ask(&format!("check 0,{i} 0;{i} id=f{i}\n"));
        assert_eq!(fast.len(), 1, "fast session {i}: {fast:#?}");
        assert!(fast[0].contains("\"ok\":true"), "{}", fast[0]);
        assert!(
            Instant::now() < deadline,
            "fast sessions starved by the slow consumer"
        );
    }

    // Now drain the parked stream: every chunk, contiguous seq, then done.
    let lines: Vec<String> = BufReader::new(slow).lines().map(|l| l.unwrap()).collect();
    let chunks: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"frame\":\"chunk\""))
        .collect();
    for (expect, chunk) in chunks.iter().enumerate() {
        assert!(
            chunk.contains(&format!("\"seq\":{expect},")),
            "chunk out of order: wanted seq {expect} in {chunk}"
        );
    }
    let done = lines.last().expect("done frame");
    assert!(done.contains("\"frame\":\"done\""), "{done}");
    assert!(done.contains("\"complete\":true"), "{done}");
    assert!(done.contains("\"count\":64"), "{done}");
    // The done frame's own chunk tally matches what was relayed: nothing
    // lost, nothing duplicated while the stream sat unread.
    assert_eq!(
        field_u64(done, "\"chunks\":"),
        chunks.len() as u64,
        "{done}"
    );

    let summary = front.stop();
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.requests, 11);
}

/// Per-user fairness at the router: an `auth=`-tagged flood is throttled
/// before it reaches any shard, other users and anonymous sessions are
/// untouched, and every rejection still consumes its client-side `id`.
#[test]
fn auth_flood_is_throttled_at_the_router_without_touching_shards() {
    // Effectively no refill within the test: 2 admissions per user, period.
    let quota = Arc::new(qld_engine::UserBuckets::new(0.000_001, 2.0));
    let front = TestFront::start_with("auth", 2, true, Some(Arc::clone(&quota)));

    // Distinct cache keys per line so "reached a shard" is visible as a
    // cache miss in the fleet-wide counters.
    let mut input = String::new();
    for i in 0..6 {
        let v = i + 1;
        input.push_str(&format!("check 0,{v} 0;{v} auth=alice id=a{i}\n"));
    }
    input.push_str("check 0,7 0;7 auth=bob id=b0\n");
    input.push_str("check 0,8 0;8 id=anon\n");
    let lines = front.ask(&input);
    assert_eq!(lines.len(), 8, "{lines:#?}");

    let find = |tag: &str| -> &String {
        lines
            .iter()
            .find(|l| l.contains(&format!("\"client_id\":\"{tag}\"")))
            .unwrap_or_else(|| panic!("no response tagged {tag}: {lines:#?}"))
    };
    // alice: the burst of 2 admitted, the rest rejected with `quota`.
    let alice_ok = (0..6)
        .filter(|&i| find(&format!("a{i}")).contains("\"ok\":true"))
        .count();
    assert_eq!(alice_ok, 2, "{lines:#?}");
    for i in 0..6 {
        let line = find(&format!("a{i}"));
        if !line.contains("\"ok\":true") {
            assert!(
                line.contains("\"code\":\"quota\"") && line.contains("`alice`"),
                "{line}"
            );
        }
    }
    // bob and the anonymous client are untouched by alice's flood.
    assert!(find("b0").contains("\"ok\":true"), "{}", find("b0"));
    assert!(find("anon").contains("\"ok\":true"), "{}", find("anon"));

    // The throttled lines never reached a shard: across the fleet, only the
    // four admitted queries show up as cache misses.
    let total_misses: u64 = (0..2)
        .map(|i| field_u64(&front.shard_stats(i), "\"misses\":"))
        .sum();
    assert_eq!(total_misses, 4, "throttled requests leaked to a shard");

    let summary = front.stop();
    assert_eq!(summary.requests, 8);
    assert_eq!(summary.errors, 4);
}

/// The least-loaded and sticky policies also serve real traffic end-to-end
/// (their routing logic is unit-tested; this is the wiring check).
#[test]
fn alternate_policies_serve_traffic() {
    for policy_name in ["least-loaded", "sticky"] {
        let dir = scratch_dir(&format!("policy-{policy_name}"));
        let mut config = FleetConfig::new(2, qld_binary(), dir.join("shards"));
        config.probe_interval = Duration::from_millis(50);
        config.spec.workers = Some(1);
        let fleet = Fleet::start(config).expect("fleet start");
        let policy = policy_from_name(policy_name, 2).unwrap();
        let router = Router::new(Arc::clone(&fleet), policy, true);
        let socket = dir.join("front.sock");
        let server = SocketServer::bind(&socket).expect("bind front socket");
        let shutdown = server.shutdown_handle();
        let runner = std::thread::spawn(move || server.run_with(Arc::new(session_handler(router))));

        let mut stream = UnixStream::connect(&socket).unwrap();
        stream
            .write_all(b"check 0,1;2,3 0,2;0,3;1,2;1,3 id=p\nkeys 1,2;1,3 id=k\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 2, "{policy_name}: {lines:#?}");
        assert!(
            lines[0].contains("\"ok\":true"),
            "{policy_name}: {}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"ok\":true"),
            "{policy_name}: {}",
            lines[1]
        );

        shutdown.shutdown();
        runner.join().unwrap().unwrap();
        fleet.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Sums the integer field `marker` over every shard's `stats` line.
fn fleet_sum(front: &TestFront, shards: usize, marker: &str) -> u64 {
    (0..shards)
        .map(|i| field_u64(&front.shard_stats(i), marker))
        .sum()
}

/// Polls `done` every millisecond until it holds, failing after 5 s.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Reads a session's lines to end of file, with the time the last one came.
fn read_to_end_timed(reader: BufReader<UnixStream>) -> (Vec<String>, Instant) {
    let mut last = Instant::now();
    let lines = reader
        .lines()
        .map(|l| {
            last = Instant::now();
            l.unwrap()
        })
        .collect();
    (lines, last)
}

/// Reads a one-request session to end of file: its one answer line and the
/// time it came.
fn read_one_answer(stream: UnixStream) -> (String, Instant) {
    let (lines, done) = read_to_end_timed(BufReader::new(stream));
    assert_eq!(lines.len(), 1, "{lines:#?}");
    (lines.into_iter().next().unwrap(), done)
}

/// Cross-session single-flight through the front: K client sessions stampede
/// the same one-shot key; hash affinity sends every duplicate to the owning
/// shard, whose flight table executes it exactly once.  Every session gets
/// the same answer under its own correlation token.
#[test]
fn stampede_across_sessions_reaches_a_shard_exactly_once() {
    const K: usize = 6;
    let front = TestFront::start("stampede", 2);

    // Slow enough (≈1 s in a debug build) that all K dispatches land while
    // the leader's shard is still mining.
    let rel = pair_complement_inline(6);
    let barrier = Arc::new(std::sync::Barrier::new(K));
    let mut sessions = Vec::new();
    for i in 0..K {
        let socket = front.socket.clone();
        let line = format!("mine {rel} z=0 full=true id=s{i}\n");
        let barrier = Arc::clone(&barrier);
        sessions.push(std::thread::spawn(move || {
            let mut stream = UnixStream::connect(&socket).unwrap();
            barrier.wait();
            stream.write_all(line.as_bytes()).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 1, "session {i}: {lines:#?}");
            (i, lines.into_iter().next().unwrap())
        }));
    }
    let answers: Vec<(usize, String)> = sessions.into_iter().map(|t| t.join().unwrap()).collect();

    // One execution fleet-wide; every duplicate either coalesced onto it or,
    // arriving after it settled, hit its cache entry.  (`misses` would also
    // count worker-level followers, so it is not the execution count.)
    assert_eq!(fleet_sum(&front, 2, "\"flights\":"), 1, "one execution");
    assert_eq!(
        fleet_sum(&front, 2, "\"coalesced\":") + fleet_sum(&front, 2, "\"hits\":"),
        (K - 1) as u64,
        "every duplicate coalesced or hit"
    );

    // The same outcome for everyone, modulo the correlation token and the
    // per-request stats (a cache hit's differ from a follower's).
    let canonical: Vec<String> = answers
        .iter()
        .map(|(i, line)| strip_stats(line).replace(&format!(",\"client_id\":\"s{i}\""), ""))
        .collect();
    for (i, line) in canonical.iter().enumerate() {
        assert_eq!(line, &canonical[0], "session {i} diverged");
        assert!(line.starts_with("{\"id\":0,"), "{line}");
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(line.contains("\"complete\":true"), "{line}");
    }
    for (i, line) in &answers {
        assert!(
            line.contains(&format!("\"client_id\":\"s{i}\"")),
            "session {i} kept its own token: {line}"
        );
    }

    // Relayed stats lines keep the `front` object for `proto 2`; the router
    // keeps no flights of its own, so it reads zero.
    let stats = front.ask("stats\n");
    assert_eq!(stats.len(), 1);
    assert!(
        stats[0].contains("\"front\":{\"flights\":0,\"coalesced\":0}"),
        "{}",
        stats[0]
    );

    let summary = front.stop();
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.requests, (K + 1) as u64);
}

/// Leader promotion through the front: when the flight leader's client
/// cancels, it is answered at once, and the duplicate from another session
/// that coalesced onto it on the owning shard rides the same flight to the
/// complete answer.
#[test]
fn cancelled_leader_promotes_a_follower_session() {
    let front = TestFront::start("promote", 2);
    // The cancel must reach the leader's shard while the mine still runs.
    // From the leader's line to the cancel took 4-19 ms in a release build
    // (median 5 ms); p = 7 mines for about 0.85 s there (about 8 s in
    // debug), about 170x the median window.  p = 5 (about 9 ms) often
    // finished first.
    let rel = pair_complement_inline(7);

    // Session A leads the flight.  The cancel must find the leader
    // executing: a job cancelled while still queued on its shard answers
    // `ok:false` ("cancelled before execution").  A shard worker leads a
    // flight just before it executes.
    let mut a = front.connect();
    let a_reader = BufReader::new(a.try_clone().unwrap());
    writeln!(a, "mine {rel} z=0 full=true id=leader").unwrap();
    wait_for("the leader to reach a worker", || {
        fleet_sum(&front, 2, "\"flights\":") >= 1
    });

    // ...and session B's duplicate coalesces onto it on the same shard.
    let follower_line = format!("mine {rel} z=0 full=true id=dup\n");
    let socket = front.socket.clone();
    let b = std::thread::spawn(move || {
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream.write_all(follower_line.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        read_one_answer(stream)
    });
    wait_for("the follower to coalesce", || {
        fleet_sum(&front, 2, "\"coalesced\":") >= 1
    });

    // A cancels its own request: A gets the cancelled partial + the ack,
    // while the flight runs on for B.
    writeln!(a, "cancel id=0").unwrap();
    a.shutdown(std::net::Shutdown::Write).unwrap();
    let (a_lines, a_done) = read_to_end_timed(a_reader);
    // The cancelled terminal and the cancel ack may arrive in either order
    // (the shard answers the ack independently of the dying mine).
    assert_eq!(a_lines.len(), 2, "{a_lines:#?}");
    assert!(
        a_lines
            .iter()
            .any(|l| l.starts_with("{\"id\":0,") && l.contains("\"halted\":\"cancelled\"")),
        "{a_lines:#?}"
    );
    assert!(
        a_lines
            .iter()
            .any(|l| l.contains("\"kind\":\"cancel\"") && l.contains("\"cancelled\":true")),
        "{a_lines:#?}"
    );

    // B rides out the promotion to a complete, uncancelled answer, which
    // comes only after A's: A was answered when it detached, not when the
    // flight ended.
    assert!(
        fleet_sum(&front, 2, "\"inflight\":") >= 1,
        "the flight still runs after the cancelled leader's answer"
    );
    let (b_line, b_done) = b.join().unwrap();
    assert!(a_done < b_done, "the cancelled leader was answered late");
    assert!(b_line.contains("\"client_id\":\"dup\""), "{b_line}");
    assert!(b_line.contains("\"ok\":true"), "{b_line}");
    assert!(b_line.contains("\"complete\":true"), "{b_line}");
    assert!(!b_line.contains("\"halted\""), "{b_line}");

    let summary = front.stop();
    assert_eq!(summary.errors, 0);
}

/// Follower cancel through the front: a duplicate that coalesced onto
/// another session's flight on the owning shard and then cancels detaches
/// alone — it gets its own cancelled terminal and ack at once, while the
/// leader's session still gets the complete answer later.
#[test]
fn cancelled_duplicate_detaches_alone_through_the_front() {
    let front = TestFront::start("follower-cancel", 2);
    // Same timing budget as the promotion test above: the cancel must land
    // while the flight still runs.
    let rel = pair_complement_inline(7);

    // Session A leads the flight on a worker.
    let a_line = format!("mine {rel} z=0 full=true id=leader\n");
    let socket = front.socket.clone();
    let a = std::thread::spawn(move || {
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream.write_all(a_line.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        read_one_answer(stream)
    });
    wait_for("the leader to reach a worker", || {
        fleet_sum(&front, 2, "\"flights\":") >= 1
    });

    // Session B sends the same query, which coalesces onto A's flight...
    let mut b = front.connect();
    let b_reader = BufReader::new(b.try_clone().unwrap());
    writeln!(b, "mine {rel} z=0 full=true id=dup").unwrap();
    wait_for("the duplicate to coalesce", || {
        fleet_sum(&front, 2, "\"coalesced\":") >= 1
    });

    // ...and then cancels it.
    writeln!(b, "cancel id=0").unwrap();
    b.shutdown(std::net::Shutdown::Write).unwrap();
    let (b_lines, b_done) = read_to_end_timed(b_reader);
    assert!(
        fleet_sum(&front, 2, "\"inflight\":") >= 1,
        "the flight still runs after the cancelled duplicate's answer"
    );
    assert_eq!(b_lines.len(), 2, "{b_lines:#?}");
    assert!(
        b_lines.iter().any(|l| l.starts_with("{\"id\":0,")
            && l.contains("\"client_id\":\"dup\"")
            && l.contains("\"halted\":\"cancelled\"")),
        "{b_lines:#?}"
    );
    assert!(
        b_lines.iter().any(|l| l.starts_with("{\"id\":1,")
            && l.contains("\"kind\":\"cancel\"")
            && l.contains("\"cancelled\":true")),
        "{b_lines:#?}"
    );

    // The leader never saw B's cancel, and its complete answer comes only
    // after B's: B was answered at the flight's next yield boundary, not
    // when the flight ended.
    let (a_line, a_done) = a.join().unwrap();
    assert!(b_done < a_done, "the cancelled duplicate was answered late");
    assert!(a_line.contains("\"client_id\":\"leader\""), "{a_line}");
    assert!(a_line.contains("\"ok\":true"), "{a_line}");
    assert!(a_line.contains("\"complete\":true"), "{a_line}");
    assert!(!a_line.contains("\"halted\""), "{a_line}");

    let _ = front.stop();
}

/// A retried request re-routes by its canonical cache key, not its raw line:
/// on a 3-shard `hash` fleet, a one-shot query whose owner dies under it is
/// re-run on the ring successor of the *key* — where every duplicate of it
/// now lands — even when the raw line (whose `id=` token the key omits)
/// hashes to the other survivor.
#[test]
fn retry_reroutes_by_the_canonical_key() {
    const SHARDS: usize = 3;
    let rel = pair_complement_inline(6);
    let policy = HashAffinityPolicy::new(SHARDS);
    let pick = |key: &str, down: Option<usize>| {
        let available: Vec<bool> = (0..SHARDS).map(|s| Some(s) != down).collect();
        let view = FleetView {
            available: &available,
            load: &[0; SHARDS],
            session: 0,
        };
        policy.choose(key, &view).unwrap()
    };
    let key = match wire::parse_line(&format!("mine {rel} z=0 full=true")) {
        Ok(ParsedLine {
            command: wire::Command::Query(request),
            ..
        }) => request.cache_key(),
        other => panic!("not a query: {other:?}"),
    };
    let owner = pick(&key, None);
    let key_survivor = pick(&key, Some(owner));
    // An `id=` token under which the raw line's survivor differs from the
    // key's: only then does the test tell the two routings apart.
    let line = (0..1000)
        .map(|i| format!("mine {rel} z=0 full=true id=r{i}"))
        .find(|line| pick(line, Some(owner)) != key_survivor)
        .expect("some id= token splits the two survivors");

    let front = TestFront::start("retry-key", SHARDS);
    let mut stream = front.connect();
    let reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(stream, "{line}").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    // Kill the owner while it executes the query.
    let deadline = Instant::now() + Duration::from_secs(10);
    while field_u64(&front.shard_stats(owner), "\"inflight\":") == 0 {
        assert!(Instant::now() < deadline, "request never showed in flight");
        std::thread::sleep(Duration::from_millis(2));
    }
    front.fleet.kill_shard(owner).expect("kill shard");

    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 1, "{lines:#?}");
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(lines[0].contains("\"complete\":true"), "{}", lines[0]);

    // The retry executed on the key's survivor, and only there.
    let other = (0..SHARDS)
        .find(|&s| s != owner && s != key_survivor)
        .unwrap();
    let flights = |s: usize| field_u64(&front.shard_stats(s), "\"flights\":");
    assert_eq!(flights(key_survivor), 1, "the key's survivor ran the retry");
    assert_eq!(flights(other), 0, "the raw line's survivor ran nothing");

    let summary = front.stop();
    assert_eq!(summary.errors, 0);
}

/// `Fleet::start` launches every shard before waiting for any: two shards
/// whose binary takes 0.3 s to start are both up in well under the 0.6 s a
/// one-at-a-time start would need.
#[test]
fn fleet_start_launches_shards_concurrently() {
    let dir = scratch_dir("concurrent-start");
    let mut config = FleetConfig::new(2, wrapper_script(&dir, "sleep 0.3"), dir.join("shards"));
    config.spec.workers = Some(1);

    let began = Instant::now();
    let fleet = Fleet::start(config).expect("fleet start");
    let took = began.elapsed();
    let answers: Vec<String> = (0..2)
        .map(|i| {
            let mut line = String::new();
            if let Ok(mut stream) = fleet.connect(i) {
                let _ = stream.write_all(b"stats\n");
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = BufReader::new(stream).read_line(&mut line);
            }
            line
        })
        .collect();
    // Stop the shards before asserting, so a failure leaks no processes.
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        took < Duration::from_millis(500),
        "two 0.3 s shard starts took {took:?}"
    );
    for (i, line) in answers.iter().enumerate() {
        assert!(line.contains("\"kind\":\"stats\""), "shard {i}: {line}");
    }
}

/// A shard that exits during start fails `Fleet::start` at once (not after
/// `ready_timeout`), and the shard that did come up is torn down with it.
#[test]
fn failed_start_tears_down_the_launched_shards() {
    let dir = scratch_dir("failed-start");
    let wrapper = wrapper_script(&dir, "case \"$*\" in *shard-1.sock*) exit 1 ;; esac");
    let mut config = FleetConfig::new(2, wrapper, dir.join("shards"));
    config.spec.workers = Some(1);

    let began = Instant::now();
    let err = match Fleet::start(config) {
        Ok(_) => panic!("a fleet with a failing shard started"),
        Err(err) => err,
    };
    let took = began.elapsed();
    assert!(
        err.to_string()
            .contains("shard 1 exited before accepting connections"),
        "{err}"
    );
    assert!(
        took < Duration::from_secs(2),
        "failure took {took:?} (ready_timeout is 10 s)"
    );
    assert!(
        UnixStream::connect(dir.join("shards").join("shard-0.sock")).is_err(),
        "shard 0 still accepts connections after the failed start"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dropping the last handle to a fleet without calling `shutdown` still
/// stops its shards: the supervisor thread must not keep the fleet alive.
#[test]
fn dropping_a_fleet_stops_its_shards() {
    let dir = scratch_dir("drop-stops-shards");
    let mut config = FleetConfig::new(1, qld_binary(), dir.join("shards"));
    config.spec.workers = Some(1);
    let socket = dir.join("shards").join("shard-0.sock");

    let fleet = Fleet::start(config).expect("fleet start");
    assert!(UnixStream::connect(&socket).is_ok(), "shard 0 is not up");
    let handle = Arc::downgrade(&fleet);
    drop(fleet);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut refused = UnixStream::connect(&socket).is_err();
    while !refused && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        refused = UnixStream::connect(&socket).is_err();
    }
    // Stop a shard the drop left running before asserting, so a failure
    // leaks no processes.
    if let Some(fleet) = handle.upgrade() {
        fleet.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        refused,
        "shard 0 still accepts connections 2 s after the fleet was dropped"
    );
}
